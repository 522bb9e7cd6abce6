// Runtime-agnostic fault injection (DESIGN.md §9): the same
// host::FaultPlan calls drive a partition -> view-change -> heal drill
// on the deterministic simulator and on the real-time threaded runtime.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <optional>
#include <string>

#include "bft/client.h"
#include "bft/replica.h"
#include "causal/harness.h"

namespace scab::causal {
namespace {

class FaultsTest : public ::testing::TestWithParam<RuntimeKind> {};

// Cut the primary's replica links mid-burst: the backups' fairness watchdog
// must force a view change (bft.view_changes_completed advances), the
// in-flight request completes under the new primary, and after heal_all the
// cluster keeps delivering.
TEST_P(FaultsTest, PartitionTriggersViewChangeThenHealDelivers) {
  ClusterOptions opts;
  opts.protocol = Protocol::kPbft;
  opts.runtime = GetParam();
  opts.bft = bft::BftConfig::for_f(1);
  opts.bft.request_timeout = 300 * host::kMillisecond;
  opts.bft.watchdog_period = 100 * host::kMillisecond;
  opts.num_clients = 1;
  opts.seed = 5;
  Cluster cluster(opts);
  cluster.client(0).set_retry_timeout(150 * host::kMillisecond);

  ASSERT_TRUE(cluster.run_one(0, to_bytes("healthy")).has_value());

  // Partition the view-0 primary from every backup (both directions).
  host::FaultPlan& faults = cluster.faults();
  for (uint32_t r = 1; r < cluster.n(); ++r) {
    faults.cut(0, r);
    faults.cut(r, 0);
  }

  // Mid-burst request: it can only complete once the backups elect a new
  // primary, so success here IS the view-change assertion; the counter
  // check below attributes it.
  ASSERT_TRUE(
      cluster.run_one(0, to_bytes("during-partition"), 20 * host::kSecond)
          .has_value());

  uint64_t view_changes = 0;
  for (uint32_t r = 1; r < cluster.n(); ++r) {
    view_changes += cluster.replica_metrics(r)
                        .counter("bft.view_changes_completed")
                        .value();
  }
  EXPECT_GT(view_changes, 0u);

  faults.heal_all();
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(
        cluster.run_one(0, to_bytes("post-heal-" + std::to_string(i)))
            .has_value())
        << i;
  }
  cluster.shutdown();
}

// Directed cut semantics: dropping a single backup's inbound links must NOT
// cost liveness (quorum is 2f+1 of n=3f+1), and healing restores it.
TEST_P(FaultsTest, SingleBackupIsolationKeepsQuorum) {
  ClusterOptions opts;
  opts.protocol = Protocol::kPbft;
  opts.runtime = GetParam();
  opts.num_clients = 1;
  opts.seed = 6;
  Cluster cluster(opts);

  host::FaultPlan& faults = cluster.faults();
  for (uint32_t r = 0; r < cluster.n(); ++r) {
    if (r != 3) faults.cut(r, 3);
  }
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(cluster.run_one(0, to_bytes("cut-" + std::to_string(i)))
                    .has_value())
        << i;
  }
  faults.heal_all();
  ASSERT_TRUE(cluster.run_one(0, to_bytes("healed")).has_value());
  cluster.shutdown();
}

// Every plan control, one probe at a time between idle replicas.  A raw
// host send meets the plan synchronously on both runtimes (at send under
// the sim, at the in-process channel's delivery chokepoint under threads),
// so each probe's fate is known when send returns and both runtimes must
// count exactly the same drops.
TEST_P(FaultsTest, EveryControlAttributesDropsAlikeOnBothRuntimes) {
  ClusterOptions opts;
  opts.protocol = Protocol::kPbft;
  opts.runtime = GetParam();
  opts.num_clients = 1;
  opts.seed = 7;
  Cluster cluster(opts);
  host::FaultPlan& faults = cluster.faults();
  obs::MetricsRegistry& net = cluster.net_metrics();
  const auto drops = [&] {
    return std::array<uint64_t, 3>{net.counter("net.drops.crash").value(),
                                   net.counter("net.drops.cut").value(),
                                   net.counter("net.drops.tamper").value()};
  };
  // Unauthenticated, so a replica that receives one drops it unopened.
  const auto probe = [&](host::NodeId from, host::NodeId to) {
    cluster.host().send(from, to, to_bytes("probe"));
  };
  using Drops = std::array<uint64_t, 3>;  // crash, cut, tamper
  ASSERT_EQ(drops(), (Drops{0, 0, 0}));

  // A crash blackholes the node in both directions until restart.
  faults.crash(3);
  EXPECT_TRUE(faults.is_crashed(3));
  probe(0, 3);
  probe(3, 1);
  faults.restart(3);
  EXPECT_FALSE(faults.is_crashed(3));
  probe(0, 3);
  EXPECT_EQ(drops(), (Drops{2, 0, 0}));

  // A cut is directed, and heal restores exactly that link.
  faults.cut(1, 2);
  probe(1, 2);
  probe(2, 1);
  faults.heal(1, 2);
  probe(1, 2);
  EXPECT_EQ(drops(), (Drops{2, 1, 0}));

  // heal_all clears every cut and delay; a delayed link still delivers.
  faults.cut(0, 1);
  faults.cut(0, 2);
  faults.delay(0, 3, host::kMillisecond);
  faults.heal_all();
  probe(0, 1);
  probe(0, 2);
  faults.delay(2, 3, 5 * host::kMillisecond);
  probe(2, 3);
  faults.clear_delays();
  EXPECT_EQ(drops(), (Drops{2, 1, 0}));

  // The tamper hook runs after the crash and cut checks and may drop.
  std::atomic<int> consulted{0};
  faults.set_tamper([&consulted](host::NodeId from, host::NodeId,
                                 BytesView msg) -> std::optional<Bytes> {
    ++consulted;
    if (from == 0) return std::nullopt;
    return Bytes(msg.begin(), msg.end());
  });
  probe(0, 1);
  probe(1, 0);
  faults.crash(2);
  probe(0, 2);
  faults.restart(2);
  faults.clear_tamper();
  probe(0, 1);
  EXPECT_EQ(consulted.load(), 2);
  EXPECT_EQ(drops(), (Drops{3, 1, 1}));

  // Nothing is left in the plan: the cluster orders a request as usual.
  EXPECT_TRUE(cluster.run_one(0, to_bytes("after-the-drill")).has_value());
  cluster.shutdown();
}

INSTANTIATE_TEST_SUITE_P(
    Runtimes, FaultsTest,
    ::testing::Values(RuntimeKind::kSim, RuntimeKind::kThreads),
    [](const ::testing::TestParamInfo<RuntimeKind>& info) {
      return info.param == RuntimeKind::kSim ? std::string("sim")
                                             : std::string("threads");
    });

}  // namespace
}  // namespace scab::causal
