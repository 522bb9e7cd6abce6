// bft::Client's one request path: every operation — closed loop, open loop
// or submit — runs in a slot.  These tests pin the slot contract: submit on
// a busy client is refused without side effects, a retry timer left by a
// slot that set_pipeline replaced stays dead, the pipeline-occupancy
// histogram exists only once set_pipeline ran, and the open loop sheds
// (never queues) ticks that find no free slot.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "bft/client.h"
#include "causal/harness.h"
#include "causal/plain.h"

namespace scab::causal {
namespace {

ClusterOptions pbft_lan(uint64_t seed) {
  ClusterOptions opts;
  opts.protocol = Protocol::kPbft;
  opts.bft = bft::BftConfig::for_f(1);
  opts.profile = sim::NetworkProfile::lan();
  opts.num_clients = 1;
  opts.seed = seed;
  return opts;
}

// Drives the simulator until `client` has completed `ops` operations or
// `budget` of virtual time has passed.
void drain(Cluster& cluster, bft::Client& client, uint64_t ops,
           host::Time budget = 30 * host::kSecond) {
  const host::Time stop_at = cluster.sim().now() + budget;
  cluster.sim().run_while([&] {
    return client.completed_ops() >= ops || cluster.sim().now() >= stop_at;
  });
}

TEST(Client, SubmitOnBusyClientIsRefusedAndChangesNothing) {
  Cluster cluster(pbft_lan(11));
  bft::Client& client = cluster.client(0);
  std::vector<uint64_t> first_done;
  int second_calls = 0;
  ASSERT_TRUE(client.submit(to_bytes("first"),
                            [&](uint64_t index, host::Time, host::Time) {
                              first_done.push_back(index);
                            }));
  EXPECT_FALSE(client.submit(to_bytes("second"),
                             [&](uint64_t, host::Time, host::Time) {
                               ++second_calls;
                             }));
  EXPECT_EQ(cluster.client_metrics(0).counter_value("client.submitted"), 1u);

  drain(cluster, client, 1);
  EXPECT_EQ(client.completed_ops(), 1u);
  // The refused submit neither replaced the running hook nor took an index.
  EXPECT_EQ(first_done, std::vector<uint64_t>{0});
  EXPECT_EQ(second_calls, 0);
  // The slot is free again.
  EXPECT_TRUE(client.submit(to_bytes("third")));
}

// Never sends and counts retransmissions: a stand-in that lets the test see
// which slot a retry timer fires into.
class SilentProtocol final : public bft::ClientProtocol {
 public:
  explicit SilentProtocol(int* retransmits) : retransmits_(retransmits) {}
  void start(uint64_t, BytesView, bft::ClientContext&) override {}
  void on_reply(bft::NodeId, const bft::ReplyMsg&,
                bft::ClientContext&) override {}
  void on_retransmit(bft::ClientContext&) override { ++*retransmits_; }

 private:
  int* retransmits_;
};

TEST(Client, RetryTimerOfReplacedSlotNeverFiresIntoItsSuccessor) {
  Cluster cluster(pbft_lan(12));
  for (uint32_t r = 0; r < cluster.n(); ++r) cluster.net().faults().crash(r);
  bft::Client& client = cluster.client(0);
  const host::Time timeout = 100 * host::kMillisecond;
  client.set_retry_timeout(timeout);

  // Slot 0 (the constructor's protocol) arms a retry for t0 + timeout ...
  const host::Time t0 = cluster.sim().now();
  ASSERT_TRUE(client.submit(to_bytes("probe")));
  cluster.sim().run_until(t0 + timeout / 2);

  // ... and is replaced before it fires.  The new slot 0 arms its own
  // retry for t0 + 3/2 timeout.
  int retransmits = 0;
  client.set_pipeline(
      [&retransmits] { return std::make_unique<SilentProtocol>(&retransmits); },
      2, 1);
  client.run_closed_loop([](uint64_t) { return to_bytes("op"); }, 2);
  cluster.sim().run_until(t0 + timeout + timeout / 4);
  EXPECT_EQ(retransmits, 0) << "the replaced slot's timer fired into a new one";
  EXPECT_EQ(cluster.client_metrics(0).counter_value("client.retries"), 0u);

  // The new slots' own timers still fire, once each.
  cluster.sim().run_until(t0 + timeout + timeout / 2 + timeout / 4);
  EXPECT_EQ(retransmits, 2);
}

TEST(Client, PipelineSlotsRecordedOnlyAfterSetPipeline) {
  Cluster cluster(pbft_lan(13));
  bft::Client& client = cluster.client(0);
  client.run_closed_loop([](uint64_t i) { return to_bytes(std::to_string(i)); },
                         3);
  drain(cluster, client, 3);
  ASSERT_EQ(client.completed_ops(), 3u);
  EXPECT_EQ(cluster.client_metrics(0).find_histogram("client.pipeline_slots"),
            nullptr);

  client.set_pipeline(
      [] { return std::make_unique<PlainClientProtocol>(); }, 2, 1);
  client.run_closed_loop([](uint64_t i) { return to_bytes(std::to_string(i)); },
                         4);
  drain(cluster, client, 7);
  EXPECT_EQ(client.completed_ops(), 7u);
  const obs::Histogram* slots =
      cluster.client_metrics(0).find_histogram("client.pipeline_slots");
  ASSERT_NE(slots, nullptr);
  EXPECT_GT(slots->count(), 0u);
  EXPECT_EQ(slots->max(), 2u);
}

uint64_t run_open_loop(Cluster& cluster, host::Time interval, uint64_t ops) {
  bft::Client& client = cluster.client(0);
  client.run_open_loop([](uint64_t i) { return to_bytes(std::to_string(i)); },
                       ops, interval);
  drain(cluster, client, ops);
  EXPECT_EQ(client.completed_ops(), ops);
  EXPECT_EQ(cluster.client_metrics(0).counter_value("client.submitted"), ops);
  EXPECT_EQ(cluster.client_metrics(0).counter_value("client.completed"), ops);
  return cluster.client_metrics(0).counter_value("client.shed");
}

TEST(Client, OpenLoopAboveCapacityShedsTicks) {
  Cluster cluster(pbft_lan(14));
  // A tick every 10 us against a round trip of several 0.1 ms hops: almost
  // every tick finds the one slot busy.
  EXPECT_GT(run_open_loop(cluster, 10 * host::kMicrosecond, 20), 0u);
}

TEST(Client, OpenLoopBelowCapacityShedsNothing) {
  Cluster cluster(pbft_lan(15));
  EXPECT_EQ(run_open_loop(cluster, 50 * host::kMillisecond, 20), 0u);
}

}  // namespace
}  // namespace scab::causal
