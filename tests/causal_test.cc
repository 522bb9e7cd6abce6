// Integration tests for the four secure causal protocols (CP0–CP3) on top
// of the PBFT substrate, including Byzantine share corruption, CP1 cleanup
// and amplification, and the front-running attack that motivates the paper.
#include <gtest/gtest.h>

#include "apps/dns.h"
#include "apps/kvstore.h"
#include "apps/trading.h"
#include "bft/client.h"
#include "bft/replica.h"
#include "causal/cp0.h"
#include "causal/cp1.h"
#include "causal/harness.h"
#include "causal/reveal.h"

namespace scab::causal {
namespace {

using bft::NodeId;
using sim::kMillisecond;
using sim::kSecond;

struct CaseParam {
  Protocol protocol;
  uint32_t f;
};

std::string case_name(const ::testing::TestParamInfo<CaseParam>& info) {
  return std::string(protocol_name(info.param.protocol)) + "_f" +
         std::to_string(info.param.f);
}

ClusterOptions options_for(Protocol p, uint32_t f) {
  ClusterOptions o;
  o.protocol = p;
  o.bft = bft::BftConfig::for_f(f);
  o.bft.batch_delay = 100 * sim::kMicrosecond;
  o.profile = sim::NetworkProfile::ideal();
  o.seed = 11;
  return o;
}

class CausalProtocolTest : public ::testing::TestWithParam<CaseParam> {};

TEST_P(CausalProtocolTest, RoundTrip) {
  const auto [p, f] = GetParam();
  auto opts = options_for(p, f);
  opts.service_factory = [] { return std::make_unique<apps::KvStore>(); };
  Cluster cluster(opts);

  auto put = cluster.run_one(0, apps::KvStore::put("k", to_bytes("v")));
  ASSERT_TRUE(put.has_value());
  EXPECT_EQ(*put, to_bytes("ok"));
  auto get = cluster.run_one(0, apps::KvStore::get("k"));
  ASSERT_TRUE(get.has_value());
  EXPECT_EQ(*get, to_bytes("v"));
}

TEST_P(CausalProtocolTest, ManyRequestsStateConsistent) {
  const auto [p, f] = GetParam();
  auto opts = options_for(p, f);
  opts.num_clients = 2;
  opts.service_factory = [] { return std::make_unique<apps::KvStore>(); };
  Cluster cluster(opts);

  const uint64_t kOps = 12;
  for (uint32_t c = 0; c < 2; ++c) {
    cluster.client(c).run_closed_loop(
        [c](uint64_t i) {
          return apps::KvStore::put(std::to_string(c) + ":" + std::to_string(i),
                                    to_bytes("x"));
        },
        kOps);
  }
  const bool done = cluster.sim().run_while([&] {
    return cluster.client(0).completed_ops() >= kOps &&
           cluster.client(1).completed_ops() >= kOps;
  });
  ASSERT_TRUE(done);
  for (uint32_t i = 0; i < cluster.n(); ++i) {
    EXPECT_EQ(dynamic_cast<apps::KvStore&>(cluster.service(i)).size(), 2 * kOps)
        << "replica " << i;
  }
}

TEST_P(CausalProtocolTest, ByzantineSharesDoNotBlockRecovery) {
  const auto [p, f] = GetParam();
  if (p == Protocol::kPbft || p == Protocol::kCp1) {
    GTEST_SKIP() << "no share-based reveal phase";
  }
  auto opts = options_for(p, f);
  Cluster cluster(opts);
  // Table IV fault model: f replicas contribute corrupted shares.
  for (uint32_t i = 1; i <= f; ++i) cluster.corrupt_replica_shares(i);

  auto& client = cluster.client(0);
  client.run_closed_loop([](uint64_t i) { return to_bytes("m" + std::to_string(i)); },
                         8);
  const bool done =
      cluster.sim().run_while([&] { return client.completed_ops() >= 8; });
  ASSERT_TRUE(done);
  // All HONEST replicas executed everything.
  EXPECT_EQ(cluster.replica(0).executed_requests(), 8u);
  EXPECT_EQ(cluster.replica(f + 1).executed_requests(), 8u);
}

INSTANTIATE_TEST_SUITE_P(
    Protocols, CausalProtocolTest,
    ::testing::Values(CaseParam{Protocol::kPbft, 1}, CaseParam{Protocol::kCp0, 1},
                      CaseParam{Protocol::kCp1, 1}, CaseParam{Protocol::kCp2, 1},
                      CaseParam{Protocol::kCp3, 1}, CaseParam{Protocol::kCp0, 2},
                      CaseParam{Protocol::kCp1, 2}, CaseParam{Protocol::kCp2, 2},
                      CaseParam{Protocol::kCp3, 2}),
    case_name);

// ---------------------------------------------------------------------------
// CP0 specifics

TEST(Cp0, ModeledBackendMatchesRealBehaviour) {
  for (bool modeled : {false, true}) {
    auto opts = options_for(Protocol::kCp0, 1);
    opts.cp0_modeled = modeled;
    opts.service_factory = [] { return std::make_unique<apps::KvStore>(); };
    Cluster cluster(opts);
    auto r = cluster.run_one(0, apps::KvStore::put("a", to_bytes("b")));
    ASSERT_TRUE(r.has_value()) << "modeled=" << modeled;
    EXPECT_EQ(*r, to_bytes("ok"));
  }
}

TEST(Cp0, ModeledBackendRejectsOutOfRangeShareIndices) {
  // Regression: the modeled oracle accepted any index with a valid tag, so
  // one sender could fabricate shares at indices n+1, n+2, ... and reach
  // the combine threshold alone.  Valid indices are 1..n.
  crypto::Drbg rng(to_bytes("modeled-idx"));
  ModeledThresholdBackend backend(/*threshold=*/2, /*servers=*/4);
  const Bytes label = to_bytes("L");
  const Bytes ct = backend.encrypt(to_bytes("msg"), label, rng);

  auto share_at = [&](uint32_t index) {
    auto share = backend.decryption_share_preverified(index, ct, label, rng);
    EXPECT_TRUE(share.has_value()) << index;
    return share.value_or(Bytes{});
  };
  // The batch verifier accepts exactly the in-range indices.
  std::vector<Bytes> shares;
  for (uint32_t index : {1u, 2u, 3u, 4u, 0u, 5u, 6u, 1000u}) {
    shares.push_back(share_at(index));
  }
  const auto verdict =
      backend.make_batch_share_verifier(ct, label, shares, rng)();
  ASSERT_EQ(verdict.verdicts.size(), shares.size());
  EXPECT_EQ(verdict.shares, shares);
  for (std::size_t i = 0; i < shares.size(); ++i) {
    EXPECT_EQ(verdict.verdicts[i], i < 4 ? 1 : 0) << "share " << i;
  }

  // Above-n shares do not count toward the threshold.
  std::vector<Bytes> forged;
  for (uint32_t index : {5u, 6u, 7u}) forged.push_back(share_at(index));
  EXPECT_FALSE(
      backend.combine_batch_preverified(ct, label, label, forged).has_value());
  forged.push_back(share_at(1));
  forged.push_back(share_at(2));
  const auto opened = backend.combine_batch_preverified(ct, label, label, forged);
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(*opened, std::vector<Bytes>{to_bytes("msg")});
}

TEST(Cp0, RequestContentHiddenUntilScheduled) {
  // The BFT payload is a ciphertext: no replica (or observer) sees the
  // plaintext before the reveal phase.  We check the wire: the secret never
  // appears in any client->replica request datagram.
  auto opts = options_for(Protocol::kCp0, 1);
  Cluster cluster(opts);
  const Bytes secret = to_bytes("super-secret-trade-0xdeadbeef");
  bool secret_leaked = false;
  cluster.faults().set_tamper(
      [&](NodeId from, NodeId /*to*/, BytesView msg) -> std::optional<Bytes> {
        if (from >= kClientBase) {
          const std::string hay(msg.begin(), msg.end());
          const std::string needle(secret.begin(), secret.end());
          if (hay.find(needle) != std::string::npos) secret_leaked = true;
        }
        return Bytes(msg.begin(), msg.end());
      });
  auto r = cluster.run_one(0, secret);
  ASSERT_TRUE(r.has_value());
  EXPECT_FALSE(secret_leaked);
}

// ---------------------------------------------------------------------------
// CP1 specifics

TEST(Cp1, CrashedClientTentativeRequestIsCleaned) {
  auto opts = options_for(Protocol::kCp1, 1);
  opts.num_clients = 2;
  opts.cp1.cleanup_cycle = 20;
  Cluster cluster(opts);

  auto& crasher =
      dynamic_cast<Cp1ClientProtocol&>(cluster.client_protocol(0));
  crasher.set_crash_before_reveal(true);
  cluster.client(0).submit(to_bytes("never-revealed"));

  // Background traffic advances the delivered-request counter past the
  // cleanup cycle.
  cluster.client(1).run_closed_loop([](uint64_t) { return Bytes(16, 9); }, 40);
  const bool done = cluster.sim().run_while([&] {
    auto& app = dynamic_cast<Cp1ReplicaApp&>(cluster.replica_app(0));
    return app.cleaned_count() >= 1 && app.tentative_count() == 0;
  });
  ASSERT_TRUE(done);
  // Let the cleanup batch reach the backups too.
  cluster.sim().run_until(cluster.sim().now() + 50 * kMillisecond);
  for (uint32_t i = 0; i < cluster.n(); ++i) {
    auto& app = dynamic_cast<Cp1ReplicaApp&>(cluster.replica_app(i));
    EXPECT_EQ(app.cleaned_count(), 1u) << "replica " << i;
    EXPECT_EQ(app.tentative_count(), 0u) << "replica " << i;
  }
  // No view change: the cleanup respected the cycle rule.
  EXPECT_EQ(cluster.replica(1).view_changes_completed(), 0u);
}

TEST(Cp1, PartialRevealIsAmplified) {
  auto opts = options_for(Protocol::kCp1, 1);
  opts.cp1.amplify_delay = 20 * kMillisecond;
  Cluster cluster(opts);

  auto& proto = dynamic_cast<Cp1ClientProtocol&>(cluster.client_protocol(0));
  proto.set_reveal_fanout(1);  // witness reaches a single backup only
  // Disable client retransmission so only amplification can save the day.
  cluster.client(0).set_retry_timeout(600 * kSecond);

  const auto result = cluster.run_one(0, to_bytes("amplified"), 30 * kSecond);
  ASSERT_TRUE(result.has_value());
  // The reveal detour (schedule + amplify delay + reorder) took at least
  // the amplification delay.
  EXPECT_GE(cluster.sim().now(), opts.cp1.amplify_delay);
  EXPECT_EQ(cluster.replica(0).view_changes_completed(), 0u);
}

TEST(Cp1, TentativeRequestsSurviveUntilCycle) {
  // Cleanup must NOT fire before the cycle elapses (correct clients with
  // slow reveals are safe).
  auto opts = options_for(Protocol::kCp1, 1);
  opts.num_clients = 2;
  opts.cp1.cleanup_cycle = 1000;
  Cluster cluster(opts);

  auto& crasher = dynamic_cast<Cp1ClientProtocol&>(cluster.client_protocol(0));
  crasher.set_crash_before_reveal(true);
  cluster.client(0).submit(to_bytes("pending"));

  cluster.client(1).run_closed_loop([](uint64_t) { return Bytes(16, 1); }, 50);
  cluster.sim().run_while(
      [&] { return cluster.client(1).completed_ops() >= 50; });

  auto& app = dynamic_cast<Cp1ReplicaApp&>(cluster.replica_app(0));
  EXPECT_EQ(app.cleaned_count(), 0u);
  EXPECT_EQ(app.tentative_count(), 1u);
}

// ---------------------------------------------------------------------------
// The front-running attack (paper §I): a Byzantine replica reads a pending
// request and a colluding client gets a derived request ordered first.

// Plain PBFT: the adversary wins — the honest client's name is stolen.
TEST(FrontRunning, SucceedsAgainstPlainPbft) {
  auto opts = options_for(Protocol::kPbft, 1);
  opts.num_clients = 2;
  opts.service_factory = [] { return std::make_unique<apps::DnsRegistry>(); };
  Cluster cluster(opts);

  const NodeId honest = Cluster::client_id(0);
  const NodeId corrupt = Cluster::client_id(1);

  // The honest client's link to the primary is slow (modeled as a cut that
  // heals); the Byzantine backup that DID receive the cleartext request
  // tells its colluding client, which immediately registers the same name.
  cluster.faults().cut(honest, 0);
  cluster.client(0).submit(apps::DnsRegistry::register_name("gold.example"));
  cluster.sim().run_until(cluster.sim().now() + 5 * kMillisecond);

  // The colluding client read the name from the backup's copy (plain PBFT
  // payloads are cleartext) and front-runs.
  std::optional<Bytes> stolen =
      cluster.run_one(1, apps::DnsRegistry::register_name("gold.example"));
  ASSERT_TRUE(stolen.has_value());
  EXPECT_EQ(*stolen, to_bytes("registered"));

  cluster.faults().heal(honest, 0);
  const bool honest_done = cluster.sim().run_while(
      [&] { return cluster.client(0).completed_ops() >= 1; });
  ASSERT_TRUE(honest_done);
  // The honest client lost the race: the registry records the thief.
  auto& dns = dynamic_cast<apps::DnsRegistry&>(cluster.service(0));
  EXPECT_EQ(dns.owner("gold.example"), corrupt);
  EXPECT_EQ(cluster.client(0).last_result(),
            to_bytes("taken:" + std::to_string(corrupt)));
}

// CP1: the adversary sees only a commitment.  Even replaying the honest
// commitment under its own identity is useless — it cannot open it, the
// copied request is eventually cleaned, and the honest client gets the
// name.
TEST(FrontRunning, FailsAgainstCp1) {
  auto opts = options_for(Protocol::kCp1, 1);
  opts.num_clients = 2;
  opts.cp1.cleanup_cycle = 10;
  opts.service_factory = [] { return std::make_unique<apps::DnsRegistry>(); };
  Cluster cluster(opts);

  const NodeId honest = Cluster::client_id(0);
  const NodeId corrupt = Cluster::client_id(1);

  // Capture the honest client's schedule payload off the wire (this is all
  // a Byzantine replica can see: the commitment).
  Bytes observed_schedule;
  cluster.faults().set_tamper(
      [&](NodeId from, NodeId /*to*/, BytesView msg) -> std::optional<Bytes> {
        if (from == honest && observed_schedule.empty()) {
          observed_schedule.assign(msg.begin(), msg.end());
        }
        return Bytes(msg.begin(), msg.end());
      });

  // Slow the honest client's reveal path to give the adversary every
  // advantage: cut the link to the primary during the schedule phase.
  cluster.faults().cut(honest, 0);
  cluster.client(0).submit(apps::DnsRegistry::register_name("gold.example"));
  cluster.sim().run_until(cluster.sim().now() + 5 * kMillisecond);
  ASSERT_FALSE(observed_schedule.empty());

  // The adversary replays the observed commitment as its own request.  The
  // envelope was MAC'd for a specific replica by the honest client, so the
  // colluding client must re-wrap the COMMITMENT under its own identity —
  // the strongest thing it can do.
  {
    auto env = bft::open_envelope(cluster.keys(), 1, observed_schedule);
    // The observation was of the copy sent to replica 1.
    ASSERT_TRUE(env.has_value());
    auto req = bft::ClientRequestMsg::parse(env->body);
    ASSERT_TRUE(req.has_value());
    // Re-send the same commitment payload under the corrupt identity.
    bft::ClientRequestMsg evil;
    evil.client_seq = 1;
    evil.payload = req->payload;
    const Bytes body = evil.serialize();
    for (NodeId r = 0; r < cluster.n(); ++r) {
      cluster.host().send(corrupt, r,
                          bft::seal_envelope(cluster.keys(),
                                             bft::Channel::kClientRequest,
                                             corrupt, r, body));
    }
  }
  cluster.sim().run_until(cluster.sim().now() + 20 * kMillisecond);

  // Heal; the honest client retransmits, schedules, reveals, executes.
  cluster.faults().heal(honest, 0);
  const bool honest_done = cluster.sim().run_while(
      [&] { return cluster.client(0).completed_ops() >= 1; });
  ASSERT_TRUE(honest_done);

  auto& dns = dynamic_cast<apps::DnsRegistry&>(cluster.service(0));
  EXPECT_EQ(dns.owner("gold.example"), honest);
  EXPECT_EQ(cluster.client(0).last_result(), to_bytes("registered"));
}

// CP2: shares travel over private channels; the commitment ordered by the
// BFT reveals nothing.  The honest client's trade executes at the
// unmanipulated price.
TEST(FrontRunning, FailsAgainstCp2) {
  auto opts = options_for(Protocol::kCp2, 1);
  opts.num_clients = 2;
  opts.service_factory = [] { return std::make_unique<apps::TradingService>(); };
  Cluster cluster(opts);

  const Bytes secret_op = apps::TradingService::buy("ACME", 100);
  bool leaked = false;
  cluster.faults().set_tamper(
      [&](NodeId from, NodeId /*to*/, BytesView msg) -> std::optional<Bytes> {
        if (from == Cluster::client_id(0)) {
          // AEAD protects the shares: the op must not appear on the wire.
          const std::string hay(msg.begin(), msg.end());
          const std::string needle(reinterpret_cast<const char*>(secret_op.data() + 1),
                                   4);  // "ACME"
          if (hay.find(needle) != std::string::npos) leaked = true;
        }
        return Bytes(msg.begin(), msg.end());
      });

  auto fill = cluster.run_one(0, secret_op);
  ASSERT_TRUE(fill.has_value());
  EXPECT_FALSE(leaked);
  // Executed at the initial, unmanipulated price.
  EXPECT_EQ(*fill, to_bytes("filled:100@" +
                            std::to_string(apps::TradingService::kInitialPriceCents)));
}

// A share the client dealt that reaches its replica only after delivery
// must count as that replica's own share, as an on-time one does: sent to
// the peers at once and fed into recovery (for CP3's ARSS2, as the trusted
// anchor).  With one backup down the late replica has only 2f live peers,
// and ARSS2 without its anchor needs f + 2 peer shares, so before this held
// the late replica never revealed and its execution queue stalled for good.
TEST(LateDealtShare, CountsAsOwnShareWithOneBackupDown) {
  for (Protocol p : {Protocol::kCp2, Protocol::kCp3}) {
    SCOPED_TRACE(protocol_name(p));
    Cluster cluster(options_for(p, 1));
    cluster.faults().crash(3);
    // Replica 1 still gets each request early through the primary's
    // pre-prepare, but the client's shares to it lag well past delivery.
    cluster.faults().delay(Cluster::client_id(0), 1, 20 * kMillisecond);

    constexpr int kOps = 10;
    const sim::SimTime start = cluster.sim().now();
    for (int i = 0; i < kOps; ++i) {
      ASSERT_TRUE(
          cluster.run_one(0, to_bytes("op-" + std::to_string(i))).has_value())
          << i;
    }
    // Each op waits out the lag once, never the 500 ms reveal retry.
    EXPECT_LT(cluster.sim().now() - start, kOps * 100 * kMillisecond);
    const sim::SimTime settle = cluster.sim().now() + 1 * kSecond;
    cluster.sim().run_while([&] { return cluster.sim().now() >= settle; });
    for (uint32_t r = 0; r < 3; ++r) {
      const auto& app = dynamic_cast<RevealEngine&>(cluster.replica_app(r));
      EXPECT_EQ(app.pending_count(), 0u) << "replica " << r << " stalled";
    }
  }
}

}  // namespace
}  // namespace scab::causal
