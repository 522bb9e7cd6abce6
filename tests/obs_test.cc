// Observability layer: metrics/tracer unit tests, then harness-level
// integration tests that drive faults through a cluster and assert the
// expected counters move — and that nothing else does.
#include <gtest/gtest.h>

#include <cmath>

#include "apps/kvstore.h"
#include "bft/client.h"
#include "bft/replica.h"
#include "causal/harness.h"
#include "causal/id.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace scab {
namespace {

using causal::Cluster;
using causal::ClusterOptions;
using causal::Protocol;
using sim::kMillisecond;
using sim::kSecond;

// ---------------------------------------------------------------------------
// Unit: registry

TEST(Metrics, CounterGaugeHistogramBasics) {
  obs::MetricsRegistry reg;
  obs::Counter& c = reg.counter("a.count");
  c.inc();
  c.inc(4);
  EXPECT_EQ(reg.counter_value("a.count"), 5u);
  EXPECT_EQ(reg.counter_value("missing"), 0u);

  obs::Gauge& g = reg.gauge("a.level");
  g.set(7);
  g.set(3);
  EXPECT_EQ(reg.gauge_value("a.level"), 3);
  EXPECT_EQ(reg.gauge_max("a.level"), 7);

  obs::Histogram& h = reg.histogram("a.lat_ns");
  h.record(100);
  h.record(1000);
  h.record(10000);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.sum(), 11100u);
  EXPECT_EQ(h.min(), 100u);
  EXPECT_EQ(h.max(), 10000u);
  EXPECT_GE(h.quantile(0.5), 1000u);  // bucket upper bound >= the value
  // Handles are stable: the same name returns the same instrument.
  EXPECT_EQ(&reg.counter("a.count"), &c);
}

TEST(Metrics, MergeSumsCountersAndTakesGaugeMax) {
  obs::MetricsRegistry a;
  obs::MetricsRegistry b;
  a.counter("x").inc(2);
  b.counter("x").inc(3);
  b.counter("only_b").inc(1);
  a.gauge("g").set(10);
  a.gauge("g").set(1);  // max 10, value 1
  b.gauge("g").set(4);  // max 4, value 4
  a.histogram("h").record(8);
  b.histogram("h").record(16);

  a.merge_from(b);
  EXPECT_EQ(a.counter_value("x"), 5u);
  EXPECT_EQ(a.counter_value("only_b"), 1u);
  EXPECT_EQ(a.gauge_value("g"), 5);   // values add (cluster-wide level)
  EXPECT_EQ(a.gauge_max("g"), 10);    // high-water marks take the max
  EXPECT_EQ(a.find_histogram("h")->count(), 2u);
  EXPECT_EQ(a.find_histogram("h")->sum(), 24u);
}

TEST(Metrics, ChangedCountersDiff) {
  obs::MetricsRegistry reg;
  reg.counter("stay").inc(5);
  auto before = reg.counter_values();
  reg.counter("stay").inc(0);   // untouched value
  reg.counter("move").inc(2);   // new and nonzero
  reg.counter("zero");          // new but zero: not a change
  auto changed = obs::changed_counters(before, reg.counter_values());
  ASSERT_EQ(changed.size(), 1u);
  EXPECT_EQ(changed.at("move"), 2u);
}

TEST(Metrics, ToJsonIsParseable) {
  obs::MetricsRegistry reg;
  reg.counter("n.c").inc(42);
  reg.gauge("n.g").set(-3);
  reg.histogram("n.h").record(1000);
  const auto doc = obs::json::parse(reg.to_json());
  ASSERT_TRUE(doc.has_value());
  const auto* c = obs::json::find_path(*doc, "counters/n.c");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->as_number(), 42.0);
  EXPECT_EQ(obs::json::find_path(*doc, "gauges/n.g/value")->as_number(), -3.0);
  EXPECT_EQ(obs::json::find_path(*doc, "histograms/n.h/count")->as_number(),
            1.0);
}

// ---------------------------------------------------------------------------
// Unit: tracer

TEST(Tracer, BreakdownTelescopesExactly) {
  obs::Tracer t;
  // Request 1: all phases present.
  t.record(1, 1, obs::Phase::kSubmit, 100);
  t.record(1, 1, obs::Phase::kAdmit, 200);
  t.record(1, 1, obs::Phase::kPrePrepare, 250);
  t.record(1, 1, obs::Phase::kPrepared, 400);
  t.record(1, 1, obs::Phase::kCommitted, 500);
  t.record(1, 1, obs::Phase::kExecuted, 600);
  t.record(1, 1, obs::Phase::kRevealed, 900);
  t.record(1, 1, obs::Phase::kCompleted, 1000);
  // Request 2: reveal phase missing (plain PBFT) — backfilled, zero-length.
  t.record(1, 2, obs::Phase::kSubmit, 1000);
  t.record(1, 2, obs::Phase::kAdmit, 1500);
  t.record(1, 2, obs::Phase::kPrePrepare, 1600);
  t.record(1, 2, obs::Phase::kPrepared, 1700);
  t.record(1, 2, obs::Phase::kCommitted, 1800);
  t.record(1, 2, obs::Phase::kExecuted, 1900);
  t.record(1, 2, obs::Phase::kCompleted, 3000);
  // Incomplete span: never completed, excluded from the breakdown.
  t.record(2, 1, obs::Phase::kSubmit, 5000);

  const auto b = t.breakdown();
  EXPECT_EQ(b.completed, 2u);
  EXPECT_EQ(b.tracked, 3u);
  // Mean of (1000-100) and (3000-1000) = 1450 ns.
  EXPECT_NEAR(b.end_to_end_ms, 1450.0 / 1e6, 1e-12);
  double sum = 0;
  for (const auto& p : b.phases) sum += p.mean_ms;
  EXPECT_NEAR(sum, b.end_to_end_ms, 1e-12);  // exact telescoping
  // The reveal segment exists but only one request recorded it itself.
  bool found_reveal = false;
  for (const auto& p : b.phases) {
    if (std::string(p.name) == "reveal") {
      found_reveal = true;
      EXPECT_EQ(p.observed, 1u);
    }
  }
  EXPECT_TRUE(found_reveal);

  // Earlier records win: a later, larger timestamp does not move the phase.
  t.record(1, 1, obs::Phase::kAdmit, 99999);
  EXPECT_EQ(t.first_at(1, 1, obs::Phase::kAdmit), 200u);
}

TEST(Tracer, CapacityBoundsTrackedSpans) {
  obs::Tracer t(4);
  for (uint64_t s = 1; s <= 10; ++s) {
    t.record(1, s, obs::Phase::kSubmit, s * 10);
  }
  EXPECT_EQ(t.tracked(), 4u);
  // Existing spans still update past the cap.
  t.record(1, 1, obs::Phase::kCompleted, 1000);
  EXPECT_EQ(t.breakdown().completed, 1u);
  // Inert tracer records nothing.
  obs::Tracer& sink = obs::Tracer::inert();
  sink.record(9, 9, obs::Phase::kSubmit, 1);
  EXPECT_EQ(sink.tracked(), 0u);
}

// ---------------------------------------------------------------------------
// Integration: harness + fault injection

ClusterOptions obs_options(Protocol p = Protocol::kPbft) {
  ClusterOptions o;
  o.protocol = p;
  o.bft = bft::BftConfig::for_f(1);
  o.bft.request_timeout = 1 * kSecond;
  o.bft.watchdog_period = 200 * kMillisecond;
  o.profile = sim::NetworkProfile::ideal();
  o.seed = 31;
  o.service_factory = [] { return std::make_unique<apps::KvStore>(); };
  return o;
}

TEST(ObsIntegration, NetworkDropAttribution) {
  Cluster cluster(obs_options());
  auto& net_m = cluster.net_metrics();

  // Baseline: a clean request drops nothing.
  ASSERT_TRUE(cluster.run_one(0, apps::KvStore::put("a", to_bytes("1"))));
  EXPECT_EQ(net_m.counter_value("net.drops.crash"), 0u);
  EXPECT_EQ(net_m.counter_value("net.drops.cut"), 0u);
  EXPECT_EQ(net_m.counter_value("net.drops.tamper"), 0u);
  EXPECT_GT(net_m.counter_value("net.messages_delivered"), 0u);

  // Crash replica 3: its traffic is dropped, attributed to kCrash only.
  cluster.faults().crash(3);
  ASSERT_TRUE(cluster.run_one(0, apps::KvStore::put("b", to_bytes("2"))));
  EXPECT_GT(net_m.counter_value("net.drops.crash"), 0u);
  EXPECT_EQ(net_m.counter_value("net.drops.cut"), 0u);
  EXPECT_EQ(net_m.counter_value("net.drops.tamper"), 0u);
  cluster.faults().restart(3);

  // Cut one direction of one link: attributed to kCut only.
  const uint64_t crash_before = net_m.counter_value("net.drops.crash");
  cluster.faults().cut(1, 2);
  ASSERT_TRUE(cluster.run_one(0, apps::KvStore::put("c", to_bytes("3"))));
  EXPECT_GT(net_m.counter_value("net.drops.cut"), 0u);
  EXPECT_EQ(net_m.counter_value("net.drops.crash"), crash_before);
  EXPECT_EQ(net_m.counter_value("net.drops.tamper"), 0u);
  cluster.faults().heal(1, 2);

  // Tamper hook dropping 2 -> 3 traffic: attributed to kTamper only.
  const uint64_t cut_before = net_m.counter_value("net.drops.cut");
  cluster.faults().set_tamper(
      [](sim::NodeId from, sim::NodeId to,
         BytesView msg) -> std::optional<Bytes> {
        if (from == 2 && to == 3) return std::nullopt;
        return Bytes(msg.begin(), msg.end());
      });
  ASSERT_TRUE(cluster.run_one(0, apps::KvStore::put("d", to_bytes("4"))));
  EXPECT_GT(net_m.counter_value("net.drops.tamper"), 0u);
  EXPECT_EQ(net_m.counter_value("net.drops.cut"), cut_before);
  EXPECT_EQ(net_m.counter_value("net.drops.crash"), crash_before);
}

TEST(ObsIntegration, PhaseBreakdownMatchesClientLatency) {
  auto opts = obs_options();
  opts.profile = sim::NetworkProfile::lan();
  Cluster cluster(opts);

  const uint64_t kOps = 20;
  auto& client = cluster.client(0);
  client.run_closed_loop(
      [](uint64_t i) {
        return apps::KvStore::put("k" + std::to_string(i), to_bytes("v"));
      },
      kOps);
  ASSERT_TRUE(cluster.sim().run_while([&] {
    return client.completed_ops() >= kOps ||
           cluster.sim().now() > 60 * kSecond;
  }));
  ASSERT_EQ(client.completed_ops(), kOps);

  const auto b = cluster.tracer().breakdown();
  EXPECT_EQ(b.completed, kOps);
  ASSERT_GT(b.end_to_end_ms, 0.0);
  double sum = 0;
  for (const auto& p : b.phases) sum += p.mean_ms;
  // The figure benches promise "within 5%"; the construction is exact.
  EXPECT_NEAR(sum, b.end_to_end_ms, 1e-9 * b.end_to_end_ms);

  // The tracer's end-to-end mean is the client's measured mean latency.
  const auto* lat = cluster.client_metrics(0).find_histogram("client.latency_ns");
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->count(), kOps);
  EXPECT_NEAR(lat->mean() / 1e6, b.end_to_end_ms, 0.01 * b.end_to_end_ms);

  // Replica-side counters saw all kOps requests.
  for (uint32_t i = 0; i < cluster.n(); ++i) {
    EXPECT_EQ(cluster.replica_metrics(i).counter_value("bft.requests_executed"),
              kOps)
        << "replica " << i;
  }
}

TEST(ObsIntegration, CorruptSharesMoveRejectionCounters) {
  auto opts = obs_options(Protocol::kCp0);
  Cluster cluster(opts);
  cluster.corrupt_replica_shares(3);

  // Share verification is lazy: a replica stops at the f+1 threshold, so
  // with honest shares in flight the corrupt one might never be checked.
  // Starve replica 0 of the honest reveal traffic (causal channel only) so
  // the corrupt share is the only peer share it ever verifies.
  cluster.faults().set_tamper(
      [&](sim::NodeId from, sim::NodeId to,
          BytesView msg) -> std::optional<Bytes> {
        if ((from == 1 || from == 2) && to == 0) {
          auto env = bft::open_envelope(cluster.keys(), to, msg);
          if (env && env->channel == bft::Channel::kCausal) return std::nullopt;
        }
        return Bytes(msg.begin(), msg.end());
      });

  ASSERT_TRUE(cluster.run_one(0, apps::KvStore::put("k", to_bytes("v")),
                              60 * kSecond));
  cluster.sim().run_until(cluster.sim().now() + 50 * kMillisecond);

  // Replica 0 saw only the corrupt peer share: verified, rejected, and
  // could not combine (own share + zero valid peers < f+1).
  auto& m0 = cluster.replica_metrics(0);
  EXPECT_GT(m0.counter_value("cp0.shares_rejected"), 0u);
  EXPECT_EQ(m0.counter_value("cp0.combines"), 0u);
  EXPECT_EQ(m0.counter_value("cp0.ct_rejected"), 0u);
  // The rejection came out of the batch-verification path: the flush that
  // met the corrupt share is counted as a fallback (batch not all-valid).
  EXPECT_GT(m0.counter_value("cp0.batch_fallbacks"), 0u);

  // Replicas 1 and 2 had the honest shares and combined normally — the
  // corrupt replica cannot block recovery.
  for (uint32_t i = 1; i < 3; ++i) {
    auto& m = cluster.replica_metrics(i);
    EXPECT_GT(m.counter_value("cp0.shares_verified"), 0u) << "replica " << i;
    EXPECT_GT(m.counter_value("cp0.combines"), 0u) << "replica " << i;
  }
}

TEST(ObsIntegration, BogusShareFloodMovesOnlyEarlyStash) {
  auto opts = obs_options(Protocol::kCp0);
  Cluster cluster(opts);

  // Bind and exercise every instrument with one honest request, then let
  // the cluster quiesce so in-flight reveals do not blur the snapshot.
  ASSERT_TRUE(cluster.run_one(0, apps::KvStore::put("a", to_bytes("1")),
                              60 * kSecond));
  cluster.sim().run_until(cluster.sim().now() + 100 * kMillisecond);

  const auto before = cluster.replica_metrics(1).counter_values();

  // Replica 3 floods shares for requests that were never delivered.
  const sim::NodeId attacker = 3;
  for (int i = 0; i < 50; ++i) {
    Writer w;
    causal::RequestId{Cluster::client_id(9), static_cast<uint64_t>(100 + i)}
        .write(w);
    w.bytes(to_bytes("bogus-share-" + std::to_string(i)));
    const Bytes body = std::move(w).take();
    cluster.host().send(attacker, 1,
                        bft::seal_envelope(cluster.keys(), bft::Channel::kCausal,
                                           attacker, 1, body));
  }
  cluster.sim().run_until(cluster.sim().now() + 50 * kMillisecond);

  // The flood touched exactly one counter on the victim: the early-share
  // stash.  No verifications, no rejections, no BFT activity.
  const auto changed =
      obs::changed_counters(before, cluster.replica_metrics(1).counter_values());
  ASSERT_EQ(changed.size(), 1u)
      << "unexpected counter movement: " << [&] {
           std::string s;
           for (const auto& [k, v] : changed) s += k + " ";
           return s;
         }();
  EXPECT_EQ(changed.begin()->first, "cp0.early_stashed");
  EXPECT_EQ(changed.begin()->second, 50u);
}

}  // namespace
}  // namespace scab
