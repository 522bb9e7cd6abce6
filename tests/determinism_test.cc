// Reproducibility guarantees: the whole point of the simulator substrate is
// that every run is bit-deterministic given the seed (DESIGN.md §4,
// "Determinism first").  These tests pin that property for full protocol
// stacks — if an unordered container or a wall-clock sneaks into a code
// path, these are the tests that catch it.
#include <gtest/gtest.h>

#include "apps/kvstore.h"
#include "bft/client.h"
#include "bft/replica.h"
#include "causal/harness.h"

namespace scab::causal {
namespace {

struct RunSignature {
  uint64_t completed = 0;
  sim::SimTime finished_at = 0;
  sim::SimTime total_latency = 0;
  uint64_t events = 0;
  uint64_t messages = 0;
  Bytes last_result;

  bool operator==(const RunSignature&) const = default;
};

RunSignature run_stack(Protocol protocol, Engine engine, uint64_t seed,
                       uint32_t worker_threads = 0) {
  ClusterOptions opts;
  opts.protocol = protocol;
  opts.engine = engine;
  opts.bft = bft::BftConfig::for_f(1);
  opts.profile = sim::NetworkProfile::lan();
  opts.costs = host::CostModel::default_symmetric_era();
  opts.num_clients = 2;
  opts.seed = seed;
  opts.worker_threads = worker_threads;
  opts.service_factory = [] { return std::make_unique<apps::KvStore>(); };
  Cluster cluster(opts);

  for (uint32_t c = 0; c < 2; ++c) {
    cluster.client(c).run_closed_loop(
        [c](uint64_t i) {
          return apps::KvStore::put(std::to_string(c) + "/" + std::to_string(i),
                                    to_bytes("v" + std::to_string(i)));
        },
        6);
  }
  cluster.sim().run_while([&] {
    return (cluster.client(0).completed_ops() >= 6 &&
            cluster.client(1).completed_ops() >= 6) ||
           cluster.sim().now() > 600 * sim::kSecond;
  });

  RunSignature sig;
  sig.completed =
      cluster.client(0).completed_ops() + cluster.client(1).completed_ops();
  sig.finished_at = cluster.sim().now();
  sig.total_latency =
      cluster.client(0).total_latency() + cluster.client(1).total_latency();
  sig.events = cluster.sim().events_processed();
  sig.messages = cluster.net().messages_sent();
  sig.last_result = cluster.client(0).last_result();
  return sig;
}

class DeterminismTest : public ::testing::TestWithParam<Protocol> {};

TEST_P(DeterminismTest, SameSeedSameExecutionToTheNanosecond) {
  const RunSignature a = run_stack(GetParam(), Engine::kPbftEngine, 77);
  const RunSignature b = run_stack(GetParam(), Engine::kPbftEngine, 77);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.completed, 12u);
}

TEST_P(DeterminismTest, WorkerThreadKnobDoesNotPerturbSimRuns) {
  // The crypto worker-pool knob (ClusterOptions::worker_threads, DESIGN.md
  // §12) is a no-op under the simulator: SimHost keeps the WorkerPool
  // default, which runs offloaded jobs and their continuations inline on
  // the owner's executor.  A sim run with threads=8 must therefore replay
  // BIT-IDENTICALLY against threads=0 — the property that lets the same
  // protocol sources run deterministic repro and multicore deployment.
  const RunSignature a = run_stack(GetParam(), Engine::kPbftEngine, 77,
                                   /*worker_threads=*/0);
  const RunSignature b = run_stack(GetParam(), Engine::kPbftEngine, 77,
                                   /*worker_threads=*/8);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.completed, 12u);
}

TEST_P(DeterminismTest, DifferentSeedsDifferentTimings) {
  const RunSignature a = run_stack(GetParam(), Engine::kPbftEngine, 77);
  const RunSignature b = run_stack(GetParam(), Engine::kPbftEngine, 78);
  // Both complete the workload, but jitter/coins land differently.
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_NE(a.finished_at, b.finished_at);
}

INSTANTIATE_TEST_SUITE_P(Protocols, DeterminismTest,
                         ::testing::Values(Protocol::kPbft, Protocol::kCp0,
                                           Protocol::kCp1, Protocol::kCp2,
                                           Protocol::kCp3),
                         [](const auto& info) {
                           return std::string(protocol_name(info.param));
                         });

TEST(Determinism, AsyncEngineIsDeterministicToo) {
  // The async engine adds coin flips and epoch races — all seeded.
  const RunSignature a = run_stack(Protocol::kCp2, Engine::kAsyncEngine, 5);
  const RunSignature b = run_stack(Protocol::kCp2, Engine::kAsyncEngine, 5);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.completed, 12u);
}

}  // namespace
}  // namespace scab::causal
