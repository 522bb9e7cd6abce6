// Failure drill: a guided tour of the fault-tolerance machinery — primary
// crash and view change, a client that crashes mid-protocol and has its
// tentative request cleaned, and a seeded chaos run driven through the
// runtime-agnostic host::FaultPlan.
//
//   failure_drill                             # sim chaos run, default seed
//   failure_drill --chaos-seed=9              # pick a different schedule
//   failure_drill --runtime=threads --chaos-seed=9   # real threads + sockets
//
// The chaos schedule for a given seed is identical on both runtimes; under
// --runtime=sim the whole run is bit-reproducible.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bft/client.h"
#include "bft/replica.h"
#include "causal/cp0.h"
#include "causal/cp1.h"
#include "causal/harness.h"
#include "chaos/chaos.h"

namespace {

// Classic drills: deterministic sim walkthrough of a primary crash and a
// crashed CP1 client, driving the cuts through host::FaultPlan (the same
// plan the threaded runtime applies).
int classic_drills() {
  using namespace scab;
  using host::kMillisecond;
  using host::kSecond;

  causal::ClusterOptions opts;
  opts.protocol = causal::Protocol::kCp1;
  opts.bft = bft::BftConfig::for_f(1);
  opts.bft.request_timeout = 1 * kSecond;
  opts.bft.watchdog_period = 200 * kMillisecond;
  opts.profile = sim::NetworkProfile::lan();
  opts.num_clients = 2;
  opts.cp1.cleanup_cycle = 25;
  causal::Cluster cluster(opts);

  std::printf("--- drill 1: primary crash ---\n");
  host::FaultPlan& faults = cluster.faults();
  faults.crash(0);
  auto r = cluster.run_one(0, to_bytes("survives the primary"), 60 * kSecond);
  std::printf("request completed after view change: %s (view is now %lu)\n",
              r ? "yes" : "NO",
              static_cast<unsigned long>(cluster.replica(1).view()));
  faults.restart(0);

  std::printf("\n--- drill 2: crashed client leaves a tentative request ---\n");
  auto& crasher =
      dynamic_cast<causal::Cp1ClientProtocol&>(cluster.client_protocol(0));
  crasher.set_crash_before_reveal(true);
  cluster.client(0).submit(to_bytes("i will never be revealed"));
  // Background traffic ages the tentative request past the cleanup cycle.
  cluster.client(1).run_closed_loop([](uint64_t) { return Bytes(64, 7); }, 60);
  cluster.sim().run_while([&] {
    auto& app = dynamic_cast<causal::Cp1ReplicaApp&>(cluster.replica_app(1));
    return app.cleaned_count() >= 1 || cluster.sim().now() > 120 * kSecond;
  });
  cluster.sim().run_until(cluster.sim().now() + 100 * kMillisecond);
  auto& app = dynamic_cast<causal::Cp1ReplicaApp&>(cluster.replica_app(1));
  std::printf("tentative requests cleaned by the primary's CLEANUP op: %lu\n",
              static_cast<unsigned long>(app.cleaned_count()));
  std::printf("tentative requests still pending: %lu\n",
              static_cast<unsigned long>(app.tentative_count()));
  std::printf("view changes so far: %lu (cleanup respected the cycle rule)\n",
              static_cast<unsigned long>(
                  cluster.replica(1).view_changes_completed()));

  std::printf("\n--- drill 3: service keeps running ---\n");
  auto final = cluster.run_one(1, to_bytes("business as usual"));
  std::printf("post-drill request: %s\n", final ? "completed" : "FAILED");

  std::printf("\n--- what the observability layer saw ---\n");
  std::printf("crash-attributed drops: %llu   (drill 1's dead primary)\n",
              static_cast<unsigned long long>(
                  cluster.net_metrics().counter_value("net.drops.crash")));
  std::printf("view changes started on replica 1: %llu\n",
              static_cast<unsigned long long>(
                  cluster.replica_metrics(1).counter_value(
                      "bft.view_changes_started")));
  std::printf("cp1 requests cleaned (cluster-wide): %llu\n",
              static_cast<unsigned long long>(
                  cluster.merged_metrics().counter_value("cp1.cleaned")));
  const auto breakdown = cluster.tracer().breakdown();
  std::printf("traced requests: %llu completed, %.3f ms mean end-to-end\n",
              static_cast<unsigned long long>(breakdown.completed),
              breakdown.end_to_end_ms);
  for (const auto& ph : breakdown.phases) {
    if (ph.mean_ms > 0) {
      std::printf("  %-8s %.3f ms\n", ph.name, ph.mean_ms);
    }
  }
  return final ? 0 : 1;
}

// Chaos drill: one seeded schedule of crash/restart/cut/heal/delay/tamper
// against CP2, on the runtime picked by --runtime.
int chaos_drill(scab::causal::RuntimeKind runtime, uint64_t seed) {
  using namespace scab;

  chaos::ChaosOptions opt;
  opt.protocol = causal::Protocol::kCp2;
  opt.runtime = runtime;
  if (runtime == causal::RuntimeKind::kThreads) {
    // Wall-clock run: keep the fault window short.
    opt.horizon = 500 * host::kMillisecond;
    opt.deadline = 30 * host::kSecond;
    opt.ops_per_client = 4;
  }

  const bool threads = runtime == causal::RuntimeKind::kThreads;
  std::printf("\n--- drill 4: seeded chaos (%s runtime, seed %llu) ---\n",
              threads ? "threaded" : "sim",
              static_cast<unsigned long long>(seed));
  const auto schedule = chaos::generate_schedule(seed, opt);
  std::printf("%s", chaos::format_schedule(schedule).c_str());

  const chaos::ChaosReport report = chaos::run_chaos(seed, opt);
  std::printf("faults injected: %llu\n",
              static_cast<unsigned long long>(report.faults_injected));
  std::printf("operations completed: %llu / %llu\n",
              static_cast<unsigned long long>(report.completed_ops),
              static_cast<unsigned long long>(report.expected_ops));
  if (report.first_delivery_after_heal > 0) {
    std::printf("first delivery after terminal heal: %.3f ms\n",
                static_cast<double>(report.first_delivery_after_heal) / 1e6);
  }
  std::printf("safety:   %s\n", report.safety_ok ? "ok" : "VIOLATED");
  std::printf("secrecy:  %s\n", report.secrecy_ok ? "ok" : "VIOLATED");
  std::printf("liveness: %s\n", report.liveness_ok ? "ok" : "VIOLATED");
  if (!report.ok()) {
    std::printf("violation: %s\n", report.violation.c_str());
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace scab;

  causal::RuntimeKind runtime = causal::RuntimeKind::kSim;
  uint64_t seed = 7;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--runtime=threads") == 0) {
      runtime = causal::RuntimeKind::kThreads;
    } else if (std::strcmp(arg, "--runtime=sim") == 0) {
      runtime = causal::RuntimeKind::kSim;
    } else if (std::strncmp(arg, "--chaos-seed=", 13) == 0) {
      seed = std::strtoull(arg + 13, nullptr, 10);
    } else {
      std::fprintf(stderr,
                   "usage: %s [--runtime=sim|threads] [--chaos-seed=N]\n",
                   argv[0]);
      return 2;
    }
  }

  // The guided walkthrough is a deterministic sim story; the chaos drill
  // honors --runtime and exercises the same injector on real threads.
  int rc = classic_drills();
  rc |= chaos_drill(runtime, seed);
  return rc;
}
