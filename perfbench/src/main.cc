// scab-perfbench — the scabd cluster benchmark driver.
//
//   scab-perfbench --workload <cp0-batched|cp2-closed|cp3-durable-open>
//                  --seed <n> --seconds <s> --trace <0|1>
//                  --schema <metrics_schema.json> --work-dir <dir>
//
// One process: brings up a fresh 4-replica scabd cluster on loopback TCP
// (set up several times; setup_s is the median), hosts the workload's
// bft::Client endpoints on one ThreadHost + SocketTransport, drives the
// closed or open loop for a warm-up and a measured window, drains, and
// gates on exact per-replica execution counts and schema-valid dumps.
// --trace 0 reports the end-to-end metrics; --trace 1 reruns the same
// shape with per-op spans and adds the layer ladder, the /proc and dump
// counters, the attribution row and the simulator check.  The last stdout
// line is one JSON object; the exit code is non-zero if any check failed.
#include <sys/statfs.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "cluster.h"
#include "crypto/modgroup.h"
#include "load.h"
#include "proc.h"
#include "rungs.h"
#include "sim/network.h"
#include "spans.h"
#include "stats.h"
#include "workload.h"

namespace {

using namespace perfbench;
using scab::obs::json::Value;

constexpr int kSetups = 11;         // cluster bring-ups per run
constexpr double kWarmupS = 1.5;    // load before the measured window
constexpr double kDrainS = 20.0;    // replies due after the window
constexpr double kConvergeS = 3.0;   // per round: replicas reach the count
constexpr int kSettleRounds = 3;     // post-window rounds for a lagging replica
constexpr int64_t kTraceSliceNs = 100'000'000;  // traced/untraced slices
// Window granularity: short enough that a tick with no steal in it is
// common even while another tenant is busy, long enough for /proc's 10 ms
// accounting.
constexpr int64_t kTickNs = 100'000'000;
// A tick is quiet when the hypervisor stole at most this share of the
// machine's CPU time in it and in the kQuietLookback ticks before it: the
// backlog a stolen stretch leaves behind takes a moment to clear (see the
// measured window in main).
constexpr double kQuietSteal = 0.05;
constexpr std::size_t kQuietLookback = 2;
constexpr int kMaxWindowFactor = 3;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string schema;
  std::string work_dir;
};

std::optional<Args> parse_args(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  bool have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v, &end, 10);
      have_seed = end != v && *end == '\0';
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v, &end);
    } else if (k == "--trace") {
      a.trace = std::strcmp(v, "1") == 0;
      have_trace = a.trace || std::strcmp(v, "0") == 0;
    } else if (k == "--schema") {
      a.schema = v;
    } else if (k == "--work-dir") {
      a.work_dir = v;
    } else {
      return std::nullopt;
    }
  }
  if (argc % 2 != 1 || a.workload.empty() || !have_seed || !have_trace ||
      !(a.seconds > 0) || a.schema.empty() || a.work_dir.empty()) {
    return std::nullopt;
  }
  return a;
}

std::string fs_type_name(const std::string& path) {
  struct statfs s{};
  if (statfs(path.c_str(), &s) != 0) return "unknown";
  switch (static_cast<unsigned long>(s.f_type)) {
    case 0xEF53: return "ext4";
    case 0x01021994: return "tmpfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x794C7630: return "overlayfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%lx",
                    static_cast<unsigned long>(s.f_type));
      return buf;
    }
  }
}

void on_signal(int sig) {
  kill_all_children();
  std::signal(sig, SIG_DFL);
  std::raise(sig);
}

/// An ordered metric table: name -> (value, unit); each name set once.
class Table {
 public:
  void set(const std::string& name, double value, const std::string& unit) {
    rows_.push_back({name, value, unit});
  }
  std::string json() const {
    std::string out = "{";
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      char buf[256];
      std::snprintf(buf, sizeof(buf), "%s\"%s\":{\"value\":%.10g,\"unit\":\"%s\"}",
                    i == 0 ? "" : ",", rows_[i].name.c_str(), rows_[i].value,
                    rows_[i].unit.c_str());
      out += buf;
    }
    return out + "}";
  }
  void print(const char* title) const {
    std::printf("-- %s\n", title);
    for (const auto& r : rows_) {
      std::printf("  %-40s %14.6g %s\n", r.name.c_str(), r.value,
                  r.unit.c_str());
    }
  }

 private:
  struct Row {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Row> rows_;
};

/// Everything one bring-up leaves running.
struct Live {
  std::unique_ptr<Cluster> cluster;
  std::unique_ptr<Driver> driver;

  void reset() {
    // Endpoints first: their threads talk to the replicas.
    driver.reset();
    cluster.reset();
  }
};

/// Brings up a fresh cluster and commits one probe op; returns the set-up
/// time in seconds, or nullopt on failure.
std::optional<double> bring_up(Live& live, const Workload& w, const Args& a,
                               const std::string& dir, SpanLog& spans,
                               int32_t phase) {
  auto transport = std::make_unique<scab::rt::SocketTransport>(
      0, std::map<scab::host::NodeId, scab::rt::SocketTransport::Peer>{},
      a.seed, "127.0.0.1", 1);
  if (!transport->ok()) {
    std::fprintf(stderr, "perfbench: cannot bind the driver's port\n");
    return std::nullopt;
  }
  char exe[4096] = {0};
  const ssize_t n = readlink("/proc/self/exe", exe, sizeof(exe) - 1);
  const std::string bin_dir =
      std::filesystem::path(std::string(exe, n > 0 ? n : 0)).parent_path() /
      "scab" / "daemon";
  uint64_t dealer = a.seed ^ 0x6465616c6572ull;
  live.cluster = std::make_unique<Cluster>(w, splitmix64(dealer), dir, bin_dir,
                                           transport->port());
  const int64_t t0 = mono_ns();
  if (!live.cluster->start()) return std::nullopt;
  live.driver = std::make_unique<Driver>(live.cluster->config(), w, a.seed,
                                         spans, std::move(transport));
  if (!live.cluster->wait_ready(30.0) || !live.driver->probe(30.0)) {
    std::fprintf(stderr, "perfbench: cluster set-up failed\n");
    return std::nullopt;
  }
  const int64_t t1 = mono_ns();
  spans.add("setup", t0, t1, phase);
  return static_cast<double>(t1 - t0) / 1e9;
}

/// Sleeps until the driver's host clock reads `at_ns`.
void sleep_until(const Driver& d, int64_t at_ns) {
  for (int64_t now = d.now_ns(); now < at_ns; now = d.now_ns()) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(
        std::min<int64_t>(at_ns - now, 50'000'000)));
  }
}

/// Median logical-op latency predicted by the simulator for the workload's
/// shape (calibrated costs, ideal network: loopback has ~no wire delay).
double simulated_p50_ms(const Workload& w, uint64_t seed) {
  namespace causal = scab::causal;
  const auto costs =
      scab::bench::calibrate_costs(scab::crypto::ModGroup::modp_1024(), 1);
  causal::ClusterOptions o;
  o.protocol = w.protocol;
  o.bft = scab::bft::BftConfig::for_f(1);
  o.bft.checkpoint_interval = 64;
  o.profile = scab::sim::NetworkProfile::ideal();
  o.costs = costs;
  o.seed = seed;
  if (w.protocol == causal::Protocol::kCp0) {
    o.group = scab::crypto::ModGroup::modp_1024();
    o.cp0_modeled = true;
    o.client_inflight = w.client_inflight;
    o.client_batch = w.client_batch;
  }
  const uint64_t window = uint64_t{w.endpoints} * w.client_inflight *
                          w.client_batch;
  const auto r = scab::bench::run_throughput(
      o, w.endpoints, w.op_bytes, 4 * window + 64,
      std::max<uint64_t>(16 * window, 600));
  return r.median_latency_ms;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = parse_args(argc, argv);
  if (!args) {
    std::fprintf(stderr,
                 "usage: %s --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> --schema <metrics_schema.json> "
                 "--work-dir <dir>\n",
                 argv[0]);
    return 2;
  }
  const Args& a = *args;
  const Workload* wp = find_workload(a.workload);
  if (wp == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 a.workload.c_str());
    return 2;
  }
  const Workload& w = *wp;
  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);
  std::signal(SIGPIPE, SIG_IGN);

  const std::string run_dir =
      a.work_dir + "/run-" + a.workload + "-" + std::to_string(getpid());
  std::error_code ec;
  std::filesystem::create_directories(run_dir, ec);
  struct RunDirGuard {
    std::string dir;
    ~RunDirGuard() {
      std::error_code e;
      std::filesystem::remove_all(dir, e);
    }
  } guard{run_dir};

  // Machine context: keeps a tmpfs or small-machine run from being
  // compared with a run on disk.
  utsname uts{};
  uname(&uts);
  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  const std::string fs_type = fs_type_name(run_dir);
  std::printf("perfbench: workload %s seed %llu window %.1fs trace %d\n",
              w.name.c_str(), static_cast<unsigned long long>(a.seed),
              a.seconds, a.trace ? 1 : 0);
  std::printf("machine: nproc %ld kernel %s %s data-dir fs %s\n", nproc,
              uts.sysname, uts.release, fs_type.c_str());

  SpanLog spans(a.trace);
  const int32_t run_span = spans.open("run", mono_ns());
  std::vector<std::string> problems;
  Live live;

  // --- set-up, repeated; the last cluster carries the measured run -------
  std::vector<double> setups;
  const int32_t setup_phase = spans.open("setup", mono_ns(), run_span);
  for (int k = 0; k < kSetups; ++k) {
    live.reset();
    const auto s = bring_up(live, w, a, run_dir + "/cluster-" +
                                            std::to_string(k),
                            spans, setup_phase);
    if (!s) {
      live.reset();
      return 1;
    }
    setups.push_back(*s);
  }
  spans.close(setup_phase, mono_ns());
  Cluster& cluster = *live.cluster;
  Driver& driver = *live.driver;

  // --- warm-up + measured window ------------------------------------------
  // The window is counted in 100 ms ticks.  On a shared VM another
  // tenant can take a quarter of the CPU for minutes at a time (steal),
  // which cuts throughput by more than half.  The window runs until it
  // holds `seconds` of quiet ticks or reaches kMaxWindowFactor times that,
  // and the quietest ticks adding up to `seconds` are the ones measured.
  const int64_t t_load = driver.now_ns();
  const int64_t t_begin = t_load + static_cast<int64_t>(kWarmupS * 1e9);
  const int needed_ticks = std::max(
      1, static_cast<int>(std::ceil(a.seconds * 1e9 / kTickNs - 1e-9)));
  const int max_ticks = kMaxWindowFactor * needed_ticks;
  const int64_t t_kill = t_begin + static_cast<int64_t>(a.seconds * 1e9 / 2);
  const int32_t warm_span = spans.open("warmup", mono_ns(), run_span);
  int32_t measure_span = -1;

  struct Tick {
    Interval span;
    double steal = 0;
    double recent_steal = 0;  // largest steal of this and the lookback ticks
    ProcSample replicas;  // deltas summed over the replicas
    ProcSample self;
    double primary_cpu_ms = 0;
    uint64_t hwm_kb = 0;  // largest replica VmHWM at the tick's end
  };
  std::vector<Tick> ticks;
  std::vector<ProcSample> last(Cluster::kReplicas);
  std::vector<ProcSample> carry(Cluster::kReplicas);  // killed process share
  ProcSample self_last;
  CpuTimes cpu_last;
  double catchup_started_ns = 0;
  bool control_ok = true;

  auto kill_and_restart = [&] {
    const uint32_t victim = Cluster::kReplicas - 1;
    carry[victim] +=
        sample_proc(cluster.pid(victim)).value_or(last[victim]) - last[victim];
    last[victim] = ProcSample{};  // the restarted process starts at zero
    const int64_t k0 = mono_ns();
    cluster.kill9(victim);
    spans.add("kill", k0, mono_ns(), measure_span);
    const int64_t r0 = mono_ns();
    if (!cluster.restart(victim)) {
      control_ok = false;
      std::fprintf(stderr, "perfbench: replica %u did not restart\n", victim);
    }
    spans.add("restart", r0, mono_ns(), measure_span);
    catchup_started_ns = static_cast<double>(mono_ns());
  };

  // Runs on the main thread: a replica it restarts is tied to the forking
  // thread's lifetime (PR_SET_PDEATHSIG).
  auto control = [&] {
    sleep_until(driver, t_begin);
    spans.close(warm_span, mono_ns());
    measure_span = spans.open("measure", mono_ns(), run_span);
    if (a.trace) driver.trace_ops(measure_span, t_begin, kTraceSliceNs);
    for (uint32_t i = 0; i < Cluster::kReplicas; ++i) {
      last[i] = sample_proc(cluster.pid(i)).value_or(ProcSample{});
    }
    self_last = sample_proc(getpid()).value_or(ProcSample{});
    cpu_last = read_cpu_times().value_or(CpuTimes{});
    bool killed = !w.kill_backup;
    int quiet = 0;
    for (int64_t begin = t_begin;
         quiet < needed_ticks && static_cast<int>(ticks.size()) < max_ticks;
         begin += kTickNs) {
      Tick t;
      t.span = {begin, begin + kTickNs};
      if (!killed && t_kill < t.span.end_ns) {
        sleep_until(driver, t_kill);
        kill_and_restart();
        killed = true;
      }
      sleep_until(driver, t.span.end_ns);
      for (uint32_t i = 0; i < Cluster::kReplicas; ++i) {
        const ProcSample now =
            sample_proc(cluster.pid(i)).value_or(last[i]);
        ProcSample d = now - last[i];
        d += carry[i];
        t.replicas += d;
        if (i == 0) t.primary_cpu_ms = d.cpu_ms;
        t.hwm_kb = std::max(t.hwm_kb, now.vm_hwm_kb);
        last[i] = now;
        carry[i] = ProcSample{};
      }
      const ProcSample self_now = sample_proc(getpid()).value_or(self_last);
      t.self = self_now - self_last;
      self_last = self_now;
      const CpuTimes cpu_now = read_cpu_times().value_or(cpu_last);
      const uint64_t total = cpu_now.total - cpu_last.total;
      t.steal = total > 0 ? static_cast<double>(cpu_now.steal - cpu_last.steal) /
                                static_cast<double>(total)
                          : 0;
      cpu_last = cpu_now;
      t.recent_steal = t.steal;
      for (std::size_t back = 1;
           back <= kQuietLookback && back <= ticks.size(); ++back) {
        t.recent_steal =
            std::max(t.recent_steal, ticks[ticks.size() - back].steal);
      }
      if (t.recent_steal <= kQuietSteal) ++quiet;
      ticks.push_back(t);
    }
    spans.close(measure_span, mono_ns());
  };

  std::thread open_loop;
  if (w.open_rate > 0) {
    open_loop = std::thread([&] {
      driver.run_open_loop(t_load, t_begin + max_ticks * kTickNs);
    });
  } else {
    driver.start_closed_loop();
  }
  control();
  driver.stop_issuing();
  if (open_loop.joinable()) open_loop.join();
  if (!control_ok) problems.push_back("backup restart failed");

  // The window: the `needed_ticks` quietest ticks, in time order.
  std::vector<const Tick*> kept;
  for (const Tick& t : ticks) kept.push_back(&t);
  std::stable_sort(kept.begin(), kept.end(), [](const Tick* x, const Tick* y) {
    return x->recent_steal < y->recent_steal;
  });
  kept.resize(std::min<std::size_t>(kept.size(), needed_ticks));
  std::sort(kept.begin(), kept.end(), [](const Tick* x, const Tick* y) {
    return x->span.begin_ns < y->span.begin_ns;
  });
  std::vector<Interval> window;
  ProcSample replicas_win;
  ProcSample driver_win;
  double primary_cpu_ms = 0;
  double kept_steal = 0;
  for (const Tick* t : kept) {
    window.push_back(t->span);
    replicas_win += t->replicas;
    driver_win += t->self;
    primary_cpu_ms += t->primary_cpu_ms;
    kept_steal += t->steal;
  }
  double all_steal = 0;
  for (const Tick& t : ticks) all_steal += t.steal;
  const double mean_steal = kept.empty() ? 0 : kept_steal / kept.size();
  std::printf("window: %zu of %zu %.1f s ticks, quietest first; "
              "mean steal %.3f kept, %.3f all\n",
              kept.size(), ticks.size(), kTickNs / 1e9, mean_steal,
              ticks.empty() ? 0 : all_steal / ticks.size());

  // --- drain + correctness gate -------------------------------------------
  const int32_t drain_span = spans.open("drain", mono_ns(), run_span);
  if (!driver.drain(kDrainS)) problems.push_back("ops without a reply");
  spans.close(drain_span, mono_ns());
  const int32_t gate_span = spans.open("gate", mono_ns(), run_span);
  std::vector<Value> dumps(Cluster::kReplicas);
  // Every replica must reach exactly the issued request count.  A lagging
  // replica (the restarted backup) is carried to the next stable
  // checkpoint by a few settle rounds of one checkpoint interval each.
  uint64_t requests = 0;
  for (int round = 0;; ++round) {
    requests = driver.requests_issued();
    bool all = false;
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::duration<double>(kConvergeS);
    while (!all && std::chrono::steady_clock::now() < deadline) {
      all = true;
      for (uint32_t i = 0; i < Cluster::kReplicas; ++i) {
        auto d = cluster.dump(i);
        dumps[i] = d ? std::move(*d) : Value();
        all = all && dump_num(dumps[i],
                              "metrics/counters/bft.requests_executed") ==
                         static_cast<double>(requests);
      }
      if (!all) std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    if (all || round == kSettleRounds || !w.kill_backup) break;
    const int64_t s0 = mono_ns();
    if (!driver.settle(cluster.config().bft.checkpoint_interval, kDrainS)) {
      problems.push_back("settle ops without a reply");
      break;
    }
    spans.add("settle", s0, mono_ns(), gate_span);
  }
  const uint64_t retries = driver.client_retries();
  std::vector<std::string> sections = {"required_daemon"};
  if (w.durability != "off") sections.push_back("required_durability");
  for (uint32_t i = 0; i < Cluster::kReplicas; ++i) {
    if (!cluster.check_dump(i, a.schema, sections, requests)) {
      problems.push_back(
          "replica " + std::to_string(i) + " dump check failed (executed " +
          std::to_string(static_cast<uint64_t>(dump_num(
              dumps[i], "metrics/counters/bft.requests_executed"))) +
          " of " + std::to_string(requests) + ", or schema)");
    }
  }
  double view_changes = 0;
  for (const auto& d : dumps) {
    view_changes += dump_num(d, "metrics/counters/bft.view_changes_started");
  }
  if (view_changes != 0) problems.push_back("view change during the run");
  spans.close(gate_span, mono_ns());

  // --- end-to-end metrics --------------------------------------------------
  const auto records = driver.records();
  const WindowStats ws = summarize(records, window);
  const double window_s =
      static_cast<double>(window.size()) * kTickNs / 1e9;
  const double committed = static_cast<double>(ws.committed);
  const double kops = committed / 1000.0;
  const uint64_t failed = ws.failed;
  // Memory grows with the ops executed, so it is read at the tick by which
  // the cluster had committed as many ops as the window holds: stolen
  // ticks, with fewer ops per second, do not shrink it.
  std::vector<int64_t> replies;
  for (const OpRecord& r : records) {
    if (r.reply_ns >= t_begin) replies.push_back(r.reply_ns);
  }
  std::sort(replies.begin(), replies.end());
  uint64_t hwm_kb = ticks.empty() ? 0 : ticks.back().hwm_kb;
  if (ws.committed > 0 && ws.committed <= replies.size()) {
    const int64_t by = replies[ws.committed - 1];
    for (const Tick& t : ticks) {
      if (t.span.end_ns >= by) {
        hwm_kb = t.hwm_kb;
        break;
      }
    }
  }
  if (failed != 0) problems.push_back(std::to_string(failed) + " failed ops");
  if (ws.committed == 0) problems.push_back("no op committed in the window");

  Table e2e;
  e2e.set("setup_s", median(setups), "s");
  e2e.set("throughput_ops_s", committed / window_s, "ops/s");
  e2e.set("latency_p50_ms", percentile(ws.latency_ms, 0.50), "ms");
  e2e.set("cpu_ms_per_kop",
          kops > 0 ? (replicas_win.cpu_ms + driver_win.cpu_ms) / kops : 0,
          "ms");
  e2e.set("replica_rss_mb", static_cast<double>(hwm_kb) / 1024.0, "MB");

  // --- traced run: ladder, counters, attribution, simulator check --------
  Table layers;
  const double lat_p50 = percentile(ws.latency_ms, 0.50);
  // p99 is reported with the layers: on a shared VM its run-to-run spread
  // is wider than any regression bound the benchmark could hold it to.
  const double lat_p99 = percentile(ws.latency_ms, 0.99);
  if (a.trace) {
    layers.set("latency_p99_ms", lat_p99, "ms");
    // Tracing overhead: p50 of the traced slices minus the untraced.
    std::vector<double> on;
    std::vector<double> off;
    for (const OpRecord& r : records) {
      const int64_t s = start_ns(r);
      if (r.reply_ns < 0 || !in_window(s, window)) continue;
      (in_traced_slice(s, t_begin, kTraceSliceNs) ? on : off)
          .push_back(static_cast<double>(r.reply_ns - s) / 1e6);
    }
    const double off_p50 = median(off);
    layers.set("tracing.overhead_p50_ms", median(on) - off_p50, "ms");
    layers.set("tracing.overhead_frac",
               off_p50 > 0 ? (median(on) - off_p50) / off_p50 : 0, "ratio");

    // Dump counters: lifetime totals.  Per-op sums are taken over the
    // replicas that ran the whole time and scaled to all n.
    const uint32_t n = Cluster::kReplicas;
    const uint32_t full = w.kill_backup ? n - 1 : n;
    const double scale = static_cast<double>(n) / full;
    auto sum_full = [&](const std::string& path) {
      double s = 0;
      for (uint32_t i = 0; i < full; ++i) s += dump_num(dumps[i], path);
      return s * scale;
    };
    const std::string cp = scab::causal::protocol_name(w.protocol);
    std::string pfx;  // "cp0" / "cp2" / "cp3"
    for (char c : cp) pfx += static_cast<char>(std::tolower(c));
    const double batch = std::max<uint32_t>(1, w.client_batch);
    // Logical ops the cluster executed: every request but the probes
    // carries client_batch payloads.
    const double logical_ops = (static_cast<double>(requests) - 1) * batch + 1;
    const double per_op = logical_ops > 0 ? 1.0 / logical_ops : 0;

    const Value& primary = dumps[0];
    layers.set("bft.batch_size_mean",
               dump_num(primary, "metrics/histograms/bft.batch_size/mean"),
               "requests");
    double pending_max = 0;
    for (const auto& d : dumps) {
      pending_max = std::max(
          pending_max, dump_num(d, "metrics/gauges/bft.pending_requests/max"));
    }
    layers.set("bft.pending_requests_max", pending_max, "requests");
    layers.set("bft.recovery.catchup_ms",
               w.kill_backup
                   ? dump_num(dumps[n - 1],
                              "metrics/histograms/bft.recovery.catchup_ms/mean")
                   : 0,
               "ms");
    layers.set("bft.view_changes", view_changes, "count");
    if (w.kill_backup) {
      const double ms = dump_num(
          dumps[n - 1], "metrics/histograms/bft.recovery.catchup_ms/max");
      spans.add("catch-up", static_cast<int64_t>(catchup_started_ns),
                static_cast<int64_t>(catchup_started_ns + ms * 1e6),
                measure_span);
    }

    const bool cp0 = w.protocol == scab::causal::Protocol::kCp0;
    layers.set("cp0.batch_size_mean",
               cp0 ? dump_num(primary, "metrics/histograms/cp0.batch_size/mean")
                   : 0,
               "ciphertexts");
    const double verify_batch_mean =
        cp0 ? dump_num(primary, "metrics/histograms/cp0.verify_batch_size/mean")
            : 0;
    layers.set("cp0.verify_batch_size_mean", verify_batch_mean, "shares");
    const double combines = sum_full("metrics/counters/cp0.combines");
    layers.set("cp0.batch_fallback_frac",
               combines > 0
                   ? sum_full("metrics/counters/cp0.batch_fallbacks") / combines
                   : 0,
               "ratio");
    layers.set("causal.reveal_retries_per_kop",
               sum_full("metrics/counters/" + pfx + ".reveal_retries") *
                   per_op * 1000,
               "count");
    // Each replica receives n-1 peer shares per executed request.
    const double shares_rx =
        sum_full("metrics/counters/bft.requests_executed") * (n - 1);
    layers.set("causal.early_stash_frac",
               shares_rx > 0
                   ? sum_full("metrics/counters/" + pfx + ".early_stashed") /
                         shares_rx
                   : 0,
               "ratio");

    // /proc, per op committed in the window.
    const double ops_win = std::max(committed, 1.0);
    layers.set("rt.write_syscalls_per_op",
               static_cast<double>(replicas_win.syscw) / ops_win, "count");
    layers.set("rt.read_syscalls_per_op",
               static_cast<double>(replicas_win.syscr) / ops_win, "count");
    layers.set("rt.ctx_switches_per_op",
               static_cast<double>(replicas_win.ctx_switches) / ops_win,
               "count");

    // Storage: zero when durability is off.
    const double fsyncs = sum_full("metrics/histograms/storage.fsync_ms/count");
    layers.set("storage.fsyncs_per_op", fsyncs * per_op, "count");
    layers.set("storage.fsync_ms_mean",
               fsyncs > 0
                   ? sum_full("metrics/histograms/storage.fsync_ms/sum") / fsyncs
                   : 0,
               "ms");
    layers.set("storage.wal_bytes_per_op",
               sum_full("metrics/histograms/storage.wal_append_bytes/sum") *
                   per_op,
               "bytes");
    layers.set("storage.disk_bytes_per_op",
               static_cast<double>(replicas_win.write_bytes) / ops_win,
               "bytes");
    uint64_t snap = 0;
    for (uint32_t i = 0; i < n; ++i) {
      snap = std::max(snap, cluster.snapshot_bytes(i));
    }
    layers.set("storage.snapshot_bytes", static_cast<double>(snap), "bytes");

    layers.set("daemon.primary_cpu_frac",
               replicas_win.cpu_ms > 0 ? primary_cpu_ms / replicas_win.cpu_ms
                                       : 0,
               "ratio");
    layers.set("driver.cpu_ms_per_kop",
               kops > 0 ? driver_win.cpu_ms / kops : 0, "ms");
    layers.set("driver.queue_wait_p99_ms", percentile(ws.queue_wait_ms, 0.99),
               "ms");
    layers.set("driver.issue_late_p99_us",
               percentile(driver.issue_late_us(), 0.99), "us");
    layers.set("latency.drift_ratio",
               ws.first_fifth_p50_ms > 0
                   ? ws.last_fifth_p50_ms / ws.first_fifth_p50_ms
                   : 0,
               "ratio");

    // Keep the request counts for the attribution row before teardown.
    const double batches =
        dump_num(primary, "metrics/counters/bft.batches_proposed");
    const double ct_verified = sum_full("metrics/counters/cp0.ct_verified");
    const double verify_batches =
        sum_full("metrics/histograms/cp0.verify_batch_size/count");
    const double reconstructions =
        sum_full("metrics/counters/" + pfx + ".reconstructions");
    const double wal_appends =
        sum_full("metrics/histograms/storage.wal_append_bytes/count");
    const double reqs = static_cast<double>(requests);

    live.reset();  // quiet machine for the ladder

    // Layer ladder.
    std::map<std::string, double> rung;
    const int32_t rungs_span = spans.open("rungs", mono_ns(), run_span);
    // The share batch a replica verifies: the workload's measured mean
    // (CP0), else one per peer.
    const std::size_t verify_k =
        verify_batch_mean >= 1
            ? static_cast<std::size_t>(verify_batch_mean + 0.5)
            : n - 1;
    RungContext rc{spans, rungs_span, w.op_bytes, verify_k, run_dir, rung};
    run_crypto_rungs(rc);
    run_threshenc_rungs(rc);
    run_secretshare_rungs(rc);
    run_bft_rungs(rc);
    run_rt_rungs(rc);
    if (!run_storage_rungs(rc)) problems.push_back("storage rungs failed");
    spans.close(rungs_span, mono_ns());
    for (const auto& [name, v] : rung) {
      const bool us = name.size() > 3 && name.substr(name.size() - 3) == "_us";
      layers.set(name, v, name == "rt.socket_msgs_s_64b" ? "1/s"
                          : us                           ? "us"
                                                         : "count");
    }

    // Attribution row: sum over layers of (per-op count x rung unit cost)
    // against the replicas' measured CPU per op.  Counts are per logical
    // op, summed over replicas; message counts follow PBFT's structure:
    // 24 replica-to-replica frames per batch (pre-prepare 3, prepares 9,
    // commits 12), n request + n reply frames per request (+ n client
    // share frames for CP2/CP3) and n(n-1) reveal-share frames per request.
    const bool big = w.op_bytes >= 4096;
    const double r2r = (24 * batches + n * (n - 1) * reqs) * per_op;
    const double client_in = (cp0 ? n : 2 * n) * reqs * per_op;
    const double replies = n * reqs * per_op;
    const double seal = rung[big ? "bft.envelope_seal_4k_us"
                                 : "bft.envelope_seal_64b_us"];
    const double open = rung[big ? "bft.envelope_open_4k_us"
                                 : "bft.envelope_open_64b_us"];
    const double msg_us = rung["rt.socket_msgs_s_64b"] > 0
                              ? 1e6 / rung["rt.socket_msgs_s_64b"]
                              : 0;
    const double frames = r2r + client_in + replies;
    struct Part {
      const char* name;
      double count;
      double unit_us;
    };
    const Part parts[] = {
        {"envelope_seal", r2r + replies, seal},
        {"envelope_open", r2r + client_in, open},
        {"socket_msg", frames, msg_us},
        {"tdh2_verify_ct", ct_verified * per_op,
         rung["threshenc.verify_ct_us"]},
        {"tdh2_share_decrypt", cp0 ? ct_verified * per_op : 0,
         rung["threshenc.share_decrypt_us"]},
        {"tdh2_batch_verify", verify_batches * per_op,
         rung["threshenc.batch_verify_shares_us"]},
        {"tdh2_combine", combines * per_op, rung["threshenc.combine_us"]},
        {"arss_recover", reconstructions * per_op,
         rung[w.protocol == scab::causal::Protocol::kCp3
                  ? "secretshare.arss2_recover_4k_us"
                  : "secretshare.arss1_recover_32b_us"]},
        {"commit_open",
         w.protocol == scab::causal::Protocol::kCp2 ? reconstructions * per_op
                                                    : 0,
         rung["crypto.commit_us"]},
        {"wal_append", wal_appends * per_op, rung["rt.storage_append_4k_us"]},
    };
    double explained_us = 0;
    for (const Part& p : parts) {
      layers.set(std::string("attrib.count.") + p.name + "_per_op", p.count,
                 "count");
      explained_us += p.count * p.unit_us;
    }
    const double measured_us =
        ws.committed > 0 ? replicas_win.cpu_ms * 1000.0 / committed : 0;
    layers.set("attrib.replica_cpu_us_per_op", measured_us, "us");
    layers.set("attrib.explained_us_per_op", explained_us, "us");
    layers.set("attrib.explained_frac",
               measured_us > 0 ? explained_us / measured_us : 0, "ratio");

    // Simulator check (cp0-batched and cp2-closed shapes only).
    const bool simulated = !w.kill_backup;
    double pred = 0;
    if (simulated) {
      const int64_t s0 = mono_ns();
      pred = simulated_p50_ms(w, a.seed);
      spans.add("sim", s0, mono_ns(), run_span);
    }
    layers.set("sim.pred_p50_ms", pred, "ms");
    layers.set("sim.pred_over_measured",
               simulated && lat_p50 > 0 ? pred / lat_p50 : 0, "ratio");

    layers.set("machine.nproc", static_cast<double>(nproc), "count");
    layers.set("machine.steal_frac", mean_steal, "ratio");
    layers.set("machine.window_ticks", static_cast<double>(ticks.size()),
               "count");
    layers.set("machine.datadir_tmpfs", fs_type == "tmpfs" ? 1 : 0, "bool");
    layers.set("storage.append_sync_ratio",
               rung["rt.storage_append_4k_us"] > 0
                   ? rung["rt.storage_append_sync_4k_us"] /
                         rung["rt.storage_append_4k_us"]
                   : 0,
               "ratio");
    spans.close(run_span, mono_ns());
    layers.set("trace.spans", static_cast<double>(spans.size()), "count");
    const std::string trace_path = a.work_dir + "/trace-" + w.name + "-" +
                                   std::to_string(a.seed) + ".json";
    if (!spans.write_json(trace_path)) {
      problems.push_back("cannot write " + trace_path);
    }
    std::printf("trace: %zu spans -> %s\n", spans.size(), trace_path.c_str());
  }
  live.reset();

  // --- report ---------------------------------------------------------------
  const double fail_frac =
      ws.attempted > 0 ? static_cast<double>(failed) / ws.attempted : 1.0;
  e2e.print("end-to-end");
  std::printf("  %-40s %14.6g ms (%zu samples, %zu beyond p99)\n",
              "latency_p99_ms", lat_p99, ws.latency_ms.size(),
              samples_beyond(ws.latency_ms.size(), 0.99));
  std::printf("  %-40s %14.6g ratio (%llu of %llu attempted)\n", "fail_frac",
              fail_frac, static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(ws.attempted));
  std::printf("  setup runs %d; requests %llu; client retries %llu\n",
              kSetups, static_cast<unsigned long long>(requests),
              static_cast<unsigned long long>(retries));
  if (samples_beyond(ws.latency_ms.size(), 0.99) < 10) {
    std::printf("  note: fewer than 10 samples beyond p99\n");
  }
  if (a.trace) {
    layers.print("per-layer");
    if (w.kill_backup) {
      std::printf("  sim.*: absent by design (the simulator check replays "
                  "cp0-batched and cp2-closed only)\n");
    }
  }
  for (const auto& p : problems) std::printf("CHECK FAILED: %s\n", p.c_str());
  const bool correct = problems.empty();
  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
              "\"metrics\":%s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(ws.attempted),
              static_cast<unsigned long long>(failed),
              a.trace ? layers.json().c_str() : e2e.json().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
