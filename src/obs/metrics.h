// Zero-dependency metrics for the protocol stack, over virtual time.
//
// The paper's evaluation (§VI) is entirely about *where time goes* inside
// CP0–CP3 — per-phase latency, queue depths, per-protocol crypto cost — so
// every layer of the stack (host::Host's message counts on either runtime,
// sim::Network's modeled NIC, bft::Replica/Client, the causal apps)
// publishes named counters, gauges and log-scale histograms into a
// MetricsRegistry.  Design constraints:
//
//  * Cheap enough to stay on in benchmarks: instruments are resolved ONCE
//    (by name) into stable handles; the hot-path operations are a single
//    relaxed atomic add / compare / bucket increment.  No strings, no
//    locks, no clock reads on the hot path.
//  * Host-safe: under rt::ThreadHost every node records from its own
//    worker thread while the controlling thread polls, so instruments are
//    atomic (counters/gauges) or sharded-then-merged (histograms: each
//    thread writes its own cache-line-aligned shard; readers aggregate
//    across shards).  Name resolution takes a registry mutex — off the hot
//    path by the handle rule above.
//  * Always-on without null checks: a component that was not given a
//    registry binds its handles to MetricsRegistry::inert(), a process-wide
//    sink that behaves normally but that nobody reads.
//  * Deterministic: registries hold no wall-clock state; histogram inputs
//    are virtual-time durations or sizes, so metric values are reproducible
//    across runs with the same seed (see determinism_test).
//
// Naming scheme (see DESIGN.md §7): dotted lowercase paths, one prefix per
// layer — "net.", "bft.", "client.", "cp0."/"cp1."/"cp2."/"cp3.".
// Durations are suffixed "_ns", map/queue sizes are gauges suffixed
// "_tracked" or named after the structure they mirror.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

namespace scab::obs {

/// Monotone event count.
class Counter {
 public:
  void inc(uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Instantaneous level (map sizes, queue depths, lags).  Tracks the maximum
/// level ever set, which is what the bounded-state regression tests assert.
class Gauge {
 public:
  void set(int64_t v) {
    value_.store(v, std::memory_order_relaxed);
    bump_max(v);
  }
  void add(int64_t delta) {
    bump_max(value_.fetch_add(delta, std::memory_order_relaxed) + delta);
  }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }
  int64_t max() const { return max_.load(std::memory_order_relaxed); }

 private:
  void bump_max(int64_t v) {
    int64_t cur = max_.load(std::memory_order_relaxed);
    while (v > cur &&
           !max_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  std::atomic<int64_t> value_{0};
  std::atomic<int64_t> max_{0};
};

/// Log2-bucketed histogram: bucket i counts values whose bit width is i,
/// i.e. [2^(i-1), 2^i).  64 buckets cover the full uint64 range, so a
/// record() is bounded-cost regardless of the value distribution; quantiles
/// are bucket-upper-bound estimates (within 2x), which is plenty for
/// latency breakdowns spanning microseconds to minutes.
class Histogram {
 public:
  static constexpr int kBuckets = 65;  // bit_width in [0, 64]

  void record(uint64_t value);

  uint64_t count() const { return snapshot().count; }
  uint64_t sum() const { return snapshot().sum; }
  uint64_t min() const {
    const Snapshot s = snapshot();
    return s.count == 0 ? 0 : s.min;
  }
  uint64_t max() const { return snapshot().max; }
  double mean() const {
    const Snapshot s = snapshot();
    return s.count == 0
               ? 0.0
               : static_cast<double>(s.sum) / static_cast<double>(s.count);
  }
  /// Upper bound of the bucket holding the p-quantile, p in [0, 1].
  uint64_t quantile(double p) const;

  void merge_from(const Histogram& other);

  /// Shard index the CALLING thread writes to (assigned round-robin by
  /// first touch, stable for the thread's lifetime, shared by every
  /// Histogram instance).  Exposed so tests can assert the contention
  /// structure — concurrent recorders land on distinct cache lines —
  /// without poking at Shard internals.
  static std::size_t thread_shard_slot();

 private:
  // Writers hit a per-thread shard (cache-line aligned, relaxed atomics);
  // readers aggregate across shards.  Aggregation is a sum, so the merged
  // result is independent of which thread recorded which sample — metric
  // values stay deterministic for deterministic workloads.
  struct alignas(64) Shard {
    std::atomic<uint64_t> count{0};
    std::atomic<uint64_t> sum{0};
    std::atomic<uint64_t> min{UINT64_MAX};
    std::atomic<uint64_t> max{0};
    std::array<std::atomic<uint64_t>, kBuckets> buckets{};
  };
  static constexpr std::size_t kShards = 8;

  struct Snapshot {
    uint64_t count = 0;
    uint64_t sum = 0;
    uint64_t min = UINT64_MAX;
    uint64_t max = 0;
    std::array<uint64_t, kBuckets> buckets{};
  };
  Snapshot snapshot() const;
  Shard& local_shard();

  std::array<Shard, kShards> shards_;
};

/// Named instrument registry.  Lookup returns a stable reference valid for
/// the registry's lifetime, so components resolve names at construction and
/// keep raw handles.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;
  // Moves are NOT thread-safe; move only before publication (merged
  // snapshots, test fixtures).
  MetricsRegistry(MetricsRegistry&& other) noexcept
      : counters_(std::move(other.counters_)),
        gauges_(std::move(other.gauges_)),
        histograms_(std::move(other.histograms_)) {}
  MetricsRegistry& operator=(MetricsRegistry&& other) noexcept {
    counters_ = std::move(other.counters_);
    gauges_ = std::move(other.gauges_);
    histograms_ = std::move(other.histograms_);
    return *this;
  }

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  // --- introspection (tests, JSON export) ---
  /// Counter value by name; 0 if the counter does not exist.
  uint64_t counter_value(std::string_view name) const;
  /// Gauge value by name; 0 if absent.
  int64_t gauge_value(std::string_view name) const;
  /// Gauge high-water mark by name; 0 if absent.
  int64_t gauge_max(std::string_view name) const;
  const Histogram* find_histogram(std::string_view name) const;
  /// Snapshot of every counter — diff two snapshots to assert "these
  /// counters moved and nothing else did".
  std::map<std::string, uint64_t> counter_values() const;

  /// Sums `other` into this registry: counters add, gauges add values and
  /// take the max of high-water marks, histograms merge bucket-wise.  Used
  /// by the benches to aggregate per-node registries into one report.
  void merge_from(const MetricsRegistry& other);

  /// JSON export: {"counters": {...}, "gauges": {...}, "histograms": {...}}
  /// with deterministic (sorted) key order.
  std::string to_json() const;

  /// Process-wide sink for components constructed without a registry; its
  /// instruments work normally but nobody exports them.
  static MetricsRegistry& inert();

 private:
  // std::map keeps export order deterministic; unique_ptr keeps handle
  // addresses stable across rehash-free growth.  mu_ guards the maps (name
  // resolution, iteration) — never the instruments themselves.
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

/// Names of counters whose value changed between two counter_values()
/// snapshots (taken from the same registry).  New counters count as changed.
std::map<std::string, uint64_t> changed_counters(
    const std::map<std::string, uint64_t>& before,
    const std::map<std::string, uint64_t>& after);

}  // namespace scab::obs
