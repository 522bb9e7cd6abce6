// Order statistics and per-op latency accounting for the cluster benchmark.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile: the value at 1-based rank ceil(p * n) of the
/// sorted sample (p in (0, 1]).  Returns 0 for an empty sample.
double percentile(std::vector<double> values, double p);

/// How many samples of an n-sample set lie strictly above the rank the
/// nearest-rank percentile p picks (n - ceil(p * n)).
std::size_t samples_beyond(std::size_t n, double p);

double median(std::vector<double> values);

/// One logical op as the driver saw it, in host nanoseconds.  A closed
/// loop has no due time (due_ns < 0): its op is timed from issue.  An open
/// loop times from due, so time spent queued in the driver counts.
struct OpRecord {
  int64_t due_ns = -1;
  int64_t issue_ns = -1;  // < 0: never issued
  int64_t reply_ns = -1;  // < 0: no correct reply
};

/// The instant an op's latency is measured from.
inline int64_t start_ns(const OpRecord& r) {
  return r.due_ns >= 0 ? r.due_ns : r.issue_ns;
}

/// The traced run records per-op spans for ops that start in the middle two
/// of every four `slice_ns` slices after `begin_ns` (an ABBA pattern, so
/// drift and one-off events such as a replica restart fall on traced and
/// untraced ops alike); the rest give the untraced baseline.
inline bool in_traced_slice(int64_t start, int64_t begin_ns, int64_t slice_ns) {
  if (start < begin_ns) return false;
  const int64_t k = ((start - begin_ns) / slice_ns) % 4;
  return k == 1 || k == 2;
}

/// A half-open span [begin_ns, end_ns) of the measured window.
struct Interval {
  int64_t begin_ns = 0;
  int64_t end_ns = 0;
};

/// The measured window of a run, summarised.  The window is a sorted list
/// of disjoint intervals (the quiet seconds of the run).
struct WindowStats {
  uint64_t attempted = 0;  // ops that came due (or were issued) in the window
  uint64_t failed = 0;     // ... and got no correct reply
  uint64_t committed = 0;  // replies that arrived inside the window
  std::vector<double> latency_ms;     // attempted ops that got a reply
  std::vector<double> queue_wait_ms;  // open loop: due -> issue
  // p50 over the first and the last fifth of the attempted ops, in start
  // order (the drift of latency across the window).
  double first_fifth_p50_ms = 0;
  double last_fifth_p50_ms = 0;
};

/// True when `t` lies in one of the window's sorted, disjoint intervals.
bool in_window(int64_t t, const std::vector<Interval>& window);

WindowStats summarize(const std::vector<OpRecord>& ops,
                      const std::vector<Interval>& window);

/// Seeded exponential inter-arrival schedule: `count` due offsets in ns
/// (strictly increasing) for a Poisson process of `rate_per_s`.
std::vector<int64_t> poisson_schedule(uint64_t seed, double rate_per_s,
                                      std::size_t count);

/// splitmix64 step: the benchmark's only source of input randomness.
uint64_t splitmix64(uint64_t& state);

}  // namespace perfbench
