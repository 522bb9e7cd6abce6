#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

namespace {

std::size_t nearest_rank(std::size_t n, double p) {
  const auto rank =
      static_cast<std::size_t>(std::ceil(p * static_cast<double>(n)));
  return std::clamp<std::size_t>(rank, 1, n);
}

}  // namespace

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  const std::size_t rank = nearest_rank(values.size(), p);
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return values[rank - 1];
}

std::size_t samples_beyond(std::size_t n, double p) {
  return n == 0 ? 0 : n - nearest_rank(n, p);
}

double median(std::vector<double> values) {
  return percentile(std::move(values), 0.5);
}

bool in_window(int64_t t, const std::vector<Interval>& window) {
  // First interval ending after t; t is inside if it has begun.
  const auto it = std::upper_bound(
      window.begin(), window.end(), t,
      [](int64_t v, const Interval& w) { return v < w.end_ns; });
  return it != window.end() && it->begin_ns <= t;
}

WindowStats summarize(const std::vector<OpRecord>& ops,
                      const std::vector<Interval>& window) {
  auto inside = [&window](int64_t t) { return in_window(t, window); };
  WindowStats out;
  std::vector<std::pair<int64_t, double>> by_start;  // (start, latency)
  for (const OpRecord& r : ops) {
    if (r.reply_ns >= 0 && inside(r.reply_ns)) ++out.committed;
    const int64_t s = start_ns(r);
    if (s < 0 || !inside(s)) continue;
    ++out.attempted;
    if (r.issue_ns < 0 || r.reply_ns < 0) {
      ++out.failed;
      continue;
    }
    const double ms = static_cast<double>(r.reply_ns - s) / 1e6;
    out.latency_ms.push_back(ms);
    if (r.due_ns >= 0) {
      out.queue_wait_ms.push_back(static_cast<double>(r.issue_ns - r.due_ns) /
                                  1e6);
    }
    by_start.emplace_back(s, ms);
  }
  std::sort(by_start.begin(), by_start.end());
  const std::size_t fifth = by_start.size() / 5;
  std::vector<double> first;
  std::vector<double> last;
  for (std::size_t i = 0; i < fifth; ++i) {
    first.push_back(by_start[i].second);
    last.push_back(by_start[by_start.size() - 1 - i].second);
  }
  out.first_fifth_p50_ms = median(std::move(first));
  out.last_fifth_p50_ms = median(std::move(last));
  return out;
}

uint64_t splitmix64(uint64_t& state) {
  uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::vector<int64_t> poisson_schedule(uint64_t seed, double rate_per_s,
                                      std::size_t count) {
  std::vector<int64_t> due;
  due.reserve(count);
  uint64_t state = seed;
  double t_ns = 0;
  for (std::size_t i = 0; i < count; ++i) {
    // Uniform in (0, 1]: never log(0).
    const double u =
        (static_cast<double>(splitmix64(state) >> 11) + 1.0) / 9007199254740992.0;
    t_ns += -std::log(u) * 1e9 / rate_per_s;
    const auto at = static_cast<int64_t>(t_ns);
    due.push_back(due.empty() ? at : std::max(at, due.back() + 1));
  }
  return due;
}

}  // namespace perfbench
