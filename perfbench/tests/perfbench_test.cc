// Unit tests for the benchmark driver's arithmetic: percentile ranks,
// due-time latency accounting, the arrival schedule and /proc parsing.
#include <gtest/gtest.h>
#include <unistd.h>

#include <numeric>

#include "load.h"
#include "proc.h"
#include "spans.h"
#include "stats.h"

namespace perfbench {
namespace {

std::vector<double> one_to(int n) {
  std::vector<double> v(static_cast<std::size_t>(n));
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(Percentile, NearestRank) {
  const auto v = one_to(100);
  EXPECT_EQ(percentile(v, 0.50), 50.0);
  EXPECT_EQ(percentile(v, 0.99), 99.0);
  EXPECT_EQ(percentile(v, 1.00), 100.0);
  EXPECT_EQ(percentile(one_to(1000), 0.99), 990.0);
  // Rank rounds up: p50 of four samples is the 2nd.
  EXPECT_EQ(percentile({4, 1, 3, 2}, 0.50), 2.0);
  EXPECT_EQ(percentile({7}, 0.99), 7.0);
  EXPECT_EQ(percentile({}, 0.5), 0.0);
}

TEST(Percentile, OrderDoesNotMatter) {
  auto v = one_to(257);
  std::reverse(v.begin(), v.end());
  EXPECT_EQ(percentile(v, 0.99), 255.0);  // ceil(0.99 * 257) = 255
  EXPECT_EQ(median(v), 129.0);
}

TEST(Percentile, SamplesBeyondP99) {
  EXPECT_EQ(samples_beyond(1000, 0.99), 10u);
  EXPECT_EQ(samples_beyond(1099, 0.99), 10u);  // rank 1089
  EXPECT_EQ(samples_beyond(999, 0.99), 9u);
  EXPECT_EQ(samples_beyond(0, 0.99), 0u);
}

TEST(WindowStats, ClosedLoopTimesFromIssue) {
  std::vector<OpRecord> ops = {
      {-1, 100, 300},   // before the window: ignored
      {-1, 1000, 1500},
      {-1, 2000, 4000},
      {-1, 2500, -1},   // never answered: failed
      {-1, 9000, 9100},  // issued after the window: ignored
  };
  const WindowStats s = summarize(ops, {{1000, 9000}});
  EXPECT_EQ(s.attempted, 3u);
  EXPECT_EQ(s.failed, 1u);
  EXPECT_EQ(s.committed, 2u);  // replies at 1500 and 4000
  ASSERT_EQ(s.latency_ms.size(), 2u);
  EXPECT_DOUBLE_EQ(s.latency_ms[0], 500 / 1e6);
  EXPECT_DOUBLE_EQ(s.latency_ms[1], 2000 / 1e6);
  EXPECT_TRUE(s.queue_wait_ms.empty());
}

TEST(WindowStats, OpenLoopTimesFromDueSoQueueingCounts) {
  std::vector<OpRecord> ops = {
      // due 1000, queued until 1600, reply at 2000: latency 1000, not 400
      {1000, 1600, 2000},
      {3000, 3000, 3200},
      // came due in the window but was never issued: failed
      {5000, -1, -1},
  };
  const WindowStats s = summarize(ops, {{0, 10000}});
  EXPECT_EQ(s.attempted, 3u);
  EXPECT_EQ(s.failed, 1u);
  ASSERT_EQ(s.latency_ms.size(), 2u);
  EXPECT_DOUBLE_EQ(s.latency_ms[0], 1000 / 1e6);
  EXPECT_DOUBLE_EQ(s.latency_ms[1], 200 / 1e6);
  ASSERT_EQ(s.queue_wait_ms.size(), 2u);
  EXPECT_DOUBLE_EQ(s.queue_wait_ms[0], 600 / 1e6);
  EXPECT_DOUBLE_EQ(s.queue_wait_ms[1], 0.0);
}

TEST(WindowStats, OpenLoopWindowIsByDueTime) {
  // Due before the window, replied inside it: counts as committed in the
  // window (throughput) but not as an attempted op of the window.
  std::vector<OpRecord> ops = {{900, 950, 1200}};
  const WindowStats s = summarize(ops, {{1000, 2000}});
  EXPECT_EQ(s.attempted, 0u);
  EXPECT_EQ(s.committed, 1u);
}

TEST(WindowStats, DriftFifths) {
  std::vector<OpRecord> ops;
  for (int i = 0; i < 100; ++i) {
    const int64_t t = i * 100;
    const int64_t lat = i < 20 ? 10 : (i >= 80 ? 30 : 20);
    ops.push_back({-1, t, t + lat});
  }
  const WindowStats s = summarize(ops, {{0, 10000}});
  EXPECT_DOUBLE_EQ(s.first_fifth_p50_ms, 10 / 1e6);
  EXPECT_DOUBLE_EQ(s.last_fifth_p50_ms, 30 / 1e6);
}

TEST(WindowStats, OnlyTheWindowsIntervalsCount) {
  // Two quiet intervals with a stolen second between them.
  const std::vector<Interval> window = {{0, 100}, {200, 300}};
  std::vector<OpRecord> ops = {
      {-1, 50, 80},    // inside the first interval
      {-1, 150, 160},  // in the gap: not attempted, reply not committed
      {-1, 190, 210},  // starts in the gap, replies inside: committed only
      {-1, 250, -1},   // inside, never answered
      {-1, 300, 310},  // at the window's open end: outside
  };
  const WindowStats s = summarize(ops, window);
  EXPECT_EQ(s.attempted, 2u);
  EXPECT_EQ(s.failed, 1u);
  EXPECT_EQ(s.committed, 2u);  // replies at 80 and 210
  ASSERT_EQ(s.latency_ms.size(), 1u);
  EXPECT_DOUBLE_EQ(s.latency_ms[0], 30 / 1e6);
  EXPECT_EQ(summarize(ops, {}).attempted, 0u);
}

TEST(WindowStats, TracedSlicesFollowAbba) {
  // Slices of 10 from 100: 0 off, 1 on, 2 on, 3 off, then repeat.
  EXPECT_FALSE(in_traced_slice(99, 100, 10));
  EXPECT_FALSE(in_traced_slice(105, 100, 10));
  EXPECT_TRUE(in_traced_slice(110, 100, 10));
  EXPECT_TRUE(in_traced_slice(129, 100, 10));
  EXPECT_FALSE(in_traced_slice(130, 100, 10));
  EXPECT_FALSE(in_traced_slice(140, 100, 10));
  EXPECT_TRUE(in_traced_slice(150, 100, 10));
}

TEST(Schedule, SeededAndIncreasing) {
  const auto a = poisson_schedule(7, 200.0, 4000);
  const auto b = poisson_schedule(7, 200.0, 4000);
  const auto c = poisson_schedule(8, 200.0, 4000);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  for (std::size_t i = 1; i < a.size(); ++i) EXPECT_GT(a[i], a[i - 1]);
  // Mean inter-arrival of a 200/s process: 5 ms, within 5% over 4000.
  const double mean_ms = static_cast<double>(a.back()) / 1e6 / a.size();
  EXPECT_NEAR(mean_ms, 5.0, 0.25);
}

TEST(Payload, SeededAndStamped) {
  const auto p = make_payload(3, 0x0102, 4096);
  ASSERT_EQ(p.size(), 4096u);
  EXPECT_EQ(p[0], 0x02);
  EXPECT_EQ(p[1], 0x01);
  EXPECT_EQ(p, make_payload(3, 0x0102, 4096));
  EXPECT_NE(p, make_payload(4, 0x0102, 4096));
  EXPECT_EQ(make_payload(3, 5, 3).size(), 3u);
}

TEST(Proc, StatFieldsCountFromLastParen) {
  // A command name with spaces and a ')' must not shift the fields.
  const std::string stat =
      "1234 (scab d) x) S 1 1234 1234 0 -1 4194560 500 0 0 0 "
      "250 75 0 0 20 0 6 0 100 1000000 300";
  EXPECT_EQ(parse_stat_cpu_ticks(stat), std::optional<uint64_t>(325));
  EXPECT_EQ(parse_stat_cpu_ticks("garbage"), std::nullopt);
  EXPECT_EQ(parse_stat_cpu_ticks("1 (x) S 1 2"), std::nullopt);
}

TEST(Proc, IoAndStatus) {
  ProcSample s;
  EXPECT_TRUE(parse_io(
      "rchar: 10\nwchar: 20\nsyscr: 7\nsyscw: 9\nread_bytes: 4096\n"
      "write_bytes: 8192\ncancelled_write_bytes: 0\n",
      &s));
  EXPECT_EQ(s.syscr, 7u);
  EXPECT_EQ(s.syscw, 9u);
  EXPECT_EQ(s.read_bytes, 4096u);
  EXPECT_EQ(s.write_bytes, 8192u);
  EXPECT_FALSE(parse_io("syscr: 1\n", &s));

  const std::string status =
      "Name:\tscabd\nVmHWM:\t   12345 kB\nVmRSS:\t 1000 kB\n"
      "voluntary_ctxt_switches:\t42\nnonvoluntary_ctxt_switches:\t3\n";
  EXPECT_EQ(parse_status_field(status, "VmHWM"), std::optional<uint64_t>(12345));
  EXPECT_EQ(parse_status_field(status, "voluntary_ctxt_switches"),
            std::optional<uint64_t>(42));
  EXPECT_EQ(parse_status_field(status, "nonvoluntary_ctxt_switches"),
            std::optional<uint64_t>(3));
  EXPECT_EQ(parse_status_field(status, "VmPeak"), std::nullopt);
}

TEST(Proc, MachineCpuTimes) {
  const auto t = parse_cpu_times(
      "cpu  100 5 50 800 10 1 2 30 7 0\ncpu0 1 2 3 4 5 6 7 8 9 10\n");
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->total, 998u);  // guest columns excluded
  EXPECT_EQ(t->steal, 30u);
  EXPECT_EQ(parse_cpu_times("cpu0 1 2 3"), std::nullopt);
  EXPECT_EQ(parse_cpu_times("cpu  1 2 3"), std::nullopt);
  EXPECT_TRUE(read_cpu_times().has_value());
}

TEST(Proc, SelfSampleAndDifference) {
  const auto a = sample_proc(getpid());
  ASSERT_TRUE(a.has_value());
  EXPECT_GT(a->vm_hwm_kb, 0u);
  // Burn CPU until the tick counter moves (bounded by 2 s of wall time).
  std::optional<ProcSample> b;
  const int64_t give_up = mono_ns() + 2'000'000'000;
  volatile double x = 0;
  do {
    for (int i = 0; i < 1'000'000; ++i) x = x + i;
    b = sample_proc(getpid());
    ASSERT_TRUE(b.has_value());
  } while (b->cpu_ms == a->cpu_ms && mono_ns() < give_up);
  const ProcSample d = *b - *a;
  EXPECT_GT(d.cpu_ms, 0.0);
  EXPECT_GE(d.vm_hwm_kb, a->vm_hwm_kb);
}

TEST(Spans, DisabledLogRecordsNothing) {
  SpanLog on(true);
  const int32_t root = on.open("root", 0);
  EXPECT_EQ(on.add("child", 10, 30, root), 1);
  on.close(root, 100);
  EXPECT_EQ(on.size(), 2u);
  SpanLog off(false);
  EXPECT_EQ(off.add("x", 0, 1), -1);
  off.close(-1, 5);
  EXPECT_EQ(off.size(), 0u);
}

}  // namespace
}  // namespace perfbench
