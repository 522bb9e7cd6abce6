// The driver's client side: one rt::ThreadHost + rt::SocketTransport (one
// io thread) hosting the workload's bft::Client endpoints, and the closed-
// and open-loop generators that drive them.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <vector>

#include "bft/client.h"
#include "daemon/config.h"
#include "daemon/node.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rt/runtime.h"
#include "rt/transport.h"
#include "spans.h"
#include "stats.h"
#include "workload.h"

namespace perfbench {

/// The op body of logical op `index`: its index stamped little-endian in
/// the first 8 bytes, the rest seeded pseudo-random bytes.
scab::Bytes make_payload(uint64_t seed, uint64_t index, std::size_t bytes);

class Driver {
 public:
  /// `transport` is already bound (its port is the clients' port in `cfg`);
  /// the replicas' routes are added here.
  Driver(const scab::daemon::ClusterConfig& cfg, const Workload& w,
         uint64_t seed, SpanLog& spans,
         std::unique_ptr<scab::rt::SocketTransport> transport);
  ~Driver();
  Driver(const Driver&) = delete;
  Driver& operator=(const Driver&) = delete;

  int64_t now_ns() const { return host_->now(); }

  /// One op through endpoint 0; true once it commits.
  bool probe(double timeout_s);

  /// Closed loop: every endpoint starts issuing back to back.  Open loop:
  /// nothing happens until run_open_loop.
  void start_closed_loop();
  /// Open loop: dispatches the seeded arrival schedule, from `t0_ns` until
  /// `end_ns` or stop_issuing(), on the calling thread.  Due ops wait in a
  /// driver queue while every endpoint is busy.
  void run_open_loop(int64_t t0_ns, int64_t end_ns);
  /// No op starts (closed loop) or comes due (open loop) after this call.
  void stop_issuing();
  /// Waits until every op that came due has a reply; false on timeout.
  bool drain(double timeout_s);
  /// After the window: `count` more ops back to back on endpoint 0, then
  /// drain.  A replica restarted mid-run only catches up at the next
  /// stable checkpoint, so these carry it there.  Not for pipelined CP0.
  bool settle(uint64_t count, double timeout_s);

  /// Records per-op spans under `parent` for ops starting in the traced
  /// slices after `begin_ns` (see in_traced_slice).
  void trace_ops(int32_t parent, int64_t begin_ns, int64_t slice_ns) {
    parent_span_.store(parent);
    trace_begin_ns_.store(begin_ns);
    trace_slice_ns_.store(slice_ns);
  }

  /// BFT requests sent, probe included (a CP0 batch is one); exact once
  /// drain() has succeeded.
  uint64_t requests_issued() const;
  std::vector<OpRecord> records() const;
  std::vector<double> issue_late_us() const;
  uint64_t client_retries() const {
    return metrics_.counter_value("client.retries");
  }

  /// Joins the endpoint threads; idempotent.
  void stop();

 private:
  struct Endpoint {
    uint32_t id = 0;
    std::unique_ptr<scab::bft::ClientProtocol> protocol;
    std::unique_ptr<scab::bft::Client> client;
  };

  uint64_t new_record(const OpRecord& r);
  /// The pipelined client drew logical op `index` from the generator.
  void note_generated(uint64_t index);
  void finish(uint64_t index, int64_t issue_ns, int64_t reply_ns);
  /// (Re)arms endpoint 0's pipelined closed loop for `max_ops` more
  /// logical ops (0 = unbounded); runs on that endpoint's executor.
  void run_pipelined(uint64_t max_ops);
  void issue_closed(std::size_t ep);
  void issue_open(std::size_t ep, uint64_t index);
  void issue_settle();

  const scab::daemon::ClusterConfig cfg_;
  const Workload w_;
  const uint64_t seed_;
  SpanLog& spans_;
  scab::obs::MetricsRegistry metrics_;
  scab::obs::Tracer tracer_;
  scab::daemon::StackBundle bundle_;
  std::unique_ptr<scab::rt::ThreadHost> host_;
  std::vector<Endpoint> endpoints_;
  int64_t host_epoch_ns_ = 0;  // mono_ns() - host time

  std::atomic<bool> running_{false};
  std::atomic<int32_t> parent_span_{-1};
  std::atomic<int64_t> trace_begin_ns_{0};
  std::atomic<int64_t> trace_slice_ns_{0};  // 0 = no per-op spans
  std::atomic<uint64_t> probes_{0};
  std::atomic<uint64_t> settle_left_{0};
  std::atomic<uint64_t> created_{0};    // ops generated
  std::atomic<uint64_t> completed_{0};  // ops with a reply

  mutable std::mutex mu_;  // guards everything below
  std::vector<OpRecord> records_;
  std::vector<double> issue_late_us_;
  std::deque<uint64_t> due_queue_;  // open loop: due, not yet issued
  std::vector<bool> busy_;          // open loop: endpoint has an op out
};

}  // namespace perfbench
