// BFT client: closed-loop request issuing (the paper's workload model:
// "Clients invoke requests in a closed-loop, where a client does not start
// a new request before receiving a reply for a previous one").
//
// The client core handles sequencing, retransmission, and latency
// accounting; a pluggable ClientProtocol defines what a "request" is on the
// wire — plain PBFT payloads, CP0 threshold ciphertexts, CP1
// commitment-then-opening (two BFT rounds), or CP2/CP3 secret shares over
// private channels.
#pragma once

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "bft/config.h"
#include "bft/envelope.h"
#include "host/host.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace scab::bft {

/// Capabilities the client core exposes to its protocol.
class ClientContext {
 public:
  virtual ~ClientContext() = default;

  virtual NodeId id() const = 0;
  virtual const BftConfig& config() const = 0;
  virtual host::Time now() const = 0;

  /// Multicasts a request payload to all replicas (Aardvark-style).
  virtual void send_request(uint64_t client_seq, Bytes payload) = 0;
  /// Sends a request payload to a single replica (partial-failure tests).
  virtual void send_request_to(NodeId replica, uint64_t client_seq,
                               Bytes payload) = 0;
  /// Point-to-point causal-channel message to one replica (secret shares).
  virtual void send_causal(NodeId replica, Bytes body) = 0;

  /// Allocates a fresh client sequence number (CP1's reveal round runs as a
  /// separate BFT request).
  virtual uint64_t next_seq() = 0;

  /// Declares the in-flight operation complete with `result`.
  virtual void complete(Bytes result) = 0;

  virtual void charge(host::Op op, std::size_t bytes) = 0;
  virtual crypto::Drbg& rng() = 0;
  virtual const KeyRing& keys() const = 0;
};

class ClientProtocol {
 public:
  virtual ~ClientProtocol() = default;

  /// Begins one operation. `op` is the application-level request body.
  virtual void start(uint64_t client_seq, BytesView op, ClientContext& ctx) = 0;

  /// A REPLY arrived from `replica` (already authenticated).
  virtual void on_reply(NodeId replica, const ReplyMsg& reply,
                        ClientContext& ctx) = 0;

  /// A causal-channel message arrived.
  virtual void on_causal_message(NodeId from, BytesView body,
                                 ClientContext& ctx) {
    (void)from;
    (void)body;
    (void)ctx;
  }

  /// Retransmission timer fired while the operation is still in flight.
  virtual void on_retransmit(ClientContext& ctx) { (void)ctx; }
};

/// Counts f+1 matching replies for one client_seq.
class ReplyQuorum {
 public:
  void arm(uint64_t client_seq, uint32_t need) {
    client_seq_ = client_seq;
    need_ = need;
    votes_.clear();
    fired_ = false;
  }

  /// Returns true exactly once, when `need` distinct replicas reported the
  /// same result for the armed client_seq.
  bool add(NodeId replica, const ReplyMsg& reply);

  bool fired() const { return fired_; }

 private:
  uint64_t client_seq_ = 0;
  uint32_t need_ = 0;
  bool fired_ = false;
  std::map<NodeId, Bytes> votes_;
};

class Client final : public host::HostBound<ClientContext> {
 public:
  /// `metrics` receives "client."-prefixed counters/histograms; `tracer` is
  /// the cluster-wide request tracer (kSubmit/kCompleted endpoints).  Both
  /// optional — null binds to the inert sinks.
  Client(host::Host& host, NodeId id, BftConfig config, const KeyRing& keys,
         const host::CostModel& costs, ClientProtocol* protocol,
         crypto::Drbg rng, obs::MetricsRegistry* metrics = nullptr,
         obs::Tracer* tracer = nullptr);
  // Out-of-line: slots hold unique_ptrs to the forward-declared SlotContext.
  ~Client() override;

  /// Generates the application body of operation #index.
  using OpGenerator = std::function<Bytes(uint64_t index)>;
  /// Called when an operation completes (for workload bookkeeping).
  using CompletionHook = std::function<void(uint64_t index, host::Time start,
                                            host::Time end)>;

  /// Issues `max_ops` operations back-to-back (0 = until the sim stops).
  void run_closed_loop(OpGenerator gen, uint64_t max_ops,
                       CompletionHook hook = nullptr);

  /// Open-loop workload: issues one operation per `interval` nanoseconds
  /// (paced with deterministic DRBG jitter) regardless of completions.  A
  /// tick that finds every slot busy SHEDS its operation — counted in
  /// "client.shed", never queued — so the achieved rate degrades visibly
  /// instead of building an unbounded backlog.  `max_ops` bounds the number
  /// of operations ISSUED (0 = unbounded; shed ticks do not count).
  /// Composes with set_pipeline for more than one in-flight slot (use
  /// batch = 1: open loop paces logical ops individually).
  void run_open_loop(OpGenerator gen, uint64_t max_ops, host::Time interval,
                     CompletionHook hook = nullptr);

  /// Issues a single operation.
  void submit(Bytes op, CompletionHook hook = nullptr);

  /// Builds one ClientProtocol instance (pipelined mode needs one per slot).
  using ProtocolFactory = std::function<std::unique_ptr<ClientProtocol>()>;

  /// Switches run_closed_loop into pipelined mode: up to `inflight`
  /// operations in flight at once (each on its own protocol instance from
  /// `factory`), with `batch` logical payloads aggregated per operation
  /// (framed via bft/batch.h — the protocol must be batch-aware when
  /// batch > 1; a batch of one is submitted unframed, bit-identical to the
  /// closed-loop path).  Replies are fanned out to every in-flight slot;
  /// ReplyQuorum's client_seq filter routes them.  Must be called before
  /// run_closed_loop; inflight = batch = 1 keeps the legacy path.
  void set_pipeline(ProtocolFactory factory, uint32_t inflight, uint32_t batch);

  uint32_t pipeline_inflight() const { return pipeline_inflight_; }
  uint32_t pipeline_batch() const { return pipeline_batch_; }

  // --- host::Node ---
  void on_message(NodeId from, BytesView msg) override;

  // --- ClientContext ---
  // id()/now()/charge() come from the HostBound mixin.
  const BftConfig& config() const override { return config_; }
  void send_request(uint64_t client_seq, Bytes payload) override;
  void send_request_to(NodeId replica, uint64_t client_seq,
                       Bytes payload) override;
  void send_causal(NodeId replica, Bytes body) override;
  uint64_t next_seq() override { return next_seq_++; }
  void complete(Bytes result) override;
  crypto::Drbg& rng() override { return rng_; }
  const KeyRing& keys() const override { return keys_; }

  // --- stats (safe to poll from the controlling thread under kThreads) ---
  uint64_t completed_ops() const {
    return completed_.load(std::memory_order_acquire);
  }
  Bytes last_result() const {
    std::lock_guard<std::mutex> lk(stats_mu_);
    return last_result_;
  }
  /// Total host time spent across completed ops (for mean latency).
  host::Time total_latency() const {
    std::lock_guard<std::mutex> lk(stats_mu_);
    return total_latency_;
  }

  /// Base retransmission interval; retries back off exponentially from here
  /// (doubling per retry, capped at 64x, with DRBG jitter) so a dead primary
  /// costs O(log) retransmissions instead of a fixed-rate storm.
  void set_retry_timeout(host::Time t) { retry_timeout_ = t; }

 private:
  struct SlotContext;
  friend struct SlotContext;

  /// One pipelined operation slot: its own protocol instance, sequence
  /// number, retry timer, and latency clock.
  struct Slot {
    std::unique_ptr<ClientProtocol> protocol;
    std::unique_ptr<SlotContext> ctx;
    bool in_flight = false;
    uint64_t seq = 0;
    uint64_t index_base = 0;  // first logical-op index carried by this slot
    uint32_t logical = 1;     // logical payloads packed into the operation
    Bytes op;
    host::Time start = 0;
    uint64_t retry_epoch = 0;
    uint32_t retries = 0;
  };

  void begin_next();
  void arm_retry();
  bool pipelined() const { return !slots_.empty(); }
  void fill_slots();
  void arm_slot_retry(std::size_t slot_index);
  void complete_slot(std::size_t slot_index, Bytes result);
  void open_tick();
  void issue_one();  // open-loop: one op into a free slot, or shed

  BftConfig config_;
  const KeyRing& keys_;
  ClientProtocol* protocol_;
  crypto::Drbg rng_;

  OpGenerator generator_;
  CompletionHook hook_;
  uint64_t max_ops_ = 0;
  uint64_t issued_ = 0;
  std::atomic<uint64_t> completed_{0};
  uint64_t next_seq_ = 1;

  std::vector<std::unique_ptr<Slot>> slots_;  // empty = legacy single-flight
  uint32_t pipeline_inflight_ = 1;
  uint32_t pipeline_batch_ = 1;

  bool open_loop_ = false;       // completions do NOT trigger the next op
  host::Time open_interval_ = 0;  // ns between open-loop ticks

  bool in_flight_ = false;
  uint64_t inflight_index_ = 0;
  uint64_t inflight_seq_ = 0;
  Bytes inflight_op_;
  host::Time inflight_start_ = 0;
  uint64_t retry_epoch_ = 0;
  uint32_t retries_this_op_ = 0;
  host::Time retry_timeout_ = 500 * host::kMillisecond;

  mutable std::mutex stats_mu_;  // guards last_result_/total_latency_
  Bytes last_result_;
  host::Time total_latency_ = 0;

  obs::MetricsRegistry& metrics_;
  obs::Tracer& tracer_;
  struct {
    obs::Counter* submitted;
    obs::Counter* completed;
    obs::Counter* retries;
    obs::Histogram* latency_ns;
    // Pipelined mode only (bound in set_pipeline): slot occupancy after
    // each refill — how much of the inflight window the workload keeps
    // busy.
    obs::Histogram* inflight_slots = nullptr;
    // Open-loop mode only (bound in run_open_loop): ticks that found no
    // free slot and dropped their operation.
    obs::Counter* shed = nullptr;
  } m_;
};

}  // namespace scab::bft
