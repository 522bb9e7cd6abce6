// The reveal step shared by CP0, CP2 and CP3 (paper §V-A and §V-D).
//
// Once the schedule step commits a request, every replica sends its share
// to the others, collects shares until the plaintext is recoverable, and
// executes requests strictly in delivery order.  Only the share scheme
// differs: CP0 uses public TDH2 decryption shares, batch-verified and
// combined at the f+1 threshold; CP2/CP3 use the ARSS1/ARSS2 shares the
// client dealt over private channels.  RevealEngine owns everything that
// does not depend on the scheme, once; a RevealScheme supplies the
// paper-specific parts (the Thetacrypt split: one service layer over a
// uniform scheme interface, never branching on the scheme).
//
// Engine: the pending map, the bounded per-sender early-share stash, the
// per-sender dedup, the late-share drop, the re-request sentinel and its
// answer (from the pending entry or a bounded completed-share FIFO), the
// capped exponential reveal retry, the worker-pool offload of recovery,
// in-order execution with its WAL record, and the snapshot.
//
// Scheme: checking the agreed public part, producing our own share,
// sealing/opening the share wire, the recovery job, its cost charges, and
// the Table IV corrupt-share transform.
#pragma once

#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "bft/app.h"
#include "causal/id.h"
#include "causal/service.h"

namespace scab::causal {

/// Scheme-defined per-request recovery state (CP0's verified shares, an
/// ARSS reconstructor).  Owned by the engine; touched on the protocol thread
/// only, except by the pool job it hands a part of to.
struct RecoveryState {
  virtual ~RecoveryState() = default;
};

/// One share as the engine queues it for recovery.
struct Share {
  bft::NodeId from = 0;
  Bytes wire;
};

/// What a recovery job reports once it lands back on the protocol thread.
struct Recovered {
  /// Set once the request is recovered: the payloads in execution order.
  std::optional<std::vector<Bytes>> plaintexts;
  /// Senders whose share the scheme proved invalid; they may send again.
  std::vector<bft::NodeId> rejected;
};
/// Runs on the protocol thread after the pool job: re-attaches what the job
/// took from the state, charges its costs, and reports.
using Landing = std::function<Recovered(RecoveryState&, bft::ReplicaContext&)>;
/// Runs on a worker-pool thread (self-contained: touches no scheme state).
using RecoverJob = std::function<Landing()>;

/// Per-scheme constants (never user-set).
struct SchemeTraits {
  const char* prefix;             // metric namespace ("cp0", "cp2", "cp3")
  const char* flush_histogram;    // under prefix: shares per recovery flush
  const char* recovered_counter;  // under prefix: requests recovered
  /// Our own share is the one the client dealt us (else made at delivery).
  bool client_deals;
};

class RevealScheme {
 public:
  explicit RevealScheme(SchemeTraits traits) : traits(traits) {}
  virtual ~RevealScheme() = default;

  const SchemeTraits traits;

  /// Registers the scheme's own instruments next to the engine's.
  virtual void bind_metrics(obs::MetricsRegistry& reg) { (void)reg; }
  /// Pre-admission check of a client request's public part.
  virtual bool validate_request(bft::NodeId client,
                                const bft::ClientRequestMsg& msg,
                                bft::ReplicaContext& ctx) = 0;
  /// Delivery: checks the agreed public part `payload` and builds the
  /// recovery state (nullptr drops the request).  A scheme that makes our
  /// own share at delivery stores it in `own`.
  virtual std::unique_ptr<RecoveryState> admit(const RequestId& id,
                                               BytesView payload, Bytes& own,
                                               bft::ReplicaContext& ctx) = 0;
  /// Restore: rebuilds the recovery state of a delivered request from its
  /// public part, with no charges and no sends.
  virtual std::unique_ptr<RecoveryState> resume(const RequestId& id,
                                                BytesView payload) = 0;
  /// Arms recovery with our own share (possibly empty) once the early
  /// shares were adopted into `backlog`.  Returns how many shares it took
  /// in directly that count toward the first flush.
  virtual std::size_t start(RecoveryState& st, BytesView payload,
                            const Bytes& own, std::vector<Share>& backlog,
                            bft::ReplicaContext& ctx) = 0;
  /// Whether `backlog` queued shares should be flushed into recovery now.
  virtual bool ready(const RecoveryState& st, std::size_t backlog) const {
    (void)st;
    (void)backlog;
    return true;
  }
  /// Builds the pool job that feeds `batch` into recovery.
  virtual RecoverJob recover(RecoveryState& st, BytesView payload,
                             std::vector<Share> batch,
                             bft::ReplicaContext& ctx) = 0;
  /// Recovers synchronously from what the state already holds, if it can.
  virtual std::optional<std::vector<Bytes>> finish(RecoveryState& st,
                                                   BytesView payload,
                                                   const RequestId& id,
                                                   bft::ReplicaContext& ctx) {
    (void)st;
    (void)payload;
    (void)id;
    (void)ctx;
    return std::nullopt;
  }
  /// The share-message body carrying `wire` to replica `to`.
  virtual Bytes seal(bft::NodeId to, const RequestId& id, BytesView wire,
                     bft::ReplicaContext& ctx) = 0;
  /// Opens a share-message body; nullopt drops it.
  virtual std::optional<std::pair<RequestId, Bytes>> open(
      bft::NodeId from, BytesView body, bft::ReplicaContext& ctx) = 0;
  /// Table IV: garbles a share wire while keeping it parseable.
  virtual Bytes corrupt(Bytes wire) const = 0;
};

class RevealEngine : public bft::ReplicaApp {
 public:
  RevealEngine(std::unique_ptr<Service> service,
               std::unique_ptr<RevealScheme> scheme)
      : service_(std::move(service)), scheme_(std::move(scheme)) {}

  /// Table IV's fault model: this replica sends garbled shares (it stays
  /// otherwise protocol-compliant and keeps its own copy honest).
  void set_corrupt_shares(bool corrupt) { corrupt_shares_ = corrupt; }

  bool validate_request(bft::NodeId client, const bft::ClientRequestMsg& msg,
                        bft::ReplicaContext& ctx) override;
  void on_deliver(uint64_t seq, const bft::Request& req,
                  bft::ReplicaContext& ctx) override;
  void on_causal_message(bft::NodeId from, BytesView body,
                         bft::ReplicaContext& ctx) override;

  // Durability (DESIGN.md §13): the snapshot carries the service state and
  // the reveal state; every execution logs a WAL record with the recovered
  // plaintexts, so a post-crash replay re-applies the operation without
  // re-running the reveal (the peers' shares are gone by then).
  Bytes serialize_state(bft::ReplicaContext& ctx) override;
  bool restore_state(BytesView blob, bft::ReplicaContext& ctx) override;
  bool on_wal_record(BytesView record, bft::ReplicaContext& ctx) override;

  Service& service() { return *service_; }

  /// Diagnostics/tests: reveal entries in flight (all correspond to
  /// delivered requests) and stashed pre-delivery shares.
  std::size_t pending_count() const { return pending_.size(); }
  std::size_t early_share_count() const;

  /// Per-sender cap on shares stashed before their request is delivered: a
  /// Byzantine sender naming made-up RequestIds can occupy at most this much
  /// state, since reveal state is only created at BFT delivery.
  static constexpr std::size_t kMaxEarlySharesPerSender = 32;
  /// Cap on own-share wires kept after execution, so a restarted peer
  /// re-collecting shares for old requests can still be answered.
  static constexpr std::size_t kMaxCompletedShareCache = 1024;
  /// Reveal retry: a delivered request still unrevealed after
  /// base << min(attempt, 4) re-sends our share and re-requests the peers'.
  /// The base sits above the WAN reveal round-trip, so the happy path never
  /// retries.
  static constexpr host::Time kRevealRetryBase = 500'000'000;  // 500 ms
  static constexpr uint32_t kMaxRevealRetries = 8;

 private:
  struct Reveal {
    Bytes payload;  // the agreed public part, as delivered
    Bytes own;      // our own share wire (uncorrupted); may be empty
    bool revealed = false;
    // A recovery job is on the worker pool; new shares queue in `backlog`
    // and flush when it lands.
    bool inflight = false;
    host::Time delivered_at = 0;
    std::vector<Bytes> plaintexts;  // set at reveal
    std::vector<Share> backlog;     // shares not yet fed into recovery
    std::unordered_set<bft::NodeId> seen;  // senders already heard from
    std::unique_ptr<RecoveryState> state;  // null once revealed
  };

  void bind_metrics(bft::ReplicaContext& ctx);
  void adopt_early_shares(const RequestId& id, Reveal& p,
                          bft::ReplicaContext& ctx);
  /// Dedups and queues one share; true if it joined the backlog.
  bool take_share(const RequestId& id, Reveal& p, bft::NodeId from, Bytes wire,
                  bft::ReplicaContext& ctx);
  void start_reveal(const RequestId& id, Reveal& p, bft::ReplicaContext& ctx);
  /// Recovers if possible, else flushes the backlog to the pool when ready.
  void advance(const RequestId& id, Reveal& p, bft::ReplicaContext& ctx,
               std::size_t absorbed = 0);
  void reveal(const RequestId& id, Reveal& p, std::vector<Bytes> plaintexts,
              bft::ReplicaContext& ctx);
  void drain_execution(bft::ReplicaContext& ctx);
  Bytes execute(bft::NodeId client, const std::vector<Bytes>& plaintexts,
                bft::ReplicaContext& ctx);
  /// Marks `id` executed: caches our share for re-requests, drops its entry.
  void complete(const RequestId& id);
  /// Sends our share to `to`, or to every other replica (sealed for each).
  void send_share(const RequestId& id, const Bytes& wire,
                  std::optional<bft::NodeId> to, bft::ReplicaContext& ctx);
  void answer_share_request(const RequestId& id, bft::NodeId from,
                            bft::ReplicaContext& ctx);
  void arm_reveal_retry(const RequestId& id, uint32_t attempt,
                        bft::ReplicaContext& ctx);

  std::unique_ptr<Service> service_;
  std::unique_ptr<RevealScheme> scheme_;
  bool corrupt_shares_ = false;

  std::unordered_map<RequestId, Reveal> pending_;
  std::unordered_set<RequestId> completed_;
  // Requests execute in delivery order, each blocking on its reveal (the
  // CKPS schedule/reveal alternation).
  std::deque<RequestId> exec_queue_;
  std::map<bft::NodeId, std::deque<std::pair<RequestId, Bytes>>> early_shares_;
  // Own-share wires of executed requests, bounded FIFO: a replica that
  // restarted re-delivers old requests and re-requests shares its peers
  // already consumed; answering from here lets it catch up past them.
  std::unordered_map<RequestId, Bytes> completed_shares_;
  std::deque<RequestId> completed_shares_order_;

  struct {
    obs::Counter* recovered = nullptr;
    obs::Counter* early_stashed = nullptr;
    obs::Counter* reveal_retries = nullptr;
    obs::Counter* share_rerequests_answered = nullptr;
    // Shares for already-executed requests: dropped, never re-queued.
    obs::Counter* late_shares_dropped = nullptr;
    obs::Histogram* flush_size = nullptr;
    obs::Histogram* reveal_ns = nullptr;  // delivery -> plaintext recovered
    // Delivered-but-unexecuted slots each time a reveal completes (share
    // collection for slot s+1 overlapping slot s).
    obs::Histogram* inflight_slots = nullptr;
    obs::Gauge* pending = nullptr;
    obs::Gauge* early_shares = nullptr;
  } m_;
  obs::Tracer* tracer_ = nullptr;
};

}  // namespace scab::causal
