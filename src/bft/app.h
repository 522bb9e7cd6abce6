// The interface between the PBFT core and the layer above it (a plain
// replicated service, or one of the causal engines CP0–CP3).
//
// The BFT core calls on_deliver() for every request in total order; the app
// decides when (and whether) to execute and reply — this is exactly the
// seam where the paper's schedule/reveal split plugs in: plain PBFT replies
// immediately, the causal engines start their reveal phase instead and
// reply only after the plaintext is recovered.
#pragma once

#include <functional>

#include "bft/config.h"
#include "bft/keyring.h"
#include "bft/types.h"
#include "crypto/drbg.h"
#include "host/cost_model.h"
#include "host/worker_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace scab::bft {

/// Capabilities the replica exposes to its app.
class ReplicaContext {
 public:
  virtual ~ReplicaContext() = default;

  virtual NodeId id() const = 0;
  virtual const BftConfig& config() const = 0;
  virtual uint64_t view() const = 0;
  virtual bool is_primary() const = 0;
  virtual host::Time now() const = 0;

  /// Sends a REPLY to the client (normally called from on_deliver or later,
  /// once the causal reveal completed).
  virtual void send_reply(NodeId client, uint64_t client_seq, Bytes result) = 0;

  /// Causal-channel point-to-point message to another node.
  virtual void send_causal(NodeId to, Bytes body) = 0;
  /// Causal-channel broadcast to all other replicas.
  virtual void broadcast_causal(Bytes body) = 0;

  /// Primary-only: injects a request originated by the replica itself into
  /// the batch stream (used for CP1's CLEANUP operations). No-op on backups.
  virtual void submit_local_request(Bytes payload) = 0;

  /// Votes for a view change (fairness violation, cleanup-rule violation).
  virtual void request_view_change(const char* reason) = 0;

  /// Admits a request on behalf of another client, bypassing app validation
  /// (CP1 amplification: the forwarded witness is self-certifying).  The
  /// request joins the normal admission path: the primary batches it,
  /// backups watch it.
  virtual void admit_foreign_request(NodeId client, uint64_t client_seq,
                                     Bytes payload) = 0;

  /// Schedules an app-level timer (amplification delays, cleanup checks).
  virtual void schedule(host::Time delay, std::function<void()> fn) = 0;

  /// Appends an application-level record to the replica's durable WAL
  /// (DESIGN.md §13).  The causal engines log "request X executed" here so
  /// a post-crash replay never runs a revealed operation twice.  Records
  /// are replayed, in append order interleaved with the BFT records, via
  /// ReplicaApp::on_wal_record.  No-op on a replica without storage.
  virtual void wal_append(BytesView record) { (void)record; }

  /// CPU cost charging and utilities.
  virtual void charge(host::Op op, std::size_t bytes) = 0;

  /// Hands a self-contained job to the host's crypto worker pool; the
  /// continuation the job returns runs back on this replica's sequential
  /// executor (host/worker_pool.h contract).  The default runs everything
  /// inline, which is exactly what the deterministic simulator does.
  virtual void offload(host::PoolJob job) {
    if (!job) return;
    if (auto cont = job()) cont();
  }
  virtual crypto::Drbg& rng() = 0;
  virtual const KeyRing& keys() const = 0;

  /// This replica's metrics registry; apps publish "cp0."/"cp1."/... metrics
  /// here.  Defaults to the inert sink so contexts without instrumentation
  /// (and tests that don't care) need no changes.
  virtual obs::MetricsRegistry& metrics() { return obs::MetricsRegistry::inert(); }
  /// Cluster-wide request tracer (shared across replicas so phase events
  /// merge into one span per request).
  virtual obs::Tracer& tracer() { return obs::Tracer::inert(); }
};

class ReplicaApp {
 public:
  virtual ~ReplicaApp() = default;

  /// A request was committed at sequence number `seq` (called in strictly
  /// increasing order, once per request in a batch).
  virtual void on_deliver(uint64_t seq, const Request& req,
                          ReplicaContext& ctx) = 0;

  /// The batch whose requests were just delivered finished (called once per
  /// executed batch, after the last on_deliver).  Apps that defer per-request
  /// work to amortize it across a batch flush here (CP1's reveal executions).
  virtual void on_batch_end(ReplicaContext& ctx) { (void)ctx; }

  /// A causal-channel message arrived (already MAC-authenticated).
  virtual void on_causal_message(NodeId from, BytesView body,
                                 ReplicaContext& ctx) {
    (void)from;
    (void)body;
    (void)ctx;
  }

  /// Pre-admission check for a client request (both at the primary before
  /// batching and at backups before forwarding).  CP0 verifies the
  /// threshold ciphertext here; CP1 checks the commitment header.
  virtual bool validate_request(NodeId client, const ClientRequestMsg& msg,
                                ReplicaContext& ctx) {
    (void)client;
    (void)msg;
    (void)ctx;
    return true;
  }

  /// The replica moved to a new view.
  virtual void on_new_view(uint64_t view, ReplicaContext& ctx) {
    (void)view;
    (void)ctx;
  }

  // --- durability (DESIGN.md §13) ---
  // The replica snapshots itself at every stable checkpoint; the app's
  // contribution rides along as an opaque blob.  serialize_state must be a
  // pure function of the app's current state: no RNG draws, no charges, no
  // sends — a replica with storage must stay bit-identical to one without.

  /// The app's durable state (service contents + causal pending/reveal
  /// state) as of now.  Default: stateless app, empty blob.
  virtual Bytes serialize_state(ReplicaContext& ctx) {
    (void)ctx;
    return {};
  }
  /// Restores a blob produced by serialize_state.  Called once, before WAL
  /// replay, on a freshly constructed app.  Returns false on a blob it
  /// cannot parse (malformed, or another layout version).  The service
  /// state that snapshot held would be LOST — the WAL was truncated at it,
  /// so replay re-applies only what executed after it — and Replica::recover
  /// therefore refuses to go on.  Default accepts only the empty blob.
  virtual bool restore_state(BytesView blob, ReplicaContext& ctx) {
    (void)ctx;
    return blob.empty();
  }
  /// Replays one record the app logged via ReplicaContext::wal_append,
  /// in append order relative to the replayed deliveries.  Returns false on
  /// a record it cannot parse; Replica::recover then refuses to go on.
  virtual bool on_wal_record(BytesView record, ReplicaContext& ctx) {
    (void)record;
    (void)ctx;
    return true;
  }
};

}  // namespace scab::bft
