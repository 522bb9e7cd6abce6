// CP0 — secure causal atomic broadcast from a labeled threshold
// cryptosystem (Reiter–Birman / CKPS, reviewed in paper §V-A).
//
// Schedule: the client encrypts its request under the system threshold
// public key with label ID = (client, seq) and the ciphertext is ordered by
// PBFT.  Reveal: after a batch commits, every replica broadcasts its
// decryption share for each ciphertext in the batch; a replica that has
// collected f+1 valid shares combines, executes, and replies.  Execution of
// slot s blocks until every request in it is recovered, preserving total
// order and the CKPS rule that a correct replica never runs two schedule or
// two reveal steps back-to-back for a request.  The reveal step itself runs
// in the shared RevealEngine (causal/reveal.h); Cp0Scheme below supplies
// the TDH2 share scheme.
//
// The threshold cryptosystem itself sits behind Cp0Backend so that the
// throughput benchmarks can swap the real TDH2 implementation for a
// calibrated-cost oracle (DESIGN.md §3) without touching protocol logic.
// Latency benchmarks and tests use the real backend.
#pragma once

#include <unordered_map>

#include "bft/client.h"
#include "causal/reveal.h"
#include "threshenc/hybrid.h"

namespace scab::causal {

/// Abstracts the (t, n) labeled threshold cryptosystem used by CP0 — only
/// what CP0 calls.  All byte-level objects are opaque wires produced and
/// consumed by the same backend type.  Costs are charged by the caller via
/// ctx.charge, so a modeled backend has the same virtual-time behaviour as
/// the real one.
///
/// Batched envelopes (DESIGN.md §10): a batched wire packs N payloads under
/// ONE KEM header, so every reveal-path entry point runs once per BATCH,
/// under the full reveal label.  Single-payload wires are the batch of one.
class Cp0Backend {
 public:
  virtual ~Cp0Backend() = default;

  /// Client: encrypt `message` bound to `label`.
  virtual Bytes encrypt(BytesView message, BytesView label,
                        crypto::Drbg& rng) = 0;
  /// Client: encrypt `messages` under one amortized header bound to
  /// `prefix`.  A batch of one MUST be bit-identical to encrypt().
  virtual Bytes encrypt_batch(const std::vector<Bytes>& messages,
                              BytesView prefix, crypto::Drbg& rng) = 0;
  /// Anyone: publicly verify a ciphertext (including label binding).
  virtual bool verify_ciphertext(BytesView ct, BytesView label) = 0;
  /// Number of payloads inside `ct` (1 for single/unrecognized wires).
  virtual uint32_t batch_count(BytesView ct) = 0;
  /// The label the reveal path must use: `prefix` (= RequestId::encode())
  /// for single wires, prefix || batch digest for batched wires.
  virtual Bytes reveal_label(BytesView ct, BytesView prefix) = 0;

  /// Replica `index` (1-based): its decryption share for a ciphertext the
  /// caller ALREADY verified (CP0 verifies once, at admission or delivery,
  /// so the reveal step does not pay the proof check again).
  virtual std::optional<Bytes> decryption_share_preverified(
      uint32_t index, BytesView ct, BytesView label, crypto::Drbg& rng) = 0;

  /// Result of an offloaded batch-share verification: the input wires
  /// travel through the job (moved, not copied) so the caller can adopt
  /// the valid ones without touching the backend again.
  struct BatchVerifyResult {
    std::vector<Bytes> shares;
    std::vector<uint8_t> verdicts;  // one per share, 1 = valid
    // Bisection splits the batch needed (0 = one merged equation passed).
    uint32_t fallback_splits = 0;
  };
  /// Randomized batch verification of shares for ONE ciphertext, packaged
  /// as a self-contained job safe to run on a worker-pool thread
  /// (host/worker_pool.h): anything stateful (caches, the rng fork) is
  /// resolved here on the calling thread, and the job touches no backend
  /// state.
  virtual std::function<BatchVerifyResult()> make_batch_share_verifier(
      BytesView ct, BytesView label, std::vector<Bytes> shares,
      crypto::Drbg& rng) = 0;
  /// Combine >= threshold verified shares and open EVERY payload (all or
  /// nothing).  `full_label` is the reveal_label() result; `prefix` the
  /// RequestId part of it.
  virtual std::optional<std::vector<Bytes>> combine_batch_preverified(
      BytesView ct, BytesView prefix, BytesView full_label,
      const std::vector<Bytes>& shares) = 0;
  virtual uint32_t threshold() const = 0;

  /// Lets the backend register its own instruments (cache hit rates etc.)
  /// next to the protocol's cp0.* metrics.  Default: none.
  virtual void bind_metrics(obs::MetricsRegistry& /*registry*/) {}
};

/// The real thing: hybrid TDH2 (see threshenc/).
class RealTdh2Backend : public Cp0Backend {
 public:
  explicit RealTdh2Backend(threshenc::Tdh2PublicKey pk,
                           std::optional<threshenc::Tdh2KeyShare> my_key = std::nullopt)
      : pk_(std::move(pk)), my_key_(std::move(my_key)) {}

  Bytes encrypt(BytesView message, BytesView label, crypto::Drbg& rng) override;
  Bytes encrypt_batch(const std::vector<Bytes>& messages, BytesView prefix,
                      crypto::Drbg& rng) override;
  bool verify_ciphertext(BytesView ct, BytesView label) override;
  uint32_t batch_count(BytesView ct) override;
  Bytes reveal_label(BytesView ct, BytesView prefix) override;
  std::optional<Bytes> decryption_share_preverified(uint32_t index,
                                                    BytesView ct,
                                                    BytesView label,
                                                    crypto::Drbg& rng) override;
  std::function<BatchVerifyResult()> make_batch_share_verifier(
      BytesView ct, BytesView label, std::vector<Bytes> shares,
      crypto::Drbg& rng) override;
  std::optional<std::vector<Bytes>> combine_batch_preverified(
      BytesView ct, BytesView prefix, BytesView full_label,
      const std::vector<Bytes>& shares) override;
  uint32_t threshold() const override { return pk_.threshold; }
  void bind_metrics(obs::MetricsRegistry& registry) override;

  /// Parsed-ciphertext LRU capacity.  CP0 parses the SAME wire ciphertext
  /// in verify_ciphertext, share_decrypt, every share verification, and
  /// combine; a handful of in-flight requests per replica makes a small
  /// cache effectively always hit after admission.
  static constexpr std::size_t kCtCacheEntries = 16;

 private:
  /// A parsed wire: exactly one of `single`/`batch` is set.  `kem()` is the
  /// TDH2 ciphertext every share-path operation works on.
  struct ParsedWire {
    std::optional<threshenc::HybridCiphertext> single;
    std::optional<threshenc::HybridBatchCiphertext> batch;
    const threshenc::Tdh2Ciphertext& kem() const {
      return batch ? batch->kem : single->kem;
    }
  };

  /// Digest-keyed LRU lookup of the parsed hybrid ciphertext (single or
  /// batched, discriminated by the wire magic); parses (and caches) on
  /// miss, returns nullptr for malformed wires (not cached).
  const ParsedWire* parsed_ct(BytesView ct);
  threshenc::Tdh2PublicKey pk_;
  std::optional<threshenc::Tdh2KeyShare> my_key_;

  struct CtCacheEntry {
    Bytes digest;  // sha256 of the wire
    ParsedWire parsed;
  };
  std::vector<CtCacheEntry> ct_cache_;  // front = most recently used
  obs::Counter* ct_cache_hits_ = nullptr;
  obs::Counter* ct_cache_misses_ = nullptr;
  obs::Gauge* lagrange_hits_ = nullptr;
  obs::Gauge* lagrange_misses_ = nullptr;
};

/// Calibrated-cost oracle: structurally faithful (labels checked, share
/// counting and distinctness enforced, corrupt shares rejected) but without
/// the modular exponentiations.  SIMULATION ONLY — the "ciphertext" is the
/// label-bound plaintext.  Used by throughput sweeps where executing
/// thousands of 1024-bit operations per point would make the benchmark
/// binary take hours; the per-op costs are still charged by the protocol
/// from the live-calibrated table.
class ModeledThresholdBackend : public Cp0Backend {
 public:
  ModeledThresholdBackend(uint32_t threshold, uint32_t servers)
      : threshold_(threshold), servers_(servers) {}

  Bytes encrypt(BytesView message, BytesView label, crypto::Drbg& rng) override;
  Bytes encrypt_batch(const std::vector<Bytes>& messages, BytesView prefix,
                      crypto::Drbg& rng) override;
  bool verify_ciphertext(BytesView ct, BytesView label) override;
  uint32_t batch_count(BytesView ct) override;
  Bytes reveal_label(BytesView ct, BytesView prefix) override;
  std::optional<Bytes> decryption_share_preverified(uint32_t index,
                                                    BytesView ct,
                                                    BytesView label,
                                                    crypto::Drbg& rng) override;
  std::function<BatchVerifyResult()> make_batch_share_verifier(
      BytesView ct, BytesView label, std::vector<Bytes> shares,
      crypto::Drbg& rng) override;
  std::optional<std::vector<Bytes>> combine_batch_preverified(
      BytesView ct, BytesView prefix, BytesView full_label,
      const std::vector<Bytes>& shares) override;
  uint32_t threshold() const override { return threshold_; }

 private:
  uint32_t threshold_;
  uint32_t servers_;
};

// ---------------------------------------------------------------------------

/// CP0's share scheme for the reveal engine (causal/reveal.h): TDH2
/// decryption shares, public (the same body to every peer), made by the
/// replica at delivery and counted valid at once; peers' shares accumulate
/// until they can reach the f+1 threshold, then go through ONE randomized
/// batch verification on the worker pool before the combine.
class Cp0Scheme : public RevealScheme {
 public:
  explicit Cp0Scheme(std::unique_ptr<Cp0Backend> backend);

  /// Cap on remembered validate_request verdicts awaiting delivery.
  static constexpr std::size_t kMaxValidatedCache = 1024;

  void bind_metrics(obs::MetricsRegistry& reg) override;
  bool validate_request(bft::NodeId client, const bft::ClientRequestMsg& msg,
                        bft::ReplicaContext& ctx) override;
  std::unique_ptr<RecoveryState> admit(const RequestId& id, BytesView payload,
                                       Bytes& own,
                                       bft::ReplicaContext& ctx) override;
  std::unique_ptr<RecoveryState> resume(const RequestId& id,
                                        BytesView payload) override;
  std::size_t start(RecoveryState& st, BytesView payload, const Bytes& own,
                    std::vector<Share>& backlog,
                    bft::ReplicaContext& ctx) override;
  bool ready(const RecoveryState& st, std::size_t backlog) const override;
  RecoverJob recover(RecoveryState& st, BytesView payload,
                     std::vector<Share> batch,
                     bft::ReplicaContext& ctx) override;
  std::optional<std::vector<Bytes>> finish(RecoveryState& st, BytesView payload,
                                           const RequestId& id,
                                           bft::ReplicaContext& ctx) override;
  Bytes seal(bft::NodeId to, const RequestId& id, BytesView wire,
             bft::ReplicaContext& ctx) override;
  std::optional<std::pair<RequestId, Bytes>> open(
      bft::NodeId from, BytesView body, bft::ReplicaContext& ctx) override;
  Bytes corrupt(Bytes wire) const override;

 private:
  struct State : RecoveryState {
    Bytes label;         // full reveal label (id prefix || batch digest)
    uint32_t count = 1;  // payloads inside the envelope
    std::vector<Bytes> valid;  // verified shares (our own counted at once)
  };
  std::unique_ptr<State> make_state(BytesView payload, const RequestId& id);

  std::unique_ptr<Cp0Backend> backend_;
  // RequestIds this replica verified at validate_request time (payload
  // digest), letting delivery skip the proof check when PBFT delivers the
  // same bytes.  Entries are erased at delivery; overflow evicts
  // arbitrarily (worst case: one extra verify).
  std::unordered_map<RequestId, Bytes> validated_;

  struct {
    obs::Counter* ct_verified = nullptr;
    obs::Counter* ct_rejected = nullptr;
    obs::Counter* shares_verified = nullptr;
    obs::Counter* shares_rejected = nullptr;
    // Batches that needed the fallback (a bisection split or a rejected
    // share): a Byzantine share inside a batch always surfaces here.
    obs::Counter* batch_fallbacks = nullptr;
    obs::Histogram* envelope_payloads = nullptr;  // payloads per envelope
  } m_;
};

class Cp0ClientProtocol : public bft::ClientProtocol {
 public:
  explicit Cp0ClientProtocol(std::unique_ptr<Cp0Backend> backend)
      : backend_(std::move(backend)) {}

  /// Opt in to op-batch framing (bft/batch.h): a framed `op` is unpacked
  /// and its payloads ride one amortized envelope.  Off by default so an
  /// application payload can never be misread as a frame.
  void set_batching(bool on) { batching_ = on; }

  void start(uint64_t client_seq, BytesView op, bft::ClientContext& ctx) override;
  void on_reply(bft::NodeId replica, const bft::ReplyMsg& reply,
                bft::ClientContext& ctx) override;
  void on_retransmit(bft::ClientContext& ctx) override;

 private:
  std::unique_ptr<Cp0Backend> backend_;
  bool batching_ = false;
  uint64_t seq_ = 0;
  Bytes ciphertext_;
  bft::ReplyQuorum quorum_;
};

}  // namespace scab::causal
