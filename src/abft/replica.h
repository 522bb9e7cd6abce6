// Asynchronous consensus-based atomic broadcast (the CKPS/SINTRA lineage
// the paper contrasts with PBFT in §II and §VI-A), HoneyBadger-style:
//
//   epoch e:  every replica RBC-broadcasts its batch (Bracha reliable
//             broadcast), one binary agreement per proposer decides which
//             batches make the cut (input 1 on RBC delivery; once n-f
//             agreements decide 1, the rest are input 0), and the union of
//             accepted batches executes in deterministic proposer order.
//
// The binary agreement is Mostéfaoui–Moumen–Raynal style with a THRESHOLD
// COMMON COIN (abft/coin.h) — group exponentiations every round, which is
// precisely why the paper notes that for such protocols "the performance
// difference [between the causal protocols and CP0] is less visible"
// compared to PBFT (§VI-A): the base protocol already pays for public-key
// cryptography.  `bench_ablation_async` measures exactly that.
//
// AsyncReplica implements the same ReplicaApp-facing surface as
// bft::Replica, so the causal engines CP0–CP3 run on it UNCHANGED — the
// generality claim of the paper ("can be built from any types of BFT
// protocols", §II) made executable.  Simplifications vs production
// HoneyBadger: no erasure-coded RBC (full-payload echoes) and no threshold
// decryption of batches (the causal layer provides its own confidentiality
// mechanism — that is the whole point of the paper).
#pragma once

#include <atomic>
#include <deque>
#include <map>
#include <optional>
#include <set>

#include "abft/coin.h"
#include "bft/app.h"
#include "bft/client_window.h"
#include "bft/envelope.h"
#include "host/host.h"

namespace scab::abft {

using bft::NodeId;

class AsyncReplica final : public host::HostBound<bft::ReplicaContext> {
 public:
  AsyncReplica(host::Host& host, NodeId id, bft::BftConfig config,
               const bft::KeyRing& keys, const host::CostModel& costs,
               const CoinPublicKey& coin_pk, CoinKeyShare coin_share,
               bft::ReplicaApp* app, crypto::Drbg rng);

  // --- host::Node ---
  void on_message(NodeId from, BytesView msg) override;

  // --- bft::ReplicaContext ---
  // id()/now()/schedule()/charge() come from the HostBound mixin.
  const bft::BftConfig& config() const override { return config_; }
  /// Epochs play the role of views for the app layer.
  uint64_t view() const override { return current_epoch_; }
  /// Rotating "coordinator" role; only used by apps that want a single
  /// proposer for housekeeping ops (CP1's cleanup).
  bool is_primary() const override {
    return current_epoch_ % config_.n == id();
  }
  void send_reply(NodeId client, uint64_t client_seq, Bytes result) override;
  void send_causal(NodeId to, Bytes body) override;
  void broadcast_causal(Bytes body) override;
  void submit_local_request(Bytes payload) override;
  void request_view_change(const char* /*reason*/) override {}  // leaderless
  void admit_foreign_request(NodeId client, uint64_t client_seq,
                             Bytes payload) override;
  crypto::Drbg& rng() override { return rng_; }
  const bft::KeyRing& keys() const override { return keys_; }

  // --- introspection ---
  uint64_t executed_requests() const { return executed_requests_; }
  uint64_t epochs_completed() const { return current_epoch_; }
  uint64_t aba_rounds_run() const { return aba_rounds_run_; }

 private:
  enum class MsgType : uint8_t {
    kRbcInit = 0,
    kRbcEcho = 1,
    kRbcReady = 2,
    kBval = 3,
    kAux = 4,
    kCoinShare = 5,
    kDecided = 6,
  };

  struct RbcState {
    std::optional<Bytes> init_payload;
    bool echo_sent = false;
    bool ready_sent = false;
    bool delivered = false;
    std::map<NodeId, std::string> echoes;   // sender -> digest hex
    std::map<NodeId, std::string> readies;  // sender -> digest hex
    std::map<std::string, Bytes> payloads;  // digest hex -> payload
  };

  struct AbaRound {
    std::set<NodeId> bval_senders[2];
    bool bval_sent[2] = {false, false};
    bool bin_values[2] = {false, false};
    std::map<NodeId, bool> aux;
    bool aux_sent = false;
    std::map<NodeId, CoinShare> coin_shares;
    bool coin_share_sent = false;
    std::optional<bool> coin;
  };

  struct AbaState {
    bool started = false;
    bool est = false;
    uint32_t round = 0;
    std::map<uint32_t, AbaRound> rounds;
    std::optional<bool> decided;
    bool decided_broadcast = false;
    std::set<NodeId> decided_votes[2];
  };

  struct Epoch {
    bool proposed = false;
    std::map<uint32_t, RbcState> rbc;  // per proposer
    std::map<uint32_t, AbaState> aba;
    std::map<uint32_t, Bytes> accepted_batches;  // delivered RBC payloads
    uint32_t ones = 0;   // ABAs decided 1
    uint32_t decided = 0;  // ABAs decided (either way)
    bool zero_filled = false;
    bool output_done = false;
  };

  // --- messaging ---
  void send_abft(NodeId to, BytesView body);
  void broadcast_abft(BytesView body);
  Bytes header(MsgType type, uint64_t epoch, uint32_t proposer) const;

  // --- client admission & proposing ---
  void handle_client_request(NodeId from, BytesView body, bool skip_validate);
  void maybe_propose(uint64_t epoch);

  // --- RBC ---
  void rbc_start(uint64_t epoch, Bytes payload);
  void rbc_on_init(uint64_t epoch, uint32_t proposer, Bytes payload);
  void rbc_on_echo(uint64_t epoch, uint32_t proposer, NodeId from, Bytes payload);
  void rbc_on_ready(uint64_t epoch, uint32_t proposer, NodeId from, Bytes payload);
  void rbc_deliver(uint64_t epoch, uint32_t proposer, Bytes payload);

  // --- ABA ---
  void aba_start(uint64_t epoch, uint32_t proposer, bool input);
  void aba_send_bval(uint64_t epoch, uint32_t proposer, uint32_t round, bool b);
  void aba_on_bval(uint64_t epoch, uint32_t proposer, uint32_t round,
                   NodeId from, bool b);
  void aba_on_aux(uint64_t epoch, uint32_t proposer, uint32_t round,
                  NodeId from, bool b);
  void aba_on_coin_share(uint64_t epoch, uint32_t proposer, uint32_t round,
                         NodeId from, const CoinShare& share);
  void aba_on_decided(uint64_t epoch, uint32_t proposer, NodeId from, bool b);
  void aba_progress(uint64_t epoch, uint32_t proposer);
  void aba_decide(uint64_t epoch, uint32_t proposer, bool b);

  // --- ACS / output ---
  void maybe_zero_fill(uint64_t epoch);
  void try_output(uint64_t epoch);

  Bytes coin_name(uint64_t epoch, uint32_t proposer, uint32_t round) const;
  Epoch& epoch_state(uint64_t e) { return epochs_[e]; }

  bft::BftConfig config_;
  const bft::KeyRing& keys_;
  CoinPublicKey coin_pk_;
  CoinKeyShare coin_key_;
  bft::ReplicaApp* app_;
  crypto::Drbg rng_;

  std::deque<bft::Request> pending_;
  std::set<std::string> pending_digests_;
  std::map<uint64_t, Epoch> epochs_;
  uint64_t current_epoch_ = 0;
  uint64_t exec_seq_ = 0;
  uint64_t local_seq_ = 1;

  // Windowed, not scalar: ACS executes in proposer order, so a pipelined
  // client's seqs routinely commit out of order (client_window.h).
  std::map<NodeId, bft::ClientExecWindow> executed_window_;
  std::map<NodeId, bft::ClientReplyCache> reply_cache_;

  std::atomic<uint64_t> executed_requests_{0};
  uint64_t aba_rounds_run_ = 0;
};

}  // namespace scab::abft
