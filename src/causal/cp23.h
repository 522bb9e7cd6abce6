// CP2 and CP3 — secure causal atomic broadcast from ARSS (paper §V-D).
//
// Generic flow (both protocols): the client Shamir-shares its request and
// sends replica i the share S[i] over an authenticated AND private channel
// (AEAD); the BFT protocol orders only the public part (ID plus, for CP2,
// the commitment c).  When a replica delivers the identifier it starts the
// reveal (causal/reveal.h): it sends its share to the other replicas (again
// over private channels), feeds arriving shares to the incremental ARSS
// reconstructor, and executes + replies once the secret is recovered, in
// delivery order, exactly like CP0's reveal.
//
//   CP2 = ARSS1: shares carry a commitment tag; the commitment is *agreed*
//         in the schedule step, so foreign/forged share sets are rejected
//         immediately and recovery needs f+1 shares.
//   CP3 = ARSS2: plain Shamir shares, information-theoretic, recovery needs
//         f+2 consistent shares (and more under faults).
//
// Clients here may only crash (the paper's §V-D assumption); a crashing
// client can block the service but can never break causality.
#pragma once

#include <optional>
#include <vector>

#include "bft/client.h"
#include "causal/reveal.h"
#include "crypto/commitment.h"

namespace scab::causal {

/// The ARSS share scheme for the reveal engine: ARSS1 (CP2) when built
/// with the commitment scheme, ARSS2 (CP3) without.  Our own share is the
/// one the client dealt us; peers' shares feed the reconstructor on the
/// worker pool as they arrive.
class ArssScheme : public RevealScheme {
 public:
  explicit ArssScheme(std::optional<crypto::Commitment> commitment);

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
  RecoverJob recover(RecoveryState& st, BytesView payload,
                     std::vector<Share> batch,
                     bft::ReplicaContext& ctx) override;
  Bytes seal(bft::NodeId to, const RequestId& id, BytesView wire,
             bft::ReplicaContext& ctx) override;
  std::optional<std::pair<RequestId, Bytes>> open(
      bft::NodeId from, BytesView body, bft::ReplicaContext& ctx) override;
  Bytes corrupt(Bytes wire) const override;

 private:
  struct Reconstructor;
  struct State : RecoveryState {
    // shared_ptr: the reconstructor travels with the pool job (null while
    // it is out), and std::function needs a copyable closure.
    std::shared_ptr<Reconstructor> rec;
  };

  bool parses(BytesView wire) const;

  std::optional<crypto::Commitment> commitment_;  // set for ARSS1
  obs::Counter* recovery_attempts_ = nullptr;
};

/// The client half of CP2 (with the commitment scheme) or CP3 (without).
class ArssClientProtocol : public bft::ClientProtocol {
 public:
  explicit ArssClientProtocol(std::optional<crypto::Commitment> commitment)
      : commitment_(std::move(commitment)) {}

  void start(uint64_t client_seq, BytesView op, bft::ClientContext& ctx) override;
  void on_reply(bft::NodeId replica, const bft::ReplyMsg& reply,
                bft::ClientContext& ctx) override;
  void on_retransmit(bft::ClientContext& ctx) override;

 private:
  void send_all(bft::ClientContext& ctx);

  std::optional<crypto::Commitment> commitment_;
  uint64_t seq_ = 0;
  RequestId id_;
  Bytes schedule_payload_;          // CP2: bytes(c); CP3: empty
  std::vector<Bytes> share_wires_;  // per replica
  bft::ReplyQuorum quorum_;
};

}  // namespace scab::causal
