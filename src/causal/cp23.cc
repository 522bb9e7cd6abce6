#include "causal/cp23.h"

#include "crypto/aead.h"
#include "secretshare/arss.h"

namespace scab::causal {

using bft::NodeId;
using host::Op;
using secretshare::Arss1Share;
using secretshare::ShamirShare;

namespace {

// Private-channel share envelope from -> to, bound to the ID.
Bytes seal_share(const bft::KeyRing& keys, NodeId from, NodeId to,
                 const RequestId& id, BytesView share_wire, crypto::Drbg& rng) {
  Writer w;
  id.write(w);
  w.bytes(crypto::aead_seal(keys.channel_key(from, to), id.encode(),
                            share_wire, rng));
  return std::move(w).take();
}

// CP2's schedule payload: bytes(c).
std::optional<Bytes> parse_commitment(BytesView payload) {
  Reader r(payload);
  Bytes c = r.bytes();
  if (!r.done()) return std::nullopt;
  return c;
}

}  // namespace

/// ARSS1 or ARSS2 behind one feed.
struct ArssScheme::Reconstructor {
  std::optional<secretshare::Arss1Reconstructor> arss1;
  std::optional<secretshare::Arss2Reconstructor> arss2;

  std::size_t attempts() const {
    return arss1 ? arss1->attempts() : arss2->attempts();
  }
  /// Feeds one share wire (unparseable ones are skipped); `len` receives
  /// its secret length.  `own` marks our own share, which ARSS2 takes as
  /// its anchor.
  std::optional<Bytes> add(BytesView wire, std::size_t& len, bool own) {
    if (arss1) {
      const auto share = Arss1Share::parse(wire);
      if (!share) return std::nullopt;
      len = share->inner.secret_len;
      return arss1->add(*share);
    }
    const auto share = ShamirShare::parse(wire);
    if (!share) return std::nullopt;
    len = share->secret_len;
    return own ? arss2->anchor(*share) : arss2->add(*share);
  }
};

ArssScheme::ArssScheme(std::optional<crypto::Commitment> commitment)
    : RevealScheme({.prefix = commitment ? "cp2" : "cp3",
                    .flush_histogram = "batch_size",
                    .recovered_counter = "reconstructions",
                    .client_deals = true}),
      commitment_(std::move(commitment)) {}

void ArssScheme::bind_metrics(obs::MetricsRegistry& reg) {
  recovery_attempts_ =
      &reg.counter(std::string(traits.prefix) + ".recovery_attempts");
}

bool ArssScheme::validate_request(NodeId /*client*/,
                                  const bft::ClientRequestMsg& msg,
                                  bft::ReplicaContext& /*ctx*/) {
  if (!commitment_) return msg.payload.empty();  // CP3 agrees on the ID alone
  const auto c = parse_commitment(msg.payload);
  return c && !c->empty();
}

std::unique_ptr<RecoveryState> ArssScheme::admit(const RequestId& id,
                                                 BytesView payload,
                                                 Bytes& /*own*/,
                                                 bft::ReplicaContext& /*ctx*/) {
  return resume(id, payload);
}

std::unique_ptr<RecoveryState> ArssScheme::resume(const RequestId& /*id*/,
                                                  BytesView payload) {
  if (commitment_ && !parse_commitment(payload)) return nullptr;
  return std::make_unique<State>();
}

std::size_t ArssScheme::start(RecoveryState& s, BytesView payload,
                              const Bytes& own, std::vector<Share>& backlog,
                              bft::ReplicaContext& ctx) {
  auto& st = static_cast<State&>(s);
  st.rec = std::make_shared<Reconstructor>();
  if (commitment_) {
    // Our own share is fed first, in the same flush as the adopted early
    // shares.
    st.rec->arss1.emplace(*commitment_, ctx.config().f,
                          parse_commitment(payload));
    if (!own.empty()) backlog.insert(backlog.begin(), Share{ctx.id(), own});
    return 0;
  }
  // ARSS2 trusts our own share and anchors every candidate subset on it,
  // so it enters through the constructor (and still counts in the flush).
  std::optional<ShamirShare> own_share;
  if (!own.empty()) own_share = ShamirShare::parse(own);
  st.rec->arss2.emplace(ctx.config().f, own_share);
  return own_share ? 1 : 0;
}

RecoverJob ArssScheme::recover(RecoveryState& s, BytesView /*payload*/,
                               std::vector<Share> batch,
                               bft::ReplicaContext& ctx) {
  // The reconstructor is handed to the job; `commitment_` is only read
  // (const) through it, which is safe off-thread.
  return [this, rec = std::move(static_cast<State&>(s).rec),
          batch = std::move(batch), self = ctx.id()]() -> Landing {
    // Per-share attempt deltas, so the landing charges the modeled costs.
    std::vector<std::pair<std::size_t, std::size_t>> fed;  // (attempts, len)
    std::optional<Bytes> secret;
    for (const Share& share : batch) {
      const std::size_t before = rec->attempts();
      std::size_t len = 0;
      secret = rec->add(share.wire, len, share.from == self);
      fed.emplace_back(rec->attempts() - before, len);
      if (secret) break;
    }
    return [this, rec, fed = std::move(fed), secret = std::move(secret)](
               RecoveryState& s, bft::ReplicaContext& ctx) {
      static_cast<State&>(s).rec = rec;
      for (const auto& [attempts, len] : fed) {
        recovery_attempts_->inc(attempts);
        for (std::size_t i = 0; i < attempts; ++i) {
          ctx.charge(Op::kShamirRec, len);
          if (commitment_) ctx.charge(Op::kCommitOpen, len);
        }
      }
      Recovered out;
      if (secret) out.plaintexts = std::vector<Bytes>{*secret};
      return out;
    };
  };
}

Bytes ArssScheme::seal(NodeId to, const RequestId& id, BytesView wire,
                       bft::ReplicaContext& ctx) {
  ctx.charge(Op::kAeadSeal, wire.size());
  return seal_share(ctx.keys(), ctx.id(), to, id, wire, ctx.rng());
}

std::optional<std::pair<RequestId, Bytes>> ArssScheme::open(
    NodeId from, BytesView body, bft::ReplicaContext& ctx) {
  ctx.charge(Op::kAeadOpen, body.size());
  Reader r(body);
  const RequestId id = RequestId::read(r);
  const Bytes box = r.bytes();
  if (!r.done()) return std::nullopt;
  auto wire =
      crypto::aead_open(ctx.keys().channel_key(from, ctx.id()), id.encode(), box);
  if (!wire || !parses(*wire)) return std::nullopt;
  return std::make_pair(id, std::move(*wire));
}

bool ArssScheme::parses(BytesView wire) const {
  return commitment_ ? Arss1Share::parse(wire).has_value()
                     : ShamirShare::parse(wire).has_value();
}

Bytes ArssScheme::corrupt(Bytes wire) const {
  // Garbles the share values (value-dependent, the paper's "randomly
  // corrupt" model) while keeping the wire parseable.
  for (std::size_t i = wire.size() / 2; i < wire.size(); i += 3) wire[i] ^= 0x5c;
  return wire;
}

// ---------------------------------------------------------------------------
// Client

void ArssClientProtocol::start(uint64_t client_seq, BytesView op,
                               bft::ClientContext& ctx) {
  seq_ = client_seq;
  id_ = RequestId{ctx.id(), client_seq};
  const auto& cfg = ctx.config();
  share_wires_.clear();
  share_wires_.reserve(cfg.n);
  if (commitment_) {
    ctx.charge(Op::kCommit, op.size());
    ctx.charge(Op::kShamirShare, op.size());  // calibrated for the n-vector
    auto shares =
        secretshare::arss1_share(op, cfg.f + 1, cfg.n, *commitment_, ctx.rng());
    Writer w;
    w.bytes(shares[0].commitment);
    schedule_payload_ = std::move(w).take();
    for (const auto& s : shares) share_wires_.push_back(s.serialize());
  } else {
    ctx.charge(Op::kShamirShare, op.size());  // calibrated for the n-vector
    for (const auto& s : secretshare::arss2_share(op, cfg.f, cfg.n, ctx.rng())) {
      share_wires_.push_back(s.serialize());
    }
  }
  quorum_.arm(client_seq, cfg.f + 1);
  send_all(ctx);
}

void ArssClientProtocol::send_all(bft::ClientContext& ctx) {
  for (NodeId r = 0; r < ctx.config().n; ++r) {
    ctx.charge(Op::kAeadSeal, share_wires_[r].size());
    ctx.send_causal(r, seal_share(ctx.keys(), ctx.id(), r, id_,
                                  share_wires_[r], ctx.rng()));
  }
  ctx.send_request(seq_, schedule_payload_);
}

void ArssClientProtocol::on_reply(NodeId replica, const bft::ReplyMsg& reply,
                                  bft::ClientContext& ctx) {
  if (quorum_.add(replica, reply)) ctx.complete(reply.result);
}

void ArssClientProtocol::on_retransmit(bft::ClientContext& ctx) {
  send_all(ctx);
}

}  // namespace scab::causal
