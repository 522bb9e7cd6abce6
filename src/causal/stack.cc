#include "causal/stack.h"

#include "common/serialize.h"

#include "causal/cp0.h"
#include "causal/cp1.h"
#include "causal/cp23.h"
#include "causal/plain.h"
#include "threshenc/tdh2.h"

namespace scab::causal {

Bytes seed_label(uint64_t seed, std::string_view label) {
  Writer w;
  w.u64(seed);
  w.str(std::string(label));
  return std::move(w).take();
}

StackMaterial::StackMaterial() = default;
StackMaterial::~StackMaterial() = default;
StackMaterial::StackMaterial(StackMaterial&&) noexcept = default;
StackMaterial& StackMaterial::operator=(StackMaterial&&) noexcept = default;

std::optional<Protocol> protocol_from_name(std::string_view name) {
  if (name == "pbft") return Protocol::kPbft;
  if (name == "cp0") return Protocol::kCp0;
  if (name == "cp1") return Protocol::kCp1;
  if (name == "cp2") return Protocol::kCp2;
  if (name == "cp3") return Protocol::kCp3;
  return std::nullopt;
}

StackMaterial derive_material(Protocol protocol, const bft::BftConfig& cfg,
                              crypto::Drbg& master_rng,
                              std::optional<crypto::ModGroup> group,
                              std::size_t group_bits) {
  StackMaterial out;
  out.group = std::move(group);
  switch (protocol) {
    case Protocol::kCp0: {
      if (!out.group) {
        crypto::Drbg grng = master_rng.fork(to_bytes("group"));
        out.group = crypto::ModGroup::generate(group_bits, grng);
      }
      crypto::Drbg krng = master_rng.fork(to_bytes("tdh2"));
      out.tdh2 = std::make_unique<threshenc::Tdh2KeyMaterial>(
          threshenc::tdh2_keygen(*out.group, cfg.f + 1, cfg.n, krng));
      break;
    }
    case Protocol::kCp1: {
      crypto::Drbg crng = master_rng.fork(to_bytes("nmcad"));
      out.nmcad_key = crypto::NmCadCommitment::cgen(crng);
      break;
    }
    case Protocol::kCp2: {
      crypto::Drbg crng = master_rng.fork(to_bytes("commit"));
      out.commitment_key = crypto::Commitment::cgen(crng);
      break;
    }
    default:
      break;
  }
  if (!out.tdh2) out.tdh2 = std::make_unique<threshenc::Tdh2KeyMaterial>();
  return out;
}

std::unique_ptr<Cp0Backend> make_cp0_backend(
    const StackContext& ctx, std::optional<uint32_t> replica_index) {
  if (ctx.cp0_modeled) {
    return std::make_unique<ModeledThresholdBackend>(ctx.bft.f + 1, ctx.bft.n);
  }
  const threshenc::Tdh2KeyMaterial& tdh2 = *ctx.material->tdh2;
  std::optional<threshenc::Tdh2KeyShare> key;
  if (replica_index) key = tdh2.shares.at(*replica_index);
  threshenc::Tdh2PublicKey pk = tdh2.pk;
  if (ctx.per_node_lagrange_cache && pk.lagrange_cache) {
    // The Lagrange-coefficient cache is mutable and documented
    // single-threaded; when nodes run on separate threads each backend
    // gets its own instance instead of sharing one.
    pk.lagrange_cache = std::make_shared<threshenc::Tdh2LagrangeCache>();
  }
  return std::make_unique<RealTdh2Backend>(std::move(pk), std::move(key));
}

std::unique_ptr<bft::ReplicaApp> make_replica_app(
    const StackContext& ctx, std::unique_ptr<Service> service,
    uint32_t replica_index) {
  switch (ctx.protocol) {
    case Protocol::kPbft:
      return std::make_unique<PlainReplicaApp>(std::move(service));
    case Protocol::kCp0:
      return std::make_unique<RevealEngine>(
          std::move(service),
          std::make_unique<Cp0Scheme>(make_cp0_backend(ctx, replica_index)));
    case Protocol::kCp1:
      return std::make_unique<Cp1ReplicaApp>(
          std::move(service),
          crypto::NmCadCommitment(ctx.material->nmcad_key), ctx.cp1);
    case Protocol::kCp2:
      return std::make_unique<RevealEngine>(
          std::move(service),
          std::make_unique<ArssScheme>(
              crypto::Commitment(ctx.material->commitment_key)));
    case Protocol::kCp3:
      return std::make_unique<RevealEngine>(
          std::move(service), std::make_unique<ArssScheme>(std::nullopt));
  }
  return nullptr;
}

std::unique_ptr<bft::ClientProtocol> make_client_protocol(
    const StackContext& ctx, bool batching) {
  switch (ctx.protocol) {
    case Protocol::kPbft:
      return std::make_unique<PlainClientProtocol>();
    case Protocol::kCp0: {
      auto p = std::make_unique<Cp0ClientProtocol>(
          make_cp0_backend(ctx, std::nullopt));
      if (batching) p->set_batching(true);
      return p;
    }
    case Protocol::kCp1:
      return std::make_unique<Cp1ClientProtocol>(
          crypto::NmCadCommitment(ctx.material->nmcad_key));
    case Protocol::kCp2:
      return std::make_unique<ArssClientProtocol>(
          crypto::Commitment(ctx.material->commitment_key));
    case Protocol::kCp3:
      return std::make_unique<ArssClientProtocol>(std::nullopt);
  }
  return nullptr;
}

}  // namespace scab::causal
