// TDH2: a CCA-secure *labeled* threshold cryptosystem (Shoup–Gennaro,
// EUROCRYPT '98 — the paper's reference [64]).
//
// This instantiates the abstract ThreshEnc = (TGen, TEnc, ShareDec, Vrf,
// Comb) interface of paper §IV-A that CP0 is built on.  The paper's own
// implementation extended the Baek–Zheng GDH scheme with labels; we use
// TDH2 instead because it needs no pairings, is the canonical labeled
// scheme from the very reference the paper cites for the primitive, and has
// the same cost profile (a handful of modular exponentiations per
// operation) — see DESIGN.md §3 for the substitution note.
//
// The scheme works over a Schnorr group (p = 2q+1, generators g, ḡ):
//
//   TEnc(m, L):   r, s ← Z_q
//                 c  = H1(h^r) ⊕ m
//                 u  = g^r   w  = g^s   ū = ḡ^r   w̄ = ḡ^s
//                 e  = H2(c, L, u, w, ū, w̄)        f = s + r·e
//                 ciphertext = (c, L, u, ū, w, w̄, f)
//
//   The proof is a Fiat–Shamir argument that log_g(u) = log_ḡ(ū); its
//   *public* verifiability is what yields CCA security and lets any replica
//   reject malformed ciphertexts before agreement ("verify ciphertext" in
//   the paper's Fig. 3).  The wire carries the COMMITMENTS (w, w̄) rather
//   than the challenge e (which verifiers recompute by hashing): with the
//   challenge format, verification must reconstruct w = g^f·u^{-e}
//   individually per proof before it can re-hash, which makes proofs
//   inherently unbatchable.  With commitments on the wire, the check is the
//   pair of group equations g^f = w·u^e and ḡ^f = w̄·ū^e — a shape that k
//   proofs can share via one random linear combination (see
//   tdh2_batch_verify_shares below and DESIGN.md §4.3).  Challenges are
//   truncated to kTdh2ChallengeBytes (128 bits), the standard short-
//   challenge optimization: soundness error 2^-128, and the batch exponents
//   e_i·z_i stay ≤ 256 bits, which is where the batch speedup comes from.
//
//   ShareDec_i:   u_i = u^{x_i} plus a discrete-log-equality proof
//                 (û = u^{s_i}, ĥ = g^{s_i}, f_i) that
//                 log_u(u_i) = log_g(h_i), commitment format as above.
//
//   Comb:         h^r = ∏ u_j^{λ_j}  (Lagrange in the exponent on t valid
//                 shares), m = c ⊕ H1(h^r).
//
// TEnc encrypts exactly kTdh2MessageSize bytes; arbitrary-length requests
// use the hybrid wrapper in hybrid.h (threshold-KEM + AEAD), mirroring the
// paper's "hybrid encryption to encrypt long messages".
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "common/bytes.h"
#include "crypto/bignum.h"
#include "crypto/drbg.h"
#include "crypto/modgroup.h"

namespace scab::threshenc {

inline constexpr std::size_t kTdh2MessageSize = 32;

/// Fiat–Shamir challenges are the first 16 bytes of a SHA-256 over the
/// proof transcript: 128-bit soundness, and short enough that randomized
/// batch verification's merged exponents stay ≤ 256 bits.
inline constexpr std::size_t kTdh2ChallengeBytes = 16;

/// Bounded cache of Lagrange-at-zero coefficient vectors, keyed on the
/// sorted share-index set.  CP0 replicas combine the same t-of-n subsets
/// over and over (own share + the first t-1 peers to arrive), so the hit
/// rate is high in steady state.  Held by shared_ptr so value copies of
/// Tdh2PublicKey share one cache; single-threaded like the rest of the
/// stack.
struct Tdh2LagrangeCache {
  struct Entry {
    std::vector<uint32_t> indices;        // sorted: the key
    std::vector<crypto::Bignum> lambdas;  // aligned with `indices`
  };
  static constexpr std::size_t kMaxEntries = 64;
  std::vector<Entry> entries;  // FIFO-bounded
  uint64_t hits = 0;
  uint64_t misses = 0;
};

/// Public key: the group, h = g^x, and per-server verification keys
/// h_i = g^{x_i} (the "vk" of the abstract syntax).
struct Tdh2PublicKey {
  crypto::ModGroup group;
  crypto::Bignum h;
  std::vector<crypto::Bignum> verification_keys;  // [0] is server 1
  uint32_t threshold = 0;                         // t: shares needed
  uint32_t servers = 0;                           // n

  /// Fixed-base window tables for every verification key, built once at
  /// keygen and shared by all verifications (single-share, and the
  /// bisection leaves of the batch path).  A 4-bit window rather than a
  /// comb: vk exponents are 128-bit challenges, too short to repay a comb's
  /// build.  Aligned with verification_keys;
  /// null for hand-assembled keys, in which case verification falls back
  /// to per-call tables.
  std::shared_ptr<const std::vector<crypto::Montgomery::Table>> vk_tables;

  /// See Tdh2LagrangeCache; null for hand-assembled keys (combine then
  /// recomputes coefficients every time).
  std::shared_ptr<Tdh2LagrangeCache> lagrange_cache;

  /// Verification key of server `index` (1-based).
  const crypto::Bignum& vk(uint32_t index) const {
    return verification_keys.at(index - 1);
  }
};

/// One server's private key share x_i = F(i).
struct Tdh2KeyShare {
  uint32_t index = 0;  // 1-based
  crypto::Bignum x;
};

struct Tdh2KeyMaterial {
  Tdh2PublicKey pk;
  std::vector<Tdh2KeyShare> shares;
};

struct Tdh2Ciphertext {
  Bytes c;  // kTdh2MessageSize bytes, pad-XOR of the message
  crypto::Bignum u, ubar;
  crypto::Bignum w, wbar;  // proof commitments g^s, ḡ^s
  crypto::Bignum f;        // proof response s + r·e mod q

  Bytes serialize(const crypto::ModGroup& group) const;
  static std::optional<Tdh2Ciphertext> parse(const crypto::ModGroup& group,
                                             BytesView wire);
};

struct Tdh2DecryptionShare {
  uint32_t index = 0;  // 1-based server index
  crypto::Bignum u_i;
  crypto::Bignum u_hat, h_hat;  // proof commitments u^{s_i}, g^{s_i}
  crypto::Bignum f_i;           // proof response s_i + x_i·e_i mod q

  Bytes serialize(const crypto::ModGroup& group) const;
  static std::optional<Tdh2DecryptionShare> parse(const crypto::ModGroup& group,
                                                  BytesView wire);
};

/// TGen: dealer-based key generation (the paper's CP0 likewise assumes a
/// trusted dealer or an expensive interactive setup, §V-A).
Tdh2KeyMaterial tdh2_keygen(const crypto::ModGroup& group, uint32_t threshold,
                            uint32_t servers, crypto::Drbg& rng);

/// TEnc. `message` must be exactly kTdh2MessageSize bytes.
Tdh2Ciphertext tdh2_encrypt(const Tdh2PublicKey& pk, BytesView message,
                            BytesView label, crypto::Drbg& rng);

/// Public ciphertext validity check (no key material needed).
bool tdh2_verify_ciphertext(const Tdh2PublicKey& pk, const Tdh2Ciphertext& ct,
                            BytesView label);

/// ShareDec. Returns nullopt if the ciphertext is invalid.
std::optional<Tdh2DecryptionShare> tdh2_share_decrypt(
    const Tdh2PublicKey& pk, const Tdh2KeyShare& key, const Tdh2Ciphertext& ct,
    BytesView label, crypto::Drbg& rng);

/// ShareDec for a ciphertext the caller ALREADY verified with
/// tdh2_verify_ciphertext.  CP0 verifies every ciphertext once at request
/// admission, so its reveal step uses this entry point instead of paying the
/// Fiat–Shamir proof check a second (and, at combine, third) time.  Calling
/// it on an unverified ciphertext produces a well-formed share for garbage —
/// never call it with untrusted input.
Tdh2DecryptionShare tdh2_share_decrypt_preverified(const Tdh2PublicKey& pk,
                                                   const Tdh2KeyShare& key,
                                                   const Tdh2Ciphertext& ct,
                                                   crypto::Drbg& rng);

/// Vrf: checks one decryption share against the ciphertext.
bool tdh2_verify_share(const Tdh2PublicKey& pk, const Tdh2Ciphertext& ct,
                       BytesView label, const Tdh2DecryptionShare& share);

/// Per-item verdicts of a batch verification, plus how much of the
/// bisection fallback tree had to run (0 = the whole batch passed its one
/// merged equation).
struct Tdh2BatchVerdict {
  std::vector<uint8_t> valid;  // 1 = share/ciphertext i verified
  uint32_t bisection_splits = 0;

  bool all_valid() const {
    for (uint8_t v : valid) {
      if (!v) return false;
    }
    return true;
  }
};

/// Batch Vrf: verifies k decryption shares for ONE ciphertext with a single
/// random-linear-combination equation (Bellare–Garay–Rabin small-exponent
/// test): fresh 128-bit coefficients z_i, z'_i from the VERIFIER's DRBG
/// merge all 2k proof equations into one multi-exponentiation, with
/// soundness error ≤ 2^-128 per draw.  On failure the batch is bisected
/// recursively (fresh coefficients per sub-batch), so every Byzantine share
/// is individually identified; leaves delegate to tdh2_verify_share, and a
/// batch of one IS tdh2_verify_share — the verdict vector always matches
/// what per-share verification would return.  Structurally invalid shares
/// (bad index, out-of-range field, non-subgroup element) are rejected
/// upfront without joining the algebra; the subgroup membership checks are
/// required for batch soundness, not just hygiene (an order-2 component
/// survives a random linear combination with probability 1/2).
Tdh2BatchVerdict tdh2_batch_verify_shares(
    const Tdh2PublicKey& pk, const Tdh2Ciphertext& ct, BytesView label,
    std::span<const Tdh2DecryptionShare> shares, crypto::Drbg& rng);

/// Batch ciphertext validity: same construction over k independent
/// ciphertext proofs (labels[j] pairs with cts[j]).
Tdh2BatchVerdict tdh2_batch_verify_ciphertexts(
    const Tdh2PublicKey& pk, std::span<const Tdh2Ciphertext> cts,
    std::span<const Bytes> labels, crypto::Drbg& rng);

/// Comb: combines >= t shares with DISTINCT indices into the plaintext.
/// Shares must already have been verified with tdh2_verify_share (matching
/// the abstract syntax, where Comb consumes valid shares); returns nullopt
/// if fewer than t distinct-index shares are supplied or the ciphertext is
/// invalid.
std::optional<Bytes> tdh2_combine(const Tdh2PublicKey& pk,
                                  const Tdh2Ciphertext& ct, BytesView label,
                                  std::span<const Tdh2DecryptionShare> shares);

/// Comb for a ciphertext the caller ALREADY verified (see
/// tdh2_share_decrypt_preverified); still returns nullopt when fewer than
/// `threshold` distinct-index shares are supplied.
std::optional<Bytes> tdh2_combine_preverified(
    const Tdh2PublicKey& pk, const Tdh2Ciphertext& ct,
    std::span<const Tdh2DecryptionShare> shares);

}  // namespace scab::threshenc
