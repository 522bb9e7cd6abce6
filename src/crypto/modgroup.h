// Schnorr groups: the prime-order subgroup of quadratic residues modulo a
// safe prime p = 2q + 1.
//
// This is the algebraic setting of the TDH2 labeled threshold cryptosystem
// (see src/threshenc).  The benchmark configuration uses the well-known
// 1024-bit MODP group (RFC 2409 Oakley Group 2) — deliberately matching the
// paper's "very conservative (insecure) security parameter (less than 80
// bits of security)" for CP0's evaluation — while tests use small
// freshly-generated safe-prime groups so the whole pipeline stays fast.
//
// All arithmetic runs in Montgomery form (crypto/montgomery.h).  The group
// builds a Lim–Lee comb (Montgomery::Comb, 8 teeth over q's bit length) for
// its generators g and ḡ, plus any bases registered with cache_fixed_base
// (TDH2 caches the public value h), so a full-width exponentiation of those
// bases costs ~255 multiplies instead of ~1,280.  The Montgomery context and
// combs are shared_ptr-held and immutable once built: copying a ModGroup (it
// travels by value inside Tdh2PublicKey) shares the precomputation instead
// of redoing it, and copies may exponentiate concurrently.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "crypto/bignum.h"
#include "crypto/drbg.h"
#include "crypto/montgomery.h"

namespace scab::crypto {

class ModGroup {
 public:
  /// RFC 2409 Oakley Group 2 (1024-bit safe prime, generator 2).
  static ModGroup modp_1024();

  /// A fixed 512-bit safe-prime group (generated once with this library's
  /// own random_safe_prime and revalidated by the test suite).  Used by the
  /// group-size ablation bench: roughly the paper's "less than 80 bits of
  /// security" setting.
  static ModGroup modp_512();

  /// Generates a fresh safe-prime group of exactly `bits` bits.  Intended
  /// for tests (small bits) and the group-size ablation bench.
  static ModGroup generate(std::size_t bits, Drbg& rng);

  ModGroup(Bignum p, Bignum q, Bignum g);

  /// Empty (invalid) group; exists only so aggregates holding a ModGroup can
  /// be default-constructed before assignment.  Using an empty group throws.
  ModGroup() = default;

  const Bignum& p() const { return p_; }
  /// Subgroup order q = (p - 1) / 2.
  const Bignum& q() const { return q_; }
  /// Generator of the order-q subgroup.
  const Bignum& g() const { return g_; }
  /// Independent second generator ḡ (derived by hashing into the subgroup).
  const Bignum& gbar() const { return gbar_; }

  /// Number of bytes of a serialized group element (fixed width).
  std::size_t element_bytes() const { return (p_.bit_length() + 7) / 8; }
  /// Number of bytes of a serialized exponent (fixed width).
  std::size_t exponent_bytes() const { return (q_.bit_length() + 7) / 8; }

  Bignum exp(const Bignum& base, const Bignum& e) const;
  Bignum mul(const Bignum& a, const Bignum& b) const;
  Bignum inv(const Bignum& a) const;

  /// a^x · b^y in one shared squaring chain (Shamir's trick) — roughly the
  /// cost of 1.25 exponentiations instead of 2 plus a multiply.
  Bignum multi_exp(const Bignum& a, const Bignum& x, const Bignum& b,
                   const Bignum& y) const;

  /// Π bases[i]^{exps[i]} for many terms (Straus/Pippenger, see
  /// Montgomery::multi_exp).  The one-equation form of randomized batch
  /// verification: k proofs collapse into a single multi-exponentiation.
  Bignum multi_exp(std::span<const Bignum> bases,
                   std::span<const Bignum> exps) const;

  /// a^x · b^{-y} for a base b of the ORDER-q SUBGROUP (b^{-y} = b^{q-y}),
  /// the shape of every Fiat–Shamir verification equation in TDH2.  Replaces
  /// two exponentiations plus a Fermat inversion (itself a third
  /// exponentiation) with one multi_exp.
  Bignum exp_ratio(const Bignum& a, const Bignum& x, const Bignum& b,
                   const Bignum& y) const;

  /// Builds a comb for `base` so later exp() calls with it take the comb
  /// path (~1 ms and 32 kB per base at 1024 bits); TDH2 keygen registers
  /// the public value h.  The cache is FIFO-bounded at 8 bases; copies of
  /// this group share it.  Not safe to call while another thread
  /// exponentiates with a copy of this group.
  void cache_fixed_base(const Bignum& base);

  /// True iff exp(base, ·) takes a comb: g, ḡ, or a cached base.
  bool is_fixed_base(const Bignum& base) const {
    return find_comb(base) != nullptr;
  }

  /// True iff x is a valid element of the order-q subgroup (1 <= x < p and
  /// x^q = 1 mod p).  Used to validate all untrusted wire inputs.  By
  /// Euler's criterion x^q mod p equals the Jacobi symbol (x/p), computed
  /// by crypto::jacobi's division-free loop in ~10 us at 1024 bits, about
  /// 100x cheaper than a ~1 ms exponentiation — which is what makes
  /// per-item membership prechecks affordable in batch verification.
  bool is_element(const Bignum& x) const;

  /// Deterministically maps arbitrary bytes into the subgroup (hash then
  /// square), for deriving ḡ and other verifiably-random elements.
  Bignum hash_to_element(BytesView seed) const;

  /// Deterministically maps arbitrary bytes to an exponent in [0, q)
  /// (random-oracle H2/H4 of TDH2, Fiat–Shamir challenges).
  Bignum hash_to_exponent(BytesView data) const;

  /// Uniform exponent in [0, q).
  Bignum random_exponent(Drbg& rng) const;

  /// a^(-1) mod q (Fermat over the exponent field; q is prime).  Used by
  /// Lagrange coefficients in threshold combination.
  Bignum inv_mod_q(const Bignum& a) const;

  /// The underlying Montgomery context (throws on an empty group).
  const Montgomery& mont() const;

  bool operator==(const ModGroup& rhs) const {
    return p_ == rhs.p_ && q_ == rhs.q_ && g_ == rhs.g_;
  }

 private:
  struct FixedBase {
    Bignum base;
    std::shared_ptr<const Montgomery::Comb> comb;
  };

  const Montgomery& require_mont() const;
  /// Comb for `base` if one is cached (g, ḡ, or registered), else nullptr.
  const Montgomery::Comb* find_comb(const Bignum& base) const;
  std::shared_ptr<const Montgomery::Comb> build_comb(const Bignum& base) const;

  Bignum p_, q_, g_, gbar_;
  std::shared_ptr<const Montgomery> mont_;
  std::shared_ptr<const Montgomery> mont_q_;  // exponent field (null if q even)
  std::shared_ptr<const Montgomery::Comb> g_comb_, gbar_comb_;
  // Extra fixed bases (FIFO, kMaxCachedBases) registered after construction;
  // shared_ptr so value copies of the group see the same combs.
  std::shared_ptr<std::vector<FixedBase>> extra_combs_;
};

}  // namespace scab::crypto
