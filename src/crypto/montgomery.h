// Montgomery-form modular arithmetic for a fixed odd modulus.
//
// This is the fast substrate under ModGroup: every Bignum mod_mul costs a
// schoolbook multiply plus a full Knuth division, while a Montgomery CIOS
// multiply is one fused k×k limb pass with no division at all.  A context
// precomputes n' = -n^{-1} mod 2^64 and R^2 mod n once per modulus (R =
// 2^{64k}); after converting operands into Montgomery form, multiplication,
// windowed exponentiation, fixed-base comb exponentiation and simultaneous
// double exponentiation (Shamir's trick) all stay inside the form, paying
// only the cheap CIOS reduction per step.
//
// Values in Montgomery form are fixed-width little-endian limb vectors of
// exactly width() limbs (x·R mod n).  The context is immutable after
// construction and safe to share between threads.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "crypto/bignum.h"

namespace scab::crypto {

class Montgomery {
 public:
  /// A value in Montgomery form: exactly width() limbs, little-endian,
  /// already reduced below the modulus.
  using Limbs = std::vector<uint64_t>;

  /// Window table: pow[i] = base^i (Montgomery form), i in 0..15.
  struct Table {
    std::array<Limbs, 16> pow;
  };

  /// Teeth of a Comb: 2^kCombTeeth table entries per base.
  static constexpr unsigned kCombTeeth = 8;

  /// Lim–Lee comb for a fixed base.  The exponent's `bits()` bits are laid
  /// out as kCombTeeth rows of `spacing` bits; column c gathers bit
  /// j·spacing + c of every row j into an 8-bit index, and
  ///   entry[i] = Π_{j : bit j of i} base^{2^{j·spacing}}   (Montgomery form)
  /// so base^e costs one squaring and at most one multiply per column:
  /// ~255 multiplies for a 1023-bit exponent instead of ~1,280 with a 4-bit
  /// window.  Entries are stored flat, entry i at limbs [i·k, (i+1)·k); at
  /// 1024 bits that is 32 kB per base.
  struct Comb {
    std::size_t spacing = 0;
    std::vector<uint64_t> entries;

    /// Widest exponent the comb covers.
    std::size_t bits() const { return kCombTeeth * spacing; }
  };

  /// Modulus must be odd and > 1 (any Schnorr-group prime qualifies).
  explicit Montgomery(const Bignum& modulus);

  const Bignum& modulus() const { return n_; }
  /// Limb width k of every Montgomery-form value (R = 2^{64k}).
  std::size_t width() const { return k_; }

  /// x·R mod n.  x need not be reduced.
  Limbs to_mont(const Bignum& x) const;
  /// a·R^{-1} mod n, back to a plain Bignum.
  Bignum from_mont(const Limbs& a) const;
  /// The multiplicative identity 1·R mod n.
  const Limbs& one() const { return r1_; }

  /// a·b·R^{-1} mod n (CIOS).
  Limbs mul(const Limbs& a, const Limbs& b) const;
  /// base^e mod n (4-bit window); returns one() for e = 0.
  Limbs exp(const Limbs& base, const Bignum& e) const;

  /// Precomputes base^0..base^15 so repeated exponentiations of the same
  /// base skip the per-call table build.
  Table make_table(const Limbs& base) const;
  Limbs exp(const Table& base, const Bignum& e) const;

  /// Builds the comb for exponents of up to `bits` bits: (kCombTeeth - 1)·
  /// spacing squarings for the tooth bases, then one multiply per remaining
  /// entry (~1,150 multiplies at 1024 bits, once per base).
  Comb make_comb(const Limbs& base, std::size_t bits) const;
  /// base^e from the comb; exponents wider than comb.bits() fall back to the
  /// 4-bit window over the base (entry 1).
  Limbs exp(const Comb& comb, const Bignum& e) const;

  /// a^x · b^y mod n via a shared 2-bit joint window (Shamir's trick):
  /// one squaring chain for both exponents instead of two.
  Limbs multi_exp(const Limbs& a, const Bignum& x, const Limbs& b,
                  const Bignum& y) const;

  /// Π bases[i]^{exps[i]} mod n for many terms — the batch-verification
  /// workhorse.  One shared squaring chain for every term; the terms are
  /// either multiplied in from per-base tables of odd powers at the end of
  /// each 4-bit sliding window (Straus, small batches) or accumulated per
  /// c-bit window into 2^c shared buckets and folded with the
  /// suffix-product trick (Pippenger, large batches).  The crossover is
  /// chosen from an explicit multiply-count model of both plans, so short
  /// exponents (the 128/256-bit scalars of randomized batch verification)
  /// automatically get narrow windows.  Returns one() for an empty input.
  Limbs multi_exp(std::span<const Limbs> bases,
                  std::span<const Bignum> exps) const;

 private:
  // out = a·b·R^{-1} mod n; a, b, out are k_-limb buffers (out may not
  // alias a or b).
  void mont_mul(const uint64_t* a, const uint64_t* b, uint64_t* out) const;
  // a = a^2·R^{-1} mod n, through the caller's k_-limb scratch buffer.
  void mont_sqr_inplace(Limbs& a, Limbs& scratch) const;

  Bignum n_;
  std::vector<uint64_t> n_limbs_;  // modulus, padded to k_ limbs
  std::size_t k_ = 0;
  uint64_t n0_ = 0;  // -n^{-1} mod 2^64
  Limbs r1_;         // R mod n   (Montgomery form of 1)
  Limbs r2_;         // R^2 mod n (to_mont multiplier)
};

}  // namespace scab::crypto
