// Arbitrary-precision unsigned integers and modular arithmetic, from scratch.
//
// This is the numeric substrate for the TDH2 labeled threshold cryptosystem
// (CP0).  Scope is deliberately exactly what threshold crypto needs:
// non-negative integers, schoolbook multiplication, Knuth Algorithm-D
// division, 4-bit-window modular exponentiation, Fermat inversion modulo a
// prime, Miller–Rabin, and uniform sampling.  No signed values, no
// allocation tricks — limbs live in a std::vector<uint64_t>, little-endian,
// always normalized (no leading zero limbs; zero is the empty vector).
#pragma once

#include <compare>
#include <cstdint>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "crypto/drbg.h"

namespace scab::crypto {

struct DivMod;

class Bignum {
 public:
  Bignum() = default;
  Bignum(uint64_t v);  // NOLINT: implicit on purpose — literals read naturally

  static Bignum from_bytes_be(BytesView big_endian);
  static Bignum from_hex(std::string_view hex);

  /// Minimal-width big-endian encoding ("0" encodes to one zero byte... no:
  /// zero encodes to an empty buffer; use the width overload for fixed-size
  /// wire fields).
  Bytes to_bytes_be() const;
  /// Fixed-width big-endian encoding, left-padded with zeros.  Throws if the
  /// value does not fit.
  Bytes to_bytes_be(std::size_t width) const;
  std::string to_hex() const;

  bool is_zero() const { return limbs_.empty(); }
  bool is_odd() const { return !limbs_.empty() && (limbs_[0] & 1); }
  /// Number of significant bits; 0 for zero.
  std::size_t bit_length() const;
  /// Value of bit `i` (0 = least significant).
  bool bit(std::size_t i) const;
  /// Low 64 bits.
  uint64_t low_u64() const { return limbs_.empty() ? 0 : limbs_[0]; }

  std::strong_ordering operator<=>(const Bignum& rhs) const;
  bool operator==(const Bignum& rhs) const = default;

  Bignum operator+(const Bignum& rhs) const;
  /// Requires *this >= rhs; throws std::underflow_error otherwise.
  Bignum operator-(const Bignum& rhs) const;
  Bignum operator*(const Bignum& rhs) const;
  Bignum operator/(const Bignum& rhs) const;
  Bignum operator%(const Bignum& rhs) const;
  Bignum operator<<(std::size_t bits) const;
  Bignum operator>>(std::size_t bits) const;

  const std::vector<uint64_t>& limbs() const { return limbs_; }

  friend struct DivMod;
  friend DivMod divmod(const Bignum& dividend, const Bignum& divisor);

 private:
  void normalize();

  std::vector<uint64_t> limbs_;
};

/// Quotient and remainder in one pass; divisor must be nonzero.
struct DivMod {
  Bignum quotient;
  Bignum remainder;
};
DivMod divmod(const Bignum& dividend, const Bignum& divisor);

/// Times Algorithm D's rare add-back correction has fired since process
/// start.  Test instrumentation: crafted divisor patterns must be able to
/// prove they actually exercise the branch.
uint64_t divmod_addback_count();

/// (a + b) mod m; inputs must already be reduced mod m.
Bignum mod_add(const Bignum& a, const Bignum& b, const Bignum& m);
/// (a - b) mod m; inputs must already be reduced mod m.
Bignum mod_sub(const Bignum& a, const Bignum& b, const Bignum& m);
Bignum mod_mul(const Bignum& a, const Bignum& b, const Bignum& m);
/// base^exp mod m via 4-bit fixed windows; m must be > 1.
Bignum mod_exp(const Bignum& base, const Bignum& exp, const Bignum& m);
/// a^(-1) mod p for PRIME p (Fermat). a must be nonzero mod p.
Bignum mod_inv_prime(const Bignum& a, const Bignum& p);

/// Jacobi symbol (a/n) in {-1, 0, 1}; n must be odd and > 0.  Division-
/// free after the initial reduction of a: Bernstein–Yang posdivsteps run 62
/// at a time on single words, each batch then applied to the full numbers
/// as one 2x2 matrix (~10 us at 1024 bits, vs ~1 ms for an exponentiation).
/// Variable-time, which is fine for its use on public wire elements.  For
/// prime n this is the Legendre symbol, i.e. Euler's criterion
/// a^{(n-1)/2} mod n, which is what lets ModGroup test quadratic residuosity
/// without a modexp.
int jacobi(const Bignum& a, const Bignum& n);

/// The same symbol by the classic binary algorithm (strip twos, swap by
/// reciprocity, subtract), which provably terminates; jacobi falls back to
/// it if the posdivsteps do not converge within their step budget.
int jacobi_binary(const Bignum& a, const Bignum& n);

/// Uniform value in [0, bound) via rejection sampling; bound must be > 0.
Bignum random_below(const Bignum& bound, Drbg& rng);
/// Uniform value in [1, bound); bound must be > 1.
Bignum random_nonzero_below(const Bignum& bound, Drbg& rng);

/// Miller–Rabin with `rounds` random bases (error probability <= 4^-rounds).
bool is_probably_prime(const Bignum& n, Drbg& rng, int rounds = 32);

/// Generates a random prime with exactly `bits` bits.
Bignum random_prime(std::size_t bits, Drbg& rng);
/// Generates a safe prime p = 2q + 1 (both prime) with exactly `bits` bits.
/// Intended for small test groups; benches use the fixed MODP groups.
Bignum random_safe_prime(std::size_t bits, Drbg& rng);

}  // namespace scab::crypto
