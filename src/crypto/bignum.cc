#include "crypto/bignum.h"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace scab::crypto {

namespace {
using u128 = unsigned __int128;
constexpr uint64_t kLimbMax = ~uint64_t{0};
}  // namespace

Bignum::Bignum(uint64_t v) {
  if (v != 0) limbs_.push_back(v);
}

void Bignum::normalize() {
  while (!limbs_.empty() && limbs_.back() == 0) limbs_.pop_back();
}

Bignum Bignum::from_bytes_be(BytesView big_endian) {
  Bignum out;
  const std::size_t n = big_endian.size();
  out.limbs_.resize((n + 7) / 8, 0);
  for (std::size_t i = 0; i < n; ++i) {
    // byte i (from the most-significant end) goes to bit position 8*(n-1-i)
    const std::size_t bitpos = 8 * (n - 1 - i);
    out.limbs_[bitpos / 64] |= static_cast<uint64_t>(big_endian[i])
                               << (bitpos % 64);
  }
  out.normalize();
  return out;
}

Bignum Bignum::from_hex(std::string_view hex) {
  std::string padded(hex);
  if (padded.size() % 2 != 0) padded.insert(padded.begin(), '0');
  return from_bytes_be(hex_decode(padded));
}

Bytes Bignum::to_bytes_be() const {
  if (limbs_.empty()) return {};
  const std::size_t nbytes = (bit_length() + 7) / 8;
  return to_bytes_be(nbytes);
}

Bytes Bignum::to_bytes_be(std::size_t width) const {
  if (bit_length() > width * 8) {
    throw std::length_error("Bignum::to_bytes_be: value wider than field");
  }
  Bytes out(width, 0);
  for (std::size_t i = 0; i < width; ++i) {
    const std::size_t bitpos = 8 * (width - 1 - i);
    const std::size_t limb = bitpos / 64;
    if (limb < limbs_.size()) {
      out[i] = static_cast<uint8_t>(limbs_[limb] >> (bitpos % 64));
    }
  }
  return out;
}

std::string Bignum::to_hex() const {
  if (limbs_.empty()) return "0";
  std::string s = hex_encode(to_bytes_be());
  const std::size_t nz = s.find_first_not_of('0');
  return s.substr(nz == std::string::npos ? s.size() - 1 : nz);
}

std::size_t Bignum::bit_length() const {
  if (limbs_.empty()) return 0;
  return 64 * (limbs_.size() - 1) +
         (64 - static_cast<std::size_t>(std::countl_zero(limbs_.back())));
}

bool Bignum::bit(std::size_t i) const {
  const std::size_t limb = i / 64;
  if (limb >= limbs_.size()) return false;
  return (limbs_[limb] >> (i % 64)) & 1;
}

std::strong_ordering Bignum::operator<=>(const Bignum& rhs) const {
  if (limbs_.size() != rhs.limbs_.size()) {
    return limbs_.size() <=> rhs.limbs_.size();
  }
  for (std::size_t i = limbs_.size(); i-- > 0;) {
    if (limbs_[i] != rhs.limbs_[i]) return limbs_[i] <=> rhs.limbs_[i];
  }
  return std::strong_ordering::equal;
}

Bignum Bignum::operator+(const Bignum& rhs) const {
  Bignum out;
  const std::size_t n = std::max(limbs_.size(), rhs.limbs_.size());
  out.limbs_.resize(n + 1, 0);
  uint64_t carry = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const uint64_t a = i < limbs_.size() ? limbs_[i] : 0;
    const uint64_t b = i < rhs.limbs_.size() ? rhs.limbs_[i] : 0;
    const u128 sum = static_cast<u128>(a) + b + carry;
    out.limbs_[i] = static_cast<uint64_t>(sum);
    carry = static_cast<uint64_t>(sum >> 64);
  }
  out.limbs_[n] = carry;
  out.normalize();
  return out;
}

Bignum Bignum::operator-(const Bignum& rhs) const {
  if (*this < rhs) throw std::underflow_error("Bignum: negative difference");
  Bignum out;
  out.limbs_.resize(limbs_.size(), 0);
  uint64_t borrow = 0;
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    const uint64_t b = i < rhs.limbs_.size() ? rhs.limbs_[i] : 0;
    const uint64_t a = limbs_[i];
    const uint64_t sub = b + borrow;
    // borrow propagates iff b+borrow overflows or a < sub
    const uint64_t new_borrow = (sub < b) || (a < sub) ? 1 : 0;
    out.limbs_[i] = a - sub;
    borrow = new_borrow;
  }
  out.normalize();
  return out;
}

Bignum Bignum::operator*(const Bignum& rhs) const {
  if (limbs_.empty() || rhs.limbs_.empty()) return {};
  Bignum out;
  out.limbs_.assign(limbs_.size() + rhs.limbs_.size(), 0);
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    uint64_t carry = 0;
    const uint64_t a = limbs_[i];
    for (std::size_t j = 0; j < rhs.limbs_.size(); ++j) {
      const u128 cur = static_cast<u128>(a) * rhs.limbs_[j] +
                       out.limbs_[i + j] + carry;
      out.limbs_[i + j] = static_cast<uint64_t>(cur);
      carry = static_cast<uint64_t>(cur >> 64);
    }
    out.limbs_[i + rhs.limbs_.size()] = carry;
  }
  out.normalize();
  return out;
}

Bignum Bignum::operator<<(std::size_t bits) const {
  if (limbs_.empty() || bits == 0) {
    Bignum out = *this;
    return out;
  }
  const std::size_t limb_shift = bits / 64;
  const std::size_t bit_shift = bits % 64;
  Bignum out;
  out.limbs_.assign(limbs_.size() + limb_shift + 1, 0);
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    out.limbs_[i + limb_shift] |= limbs_[i] << bit_shift;
    if (bit_shift != 0) {
      out.limbs_[i + limb_shift + 1] |= limbs_[i] >> (64 - bit_shift);
    }
  }
  out.normalize();
  return out;
}

Bignum Bignum::operator>>(std::size_t bits) const {
  const std::size_t limb_shift = bits / 64;
  if (limb_shift >= limbs_.size()) return {};
  const std::size_t bit_shift = bits % 64;
  Bignum out;
  out.limbs_.assign(limbs_.size() - limb_shift, 0);
  for (std::size_t i = 0; i < out.limbs_.size(); ++i) {
    out.limbs_[i] = limbs_[i + limb_shift] >> bit_shift;
    if (bit_shift != 0 && i + limb_shift + 1 < limbs_.size()) {
      out.limbs_[i] |= limbs_[i + limb_shift + 1] << (64 - bit_shift);
    }
  }
  out.normalize();
  return out;
}

namespace {
uint64_t g_divmod_addback_count = 0;
}  // namespace

uint64_t divmod_addback_count() { return g_divmod_addback_count; }

DivMod divmod(const Bignum& dividend, const Bignum& divisor) {
  if (divisor.is_zero()) throw std::domain_error("Bignum: division by zero");
  if (dividend < divisor) return {Bignum{}, dividend};

  // Single-limb divisor: simple 128/64 division loop.
  if (divisor.limbs_.size() == 1) {
    const uint64_t d = divisor.limbs_[0];
    Bignum q;
    q.limbs_.assign(dividend.limbs_.size(), 0);
    u128 rem = 0;
    for (std::size_t i = dividend.limbs_.size(); i-- > 0;) {
      const u128 cur = (rem << 64) | dividend.limbs_[i];
      q.limbs_[i] = static_cast<uint64_t>(cur / d);
      rem = cur % d;
    }
    q.normalize();
    return {std::move(q), Bignum(static_cast<uint64_t>(rem))};
  }

  // Knuth TAOCP vol.2 Algorithm D.
  const int shift = std::countl_zero(divisor.limbs_.back());
  const Bignum vn = divisor << static_cast<std::size_t>(shift);
  Bignum un = dividend << static_cast<std::size_t>(shift);
  const std::size_t n = vn.limbs_.size();
  un.limbs_.resize(std::max(un.limbs_.size(), dividend.limbs_.size() + 1), 0);
  // Ensure un has (m + n + 1) limbs where m = #quotient limbs - 1.
  const std::size_t m = un.limbs_.size() >= n ? un.limbs_.size() - n : 0;
  un.limbs_.resize(m + n + 1, 0);

  Bignum q;
  q.limbs_.assign(m + 1, 0);

  const uint64_t v_hi = vn.limbs_[n - 1];
  const uint64_t v_lo = vn.limbs_[n - 2];

  for (std::size_t j = m + 1; j-- > 0;) {
    const u128 numerator =
        (static_cast<u128>(un.limbs_[j + n]) << 64) | un.limbs_[j + n - 1];
    u128 qhat = numerator / v_hi;
    u128 rhat = numerator % v_hi;

    while (qhat > kLimbMax ||
           qhat * v_lo > ((rhat << 64) | un.limbs_[j + n - 2])) {
      --qhat;
      rhat += v_hi;
      if (rhat > kLimbMax) break;
    }

    // Multiply-and-subtract qhat * vn from un[j .. j+n].
    u128 borrow = 0;
    u128 carry = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const u128 prod = qhat * vn.limbs_[i] + carry;
      carry = prod >> 64;
      const uint64_t sub = static_cast<uint64_t>(prod);
      const u128 diff = static_cast<u128>(un.limbs_[i + j]) - sub - borrow;
      un.limbs_[i + j] = static_cast<uint64_t>(diff);
      borrow = (diff >> 64) ? 1 : 0;
    }
    const u128 diff = static_cast<u128>(un.limbs_[j + n]) -
                      static_cast<uint64_t>(carry) - borrow;
    un.limbs_[j + n] = static_cast<uint64_t>(diff);

    if (diff >> 64) {
      // qhat was one too large: add vn back.
      ++g_divmod_addback_count;
      --qhat;
      u128 c = 0;
      for (std::size_t i = 0; i < n; ++i) {
        const u128 sum = static_cast<u128>(un.limbs_[i + j]) + vn.limbs_[i] + c;
        un.limbs_[i + j] = static_cast<uint64_t>(sum);
        c = sum >> 64;
      }
      un.limbs_[j + n] += static_cast<uint64_t>(c);
    }
    q.limbs_[j] = static_cast<uint64_t>(qhat);
  }

  q.normalize();
  un.limbs_.resize(n);
  un.normalize();
  return {std::move(q), un >> static_cast<std::size_t>(shift)};
}

Bignum Bignum::operator/(const Bignum& rhs) const {
  return divmod(*this, rhs).quotient;
}

Bignum Bignum::operator%(const Bignum& rhs) const {
  return divmod(*this, rhs).remainder;
}

Bignum mod_add(const Bignum& a, const Bignum& b, const Bignum& m) {
  Bignum s = a + b;
  if (s >= m) s = s - m;
  return s;
}

Bignum mod_sub(const Bignum& a, const Bignum& b, const Bignum& m) {
  if (a >= b) return a - b;
  return (a + m) - b;
}

Bignum mod_mul(const Bignum& a, const Bignum& b, const Bignum& m) {
  return (a * b) % m;
}

Bignum mod_exp(const Bignum& base, const Bignum& exp, const Bignum& m) {
  if (m <= Bignum(1)) throw std::domain_error("mod_exp: modulus must be > 1");
  if (exp.is_zero()) return Bignum(1);

  // 4-bit fixed window: precompute base^0..base^15 mod m.
  std::vector<Bignum> table(16);
  table[0] = Bignum(1);
  table[1] = base % m;
  for (int i = 2; i < 16; ++i) table[i] = mod_mul(table[i - 1], table[1], m);

  const std::size_t bits = exp.bit_length();
  const std::size_t windows = (bits + 3) / 4;
  Bignum acc(1);
  for (std::size_t w = windows; w-- > 0;) {
    for (int i = 0; i < 4; ++i) acc = mod_mul(acc, acc, m);
    unsigned digit = 0;
    for (int i = 3; i >= 0; --i) {
      digit = (digit << 1) | (exp.bit(4 * w + static_cast<std::size_t>(i)) ? 1u : 0u);
    }
    if (digit != 0) acc = mod_mul(acc, table[digit], m);
  }
  return acc;
}

Bignum mod_inv_prime(const Bignum& a, const Bignum& p) {
  const Bignum r = a % p;
  if (r.is_zero()) throw std::domain_error("mod_inv_prime: zero has no inverse");
  return mod_exp(r, p - Bignum(2), p);
}

namespace {

// Bernstein–Yang "posdivsteps" with Jacobi tracking (the variant used by
// libsecp256k1's variable-time Jacobi): f odd, g >= 0, and each step is
//   g even:            g <- g/2
//   g odd, delta <= 0: g <- (g + f)/2
//   g odd, delta > 0:  (f, g) <- (g, (g + f)/2)
// with delta <- 1 +/- delta.  Every step keeps f and g non-negative and
// gcd(f, g) unchanged, so (g/f) stays a Jacobi symbol whose sign flips are
// determined by f and g mod 8.  All decisions depend only on the low bits,
// so 62 steps run on single words and yield a 2x2 matrix that is then
// applied to the full numbers once.

// [f'; g'] * 2^62 = [u v; q r] * [f; g].  All entries are non-negative and
// each row sums to at most 2^62.
struct Divsteps {
  uint64_t u, v, q, r;
};

// Runs 62 posdivsteps on the low words f, g (f odd).  eta = -delta.  Bit 0
// of `jac` flips each time (g/f) changes sign.  Returns the new eta.
// Only the low (64 - steps taken) bits of the working words stay exact,
// which always leaves the 3 bits the sign rules need.
int64_t posdivsteps_62(int64_t eta, uint64_t f, uint64_t g, Divsteps& t,
                       unsigned& jac) {
  uint64_t u = 1, v = 0, q = 0, r = 1;
  int i = 62;
  for (;;) {
    // Strip up to i factors of two at once (the sentinel caps the count).
    const int zeros = std::countr_zero(g | (~uint64_t{0} << i));
    g >>= zeros;
    u <<= zeros;
    v <<= zeros;
    eta -= zeros;
    i -= zeros;
    // (2/f) = -1 iff f = 3 or 5 mod 8.
    jac ^= static_cast<unsigned>(zeros) &
           static_cast<unsigned>((f >> 1) ^ (f >> 2));
    if (i == 0) break;
    // g is odd here.  Cancel the low bits of g by adding w·f, as many as
    // the steps until the next swap allow (w·f's first term is the step
    // itself, the rest are the next steps' conditional additions).
    int limit;
    uint64_t w;
    if (eta < 0) {
      eta = -eta;
      std::swap(f, g);
      std::swap(u, q);
      std::swap(v, r);
      // Reciprocity: flip iff both are 3 mod 4.
      jac ^= static_cast<unsigned>((f & g) >> 1);
      limit = static_cast<int>(std::min<int64_t>(eta + 1, i));
      // w = -g/f mod 2^min(limit, 6); f(2 - f^2) inverts f mod 64.
      const uint64_t mask = (~uint64_t{0} >> (64 - limit)) & 63;
      w = (f * g * (f * f - 2)) & mask;
    } else {
      limit = static_cast<int>(std::min<int64_t>(eta + 1, i));
      // w = -g/f mod 2^min(limit, 4); f or f + 8 inverts f mod 16.
      const uint64_t mask = (~uint64_t{0} >> (64 - limit)) & 15;
      const uint64_t f_inv = f + (((f + 1) & 4) << 1);
      w = (-f_inv * g) & mask;
    }
    g += f * w;
    q += u * w;
    r += v * w;
  }
  t = Divsteps{u, v, q, r};
  return eta;
}

// (f, g) <- ((u·f + v·g) / 2^62, (q·f + r·g) / 2^62) over `len` limbs.  The
// divisions are exact and neither value grows.
void apply_divsteps(std::size_t len, uint64_t* f, uint64_t* g,
                    const Divsteps& t) {
  u128 cf = static_cast<u128>(t.u) * f[0] + static_cast<u128>(t.v) * g[0];
  u128 cg = static_cast<u128>(t.q) * f[0] + static_cast<u128>(t.r) * g[0];
  uint64_t lf = static_cast<uint64_t>(cf), lg = static_cast<uint64_t>(cg);
  cf >>= 64;
  cg >>= 64;
  for (std::size_t i = 1; i < len; ++i) {
    cf += static_cast<u128>(t.u) * f[i] + static_cast<u128>(t.v) * g[i];
    cg += static_cast<u128>(t.q) * f[i] + static_cast<u128>(t.r) * g[i];
    f[i - 1] = (lf >> 62) | (static_cast<uint64_t>(cf) << 2);
    g[i - 1] = (lg >> 62) | (static_cast<uint64_t>(cg) << 2);
    lf = static_cast<uint64_t>(cf);
    lg = static_cast<uint64_t>(cg);
    cf >>= 64;
    cg >>= 64;
  }
  f[len - 1] = (lf >> 62) | (static_cast<uint64_t>(cf) << 2);
  g[len - 1] = (lg >> 62) | (static_cast<uint64_t>(cg) << 2);
}

}  // namespace

int jacobi_binary(const Bignum& a_in, const Bignum& n_in) {
  if (!n_in.is_odd()) throw std::domain_error("jacobi: n must be odd");
  Bignum a = a_in < n_in ? a_in : a_in % n_in;
  Bignum n = n_in;
  int result = 1;
  while (!a.is_zero()) {
    std::size_t twos = 0;
    while (!a.bit(twos)) ++twos;
    a = a >> twos;
    const uint64_t n8 = n.low_u64() & 7;
    if ((twos & 1) && (n8 == 3 || n8 == 5)) result = -result;
    // Both odd now; keep a >= n, flipping by reciprocity on a swap.
    if (a < n) {
      if ((a.low_u64() & 3) == 3 && (n.low_u64() & 3) == 3) result = -result;
      std::swap(a, n);
    }
    a = a - n;
  }
  return n == Bignum(1) ? result : 0;
}

int jacobi(const Bignum& a_in, const Bignum& n_in) {
  if (!n_in.is_odd()) throw std::domain_error("jacobi: n must be odd");
  if (n_in == Bignum(1)) return 1;
  const Bignum a = a_in < n_in ? a_in : a_in % n_in;
  if (a.is_zero()) return 0;

  std::size_t len = n_in.limbs().size();
  std::vector<uint64_t> f = n_in.limbs();
  std::vector<uint64_t> g = a.limbs();
  g.resize(len, 0);
  int64_t eta = -1;
  unsigned jac = 0;
  // Random inputs take ~3 steps per bit (49 +/- 2 rounds at 1024 bits); the
  // budget is twice that before an input that has not converged goes to the
  // binary loop.
  const std::size_t budget = (6 * n_in.bit_length()) / 62 + 8;
  for (std::size_t round = 0; round < budget; ++round) {
    Divsteps t;
    eta = posdivsteps_62(eta, f[0], g[0], t, jac);
    apply_divsteps(len, f.data(), g.data(), t);
    // gcd(f, g) is invariant and f = g is a fixed point.  At f = 1 the
    // tracked sign is the answer; at f = g > 1 the inputs share a factor.
    if (f[0] == g[0] || f[0] == 1) {
      const bool f_is_one =
          f[0] == 1 && std::all_of(f.begin() + 1, f.begin() + len,
                                   [](uint64_t l) { return l == 0; });
      if (f_is_one) return (jac & 1) ? -1 : 1;
      if (std::equal(f.begin(), f.begin() + len, g.begin())) return 0;
    }
    while (len > 1 && f[len - 1] == 0 && g[len - 1] == 0) --len;
  }
  return jacobi_binary(a, n_in);
}

Bignum random_below(const Bignum& bound, Drbg& rng) {
  if (bound.is_zero()) throw std::domain_error("random_below: empty range");
  const std::size_t bits = bound.bit_length();
  const std::size_t nbytes = (bits + 7) / 8;
  const unsigned top_mask =
      bits % 8 == 0 ? 0xffu : ((1u << (bits % 8)) - 1u);
  for (;;) {
    Bytes raw = rng.generate(nbytes);
    raw[0] &= static_cast<uint8_t>(top_mask);
    Bignum candidate = Bignum::from_bytes_be(raw);
    if (candidate < bound) return candidate;
  }
}

Bignum random_nonzero_below(const Bignum& bound, Drbg& rng) {
  for (;;) {
    Bignum candidate = random_below(bound, rng);
    if (!candidate.is_zero()) return candidate;
  }
}

bool is_probably_prime(const Bignum& n, Drbg& rng, int rounds) {
  if (n < Bignum(2)) return false;
  for (uint64_t small : {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37}) {
    const Bignum sp(small);
    if (n == sp) return true;
    if ((n % sp).is_zero()) return false;
  }
  // Write n - 1 = d * 2^r with d odd.
  const Bignum n_minus_1 = n - Bignum(1);
  std::size_t r = 0;
  Bignum d = n_minus_1;
  while (!d.is_odd()) {
    d = d >> 1;
    ++r;
  }
  const Bignum n_minus_3 = n - Bignum(3);
  for (int round = 0; round < rounds; ++round) {
    const Bignum a = random_below(n_minus_3, rng) + Bignum(2);  // [2, n-2]
    Bignum x = mod_exp(a, d, n);
    if (x == Bignum(1) || x == n_minus_1) continue;
    bool witness = true;
    for (std::size_t i = 1; i < r; ++i) {
      x = mod_mul(x, x, n);
      if (x == n_minus_1) {
        witness = false;
        break;
      }
    }
    if (witness) return false;
  }
  return true;
}

Bignum random_prime(std::size_t bits, Drbg& rng) {
  if (bits < 2) throw std::domain_error("random_prime: need >= 2 bits");
  for (;;) {
    const std::size_t nbytes = (bits + 7) / 8;
    Bytes raw = rng.generate(nbytes);
    // Force exact bit length and oddness.
    const std::size_t top_bit = (bits - 1) % 8;
    raw[0] &= static_cast<uint8_t>((1u << (top_bit + 1)) - 1u);
    raw[0] |= static_cast<uint8_t>(1u << top_bit);
    raw[nbytes - 1] |= 1;
    Bignum candidate = Bignum::from_bytes_be(raw);
    if (is_probably_prime(candidate, rng)) return candidate;
  }
}

Bignum random_safe_prime(std::size_t bits, Drbg& rng) {
  if (bits < 3) throw std::domain_error("random_safe_prime: need >= 3 bits");
  for (;;) {
    const Bignum q = random_prime(bits - 1, rng);
    const Bignum p = (q << 1) + Bignum(1);
    if (p.bit_length() == bits && is_probably_prime(p, rng)) return p;
  }
}

}  // namespace scab::crypto
