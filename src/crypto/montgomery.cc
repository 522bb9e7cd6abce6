#include "crypto/montgomery.h"

#include <algorithm>
#include <stdexcept>

namespace scab::crypto {

namespace {
using u128 = unsigned __int128;

// -n^{-1} mod 2^64 by Newton iteration: for odd n, x = n is an inverse mod
// 2^3, and each step doubles the number of correct low bits (3 -> 6 -> 12 ->
// 24 -> 48 -> 96 >= 64).
uint64_t neg_inv64(uint64_t n) {
  uint64_t inv = n;
  for (int i = 0; i < 5; ++i) inv *= 2 - n * inv;
  return ~inv + 1;
}
}  // namespace

Montgomery::Montgomery(const Bignum& modulus) : n_(modulus) {
  if (!n_.is_odd() || n_ <= Bignum(1)) {
    throw std::invalid_argument("Montgomery: modulus must be odd and > 1");
  }
  n_limbs_ = n_.limbs();
  k_ = n_limbs_.size();
  n0_ = neg_inv64(n_limbs_[0]);

  // R = 2^{64k}; both residues reduced with the existing (slow, setup-only)
  // Bignum division.
  const Bignum r_mod = (Bignum(1) << (64 * k_)) % n_;
  const Bignum r2_mod = (Bignum(1) << (128 * k_)) % n_;
  r1_ = r_mod.limbs();
  r1_.resize(k_, 0);
  r2_ = r2_mod.limbs();
  r2_.resize(k_, 0);
}

void Montgomery::mont_mul(const uint64_t* a, const uint64_t* b,
                          uint64_t* out) const {
  // CIOS (coarsely integrated operand scanning), Koc–Acar–Kaliski.
  constexpr std::size_t kStackLimbs = 34;  // up to 2176-bit moduli, no heap
  uint64_t stack[kStackLimbs + 2];
  std::vector<uint64_t> heap;
  uint64_t* t = stack;
  if (k_ > kStackLimbs) {
    heap.resize(k_ + 2);
    t = heap.data();
  }
  std::fill(t, t + k_ + 2, 0);

  for (std::size_t i = 0; i < k_; ++i) {
    const uint64_t bi = b[i];
    u128 carry = 0;
    for (std::size_t j = 0; j < k_; ++j) {
      const u128 cs = static_cast<u128>(t[j]) + static_cast<u128>(a[j]) * bi +
                      carry;
      t[j] = static_cast<uint64_t>(cs);
      carry = cs >> 64;
    }
    u128 cs = static_cast<u128>(t[k_]) + carry;
    t[k_] = static_cast<uint64_t>(cs);
    t[k_ + 1] = static_cast<uint64_t>(cs >> 64);

    const uint64_t m = t[0] * n0_;
    cs = static_cast<u128>(t[0]) + static_cast<u128>(m) * n_limbs_[0];
    carry = cs >> 64;  // low word is zero by construction of m
    for (std::size_t j = 1; j < k_; ++j) {
      cs = static_cast<u128>(t[j]) + static_cast<u128>(m) * n_limbs_[j] + carry;
      t[j - 1] = static_cast<uint64_t>(cs);
      carry = cs >> 64;
    }
    cs = static_cast<u128>(t[k_]) + carry;
    t[k_ - 1] = static_cast<uint64_t>(cs);
    t[k_] = t[k_ + 1] + static_cast<uint64_t>(cs >> 64);
  }

  // Result is t[0..k] < 2n; one conditional subtraction normalizes.
  bool ge = t[k_] != 0;
  if (!ge) {
    ge = true;
    for (std::size_t i = k_; i-- > 0;) {
      if (t[i] != n_limbs_[i]) {
        ge = t[i] > n_limbs_[i];
        break;
      }
    }
  }
  if (ge) {
    u128 borrow = 0;
    for (std::size_t i = 0; i < k_; ++i) {
      const u128 diff = static_cast<u128>(t[i]) - n_limbs_[i] - borrow;
      out[i] = static_cast<uint64_t>(diff);
      borrow = (diff >> 64) ? 1 : 0;
    }
  } else {
    std::copy(t, t + k_, out);
  }
}

void Montgomery::mont_sqr_inplace(Limbs& a, Limbs& scratch) const {
  mont_mul(a.data(), a.data(), scratch.data());
  a.swap(scratch);
}

Montgomery::Limbs Montgomery::to_mont(const Bignum& x) const {
  Limbs in = (x % n_).limbs();
  in.resize(k_, 0);
  Limbs out(k_);
  mont_mul(in.data(), r2_.data(), out.data());
  return out;
}

Bignum Montgomery::from_mont(const Limbs& a) const {
  Limbs one(k_, 0);
  one[0] = 1;
  Limbs out(k_);
  mont_mul(a.data(), one.data(), out.data());
  // Rebuild a normalized Bignum from the fixed-width limbs.
  Bytes be(out.size() * 8);
  for (std::size_t i = 0; i < out.size(); ++i) {
    for (int b = 0; b < 8; ++b) {
      be[be.size() - 1 - 8 * i - static_cast<std::size_t>(b)] =
          static_cast<uint8_t>(out[i] >> (8 * b));
    }
  }
  return Bignum::from_bytes_be(be);
}

Montgomery::Limbs Montgomery::mul(const Limbs& a, const Limbs& b) const {
  Limbs out(k_);
  mont_mul(a.data(), b.data(), out.data());
  return out;
}

Montgomery::Table Montgomery::make_table(const Limbs& base) const {
  Table t;
  t.pow[0] = r1_;
  t.pow[1] = base;
  for (std::size_t i = 2; i < 16; ++i) t.pow[i] = mul(t.pow[i - 1], base);
  return t;
}

Montgomery::Limbs Montgomery::exp(const Limbs& base, const Bignum& e) const {
  if (e.is_zero()) return r1_;
  return exp(make_table(base), e);
}

Montgomery::Limbs Montgomery::exp(const Table& base, const Bignum& e) const {
  if (e.is_zero()) return r1_;
  const std::size_t windows = (e.bit_length() + 3) / 4;
  auto digit_at = [&e](std::size_t w) {
    unsigned d = 0;
    for (int i = 3; i >= 0; --i) {
      d = (d << 1) | (e.bit(4 * w + static_cast<std::size_t>(i)) ? 1u : 0u);
    }
    return d;
  };

  Limbs acc = base.pow[digit_at(windows - 1)];
  Limbs tmp(k_);
  for (std::size_t w = windows - 1; w-- > 0;) {
    for (int i = 0; i < 4; ++i) mont_sqr_inplace(acc, tmp);
    const unsigned d = digit_at(w);
    if (d != 0) {
      mont_mul(acc.data(), base.pow[d].data(), tmp.data());
      acc.swap(tmp);
    }
  }
  return acc;
}

Montgomery::Comb Montgomery::make_comb(const Limbs& base,
                                       std::size_t bits) const {
  Comb comb;
  comb.spacing =
      std::max<std::size_t>(1, (bits + kCombTeeth - 1) / kCombTeeth);
  const std::size_t entries = std::size_t{1} << kCombTeeth;
  comb.entries.resize(entries * k_);
  auto entry = [&](std::size_t i) { return comb.entries.data() + i * k_; };
  std::copy(r1_.begin(), r1_.end(), entry(0));
  // Tooth j, base^{2^{j·spacing}}, sits at entry 2^j.
  Limbs tooth = base;
  Limbs tmp(k_);
  for (unsigned j = 0; j < kCombTeeth; ++j) {
    if (j > 0) {
      for (std::size_t i = 0; i < comb.spacing; ++i) {
        mont_sqr_inplace(tooth, tmp);
      }
    }
    std::copy(tooth.begin(), tooth.end(), entry(std::size_t{1} << j));
  }
  // Every other entry is its lowest tooth times the entry without it.
  for (std::size_t i = 3; i < entries; ++i) {
    const std::size_t low = i & (~i + 1);
    if (low != i) mont_mul(entry(low), entry(i ^ low), entry(i));
  }
  return comb;
}

Montgomery::Limbs Montgomery::exp(const Comb& comb, const Bignum& e) const {
  if (e.is_zero()) return r1_;
  const uint64_t* base = comb.entries.data() + k_;
  if (e.bit_length() > comb.bits()) return exp(Limbs(base, base + k_), e);

  const std::vector<uint64_t>& el = e.limbs();
  auto bit = [&el](std::size_t i) -> std::size_t {
    return i / 64 < el.size() ? (el[i / 64] >> (i % 64)) & 1 : 0;
  };
  Limbs acc;  // empty until the first nonzero column
  Limbs tmp(k_);
  for (std::size_t col = comb.spacing; col-- > 0;) {
    if (!acc.empty()) mont_sqr_inplace(acc, tmp);
    std::size_t idx = 0;
    for (unsigned j = 0; j < kCombTeeth; ++j) {
      idx |= bit(j * comb.spacing + col) << j;
    }
    if (idx == 0) continue;
    const uint64_t* term = comb.entries.data() + idx * k_;
    if (acc.empty()) {
      acc.assign(term, term + k_);
    } else {
      mont_mul(acc.data(), term, tmp.data());
      acc.swap(tmp);
    }
  }
  return acc;
}

Montgomery::Limbs Montgomery::multi_exp(std::span<const Limbs> bases,
                                        std::span<const Bignum> exps) const {
  if (bases.size() != exps.size()) {
    throw std::invalid_argument("Montgomery::multi_exp: size mismatch");
  }
  const std::size_t n = bases.size();
  if (n == 0) return r1_;
  if (n == 1) return exp(bases[0], exps[0]);

  std::size_t bits = 0;
  for (const Bignum& e : exps) bits = std::max(bits, e.bit_length());
  if (bits == 0) return r1_;

  // c-bit digit of e at window w (bits [w*c, (w+1)*c)).
  auto digit_at = [](const Bignum& e, std::size_t w, unsigned c) {
    unsigned d = 0;
    for (unsigned i = c; i-- > 0;) d = (d << 1) | (e.bit(w * c + i) ? 1u : 0u);
    return d;
  };

  // Both plans share `bits` squarings; compare the remaining multiplies.
  // Straus: 8 table-build muls per base plus one lookup-mul per sliding
  // 4-bit window, ~one per 5 bits.  Pippenger with c-bit windows: per
  // window one bucket mul per term plus ~2^{c+1} fold muls.
  const std::size_t straus_cost = n * (8 + bits / 5);
  unsigned pip_c = 0;
  std::size_t best_cost = straus_cost;
  for (unsigned c = 2; c <= 14; ++c) {
    const std::size_t cost =
        ((bits + c - 1) / c) * (n + (std::size_t{2} << c));
    if (cost < best_cost) {
      best_cost = cost;
      pip_c = c;
    }
  }

  Limbs acc = r1_;
  Limbs tmp(k_);
  auto mul_into_acc = [&](const Limbs& v) {
    mont_mul(acc.data(), v.data(), tmp.data());
    acc.swap(tmp);
  };

  if (pip_c == 0) {
    // Straus with 4-bit sliding windows: each base gets a table of its odd
    // powers base^1, base^3, ..., base^15 (one squaring and 7 multiplies),
    // and each exponent is cut into windows that start and end on a set
    // bit.  One squaring chain serves every term; a window's multiply lands
    // on the chain at the window's lowest bit.
    struct Window {
      std::size_t pos;  // lowest bit of the window
      std::size_t term;
      unsigned digit;  // odd, below 16
    };
    std::vector<Window> windows;
    std::vector<std::array<Limbs, 8>> odd(n);
    for (std::size_t t = 0; t < n; ++t) {
      const Bignum& e = exps[t];
      if (e.is_zero()) continue;
      for (std::size_t i = e.bit_length(); i-- > 0;) {
        if (!e.bit(i)) continue;
        std::size_t low = i >= 3 ? i - 3 : 0;
        while (!e.bit(low)) ++low;
        unsigned d = 0;
        for (std::size_t b = i + 1; b-- > low;) {
          d = (d << 1) | (e.bit(b) ? 1u : 0u);
        }
        windows.push_back(Window{low, t, d});
        i = low;  // the loop's decrement steps below the window
      }
      const Limbs square = mul(bases[t], bases[t]);
      odd[t][0] = bases[t];
      for (std::size_t j = 1; j < 8; ++j) {
        odd[t][j] = mul(odd[t][j - 1], square);
      }
    }
    std::sort(windows.begin(), windows.end(),
              [](const Window& x, const Window& y) {
                return x.pos != y.pos ? x.pos > y.pos : x.term < y.term;
              });
    bool started = false;
    std::size_t next = 0;
    for (std::size_t b = bits; b-- > 0;) {
      if (started) mont_sqr_inplace(acc, tmp);
      for (; next < windows.size() && windows[next].pos == b; ++next) {
        const Limbs& m = odd[windows[next].term][windows[next].digit >> 1];
        if (started) {
          mul_into_acc(m);
        } else {
          acc = m;
          started = true;
        }
      }
    }
    return acc;
  }

  // Pippenger: per window scatter every term into bucket[digit], then fold
  // buckets with the suffix-product identity
  //   Π_d bucket[d]^d = Π_{d = max..1} (running suffix product).
  const unsigned c = pip_c;
  const std::size_t windows = (bits + c - 1) / c;
  const std::size_t nbuckets = std::size_t{1} << c;
  std::vector<Limbs> bucket(nbuckets);
  std::vector<char> used(nbuckets, 0);
  for (std::size_t w = windows; w-- > 0;) {
    if (w != windows - 1) {
      for (unsigned i = 0; i < c; ++i) mont_sqr_inplace(acc, tmp);
    }
    std::fill(used.begin(), used.end(), 0);
    for (std::size_t t = 0; t < n; ++t) {
      const unsigned d = digit_at(exps[t], w, c);
      if (d == 0) continue;
      if (!used[d]) {
        bucket[d] = bases[t];
        used[d] = 1;
      } else {
        mont_mul(bucket[d].data(), bases[t].data(), tmp.data());
        bucket[d].swap(tmp);
      }
    }
    Limbs running;
    bool have_running = false;
    for (std::size_t d = nbuckets; d-- > 1;) {
      if (used[d]) {
        if (!have_running) {
          running = bucket[d];
          have_running = true;
        } else {
          mont_mul(running.data(), bucket[d].data(), tmp.data());
          running.swap(tmp);
        }
      }
      if (have_running) mul_into_acc(running);
    }
  }
  return acc;
}

Montgomery::Limbs Montgomery::multi_exp(const Limbs& a, const Bignum& x,
                                        const Limbs& b, const Bignum& y) const {
  const std::size_t bits = std::max(x.bit_length(), y.bit_length());
  if (bits == 0) return r1_;

  // joint[4i + j] = a^i * b^j for i, j in 0..3: one shared squaring chain
  // over 2-bit digit pairs instead of two independent chains.
  std::array<Limbs, 16> joint;
  joint[0] = r1_;
  joint[1] = b;
  joint[2] = mul(b, b);
  joint[3] = mul(joint[2], b);
  joint[4] = a;
  joint[8] = mul(a, a);
  joint[12] = mul(joint[8], a);
  for (std::size_t i = 4; i < 16; i += 4) {
    for (std::size_t j = 1; j < 4; ++j) joint[i + j] = mul(joint[i], joint[j]);
  }

  auto digit_at = [](const Bignum& e, std::size_t w) {
    return (e.bit(2 * w + 1) ? 2u : 0u) | (e.bit(2 * w) ? 1u : 0u);
  };
  const std::size_t windows = (bits + 1) / 2;
  Limbs acc = joint[4 * digit_at(x, windows - 1) + digit_at(y, windows - 1)];
  Limbs tmp(k_);
  for (std::size_t w = windows - 1; w-- > 0;) {
    mont_sqr_inplace(acc, tmp);
    mont_sqr_inplace(acc, tmp);
    const unsigned d = 4 * digit_at(x, w) + digit_at(y, w);
    if (d != 0) {
      mont_mul(acc.data(), joint[d].data(), tmp.data());
      acc.swap(tmp);
    }
  }
  return acc;
}

}  // namespace scab::crypto
