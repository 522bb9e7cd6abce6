#include "crypto/modgroup.h"

#include <stdexcept>

#include "crypto/sha256.h"

namespace scab::crypto {

namespace {
// RFC 2409, section 6.2: 1024-bit MODP group ("Oakley Group 2").
// p = 2^1024 - 2^960 - 1 + 2^64 * floor(2^894 * pi + 129093), a safe prime.
constexpr const char* kModp1024Hex =
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74"
    "020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437"
    "4FE1356D6D51C245E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED"
    "EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE65381FFFFFFFFFFFFFFFF";
// Generated with random_safe_prime(512) from the fixed seed
// "scab-512-safe-prime-search-v1"; both p and (p-1)/2 revalidated by
// tests/modgroup_test.cc.
constexpr const char* kModp512Hex =
    "d913181945b49c2e8d4725e4b422863c39fd01d935b85ab232f8f154a41ce59f"
    "b2c7a43244e93dc007682dc753322e5e8584717d08f07ae4390732da5fc68d2f";

constexpr std::size_t kMaxCachedBases = 8;
}  // namespace

ModGroup::ModGroup(Bignum p, Bignum q, Bignum g)
    : p_(std::move(p)), q_(std::move(q)), g_(std::move(g)) {
  if ((q_ << 1) + Bignum(1) != p_) {
    throw std::invalid_argument("ModGroup: p must equal 2q + 1");
  }
  mont_ = std::make_shared<Montgomery>(p_);
  if (q_.is_odd() && q_ > Bignum(1)) {
    mont_q_ = std::make_shared<Montgomery>(q_);
  }
  gbar_ = hash_to_element(to_bytes("scab.modgroup.gbar.v1"));
  g_comb_ = build_comb(g_);
  gbar_comb_ = build_comb(gbar_);
  extra_combs_ = std::make_shared<std::vector<FixedBase>>();
}

ModGroup ModGroup::modp_1024() {
  Bignum p = Bignum::from_hex(kModp1024Hex);
  Bignum q = (p - Bignum(1)) >> 1;
  // p = 7 mod 8, so 2 is a quadratic residue and generates the order-q
  // subgroup (q prime means every non-identity QR is a generator).
  return ModGroup(std::move(p), std::move(q), Bignum(2));
}

ModGroup ModGroup::modp_512() {
  Bignum p = Bignum::from_hex(kModp512Hex);
  Bignum q = (p - Bignum(1)) >> 1;
  // p = 7 mod 8 (low byte 0x2f), so 2 generates the order-q QR subgroup.
  return ModGroup(std::move(p), std::move(q), Bignum(2));
}

ModGroup ModGroup::generate(std::size_t bits, Drbg& rng) {
  Bignum p = random_safe_prime(bits, rng);
  Bignum q = (p - Bignum(1)) >> 1;
  // Find a generator of the QR subgroup: square a random element; retry on
  // the identity.
  Bignum g;
  do {
    const Bignum h = random_nonzero_below(p, rng);
    g = mod_mul(h, h, p);
  } while (g == Bignum(1));
  return ModGroup(std::move(p), std::move(q), std::move(g));
}

const Montgomery& ModGroup::require_mont() const {
  if (!mont_) throw std::domain_error("ModGroup: empty group");
  return *mont_;
}

const Montgomery& ModGroup::mont() const { return require_mont(); }

const Montgomery::Comb* ModGroup::find_comb(const Bignum& base) const {
  if (base == g_) return g_comb_.get();
  if (base == gbar_) return gbar_comb_.get();
  if (extra_combs_) {
    for (const auto& fb : *extra_combs_) {
      if (fb.base == base) return fb.comb.get();
    }
  }
  return nullptr;
}

std::shared_ptr<const Montgomery::Comb> ModGroup::build_comb(
    const Bignum& base) const {
  const Montgomery& m = require_mont();
  return std::make_shared<const Montgomery::Comb>(
      m.make_comb(m.to_mont(base), q_.bit_length()));
}

void ModGroup::cache_fixed_base(const Bignum& base) {
  require_mont();
  if (find_comb(base) != nullptr) return;
  auto& cache = *extra_combs_;
  if (cache.size() >= kMaxCachedBases) cache.erase(cache.begin());
  cache.push_back(FixedBase{base, build_comb(base)});
}

Bignum ModGroup::exp(const Bignum& base, const Bignum& e) const {
  const Montgomery& m = require_mont();
  if (const Montgomery::Comb* c = find_comb(base)) {
    return m.from_mont(m.exp(*c, e));
  }
  return m.from_mont(m.exp(m.to_mont(base), e));
}

Bignum ModGroup::mul(const Bignum& a, const Bignum& b) const {
  const Montgomery& m = require_mont();
  return m.from_mont(m.mul(m.to_mont(a), m.to_mont(b)));
}

Bignum ModGroup::inv(const Bignum& a) const {
  const Montgomery& m = require_mont();
  const Bignum r = a % p_;
  if (r.is_zero()) throw std::domain_error("ModGroup::inv: zero");
  // Fermat: a^(p-2) mod p.
  return m.from_mont(m.exp(m.to_mont(r), p_ - Bignum(2)));
}

Bignum ModGroup::multi_exp(const Bignum& a, const Bignum& x, const Bignum& b,
                           const Bignum& y) const {
  const Montgomery& m = require_mont();
  return m.from_mont(m.multi_exp(m.to_mont(a), x, m.to_mont(b), y));
}

Bignum ModGroup::multi_exp(std::span<const Bignum> bases,
                           std::span<const Bignum> exps) const {
  const Montgomery& m = require_mont();
  std::vector<Montgomery::Limbs> mb;
  mb.reserve(bases.size());
  for (const Bignum& b : bases) mb.push_back(m.to_mont(b));
  return m.from_mont(m.multi_exp(mb, exps));
}

Bignum ModGroup::exp_ratio(const Bignum& a, const Bignum& x, const Bignum& b,
                           const Bignum& y) const {
  // b has order q, so b^{-y} = b^{q-y}; no Fermat inversion needed.
  return multi_exp(a, x, b, y.is_zero() ? Bignum(0) : q_ - y);
}

bool ModGroup::is_element(const Bignum& x) const {
  if (x.is_zero() || x >= p_) return false;
  if (!mont_) throw std::domain_error("ModGroup: empty group");
  // p is a safe prime and q = (p-1)/2, so Euler's criterion gives
  // x^q mod p == (x/p): the QR subgroup test is exactly Jacobi == 1.
  return jacobi(x, p_) == 1;
}

Bignum ModGroup::hash_to_element(BytesView seed) const {
  // Expand the seed with a counter until we land on a non-identity element
  // after squaring (squaring maps Z_p^* into the QR subgroup).
  for (uint64_t ctr = 0;; ++ctr) {
    Bytes material;
    const std::size_t want = element_bytes() + 16;
    while (material.size() < want) {
      uint8_t ctr_bytes[16];
      for (int i = 0; i < 8; ++i) {
        ctr_bytes[i] = static_cast<uint8_t>(ctr >> (8 * i));
        ctr_bytes[8 + i] = static_cast<uint8_t>(material.size() >> (8 * i));
      }
      append(material,
             sha256_tuple({to_bytes("scab.h2e"), seed, BytesView(ctr_bytes, 16)}));
    }
    const Bignum x = Bignum::from_bytes_be(material) % p_;
    if (x.is_zero()) continue;
    const Bignum e = mod_mul(x, x, p_);
    if (e != Bignum(1)) return e;
  }
}

Bignum ModGroup::hash_to_exponent(BytesView data) const {
  // Derive ~ q-size + 128 extra bits and reduce; the statistical distance
  // from uniform is negligible.
  Bytes material;
  const std::size_t want = exponent_bytes() + 16;
  uint64_t ctr = 0;
  while (material.size() < want) {
    uint8_t ctr_bytes[8];
    for (int i = 0; i < 8; ++i) ctr_bytes[i] = static_cast<uint8_t>(ctr >> (8 * i));
    append(material,
           sha256_tuple({to_bytes("scab.h2x"), data, BytesView(ctr_bytes, 8)}));
    ++ctr;
  }
  return Bignum::from_bytes_be(material) % q_;
}

Bignum ModGroup::random_exponent(Drbg& rng) const {
  return random_below(q_, rng);
}

Bignum ModGroup::inv_mod_q(const Bignum& a) const {
  const Bignum r = a % q_;
  if (r.is_zero()) throw std::domain_error("ModGroup::inv_mod_q: zero");
  if (!mont_q_) return mod_inv_prime(r, q_);  // tiny test groups with even q
  return mont_q_->from_mont(mont_q_->exp(mont_q_->to_mont(r), q_ - Bignum(2)));
}

}  // namespace scab::crypto
