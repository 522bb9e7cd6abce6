#include "threshenc/tdh2.h"

#include <algorithm>
#include <functional>
#include <stdexcept>

#include "common/serialize.h"
#include "crypto/sha256.h"

namespace scab::threshenc {

using crypto::Bignum;
using crypto::Drbg;
using crypto::ModGroup;

namespace {

// H1: group element -> kTdh2MessageSize-byte pad.
Bytes hash_pad(const ModGroup& group, const Bignum& elem) {
  return crypto::sha256_tuple(
      {to_bytes("tdh2.h1"), elem.to_bytes_be(group.element_bytes())});
}

// Truncates a 32-byte transcript hash to the 128-bit challenge (header:
// kTdh2ChallengeBytes).  NOT reduced mod q: prover and verifier use the
// same integer, and all bases have order q, so reduction is implicit in
// the group.
Bignum truncate_challenge(const Bytes& digest) {
  return Bignum::from_bytes_be(BytesView(digest.data(), kTdh2ChallengeBytes));
}

// H2: Fiat–Shamir challenge binding ciphertext body AND label.
Bignum hash_challenge(const ModGroup& group, BytesView c, BytesView label,
                      const Bignum& u, const Bignum& w, const Bignum& ubar,
                      const Bignum& wbar) {
  const std::size_t eb = group.element_bytes();
  return truncate_challenge(crypto::sha256_tuple(
      {to_bytes("tdh2.h2"), c, label, u.to_bytes_be(eb), w.to_bytes_be(eb),
       ubar.to_bytes_be(eb), wbar.to_bytes_be(eb)}));
}

// H4: challenge for the share-decryption equality-of-dlog proof.
Bignum hash_share_challenge(const ModGroup& group, uint32_t index,
                            const Bignum& u, const Bignum& u_i,
                            const Bignum& u_hat, const Bignum& h_hat) {
  const std::size_t eb = group.element_bytes();
  uint8_t idx[4];
  for (int i = 0; i < 4; ++i) idx[i] = static_cast<uint8_t>(index >> (8 * i));
  return truncate_challenge(crypto::sha256_tuple(
      {to_bytes("tdh2.h4"), BytesView(idx, 4), u.to_bytes_be(eb),
       u_i.to_bytes_be(eb), u_hat.to_bytes_be(eb), h_hat.to_bytes_be(eb)}));
}

// A fresh 128-bit nonzero coefficient for the small-exponent batch test.
// Drawn from the VERIFIER's DRBG: the prover never sees (or influences)
// the z's, which is what the Bellare–Garay–Rabin soundness argument needs.
Bignum batch_coeff(Drbg& rng) {
  for (;;) {
    Bignum z = Bignum::from_bytes_be(rng.generate(kTdh2ChallengeBytes));
    if (!z.is_zero()) return z;
  }
}

// Lagrange coefficients lambda_j at 0 for every j in `indices`, mod q.
// Numerators and denominators are products of small index differences
// (sign tracked separately so the operands stay one limb), and all
// denominators share ONE modular inversion via Montgomery's batch-inversion
// trick — per-coefficient Fermat inversions used to dominate combination.
std::vector<Bignum> lagrange_at_zero_all(const ModGroup& group,
                                         std::span<const uint32_t> indices) {
  const Bignum& q = group.q();
  const std::size_t t = indices.size();
  std::vector<Bignum> num(t), den(t);
  std::vector<bool> negative(t, false);
  for (std::size_t i = 0; i < t; ++i) {
    const uint32_t j = indices[i];
    num[i] = Bignum(1);
    den[i] = Bignum(1);
    for (uint32_t k : indices) {
      if (k == j) continue;
      num[i] = crypto::mod_mul(num[i], Bignum(k), q);
      const uint32_t diff = k > j ? k - j : j - k;
      den[i] = crypto::mod_mul(den[i], Bignum(diff), q);
      if (k < j) negative[i] = !negative[i];
    }
  }
  // prefix[i] = den[0]·...·den[i-1]; invert only the full product.
  std::vector<Bignum> prefix(t + 1);
  prefix[0] = Bignum(1);
  for (std::size_t i = 0; i < t; ++i) {
    prefix[i + 1] = crypto::mod_mul(prefix[i], den[i], q);
  }
  Bignum inv_suffix = group.inv_mod_q(prefix[t]);
  std::vector<Bignum> out(t);
  for (std::size_t i = t; i-- > 0;) {
    const Bignum inv_i = crypto::mod_mul(inv_suffix, prefix[i], q);
    inv_suffix = crypto::mod_mul(inv_suffix, den[i], q);
    Bignum lambda = crypto::mod_mul(num[i], inv_i, q);
    if (negative[i] && !lambda.is_zero()) lambda = q - lambda;
    out[i] = std::move(lambda);
  }
  return out;
}

}  // namespace

Bytes Tdh2Ciphertext::serialize(const ModGroup& group) const {
  Writer wr;
  wr.bytes(c);
  const std::size_t eb = group.element_bytes();
  wr.raw(u.to_bytes_be(eb));
  wr.raw(ubar.to_bytes_be(eb));
  wr.raw(w.to_bytes_be(eb));
  wr.raw(wbar.to_bytes_be(eb));
  wr.raw(f.to_bytes_be(group.exponent_bytes()));
  return std::move(wr).take();
}

std::optional<Tdh2Ciphertext> Tdh2Ciphertext::parse(const ModGroup& group,
                                                    BytesView wire) {
  Reader r(wire);
  Tdh2Ciphertext ct;
  ct.c = r.bytes();
  const std::size_t eb = group.element_bytes();
  ct.u = Bignum::from_bytes_be(r.raw(eb));
  ct.ubar = Bignum::from_bytes_be(r.raw(eb));
  ct.w = Bignum::from_bytes_be(r.raw(eb));
  ct.wbar = Bignum::from_bytes_be(r.raw(eb));
  ct.f = Bignum::from_bytes_be(r.raw(group.exponent_bytes()));
  if (!r.done()) return std::nullopt;
  // Parse-time bounds: a truncated or out-of-range wire must never reach
  // the group operations (the proof check would reject it anyway, but only
  // after paying several exponentiations).
  if (ct.c.size() != kTdh2MessageSize) return std::nullopt;
  if (ct.u.is_zero() || ct.u >= group.p()) return std::nullopt;
  if (ct.ubar.is_zero() || ct.ubar >= group.p()) return std::nullopt;
  if (ct.w.is_zero() || ct.w >= group.p()) return std::nullopt;
  if (ct.wbar.is_zero() || ct.wbar >= group.p()) return std::nullopt;
  if (ct.f >= group.q()) return std::nullopt;
  return ct;
}

Bytes Tdh2DecryptionShare::serialize(const ModGroup& group) const {
  Writer w;
  w.u32(index);
  const std::size_t eb = group.element_bytes();
  w.raw(u_i.to_bytes_be(eb));
  w.raw(u_hat.to_bytes_be(eb));
  w.raw(h_hat.to_bytes_be(eb));
  w.raw(f_i.to_bytes_be(group.exponent_bytes()));
  return std::move(w).take();
}

std::optional<Tdh2DecryptionShare> Tdh2DecryptionShare::parse(
    const ModGroup& group, BytesView wire) {
  Reader r(wire);
  Tdh2DecryptionShare s;
  s.index = r.u32();
  const std::size_t eb = group.element_bytes();
  s.u_i = Bignum::from_bytes_be(r.raw(eb));
  s.u_hat = Bignum::from_bytes_be(r.raw(eb));
  s.h_hat = Bignum::from_bytes_be(r.raw(eb));
  s.f_i = Bignum::from_bytes_be(r.raw(group.exponent_bytes()));
  if (!r.done()) return std::nullopt;
  // Same parse-time bounds as Tdh2Ciphertext::parse.
  if (s.index == 0) return std::nullopt;
  if (s.u_i.is_zero() || s.u_i >= group.p()) return std::nullopt;
  if (s.u_hat.is_zero() || s.u_hat >= group.p()) return std::nullopt;
  if (s.h_hat.is_zero() || s.h_hat >= group.p()) return std::nullopt;
  if (s.f_i >= group.q()) return std::nullopt;
  return s;
}

Tdh2KeyMaterial tdh2_keygen(const ModGroup& group, uint32_t threshold,
                            uint32_t servers, Drbg& rng) {
  if (threshold == 0 || threshold > servers) {
    throw std::invalid_argument("tdh2_keygen: need 1 <= t <= n");
  }
  // Random degree-(t-1) polynomial F over Z_q with F(0) = x.
  std::vector<Bignum> coeffs(threshold);
  for (auto& c : coeffs) c = group.random_exponent(rng);
  const Bignum& x = coeffs[0];

  auto eval = [&](uint32_t at) {
    const Bignum point(at);
    Bignum acc;
    // Horner, from the top coefficient down.
    for (std::size_t i = coeffs.size(); i-- > 0;) {
      acc = crypto::mod_add(crypto::mod_mul(acc, point, group.q()), coeffs[i],
                            group.q());
    }
    return acc;
  };

  Tdh2KeyMaterial out;
  out.pk.group = group;
  out.pk.h = group.exp(group.g(), x);
  // h is the third hot base (every encryption computes h^r): give it a
  // cached comb alongside g and gbar.
  out.pk.group.cache_fixed_base(out.pk.h);
  out.pk.threshold = threshold;
  out.pk.servers = servers;
  out.pk.verification_keys.reserve(servers);
  out.shares.reserve(servers);
  const crypto::Montgomery& mont = group.mont();
  auto vk_tables = std::make_shared<std::vector<crypto::Montgomery::Table>>();
  vk_tables->reserve(servers);
  for (uint32_t i = 1; i <= servers; ++i) {
    Bignum x_i = eval(i);
    Bignum vk_i = group.exp(group.g(), x_i);
    vk_tables->push_back(mont.make_table(mont.to_mont(vk_i)));
    out.pk.verification_keys.push_back(std::move(vk_i));
    out.shares.push_back(Tdh2KeyShare{i, std::move(x_i)});
  }
  out.pk.vk_tables = std::move(vk_tables);
  out.pk.lagrange_cache = std::make_shared<Tdh2LagrangeCache>();
  return out;
}

Tdh2Ciphertext tdh2_encrypt(const Tdh2PublicKey& pk, BytesView message,
                            BytesView label, Drbg& rng) {
  if (message.size() != kTdh2MessageSize) {
    throw std::invalid_argument("tdh2_encrypt: message must be 32 bytes");
  }
  const ModGroup& grp = pk.group;
  const Bignum r = grp.random_exponent(rng);
  const Bignum s = grp.random_exponent(rng);

  Tdh2Ciphertext ct;
  ct.c = hash_pad(grp, grp.exp(pk.h, r));
  xor_inplace(ct.c, message);
  ct.u = grp.exp(grp.g(), r);
  ct.w = grp.exp(grp.g(), s);
  ct.ubar = grp.exp(grp.gbar(), r);
  ct.wbar = grp.exp(grp.gbar(), s);
  const Bignum e = hash_challenge(grp, ct.c, label, ct.u, ct.w, ct.ubar, ct.wbar);
  ct.f = crypto::mod_add(s, crypto::mod_mul(r, e, grp.q()), grp.q());
  return ct;
}

bool tdh2_verify_ciphertext(const Tdh2PublicKey& pk, const Tdh2Ciphertext& ct,
                            BytesView label) {
  const ModGroup& grp = pk.group;
  if (ct.c.size() != kTdh2MessageSize) return false;
  if (!grp.is_element(ct.u) || !grp.is_element(ct.ubar) ||
      !grp.is_element(ct.w) || !grp.is_element(ct.wbar)) {
    return false;
  }
  if (ct.f >= grp.q()) return false;
  const Bignum e =
      hash_challenge(grp, ct.c, label, ct.u, ct.w, ct.ubar, ct.wbar);
  // g^f ?= w·u^e and ḡ^f ?= w̄·ū^e.  The full-width exponent f lands on the
  // cached g/ḡ combs; the e side is only 128 bits.
  if (grp.exp(grp.g(), ct.f) != grp.mul(ct.w, grp.exp(ct.u, e))) return false;
  return grp.exp(grp.gbar(), ct.f) == grp.mul(ct.wbar, grp.exp(ct.ubar, e));
}

std::optional<Tdh2DecryptionShare> tdh2_share_decrypt(
    const Tdh2PublicKey& pk, const Tdh2KeyShare& key, const Tdh2Ciphertext& ct,
    BytesView label, Drbg& rng) {
  if (!tdh2_verify_ciphertext(pk, ct, label)) return std::nullopt;
  return tdh2_share_decrypt_preverified(pk, key, ct, rng);
}

Tdh2DecryptionShare tdh2_share_decrypt_preverified(const Tdh2PublicKey& pk,
                                                   const Tdh2KeyShare& key,
                                                   const Tdh2Ciphertext& ct,
                                                   Drbg& rng) {
  const ModGroup& grp = pk.group;
  const crypto::Montgomery& mont = grp.mont();

  Tdh2DecryptionShare share;
  share.index = key.index;
  // Both u^{x_i} and the proof commitment u^{s_i} share one window table
  // for the (per-ciphertext) base u.
  const crypto::Montgomery::Table u_table = mont.make_table(mont.to_mont(ct.u));
  share.u_i = mont.from_mont(mont.exp(u_table, key.x));
  // NIZK proof of log_u(u_i) == log_g(h_i):
  const Bignum s_i = grp.random_exponent(rng);
  share.u_hat = mont.from_mont(mont.exp(u_table, s_i));
  share.h_hat = grp.exp(grp.g(), s_i);
  const Bignum e_i = hash_share_challenge(grp, key.index, ct.u, share.u_i,
                                          share.u_hat, share.h_hat);
  share.f_i = crypto::mod_add(s_i, crypto::mod_mul(key.x, e_i, grp.q()),
                              grp.q());
  return share;
}

bool tdh2_verify_share(const Tdh2PublicKey& pk, const Tdh2Ciphertext& ct,
                       BytesView label, const Tdh2DecryptionShare& share) {
  (void)label;  // label validity is part of ciphertext verification
  const ModGroup& grp = pk.group;
  if (share.index == 0 || share.index > pk.servers) return false;
  if (!grp.is_element(share.u_i) || !grp.is_element(share.u_hat) ||
      !grp.is_element(share.h_hat)) {
    return false;
  }
  if (share.f_i >= grp.q()) return false;
  const Bignum e_i = hash_share_challenge(grp, share.index, ct.u, share.u_i,
                                          share.u_hat, share.h_hat);
  // Challenges are 128-bit integers; reduce once so the q-e subtraction in
  // exp_ratio is well-defined even in tiny test groups.
  const Bignum e_red = e_i % grp.q();
  // u^{f_i} ?= û·u_i^{e_i} — the per-ciphertext base u has no cached table,
  // so the joint-window ratio form is cheapest.
  if (grp.exp_ratio(ct.u, share.f_i, share.u_i, e_red) != share.u_hat) {
    return false;
  }
  // g^{f_i} ?= ĥ·h_i^{e_i} — g has a cached comb and the verification key
  // a keygen-built window table (pk.vk_tables), so the direct form wins.
  const crypto::Montgomery& mont = grp.mont();
  Bignum vk_pow;
  if (pk.vk_tables && share.index <= pk.vk_tables->size()) {
    vk_pow = mont.from_mont(mont.exp((*pk.vk_tables)[share.index - 1], e_red));
  } else {
    vk_pow = grp.exp(pk.vk(share.index), e_red);
  }
  return grp.exp(grp.g(), share.f_i) == grp.mul(share.h_hat, vk_pow);
}

Tdh2BatchVerdict tdh2_batch_verify_shares(
    const Tdh2PublicKey& pk, const Tdh2Ciphertext& ct, BytesView label,
    std::span<const Tdh2DecryptionShare> shares, Drbg& rng) {
  Tdh2BatchVerdict out;
  out.valid.assign(shares.size(), 0);
  if (shares.empty()) return out;
  if (shares.size() == 1) {
    // A batch of one IS the single-share path — bit-for-bit, no DRBG draw.
    out.valid[0] = tdh2_verify_share(pk, ct, label, shares[0]) ? 1 : 0;
    return out;
  }
  const ModGroup& grp = pk.group;
  const Bignum& q = grp.q();

  // Structural prechecks mirror tdh2_verify_share exactly; failures are
  // excluded from the algebra with verdict 0 (the verdict the single path
  // gives them).  The subgroup membership checks (Jacobi — no modexp) are a
  // SOUNDNESS requirement of the linear combination, not hygiene: a forged
  // component of order 2 survives a random combination with probability
  // 1/2 per equation, so only order-q elements may enter the batch.
  std::vector<Bignum> e(shares.size());
  std::vector<std::size_t> live;
  live.reserve(shares.size());
  for (std::size_t i = 0; i < shares.size(); ++i) {
    const Tdh2DecryptionShare& s = shares[i];
    if (s.index == 0 || s.index > pk.servers) continue;
    if (!grp.is_element(s.u_i) || !grp.is_element(s.u_hat) ||
        !grp.is_element(s.h_hat)) {
      continue;
    }
    if (s.f_i >= q) continue;
    e[i] = hash_share_challenge(grp, s.index, ct.u, s.u_i, s.u_hat, s.h_hat);
    live.push_back(i);
  }

  // The z-weighted product of the 2k per-share equations
  //   u^{f_i} = û_i·u_i^{e_i}   and   g^{f_i} = ĥ_i·h_i^{e_i}
  // with fresh 128-bit z_i, z'_i per evaluation:
  //   u^{Σ f_i·z_i} · g^{Σ f_i·z'_i}
  //     == Π u_i^{e_i·z_i} · û_i^{z_i} · h_i^{e_i·z'_i} · ĥ_i^{z'_i}.
  // The left side is two full-width fixed-cost exponentiations; every term
  // on the right has a ≤256-bit exponent, and the whole product is one
  // Straus/Pippenger multi-exponentiation — this is where the amortization
  // lives.
  auto equation_holds = [&](std::span<const std::size_t> idxs) {
    Bignum a_exp, b_exp;
    std::vector<Bignum> bases, exps;
    bases.reserve(4 * idxs.size());
    exps.reserve(4 * idxs.size());
    for (std::size_t i : idxs) {
      const Tdh2DecryptionShare& s = shares[i];
      const Bignum z = batch_coeff(rng);
      const Bignum zp = batch_coeff(rng);
      a_exp = crypto::mod_add(a_exp, crypto::mod_mul(s.f_i, z, q), q);
      b_exp = crypto::mod_add(b_exp, crypto::mod_mul(s.f_i, zp, q), q);
      bases.push_back(s.u_i);
      exps.push_back(crypto::mod_mul(e[i], z, q));
      bases.push_back(s.u_hat);
      exps.push_back(z % q);
      bases.push_back(pk.vk(s.index));
      exps.push_back(crypto::mod_mul(e[i], zp, q));
      bases.push_back(s.h_hat);
      exps.push_back(zp % q);
    }
    const Bignum lhs =
        grp.mul(grp.exp(ct.u, a_exp), grp.exp(grp.g(), b_exp));
    return lhs == grp.multi_exp(bases, exps);
  };

  // Whole batch first; on failure bisect with fresh coefficients, so every
  // Byzantine share is pinned to a leaf where plain tdh2_verify_share runs.
  std::function<void(std::span<const std::size_t>)> check =
      [&](std::span<const std::size_t> idxs) {
        if (idxs.empty()) return;
        if (idxs.size() == 1) {
          out.valid[idxs[0]] =
              tdh2_verify_share(pk, ct, label, shares[idxs[0]]) ? 1 : 0;
          return;
        }
        if (equation_holds(idxs)) {
          for (std::size_t i : idxs) out.valid[i] = 1;
          return;
        }
        ++out.bisection_splits;
        const std::size_t mid = idxs.size() / 2;
        check(idxs.subspan(0, mid));
        check(idxs.subspan(mid));
      };
  check(live);
  return out;
}

Tdh2BatchVerdict tdh2_batch_verify_ciphertexts(
    const Tdh2PublicKey& pk, std::span<const Tdh2Ciphertext> cts,
    std::span<const Bytes> labels, Drbg& rng) {
  if (cts.size() != labels.size()) {
    throw std::invalid_argument(
        "tdh2_batch_verify_ciphertexts: cts/labels size mismatch");
  }
  Tdh2BatchVerdict out;
  out.valid.assign(cts.size(), 0);
  if (cts.empty()) return out;
  if (cts.size() == 1) {
    out.valid[0] = tdh2_verify_ciphertext(pk, cts[0], labels[0]) ? 1 : 0;
    return out;
  }
  const ModGroup& grp = pk.group;
  const Bignum& q = grp.q();

  std::vector<Bignum> e(cts.size());
  std::vector<std::size_t> live;
  live.reserve(cts.size());
  for (std::size_t j = 0; j < cts.size(); ++j) {
    const Tdh2Ciphertext& ct = cts[j];
    if (ct.c.size() != kTdh2MessageSize) continue;
    if (!grp.is_element(ct.u) || !grp.is_element(ct.ubar) ||
        !grp.is_element(ct.w) || !grp.is_element(ct.wbar)) {
      continue;
    }
    if (ct.f >= q) continue;
    e[j] = hash_challenge(grp, ct.c, labels[j], ct.u, ct.w, ct.ubar, ct.wbar);
    live.push_back(j);
  }

  // z-weighted product of the 2k ciphertext equations
  //   g^{f_j} = w_j·u_j^{e_j}   and   ḡ^{f_j} = w̄_j·ū_j^{e_j}:
  //   g^{Σ f_j·z_j} · ḡ^{Σ f_j·z'_j}
  //     == Π u_j^{e_j·z_j} · w_j^{z_j} · ū_j^{e_j·z'_j} · w̄_j^{z'_j}.
  auto equation_holds = [&](std::span<const std::size_t> idxs) {
    Bignum a_exp, b_exp;
    std::vector<Bignum> bases, exps;
    bases.reserve(4 * idxs.size());
    exps.reserve(4 * idxs.size());
    for (std::size_t j : idxs) {
      const Tdh2Ciphertext& ct = cts[j];
      const Bignum z = batch_coeff(rng);
      const Bignum zp = batch_coeff(rng);
      a_exp = crypto::mod_add(a_exp, crypto::mod_mul(ct.f, z, q), q);
      b_exp = crypto::mod_add(b_exp, crypto::mod_mul(ct.f, zp, q), q);
      bases.push_back(ct.u);
      exps.push_back(crypto::mod_mul(e[j], z, q));
      bases.push_back(ct.w);
      exps.push_back(z % q);
      bases.push_back(ct.ubar);
      exps.push_back(crypto::mod_mul(e[j], zp, q));
      bases.push_back(ct.wbar);
      exps.push_back(zp % q);
    }
    const Bignum lhs =
        grp.mul(grp.exp(grp.g(), a_exp), grp.exp(grp.gbar(), b_exp));
    return lhs == grp.multi_exp(bases, exps);
  };

  std::function<void(std::span<const std::size_t>)> check =
      [&](std::span<const std::size_t> idxs) {
        if (idxs.empty()) return;
        if (idxs.size() == 1) {
          out.valid[idxs[0]] =
              tdh2_verify_ciphertext(pk, cts[idxs[0]], labels[idxs[0]]) ? 1
                                                                        : 0;
          return;
        }
        if (equation_holds(idxs)) {
          for (std::size_t j : idxs) out.valid[j] = 1;
          return;
        }
        ++out.bisection_splits;
        const std::size_t mid = idxs.size() / 2;
        check(idxs.subspan(0, mid));
        check(idxs.subspan(mid));
      };
  check(live);
  return out;
}

std::optional<Bytes> tdh2_combine(const Tdh2PublicKey& pk,
                                  const Tdh2Ciphertext& ct, BytesView label,
                                  std::span<const Tdh2DecryptionShare> shares) {
  if (!tdh2_verify_ciphertext(pk, ct, label)) return std::nullopt;
  return tdh2_combine_preverified(pk, ct, shares);
}

std::optional<Bytes> tdh2_combine_preverified(
    const Tdh2PublicKey& pk, const Tdh2Ciphertext& ct,
    std::span<const Tdh2DecryptionShare> shares) {
  const ModGroup& grp = pk.group;

  // Pick the first `threshold` shares with distinct indices.
  std::vector<const Tdh2DecryptionShare*> chosen;
  std::vector<uint32_t> indices;
  for (const auto& s : shares) {
    if (std::find(indices.begin(), indices.end(), s.index) != indices.end()) {
      continue;
    }
    chosen.push_back(&s);
    indices.push_back(s.index);
    if (chosen.size() == pk.threshold) break;
  }
  if (chosen.size() < pk.threshold) return std::nullopt;

  // Lagrange coefficients depend only on the index SET, which repeats
  // heavily across requests (own share + the first t-1 arrivals), so look
  // them up by sorted index set before recomputing.
  std::vector<uint32_t> sorted = indices;
  std::sort(sorted.begin(), sorted.end());
  Tdh2LagrangeCache* cache = pk.lagrange_cache.get();
  const std::vector<Bignum>* lambdas = nullptr;
  std::vector<Bignum> computed;
  if (cache) {
    for (const auto& entry : cache->entries) {
      if (entry.indices == sorted) {
        lambdas = &entry.lambdas;
        break;
      }
    }
    if (lambdas) {
      ++cache->hits;
    } else {
      ++cache->misses;
    }
  }
  if (!lambdas) {
    computed = lagrange_at_zero_all(grp, sorted);
    if (cache) {
      if (cache->entries.size() >= Tdh2LagrangeCache::kMaxEntries) {
        cache->entries.erase(cache->entries.begin());
      }
      cache->entries.push_back({sorted, std::move(computed)});
      lambdas = &cache->entries.back().lambdas;
    } else {
      lambdas = &computed;
    }
  }
  // Map the sorted-order coefficients back to the chosen shares' order.
  std::vector<const Bignum*> lambda(chosen.size());
  for (std::size_t i = 0; i < indices.size(); ++i) {
    const std::size_t pos = static_cast<std::size_t>(
        std::lower_bound(sorted.begin(), sorted.end(), indices[i]) -
        sorted.begin());
    lambda[i] = &(*lambdas)[pos];
  }

  // h^r = prod u_j^{lambda_j}, pairing shares up so each pair costs one
  // joint-window multi-exponentiation instead of two exponentiations.
  Bignum hr(1);
  std::size_t i = 0;
  for (; i + 1 < chosen.size(); i += 2) {
    hr = grp.mul(hr, grp.multi_exp(chosen[i]->u_i, *lambda[i],
                                   chosen[i + 1]->u_i, *lambda[i + 1]));
  }
  if (i < chosen.size()) {
    hr = grp.mul(hr, grp.exp(chosen[i]->u_i, *lambda[i]));
  }
  Bytes m = hash_pad(grp, hr);
  xor_inplace(m, ct.c);
  return m;
}

}  // namespace scab::threshenc
