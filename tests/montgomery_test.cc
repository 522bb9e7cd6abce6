// Cross-checks the Montgomery layer against the schoolbook Bignum path:
// the two implementations must agree bit-for-bit on random inputs at both
// benchmark modulus sizes (512 and 1024 bits), plus known-answer and
// edge-case coverage for the form conversions and the joint-window
// exponentiations that TDH2 verification leans on.
#include "crypto/montgomery.h"

#include <gtest/gtest.h>

#include "crypto/drbg.h"
#include "crypto/modgroup.h"

namespace scab::crypto {
namespace {

TEST(Montgomery, RejectsEvenOrTrivialModulus) {
  EXPECT_THROW(Montgomery(Bignum(0)), std::invalid_argument);
  EXPECT_THROW(Montgomery(Bignum(1)), std::invalid_argument);
  EXPECT_THROW(Montgomery(Bignum(10)), std::invalid_argument);
}

TEST(Montgomery, ToFromMontRoundTrip) {
  const Montgomery m(Bignum::from_hex("ffffffffffffffc5"));  // prime < 2^64
  EXPECT_EQ(m.from_mont(m.one()), Bignum(1));
  for (uint64_t v : {uint64_t{0}, uint64_t{1}, uint64_t{2}, ~uint64_t{0}}) {
    EXPECT_EQ(m.from_mont(m.to_mont(Bignum(v))), Bignum(v) % m.modulus());
  }
  // to_mont reduces unnormalized inputs.
  const Bignum big = Bignum::from_hex("123456789abcdef0123456789abcdef0");
  EXPECT_EQ(m.from_mont(m.to_mont(big)), big % m.modulus());
}

TEST(Montgomery, KnownAnswerSmallModulus) {
  // 3^5 = 243 = 2*97 + 49 mod 97.
  const Montgomery m(Bignum(97));
  EXPECT_EQ(m.from_mont(m.exp(m.to_mont(Bignum(3)), Bignum(5))), Bignum(49));
  // Fermat: a^(p-1) = 1 mod p.
  EXPECT_EQ(m.from_mont(m.exp(m.to_mont(Bignum(5)), Bignum(96))), Bignum(1));
  // e = 0 gives the identity, even for base 0.
  EXPECT_EQ(m.from_mont(m.exp(m.to_mont(Bignum(0)), Bignum(0))), Bignum(1));
}

TEST(Montgomery, FermatInFixedGroups) {
  // Subgroup-order known answers in the shipped groups: g^q = 1 mod p and
  // g^(p-1) = 1 mod p (g = 2 in both MODP groups).
  for (const ModGroup& grp :
       {ModGroup::modp_512(), ModGroup::modp_1024()}) {
    const Montgomery& m = grp.mont();
    const Montgomery::Limbs g = m.to_mont(grp.g());
    EXPECT_EQ(m.from_mont(m.exp(g, grp.q())), Bignum(1));
    EXPECT_EQ(m.from_mont(m.exp(g, grp.p() - Bignum(1))), Bignum(1));
    EXPECT_EQ(grp.exp(grp.g(), grp.q()), Bignum(1));
  }
}

// Property sweep over several deterministic seeds, at both benchmark
// modulus widths.  ISSUE acceptance: old (schoolbook mod_exp/mod_mul) and
// new (Montgomery) paths must agree on random inputs at 512 and 1024 bits.
class MontgomeryCrossCheckTest : public ::testing::TestWithParam<int> {
 protected:
  Drbg rng_{to_bytes("mont-xcheck-" + std::to_string(GetParam()))};
};

TEST_P(MontgomeryCrossCheckTest, AgreesWithSchoolbookAtBenchmarkSizes) {
  for (const ModGroup& grp :
       {ModGroup::modp_512(), ModGroup::modp_1024()}) {
    const Montgomery& m = grp.mont();
    for (int i = 0; i < 4; ++i) {
      const Bignum a = random_nonzero_below(grp.p(), rng_);
      const Bignum b = random_nonzero_below(grp.p(), rng_);
      const Bignum x = grp.random_exponent(rng_);
      const Bignum y = grp.random_exponent(rng_);
      // Multiplication and exponentiation against the old path.
      EXPECT_EQ(m.from_mont(m.mul(m.to_mont(a), m.to_mont(b))),
                mod_mul(a, b, grp.p()));
      EXPECT_EQ(m.from_mont(m.exp(m.to_mont(a), x)), mod_exp(a, x, grp.p()));
      EXPECT_EQ(grp.exp(a, x), mod_exp(a, x, grp.p()));
      // Fixed-base table exp matches the generic path.
      const Montgomery::Table table = m.make_table(m.to_mont(a));
      EXPECT_EQ(m.from_mont(m.exp(table, x)), mod_exp(a, x, grp.p()));
      // Shamir's trick matches two separate exponentiations.
      EXPECT_EQ(grp.multi_exp(a, x, b, y),
                mod_mul(mod_exp(a, x, grp.p()), mod_exp(b, y, grp.p()),
                        grp.p()));
    }
  }
}

TEST_P(MontgomeryCrossCheckTest, AgreesWithSchoolbookAtRandomOddModuli) {
  // Odd (not necessarily prime) moduli of awkward widths, including exact
  // limb boundaries, to exercise the generic CIOS path.
  for (std::size_t bits : {63u, 64u, 65u, 127u, 193u, 512u, 1024u}) {
    Bignum n = random_below(Bignum(1) << bits, rng_);
    if (!n.is_odd()) n = n + Bignum(1);
    if (n <= Bignum(1)) n = Bignum(3);
    const Montgomery m(n);
    for (int i = 0; i < 3; ++i) {
      const Bignum a = random_below(n, rng_);
      const Bignum b = random_below(n, rng_);
      const Bignum e = random_below(n, rng_);
      EXPECT_EQ(m.from_mont(m.mul(m.to_mont(a), m.to_mont(b))),
                mod_mul(a, b, n));
      EXPECT_EQ(m.from_mont(m.exp(m.to_mont(a), e)), mod_exp(a, e, n));
    }
  }
}

TEST_P(MontgomeryCrossCheckTest, GroupOpsMatchSchoolbookInSmallGroup) {
  Drbg grng(to_bytes("mont-group-" + std::to_string(GetParam())));
  const ModGroup grp = ModGroup::generate(48, grng);
  for (int i = 0; i < 8; ++i) {
    const Bignum a = grp.exp(grp.g(), grp.random_exponent(rng_));
    const Bignum b = grp.exp(grp.gbar(), grp.random_exponent(rng_));
    const Bignum x = grp.random_exponent(rng_);
    const Bignum y = grp.random_exponent(rng_);
    EXPECT_EQ(grp.mul(a, b), mod_mul(a, b, grp.p()));
    EXPECT_EQ(grp.exp(a, x), mod_exp(a, x, grp.p()));
    // inv is the true inverse.
    EXPECT_EQ(grp.mul(a, grp.inv(a)), Bignum(1));
    // exp_ratio(a, x, b, y) = a^x * (b^y)^{-1} for order-q b.
    EXPECT_EQ(grp.exp_ratio(a, x, b, y),
              grp.mul(grp.exp(a, x), grp.inv(grp.exp(b, y))));
    // Subgroup membership agrees with a schoolbook q-th power check.
    EXPECT_TRUE(grp.is_element(a));
    EXPECT_EQ(grp.is_element(a + Bignum(1)),
              mod_exp(a + Bignum(1), grp.q(), grp.p()) == Bignum(1));
    // inv_mod_q over the exponent field.
    if (!x.is_zero()) {
      EXPECT_EQ(mod_mul(x, grp.inv_mod_q(x), grp.q()), Bignum(1));
    }
  }
}

TEST_P(MontgomeryCrossCheckTest, CachedFixedBaseMatchesUncached) {
  // q bit lengths 47, 48 and 49: off, on and past a multiple of the comb's
  // teeth, so the last comb row is partial, exactly full, and partial again.
  for (const std::size_t bits : {std::size_t{48}, std::size_t{49},
                                 std::size_t{50}}) {
    Drbg grng(to_bytes("mont-cache-" + std::to_string(GetParam()) + "-" +
                       std::to_string(bits)));
    ModGroup grp = ModGroup::generate(bits, grng);
    const Bignum& p = grp.p();
    const Bignum& q = grp.q();
    const Bignum h = grp.exp(grp.g(), grp.random_exponent(rng_));
    const std::vector<Bignum> exps = {
        Bignum(0), Bignum(1), q - Bignum(1), q, q + Bignum(1),
        grp.random_exponent(rng_),
        // Wider than the comb, so they take the windowed fallback: both
        // when q's width is a multiple of the teeth (bits = 49), the
        // second always.
        p - Bignum(2), (Bignum(1) << 1100) - Bignum(1)};
    std::vector<Bignum> before;
    for (const Bignum& x : exps) before.push_back(grp.exp(h, x));
    EXPECT_FALSE(grp.is_fixed_base(h));
    grp.cache_fixed_base(h);
    EXPECT_TRUE(grp.is_fixed_base(h));
    // Copies share the cache (the group travels by value in Tdh2PublicKey).
    const ModGroup copy = grp;
    for (std::size_t i = 0; i < exps.size(); ++i) {
      EXPECT_EQ(before[i], mod_exp(h, exps[i], p)) << "bits=" << bits;
      EXPECT_EQ(grp.exp(h, exps[i]), before[i]) << "bits=" << bits;
      EXPECT_EQ(copy.exp(h, exps[i]), before[i]) << "bits=" << bits;
      // g and ḡ always take their combs.
      EXPECT_EQ(grp.exp(grp.g(), exps[i]), mod_exp(grp.g(), exps[i], p));
      EXPECT_EQ(grp.exp(grp.gbar(), exps[i]),
                mod_exp(grp.gbar(), exps[i], p));
    }

    // The registered-base cache is FIFO at 8 entries: a 9th base evicts the
    // first, and every base, evicted or not, still exponentiates correctly.
    std::vector<Bignum> bases = {h};
    for (int i = 1; i < 9; ++i) {
      bases.push_back(grp.exp(grp.gbar(), grp.random_exponent(rng_)));
      grp.cache_fixed_base(bases.back());
    }
    EXPECT_FALSE(copy.is_fixed_base(bases[0]));
    for (std::size_t i = 1; i < bases.size(); ++i) {
      EXPECT_TRUE(copy.is_fixed_base(bases[i]));
    }
    for (const Bignum& b : bases) {
      const Bignum x = grp.random_exponent(rng_);
      EXPECT_EQ(copy.exp(b, x), mod_exp(b, x, p)) << "bits=" << bits;
    }
  }
}

TEST_P(MontgomeryCrossCheckTest, ManyTermMultiExpMatchesProductOfExps) {
  // The many-term multi_exp picks Straus for small n and Pippenger buckets
  // for large n; both regimes must agree with the product of individual
  // exponentiations, across full-width and short (batch-style) exponents.
  const ModGroup grp = ModGroup::modp_512();
  for (const std::size_t n : {std::size_t{1}, std::size_t{3}, std::size_t{8},
                              std::size_t{40}}) {
    for (const std::size_t exp_bytes : {std::size_t{16}, std::size_t{64}}) {
      std::vector<Bignum> bases, exps;
      Bignum expect(1);
      for (std::size_t i = 0; i < n; ++i) {
        bases.push_back(random_nonzero_below(grp.p(), rng_));
        exps.push_back(Bignum::from_bytes_be(rng_.generate(exp_bytes)));
        expect = mod_mul(expect, mod_exp(bases[i], exps[i], grp.p()), grp.p());
      }
      EXPECT_EQ(grp.multi_exp(bases, exps), expect)
          << "n=" << n << " exp_bytes=" << exp_bytes;
    }
  }
  // Zero and short exponents among long ones: windows that end on bit 0,
  // terms that contribute nothing, and digits at both ends of the table.
  {
    std::vector<Bignum> bases, exps;
    Bignum expect(1);
    const std::vector<Bignum> shapes = {
        Bignum(0), Bignum(1), Bignum(2), Bignum(15), Bignum(16), Bignum(17),
        Bignum::from_bytes_be(rng_.generate(32)), (Bignum(1) << 255)};
    for (const Bignum& e : shapes) {
      bases.push_back(random_nonzero_below(grp.p(), rng_));
      exps.push_back(e);
      expect = mod_mul(expect, mod_exp(bases.back(), e, grp.p()), grp.p());
    }
    EXPECT_EQ(grp.multi_exp(bases, exps), expect);
  }
  // Degenerate cases: empty product, and an all-zero exponent vector.
  EXPECT_EQ(grp.multi_exp(std::vector<Bignum>{}, std::vector<Bignum>{}),
            Bignum(1));
  const std::vector<Bignum> b1{random_nonzero_below(grp.p(), rng_)};
  EXPECT_EQ(grp.multi_exp(b1, std::vector<Bignum>{Bignum(0)}), Bignum(1));
}

TEST_P(MontgomeryCrossCheckTest, ZeroAndBoundaryExponents) {
  const ModGroup grp = ModGroup::modp_512();
  const Montgomery& m = grp.mont();
  const Bignum a = random_nonzero_below(grp.p(), rng_);
  EXPECT_EQ(grp.exp(a, Bignum(0)), Bignum(1));
  EXPECT_EQ(grp.exp(a, Bignum(1)), a);
  EXPECT_EQ(grp.multi_exp(a, Bignum(0), a, Bignum(0)), Bignum(1));
  EXPECT_EQ(grp.multi_exp(a, Bignum(1), a, Bignum(1)), mod_mul(a, a, grp.p()));
  // Exponent one limb larger than the modulus still reduces correctly.
  const Bignum e = grp.p() * Bignum(3) + Bignum(7);
  EXPECT_EQ(m.from_mont(m.exp(m.to_mont(a), e)), mod_exp(a, e, grp.p()));

  // The comb at the boundaries of its width, for a width that is and one
  // that is not a multiple of the teeth count.
  const Bignum& q = grp.q();
  for (const std::size_t width : {q.bit_length(), q.bit_length() + 1}) {
    const Montgomery::Comb comb = m.make_comb(m.to_mont(a), width);
    ASSERT_GE(comb.bits(), width);
    ASSERT_LT(comb.bits(), width + Montgomery::kCombTeeth);
    const Bignum full = (Bignum(1) << comb.bits()) - Bignum(1);
    const Bignum wider = Bignum(1) << comb.bits();
    ASSERT_GT(wider.bit_length(), comb.bits());  // takes the fallback
    for (const Bignum& x :
         {Bignum(0), Bignum(1), q - Bignum(1), q, q + Bignum(1),
          grp.p() - Bignum(2), full, wider, e,
          (Bignum(1) << 1100) - Bignum(1)}) {
      EXPECT_EQ(m.from_mont(m.exp(comb, x)), mod_exp(a, x, grp.p()))
          << "width=" << width << " x=" << x.to_hex();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MontgomeryCrossCheckTest,
                         ::testing::Range(0, 4));

}  // namespace
}  // namespace scab::crypto
