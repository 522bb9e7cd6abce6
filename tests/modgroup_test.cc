#include "crypto/modgroup.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

namespace scab::crypto {
namespace {

ModGroup small_group() {
  Drbg rng(to_bytes("modgroup-test"));
  return ModGroup::generate(64, rng);
}

TEST(ModGroup, GeneratedGroupStructure) {
  Drbg rng(to_bytes("gen"));
  const ModGroup grp = ModGroup::generate(48, rng);
  EXPECT_EQ((grp.q() << 1) + Bignum(1), grp.p());
  EXPECT_TRUE(is_probably_prime(grp.p(), rng));
  EXPECT_TRUE(is_probably_prime(grp.q(), rng));
  EXPECT_TRUE(grp.is_element(grp.g()));
  EXPECT_TRUE(grp.is_element(grp.gbar()));
}

TEST(ModGroup, GeneratorHasOrderQ) {
  const ModGroup grp = small_group();
  EXPECT_EQ(grp.exp(grp.g(), grp.q()), Bignum(1));
  EXPECT_NE(grp.g(), Bignum(1));
}

TEST(ModGroup, ExponentArithmetic) {
  const ModGroup grp = small_group();
  Drbg rng(to_bytes("exp"));
  const Bignum a = grp.random_exponent(rng);
  const Bignum b = grp.random_exponent(rng);
  // g^a * g^b == g^(a+b mod q)
  const Bignum lhs = grp.mul(grp.exp(grp.g(), a), grp.exp(grp.g(), b));
  const Bignum rhs = grp.exp(grp.g(), mod_add(a, b, grp.q()));
  EXPECT_EQ(lhs, rhs);
}

TEST(ModGroup, InverseMultipliesToIdentity) {
  const ModGroup grp = small_group();
  Drbg rng(to_bytes("inv"));
  const Bignum x = grp.exp(grp.g(), grp.random_exponent(rng));
  EXPECT_EQ(grp.mul(x, grp.inv(x)), Bignum(1));
}

TEST(ModGroup, IsElementRejectsOutsiders) {
  const ModGroup grp = small_group();
  EXPECT_FALSE(grp.is_element(Bignum(0)));
  EXPECT_FALSE(grp.is_element(grp.p()));
  EXPECT_FALSE(grp.is_element(grp.p() + Bignum(5)));
  // p-1 has order 2, not q (it is -1, a non-residue since p = 3 mod 4).
  EXPECT_FALSE(grp.is_element(grp.p() - Bignum(1)));
  EXPECT_TRUE(grp.is_element(Bignum(1)));
}

TEST(ModGroup, HashToElementLandsInGroup) {
  const ModGroup grp = small_group();
  for (int i = 0; i < 10; ++i) {
    const Bignum e = grp.hash_to_element(to_bytes("seed-" + std::to_string(i)));
    EXPECT_TRUE(grp.is_element(e));
  }
}

TEST(ModGroup, HashToElementDeterministic) {
  const ModGroup grp = small_group();
  EXPECT_EQ(grp.hash_to_element(to_bytes("x")), grp.hash_to_element(to_bytes("x")));
  EXPECT_NE(grp.hash_to_element(to_bytes("x")), grp.hash_to_element(to_bytes("y")));
}

TEST(ModGroup, HashToExponentInRange) {
  const ModGroup grp = small_group();
  for (int i = 0; i < 20; ++i) {
    const Bignum e = grp.hash_to_exponent(to_bytes("c-" + std::to_string(i)));
    EXPECT_LT(e, grp.q());
  }
  EXPECT_EQ(grp.hash_to_exponent(to_bytes("a")), grp.hash_to_exponent(to_bytes("a")));
}

TEST(ModGroup, GbarIndependentOfG) {
  const ModGroup grp = small_group();
  EXPECT_NE(grp.gbar(), grp.g());
  EXPECT_NE(grp.gbar(), Bignum(1));
}

TEST(ModGroup, RejectsNonSafePrimeShape) {
  EXPECT_THROW(ModGroup(Bignum(23), Bignum(7), Bignum(2)), std::invalid_argument);
}

// The fixed 1024-bit MODP group is expensive to validate, so its full
// primality check lives here (runs once) rather than in the constructor.
TEST(ModGroupSlow, Modp1024IsWellFormed) {
  const ModGroup grp = ModGroup::modp_1024();
  EXPECT_EQ(grp.p().bit_length(), 1024u);
  EXPECT_EQ((grp.q() << 1) + Bignum(1), grp.p());
  Drbg rng(to_bytes("modp1024"));
  EXPECT_TRUE(is_probably_prime(grp.p(), rng, 8));
  EXPECT_TRUE(is_probably_prime(grp.q(), rng, 8));
  EXPECT_TRUE(grp.is_element(grp.g()));
  EXPECT_TRUE(grp.is_element(grp.gbar()));
  EXPECT_EQ(grp.element_bytes(), 128u);
}

TEST(ModGroupSlow, Modp512IsWellFormed) {
  const ModGroup grp = ModGroup::modp_512();
  EXPECT_EQ(grp.p().bit_length(), 512u);
  EXPECT_EQ((grp.q() << 1) + Bignum(1), grp.p());
  Drbg rng(to_bytes("modp512"));
  EXPECT_TRUE(is_probably_prime(grp.p(), rng, 16));
  EXPECT_TRUE(is_probably_prime(grp.q(), rng, 16));
  EXPECT_TRUE(grp.is_element(grp.g()));
  EXPECT_TRUE(grp.is_element(grp.gbar()));
}

// Replica executors and worker-pool threads exponentiate through their own
// copies of one group, all reading the same shared combs.  Built for the
// TSan preset: concurrent reads only, results equal to the single-threaded
// ones.
TEST(ModGroupThreads, ConcurrentFixedBaseExp) {
  ModGroup grp = ModGroup::modp_512();
  Drbg rng(to_bytes("modgroup-threads"));
  const Bignum h = grp.exp(grp.g(), grp.random_exponent(rng));
  grp.cache_fixed_base(h);

  // Single-threaded expectations: every fixed base at random exponents,
  // plus membership of random Z_p^* values (about half are members).
  struct Case {
    Bignum base, e, want, probe;
    bool probe_member;
  };
  std::vector<Case> cases;
  for (int i = 0; i < 6; ++i) {
    for (const Bignum& base : {grp.g(), grp.gbar(), h}) {
      Case c{base, grp.random_exponent(rng), {},
             random_nonzero_below(grp.p(), rng), false};
      c.want = grp.exp(c.base, c.e);
      c.probe_member = grp.is_element(c.probe);
      cases.push_back(std::move(c));
    }
  }

  constexpr int kThreads = 4;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cases, &mismatches, t, copy = grp] {
      for (std::size_t i = 0; i < cases.size(); ++i) {
        const Case& c = cases[(i + static_cast<std::size_t>(t)) % cases.size()];
        if (copy.exp(c.base, c.e) != c.want) ++mismatches[t];
        if (!copy.is_element(c.want)) ++mismatches[t];
        if (copy.is_element(c.probe) != c.probe_member) ++mismatches[t];
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(mismatches[t], 0) << t;
}

}  // namespace
}  // namespace scab::crypto
