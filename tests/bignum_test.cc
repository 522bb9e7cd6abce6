#include "crypto/bignum.h"

#include <gtest/gtest.h>

#include "crypto/modgroup.h"
#include "crypto/montgomery.h"

namespace scab::crypto {
namespace {

TEST(Bignum, ZeroBasics) {
  Bignum z;
  EXPECT_TRUE(z.is_zero());
  EXPECT_EQ(z.bit_length(), 0u);
  EXPECT_EQ(z, Bignum(0));
  EXPECT_EQ(z.to_hex(), "0");
  EXPECT_TRUE(z.to_bytes_be().empty());
}

TEST(Bignum, SmallArithmetic) {
  EXPECT_EQ(Bignum(2) + Bignum(3), Bignum(5));
  EXPECT_EQ(Bignum(10) - Bignum(4), Bignum(6));
  EXPECT_EQ(Bignum(7) * Bignum(6), Bignum(42));
  EXPECT_EQ(Bignum(100) / Bignum(7), Bignum(14));
  EXPECT_EQ(Bignum(100) % Bignum(7), Bignum(2));
}

TEST(Bignum, SubtractionUnderflowThrows) {
  EXPECT_THROW(Bignum(3) - Bignum(4), std::underflow_error);
}

TEST(Bignum, DivisionByZeroThrows) {
  EXPECT_THROW(Bignum(3) / Bignum(0), std::domain_error);
  EXPECT_THROW(Bignum(3) % Bignum(0), std::domain_error);
}

TEST(Bignum, CarryPropagation) {
  const Bignum max64(~uint64_t{0});
  const Bignum sum = max64 + Bignum(1);
  EXPECT_EQ(sum.bit_length(), 65u);
  EXPECT_EQ(sum - Bignum(1), max64);
  EXPECT_EQ(sum.to_hex(), "10000000000000000");
}

TEST(Bignum, HexRoundTrip) {
  const std::string hex = "deadbeef0123456789abcdef00ff00ff00ff00ff00ff00ff";
  const Bignum v = Bignum::from_hex(hex);
  EXPECT_EQ(v.to_hex(), hex);
}

TEST(Bignum, BytesRoundTripFixedWidth) {
  const Bignum v = Bignum::from_hex("abcd");
  const Bytes wide = v.to_bytes_be(8);
  EXPECT_EQ(hex_encode(wide), "000000000000abcd");
  EXPECT_EQ(Bignum::from_bytes_be(wide), v);
  EXPECT_THROW(v.to_bytes_be(1), std::length_error);
}

TEST(Bignum, LeadingZeroBytesNormalize) {
  const Bytes raw = {0x00, 0x00, 0x01, 0x02};
  EXPECT_EQ(Bignum::from_bytes_be(raw), Bignum(0x0102));
}

TEST(Bignum, Comparisons) {
  EXPECT_LT(Bignum(1), Bignum(2));
  EXPECT_GT(Bignum::from_hex("100000000000000000"), Bignum(~uint64_t{0}));
  EXPECT_EQ(Bignum::from_hex("ff"), Bignum(255));
}

TEST(Bignum, Shifts) {
  const Bignum v = Bignum::from_hex("123456789abcdef0");
  EXPECT_EQ((v << 4).to_hex(), "123456789abcdef00");
  EXPECT_EQ((v >> 4).to_hex(), "123456789abcdef");
  EXPECT_EQ((v << 64) >> 64, v);
  EXPECT_EQ((v << 67) >> 67, v);
  EXPECT_TRUE((v >> 200).is_zero());
  EXPECT_EQ(v << 0, v);
  EXPECT_EQ(v >> 0, v);
}

TEST(Bignum, BitAccess) {
  const Bignum v = Bignum::from_hex("8000000000000001");
  EXPECT_TRUE(v.bit(0));
  EXPECT_TRUE(v.bit(63));
  EXPECT_FALSE(v.bit(1));
  EXPECT_FALSE(v.bit(64));
  EXPECT_EQ(v.bit_length(), 64u);
}

// ---------------------------------------------------------------------------
// Property-style sweeps over deterministic random inputs.

class BignumPropertyTest : public ::testing::TestWithParam<int> {
 protected:
  Drbg rng_{to_bytes("bignum-prop-" + std::to_string(GetParam()))};

  Bignum random_bits(std::size_t max_bits) {
    const std::size_t bits = 1 + rng_.uniform(max_bits);
    const Bignum bound = Bignum(1) << bits;
    return random_below(bound, rng_);
  }
};

TEST_P(BignumPropertyTest, AddSubInverse) {
  for (int i = 0; i < 20; ++i) {
    const Bignum a = random_bits(512);
    const Bignum b = random_bits(512);
    EXPECT_EQ((a + b) - b, a);
    EXPECT_EQ((a + b) - a, b);
  }
}

TEST_P(BignumPropertyTest, AdditionCommutesAndAssociates) {
  for (int i = 0; i < 20; ++i) {
    const Bignum a = random_bits(300), b = random_bits(300), c = random_bits(300);
    EXPECT_EQ(a + b, b + a);
    EXPECT_EQ((a + b) + c, a + (b + c));
  }
}

TEST_P(BignumPropertyTest, MultiplicationDistributes) {
  for (int i = 0; i < 20; ++i) {
    const Bignum a = random_bits(256), b = random_bits(256), c = random_bits(256);
    EXPECT_EQ(a * (b + c), a * b + a * c);
    EXPECT_EQ(a * b, b * a);
  }
}

TEST_P(BignumPropertyTest, DivModIdentity) {
  for (int i = 0; i < 30; ++i) {
    const Bignum a = random_bits(1024);
    Bignum b = random_bits(512);
    if (b.is_zero()) b = Bignum(1);
    const auto [q, r] = divmod(a, b);
    EXPECT_LT(r, b);
    EXPECT_EQ(q * b + r, a);
  }
}

TEST_P(BignumPropertyTest, DivModStressesAddBackBranch) {
  // Dividends crafted as q*b + (b-1) with q near limb boundaries hit the
  // rare Knuth-D correction path more often than uniform inputs.
  for (int i = 0; i < 20; ++i) {
    Bignum b = random_bits(256);
    if (b < Bignum(2)) b = Bignum(2);
    const Bignum q = random_bits(256);
    const Bignum a = q * b + (b - Bignum(1));
    const auto [q2, r2] = divmod(a, b);
    EXPECT_EQ(q2, q);
    EXPECT_EQ(r2, b - Bignum(1));
  }
}

TEST_P(BignumPropertyTest, ShiftsAreMulDivByPowersOfTwo) {
  for (int i = 0; i < 20; ++i) {
    const Bignum a = random_bits(300);
    const std::size_t s = rng_.uniform(130);
    EXPECT_EQ(a << s, a * (Bignum(1) << s));
    EXPECT_EQ(a >> s, a / (Bignum(1) << s));
  }
}

TEST_P(BignumPropertyTest, BytesRoundTrip) {
  for (int i = 0; i < 20; ++i) {
    const Bignum a = random_bits(777);
    EXPECT_EQ(Bignum::from_bytes_be(a.to_bytes_be()), a);
    EXPECT_EQ(Bignum::from_hex(a.to_hex()), a);
  }
}

TEST_P(BignumPropertyTest, ModExpMatchesNaive) {
  const Bignum m = random_bits(64) + Bignum(2);
  for (int i = 0; i < 5; ++i) {
    const Bignum base = random_bits(64);
    const uint64_t e = rng_.uniform(200);
    Bignum naive(1);
    for (uint64_t k = 0; k < e; ++k) naive = mod_mul(naive, base, m);
    EXPECT_EQ(mod_exp(base, Bignum(e), m), naive) << "e=" << e;
  }
}

TEST_P(BignumPropertyTest, ModExpLaws) {
  const Bignum m = random_bits(256) + Bignum(3);
  const Bignum base = random_bits(200);
  const Bignum e1 = random_bits(100);
  const Bignum e2 = random_bits(100);
  // base^(e1+e2) == base^e1 * base^e2 (mod m)
  EXPECT_EQ(mod_exp(base, e1 + e2, m),
            mod_mul(mod_exp(base, e1, m), mod_exp(base, e2, m), m));
}

TEST_P(BignumPropertyTest, ModAddSubInverse) {
  Bignum m = random_bits(256);
  if (m < Bignum(2)) m = Bignum(2);
  const Bignum a = random_below(m, rng_);
  const Bignum b = random_below(m, rng_);
  EXPECT_EQ(mod_sub(mod_add(a, b, m), b, m), a);
  EXPECT_LT(mod_add(a, b, m), m);
  EXPECT_LT(mod_sub(a, b, m), m);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BignumPropertyTest, ::testing::Range(0, 6));

// ---------------------------------------------------------------------------
// Knuth Algorithm D add-back branch.  The two-limb qhat refinement makes
// the trial digit exact for 2-limb divisors; with >= 3 limbs it can still
// overshoot by one, with probability ~2/2^64 on random inputs — uniform
// sweeps never reach the correction.  These pairs are crafted to force it
// (divisor top limb exactly b/2, a tiny low limb, and a dividend sitting
// at quotient digit b-1 with a maximal remainder), and the instrumentation
// counter (divmod_addback_count) proves the branch actually ran.

// Little-endian 64-bit limbs -> Bignum.
Bignum from_limbs(const std::vector<uint64_t>& limbs) {
  Bignum v;
  for (std::size_t i = limbs.size(); i-- > 0;) {
    v = (v << 64) + Bignum(limbs[i]);
  }
  return v;
}

TEST(BignumDivMod, AddBackBranchFiresOnCraftedPairs) {
  const uint64_t kHalf = uint64_t{1} << 63;
  const uint64_t kMax = ~uint64_t{0};
  // Each case: divisor limbs (LE), quotient digit, remainder offset; the
  // dividend is q*v + (v - offset).
  struct Case {
    std::vector<uint64_t> v_limbs;
    uint64_t q, offset;
  };
  const std::vector<Case> cases = {
      {{1, 0, kHalf}, kMax, 1},
      {{1, 0, kHalf}, kMax - 3, 2},
      {{2, 0, kHalf}, kMax - 1, 1},
  };
  for (const auto& c : cases) {
    const Bignum v = from_limbs(c.v_limbs);
    const Bignum u = v * Bignum(c.q) + (v - Bignum(c.offset));
    const uint64_t before = divmod_addback_count();
    const auto [q, r] = divmod(u, v);
    EXPECT_GT(divmod_addback_count(), before)
        << "pair no longer reaches the add-back correction";
    EXPECT_EQ(q, Bignum(c.q));
    EXPECT_EQ(r, v - Bignum(c.offset));
    EXPECT_EQ(q * v + r, u);
  }
}

TEST(BignumDivMod, AddBackPreservesDivModIdentityUnderSweep) {
  // Sweep the neighbourhood of the triggering family: whether or not each
  // individual pair fires the correction, the division identity must hold.
  const uint64_t kHalf = uint64_t{1} << 63;
  const uint64_t kMax = ~uint64_t{0};
  uint64_t fired = 0;
  for (uint64_t lo = 0; lo < 4; ++lo) {
    for (uint64_t dq = 0; dq < 4; ++dq) {
      const Bignum v = from_limbs({lo, 0, kHalf});
      for (const Bignum& u :
           {v * Bignum(kMax - dq) + (v - Bignum(1)),
            v * Bignum(kMax - dq) + (v - Bignum(2)), v * Bignum(kMax - dq)}) {
        const uint64_t before = divmod_addback_count();
        const auto [q, r] = divmod(u, v);
        fired += divmod_addback_count() - before;
        EXPECT_LT(r, v);
        EXPECT_EQ(q * v + r, u);
      }
    }
  }
  EXPECT_GT(fired, 0u);
}

// ---------------------------------------------------------------------------

TEST(BignumPrimality, KnownSmallPrimes) {
  Drbg rng(to_bytes("prime"));
  for (uint64_t p : {2, 3, 5, 7, 11, 13, 101, 257, 65537}) {
    EXPECT_TRUE(is_probably_prime(Bignum(p), rng)) << p;
  }
  for (uint64_t c : {1, 4, 6, 9, 15, 91, 100, 65535}) {
    EXPECT_FALSE(is_probably_prime(Bignum(c), rng)) << c;
  }
}

TEST(BignumPrimality, CarmichaelNumbersRejected) {
  Drbg rng(to_bytes("carmichael"));
  for (uint64_t c : {561, 1105, 1729, 2465, 2821, 6601, 8911}) {
    EXPECT_FALSE(is_probably_prime(Bignum(c), rng)) << c;
  }
}

TEST(BignumPrimality, MersennePrime) {
  Drbg rng(to_bytes("mersenne"));
  // 2^61 - 1 is prime (the Shamir field modulus used by src/secretshare).
  EXPECT_TRUE(is_probably_prime((Bignum(1) << 61) - Bignum(1), rng));
  // 2^67 - 1 is famously composite (Cole, 1903).
  EXPECT_FALSE(is_probably_prime((Bignum(1) << 67) - Bignum(1), rng));
}

TEST(BignumPrimality, RandomPrimeHasExactBitLength) {
  Drbg rng(to_bytes("gen"));
  for (std::size_t bits : {16u, 33u, 64u}) {
    const Bignum p = random_prime(bits, rng);
    EXPECT_EQ(p.bit_length(), bits);
    EXPECT_TRUE(is_probably_prime(p, rng));
  }
}

TEST(BignumPrimality, SafePrimeStructure) {
  Drbg rng(to_bytes("safe"));
  const Bignum p = random_safe_prime(48, rng);
  EXPECT_EQ(p.bit_length(), 48u);
  EXPECT_TRUE(is_probably_prime(p, rng));
  EXPECT_TRUE(is_probably_prime((p - Bignum(1)) >> 1, rng));
}

TEST(BignumModular, FermatInverse) {
  Drbg rng(to_bytes("inv"));
  const Bignum p = random_prime(128, rng);
  for (int i = 0; i < 10; ++i) {
    const Bignum a = random_nonzero_below(p, rng);
    const Bignum inv = mod_inv_prime(a, p);
    EXPECT_EQ(mod_mul(a, inv, p), Bignum(1));
  }
  EXPECT_THROW(mod_inv_prime(Bignum(0), p), std::domain_error);
  EXPECT_THROW(mod_inv_prime(p, p), std::domain_error);
}

// Reference Jacobi symbol: the Euclidean loop (strip twos, reciprocity,
// reduce by long division) that crypto::jacobi replaced.
int reference_jacobi(const Bignum& a_in, const Bignum& n_in) {
  Bignum a = a_in % n_in;
  Bignum n = n_in;
  int result = 1;
  while (!a.is_zero()) {
    std::size_t twos = 0;
    while (!a.bit(twos)) ++twos;
    if (twos > 0) {
      a = a >> twos;
      const uint64_t n8 = n.low_u64() & 7;
      if ((twos & 1) && (n8 == 3 || n8 == 5)) result = -result;
    }
    if ((a.low_u64() & 3) == 3 && (n.low_u64() & 3) == 3) result = -result;
    std::swap(a, n);
    a = a % n;
  }
  return n == Bignum(1) ? result : 0;
}

TEST(BignumModular, JacobiMatchesEulerCriterionOnPrimes) {
  // For odd prime p the Jacobi symbol is the Legendre symbol, which Euler's
  // criterion computes as a^((p-1)/2) mod p.  This is exactly the use in
  // ModGroup::is_element, where Jacobi replaces the full modexp.  The
  // benchmark widths (the MODP primes and random 1024-bit primes) run the
  // multi-limb paths of the matrix updates and the length shrinking.
  Drbg rng(to_bytes("jacobi"));
  std::vector<Bignum> primes = {random_prime(32, rng), random_prime(128, rng),
                                ModGroup::modp_512().p(),
                                ModGroup::modp_1024().p()};
  for (int i = 0; i < 2; ++i) primes.push_back(random_prime(1024, rng));
  for (const Bignum& p : primes) {
    const Montgomery m(p);
    const Bignum half = (p - Bignum(1)) >> 1;
    for (int i = 0; i < 20; ++i) {
      const Bignum a = random_nonzero_below(p, rng);
      const Bignum euler = m.from_mont(m.exp(m.to_mont(a), half));
      const int expected = euler == Bignum(1) ? 1 : -1;
      EXPECT_EQ(jacobi(a, p), expected) << "bits=" << p.bit_length();
      EXPECT_EQ(jacobi_binary(a, p), expected) << "bits=" << p.bit_length();
      // Periodicity in the top argument.
      EXPECT_EQ(jacobi(a + p, p), expected);
    }
    EXPECT_EQ(jacobi(Bignum(0), p), 0);
    EXPECT_EQ(jacobi(p, p), 0);
    EXPECT_EQ(jacobi(Bignum(1), p), 1);
    EXPECT_EQ(jacobi(p - Bignum(1), p), reference_jacobi(p - Bignum(1), p));
  }
}

TEST(BignumModular, JacobiMatchesReferenceOnAllSmallModuli) {
  // Every (a, m) with m odd below 2000 and 0 <= a < m, covering composite
  // moduli, shared factors (symbol 0) and m = 1.  Both the posdivsteps
  // loop and the binary fallback must agree with the Euclidean reference.
  int mismatches = 0;
  for (uint64_t m = 1; m < 2000; m += 2) {
    for (uint64_t a = 0; a < m; ++a) {
      const int expected = reference_jacobi(a, m);
      if (jacobi(a, m) != expected || jacobi_binary(a, m) != expected) {
        ADD_FAILURE() << "a=" << a << " m=" << m;
        if (++mismatches > 10) return;
      }
    }
  }
}

TEST(BignumModular, JacobiKnownValuesAndCompositeModulus) {
  // Known table values: (2/15) = 1, (7/15) = -1, (1001/9907) = -1 (classic
  // textbook example), and gcd(a, n) > 1 gives 0.
  EXPECT_EQ(jacobi(Bignum(2), Bignum(15)), 1);
  EXPECT_EQ(jacobi(Bignum(7), Bignum(15)), -1);
  EXPECT_EQ(jacobi(Bignum(1001), Bignum(9907)), -1);
  EXPECT_EQ(jacobi(Bignum(5), Bignum(15)), 0);
  EXPECT_THROW(jacobi(Bignum(3), Bignum(8)), std::domain_error);
  // Odd composites at benchmark widths, with and without a shared factor.
  Drbg rng(to_bytes("jacobi-composite"));
  for (const std::size_t bits : {std::size_t{65}, std::size_t{512},
                                 std::size_t{1024}, std::size_t{1100}}) {
    for (int i = 0; i < 10; ++i) {
      Bignum n = random_below(Bignum(1) << bits, rng);
      if (!n.is_odd()) n = n + Bignum(1);
      const Bignum a = random_below(n, rng);
      EXPECT_EQ(jacobi(a, n), reference_jacobi(a, n)) << "bits=" << bits;
      EXPECT_EQ(jacobi(a * Bignum(3), n * Bignum(15)), 0) << "bits=" << bits;
      EXPECT_EQ(jacobi_binary(a * Bignum(3), n * Bignum(15)), 0)
          << "bits=" << bits;
    }
  }
}

TEST(BignumRandom, RandomBelowIsInRange) {
  Drbg rng(to_bytes("below"));
  const Bignum bound = Bignum::from_hex("10000000000000000000001");
  for (int i = 0; i < 50; ++i) {
    EXPECT_LT(random_below(bound, rng), bound);
  }
  EXPECT_TRUE(random_below(Bignum(1), rng).is_zero());
  EXPECT_EQ(random_nonzero_below(Bignum(2), rng), Bignum(1));
  EXPECT_THROW(random_below(Bignum(0), rng), std::domain_error);
}

}  // namespace
}  // namespace scab::crypto
