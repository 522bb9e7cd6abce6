// Tests for the two asynchronous robust secret-sharing constructions,
// including full corruption-pattern sweeps: up to f Byzantine share holders
// submit adversarially modified shares in every arrival order.
#include "secretshare/arss.h"

#include <gtest/gtest.h>

#include <numeric>

namespace scab::secretshare {
namespace {

using crypto::Commitment;
using crypto::Drbg;

TEST(Combinations, EnumeratesAllSubsets) {
  int count = 0;
  for_each_combination(5, 3, [&](std::span<const std::size_t> idx) {
    EXPECT_EQ(idx.size(), 3u);
    EXPECT_TRUE(idx[0] < idx[1] && idx[1] < idx[2]);
    EXPECT_LT(idx[2], 5u);
    ++count;
    return false;
  });
  EXPECT_EQ(count, 10);  // C(5,3)
}

TEST(Combinations, EarlyStop) {
  int count = 0;
  const bool found = for_each_combination(6, 2, [&](auto) {
    ++count;
    return count == 3;
  });
  EXPECT_TRUE(found);
  EXPECT_EQ(count, 3);
}

TEST(Combinations, EdgeCases) {
  int count = 0;
  EXPECT_FALSE(for_each_combination(3, 5, [&](auto) {
    ++count;
    return false;
  }));
  EXPECT_EQ(count, 0);

  EXPECT_TRUE(for_each_combination(3, 0, [&](std::span<const std::size_t> idx) {
    EXPECT_TRUE(idx.empty());
    return true;
  }));

  count = 0;
  for_each_combination(4, 4, [&](auto) {
    ++count;
    return false;
  });
  EXPECT_EQ(count, 1);
}

// ---------------------------------------------------------------------------

class ArssTest : public ::testing::TestWithParam<uint32_t> {
 protected:
  uint32_t f() const { return GetParam(); }
  uint32_t n() const { return 3 * f() + 1; }

  Drbg rng_{to_bytes("arss-test")};
  Commitment cs_{Commitment::cgen(rng_)};
  Bytes secret_ = to_bytes("the causal request payload #42");
};

// --- ARSS1 ---

TEST_P(ArssTest, Arss1HonestRecovery) {
  const auto shares = arss1_share(secret_, f() + 1, n(), cs_, rng_);
  ASSERT_EQ(shares.size(), n());

  Arss1Reconstructor rec(cs_, f());
  std::optional<Bytes> out;
  std::size_t fed = 0;
  for (const auto& s : shares) {
    out = rec.add(s);
    ++fed;
    if (out) break;
  }
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, secret_);
  EXPECT_EQ(fed, f() + 1);  // recovers as soon as t shares arrive
  EXPECT_TRUE(rec.done());
}

TEST_P(ArssTest, Arss1RecoversUnderEveryCorruptionPattern) {
  const auto shares = arss1_share(secret_, f() + 1, n(), cs_, rng_);

  // Every way of choosing f corrupted holders among the first 2f+1 senders.
  for_each_combination(2 * f() + 1, f(), [&](std::span<const std::size_t> bad) {
    Arss1Reconstructor rec(cs_, f());
    std::optional<Bytes> out;
    for (std::size_t i = 0; i < 2 * f() + 1 && !out; ++i) {
      Arss1Share s = shares[i];
      if (std::find(bad.begin(), bad.end(), i) != bad.end()) {
        s.inner.values[0] = s.inner.values[0] + Fe(1 + i);  // corrupted value
      }
      out = rec.add(s);
    }
    EXPECT_TRUE(out.has_value());
    EXPECT_EQ(*out, secret_);
    return false;
  });
}

TEST_P(ArssTest, Arss1AdversaryCannotForceWrongSecret) {
  const auto shares = arss1_share(secret_, f() + 1, n(), cs_, rng_);
  // All-corrupt-first arrival order: the reconstructor must not be fooled
  // into opening a wrong value; it waits for honest shares.
  Arss1Reconstructor rec(cs_, f());
  std::optional<Bytes> out;
  for (uint32_t i = 0; i < f(); ++i) {
    Arss1Share s = shares[i];
    for (auto& v : s.inner.values) v = v + Fe(7);
    out = rec.add(s);
    EXPECT_FALSE(out.has_value());
  }
  for (uint32_t i = f(); i < 2 * f() + 1 && !out; ++i) out = rec.add(shares[i]);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, secret_);
}

TEST_P(ArssTest, Arss1ExpectedCommitmentFiltersForeignShares) {
  const auto good = arss1_share(secret_, f() + 1, n(), cs_, rng_);
  const auto evil = arss1_share(to_bytes("derived request"), f() + 1, n(), cs_, rng_);

  Arss1Reconstructor rec(cs_, f(), good[0].commitment);
  std::optional<Bytes> out;
  // Feed a full set of shares for a DIFFERENT secret first: all rejected.
  for (const auto& s : evil) {
    EXPECT_FALSE(rec.add(s).has_value());
  }
  for (const auto& s : good) {
    out = rec.add(s);
    if (out) break;
  }
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, secret_);
}

TEST_P(ArssTest, Arss1GenericModeDropsCompetingSetsOnceFull) {
  const auto good = arss1_share(secret_, f() + 1, n(), cs_, rng_);
  const auto evil = arss1_share(to_bytes("other"), f() + 1, n(), cs_, rng_);

  Arss1Reconstructor rec(cs_, f());
  // Deliver t honest shares -> recovery. Competing sets never matter.
  std::optional<Bytes> out;
  for (uint32_t i = 0; i <= f(); ++i) out = rec.add(good[i]);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, secret_);
  // After done(), everything is ignored.
  EXPECT_FALSE(rec.add(evil[0]).has_value());
}

TEST_P(ArssTest, Arss1IgnoresDuplicateIndices) {
  const auto shares = arss1_share(secret_, f() + 1, n(), cs_, rng_);
  Arss1Reconstructor rec(cs_, f());
  if (f() == 0) GTEST_SKIP();
  EXPECT_FALSE(rec.add(shares[0]).has_value());
  EXPECT_FALSE(rec.add(shares[0]).has_value());
  EXPECT_EQ(rec.shares_received(), 1u);
}

TEST_P(ArssTest, Arss1SerializeRoundTrip) {
  const auto shares = arss1_share(secret_, f() + 1, n(), cs_, rng_);
  for (const auto& s : shares) {
    const auto parsed = Arss1Share::parse(s.serialize());
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->commitment, s.commitment);
    EXPECT_EQ(parsed->inner, s.inner);
  }
  EXPECT_FALSE(Arss1Share::parse(Bytes{1, 2, 3}).has_value());
}

// --- ARSS2 ---

TEST_P(ArssTest, Arss2HonestRecovery) {
  const auto shares = arss2_share(secret_, f(), n(), rng_);
  ASSERT_EQ(shares.size(), n());

  // The CP3 deployment: reconstructor holds share[0].
  Arss2Reconstructor rec(f(), shares[0]);
  std::optional<Bytes> out;
  std::size_t fed = 0;
  for (uint32_t i = 1; i < n() && !out; ++i) {
    out = rec.add(shares[i]);
    ++fed;
  }
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, secret_);
  EXPECT_EQ(fed, f() + 1);  // own + f+1 others = f+2 total
}

TEST_P(ArssTest, Arss2RecoversUnderEveryCorruptionPattern) {
  const auto shares = arss2_share(secret_, f(), n(), rng_);

  // Adversary corrupts f of the 2f+1 foreign senders, any pattern; the
  // reconstructor (holding its own share) must still recover the original.
  for_each_combination(2 * f() + 1, f(), [&](std::span<const std::size_t> bad) {
    Arss2Reconstructor rec(f(), shares[0]);
    std::optional<Bytes> out;
    for (std::size_t i = 0; i < 2 * f() + 1 && !out; ++i) {
      ShamirShare s = shares[1 + i];
      if (std::find(bad.begin(), bad.end(), i) != bad.end()) {
        for (auto& v : s.values) v = v + Fe(13 + i);
      }
      out = rec.add(s);
    }
    EXPECT_TRUE(out.has_value());
    EXPECT_EQ(*out, secret_);
    return false;
  });
}

TEST_P(ArssTest, Arss2CorruptFirstArrivalsDelayButDontDefeat) {
  if (f() == 0) GTEST_SKIP();
  const auto shares = arss2_share(secret_, f(), n(), rng_);
  Arss2Reconstructor rec(f(), shares[0]);
  std::optional<Bytes> out;
  // f randomly-corrupted shares arrive first (value-dependent garbling, the
  // paper's "randomly corrupt replicas" model — see the DeltaShift tests
  // below for the colluding-cheater case).
  for (uint32_t i = 0; i < f(); ++i) {
    ShamirShare s = shares[1 + i];
    for (auto& v : s.values) v = v * Fe(3) + Fe(1 + i);
    out = rec.add(s);
    EXPECT_FALSE(out.has_value());
  }
  // Honest shares then arrive.
  uint32_t honest_fed = 0;
  for (uint32_t i = f(); !out && 1 + i < n(); ++i) {
    out = rec.add(shares[1 + i]);
    ++honest_fed;
  }
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, secret_);
  EXPECT_GE(rec.attempts(), 1u);
}

TEST_P(ArssTest, Arss2WithoutOwnShare) {
  // Client-side reconstruction (no trusted anchor): honest shares only.
  const auto shares = arss2_share(secret_, f(), n(), rng_);
  Arss2Reconstructor rec(f());
  std::optional<Bytes> out;
  for (uint32_t i = 0; i < n() && !out; ++i) out = rec.add(shares[i]);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, secret_);
}

TEST_P(ArssTest, Arss2LateAnchorRecoversFromFPlusOneOthers) {
  // CP3 with the dealt share arriving after f+1 foreign ones: too few to
  // recover unanchored, enough once our own share anchors the subsets.
  const auto shares = arss2_share(secret_, f(), n(), rng_);
  Arss2Reconstructor rec(f());
  for (uint32_t i = 1; i <= f() + 1; ++i) {
    EXPECT_FALSE(rec.add(shares[i]).has_value());
  }
  const auto out = rec.anchor(shares[0]);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, secret_);
  EXPECT_FALSE(rec.anchor(shares[0]).has_value());  // done
}

TEST_P(ArssTest, Arss2LateAnchorDisplacesAForgedShareOfItsIndex) {
  // A corrupt share claiming our index must not survive next to the anchor.
  const auto shares = arss2_share(secret_, f(), n(), rng_);
  Arss2Reconstructor rec(f());
  ShamirShare forged = shares[0];
  for (auto& v : forged.values) v = v + Fe(7);
  EXPECT_FALSE(rec.add(forged).has_value());
  for (uint32_t i = 1; i <= f(); ++i) {
    EXPECT_FALSE(rec.add(shares[i]).has_value());
  }
  EXPECT_FALSE(rec.anchor(shares[0]).has_value());  // own + f others
  const auto out = rec.add(shares[f() + 1]);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, secret_);
}

TEST_P(ArssTest, Arss2IgnoresDuplicatesAndDoneState) {
  const auto shares = arss2_share(secret_, f(), n(), rng_);
  Arss2Reconstructor rec(f(), shares[0]);
  EXPECT_FALSE(rec.add(shares[0]).has_value());  // duplicate of own
  std::optional<Bytes> out;
  for (uint32_t i = 1; i < n() && !out; ++i) out = rec.add(shares[i]);
  ASSERT_TRUE(out.has_value());
  EXPECT_TRUE(rec.done());
  EXPECT_FALSE(rec.add(shares[n() - 1]).has_value());
}

// --- The colluding-cheater (Delta-shift) attack on ARSS2's fast rule ---
//
// Cheaters shift their shares by Delta(x_i), where Delta is a degree-<=f
// polynomial with roots at the reconstructor's index and at f-1 chosen
// honest indices.  The first (f+2)-subset the reconstructor tests —
// {own, cheaters..., the chosen honest share} — is then consistent but
// reconstructs P + Delta.  The paper's rule (kFast) is defeated; the
// quorum rule (kRobust) is not.  See arss.h and DESIGN.md.

std::vector<ShamirShare> delta_shift_corrupt(
    const std::vector<ShamirShare>& shares, uint32_t f, uint32_t own_index,
    std::span<const uint32_t> honest_roots) {
  // Delta(x) = (x - own) * prod (x - root), degree 1 + (f-1) = f.
  auto delta_at = [&](Fe x) {
    Fe d = x - Fe(own_index);
    for (uint32_t r : honest_roots) d = d * (x - Fe(r));
    return d;
  };
  std::vector<ShamirShare> corrupted;
  for (uint32_t i = 0; i < f; ++i) {
    ShamirShare s = shares[1 + i];  // cheaters hold indices 2..f+1
    const Fe shift = delta_at(Fe(s.index));
    for (auto& v : s.values) v = v + shift;
    corrupted.push_back(std::move(s));
  }
  return corrupted;
}

TEST_P(ArssTest, Arss2DeltaShiftCollusionDefeatsFastMode) {
  if (f() < 2) GTEST_SKIP() << "attack needs f >= 2 (f-1 >= 1 chosen roots)";
  const auto shares = arss2_share(secret_, f(), n(), rng_);

  // Cheaters pick honest indices f+2 .. 2f as Delta roots (f-1 of them) and
  // rush their shares plus the chosen honest share(s) to the reconstructor.
  std::vector<uint32_t> roots;
  for (uint32_t r = f() + 2; r <= 2 * f(); ++r) roots.push_back(r);
  const auto corrupted = delta_shift_corrupt(shares, f(), 1, roots);

  Arss2Reconstructor rec(f(), shares[0], Arss2Mode::kFast);
  std::optional<Bytes> out;
  for (const auto& s : corrupted) out = rec.add(s);
  for (uint32_t r : roots) {
    if (!out) out = rec.add(shares[r - 1]);
  }
  ASSERT_TRUE(out.has_value()) << "poisoned subset should look consistent";
  EXPECT_NE(*out, secret_) << "kFast accepted a forged polynomial";
}

TEST_P(ArssTest, Arss2RobustModeResistsDeltaShiftCollusion) {
  if (f() < 2) GTEST_SKIP();
  const auto shares = arss2_share(secret_, f(), n(), rng_);
  std::vector<uint32_t> roots;
  for (uint32_t r = f() + 2; r <= 2 * f(); ++r) roots.push_back(r);
  const auto corrupted = delta_shift_corrupt(shares, f(), 1, roots);

  Arss2Reconstructor rec(f(), shares[0], Arss2Mode::kRobust);
  std::optional<Bytes> out;
  for (const auto& s : corrupted) {
    out = rec.add(s);
    EXPECT_FALSE(out.has_value());
  }
  for (uint32_t r : roots) {
    out = rec.add(shares[r - 1]);
    EXPECT_FALSE(out.has_value()) << "forged curve must not reach quorum";
  }
  // Remaining honest shares arrive; the true polynomial reaches 2f+1.
  for (uint32_t i = 1; i < n() && !out; ++i) {
    const auto& s = shares[i];
    bool already = s.index <= f() + 1;  // cheater indices were consumed
    for (uint32_t r : roots) already = already || s.index == r;
    if (already) continue;
    out = rec.add(s);
  }
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, secret_);
}

TEST_P(ArssTest, Arss2RobustModeHonestPathStillWorks) {
  const auto shares = arss2_share(secret_, f(), n(), rng_);
  Arss2Reconstructor rec(f(), shares[0], Arss2Mode::kRobust);
  std::optional<Bytes> out;
  for (uint32_t i = 1; i < n() && !out; ++i) out = rec.add(shares[i]);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, secret_);
  // Quorum rule: needs own + 2f more shares.
  EXPECT_EQ(rec.shares_received(), 2 * f() + 1);
}

INSTANTIATE_TEST_SUITE_P(FaultLevels, ArssTest, ::testing::Values(1u, 2u, 3u),
                         [](const auto& info) {
                           return "f" + std::to_string(info.param);
                         });

// ---------------------------------------------------------------------------

TEST(ArssCost, Arss2NeedsMoreSharesThanArss1) {
  // The paper's explanation for CP2 > CP3 throughput: ARSS2 requires f+2
  // shares in the failure-free case where ARSS1 needs only f+1.
  crypto::Drbg rng(to_bytes("cost"));
  const Commitment cs(Commitment::cgen(rng));
  const Bytes secret = to_bytes("hello");
  const uint32_t f = 2, n = 7;

  const auto s1 = arss1_share(secret, f + 1, n, cs, rng);
  Arss1Reconstructor r1(cs, f);
  std::size_t need1 = 0;
  for (const auto& s : s1) {
    ++need1;
    if (r1.add(s)) break;
  }

  const auto s2 = arss2_share(secret, f, n, rng);
  Arss2Reconstructor r2(f, s2[0]);
  std::size_t need2 = 1;  // own share
  for (uint32_t i = 1; i < n; ++i) {
    ++need2;
    if (r2.add(s2[i])) break;
  }
  EXPECT_EQ(need1, f + 1);
  EXPECT_EQ(need2, f + 2);
  EXPECT_LT(need1, need2);
}

}  // namespace
}  // namespace scab::secretshare
