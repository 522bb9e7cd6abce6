#include "secretshare/arss.h"

#include <algorithm>

#include "common/serialize.h"

namespace scab::secretshare {

bool for_each_combination(
    std::size_t m, std::size_t k,
    const std::function<bool(std::span<const std::size_t>)>& fn) {
  if (k > m) return false;
  std::vector<std::size_t> idx(k);
  if (k == 0) return fn(idx);  // the single empty combination
  for (std::size_t i = 0; i < k; ++i) idx[i] = i;
  for (;;) {
    if (fn(idx)) return true;
    // Advance to the next combination in lexicographic order.
    std::size_t i = k;
    while (i-- > 0) {
      if (idx[i] != i + m - k) break;
      if (i == 0) return false;
    }
    if (idx[i] == i + m - k) return false;
    ++idx[i];
    for (std::size_t j = i + 1; j < k; ++j) idx[j] = idx[j - 1] + 1;
  }
}

// ---------------------------------------------------------------------------
// ARSS1

namespace {

Bytes encode_pair(BytesView secret, BytesView opening) {
  Writer w;
  w.bytes(secret);
  w.bytes(opening);
  return std::move(w).take();
}

bool decode_pair(BytesView encoded, Bytes& secret, Bytes& opening) {
  Reader r(encoded);
  secret = r.bytes();
  opening = r.bytes();
  return r.done();
}

}  // namespace

Bytes Arss1Share::serialize() const {
  Writer w;
  w.bytes(commitment);
  w.bytes(inner.serialize());
  return std::move(w).take();
}

std::optional<Arss1Share> Arss1Share::parse(BytesView wire) {
  Reader r(wire);
  Arss1Share s;
  s.commitment = r.bytes();
  const Bytes inner_wire = r.bytes();
  if (!r.done()) return std::nullopt;
  auto inner = ShamirShare::parse(inner_wire);
  if (!inner) return std::nullopt;
  s.inner = std::move(*inner);
  return s;
}

std::vector<Arss1Share> arss1_share(BytesView secret, uint32_t t, uint32_t n,
                                    const crypto::Commitment& cs,
                                    crypto::Drbg& rng) {
  const crypto::Committed c = cs.commit(secret, rng);
  const Bytes pair = encode_pair(secret, c.decommitment);
  std::vector<ShamirShare> inner = shamir_share(pair, t, n, rng);

  std::vector<Arss1Share> out(n);
  for (uint32_t i = 0; i < n; ++i) {
    out[i].commitment = c.commitment;
    out[i].inner = std::move(inner[i]);
  }
  return out;
}

Arss1Reconstructor::Arss1Reconstructor(const crypto::Commitment& cs, uint32_t f,
                                       std::optional<Bytes> expected_commitment)
    : cs_(cs), f_(f), expected_(std::move(expected_commitment)) {}

std::optional<Bytes> Arss1Reconstructor::add(const Arss1Share& share) {
  if (done_) return std::nullopt;
  if (share.inner.index == 0) return std::nullopt;
  if (expected_ && share.commitment != *expected_) return std::nullopt;

  // Locate (or create) the share set tagged by this commitment.
  std::vector<Arss1Share>* set = nullptr;
  for (auto& [c, shares] : sets_) {
    if (c == share.commitment) {
      set = &shares;
      break;
    }
  }
  if (set == nullptr) {
    // Once any set reached t = f+1 shares, competing sets are dropped and
    // no new ones accepted (the paper's "drops other sets" rule).
    for (const auto& [c, shares] : sets_) {
      if (shares.size() >= f_ + 1) return std::nullopt;
    }
    sets_.emplace_back(share.commitment, std::vector<Arss1Share>{});
    set = &sets_.back().second;
  }

  // Stop accepting new shares into a set at 2f+1 (enough to guarantee f+1
  // correct ones); ignore duplicate indices.
  if (set->size() >= 2 * f_ + 1) return std::nullopt;
  for (const auto& s : *set) {
    if (s.inner.index == share.inner.index) return std::nullopt;
  }
  set->push_back(share);
  ++received_;

  if (set->size() >= f_ + 1) {
    auto secret = try_recover(*set, share.commitment);
    if (secret) {
      done_ = true;
      return secret;
    }
  }
  return std::nullopt;
}

std::optional<Bytes> Arss1Reconstructor::try_recover(
    std::vector<Arss1Share>& set, const Bytes& commitment) {
  const std::size_t t = f_ + 1;
  std::optional<Bytes> result;
  for_each_combination(set.size(), t, [&](std::span<const std::size_t> pick) {
    ++attempts_;
    std::vector<ShamirShare> subset;
    subset.reserve(t);
    for (std::size_t i : pick) subset.push_back(set[i].inner);
    const auto pair = shamir_reconstruct(subset);
    if (!pair) return false;
    Bytes secret, opening;
    if (!decode_pair(*pair, secret, opening)) return false;
    if (!cs_.open(commitment, secret, opening)) return false;
    result = std::move(secret);
    return true;
  });
  return result;
}

// ---------------------------------------------------------------------------
// ARSS2

std::vector<ShamirShare> arss2_share(BytesView secret, uint32_t f, uint32_t n,
                                     crypto::Drbg& rng) {
  return shamir_share(secret, f + 1, n, rng);
}

Arss2Reconstructor::Arss2Reconstructor(uint32_t f,
                                       std::optional<ShamirShare> own_share,
                                       Arss2Mode mode)
    : f_(f), mode_(mode) {
  if (own_share) anchor(std::move(*own_share));
}

std::size_t Arss2Reconstructor::pool_cap() const {
  // kFast: 2f+2 shares guarantee f+2 correct ones (the paper's bound).
  // kRobust: the 2f+1-agreement quorum may need every honest share, and up
  // to f corrupt ones can crowd the pool first.
  return mode_ == Arss2Mode::kFast ? 2 * f_ + 2 : 3 * f_ + 1;
}

std::optional<Bytes> Arss2Reconstructor::add(const ShamirShare& share) {
  if (done_) return std::nullopt;
  if (share.index == 0) return std::nullopt;
  for (const auto& s : shares_) {
    if (s.index == share.index) return std::nullopt;
  }
  if (shares_.size() >= pool_cap()) return std::nullopt;
  shares_.push_back(share);

  if (shares_.size() >= f_ + 2) {
    auto secret = try_recover();
    if (secret) {
      done_ = true;
      return secret;
    }
  }
  return std::nullopt;
}

std::optional<Bytes> Arss2Reconstructor::anchor(ShamirShare own) {
  if (done_ || has_own_ || own.index == 0) return std::nullopt;
  std::erase_if(shares_,
                [&](const ShamirShare& s) { return s.index == own.index; });
  shares_.insert(shares_.begin(), std::move(own));
  has_own_ = true;
  auto secret = try_recover();
  done_ = secret.has_value();
  return secret;
}

std::optional<Bytes> Arss2Reconstructor::try_recover() {
  const std::size_t want = f_ + 2;  // consistent subset size
  std::optional<Bytes> result;

  // When we hold our own (trusted) share it anchors every subset: choose
  // the remaining f+1 from the others.  Otherwise choose all f+2 freely.
  const std::size_t fixed = has_own_ ? 1 : 0;
  const std::size_t choose = want - fixed;
  const std::size_t pool = shares_.size() - fixed;
  if (shares_.size() < want) return std::nullopt;

  for_each_combination(pool, choose, [&](std::span<const std::size_t> pick) {
    ++attempts_;
    std::vector<const ShamirShare*> subset;
    subset.reserve(want);
    if (has_own_) subset.push_back(&shares_[0]);
    for (std::size_t i : pick) subset.push_back(&shares_[fixed + i]);
    if (!shamir_consistent(subset, f_)) return false;
    if (mode_ == Arss2Mode::kRobust && !candidate_has_quorum(subset)) {
      return false;
    }

    // Reconstruct from the first f+1 shares of the consistent subset.
    std::vector<ShamirShare> points;
    points.reserve(f_ + 1);
    for (std::size_t i = 0; i < f_ + 1; ++i) points.push_back(*subset[i]);
    auto secret = shamir_reconstruct(points);
    if (!secret) return false;
    result = std::move(secret);
    return true;
  });
  return result;
}

bool Arss2Reconstructor::candidate_has_quorum(
    std::span<const ShamirShare* const> base) const {
  // Counts received shares lying on the candidate polynomial (defined by
  // the first f+1 base points) and requires >= 2f+1 of them.
  std::vector<Fe> xs(f_ + 1), ys(f_ + 1);
  std::size_t agree = 0;
  for (const auto& s : shares_) {
    bool on_curve = true;
    for (std::size_t c = 0; c < s.values.size() && on_curve; ++c) {
      for (std::size_t i = 0; i <= f_; ++i) {
        xs[i] = Fe(base[i]->index);
        ys[i] = base[i]->values[c];
      }
      on_curve = interpolate_at(xs, ys, Fe(s.index)) == s.values[c];
    }
    if (on_curve && !s.values.empty()) ++agree;
    if (s.values.empty()) ++agree;  // empty secret: every share agrees
  }
  return agree >= 2 * f_ + 1;
}

}  // namespace scab::secretshare
