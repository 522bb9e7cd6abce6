// Asynchronous robust secret sharing (ARSS), paper §IV-C.
//
// ARSS strengthens Bellare–Rogaway robust secret sharing to asynchronous
// networks: the reconstructor cannot mark missing shares, it just keeps
// receiving shares one at a time (some possibly Byzantine) and must decide
// when recovery is possible.  The dealer is correct; up to f = t-1 servers
// are Byzantine; n >= 3f + 1.
//
// Two constructions, as in the paper:
//
//  * ARSS1 (computational) — generic over any secret-sharing scheme and any
//    commitment scheme: Share(s) commits (c, d) <- Commit(s), Shamir-shares
//    the *pair* (s, d), and tags every share with c.  Recovery tries
//    (f+1)-subsets until one opens against c.  Worst case C(2f+1, f+1)
//    combinations; each attempt costs one interpolation + one hash.
//
//  * ARSS2 (information-theoretic) — Harn–Lin style, specific to Shamir:
//    plain Shamir shares; recovery waits for f+2 shares and searches for a
//    subset of size f+2 on which interpolation yields a polynomial of
//    degree <= f (checked per 7-byte chunk).  Worst case C(2f+2, f+2)
//    combinations.  Soundness is statistical (~2^-61 per chunk), and — as
//    DESIGN.md notes — every candidate subset must contain the
//    reconstructor's own share when the reconstructor is a share holder,
//    which is the deployment CP3 uses.
//
// Both reconstructors are *incremental*: feed shares as they arrive (the
// asynchronous model), get the secret back as soon as it is recoverable.
#pragma once

#include <functional>
#include <optional>
#include <vector>

#include "crypto/commitment.h"
#include "secretshare/shamir.h"

namespace scab::secretshare {

/// Enumerates all k-subsets of [0..m), invoking fn(indices); stops early if
/// fn returns true.  Returns true iff some fn invocation returned true.
bool for_each_combination(std::size_t m, std::size_t k,
                          const std::function<bool(std::span<const std::size_t>)>& fn);

// ---------------------------------------------------------------------------
// ARSS1

struct Arss1Share {
  Bytes commitment;   // c — tags the share set
  ShamirShare inner;  // Shamir share of the encoded pair (s, d)

  Bytes serialize() const;
  static std::optional<Arss1Share> parse(BytesView wire);
};

/// Share: (c, d) <- Commit(s); S' <- Shamir(s || d, t, n); S[i] = (c, S'[i]).
std::vector<Arss1Share> arss1_share(BytesView secret, uint32_t t, uint32_t n,
                                    const crypto::Commitment& cs,
                                    crypto::Drbg& rng);

/// Incremental ARSS1 reconstructor for a (f+1, n) sharing.
///
/// In the generic (client-side) deployment it maintains share sets keyed by
/// commitment, drops competing sets once one reaches t shares, and stops
/// accepting after 2f+1 shares, exactly as the paper describes.  In the
/// CP2 deployment the commitment has already been agreed via BFT, so pass
/// it as `expected_commitment`: shares tagged otherwise are rejected
/// immediately and no set bookkeeping is needed.
class Arss1Reconstructor {
 public:
  Arss1Reconstructor(const crypto::Commitment& cs, uint32_t f,
                     std::optional<Bytes> expected_commitment = std::nullopt);

  /// Feeds one share. Returns the secret once recoverable; afterwards the
  /// reconstructor is done() and further shares are ignored.
  std::optional<Bytes> add(const Arss1Share& share);

  bool done() const { return done_; }
  /// Number of reconstruction attempts performed so far (bench metric).
  std::size_t attempts() const { return attempts_; }
  std::size_t shares_received() const { return received_; }

 private:
  std::optional<Bytes> try_recover(std::vector<Arss1Share>& set,
                                   const Bytes& commitment);

  const crypto::Commitment& cs_;
  uint32_t f_;
  std::optional<Bytes> expected_;
  // Share sets keyed by commitment (linear scan: the honest set plus at
  // most f adversarial ones).
  std::vector<std::pair<Bytes, std::vector<Arss1Share>>> sets_;
  std::size_t attempts_ = 0;
  std::size_t received_ = 0;
  bool done_ = false;
};

// ---------------------------------------------------------------------------
// ARSS2

/// Share: identical to plain Shamir with t = f + 1.
std::vector<ShamirShare> arss2_share(BytesView secret, uint32_t f, uint32_t n,
                                     crypto::Drbg& rng);

/// Acceptance rule for ARSS2 reconstruction.
///
/// kFast is the paper's rule verbatim: accept the first (f+2)-subset whose
/// points lie on one degree-<=f polynomial.  Reproduction note (see
/// DESIGN.md): against *colluding* cheaters this rule is unsound for f >= 2.
/// A coalition that shifts its shares by delta_i = Delta(x_i), where Delta
/// is a degree-<=f polynomial with roots at the reconstructor's index and at
/// f-1 chosen honest indices (all indices are public!), makes the subset
/// {own, cheaters..., chosen-honest} consistent yet reconstruct P + Delta.
/// The paper's evaluation only exercises *randomly* corrupted shares, for
/// which a wrong-but-consistent subset occurs with probability ~2^-61 per
/// chunk, so kFast reproduces the paper's behaviour.
///
/// kRobust closes the gap: a candidate polynomial is accepted only once it
/// agrees with >= 2f+1 distinct received shares.  At most f of those can be
/// corrupt, so >= f+1 honest points pin the candidate to the dealt
/// polynomial.  Costs f-1 extra shares of latency in the worst case (pool
/// may need to grow to 3f+1, which n = 3f+1 guarantees eventually).
enum class Arss2Mode { kFast, kRobust };

/// Incremental ARSS2 reconstructor for a (f+1, n) sharing.
///
/// If `own_share` is provided (the CP3 deployment: reconstructors are share
/// holders), it is trusted correct and included in every candidate subset —
/// see the soundness note at the top of this header.
class Arss2Reconstructor {
 public:
  explicit Arss2Reconstructor(uint32_t f,
                              std::optional<ShamirShare> own_share = std::nullopt,
                              Arss2Mode mode = Arss2Mode::kFast);

  /// Feeds one share (shares from distinct servers; duplicates by index are
  /// ignored). Returns the secret once a consistent subset exists.
  std::optional<Bytes> add(const ShamirShare& share);
  /// Our own share arriving after construction: it becomes the trusted
  /// anchor exactly as if passed to the constructor (replacing any share
  /// that claimed its index).  No-op once anchored or done.
  std::optional<Bytes> anchor(ShamirShare own);

  bool done() const { return done_; }
  std::size_t attempts() const { return attempts_; }
  std::size_t shares_received() const { return shares_.size(); }

 private:
  std::optional<Bytes> try_recover();
  std::size_t pool_cap() const;
  bool candidate_has_quorum(std::span<const ShamirShare* const> base) const;

  uint32_t f_;
  Arss2Mode mode_;
  bool has_own_ = false;
  std::vector<ShamirShare> shares_;  // own share (if any) always at [0]
  std::size_t attempts_ = 0;
  bool done_ = false;
};

}  // namespace scab::secretshare
