// Cross-build replay oracle for the share-reveal protocols (CP0, CP2, CP3).
//
// DeterminismTest compares two runs of the SAME build; nothing there stops
// a refactor from changing the event schedule consistently in both runs.
// This suite pins fixed-seed simulator signatures as constants: a change to
// the reveal path that moves a single message, a charged nanosecond, or a
// retry shows up here.  The constants were captured from the simulator and
// must only be re-captured for a deliberate behaviour change.
//
// Four scenarios per protocol: the happy closed loop, one replica serving
// corrupted shares (Table IV), a backup crash + restart over in-memory
// durable storage, and a Byzantine replica flooding early shares (for ids
// that never exist AND for the ids the clients are about to use).
//
// On a mismatch the failure prints the observed signature in initializer
// form, ready to paste into kGolden below.
#include <gtest/gtest.h>

#include <cstdio>

#include "apps/kvstore.h"
#include "bft/client.h"
#include "bft/envelope.h"
#include "bft/keyring.h"
#include "causal/harness.h"
#include "causal/id.h"
#include "crypto/aead.h"
#include "crypto/commitment.h"
#include "crypto/sha256.h"
#include "secretshare/arss.h"

namespace scab::causal {
namespace {

enum class Scenario { kHappy, kCorruptShare, kCrashRestart, kEarlyFlood };

struct Signature {
  uint64_t completed = 0;
  uint64_t finished_at = 0;
  uint64_t total_latency = 0;
  uint64_t events = 0;
  uint64_t messages = 0;
  uint64_t result_digest = 0;  // first 8 bytes of sha256(last_result)
  uint64_t reveal_retries = 0;
  uint64_t early_stashed = 0;
  uint64_t share_rerequests_answered = 0;

  bool operator==(const Signature&) const = default;
};

std::string describe(const Signature& s) {
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "{%lluu, %lluu, %lluu, %lluu, %lluu, 0x%016llxu, %lluu, "
                "%lluu, %lluu}",
                static_cast<unsigned long long>(s.completed),
                static_cast<unsigned long long>(s.finished_at),
                static_cast<unsigned long long>(s.total_latency),
                static_cast<unsigned long long>(s.events),
                static_cast<unsigned long long>(s.messages),
                static_cast<unsigned long long>(s.result_digest),
                static_cast<unsigned long long>(s.reveal_retries),
                static_cast<unsigned long long>(s.early_stashed),
                static_cast<unsigned long long>(s.share_rerequests_answered));
  return buf;
}

constexpr uint32_t kClients = 2;
constexpr uint64_t kOpsPerClient = 6;
// Backups (the primary is 0).  The corrupt-share replica is one whose
// shares the LAN schedule makes its peers consume; the flooder and the
// crashed replica are the last backup.
constexpr bft::NodeId kCorruptReplica = 1;
constexpr bft::NodeId kFaultyReplica = 3;

const char* prefix(Protocol p) {
  switch (p) {
    case Protocol::kCp0:
      return "cp0";
    case Protocol::kCp2:
      return "cp2";
    default:
      return "cp3";
  }
}

// A share message from `from` to `to` for `id` that the receiver must treat
// as a (bogus) share: plain for CP0, AEAD-sealed over the private channel
// and carrying a parseable share for CP2/CP3.
Bytes bogus_share_body(Cluster& cluster, Protocol p, bft::NodeId from,
                       bft::NodeId to, const RequestId& id, crypto::Drbg& rng) {
  Writer w;
  id.write(w);
  if (p == Protocol::kCp0) {
    w.bytes(to_bytes("not-a-share"));
    return std::move(w).take();
  }
  const Bytes secret = to_bytes("bogus");
  Bytes wire;
  if (p == Protocol::kCp2) {
    // Tagged with a commitment nobody agreed on.
    const crypto::Commitment cs(crypto::Commitment::cgen(rng));
    wire = secretshare::arss1_share(secret, cluster.f() + 1, cluster.n(), cs,
                                    rng)[0]
               .serialize();
  } else {
    wire = secretshare::arss2_share(secret, cluster.f(), cluster.n(), rng)[1]
               .serialize();
  }
  w.bytes(crypto::aead_seal(cluster.keys().channel_key(from, to), id.encode(),
                            wire, rng));
  return std::move(w).take();
}

void flood_early_shares(Cluster& cluster, Protocol p) {
  crypto::Drbg rng(to_bytes("golden-flood"));
  std::vector<RequestId> ids;
  for (uint64_t i = 0; i < 40; ++i) {
    ids.push_back(RequestId{Cluster::client_id(7), 1000 + i});  // never exist
  }
  for (uint32_t c = 0; c < kClients; ++c) {
    for (uint64_t seq = 0; seq <= kOpsPerClient + 1; ++seq) {
      ids.push_back(RequestId{Cluster::client_id(c), seq});  // about to exist
    }
  }
  for (const RequestId& id : ids) {
    for (bft::NodeId to = 0; to < cluster.n(); ++to) {
      if (to == kFaultyReplica) continue;
      const Bytes body = bogus_share_body(cluster, p, kFaultyReplica, to, id, rng);
      cluster.net().send(kFaultyReplica, to,
                         bft::seal_envelope(cluster.keys(), bft::Channel::kCausal,
                                            kFaultyReplica, to, body));
    }
  }
}

Signature run(Protocol p, Scenario s) {
  ClusterOptions opts;
  opts.protocol = p;
  opts.bft = bft::BftConfig::for_f(1);
  opts.bft.checkpoint_interval = 4;
  opts.profile = sim::NetworkProfile::lan();
  opts.costs = host::CostModel::default_symmetric_era();
  opts.num_clients = kClients;
  opts.seed = 2017;
  opts.service_factory = [] { return std::make_unique<apps::KvStore>(); };
  if (s == Scenario::kCrashRestart) {
    opts.durability = ClusterOptions::Durability::kMem;
  }
  Cluster cluster(opts);
  if (s == Scenario::kCorruptShare) cluster.corrupt_replica_shares(kCorruptReplica);
  if (s == Scenario::kEarlyFlood) flood_early_shares(cluster, p);

  for (uint32_t c = 0; c < kClients; ++c) {
    cluster.client(c).run_closed_loop(
        [c](uint64_t i) {
          return apps::KvStore::put(std::to_string(c) + "/" + std::to_string(i),
                                    to_bytes("v" + std::to_string(i)));
        },
        kOpsPerClient);
  }
  auto& sim = cluster.sim();
  const sim::SimTime deadline = sim.now() + 600 * sim::kSecond;
  auto completed = [&] {
    uint64_t n = 0;
    for (uint32_t c = 0; c < kClients; ++c) n += cluster.client(c).completed_ops();
    return n;
  };
  if (s == Scenario::kCrashRestart) {
    // Crash a backup mid-run, keep the quorum working without it, then
    // bring it back over its surviving storage.
    sim.run_while([&] { return completed() >= 3 || sim.now() > deadline; });
    cluster.crash_replica(kFaultyReplica);
    sim.run_while([&] { return completed() >= 7 || sim.now() > deadline; });
    cluster.restart_replica(kFaultyReplica);
  }
  sim.run_while([&] {
    return completed() >= kClients * kOpsPerClient || sim.now() > deadline;
  });

  Signature sig;
  sig.completed = completed();
  sig.finished_at = sim.now();
  for (uint32_t c = 0; c < kClients; ++c) {
    sig.total_latency += cluster.client(c).total_latency();
  }
  // A quiet tail: lagging replicas finish catching up, and the reveal
  // retry / re-request machinery gets to run.
  sim.run_until(sim.now() + 10 * sim::kSecond);
  sig.events = sim.events_processed();
  sig.messages = cluster.net().messages_sent();
  const Bytes digest = crypto::sha256(cluster.client(0).last_result());
  for (int i = 0; i < 8; ++i) sig.result_digest = (sig.result_digest << 8) | digest[i];
  const std::string pfx = prefix(p);
  for (uint32_t r = 0; r < cluster.n(); ++r) {
    auto& m = cluster.replica_metrics(r);
    sig.reveal_retries += m.counter(pfx + ".reveal_retries").value();
    sig.early_stashed += m.counter(pfx + ".early_stashed").value();
    sig.share_rerequests_answered +=
        m.counter(pfx + ".share_rerequests_answered").value();
  }
  return sig;
}

struct Golden {
  Protocol protocol;
  Scenario scenario;
  const char* name;
  Signature expected;
};

// Order: completed, finished_at, total_latency, events, messages,
// result_digest, reveal_retries, early_stashed, share_rerequests_answered.
const Golden kGolden[] = {
    {Protocol::kCp0, Scenario::kHappy, "CP0_Happy",
     {12u, 135252728u, 262712865u, 1717u, 600u, 0x2689367b205c16ceu, 0u, 0u, 0u}},
    {Protocol::kCp0, Scenario::kCorruptShare, "CP0_CorruptShare",
     {12u, 158408268u, 307070227u, 2455u, 600u, 0x2689367b205c16ceu, 0u, 0u, 0u}},
    {Protocol::kCp0, Scenario::kCrashRestart, "CP0_CrashRestart",
     {12u, 135139154u, 262498934u, 2468u, 639u, 0x2689367b205c16ceu, 4u, 6u, 12u}},
    {Protocol::kCp0, Scenario::kEarlyFlood, "CP0_EarlyFlood",
     {12u, 175302961u, 339473519u, 6440u, 768u, 0x2689367b205c16ceu, 0u, 168u, 0u}},
    {Protocol::kCp2, Scenario::kHappy, "CP2_Happy",
     {12u, 4444998u, 8693827u, 2417u, 648u, 0x2689367b205c16ceu, 0u, 48u, 0u}},
    {Protocol::kCp2, Scenario::kCorruptShare, "CP2_CorruptShare",
     {12u, 4471273u, 8747330u, 2376u, 648u, 0x2689367b205c16ceu, 0u, 48u, 0u}},
    {Protocol::kCp2, Scenario::kCrashRestart, "CP2_CrashRestart",
     {12u, 4221376u, 8265601u, 2174u, 669u, 0x2689367b205c16ceu, 5u, 55u, 15u}},
    {Protocol::kCp2, Scenario::kEarlyFlood, "CP2_EarlyFlood",
     {12u, 5343738u, 10493100u, 7305u, 816u, 0x2689367b205c16ceu, 0u, 216u, 0u}},
    {Protocol::kCp3, Scenario::kHappy, "CP3_Happy",
     {12u, 4378039u, 8569195u, 2296u, 648u, 0x2689367b205c16ceu, 0u, 48u, 0u}},
    {Protocol::kCp3, Scenario::kCorruptShare, "CP3_CorruptShare",
     {12u, 4450454u, 8714025u, 2228u, 648u, 0x2689367b205c16ceu, 0u, 48u, 0u}},
    {Protocol::kCp3, Scenario::kCrashRestart, "CP3_CrashRestart",
     {12u, 4238196u, 8305392u, 1953u, 669u, 0x2689367b205c16ceu, 5u, 55u, 15u}},
    {Protocol::kCp3, Scenario::kEarlyFlood, "CP3_EarlyFlood",
     {12u, 5243430u, 10300044u, 9093u, 1656u, 0x2689367b205c16ceu, 96u, 216u, 288u}},
};

void PrintTo(const Golden& g, std::ostream* os) { *os << g.name; }

class ReplayGolden : public ::testing::TestWithParam<Golden> {};

TEST_P(ReplayGolden, SignatureMatchesPinnedValues) {
  const Golden& g = GetParam();
  const Signature got = run(g.protocol, g.scenario);
  EXPECT_EQ(got.completed, kClients * kOpsPerClient);
  EXPECT_TRUE(got == g.expected)
      << g.name << "\n  expected " << describe(g.expected) << "\n  observed "
      << describe(got);
}

INSTANTIATE_TEST_SUITE_P(Reveal, ReplayGolden, ::testing::ValuesIn(kGolden),
                         [](const auto& info) {
                           return std::string(info.param.name);
                         });

}  // namespace
}  // namespace scab::causal
