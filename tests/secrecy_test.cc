// Message-secrecy tests (the paper's §V definitions, checked on the wire):
// for every secure causal protocol, the request plaintext must not appear
// in ANY datagram before the replicas schedule it — not in client
// requests, not in BFT traffic, not in causal-channel share exchanges
// before the schedule commits.
//
// The observer is the network tamper hook, i.e. exactly what a Byzantine
// replica (or the adversary routing the network) can see.
#include <gtest/gtest.h>

#include "bft/client.h"
#include "bft/replica.h"
#include "causal/cp0.h"
#include "causal/cp1.h"
#include "causal/harness.h"
#include "threshenc/tdh2.h"

namespace scab::causal {
namespace {

using bft::NodeId;
using sim::kMillisecond;

struct SecrecyCase {
  Protocol protocol;
  bool expect_hidden;
};

std::string secrecy_case_name(const ::testing::TestParamInfo<SecrecyCase>& i) {
  return protocol_name(i.param.protocol);
}

class WireSecrecyTest : public ::testing::TestWithParam<SecrecyCase> {};

// Scans every datagram for the secret until the request completes.
TEST_P(WireSecrecyTest, PlaintextNeverOnTheWireBeforeReveal) {
  const auto [protocol, expect_hidden] = GetParam();
  ClusterOptions opts;
  opts.protocol = protocol;
  opts.bft = bft::BftConfig::for_f(1);
  opts.profile = sim::NetworkProfile::ideal();
  opts.seed = 5;
  Cluster cluster(opts);

  // A high-entropy marker that cannot appear by chance.
  const Bytes secret = crypto::Drbg(to_bytes("marker")).generate(24);
  const std::string needle(secret.begin(), secret.end());

  // Track the first time any replica could have delivered the schedule
  // step; before that, the secret must be invisible (for the causal
  // protocols).  For CP1/CP2/CP3 the reveal itself eventually exposes the
  // plaintext to REPLICAS (that is the point), so we only scan traffic
  // originating at the client.
  bool leaked_from_client = false;
  cluster.faults().set_tamper(
      [&](NodeId from, NodeId /*to*/, BytesView msg) -> std::optional<Bytes> {
        if (from >= kClientBase) {
          const std::string hay(msg.begin(), msg.end());
          if (hay.find(needle) != std::string::npos) {
            // CP1's reveal legitimately contains the plaintext — but only
            // AFTER the schedule step was committed; by then the request's
            // position in the total order is fixed.  The schedule phase
            // itself must be clean, which we approximate by requiring that
            // at least one replica has the commitment as tentative.
            if (protocol == Protocol::kCp1) {
              auto& app =
                  dynamic_cast<Cp1ReplicaApp&>(cluster.replica_app(1));
              if (app.tentative_count() > 0) {
                return Bytes(msg.begin(), msg.end());  // post-schedule: fine
              }
            }
            leaked_from_client = true;
          }
        }
        return Bytes(msg.begin(), msg.end());
      });

  const auto result = cluster.run_one(0, secret);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(leaked_from_client, !expect_hidden);
}

INSTANTIATE_TEST_SUITE_P(
    Protocols, WireSecrecyTest,
    ::testing::Values(SecrecyCase{Protocol::kPbft, false},  // cleartext: leaks
                      SecrecyCase{Protocol::kCp0, true},
                      SecrecyCase{Protocol::kCp1, true},
                      SecrecyCase{Protocol::kCp2, true},
                      SecrecyCase{Protocol::kCp3, true}),
    secrecy_case_name);

// The replica-to-replica share exchange of CP2/CP3 is ALSO private
// (authenticated and private channels, §V-D): a wire observer cannot
// reassemble the secret from reveal traffic either.
TEST(WireSecrecy, ShareExchangeIsEncrypted) {
  for (Protocol p : {Protocol::kCp2, Protocol::kCp3}) {
    ClusterOptions opts;
    opts.protocol = p;
    opts.bft = bft::BftConfig::for_f(1);
    opts.profile = sim::NetworkProfile::ideal();
    Cluster cluster(opts);

    const Bytes secret = crypto::Drbg(to_bytes("m2")).generate(24);
    const std::string needle(secret.begin(), secret.end());
    bool leaked_anywhere = false;
    cluster.faults().set_tamper(
        [&](NodeId, NodeId, BytesView msg) -> std::optional<Bytes> {
          const std::string hay(msg.begin(), msg.end());
          if (hay.find(needle) != std::string::npos) leaked_anywhere = true;
          return Bytes(msg.begin(), msg.end());
        });
    const auto result = cluster.run_one(0, secret);
    ASSERT_TRUE(result.has_value()) << protocol_name(p);
    // Shares travel AEAD-sealed and the secret is never reassembled on the
    // wire (only inside replicas).  Even the *shares* of the secret are
    // high-entropy field elements, but the strongest observable claim is
    // simply: the plaintext never appears in any datagram.
    EXPECT_FALSE(leaked_anywhere) << protocol_name(p);
  }
}

// The CKPS alternation: a replica must never execute (reveal) a request
// whose schedule step has not committed.  We check the observable
// consequence: with the client's reveal suppressed entirely, no execution
// happens even though every replica holds the plaintext-bearing share
// messages (CP2's shares arrive before the schedule commits).
TEST(ScheduleRevealAlternation, SharesAloneDoNotExecute) {
  ClusterOptions opts;
  opts.protocol = Protocol::kCp2;
  opts.bft = bft::BftConfig::for_f(1);
  opts.profile = sim::NetworkProfile::ideal();
  Cluster cluster(opts);

  // Drop the client's REQUEST channel messages (the schedule step) but let
  // the causal-channel share distribution through.
  cluster.faults().set_tamper(
      [&](NodeId from, NodeId to, BytesView msg) -> std::optional<Bytes> {
        if (from != Cluster::client_id(0)) return Bytes(msg.begin(), msg.end());
        auto env = bft::open_envelope(cluster.keys(), to, msg);
        if (env && env->channel == bft::Channel::kClientRequest) {
          return std::nullopt;  // schedule never happens
        }
        return Bytes(msg.begin(), msg.end());
      });

  cluster.client(0).submit(to_bytes("sharded but never scheduled"));
  cluster.client(0).set_retry_timeout(600 * sim::kSecond);
  cluster.sim().run_until(cluster.sim().now() + 200 * kMillisecond);

  for (uint32_t i = 0; i < cluster.n(); ++i) {
    auto& echo = dynamic_cast<EchoService&>(cluster.service(i));
    EXPECT_EQ(echo.executed(), 0u) << "replica " << i;
  }
}

}  // namespace
}  // namespace scab::causal
