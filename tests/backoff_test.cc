// Client retransmission backoff: against an unresponsive cluster the k-th
// retry of one operation waits base << min(k, 6) (plus jitter), so a dead
// primary costs O(log) retransmissions over any window instead of a
// fixed-rate storm.  Regression for the storm: at a 10 ms base over 10
// virtual seconds, fixed-rate retries would fire ~1000 times; capped
// exponential backoff fires ~20.
#include <gtest/gtest.h>

#include "apps/kvstore.h"
#include "bft/client.h"
#include "bft/replica.h"
#include "causal/harness.h"

namespace scab::causal {
namespace {

TEST(Backoff, CrashedPrimaryCostsLogarithmicRetries) {
  ClusterOptions opts;
  opts.protocol = Protocol::kPbft;
  opts.bft = bft::BftConfig::for_f(1);
  // Disable the view-change path: this test wants the client to keep
  // retrying against a dead primary, not to be rescued by a new one.
  opts.bft.request_timeout = 3600 * host::kSecond;
  opts.num_clients = 1;
  opts.seed = 3;
  Cluster cluster(opts);

  // Crash ALL replicas: no progress, no replies, every retry is futile.
  for (uint32_t r = 0; r < cluster.n(); ++r) cluster.faults().crash(r);

  bft::Client& client = cluster.client(0);
  client.set_retry_timeout(10 * host::kMillisecond);
  client.submit(apps::KvStore::put("k", to_bytes("v")));

  cluster.sim().run_until(cluster.sim().now() + 10 * host::kSecond);

  EXPECT_EQ(client.completed_ops(), 0u);
  const uint64_t retries =
      cluster.client_metrics(0).counter_value("client.retries");
  // Delay sequence: 10, 20, 40, ..., 640 ms (cap), then 640 ms + jitter per
  // retry; 10 s admits roughly 13 capped retries after the 7 doubling steps.
  EXPECT_GE(retries, 5u);
  EXPECT_LE(retries, 60u) << "fixed-rate retry storm is back (~1000 expected "
                             "at 10 ms base over 10 s)";
}

// The backoff resets per operation: a healthy follow-up run must not
// inherit the previous operation's widened interval.
TEST(Backoff, ResetsBetweenOperations) {
  ClusterOptions opts;
  opts.protocol = Protocol::kPbft;
  opts.bft = bft::BftConfig::for_f(1);
  opts.num_clients = 1;
  opts.seed = 5;
  Cluster cluster(opts);

  auto first = cluster.run_one(0, apps::KvStore::put("a", to_bytes("1")));
  EXPECT_TRUE(first.has_value());
  auto second = cluster.run_one(0, apps::KvStore::put("b", to_bytes("2")));
  EXPECT_TRUE(second.has_value());
  // Healthy cluster: no retransmissions at all.
  EXPECT_EQ(cluster.client_metrics(0).counter_value("client.retries"), 0u);
}

}  // namespace
}  // namespace scab::causal
