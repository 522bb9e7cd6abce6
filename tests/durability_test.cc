// Durable replica state (DESIGN.md §13), end to end through the harness:
//
//  * attaching storage perturbs nothing — a seeded sim run is identical
//    with and without it (same replies, same counts, same virtual end time);
//  * a FULL-cluster crash + restart recovers every replica from its
//    attached storage with no loss and no re-execution, on every protocol
//    and both runtimes;
//  * a file-backed cluster torn down completely (the in-process model of a
//    power loss) resumes exactly from its data directory.
#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bft/client.h"
#include "bft/replica.h"
#include "causal/harness.h"
#include "causal/id.h"
#include "host/storage.h"

namespace scab::causal {
namespace {

constexpr Protocol kAllProtocols[] = {Protocol::kPbft, Protocol::kCp0,
                                      Protocol::kCp1, Protocol::kCp2,
                                      Protocol::kCp3};

ClusterOptions base_options(Protocol p, RuntimeKind runtime) {
  ClusterOptions opts;
  opts.protocol = p;
  opts.runtime = runtime;
  opts.bft = bft::BftConfig::for_f(1);
  opts.bft.checkpoint_interval = 4;  // snapshots early and often
  opts.num_clients = 2;
  opts.seed = 7;
  return opts;
}

Bytes op(int i) { return to_bytes("durable-op-" + std::to_string(i)); }

EchoService& echo(Cluster& cluster, uint32_t i) {
  auto* svc = dynamic_cast<EchoService*>(&cluster.service(i));
  EXPECT_NE(svc, nullptr);
  return *svc;
}

/// Runs `count` ops from client `ci`, asserting each completes.
void run_ops(Cluster& cluster, uint32_t ci, int from, int count) {
  for (int i = from; i < from + count; ++i) {
    ASSERT_TRUE(cluster.run_one(ci, op(i)).has_value()) << "op " << i;
  }
}

/// Waits until every replica's EchoService executed exactly `expected` ops
/// (laggards catch up via fetch); fails the test on timeout.
void await_converged(Cluster& cluster, uint64_t expected) {
  if (cluster.options().runtime == RuntimeKind::kSim) {
    sim::Simulator& sim = cluster.sim();
    const host::Time stop_at = sim.now() + 30 * host::kSecond;
    sim.run_while([&] {
      bool all = true;
      for (uint32_t i = 0; i < cluster.n(); ++i) {
        all = all && echo(cluster, i).executed() == expected;
      }
      return all || sim.now() >= stop_at;
    });
  } else {
    const auto stop_at =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    for (;;) {
      bool all = true;
      for (uint32_t i = 0; i < cluster.n(); ++i) {
        all = all && echo(cluster, i).executed() == expected;
      }
      if (all || std::chrono::steady_clock::now() >= stop_at) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  for (uint32_t i = 0; i < cluster.n(); ++i) {
    // Exact equality IS the invariant: fewer = loss, more = re-execution.
    EXPECT_EQ(echo(cluster, i).executed(), expected) << "replica " << i;
  }
}

// ---------------------------------------------------------------------------
// Determinism: storage on/off identical outputs

TEST(DurabilitySim, StorageAttachmentPerturbsNothing) {
  for (Protocol p : kAllProtocols) {
    std::vector<Bytes> replies_off;
    host::Time end_off = 0;
    {
      ClusterOptions opts = base_options(p, RuntimeKind::kSim);
      Cluster cluster(opts);
      for (int i = 0; i < 8; ++i) {
        auto r = cluster.run_one(0, op(i));
        ASSERT_TRUE(r.has_value());
        replies_off.push_back(*r);
      }
      end_off = cluster.sim().now();
    }
    ClusterOptions opts = base_options(p, RuntimeKind::kSim);
    opts.durability = ClusterOptions::Durability::kMem;
    Cluster cluster(opts);
    for (int i = 0; i < 8; ++i) {
      auto r = cluster.run_one(0, op(i));
      ASSERT_TRUE(r.has_value());
      EXPECT_EQ(*r, replies_off[static_cast<std::size_t>(i)])
          << protocol_name(p) << " op " << i;
    }
    // MemStorage does no I/O and reads no clock: the event schedule — and
    // so the virtual completion time — is bit-identical.
    EXPECT_EQ(cluster.sim().now(), end_off) << protocol_name(p);
  }
}

// ---------------------------------------------------------------------------
// Full-cluster crash + restart (the sim model of a power loss)

TEST(DurabilitySim, FullClusterRestartRecoversAllProtocols) {
  for (Protocol p : kAllProtocols) {
    SCOPED_TRACE(protocol_name(p));
    ClusterOptions opts = base_options(p, RuntimeKind::kSim);
    opts.durability = ClusterOptions::Durability::kMem;
    Cluster cluster(opts);

    run_ops(cluster, 0, 0, 10);
    await_converged(cluster, 10);

    for (uint32_t i = 0; i < cluster.n(); ++i) cluster.crash_replica(i);
    for (uint32_t i = 0; i < cluster.n(); ++i) cluster.restart_replica(i);

    for (uint32_t i = 0; i < cluster.n(); ++i) {
      // Recovery under kSim runs inline in restart_replica: the service
      // state is already back before any new traffic.
      EXPECT_EQ(echo(cluster, i).executed(), 10u) << "replica " << i;
      EXPECT_GE(cluster.replica_metrics(i)
                    .counter("bft.recovery.snapshot_loaded")
                    .value(),
                1u)
          << "replica " << i;
    }

    run_ops(cluster, 1, 100, 10);
    await_converged(cluster, 20);
  }
}

TEST(DurabilitySim, WalAloneRecoversBeforeFirstCheckpoint) {
  // 2 ops < checkpoint_interval: no snapshot exists yet, so recovery is
  // pure WAL replay.
  ClusterOptions opts = base_options(Protocol::kPbft, RuntimeKind::kSim);
  opts.durability = ClusterOptions::Durability::kMem;
  Cluster cluster(opts);
  run_ops(cluster, 0, 0, 2);
  await_converged(cluster, 2);

  for (uint32_t i = 0; i < cluster.n(); ++i) cluster.crash_replica(i);
  for (uint32_t i = 0; i < cluster.n(); ++i) cluster.restart_replica(i);

  for (uint32_t i = 0; i < cluster.n(); ++i) {
    EXPECT_EQ(echo(cluster, i).executed(), 2u) << "replica " << i;
    EXPECT_EQ(cluster.replica_metrics(i)
                  .counter("bft.recovery.snapshot_loaded")
                  .value(),
              0u);
    EXPECT_GE(cluster.replica_metrics(i)
                  .counter("bft.recovery.wal_replayed")
                  .value(),
              1u);
  }
  run_ops(cluster, 1, 100, 4);
  await_converged(cluster, 6);
}

// A snapshot can hold requests a replica delivered but has not revealed yet:
// restore must restart their reveals (our own share re-sent and re-fed,
// the peers' shares re-requested) so each executes exactly once.
TEST(DurabilitySim, RestoredUnrevealedRequestsExecuteExactlyOnce) {
  for (Protocol p : {Protocol::kCp0, Protocol::kCp2, Protocol::kCp3}) {
    SCOPED_TRACE(protocol_name(p));
    ClusterOptions opts = base_options(p, RuntimeKind::kSim);
    opts.durability = ClusterOptions::Durability::kMem;
    Cluster cluster(opts);

    // Replica 3 keeps ordering but hears no peer's share (nor, for CP0,
    // enough to decrypt), so it delivers every request and reveals none —
    // across the checkpoint at sequence 4.
    constexpr uint32_t kHeld = 3;
    cluster.faults().set_tamper(
        [](host::NodeId from, host::NodeId to,
           BytesView msg) -> std::optional<Bytes> {
          const bool peer_share =
              to == kHeld && from < kHeld && !msg.empty() &&
              msg[0] == static_cast<uint8_t>(bft::Channel::kCausal);
          if (peer_share) return std::nullopt;
          return Bytes(msg.begin(), msg.end());
        });
    constexpr int kOps = 6;
    run_ops(cluster, 0, 0, kOps);
    EXPECT_EQ(echo(cluster, kHeld).executed(), 0u);
    ASSERT_TRUE(cluster.host().storage(kHeld)->get("snapshot").has_value());

    cluster.crash_replica(kHeld);
    cluster.faults().clear_tamper();
    cluster.restart_replica(kHeld);
    EXPECT_GE(cluster.replica_metrics(kHeld)
                  .counter("bft.recovery.snapshot_loaded")
                  .value(),
              1u);
    await_converged(cluster, kOps);
    run_ops(cluster, 1, 100, 2);
    await_converged(cluster, kOps + 2);
  }
}

// ---------------------------------------------------------------------------
// Durable state the app cannot parse (e.g. an older layout) stops recovery

TEST(DurabilitySim, UnparseableAppWalRecordFailsRecovery) {
  for (Protocol p : {Protocol::kCp0, Protocol::kCp2, Protocol::kCp3}) {
    SCOPED_TRACE(protocol_name(p));
    ClusterOptions opts = base_options(p, RuntimeKind::kSim);
    opts.durability = ClusterOptions::Durability::kMem;
    Cluster cluster(opts);
    run_ops(cluster, 0, 0, 2);  // WAL only: no checkpoint yet
    await_converged(cluster, 2);

    cluster.crash_replica(1);
    // An execution record in the older `id | bytes plaintext` layout,
    // behind the bft::Replica kApp tag (5).
    Writer w;
    w.u8(5);
    RequestId{Cluster::client_id(0), 1}.write(w);
    w.bytes(op(0));
    cluster.host().storage(1)->append(std::move(w).take());
    EXPECT_THROW(cluster.restart_replica(1), std::runtime_error);
  }
}

TEST(DurabilitySim, UnknownAppSnapshotVersionFailsRecovery) {
  for (Protocol p : {Protocol::kCp0, Protocol::kCp2, Protocol::kCp3}) {
    SCOPED_TRACE(protocol_name(p));
    ClusterOptions opts = base_options(p, RuntimeKind::kSim);
    opts.durability = ClusterOptions::Durability::kMem;
    Cluster cluster(opts);
    run_ops(cluster, 0, 0, 10);
    await_converged(cluster, 10);

    cluster.crash_replica(1);
    host::Storage& storage = *cluster.host().storage(1);
    const Bytes snap = storage.get("snapshot").value();
    // The snapshot ends with `bytes app_blob`, and the app blob opens with
    // its u32 state version (2): find it and stamp version 1 instead.
    std::size_t at = 0;
    for (std::size_t o = snap.size() - 8; o > 0 && at == 0; --o) {
      Reader r(BytesView(snap).subspan(o));
      if (o + 4 + r.u32() == snap.size() && r.u32() == 2) at = o + 4;
    }
    ASSERT_NE(at, 0u);
    Writer w;
    w.raw(BytesView(snap).first(at));
    w.u32(1);
    w.raw(BytesView(snap).subspan(at + 4));
    storage.put("snapshot", std::move(w).take());
    EXPECT_THROW(cluster.restart_replica(1), std::runtime_error);
  }
}

TEST(DurabilityThreads, MemFullClusterRestartRecovers) {
  ClusterOptions opts = base_options(Protocol::kCp1, RuntimeKind::kThreads);
  opts.durability = ClusterOptions::Durability::kMem;
  Cluster cluster(opts);

  run_ops(cluster, 0, 0, 10);
  for (uint32_t i = 0; i < cluster.n(); ++i) cluster.crash_replica(i);
  for (uint32_t i = 0; i < cluster.n(); ++i) cluster.restart_replica(i);

  run_ops(cluster, 1, 100, 10);
  await_converged(cluster, 20);
  for (uint32_t i = 0; i < cluster.n(); ++i) {
    EXPECT_GE(cluster.replica_metrics(i)
                      .counter("bft.recovery.snapshot_loaded")
                      .value() +
                  cluster.replica_metrics(i)
                      .counter("bft.recovery.wal_replayed")
                      .value(),
              1u)
        << "replica " << i << " recovered nothing from storage";
  }
  cluster.shutdown();
}

// ---------------------------------------------------------------------------
// File-backed power loss: tear the whole cluster down, rebuild it from the
// data directory alone.

TEST(DurabilityThreads, FileBackedColdRestartResumesExactly) {
  std::string tmpl = ::testing::TempDir() + "scab_durability_XXXXXX";
  ASSERT_NE(::mkdtemp(tmpl.data()), nullptr);
  const std::string data_dir = tmpl;

  ClusterOptions opts = base_options(Protocol::kCp0, RuntimeKind::kThreads);
  opts.durability = ClusterOptions::Durability::kFile;
  opts.data_dir = data_dir;

  {
    Cluster cluster(opts);
    run_ops(cluster, 0, 0, 10);
    await_converged(cluster, 10);
    cluster.shutdown();
  }

  {
    // Same options, same directory, brand-new processes-worth of state:
    // everything volatile is gone; only the FileStorage directories remain.
    Cluster cluster(opts);
    await_converged(cluster, 10);  // restored, not re-executed
    for (uint32_t i = 0; i < cluster.n(); ++i) {
      EXPECT_GE(cluster.replica_metrics(i)
                    .counter("bft.recovery.snapshot_loaded")
                    .value(),
                1u)
          << "replica " << i;
      EXPECT_GE(cluster.replica_metrics(i)
                    .histogram("storage.wal_append_bytes")
                    .count(),
                0u);
    }
    // Client 1 was never used in the first life, so its sequence numbers
    // are fresh (replica-side dedup is keyed on (client, seq)).
    run_ops(cluster, 1, 100, 10);
    await_converged(cluster, 20);
    cluster.shutdown();
  }

  ASSERT_EQ(std::system(("rm -rf '" + data_dir + "'").c_str()), 0);
}

}  // namespace
}  // namespace scab::causal
