#include "causal/harness.h"

#include <chrono>
#include <thread>

#include "abft/coin.h"
#include "abft/replica.h"
#include "bft/client.h"
#include "bft/keyring.h"
#include "bft/replica.h"
#include "causal/plain.h"
#include "causal/reveal.h"
#include "causal/stack.h"
#include "host/storage.h"
#include "rt/runtime.h"
#include "rt/storage.h"
#include "sim/sim_host.h"
#include "threshenc/tdh2.h"

namespace scab::causal {

const char* protocol_name(Protocol p) {
  switch (p) {
    case Protocol::kPbft:
      return "PBFT";
    case Protocol::kCp0:
      return "CP0";
    case Protocol::kCp1:
      return "CP1";
    case Protocol::kCp2:
      return "CP2";
    case Protocol::kCp3:
      return "CP3";
  }
  return "?";
}

namespace {
// Request-tracer capacity (distinct requests tracked): covers every bench
// and test workload.
constexpr std::size_t kTraceCapacity = 1 << 16;
// Async engine: bits of the generated common-coin group when none is given.
constexpr std::size_t kCoinGroupBits = 64;

// The shared derivation encoding (causal/stack.h): keeps this file's forks
// bit-identical to the daemon's.
Bytes seed_bytes(uint64_t seed, std::string_view label) {
  return seed_label(seed, label);
}
}  // namespace

Cluster::Cluster(ClusterOptions options)
    : options_(std::move(options)),
      tracer_(kTraceCapacity),
      master_rng_(seed_bytes(options_.seed, "cluster-master")) {
  const auto& cfg = options_.bft;
  if (!options_.service_factory) {
    options_.service_factory = [] { return std::make_unique<EchoService>(0); };
  }

  // Either host counts messages and fault drops into net_metrics_, so
  // "net.*" reads the same on both runtimes.
  if (options_.runtime == RuntimeKind::kSim) {
    host_ = std::make_unique<sim::SimHost>(sim_, options_.profile,
                                           options_.seed, &net_metrics_);
  } else {
    // In-process loopback.
    host_ = std::make_unique<rt::ThreadHost>(nullptr, &net_metrics_,
                                             options_.worker_threads);
  }

  std::vector<host::NodeId> node_ids;
  for (uint32_t i = 0; i < cfg.n; ++i) node_ids.push_back(i);
  for (uint32_t i = 0; i < options_.num_clients; ++i) {
    node_ids.push_back(client_id(i));
  }
  keys_ = std::make_unique<bft::KeyRing>(seed_bytes(options_.seed, "keyring"),
                                         node_ids);

  // Protocol-wide cryptographic setup (the "trusted dealer" of §V-A for
  // CP0; plain Cgen for the commitment-based protocols) — the construction
  // seam shared with the standalone daemon (causal/stack.h).
  material_ = derive_material(options_.protocol, cfg, master_rng_,
                              std::move(options_.group), options_.group_bits);
  options_.group = material_.group;

  if (options_.engine == Engine::kAsyncEngine) {
    if (!options_.coin_group) {
      crypto::Drbg grng = master_rng_.fork(to_bytes("coin-group"));
      options_.coin_group =
          crypto::ModGroup::generate(kCoinGroupBits, grng);
    }
    crypto::Drbg crng = master_rng_.fork(to_bytes("coin"));
    coin_ = std::make_unique<abft::CoinKeyMaterial>(
        abft::coin_keygen(*options_.coin_group, cfg.f + 1, cfg.n, crng));
  }

  // Durable storage must be attached before each replica binds: the replica
  // resolves its host::Storage (and binds the storage metrics) in its
  // constructor.  The host owns the storage, so it survives
  // crash_replica/restart_replica — the disk outliving the process.
  if (options_.durability != ClusterOptions::Durability::kNone) {
    for (uint32_t i = 0; i < cfg.n; ++i) {
      std::unique_ptr<host::Storage> storage;
      if (options_.durability == ClusterOptions::Durability::kFile &&
          options_.runtime == RuntimeKind::kThreads) {
        storage = std::make_unique<rt::FileStorage>(options_.data_dir +
                                                    "/node" + std::to_string(i));
      } else {
        storage = std::make_unique<host::MemStorage>();
      }
      host_->attach_storage(i, std::move(storage));
    }
  }

  // Replicas.
  replica_generation_.assign(cfg.n, 0);
  for (uint32_t i = 0; i < cfg.n; ++i) {
    replica_apps_.push_back(make_replica_app(i));
    replica_metrics_.push_back(std::make_unique<obs::MetricsRegistry>());
    if (options_.engine == Engine::kPbftEngine) {
      auto replica = std::make_unique<bft::Replica>(
          *host_, i, cfg, *keys_, options_.costs, replica_apps_.back().get(),
          master_rng_.fork(seed_bytes(i, "replica")),
          replica_metrics_.back().get(), &tracer_);
      if (replica->has_storage() &&
          options_.runtime == RuntimeKind::kThreads) {
        // Recovery mutates protocol state, so it must run on the replica's
        // own executor: an already-started peer could land traffic on this
        // endpoint mid-replay.  The posted task runs before any message
        // handling queued behind it.
        bft::Replica* r = replica.get();
        host_->post(i, [r] {
          r->recover();
          r->start();
        });
      } else {
        // kSim: nothing runs until the simulator is stepped, so recovering
        // inline is race-free and keeps event counts identical to a direct
        // start when the store is empty.
        if (replica->has_storage()) replica->recover();
        replica->start();
      }
      replicas_.push_back(std::move(replica));
    } else {
      auto replica = std::make_unique<abft::AsyncReplica>(
          *host_, i, cfg, *keys_, options_.costs, coin_->pk,
          coin_->shares.at(i), replica_apps_.back().get(),
          master_rng_.fork(seed_bytes(i, "replica")));
      async_replicas_.push_back(std::move(replica));
    }
  }

  // Clients.
  for (uint32_t i = 0; i < options_.num_clients; ++i) {
    client_protocols_.push_back(make_client_protocol(stack_context()));

    client_metrics_.push_back(std::make_unique<obs::MetricsRegistry>());
    auto client = std::make_unique<bft::Client>(
        *host_, client_id(i), cfg, *keys_, options_.costs,
        client_protocols_.back().get(),
        master_rng_.fork(seed_bytes(i, "client")),
        client_metrics_.back().get(), &tracer_);
    // Pipelined/batched mode (CP0 only: its envelope amortizes a batch
    // under one KEM header; the other protocols stay strictly closed-loop).
    if (options_.protocol == Protocol::kCp0 &&
        (options_.client_inflight > 1 || options_.client_batch > 1)) {
      client->set_pipeline(
          [this] {
            return make_client_protocol(stack_context(), /*batching=*/true);
          },
          options_.client_inflight, options_.client_batch);
    }
    clients_.push_back(std::move(client));
  }
}

Cluster::~Cluster() { shutdown(); }

void Cluster::shutdown() {
  // Joins every worker under rt::ThreadHost, so no endpoint callback can
  // run concurrently with (or after) member destruction.  No-op for kSim.
  if (host_) host_->stop();
}

const bft::KeyRing& Cluster::keys() const { return *keys_; }

bft::Replica& Cluster::replica(uint32_t i) { return *replicas_.at(i); }

abft::AsyncReplica& Cluster::async_replica(uint32_t i) {
  return *async_replicas_.at(i);
}

uint64_t Cluster::replica_executed(uint32_t i) const {
  return options_.engine == Engine::kPbftEngine
             ? replicas_.at(i)->executed_requests()
             : async_replicas_.at(i)->executed_requests();
}

bft::Client& Cluster::client(uint32_t i) { return *clients_.at(i); }

bft::ReplicaApp& Cluster::replica_app(uint32_t i) {
  return *replica_apps_.at(i);
}

bft::ClientProtocol& Cluster::client_protocol(uint32_t i) {
  return *client_protocols_.at(i);
}

obs::MetricsRegistry Cluster::merged_metrics() const {
  obs::MetricsRegistry merged;
  merged.merge_from(net_metrics_);
  for (const auto& r : replica_metrics_) merged.merge_from(*r);
  for (const auto& c : client_metrics_) merged.merge_from(*c);
  return merged;
}

StackContext Cluster::stack_context() const {
  StackContext ctx;
  ctx.protocol = options_.protocol;
  ctx.material = &material_;
  ctx.bft = options_.bft;
  ctx.cp1 = options_.cp1;
  ctx.cp0_modeled = options_.cp0_modeled;
  return ctx;
}

std::unique_ptr<bft::ReplicaApp> Cluster::make_replica_app(uint32_t i) {
  auto service = options_.service_factory();
  Service* raw = service.get();
  auto app = causal::make_replica_app(stack_context(), std::move(service), i);

  if (i < services_.size()) {
    services_[i] = raw;  // restart path: replace the dead replica's slot
  } else {
    services_.push_back(raw);
  }
  return app;
}

void Cluster::crash_replica(uint32_t i) {
  // Order matters: the crash flag shields the endpoint while its executor is
  // quiesced (unbind joins the worker thread under kThreads), and only then
  // does the replica object — all volatile protocol state — die.
  faults().crash(i);
  host_->unbind(i);
  replicas_.at(i).reset();
  replica_apps_.at(i).reset();
  services_.at(i) = nullptr;
}

void Cluster::restart_replica(uint32_t i) {
  const uint32_t gen = ++replica_generation_.at(i);
  replica_apps_.at(i) = make_replica_app(i);
  auto replica = std::make_unique<bft::Replica>(
      *host_, i, options_.bft, *keys_, options_.costs,
      replica_apps_.at(i).get(),
      // Generation-tagged fork: the reborn replica must not replay its old
      // incarnation's randomness stream.
      master_rng_.fork(
          seed_bytes((static_cast<uint64_t>(gen) << 32) | i, "replica")),
      replica_metrics_.at(i).get(), &tracer_);
  // Recover from the attached storage (a no-op without one) while the crash
  // flag still shields the endpoint: WAL replay re-drives the app, and any
  // sends it attempts must go nowhere.  Only then readmit traffic — the
  // crash flag kept messages away from the half-built endpoint.
  replica->recover();
  replica->start();
  replicas_.at(i) = std::move(replica);
  faults().restart(i);
}

void Cluster::corrupt_replica_shares(uint32_t i) {
  if (auto* app = dynamic_cast<RevealEngine*>(replica_apps_.at(i).get())) {
    app->set_corrupt_shares(true);
  }
}

std::optional<Bytes> Cluster::run_one(uint32_t ci, Bytes op,
                                      host::Time deadline) {
  bft::Client& c = client(ci);
  const uint64_t before = c.completed_ops();
  if (options_.runtime == RuntimeKind::kSim) {
    // Direct call + run_while, exactly the pre-host-refactor sequence:
    // keeps event counts (and so every seeded signature) bit-identical.
    c.submit(std::move(op));
    const host::Time stop_at = sim_.now() + deadline;
    sim_.run_while([&] {
      return c.completed_ops() > before || sim_.now() >= stop_at;
    });
  } else {
    // The controlling thread may not touch the client directly: hand the
    // submit to the client's own executor, then poll its progress.
    host_->post(c.id(), [&c, op = std::move(op)]() mutable {
      c.submit(std::move(op));
    });
    const auto stop_at = std::chrono::steady_clock::now() +
                         std::chrono::nanoseconds(deadline);
    while (c.completed_ops() == before &&
           std::chrono::steady_clock::now() < stop_at) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
  if (c.completed_ops() > before) return c.last_result();
  return std::nullopt;
}

}  // namespace scab::causal
