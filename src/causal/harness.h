// One-stop cluster assembly: host runtime + network + keys + replicas +
// clients for any of the five measured protocols (PBFT baseline, CP0–CP3).
//
// Used by the integration tests, every benchmark, and the examples; it is
// the public "deployment" API of the library.  The same cluster assembles
// on either host runtime (RuntimeKind): the deterministic discrete-event
// simulator, or the real-time threaded runtime with an in-process loopback
// transport.
//
// Include hygiene: this header deliberately forward-declares the protocol
// stack (replicas, clients, apps, TDH2 key material) and keeps only the
// by-value option types; the heavy crypto headers are confined to
// harness.cc.  TUs that poke protocol internals include the specific
// header they need (bft/replica.h, causal/cp0.h, ...) themselves.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bft/config.h"
#include "causal/cp1_options.h"
#include "causal/protocol.h"
#include "causal/service.h"
#include "causal/stack.h"
#include "crypto/drbg.h"
#include "crypto/modgroup.h"
#include "host/host.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/network.h"

namespace scab::bft {
class Client;
class ClientProtocol;
class KeyRing;
class Replica;
class ReplicaApp;
}  // namespace scab::bft

namespace scab::abft {
class AsyncReplica;
struct CoinKeyMaterial;
}  // namespace scab::abft

namespace scab::threshenc {
struct Tdh2KeyMaterial;
}  // namespace scab::threshenc

namespace scab::causal {

class Cp0Backend;

// Protocol, Engine, RuntimeKind, protocol_name, kClientBase live in
// causal/protocol.h (included above); the replica-stack factories shared
// with the daemon live in causal/stack.h.

struct ClusterOptions {
  Protocol protocol = Protocol::kPbft;
  Engine engine = Engine::kPbftEngine;
  RuntimeKind runtime = RuntimeKind::kSim;
  bft::BftConfig bft = bft::BftConfig::for_f(1);
  sim::NetworkProfile profile = sim::NetworkProfile::ideal();  // kSim only
  host::CostModel costs = host::CostModel::zero();             // kSim only
  uint32_t num_clients = 1;
  uint64_t seed = 1;

  /// Per-replica service; default EchoService with 0-byte replies.
  ServiceFactory service_factory;

  /// CP0: threshold-cryptosystem group. Tests default to a small generated
  /// group; benches install ModGroup::modp_1024().
  std::optional<crypto::ModGroup> group;
  std::size_t group_bits = 64;
  /// CP0: use the calibrated-cost oracle instead of real TDH2 (throughput
  /// sweeps only; see DESIGN.md §3).
  bool cp0_modeled = false;

  /// CP0 client pipelining: up to `client_inflight` operations in flight
  /// per client, each aggregating `client_batch` logical payloads under one
  /// amortized TDH2 envelope (DESIGN.md §10).  1/1 = the paper's strict
  /// closed loop, wire-identical to the pre-batching path.
  uint32_t client_inflight = 1;
  uint32_t client_batch = 1;

  Cp1Options cp1;

  /// Crypto worker-pool threads per host (DESIGN.md §12).  0 = inline
  /// completion on the submitting node's executor — the default, and the
  /// only behavior under kSim (SimHost always completes inline, so a sim
  /// run is bit-identical for every value of this knob).  Under kThreads
  /// the pool is shared by all nodes on the host; verify-side crypto
  /// (CP0 share verification, CP1 opens, CP2/CP3 reconstruction) runs on
  /// pool threads with results marshalled back to each node's executor.
  uint32_t worker_threads = 0;

  /// Async engine: the common-coin group (defaults to a small generated
  /// group in tests; benches install modp_512 to price the coin honestly).
  std::optional<crypto::ModGroup> coin_group;

  /// Durable replica state (DESIGN.md §13).  kNone attaches no storage —
  /// the historical behavior, bit-identical event schedules under kSim.
  /// kMem attaches a deterministic in-memory host::MemStorage per replica;
  /// the host owns it, so it survives crash_replica/restart_replica pairs
  /// (the harness model of a machine whose disk outlives its process) but
  /// not Cluster destruction.  kFile attaches rt::FileStorage (fsync on)
  /// under `data_dir/node<i>` — kThreads only; under kSim it degrades to
  /// kMem so one test body can sweep both runtimes.
  enum class Durability { kNone, kMem, kFile };
  Durability durability = Durability::kNone;
  std::string data_dir;  // kFile: per-replica dirs created beneath
};

class Cluster {
 public:
  explicit Cluster(ClusterOptions options);
  ~Cluster();

  sim::Simulator& sim() { return sim_; }
  host::Host& host() { return *host_; }
  const bft::KeyRing& keys() const;
  const ClusterOptions& options() const { return options_; }

  uint32_t n() const { return options_.bft.n; }
  uint32_t f() const { return options_.bft.f; }
  uint32_t num_clients() const { return static_cast<uint32_t>(clients_.size()); }
  static host::NodeId client_id(uint32_t index) { return kClientBase + index; }

  /// PBFT engine only.
  bft::Replica& replica(uint32_t i);
  /// Async engine only.
  abft::AsyncReplica& async_replica(uint32_t i);
  /// Engine-agnostic: requests executed by replica i.
  uint64_t replica_executed(uint32_t i) const;
  bft::Client& client(uint32_t i);
  bft::ReplicaApp& replica_app(uint32_t i);
  bft::ClientProtocol& client_protocol(uint32_t i);
  Service& service(uint32_t i) { return *services_.at(i); }

  /// Marks replica i as a share-corrupting Byzantine replica (Table IV).
  /// Only meaningful for CP0/CP2/CP3.
  void corrupt_replica_shares(uint32_t i);

  /// Runtime-agnostic fault injection (crash / link cut / delay / tamper)
  /// for whichever host carries this cluster (DESIGN.md §9).
  host::FaultPlan& faults() { return host_->faults(); }

  /// Tears replica i down for real (PBFT engine only): marks it crashed at
  /// the network, unbinds its endpoint (joining its worker thread under
  /// kThreads, killing its timers under kSim), and destroys the replica and
  /// its app — ALL volatile protocol state is gone.
  void crash_replica(uint32_t i);
  /// Brings replica i back with empty volatile state (PBFT engine only):
  /// fresh service/app/replica under the same id, re-bound and started, then
  /// readmitted to the network.  It rejoins via the checkpoint catch-up
  /// fetch; the metrics registry is reused so "bft.recovery.*" instruments
  /// span the restart.
  void restart_replica(uint32_t i);

  /// Convenience: submit one op from client `ci` and run until it completes
  /// or `deadline` passes (virtual time under kSim, wall time under
  /// kThreads).  Returns the result on success.
  std::optional<Bytes> run_one(uint32_t ci, Bytes op,
                               host::Time deadline = 30 * host::kSecond);

  /// Quiesces the runtime: joins all worker threads under kThreads (no-op
  /// under kSim).  Endpoint state is safe to inspect afterwards; the
  /// destructor calls this automatically.
  void shutdown();

  /// CP0 key material (empty unless protocol == kCp0).
  const threshenc::Tdh2KeyMaterial& tdh2_keys() const {
    return *material_.tdh2;
  }

  // --- observability ---
  /// Network-layer metrics ("net.*": messages and bytes, drops by fault;
  /// "net.egress.*" under kSim only).
  obs::MetricsRegistry& net_metrics() { return net_metrics_; }
  /// Replica i's metrics ("bft.*" plus the protocol's "cpX.*").
  obs::MetricsRegistry& replica_metrics(uint32_t i) {
    return *replica_metrics_.at(i);
  }
  /// Client i's metrics ("client.*").
  obs::MetricsRegistry& client_metrics(uint32_t i) {
    return *client_metrics_.at(i);
  }
  /// Cluster-wide request tracer (one span per request across all nodes).
  obs::Tracer& tracer() { return tracer_; }
  /// Everything summed into one registry (benches' JSON export).
  obs::MetricsRegistry merged_metrics() const;

 private:
  /// The StackContext view of this cluster's options + material, handed to
  /// the causal/stack.h factories (the construction code shared with the
  /// daemon).
  StackContext stack_context() const;
  /// Builds replica i's service + protocol app (registers the service in
  /// services_); shared by the constructor and restart_replica.
  std::unique_ptr<bft::ReplicaApp> make_replica_app(uint32_t i);

  ClusterOptions options_;
  sim::Simulator sim_;
  obs::MetricsRegistry net_metrics_;
  std::vector<std::unique_ptr<obs::MetricsRegistry>> replica_metrics_;
  std::vector<std::unique_ptr<obs::MetricsRegistry>> client_metrics_;
  obs::Tracer tracer_;
  std::unique_ptr<host::Host> host_;  // outlives every bound endpoint below
  std::unique_ptr<bft::KeyRing> keys_;
  crypto::Drbg master_rng_;

  /// Shared crypto material (the dealer's tape; causal/stack.h).
  StackMaterial material_;

  std::unique_ptr<abft::CoinKeyMaterial> coin_;  // async engine

  std::vector<Service*> services_;  // borrowed from the apps
  std::vector<uint32_t> replica_generation_;  // bumped on each restart
  std::vector<std::unique_ptr<bft::ReplicaApp>> replica_apps_;
  std::vector<std::unique_ptr<bft::Replica>> replicas_;
  std::vector<std::unique_ptr<abft::AsyncReplica>> async_replicas_;
  std::vector<std::unique_ptr<bft::ClientProtocol>> client_protocols_;
  std::vector<std::unique_ptr<bft::Client>> clients_;
};

}  // namespace scab::causal
