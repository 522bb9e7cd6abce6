// The host abstraction: everything a protocol node needs from its runtime.
//
// Every protocol object in the stack (bft::Replica, bft::Client, the
// CP0–CP3 engines, abft::AsyncReplica) is written against this seam and
// nothing else, so the same code runs under
//
//   * sim::SimHost — the deterministic discrete-event simulator (virtual
//     time, one global event loop, bit-reproducible runs), and
//   * rt::ThreadHost — a real-time runtime (steady-clock timers, one worker
//     thread per node draining an MPSC mailbox, pluggable transports).
//
// The contract every host provides (DESIGN.md §8):
//
//   Clock      now() — monotonic nanoseconds.  Virtual under the sim.
//   Timers     schedule(node, delay, fn) — fn runs on `node`'s executor
//              after >= delay.
//   Transport  send(from, to, bytes) — unicast, unordered across pairs,
//              FIFO per (from, to) not guaranteed by the interface (the
//              protocols tolerate reordering by design).  Every host counts
//              each send and each delivery into "net.messages_sent",
//              "net.bytes_sent" and "net.messages_delivered" through the
//              base's count_sent()/count_delivered().
//   Executor   post(node, fn) — runs fn on `node`'s executor.  A node's
//              handlers (on_message, timers, posted fns) NEVER run
//              concurrently with each other: each node is a sequential
//              process on every host, which is the invariant that keeps
//              the protocol objects lock-free.
//   charge     cost accounting hook.  The simulator turns charges into
//              virtual busy-time (the paper's modeled CPU costs); real-time
//              hosts ignore them — real work is measured, not modeled.
//   Faults     faults() — the host's one fault plan (host/fault.h), owned
//              by this base and applied to every message the host carries.
//   Storage    storage(node) — durable per-node blob store + append log
//              (host/storage.h), or nullptr when the node runs without
//              durability.  One table in the Host base for every runtime;
//              it survives unbind/rebind.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>

#include "common/bytes.h"
#include "host/cost_model.h"
#include "host/fault.h"
#include "host/storage.h"
#include "host/time.h"
#include "host/worker_pool.h"
#include "obs/metrics.h"

namespace scab::host {

/// A protocol endpoint (replica or client).
class Node {
 public:
  virtual ~Node() = default;

  /// Message delivery callback; invoked on this node's sequential executor.
  virtual void on_message(NodeId from, BytesView msg) = 0;
};

class Clock {
 public:
  virtual ~Clock() = default;
  virtual Time now() const = 0;
};

class Timers {
 public:
  virtual ~Timers() = default;
  /// Runs `fn` on `node`'s executor once at least `delay` ns have passed.
  virtual void schedule(NodeId node, Time delay, std::function<void()> fn) = 0;
};

class Transport {
 public:
  virtual ~Transport() = default;
  /// Sends `msg` from `from` to `to`; delivered via Node::on_message on the
  /// receiver's executor.  Delivery is best-effort (faults, crashes).
  virtual void send(NodeId from, NodeId to, Bytes msg) = 0;
};

class Executor {
 public:
  virtual ~Executor() = default;
  /// Runs `fn` on `node`'s sequential executor.  The simulator host runs it
  /// inline (the caller IS the event loop); thread hosts enqueue it on the
  /// node's mailbox.  This is the only safe way to poke a node from outside
  /// its own handlers.
  virtual void post(NodeId node, std::function<void()> fn) = 0;
};

/// A complete runtime: clock + timers + transport + per-node executors +
/// crypto worker pool, plus endpoint registration and the cost-charging
/// hook.  The WorkerPool default (inline submit) is what the deterministic
/// simulator keeps; rt::ThreadHost overrides it with real threads.
class Host : public Clock,
             public Timers,
             public Transport,
             public Executor,
             public WorkerPool {
 public:
  /// `metrics` (optional) receives the message counters and the fault
  /// plan's "net.drops.*", all registered here so a dump carries them
  /// before the first message.
  explicit Host(obs::MetricsRegistry* metrics)
      : faults_(metrics),
        sent_(counter(metrics, "net.messages_sent")),
        bytes_(counter(metrics, "net.bytes_sent")),
        delivered_(counter(metrics, "net.messages_delivered")) {}

  /// Registers `endpoint` as node `id`.  Must complete before any traffic
  /// or timers target the node.
  virtual void bind(NodeId id, Node* endpoint) = 0;
  virtual void unbind(NodeId id) = 0;

  /// Cost-accounting hook: `cost` ns of CPU work attributed to `node`.
  /// Default no-op — real-time hosts measure instead of model.
  virtual void charge(NodeId node, Time cost) {
    (void)node;
    (void)cost;
  }

  /// Quiesces the host: joins worker threads, drops pending timers.  After
  /// stop() returns, no endpoint callback is running or will run — callers
  /// may then destroy the endpoints.  Idempotent; no-op for the simulator
  /// (its event loop is caller-driven).
  virtual void stop() {}

  /// The fault plan (crash/cut/delay/tamper) applied to every message
  /// this host carries.
  FaultPlan& faults() { return faults_; }

  /// Attaches (or replaces) durable storage for `id`.  The host OWNS it and
  /// keeps it across unbind/rebind of the id — that survival is the crash
  /// boundary an in-process restart recovers over.  Pure data handoff: no
  /// events, no RNG, so seeded sim runs stay bit-identical whether or not
  /// storage is attached (see determinism_test).
  void attach_storage(NodeId id, std::unique_ptr<Storage> storage) {
    std::lock_guard<std::mutex> lk(storage_mu_);
    storage_[id] = std::move(storage);
  }
  /// Durable storage attached to `node`, or nullptr when the node runs
  /// without durability.  The pointed-to Storage is used only from the
  /// owning node's executor; the mutex guards the table alone.
  Storage* storage(NodeId node) {
    std::lock_guard<std::mutex> lk(storage_mu_);
    auto it = storage_.find(node);
    return it == storage_.end() ? nullptr : it->second.get();
  }

 protected:
  /// The counting points: a derived host calls count_sent() once per
  /// send() with the size the sender sent, and count_delivered() once per
  /// message it hands to a node.
  void count_sent(std::size_t bytes) {
    sent_.inc();
    bytes_.inc(bytes);
  }
  void count_delivered() { delivered_.inc(); }

 private:
  static obs::Counter& counter(obs::MetricsRegistry* metrics,
                               std::string_view name) {
    return (metrics ? *metrics : obs::MetricsRegistry::inert()).counter(name);
  }

  FaultPlan faults_;
  obs::Counter& sent_;
  obs::Counter& bytes_;
  obs::Counter& delivered_;
  std::mutex storage_mu_;
  std::unordered_map<NodeId, std::unique_ptr<Storage>> storage_;
};

/// Mixin deduplicating the per-node host plumbing that every protocol class
/// needs: identity, clock/timer/charge forwarding, and bind/unbind lifetime
/// (bound by the derived constructor's last statement, unbound on
/// destruction).  `Base` is the context interface the class implements
/// (bft::ReplicaContext), or the empty NoContext for a node that hands its
/// context out per operation (bft::Client); the forwarders implicitly
/// override the matching context virtuals.
struct NoContext {};

template <class Base = NoContext>
class HostBound : public Base, public Node {
 public:
  HostBound(Host& host, NodeId id, const CostModel& costs)
      : host_(host), id_(id), costs_(costs) {}
  ~HostBound() override { host_.unbind(id_); }

  HostBound(const HostBound&) = delete;
  HostBound& operator=(const HostBound&) = delete;

  NodeId id() const { return id_; }
  Time now() const { return host_.now(); }
  void schedule(Time delay, std::function<void()> fn) {
    host_.schedule(id_, delay, std::move(fn));
  }
  void charge(Op op, std::size_t bytes) {
    host_.charge(id_, costs_.cost(op, bytes));
  }
  /// Hands `job` to the host's worker pool; the continuation it returns is
  /// posted back to this node's executor (host/worker_pool.h contract).
  void offload(PoolJob job) { host_.submit(id_, std::move(job)); }

  Host& host() const { return host_; }

 protected:
  /// Registers this node with the host.  The (final) derived class calls it
  /// once it is fully constructed: a threaded host may deliver to the node
  /// from its worker the moment it is bound, so binding here in the base
  /// constructor would expose a half-built node.
  void bind() { host_.bind(id_, this); }
  void send_raw(NodeId to, Bytes msg) { host_.send(id_, to, std::move(msg)); }
  const CostModel& costs() const { return costs_; }

 private:
  Host& host_;
  NodeId id_;
  CostModel costs_;  // by value: hosts outlive nodes, option structs may not
};

}  // namespace scab::host
