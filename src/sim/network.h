// Simulated message-passing network with latency + bandwidth queueing,
// sequential per-node CPU, and declarative fault injection.
//
// Model:
//  * Every link has a propagation latency; each NODE has one egress pipe
//    (single NIC, as on the paper's testbed) whose bandwidth serializes all
//    of its outgoing messages — this is what makes the WAN profile (1 MB/s)
//    throttle throughput exactly as in the paper's Fig. 5, and what caps a
//    primary that must send n-1 copies of every batch.
//  * Every node is a sequential processor: a handler starts at
//    max(arrival, busy_until) and charges CPU cost through charge(); sends
//    issued inside a handler depart when the charged work completes.
//  * Faults are injected at the network boundary through the host's one
//    fault plan (host/fault.h), which the network borrows: crashed nodes,
//    dropped or delayed links, and an arbitrary filter/tamper hook used by
//    the Byzantine tests ("corrupt the decryption share of replica 2").
//
// The network records only what the simulator models: "net.egress.*" (the
// one NIC).  Message counts ("net.messages_sent", ...) belong to the host
// (host/host.h), which counts them the same way on every runtime.
#pragma once

#include <unordered_map>

#include "common/bytes.h"
#include "host/fault.h"
#include "obs/metrics.h"
#include "sim/simulator.h"

namespace scab::sim {

using NodeId = uint32_t;

class Network;

/// Base class for simulated processes (replicas, clients).
class Node {
 public:
  Node(Simulator& sim, NodeId id) : sim_(sim), id_(id) {}
  virtual ~Node() = default;

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  NodeId id() const { return id_; }

  /// Message delivery callback; invoked when this node's sequential
  /// processor picks the message up.
  virtual void on_message(NodeId from, BytesView msg) = 0;

  /// Charges CPU time for work done inside the current handler. The node's
  /// processor stays busy accordingly and subsequent sends depart later.
  void charge(SimTime cost) { busy_until_ = std::max(busy_until_, sim_.now()) + cost; }

  /// The virtual time at which work charged so far completes.
  SimTime ready_at() const { return std::max(busy_until_, sim_.now()); }

  Simulator& sim() const { return sim_; }

 private:
  friend class Network;
  Simulator& sim_;
  NodeId id_;
  SimTime busy_until_ = 0;
};

/// Per-link shaping parameters.
struct LinkProfile {
  SimTime latency = 0;           // one-way propagation delay, ns
  uint64_t bandwidth_bps = 0;    // bytes per second; 0 = infinite
  SimTime jitter = 0;            // uniform extra delay in [0, jitter)
};

/// The two settings of the paper's §VI-B plus an ideal profile for tests.
struct NetworkProfile {
  LinkProfile link;

  /// "a LAN setting with 100 MB bandwidth and 0.1 ms latency"
  static NetworkProfile lan();
  /// "a WAN setting with 1 MB bandwidth and 120 ms latency"
  static NetworkProfile wan();
  /// Near-zero latency (1 us floor), infinite bandwidth: unit tests where
  /// only ordering matters.  A literal zero-latency profile would let
  /// closed loops complete unboundedly much work at a single instant.
  static NetworkProfile ideal();
};

class Network {
 public:
  /// `faults` is applied on send and must outlive the network; a node
  /// that crashes while a message to it is in flight also loses that
  /// message at delivery.  `metrics` (optional) receives "net.egress.*".
  Network(Simulator& sim, NetworkProfile profile, host::FaultPlan& faults,
          uint64_t jitter_seed = 0, obs::MetricsRegistry* metrics = nullptr);

  void attach(Node* node);
  void detach(NodeId id);

  /// Sends `msg` from `from` to `to`.  The fault plan runs first, then a
  /// message to a node that is not attached is dropped.  Departure waits
  /// for the sender's charged CPU work; the link applies serialization +
  /// latency + jitter; the receiver's sequential processor then schedules
  /// on_message.
  void send(NodeId from, NodeId to, Bytes msg);

  Simulator& sim() const { return sim_; }

 private:
  // Keyed by NodeId (not Node*): the destination is re-resolved when the
  // delivery event fires, so a node detached (or replaced by a restart)
  // while messages are in flight just drops them instead of dangling.
  void deliver(NodeId from, NodeId to, Bytes msg, SimTime arrival);
  obs::Counter& egress_bytes_counter(NodeId from);

  Simulator& sim_;
  NetworkProfile profile_;
  host::FaultPlan& faults_;
  std::unordered_map<NodeId, Node*> nodes_;
  std::unordered_map<NodeId, SimTime> egress_free_at_;
  uint64_t jitter_state_;

  obs::MetricsRegistry& metrics_;
  obs::Histogram& egress_wait_ns_;  // start_tx - depart: NIC queueing delay
  // Per-sender egress byte counters ("net.egress.bytes.<id>"), resolved
  // lazily on first send so only attached-and-active nodes appear.
  std::unordered_map<NodeId, obs::Counter*> egress_bytes_;
};

}  // namespace scab::sim
