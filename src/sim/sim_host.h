// SimHost: the discrete-event simulator as a host::Host implementation.
//
// Determinism contract: SimHost adds NO events, randomness, or reordering
// of its own — every call is a direct delegation to the pre-existing
// simulator primitives, in the same order the protocol code issues it:
//
//   now()       -> Simulator::now()              (virtual time)
//   schedule()  -> Simulator::schedule_after()   (same (time, seq) order)
//   send()      -> Network::send()               (same latency/bandwidth/
//                                                 fault pipeline)
//   post()      -> runs fn INLINE                (the caller already is the
//                                                 single event loop)
//   charge()    -> sim::Node::charge()           (virtual busy-time on the
//                                                 node's sequential CPU)
//
// so a protocol stack running on SimHost is bit-for-bit identical to the
// pre-refactor code that subclassed sim::Node directly.  The host owns its
// Network; each bound endpoint gets an internal Adapter node attached to
// it, which owns the busy_until_ bookkeeping that shapes message departure
// and delivery times.  A send is counted in send(), a delivery when the
// adapter hands the message to its endpoint.
//
// Node restart support: every bind bumps the node's epoch, and a scheduled
// timer only fires if its node's epoch is unchanged — so timers armed by a
// torn-down endpoint (watchdogs, reveal retries) die silently instead of
// running against freed state.  The guard adds no events and no RNG draws:
// event times, counts and ordering are untouched.
//
// The Network borrows the host's fault plan (faults()) and applies it on
// send, before it checks that the destination is attached.
#pragma once

#include <memory>
#include <unordered_map>

#include "host/host.h"
#include "sim/network.h"

namespace scab::sim {

class SimHost final : public host::Host {
 public:
  /// `metrics` (optional) receives the host's "net.*" counters and the
  /// network's "net.egress.*".
  SimHost(Simulator& sim, NetworkProfile profile, uint64_t jitter_seed,
          obs::MetricsRegistry* metrics)
      : Host(metrics), net_(sim, profile, faults(), jitter_seed, metrics) {}

  host::Time now() const override { return net_.sim().now(); }

  void schedule(host::NodeId node, host::Time delay,
                std::function<void()> fn) override {
    // One global event loop: node affinity is automatic.  The epoch check
    // keeps a timer from outliving its endpoint across unbind/rebind.
    const uint64_t epoch = epoch_of(node);
    net_.sim().schedule_after(
        delay, [this, node, epoch, fn = std::move(fn)] {
          if (epoch_of(node) == epoch) fn();
        });
  }

  void post(host::NodeId node, std::function<void()> fn) override {
    (void)node;
    fn();  // the caller is the event loop; inline = the pre-refactor call
  }

  void send(host::NodeId from, host::NodeId to, Bytes msg) override {
    count_sent(msg.size());
    net_.send(from, to, std::move(msg));
  }

  void bind(host::NodeId id, host::Node* endpoint) override;
  void unbind(host::NodeId id) override;
  void charge(host::NodeId node, host::Time cost) override;

 private:
  /// The sim::Node the Network sees for one bound endpoint: relays
  /// deliveries and carries the sequential-CPU busy time.
  class Adapter : public Node {
   public:
    Adapter(SimHost& host, NodeId id, host::Node* endpoint)
        : Node(host.net_.sim(), id), host_(host), endpoint_(endpoint) {}
    void on_message(NodeId from, BytesView msg) override {
      host_.count_delivered();
      endpoint_->on_message(from, msg);
    }

   private:
    SimHost& host_;
    host::Node* endpoint_;
  };

  uint64_t epoch_of(host::NodeId node) const {
    auto it = bind_epochs_.find(node);
    return it == bind_epochs_.end() ? 0 : it->second;
  }

  Network net_;
  std::unordered_map<host::NodeId, std::unique_ptr<Adapter>> adapters_;
  // Bumped on every bind AND unbind, so timers from any earlier lifetime of
  // the id can never fire into a newer (or absent) endpoint.
  std::unordered_map<host::NodeId, uint64_t> bind_epochs_;
};

}  // namespace scab::sim
