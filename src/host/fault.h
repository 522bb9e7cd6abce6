// The fault plan: one crash/cut/delay/tamper model for both runtimes
// (DESIGN.md §9).
//
// A host::FaultPlan is how tests, the chaos harness and the fault benches
// inject failures without caring which runtime carries the cluster.  Each
// host owns one and applies it at the point every message passes:
//
//   * sim::Network applies it at send time, and checks the crash flag
//     again at delivery for a node that crashed while a message was in
//     flight;
//   * rt::ThreadHost applies it at its single delivery chokepoint in front
//     of the per-node mailboxes, and defers a delayed message onto the
//     receiver's own timer queue.
//
// crash()/restart() here gate the node's NETWORK presence only; actually
// tearing a node down and bringing it back with empty volatile state is the
// layer above (causal::Cluster::crash_replica / restart_replica), which
// combines the plan with host bind/unbind and object reconstruction.
//
// The plan counts its own drops into "net.drops.{crash,cut,tamper}", so
// fault tests assert attribution the same way on either runtime.
#pragma once

#include <array>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <unordered_set>

#include "common/bytes.h"
#include "host/time.h"

namespace scab::obs {
class Counter;
class MetricsRegistry;
}  // namespace scab::obs

namespace scab::host {

class FaultPlan {
 public:
  /// Inspect/tamper hook: return std::nullopt to drop the message, or a
  /// (possibly modified) payload to deliver.  Runs after the crash and cut
  /// checks, outside the plan's lock; under rt::ThreadHost it may be
  /// invoked concurrently from several threads and must be thread-safe.
  using Tamper =
      std::function<std::optional<Bytes>(NodeId from, NodeId to, BytesView msg)>;

  /// What apply() decided for one message.
  struct Verdict {
    enum class Drop : uint8_t { kNone, kCrash, kCut, kTamper };
    Drop drop = Drop::kNone;
    Time extra = 0;  // added one-way delay of a delivered message
    bool deliver() const { return drop == Drop::kNone; }
  };

  /// `metrics` (optional) receives the "net.drops.*" counters, registered
  /// here so a dump carries them even when nothing was dropped.
  explicit FaultPlan(obs::MetricsRegistry* metrics);

  /// Drops everything to and from `node` until restart(node).
  void crash(NodeId node);
  void restart(NodeId node);
  bool is_crashed(NodeId node) const;

  /// Drops messages on the directed link from -> to.
  void cut(NodeId from, NodeId to);
  void heal(NodeId from, NodeId to);
  /// Clears every cut and every per-link delay (crash flags stay).
  void heal_all();

  /// Adds `extra` ns of one-way delay on the directed link from -> to (0
  /// removes it), on top of whatever latency the runtime itself adds.
  void delay(NodeId from, NodeId to, Time extra);
  void clear_delays();

  void set_tamper(Tamper t);
  void clear_tamper();

  /// Applies the plan to one message: a drop is counted, a tamper hook's
  /// rewrite replaces `msg`.
  Verdict apply(NodeId from, NodeId to, Bytes& msg);
  /// The delivery-time check for a message in flight when its receiver
  /// crashed: true (and counted) when `to` is crashed now.
  bool drop_if_crashed(NodeId to);

 private:
  static uint64_t key(NodeId a, NodeId b) {
    return (static_cast<uint64_t>(a) << 32) | b;
  }
  Verdict count(Verdict v);

  mutable std::mutex mu_;
  std::unordered_set<NodeId> crashed_;
  std::unordered_set<uint64_t> cut_;
  std::unordered_map<uint64_t, Time> delays_;
  // Shared so apply() can take the hook out from under the lock by a
  // reference-count bump instead of copying the callable.
  std::shared_ptr<const Tamper> tamper_;
  // Indexed by Verdict::Drop minus one: crash, cut, tamper.
  std::array<obs::Counter*, 3> drops_;
};

}  // namespace scab::host
