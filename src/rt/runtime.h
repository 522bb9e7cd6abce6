// rt::ThreadHost — the real-time host: one worker thread per bound node.
//
// Where sim::SimHost multiplexes every node onto one virtual-time event
// loop, ThreadHost gives each node a real thread that drains an MPSC
// mailbox (tasks from other nodes' sends, posts from the controlling
// thread) interleaved with a steady-clock timer queue.  The host-interface
// invariant is preserved exactly: a node's handlers never run concurrently
// with each other, so protocol objects stay lock-free; all cross-node
// communication funnels through the mailbox.
//
//   now()      steady-clock nanoseconds since host construction
//   schedule   per-node timer heap, fired by the node's own worker
//   send       delegated to an rt::Transport (in-process ChannelTransport
//              by default; SocketTransport for multi-process runs), and
//              counted into the host's "net.messages_sent"/"net.bytes_sent"
//   post       enqueue onto the node's mailbox
//   submit     shared crypto worker pool (DESIGN.md §12): jobs fan out over
//              `pool_threads` real threads; each completion is posted back
//              to the owning node's mailbox.  0 threads = inline (the
//              WorkerPool default, same sequencing as the simulator).
//   charge     NO-OP: real time is measured, not modeled (DESIGN.md §8)
//   stop       joins every worker; pending timers and tasks are dropped
//
// Fault injection (DESIGN.md §9): the host's host::FaultPlan is applied at
// the single delivery chokepoint in front of the mailboxes — crashed nodes
// and cut links drop (counted by the plan into the same
// "net.drops.{crash,cut,tamper}" counters the simulator uses), delayed
// links defer delivery onto the receiver's own timer queue, and the tamper
// hook may rewrite or drop payloads.  A message that passes the plan is
// counted into "net.messages_delivered" as it is handed to the mailbox.
// Live unbind/rebind is supported: a node can be torn down mid-run (its
// worker joins, queued work dies with it) and a replacement endpoint bound
// under the same id — this is what Cluster::restart_replica rides on.
#pragma once

#include <chrono>
#include <condition_variable>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "host/host.h"
#include "rt/transport.h"

namespace scab::rt {

class ThreadHost final : public host::Host {
 public:
  /// `transport` defaults to an in-process ChannelTransport.  `metrics`
  /// (optional) receives the host's "net.messages_*"/"net.bytes_sent" and
  /// the fault plan's "net.drops.*" counters.
  /// `pool_threads` sizes the shared crypto worker pool (0 = run submit()
  /// jobs inline on the caller).
  explicit ThreadHost(std::unique_ptr<rt::Transport> transport = nullptr,
                      obs::MetricsRegistry* metrics = nullptr,
                      std::size_t pool_threads = 0);
  ~ThreadHost() override;

  host::Time now() const override;

  void bind(host::NodeId id, host::Node* endpoint) override;
  void unbind(host::NodeId id) override;
  void schedule(host::NodeId node, host::Time delay,
                std::function<void()> fn) override;
  void post(host::NodeId node, std::function<void()> fn) override;
  void send(host::NodeId from, host::NodeId to, Bytes msg) override;
  void submit(host::NodeId owner, host::PoolJob job) override;
  std::size_t pool_threads() const override { return pool_workers_.size(); }
  void charge(host::NodeId node, host::Time cost) override {
    (void)node;
    (void)cost;  // real hosts measure; they do not model
  }
  void stop() override;

 private:
  using SteadyClock = std::chrono::steady_clock;

  /// One node's sequential executor: a thread draining tasks + due timers.
  struct Worker {
    explicit Worker(host::Node* ep) : endpoint(ep) {}

    host::Node* endpoint;
    std::mutex mu;
    std::condition_variable cv;
    std::deque<std::function<void()>> tasks;
    // multimap: earliest deadline first, FIFO among equal deadlines.
    std::multimap<SteadyClock::time_point, std::function<void()>> timers;
    bool stopping = false;
    std::thread thread;

    void loop();
    void push_task(std::function<void()> fn);
    void push_timer(SteadyClock::time_point at, std::function<void()> fn);
    void stop_and_join();
  };

  std::shared_ptr<Worker> worker(host::NodeId id) const;
  void deliver(host::NodeId from, host::NodeId to, Bytes msg);
  void pool_loop();

  const SteadyClock::time_point epoch_;
  std::unique_ptr<rt::Transport> transport_;
  // shared_ptr: deliver()/post()/schedule() hold a reference across the
  // enqueue, so a concurrent live unbind (node restart) cannot free the
  // worker out from under them; push_* on a stopping worker is a no-op.
  mutable std::mutex mu_;  // guards workers_ (bind/unbind vs lookups)
  std::unordered_map<host::NodeId, std::shared_ptr<Worker>> workers_;
  bool stopped_ = false;
  // Bind generation per node id, bumped on bind AND unbind (under mu_): a
  // pool completion for an earlier incarnation of the id is stale and must
  // be dropped, exactly like a message to a crashed node.
  std::unordered_map<host::NodeId, uint64_t> generations_;

  /// A queued pool job with the owner snapshot taken at submit time.
  struct PoolTask {
    host::NodeId owner;
    uint64_t generation;
    host::PoolJob job;
  };
  std::mutex pool_mu_;  // guards pool_tasks_/pool_stopping_ only
  std::condition_variable pool_cv_;
  std::deque<PoolTask> pool_tasks_;
  bool pool_stopping_ = false;
  std::vector<std::thread> pool_workers_;
};

}  // namespace scab::rt
