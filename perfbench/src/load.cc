#include "load.h"

#include <chrono>
#include <thread>

#include "causal/stack.h"
#include "host/cost_model.h"

namespace perfbench {

namespace rt = scab::rt;
using scab::Bytes;

Bytes make_payload(uint64_t seed, uint64_t index, std::size_t bytes) {
  Bytes op(bytes, 0);
  uint64_t state = seed ^ (index * 0x9e3779b97f4a7c15ull);
  for (std::size_t i = 0; i < bytes; i += 8) {
    const uint64_t word = i == 0 ? index : splitmix64(state);
    for (std::size_t b = 0; b < 8 && i + b < bytes; ++b) {
      op[i + b] = static_cast<uint8_t>(word >> (8 * b));
    }
  }
  return op;
}

Driver::Driver(const scab::daemon::ClusterConfig& cfg, const Workload& w,
               uint64_t seed, SpanLog& spans,
               std::unique_ptr<rt::SocketTransport> transport)
    : cfg_(cfg), w_(w), seed_(seed), spans_(spans), bundle_(cfg_) {
  for (const auto& [rid, ep] : cfg_.replicas) {
    transport->add_peer(rid, {ep.ip, ep.port});
  }
  transport->bind_metrics(&metrics_);
  host_ = std::make_unique<rt::ThreadHost>(std::move(transport), &metrics_);
  host_epoch_ns_ = mono_ns() - host_->now();
  const scab::causal::StackContext ctx = bundle_.context();
  for (const auto& [id, ep] : cfg_.clients) {
    Endpoint e;
    e.id = id;
    e.protocol = scab::causal::make_client_protocol(ctx);
    e.client = std::make_unique<scab::bft::Client>(
        *host_, id, cfg_.bft, bundle_.keys(), scab::host::CostModel::zero(),
        e.protocol.get(), bundle_.client_rng(id), &metrics_, &tracer_);
    endpoints_.push_back(std::move(e));
  }
  busy_.assign(endpoints_.size(), false);
}

Driver::~Driver() { stop(); }

void Driver::stop() {
  if (host_) host_->stop();
}

bool Driver::probe(double timeout_s) {
  // Shared with the hook: a reply that lands after a timeout must not
  // write to this frame.
  auto done = std::make_shared<std::atomic<bool>>(false);
  Endpoint& e = endpoints_.front();
  probes_.fetch_add(1);
  host_->post(e.id, [this, &e, done] {
    e.client->submit(make_payload(seed_, ~0ull, w_.op_bytes),
                     [done](uint64_t, scab::host::Time, scab::host::Time) {
                       done->store(true);
                     });
  });
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_s);
  while (!done->load()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return true;
}

uint64_t Driver::new_record(const OpRecord& r) {
  std::lock_guard<std::mutex> lk(mu_);
  records_.push_back(r);
  created_.fetch_add(1);
  return records_.size() - 1;
}

void Driver::note_generated(uint64_t index) {
  std::lock_guard<std::mutex> lk(mu_);
  if (index >= records_.size()) records_.resize(index + 1);
  created_.fetch_add(1);
}

void Driver::finish(uint64_t index, int64_t issue_ns, int64_t reply_ns) {
  OpRecord r;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (index >= records_.size()) records_.resize(index + 1);
    records_[index].issue_ns = issue_ns;
    records_[index].reply_ns = reply_ns;
    r = records_[index];
  }
  completed_.fetch_add(1);
  const int64_t slice = trace_slice_ns_.load();
  if (slice > 0 &&
      in_traced_slice(start_ns(r), trace_begin_ns_.load(), slice)) {
    const int64_t e = host_epoch_ns_;
    const int32_t op = spans_.add("op", e + start_ns(r), e + reply_ns,
                                  parent_span_.load(), index + 1);
    if (r.due_ns >= 0) {
      spans_.add("op.queued", e + r.due_ns, e + issue_ns, op, index + 1);
    }
  }
}

void Driver::start_closed_loop() {
  running_.store(true);
  if (w_.client_inflight > 1 || w_.client_batch > 1) {
    // Pipelined CP0: the client draws logical ops from the generator and
    // reports each one through the hook (index = the client's op index).
    Endpoint& e = endpoints_.front();
    host_->post(e.id, [this, &e] {
      e.client->set_pipeline(
          [this] {
            return scab::causal::make_client_protocol(bundle_.context(),
                                                      /*batching=*/true);
          },
          w_.client_inflight, w_.client_batch);
      run_pipelined(0);
    });
    return;
  }
  for (std::size_t i = 0; i < endpoints_.size(); ++i) {
    host_->post(endpoints_[i].id, [this, i] { issue_closed(i); });
  }
}

void Driver::run_pipelined(uint64_t max_ops) {
  endpoints_.front().client->run_closed_loop(
      [this](uint64_t index) {
        note_generated(index);
        return make_payload(seed_, index, w_.op_bytes);
      },
      max_ops, [this](uint64_t index, scab::host::Time s, scab::host::Time t) {
        finish(index, s, t);
      });
}

void Driver::issue_closed(std::size_t ep) {
  if (!running_.load()) return;
  const uint64_t index = new_record(OpRecord{});
  Endpoint& e = endpoints_[ep];
  e.client->submit(
      make_payload(seed_, index, w_.op_bytes),
      [this, ep, index](uint64_t, scab::host::Time s, scab::host::Time t) {
        finish(index, s, t);
        // Not from inside the hook: submit() replaces the running hook.
        host_->post(endpoints_[ep].id, [this, ep] { issue_closed(ep); });
      });
}

bool Driver::settle(uint64_t count, double timeout_s) {
  settle_left_.store(count);
  host_->post(endpoints_.front().id, [this] { issue_settle(); });
  // The chain records each op before it completes, so drain() cannot
  // observe created == completed until the last one has replied.
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_s);
  while (settle_left_.load() > 0) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return drain(timeout_s);
}

void Driver::issue_settle() {
  const uint64_t index = new_record(OpRecord{});
  settle_left_.fetch_sub(1);
  endpoints_.front().client->submit(
      make_payload(seed_, index, w_.op_bytes),
      [this, index](uint64_t, scab::host::Time s, scab::host::Time t) {
        finish(index, s, t);
        if (settle_left_.load() > 0) {
          host_->post(endpoints_.front().id, [this] { issue_settle(); });
        }
      });
}

void Driver::issue_open(std::size_t ep, uint64_t index) {
  Endpoint& e = endpoints_[ep];
  e.client->submit(
      make_payload(seed_, index, w_.op_bytes),
      [this, ep, index](uint64_t, scab::host::Time s, scab::host::Time t) {
        finish(index, s, t);
        std::lock_guard<std::mutex> lk(mu_);
        if (due_queue_.empty()) {
          busy_[ep] = false;
          return;
        }
        const uint64_t next = due_queue_.front();
        due_queue_.pop_front();
        host_->post(endpoints_[ep].id,
                    [this, ep, next] { issue_open(ep, next); });
      });
}

void Driver::run_open_loop(int64_t t0_ns, int64_t end_ns) {
  // Enough arrivals for the whole span at the offered rate, plus slack.
  const double span_s = static_cast<double>(end_ns - t0_ns) / 1e9;
  const auto schedule = poisson_schedule(
      seed_ ^ 0x6f70656e6c6f6f70ull, w_.open_rate,
      static_cast<std::size_t>(w_.open_rate * span_s * 1.5) + 64);
  running_.store(true);
  for (const int64_t offset : schedule) {
    const int64_t due = t0_ns + offset;
    if (due >= end_ns || !running_.load()) break;
    for (int64_t now = now_ns(); now < due; now = now_ns()) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
    }
    const int64_t late_ns = now_ns() - due;
    std::lock_guard<std::mutex> lk(mu_);
    issue_late_us_.push_back(static_cast<double>(late_ns) / 1e3);
    OpRecord r;
    r.due_ns = due;
    records_.push_back(r);
    created_.fetch_add(1);
    const uint64_t index = records_.size() - 1;
    std::size_t ep = 0;
    while (ep < busy_.size() && busy_[ep]) ++ep;
    if (ep == busy_.size()) {
      due_queue_.push_back(index);
      continue;
    }
    busy_[ep] = true;
    host_->post(endpoints_[ep].id, [this, ep, index] { issue_open(ep, index); });
  }
}

void Driver::stop_issuing() {
  running_.store(false);
  if (w_.client_inflight > 1 || w_.client_batch > 1) {
    // Re-arm the pipelined loop with one final batch: the client then
    // stops drawing ops, and every request carries exactly client_batch.
    host_->post(endpoints_.front().id,
                [this] { run_pipelined(w_.client_batch); });
  }
}

bool Driver::drain(double timeout_s) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_s);
  for (;;) {
    if (completed_.load() == created_.load()) return true;
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

uint64_t Driver::requests_issued() const {
  const uint64_t batch = std::max<uint32_t>(1, w_.client_batch);
  return probes_.load() + created_.load() / batch;
}

std::vector<OpRecord> Driver::records() const {
  std::lock_guard<std::mutex> lk(mu_);
  return records_;
}

std::vector<double> Driver::issue_late_us() const {
  std::lock_guard<std::mutex> lk(mu_);
  return issue_late_us_;
}

}  // namespace perfbench
