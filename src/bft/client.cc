#include "bft/client.h"

#include <algorithm>

#include "bft/batch.h"

namespace scab::bft {

using host::Op;

namespace {
// Exponential-backoff cap: retry delays double per retransmission up to
// base << kMaxBackoffShift.
constexpr uint32_t kMaxBackoffShift = 6;
}  // namespace

bool ReplyQuorum::add(NodeId replica, const ReplyMsg& reply) {
  if (fired_ || reply.client_seq != client_seq_) return false;
  votes_[replica] = reply.result;
  uint32_t matching = 0;
  for (const auto& [_, r] : votes_) {
    if (r == reply.result) ++matching;
  }
  if (matching >= need_) {
    fired_ = true;
    return true;
  }
  return false;
}

Client::Client(host::Host& host, NodeId id, BftConfig config,
               const KeyRing& keys, const host::CostModel& costs,
               ClientProtocol* protocol, crypto::Drbg rng,
               obs::MetricsRegistry* metrics, obs::Tracer* tracer)
    : HostBound(host, id, costs),
      config_(config),
      keys_(keys),
      protocol_(protocol),
      rng_(std::move(rng)),
      metrics_(metrics ? *metrics : obs::MetricsRegistry::inert()),
      tracer_(tracer ? *tracer : obs::Tracer::inert()) {
  m_.submitted = &metrics_.counter("client.submitted");
  m_.completed = &metrics_.counter("client.completed");
  m_.retries = &metrics_.counter("client.retries");
  m_.latency_ns = &metrics_.histogram("client.latency_ns");
  bind();
}

Client::~Client() = default;

// Per-slot view of the client: every ClientContext capability forwards to
// the shared node (one sequential executor, one rng, one seq counter);
// only complete() is slot-scoped so a finishing protocol frees exactly its
// own slot.
struct Client::SlotContext final : ClientContext {
  SlotContext(Client* client, std::size_t slot) : c(client), s(slot) {}

  NodeId id() const override { return c->id(); }
  const BftConfig& config() const override { return c->config_; }
  host::Time now() const override { return c->now(); }
  void send_request(uint64_t client_seq, Bytes payload) override {
    c->send_request(client_seq, std::move(payload));
  }
  void send_request_to(NodeId replica, uint64_t client_seq,
                       Bytes payload) override {
    c->send_request_to(replica, client_seq, std::move(payload));
  }
  void send_causal(NodeId replica, Bytes body) override {
    c->send_causal(replica, std::move(body));
  }
  uint64_t next_seq() override { return c->next_seq(); }
  void complete(Bytes result) override {
    c->complete_slot(s, std::move(result));
  }
  void charge(host::Op op, std::size_t bytes) override { c->charge(op, bytes); }
  crypto::Drbg& rng() override { return c->rng_; }
  const KeyRing& keys() const override { return c->keys_; }

  Client* c;
  std::size_t s;
};

void Client::set_pipeline(ProtocolFactory factory, uint32_t inflight,
                          uint32_t batch) {
  pipeline_inflight_ = std::max<uint32_t>(1, inflight);
  pipeline_batch_ = std::max<uint32_t>(1, batch);
  slots_.clear();
  if (pipeline_inflight_ == 1 && pipeline_batch_ == 1) return;  // legacy path
  m_.inflight_slots = &metrics_.histogram("client.pipeline_slots");
  for (uint32_t i = 0; i < pipeline_inflight_; ++i) {
    auto slot = std::make_unique<Slot>();
    slot->protocol = factory();
    slot->ctx = std::make_unique<SlotContext>(this, i);
    slots_.push_back(std::move(slot));
  }
}

void Client::run_closed_loop(OpGenerator gen, uint64_t max_ops,
                             CompletionHook hook) {
  generator_ = std::move(gen);
  hook_ = std::move(hook);
  // max_ops counts operations from THIS call (the loop may be re-armed).
  max_ops_ = max_ops == 0 ? 0 : issued_ + max_ops;
  if (pipelined()) {
    fill_slots();
    return;
  }
  if (!in_flight_) begin_next();
}

void Client::run_open_loop(OpGenerator gen, uint64_t max_ops,
                           host::Time interval, CompletionHook hook) {
  generator_ = std::move(gen);
  hook_ = std::move(hook);
  max_ops_ = max_ops == 0 ? 0 : issued_ + max_ops;
  open_loop_ = true;
  open_interval_ = std::max<host::Time>(1, interval);
  if (m_.shed == nullptr) m_.shed = &metrics_.counter("client.shed");
  open_tick();
}

void Client::open_tick() {
  if (!open_loop_ || generator_ == nullptr) return;
  if (max_ops_ != 0 && issued_ >= max_ops_) return;  // done issuing
  issue_one();
  if (max_ops_ != 0 && issued_ >= max_ops_) return;
  // Deterministic pacing: the base interval plus a DRBG draw of up to an
  // eighth, so many open-loop clients sharing a cluster desynchronize while
  // seeded runs stay bit-identical.
  host::Time delay = open_interval_;
  delay += rng_.uniform(open_interval_ / 8 + 1);
  schedule(delay, [this] { open_tick(); });
}

void Client::issue_one() {
  if (pipelined()) {
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      Slot& slot = *slots_[i];
      if (slot.in_flight) continue;
      // One logical op per tick: the open loop paces individual requests,
      // so slot batching stays at one regardless of pipeline_batch_.
      slot.index_base = issued_;
      slot.logical = 1;
      slot.op = generator_(issued_);
      ++issued_;
      slot.seq = next_seq();
      slot.in_flight = true;
      slot.retries = 0;
      slot.start = now();
      m_.submitted->inc();
      tracer_.record(id(), slot.seq, obs::Phase::kSubmit, now());
      slot.protocol->start(slot.seq, slot.op, *slot.ctx);
      arm_slot_retry(i);
      return;
    }
    m_.shed->inc();
    return;
  }
  if (in_flight_) {
    m_.shed->inc();
    return;
  }
  begin_next();
}

void Client::fill_slots() {
  if (generator_ == nullptr) return;
  // Occupancy after refill, recorded on early exits too.
  auto record_occupancy = [this] {
    uint64_t busy = 0;
    for (const auto& s : slots_) busy += s->in_flight ? 1 : 0;
    m_.inflight_slots->record(busy);
  };
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    Slot& slot = *slots_[i];
    if (slot.in_flight) continue;
    if (max_ops_ != 0 && issued_ >= max_ops_) {
      record_occupancy();
      return;
    }
    uint32_t k = pipeline_batch_;
    if (max_ops_ != 0) {
      k = static_cast<uint32_t>(
          std::min<uint64_t>(k, max_ops_ - issued_));
    }
    std::vector<Bytes> ops;
    ops.reserve(k);
    for (uint32_t j = 0; j < k; ++j) ops.push_back(generator_(issued_ + j));
    slot.index_base = issued_;
    slot.logical = k;
    issued_ += k;
    // A batch of one is never framed: the wire stays bit-identical to the
    // single-request path.
    slot.op = k == 1 ? std::move(ops[0]) : encode_op_batch(ops);
    slot.seq = next_seq();
    slot.in_flight = true;
    slot.retries = 0;
    slot.start = now();
    for (uint32_t j = 0; j < k; ++j) m_.submitted->inc();
    tracer_.record(id(), slot.seq, obs::Phase::kSubmit, now());
    slot.protocol->start(slot.seq, slot.op, *slot.ctx);
    arm_slot_retry(i);
  }
  record_occupancy();
}

void Client::arm_slot_retry(std::size_t slot_index) {
  Slot& slot = *slots_[slot_index];
  const uint64_t epoch = ++slot.retry_epoch;
  host::Time delay = retry_timeout_ << std::min(slot.retries, kMaxBackoffShift);
  if (slot.retries > 0) delay += rng_.uniform(delay / 4 + 1);
  schedule(delay, [this, slot_index, epoch] {
    Slot& s = *slots_[slot_index];
    if (!s.in_flight || epoch != s.retry_epoch) return;
    ++s.retries;
    m_.retries->inc();
    s.protocol->on_retransmit(*s.ctx);
    arm_slot_retry(slot_index);
  });
}

void Client::complete_slot(std::size_t slot_index, Bytes result) {
  Slot& slot = *slots_[slot_index];
  if (!slot.in_flight) return;
  slot.in_flight = false;
  ++slot.retry_epoch;  // cancel pending retries
  slot.retries = 0;
  const host::Time end = now();
  const host::Time latency = end - slot.start;
  {
    std::lock_guard<std::mutex> lk(stats_mu_);
    last_result_ = std::move(result);
    // Every logical payload in the operation experienced the slot latency.
    total_latency_ += latency * slot.logical;
  }
  completed_.fetch_add(slot.logical, std::memory_order_release);
  for (uint32_t j = 0; j < slot.logical; ++j) {
    m_.completed->inc();
    m_.latency_ns->record(latency);
  }
  tracer_.record(id(), slot.seq, obs::Phase::kCompleted, end);
  if (hook_) {
    for (uint32_t j = 0; j < slot.logical; ++j) {
      hook_(slot.index_base + j, slot.start, end);
    }
  }
  // Open loop: the timer chain — not completions — decides when the next
  // operation starts; refilling here would collapse back into closed loop.
  if (!open_loop_) fill_slots();
}

void Client::submit(Bytes op, CompletionHook hook) {
  if (pipelined()) return;  // pipelined mode drives ops via run_closed_loop
  hook_ = std::move(hook);
  generator_ = nullptr;
  max_ops_ = 0;
  in_flight_ = true;
  retries_this_op_ = 0;
  inflight_index_ = issued_++;
  inflight_seq_ = next_seq();
  inflight_op_ = std::move(op);
  inflight_start_ = now();
  m_.submitted->inc();
  tracer_.record(id(), inflight_seq_, obs::Phase::kSubmit, now());
  protocol_->start(inflight_seq_, inflight_op_, *this);
  arm_retry();
}

void Client::begin_next() {
  if (generator_ == nullptr) return;
  if (max_ops_ != 0 && issued_ >= max_ops_) return;
  in_flight_ = true;
  retries_this_op_ = 0;
  inflight_index_ = issued_;
  inflight_op_ = generator_(issued_);
  ++issued_;
  inflight_seq_ = next_seq();
  inflight_start_ = now();
  m_.submitted->inc();
  tracer_.record(id(), inflight_seq_, obs::Phase::kSubmit, now());
  protocol_->start(inflight_seq_, inflight_op_, *this);
  arm_retry();
}

void Client::arm_retry() {
  const uint64_t epoch = ++retry_epoch_;
  // Capped exponential backoff: the k-th retransmission of one operation
  // waits base << min(k, cap), plus DRBG jitter of up to a quarter of the
  // delay so retrying clients desynchronize.  The FIRST arm of an operation
  // is exactly `retry_timeout_` with no DRBG draw: on the happy path (no
  // retry ever fires) the client's random stream is untouched, which keeps
  // seeded simulator runs bit-identical to the pre-backoff behavior.
  host::Time delay = retry_timeout_
                     << std::min(retries_this_op_, kMaxBackoffShift);
  if (retries_this_op_ > 0) delay += rng_.uniform(delay / 4 + 1);
  schedule(delay, [this, epoch] {
    if (!in_flight_ || epoch != retry_epoch_) return;
    ++retries_this_op_;
    m_.retries->inc();
    protocol_->on_retransmit(*this);
    arm_retry();
  });
}

void Client::send_request(uint64_t client_seq, Bytes payload) {
  ClientRequestMsg msg;
  msg.client_seq = client_seq;
  msg.payload = std::move(payload);
  const Bytes body = msg.serialize();
  for (NodeId r = 0; r < config_.n; ++r) {
    charge(Op::kMsgOverhead, 0);
    charge(Op::kMac, body.size());
    send_raw(r, seal_envelope(keys_, Channel::kClientRequest, id(), r, body));
  }
}

void Client::send_request_to(NodeId replica, uint64_t client_seq,
                             Bytes payload) {
  ClientRequestMsg msg;
  msg.client_seq = client_seq;
  msg.payload = std::move(payload);
  const Bytes body = msg.serialize();
  charge(Op::kMac, body.size());
  send_raw(replica,
           seal_envelope(keys_, Channel::kClientRequest, id(), replica, body));
}

void Client::send_causal(NodeId replica, Bytes body) {
  charge(Op::kMac, body.size());
  send_raw(replica, seal_envelope(keys_, Channel::kCausal, id(), replica, body));
}

void Client::complete(Bytes result) {
  if (!in_flight_) return;
  in_flight_ = false;
  ++retry_epoch_;  // cancel pending retries
  // Back to the base interval after a successful reply: one slow operation
  // (e.g. one that rode out a view change) must not leave the next
  // operation's first retransmission waiting a maxed-out backoff.
  retries_this_op_ = 0;
  {
    std::lock_guard<std::mutex> lk(stats_mu_);
    last_result_ = std::move(result);
    total_latency_ += now() - inflight_start_;
  }
  completed_.fetch_add(1, std::memory_order_release);
  m_.completed->inc();
  m_.latency_ns->record(now() - inflight_start_);
  tracer_.record(id(), inflight_seq_, obs::Phase::kCompleted, now());
  if (hook_) hook_(inflight_index_, inflight_start_, now());
  if (!open_loop_) begin_next();
}

void Client::on_message(NodeId /*from*/, BytesView msg) {
  charge(Op::kMsgOverhead, 0);
  charge(Op::kMac, msg.size());
  auto env = open_envelope(keys_, id(), msg);
  if (!env) return;

  switch (env->channel) {
    case Channel::kReply: {
      auto reply = ReplyMsg::parse(env->body);
      if (!reply || reply->replica != env->sender) return;
      if (env->sender >= config_.n) return;
      if (pipelined()) {
        // Fan out to every in-flight slot: each slot's ReplyQuorum filters
        // by its own client_seq, so only the owning slot counts the vote.
        for (auto& slot : slots_) {
          if (slot->in_flight) {
            slot->protocol->on_reply(env->sender, *reply, *slot->ctx);
          }
        }
        return;
      }
      if (!in_flight_) return;
      protocol_->on_reply(env->sender, *reply, *this);
      break;
    }
    case Channel::kCausal:
      if (pipelined()) {
        for (auto& slot : slots_) {
          if (slot->in_flight) {
            slot->protocol->on_causal_message(env->sender, env->body,
                                              *slot->ctx);
          }
        }
        return;
      }
      protocol_->on_causal_message(env->sender, env->body, *this);
      break;
    default:
      break;  // clients ignore BFT traffic
  }
}

}  // namespace scab::bft
