#include "causal/reveal.h"

#include <algorithm>
#include <utility>

#include "bft/batch.h"

namespace scab::causal {

using bft::NodeId;
using host::Op;

namespace {

// Share re-request sentinel: the share-message frame `id || bytes(share)`
// with an EMPTY share.  Real share wires (and AEAD boxes) are never empty.
Bytes encode_share_request(const RequestId& id) {
  Writer w;
  id.write(w);
  w.bytes(Bytes{});
  return std::move(w).take();
}

std::optional<RequestId> parse_share_request(BytesView body) {
  Reader r(body);
  const RequestId id = RequestId::read(r);
  if (r.u32() != 0 || !r.done()) return std::nullopt;
  return id;
}

// Bumped whenever the blob layout changes: an older blob is rejected (and
// bft::Replica::recover refuses to go on) instead of being misparsed.
constexpr uint32_t kRevealStateVersion = 2;

}  // namespace

void RevealEngine::bind_metrics(bft::ReplicaContext& ctx) {
  if (m_.recovered != nullptr) return;
  obs::MetricsRegistry& reg = ctx.metrics();
  const std::string pfx = std::string(scheme_->traits.prefix) + ".";
  m_.recovered = &reg.counter(pfx + scheme_->traits.recovered_counter);
  m_.early_stashed = &reg.counter(pfx + "early_stashed");
  m_.reveal_retries = &reg.counter(pfx + "reveal_retries");
  m_.share_rerequests_answered = &reg.counter(pfx + "share_rerequests_answered");
  m_.late_shares_dropped = &reg.counter(pfx + "late_shares_dropped");
  m_.flush_size = &reg.histogram(pfx + scheme_->traits.flush_histogram);
  m_.reveal_ns = &reg.histogram(pfx + "reveal_ns");
  m_.inflight_slots = &reg.histogram("pipeline.inflight_slots");
  m_.pending = &reg.gauge(pfx + "pending");
  m_.early_shares = &reg.gauge(pfx + "early_shares");
  scheme_->bind_metrics(reg);
  tracer_ = &ctx.tracer();
}

bool RevealEngine::validate_request(NodeId client,
                                    const bft::ClientRequestMsg& msg,
                                    bft::ReplicaContext& ctx) {
  bind_metrics(ctx);
  return scheme_->validate_request(client, msg, ctx);
}

void RevealEngine::on_deliver(uint64_t /*seq*/, const bft::Request& req,
                              bft::ReplicaContext& ctx) {
  bind_metrics(ctx);
  const RequestId id{req.client, req.client_seq};
  if (completed_.contains(id) || pending_.contains(id)) return;
  Bytes own;
  auto state = scheme_->admit(id, req.payload, own, ctx);
  if (!state) return;
  Reveal& p = pending_[id];
  p.payload = req.payload;
  p.own = std::move(own);
  p.state = std::move(state);
  p.delivered_at = ctx.now();
  exec_queue_.push_back(id);
  m_.pending->set(static_cast<int64_t>(pending_.size()));
  adopt_early_shares(id, p, ctx);
  start_reveal(id, p, ctx);
  arm_reveal_retry(id, 0, ctx);
}

void RevealEngine::adopt_early_shares(const RequestId& id, Reveal& p,
                                      bft::ReplicaContext& ctx) {
  for (auto& [sender, stash] : early_shares_) {
    for (auto sit = stash.begin(); sit != stash.end();) {
      if (sit->first != id) {
        ++sit;
        continue;
      }
      take_share(id, p, sender, std::move(sit->second), ctx);
      sit = stash.erase(sit);
    }
  }
  m_.early_shares->set(static_cast<int64_t>(early_share_count()));
}

std::size_t RevealEngine::early_share_count() const {
  std::size_t count = 0;
  for (const auto& [sender, stash] : early_shares_) count += stash.size();
  return count;
}

bool RevealEngine::take_share(const RequestId& id, Reveal& p, NodeId from,
                              Bytes wire, bft::ReplicaContext& ctx) {
  if (!p.seen.insert(from).second) return false;
  if (scheme_->traits.client_deals && from == id.client) {
    // The client's private distribution of OUR share.
    if (p.own.empty()) p.own = std::move(wire);
    return false;
  }
  if (from >= ctx.config().n || p.revealed) return false;  // only replicas relay
  p.backlog.push_back(Share{from, std::move(wire)});
  return true;
}

void RevealEngine::start_reveal(const RequestId& id, Reveal& p,
                                bft::ReplicaContext& ctx) {
  const std::size_t absorbed =
      scheme_->start(*p.state, p.payload, p.own, p.backlog, ctx);
  if (!p.own.empty()) send_share(id, p.own, std::nullopt, ctx);
  advance(id, p, ctx, absorbed);
}

void RevealEngine::advance(const RequestId& id, Reveal& p,
                           bft::ReplicaContext& ctx, std::size_t absorbed) {
  if (p.revealed || p.inflight) return;
  if (auto plaintexts = scheme_->finish(*p.state, p.payload, id, ctx)) {
    reveal(id, p, std::move(*plaintexts), ctx);
    return;
  }
  const bool flush =
      !p.backlog.empty() && scheme_->ready(*p.state, p.backlog.size());
  const std::size_t flushed = (flush ? p.backlog.size() : 0) + absorbed;
  if (flushed > 0) m_.flush_size->record(flushed);
  if (!flush) return;
  // The job runs on the worker pool (DESIGN.md §12); its landing runs back
  // on this replica's executor.  Under the inline pool (simulator) the
  // landing runs before offload() returns.  Shares arriving meanwhile queue
  // in the backlog for the next flush.
  RecoverJob job = scheme_->recover(*p.state, p.payload,
                                    std::exchange(p.backlog, {}), ctx);
  p.inflight = true;
  ctx.offload([this, &ctx, id, job = std::move(job)]() -> std::function<void()> {
    Landing landing = job();
    return [this, &ctx, id, landing = std::move(landing)] {
      auto it = pending_.find(id);
      if (it == pending_.end()) return;  // cannot happen mid-job; defensive
      Reveal& p = it->second;
      p.inflight = false;
      Recovered out = landing(*p.state, ctx);
      for (NodeId sender : out.rejected) p.seen.erase(sender);
      if (out.plaintexts) {
        reveal(id, p, std::move(*out.plaintexts), ctx);
        return;
      }
      advance(id, p, ctx);
    };
  });
}

void RevealEngine::reveal(const RequestId& id, Reveal& p,
                          std::vector<Bytes> plaintexts,
                          bft::ReplicaContext& ctx) {
  p.revealed = true;
  p.plaintexts = std::move(plaintexts);
  p.state.reset();
  p.backlog.clear();
  m_.recovered->inc();
  m_.reveal_ns->record(ctx.now() - p.delivered_at);
  m_.inflight_slots->record(exec_queue_.size());
  tracer_->record(id.client, id.seq, obs::Phase::kRevealed, ctx.now());
  drain_execution(ctx);
}

void RevealEngine::drain_execution(bft::ReplicaContext& ctx) {
  while (!exec_queue_.empty()) {
    const RequestId id = exec_queue_.front();
    auto it = pending_.find(id);
    if (it == pending_.end()) {
      exec_queue_.pop_front();
      continue;
    }
    const Reveal& p = it->second;
    if (!p.revealed) break;  // total order: block on the oldest reveal
    // Durable execution marker (DESIGN.md §13), logged before the service
    // runs: a replay cannot re-collect the peers' shares, so the plaintexts
    // themselves are logged.  Safe post-reveal: secrecy ends at the reveal.
    Writer w;
    id.write(w);
    w.u32(static_cast<uint32_t>(p.plaintexts.size()));
    for (const Bytes& pt : p.plaintexts) w.bytes(pt);
    ctx.wal_append(std::move(w).take());
    ctx.send_reply(id.client, id.seq, execute(id.client, p.plaintexts, ctx));
    complete(id);
    exec_queue_.pop_front();
  }
  m_.pending->set(static_cast<int64_t>(pending_.size()));
}

Bytes RevealEngine::execute(NodeId client, const std::vector<Bytes>& plaintexts,
                            bft::ReplicaContext& ctx) {
  // One payload replies with its raw result; a batched envelope executes
  // every payload in batch order and frames the per-payload results.
  if (plaintexts.size() == 1) {
    ctx.charge(Op::kExecute, plaintexts[0].size());
    return service_->execute(client, plaintexts[0]);
  }
  std::vector<Bytes> results;
  results.reserve(plaintexts.size());
  for (const Bytes& pt : plaintexts) {
    ctx.charge(Op::kExecute, pt.size());
    results.push_back(service_->execute(client, pt));
  }
  return bft::encode_op_batch(results);
}

void RevealEngine::complete(const RequestId& id) {
  completed_.insert(id);
  auto it = pending_.find(id);
  if (it == pending_.end()) return;
  if (!it->second.own.empty()) {
    if (completed_shares_.size() >= kMaxCompletedShareCache) {
      completed_shares_.erase(completed_shares_order_.front());
      completed_shares_order_.pop_front();
    }
    completed_shares_order_.push_back(id);
    completed_shares_.emplace(id, std::move(it->second.own));
  }
  pending_.erase(it);
}

void RevealEngine::send_share(const RequestId& id, const Bytes& wire,
                              std::optional<NodeId> to,
                              bft::ReplicaContext& ctx) {
  const Bytes out = corrupt_shares_ ? scheme_->corrupt(wire) : wire;
  if (to) {
    ctx.send_causal(*to, scheme_->seal(*to, id, out, ctx));
    return;
  }
  for (NodeId r = 0; r < ctx.config().n; ++r) {
    if (r != ctx.id()) ctx.send_causal(r, scheme_->seal(r, id, out, ctx));
  }
}

void RevealEngine::arm_reveal_retry(const RequestId& id, uint32_t attempt,
                                    bft::ReplicaContext& ctx) {
  auto awaiting = [this](const RequestId& id) -> Reveal* {
    auto it = pending_.find(id);
    return it != pending_.end() && !it->second.revealed ? &it->second : nullptr;
  };
  if (attempt >= kMaxRevealRetries || awaiting(id) == nullptr) return;
  ctx.schedule(kRevealRetryBase << std::min(attempt, 4u),
               [this, id, attempt, awaiting, &ctx] {
                 Reveal* p = awaiting(id);
                 if (p == nullptr) return;
                 m_.reveal_retries->inc();
                 // Either side can have lost shares to a partition or a
                 // restart: re-send ours and ask for everyone else's.
                 if (!p->own.empty()) send_share(id, p->own, std::nullopt, ctx);
                 ctx.broadcast_causal(encode_share_request(id));
                 arm_reveal_retry(id, attempt + 1, ctx);
               });
}

void RevealEngine::answer_share_request(const RequestId& id, NodeId from,
                                        bft::ReplicaContext& ctx) {
  if (from >= ctx.config().n) return;  // only replicas re-collect
  const Bytes* wire = nullptr;
  if (auto it = pending_.find(id);
      it != pending_.end() && !it->second.own.empty()) {
    wire = &it->second.own;
  } else if (auto cit = completed_shares_.find(id);
             cit != completed_shares_.end()) {
    wire = &cit->second;
  }
  if (wire == nullptr) return;  // never had a share for it (or evicted)
  m_.share_rerequests_answered->inc();
  send_share(id, *wire, from, ctx);
}

void RevealEngine::on_causal_message(NodeId from, BytesView body,
                                     bft::ReplicaContext& ctx) {
  bind_metrics(ctx);
  if (auto id = parse_share_request(body)) {
    // The sender lost our share, most likely restarted and re-collecting
    // for requests we finished long ago: answer before the late-share drop.
    answer_share_request(*id, from, ctx);
    return;
  }
  auto opened = scheme_->open(from, body, ctx);
  if (!opened) return;
  auto& [id, wire] = *opened;
  if (completed_.contains(id)) {
    m_.late_shares_dropped->inc();
    return;
  }
  auto it = pending_.find(id);
  if (it == pending_.end()) {
    // Not delivered yet.  A correct peer (or the client) can legitimately
    // race ahead of delivery, but a Byzantine sender can also name
    // RequestIds forever: stash in a bounded per-sender FIFO instead of
    // creating reveal state keyed by an unauthenticated id.
    auto& stash = early_shares_[from];
    for (const auto& [stashed_id, unused] : stash) {
      if (stashed_id == id) return;
    }
    if (stash.size() >= kMaxEarlySharesPerSender) stash.pop_front();
    stash.emplace_back(id, std::move(wire));
    m_.early_stashed->inc();
    m_.early_shares->set(static_cast<int64_t>(early_share_count()));
    return;
  }
  if (take_share(id, it->second, from, std::move(wire), ctx)) {
    advance(id, it->second, ctx);
  }
}

// ---------------------------------------------------------------------------
// Durability (DESIGN.md §13)
//
// Snapshot blob: u32 version | bytes service | u32 n, n x id (completed,
// sorted) | u32 n, n x (id, bytes own share) (completed-share FIFO, oldest
// first) | u32 n, n x id (execution queue) | u32 n, n x (id, bytes payload,
// u8 revealed, u32 k, k x bytes plaintext, bytes own share) (pending,
// sorted).  Transient reveal state (backlog, seen senders, the scheme's
// recovery state, early stashes) is dropped: restore rebuilds the recovery
// state and the retry protocol re-collects the shares.
//
// WAL record: id | u32 k | k x bytes plaintext.

Bytes RevealEngine::serialize_state(bft::ReplicaContext& /*ctx*/) {
  Writer w;
  w.u32(kRevealStateVersion);
  w.bytes(service_->serialize());
  std::vector<RequestId> ids(completed_.begin(), completed_.end());
  std::sort(ids.begin(), ids.end());
  w.u32(static_cast<uint32_t>(ids.size()));
  for (const RequestId& id : ids) id.write(w);
  w.u32(static_cast<uint32_t>(completed_shares_order_.size()));
  for (const RequestId& id : completed_shares_order_) {
    id.write(w);
    auto it = completed_shares_.find(id);
    w.bytes(it != completed_shares_.end() ? BytesView(it->second) : BytesView{});
  }
  w.u32(static_cast<uint32_t>(exec_queue_.size()));
  for (const RequestId& id : exec_queue_) id.write(w);
  ids.clear();
  for (const auto& [id, p] : pending_) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  w.u32(static_cast<uint32_t>(ids.size()));
  for (const RequestId& id : ids) {
    const Reveal& p = pending_.at(id);
    id.write(w);
    w.bytes(p.payload);
    w.u8(p.revealed ? 1 : 0);
    w.u32(static_cast<uint32_t>(p.plaintexts.size()));
    for (const Bytes& pt : p.plaintexts) w.bytes(pt);
    w.bytes(p.own);
  }
  return std::move(w).take();
}

bool RevealEngine::restore_state(BytesView blob, bft::ReplicaContext& ctx) {
  if (blob.empty()) return true;
  bind_metrics(ctx);
  Reader r(blob);
  if (r.u32() != kRevealStateVersion) return false;
  const Bytes service_blob = r.bytes();
  std::unordered_set<RequestId> completed;
  for (uint32_t i = 0, n = r.u32(); i < n && r.ok(); ++i) {
    completed.insert(RequestId::read(r));
  }
  std::unordered_map<RequestId, Bytes> shares;
  std::deque<RequestId> order;
  for (uint32_t i = 0, n = r.u32(); i < n && r.ok(); ++i) {
    const RequestId id = RequestId::read(r);
    order.push_back(id);
    shares.emplace(id, r.bytes());
  }
  std::deque<RequestId> queue;
  for (uint32_t i = 0, n = r.u32(); i < n && r.ok(); ++i) {
    queue.push_back(RequestId::read(r));
  }
  std::unordered_map<RequestId, Reveal> pending;
  for (uint32_t i = 0, n = r.u32(); i < n && r.ok(); ++i) {
    const RequestId id = RequestId::read(r);
    Reveal p;
    p.payload = r.bytes();
    p.revealed = r.u8() != 0;
    for (uint32_t j = 0, k = r.u32(); j < k && r.ok(); ++j) {
      p.plaintexts.push_back(r.bytes());
    }
    p.own = r.bytes();
    p.delivered_at = ctx.now();
    if (!p.revealed) {
      p.state = scheme_->resume(id, p.payload);
      if (!p.state) return false;
    }
    pending.emplace(id, std::move(p));
  }
  if (!r.ok() || !r.done()) return false;
  if (!service_->restore(service_blob)) return false;
  completed_ = std::move(completed);
  completed_shares_ = std::move(shares);
  completed_shares_order_ = std::move(order);
  exec_queue_ = std::move(queue);
  pending_ = std::move(pending);
  // Restart the reveal machinery for everything in flight; the retry timer
  // re-requests the peers' shares once the node is live.
  for (auto& [id, p] : pending_) {
    if (p.revealed) continue;
    if (scheme_->traits.restart_on_restore) {
      start_reveal(id, p, ctx);
    } else {
      scheme_->start(*p.state, p.payload, p.own, p.backlog, ctx);
    }
    arm_reveal_retry(id, 0, ctx);
  }
  m_.pending->set(static_cast<int64_t>(pending_.size()));
  return true;
}

bool RevealEngine::on_wal_record(BytesView record, bft::ReplicaContext& ctx) {
  bind_metrics(ctx);
  Reader r(record);
  const RequestId id = RequestId::read(r);
  std::vector<Bytes> plaintexts;
  const uint32_t n = r.u32();
  for (uint32_t i = 0; i < n && r.ok(); ++i) plaintexts.push_back(r.bytes());
  if (!r.ok() || !r.done() || plaintexts.size() != n) return false;
  // Pre-snapshot tails can survive a torn snapshot/truncate window; the
  // completed set (restored from the snapshot) makes them no-ops.
  if (completed_.contains(id)) return true;
  // The reply goes nowhere while the node is shielded during replay; a
  // client still waiting retransmits and hits the reply cache.
  ctx.send_reply(id.client, id.seq, execute(id.client, plaintexts, ctx));
  complete(id);
  std::erase(exec_queue_, id);
  m_.pending->set(static_cast<int64_t>(pending_.size()));
  return true;
}

}  // namespace scab::causal
