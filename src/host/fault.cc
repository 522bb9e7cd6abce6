#include "host/fault.h"

#include "obs/metrics.h"

namespace scab::host {

FaultPlan::FaultPlan(obs::MetricsRegistry* metrics) {
  obs::MetricsRegistry& m = metrics ? *metrics : obs::MetricsRegistry::inert();
  drops_ = {&m.counter("net.drops.crash"), &m.counter("net.drops.cut"),
            &m.counter("net.drops.tamper")};
}

void FaultPlan::crash(NodeId node) {
  std::lock_guard<std::mutex> lk(mu_);
  crashed_.insert(node);
}

void FaultPlan::restart(NodeId node) {
  std::lock_guard<std::mutex> lk(mu_);
  crashed_.erase(node);
}

bool FaultPlan::is_crashed(NodeId node) const {
  std::lock_guard<std::mutex> lk(mu_);
  return crashed_.contains(node);
}

void FaultPlan::cut(NodeId from, NodeId to) {
  std::lock_guard<std::mutex> lk(mu_);
  cut_.insert(key(from, to));
}

void FaultPlan::heal(NodeId from, NodeId to) {
  std::lock_guard<std::mutex> lk(mu_);
  cut_.erase(key(from, to));
}

void FaultPlan::heal_all() {
  std::lock_guard<std::mutex> lk(mu_);
  cut_.clear();
  delays_.clear();
}

void FaultPlan::delay(NodeId from, NodeId to, Time extra) {
  std::lock_guard<std::mutex> lk(mu_);
  if (extra == 0) {
    delays_.erase(key(from, to));
  } else {
    delays_[key(from, to)] = extra;
  }
}

void FaultPlan::clear_delays() {
  std::lock_guard<std::mutex> lk(mu_);
  delays_.clear();
}

void FaultPlan::set_tamper(Tamper t) {
  auto hook = t ? std::make_shared<const Tamper>(std::move(t)) : nullptr;
  std::lock_guard<std::mutex> lk(mu_);
  tamper_ = std::move(hook);
}

void FaultPlan::clear_tamper() { set_tamper(nullptr); }

FaultPlan::Verdict FaultPlan::apply(NodeId from, NodeId to, Bytes& msg) {
  using Drop = Verdict::Drop;
  Verdict v;
  std::shared_ptr<const Tamper> tamper;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (crashed_.contains(from) || crashed_.contains(to)) {
      return count({Drop::kCrash});
    }
    if (cut_.contains(key(from, to))) return count({Drop::kCut});
    if (auto it = delays_.find(key(from, to)); it != delays_.end()) {
      v.extra = it->second;
    }
    tamper = tamper_;
  }
  if (tamper) {
    auto out = (*tamper)(from, to, msg);
    if (!out) return count({Drop::kTamper});
    msg = std::move(*out);
  }
  return v;
}

bool FaultPlan::drop_if_crashed(NodeId to) {
  if (!is_crashed(to)) return false;
  count({Verdict::Drop::kCrash});
  return true;
}

FaultPlan::Verdict FaultPlan::count(Verdict v) {
  drops_[static_cast<std::size_t>(v.drop) - 1]->inc();
  return v;
}

}  // namespace scab::host
