#include "sim/sim_host.h"

namespace scab::sim {

void SimHost::bind(host::NodeId id, host::Node* endpoint) {
  auto adapter = std::make_unique<Adapter>(*this, id, endpoint);
  net_.attach(adapter.get());
  adapters_[id] = std::move(adapter);
  ++bind_epochs_[id];
}

void SimHost::unbind(host::NodeId id) {
  auto it = adapters_.find(id);
  if (it == adapters_.end()) return;
  net_.detach(id);
  adapters_.erase(it);
  ++bind_epochs_[id];  // kill timers armed by the departing endpoint
}

void SimHost::charge(host::NodeId node, host::Time cost) {
  auto it = adapters_.find(node);
  if (it != adapters_.end()) it->second->charge(cost);
}

}  // namespace scab::sim
