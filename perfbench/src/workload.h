// The benchmark's workloads.  Every workload runs a fresh n=4, f=1 scabd
// cluster with checkpoint_interval = 64, one crypto worker thread and one
// io thread per replica.
#pragma once

#include <cstdint>
#include <string>

#include "causal/protocol.h"

namespace perfbench {

struct Workload {
  std::string name;
  scab::causal::Protocol protocol = scab::causal::Protocol::kCp2;
  std::string group = "modp_512";  // CP0 threshold group
  std::string durability = "off";
  uint32_t op_bytes = 32;
  uint32_t endpoints = 1;        // driver-hosted bft::Client endpoints
  uint32_t client_inflight = 1;  // CP0 pipelining (per endpoint)
  uint32_t client_batch = 1;
  double open_rate = 0;          // > 0: seeded Poisson open loop, ops/s
  bool kill_backup = false;      // kill -9 + restart replica 3 mid-window
};

inline const Workload* find_workload(const std::string& name) {
  using scab::causal::Protocol;
  static const Workload kWorkloads[] = {
      {"cp0-batched", Protocol::kCp0, "modp_1024", "off", 32, 1, 8, 16, 0,
       false},
      {"cp2-closed", Protocol::kCp2, "modp_512", "off", 32, 3, 1, 1, 0, false},
      // Offered rate, set once: three closed-loop endpoints sustain 300-400
      // op/s on a 4-vCPU x86-64 VM, but at 150-200 op/s the driver queue
      // grew in some runs (snapshot writes and the restart stall).  120 op/s
      // stays below that and still puts more than 1000 ops, so at least 10
      // beyond p99, in a 10 s window.
      {"cp3-durable-open", Protocol::kCp3, "modp_512", "fsync", 4096, 3, 1, 1,
       120, true},
  };
  for (const Workload& w : kWorkloads) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

}  // namespace perfbench
