// Deployment parameters for the PBFT substrate.
#pragma once

#include <cstddef>
#include <cstdint>

#include "host/time.h"

namespace scab::bft {

/// PBFT's watermark window: a primary proposes at most this many sequence
/// numbers past the last stable checkpoint, so the checkpoint interval must
/// not exceed it (parse_cluster_config enforces that).
inline constexpr uint64_t kWatermarkWindow = 256;
/// Executed batches each replica retains for catch-up fetches.
inline constexpr std::size_t kHistoryLimit = 2048;

struct BftConfig {
  uint32_t n = 4;  // total replicas, n = 3f + 1
  uint32_t f = 1;  // tolerated Byzantine replicas

  // Batching (paper: "All the protocols implement batching of concurrent
  // requests to reduce cryptographic and communication overheads").
  uint32_t max_batch = 16;
  /// Fallback batch timer; normally a request is proposed immediately when
  /// the in-flight window has room, and batching emerges under contention.
  host::Time batch_delay = 200 * host::kMicrosecond;
  /// Maximum consensus instances between next_seq and next_exec; bounding
  /// this is what makes batching effective under load.
  uint32_t max_inflight_batches = 4;

  // Checkpoint protocol: 1..kWatermarkWindow.
  uint64_t checkpoint_interval = 64;

  // View change: a backup that has seen a client request not executed
  // within this delay votes for a view change (also serves as the fairness
  // watchdog of Aardvark-style protocols: a primary that starves any
  // client's request is demoted).
  host::Time request_timeout = 2 * host::kSecond;
  /// How often the watchdog scans pending requests.
  host::Time watchdog_period = 500 * host::kMillisecond;

  uint32_t quorum() const { return 2 * f + 1; }
  uint32_t primary_of(uint64_t view) const {
    return static_cast<uint32_t>(view % n);
  }

  static BftConfig for_f(uint32_t f_val) {
    BftConfig c;
    c.f = f_val;
    c.n = 3 * f_val + 1;
    return c;
  }
};

}  // namespace scab::bft
