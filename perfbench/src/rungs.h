// The layer ladder: timed calls into each module's public functions, run
// from outside the program with the workload's parameters (n=4, f=1, the
// workload's op size).  Every timed batch is a span under its layer's span.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "spans.h"

namespace perfbench {

struct RungContext {
  SpanLog& spans;
  int32_t parent = -1;     // the "rungs" phase span
  std::size_t op_bytes = 32;
  std::size_t verify_shares = 3;  // shares per batch verification
  std::string scratch_dir;  // on the replicas' data-dir filesystem
  std::map<std::string, double>& out;  // metric name -> value
};

void run_crypto_rungs(RungContext& ctx);
void run_threshenc_rungs(RungContext& ctx);
void run_secretshare_rungs(RungContext& ctx);
void run_bft_rungs(RungContext& ctx);
/// rt.socket_*, rt.post_roundtrip_us, rt.pool_roundtrip_us.
void run_rt_rungs(RungContext& ctx);
/// rt.storage_* on scratch_dir; returns false if FileStorage cannot open.
bool run_storage_rungs(RungContext& ctx);

}  // namespace perfbench
