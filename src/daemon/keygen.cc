// scab-keygen — the trusted dealer's offline step (paper §V-A): emits a
// cluster.conf + cluster.keys pair from which every scabd / scab-client
// process derives identical key material.
//
//   scab-keygen --f 1 --protocol cp0 --seed 42 --base-port 21000
//               --clients 3 --out /tmp/cluster
//
// Replicas get ports base..base+n-1, clients base+100.. (mirroring the
// node-id layout).  --seed omitted draws one from the OS entropy pool.
// The keys file is written 0600: it IS the cluster's entire secret.
#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <random>
#include <string>

#include "bft/config.h"
#include "causal/protocol.h"
#include "daemon/config.h"

namespace {

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --base-port <port> [--f <n>] [--protocol "
      "pbft|cp0|cp1|cp2|cp3]\n"
      "          [--seed <u64>] [--clients <count>] [--host <ip>]\n"
      "          [--checkpoint-interval <n>] [--max-batch <n>]\n"
      "          [--client-inflight <n>] [--client-batch <n>]\n"
      "          [--threads <n>] [--io-threads <n>]\n"
      "          [--durability off|async|fsync] [--data-dir <dir>]\n"
      "          [--group modp_1024|modp_512|generate:<bits>] [--out <dir>]\n",
      argv0);
  return 2;
}

bool parse_u64_arg(const char* s, uint64_t* out) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (end == nullptr || *end != '\0' || s[0] == '-') return false;
  *out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using scab::daemon::ClusterConfig;
  ClusterConfig cfg;
  cfg.protocol = scab::causal::Protocol::kCp0;
  cfg.bft.f = 1;
  cfg.bft.checkpoint_interval = 8;  // small: catch-up exercised early
  cfg.keys_file = "cluster.keys";
  uint64_t seed = 0;
  bool have_seed = false;
  uint64_t base_port = 0;
  uint64_t clients = 1;
  std::string host = "127.0.0.1";
  std::string out_dir = ".";
  std::string group;

  // Flags whose bounds live in the config parser.
  const std::map<std::string, uint32_t*> u32_flags = {
      {"--max-batch", &cfg.bft.max_batch},
      {"--client-inflight", &cfg.client_inflight},
      {"--client-batch", &cfg.client_batch},
      {"--threads", &cfg.threads},
      {"--io-threads", &cfg.io_threads},
  };

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(argv[0]);
    const char* val = argv[++i];
    uint64_t u = 0;
    if (arg == "--f") {
      if (!parse_u64_arg(val, &u) || u < 1 || u > 100) {
        std::fprintf(stderr, "scab-keygen: invalid --f '%s'\n", val);
        return 2;
      }
      cfg.bft.f = static_cast<uint32_t>(u);
    } else if (arg == "--protocol") {
      const auto p = scab::causal::protocol_from_name(val);
      if (!p) {
        std::fprintf(stderr, "scab-keygen: unknown protocol '%s'\n", val);
        return 2;
      }
      cfg.protocol = *p;
    } else if (arg == "--seed") {
      if (!parse_u64_arg(val, &seed)) {
        std::fprintf(stderr, "scab-keygen: invalid --seed '%s'\n", val);
        return 2;
      }
      have_seed = true;
    } else if (arg == "--base-port") {
      if (!parse_u64_arg(val, &base_port) || base_port < 1 ||
          base_port > 65535) {
        std::fprintf(stderr, "scab-keygen: invalid --base-port '%s'\n", val);
        return 2;
      }
    } else if (arg == "--clients") {
      if (!parse_u64_arg(val, &clients) || clients > 1000) {
        std::fprintf(stderr, "scab-keygen: invalid --clients '%s'\n", val);
        return 2;
      }
    } else if (arg == "--host") {
      host = val;
    } else if (arg == "--out") {
      out_dir = val;
    } else if (arg == "--checkpoint-interval") {
      // Range-checked (1..bft::kWatermarkWindow) by the round-trip parse.
      if (!parse_u64_arg(val, &u)) {
        std::fprintf(stderr,
                     "scab-keygen: invalid --checkpoint-interval '%s'\n",
                     val);
        return 2;
      }
      cfg.bft.checkpoint_interval = u;
    } else if (auto field = u32_flags.find(arg); field != u32_flags.end()) {
      // Range-checked by the round-trip parse below.
      if (!parse_u64_arg(val, &u) || u > UINT32_MAX) {
        std::fprintf(stderr, "scab-keygen: invalid %s '%s'\n", arg.c_str(),
                     val);
        return 2;
      }
      *field->second = static_cast<uint32_t>(u);
    } else if (arg == "--durability") {
      cfg.durability = val;  // validated by the round-trip parse below
    } else if (arg == "--data-dir") {
      cfg.data_dir = val;
    } else if (arg == "--group") {
      group = val;
    } else {
      return usage(argv[0]);
    }
  }

  if (base_port == 0) {
    std::fprintf(stderr, "scab-keygen: --base-port is required\n");
    return usage(argv[0]);
  }
  const uint32_t n = 3 * cfg.bft.f + 1;
  cfg.bft.n = n;
  if (base_port + n + 99 + clients > 65535) {
    std::fprintf(stderr,
                 "scab-keygen: --base-port %llu leaves no room for %u "
                 "replica + %llu client ports\n",
                 static_cast<unsigned long long>(base_port), n,
                 static_cast<unsigned long long>(clients));
    return 2;
  }
  if (!have_seed) {
    std::random_device rd;
    seed = (static_cast<uint64_t>(rd()) << 32) | rd();
  }
  if (!group.empty()) {
    // Reuse the config parser as the validator: splice the group line into
    // a scratch config and let it pronounce.
    cfg.group = group;  // provisionally; re-parsed below
  }

  for (uint32_t i = 0; i < n; ++i) {
    cfg.replicas[i] = {host, static_cast<uint16_t>(base_port + i)};
  }
  for (uint64_t i = 0; i < clients; ++i) {
    cfg.clients[scab::causal::kClientBase + static_cast<uint32_t>(i)] = {
        host, static_cast<uint16_t>(base_port + 100 + i)};
  }

  // Round-trip the rendered config through the parser: one validator, no
  // drift between what keygen accepts and what scabd loads (this is where
  // a bad --group or --host is rejected).
  const std::string conf_body = scab::daemon::format_cluster_config(cfg);
  std::string err;
  if (!scab::daemon::parse_cluster_config(conf_body, &err)) {
    std::fprintf(stderr, "scab-keygen: generated config invalid: %s\n",
                 err.c_str());
    return 2;
  }

  const std::string conf_path = out_dir + "/cluster.conf";
  const std::string keys_path = out_dir + "/cluster.keys";
  if (!scab::daemon::write_file_atomic(conf_path, conf_body)) {
    std::fprintf(stderr, "scab-keygen: cannot write %s\n", conf_path.c_str());
    return 1;
  }
  if (!scab::daemon::write_file_atomic(
          keys_path, scab::daemon::format_dealer_seed(seed))) {
    std::fprintf(stderr, "scab-keygen: cannot write %s\n", keys_path.c_str());
    return 1;
  }
  ::chmod(keys_path.c_str(), 0600);
  std::fprintf(stderr,
               "scab-keygen: wrote %s (+ %s) — n=%u f=%u protocol=%s "
               "clients=%llu\n",
               conf_path.c_str(), keys_path.c_str(), n, cfg.bft.f,
               scab::causal::protocol_name(cfg.protocol),
               static_cast<unsigned long long>(clients));
  return 0;
}
