#include "daemon/config.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <vector>

#include "bft/batch.h"

namespace scab::daemon {

namespace {

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t' ||
                        s.back() == '\r')) {
    s.remove_suffix(1);
  }
  return s;
}

bool parse_u64(std::string_view s, uint64_t* out) {
  if (s.empty() || s.size() > 20) return false;
  uint64_t v = 0;
  for (char c : s) {
    if (c < '0' || c > '9') return false;
    const uint64_t d = static_cast<uint64_t>(c - '0');
    if (v > (UINT64_MAX - d) / 10) return false;  // overflow
    v = v * 10 + d;
  }
  *out = v;
  return true;
}

bool parse_u32(std::string_view s, uint32_t* out) {
  uint64_t v = 0;
  if (!parse_u64(s, &v) || v > UINT32_MAX) return false;
  *out = static_cast<uint32_t>(v);
  return true;
}

/// "ip:port" with port in [1, 65535].  The ip is only shape-checked here
/// (non-empty, no spaces); SocketTransport's inet_pton is the authority.
bool parse_endpoint(std::string_view s, Endpoint* out, std::string* why) {
  const std::size_t colon = s.rfind(':');
  if (colon == std::string_view::npos || colon == 0) {
    *why = "expected ip:port";
    return false;
  }
  const std::string_view ip = s.substr(0, colon);
  const std::string_view port = s.substr(colon + 1);
  if (ip.find(' ') != std::string_view::npos) {
    *why = "expected ip:port";
    return false;
  }
  uint32_t p = 0;
  if (!parse_u32(port, &p) || p == 0 || p > 65535) {
    *why = "invalid port '" + std::string(port) + "' (want 1..65535)";
    return false;
  }
  out->ip = std::string(ip);
  out->port = static_cast<uint16_t>(p);
  return true;
}

std::string at_line(std::size_t line, const std::string& msg) {
  return "line " + std::to_string(line) + ": " + msg;
}

}  // namespace

std::optional<ClusterConfig> parse_cluster_config(std::string_view text,
                                                  std::string* err) {
  ClusterConfig cfg;
  bool have_f = false;
  std::istringstream in{std::string(text)};
  std::string raw;
  std::size_t lineno = 0;
  while (std::getline(in, raw)) {
    ++lineno;
    const std::string_view line = trim(raw);
    if (line.empty() || line.front() == '#') continue;
    const std::size_t eq = line.find('=');
    if (eq == std::string_view::npos) {
      *err = at_line(lineno, "expected 'key = value'");
      return std::nullopt;
    }
    const std::string key{trim(line.substr(0, eq))};
    const std::string value{trim(line.substr(eq + 1))};
    std::string why;

    // Peer-table lines: "replica <id>" / "client <id>".
    const std::size_t sp = key.find(' ');
    const std::string head = sp == std::string::npos ? key : key.substr(0, sp);
    if (head == "replica" || head == "client") {
      uint32_t id = 0;
      if (sp == std::string::npos ||
          !parse_u32(trim(std::string_view(key).substr(sp + 1)), &id)) {
        *err = at_line(lineno, "expected '" + head + " <id> = ip:port'");
        return std::nullopt;
      }
      Endpoint ep;
      if (!parse_endpoint(value, &ep, &why)) {
        *err = at_line(lineno, head + " " + std::to_string(id) + ": " + why);
        return std::nullopt;
      }
      auto& table = head == "replica" ? cfg.replicas : cfg.clients;
      if (head == "client" && id < causal::kClientBase) {
        *err = at_line(lineno,
                       "client id " + std::to_string(id) + " below " +
                           std::to_string(causal::kClientBase) +
                           " (reserved for replicas)");
        return std::nullopt;
      }
      if (head == "replica" && id >= causal::kClientBase) {
        *err = at_line(lineno,
                       "replica id " + std::to_string(id) + " collides with "
                       "the client id space (>= " +
                           std::to_string(causal::kClientBase) + ")");
        return std::nullopt;
      }
      if (!table.emplace(id, std::move(ep)).second) {
        *err = at_line(lineno, "duplicate " + head + " id " +
                                   std::to_string(id));
        return std::nullopt;
      }
      continue;
    }

    // Numeric keys with their accepted range: the one place these bounds
    // live (scab-keygen validates its output through this parser).
    const struct {
      const char* key;
      uint32_t* field;
      uint32_t lo, hi;
    } bounded[] = {
        {"max_batch", &cfg.bft.max_batch, 1, 4096},
        {"max_inflight_batches", &cfg.bft.max_inflight_batches, 1, UINT32_MAX},
        {"client_inflight", &cfg.client_inflight, 1, 1024},
        // A larger client frame would be refused by decode_op_batch and
        // run as one op.
        {"client_batch", &cfg.client_batch, 1, bft::kMaxOpBatch},
        {"threads", &cfg.threads, 0, 256},
        {"io_threads", &cfg.io_threads, 1, 64},
    };
    if (auto b = std::find_if(std::begin(bounded), std::end(bounded),
                              [&](const auto& b) { return key == b.key; });
        b != std::end(bounded)) {
      uint32_t v = 0;
      if (!parse_u32(value, &v) || v < b->lo || v > b->hi) {
        *err = at_line(lineno, "invalid " + key + " '" + value + "' (want " +
                                   std::to_string(b->lo) + ".." +
                                   std::to_string(b->hi) + ")");
        return std::nullopt;
      }
      *b->field = v;
      continue;
    }

    if (key == "protocol") {
      const auto p = causal::protocol_from_name(value);
      if (!p) {
        *err = at_line(lineno, "unknown protocol '" + value +
                                   "' (want pbft|cp0|cp1|cp2|cp3)");
        return std::nullopt;
      }
      cfg.protocol = *p;
    } else if (key == "f") {
      if (!parse_u32(value, &cfg.bft.f)) {
        *err = at_line(lineno, "invalid f '" + value + "'");
        return std::nullopt;
      }
      have_f = true;
    } else if (key == "group") {
      if (value == "modp_1024" || value == "modp_512") {
        cfg.group = value;
        cfg.group_bits = 0;
      } else if (value.rfind("generate:", 0) == 0) {
        uint64_t bits = 0;
        if (!parse_u64(value.substr(9), &bits) || bits < 16 || bits > 4096) {
          *err = at_line(lineno, "invalid group '" + value +
                                     "' (want generate:<16..4096>)");
          return std::nullopt;
        }
        cfg.group = "generate";
        cfg.group_bits = static_cast<std::size_t>(bits);
      } else {
        *err = at_line(lineno,
                       "unknown group '" + value +
                           "' (want modp_1024|modp_512|generate:<bits>)");
        return std::nullopt;
      }
    } else if (key == "checkpoint_interval") {
      // Above the watermark window the primary can never propose past it
      // and the cluster wedges.
      uint64_t v = 0;
      if (!parse_u64(value, &v) || v == 0 || v > bft::kWatermarkWindow) {
        *err = at_line(lineno, "invalid checkpoint_interval '" + value +
                                   "' (want 1.." +
                                   std::to_string(bft::kWatermarkWindow) + ")");
        return std::nullopt;
      }
      cfg.bft.checkpoint_interval = v;
    } else if (key == "keys") {
      cfg.keys_file = value;
    } else if (key == "durability") {
      if (value != "off" && value != "async" && value != "fsync") {
        *err = at_line(lineno, "unknown durability '" + value +
                                   "' (want off|async|fsync)");
        return std::nullopt;
      }
      cfg.durability = value;
    } else if (key == "data_dir") {
      cfg.data_dir = value;
    } else {
      *err = at_line(lineno, "unknown key '" + key + "'");
      return std::nullopt;
    }
  }

  // Whole-file validation.
  if (cfg.replicas.empty()) {
    *err = "no 'replica <id> = ip:port' lines";
    return std::nullopt;
  }
  const uint32_t n = cfg.n();
  for (uint32_t i = 0; i < n; ++i) {
    if (cfg.replicas.count(i) == 0) {
      *err = "replica ids must be contiguous 0.." + std::to_string(n - 1) +
             " (missing " + std::to_string(i) + ")";
      return std::nullopt;
    }
  }
  if (!have_f) {
    *err = "missing 'f = <faults tolerated>'";
    return std::nullopt;
  }
  if (cfg.bft.f < 1 || 3 * cfg.bft.f + 1 > n) {
    *err = "f = " + std::to_string(cfg.bft.f) + " out of range for n = " +
           std::to_string(n) + " replicas (need 1 <= f and n >= 3f+1)";
    return std::nullopt;
  }
  cfg.bft.n = n;
  if (cfg.keys_file.empty()) {
    *err = "missing 'keys = <dealer-seed file>'";
    return std::nullopt;
  }
  if (cfg.durability != "off" && cfg.data_dir.empty()) {
    *err = "durability = " + cfg.durability +
           " requires 'data_dir = <directory>'";
    return std::nullopt;
  }
  if ((cfg.client_inflight > 1 || cfg.client_batch > 1) &&
      cfg.protocol != causal::Protocol::kCp0) {
    *err = "client_inflight/client_batch > 1 requires protocol cp0 (the "
           "only envelope that aggregates)";
    return std::nullopt;
  }
  return cfg;
}

std::optional<uint64_t> parse_dealer_seed(std::string_view text,
                                          std::string* err) {
  std::istringstream in{std::string(text)};
  std::string raw;
  std::size_t lineno = 0;
  std::optional<uint64_t> seed;
  while (std::getline(in, raw)) {
    ++lineno;
    const std::string_view line = trim(raw);
    if (line.empty() || line.front() == '#') continue;
    const std::size_t eq = line.find('=');
    const std::string key{
        trim(eq == std::string_view::npos ? line : line.substr(0, eq))};
    if (eq == std::string_view::npos || key != "dealer_seed") {
      *err = at_line(lineno, "expected 'dealer_seed = <u64>'");
      return std::nullopt;
    }
    uint64_t v = 0;
    if (!parse_u64(trim(line.substr(eq + 1)), &v)) {
      *err = at_line(lineno, "invalid dealer_seed");
      return std::nullopt;
    }
    if (seed) {
      *err = at_line(lineno, "duplicate dealer_seed");
      return std::nullopt;
    }
    seed = v;
  }
  if (!seed) *err = "missing 'dealer_seed = <u64>'";
  return seed;
}

std::optional<std::string> read_file(const std::string& path,
                                     std::string* err) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    *err = path + ": " + std::strerror(errno);
    return std::nullopt;
  }
  std::ostringstream body;
  body << in.rdbuf();
  return std::move(body).str();
}

std::optional<ClusterConfig> load_cluster_config(const std::string& path,
                                                 std::string* err) {
  const auto body = read_file(path, err);
  if (!body) return std::nullopt;
  auto cfg = parse_cluster_config(*body, err);
  if (!cfg) {
    *err = path + ": " + *err;
    return std::nullopt;
  }
  const std::size_t slash = path.rfind('/');
  const std::string base =
      slash == std::string::npos ? std::string() : path.substr(0, slash + 1);
  std::string keys_path = cfg->keys_file;
  if (!keys_path.empty() && keys_path.front() != '/') {
    keys_path = base + keys_path;
  }
  if (!cfg->data_dir.empty() && cfg->data_dir.front() != '/') {
    cfg->data_dir = base + cfg->data_dir;
  }
  const auto keys_body = read_file(keys_path, err);
  if (!keys_body) return std::nullopt;
  const auto seed = parse_dealer_seed(*keys_body, err);
  if (!seed) {
    *err = keys_path + ": " + *err;
    return std::nullopt;
  }
  cfg->dealer_seed = *seed;
  return cfg;
}

std::string format_cluster_config(const ClusterConfig& cfg) {
  std::ostringstream out;
  out << "# scab cluster configuration (generated by scab-keygen)\n"
      << "protocol = " << [&] {
           switch (cfg.protocol) {
             case causal::Protocol::kPbft: return "pbft";
             case causal::Protocol::kCp0: return "cp0";
             case causal::Protocol::kCp1: return "cp1";
             case causal::Protocol::kCp2: return "cp2";
             case causal::Protocol::kCp3: return "cp3";
           }
           return "?";
         }()
      << "\n"
      << "f = " << cfg.bft.f << "\n";
  if (cfg.group == "generate") {
    out << "group = generate:" << cfg.group_bits << "\n";
  } else {
    out << "group = " << cfg.group << "\n";
  }
  out << "checkpoint_interval = " << cfg.bft.checkpoint_interval << "\n"
      << "max_batch = " << cfg.bft.max_batch << "\n"
      << "max_inflight_batches = " << cfg.bft.max_inflight_batches << "\n"
      << "client_inflight = " << cfg.client_inflight << "\n"
      << "client_batch = " << cfg.client_batch << "\n"
      << "threads = " << cfg.threads << "\n"
      << "io_threads = " << cfg.io_threads << "\n"
      << "durability = " << cfg.durability << "\n";
  if (!cfg.data_dir.empty()) out << "data_dir = " << cfg.data_dir << "\n";
  out << "keys = " << cfg.keys_file << "\n";
  for (const auto& [id, ep] : cfg.replicas) {
    out << "replica " << id << " = " << ep.ip << ":" << ep.port << "\n";
  }
  for (const auto& [id, ep] : cfg.clients) {
    out << "client " << id << " = " << ep.ip << ":" << ep.port << "\n";
  }
  return std::move(out).str();
}

std::string format_dealer_seed(uint64_t seed) {
  return "# scab trusted-dealer tape: every key in the cluster derives from "
         "this seed.\n# Guard it like a private key.\n"
         "dealer_seed = " +
         std::to_string(seed) + "\n";
}

bool write_file_atomic(const std::string& path, std::string_view content) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return false;
    out.write(content.data(),
              static_cast<std::streamsize>(content.size()));
    out.flush();
    if (!out) {
      std::remove(tmp.c_str());
      return false;
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

}  // namespace scab::daemon
