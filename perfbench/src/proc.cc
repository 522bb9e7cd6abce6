#include "proc.h"

#include <dirent.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace perfbench {

namespace {

std::optional<uint64_t> to_u64(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  if (s.empty() || s.front() < '0' || s.front() > '9') return std::nullopt;
  uint64_t v = 0;
  for (char c : s) {
    if (c < '0' || c > '9') break;
    v = v * 10 + static_cast<uint64_t>(c - '0');
  }
  return v;
}

}  // namespace

ProcSample& ProcSample::operator+=(const ProcSample& o) {
  cpu_ms += o.cpu_ms;
  syscr += o.syscr;
  syscw += o.syscw;
  read_bytes += o.read_bytes;
  write_bytes += o.write_bytes;
  ctx_switches += o.ctx_switches;
  vm_hwm_kb = std::max(vm_hwm_kb, o.vm_hwm_kb);
  return *this;
}

ProcSample ProcSample::operator-(const ProcSample& o) const {
  ProcSample d;
  d.cpu_ms = cpu_ms - o.cpu_ms;
  d.syscr = syscr - o.syscr;
  d.syscw = syscw - o.syscw;
  d.read_bytes = read_bytes - o.read_bytes;
  d.write_bytes = write_bytes - o.write_bytes;
  d.ctx_switches = ctx_switches - o.ctx_switches;
  d.vm_hwm_kb = std::max(vm_hwm_kb, o.vm_hwm_kb);
  return d;
}

std::optional<uint64_t> parse_stat_cpu_ticks(std::string_view stat) {
  const std::size_t close = stat.rfind(')');
  if (close == std::string_view::npos) return std::nullopt;
  // After ") ": field 3 (state) is index 0; utime is field 14, stime 15.
  std::istringstream in{std::string(stat.substr(close + 1))};
  std::string tok;
  uint64_t utime = 0;
  uint64_t stime = 0;
  for (int field = 3; field <= 15; ++field) {
    if (!(in >> tok)) return std::nullopt;
    if (field == 14 || field == 15) {
      const auto v = to_u64(tok);
      if (!v) return std::nullopt;
      (field == 14 ? utime : stime) = *v;
    }
  }
  return utime + stime;
}

bool parse_io(std::string_view io, ProcSample* out) {
  int found = 0;
  std::istringstream in{std::string(io)};
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t colon = line.find(':');
    if (colon == std::string::npos) continue;
    const std::string key = line.substr(0, colon);
    const auto v = to_u64(std::string_view(line).substr(colon + 1));
    if (!v) continue;
    uint64_t* slot = key == "syscr"         ? &out->syscr
                     : key == "syscw"       ? &out->syscw
                     : key == "read_bytes"  ? &out->read_bytes
                     : key == "write_bytes" ? &out->write_bytes
                                            : nullptr;
    if (slot != nullptr) {
      *slot = *v;
      ++found;
    }
  }
  return found == 4;
}

std::optional<uint64_t> parse_status_field(std::string_view status,
                                           std::string_view key) {
  std::size_t at = 0;
  while (at < status.size()) {
    std::size_t eol = status.find('\n', at);
    if (eol == std::string_view::npos) eol = status.size();
    const std::string_view line = status.substr(at, eol - at);
    if (line.size() > key.size() && line.substr(0, key.size()) == key &&
        line[key.size()] == ':') {
      return to_u64(line.substr(key.size() + 1));
    }
    at = eol + 1;
  }
  return std::nullopt;
}

std::optional<CpuTimes> parse_cpu_times(std::string_view proc_stat) {
  if (proc_stat.substr(0, 4) != "cpu ") return std::nullopt;
  std::istringstream in{std::string(proc_stat.substr(4))};
  // user nice system idle iowait irq softirq steal [guest guest_nice]:
  // guest time is already counted in user, so only the first 8 add up.
  CpuTimes t;
  for (int field = 0; field < 8; ++field) {
    uint64_t v = 0;
    if (!(in >> v)) return std::nullopt;
    t.total += v;
    if (field == 7) t.steal = v;
  }
  return t;
}

std::optional<CpuTimes> read_cpu_times() {
  const auto text = read_text("/proc/stat");
  return text ? parse_cpu_times(*text) : std::nullopt;
}

std::optional<std::string> read_text(const std::string& path) {
  std::ifstream f(path);
  if (!f) return std::nullopt;
  std::ostringstream s;
  s << f.rdbuf();
  return std::move(s).str();
}

std::optional<ProcSample> sample_proc(pid_t pid) {
  const std::string base = "/proc/" + std::to_string(pid);
  const auto stat = read_text(base + "/stat");
  const auto io = read_text(base + "/io");
  const auto status = read_text(base + "/status");
  if (!stat || !io || !status) return std::nullopt;
  ProcSample s;
  const auto ticks = parse_stat_cpu_ticks(*stat);
  if (!ticks || !parse_io(*io, &s)) return std::nullopt;
  s.cpu_ms = static_cast<double>(*ticks) * 1000.0 /
             static_cast<double>(sysconf(_SC_CLK_TCK));
  s.vm_hwm_kb = parse_status_field(*status, "VmHWM").value_or(0);
  // The process status counts only the main thread's switches.
  if (DIR* d = opendir((base + "/task").c_str())) {
    while (const dirent* e = readdir(d)) {
      if (e->d_name[0] == '.') continue;
      const auto ts = read_text(base + "/task/" + e->d_name + "/status");
      if (!ts) continue;
      s.ctx_switches +=
          parse_status_field(*ts, "voluntary_ctxt_switches").value_or(0) +
          parse_status_field(*ts, "nonvoluntary_ctxt_switches").value_or(0);
    }
    closedir(d);
  }
  return s;
}

}  // namespace perfbench
