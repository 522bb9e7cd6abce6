// /proc readers: per-process CPU, syscall and disk counters, context
// switches and peak RSS, sampled from outside the process.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace perfbench {

struct ProcSample {
  double cpu_ms = 0;  // utime + stime, all threads
  uint64_t syscr = 0;
  uint64_t syscw = 0;
  uint64_t read_bytes = 0;   // storage-layer bytes read
  uint64_t write_bytes = 0;  // storage-layer bytes written
  uint64_t ctx_switches = 0;  // voluntary + involuntary, summed over threads
  uint64_t vm_hwm_kb = 0;

  ProcSample& operator+=(const ProcSample& o);
  /// Counter difference (cpu, syscalls, bytes, switches); vm_hwm_kb keeps
  /// the larger peak.
  ProcSample operator-(const ProcSample& o) const;
};

/// utime + stime in clock ticks from the text of /proc/<pid>/stat.  The
/// command name may hold spaces and parentheses, so fields are counted
/// from the LAST ')'.
std::optional<uint64_t> parse_stat_cpu_ticks(std::string_view stat);

/// Fills syscr/syscw/read_bytes/write_bytes from /proc/<pid>/io text.
bool parse_io(std::string_view io, ProcSample* out);

/// Returns "<key>:" from /proc/<pid>/status text (a count or a kB size).
std::optional<uint64_t> parse_status_field(std::string_view status,
                                           std::string_view key);

/// Machine-wide CPU time from the first line of /proc/stat, in ticks:
/// every state summed, and the part the hypervisor stole.
struct CpuTimes {
  uint64_t total = 0;
  uint64_t steal = 0;
};
std::optional<CpuTimes> parse_cpu_times(std::string_view proc_stat);
std::optional<CpuTimes> read_cpu_times();

/// Samples a live process; nullopt if it is gone.
std::optional<ProcSample> sample_proc(pid_t pid);

std::optional<std::string> read_text(const std::string& path);

}  // namespace perfbench
