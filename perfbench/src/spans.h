// In-memory span log for the traced run: name, start, end, parent span and
// op id, written out once when the run ends.  Thread-safe; a disabled log
// records nothing.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// The span clock: steady-clock nanoseconds.
inline int64_t mono_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;  // index into the log; -1 = root
  uint64_t op = 0;      // op id for per-op spans, 0 otherwise
};

class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Records a finished span; returns its id (-1 when disabled).
  int32_t add(std::string name, int64_t start_ns, int64_t end_ns,
              int32_t parent = -1, uint64_t op = 0) {
    if (!enabled_) return -1;
    std::lock_guard<std::mutex> lk(mu_);
    spans_.push_back({std::move(name), start_ns, end_ns, parent, op});
    return static_cast<int32_t>(spans_.size() - 1);
  }

  /// Opens a span whose end is set later by close().
  int32_t open(std::string name, int64_t start_ns, int32_t parent = -1) {
    return add(std::move(name), start_ns, start_ns, parent);
  }
  void close(int32_t id, int64_t end_ns) {
    if (id < 0) return;
    std::lock_guard<std::mutex> lk(mu_);
    spans_[static_cast<std::size_t>(id)].end_ns = end_ns;
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> lk(mu_);
    return spans_.size();
  }

  /// Writes the log as one JSON array; false on I/O failure.
  bool write_json(const std::string& path) const {
    std::lock_guard<std::mutex> lk(mu_);
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fputs("[", f);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s\n{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%lld,"
                   "\"end_ns\":%lld,\"parent\":%d,\"op\":%llu}",
                   i == 0 ? "" : ",", i, s.name.c_str(),
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns), s.parent,
                   static_cast<unsigned long long>(s.op));
    }
    std::fputs("\n]\n", f);
    return std::fclose(f) == 0;
  }

 private:
  const bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

}  // namespace perfbench
