// Cluster bring-up for the benchmark: a fresh 4-replica scabd cluster on
// loopback TCP, its cluster.conf written by the driver, every process the
// driver's child and reaped before the Cluster is destroyed.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "daemon/config.h"
#include "obs/json.h"
#include "workload.h"

namespace perfbench {

/// A loopback TCP port the kernel handed out, held bound (SO_REUSEADDR, not
/// listening) until release() so no other socket takes it meanwhile.
class PortHold {
 public:
  /// port 0 = any free port.
  explicit PortHold(uint16_t port = 0);
  ~PortHold() { release(); }
  PortHold(const PortHold&) = delete;
  PortHold& operator=(const PortHold&) = delete;
  PortHold(PortHold&& o) noexcept : fd_(o.fd_), port_(o.port_) { o.fd_ = -1; }
  PortHold& operator=(PortHold&& o) noexcept {
    if (this != &o) {
      release();
      fd_ = o.fd_;
      port_ = o.port_;
      o.fd_ = -1;
    }
    return *this;
  }

  bool ok() const { return fd_ >= 0; }
  uint16_t port() const { return port_; }
  void release();

 private:
  int fd_ = -1;
  uint16_t port_ = 0;
};

/// Kills and reaps every scabd this process started; installed for
/// SIGINT/SIGTERM and safe to call from a signal handler.
void kill_all_children();

class Cluster {
 public:
  static constexpr uint32_t kReplicas = 4;

  /// `dir` must not exist yet; it holds cluster.conf, cluster.keys, the
  /// replicas' data dirs, dumps and logs, and is removed by the destructor.
  /// `client_port` is the driver's listen port, shared by all endpoints.
  Cluster(const Workload& w, uint64_t dealer_seed, std::string dir,
          std::string bin_dir, uint16_t client_port);
  ~Cluster();
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// Writes the config and spawns the replicas; false (with a message on
  /// stderr) on any failure.
  bool start();
  /// Polls until every replica reports itself up (listening, replica
  /// bound).
  bool wait_ready(double timeout_s);

  const scab::daemon::ClusterConfig& config() const { return cfg_; }
  const std::string& dir() const { return dir_; }
  pid_t pid(uint32_t replica) const { return pids_[replica]; }

  /// kill -9 and reap one replica; its port stays held until restart().
  void kill9(uint32_t replica);
  bool restart(uint32_t replica);

  /// SIGUSR1 -> the replica's metrics dump, parsed.
  std::optional<scab::obs::json::Value> dump(uint32_t replica);
  /// Runs scab-metrics-check on the replica's last dump against the given
  /// schema sections, requiring bft.requests_executed == executed.
  bool check_dump(uint32_t replica, const std::string& schema,
                  const std::vector<std::string>& sections, uint64_t executed);

  /// SIGTERM, then SIGKILL after a grace period; reaps every replica.
  void stop();

  /// Bytes in the replica's snapshot blob (0 if none).
  uint64_t snapshot_bytes(uint32_t replica) const;

 private:
  bool spawn(uint32_t replica);
  bool ready(uint32_t replica) const;

  scab::daemon::ClusterConfig cfg_;
  std::string dir_;
  std::string bin_dir_;
  std::vector<PortHold> holds_;
  pid_t pids_[kReplicas] = {-1, -1, -1, -1};
  uint32_t starts_[kReplicas] = {0, 0, 0, 0};  // spawns per replica
};

/// Reads a number at a '/'-separated path of a dump; 0 when absent.
double dump_num(const scab::obs::json::Value& dump, const std::string& path);

}  // namespace perfbench
