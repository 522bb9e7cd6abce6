#include "cluster.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <thread>

#include "proc.h"

namespace perfbench {

namespace fs = std::filesystem;
using scab::obs::json::Value;

namespace {

// Live children, for kill_all_children (signal-safe: plain atomics).
constexpr int kMaxChildren = 16;
std::atomic<pid_t> g_children[kMaxChildren];

void track(pid_t pid) {
  for (auto& slot : g_children) {
    pid_t empty = 0;
    if (slot.compare_exchange_strong(empty, pid)) return;
  }
}

void untrack(pid_t pid) {
  for (auto& slot : g_children) {
    pid_t expect = pid;
    if (slot.compare_exchange_strong(expect, 0)) return;
  }
}

void reap(pid_t pid) {
  while (waitpid(pid, nullptr, 0) < 0 && errno == EINTR) {
  }
  untrack(pid);
}

/// fork + exec with stdout/stderr appended to `log`.  The child dies with
/// the forking THREAD (PR_SET_PDEATHSIG), so no replica outlives a crashed
/// driver; callers fork from the main thread only.
pid_t spawn_process(const std::vector<std::string>& args,
                    const std::string& log) {
  std::vector<char*> argv;
  for (const auto& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);
  const pid_t parent = getpid();
  const pid_t pid = fork();
  if (pid != 0) return pid;
  // Child: async-signal-safe calls only until exec.
  prctl(PR_SET_PDEATHSIG, SIGKILL);
  if (getppid() != parent) _exit(127);
  sigset_t none;
  sigemptyset(&none);
  sigprocmask(SIG_SETMASK, &none, nullptr);
  const int fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd >= 0) {
    dup2(fd, 1);
    dup2(fd, 2);
  }
  execv(argv[0], argv.data());
  _exit(127);
}

/// Runs argv[0] with the given arguments, stdout+stderr to `log`; returns
/// the exit status (-1 if it could not run).
int run_process(const std::vector<std::string>& argv, const std::string& log) {
  const pid_t pid = spawn_process(argv, log);
  if (pid < 0) return -1;
  int status = 0;
  while (waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR) return -1;
  }
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

}  // namespace

void kill_all_children() {
  for (auto& slot : g_children) {
    const pid_t pid = slot.load();
    if (pid > 0) kill(pid, SIGKILL);
  }
  for (auto& slot : g_children) {
    const pid_t pid = slot.exchange(0);
    if (pid > 0) waitpid(pid, nullptr, 0);
  }
}

PortHold::PortHold(uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) return;
  const int one = 1;
  ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in a{};
  a.sin_family = AF_INET;
  a.sin_port = htons(port);
  a.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof(a);
  if (::bind(fd_, reinterpret_cast<const sockaddr*>(&a), sizeof(a)) != 0 ||
      ::getsockname(fd_, reinterpret_cast<sockaddr*>(&a), &len) != 0) {
    release();
    return;
  }
  port_ = ntohs(a.sin_port);
}

void PortHold::release() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

Cluster::Cluster(const Workload& w, uint64_t dealer_seed, std::string dir,
                 std::string bin_dir, uint16_t client_port)
    : dir_(std::move(dir)), bin_dir_(std::move(bin_dir)) {
  cfg_.protocol = w.protocol;
  cfg_.bft = scab::bft::BftConfig::for_f(1);
  // scab-keygen defaults to a test interval of 8; the benchmark runs the
  // BftConfig default explicitly.
  cfg_.bft.checkpoint_interval = 64;
  cfg_.group = w.group;
  cfg_.client_inflight = w.client_inflight;
  cfg_.client_batch = w.client_batch;
  cfg_.threads = 1;
  cfg_.io_threads = 1;
  cfg_.durability = w.durability;
  if (w.durability != "off") cfg_.data_dir = "data";
  cfg_.keys_file = "cluster.keys";
  cfg_.dealer_seed = dealer_seed;
  for (uint32_t i = 0; i < w.endpoints; ++i) {
    cfg_.clients[scab::causal::kClientBase + i] = {"127.0.0.1", client_port};
  }
}

Cluster::~Cluster() {
  stop();
  std::error_code ec;
  fs::remove_all(dir_, ec);
}

bool Cluster::start() {
  std::error_code ec;
  if (!fs::create_directories(dir_, ec)) {
    std::fprintf(stderr, "perfbench: cannot create %s\n", dir_.c_str());
    return false;
  }
  for (uint32_t i = 0; i < kReplicas; ++i) {
    holds_.emplace_back();
    if (!holds_.back().ok()) {
      std::fprintf(stderr, "perfbench: no free loopback port\n");
      return false;
    }
    cfg_.replicas[i] = {"127.0.0.1", holds_.back().port()};
  }
  if (!scab::daemon::write_file_atomic(
          dir_ + "/cluster.conf", scab::daemon::format_cluster_config(cfg_)) ||
      !scab::daemon::write_file_atomic(
          dir_ + "/cluster.keys",
          scab::daemon::format_dealer_seed(cfg_.dealer_seed))) {
    std::fprintf(stderr, "perfbench: cannot write the cluster config\n");
    return false;
  }
  // Re-read through the daemon's own loader: the driver's endpoints run
  // on exactly the config the replicas parse.
  std::string err;
  auto loaded =
      scab::daemon::load_cluster_config(dir_ + "/cluster.conf", &err);
  if (!loaded) {
    std::fprintf(stderr, "perfbench: %s\n", err.c_str());
    return false;
  }
  cfg_ = std::move(*loaded);
  for (uint32_t i = 0; i < kReplicas; ++i) {
    if (!spawn(i)) return false;
  }
  return true;
}

bool Cluster::spawn(uint32_t replica) {
  const std::string id = std::to_string(replica);
  const pid_t pid = spawn_process(
      {bin_dir_ + "/scabd", "--config", dir_ + "/cluster.conf", "--replica",
       id, "--metrics-out", dir_ + "/metrics-" + id + ".json"},
      dir_ + "/scabd-" + id + ".log");
  if (pid < 0) {
    std::fprintf(stderr, "perfbench: fork failed\n");
    return false;
  }
  track(pid);
  pids_[replica] = pid;
  ++starts_[replica];
  return true;
}

bool Cluster::ready(uint32_t replica) const {
  // scabd logs "replica <id> up" once it listens AND its replica is bound
  // to the host; a message that arrived between the two would be dropped.
  const auto log =
      read_text(dir_ + "/scabd-" + std::to_string(replica) + ".log");
  if (!log) return false;
  uint32_t ups = 0;
  for (std::size_t at = log->find(" up ("); at != std::string::npos;
       at = log->find(" up (", at + 1)) {
    ++ups;
  }
  return ups >= starts_[replica];
}

bool Cluster::wait_ready(double timeout_s) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_s);
  for (uint32_t i = 0; i < kReplicas; ++i) {
    while (!ready(i)) {
      int status = 0;
      if (pids_[i] > 0 && waitpid(pids_[i], &status, WNOHANG) == pids_[i]) {
        untrack(pids_[i]);
        pids_[i] = -1;
        std::fprintf(stderr, "perfbench: replica %u exited at startup\n", i);
        return false;
      }
      if (std::chrono::steady_clock::now() > deadline) {
        std::fprintf(stderr, "perfbench: replica %u never came up\n", i);
        return false;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    // Listening now; the hold has done its job.
    holds_[i].release();
  }
  return true;
}

void Cluster::kill9(uint32_t replica) {
  if (pids_[replica] <= 0) return;
  kill(pids_[replica], SIGKILL);
  reap(pids_[replica]);
  pids_[replica] = -1;
  // Hold the port again so it is still free for the restarted process.
  holds_[replica] = PortHold(cfg_.replicas.at(replica).port);
}

bool Cluster::restart(uint32_t replica) {
  if (!spawn(replica)) return false;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!ready(replica)) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  holds_[replica].release();
  return true;
}

std::optional<Value> Cluster::dump(uint32_t replica) {
  if (pids_[replica] <= 0) return std::nullopt;
  const std::string path =
      dir_ + "/metrics-" + std::to_string(replica) + ".json";
  std::error_code ec;
  fs::remove(path, ec);
  kill(pids_[replica], SIGUSR1);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!fs::exists(path, ec)) {
    if (std::chrono::steady_clock::now() > deadline) return std::nullopt;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const auto text = read_text(path);  // written by atomic rename
  if (!text) return std::nullopt;
  return scab::obs::json::parse(*text);
}

bool Cluster::check_dump(uint32_t replica, const std::string& schema,
                         const std::vector<std::string>& sections,
                         uint64_t executed) {
  const std::string id = std::to_string(replica);
  for (const std::string& section : sections) {
    const std::string log = dir_ + "/check-" + id + ".log";
    const int rc = run_process(
        {bin_dir_ + "/scab-metrics-check", dir_ + "/metrics-" + id + ".json",
         "--schema", schema, "--section", section, "--eq",
         "metrics/counters/bft.requests_executed=" + std::to_string(executed)},
        log);
    if (rc != 0) {
      if (const auto text = read_text(log)) {
        std::fprintf(stderr, "perfbench: replica %u %s: %s", replica,
                     section.c_str(), text->c_str());
      }
      return false;
    }
  }
  return true;
}

void Cluster::stop() {
  for (uint32_t i = 0; i < kReplicas; ++i) {
    if (pids_[i] > 0) kill(pids_[i], SIGTERM);
  }
  for (uint32_t i = 0; i < kReplicas; ++i) {
    if (pids_[i] <= 0) continue;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (waitpid(pids_[i], nullptr, WNOHANG) == 0) {
      if (std::chrono::steady_clock::now() > deadline) {
        kill(pids_[i], SIGKILL);
        waitpid(pids_[i], nullptr, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    untrack(pids_[i]);
    pids_[i] = -1;
  }
  holds_.clear();
}

uint64_t Cluster::snapshot_bytes(uint32_t replica) const {
  if (cfg_.data_dir.empty()) return 0;
  std::error_code ec;
  const auto size = fs::file_size(
      cfg_.data_dir + "/node" + std::to_string(replica) + "/snapshot.blob",
      ec);
  return ec ? 0 : size;
}

double dump_num(const Value& dump, const std::string& path) {
  const Value* v = scab::obs::json::find_path(dump, path);
  return v != nullptr && v->is_number() ? v->as_number() : 0.0;
}

}  // namespace perfbench
