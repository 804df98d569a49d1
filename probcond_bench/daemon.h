// A probcond child process: spawn, readiness, liveness, resource readings, and stop.
//
// The daemon's stdout is a pipe (its first line announces the port); its stderr goes to a
// file so a daemon that dies can be reported with the tail of what it printed. The child
// is killed by the kernel if the benchmark process dies first, so no daemon outlives a run.

#ifndef PROBCOND_BENCH_DAEMON_H_
#define PROBCOND_BENCH_DAEMON_H_

#include <sys/types.h>
#include <time.h>

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/status.h"

namespace probcond_bench {

struct DaemonConfig {
  std::string binary;
  std::vector<std::string> args;
  std::vector<std::string> env;  // "NAME=value" entries added to the inherited environment.
  std::string stderr_path;
};

class Daemon {
 public:
  Daemon() = default;
  ~Daemon();  // Stops the process if it still runs.

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  // Spawns the daemon and waits (up to `timeout_s`) for its "listening" line.
  probcon::Status Start(const DaemonConfig& config, double timeout_s);

  uint16_t port() const { return port_; }

  // OK while the process runs; otherwise an error naming its exit status and the tail of
  // its stderr. Reaps the process once it has exited.
  probcon::Status CheckAlive();

  // User + system CPU of the whole process (every thread), in nanoseconds.
  int64_t CpuNs() const;

  // VmHWM of the process, in MiB.
  double PeakRssMib() const;

  // SIGTERM, then wait for exit (SIGKILL after a grace period). OK when the daemon drained
  // and exited 0.
  probcon::Status Stop();

 private:
  std::string StderrTail() const;

  pid_t pid_ = -1;
  clockid_t cpu_clock_ = CLOCK_MONOTONIC;
  int stdout_fd_ = -1;
  uint16_t port_ = 0;
  std::string stderr_path_;
  bool exited_ = false;
  int wait_status_ = 0;
};

// VmHWM of process `pid`, in MiB.
double PeakRssMib(pid_t pid);

// The host's cumulative steal ticks (/proc/stat, all CPUs): time the hypervisor ran
// something else while this machine's CPUs had work.
uint64_t HostStealTicks();

// How fast the host ran fixed work of the benchmark's own: the median time of an
// arithmetic-and-memory loop, and of a loopback TCP round trip between two threads. Neither
// depends on probcon's code, so in the run record they tell a slower host from slower code.
struct HostSpeed {
  double compute_us = 0.0;
  double round_trip_us = 0.0;  // 0 when the loopback pair could not be set up.
};
HostSpeed ProbeHostSpeed();

}  // namespace probcond_bench

#endif  // PROBCOND_BENCH_DAEMON_H_
