#include "probcond_bench/daemon.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <fstream>
#include <thread>
#include <vector>

extern char** environ;

namespace probcond_bench {
namespace {

using probcon::Status;

constexpr std::string_view kListening = "probcond listening on 127.0.0.1:";

std::string DescribeWaitStatus(int status) {
  if (WIFEXITED(status)) return "exit code " + std::to_string(WEXITSTATUS(status));
  if (WIFSIGNALED(status)) {
    return "killed by signal " + std::to_string(WTERMSIG(status)) + " (" +
           strsignal(WTERMSIG(status)) + ")";
  }
  return "wait status " + std::to_string(status);
}

}  // namespace

Daemon::~Daemon() {
  if (pid_ > 0 && !exited_) {
    (void)Stop();
  }
  if (stdout_fd_ >= 0) ::close(stdout_fd_);
}

Status Daemon::Start(const DaemonConfig& config, double timeout_s) {
  stderr_path_ = config.stderr_path;
  // Everything the child needs is prepared here: between fork and exec it may only make
  // async-signal-safe calls.
  std::vector<std::string> argv_storage = {config.binary};
  argv_storage.insert(argv_storage.end(), config.args.begin(), config.args.end());
  std::vector<char*> argv;
  for (std::string& arg : argv_storage) argv.push_back(arg.data());
  argv.push_back(nullptr);
  // Inherited environment, minus any variable `config.env` overrides.
  std::vector<std::string> env_storage = config.env;
  for (char** entry = environ; *entry != nullptr; ++entry) {
    const std::string_view text(*entry);
    const std::string_view name = text.substr(0, text.find('='));
    bool overridden = false;
    for (const std::string& extra : config.env) {
      if (name == std::string_view(extra).substr(0, extra.find('='))) overridden = true;
    }
    if (!overridden) env_storage.emplace_back(text);
  }
  std::vector<char*> envp;
  for (std::string& entry : env_storage) envp.push_back(entry.data());
  envp.push_back(nullptr);

  int pipe_fds[2];
  if (::pipe2(pipe_fds, O_CLOEXEC) != 0) {
    return probcon::UnavailableError("pipe2: " + std::string(std::strerror(errno)));
  }
  const int err_fd =
      ::open(config.stderr_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  const int null_fd = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
  if (err_fd < 0 || null_fd < 0) {
    const std::string error = std::strerror(errno);
    for (const int fd : {pipe_fds[0], pipe_fds[1], err_fd, null_fd}) {
      if (fd >= 0) ::close(fd);
    }
    return probcon::UnavailableError("cannot open " + config.stderr_path + ": " + error);
  }
  const pid_t parent = ::getpid();
  pid_ = ::fork();
  if (pid_ == 0) {
    // The kernel kills the daemon if this thread dies; the getppid check closes the race
    // with a parent that died before prctl ran.
    if (::prctl(PR_SET_PDEATHSIG, SIGKILL) != 0 || ::getppid() != parent) ::_exit(127);
    if (::dup2(pipe_fds[1], STDOUT_FILENO) < 0 || ::dup2(err_fd, STDERR_FILENO) < 0 ||
        ::dup2(null_fd, STDIN_FILENO) < 0) {
      ::_exit(127);
    }
    ::execve(config.binary.c_str(), argv.data(), envp.data());
    ::_exit(127);
  }
  const int fork_errno = errno;
  for (const int fd : {pipe_fds[1], err_fd, null_fd}) ::close(fd);
  stdout_fd_ = pipe_fds[0];
  if (pid_ < 0) {
    return probcon::UnavailableError("fork: " + std::string(std::strerror(fork_errno)));
  }
  if (::clock_getcpuclockid(pid_, &cpu_clock_) != 0) {
    return probcon::UnavailableError("no CPU clock for probcond");
  }

  // Read stdout until the listening line names the port.
  std::string buffer;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::duration<double>(timeout_s);
  while (true) {
    const size_t eol = buffer.find('\n');
    if (eol != std::string::npos) {
      const std::string line = buffer.substr(0, eol);
      buffer.erase(0, eol + 1);
      if (line.compare(0, kListening.size(), kListening) == 0) {
        port_ = static_cast<uint16_t>(std::stoi(line.substr(kListening.size())));
        return Status::Ok();
      }
      continue;
    }
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    if (left.count() <= 0) {
      return probcon::DeadlineExceededError("probcond did not report its port within " +
                                            std::to_string(timeout_s) + " s");
    }
    pollfd pfd{stdout_fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, static_cast<int>(std::min<int64_t>(left.count(), 50)));
    if (ready > 0) {
      char chunk[512];
      const ssize_t got = ::read(stdout_fd_, chunk, sizeof(chunk));
      if (got > 0) {
        buffer.append(chunk, static_cast<size_t>(got));
        continue;
      }
    }
    RETURN_IF_ERROR(CheckAlive());
  }
}

Status Daemon::CheckAlive() {
  if (pid_ <= 0) return probcon::UnavailableError("probcond was never started");
  if (!exited_) {
    const pid_t reaped = ::waitpid(pid_, &wait_status_, WNOHANG);
    if (reaped == 0) return Status::Ok();
    exited_ = true;
  }
  return probcon::UnavailableError("probcond died (" + DescribeWaitStatus(wait_status_) +
                                   "); stderr tail:\n" + StderrTail());
}

int64_t Daemon::CpuNs() const {
  timespec now{};
  if (exited_ || ::clock_gettime(cpu_clock_, &now) != 0) return 0;
  return static_cast<int64_t>(now.tv_sec) * 1'000'000'000 + now.tv_nsec;
}

double Daemon::PeakRssMib() const { return probcond_bench::PeakRssMib(pid_); }

Status Daemon::Stop() {
  if (pid_ <= 0) return Status::Ok();
  if (!exited_) {
    ::kill(pid_, SIGTERM);
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!exited_) {
      const pid_t reaped = ::waitpid(pid_, &wait_status_, WNOHANG);
      if (reaped == pid_) {
        exited_ = true;
        break;
      }
      if (std::chrono::steady_clock::now() > deadline) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &wait_status_, 0);
        exited_ = true;
        return probcon::UnavailableError("probcond did not drain within 10 s; killed");
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  if (WIFEXITED(wait_status_) && WEXITSTATUS(wait_status_) == 0) return Status::Ok();
  return probcon::UnavailableError("probcond stopped with " +
                                   DescribeWaitStatus(wait_status_) + "; stderr tail:\n" +
                                   StderrTail());
}

std::string Daemon::StderrTail() const {
  std::ifstream in(stderr_path_);
  std::string text((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  constexpr size_t kTail = 2000;
  return text.size() > kTail ? text.substr(text.size() - kTail) : text;
}

double PeakRssMib(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

uint64_t HostStealTicks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  uint64_t fields[8] = {};
  in >> cpu;
  for (uint64_t& field : fields) in >> field;
  return fields[7];  // user nice system idle iowait irq softirq steal
}

namespace {

double MedianOf(std::vector<double> values) {
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(values.size() / 2),
                   values.end());
  return values[values.size() / 2];
}

double ElapsedUs(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() - since)
      .count();
}

// Median time of 200 one-byte loopback TCP round trips to an echo thread, over 9 rounds.
double ProbeRoundTripUs() {
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t length = sizeof(address);
  int client = -1;
  int server = -1;
  if (listener >= 0 &&
      ::bind(listener, reinterpret_cast<sockaddr*>(&address), sizeof(address)) == 0 &&
      ::listen(listener, 1) == 0 &&
      ::getsockname(listener, reinterpret_cast<sockaddr*>(&address), &length) == 0) {
    client = ::socket(AF_INET, SOCK_STREAM, 0);
    if (client >= 0 &&
        ::connect(client, reinterpret_cast<sockaddr*>(&address), sizeof(address)) == 0) {
      server = ::accept(listener, nullptr, nullptr);
    }
  }
  double median_us = 0.0;
  if (server >= 0) {
    const int one = 1;
    ::setsockopt(client, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    ::setsockopt(server, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    std::thread echo([server] {
      char byte = 0;
      while (::recv(server, &byte, 1, 0) == 1 && ::send(server, &byte, 1, MSG_NOSIGNAL) == 1) {
      }
    });
    std::vector<double> rounds;
    bool ok = true;
    for (int round = 0; round < 9 && ok; ++round) {
      const auto start = std::chrono::steady_clock::now();
      for (int i = 0; i < 200 && ok; ++i) {
        char byte = 'p';
        ok = ::send(client, &byte, 1, MSG_NOSIGNAL) == 1 && ::recv(client, &byte, 1, 0) == 1;
      }
      rounds.push_back(ElapsedUs(start) / 200.0);
    }
    ::shutdown(client, SHUT_RDWR);
    echo.join();
    if (ok) median_us = MedianOf(rounds);
  }
  for (const int fd : {server, client, listener}) {
    if (fd >= 0) ::close(fd);
  }
  return median_us;
}

}  // namespace

HostSpeed ProbeHostSpeed() {
  HostSpeed speed;
  // A multiply-xorshift chain scattering adds over a 256 KiB table, 9 rounds.
  std::vector<uint64_t> table(uint64_t{1} << 15, 0);
  uint64_t state = 0x9e3779b97f4a7c15;
  std::vector<double> rounds;
  for (int round = 0; round < 9; ++round) {
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < 200000; ++i) {
      state ^= state >> 31;
      state *= 0xbf58476d1ce4e5b9;
      table[state & (table.size() - 1)] += state;
    }
    rounds.push_back(ElapsedUs(start));
  }
  static volatile uint64_t sink = 0;  // Keeps the loop's work observable.
  for (const uint64_t value : table) sink = sink + value;
  speed.compute_us = MedianOf(rounds);
  speed.round_trip_us = ProbeRoundTripUs();
  return speed;
}

}  // namespace probcond_bench
