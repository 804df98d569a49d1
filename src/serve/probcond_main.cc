// probcond — the reliability-query daemon.
//
// Usage:
//   probcond [--port N] [--cache-bytes N] [--cache-shards N] [--max-inflight N]
//            [--reactors N] [--max-inflight-per-conn N] [--default-deadline-ms N]
//            [--no-brownout] [--brownout-trip-sheds N] [--brownout-recover-admits N]
//            [--brownout-lane N] [--brownout-trials N]
//            [--metrics-interval-s N --metrics-path FILE]
//
// The --brownout-* flags tune the overload circuit breaker (docs/SERVING.md, "Brownout &
// health"): after --brownout-trip-sheds sheds within the breaker window, montecarlo
// answers in degraded mode (capped at --brownout-trials trials, flagged "degraded": true)
// through a --brownout-lane-slot side lane until --brownout-recover-admits consecutive
// normal admits close the breaker; every other kind keeps shedding. --no-brownout
// disables degradation entirely (overload always sheds).
//
// --reactors picks the transport's reactor-shard count (0 = auto), --max-inflight-per-conn
// the per-connection pipelining cap, and --cache-shards the memo-cache shard count; see
// docs/SERVING.md for how the three interact.
//
// Binds 127.0.0.1 (port 0 = ephemeral; the chosen port is printed on stdout as
// "probcond listening on 127.0.0.1:<port>" for scripts to scrape), serves the framed JSON
// protocol (docs/SERVING.md), and shuts down gracefully on SIGINT/SIGTERM: stop accepting,
// answer in-flight requests, print a metrics summary, exit 0.
//
// --metrics-interval-s with --metrics-path enables a periodic metrics dump: every N
// seconds (measured in 50ms shutdown-poll ticks, so no extra clock enters the daemon) the
// full registry plus exec-pool telemetry is written as deterministic metrics JSON
// (docs/OBSERVABILITY.md) to FILE via write-temp-then-rename, so scrapers never observe a
// torn file. A final dump is written after drain. For on-demand snapshots use the `stats`
// verb instead (probcon-cli stats).

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include <atomic>
#include <chrono>
#include <fstream>
#include <string>
#include <thread>

#include "src/exec/thread_pool.h"
#include "src/obs/export.h"
#include "src/obs/metrics.h"
#include "src/serve/server.h"
#include "src/serve/transport.h"

namespace {

std::atomic<bool> g_shutdown{false};

void HandleSignal(int /*signum*/) { g_shutdown.store(true); }

bool ParseFlag(int argc, char** argv, int* i, const char* name, long long* out) {
  if (std::strcmp(argv[*i], name) != 0) {
    return false;
  }
  if (*i + 1 >= argc) {
    std::fprintf(stderr, "missing value for %s\n", name);
    std::exit(2);
  }
  *out = std::atoll(argv[++*i]);
  return true;
}

bool ParseStringFlag(int argc, char** argv, int* i, const char* name, std::string* out) {
  if (std::strcmp(argv[*i], name) != 0) {
    return false;
  }
  if (*i + 1 >= argc) {
    std::fprintf(stderr, "missing value for %s\n", name);
    std::exit(2);
  }
  *out = argv[++*i];
  return true;
}

// Snapshots the live registry (plus exec-pool telemetry, which ExportMetrics accumulates —
// hence a fresh snapshot registry per dump) and writes it atomically to `path`.
void DumpMetrics(const probcon::MetricsRegistry& metrics, const std::string& path) {
  probcon::MetricsRegistry snapshot;
  metrics.SnapshotInto(&snapshot);
  probcon::ThreadPool::Global().ExportMetrics(snapshot);
  const std::string temp = path + ".tmp";
  {
    std::ofstream out(temp, std::ios::trunc);
    if (!out) {
      std::fprintf(stderr, "probcond: cannot write %s\n", temp.c_str());
      return;
    }
    probcon::WriteMetricsJson(snapshot, out);
    out << '\n';
  }
  if (std::rename(temp.c_str(), path.c_str()) != 0) {
    std::fprintf(stderr, "probcond: rename %s -> %s failed\n", temp.c_str(), path.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  long long port = 0;
  long long cache_bytes = 64LL << 20;
  long long max_inflight = 64;
  long long cache_shards = probcon::serve::kDefaultCacheShards;
  long long reactors = 0;
  long long max_inflight_per_conn = probcon::serve::kDefaultMaxInflightPerConn;
  long long default_deadline_ms = 0;
  long long metrics_interval_s = 0;
  probcon::serve::BrownoutOptions brownout_defaults;
  long long brownout_enabled = 1;
  long long brownout_trip_sheds = brownout_defaults.trip_sheds;
  long long brownout_recover_admits = brownout_defaults.recover_admits;
  long long brownout_lane = brownout_defaults.degraded_lane;
  long long brownout_trials = static_cast<long long>(brownout_defaults.degraded_trials);
  std::string metrics_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--no-brownout") == 0) {
      brownout_enabled = 0;
      continue;
    }
    if (ParseFlag(argc, argv, &i, "--port", &port) ||
        ParseFlag(argc, argv, &i, "--cache-bytes", &cache_bytes) ||
        ParseFlag(argc, argv, &i, "--max-inflight", &max_inflight) ||
        ParseFlag(argc, argv, &i, "--cache-shards", &cache_shards) ||
        ParseFlag(argc, argv, &i, "--reactors", &reactors) ||
        ParseFlag(argc, argv, &i, "--max-inflight-per-conn", &max_inflight_per_conn) ||
        ParseFlag(argc, argv, &i, "--default-deadline-ms", &default_deadline_ms) ||
        ParseFlag(argc, argv, &i, "--brownout-trip-sheds", &brownout_trip_sheds) ||
        ParseFlag(argc, argv, &i, "--brownout-recover-admits", &brownout_recover_admits) ||
        ParseFlag(argc, argv, &i, "--brownout-lane", &brownout_lane) ||
        ParseFlag(argc, argv, &i, "--brownout-trials", &brownout_trials) ||
        ParseFlag(argc, argv, &i, "--metrics-interval-s", &metrics_interval_s) ||
        ParseStringFlag(argc, argv, &i, "--metrics-path", &metrics_path)) {
      continue;
    }
    std::fprintf(stderr, "unknown flag %s\n", argv[i]);
    return 2;
  }
  if ((metrics_interval_s > 0) != !metrics_path.empty()) {
    std::fprintf(stderr,
                 "--metrics-interval-s and --metrics-path must be given together\n");
    return 2;
  }

  probcon::MetricsRegistry metrics;
  probcon::serve::ServerOptions options;
  options.cache_bytes = static_cast<size_t>(cache_bytes);
  options.max_inflight = static_cast<int>(max_inflight);
  options.cache_shards = static_cast<int>(cache_shards);
  options.default_deadline_ms = static_cast<double>(default_deadline_ms);
  options.brownout.enabled = brownout_enabled != 0;
  options.brownout.trip_sheds = static_cast<int>(brownout_trip_sheds);
  options.brownout.recover_admits = static_cast<int>(brownout_recover_admits);
  options.brownout.degraded_lane = static_cast<int>(brownout_lane);
  options.brownout.degraded_trials = static_cast<uint64_t>(brownout_trials);
  probcon::serve::QueryServer server(options, &metrics);
  probcon::serve::TcpServerOptions transport_options;
  transport_options.reactors = static_cast<int>(reactors);
  transport_options.max_inflight_per_conn = static_cast<int>(max_inflight_per_conn);
  probcon::serve::TcpServer transport(server, &metrics, transport_options);

  const probcon::Status started = transport.Start(static_cast<uint16_t>(port));
  if (!started.ok()) {
    std::fprintf(stderr, "probcond: %s\n", started.ToString().c_str());
    return 1;
  }
  std::printf("probcond listening on 127.0.0.1:%u\n", transport.port());
  std::fflush(stdout);

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  // The metrics dump rides the existing 50ms shutdown poll: 20 ticks per second, no
  // second clock source in the daemon.
  const long long dump_every_ticks = metrics_interval_s * 20;
  long long ticks = 0;
  while (!g_shutdown.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    if (dump_every_ticks > 0 && ++ticks >= dump_every_ticks) {
      ticks = 0;
      DumpMetrics(metrics, metrics_path);
    }
  }

  // Graceful shutdown: refuse new work, let in-flight requests answer, then tear the
  // transport down so those answers reach their connections.
  std::printf("probcond draining...\n");
  std::fflush(stdout);
  server.Drain();
  transport.Stop();
  if (dump_every_ticks > 0) {
    DumpMetrics(metrics, metrics_path);  // Final window, so a scrape can't miss the tail.
  }

  const auto cache = server.cache().snapshot();
  std::printf("probcond stats: requests=%llu cache_hits=%llu cache_misses=%llu shed=%llu\n",
              static_cast<unsigned long long>(metrics.GetCounter("serve.requests").value()),
              static_cast<unsigned long long>(cache.hits),
              static_cast<unsigned long long>(cache.misses),
              static_cast<unsigned long long>(metrics.GetCounter("serve.shed").value()));
  return 0;
}
