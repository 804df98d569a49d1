// probcon-cli — command-line client for a probcond daemon.
//
// Usage:
//   probcon-cli --port N [--deadline-ms D] [--repeat K] [--concurrency N] [--trace]
//               <kind> [<params-json>]
//
//   probcon-cli --port 7421 table1 '{"n": 4}'
//   probcon-cli --port 7421 quorum_size '{"protocol": "pbft", "fault": {"n": 7, "p": 0.02}}'
//   probcon-cli --port 7421 montecarlo
//       '{"protocol": "raft", "fault": {"n": 31, "p": 0.05}, "trials": 1000000}'
//   probcon-cli --port 7421 availability
//       '{"protocol": "raft", "fleet": {"classes": [{"count": 5, "failure_rate": 1e-3}],
//         "repair_rate": 0.5}}'
//   probcon-cli --port 7421 mission_reliability
//       '{"protocol": "raft", "schedule": {"curve": {"kind": "weibull", "shape": 0.7,
//         "scale": 100000}, "n": 5, "round_hours": 24, "rounds": 30}}'
//   probcon-cli --port 7421 repair_sweep
//       '{"protocol": "raft", "fleet": {"classes": [{"count": 5, "failure_rate": 1e-3}]},
//         "min_rate": 0.01, "max_rate": 10, "points": 16, "target_availability": 0.99999}'
//   probcon-cli --port 7421 stats                  # live metrics snapshot (JSON)
//   probcon-cli --port 7421 stats '{"reset": true}'  # ...and zero counters/histograms
//
// Prints the response envelope as indented JSON on stdout. Exit codes are one per error
// class, so scripts can branch on the failure mode without parsing JSON:
//
//   0  OK
//   1  transport failure (connect/framing/stream)
//   2  usage / malformed params
//   3  INVALID_ARGUMENT (and other client-input rejections)
//   4  DEADLINE_EXCEEDED
//   5  UNAVAILABLE (draining server)
//   6  RESOURCE_EXHAUSTED (load shed; retry with backoff)
//   7  any other server-reported status
//
// Server-reported errors also print "probcon-cli: <STATUS_NAME>: <message>" to stderr (the
// envelope still prints to stdout). With --repeat, the worst (highest) code wins.
// --repeat issues the same query K times over one connection (cache behavior is visible in
// the "cached" field of each response). --concurrency pipelines the repeats in batches of
// N over that single connection (responses may complete out of order server-side; they are
// matched back by request id and always print in request order). --trace asks the daemon
// to echo its per-stage span breakdown (parse/canonicalize/cache/engine,
// docs/OBSERVABILITY.md) in a "trace" field.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "src/common/json.h"
#include "src/serve/client.h"

int main(int argc, char** argv) {
  long long port = 0;
  double deadline_ms = 0.0;
  long long repeat = 1;
  long long concurrency = 1;
  bool trace = false;
  int i = 1;
  for (; i < argc; ++i) {
    if (std::strcmp(argv[i], "--port") == 0 && i + 1 < argc) {
      port = std::atoll(argv[++i]);
    } else if (std::strcmp(argv[i], "--deadline-ms") == 0 && i + 1 < argc) {
      deadline_ms = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--repeat") == 0 && i + 1 < argc) {
      repeat = std::atoll(argv[++i]);
    } else if (std::strcmp(argv[i], "--concurrency") == 0 && i + 1 < argc) {
      concurrency = std::atoll(argv[++i]);
    } else if (std::strcmp(argv[i], "--trace") == 0) {
      trace = true;
    } else if (argv[i][0] == '-') {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return 2;
    } else {
      break;
    }
  }
  if (port <= 0 || i >= argc || concurrency <= 0) {
    std::fprintf(stderr,
                 "usage: probcon-cli --port N [--deadline-ms D] [--repeat K] "
                 "[--concurrency N] [--trace] <kind> [<params-json>]\n");
    return 2;
  }
  const std::string kind = argv[i++];
  const std::string params_text = i < argc ? argv[i] : "{}";

  probcon::Result<probcon::Json> params = probcon::ParseJson(params_text, "params");
  if (!params.ok()) {
    std::fprintf(stderr, "probcon-cli: %s\n", params.status().ToString().c_str());
    return 2;
  }

  auto channel = probcon::serve::TcpChannel::Connect(static_cast<uint16_t>(port));
  if (!channel.ok()) {
    std::fprintf(stderr, "probcon-cli: %s\n", channel.status().ToString().c_str());
    return 1;
  }
  probcon::serve::ServeClient client(std::move(*channel));

  // One exit code per error class; INVALID_ARGUMENT keeps the historical 3.
  auto status_exit_code = [](probcon::StatusCode code) {
    switch (code) {
      case probcon::StatusCode::kOk:
        return 0;
      case probcon::StatusCode::kDeadlineExceeded:
        return 4;
      case probcon::StatusCode::kUnavailable:
        return 5;
      case probcon::StatusCode::kResourceExhausted:
        return 6;
      case probcon::StatusCode::kInvalidArgument:
      case probcon::StatusCode::kOutOfRange:
      case probcon::StatusCode::kFailedPrecondition:
      case probcon::StatusCode::kNotFound:
        return 3;
      default:
        return 7;
    }
  };

  int exit_code = 0;
  auto print_response = [&exit_code, &status_exit_code](
                            const probcon::serve::ResponseEnvelope& response) {
    probcon::Json rendered = probcon::Json::Object();
    rendered.Set("id", probcon::Json::Number(response.id));
    rendered.Set("status",
                 probcon::Json::String(std::string(
                     probcon::StatusCodeName(response.status.code()))));
    if (response.status.ok()) {
      rendered.Set("cached", probcon::Json::Bool(response.cached));
      if (response.degraded) {
        rendered.Set("degraded", probcon::Json::Bool(true));
      }
      rendered.Set("result", response.result);
      if (response.trace.type != probcon::Json::Type::kNull) {
        rendered.Set("trace", response.trace);
      }
    } else {
      rendered.Set("error", probcon::Json::String(response.status.message()));
      std::fprintf(stderr, "probcon-cli: %s: %s\n",
                   std::string(probcon::StatusCodeName(response.status.code())).c_str(),
                   response.status.message().c_str());
      exit_code = std::max(exit_code, status_exit_code(response.status.code()));
    }
    std::printf("%s\n", probcon::WriteJson(rendered, 0).c_str());
  };

  // Each round pipelines up to --concurrency repeats over the single connection;
  // QueryBatch returns envelopes in request order regardless of server-side completion
  // order.
  for (long long done = 0; done < repeat;) {
    const std::vector<probcon::serve::ServeClient::BatchItem> items(
        static_cast<size_t>(std::min(concurrency, repeat - done)),
        {kind, *params, deadline_ms, trace});
    probcon::Result<std::vector<probcon::serve::ResponseEnvelope>> responses =
        client.QueryBatch(items);
    if (!responses.ok()) {
      std::fprintf(stderr, "probcon-cli: %s\n", responses.status().ToString().c_str());
      return 1;
    }
    for (const auto& response : *responses) {
      print_response(response);
    }
    done += static_cast<long long>(items.size());
  }
  return exit_code;
}
