#!/usr/bin/env bash
# End-to-end smoke test for the probcon::serve daemon, as run by the serve-e2e CI job:
#
#   1. start probcond on an ephemeral loopback port and wait for readiness,
#   2. issue table1 / quorum_size queries through probcon-cli and pin the
#      regression-locked cells ("99.94%", "99.90%") — served answers must be
#      byte-identical to the offline tables,
#   3. repeat a query and require the second answer to be a cache hit with an identical
#      result object,
#   3b. issue a fleet-lifecycle `availability` query, pin it to the independent-node
#      closed form, and require its repeat to hit the memo cache,
#   3c. run a placement search and require serve.engine.enum_configs to grow by exactly
#      its r^n assignments,
#   4. pipeline a --concurrency batch through one connection and require every response
#      to come back, matched to a distinct request id, with the same result object,
#   5. fire a 1 ms deadline at a 2^30-trial Monte Carlo request and a 50 ms deadline at the
#      largest placement search, and require a prompt DEADLINE_EXCEEDED instead of a wedged
#      server; send invalid requests — among them a bathtub curve that once aborted the
#      daemon and an infinite beta-binomial alpha that once answered "always live" — and
#      require INVALID_ARGUMENT (exit 3) from a daemon that still answers ping,
#   6. query the `stats` verb and require a parseable metrics snapshot whose cache-hit
#      counter reflects the repeated query, whose per-reactor-shard connection gauges sum
#      to the active-connection gauge, and a --trace request to echo its span breakdown,
#   7. SIGTERM the daemon and require a graceful drain (exit 0) plus a final
#      --metrics-path dump that parses as metrics JSON.
#
# Usage: tools/serve_smoke.sh <build-dir>

set -u

BUILD_DIR="${1:?usage: serve_smoke.sh <build-dir>}"
PROBCOND="${BUILD_DIR}/src/serve/probcond"
CLI="${BUILD_DIR}/src/serve/probcon-cli"
LOG="$(mktemp /tmp/probcond_smoke.XXXXXX.log)"
METRICS="$(mktemp /tmp/probcond_smoke.XXXXXX.metrics.json)"
FAILURES=0

fail() {
  echo "FAIL: $1" >&2
  FAILURES=$((FAILURES + 1))
}

[ -x "${PROBCOND}" ] || { echo "missing binary: ${PROBCOND}" >&2; exit 1; }
[ -x "${CLI}" ] || { echo "missing binary: ${CLI}" >&2; exit 1; }

"${PROBCOND}" --port 0 --metrics-interval-s 3600 --metrics-path "${METRICS}" \
  >"${LOG}" 2>&1 &
DAEMON_PID=$!
trap 'kill -9 "${DAEMON_PID}" 2>/dev/null; rm -f "${LOG}" "${METRICS}"' EXIT

# Readiness: scrape the bound port from the startup line, then ping until it answers.
PORT=""
for _ in $(seq 1 100); do
  PORT="$(sed -n 's/^probcond listening on 127\.0\.0\.1:\([0-9]*\)$/\1/p' "${LOG}")"
  [ -n "${PORT}" ] && break
  sleep 0.1
done
[ -n "${PORT}" ] || { echo "probcond never reported its port; log:" >&2; cat "${LOG}" >&2; exit 1; }

READY=0
for _ in $(seq 1 100); do
  if "${CLI}" --port "${PORT}" ping >/dev/null 2>&1; then
    READY=1
    break
  fi
  sleep 0.1
done
[ "${READY}" = 1 ] || { echo "probcond never answered ping" >&2; exit 1; }
echo "probcond ready on port ${PORT}"

# Table 1, n=4: the served cells must be the regression-locked paper values.
TABLE1="$("${CLI}" --port "${PORT}" table1 '{"n": 4}')" || fail "table1 query errored"
echo "${TABLE1}" | grep -q '"safe_and_live": "99.94%"' \
  || fail "table1 n=4 did not serve the regression cell 99.94%: ${TABLE1}"

# Quorum sizing: raft n=5 p=0.01 at target_live 0.999 sizes to the known config.
QUORUM="$("${CLI}" --port "${PORT}" quorum_size \
  '{"protocol": "raft", "fault": {"n": 5, "p": 0.01}, "target_live": 0.999}')" \
  || fail "quorum_size query errored"
echo "${QUORUM}" | grep -q '"live": "99.90%"' \
  || fail "quorum_size did not hit the expected 99.90% cell: ${QUORUM}"

# Memoization: the repeat must be a cache hit with a byte-identical result object.
REPEAT="$("${CLI}" --port "${PORT}" --repeat 2 table1 '{"n": 4}')" \
  || fail "repeated table1 query errored"
echo "${REPEAT}" | grep -q '"cached": true' || fail "repeat was not served from cache"
python3 - "$TABLE1" "$REPEAT" <<'EOF' || fail "cached result differs from computed result"
import json, sys
first = json.loads(sys.argv[1])["result"]
# The --repeat output is two documents back to back; both must carry the same result.
decoder = json.JSONDecoder()
text, results = sys.argv[2].strip(), []
while text:
    doc, end = decoder.raw_decode(text)
    results.append(doc["result"])
    text = text[end:].strip()
canon = lambda value: json.dumps(value, sort_keys=True)
assert len(results) == 2, f"expected 2 responses, got {len(results)}"
assert canon(results[0]) == canon(results[1]) == canon(first)
EOF

# Pipelining: a --concurrency batch goes out as back-to-back frames on one connection and
# the server may answer out of order; the client must match every response by id. All 16
# responses must arrive, carry 16 distinct ids, and serve the same result object.
PIPELINED="$("${CLI}" --port "${PORT}" --concurrency 8 --repeat 16 table1 '{"n": 4}')" \
  || fail "pipelined table1 batch errored"
python3 - "$TABLE1" "$PIPELINED" <<'EOF' || fail "pipelined batch lost/mismatched responses"
import json, sys
first = json.loads(sys.argv[1])["result"]
decoder = json.JSONDecoder()
text, docs = sys.argv[2].strip(), []
while text:
    doc, end = decoder.raw_decode(text)
    docs.append(doc)
    text = text[end:].strip()
assert len(docs) == 16, f"expected 16 responses, got {len(docs)}"
ids = [doc["id"] for doc in docs]
assert len(set(ids)) == 16, f"duplicate ids in batch: {sorted(ids)}"
canon = lambda value: json.dumps(value, sort_keys=True)
for doc in docs:
    assert doc["status"] == "OK", doc
    assert canon(doc["result"]) == canon(first), doc
EOF

# Fleet lifecycle: an availability query round-trips with the independent-node closed form
# (3 nodes, lambda 0.02, per-node repair at mu 0.5: unavailability ~ 0.0043241), and the
# repeat is served from the memo cache with a byte-identical result.
AVAIL_PARAMS='{"protocol": "raft", "fleet": {"classes": [{"count": 3, "failure_rate": 0.02}], "repair_rate": 0.5, "repair_servers": 3}}'
AVAIL="$("${CLI}" --port "${PORT}" availability "${AVAIL_PARAMS}")" \
  || fail "availability query errored"
python3 - "$AVAIL" <<'EOF' || fail "availability result off the closed form: ${AVAIL}"
import json, sys
result = json.loads(sys.argv[1])["result"]
up = 0.5 / 0.52
expected = 1.0 - (3 * up * up * (1 - up) + up ** 3)
assert abs(result["unavailability"] - expected) < 1e-9, result
assert result["mttu_hours"] > 0, result
assert result["downtime_hours_per_year"] > 0, result
EOF
AVAIL_REPEAT="$("${CLI}" --port "${PORT}" --repeat 2 availability "${AVAIL_PARAMS}")" \
  || fail "repeated availability query errored"
echo "${AVAIL_REPEAT}" | grep -q '"cached": true' \
  || fail "availability repeat was not served from cache"
python3 - "$AVAIL" "$AVAIL_REPEAT" <<'EOF' || fail "cached availability differs from computed"
import json, sys
first = json.loads(sys.argv[1])["result"]
decoder = json.JSONDecoder()
text, results = sys.argv[2].strip(), []
while text:
    doc, end = decoder.raw_decode(text)
    results.append(doc["result"])
    text = text[end:].strip()
canon = lambda value: json.dumps(value, sort_keys=True)
assert len(results) == 2, f"expected 2 responses, got {len(results)}"
assert canon(results[0]) == canon(results[1]) == canon(first)
EOF

# Work counts: a completed placement search with n = 5 and r = 3 evaluates one count law
# for each of its 3^5 assignments and counts each one, so serve.engine.enum_configs must
# grow by exactly 243.
enum_configs() {
  "${CLI}" --port "${PORT}" stats | python3 -c 'import json, sys
print(json.load(sys.stdin)["result"]["metrics"]["counters"].get("serve.engine.enum_configs", 0))'
}
ENUM_BEFORE="$(enum_configs)"
"${CLI}" --port "${PORT}" placement '{"node_probabilities": [0.01, 0.02, 0.005, 0.01, 0.03],
  "rack_probabilities": [0.002, 0.01, 0.004]}' >/dev/null || fail "placement query errored"
ENUM_AFTER="$(enum_configs)"
[ "$((ENUM_AFTER - ENUM_BEFORE))" = 243 ] \
  || fail "placement n=5 r=3 added $((ENUM_AFTER - ENUM_BEFORE)) enum_configs, want 243"

# Deadlines: a 2^30-trial Monte Carlo run under a 1 ms deadline must come back
# DEADLINE_EXCEEDED promptly (dedicated exit code 4), not wedge the daemon.
DEADLINE_OUT="$("${CLI}" --port "${PORT}" --deadline-ms 1 montecarlo \
  '{"protocol": "raft", "fault": {"n": 5, "p": 0.01}, "trials": 1073741824}')"
DEADLINE_EXIT=$?
[ "${DEADLINE_EXIT}" = 4 ] || fail "deadline query exit ${DEADLINE_EXIT}, want 4"
echo "${DEADLINE_OUT}" | grep -q 'DEADLINE_EXCEEDED' \
  || fail "deadline query did not report DEADLINE_EXCEEDED: ${DEADLINE_OUT}"

# The largest admitted placement search (5^10 assignments, each a count law over 10 nodes)
# must honor its deadline too: finished, it takes well over a second. `timeout` bounds the
# check.
timeout 60 "${CLI}" --port "${PORT}" --deadline-ms 50 placement \
  '{"node_probabilities": [0.01, 0.01, 0.01, 0.01, 0.01, 0.01, 0.01, 0.01, 0.01, 0.01],
    "rack_probabilities": [0.001, 0.002, 0.003, 0.004, 0.005]}' >/dev/null 2>&1
PLACEMENT_EXIT=$?
[ "${PLACEMENT_EXIT}" = 4 ] || fail "placement deadline query exit ${PLACEMENT_EXIT}, want 4"

# Error classes map to distinct exit codes: an invalid request is 3.
"${CLI}" --port "${PORT}" table1 '{"n": 1}' >/dev/null 2>&1
INVALID_EXIT=$?
[ "${INVALID_EXIT}" = 3 ] || fail "invalid-argument query exit ${INVALID_EXIT}, want 3"

# A curve outside its constructor's preconditions (a bathtub whose infant shape is not
# below 1) is INVALID_ARGUMENT too; it used to abort the daemon.
"${CLI}" --port "${PORT}" table2 '{"fault": {"curve": {"kind": "bathtub", "infant_shape": 2,
  "infant_scale": 100, "useful_life_rate": 0.001, "wearout_shape": 3, "wearout_scale": 1000},
  "n": 5, "window": 24}}' >/dev/null 2>&1
CURVE_EXIT=$?
[ "${CURVE_EXIT}" = 3 ] || fail "invalid bathtub curve query exit ${CURVE_EXIT}, want 3"

# An infinite beta-binomial parameter is INVALID_ARGUMENT; it used to sample NaN failure
# levels and answer that the cluster never fails.
"${CLI}" --port "${PORT}" montecarlo '{"protocol": "raft", "model": {"kind": "beta_binomial",
  "n": 5, "alpha": 1e999, "beta": 50}, "trials": 1000}' >/dev/null 2>&1
ALPHA_EXIT=$?
[ "${ALPHA_EXIT}" = 3 ] || fail "infinite beta-binomial alpha query exit ${ALPHA_EXIT}, want 3"

# The daemon must still be healthy after the cancelled and the rejected requests.
"${CLI}" --port "${PORT}" ping >/dev/null \
  || fail "daemon unhealthy after the deadline and invalid-argument queries"

# The health verb reports the brownout state machine; a quiet daemon is ready.
HEALTH="$("${CLI}" --port "${PORT}" health)" || fail "health query errored"
echo "${HEALTH}" | grep -q '"state": "ready"' \
  || fail "health query did not report ready: ${HEALTH}"

# Introspection: the stats verb returns a metrics snapshot in which the repeated table1
# query above is visible as cache traffic and as per-kind latency samples with quantiles.
STATS="$("${CLI}" --port "${PORT}" stats)" || fail "stats query errored"
python3 - "$STATS" <<'EOF' || fail "stats snapshot missing expected metrics"
import json, sys
metrics = json.loads(sys.argv[1])["result"]["metrics"]
counters, histograms = metrics["counters"], metrics["histograms"]
assert counters["serve.cache.hits"] >= 1, counters
assert counters["serve.cache.misses"] >= 1, counters
assert counters["serve.connections.accepted"] >= 1, counters
table1 = histograms["serve.latency_ms.table1"]
assert table1["count"] >= 3, table1
for q in ("p50", "p90", "p99"):
    assert q in table1, table1
gauges = metrics["gauges"]
assert "serve.inflight" in gauges, gauges
# Per-reactor-shard connection gauges must exist and sum to the active-connection gauge
# (this stats query itself holds one connection open, so the sum is >= 1).
shard_sum = sum(v for k, v in gauges.items()
                if k.startswith("serve.connections.active.shard"))
active = gauges["serve.connections.active"]
assert shard_sum == active >= 1, {k: v for k, v in gauges.items()
                                  if k.startswith("serve.connections")}
EOF

# Per-request spans: --trace echoes the stage breakdown with non-negative durations.
TRACE="$("${CLI}" --port "${PORT}" --trace table1 '{"n": 4}')" || fail "trace query errored"
python3 - "$TRACE" <<'EOF' || fail "trace echo malformed"
import json, sys
trace = json.loads(sys.argv[1])["trace"]
assert trace["total_ms"] >= 0, trace
stages = {s["stage"]: s["ms"] for s in trace["stages"]}
assert "parse" in stages and "cache" in stages, stages
assert all(ms >= 0 for ms in stages.values()), stages
EOF

# Graceful shutdown: SIGTERM drains in-flight work and exits 0.
kill -TERM "${DAEMON_PID}"
wait "${DAEMON_PID}"
DAEMON_EXIT=$?
[ "${DAEMON_EXIT}" = 0 ] || fail "probcond exit ${DAEMON_EXIT} on SIGTERM, want 0"
grep -q 'probcond draining' "${LOG}" || fail "no drain message in daemon log"
grep -q 'probcond stats:' "${LOG}" || fail "no stats line in daemon log"

# The shutdown path writes a final metrics dump to --metrics-path; it must be a complete,
# parseable metrics document (write-temp-then-rename, so never torn).
python3 - "${METRICS}" <<'EOF' || fail "final --metrics-path dump missing or malformed"
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
assert doc["counters"]["serve.requests"] >= 1, doc["counters"]
assert "serve.latency_ms" in doc["histograms"], sorted(doc["histograms"])
EOF
trap 'rm -f "${LOG}" "${METRICS}"' EXIT

if [ "${FAILURES}" -ne 0 ]; then
  echo "serve smoke test: ${FAILURES} failure(s); daemon log:" >&2
  cat "${LOG}" >&2
  exit 1
fi
echo "serve smoke test: all checks passed"
