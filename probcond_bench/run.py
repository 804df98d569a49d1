#!/usr/bin/env python3
"""The probcond benchmark: builds probcond and probcond_bench from source, then runs one
workload and prints its metrics as the last line of stdout.

    python3 probcond_bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 probcond_bench/run.py --smoke

Run from the root of a checkout. The build goes to .bench_build/probcond_bench (Release,
configured once, rebuilt incrementally); span traces and daemon stderr go to
.bench_build/traces. Workloads, metrics and the layer each metric belongs to are
described in probcond_bench/README.md.

--smoke is the benchmark's own test: a pass of a few seconds over every workload,
untraced and traced, that checks each metric BENCHMARK.json names is printed with its
unit, that every answer check and the books check ran, and that the replay matched the
daemon.
"""

import argparse
import ctypes
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "probcond_bench")
TRACE_DIR = os.path.join(ROOT, ".bench_build", "traces")
RUN_TIMEOUT_S = 170
SMOKE_SECONDS = 2
PR_SET_PDEATHSIG = 1


def die_with_parent():
    """Runs in the child before exec: the kernel kills it if this runner dies."""
    ctypes.CDLL(None, use_errno=True).prctl(PR_SET_PDEATHSIG, signal.SIGKILL)


def build():
    """Configures (once) and builds probcond and probcond_bench; build chatter goes to stderr."""
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr.fileno()).returncode != 0:
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            return False
    jobs = str(os.cpu_count() or 1)
    command = ["cmake", "--build", BUILD_DIR, "-j", jobs, "--target", "probcond",
               "probcond_bench"]
    return subprocess.run(command, stdout=sys.stderr.fileno()).returncode == 0


def run(workload, seed, seconds, trace):
    """Runs probcond_bench once; returns (exit code, stdout lines)."""
    os.makedirs(TRACE_DIR, exist_ok=True)
    command = [
        os.path.join(BUILD_DIR, "probcond_bench"),
        "--daemon", os.path.join(BUILD_DIR, "src", "serve", "probcond"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--trace-dir", TRACE_DIR,
    ]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, preexec_fn=die_with_parent)
    except subprocess.TimeoutExpired:
        print("probcond_bench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1, []
    return done.returncode, done.stdout.splitlines()


def tagged(lines, tag):
    """The JSON object of the first stdout line starting with `tag `."""
    for line in lines:
        if line.startswith(tag + " "):
            return json.loads(line[len(tag) + 1:])
    return None


def smoke():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            where = "%s --trace %d" % (workload, trace)
            found = len(problems)
            code, lines = run(workload, 1, SMOKE_SECONDS, trace)
            if code != 0 or not lines:
                problems.append("%s: exit %d" % (where, code))
                continue
            result = json.loads(lines[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append("%s: result keys %s" % (where, sorted(result)))
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                problems.append("%s: correct=%s attempted=%s failed=%s" % (
                    where, result["correct"], result["attempted"], result["failed"]))
            want = {m["name"]: m["unit"] for m in declared}
            got = {name: m.get("unit") for name, m in result["metrics"].items()}
            if got != want:
                problems.append("%s: metrics differ from BENCHMARK.json: %s" % (
                    where, sorted(set(got.items()) ^ set(want.items()))))
            record = tagged(lines, "record") or {}
            if record.get("answers_checked", 0) < 1 or record.get("books_gap") != 0:
                problems.append("%s: answer or books check missing: %s" % (where, record))
            if trace == 1:
                replay = tagged(lines, "replay") or {}
                if replay.get("requests", 0) < 1 or replay.get("mismatches") != 0:
                    problems.append("%s: replay check missing or failed: %s" % (where, replay))
            print("smoke %s: %s" % (where, "ok" if len(problems) == found else "FAILED"),
                  file=sys.stderr)
    for problem in problems:
        print("smoke: " + problem, file=sys.stderr)
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not args.smoke and not args.workload:
        parser.error("--workload is required")
    # A SIGTERM ends this runner through the normal exit path, so the kernel's
    # parent-death signal takes probcond_bench (and, through it, the daemon) down too.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not build():
        print("probcond_bench: build failed", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    code, lines = run(args.workload, args.seed, args.seconds, args.trace)
    for line in lines:
        print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
