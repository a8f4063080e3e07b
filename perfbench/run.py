#!/usr/bin/env python3
"""Builds and runs the X-FTL stack benchmark for one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first call configures and builds the
benchmark package (perfbench/CMakeLists.txt compiles the stack's sources
from src/) into $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when
that variable is unset; later calls reuse the build.

Each workload's settings (latency limit, nominal rate, cache sizes, commit
mode) come from perfbench/spec.json and are passed to the binary as flags.

The benchmark binary prints human-readable lines and then one JSON line with
every metric it measured. This script passes the human lines through and
prints, as its last line, the contract object

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding exactly the end-to-end metrics of BENCHMARK.json (--trace 0) or
exactly its per-layer metrics (--trace 1). It exits non-zero on any
correctness or determinism violation, on a missing metric, and when the
build fails (for instance when the stack's sources are absent).
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    out = build_dir()
    binary = os.path.join(out, "xftl_perfbench")
    configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(os.path.join(out, "Makefile")):
        configure += ["-G", "Ninja"]
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (configure, ["cmake", "--build", out, "-j", jobs]):
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log("perfbench: build failed: " + " ".join(cmd))
            return None
    return binary


def load_json(path):
    with open(path) as f:
        return json.load(f)


def settings_args(spec, workload):
    """The workload's settings from spec.json, their only source, as the
    benchmark program's flags."""
    w = spec["workloads"][workload]
    return ["--latency-limit-ms", str(w["latency_limit_ms"]),
            "--nominal-rate", str(w["nominal_rate_txn_per_s"]),
            "--sql-cache-pages", str(w["sql_cache_pages"]),
            "--fs-cache-pages", str(w["fs_cache_pages"]),
            "--commit-mode", w["commit_mode"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="self-check scale: small inputs, same checks")
    ap.add_argument("--corrupt-check", action="store_true",
                    help="self-check of the checks: the run must fail")
    args = ap.parse_args()

    try:
        bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
        spec = load_json(os.path.join(HERE, "spec.json"))
    except (OSError, ValueError) as e:
        log("perfbench: cannot read BENCHMARK.json or spec.json: %s" % e)
        return 1
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workload not in workloads:
        log("perfbench: unknown workload %r (have %s)" % (args.workload, workloads))
        return 2
    try:
        settings = settings_args(spec, args.workload)
    except KeyError as e:
        log("perfbench: spec.json has no %s for workload %s" % (e, args.workload))
        return 1
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]

    binary = build()
    if binary is None:
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)] + settings
    if args.tiny:
        cmd.append("--tiny")
    if args.corrupt_check:
        cmd.append("--corrupt-check")
    if args.trace:
        spans_dir = os.path.join(build_dir(), "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans-out", os.path.join(
            spans_dir, "%s.seed%d.jsonl" % (args.workload, args.seed))]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        log("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
        return 1

    lines = stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        log("perfbench: the benchmark printed no result (exit %d)" % proc.returncode)
        return 1
    for line in lines[:-1]:
        print(line)

    correct = bool(result.get("correct")) and proc.returncode == 0
    have = result.get("metrics", {})
    metrics = {}
    for m in wanted:
        got = have.get(m["name"])
        if got is None or got.get("unit") != m["unit"]:
            log("perfbench: metric %s (%s) missing from the run" % (m["name"], m["unit"]))
            correct = False
            continue
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    for err in result.get("errors", []):
        log("perfbench: " + err)

    print(json.dumps({"correct": correct, "attempted": int(result.get("attempted", 0)),
                      "failed": int(result.get("failed", 0)), "metrics": metrics}))
    sys.stdout.flush()
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
