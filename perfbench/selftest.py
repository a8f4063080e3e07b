#!/usr/bin/env python3
"""Tiny-scale self-check of the benchmark.

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json at self-check scale (--tiny: small
inputs, the same correctness checks) through run.py, once untraced and once
traced, and asserts that:
  * each run exits 0 and reports correct, with attempted >= 1 and failed 0;
  * the metrics are exactly the end-to-end (untraced) or per-layer (traced)
    metrics of BENCHMARK.json, with their units, and every end-to-end value
    is a positive finite number;
  * the benchmark's checks are not vacuous: a run told to corrupt its own
    expectations (--corrupt-check) fails with exit code 1;
  * spec.json describes every workload, gives it the settings run.py passes
    to the benchmark program, and maps every per-layer metric.
Exits 1 on the first failed assertion.
"""
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETTINGS = ("latency_limit_ms", "nominal_rate_txn_per_s", "sql_cache_pages",
            "fs_cache_pages", "commit_mode")


def fail(msg):
    print("selftest: FAIL: " + msg)
    sys.exit(1)


def run(workload, trace, extra=()):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny"]
    cmd += list(extra)
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=600)
    last = proc.stdout.strip().split("\n")[-1] if proc.stdout.strip() else ""
    return proc.returncode, last, proc.stderr


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "spec.json")) as f:
        spec = json.load(f)

    names = [w["name"] for w in bench["workloads"]]
    for w in names:
        if w not in spec["workloads"]:
            fail("spec.json has no entry for workload %s" % w)
        for key in SETTINGS:
            if key not in spec["workloads"][w]:
                fail("spec.json gives workload %s no %s" % (w, key))
    mapped = {m for row in spec["layer_map"] for m in row["metrics"]}
    for m in bench["per_layer"]:
        if m["name"] not in mapped:
            fail("spec.json layer_map does not place per-layer metric %s" % m["name"])
    for m in bench["end_to_end"]:
        if m["name"] not in spec["end_to_end"]:
            fail("spec.json does not define end-to-end metric %s" % m["name"])

    for w in names:
        for trace in (0, 1):
            rc, last, err = run(w, trace)
            if rc != 0:
                fail("%s --trace %d exited %d:\n%s" % (w, trace, rc, err[-3000:]))
            result = json.loads(last)
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                fail("%s: result keys %s" % (w, sorted(result)))
            if result["correct"] is not True or result["attempted"] < 1 or result["failed"] != 0:
                fail("%s: correct/attempted/failed = %s/%s/%s" % (
                    w, result["correct"], result["attempted"], result["failed"]))
            wanted = bench["per_layer"] if trace else bench["end_to_end"]
            got = result["metrics"]
            if set(got) != {m["name"] for m in wanted}:
                fail("%s --trace %d: metric names differ from BENCHMARK.json" % (w, trace))
            for m in wanted:
                v = got[m["name"]]
                if v["unit"] != m["unit"] or not isinstance(v["value"], (int, float)):
                    fail("%s: %s = %s" % (w, m["name"], v))
                if not math.isfinite(v["value"]):
                    fail("%s: %s is not finite" % (w, m["name"]))
                if not trace and v["value"] <= 0:
                    fail("%s: end-to-end metric %s is %s" % (w, m["name"], v["value"]))
            print("selftest: ok  %-22s --trace %d  (%d metrics)" % (w, trace, len(got)))

        rc, last, _ = run(w, 0, ["--corrupt-check"])
        if rc != 1 or (last.startswith("{") and json.loads(last)["correct"]):
            fail("%s: a corrupted expectation went unnoticed (exit %d)" % (w, rc))
        print("selftest: ok  %-22s corrupted expectation is caught" % w)
    print("selftest: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
