#!/usr/bin/env python3
"""Self-tests of the serving benchmark, at smoke size.

Run from the root of a checkout (builds like run.py does):

    python3 perfbench/selftest.py

Checks:
  1. Every workload emits every metric named in BENCHMARK.json, finite and
     with its unit: end-to-end metrics untraced, per-layer metrics traced.
  2. Two seeds give different traces, on every workload.
  3. Running batch twice with one seed gives identical token streams and
     identical engine counts (all its requests are due at t=0, so its
     schedule is deterministic).
"""

import json
import math
import os
import subprocess
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

WORKLOADS = ("chat", "batch", "session")


def smoke(binary, workload, seed, trace, digest_path):
    out_dir = os.path.dirname(digest_path)
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", str(trace), "--smoke", "1",
           "--spec", os.path.join(run.ROOT, "BENCHMARK.json"), "--out-dir", out_dir,
           "--digest-out", digest_path]
    proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise AssertionError("%s seed %d trace %d exited %d:\n%s" %
                             (workload, seed, trace, proc.returncode, proc.stderr))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(digest_path) as f:
        digest = json.load(f)[workload]
    return result, digest


def check_metrics(result, wanted, what):
    assert result["correct"] and result["failed"] == 0, what + ": not correct"
    assert result["attempted"] >= 1, what + ": nothing attempted"
    got = result["metrics"]
    for m in wanted:
        assert m["name"] in got, "%s: missing metric %s" % (what, m["name"])
        v = got[m["name"]]
        assert isinstance(v["value"], (int, float)) and math.isfinite(v["value"]), \
            "%s: %s is not a finite number" % (what, m["name"])
        assert v["unit"] == m["unit"], "%s: %s has unit %s, BENCHMARK.json says %s" % (
            what, m["name"], v["unit"], m["unit"])
    extra = set(got) - {m["name"] for m in wanted}
    assert not extra, "%s: metrics not in BENCHMARK.json: %s" % (what, sorted(extra))


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    binary = run.build()
    failures = []

    def test(name, fn):
        try:
            fn()
            print("PASS " + name)
        except AssertionError as e:
            print("FAIL %s: %s" % (name, e))
            failures.append(name)

    out_dir = os.path.join(run.ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
        digests = {}

        def emits_all(wl):
            r0, digests[(wl, 1)] = smoke(binary, wl, 1, 0, os.path.join(tmp, "d0"))
            check_metrics(r0, spec["end_to_end"], wl + " untraced")
            r1, _ = smoke(binary, wl, 1, 1, os.path.join(tmp, "d1"))
            check_metrics(r1, spec["per_layer"], wl + " traced")

        def seeds_differ(wl):
            _, d2 = smoke(binary, wl, 2, 0, os.path.join(tmp, "d2"))
            assert d2["trace"] != digests[(wl, 1)]["trace"], wl + ": seeds 1 and 2 gave one trace"

        def batch_repeats():
            _, again = smoke(binary, "batch", 1, 0, os.path.join(tmp, "d3"))
            assert again == digests[("batch", 1)], "batch seed 1 differs between runs: %s vs %s" % (
                again, digests[("batch", 1)])

        for wl in WORKLOADS:
            test("emits every metric: " + wl, lambda wl=wl: emits_all(wl))
        for wl in WORKLOADS:
            if (wl, 1) in digests:
                test("two seeds differ: " + wl, lambda wl=wl: seeds_differ(wl))
        if ("batch", 1) in digests:
            test("batch is deterministic per seed", batch_repeats)

    print("%d failed" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
