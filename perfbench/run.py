#!/usr/bin/env python3
"""Build and run the serving benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload chat --seed 1 --seconds 30 --trace 0

The first run configures and builds perfbench/ (libolive from src/ plus
the benchmark program) into $CARGO_TARGET_DIR, or .bench_build when that
is unset; later runs only re-check the build.  The program reads chat's
offered rate and every workload's TTFT and ITL limits from the workload's
"why" in BENCHMARK.json, so they are fixed in one place.  Everything the
program prints is passed through; its last line is the JSON result.
Traces go to .bench_out/.

--workload all runs chat, batch and session one after another, each in
a process of its own (so that peak_rss_mb is the workload's own), and
ends with one JSON result whose metric names carry the workload as a
prefix ("chat.ttft_p50_ms", ...).
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    """Configure once, then build incrementally; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "serve", "engine.hpp")):
        die("no olive source tree (src/) next to perfbench/")
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "-j", str(os.cpu_count() or 4)],
                   stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "perfbench")


WORKLOADS = ("chat", "batch", "session")


def run_all(cmd):
    """Run each workload in its own process and merge their results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    i = cmd.index("--workload") + 1
    for wl in WORKLOADS:
        proc = subprocess.run(cmd[:i] + [wl] + cmd[i + 1:], cwd=ROOT,
                              stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            die("%s printed no result (exit %d)" % (wl, proc.returncode))
        code = code or proc.returncode
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            merged["metrics"][wl + "." + name] = m
    print(json.dumps(merged))
    return code


def main(argv):
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        die("build failed: %s" % e)
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [binary, *argv, "--spec", os.path.join(ROOT, "BENCHMARK.json"),
           "--out-dir", out_dir]
    sys.stdout.flush()
    if "--workload" in argv and argv[argv.index("--workload") + 1:][:1] == ["all"]:
        return run_all(cmd)
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
