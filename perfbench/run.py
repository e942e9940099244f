#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload fig3_fifos --seed 1 --seconds 10 --trace 0

Run from the repository root. The first run configures and builds
perfbench/ (which compiles ../src) into .bench_build/; later runs only check
that the build is current. The benchmark's stdout is passed through: an
`env` line, then one JSON result line whose metric names are checked
against BENCHMARK.json. With --trace 1 the spans of the traced run are
written to .bench_build/spans-<workload>-<seed>.jsonl.

Exit status is non-zero, with no result line, when the build fails, the
benchmark fails or overruns, or its metrics do not match BENCHMARK.json.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
BENCH_TIMEOUT_S = 170


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    cfg = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
           "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(BUILD, "CMakeCache.txt")):
        cfg += ["-G", "Ninja"]
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (cfg, ["cmake", "--build", BUILD, "--target", "perfbench",
                      "-j", jobs]):
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                           text=True)
        if r.returncode != 0:
            sys.stderr.write(r.stdout[-4000:])
            fail("build failed: " + " ".join(cmd))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], required=True)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload " + args.workload)
    build()

    cmd = [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", args.trace]
    if args.trace == "1":
        cmd += ["--trace-out", os.path.join(
            BUILD, "spans-%s-%d.jsonl" % (args.workload, args.seed))]
    # Own session, so a timeout can stop the benchmark and any campaignd
    # worker processes it started.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=BENCH_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("benchmark exceeded %d s" % BENCH_TIMEOUT_S)
    if proc.returncode != 0:
        fail("benchmark exited with status %d" % proc.returncode)

    lines = out.strip().splitlines()
    if not lines:
        fail("benchmark printed nothing")
    result = json.loads(lines[-1])
    key = "per_layer" if args.trace == "1" else "end_to_end"
    want = [m["name"] for m in spec[key]]
    if list(result["metrics"]) != want:
        fail("metrics differ from BENCHMARK.json %s: %s" %
             (key, sorted(set(want) ^ set(result["metrics"]))))
    sys.stdout.write(out)


if __name__ == "__main__":
    main()
