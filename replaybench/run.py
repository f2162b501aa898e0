#!/usr/bin/env python3
"""Replay benchmark: build, self-test, generate, replay, check, report.

    python3 replaybench/run.py --workload udp_hot --seed 1 --seconds 10 --trace 0

Run from anywhere inside a full checkout. The first run configures and
builds the repository's libraries plus the benchmark (CMake, into
$CARGO_TARGET_DIR/replaybench, default .bench_build/replaybench); later runs
rebuild only what changed. Each run then

  1. runs the benchmark's self-test of its own maths and answer check;
  2. generates the workload's trace from --seed (a separate process, so
     generation never counts toward the measured process's memory);
  3. replays it open-loop against an in-process server on loopback
     (--trace 1 also replays it a second time with spans recorded and
     pushes the workload's queries through the decode/answer calls);
  4. checks the books, and a sample of answers asked again through real
     sockets before the server stops; prints every metric by name and unit
     with the run's stamps, and writes the full result, and in a traced run
     the span file, under the build directory.

The last line of stdout is one JSON object: correct, attempted (queries
scheduled), failed (queries never answered) and metrics (BENCHMARK.json's
end_to_end metrics with --trace 0, its per_layer metrics with --trace 1).
A failed correctness check prints correct=false and exits 1.
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("udp_hot", "broot_mix", "tcp_few")
BUILD_TYPE = "RelWithDebInfo"
RUN_TIMEOUT_S = 150


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def die(msg, code=1):
    log("replaybench: " + msg)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "replaybench")


def build(bdir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("no src/ next to replaybench/: run from a full checkout", 2)
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            die("cmake configure failed")
    cmd = ["cmake", "--build", bdir, "-j", jobs, "--target", "replaybench",
           "replaybench_selftest"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        die("build failed")
    test = subprocess.run([os.path.join(bdir, "replaybench_selftest"), "--gtest_brief=1"],
                          stdout=sys.stderr)
    if test.returncode != 0:
        die("self-test of the benchmark maths failed")


def commit_stamp():
    """The git commit when the checkout is a repository, else a digest of
    the sources the benchmark builds (src/ and replaybench/)."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                           text=True)
        if r.returncode == 0:
            return r.stdout.strip()
    h = hashlib.sha256()
    for top in ("src", "replaybench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "src-sha256:" + h.hexdigest()[:16]


def fmt(v):
    if v is None:
        return "inf"
    if v == 0 or 1e-3 <= abs(v) < 1e6:
        return "%.6g" % v
    return "%.4e" % v


def print_table(title, metrics, gated=(), compare=None):
    print(title)
    for name, m in metrics.items():
        mark = "*" if name in gated else " "
        line = "  %s %-34s %14s %-9s" % (mark, name, fmt(m["value"]), m["unit"])
        if compare is not None and name in compare:
            t = compare[name]["value"]
            line += "  traced %14s" % fmt(t)
            if t is not None and m["value"] is not None:
                line += "  overhead %+.6g" % (t - m["value"])
        print(line)


def main():
    ap = argparse.ArgumentParser(description="LDplayer replay benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 2:
        die("--seconds must be at least 2 (tails are taken per one-second window)", 2)

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        die("cannot read BENCHMARK.json: %s" % e, 2)
    gated = [m["name"] for m in spec["end_to_end"]]
    layers = [m["name"] for m in spec["per_layer"]]

    bdir = build_dir()
    build(bdir)
    exe = os.path.join(bdir, "replaybench")
    work = os.path.join(bdir, "work")
    for sub in ("work", "results", "spans"):
        os.makedirs(os.path.join(bdir, sub), exist_ok=True)
    trace_file = os.path.join(work, "trace.ldpb")
    gen = subprocess.run([exe, "gen", "--workload", args.workload, "--seed", str(args.seed),
                          "--seconds", repr(args.seconds), "--out", trace_file])
    if gen.returncode != 0:
        die("trace generation failed")

    cmd = [exe, "run", "--workload", args.workload, "--in", trace_file]
    spans = None
    if args.trace:
        spans = os.path.join(bdir, "spans", args.workload + ".jsonl")
        cmd += ["--traced", "--spans", spans]
    t0 = time.monotonic()
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("replay did not finish within %d s" % RUN_TIMEOUT_S)
    wall = time.monotonic() - t0
    lines = run.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        die("replay printed no result (exit %d)" % run.returncode)

    result["seed"] = args.seed
    result["seconds"] = args.seconds
    result["commit"] = commit_stamp()
    result["run_wall_s"] = wall
    name = "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)
    with open(os.path.join(bdir, "results", name), "w") as f:
        json.dump(result, f, indent=1)

    shape = result["shape"]
    print("replaybench %s seed=%d seconds=%g trace=%d commit=%s build=%s host_cores=%d"
          % (args.workload, args.seed, args.seconds, args.trace, result["commit"],
             result["build_type"], result["host_cores"]))
    print("  threads: %s" % result["thread_layout"])
    udp = max(1, shape["udp_queries"])
    print("  trace: %d queries, %d distinct sources, %d UDP, %.1f%% DO, "
          "%.1f%% of UDP queries cache-eligible"
          % (shape["queries"], shape["sources"], shape["udp_queries"],
             100.0 * shape["do_queries"] / max(1, shape["queries"]),
             100.0 * shape["cache_eligible"] / udp))
    print("  kernel drop counters: %s" % result["kernel_counters"])
    print_table("end-to-end (* = gated in BENCHMARK.json; see replaybench/README.md):",
                result["end_to_end"], gated, result.get("end_to_end_traced"))
    if args.trace:
        print_table("per-layer (traced run; * = in the --trace 1 result):",
                    result["per_layer"], layers)
        print_table("span self time, summed per name (traced run):", result["span_self_s"])
        print("  spans: %s" % spans)
    else:
        print_table("counters (untraced run):", result["counters"])

    failures = result.get("failures", [])
    if not result["correct"]:
        for f in failures:
            log("CHECK FAILED: " + f)
        print(json.dumps({"correct": False, "attempted": result["attempted"],
                          "failed": result["failed"], "metrics": {}}))
        sys.exit(1)

    source = result["per_layer"] if args.trace else result["end_to_end"]
    metrics = {}
    for m in (layers if args.trace else gated):
        v = source.get(m, {}).get("value")
        if v is None or not math.isfinite(v):
            die("metric %s has no finite value on %s" % (m, args.workload))
        metrics[m] = {"value": v, "unit": source[m]["unit"]}
    print(json.dumps({"correct": True, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
