#!/usr/bin/env python3
"""Repository benchmark entry point.

Builds the benchmark binary (perfbench/CMakeLists.txt: the simulator
libraries from src/ plus perfbench.cc) in Release mode, runs one workload,
checks its simulation digests and exact counts against earlier runs of
the same binary, and prints one JSON result line as the last line of
stdout:

    python3 perfbench/run.py --workload arena|mega|fleet [--seed N]
        [--seconds S] [--trace 0|1]

With --workload all it runs every workload untraced and traced and
prints the end-to-end and per-layer tables instead.

Run it from the repository root. The build goes to
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), and the
run's side files (spans, metrics dumps, self-check records) to its out/
subdirectory.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# Each workload's pinned scenario seed, used when --seed is not given.
DEFAULT_SEEDS = {"arena": 42, "mega": 20260809, "fleet": 42}
WORKLOADS = tuple(DEFAULT_SEEDS)


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(build_dir):
    """Configure (once) and build; returns the binary's path or None."""
    env = dict(os.environ)
    env["TMPDIR"] = os.path.join(build_dir, "tmp")
    os.makedirs(env["TMPDIR"], exist_ok=True)
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode:
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", build_dir, "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode:
        return None
    return os.path.join(build_dir, "perfbench")


def file_hash(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()[:16]


def self_check(out_dir, binary, workload, seed, trace):
    """Compare this run's digests/exact counts with earlier runs of the
    same binary and workload/seed; returns a list of mismatches."""
    check_path = os.path.join(
        out_dir, "%s-%s-t%d.check.json" % (workload, seed, trace))
    with open(check_path) as f:
        now = json.load(f)
    ref_path = os.path.join(
        out_dir, "ref-%s-%s-%s.json" % (file_hash(binary), workload, seed))
    ref = {"digests": {}, "exact": {}}
    if os.path.exists(ref_path):
        with open(ref_path) as f:
            ref = json.load(f)
    bad = []
    for kind in ("digests", "exact"):
        for name, value in now[kind].items():
            if name in ref[kind] and ref[kind][name] != value:
                bad.append("%s %s: %r != earlier %r"
                           % (kind, name, value, ref[kind][name]))
            ref[kind].setdefault(name, value)
    with open(ref_path, "w") as f:
        json.dump(ref, f, sort_keys=True)
    return bad


def run_one(binary, out_dir, workload, seed, seconds, trace):
    if seed is None:
        seed = DEFAULT_SEEDS[workload]
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--out", out_dir]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        log("perfbench: benchmark binary exited with %d" % proc.returncode)
        return None
    result = json.loads(lines[-1])
    bad = self_check(out_dir, binary, workload, seed, trace)
    for msg in bad:
        log("perfbench: self-check mismatch: " + msg)
    if bad:
        result["correct"] = False
        result["failed"] += 1
    return result


def print_table(title, results):
    log(title)
    names = []
    for res in results.values():
        for name in res["metrics"]:
            if name not in names:
                names.append(name)
    log("  %-28s" % "metric" + "".join("%16s" % w for w in results)
        + "  unit")
    for name in names:
        row = "  %-28s" % name
        unit = ""
        for res in results.values():
            m = res["metrics"].get(name)
            row += "%16.6g" % m["value"] if m else "%16s" % "-"
            unit = m["unit"] if m else unit
        log(row + "  " + unit)
    for workload, res in results.items():
        log("  %s: correct=%s attempted=%d failed=%d failed_frac=%g"
            % (workload, res["correct"], res["attempted"], res["failed"],
               res["failed"] / max(res["attempted"], 1)))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(root, "perfbench"))
    os.makedirs(build_dir, exist_ok=True)
    binary = build(build_dir)
    if binary is None:
        log("perfbench: build failed")
        return 1
    out_dir = os.path.join(build_dir, "out")
    os.makedirs(out_dir, exist_ok=True)

    if args.workload != "all":
        result = run_one(binary, out_dir, args.workload, args.seed,
                         args.seconds, args.trace)
        if result is None:
            return 1
        print(json.dumps(result, sort_keys=True))
        return 0

    for trace, title in ((0, "end-to-end metrics (tracing off)"),
                         (1, "per-layer metrics (traced run)")):
        results = {}
        for workload in WORKLOADS:
            res = run_one(binary, out_dir, workload, args.seed,
                          args.seconds, trace)
            if res is None:
                return 1
            results[workload] = res
        print_table(title, results)
    return 0


if __name__ == "__main__":
    sys.exit(main())
