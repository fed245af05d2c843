#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload point-large|txn-wal|tune|all
                             --seed N --seconds S --trace 0|1

Run from the repository root. The first call builds perfbench/ (the
library sources plus the perfbench binary, optimised) under
$CARGO_TARGET_DIR or .bench_build/. The binary prints a '#' report of
every metric it measured, with units and sample counts; this script
then prints one JSON line holding exactly the metrics BENCHMARK.json
names: its end_to_end set for --trace 0, its per_layer set for
--trace 1. A traced run also leaves its spans in
<build>/spans-<workload>-<seed>.csv. The exit code is nonzero when a
correctness check failed or the binary could not run.
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


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build(out):
    """Configure and build (incrementally after the first time); the
    tools' output goes to stderr."""
    jobs = str(min(4, os.cpu_count() or 1))
    # Compiler temporaries stay inside the build tree too.
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    steps = [["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", out, "-j", jobs]]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(out, "perfbench")


def commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def select(spec, measured, trace):
    """The BENCHMARK.json metrics of this mode, with the measured values.

    A layer the workload never enters (no metric with its prefix was
    measured) reports 0 for each of its metrics; a missing metric of a
    layer that was measured is an error.
    """
    wanted = spec["per_layer" if trace else "end_to_end"]
    layers = {name.split(".")[0] for name in measured if "." in name}
    out = {}
    for m in wanted:
        name, unit = m["name"], m["unit"]
        if name in measured:
            got = measured[name]
            if got["unit"] != unit:
                fail(f"{name}: measured in {got['unit']}, BENCHMARK.json says {unit}")
            out[name] = {"value": got["value"], "unit": unit}
        elif trace and name.split(".")[0] not in layers:
            out[name] = {"value": 0, "unit": unit}
        else:
            fail(f"workload did not measure {name}")
    return out


def run_one(binary, spec, workload, args):
    out_dir = build_dir()
    scratch = os.path.join(out_dir, f"run-{os.getpid()}-{workload}")
    spans = os.path.join(out_dir, f"spans-{workload}-{args.seed}.csv")
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scratch", scratch, "--spans", spans, "--commit", commit()]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} ran past {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    lines = proc.stdout.splitlines()
    if not lines or not lines[-1].startswith("{"):
        fail(f"{workload} exited {proc.returncode} without a result")
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])
    result["metrics"] = select(spec, result["metrics"], args.trace == 1)
    print(json.dumps(result), flush=True)
    return proc.returncode == 0 and result["correct"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(spec_path) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {spec_path}: {e}")
    names = [w["name"] for w in spec["workloads"]]
    todo = names if args.workload == "all" else [args.workload]
    if any(w not in names for w in todo):
        fail(f"unknown workload {args.workload}; choose from {names} or all")

    binary = build(build_dir())
    ok = True
    for workload in todo:
        ok = run_one(binary, spec, workload, args) and ok
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
