#!/usr/bin/env python3
"""Builds the tilestore benchmark from source and runs one workload.

Usage, from the root of a checkout:

  python3 perfbench/run.py --workload cube_scan --seed 1 --seconds 10 --trace 0
  python3 perfbench/run.py --selfcheck

The first form prints the workload's human-readable summary on stderr and,
as the last line of stdout, one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics` (the end-to-end metrics of
BENCHMARK.json with --trace 0, the per-layer metrics with --trace 1). It
exits non-zero when the build fails, any operation fails or mismatches
its oracle, or the run stalls.

--selfcheck runs every workload twice with one seed and once with another,
and fails unless the deterministic quantities (cost-model totals, pages,
seeks, index nodes, write and space amplification) repeat exactly for the
same seed and the generated operations differ for the other seed.

Build outputs, per-run reports and scratch stores go under .bench_build/.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(OUT, "perfbench")
BINARY = os.path.join(BUILD_DIR, "tilestore_perfbench")
WORKLOADS = ("cube_scan", "serve_mixed", "ingest_update")
# A run must end within 180 s. The binary's own watchdog ends a stalled
# run at 165 s; this timeout is the backstop.
RUN_TIMEOUT_S = 172
BUILD_TIMEOUT_S = 850


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and incrementally builds the benchmark binary."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR, *gen,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target",
                  "tilestore_perfbench", "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                                  stderr=sys.stderr, timeout=BUILD_TIMEOUT_S,
                                  check=False)
        except (OSError, subprocess.TimeoutExpired) as err:
            log(f"perfbench: build step failed: {err}")
            return False
        if done.returncode != 0:
            log(f"perfbench: build step failed ({done.returncode}): "
                + " ".join(cmd))
            if cmd[1] == "-S":
                # A failed configure must not leave a cache that skips it
                # next time.
                shutil.rmtree(BUILD_DIR, ignore_errors=True)
            return False
    # Flush the build's outputs now, so their writeback does not compete
    # with the workload's own fsyncs during the measurement.
    os.sync()
    return True


def expected_metrics(trace):
    """Metric names and units BENCHMARK.json promises for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def run_binary(workload, seed, seconds, trace):
    """Runs one workload; returns (exit code, result line or None, report)."""
    report = os.path.join(OUT, "reports",
                          f"{workload}-seed{seed}-trace{int(trace)}.json")
    os.makedirs(os.path.dirname(report), exist_ok=True)
    work = os.path.join(OUT, "work")
    os.makedirs(work, exist_ok=True)
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--work-dir", work, "--report", report]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=sys.stderr, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        shutil.rmtree(work, ignore_errors=True)
        log(f"perfbench: {workload} did not finish within {RUN_TIMEOUT_S} s")
        return 3, None, None
    shutil.rmtree(work, ignore_errors=True)
    lines = [l for l in stdout.splitlines() if l.strip()]
    return proc.returncode, (lines[-1] if lines else None), report


def check_result(line, trace):
    """Returns an error message when the result line breaks the contract."""
    try:
        result = json.loads(line)
    except (TypeError, ValueError):
        return "result line is not JSON"
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return f"result keys {sorted(result)}"
    if not result["correct"]:
        return None  # reported through the exit code
    want = expected_metrics(trace)
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    if got != want:
        return f"metrics {got} do not match BENCHMARK.json {want}"
    bad = [k for k, v in result["metrics"].items()
           if not isinstance(v.get("value"), (int, float))]
    if bad:
        return f"metrics without a finite value: {bad}"
    return None


def run_one(args):
    if not build():
        return 2
    code, line, _ = run_binary(args.workload, args.seed, args.seconds,
                               args.trace)
    if line is None:
        return code or 3
    error = check_result(line, args.trace)
    if error:
        log(f"perfbench: {error}")
        return 4
    print(line, flush=True)
    return code


def selfcheck(seconds):
    """Same seed twice -> identical deterministic quantities; another seed
    -> different generated operations. Each workload also runs traced once
    so every per-layer metric is checked to be reported."""
    if not build():
        return 2
    ok = True
    for workload in WORKLOADS:
        dets = []
        for seed in (11, 11, 12):
            code, line, report = run_binary(workload, seed, seconds, False)
            if code != 0 or line is None:
                log(f"selfcheck: {workload} seed {seed} failed ({code})")
                return 1
            with open(report) as f:
                dets.append(json.load(f)["deterministic"])
        same = dets[0] == dets[1]
        differs = dets[0]["fingerprint"] != dets[2]["fingerprint"]
        code, line, _ = run_binary(workload, 11, seconds, True)
        traced = code == 0 and line is not None and \
            check_result(line, True) is None
        log(f"selfcheck {workload}: same seed identical={same}, "
            f"other seed changes operations={differs}, traced ok={traced}")
        if not same:
            log(f"  seed 11 run 1: {dets[0]}\n  seed 11 run 2: {dets[1]}")
        ok = ok and same and differs and traced
    log("selfcheck " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selfcheck", action="store_true")
    args = parser.parse_args()
    if args.selfcheck:
        return selfcheck(min(args.seconds, 2))
    if args.workload is None:
        parser.error("--workload is required")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
