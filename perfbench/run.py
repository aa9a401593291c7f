#!/usr/bin/env python3
"""Run one workload of the sweep-stack benchmark and print its result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the benchmark package (perfbench/CMakeLists.txt: the repository's
src/ tree, the ccd_sweep worker and the perfbench program) into
.bench_build/ at the checkout root, runs perfbench, checks the report
hashes against the pinned ones for the pinned seed, prints every metric by
name and unit, and ends with one JSON line: correct, attempted, failed,
metrics.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics
(and writes .bench_build/traces/<workload>.trace.json for Perfetto, plus
wide_grid.fleet.trace.json for its run_dispatch passes).
failed / attempted is the failed_fraction: runs with a keyed error, plus
runs of any pass whose report failed a check.  Exits 1 when anything failed,
2 when the benchmark cannot build or run at all.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("multihop_mixed", "wide_grid")
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD = ROOT / ".bench_build"
TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    for needed in ("src/exp/sweep_runner.hpp", "tools/ccd_sweep.cpp"):
        if not (ROOT / needed).is_file():
            fail(f"{needed} is missing; run from a checkout of the repository")
    BUILD.mkdir(exist_ok=True)
    log_path = BUILD / "build.log"
    steps = []
    if not any((BUILD / f).is_file() for f in ("build.ninja", "Makefile")):
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", str(BUILD), "--target", "perfbench",
                  "ccd_sweep", "--parallel", "4"])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                log.flush()
                tail = log_path.read_text().splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed (see {log_path})")


def run_perfbench(args, out_dir):
    argv = [str(BUILD / "perfbench"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--out-dir", str(out_dir),
            "--worker-bin", str(BUILD / "ccd_sweep")]
    if args.trace == 1:
        traces = BUILD / "traces"
        traces.mkdir(exist_ok=True)
        argv += ["--trace-out", str(traces / f"{args.workload}.trace.json")]
    # Own process group, so a timeout or a SIGTERM also stops the workers
    # of wide_grid's traced fleet passes.
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, cwd=ROOT,
                            start_new_session=True, text=True)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        stdout, _ = proc.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"perfbench exceeded {TIMEOUT_S} s")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        fail(f"perfbench printed nothing (exit {proc.returncode})")
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"perfbench printed no result (exit {proc.returncode})")


def check_pins(args, detail):
    """The pinned FNV-1a hashes of the reports for the pinned seed."""
    pins = json.loads((BENCH_DIR / "pinned_hashes.json").read_text())
    if args.seed != pins["seed"]:
        return None
    expect = pins["hashes"][args.workload]
    ok = expect == detail["hashes"]
    return {"name": f"hashes pinned for seed {pins['seed']}", "ok": ok,
            "detail": "" if ok else f"expected {expect}"}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build()
    out_dir = BUILD / "runs" / f"{args.workload}-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        detail = run_perfbench(args, out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    checks = detail["checks"]
    pin = check_pins(args, detail)
    if pin is not None:
        checks.append(pin)
    correct = detail["correct"] and all(c["ok"] for c in checks)
    attempted = detail["attempted"]
    failed = detail["failed"] if correct or detail["failed"] else attempted

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"passes={detail['passes']}")
    for name, metric in detail["metrics"].items():
        print(f"  {name:28s} {metric['value']:>18.6g} {metric['unit']}")
    print(f"  {'failed_fraction':28s} "
          f"{failed / attempted if attempted else 1.0:>18.6g} ratio")
    hashes = detail["hashes"]
    print(f"  reports fnv1a json={hashes['json']} csv={hashes['csv']} "
          f"dist={hashes['dist']}")
    for check in checks:
        status = "ok" if check["ok"] else "FAILED " + check["detail"]
        print(f"  check {check['name']}: {status}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": detail["metrics"]}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
