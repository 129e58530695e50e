#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload paper_grid --seed 1 --trace 0
    python3 perfbench/run.py --self-test

Configures and builds perfbench/ (which pulls in the library from the
parent directory) into .bench_build/ under the repository root, then runs
one workload in a child process and passes its output through: the last
line of standard output is the JSON result. Build output goes to
.bench_build/build.log. Exits non-zero without a result when the build or
the run fails. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "perfbench"
WORKLOADS = ("paper_grid", "codec_grid", "query_mix")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds; returns False on failure."""
    BUILD.mkdir(exist_ok=True)
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", str(BUILD), "--target", "perfbench",
                  "-j", str(os.cpu_count() or 1)])
    with open(BUILD / "build.log", "a") as out:
        for cmd in steps:
            done = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT)
            if done.returncode:
                log(f"build failed: {' '.join(cmd)} "
                    f"(see {BUILD / 'build.log'})")
                return False
    return True


def run_binary(args, capture=False):
    """Runs the benchmark binary; returns (exit code, stdout or None)."""
    cmd = [str(BINARY)] + args
    proc = subprocess.Popen(cmd, cwd=ROOT,
                            stdout=subprocess.PIPE if capture else None)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log(f"timed out after {RUN_TIMEOUT_S} s: {' '.join(args)}")
        return 1, None
    return proc.returncode, out.decode() if capture else None


def benchmark_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ([m["name"] for m in spec["end_to_end"]],
            [m["name"] for m in spec["per_layer"]])


def self_test():
    """Tiny runs of every workload, checking the benchmark itself."""
    end_to_end, per_layer = benchmark_metrics()
    problems = []

    def run(workload, trace, seed=7, extra=()):
        args = ["--workload", workload, "--seed", str(seed), "--seconds", "2",
                "--trace", str(trace), "--tiny"] + list(extra)
        code, out = run_binary(args, capture=True)
        if code != 0 or not out:
            problems.append(f"{' '.join(args)}: exit {code}")
            return None
        return json.loads(out.strip().splitlines()[-1])

    for workload in WORKLOADS:
        for trace, names in ((0, end_to_end), (1, per_layer)):
            result = run(workload, trace)
            if result is None:
                continue
            missing = [n for n in names if n not in result["metrics"]]
            if missing:
                problems.append(f"{workload} trace {trace} lacks {missing}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{workload} trace {trace} not correct")
            if trace == 1:
                again = run(workload, 1)
                if again is None:
                    continue
                for name in per_layer:
                    m = result["metrics"].get(name, {})
                    if m.get("unit") == "count" and \
                            again["metrics"].get(name) != m:
                        problems.append(
                            f"{workload}: count {name} differs across two "
                            f"runs of one seed")

    for workload, corrupt in (("paper_grid", "store"), ("codec_grid", "store"),
                              ("query_mix", "answer")):
        result = run(workload, 0, extra=("--corrupt", corrupt))
        if result is not None and (result["correct"] or not result["failed"]):
            problems.append(f"{workload}: a corrupted {corrupt} was not "
                            f"counted as failed")

    for p in problems:
        log(f"self-test FAIL: {p}")
    log("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    if not build():
        return 1
    if args.self_test:
        return self_test()

    code, _ = run_binary(["--workload", args.workload, "--seed", str(args.seed),
                          "--seconds", str(args.seconds),
                          "--trace", str(args.trace)])
    return code


if __name__ == "__main__":
    sys.exit(main())
