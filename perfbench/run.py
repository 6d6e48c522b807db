"""Benchmark of the headwayctl CLI: throughput, set-up time, memory, layers.

Run from the root of a source checkout (nothing needs installing):

    python3 perfbench/run.py --workload simulate-braess8 --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --seed 1          # every workload in turn

With ``--trace 0`` it calls the CLI entry point in-process for about ``--seconds``
seconds and reports the end-to-end metrics. With ``--trace 1`` it runs a
fixed number of calls untraced and then the same calls traced, and reports
the per-layer metrics and the tracing overhead. Every call's outputs are
checked against ``references.json``. The last line of standard output is one
JSON object; the exit code is 1 when a check failed and 2 when the program
cannot be found.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# Set-up is timed in fresh interpreters, so that importing counts, and the
# median of several is reported.
SETUP_SAMPLES = 9
SETUP_PROBE = """\
import sys, time
t0 = time.perf_counter()
sys.path[:0] = sys.argv[1:3]
import workloads
workloads.make(sys.argv[3], int(sys.argv[4]), sys.argv[5]).setup()
print(time.perf_counter() - t0)
"""

END_TO_END_UNITS = {"decision_steps_per_cpu_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        help="simulate-braess8 | evaluate-braess5 | train-braess5 | all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_all(args) -> int:
    """Each workload in its own interpreter, so memory and set-up stay apart."""
    import workloads

    status = 0
    for name in workloads.WORKLOADS:
        print(f"== {name}", flush=True)
        done = subprocess.run([sys.executable, __file__, "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)])
        status = max(status, done.returncode)
    return status


def time_setup(name: str, seed: int) -> float:
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(BENCH_DIR), str(SRC), name, str(seed),
             str(WORK)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def measure(workload, seconds: float):
    """Closed loop for about ``seconds``: per-call throughput samples, in
    decision steps per CPU second and per wall second, and failures. A call
    starts only if, lasting as long as the previous one, it would end less
    than half its length past the deadline."""
    cpu_rates, wall_rates, attempted, failed = [], [], 0, 0
    start = time.perf_counter()
    i, last = 0, 0.0
    while time.perf_counter() - start + last / 2 < seconds:
        result = workload.run(i)
        i, last = i + 1, result.seconds
        cpu_rates.append(result.op.decision_steps / result.cpu_seconds)
        wall_rates.append(result.op.decision_steps / result.seconds)
        attempted += len(result.op.items)
        failed += result.failed
    return cpu_rates, wall_rates, attempted, failed


def measure_traced(workload):
    """The same fixed calls untraced, then traced; counts repeat exactly."""
    from tracer import Tracer

    calls = range(workload.trace_ops)
    untraced = [workload.run(i) for i in calls]
    with Tracer() as tracer:
        traced = [workload.run(i) for i in calls]
    report = tracer.report()

    def steps_per_s(results):
        return (sum(r.op.decision_steps for r in results)
                / sum(r.seconds for r in results))

    metrics = report.metrics()
    metrics["harness.episode_workers"] = workload.episode_workers()
    metrics["trace.untraced_steps_per_s"] = steps_per_s(untraced)
    metrics["trace.traced_steps_per_s"] = steps_per_s(traced)
    metrics["trace.overhead"] = (metrics["trace.untraced_steps_per_s"]
                                 / metrics["trace.traced_steps_per_s"])

    counts_ok = True
    for label, got, want in workload.expected_counts(report, [r.op for r in traced]):
        if got != want:
            counts_ok = False
            print(f"count check failed: {label} = {got}, expected {want}", file=sys.stderr)
    results = untraced + traced
    attempted = sum(len(r.op.items) for r in results)
    failed = sum(r.failed for r in results)
    return metrics, attempted, failed, counts_ok


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "headwayctl" / "__init__.py").is_file():
        print(f"error: no headwayctl sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.pop("HEADWAY_CTRL_THREADS", None)
    sys.path.insert(0, str(SRC))
    import headwayctl

    if SRC not in Path(headwayctl.__file__).resolve().parents:
        print(f"error: imported headwayctl from {headwayctl.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    import numpy as np
    import workloads
    from tracer import metric_units

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    setup_s = None if args.trace else time_setup(args.workload, args.seed)
    workload = workloads.make(args.workload, args.seed, WORK)
    workload.setup()
    if args.trace:
        metrics, attempted, failed, counts_ok = measure_traced(workload)
        units = metric_units()
    else:
        cpu_rates, wall_rates, attempted, failed = measure(workload, args.seconds)
        counts_ok = True
        metrics = {
            "decision_steps_per_cpu_s": statistics.median(cpu_rates),
            "setup_s": setup_s,
            # ru_maxrss is in KiB on Linux.
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END_UNITS

    env = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": np.__version__, "episode_workers": workload.episode_workers(),
        "commit": git_commit(), "machine": platform.machine(), "platform": platform.platform(),
    }
    print("env " + json.dumps(env, sort_keys=True))
    for name, value in metrics.items():
        print(f"{name:40s} {value:>16.6g} {units[name]}")
    if not args.trace:
        print(f"{'decision_steps_per_wall_s':40s} {statistics.median(wall_rates):>16.6g} 1/s")
    print(f"{'failed_frac':40s} {failed / attempted:>16.6g} frac")
    correct = failed == 0 and counts_ok
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }), flush=True)
    shutil.rmtree(WORK, ignore_errors=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
