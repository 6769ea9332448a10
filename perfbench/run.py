"""relay-align benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload simulate-long --seed 1 --seconds 20 --trace 0

With --trace 0 five fresh processes run timed rounds one after another.
setup_s and peak_rss_mb are medians over the processes, work_per_s the total
work over the total time inside cli.main; the times are rescaled to a
reference speed (see reference.py and README.md). With --trace 1 one process
runs a fixed number of rounds, each untraced and then traced, and the
per-layer metrics come from the traced runs. The last line of standard
output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
PROCESSES = 5  # fresh processes per untraced run
BLAS_THREADS = 1  # one BLAS thread: the timed kernels are small and the machine is shared
# Timings are rescaled to the speed at which the workload's reference kernel
# (reference.py) takes this long.
REFERENCE_S = 0.010
RUN_LIMIT_S = 170  # the whole run, all processes


def start_process(args, index: int, budget: float, trace_rounds: int, deadline: float) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    argv = [
        sys.executable, str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
        "--process", str(index), "--processes", str(PROCESSES), "--budget", repr(budget),
        "--trace-rounds", str(trace_rounds), "--out", str(OUT / f"{args.workload}-{index}"),
    ]
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.Popen([*argv, "--t0", repr(t0)], stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit(f"benchmark process {index} did not end within the run's {RUN_LIMIT_S} s")
    if proc.returncode != 0:
        raise SystemExit(f"benchmark process {index} exited with {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "relay_align" / "__init__.py").is_file():
        print(f"no relay_align sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    workload = workloads.WORKLOADS[args.workload]
    deadline = time.monotonic() + RUN_LIMIT_S
    if args.trace:
        rounds = max(1, round(args.seconds / (2 * workload.nominal_round_s)))
        results = [start_process(args, 0, 0.0, rounds, deadline)]
    else:
        results = [start_process(args, i, args.seconds / PROCESSES, 0, deadline) for i in range(PROCESSES)]

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    notes = sum((Counter(r["notes"]) for r in results), start=Counter())
    problems = [p for r in results for p in r["problems"]] + workload.check_notes(notes)
    failures = Counter(f for r in results for f in r["failures"])
    for text, count in failures.items():
        print(f"failed x{count}: {text}", file=sys.stderr)
    for text in problems:
        print(f"wrong: {text}", file=sys.stderr)

    print(f"workload {args.workload}  seed {args.seed}  blas_threads {BLAS_THREADS}  work unit: {workload.work_unit}")
    if args.trace:
        r = results[0]
        units = {m["name"]: m["unit"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
        metrics = {name: {"value": value, "unit": units[name]} for name, value in r["layers"].items()}
        print(f"traced {rounds} rounds: {r['traced_s']:.4f} s traced, {r['untraced_s']:.4f} s untraced")
    else:
        setup_s = statistics.median(r["setup_s"] for r in results)
        work_per_s = sum(r["work"] for r in results) / sum(r["busy_s"] for r in results)
        kernel_s = statistics.fmean(t for r in results for t in r["reference_s"])
        setup_kernel_s = statistics.fmean(t for r in results for t in r["setup_reference_s"])
        metrics = {
            "setup_s": {"value": setup_s * REFERENCE_S / setup_kernel_s, "unit": "s"},
            "work_per_s": {"value": work_per_s * kernel_s / REFERENCE_S, "unit": "work/s"},
            "peak_rss_mb": {"value": statistics.median(r["maxrss_kb"] for r in results) / 1024, "unit": "MB"},
        }
        print(f"{PROCESSES} processes; setup_s per process " + " ".join(f"{r['setup_s']:.4f}" for r in results))
        print(f"unscaled setup_s {setup_s:.4f} s, work_per_s {work_per_s:.6g} work/s; mean reference kernel "
              f"{1000 * setup_kernel_s:.3f} ms (scalar), {1000 * kernel_s:.3f} ms ({workload.reference}); "
              f"reference speed {1000 * REFERENCE_S:.0f} ms")
    for name, m in metrics.items():
        print(f"  {name:44s} {m['value']:>14.6g} {m['unit']}")
    print(f"attempted {attempted}  failed {failed}  wrong outputs {len(problems)}"
          + "".join(f"  {k} {v}" for k, v in sorted(notes.items())))
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
