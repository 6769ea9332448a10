"""One benchmark process: set up, warm up, then run timed rounds, or traced rounds.

run.py starts this script once per measured process; it prints one JSON line
with what it measured. Set-up time runs from the parent's CLOCK_MONOTONIC
stamp taken just before the process was started (the clock is system-wide)
to the first timed operation, so it covers the interpreter, numpy and
relay_align imports, input generation and the warm-up.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

from reference import SHARE, Reference

ROOT = Path(__file__).resolve().parents[1]
MAX_REPORTED = 20  # problems and failures listed per process
OVERHEAD_METRIC = "trace.overhead_pct"


class Tally:
    """Operations attempted and failed, and outputs that failed their check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.problems: list[str] = []

    def note(self, bucket: list[str], text: str) -> None:
        if len(bucket) < MAX_REPORTED:
            bucket.append(text)


def run_ops(main, ops, tally: Tally | None) -> float:
    """Run ops in order and return the seconds spent inside `main`.

    An op fails when it raises or exits with another code than the correct
    one; the output of every other op is checked. With `tally` None (the
    warm-up) nothing is counted or checked.
    """
    busy = 0.0
    for op in ops:
        start, error = time.perf_counter(), ""
        try:
            rc = main(op.argv)
        except Exception:  # a crash is a failed operation; the run goes on
            rc, error = None, traceback.format_exc(limit=3)
        busy += time.perf_counter() - start
        if tally is None:
            continue
        tally.attempted += 1
        if rc != op.expect_rc:
            tally.failed += 1
            label = " ".join(Path(a).name if "/" in a else a for a in op.argv[:2])
            tally.note(tally.failures, f"{label}: exit {rc}, expected {op.expect_rc}\n{error}".rstrip())
            continue
        for problem in op.check():
            tally.note(tally.problems, f"{op.argv[0]}: {problem}")
    return busy


def budget_slots(budget: float, first: int, step: int):
    """Round slots first, first + step, ... until `budget` seconds have passed."""
    start, slot = time.perf_counter(), first
    while time.perf_counter() - start < budget:
        yield slot
        slot += step


def timed_rounds(main, workload, slots, tally: Tally, *references: Reference) -> tuple[int, float]:
    """Run the rounds of `slots`, sampling the reference kernels between them.

    Returns the work units done and the seconds spent inside `main`.
    """
    work, busy_s = 0, 0.0
    for reference in references:
        reference.sample()
    for slot in slots:
        ops, round_work = workload.round(slot)
        round_s = run_ops(main, ops, tally)
        for reference in references:
            reference.sample(SHARE * round_s)
        work += round_work
        busy_s += round_s
    return work, busy_s


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--process", type=int, required=True, help="index of this process in the run")
    parser.add_argument("--processes", type=int, required=True, help="processes in the run")
    parser.add_argument("--t0", type=float, required=True, help="CLOCK_MONOTONIC when the parent started us")
    parser.add_argument("--budget", type=float, default=0.0, help="seconds of timed rounds")
    parser.add_argument("--trace-rounds", type=int, default=0, help="rounds to run untraced, then traced")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    from relay_align import cli

    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"relay_align was imported from {cli.__file__}, not from {ROOT / 'src'}")
    import workloads

    out = Path(args.out)
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, out)
    run_ops(cli.main, workload.warmup(), None)
    setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - args.t0

    tally = Tally()
    result = {"setup_s": setup_s}
    if args.trace_rounds:
        from tracer import Tracer

        # each round runs untraced and then traced, so both see the same machine
        tracer, untraced_s, traced_s = Tracer(), 0.0, 0.0
        for slot in range(args.trace_rounds):
            ops, _ = workload.round(slot)
            untraced_s += run_ops(cli.main, ops, tally)
            with tracer:
                traced_s += run_ops(cli.main, ops, tally)
        names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
        overhead = 100.0 * (traced_s / untraced_s - 1)
        result["layers"] = {n: overhead if n == OVERHEAD_METRIC else tracer.metric(n) for n in names}
        result.update(untraced_s=untraced_s, traced_s=traced_s)
    else:
        # the workload's kernel, and the scalar kernel for set-up, which is
        # interpreter and import work; one kernel when they are the same
        kernels = {kind: Reference(kind) for kind in dict.fromkeys((workload.reference, "scalar"))}
        slots = budget_slots(args.budget, args.process, args.processes)
        work, busy_s = timed_rounds(cli.main, workload, slots, tally, *kernels.values())
        result.update(work=work, busy_s=busy_s, reference_s=kernels[workload.reference].samples,
                      setup_reference_s=kernels["scalar"].samples)
    result.update(
        attempted=tally.attempted,
        failed=tally.failed,
        failures=tally.failures,
        problems=tally.problems,
        notes=dict(workload.notes),
        maxrss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
