"""One workload in one fresh process: set up, run whole cycles, check, report.

Started by run.py, which passes the moment it launched this process
(`--t0`, time.monotonic, a system-wide clock).  In `--mode setup` the
worker stops once it is ready for its first timed operation and reports
only its set-up time.  With `--segments K` the untraced run splits its timed
phase into K equal segments; between two segments it prints PAUSE and waits
for a line on stdin.  Prints one JSON object as its last line.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
RESULTS = Path(__file__).resolve().parent / "results"
PAUSE = "pause"
MAX_PROBLEMS = 20


class Phase:
    """Repeats the cycle whole until `seconds` have passed.

    Keeps every operation's wall times and the first output of each
    operation, which later repetitions must equal, and the phase's wall
    time and garbage-collector passes.
    """

    def __init__(self, ops, first: list) -> None:
        self.ops = ops
        self.first = first
        self.times: list[list[float]] = [[] for _ in ops]
        self.cycles = 0
        self.changed = 0
        self.elapsed = 0.0
        self.gc_passes = 0

    def run(self, seconds: float, call=None) -> None:
        gc.collect()
        gc_before = sum(g["collections"] for g in gc.get_stats())
        start = time.perf_counter()
        while True:
            for i, op in enumerate(self.ops):
                t0 = time.perf_counter()
                out = op.run() if call is None else call(op)
                self.times[i].append(time.perf_counter() - t0)
                if self.first[i] is None:
                    self.first[i] = out
                elif out != self.first[i]:
                    self.changed += 1
            self.cycles += 1
            if time.perf_counter() - start >= seconds:
                break
        self.elapsed += time.perf_counter() - start
        self.gc_passes += sum(g["collections"] for g in gc.get_stats()) - gc_before

    @property
    def attempted(self) -> int:
        return self.cycles * len(self.ops)

    @property
    def best_ms(self) -> list[float]:
        """Each operation's fastest repetition, in ms."""
        return [1e3 * min(t) for t in self.times]

    @property
    def ops_per_s(self) -> float:
        """Operations per second of one cycle, each operation at its fastest repetition."""
        return 1e3 * len(self.ops) / sum(self.best_ms)


def judge(workload, phases) -> tuple[bool, int, list[str]]:
    """(correct, failed, problems) over every operation of every phase."""
    problems = list(workload.final_checks())
    failed_per_cycle = 0
    for op, out in zip(workload.ops, phases[0].first):
        failed, found = op.judge(out)
        failed_per_cycle += failed
        problems += [f"{op.label}: {p}" for p in found]
    for phase in phases:
        if phase.changed:
            problems.append(f"{phase.changed} repeated operations gave a different output")
    cycles = sum(p.cycles for p in phases)
    return not problems, cycles * failed_per_cycle, problems


def end_to_end(phase: Phase, setup_s: float) -> dict:
    best_ms = phase.best_ms
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "ops_per_s": {"value": phase.ops_per_s, "unit": "1/s"},
        "op_p50_ms": {"value": statistics.median(best_ms), "unit": "ms"},
        "op_p90_ms": {"value": statistics.quantiles(best_ms, n=10, method="inclusive")[-1], "unit": "ms"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--mode", choices=("setup", "run"), default="run")
    ap.add_argument("--segments", type=int, default=1)
    ap.add_argument("--t0", type=float, required=True)
    args = ap.parse_args()

    import cdpacct

    if Path(cdpacct.__file__).resolve().parent != ROOT / "src" / "cdpacct":
        print(f"error: imported cdpacct from {cdpacct.__file__}, not from this checkout", file=sys.stderr)
        return 2
    RESULTS.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RESULTS))
    try:
        workload = workloads.build(args.workload, args.seed, workdir)
        workload.ops[0].run()  # warm-up: lazy imports and first-call set-up
        setup_s = time.monotonic() - args.t0
        if args.mode == "setup":
            print(json.dumps({"setup_s": setup_s}))
            return 0
        first = [None] * len(workload.ops)
        if args.trace:
            import tracing

            plain = Phase(workload.ops, first)
            plain.run(args.seconds / 2)
            tracer = tracing.Tracer()
            traced = Phase(workload.ops, first)
            tracer.install()
            try:
                traced.run(args.seconds / 2, call=lambda op: tracer.span(f"op.{op.label}", op.run))
            finally:
                tracer.uninstall()
            phases = [plain, traced]
            metrics = tracer.per_layer(traced.attempted)
            metrics["run.wall_ops_per_s"] = plain.attempted / plain.elapsed
            metrics["run.gc_passes"] = plain.gc_passes / plain.attempted
            metrics.update(tracing.startup(sys.executable, dict(os.environ)))
            metrics["trace.overhead_pct"] = 100.0 * (plain.ops_per_s / traced.ops_per_s - 1.0)
            tracer.write(RESULTS / f"trace-{args.workload}-seed{args.seed}.npz")
            suffixes = (("_pct", "%"), ("_ms", "ms"), ("_per_s", "1/s"))
            units = {name: next((u for end, u in suffixes if name.endswith(end)), "count") for name in metrics}
            metrics = {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}
        else:
            phase = Phase(workload.ops, first)
            for k in range(args.segments):
                if k:
                    print(PAUSE, flush=True)
                    if not sys.stdin.readline():
                        return 1
                phase.run(args.seconds / args.segments)
            phases = [phase]
            metrics = end_to_end(phase, setup_s)
        correct, failed, problems = judge(workload, phases)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for p in problems[:MAX_PROBLEMS]:
        print(f"check failed: {p}", file=sys.stderr)
    result = {
        "correct": correct,
        "attempted": sum(p.attempted for p in phases),
        "failed": failed,
        "metrics": metrics,
        "setup_s": setup_s,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
