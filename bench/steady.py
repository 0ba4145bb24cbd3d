"""Run every workload N times, each run with its own seed, and judge the spread.

    python3 bench/steady.py [--runs 10] [--seed0 1] [--workload NAME ...]

For every end-to-end metric in BENCHMARK.json it prints the median, the
quartiles (statistics.quantiles, n=4) and the spread (q3 - q1) / median,
and whether that spread fits within the metric's bound.  It also checks
that every run was correct and that the share of failed operations was the
same in every run.  With --runs 1 it runs each workload once and prints
its figures.  The raw results go to bench/results/steady-*.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1, help="first seed; run i uses seed0 + i")
    ap.add_argument("--workload", action="append", choices=names, help="default: every workload")
    args = ap.parse_args()

    results_dir = BENCH / "results"
    results_dir.mkdir(exist_ok=True)
    all_ok = True
    for workload in args.workload or names:
        runs = []
        for i in range(args.runs):
            seed = args.seed0 + i
            t0 = time.monotonic()
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True,
            )
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            result["seed"], result["wall_s"] = seed, time.monotonic() - t0
            runs.append(result)
            print(f"{workload} seed {seed}: {result['wall_s']:.1f} s, attempted {result['attempted']}, "
                  f"failed {result['failed']}, correct {result['correct']}", flush=True)
        out = results_dir / f"steady-{workload}-seed{args.seed0}-n{args.runs}.json"
        out.write_text(json.dumps(runs, indent=1))
        shares = {r["failed"] / r["attempted"] for r in runs}
        ok = all(r["correct"] for r in runs) and len(shares) == 1
        print(f"{workload}: every run correct: {all(r['correct'] for r in runs)}; "
              f"failed shares {sorted(shares)}")
        print(f"  {'metric':<14}{'unit':<6}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}{'bound':>7}")
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            head = f"  {metric['name']:<14}{metric['unit']:<6}"
            if len(values) < 2:
                print(f"{head}{values[0]:>12.5g}")
                continue
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            fits = spread <= metric["bound"]
            ok = ok and fits
            print(f"{head}{med:>12.5g}{q1:>12.5g}{q3:>12.5g}{spread:>9.4f}{metric['bound']:>7}  "
                  f"{'ok' if fits else 'WIDE'}")
        all_ok = all_ok and ok
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
