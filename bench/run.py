"""Benchmark entry point: one workload, one seed, one run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout of cdpacct; the package is imported from
its `src/`.  With `--trace 0` one launch runs the timed phase and reports
the end-to-end metrics.  It pauses SETUP_LAUNCHES times, evenly through the
timed phase, and at each pause one more launch only sets up; `setup_s` is
the median of all their set-up times.
With `--trace 1` one launch reports the per-layer metrics.  The last line of
stdout is one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
# Set-up-only launches, spread through the timed phase: the host's slow
# phases last seconds, so set-ups spread over the run vary less than
# set-ups made one after another.
SETUP_LAUNCHES = 8
# Every run, builds included, must end within this many seconds.
DEADLINE_S = 170.0
# One client, one thread: numpy's BLAS would otherwise start a thread per core
# at import, and those threads compete with the worker for the two cores;
# CDP_ACCT_THREADS above 1 would run `cdpacct curve` points on a thread pool.
ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1", "CDP_ACCT_THREADS": "1"}

sys.path.insert(0, str(BENCH))
from worker import PAUSE  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class RunError(Exception):
    pass


def launch(args, mode: str, deadline: float, pauses: list | None = None) -> dict:
    """Run one worker to its end; at each of its pauses, call the next of `pauses`."""
    pauses = list(pauses or [])
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **ONE_THREAD)
    argv = [
        sys.executable, str(BENCH / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--mode", mode, "--segments", str(len(pauses) + 1),
        "--t0", repr(time.monotonic()),
    ]
    # A process group of its own, so that a worker cut off at the deadline
    # is stopped together with anything it started.
    with subprocess.Popen(argv, env=env, cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                          start_new_session=True) as proc:

        def kill():
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

        timer = threading.Timer(max(1.0, deadline - time.monotonic()), kill)
        timer.start()
        try:
            lines = []
            for line in proc.stdout:
                if line.decode().strip() == PAUSE:
                    pauses.pop(0)()
                    proc.stdin.write(b"\n")
                    proc.stdin.flush()
                else:
                    lines.append(line.decode())
            proc.wait()
        except BaseException:
            kill()
            raise
        finally:
            timer.cancel()
    if proc.returncode == -signal.SIGKILL:
        raise RunError(f"{args.workload} worker did not finish in time")
    if proc.returncode != 0 or not lines:
        raise RunError(f"{args.workload} worker exited {proc.returncode}")
    return json.loads(lines[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (ROOT / "src" / "cdpacct" / "__init__.py").is_file():
        print(f"error: no cdpacct sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        setups = []

        def set_up():
            setups.append(launch(args, "setup", deadline)["setup_s"])

        result = launch(args, "run", deadline, [] if args.trace else [set_up] * SETUP_LAUNCHES)
        setups.insert(0, result.pop("setup_s"))
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if not args.trace:
        result["metrics"]["setup_s"]["value"] = statistics.median(setups)
        print("set-up times (s): " + " ".join(f"{t:.4f}" for t in setups), file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
