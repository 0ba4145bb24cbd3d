"""Spans around calls into cdpacct's layers, recorded from the benchmark's side.

`Tracer.install` replaces each traced public function with a wrapper
wherever a cdpacct module binds it, so a call made through
`from .accountant import zcdp_to_dp_refined` is seen as well as one made
through the module.  `OutcomeDist` is traced by wrapping its `__init__`.
A span is (name, start, end, parent); spans stay in memory in flat arrays
and are written out when the run ends.  A layer's self time is its span's
duration minus the durations of its child spans (calls are nested and run
on one thread, so children never overlap).
"""

from __future__ import annotations

import re
import statistics
import subprocess
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

# (layer, module, attribute): the public functions the trace wraps.
TRACED = (
    ("accountant", "accountant", "compose"),
    ("accountant", "accountant", "entry_to_zcdp"),
    ("accountant", "accountant", "eps_for_delta"),
    ("accountant", "accountant", "zcdp_to_dp_refined"),
    ("mechanisms", "mechanisms", "calibrate_sigma_for_dp"),
    ("oracle", "oracle", "delta_exact_gaussian"),
    ("divergence", "divergence", "renyi_divergence"),
    ("divergence", "divergence", "logsumexp"),
    ("divergence", "divergence", "aligned_probs"),
    ("divergence", "divergence", "product"),
    ("divergence", "divergence", "pushforward"),
    ("divergence", "divergence", "mixture"),
    ("divergence", "divergence", "privacy_loss_dist"),
    ("divergence", "divergence", "divergence_from_loss"),
    ("bounds", "bounds", "product_channel"),
    ("bounds", "bounds", "certify_zcdp"),
    ("bounds", "bounds", "mutual_information"),
)
OUTCOME_DIST = "divergence.OutcomeDist"
CLI_MAIN = "cli.main"
CLI_COMMANDS = ("compose", "curve", "calibrate", "convert", "group")

# Reported per operation: self time in ms for each, and the call count for these.
SELF_MS = [f"{layer}.{attr}" for layer, _, attr in TRACED] + [OUTCOME_DIST]
CALLS = (
    "accountant.eps_for_delta",
    "accountant.zcdp_to_dp_refined",
    "mechanisms.calibrate_sigma_for_dp",
    "oracle.delta_exact_gaussian",
    "divergence.renyi_divergence",
    "divergence.logsumexp",
    OUTCOME_DIST,
)
# (metric, child, parent): child calls made directly by each parent call.
PER_PARENT = (
    ("accountant.refined_per_eps_query", "accountant.zcdp_to_dp_refined", "accountant.eps_for_delta"),
    ("mechanisms.refined_per_calibration", "accountant.zcdp_to_dp_refined", "mechanisms.calibrate_sigma_for_dp"),
    ("bounds.renyi_per_certificate", "divergence.renyi_divergence", "bounds.certify_zcdp"),
)
# renyi_divergence calls logsumexp once for each finite order above 1 that
# it evaluates, and for no other order.
FINITE_ORDER = ("divergence.renyi_finite_order.calls", "divergence.logsumexp", "divergence.renyi_divergence")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span named `name`."""
        i = len(self.start)
        self.name.append(self._id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(i)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.start[i] = t0
            self.end[i] = t1

    def wrap(self, name: str, fn):
        """fn inside a span."""
        span = self.span

        def traced(*args, **kwargs):
            return span(name, fn, *args, **kwargs)

        return traced

    def install(self) -> None:
        """Wrap every traced function in every loaded cdpacct module."""
        modules = [m for n, m in sys.modules.items() if n == "cdpacct" or n.startswith("cdpacct.")]
        for layer, module, attr in TRACED:
            original = getattr(sys.modules[f"cdpacct.{module}"], attr)
            wrapped = self.wrap(f"{layer}.{attr}", original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._restore.append((m, key, value))
                        setattr(m, key, wrapped)
        dist = sys.modules["cdpacct.divergence"].OutcomeDist
        self._restore.append((dist, "__init__", dist.__init__))
        dist.__init__ = self.wrap(OUTCOME_DIST, dist.__init__)
        cli = sys.modules.get("cdpacct.cli")
        if cli is not None:
            self._restore.append((cli, "main", cli.main))
            cli.main = self.wrap(CLI_MAIN, cli.main)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._restore):
            setattr(owner, key, value)
        self._restore.clear()

    def per_layer(self, n_ops: int) -> dict[str, float]:
        """Per-operation self times (ms) and counts, and per-command cli times (ms)."""
        n = len(self.start)
        child_time = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child_time[p] += self.end[i] - self.start[i]
        self_s: Counter = Counter()
        calls: Counter = Counter()
        nested: Counter = Counter()
        cli_s: dict[str, list[float]] = {c: [] for c in CLI_COMMANDS}
        main_id = self._ids.get(CLI_MAIN)
        for i in range(n):
            name = self.names[self.name[i]]
            duration = self.end[i] - self.start[i]
            self_s[name] += duration - child_time[i]
            calls[name] += 1
            p = self.parent[i]
            if p >= 0:
                nested[(name, self.names[self.name[p]])] += 1
            if self.name[i] == main_id and p >= 0:
                label = self.names[self.name[p]].removeprefix("op.")
                if label in cli_s:
                    cli_s[label].append(duration)
        metrics = {}
        for name in SELF_MS:
            metrics[f"{name}.self_ms"] = 1e3 * self_s[name] / n_ops
        for name in CALLS:
            metrics[f"{name}.calls"] = calls[name] / n_ops
        metric, child, parent = FINITE_ORDER
        metrics[metric] = nested[(child, parent)] / n_ops
        for metric, child, parent in PER_PARENT:
            metrics[metric] = nested[(child, parent)] / calls[parent] if calls[parent] else 0.0
        for command, durations in cli_s.items():
            metrics[f"cli.{command}_ms"] = 1e3 * statistics.fmean(durations) if durations else 0.0
        return metrics

    def write(self, path: Path) -> None:
        """Write the spans as a compressed .npz: names, and per span name id, parent, start, end."""
        import numpy as np

        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.uint16),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )


_IMPORT_LINE = re.compile(r"import time:\s+\d+ \|\s+(\d+) \|\s*(\S+)$")


def startup(python: str, env: dict, runs: int = 3) -> dict[str, float]:
    """Start-up costs in fresh interpreters, medians over `runs` launches (ms).

    interpreter: wall time of `python -c pass`.  The import figures are the
    cumulative times `-X importtime` reports for `import cdpacct.cli`
    (which imports the package) and, within it, scipy.special and numpy.
    """
    wall, cdpacct, special, numpy = [], [], [], []
    for _ in range(runs):
        t0 = time.perf_counter()
        subprocess.run([python, "-c", "pass"], env=env, check=True)
        wall.append(1e3 * (time.perf_counter() - t0))
        proc = subprocess.run(
            [python, "-X", "importtime", "-c", "import cdpacct.cli"],
            env=env, capture_output=True, text=True, check=True,
        )
        cumulative = {}
        for line in proc.stderr.splitlines():
            m = _IMPORT_LINE.match(line)
            if m:
                cumulative[m.group(2)] = int(m.group(1)) / 1e3
        cdpacct.append(cumulative.get("cdpacct.cli", 0.0))
        special.append(cumulative.get("scipy.special", 0.0))
        numpy.append(cumulative.get("numpy", 0.0))
    return {
        "startup.interpreter_ms": statistics.median(wall),
        "startup.import_cdpacct_ms": statistics.median(cdpacct),
        "startup.import_scipy_special_ms": statistics.median(special),
        "startup.import_numpy_ms": statistics.median(numpy),
    }
