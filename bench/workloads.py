"""The four workloads: seeded inputs, one cycle of operations, and a judge per operation.

A workload is a list of `Op`s, the cycle.  A run repeats the cycle whole,
so every run performs the same operations in the same order and the share
of failed operations is the same in every run.  Inputs come from
`random.Random(seed)` alone; the program only sees the generated values.

cdpacct is imported by `build`, never at module import, so the checkers
and the input generators can be loaded without it.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import random
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

WORKLOADS = ("cli_desk", "budget_queries", "certify_channels", "renyi_calculus")

# The one command kept although it fails today: zcdp_to_dp_refined overflows
# inside eps_for_delta's doubling loop, and the command exits 1 with a traceback.
OVERFLOW_ARGV = ("convert", "--rho", "1e300", "--delta", "1e-6")

CURVE_POINTS = 200
APPROX_POINTS = 64
BUDGET_INSTANCES = 100
CERTIFY_BITS = 5
CERTIFY_CHANNELS = 2
CALCULUS_SIZES = (2, 3, 4, 5, 6)
CALCULUS_INSTANCES = 50


@dataclass
class Op:
    """One operation of the cycle.

    `run` is the timed call and returns the output to check; outputs of
    repeated operations are compared for equality.  `judge` maps an output
    to (failed, problems): a failed operation is counted in `failed`, and
    any problem makes the run incorrect.
    """

    label: str
    run: Callable[[], object]
    judge: Callable[[object], tuple[bool, list[str]]]


@dataclass
class Workload:
    name: str
    ops: list[Op]
    # Untimed checks made once per run, after the timed phase.
    final_checks: Callable[[], list[str]] = field(default=lambda: [])


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def ledger_entries(rng: random.Random, per_kind: int) -> list[tuple[str, dict]]:
    """A shuffled mix of every entry kind, `per_kind` entries of each."""
    entries = []
    for _ in range(per_kind):
        entries.append(("gaussian", {"sensitivity": rng.uniform(0.5, 2.0), "sigma": rng.uniform(4.0, 12.0)}))
        entries.append(("pure_dp", {"eps": rng.uniform(0.02, 0.2)}))
        entries.append(("approx_dp", {"eps": rng.uniform(0.02, 0.2), "delta": _log_uniform(rng, 1e-12, 1e-10)}))
        entries.append(
            ("zcdp", {"xi": rng.uniform(0.0, 0.01), "rho": rng.uniform(0.001, 0.02), "delta": _log_uniform(rng, 1e-13, 1e-11)})
        )
        tau = rng.uniform(0.05, 0.2)
        entries.append(("mcdp", {"mu": 0.5 * tau**2 + rng.uniform(0.001, 0.01), "tau": tau}))
    rng.shuffle(entries)
    return entries


def gaussian_entries(rng: random.Random, n: int) -> list[tuple[str, dict]]:
    return [("gaussian", {"sensitivity": rng.uniform(0.5, 2.0), "sigma": rng.uniform(2.0, 8.0)}) for _ in range(n)]


def curve_high(xi: float, rho: float) -> float:
    """Right end of a delta(eps) grid: far enough that the simple delta falls to about 1e-12."""
    return xi + rho + 2.0 * math.sqrt(rho * math.log(1e12))


def build(name: str, seed: int, workdir: Path) -> Workload:
    by_name = {
        "cli_desk": _cli_desk,
        "budget_queries": _budget_queries,
        "certify_channels": _certify_channels,
        "renyi_calculus": _renyi_calculus,
    }
    return by_name[name](random.Random(seed), workdir)


# -------------------------------------------------------------------- cli_desk


def in_process_runner(main: Callable[[list[str]], int]) -> Callable[[list[str]], tuple[int, bytes, bytes]]:
    """Call `cli.main(argv)` with stdout and stderr captured; an escaping exception exits 1."""

    def run(argv: list[str]) -> tuple[int, bytes, bytes]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception as exc:  # the interpreter would print a traceback and exit 1
                # Without the stack, whose frames differ when the trace wraps functions.
                err.write("Traceback (most recent call last):\n")
                err.write("".join(traceback.format_exception_only(exc)))
                code = 1
        return code, out.getvalue().encode(), err.getvalue().encode()

    return run


def _command_judge(check: Callable[[bytes], list[str]]) -> Callable[[object], tuple[bool, list[str]]]:
    def judge(result) -> tuple[bool, list[str]]:
        code, stdout, stderr = result
        if code != 0:
            tail = stderr.decode("utf-8", "replace").strip().splitlines()[-1:]
            return True, [f"exit {code}: {tail}"]
        return False, check(stdout)

    return judge


def _overflow_judge(result) -> tuple[bool, list[str]]:
    """Pass on exit 0 with sound eps values, or on exit 2 with a one-line message."""
    import checks

    code, stdout, stderr = result
    if code == 0:
        return False, checks.check_convert_rho_delta(stdout, 1e300, 1e-6)
    return not checks.is_usage_error(code, stderr), []


def _fmt(x: float) -> str:
    return repr(float(x))


def _cli_desk(rng: random.Random, workdir: Path) -> Workload:
    import checks

    mixed = ledger_entries(rng, 4)
    gauss = gaussian_entries(rng, 5)
    paths = {}
    for tag, entries in (("mixed", mixed), ("gauss", gauss)):
        path = workdir / f"{tag}.json"
        doc = {"entries": [{"kind": k, "params": p, "label": f"{tag}{i}"} for i, (k, p) in enumerate(entries)]}
        path.write_text(json.dumps(doc), encoding="utf-8")
        paths[tag] = str(path)
    mixed_grid = (0.0, curve_high(*checks.budget_sums(mixed)), CURVE_POINTS)
    gauss_grid = (0.0, curve_high(*checks.budget_sums(gauss)), CURVE_POINTS)

    cal_rho = (rng.uniform(0.5, 2.0), rng.uniform(0.05, 1.0))
    cal_dp = (rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0), _log_uniform(rng, 1e-8, 1e-5))
    pure_eps = rng.uniform(0.1, 2.0)
    approx = (rng.uniform(0.1, 2.0), _log_uniform(rng, 1e-8, 1e-5))
    rho_delta = (rng.uniform(0.05, 2.0), _log_uniform(rng, 1e-8, 1e-5))
    rho_eps_rho = rng.uniform(0.05, 1.0)
    rho_eps = (rho_eps_rho, rho_eps_rho + rng.uniform(0.5, 3.0) * math.sqrt(rho_eps_rho))
    group = (rng.uniform(0.01, 0.5), rng.randint(2, 8))

    def grid_arg(grid):
        return f"{_fmt(grid[0])}:{_fmt(grid[1])}:{grid[2]}"

    commands = [
        ("compose", ["compose", "--ledger", paths["mixed"]],
         lambda out: checks.check_budget_report(
             out, f"composed {len(mixed)} entries:", *checks.composed_budget(mixed), len(mixed))),
    ]
    for method, tag, grid, entries in (
        ("refined", "mixed", mixed_grid, mixed),
        ("simple", "mixed", mixed_grid, mixed),
        ("exact_gaussian", "gauss", gauss_grid, gauss),
    ):
        commands.append((
            "curve",
            ["curve", "delta_of_eps", "--ledger", paths[tag], "--grid", grid_arg(grid), "--method", method],
            lambda out, g=grid, m=method, e=entries: checks.check_curve_csv(
                out, g, m, checks.composed_budget(e), len(e)),
        ))
    s, r = cal_rho
    commands.append(("calibrate", ["calibrate", "--sensitivity", _fmt(s), "--rho", _fmt(r)],
                     lambda out: checks.check_calibrate_rho(out, *cal_rho)))
    s, e, d = cal_dp
    commands.append(("calibrate", ["calibrate", "--sensitivity", _fmt(s), "--eps", _fmt(e), "--delta", _fmt(d)],
                     lambda out: checks.check_calibrate_dp(out, *cal_dp)))
    commands.append(("convert", ["convert", "--eps", _fmt(pure_eps)],
                     lambda out: checks.check_convert_pure(out, pure_eps)))
    commands.append(("convert", ["convert", "--eps", _fmt(approx[0]), "--delta", _fmt(approx[1])],
                     lambda out: checks.check_convert_approx(out, *approx)))
    commands.append(("convert", ["convert", "--rho", _fmt(rho_delta[0]), "--delta", _fmt(rho_delta[1])],
                     lambda out: checks.check_convert_rho_delta(out, *rho_delta)))
    commands.append(("convert", ["convert", "--rho", _fmt(rho_eps[0]), "--eps", _fmt(rho_eps[1])],
                     lambda out: checks.check_convert_rho_eps(out, *rho_eps)))
    g_rho, g_k = group
    commands.append(("group", ["group", "--rho", _fmt(g_rho), "--k", str(g_k)],
                     lambda out: checks.check_budget_report(out, f"group of {g_k}:", 0.0, g_rho * g_k * g_k, 0.0, 1)))

    from cdpacct import cli

    # Looked up on every call, so that a traced run sees the wrapped cli.main.
    runner = in_process_runner(lambda argv: cli.main(argv))
    ops = [Op(label, lambda a=argv: runner(a), _command_judge(check)) for label, argv, check in commands]
    ops.append(Op("convert", lambda: runner(list(OVERFLOW_ARGV)), _overflow_judge))
    return Workload("cli_desk", ops)


# -------------------------------------------------------------- budget_queries


def _budget_queries(rng: random.Random, workdir: Path) -> Workload:
    import checks
    from cdpacct import accountant as acct
    from cdpacct import mechanisms, oracle

    deltas = checks.REPORT_DELTAS

    def make_op(entries, target) -> Op:
        """One accountant report for one ledger."""
        xi, rho = checks.budget_sums(entries)
        width = curve_high(xi, rho) - xi - rho
        # Half-step offsets keep every point strictly above xi + rho.
        xs = tuple(xi + rho + width * (k + 0.5) / APPROX_POINTS for k in range(APPROX_POINTS))
        shifted = tuple(x - xi for x in xs)

        def run():
            ledger = [acct.LedgerEntry(kind, params) for kind, params in entries]
            budget = acct.compose([acct.entry_to_zcdp(e) for e in ledger])
            eps = tuple(acct.eps_for_delta(budget, d) for d in deltas)
            sigma = mechanisms.calibrate_sigma_for_dp(1.0, *target)
            approx = tuple(acct.approx_zcdp_to_dp(budget, x).delta for x in xs)
            exact = tuple(oracle.delta_exact_gaussian(budget.rho, x) for x in shifted)
            return (budget.xi, budget.rho, budget.delta_approx), eps, sigma, approx, exact

        def judge(out):
            (got_xi, got_rho, got_da), eps, sigma, approx, exact = out
            want_xi, want_rho, want_da = checks.composed_budget(entries)
            problems = []
            if not (checks.close(got_xi, want_xi, 1e-12) and checks.close(got_rho, want_rho, 1e-12)):
                problems.append(f"composed (xi, rho)=({got_xi!r}, {got_rho!r}), expected ({want_xi!r}, {want_rho!r})")
            slack = checks.delta_tolerance(len(entries), want_da)
            if abs(got_da - want_da) > slack:
                problems.append(f"composed delta={got_da!r}, expected {want_da!r}")
            for d, e in zip(deltas, eps):
                problems += checks.check_eps(want_xi, want_rho, want_da, d, e)
            problems += checks.check_calibration(1.0, *target, sigma)
            problems += checks.check_delta_curve(want_xi, want_rho, want_da, xs, approx, "refined", slack)
            problems += checks.check_delta_curve(0.0, want_rho, 0.0, shifted, exact, "exact_gaussian")
            return False, problems

        return Op("budget", run, judge)

    ops = []
    for _ in range(BUDGET_INSTANCES):
        entries = ledger_entries(rng, 4)
        target = (rng.uniform(0.5, 2.0), _log_uniform(rng, 1e-8, 1e-5))
        ops.append(make_op(entries, target))
    return Workload("budget_queries", ops)


# ------------------------------------------------------------ certify_channels


def _certify_channels(rng: random.Random, workdir: Path) -> Workload:
    import checks
    from cdpacct import accountant as acct
    from cdpacct import bounds, mechanisms
    from cdpacct.divergence import ALPHA_GRID, OutcomeDist

    n = CERTIFY_BITS

    def channel_of(eps, bits):
        plus, minus = mechanisms.randomized_response(eps)
        bit = bounds.FiniteChannel((1, -1), {1: plus, -1: minus})
        return bounds.product_channel([bit] * bits)

    def build_op(eps) -> Op:
        def judge(channel):
            return False, [
                f"p({y} | {x}) = {got!r}, closed form {checks.rr_product_prob(eps, x, y)!r}"
                for x in channel.inputs
                for y, got in zip(channel.conditionals[x].outcomes, channel.conditionals[x].probs)
                if not checks.close(got, checks.rr_product_prob(eps, x, y), 1e-13)
            ]

        return Op("channel", lambda: channel_of(eps, n), judge)

    def certify_op(channel, eps, pair) -> Op:
        params = acct.ZcdpParams(0.0, 0.5 * eps * eps)

        def judge(ok):
            return False, [] if ok is True else [f"certify_zcdp rejected rho=eps^2/2 on {pair} at eps={eps!r}"]

        return Op("certify", lambda: bounds.certify_zcdp(channel, params, adjacency=[pair]), judge)

    def mi_op(channel, eps, prior, closed_form, name) -> Op:
        def judge(got):
            want = closed_form(eps, n)
            return False, [] if checks.close(got, want, 1e-12) else [
                f"MI under the {name} prior {got!r}, closed form {want!r} at eps={eps!r}"
            ]

        return Op("mi", lambda: bounds.mutual_information(prior, channel), judge)

    eps_values = [rng.uniform(0.2, 2.0) for _ in range(CERTIFY_CHANNELS)]
    ops = []
    for eps in eps_values:
        channel = channel_of(eps, n)
        neighbours = [
            (a, b) for a, b in itertools.combinations(channel.inputs, 2)
            if sum(u != v for u, v in zip(a, b)) == 1
        ]
        ops.append(build_op(eps))
        ops += [certify_op(channel, eps, pair) for pair in neighbours]
        uniform = OutcomeDist.uniform(channel.inputs)
        correlated = OutcomeDist(((1,) * n, (-1,) * n), (0.5, 0.5))
        ops.append(mi_op(channel, eps, uniform, checks.mi_uniform, "uniform"))
        ops.append(mi_op(channel, eps, correlated, checks.mi_correlated, "correlated"))

    def below_minimum() -> list[str]:
        # One bit, certified just below its closed-form minimum rho: must be refused.
        eps = eps_values[0]
        rho_min = checks.rr_min_rho(eps, ALPHA_GRID)
        if bounds.certify_zcdp(channel_of(eps, 1), acct.ZcdpParams(0.0, 0.99 * rho_min)):
            return [f"certify_zcdp accepted rho={0.99 * rho_min!r} below the minimum {rho_min!r}"]
        return []

    return Workload("certify_channels", ops, below_minimum)


# -------------------------------------------------------------- renyi_calculus


def _weights(rng: random.Random, size: int) -> tuple[float, ...]:
    w = [rng.random() + 0.05 for _ in range(size)]
    total = math.fsum(w)
    return tuple(x / total for x in w)


def _renyi_calculus(rng: random.Random, workdir: Path) -> Workload:
    import checks
    from cdpacct import divergence as dv

    grid = dv.ALPHA_GRID

    def instance_ops(labels, p, q, p2, q2, fn, t) -> list[Op]:
        """One operation per quantity of `checks.check_calculus`, each on the order grid."""

        def pairs():
            return (dv.OutcomeDist(labels, p), dv.OutcomeDist(labels, q),
                    dv.OutcomeDist(labels, p2), dv.OutcomeDist(labels, q2))

        def over_grid(d, a, b):
            return tuple(d(a, b, order) for order in grid)

        def base():
            dp, dq, _, _ = pairs()
            return over_grid(dv.renyi_divergence, dp, dq)

        def other():
            _, _, dp2, dq2 = pairs()
            return over_grid(dv.renyi_divergence, dp2, dq2)

        def product():
            dp, dq, dp2, dq2 = pairs()
            return over_grid(dv.renyi_divergence, dv.product(dp, dp2), dv.product(dq, dq2))

        def pushforward():
            dp, dq, _, _ = pairs()
            return over_grid(dv.renyi_divergence, dv.pushforward(dp, fn), dv.pushforward(dq, fn))

        def mixture():
            dp, dq, dp2, dq2 = pairs()
            return over_grid(dv.renyi_divergence, dv.mixture(dp, dp2, t), dv.mixture(dq, dq2, t))

        def moment():
            dp, dq, _, _ = pairs()
            loss = dv.privacy_loss_dist(dp, dq)
            return tuple(dv.divergence_from_loss(loss, order) for order in grid)

        parts = (base, other, product, pushforward, mixture, moment)
        # Each part's judge records its values.  Once every part of the
        # instance has been seen, the calculus is checked on the latest ones.
        seen: dict[str, tuple] = {}

        def make_judge(key):
            def judge(values):
                seen[key] = values
                problems = []
                if key == "base":
                    for a, got in zip(grid, values):
                        want = checks.renyi_mp(p, q, a)
                        if not checks.close(got, want, 1e-9, 1e-12):
                            problems.append(f"D_{a}(p||q) on {len(labels)} outcomes = {got!r}, mpmath {want!r}")
                if len(seen) == len(parts):
                    problems += checks.check_calculus(seen)
                return False, problems

            return judge

        return [Op(f"calculus.{part.__name__}", part, make_judge(part.__name__)) for part in parts]

    ops = []
    for i in range(CALCULUS_INSTANCES):
        # Every size equally often, so that each run has the same mix of costs.
        size = CALCULUS_SIZES[i % len(CALCULUS_SIZES)]
        labels = tuple(range(size))
        p, q, p2, q2 = (_weights(rng, size) for _ in range(4))
        fn = {y: rng.randrange(max(2, size - 1)) for y in labels}
        ops += instance_ops(labels, p, q, p2, q2, fn, rng.random())
    return Workload("renyi_calculus", ops)
