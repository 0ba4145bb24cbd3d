"""Command-line front end for the accounting engine.

Subcommands
    compose    combine a ledger of mechanisms into one budget
    curve      tabulate a tradeoff curve as CSV
    calibrate  pick a Gaussian noise scale for a target guarantee
    group      scale a budget to groups of k individuals
    convert    translate one privacy guarantee into another
    mi-demo    mutual-information bounds on a product channel
    verify     run a named property suite against the oracles

Exit codes: 0 success, 1 verification failure, 2 usage or schema error,
3 I/O error.  Numeric output uses 12 significant digits in lowercase
scientific notation, so identical inputs give byte-identical files.

main parses a command's argv with that command's parser alone, and a
delta_of_eps curve takes one accountant call for its whole grid.  The
library modules imported below run on first use (see the package
docstring), and json is imported where a ledger or report needs it.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

from . import accountant as acct
from . import bounds, mechanisms
from .accountant import grid_points

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_IO = 3

REPORT_DELTAS = (1e-5, 1e-6, 1e-8)

# sorted(verify.SUITES), listed here so that parsing does not load verify.
VERIFY_SUITES = ("appendix", "conversions", "divergence", "group", "mi", "packing")

# Most points a curve may have: the grid is checked before any is computed.
MAX_GRID_POINTS = 1_000_000


class CliError(Exception):
    """Fatal CLI failure carrying the process exit code."""

    def __init__(self, code: int, message: str) -> None:
        super().__init__(message)
        self.code = code


# 12 significant digits, lowercase scientific notation.
NUMBER_SPEC = ".11e"


def fmt(x: float) -> str:
    return format(x, NUMBER_SPEC)


def finite_float(text: str) -> float:
    """argparse type for numeric flags: inf and nan are refused where they enter."""
    value = float(text)
    if not -math.inf < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise CliError(EXIT_IO, f"cannot write {out_path}: {exc}")


def load_ledger(path: str) -> list[acct.LedgerEntry]:
    import json

    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.read()
    except OSError as exc:
        raise CliError(EXIT_IO, f"cannot read ledger {path}: {exc}")
    except UnicodeDecodeError as exc:
        raise CliError(EXIT_USAGE, f"{path}: ledger is not UTF-8: {exc.reason} at byte {exc.start}")

    def reject_constant(name: str) -> float:
        raise CliError(EXIT_USAGE, f"{path}: ledger numbers must be finite, got {name}")

    try:
        doc = json.loads(raw, parse_constant=reject_constant)
    except json.JSONDecodeError as exc:
        raise CliError(EXIT_USAGE, f"{path}:{exc.lineno}: ledger is not valid JSON: {exc.msg}")
    except RecursionError:
        raise CliError(EXIT_USAGE, f"{path}: ledger is nested too deeply to parse")
    except ValueError:  # an integer literal past the interpreter's digit limit
        raise CliError(EXIT_USAGE, f"{path}: ledger holds an integer literal with too many digits")
    if not isinstance(doc, dict) or "entries" not in doc:
        raise CliError(EXIT_USAGE, f"{path}: ledger must be an object with an 'entries' list")
    items = doc["entries"]
    if not isinstance(items, list):
        raise CliError(EXIT_USAGE, f"{path}: 'entries' must be a list")
    if not items:
        raise CliError(EXIT_USAGE, f"{path}: empty ledger")
    entries = []
    for i, item in enumerate(items):
        if not isinstance(item, dict):
            raise CliError(EXIT_USAGE, f"{path}: entry {i}: must be an object")
        extra = set(item) - {"kind", "params", "label"}
        if extra:
            raise CliError(EXIT_USAGE, f"{path}: entry {i}: unknown keys {sorted(extra)}")
        if "kind" not in item or "params" not in item:
            raise CliError(EXIT_USAGE, f"{path}: entry {i}: needs 'kind' and 'params'")
        if not isinstance(item["params"], dict):
            raise CliError(EXIT_USAGE, f"{path}: entry {i}: 'params' must be an object")
        label = item.get("label", "")
        if not isinstance(label, str):
            raise CliError(EXIT_USAGE, f"{path}: entry {i}: 'label' must be a string")
        try:
            entries.append(acct.LedgerEntry(item["kind"], item["params"], label))
        except (ValueError, TypeError) as exc:
            raise CliError(EXIT_USAGE, f"{path}: entry {i}: {exc}")
    return entries


def _budget_report(params: acct.ZcdpParams, header: str) -> str:
    lines = [
        f"{header} xi={fmt(params.xi)} rho={fmt(params.rho)} delta_approx={fmt(params.delta_approx)}"
    ]
    for delta in REPORT_DELTAS:
        eps = acct.eps_for_delta(params, delta)
        lines.append(f"dp point at delta={fmt(delta)}: eps={fmt(eps)}")
    return "\n".join(lines) + "\n"


def cmd_compose(args: argparse.Namespace) -> int:
    entries = load_ledger(args.ledger)
    composed = acct.compose([acct.entry_to_zcdp(e) for e in entries])
    _emit(_budget_report(composed, f"composed {len(entries)} entries:"), args.out)
    return EXIT_OK


def _parse_grid(spec: str) -> tuple[float, float, int]:
    parts = spec.split(":")
    if len(parts) != 3:
        raise CliError(EXIT_USAGE, f"grid must look like LO:HI:N, got {spec!r}")
    try:
        lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise CliError(EXIT_USAGE, f"grid must look like LO:HI:N, got {spec!r}")
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise CliError(EXIT_USAGE, f"grid needs finite LO < HI, got {spec!r}")
    if not 2 <= n <= MAX_GRID_POINTS:
        raise CliError(EXIT_USAGE, f"grid needs 2 to {MAX_GRID_POINTS} points, got {n}")
    return lo, hi, n


def cmd_curve(args: argparse.Namespace) -> int:
    entries = load_ledger(args.ledger)
    params = acct.compose([acct.entry_to_zcdp(e) for e in entries])
    lo, hi, n = _parse_grid(args.grid)
    if args.target == "eps_of_delta" and not (0.0 < lo and hi < 1.0):
        raise CliError(EXIT_USAGE, "eps_of_delta grid must lie inside (0, 1)")
    if args.target == "delta_of_eps" and lo < 0.0:
        raise CliError(EXIT_USAGE, "delta_of_eps grid must be non-negative")
    xs = grid_points(lo, hi, n)
    if args.target == "delta_of_eps":
        values = acct.delta_of_eps_grid(params, xs, args.method)
    else:
        values = [acct.eps_of_delta(params, x, args.method) for x in xs]
    row = f"{{:{NUMBER_SPEC}}},{{:{NUMBER_SPEC}}},{args.method}".format
    _emit("\n".join(["x,value,method", *map(row, xs, values)]) + "\n", args.out)
    return EXIT_OK


def cmd_calibrate(args: argparse.Namespace) -> int:
    if args.sensitivity is None:
        raise CliError(EXIT_USAGE, "calibrate requires --sensitivity")
    dp_mode = args.eps is not None or args.delta is not None
    if args.rho is not None and dp_mode:
        raise CliError(EXIT_USAGE, "give either --rho or --eps with --delta, not both")
    if args.rho is not None:
        sigma = mechanisms.calibrate_sigma_for_rho(args.sensitivity, args.rho)
        achieved = mechanisms.gaussian_rho(mechanisms.GaussianMech(args.sensitivity, sigma))
        text = f"sigma={fmt(sigma)}\nrho={fmt(achieved)} (target {fmt(args.rho)})\n"
    elif args.eps is not None and args.delta is not None:
        sigma = mechanisms.calibrate_sigma_for_dp(args.sensitivity, args.eps, args.delta)
        achieved = mechanisms.gaussian_rho(mechanisms.GaussianMech(args.sensitivity, sigma))
        delta_at = acct.zcdp_to_dp_refined(acct.ZcdpParams(0.0, achieved), args.eps)
        text = (
            f"sigma={fmt(sigma)}\n"
            f"rho={fmt(achieved)}\n"
            f"delta at eps={fmt(args.eps)}: {fmt(delta_at)} (target {fmt(args.delta)})\n"
        )
    else:
        raise CliError(EXIT_USAGE, "calibrate needs --rho, or --eps together with --delta")
    _emit(text, args.out)
    return EXIT_OK


def cmd_group(args: argparse.Namespace) -> int:
    if args.k is None or args.k < 1:
        raise CliError(EXIT_USAGE, "group requires --k >= 1")
    if args.ledger is not None:
        entries = load_ledger(args.ledger)
        params = acct.compose([acct.entry_to_zcdp(e) for e in entries])
    elif args.rho is not None:
        params = acct.ZcdpParams(0.0, args.rho)
    else:
        raise CliError(EXIT_USAGE, "group needs --ledger or --rho")
    scaled = acct.group_privacy(params, args.k)
    _emit(_budget_report(scaled, f"group of {args.k}:"), args.out)
    return EXIT_OK


def cmd_convert(args: argparse.Namespace) -> int:
    have = (args.eps is not None, args.delta is not None, args.rho is not None)
    lines = []
    if have == (True, False, False):
        linear, quadratic = acct.pure_dp_to_zcdp(args.eps)
        lines.append(f"pure dp eps={fmt(args.eps)}")
        lines.append(f"zcdp (linear form): xi={fmt(linear.xi)} rho={fmt(linear.rho)}")
        lines.append(f"zcdp (quadratic form): xi={fmt(quadratic.xi)} rho={fmt(quadratic.rho)}")
    elif have == (True, True, False):
        pt = acct.DpPoint(args.eps, args.delta)
        quad = acct.dp_to_approx_zcdp(pt)
        lin = acct.dp_to_approx_zcdp_maxdiv(pt)
        lines.append(f"approx dp eps={fmt(pt.eps)} delta={fmt(pt.delta)}")
        lines.append(
            f"approx zcdp (quadratic form): xi={fmt(quad.xi)} rho={fmt(quad.rho)}"
            f" delta_approx={fmt(quad.delta_approx)}"
        )
        lines.append(
            f"approx zcdp (linear form): xi={fmt(lin.xi)} rho={fmt(lin.rho)}"
            f" delta_approx={fmt(lin.delta_approx)}"
        )
    elif have == (False, True, True):
        params = acct.ZcdpParams(0.0, args.rho)
        simple = acct.zcdp_to_dp_simple(params, args.delta)
        refined_eps = acct.eps_for_delta(params, args.delta)
        lines.append(f"zcdp rho={fmt(args.rho)} at delta={fmt(args.delta)}")
        lines.append(f"eps (simple): {fmt(simple.eps)}")
        lines.append(f"eps (refined): {fmt(refined_eps)}")
    elif have == (True, False, True):
        params = acct.ZcdpParams(0.0, args.rho)
        refined = acct.delta_of_eps(params, args.eps, "refined")
        implied = acct.delta_of_eps(params, args.eps, "simple")
        lines.append(f"zcdp rho={fmt(args.rho)} at eps={fmt(args.eps)}")
        lines.append(f"delta (refined): {fmt(refined)}")
        lines.append(f"delta (simple): {fmt(implied)}")
    else:
        raise CliError(
            EXIT_USAGE,
            "convert needs --eps, or --eps with --delta, or --rho with --delta or --eps",
        )
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_mi_demo(args: argparse.Namespace) -> int:
    eps, n = args.eps, args.k
    if not 1 <= n <= 8:
        raise CliError(EXIT_USAGE, "mi-demo supports --k between 1 and 8")
    if eps <= 0.0:
        raise CliError(EXIT_USAGE, "mi-demo needs --eps > 0")
    channel = bounds.rr_product_channel(eps, n)
    params = acct.pure_dp_to_zcdp(eps)[1]
    lines = [f"randomized response per-bit eps={fmt(eps)}, n={n} bits, rho={fmt(params.rho)}"]
    ok = True
    for prior, mi, bound in bounds.prior_mi_rows(channel, params, n):
        verdict = "ok" if mi <= bound else "VIOLATED"
        ok = ok and mi <= bound
        lines.append(f"{prior} prior: mi={fmt(mi)} bound={fmt(bound)} {verdict}")
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK if ok else EXIT_VERIFY


def _json_number(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        return '"' + fmt(x) + '"'
    return fmt(x)


def _verify_report(suite: str, cases: list) -> str:
    import json

    rows = []
    for c in cases:
        rows.append(
            "    {"
            + f'"name": {json.dumps(c.name)}, '
            + f'"pass": {"true" if c.ok else "false"}, '
            + f'"lhs": {_json_number(c.lhs)}, '
            + f'"rhs": {_json_number(c.rhs)}'
            + "}"
        )
    body = ",\n".join(rows)
    return (
        "{\n"
        + f'  "suite": {json.dumps(suite)},\n'
        + '  "cases": [\n'
        + body
        + "\n  ]\n}\n"
    )


def cmd_verify(args: argparse.Namespace) -> int:
    from .verify import run_suite

    cases = run_suite(args.suite, args.seed)
    width = max(len(c.name) for c in cases)
    table = []
    for c in cases:
        badge = "PASS" if c.ok else "FAIL"
        table.append(f"{badge} {c.name:<{width}} lhs={fmt(c.lhs)} rhs={fmt(c.rhs)}")
    sys.stdout.write("\n".join(table) + "\n")
    report = _verify_report(args.suite, cases)
    if args.out is not None:
        _emit(report, args.out)
    else:
        sys.stdout.write(report)
    return EXIT_OK if all(c.ok for c in cases) else EXIT_VERIFY


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors are one stderr line; subparsers inherit it.

    argparse quotes most offending arguments with repr, but not unrecognized
    ones, so newlines in the message are escaped.
    """

    commands: dict[str, argparse.ArgumentParser]  # set on the top-level parser by build_parser

    def error(self, message: str):
        message = message.replace("\n", "\\n")
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


@functools.cache
def build_parser() -> _Parser:
    """The cdpacct parser, built once per process: parse_args leaves it unchanged.

    Its commands dict maps each command name to the subparser that parses
    the rest of that command's argv.
    """
    parser = _Parser(
        prog="cdpacct",
        description="Concentrated differential privacy accounting.",
    )
    parser.commands = {}
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, fn, help: str, *numbers: str) -> argparse.ArgumentParser:
        p = parser.commands[name] = sub.add_parser(name, help=help)
        p.set_defaults(fn=fn)
        for number in numbers:
            p.add_argument(f"--{number}", type=finite_float)
        p.add_argument("--out", help="write output here instead of stdout")
        return p

    ledger_help = "path to a JSON ledger"
    p = command("compose", cmd_compose, "compose a ledger into one budget")
    p.add_argument("--ledger", required=True, help=ledger_help)

    p = command("curve", cmd_curve, "tabulate a tradeoff curve as CSV")
    p.add_argument(
        "target",
        nargs="?",
        choices=("delta_of_eps", "eps_of_delta"),
        default="delta_of_eps",
    )
    p.add_argument("--ledger", required=True, help=ledger_help)
    p.add_argument("--method", choices=acct.CURVE_METHODS, default="refined")
    p.add_argument("--grid", default="0.5:5.0:10", help="LO:HI:N")

    numbers = ("sensitivity", "rho", "eps", "delta")
    command("calibrate", cmd_calibrate, "pick a Gaussian noise scale", *numbers)

    p = command("group", cmd_group, "scale a budget to groups of k", "rho")
    p.add_argument("--ledger", help=ledger_help)
    p.add_argument("--k", type=int)

    command("convert", cmd_convert, "translate between privacy notions", "eps", "delta", "rho")

    p = command("mi-demo", cmd_mi_demo, "mutual-information bounds on a product channel")
    p.add_argument("--eps", type=finite_float, default=0.8)
    p.add_argument("--k", type=int, default=3)

    p = command("verify", cmd_verify, "run a named property suite")
    p.add_argument("suite", choices=VERIFY_SUITES)
    p.add_argument("--seed", type=int, default=20240801)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command and return its exit code; argparse exits itself on -h and usage errors.

    An argv that starts with a command name is parsed by that command's
    parser alone; arguments it does not take are the top-level parser's
    error, as with the full parser, which parses any other argv.
    """
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    command = parser.commands.get(argv[0]) if argv else None
    if command is None:
        args = parser.parse_args(argv)
    else:
        args, extras = command.parse_known_args(argv[1:])
        if extras:
            parser.error(f"unrecognized arguments: {' '.join(extras)}")
    try:
        return args.fn(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ArithmeticError as exc:
        # Overflow or division by zero: the arguments lie outside what
        # floating point can represent along the way.
        name = type(exc).__name__
        print(f"error: arguments outside floating-point range ({name})", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
