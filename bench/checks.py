"""Checks on cdpacct's answers, computed apart from cdpacct.

Nothing here imports cdpacct.  Each expected value is a closed form summed
with math.fsum, an mpmath evaluation at 40 digits, or a property the method
must have (a bound it must respect, monotonicity, the Renyi calculus).
Every checker returns a list of problems; an empty list means the output
passed.  mpmath is imported where it is used, so that building a
workload's inputs does not pay for it.
"""

from __future__ import annotations

import functools
import math
import re

DPS = 40

# The deltas at which compose and group print an eps.
REPORT_DELTAS = (1e-5, 1e-6, 1e-8)

# Numbers are printed with 12 significant digits, so a printed value is
# within 5e-12 of the float it stands for.
PRINTED = 1e-11

# A bisection in cdpacct stops once its bracket is 1e-10 wide.
BISECTION_ABS = 2e-10

# The tolerances of `cdpacct verify divergence`.
CALCULUS_TOL = {
    "monotonicity": 1e-10,
    "additivity": 1e-9,
    "data_processing": 1e-10,
    "quasi_convexity": 1e-10,
    "moment_identity": 1e-10,
}

_NUMBER = re.compile(r"([a-z_]+)=([-+0-9.einf]+)")


# ---------------------------------------------------------------- closed forms


def entry_budget(kind: str, params: dict) -> tuple[float, float, float]:
    """(xi, rho, delta) of one ledger entry, from the paper's conversions."""
    p = params
    if kind == "gaussian":
        return 0.0, p["sensitivity"] ** 2 / (2.0 * p["sigma"] ** 2), 0.0
    if kind == "pure_dp":
        return 0.0, 0.5 * p["eps"] ** 2, 0.0
    if kind == "approx_dp":
        return 0.0, 0.5 * p["eps"] ** 2, p["delta"]
    if kind == "zcdp":
        return p["xi"], p["rho"], p["delta"]
    if kind == "mcdp":
        return p["mu"] - 0.5 * p["tau"] ** 2, 0.5 * p["tau"] ** 2, 0.0
    raise ValueError(f"unknown entry kind {kind!r}")


def budget_sums(entries: list[tuple[str, dict]]) -> tuple[float, float]:
    """(xi, rho) of a ledger: the entries' closed forms, summed exactly."""
    parts = [entry_budget(kind, params) for kind, params in entries]
    return math.fsum(b[0] for b in parts), math.fsum(b[1] for b in parts)


def composed_budget(entries: list[tuple[str, dict]]) -> tuple[float, float, float]:
    """Budgets add; the failure probability is 1 - prod(1 - delta_i), taken in mpmath."""
    import mpmath

    parts = [entry_budget(kind, params) for kind, params in entries]
    xi, rho = budget_sums(entries)
    with mpmath.workdps(DPS):
        keep = mpmath.fprod(1 - mpmath.mpf(b[2]) for b in parts)
        delta = float(1 - keep)
    return xi, rho, delta


def delta_tolerance(n_entries: int, delta: float) -> float:
    """How far cdpacct's float product 1 - prod(1 - delta_i) may sit from the exact one."""
    return PRINTED * delta + n_entries * 2.3e-16


@functools.lru_cache(maxsize=4096)
def exact_gaussian_delta(eta: float, eps: float) -> float:
    """Exact delta(eps) of a Gaussian mechanism with rho = eta, at 40 digits."""
    import mpmath

    with mpmath.workdps(DPS):
        eta, eps = mpmath.mpf(eta), mpmath.mpf(eps)
        s = mpmath.sqrt(2 * eta) * mpmath.sqrt(2)
        return float(mpmath.erfc((eps - eta) / s) / 2 - mpmath.exp(eps) * mpmath.erfc((eps + eta) / s) / 2)


def simple_delta(xi: float, rho: float, da: float, eps: float) -> float:
    """The simple tail bound on delta at eps, with the approximate mass da folded in."""
    if eps < xi + rho:
        return 1.0
    base = math.exp(-((eps - xi - rho) ** 2) / (4.0 * rho))
    return min(1.0, da + (1.0 - da) * base)


def simple_eps(xi: float, rho: float, delta: float) -> float:
    """eps of the simple bound: xi + rho + 2 sqrt(rho ln(1/delta))."""
    return xi + rho + 2.0 * math.sqrt(rho * math.log(1.0 / delta))


def close(got: float, want: float, rel: float, abs_: float = 0.0) -> bool:
    return abs(got - want) <= rel * abs(want) + abs_


def mi_uniform(eps: float, n: int) -> float:
    """I(X; Y) of n randomized-response bits under the uniform prior: n (ln 2 - H(keep))."""
    import mpmath

    with mpmath.workdps(DPS):
        e = mpmath.exp(mpmath.mpf(eps))
        k = e / (1 + e)
        h = -k * mpmath.log(k) - (1 - k) * mpmath.log(1 - k)
        return float(n * (mpmath.log(2) - h))


def mi_correlated(eps: float, n: int) -> float:
    """I(X; Y) when the prior is half all-ones, half all-minus-ones: a binomial sum."""
    import mpmath

    with mpmath.workdps(DPS):
        e = mpmath.exp(mpmath.mpf(eps))
        k = e / (1 + e)
        total = mpmath.mpf(0)
        for j in range(n + 1):
            a = k**j * (1 - k) ** (n - j)
            b = k ** (n - j) * (1 - k) ** j
            m = (a + b) / 2
            total += mpmath.binomial(n, j) * (a * mpmath.log(a / m) + b * mpmath.log(b / m)) / 2
        return float(total)


def rr_product_prob(eps: float, x: tuple, y: tuple) -> float:
    """p(y | x) for independent randomized-response bits: keep^(agreements) (1-keep)^(flips)."""
    import mpmath

    with mpmath.workdps(DPS):
        e = mpmath.exp(mpmath.mpf(eps))
        k = e / (1 + e)
        agree = sum(a == b for a, b in zip(x, y))
        return float(k**agree * (1 - k) ** (len(x) - agree))


def rr_min_rho(eps: float, alphas) -> float:
    """Smallest rho at which one randomized-response bit passes certification on `alphas`."""
    import mpmath

    with mpmath.workdps(DPS):
        e = mpmath.exp(mpmath.mpf(eps))
        k = e / (1 + e)
        worst = mpmath.mpf(0)
        for a in alphas:
            if math.isinf(a):
                continue
            if a == 1.0:
                d = (2 * k - 1) * mpmath.log(k / (1 - k))
            else:
                a = mpmath.mpf(a)
                d = mpmath.log(k**a * (1 - k) ** (1 - a) + (1 - k) ** a * k ** (1 - a)) / (a - 1)
            worst = max(worst, d / a)
        return float(worst)


def renyi_mp(p: tuple[float, ...], q: tuple[float, ...], order: float) -> float:
    """D_order(p || q) in nats at 40 digits, for strictly positive p and q."""
    import mpmath

    with mpmath.workdps(DPS):
        ps = [mpmath.mpf(x) for x in p]
        qs = [mpmath.mpf(x) for x in q]
        if order == 1.0:
            return float(mpmath.fsum(a * mpmath.log(a / b) for a, b in zip(ps, qs)))
        if math.isinf(order):
            return float(max(mpmath.log(a / b) for a, b in zip(ps, qs)))
        o = mpmath.mpf(order)
        s = mpmath.fsum(a**o * b ** (1 - o) for a, b in zip(ps, qs))
        return float(mpmath.log(s) / (o - 1))


# ------------------------------------------------------------ shared properties


def check_eps(xi: float, rho: float, da: float, delta: float, eps: float) -> list[str]:
    """eps must lie between the exact-Gaussian eps and the simple bound at the same delta.

    With an approximate mass da, both ends are taken at delta' = (delta - da)/(1 - da).
    """
    prime = (delta - da) / (1.0 - da)
    if not 0.0 < prime < 1.0:
        return [f"delta {delta!r} is not above the approximate mass {da!r}"]
    if rho == 0.0:
        return [] if close(eps, xi, PRINTED) else [f"eps={eps!r} but a rho=0 budget gives xi={xi!r}"]
    problems = []
    upper = simple_eps(xi, rho, prime)
    if eps > upper * (1.0 + PRINTED) + BISECTION_ABS:
        problems.append(f"eps={eps!r} at delta={delta!r} is above the simple bound {upper!r}")
    if exact_gaussian_delta(rho, eps - xi) > prime * (1.0 + 1e-9):
        problems.append(f"eps={eps!r} at delta={delta!r} is below the exact-Gaussian eps")
    return problems


def check_delta_curve(
    xi: float, rho: float, da: float, xs, values, method: str, slack: float = 0.0
) -> list[str]:
    """delta(eps) values of one method on one budget, point by point.

    All methods: values in [0, 1] and non-increasing.  simple: the closed
    form.  refined: between the exact-Gaussian delta and the simple bound.
    exact_gaussian: the mpmath value within 1e-8 relative, and below the
    simple bound.  `slack` is the absolute error the program's composed
    delta_approx may carry (see delta_tolerance).
    """
    problems = []
    for i, (x, v) in enumerate(zip(xs, values)):
        if not 0.0 <= v <= 1.0:
            problems.append(f"point {i}: delta={v!r} is outside [0, 1]")
            continue
        if i and v > values[i - 1] * (1.0 + PRINTED):
            problems.append(f"point {i}: delta rises from {values[i - 1]!r} to {v!r}")
        upper = simple_delta(xi, rho, da, x)
        if method == "simple":
            if not close(v, upper, PRINTED, slack + 1e-300):
                problems.append(f"point {i}: simple delta={v!r}, closed form {upper!r}")
            continue
        if v > upper * (1.0 + PRINTED) + slack:
            problems.append(f"point {i}: {method} delta={v!r} is above the simple bound {upper!r}")
        if method == "exact_gaussian":
            want = exact_gaussian_delta(rho, x)
            if not close(v, want, 1e-8, 1e-300):
                problems.append(f"point {i}: exact delta={v!r}, mpmath {want!r}")
        elif x < xi + rho:
            if not close(v, 1.0, 1e-12):
                problems.append(f"point {i}: refined delta={v!r} below eps=xi+rho, expected 1")
        else:
            lower = da + (1.0 - da) * exact_gaussian_delta(rho, x - xi)
            if v < lower * (1.0 - 1e-9) - slack:
                problems.append(f"point {i}: refined delta={v!r} is below the exact delta {lower!r}")
    return problems


def check_calibration(sensitivity: float, eps: float, delta: float, sigma: float) -> list[str]:
    """A calibrated sigma meets its target exactly for a Gaussian and beats the simple bound."""
    problems = []
    rho = sensitivity**2 / (2.0 * sigma**2)
    if exact_gaussian_delta(rho, eps) > delta:
        problems.append(f"sigma={sigma!r} gives an exact delta above the target {delta!r}")
    root_l = math.sqrt(math.log(1.0 / delta))
    rho_simple = (math.sqrt(root_l * root_l + eps) - root_l) ** 2
    sigma_simple = sensitivity / math.sqrt(2.0 * rho_simple)
    if sigma > sigma_simple * (1.0 + 1e-9):
        problems.append(f"sigma={sigma!r} is larger than the simple-bound sigma {sigma_simple!r}")
    return problems


def check_calculus(values: dict) -> list[str]:
    """The Renyi calculus on one instance, with `verify divergence`'s tolerances.

    `values` maps each quantity to its divergences on the order grid: base
    D(p||q), other D(p2||q2), product D(p x p2 || q x q2), pushforward
    D(f(p)||f(q)), mixture D(mix(p,p2)||mix(q,q2)) and moment, the
    divergence recovered from the privacy-loss distribution of (p, q).
    """
    base, other = values["base"], values["other"]
    problems = []
    if min(base) < 0.0:
        problems.append(f"negative divergence {min(base)!r}")
    if max((lo - hi for lo, hi in zip(base, base[1:])), default=0.0) > CALCULUS_TOL["monotonicity"]:
        problems.append("divergence decreases with the order")
    for i, (b, o) in enumerate(zip(base, other)):
        if abs(values["product"][i] - (b + o)) > CALCULUS_TOL["additivity"]:
            problems.append(f"order index {i}: not additive under product")
        if values["pushforward"][i] - b > CALCULUS_TOL["data_processing"]:
            problems.append(f"order index {i}: pushforward increased the divergence")
        if values["mixture"][i] - max(b, o) > CALCULUS_TOL["quasi_convexity"]:
            problems.append(f"order index {i}: mixture above both endpoints")
        if abs(values["moment"][i] - b) > CALCULUS_TOL["moment_identity"]:
            problems.append(f"order index {i}: loss-moment identity off by {values['moment'][i] - b!r}")
    return problems


# ------------------------------------------------------------------ CLI output


def _fields(line: str) -> dict[str, float]:
    return {k: float(v) for k, v in _NUMBER.findall(line)}


def _lines(stdout: bytes) -> list[str]:
    return stdout.decode("utf-8", "replace").splitlines()


def check_budget_report(
    stdout: bytes, header: str, xi: float, rho: float, da: float, n_entries: int
) -> list[str]:
    """The budget line and the three eps lines printed by compose and group."""
    lines = _lines(stdout)
    if len(lines) != 1 + len(REPORT_DELTAS) or not lines[0].startswith(header):
        return [f"unexpected report layout: {lines[:2]!r}"]
    got = _fields(lines[0][len(header):])
    problems = []
    if set(got) != {"xi", "rho", "delta_approx"}:
        return [f"budget line has fields {sorted(got)}"]
    if not close(got["xi"], xi, PRINTED, 1e-300):
        problems.append(f"xi={got['xi']!r}, expected {xi!r}")
    if not close(got["rho"], rho, PRINTED, 1e-300):
        problems.append(f"rho={got['rho']!r}, expected {rho!r}")
    if abs(got["delta_approx"] - da) > delta_tolerance(n_entries, da):
        problems.append(f"delta_approx={got['delta_approx']!r}, expected {da!r}")
    for line, delta in zip(lines[1:], REPORT_DELTAS):
        f = _fields(line)
        if not close(f.get("delta", -1.0), delta, PRINTED) or "eps" not in f:
            problems.append(f"bad eps line {line!r}")
            continue
        problems += check_eps(xi, rho, da, delta, f["eps"])
    return problems


def check_curve_csv(
    stdout: bytes, grid: tuple[float, float, int], method: str, budget, n_entries: int
) -> list[str]:
    """A `curve delta_of_eps` CSV: header, the grid, the method column and the values."""
    lines = _lines(stdout)
    lo, hi, n = grid
    if not lines or lines[0] != "x,value,method" or len(lines) != n + 1:
        return [f"unexpected CSV layout ({len(lines)} lines)"]
    xs, values = [], []
    for i, line in enumerate(lines[1:]):
        x, v, m = line.split(",")
        if m != method:
            return [f"row {i}: method column {m!r}"]
        want_x = lo + (hi - lo) * i / (n - 1)
        if not close(float(x), want_x, PRINTED, 1e-15):
            return [f"row {i}: x={x}, expected {want_x!r}"]
        xs.append(want_x)
        values.append(float(v))
    xi, rho, da = budget
    return check_delta_curve(xi, rho, da, xs, values, method, delta_tolerance(n_entries, da))


def check_calibrate_rho(stdout: bytes, sensitivity: float, rho: float) -> list[str]:
    lines = _lines(stdout)
    if len(lines) != 2:
        return [f"unexpected calibrate output {lines!r}"]
    sigma, achieved = _fields(lines[0]).get("sigma"), _fields(lines[1]).get("rho")
    problems = []
    if sigma is None or not close(sigma, sensitivity / math.sqrt(2.0 * rho), PRINTED):
        problems.append(f"sigma={sigma!r}, expected {sensitivity / math.sqrt(2.0 * rho)!r}")
    if achieved is None or not close(achieved, rho, PRINTED):
        problems.append(f"achieved rho={achieved!r}, target {rho!r}")
    return problems


def check_calibrate_dp(stdout: bytes, sensitivity: float, eps: float, delta: float) -> list[str]:
    lines = _lines(stdout)
    if len(lines) != 3:
        return [f"unexpected calibrate output {lines!r}"]
    sigma, rho = _fields(lines[0]).get("sigma"), _fields(lines[1]).get("rho")
    m = re.match(r"delta at eps=(\S+): (\S+) \(target (\S+)\)$", lines[2])
    if sigma is None or rho is None or m is None:
        return [f"unexpected calibrate output {lines!r}"]
    problems = check_calibration(sensitivity, eps, delta, sigma)
    if not close(rho, sensitivity**2 / (2.0 * sigma**2), 3 * PRINTED):
        problems.append(f"rho={rho!r} does not match sigma={sigma!r}")
    if float(m.group(2)) > delta * (1.0 + PRINTED):
        problems.append(f"reported delta {m.group(2)} is above the target {delta!r}")
    return problems


def check_convert_pure(stdout: bytes, eps: float) -> list[str]:
    lines = _lines(stdout)
    if len(lines) != 3:
        return [f"unexpected convert output {lines!r}"]
    lin, quad = _fields(lines[1]), _fields(lines[2])
    problems = []
    if not (close(lin.get("xi", -1.0), eps, PRINTED) and lin.get("rho") == 0.0):
        problems.append(f"linear form {lines[1]!r}, expected xi={eps!r} rho=0")
    if not (quad.get("xi") == 0.0 and close(quad.get("rho", -1.0), 0.5 * eps * eps, PRINTED)):
        problems.append(f"quadratic form {lines[2]!r}, expected xi=0 rho={0.5 * eps * eps!r}")
    return problems


def check_convert_approx(stdout: bytes, eps: float, delta: float) -> list[str]:
    lines = _lines(stdout)
    if len(lines) != 3:
        return [f"unexpected convert output {lines!r}"]
    quad, lin = _fields(lines[1]), _fields(lines[2])
    problems = []
    want_quad = {"xi": 0.0, "rho": 0.5 * eps * eps, "delta_approx": delta}
    want_lin = {"xi": eps, "rho": 0.0, "delta_approx": delta}
    for got, want, name in ((quad, want_quad, "quadratic"), (lin, want_lin, "linear")):
        if set(got) != set(want) or not all(close(got[k], want[k], PRINTED) for k in want):
            problems.append(f"{name} form {got!r}, expected {want!r}")
    return problems


def check_convert_rho_delta(stdout: bytes, rho: float, delta: float) -> list[str]:
    lines = _lines(stdout)
    if len(lines) != 3 or not lines[1].startswith("eps (simple): "):
        return [f"unexpected convert output {lines!r}"]
    simple = float(lines[1].split(": ")[1])
    refined = float(lines[2].split(": ")[1])
    problems = []
    if not close(simple, simple_eps(0.0, rho, delta), PRINTED):
        problems.append(f"simple eps={simple!r}, expected {simple_eps(0.0, rho, delta)!r}")
    return problems + check_eps(0.0, rho, 0.0, delta, refined)


def check_convert_rho_eps(stdout: bytes, rho: float, eps: float) -> list[str]:
    lines = _lines(stdout)
    if len(lines) != 3 or not lines[1].startswith("delta (refined): "):
        return [f"unexpected convert output {lines!r}"]
    refined = float(lines[1].split(": ")[1])
    simple = float(lines[2].split(": ")[1])
    problems = []
    if not close(simple, simple_delta(0.0, rho, 0.0, eps), PRINTED, 1e-300):
        problems.append(f"simple delta={simple!r}, expected {simple_delta(0.0, rho, 0.0, eps)!r}")
    return problems + check_delta_curve(0.0, rho, 0.0, [eps], [refined], "refined")


def is_usage_error(code: int, stderr: bytes) -> bool:
    """Exit 2 with a single line on stderr: a documented refusal."""
    return code == 2 and len(_lines(stderr)) == 1
