"""Budget ledger and the conversion calculus between privacy notions.

All operations are pure parameter arithmetic: composition and group scaling
of concentrated-DP budgets, and conversions between pure DP, approximate
DP, (approximate) zCDP, and the mean-concentrated variant.  Delta values
are probabilities and stay in [0, 1] after every closed form.  The exact
Gaussian delta curve and the curve grid live here too, so that every curve
method runs on this module alone; the oracle module re-exports both.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass


# The value types are frozen dataclasses whose __init__ checks the arguments
# and writes them into the instance __dict__: half the cost of the generated
# __init__ and a __post_init__, and a ledger query builds about a hundred.


@dataclass(frozen=True, init=False)
class ZcdpParams:
    """A (xi, rho) concentrated-DP budget, optionally delta-approximate.

    delta_approx = 0 is the plain guarantee.  xi bounds the divergence
    offset, rho the linear-in-order growth.
    """

    xi: float
    rho: float
    delta_approx: float = 0.0

    def __init__(self, xi: float, rho: float, delta_approx: float = 0.0) -> None:
        if not 0.0 <= xi < math.inf:
            raise ValueError("xi must be nonnegative and finite")
        if not 0.0 <= rho < math.inf:
            raise ValueError("rho must be nonnegative and finite")
        if not 0.0 <= delta_approx <= 1.0:
            raise ValueError("delta_approx must be in [0, 1]")
        state = self.__dict__
        state["xi"], state["rho"], state["delta_approx"] = xi, rho, delta_approx


@dataclass(frozen=True, init=False)
class DpPoint:
    """One (eps, delta) point on an approximate-DP tradeoff curve."""

    eps: float
    delta: float

    def __init__(self, eps: float, delta: float) -> None:
        if not eps >= 0.0:  # NaN fails this too
            raise ValueError("eps must be nonnegative")
        if not 0.0 <= delta <= 1.0:
            raise ValueError("delta must be in [0, 1]")
        state = self.__dict__
        state["eps"], state["delta"] = eps, delta


@dataclass(frozen=True, init=False)
class McdpParams:
    """Mean-concentrated parameters: loss mean bound mu, subgaussian scale tau.

    tau = 0 is admitted as the degenerate limit of a constant privacy loss
    (it arises from converting the zero budget).
    """

    mu: float
    tau: float

    def __init__(self, mu: float, tau: float) -> None:
        if math.isnan(mu):
            raise ValueError("mu must be a real number")
        if math.isnan(tau) or tau < 0.0:
            raise ValueError("tau must be nonnegative")
        state = self.__dict__
        state["mu"], state["tau"] = mu, tau


# Ledger file schema: required numeric fields per entry kind.
LEDGER_FIELDS: dict[str, tuple[str, ...]] = {
    "gaussian": ("sensitivity", "sigma"),
    "pure_dp": ("eps",),
    "approx_dp": ("eps", "delta"),
    "zcdp": ("xi", "rho", "delta"),
    "mcdp": ("mu", "tau"),
}


@dataclass(frozen=True, init=False)
class LedgerEntry:
    """One mechanism invocation awaiting composition.

    params is any mapping with exactly the kind's LEDGER_FIELDS, each a
    finite int or float; it is stored as a new dict of floats in the
    caller's key order.
    """

    kind: str
    params: Mapping[str, float]
    label: str = ""

    def __init__(self, kind: str, params: Mapping[str, float], label: str = "") -> None:
        if kind not in LEDGER_FIELDS:
            raise ValueError(f"unknown entry kind {kind!r}; expected one of {sorted(LEDGER_FIELDS)}")
        required = LEDGER_FIELDS[kind]
        for name in required:
            if name not in params:
                raise ValueError(f"entry kind {kind!r} requires field {name!r}")
            value = number = params[name]
            if type(value) is not float:
                if isinstance(value, bool) or not isinstance(value, (int, float)):
                    raise ValueError(f"field {name!r} must be a number, got {value!r}")
                number = float(value)
            if not -math.inf < number < math.inf:
                raise ValueError(f"field {name!r} must be finite, got {value!r}")
        if len(params) != len(required):
            extras = set(params) - set(required)
            raise ValueError(f"entry kind {kind!r} has unknown fields {sorted(extras)}")
        state = self.__dict__
        state["kind"], state["label"] = kind, label
        state["params"] = {k: v if type(v) is float else float(v) for k, v in params.items()}


def entry_to_zcdp(entry: LedgerEntry) -> ZcdpParams:
    """Budget contributed by one ledger entry, in the form compose() consumes.

    DP-style entries go through the quadratic route (0, eps^2/2, delta),
    which is what makes many-fold composition pay off; the lossless
    single-entry alternative (eps, 0, delta) remains available through
    pure_dp_to_zcdp / dp_to_approx_zcdp_maxdiv for callers that want it.
    """
    p = entry.params
    if entry.kind == "gaussian":
        if not p["sigma"] > 0.0:
            raise ValueError("gaussian entry needs sigma > 0")
        if p["sensitivity"] < 0.0:
            raise ValueError("gaussian entry needs sensitivity >= 0")
        return ZcdpParams(0.0, _gaussian_rho(p["sensitivity"], p["sigma"]))
    if entry.kind == "pure_dp":
        return dp_to_approx_zcdp(DpPoint(p["eps"], 0.0))
    if entry.kind == "approx_dp":
        return dp_to_approx_zcdp(DpPoint(p["eps"], p["delta"]))
    if entry.kind == "zcdp":
        return ZcdpParams(p["xi"], p["rho"], p["delta"])
    return mcdp_to_zcdp(McdpParams(p["mu"], p["tau"]))  # LedgerEntry admits no other kind


# For numbers in [2^-511, 2^511), the square and twice the square are normal floats.
_SQUARE_MIN, _SQUARE_MAX = 2.0**-511, 2.0**511


def _gaussian_rho(sensitivity: float, sigma: float) -> float:
    """sensitivity^2 / (2 sigma^2), as 0.5 (sensitivity / sigma)^2 where a square is not normal.

    Raises OverflowError where the quotient, or sensitivity / sigma, exceeds
    the floats, which float division reports as inf.
    """
    if _SQUARE_MIN <= sensitivity < _SQUARE_MAX and _SQUARE_MIN <= sigma < _SQUARE_MAX:
        rho = sensitivity**2 / (2.0 * sigma**2)
        if rho == math.inf:
            raise OverflowError("sensitivity^2 / (2 sigma^2) exceeds the largest float")
        return rho
    ratio = sensitivity / sigma
    if ratio == math.inf:
        raise OverflowError("sensitivity / sigma exceeds the largest float")
    return 0.5 * ratio**2


def _log_ratio(x: float, d: float) -> float:
    """ln(x / d) for x, d > 0: log(x / d), or log(x) - log(d) where x / d overflows or underflows.

    1 / d overflows below d = 5.6e-309, where ln(1/d) is thus -log(d).
    """
    q = x / d
    return math.log(q) if 0.0 < q < math.inf else math.log(x) - math.log(d)


def compose(entries: Sequence[ZcdpParams]) -> ZcdpParams:
    """Sequential composition: budgets add, failure probabilities form their exact union.

    Returns (sum xi, sum rho, 1 - prod(1 - delta)), the union built up as
    s + (1 - s) delta over ascending deltas, which does not cancel.  Exact
    sums and the sort make the result permutation-invariant.
    """
    if not entries:
        raise ValueError("compose needs at least one entry")
    xi = math.fsum([e.xi for e in entries])
    rho = math.fsum([e.rho for e in entries])
    union = 0.0
    for delta in sorted([e.delta_approx for e in entries]):
        union += (1.0 - union) * delta
    return ZcdpParams(xi, rho, union)


# Largest group size: group_privacy sums the harmonic number term by term.
MAX_GROUP_SIZE = 10**6


def _harmonic(k: int) -> float:
    return math.fsum(1.0 / i for i in range(1, k + 1))


def group_privacy(params: ZcdpParams, k: int) -> ZcdpParams:
    """Budget against groups of k individuals: (xi k H_k, rho k^2).

    Only the plain guarantee scales this way; approximate budgets are
    rejected, as are groups larger than MAX_GROUP_SIZE.
    """
    if k < 1:
        raise ValueError("group size must be a positive integer")
    if k > MAX_GROUP_SIZE:
        raise ValueError(f"group size must be at most {MAX_GROUP_SIZE}, got {k}")
    if params.delta_approx != 0.0:
        raise ValueError("group privacy is supported only for delta_approx = 0")
    # A zero xi needs no harmonic sum: xi * k * H_k is then xi itself, sign included.
    xi = params.xi and params.xi * k * _harmonic(k)
    return ZcdpParams(xi, params.rho * k * k)


def zcdp_to_dp_simple(params: ZcdpParams, delta: float) -> DpPoint:
    """Closed-form (eps, delta) point: eps = xi + rho + sqrt(4 rho ln(1/delta))."""
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must be in (0, 1)")
    if params.delta_approx != 0.0:
        raise ValueError("simple conversion applies to plain budgets only")
    return DpPoint(eps_of_delta(params, delta, "simple"), delta)


def _simple_tail(d: float, rho: float) -> float:
    """The simple conversion's delta at eps = xi + rho + d, for d >= 0 and rho > 0."""
    return math.exp(-(d**2) / (4.0 * rho))


def zcdp_to_dp_refined(params: ZcdpParams, eps: float) -> float:
    """Best-branch delta at a requested eps >= xi + rho.

    e^{-(eps-xi-rho)^2 / 4 rho} times the least of four sharpening factors,
    1, sqrt(pi rho), 1/b and 2/(b + sqrt(b^2 + 4/(pi rho))) with b = 1 +
    (eps-xi-rho)/(2 rho) >= 1.  The fourth is at most 2/(2b) = 1/b <= 1, in
    floating point too, so only the second and fourth can win, and the
    product lies in [0, 1] unclamped.  The second, 2/sqrt(4/(pi rho)), is
    never below the fourth in exact arithmetic; it wins by one rounding
    where rho b^2 is below about 1e-32.  _delta_past_squares gives delta,
    also at eps = inf and where the kernel's floats give out.  The plain
    budget's delta_approx must be 0; approximate budgets go through
    approx_zcdp_to_dp.
    """
    if params.delta_approx != 0.0:
        raise ValueError("refined conversion applies to plain budgets only")
    if not params.rho > 0.0:
        raise ValueError("refined conversion needs rho > 0")
    if not eps >= params.xi + params.rho:
        raise ValueError("refined conversion needs eps >= xi + rho")
    return _delta_past_squares(params.xi, params.rho, eps, True)


def _refined(xi: float, rho: float, eps: float) -> float:
    """zcdp_to_dp_refined on plain floats, unchecked: needs rho > 0 and eps >= xi + rho."""
    d = eps - xi - rho
    a = d / (2.0 * rho)
    pi_rho = math.pi * rho
    root = math.sqrt(pi_rho)
    fourth = 2.0 / (1.0 + a + math.sqrt((1.0 + a) ** 2 + 4.0 / pi_rho))
    return _simple_tail(d, rho) * (fourth if fourth < root else root)


def _delta_past_squares(xi: float, rho: float, eps: float, refined: bool) -> float:
    """The refined (or simple) delta' at eps >= xi + rho, also where the kernel's floats give out.

    The kernel's value wherever it is positive, save the simple tail at
    |d| < 2^-511, where d**2 is subnormal and has lost digits.  Otherwise
    delta' is 0 at eps = inf (where 2 rho or 4 rho overflows the kernel
    makes NaN there), and at a finite eps the exponent is taken as
    (d / (2 sqrt(rho)))**2, since d**2 may overflow or be subnormal, and
    the fourth factor's root as hypot(1 + a, 2 / sqrt(pi rho)), since
    (1 + a)**2 may overflow and 4 / (pi rho) does, without raising, below
    rho = 7e-309, where the kernel's fourth factor is 2 / inf = 0.  The eps
    and rho searches call the kernels themselves and still raise
    OverflowError at a step where a square overflows.
    """
    d = eps - xi - rho
    try:
        delta = _refined(xi, rho, eps) if refined else 0.0 if -_SQUARE_MIN < d < _SQUARE_MIN else _simple_tail(d, rho)
        if delta > 0.0:
            return delta
    except OverflowError:
        pass
    if eps == math.inf:
        return 0.0
    half = d / (2.0 * math.sqrt(rho))
    tail = math.exp(-(half * half))
    if not refined:
        return tail
    a = d / (2.0 * rho)
    root = _SQRT_PI * math.sqrt(rho)  # pi rho may be subnormal here
    fourth = 2.0 / (1.0 + a + math.hypot(1.0 + a, 2.0 / root))
    return tail * (fourth if fourth < root else root)


def pure_dp_to_zcdp(eps: float) -> tuple[ZcdpParams, ZcdpParams]:
    """Both concentrated forms of an eps-DP guarantee: (eps, 0) and (0, eps^2/2)."""
    if eps < 0.0:
        raise ValueError("eps must be nonnegative")
    return ZcdpParams(eps, 0.0), ZcdpParams(0.0, 0.5 * eps * eps)


def dp_family_to_zcdp(xi_hat: float, rho_hat: float) -> ZcdpParams:
    """Concentrated budget implied by a (xi_hat, rho_hat) DP-style family.

    Valid only on the hypothesis square [0,1] x [0,1]; outside it the
    statement gives no guarantee, so inputs are rejected rather than
    extrapolated.
    """
    if not 0.0 <= xi_hat <= 1.0 or not 0.0 <= rho_hat <= 1.0:
        raise ValueError("xi_hat and rho_hat must lie in [0, 1]")
    return ZcdpParams(xi_hat - rho_hat / 4.0 + 5.0 * rho_hat**0.25, rho_hat / 4.0)


def mcdp_to_zcdp(params: McdpParams) -> ZcdpParams:
    """Concentrated budget from mean-concentrated parameters: (mu - tau^2/2, tau^2/2).

    mu < tau^2/2 would need a negative offset, which the concentrated
    definition does not admit; such inputs are rejected.
    """
    half_tau_sq = 0.5 * params.tau**2
    if params.mu < half_tau_sq:
        raise ValueError(
            f"mu = {params.mu!r} is below tau^2/2 = {half_tau_sq!r}; "
            "no nonnegative-offset concentrated budget exists"
        )
    return ZcdpParams(params.mu - half_tau_sq, half_tau_sq)


def zcdp_to_mcdp(params: ZcdpParams) -> McdpParams:
    """Mean-concentrated parameters implied by a plain (xi, rho) budget.

    mu = xi + rho is the exact loss-mean bound; the subgaussian scale uses
    the explicit constant tau = sqrt(8 (e^(xi + 2 rho) - 1)), the tightest
    one supported by the centered-MGF analysis (the small-lambda regime
    needs tau^2/2 >= 4 (e^(xi+2rho) - 1), which dominates the large-lambda
    requirement 4 (xi + 2 rho)).
    """
    if params.delta_approx != 0.0:
        raise ValueError("mean-concentrated conversion applies to plain budgets only")
    mu = params.xi + params.rho
    tau = math.sqrt(8.0 * math.expm1(params.xi + 2.0 * params.rho))
    return McdpParams(mu, tau)


def dp_to_approx_zcdp(pt: DpPoint) -> ZcdpParams:
    """delta-approximate (0, eps^2/2) budget implied by an (eps, delta)-DP point."""
    return ZcdpParams(0.0, 0.5 * pt.eps * pt.eps, pt.delta)


def dp_to_approx_zcdp_maxdiv(pt: DpPoint) -> ZcdpParams:
    """The intermediate delta-approximate (eps, 0) form of the same implication."""
    return ZcdpParams(pt.eps, 0.0, pt.delta)


def approx_zcdp_to_dp(params: ZcdpParams, eps: float) -> DpPoint:
    """(eps, delta) point implied by a delta_approx-approximate budget.

    With rho = 0 the guarantee is already (xi, delta_approx)-DP and the
    requested eps is ignored.  Otherwise the refined conversion handles the
    non-catastrophic branch and the failure masses combine as their union
    delta_approx + (1 - delta_approx) * delta', the step compose takes.
    With both in [0, 1] the float result stays in [0, 1], so no clamp.
    """
    xi, rho, da = params.xi, params.rho, params.delta_approx
    if rho == 0.0:
        return DpPoint(xi, da)
    if not eps >= xi + rho:
        raise ValueError("refined conversion needs eps >= xi + rho")
    return DpPoint(eps, da + (1.0 - da) * _delta_past_squares(xi, rho, eps, True))


def eps_for_delta(params: ZcdpParams, delta: float) -> float:
    """Smallest eps (to 1e-10, or one ulp where wider) whose refined delta meets the target.

    The same as eps_of_delta(params, delta, "refined"), found by _search.
    """
    return eps_of_delta(params, delta, "refined")


CURVE_METHODS = ("simple", "refined", "exact_gaussian")


def grid_points(lo: float, hi: float, n: int) -> list[float]:
    """The points of np.linspace(lo, hi, n), unless (hi - lo) / (n - 1) underflows to 0.

    The grid of every CLI curve and of the oracles' quadratures.
    """
    step = (hi - lo) / (n - 1)
    return [i * step + lo for i in range(n - 1)] + [hi]


def delta_of_eps(params: ZcdpParams, eps: float, method: str = "refined") -> float:
    """delta at eps by one of CURVE_METHODS: delta_of_eps_grid on the one-point grid (eps,)."""
    return delta_of_eps_grid(params, (eps,), method)[0]


def delta_of_eps_grid(params: ZcdpParams, grid: Sequence[float], method: str = "refined") -> list[float]:
    """delta at each eps of grid by one of CURVE_METHODS, as delta_approx + (1 - delta_approx) * delta'.

    delta' is 1 below eps = xi + rho for the closed forms and
    _delta_past_squares from there; "exact_gaussian" is the exact curve of
    a Gaussian mechanism with this rho (Balle & Wang 2018) and raises
    ValueError unless xi = 0 and rho >= MIN_EXACT_RHO.
    A NaN point, then the budget and the method, are refused before any
    point is evaluated; then one loop evaluates every point.
    """
    xi, rho, da = params.xi, params.rho, params.delta_approx
    edge, keep = xi + rho, 1.0 - da
    if any(map(math.isnan, grid)):
        raise ValueError("eps must be a number, got nan")
    if method == "exact_gaussian":
        base = map(_exact_gaussian(params), grid)
    elif method not in CURVE_METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {CURVE_METHODS}")
    elif rho == 0.0:
        base = [0.0 if eps >= xi else 1.0 for eps in grid]
    else:
        refined = method == "refined"
        base = [1.0 if eps < edge else _delta_past_squares(xi, rho, eps, refined) for eps in grid]
    return [da + keep * b for b in base]


def eps_of_delta(params: ZcdpParams, delta: float, method: str = "refined") -> float:
    """Smallest eps at which delta_of_eps(params, eps, method) meets delta.

    Inverts delta_of_eps at delta' = (delta - delta_approx) / (1 - delta_approx),
    and gives +inf when delta_approx >= delta.  "simple" is closed-form; the
    others are strictly decreasing in eps: one _search scans up from
    xi + rho ("refined") or 0 ("exact_gaussian") and bisects to 1e-10 or
    1e-12, or to one ulp where wider, so the exact eps is never above the
    refined one.  Its secant seeds are the scan's start and the simple
    eps, at or above both roots.  The simple eps is xi + rho + 2 sqrt(rho)
    sqrt(L), L = ln(1/delta'), where sqrt(4 rho L) overflows.
    """
    if method not in CURVE_METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {CURVE_METHODS}")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must be in (0, 1)")
    xi, rho, da = params.xi, params.rho, params.delta_approx
    if method == "exact_gaussian":
        f = _exact_gaussian(params)  # a budget it does not hold for is an error at any delta
    if da >= delta:
        return math.inf
    prime = (delta - da) / (1.0 - da)
    if rho == 0.0:
        return xi
    log_inv = _log_ratio(1.0, prime)
    root = math.sqrt(4.0 * rho * log_inv)
    simple = xi + rho + (root if root < math.inf else 2.0 * math.sqrt(rho) * math.sqrt(log_inv))
    if method == "simple":
        return simple
    if method == "refined":
        f = functools.partial(_refined, xi, rho)
        lo, step, atol = xi + rho, max(1.0, math.sqrt(rho)), 1e-10
    else:
        lo, step, atol = 0.0, 1.0, 1e-12
    return _search(f, prime, lo, lo, step, 2.0, atol, (lo, simple))


def _rho_for_dp(eps: float, delta: float) -> float:
    """Largest rho in (0, eps] whose refined delta at eps meets delta; eps > 0, 0 < delta < 1.

    The refined delta increases in rho.  One _search tries rho = eps, halves
    rho from eps until delta is met and bisects to one ulp, with its secant
    seeded at the simple conversion's root rho0 = (sqrt(L + eps) -
    sqrt(L))^2, L = ln(1/delta), at most the refined root.
    """
    log_inv = _log_ratio(1.0, delta)
    rho0 = (eps / (math.sqrt(log_inv + eps) + math.sqrt(log_inv))) ** 2
    return _search(
        lambda rho: _refined(0.0, rho, eps), delta, eps, 0.0, eps, 0.5, 0.0,
        (rho0, min(eps, 1.25 * rho0)),
    )


# Half-width of _search's window, relative to the root estimate.  The eps
# searches floor it at 1e-12 absolute: the exact Gaussian curve's decisions
# flip up to 6e-16 from its root; the refined conversion never flips.
_WINDOW = 1e-12


def _search(
    f: Callable[[float], float], target: float, end: float, base: float, step: float,
    factor: float, atol: float, seeds: tuple[float, float],
) -> float:
    """The x nearest end (to atol, or one ulp where wider) with f(x) <= target, for monotone f.

    Returns end if it meets the target.  Otherwise scans x = base +
    step * factor**i, i = 0, 1, ..., trying each distinct x once, and halves
    the bracket between the first x that meets the target and end until it
    is no wider than atol or its midpoint rounds to an end.  Raises
    ValueError once the step leaves the positive finite floats.

    Each decision f(x) <= target comes from one window around a root
    estimate r, from secant steps on sqrt(-log f) = sqrt(-log target) from
    the seeds: f is called inside (r - w, r + w), w = _WINDOW * max(|r|, 1)
    for a rising scan and _WINDOW * |r| for a falling one, and elsewhere
    the nearer window end decides.  A first seed equal to end decides end
    before any other call.  The answer and the exceptions are f's if f is
    monotone at separations >= w and raises at no point the window
    decides.  f decides every point if the estimate takes over 30 steps,
    raises ArithmeticError or ValueError, or leaves f's domain, the span of
    the scan: [base, end] for a falling scan (factor < 1) and [base, inf)
    for a rising one, or if both window ends lie on one side of target.
    """
    hi, floor = (end, 0.0) if factor < 1.0 else (math.inf, 1.0)

    def checked(x: float) -> float:
        if not base <= x <= hi:
            raise ValueError("outside the domain of f")
        return f(x)

    def h(x: float) -> float:
        return math.sqrt(-math.log(checked(x))) - lift

    # Outside the window (a, b) the nearer end's decision stands.  Without a
    # window a and b stay NaN, which no comparison holds against, so f decides.
    a = b = math.nan
    try:
        lift = math.sqrt(-math.log(target))
        x0, x1 = seeds
        f0 = checked(x0)
        if x0 == end and f0 <= target:
            return end
        h0, h1 = math.sqrt(-math.log(f0)) - lift, h(x1)
        for _ in range(30):
            x0, x1 = x1, x1 - h1 * (x1 - x0) / (h1 - h0)
            w = _WINDOW * (-x1 if x1 < -floor else floor if x1 <= floor else x1)  # max(|x1|, floor)
            if -0.5 * w <= x1 - x0 <= 0.5 * w:
                below, above = checked(x1 - w) <= target, checked(x1 + w) <= target
                if below != above:
                    a, b = x1 - w, x1 + w
                break
            h0, h1 = h1, h(x1)
    except (ArithmeticError, ValueError):
        pass

    if below if end <= a else above if end >= b else f(end) <= target:
        return end
    last = end
    while 0.0 < step < math.inf:
        x = base + step
        if x != last and (below if x <= a else above if x >= b else f(x) <= target):
            break
        last, step = x, step * factor
    else:
        raise ValueError("no value in floating-point range meets the target")
    good, bad = x, end
    while good - bad > atol or bad - good > atol:
        mid = 0.5 * (good + bad)
        if mid == good or mid == bad:
            break
        if below if mid <= a else above if mid >= b else f(mid) <= target:
            good = mid
        else:
            bad = mid
    return good


_SQRT2 = math.sqrt(2.0)
_SQRT_PI = math.sqrt(math.pi)
_SPLIT = 2.0**27 + 1.0  # Veltkamp's constant: c - (c - x) with c = x * _SPLIT is x's top 26 bits


def _erfcx(x: float) -> float:
    """e^(x^2) erfc(x) for x >= 0, to a few ulps.

    Below 26, erfc(x) is still a normal float and e^(x^2) is taken as
    e^(hi^2) e^((x - hi)(x + hi)) with hi the top 26 bits of x, so hi^2 is
    exact and x^2 loses nothing to rounding.  From 26 up, the asymptotic
    series 1/(x sqrt(pi)) sum_k (-1)^k (2k-1)!!/(2x^2)^k, summed until a
    term drops below 1e-17: 9 terms at x = 26, 2 from x = 1e9 up.
    """
    if x < 26.0:
        hi = x * _SPLIT
        hi -= hi - x
        return math.exp(hi * hi) * math.exp((x - hi) * (x + hi)) * math.erfc(x)
    t = -0.5 / (x * x)
    term = acc = 1.0
    k = 1
    while abs(term) > 1e-17:
        term *= (2 * k - 1) * t
        acc += term
        k += 1
    return acc / (x * _SQRT_PI)


def delta_exact_gaussian(eta: float, eps: float) -> float:
    """Exact delta(eps) when the privacy loss is Normal(eta, 2 eta).

    Closed form of the tail functional: with s = sqrt(2 eta),
    v = (eps - eta)/s and u = (eps + eta)/s,

        delta(eps) = P[N > v] - e^eps * P[N > u]

    where the second term uses E[e^(-Z); Z > eps] = P[N > u] (complete the
    square; the factor e^(-eta + s^2/2) is exactly 1 here).  Both tails are
    erfc(./sqrt 2)/2 from math.erfc.  Since u^2/2 = v^2/2 + eps, for u >= 0
    the second term is e^(-v^2/2) _erfcx(u/sqrt 2)/2, and for v >= 0 the
    first is e^(-v^2/2) _erfcx(v/sqrt 2)/2: the two share one rounded factor
    and no intermediate grows with eta or eps.  Against 60-digit arithmetic,
    with delta down to 1e-300, the relative error stays below 1e-11 for eta
    from 1e-4 to 1e30 and below 2e-14/sqrt(eta) from 1e-8 to 1e-4: the two
    tails are both near 1/2 and differ by O(sqrt(eta)).  At eta = 1e-24 it
    reaches 1e-2, so the "exact_gaussian" curve refuses rho below 1e-8
    (MIN_EXACT_RHO).  It is also the oracle module's exact Gaussian curve,
    against which the refined conversion is checked.
    Where 2 eta overflows, s is sqrt(2) sqrt(eta).  A difference outside
    (0, 1) is clamped to [0, 1]; it is NaN only for a NaN eps or an
    infinite eta, and both raise ValueError.
    """
    if not eta > 0.0:
        raise ValueError("eta must be positive")
    s = math.sqrt(2.0 * eta)
    if s == math.inf:  # 2 eta overflows, or eta is inf
        s = _SQRT2 * math.sqrt(eta)
    v, u = (eps - eta) / s, (eps + eta) / s
    if u < 0.0:  # eps < -eta: e^eps is below 1 and the tail above 1/2
        first, second = 0.5 * math.erfc(v / _SQRT2), math.exp(eps) * 0.5 * math.erfc(u / _SQRT2)
    else:
        scale = 0.5 * math.exp(-0.5 * v * v)
        first = scale * _erfcx(v / _SQRT2) if v >= 0.0 else 0.5 * math.erfc(v / _SQRT2)
        second = scale * _erfcx(u / _SQRT2)
    delta = first - second
    if 0.0 < delta < 1.0:
        return delta
    if delta != delta:  # only a NaN eps or an infinite eta makes NaN
        raise ValueError("eta must be finite" if eta == math.inf else "eps must be a number, got nan")
    return 1.0 if delta >= 1.0 else 0.0


# Least rho for "exact_gaussian".  Its two tails, both near 1/2, differ by
# O(sqrt(rho)), so delta's relative error grows as 2e-14/sqrt(rho): 2e-10 here,
# 1e-2 at rho = 1e-24, and further down delta is mostly understated.
MIN_EXACT_RHO = 1e-8


def _exact_gaussian(params: ZcdpParams) -> Callable[[float], float]:
    """The exact Gaussian delta(eps), which holds only for budgets with xi = 0 and rho > 0.

    Below MIN_EXACT_RHO it would understate delta, so it raises there too.
    """
    if params.xi != 0.0 or not params.rho > 0.0:
        raise ValueError("exact_gaussian requires a ledger with xi=0 and rho>0")
    if params.rho < MIN_EXACT_RHO:
        raise ValueError(
            f"exact_gaussian requires rho >= {MIN_EXACT_RHO:g}, below which its delta is inaccurate"
        )
    return functools.partial(delta_exact_gaussian, params.rho)


def dp_composition_bound(points: Sequence[DpPoint], delta_prime: float) -> DpPoint:
    """Closed-form budget for composing many (eps_i, delta_i) mechanisms.

    eps = ||eps||_2^2 / 2 + sqrt(2 ln(sqrt(pi/2) ||eps||_2 / delta_prime)) * ||eps||_2
    when the log is positive, else the lambda = 0 endpoint eps = ||eps||_2^2 / 2;
    delta = delta_prime + sum(delta_i) in both cases.
    """
    if not points:
        raise ValueError("need at least one point")
    if not delta_prime > 0.0:
        raise ValueError("delta_prime must be positive")
    l2 = math.sqrt(math.fsum(p.eps**2 for p in points))
    delta = min(1.0, delta_prime + math.fsum(p.delta for p in points))
    if l2 == 0.0:
        return DpPoint(0.0, delta)
    log_arg = _log_ratio(math.sqrt(math.pi / 2.0) * l2, delta_prime)
    eps = 0.5 * l2 * l2
    if log_arg > 0.0:
        eps += math.sqrt(2.0 * log_arg) * l2
    return DpPoint(eps, delta)


def dp_composition_refined(points: Sequence[DpPoint], eps: float) -> DpPoint:
    """Four-branch form of the same composition at a requested total eps.

    The compose of each point's dp_to_approx_zcdp budget, (0, sum eps_i^2 / 2)
    with delta_approx the union of the delta_i, converted at eps by
    approx_zcdp_to_dp: delta = delta_approx + (1 - delta_approx) delta',
    that is 1 - (1 - delta') prod(1 - delta_i).
    """
    if not points:
        raise ValueError("need at least one point")
    budget = compose([dp_to_approx_zcdp(p) for p in points])
    return DpPoint(eps, approx_zcdp_to_dp(budget, eps).delta)


def advanced_composition_baseline(eps: float, k: int, delta_prime: float) -> float:
    """Classical homogeneous advanced-composition eps, as a comparison target.

    eps * sqrt(2 k ln(1/delta_prime)) + k eps (e^eps - 1).  Included purely
    as external plumbing to benchmark the quadratic-route bound against.
    """
    if not 0.0 <= eps < math.inf:
        raise ValueError("eps must be nonnegative and finite")
    if k < 1:
        raise ValueError("k must be a positive integer")
    if not 0.0 < delta_prime < 1.0:
        raise ValueError("delta_prime must be in (0, 1)")
    log_inv = _log_ratio(1.0, delta_prime)
    return eps * math.sqrt(2.0 * k * log_inv) + k * eps * (math.expm1(eps))
