"""Independent numeric oracles for every closed form the package claims.

The integrators here never call the closed forms they check: Gaussian
divergences are integrated from the raw density ratio, delta curves are
evaluated from the tail functional, and the counterexample quantities are
assembled from first principles with high-precision normal tails.
Every normal tail comes from math.erfc or _erfcx, a scaled erfc of its own,
and the Monte Carlo estimators draw from random.Random(seed), so every
oracle needs only the standard library.  delta_exact_gaussian, _erfcx and
grid_points are the accountant's, which runs the exact Gaussian curve
without loading this module; they are re-exported here.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass

from .accountant import _SQRT2, _erfcx, delta_exact_gaussian, grid_points
from .divergence import OutcomeDist, PrivacyLossDist, aligned_probs, renyi_divergence


# Half-width of the quadratures' windows, in standard deviations, and the
# change between successive panel doublings at which they stop.
QUAD_HALF_WIDTH_SIGMAS = 12.0
QUAD_ABS_TOL = 1e-8


def _log_simpson(log_f, lo: float, hi: float, panels: int) -> float:
    """log of the composite-Simpson integral of exp(log_f) on [lo, hi].

    panels must be even.  Weights are folded into the log-sum-exp so the
    integrand may span hundreds of orders of magnitude.
    """
    logs = [log_f(x) for x in grid_points(lo, hi, panels + 1)]
    weights = [1.0] + [4.0, 2.0] * (panels // 2 - 1) + [4.0, 1.0]
    top = max(logs)
    h = (hi - lo) / panels
    total = math.fsum(w * math.exp(v - top) for w, v in zip(weights, logs))
    return top + math.log(total) + math.log(h / 3.0)


# The finest grid _converged_log_simpson tries before it gives up.
_MAX_PANELS = 2**21


def _converged_log_simpson(log_f, lo: float, hi: float, divisor: float = 1.0) -> float:
    """_log_simpson / divisor, doubling the panels from 64 until two successive values agree."""
    panels = 64
    prev = _log_simpson(log_f, lo, hi, panels) / divisor
    while panels < _MAX_PANELS:
        panels *= 2
        cur = _log_simpson(log_f, lo, hi, panels) / divisor
        if abs(cur - prev) <= QUAD_ABS_TOL:
            return cur
        prev = cur
    raise ArithmeticError("quadrature did not converge to QUAD_ABS_TOL")


def gaussian_renyi_quadrature(shift: float, sigma: float, alpha: float) -> float:
    """Order-alpha divergence between N(0, sigma^2) and N(shift, sigma^2) by quadrature.

    Integrates the raw density product p^alpha q^(1-alpha) with composite
    Simpson, doubling the panel count until two successive divergence
    values agree within QUAD_ABS_TOL.  The integrand is a scaled Gaussian
    centered at (1-alpha)*shift, so the window covers that center as well
    as both means.  A NaN or infinite shift raises ValueError, and so does
    a window wider than 2^21 standard deviations: even the finest grid,
    2^21 panels, would have panels wider than the integrand's sigma.
    """
    if not -math.inf < shift < math.inf:
        raise ValueError("shift must be finite")
    if not sigma > 0.0:
        raise ValueError("sigma must be positive")
    if not alpha > 1.0:
        raise ValueError("quadrature oracle requires alpha > 1")
    inv2s2 = 1.0 / (2.0 * sigma * sigma)
    log_norm = -0.5 * math.log(2.0 * math.pi * sigma * sigma)

    def log_f(x: float) -> float:
        lp = log_norm - x * x * inv2s2
        lq = log_norm - (x - shift) * (x - shift) * inv2s2
        return alpha * lp + (1.0 - alpha) * lq

    center = (1.0 - alpha) * shift
    w = QUAD_HALF_WIDTH_SIGMAS * sigma
    lo = min(0.0, shift, center) - w
    hi = max(0.0, shift, center) + w
    if not (hi - lo) / sigma <= _MAX_PANELS:
        raise ValueError(f"shift {shift!r} needs a window wider than 2^21 standard deviations")
    return _converged_log_simpson(log_f, lo, hi, alpha - 1.0)


def delta_from_pld(z: PrivacyLossDist, eps: float) -> float:
    """Exact delta(eps) of a discrete privacy loss: E[max(0, 1 - e^(eps - Z))].

    An infinite loss contributes its full mass.  Nonincreasing in eps; at
    eps = 0 this is the total variation distance of the generating pair.
    """
    acc = []
    for loss, prob in zip(z.losses, z.probs):
        if prob == 0.0:
            continue
        if math.isinf(loss):
            acc.append(prob)
        elif loss > eps:
            acc.append(prob * -math.expm1(eps - loss))
    total = math.fsum(acc) if acc else 0.0
    return min(1.0, max(0.0, total))


def seeded_random(seed: int) -> random.Random:
    """random.Random(seed), refusing a negative seed, which draws what -seed draws."""
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    return random.Random(seed)


def delta_gaussian_mc(eta: float, eps: float, n_samples: int, seed: int) -> tuple[float, float]:
    """Monte Carlo evaluation of the same tail functional: (estimate, std_error).

    Used to validate the closed form before it is trusted as an oracle.
    The losses come from seeded_random(seed).gauss; a NaN eps, an
    infinite eta or a negative seed raises ValueError.
    """
    if not 0.0 < eta < math.inf:
        raise ValueError("eta must be positive and finite")
    if eps != eps:
        raise ValueError("eps must be a number, got nan")
    if n_samples < 10**4:
        raise ValueError("need at least 1e4 samples")
    rng = seeded_random(seed)
    s = math.sqrt(2.0 * eta)
    vals = [max(0.0, -math.expm1(eps - rng.gauss(eta, s))) for _ in range(n_samples)]
    est = math.fsum(vals) / n_samples
    var = math.fsum((v - est) ** 2 for v in vals) / (n_samples - 1)
    return est, math.sqrt(var / n_samples)


# Half-width of gaussian_pld_discretized's window, in standard deviations.
PLD_HALF_WIDTH_SIGMAS = 12.0


def gaussian_pld_discretized(eta: float, points: int = 4000) -> PrivacyLossDist:
    """Discretized Normal(eta, 2 eta) privacy loss on a uniform grid.

    Each bin's mass sits at its upper edge, so tail masses and the delta
    functional are (slightly) overestimated; fine for checking upper
    bounds.  Mass beyond the window is folded into the end bins.
    """
    if not eta > 0.0:
        raise ValueError("eta must be positive")
    if points < 2:
        raise ValueError("need at least 2 grid points")
    s = math.sqrt(2.0 * eta)
    w = PLD_HALF_WIDTH_SIGMAS * s
    edges = grid_points(eta - w, eta + w, points + 1)
    cdf = [0.5 * math.erfc((eta - edge) / (s * _SQRT2)) for edge in edges]
    mass = [b - a for a, b in zip(cdf, cdf[1:])]
    mass[0] += cdf[0]
    mass[-1] += 1.0 - cdf[-1]
    return PrivacyLossDist(tuple(edges[1:]), tuple(mass))


@dataclass(frozen=True)
class ViolationRecord:
    """One subgaussian-bound check: lhs = centered loss MGF, rhs = claimed bound."""

    lhs: float
    rhs: float
    violated: bool


def _log_upper_tail(x: float) -> float:
    """log P[N > x] for x > 0, as log(erfcx(x/sqrt 2)/2) - x^2/2: no tail underflows."""
    return math.log(0.5 * _erfcx(x / _SQRT2)) - 0.5 * x * x


def _exp(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def mcdp_postprocess_violation(sigma: float, t: float, lam: float) -> ViolationRecord:
    """Centered loss MGF of the sign-thresholded Gaussian channel vs its claimed bound.

    With p = P[N(0, sigma^2) > t-1] and q = P[N(0, sigma^2) > t+1] the
    channel's privacy loss takes value ln(p/q) w.p. p, -ln(p/q) w.p. q and
    0 otherwise, so E[Z] = (p - q) ln(p/q) and

        lhs = (p (p/q)^lam + q (q/p)^lam + 1 - p - q) * (p/q)^(-lam (p - q)).

    rhs = e^(2 lam^2 / sigma^2) is the subgaussian bound the unthresholded
    channel satisfies with equality; violated means the thresholding broke
    it.  Assembled in the log domain because p/q is astronomically large
    for big t.
    """
    if not sigma > 0.0:
        raise ValueError("sigma must be positive")
    if not t > 1.0:
        raise ValueError("threshold must exceed 1")
    lp = _log_upper_tail((t - 1.0) / sigma)
    lq = _log_upper_tail((t + 1.0) / sigma)
    p = math.exp(lp)
    q = math.exp(lq)
    ratio_log = lp - lq  # ln(p/q) > 0
    center = -lam * (p - q) * ratio_log
    lhs = math.fsum(
        (
            _exp(lp + lam * ratio_log + center),
            _exp(lq - lam * ratio_log + center),
            (1.0 - p - q) * _exp(center),
        )
    )
    rhs = _exp(2.0 * lam * lam / (sigma * sigma))
    return ViolationRecord(lhs, rhs, lhs > rhs)


def mcdp_gaussian_check(sigma: float, lam: float) -> ViolationRecord:
    """Same check for the raw (unthresholded) Gaussian channel, by quadrature.

    The privacy loss of N(1, sigma^2) against N(-1, sigma^2) is
    Z(y) = 2 y / sigma^2 with y ~ N(1, sigma^2) and mean 2 / sigma^2; the
    centered MGF is integrated numerically and should match the bound
    e^(2 lam^2 / sigma^2) exactly, so no violation is ever reported.
    """
    if not sigma > 0.0:
        raise ValueError("sigma must be positive")
    inv2s2 = 1.0 / (2.0 * sigma * sigma)
    log_norm = -0.5 * math.log(2.0 * math.pi * sigma * sigma)
    scale = 2.0 * lam / (sigma * sigma)

    def log_f(y: float) -> float:
        return log_norm - (y - 1.0) * (y - 1.0) * inv2s2 + scale * (y - 1.0)

    center = 1.0 + 2.0 * lam
    w = QUAD_HALF_WIDTH_SIGMAS * sigma
    lo = min(1.0, center) - w
    hi = max(1.0, center) + w
    lhs = math.exp(_converged_log_simpson(log_f, lo, hi))
    rhs = _exp(2.0 * lam * lam / (sigma * sigma))
    return ViolationRecord(lhs, rhs, lhs > rhs * (1.0 + 1e-9))


def hyperbolic_inequality_check(x: float, y: float) -> bool:
    """Check (sinh x - sinh y) / sinh(x - y) <= e^(x y / 2) on 0 <= y < x <= 2."""
    if not (0.0 <= y < x <= 2.0):
        raise ValueError("requires 0 <= y < x <= 2")
    lhs = (math.sinh(x) - math.sinh(y)) / math.sinh(x - y)
    rhs = math.exp(0.5 * x * y)
    return lhs <= rhs * (1.0 + 1e-10)


@dataclass(frozen=True)
class PinskerRecord:
    plain_ok: bool
    generalized_ok: bool


def pinsker_check(p: OutcomeDist, q: OutcomeDist, f) -> PinskerRecord:
    """Check both mean-difference bounds for a statistic f on the outcome set.

    Plain: |E_p f - E_q f| <= sqrt(2 KL(p||q)), requiring |f| <= 1.
    Generalized: |E_p f - E_q f| <= sqrt(E_q f^2) sqrt(e^(D_2(p||q)) - 1),
    valid for any square-integrable f.  Both get a 1e-10 slack.
    """
    lookup = f.__getitem__ if hasattr(f, "__getitem__") and not callable(f) else f
    vals = [float(lookup(y)) for y in p.outcomes]
    if any(abs(v) > 1.0 for v in vals):
        raise ValueError("plain check requires |f| <= 1 on all outcomes")
    qp = aligned_probs(p, q)
    gap = abs(
        math.fsum(pi * v for pi, v in zip(p.probs, vals))
        - math.fsum(qi * v for qi, v in zip(qp, vals))
    )
    kl = renyi_divergence(p, q, 1.0)
    d2 = renyi_divergence(p, q, 2.0)
    plain_rhs = math.inf if math.isinf(kl) else math.sqrt(2.0 * kl)
    if math.isinf(d2):
        gen_rhs = math.inf
    else:
        second_moment = math.fsum(qi * v * v for qi, v in zip(qp, vals))
        gen_rhs = math.sqrt(second_moment) * math.sqrt(math.expm1(d2))
    return PinskerRecord(gap <= plain_rhs + 1e-10, gap <= gen_rhs + 1e-10)


@dataclass(frozen=True)
class McEstimate:
    estimate: float
    std_error: float
    support_violation: bool


def mc_divergence_estimate(
    p: OutcomeDist, q: OutcomeDist, alpha: float, n_samples: int, seed: int
) -> McEstimate:
    """Plug-in Monte Carlo estimate of D_alpha from empirical frequencies.

    Draws n_samples from each distribution with seeded_random(seed)
    (bit-reproducible), forms empirical frequency vectors, and evaluates
    the divergence on them.  The standard error comes from the delta
    method applied to the moment sum S = sum p_hat^alpha q_hat^(1-alpha)
    under independent multinomial sampling.  If the empirical p puts mass
    where the empirical q has none, the estimate is +inf and flagged.
    """
    if not alpha > 1.0 or math.isinf(alpha):
        raise ValueError("estimator requires finite alpha > 1")
    if n_samples < 10**4:
        raise ValueError("need at least 1e4 samples")
    rng = seeded_random(seed)

    def frequencies(probs: tuple[float, ...]) -> list[float]:
        counts = Counter(rng.choices(range(len(probs)), probs, k=n_samples))
        return [counts[i] / n_samples for i in range(len(probs))]

    p_hat, q_hat = frequencies(p.probs), frequencies(aligned_probs(p, q))
    if any(a > 0.0 and b == 0.0 for a, b in zip(p_hat, q_hat)):
        return McEstimate(math.inf, math.nan, True)
    # Outcomes p_hat never drew add nothing to S or to either gradient below.
    live = [(a, b, a / b) for a, b in zip(p_hat, q_hat) if a > 0.0]
    s = math.fsum(a * r ** (alpha - 1.0) for a, _, r in live)
    estimate = math.log(s) / (alpha - 1.0)
    # Delta method: gradients of S w.r.t. the two frequency vectors under
    # multinomial covariance (diag(v) - v v^T) / n.
    g_p = [(a, alpha * r ** (alpha - 1.0)) for a, _, r in live]
    g_q = [(b, (1.0 - alpha) * r**alpha) for _, b, r in live]
    var_p = (math.fsum(a * g * g for a, g in g_p) - math.fsum(a * g for a, g in g_p) ** 2) / n_samples
    var_q = (math.fsum(b * g * g for b, g in g_q) - math.fsum(b * g for b, g in g_q) ** 2) / n_samples
    var_s = max(0.0, var_p + var_q)
    std_error = math.sqrt(var_s) / ((alpha - 1.0) * s)
    return McEstimate(estimate, std_error, False)
