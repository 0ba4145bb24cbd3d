"""Canonical mechanisms as explicit distribution pairs or closed-form curves.

Nothing here samples; mechanisms over finite ranges are returned as exact
OutcomeDist pairs (one per input), and the Gaussian mechanism is represented
by its closed-form divergence curve.  Sampling lives in the oracle module.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .accountant import _gaussian_rho, _rho_for_dp
from .divergence import OutcomeDist, _check_order, logsumexp


@dataclass(frozen=True)
class GaussianMech:
    """Additive Gaussian noise on a scalar query."""

    sensitivity: float  # worst-case query change between neighbors
    sigma: float  # noise standard deviation, same units

    def __post_init__(self) -> None:
        if not 0.0 <= self.sensitivity < math.inf:
            raise ValueError("sensitivity must be nonnegative and finite")
        if not 0.0 < self.sigma < math.inf:
            raise ValueError("sigma must be positive and finite")


@dataclass(frozen=True)
class MultiGaussianMech:
    """Spherical Gaussian noise on a vector query.

    The divergence between two shifted copies depends only on the Euclidean
    length of the mean shift, so everything reduces to the scalar case via
    as_scalar().
    """

    l2_sensitivity: float
    sigma: float
    dim: int

    def __post_init__(self) -> None:
        if not 0.0 <= self.l2_sensitivity < math.inf:
            raise ValueError("l2_sensitivity must be nonnegative and finite")
        if not 0.0 < self.sigma < math.inf:
            raise ValueError("sigma must be positive and finite")
        if not 1 <= self.dim < math.inf:
            raise ValueError("dim must be a positive integer")

    def as_scalar(self) -> GaussianMech:
        return GaussianMech(self.l2_sensitivity, self.sigma)


@dataclass(frozen=True)
class ExpMechSpec:
    """Loss profile of one exponential-mechanism invocation.

    candidate_losses holds the loss of each candidate for the fixed input;
    delta_sensitivity is the per-neighbor sensitivity of the loss function.
    """

    candidate_losses: tuple[float, ...]
    delta_sensitivity: float
    epsilon: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "candidate_losses", tuple(float(l) for l in self.candidate_losses))
        if not self.candidate_losses:
            raise ValueError("candidate set must be nonempty")
        if any(math.isnan(l) or math.isinf(l) for l in self.candidate_losses):
            raise ValueError("candidate losses must be finite")
        if not self.delta_sensitivity > 0.0:
            raise ValueError("delta_sensitivity must be positive")
        if not self.epsilon > 0.0:
            raise ValueError("epsilon must be positive")


def gaussian_rho(mech: GaussianMech) -> float:
    """Concentration parameter of the Gaussian mechanism: sensitivity^2 / (2 sigma^2)."""
    return _gaussian_rho(mech.sensitivity, mech.sigma)


def gaussian_renyi(shift: float, sigma: float, alpha: float) -> float:
    """Order-alpha divergence between equal-variance Gaussians shifted by `shift`: alpha * rho.

    Multivariate callers pass shift = l2 norm of the mean difference; the
    divergence depends on nothing else.
    """
    if not (abs(shift) < math.inf and 0.0 < sigma < math.inf):
        raise ValueError(f"need a finite shift and a positive finite sigma, got {shift!r}, {sigma!r}")
    alpha = _check_order(alpha)
    if math.isinf(alpha):
        return 0.0 if shift == 0.0 else math.inf
    return alpha * _gaussian_rho(abs(shift), sigma)


def calibrate_sigma_for_rho(sensitivity: float, rho: float) -> float:
    """Least float >= sensitivity / sqrt(2 rho) whose gaussian_rho meets rho, if it is a normal float."""
    if not 0.0 < sensitivity < math.inf or not 0.0 < rho < math.inf:
        raise ValueError("sensitivity and rho must be positive and finite")
    sigma = sensitivity / math.sqrt(2.0 * rho)
    while sys.float_info.min <= sigma < math.inf and _gaussian_rho(sensitivity, sigma) > rho:
        sigma = math.nextafter(sigma, math.inf)
    if not sys.float_info.min <= sigma < math.inf:
        raise ValueError(f"sigma = {sigma!r} lies outside the normal floating-point range")
    return sigma


def calibrate_sigma_for_dp(sensitivity: float, eps: float, delta: float) -> float:
    """Smallest noise scale whose refined (eps, delta) conversion meets the target.

    That is calibrate_sigma_for_rho at the largest admissible rho, which
    accountant._rho_for_dp finds to one ulp, so sigma's refined delta meets
    the target too.  For sensitivity k, sigma is within a few ulps of k
    times the sigma for sensitivity 1, as both round one real number.
    """
    if not 0.0 < sensitivity < math.inf or not 0.0 < eps < math.inf:
        raise ValueError("sensitivity and eps must be positive and finite")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must be in (0, 1)")
    return calibrate_sigma_for_rho(sensitivity, _rho_for_dp(eps, delta))


_LOG_MAX = math.log(sys.float_info.max)  # the largest eps whose e^eps is finite


def _keep(eps: float) -> float:
    """e^eps / (1 + e^eps), already 1.0 from eps ~ 37 on, so 1.0 where e^eps overflows."""
    return math.exp(eps) / (1.0 + math.exp(eps)) if eps <= _LOG_MAX else 1.0


def randomized_response(eps: float) -> tuple[OutcomeDist, OutcomeDist]:
    """Per-bit randomized response channel: output dists for inputs +1 and -1."""
    if not 0.0 < eps < math.inf:
        raise ValueError("eps must be positive and finite")
    keep = _keep(eps)
    plus = OutcomeDist((1, -1), (keep, 1.0 - keep))
    minus = OutcomeDist((1, -1), (1.0 - keep, keep))
    return plus, minus


# Outcome labels for the approximate-DP extreme mechanism: (bit, flag) with
# flag "top" marking the catastrophic branch and "bot" the private branch.
TOP = "top"
BOT = "bot"


def approx_randomized_response(eps: float, delta: float) -> tuple[OutcomeDist, OutcomeDist]:
    """The extreme mechanism realizing an (eps, delta) guarantee exactly.

    For input bit b the output is (b, top) with probability delta,
    (b, bot) with probability (1-delta) e^eps/(1+e^eps), and (1-b, bot)
    with the remaining (1-delta)/(1+e^eps); the opposite top outcome never
    occurs.  Returns the pair of distributions for b = 0 and b = 1 over the
    shared four-outcome set.
    """
    if not 0.0 <= eps < math.inf:
        raise ValueError("eps must be nonnegative and finite")
    if not 0.0 <= delta <= 1.0:
        raise ValueError("delta must be in [0, 1]")
    keep = _keep(eps)
    outcomes = ((0, TOP), (1, TOP), (0, BOT), (1, BOT))
    b0 = OutcomeDist(outcomes, (delta, 0.0, (1.0 - delta) * keep, (1.0 - delta) * (1.0 - keep)))
    b1 = OutcomeDist(outcomes, (0.0, delta, (1.0 - delta) * (1.0 - keep), (1.0 - delta) * keep))
    return b0, b1


def exponential_mechanism(spec: ExpMechSpec) -> OutcomeDist:
    """Output distribution over candidate indices, weight e^(-loss eps / 2 delta_sens).

    Normalization happens in the log domain; candidates with equal losses
    stay distinct.
    """
    scale = -spec.epsilon / (2.0 * spec.delta_sensitivity)
    logits = [scale * l for l in spec.candidate_losses]
    log_norm = logsumexp(logits)
    probs = tuple(math.exp(l - log_norm) for l in logits)
    return OutcomeDist(tuple(range(len(probs))), probs)


def normal_upper_tail(u: float, sigma: float = 1.0) -> float:
    """P[N(0, sigma^2) > u], computed via erfc so deep tails keep relative accuracy."""
    if math.isnan(u) or not 0.0 < sigma < math.inf:
        raise ValueError(f"need a number u and a positive finite sigma, got {u!r}, {sigma!r}")
    return 0.5 * math.erfc(u / (sigma * math.sqrt(2.0)))


def thresholded_gaussian(sigma: float, t: float) -> tuple[OutcomeDist, OutcomeDist]:
    """Sign-with-threshold postprocessing of the Gaussian mechanism on inputs +-1.

    Output -1, 0, or +1 according to whether the noisy value is below -t,
    between, or above +t.  With p = P[N(0, sigma^2) > t-1] and
    q = P[N(0, sigma^2) > t+1], input +1 yields (+1 w.p. p, -1 w.p. q),
    input -1 the reversal.  normal_upper_tail refuses a sigma that is not
    positive and finite.
    """
    if not t > 1.0:
        raise ValueError("threshold must exceed 1")
    p = normal_upper_tail(t - 1.0, sigma)
    q = normal_upper_tail(t + 1.0, sigma)
    mid = 1.0 - p - q
    outcomes = (-1, 0, 1)
    plus = OutcomeDist(outcomes, (q, mid, p))
    minus = OutcomeDist(outcomes, (p, mid, q))
    return plus, minus
