"""Exact Renyi divergences over finite discrete distributions.

Everything in this module works on explicit finite outcome sets and is a
pure function of its inputs.  Probability vectors are validated at
construction and never silently renormalized.  Order-alpha computations run
in the log domain so that large orders stay finite; the order-1 (KL) and
order-infinity (max divergence) limits use their own closed forms rather
than a numeric limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Hashable, Mapping, Sequence

# Order of a Renyi divergence: float >= 1, math.inf selects max divergence.
RenyiOrder = float

# A divergence value: finite float or +inf, never NaN.
ExtendedReal = float

# Probability mass must sum to 1 within this tolerance or be rejected.
PROB_TOL = 1e-9

# Standard order grid used by property checks and zCDP certification.
ALPHA_GRID = (1.0, 1.01, 1.1, 1.5, 2.0, 3.0, 5.0, 10.0, 100.0, math.inf)


def _check_order(order: float) -> float:
    order = float(order)
    if math.isnan(order) or order < 1.0:
        raise ValueError(f"Renyi order must be >= 1 (or inf), got {order!r}")
    return order


def _check_probs(probs: Sequence[float], what: str) -> None:
    for p in probs:
        if math.isnan(p) or p < 0.0 or math.isinf(p):
            raise ValueError(f"{what} has an invalid probability {p!r}")
    total = math.fsum(probs)
    if abs(total - 1.0) > PROB_TOL:
        raise ValueError(f"{what} mass sums to {total!r}, not 1")


@dataclass(frozen=True)
class OutcomeDist:
    """A probability distribution on an explicit finite set of labels.

    Args:
        outcomes: distinct hashable labels.
        probs: nonnegative reals of the same length, summing to 1 within
            ``PROB_TOL``.
    """

    outcomes: tuple[Hashable, ...]
    probs: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "outcomes", tuple(self.outcomes))
        object.__setattr__(self, "probs", tuple(float(p) for p in self.probs))
        if len(self.outcomes) != len(self.probs):
            raise ValueError("outcomes and probs must have equal length")
        if not self.outcomes:
            raise ValueError("distribution needs at least one outcome")
        if len(set(self.outcomes)) != len(self.outcomes):
            raise ValueError("outcome labels must be distinct")
        _check_probs(self.probs, "OutcomeDist")

    @classmethod
    def uniform(cls, outcomes: Sequence[Hashable]) -> "OutcomeDist":
        outcomes = tuple(outcomes)
        if not outcomes:
            raise ValueError("distribution needs at least one outcome")
        return cls(outcomes, (1.0 / len(outcomes),) * len(outcomes))

    @classmethod
    def point_mass(cls, outcome: Hashable) -> "OutcomeDist":
        return cls((outcome,), (1.0,))

    def prob_of(self, outcome: Hashable) -> float:
        try:
            return self.probs[self.outcomes.index(outcome)]
        except ValueError:
            raise ValueError(f"unknown outcome {outcome!r}") from None

    def support(self) -> tuple[Hashable, ...]:
        return tuple(y for y, p in zip(self.outcomes, self.probs) if p > 0.0)


def aligned_probs(p: OutcomeDist, q: OutcomeDist) -> tuple[float, ...]:
    """q's probabilities reordered to p's outcome order.

    The two distributions must be over the same label set; a genuinely
    different outcome set is a caller bug, not something to paper over.
    """
    if p.outcomes == q.outcomes:
        return q.probs
    if set(p.outcomes) != set(q.outcomes):
        raise ValueError("distributions are over different outcome sets")
    index = {y: i for i, y in enumerate(q.outcomes)}
    return tuple(q.probs[index[y]] for y in p.outcomes)


def _loss_pairs(p: OutcomeDist, q: OutcomeDist) -> tuple[list[float], list[float], list[float]]:
    """Columns p(y), log p(y) and log p(y) - log q(y) over p's support: the one log pass of a pair.

    A loss is +inf where q(y) = 0, never -inf or NaN; every order reads log p(y) from here.
    """
    columns = masses, log_masses, losses = [], [], []
    for pi, qi in zip(p.probs, aligned_probs(p, q)):
        if pi > 0.0:
            masses.append(pi)
            log_masses.append(lp := math.log(pi))
            losses.append(math.inf if qi == 0.0 else lp - math.log(qi))
    return columns


def logsumexp(terms: Sequence[float]) -> float:
    """log(sum(exp(t))) shifted by the largest term, which is returned as is when infinite.

    The top term's exp(0) = 1 leaves the exact sum, so log1p keeps the rest to full precision.
    """
    top = max(terms)
    if math.isinf(top):
        return top
    return top + math.log1p(math.fsum([math.exp(t - top) for t in terms] + [-1.0]))


def _divergence(columns: tuple[Sequence[float], ...], order: RenyiOrder) -> ExtendedReal:
    """Order-alpha divergence of a loss pass's columns: masses, log masses and losses.

    Masses are positive and losses finite or +inf.  E[Z] at alpha = 1, the
    top loss at alpha = inf, else (1/(alpha-1)) * log E[e^((alpha-1) Z)] via log-sum-exp.
    """
    order = _check_order(order)
    masses, log_masses, losses = columns
    if math.inf in losses:
        return math.inf
    if order == 1.0:
        return math.fsum(m * l for m, l in zip(masses, losses))
    if math.isinf(order):
        return max(losses)
    a = order - 1.0
    return logsumexp([log_m + a * l for log_m, l in zip(log_masses, losses)]) / a


def renyi_divergence(p: OutcomeDist, q: OutcomeDist, order: RenyiOrder) -> ExtendedReal:
    """Renyi divergence D_alpha(p || q) in nats.

    Order 1 is the KL divergence, order inf the max divergence
    sup log(p/q) over p's support.  Finite orders above 1 evaluate
    (1/(alpha-1)) * log sum p^alpha q^(1-alpha) via log-sum-exp.
    Returns +inf whenever p puts mass where q has none.
    """
    return max(0.0, _divergence(_loss_pairs(p, q), order))


def _round_loss(z: float) -> float:
    # Canonical form: 12 significant digits, so equal losses computed along
    # different float paths merge deterministically.
    if math.isinf(z):
        return z
    return float(f"{z:.11e}") + 0.0  # +0.0 folds -0.0 into 0.0


@dataclass(frozen=True)
class PrivacyLossDist:
    """Distribution of the privacy loss Z = log(p(y)/q(y)) with y drawn from p.

    Losses are finite reals or +inf (absolute-continuity failure).  The
    constructor canonicalizes: losses are rounded to 12 significant digits,
    equal losses merged, and entries sorted by loss with +inf last.
    """

    losses: tuple[float, ...]
    probs: tuple[float, ...]

    def __post_init__(self) -> None:
        losses = tuple(float(z) for z in self.losses)
        probs = tuple(float(p) for p in self.probs)
        if len(losses) != len(probs):
            raise ValueError("losses and probs must have equal length")
        if not losses:
            raise ValueError("loss distribution needs at least one entry")
        for z in losses:
            if math.isnan(z) or z == -math.inf:
                raise ValueError(f"invalid loss value {z!r}")
        _check_probs(probs, "PrivacyLossDist")
        merged: dict[float, float] = {}
        for z, p in zip(losses, probs):
            key = _round_loss(z)
            merged[key] = merged.get(key, 0.0) + p
        ordered = sorted(merged.items())
        object.__setattr__(self, "losses", tuple(z for z, _ in ordered))
        object.__setattr__(self, "probs", tuple(p for _, p in ordered))

    def tail_mass(self, threshold: float) -> float:
        """Total probability of losses strictly above the threshold."""
        return math.fsum(p for z, p in zip(self.losses, self.probs) if z > threshold)


def privacy_loss_dist(p: OutcomeDist, q: OutcomeDist) -> PrivacyLossDist:
    """Privacy-loss distribution of p against q.

    Outcomes with p(y) = 0 are omitted; an outcome with p(y) > 0 and
    q(y) = 0 contributes loss +inf.
    """
    masses, _, losses = _loss_pairs(p, q)
    return PrivacyLossDist(losses, masses)


def divergence_from_loss(z: PrivacyLossDist, order: RenyiOrder) -> ExtendedReal:
    """Renyi divergence recovered from a privacy-loss distribution.

    Uses the moment identity (1/(alpha-1)) * log E[e^((alpha-1) Z)] for
    finite alpha > 1, E[Z] at alpha = 1, and the top of the support at
    alpha = inf.  Agrees with renyi_divergence on the generating pair.
    """
    masses, losses = zip(*((pr, l) for l, pr in zip(z.losses, z.probs) if pr > 0.0))
    return _divergence((masses, [math.log(m) for m in masses], losses), order)


def pushforward(p: OutcomeDist, fn: Callable[[Hashable], Hashable] | Mapping) -> OutcomeDist:
    """Image of p under an outcome map; collided labels have their mass summed."""
    lookup = fn.__getitem__ if isinstance(fn, Mapping) else fn
    mass: dict[Hashable, float] = {}  # labels in order of first appearance
    for y, pr in zip(p.outcomes, p.probs):
        try:
            label = lookup(y)
        except KeyError:
            raise ValueError(f"map not defined on outcome {y!r}") from None
        mass[label] = mass.get(label, 0.0) + pr
    return OutcomeDist(tuple(mass), tuple(mass.values()))


def product(p1: OutcomeDist, p2: OutcomeDist) -> OutcomeDist:
    """Independent product distribution on outcome pairs."""
    outcomes = tuple((a, b) for a in p1.outcomes for b in p2.outcomes)
    probs = tuple(pa * pb for pa in p1.probs for pb in p2.probs)
    return OutcomeDist(outcomes, probs)


def mixture(p0: OutcomeDist, p1: OutcomeDist, t: float) -> OutcomeDist:
    """Pointwise convex combination t*p1 + (1-t)*p0 on a shared outcome set."""
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"mixture weight must be in [0, 1], got {t!r}")
    p1_aligned = aligned_probs(p0, p1)
    probs = tuple(t * b + (1.0 - t) * a for a, b in zip(p0.probs, p1_aligned))
    return OutcomeDist(p0.outcomes, probs)


def loss_tail_bound(xi: float, rho: float, lam: float) -> float:
    """Subgaussian tail bound on P[Z > lam + xi + rho] for a certified loss.

    A privacy loss certified at (xi, rho) satisfies this bound for every
    lam >= 0.  With rho = 0 the loss never exceeds xi, so the bound is 0.
    """
    if not (0.0 <= xi < math.inf and 0.0 <= rho < math.inf):
        raise ValueError("xi and rho must be finite and nonnegative")
    if not lam >= 0.0:
        raise ValueError("lambda must be nonnegative")
    if rho == 0.0:
        return 0.0
    square, four_rho = lam * lam, 4.0 * rho
    # (lam / (2 sqrt(rho)))^2 where lam^2 or 4 rho overflows, or lam^2 is subnormal (lam < 2^-511).
    if lam < 2.0**-511 or square == math.inf or four_rho == math.inf:
        half = lam / (2.0 * math.sqrt(rho))
        return math.exp(-(half * half))
    return math.exp(-square / four_rho)
