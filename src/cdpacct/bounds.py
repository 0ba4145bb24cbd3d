"""Desk-scale information-theoretic bounds and the purification pipeline.

Exact mutual information for finite channels, the three MI upper bounds for
concentrated budgets, the greedy packing/net construction, the packing
lower bound, and a fully enumerable exponential-mechanism-over-net
purifier that trades a concentrated guarantee for a pure one.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Hashable, Mapping, Sequence

from .accountant import ZcdpParams
from .divergence import (
    ALPHA_GRID,
    OutcomeDist,
    _divergence,
    _loss_pairs,
    aligned_probs,
    pushforward,
    renyi_divergence,
)
from .mechanisms import ExpMechSpec, exponential_mechanism, randomized_response

# Caps keeping purification at desk scale.
MAX_NET_SIZE = 10**5
MAX_ENUM_STATES = 10**6

# Full pairwise metric validation is quadratic; skip it for larger spaces.
_FULL_CHECK_LIMIT = 512


@dataclass(frozen=True)
class FiniteChannel:
    """A mechanism on a finite input set: one output distribution per input.

    Every conditional is stored in the first input's outcome order.
    """

    inputs: tuple[Hashable, ...]
    conditionals: Mapping[Hashable, OutcomeDist]

    def __post_init__(self) -> None:
        object.__setattr__(self, "inputs", tuple(self.inputs))
        conds = dict(self.conditionals)
        if set(conds) != set(self.inputs):
            raise ValueError("conditionals must cover exactly the declared inputs")
        if not self.inputs:
            raise ValueError("channel needs at least one input")
        base = conds[self.inputs[0]]
        for x in self.inputs:
            if conds[x].outcomes != base.outcomes:
                # aligned_probs refuses a conditional over a different outcome set.
                conds[x] = OutcomeDist(base.outcomes, aligned_probs(base, conds[x]))
        object.__setattr__(self, "conditionals", conds)

    def outcome_set(self) -> tuple[Hashable, ...]:
        return self.conditionals[self.inputs[0]].outcomes


def product_channel(channels: Sequence[FiniteChannel]) -> FiniteChannel:
    """Independent parallel composition; inputs and outputs become flat tuples."""
    if not channels:
        raise ValueError("need at least one channel")
    inputs = tuple(itertools.product(*(ch.inputs for ch in channels)))
    outcomes = tuple(itertools.product(*(ch.outcome_set() for ch in channels)))
    conditionals = {}
    for joint_in in inputs:
        factors = [ch.conditionals[x].probs for ch, x in zip(channels, joint_in)]
        probs = tuple(math.prod(fp) for fp in itertools.product(*factors))
        conditionals[joint_in] = OutcomeDist(outcomes, probs)
    return FiniteChannel(inputs, conditionals)


def channel_pushforward(channel: FiniteChannel, fn) -> FiniteChannel:
    """Apply an output map to every conditional (postprocessing)."""
    return FiniteChannel(
        channel.inputs, {x: pushforward(d, fn) for x, d in channel.conditionals.items()}
    )


def mutual_information(prior: OutcomeDist, channel: FiniteChannel) -> float:
    """Exact I(input; output) in nats: the prior-weighted KL to the output marginal."""
    for x, px in zip(prior.outcomes, prior.probs):
        if px > 0.0 and x not in channel.conditionals:
            raise ValueError(f"prior puts mass on {x!r}, which is not a channel input")
    outcomes = channel.outcome_set()
    marginal = [0.0] * len(outcomes)
    weighted: list[tuple[float, OutcomeDist]] = []
    for x, px in zip(prior.outcomes, prior.probs):
        if px == 0.0:
            continue
        cond = channel.conditionals[x]
        weighted.append((px, cond))
        for i, pr in enumerate(cond.probs):
            marginal[i] += px * pr
    marginal_dist = OutcomeDist(outcomes, tuple(marginal))
    return max(0.0, math.fsum(px * renyi_divergence(d, marginal_dist, 1.0) for px, d in weighted))


def mi_bound(params: ZcdpParams, n: int, structure) -> float:
    """Upper bound on I(dataset; output) for an n-entry dataset, in nats.

    structure is "general" (arbitrary correlations), "independent"
    (product prior), or an (m, l) tuple for m independent blocks of l
    perfectly-correlatable entries each (n = m * l).  A bound past the
    largest float raises ``OverflowError`` rather than returning inf.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    if params.delta_approx != 0.0:
        raise ValueError("MI bounds apply to plain budgets only")
    if isinstance(structure, str):  # "general" is one block of n, "independent" n blocks of 1
        structure = {"general": (1, n), "independent": (n, 1)}.get(structure, structure)
    if not (isinstance(structure, tuple) and len(structure) == 2):
        raise ValueError(f"unknown structure {structure!r}")
    m, l = structure
    if m < 1 or l < 1 or m * l != n:
        raise ValueError(f"blocks structure needs n = m*l, got n={n}, (m,l)={structure}")
    bound = m * (params.xi * l * (1.0 + math.log(l)) + params.rho * l * l)
    if bound == math.inf:
        raise OverflowError(f"MI bound for n={n} overflows at xi={params.xi!r}, rho={params.rho!r}")
    return bound


def certify_zcdp(
    channel: FiniteChannel,
    params: ZcdpParams,
    alphas: Sequence[float] = ALPHA_GRID,
    adjacency: Sequence[tuple[Hashable, Hashable]] | None = None,
) -> bool:
    """Check D_alpha <= xi + rho*alpha over neighbor input pairs and the order grid.

    Adjacency defaults to Hamming distance 1 when inputs are equal-length
    tuples, else all distinct pairs.  The order +inf is skipped (the bound
    is vacuous there unless rho = 0, in which case alpha = inf is checked
    against xi); -inf is a bad order like any other below 1.

    Each direction of a pair takes one log pass, whose three columns
    (masses, their logs and the privacy losses) every order reads.
    Verdicts and errors come in the same order as with one
    ``renyi_divergence`` call per order: the first violated order returns
    False, and a bad order raises ``ValueError`` when it is reached.
    (``renyi_divergence`` clamps at 0, which cannot change a verdict, since
    every bound is nonnegative.)  An empty order grid, or a pair naming an
    input the channel lacks, raises ``ValueError``.
    """
    alphas = tuple(alphas)
    if not alphas:
        raise ValueError("certify_zcdp needs at least one order")
    pairs = adjacency if adjacency is not None else _default_adjacency(channel.inputs)
    for a, b in pairs:
        for x in (a, b):
            if x not in channel.conditionals:
                raise ValueError(f"adjacency names {x!r}, which is not a channel input")
        da, db = channel.conditionals[a], channel.conditionals[b]
        # The guarantee quantifies over ordered neighbor pairs, so an
        # undirected adjacency list is checked in both directions.
        forward, backward = _loss_pairs(da, db), _loss_pairs(db, da)
        for alpha in alphas:
            if alpha == math.inf:
                if params.rho > 0.0:
                    continue
                bound = params.xi
            else:
                bound = params.xi + params.rho * alpha
            if _divergence(forward, alpha) > bound + 1e-9:
                return False
            if _divergence(backward, alpha) > bound + 1e-9:
                return False
    return True


def rr_product_channel(eps: float, n: int) -> FiniteChannel:
    """n independent bits, each through randomized response at eps; inputs are +-1 tuples."""
    plus, minus = randomized_response(eps)
    bit = FiniteChannel((1, -1), {1: plus, -1: minus})
    return product_channel([bit] * n)


def prior_mi_rows(channel: FiniteChannel, params: ZcdpParams, n: int):
    """(prior, exact MI, its bound) on n bits: independent uniform bits, then all bits equal."""
    priors = (
        ("independent", OutcomeDist.uniform(channel.inputs), "independent"),
        ("correlated", OutcomeDist(((1,) * n, (-1,) * n), (0.5, 0.5)), "general"),
    )
    return [
        (name, mutual_information(prior, channel), mi_bound(params, n, structure))
        for name, prior, structure in priors
    ]


def _default_adjacency(inputs: Sequence[Hashable]) -> list[tuple[Hashable, Hashable]]:
    tuples = all(isinstance(x, tuple) for x in inputs)
    if tuples and len({len(x) for x in inputs}) == 1:
        pairs = []
        for a, b in itertools.combinations(inputs, 2):
            if sum(u != v for u, v in zip(a, b)) == 1:
                pairs.append((a, b))
        if pairs:
            return pairs
    return list(itertools.combinations(inputs, 2))


@dataclass(frozen=True)
class MetricPointSet:
    """A finite labeled point set with a symmetric nonnegative distance.

    No triangle inequality is assumed.  Full pairwise validation runs only
    for small sets (quadratically many evaluations); the diagonal is always
    checked.
    """

    points: tuple[Hashable, ...]
    dist: Callable[[Hashable, Hashable], float]

    def __post_init__(self) -> None:
        object.__setattr__(self, "points", tuple(self.points))
        if not self.points:
            raise ValueError("point set must be nonempty")
        if len(set(self.points)) != len(self.points):
            raise ValueError("point labels must be distinct")
        for y in self.points:
            if self.dist(y, y) != 0.0:
                raise ValueError(f"distance must vanish on the diagonal, d({y!r},{y!r}) != 0")
        if len(self.points) <= _FULL_CHECK_LIMIT:
            for a, b in itertools.combinations(self.points, 2):
                dab, dba = self.dist(a, b), self.dist(b, a)
                if math.isnan(dab) or dab < 0.0:
                    raise ValueError(f"distance d({a!r},{b!r}) = {dab!r} is invalid")
                if dab != dba:
                    raise ValueError(f"distance is asymmetric on ({a!r},{b!r})")

    @classmethod
    def from_matrix(cls, points: Sequence[Hashable], matrix: Sequence[Sequence[float]]) -> "MetricPointSet":
        points = tuple(points)
        index = {y: i for i, y in enumerate(points)}
        rows = [tuple(float(v) for v in row) for row in matrix]
        return cls(points, lambda a, b: rows[index[a]][index[b]])


def greedy_packing_net(space: MetricPointSet, alpha: float) -> tuple[Hashable, ...]:
    """Greedy simultaneous packing and net at scale alpha.

    Repeatedly takes the first remaining point and discards everything
    within alpha of it.  The result is pairwise more than alpha apart
    (packing) and covers every point within alpha (net); both properties
    are re-verified before returning.
    """
    if not alpha > 0.0:
        raise ValueError("alpha must be positive")
    remaining = list(space.points)
    chosen: list[Hashable] = []
    while remaining:
        y = remaining[0]
        chosen.append(y)
        remaining = [z for z in remaining if space.dist(z, y) > alpha]
    for a, b in itertools.combinations(chosen, 2):
        if not space.dist(a, b) > alpha:
            raise AssertionError("packing property failed; distance function is inconsistent")
    for z in space.points:
        if not any(space.dist(z, y) <= alpha for y in chosen):
            raise AssertionError("net property failed; distance function is inconsistent")
    return tuple(chosen)


@dataclass(frozen=True)
class PackingRecord:
    lhs: float
    rhs: float
    consistent: bool
    min_n: float | None  # smallest real n consistent with the bound when xi = 0


def packing_lower_bound(t_size: int, beta: float, params: ZcdpParams, n: int) -> PackingRecord:
    """Consistency check of an accuracy claim against the MI upper bound.

    A mechanism that lands within the packing distance of the right net
    point with probability 1 - beta on a t_size-point instance family
    forces (1 - beta) ln(t_size) - ln 2 <= xi n (1 + ln n) + rho n^2.
    """
    if t_size < 2:
        raise ValueError("t_size must be at least 2")
    if not 0.0 <= beta < 1.0:
        raise ValueError("beta must be in [0, 1)")
    if n < 1:
        raise ValueError("n must be a positive integer")
    if params.delta_approx != 0.0:
        raise ValueError("packing bound applies to plain budgets only")
    lhs = (1.0 - beta) * math.log(t_size) - math.log(2.0)
    rhs = mi_bound(params, n, "general")
    min_n = None
    if params.xi == 0.0 and params.rho > 0.0:
        min_n = math.sqrt(max(lhs, 0.0) / params.rho)
    return PackingRecord(lhs, rhs, lhs <= rhs, min_n)


def _norm_fn(norm: str, dim: int) -> Callable[[Sequence[float]], float]:
    if norm == "linf":
        return lambda v: max(abs(c) for c in v)
    if norm == "l1_mean":
        return lambda v: math.fsum(abs(c) for c in v) / dim
    raise ValueError(f"unknown norm {norm!r}; expected 'linf' or 'l1_mean'")


@dataclass(frozen=True)
class PurifiedMechanism:
    """An exponential mechanism over a net of achievable mean-query vectors.

    Output labels are the net vectors themselves; output_dist is an exact
    softmax, so every divergence question about the mechanism is finitely
    computable.
    """

    universe: tuple[Hashable, ...]
    query: Mapping[Hashable, tuple[float, ...]]
    n_prime: int
    eps: float
    alpha: float
    norm: str
    net: tuple[tuple[float, ...], ...]
    delta_sensitivity: float

    def mean_query(self, dataset: Sequence[Hashable]) -> tuple[float, ...]:
        if len(dataset) != self.n_prime:
            raise ValueError(f"dataset must have exactly {self.n_prime} entries")
        vecs = []
        for atom in dataset:
            if atom not in self.query:
                raise ValueError(f"unknown atom {atom!r}")
            vecs.append(self.query[atom])
        dim = len(self.net[0])
        return tuple(math.fsum(v[i] for v in vecs) / self.n_prime for i in range(dim))

    def losses(self, dataset: Sequence[Hashable]) -> tuple[float, ...]:
        target = self.mean_query(dataset)
        dim = len(target)
        measure = _norm_fn(self.norm, dim)
        return tuple(measure([y[i] - target[i] for i in range(dim)]) for y in self.net)

    def output_dist(self, dataset: Sequence[Hashable]) -> OutcomeDist:
        spec = ExpMechSpec(self.losses(dataset), self.delta_sensitivity, self.eps)
        probs = exponential_mechanism(spec).probs
        return OutcomeDist(self.net, probs)

    def expected_error(self, dataset: Sequence[Hashable]) -> float:
        out = self.output_dist(dataset)
        losses = self.losses(dataset)
        return math.fsum(p * l for p, l in zip(out.probs, losses))


def purify(
    universe: Sequence[Hashable],
    q: Mapping[Hashable, Sequence[float]] | Callable[[Hashable], Sequence[float]],
    n_prime: int,
    eps: float,
    alpha: float,
    norm: str = "linf",
) -> PurifiedMechanism:
    """Build the pure-DP mechanism: net over achievable means + exponential choice.

    Enumerates every size-n_prime multiset of universe atoms, takes the
    achievable mean-query vectors, nets them at spacing 4*alpha, and
    answers with an exponential mechanism whose loss is the norm distance
    to the dataset's own mean vector.  The loss changes by at most
    2 * (max single-atom query norm) / n_prime between neighbors, which is
    the sensitivity used.
    """
    universe = tuple(universe)
    if not universe:
        raise ValueError("universe must be nonempty")
    if n_prime < 1:
        raise ValueError("n_prime must be a positive integer")
    if not eps > 0.0 or not alpha > 0.0:
        raise ValueError("eps and alpha must be positive")
    lookup = q.__getitem__ if isinstance(q, Mapping) else q
    query = {}
    dim = None
    for atom in universe:
        vec = tuple(float(c) for c in lookup(atom))
        if dim is None:
            dim = len(vec)
        if len(vec) != dim or dim == 0:
            raise ValueError("query vectors must share one positive dimension")
        if any(not 0.0 <= c <= 1.0 for c in vec):
            raise ValueError("query values must lie in [0, 1]")
        query[atom] = vec

    states = math.comb(n_prime + len(universe) - 1, len(universe) - 1)
    if states > MAX_ENUM_STATES:
        raise ValueError(f"instance too large: {states} achievable datasets exceeds cap")
    means = []
    seen = set()
    for multiset in itertools.combinations_with_replacement(universe, n_prime):
        vec = tuple(
            math.fsum(query[a][i] for a in multiset) / n_prime for i in range(dim)
        )
        if vec not in seen:
            seen.add(vec)
            means.append(vec)

    measure = _norm_fn(norm, dim)
    space = MetricPointSet(
        tuple(means), lambda a, b: measure([u - v for u, v in zip(a, b)])
    )
    net = greedy_packing_net(space, 4.0 * alpha)
    if len(net) > MAX_NET_SIZE:
        raise ValueError(f"instance too large: net has {len(net)} points")
    max_atom_norm = max(measure(query[a]) for a in universe)
    if max_atom_norm == 0.0:
        raise ValueError("query is identically zero; there is nothing to purify")
    delta_sensitivity = 2.0 * max_atom_norm / n_prime
    return PurifiedMechanism(
        universe=universe,
        query=query,
        n_prime=n_prime,
        eps=eps,
        alpha=alpha,
        norm=norm,
        net=net,
        delta_sensitivity=delta_sensitivity,
    )
