import math
import random

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdpacct import (
    ALPHA_GRID,
    OutcomeDist,
    PrivacyLossDist,
    aligned_probs,
    divergence_from_loss,
    loss_tail_bound,
    mixture,
    privacy_loss_dist,
    product,
    pushforward,
    renyi_divergence,
)
from cdpacct.divergence import logsumexp
from conftest import random_dist

FINITE_ALPHAS = [a for a in ALPHA_GRID if not math.isinf(a)]

BERN_34 = OutcomeDist(("h", "t"), (0.75, 0.25))
BERN_14 = OutcomeDist(("h", "t"), (0.25, 0.75))


class TestOutcomeDist:
    def test_uniform_and_point_mass(self):
        u = OutcomeDist.uniform(("a", "b", "c", "d"))
        assert u.prob_of("c") == 0.25
        pm = OutcomeDist.point_mass(7)
        assert pm.prob_of(7) == 1.0
        assert pm.support() == (7,)

    def test_uniform_needs_an_outcome(self):
        with pytest.raises(ValueError, match="at least one outcome"):
            OutcomeDist.uniform([])

    def test_uniform_reads_an_iterator_once(self):
        assert OutcomeDist.uniform(iter("ab")) == OutcomeDist(("a", "b"), (0.5, 0.5))

    def test_support_drops_zero_mass(self):
        d = OutcomeDist((0, 1, 2), (0.5, 0.0, 0.5))
        assert d.support() == (0, 2)

    def test_rejects_negative_mass(self):
        with pytest.raises(ValueError):
            OutcomeDist((0, 1), (1.2, -0.2))

    def test_rejects_bad_total(self):
        with pytest.raises(ValueError):
            OutcomeDist((0, 1), (0.6, 0.5))

    def test_rejects_total_just_outside_tolerance(self):
        with pytest.raises(ValueError):
            OutcomeDist((0, 1), (0.5, 0.5 + 3e-9))
        OutcomeDist((0, 1), (0.5, 0.5 + 3e-10))

    def test_rejects_duplicate_labels(self):
        with pytest.raises(ValueError):
            OutcomeDist((0, 0), (0.5, 0.5))

    def test_rejects_nan_and_inf(self):
        with pytest.raises(ValueError):
            OutcomeDist((0, 1), (math.nan, 1.0))
        with pytest.raises(ValueError):
            OutcomeDist((0, 1), (math.inf, 1.0))

    def test_aligned_probs_reorders(self):
        p = OutcomeDist(("a", "b"), (0.3, 0.7))
        q = OutcomeDist(("b", "a"), (0.1, 0.9))
        assert aligned_probs(p, q) == (0.9, 0.1)

    def test_aligned_probs_rejects_different_labels(self):
        p = OutcomeDist(("a", "b"), (0.3, 0.7))
        q = OutcomeDist(("a", "c"), (0.3, 0.7))
        with pytest.raises(ValueError):
            aligned_probs(p, q)


class TestRenyiDivergence:
    def test_kl_of_biased_coins(self):
        # 0.75*ln(3) + 0.25*ln(1/3) = 0.5*ln(3)
        assert renyi_divergence(BERN_34, BERN_14, 1.0) == pytest.approx(
            0.5493061443340549, abs=1e-15
        )

    def test_order_two_of_biased_coins(self):
        # ln(0.75^2/0.25 + 0.25^2/0.75) = ln(7/3)
        assert renyi_divergence(BERN_34, BERN_14, 2.0) == pytest.approx(
            0.8472978603872037, abs=1e-15
        )

    def test_max_divergence_of_biased_coins(self):
        assert renyi_divergence(BERN_34, BERN_14, math.inf) == pytest.approx(
            math.log(3.0), abs=1e-15
        )

    def test_point_mass_versus_uniform(self):
        pm = OutcomeDist(("a", "b"), (1.0, 0.0))
        u = OutcomeDist.uniform(("a", "b"))
        # p is supported on one label, so every order gives ln 2.
        for a in ALPHA_GRID:
            assert renyi_divergence(pm, u, a) == pytest.approx(0.6931471805599453, abs=1e-15)

    def test_identical_dists_have_zero_divergence(self, rng):
        for _ in range(20):
            p = random_dist(rng, int(rng.integers(2, 7)))
            for a in ALPHA_GRID:
                assert renyi_divergence(p, p, a) == pytest.approx(0.0, abs=1e-12)

    def test_distinct_dists_have_positive_divergence(self):
        p = OutcomeDist((0, 1), (0.6, 0.4))
        q = OutcomeDist((0, 1), (0.4, 0.6))
        for a in ALPHA_GRID:
            assert renyi_divergence(p, q, a) > 0.0

    def test_absolute_continuity_failure_is_inf(self):
        p = OutcomeDist((0, 1), (0.5, 0.5))
        q = OutcomeDist((0, 1), (1.0, 0.0))
        for a in ALPHA_GRID:
            assert renyi_divergence(p, q, a) == math.inf

    def test_zero_mass_in_p_is_ignored(self):
        p = OutcomeDist((0, 1, 2), (0.5, 0.5, 0.0))
        q = OutcomeDist((0, 1, 2), (0.25, 0.25, 0.5))
        # outcome 2 has p=0, so the missing q mass there is irrelevant
        assert renyi_divergence(p, q, 2.0) == pytest.approx(math.log(2.0), abs=1e-12)
        assert renyi_divergence(p, q, math.inf) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_rejects_orders_below_one(self):
        with pytest.raises(ValueError):
            renyi_divergence(BERN_34, BERN_14, 0.5)
        with pytest.raises(ValueError):
            renyi_divergence(BERN_34, BERN_14, math.nan)

    def test_large_order_does_not_overflow(self):
        p = OutcomeDist((0, 1), (1.0 - 1e-9, 1e-9))
        q = OutcomeDist((0, 1), (1e-9, 1.0 - 1e-9))
        d = renyi_divergence(p, q, 1000.0)
        assert math.isfinite(d)
        assert d <= renyi_divergence(p, q, math.inf) + 1e-9


class TestCalculusProperties:
    def test_monotone_in_order(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 7))
            p = random_dist(rng, n, allow_zero=True)
            q = random_dist(rng, n)
            values = [renyi_divergence(p, q, a) for a in ALPHA_GRID]
            for lo, hi in zip(values, values[1:]):
                assert lo <= hi + 1e-10

    def test_product_additivity(self, rng):
        for _ in range(30):
            n1, n2 = int(rng.integers(2, 5)), int(rng.integers(2, 5))
            p1, q1 = random_dist(rng, n1), random_dist(rng, n1)
            p2, q2 = random_dist(rng, n2), random_dist(rng, n2)
            for a in ALPHA_GRID:
                joint = renyi_divergence(product(p1, p2), product(q1, q2), a)
                split = renyi_divergence(p1, q1, a) + renyi_divergence(p2, q2, a)
                assert joint == pytest.approx(split, abs=1e-9)

    def test_data_processing_never_increases(self, rng):
        for _ in range(30):
            n = int(rng.integers(3, 7))
            p, q = random_dist(rng, n), random_dist(rng, n)
            fn = {y: int(rng.integers(0, 2)) for y in p.outcomes}
            for a in ALPHA_GRID:
                pushed = renyi_divergence(pushforward(p, fn), pushforward(q, fn), a)
                assert pushed <= renyi_divergence(p, q, a) + 1e-10

    def test_quasi_convexity_and_kl_convexity(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 6))
            p0, q0 = random_dist(rng, n), random_dist(rng, n)
            p1, q1 = random_dist(rng, n), random_dist(rng, n)
            t = float(rng.random())
            mp, mq = mixture(p0, p1, t), mixture(q0, q1, t)
            for a in ALPHA_GRID:
                cap = max(renyi_divergence(p0, q0, a), renyi_divergence(p1, q1, a))
                assert renyi_divergence(mp, mq, a) <= cap + 1e-10
            kl_mix = renyi_divergence(mp, mq, 1.0)
            kl_avg = (1.0 - t) * renyi_divergence(p0, q0, 1.0) + t * renyi_divergence(
                p1, q1, 1.0
            )
            assert kl_mix <= kl_avg + 1e-10

    def test_triangle_like_inequality(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 6))
            p, r, q = random_dist(rng, n), random_dist(rng, n), random_dist(rng, n)
            for k in (1.5, 2.0, 4.0):
                for a in (1.5, 2.0, 4.0):
                    inner = (k * a - 1.0) / (k - 1.0)
                    rhs = (k * a / (k * a - 1.0)) * renyi_divergence(
                        p, r, inner
                    ) + renyi_divergence(r, q, k * a)
                    assert renyi_divergence(p, q, a) <= rhs + 1e-9


@st.composite
def dist_pairs(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    weights = st.lists(
        st.floats(min_value=0.01, max_value=1.0, allow_nan=False),
        min_size=n,
        max_size=n,
    )
    wp = draw(weights)
    wq = draw(weights)
    sp, sq = math.fsum(wp), math.fsum(wq)
    p = OutcomeDist(tuple(range(n)), tuple(w / sp for w in wp))
    q = OutcomeDist(tuple(range(n)), tuple(w / sq for w in wq))
    return p, q


@settings(max_examples=100, deadline=None)
@given(dist_pairs(), st.sampled_from(ALPHA_GRID))
def test_divergence_is_non_negative(pair, alpha):
    p, q = pair
    assert renyi_divergence(p, q, alpha) >= 0.0


@settings(max_examples=100, deadline=None)
@given(dist_pairs())
def test_loss_moment_identity_matches_divergence(pair):
    p, q = pair
    pld = privacy_loss_dist(p, q)
    for a in ALPHA_GRID:
        assert divergence_from_loss(pld, a) == pytest.approx(
            renyi_divergence(p, q, a), abs=1e-10
        )


class TestPrivacyLossDist:
    def test_merges_equal_ratios(self):
        p = OutcomeDist((0, 1, 2), (0.2, 0.2, 0.6))
        q = OutcomeDist((0, 1, 2), (0.1, 0.1, 0.8))
        pld = privacy_loss_dist(p, q)
        assert len(pld.losses) == 2
        assert pld.losses == tuple(sorted(pld.losses))
        idx = pld.losses.index(pytest.approx(math.log(2.0)))
        assert pld.probs[idx] == pytest.approx(0.4, abs=1e-15)

    def test_infinite_loss_carries_unmatched_mass(self):
        p = OutcomeDist((0, 1), (0.7, 0.3))
        q = OutcomeDist((0, 1), (1.0, 0.0))
        pld = privacy_loss_dist(p, q)
        assert math.inf in pld.losses
        assert pld.probs[pld.losses.index(math.inf)] == pytest.approx(0.3)
        assert divergence_from_loss(pld, 2.0) == math.inf

    def test_rejects_nan_and_negative_inf_losses(self):
        with pytest.raises(ValueError):
            PrivacyLossDist((math.nan,), (1.0,))
        with pytest.raises(ValueError):
            PrivacyLossDist((-math.inf,), (1.0,))

    def test_tail_mass(self):
        pld = PrivacyLossDist((-1.0, 0.0, 2.0), (0.2, 0.5, 0.3))
        assert pld.tail_mass(1.0) == pytest.approx(0.3)
        assert pld.tail_mass(-2.0) == pytest.approx(1.0)
        assert pld.tail_mass(2.0) == pytest.approx(0.0)

    def test_mean_loss_is_kl(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 6))
            p, q = random_dist(rng, n), random_dist(rng, n)
            pld = privacy_loss_dist(p, q)
            mean = math.fsum(z * w for z, w in zip(pld.losses, pld.probs))
            assert mean == pytest.approx(renyi_divergence(p, q, 1.0), abs=1e-10)

    def test_tail_bound_dominates_subgaussian_tail(self):
        # Pr[loss > lam + xi + rho] <= exp(-lam^2 / (4 rho)) for a pair
        # whose divergence curve sits below xi + rho*alpha.
        eps = 0.8
        plus = OutcomeDist((1, -1), (math.exp(eps) / (1 + math.exp(eps)), 1 / (1 + math.exp(eps))))
        minus = OutcomeDist((1, -1), (1 / (1 + math.exp(eps)), math.exp(eps) / (1 + math.exp(eps))))
        pld = privacy_loss_dist(plus, minus)
        rho = 0.5 * eps * eps
        for lam in (0.1, 0.5, 1.0, 2.0):
            assert pld.tail_mass(lam + rho) <= loss_tail_bound(0.0, rho, lam) + 1e-12

    def test_loss_tail_bound_zero_rho(self):
        assert loss_tail_bound(0.5, 0.0, 1.0) == 0.0
        assert loss_tail_bound(0.0, 0.5, 2.0) == pytest.approx(math.exp(-2.0), abs=1e-15)

    @pytest.mark.parametrize(
        "xi, rho",
        [(math.nan, 0.5), (math.inf, 0.5), (0.0, math.nan), (0.0, math.inf), (-1.0, 0.5), (0.0, -0.5)],
    )
    def test_loss_tail_bound_rejects_bad_xi_and_rho(self, xi, rho):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            loss_tail_bound(xi, rho, 1.0)

    @pytest.mark.parametrize("lam", [math.nan, -1.0, -math.inf])
    def test_loss_tail_bound_rejects_bad_lambda(self, lam):
        with pytest.raises(ValueError, match="lambda must be nonnegative"):
            loss_tail_bound(0.0, 1.0, lam)

    def test_loss_tail_bound_accepts_lambda_zero_and_inf(self):
        assert loss_tail_bound(0.0, 1.0, 0.0) == 1.0
        assert loss_tail_bound(0.0, 1.0, math.inf) == 0.0

    def test_loss_tail_bound_where_lambda_squared_and_four_rho_overflow(self):
        # lam^2 / (4 rho) is inf / inf in floats.
        assert loss_tail_bound(0.0, 1.7e308, 1e200) == 0.0
        assert loss_tail_bound(0.0, 1.7e308, math.inf) == 0.0
        # (lam / 2)^2 / rho = 4.9e307 / 1.7e308, about 0.288.
        assert loss_tail_bound(0.0, 1.7e308, 1.4e154) == pytest.approx(math.exp(-4.9e307 / 1.7e308), rel=1e-15)

    def test_loss_tail_bound_where_lambda_squared_overflows_alone(self):
        # lam^2 is inf but 4 rho = 1.6e308 is not: the bound is e^(-1.14).
        bound = loss_tail_bound(0.0, 4e307, 1.35e154)
        assert bound == pytest.approx(math.exp(-((0.5 * 1.35e154) ** 2) / 4e307), rel=1e-15)
        assert bound == pytest.approx(0.32, abs=0.01)

    def test_loss_tail_bound_where_four_rho_overflows_alone(self):
        # 4 rho is inf but lam^2 = 1.69e308 is not: the bound is e^(-0.4225), not 1.
        assert loss_tail_bound(0.0, 1e308, 1.3e154) == pytest.approx(math.exp(-0.4225), rel=1e-15)
        rng = random.Random(1924)
        for _ in range(500):
            rho = rng.uniform(4.5e307, 1.7976931348623157e308)
            lam = 10.0 ** rng.uniform(150.0, 154.12)
            expect = float(mpmath.exp(-(mpmath.mpf(lam) ** 2 / (4 * mpmath.mpf(rho)))))
            assert loss_tail_bound(0.0, rho, lam) == pytest.approx(expect, rel=1e-14), (rho, lam)

    def test_loss_tail_bound_where_lambda_squared_is_subnormal(self):
        # Below lam = 2^-511, lam^2 is subnormal and has lost digits.  With
        # rho from 1e-323 to 1e-300 and lam^2 / (4 rho) at most 50 the bound
        # is a positive float; lam^2 / (4 rho) read it up to 5% high.
        rng = random.Random(2405)
        for _ in range(1000):
            rho = 10.0 ** rng.uniform(-323.0, -300.0)
            top = min(math.log10(2.0 * math.sqrt(50.0 * rho)), -511.0 * math.log10(2.0))
            lam = 10.0 ** rng.uniform(top - 6.0, top)
            with mpmath.workdps(50):
                expect = float(mpmath.exp(-(mpmath.mpf(lam) ** 2 / (4 * mpmath.mpf(rho)))))
            assert loss_tail_bound(0.0, rho, lam) == pytest.approx(expect, rel=1e-12, abs=0.0), (rho, lam)

    def test_loss_tail_bound_keeps_its_bits_where_lambda_squared_is_finite(self):
        rng = random.Random(1923)
        for _ in range(3000):
            # Half the draws have rho near the top, where 4 rho is still finite.
            rho = rng.choice([10.0 ** rng.uniform(-300.0, 307.65), rng.uniform(1e307, 4.49e307)])
            lam = rng.choice([0.0, 10.0 ** rng.uniform(-300.0, 154.12), 10.0 ** rng.uniform(153.0, 154.12)])
            assert 4.0 * rho < math.inf
            if lam * lam < math.inf:
                expect = math.exp(-(lam * lam / (4.0 * rho)))
                assert loss_tail_bound(0.0, rho, lam).hex() == expect.hex(), (rho, lam)


class TestTransforms:
    def test_pushforward_with_mapping_and_callable(self):
        p = OutcomeDist((0, 1, 2), (0.2, 0.3, 0.5))
        merged = pushforward(p, {0: "x", 1: "x", 2: "y"})
        assert merged.prob_of("x") == pytest.approx(0.5)
        doubled = pushforward(p, lambda y: y * 2)
        assert doubled.prob_of(4) == pytest.approx(0.5)

    def test_pushforward_rejects_missing_key(self):
        p = OutcomeDist((0, 1), (0.5, 0.5))
        with pytest.raises(ValueError):
            pushforward(p, {0: "x"})

    def test_product_masses(self):
        p = OutcomeDist((0, 1), (0.25, 0.75))
        q = OutcomeDist(("a",), (1.0,))
        pr = product(p, q)
        assert pr.prob_of((1, "a")) == pytest.approx(0.75)

    def test_mixture_weights(self):
        p0 = OutcomeDist((0, 1), (1.0, 0.0))
        p1 = OutcomeDist((0, 1), (0.0, 1.0))
        m = mixture(p0, p1, 0.25)
        assert m.prob_of(1) == pytest.approx(0.25)


def fifty_digit_logsumexp(terms):
    with mpmath.workdps(50):
        return float(mpmath.log(mpmath.fsum(mpmath.exp(t) for t in terms)))


class TestLogSumExp:
    """The pure-Python kernel against 50-digit mpmath; "scipy" in the names is the reference it replaced."""

    def test_agrees_with_scipy_on_random_inputs(self):
        rng = np.random.default_rng(20240806)
        for _ in range(2000):
            size = int(rng.integers(1, 65))
            scale = float(rng.choice([1.0, 10.0, 100.0, 1000.0]))
            terms = [float(t) for t in rng.uniform(-scale, scale, size)]
            assert logsumexp(terms) == pytest.approx(fifty_digit_logsumexp(terms), rel=1e-14, abs=0.0)

    @pytest.mark.parametrize(
        "terms",
        [
            [-3.5],
            [0.0],
            [2.0] * 7,
            [-700.0] * 40,
            [1.0, math.inf, -2.0],
            [math.inf, math.inf],
            [-math.inf, 0.5, -1.0],
            [-math.inf, -math.inf],
        ],
    )
    def test_matches_scipy_on_edge_inputs(self, terms):
        expected = fifty_digit_logsumexp(terms)
        got = logsumexp(terms)
        if math.isinf(expected):
            assert got == expected
        else:
            assert got == pytest.approx(expected, rel=1e-15, abs=0.0)

    # D at orders 1, inf and 1e308, as once computed with scipy's logsumexp.
    @pytest.mark.parametrize(
        "p, q, expected",
        [
            ((0.75, 0.25), (0.25, 0.75), (0.5493061443340548, 1.0986122886681096, 1.0986122886681096)),
            ((0.1, 0.2, 0.3, 0.4), (0.4, 0.3, 0.2, 0.1), (0.4564348191467835, 1.3862943611198904, 1.3862943611198904)),
            ((0.5, 0.5, 0.0), (0.2, 0.3, 0.5), (0.7135581778200729, 0.916290731874155, 0.9162907318741551)),
            ((0.2, 0.3, 0.5), (0.5, 0.5, 0.0), (math.inf, math.inf, math.inf)),
            ((0.5, 0.5), (0.5 + 1e-12, 0.5 - 1e-12), (0.0, 1.999955756559757e-12, 1.999955756559757e-12)),
            ((0.9, 0.1), (0.1, 0.9), (1.7577796618689754, 2.197224577336219, math.inf)),
        ],
    )
    def test_extreme_orders_unchanged(self, p, q, expected):
        labels = tuple(range(len(p)))
        dp, dq = OutcomeDist(labels, p), OutcomeDist(labels, q)
        assert tuple(renyi_divergence(dp, dq, a) for a in (1.0, math.inf, 1e308)) == expected


def per_order_divergence(pairs, order):
    """Order-alpha divergence of (mass, loss) pairs, taking log(mass) again at each order."""
    if any(math.isinf(l) for _, l in pairs):
        return math.inf
    if order == 1.0:
        return math.fsum(m * l for m, l in pairs)
    if math.isinf(order):
        return max(l for _, l in pairs)
    return logsumexp([math.log(m) + (order - 1.0) * l for m, l in pairs]) / (order - 1.0)


def edge_masses(rng, n):
    """n masses summing to 1: some zero, some subnormal, the rest uniform weights."""
    masses = []
    for _ in range(n):
        kind = rng.random()
        if kind < 0.15:
            masses.append(0.0)
        elif kind < 0.3:
            masses.append(rng.choice([5e-324, 1e-310, 2.5e-320, 1e-300]) * rng.uniform(1.0, 4.0))
        else:
            masses.append(rng.uniform(0.01, 1.0))
    if not any(m > 1e-300 for m in masses):
        masses[rng.randrange(n)] = 1.0
    total = math.fsum(masses)
    return tuple(m / total for m in masses)


class TestSharedLogPass:
    """Every order reads log p(y) from the one loss pass: the values keep the per-order bits."""

    ORDERS = (1.0, 1.0 + 1e-12, *ALPHA_GRID, 1e308, math.inf)

    def test_same_bits_as_a_log_at_every_order(self):
        rng = random.Random(2201)
        checked = {"zero_q": 0, "subnormal": 0, "finite": 0}
        for i in range(600):
            n = 1 + i % 40
            labels = tuple(range(n))
            p, q = OutcomeDist(labels, edge_masses(rng, n)), OutcomeDist(labels, edge_masses(rng, n))
            pairs = [
                (pi, math.inf if qi == 0.0 else math.log(pi) - math.log(qi))
                for pi, qi in zip(p.probs, q.probs)
                if pi > 0.0
            ]
            z = privacy_loss_dist(p, q)
            z_pairs = [(pr, l) for l, pr in zip(z.losses, z.probs) if pr > 0.0]
            for order in self.ORDERS:
                assert renyi_divergence(p, q, order) == max(0.0, per_order_divergence(pairs, order))
                assert divergence_from_loss(z, order) == per_order_divergence(z_pairs, order)
            checked["zero_q"] += any(math.isinf(l) for _, l in pairs)
            checked["subnormal"] += any(0.0 < m < 2.3e-308 for m, _ in pairs)
            checked["finite"] += math.isfinite(renyi_divergence(p, q, 2.0))
        assert min(checked.values()) > 50, checked
