import collections
import itertools
import math
import random

import pytest

from cdpacct import (
    ALPHA_GRID,
    FiniteChannel,
    MetricPointSet,
    OutcomeDist,
    ZcdpParams,
    certify_zcdp,
    channel_pushforward,
    greedy_packing_net,
    mi_bound,
    mutual_information,
    packing_lower_bound,
    product_channel,
    purify,
    randomized_response,
    renyi_divergence,
)
from cdpacct import divergence
from conftest import random_dist


def rr_channel(eps: float) -> FiniteChannel:
    plus, minus = randomized_response(eps)
    return FiniteChannel((1, -1), {1: plus, -1: minus})


def rr_product(eps: float, n: int) -> FiniteChannel:
    return product_channel([rr_channel(eps)] * n)


class TestFiniteChannel:
    def test_requires_conditional_per_input(self):
        plus, minus = randomized_response(1.0)
        with pytest.raises(ValueError):
            FiniteChannel((1, -1, 0), {1: plus, -1: minus})

    def test_requires_shared_outcome_set(self):
        plus, _ = randomized_response(1.0)
        other = OutcomeDist(("a", "b"), (0.5, 0.5))
        with pytest.raises(ValueError):
            FiniteChannel((1, -1), {1: plus, -1: other})

    def test_conditionals_share_the_first_outcome_order(self):
        plus = OutcomeDist(("a", "b", "c"), (0.5, 0.3, 0.2))
        minus = OutcomeDist(("c", "a", "b"), (0.6, 0.1, 0.3))
        ch = FiniteChannel((1, -1), {1: plus, -1: minus})
        assert ch.conditionals[1] is plus
        assert ch.conditionals[-1] == OutcomeDist(("a", "b", "c"), (0.1, 0.3, 0.6))
        twice = product_channel([ch, ch])
        assert twice.conditionals[(1, -1)].prob_of(("b", "c")) == 0.3 * 0.6
        assert twice.conditionals[(-1, -1)].prob_of(("c", "a")) == 0.6 * 0.1

    def test_product_channel_masses(self):
        ch = rr_product(math.log(3.0), 2)
        assert set(ch.inputs) == {(1, 1), (1, -1), (-1, 1), (-1, -1)}
        d = ch.conditionals[(1, 1)]
        assert d.prob_of((1, 1)) == pytest.approx(0.5625, abs=1e-12)
        assert d.prob_of((-1, -1)) == pytest.approx(0.0625, abs=1e-12)

    def test_pushforward_collapses_outcomes(self):
        ch = rr_product(1.0, 2)
        collapsed = channel_pushforward(ch, lambda y: y[0])
        assert set(collapsed.outcome_set()) == {1, -1}


class TestMutualInformation:
    def test_binary_symmetric_channel_frozen_value(self):
        # keep probability 3/4: ln 2 minus the binary entropy of 3/4 in nats
        ch = rr_channel(math.log(3.0))
        prior = OutcomeDist.uniform((1, -1))
        assert mutual_information(prior, ch) == pytest.approx(
            0.130812035941137, abs=1e-12
        )

    def test_perfect_channel_gives_prior_entropy(self):
        ident = FiniteChannel(
            (0, 1),
            {
                0: OutcomeDist((0, 1), (1.0, 0.0)),
                1: OutcomeDist((0, 1), (0.0, 1.0)),
            },
        )
        prior = OutcomeDist.uniform((0, 1))
        assert mutual_information(prior, ident) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_constant_channel_gives_zero(self):
        same = OutcomeDist(("y",), (1.0,))
        ch = FiniteChannel((0, 1), {0: same, 1: same})
        prior = OutcomeDist.uniform((0, 1))
        assert mutual_information(prior, ch) == pytest.approx(0.0, abs=1e-15)

    def test_point_mass_prior_gives_zero(self):
        ch = rr_channel(1.0)
        prior = OutcomeDist((1,), (1.0,))
        assert mutual_information(prior, ch) == pytest.approx(0.0, abs=1e-15)

    def test_independent_of_conditional_outcome_order(self):
        plus, minus = OutcomeDist((1, -1), (0.75, 0.25)), OutcomeDist((1, -1), (0.25, 0.75))
        flipped = OutcomeDist((-1, 1), (0.75, 0.25))
        prior = OutcomeDist.uniform((1, -1))
        mi = mutual_information(prior, FiniteChannel((1, -1), {1: plus, -1: minus}))
        assert mutual_information(prior, FiniteChannel((1, -1), {1: plus, -1: flipped})) == mi

    def test_never_increases_under_output_pushforward(self, rng):
        ch = rr_product(0.9, 3)
        prior = OutcomeDist.uniform(ch.inputs)
        before = mutual_information(prior, ch)
        for fn in (lambda y: y[0], lambda y: sum(y), lambda y: 0):
            after = mutual_information(prior, channel_pushforward(ch, fn))
            assert after <= before + 1e-10


class TestMiBounds:
    def test_general_bound_formula(self):
        b = mi_bound(ZcdpParams(0.1, 0.2), 3, "general")
        assert b == pytest.approx(0.1 * 3 * (1.0 + math.log(3.0)) + 0.2 * 9, abs=1e-12)

    def test_independent_bound_formula(self):
        assert mi_bound(ZcdpParams(0.1, 0.2), 5, "independent") == pytest.approx(
            1.5, abs=1e-12
        )

    def test_block_bound_formula(self):
        b = mi_bound(ZcdpParams(0.0, 0.3), 6, (2, 3))
        assert b == pytest.approx(2 * 0.3 * 9, abs=1e-12)

    def test_named_structures_are_blocks(self):
        # "general" is one block of n entries, "independent" n blocks of one;
        # both keep the bits of their own closed forms.
        rng = random.Random(13)
        for _ in range(2000):
            xi, rho = rng.choice([0.0, 10.0 ** rng.uniform(-6, 2)]), 10.0 ** rng.uniform(-6, 2)
            n = rng.choice([1, 2, rng.randint(1, 10**6)])
            params = ZcdpParams(xi, rho)
            general = xi * n * (1.0 + math.log(n)) + rho * n * n
            assert mi_bound(params, n, "general") == mi_bound(params, n, (1, n)) == general
            assert mi_bound(params, n, "independent") == mi_bound(params, n, (n, 1)) == (xi + rho) * n

    @pytest.mark.parametrize("structure", ["blocks", [2, 2], (4,), None])
    def test_unknown_structure_rejected(self, structure):
        with pytest.raises(ValueError, match="unknown structure"):
            mi_bound(ZcdpParams(0.0, 0.3), 4, structure)

    def test_block_shape_must_match_n(self):
        with pytest.raises(ValueError):
            mi_bound(ZcdpParams(0.0, 0.3), 5, (2, 3))

    def test_rejects_approximate_budgets(self):
        with pytest.raises(ValueError):
            mi_bound(ZcdpParams(0.0, 0.3, 1e-6), 4, "general")

    def test_bound_past_the_floats_raises(self):
        # rho = 5e307 is finite, but the general bound 9 rho is not.
        with pytest.raises(OverflowError, match="overflows"):
            mi_bound(ZcdpParams(0.0, 5e307), 3, "general")
        with pytest.raises(OverflowError, match="overflows"):
            mi_bound(ZcdpParams(1e308, 0.0), 2, (1, 2))
        assert mi_bound(ZcdpParams(0.0, 5e307), 3, "independent") == 3 * 5e307
        assert mi_bound(ZcdpParams(0.0, 5e305), 8, "general") == 64 * 5e305


class TestCertification:
    def test_rr_channel_is_quadratic_zcdp(self):
        eps = 0.8
        assert certify_zcdp(rr_channel(eps), ZcdpParams(0.0, 0.5 * eps * eps))

    def test_rr_channel_is_pure_zcdp(self):
        eps = 0.8
        assert certify_zcdp(rr_channel(eps), ZcdpParams(eps, 0.0))

    def test_undersized_budget_fails(self):
        eps = 0.8
        assert not certify_zcdp(rr_channel(eps), ZcdpParams(0.0, 0.1 * eps * eps))
        assert not certify_zcdp(rr_channel(eps), ZcdpParams(0.5 * eps, 0.0))

    def test_product_channel_certifies_per_coordinate(self):
        eps = 0.6
        ch = rr_product(eps, 3)
        # Hamming-1 adjacency: each neighbor pair differs in one bit, so the
        # per-bit budget suffices.
        assert certify_zcdp(ch, ZcdpParams(0.0, 0.5 * eps * eps))

    def test_custom_adjacency_all_pairs_needs_more(self):
        eps = 0.6
        ch = rr_product(eps, 3)
        all_pairs = list(itertools.combinations(ch.inputs, 2))
        assert not certify_zcdp(ch, ZcdpParams(0.0, 0.5 * eps * eps), adjacency=all_pairs)
        assert certify_zcdp(
            ch, ZcdpParams(0.0, 9 * 0.5 * eps * eps), adjacency=all_pairs
        )

    def test_empty_order_grid_is_refused(self):
        with pytest.raises(ValueError, match="at least one order"):
            certify_zcdp(rr_product(1.0, 2), ZcdpParams(0.0, 1e-9), alphas=())

    def test_adjacency_naming_an_unknown_input_is_refused(self):
        ch = rr_product(1.0, 2)
        with pytest.raises(ValueError, match=r"\(5, 5\)"):
            certify_zcdp(ch, ZcdpParams(0.0, 1.0), adjacency=[((1, 1), (5, 5))])
        with pytest.raises(ValueError, match="'x'"):
            certify_zcdp(ch, ZcdpParams(0.0, 1.0), adjacency=[("x", (1, 1))])

    def test_bad_order_raises_only_when_reached(self):
        ch, tight = rr_channel(0.8), ZcdpParams(0.0, 0.01)
        # Order 1 is violated first, so the bad order after it is never read.
        assert certify_zcdp(ch, tight, alphas=(1.0, 0.5)) is False
        with pytest.raises(ValueError, match="order"):
            certify_zcdp(ch, tight, alphas=(0.5, 1.0))
        with pytest.raises(ValueError, match="order"):
            certify_zcdp(ch, ZcdpParams(0.0, 0.32), alphas=(1.0, 0.5))
        # Only +inf is skipped (when rho > 0): -inf is a bad order for every budget.
        for params in (ZcdpParams(0.0, 0.3), ZcdpParams(1.0, 0.0)):
            with pytest.raises(ValueError, match="got -inf"):
                certify_zcdp(rr_channel(0.7), params, alphas=(-math.inf,))

    def test_one_loss_pass_per_direction(self, monkeypatch):
        calls = []
        real = divergence.aligned_probs
        monkeypatch.setattr(divergence, "aligned_probs", lambda p, q: calls.append(1) or real(p, q))
        ch = rr_product(0.6, 3)
        assert certify_zcdp(ch, ZcdpParams(0.0, 0.18))
        # 12 Hamming-1 pairs of 3-bit inputs, one alignment per direction.
        assert len(calls) == 2 * 12

    def test_verdicts_match_one_divergence_call_per_order(self):
        rng = random.Random(20241019)
        grids = (ALPHA_GRID, (2.0, math.inf), (1.0,), (math.inf,))
        verdicts = collections.Counter()
        for _ in range(3000):
            channel = random_channel(rng)
            params = ZcdpParams(
                rng.choice((0.0, rng.uniform(0.0, 2.0))),
                rng.choice((0.0, 10.0 ** rng.uniform(-3.0, 1.0))),
            )
            alphas = rng.choice(grids)
            got = outcome(certify_zcdp, channel, params, alphas)
            assert got == outcome(per_order_certify, channel, params, alphas)
            verdicts[got] += 1
        assert set(verdicts) == {True, False}
        assert verdicts[True] >= 300 and verdicts[False] >= 300


def random_channel(rng: random.Random) -> FiniteChannel:
    """2 to 5 inputs over 2 to 4 outcomes; about one mass in six is 0."""
    outcomes = tuple(range(rng.randint(2, 4)))
    inputs = tuple(range(rng.randint(2, 5)))
    conditionals = {}
    for x in inputs:
        weights = [0.0 if rng.random() < 1 / 6 else rng.uniform(0.5, 1.0) for _ in outcomes]
        if not any(weights):
            weights[rng.randrange(len(weights))] = 1.0
        total = math.fsum(weights)
        conditionals[x] = OutcomeDist(outcomes, tuple(w / total for w in weights))
    return FiniteChannel(inputs, conditionals)


def per_order_certify(channel, params, alphas):
    """The certificate with one renyi_divergence call per order and direction."""
    for a, b in itertools.combinations(channel.inputs, 2):
        da, db = channel.conditionals[a], channel.conditionals[b]
        for alpha in alphas:
            if alpha == math.inf:
                if params.rho > 0.0:
                    continue
                bound = params.xi
            else:
                bound = params.xi + params.rho * alpha
            if renyi_divergence(da, db, alpha) > bound + 1e-9:
                return False
            if renyi_divergence(db, da, alpha) > bound + 1e-9:
                return False
    return True


def outcome(certify, channel, params, alphas):
    try:
        return certify(channel, params, alphas)
    except Exception as exc:  # the exception type is part of the answer
        return type(exc)


class TestMetricPointSet:
    def test_from_matrix(self):
        m = [[0.0, 1.0], [1.0, 0.0]]
        space = MetricPointSet.from_matrix(("a", "b"), m)
        assert space.dist("a", "b") == 1.0

    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(ValueError):
            MetricPointSet((0, 1), lambda a, b: 1.0)

    def test_rejects_asymmetry_on_small_sets(self):
        with pytest.raises(ValueError):
            MetricPointSet((0, 1), lambda a, b: 0.0 if a == b else (1.0 if a < b else 2.0))

    def test_rejects_negative_distance(self):
        with pytest.raises(ValueError):
            MetricPointSet((0, 1), lambda a, b: 0.0 if a == b else -1.0)


class TestGreedyPackingNet:
    def test_line_example(self):
        line = MetricPointSet(tuple(range(4)), lambda a, b: float(abs(a - b)))
        assert greedy_packing_net(line, 1.0) == (0, 2)

    def test_first_by_index_tie_break(self):
        pts = (0.0, 0.5, 1.0)
        space = MetricPointSet(pts, lambda a, b: abs(a - b))
        assert greedy_packing_net(space, 0.6) == (0.0, 1.0)

    def test_singleton_space(self):
        space = MetricPointSet(("only",), lambda a, b: 0.0)
        assert greedy_packing_net(space, 0.5) == ("only",)

    def test_wide_radius_collapses_to_one_point(self):
        line = MetricPointSet(tuple(range(5)), lambda a, b: float(abs(a - b)))
        assert greedy_packing_net(line, 10.0) == (0,)


class TestPackingLowerBound:
    def test_frozen_example(self):
        rec = packing_lower_bound(16, 0.5, ZcdpParams(0.0, 0.1), 3)
        assert rec.lhs == pytest.approx(0.6931471805599453, abs=1e-15)
        assert rec.min_n == pytest.approx(2.6327688477341593, abs=1e-15)
        assert rec.consistent

    def test_inconsistent_when_n_too_small(self):
        rec = packing_lower_bound(16, 0.5, ZcdpParams(0.0, 0.1), 2)
        assert not rec.consistent

    def test_min_n_absent_with_nonzero_xi(self):
        rec = packing_lower_bound(16, 0.5, ZcdpParams(0.1, 0.1), 3)
        assert rec.min_n is None


class TestPurify:
    def test_identity_query_mechanism(self):
        mech = purify((0, 1), {0: (0.0,), 1: (1.0,)}, 10, 1.0, 0.1, "linf")
        assert mech.mean_query((0,) * 10) == (0.0,)
        assert mech.mean_query((0,) * 5 + (1,) * 5) == (0.5,)
        assert mech.delta_sensitivity == pytest.approx(2.0 * 1.0 / 10, abs=1e-15)
        out = mech.output_dist((0,) * 10)
        assert math.fsum(out.probs) == pytest.approx(1.0, abs=1e-12)

    def test_pure_dp_over_all_neighbors(self):
        mech = purify((0, 1), {0: (0.0,), 1: (1.0,)}, 8, 1.0, 0.1, "linf")
        datasets = [(0,) * (8 - c) + (1,) * c for c in range(9)]
        for a, b in zip(datasets, datasets[1:]):
            da, db = mech.output_dist(a), mech.output_dist(b)
            assert renyi_divergence(da, db, math.inf) <= 1.0 + 1e-9
            assert renyi_divergence(db, da, math.inf) <= 1.0 + 1e-9

    def test_expected_error_within_guarantee(self):
        alpha, eps = 0.1, 1.0
        mech = purify((0, 1), {0: (0.0,), 1: (1.0,)}, 10, eps, alpha, "linf")
        cap = 4.0 * alpha + (2.0 * mech.delta_sensitivity / eps) * math.log(len(mech.net))
        datasets = [(0,) * (10 - c) + (1,) * c for c in range(11)]
        assert max(mech.expected_error(d) for d in datasets) <= cap

    def test_two_dimensional_query(self):
        q = {0: (0.0, 1.0), 1: (1.0, 0.0), 2: (0.5, 0.5)}
        mech = purify((0, 1, 2), q, 6, 1.0, 0.2, "l1_mean")
        out = mech.output_dist((0, 0, 1, 1, 2, 2))
        assert math.fsum(out.probs) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_query_outside_unit_box(self):
        with pytest.raises(ValueError):
            purify((0, 1), {0: (0.0,), 1: (1.5,)}, 5, 1.0, 0.1, "linf")

    def test_rejects_zero_query(self):
        with pytest.raises(ValueError):
            purify((0, 1), {0: (0.0,), 1: (0.0,)}, 5, 1.0, 0.1, "linf")

    def test_rejects_oversized_enumeration(self):
        universe = tuple(range(30))
        q = {u: (u / 29.0,) for u in universe}
        with pytest.raises(ValueError):
            purify(universe, q, 20, 1.0, 0.01, "linf")

    def test_unknown_norm_is_refused_before_enumerating(self, monkeypatch):
        # The 45,451 multisets took 0.65 s to sum before the norm was read.
        def refuse(*args):
            raise AssertionError("enumerated the multisets")

        monkeypatch.setattr(itertools, "combinations_with_replacement", refuse)
        with pytest.raises(ValueError, match="unknown norm 'l2'"):
            purify((0, 1, 2), {0: (0.0,), 1: (0.5,), 2: (1.0,)}, 300, 1.0, 0.1, "l2")
