"""Acceptance gate: eleven oracle-equivalence and property criteria.

Each criterion is one test, so `pytest -v` prints one pass/fail line per
criterion.  Tolerances are stated inline; randomized sweeps use fixed
seeds so the suite is reproducible run to run.
"""

import itertools
import json
import math

import numpy as np
import pytest

from cdpacct import (
    ALPHA_GRID,
    DpPoint,
    FiniteChannel,
    MetricPointSet,
    OutcomeDist,
    ZcdpParams,
    advanced_composition_baseline,
    delta_exact_gaussian,
    dp_composition_bound,
    gaussian_renyi,
    gaussian_renyi_quadrature,
    gaussian_rho,
    GaussianMech,
    greedy_packing_net,
    hyperbolic_inequality_check,
    mc_divergence_estimate,
    mcdp_gaussian_check,
    mcdp_postprocess_violation,
    mi_bound,
    mixture,
    mutual_information,
    packing_lower_bound,
    pinsker_check,
    product,
    product_channel,
    pushforward,
    randomized_response,
    renyi_divergence,
    zcdp_to_dp_refined,
)
from cdpacct.cli import main
from conftest import random_dist

FINITE_ALPHAS = [a for a in ALPHA_GRID if not math.isinf(a)]


def test_criterion_01_gaussian_closed_form_matches_quadrature():
    for alpha in (1.5, 2.0, 10.0):
        for sigma in (0.5, 1.0, 2.0):
            for shift in (0.1, 1.0, 3.0):
                numeric = gaussian_renyi_quadrature(shift, sigma, alpha)
                closed = gaussian_renyi(shift, sigma, alpha)
                assert abs(numeric - closed) <= 1e-6, (alpha, sigma, shift)


def test_criterion_02_renyi_calculus_properties_on_1000_instances():
    rng = np.random.default_rng(20240802)
    for _ in range(1000):
        n = int(rng.integers(2, 7))
        p, q = random_dist(rng, n), random_dist(rng, n)
        p2, q2 = random_dist(rng, n), random_dist(rng, n)
        r = random_dist(rng, n)
        base = [renyi_divergence(p, q, a) for a in ALPHA_GRID]
        other = [renyi_divergence(p2, q2, a) for a in ALPHA_GRID]
        # non-negativity
        assert min(base) >= 0.0
        # monotonicity in the order
        for lo, hi in zip(base, base[1:]):
            assert lo <= hi + 1e-9
        # product additivity
        pp, qq = product(p, p2), product(q, q2)
        for a, d1, d2 in zip(ALPHA_GRID, base, other):
            assert renyi_divergence(pp, qq, a) == pytest.approx(d1 + d2, abs=1e-9)
        # data processing
        fn = {y: int(rng.integers(0, max(2, n - 1))) for y in p.outcomes}
        fp, fq = pushforward(p, fn), pushforward(q, fn)
        for a, d in zip(ALPHA_GRID, base):
            assert renyi_divergence(fp, fq, a) <= d + 1e-9
        # quasi-convexity
        t = float(rng.random())
        mp, mq = mixture(p, p2, t), mixture(q, q2, t)
        for a, d1, d2 in zip(ALPHA_GRID, base, other):
            assert renyi_divergence(mp, mq, a) <= max(d1, d2) + 1e-9
        # triangle-like bound through the intermediate r
        for k, a in itertools.product((1.5, 2.0, 4.0), repeat=2):
            inner = (k * a - 1.0) / (k - 1.0)
            rhs = (k * a / (k * a - 1.0)) * renyi_divergence(p, r, inner)
            rhs += renyi_divergence(r, q, k * a)
            assert renyi_divergence(p, q, a) <= rhs + 1e-9


def test_criterion_03_conversion_soundness_chain():
    for rho in (0.05, 0.125, 0.5, 2.0):
        params = ZcdpParams(0.0, rho)
        for i in range(50):
            eps = rho + (6.0 * math.sqrt(rho)) * i / 49.0
            exact = delta_exact_gaussian(rho, eps)
            refined = zcdp_to_dp_refined(params, eps)
            simple_implied = math.exp(-((eps - rho) ** 2) / (4.0 * rho))
            assert exact <= refined + 1e-12
            assert refined <= simple_implied + 1e-15
    rng = np.random.default_rng(20240803)
    for _ in range(500):
        rho = float(rng.uniform(1e-3, 5.0))
        a = float(rng.uniform(0.0, 30.0))
        b2 = math.sqrt(math.pi * rho)
        b3 = 1.0 / (1.0 + a)
        b4 = 2.0 / (1.0 + a + math.sqrt((1.0 + a) ** 2 + 4.0 / (math.pi * rho)))
        assert b4 <= min(b2, b3) + 1e-12


def test_criterion_04_randomized_response_below_quadratic_curve():
    for eps in (0.1, 0.5, 1.0, 2.0):
        plus, minus = randomized_response(eps)
        for a in FINITE_ALPHAS:
            assert renyi_divergence(plus, minus, a) <= 0.5 * eps * eps * a + 1e-12
        assert abs(renyi_divergence(plus, minus, math.inf) - eps) <= 1e-10


def test_criterion_05_group_privacy_constant_is_tight_for_gaussian():
    for k in (1, 2, 5):
        for sigma in (0.5, 1.0, 2.0):
            for delta in (0.5, 1.0, 2.0):
                rho = gaussian_rho(GaussianMech(delta, sigma))
                for a in FINITE_ALPHAS:
                    direct = gaussian_renyi(k * delta, sigma, a)
                    assert abs(direct - k * k * rho * a) <= 1e-10


def test_criterion_06_mutual_information_bounds_on_product_channels():
    eps = 0.8
    rho = 0.5 * eps * eps
    params = ZcdpParams(0.0, rho)
    plus, minus = randomized_response(eps)
    bit = FiniteChannel((1, -1), {1: plus, -1: minus})
    for n in range(1, 9):
        channel = product_channel([bit] * n)
        uniform = OutcomeDist.uniform(channel.inputs)
        assert mutual_information(uniform, channel) <= mi_bound(params, n, "independent")
        corr = OutcomeDist(((1,) * n, (-1,) * n), (0.5, 0.5))
        assert mutual_information(corr, channel) <= mi_bound(params, n, "general")
    for m, l in ((2, 2), (2, 3)):
        n = m * l
        channel = product_channel([bit] * n)
        block_states = list(itertools.product((1, -1), repeat=m))
        prior = OutcomeDist.uniform(
            tuple(
                tuple(itertools.chain.from_iterable((b,) * l for b in blocks))
                for blocks in block_states
            )
        )
        assert mutual_information(prior, channel) <= mi_bound(params, n, (m, l))


def test_criterion_07_packing_net_properties_and_lower_bound():
    rng = np.random.default_rng(20240804)
    for _ in range(100):
        size = int(rng.integers(2, 30))
        m = rng.uniform(0.0, 2.0, size=(size, size))
        m = (m + m.T) / 2.0
        for i in range(size):
            m[i, i] = 0.0
        space = MetricPointSet.from_matrix(tuple(range(size)), m.tolist())
        alpha = float(rng.uniform(0.05, 1.5))
        # greedy_packing_net re-checks the packing and covering properties
        # internally and raises on failure
        net = greedy_packing_net(space, alpha)
        for a, b in itertools.combinations(net, 2):
            assert space.dist(a, b) > alpha
        for y in space.points:
            assert any(space.dist(y, c) <= alpha for c in net)
    rec = packing_lower_bound(16, 0.5, ZcdpParams(0.0, 0.1), 3)
    assert rec.min_n is not None
    assert round(rec.min_n, 3) == 2.633
    assert rec.min_n == pytest.approx(2.6327688477341593, abs=1e-12)


def test_criterion_08_mcdp_not_closed_under_postprocessing():
    thresholded = mcdp_postprocess_violation(1.0, 3.0, 2.0)
    assert thresholded.violated
    assert thresholded.lhs > math.exp(2.0 * 2.0**2 / 1.0**2)
    raw = mcdp_gaussian_check(1.0, 2.0)
    assert not raw.violated


def test_criterion_09_hyperbolic_grid_and_pinsker_triples():
    for i in range(1, 201):
        x = 0.01 * i
        for j in range(0, i):
            assert hyperbolic_inequality_check(x, 0.01 * j)
    rng = np.random.default_rng(20240805)
    for _ in range(1000):
        n = int(rng.integers(2, 7))
        p, q = random_dist(rng, n), random_dist(rng, n)
        f = {y: float(rng.uniform(-1.0, 1.0)) for y in p.outcomes}
        rec = pinsker_check(p, q, f)
        assert rec.plain_ok and rec.generalized_ok


def test_criterion_10_composition_bound_beats_classical_baseline():
    points = [DpPoint(0.1, 0.0)] * 100
    composed = dp_composition_bound(points, 1e-6)
    baseline = advanced_composition_baseline(0.1, 100, 1e-6)
    assert composed.eps == pytest.approx(5.799302201348589, abs=1e-12)
    assert baseline == pytest.approx(6.308230950513409, abs=1e-12)
    assert composed.eps < baseline


def test_criterion_11_determinism_of_curve_and_mc_estimator(tmp_path):
    ledger = tmp_path / "ledger.json"
    ledger.write_text(
        json.dumps(
            {
                "entries": [
                    {"kind": "gaussian", "params": {"sensitivity": 1.0, "sigma": 1.0}},
                    {"kind": "gaussian", "params": {"sensitivity": 1.0, "sigma": 1.0}},
                ]
            }
        )
    )
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    args = [
        "curve",
        "delta_of_eps",
        "--ledger",
        str(ledger),
        "--grid",
        "0.5:9:64",
        "--method",
        "refined",
    ]
    assert main(args + ["--out", str(first)]) == 0
    assert main(args + ["--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()

    p = OutcomeDist((0, 1, 2), (0.5, 0.3, 0.2))
    q = OutcomeDist((0, 1, 2), (0.3, 0.3, 0.4))
    a = mc_divergence_estimate(p, q, 2.0, 50000, seed=42)
    b = mc_divergence_estimate(p, q, 2.0, 50000, seed=42)
    assert (a.estimate, a.std_error) == (b.estimate, b.std_error)
    assert repr(a) == repr(b)
