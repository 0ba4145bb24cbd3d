"""Acceptance gate: eleven oracle-equivalence and property criteria.

Each criterion is one test, so `pytest -v` prints one pass/fail line per
criterion.  Tolerances are stated inline; randomized sweeps use fixed
seeds so the suite is reproducible run to run.  Criteria 02, 03, 05, 08
and 09 run the shipped `cdpacct verify` suites, so each of those sweeps
is written once, in `cdpacct.verify`; the gate checks the exit code and
that the criterion's cases are among those that passed.
"""

import contextlib
import io
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
    dp_composition_bound,
    gaussian_renyi,
    gaussian_renyi_quadrature,
    greedy_packing_net,
    mc_divergence_estimate,
    mi_bound,
    mutual_information,
    packing_lower_bound,
    product_channel,
    randomized_response,
    renyi_divergence,
)
from cdpacct.cli import main

FINITE_ALPHAS = [a for a in ALPHA_GRID if not math.isinf(a)]


def verify(suite, seed=20240801):
    """Exit code of `cdpacct verify SUITE --seed SEED` and the names of its passed cases."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["verify", suite, "--seed", str(seed)])
    passed = {line.split()[1] for line in out.getvalue().splitlines() if line.startswith("PASS ")}
    return code, passed


@pytest.fixture(scope="module")
def appendix():
    return verify("appendix")


def test_criterion_01_gaussian_closed_form_matches_quadrature():
    for alpha in (1.5, 2.0, 5.0, 10.0):
        for sigma in (0.5, 1.0, 2.0):
            for shift in (0.1, 1.0, 3.0):
                numeric = gaussian_renyi_quadrature(shift, sigma, alpha)
                closed = gaussian_renyi(shift, sigma, alpha)
                assert abs(numeric - closed) <= 1e-6, (alpha, sigma, shift)


def test_criterion_02_renyi_calculus_properties_on_1000_instances():
    # 250 random pairs per seed, every order in ALPHA_GRID, tolerance 1e-10
    # (0 for non-negativity, 1e-9 for additivity and the triangle-like bound).
    properties = {
        "non_negativity_250_instances",
        "monotonicity_in_order",
        "product_additivity",
        "data_processing",
        "quasi_convexity",
        "kl_convexity",
        "loss_moment_identity",
        "triangle_like_inequality",
    }
    for seed in range(20240802, 20240806):
        code, passed = verify("divergence", seed)
        assert code == 0 and properties <= passed, seed


def test_criterion_03_conversion_soundness_chain():
    # exact <= refined + 1e-12 and refined <= simple + 1e-15 on 4 rho x 50 eps.
    code, passed = verify("conversions")
    assert code == 0
    assert {"exact_below_refined", "refined_below_simple", "fourth_branch_dominates"} <= passed
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
    # |D_a(N(k delta, sigma^2) || N(0, sigma^2)) - k^2 rho a| <= 1e-10 for
    # k in (1, 2, 5), three sigmas, three sensitivities and every finite order.
    code, passed = verify("group")
    assert code == 0 and "gaussian_group_scaling_tight" in passed


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


def test_criterion_08_mcdp_not_closed_under_postprocessing(appendix):
    # Thresholding N(+-1, 1) at 3 breaks the bound e^(2 lam^2 / sigma^2) at
    # lam = 2; the raw Gaussian meets it within 1e-7 at four (sigma, lam).
    cases = {
        "thresholded_gaussian_violates",
        "violation_at_larger_threshold",
        "zero_lambda_never_violates",
        "raw_gaussian_meets_bound_exactly",
    }
    code, passed = appendix
    assert code == 0 and cases <= passed


def test_criterion_09_hyperbolic_grid_and_pinsker_triples(appendix):
    code, passed = appendix
    assert code == 0 and {"hyperbolic_grid_20100_points", "pinsker_1000_triples"} <= passed


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
