"""Named verification suites: property sweeps plus oracle comparisons.

Each suite returns a list of Case records; the CLI renders them as a
pass/fail table and a JSON report.  All randomness is drawn from
random.Random(seed), so a given (suite, seed) pair is fully reproducible.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass

from . import accountant as acct
from . import bounds, mechanisms, oracle
from .divergence import (
    ALPHA_GRID,
    OutcomeDist,
    divergence_from_loss,
    mixture,
    privacy_loss_dist,
    product,
    pushforward,
    renyi_divergence,
)

FINITE_ALPHAS = tuple(a for a in ALPHA_GRID if not math.isinf(a))


@dataclass(frozen=True)
class Case:
    """One verification check: the two compared quantities and the verdict."""

    name: str
    ok: bool
    lhs: float
    rhs: float


def _random_dist(rng: random.Random, size: int) -> OutcomeDist:
    # Strictly positive masses: the infinite-divergence paths get their own
    # dedicated unit tests; sweeps here exercise the finite calculus.  fsum, as
    # sum compensates only from Python 3.12 on and reports would differ by version.
    w = [rng.random() + 0.05 for _ in range(size)]
    total = math.fsum(w)
    return OutcomeDist(tuple(range(size)), tuple(x / total for x in w))


def _suite_divergence(rng: random.Random) -> list[Case]:
    trials = 250
    worst_neg = 0.0
    worst_mono = -math.inf
    worst_add = 0.0
    worst_dp = -math.inf
    worst_qc = -math.inf
    worst_klc = -math.inf
    worst_mgf = 0.0
    worst_tri = -math.inf
    for _ in range(trials):
        size = rng.randrange(2, 7)
        p = _random_dist(rng, size)
        q = _random_dist(rng, size)
        values = [renyi_divergence(p, q, a) for a in ALPHA_GRID]
        worst_neg = max(worst_neg, -min(values))
        worst_mono = max(
            worst_mono, max(lo - hi for lo, hi in zip(values, values[1:]))
        )
        p2 = _random_dist(rng, size)
        q2 = _random_dist(rng, size)
        others = [renyi_divergence(p2, q2, a) for a in ALPHA_GRID]
        joint_p, joint_q = product(p, p2), product(q, q2)
        for a, d, d2 in zip(ALPHA_GRID, values, others):
            worst_add = max(worst_add, abs(renyi_divergence(joint_p, joint_q, a) - (d + d2)))
        fn = {y: rng.randrange(0, max(2, size - 1)) for y in p.outcomes}
        image_p, image_q = pushforward(p, fn), pushforward(q, fn)
        for a, d in zip(ALPHA_GRID, values):
            worst_dp = max(worst_dp, renyi_divergence(image_p, image_q, a) - d)
        t = rng.random()
        mix_p = mixture(p, p2, t)
        mix_q = mixture(q, q2, t)
        mixed = [renyi_divergence(mix_p, mix_q, a) for a in ALPHA_GRID]
        for m, d, d2 in zip(mixed, values, others):
            worst_qc = max(worst_qc, m - max(d, d2))
        # ALPHA_GRID starts at order 1, the KL divergence.
        worst_klc = max(worst_klc, mixed[0] - ((1.0 - t) * values[0] + t * others[0]))
        pld = privacy_loss_dist(p, q)
        for a, d in zip(ALPHA_GRID, values):
            worst_mgf = max(worst_mgf, abs(divergence_from_loss(pld, a) - d))
        r = _random_dist(rng, size)
        for k, a in itertools.product((1.5, 2.0, 4.0), repeat=2):
            inner = (k * a - 1.0) / (k - 1.0)
            bound = (k * a / (k * a - 1.0)) * renyi_divergence(p, r, inner) + renyi_divergence(
                r, q, k * a
            )
            worst_tri = max(worst_tri, renyi_divergence(p, q, a) - bound)
    return [
        Case("non_negativity_250_instances", worst_neg <= 0.0, worst_neg, 0.0),
        Case("monotonicity_in_order", worst_mono <= 1e-10, worst_mono, 1e-10),
        Case("product_additivity", worst_add <= 1e-9, worst_add, 1e-9),
        Case("data_processing", worst_dp <= 1e-10, worst_dp, 1e-10),
        Case("quasi_convexity", worst_qc <= 1e-10, worst_qc, 1e-10),
        Case("kl_convexity", worst_klc <= 1e-10, worst_klc, 1e-10),
        Case("loss_moment_identity", worst_mgf <= 1e-10, worst_mgf, 1e-10),
        Case("triangle_like_inequality", worst_tri <= 1e-9, worst_tri, 1e-9),
    ]


def _suite_conversions(rng: random.Random) -> list[Case]:
    cases = []
    worst_exact = -math.inf
    worst_refined = -math.inf
    for rho in (0.05, 0.125, 0.5, 2.0):
        params = acct.ZcdpParams(0.0, rho)
        for eps in oracle.grid_points(rho, rho + 6.0 * math.sqrt(rho), 50):
            refined = acct.zcdp_to_dp_refined(params, eps)
            exact = oracle.delta_exact_gaussian(rho, eps)
            simple_implied = acct.delta_of_eps(params, eps, "simple")
            worst_exact = max(worst_exact, exact - refined)
            worst_refined = max(worst_refined, refined - simple_implied)
    cases.append(Case("exact_below_refined", worst_exact <= 1e-12, worst_exact, 1e-12))
    cases.append(Case("refined_below_simple", worst_refined <= 1e-15, worst_refined, 1e-15))

    worst_branch = -math.inf
    for _ in range(200):
        rho = rng.uniform(1e-3, 5.0)
        a = rng.uniform(0.0, 20.0)
        b2 = math.sqrt(math.pi * rho)
        b3 = 1.0 / (1.0 + a)
        b4 = 2.0 / (1.0 + a + math.sqrt((1.0 + a) ** 2 + 4.0 / (math.pi * rho)))
        worst_branch = max(worst_branch, b4 - min(b2, b3))
    cases.append(Case("fourth_branch_dominates", worst_branch <= 1e-12, worst_branch, 1e-12))

    worst_quad = -math.inf
    worst_linear = -math.inf
    worst_inf = 0.0
    for eps in (0.1, 0.5, 1.0, 2.0):
        plus, minus = mechanisms.randomized_response(eps)
        for a in FINITE_ALPHAS:
            d = renyi_divergence(plus, minus, a)
            worst_quad = max(worst_quad, d - 0.5 * eps * eps * a)
            worst_linear = max(worst_linear, d - eps)
        worst_inf = max(worst_inf, abs(renyi_divergence(plus, minus, math.inf) - eps))
    cases.append(Case("rr_below_quadratic_curve", worst_quad <= 1e-9, worst_quad, 1e-9))
    cases.append(Case("rr_below_pure_curve", worst_linear <= 1e-9, worst_linear, 1e-9))
    cases.append(Case("rr_max_divergence_equals_eps", worst_inf <= 1e-10, worst_inf, 1e-10))

    worst_trip = -math.inf
    for eps in (0.1, 0.5, 1.0, 2.0):
        for delta in (0.0, 1e-6, 0.01, 0.1):
            pt = acct.DpPoint(eps, delta)
            back = acct.approx_zcdp_to_dp(acct.dp_to_approx_zcdp(pt), eps)
            worst_trip = max(worst_trip, pt.delta - back.delta)
    cases.append(Case("round_trip_no_free_lunch", worst_trip <= 1e-12, worst_trip, 1e-12))

    worst_shrink = -math.inf
    for xi in (0.0, 0.1, 0.5):
        for rho in (0.0, 0.05, 0.5, 1.0):
            m = acct.zcdp_to_mcdp(acct.ZcdpParams(xi, rho))
            worst_shrink = max(worst_shrink, rho - 0.5 * m.tau**2)
    cases.append(Case("mcdp_round_trip_keeps_rho", worst_shrink <= 1e-12, worst_shrink, 1e-12))

    simple = acct.zcdp_to_dp_simple(acct.ZcdpParams(0.0, 0.5), math.exp(-1.0)).eps
    cases.append(Case("simple_eps_example", abs(simple - 1.9142135623730951) <= 1e-12, simple, 1.9142135623730951))
    refined = acct.zcdp_to_dp_refined(acct.ZcdpParams(0.0, 0.5), 2.5)
    cases.append(Case("refined_delta_example", abs(refined - 0.04230542341957785) <= 1e-12, refined, 0.04230542341957785))
    fam = acct.dp_family_to_zcdp(0.5, 0.0625)
    cases.append(Case("dp_family_example", abs(fam.xi - 2.984375) <= 1e-12, fam.xi, 2.984375))
    tau = acct.zcdp_to_mcdp(acct.ZcdpParams(0.0, 0.5)).tau
    cases.append(Case("mcdp_tau_example", abs(tau - 3.707594183250422) <= 1e-12, tau, 3.707594183250422))
    return cases


def _suite_group(rng: random.Random) -> list[Case]:
    worst = 0.0
    for k in (1, 2, 5):
        for sigma in (0.5, 1.0, 2.0):
            for delta in (0.5, 1.0, 2.0):
                rho = mechanisms.gaussian_rho(mechanisms.GaussianMech(delta, sigma))
                for a in FINITE_ALPHAS:
                    direct = mechanisms.gaussian_renyi(k * delta, sigma, a)
                    worst = max(worst, abs(direct - k * k * rho * a))
    cases = [Case("gaussian_group_scaling_tight", worst <= 1e-10, worst, 1e-10)]

    g = acct.group_privacy(acct.ZcdpParams(0.1, 0.0), 2)
    cases.append(Case("harmonic_xi_example", abs(g.xi - 0.3) <= 1e-12, g.xi, 0.3))
    g = acct.group_privacy(acct.ZcdpParams(0.0, 0.1), 3)
    cases.append(Case("rho_scales_k_squared", abs(g.rho - 0.9) <= 1e-12, g.rho, 0.9))
    base = acct.ZcdpParams(0.3, 0.7)
    same = acct.group_privacy(base, 1)
    ident = float(same.xi == base.xi and same.rho == base.rho)
    cases.append(Case("group_of_one_is_identity", ident == 1.0, ident, 1.0))
    return cases


def _suite_mi(rng: random.Random) -> list[Case]:
    eps = 0.8
    rho = 0.5 * eps * eps
    params = acct.ZcdpParams(0.0, rho)
    cases = []
    for n in (2, 4, 6):
        channel = bounds.rr_product_channel(eps, n)
        certified = bounds.certify_zcdp(channel, params)
        cases.append(Case(f"certify_product_channel_n{n}", certified, float(certified), 1.0))
        for prior, mi, bound in bounds.prior_mi_rows(channel, params, n):
            cases.append(Case(f"{prior}_prior_n{n}", mi <= bound, mi, bound))
    for m, l in ((2, 2), (2, 3)):
        n = m * l
        channel = bounds.rr_product_channel(eps, n)
        block_states = list(itertools.product((1, -1), repeat=m))
        prior_outcomes = tuple(
            tuple(itertools.chain.from_iterable((b,) * l for b in blocks))
            for blocks in block_states
        )
        prior = OutcomeDist.uniform(prior_outcomes)
        mi_blocks = bounds.mutual_information(prior, channel)
        bound_blocks = bounds.mi_bound(params, n, (m, l))
        cases.append(Case(f"block_prior_m{m}_l{l}", mi_blocks <= bound_blocks, mi_blocks, bound_blocks))
    channel = bounds.rr_product_channel(eps, 3)
    uniform = OutcomeDist.uniform(channel.inputs)
    before = bounds.mutual_information(uniform, channel)
    collapsed = bounds.channel_pushforward(channel, lambda y: y[0])
    after = bounds.mutual_information(uniform, collapsed)
    cases.append(Case("postprocessing_decreases_mi", after <= before + 1e-10, after, before))
    return cases


def _suite_packing(rng: random.Random) -> list[Case]:
    spaces = 40
    for _ in range(spaces):
        size = rng.randrange(2, 25)
        m = [[rng.uniform(0.0, 2.0) for _ in range(size)] for _ in range(size)]
        m = [[(m[i][j] + m[j][i]) / 2.0 if i != j else 0.0 for j in range(size)] for i in range(size)]
        space = bounds.MetricPointSet.from_matrix(tuple(range(size)), m)
        # greedy_packing_net re-verifies both defining properties internally
        # and raises on any inconsistency.
        bounds.greedy_packing_net(space, rng.uniform(0.05, 1.5))
    cases = [Case(f"greedy_net_selfcheck_{spaces}_spaces", True, float(spaces), float(spaces))]

    line = bounds.MetricPointSet(tuple(range(4)), lambda a, b: float(abs(a - b)))
    net = bounds.greedy_packing_net(line, 1.0)
    cases.append(Case("line_net_example", net == (0, 2), float(len(net)), 2.0))

    rec = bounds.packing_lower_bound(16, 0.5, acct.ZcdpParams(0.0, 0.1), 3)
    expected = math.sqrt((0.5 * math.log(16.0) - math.log(2.0)) / 0.1)
    ok = rec.min_n is not None and abs(rec.min_n - expected) <= 1e-12
    cases.append(Case("packing_min_n_example", ok, rec.min_n or math.nan, expected))

    mech = bounds.purify((0, 1), {0: (0.0,), 1: (1.0,)}, 10, 1.0, 0.1, "linf")
    datasets = [(0,) * (10 - c) + (1,) * c for c in range(11)]
    worst_div = 0.0
    for a, b in zip(datasets, datasets[1:]):
        da, db = mech.output_dist(a), mech.output_dist(b)
        worst_div = max(
            worst_div,
            renyi_divergence(da, db, math.inf),
            renyi_divergence(db, da, math.inf),
        )
    cases.append(Case("purified_mechanism_pure_dp", worst_div <= 1.0 + 1e-9, worst_div, 1.0 + 1e-9))

    err_bound = 4.0 * 0.1 + (2.0 * mech.delta_sensitivity / 1.0) * math.log(len(mech.net))
    worst_err = max(mech.expected_error(d) for d in datasets)
    cases.append(Case("purified_expected_error", worst_err <= err_bound, worst_err, err_bound))
    return cases


def _suite_appendix(rng: random.Random) -> list[Case]:
    cases = []
    rec = oracle.mcdp_postprocess_violation(1.0, 3.0, 2.0)
    cases.append(Case("thresholded_gaussian_violates", rec.violated, rec.lhs, rec.rhs))
    rec = oracle.mcdp_postprocess_violation(1.0, 7.0, 3.5)
    cases.append(Case("violation_at_larger_threshold", rec.violated, rec.lhs, rec.rhs))
    rec = oracle.mcdp_postprocess_violation(1.0, 3.0, 0.0)
    cases.append(Case("zero_lambda_never_violates", not rec.violated, rec.lhs, rec.rhs))
    worst_gap = 0.0
    raw_ok = True
    for sigma in (1.0, 2.0):
        for lam in (1.0, 2.0):
            rec = oracle.mcdp_gaussian_check(sigma, lam)
            raw_ok = raw_ok and not rec.violated
            worst_gap = max(worst_gap, abs(rec.lhs - rec.rhs) / rec.rhs)
    cases.append(Case("raw_gaussian_meets_bound_exactly", raw_ok and worst_gap <= 1e-7, worst_gap, 1e-7))

    failures = 0
    total = 0
    for i in range(1, 201):
        for j in range(0, i):
            total += 1
            if not oracle.hyperbolic_inequality_check(0.01 * i, 0.01 * j):
                failures += 1
    cases.append(Case(f"hyperbolic_grid_{total}_points", failures == 0, float(failures), 0.0))

    failures = 0
    for _ in range(1000):
        size = rng.randrange(2, 7)
        p = _random_dist(rng, size)
        q = _random_dist(rng, size)
        f = {y: rng.uniform(-1.0, 1.0) for y in p.outcomes}
        rec = oracle.pinsker_check(p, q, f)
        if not (rec.plain_ok and rec.generalized_ok):
            failures += 1
    cases.append(Case("pinsker_1000_triples", failures == 0, float(failures), 0.0))
    return cases


SUITES = {
    "divergence": _suite_divergence,
    "conversions": _suite_conversions,
    "group": _suite_group,
    "mi": _suite_mi,
    "packing": _suite_packing,
    "appendix": _suite_appendix,
}


def run_suite(name: str, seed: int) -> list[Case]:
    """Run suite name on seeded_random(seed); group and mi draw nothing from it."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; expected one of {sorted(SUITES)}")
    return SUITES[name](oracle.seeded_random(seed))
