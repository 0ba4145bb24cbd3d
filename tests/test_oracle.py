import math
import random

import mpmath
import pytest

from cdpacct import (
    OutcomeDist,
    PrivacyLossDist,
    ZcdpParams,
    delta_exact_gaussian,
    delta_from_pld,
    delta_gaussian_mc,
    delta_of_eps,
    divergence_from_loss,
    gaussian_pld_discretized,
    gaussian_renyi,
    gaussian_renyi_quadrature,
    hyperbolic_inequality_check,
    loss_tail_bound,
    mc_divergence_estimate,
    mcdp_gaussian_check,
    mcdp_postprocess_violation,
    pinsker_check,
    privacy_loss_dist,
    renyi_divergence,
    zcdp_to_dp_refined,
    zcdp_to_dp_simple,
)
from cdpacct.oracle import PLD_HALF_WIDTH_SIGMAS, _SQRT2, _erfcx, _log_upper_tail
from conftest import random_dist


class TestQuadrature:
    def test_matches_closed_form_on_grid(self):
        # Acceptance criterion 01 covers positive shifts; here they are negative.
        for alpha in (1.5, 2.0, 5.0, 10.0):
            for sigma in (0.5, 1.0, 2.0):
                for shift in (-0.1, -1.0, -3.0):
                    numeric = gaussian_renyi_quadrature(shift, sigma, alpha)
                    closed = gaussian_renyi(shift, sigma, alpha)
                    assert abs(numeric - closed) <= 1e-6, (alpha, sigma, shift)

    def test_zero_shift_gives_zero(self):
        assert gaussian_renyi_quadrature(0.0, 1.0, 2.0) == pytest.approx(0.0, abs=1e-8)

    def test_rejects_alpha_at_most_one(self):
        with pytest.raises(ValueError):
            gaussian_renyi_quadrature(1.0, 1.0, 1.0)

    @pytest.mark.parametrize("shift", [math.nan, math.inf, -math.inf])
    def test_rejects_a_non_finite_shift_before_integrating(self, shift):
        # Without the check the panels double to 2^21 before the
        # quadrature gives up with ArithmeticError.
        with pytest.raises(ValueError, match="shift must be finite"):
            gaussian_renyi_quadrature(shift, 1.0, 2.0)

    @pytest.mark.parametrize("shift, sigma", [(1e300, 1.0), (-1.7e308, 1.0), (1.1e6, 1.0), (1.0, 1e-7)])
    def test_refuses_a_window_wider_than_its_finest_grid_before_integrating(self, shift, sigma):
        # Without the check the panels double to 2^21, which resolve nothing
        # across a window of 2e300 sigma, and the call raises ArithmeticError:
        # a ValueError means it was refused before integrating.
        with pytest.raises(ValueError, match=r"wider than 2\^21 standard deviations"):
            gaussian_renyi_quadrature(shift, sigma, 2.0)


class TestDeltaFromPld:
    def test_equals_tv_at_zero_eps(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 7))
            p, q = random_dist(rng, n), random_dist(rng, n)
            pld = privacy_loss_dist(p, q)
            tv = 0.5 * math.fsum(abs(a - b) for a, b in zip(p.probs, q.probs))
            assert delta_from_pld(pld, 0.0) == pytest.approx(tv, abs=1e-12)

    def test_manual_two_point_example(self):
        p = OutcomeDist((0, 1), (2.0 / 3.0, 1.0 / 3.0))
        q = OutcomeDist((0, 1), (1.0 / 3.0, 2.0 / 3.0))
        pld = privacy_loss_dist(p, q)
        assert delta_from_pld(pld, 0.0) == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert delta_from_pld(pld, math.log(2.0)) == pytest.approx(0.0, abs=1e-12)

    def test_nonincreasing_in_eps(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 6))
            p, q = random_dist(rng, n), random_dist(rng, n)
            pld = privacy_loss_dist(p, q)
            values = [delta_from_pld(pld, e) for e in (0.0, 0.2, 0.5, 1.0, 2.0, 5.0)]
            for hi, lo in zip(values, values[1:]):
                assert lo <= hi + 1e-15

    def test_bounded_by_tail_mass(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 6))
            p, q = random_dist(rng, n), random_dist(rng, n)
            pld = privacy_loss_dist(p, q)
            for e in (0.0, 0.3, 1.0):
                assert delta_from_pld(pld, e) <= pld.tail_mass(e) + 1e-15

    def test_infinite_loss_mass_always_counts(self):
        p = OutcomeDist((0, 1), (0.7, 0.3))
        q = OutcomeDist((0, 1), (1.0, 0.0))
        pld = privacy_loss_dist(p, q)
        for e in (0.0, 1.0, 10.0):
            assert delta_from_pld(pld, e) >= 0.3


def sixty_digit_delta(eta: float, eps: float) -> float:
    """P[N > (eps - eta)/s] - e^eps P[N > (eps + eta)/s] with s = sqrt(2 eta), to 60 digits."""
    with mpmath.workdps(60):
        eta, eps = mpmath.mpf(eta), mpmath.mpf(eps)
        s = mpmath.sqrt(2 * eta)
        first = mpmath.ncdf(-(eps - eta) / s)
        return float(first - mpmath.exp(eps) * mpmath.ncdf(-(eps + eta) / s))


# Above this, 2 eta overflows.
HALF_MAX = 0.5 * 1.7976931348623157e308


def builtin_delta(eta: float, eps: float) -> float:
    """delta_exact_gaussian with its old min(1, max(0, .)) clamp: the reference for 0 < 2 eta < inf."""
    s = math.sqrt(2.0 * eta)
    v, u = (eps - eta) / s, (eps + eta) / s
    if u < 0.0:
        first, second = 0.5 * math.erfc(v / _SQRT2), math.exp(eps) * 0.5 * math.erfc(u / _SQRT2)
    else:
        scale = 0.5 * math.exp(-0.5 * v * v)
        first = scale * _erfcx(v / _SQRT2) if v >= 0.0 else 0.5 * math.erfc(v / _SQRT2)
        second = scale * _erfcx(u / _SQRT2)
    return min(1.0, max(0.0, first - second))


class TestErfcx:
    def test_matches_sixty_digit_arithmetic(self):
        # Both branches and the switch at 26; scipy's erfcx reaches about 9e-16 here.
        rng = random.Random(20261018)
        xs = [math.exp(rng.uniform(math.log(1e-8), math.log(1e15))) for _ in range(400)]
        xs += [rng.uniform(0.0, 40.0) for _ in range(400)]
        xs += [0.0, 25.999, 26.0, 26.001]
        with mpmath.workdps(60):
            for x in xs:
                expect = float(mpmath.erfc(x) * mpmath.exp(mpmath.mpf(x) ** 2))
                assert _erfcx(x) == pytest.approx(expect, rel=2e-15, abs=0.0), x


class TestLogUpperTail:
    def test_matches_sixty_digit_arithmetic(self):
        # From where the tail is about 1/2 to where it is e^(-5e19).
        rng = random.Random(20261019)
        xs = [math.exp(rng.uniform(math.log(1e-8), math.log(1e10))) for _ in range(1000)]
        xs += [1e-8, 26.0 * math.sqrt(2.0), 1e10]
        with mpmath.workdps(60):
            for x in xs:
                expect = float(mpmath.log(mpmath.ncdf(-mpmath.mpf(x))))
                assert _log_upper_tail(x) == pytest.approx(expect, rel=1e-15, abs=0.0), x


class TestDeltaExactGaussian:
    def test_zero_eps_is_tv_of_unit_shift(self):
        # eta = 1/2 corresponds to N(0,1) vs N(1,1): TV = 2*Phi(1/2) - 1
        assert delta_exact_gaussian(0.5, 0.0) == pytest.approx(
            0.38292492254802624, abs=1e-15
        )

    def test_matches_monte_carlo(self):
        for eta, eps in ((0.5, 1.0), (0.125, 0.5), (2.0, 3.0)):
            est, se = delta_gaussian_mc(eta, eps, 200000, seed=7)
            exact = delta_exact_gaussian(eta, eps)
            assert abs(est - exact) <= 3.0 * se

    @pytest.mark.parametrize("eta, eps", [(0.5, math.nan), (math.inf, 1.0), (math.nan, 1.0), (0.0, 1.0)])
    def test_monte_carlo_refuses_bad_input(self, eta, eps):
        with pytest.raises(ValueError):
            delta_gaussian_mc(eta, eps, 10**4, seed=1)

    def test_monte_carlo_refuses_negative_seed(self):
        # random.Random(-3) draws what random.Random(3) draws.
        with pytest.raises(ValueError, match="seed must be a non-negative integer, got -3"):
            delta_gaussian_mc(0.5, 1.0, 10**4, seed=-3)

    def test_monte_carlo_is_seeded(self):
        a = delta_gaussian_mc(0.5, 1.0, 10**4, seed=3)
        assert a == delta_gaussian_mc(0.5, 1.0, 10**4, seed=3)
        assert a != delta_gaussian_mc(0.5, 1.0, 10**4, seed=4)

    def test_matches_discretized_pld(self):
        for eta in (0.125, 0.5, 2.0):
            pld = gaussian_pld_discretized(eta, points=4000)
            for eps in (0.0, 0.5, 1.5):
                disc = delta_from_pld(pld, eps)
                exact = delta_exact_gaussian(eta, eps)
                # upper-edge binning biases the discretization upward
                assert -1e-12 <= disc - exact <= 2e-3

    def test_below_accountant_bounds(self):
        for rho in (0.05, 0.125, 0.5, 2.0):
            params = ZcdpParams(0.0, rho)
            for i in range(50):
                eps = rho + (6.0 * math.sqrt(rho)) * i / 49.0
                exact = delta_exact_gaussian(rho, eps)
                assert exact <= zcdp_to_dp_refined(params, eps) + 1e-12
                simple_delta = math.exp(-((eps - rho) ** 2) / (4.0 * rho))
                assert exact <= simple_delta + 1e-12

    def test_below_subgaussian_tail_bound(self):
        rho = 0.5
        for lam in (0.2, 0.5, 1.0, 2.0, 4.0):
            assert delta_exact_gaussian(rho, lam + rho) <= loss_tail_bound(0.0, rho, lam)

    @pytest.mark.parametrize("lo, hi", [(1e-4, 50.0), (1e10, 1e30)])
    def test_matches_sixty_digit_arithmetic(self, lo, hi):
        # eps from 3 standard deviations of the loss below its mean to 37
        # above, where delta leaves the normal floats (below about 1e-300).
        rng = random.Random(20240801)
        for _ in range(300):
            eta = math.exp(rng.uniform(math.log(lo), math.log(hi)))
            eps = max(0.0, eta + math.sqrt(2.0 * eta) * rng.uniform(-3.0, 37.0))
            expect = sixty_digit_delta(eta, eps)
            if expect > 1e-300:
                assert delta_exact_gaussian(eta, eps) == pytest.approx(expect, rel=1e-11, abs=0.0)

    @pytest.mark.parametrize("eta", [1e-8, 1e-6])
    def test_error_bound_at_small_eta(self, eta):
        # Both tails are near 1/2 and differ by O(sqrt(eta)), so the relative
        # error grows as eta shrinks: the docstring's 2e-14/sqrt(eta), which is
        # 2e-10 at the accountant's floor MIN_EXACT_RHO = 1e-8.
        hi = eta + 40.0 * math.sqrt(2.0 * eta)
        for i in range(365):
            eps = hi * i / 364
            expect = sixty_digit_delta(eta, eps)
            if expect > 1e-300:
                bound = 2e-14 / math.sqrt(eta)
                assert delta_exact_gaussian(eta, eps) == pytest.approx(expect, rel=bound, abs=0.0)

    def test_negative_eps_matches_sixty_digit_arithmetic(self):
        for eta in (1e-4, 0.5, 30.0):
            for eps in (-0.1, -1.0, -50.0, -1000.0):
                expect = sixty_digit_delta(eta, eps)
                assert delta_exact_gaussian(eta, eps) == pytest.approx(expect, rel=1e-11, abs=0.0)

    def test_strictly_decreasing_in_eps(self):
        values = [delta_exact_gaussian(0.5, e) for e in (0.0, 0.5, 1.0, 2.0, 4.0)]
        for hi, lo in zip(values, values[1:]):
            assert lo < hi

    def test_equals_the_builtin_clamp_bit_for_bit(self):
        # Every branch: u < 0, v < 0 <= u, v >= 0, and arguments of _erfcx
        # from 26 up; at +-0, +-inf and etas up to HALF_MAX, where 2 eta is finite.
        rng = random.Random(1919)
        etas = [5e-324, 1e-300, 1e-8, 0.5, 1e30, 1e300, HALF_MAX, math.nextafter(HALF_MAX, 0.0)]
        etas += [math.exp(rng.uniform(math.log(1e-12), math.log(1e300))) for _ in range(300)]
        checked = 0
        for eta in etas:
            s = math.sqrt(2.0 * eta)
            points = [0.0, -0.0, math.inf, -math.inf, eta, -eta, math.nextafter(eta, 0.0), math.nextafter(-eta, 0.0)]
            # Below -eta, between -eta and eta, above eta, and where (eps + eta)/(s sqrt 2) passes 26.
            points += [-eta - s * rng.uniform(0.0, 40.0) for _ in range(5)]
            points += [rng.uniform(-eta, eta) for _ in range(5)]
            points += [eta + s * rng.uniform(0.0, 60.0) for _ in range(5)]
            points += [26.0 * _SQRT2 * s - eta + s * rng.uniform(-0.1, 0.1) for _ in range(5)]
            for eps in points:
                assert float.hex(delta_exact_gaussian(eta, eps)) == float.hex(builtin_delta(eta, eps)), (eta, eps)
                checked += 1
        assert checked == 28 * len(etas)

    @pytest.mark.parametrize("eta", [1e-8, 0.5, 1e300, math.inf])
    def test_refuses_a_nan_eps(self, eta):
        with pytest.raises(ValueError, match="eps must be a number" if eta < math.inf else "eta must be finite"):
            delta_exact_gaussian(eta, math.nan)

    @pytest.mark.parametrize("eps", [0.0, 1.0, 1e300, math.inf, -math.inf])
    def test_refuses_an_infinite_eta(self, eps):
        with pytest.raises(ValueError, match="eta must be finite"):
            delta_exact_gaussian(math.inf, eps)

    def test_where_twice_eta_overflows(self):
        # 2 eta is inf above HALF_MAX; s is then sqrt(2) sqrt(eta).
        assert delta_exact_gaussian(8e307, 1.0) == delta_exact_gaussian(9e307, 1.0) == 1.0
        rng = random.Random(1920)
        for _ in range(40):
            eta = rng.uniform(math.nextafter(HALF_MAX, math.inf), 1.7976931348623157e308)
            eps = eta + math.sqrt(2.0) * math.sqrt(eta) * rng.uniform(-3.0, 37.0)
            expect = sixty_digit_delta(eta, eps)
            if expect > 1e-300:
                assert delta_exact_gaussian(eta, eps) == pytest.approx(expect, rel=1e-11, abs=0.0), (eta, eps)
        assert delta_of_eps(ZcdpParams(0.0, 1.7e308), 1.0, "exact_gaussian") == 1.0
        assert delta_of_eps(ZcdpParams(0.0, 1.7e308), 1.7e308, "exact_gaussian") == pytest.approx(0.5, rel=1e-12)


class TestDiscretizedPld:
    def test_window_spans_the_module_constant(self):
        eta = 0.5
        pld = gaussian_pld_discretized(eta, points=100)
        w = PLD_HALF_WIDTH_SIGMAS * math.sqrt(2.0 * eta)
        assert PLD_HALF_WIDTH_SIGMAS == 12.0
        assert pld.losses[-1] == eta + w
        assert pld.losses[0] == pytest.approx(eta - w + 2.0 * w / 100, rel=1e-15)

    def test_probs_sum_to_one(self):
        pld = gaussian_pld_discretized(0.5)
        assert math.fsum(pld.probs) == pytest.approx(1.0, abs=1e-9)

    def test_mean_is_eta_up_to_edge_bias(self):
        eta, points = 0.5, 4000
        pld = gaussian_pld_discretized(eta, points=points)
        mean = math.fsum(z * w for z, w in zip(pld.losses, pld.probs))
        # upper-edge binning shifts the mean up by at most one bin width
        bin_width = 24.0 * math.sqrt(2.0 * eta) / points
        assert 0.0 <= mean - eta <= bin_width

    def test_moment_functional_matches_linear_curve(self):
        eta = 0.5
        pld = gaussian_pld_discretized(eta, points=8000)
        for alpha in (1.5, 2.0, 3.0):
            assert divergence_from_loss(pld, alpha) == pytest.approx(
                eta * alpha, abs=5e-3
            )


class TestMcdpCounterexample:
    def test_frozen_violation_values(self):
        rec = mcdp_postprocess_violation(1.0, 3.0, 2.0)
        assert rec.violated
        assert rec.lhs == pytest.approx(8707.137303226067, rel=1e-10)
        assert rec.rhs == pytest.approx(math.exp(8.0), rel=1e-12)

    def test_violation_persists_at_larger_threshold(self):
        assert mcdp_postprocess_violation(1.0, 7.0, 3.5).violated

    def test_zero_lambda_is_tight_not_violated(self):
        rec = mcdp_postprocess_violation(1.0, 3.0, 0.0)
        assert not rec.violated
        assert rec.lhs == pytest.approx(1.0, abs=1e-12)
        assert rec.rhs == pytest.approx(1.0, abs=1e-12)

    def test_raw_gaussian_never_violates(self):
        for sigma in (1.0, 2.0):
            for lam in (0.5, 1.0, 2.0):
                rec = mcdp_gaussian_check(sigma, lam)
                assert not rec.violated
                assert rec.lhs == pytest.approx(rec.rhs, rel=1e-7)

    def test_rejects_bad_threshold(self):
        with pytest.raises(ValueError):
            mcdp_postprocess_violation(1.0, 0.5, 2.0)


class TestHyperbolicInequality:
    def test_interior_point(self):
        assert hyperbolic_inequality_check(1.0, 0.5)

    def test_near_diagonal(self):
        assert hyperbolic_inequality_check(1.0, 1.0 - 1e-6)

    def test_corner(self):
        assert hyperbolic_inequality_check(2.0, 0.0)

    def test_rejects_out_of_domain(self):
        with pytest.raises(ValueError):
            hyperbolic_inequality_check(0.5, 1.0)
        with pytest.raises(ValueError):
            hyperbolic_inequality_check(2.5, 1.0)


class TestPinsker:
    def test_callable_f(self):
        p = OutcomeDist((0, 1), (0.7, 0.3))
        q = OutcomeDist((0, 1), (0.4, 0.6))
        rec = pinsker_check(p, q, lambda y: 1.0 if y == 0 else -1.0)
        assert rec.plain_ok and rec.generalized_ok

    def test_rejects_f_outside_unit_range(self):
        p = OutcomeDist((0, 1), (0.7, 0.3))
        with pytest.raises(ValueError):
            pinsker_check(p, p, {0: 2.0, 1: 0.0})

    def test_infinite_divergence_is_vacuous(self):
        p = OutcomeDist((0, 1), (0.5, 0.5))
        q = OutcomeDist((0, 1), (1.0, 0.0))
        rec = pinsker_check(p, q, {0: 1.0, 1: -1.0})
        assert rec.plain_ok and rec.generalized_ok


class TestMcDivergence:
    P = OutcomeDist((0, 1, 2), (0.5, 0.3, 0.2))
    Q = OutcomeDist((0, 1, 2), (0.3, 0.3, 0.4))

    def test_within_three_standard_errors(self):
        truth = renyi_divergence(self.P, self.Q, 2.0)
        est = mc_divergence_estimate(self.P, self.Q, 2.0, 100000, seed=11)
        assert not est.support_violation
        assert abs(est.estimate - truth) <= 3.0 * est.std_error

    def test_seed_reproducibility(self):
        a = mc_divergence_estimate(self.P, self.Q, 2.0, 50000, seed=3)
        b = mc_divergence_estimate(self.P, self.Q, 2.0, 50000, seed=3)
        assert a.estimate == b.estimate
        assert a.std_error == b.std_error

    def test_refuses_negative_seed(self):
        with pytest.raises(ValueError, match="seed must be a non-negative integer, got -1"):
            mc_divergence_estimate(self.P, self.Q, 2.0, 10**4, seed=-1)

    def test_different_seeds_differ(self):
        a = mc_divergence_estimate(self.P, self.Q, 2.0, 50000, seed=3)
        b = mc_divergence_estimate(self.P, self.Q, 2.0, 50000, seed=4)
        assert a.estimate != b.estimate

    def test_support_violation_flagged(self):
        p = OutcomeDist((0, 1), (0.5, 0.5))
        q = OutcomeDist((0, 1), (1.0, 0.0))
        est = mc_divergence_estimate(p, q, 2.0, 10000, seed=1)
        assert est.support_violation
        assert est.estimate == math.inf

    def test_rejects_bad_order_and_small_samples(self):
        with pytest.raises(ValueError):
            mc_divergence_estimate(self.P, self.Q, 1.0, 10000, seed=1)
        with pytest.raises(ValueError):
            mc_divergence_estimate(self.P, self.Q, math.inf, 10000, seed=1)
        with pytest.raises(ValueError):
            mc_divergence_estimate(self.P, self.Q, 2.0, 100, seed=1)
