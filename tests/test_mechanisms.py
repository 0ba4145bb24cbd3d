import math
import random
import sys

import pytest

from cdpacct import (
    ALPHA_GRID,
    ExpMechSpec,
    GaussianMech,
    MultiGaussianMech,
    approx_randomized_response,
    calibrate_sigma_for_dp,
    calibrate_sigma_for_rho,
    exponential_mechanism,
    gaussian_renyi,
    gaussian_rho,
    normal_upper_tail,
    randomized_response,
    renyi_divergence,
    thresholded_gaussian,
    zcdp_to_dp_refined,
)
from cdpacct.accountant import ZcdpParams
from cdpacct.mechanisms import BOT, TOP

FINITE_ALPHAS = [a for a in ALPHA_GRID if not math.isinf(a)]


class TestGaussian:
    def test_unit_mechanism_rho(self):
        assert gaussian_rho(GaussianMech(1.0, 1.0)) == 0.5

    def test_renyi_is_linear_in_order(self):
        mech = GaussianMech(2.0, 1.5)
        rho = gaussian_rho(mech)
        for a in FINITE_ALPHAS:
            assert gaussian_renyi(mech.sensitivity, mech.sigma, a) == rho * a

    def test_infinite_order_diverges(self):
        assert gaussian_renyi(1.0, 1.0, math.inf) == math.inf
        assert gaussian_renyi(0.0, 1.0, math.inf) == 0.0

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            GaussianMech(1.0, 0.0)
        with pytest.raises(ValueError):
            GaussianMech(-1.0, 1.0)

    @pytest.mark.parametrize("sensitivity, sigma", [(math.nan, 1.0), (math.inf, 1.0), (1.0, math.inf), (1.0, math.nan)])
    def test_rejects_non_finite_parameters(self, sensitivity, sigma):
        with pytest.raises(ValueError, match="finite"):
            GaussianMech(sensitivity, sigma)
        with pytest.raises(ValueError, match="finite"):
            MultiGaussianMech(sensitivity, sigma, 3)

    @pytest.mark.parametrize("dim", [0, math.nan, math.inf])
    def test_multivariate_rejects_a_bad_dimension(self, dim):
        with pytest.raises(ValueError, match="dim"):
            MultiGaussianMech(1.0, 1.0, dim)

    def test_renyi_rejects_a_nan_order(self):
        with pytest.raises(ValueError, match="order"):
            gaussian_renyi(1.0, 1.0, math.nan)
        with pytest.raises(ValueError, match="order"):
            gaussian_renyi(1.0, 1.0, 0.5)

    def test_renyi_is_the_order_times_rho(self):
        rng = random.Random(12)
        refused = 0
        for _ in range(2000):
            shift, sigma = 10.0 ** rng.uniform(-150, 150), 10.0 ** rng.uniform(-150, 150)
            a = rng.choice(FINITE_ALPHAS)
            if shift**2 / (2.0 * sigma**2) == math.inf:
                refused += 1
                with pytest.raises(OverflowError):
                    gaussian_renyi(shift, sigma, a)
                continue
            rho = gaussian_rho(GaussianMech(shift, sigma))
            assert gaussian_renyi(shift, sigma, a) == gaussian_renyi(-shift, sigma, a) == a * rho
        assert 0 < refused < 2000

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_renyi_where_a_square_leaves_the_normal_floats(self, scale):
        assert gaussian_renyi(scale, scale, 2.0) == 1.0
        assert gaussian_renyi(-scale, scale, 2.0) == 1.0

    @pytest.mark.parametrize(
        "shift, sigma",
        [(math.nan, 1.0), (math.inf, 1.0), (-math.inf, 1.0), (1.0, math.inf), (1.0, math.nan), (1.0, 0.0), (1.0, -1.0)],
    )
    @pytest.mark.parametrize("alpha", [2.0, math.inf])
    def test_renyi_rejects_non_finite_parameters(self, shift, sigma, alpha):
        with pytest.raises(ValueError, match="finite"):
            gaussian_renyi(shift, sigma, alpha)

    def test_rho_keeps_the_direct_form_where_squares_are_normal(self):
        # Where the direct form is inf, the quotient exceeds the floats and is refused.
        rng = random.Random(11)
        refused = 0
        for _ in range(20000):
            s, sigma = 10.0 ** rng.uniform(-150, 150), 10.0 ** rng.uniform(-150, 150)
            direct = s**2 / (2.0 * sigma**2)
            if direct == math.inf:
                refused += 1
                with pytest.raises(OverflowError):
                    gaussian_rho(GaussianMech(s, sigma))
            else:
                assert gaussian_rho(GaussianMech(s, sigma)) == direct
        assert refused == 2344
        assert gaussian_rho(GaussianMech(0.0, 1e300)) == 0.0

    @pytest.mark.parametrize("scale", [1e200, 1e154, 2.0**511, 2.0**-512, 1e-160, 1e-200, 1e-300])
    def test_rho_where_a_square_leaves_the_normal_floats(self, scale):
        # s^2 or 2 sigma^2 overflows, or underflows to a subnormal or 0;
        # the ratio is still exact.
        assert gaussian_rho(GaussianMech(scale, scale)) == 0.5
        assert gaussian_rho(GaussianMech(3.0 * scale, 2.0 * scale)) == pytest.approx(1.125, rel=1e-15)

    @pytest.mark.parametrize(
        "sensitivity, sigma", [(1e300, 1e-10), (1e-10, 5e-324), (1.7e308, 0.5), (1e150, 1e-150)]
    )
    def test_rho_refuses_a_quotient_beyond_the_floats(self, sensitivity, sigma):
        # Float division gives inf here without raising.
        with pytest.raises(OverflowError):
            gaussian_rho(GaussianMech(sensitivity, sigma))
        with pytest.raises(OverflowError):
            gaussian_renyi(sensitivity, sigma, 2.0)

    def test_multivariate_reduces_to_scalar(self):
        multi = MultiGaussianMech(3.0, 2.0, 7)
        scalar = multi.as_scalar()
        assert scalar.sensitivity == 3.0
        assert scalar.sigma == 2.0
        assert gaussian_rho(scalar) == pytest.approx(9.0 / 8.0)


class TestCalibration:
    def test_sigma_for_rho_unit_case(self):
        assert calibrate_sigma_for_rho(1.0, 0.5) == pytest.approx(1.0, abs=1e-12)

    def test_sigma_for_rho_scales_with_sensitivity(self):
        a = calibrate_sigma_for_rho(1.0, 0.3)
        b = calibrate_sigma_for_rho(2.0, 0.3)
        assert b == pytest.approx(2.0 * a, rel=1e-15)

    def test_sigma_for_dp_meets_target(self):
        for eps, delta in ((0.5, 1e-6), (1.0, 1e-5), (2.0, 1e-8)):
            sigma = calibrate_sigma_for_dp(1.0, eps, delta)
            rho = gaussian_rho(GaussianMech(1.0, sigma))
            achieved = zcdp_to_dp_refined(ZcdpParams(0.0, rho), eps)
            assert achieved <= delta * (1.0 + 1e-6)

    def test_sigma_for_dp_beats_simple_bound(self):
        # The simple conversion needs rho with eps = rho + sqrt(4 rho L),
        # L = ln(1/delta); solving gives rho = (sqrt(L+eps) - sqrt(L))^2,
        # written here without its cancellation.  Below eps ~ 1e-42 the
        # refined root is met only by bisecting rho all the way to one ulp.
        for eps, delta in ((1.0, 1e-6), (1e-45, 1e-300), (1e-60, 1e-300), (1e-100, 1e-300)):
            L = math.log(1.0 / delta)
            rho_simple = (eps / (math.sqrt(L + eps) + math.sqrt(L))) ** 2
            sigma_simple = 1.0 / math.sqrt(2.0 * rho_simple)
            assert calibrate_sigma_for_dp(1.0, eps, delta) < sigma_simple, eps

    def test_sigma_for_dp_scale_invariance(self):
        base = calibrate_sigma_for_dp(1.0, 0.7, 1e-6)
        assert calibrate_sigma_for_dp(3.0, 0.7, 1e-6) == 3.0 * base

    def test_sigma_for_dp_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            calibrate_sigma_for_dp(1.0, 0.0, 1e-6)
        with pytest.raises(ValueError):
            calibrate_sigma_for_dp(1.0, 1.0, 0.0)

    @pytest.mark.parametrize("sensitivity, eps", [(math.inf, 1.0), (math.nan, 1.0), (1.0, math.inf), (1.0, math.nan)])
    def test_sigma_for_dp_rejects_non_finite_inputs(self, sensitivity, eps):
        with pytest.raises(ValueError, match="finite"):
            calibrate_sigma_for_dp(sensitivity, eps, 1e-6)

    @pytest.mark.parametrize("sensitivity, rho", [(1.0, math.inf), (math.inf, 1.0), (math.nan, 1.0), (1.0, math.nan)])
    def test_sigma_for_rho_rejects_non_finite_inputs(self, sensitivity, rho):
        with pytest.raises(ValueError, match="finite"):
            calibrate_sigma_for_rho(sensitivity, rho)

    @pytest.mark.parametrize("sensitivity, rho", [(1e-320, 0.5), (1e-300, 1e30), (1e300, 1e-300)])
    def test_sigma_outside_the_normal_floats_is_refused(self, sensitivity, rho):
        # A subnormal sigma has lost digits; an infinite one is no noise scale.
        with pytest.raises(ValueError, match="normal floating-point range"):
            calibrate_sigma_for_rho(sensitivity, rho)

    @pytest.mark.parametrize("sensitivity", [1e-200, 1e200])
    def test_sigma_for_dp_at_extreme_sensitivities(self, sensitivity):
        # Here both sensitivity^2 and sigma^2 leave the normal floats.
        unit = calibrate_sigma_for_dp(1.0, 1e-3, 1e-6)
        sigma = calibrate_sigma_for_dp(sensitivity, 1e-3, 1e-6)
        assert sigma == pytest.approx(sensitivity * unit, rel=1e-15)
        rho = gaussian_rho(GaussianMech(sensitivity, sigma))
        assert rho == pytest.approx(gaussian_rho(GaussianMech(1.0, unit)), rel=1e-15)


class TestRandomizedResponse:
    def test_keep_probability_at_ln3(self):
        plus, minus = randomized_response(math.log(3.0))
        assert plus.prob_of(1) == pytest.approx(0.75, abs=1e-15)
        assert minus.prob_of(-1) == pytest.approx(0.75, abs=1e-15)

    def test_rejects_nonpositive_eps(self):
        with pytest.raises(ValueError):
            randomized_response(0.0)

    # e^eps overflows just past log(max float) = 709.78...; the quotient is
    # 1.0 long before, so both channels keep the bit surely beyond it.
    @pytest.mark.parametrize("eps", [0.1, 1.0, 36.0, 38.0, 709.0, math.log(sys.float_info.max)])
    def test_keep_probability_is_the_exp_quotient(self, eps):
        keep = math.exp(eps) / (1.0 + math.exp(eps))
        assert randomized_response(eps)[0].probs == (keep, 1.0 - keep)
        assert approx_randomized_response(eps, 0.0)[0].prob_of((0, BOT)) == keep

    @pytest.mark.parametrize("eps", [math.nextafter(math.log(sys.float_info.max), math.inf), 800.0, 1e300])
    def test_keep_probability_is_one_where_exp_overflows(self, eps):
        assert randomized_response(eps)[0].probs == (1.0, 0.0)
        assert approx_randomized_response(eps, 0.0)[0].prob_of((0, BOT)) == 1.0

    @pytest.mark.parametrize("eps", [math.inf, math.nan])
    def test_rejects_non_finite_eps(self, eps):
        with pytest.raises(ValueError, match="finite"):
            randomized_response(eps)
        with pytest.raises(ValueError, match="finite"):
            approx_randomized_response(eps, 0.1)


class TestApproxRandomizedResponse:
    def test_conditioned_on_bot_is_randomized_response(self):
        eps, delta = 0.9, 0.2
        b0, b1 = approx_randomized_response(eps, delta)
        keep = math.exp(eps) / (1.0 + math.exp(eps))
        bot_mass = sum(
            pr for y, pr in zip(b0.outcomes, b0.probs) if y[1] == BOT
        )
        assert bot_mass == pytest.approx(1.0 - delta, abs=1e-12)
        assert b0.prob_of((0, BOT)) / bot_mass == pytest.approx(keep, abs=1e-12)
        assert b1.prob_of((1, BOT)) / bot_mass == pytest.approx(keep, abs=1e-12)

    def test_top_events_are_disjoint(self):
        b0, b1 = approx_randomized_response(1.0, 0.1)
        assert b0.prob_of((1, TOP)) == 0.0
        assert b1.prob_of((0, TOP)) == 0.0
        assert b0.prob_of((0, TOP)) == pytest.approx(0.1)

    def test_zero_delta_reduces_to_pure(self):
        b0, b1 = approx_randomized_response(1.0, 0.0)
        assert renyi_divergence(b0, b1, math.inf) == pytest.approx(1.0, abs=1e-10)


class TestExponentialMechanism:
    def test_two_candidate_softmax(self):
        out = exponential_mechanism(ExpMechSpec((0.0, 1.0), 1.0, 2.0))
        assert out.probs[0] == pytest.approx(0.7310585786300049, abs=1e-15)
        assert out.probs[1] == pytest.approx(0.2689414213699951, abs=1e-15)

    def test_shift_invariance(self):
        base = exponential_mechanism(ExpMechSpec((0.3, 1.1, 2.0), 2.0, 1.5))
        shifted = exponential_mechanism(ExpMechSpec((10.3, 11.1, 12.0), 2.0, 1.5))
        for a, b in zip(base.probs, shifted.probs):
            assert a == pytest.approx(b, abs=1e-12)

    def test_ties_stay_distinct(self):
        out = exponential_mechanism(ExpMechSpec((1.0, 1.0, 1.0), 1.0, 1.0))
        assert len(out.outcomes) == 3
        for pr in out.probs:
            assert pr == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_lower_loss_gets_higher_mass(self):
        out = exponential_mechanism(ExpMechSpec((0.0, 5.0), 1.0, 1.0))
        assert out.probs[0] > out.probs[1]

    def test_rejects_empty_and_infinite(self):
        with pytest.raises(ValueError):
            ExpMechSpec((), 1.0, 1.0)
        with pytest.raises(ValueError):
            ExpMechSpec((math.inf,), 1.0, 1.0)


class TestThresholdedGaussian:
    def test_normal_upper_tail_values(self):
        assert normal_upper_tail(0.0) == pytest.approx(0.5, abs=1e-16)
        assert normal_upper_tail(1.0) == pytest.approx(0.15865525393145707, abs=1e-16)
        assert normal_upper_tail(2.0, sigma=2.0) == pytest.approx(
            0.15865525393145707, abs=1e-16
        )

    def test_normal_upper_tail_at_infinite_u(self):
        assert normal_upper_tail(math.inf) == 0.0
        assert normal_upper_tail(-math.inf, 2.0) == 1.0

    @pytest.mark.parametrize(
        "u, sigma", [(math.nan, 1.0), (1.0, 0.0), (1.0, -1.0), (1.0, math.inf), (1.0, math.nan)]
    )
    def test_normal_upper_tail_rejects_bad_arguments(self, u, sigma):
        with pytest.raises(ValueError, match="positive finite sigma"):
            normal_upper_tail(u, sigma)

    @pytest.mark.parametrize("sigma", [math.inf, math.nan, 0.0, -1.0])
    def test_rejects_a_sigma_that_is_not_positive_and_finite(self, sigma):
        with pytest.raises(ValueError, match="positive finite sigma"):
            thresholded_gaussian(sigma, 3.0)

    def test_threshold_three_sigma_one(self):
        plus, minus = thresholded_gaussian(1.0, 3.0)
        p = plus.prob_of(1)
        q = minus.prob_of(1)
        assert p == pytest.approx(0.02275013194817922, abs=1e-16)
        assert q == pytest.approx(3.1671241833119965e-05, abs=1e-19)
        # The likelihood ratio at the top outcome exceeds e^6, so the pair
        # is nowhere near eps-DP for moderate eps.
        assert p / q > math.exp(6.0)

    def test_symmetry_of_shifted_pair(self):
        plus, minus = thresholded_gaussian(1.0, 3.0)
        assert plus.prob_of(1) == minus.prob_of(-1)
        assert plus.prob_of(-1) == minus.prob_of(1)
        assert plus.prob_of(0) == minus.prob_of(0)

    def test_rejects_small_threshold(self):
        with pytest.raises(ValueError):
            thresholded_gaussian(1.0, 1.0)
