"""The eps and sigma searches of accountant._search against a plain scan and bisection.

The secant window must leave every answer and every exception as the plain
search gives them, and it must actually save evaluations: a window that
silently fell back to calling the conversion everywhere would pass the
first check only.
"""

import math
import random

import pytest

import cdpacct.accountant as acct
from cdpacct import ZcdpParams, calibrate_sigma_for_dp, eps_for_delta, eps_of_delta


def outcome(fn, *args):
    try:
        return fn(*args)
    except (ArithmeticError, ValueError) as exc:
        return type(exc)


def scan_and_bisect(f, target, end, base, step, factor, atol, *window, **domain):
    """The search _search makes, with f deciding every point and no window."""
    if f(end) <= target:
        return end
    while True:
        if not 0.0 < step < math.inf:
            raise ValueError("no value in floating-point range meets the target")
        if f(base + step) <= target:
            break
        step *= factor
    good, bad = base + step, end
    while abs(good - bad) > atol:
        mid = 0.5 * (good + bad)
        if mid == good or mid == bad:
            break
        if f(mid) <= target:
            good = mid
        else:
            bad = mid
    return good


@pytest.fixture
def plain(monkeypatch):
    """Calls fn with the plain scan and bisection in place of _search."""

    def run(fn, *args):
        with monkeypatch.context() as m:
            m.setattr(acct, "_search", scan_and_bisect)
            return outcome(fn, *args)

    return run


def log_uniform(rng, lo, hi):
    return 10.0 ** rng.uniform(lo, hi)


def budgets(seed, n, delta_approx=(0.0,)):
    """n (params, delta): half in the range the benchmark uses, half from 1e-8 to 1e12 and to 1e-300."""
    rng = random.Random(seed)
    for i in range(n):
        narrow = i % 2 == 0
        rho = log_uniform(rng, -3, 2) if narrow else log_uniform(rng, -8, 12)
        delta = log_uniform(rng, -12, -2) if narrow else log_uniform(rng, -300, -0.001)
        xi = rng.choice([0.0, rng.uniform(0.0, 0.1)])
        yield ZcdpParams(xi, rho, rng.choice(delta_approx)), delta


def calibration_targets(seed, n):
    rng = random.Random(seed)
    for i in range(n):
        if i % 2 == 0:
            yield log_uniform(rng, -2, 1.5), log_uniform(rng, -12, -2)
        else:
            yield log_uniform(rng, -4, 5), log_uniform(rng, -300, -0.001)


def assert_same(cases, fn, plain):
    differ = [args for args in cases if outcome(fn, *args) != plain(fn, *args)]
    assert not differ, differ[:5]


class TestSameAnswersAsThePlainSearch:
    def test_refined_eps_of_delta(self, plain):
        cases = [(p, d, "refined") for p, d in budgets(7001, 2000, (0.0, 1e-13, 1e-9))]
        assert_same(cases, eps_of_delta, plain)

    def test_exact_gaussian_eps_of_delta(self, plain):
        cases = [(ZcdpParams(0.0, p.rho), d, "exact_gaussian") for p, d in budgets(7002, 2000)]
        assert_same(cases, eps_of_delta, plain)

    def test_eps_for_delta(self, plain):
        assert_same(list(budgets(7003, 2000)), eps_for_delta, plain)

    def test_calibrate_sigma_for_dp(self, plain):
        cases = [(1.0, eps, delta) for eps, delta in calibration_targets(7004, 2000)]
        assert_same(cases, calibrate_sigma_for_dp, plain)

    @pytest.mark.parametrize(
        "rho, xi",
        [(2.0**19, 0.0), (1e6, 0.0), (1.0, 2.0**19), (1e10, 1e6), (1e24, 0.0), (1e30, 0.0)],
    )
    def test_eps_where_the_bracket_cannot_be_split(self, rho, xi, plain):
        # Above 2^19 adjacent floats are more than 1e-10 apart, so the
        # bisection stops on an unsplittable bracket instead of its tolerance.
        for delta in (1e-300, 1e-12, 1e-6, 0.5):
            for method in ("refined", "exact_gaussian"):
                params = ZcdpParams(0.0 if method == "exact_gaussian" else xi, rho)
                assert outcome(eps_of_delta, params, delta, method) == plain(
                    eps_of_delta, params, delta, method
                )
        assert eps_of_delta(ZcdpParams(xi, rho), 1e-6) >= 2.0**19

    @pytest.mark.parametrize("delta", [0.5, 0.999999, 1.0 - 2.0**-52, 1.0 - 2.0**-53])
    def test_delta_close_to_one(self, delta, plain):
        for rho in (1e-3, 0.5, 30.0, 1e8):
            for method in ("refined", "exact_gaussian"):
                args = (ZcdpParams(0.0, rho), delta, method)
                assert outcome(eps_of_delta, *args) == plain(eps_of_delta, *args)
        for eps in (1e-3, 1.0, 2.0**19):
            assert outcome(calibrate_sigma_for_dp, 1.0, eps, delta) == plain(
                calibrate_sigma_for_dp, 1.0, eps, delta
            )

    @pytest.mark.parametrize("delta", [1e-100, 1e-300, 5e-324])
    def test_tiny_delta(self, delta, plain):
        for rho in (1e-180, 1e-20, 1e-3, 1.0, 1e12):
            for method in ("refined", "exact_gaussian"):
                args = (ZcdpParams(0.0, rho), delta, method)
                assert outcome(eps_of_delta, *args) == plain(eps_of_delta, *args)
        for eps in (1e-200, 1e-150, 1e-3, 1.0, 1e3):
            assert outcome(calibrate_sigma_for_dp, 1.0, eps, delta) == plain(
                calibrate_sigma_for_dp, 1.0, eps, delta
            )

    @pytest.mark.parametrize(
        "params, delta",
        [(ZcdpParams(0.0, 1e300), 1e-6), (ZcdpParams(0.0, 1e-180), 1e-100)],
    )
    def test_overflow_raises_as_before(self, params, delta, plain):
        # Both overflow inside the conversion at some step of the plain search.
        assert outcome(eps_of_delta, params, delta) is OverflowError
        assert plain(eps_of_delta, params, delta) is OverflowError

    @pytest.mark.parametrize("eps", [2.7e154, 1e200, 1.7e308])
    def test_calibration_overflow_raises_as_before(self, eps, plain):
        assert outcome(calibrate_sigma_for_dp, 1.0, eps, 1e-6) is OverflowError
        assert plain(calibrate_sigma_for_dp, 1.0, eps, 1e-6) is OverflowError


def test_an_estimate_outside_the_domain_gives_back_f():
    # f is monotone only on its domain x >= 0.5, the span of the rising scan
    # from 0.5.  The secant from 4 and 9 lands on -1, where f also meets the
    # target; a window there would reverse every decision of the search above 0.5.
    def f(x):
        return math.exp(-abs(x))

    target = math.exp(-1.0)
    args = (f, target, 0.5, 0.5, 1.0, 2.0, 1e-12, (4.0, 9.0))
    assert acct._search(*args) == scan_and_bisect(*args) == 1.0


def test_an_estimate_past_the_end_of_a_falling_scan_gives_back_f():
    # A falling scan from end = 1 takes [0, 1] as f's domain.  f rises on it
    # but falls past 1; the secant from 1.5 and 1.6 lands on 1.75, where f
    # also meets the target, and a window there would decide 0.25 wrongly.
    def f(x):
        return x if x <= 1.0 else 2.0 - x

    args = (f, 0.25, 1.0, 0.0, 1.0, 0.5, 0.0, (1.5, 1.6))
    assert acct._search(*args) == scan_and_bisect(*args) == 0.25


@pytest.fixture
def refined_calls(monkeypatch):
    """A one-element list counting calls of the refined kernel."""
    calls = [0]
    original = acct._refined

    def counted(xi, rho, eps):
        calls[0] += 1
        return original(xi, rho, eps)

    monkeypatch.setattr(acct, "_refined", counted)
    return calls


class TestEvaluationCounts:
    # The plain searches take about 40 refined evaluations per eps query, 66
    # per calibration and 48 exact-Gaussian ones per exact eps query here.
    def test_refined_eps_query(self, refined_calls):
        rng = random.Random(7005)
        n = 1000
        for _ in range(n):
            xi = rng.choice([0.0, rng.uniform(0.0, 0.1)])
            eps_for_delta(ZcdpParams(xi, log_uniform(rng, -3, 2)), log_uniform(rng, -12, -2))
        assert n <= refined_calls[0] <= 12 * n

    def test_calibration(self, refined_calls):
        rng = random.Random(7006)
        n = 500
        for _ in range(n):
            calibrate_sigma_for_dp(1.0, rng.uniform(0.5, 2.0), log_uniform(rng, -12, -4))
        assert n <= refined_calls[0] <= 30 * n

    def test_subnormal_delta(self, refined_calls, plain):
        # At delta = 1e-320 the refined delta near the root is subnormal, in
        # steps of about 5e-4 of its value, so f is flat across the window,
        # which never forms: f decides every point, after the secant's calls.
        rng = random.Random(7008)
        budgets = [ZcdpParams(rng.choice([0.0, 0.05]), log_uniform(rng, -3, 2)) for _ in range(100)]
        epsilons = [rng.uniform(0.5, 2.0) for _ in range(50)]
        answers = [eps_for_delta(b, 1e-320) for b in budgets]
        answers += [calibrate_sigma_for_dp(1.0, eps, 1e-320) for eps in epsilons]
        windowed, refined_calls[0] = refined_calls[0], 0
        want = [plain(eps_for_delta, b, 1e-320) for b in budgets]
        want += [plain(calibrate_sigma_for_dp, 1.0, eps, 1e-320) for eps in epsilons]
        assert answers == want
        assert refined_calls[0] <= windowed <= refined_calls[0] + 8 * (len(budgets) + len(epsilons))

    def test_overflowing_eps_query(self, refined_calls):
        # About 445 scan steps lie below half an ulp of xi + rho = 1e300 and
        # round to the point just evaluated.
        with pytest.raises(OverflowError):
            eps_of_delta(ZcdpParams(0.0, 1e300), 1e-6)
        assert refined_calls[0] <= 10

    @pytest.mark.parametrize("method", ["refined", "exact_gaussian"])
    def test_eps_met_at_the_scan_start_takes_one_evaluation(self, method, refined_calls, monkeypatch):
        # The scan starts at the first seed, xi + rho or 0, so that seed's
        # value decides the answer before any secant step.
        calls = [0]
        original = acct.delta_exact_gaussian

        def counted(eta, eps):
            calls[0] += 1
            return original(eta, eps)

        monkeypatch.setattr(acct, "delta_exact_gaussian", counted)
        params = ZcdpParams(0.0, 1e-3)
        assert eps_of_delta(params, 0.5, method) == (1e-3 if method == "refined" else 0.0)
        assert refined_calls[0] + calls[0] == 1

    def test_exact_gaussian_eps_query(self, monkeypatch):
        calls = [0]
        original = acct.delta_exact_gaussian

        def counted(eta, eps):
            calls[0] += 1
            return original(eta, eps)

        monkeypatch.setattr(acct, "delta_exact_gaussian", counted)
        rng = random.Random(7007)
        n = 500
        for _ in range(n):
            params = ZcdpParams(0.0, log_uniform(rng, -3, 2))
            eps_of_delta(params, log_uniform(rng, -12, -2), "exact_gaussian")
        assert n <= calls[0] <= 20 * n
