import dataclasses
import importlib
import itertools
import math
import pkgutil
import random
import re
import time
from collections.abc import Mapping
from fractions import Fraction
from types import MappingProxyType

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdpacct import (
    DpPoint,
    LedgerEntry,
    McdpParams,
    ZcdpParams,
    advanced_composition_baseline,
    approx_zcdp_to_dp,
    compose,
    delta_of_eps,
    delta_of_eps_grid,
    dp_composition_bound,
    dp_composition_refined,
    dp_family_to_zcdp,
    dp_to_approx_zcdp,
    dp_to_approx_zcdp_maxdiv,
    entry_to_zcdp,
    eps_for_delta,
    eps_of_delta,
    group_privacy,
    mcdp_to_zcdp,
    pure_dp_to_zcdp,
    zcdp_to_dp_refined,
    zcdp_to_dp_simple,
    zcdp_to_mcdp,
)
import cdpacct
from cdpacct import accountant
from cdpacct.accountant import CURVE_METHODS, MAX_GROUP_SIZE, MIN_EXACT_RHO, _search


class TestParamTypes:
    def test_zcdp_defaults(self):
        p = ZcdpParams(0.1, 0.2)
        assert p.delta_approx == 0.0

    def test_zcdp_rejects_bad_fields(self):
        for bad in ((-0.1, 0.0, 0.0), (0.0, -0.1, 0.0), (0.0, 0.0, 1.5), (math.nan, 0.0, 0.0)):
            with pytest.raises(ValueError):
                ZcdpParams(*bad)

    @pytest.mark.parametrize("bad", [(math.inf, 0.0), (0.0, math.inf), (0.0, math.nan)])
    def test_zcdp_rejects_non_finite_budgets(self, bad):
        with pytest.raises(ValueError, match="finite"):
            ZcdpParams(*bad)

    def test_dp_point_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            DpPoint(-1.0, 0.0)
        with pytest.raises(ValueError):
            DpPoint(1.0, -0.1)
        with pytest.raises(ValueError):
            DpPoint(1.0, 1.1)

    def test_mcdp_allows_degenerate_zero(self):
        m = McdpParams(0.0, 0.0)
        assert m.mu == 0.0

    def test_mcdp_rejects_negative_tau(self):
        with pytest.raises(ValueError):
            McdpParams(1.0, -0.5)


class TestLedgerEntries:
    def test_valid_kinds_round_trip(self):
        entries = [
            LedgerEntry("gaussian", {"sensitivity": 1.0, "sigma": 2.0}),
            LedgerEntry("pure_dp", {"eps": 0.3}),
            LedgerEntry("approx_dp", {"eps": 0.3, "delta": 1e-6}),
            LedgerEntry("zcdp", {"xi": 0.0, "rho": 0.1, "delta": 0.0}),
            LedgerEntry("mcdp", {"mu": 1.0, "tau": 1.0}),
        ]
        for e in entries:
            budget = entry_to_zcdp(e)
            assert budget.rho >= 0.0

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            LedgerEntry("laplace", {"eps": 1.0})

    def test_missing_field_rejected(self):
        with pytest.raises(ValueError):
            LedgerEntry("gaussian", {"sigma": 1.0})

    def test_extra_field_rejected(self):
        with pytest.raises(ValueError):
            LedgerEntry("pure_dp", {"eps": 1.0, "bonus": 2.0})

    def test_non_numeric_rejected(self):
        with pytest.raises(ValueError):
            LedgerEntry("pure_dp", {"eps": "big"})
        with pytest.raises(ValueError):
            LedgerEntry("pure_dp", {"eps": True})
        with pytest.raises(ValueError):
            LedgerEntry("pure_dp", {"eps": math.nan})

    @pytest.mark.parametrize("value", [math.inf, -math.inf, float("1e400")])
    def test_non_finite_rejected(self, value):
        with pytest.raises(ValueError, match="must be finite"):
            LedgerEntry("gaussian", {"sensitivity": value, "sigma": 1.0})

    def test_gaussian_entry_budget(self):
        e = LedgerEntry("gaussian", {"sensitivity": 1.0, "sigma": 1.0})
        assert entry_to_zcdp(e) == ZcdpParams(0.0, 0.5)

    def test_gaussian_entry_matches_mechanism_rho(self):
        from cdpacct import GaussianMech, gaussian_rho

        for sens, sigma in ((0.5, 1.0), (2.0, 0.7), (3.0, 4.0)):
            e = LedgerEntry("gaussian", {"sensitivity": sens, "sigma": sigma})
            assert entry_to_zcdp(e).rho == gaussian_rho(GaussianMech(sens, sigma))

    @pytest.mark.parametrize("scale", [1e200, 1e154, 1e-200])
    def test_gaussian_entry_beyond_the_squares(self, scale):
        # s^2 / (2 sigma^2) overflows or divides by an underflowed 0 here.
        e = LedgerEntry("gaussian", {"sensitivity": scale, "sigma": scale})
        assert entry_to_zcdp(e) == ZcdpParams(0.0, 0.5)

    def test_pure_dp_entry_uses_quadratic_route(self):
        e = LedgerEntry("pure_dp", {"eps": 1.0})
        assert entry_to_zcdp(e) == ZcdpParams(0.0, 0.5, 0.0)

    def test_mcdp_entry_converts(self):
        e = LedgerEntry("mcdp", {"mu": 1.0, "tau": 1.0})
        assert entry_to_zcdp(e) == ZcdpParams(0.5, 0.5, 0.0)

    def test_gaussian_entry_whose_quotient_overflows(self):
        # sensitivity / sigma is 1e310: rho exceeds the floats.
        e = LedgerEntry("gaussian", {"sensitivity": 1e300, "sigma": 1e-10})
        with pytest.raises(OverflowError):
            entry_to_zcdp(e)


def refusal(make, *args):
    with pytest.raises(ValueError) as exc:
        make(*args)
    return str(exc.value)


class TestValueTypeContract:
    """The four value types behave as frozen dataclasses that check their fields."""

    EXAMPLES = [
        (ZcdpParams(0.1, 0.2), ZcdpParams(0.1, 0.2, 0.0), ZcdpParams(0.1, 0.2, 1e-9)),
        (DpPoint(1.0, 1e-6), DpPoint(1.0, 1e-6), DpPoint(1.0, 1e-7)),
        (McdpParams(1.0, 0.5), McdpParams(1.0, 0.5), McdpParams(1.0, 0.25)),
        (
            LedgerEntry("pure_dp", {"eps": 1}),
            LedgerEntry("pure_dp", {"eps": 1.0}),
            LedgerEntry("pure_dp", {"eps": 1.0}, "x"),
        ),
    ]

    def test_repr(self):
        assert [repr(a) for a, _, _ in self.EXAMPLES] == [
            "ZcdpParams(xi=0.1, rho=0.2, delta_approx=0.0)",
            "DpPoint(eps=1.0, delta=1e-06)",
            "McdpParams(mu=1.0, tau=0.5)",
            "LedgerEntry(kind='pure_dp', params={'eps': 1.0}, label='')",
        ]

    @pytest.mark.parametrize("a, same, other", EXAMPLES)
    def test_eq_and_hash(self, a, same, other):
        assert a == same and a != other and not a != same
        if isinstance(a, LedgerEntry):
            with pytest.raises(TypeError):  # its params are a dict
                hash(a)
        else:
            assert hash(a) == hash(same)
            assert {a, same, other} == {a, other}

    def test_fields_and_replace(self):
        names = {
            ZcdpParams: ["xi", "rho", "delta_approx"],
            DpPoint: ["eps", "delta"],
            McdpParams: ["mu", "tau"],
            LedgerEntry: ["kind", "params", "label"],
        }
        for cls, want in names.items():
            assert [f.name for f in dataclasses.fields(cls)] == want
        assert dataclasses.replace(ZcdpParams(0.1, 0.2), rho=0.3) == ZcdpParams(0.1, 0.3)
        assert dataclasses.replace(DpPoint(1.0, 0.5), delta=0.25) == DpPoint(1.0, 0.25)
        assert dataclasses.replace(McdpParams(1.0, 0.5), mu=2.0) == McdpParams(2.0, 0.5)
        entry = dataclasses.replace(LedgerEntry("pure_dp", {"eps": 1}), label="x")
        assert entry == LedgerEntry("pure_dp", {"eps": 1.0}, "x")
        # replace goes through __init__, so its checks hold too.
        with pytest.raises(ValueError, match="rho must be nonnegative and finite"):
            dataclasses.replace(ZcdpParams(0.1, 0.2), rho=-1.0)
        with pytest.raises(ValueError, match="unknown fields"):
            dataclasses.replace(entry, params={"eps": 1.0, "delta": 0.0})

    @pytest.mark.parametrize("value, name", [(e[0], n) for e, n in zip(EXAMPLES, ["xi", "eps", "tau", "label"])])
    def test_fields_cannot_be_assigned_or_deleted(self, value, name):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, name, 0.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(value, name)

    def test_refusal_messages(self):
        assert [
            refusal(ZcdpParams, -0.1, 0.0),
            refusal(ZcdpParams, 0.0, math.nan),
            refusal(ZcdpParams, 0.0, 0.0, 1.5),
            refusal(DpPoint, math.nan, 0.0),
            refusal(DpPoint, -1.0, 0.0),
            refusal(DpPoint, 1.0, -0.1),
            refusal(McdpParams, math.nan, 0.0),
            refusal(McdpParams, 0.0, -0.5),
            refusal(McdpParams, 0.0, math.nan),
        ] == [
            "xi must be nonnegative and finite",
            "rho must be nonnegative and finite",
            "delta_approx must be in [0, 1]",
            "eps must be nonnegative",
            "eps must be nonnegative",
            "delta must be in [0, 1]",
            "mu must be a real number",
            "tau must be nonnegative",
            "tau must be nonnegative",
        ]

    def test_ledger_refusals_come_in_order(self):
        # Each input breaks its rule at the first required field, 'eps', and
        # the later rules there or at 'delta', so only the first check that
        # it reaches may name it.
        kinds = "['approx_dp', 'gaussian', 'mcdp', 'pure_dp', 'zcdp']"
        assert [
            refusal(LedgerEntry, "laplace", {"bonus": "x"}),
            refusal(LedgerEntry, "approx_dp", {"delta": "x", "bonus": 1.0}),
            refusal(LedgerEntry, "approx_dp", {"delta": math.inf, "eps": True, "bonus": 1.0}),
            refusal(LedgerEntry, "approx_dp", {"delta": "x", "eps": math.nan, "bonus": 1.0}),
            refusal(LedgerEntry, "approx_dp", {"delta": 1.0, "eps": 1e400, "bonus": 1.0, "a": 2.0}),
        ] == [
            f"unknown entry kind 'laplace'; expected one of {kinds}",
            "entry kind 'approx_dp' requires field 'eps'",
            "field 'eps' must be a number, got True",
            "field 'eps' must be finite, got nan",
            "field 'eps' must be finite, got inf",
        ]
        assert refusal(LedgerEntry, "approx_dp", {"delta": 0.0, "eps": 1, "bonus": 1.0, "a": 2.0}) == (
            "entry kind 'approx_dp' has unknown fields ['a', 'bonus']"
        )

    def test_ledger_params_keep_the_callers_key_order_as_floats(self):
        given = {"delta": 0, "rho": 2, "xi": 0.5}
        entry = LedgerEntry("zcdp", given)
        assert list(entry.params.items()) == [("delta", 0.0), ("rho", 2.0), ("xi", 0.5)]
        assert all(type(v) is float for v in entry.params.values())
        given["rho"] = 3.0
        assert entry.params["rho"] == 2.0  # a copy, not the caller's dict

    def test_ledger_converts_numbers_that_are_not_exactly_float(self):
        # Float subclasses and ints are stored as floats, and a refusal names the caller's value.
        entry = LedgerEntry("approx_dp", {"eps": np.float64(0.5), "delta": 0})
        assert [(type(v), v) for v in entry.params.values()] == [(float, 0.5), (float, 0.0)]
        assert refusal(LedgerEntry, "pure_dp", {"eps": np.float64(math.inf)}) == (
            f"field 'eps' must be finite, got {np.float64(math.inf)!r}"
        )
        with pytest.raises(OverflowError):
            LedgerEntry("pure_dp", {"eps": 10**400})

    def test_ledger_accepts_any_mapping(self):
        class Params(Mapping):
            def __init__(self, items):
                self._data = dict(items)

            def __getitem__(self, key):
                return self._data[key]

            def __iter__(self):
                return iter(self._data)

            def __len__(self):
                return len(self._data)

        want = {"sigma": 2.0, "sensitivity": 1.0}
        for params in (MappingProxyType({"sigma": 2, "sensitivity": 1}), Params({"sigma": 2, "sensitivity": 1.0})):
            entry = LedgerEntry("gaussian", params)
            assert type(entry.params) is dict and list(entry.params.items()) == list(want.items())
        with pytest.raises(ValueError, match=re.escape("unknown fields ['bonus']")):
            LedgerEntry("pure_dp", Params({"eps": 1.0, "bonus": 2.0}))


class TestCompose:
    def test_two_unit_gaussians_compose_to_one(self):
        e = LedgerEntry("gaussian", {"sensitivity": 1.0, "sigma": 1.0})
        composed = compose([entry_to_zcdp(e), entry_to_zcdp(e)])
        assert composed == ZcdpParams(0.0, 1.0, 0.0)

    def test_deltas_union_bound(self):
        composed = compose([ZcdpParams(0.0, 0.1, 0.1), ZcdpParams(0.0, 0.1, 0.2)])
        assert composed.delta_approx == pytest.approx(1.0 - 0.9 * 0.8, abs=1e-15)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            compose([])

    def test_permutation_invariance(self, rng):
        parts = [
            ZcdpParams(float(x), float(r), float(d))
            for x, r, d in zip(rng.random(8), rng.random(8), rng.random(8) * 1e-3)
        ]
        base = compose(parts)
        for _ in range(10):
            perm = [parts[i] for i in rng.permutation(8)]
            other = compose(perm)
            assert other.xi == pytest.approx(base.xi, abs=1e-12)
            assert other.rho == pytest.approx(base.rho, abs=1e-12)
            assert other.delta_approx == pytest.approx(base.delta_approx, abs=1e-12)

    def test_equals_the_builtin_form_bit_for_bit_under_permutations(self):
        rng = random.Random(1921)
        edges = [0.0, -0.0, 1.0, math.nextafter(1.0, 0.0), 5e-324]
        for _ in range(300):
            parts = [
                ZcdpParams(
                    rng.choice([0.0, -0.0, 10.0 ** rng.uniform(-12, 2)]),
                    rng.choice([0.0, 10.0 ** rng.uniform(-12, 3)]),
                    rng.choice(edges) if rng.random() < 0.1 else rng.choice([rng.random(), 10.0 ** rng.uniform(-15, 0)]),
                )
                for _ in range(rng.randint(1, 12))
            ]
            xi, rho, union = builtin_compose(parts)
            got = compose(parts)
            assert bits((got.xi, got.rho)) == bits((xi, rho)), parts
            assert within_union(got.delta_approx, union, len(parts) + 2), parts
            want = bits(astuple(got))
            for _ in range(4):
                rng.shuffle(parts)
                assert bits(astuple(compose(parts))) == want, parts

    def test_associativity_via_nesting(self):
        a, b, c = ZcdpParams(0.1, 0.2), ZcdpParams(0.3, 0.4), ZcdpParams(0.5, 0.6)
        left = compose([compose([a, b]), c])
        right = compose([a, compose([b, c])])
        assert left.xi == pytest.approx(right.xi, abs=1e-12)
        assert left.rho == pytest.approx(right.rho, abs=1e-12)

    def test_delta_is_associative_under_nesting(self):
        rng = random.Random(2402)
        for _ in range(3000):
            a, b, c = (ZcdpParams(0.0, 0.0, union_draw(rng)) for _ in range(3))
            union = exact_union([a.delta_approx, b.delta_approx, c.delta_approx])
            for nested in (compose([compose([a, b]), c]), compose([a, compose([b, c])]), compose([compose([a, c]), b])):
                assert within_union(nested.delta_approx, union, 4), (a, b, c)

    def test_delta_is_the_exact_union_to_four_roundings(self):
        # 1 - prod(1 - delta) in floats gave 0 for 200 deltas of 1e-17 and
        # read 50 deltas of 3e-15 8e-4 low.
        rng = random.Random(2401)
        for _ in range(1500):
            deltas = [union_draw(rng) for _ in range(rng.randint(1, 100))]
            got = compose([ZcdpParams(0.0, 0.0, d) for d in deltas]).delta_approx
            assert within_union(got, exact_union(deltas), 4), deltas
        assert compose([ZcdpParams(0.0, 0.0, 1e-17)] * 200).delta_approx == pytest.approx(2e-15, rel=1e-14)
        two = compose([ZcdpParams(0.0, 0.0, 1e-7), ZcdpParams(0.0, 0.0, 1e-8)]).delta_approx
        assert two == pytest.approx(1.09999999e-07, rel=1e-15)  # printed 1.09999998998e-07 before


def union_draw(rng):
    """A delta: an edge value a quarter of the time, else log-uniform from 1e-320 to 1."""
    if rng.random() < 0.25:
        return rng.choice([0.0, 5e-324, 1e-300, 1.0 - 2.0**-53, 1.0])
    return 10.0 ** rng.uniform(-320.0, 0.0)


def exact_union(deltas):
    """1 - prod(1 - delta) in exact rational arithmetic."""
    keep = Fraction(1)
    for d in deltas:
        keep *= 1 - Fraction(d)
    return 1 - keep


def within_union(got, union, roundings):
    """Whether a float delta lies within roundings * 2^-53 relative, or 5e-324 absolute, of the exact union."""
    error = abs(Fraction(got) - union)
    return error <= Fraction(5e-324) or error <= union * Fraction(roundings, 2**53)


def builtin_compose(entries):
    """(xi, rho, exact delta union) with generator sums and rational arithmetic: the reference."""
    return (
        math.fsum(e.xi for e in entries),
        math.fsum(e.rho for e in entries),
        exact_union([e.delta_approx for e in entries]),
    )


def astuple(params):
    return params.xi, params.rho, params.delta_approx


class TestGroupPrivacy:
    def test_xi_scales_with_harmonic_number(self):
        assert group_privacy(ZcdpParams(0.1, 0.0), 2).xi == pytest.approx(0.3, abs=1e-15)
        assert group_privacy(ZcdpParams(1.0, 0.0), 3).xi == pytest.approx(5.5, abs=1e-12)

    def test_rho_scales_with_k_squared(self):
        assert group_privacy(ZcdpParams(0.0, 0.1), 3).rho == pytest.approx(0.9, abs=1e-15)

    def test_zero_xi_skips_the_harmonic_sum(self, monkeypatch):
        def refuse(k):
            raise AssertionError("harmonic sum computed for xi = 0")

        monkeypatch.setattr(accountant, "_harmonic", refuse)
        g = group_privacy(ZcdpParams(0.0, 0.1), 10**6)
        assert (g.xi, g.rho) == (0.0, 0.1 * 10**6 * 10**6)

    def test_identity_at_k_one(self):
        p = ZcdpParams(0.3, 0.7)
        g = group_privacy(p, 1)
        assert (g.xi, g.rho) == (p.xi, p.rho)

    def test_monotone_in_k(self):
        p = ZcdpParams(0.2, 0.3)
        budgets = [group_privacy(p, k) for k in range(1, 6)]
        for small, big in zip(budgets, budgets[1:]):
            assert small.xi < big.xi
            assert small.rho < big.rho

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            group_privacy(ZcdpParams(0.1, 0.1), 0)
        with pytest.raises(ValueError):
            group_privacy(ZcdpParams(0.1, 0.1, 1e-6), 2)

    @pytest.mark.parametrize("k", [MAX_GROUP_SIZE + 1, 10**18])
    def test_oversized_group_rejected_quickly(self, k):
        # Refused before the term-by-term harmonic sum; no large allowed k is run.
        start = time.perf_counter()
        with pytest.raises(ValueError, match="at most"):
            group_privacy(ZcdpParams(0.1, 0.1), k)
        assert time.perf_counter() - start < 1.0


def outcome(fn, *args):
    try:
        return fn(*args)
    except ArithmeticError as exc:
        return type(exc)


def branches(xi, rho, eps):
    """The four sharpening factors of the refined conversion, as first written."""
    a = (eps - xi - rho) / (2.0 * rho)
    return (
        1.0,
        math.sqrt(math.pi * rho),
        1.0 / (1.0 + a),
        2.0 / (1.0 + a + math.sqrt((1.0 + a) ** 2 + 4.0 / (math.pi * rho))),
    )


def four_branch_refined(xi, rho, eps):
    """The refined delta as first written: the tail times the least of all four factors, clamped."""
    lead = math.exp(-((eps - xi - rho) ** 2) / (4.0 * rho))
    return min(1.0, max(0.0, lead * min(branches(xi, rho, eps))))


def mp_refined(xi, rho, eps):
    """The four-branch refined delta in 50-digit arithmetic, at the kernel's float d = eps - xi - rho."""
    with mpmath.workdps(50):
        d, rho = mpmath.mpf(eps - xi - rho), mpmath.mpf(rho)
        b = 1 + d / (2 * rho)
        fourth = 2 / (b + mpmath.sqrt(b * b + 4 / (mpmath.pi * rho)))
        return float(mpmath.exp(-d * d / (4 * rho)) * min(1, mpmath.sqrt(mpmath.pi * rho), 1 / b, fourth))


def mp_simple_tail(d, rho):
    """The simple delta in 50-digit arithmetic at the kernel's float d."""
    with mpmath.workdps(50):
        return float(mpmath.exp(-mpmath.mpf(d) ** 2 / (4 * mpmath.mpf(rho))))


class TestDpConversions:
    def test_simple_eps_frozen_example(self):
        pt = zcdp_to_dp_simple(ZcdpParams(0.0, 0.5), math.exp(-1.0))
        assert pt.eps == pytest.approx(1.9142135623730951, abs=1e-15)
        assert pt.delta == math.exp(-1.0)

    def test_simple_with_zero_rho_returns_xi(self):
        pt = zcdp_to_dp_simple(ZcdpParams(0.7, 0.0), 1e-6)
        assert pt.eps == 0.7

    def test_refined_frozen_example(self):
        delta = zcdp_to_dp_refined(ZcdpParams(0.0, 0.5), 2.5)
        assert delta == pytest.approx(0.04230542341957785, abs=1e-15)

    def test_refined_rejects_eps_below_threshold(self):
        with pytest.raises(ValueError):
            zcdp_to_dp_refined(ZcdpParams(0.0, 0.5), 0.4)
        with pytest.raises(ValueError):
            zcdp_to_dp_refined(ZcdpParams(0.0, 0.5), math.nan)
        with pytest.raises(ValueError):
            zcdp_to_dp_refined(ZcdpParams(0.0, 0.0), 1.0)

    @pytest.mark.parametrize("rho", [1e-300, 0.5, 1e300, 1.7e308])
    def test_refined_at_infinite_eps_is_zero(self, rho):
        # Where 2 rho overflows, the kernel's d / (2 rho) is inf / inf.
        assert zcdp_to_dp_refined(ZcdpParams(0.0, rho), math.inf) == 0.0
        assert zcdp_to_dp_refined(ZcdpParams(1.0, rho), math.inf) == 0.0

    def test_kernel_matches_the_four_branch_minimum(self):
        rng = random.Random(1201)
        points = []
        for i in range(100_000):
            xi = (0.0, rng.uniform(0.0, 1.0), 10.0 ** rng.uniform(-6, 6))[i % 3]
            rho = 10.0 ** rng.uniform(-150, 8) if i % 2 else 10.0 ** rng.uniform(-3, 8)
            gap = (0.0, 10.0 ** rng.uniform(-8, 2) * math.sqrt(rho), 10.0 ** rng.uniform(-300, 300))[i % 5 % 3]
            points.append((xi, rho, xi + rho + gap))
        differ = [p for p in points if outcome(accountant._refined, *p) != outcome(four_branch_refined, *p)]
        assert not differ, differ[:5]
        # The points cover a = 0, sqrt(pi rho) >= 1, wins of the fourth factor
        # and of the second (by one rounding, at rho (1+a)^2 below about 1e-32),
        # and a fourth factor equal to 1/(1+a).
        factors = [b for b in (outcome(branches, *p) for p in points) if isinstance(b, tuple)]
        assert sum(b[2] == 1.0 for b in factors) > 10_000
        assert sum(b[1] >= 1.0 for b in factors) > 10_000
        assert sum(b[1] < b[3] for b in factors) > 1_000
        assert sum(b[3] < b[1] for b in factors) > 10_000
        assert sum(b[3] == b[2] for b in factors) > 1_000

    def test_delta_past_the_squares_matches_mpmath(self):
        # Near the normal floor of rho, with a = d / (2 rho) from 1.35e154 up,
        # (1 + a)^2 leaves the floats and the kernel raises.  With
        # rho a^2 = d^2 / (4 rho) below 300, delta is still a positive float.
        rng = random.Random(2202)
        points = []
        for _ in range(2000):
            rho = 10.0 ** rng.uniform(-307.6, -306.5)
            a = 10.0 ** rng.uniform(math.log10(1.35e154), 0.5 * (math.log10(300.0) - math.log10(rho)))
            points.append((0.0, rho, rho + 2.0 * rho * a))
        assert all(outcome(accountant._refined, *p) is OverflowError for p in points)
        for xi, rho, eps in points:
            want = mp_refined(xi, rho, eps)
            assert want > 0.0
            assert accountant._delta_past_squares(xi, rho, eps, True) == pytest.approx(want, rel=1e-12, abs=0.0)
            assert zcdp_to_dp_refined(ZcdpParams(xi, rho), eps) == accountant._delta_past_squares(xi, rho, eps, True)

    def test_delta_past_the_squares_keeps_the_kernels_bits(self):
        rng = random.Random(2203)
        for _ in range(5_000):
            xi = rng.choice([0.0, rng.uniform(0.0, 1.0)])
            rho = 10.0 ** rng.uniform(-150, 8)
            eps = xi + rho + 10.0 ** rng.uniform(-8, 2) * math.sqrt(rho)
            assert accountant._delta_past_squares(xi, rho, eps, True) == accountant._refined(xi, rho, eps)
            d = eps - xi - rho
            assert accountant._delta_past_squares(xi, rho, eps, False) == accountant._simple_tail(d, rho)

    def test_delta_is_zero_where_the_squares_overflow(self):
        # The convert --rho 0.5 --eps 1e160 example: both deltas underflow to 0.
        for method in ("simple", "refined"):
            assert delta_of_eps(ZcdpParams(0.0, 0.5), 1e160, method) == 0.0
        assert zcdp_to_dp_refined(ZcdpParams(0.0, 0.5), 1e160) == 0.0
        assert approx_zcdp_to_dp(ZcdpParams(0.0, 0.5, 1e-9), 1e160) == DpPoint(1e160, 1e-9)

    def test_delta_at_a_tiny_rho_matches_mpmath(self):
        # Below rho = 7e-309, 4 / (pi rho) overflows to inf without raising, so
        # the kernel's fourth factor is 2 / inf = 0 wherever (1 + a)^2 is a
        # float.  With rho a^2 = d^2 / (4 rho) at most 50, delta is positive.
        rng = random.Random(2301)
        zeros = 0
        for _ in range(700):
            rho = 10.0 ** rng.uniform(-323.0, math.log10(5e-306))
            top = math.log10(math.sqrt(50.0) / math.sqrt(rho))
            grid = [rho + 2.0 * rho * 10.0 ** rng.uniform(-3.0, top) for _ in range(3)]
            want = [mp_refined(0.0, rho, eps) for eps in grid]
            zeros += sum(outcome(accountant._refined, 0.0, rho, eps) == 0.0 for eps in grid)
            assert delta_of_eps_grid(ZcdpParams(0.0, rho), grid) == pytest.approx(want, rel=1e-12, abs=0.0)
            for eps, w in zip(grid, want):
                assert w > 0.0
                assert zcdp_to_dp_refined(ZcdpParams(0.0, rho), eps) == pytest.approx(w, rel=1e-12, abs=0.0)
                assert approx_zcdp_to_dp(ZcdpParams(0.0, rho), eps).delta == pytest.approx(w, rel=1e-12, abs=0.0)
        assert zeros > 1000

    def test_simple_delta_at_a_tiny_rho_matches_mpmath(self):
        # Below |d| = 2^-511, d^2 is subnormal and has lost digits: at
        # rho = 1e-323 the simple delta read 0.5353 where it is 0.5643.
        rng = random.Random(2404)
        for _ in range(700):
            rho = 10.0 ** rng.uniform(-323.0, -300.0)
            top = math.log10(2.0 * math.sqrt(50.0 * rho))
            grid = [rho + 10.0 ** rng.uniform(top - 6.0, top) for _ in range(3)]
            want = [mp_simple_tail(eps - rho, rho) for eps in grid]
            assert delta_of_eps_grid(ZcdpParams(0.0, rho), grid, "simple") == pytest.approx(want, rel=1e-12, abs=0.0)
            # From |d| = 2^-511 up the square is normal and the kernel's bits stay.
            eps = rho + 2.0 ** rng.uniform(-511.0, -500.0)
            d = eps - rho
            if d >= 2.0**-511:
                assert accountant._delta_past_squares(0.0, rho, eps, False) == accountant._simple_tail(d, rho)
        delta = delta_of_eps(ZcdpParams(0.0, 1e-323), 4.755630139974853e-162, "simple")
        assert delta == pytest.approx(0.5642873755018725, rel=1e-12)

    def test_refined_decreasing_in_eps(self):
        params = ZcdpParams(0.1, 0.4)
        grid = np.linspace(0.5, 8.0, 60)
        values = [zcdp_to_dp_refined(params, float(e)) for e in grid]
        for hi, lo in zip(values, values[1:]):
            assert lo <= hi + 1e-15

    def test_refined_increasing_in_rho(self):
        # This monotonicity is what makes bisection on rho valid inside
        # calibrate_sigma_for_dp.
        eps = 2.0
        rhos = np.linspace(0.05, eps, 40)
        values = [zcdp_to_dp_refined(ZcdpParams(0.0, float(r)), eps) for r in rhos]
        for lo, hi in zip(values, values[1:]):
            assert lo <= hi + 1e-15

    def test_refined_below_simple_implied(self, rng):
        for _ in range(100):
            xi = float(rng.uniform(0.0, 1.0))
            rho = float(rng.uniform(1e-3, 3.0))
            eps = xi + rho + float(rng.uniform(0.0, 6.0)) * math.sqrt(rho)
            refined = zcdp_to_dp_refined(ZcdpParams(xi, rho), eps)
            implied = math.exp(-((eps - xi - rho) ** 2) / (4.0 * rho))
            assert refined <= implied * (1.0 + 1e-15)

    def test_pure_dp_both_forms(self):
        linear, quadratic = pure_dp_to_zcdp(1.0)
        assert (linear.xi, linear.rho) == (1.0, 0.0)
        assert (quadratic.xi, quadratic.rho) == (0.0, 0.5)

    def test_dp_family_frozen_examples(self):
        assert dp_family_to_zcdp(0.0, 1.0) == ZcdpParams(4.75, 0.25)
        assert dp_family_to_zcdp(0.5, 0.0625) == ZcdpParams(2.984375, 0.015625)

    def test_dp_family_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            dp_family_to_zcdp(0.0, 1.5)
        with pytest.raises(ValueError):
            dp_family_to_zcdp(-0.1, 0.5)


class TestMcdpConversions:
    def test_mcdp_to_zcdp_example(self):
        assert mcdp_to_zcdp(McdpParams(1.0, 1.0)) == ZcdpParams(0.5, 0.5)

    def test_mcdp_to_zcdp_rejects_small_mean(self):
        with pytest.raises(ValueError):
            mcdp_to_zcdp(McdpParams(0.4, 1.0))

    def test_zcdp_to_mcdp_frozen_tau(self):
        m = zcdp_to_mcdp(ZcdpParams(0.0, 0.5))
        assert m.mu == pytest.approx(0.5, abs=1e-15)
        assert m.tau == pytest.approx(3.707594183250422, abs=1e-15)

    def test_round_trip_never_shrinks_rho(self):
        # The converted (mu, tau) lands outside mcdp_to_zcdp's domain for
        # every non-degenerate input (mu < tau^2/2 there), so the invariant
        # is checked at the formula level: the rho a round trip would
        # produce is tau^2/2, which must cover the original rho.
        for xi in (0.0, 0.1, 0.5, 1.0):
            for rho in (0.0, 0.05, 0.5, 1.0, 2.0):
                m = zcdp_to_mcdp(ZcdpParams(xi, rho))
                assert 0.5 * m.tau**2 >= rho - 1e-12


class TestApproxConversions:
    def test_quadratic_form(self):
        assert dp_to_approx_zcdp(DpPoint(1.0, 0.1)) == ZcdpParams(0.0, 0.5, 0.1)

    def test_maxdiv_form(self):
        assert dp_to_approx_zcdp_maxdiv(DpPoint(1.0, 0.1)) == ZcdpParams(1.0, 0.0, 0.1)

    def test_back_conversion_frozen_example(self):
        pt = approx_zcdp_to_dp(ZcdpParams(0.0, 0.5, 0.1), 2.5)
        assert pt.eps == 2.5
        assert pt.delta == pytest.approx(0.13807488107762006, abs=1e-15)

    def test_back_conversion_zero_rho(self):
        pt = approx_zcdp_to_dp(ZcdpParams(0.7, 0.0, 0.05), 1.0)
        assert pt == DpPoint(0.7, 0.05)

    def test_equals_the_builtin_clamp_bit_for_bit(self):
        rng = random.Random(1922)
        for _ in range(400):
            xi = rng.choice([0.0, -0.0, 10.0 ** rng.uniform(-6, 1)])
            rho = rng.choice([1e-150, 10.0 ** rng.uniform(-12, 3), 10.0 ** rng.uniform(-12, 3)])
            da = rng.choice([0.0, 1.0, math.nextafter(1.0, 0.0), 10.0 ** rng.uniform(-15, 0)])
            params, edge = ZcdpParams(xi, rho, da), xi + rho
            points = [edge, math.nextafter(edge, math.inf), math.inf] + [edge + rng.expovariate(1.0) for _ in range(20)]
            for eps in points:
                got = approx_zcdp_to_dp(params, eps)
                want = min(1.0, da + (1.0 - da) * accountant._refined(xi, rho, eps))
                assert (got.eps, float.hex(got.delta)) == (eps, float.hex(want)), (params, eps)

    def test_round_trip_no_free_lunch(self):
        for eps in (0.1, 0.5, 1.0, 2.0):
            for delta in (0.0, 1e-8, 1e-4, 0.05):
                back = approx_zcdp_to_dp(dp_to_approx_zcdp(DpPoint(eps, delta)), eps)
                assert back.delta >= delta - 1e-12


class TestEpsForDelta:
    def test_inverts_refined_bound(self):
        for rho in (0.05, 0.5, 2.0):
            for delta in (1e-8, 1e-5, 1e-2):
                params = ZcdpParams(0.0, rho)
                eps = eps_for_delta(params, delta)
                assert zcdp_to_dp_refined(params, eps) <= delta
                assert zcdp_to_dp_refined(params, eps + 1e-6) < delta
                if eps - 1e-6 > rho:
                    assert zcdp_to_dp_refined(params, eps - 1e-6) > delta

    def test_below_simple_inverse(self):
        for rho in (0.05, 0.5, 2.0):
            for delta in (1e-8, 1e-5, 1e-2):
                params = ZcdpParams(0.0, rho)
                assert eps_for_delta(params, delta) <= zcdp_to_dp_simple(params, delta).eps

    def test_unreachable_delta_is_inf(self):
        assert eps_for_delta(ZcdpParams(0.0, 0.5, 0.1), 0.05) == math.inf

    def test_zero_rho_returns_xi(self):
        assert eps_for_delta(ZcdpParams(0.7, 0.0), 1e-6) == 0.7


def test_only_the_accountant_binds_the_refined_kernel_and_the_search():
    # Other modules reach them through accountant functions (eps_of_delta,
    # _rho_for_dp), so each search is set up in one place.
    owned = (accountant._refined, accountant._search)
    for info in pkgutil.iter_modules(cdpacct.__path__):
        module = importlib.import_module(f"cdpacct.{info.name}")
        if info.name != "accountant":
            assert not {"_refined", "_search"} & set(vars(module)), info.name
            assert not any(value in owned for value in vars(module).values()), info.name


def scan_and_bisect(f, target, end, base, step, factor=2.0, atol=0.0):
    """accountant._search with f deciding every point: NaN seeds give no secant window."""
    return _search(f, target, end, base, step, factor, atol, (math.nan, math.nan), 0.0)


class TestBisectMonotone:
    """The bisection of accountant._search."""

    def test_rising_function(self):
        calls = []

        def f(x):
            calls.append(x)
            return -x * x

        root = scan_and_bisect(f, -2.0, 0.0, 0.0, 2.0, atol=1e-12)
        assert -root * root <= -2.0 and root - math.sqrt(2.0) <= 1e-12
        # The end and the scan's first point, then the bisection of [2, 0].
        assert calls[:2] == [0.0, 2.0] and len(calls) - 2 <= 45

    def test_falling_function(self):
        root = scan_and_bisect(lambda x: x * x, 2.0, 2.0, 0.0, 2.0, 0.5, atol=1e-12)
        assert root * root <= 2.0 and math.sqrt(2.0) - root <= 1e-12

    def test_stops_when_bracket_cannot_be_split(self):
        calls = []

        def f(x):
            calls.append(x)
            return 1e6 + 0.3 - x

        # Near 1e6 adjacent floats are 1.16e-10 apart, so atol=1e-10 is never
        # met; the midpoint rounding to an endpoint ends the loop.
        root = scan_and_bisect(f, 0.0, 0.0, 0.0, 2e6, atol=1e-10)
        assert root == 1e6 + 0.3
        assert len(calls) < 100

    def test_end_that_meets_the_target_is_the_answer(self):
        calls = []

        def f(x):
            calls.append(x)
            return -x

        assert scan_and_bisect(f, 1.0, 0.0, 0.0, 1.0) == 0.0
        assert calls == [0.0]


class TestGeometricScan:
    """The scan of accountant._search; atol = inf skips the bisection, so the answer is its first hit."""

    def test_grows_from_a_base(self):
        assert scan_and_bisect(lambda x: -x, -100.0, 5.0, 5.0, 1.0, atol=math.inf) == 5.0 + 128.0

    def test_shrinks_with_factor_below_one(self):
        assert scan_and_bisect(lambda x: x, 1e-3, 1.0, 0.0, 0.5, 0.5, math.inf) == 2.0**-10

    def test_runs_to_the_end_of_the_float_range(self):
        assert scan_and_bisect(lambda x: -x, -1e300, 0.0, 0.0, 1.0, atol=math.inf) == 2.0**997
        assert scan_and_bisect(lambda x: x, 2.0**-1070, 1.0, 0.0, 1.0, 0.5, math.inf) == 2.0**-1070

    def test_calls_f_once_per_distinct_point(self):
        # Steps below half an ulp of 1e300 all round to 1e300 itself, which is
        # tried once, whether or not it is also the end.
        for end in (0.0, 1e300):
            xs = []

            def f(x):
                xs.append(x)
                return 2e300 - x

            assert scan_and_bisect(f, 0.0, end, 1e300, 1.0, atol=math.inf) == 1e300 + 2.0**997
            assert len(xs) == len(set(xs)) < 60

    @pytest.mark.parametrize("factor", [2.0, 0.5])
    def test_unreachable_target_raises(self, factor):
        with pytest.raises(ValueError, match="no value in floating-point range"):
            scan_and_bisect(lambda x: 1.0, 0.0, 0.0, 0.0, 1.0, factor)


class TestCurveEvaluators:
    def test_refined_matches_the_conversions(self):
        params = ZcdpParams(0.1, 0.5, 1e-7)
        for eps in (0.7, 1.5, 4.0):
            assert delta_of_eps(params, eps) == approx_zcdp_to_dp(params, eps).delta
        for delta in (1e-6, 1e-3):
            assert eps_of_delta(params, delta) == eps_for_delta(params, delta)

    def test_simple_inverts_simple(self):
        params = ZcdpParams(0.2, 0.5)
        for delta in (1e-8, 1e-4, 0.1):
            eps = eps_of_delta(params, delta, "simple")
            assert eps == zcdp_to_dp_simple(params, delta).eps
            assert delta_of_eps(params, eps, "simple") == pytest.approx(delta, rel=1e-9)

    @pytest.mark.parametrize(
        "xi, rho, delta",
        [(0.0, 1.0, 1e-320), (0.5, 1e-3, 5e-324), (1.0, 1e300, 1e-320), (0.0, 5e307, 1e-300), (0.0, 1.7e308, 1e-6)],
    )
    def test_simple_eps_is_finite_wherever_it_is_a_float(self, xi, rho, delta):
        # 1 / delta overflows below 5.6e-309, and 4 rho ln(1/delta) past the floats.
        with mpmath.workdps(50):
            want = float(xi + rho + 2 * mpmath.sqrt(-mpmath.mpf(rho) * mpmath.log(delta)))
        assert eps_of_delta(ZcdpParams(xi, rho), delta, "simple") == pytest.approx(want, rel=1e-15)

    def test_simple_eps_keeps_its_bits_where_four_rho_l_is_a_float(self):
        rng = random.Random(2302)
        for _ in range(5000):
            xi = rng.choice([0.0, rng.uniform(0.0, 1.0)])
            rho = 10.0 ** rng.uniform(-320.0, 300.0)
            delta = 10.0 ** rng.uniform(-300.0, -0.01)
            da = rng.choice([0.0, 0.5 * delta])
            prime = (delta - da) / (1.0 - da)
            want = xi + rho + math.sqrt(4.0 * rho * math.log(1.0 / prime))
            assert want < math.inf
            assert eps_of_delta(ZcdpParams(xi, rho, da), delta, "simple") == want

    def test_exact_gaussian_inverts_exact_gaussian(self):
        params = ZcdpParams(0.0, 0.5)
        for delta in (1e-8, 1e-4, 0.1):
            eps = eps_of_delta(params, delta, "exact_gaussian")
            assert delta_of_eps(params, eps, "exact_gaussian") <= delta
            assert eps <= eps_of_delta(params, delta, "refined")

    def test_below_the_budget_delta_is_one(self):
        params = ZcdpParams(0.3, 0.5)
        assert delta_of_eps(params, 0.7, "simple") == 1.0
        assert delta_of_eps(params, 0.7, "refined") == 1.0

    @pytest.mark.parametrize("method", ["simple", "refined", "exact_gaussian"])
    @pytest.mark.parametrize(
        "params", [ZcdpParams(0.0, 0.5), ZcdpParams(0.0, 0.5, 1e-9), ZcdpParams(0.2, 0.0)]
    )
    def test_nan_eps_rejected(self, params, method):
        with pytest.raises(ValueError):
            delta_of_eps(params, math.nan, method)

    def test_unknown_method_rejected(self):
        params = ZcdpParams(0.0, 0.5)
        with pytest.raises(ValueError):
            delta_of_eps(params, 1.0, "exact")
        with pytest.raises(ValueError):
            eps_of_delta(params, 1e-6, "exact")

    @pytest.mark.parametrize("params", [ZcdpParams(0.5, 0.5), ZcdpParams(0.0, 0.0)])
    def test_exact_gaussian_needs_a_gaussian_budget(self, params):
        # The exact curve holds only for xi = 0 and rho > 0; at (0.5, 0.5) it
        # would claim delta 0.127 at eps 1, below the sound refined 0.694.
        with pytest.raises(ValueError, match="xi=0 and rho>0"):
            delta_of_eps(params, 1.0, "exact_gaussian")
        with pytest.raises(ValueError, match="xi=0 and rho>0"):
            eps_of_delta(params, 1e-6, "exact_gaussian")

    @pytest.mark.parametrize("rho", [1e-40, 5e-101, math.nextafter(MIN_EXACT_RHO, 0.0)])
    def test_exact_gaussian_refuses_rho_below_its_floor(self, rho):
        # At rho = 1e-40 the exact curve read delta 0 at eps 0, where it is
        # sqrt(rho/pi) = 5.6e-21, and so claimed (0, 1e-22).
        params = ZcdpParams(0.0, rho)
        with pytest.raises(ValueError, match="rho >= 1e-08"):
            delta_of_eps(params, 0.0, "exact_gaussian")
        with pytest.raises(ValueError, match="rho >= 1e-08"):
            eps_of_delta(params, 1e-22, "exact_gaussian")

    def test_exact_gaussian_holds_at_its_floor(self):
        params = ZcdpParams(0.0, MIN_EXACT_RHO)
        eps = eps_of_delta(params, 1e-6, "exact_gaussian")
        assert delta_of_eps(params, eps, "exact_gaussian") <= 1e-6
        assert eps <= eps_of_delta(params, 1e-6, "refined")

    @pytest.mark.parametrize("method", ["simple", "refined", "exact_gaussian"])
    def test_vacuous_budget_has_no_finite_eps(self, method):
        params = ZcdpParams(0.0, 0.125, 1.0)
        for delta in (1e-9, 1e-3, 0.5):
            assert eps_of_delta(params, delta, method) == math.inf
            assert delta_of_eps(params, 3.0, method) == 1.0

    def test_delta_outside_unit_interval_rejected(self):
        for method in ("simple", "exact_gaussian"):
            for delta in (0.0, 1.0):
                with pytest.raises(ValueError):
                    eps_of_delta(ZcdpParams(0.0, 0.5), delta, method)

    @pytest.mark.parametrize("rho", [1e19, 1e20, 1e30, 1e40, 1e100])
    def test_exact_gaussian_eps_not_below_rho(self, rho):
        # The exact delta at eps = rho is about 1/2, so eps at 1e-6 lies above
        # rho, near rho + 9.5 sqrt(rho); the search stops within one ulp there.
        eps = eps_of_delta(ZcdpParams(0.0, rho), 1e-6, "exact_gaussian")
        assert rho <= eps <= (rho + 10.0 * math.sqrt(rho)) * (1.0 + 2e-12)

    @pytest.mark.parametrize("delta", [1e-300, 1e-12, 1e-6, 0.1, 0.9])
    def test_exact_gaussian_eps_not_above_refined(self, delta):
        # The exact curve lies below the refined bound, so its eps may not be
        # larger; a search stopping at 1e-12 relative gave larger eps above
        # rho = 1e24, where that stop is wider than the gap between the two.
        for e in range(-6, 201):
            params = ZcdpParams(0.0, 10.0 ** (e / 2))
            exact = eps_of_delta(params, delta, "exact_gaussian")
            assert exact <= eps_of_delta(params, delta, "refined"), params

    def test_exact_gaussian_beyond_two_to_the_200(self):
        # The bracket once stopped doubling at 2^200 = 1.6e60 and returned it.
        params = ZcdpParams(0.0, 5e159)
        eps = eps_of_delta(params, 1e-6, "exact_gaussian")
        assert eps == pytest.approx(eps_of_delta(params, 1e-6, "refined"), rel=1e-12)


def one_point_delta(params, eps, method):
    """delta_of_eps one point at a time from the raw kernels: the reference.

    At eps = inf delta' is 0, and where a kernel's square overflows it is
    the 50-digit mpmath value, independent of _delta_past_squares.
    """
    xi, rho, da = params.xi, params.rho, params.delta_approx
    if math.isnan(eps):
        raise ValueError("eps must be a number, got nan")
    if method == "exact_gaussian":
        base = accountant._exact_gaussian(params)(eps)
    elif method not in CURVE_METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {CURVE_METHODS}")
    elif rho == 0.0:
        base = 0.0 if eps >= xi else 1.0
    elif eps < xi + rho:
        base = 1.0
    elif eps == math.inf:
        base = 0.0
    else:
        refined = method == "refined"
        d = eps - xi - rho
        try:
            base = accountant._refined(xi, rho, eps) if refined else accountant._simple_tail(d, rho)
        except OverflowError:
            base = mp_refined(xi, rho, eps) if refined else mp_simple_tail(d, rho)
    return min(1.0, da + (1.0 - da) * base)


def bits(values):
    return [float.hex(v) for v in values]


class TestDeltaOfEpsGrid:
    def test_equals_one_point_calls_bit_for_bit(self):
        rng = random.Random(1818)
        for _ in range(400):
            xi = rng.choice([0.0, 0.0, 10.0 ** rng.uniform(-6, 1)])
            rho = rng.choice([0.0, MIN_EXACT_RHO, 10.0 ** rng.uniform(-12, 3), 10.0 ** rng.uniform(-12, 3)])
            da = rng.choice([0.0, 0.0, 10.0 ** rng.uniform(-12, -0.01)])
            params = ZcdpParams(xi, rho, da)
            edge = xi + rho
            # Points below xi + rho, at it, one ulp either side, above it, and the ends of the line.
            grid = [rng.uniform(-1.0, 3.0 * edge + 10.0 * math.sqrt(rho) + 1.0) for _ in range(40)]
            grid += [edge, math.nextafter(edge, 0.0), math.nextafter(edge, math.inf), xi, 0.0, -0.0, -math.inf, math.inf]
            rng.shuffle(grid)
            exact = xi == 0.0 and rho >= MIN_EXACT_RHO
            for method in ("simple", "refined", "exact_gaussian") if exact else ("simple", "refined"):
                got = delta_of_eps_grid(params, grid, method)
                assert bits(got) == bits(one_point_delta(params, eps, method) for eps in grid), (params, method)
                assert bits(got) == bits(delta_of_eps(params, eps, method) for eps in grid)

    def test_the_union_equals_its_clamped_form_bit_for_bit(self):
        # With delta_approx and delta' in [0, 1], delta_approx + (1 -
        # delta_approx) delta' never rounds above 1, so a clamp never binds.
        rng = random.Random(2406)
        edges = [0.0, 5e-324, 1e-300, 0.5, 1.0 - 2.0**-53, 1.0]
        for _ in range(2000):
            xi = rng.choice([0.0, 10.0 ** rng.uniform(-6, 1)])
            rho = rng.choice([0.0, 10.0 ** rng.uniform(-12, 3)])
            da = rng.choice(edges) if rng.random() < 0.3 else rng.choice([rng.random(), 10.0 ** rng.uniform(-320, 0)])
            params = ZcdpParams(xi, rho, da)
            edge = xi + rho
            grid = [rng.uniform(0.0, 2.0 * edge + 10.0 * math.sqrt(rho) + 1.0) for _ in range(20)]
            grid += [edge, math.nextafter(edge, math.inf), math.inf]
            for method in ("simple", "refined"):
                base = [
                    (0.0 if eps >= xi else 1.0) if rho == 0.0
                    else 1.0 if eps < edge else accountant._delta_past_squares(xi, rho, eps, method == "refined")
                    for eps in grid
                ]
                clamped = [min(1.0, da + (1.0 - da) * b) for b in base]
                assert bits(delta_of_eps_grid(params, grid, method)) == bits(clamped), (params, method)
            if rho > 0.0:
                for eps, b in zip(grid, base):
                    if eps >= edge:
                        assert approx_zcdp_to_dp(params, eps).delta == min(1.0, da + (1.0 - da) * b)

    def test_a_huge_budget_matches_one_point_calls(self):
        # Beyond eps = rho + 1.3e154, (eps - xi - rho)^2 in the closed forms
        # overflows; the exact curve has no square there.
        params = ZcdpParams(0.0, 5e159)
        grid = [0.0, 1e159, 5e159, 5.0000000001e159, 1e160, 1e300]
        got = delta_of_eps_grid(params, grid, "exact_gaussian")
        assert bits(got) == bits(one_point_delta(params, eps, "exact_gaussian") for eps in grid)

    @pytest.mark.parametrize("method", ["simple", "refined"])
    def test_a_huge_budget_matches_one_point_calls_past_the_squares(self, method):
        params = ZcdpParams(0.0, 5e159)
        grid = [0.0, 1e159, 5e159, 5.0000000001e159, 1e160, 1e300]
        # The last two points overflow a square: there the reference is
        # mpmath's, and delta' underflows to 0.
        got = delta_of_eps_grid(params, grid, method)
        assert bits(got) == bits(one_point_delta(params, eps, method) for eps in grid)
        assert got[-2:] == [0.0, 0.0]

    @pytest.mark.parametrize("method", ["simple", "refined"])
    @pytest.mark.parametrize("rho", [1e-300, 0.5, 1e300, 8.99e307, 1.7e308])
    def test_delta_at_infinite_eps_is_delta_approx(self, rho, method):
        # Where 2 rho or 4 rho overflows, the closed forms are inf / inf at eps = inf.
        for da in (0.0, 1e-9, 0.1):
            assert delta_of_eps_grid(ZcdpParams(0.0, rho, da), [1.0, math.inf], method)[1] == da
            assert approx_zcdp_to_dp(ZcdpParams(1.0, rho, da), math.inf) == DpPoint(math.inf, da)

    def test_an_empty_grid_is_an_empty_curve(self):
        assert delta_of_eps_grid(ZcdpParams(0.0, 0.5), [], "refined") == []

    @pytest.mark.parametrize(
        "params, grid, method",
        [
            (ZcdpParams(0.0, 0.5), [0.5, math.nan, 1.0], "refined"),
            (ZcdpParams(0.2, 0.0, 1e-9), [math.nan], "simple"),
            (ZcdpParams(0.0, 0.5), [0.5, math.nan], "exact_gaussian"),
            (ZcdpParams(0.5, 0.5), [math.nan], "exact_gaussian"),
            (ZcdpParams(0.0, 0.5), [math.nan], "exact"),
            (ZcdpParams(0.0, 0.5), [0.5, 1.0], "exact"),
            (ZcdpParams(0.5, 0.5), [0.5, 1.0], "exact_gaussian"),
            (ZcdpParams(0.0, 0.0), [0.5, 1.0], "exact_gaussian"),
            (ZcdpParams(0.0, math.nextafter(MIN_EXACT_RHO, 0.0)), [0.0, 1.0], "exact_gaussian"),
            # The NaN is refused before any point, the one-point calls reach
            # it after points whose squares overflow.
            (ZcdpParams(0.0, 5e159), [0.0, 5e159, 1e160, 2e160, math.nan], "simple"),
            (ZcdpParams(0.0, 5e159), [0.0, 5e159, 1e160, 2e160, math.nan], "refined"),
        ],
    )
    def test_refuses_as_one_point_calls_do(self, params, grid, method):
        with pytest.raises((ValueError, ArithmeticError)) as whole:
            delta_of_eps_grid(params, grid, method)
        with pytest.raises((ValueError, ArithmeticError)) as one:
            for eps in grid:
                one_point_delta(params, eps, method)
        assert (type(whole.value), str(whole.value)) == (type(one.value), str(one.value))


class TestCompositionCorollaries:
    def test_hundred_fold_frozen_example(self):
        points = [DpPoint(0.1, 0.0)] * 100
        pt = dp_composition_bound(points, 1e-6)
        assert pt.eps == pytest.approx(5.799302201348589, abs=1e-12)
        assert pt.delta == pytest.approx(1e-6, abs=1e-20)

    def test_beats_classical_baseline(self):
        pt = dp_composition_bound([DpPoint(0.1, 0.0)] * 100, 1e-6)
        baseline = advanced_composition_baseline(0.1, 100, 1e-6)
        assert baseline == pytest.approx(6.308230950513409, abs=1e-12)
        assert pt.eps < baseline

    @pytest.mark.parametrize("eps", [-1.0, math.nan, math.inf, -math.inf])
    def test_baseline_rejects_bad_eps(self, eps):
        with pytest.raises(ValueError, match="eps must be nonnegative and finite"):
            advanced_composition_baseline(eps, 3, 1e-6)

    @pytest.mark.parametrize("eps", [0.0, -0.0])
    def test_baseline_of_zero_eps_at_a_subnormal_delta(self, eps):
        # 1 / 5e-324 overflows, and 0 * log(inf) would be nan.
        assert advanced_composition_baseline(eps, 10, 5e-324) == 0.0

    def test_baseline_where_one_over_delta_overflows(self):
        rng = random.Random(31)
        for _ in range(200):
            eps, delta = rng.uniform(0.0, 2.0), 10.0 ** rng.uniform(-323.5, -308.3)
            log_inv = -math.log(delta)
            want = eps * math.sqrt(2.0 * 10 * log_inv) + 10 * eps * math.expm1(eps)
            assert advanced_composition_baseline(eps, 10, delta) == want
        # Where 1 / delta is a float, the log of it is taken as before.
        for delta in (1e-300, 5.6e-309, 0.5):
            want = 0.1 * math.sqrt(2.0 * 10 * math.log(1.0 / delta)) + 10 * 0.1 * math.expm1(0.1)
            assert advanced_composition_baseline(0.1, 10, delta) == want

    @pytest.mark.parametrize("delta_prime", [1e-320, 5e-324])
    def test_bound_where_the_log_argument_overflows(self, delta_prime):
        # sqrt(pi/2) ||eps||_2 / delta_prime passes the floats; its log does not.
        pt = dp_composition_bound([DpPoint(0.1, 0.0)] * 100, delta_prime)
        with mpmath.workdps(50):
            l2 = mpmath.sqrt(100 * mpmath.mpf(0.1) ** 2)
            log_arg = mpmath.log(mpmath.sqrt(mpmath.pi / 2) * l2 / mpmath.mpf(delta_prime))
            want = float(l2 * l2 / 2 + mpmath.sqrt(2 * log_arg) * l2)
        assert pt.eps == pytest.approx(want, rel=1e-14) and pt.delta == delta_prime

    def test_bound_keeps_its_bits_where_the_log_argument_is_a_float(self):
        rng = random.Random(2303)
        for _ in range(3000):
            points = [DpPoint(10.0 ** rng.uniform(-8.0, 2.0), 0.0) for _ in range(rng.randint(1, 5))]
            delta_prime = 10.0 ** rng.uniform(-300.0, 300.0)
            l2 = math.sqrt(math.fsum(p.eps**2 for p in points))
            log_arg = math.sqrt(math.pi / 2.0) * l2 / delta_prime
            want = 0.5 * l2 * l2
            if log_arg > 1.0:
                want += math.sqrt(2.0 * math.log(log_arg)) * l2
            assert dp_composition_bound(points, delta_prime).eps == want

    def test_refined_composition_equals_the_clamped_form_bit_for_bit(self):
        # delta is the exact union of the delta_i and the refined delta',
        # 1 - (1 - delta') prod(1 - delta_i), to a few roundings.
        rng = random.Random(2304)
        for _ in range(3000):
            n = rng.randint(1, 6)
            deltas = [rng.choice([0.0, 5e-324, 1.0 - 2.0**-53, 1.0, 10.0 ** rng.uniform(-12.0, 0.0)]) for _ in range(n)]
            points = [DpPoint(rng.choice([0.0, 10.0 ** rng.uniform(-4.0, 1.0)]), d) for d in deltas]
            rho = math.fsum(0.5 * p.eps * p.eps for p in points)
            eps = rho + rng.choice([0.0, 10.0 ** rng.uniform(-3.0, 2.0), math.inf])
            d_prime = 0.0 if rho == 0.0 else zcdp_to_dp_refined(ZcdpParams(0.0, rho), eps)
            got = dp_composition_refined(points, eps)
            assert got.eps == eps and within_union(got.delta, exact_union(deltas + [d_prime]), 4), (points, eps)

    def test_refined_composition_is_compose_then_the_conversion(self):
        assert dp_composition_refined([DpPoint(1.0, 1e-20)] * 3, 20.0).delta == pytest.approx(3e-20, rel=1e-12)
        rng = random.Random(2403)
        for _ in range(1000):
            points = [DpPoint(10.0 ** rng.uniform(-4.0, 1.0), union_draw(rng)) for _ in range(rng.randint(1, 8))]
            budget = compose([dp_to_approx_zcdp(p) for p in points])
            eps = budget.rho + 10.0 ** rng.uniform(-3.0, 2.0)
            assert dp_composition_refined(points, eps) == DpPoint(eps, approx_zcdp_to_dp(budget, eps).delta)
        with pytest.raises(ValueError, match="need at least one point"):
            dp_composition_refined([], 1.0)
        with pytest.raises(ValueError, match="rho must be nonnegative and finite"):
            dp_composition_refined([DpPoint(1e200, 0.0)], 1.0)

    def test_small_log_branch_returns_endpoint(self):
        # With a large failure budget the log factor goes nonpositive and
        # the bound collapses to half the squared norm.
        pt = dp_composition_bound([DpPoint(0.1, 0.0)], 0.9)
        assert pt.eps == pytest.approx(0.005, abs=1e-15)

    def test_individual_deltas_add(self):
        pt = dp_composition_bound([DpPoint(0.1, 0.01), DpPoint(0.2, 0.02)], 1e-6)
        assert pt.delta == pytest.approx(1e-6 + 0.03, abs=1e-15)

    def test_refined_composition_matches_manual_route(self):
        points = [DpPoint(0.1, 1e-8)] * 50
        eps = 3.0
        pt = dp_composition_refined(points, eps)
        rho = 0.5 * math.fsum(p.eps**2 for p in points)
        delta_prime = zcdp_to_dp_refined(ZcdpParams(0.0, rho), eps)
        keep = (1.0 - 1e-8) ** 50
        assert pt.delta == pytest.approx(1.0 - keep * (1.0 - delta_prime), rel=1e-12)

    def test_refined_inverse_beats_closed_form_bound(self):
        # Same 100-fold setting as the frozen example: inverting the
        # refined curve at the same total failure probability must give a
        # smaller eps than the closed-form composition bound.
        eps_ref = eps_for_delta(ZcdpParams(0.0, 0.5), 1e-6)
        assert eps_ref < 5.799302201348589


@settings(max_examples=80, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=2.0),
            st.floats(min_value=0.0, max_value=2.0),
            st.floats(min_value=0.0, max_value=0.01),
        ),
        min_size=1,
        max_size=6,
    )
)
def test_compose_matches_componentwise_sums(parts):
    budgets = [ZcdpParams(x, r, d) for x, r, d in parts]
    out = compose(budgets)
    assert out.xi == pytest.approx(math.fsum(b.xi for b in budgets), abs=1e-12)
    assert out.rho == pytest.approx(math.fsum(b.rho for b in budgets), abs=1e-12)
    # Each step's sum rounds by at most one rounding of the final union, and
    # the products' roundings add up to two: n + 2 in all.
    assert within_union(out.delta_approx, exact_union([b.delta_approx for b in budgets]), len(budgets) + 2)


@settings(max_examples=80, deadline=None)
@given(
    st.floats(min_value=1e-3, max_value=3.0),
    st.floats(min_value=1e-3, max_value=3.0),
    st.integers(min_value=1, max_value=6),
)
def test_group_privacy_dominates_single(xi, rho, k):
    base = ZcdpParams(xi, rho)
    g = group_privacy(base, k)
    assert g.xi >= base.xi - 1e-15
    assert g.rho == pytest.approx(base.rho * k * k, rel=1e-15)
