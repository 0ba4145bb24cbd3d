"""verify's private generator against numpy.random.default_rng, draw for draw."""

import random

import pytest

from cdpacct.verify import _Rng

np = pytest.importorskip("numpy")

# Spans of integers(lo, lo + span): 1 draws nothing, 2**31 + 1 rejects
# about half its draws, and 2**32 - 1 is the widest span _Rng takes.
SPANS = (1, 2, 5, 23, 1000, 3 * 2**30, 2**31 + 1, 2**32 - 1)


# 2**130 + 1 has five 32-bit words, one more than SeedSequence's pool.
@pytest.mark.parametrize("seed", [0, 1, 7, 20240801, 2**64 + 3, 2**96 + 12345, 2**130 + 1])
def test_generator_matches_numpy_draw_for_draw(seed):
    ours, ref = _Rng(seed), np.random.default_rng(seed)
    plan = random.Random(seed)
    for _ in range(4000):
        call = plan.randrange(3)
        if call == 0:
            x = ours.random()
            assert type(x) is float and x == ref.random()
        elif call == 1:
            lo = plan.uniform(-10.0, 10.0)
            hi = lo + plan.choice((1e-3, 1.0, 20.0))
            assert ours.uniform(lo, hi) == ref.uniform(lo, hi)
        else:
            lo = plan.randrange(-50, 50)
            hi = lo + plan.choice(SPANS)
            k = ours.integers(lo, hi)
            assert type(k) is int and k == ref.integers(lo, hi)


@pytest.mark.parametrize("lo, hi", [(0, 0), (3, 2), (0, 2**32)])
def test_generator_refuses_spans_it_does_not_reproduce(lo, hi):
    with pytest.raises(ValueError, match="hi - lo"):
        _Rng(1).integers(lo, hi)


def test_generator_refuses_negative_seed():
    with pytest.raises(ValueError, match="non-negative"):
        _Rng(-1)
