"""The vectorized float formatter gives the text of float.__repr__.

Run as a script, `python tests/test_floatrepr.py COUNT` compares the two on
COUNT seeded values and exits 1 on any mismatch; repr belongs to the
interpreter, so CI runs it under every Python it tests.
"""

import math
import sys

import numpy as np
import pytest

from tourney_codes._floatrepr import float_reprs


def _bits(lo: float, hi: float, rng: np.random.Generator, size: int) -> np.ndarray:
    """size uniform bit patterns of the positive floats in [lo, hi), with random signs."""
    lo_bits, hi_bits = np.array([lo, hi]).view(np.int64)
    values = rng.integers(lo_bits, hi_bits, size).view(np.float64)
    return np.where(rng.random(size) < 0.5, -values, values)


def _neighbours(x: float, count: int) -> list[float]:
    """x and its count nearest floats on each side."""
    below, above = [x], [x]
    for _ in range(count):
        below.append(math.nextafter(below[-1], -math.inf))
        above.append(math.nextafter(above[-1], math.inf))
    return below[::-1] + above[1:]


def _fixed_values() -> np.ndarray:
    """Powers of two and their neighbours, decade bounds and special values."""
    values = []
    for e in range(-1074, 1024):
        p = math.ldexp(1.0, e)
        values += [p, math.nextafter(p, 0.0), math.nextafter(p, math.inf)]
    for x in (1e-4, 1e-3, 0.01, 0.1, 1.0):
        values += _neighbours(x, 64)
    # j / 2^m is a decimal ending in 5, halfway between two 16-digit ones.
    values += [j / 2.0 ** m for m in (17, 18, 19) for j in range(1, 2 ** 17, 62)]
    values += [0.0, 5e-324, 2.2250738585072014e-308, 1e-310, 1e300, 1.7976931348623157e308,
               math.inf, math.nan, 5.551115123125783e-17, 0.5, 0.1 + 0.2]
    values = np.array(values)
    return np.concatenate([values, -values])


def seeded_values(seed: int, count: int) -> np.ndarray:
    """count values from seed, most of them in the formatter's fast range:
    random bit patterns over [1e-4, 2) with both signs, decimals k/10^j,
    unit-vector coordinates, and subnormal bit patterns."""
    rng = np.random.default_rng(seed)
    j = rng.integers(1, 18, count)
    decimals = np.floor(rng.random(count) * 2 * 10.0 ** j) / 10.0 ** j
    subnormals = rng.integers(1, 2 ** 52, count).view(np.float64)
    coordinates = rng.normal(size=count) / np.sqrt(rng.integers(1, 100, count))
    pools = [_bits(1e-4, 2.0, rng, count), decimals, coordinates, subnormals]
    pick = rng.choice(len(pools), count, p=[0.5, 0.2, 0.28, 0.02])
    return np.choose(pick, pools)


def mismatches(x: np.ndarray) -> list[tuple[str, str]]:
    """(float.__repr__, float_reprs) of every value on which the two differ."""
    got = float_reprs(x)
    want = [float.__repr__(v) for v in x.tolist()]
    assert len(got) == len(want)
    return [(w, g) for w, g in zip(want, got) if w != g]


def test_float_reprs_match_repr_on_seeded_values():
    assert mismatches(_fixed_values()) == []
    for seed in range(4):
        assert mismatches(seeded_values(seed, 50_000)) == []


@pytest.mark.parametrize("x", [[], [0.0], [-0.0], [math.nan], [-math.inf, 0.25, 1e-3]])
def test_float_reprs_of_short_arrays(x):
    assert float_reprs(np.array(x, dtype=np.float64)) == [float.__repr__(v) for v in x]


def test_float_reprs_match_repr_on_any_floats():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.lists(st.floats(), max_size=40))
    def check(values):
        assert mismatches(np.array(values, dtype=np.float64)) == []

    check()


if __name__ == "__main__":
    total = int(sys.argv[1])
    chunk = 100_000
    bad = mismatches(_fixed_values())
    for seed in range(0, total, chunk):
        bad += mismatches(seeded_values(seed, min(chunk, total - seed)))
    print(f"{total + _fixed_values().size} values, {len(bad)} mismatches {bad[:10]}")
    sys.exit(1 if bad else 0)
