from fractions import Fraction
from math import comb

import pytest

import oracles
import ramseystats as rs
from ramseystats import Color


def test_goodman_min_known_values():
    # the first nontrivial floors
    assert [rs.goodman_min(n) for n in range(1, 10)] == [0, 0, 0, 0, 0, 2, 4, 8, 12]
    assert rs.goodman_min(214) == 396970


def test_goodman_three_cases():
    # the single floor form agrees with n = 2m, 4m+1, 4m+3 case by case
    for n in (6, 8, 9, 11, 100, 101, 103, 999):
        assert rs.goodman_min(n) == oracles.goodman_min(n)


def test_goodman_validation():
    with pytest.raises(rs.InputError):
        rs.goodman_min(0)
    with pytest.raises(rs.InputError):
        rs.goodman_fraction(2)


def test_goodman_fraction_fields():
    b = rs.goodman_fraction(214)
    assert b.forced_count == 396970
    assert b.forced_fraction == Fraction(396970, comb(214, 3))
    assert abs(float(b.forced_fraction) - 0.246479) < 5e-7
    assert b.asymptotic_fraction == Fraction(211, 856)
    assert b.floorless_fraction == Fraction(1, 4) - Fraction(3, 4 * 212)
    # small-n floors vanish
    assert rs.goodman_fraction(5).forced_fraction == 0


def test_goodman_fraction_three_datasets():
    # the three voting-graph floors, to the printed precision
    assert round(float(rs.goodman_fraction(435).forced_fraction), 3) == 0.248
    assert round(float(rs.goodman_fraction(267).forced_fraction), 3) == 0.247
    assert round(float(rs.goodman_fraction(168).forced_fraction), 3) == 0.246


def test_thomason_bound():
    assert rs.thomason_bound(4) == pytest.approx(0.936 / 32, rel=1e-12)
    assert rs.thomason_bound(5) == pytest.approx(0.936 * 2.0**-9, rel=1e-12)
    assert f"{rs.thomason_bound(5):.5f}" == "0.00183"
    for m in range(4, 60):
        assert rs.thomason_bound(m) == 0.936 * 2.0 ** (1 - comb(m, 2))
    assert rs.thomason_bound(10**200) == 0.0  # underflows, no OverflowError
    for m in (3, 2, 1, 0):
        with pytest.raises(rs.UnsupportedOrderError):
            rs.thomason_bound(m)


def test_expected_mono_exact():
    c = rs.expected_mono(20, 3, Fraction(1, 2))
    assert isinstance(c, rs.CliqueCensus)
    assert (c.n, c.m, c.total) == (20, 3, comb(20, 3))
    assert c.red_count == Fraction(285, 2)
    assert c.blue_count == Fraction(285, 2)
    assert c.mono == 285
    assert c.mono_fraction == Fraction(285, comb(20, 3))


def test_expected_mono_symmetry_exact():
    for i in range(0, 101):
        t = Fraction(i, 100)
        a = rs.expected_mono(20, 3, t).mono
        b = rs.expected_mono(20, 3, 1 - t).mono
        assert a == b


def test_expected_mono_extremes():
    c = rs.expected_mono(10, 3, 0)
    assert c.red_count == 0
    assert c.blue_count == comb(10, 3)
    assert rs.expected_mono(10, 3, 1).mono_fraction == 1


def test_expected_mono_higher_orders():
    c = rs.expected_mono(214, 5, Fraction(5, 214))
    assert c.red_count == comb(214, 5) * Fraction(5, 214) ** 10
    assert c.total == comb(214, 5)


def test_expected_mono_is_the_mean_over_all_colorings():
    # each coloring weighted by its probability t^red_edges (1-t)^blue_edges
    ts = [Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(5, 7), Fraction(1)]
    for n in range(3, 6):
        colorings = list(oracles.enumerate_colorings(n))
        for m in range(3, n + 1):
            counts = [
                (sum(map(sum, oracles.adjacency(c, Color.RED))) // 2,
                 oracles.clique_count(c, Color.RED, m),
                 oracles.clique_count(c, Color.BLUE, m))
                for c in colorings
            ]
            for t in ts:
                weights = [t**red * (1 - t) ** (comb(n, 2) - red) for red, _, _ in counts]
                assert sum(weights) == 1
                mean = rs.CliqueCensus(
                    n, m, comb(n, m),
                    sum(w * r for w, (_, r, _) in zip(weights, counts)),
                    sum(w * b for w, (_, _, b) in zip(weights, counts)),
                )
                assert rs.expected_mono(n, m, t) == mean


def test_expected_mono_validation():
    with pytest.raises(rs.InputError):
        rs.expected_mono(10, 2, 0.5)
    with pytest.raises(rs.InputError):
        rs.expected_mono(2, 3, 0.5)
    with pytest.raises(rs.InputError):
        rs.expected_mono(10, 3, 1.5)
    for t in (-0.1, float("inf"), float("-inf"), float("nan")):
        with pytest.raises(rs.InputError):
            rs.expected_mono(10, 3, t)
