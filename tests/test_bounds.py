from fractions import Fraction
from math import comb

import pytest

import oracles
import ramseystats as rs


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
    curve = rs.expected_mono(20, 3, Fraction(1, 2))
    assert curve.expected_red == Fraction(285, 2)
    assert curve.expected_blue == Fraction(285, 2)
    assert curve.expected_mono == 285
    assert curve.expected_mono_fraction == Fraction(285, comb(20, 3))


def test_expected_mono_symmetry_exact():
    for i in range(0, 101):
        t = Fraction(i, 100)
        a = rs.expected_mono(20, 3, t).expected_mono
        b = rs.expected_mono(20, 3, 1 - t).expected_mono
        assert a == b


def test_expected_mono_extremes():
    c = rs.expected_mono(10, 3, 0)
    assert c.expected_red == 0
    assert c.expected_blue == comb(10, 3)
    assert rs.expected_mono(10, 3, 1).expected_mono_fraction == 1


def test_expected_mono_higher_orders():
    c = rs.expected_mono(214, 5, Fraction(5, 214))
    assert c.expected_red == comb(214, 5) * Fraction(5, 214) ** 10
    assert c.t == Fraction(5, 214)


def test_expected_mono_validation():
    with pytest.raises(rs.InputError):
        rs.expected_mono(10, 2, 0.5)
    with pytest.raises(rs.InputError):
        rs.expected_mono(2, 3, 0.5)
    with pytest.raises(rs.InputError):
        rs.expected_mono(10, 3, 1.5)
    with pytest.raises(rs.InputError):
        rs.expected_mono(10, 3, -0.1)
