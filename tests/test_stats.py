import functools
import math
import operator
from fractions import Fraction

import pytest

import ramseystats as rs


def test_chi2_validation():
    assert rs.chi2([0.1, 0.2, 0.3], [0.1, 0.2, 0.3]).statistic == 0.0
    with pytest.raises(rs.InputError):
        rs.chi2([0.5, 0.5], [0.5])  # lengths differ
    with pytest.raises(rs.InputError):
        rs.chi2([1.5], [0.5])  # values are fractions in [0, 1]
    with pytest.raises(rs.InputError):
        rs.chi2([0.5], [-0.1])
    with pytest.raises(rs.InputError):
        rs.chi2([math.nan], [0.5])
    with pytest.raises(rs.InputError):
        rs.chi2_vs_goodman([1.5], 6)


def test_p_value_against_erfc():
    # df=1 upper tail equals erfc(sqrt(x/2))
    for x in (0.001, 0.05, 0.3, 1.0, 1.329, 2.394, 7.372, 15.130, 21.644, 38.0):
        assert rs.p_value(x, 1) == pytest.approx(math.erfc(math.sqrt(x / 2)), abs=1e-12)


def test_p_value_spot_values():
    assert 0.2485 <= rs.p_value(1.329, 1) <= 0.2495
    assert rs.p_value(15.130, 1) <= 0.00012
    # df=2 upper tail is exp(-x/2)
    for x in (0.5, 2.0, 10.0):
        assert rs.p_value(x, 2) == pytest.approx(math.exp(-x / 2), rel=1e-12)
    assert rs.p_value(0, 5) == 1.0
    assert rs.p_value(math.inf, 1) == 0.0


def _even_df_upper_tail(x, df):
    # for even df the upper tail is sum_{j < df/2} e^{-x/2} (x/2)^j / j!
    h = x / 2
    return math.fsum(math.exp(j * math.log(h) - h - math.lgamma(j + 1)) for j in range(df // 2))


@pytest.mark.parametrize("df", [2 * 10**4, 2 * 10**6])
@pytest.mark.parametrize("ratio", [0.99, 1.0, 1.01])
def test_p_value_large_df(df, ratio):
    # near the mean the expansions need about 8 * sqrt(df / 2) terms
    x = ratio * df
    assert rs.p_value(x, df) == pytest.approx(_even_df_upper_tail(x, df), rel=1e-7)


def test_p_value_huge_statistic_terminates():
    # past x ~ 2**54 the continued fraction's b += 2 no longer moves b
    for df in (1, 2, 10**7):
        assert rs.p_value(1.7e308, df) == 0.0


def test_p_value_validation():
    for df in (0, 10**7 + 1):
        with pytest.raises(rs.InputError, match=r"must lie in \[1, 10\*\*7\]"):
            rs.p_value(1.0, df)
    with pytest.raises(rs.InputError):
        rs.p_value(-0.5, 1)
    with pytest.raises(rs.InputError):
        rs.p_value(math.nan, 1)


def test_chi2_vs_expectation_hand_value():
    obs = [0.5, 0.25, 0.75]
    exp = [0.25, 0.5, 0.5]
    rep = rs.chi2(obs, exp)
    hand = (0.5 - 0.25) ** 2 / 0.25 + (0.25 - 0.5) ** 2 / 0.5 + (0.75 - 0.5) ** 2 / 0.5
    assert rep.statistic == hand == 0.5
    assert rep.skipped_points == 0
    assert rep.p_value == rs.p_value(0.5, 1)


def test_chi2_vs_expectation_skips_zero_reference():
    rep = rs.chi2([0.2, 0.2], [0.0, 0.1])
    assert rep.skipped_points == 1
    assert rep.statistic == pytest.approx((0.2 - 0.1) ** 2 / 0.1)


def test_chi2_vs_expectation_identical_is_zero():
    s = [0.3, 0.4, 0.5]
    rep = rs.chi2(s, s)
    assert rep.statistic == 0.0
    assert rep.p_value == 1.0


def test_chi2_vs_goodman_hand_value():
    obs = [0.5, 0.25, 0.75]
    rep = rs.chi2_vs_goodman(obs, 6)  # floor 2/20 = 0.1
    hand = (0.5 - 0.1) ** 2 / 0.1 + (0.25 - 0.1) ** 2 / 0.1 + (0.75 - 0.1) ** 2 / 0.1
    assert rep.statistic == pytest.approx(hand, rel=1e-12)
    assert rep == rs.chi2(obs, [Fraction(1, 10)] * 3)

    per_color = rs.chi2_vs_goodman(obs, 6, per_color=True)
    hand_half = sum((v - 0.05) ** 2 / 0.05 for v in obs)
    assert per_color.statistic == pytest.approx(hand_half, rel=1e-12)


def test_chi2_vs_goodman_degenerate():
    with pytest.raises(rs.DegenerateReferenceError):
        rs.chi2_vs_goodman([0.5], 5)


def test_chi2_deviation():
    obs = [0.5, 0.25]
    a = rs.chi2_vs_goodman(obs, 6)
    b = rs.chi2_vs_goodman([0.3, 0.2], 6)
    d = rs.chi2_deviation(a, b)
    assert d.statistic == pytest.approx(abs(a.statistic - b.statistic))
    assert d.df == 1

    c = rs.chi2_vs_goodman(obs, 6, df=2)
    with pytest.raises(rs.InputError):
        rs.chi2_deviation(a, c)  # df mismatch


def test_bar_chi2():
    obs = [0.5]
    reps = [rs.chi2_vs_goodman(obs, n) for n in (6, 7, 8)]
    values = [r.statistic for r in reps]
    assert rs.bar_chi2(values) == pytest.approx(sum(values) / 3)
    # divisor is the true term count, even for a single order
    assert rs.bar_chi2(values[:1]) == values[0]
    with pytest.raises(rs.InputError):
        rs.bar_chi2([])


@pytest.mark.parametrize("values, mean", [
    ([0.1] * 10, 0.1),
    ([1e16, 1.0, 1.0], 10000000000000002 / 3),
    ([0.10000000000000002, 0.02925, 0.001828125], 0.04369270833333334),  # trade-small
])
def test_bar_chi2_sum_is_correctly_rounded(values, mean):
    # left-to-right float addition, the built-in sum up to CPython 3.11, rounds
    # differently on these; bar_chi2 takes the correctly rounded math.fsum
    assert functools.reduce(operator.add, values) / len(values) != mean
    assert rs.bar_chi2(values) == mean == math.fsum(values) / len(values)
