"""Chi-squared deviation statistics for monochromatic-fraction sweeps.

An observed sweep (fraction of monochromatic triangles per threshold)
is compared against two references: the fractions of the expected
census of a random coloring, `bounds.expected_mono` (`chi2`), and the
constant Ramsey-forced floor (`chi2_vs_goodman`, which calls `chi2`). `chi2` is the one place the
goodness-of-fit term (o - r)^2 / r is summed. p-values come from a
self-contained regularized incomplete gamma implementation so the
package needs no scipy.

Sweeps are plain sequences of fractions of the triangle total, never
raw counts; the statistic magnitudes only make sense on that scale.
The red/blue split of one census is no statistic: it is read off the
census itself (`CliqueCensus.red_share`, `blue_share`, `bias_ratio`).
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

from .bounds import goodman_fraction
from .errors import DegenerateReferenceError, InputError


class Chi2Report(NamedTuple):
    """A chi-squared statistic with its upper-tail p-value.

    skipped_points counts grid points excluded because the reference
    was zero there (the statistic stays finite and the exclusion stays
    visible).
    """

    statistic: float
    df: int
    p_value: float
    skipped_points: int = 0


def _gamma_p_series(a: float, x: float) -> float:
    # lower regularized gamma by power series, good for x < a + 1
    term = 1.0 / a
    total = term
    ap = a
    while abs(term) >= abs(total) * 1e-16:
        ap += 1.0
        term *= x / ap
        total += term
    return total * math.exp(-x + a * math.log(x) - math.lgamma(a))

def _gamma_q_contfrac(a: float, x: float) -> float:
    # upper regularized gamma by Lentz's continued fraction, x >= a + 1;
    # 0 once the factor underflows, long before a huge x stalls b += 2
    factor = math.exp(-x + a * math.log(x) - math.lgamma(a))
    if factor == 0.0:
        return 0.0
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    delta, i = 0.0, 0
    while abs(delta - 1.0) >= 1e-16:
        i += 1
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
    return h * factor

def p_value(statistic: float, df: int = 1) -> float:
    """Upper-tail probability of chi-squared(df) at the given statistic.

    Equals 1 minus the CDF; for df=1 it coincides with
    erfc(sqrt(statistic/2)), which the tests use as an independent
    check. Accurate to well over 6 significant digits. An infinite
    statistic has p-value 0; nan is rejected. The expansions run to
    convergence, some 17,000 terms at most under the cap df <= 10**7.
    """
    if not 1 <= df <= 10**7:
        raise InputError(f"degrees of freedom must lie in [1, 10**7], got {df}")
    if math.isnan(statistic) or statistic < 0:
        raise InputError(f"statistic must be nonnegative, got {statistic}")
    if statistic == 0:
        return 1.0
    if math.isinf(statistic):
        return 0.0
    a = df / 2.0
    x = statistic / 2.0
    if x < a + 1.0:
        return 1.0 - _gamma_p_series(a, x)
    return _gamma_q_contfrac(a, x)


def chi2(observed: Sequence, reference: Sequence, df: int = 1) -> Chi2Report:
    """Goodness of fit of an observed sweep against a reference sweep.

    Both are equally long sequences of fractions in [0, 1], aligned
    point by point. Points where the reference is exactly zero are
    skipped (and counted in the report) rather than dividing by zero.
    """
    if len(observed) != len(reference):
        raise InputError(f"{len(observed)} observed vs {len(reference)} reference values")
    for v in (*observed, *reference):
        if not 0 <= v <= 1:
            raise InputError(f"chi2 values are fractions in [0, 1], got {v}")
    stat = 0.0
    skipped = 0
    for obs, ref in zip(observed, reference):
        if ref == 0:
            skipped += 1
            continue
        diff = float(obs) - float(ref)
        stat += diff * diff / float(ref)
    return Chi2Report(statistic=stat, df=df, p_value=p_value(stat, df), skipped_points=skipped)


def chi2_vs_goodman(
    observed: Sequence, n: int, per_color: bool = False, df: int = 1
) -> Chi2Report:
    """Deviation of a sweep from the constant forced-triangle floor.

    The reference at every point is the forced monochromatic fraction
    for n vertices, or half of it when comparing a single color's sweep
    (a balanced floor splits evenly).
    """
    ref = goodman_fraction(n).forced_fraction
    if ref == 0:
        raise DegenerateReferenceError(
            f"forced fraction is 0 at n={n}; need n >= 6 for a usable reference"
        )
    if per_color:
        ref = ref / 2
    return chi2(observed, [ref] * len(observed), df)


def chi2_deviation(a: Chi2Report, b: Chi2Report) -> Chi2Report:
    """Absolute difference of two like statistics, as its own report.

    Both inputs must have the same degrees of freedom; the difference
    keeps that df for its p-value.
    """
    if a.df != b.df:
        raise InputError(f"df mismatch: {a.df} vs {b.df}")
    diff = abs(a.statistic - b.statistic)
    return Chi2Report(statistic=diff, df=a.df, p_value=p_value(diff, a.df))


def bar_chi2(values: Sequence[float]) -> float:
    """Arithmetic mean of statistics across consecutive clique orders.

    The divisor is the true number of terms supplied (orders 3..M give
    M-2 terms), not M-3. The sum is math.fsum's, correctly rounded, so
    the mean does not depend on the summation order or on the Python
    version (the built-in sum compensates its float additions from
    CPython 3.12 on).
    """
    if not values:
        raise InputError("need at least one statistic to average")
    return math.fsum(values) / len(values)

