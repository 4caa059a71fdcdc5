"""Closed-form floors and ceilings on monochromatic clique counts.

Every two-coloring of K_n is forced to contain a minimum number of
monochromatic triangles (Goodman's theorem); a random coloring has a
simple expected census, a CliqueCensus with rational counts; and for
orders m >= 4 only an upper bound on the minimal monochromatic
fraction is known (Thomason). All results here are exact integers or
exact rationals; callers convert to floats at the reporting boundary.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, ldexp
from typing import NamedTuple

from .errors import InputError, UnsupportedOrderError


def goodman_min(n: int) -> int:
    """Minimum monochromatic triangles forced in any two-colored K_n.

    Schwenk's single floor form C(n,3) - floor(n/2 * floor((n-1)^2 / 4)),
    zero for n <= 5. The tests check it against Goodman's three-case
    form (n = 2m, 4m+1, 4m+3), kept there as the reference.
    """
    if n < 1:
        raise InputError(f"vertex count must be >= 1, got {n}")
    return comb(n, 3) - n * ((n - 1) ** 2 // 4) // 2


class GoodmanBound(NamedTuple):
    """Forced-triangle floor for K_n, as a count and as exact fractions.

    `floorless_fraction` is the floor-free approximation
    1/4 - 3/(4(n-2)); `asymptotic_fraction` is (n-3)/(4n). Both tend to
    1/4 from below as n grows.
    """

    n: int
    forced_count: int
    forced_fraction: Fraction
    asymptotic_fraction: Fraction
    floorless_fraction: Fraction


def goodman_fraction(n: int) -> GoodmanBound:
    """Forced monochromatic-triangle fraction of the C(n,3) total."""
    if n < 3:
        raise InputError(f"need n >= 3, got {n}")
    forced = goodman_min(n)
    return GoodmanBound(
        n=n,
        forced_count=forced,
        forced_fraction=Fraction(forced, comb(n, 3)),
        asymptotic_fraction=Fraction(n - 3, 4 * n),
        floorless_fraction=Fraction(1, 4) - Fraction(3, 4 * (n - 2)),
    )


def thomason_bound(m: int) -> float:
    """Upper bound 0.936 * 2^(1 - C(m,2)) on the minimal monochromatic
    K_m fraction over all two-colorings. Defined for m >= 4 (order 3 has
    the exact Goodman floor instead). Underflows to 0.0 for large m
    rather than overflowing the exponent."""
    if m < 4:
        raise UnsupportedOrderError(f"order must be >= 4, got {m}")
    return ldexp(0.936, 1 - comb(m, 2))


def expected_mono(n: int, m: int, t):
    """The CliqueCensus expected of a random coloring of K_n whose edges
    are each red with probability t, independently.

    red_count = C(n,m) * t^C(m,2) and blue_count is the mirror term in
    (1-t). The counts are exact rationals, so the mono sum is exactly
    symmetric under t <-> 1-t and never overflows. Accepts t as float,
    int, or Fraction; t must lie in [0, 1].
    """
    if m < 3:
        raise InputError(f"clique order must be >= 3, got {m}")
    if n < m:
        raise InputError(f"need n >= m, got n={n}, m={m}")
    if not 0 <= t <= 1:
        raise InputError(f"probability t must be in [0, 1], got {float(t)}")
    from .census import CliqueCensus  # bounds tables need no census

    t = Fraction(t)
    pairs = comb(m, 2)
    total = comb(n, m)
    return CliqueCensus(
        n=n,
        m=m,
        total=total,
        red_count=total * t**pairs,
        blue_count=total * (1 - t) ** pairs,
    )
