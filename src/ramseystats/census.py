"""Monochromatic triangle counts and the one census type.

Everything here is a pure function of degrees or seeds; counts are
exact integers and fractions are exact rationals. mono_triangles counts
a coloring's monochromatic triangles from its degrees alone (Goodman's
identity), which is all a votes sweep needs. The seeded draw rule of
the random baseline is random_coloring's alone, and random_mono_counts
reads its draws at many densities. CliqueCensus is the one census type:
it also carries the expected census of a random coloring
(bounds.expected_mono), and the transitivity and the red/blue bias of
the monochromatic cliques are its properties. The clique censuses of a
coloring, of orders 3 to 5, and its maximum cliques are in trade.census,
which only the trade commands load.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from collections import Counter, defaultdict
from fractions import Fraction
from itertools import accumulate, combinations, islice, pairwise
from math import comb
from operator import mul
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

from .errors import InputError

if TYPE_CHECKING:  # annotations only: simulate builds no coloring and loads none
    from .coloring import TwoColoring


class CliqueCensus(NamedTuple):
    """Monochromatic K_m counts by color among the C(n,m) m-vertex subsets.

    For a coloring (trade.census.clique_census, m in {3, 4, 5}) the
    counts are integers; for the expectation over random colorings
    (bounds.expected_mono, any m >= 3) they are exact rationals. Every
    property below holds for either.
    """

    n: int
    m: int
    total: int
    red_count: int | Fraction
    blue_count: int | Fraction

    @property
    def mono(self) -> int | Fraction:
        return self.red_count + self.blue_count

    @property
    def mono_fraction(self) -> Fraction:
        """Monochromatic share of all C(n,m) m-vertex subsets.

        Defined as 1 when total is 0 (n < m): a graph with no K_m is
        vacuously monochromatic, matching the all-red/all-blue sweep
        extremes.
        """
        if self.total == 0:
            return Fraction(1)
        return Fraction(self.mono, self.total)

    @property
    def mono_paths2(self) -> int:
        """Length-2 paths i-j-k whose two edges share a color.

        Follows from the triangle census alone: a bichromatic triple
        holds one such path and a monochromatic one three, so this is
        C(n,3) + 2*mono. Needs m = 3 and n >= 3.
        """
        if self.m != 3:
            raise InputError(f"transitivity needs a triangle census, got m={self.m}")
        if self.n < 3:
            raise InputError(f"transitivity needs n >= 3, got {self.n}")
        return comb(self.n, 3) + 2 * self.mono

    @property
    def completion_ratio(self) -> Fraction:
        """Share of the mono_paths2 paths whose closing edge i-k has their
        color: 3*mono / mono_paths2, the transitivity of the coloring."""
        return Fraction(3 * self.mono, self.mono_paths2)

    @property
    def red_share(self) -> Fraction:
        """Share of the monochromatic cliques that are red. This,
        blue_share and bias_ratio raise InputError when mono is 0."""
        if self.mono == 0:
            raise InputError("no monochromatic triangles; shares are undefined")
        return Fraction(self.red_count, self.mono)

    @property
    def blue_share(self) -> Fraction:
        return 1 - self.red_share

    @property
    def bias_ratio(self) -> Fraction | float:
        """Red over blue monochromatic cliques: a Fraction, or math.inf
        for an all-red census rather than a failure."""
        red = self.red_share
        return math.inf if self.blue_count == 0 else red / self.blue_share


def mono_triangles(n: int, degrees: Iterable[int]) -> int:
    """Monochromatic triangles of a two-colored K_n, from degrees alone.

    Goodman's identity: mono = C(n,3) - 1/2 * sum_v d_v (n-1-d_v), with
    d_v the degree of vertex v in one color, either one. At v there are
    d_v (n-1-d_v) pairs of edges of different colors; a triangle that is
    not monochromatic holds two such pairs, a monochromatic one none.
    Holds for any n >= 1.
    """
    d = list(degrees)
    return _goodman(n, (n - 1) * sum(d) - sum(map(mul, d, d)))


def _goodman(n: int, discordant: int) -> int:
    """C(n,3) less half the discordant edge pairs sum_v d_v (n-1-d_v)."""
    if n < 1:
        raise InputError(f"vertex count must be >= 1, got {n}")
    return comb(n, 3) - discordant // 2


def _check_densities(n: int, ts: Sequence[float]) -> None:
    if n < 1:
        raise InputError(f"vertex count must be >= 1, got {n}")
    for t in ts:
        if not 0 <= t <= 1:
            raise InputError(f"blue probability must be in [0, 1], got {t}")
    if any(a > b for a, b in pairwise(ts)):
        raise InputError("blue probabilities must be in ascending order")


def random_coloring(n: int, t: float, seed: int) -> TwoColoring:
    """A random coloring of K_n, each pair blue with probability t.

    Randomness comes from CPython's Mersenne Twister (random.Random)
    seeded as given, drawing once per pair in combinations(range(n), 2)
    order, i.e. ascending (i, j), so a seed pins every draw on every
    platform. A pair is blue when its draw is below t.
    """
    from .coloring import from_blue_edges

    _check_densities(n, [t])
    r = random.Random(seed).random
    return from_blue_edges(n, (pair for pair in combinations(range(n), 2) if r() < t))


def random_mono_counts(n: int, ts: Sequence[float], seeds: Iterable[int]) -> list[list[int]]:
    """Monochromatic triangles of random_coloring(n, t, seed) for each t
    of the ascending ts: one list per t, one count per seed.

    A seed draws as random_coloring does, once per pair in combinations
    order, and a pair is blue at t when its draw is below t. Each vertex
    keeps one bucket row of len(ts) + 1 counts, and a draw adds its pair
    to the bucket of the first t above it in both endpoints' rows (the
    last bucket: blue at no t). A vertex's blue degrees at every t are
    the running sum of its row, and a table of d(n-1-d) gives Goodman's
    discordant sum (mono_triangles).

    Seeds with a len() are iterated twice, for their two halves, and the
    second half runs in a forked child when cores.both finds a second
    core and enough work; the lists of the two halves are joined. Other
    iterables of seeds are drawn once, in one pass.
    """
    from .cores import both

    _check_densities(n, ts)
    half = len(seeds) // 2 if hasattr(seeds, "__len__") else 0
    # a unit of _sample_work takes 50-300 ns, about 100 at the default n = 20
    counts, rest = both(lambda: _mono_counts(n, ts, islice(seeds, half)),
                        lambda: _mono_counts(n, ts, islice(seeds, half, None)),
                        half * _sample_work(n, len(ts)) * 100)
    for at_t, more in zip(counts, rest):
        at_t.extend(more)
    return counts


# In units of one draw as fitted (0.34-0.37 us): a seed is charged C(n,2) + 26 (its
# seed and call cost 36-40) and each of its counts n + 3 (one costs 1.7-6 at n <= 20).
def _sample_work(n: int, points: int) -> int:
    """One seed's work in _mono_counts at points densities; simulate's cap reads it too."""
    return comb(n, 2) + 26 + points * (n + 3)


def _mono_counts(n: int, ts: Sequence[float], seeds: Iterable[int]) -> list[list[int]]:
    """random_mono_counts in one pass over the seeds, on checked densities."""
    discordant = [d * (n - 1 - d) for d in range(n)].__getitem__
    triples = comb(n, 3)
    counts = [[] for _ in ts]
    for seed in seeds:
        r = random.Random(seed).random
        rows = [[0] * (len(ts) + 1) for _ in range(n)]
        for i, row_i in enumerate(rows):
            for row_j in rows[i + 1:]:
                k = bisect_right(ts, r())
                row_i[k] += 1
                row_j[k] += 1
        degrees = zip(*map(accumulate, rows))  # at each t; next() lets zip reuse its tuple
        for at_t in counts:
            at_t.append(triples - sum(map(discordant, next(degrees))) // 2)
    return counts


def mono_distribution(n: int) -> dict[int, int]:
    """All 2^C(n,2) colorings of K_n counted by monochromatic triangles,
    ascending, by degree sequence (mono_triangles). Settling a vertex
    colors its pairs to the unsettled ones, which fixes its degree. Those
    are exchangeable: a state is their sorted partial degrees, and k of
    c equal ones gain a pair to the settled vertex in C(c,k) ways.
    """
    states = {(0,) * n: Counter({0: 1})}  # partial degrees: {discordant pairs: colorings}
    for _ in range(n):
        settled = defaultdict(Counter)
        for partial, discords in states.items():
            options = [((), partial[0], 1)]  # (unsettled degrees, degree, ways)
            for v, c in sorted(Counter(partial[1:]).items()):
                options = [(left + (v,) * (c - k) + (v + 1,) * k, d + k, ways * comb(c, k))
                           for left, d, ways in options for k in range(c + 1)]
            for left, d, ways in options:
                into = settled[left]
                for discordant, count in discords.items():
                    into[discordant + d * (n - 1 - d)] += count * ways
        states = settled
    return {_goodman(n, s): count for s, count in sorted(states[()].items(), reverse=True)}
