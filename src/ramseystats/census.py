"""Exact monochromatic subgraph censuses on two-colored complete graphs.

Counts are computed by ordered neighbor-set intersection on the
bit-packed adjacency rows: an edge i<j contributes one triangle per set
bit of rows[i] & rows[j] above j, and K4/K5 extend the same scheme one
and two intersections deeper. This equals the Trace(A^3)/6 definition
(cross-checked against literal matrix powers in the tests). K3 and K4
on a 214-vertex trade graph take under a second; K5 on its dense side
takes about 20 s (2 cores, CPython 3.11).

Everything here is a pure function of a coloring, degrees or seeds;
counts are exact integers and fractions are exact rationals. The seeded
draw rule of the random baseline is random_coloring's alone, and
random_mono_counts reads its draws at many densities. CliqueCensus is
the one census type: it also carries the expected census of a random
coloring (bounds.expected_mono), and the transitivity and the red/blue
bias of the monochromatic cliques are its properties.
"""

from __future__ import annotations

import math
import random
import sys
from bisect import bisect_right
from collections import Counter, defaultdict
from contextlib import suppress
from fractions import Fraction
from itertools import accumulate, combinations, islice, pairwise
from math import comb
from operator import mul
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

from .cores import both
from .errors import InputError, UndefinedDensityError, UnsupportedOrderError

if TYPE_CHECKING:  # annotations only: simulate builds no coloring and loads none
    from .coloring import Color, TwoColoring


class CliqueCensus(NamedTuple):
    """Monochromatic K_m counts by color among the C(n,m) m-vertex subsets.

    For a coloring (clique_census, m in {3, 4, 5}) the counts are
    integers; for the expectation over random colorings
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


class MaxCliqueResult(NamedTuple):
    """Largest single-color clique found by branch and bound.

    The search has two phases under one node budget: the first finds
    the size, the second the lexicographically smallest maximum clique
    (by sorted vertex tuple) as witness. nodes_explored counts both and
    is at most the budget + 1. If the first phase runs out, size is
    only a lower bound and is_lower_bound is set; if the second does,
    size is exact but witness is the first phase's clique, which may not
    be the smallest. witness_is_smallest is set only when the second
    phase finished.
    """

    size: int
    witness: tuple[int, ...]
    is_lower_bound: bool
    nodes_explored: int
    witness_is_smallest: bool


def _edges_among(rows: tuple[int, ...], cand: int) -> int:
    """Edges of the bit-row graph with both ends in the vertex mask cand."""
    acc = 0
    while cand:
        b = cand & -cand
        cand ^= b
        acc += (cand & rows[b.bit_length() - 1]).bit_count()
    return acc


def _count_cliques(rows: tuple[int, ...], cand: int, m: int) -> int:
    """m-cliques (m >= 3) of the bit-row graph inside the vertex mask cand.

    Each clique is counted once, from its least vertex: cand only ever
    holds vertices above the prefix chosen so far.
    """
    acc = 0
    while cand:
        b = cand & -cand
        cand ^= b
        sub = cand & rows[b.bit_length() - 1]
        if sub:
            acc += _edges_among(rows, sub) if m == 3 else _count_cliques(rows, sub, m - 1)
    return acc


def _census(coloring: TwoColoring, m: int) -> CliqueCensus:
    full = (1 << coloring.n) - 1
    return CliqueCensus(
        n=coloring.n,
        m=m,
        total=comb(coloring.n, m),
        red_count=_count_cliques(coloring.red_rows, full, m),
        blue_count=_count_cliques(coloring.blue_rows, full, m),
    )


def triangle_census(coloring: TwoColoring) -> CliqueCensus:
    """Count red and blue triangles exactly: the m=3 clique census.

    Unlike clique_census this accepts n < 3, where both counts and the
    total are 0.
    """
    return _census(coloring, 3)


def clique_census(coloring: TwoColoring, m: int) -> CliqueCensus:
    """Count monochromatic K_m exactly for m in {3, 4, 5}.

    Orders above 5 are out of scope: no exact forced minima are known
    there, so a census would have no floor to compare against.
    """
    if m not in (3, 4, 5):
        raise UnsupportedOrderError(f"clique order must be 3, 4, or 5, got {m}")
    if coloring.n < m:
        raise InputError(f"need at least {m} vertices, got {coloring.n}")
    return _census(coloring, m)


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
    _check_densities(n, ts)
    half = len(seeds) // 2 if hasattr(seeds, "__len__") else 0
    # simulate's charge per seed; a unit takes 50-300 ns, about 100 at the default n = 20
    per_seed = comb(n, 2) + 26 + len(ts) * (n + 3)
    counts, rest = both(lambda: _mono_counts(n, ts, islice(seeds, half)),
                        lambda: _mono_counts(n, ts, islice(seeds, half, None)),
                        half * per_seed * 100)
    for at_t, more in zip(counts, rest):
        at_t.extend(more)
    return counts


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


def per_vertex_triangles(coloring: TwoColoring, color: Color) -> list[int]:
    """Triangles of the given color through each vertex.

    Entry v equals half the v-th diagonal entry of the cubed adjacency
    matrix; the sum over vertices is three times the triangle count.
    """
    rows = coloring.rows(color)
    return [_edges_among(rows, nv) for nv in rows]


class _BudgetExceeded(Exception):
    pass


class _CliqueSearch:
    """Branch and bound maximum clique with a greedy coloring bound."""

    def __init__(self, rows: tuple[int, ...], budget: int):
        self.rows = rows
        self.budget = budget
        self.nodes = 0
        self.best_size = 0
        self.best: tuple[int, ...] = ()
        self._stack: list[int] = []

    def _color_order(self, cand: int) -> list[tuple[int, int]]:
        """Greedy-color cand; returns (slot, vertex) sorted by slot.

        slot + 1 bounds the largest clique a vertex can start inside
        cand, so processing high slots first gives the usual prune.
        Each slot is peeled off with mask operations: take the lowest
        vertex still free, then strike it and its neighbors from free.
        This is exactly first-fit coloring in ascending vertex order:
        first fit puts v in class 0 iff no earlier class-0 vertex is
        adjacent to it, which is what the first peel takes, and by
        induction every later class matches too. So the list, and with
        it every prune and node count of the search, is first fit's.
        """
        order: list[tuple[int, int]] = []
        slot = 0
        while cand:
            free = cand
            while free:
                b = free & -free
                v = b.bit_length() - 1
                cand ^= b
                free &= ~(self.rows[v] | b)
                order.append((slot, v))
            slot += 1
        return order

    def _tick(self) -> None:
        self.nodes += 1
        if self.nodes > self.budget:
            raise _BudgetExceeded

    def expand(self, cand: int) -> None:
        self._tick()
        if not cand:
            if len(self._stack) > self.best_size:
                self.best_size = len(self._stack)
                self.best = tuple(sorted(self._stack))
            return
        rem = cand
        order = self._color_order(cand)
        for slot, v in reversed(order):
            if len(self._stack) + slot + 1 <= self.best_size:
                return
            self._stack.append(v)
            self.expand(rem & self.rows[v])
            self._stack.pop()
            rem ^= 1 << v

    def has_clique(self, cand: int, need: int) -> bool:
        """Decision query: does cand contain a clique of size need?"""
        if need <= 0:
            return True
        self._tick()
        if cand.bit_count() < need:
            return False
        if need == 1:
            return True
        order = self._color_order(cand)
        rem = cand
        for slot, v in reversed(order):
            if slot + 1 < need:
                return False
            if self.has_clique(rem & self.rows[v], need - 1):
                return True
            rem ^= 1 << v
        return False


def max_clique(
    coloring: TwoColoring, color: Color, node_budget: int = 10**8
) -> MaxCliqueResult:
    """Exact maximum clique in one color.

    The red maximum clique doubles as the maximum independent set of
    the blue graph. Among equal-size maxima the lexicographically
    smallest witness is returned, found by re-querying the search with
    each candidate vertex pinned in turn. node_budget (>= 1) bounds both
    phases together (see MaxCliqueResult).

    The search recurses once per clique vertex, so the clique must be
    smaller than Python's recursion limit (sys.getrecursionlimit(),
    1000 by default) less the caller's frames; a search that reaches
    the limit raises InputError.
    """
    from .coloring import iter_bits

    if node_budget < 1:
        raise InputError(f"clique budget must be >= 1, got {node_budget}")
    rows = coloring.rows(color)
    full = (1 << coloring.n) - 1
    search = _CliqueSearch(rows, node_budget)
    chosen: list[int] = []
    exact = smallest = False
    try:
        with suppress(_BudgetExceeded):
            search.expand(full)
            exact = True
            cand = full
            need = search.best_size
            while need:
                for v in iter_bits(cand):
                    rest = cand & rows[v] & (-1 << (v + 1))
                    if search.has_clique(rest, need - 1):
                        chosen.append(v)
                        cand = rest
                        need -= 1
                        break
            smallest = True
    except RecursionError:
        raise InputError(
            f"clique search reached Python's recursion limit of {sys.getrecursionlimit()}"
            " frames; the largest clique must be smaller"
        ) from None
    return MaxCliqueResult(
        size=search.best_size,
        witness=tuple(chosen) if smallest else search.best,
        is_lower_bound=not exact,
        nodes_explored=search.nodes,
        witness_is_smallest=smallest,
    )


def neighborhood_density(coloring: TwoColoring, v: int, color: Color) -> Fraction:
    """Edge density of one color among v's neighbors in that color.

    Undefined (not zero) when v has fewer than two such neighbors,
    since there is no pair to carry an edge.
    """
    if not 0 <= v < coloring.n:
        raise InputError(f"vertex {v} out of range for n={coloring.n}")
    rows = coloring.rows(color)
    nv = rows[v]
    deg = nv.bit_count()
    if deg < 2:
        raise UndefinedDensityError(
            f"vertex {v} has {deg} {color.value} neighbor(s); density needs 2"
        )
    return Fraction(_edges_among(rows, nv), comb(deg, 2))
