"""Exact monochromatic clique censuses, maximum cliques and neighborhood
densities of a two-colored complete graph, as the trade commands run them.

Counts are computed by ordered neighbor-set intersection on the
bit-packed adjacency rows: an edge i<j contributes one triangle per set
bit of rows[i] & rows[j] above j, and K4/K5 extend the same scheme one
and two intersections deeper. This equals the Trace(A^3)/6 definition
(cross-checked against literal matrix powers in the tests). K3 and K4
on a 214-vertex trade graph take under a second; K5 on its dense side
takes 16-21 s on the trade seeds 1-2 of perfbench/gen.py (shared 2-core
host, CPython 3.11.7). The census type, CliqueCensus, and the counts a
votes sweep or a simulation needs are in ramseystats.census.
"""

from __future__ import annotations

import sys
from contextlib import suppress
from fractions import Fraction
from math import comb
from typing import NamedTuple

from ..census import CliqueCensus
from ..coloring import Color, TwoColoring, iter_bits
from ..errors import InputError, UndefinedDensityError, UnsupportedOrderError


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
