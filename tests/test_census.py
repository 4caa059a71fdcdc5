import math
import random
import sys
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
import ramseystats as rs
from ramseystats import Color, census, cores


def test_triangle_census_star(star_coloring):
    c = rs.triangle_census(star_coloring)
    assert (c.blue_count, c.red_count) == (0, 10)
    assert c.mono == 10
    assert c.total == 20
    assert c.mono_fraction == Fraction(1, 2)


def test_triangle_census_extremes():
    all_blue = rs.TwoColoring(4, tuple(0b1111 & ~(1 << i) for i in range(4)))
    c = rs.triangle_census(all_blue)
    assert c.blue_count == 4 and c.red_count == 0
    assert c.mono_fraction == 1

    tiny = rs.from_blue_edges(2, [(0, 1)])
    c = rs.triangle_census(tiny)
    assert c.total == 0 and c.mono == 0
    assert c.mono_fraction == 1  # vacuous: no triangles to be bichromatic


def test_clique_census_small():
    # blue K4 sitting inside K6
    c = rs.from_blue_edges(6, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    k4 = rs.clique_census(c, 4)
    assert k4.blue_count == 1
    assert k4.red_count == 0  # vertices 4,5 are red to everything but each other
    k3 = rs.clique_census(c, 3)
    assert k3.blue_count == 4
    assert k3.red_count == oracles.clique_count(c, Color.RED, 3)


def test_clique_census_validation():
    c = rs.from_blue_edges(6, [(0, 1)])
    with pytest.raises(rs.UnsupportedOrderError):
        rs.clique_census(c, 6)
    with pytest.raises(rs.UnsupportedOrderError):
        rs.clique_census(c, 2)
    with pytest.raises(rs.InputError):
        rs.clique_census(rs.from_blue_edges(4, []), 5)


# all-red, sparse, balanced, dense and all-blue colorings
BLUE_DENSITIES = (0.0, 0.1, 0.5, 0.9, 1.0)


@settings(deadline=None)
@given(
    n=st.integers(1, 9),
    p=st.sampled_from(BLUE_DENSITIES),
    rnd=st.randoms(use_true_random=False),
)
def test_census_kernel_matches_oracles(n, p, rnd):
    c = rs.from_blue_edges(
        n, [(i, j) for i, j in combinations(range(n), 2) if rnd.random() < p]
    )
    tri = rs.triangle_census(c)
    assert (tri.m, tri.total) == (3, comb(n, 3))
    assert tri.red_count == oracles.clique_count(c, Color.RED, 3)
    assert tri.blue_count == oracles.clique_count(c, Color.BLUE, 3)
    # Goodman's degree identity: mono = C(n,3) - 1/2 sum_v r_v b_v
    rb = sum(c.degree(v, Color.RED) * c.degree(v, Color.BLUE) for v in range(n))
    assert 2 * tri.mono == 2 * comb(n, 3) - rb

    for m in (4, 5):
        if n < m:
            with pytest.raises(rs.InputError):
                rs.clique_census(c, m)
            continue
        k = rs.clique_census(c, m)
        assert k.red_count == oracles.clique_count(c, Color.RED, m)
        assert k.blue_count == oracles.clique_count(c, Color.BLUE, m)

    for color in (Color.RED, Color.BLUE):
        through = oracles.per_vertex_triangles(c, color)
        assert rs.per_vertex_triangles(c, color) == through
        for v in range(n):
            deg = c.degree(v, color)
            if deg < 2:
                with pytest.raises(rs.UndefinedDensityError):
                    rs.neighborhood_density(c, v, color)
            else:
                density = rs.neighborhood_density(c, v, color)
                assert density == Fraction(through[v], comb(deg, 2))


@settings(deadline=None)
@given(
    n=st.integers(1, 12),
    p=st.sampled_from(BLUE_DENSITIES),
    rnd=st.randoms(use_true_random=False),
)
def test_mono_triangles_matches_census(n, p, rnd):
    c = rs.from_blue_edges(
        n, [(i, j) for i, j in combinations(range(n), 2) if rnd.random() < p]
    )
    blue = [c.degree(v, Color.BLUE) for v in range(n)]
    red = [c.degree(v, Color.RED) for v in range(n)]
    mono = rs.triangle_census(c).mono
    assert rs.mono_triangles(n, blue) == rs.mono_triangles(n, red) == mono


def test_mono_triangles_extremes():
    for n in range(1, 13):
        # all blue and all red: every triangle is monochromatic
        assert rs.mono_triangles(n, [n - 1] * n) == rs.mono_triangles(n, [0] * n) == comb(n, 3)
    with pytest.raises(rs.InputError):
        rs.mono_triangles(0, [])


@given(st.integers(1, 40).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.integers(0, n - 1), max_size=n))))
@example((1, []))
@example((1, [0]))
@example((6, [0, 5, 5, 0, 2, 3]))
def test_mono_triangles_is_goodmans_discordant_sum(case):
    # C(n,3) - sum d (n-1-d) / 2 over any degree list in [0, n-1], read
    # from a list, a generator or a map; also none and the extremes 0, n-1
    n, drawn = case
    for degrees in (drawn, [], [0] * n, [n - 1] * n, [0, n - 1] * n):
        want = comb(n, 3) - sum(d * (n - 1 - d) for d in degrees) // 2
        assert rs.mono_triangles(n, degrees) == want
        assert rs.mono_triangles(n, (d for d in degrees)) == want
        assert rs.mono_triangles(n, map(int, degrees)) == want


def test_random_mono_counts_validation():
    assert rs.random_mono_counts(1, [0.5], [1]) == [[0]]
    assert rs.random_mono_counts(6, [1.0], [1]) == [[20]]
    assert rs.random_mono_counts(6, [0.0, 1.0], [1, 2]) == [[20, 20], [20, 20]]
    assert rs.random_mono_counts(6, [], [1]) == []
    assert rs.random_mono_counts(6, [0.2, 0.7], []) == [[], []]
    with pytest.raises(rs.InputError):
        rs.random_coloring(5, -0.1, seed=1)
    for seeds in ([1], []):
        for n, ts in [(0, [0.5]), (5, [0.2, 1.5]), (5, [-0.1, 0.2]), (5, [float("nan")]),
                      (5, [0.5, 0.4]), (5, [0.0, 1.0, 0.5])]:
            with pytest.raises(rs.InputError):
                rs.random_mono_counts(n, ts, seeds)


@settings(deadline=None)
@given(
    n=st.integers(1, 12),
    t=st.one_of(st.sampled_from([0.0, 1.0, 0.5]), st.floats(0, 1)),
    seed=st.integers(0, 2**63 - 1),
)
def test_random_mono_counts_one_t_is_random_coloring(n, t, seed):
    [[mono]] = rs.random_mono_counts(n, [t], [seed])
    assert mono == rs.triangle_census(rs.random_coloring(n, t, seed)).mono


@settings(deadline=None)
@given(
    n=st.integers(1, 25),
    seeds=st.lists(st.integers(0, 2**63 - 1), max_size=3),
    ts=st.lists(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0, 1)), max_size=6),
    repeats=st.integers(0, 3),
    tie=st.integers(0, 299),
)
@example(n=25, seeds=[1, 2, 3], ts=[0.3, 0.6], repeats=2, tie=17)
def test_random_mono_counts_are_random_colorings(n, seeds, ts, repeats, tie):
    for seed in seeds:
        draws = oracles.pair_draws(n, seed)
        if draws:
            ts.append(draws[tie % len(draws)])  # a tie: that pair is not yet blue
    ts = sorted(ts + [0.0, 1.0] + ts[:repeats])
    counts = rs.random_mono_counts(n, ts, iter(seeds))
    assert counts == [[rs.mono_triangles(n, oracles.blue_degrees(n, t, seed)) for seed in seeds]
                      for t in ts]
    for t, at_t in zip(ts, counts):
        assert at_t == [rs.triangle_census(rs.random_coloring(n, t, seed)).mono
                        for seed in seeds]


@settings(deadline=None, max_examples=40)
@given(
    n=st.integers(1, 9),
    seed=st.integers(0, 2**63 - 1),
    ts=st.lists(st.floats(0, 1), min_size=200, max_size=1001),
    repeats=st.integers(0, 50),
)
@example(n=9, seed=3, ts=[k / 1000 for k in range(1001)], repeats=0)
def test_random_mono_counts_on_long_grids(n, seed, ts, repeats):
    # each vertex's bucket row is len(ts) + 1 long; repeated densities share a bucket
    ts = sorted(ts + ts[:repeats])
    seeds = [seed, seed + 1]
    counts = rs.random_mono_counts(n, ts, seeds)
    assert counts == [[rs.mono_triangles(n, oracles.blue_degrees(n, t, s)) for s in seeds]
                      for t in ts]


def test_random_mono_counts_forked_and_inline_agree(monkeypatch, forks):
    ts = [k / 20 for k in range(21)]
    seeds = [random.Random(5).getrandbits(63) for _ in range(301)]  # halves of 150 and 151
    forked = rs.random_mono_counts(20, ts, seeds)
    assert forks == [1]
    monkeypatch.setattr(cores, "_forks", lambda work: False)
    assert rs.random_mono_counts(20, ts, seeds) == forked
    assert census._mono_counts(20, ts, seeds) == forked  # one pass
    assert forks == [1]


def test_random_mono_counts_splits_sized_seeds_in_halves(monkeypatch, inline):
    halves = []
    real = census._mono_counts

    def spy(n, ts, seeds):
        seeds = list(seeds)
        halves.append(seeds)
        return real(n, ts, seeds)

    monkeypatch.setattr(census, "_mono_counts", spy)
    for seeds, want in (([4, 5, 6, 7, 8], [[4, 5], [6, 7, 8]]), ([4], [[], [4]]),
                        (range(3), [[0], [1, 2]]), (iter([4, 5, 6]), [[], [4, 5, 6]])):
        halves.clear()
        rs.random_mono_counts(6, [0.5], seeds)
        assert halves == want


@pytest.mark.parametrize("n", range(1, 12))
def test_mono_distribution_moments(n):
    dist = rs.mono_distribution(n)
    total = 2 ** comb(n, 2)
    assert list(dist) == sorted(dist)
    assert sum(dist.values()) == total
    assert min(dist) == rs.goodman_min(n)
    # only the all-red and all-blue colorings make every triangle monochromatic
    assert max(dist) == comb(n, 3)
    assert dist[comb(n, 3)] == (1 if n == 1 else 2)
    mean = rs.expected_mono(n, 3, Fraction(1, 2)).mono if n >= 3 else 0
    assert Fraction(sum(m * c for m, c in dist.items()), total) == mean
    # at t = 1/2 two triangles sharing an edge are uncorrelated:
    # 2^-5 + 2^-5 - (1/4)^2 = 0, so only each triangle's own 3/16 remains
    variance = Fraction(sum(c * (m - mean) ** 2 for m, c in dist.items()), total)
    assert variance == Fraction(3 * comb(n, 3), 16)


def test_mono_distribution_validation():
    with pytest.raises(rs.InputError):
        rs.mono_distribution(0)


def test_per_vertex_triangles():
    all_blue = rs.TwoColoring(4, tuple(0b1111 & ~(1 << i) for i in range(4)))
    assert rs.per_vertex_triangles(all_blue, Color.BLUE) == [3, 3, 3, 3]
    c = rs.random_coloring(8, 0.5, seed=3)
    for color in (Color.RED, Color.BLUE):
        mine = rs.per_vertex_triangles(c, color)
        assert mine == oracles.per_vertex_triangles(c, color)
        assert sum(mine) == 3 * oracles.clique_count(c, color, 3)


def test_transitivity_star(star_coloring):
    r = rs.triangle_census(star_coloring)
    assert r.mono == 10
    assert r.mono_paths2 == comb(6, 3) + 2 * 10
    assert r.completion_ratio == Fraction(30, 40)
    paths, completed = oracles.transitivity(star_coloring)
    assert (paths, completed) == (r.mono_paths2, 3 * r.mono)


def test_transitivity_no_mono():
    # blue 5-cycle: every triangle is mixed
    cycle = rs.from_blue_edges(5, [(i, (i + 1) % 5) for i in range(5)])
    r = rs.triangle_census(cycle)
    assert r.mono == 0
    assert r.mono_paths2 == comb(5, 3)
    assert r.completion_ratio == 0


def test_transitivity_validation():
    tiny = rs.triangle_census(rs.from_blue_edges(2, [(0, 1)]))
    k4 = rs.clique_census(rs.random_coloring(6, 0.5, seed=1), 4)
    for c, message in ((tiny, "n >= 3, got 2"), (k4, "triangle census, got m=4")):
        for prop in ("mono_paths2", "completion_ratio"):
            with pytest.raises(rs.InputError, match=message):
                getattr(c, prop)


def test_bias_shares():
    c = rs.CliqueCensus(n=6, m=3, total=20, red_count=4, blue_count=1)
    assert c.red_share == Fraction(4, 5)
    assert c.blue_share == Fraction(1, 5)
    assert c.bias_ratio == Fraction(4, 1)

    all_red = rs.CliqueCensus(n=6, m=3, total=20, red_count=4, blue_count=0)
    assert all_red.bias_ratio == math.inf

    none = rs.CliqueCensus(n=6, m=3, total=20, red_count=0, blue_count=0)
    for prop in ("red_share", "blue_share", "bias_ratio"):
        with pytest.raises(rs.InputError, match="no monochromatic triangles; shares are undefined"):
            getattr(none, prop)


def test_max_clique_small():
    cycle = rs.from_blue_edges(5, [(i, (i + 1) % 5) for i in range(5)])
    blue = rs.max_clique(cycle, Color.BLUE)
    assert blue.size == 2
    assert blue.witness == (0, 1)
    assert not blue.is_lower_bound
    red = rs.max_clique(cycle, Color.RED)  # complement of C5 is C5
    assert red.size == 2
    assert red.witness == (0, 2)


def test_max_clique_witness_is_lex_smallest():
    for seed in range(12):
        c = rs.random_coloring(8, 0.55, seed=seed)
        for color in (Color.RED, Color.BLUE):
            got = rs.max_clique(c, color)
            size, witness = oracles.max_clique(c, color)
            assert got.size == size
            assert got.witness == witness
            assert oracles.is_clique(c, got.witness, color)


def test_max_clique_budget_abort():
    c = rs.random_coloring(30, 0.5, seed=9)
    out = rs.max_clique(c, Color.BLUE, node_budget=2)
    assert out.is_lower_bound and not out.witness_is_smallest
    assert out.nodes_explored >= 2
    exact = rs.max_clique(c, Color.BLUE)
    assert not exact.is_lower_bound
    assert exact.size >= out.size


@settings(deadline=None)
@given(
    n=st.integers(0, 40),
    p=st.sampled_from(BLUE_DENSITIES),
    seed=st.integers(0, 2**32),
)
def test_color_order_is_first_fit(n, p, seed):
    rnd = random.Random(seed)
    rows = [0] * n
    for i, j in combinations(range(n), 2):
        if rnd.random() < p:
            rows[i] |= 1 << j
            rows[j] |= 1 << i
    rows = tuple(rows)
    cand = rnd.getrandbits(n) if n else 0
    for mask in (cand, (1 << n) - 1):
        got = census._CliqueSearch(rows, 1)._color_order(mask)
        assert got == oracles.first_fit_order(rows, mask)


def test_max_clique_search_tree_is_pinned():
    # Values of the first-fit class scan (oracles.first_fit_order):
    # the same order must give the same prunes, so the same node count.
    c = rs.random_coloring(60, 0.25, seed=2)
    r = rs.max_clique(c, Color.RED)
    assert (r.size, r.witness, r.nodes_explored) == (
        14, (6, 7, 11, 14, 18, 28, 29, 31, 32, 40, 42, 44, 49, 52), 1001
    )
    assert not r.is_lower_bound and r.witness_is_smallest


def test_max_clique_says_when_the_witness_phase_runs_out():
    # the size phase's first maximum clique here is not the smallest
    c = rs.random_coloring(9, 0.3, seed=0)
    size_phase = census._CliqueSearch(c.rows(Color.RED), 10**8)
    size_phase.expand((1 << c.n) - 1)
    # a budget the size phase uses up: the first witness query runs out
    cut = rs.max_clique(c, Color.RED, node_budget=size_phase.nodes)
    assert (cut.size, cut.witness) == (size_phase.best_size, size_phase.best)
    assert not cut.is_lower_bound and not cut.witness_is_smallest
    assert cut.nodes_explored == size_phase.nodes + 1
    full = rs.max_clique(c, Color.RED, node_budget=10**6)
    assert full.witness_is_smallest and not full.is_lower_bound
    assert (full.size, full.witness) == oracles.max_clique(c, Color.RED)
    assert full.witness != cut.witness


@settings(deadline=None)
@given(
    n=st.integers(1, 40),
    p=st.sampled_from(BLUE_DENSITIES + (0.25, 0.75)),
    seed=st.integers(0, 2**32),
    color=st.sampled_from(Color),
    budget=st.integers(1, 400),
)
@example(n=60, p=0.25, seed=2, color=Color.RED, budget=500)  # 962 nodes with a budget per phase
def test_max_clique_budget_caps_the_whole_search(n, p, seed, color, budget):
    c = rs.random_coloring(n, p, seed=seed)
    full = rs.max_clique(c, color)
    got = rs.max_clique(c, color, node_budget=budget)
    assert got.nodes_explored <= budget + 1
    assert full.witness_is_smallest
    assert got.witness_is_smallest == (budget >= full.nodes_explored)
    if budget >= full.nodes_explored:
        assert got == full
    elif got.is_lower_bound:  # the size search ran out: its best clique is the witness
        assert got.size <= full.size
        assert len(got.witness) == got.size
        assert oracles.is_clique(c, got.witness, color)
    else:  # only the witness search ran out: the size is exact
        assert got.size == len(got.witness) == full.size
        assert oracles.is_clique(c, got.witness, color)
    for bad in (0, -5):
        with pytest.raises(rs.InputError, match="clique budget must be >= 1"):
            rs.max_clique(c, color, node_budget=bad)


def test_max_clique_deeper_than_recursion_limit_is_input_error():
    n = sys.getrecursionlimit() + 10
    with pytest.raises(rs.InputError, match="recursion limit"):
        rs.max_clique(rs.from_blue_edges(n, []), Color.RED)


def test_neighborhood_density():
    # blue triangle {0,1,2} plus pendant blue edge 0-3
    c = rs.from_blue_edges(4, [(0, 1), (0, 2), (1, 2), (0, 3)])
    assert rs.neighborhood_density(c, 0, Color.BLUE) == Fraction(1, 3)
    assert rs.neighborhood_density(c, 1, Color.BLUE) == Fraction(1, 1)
    with pytest.raises(rs.UndefinedDensityError):
        rs.neighborhood_density(c, 3, Color.BLUE)  # single blue neighbor
    with pytest.raises(rs.InputError):
        rs.neighborhood_density(c, 4, Color.BLUE)


def test_goodman_floor_is_respected_exhaustively():
    # every coloring of K6 carries at least F(6)=2 monochromatic triangles
    lowest = min(rs.triangle_census(c).mono for c in oracles.enumerate_colorings(6))
    assert lowest == rs.goodman_min(6) == 2
