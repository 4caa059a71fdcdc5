"""Naive reference implementations used to cross-check the fast kernels.

Everything here favors obviousness over speed: explicit subset
enumeration, literal dense matrix products, full power-set clique
search, every coloring of K_n built and validated. Only usable for
small n.
"""

import random
from itertools import combinations

from ramseystats import Color, DistanceMatrix, InputError, TwoColoring, from_blue_edges, ingest


def adjacency(coloring, color):
    n = coloring.n
    return [
        [1 if coloring.has_edge(i, j, color) else 0 for j in range(n)]
        for i in range(n)
    ]


def is_clique(coloring, verts, color):
    return all(coloring.has_edge(i, j, color) for i, j in combinations(verts, 2))


def clique_count(coloring, color, m):
    return sum(
        1
        for verts in combinations(range(coloring.n), m)
        if is_clique(coloring, verts, color)
    )


def pair_draws(n, seed):
    """One Mersenne Twister draw per pair of K_n, in combinations order."""
    r = random.Random(seed)
    return [r.random() for _ in combinations(range(n), 2)]


def blue_degrees(n, t, seed):
    """Per vertex, the pairs at it whose draw is below t."""
    degrees = [0] * n
    for (i, j), x in zip(combinations(range(n), 2), pair_draws(n, seed)):
        if x < t:
            degrees[i] += 1
            degrees[j] += 1
    return degrees


def threshold_coloring(d, t):
    """The sweep's coloring at threshold t: red at distance <= t, blue above."""
    if t < 0:
        raise InputError(f"threshold must be >= 0, got {t}")
    blue = [(i, j) for i, j in combinations(range(d.n), 2) if d.d[i][j] > t]
    return from_blue_edges(d.n, blue, labels=d.labels)


def per_vertex_triangles(coloring, color):
    counts = [0] * coloring.n
    for verts in combinations(range(coloring.n), 3):
        if is_clique(coloring, verts, color):
            for v in verts:
                counts[v] += 1
    return counts


def mat_mul(a, b):
    n = len(a)
    return [
        [sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)]
        for i in range(n)
    ]


def walk_count(coloring, color, k, i, j):
    """(i, j) entry of the k-th adjacency power, by literal multiplication."""
    a = adjacency(coloring, color)
    power = a
    for _ in range(k - 1):
        power = mat_mul(power, a)
    return power[i][j]


def max_clique(coloring, color):
    """(size, lexicographically smallest witness) by power-set scan."""
    for size in range(coloring.n, 0, -1):
        found = [
            verts
            for verts in combinations(range(coloring.n), size)
            if is_clique(coloring, verts, color)
        ]
        if found:
            return size, min(found)
    return 0, ()


def transitivity(coloring):
    """(mono 2-paths, completed) by walking every center vertex."""
    n = coloring.n
    paths = completed = 0
    for j in range(n):
        for i in range(n):
            for k in range(i + 1, n):
                if i == j or k == j:
                    continue
                for color in (Color.RED, Color.BLUE):
                    if coloring.has_edge(i, j, color) and coloring.has_edge(j, k, color):
                        paths += 1
                        if coloring.has_edge(i, k, color):
                            completed += 1
    return paths, completed


def enumerate_colorings(n):
    """Every two-coloring of K_n, all 2^C(n,2) of them, as TwoColorings.

    Pairs (i, j), i < j, map to mask bits in lexicographic order.
    Guarded to C(n,2) <= 21 (n <= 7).
    """
    if n < 1:
        raise InputError(f"vertex count must be >= 1, got {n}")
    pairs = list(combinations(range(n), 2))
    if len(pairs) > 21:
        raise InputError(f"refusing to enumerate 2^{len(pairs)} colorings")
    for mask in range(1 << len(pairs)):
        rows = [0] * n
        for bit, (i, j) in enumerate(pairs):
            if mask >> bit & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
        yield TwoColoring(n, tuple(rows))


def goodman_min(n):
    """Goodman's three-case floor: m(m-1)(m-2)/3 for n = 2m,
    2m(m-1)(4m+1)/3 for n = 4m+1, 2m(m+1)(4m-1)/3 for n = 4m+3."""
    if n % 2 == 0:
        m = n // 2
        return m * (m - 1) * (m - 2) // 3
    if n % 4 == 1:
        m = (n - 1) // 4
        return 2 * m * (m - 1) * (4 * m + 1) // 3
    m = (n - 3) // 4
    return 2 * m * (m + 1) * (4 * m - 1) // 3


def hamming(a, b):
    assert len(a) == len(b)
    return sum(1 for x, y in zip(a, b) if x != y)


def hamming_matrix(records):
    """Every pair's count of differing vote positions, labelled by id."""
    return DistanceMatrix([[hamming(a.votes, b.votes) for b in records] for a in records],
                          labels=[r.id for r in records])


def distance_classes(d):
    """classes[a][dist]: the mask of the b > a at that distance from a,
    read off a DistanceMatrix pair by pair."""
    classes = [{} for _ in range(d.n)]
    for a, b in combinations(range(d.n), 2):
        classes[a][d.d[a][b]] = classes[a].get(d.d[a][b], 0) | 1 << b
    return classes


def distance_levels(d):
    """The sweep's levels of a DistanceMatrix, by literal bit positions:
    the pair a < b sets bit 8 * ceil(n / 8) * a + b of its distance's mask."""
    stride = 8 * -(-d.n // 8)
    levels = {}
    for a, b in combinations(range(d.n), 2):
        levels[d.d[a][b]] = levels.get(d.d[a][b], 0) | 1 << stride * a + b
    return levels


def sweep(d, t_range):
    """The SweepTable of a DistanceMatrix: its levels swept as vote_sweeps sweeps them."""
    return ingest._two_ended(d.n, distance_levels(d), [(1 << d.n) - 1], t_range)[0]


def halving_cut(classes, groups, t_range):
    """The two-ended sweep's cut and the estimate of its smaller half, with
    the kernel's cost model charged entry by entry of distance_classes: 300
    ns a pair, 150 more inside the asked party of its first vertex, and 300
    per member of each distinct group on a level's census."""
    t_min, t_max = t_range
    everyone = (1 << len(classes)) - 1
    masks = list(dict.fromkeys(groups))
    parties = [mask for mask in masks if mask != everyone]
    work = {}  # by distance
    for a, by_distance in enumerate(classes):
        own = next((mask for mask in parties if mask >> a & 1), 0)
        for dist, mask in by_distance.items():
            ns = 300 * mask.bit_count() + 150 * (mask & own).bit_count()
            work[dist] = work.get(dist, 0) + ns
    census_ns = 300 * sum(mask.bit_count() for mask in masks)  # per level

    def halves(cut):
        lower = upper = 0
        if cut >= t_min:
            lower = census_ns * (cut - t_min + 1) + sum(w for d, w in work.items() if d <= cut)
        if cut < t_max:
            upper = census_ns * (t_max - cut) + sum(w for d, w in work.items() if d > cut + 1)
        return max(lower, upper), min(lower, upper)

    (_, smaller), cut = min((halves(cut), cut) for cut in range(t_min - 1, t_max + 1))
    return cut, smaller


def subgroup_indices(records, token):
    """Indices of a vote_sweeps subgroup: every record for G, else the
    records of that party."""
    return [i for i, r in enumerate(records) if token in ("G", r.party)]


def submatrix(d, indices):
    """The distances among the given vertices, in the order given."""
    return DistanceMatrix([[d.d[i][j] for j in indices] for i in indices])


def top_k_blue_pairs(flows, k):
    """Expected blue label pairs, built from per-country sorted lists."""
    totals = {}
    for f in flows:
        totals[(f.exporter, f.importer)] = (
            totals.get((f.exporter, f.importer), 0.0) + f.volume
        )
    countries = sorted({c for pair in totals for c in pair})
    pairs = set()
    for c in countries:
        sells = [(v, imp) for (exp, imp), v in totals.items() if exp == c]
        buys = [(v, exp) for (exp, imp), v in totals.items() if imp == c]
        for partner_list in (sells, buys):
            partner_list.sort(key=lambda p: (-p[0], p[1]))
            for _, other in partner_list[:k]:
                pairs.add(tuple(sorted((c, other))))
    return countries, pairs


def first_fit_order(rows, cand):
    """(slot, vertex) pairs of first-fit coloring of the vertex mask cand.

    Vertices are taken in ascending order, each into the first class
    holding none of its neighbors; the pairs are sorted by slot. This is
    the per-vertex class scan the clique search's peel must reproduce.
    """
    classes = []
    order = []
    c = cand
    while c:
        b = c & -c
        c ^= b
        v = b.bit_length() - 1
        nv = rows[v]
        for i, mask in enumerate(classes):
            if not mask & nv:
                classes[i] |= b
                order.append((i, v))
                break
        else:
            classes.append(b)
            order.append((len(classes) - 1, v))
    order.sort()
    return order
