"""Turn raw datasets into two-colored complete graphs.

Two routes in:
  * categorical vote records -> pairs bucketed by Hamming distance ->
    threshold colorings (red at or below the threshold, blue above),
    swept over a threshold range. The buckets are bit-sliced
    (distance_classes), so no distance matrix is built, and one pass
    over the pairs in distance order sweeps every requested subgroup
    (vote_sweeps): a pair turning red costs one popcount, two if it lies
    inside an asked party, and the blue triangles follow from Goodman's
    degree identity, so no coloring is built per threshold. vote_sweeps
    runs that pass from both ends: red grows from t_min up to a cut that
    halves the work, blue from t_max down to it, by the same kernel on
    reflected distances, and the second half runs in a forked child when
    a second CPU is free and the half takes 2.5 ms or more (cores.both).
    On 435 records the halves take about 20 and 18 ms, where the one pass
    took 40 (2 cores, CPython 3.11.7). sweep runs the one pass, from
    t_min up, on a caller's own distance matrix;
  * directed weighted trade flows -> blue edges to each country's top-k
    import and export partners, red elsewhere.

Parsing is strict: wrong field counts and unknown tokens fail with the
line the offending row starts on rather than being papered over.
"""

from __future__ import annotations

import csv
import math
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple, Sequence

from .census import CliqueCensus, mono_triangles
from .cores import both
from .errors import InputError, ParseError

if TYPE_CHECKING:  # annotations only: sweep builds no coloring and loads none
    from .coloring import TwoColoring

_HOUSE_VOTES_FIELDS = 17
_VOTE_TOKENS = {"y": "Y", "n": "N", "?": "A", "a": "A"}
_PARTIES = {"republican": "R", "democrat": "D"}


# A validating record subclasses a NamedTuple and checks the built tuple in __init__.
class VoterRecord(NamedTuple("VoterRecord", [("id", str), ("party", str), ("votes", str)])):
    """One categorical record: an id, a party token, and a vote string
    over the alphabet {Y, N, A} (yea, nay, anything else)."""

    __slots__ = ()

    def __init__(self, id, party, votes):
        bad = set(votes) - {"Y", "N", "A"}
        if bad:
            raise InputError(f"vote string may only contain Y/N/A, got {sorted(bad)}")


class TradeFlow(NamedTuple("TradeFlow", [("exporter", str), ("importer", str),
                                         ("volume", float)])):
    """One directed flow: exporter ships `volume` worth to importer."""

    __slots__ = ()

    def __init__(self, exporter, importer, volume):
        if not exporter or not importer:
            raise InputError("country labels must be non-empty")
        if exporter == importer:
            raise InputError(f"self-flow for {exporter!r}")
        if not math.isfinite(volume) or volume < 0:
            raise InputError(f"volume must be finite and >= 0, got {volume}")


class DistanceMatrix(NamedTuple("DistanceMatrix", [("n", int),
                                                   ("d", tuple[tuple[int, ...], ...]),
                                                   ("labels", tuple[str, ...] | None)])):
    """Symmetric nonnegative integer distances with a zero diagonal.
    Built from the rows d alone; n is their count."""

    __slots__ = ()

    def __new__(cls, d, labels=None):
        rows = tuple(tuple(row) for row in d)
        return super().__new__(cls, len(rows), rows, None if labels is None else tuple(labels))

    def __getnewargs__(self):  # copy and pickle call __new__ with these
        return self.d, self.labels

    def __init__(self, d, labels=None):
        rows = self.d
        for i, row in enumerate(rows):
            if len(row) != self.n:
                raise InputError(f"row {i} has {len(row)} entries, expected {self.n}")
            if row[i] != 0:
                raise InputError(f"diagonal entry ({i},{i}) must be 0")
            for j in range(i):
                if not isinstance(row[j], int) or row[j] < 0:
                    raise InputError(f"entry ({i},{j}) must be a nonnegative integer")
                if row[j] != rows[j][i]:
                    raise InputError(f"matrix not symmetric at ({i},{j})")
        if self.labels is not None and len(self.labels) != self.n:
            raise InputError(f"{len(self.labels)} labels for {self.n} rows")


def parse_votes(lines: Iterable[str]) -> list[VoterRecord]:
    """Parse vote records from CSV lines; the first row picks the layout.

    A first row with a `party` cell is a header: an optional `id`
    column, the `party` column, and one vote column per other column;
    ids come from `id`, or else number the rows after the header from 1.
    Otherwise every row is a house-votes record of 17 fields, a party
    name followed by 16 vote tokens, and ids number the rows from 1.
    Vote tokens y/n/? normalize to Y/N/A and parties to R/D (anything
    else is kept verbatim); blank rows are skipped. Lines must keep their
    terminators, as open(path, newline="") and io.StringIO(text, newline="")
    yield them, or a quoted field that spans lines loses its line break.
    """
    rows = list(_csv_rows(lines))
    cols = [cell.strip().lower() for cell in rows[0][1]] if rows else []
    if "party" in cols:
        fields, party_at, header_rows = len(cols), cols.index("party"), 1
        id_at = cols.index("id") if "id" in cols else None
        vote_at = [i for i in range(len(cols)) if i not in (party_at, id_at)]
        if not vote_at:
            raise ParseError("header declares no vote columns", line=1)
    else:
        fields, party_at, header_rows, id_at = _HOUSE_VOTES_FIELDS, 0, 0, None
        vote_at = range(1, _HOUSE_VOTES_FIELDS)
    records = []
    for ordinal, (lineno, row) in enumerate(rows[header_rows:], start=1):
        if not "".join(row).strip():  # a blank row
            continue
        if len(row) != fields:
            raise ParseError(f"expected {fields} fields, got {len(row)}", line=lineno)
        party_tok = row[party_at].strip()
        records.append(VoterRecord(
            id=row[id_at].strip() if id_at is not None else str(ordinal),
            party=_PARTIES.get(party_tok.lower(), party_tok),
            votes=_normalize_votes([row[i] for i in vote_at], lineno),
        ))
    return records


def _csv_rows(lines: Iterable[str]) -> Iterator[tuple[int, list[str]]]:
    """Each CSV row with the line it starts on (a quoted field may span lines)."""
    reader = csv.reader(lines)
    end = 0
    for row in reader:
        yield end + 1, row
        end = reader.line_num


def _normalize_votes(tokens: Sequence[str], lineno: int) -> str:
    out = []
    for tok in tokens:
        ch = _VOTE_TOKENS.get(tok.strip().lower())
        if ch is None:
            raise ParseError(f"unknown vote token {tok.strip()!r}", line=lineno)
        out.append(ch)
    return "".join(out)


def distance_classes(records: Sequence[VoterRecord]) -> list[dict[int, int]]:
    """classes[a][d]: the bitmask of the records b > a at Hamming
    distance exactly d from record a, for each d that occurs. The
    distance counts the positions where two votes differ; A is an
    ordinary third symbol, matching only another A.

    Bit-sliced, with no loop over pairs: each (bill, vote) gets the
    mask of the records voting otherwise on that bill, and for record a
    a carry-save counter adds up its L masks, one per bill, into binary
    bit-planes over all records (plane k holds bit k of every count).
    Splitting the records above a by the planes gives the classes. That
    is O(L log L) big-int operations per record, for L bills.
    """
    n = len(records)
    if n == 0:
        return []
    length = len(records[0].votes)
    for r in records:
        if len(r.votes) != length:
            raise InputError(f"record {r.id!r} has length {len(r.votes)}, expected {length}")
    everyone = (1 << n) - 1
    voted = [dict.fromkeys("YNA", 0) for _ in range(length)]
    for i, r in enumerate(records):
        bit = 1 << i
        for by_vote, ch in zip(voted, r.votes):
            by_vote[ch] |= bit
    differ = [{ch: everyone ^ mask for ch, mask in by_vote.items()} for by_vote in voted]
    classes = []
    for a, r in enumerate(records):
        planes: list[int] = []
        for by_vote, ch in zip(differ, r.votes):
            carry = by_vote[ch]
            for k, plane in enumerate(planes):
                planes[k] = plane ^ carry
                carry &= plane
                if not carry:
                    break
            else:
                if carry:
                    planes.append(carry)
        above = everyone >> (a + 1) << (a + 1)
        parts = [(0, above)] if above else []
        for k, plane in enumerate(planes):
            split = []
            for dist, mask in parts:
                far = mask & plane
                if far:
                    split.append((dist | 1 << k, far))
                if far != mask:
                    split.append((dist, mask ^ far))
            parts = split
        classes.append(dict(parts))
    return classes


class SweepTable(NamedTuple):
    """The (t, census) rows of a sweep over n records, ordered by t."""

    n: int
    rows: tuple[tuple[int, CliqueCensus], ...]


def sweep(d: DistanceMatrix, t_range: tuple[int, int | None]) -> SweepTable:
    """Census every threshold graph for t in the inclusive range. A
    t_max of None means the largest distance + 1.

    Rows come back ordered by t, and each census equals the triangle
    census of the threshold coloring at t: red at distance <= t, blue
    above. This is the one-pass sweep, from t_min up; vote_sweeps sweeps
    several subgroups of vote records at once, and from both ends.
    """
    classes = []
    for a, row in enumerate(d.d):
        by_distance: dict[int, int] = {}
        for b in range(a + 1, d.n):
            by_distance[row[b]] = by_distance.get(row[b], 0) | 1 << b
        classes.append(by_distance)
    groups = [(1 << d.n) - 1]
    return _sweep(classes, groups, _checked_range(classes, groups, t_range))[0]


def vote_sweeps(records: Sequence[VoterRecord], t_range: tuple[int, int | None],
                subgroups: Sequence[str]) -> list[SweepTable]:
    """One sweep per subgroup token, in the order given: G stands for
    every record, any other token for the records of that party.

    Each table equals sweep(d, t_range) for the Hamming distance matrix
    d of the subgroup's records, but no distance matrix is built:
    distance_classes gives the pairs by distance, and one pass over them,
    whatever subgroups are asked, sweeps every subgroup. A t_max of None
    means the largest distance + 1, over all pairs of records. The pass
    runs from both ends (_two_ended), on two cores when they are free.
    """
    groups = []
    for token in subgroups:
        mask = 0
        for i, r in enumerate(records):
            if token in ("G", r.party):
                mask |= 1 << i
        if not mask:
            raise InputError(f"subgroup {token!r} matches no records")
        groups.append(mask)
    classes = distance_classes(records)
    t_range = _checked_range(classes, groups, t_range)
    cut, work = _halving_cut(classes, groups, t_range)
    return _two_ended(classes, groups, t_range, cut, work)


def _checked_range(classes: Sequence[dict[int, int]], groups: Sequence[int],
                   t_range: tuple[int, int | None]) -> tuple[int, int]:
    """The threshold range of a sweep of groups over classes, with a t_max
    of None resolved to the largest distance + 1; fails on an empty or
    negative range or a group of fewer than 3 vertices."""
    t_min, t_max = t_range
    if t_max is None:
        t_max = max((max(by_distance) for by_distance in classes if by_distance),
                    default=0) + 1
    if t_min > t_max:
        raise InputError(f"empty threshold range [{t_min}, {t_max}]")
    for group in groups:
        if group.bit_count() < 3:
            raise InputError(f"a sweep needs at least 3 records, got {group.bit_count()}")
    if t_min < 0:
        raise InputError(f"threshold must be >= 0, got {t_min}")
    return t_min, t_max


def _halving_cut(classes: Sequence[dict[int, int]], groups: Sequence[int],
                 t_range: tuple[int, int]) -> tuple[int, int]:
    """The cut in [t_min - 1, t_max] that splits _two_ended's work most
    evenly, and the estimated time of its smaller half in nanoseconds.

    The levels up to the cut take the pairs at distance <= cut, those
    above it the pairs beyond cut + 1 (a pair at cut + 1 is red above the
    cut, blue below it, and changes color in neither half). As fitted on
    435 records (2 cores, CPython 3.11.7), the kernel spends 300 ns on a
    pair that changes color, 150 ns more on one inside an asked party,
    and 300 ns per member of each distinct group on a level's census.
    """
    t_min, t_max = t_range
    everyone = (1 << len(classes)) - 1
    masks = list(dict.fromkeys(groups))
    parties = [mask for mask in masks if mask != everyone]
    work: dict[int, int] = {}  # by distance
    for a, by_distance in enumerate(classes):
        own = next((mask for mask in parties if mask >> a & 1), 0)
        for dist, mask in by_distance.items():
            ns = 300 * mask.bit_count() + 150 * (mask & own).bit_count()
            work[dist] = work.get(dist, 0) + ns
    census_ns = 300 * sum(mask.bit_count() for mask in masks)  # per level

    def halves(cut: int) -> tuple[int, int]:
        lower = upper = 0
        if cut >= t_min:
            lower = census_ns * (cut - t_min + 1) + sum(w for d, w in work.items() if d <= cut)
        if cut < t_max:
            upper = census_ns * (t_max - cut) + sum(w for d, w in work.items() if d > cut + 1)
        return max(lower, upper), min(lower, upper)

    (_, smaller), cut = min((halves(cut), cut) for cut in range(t_min - 1, t_max + 1))
    return cut, smaller


def _two_ended(classes: Sequence[dict[int, int]], groups: Sequence[int],
               t_range: tuple[int, int], cut: int, work: int) -> list[SweepTable]:
    """_sweep(classes, groups, t_range), run from both ends of the range.

    The levels t_min..cut are swept from t_min up. The levels above the
    cut are swept by the same kernel from t_max down, on the reflected
    classes: distance d becomes level t_max + 1 - d, so the color that
    grows there is blue, level s of the reflected sweep is t = t_max - s,
    and its red and blue counts are t's blue and red. The upper half runs
    in a forked child when cores.both finds a second core and work, the
    smaller half's time in nanoseconds, pays for the fork.
    """
    t_min, t_max = t_range
    sizes = [group.bit_count() for group in groups]

    def lower() -> list[tuple]:
        if cut < t_min:
            return [()] * len(groups)
        return [table.rows for table in _sweep(classes, groups, (t_min, cut))]

    def upper() -> list[list[tuple[int, ...]]]:  # plain tuples, for marshal
        if cut >= t_max:
            return [[] for _ in groups]
        reflected = [{t_max + 1 - dist: mask for dist, mask in by_distance.items()}
                     for by_distance in classes]
        return [[tuple(census) for _, census in table.rows]
                for table in _sweep(reflected, groups, (0, t_max - cut - 1))]

    lows, highs = both(lower, upper, work)
    return [SweepTable(size, (*low, *((t, CliqueCensus(n, m, total, blue, red))
                                      for t, (n, m, total, red, blue)
                                      in zip(range(cut + 1, t_max + 1), reversed(high)))))
            for size, low, high in zip(sizes, lows, highs)]


def _sweep(classes: Sequence[dict[int, int]], groups: Sequence[int],
           t_range: tuple[int, int]) -> list[SweepTable]:
    """The sweep of each group (a vertex mask) over the pairs in classes,
    which holds, for each vertex a, its partners b > a by distance, over
    a range _checked_range has checked.

    Each group is every vertex or one party, parties are disjoint, and
    identical groups are swept once. One pass over the pairs in distance
    order grows every vertex's red row, whatever groups are asked. A pair
    turning red closes a red triangle per common red neighbour: one
    popcount of the two rows, one more against the party if the pair lies
    inside an asked party. Blue follows from the red degrees.
    """
    t_min, t_max = t_range
    sizes = [group.bit_count() for group in groups]

    n = len(classes)
    everyone = (1 << n) - 1
    masks = list(dict.fromkeys(groups))
    members = {mask: [v for v in range(n) if mask >> v & 1] for mask in masks}
    party = {v: mask for mask in masks if mask != everyone for v in members[mask]}
    # joins[t - t_min][a]: the b > a whose pair turns red at t
    joins: list[dict[int, int]] = [{} for _ in range(t_max - t_min + 1)]
    for a, by_distance in enumerate(classes):
        for dist, mask in by_distance.items():
            if dist <= t_max:
                at_t = joins[dist - t_min if dist > t_min else 0]
                at_t[a] = at_t.get(a, 0) | mask

    red, bits = [0] * n, [1 << v for v in range(n)]
    red_counts = dict.fromkeys([0, everyone, *masks], 0)  # 0: vertices in no asked party
    rows: dict[int, list] = {mask: [] for mask in masks}
    for t, at_t in enumerate(joins, start=t_min):
        for a, new in at_t.items():
            red_a, bit_a, own = red[a], bits[a], party.get(a, 0)
            count = inside = 0
            same, new = new & own, new & ~own  # a pair inside a's party counts for it too
            while same:
                b = same.bit_length() - 1
                bit = bits[b]
                same ^= bit
                row = red[b]
                common = red_a & row
                count += common.bit_count()
                inside += (common & own).bit_count()
                red_a |= bit
                red[b] = row | bit_a
            while new:
                b = new.bit_length() - 1
                bit = bits[b]
                new ^= bit
                row = red[b]
                count += (red_a & row).bit_count()
                red_a |= bit
                red[b] = row | bit_a
            red[a] = red_a
            red_counts[own] += inside
            red_counts[everyone] += count
        for mask in masks:
            size, red_count = len(members[mask]), red_counts[mask]
            if mask == everyone:
                member_rows = red
            else:  # rows hold outsiders too
                member_rows = map(red.__getitem__, members[mask])
                member_rows = map(mask.__and__, member_rows)
            mono = mono_triangles(size, list(map(int.bit_count, member_rows)))
            census = CliqueCensus(size, 3, math.comb(size, 3), red_count, mono - red_count)
            rows[mask].append((t, census))
    return [SweepTable(n=size, rows=tuple(rows[group])) for size, group in zip(sizes, groups)]


def parse_trade_flows(lines: Iterable[str]) -> list[TradeFlow]:
    """Read directed flows from CSV with header exporter,importer,volume.

    Lines must keep their terminators, as parse_votes says."""
    rows = _csv_rows(lines)
    _, header = next(rows, (1, None))
    if header is None:
        return []
    if [h.strip().lower() for h in header] != ["exporter", "importer", "volume"]:
        raise ParseError("expected header 'exporter,importer,volume'", line=1)
    flows = []
    for lineno, row in rows:
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) != 3:
            raise ParseError(f"expected 3 fields, got {len(row)}", line=lineno)
        try:
            volume = float(row[2])
        except ValueError:
            raise ParseError(f"bad volume {row[2].strip()!r}", line=lineno) from None
        try:
            flows.append(TradeFlow(row[0].strip(), row[1].strip(), volume))
        except InputError as exc:
            raise ParseError(str(exc), line=lineno) from None
    return flows


def build_trade_graph(flows: Sequence[TradeFlow], k: int) -> TwoColoring:
    """Blue edges to each country's top-k partners, red everywhere else.

    Duplicate (exporter, importer) rows are summed before ranking.
    Import and export rankings are separate, ties break alphabetically,
    and a country with fewer than k partners keeps them all. The blue
    set is the union over countries, so a popular country's blue degree
    can far exceed 2k. Vertices are the alphabetically sorted labels.
    """
    from .coloring import from_blue_edges

    if k < 1:
        raise InputError(f"partner count must be >= 1, got {k}")
    if not flows:
        raise InputError("no flows supplied")
    volume: dict[tuple[str, str], float] = {}
    for f in flows:
        pair = (f.exporter, f.importer)
        volume[pair] = volume.get(pair, 0.0) + f.volume
    # ranked[(c, 0 | 1)]: c's export (0) or import (1) partners as (-volume, label),
    # so a plain sort ranks by volume descending, ties alphabetically
    ranked: dict[tuple[str, int], list[tuple[float, str]]] = {}
    for (exp, imp), v in volume.items():
        ranked.setdefault((exp, 0), []).append((-v, imp))
        ranked.setdefault((imp, 1), []).append((-v, exp))
    countries = sorted({c for c, _ in ranked})
    index = {c: i for i, c in enumerate(countries)}
    top_k = ((index[c], index[partner]) for (c, _), partners in ranked.items()
             for _, partner in sorted(partners)[:k])
    return from_blue_edges(len(countries), top_k, labels=countries)
