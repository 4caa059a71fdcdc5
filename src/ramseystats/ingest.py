"""Turn raw datasets into two-colored complete graphs.

Two routes in:
  * categorical vote records -> pairs bucketed by Hamming distance ->
    threshold colorings (red at or below the threshold, blue above),
    swept over a threshold range. The buckets are bit-sliced
    (distance_classes), so no distance matrix is built, and one pass
    over the pairs in distance order sweeps every requested subgroup
    (vote_sweeps): a pair turning red costs one popcount, two if it lies
    in G and an asked party, none outside every asked subgroup, and the
    blue triangles follow from Goodman's degree identity, so no coloring
    is built per threshold. sweep runs the same pass on a caller's own
    distance matrix;
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
    above. vote_sweeps sweeps several subgroups of vote records at once.
    """
    classes = []
    for a, row in enumerate(d.d):
        by_distance: dict[int, int] = {}
        for b in range(a + 1, d.n):
            by_distance[row[b]] = by_distance.get(row[b], 0) | 1 << b
        classes.append(by_distance)
    return _sweep(classes, [(1 << d.n) - 1], t_range)[0]


def vote_sweeps(records: Sequence[VoterRecord], t_range: tuple[int, int | None],
                subgroups: Sequence[str]) -> list[SweepTable]:
    """One sweep per subgroup token, in the order given: G stands for
    every record, any other token for the records of that party.

    Each table equals sweep(d, t_range) for the Hamming distance matrix
    d of the subgroup's records, but no distance matrix is built:
    distance_classes gives the pairs by distance, and one pass over them
    sweeps every subgroup. A t_max of None means the largest distance + 1,
    over all pairs of records.
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
    return _sweep(distance_classes(records), groups, t_range)


def _sweep(classes: Sequence[dict[int, int]], groups: Sequence[int],
           t_range: tuple[int, int | None]) -> list[SweepTable]:
    """The sweep of each group (a vertex mask) over the pairs in classes,
    which holds, for each vertex a, its partners b > a by distance.

    Each group is every vertex or one party, parties are disjoint, and
    identical groups are swept once. One pass over the pairs in distance
    order grows red rows of only the partners sharing an asked group. A
    pair turning red closes a red triangle per common red neighbour: one
    popcount of the two rows, one more against the party if every
    vertex's group is asked too. Blue follows from the red degrees.
    """
    t_min, t_max = t_range
    if t_max is None:
        t_max = max((max(by_distance) for by_distance in classes if by_distance),
                    default=0) + 1
    if t_min > t_max:
        raise InputError(f"empty threshold range [{t_min}, {t_max}]")
    sizes = [group.bit_count() for group in groups]
    for size in sizes:
        if size < 3:
            raise InputError(f"a sweep needs at least 3 records, got {size}")
    if t_min < 0:
        raise InputError(f"threshold must be >= 0, got {t_min}")

    n = len(classes)
    everyone = (1 << n) - 1
    masks = list(dict.fromkeys(groups))
    whole = everyone in masks
    members = {mask: [v for v in range(n) if mask >> v & 1] for mask in masks}
    party = {v: mask for mask in masks if mask != everyone for v in members[mask]}
    # joins[t - t_min][a]: the b > a sharing an asked group with a whose pair turns red at t
    joins: list[dict[int, int]] = [{} for _ in range(t_max - t_min + 1)]
    for a, by_distance in enumerate(classes):
        keep = party.get(a, 0)
        for dist, mask in by_distance.items():
            if dist <= t_max:
                if not whole:  # with G asked, every partner shares it
                    mask &= keep
                    if not mask:
                        continue
                at_t = joins[dist - t_min if dist > t_min else 0]
                at_t[a] = at_t.get(a, 0) | mask

    red, bits = [0] * n, [1 << v for v in range(n)]
    red_counts = dict.fromkeys([0, *masks], 0)  # 0: vertices in no asked party
    rows: dict[int, list] = {mask: [] for mask in masks}
    for t, at_t in enumerate(joins, start=t_min):
        for a, new in at_t.items():
            red_a, bit_a, own = red[a], bits[a], party.get(a, 0)
            count = inside = 0
            if whole:  # a pair inside a's party counts for the party too
                same, new = new & own, new & ~own
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
                red_counts[own] += inside
            while new:
                b = new.bit_length() - 1
                bit = bits[b]
                new ^= bit
                row = red[b]
                count += (red_a & row).bit_count()
                red_a |= bit
                red[b] = row | bit_a
            red[a] = red_a
            red_counts[everyone if whole else own] += count
        for mask in masks:
            size, red_count = len(members[mask]), red_counts[mask]
            if mask == everyone:
                member_rows = red
            else:
                member_rows = map(red.__getitem__, members[mask])
                if whole:  # rows may hold outsiders
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
