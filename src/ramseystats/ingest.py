"""Turn vote records into two-colored complete graphs.

Categorical vote records -> pairs bucketed by Hamming distance ->
threshold colorings (red at or below the threshold, blue above), swept
over a threshold range. The buckets are bit-sliced over the whole
record-by-record matrix (distance_levels), so no distance matrix is
built, and one pass over the pairs in distance order sweeps every
requested subgroup (vote_sweeps): a pair turning red costs one popcount,
two if it lies inside an asked party, and the blue triangles follow from
Goodman's degree identity, so no coloring is built per threshold.
The pass runs from both ends (_two_ended): red grows from t_min up to a
cut that halves the work, blue from t_max down to it, by the same kernel
on reflected distances, and the second half runs in a forked child when
a second CPU is free and the half takes 2.5 ms or more (cores.both).
Each half reads a threshold's pairs only when it reaches that threshold.
On 435 records the levels and the cut take about 2.3 ms and the halves
about 19 and 18 ms, where _sweep over the whole range, the one-pass
reference the tests compare against, takes 41 (medians of 40 calls in
one process, shared 2-core host, CPython 3.11.7). Trade flows are read
by trade.ingest.

Parsing is strict: wrong field counts and unknown tokens fail with the
line the offending row starts on rather than being papered over.
"""

from __future__ import annotations

import math
import struct
from itertools import accumulate
from typing import Iterable, NamedTuple, Sequence

from .census import CliqueCensus, mono_triangles
from .cores import both
from .errors import InputError, ParseError, _csv_rows

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


class DistanceMatrix(NamedTuple("DistanceMatrix", [("n", int),
                                                   ("d", tuple[tuple[int, ...], ...]),
                                                   ("labels", tuple[str, ...] | None)])):
    """Symmetric nonnegative integer distances with a zero diagonal.
    Built from the rows d alone; n is their count. No sweep takes one;
    it stays because the test oracles build it and the benchmark tracer
    wraps its own __init__, until ROADMAP item 6."""

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


def _normalize_votes(tokens: Sequence[str], lineno: int) -> str:
    out = []
    for tok in tokens:
        ch = _VOTE_TOKENS.get(tok.strip().lower())
        if ch is None:
            raise ParseError(f"unknown vote token {tok.strip()!r}", line=lineno)
        out.append(ch)
    return "".join(out)


# _OTHERWISE[ch] turns a bill's votes, one symbol per record, into the
# binary numeral of the records voting other than ch
_OTHERWISE = {ch: str.maketrans({other: "0" if other == ch else "1" for other in "YNA"})
              for ch in "YNA"}


def _matrix(rows: Sequence[int]) -> int:
    """The n x n matrix mask, n = len(rows), whose row a is rows[a]: each
    row takes width = ceil(n / 8) bytes, little-endian, so the pair (a, b)
    is bit 8 * width * a + b."""
    width = (len(rows) + 7) // 8
    return int.from_bytes(b"".join(row.to_bytes(width, "little") for row in rows), "little")


def distance_levels(records: Sequence[VoterRecord]) -> dict[int, int]:
    """levels[d]: the pairs a < b of records at Hamming distance exactly
    d, for each d that occurs, as one matrix mask (_matrix). The distance
    counts the positions where two votes differ; A is an ordinary third
    symbol, matching only another A.

    Bit-sliced over the whole matrix, with no loop over pairs: a bill's
    matrix holds in row a the records voting otherwise than a on it, a
    carry-save counter adds the L bill matrices up into binary bit-planes
    (plane k holds bit k of every pair's distance), and splitting the
    upper triangle by the planes gives the levels. That is O(L log L)
    operations on ints of n * ceil(n / 8) bytes, for L bills.
    """
    n = len(records)
    if n == 0:
        return {}
    length = len(records[0].votes)
    for r in records:
        if len(r.votes) != length:
            raise InputError(f"record {r.id!r} has length {len(r.votes)}, expected {length}")
    width = (n + 7) // 8  # bytes per row, as in _matrix
    planes: list[int] = []
    for bill in zip(*(r.votes for r in records)):
        numeral = "".join(reversed(bill))  # record i is digit i from the right
        otherwise = {ch: int(numeral.translate(table), 2).to_bytes(width, "little")
                     for ch, table in _OTHERWISE.items()}
        carry = int.from_bytes(b"".join(map(otherwise.__getitem__, bill)), "little")
        for k, plane in enumerate(planes):
            planes[k] = plane ^ carry
            carry &= plane
            if not carry:
                break
        else:
            if carry:
                planes.append(carry)
    everyone = (1 << n) - 1
    upper = _matrix([everyone >> a + 1 << a + 1 for a in range(n)])
    levels = {0: upper} if upper else {}
    for k, plane in enumerate(planes):
        split = {}
        for dist, mask in levels.items():
            far = mask & plane
            if far:
                split[dist | 1 << k] = far
            if far != mask:
                split[dist] = mask ^ far
        levels = split
    return levels


class SweepTable(NamedTuple):
    """The (t, census) rows of a sweep over n records, ordered by t."""

    n: int
    rows: tuple[tuple[int, CliqueCensus], ...]


def vote_sweeps(records: Sequence[VoterRecord], t_range: tuple[int, int | None],
                subgroups: Sequence[str]) -> list[SweepTable]:
    """One sweep per subgroup token, in the order given: G stands for
    every record, any other token for the records of that party.

    Each census at t equals the triangle census of the subgroup's
    threshold coloring at t: red at Hamming distance <= t, blue above.
    No distance matrix or coloring is built: distance_levels gives the
    pairs by distance, and one pass over them, whatever subgroups are
    asked, sweeps every subgroup. A t_max of None means the largest
    distance + 1, over all pairs of records. The pass runs from both
    ends (_two_ended), on two cores when they are free.
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
    return _two_ended(len(records), distance_levels(records), groups, t_range)


def _checked_range(levels: dict[int, int], groups: Sequence[int],
                   t_range: tuple[int, int | None]) -> tuple[int, int]:
    """The threshold range of a sweep of groups over levels, with a t_max
    of None resolved to the largest distance + 1; fails on an empty or
    negative range or a group of fewer than 3 vertices."""
    t_min, t_max = t_range
    if t_max is None:
        t_max = max(levels, default=0) + 1
    if t_min > t_max:
        raise InputError(f"empty threshold range [{t_min}, {t_max}]")
    for group in groups:
        if group.bit_count() < 3:
            raise InputError(f"a sweep needs at least 3 records, got {group.bit_count()}")
    if t_min < 0:
        raise InputError(f"threshold must be >= 0, got {t_min}")
    return t_min, t_max


def _halving_cut(n: int, levels: dict[int, int], groups: Sequence[int],
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
    everyone = (1 << n) - 1
    masks = list(dict.fromkeys(groups))
    parties = [mask for mask in masks if mask != everyone]
    # row a: a's asked party, if any, so a level & same_party holds its pairs inside one
    same_party = _matrix([next((mask for mask in parties if mask >> a & 1), 0) for a in range(n)])
    work = {dist: 300 * mask.bit_count() + 150 * (mask & same_party).bit_count()
            for dist, mask in levels.items()}  # by distance
    census_ns = 300 * sum(mask.bit_count() for mask in masks)  # per level
    total = sum(work.values())

    def halves(cut: int, below: int) -> tuple[int, int]:  # below: the work at distances <= cut
        lower = upper = 0
        if cut >= t_min:
            lower = census_ns * (cut - t_min + 1) + below
        if cut < t_max:
            upper = census_ns * (t_max - cut) + total - below - work.get(cut + 1, 0)
        return max(lower, upper), min(lower, upper)

    cuts = range(t_min - 1, t_max + 1)
    below = accumulate((work.get(cut, 0) for cut in cuts[1:]),
                       initial=sum(w for d, w in work.items() if d < t_min))
    (_, smaller), cut = min((halves(cut, b), cut) for cut, b in zip(cuts, below))
    return cut, smaller


def _two_ended(n: int, levels: dict[int, int], groups: Sequence[int],
               t_range: tuple[int, int | None]) -> list[SweepTable]:
    """The SweepTable of each group (a vertex mask) over levels for
    t_range, checked by _checked_range, from _sweep run from both ends.

    The levels t_min..cut, the cut from _halving_cut, are swept from
    t_min up. The levels above the cut are swept by the same kernel from
    t_max down, on the reflected levels: distance d becomes level
    t_max + 1 - d, so the color that grows there is blue, level s of the
    reflected sweep is t = t_max - s, and its red count is t's blue. The
    upper half runs in a forked child when cores.both finds a second
    core and the smaller half's estimated time pays for the fork.
    """
    t_min, t_max = _checked_range(levels, groups, t_range)
    cut, work = _halving_cut(n, levels, groups, (t_min, t_max))
    reflected = {t_max + 1 - dist: mask for dist, mask in levels.items()}
    lows, highs = both(lambda: _sweep(n, levels, groups, t_min, cut),
                       lambda: _sweep(n, reflected, groups, 0, t_max - cut - 1), work)
    tables = []
    for group, low, high in zip(groups, lows, highs):
        size = group.bit_count()
        total = math.comb(size, 3)
        censuses = [*(CliqueCensus(size, 3, total, red, mono - red) for red, mono in low),
                    *(CliqueCensus(size, 3, total, mono - blue, blue)
                      for blue, mono in reversed(high))]
        tables.append(SweepTable(size, tuple(zip(range(t_min, t_max + 1), censuses))))
    return tables


def _sweep(n: int, levels: dict[int, int], groups: Sequence[int],
           t_min: int, t_max: int) -> list[list[tuple[int, int]]]:
    """The (red, mono) triangle counts of each group (a vertex mask) at
    each threshold t_min..t_max, none for an empty range, in the graphs
    whose red pairs of n vertices are those in levels, matrix masks by
    distance, at distance <= t.

    Each group is every vertex or one party, parties are disjoint, and
    identical groups are swept once. One pass over the pairs in distance
    order grows every vertex's red row, whatever groups are asked. A pair
    turning red closes a red triangle per common red neighbour: one
    popcount of the two rows, one more against the party if the pair lies
    inside an asked party. The monochromatic count follows from the red
    degrees. Counts are plain ints, so marshal sends them as they are.
    """
    everyone = (1 << n) - 1
    masks = list(dict.fromkeys(groups))
    members = {mask: [v for v in range(n) if mask >> v & 1] for mask in masks}
    party = {v: mask for mask in masks if mask != everyone for v in members[mask]}
    turning: dict[int, int] = {}  # by t: the pairs that turn red at t, those below t_min at it
    for dist, mask in levels.items():
        if dist <= t_max:
            t = max(dist, t_min)
            turning[t] = turning.get(t, 0) | mask
    row_of = struct.Struct(f"{(n + 7) // 8}s")  # one record's row of a matrix mask (_matrix)

    red, bits = [0] * n, [1 << v for v in range(n)]
    red_counts = dict.fromkeys([0, everyone, *masks], 0)  # 0: vertices in no asked party
    counts: dict[int, list] = {mask: [] for mask in masks}
    for t in range(t_min, t_max + 1):
        # row a of the pairs turning red at t: the b > a whose pair does
        joins = turning.pop(t, 0).to_bytes(n * row_of.size, "little")
        for a, (data,) in enumerate(row_of.iter_unpack(joins)):
            new = int.from_bytes(data, "little")
            if not new:
                continue
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
            if mask == everyone:
                member_rows = red
            else:  # rows hold outsiders too
                member_rows = map(red.__getitem__, members[mask])
                member_rows = map(mask.__and__, member_rows)
            mono = mono_triangles(len(members[mask]), list(map(int.bit_count, member_rows)))
            counts[mask].append((red_counts[mask], mono))
    return [counts[group] for group in groups]
