import copy
import io
import pickle
import random
import time
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oracles
import ramseystats as rs
from ramseystats import Color, coloring, cores, ingest
from conftest import DATA, SIX_VOTER_MATRIX


def test_parse_uci_line():
    recs = rs.parse_votes(["republican,n,y,n,y,y,y,n,n,n,y,?,y,y,y,n,y"])
    assert len(recs) == 1
    assert recs[0].party == "R"
    assert recs[0].votes == "NYNYYYNNNYAYYYNY"
    assert recs[0].id == "1"


def test_parse_uci_empty_and_blank():
    assert rs.parse_votes([]) == []
    assert rs.parse_votes(["", "  "]) == []


def test_parse_uci_errors_carry_line_numbers():
    good = "democrat," + ",".join(["y"] * 16)
    with pytest.raises(rs.ParseError, match="line 2"):
        rs.parse_votes([good, "democrat,y,n"])
    with pytest.raises(rs.ParseError, match="line 1.*'x'"):
        rs.parse_votes(["democrat," + ",".join(["x"] * 16)])


def test_parse_votes_errors_name_the_line_a_row_starts_on():
    votes = ",".join(["y"] * 16)
    # a quoted party spans lines 1-2, so the short row starts on line 3
    lines = ['"demo', f'crat",{votes}', "democrat,y,y"]
    with pytest.raises(rs.ParseError, match=r"^line 3: expected 17 fields, got 3$"):
        rs.parse_votes(lines)
    with pytest.raises(rs.ParseError, match=r"^line 4: unknown vote token 'x'$"):
        rs.parse_votes(["party,v1", '"demo', 'crat",y', "democrat,x"])
    # default ids still number the rows, not the lines
    recs = rs.parse_votes(lines[:2] + [f"republican,{votes}"])
    assert [r.id for r in recs] == ["1", "2"]
    recs = rs.parse_votes(["party,v1", '"demo', 'crat",y', "", "democrat,n"])
    assert [(r.id, r.votes) for r in recs] == [("1", "Y"), ("3", "N")]


def test_parse_generic():
    lines = [
        "id,party,v1,v2,v3",
        "a,democrat,y,n,?",
        "b,republican,n,n,y",
    ]
    recs = rs.parse_votes(lines)
    assert [r.id for r in recs] == ["a", "b"]
    assert recs[0].party == "D" and recs[0].votes == "YNA"
    # party column is required
    with pytest.raises(rs.ParseError, match="line 1"):
        rs.parse_votes(["id,v1", "a,y"])
    with pytest.raises(rs.ParseError, match="line 1"):
        rs.parse_votes(["id,party"])


PADDING = ("", " ", "  ")
BLANK_LINES = st.lists(st.sampled_from(["", "   "]), max_size=2)


def jumbled(words):
    """One of words in random case, with spaces around: one draw picks
    the word, one its spelling."""
    def spellings(word):
        return [
            left + "".join(ch.upper() if upper >> i & 1 else ch for i, ch in enumerate(word))
            + right
            for upper in range(1 << len(word)) for left in PADDING for right in PADDING
        ]
    return st.one_of([st.sampled_from(spellings(word)) for word in words])


# One record: its party, its 16 votes, and the blank lines before it
# in the headerless and in the headed file.
RECORDS = st.lists(
    st.tuples(
        jumbled(["democrat", "republican", "whig"]),
        st.lists(jumbled("yn?"), min_size=16, max_size=16),
        BLANK_LINES,
        BLANK_LINES,
    ),
    max_size=5,
)


VOTE_COLUMNS = [f"v{j}" for j in range(1, 17)]
HEADER_CELLS = {col: jumbled([col]) for col in ["party", "id", *VOTE_COLUMNS]}


@st.composite
def headers(draw):
    """Header columns v1..v16 with party, and maybe id, at random
    positions, each cell jumbled; and whether id is among them."""
    cols = list(VOTE_COLUMNS)
    with_id = draw(st.booleans())
    for name in ("party", "id") if with_id else ("party",):
        cols.insert(draw(st.integers(0, len(cols))), name)
    return cols, [draw(HEADER_CELLS[col]) for col in cols], with_id


@settings(deadline=None)
@given(records=RECORDS, header=headers())
def test_both_layouts_parse_alike(records, header):
    """The same records, written headerless and under a header (columns
    in any order, with or without id), parse to the same parties and
    votes; ids follow each layout's rule."""
    want = [
        ({"democrat": "D", "republican": "R"}.get(p.strip().lower(), p.strip()),
         "".join({"y": "Y", "n": "N", "?": "A"}[v.strip().lower()] for v in vs))
        for p, vs, _, _ in records
    ]

    plain, plain_ids = [], []
    for party, vs, blanks, _ in records:
        plain += blanks
        plain.append(",".join([party, *vs]))
        plain_ids.append(str(len(plain)))

    cols, cells, with_id = header
    headed, headed_ids = [",".join(cells)], []
    for i, (party, vs, _, blanks) in enumerate(records):
        headed += blanks
        named, rest = {"party": party, "id": f" r{i} "}, iter(vs)
        headed.append(",".join(named[col] if col in named else next(rest) for col in cols))
        headed_ids.append(f"r{i}" if with_id else str(len(headed) - 1))

    for lines, ids in ((plain, plain_ids), (headed, headed_ids)):
        recs = rs.parse_votes(lines)
        assert [(r.party, r.votes) for r in recs] == want
        assert [r.id for r in recs] == ids


def classes_of(d):
    """distance_classes' layout read off the rows of a distance matrix."""
    want = [{} for _ in d]
    for a, b in combinations(range(len(d)), 2):
        want[a][d[a][b]] = want[a].get(d[a][b], 0) | 1 << b
    return want


def test_hamming_matrix_definition_example():
    # distance between 00010 and 01001 is 3 (0->N, 1->Y)
    recs = [
        rs.VoterRecord(id="1", party="?", votes="NNNYN"),
        rs.VoterRecord(id="2", party="?", votes="NYNNY"),
    ]
    assert oracles.hamming_matrix(recs).d[0][1] == 3
    assert ingest.distance_classes(recs) == [{3: 0b10}, {}]


def test_hamming_matrix_six_voters(sample_matrix, sample_records):
    # the oracle's matrix, which the sweep tests read, and the kernel's classes
    assert sample_matrix.d == SIX_VOTER_MATRIX
    assert sample_matrix.n == 6
    assert sample_matrix.labels == tuple("123456")
    assert ingest.distance_classes(sample_records) == classes_of(SIX_VOTER_MATRIX)


def test_hamming_is_a_metric(sample_records):
    classes = ingest.distance_classes(sample_records)
    n = len(classes)
    d = [[0] * n for _ in range(n)]
    for a, by_distance in enumerate(classes):
        # each b > a lies in exactly one class of a
        assert sum(mask.bit_count() for mask in by_distance.values()) == n - 1 - a
        for dist, mask in by_distance.items():
            for b in range(n):
                if mask >> b & 1:
                    d[a][b] = d[b][a] = dist
    for i in range(n):
        for j in range(n):
            for k in range(n):
                assert d[i][k] <= d[i][j] + d[j][k]


def test_hamming_a_is_ordinary(sample_records):
    # A matches only another A
    assert oracles.hamming(sample_records[0].votes, sample_records[1].votes) == 3
    assert ingest.distance_classes(sample_records)[0][3] & 0b10
    recs = [rs.VoterRecord(str(i), "?", v) for i, v in enumerate(["AA", "AY", "YY"])]
    assert ingest.distance_classes(recs) == [{1: 0b10, 2: 0b100}, {1: 0b100}, {}]


def test_hamming_length_mismatch():
    recs = [
        rs.VoterRecord(id="1", party="?", votes="YN"),
        rs.VoterRecord(id="2", party="?", votes="YNA"),
    ]
    with pytest.raises(rs.InputError, match="^record '2' has length 3, expected 2$"):
        ingest.distance_classes(recs)


def test_voter_record_rejects_other_symbols():
    with pytest.raises(rs.InputError) as err:
        rs.VoterRecord("1", "D", "YX")
    assert str(err.value) == "vote string may only contain Y/N/A, got ['X']"


def test_distance_matrix_validation():
    with pytest.raises(rs.InputError):
        rs.DistanceMatrix(((0, 1), (2, 0)))  # asymmetric
    with pytest.raises(rs.InputError):
        rs.DistanceMatrix(((1,),))  # nonzero diagonal
    with pytest.raises(rs.InputError):
        rs.DistanceMatrix(((0, -1), (-1, 0)))
    with pytest.raises(rs.InputError):
        rs.DistanceMatrix(((0, 1), (1, 0)), labels=("a",))
    with pytest.raises(rs.InputError, match="^row 1 has 3 entries, expected 2$"):
        rs.DistanceMatrix([[0, 1], [1, 0, 3]])


def test_distance_matrix_copies_and_pickles():
    # copy and pickle rebuild through __new__ with __getnewargs__'s (d, labels)
    d = rs.DistanceMatrix([[0, 2, 1], [2, 0, 3], [1, 3, 0]], labels=["a", "b", "c"])
    for twin in (copy.copy(d), copy.deepcopy(d), pickle.loads(pickle.dumps(d))):
        assert type(twin) is rs.DistanceMatrix
        assert twin == d == (3, ((0, 2, 1), (2, 0, 3), (1, 3, 0)), ("a", "b", "c"))


def test_threshold_coloring_strict(sample_matrix):
    c = oracles.threshold_coloring(sample_matrix, 5)
    # d(v2, v6) = 5 stays red under the strict rule
    assert c.has_edge(1, 5, Color.RED)
    assert c.has_edge(1, 4, Color.BLUE)  # d = 7
    expected_blue = {
        (0, 2), (0, 3), (0, 4), (0, 5), (1, 2), (1, 3), (1, 4),
    }
    assert set(c.blue_edges()) == expected_blue
    with pytest.raises(rs.InputError):
        oracles.threshold_coloring(sample_matrix, -1)


def test_threshold_coloring_extremes(sample_matrix):
    assert oracles.threshold_coloring(sample_matrix, 0).blue_edge_count == 15
    assert oracles.threshold_coloring(sample_matrix, 7).blue_edge_count == 0


def test_threshold_monotone(sample_matrix):
    prev = None
    for t in range(0, 8):
        cur = oracles.threshold_coloring(sample_matrix, t)
        if prev is not None:
            for i in range(6):
                # blue can only shrink as t grows
                assert cur.blue_rows[i] & ~prev.blue_rows[i] == 0
        prev = cur


def test_sweep_six_voters(sample_matrix):
    table = rs.sweep(sample_matrix, (0, 8))
    assert [t for t, _ in table.rows] == list(range(9))
    monos = [float(census.mono_fraction) for _, census in table.rows]
    assert monos == [1.0, 1.0, 1.0, 0.6, 0.45, 0.2, 0.3, 1.0, 1.0]
    t5, census5 = table.rows[5]
    assert t5 == 5
    assert census5.red_count == 4 and census5.blue_count == 0
    assert census5.completion_ratio == Fraction(12, 28)
    assert rs.goodman_fraction(table.n).forced_fraction == Fraction(2, 20)
    assert table.n == 6


def test_sweep_single_point_equals_direct_census(sample_matrix):
    table = rs.sweep(sample_matrix, (5, 5))
    direct = rs.triangle_census(oracles.threshold_coloring(sample_matrix, 5))
    assert table.rows == ((5, direct),)


def test_sweep_subgroup(sample_matrix, sample_records):
    idx = oracles.subgroup_indices(sample_records, "D")
    table = rs.sweep(oracles.submatrix(sample_matrix, idx), (0, 6))
    assert table.n == 4
    # Democrats' pairwise distances all <= 5, so t=5 is all red
    assert table.rows[5][1].mono_fraction == 1
    with pytest.raises(rs.InputError, match="at least 3 records, got 0"):
        rs.sweep(rs.DistanceMatrix([]), (0, 2))
    with pytest.raises(rs.InputError, match="at least 3 records, got 2"):
        rs.sweep(oracles.submatrix(sample_matrix, idx[:2]), (0, 2))
    with pytest.raises(rs.InputError):
        rs.sweep(sample_matrix, (3, 2))


@st.composite
def sweep_cases(draw):
    """A symmetric matrix with distances in 0..hi (many ties; all zero
    when hi is 0), a threshold range that may start or end beyond the
    largest distance, and maybe a subgroup in random order."""
    n = draw(st.integers(3, 12))
    hi = draw(st.integers(0, 3))
    upper = iter(draw(st.lists(st.integers(0, hi), min_size=n * (n - 1) // 2,
                               max_size=n * (n - 1) // 2)))
    d = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d[i][j] = d[j][i] = next(upper)
    t_min = draw(st.integers(0, hi + 2))
    t_max = draw(st.integers(t_min, t_min + hi + 2))
    subgroup = draw(st.none() | st.permutations(range(n)).flatmap(
        lambda order: st.integers(3, n).map(lambda k: order[:k])))
    return rs.DistanceMatrix(d), (t_min, t_max), subgroup


ZEROS = rs.DistanceMatrix([[0] * 5] * 5)
PATH = rs.DistanceMatrix([[abs(i - j) for j in range(5)] for i in range(5)])


@settings(deadline=None)
@given(case=sweep_cases())
@example(case=(ZEROS, (0, 2), None))
@example(case=(ZEROS, (1, 1), [4, 0, 2]))
@example(case=(PATH, (2, 2), None))
@example(case=(PATH, (5, 8), [3, 1, 4, 0]))
def test_sweep_matches_per_threshold_census(case):
    d, (t_min, t_max), subgroup = case
    sub = d if subgroup is None else oracles.submatrix(d, subgroup)
    table = rs.sweep(sub, (t_min, t_max))
    assert table.n == sub.n
    assert [t for t, _ in table.rows] == list(range(t_min, t_max + 1))
    for t, census in table.rows:
        assert census == rs.triangle_census(oracles.threshold_coloring(sub, t))


def test_sweep_error_messages(sample_matrix):
    cases = [
        ((-1, 3), None, "threshold must be >= 0, got -1"),
        ((3, 2), None, "empty threshold range [3, 2]"),
        ((0, 3), [1, 2], "a sweep needs at least 3 records, got 2"),
    ]
    for t_range, subgroup, message in cases:
        with pytest.raises(rs.InputError) as err:
            rs.sweep(sample_matrix if subgroup is None
                     else oracles.submatrix(sample_matrix, subgroup), t_range)
        assert str(err.value) == message


def test_sweep_far_past_the_largest_distance(sample_matrix):
    start = time.perf_counter()
    table = rs.sweep(sample_matrix, (0, 20_000))
    elapsed = time.perf_counter() - start
    assert len(table.rows) == 20_001
    all_red = rs.CliqueCensus(n=6, m=3, total=20, red_count=20, blue_count=0)
    largest = max(map(max, sample_matrix.d))
    for _, census in table.rows[largest:]:
        assert census == all_red
    assert elapsed < 2.0


def test_sweep_builds_no_coloring(monkeypatch, sample_matrix, sample_records):
    def refuse(*args, **kwargs):
        raise AssertionError("sweep built a coloring or a distance matrix")
    monkeypatch.setattr(coloring, "TwoColoring", refuse)
    monkeypatch.setattr(coloring, "from_blue_edges", refuse)
    assert len(rs.sweep(sample_matrix, (0, 8)).rows) == 9
    monkeypatch.setattr(ingest, "DistanceMatrix", refuse)
    tables = rs.vote_sweeps(sample_records, (0, None), ["G", "D"])
    assert [len(table.rows) for table in tables] == [9, 9]


@st.composite
def voter_records(draw, min_records=1, max_length=40):
    """Records of 1 to max_length votes (40 needs 6 bit-planes per
    count, 70 needs 7), some all A, some repeated, each with a party
    drawn from D, R and I."""
    length = draw(st.integers(1, max_length))
    vote = st.text("YNA", min_size=length, max_size=length) | st.just("A" * length)
    distinct = draw(st.lists(vote, min_size=1, max_size=8))
    votes = draw(st.lists(st.sampled_from(distinct), min_size=min_records, max_size=12))
    return [rs.VoterRecord(str(i), draw(st.sampled_from("DRI")), v)
            for i, v in enumerate(votes)]


def records_of(*votes):
    return [rs.VoterRecord(str(i), "DR"[i % 2], v) for i, v in enumerate(votes)]


def seeded_records(count, length, seed):
    """count records, drawn from count // 2 distinct seeded vote strings
    (so some repeat), each with a seeded party from D, R and I."""
    rnd = random.Random(seed)
    distinct = ["".join(rnd.choices("YNA", k=length)) for _ in range(count // 2)]
    return [rs.VoterRecord(str(i), rnd.choice("DRI"), rnd.choice(distinct))
            for i in range(count)]


# Rows over more than 60 records span three or more 30-bit digits.
LONG = seeded_records(75, 16, seed=1)


@settings(deadline=None)
@given(records=voter_records(max_length=70))
@example(records=[])
@example(records=records_of("YNA"))
@example(records=records_of("A" * 7, "A" * 7))
@example(records=records_of("Y" * 16, "N" * 16, "A" * 16))
@example(records=records_of("YN" * 20, "NY" * 20, "YN" * 20, "A" * 40))
@example(records=records_of("AYN", "AAA", "NYA"))
@example(records=records_of("Y" * 70, "N" * 70, "A" * 70, "YN" * 35))  # 7 bit-planes
@example(records=LONG)
@example(records=seeded_records(100, 70, seed=2))
def test_distance_classes_match_hamming_matrix(records):
    d = oracles.hamming_matrix(records)
    assert ingest.distance_classes(records) == classes_of(d.d)


@settings(deadline=None)
@given(records=voter_records(min_records=3), data=st.data())
@example(records=records_of("YY", "YN", "NN", "AA", "YA", "NA"), data=None)
@example(records=LONG, data=None)
def test_vote_sweeps_match_submatrix_sweeps(records, data):
    d = oracles.hamming_matrix(records)
    index = {token: oracles.subgroup_indices(records, token) for token in "GDRI"}
    largest = max(map(max, d.d))
    if data is None:  # every party with and without G, t_max past the largest distance
        cases = [(["D", "R"], 1, None), (["R", "G", "D"], 0, largest + 3)]
    else:
        subgroups = data.draw(st.lists(
            st.sampled_from([token for token, idx in index.items() if len(idx) >= 3]),
            min_size=1, unique=True))
        t_min = data.draw(st.integers(0, largest + 2))
        t_max = data.draw(st.none() | st.integers(t_min, largest + 3))
        assume(t_max is not None or t_min <= largest + 1)
        cases = [(subgroups, t_min, t_max)]
    for subgroups, t_min, t_max in cases:
        tables = rs.vote_sweeps(records, (t_min, t_max), subgroups)
        t_range = (t_min, largest + 1 if t_max is None else t_max)
        assert tables == [rs.sweep(oracles.submatrix(d, index[token]), t_range)
                          for token in subgroups]


@st.composite
def vote_sweep_cases(draw):
    """Records, subgroup tokens with at least 3 records each (repeats
    allowed, party I maybe present but not asked), and a threshold
    range whose t_max may be None."""
    records = draw(voter_records(min_records=3))
    largest = max(map(max, oracles.hamming_matrix(records).d))
    tokens = [token for token in "GDRI"
              if sum(token in ("G", r.party) for r in records) >= 3]
    subgroups = draw(st.lists(st.sampled_from(tokens), min_size=1, max_size=4))
    t_min = draw(st.integers(0, largest + 1))
    t_max = draw(st.none() | st.integers(t_min, largest + 2))
    return records, subgroups, t_min, t_max


def parties_of(parties, *votes):
    return [rs.VoterRecord(str(i), p, v) for i, (p, v) in enumerate(zip(parties, votes))]


SIX = records_of("YY", "YN", "NN", "AA", "YA", "NA")
WITH_I = parties_of("DRIDRIDR", "YYN", "YNN", "NNN", "AAY", "YAY", "NAN", "YYY", "NYA")
ALL_D = parties_of("DDDDD", "YNY", "YNN", "NNN", "YYY", "AYN")


@settings(deadline=None)
@given(case=vote_sweep_cases())
@example(case=(SIX, ["D", "D"], 0, None))  # one group asked twice
@example(case=(SIX, ["G", "D", "R"], 1, 5))  # G with the parties
@example(case=(SIX, ["R", "D"], 0, None))  # parties without G
@example(case=(WITH_I, ["G", "R", "D"], 0, None))  # I is in G but not asked
@example(case=(WITH_I, ["D", "R"], 0, 2))  # I's pairs join but count for no table
@example(case=(ALL_D, ["G", "D"], 0, None))  # D's mask is G's
@example(case=(ALL_D, ["D", "G", "D"], 2, 4))
def test_vote_sweeps_match_threshold_census(case):
    # the oracle censuses each threshold coloring: no sweep runs
    records, subgroups, t_min, t_max = case
    d = oracles.hamming_matrix(records)
    last = max(map(max, d.d)) + 1 if t_max is None else t_max
    tables = rs.vote_sweeps(records, (t_min, t_max), subgroups)
    assert len(tables) == len(subgroups)
    for token, table in zip(subgroups, tables):
        sub = oracles.submatrix(d, oracles.subgroup_indices(records, token))
        assert table.n == sub.n
        assert [t for t, _ in table.rows] == list(range(t_min, last + 1))
        for t, census in table.rows:
            assert census == rs.triangle_census(oracles.threshold_coloring(sub, t))


def group_masks(records, subgroups):
    """vote_sweeps' vertex mask of each subgroup token."""
    return [sum(1 << i for i in oracles.subgroup_indices(records, token))
            for token in subgroups]


@settings(deadline=None)
@given(case=vote_sweep_cases())
@example(case=(SIX, ["G", "D", "R"], 1, 1))  # one level, t_min > 0
@example(case=(SIX, ["D", "G"], 0, 0))
@example(case=(WITH_I, ["R", "D"], 1, 2))
@example(case=(LONG, ["G", "D", "R"], 3, 9))  # t_max below the largest distance
@example(case=(LONG, ["R", "G", "R"], 0, None))
def test_two_ended_sweep_equals_one_pass_at_every_cut(case):
    records, subgroups, t_min, t_max = case
    classes = ingest.distance_classes(records)
    groups = group_masks(records, subgroups)
    t_min, t_max = ingest._checked_range(classes, groups, (t_min, t_max))
    one_pass = ingest._sweep(classes, groups, (t_min, t_max))
    for cut in range(t_min - 1, t_max + 1):  # the lower or the upper half may be empty
        assert ingest._two_ended(classes, groups, (t_min, t_max), cut, 0) == one_pass
    cut, work = ingest._halving_cut(classes, groups, (t_min, t_max))
    assert t_min - 1 <= cut <= t_max and work >= 0


# 435 records of 16 votes, as the house-votes file has
FULL = seeded_records(435, 16, seed=3)


def test_forked_and_inline_sweeps_agree_on_435_records(monkeypatch, forks):
    classes = ingest.distance_classes(FULL)
    groups = group_masks(FULL, "GDR")
    t_range = ingest._checked_range(classes, groups, (0, None))
    _, work = ingest._halving_cut(classes, groups, t_range)
    assert work >= cores.MIN_FORK_WORK  # this size forks on two cores
    forked = rs.vote_sweeps(FULL, (0, None), "GDR")
    assert forks == [1]
    monkeypatch.setattr(rs.cores, "_forks", lambda work: False)
    assert rs.vote_sweeps(FULL, (0, None), "GDR") == forked
    assert ingest._sweep(classes, groups, t_range) == forked
    assert forks == [1]


def test_vote_sweeps_error_messages(sample_records):
    # the six sample records: D has 4, R has 2, the largest distance is 7
    cases = [
        (sample_records, (-1, 3), ["G"], "threshold must be >= 0, got -1"),
        (sample_records, (3, 2), ["G"], "empty threshold range [3, 2]"),
        (sample_records, (9, None), ["G"], "empty threshold range [9, 8]"),
        (sample_records, (0, 3), ["G", "R"], "a sweep needs at least 3 records, got 2"),
        (sample_records[:2], (0, 3), ["G"], "a sweep needs at least 3 records, got 2"),
        (sample_records, (0, 3), ["D", "X"], "subgroup 'X' matches no records"),
    ]
    for records, t_range, subgroups, message in cases:
        with pytest.raises(rs.InputError) as err:
            rs.vote_sweeps(records, t_range, subgroups)
        assert str(err.value) == message


def _sweep_or_error(sweep, *args):
    try:
        return sweep(*args)
    except rs.InputError as exc:
        return str(exc)


THREE = rs.DistanceMatrix([[0, 1, 2], [1, 0, 1], [2, 1, 0]])


@settings(deadline=None)
@given(matrix_case=sweep_cases(), votes_case=vote_sweep_cases())
@example(matrix_case=(THREE, (0, 0), None), votes_case=(SIX, ["G"], 0, None))
@example(matrix_case=(ZEROS, (2, 2), None), votes_case=(SIX, ["D", "G"], 9, None))  # empty range
def test_t_max_none_is_the_largest_distance_plus_one(matrix_case, votes_case):
    # both entry points, on a table or on the error of an empty range
    d, (t_min, _), _ = matrix_case
    last = max(map(max, d.d)) + 1
    assert _sweep_or_error(rs.sweep, d, (t_min, None)) == \
        _sweep_or_error(rs.sweep, d, (t_min, last))
    records, subgroups, t_min, _ = votes_case
    last = max(map(max, oracles.hamming_matrix(records).d)) + 1
    assert _sweep_or_error(rs.vote_sweeps, records, (t_min, None), subgroups) == \
        _sweep_or_error(rs.vote_sweeps, records, (t_min, last), subgroups)


def test_parse_trade_flows(trade_small_path):
    flows = rs.parse_trade_flows(trade_small_path.read_text().splitlines())
    assert len(flows) == 12
    assert flows[0] == rs.TradeFlow("Charlie", "Delta", 7.0)


def test_parse_trade_flows_keeps_a_line_break_inside_quotes():
    # lines with their terminators, as the CLI reads a file
    text = 'exporter,importer,volume\n"A\nB",C,1\n'
    [flow] = rs.parse_trade_flows(io.StringIO(text, newline=""))
    assert flow == rs.TradeFlow("A\nB", "C", 1.0)


def test_parse_trade_flow_errors():
    with pytest.raises(rs.ParseError, match="line 1"):
        rs.parse_trade_flows(["a,b,c", "x,y,1"])
    header = "exporter,importer,volume"
    with pytest.raises(rs.ParseError, match="line 2"):
        rs.parse_trade_flows([header, "a,b"])
    with pytest.raises(rs.ParseError, match="line 3"):
        rs.parse_trade_flows([header, "a,b,1", "a,b,soon"])
    with pytest.raises(rs.ParseError, match="line 2"):
        rs.parse_trade_flows([header, "a,a,1"])  # self flow
    assert rs.parse_trade_flows([]) == []
    assert rs.parse_trade_flows([header, "", "a,b,1"])[0].volume == 1.0


def test_parse_trade_flow_errors_name_the_line_a_row_starts_on():
    header = "exporter,importer,volume"
    # a quoted exporter spans lines 2-3, so the short row starts on line 4
    with pytest.raises(rs.ParseError, match=r"^line 4: expected 3 fields, got 2$"):
        rs.parse_trade_flows([header, '"A', 'B",C,1', "C,D"])
    with pytest.raises(rs.ParseError, match=r"^line 4: bad volume 'x'$"):
        rs.parse_trade_flows(io.StringIO(f'{header}\r\n"A\r\nB",C,1\r\nC,D,x\r\n',
                                         newline=""))
    flows = rs.parse_trade_flows([header, '"A', 'B",C,1', "C,D,2"])
    assert [f.volume for f in flows] == [1.0, 2.0]


def test_trade_flow_validation():
    with pytest.raises(rs.InputError):
        rs.TradeFlow("", "b", 1.0)
    with pytest.raises(rs.InputError):
        rs.TradeFlow("a", "b", float("nan"))
    with pytest.raises(rs.InputError):
        rs.TradeFlow("a", "b", -2.0)


def test_build_trade_graph_single_flow():
    g = rs.build_trade_graph([rs.TradeFlow("A", "B", 1.0)], k=5)
    assert g.n == 2
    assert g.blue_edges() == ((0, 1),)
    assert g.labels == ("A", "B")


def test_build_trade_graph_hand_union(trade_small_path):
    flows = rs.parse_trade_flows(trade_small_path.read_text().splitlines())
    g = rs.build_trade_graph(flows, k=2)
    assert g.labels == ("Alpha", "Bravo", "Charlie", "Delta", "Echo", "Foxtrot")
    got = {(g.labels[i], g.labels[j]) for i, j in g.blue_edges()}
    want = {
        ("Alpha", "Bravo"), ("Alpha", "Charlie"), ("Alpha", "Delta"),
        ("Alpha", "Foxtrot"), ("Bravo", "Charlie"), ("Charlie", "Delta"),
        ("Charlie", "Echo"), ("Delta", "Echo"), ("Echo", "Foxtrot"),
    }
    assert got == want


_TRADE_SMALL = rs.parse_trade_flows((DATA / "trade-small.csv").read_text().splitlines())


@settings(deadline=None)
@given(
    # six labels: repeated pairs sum, small volumes tie (0 included), some countries
    # have fewer than k partners, and k may exceed the country count
    flows=st.lists(
        st.tuples(st.sampled_from("ABCDEF"), st.sampled_from("ABCDEF"),
                  st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0]))
        .filter(lambda f: f[0] != f[1])
        .map(lambda f: rs.TradeFlow(*f)),
        min_size=1, max_size=30),
    k=st.integers(1, 8),
)
@example(flows=_TRADE_SMALL, k=2)
def test_build_trade_graph_matches_oracle(flows, k):
    g = rs.build_trade_graph(flows, k)
    countries, pairs = oracles.top_k_blue_pairs(flows, k)
    assert g.labels == tuple(countries)
    assert {(g.labels[i], g.labels[j]) for i, j in g.blue_edges()} == pairs


def test_build_trade_graph_duplicates_sum_before_ranking(trade_small_path):
    # Alpha->Bravo is split 7+6; summed it outranks Alpha->Charlie's 12
    flows = rs.parse_trade_flows(trade_small_path.read_text().splitlines())
    g = rs.build_trade_graph(flows, k=1)
    blue = {(g.labels[i], g.labels[j]) for i, j in g.blue_edges()}
    assert ("Alpha", "Bravo") in blue


def test_build_trade_graph_ties_alphabetical():
    # A's exports tie at 5; C's own ranking prefers D, so the edge A-C
    # exists only if A's tie broke toward C. It must break toward B.
    flows = [
        rs.TradeFlow("A", "B", 5.0),
        rs.TradeFlow("A", "C", 5.0),
        rs.TradeFlow("D", "C", 9.0),
    ]
    g = rs.build_trade_graph(flows, k=1)
    blue = {(g.labels[i], g.labels[j]) for i, j in g.blue_edges()}
    assert blue == {("A", "B"), ("C", "D")}


def test_build_trade_graph_order_independent(trade_small_path):
    flows = rs.parse_trade_flows(trade_small_path.read_text().splitlines())
    g1 = rs.build_trade_graph(flows, k=2)
    g2 = rs.build_trade_graph(list(reversed(flows)), k=2)
    assert g1 == g2


def test_build_trade_graph_validation():
    with pytest.raises(rs.InputError):
        rs.build_trade_graph([], k=2)
    with pytest.raises(rs.InputError):
        rs.build_trade_graph([rs.TradeFlow("A", "B", 1.0)], k=0)


def test_trade_ring_is_blue_cycle(trade_ring_path):
    flows = rs.parse_trade_flows(trade_ring_path.read_text().splitlines())
    g = rs.build_trade_graph(flows, k=5)
    ring = {(i, (i + 1) % 6) for i in range(6)}
    assert set(g.blue_edges()) == {(min(a, b), max(a, b)) for a, b in ring}
    census = rs.triangle_census(g)
    # complement of a 6-cycle realizes the Goodman floor exactly
    assert census.blue_count == 0 and census.red_count == 2
    assert rs.max_clique(g, Color.BLUE).size == 2
    assert rs.max_clique(g, Color.RED).witness == (0, 2, 4)


def test_random_coloring_deterministic():
    a = rs.random_coloring(12, 0.4, seed=7)
    b = rs.random_coloring(12, 0.4, seed=7)
    assert a == b
    c = rs.random_coloring(12, 0.4, seed=8)
    assert a != c


def test_random_coloring_extremes():
    assert rs.random_coloring(6, 0.0, seed=1).blue_edge_count == 0
    assert rs.random_coloring(6, 1.0, seed=1).blue_edge_count == 15
    assert rs.random_coloring(1, 0.5, seed=1).n == 1
    with pytest.raises(rs.InputError):
        rs.random_coloring(0, 0.5, seed=1)
    with pytest.raises(rs.InputError):
        rs.random_coloring(5, 1.5, seed=1)


def test_random_stream_regression():
    # recorded before random_coloring was built on one draw per pair
    want = ((1, 2), (1, 6), (2, 3), (2, 4), (3, 4), (5, 6))
    assert rs.random_coloring(7, 0.4, seed=11).blue_edges() == want
    assert rs.random_mono_counts(7, [0.4], [11]) == [[12]]
    assert rs.mono_triangles(7, [0, 2, 3, 2, 2, 1, 2]) == 12  # its blue degrees
