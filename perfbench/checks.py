"""Expected values computed from the benchmark inputs alone, and the
checks that compare the CLI's output files against them.

Nothing here imports ramseystats. Triangle totals come from Goodman's
degree identity, mono = C(n,3) - 1/2 * sum_v r_v * b_v, the sparse
color is counted by direct enumeration, and the dense color is their
difference. Dense K4/K5 counts have no cheap independent route; they
are compared against values recorded per seed in refs.json.

Every check returns a list of error strings; an empty list passes.
"""

from __future__ import annotations

import csv
import json
import math
from fractions import Fraction
from math import comb
from pathlib import Path

PARTY = {"democrat": "D", "republican": "R"}
THOMASON = {m: 0.936 * 2.0 ** (1 - comb(m, 2)) for m in (4, 5, 6)}


def iter_bits(x: int):
    while x:
        b = x & -x
        yield b.bit_length() - 1
        x ^= b


# ------------------------------------------------------------ graphs


def complement(rows: list[int]) -> list[int]:
    full = (1 << len(rows)) - 1
    return [full & ~r & ~(1 << v) for v, r in enumerate(rows)]


def edge_count(rows: list[int]) -> int:
    return sum(r.bit_count() for r in rows) // 2


def goodman_mono(rows: list[int]) -> int:
    """Monochromatic triangles of a two-coloring given one color's rows."""
    n = len(rows)
    bichromatic2 = sum(r.bit_count() * (n - 1 - r.bit_count()) for r in rows)
    return comb(n, 3) - bichromatic2 // 2


def count_cliques(rows: list[int], m: int) -> int:
    """K_m count by enumeration; meant for the sparse color."""

    def rec(cand: int, need: int) -> int:
        if need == 1:
            return cand.bit_count()
        total = 0
        for v in iter_bits(cand):
            total += rec(cand & rows[v] & (-1 << (v + 1)), need - 1)
        return total

    return sum(rec(rows[v] & (-1 << (v + 1)), m - 1) for v in range(len(rows)))


def max_clique_size(rows: list[int]) -> int:
    """Exact maximum clique by plain branch and bound; sparse color only."""
    best = 0

    def expand(cand: int, size: int) -> None:
        nonlocal best
        while cand:
            if size + cand.bit_count() <= best:
                return
            b = cand & -cand
            cand ^= b
            v = b.bit_length() - 1
            sub = cand & rows[v]
            if sub:
                expand(sub, size + 1)
            elif size + 1 > best:
                best = size + 1

    expand((1 << len(rows)) - 1, 0)
    return best


def clique_errors(rows: list[int], witness: list[int], what: str) -> list[str]:
    """A witness must be a clique that no further vertex extends."""
    common = (1 << len(rows)) - 1
    for v in witness:
        if common >> v & 1 == 0:
            return [f"{what}: witness is not a clique (vertex {v})"]
        common &= rows[v]
    if common:
        return [f"{what}: witness is extended by vertex {next(iter_bits(common))}"]
    return []


# ------------------------------------------------------------- votes


def parse_votes(text: str) -> list[tuple[str, str]]:
    records = []
    for line in text.splitlines():
        fields = line.split(",")
        records.append((PARTY.get(fields[0], fields[0]), "".join(fields[1:])))
    return records


def hamming(records) -> list[list[int]]:
    votes = [v for _, v in records]
    return [[sum(a != b for a, b in zip(u, w)) for w in votes] for u in votes]


def sweep_rows(dist: list[list[int]], idx: list[int], t_max: int) -> list[dict]:
    """Exact per-threshold census of the subgroup idx, t = 0..t_max."""
    n = len(idx)
    sub = [[dist[i][j] for j in idx] for i in idx]
    by_dist = [[0] * (t_max + 1) for _ in range(n)]
    for a in range(n):
        for b, d in enumerate(sub[a]):
            if a != b and d <= t_max:
                by_dist[a][d] |= 1 << b
    red = [0] * n
    rows = []
    total = comb(n, 3)
    for t in range(t_max + 1):
        red = [r | by_dist[a][t] for a, r in enumerate(red)]
        blue = complement(red)
        mono = goodman_mono(red)
        if edge_count(red) <= edge_count(blue):
            red_tri = count_cliques(red, 3)
            blue_tri = mono - red_tri
        else:
            blue_tri = count_cliques(blue, 3)
            red_tri = mono - blue_tri
        paths = total + 2 * mono
        rows.append({
            "t": t, "n": n, "total": total, "red_triangles": red_tri,
            "blue_triangles": blue_tri, "mono": mono,
            "mono_fraction": Fraction(mono, total),
            "red_fraction": Fraction(red_tri, total),
            "blue_fraction": Fraction(blue_tri, total),
            "mono_paths2": paths, "transitivity": Fraction(3 * mono, paths),
        })
    return rows


def goodman_floor(n: int) -> int:
    return comb(n, 3) - n * ((n - 1) ** 2 // 4) // 2


class VotesExpect:
    """Expected sweep rows per subgroup token, computed on first use."""

    def __init__(self, text: str):
        self.records = parse_votes(text)
        self.dist = hamming(self.records)
        self.t_max = max(max(row) for row in self.dist) + 1
        self._rows: dict[str, list[dict]] = {}

    def rows(self, token: str) -> list[dict]:
        if token not in self._rows:
            idx = [i for i, (p, _) in enumerate(self.records) if token in ("G", p)]
            self._rows[token] = sweep_rows(self.dist, idx, self.t_max)
        return self._rows[token]


def _cell_errors(where: str, got, want) -> list[str]:
    if isinstance(want, Fraction):
        ok = got is not None and float(got) == float(want)
    else:
        ok = str(got) == str(want)
    return [] if ok else [f"{where}: got {got}, expected {want}"]


def sweep_csv_errors(path: Path, token: str, expect: VotesExpect) -> list[str]:
    if not path.is_file():
        return [f"{path.name} missing"]
    with path.open(newline="") as fh:
        got = list(csv.DictReader(fh))
    want = expect.rows(token)
    data = [r for r in got if r["t"] != "goodman"]
    if len(data) != len(want):
        return [f"{path.name}: {len(data)} threshold rows, expected {len(want)}"]
    errors = []
    for g, w in zip(data, want):
        for key, value in w.items():
            errors += _cell_errors(f"{path.name} t={w['t']} {key}", g.get(key), value)
    floor = [r for r in got if r["t"] == "goodman"]
    n = want[0]["n"]
    if len(floor) != 1:
        errors.append(f"{path.name}: no goodman row")
    else:
        errors += _cell_errors(f"{path.name} goodman", floor[0]["mono"], goodman_floor(n))
    return errors


# -------------------------------------------------------------- chi2


def p_value_df1(stat: float) -> float:
    return math.erfc(math.sqrt(stat / 2.0))


def _close(a, b, rel=1e-9) -> bool:
    return math.isclose(float(a), float(b), rel_tol=rel, abs_tol=1e-300)


def chi2_errors(path: Path, n: int, observed: dict, expected: dict,
                significance: float = 0.01) -> list[str]:
    """Observed and expected series plus every report of a chi2 JSON file.

    observed and expected map mono/red/blue to lists of exact values.
    """
    if not path.is_file():
        return [f"{path.name} missing"]
    doc = json.loads(path.read_text())
    errors = []
    if doc.get("n") != n:
        errors.append(f"{path.name}: n {doc.get('n')} != {n}")
    for kind, want_all in (("observed", observed), ("expected", expected)):
        for series, want in want_all.items():
            got = doc[kind][series]
            if len(got) != len(want) or any(float(g) != float(w) for g, w in zip(got, want)):
                errors.append(f"{path.name}: {kind} {series} series differs")
    forced = Fraction(goodman_floor(n), comb(n, 3))
    stats = {}
    for series in ("mono", "red", "blue"):
        ref = float(forced if series == "mono" else forced / 2)
        obs = [float(v) for v in observed[series]]
        exp = [float(v) for v in expected[series]]
        vs_g = sum((o - ref) ** 2 / ref for o in obs)
        exp_g = sum((e - ref) ** 2 / ref for e in exp)
        vs_e = sum((o - e) ** 2 / e for o, e in zip(obs, exp) if e != 0)
        stats[("observed-vs-goodman", series)] = vs_g
        stats[("expectation-vs-goodman", series)] = exp_g
        stats[("observed-vs-expectation", series)] = vs_e
        stats[("deviation", series)] = abs(vs_g - exp_g)
    reports = {(r["comparison"], r["series"]): r for r in doc.get("reports", [])}
    if set(reports) != set(stats):
        return errors + [f"{path.name}: report set differs"]
    for key, want in stats.items():
        r = reports[key]
        if not _close(r["statistic"], want, rel=1e-7):
            errors.append(f"{path.name} {key}: statistic {r['statistic']} != {want}")
        if not _close(r["p_value"], p_value_df1(r["statistic"]), rel=1e-7):
            errors.append(f"{path.name} {key}: p_value {r['p_value']} wrong")
        if r["significant"] != (r["p_value"] < significance):
            errors.append(f"{path.name} {key}: significance flag wrong")
    return errors


def votes_chi2_errors(path: Path, token: str, expect: VotesExpect) -> list[str]:
    rows = expect.rows(token)
    t_max = expect.t_max
    grow = [Fraction(r["t"], t_max) ** 3 for r in rows]
    shrink = [(1 - Fraction(r["t"], t_max)) ** 3 for r in rows]
    observed = {k: [r[f"{k}_fraction"] for r in rows] for k in ("mono", "red", "blue")}
    expected = {
        "mono": [g + s for g, s in zip(grow, shrink)], "red": grow, "blue": shrink,
    }
    return chi2_errors(path, rows[0]["n"], observed, expected)


# ------------------------------------------------------------- trade


def top_k_graph(text: str, k: int) -> tuple[list[str], list[int]]:
    """Blue rows of the top-k partner graph, vertices sorted by label."""
    volume: dict[tuple[str, str], float] = {}
    for line in text.splitlines()[1:]:
        exp, imp, vol = line.split(",")
        volume[(exp, imp)] = volume.get((exp, imp), 0.0) + float(vol)
    labels = sorted({c for pair in volume for c in pair})
    index = {c: i for i, c in enumerate(labels)}
    partners: dict[tuple[str, int], list] = {}
    for (exp, imp), v in volume.items():
        partners.setdefault((exp, 0), []).append((-v, imp))
        partners.setdefault((imp, 1), []).append((-v, exp))
    rows = [0] * len(labels)
    for (c, _), plist in partners.items():
        for _, other in sorted(plist)[:k]:
            a, b = index[c], index[other]
            rows[a] |= 1 << b
            rows[b] |= 1 << a
    return labels, rows


class TradeExpect:
    """Exact trade-graph facts, with dense counts taken from refs."""

    def __init__(self, text: str, k: int, ref: dict | None):
        self.k = k
        self.labels, self.blue = top_k_graph(text, k)
        self.red = complement(self.blue)
        self.n = len(self.labels)
        self.ref = ref or {}
        self._counts: dict[int, tuple[int, int | None]] = {}

    def counts(self, m: int) -> tuple[int, int | None]:
        """(blue, red) K_m counts; red is None when no reference holds it."""
        if m not in self._counts:
            blue = count_cliques(self.blue, m)
            if m == 3:
                red = goodman_mono(self.blue) - blue
            else:
                red = self.ref.get(f"red_k{m}")
            self._counts[m] = (blue, red)
        return self._counts[m]

    def tri(self) -> tuple[int, int]:
        blue, red = self.counts(3)
        return red, blue


def trade_json_errors(path: Path, expect: TradeExpect, exit_code: int) -> list[str]:
    if not path.is_file():
        return [f"{path.name} missing"]
    doc = json.loads(path.read_text())
    n = expect.n
    errors = []
    for key, want in (("n", n), ("k", expect.k), ("blue_edges", edge_count(expect.blue)),
                      ("red_edges", comb(n, 2) - edge_count(expect.blue))):
        if doc.get(key) != want:
            errors.append(f"{path.name}: {key} {doc.get(key)} != {want}")
    chis = []
    for c in doc["census"]:
        m = c["m"]
        blue, red = expect.counts(m)
        total = comb(n, m)
        want = {"total": total, "blue_count": blue}
        if red is not None:
            want.update(red_count=red, mono=red + blue)
        for key, value in want.items():
            if c[key] != value:
                errors.append(f"{path.name} K{m} {key}: {c[key]} != {value}")
        if c["mono"] != c["red_count"] + c["blue_count"]:
            errors.append(f"{path.name} K{m}: mono != red + blue")
        if float(c["mono_fraction"]) != float(Fraction(c["mono"], total)):
            errors.append(f"{path.name} K{m}: mono_fraction wrong")
        ref = float(Fraction(goodman_floor(n), comb(n, 3))) if m == 3 else THOMASON[m]
        chi = (float(Fraction(c["mono"], total)) - ref) ** 2 / ref
        if not (_close(c["reference"], ref) and _close(c["chi2"], chi)
                and _close(c["p_value"], p_value_df1(chi), rel=1e-7)):
            errors.append(f"{path.name} K{m}: reference, chi2 or p_value wrong")
        chis.append(chi)
    if chis and not _close(doc["bar_chi2"], sum(chis) / len(chis)):
        errors.append(f"{path.name}: bar_chi2 wrong")

    red3, blue3 = expect.tri()
    mono3 = red3 + blue3
    paths = comb(n, 3) + 2 * mono3
    tr = doc["transitivity"]
    if tr["mono_paths2"] != paths or float(tr["completion_ratio"]) != float(
            Fraction(3 * mono3, paths)):
        errors.append(f"{path.name}: transitivity wrong")

    index = {c: i for i, c in enumerate(expect.labels)}
    lower_bound = False
    for key, rows, color in (("max_blue_clique", expect.blue, "blue"),
                             ("max_blue_independent_set", expect.red, "red")):
        res = doc[key]
        witness = [index[c] for c in res["witness"]]
        if len(witness) != res["size"]:
            errors.append(f"{path.name} {key}: size {res['size']} != witness length")
        errors += clique_errors(rows, witness, f"{path.name} {key}")
        lower_bound |= res["is_lower_bound"]
        if res["is_lower_bound"]:
            continue
        want = max_clique_size(rows) if color == "blue" else expect.ref.get("red_max_clique")
        if want is not None and res["size"] != want:
            errors.append(f"{path.name} {key}: size {res['size']} != {want}")
    if exit_code != (4 if lower_bound else 0):
        errors.append(f"{path.name}: exit code {exit_code} with lower_bound={lower_bound}")
    return errors


def trade_chi2_errors(path: Path, expect: TradeExpect) -> list[str]:
    red, blue = expect.tri()
    total = comb(expect.n, 3)
    tau = Fraction(expect.k, expect.n)
    observed = {
        "mono": [Fraction(red + blue, total)],
        "red": [Fraction(red, total)],
        "blue": [Fraction(blue, total)],
    }
    grow, shrink = tau ** 3, (1 - tau) ** 3
    expected = {"mono": [grow + shrink], "blue": [grow], "red": [shrink]}
    return chi2_errors(path, expect.n, observed, expected)


# ---------------------------------------------------------- simulate


def simulate_csv_errors(path: Path, n: int, steps: int = 20) -> list[str]:
    """Analytic column exact; empirical mean within 6 standard errors."""
    if not path.is_file():
        return [f"{path.name} missing"]
    with path.open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != steps + 1:
        return [f"{path.name}: {len(rows)} rows, expected {steps + 1}"]
    errors = []
    for i, r in enumerate(rows):
        tau = Fraction(i, steps)
        analytic = comb(n, 3) * (tau ** 3 + (1 - tau) ** 3)
        a, e, s = float(r["analytic"]), float(r["empirical"]), float(r["stderr"])
        if float(r["t"]) != float(tau) or a != float(analytic):
            errors.append(f"{path.name} row {i}: t or analytic wrong")
        if abs(e - a) > max(6 * s, 1e-9):
            errors.append(f"{path.name} row {i}: empirical {e} is {abs(e - a) / max(s, 1e-12):.1f} "
                          f"standard errors from {a}")
    return errors


def exhaustive_csv_errors(path: Path, n: int) -> list[str]:
    """The full distribution of monochromatic triangle counts over K_n."""
    if not path.is_file():
        return [f"{path.name} missing"]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    dist: dict[int, int] = {}
    for mask in range(1 << len(pairs)):
        deg = [0] * n
        for bit, (i, j) in enumerate(pairs):
            if mask >> bit & 1:
                deg[i] += 1
                deg[j] += 1
        mono = comb(n, 3) - sum(d * (n - 1 - d) for d in deg) // 2
        dist[mono] = dist.get(mono, 0) + 1
    with path.open(newline="") as fh:
        got = {int(r["mono"]): int(r["colorings"]) for r in csv.DictReader(fh)}
    if got != dist:
        return [f"{path.name}: distribution differs"]
    if min(got) != goodman_floor(n):
        return [f"{path.name}: minimum {min(got)} is not the Goodman floor"]
    return []


def bounds_csv_errors(out: Path, n_min: int = 3, n_max: int = 30) -> list[str]:
    errors = []
    path = out / "bounds_goodman.csv"
    if not path.is_file():
        return [f"{path.name} missing"]
    with path.open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    if [int(r["n"]) for r in rows] != list(range(n_min, n_max + 1)):
        errors.append(f"{path.name}: n column wrong")
    for r in rows:
        n = int(r["n"])
        forced = goodman_floor(n)
        if int(r["forced_count"]) != forced or float(r["forced_fraction"]) != float(
                Fraction(forced, comb(n, 3))):
            errors.append(f"{path.name} n={n}: floor wrong")
    path = out / "bounds_thomason.csv"
    if not path.is_file():
        return errors + [f"{path.name} missing"]
    with path.open(newline="") as fh:
        got = {int(r["m"]): float(r["upper_bound"]) for r in csv.DictReader(fh)}
    if got.keys() != THOMASON.keys() or any(not _close(got[m], THOMASON[m]) for m in got):
        errors.append(f"{path.name}: bounds wrong")
    return errors
