"""Command line surface for the census, bounds, and deviation reports.

Five subcommands: sweep (threshold censuses of a votes dataset), chi2
(deviation statistics for votes or trade inputs), trade (census and
extremal structure of a top-k partner graph), simulate (Monte Carlo
against the analytic expectation), and bounds (closed-form reference
tables). Outputs land in --out-dir (or $RAMSEYSTATS_OUT_DIR, or the
working directory) as csv/json plus a manifest.json recording input
hashes, the resolved config, and the library version.

Every output table is declared once, as a list of row dicts: the csv
header is the row keys, and the json document embeds the same rows.
trade's key/value summary table is its json document flattened.

Each command imports the modules only it needs (census, ingest, stats)
where it calls them, so bounds loads none of them and simulate neither
ingest nor stats. Only trade and chi2 --kind trade build a coloring and
load coloring; no command loads statistics.

Exit codes: 0 success, 2 missing input file (or a usage error: an
option argparse rejects), 3 parse failure, 4 clique search budget
exceeded. Other errors exit 1.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import random
import sys
from fractions import Fraction
from math import comb, fsum, isqrt, ldexp, sqrt
from operator import mul
from pathlib import Path

from . import bounds as bounds_lib
from . import report
from .errors import InputError, ParseError, UndefinedDensityError

OUT_DIR_ENV = "RAMSEYSTATS_OUT_DIR"
# Monte Carlo simulate's work in units of one draw as fitted (0.34-0.37 us): a sample
# is charged C(n,2) + 26 (its seed and call cost 36-40), each of its counts n + 3 (one
# costs 1.7-6 units at n <= 20), and each density's row 1000 for the ~2 KB it holds
# until written (it takes ~140). CLI runs at the cap's corners take 0.5-6.8 s and at
# most 49 MB (2 cores, CPython 3.11.7).
MAX_SIMULATED_WORK = 16_000_000
# simulate --exhaustive takes about 0.2 s at n=11 and 3.5 times more per n.
MAX_EXHAUSTIVE_N = 11
# bounds builds its whole table before writing; rows beyond this many
# only creep toward the 1/4 limit.
MAX_BOUNDS_ROWS = 10_000


def _fail(code: int, message: str):
    sys.stdout.flush()  # what the command printed comes first, also on a shared terminal
    print(f"error: {message}", file=sys.stderr)
    sys.exit(code)


def _resolve_out_dir(opt: str) -> Path:
    path = Path(opt)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        _fail(1, f"cannot use --out-dir {path}: {exc.strerror}")
    return path


def _load(path: Path, parse, what: str) -> list:
    """Parse a UTF-8 input file (BOM optional) into a non-empty list of `what`."""
    if not path.is_file():
        _fail(2, f"input file not found: {path}")
    try:
        # newline="": split rows only where csv does, not at U+2028 and the like
        items = parse(io.StringIO(path.read_text(encoding="utf-8-sig"), newline=""))
    except (ParseError, UnicodeDecodeError) as exc:
        _fail(3, f"{path}: {exc}")
    if not items:
        _fail(3, f"{path}: no {what}")
    return items


def _safe_name(token: str) -> str:
    return "".join(ch if ch.isalnum() else "_" for ch in token) or "_"


def _parse_orders(text: str, minimum: int, maximum: int | None = None) -> tuple[int, ...]:
    try:
        orders = tuple(sorted({int(tok) for tok in text.split(",") if tok.strip()}))
    except ValueError:
        _fail(1, f"bad orders list {text!r}")
    if not orders:
        _fail(1, "orders list is empty")
    if orders[0] < minimum:
        _fail(1, f"order {orders[0]} below the supported minimum {minimum}")
    if maximum is not None and orders[-1] > maximum:
        _fail(1, f"order {orders[-1]} above the supported maximum {maximum}")
    return orders


def _reject_options(run, names: set[str], context: str) -> None:
    """Fail if any of the named options was given on the command line."""
    for flag, dest, *_ in _COMMANDS[run.command][1]:
        if dest in names and dest in run.given:
            _fail(1, f"{flag} does not apply to {context}")


def _report(out: Path, fmt: str, stem: str, doc: dict, tables: dict[str, list[dict]]):
    """Write each table (a non-empty list of row dicts) to <name>.csv
    under a header of its row keys, or write doc, which holds the same
    data, to <stem>.json. Fractions become floats in either format."""
    if fmt == "json":
        path = out / f"{stem}.json"
        report.write_json(path, doc)
        return [path]
    written = []
    for name, rows in tables.items():
        path = out / f"{name}.csv"
        report.write_csv(path, list(rows[0]), [row.values() for row in rows])
        written.append(path)
    return written


def _finish(run, out: Path, written: list[Path], inputs: dict[str, Path], **resolved) -> None:
    """Write the run manifest and say how many files the command wrote.

    The manifest config is the command's parameters, less the input path
    (hashed under inputs), with out_dir and the values the command
    resolves itself (resolved) in their place.
    """
    config = {key: value for key, value in run.params.items() if key != "input_path"}
    config.update(out_dir=str(out), **resolved)
    written.append(report.write_manifest(out, run.command, config, inputs))
    print(f"wrote {len(written)} files to {out}")


# Options, in --help order: (flag, parameter name, default, type or choices,
# help). The parameter names are the manifest's config keys. A tuple default
# makes the option repeatable, a default of ... required, and type bool a
# flag. main reads --out-dir's default from the environment.
_INPUT = (("--input", "input_path", ..., Path, "Input file."),)
_VOTES = (
    ("--subgroup", "subgroups", ("G",), str,
     "G (the default) for all records, or a party token (D, R); repeatable."),
    ("--t-min", "t_min", 0, int, None),
    ("--t-max", "t_max", None, int, "Default: largest observed distance + 1."),
)
_OUTPUT = (
    ("--format", "fmt", "csv", ("csv", "json"), None),
    ("--out-dir", "out_dir", None, str, f"Default: ${OUT_DIR_ENV} or the working directory."),
)
_COMMANDS = {}  # name -> (function, options)


def _command(name: str, *options):
    """Register the decorated function as the subcommand name."""
    return lambda fn: _COMMANDS.setdefault(name, (fn, options))[0]


def _votes_sweeps(path: Path, subgroups, t_min: int, t_max: int | None):
    """Load a votes file and sweep every subgroup in one pass. Returns
    the resolved t_max and a list of (subgroup token, sweep table), all
    computed, so a bad token or range fails before any output. A t_max
    above the vote count + 1 only repeats the all-red row, so it fails."""
    names = [_safe_name(token) for token in subgroups]
    clash = [token for token, name in zip(subgroups, names) if names.count(name) > 1]
    if clash:
        _fail(1, f"subgroups {', '.join(map(repr, clash))} would share output files")
    from . import ingest

    records = _load(path, ingest.parse_votes, "records")
    votes = len(records[0].votes)
    if t_max is not None and t_max > votes + 1:
        _fail(1, f"t-max {t_max} above {votes + 1}: no distance exceeds the {votes} votes "
                 "per record")
    tables = ingest.vote_sweeps(records, (t_min, t_max), subgroups)
    return tables[0].rows[-1][0], list(zip(subgroups, tables))


# ---------------------------------------------------------------- sweep

# curve -> the sweep column it draws on screen
_CURVES = {"mono": "mono_fraction", "red": "red_fraction", "blue": "blue_fraction",
           "transitivity": "transitivity"}


def _sweep_report(out: Path, token: str, table, fmt: str) -> list[Path]:
    """Print one subgroup's sweep (an ingest.SweepTable) and write its table."""
    name, goodman = _safe_name(token), bounds_lib.goodman_fraction(table.n)
    rows = [
        {
            "t": t,
            "total": census.total,
            "red_triangles": census.red_count,
            "blue_triangles": census.blue_count,
            "mono": census.mono,
            "mono_fraction": census.mono_fraction,
            "red_fraction": Fraction(census.red_count, census.total),
            "blue_fraction": Fraction(census.blue_count, census.total),
            "mono_paths2": census.mono_paths2,
            "transitivity": census.completion_ratio,
        }
        for t, census in table.rows
    ]
    print(f"sweep {token}: n={table.n}, goodman floor {float(goodman.forced_fraction):.4f}")
    body = [[row["t"], *(f"{float(row[col]):.3f}" for col in _CURVES.values())] for row in rows]
    lowest = min(row["mono_fraction"] for row in rows)
    for cells, row in zip(body, rows):
        if row["mono_fraction"] == lowest:
            cells[1] = f"[{cells[1]}]"
    print(report.format_table(["t", *_CURVES], body))

    # the csv repeats n on every row and ends with the floor as a reference row
    floor = {**dict.fromkeys(rows[0]), "t": "goodman", "mono": goodman.forced_count,
             "mono_fraction": goodman.forced_fraction}
    csv_rows = [{"t": row["t"], "n": table.n, **row} for row in rows + [floor]]
    doc = {"command": "sweep", "subgroup": token, "n": table.n, "goodman": goodman,
           "rows": rows}
    return _report(out, fmt, f"sweep_{name}", doc, {f"sweep_{name}": csv_rows})


@_command("sweep", *_INPUT, *_VOTES, *_OUTPUT)
def cmd_sweep(run, input_path, subgroups, t_min, t_max, fmt, out_dir):
    """Census every threshold graph of a votes dataset."""
    t_max, tables = _votes_sweeps(input_path, subgroups, t_min, t_max)
    out = _resolve_out_dir(out_dir)
    written = [path for token, table in tables for path in _sweep_report(out, token, table, fmt)]
    _finish(run, out, written, {"votes": input_path}, t_max=t_max)


# ----------------------------------------------------------------- chi2


def _fraction_series(censuses) -> dict[str, list[float]]:
    """The mono/red/blue shares of the total, one value per census."""
    return {
        "mono": [float(c.mono_fraction) for c in censuses],
        "red": [float(c.red_count / c.total) for c in censuses],
        "blue": [float(c.blue_count / c.total) for c in censuses],
    }


def _chi2_series(n: int, points):
    """The thresholds and the observed and expected mono/red/blue value
    lists of (threshold, census, tau) points: the expectation is the
    census of a random coloring with red edge density tau."""
    thresholds, censuses, taus = zip(*points)
    expected = [bounds_lib.expected_mono(n, 3, tau) for tau in taus]  # rejects n < 3
    return list(thresholds), _fraction_series(censuses), _fraction_series(expected)


def _chi2_reports(observed, expected, n, df, significance) -> list[dict]:
    """The full comparison battery on mono/red/blue series triples."""
    from . import stats

    rows = []
    for series in ("mono", "red", "blue"):
        per_color = series != "mono"
        obs, exp = observed[series], expected[series]
        vs_goodman = stats.chi2_vs_goodman(obs, n, per_color=per_color, df=df)
        exp_vs_goodman = stats.chi2_vs_goodman(exp, n, per_color=per_color, df=df)
        for comparison, rep in (
            ("observed-vs-goodman", vs_goodman),
            ("expectation-vs-goodman", exp_vs_goodman),
            ("observed-vs-expectation", stats.chi2(obs, exp, df=df)),
            ("deviation", stats.chi2_deviation(vs_goodman, exp_vs_goodman)),
        ):
            rows.append({
                "comparison": comparison,
                "series": series,
                "statistic": rep.statistic,
                "df": rep.df,
                "p_value": rep.p_value,
                "significant": rep.p_value < significance,
                "skipped_points": rep.skipped_points,
            })
    return rows


@_command("chi2", *_INPUT, ("--kind", "kind", "votes", ("votes", "trade"), None), *_VOTES,
          ("--df", "df", 1, int, None), ("--k", "k", 5, int, "Partner count for --kind trade."),
          ("--significance", "significance", 0.01, float, None), *_OUTPUT)
def cmd_chi2(run, input_path, kind, subgroups, t_min, t_max, df, k, significance, fmt,
             out_dir):
    """Chi-squared deviation reports for a votes sweep or a trade graph."""
    _reject_options(run, {"k"} if kind == "votes" else {"subgroups", "t_min", "t_max"},
                    f"--kind {kind}")
    if not 0 < significance < 1:  # also rejects nan
        _fail(1, f"--significance must lie in (0, 1), got {significance}")
    if kind == "votes":
        t_max, tables = _votes_sweeps(input_path, subgroups, t_min, t_max)
        if t_max <= 0:
            _fail(1, "need a positive t-max to normalize thresholds")
        notes = [
            f"expectation grid maps threshold t to edge density t/{t_max}",
            "red is the threshold color (distance <= t), so its expected "
            "fraction is (t/t_max)^3",
        ]
        cases = [
            (token, table.n, *_chi2_series(
                table.n, [(t, census, Fraction(t, t_max)) for t, census in table.rows]
            ))
            for token, table in tables
        ]
    else:
        from . import census as census_lib, ingest

        graph = ingest.build_trade_graph(_load(input_path, ingest.parse_trade_flows, "flows"), k)
        if k > graph.n:
            _fail(1, f"--k {k} above the {graph.n} countries of the trade graph")
        t_norm = Fraction(k, graph.n)
        notes = [
            f"single-point series at normalized threshold k/n = {float(t_norm)!r}",
            "blue is the threshold color (top-k partners), so its expected "
            "fraction is (k/n)^3",
        ]
        census = census_lib.triangle_census(graph)
        cases = [("trade", graph.n,
                  *_chi2_series(graph.n, [(float(t_norm), census, 1 - t_norm)]))]
    reports = [_chi2_reports(observed, expected, n, df, significance)
               for _, n, _, observed, expected in cases]  # fail before writing anything
    out = _resolve_out_dir(out_dir)
    written = []
    for (token, n, thresholds, observed, expected), rows in zip(cases, reports):
        print(f"chi2 {token}:")
        body = [
            [r["comparison"], r["series"], f"{r['statistic']:.3f}", r["df"],
             f"{r['p_value']:.6f}", "*" if r["significant"] else ""]
            for r in rows
        ]
        print(report.format_table(
            ["comparison", "series", "chi2", "df", "p", f"sig@{significance}"], body
        ))
        for note in notes:
            print(f"note: {note}")
        name = f"chi2_{_safe_name(token)}"
        written += _report(out, fmt, name, {
            "command": "chi2",
            "subgroup": token,
            "n": n,
            "df": df,
            "significance": significance,
            "goodman_fraction": bounds_lib.goodman_fraction(n).forced_fraction,
            "thresholds": thresholds,
            "observed": observed,
            "expected": expected,
            "reports": rows,
            "notes": notes,
        }, {name: rows})
    # t_max is the resolved one for votes; for trade it is the unset option
    _finish(run, out, written, {"votes" if kind == "votes" else "flows": input_path},
            t_max=t_max)


# ---------------------------------------------------------------- trade


@_command("trade", *_INPUT, ("--k", "k", 5, int, None),
          ("--orders", "orders", "3,4,5", str, "Comma-separated clique orders to census (3..5)."),
          ("--density-vertex", "density_vertex", (), str,
           "Country label to report blue neighborhood density for; repeatable."),
          ("--clique-budget", "clique_budget", 10**8, int, None), *_OUTPUT)
def cmd_trade(run, input_path, k, orders, density_vertex, clique_budget, fmt, out_dir):
    """Census and extremal structure of a top-k trade partner graph."""
    from . import census as census_lib, ingest, stats
    from .coloring import Color

    orders = _parse_orders(orders, minimum=3, maximum=5)
    graph = ingest.build_trade_graph(_load(input_path, ingest.parse_trade_flows, "flows"), k)
    n, labels = graph.n, graph.labels
    for label in density_vertex:
        if label not in labels:
            _fail(1, f"no vertex labelled {label!r} in the trade graph")
    # the searches reject a budget below 1, before any census runs
    cliques = {
        "max_blue_clique": census_lib.max_clique(graph, Color.BLUE, clique_budget),
        "max_blue_independent_set": census_lib.max_clique(graph, Color.RED, clique_budget),
    }

    top = sorted(
        ((graph.degree(v, Color.BLUE), labels[v]) for v in range(n)),
        key=lambda p: (-p[0], p[1]),
    )[:5]

    goodman = bounds_lib.goodman_fraction(n)
    tri, census_rows = census_lib.clique_census(graph, 3), []
    for m in orders:
        if m == 3:
            c, ref_kind, ref = tri, "goodman", float(goodman.forced_fraction)
            fit = stats.chi2_vs_goodman([c.mono_fraction], n)
        else:
            c = census_lib.clique_census(graph, m)
            ref_kind, ref = "thomason", bounds_lib.thomason_bound(m)
            fit = stats.chi2([c.mono_fraction], [ref])
        census_rows.append({
            "m": c.m,
            "total": c.total,
            "red_count": c.red_count,
            "blue_count": c.blue_count,
            "mono": c.mono,
            "mono_fraction": c.mono_fraction,
            "reference_kind": ref_kind,
            "reference": ref,
            "chi2": fit.statistic,
            "p_value": fit.p_value,
        })
    bar = stats.bar_chi2([row["chi2"] for row in census_rows])

    # the shares are undefined without a monochromatic triangle
    bias = ({key: getattr(tri, key) for key in ("red_share", "blue_share", "bias_ratio")}
            if tri.mono else None)
    densities = [{"label": label, "density": None} for label in dict.fromkeys(density_vertex)]
    for row in densities:
        with contextlib.suppress(UndefinedDensityError):
            row["density"] = float(
                census_lib.neighborhood_density(graph, labels.index(row["label"]), Color.BLUE)
            )

    # trade_summary.csv is this document less its census, flattened to
    # key/value rows; trade_census.csv holds the census rows
    doc = {
        "command": "trade",
        "n": n,
        "k": k,
        "blue_edges": graph.blue_edge_count,
        "red_edges": graph.red_edge_count,
        "mean_blue_degree": 2 * graph.blue_edge_count / n,
        "top_blue_degrees": [{"label": label, "degree": deg} for deg, label in top],
        "census": census_rows,
        "bar_chi2": bar,
        "bias": bias,
        "transitivity": {"mono": tri.mono, "mono_paths2": tri.mono_paths2,
                         "completion_ratio": tri.completion_ratio},
        "densities": densities,
        "goodman": goodman,
        **{key: {**result._asdict(), "witness": [labels[v] for v in result.witness]}
           for key, result in cliques.items()},
    }
    summary = report.flatten({key: value for key, value in doc.items() if key != "census"})
    out = _resolve_out_dir(out_dir)
    written = _report(out, fmt, "trade", doc, {
        "trade_summary": [{"key": key, "value": value} for key, value in summary],
        "trade_census": census_rows,
    })

    print(
        f"trade graph: n={n}, blue edges {graph.blue_edge_count}, "
        f"mean blue degree {doc['mean_blue_degree']:.1f}"
    )
    print("top blue degrees: " + ", ".join(f"{label}={deg}" for deg, label in top))
    for key, result in cliques.items():
        bound = " (lower bound)" if result.is_lower_bound else ""
        witness = ": " + " ".join(doc[key]["witness"]) if key == "max_blue_clique" else ""
        print(f"{key.replace('_', ' ')} {result.size}{bound}{witness}")
    body = [
        [r["m"], f"{float(r['mono_fraction']):.3f}", r["reference_kind"],
         f"{r['reference']:.5f}", f"{r['chi2']:.3f}"]
        for r in census_rows
    ]
    print(report.format_table(["m", "mono", "ref_kind", "ref", "chi2"], body))
    print(f"bar chi2 {bar:.3f}, completion ratio {float(tri.completion_ratio):.3f}")
    for row in densities:
        shown = "undefined" if row["density"] is None else f"{row['density']:.4f}"
        print(f"blue neighborhood density of {row['label']}: {shown}")
    _finish(run, out, written, {"flows": input_path}, orders=orders)
    if any(result.is_lower_bound for result in cliques.values()):
        _fail(4, "clique search node budget exceeded; sizes are lower bounds")


# ------------------------------------------------------------- simulate


def _stdev(xs: list[int]) -> float:
    """statistics.stdev of two or more integers, bit for bit, from their
    exact sums: the sample variance is (k Sxx - Sx^2) / (k (k-1)) for k
    values, and its square root is rounded to odd on 55 or more bits
    before the one rounding to a float, so it is correctly rounded."""
    k, sx = len(xs), sum(xs)
    num, den = k * sum(map(mul, xs, xs)) - sx * sx, k * (k - 1)
    q = (num.bit_length() - den.bit_length() - 109) // 2  # scale so the root has >= 55 bits
    if q >= 0:
        den <<= 2 * q
    else:
        num <<= -2 * q
    root = isqrt(num // den)
    return ldexp(root | (root * root * den != num), q)


@_command("simulate", ("--n", "n", 20, int, None), ("--t-min", "t_min", 0.0, float, None),
          ("--t-max", "t_max", 1.0, float, None), ("--t-step", "t_step", 0.05, float, None),
          ("--samples", "samples", 2000, int, None), ("--seed", "seed", 0, int, None),
          ("--exhaustive", "exhaustive", False, bool,
           "Enumerate all colorings instead of sampling (small n only)."), *_OUTPUT)
def cmd_simulate(run, n, t_min, t_max, t_step, samples, seed, exhaustive, fmt, out_dir):
    """Monte Carlo monochromatic counts against the analytic expectation."""
    if exhaustive:
        _reject_options(run, {"t_min", "t_max", "t_step", "samples", "seed"}, "--exhaustive")
    from . import census as census_lib

    floor = bounds_lib.goodman_min(n)
    doc = {"command": "simulate", "n": n, "goodman_floor": floor}
    stem = "simulate_exhaustive" if exhaustive else "simulate"
    if exhaustive:
        if n > MAX_EXHAUSTIVE_N:
            _fail(1, f"exhaustive n={n} exceeds the cap of {MAX_EXHAUSTIVE_N}")
        rows = [{"mono": m, "colorings": c} for m, c in census_lib.mono_distribution(n).items()]
        lo, hi = rows[0]["mono"], rows[-1]["mono"]
        colorings = 2 ** comb(n, 2)
        doc.update(mode="exhaustive", colorings=colorings, min_mono=lo, max_mono=hi,
                   distribution=rows)
        print(
            f"exhaustive n={n}: {colorings} colorings, "
            f"mono range [{lo}, {hi}], goodman floor {floor}"
        )
    else:
        if n < 3:
            _fail(1, f"need n >= 3 for the analytic expectation, got {n}")
        if samples < 1:
            _fail(1, f"samples must be >= 1, got {samples}")
        try:
            step, lo, hi = (Fraction(str(x)) for x in (t_step, t_min, t_max))
        except ValueError:
            _fail(1, "bad t grid values")
        if step <= 0:
            _fail(1, f"t-step must be positive, got {t_step}")
        if not (0 <= lo <= hi <= 1):
            _fail(1, "need 0 <= t-min <= t-max <= 1")
        points = (hi - lo) // step + 1
        work = samples * (comb(n, 2) + 26 + points * (n + 3)) + points * 1000
        if work > MAX_SIMULATED_WORK:
            _fail(1, f"n={n} with {points} densities x {samples} samples needs {work} "
                     f"units of work, above the cap of {MAX_SIMULATED_WORK}")
        grid = [lo + k * step for k in range(points)]
        ts = [float(tau) for tau in grid]
        master = random.Random(seed)
        counts = census_lib.random_mono_counts(
            n, ts, (master.getrandbits(63) for _ in range(samples)))
        rows = [{
            "t": t,
            "analytic": float(bounds_lib.expected_mono(n, 3, tau).mono),
            "empirical": fsum(at_t) / samples,
            "stderr": _stdev(at_t) / sqrt(samples) if samples > 1 else 0.0,
        } for tau, t, at_t in zip(grid, ts, counts)]
        doc.update(mode="monte-carlo", samples=samples, seed=seed, rows=rows)
        body = [
            [f"{r['t']:.3f}", f"{r['analytic']:.2f}", f"{r['empirical']:.2f}",
             f"{r['stderr']:.3f}"]
            for r in rows
        ]
        print(report.format_table(["t", "analytic", "empirical", "stderr"], body))
        print(f"goodman floor {floor} monochromatic triangles at n={n}")
    out = _resolve_out_dir(out_dir)
    written = _report(out, fmt, stem, doc, {stem: rows})
    _finish(run, out, written, {})


# --------------------------------------------------------------- bounds


@_command("bounds", ("--n-min", "n_min", 3, int, None), ("--n-max", "n_max", 30, int, None),
          ("--orders", "orders", "4,5,6", str,
           "Clique orders for the upper-bound table (each >= 4)."), *_OUTPUT)
def cmd_bounds(run, n_min, n_max, orders, fmt, out_dir):
    """Forced-floor and minimal-fraction reference tables."""
    orders = _parse_orders(orders, minimum=4)
    if n_min > n_max:
        _fail(1, f"empty n range [{n_min}, {n_max}]")
    rows = n_max - n_min + 1
    if rows > MAX_BOUNDS_ROWS:
        _fail(1, f"{rows} rows in n range [{n_min}, {n_max}] exceed the cap of {MAX_BOUNDS_ROWS}")
    floors = [bounds_lib.goodman_fraction(n)._asdict() for n in range(n_min, n_max + 1)]
    uppers = [{"m": m, "upper_bound": bounds_lib.thomason_bound(m)} for m in orders]
    out = _resolve_out_dir(out_dir)
    written = _report(
        out, fmt, "bounds", {"command": "bounds", "goodman": floors, "thomason": uppers},
        {"bounds_goodman": floors, "bounds_thomason": uppers},
    )
    body = [
        [b["n"], b["forced_count"], f"{float(b['forced_fraction']):.4f}",
         f"{float(b['asymptotic_fraction']):.4f}"]
        for b in floors[:20]
    ]
    print(report.format_table(["n", "forced", "fraction", "asymptotic"], body))
    print(", ".join(f"K{u['m']} upper bound {u['upper_bound']:.5f}" for u in uppers))
    _finish(run, out, written, {}, orders=orders)


# --------------------------------------------------------------- main


def _parser(args: list[str]) -> argparse.ArgumentParser:
    """The parser of every command, with the options of those named in
    args: only they can run or print their help. No option has a default
    of its own (argument_default=SUPPRESS), so a parse holds just the
    options given on the command line."""
    common = {"allow_abbrev": False, "add_help": False, "argument_default": argparse.SUPPRESS}
    parser = argparse.ArgumentParser(
        prog="ramseystats",
        description="Monochromatic clique censuses and Ramsey deviation statistics.", **common)
    parser.add_argument("--help", action="help", help="Show this message and exit.")
    commands = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    for name, (fn, options) in _COMMANDS.items():
        sub = commands.add_parser(name, help=fn.__doc__, description=fn.__doc__, **common)
        if name not in args:
            continue
        sub.add_argument("--help", action="help", help="Show this message and exit.")
        for flag, dest, default, kind, note in options:
            if not isinstance(default, (bool, tuple)) and default not in (None, ...):
                note = f"{note or ''} (default: {default})".lstrip()
            how = ({"action": "store_true"} if kind is bool else {"choices": kind}
                   if isinstance(kind, tuple) else {"type": kind})
            if isinstance(default, tuple):
                how["action"] = "append"
            sub.add_argument(flag, dest=dest, required=default is ..., help=note, **how)
    return parser


def _last_values(args: list[str]) -> list[str]:
    """args as the parser is to read them. An option takes the argument
    after it as its value, even "-1,2" or "-inf" ("--t-min=-inf"). Given
    twice, an option that is not repeatable keeps just its last value,
    so only that one is checked."""
    options = _COMMANDS[args[0]][1] if args and args[0] in _COMMANDS else ()
    joined, last, rest = [], {}, iter(args)
    for arg in rest:
        for flag, _, default, kind, _ in options:
            if kind is not bool and arg.partition("=")[0] == flag:
                if arg == flag and (value := next(rest, None)) is not None:
                    arg += "=" + value
                if not isinstance(default, tuple):  # drop the value given before
                    if flag in last:
                        joined.remove(last[flag])
                    last[flag] = arg
                break
        joined.append(arg)
    return joined


def main(args=None, standalone_mode=True) -> None:
    """Run one command line (default: sys.argv[1:]). Returns on success;
    every other outcome raises SystemExit with its exit code, whatever
    standalone_mode, which is accepted for callers that pass it.

    A command function gets its parameters, and first run: the command,
    its parameters, and given, the options given on the command line."""
    args = _last_values(sys.argv[1:] if args is None else args)
    given = vars(_parser(args).parse_args(args))
    command = given.pop("command")
    fn, options = _COMMANDS[command]
    params = {}
    for _, dest, default, *_ in options:
        params[dest] = default
    params["out_dir"] = os.environ.get(OUT_DIR_ENV) or "."  # an empty variable counts as unset
    params.update(given)
    try:
        fn(argparse.Namespace(command=command, params=params, given=given), **params)
    except InputError as exc:
        _fail(1, str(exc))


if __name__ == "__main__":
    main()
