"""Command line surface for the census, bounds, and deviation reports.

Five subcommands: sweep (threshold censuses of a votes dataset), chi2
(deviation statistics for votes or trade inputs), trade (census and
extremal structure of a top-k partner graph), simulate (Monte Carlo
against the analytic expectation), and bounds (closed-form reference
tables). Outputs land in --out-dir (or $RAMSEYSTATS_OUT_DIR, or the
working directory) as csv/json plus a manifest.json recording input
hashes, the resolved config, and the library version.

Exit codes: 0 success, 2 missing input file, 3 parse failure, 4 clique
search budget exceeded. Other errors exit 1.
"""

from __future__ import annotations

import os
import random
import statistics
import sys
from collections import Counter
from dataclasses import asdict, dataclass
from fractions import Fraction
from math import comb, sqrt
from pathlib import Path

import click

from . import bounds as bounds_lib
from . import census as census_lib
from . import ingest, report, stats
from .coloring import Color, enumerate_colorings
from .errors import (
    DegenerateReferenceError,
    InputError,
    ParseError,
    UndefinedBiasError,
    UndefinedDensityError,
)

OUT_DIR_ENV = "RAMSEYSTATS_OUT_DIR"

_TUPLE_FIELDS = ("inputs", "subgroups", "orders", "density_vertex")


@dataclass(frozen=True)
class RunConfig:
    """Resolved parameters of one invocation.

    Every field has a default, and a config survives a round trip
    through the JSON run manifest via to_dict/from_dict.
    """

    command: str = ""
    inputs: tuple[str, ...] = ()
    fmt: str = "csv"
    votes_format: str = ingest.UCI_FORMAT
    kind: str = "votes"
    subgroups: tuple[str, ...] = ("G",)
    t_min: float | None = None
    t_max: float | None = None
    t_step: float = 0.05
    orders: tuple[int, ...] = (3, 4, 5)
    df: int = 1
    k: int = 5
    seed: int = 0
    samples: int = 2000
    significance: float = 0.01
    n: int = 20
    n_min: int = 3
    n_max: int = 30
    density_vertex: tuple[str, ...] = ()
    clique_budget: int = 10**8
    exhaustive: bool = False
    out_dir: str = "."

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        kw = dict(d)
        for name in _TUPLE_FIELDS:
            if kw.get(name) is not None:
                kw[name] = tuple(kw[name])
        return cls(**kw)


def _fail(code: int, message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _resolve_out_dir(opt: str | None) -> Path:
    base = opt or os.environ.get(OUT_DIR_ENV) or "."
    path = Path(base)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _input_lines(path: Path) -> list[str]:
    if not path.is_file():
        _fail(2, f"input file not found: {path}")
    return path.read_text(encoding="utf-8").splitlines()


def _load_votes(path: Path, fmt: str) -> list[ingest.VoterRecord]:
    try:
        records = ingest.parse_votes(_input_lines(path), fmt)
    except ParseError as exc:
        _fail(3, f"{path}: {exc}")
    if not records:
        _fail(3, f"{path}: no records")
    return records


def _load_flows(path: Path) -> list[ingest.TradeFlow]:
    try:
        flows = ingest.parse_trade_flows(_input_lines(path))
    except ParseError as exc:
        _fail(3, f"{path}: {exc}")
    if not flows:
        _fail(3, f"{path}: no flows")
    return flows


def _safe_name(token: str) -> str:
    return "".join(ch if ch.isalnum() else "_" for ch in token) or "_"


def _subgroup_indices(records, token: str):
    if token == "G":
        return None
    idx = ingest.party_indices(records, token)
    if not idx:
        _fail(1, f"subgroup {token!r} matches no records")
    return idx


def _parse_orders(text: str, minimum: int) -> tuple[int, ...]:
    try:
        orders = tuple(sorted({int(tok) for tok in text.split(",") if tok.strip()}))
    except ValueError:
        _fail(1, f"bad orders list {text!r}")
    if not orders:
        _fail(1, "orders list is empty")
    for m in orders:
        if m < minimum:
            _fail(1, f"order {m} below the supported minimum {minimum}")
    return orders


def _fr(x) -> float:
    return float(x)


def _fmt3(x) -> str:
    return f"{report.round3(x):.3f}"


@click.group()
def main():
    """Monochromatic clique censuses and Ramsey deviation statistics."""


# ---------------------------------------------------------------- sweep


def _sweep_table_rows(table: ingest.SweepTable):
    for r in table.rows:
        yield (
            r.t,
            table.n,
            r.census.total,
            r.census.red_count,
            r.census.blue_count,
            r.census.mono,
            _fr(r.mono_fraction),
            _fr(r.red_fraction),
            _fr(r.blue_fraction),
            r.transitivity.mono_paths2,
            _fr(r.completion_ratio),
        )


def _emit_sweep(out: Path, token: str, table: ingest.SweepTable, fmt: str) -> list[Path]:
    name = _safe_name(token)
    goodman = table.goodman
    written = []
    if fmt == "csv":
        path = out / f"sweep_{name}.csv"
        header = [
            "t", "n", "total", "red_triangles", "blue_triangles", "mono",
            "mono_fraction", "red_fraction", "blue_fraction", "mono_paths2",
            "transitivity",
        ]
        rows = list(_sweep_table_rows(table))
        rows.append((
            "goodman", table.n, None, None, None, goodman.forced_count,
            _fr(goodman.forced_fraction), None, None, None, None,
        ))
        report.write_csv(path, header, rows)
    else:
        path = out / f"sweep_{name}.json"
        doc = {
            "command": "sweep",
            "subgroup": token,
            "n": table.n,
            "goodman": goodman,
            "rows": [
                {
                    "t": r.t,
                    "total": r.census.total,
                    "red_triangles": r.census.red_count,
                    "blue_triangles": r.census.blue_count,
                    "mono": r.census.mono,
                    "mono_fraction": _fr(r.mono_fraction),
                    "red_fraction": _fr(r.red_fraction),
                    "blue_fraction": _fr(r.blue_fraction),
                    "mono_paths2": r.transitivity.mono_paths2,
                    "transitivity": _fr(r.completion_ratio),
                }
                for r in table.rows
            ],
        }
        report.write_json(path, doc)
    written.append(path)

    ts = [r.t for r in table.rows]
    curves = {
        "mono": [_fr(r.mono_fraction) for r in table.rows],
        "red": [_fr(r.red_fraction) for r in table.rows],
        "blue": [_fr(r.blue_fraction) for r in table.rows],
        "transitivity": [_fr(r.completion_ratio) for r in table.rows],
        # horizontal reference line, recomputed for this n
        "goodman": [_fr(goodman.forced_fraction)] * len(ts),
    }
    for curve, values in curves.items():
        p = out / f"plot_{name}_{curve}.csv"
        report.write_csv(p, ["t", "value"], list(zip(ts, values)))
        written.append(p)
    return written


def _print_sweep(token: str, table: ingest.SweepTable):
    click.echo(
        f"sweep {token}: n={table.n}, "
        f"goodman floor {float(table.goodman.forced_fraction):.4f}"
    )
    lowest = min(r.mono_fraction for r in table.rows)
    body = []
    for r in table.rows:
        mono = _fmt3(r.mono_fraction)
        if r.mono_fraction == lowest:
            mono = f"[{mono}]"
        body.append([
            r.t, mono, _fmt3(r.red_fraction), _fmt3(r.blue_fraction),
            _fmt3(r.completion_ratio),
        ])
    click.echo(report.format_table(["t", "mono", "red", "blue", "transitivity"], body))


@main.command("sweep")
@click.option("--input", "input_path", required=True, type=click.Path(path_type=Path),
              help="Votes file.")
@click.option("--votes-format", type=click.Choice([ingest.UCI_FORMAT, ingest.GENERIC_FORMAT]),
              default=ingest.UCI_FORMAT, show_default=True)
@click.option("--subgroup", "subgroups", multiple=True, default=("G",), show_default=True,
              help="G for all records, or a party token (D, R); repeatable.")
@click.option("--t-min", type=int, default=0, show_default=True)
@click.option("--t-max", type=int, default=None,
              help="Default: largest observed distance + 1.")
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv",
              show_default=True)
@click.option("--out-dir", default=None, help=f"Default: ${OUT_DIR_ENV} or the working directory.")
def cmd_sweep(input_path, votes_format, subgroups, t_min, t_max, fmt, out_dir):
    """Census every threshold graph of a votes dataset."""
    records = _load_votes(input_path, votes_format)
    dist = ingest.hamming_matrix(records)
    if t_max is None:
        t_max = max(max(row) for row in dist.d) + 1 if dist.n > 1 else 1
    out = _resolve_out_dir(out_dir)
    cfg = RunConfig(
        command="sweep", inputs=(str(input_path),), fmt=fmt,
        votes_format=votes_format, subgroups=tuple(subgroups),
        t_min=t_min, t_max=t_max, out_dir=str(out),
    )
    written = []
    for token in subgroups:
        idx = _subgroup_indices(records, token)
        try:
            table = ingest.sweep(dist, (t_min, t_max), subgroup=idx)
        except InputError as exc:
            _fail(1, str(exc))
        _print_sweep(token, table)
        written += _emit_sweep(out, token, table, fmt)
    written.append(report.write_manifest(out, "sweep", cfg.to_dict(), {"votes": input_path}))
    click.echo(f"wrote {len(written)} files to {out}")


# ----------------------------------------------------------------- chi2


def _expected_fractions(n: int, tau: Fraction) -> tuple[Fraction, Fraction]:
    """(grow, shrink): monochromatic K3 fractions expected at density tau.

    grow is the expectation for the color whose density is tau, shrink
    for its complement; both are exact rationals.
    """
    curve = bounds_lib.expected_mono(n, 3, tau)
    total = comb(n, 3)
    return curve.expected_red / total, curve.expected_blue / total


def _chi2_reports(observed, expected, n, df):
    """Run the full comparison battery on mono/red/blue series triples."""
    rows = []
    for series_name in ("mono", "red", "blue"):
        per_color = series_name != "mono"
        obs = observed[series_name]
        exp = expected[series_name]
        vs_goodman = stats.chi2_vs_goodman(obs, n, per_color=per_color, df=df)
        exp_vs_goodman = stats.chi2_vs_goodman(exp, n, per_color=per_color, df=df)
        vs_exp = stats.chi2_vs_expectation(obs, exp, df=df)
        deviation = stats.chi2_deviation(vs_goodman, exp_vs_goodman)
        rows += [
            ("observed-vs-goodman", series_name, vs_goodman),
            ("expectation-vs-goodman", series_name, exp_vs_goodman),
            ("observed-vs-expectation", series_name, vs_exp),
            ("deviation", series_name, deviation),
        ]
    return rows


def _emit_chi2(out, token, n, df, significance, observed, expected, rows, notes, fmt):
    name = _safe_name(token)
    flat = [
        (comp, series, rep.statistic, rep.df, rep.p_value,
         rep.p_value < significance, rep.skipped_points)
        for comp, series, rep in rows
    ]
    if fmt == "csv":
        path = out / f"chi2_{name}.csv"
        report.write_csv(
            path,
            ["comparison", "series", "statistic", "df", "p_value",
             "significant", "skipped_points"],
            flat,
        )
    else:
        path = out / f"chi2_{name}.json"
        doc = {
            "command": "chi2",
            "subgroup": token,
            "n": n,
            "df": df,
            "significance": significance,
            "goodman_fraction": _fr(bounds_lib.goodman_fraction(n).forced_fraction),
            "thresholds": list(observed["mono"].thresholds),
            "observed": {k: list(s.values) for k, s in observed.items()},
            "expected": {k: [_fr(v) for v in s.values] for k, s in expected.items()},
            "reports": [
                {
                    "comparison": comp,
                    "series": series,
                    "statistic": rep.statistic,
                    "df": rep.df,
                    "p_value": rep.p_value,
                    "significant": rep.p_value < significance,
                    "skipped_points": rep.skipped_points,
                }
                for comp, series, rep in rows
            ],
            "notes": notes,
        }
        report.write_json(path, doc)
    return [path]


def _print_chi2(token, rows, significance, notes):
    click.echo(f"chi2 {token}:")
    body = [
        [comp, series, f"{rep.statistic:.3f}", rep.df, f"{rep.p_value:.6f}",
         "*" if rep.p_value < significance else ""]
        for comp, series, rep in rows
    ]
    click.echo(report.format_table(
        ["comparison", "series", "chi2", "df", "p", f"sig@{significance}"], body
    ))
    for note in notes:
        click.echo(f"note: {note}")


@main.command("chi2")
@click.option("--input", "input_path", required=True, type=click.Path(path_type=Path))
@click.option("--kind", type=click.Choice(["votes", "trade"]), default="votes",
              show_default=True)
@click.option("--votes-format", type=click.Choice([ingest.UCI_FORMAT, ingest.GENERIC_FORMAT]),
              default=ingest.UCI_FORMAT, show_default=True)
@click.option("--subgroup", "subgroups", multiple=True, default=("G",), show_default=True)
@click.option("--t-min", type=int, default=0, show_default=True)
@click.option("--t-max", type=int, default=None,
              help="Default: largest observed distance + 1.")
@click.option("--df", type=int, default=1, show_default=True)
@click.option("--k", type=int, default=5, show_default=True,
              help="Partner count for --kind trade.")
@click.option("--significance", type=float, default=0.01, show_default=True)
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv",
              show_default=True)
@click.option("--out-dir", default=None)
def cmd_chi2(input_path, kind, votes_format, subgroups, t_min, t_max, df, k,
             significance, fmt, out_dir):
    """Chi-squared deviation reports for a votes sweep or a trade graph."""
    out = _resolve_out_dir(out_dir)
    written = []
    if kind == "votes":
        records = _load_votes(input_path, votes_format)
        dist = ingest.hamming_matrix(records)
        if t_max is None:
            t_max = max(max(row) for row in dist.d) + 1 if dist.n > 1 else 1
        if t_max <= 0:
            _fail(1, "need a positive t-max to normalize thresholds")
        cfg = RunConfig(
            command="chi2", inputs=(str(input_path),), fmt=fmt, kind=kind,
            votes_format=votes_format, subgroups=tuple(subgroups),
            t_min=t_min, t_max=t_max, df=df, k=k,
            significance=significance, out_dir=str(out),
        )
        for token in subgroups:
            idx = _subgroup_indices(records, token)
            try:
                table = ingest.sweep(dist, (t_min, t_max), subgroup=idx)
            except InputError as exc:
                _fail(1, str(exc))
            n = table.n
            thresholds = [r.t for r in table.rows]
            observed = {
                "mono": stats.Series(thresholds, [_fr(r.mono_fraction) for r in table.rows]),
                "red": stats.Series(thresholds, [_fr(r.red_fraction) for r in table.rows]),
                "blue": stats.Series(thresholds, [_fr(r.blue_fraction) for r in table.rows]),
            }
            # red is the threshold color for votes: its density grows with t
            grown, shrunk = [], []
            for t in thresholds:
                g, s = _expected_fractions(n, Fraction(t, t_max))
                grown.append(g)
                shrunk.append(s)
            expected = {
                "mono": stats.Series(thresholds, [g + s for g, s in zip(grown, shrunk)]),
                "red": stats.Series(thresholds, grown),
                "blue": stats.Series(thresholds, shrunk),
            }
            try:
                rows = _chi2_reports(observed, expected, n, df)
            except (DegenerateReferenceError, InputError) as exc:
                _fail(1, str(exc))
            notes = [
                f"expectation grid maps threshold t to edge density t/{t_max}",
                "red is the threshold color (distance <= t), so its expected "
                "fraction is (t/t_max)^3",
            ]
            _print_chi2(token, rows, significance, notes)
            written += _emit_chi2(out, token, n, df, significance, observed,
                                  expected, rows, notes, fmt)
        written.append(report.write_manifest(out, "chi2", cfg.to_dict(), {"votes": input_path}))
    else:
        flows = _load_flows(input_path)
        try:
            graph = ingest.build_trade_graph(flows, k)
        except InputError as exc:
            _fail(1, str(exc))
        census = census_lib.triangle_census(graph)
        n = graph.n
        t_norm = stats.normalized_threshold(k, n)
        thresholds = [_fr(t_norm)]
        total = census.total
        observed = {
            "mono": stats.Series(thresholds, [_fr(census.mono_fraction)]),
            "red": stats.Series(thresholds, [census.red_count / total]),
            "blue": stats.Series(thresholds, [census.blue_count / total]),
        }
        # blue is the threshold color here: partner edges grow with k
        g, s = _expected_fractions(n, t_norm)
        expected = {
            "mono": stats.Series(thresholds, [g + s]),
            "blue": stats.Series(thresholds, [g]),
            "red": stats.Series(thresholds, [s]),
        }
        try:
            rows = _chi2_reports(observed, expected, n, df)
        except (DegenerateReferenceError, InputError) as exc:
            _fail(1, str(exc))
        notes = [
            f"single-point series at normalized threshold k/n = {_fr(t_norm)!r}",
            "blue is the threshold color (top-k partners), so its expected "
            "fraction is (k/n)^3",
        ]
        _print_chi2("trade", rows, significance, notes)
        written += _emit_chi2(out, "trade", n, df, significance, observed,
                              expected, rows, notes, fmt)
        cfg = RunConfig(
            command="chi2", inputs=(str(input_path),), fmt=fmt, kind=kind,
            df=df, k=k, significance=significance, out_dir=str(out),
        )
        written.append(report.write_manifest(out, "chi2", cfg.to_dict(), {"flows": input_path}))
    click.echo(f"wrote {len(written)} files to {out}")


# ---------------------------------------------------------------- trade


@main.command("trade")
@click.option("--input", "input_path", required=True, type=click.Path(path_type=Path))
@click.option("--k", type=int, default=5, show_default=True)
@click.option("--orders", default="3,4,5", show_default=True,
              help="Comma-separated clique orders to census (3..5).")
@click.option("--density-vertex", "density_vertex", multiple=True,
              help="Country label(s) to report blue neighborhood density for.")
@click.option("--clique-budget", type=int, default=10**8, show_default=True)
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv",
              show_default=True)
@click.option("--out-dir", default=None)
def cmd_trade(input_path, k, orders, density_vertex, clique_budget, fmt, out_dir):
    """Census and extremal structure of a top-k trade partner graph."""
    orders = _parse_orders(orders, minimum=3)
    flows = _load_flows(input_path)
    try:
        graph = ingest.build_trade_graph(flows, k)
    except InputError as exc:
        _fail(1, str(exc))
    out = _resolve_out_dir(out_dir)
    n = graph.n

    degrees = sorted(
        ((graph.degree(v, Color.BLUE), graph.label_of(v)) for v in range(n)),
        key=lambda p: (-p[0], p[1]),
    )
    mean_blue_degree = 2 * graph.blue_edge_count / n

    goodman = bounds_lib.goodman_fraction(n)
    censuses = []
    reports = []
    for m in orders:
        try:
            c = census_lib.clique_census(graph, m)
        except InputError as exc:
            _fail(1, str(exc))
        if m == 3:
            ref_kind, ref = "goodman", _fr(goodman.forced_fraction)
        else:
            ref_kind, ref = "thomason", bounds_lib.thomason_bound(m)
        stat = (_fr(c.mono_fraction) - ref) ** 2 / ref
        rep = stats.Chi2Report(
            statistic=stat, df=1, p_value=stats.p_value(stat, 1),
            kind=stats.Chi2Kind.VS_GOODMAN,
        )
        censuses.append((c, ref_kind, ref, rep))
        reports.append(rep)
    bar = stats.bar_chi2(reports)

    tri = next((c for c, *_ in censuses if c.m == 3), None)
    bias = None
    if tri is not None:
        try:
            bias = stats.bias_summary(tri)
        except UndefinedBiasError:
            bias = None
    else:
        tri = census_lib.triangle_census(graph)

    trans = census_lib.transitivity_from_census(tri)
    max_blue = census_lib.max_clique(graph, Color.BLUE, clique_budget)
    max_indep = census_lib.max_clique(graph, Color.RED, clique_budget)

    densities = {}
    labels = graph.labels or tuple(str(v) for v in range(n))
    for label in density_vertex:
        if label not in labels:
            _fail(1, f"no vertex labelled {label!r} in the trade graph")
        v = labels.index(label)
        try:
            densities[label] = _fr(census_lib.neighborhood_density(graph, v, Color.BLUE))
        except UndefinedDensityError:
            densities[label] = None

    def clique_doc(result):
        return {
            "size": result.size,
            "witness": [labels[v] for v in result.witness],
            "is_lower_bound": result.is_lower_bound,
            "nodes_explored": result.nodes_explored,
        }

    doc = {
        "command": "trade",
        "n": n,
        "k": k,
        "blue_edges": graph.blue_edge_count,
        "red_edges": graph.red_edge_count,
        "mean_blue_degree": mean_blue_degree,
        "top_blue_degrees": [
            {"label": label, "degree": deg} for deg, label in degrees[:5]
        ],
        "max_blue_clique": clique_doc(max_blue),
        "max_blue_independent_set": clique_doc(max_indep),
        "census": [
            {
                "m": c.m,
                "total": c.total,
                "red_count": c.red_count,
                "blue_count": c.blue_count,
                "mono": c.mono,
                "mono_fraction": _fr(c.mono_fraction),
                "reference_kind": ref_kind,
                "reference": ref,
                "chi2": rep.statistic,
                "p_value": rep.p_value,
            }
            for c, ref_kind, ref, rep in censuses
        ],
        "bar_chi2": bar,
        "bias": None if bias is None else {
            "red_share": _fr(bias.red_share),
            "blue_share": _fr(bias.blue_share),
            "bias_ratio": bias.bias_ratio,
        },
        "transitivity": {
            "mono": trans.mono,
            "mono_paths2": trans.mono_paths2,
            "completion_ratio": _fr(trans.completion_ratio),
        },
        "densities": densities,
        "goodman": goodman,
    }

    written = []
    if fmt == "csv":
        summary = out / "trade_summary.csv"
        kv = [
            ("n", n),
            ("k", k),
            ("blue_edges", graph.blue_edge_count),
            ("red_edges", graph.red_edge_count),
            ("mean_blue_degree", mean_blue_degree),
            ("goodman_fraction", _fr(goodman.forced_fraction)),
            ("bar_chi2", bar),
            ("completion_ratio", _fr(trans.completion_ratio)),
            ("mono_paths2", trans.mono_paths2),
            ("max_blue_clique_size", max_blue.size),
            ("max_blue_clique", " ".join(labels[v] for v in max_blue.witness)),
            ("max_blue_clique_lower_bound_only", max_blue.is_lower_bound),
            ("max_blue_independent_set_size", max_indep.size),
            ("max_blue_independent_set", " ".join(labels[v] for v in max_indep.witness)),
            ("max_blue_independent_set_lower_bound_only", max_indep.is_lower_bound),
        ]
        for i, (deg, label) in enumerate(degrees[:5], start=1):
            kv.append((f"top_blue_degree_{i}", f"{label}={deg}"))
        if bias is not None:
            kv += [
                ("red_share", _fr(bias.red_share)),
                ("blue_share", _fr(bias.blue_share)),
                ("bias_ratio", bias.bias_ratio),
            ]
        for label, value in densities.items():
            kv.append((f"density_{label}", "undefined" if value is None else value))
        report.write_csv(summary, ["key", "value"], kv)
        written.append(summary)

        census_path = out / "trade_census.csv"
        report.write_csv(
            census_path,
            ["m", "total", "red_count", "blue_count", "mono", "mono_fraction",
             "reference_kind", "reference", "chi2", "p_value"],
            [
                (c.m, c.total, c.red_count, c.blue_count, c.mono,
                 _fr(c.mono_fraction), ref_kind, ref, rep.statistic, rep.p_value)
                for c, ref_kind, ref, rep in censuses
            ],
        )
        written.append(census_path)
    else:
        path = out / "trade.json"
        report.write_json(path, doc)
        written.append(path)

    cfg = RunConfig(
        command="trade", inputs=(str(input_path),), fmt=fmt, k=k,
        orders=orders, density_vertex=tuple(density_vertex),
        clique_budget=clique_budget, out_dir=str(out),
    )
    written.append(report.write_manifest(out, "trade", cfg.to_dict(), {"flows": input_path}))

    click.echo(
        f"trade graph: n={n}, blue edges {graph.blue_edge_count}, "
        f"mean blue degree {mean_blue_degree:.1f}"
    )
    click.echo("top blue degrees: " + ", ".join(
        f"{label}={deg}" for deg, label in degrees[:5]
    ))
    click.echo(
        f"max blue clique {max_blue.size}"
        f"{' (lower bound)' if max_blue.is_lower_bound else ''}: "
        + " ".join(labels[v] for v in max_blue.witness)
    )
    click.echo(
        f"max blue independent set {max_indep.size}"
        f"{' (lower bound)' if max_indep.is_lower_bound else ''}"
    )
    body = [
        [c.m, _fmt3(c.mono_fraction), ref_kind, f"{ref:.5f}", f"{rep.statistic:.3f}"]
        for c, ref_kind, ref, rep in censuses
    ]
    click.echo(report.format_table(["m", "mono", "ref_kind", "ref", "chi2"], body))
    click.echo(f"bar chi2 {bar:.3f}, completion ratio {_fmt3(trans.completion_ratio)}")
    for label, value in densities.items():
        shown = "undefined" if value is None else f"{value:.4f}"
        click.echo(f"blue neighborhood density of {label}: {shown}")
    click.echo(f"wrote {len(written)} files to {out}")
    if max_blue.is_lower_bound or max_indep.is_lower_bound:
        _fail(4, "clique search node budget exceeded; sizes are lower bounds")


# ------------------------------------------------------------- simulate


@main.command("simulate")
@click.option("--n", type=int, default=20, show_default=True)
@click.option("--t-min", type=float, default=0.0, show_default=True)
@click.option("--t-max", type=float, default=1.0, show_default=True)
@click.option("--t-step", type=float, default=0.05, show_default=True)
@click.option("--samples", type=int, default=2000, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--exhaustive", is_flag=True, default=False,
              help="Enumerate all colorings instead of sampling (small n only).")
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv",
              show_default=True)
@click.option("--out-dir", default=None)
def cmd_simulate(n, t_min, t_max, t_step, samples, seed, exhaustive, fmt, out_dir):
    """Monte Carlo monochromatic counts against the analytic expectation."""
    out = _resolve_out_dir(out_dir)
    cfg = RunConfig(
        command="simulate", fmt=fmt, t_min=t_min, t_max=t_max, t_step=t_step,
        samples=samples, seed=seed, n=n, exhaustive=exhaustive, out_dir=str(out),
    )
    written = []
    if exhaustive:
        try:
            distribution = Counter(
                census_lib.triangle_census(c).mono for c in enumerate_colorings(n)
            )
        except InputError as exc:
            _fail(1, str(exc))
        rows = sorted(distribution.items())
        floor = bounds_lib.goodman_min(n)
        if fmt == "csv":
            path = out / "simulate_exhaustive.csv"
            report.write_csv(path, ["mono", "colorings"], rows)
        else:
            path = out / "simulate_exhaustive.json"
            report.write_json(path, {
                "command": "simulate",
                "mode": "exhaustive",
                "n": n,
                "colorings": 2 ** comb(n, 2),
                "goodman_floor": floor,
                "min_mono": rows[0][0],
                "max_mono": rows[-1][0],
                "distribution": [{"mono": m, "colorings": c} for m, c in rows],
            })
        written.append(path)
        click.echo(
            f"exhaustive n={n}: {2 ** comb(n, 2)} colorings, "
            f"mono range [{rows[0][0]}, {rows[-1][0]}], goodman floor {floor}"
        )
    else:
        if samples < 1:
            _fail(1, f"samples must be >= 1, got {samples}")
        try:
            step = Fraction(str(t_step))
            lo = Fraction(str(t_min))
            hi = Fraction(str(t_max))
        except ValueError:
            _fail(1, "bad t grid values")
        if step <= 0:
            _fail(1, f"t-step must be positive, got {t_step}")
        if not (0 <= lo <= hi <= 1):
            _fail(1, "need 0 <= t-min <= t-max <= 1")
        grid = []
        tau = lo
        while tau <= hi:
            grid.append(tau)
            tau += step
        master = random.Random(seed)
        rows = []
        for tau in grid:
            analytic = _fr(bounds_lib.expected_mono(n, 3, tau).expected_mono)
            counts = [
                census_lib.triangle_census(
                    ingest.random_coloring(n, float(tau), master.getrandbits(63))
                ).mono
                for _ in range(samples)
            ]
            mean = statistics.fmean(counts)
            stderr = statistics.stdev(counts) / sqrt(samples) if samples > 1 else 0.0
            rows.append((_fr(tau), analytic, mean, stderr))
        floor = bounds_lib.goodman_min(n)
        if fmt == "csv":
            path = out / "simulate.csv"
            report.write_csv(path, ["t", "analytic", "empirical", "stderr"], rows)
        else:
            path = out / "simulate.json"
            report.write_json(path, {
                "command": "simulate",
                "mode": "monte-carlo",
                "n": n,
                "samples": samples,
                "seed": seed,
                "goodman_floor": floor,
                "rows": [
                    {"t": t, "analytic": a, "empirical": e, "stderr": s}
                    for t, a, e, s in rows
                ],
            })
        written.append(path)
        body = [
            [f"{t:.3f}", f"{a:.2f}", f"{e:.2f}", f"{s:.3f}"] for t, a, e, s in rows
        ]
        click.echo(report.format_table(["t", "analytic", "empirical", "stderr"], body))
        click.echo(f"goodman floor {floor} monochromatic triangles at n={n}")
    written.append(report.write_manifest(out, "simulate", cfg.to_dict(), {}))
    click.echo(f"wrote {len(written)} files to {out}")


# --------------------------------------------------------------- bounds


@main.command("bounds")
@click.option("--n-min", type=int, default=3, show_default=True)
@click.option("--n-max", type=int, default=30, show_default=True)
@click.option("--orders", default="4,5,6", show_default=True,
              help="Clique orders for the upper-bound table (each >= 4).")
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv",
              show_default=True)
@click.option("--out-dir", default=None)
def cmd_bounds(n_min, n_max, orders, fmt, out_dir):
    """Forced-floor and minimal-fraction reference tables."""
    orders = _parse_orders(orders, minimum=4)
    if n_min < 3:
        _fail(1, f"n-min must be >= 3, got {n_min}")
    if n_min > n_max:
        _fail(1, f"empty n range [{n_min}, {n_max}]")
    out = _resolve_out_dir(out_dir)
    floors = [bounds_lib.goodman_fraction(n) for n in range(n_min, n_max + 1)]
    uppers = [(m, bounds_lib.thomason_bound(m)) for m in orders]
    written = []
    if fmt == "csv":
        path = out / "bounds_goodman.csv"
        report.write_csv(
            path,
            ["n", "forced_count", "forced_fraction", "asymptotic_fraction",
             "floorless_fraction"],
            [
                (b.n, b.forced_count, _fr(b.forced_fraction),
                 _fr(b.asymptotic_fraction), _fr(b.floorless_fraction))
                for b in floors
            ],
        )
        written.append(path)
        path = out / "bounds_thomason.csv"
        report.write_csv(path, ["m", "upper_bound"], uppers)
        written.append(path)
    else:
        path = out / "bounds.json"
        report.write_json(path, {
            "command": "bounds",
            "goodman": floors,
            "thomason": [{"m": m, "upper_bound": u} for m, u in uppers],
        })
        written.append(path)
    cfg = RunConfig(
        command="bounds", fmt=fmt, n_min=n_min, n_max=n_max, orders=orders,
        out_dir=str(out),
    )
    written.append(report.write_manifest(out, "bounds", cfg.to_dict(), {}))
    body = [
        [b.n, b.forced_count, f"{float(b.forced_fraction):.4f}",
         f"{float(b.asymptotic_fraction):.4f}"]
        for b in floors[: min(len(floors), 20)]
    ]
    click.echo(report.format_table(["n", "forced", "fraction", "asymptotic"], body))
    click.echo(", ".join(f"K{m} upper bound {u:.5f}" for m, u in uppers))
    click.echo(f"wrote {len(written)} files to {out}")


if __name__ == "__main__":
    main()
