"""chi2: chi-squared deviation reports for a votes sweep or a trade graph."""

from __future__ import annotations

from fractions import Fraction

from .. import bounds as bounds_lib, report, stats
from . import _fail, _finish, _load, _reject_options, _report, _resolve_out_dir, _safe_name
from . import _votes_sweeps


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


def main(run, input_path, kind, subgroups, t_min, t_max, df, k, significance, fmt, out_dir):
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
        from ..trade import census as census_lib, ingest

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
