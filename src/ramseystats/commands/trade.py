"""trade: census and extremal structure of a top-k trade partner graph."""

import contextlib

from .. import bounds as bounds_lib, report, stats
from ..coloring import Color
from ..errors import UndefinedDensityError
from ..trade import census as census_lib, ingest
from . import _fail, _finish, _load, _parse_orders, _report, _resolve_out_dir


def main(run, input_path, k, orders, density_vertex, clique_budget, fmt, out_dir):
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
