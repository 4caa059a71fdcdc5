"""Monochromatic clique censuses and deviation statistics on
two-colored complete graphs.

Any two-coloring of a large complete graph is forced to carry a floor
of monochromatic triangles; this package measures how far real
dataset-derived colorings sit above that floor. It bundles exact
censuses (triangles through K5), the closed-form floors and random
baselines, chi-squared deviation reports, and ingestion for vote
records and trade flows, plus a CLI wrapping the common pipelines.

Each public name is declared once, in _EXPORTS, and its module is
imported on first access (PEP 562), so a CLI command loads only the
modules it runs.
"""

import importlib

__version__ = "0.1.0"  # the one declaration; pyproject.toml reads it

# public name -> the module that defines it
_EXPORTS = {
    **dict.fromkeys(("GoodmanBound", "expected_mono", "goodman_fraction", "goodman_min",
                     "thomason_bound"), "bounds"),
    **dict.fromkeys(("CliqueCensus", "mono_distribution", "mono_triangles", "random_coloring",
                     "random_mono_counts"), "census"),
    **dict.fromkeys(("MaxCliqueResult", "clique_census", "max_clique", "neighborhood_density",
                     "per_vertex_triangles", "triangle_census"), "trade.census"),
    **dict.fromkeys(("Color", "TwoColoring", "from_blue_edges", "path_count"), "coloring"),
    **dict.fromkeys(("DegenerateReferenceError", "InputError", "ParseError",
                     "UndefinedDensityError", "UnsupportedOrderError"), "errors"),
    **dict.fromkeys(("DistanceMatrix", "SweepTable", "VoterRecord", "parse_votes",
                     "vote_sweeps"), "ingest"),
    **dict.fromkeys(("TradeFlow", "build_trade_graph", "parse_trade_flows"), "trade.ingest"),
    **dict.fromkeys(("Chi2Report", "bar_chi2", "chi2", "chi2_deviation", "chi2_vs_goodman",
                     "p_value"), "stats"),
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS})
