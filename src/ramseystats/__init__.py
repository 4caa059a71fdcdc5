"""Monochromatic clique censuses and deviation statistics on
two-colored complete graphs.

Any two-coloring of a large complete graph is forced to carry a floor
of monochromatic triangles; this package measures how far real
dataset-derived colorings sit above that floor. It bundles exact
censuses (triangles through K5), the closed-form floors and random
baselines, chi-squared deviation reports, and ingestion for vote
records and trade flows, plus a CLI wrapping the common pipelines.
"""

from .bounds import (
    GoodmanBound,
    expected_mono,
    goodman_fraction,
    goodman_min,
    thomason_bound,
)
from .census import (
    CliqueCensus,
    MaxCliqueResult,
    clique_census,
    max_clique,
    mono_distribution,
    mono_triangles,
    neighborhood_density,
    per_vertex_triangles,
    triangle_census,
)
from .coloring import (
    Color,
    TwoColoring,
    from_blue_edges,
    path_count,
)
from .errors import (
    DegenerateReferenceError,
    InputError,
    ParseError,
    UndefinedDensityError,
    UnsupportedOrderError,
)
from .ingest import (
    DistanceMatrix,
    SweepTable,
    TradeFlow,
    VoterRecord,
    build_trade_graph,
    hamming_matrix,
    parse_trade_flows,
    parse_votes,
    party_indices,
    random_blue_degrees,
    random_coloring,
    sweep,
    vote_sweeps,
)
from .stats import (
    Chi2Report,
    bar_chi2,
    chi2,
    chi2_deviation,
    chi2_vs_goodman,
    p_value,
)

__version__ = "0.1.0"  # the one declaration; pyproject.toml reads it

__all__ = [
    "Chi2Report",
    "CliqueCensus",
    "Color",
    "DegenerateReferenceError",
    "DistanceMatrix",
    "GoodmanBound",
    "InputError",
    "MaxCliqueResult",
    "ParseError",
    "SweepTable",
    "TradeFlow",
    "TwoColoring",
    "UndefinedDensityError",
    "UnsupportedOrderError",
    "VoterRecord",
    "bar_chi2",
    "build_trade_graph",
    "chi2",
    "chi2_deviation",
    "chi2_vs_goodman",
    "clique_census",
    "expected_mono",
    "from_blue_edges",
    "goodman_fraction",
    "goodman_min",
    "hamming_matrix",
    "max_clique",
    "mono_distribution",
    "mono_triangles",
    "neighborhood_density",
    "p_value",
    "parse_trade_flows",
    "parse_votes",
    "party_indices",
    "path_count",
    "per_vertex_triangles",
    "random_blue_degrees",
    "random_coloring",
    "sweep",
    "thomason_bound",
    "triangle_census",
    "vote_sweeps",
]
