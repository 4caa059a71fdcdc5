import sys

import pytest

import ramseystats as rs

PUBLIC = [
    "Chi2Report", "CliqueCensus", "Color", "DegenerateReferenceError", "DistanceMatrix",
    "GoodmanBound", "InputError", "MaxCliqueResult", "ParseError", "SweepTable",
    "TradeFlow", "TwoColoring", "UndefinedDensityError", "UnsupportedOrderError",
    "VoterRecord", "bar_chi2", "build_trade_graph", "chi2", "chi2_deviation",
    "chi2_vs_goodman", "clique_census", "expected_mono", "from_blue_edges",
    "goodman_fraction", "goodman_min", "max_clique", "mono_distribution", "mono_triangles",
    "neighborhood_density", "p_value", "parse_trade_flows", "parse_votes", "path_count",
    "per_vertex_triangles", "random_coloring", "random_mono_counts", "thomason_bound",
    "triangle_census", "vote_sweeps",
]


def test_all_lists_the_public_names():
    assert rs.__all__ == PUBLIC
    assert rs.__version__ == "0.1.0"


def test_public_names_are_their_home_modules_objects():
    listed = dir(rs)
    for name in PUBLIC:
        obj = getattr(rs, name)
        home = sys.modules[obj.__module__]
        assert home.__name__.startswith("ramseystats."), name
        assert getattr(home, name) is obj, name
        assert name in listed, name


def test_star_import_binds_every_public_name():
    ns = {}
    exec("from ramseystats import *", ns)
    assert sorted(set(ns) - {"__builtins__"}) == PUBLIC
    assert all(ns[name] is getattr(rs, name) for name in PUBLIC)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="'ramseystats' has no attribute 'nope'"):
        rs.nope
    assert not hasattr(rs, "nope")


def test_votes_have_one_path():
    # vote_sweeps is the votes entry point; the matrix routes are in tests/oracles.py
    for name in ("hamming_matrix", "party_indices", "sweep"):
        with pytest.raises(AttributeError, match=f"has no attribute '{name}'"):
            getattr(rs, name)
    assert not hasattr(rs.DistanceMatrix, "submatrix")
    # DistanceMatrix stays, with its own __init__, because the benchmark tracer wraps
    # cls.__dict__["__init__"] of each of its VALIDATING_CLASSES (perfbench/tracing.py)
    for cls in (rs.DistanceMatrix, rs.TwoColoring):
        assert "__init__" in vars(cls), cls.__name__


def test_submodules_import_from_the_package():
    from ramseystats import ingest, stats

    assert ingest is sys.modules["ramseystats.ingest"]
    assert stats.chi2 is rs.chi2
