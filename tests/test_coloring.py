import pytest

import oracles
import ramseystats as rs
from ramseystats import Color


def test_red_rows_complement_blue():
    c = rs.from_blue_edges(4, [(0, 1), (2, 3)])
    for i in range(4):
        combined = c.blue_rows[i] | c.red_rows[i] | (1 << i)
        assert combined == (1 << 4) - 1
        assert c.blue_rows[i] & c.red_rows[i] == 0


def test_has_edge_and_degree():
    c = rs.from_blue_edges(5, [(0, 1), (0, 2)])
    assert c.has_edge(0, 1, Color.BLUE)
    assert not c.has_edge(0, 1, Color.RED)
    assert c.has_edge(3, 4, Color.RED)
    assert not c.has_edge(2, 2, Color.BLUE)
    assert not c.has_edge(2, 2, Color.RED)
    assert c.degree(0, Color.BLUE) == 2
    assert c.degree(0, Color.RED) == 2
    assert c.blue_edge_count == 2
    assert c.red_edge_count == 8


def test_blue_edges_roundtrip():
    edges = [(0, 2), (1, 3), (2, 4)]
    c = rs.from_blue_edges(5, edges)
    assert c.blue_edges() == tuple(sorted(edges))


def test_labels():
    c = rs.from_blue_edges(2, [(0, 1)], labels=["x", "y"])
    assert c.labels == ("x", "y")
    assert rs.from_blue_edges(2, [(0, 1)]).labels is None


def test_construction_validation():
    with pytest.raises(rs.InputError):
        rs.TwoColoring(0, ())
    with pytest.raises(rs.InputError):
        rs.TwoColoring(2, (0,))
    with pytest.raises(rs.InputError):
        rs.TwoColoring(2, (0b10, 0b00))  # asymmetric
    with pytest.raises(rs.InputError):
        rs.TwoColoring(2, (0b01, 0b10))  # loop at 0
    with pytest.raises(rs.InputError):
        rs.TwoColoring(2, (0b100, 0b000))  # bit out of range
    with pytest.raises(rs.InputError):
        rs.from_blue_edges(3, [(0, 3)])
    with pytest.raises(rs.InputError):
        rs.from_blue_edges(3, [(1, 1)])
    with pytest.raises(rs.InputError):
        rs.TwoColoring(2, (0b10, 0b01), labels=("only",))


@pytest.mark.parametrize("call", [
    lambda c, color: c.rows(color),
    lambda c, color: c.has_edge(0, 1, color),
    lambda c, color: c.degree(0, color),
    lambda c, color: rs.path_count(c, color, 1, 0, 1),
    lambda c, color: rs.per_vertex_triangles(c, color),
    lambda c, color: rs.max_clique(c, color),
    lambda c, color: rs.neighborhood_density(c, 0, color),
], ids=["rows", "has_edge", "degree", "path_count", "per_vertex_triangles", "max_clique",
        "neighborhood_density"])
def test_color_must_be_a_color(call):
    # a blue triangle 0-1-2 on n=4: read as red, "blue" would find none
    c = rs.from_blue_edges(4, [(0, 1), (0, 2), (1, 2)])
    for bad in ("blue", "red", None, 0):
        with pytest.raises(rs.InputError):
            call(c, bad)


def test_path_count_star():
    # two blue walks of length 2 leave 1 via the center; exactly one ends at 2
    c = rs.from_blue_edges(6, [(0, 1), (0, 2), (0, 3), (0, 4)])
    assert rs.path_count(c, Color.BLUE, 2, 1, 2) == 1
    assert rs.path_count(c, Color.BLUE, 2, 1, 1) == 1
    assert rs.path_count(c, Color.BLUE, 1, 1, 2) == 0


def test_path_count_matches_matrix_power():
    c = rs.random_coloring(7, 0.4, seed=11)
    for color in (Color.RED, Color.BLUE):
        for k in (1, 2, 3, 4):
            for i in range(7):
                for j in range(7):
                    assert rs.path_count(c, color, k, i, j) == oracles.walk_count(
                        c, color, k, i, j
                    )


def test_path_count_validation():
    c = rs.from_blue_edges(3, [(0, 1)])
    with pytest.raises(rs.InputError):
        rs.path_count(c, Color.BLUE, 0, 0, 1)
    with pytest.raises(rs.InputError):
        rs.path_count(c, Color.BLUE, 2, 0, 3)


def test_enumerate_colorings_small():
    seen = list(oracles.enumerate_colorings(3))
    assert len(seen) == 8
    assert len({c.blue_rows for c in seen}) == 8
    with pytest.raises(rs.InputError):
        next(oracles.enumerate_colorings(8))
