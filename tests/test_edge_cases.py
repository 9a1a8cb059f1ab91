"""Structures that exercise the awkward corners: bridges that force descents,
parallel arcs carrying branches, bands ending exactly on vertex levels, and
repeated values across non-adjacent vertices."""

import random
from fractions import Fraction as F

import pytest

from reebmetrics import (
    Diagram,
    DiagramPoint,
    InvalidGraphError,
    MergeParams,
    ReebGraph,
    canonicalize,
    contraction_path,
    extended_diagram,
    graph_bottleneck,
    merge,
    path_length,
    simplify,
    snap_diagram,
    travel_distance,
    validate,
)
from reebmetrics.distortion import _monotone_spine


def staircase_bridge() -> ReebGraph:
    # two towers joined by a bridge; no monotone path from min to max
    return ReebGraph(
        [("a0", 0), ("a3", 3), ("a5", 5), ("b1", 1), ("b2", 2), ("b10", 10)],
        [
            ("a0", "a3"),
            ("a3", "a5"),
            ("b1", "b2"),
            ("b2", "b10"),
            ("b2", "a3"),
        ],
    )


def test_staircase_is_valid_but_has_no_spine():
    g = staircase_bridge()
    assert validate(g).ok
    with pytest.raises(ValueError, match="needs an ascending path") as caught:
        _monotone_spine(g)
    assert not isinstance(caught.value, InvalidGraphError)  # the graph is valid


def test_staircase_diagram_and_simplify():
    g = staircase_bridge()
    d = extended_diagram(g)
    assert d.of_kind("Ext0") == (DiagramPoint("Ext0", 0, 10),)
    # tower A's top is an upward branch, the lower minima downward ones
    assert len(d.of_kind("Rel1")) == 1
    result = simplify(g, 6)
    out = extended_diagram(result.graph)
    assert all(p.diagonal_distance > 3 for p in out)


def test_staircase_contraction_path():
    p = contraction_path(staircase_bridge(), 2)
    assert len(p.steps[-1][1].vertex_ids) == 1
    total = path_length(p, "fd_upper").total
    assert path_length(p, "bottleneck").total <= 2 * total


def test_staircase_travel_distance_crosses_bridge():
    g = staircase_bridge()
    x = g.vertex_point("a0")
    y = g.vertex_point("b10")
    # any route passes the bridge at 2..3, so the span is the full range
    assert travel_distance(g, x, y) == 10


def test_branch_on_parallel_arc():
    g = ReebGraph(
        [("bot", 0), ("p", 1), ("m", F("0.5")), ("top", 2)],
        [("bot", "top"), ("bot", "p"), ("p", "top"), ("p", "m")],
    )
    d = extended_diagram(g)
    assert d == Diagram(
        [
            DiagramPoint("Ord0", F("0.5"), 1),
            DiagramPoint("Ext0", 0, 2),
            DiagramPoint("Ext1", 2, 0),
        ]
    )
    params = MergeParams(F("0.4"), F("1.1"))
    assert extended_diagram(merge(g, params)) == snap_diagram(d, params)


def test_band_boundary_on_vertex_levels():
    g = ReebGraph(
        [("a", 0), ("b", 1), ("c", 2), ("d", 3)],
        [("a", "c"), ("b", "c"), ("c", "d")],
    )
    # band exactly [1, 2]: both the fork and the shallow minimum lie on the rim
    merged = merge(g, MergeParams(1, 2))
    assert extended_diagram(merged) == Diagram(
        [DiagramPoint("Ext0", 0, 3)]
    )
    assert graph_bottleneck(g, merged) == F(1, 2)


def test_equal_values_on_non_adjacent_vertices():
    g = ReebGraph(
        [("a", 0), ("t1", 1), ("t2", 1), ("s1", 2), ("s2", 3), ("top", 4)],
        [("a", "s1"), ("t1", "s1"), ("s1", "s2"), ("t2", "s2"), ("s2", "top")],
    )
    assert validate(g).ok
    params = MergeParams(F(1, 2), F(3, 2))
    assert extended_diagram(merge(g, params)) == snap_diagram(
        extended_diagram(g), params
    )
    result = simplify(g, F(5, 2))
    assert all(p.diagonal_distance > F(5, 4) for p in extended_diagram(result.graph))


def test_merge_band_covering_one_endpoint_of_every_edge():
    cyc = ReebGraph(
        [("bot", 0), ("top", 3)], [("bot", "top"), ("bot", "top")]
    )
    merged = merge(cyc, MergeParams(F("2.5"), F("3.5")))
    assert extended_diagram(merged) == Diagram(
        [DiagramPoint("Ext0", 0, 3), DiagramPoint("Ext1", 3, 0)]
    )


def test_double_subdivided_parallel_edges_canonicalize():
    g = ReebGraph(
        [("bot", 0), ("x", 1), ("y", 2), ("top", 3)],
        [("bot", "x"), ("x", "top"), ("bot", "y"), ("y", "top")],
    )
    out = canonicalize(g)
    assert len(out.vertex_ids) == 2
    assert len(out.edges) == 2


def test_simplify_is_stable_under_repeated_application():
    rng = random.Random(99)
    for _ in range(10):
        from reebmetrics import random_graph

        g = random_graph(rng, n_critical=rng.randint(4, 8))
        alpha = g.span() / 4
        once = simplify(g, alpha)
        twice = simplify(once.graph, alpha)
        assert twice.graph == once.graph
        assert twice.certificate == 0
