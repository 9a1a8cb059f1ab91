import sys
from fractions import Fraction as F

from reebmetrics import (
    ReebGraph,
    cycle,
    figure1_left,
    figure1_right,
    is_level_isomorphic,
    level_isomorphism,
    segment,
    structure_isomorphisms,
    y_graph,
)


def relabeled(g: ReebGraph, suffix: str) -> ReebGraph:
    mapping = {v: f"{v}{suffix}" for v in g.vertex_ids}
    return ReebGraph(
        [(mapping[v], g.value(v)) for v in g.vertex_ids],
        [(mapping[u], mapping[v]) for u, v in g.edges],
    )


def test_y_isomorphic_to_relabeling():
    y = y_graph()
    other = relabeled(y, "_x")
    mapping = level_isomorphism(y, other)
    assert mapping is not None
    assert all(mapping[v] == f"{v}_x" for v in y.vertex_ids)


def test_witness_preserves_values_and_edges():
    g = figure1_left()
    other = relabeled(g, "_z")
    mapping = level_isomorphism(g, other)
    assert mapping is not None
    for v in g.vertex_ids:
        assert g.value(v) == other.value(mapping[v])
    from collections import Counter

    mapped = Counter(tuple(sorted((mapping[u], mapping[v]))) for u, v in g.edges)
    actual = Counter(tuple(sorted(e)) for e in other.edges)
    assert mapped == actual


def test_figure1_pair_not_isomorphic():
    assert not is_level_isomorphic(figure1_left(), figure1_right())


def test_value_mismatch_not_isomorphic():
    assert not is_level_isomorphic(segment(0, 3), segment(0, 2))


def test_multiplicity_matters():
    one = segment()
    two = cycle()
    assert not is_level_isomorphic(one, two)


def test_parallel_edges_match():
    assert is_level_isomorphic(cycle(), relabeled(cycle(), "_c"))


def test_branch_position_distinguishes():
    # same value multisets, branch attached to different arcs of a fork
    left = ReebGraph(
        [("a", 0), ("b", 1), ("c", 2), ("m", F("2.5")), ("d", 3), ("e", 4)],
        [("a", "c"), ("b", "c"), ("c", "m"), ("m", "d"), ("m", "e")],
    )
    right = ReebGraph(
        [("a", 0), ("b", 1), ("c", 2), ("m", F("2.5")), ("d", 3), ("e", 4)],
        [("a", "c"), ("b", "c"), ("c", "m"), ("m", "d"), ("m", "e")],
    )
    assert is_level_isomorphic(left, right)


def test_structure_isomorphism_ignores_values():
    y = y_graph()
    stretched = y.with_values({"b": F("1.2"), "c": F("2.2")})
    isos = structure_isomorphisms(y, stretched)
    assert any(all(s[v] == v for v in y.vertex_ids) for s in isos)


def test_structure_isomorphism_respects_orientation():
    up = ReebGraph([("a", 0), ("b", 1), ("c", 2)], [("a", "b"), ("b", "c"), ("a", "c")])
    # same multigraph, but the long edge now points the other way in values
    down = ReebGraph([("a", 2), ("b", 1), ("c", 0)], [("a", "b"), ("b", "c"), ("a", "c")])
    isos = structure_isomorphisms(up, down)
    for sigma in isos:
        for u, v in up.edges:
            o1 = up.value(u) < up.value(v)
            o2 = down.value(sigma[u]) < down.value(sigma[v])
            assert o1 == o2


def test_structure_isomorphism_none_for_different_shapes():
    assert structure_isomorphisms(figure1_left(), figure1_right()) == []


def test_level_isomorphism_at_scale_within_recursion_limit():
    assert sys.getrecursionlimit() <= 1000
    # a 1500-vertex comb: trunk t0 < t1 < ... with a downward tooth below
    # each trunk vertex, every value distinct
    vertices, edges = [], []
    for i in range(750):
        vertices += [(f"t{i}", 2 * i + 1), (f"d{i}", F(2 * i + 1, 2))]
        edges.append((f"d{i}", f"t{i}"))
        if i:
            edges.append((f"t{i - 1}", f"t{i}"))
    comb = ReebGraph(vertices, edges)
    other = relabeled(comb, "_r")
    mapping = level_isomorphism(comb, other)
    assert mapping is not None
    assert all(mapping[v] == f"{v}_r" for v in comb.vertex_ids)
    # swapping the top two teeth keeps every degree profile, so the search
    # fails only at t748 and unwinds through every earlier vertex
    swapped = [e for e in edges if e not in (("d748", "t748"), ("d749", "t749"))]
    swapped += [("d748", "t749"), ("d749", "t748")]
    assert not is_level_isomorphic(comb, ReebGraph(vertices, swapped))
