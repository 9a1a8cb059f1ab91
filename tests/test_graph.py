import math
import random
import sys
from collections import Counter, deque
from fractions import Fraction as F
from itertools import chain

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reebmetrics import (
    GraphPoint,
    InvalidGraphError,
    ReebGraph,
    canonicalize,
    critical_values,
    cycle,
    figure1_left,
    figure1_right,
    figure5,
    graph_to_text,
    parse_graph_text,
    is_level_isomorphic,
    linear_path,
    natural_correspondence,
    projection_correspondence,
    random_graph,
    sample_net,
    segment,
    travel_distance,
    travel_distances,
    validate,
    y_graph,
)
from reebmetrics import graph as graph_module
from reebmetrics.generators import _sample_values
from reebmetrics.graph import ValidationReport, _travel_matrix
from reebmetrics.persistence import extended_diagram, reduce_extended_filtration
from reebmetrics.rationals import common_denominator, on_lattice
from value_reference import (
    DisjointSets,
    component_count,
    coprime_cases,
    count_defect_searches,
    dyadic,
    hard_violations,
    location,
    on_primes,
    reference_contains_point,
    reference_validate,
    subdivided_at_thirds,
    value_reading,
)


# ---------------------------------------------------------------------------
# construction and validation
# ---------------------------------------------------------------------------


def test_minimal_segment_is_valid():
    g = ReebGraph([("v0", 0), ("v1", 3)], [("v0", "v1")])
    assert validate(g).ok


def test_level_edge_is_reported():
    g = ReebGraph([("a", 1), ("b", 1)], [("a", "b")])
    report = validate(g)
    assert "level-edge" in report.codes()


def test_disconnected_is_reported():
    g = ReebGraph(
        [("a", 0), ("b", 1), ("c", 2), ("d", 3)],
        [("a", "b"), ("c", "d")],
    )
    assert "disconnected" in validate(g).codes()


def test_component_count_matches_a_search_on_disjoint_unions():
    # seeded disjoint unions of 1-6 random graphs, with isolated vertices and
    # parallel edges, vertices and edges shuffled
    rng = random.Random(2626)
    for trial in range(60):
        vertices, edges = [], []
        parts = rng.randint(1, 6)
        for k in range(parts):
            part = random_graph(rng, n_critical=rng.randint(2, 6))
            vertices += [(f"{k}.{vid}", value) for vid, value in part.vertices()]
            edges += [(f"{k}.{u}", f"{k}.{v}") for u, v in part.edges]
        lone = rng.randint(0, 2)
        vertices += [(f"lone{i}", rng.randint(-3, 3)) for i in range(lone)]
        edges += rng.sample(edges, min(len(edges), rng.randint(0, 3)))  # parallel arcs
        rng.shuffle(vertices)
        rng.shuffle(edges)
        g = ReebGraph(vertices, edges)
        count = component_count(g)
        assert count == parts + lone, trial
        reported = [v.message for v in validate(g).violations if v.code == "disconnected"]
        assert reported == ([f"graph has {count} connected components"] if count > 1 else [])


def test_pass_through_is_reported():
    g = ReebGraph([("a", 0), ("m", 1), ("b", 2)], [("a", "m"), ("m", "b")])
    assert "pass-through" in validate(g).codes()


def test_empty_vertex_set_rejected():
    with pytest.raises(ValueError):
        ReebGraph([], [])


def test_duplicate_id_rejected():
    with pytest.raises(ValueError):
        ReebGraph([("a", 0), ("a", 1)], [])


def test_unknown_edge_endpoint_rejected():
    with pytest.raises(ValueError):
        ReebGraph([("a", 0)], [("a", "zz")])


def test_float_values_rejected():
    with pytest.raises(TypeError):
        ReebGraph([("a", 0.5)], [])


def test_single_vertex_graph_is_valid():
    assert validate(ReebGraph([("a", 1)], [])).ok


# ---------------------------------------------------------------------------
# canonicalization
# ---------------------------------------------------------------------------


def reference_canonicalize(g: ReebGraph) -> ReebGraph:
    """The original quadratic loop: splice one pass-through vertex at a time,
    rebuilding the adjacency and re-sorting the vertices after each, with
    every value comparison made on `Fraction`s."""
    hard = hard_violations(g)
    if hard:
        raise InvalidGraphError(str(ValidationReport(tuple(hard))))

    values = {vid: g.value(vid) for vid in g.vertex_ids}
    edges = list(g.edges)
    changed = True
    while changed:
        changed = False
        adj: dict[str, list[int]] = {vid: [] for vid in values}
        for idx, (u, v) in enumerate(edges):
            if u is None:
                continue
            adj[u].append(idx)
            adj[v].append(idx)
        for vid in sorted(values, key=lambda x: (values[x], x)):
            incident = adj[vid]
            if len(incident) != 2:
                continue
            fv = values[vid]
            others = []
            for idx in incident:
                u, v = edges[idx]
                others.append(u if v == vid else v)
            if len(others) != 2:
                continue
            a, b = others
            if not (values[a] < fv < values[b] or values[b] < fv < values[a]):
                continue
            lo, hi = (a, b) if values[a] < values[b] else (b, a)
            edges[incident[0]] = (lo, hi)
            edges[incident[1]] = (None, None)
            del values[vid]
            changed = True
            break
    kept = [(u, v) for u, v in edges if u is not None]
    return ReebGraph(sorted(values.items(), key=lambda item: (item[1], item[0])), kept, name=g.name)


def comb_parts(rng: random.Random, teeth: int, up_share: float = 0.5):
    """Trunk t0 < t1 < ... with one tooth per trunk vertex above t0, hanging
    down or, with probability `up_share`, standing up."""
    vertices, edges = [("t0", F(0))], []
    for i in range(1, teeth + 1):
        vertices.append((f"t{i}", F(4 * i)))
        edges.append((f"t{i - 1}", f"t{i}"))
        depth = F(rng.randint(1, 12), 4)
        if rng.random() < up_share:
            vertices.append((f"u{i}", 4 * i + depth))
            edges.append((f"t{i}", f"u{i}"))
        else:
            vertices.append((f"d{i}", 4 * i - depth))
            edges.append((f"d{i}", f"t{i}"))
    return vertices, edges


def ladder_parts(rng: random.Random, rungs: int):
    """Rails a0 < a1 < ... and b0 < b1 < ..., joined by the rungs (ai, bi)."""
    vertices, edges = [], []
    for i in range(rungs + 1):
        vertices += [(f"a{i}", F(4 * i)), (f"b{i}", 4 * i + F(rng.randint(1, 12), 4))]
        edges.append((f"a{i}", f"b{i}"))
        if i:
            edges += [(f"a{i - 1}", f"a{i}"), (f"b{i - 1}", f"b{i}")]
    return vertices, edges


def mixed_parts(rng: random.Random, slots: int):
    """Trunk t0 < t1 < ... whose slot i holds a downward tooth, an upward
    tooth or a second arc from t(i-1) to t(i), parallel to the trunk."""
    vertices, edges = [("t0", F(0))], []
    for i in range(1, slots + 1):
        vertices.append((f"t{i}", F(4 * i)))
        edges.append((f"t{i - 1}", f"t{i}"))
        depth = F(rng.randint(1, 12), 4)
        kind = rng.randrange(3)
        if kind == 0:
            vertices.append((f"d{i}", 4 * i - depth))
            edges.append((f"d{i}", f"t{i}"))
        elif kind == 1:
            vertices.append((f"u{i}", 4 * i + depth))
            edges.append((f"t{i}", f"u{i}"))
        else:
            edges.append((f"t{i}", f"t{i - 1}"))
    return vertices, edges


def subdivided_parts(rng: random.Random, vertices, edges, max_chain: int):
    """Put 0 to `max_chain` pass-through vertices on every arc, then shuffle
    the vertex order, the edge order and each edge's endpoint order.

    Some new ids start with "vertex ", the prefix `validate` writes before
    every vertex it reports."""
    values = dict(vertices)
    out_vertices, out_edges = list(vertices), []
    for u, v in edges:
        if values[u] > values[v]:
            u, v = v, u
        lo, hi = values[u], values[v]
        chain = [u]
        for cut in sorted(rng.sample(range(1, 64), rng.randint(0, max_chain))):
            vid = f"{rng.choice(('p', 'p ', 'vertex '))}{len(out_vertices)}"
            out_vertices.append((vid, lo + (hi - lo) * cut / 64))
            chain.append(vid)
        chain.append(v)
        for a, b in zip(chain, chain[1:]):
            out_edges.append((a, b) if rng.random() < 0.5 else (b, a))
    rng.shuffle(out_vertices)
    rng.shuffle(out_edges)
    return out_vertices, out_edges


def canonicalize_cases(seed: int, count: int):
    """Seeded random graphs, combs, ladders and mixed graphs, subdivided."""
    rng = random.Random(seed)
    for case in range(count):
        family = case % 4
        if family == 0:
            g = random_graph(rng, n_critical=rng.randint(3, 7))
            parts = (list(g.vertices()), list(g.edges))
        elif family == 1:
            parts = comb_parts(rng, rng.randint(0, 6))
        elif family == 2:
            parts = ladder_parts(rng, rng.randint(0, 4))
        else:
            parts = mixed_parts(rng, rng.randint(1, 6))
        vertices, edges = subdivided_parts(rng, *parts, max_chain=rng.randint(0, 6))
        yield ReebGraph(vertices, edges, name=rng.choice((None, f"case{case}")))


def test_canonicalize_matches_reference_loop():
    removed = 0
    for g in canonicalize_cases(4242, 240):
        # each edge runs from its (value, id)-lesser end
        assert all((g.value(u), u) < (g.value(v), v) for u, v in g.edges)
        want = reference_canonicalize(g)
        got = canonicalize(g)
        assert got.vertices() == want.vertices()
        assert got.edges == want.edges
        assert got.name == want.name
        removed += len(g.vertex_ids) - len(got.vertex_ids)
    assert removed > 1000


def test_canonicalize_errors_match_reference_loop():
    for case, g in enumerate(canonicalize_cases(77, 40)):
        vertices, edges = list(g.vertices()), list(g.edges)
        if case % 3 != 1:  # a level edge to a new vertex
            vid, value = vertices[case % len(vertices)]
            vertices.append(("level", value))
            edges.append((vid, "level"))
        if case % 3 != 0:  # a second component
            vertices += [("x", F(-2)), ("y", F(-1))]
            edges.append(("y", "x"))
        bad = ReebGraph(vertices, edges)
        with pytest.raises(InvalidGraphError) as want:
            reference_canonicalize(bad)
        with pytest.raises(InvalidGraphError) as got:
            canonicalize(bad)
        assert str(got.value) == str(want.value)


def test_canonicalize_removes_subdivision():
    g = ReebGraph(
        [("a", 0), ("m", F("1.5")), ("b", 3)],
        [("a", "m"), ("m", "b")],
    )
    out = canonicalize(g)
    assert out == ReebGraph([("a", 0), ("b", 3)], [("a", "b")])

    # a 1001-vertex comb with two pass-through vertices on every arc: 3001
    # vertices in, the comb out, at the default recursion limit
    assert sys.getrecursionlimit() <= 1000
    comb = ReebGraph(*comb_parts(random.Random(5), 500, up_share=0))
    subdivided = subdivided_at_thirds(comb)
    assert len(subdivided.vertex_ids) >= 3000
    out = canonicalize(subdivided)
    assert out == comb
    assert out.edges == comb.edges
    assert reduce_extended_filtration(subdivided) == extended_diagram(out)


def test_validate_and_canonicalize_match_fraction_references_on_large_lattices():
    for g, sub in coprime_cases(6011, 4):
        assert len(str(sub.scale)) > 24
        assert validate(g).ok
        report = validate(sub)
        assert report == reference_validate(sub)
        assert report.codes() == ("pass-through",) * 2 * len(g.edges)
        out = canonicalize(sub)
        want = reference_canonicalize(sub)
        assert out.vertices() == want.vertices()
        assert out.edges == want.edges
        assert out == g


def test_canonicalize_idempotent_on_y():
    y = y_graph()
    assert canonicalize(y) == y


def test_canonicalize_subdivided_cycle():
    g = ReebGraph(
        [("bot", 0), ("p", 1), ("q", 2), ("r", F("0.5")), ("s", F("2.5")), ("top", 3)],
        [
            ("bot", "p"),
            ("p", "q"),
            ("q", "top"),
            ("bot", "r"),
            ("r", "s"),
            ("s", "top"),
        ],
    )
    out = canonicalize(g)
    assert is_level_isomorphic(out, cycle())


def test_canonicalize_rejects_level_edge():
    g = ReebGraph([("a", 1), ("b", 1)], [("a", "b")])
    with pytest.raises(InvalidGraphError):
        canonicalize(g)


def test_canonicalize_returns_a_canonical_input_as_is():
    rng = random.Random(37)
    graphs = [segment(), cycle(), y_graph(), figure1_left(), figure1_right()]
    graphs += [figure5(n) for n in range(6)]
    graphs += [random_graph(rng, n_critical=rng.randint(4, 20)) for _ in range(20)]
    # a comb file as `graph_to_text` writes it: vertices in (value, id) order
    teeth = [(f"f{i}", 4 * i + F(7, 2)) for i in range(1, 60)]
    tips = [(f"t{i}", x - F(rng.randint(64, 192), 64)) for i, (_, x) in enumerate(teeth, 1)]
    comb = ReebGraph(
        [("b", 0), *teeth, *tips, ("top", 250)],
        [("b", "f1"), ("f59", "top")]
        + [(f"f{i}", f"f{i + 1}") for i in range(1, 59)]
        + [(f"f{i}", f"t{i}") for i in range(1, 60)],
    )
    graphs.append(parse_graph_text(graph_to_text(comb)))
    for g in graphs:
        assert canonicalize(g) is g, g.name
    # the comb as built lists its tips last: a new graph, sorted
    out = canonicalize(comb)
    assert out is not comb and out == comb and out.edges == comb.edges
    assert out.vertex_ids == graphs[-1].vertex_ids
    # a pass-through vertex: a new graph without it
    chain = ReebGraph([("a", 0), ("m", 1), ("b", 2)], [("a", "m"), ("m", "b")])
    out = canonicalize(chain)
    assert out is not chain and out.vertices() == (("a", 0), ("b", 2))


def test_canonicalize_chain_of_pass_throughs():
    g = ReebGraph(
        [("a", 0), ("m1", 1), ("m2", 2), ("b", 3)],
        [("a", "m1"), ("m1", "m2"), ("m2", "b")],
    )
    out = canonicalize(g)
    assert len(out.vertex_ids) == 2 and len(out.edges) == 1

    # a 5000-vertex monotone chain collapses to its two ends, at the
    # default recursion limit
    assert sys.getrecursionlimit() <= 1000
    n = 5000
    chain = ReebGraph(
        [(f"c{i}", F(i, 3)) for i in range(n)],
        [(f"c{i}", f"c{i + 1}") for i in range(n - 1)],
    )
    out = canonicalize(chain)
    top = f"c{n - 1}"
    assert out.vertices() == (("c0", F(0)), (top, F(n - 1, 3)))
    assert out.edges == (("c0", top),)
    assert reduce_extended_filtration(chain) == extended_diagram(out)


# ---------------------------------------------------------------------------
# critical structure
# ---------------------------------------------------------------------------


def test_critical_values_segment():
    assert list(critical_values(segment())) == [F(0), F(3)]


def test_critical_values_y():
    assert list(critical_values(y_graph())) == [F(0), F(1), F(2), F(3)]


def test_critical_values_cycle():
    assert list(critical_values(cycle())) == [F(0), F(3)]


def test_min_gap():
    assert critical_values(y_graph()).min_gap() == 1
    assert critical_values(segment()).min_gap() == 3
    g = ReebGraph(
        [("a", 0), ("b", F("0.1")), ("c", 5), ("d", 6)],
        [("a", "c"), ("b", "c"), ("c", "d")],
    )
    assert critical_values(g).min_gap() == F("0.1")


def test_min_gap_needs_two_values():
    with pytest.raises(InvalidGraphError):
        critical_values(ReebGraph([("a", 1)], [])).min_gap()


# ---------------------------------------------------------------------------
# travel distance, with an independent brute-force oracle
# ---------------------------------------------------------------------------


def brute_force_travel(g: ReebGraph, x: GraphPoint, y: GraphPoint) -> F:
    """Enumerate simple paths in the split graph and minimize the value span."""
    nodes: dict[object, F] = {("v", v): g.value(v) for v in g.vertex_ids}
    adjacency: dict[object, set[object]] = {k: set() for k in nodes}

    def add_node(key, value):
        nodes[key] = value
        adjacency.setdefault(key, set())

    def link(a, b):
        adjacency[a].add(b)
        adjacency[b].add(a)

    specials = []
    for label, p in (("x", x), ("y", y)):
        if p.vertex is not None:
            specials.append(("v", p.vertex))
        else:
            key = (label,)
            add_node(key, p.value)
            u, v = g.edges[p.edge]
            link(key, ("v", u))
            link(key, ("v", v))
            specials.append(key)
    interior = [k for k in nodes if len(k) == 1]
    for idx, (u, v) in enumerate(g.edges):
        blockers = [
            k
            for k in interior
            if (x.edge == idx and k == ("x",)) or (y.edge == idx and k == ("y",))
        ]
        if not blockers:
            link(("v", u), ("v", v))
    # two interior points on the same edge see each other directly
    if x.edge is not None and x.edge == y.edge and x.vertex is None and y.vertex is None:
        link(("x",), ("y",))

    start, goal = specials
    best = [None]

    def dfs(node, seen, lo, hi):
        lo, hi = min(lo, nodes[node]), max(hi, nodes[node])
        if best[0] is not None and hi - lo >= best[0]:
            return
        if node == goal:
            best[0] = hi - lo
            return
        for nxt in adjacency[node]:
            if nxt not in seen:
                dfs(nxt, seen | {nxt}, lo, hi)

    dfs(start, {start}, nodes[start], nodes[start])
    assert best[0] is not None
    return best[0]


def _window_connected(g: ReebGraph, x: GraphPoint, y: GraphPoint, lo: F, hi: F) -> bool:
    """Can x reach y inside the preimage of [lo, hi]?"""

    def anchors(p: GraphPoint) -> list[str]:
        if p.vertex is not None:
            return [p.vertex] if lo <= p.value <= hi else []
        out = []
        u, v = g.edges[p.edge]
        if lo <= p.value <= hi:
            if lo <= g.value(u) <= hi:
                out.append(u)
            if lo <= g.value(v) <= hi:
                out.append(v)
        return out

    if not (lo <= x.value <= hi and lo <= y.value <= hi):
        return False
    if location(x) == location(y):
        return True
    # two interior points of the same edge reach each other along it
    if x.edge is not None and x.edge == y.edge:
        return True
    start = anchors(x)
    target = set(anchors(y))
    if y.vertex is not None and y.vertex in start:
        return True
    if not start or not target:
        return False
    seen = set(start)
    queue = deque(start)
    while queue:
        v = queue.popleft()
        if v in target:
            return True
        for _, w in g.neighbors(v):
            if w in seen:
                continue
            if lo <= g.value(w) <= hi:
                seen.add(w)
                queue.append(w)
    return bool(seen & target)


def reference_travel_distance(g: ReebGraph, x: GraphPoint, y: GraphPoint) -> F:
    """The per-pair travel distance that `travel_distances` replaced.

    For each window ceiling, binary-search the largest feasible floor with a
    BFS per window; feasibility is monotone in the floor.
    """
    for p in (x, y):
        if not reference_contains_point(g, p):
            raise ValueError(f"point {p} is not on the graph")
    if location(x) == location(y):
        return F(0)
    if x.edge is not None and x.edge == y.edge:
        return abs(x.value - y.value)

    floor = min(x.value, y.value)
    ceil = max(x.value, y.value)
    values = sorted({g.value(v) for v in g.vertex_ids} | {x.value, y.value})
    lows = [v for v in values if v <= floor]
    highs = [v for v in values if v >= ceil]

    best = None
    for hi in highs:
        if best is not None and hi - floor >= best:
            break
        feasible_lo = None
        a, b = 0, len(lows) - 1
        while a <= b:
            mid = (a + b) // 2
            if _window_connected(g, x, y, lows[mid], hi):
                feasible_lo = lows[mid]
                a = mid + 1
            else:
                b = mid - 1
        if feasible_lo is not None:
            span = hi - feasible_lo
            if best is None or span < best:
                best = span
    if best is None:
        raise InvalidGraphError("points are not connected in the graph")
    return best


def reference_travel_matrix(g: ReebGraph, points: tuple[GraphPoint, ...], scale: int) -> list[list[int]]:
    """The sweep that `_travel_matrix` replaced: one sweep from every distinct
    node value, vertices and points alike, each recording t - lo for the
    pairs it joins at value t above its floor lo."""
    # nodes: the vertices, then one per distinct edge-interior point
    node_of = {("v", vid): i for i, vid in enumerate(g.vertex_ids)}
    value = [on_lattice(g.value(vid), scale) for vid in g.vertex_ids]
    inside: dict[int, list[int]] = {}  # edge index -> its interior nodes
    column: dict[int, int] = {}  # point node -> its row in the distinct matrix
    slots = []
    for p in points:
        key = location(p)
        if key not in node_of:
            node_of[key] = len(value)
            value.append(on_lattice(p.value, scale))
            inside.setdefault(p.edge, []).append(node_of[key])  # type: ignore[arg-type]
        slots.append(column.setdefault(node_of[key], len(column)))
    adjacent: list[list[int]] = [[] for _ in value]
    for idx, (u, v) in enumerate(g.edges):
        between = sorted(inside.get(idx, ()), key=value.__getitem__)
        arc = [node_of["v", u], *between, node_of["v", v]]
        for a, b in zip(arc, arc[1:]):
            adjacent[a].append(b)
            adjacent[b].append(a)

    size = len(column)
    unset = max(value) - min(value) + 1  # above every span
    dist = [[unset] * size for _ in range(size)]
    for k in range(size):
        dist[k][k] = 0
    order = sorted(range(len(value)), key=value.__getitem__)
    for start, first in enumerate(order):
        lo = value[first]
        if start and value[order[start - 1]] == lo:
            continue  # one sweep per distinct floor
        pending = sum(value[node] >= lo for node in column) - 1  # joins to come
        if pending < 1:
            break  # no pair left above this floor, nor above higher ones
        sets = DisjointSets()
        members: dict[int, list[int]] = {}  # root -> rows of its points
        for node in order[start:]:
            sets.add(node)
            members[node] = [column[node]] if node in column else []
            for other in adjacent[node]:
                if other not in sets:
                    continue
                a, b = sets.find(node), sets.find(other)
                if a == b:
                    continue
                joined, into = members.pop(a), members[b]
                if joined and into:
                    span = value[node] - lo
                    for i in joined:
                        row = dist[i]
                        for j in into:
                            if span < row[j]:
                                row[j] = dist[j][i] = span
                    pending -= 1
                into.extend(joined)
                sets.union(a, b)
            if not pending:
                break  # every point above the floor is joined
    if any(unset in row for row in dist):
        raise InvalidGraphError("points are not connected in the graph")
    return [[dist[i][j] for j in slots] for i in slots]


def assert_matrix_matches_reference(g: ReebGraph, points) -> None:
    """`_travel_matrix`, expanded from its distinct locations to every input
    point, and `reference_travel_matrix` agree entry for entry; points at one
    location share a slot, and no location has two."""
    points = tuple(points)
    scale = common_denominator(chain(g._values.values(), (p.value for p in points)))
    matrix, slots = _travel_matrix(g, points, scale)
    locations = [location(p) for p in points]
    assert len(set(zip(locations, slots))) == len(set(locations)) == len(matrix)
    assert set(slots) == set(range(len(matrix)))
    expanded = [[matrix[i][j] for j in slots] for i in slots]
    assert expanded == reference_travel_matrix(g, points, scale)


def shuffled_with_repeats(rng: random.Random, points) -> list[GraphPoint]:
    """The points in random order, a few of them twice (one copy rebuilt)."""
    out = list(points)
    for p in rng.sample(out, min(len(out), rng.randint(0, 4))):
        out.append(GraphPoint(value=p.value, vertex=p.vertex, edge=p.edge))
    rng.shuffle(out)
    return out


def test_travel_matrix_matches_reference_on_seeded_sample_nets():
    # 100 graphs, each at three resolutions: the nets put points on vertex
    # values of other arcs, and every sweep floor has points dangling below it
    rng = random.Random(1111)
    cases = 0
    for _ in range(100):
        g = random_graph(rng, n_critical=rng.randint(3, 8))
        for parts in (3, rng.randint(5, 10), rng.randint(12, 24)):
            net = sample_net(g, g.span() / parts)
            assert_matrix_matches_reference(g, shuffled_with_repeats(rng, net))
            cases += 1
    assert cases == 300


def test_travel_matrix_matches_reference_on_correspondence_points():
    # the point lists `distortion` hands to the sweep: both sides of the
    # natural correspondence to a jittered copy, and of the collapse onto
    # the graph's segment
    rng = random.Random(2222)
    for _ in range(12):
        g = random_graph(rng, n_critical=rng.randint(4, 7))
        gap = min(abs(g.value(u) - g.value(v)) for u, v in g.edges)
        jitter = g.with_values(
            {v: g.value(v) + gap / 4 * F(rng.randint(-7, 7), 7) for v in g.vertex_ids}
        )
        seg = segment(g.min_value(), g.max_value())
        resolution = g.span() / rng.randint(4, 9)
        for c, other in (
            (natural_correspondence(g, jitter, {v: v for v in g.vertex_ids}, resolution), jitter),
            (projection_correspondence(g, seg, resolution), seg),
        ):
            pairs = list(c.phi.items()) + [(x, y) for y, x in c.psi.items()]
            assert_matrix_matches_reference(g, [x for x, _ in pairs])
            assert_matrix_matches_reference(other, [y for _, y in pairs])


def test_travel_matrix_matches_reference_on_tied_combs_and_ladders():
    # rounding comb values up to integers and ladder values up to multiples
    # of 4 makes teeth and rungs end at values of other vertices: several
    # vertices share each sweep floor
    rng = random.Random(3333)
    tied = 0
    for case in range(40):
        if case % 2:
            vertices, edges = comb_parts(rng, rng.randint(1, 6))
            vertices = [(vid, -(-value // 1)) for vid, value in vertices]
        else:
            vertices, edges = ladder_parts(rng, rng.randint(1, 4))
            vertices = [(vid, -(-value // 4) * 4) for vid, value in vertices]
        g = ReebGraph(vertices, edges)
        tied += len({g.value(v) for v in g.vertex_ids}) < len(g.vertex_ids)
        net = sample_net(g, F(rng.randint(1, 4), 2))
        assert_matrix_matches_reference(g, shuffled_with_repeats(rng, net))
    assert tied >= 30


def turn_vertices(g: ReebGraph) -> set[str]:
    """Vertices with at least two incident arcs whose other end is not lower;
    a level arc counts at both of its ends, and parallel arcs count one each."""
    rising: Counter = Counter()
    for u, v in g.edges:
        rising[u] += g.value(v) >= g.value(u)
        rising[v] += g.value(u) >= g.value(v)
    return {vid for vid, arcs in rising.items() if arcs >= 2}


def level_arc_parts(rng: random.Random, n: int):
    """n vertices on a coarse grid, so that values tie: a random tree, a few
    more arcs and a few parallel copies; arcs whose ends tie are level."""
    vertices = [(f"w{i}", F(rng.randint(0, 8), 2)) for i in range(n)]
    pairs = [(rng.randrange(i), i) for i in range(1, n)]
    pairs += [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(0, 3)) if n > 1]
    pairs += [rng.choice(pairs) for _ in range(rng.randint(0, 2)) if pairs]
    return vertices, [(f"w{a}", f"w{b}") for a, b in pairs]


def points_on_turns_and_arcs(rng: random.Random, g: ReebGraph) -> list[GraphPoint]:
    """Every turn vertex, a few other vertices, and points inside arcs: on
    level arcs, at other vertices' values and at eighths of a span."""
    points = [g.vertex_point(v) for v in sorted(turn_vertices(g))]
    points += [g.vertex_point(rng.choice(g.vertex_ids)) for _ in range(rng.randint(0, 3))]
    values = sorted({g.value(v) for v in g.vertex_ids})
    for idx in rng.sample(range(len(g.edges)), min(len(g.edges), rng.randint(1, 8))):
        lo, hi = g.edge_values(idx)
        inner = [value for value in values if lo < value < hi]
        if lo == hi:
            points.append(GraphPoint(value=lo, edge=idx))
        elif inner and rng.random() < 0.5:
            points.append(g.edge_point(idx, rng.choice(inner)))
        else:
            points.append(g.edge_point(idx, lo + (hi - lo) * F(rng.randint(1, 7), 8)))
    return points


def test_travel_matrix_matches_reference_on_level_arcs_and_turn_vertices():
    # non-canonical graphs with level arcs, parallel arcs and pass-through
    # vertices, and points on every turn vertex: a path can bottom out at a
    # vertex whose second arc that does not go down is level, so a rule that
    # counts strictly rising arcs alone misses sweeps these graphs need
    rng = random.Random(7777)
    level_turns = 0
    for _ in range(200):
        vertices, edges = level_arc_parts(rng, rng.randint(2, 9))
        g = ReebGraph(*subdivided_parts(rng, vertices, edges, max_chain=rng.randint(0, 2)))
        level_turns += any(g.up_degree(v) < 2 for v in turn_vertices(g))
        points = points_on_turns_and_arcs(rng, g)
        assert_matrix_matches_reference(g, shuffled_with_repeats(rng, points))
    assert level_turns >= 50


def defect_cases(rng: random.Random, count: int):
    """Disjoint unions of 1-3 parts, each a level-arc graph or a random
    graph, with 0 to 3 pass-through vertices put on every arc: graphs with
    level arcs, several components and pass-through chains, alone or
    together, and some valid ones."""
    for _ in range(count):
        vertices, edges = [], []
        for k in range(rng.choice((1, 1, 2, 3))):
            if rng.random() < 0.5:
                part_vertices, part_edges = level_arc_parts(rng, rng.randint(1, 6))
            else:
                part = random_graph(rng, n_critical=rng.randint(2, 5))
                part_vertices, part_edges = part.vertices(), part.edges
            vertices += [(f"{k}.{vid}", value) for vid, value in part_vertices]
            edges += [(f"{k}.{u}", f"{k}.{v}") for u, v in part_edges]
        yield ReebGraph(*subdivided_parts(rng, vertices, edges, max_chain=rng.choice((0, 0, 3))))


def raised(call, *args) -> str:
    with pytest.raises(InvalidGraphError) as exc:
        call(*args)
    return str(exc.value)


def test_every_check_reads_the_defects_found_once(monkeypatch):
    # validate, canonicalize, extended_diagram, critical_values and
    # linear_path, called in a random order on one graph object, each match
    # the Fraction references, and the defects are searched for once
    runs = count_defect_searches(monkeypatch)
    rng = random.Random(3303)
    codes: Counter = Counter()
    for g in defect_cases(rng, 200):
        want = reference_validate(g)
        hard = hard_violations(g)
        through = value_reading(g).through
        codes.update(set(want.codes()) or {"valid"})

        def check_validate():
            assert validate(g) == want

        def check_canonicalize():
            if hard:
                assert raised(canonicalize, g) == str(ValidationReport(tuple(hard)))
            else:
                out, ref = canonicalize(g), reference_canonicalize(g)
                assert (out.vertices(), out.edges) == (ref.vertices(), ref.edges)

        def check_extended_diagram():
            if want.ok:
                assert extended_diagram(g) == reduce_extended_filtration(g)
            else:
                assert raised(extended_diagram, g) == str(want)

        def check_critical_values():
            kept = {g.value(v) for v in g.vertex_ids if v not in through}
            assert critical_values(g).values == tuple(sorted(kept))

        def check_linear_path():
            doubled = {v: 2 * g.value(v) for v in g.vertex_ids}  # keeps every tie
            if hard and hard[0].code == "level-edge":
                message = f"interpolation step 0/2 breaks monotonicity: {hard[0].message}"
                assert raised(linear_path, g, doubled, 2) == message
            elif not want.ok:
                assert raised(linear_path, g, doubled, 2) == str(want)
            else:
                assert len(linear_path(g, doubled, 2).certificates) == 2

        checks = [
            check_validate,
            check_canonicalize,
            check_extended_diagram,
            check_critical_values,
            check_linear_path,
        ]
        rng.shuffle(checks)
        runs.clear()
        for check in checks:
            check()
        assert sum(run is g for run in runs) == 1
    assert min(codes[code] for code in ("level-edge", "disconnected", "pass-through")) >= 30
    assert codes["valid"] >= 30


def merge_tree_parts(rng: random.Random, forks: int):
    """A tree hanging from its top vertex r: each new vertex sits below one
    already placed and joins it, so every fork merges downward."""
    vertices = [("r", F(64))]
    edges = []
    for i in range(forks):
        parent, value = rng.choice(vertices)
        vertices.append((f"m{i}", value - F(rng.randint(1, 12), 4)))
        edges.append((f"m{i}", parent))
    return vertices, edges


def test_travel_matrix_takes_one_sweep_without_turn_vertices(monkeypatch):
    # with no turn vertex every simple path bottoms out at one of its ends,
    # so the sweep from the top vertex value alone serves every pair
    # each sweep bisects once, for its first node above the previous floor
    sweeps = []
    bisect_right = graph_module.bisect_right

    def counted_bisect_right(*args):
        sweeps.append(args)
        return bisect_right(*args)

    monkeypatch.setattr(graph_module, "bisect_right", counted_bisect_right)
    rng = random.Random(8888)
    for case in range(24):
        if case % 2:
            g = ReebGraph(*comb_parts(rng, rng.randint(1, 7), up_share=0))
        else:
            g = ReebGraph(*merge_tree_parts(rng, rng.randint(1, 9)))
        assert not turn_vertices(g)
        points = shuffled_with_repeats(rng, sample_net(g, F(rng.randint(2, 6), 4)))
        sweeps.clear()
        assert_matrix_matches_reference(g, points)
        assert len(sweeps) == 1
        d = travel_distances(g, points)
        for _ in range(10):
            i, j = rng.randrange(len(points)), rng.randrange(len(points))
            assert d[i][j] == brute_force_travel(g, points[i], points[j])


def test_travel_segment_interior_points():
    s = segment()
    assert travel_distance(s, s.edge_point(0, 1), s.edge_point(0, 2)) == 1


def test_travel_y_straddling_branch():
    y = y_graph()
    x = y.edge_point(0, F("0.5"))
    z = y.edge_point(1, F("1.5"))
    assert travel_distance(y, x, z) == F("1.5")


def test_travel_same_point_zero():
    y = y_graph()
    p = y.edge_point(2, F("2.5"))
    assert travel_distance(y, p, p) == 0
    assert travel_distance(y, y.vertex_point("b"), y.vertex_point("b")) == 0


def test_travel_rejects_foreign_point():
    with pytest.raises(ValueError):
        travel_distance(segment(), GraphPoint(value=F(1), vertex="zz"), segment().vertex_point("bot"))


def test_travel_matches_brute_force_on_random_graphs():
    import random

    rng = random.Random(2024)
    for _ in range(12):
        g = random_graph(rng, n_critical=rng.randint(4, 6))
        points = [g.vertex_point(v) for v in g.vertex_ids]
        for idx in range(len(g.edges)):
            lo, hi = g.edge_values(idx)
            points.append(g.edge_point(idx, (lo + hi) / 2))
        for _ in range(15):
            x, y = rng.choice(points), rng.choice(points)
            assert travel_distance(g, x, y) == brute_force_travel(g, x, y)


@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=0, max_value=10_000))
@settings(max_examples=40, deadline=None)
def test_travel_properties_on_y(a, b):
    y = y_graph()
    pts = []
    for raw in (a, b):
        edge = raw % 3
        lo, hi = y.edge_values(edge)
        t = F(raw % 101, 101)
        pts.append(y.edge_point(edge, lo + t * (hi - lo)))
    x, z = pts
    d = travel_distance(y, x, z)
    assert d == travel_distance(y, z, x)
    assert d >= abs(x.value - z.value)


def test_travel_distances_match_reference_on_sample_nets():
    rng = random.Random(4044)
    checked = 0
    for _ in range(10):
        g = random_graph(rng, n_critical=rng.randint(4, 7))
        net = list(sample_net(g, g.span() / 16))
        rng.shuffle(net)
        d = travel_distances(g, net)
        for i, x in enumerate(net):
            for j in range(i, len(net)):
                assert d[i][j] == d[j][i] == reference_travel_distance(g, x, net[j])
                checked += 1
    assert checked > 4000


def test_travel_distances_match_reference_on_coprime_denominators():
    # the r-th smallest value becomes r + 1/p_r for the r-th prime, and the
    # points sit at thirds of their arcs: the sweep's lattice is the lcm of
    # every one of those denominators
    rng = random.Random(6007)
    for _ in range(4):
        g = on_primes(random_graph(rng, n_critical=rng.randint(4, 7)))
        points = [g.vertex_point(v) for v in g.vertex_ids]
        for idx in range(len(g.edges)):
            lo, hi = g.edge_values(idx)
            points.append(g.edge_point(idx, lo + (hi - lo) / 3))
        rng.shuffle(points)
        d = travel_distances(g, points)
        for i, x in enumerate(points):
            for j in range(i, len(points)):
                assert d[i][j] == d[j][i] == reference_travel_distance(g, x, points[j])


@st.composite
def small_graphs_with_points(draw):
    """A connected graph on 1-7 vertices and 1-7 points on it, repeats allowed.

    Values are ints or, for some graphs, fractions over coprime denominators.
    The graph may have level arcs (an arc to a new vertex of the same value)
    and parallel arcs. Points are vertices, edge-interior points at a drawn
    fraction of their arc, or edge-interior points at another vertex's value.
    """
    n = draw(st.integers(min_value=1, max_value=7))
    denominators = draw(st.sampled_from(((1,), (1, 2), (2, 3, 5), (3, 7, 11))))
    values = [
        F(draw(st.integers(0, 8 * max(denominators))), draw(st.sampled_from(denominators)))
        for _ in range(n)
    ]
    pairs = [(draw(st.integers(0, i - 1)), i) for i in range(1, n)]
    pairs += draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3))
    pairs += draw(st.lists(st.sampled_from(pairs), max_size=2)) if pairs else []  # parallel
    for i in draw(st.lists(st.integers(0, n - 1), max_size=2)):  # level arcs
        values.append(values[i])
        pairs.append((i, len(values) - 1))
    g = ReebGraph(
        [(f"v{i}", value) for i, value in enumerate(values)],
        [(f"v{a}", f"v{b}") for a, b in pairs if a != b],
    )
    points = []
    for _ in range(draw(st.integers(min_value=1, max_value=7))):
        kind = draw(st.integers(0, 2)) if g.edges else 0
        if kind == 0:
            points.append(g.vertex_point(draw(st.sampled_from(g.vertex_ids))))
            continue
        idx = draw(st.integers(0, len(g.edges) - 1))
        lo, hi = g.edge_values(idx)
        inner = [g.value(v) for v in g.vertex_ids if lo < g.value(v) < hi]
        if kind == 2 and inner:
            points.append(g.edge_point(idx, draw(st.sampled_from(inner))))
        else:
            cut = draw(st.sampled_from((2, 3, 5, 8)))
            points.append(g.edge_point(idx, lo + (hi - lo) * F(draw(st.integers(0, cut)), cut)))
    return g, points


@given(small_graphs_with_points())
@settings(max_examples=300, deadline=None)
def test_travel_distances_is_a_pseudometric_within_value_bounds(case):
    g, points = case
    d = travel_distances(g, points)
    assert_matrix_matches_reference(g, points)
    n = len(points)
    for i in range(n):
        assert d[i][i] == 0
        for j in range(n):
            x, y = points[i], points[j]
            assert d[i][j] == d[j][i]
            assert abs(x.value - y.value) <= d[i][j] <= g.span()
            assert d[i][j] == reference_travel_distance(g, x, y)
            for k in range(n):
                assert d[i][k] <= d[i][j] + d[j][k]


def test_travel_distances_repeated_points():
    y = y_graph()
    p, q = y.edge_point(0, F("0.5")), y.edge_point(1, F("1.5"))
    b = y.vertex_point("b")
    points = [p, b, q, p, GraphPoint(value=F("0.5"), edge=0), y.vertex_point("b")]
    d = travel_distances(y, points)
    assert len(d) == 6 and all(len(row) == 6 for row in d)
    for i, x in enumerate(points):
        for j, z in enumerate(points):
            assert d[i][j] == reference_travel_distance(y, x, z)
    assert d[0][3] == d[0][4] == d[1][5] == 0
    assert d[0][2] == d[3][2] == F("1.5")
    assert travel_distances(y, []) == []
    assert travel_distances(y, [b]) == [[0]]


def test_points_on_thirds_of_dyadic_graphs_match_fraction_references():
    # values on eighths, points on thirds: a point's denominator is never the
    # graph's scale. `contains_point` compares ints on the graph's lattice and
    # must read every point as the `Fraction` rule does, on each edge and at
    # its ends, at the indices just off the edge list, and at each vertex
    # with its own value, another value, or an id the graph lacks.
    # `travel_distances` keys edge points by their lattice value, so copies
    # of one point, rebuilt or not, must share a location
    rng = random.Random(2770)
    verdicts = Counter()
    for _ in range(10):
        g = dyadic(random_graph(rng, n_critical=rng.randint(3, 7)), rng)
        assert 8 % g.scale == 0
        lo, hi = g.min_value(), g.max_value()
        thirds = [F(k, 3) for k in range(math.floor(3 * lo) - 2, math.ceil(3 * hi) + 3)]
        values = sorted(set(thirds) | {g.value(v) for v in g.vertex_ids})
        points = [GraphPoint(value=x, vertex=v) for v in (*g.vertex_ids, "nowhere") for x in values]
        for idx in range(-1, len(g.edges) + 1):
            points += (GraphPoint(value=x, edge=idx) for x in values)
        for p in points:
            want = reference_contains_point(g, p)
            assert g.contains_point(p) == want, p
            verdicts[p.vertex is None, want] += 1
        on = [p for p in points if p.edge is not None and reference_contains_point(g, p)]
        picked = rng.sample(on, min(len(on), 8)) + [g.vertex_point(rng.choice(g.vertex_ids))]
        picked += [GraphPoint(value=p.value, vertex=p.vertex, edge=p.edge) for p in picked[:3]]
        picked += picked[3:5]
        rng.shuffle(picked)
        d = travel_distances(g, picked)
        for i, x in enumerate(picked):
            for j, y in enumerate(picked):
                assert d[i][j] == reference_travel_distance(g, x, y)
    assert all(verdicts[kind] for kind in ((True, True), (True, False), (False, True), (False, False)))


def test_travel_distances_errors():
    s = segment()
    with pytest.raises(ValueError):
        travel_distances(s, [s.vertex_point("bot"), GraphPoint(value=F(1), vertex="zz")])
    with pytest.raises(ValueError):
        travel_distances(s, [GraphPoint(value=F(9), edge=0)])
    two = ReebGraph(
        [("a", 0), ("b", 1), ("c", 2), ("d", 3)],
        [("a", "b"), ("c", "d")],
    )
    ends = [two.vertex_point("a"), two.edge_point(0, F(1, 2)), two.edge_point(1, F(5, 2))]
    with pytest.raises(InvalidGraphError):
        travel_distances(two, ends)
    with pytest.raises(InvalidGraphError):
        travel_distance(two, ends[0], ends[2])
    # points of one component are fine, whatever the rest of the graph
    assert travel_distances(two, ends[:2]) == [[0, F(1, 2)], [F(1, 2), 0]]


# ---------------------------------------------------------------------------
# stats, points
# ---------------------------------------------------------------------------


def test_stats_y():
    g = y_graph()
    assert len(g.vertex_ids) == 4
    assert len(g.edges) == 3
    assert g.first_betti() == 0
    assert critical_values(g).values == (0, 1, 2, 3)
    assert critical_values(g).min_gap() == 1


def test_stats_cycle_betti():
    assert cycle().first_betti() == 1


def test_betti_number_counts_every_component():
    # E - V + c, with c the component count: E - V + 1 gave -1 for two
    # disjoint segments and 1 for two disjoint cycles
    apart = ReebGraph([("a", 0), ("b", 1), ("c", 2), ("d", 3)], [("a", "b"), ("c", "d")])
    assert apart.first_betti() == 0
    loops = ReebGraph(
        [("a", 0), ("b", 1), ("c", 2), ("d", 3)],
        [("a", "b"), ("a", "b"), ("c", "d"), ("c", "d")],
    )
    assert loops.first_betti() == 2


def test_graphs_without_pass_through_vertices_share_one_empty_set():
    # each graph once kept its own empty frozenset
    a, b = y_graph(), random_graph(3, n_critical=5)
    assert a._defects[2] is b._defects[2]
    assert not a._defects[2]
    through = ReebGraph([("a", 0), ("b", 1), ("c", 2)], [("a", "b"), ("b", "c")])
    assert through._defects[2] == {"b"}


def test_edge_point_endpoints_normalize_to_vertices():
    s = segment()
    assert s.edge_point(0, 0) == s.vertex_point("bot")
    assert s.edge_point(0, 3) == s.vertex_point("top")
    with pytest.raises(ValueError):
        s.edge_point(0, 4)


def test_edge_point_takes_only_the_graphs_edge_indices():
    # a negative index once wrapped: edge -1 of the segment read as edge 0
    s = segment()
    for index in (-1, -2, 1):
        with pytest.raises(ValueError, match=f"no edge {index}: the graph has 1 edges"):
            s.edge_point(index, 0)


def test_graph_point_needs_exactly_one_location():
    with pytest.raises(ValueError):
        GraphPoint(value=F(1))
    with pytest.raises(ValueError):
        GraphPoint(value=F(1), vertex="a", edge=0)


# ---------------------------------------------------------------------------
# generator properties
# ---------------------------------------------------------------------------


@given(st.integers(min_value=0, max_value=2**31))
@settings(max_examples=25, deadline=None)
def test_random_generator_output_is_valid(seed):
    g = random_graph(seed, n_critical=6)
    assert validate(g).ok


def reference_sample_values(rng, count, lo, hi, min_gap, denominator=1000):
    """The rejection sampler before it placed values by construction: it
    gave up with a RuntimeError after 10 000 draws."""
    if count < 2:
        raise ValueError("need at least two critical values")
    span = hi - lo
    if span <= 0 or min_gap * (count - 1) >= span:
        raise ValueError("value range too small for requested gap")
    min_steps = math.ceil(min_gap * denominator / span)
    for _ in range(10_000):
        picks = sorted(rng.randint(0, denominator) for _ in range(count))
        if all(b - a >= min_steps for a, b in zip(picks, picks[1:])):
            return [lo + F(k, denominator) * span for k in picks]
    raise RuntimeError("could not sample well-separated values")


def test_sample_values_match_the_rejection_sampler_where_it_succeeds():
    # same values and the same generator state afterwards, so every seeded
    # graph the rejection sampler could draw stays as it was
    params = random.Random(8080)
    matched = 0
    for _ in range(420):
        count = params.randint(2, 12)
        lo = F(params.randint(-20, 20), params.choice((1, 3, 4)))
        hi = lo + F(params.randint(1, 40), params.choice((1, 2, 7)))
        min_gap = (hi - lo) / (count - 1) * F(params.randint(1, 12), 24)
        seed = params.randrange(2**32)
        old, new = random.Random(seed), random.Random(seed)
        try:
            want = reference_sample_values(old, count, lo, hi, min_gap)
        except RuntimeError:
            continue
        assert _sample_values(new, count, lo, hi, min_gap) == want
        assert new.getstate() == old.getstate()
        matched += 1
    assert matched >= 400


@pytest.mark.parametrize("n_critical", [50, 100])
def test_random_generator_many_critical_values(n_critical):
    # the rejection sampler gave up on these (50 values five grid steps
    # apart on a 1/1000 grid are too rare to draw), so the values are placed
    if n_critical == 50:
        with pytest.raises(RuntimeError):
            reference_sample_values(random.Random(1), 50, F(0), F(10), F(10, 200))
    g = random_graph(1, n_critical=n_critical)
    assert validate(g).ok
    assert len(critical_values(g)) == n_critical
    assert critical_values(g).min_gap() >= F(10, 4 * n_critical)


def test_sample_values_rejects_a_gap_the_grid_cannot_hold():
    # 219 gaps of 0.0401 fit in 10, but each takes 5 steps of the 1/100 grid
    # spacing, and 219 * 5 steps overrun its 1000
    rng = random.Random(3)
    with pytest.raises(ValueError, match="grid"):
        _sample_values(rng, 220, F(0), F(10), F(401, 10_000))
    assert rng.getstate() == random.Random(3).getstate()  # no draw was made


def test_random_generator_deterministic():
    assert random_graph(7, n_critical=6) == random_graph(7, n_critical=6)


def test_random_generator_spec_example():
    g = random_graph(7, n_critical=6)
    assert validate(g).ok


def test_canonicalize_idempotent_on_subdivided_randoms():
    import random

    rng = random.Random(303)
    for _ in range(10):
        g = random_graph(rng, n_critical=rng.randint(4, 7))
        # subdivide a few edges with regular points, then canonicalize back
        verts = list(g.vertices())
        edges = list(g.edges)
        for k in range(min(3, len(edges))):
            u, v = edges.pop(0)
            mid_id = f"sub{k}"
            mid_val = (g.value(u) + g.value(v)) / 2
            verts.append((mid_id, mid_val))
            edges += [(u, mid_id), (mid_id, v)]
        subdivided = ReebGraph(verts, edges)
        once = canonicalize(subdivided)
        assert once == canonicalize(once)
        assert is_level_isomorphic(once, g)
