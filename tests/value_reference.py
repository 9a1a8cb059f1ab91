"""A graph's local structure, its points and its extended diagram read from
`Fraction` value comparisons only, and graphs whose lattice is large.

`ReebGraph` orders and compares its own values as ints on its lattice
(`scale`, `level`). The test oracles read the same facts here, by comparing
`g.value` directly, so that a reference never runs the int path it checks:
which points lie on a graph, where a point is, and which points of a map
are samples of a graph's net. Connectivity is read the same way apart from
the program: components by a breadth-first search, and `DisjointSets` for
the references that union. The extended diagram comes from a Z2 reduction
whose cells carry `Fraction` values, as `DiagramPoint`s built from `g.value`.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from fractions import Fraction as F
from typing import NamedTuple

from reebmetrics import Diagram, DiagramPoint, GraphPoint, ReebGraph, random_graph, sample_net
from reebmetrics.graph import ValidationReport, Violation
from reebmetrics.rationals import format_value


class ValueReading(NamedTuple):
    profile: dict[str, tuple[int, int]]  # vertex -> (down degree, up degree)
    through: frozenset[str]  # pass-through vertices: degree 2, one arc down, one up
    level_edges: tuple[Violation, ...]  # `validate`'s level-edge report


def value_reading(g: ReebGraph) -> ValueReading:
    profile = {}
    for v in g.vertex_ids:
        fv = g.value(v)
        others = [g.value(w) for _, w in g.neighbors(v)]
        profile[v] = (sum(1 for fw in others if fw < fv), sum(1 for fw in others if fw > fv))
    through = frozenset(v for v in g.vertex_ids if g.degree(v) == 2 and profile[v] == (1, 1))
    level_edges = tuple(
        Violation(
            "level-edge",
            f"edge joins two vertices at value {format_value(g.value(u))}",
            f"edge {idx} ({u}, {v})",
        )
        for idx, (u, v) in enumerate(g.edges)
        if g.value(u) == g.value(v)
    )
    return ValueReading(profile, through, level_edges)


def location(p: GraphPoint) -> tuple:
    """Where p is on its graph: a vertex by its id, an edge point by its edge
    and its `Fraction` value."""
    if p.vertex is not None:
        return ("v", p.vertex)
    return ("e", p.edge, p.value)


def reference_contains_point(g: ReebGraph, p: GraphPoint) -> bool:
    """`contains_point`, with the values compared as `Fraction`s."""
    if p.vertex is not None:
        return p.vertex in g.vertex_ids and g.value(p.vertex) == p.value
    if not 0 <= p.edge < len(g.edges):
        return False
    lo, hi = g.edge_values(p.edge)
    return lo <= p.value <= hi


def reference_net_cover(g: ReebGraph, resolution, mapping) -> tuple[int, int]:
    """How many samples of `sample_net(g, resolution)` are keys of `mapping`,
    and the net's size: the net built, and each sample looked up."""
    net = sample_net(g, resolution)
    return sum(p in mapping for p in net), len(net)


class DisjointSets:
    """Disjoint sets of hashable items, grown one `add` at a time."""

    def __init__(self) -> None:
        self.parent: dict = {}

    def __contains__(self, x: object) -> bool:
        return x in self.parent

    def add(self, x: object) -> None:
        self.parent[x] = x

    def find(self, x: object) -> object:
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]  # path halving
            x = parent[x]
        return x

    def union(self, x: object, y: object) -> None:
        """Link the root of x under the root of y."""
        self.parent[self.find(x)] = self.find(y)


def component_count(g: ReebGraph) -> int:
    """The number of connected components, by breadth-first search."""
    seen: set[str] = set()
    count = 0
    for start in g.vertex_ids:
        if start in seen:
            continue
        count += 1
        seen.add(start)
        queue = deque([start])
        while queue:
            for _, w in g.neighbors(queue.popleft()):
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
    return count


def count_defect_searches(monkeypatch) -> list[ReebGraph]:
    """Record every run of `ReebGraph._defects`, the one search for a
    graph's defects: the returned list gains the graph at each run."""
    cached = ReebGraph.__dict__["_defects"]
    search = cached.func
    runs: list[ReebGraph] = []
    monkeypatch.setattr(cached, "func", lambda g: runs.append(g) or search(g))
    return runs


def hard_violations(g: ReebGraph) -> list[Violation]:
    """Level edges and disconnection, as `validate` reports them."""
    violations = list(value_reading(g).level_edges)
    count = component_count(g)
    if count > 1:
        violations.append(
            Violation("disconnected", f"graph has {count} connected components", "graph")
        )
    return violations


def reference_validate(g: ReebGraph) -> ValidationReport:
    """`validate`, with every value comparison made on `Fraction`s."""
    through = value_reading(g).through
    pass_through = [
        Violation(
            "pass-through",
            "non-critical degree-2 vertex (one arc down, one arc up)",
            f"vertex {v}",
        )
        for v in g.vertex_ids
        if v in through
    ]
    return ValidationReport(tuple(hard_violations(g) + pass_through))


def dyadic(g: ReebGraph, rng: random.Random) -> ReebGraph:
    """The same order of values, moved onto a 1/8 grid with random steps."""
    levels = sorted({g.value(v) for v in g.vertex_ids})
    new, at = {}, F(0)
    for value in levels:
        at += F(rng.randint(1, 12), 8)
        new[value] = at
    return g.with_values({v: new[g.value(v)] for v in g.vertex_ids})


PRIMES = [p for p in range(2, 114) if all(p % q for q in range(2, p))]  # the first 30


def on_primes(g: ReebGraph) -> ReebGraph:
    """The same order of values, moved onto pairwise coprime denominators:
    the r-th smallest distinct value becomes r + 1/p_r."""
    levels = sorted({g.value(v) for v in g.vertex_ids})
    assert len(levels) <= len(PRIMES)
    new = {value: r + F(1, PRIMES[r]) for r, value in enumerate(levels)}
    return g.with_values({v: new[g.value(v)] for v in g.vertex_ids})


def subdivided_at_thirds(g: ReebGraph) -> ReebGraph:
    """g with two pass-through vertices on every arc, at its thirds."""
    vertices, edges = list(g.vertices()), []
    for k, (u, v) in enumerate(g.edges):
        lo, hi = g.edge_values(k)
        inner = [(f"s{k}_{j}", lo + (hi - lo) * j / 3) for j in (1, 2)]
        vertices += inner
        chain = [u] + [vid for vid, _ in inner] + [v]
        edges += zip(chain, chain[1:])
    return ReebGraph(vertices, edges, name=g.name)


def coprime_cases(seed: int, count: int):
    """Seeded canonical graphs on 16-24 values moved `on_primes`, each with
    its subdivision at thirds: the subdivision's scale runs to dozens of
    digits."""
    rng = random.Random(seed)
    for _ in range(count):
        g = on_primes(random_graph(rng, n_critical=rng.randint(16, 24)))
        yield g, subdivided_at_thirds(g)


@dataclass(frozen=True)
class _Cell:
    value: F  # entry value on its own axis (ascending or descending)
    dim: int  # dimension of the underlying graph cell
    index: int  # stable input index
    kind: str  # "vertex", "edge", "cone-vertex" or "cone-edge"
    ref: object  # vertex id, or edge index


def reference_diagram_points(g: ReebGraph) -> tuple[DiagramPoint, ...]:
    """The Z2 reduction as it was before cells were sorted on ints, and its
    points as they were before diagrams were stored on a lattice.

    Every cell carries its exact `Fraction` value and the sort compares
    them; the library now sorts the same cells by integer values over one
    common denominator, and must pair them identically. The points are
    built from `g.value` and sorted by `DiagramPoint.sort_key`.
    """
    cells = [_Cell(g.value(vid), 0, i, "vertex", vid) for i, vid in enumerate(g.vertex_ids)]
    for idx, (u, v) in enumerate(g.edges):
        cells.append(_Cell(max(g.value(u), g.value(v)), 1, idx, "edge", idx))
    cells.sort(key=lambda c: (c.value, c.dim, c.index))
    coned = [
        _Cell(g.value(vid), 0, i, "cone-vertex", vid) for i, vid in enumerate(g.vertex_ids)
    ]
    for idx, (u, v) in enumerate(g.edges):
        coned.append(_Cell(min(g.value(u), g.value(v)), 1, idx, "cone-edge", idx))
    coned.sort(key=lambda c: (-c.value, c.dim, c.index))
    cells += coned
    pos = {(c.kind, c.ref): i for i, c in enumerate(cells)}

    columns: list[int] = []
    for c in cells:
        if c.kind == "vertex":
            col = 0
        elif c.kind == "edge":
            u, v = g.edges[c.ref]
            col = (1 << pos[("vertex", u)]) | (1 << pos[("vertex", v)])
        elif c.kind == "cone-vertex":
            col = 1 << pos[("vertex", c.ref)]
        else:
            u, v = g.edges[c.ref]
            col = (
                (1 << pos[("edge", c.ref)])
                | (1 << pos[("cone-vertex", u)])
                | (1 << pos[("cone-vertex", v)])
            )
        columns.append(col)

    low_owner: dict[int, int] = {}
    pairs: list[tuple[int, int]] = []
    for j in range(len(columns)):
        col = columns[j]
        while col:
            low = col.bit_length() - 1
            owner = low_owner.get(low)
            if owner is None:
                low_owner[low] = j
                pairs.append((low, j))
                break
            col ^= columns[owner]
        columns[j] = col

    points = []
    for i, j in pairs:
        kinds = (cells[i].kind, cells[j].kind)
        b, d = cells[i].value, cells[j].value
        if kinds == ("vertex", "edge"):
            if b < d:
                points.append(DiagramPoint("Ord0", b, d))
        elif kinds == ("vertex", "cone-vertex"):
            points.append(DiagramPoint("Ext0", b, d))
        elif kinds == ("edge", "cone-edge"):
            points.append(DiagramPoint("Ext1", b, d))
        elif kinds == ("cone-vertex", "cone-edge"):
            if b > d:
                points.append(DiagramPoint("Rel1", b, d))
        else:
            raise AssertionError(f"unexpected pair {kinds}")
    return tuple(sorted(points, key=DiagramPoint.sort_key))


def reference_reduce_extended_filtration(g: ReebGraph) -> Diagram:
    return Diagram(reference_diagram_points(g))
