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

The band merges of `operators` run on one int lattice, from the anchors to
the output graph. Their references here keep each band as a pair of
`Fraction`s: the merge lifts the band ends onto the graph's lattice one
band set at a time, computes each midpoint as a `Fraction`, canonicalizes
an output built in vertex order, and the anchored merge sorts, gap-tests
and offsets its anchors as `Fraction`s and costs one `Move` per anchor.
"""

from __future__ import annotations

import math
import random
import warnings
from bisect import bisect_right
from collections import Counter, deque
from dataclasses import dataclass
from fractions import Fraction as F
from itertools import chain
from typing import NamedTuple

from reebmetrics import (
    Diagram,
    DiagramPoint,
    GraphPoint,
    ReebGraph,
    canonicalize,
    extended_diagram,
    random_graph,
    sample_net,
)
from reebmetrics.fileio import parse_graph_text
from reebmetrics.graph import CriticalValues, ValidationReport, Violation, _find_root
from reebmetrics.operators import (
    Move,
    SimplifyResult,
    TransformResult,
    _near_bands,
    _stretched_segment,
)
from reebmetrics.rationals import common_denominator, format_value, on_lattice, to_fraction


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


# ---------------------------------------------------------------------------
# band merges on `Fraction` bands
# ---------------------------------------------------------------------------


def fraction_merge_bands(g: ReebGraph, bands, prefix: str = "m") -> ReebGraph:
    """`_merge_bands` on sorted, disjoint `Fraction` bands: the ends lifted
    onto the lcm of the graph's scale and their denominators, each midpoint
    a `Fraction`, and the output built in input vertex order, then
    canonicalized."""
    if not bands:
        return g
    values = g.vertices()
    scale = math.lcm(g.scale, common_denominator(chain.from_iterable(bands)))
    lift = scale // g.scale
    starts = [on_lattice(lo, scale) for lo, _ in bands]
    ends = [on_lattice(hi, scale) for _, hi in bands]
    band_of: dict[str, int] = {}
    for vid in g.vertex_ids:
        x = g.level(vid) * lift
        i = bisect_right(starts, x) - 1
        if i >= 0 and x <= ends[i]:
            band_of[vid] = i

    slot = {vid: k for k, vid in enumerate(band_of)}
    parent = list(range(len(slot)))
    for u, v in g.edges:
        if u in band_of and band_of[u] == band_of.get(v):
            a, b = _find_root(parent, slot[u]), _find_root(parent, slot[v])
            parent[a] = b
    root_of = {vid: _find_root(parent, k) for vid, k in slot.items()}
    sizes = Counter(root_of.values())

    vertices = [(vid, val) for vid, val in values if vid not in band_of]
    taken = set(g.vertex_ids)
    counter = 0
    name_of: dict[str, str] = {}
    mids: dict[int, F] = {}
    for vid, root in root_of.items():
        if root in name_of:
            continue
        i = band_of[vid]
        if i not in mids:
            mids[i] = (bands[i][0] + bands[i][1]) / 2
        if sizes[root] == 1 and g.value(vid) == mids[i]:
            name = vid
        else:
            while f"{prefix}{counter}" in taken:
                counter += 1
            name = f"{prefix}{counter}"
            taken.add(name)
        name_of[root] = name
        vertices.append((name, mids[i]))

    def moved(vid: str) -> str:
        return name_of[root_of[vid]] if vid in band_of else vid

    edges = [
        (moved(u), moved(v))
        for u, v in g.edges
        if u not in band_of or band_of[u] != band_of.get(v)
    ]
    return canonicalize(ReebGraph(vertices, edges, name=g.name))


def fraction_move_certificate(moves) -> F:
    """`move_certificate` over `Move`s: each pass's widest band, plus every
    stretch."""
    widest: dict[int, F] = {}
    stretch = F(0)
    for m in moves:
        if m.kind == "stretch":
            stretch += m.cost
        else:
            widest[m.step] = max(m.cost, widest.get(m.step, m.cost))
    return sum(widest.values(), stretch)


def fraction_clear_features(g: ReebGraph, alpha: F) -> SimplifyResult:
    """`clear_features` merging `_near_bands`' bands as `Fraction` pairs."""
    work, moves = g, []
    diagram = extended_diagram(g)
    for step in range(len(diagram) + 2):
        scale, ints = _near_bands(diagram, alpha)
        bands = [(F(lo, scale), F(hi, scale)) for lo, hi in ints]
        if not bands:
            break
        work = fraction_merge_bands(work, bands, prefix=f"s{step}_")
        moves.extend(Move("band-merge", (lo, hi), hi - lo, step) for lo, hi in bands)
        diagram = extended_diagram(work)
    else:
        raise AssertionError("simplification failed to terminate")
    return SimplifyResult(work, fraction_move_certificate(moves), tuple(moves))


def fraction_simplify(g: ReebGraph, alpha) -> SimplifyResult:
    alpha = to_fraction(alpha)
    cleared = fraction_clear_features(g, alpha)
    if cleared.graph.span() > alpha:
        return cleared
    work, stretch = _stretched_segment(cleared.graph, alpha)
    moves = (*cleared.moves, stretch)
    return SimplifyResult(work, fraction_move_certificate(moves), moves)


def fraction_merge_sequence(g: ReebGraph, anchors, halfwidth) -> TransformResult:
    """`merge_sequence` on `Fraction` anchors, one `Move` per anchor."""
    halfwidth = to_fraction(halfwidth)
    if halfwidth < 0:
        raise ValueError("merge half-width must be nonnegative")
    width = 2 * halfwidth
    values = sorted(to_fraction(v) for v in anchors)
    gap = min((b - a for a, b in zip(values, values[1:])), default=None)
    disjoint = gap is None or gap > width
    if not disjoint:
        warnings.warn(
            f"anchor bands overlap (twice the half-width, {format_value(width)}, "
            f"is at least the least anchor gap, {format_value(gap)}); "
            "merging sequentially from the lowest anchor",
            stacklevel=2,
        )
    bands = [(c - halfwidth, c + halfwidth) for c in values]
    work = g
    moves: list[Move] = []
    for step, group in enumerate([bands] if disjoint else [[band] for band in bands]):
        work = fraction_merge_bands(work, group)
        moves.extend(Move("band-merge", band, width, step) for band in group)
    return TransformResult(work, fraction_move_certificate(moves))


def fraction_full_transform(g: ReebGraph, params) -> TransformResult:
    simplified = fraction_simplify(g, 2 * params.alpha)
    merged = fraction_merge_sequence(simplified.graph, params.anchors, 9 * params.alpha)
    return TransformResult(merged.graph, simplified.certificate + merged.certificate)


def recovery_comb(teeth: int, seed: object = "recovery-300"):
    """The recovery pair of the benchmark's `transform` workload, drawing the
    same random numbers: a comb of `teeth` downward teeth with values in
    1/256 units (slots of 4, teeth 1 to 3 deep on a 1/64 grid), a copy with
    every value moved by at most 1/32, both parsed from text, and the comb's
    values as anchors. Returns (source, noisy, anchors)."""
    rng = random.Random(seed)
    slot, unit = 1024, 256
    values, edges, prev = {"b": 0}, [], "b"
    for i in range(1, teeth + 1):
        fork = i * slot + slot - unit // 2
        values[f"f{i}"] = fork
        values[f"t{i}"] = fork - rng.randint(64, 192) * 4
        edges += [(prev, f"f{i}"), (f"f{i}", f"t{i}")]
        prev = f"f{i}"
    values["top"] = (teeth + 1) * slot + unit // 2
    edges.append((prev, "top"))
    noisy = {vid: x + rng.randint(-8, 8) for vid, x in values.items()}

    def parsed(vals: dict[str, int]) -> ReebGraph:
        lines = [f"v {vid} {F(x, unit)}" for vid, x in vals.items()]
        lines += [f"e {u} {v}" for u, v in edges]
        return parse_graph_text("\n".join(lines) + "\n")

    anchors = CriticalValues(tuple(F(x, unit) for x in sorted(values.values())))
    return parsed(values), parsed(noisy), anchors
