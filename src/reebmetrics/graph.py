"""Reeb graphs as combinatorial objects.

A Reeb graph is a finite multigraph whose vertices carry exact rational
function values and whose edges are monotone arcs (endpoints at strictly
different values). Graphs are immutable after construction; every operation
in this module is a pure function. A graph's validity is found once, on
first use, and kept with it (`ReebGraph._defects`); every check reads it.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain
from typing import Iterable, Optional

from .rationals import ValueLike, common_denominator, format_value, on_lattice, to_fraction


class InvalidGraphError(ValueError):
    """Raised when an operation requires invariants the input violates."""


def _find_root(parent: list[int], x: int) -> int:
    """The root of slot x in a union-find forest over int slots.

    A root is a slot with `parent[r] == r`; callers link two roots a and b
    with `parent[a] = b`. The walk halves the path it takes.
    """
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


@dataclass(frozen=True)
class GraphPoint:
    """A point on a Reeb graph: either a vertex or an edge-interior point.

    Interior points are parameterized linearly in value along their edge,
    so `value` alone pins the location once the edge is fixed.
    """

    value: Fraction
    vertex: Optional[str] = None
    edge: Optional[int] = None

    def __post_init__(self) -> None:
        if (self.vertex is None) == (self.edge is None):
            raise ValueError("a GraphPoint is either a vertex or an edge point")

    def __str__(self) -> str:
        if self.vertex is not None:
            return f"{self.vertex}@{format_value(self.value)}"
        return f"edge{self.edge}@{format_value(self.value)}"


@dataclass(frozen=True)
class Violation:
    code: str
    message: str
    location: str


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def codes(self) -> tuple[str, ...]:
        return tuple(v.code for v in self.violations)

    def __str__(self) -> str:
        if self.ok:
            return "valid"
        return "\n".join(f"{v.code} at {v.location}: {v.message}" for v in self.violations)


_NO_VERTICES: frozenset[str] = frozenset()  # the one pass-through set of every graph with none


class ReebGraph:
    """Level-labeled multigraph with monotone arcs.

    `vertices` is an iterable of (id, value) pairs; ids are strings, values
    anything `to_fraction` accepts. `edges` is an iterable of id pairs;
    parallel edges are allowed and kept as distinct arcs.

    The graph carries its integer lattice: `scale`, the lcm of the
    denominators of its values, and `level(vid)`, a vertex's value times
    `scale` as an int. Levels keep every order and tie of the values, so
    the graph orders and compares its own values as ints; two graphs' levels
    are comparable only when their scales agree.

    Its validity is found once, on first use, and kept with it: `_defects`
    holds the facts every check of the graph reads.
    """

    def __init__(
        self,
        vertices: Iterable[tuple[str, ValueLike]],
        edges: Iterable[tuple[str, str]] = (),
        name: Optional[str] = None,
    ):
        # ids are interned, so every edge end shares its vertex's string
        # (parsing text makes a new string for each occurrence of an id)
        values: dict[str, Fraction] = {}
        order: list[str] = []
        for vid, raw in vertices:
            vid = sys.intern(str(vid))
            if vid in values:
                raise ValueError(f"duplicate vertex id {vid!r}")
            values[vid] = to_fraction(raw)
            order.append(vid)
        if not values:
            raise ValueError("vertex set must be nonempty")

        self.scale = common_denominator(values.values())
        levels = {vid: on_lattice(value, self.scale) for vid, value in values.items()}

        edge_list: list[tuple[str, str]] = []
        for u, v in edges:
            u, v = sys.intern(str(u)), sys.intern(str(v))
            if u not in values or v not in values:
                raise ValueError(f"edge ({u}, {v}) references unknown vertex")
            if u == v:
                raise ValueError(f"self-loop at {u} is a level edge")
            # orient lower endpoint first by (value, id)
            lu, lv = levels[u], levels[v]
            if lu > lv or (lu == lv and u > v):
                u, v = v, u
            edge_list.append((u, v))

        self._values = values
        self._levels = levels
        self._order = tuple(order)
        self.edges: tuple[tuple[str, str], ...] = tuple(edge_list)
        self.name = name

        adj: dict[str, list[tuple[int, str]]] = {vid: [] for vid in order}
        for idx, (u, v) in enumerate(self.edges):
            adj[u].append((idx, v))
            adj[v].append((idx, u))
        self._adj = adj

    # ---- basic accessors ----

    @property
    def vertex_ids(self) -> tuple[str, ...]:
        return self._order

    def value(self, vid: str) -> Fraction:
        return self._values[vid]

    def level(self, vid: str) -> int:
        """`value(vid)` times `scale`, an exact int."""
        return self._levels[vid]

    def vertices(self) -> tuple[tuple[str, Fraction], ...]:
        return tuple((vid, self._values[vid]) for vid in self._order)

    def neighbors(self, vid: str) -> tuple[tuple[int, str], ...]:
        return tuple(self._adj[vid])

    def degree(self, vid: str) -> int:
        return len(self._adj[vid])

    def up_degree(self, vid: str) -> int:
        """Arcs to strictly higher neighbours; a level edge counts on neither side."""
        levels = self._levels
        lv = levels[vid]
        return sum(1 for _, w in self._adj[vid] if levels[w] > lv)

    def down_degree(self, vid: str) -> int:
        """Arcs to strictly lower neighbours; a level edge counts on neither side."""
        levels = self._levels
        lv = levels[vid]
        return sum(1 for _, w in self._adj[vid] if levels[w] < lv)

    def is_pass_through(self, vid: str) -> bool:
        """True for a removable regular vertex: one arc down, one arc up."""
        arcs = self._adj[vid]
        if len(arcs) != 2:
            return False
        levels = self._levels
        (_, a), (_, b) = arcs
        la, lv, lb = levels[a], levels[vid], levels[b]
        return la < lv < lb or lb < lv < la

    def min_value(self) -> Fraction:
        return min(self._values.values())

    def max_value(self) -> Fraction:
        return max(self._values.values())

    def span(self) -> Fraction:
        return self.max_value() - self.min_value()

    def first_betti(self) -> int:
        _, components, _ = self._defects
        return len(self.edges) - len(self._order) + components

    def edge_values(self, index: int) -> tuple[Fraction, Fraction]:
        u, v = self.edges[index]
        return self._values[u], self._values[v]

    # ---- points ----

    def vertex_point(self, vid: str) -> GraphPoint:
        return GraphPoint(value=self._values[vid], vertex=vid)

    def edge_point(self, index: int, value: ValueLike) -> GraphPoint:
        if not 0 <= index < len(self.edges):
            raise ValueError(f"no edge {index}: the graph has {len(self.edges)} edges")
        lo, hi = self.edge_values(index)
        val = to_fraction(value)
        if not (lo <= val <= hi):
            raise ValueError(
                f"value {format_value(val)} outside edge {index} span "
                f"[{format_value(lo)}, {format_value(hi)}]"
            )
        if val == lo:
            return self.vertex_point(self.edges[index][0])
        if val == hi:
            return self.vertex_point(self.edges[index][1])
        return GraphPoint(value=val, edge=index)

    def contains_point(self, p: GraphPoint) -> bool:
        """True when p is on the graph: a vertex of it at that vertex's value,
        or a value within the span of one of its edges, ends included.

        Compared as ints on the graph's lattice: a value num/den is a level
        L exactly when num·scale == L·den, and lies between two levels when
        num·scale does between them times den.
        """
        num, den = p.value.numerator, p.value.denominator
        if p.vertex is not None:
            level = self._levels.get(p.vertex)
            return level is not None and num * self.scale == level * den
        if not 0 <= p.edge < len(self.edges):  # type: ignore[operator]
            return False
        u, v = self.edges[p.edge]  # type: ignore[index]
        return self._levels[u] * den <= num * self.scale <= self._levels[v] * den

    # ---- structural helpers ----

    @cached_property
    def _defects(self) -> tuple[tuple[int, ...], int, frozenset[str]]:
        """The indices of the level edges, the number of connected components
        (one union-find pass) and the ids of the pass-through vertices."""
        levels = self._levels
        index = {vid: i for i, vid in enumerate(self._order)}
        parent = list(range(len(index)))
        components = len(index)
        level_edges = []
        for idx, (u, v) in enumerate(self.edges):
            if levels[u] == levels[v]:
                level_edges.append(idx)
            a, b = _find_root(parent, index[u]), _find_root(parent, index[v])
            if a != b:
                parent[a] = b
                components -= 1
        through = frozenset(vid for vid in self._order if self.is_pass_through(vid))
        return tuple(level_edges), components, through or _NO_VERTICES

    def with_values(self, values: dict[str, ValueLike]) -> "ReebGraph":
        """Same combinatorial structure with reassigned vertex values."""
        new_vals = dict(self._values)
        for vid, raw in values.items():
            if vid not in new_vals:
                raise ValueError(f"unknown vertex id {vid!r}")
            new_vals[vid] = to_fraction(raw)
        return ReebGraph(
            [(vid, new_vals[vid]) for vid in self._order],
            self.edges,
            name=self.name,
        )

    def negated(self) -> "ReebGraph":
        return ReebGraph(
            [(vid, -self._values[vid]) for vid in self._order],
            self.edges,
            name=self.name,
        )

    # ---- equality is structural; the name is metadata ----

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ReebGraph):
            return NotImplemented
        return (
            self._values == other._values
            and Counter(self.edges) == Counter(other.edges)
        )

    def __hash__(self) -> int:  # pragma: no cover - structural identity only
        return hash((frozenset(self._values.items()), frozenset(Counter(self.edges).items())))

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return f"<ReebGraph{label} V={len(self._order)} E={len(self.edges)}>"


# ---------------------------------------------------------------------------
# validation / canonicalization
# ---------------------------------------------------------------------------


def validate(g: ReebGraph) -> ValidationReport:
    """Report every invariant violation; an empty report means a valid graph.
    Level edges come in edge order, then disconnection, then pass-through
    vertices in vertex order."""
    level_edges, components, through = g._defects
    violations = []
    for idx in level_edges:
        u, v = g.edges[idx]
        message = f"edge joins two vertices at value {format_value(g.value(u))}"
        violations.append(Violation("level-edge", message, f"edge {idx} ({u}, {v})"))
    if components > 1:
        message = f"graph has {components} connected components"
        violations.append(Violation("disconnected", message, "graph"))
    regular = "non-critical degree-2 vertex (one arc down, one arc up)"
    for vid in g.vertex_ids:
        if vid in through:
            violations.append(Violation("pass-through", regular, f"vertex {vid}"))
    return ValidationReport(tuple(violations))


def canonicalize(g: ReebGraph) -> ReebGraph:
    """Remove pass-through vertices; the quotient representation is unique.

    The input must be valid except possibly for pass-through vertices.

    Splicing out a pass-through vertex leaves every other vertex's degree
    and up/down split as they were, so the removed set is exactly the
    input's pass-through set. Those vertices form maximal monotone chains;
    each chain becomes one edge from its lowest to its highest
    non-pass-through vertex, kept in the slot of the chain's smallest edge
    index, and edges keep their relative order. The output vertices are
    sorted by (value, id), read as (level, id). One O(V + E) pass, plus that
    O(V log V) sort. An input that is already canonical, with no
    pass-through vertex and its vertices in that order, is returned as is:
    graphs are immutable, so the output may share it.
    """
    level_edges, components, through = g._defects
    if level_edges or components > 1:
        hard = (v for v in validate(g).violations if v.code != "pass-through")
        raise InvalidGraphError(str(ValidationReport(tuple(hard))))
    levels = g._levels
    kept_ids = sorted(
        (vid for vid in g.vertex_ids if vid not in through), key=lambda v: (levels[v], v)
    )
    if not through and tuple(kept_ids) == g.vertex_ids:
        return g

    # edges are oriented lower end first, and no edge is level, so each
    # pass-through vertex is the lower end of exactly one edge
    edges = g.edges
    up_edge = {u: idx for idx, (u, _) in enumerate(edges) if u in through}
    slots: list[Optional[tuple[str, str]]] = [None] * len(edges)
    for idx, (u, v) in enumerate(edges):
        if u in through:
            continue  # inside a chain; walked from the edge at its bottom
        slot = idx
        while v in through:
            nxt = up_edge[v]
            slot = min(slot, nxt)
            v = edges[nxt][1]
        slots[slot] = (u, v)
    kept = [e for e in slots if e is not None]
    return ReebGraph([(vid, g._values[vid]) for vid in kept_ids], kept, name=g.name)


# ---------------------------------------------------------------------------
# critical structure
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CriticalValues:
    values: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        for a, b in zip(self.values, self.values[1:]):
            if not a < b:
                raise ValueError("critical values must be strictly increasing")

    def __iter__(self):
        return iter(self.values)

    def __len__(self) -> int:
        return len(self.values)

    def min_gap(self) -> Fraction:
        if len(self.values) < 2:
            raise InvalidGraphError("minimal gap needs at least two critical values")
        return min(b - a for a, b in zip(self.values, self.values[1:]))


def critical_values(g: ReebGraph) -> CriticalValues:
    _, _, through = g._defects
    vals = sorted({g.value(v) for v in g.vertex_ids if v not in through})
    return CriticalValues(tuple(vals))


# ---------------------------------------------------------------------------
# travel distance d_f
# ---------------------------------------------------------------------------


def travel_distances(g: ReebGraph, points: Iterable[GraphPoint]) -> list[list[Fraction]]:
    """The matrix of d_f(x, y) over `points`, rows and columns in input order.

    d_f(x, y) is the smallest hi - lo such that x and y share a component of
    the preimage of [lo, hi] (Bauer-Ge-Wang): the least value span of a path
    joining them. Each arc is subdivided at the given edge-interior points,
    which leaves d_f unchanged and makes every point a node (equal locations
    share one).

    A simple path bottoms out at one of its ends or at a turn vertex: a
    vertex with at least two incident arcs that do not go down from it (a
    level edge counts at both of its ends, and parallel arcs count one
    each). If it does not bottom out at an end, it comes from above where it
    first reaches its lowest value, so that point is a vertex, and the path
    enters and leaves it by two distinct such arcs. The sweep floors are the
    distinct turn values and the top vertex value. The sweep of floor v
    adds, in increasing value order, every node above the previous floor u
    (the first sweep adds every node), and when two components meet at t,
    each pair across them gets span t - min(v, f(x), f(y)). That is never
    below d_f: a path joining them in the sweep has values in (u, t], and no
    turn value lies in (u, v), so its lowest value is at least
    min(v, f(x), f(y)). And some sweep records d_f: a least-span path that
    bottoms out at a turn vertex joins its ends in the sweep of that
    vertex's value, and one that bottoms out at an end x in the sweep whose
    (u, v] holds f(x). Each entry keeps its least span over all sweeps, and
    a sweep stops once its points are all joined. A pair joins at most once
    per sweep, so the cost is O(T (V' alpha + P^2)) for T sweeps (the
    distinct turn values, plus one), V' nodes and P distinct points. A graph
    with no turn vertex, such as a comb whose teeth all hang down, takes one
    sweep. Exact: node values are swept as ints over the lcm of the graph's
    scale and the points' denominators, every span is a difference of two of
    them, and the entries become `Fraction`s only on return.

    Raises ValueError for a point not on the graph and InvalidGraphError
    when two points lie in different components.
    """
    points = tuple(points)
    for p in points:
        if not g.contains_point(p):
            raise ValueError(f"point {p} is not on the graph")
    scale = math.lcm(g.scale, common_denominator(p.value for p in points))
    matrix, slots = _travel_matrix(g, points, scale)
    exact = {d: Fraction(d, scale) for d in set(chain.from_iterable(matrix))}
    return [[exact[matrix[i][j]] for j in slots] for i in slots]


def _travel_matrix(
    g: ReebGraph, points: tuple[GraphPoint, ...], scale: int
) -> tuple[list[list[int]], list[int]]:
    """`travel_distances` times `scale`, as ints, over distinct locations.

    Returns the matrix over the distinct locations of `points`, in order of
    first appearance, and the slot of each input point in it: d_f of points
    i and j is `matrix[slots[i]][slots[j]]`. Points at one location share a
    slot, so the matrix is never larger than the point list's locations. No
    `Fraction` is hashed: a vertex location is keyed by its id, and an edge
    point's by its edge and its value on the lattice.

    Every point must be on the graph (callers check `contains_point`), and
    `scale` must be a multiple of `g.scale` and of the denominators of every
    point value, so that each node value is an int on its lattice: a vertex's
    level lifted by `scale // g.scale`.
    """
    # nodes: the vertices, keyed by id, then one per distinct edge-interior
    # point, keyed by (edge, value on the lattice)
    node_of: dict[object, int] = {vid: i for i, vid in enumerate(g.vertex_ids)}
    lift = scale // g.scale
    value = [g.level(vid) * lift for vid in g.vertex_ids]
    # the floors: the turn values and the top value; a turn vertex has two
    # arcs that do not go down from it (edges run from their lower end, and
    # a level edge counts at both ends)
    rising = Counter(u for u, _ in g.edges)
    rising.update(v for u, v in g.edges if g.level(u) == g.level(v))
    turns = {g.level(vid) * lift for vid, arcs in rising.items() if arcs >= 2}
    floors = sorted(turns | {max(value)})
    inside: dict[int, list[int]] = {}  # edge index -> its interior nodes
    column: dict[int, int] = {}  # point node -> its row in the distinct matrix
    slots = []
    for p in points:
        if p.vertex is not None:
            node = node_of[p.vertex]
        else:
            level = on_lattice(p.value, scale)
            key = (p.edge, level)
            node = node_of.get(key, -1)
            if node < 0:
                node = node_of[key] = len(value)
                value.append(level)
                inside.setdefault(p.edge, []).append(node)  # type: ignore[arg-type]
        slots.append(column.setdefault(node, len(column)))
    adjacent: list[list[int]] = [[] for _ in value]
    for idx, (u, v) in enumerate(g.edges):
        between = sorted(inside.get(idx, ()), key=value.__getitem__)
        arc = [node_of[u], *between, node_of[v]]
        for a, b in zip(arc, arc[1:]):
            adjacent[a].append(b)
            adjacent[b].append(a)

    size = len(column)
    unset = max(value) - min(value) + 1  # above every span
    dist = [[unset] * size for _ in range(size)]
    for k in range(size):
        dist[k][k] = 0
    row_value = [0] * size
    for node, k in column.items():
        row_value[k] = value[node]
    order = sorted(range(len(value)), key=value.__getitem__)
    ranked = [value[node] for node in order]
    # below: the previous floor; the first sweep adds every node
    for below, floor in zip([ranked[0] - 1, *floors], floors):
        pending = sum(f > below for f in row_value) - 1  # joins to come
        if pending < 1:
            break  # no pair left above this floor, nor above higher ones
        low = [f if f < floor else floor for f in row_value]  # min(floor, f)
        parent = [-1] * len(value)  # -1: not yet added
        # root -> rows of its points at or above the floor, and below it
        members: dict[int, tuple[list[int], list[int]]] = {}
        for node in order[bisect_right(ranked, below):]:
            parent[node] = node
            rows = [column[node]] if node in column else []
            members[node] = (rows, []) if value[node] >= floor else ([], rows)
            for other in adjacent[node]:
                if parent[other] < 0:
                    continue
                a, b = _find_root(parent, node), _find_root(parent, other)
                if a == b:
                    continue
                (over_a, hung_a), (over_b, hung_b) = members.pop(a), members[b]
                if (over_a or hung_a) and (over_b or hung_b):
                    # a pair joined at t spans t - min(low(x), low(y)), which
                    # against a row at or above the floor is t - low(x)
                    t = value[node]
                    for joined, over in ((chain(over_a, hung_a), over_b), (hung_b, over_a)):
                        for i in joined:
                            row, span = dist[i], t - low[i]
                            for j in over:
                                if span < row[j]:
                                    row[j] = dist[j][i] = span
                    # two hanging rows span the larger of their two spans to
                    # t; each span is one int, shared by the entries it fills
                    spans = [(j, t - low[j]) for j in hung_b] if hung_a else ()
                    for i in hung_a:
                        row, own = dist[i], t - low[i]
                        for j, span in spans:
                            if own > span:
                                span = own
                            if span < row[j]:
                                row[j] = dist[j][i] = span
                    pending -= 1
                over_b.extend(over_a)
                hung_b.extend(hung_a)
                parent[a] = b
            if not pending:
                break  # every point of this sweep is joined
    if any(unset in row for row in dist):
        raise InvalidGraphError("points are not connected in the graph")
    return dist, slots


def travel_distance(g: ReebGraph, x: GraphPoint, y: GraphPoint) -> Fraction:
    """d_f(x, y): the smallest value span of a path joining x and y.

    One entry of `travel_distances`; to query many pairs of a point set,
    call that once instead.
    """
    return travel_distances(g, (x, y))[0][1]
