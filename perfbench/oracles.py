"""Checks computed apart from the program, or implied by the method.

Everything here reads the program's objects only through their data (vertex
values, edges, diagram points) and recomputes what it checks with its own
code and exact arithmetic.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

# The trial count `reeb experiment` gives each suite by default.
SUITE_TRIALS = {
    "stability": 200,
    "snapping": 100,
    "simplify-contract": 100,
    "recovery": 50,
    "figure1": 1,
    "figure5": 1,
    "lowerbound-consistency": 100,
    "path-equivalence": 100,
}


def suite_records(name: str, trials: int) -> int:
    """Records a suite emits at a trial count, from how it builds its trials."""
    if name == "figure1":
        return 1
    if name == "figure5":
        return 8 + 7  # critical counts for n = 1..8, bottlenecks for n = 1..7
    if name == "lowerbound-consistency":
        return trials + 4  # figure1, y-perturbed, y- and cycle-collapse
    if name == "path-equivalence":
        return max(2, trials // 20) * 5 + 2 * 5  # 4 refinements + 1 monotonicity
    return trials


# ---------------------------------------------------------------------------
# diagrams
# ---------------------------------------------------------------------------


def points(d) -> list[tuple[str, Fraction, Fraction]]:
    return sorted((p.kind, p.birth, p.death) for p in d)


def _linf(p, q) -> Fraction:
    return max(abs(p[1] - q[1]), abs(p[2] - q[2]))


def _diag(p) -> Fraction:
    return abs(p[1] - p[2]) / 2


def witness_cost(d1, d2, witness) -> Fraction:
    """Cost of a matching, after checking it is a same-kind partial matching."""
    p1 = [(p.kind, p.birth, p.death) for p in d1]
    p2 = [(p.kind, p.birth, p.death) for p in d2]
    left = [i for i, _ in witness.pairs] + list(witness.unmatched_left)
    right = [j for _, j in witness.pairs] + list(witness.unmatched_right)
    if sorted(left) != list(range(len(p1))) or sorted(right) != list(range(len(p2))):
        raise AssertionError("witness does not cover each point exactly once")
    cost = Fraction(0)
    for i, j in witness.pairs:
        if p1[i][0] != p2[j][0]:
            raise AssertionError("witness matches points of different kinds")
        cost = max(cost, _linf(p1[i], p2[j]))
    for i in witness.unmatched_left:
        cost = max(cost, _diag(p1[i]))
    for j in witness.unmatched_right:
        cost = max(cost, _diag(p2[j]))
    return cost


def nearest_neighbour_bound(d1, d2) -> Fraction:
    """Every point is matched to a same-kind point or the diagonal, so the
    largest nearest-option distance is a lower bound on the bottleneck."""
    p1, p2 = points(d1), points(d2)
    bound = Fraction(0)
    for mine, theirs in ((p1, p2), (p2, p1)):
        for p in mine:
            near = min(
                [_diag(p)] + [_linf(p, q) for q in theirs if q[0] == p[0]]
            )
            bound = max(bound, near)
    return bound


def topology_counts(g) -> dict[str, int]:
    """Point counts per kind of a connected graph, from its shape alone."""
    down = Counter()
    up = Counter()
    for u, v in g.edges:
        lo, hi = (u, v) if g.value(u) < g.value(v) else (v, u)
        up[lo] += 1
        down[hi] += 1
    minima = sum(1 for v in g.vertex_ids if down[v] == 0)
    maxima = sum(1 for v in g.vertex_ids if up[v] == 0)
    return {
        "Ord0": minima - 1,
        "Rel1": maxima - 1,
        "Ext0": 1,
        "Ext1": len(g.edges) - len(g.vertex_ids) + 1,
    }


def kind_counts(d) -> dict[str, int]:
    counts = Counter(p.kind for p in d)
    return {k: counts.get(k, 0) for k in ("Ord0", "Rel1", "Ext0", "Ext1")}


def snap(d, a: Fraction, b: Fraction) -> list[tuple[str, Fraction, Fraction]]:
    """The snapping principle: coordinates in [a, b] move to the midpoint;
    points that land on the diagonal vanish unless they are Ext0."""
    mid = (a + b) / 2
    out = []
    for kind, birth, death in points(d):
        birth = mid if a <= birth <= b else birth
        death = mid if a <= death <= b else death
        if birth != death or kind == "Ext0":
            out.append((kind, birth, death))
    return sorted(out)


# ---------------------------------------------------------------------------
# graphs
# ---------------------------------------------------------------------------


def max_displacement(g1, g2) -> Fraction:
    """Largest value change of a vertex kept under the same id."""
    return max(abs(g1.value(v) - g2.value(v)) for v in g1.vertex_ids)


def same_graph(g1, g2) -> bool:
    """Same ids, values and edge multiset."""
    vals1 = {v: g1.value(v) for v in g1.vertex_ids}
    vals2 = {v: g2.value(v) for v in g2.vertex_ids}
    edges1 = Counter(frozenset(e) for e in g1.edges)
    edges2 = Counter(frozenset(e) for e in g2.edges)
    return vals1 == vals2 and edges1 == edges2


def level_isomorphic_distinct(g1, g2) -> bool:
    """Level isomorphism when every vertex value is distinct in each graph:
    the bijection is then forced by the values, so comparing the multisets
    of edge value pairs decides it."""
    vals1 = sorted(g1.value(v) for v in g1.vertex_ids)
    vals2 = sorted(g2.value(v) for v in g2.vertex_ids)
    if len(set(vals1)) != len(vals1) or len(set(vals2)) != len(vals2):
        raise ValueError("values are not distinct; the check does not apply")
    pairs1 = Counter(tuple(sorted((g1.value(u), g1.value(v)))) for u, v in g1.edges)
    pairs2 = Counter(tuple(sorted((g2.value(u), g2.value(v)))) for u, v in g2.edges)
    return vals1 == vals2 and pairs1 == pairs2


def travel_distance(g, x, y) -> Fraction:
    """d_f(x, y) by union-find window sweeps.

    For each lower end lo (a vertex value at or below both points, or the
    lower point's own value), grow the window upward, adding vertices and the
    arcs they close, until x and y share a component; the best span over all
    lo is the travel distance.
    """
    if _key(x) == _key(y):
        return Fraction(0)
    if x.edge is not None and x.edge == y.edge:
        return abs(x.value - y.value)
    floor, ceil = min(x.value, y.value), max(x.value, y.value)
    lows = sorted({g.value(v) for v in g.vertex_ids if g.value(v) < floor} | {floor})
    best = None
    for lo in reversed(lows):
        if best is not None and ceil - lo >= best:
            break
        hi = _first_join(g, x, y, lo)
        if hi is not None and (best is None or hi - lo < best):
            best = hi - lo
    if best is None:
        raise AssertionError("points are not connected")
    return best


def _key(p) -> tuple:
    return ("v", p.vertex) if p.vertex is not None else ("p", p.edge, p.value)


def _first_join(g, x, y, lo: Fraction):
    """Smallest hi >= both values at which x and y connect inside [lo, hi]."""
    parent: dict[tuple, tuple] = {}

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a, b):
        parent[find(a)] = find(b)

    interior = {}  # edge index -> keys of x / y lying inside it
    for p in (x, y):
        if p.edge is not None:
            interior.setdefault(p.edge, []).append(p)
    by_value: dict[Fraction, list] = {}
    for v in g.vertex_ids:
        if g.value(v) >= lo:
            by_value.setdefault(g.value(v), []).append(("v", v))
    for p in (x, y):
        if p.edge is not None:
            by_value.setdefault(p.value, []).append(p)
    ceil = max(x.value, y.value)
    kx, ky = _key(x), _key(y)
    for t in sorted(by_value):
        for item in by_value[t]:
            if isinstance(item, tuple):  # a vertex
                vid = item[1]
                parent[item] = item
                for idx, w in g.neighbors(vid):
                    if ("v", w) in parent:
                        union(item, ("v", w))
                    for p in interior.get(idx, ()):
                        if _key(p) in parent:
                            union(item, _key(p))
            else:  # x or y inside an arc: joins the arc's present endpoints
                k = _key(item)
                parent[k] = k
                for end in g.edges[item.edge]:
                    if ("v", end) in parent:
                        union(k, ("v", end))
        if t >= ceil and kx in parent and ky in parent and find(kx) == find(ky):
            return t
    return None
