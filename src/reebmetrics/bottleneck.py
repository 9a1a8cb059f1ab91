"""Exact bottleneck distance between typed extended persistence diagrams.

Matchings must pair points of the same kind, so the optimum decomposes as a
maximum of per-kind optima. Each per-kind optimum is one of finitely many
candidates: the pairwise l-infinity distances and the diagonal costs. Per
kind, every coordinate is scaled to an int over the lcm L of the kind's
denominators; over 2L each pair distance is 2 max(|db|, |dd|) and each
diagonal cost |b - d|, all ints. Feasibility at a threshold is a perfect
matching in the graph doubled by diagonal slots, found by an iterative
Hopcroft-Karp that compares only integers.

The search probes the nearest-neighbour floor first: every point pays at
least the distance to its nearest partner of the other side or to the
diagonal, so the largest such distance bounds every matching from below,
and it is itself a candidate. On nearby diagrams, the common call, the
floor is feasible and one matching settles the kind. Only when it is not
are the distinct candidates above it sorted and binary-searched, which
tests O(log nk) of them. Either way the witness is the matching found at
the optimal candidate, so it does not depend on which search found it.
Only the optimal candidate becomes a `Fraction` again, and the witness
matching is checked against it in exact `Fraction` arithmetic before it is
returned. Among optimal matchings, which one is the witness is an
implementation detail; its cost always equals the value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, repeat
from typing import Optional, Sequence

from .diagram import KINDS, Diagram, DiagramPoint, linf
from .graph import ReebGraph
from .persistence import extended_diagram
from .rationals import ValueLike, common_denominator, on_lattice, to_fraction


@dataclass(frozen=True)
class PartialMatching:
    """Pairing between two diagrams by point index, plus unmatched indices."""

    pairs: tuple[tuple[int, int], ...]
    unmatched_left: tuple[int, ...]
    unmatched_right: tuple[int, ...]

    def validate(self, d1: Diagram, d2: Diagram) -> None:
        left = [i for i, _ in self.pairs] + list(self.unmatched_left)
        right = [j for _, j in self.pairs] + list(self.unmatched_right)
        if sorted(left) != list(range(len(d1.points))):
            raise ValueError("matching does not cover the left diagram exactly once")
        if sorted(right) != list(range(len(d2.points))):
            raise ValueError("matching does not cover the right diagram exactly once")
        for i, j in self.pairs:
            if d1.points[i].kind != d2.points[j].kind:
                raise ValueError(
                    f"matched points of different kinds: "
                    f"{d1.points[i].kind} vs {d2.points[j].kind}"
                )


@dataclass(frozen=True)
class BottleneckResult:
    value: Fraction
    witness: PartialMatching


def matching_cost(d1: Diagram, d2: Diagram, m: PartialMatching) -> Fraction:
    """Max over matched l-infinity distances and unmatched diagonal costs."""
    m.validate(d1, d2)
    cost = Fraction(0)
    for i, j in m.pairs:
        cost = max(cost, linf(d1.points[i], d2.points[j]))
    for i in m.unmatched_left:
        cost = max(cost, d1.points[i].diagonal_distance)
    for j in m.unmatched_right:
        cost = max(cost, d2.points[j].diagonal_distance)
    return cost


@dataclass(frozen=True)
class _KindDistances:
    """The distances of one kind, as ints in units of 1/`scale`.

    `pairs[a][j]` is `linf(left[a], right[j])` and `diag_left` /
    `diag_right` the diagonal costs; together they are the kind's
    candidates. A threshold is an int on the same lattice, and every test
    against it compares integers.
    """

    scale: int
    pairs: list[list[int]]
    diag_left: list[int]
    diag_right: list[int]


def _kind_distances(
    left: Sequence[DiagramPoint], right: Sequence[DiagramPoint]
) -> _KindDistances:
    lattice = common_denominator(
        chain.from_iterable((p.birth, p.death) for p in chain(left, right))
    )

    def coords(points: Sequence[DiagramPoint]) -> list[tuple[int, int]]:
        return [(on_lattice(p.birth, lattice), on_lattice(p.death, lattice)) for p in points]

    # over 2 * lattice: linf(p, q) is 2 max(|db|, |dd|), a diagonal cost |b - d|
    lefts, rights = coords(left), coords(right)
    dist = [
        [2 * max(abs(b - b2), abs(d - d2)) for b2, d2 in rights] for b, d in lefts
    ]
    diag_left = [abs(b - d) for b, d in lefts]
    diag_right = [abs(b - d) for b, d in rights]
    return _KindDistances(2 * lattice, dist, diag_left, diag_right)


def _threshold_matching(
    dists: _KindDistances, threshold: int
) -> Optional[list[Optional[int]]]:
    """Perfect matching in the doubled graph at an int threshold, or None.

    Left nodes are the n left points, then a diagonal slot n + j per right
    point; right nodes are the k right points, then a diagonal slot k + a per
    left point. Point a meets point j when their distance is at most the
    threshold, and its own slot k + a when its diagonal cost is; slot n + j
    meets point j the same way, and every slot meets every slot, since
    diagonal-to-diagonal is free. Returns, for each left point, the matched
    right index or None for its diagonal slot.

    Hopcroft-Karp: each phase layers the graph by a BFS from the free left
    nodes, then augments along vertex-disjoint shortest paths found by a DFS
    on an explicit stack. The slot-to-slot block is complete, so it is never
    listed: only the slots of the layer where the BFS first enters it can
    use it on a shortest path, and they share one cursor over it.
    """
    n, k = len(dists.diag_left), len(dists.diag_right)
    size = n + k
    adj = [[j for j, r in enumerate(row) if r <= threshold] for row in dists.pairs]
    for a, r in enumerate(dists.diag_left):
        if r <= threshold:
            adj[a].append(k + a)
    adj.extend([j] if r <= threshold else [] for j, r in enumerate(dists.diag_right))
    block = range(k, size)
    unreached = size + 1
    match_left = [-1] * size
    match_right = [-1] * size

    while True:
        layer = [unreached] * size
        queue = [u for u in range(size) if match_left[u] < 0]
        if not queue:
            break
        for u in queue:
            layer[u] = 0
        shortest = unreached  # number of left nodes on a shortest augmenting path
        block_layer = unreached
        for u in queue:  # grows while it is read
            d = layer[u]
            if d >= shortest:
                break
            targets = adj[u]
            if u >= n and block_layer == unreached:
                block_layer = d
                targets = [*targets, *block]
            for v in targets:
                w = match_right[v]
                if w < 0:
                    shortest = min(shortest, d + 1)
                elif layer[w] == unreached:
                    layer[w] = d + 1
                    queue.append(w)
        if shortest == unreached:
            return None

        def usable(v: int, d: int) -> bool:
            # v continues a shortest path from a node of layer d - 1
            w = match_right[v]
            return layer[w] == d if w >= 0 else d == shortest

        cursor = [0] * size
        block_cursor = k
        for root in range(size):
            if match_left[root] >= 0:
                continue
            path, via = [root], []
            while path:
                u = path[-1]
                d = layer[u] + 1
                targets = adj[u]
                i = cursor[u]
                while i < len(targets) and not usable(targets[i], d):
                    i += 1
                cursor[u] = i
                v = targets[i] if i < len(targets) else -1
                if v < 0 and u >= n and d - 1 == block_layer:
                    while block_cursor < size and not usable(block_cursor, d):
                        block_cursor += 1
                    if block_cursor < size:
                        v = block_cursor
                if v < 0:
                    # dead end for this phase; the parent skips it on its next look
                    layer[u] = unreached
                    path.pop()
                    if via:
                        via.pop()
                    continue
                via.append(v)
                w = match_right[v]
                if w < 0:
                    for x, y in zip(path, via):
                        match_left[x] = y
                        match_right[y] = x
                    break
                path.append(w)

    return [v if v < k else None for v in match_left[:n]]


def _floor(dists: _KindDistances) -> int:
    """The largest, over every point of either side, of the distance to its
    nearest partner on the other side or to the diagonal, whichever is less.

    A point with no partner (the other side is empty) pays its diagonal cost.
    """
    columns = zip(*dists.pairs) if dists.pairs else repeat(())
    near = chain(zip(dists.diag_left, dists.pairs), zip(dists.diag_right, columns))
    return max((min((cost, *row)) for cost, row in near), default=0)


def _kind_assignment(dists: _KindDistances) -> tuple[Fraction, list[Optional[int]]]:
    """The smallest feasible candidate of one kind and a matching attaining it.

    Every matching pays at least the floor, and the floor is a candidate, so
    when the floor is feasible it is the optimum. Otherwise every candidate
    up to it is infeasible, and the binary search runs over the distinct
    candidates above it, the largest of which is always feasible.
    """
    floor = _floor(dists)
    assignment = _threshold_matching(dists, floor)
    if assignment is not None:
        return Fraction(floor, dists.scale), assignment
    everything = chain(dists.diag_left, dists.diag_right, chain.from_iterable(dists.pairs))
    candidates = sorted({c for c in everything if c > floor})
    lo, hi = 0, len(candidates) - 1
    best = hi
    while lo <= hi:
        mid = (lo + hi) // 2
        found = _threshold_matching(dists, candidates[mid])
        if found is None:
            lo = mid + 1
        else:
            best, assignment, hi = mid, found, mid - 1
    assert assignment is not None
    return Fraction(candidates[best], dists.scale), assignment


def feasible(d1: Diagram, d2: Diagram, delta: ValueLike) -> bool:
    """Does some valid partial matching have cost <= delta?

    Every distance is an int on its kind's lattice, so a distance is at
    most delta exactly when it is at most floor(delta * scale), even when
    delta falls between two candidates or off the lattice.
    """
    delta = to_fraction(delta)
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    for kind in KINDS:
        dists = _kind_distances(d1.of_kind(kind), d2.of_kind(kind))
        if _threshold_matching(dists, math.floor(delta * dists.scale)) is None:
            return False
    return True


def bottleneck(d1: Diagram, d2: Diagram) -> BottleneckResult:
    """Exact optimum over partial matchings, with a witness attaining it.

    The optimum is one of finitely many candidate values; per kind it is the
    nearest-neighbour floor when that is feasible, and otherwise the
    smallest feasible candidate above it, found by binary search.
    """
    kind_indices_1 = {kind: [] for kind in KINDS}
    kind_indices_2 = {kind: [] for kind in KINDS}
    for i, p in enumerate(d1.points):
        kind_indices_1[p.kind].append(i)
    for j, q in enumerate(d2.points):
        kind_indices_2[q.kind].append(j)

    value = Fraction(0)
    pairs: list[tuple[int, int]] = []
    unmatched_left: list[int] = []
    unmatched_right: list[int] = []

    for kind in KINDS:
        left = [d1.points[i] for i in kind_indices_1[kind]]
        right = [d2.points[j] for j in kind_indices_2[kind]]
        if not left and not right:
            continue
        best, assignment = _kind_assignment(_kind_distances(left, right))
        value = max(value, best)
        for a, b in enumerate(assignment):
            if b is None:
                unmatched_left.append(kind_indices_1[kind][a])
            else:
                pairs.append((kind_indices_1[kind][a], kind_indices_2[kind][b]))
        matched_right = {b for b in assignment if b is not None}
        for j in range(len(right)):
            if j not in matched_right:
                unmatched_right.append(kind_indices_2[kind][j])

    witness = PartialMatching(
        tuple(sorted(pairs)),
        tuple(sorted(unmatched_left)),
        tuple(sorted(unmatched_right)),
    )
    result = BottleneckResult(value=value, witness=witness)
    check = matching_cost(d1, d2, witness)
    if check != value:  # pragma: no cover - internal consistency
        raise AssertionError(f"witness cost {check} != optimum {value}")
    return result


def graph_bottleneck(g1: ReebGraph, g2: ReebGraph) -> Fraction:
    """Bottleneck distance between graphs via their extended diagrams."""
    return bottleneck(extended_diagram(g1), extended_diagram(g2)).value
