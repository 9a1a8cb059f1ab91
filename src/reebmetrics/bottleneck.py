"""Exact bottleneck distance between typed extended persistence diagrams.

Matchings must pair points of the same kind, so the optimum decomposes as a
maximum of per-kind optima. Each per-kind optimum is one of finitely many
candidates: the pairwise l-infinity distances and the diagonal costs. Both
diagrams' int rows are read on one lattice L, the lcm of their scales, as
`Diagram._rows_on` lifts them. Over 2L each pair distance is
2 max(|db|, |dd|) and each diagonal cost |b - d|, all ints. Feasibility at
a threshold is a perfect matching in the graph doubled by diagonal slots,
found by an iterative Hopcroft-Karp that compares only integers.

No pair distance is stored: the search uses the geometry of the points, as
Kerber, Morozov and Nigmetov do (Geometry Helps to Compare Persistence
Diagrams, JEA 2017). Each kind's rows are sorted by (birth, death), so a
side's births can be bisected, and a pair is never closer than twice its
birth gap. The floor scan finds each point's nearest partner by walking
outward from its birth among the other side's births, and stops once twice
the birth gap reaches the best distance so far. At a threshold t, a
point's neighbours are the other side's points whose births lie within
t // 2 of its own, found by bisection, whose deaths do too. So a kind needs
memory for its rows and for the pairs within the threshold, not for all
n·k pairs.

The search probes the nearest-neighbour floor first: every point pays at
least the distance to its nearest partner of the other side or to the
diagonal, so the largest such distance bounds every matching from below,
and it is itself a candidate. On nearby diagrams, the common call, the
floor is feasible and one matching settles the kind. Only when it is not
are the ints between the floor and the largest diagonal cost bisected;
each feasible probe lowers the top to the cost of the matching it found.
Either way the witness is the matching found at the optimum, so it does
not depend on which search found it. The witness matching is checked
against the optimum before it is returned, by recomputing its cost from
the rows on the same lattice, and only the optimum becomes a `Fraction`
again. Among optimal matchings, which one is the witness is an
implementation detail; its cost always equals the value.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Iterator, Optional, Sequence

from .diagram import KINDS, Diagram
from .graph import ReebGraph
from .persistence import extended_diagram
from .rationals import ValueLike, to_fraction


@dataclass(frozen=True)
class PartialMatching:
    """Pairing between two diagrams by point index, plus unmatched indices."""

    pairs: tuple[tuple[int, int], ...]
    unmatched_left: tuple[int, ...]
    unmatched_right: tuple[int, ...]

    def validate(self, d1: Diagram, d2: Diagram) -> None:
        left = [i for i, _ in self.pairs] + list(self.unmatched_left)
        right = [j for _, j in self.pairs] + list(self.unmatched_right)
        if sorted(left) != list(range(len(d1))):
            raise ValueError("matching does not cover the left diagram exactly once")
        if sorted(right) != list(range(len(d2))):
            raise ValueError("matching does not cover the right diagram exactly once")
        for i, j in self.pairs:
            k1, k2 = d1.rows[i][0], d2.rows[j][0]
            if k1 != k2:
                raise ValueError(
                    f"matched points of different kinds: {KINDS[k1]} vs {KINDS[k2]}"
                )


@dataclass(frozen=True)
class BottleneckResult:
    value: Fraction
    witness: PartialMatching


_Rows = Sequence[tuple[int, int, int]]


def _lifted(d1: Diagram, d2: Diagram) -> tuple[int, _Rows, _Rows]:
    """Both diagrams' rows on the lcm of their scales, and that lcm."""
    scale = math.lcm(d1.scale, d2.scale)
    return scale, d1._rows_on(scale), d2._rows_on(scale)


def _cost(rows1: _Rows, rows2: _Rows, m: PartialMatching) -> int:
    """The cost of `m` over twice the rows' lattice: a matched pair pays
    2 max(|db|, |dd|), an unmatched point |b - d|."""
    cost = 0
    for i, j in m.pairs:
        _, b1, d1 = rows1[i]
        _, b2, d2 = rows2[j]
        cost = max(cost, 2 * abs(b1 - b2), 2 * abs(d1 - d2))
    for rows, unmatched in ((rows1, m.unmatched_left), (rows2, m.unmatched_right)):
        for i in unmatched:
            _, b, d = rows[i]
            cost = max(cost, abs(b - d))
    return cost


def matching_cost(d1: Diagram, d2: Diagram, m: PartialMatching) -> Fraction:
    """Max over matched l-infinity distances and unmatched diagonal costs."""
    m.validate(d1, d2)
    scale, rows1, rows2 = _lifted(d1, d2)
    return Fraction(_cost(rows1, rows2, m), 2 * scale)


@dataclass(frozen=True)
class _KindDistances:
    """One kind's points and diagonal costs, as ints in units of 1/`scale`.

    `left` and `right` are each side's (birth, death) rows, sorted, on the
    lattice of `scale` / 2; `diag_left` and `diag_right` are their diagonal
    costs |b - d|. The distance of left point a and right point j is
    2 max(|db|, |dd|), computed only where the floor scan or a threshold's
    band reads it, so nothing of size n·k is built. A threshold is an int
    in the same units, and every test against it compares integers.
    """

    scale: int
    left: Sequence[tuple[int, int]]
    right: Sequence[tuple[int, int]]
    diag_left: list[int]
    diag_right: list[int]


def _kind_distances(
    left: Sequence[tuple[int, int]], right: Sequence[tuple[int, int]], scale: int
) -> _KindDistances:
    """One kind's sorted (birth, death) rows, given as ints times `scale`,
    and their diagonal costs, with distances read over 2 * `scale`."""
    assert list(left) == sorted(left) and list(right) == sorted(right), "rows must be sorted"
    return _KindDistances(
        2 * scale, left, right, [abs(b - d) for b, d in left], [abs(b - d) for b, d in right]
    )


def _kind_tables(
    scale: int, rows1: _Rows, rows2: _Rows
) -> Iterator[tuple[range, range, _KindDistances]]:
    """For each kind present on either side, its row indices on each side
    and its distances; the rows are both on the lattice of `scale`. Rows
    sort by kind first, so each kind's rows are one run.
    """

    def runs(rows: _Rows) -> list[range]:
        starts = [bisect_left(rows, (kind,)) for kind in range(len(KINDS) + 1)]
        return [range(a, b) for a, b in zip(starts, starts[1:])]

    for left, right in zip(runs(rows1), runs(rows2)):
        if left or right:
            yield left, right, _kind_distances(
                [(b, d) for _, b, d in rows1[left.start : left.stop]],
                [(b, d) for _, b, d in rows2[right.start : right.stop]],
                scale,
            )


def _neighbours(dists: _KindDistances, threshold: int) -> list[list[int]]:
    """The doubled graph's left adjacency at an int threshold (the nodes are
    those of `_threshold_matching`), without the slot-to-slot block.

    Left point a meets the right points within the threshold, in ascending
    index order, then its own slot k + a when its diagonal cost is within
    it; slot n + j meets point j the same way. A pair is within t exactly
    when both |db| and |dd| are at most t // 2, so point a's candidates are
    the band of right births within t // 2 of its birth: its start is found
    by bisection on the sorted rows, and only the deaths in it are tested.
    """
    half = threshold // 2
    right = dists.right
    k = len(right)
    adj = []
    for a, ((b, d), cost) in enumerate(zip(dists.left, dists.diag_left)):
        row = []
        for j in range(bisect_left(right, (b - half,)), k):
            b2, d2 = right[j]
            if b2 - b > half:
                break
            if abs(d2 - d) <= half:
                row.append(j)
        if cost <= threshold:
            row.append(k + a)
        adj.append(row)
    adj.extend([j] if cost <= threshold else [] for j, cost in enumerate(dists.diag_right))
    return adj


def _threshold_matching(
    dists: _KindDistances, threshold: int
) -> Optional[list[Optional[int]]]:
    """Perfect matching in the doubled graph at an int threshold, or None.

    Left nodes are the n left points, then a diagonal slot n + j per right
    point; right nodes are the k right points, then a diagonal slot k + a per
    left point. Point a meets point j when their distance is at most the
    threshold, and its own slot k + a when its diagonal cost is; slot n + j
    meets point j the same way, and every slot meets every slot, since
    diagonal-to-diagonal is free. `_neighbours` lists these edges from
    each point's band of births, so the graph costs memory for its edges
    only. Returns, for each left point, the matched right index or None for
    its diagonal slot.

    Hopcroft-Karp: each phase layers the graph by a BFS from the free left
    nodes, then augments along vertex-disjoint shortest paths found by a DFS
    on an explicit stack. The slot-to-slot block is complete, so it is never
    listed: only the slots of the layer where the BFS first enters it can
    use it on a shortest path, and they share one cursor over it.
    """
    n, k = len(dists.left), len(dists.right)
    size = n + k
    adj = _neighbours(dists, threshold)
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

    A point's best starts at its diagonal cost, so a point with no partner
    (the other side is empty) pays that. The scan walks the other side's
    births outward from the point's bisect position, up and then down, and
    stops once twice the birth gap reaches the best so far, since no pair is
    closer than that. A point whose diagonal cost is at most the floor found
    so far cannot raise it, so it is not scanned.
    """
    floor = 0
    for points, costs, others in (
        (dists.left, dists.diag_left, dists.right),
        (dists.right, dists.diag_right, dists.left),
    ):
        for (b, d), best in zip(points, costs):
            if best <= floor:
                continue
            start = bisect_left(others, (b,))
            for outward in (range(start, len(others)), range(start - 1, -1, -1)):
                for j in outward:
                    b2, d2 = others[j]
                    gap = 2 * abs(b2 - b)
                    if gap >= best:
                        break
                    dist = 2 * abs(d2 - d)
                    if dist < best:  # and gap < best, so the pair is closer
                        best = dist if dist > gap else gap
            if best > floor:
                floor = best
    return floor


def _assignment_cost(dists: _KindDistances, assignment: list[Optional[int]]) -> int:
    """The cost of one kind's matching, given as `_threshold_matching`
    returns it, in units of 1/`dists.scale`."""
    cost = 0
    unmatched = set(range(len(dists.right)))
    for (b, d), j, diagonal in zip(dists.left, assignment, dists.diag_left):
        if j is None:
            cost = max(cost, diagonal)
        else:
            unmatched.discard(j)
            b2, d2 = dists.right[j]
            cost = max(cost, 2 * abs(b - b2), 2 * abs(d - d2))
    return max([cost, *(dists.diag_right[j] for j in unmatched)])


def _kind_assignment(dists: _KindDistances) -> tuple[int, list[Optional[int]]]:
    """The smallest feasible candidate of one kind, an int in units of
    1/`dists.scale`, and the matching `_threshold_matching` finds at it.

    Every matching pays at least the floor, and the floor is a candidate, so
    when the floor is feasible it is the optimum. Otherwise the ints in
    (floor, largest diagonal cost] are bisected: the floor is infeasible,
    and the all-diagonal matching is feasible at the top. A feasible probe
    lowers the top to the cost of the matching it found, which is feasible
    and a candidate, so the top is always a candidate and ends as the
    smallest feasible one. The witness is the matching at that threshold,
    re-run there unless the last feasible probe was at it, so it is the
    one a search over the sorted candidates would return.
    """
    floor = _floor(dists)
    assignment = _threshold_matching(dists, floor)
    if assignment is not None:
        return floor, assignment
    lo, hi = floor, max(chain(dists.diag_left, dists.diag_right))
    probed = hi  # the threshold `assignment` was found at
    while hi - lo > 1:
        mid = (lo + hi) // 2
        found = _threshold_matching(dists, mid)
        if found is None:
            lo = mid
        else:
            probed, assignment, hi = mid, found, _assignment_cost(dists, found)
    if assignment is None or probed != hi:
        assignment = _threshold_matching(dists, hi)
    assert assignment is not None
    return hi, assignment


def feasible(d1: Diagram, d2: Diagram, delta: ValueLike) -> bool:
    """Does some valid partial matching have cost <= delta?

    Every distance is an int on the lattice of 2 lcm(d1.scale, d2.scale),
    so a distance is at most delta exactly when it is at most
    floor(delta * 2 lcm), even when delta falls between two candidates or
    off the lattice.
    """
    delta = to_fraction(delta)
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    scale, rows1, rows2 = _lifted(d1, d2)
    threshold = math.floor(delta * 2 * scale)
    return all(
        _threshold_matching(dists, threshold) is not None
        for _, _, dists in _kind_tables(scale, rows1, rows2)
    )


def bottleneck(d1: Diagram, d2: Diagram) -> BottleneckResult:
    """Exact optimum over partial matchings, with a witness attaining it.

    The optimum is one of finitely many candidate values; per kind it is the
    nearest-neighbour floor when that is feasible, and otherwise the
    smallest feasible candidate above it, found by bisecting the ints up to
    the largest diagonal cost.
    """
    scale, rows1, rows2 = _lifted(d1, d2)
    value = 0  # over 2 * scale
    pairs: list[tuple[int, int]] = []
    unmatched_left: list[int] = []
    unmatched_right: list[int] = []
    for left, right, dists in _kind_tables(scale, rows1, rows2):
        best, assignment = _kind_assignment(dists)
        value = max(value, best)
        for a, b in enumerate(assignment):
            if b is None:
                unmatched_left.append(left[a])
            else:
                pairs.append((left[a], right[b]))
        matched_right = {b for b in assignment if b is not None}
        unmatched_right += (right[j] for j in range(len(right)) if j not in matched_right)

    witness = PartialMatching(
        tuple(sorted(pairs)),
        tuple(sorted(unmatched_left)),
        tuple(sorted(unmatched_right)),
    )
    witness.validate(d1, d2)
    check = _cost(rows1, rows2, witness)
    if check != value:  # pragma: no cover - internal consistency
        raise AssertionError(f"witness cost {check} != optimum {value}, over {2 * scale}")
    return BottleneckResult(Fraction(value, 2 * scale), witness)


def graph_bottleneck(g1: ReebGraph, g2: ReebGraph) -> Fraction:
    """Bottleneck distance between graphs via their extended diagrams."""
    return bottleneck(extended_diagram(g1), extended_diagram(g2)).value
