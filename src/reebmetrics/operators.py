"""Graph transformations: band merge, simplification, and the full transform.

`merge` contracts every connected component of the preimage of a closed band
[a, b] to a vertex at the band midpoint; on diagrams this acts by snapping
coordinates inside the band to the midpoint (`snap_diagram`), which is the
testable contract pairing the two. `MergeParams` is the validated input of
`merge` and `snap_diagram` only; inside the write path a band is a plain
`(lo, hi)` pair of `Fraction`s, as `_near_bands` returns it and `Move.band`
stores it. Every caller goes through one private function that contracts a
sorted list of pairwise-disjoint pairs in a single pass and canonicalizes
once, so `merge_sequence` on disjoint anchors and each pass of
`clear_features` cost one O((V + E) log k) pass for k bands, not one pass
per band. A new vertex is named by a prefix and the least free number
(`m0`, `m1`, ... for `merge` and `merge_sequence`, `s<pass>_0`, ... for
`clear_features`); a lone vertex already at its band's midpoint keeps its id.

`simplify` removes every diagram point within the stated offset of the
diagonal by merging bands around the near features' spans, widened so that
snapping cannot drag a surviving point into the cleared zone, and recomputes
the diagram between passes. The widening is a closure: each round visits
every band, and of the surviving features the band would drag, the last in
diagram order sets both of the band's ends. A visit finds its candidates by
bisection, so a closure round costs O(k log P + c) for k bands, P surviving
features and c features with exactly one end in a band, not O(k P).
`move_certificate` is the one rule that costs band merges, for `simplify`
and `merge_sequence` alike: a pass of disjoint bands costs its widest band,
and passes and stretches add, so the emitted certificate stays proportional
to the clearance parameter.

Both hot loops compare ints, not `Fraction`s: the closure and
`snap_diagram` read the diagram's int rows on a lattice that also holds
alpha or the band ends, as `Diagram._rows_on` lifts them, and the band
merge lifts the graph's own lattice to one that also holds the band ends.
Only their results, band ends and midpoints, are `Fraction`s.
"""

from __future__ import annotations

import math
import warnings
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Iterable, Sequence

from .diagram import _EXT0, Diagram
from .graph import CriticalValues, ReebGraph, _find_root, canonicalize
from .persistence import extended_diagram
from .rationals import ValueLike, common_denominator, format_value, on_lattice, to_fraction


@dataclass(frozen=True)
class MergeParams:
    a: Fraction
    b: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", to_fraction(self.a))
        object.__setattr__(self, "b", to_fraction(self.b))
        if self.a > self.b:
            raise ValueError("merge band needs a <= b")


def _merge_bands(
    g: ReebGraph, bands: Sequence[tuple[Fraction, Fraction]], prefix: str = "m"
) -> ReebGraph:
    """Contract the preimage of every band in one pass; output is canonical.

    `bands` are sorted, pairwise disjoint `(lo, hi)` pairs (hi_i < lo_{i+1}),
    so a vertex lies in at most one band, found by bisection. The components
    of a band's preimage are the classes of its vertices joined by edges with
    both ends in that band; each becomes one vertex at the band midpoint,
    named `<prefix><n>` with the least n free, except that a lone vertex
    already at the midpoint keeps its id. Edges inside one band are dropped; every other
    edge keeps its ends, each moved to its component's vertex. An edge that
    crosses a band with neither end inside stays whole: the vertex a merge
    would put on it is pass-through. One O((V + E) log k) pass for k bands,
    then one `canonicalize`; the same graph, up to the names of new vertices,
    as merging the bands one at a time.
    """
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
    name_of: dict[str, str] = {}  # component root -> its new vertex
    mids: dict[int, Fraction] = {}  # band -> its midpoint, once per call
    for vid, root in root_of.items():
        if root in name_of:
            continue
        i = band_of[vid]
        if i not in mids:
            mids[i] = (bands[i][0] + bands[i][1]) / 2
        if sizes[root] == 1 and g.value(vid) == mids[i]:
            name = vid  # a lone vertex already at the midpoint keeps its id
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


def merge(g: ReebGraph, params: MergeParams) -> ReebGraph:
    """Contract the band [a, b]; output is canonical.

    Post-contract, pass-through vertices left by arcs that crossed the whole
    band are removed, so merging a band free of critical values is a no-op.
    """
    return _merge_bands(g, [(params.a, params.b)])


def snap_diagram(d: Diagram, params: MergeParams) -> Diagram:
    """Coordinate-wise snapping: values inside [a, b] move to the midpoint.

    Points whose snapped coordinates coincide survive only if their kind
    admits diagonal membership (Ext0); snapped-flat Ord0/Rel1/Ext1 features
    are destroyed by the merge and leave the multiset. The rows, a, b and
    the midpoint are ints on twice the lcm of the diagram's scale and the
    band ends' denominators.
    """
    scale = 2 * math.lcm(d.scale, params.a.denominator, params.b.denominator)
    a, b = on_lattice(params.a, scale), on_lattice(params.b, scale)
    mid = (a + b) // 2

    def snap(x: int) -> int:
        return mid if a <= x <= b else x

    rows = []
    for kind, birth, death in d._rows_on(scale):
        birth, death = snap(birth), snap(death)
        if birth != death or kind == _EXT0:
            rows.append((kind, birth, death))
    return Diagram._from_rows(scale, rows)


# ---------------------------------------------------------------------------
# simplification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Move:
    kind: str  # "band-merge" or "stretch"
    band: tuple[Fraction, Fraction]
    cost: Fraction
    step: int = 0  # the pass of a band merge; one pass's bands are disjoint


@dataclass(frozen=True)
class SimplifyResult:
    graph: ReebGraph
    certificate: Fraction  # upper bound on the functional distortion distance
    moves: tuple[Move, ...]


def _stretched_segment(g: ReebGraph, alpha: Fraction) -> tuple[ReebGraph, Move]:
    """Replace a graph of tiny span by a segment clearing the diagonal offset.

    A value-preserving projection onto the segment and a clamped monotone
    section back bound the distortion cost by half the output span.
    """
    lo, hi = g.min_value(), g.max_value()
    mid = (lo + hi) / 2
    half = (hi - lo + 2 * alpha) / 2
    seg = ReebGraph(
        [("bot", mid - half), ("top", mid + half)],
        [("bot", "top")],
        name=g.name,
    )
    return seg, Move("stretch", (mid - half, mid + half), half)


def _overlap_merge(bands: list[list[int]]) -> list[list[int]]:
    """Sort bands and join every pair that shares a point."""
    out: list[list[int]] = []
    for lo, hi in sorted(bands):
        if out and lo <= out[-1][1]:
            out[-1][1] = max(out[-1][1], hi)
        else:
            out.append([lo, hi])
    return out


def _near_bands(diagram: Diagram, alpha: Fraction) -> list[tuple[Fraction, Fraction]]:
    """Merge bands clearing every near-diagonal feature, with cascade closure.

    Bands start as the overlap-clusters of the near features' own spans. A
    merge snaps coordinates inside its band to the midpoint, which can pull a
    surviving point's persistence below alpha (typically a taller feature
    sharing a coordinate with a cleared one); the closure widens each band by
    the spans of the points it would drag into nearness, so one pass leaves
    no near feature behind. A band visit reads the band as it was when the
    visit began, and of the surviving features it drags, the last in diagram
    order sets both of its ends.

    The rows, on the lcm of the diagram's scale and alpha's denominator,
    and alpha are ints on one lattice, and a survivor s is dragged when
    |lo + hi - 2s| <= 2 alpha, so the midpoint stays an int. Only a feature
    with exactly one end in [lo, hi] can be dragged; bisection in the
    survivors sorted by low end and by high end finds them, so a band visit
    costs O(log P + c) for P survivors and c candidates, not O(P).
    """
    scale = math.lcm(diagram.scale, alpha.denominator)
    reach = on_lattice(alpha, scale)
    near: list[list[int]] = []
    others: list[tuple[int, int]] = []  # the survivors, in diagram order
    for kind, b, d in diagram._rows_on(scale):
        if kind == _EXT0:
            continue
        lo, hi = (b, d) if b <= d else (d, b)
        if hi - lo <= reach:
            near.append([lo, hi])
        else:
            others.append((lo, hi))
    if not near:
        return []

    by_low = sorted(range(len(others)), key=lambda i: others[i][0])
    lows = [others[i][0] for i in by_low]
    by_high = sorted(range(len(others)), key=lambda i: others[i][1])
    highs = [others[i][1] for i in by_high]
    bands = _overlap_merge(near)
    changed = True
    while changed:
        changed = False
        for band in bands:
            lo, hi = band
            twice_mid = lo + hi
            last = -1  # the last dragged survivor, in diagram order
            # low end inside, high end above: the high end survives
            for i in by_low[bisect_left(lows, lo) : bisect_right(lows, hi)]:
                if i > last:
                    b = others[i][1]
                    if b > hi and 2 * b - twice_mid <= 2 * reach:
                        last = i
            # high end inside, low end below: the low end survives
            for i in by_high[bisect_left(highs, lo) : bisect_right(highs, hi)]:
                if i > last:
                    a = others[i][0]
                    if a < lo and twice_mid - 2 * a <= 2 * reach:
                        last = i
            if last >= 0:
                a, b = others[last]
                band[0], band[1] = min(lo, a), max(hi, b)
                changed = True
        if changed:
            bands = _overlap_merge(bands)
    return [(Fraction(lo, scale), Fraction(hi, scale)) for lo, hi in bands]


def clear_features(g: ReebGraph, alpha: Fraction) -> SimplifyResult:
    """Remove every non-trunk feature of persistence <= alpha by band merges.

    Each pass merges closure-widened bands around the near features and
    recomputes the diagram; by the snapping principle every near point lands
    on the diagonal and disappears, so the point count strictly decreases
    and the loop terminates. A pass's bands are sorted and disjoint, so they
    are contracted together in one pass over the graph; the vertices it
    creates are named `s<pass>_<n>`. Each band is one `band-merge` move,
    costed at its width and tagged with its pass, and `move_certificate`
    costs the moves into the result's certificate.
    """
    work = g
    moves: list[Move] = []
    diagram = extended_diagram(g)
    for step in range(len(diagram) + 2):
        bands = _near_bands(diagram, alpha)
        if not bands:
            break
        work = _merge_bands(work, bands, prefix=f"s{step}_")
        moves.extend(Move("band-merge", (lo, hi), hi - lo, step) for lo, hi in bands)
        diagram = extended_diagram(work)
    else:  # pragma: no cover - termination is structural
        raise AssertionError("simplification failed to terminate")
    return SimplifyResult(work, move_certificate(moves), tuple(moves))


def move_certificate(moves: Sequence[Move]) -> Fraction:
    """Upper bound on the functional distortion distance across `moves`.

    The bound is the sum over passes of each pass's widest band, plus the
    cost of every stretch. Within one pass the bands are disjoint, and the
    quotient map moves each value by at most w_i/2 inside its own band and
    leaves every other value alone. A path's span changes only through its
    two extremes, so d_f, the least span of a path between two points, moves
    by at most max w_i. Passes and stretches are composed one after another,
    so their costs add by the triangle inequality.
    """
    widest: dict[int, Fraction] = {}
    stretch = Fraction(0)
    for m in moves:
        if m.kind == "stretch":
            stretch += m.cost
        else:
            widest[m.step] = max(m.cost, widest.get(m.step, m.cost))
    return sum(widest.values(), stretch)


def simplify(g: ReebGraph, alpha: ValueLike) -> SimplifyResult:
    """Clear the diagram of all points within alpha/2 of the diagonal.

    Branch and hole features of persistence <= alpha are removed by
    `clear_features`; if the remaining trunk itself sits inside the diagonal
    offset, it is stretched into a longer segment. The certificate is an
    upper bound for the functional distortion distance between input and
    output.
    """
    alpha = to_fraction(alpha)
    if alpha <= 0:
        raise ValueError("alpha must be positive")

    cleared = clear_features(g, alpha)
    # a trunk of tiny span sits inside the diagonal offset; stretch it out
    if cleared.graph.span() > alpha:
        return cleared
    work, stretch = _stretched_segment(cleared.graph, alpha)
    moves = (*cleared.moves, stretch)
    return SimplifyResult(work, move_certificate(moves), moves)


# ---------------------------------------------------------------------------
# anchored merges and the full transform
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TransformParams:
    alpha: Fraction
    anchors: CriticalValues

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", to_fraction(self.alpha))
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")


@dataclass(frozen=True)
class TransformResult:
    graph: ReebGraph
    certificate: Fraction  # upper bound on the functional distortion distance


def merge_sequence(
    g: ReebGraph, anchors: Iterable[ValueLike], halfwidth: ValueLike
) -> TransformResult:
    """Merge a band around every anchor, lowest anchor first.

    `anchors` is any iterable of values, sorted here; a negative halfwidth
    is a ValueError. Disjoint bands are one pass, contracted together in one
    pass over the graph, so by `move_certificate` they cost the widest band,
    2*halfwidth. Bands overlap when some anchor gap is at most 2*halfwidth;
    they are contracted one pass per band in the same order, their costs add
    up to 2*halfwidth per anchor, and a warning naming both numbers is the
    only report. New vertices are named `m<n>`.
    """
    return _merge_anchor_bands(g, anchors, halfwidth)


def _merge_anchor_bands(
    g: ReebGraph, anchors: Iterable[ValueLike], halfwidth: ValueLike
) -> TransformResult:
    """`merge_sequence`, for it and `full_transform` to call alike: its
    warning names the line that called either of them."""
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
            stacklevel=3,
        )
    bands = [(c - halfwidth, c + halfwidth) for c in values]
    work = g
    moves: list[Move] = []
    for step, group in enumerate([bands] if disjoint else [[band] for band in bands]):
        work = _merge_bands(work, group)
        moves.extend(Move("band-merge", band, width, step) for band in group)
    return TransformResult(work, move_certificate(moves))


def full_transform(g: ReebGraph, params: TransformParams) -> TransformResult:
    """Simplify at 2*alpha, then merge 9*alpha-bands around the anchors."""
    simplified = simplify(g, 2 * params.alpha)
    merged = _merge_anchor_bands(simplified.graph, params.anchors, 9 * params.alpha)
    return TransformResult(merged.graph, simplified.certificate + merged.certificate)
