"""Functional-distortion machinery: correspondences and certified bounds.

The functional distortion distance itself has no known exact algorithm; all
outputs here are certified intervals. Lower bounds come from half the
bottleneck distance; upper bounds come from evaluating the distortion
functional on an explicit pair of maps (a correspondence) or from exact
analytic bounds such as value reassignments on a fixed graph.

A correspondence reads its maps once, when it is built: it checks their
points and keeps the pairs every certificate reads. It certifies only its
own two graphs. One vertex-map rule, `_edge_map`, serves the natural
correspondence and the value shift. The projection witness collapses
whichever graph is not a segment or a point onto the one that is.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from operator import sub
from typing import Callable, Iterator, Optional, Union

from .bottleneck import graph_bottleneck
from .graph import GraphPoint, ReebGraph, _travel_matrix, critical_values
from .isomorphism import _unordered, structure_isomorphisms
from .rationals import ValueLike, format_value, on_lattice, to_fraction


def default_resolution(g: ReebGraph) -> Fraction:
    """Sampling resolution: an eighth of the minimal critical gap."""
    crit = critical_values(g)
    if len(crit) >= 2:
        return crit.min_gap() / 8
    span = g.span()
    return span / 8 if span > 0 else Fraction(1)


def _edge_pieces(g: ReebGraph, h: Fraction) -> list[tuple[int, int, int]]:
    """Each edge's (lo, span, pieces) for the sample net of g at resolution h.

    lo and span are the edge's lower level and level span on the graph's
    lattice, and pieces = ceil(span / (h·scale)) is the number of equal
    parts the edge is cut into (0 for a level edge). A resolution that is
    not positive is a ValueError.
    """
    if h <= 0:
        raise ValueError("resolution must be positive")
    step = h.numerator * g.scale
    out = []
    for u, v in g.edges:
        lo = g.level(u)
        span = g.level(v) - lo
        out.append((lo, span, -(-span * h.denominator // step)))
    return out


def _interior_samples(g: ReebGraph, h: Fraction) -> Iterator[tuple[int, int, int, Fraction]]:
    """Each interior sample of `sample_net(g, h)` as (edge, k, pieces, value).

    The samples of an edge are the k / pieces points of it for
    0 < k < pieces, with its pieces from `_edge_pieces`. The value is built
    once from the edge's levels, as (lo·pieces + span·k) / (scale·pieces).
    """
    scale = g.scale
    for idx, (lo, span, pieces) in enumerate(_edge_pieces(g, h)):
        base, unit = lo * pieces, scale * pieces
        for k in range(1, pieces):
            yield idx, k, pieces, Fraction(base + span * k, unit)


def sample_net(g: ReebGraph, resolution: Optional[ValueLike] = None) -> tuple[GraphPoint, ...]:
    """All vertices plus interior points so value spacing stays <= resolution."""
    h = to_fraction(resolution) if resolution is not None else default_resolution(g)
    points = [g.vertex_point(v) for v in g.vertex_ids]
    points += (GraphPoint(value, edge=idx) for idx, _, _, value in _interior_samples(g, h))
    return tuple(points)


_Pairs = tuple[tuple[GraphPoint, GraphPoint], ...]


@dataclass(frozen=True)
class Correspondence:
    """Discretized map pair (phi, psi) between two graphs.

    phi sends every sample of g1 to a point of g2 and psi every sample of g2
    to a point of g1; samples include all vertices and arc-interior points at
    the stated resolution. A map pair that misses a sample of
    `sample_net(g1, resolution)` or `sample_net(g2, resolution)`, or maps a
    point off either graph, is a ValueError: the sampling remainder of
    `certify_fd_upper` holds only for a map of the whole net. Each map is
    read once, in one walk that checks its points and counts its keys that
    are samples of the net, on the graphs' lattices, and lays out its pairs.
    Every certificate reads the kept layout (`_sample_pairs`). The
    resolution is read with `to_fraction`, so a string or an int is coerced
    and a float is a TypeError.
    """

    g1: ReebGraph
    g2: ReebGraph
    phi: dict[GraphPoint, GraphPoint]
    psi: dict[GraphPoint, GraphPoint]
    resolution: Fraction
    _layout: tuple[_Pairs, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # a frozen dataclass: the coerced resolution replaces the given one
        object.__setattr__(self, "resolution", to_fraction(self.resolution))
        pairs: list[tuple[GraphPoint, GraphPoint]] = []
        denominators = {self.g1.scale, self.g2.scale}
        for name, src, dst, mapping in (
            ("phi", self.g1, self.g2, self.phi),
            ("psi", self.g2, self.g1, self.psi),
        ):
            cuts, scale = _edge_pieces(src, self.resolution), src.scale
            covered, outside = 0, False
            for x, y in mapping.items():
                pairs.append((x, y) if name == "phi" else (y, x))
                num, den = x.value.numerator, x.value.denominator
                denominators.update((den, y.value.denominator))
                on_src = src.contains_point(x)
                outside |= not (on_src and dst.contains_point(y))
                # a vertex key on src is a sample, and so is an edge key whose
                # k = (num·scale - lo·den)·pieces / (span·den) is an int in (0, pieces)
                if x.vertex is not None:
                    covered += on_src
                elif on_src:
                    lo, span, pieces = cuts[x.edge]  # type: ignore[index]
                    if pieces > 1:
                        k, rest = divmod((num * scale - lo * den) * pieces, span * den)
                        covered += not rest and 0 < k < pieces
            size = len(src.vertex_ids) + sum(pieces - 1 for _, _, pieces in cuts if pieces)
            if covered < size:
                raise ValueError(
                    f"{name} maps {covered} of the {size} samples at resolution "
                    f"{format_value(self.resolution)}; a correspondence must map them all"
                )
            if outside:
                raise ValueError(f"{name} maps outside the graphs")
        object.__setattr__(self, "_layout", (tuple(pairs), math.lcm(*denominators)))


# a spine: each vertex with the edge it was climbed to by (None for the first)
_Spine = list[tuple[str, Optional[int]]]


def _monotone_spine(g: ReebGraph) -> _Spine:
    """A value-monotone vertex path from a global min to a global max.

    Not every valid graph has one (a bridge can force a descent); callers
    get a ValueError in that case, since the graph itself is not at fault.
    """
    level = g.level
    bottom, top = g.vertex_ids[0], level(g.vertex_ids[-1])
    stack: list[tuple[str, _Spine]] = [(bottom, [(bottom, None)])]
    seen = {bottom}
    while stack:
        v, path = stack.pop()
        lv = level(v)
        if lv == top:
            return path
        for idx, w in sorted(g.neighbors(v), key=lambda t: (level(t[1]), t[1])):
            if w not in seen and level(w) > lv:
                seen.add(w)
                stack.append((w, path + [(w, idx)]))
    raise ValueError(
        "the collapse witness needs an ascending path from a minimum to a maximum"
    )


def _spine_map(g: ReebGraph) -> Callable[[Fraction], GraphPoint]:
    """The point at a value on a monotone spine of g, found once, clamped to
    the spine's ends (a global min and max) and located by bisection."""
    spine = _monotone_spine(g)
    tops = [g.value(w) for w, _ in spine[1:]]
    lo, hi = g.value(spine[0][0]), g.value(spine[-1][0])

    def point_at(value: Fraction) -> GraphPoint:
        value = max(lo, min(hi, value))
        if not tops:  # a point
            return g.vertex_point(spine[0][0])
        _, idx = spine[bisect_left(tops, value) + 1]  # the first spine edge reaching value
        return g.edge_point(idx, value)  # type: ignore[arg-type]

    return point_at


def projection_correspondence(
    g1: ReebGraph, g2: ReebGraph, resolution: Optional[ValueLike] = None
) -> Correspondence:
    """Collapse whichever graph is not a segment or a point (one edge or one
    vertex, and nothing else) onto the one that is; neither is a ValueError.
    When both are, a point is the target, so the order of the arguments does
    not matter, and between two segments or two points the target is g2.

    Both maps send a sample to the point at its value, clamped to the other
    graph's range, on a monotone spine of that graph (`_spine_map`, which
    reads each graph's spine and range once); the target is its own spine.
    The resolution defaults to the collapsed graph's.
    """
    targets = [g for g in (g2, g1) if len(g.edges) <= 1 and len(g.vertex_ids) == len(g.edges) + 1]
    if not targets:
        raise ValueError("the collapse witness needs a segment on one side")
    target = min(targets, key=lambda g: len(g.edges))  # a point first, then g2
    collapsed = g1 if target is g2 else g2
    h = to_fraction(resolution) if resolution is not None else default_resolution(collapsed)
    onto1, onto2 = _spine_map(g1), _spine_map(g2)
    phi = {p: onto2(p.value) for p in sample_net(g1, h)}
    psi = {q: onto1(q.value) for q in sample_net(g2, h)}
    return Correspondence(g1, g2, phi, psi, h)


def _edge_map(g1: ReebGraph, g2: ReebGraph, vertex_map: dict[str, str]) -> list[int]:
    """The edge of g2 that each edge of g1 goes to under `vertex_map`.

    The map must be a bijection between the vertex sets that carries the
    edge multiset of g1 onto that of g2; anything else is a ValueError. Each
    edge takes the free edge of g2 with the smallest index between the
    images of its ends, so parallel arcs keep their index order.
    """
    images = sorted(vertex_map.values())
    if set(vertex_map) != set(g1.vertex_ids) or images != sorted(g2.vertex_ids):
        raise ValueError("vertex map must be a bijection between the vertex sets")
    if len(g1.edges) != len(g2.edges):
        raise ValueError("vertex map does not carry edges to edges")
    # each end pair lists its free edges of g2 in descending index order,
    # so pop() takes the smallest
    free: dict[tuple[str, str], list[int]] = {}
    for jdx in reversed(range(len(g2.edges))):
        free.setdefault(_unordered(*g2.edges[jdx]), []).append(jdx)
    out = []
    for u, v in g1.edges:
        slots = free.get(_unordered(vertex_map[u], vertex_map[v]))
        if not slots:
            raise ValueError("vertex map does not carry edges to edges")
        out.append(slots.pop())
    return out


def natural_correspondence(
    g1: ReebGraph,
    g2: ReebGraph,
    vertex_map: dict[str, str],
    resolution: Optional[ValueLike] = None,
) -> Correspondence:
    """Correspondence induced by a structure isomorphism (values may differ).

    Edge samples map by linear reparameterization along the arcs `_edge_map`
    matches: sample k/pieces of an edge goes to x + k·(y - x)/pieces on its
    matched edge, where x and y are the values of the images of its lower and
    upper ends, built as ints on the target's lattice. The map back is the
    inverse of that matching.
    """
    fwd_edges = _edge_map(g1, g2, vertex_map)
    bwd_edges = [0] * len(fwd_edges)
    for idx, jdx in enumerate(fwd_edges):
        bwd_edges[jdx] = idx
    inverse = {w: v for v, w in vertex_map.items()}

    h = to_fraction(resolution) if resolution is not None else min(
        default_resolution(g1), default_resolution(g2)
    )

    def transport(
        src: ReebGraph, dst: ReebGraph, vmap: dict[str, str], emap: list[int]
    ) -> dict[GraphPoint, GraphPoint]:
        out = {src.vertex_point(v): dst.vertex_point(vmap[v]) for v in src.vertex_ids}
        # the levels on dst of the images of each edge's lower and upper
        # ends, whichever way the matched edge runs
        ends = [(dst.level(vmap[u]), dst.level(vmap[v])) for u, v in src.edges]
        for idx, k, pieces, value in _interior_samples(src, h):
            x, y = ends[idx]
            image = Fraction(x * pieces + k * (y - x), dst.scale * pieces)
            # 0 < k < pieces puts the image strictly inside its edge, unless
            # that edge is level and the image is its lower end
            out[GraphPoint(value, edge=idx)] = (
                GraphPoint(image, edge=emap[idx]) if x != y else dst.edge_point(emap[idx], image)
            )
        return out

    phi = transport(g1, g2, vertex_map, fwd_edges)
    psi = transport(g2, g1, inverse, bwd_edges)
    return Correspondence(g1, g2, phi, psi, h)


# ---------------------------------------------------------------------------
# the distortion functional and bound certificates
# ---------------------------------------------------------------------------


def _sample_pairs(g1: ReebGraph, g2: ReebGraph, c: Correspondence) -> tuple[_Pairs, int]:
    """The pairs and the lattice `c` laid out when it was built.

    A correspondence between other graphs than g1 and g2 is a ValueError;
    its edge points name edges by index, so the edge order must agree too.
    """
    for mine, given in ((c.g1, g1), (c.g2, g2)):
        if not (mine is given or (mine == given and mine.edges == given.edges)):
            raise ValueError("the correspondence maps between other graphs")
    return c._layout


def distortion(g1: ReebGraph, g2: ReebGraph, c: Correspondence) -> Fraction:
    """Max over sampled correspondence pairs of |d_f - d_g|, exact on samples.

    The pairs are phi's (x, phi(x)) and psi's (psi(y), y). Their points on
    each graph get one `_travel_matrix` over the distinct locations, and
    each pair becomes its (slot on g1, slot on g2). Two pairs at the same
    two locations have the same gaps to every other pair, so the distortion
    is the largest |D1[a][a'] - D2[b][b']| over distinct slot pairs (a, b)
    and (a', b'), and a pair that repeats another (as psi's pair of an
    image repeats phi's pair of its sample in a natural map) is read once.
    Both matrices are ints over one lattice, the lcm of both graphs' scales
    and the denominators of all sampled points, so the gaps are int
    differences. The sampling remainder (twice the resolution) is reported
    separately by `certify_fd_upper`.
    """
    pairs, scale = _sample_pairs(g1, g2, c)
    d1, slots1 = _travel_matrix(g1, tuple(x for x, _ in pairs), scale)
    d2, slots2 = _travel_matrix(g2, tuple(y for _, y in pairs), scale)
    distinct = set(zip(slots1, slots2))
    cols1, cols2 = zip(*distinct)
    # each row holds the gaps of one slot pair to every slot pair, itself
    # included at 0; the matrices are symmetric, so the full rows read each
    # gap twice, which costs less than slicing them
    return Fraction(
        max(
            max(map(abs, map(sub, map(d1[a].__getitem__, cols1), map(d2[b].__getitem__, cols2))))
            for a, b in distinct
        ),
        scale,
    )


def fd_upper(g1: ReebGraph, g2: ReebGraph, c: Correspondence) -> Fraction:
    """max of half the distortion and the value defect of both maps, on the samples.

    The defect is read as ints on the distortion's lattice.
    """
    pairs, scale = _sample_pairs(g1, g2, c)
    defect = max(abs(on_lattice(x.value, scale) - on_lattice(y.value, scale)) for x, y in pairs)
    return max(distortion(g1, g2, c) / 2, Fraction(defect, scale))


def fd_lower(g1: ReebGraph, g2: ReebGraph) -> Fraction:
    """Half the bottleneck distance (stability makes this a true lower bound)."""
    return graph_bottleneck(g1, g2) / 2


@dataclass(frozen=True)
class FDBoundCertificate:
    """Certified interval around the functional distortion distance."""

    lower: Fraction
    upper: Fraction
    remainder: Fraction = Fraction(0)

    def __post_init__(self) -> None:
        if self.lower > self.upper:
            raise ValueError(
                f"certificate is empty: lower {self.lower} > upper {self.upper}"
            )


def certify_fd_upper(
    g1: ReebGraph, g2: ReebGraph, witness: Union[Correspondence, ValueLike]
) -> FDBoundCertificate:
    """Build a certificate from a correspondence or an exact upper bound.

    A correspondence adds its sampling remainder, twice its resolution, to
    its sampled upper bound; a bound (an operator move, a value shift) is
    the upper end itself, with no remainder. The lower bound comes first:
    its diagrams reject an invalid graph before any sample is read.
    """
    lower = fd_lower(g1, g2)
    if isinstance(witness, Correspondence):
        remainder = 2 * witness.resolution
        upper = fd_upper(g1, g2, witness) + remainder
    else:
        remainder = Fraction(0)
        upper = to_fraction(witness)
    return FDBoundCertificate(lower, upper, remainder)


def value_shift_upper(g1: ReebGraph, g2: ReebGraph, vertex_map: dict[str, str]) -> Fraction:
    """Exact witness bound for a pure value reassignment on a fixed graph.

    With identity maps in both directions, the value defects equal the
    largest vertex displacement and the distortion is at most twice it, so
    the displacement itself bounds the functional distortion distance.
    """
    _edge_map(g1, g2, vertex_map)
    return max(abs(g1.value(v) - g2.value(vertex_map[v])) for v in g1.vertex_ids)


def best_structure_shift(g1: ReebGraph, g2: ReebGraph) -> Optional[Fraction]:
    """Smallest value-shift bound over found structure isomorphisms, if any."""
    return min(
        (value_shift_upper(g1, g2, sigma) for sigma in structure_isomorphisms(g1, g2)),
        default=None,
    )
