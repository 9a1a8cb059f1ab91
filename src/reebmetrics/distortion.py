"""Functional-distortion machinery: correspondences and certified bounds.

The functional distortion distance itself has no known exact algorithm; all
outputs here are certified intervals. Lower bounds come from half the
bottleneck distance; upper bounds come from evaluating the distortion
functional on an explicit pair of maps (a correspondence) or from analytic
witnesses such as value reassignments on a fixed graph.

A correspondence checks its points when it is built. One vertex-map rule,
`_edge_map`, serves the natural correspondence and the value shift. The
projection witness collapses a graph onto a segment or onto a point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Callable, Optional, Union

from .bottleneck import graph_bottleneck
from .graph import (
    GraphPoint,
    InvalidGraphError,
    ReebGraph,
    _travel_matrix,
    critical_values,
)
from .isomorphism import _unordered, structure_isomorphisms
from .rationals import ValueLike, common_denominator, format_value, to_fraction


def default_resolution(g: ReebGraph) -> Fraction:
    """Sampling resolution: an eighth of the minimal critical gap."""
    crit = critical_values(g)
    if len(crit) >= 2:
        return crit.min_gap() / 8
    span = g.span()
    return span / 8 if span > 0 else Fraction(1)


def sample_net(g: ReebGraph, resolution: Optional[ValueLike] = None) -> tuple[GraphPoint, ...]:
    """All vertices plus interior points so value spacing stays <= resolution."""
    h = to_fraction(resolution) if resolution is not None else default_resolution(g)
    if h <= 0:
        raise ValueError("resolution must be positive")
    points = [g.vertex_point(v) for v in g.vertex_ids]
    for idx in range(len(g.edges)):
        lo, hi = g.edge_values(idx)
        span = hi - lo
        pieces = int(-(-span // h))  # ceil(span / h)
        # k / pieces lies strictly inside (0, 1): every point is interior
        for k in range(1, pieces):
            points.append(GraphPoint(lo + span * Fraction(k, pieces), edge=idx))
    return tuple(points)


@dataclass(frozen=True)
class Correspondence:
    """Discretized map pair (phi, psi) between two graphs.

    phi sends every sample of g1 to a point of g2 and psi every sample of g2
    to a point of g1; samples include all vertices and arc-interior points at
    the stated resolution. A map pair that misses a sample of
    `sample_net(g1, resolution)` or `sample_net(g2, resolution)`, or maps a
    point off either graph, is a ValueError: the sampling remainder of
    `certify_fd_upper` holds only for a map of the whole net.
    """

    g1: ReebGraph
    g2: ReebGraph
    phi: dict[GraphPoint, GraphPoint]
    psi: dict[GraphPoint, GraphPoint]
    resolution: Fraction

    def __post_init__(self) -> None:
        for name, src, dst, mapping in (
            ("phi", self.g1, self.g2, self.phi),
            ("psi", self.g2, self.g1, self.psi),
        ):
            net = sample_net(src, self.resolution)
            covered = sum(p in mapping for p in net)
            if covered < len(net):
                raise ValueError(
                    f"{name} maps {covered} of the {len(net)} samples at resolution "
                    f"{format_value(self.resolution)}; a correspondence must map them all"
                )
            for x, y in mapping.items():
                if not (src.contains_point(x) and dst.contains_point(y)):
                    raise ValueError(f"{name} maps outside the graphs")


# a spine: each vertex with the edge it was climbed to by (None for the first)
_Spine = list[tuple[str, Optional[int]]]


def _monotone_spine(g: ReebGraph) -> _Spine:
    """A value-monotone vertex path from a global min to a global max.

    Not every connected graph has one (a bridge can force a descent); callers
    get an InvalidGraphError in that case.
    """
    bottom = min(g.vertex_ids, key=lambda v: (g.value(v), v))
    target_value = g.max_value()
    stack: list[tuple[str, _Spine]] = [(bottom, [(bottom, None)])]
    seen = {bottom}
    while stack:
        v, path = stack.pop()
        if g.value(v) == target_value:
            return path
        for idx, w in sorted(g.neighbors(v), key=lambda t: (g.value(t[1]), t[1])):
            if w not in seen and g.value(w) > g.value(v):
                seen.add(w)
                stack.append((w, path + [(w, idx)]))
    raise InvalidGraphError("no ascending path from a minimum to a maximum")


def _point_on_spine(g: ReebGraph, spine: _Spine, value: Fraction) -> GraphPoint:
    """The spine's point at `value`, clamped to the value range of g."""
    value = max(g.min_value(), min(g.max_value(), value))
    for w, idx in spine[1:]:
        if value <= g.value(w):
            return g.edge_point(idx, value)  # type: ignore[arg-type]
    return g.vertex_point(spine[0][0])


def projection_correspondence(
    g: ReebGraph, seg: ReebGraph, resolution: Optional[ValueLike] = None
) -> Correspondence:
    """Collapse g onto a segment or a point; include the target back.

    phi sends a point of g to the target's point at the same value, clamped
    to the target's range; psi follows a monotone spine of g. Used as the
    constructive witness when comparing a graph with its fully simplified
    trunk.
    """
    if len(seg.vertex_ids) == 1:
        seg_point: Callable[[Fraction], GraphPoint] = lambda _v: seg.vertex_point(
            seg.vertex_ids[0]
        )
    else:
        if len(seg.edges) != 1:
            raise ValueError("projection target must be a segment or a point")

        def seg_point(v: Fraction) -> GraphPoint:
            lo, hi = seg.edge_values(0)
            return seg.edge_point(0, max(lo, min(hi, v)))

    h1 = to_fraction(resolution) if resolution is not None else default_resolution(g)
    spine = _monotone_spine(g)
    phi = {p: seg_point(p.value) for p in sample_net(g, h1)}
    psi = {
        q: _point_on_spine(g, spine, q.value)
        for q in sample_net(seg, h1)
    }
    return Correspondence(g, seg, phi, psi, h1)


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
    matches; the map back is the inverse of that matching.
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
        out: dict[GraphPoint, GraphPoint] = {}
        for p in sample_net(src, h):
            if p.vertex is not None:
                out[p] = dst.vertex_point(vmap[p.vertex])
            else:
                # x and y are the values of the images of the edge's lower
                # and upper ends, whichever way the matched edge runs
                lo, hi = src.edge_values(p.edge)  # type: ignore[arg-type]
                x, y = (dst.value(vmap[end]) for end in src.edges[p.edge])  # type: ignore[index]
                t = (p.value - lo) / (hi - lo)
                out[p] = dst.edge_point(emap[p.edge], x + t * (y - x))  # type: ignore[index]
        return out

    phi = transport(g1, g2, vertex_map, fwd_edges)
    psi = transport(g2, g1, inverse, bwd_edges)
    return Correspondence(g1, g2, phi, psi, h)


# ---------------------------------------------------------------------------
# the distortion functional and bound certificates
# ---------------------------------------------------------------------------


def distortion(g1: ReebGraph, g2: ReebGraph, c: Correspondence) -> Fraction:
    """Max over sampled correspondence pairs of |d_f - d_g|, exact on samples.

    The pairs are phi's (x, phi(x)) and psi's (psi(y), y). Their points on
    each graph get one `travel_distances` matrix, and the distortion is the
    largest |D1[i][j] - D2[i][j]| over i < j. Both matrices are computed as
    ints over one lattice, the lcm of both graphs' scales and the
    denominators of all sampled points, so the gaps are int differences. The
    sampling remainder (twice the resolution) is reported separately by
    `certify_fd_upper`.
    """
    pairs = [(x, y) for x, y in c.phi.items()] + [(x, y) for y, x in c.psi.items()]
    xs = tuple(x for x, _ in pairs)
    ys = tuple(y for _, y in pairs)
    scale = math.lcm(g1.scale, g2.scale, common_denominator(p.value for p in chain(xs, ys)))
    d1 = _travel_matrix(g1, xs, scale)
    d2 = _travel_matrix(g2, ys, scale)
    worst = 0
    for i in range(len(pairs)):
        row1, row2 = d1[i], d2[i]
        for j in range(i + 1, len(pairs)):
            gap = abs(row1[j] - row2[j])
            if gap > worst:
                worst = gap
    return Fraction(worst, scale)


def fd_upper(g1: ReebGraph, g2: ReebGraph, c: Correspondence) -> Fraction:
    """max of half the distortion and the value defect of both maps, on the samples."""
    defect = max(abs(x.value - y.value) for x, y in chain(c.phi.items(), c.psi.items()))
    return max(distortion(g1, g2, c) / 2, defect)


def fd_lower(g1: ReebGraph, g2: ReebGraph) -> Fraction:
    """Half the bottleneck distance (stability makes this a true lower bound)."""
    return graph_bottleneck(g1, g2) / 2


@dataclass(frozen=True)
class FDBoundCertificate:
    """Certified interval around the functional distortion distance."""

    lower: Fraction
    upper: Fraction
    upper_witness: Union[Correspondence, str]
    remainder: Fraction = Fraction(0)

    def __post_init__(self) -> None:
        if self.lower > self.upper:
            raise ValueError(
                f"certificate is empty: lower {self.lower} > upper {self.upper}"
            )


def certify_fd_upper(
    g1: ReebGraph,
    g2: ReebGraph,
    witness: Union[Correspondence, str],
    upper: Optional[ValueLike] = None,
) -> FDBoundCertificate:
    """Build a certificate from a correspondence or a stated analytic bound.

    A correspondence always adds its sampling remainder, twice its
    resolution, to the upper bound; analytic witnesses (operator moves,
    value shifts) add none.
    """
    if isinstance(witness, Correspondence):
        remainder = 2 * witness.resolution
        upper_total = fd_upper(g1, g2, witness) + remainder
    else:
        if upper is None:
            raise ValueError("an analytic witness needs an explicit bound")
        upper_total = to_fraction(upper)
        remainder = Fraction(0)
    return FDBoundCertificate(
        lower=fd_lower(g1, g2),
        upper=upper_total,
        upper_witness=witness,
        remainder=remainder,
    )


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
