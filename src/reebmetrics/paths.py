"""Discretized paths in the space of Reeb graphs and intrinsic-metric bounds.

A `GraphPath` is a finite time-stamped sequence of graphs; every consecutive
pair carries a certified interval [d_B/2, upper] around its functional
distortion distance. The path's two lengths are read from those intervals:
the summed upper bounds in the distortion metric, and the summed bottleneck
distances (twice each lower bound) in the bottleneck metric.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional, Sequence

from .distortion import FDBoundCertificate, best_structure_shift, certify_fd_upper
from .graph import InvalidGraphError, ReebGraph, require_canonical, validate
from .operators import clear_features, move_certificate
from .persistence import extended_diagram
from .rationals import ValueLike, format_value, to_fraction


@dataclass(frozen=True)
class GraphPath:
    """Time-stamped graphs from t=0 to t=1 with one certificate per segment.

    Invariant: `certificates[i]` certifies the segment from step i to step
    i + 1 and comes from `certify_fd_upper` on that pair (in either order,
    since d_B is symmetric), or is the constant path's [0, 0]. Its lower
    bound is therefore half the segment's bottleneck distance, which
    `path_length` reads back instead of recomputing.
    """

    steps: tuple[tuple[Fraction, ReebGraph], ...]
    certificates: tuple[FDBoundCertificate, ...]

    def __post_init__(self) -> None:
        if len(self.steps) < 1:
            raise ValueError("a path needs at least one step")
        times = [t for t, _ in self.steps]
        if times[0] != 0 or times[-1] != 1:
            raise ValueError("path must start at t=0 and end at t=1")
        if any(not a < b for a, b in zip(times, times[1:])):
            raise ValueError("time stamps must strictly increase")
        if len(self.certificates) != len(self.steps) - 1:
            raise ValueError("one certificate per consecutive pair is required")

    @property
    def graphs(self) -> tuple[ReebGraph, ...]:
        return tuple(g for _, g in self.steps)

    def segments(self) -> tuple[tuple[ReebGraph, ReebGraph, FDBoundCertificate], ...]:
        return tuple(
            (self.steps[i][1], self.steps[i + 1][1], self.certificates[i])
            for i in range(len(self.certificates))
        )


def constant_path(g: ReebGraph) -> GraphPath:
    cert = FDBoundCertificate(Fraction(0), Fraction(0), "constant")
    return GraphPath(((Fraction(0), g), (Fraction(1), g)), (cert,))


def _step(a: ReebGraph, b: ReebGraph, witness: str, upper: Fraction) -> GraphPath:
    """A one-segment path from a to b, certified by an analytic witness."""
    return GraphPath(
        ((Fraction(0), a), (Fraction(1), b)), (certify_fd_upper(a, b, witness, upper),)
    )


def concatenate(paths: Sequence[GraphPath]) -> GraphPath:
    """Join paths end to end, reparameterizing time uniformly per segment."""
    segs: list[tuple[ReebGraph, ReebGraph, FDBoundCertificate]] = []
    for p in paths:
        segs.extend(p.segments())
    if not segs:
        raise ValueError("nothing to concatenate")
    for (_, end, _), (start, _, _) in zip(segs, segs[1:]):
        if end != start:
            raise ValueError("paths do not chain: endpoint mismatch")
    n = len(segs)
    steps = [(Fraction(0), segs[0][0])]
    steps += [(Fraction(i + 1, n), segs[i][1]) for i in range(n)]
    return GraphPath(tuple(steps), tuple(c for _, _, c in segs))


def reverse_path(p: GraphPath) -> GraphPath:
    segs = list(reversed(p.segments()))
    n = len(segs)
    steps = [(Fraction(0), segs[0][1])]
    steps += [(Fraction(i + 1, n), segs[i][0]) for i in range(n)]
    certs = tuple(replace(c, upper_witness="reversed segment") for _, _, c in segs)
    return GraphPath(tuple(steps), certs)


@dataclass(frozen=True)
class PathLengthResult:
    metric: str
    total: Fraction
    per_step: tuple[Fraction, ...]


def path_length(p: GraphPath, metric: str = "bottleneck") -> PathLengthResult:
    """Sum the chosen metric over consecutive steps, read from the certificates.

    Each segment's bottleneck distance is twice its certificate's lower
    bound; its distortion length is the certificate's upper bound, so the
    "fd_upper" total bounds the path's length in that metric from above.
    """
    if metric == "bottleneck":
        values = tuple(2 * c.lower for c in p.certificates)
    elif metric == "fd_upper":
        values = tuple(c.upper for c in p.certificates)
    else:
        raise ValueError("metric must be 'bottleneck' or 'fd_upper'")
    total = sum(values, Fraction(0))
    return PathLengthResult(metric, total, values)


# ---------------------------------------------------------------------------
# built-in path families
# ---------------------------------------------------------------------------


def linear_path(
    g: ReebGraph,
    target_values: dict[str, ValueLike],
    n: int,
) -> GraphPath:
    """Linearly interpolate vertex values over n equal steps.

    Every intermediate assignment must keep edges monotone; since the
    interpolation is linear per vertex, it suffices that no edge flips its
    orientation between source and target. Each step is certified by the
    identity-maps witness at the per-step sup-norm.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    target = {v: to_fraction(x) for v, x in target_values.items()}
    unknown = set(target) - set(g.vertex_ids)
    if unknown:
        raise ValueError(f"unknown vertices in target assignment: {sorted(unknown)}")
    full_target = {v: target.get(v, g.value(v)) for v in g.vertex_ids}

    graphs: list[ReebGraph] = []
    for k in range(n + 1):
        s = Fraction(k, n)
        vals = {
            v: g.value(v) + s * (full_target[v] - g.value(v)) for v in g.vertex_ids
        }
        step_graph = g.with_values(vals)
        report = validate(step_graph)
        bad = [v for v in report.violations if v.code == "level-edge"]
        if bad:
            raise InvalidGraphError(
                f"interpolation step {k}/{n} breaks monotonicity: {bad[0].message}"
            )
        graphs.append(step_graph)

    sup = max(
        (abs(full_target[v] - g.value(v)) for v in g.vertex_ids), default=Fraction(0)
    )
    per_step = sup / n
    certs = tuple(
        certify_fd_upper(a, b, "identity maps on a fixed graph", per_step)
        for a, b in zip(graphs, graphs[1:])
    )
    steps = tuple((Fraction(k, n), graphs[k]) for k in range(n + 1))
    return GraphPath(steps, certs)


def contraction_path(g: ReebGraph, n: int = 4) -> GraphPath:
    """Deform g to a segment by simplification, then shrink to a point.

    Feature scales are visited in ascending order of diagonal distance; each
    stage carries its constructive certificate. The terminal single-vertex
    graph stands in for the empty graph, reached by shrinking the trunk in n
    linear steps and collapsing the final short segment.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    require_canonical(g)

    pieces: list[GraphPath] = []
    current = g

    def clearing_stage(graph: ReebGraph, scale: Fraction) -> ReebGraph:
        cleared, moves = clear_features(graph, scale)
        if cleared == graph:
            return graph
        witness = f"feature clearing at alpha={format_value(scale)}"
        pieces.append(_step(graph, cleared, witness, move_certificate(moves)))
        return cleared

    for scale in sorted(
        {p.persistence for p in extended_diagram(g) if p.kind != "Ext0"}
    ):
        current = clearing_stage(current, scale)
    # snapping during a stage can nudge a residual feature past the largest
    # original scale; clear leftovers at their own scales until only the
    # trunk remains
    while True:
        residual = [
            p.persistence
            for p in extended_diagram(current)
            if p.kind != "Ext0"
        ]
        if not residual:
            break
        current = clearing_stage(current, max(residual))

    # shrink the remaining trunk toward its midpoint
    lo, hi = current.min_value(), current.max_value()
    if lo != hi:
        mid = (lo + hi) / 2
        delta = (hi - lo) / 2 ** (n + 1)
        target = {}
        for v in current.vertex_ids:
            target[v] = mid - delta if current.value(v) < mid else (
                mid + delta if current.value(v) > mid else current.value(v)
            )
        pieces.append(linear_path(current, target, n))
        current = pieces[-1].steps[-1][1]

    # terminal collapse to a single vertex
    mid = (current.min_value() + current.max_value()) / 2
    terminal = ReebGraph([("pt", mid)], name="point")
    if current != terminal:
        witness = "collapse of a short segment to its midpoint"
        pieces.append(_step(current, terminal, witness, current.span() / 2))

    if not pieces:
        return constant_path(g)
    return concatenate(pieces)


# ---------------------------------------------------------------------------
# intrinsic-metric upper bounds
# ---------------------------------------------------------------------------


def join_via_contractions(g1: ReebGraph, g2: ReebGraph, n: int = 4) -> GraphPath:
    """Contract both graphs to points and bridge the midpoints."""
    down = contraction_path(g1, n)
    up = contraction_path(g2, n)
    end1 = down.steps[-1][1]
    end2 = up.steps[-1][1]
    shift = abs(end1.min_value() - end2.min_value())
    bridge = _step(end1, end2, "point-to-point shift", shift)
    return concatenate([down, bridge, reverse_path(up)])


def direct_linear_path(g1: ReebGraph, g2: ReebGraph, n: int = 1) -> Optional[GraphPath]:
    """Linear value interpolation along a structure isomorphism, if one exists.

    A structure isomorphism keeps every edge's strict value order, so the
    interpolation along the first one fails only when g1 itself has a level
    edge, and then it fails along every one.
    """
    from .isomorphism import structure_isomorphisms

    found = structure_isomorphisms(g1, g2, limit=1)
    if not found:
        return None
    target = {v: g2.value(found[0][v]) for v in g1.vertex_ids}
    try:
        return linear_path(g1, target, n)
    except InvalidGraphError:
        return None


def intrinsic_upper(g1: ReebGraph, g2: ReebGraph, n: int = 4) -> Fraction:
    """Certified upper bound on the intrinsic functional-distortion metric.

    Minimum over the built-in path families: a direct linear interpolation
    when the graphs share a combinatorial form, and contraction of both
    graphs to points joined at the bottom. The true infimum ranges over all
    admissible paths, so values are upper bounds only.
    """
    candidates: list[Fraction] = []
    direct = best_structure_shift(g1, g2)
    if direct is not None:
        candidates.append(direct)
    join = join_via_contractions(g1, g2, n)
    candidates.append(path_length(join, "fd_upper").total)
    return min(candidates)
