"""Discretized paths in the space of Reeb graphs and intrinsic-metric bounds.

A `GraphPath` is a finite time-stamped sequence of graphs; every consecutive
pair carries a certified interval [d_B/2, upper] around its functional
distortion distance. The path's two lengths are read from those intervals:
the summed upper bounds in the distortion metric, and the summed bottleneck
distances (twice each lower bound) in the bottleneck metric.

Every built-in path is a list of stages, each a graph and the analytic
upper bound of the step into it, and every certificate comes from
`certify_fd_upper` on that bound. `_contraction_stages` alone decides how a
graph contracts to a point, and `contraction_path` certifies its stages.
The join of two graphs is one stage list, `_join_stages`: the first graph's
contraction, a shift between the two end points, and the second graph's
contraction walked backwards. `join_via_contractions` certifies that list.
The intrinsic bound, `_intrinsic_bound`, is the best structure shift when
the graphs share a structure, else the join's summed bounds: no contraction
stage moves a value by more than its bound, so the shift never loses to the
join.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .diagram import _EXT0
from .distortion import FDBoundCertificate, best_structure_shift, certify_fd_upper
from .graph import InvalidGraphError, ReebGraph, validate
from .operators import clear_features
from .persistence import extended_diagram
from .rationals import ValueLike, format_value, to_fraction


@dataclass(frozen=True)
class GraphPath:
    """Time-stamped graphs from t=0 to t=1 with one certificate per segment.

    Invariant: `certificates[i]` certifies the segment from step i to step
    i + 1 and comes from `certify_fd_upper` on that pair. Its lower bound
    is therefore half the segment's bottleneck distance, which
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


@dataclass(frozen=True)
class PathLengthResult:
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
    return PathLengthResult(total, values)


# ---------------------------------------------------------------------------
# built-in path families
# ---------------------------------------------------------------------------

# A stage is a graph a path visits, with the analytic upper bound of the
# step into it.
_Stage = tuple[ReebGraph, Fraction]


def _stage_path(g: ReebGraph, stages: Sequence[_Stage]) -> GraphPath:
    """From g through the stages at uniform times, one certificate a step."""
    graphs = [g, *(h for h, _ in stages)]
    certs = tuple(certify_fd_upper(a, b, upper) for a, (b, upper) in zip(graphs, stages))
    n = len(stages)
    return GraphPath(tuple((Fraction(k, n), h) for k, h in enumerate(graphs)), certs)


def _interpolation(g: ReebGraph, target: dict[str, Fraction], n: int) -> list[_Stage]:
    """Steps 1..n of the linear interpolation from g to `target`, after
    testing steps 0..n for a level edge (see `linear_path`); step 0 is g."""
    per_step = max(abs(target[v] - g.value(v)) for v in g.vertex_ids) / n
    stages: list[_Stage] = []
    for k in range(n + 1):
        s = Fraction(k, n)
        step = g.with_values({v: x + s * (target[v] - x) for v, x in g.vertices()}) if k else g
        level_edges, _, _ = step._defects
        if level_edges:
            u, _ = step.edges[level_edges[0]]
            raise InvalidGraphError(
                f"interpolation step {k}/{n} breaks monotonicity: edge joins"
                f" two vertices at value {format_value(step.value(u))}"
            )
        stages.append((step, per_step))
    return stages[1:]


def linear_path(
    g: ReebGraph,
    target_values: dict[str, ValueLike],
    n: int,
) -> GraphPath:
    """Linearly interpolate vertex values over n equal steps.

    No grid step may put an edge's two ends at one value. An edge may flip
    its order between two grid steps: the identity maps on the fixed
    underlying graph certify each step at the per-step sup-norm whatever
    the edge order.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    target = {v: to_fraction(x) for v, x in target_values.items()}
    unknown = set(target) - set(g.vertex_ids)
    if unknown:
        raise ValueError(f"unknown vertices in target assignment: {sorted(unknown)}")
    level_edges, components, through = g._defects
    if not level_edges and (components > 1 or through):
        raise InvalidGraphError(str(validate(g)))  # before any step is built
    full_target = {v: target.get(v, g.value(v)) for v in g.vertex_ids}
    return _stage_path(g, _interpolation(g, full_target, n))


def _feature_persistences(g: ReebGraph) -> list[Fraction]:
    """The distinct persistences of g's non-trunk features, ascending."""
    d = extended_diagram(g)
    distinct = {abs(birth - death) for kind, birth, death in d.rows if kind != _EXT0}
    return [Fraction(p, d.scale) for p in sorted(distinct)]


def _contraction_stages(g: ReebGraph, n: int) -> list[_Stage]:
    """The stages that deform g to a single vertex; empty when g is one.

    Feature scales are cleared in ascending order of diagonal distance, each
    clearing bounded by its move certificate. The remaining trunk shrinks
    toward its midpoint in n linear steps, each bounded by its per-step
    sup-norm, and the final short segment collapses to that midpoint, a
    single vertex standing in for the empty graph, bounded by half its span.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    stages: list[_Stage] = []

    def clear(graph: ReebGraph, scale: Fraction) -> ReebGraph:
        cleared = clear_features(graph, scale)
        if not cleared.moves:
            return graph
        stages.append((cleared.graph, cleared.certificate))
        return cleared.graph

    current = g
    for scale in _feature_persistences(g):
        current = clear(current, scale)
    # snapping during a stage can nudge a residual feature past the largest
    # original scale; clear leftovers at their own scales until only the
    # trunk remains
    while residual := _feature_persistences(current):
        current = clear(current, residual[-1])

    lo, hi = current.min_value(), current.max_value()
    if lo != hi:
        mid = (lo + hi) / 2
        delta = (hi - lo) / 2 ** (n + 1)
        target = {
            v: mid - delta if x < mid else mid + delta if x > mid else x
            for v, x in current.vertices()
        }
        stages += _interpolation(current, target, n)
        current = stages[-1][0]

    mid = (current.min_value() + current.max_value()) / 2
    terminal = ReebGraph([("pt", mid)], name="point")
    if current != terminal:
        stages.append((terminal, current.span() / 2))
    return stages


def contraction_path(g: ReebGraph, n: int = 4) -> GraphPath:
    """Deform g to a point through its certified contraction stages; a graph
    that is already the terminal point stays put for one [0, 0] step."""
    return _stage_path(g, _contraction_stages(g, n) or [(g, Fraction(0))])


# ---------------------------------------------------------------------------
# intrinsic-metric upper bounds
# ---------------------------------------------------------------------------


def _join_stages(g1: ReebGraph, g2: ReebGraph, n: int) -> list[_Stage]:
    """g1's contraction stages, the shift between the two end points, then
    g2's stages walked backwards: each backward stage is the graph before
    it, with the same bound."""
    down = _contraction_stages(g1, n)
    up = _contraction_stages(g2, n)
    end1 = down[-1][0] if down else g1
    end2 = up[-1][0] if up else g2
    bridge = (end2, abs(end1.min_value() - end2.min_value()))
    before = [g2, *(h for h, _ in up)]
    back = [(h, upper) for h, (_, upper) in zip(before, up)]
    return [*down, bridge, *reversed(back)]


def join_via_contractions(g1: ReebGraph, g2: ReebGraph, n: int = 4) -> GraphPath:
    """Contract both graphs to points and bridge the midpoints."""
    return _stage_path(g1, _join_stages(g1, g2, n))


def intrinsic_upper(g1: ReebGraph, g2: ReebGraph) -> Fraction:
    """Upper bound on the intrinsic functional-distortion metric: the best
    structure shift when the graphs share a structure, else the join length."""
    return _intrinsic_bound(g1, g2)[0]


def _intrinsic_bound(g1: ReebGraph, g2: ReebGraph) -> tuple[Fraction, str]:
    """The intrinsic bound and its witness: the best structure shift
    ("natural") when the graphs share a structure, else the length of the
    join that `join_via_contractions` certifies ("contraction-join").

    The shift is never above the join, so the join is built only without
    one. Each contraction stage moves every value by at most its bound: a
    band-merge pass by half its widest band, a shrink step by its per-step
    sup, the collapse by half the span. So every vertex of g_i lies within
    C_i, the sum of its stage bounds, of its end value m_i, and a structure
    isomorphism s has |f1(v) - f2(s v)| <= C1 + |m1 - m2| + C2, the join.
    The shrink steps of a trunk add up to half its span less the half-width
    delta they leave, which the collapse adds back; the sum does not depend
    on their number, so one step gives it with the fewest graphs.
    """
    shift = best_structure_shift(g1, g2)
    if shift is not None:
        return shift, "natural"
    join = sum((upper for _, upper in _join_stages(g1, g2, 1)), Fraction(0))
    return join, "contraction-join"
