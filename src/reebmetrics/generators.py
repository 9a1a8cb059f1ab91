"""Built-in and random Reeb graph instances for tests and experiments.

The named pair `figure1_left` / `figure1_right` realizes two non-isomorphic
graphs with identical extended persistence diagrams: a trunk with one hole
and two short downward branches, attached to the same arc on the left and
split across the two arcs on the right. The `figure5` family has n + 2
critical values and features of geometrically decreasing height.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from .graph import ReebGraph, canonicalize, validate
from .rationals import ValueLike, to_fraction

__all__ = [
    "segment",
    "cycle",
    "y_graph",
    "figure1_left",
    "figure1_right",
    "figure5",
    "random_graph",
]


def segment(lo: ValueLike = 0, hi: ValueLike = 3) -> ReebGraph:
    lo, hi = to_fraction(lo), to_fraction(hi)
    if not lo < hi:
        raise ValueError("segment needs lo < hi")
    return ReebGraph([("bot", lo), ("top", hi)], [("bot", "top")], name="segment")


def cycle(lo: ValueLike = 0, hi: ValueLike = 3) -> ReebGraph:
    lo, hi = to_fraction(lo), to_fraction(hi)
    if not lo < hi:
        raise ValueError("cycle needs lo < hi")
    return ReebGraph(
        [("bot", lo), ("top", hi)],
        [("bot", "top"), ("bot", "top")],
        name="cycle",
    )


def y_graph() -> ReebGraph:
    """Trunk [0, 3] with a downward branch: minima at 0 and 1, fork at 2."""
    return ReebGraph(
        [("a", 0), ("b", 1), ("c", 2), ("d", 3)],
        [("a", "c"), ("b", "c"), ("c", "d")],
        name="Y",
    )


def _figure1(split_branches: bool, name: str) -> ReebGraph:
    # trunk [0, 8], hole spanning [2, 6], two branches with spans (3, 4), (4, 5);
    # vertices in (value, id) order, so the graph is canonical as built
    vertices = [
        ("bot", 0),
        ("s", 2),
        ("m1", 3),
        ("m2", 4),
        ("p1", 4),
        ("p2", 5),
        ("t", 6),
        ("top", 8),
    ]
    edges = [
        ("bot", "s"),
        ("t", "top"),
        ("p1", "m1"),
        ("p2", "m2"),
        ("s", "p1"),
    ]
    if split_branches:
        # one subdivision point on each arc of the hole
        edges += [("p1", "t"), ("s", "p2"), ("p2", "t")]
    else:
        # both subdivision points on the same arc; the other arc is plain
        edges += [("p1", "p2"), ("p2", "t"), ("s", "t")]
    return ReebGraph(vertices, edges, name=name)


def figure1_left() -> ReebGraph:
    return _figure1(split_branches=False, name="figure1_left")


def figure1_right() -> ReebGraph:
    return _figure1(split_branches=True, name="figure1_right")


def figure5(n: int) -> ReebGraph:
    """n downward branches hanging from the top vertex of a unit trunk.

    Branch i ends at 1 - 2**-i, so the graph has n + 2 critical values and
    the added feature heights halve along the family.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    # vertices in (value, id) order, so the graph is canonical as built
    vertices: list[tuple[str, ValueLike]] = [("bot", 0)]
    edges = [("bot", "top")]
    for i in range(1, n + 1):
        tip = f"tip{i}"
        vertices.append((tip, Fraction(2**i - 1, 2**i)))
        edges.append((tip, "top"))
    vertices.append(("top", 1))
    return ReebGraph(vertices, edges, name=f"figure5_{n}")


# ---------------------------------------------------------------------------
# random graphs
# ---------------------------------------------------------------------------

_VALUE_RANGE = (Fraction(0), Fraction(10))  # every random graph's values lie here
_GRID = 1000  # sampled values lie on lo + (k / _GRID) * span
_LOOP_BIAS = 0.35  # how often a pair of values becomes a loop rather than a branch


def _sample_values(
    rng: random.Random,
    count: int,
    lo: Fraction,
    hi: Fraction,
    min_gap: Fraction,
) -> list[Fraction]:
    """Distinct values in [lo, hi] with pairwise gaps >= min_gap.

    Values lie on the grid lo + (k / _GRID) * span. Up to 10 000
    rejection draws come first; if all fail (many values, tight gap), the
    values are placed by construction: `count` sorted picks from the grid
    shortened by the gaps' total, the i-th moved up by i gaps.
    """
    span = hi - lo
    if span <= 0 or min_gap * (count - 1) >= span:
        raise ValueError("value range too small for requested gap")
    # gaps are tested on k, in whole grid steps
    min_steps = math.ceil(min_gap * _GRID / span)
    room = _GRID - (count - 1) * min_steps
    if room < 0:
        raise ValueError("value grid too coarse for requested gap")
    for _ in range(10_000):
        picks = sorted(rng.randint(0, _GRID) for _ in range(count))
        if all(b - a >= min_steps for a, b in zip(picks, picks[1:])):
            break
    else:
        picks = sorted(rng.randint(0, room) for _ in range(count))
        picks = [k + i * min_steps for i, k in enumerate(picks)]
    return [lo + Fraction(k, _GRID) * span for k in picks]


def random_graph(seed: int | random.Random, n_critical: int = 6) -> ReebGraph:
    """A valid canonical connected graph with ~n_critical critical values.

    Construction: sample values in `_VALUE_RANGE` at least a quarter of
    span / n_critical apart, span a trunk between the extremes,
    then realize intermediate values by attaching branches and loops onto
    existing arcs. Every vertex gets a distinct value, so jitter experiments
    can perturb values without order collisions.
    """
    if n_critical < 2:
        raise ValueError("need at least two critical values")
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    lo, hi = _VALUE_RANGE
    values = _sample_values(rng, n_critical, lo, hi, (hi - lo) / (4 * n_critical))

    bot, top = values[0], values[-1]
    vertices: dict[str, Fraction] = {"v0": bot, "v1": top}
    edges: list[tuple[str, str]] = [("v0", "v1")]
    fresh = iter(range(2, 2 + 4 * n_critical))

    def new_vertex(value: Fraction) -> str:
        vid = f"v{next(fresh)}"
        vertices[vid] = value
        return vid

    def edges_spanning(a: Fraction, b: Fraction) -> list[int]:
        return [
            i
            for i, (u, v) in enumerate(edges)
            if vertices[u] < a and vertices[v] > b
        ]

    def subdivide(edge_index: int, value: Fraction) -> str:
        u, v = edges.pop(edge_index)
        mid = new_vertex(value)
        edges.extend([(u, mid), (mid, v)])
        return mid

    def attach_to_vertex(tip_value: Fraction) -> bool:
        """Hang a branch ending at tip_value from a vertex that stays critical."""
        for vid in sorted(vertices, key=lambda x: (vertices[x], x)):
            fv = vertices[vid]
            if fv == tip_value:
                continue
            goes_up = fv < tip_value
            up_deg = sum(
                1
                for u, v in edges
                if (u == vid and vertices[v] > fv) or (v == vid and vertices[u] > fv)
            )
            down_deg = sum(
                1
                for u, v in edges
                if (u == vid and vertices[v] < fv) or (v == vid and vertices[u] < fv)
            )
            # adding the lone opposite-side arc would make vid a pass-through
            if goes_up and down_deg == 1 and up_deg == 0:
                continue
            if not goes_up and up_deg == 1 and down_deg == 0:
                continue
            edges.append((vid, new_vertex(tip_value)))
            return True
        return False

    pending = values[1:-1]
    idx = 0
    while idx < len(pending):
        remaining = len(pending) - idx
        a = pending[idx]
        if remaining >= 2 and rng.random() < 0.85:
            b = pending[idx + 1]
            spanning_both = edges_spanning(a, b)
            roll = rng.random()
            if spanning_both and roll < _LOOP_BIAS:
                first = subdivide(rng.choice(spanning_both), a)
                upper_index = next(
                    i
                    for i, (u, v) in enumerate(edges)
                    if u == first and vertices[v] > b
                )
                second = subdivide(upper_index, b)
                edges.append((first, second))
            elif edges_spanning(b, b) and roll < 0.5 + _LOOP_BIAS / 2:
                # downward branch: fork at b, tip at a
                fork = subdivide(rng.choice(edges_spanning(b, b)), b)
                edges.append((new_vertex(a), fork))
            elif edges_spanning(a, a):
                # upward branch: fork at a, tip at b
                fork = subdivide(rng.choice(edges_spanning(a, a)), a)
                edges.append((fork, new_vertex(b)))
            else:
                attach_to_vertex(a)
                attach_to_vertex(b)
            idx += 2
        else:
            if not attach_to_vertex(a) and edges_spanning(a, a):
                fork = subdivide(rng.choice(edges_spanning(a, a)), a)
                edges.append((fork, new_vertex((a + top) / 2)))
            idx += 1

    g = canonicalize(ReebGraph(sorted(vertices.items(), key=lambda kv: (kv[1], kv[0])), edges))
    report = validate(g)
    if not report.ok:  # pragma: no cover - generator guarantee
        raise AssertionError(f"random generator produced invalid graph: {report}")
    return g
