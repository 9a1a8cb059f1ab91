"""Diagrams on the int lattice against the `Fraction` path they replace.

A `Diagram` stores its `scale` and sorted int rows; the sweeps emit rows
from a graph's levels, and `bottleneck` matches and checks them on one
lattice. The references here are the `Fraction` path: diagram points built
from `g.value` and sorted by `DiagramPoint.sort_key`, each kind's distances
on the lcm of that kind's own denominators, and the witness costed with
`linf`. Diagrams, values and witnesses must be identical; a `Fraction` is
always in lowest terms, so equal values have equal numerators and
denominators.
"""

import math
import random
from fractions import Fraction as F
from typing import Optional, Sequence

import pytest

from reebmetrics import (
    KINDS,
    BottleneckResult,
    Diagram,
    DiagramPoint,
    PartialMatching,
    bottleneck,
    extended_diagram,
    feasible,
    matching_cost,
    random_graph,
    reduce_extended_filtration,
)
from reebmetrics.bottleneck import _kind_assignment, _KindDistances
from reebmetrics.diagram import linf
from reebmetrics.fileio import diagram_to_text, parse_diagram_text
from reebmetrics.persistence import _diagram_from_sweeps
from value_reference import coprime_cases, on_primes, reference_diagram_points


def fraction_kind_distances(
    left: Sequence[DiagramPoint], right: Sequence[DiagramPoint]
) -> _KindDistances:
    """One kind's distances as they were computed from `Fraction` points:
    every coordinate over the lcm L of the kind's own denominators, and each
    distance over 2L."""
    lattice = math.lcm(*{x.denominator for p in (*left, *right) for x in (p.birth, p.death)})
    lefts = [(int(p.birth * lattice), int(p.death * lattice)) for p in left]
    rights = [(int(q.birth * lattice), int(q.death * lattice)) for q in right]
    return _KindDistances(
        2 * lattice,
        [[2 * max(abs(b - b2), abs(d - d2)) for b2, d2 in rights] for b, d in lefts],
        [abs(b - d) for b, d in lefts],
        [abs(b - d) for b, d in rights],
    )


def fraction_matching_cost(
    left: Sequence[DiagramPoint], right: Sequence[DiagramPoint], m: PartialMatching
) -> F:
    cost = F(0)
    for i, j in m.pairs:
        assert left[i].kind == right[j].kind
        cost = max(cost, linf(left[i], right[j]))
    for i in m.unmatched_left:
        cost = max(cost, left[i].diagonal_distance)
    for j in m.unmatched_right:
        cost = max(cost, right[j].diagonal_distance)
    return cost


def fraction_bottleneck(
    left: Sequence[DiagramPoint], right: Sequence[DiagramPoint]
) -> BottleneckResult:
    """The optimum and witness of the `Fraction` path, on points sorted by
    `DiagramPoint.sort_key`: each kind searched on its own lattice, its
    optimum a `Fraction`, and the witness costed with `linf`."""
    value = F(0)
    pairs: list[tuple[int, int]] = []
    unmatched_left: list[int] = []
    unmatched_right: list[int] = []
    for kind in KINDS:
        mine = [i for i, p in enumerate(left) if p.kind == kind]
        theirs = [j for j, q in enumerate(right) if q.kind == kind]
        if not mine and not theirs:
            continue
        dists = fraction_kind_distances([left[i] for i in mine], [right[j] for j in theirs])
        best, assignment = _kind_assignment(dists)
        value = max(value, F(best, dists.scale))
        matched: set[Optional[int]] = set(assignment)
        for a, b in enumerate(assignment):
            if b is None:
                unmatched_left.append(mine[a])
            else:
                pairs.append((mine[a], theirs[b]))
        unmatched_right += (theirs[j] for j in range(len(theirs)) if j not in matched)
    witness = PartialMatching(
        tuple(sorted(pairs)), tuple(sorted(unmatched_left)), tuple(sorted(unmatched_right))
    )
    assert fraction_matching_cost(left, right, witness) == value
    return BottleneckResult(value, witness)


def assert_matches_reference(g1, g2) -> None:
    d1, d2 = extended_diagram(g1), extended_diagram(g2)
    want1, want2 = reference_diagram_points(g1), reference_diagram_points(g2)
    assert d1.points == want1
    assert d2.points == want2
    result = bottleneck(d1, d2)
    assert result == fraction_bottleneck(want1, want2)
    assert matching_cost(d1, d2, result.witness) == result.value
    assert feasible(d1, d2, result.value)


def graph_pairs(seed: int, count: int):
    """Seeded random graphs, each against a jittered copy and against
    another random graph."""
    rng = random.Random(seed)
    for _ in range(count):
        g = random_graph(rng, n_critical=rng.randint(3, 16))
        gap = min(abs(g.value(u) - g.value(v)) for u, v in g.edges)
        moved = g.with_values(
            {v: g.value(v) + gap / 3 * F(rng.randint(-12, 12), 12) for v in g.vertex_ids}
        )
        yield g, moved
        yield g, random_graph(rng, n_critical=rng.randint(3, 16))


def test_graph_pairs_match_the_fraction_path():
    for g, h in graph_pairs(3141, 40):
        assert_matches_reference(g, h)
        assert_matches_reference(g.negated(), h.negated())


def test_graph_pairs_on_mixed_denominators_match_the_fraction_path():
    # the same orders of values over thirds, over sevenths shifted by a half,
    # and over pairwise coprime denominators: the two diagrams of a pair
    # never share a scale
    for g, h in graph_pairs(2718, 8):
        thirds = g.with_values({v: g.value(v) / 3 for v in g.vertex_ids})
        sevenths = h.with_values({v: h.value(v) / 7 + F(1, 2) for v in h.vertex_ids})
        assert extended_diagram(thirds).scale != extended_diagram(sevenths).scale
        assert_matches_reference(thirds, sevenths)
        assert_matches_reference(on_primes(g), sevenths)
        assert_matches_reference(on_primes(g), on_primes(h))


def random_points(rng: random.Random, denominators: dict[str, int]) -> list[DiagramPoint]:
    """Up to six points of each kind, kind k on the grid of `denominators[k]`."""
    points = []
    for kind, den in denominators.items():
        for _ in range(rng.randint(0, 6)):
            a = F(rng.randint(0, 6 * den), den)
            b = a + F(rng.randint(0 if kind in ("Ext0", "Ext1") else 1, 4 * den), den)
            points.append(DiagramPoint(kind, *((a, b) if kind in ("Ord0", "Ext0") else (b, a))))
    return points


def test_diagrams_on_mixed_denominators_match_the_fraction_path():
    # 1/3 against 0.5, and against 1/7, on every kind
    third = Diagram([DiagramPoint("Ord0", F(1, 3), 1), DiagramPoint("Ext0", 0, 2)])
    half = Diagram([DiagramPoint("Ord0", F("0.5"), 1), DiagramPoint("Ext0", 0, 2)])
    result = bottleneck(third, half)
    assert result == BottleneckResult(F(1, 6), PartialMatching(((0, 0), (1, 1)), (), ()))
    assert result == fraction_bottleneck(third.points, half.points)
    rng = random.Random(1737)
    for trial in range(60):
        sides = [
            random_points(rng, {kind: 3 for kind in KINDS}),
            random_points(rng, dict(zip(KINDS, rng.sample((2, 7, 14, 2), 4)))),
        ]
        d1, d2 = (Diagram(points) for points in sides)
        want1, want2 = (tuple(sorted(points, key=DiagramPoint.sort_key)) for points in sides)
        assert d1.points == want1, trial
        assert d2.points == want2, trial
        assert bottleneck(d1, d2) == fraction_bottleneck(want1, want2), trial
        assert bottleneck(d2, d1) == fraction_bottleneck(want2, want1), trial


def test_text_round_trip_of_a_diagram_below_its_sweep_scale():
    # the subdivision's pass-through vertices sit on thirds of the arcs and
    # carry no point, so its sweeps run on a far larger scale than the
    # points' lcm
    for g, sub in coprime_cases(5077, 2):
        for d in (_diagram_from_sweeps(sub), reduce_extended_filtration(sub)):
            assert d.scale < sub.scale
            assert d.scale == Diagram(reference_diagram_points(sub)).scale
            again = parse_diagram_text(diagram_to_text(d))
            assert again == d
            assert hash(again) == hash(d)
            assert d == extended_diagram(g)


def test_row_lattice_is_the_lcm_of_the_points_denominators():
    d = Diagram._from_rows(12, [(2, 0, 12), (0, 4, 12), (1, 12, 8)])
    assert d.scale == 3
    assert d.rows == ((0, 1, 3), (1, 3, 2), (2, 0, 3))
    assert d == Diagram(
        [
            DiagramPoint("Ext0", 0, 1),
            DiagramPoint("Ord0", F(1, 3), 1),
            DiagramPoint("Rel1", 1, F(2, 3)),
        ]
    )
    assert Diagram._from_rows(8, []) == Diagram()
    assert Diagram._from_rows(8, []).scale == 1
    assert d.points is d.points  # built once


def test_empty_diagram_matches_empty_diagram():
    empty = Diagram()
    assert bottleneck(empty, empty) == BottleneckResult(F(0), PartialMatching((), (), ()))
    assert matching_cost(empty, empty, PartialMatching((), (), ())) == 0
    assert feasible(empty, empty, 0)


@pytest.mark.parametrize(
    "row", [(0, 2, 1), (0, 1, 1), (1, 1, 2), (1, 1, 1), (2, 2, 1), (3, 1, 2)]
)
def test_row_on_the_wrong_side_of_the_diagonal_raises(row):
    with pytest.raises(ValueError, match="diagonal"):
        Diagram._from_rows(1, [(2, 0, 1), row])
