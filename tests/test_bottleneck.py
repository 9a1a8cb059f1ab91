import importlib
import itertools
import math
import random
import sys
from fractions import Fraction as F
from typing import Optional, Sequence

import pytest

from reebmetrics import (
    KINDS,
    Diagram,
    DiagramPoint,
    PartialMatching,
    bottleneck,
    feasible,
    figure1_left,
    figure1_right,
    graph_bottleneck,
    matching_cost,
    random_graph,
    extended_diagram,
    y_graph,
)
from reebmetrics.bottleneck import (
    _assignment_cost,
    _floor,
    _kind_assignment,
    _kind_distances,
    _KindDistances,
    _neighbours,
    _threshold_matching,
)
from reebmetrics.diagram import linf

# the package exports the function `bottleneck` under the module's name
bottleneck_module = importlib.import_module("reebmetrics.bottleneck")


def point(kind, b, d):
    return DiagramPoint(kind, F(b), F(d))


def brute_force_bottleneck(d1: Diagram, d2: Diagram) -> F:
    """Minimum cost over every partial matching, by exhaustive enumeration."""
    best = [None]

    def kinds_split(d):
        groups = {}
        for i, p in enumerate(d.points):
            groups.setdefault(p.kind, []).append(i)
        return groups

    g1, g2 = kinds_split(d1), kinds_split(d2)

    def enumerate_kind(kind):
        left = g1.get(kind, [])
        right = g2.get(kind, [])
        options = []
        for k in range(min(len(left), len(right)) + 1):
            for chosen in itertools.combinations(left, k):
                for targets in itertools.permutations(right, k):
                    pairs = tuple(zip(chosen, targets))
                    options.append(pairs)
        return options

    all_kinds = sorted(set(g1) | set(g2))
    for combo in itertools.product(*(enumerate_kind(k) for k in all_kinds)):
        pairs = tuple(p for kind_pairs in combo for p in kind_pairs)
        used_l = {i for i, _ in pairs}
        used_r = {j for _, j in pairs}
        m = PartialMatching(
            pairs,
            tuple(i for i in range(len(d1.points)) if i not in used_l),
            tuple(j for j in range(len(d2.points)) if j not in used_r),
        )
        cost = matching_cost(d1, d2, m)
        if best[0] is None or cost < best[0]:
            best[0] = cost
    return best[0] if best[0] is not None else F(0)


def reference_kind_matching(
    left: Sequence[DiagramPoint],
    right: Sequence[DiagramPoint],
    delta: F,
) -> Optional[list[Optional[int]]]:
    """Perfect matching in the doubled graph at threshold delta, or None.

    The matcher the library used before its integer Hopcroft-Karp: a
    recursive augmenting-path search that recomputes every distance as a
    fraction. Nodes: every left point and a diagonal slot per right point;
    targets: every right point and a diagonal slot per left point.
    """
    n, k = len(left), len(right)

    def neighbors(a: int) -> list[int]:
        if a < n:
            p = left[a]
            out = [j for j in range(k) if linf(p, right[j]) <= delta]
            if p.diagonal_distance <= delta:
                out.append(k + a)
            return out
        j = a - n
        out = list(range(k, k + n))  # diagonal-to-diagonal is free
        if right[j].diagonal_distance <= delta:
            out.append(j)
        return out

    match_right: dict[int, int] = {}

    def augment(a: int, seen: set[int]) -> bool:
        for b in neighbors(a):
            if b in seen:
                continue
            seen.add(b)
            if b not in match_right or augment(match_right[b], seen):
                match_right[b] = a
                return True
        return False

    for a in range(n + k):
        if not augment(a, set()):
            return None
    assignment: list[Optional[int]] = [None] * n
    for b, a in match_right.items():
        if a < n and b < k:
            assignment[a] = b
    return assignment


def reference_bottleneck(d1: Diagram, d2: Diagram) -> F:
    """Per-kind binary search over sorted candidates with the reference matcher."""
    value = F(0)
    for kind in KINDS:
        left, right = d1.of_kind(kind), d2.of_kind(kind)
        candidates = {F(0)}
        for p in left:
            candidates.add(p.diagonal_distance)
            for q in right:
                candidates.add(linf(p, q))
        for q in right:
            candidates.add(q.diagonal_distance)
        ordered = sorted(candidates)
        lo, hi = 0, len(ordered) - 1
        best = ordered[-1]
        while lo <= hi:
            mid = (lo + hi) // 2
            if reference_kind_matching(left, right, ordered[mid]) is not None:
                best = ordered[mid]
                hi = mid - 1
            else:
                lo = mid + 1
        value = max(value, best)
    return value


def random_kind_points(
    rng: random.Random, kind: str, count: int, denominator: int = 4
) -> list[DiagramPoint]:
    """Points of one kind on a coarse grid, so that coincident points occur."""
    pts = []
    for _ in range(count):
        if pts and rng.random() < 0.15:
            pts.append(rng.choice(pts))
            continue
        a = F(rng.randint(0, 6 * denominator), denominator)
        gap = F(rng.randint(0 if kind in ("Ext0", "Ext1") else 1, 4 * denominator), denominator)
        if kind in ("Ord0", "Ext0"):
            pts.append(DiagramPoint(kind, a, a + gap))
        else:
            pts.append(DiagramPoint(kind, a + gap, a))
    return pts


# ---------------------------------------------------------------------------
# matching cost
# ---------------------------------------------------------------------------


def test_cost_unmatched_is_diagonal_distance():
    d1 = Diagram([point("Ord0", 1, 2)])
    m = PartialMatching((), (0,), ())
    assert matching_cost(d1, Diagram(), m) == F(1, 2)


def test_cost_matched_is_linf():
    d1 = Diagram([point("Ord0", 0, 4)])
    d2 = Diagram([point("Ord0", 1, 5)])
    assert matching_cost(d1, d2, PartialMatching(((0, 0),), (), ())) == 1


def test_cost_identity_zero():
    d = extended_diagram(y_graph())
    pairs = tuple((i, i) for i in range(len(d.points)))
    assert matching_cost(d, d, PartialMatching(pairs, (), ())) == 0


def test_cost_rejects_kind_mismatch():
    d1 = Diagram([point("Ord0", 1, 2)])
    d2 = Diagram([point("Rel1", 2, 1)])
    with pytest.raises(ValueError):
        matching_cost(d1, d2, PartialMatching(((0, 0),), (), ()))


def test_cost_rejects_reused_index():
    d1 = Diagram([point("Ord0", 1, 2), point("Ord0", 1, 3)])
    d2 = Diagram([point("Ord0", 1, 2)])
    with pytest.raises(ValueError):
        matching_cost(d1, d2, PartialMatching(((0, 0), (1, 0)), (), ()))


# ---------------------------------------------------------------------------
# feasibility and the exact optimum
# ---------------------------------------------------------------------------


def test_feasible_examples():
    d1 = Diagram([point("Ord0", 0, 4)])
    d2 = Diagram([point("Ord0", 1, 5)])
    assert feasible(d1, d2, 1)
    assert not feasible(d1, d2, F(99, 100))
    assert feasible(d1, d1, 0)


def test_feasible_rejects_negative():
    with pytest.raises(ValueError):
        feasible(Diagram(), Diagram(), -1)


def test_bottleneck_prefers_matching_over_diagonal():
    d1 = Diagram([point("Ord0", 0, 4)])
    d2 = Diagram([point("Ord0", 1, 5)])
    result = bottleneck(d1, d2)
    assert result.value == 1
    assert result.witness.pairs == ((0, 0),)


def test_bottleneck_single_point_to_diagonal():
    d1 = Diagram([point("Ord0", 1, 2)])
    result = bottleneck(d1, Diagram())
    assert result.value == F(1, 2)
    assert result.witness.unmatched_left == (0,)


def test_bottleneck_candidate_exactness():
    d1 = Diagram([point("Ord0", 0, 4), point("Ord0", 2, 7)])
    d2 = Diagram([point("Ord0", 1, 5), point("Ord0", 0, 1)])
    result = bottleneck(d1, d2)
    assert feasible(d1, d2, result.value)
    candidates = sorted(
        {
            max(abs(p.birth - q.birth), abs(p.death - q.death))
            for p in d1.points
            for q in d2.points
        }
        | {p.diagonal_distance for p in d1.points}
        | {q.diagonal_distance for q in d2.points}
    )
    below = [c for c in candidates if c < result.value]
    if below:
        assert not feasible(d1, d2, below[-1])


def test_bottleneck_matches_brute_force_on_random_diagrams():
    rng = random.Random(13)
    kinds = ["Ord0", "Rel1", "Ext0", "Ext1"]
    for _ in range(60):
        def rand_points(count):
            pts = []
            for _ in range(count):
                kind = rng.choice(kinds)
                a = F(rng.randint(0, 20), 4)
                gap = F(rng.randint(0 if kind in ("Ext0", "Ext1") else 1, 12), 4)
                if kind == "Ord0":
                    pts.append(DiagramPoint(kind, a, a + gap))
                elif kind == "Rel1":
                    pts.append(DiagramPoint(kind, a + gap, a))
                elif kind == "Ext0":
                    pts.append(DiagramPoint(kind, a, a + gap))
                else:
                    pts.append(DiagramPoint(kind, a + gap, a))
            return Diagram(pts)

        d1 = rand_points(rng.randint(0, 3))
        d2 = rand_points(rng.randint(0, 3))
        assert bottleneck(d1, d2).value == brute_force_bottleneck(d1, d2)


def test_bottleneck_kinds_never_mix():
    d1 = Diagram([point("Ord0", 0, 10)])
    d2 = Diagram([point("Rel1", 10, 0)])
    result = bottleneck(d1, d2)
    assert result.witness.pairs == ()
    assert result.value == 5


def test_pseudo_metric_properties_on_random_graph_diagrams():
    rng = random.Random(4)
    graphs = [random_graph(rng, n_critical=rng.randint(4, 7)) for _ in range(6)]
    diagrams = [extended_diagram(g) for g in graphs]
    for d in diagrams:
        assert bottleneck(d, d).value == 0
    for a, b, c in itertools.combinations(diagrams, 3):
        ab = bottleneck(a, b).value
        ba = bottleneck(b, a).value
        assert ab == ba
        assert bottleneck(a, c).value <= ab + bottleneck(b, c).value


def test_graph_bottleneck_examples():
    y = y_graph()
    assert graph_bottleneck(y, y) == 0
    assert graph_bottleneck(figure1_left(), figure1_right()) == 0
    perturbed = y.with_values({"b": F("1.05"), "c": F("1.95")})
    assert graph_bottleneck(y, perturbed) == F("0.05")


def test_bottleneck_matches_reference_matcher():
    rng = random.Random(2017)
    for trial in range(200):
        sides = []
        for _ in range(2):
            pts = []
            for kind in KINDS:
                count = 0 if rng.random() < 0.2 else rng.randint(0, 15)
                pts.extend(random_kind_points(rng, kind, count))
            sides.append(Diagram(pts))
        d1, d2 = sides
        result = bottleneck(d1, d2)
        assert result.value == reference_bottleneck(d1, d2), trial
        result.witness.validate(d1, d2)
        assert matching_cost(d1, d2, result.witness) == result.value


def nearby_ord0_pair() -> tuple[Diagram, Diagram, F]:
    """201 seeded Ord0 points and a copy with every coordinate moved by at
    most 1/16, and the largest move."""
    rng = random.Random(201)
    left, right = [], []
    largest_jitter = F(0)
    for _ in range(201):
        birth = F(rng.randint(0, 4096), 16)
        p = DiagramPoint("Ord0", birth, birth + F(rng.randint(2, 512), 16))
        db, dd = F(rng.randint(-8, 8), 128), F(rng.randint(-8, 8), 128)
        largest_jitter = max(largest_jitter, abs(db), abs(dd))
        left.append(p)
        right.append(DiagramPoint("Ord0", p.birth + db, p.death + dd))
    return Diagram(left), Diagram(right), largest_jitter


def test_bottleneck_at_scale_within_recursion_limit():
    assert sys.getrecursionlimit() <= 1000
    d1, d2, largest_jitter = nearby_ord0_pair()
    result = bottleneck(d1, d2)
    assert matching_cost(d1, d2, result.witness) == result.value
    assert 0 < result.value <= largest_jitter
    assert feasible(d1, d2, result.value)
    candidates = (
        {linf(p, q) for p in d1.points for q in d2.points}
        | {p.diagonal_distance for p in d1.points}
        | {q.diagonal_distance for q in d2.points}
    )
    below = max(c for c in candidates if c < result.value)
    assert not feasible(d1, d2, below)


def candidate_values(d1: Diagram, d2: Diagram) -> set[F]:
    """Every same-kind pair distance and every diagonal cost, and 0."""
    out = {F(0)}
    for kind in KINDS:
        left, right = d1.of_kind(kind), d2.of_kind(kind)
        out |= {linf(p, q) for p in left for q in right}
        out |= {p.diagonal_distance for p in (*left, *right)}
    return out


def random_pair(rng: random.Random, denominators=(4, 4, 4, 4), most: int = 6):
    """Two diagrams with up to `most` points of each kind, kind k on the grid
    of `denominators[k]`."""
    return tuple(
        Diagram(
            p
            for kind, den in zip(KINDS, denominators)
            for p in random_kind_points(rng, kind, rng.randint(0, most), den)
        )
        for _ in range(2)
    )


def test_feasible_matches_reference_at_between_and_off_the_candidates():
    # dyadic diagrams: candidates are multiples of 1/8, so deltas in thirds
    # and sevenths fall off every kind's lattice unless they are integers
    rng = random.Random(3037)
    for trial in range(25):
        d1, d2 = random_pair(rng)
        value = reference_bottleneck(d1, d2)
        candidates = sorted(candidate_values(d1, d2))
        deltas = candidates + [(a + b) / 2 for a, b in zip(candidates, candidates[1:])]
        deltas += [F(m, den) for den in (3, 7) for m in range(0, 11 * den, 2)]
        for delta in deltas:
            assert feasible(d1, d2, delta) == (value <= delta), (trial, delta)


def test_bottleneck_when_kinds_carry_different_denominators():
    rng = random.Random(7211)
    for trial in range(40):
        d1, d2 = random_pair(rng, denominators=(3, 7, 5, 11), most=8)
        result = bottleneck(d1, d2)
        assert result.value == reference_bottleneck(d1, d2), trial
        assert matching_cost(d1, d2, result.witness) == result.value
        assert feasible(d1, d2, result.value)


def test_bottleneck_with_pairwise_coprime_denominators():
    # every coordinate on its own prime: each kind's lcm is a product of
    # dozens of primes, far beyond any machine word
    primes = [p for p in range(2, 400) if all(p % q for q in range(2, p))]
    rng = random.Random(4099)
    for trial in range(6):
        dens = iter(rng.sample(primes, len(primes)))
        sides = []
        for _ in range(2):
            pts = []
            for kind in ("Ord0", "Rel1"):
                for _ in range(9):
                    p, q = next(dens), next(dens)
                    a = F(rng.randint(0, 8 * p), p)
                    b = a + F(rng.randint(1, 4 * q), q)
                    pts.append(DiagramPoint(kind, *((a, b) if kind == "Ord0" else (b, a))))
            sides.append(Diagram(pts))
        d1, d2 = sides
        result = bottleneck(d1, d2)
        assert result.value == reference_bottleneck(d1, d2), trial
        assert matching_cost(d1, d2, result.witness) == result.value


# ---------------------------------------------------------------------------
# the nearest-neighbour floor
# ---------------------------------------------------------------------------


def dense_kind_distances(dists: _KindDistances) -> list[list[int]]:
    """The n·k matrix of pair distances that the search never builds:
    entry [a][j] is 2 max(|db|, |dd|) of left point a and right point j."""
    return [
        [2 * max(abs(b - b2), abs(d - d2)) for b2, d2 in dists.right] for b, d in dists.left
    ]


def dense_neighbours(dists: _KindDistances, threshold: int) -> list[list[int]]:
    """`_neighbours` by a scan of every row of the dense matrix."""
    k = len(dists.right)
    adj = [
        [j for j, r in enumerate(row) if r <= threshold] for row in dense_kind_distances(dists)
    ]
    for a, cost in enumerate(dists.diag_left):
        if cost <= threshold:
            adj[a].append(k + a)
    adj.extend([j] if cost <= threshold else [] for j, cost in enumerate(dists.diag_right))
    return adj


def sorted_candidate_search(dists: _KindDistances) -> tuple[int, list[Optional[int]]]:
    """The per-kind search without the floor probe: a binary search over
    every distinct candidate of the dense matrix, and 0, in increasing
    order."""
    pairs = itertools.chain.from_iterable(dense_kind_distances(dists))
    candidates = sorted({0, *dists.diag_left, *dists.diag_right, *pairs})
    lo, hi = 0, len(candidates) - 1
    best, assignment = hi, None
    while lo <= hi:  # the largest candidate is always feasible
        mid = (lo + hi) // 2
        found = _threshold_matching(dists, candidates[mid])
        if found is None:
            lo = mid + 1
        else:
            best, assignment, hi = mid, found, mid - 1
    return candidates[best], assignment


def dense_floor(dists: _KindDistances) -> int:
    """`_floor` from the dense matrix: each point's least entry of its row
    or column, or its diagonal cost, whichever is less."""
    matrix = dense_kind_distances(dists)
    columns = zip(*matrix) if matrix else itertools.repeat(())
    near = itertools.chain(zip(dists.diag_left, matrix), zip(dists.diag_right, columns))
    return max((min((cost, *row)) for cost, row in near), default=0)


def lattice_pairs(points: Sequence[DiagramPoint], scale: int) -> list[tuple[int, int]]:
    """Each point's (birth, death) times `scale`, a multiple of their denominators."""
    return [(int(p.birth * scale), int(p.death * scale)) for p in points]


def kind_distances_of(d1: Diagram, d2: Diagram) -> list[_KindDistances]:
    """The distances of every kind present on either side, on the lcm of
    the two diagrams' scales."""
    scale = math.lcm(d1.scale, d2.scale)
    return [
        _kind_distances(
            lattice_pairs(d1.of_kind(kind), scale), lattice_pairs(d2.of_kind(kind), scale), scale
        )
        for kind in KINDS
        if d1.of_kind(kind) or d2.of_kind(kind)
    ]


def test_floor_probe_matches_sorted_candidate_search():
    rng = random.Random(2017)
    at_floor = above_floor = 0
    for trial in range(120):
        d1, d2 = random_pair(rng, most=10)
        for dists in kind_distances_of(d1, d2):
            value, assignment = sorted_candidate_search(dists)
            assert _kind_assignment(dists) == (value, assignment), trial
            if value == _floor(dists):
                at_floor += 1
            else:
                assert value > _floor(dists)
                above_floor += 1
    # the sample reaches both the probe and the fallback search
    assert at_floor > 0 and above_floor > 0, (at_floor, above_floor)


def random_kind(rng: random.Random) -> _KindDistances:
    """One kind's sorted rows on a lattice of up to 10**6 steps: either side
    may be empty, births tie, points repeat, and a side's points may lie on
    either side of the diagonal."""
    span = rng.choice((3, 16, 200, 10**6))

    def side() -> list[tuple[int, int]]:
        rows: list[tuple[int, int]] = []
        for _ in range(0 if rng.random() < 0.1 else rng.randint(1, 12)):
            if rows and rng.random() < 0.15:
                rows.append(rng.choice(rows))
                continue
            birth = rng.choice(rows)[0] if rows and rng.random() < 0.25 else rng.randint(0, span)
            rows.append((birth, rng.randint(0, span)))
        return sorted(rows)

    return _kind_distances(side(), side(), rng.choice((1, 3, 64)))


def test_banded_search_matches_the_dense_search_on_random_kinds():
    rng = random.Random(36)
    fallback = empty = 0
    for trial in range(1500):
        dists = random_kind(rng)
        value, assignment = sorted_candidate_search(dists)
        assert _kind_assignment(dists) == (value, assignment), trial
        floor = _floor(dists)
        assert floor == dense_floor(dists), trial
        assert value >= floor
        fallback += value > floor
        empty += not dists.left or not dists.right
        # the banded neighbours are the dense rows at and around every candidate
        pairs = itertools.chain.from_iterable(dense_kind_distances(dists))
        for c in {0, *dists.diag_left, *dists.diag_right, *pairs}:
            for t in (c - 1, c, c + 1):
                assert _neighbours(dists, t) == dense_neighbours(dists, t), (trial, t)
    # the sample reaches the bisection above an infeasible floor, and empty sides
    assert fallback > 100 and empty > 100, (fallback, empty)


def test_floor_of_a_kind_with_one_empty_side_is_its_largest_diagonal_cost():
    points = lattice_pairs([point("Ord0", 0, 3), point("Ord0", 1, 2)], 1)
    for left, right in ((points, []), ([], points)):
        dists = _kind_distances(left, right, 1)
        assert F(_floor(dists), dists.scale) == F(3, 2)
        assert F(_kind_assignment(dists)[0], dists.scale) == F(3, 2)


@pytest.fixture
def matching_calls(monkeypatch):
    """Counts the calls of `_threshold_matching` made by `bottleneck`."""
    calls = []
    original = bottleneck_module._threshold_matching

    def counted(dists, threshold):
        calls.append(threshold)
        return original(dists, threshold)

    monkeypatch.setattr(bottleneck_module, "_threshold_matching", counted)
    return calls


def test_nearby_diagrams_take_one_matching_per_kind(matching_calls):
    d1, d2, _ = nearby_ord0_pair()
    bottleneck(d1, d2)
    assert len(matching_calls) == 1
    # extended diagrams of a graph and a copy with every value moved by at
    # most a quarter of its smallest edge span
    rng = random.Random(23)
    g = random_graph(rng, n_critical=30)
    gap = min(abs(g.value(u) - g.value(v)) for u, v in g.edges)
    moved = g.with_values(
        {v: g.value(v) + gap / 4 * F(rng.randint(-21, 21), 21) for v in g.vertex_ids}
    )
    e1, e2 = extended_diagram(g), extended_diagram(moved)
    matching_calls.clear()
    result = bottleneck(e1, e2)
    assert 0 < result.value <= gap / 4
    assert len(matching_calls) == len(kind_distances_of(e1, e2)) > 1


def test_infeasible_floor_falls_back_to_the_sorted_search(matching_calls):
    d1 = Diagram([point("Ord0", 0, 10), point("Ord0", 1, 11)])
    d2 = Diagram([point("Ord0", 0, 10), point("Ord0", 20, 21)])
    # Ord0 1 11 is 1 from Ord0 0 10, which Ord0 0 10 needs too
    [dists] = kind_distances_of(d1, d2)
    assert F(_floor(dists), dists.scale) == 1
    result = bottleneck(d1, d2)
    assert result.value == 5
    assert result.witness == PartialMatching(((0, 0),), (1,), (1,))
    assert len(matching_calls) > 1


def test_the_witness_is_the_matching_at_the_optimum_not_at_a_probe_above_it(matching_calls):
    # the floor is infeasible, and the bisection's probe at 652471 finds a
    # matching that costs exactly the optimum; the matching found at the
    # optimum itself pairs two points the other way, and it is the one the
    # dense search returns, so the search runs it again there
    dists = _kind_distances(
        [(61779, 624196), (61779, 821440), (61779, 821440), (183572, 714127), (537435, 671155)],
        [(204097, 935679), (334420, 686235), (642513, 649757)],
        3,
    )
    value, assignment = _kind_assignment(dists)
    assert (value, assignment) == sorted_candidate_search(dists)
    assert value == 562417 > _floor(dists)
    probes = list(matching_calls)
    assert 652471 in probes and probes[-1] == value
    at_probe = _threshold_matching(dists, 652471)
    assert _assignment_cost(dists, at_probe) == value
    assert at_probe == [None, 1, 0, None, 2] != assignment == [None, 0, 1, None, 2]
