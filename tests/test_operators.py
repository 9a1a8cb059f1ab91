import random
import warnings
from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reebmetrics import (
    Diagram,
    DiagramPoint,
    ExperimentConfig,
    MergeParams,
    ReebGraph,
    TransformParams,
    canonicalize,
    critical_values,
    cycle,
    extended_diagram,
    fd_lower,
    figure1_left,
    figure1_right,
    full_transform,
    graph_bottleneck,
    is_level_isomorphic,
    merge,
    merge_sequence,
    random_graph,
    run_experiment,
    segment,
    simplify,
    snap_diagram,
    y_graph,
)
from reebmetrics import operators
from reebmetrics.operators import (
    Move,
    _merge_bands,
    _near_bands,
    clear_features,
    move_certificate,
)
from reebmetrics.rationals import common_denominator, format_value, on_lattice
from value_reference import (
    DisjointSets,
    count_defect_searches,
    fraction_full_transform,
    fraction_merge_bands,
    fraction_merge_sequence,
    fraction_simplify,
    recovery_comb,
)


def point(kind, b, d):
    return DiagramPoint(kind, F(b), F(d))


def merge_bands(g, bands, prefix="m"):
    """`_merge_bands` on `Fraction` bands, lifted onto their own lattice."""
    scale = common_denominator(x for band in bands for x in band)
    lifted = [(on_lattice(lo, scale), on_lattice(hi, scale)) for lo, hi in bands]
    return _merge_bands(g, lifted, scale, prefix)


def near_bands(diagram, alpha):
    """`_near_bands`' int bands as `Fraction` pairs."""
    scale, bands = _near_bands(diagram, alpha)
    return [(F(lo, scale), F(hi, scale)) for lo, hi in bands]


# ---------------------------------------------------------------------------
# merge
# ---------------------------------------------------------------------------


def test_merge_needs_ordered_band():
    with pytest.raises(ValueError):
        MergeParams(2, 1)


def test_merge_y_snaps_branch_death():
    merged = merge(y_graph(), MergeParams(F("1.8"), F("2.6")))
    assert extended_diagram(merged) == Diagram(
        [point("Ext0", 0, 3), point("Ord0", 1, F("2.2"))]
    )


def test_merge_segment_interior_band_is_noop():
    s = segment()
    assert merge(s, MergeParams(1, 2)) == s


def test_merge_cycle_around_minimum():
    merged = merge(cycle(), MergeParams(F("-0.5"), F("0.5")))
    assert extended_diagram(merged) == Diagram(
        [point("Ext0", 0, 3), point("Ext1", 3, 0)]
    )


def test_merge_whole_graph_collapses_to_point():
    merged = merge(y_graph(), MergeParams(-1, 4))
    assert len(merged.vertex_ids) == 1
    assert merged.value(merged.vertex_ids[0]) == F("1.5")


def test_merge_degenerate_band():
    y = y_graph()
    assert merge(y, MergeParams(2, 2)) == y


def test_merge_idempotent_up_to_isomorphism():
    rng = random.Random(88)
    for _ in range(20):
        g = random_graph(rng, n_critical=rng.randint(4, 8))
        a = F(rng.randint(0, 8000), 1000)
        b = a + F(rng.randint(0, 4000), 1000)
        params = MergeParams(a, b)
        once = merge(g, params)
        twice = merge(once, params)
        assert is_level_isomorphic(once, twice)


def test_snapping_soundness_on_random_graphs():
    rng = random.Random(99)
    for _ in range(100):
        g = random_graph(rng, n_critical=rng.randint(4, 9))
        a = F(rng.randint(-1000, 11000), 1000)
        b = a + F(rng.randint(0, 12000), 1000)
        params = MergeParams(a, b)
        assert extended_diagram(merge(g, params)) == snap_diagram(
            extended_diagram(g), params
        )


# ---------------------------------------------------------------------------
# one-pass band merge against the per-band fold
# ---------------------------------------------------------------------------


def _reference_merge_raw(g, a, b, prefix):
    """One band contracted the per-band way: every edge meeting the band
    joins the component of its in-band ends, and one crossing the band with
    no end inside is a component of its own, with its own midpoint vertex."""
    mid = (a + b) / 2
    in_band = {v for v in g.vertex_ids if a <= g.value(v) <= b}
    overlapping = [
        idx for idx, (u, v) in enumerate(g.edges) if g.value(u) <= b and g.value(v) >= a
    ]
    sets = DisjointSets()
    for v in in_band:
        sets.add(("v", v))
    for idx in overlapping:
        sets.add(("e", idx))
        u, v = g.edges[idx]
        if u in in_band:
            sets.union(("e", idx), ("v", u))
        if v in in_band:
            sets.union(("e", idx), ("v", v))

    mid_of = {}
    taken = set(g.vertex_ids)
    counter = 0
    for root in sorted({sets.find(x) for x in sets.parent}, key=repr):
        members = [v for v in in_band if sets.find(("v", v)) == root]
        if len(members) == 1 and g.value(members[0]) == mid:
            mid_of[root] = members[0]
        else:
            while f"{prefix}{counter}" in taken:
                counter += 1
            mid_of[root] = f"{prefix}{counter}"
            taken.add(mid_of[root])

    vertices = [(v, g.value(v)) for v in g.vertex_ids if v not in in_band]
    vertices += [(mid_id, mid) for mid_id in mid_of.values()]
    edges = []
    for idx, (u, v) in enumerate(g.edges):
        if not (g.value(u) <= b and g.value(v) >= a):
            edges.append((u, v))
            continue
        mid_id = mid_of[sets.find(("e", idx))]
        if g.value(u) < a:
            edges.append((u, mid_id))
        if g.value(v) > b:
            edges.append((mid_id, v))
    return ReebGraph(vertices, edges, name=g.name)


def reference_merge_bands(g, bands, prefix="m"):
    """Merge the bands one at a time, canonicalizing after each."""
    for a, b in bands:
        g = canonicalize(_reference_merge_raw(g, a, b, prefix))
    return g


def reference_near_bands(diagram, alpha, seen=None):
    """The band closure scanning every survivor against every band, on
    `Fraction`s. `seen` counts the calls that widen a band ("widening call")
    and the band visits dragging two or more survivors ("two triggers")."""
    spans = sorted(
        (min(p.birth, p.death), max(p.birth, p.death))
        for p in diagram
        if p.kind != "Ext0" and p.persistence <= alpha
    )
    if not spans:
        return []

    def overlap_merge(bands):
        bands = sorted(bands)
        out = []
        for lo, hi in bands:
            if out and lo <= out[-1][1]:
                out[-1][1] = max(out[-1][1], hi)
            else:
                out.append([lo, hi])
        return out

    bands = overlap_merge([[lo, hi] for lo, hi in spans])
    others = [
        (min(p.birth, p.death), max(p.birth, p.death))
        for p in diagram
        if p.kind != "Ext0" and p.persistence > alpha
    ]
    widened = False
    changed = True
    while changed:
        changed = False
        for band in bands:
            lo, hi = band
            mid = (lo + hi) / 2
            triggers = 0
            for a, b in others:
                inside_a, inside_b = lo <= a <= hi, lo <= b <= hi
                if inside_a == inside_b:
                    continue
                survivor = b if inside_a else a
                if abs(mid - survivor) <= alpha:
                    band[0] = min(lo, a)
                    band[1] = max(hi, b)
                    changed = True
                    triggers += 1
            if seen is not None and triggers >= 2:
                seen["two triggers"] += 1
        widened |= changed
        if changed:
            bands = overlap_merge(bands)
    if seen is not None and widened:
        seen["widening call"] += 1
    return [(lo, hi) for lo, hi in bands]


def reference_clear_features(g, alpha):
    """`clear_features` with one merge and one canonicalize per band."""
    work, moves = g, []
    for step in range(len(extended_diagram(g)) + 2):
        bands = reference_near_bands(extended_diagram(work), alpha)
        if not bands:
            return work, tuple(moves)
        for lo, hi in bands:
            work = reference_merge_bands(work, [(lo, hi)], prefix=f"s{step}_")
            moves.append(Move("band-merge", (lo, hi), hi - lo, step))
    raise AssertionError("simplification failed to terminate")


def reference_move_certificate(moves):
    """The clamp-chain bound: the least of the summed band widths and the
    exact displacement of each band midpoint through the later bands plus
    the hull of the bands it visits, with stretch costs added. It ignores
    passes, so it reads a pass of disjoint bands as a chain."""
    if not moves:
        return F(0)
    stretch_cost = sum((m.cost for m in moves if m.kind == "stretch"), F(0))
    bands = [m.band for m in moves if m.kind != "stretch"]
    if not bands:
        return stretch_cost
    total = sum(b - a for a, b in bands)
    displacement = F(0)
    path_term = F(0)
    for i, (lo_i, hi_i) in enumerate(bands):
        position = (lo_i + hi_i) / 2
        hull_lo, hull_hi = lo_i, hi_i
        for lo_j, hi_j in bands[i + 1 :]:
            if lo_j <= position <= hi_j:
                position = (lo_j + hi_j) / 2
                hull_lo = min(hull_lo, lo_j)
                hull_hi = max(hull_hi, hi_j)
        displacement = max(displacement, position - lo_i, hi_i - position)
        path_term = max(path_term, hull_hi - hull_lo)
    return min(total, displacement + path_term) + stretch_cost


def passes(moves):
    return len({m.step for m in moves if m.kind == "band-merge"})


def warned(fn, *args):
    """`fn(*args)` and the messages of the warnings it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = fn(*args)
    return result, [str(w.message) for w in caught]


def comb_graph(rng, teeth):
    """Trunk t0 < ... < t(n+1) at multiples of 4, with a tooth of depth 1/4
    to 3 hanging down from or standing up on each inner trunk vertex."""
    vertices, edges = [("t0", F(0))], []
    for i in range(1, teeth + 2):
        vertices.append((f"t{i}", F(4 * i)))
        edges.append((f"t{i - 1}", f"t{i}"))
        if i <= teeth:
            depth = F(rng.randint(1, 12), 4)
            tip = 4 * i + depth if rng.random() < 0.5 else 4 * i - depth
            vertices.append((f"x{i}", tip))
            edges.append((f"t{i}", f"x{i}"))
    return canonicalize(ReebGraph(vertices, edges))


def ladder_graph(rng, rungs):
    """Rails a0 < a1 < ... and b0 < b1 < ..., joined by the rungs (ai, bi)."""
    vertices, edges = [], []
    for i in range(rungs + 1):
        vertices += [(f"a{i}", F(4 * i)), (f"b{i}", 4 * i + F(rng.randint(1, 12), 4))]
        edges.append((f"a{i}", f"b{i}"))
        if i:
            edges += [(f"a{i - 1}", f"a{i}"), (f"b{i - 1}", f"b{i}")]
    return canonicalize(ReebGraph(vertices, edges))


def family_graph(rng):
    kind = rng.randrange(3)
    if kind == 0:
        return random_graph(rng, n_critical=rng.randint(4, 9))
    if kind == 1:
        return comb_graph(rng, rng.randint(1, 8))
    return ladder_graph(rng, rng.randint(1, 5))


TOUCH = F(1, 10**9)  # the gap between two almost touching bands


def random_bands(rng, g):
    """Sorted, pairwise-disjoint bands over g's value range and a little
    beyond: arbitrary and degenerate bands, bands centred on a vertex value,
    and bands almost touching the one below."""
    values = sorted({g.value(v) for v in g.vertex_ids})
    cursor, end = values[0] - 1, values[-1] + 1
    bands = []
    while True:
        r = rng.random()
        if r < 0.3:
            later = [x for x in values if x > cursor]
            if not later:
                break
            c = rng.choice(later[:3])
            half = min(F(rng.randint(1, 400), 1000), (c - cursor) / 2)
            a, b = c - half, c + half
        else:
            a = cursor + (TOUCH if rng.random() < 0.25 else F(rng.randint(1, 3000), 1000))
            b = a if r < 0.4 else a + F(rng.randint(0, 6000), 1000)
        if b > end:
            break
        bands.append((a, b))
        cursor = b
    return bands


def band_features(g, bands):
    """The cases of the one-pass merge that (g, bands) exercises."""
    features = set()
    for i, (a, b) in enumerate(bands):
        inside = [v for v in g.vertex_ids if a <= g.value(v) <= b]
        inner = [(u, v) for u, v in g.edges if a <= g.value(u) and g.value(v) <= b]
        sets = DisjointSets()
        for v in inside:
            sets.add(v)
        for u, v in inner:
            sets.union(u, v)
        sizes = Counter(sets.find(v) for v in inside)
        if not inside:
            features.add("empty band")
        if len(sizes) > 1:
            features.add("several components")
        if len(inner) > len(inside) - len(sizes):
            features.add("loop inside a band")
        if any(n == 1 and g.value(v) == (a + b) / 2 for v, n in sizes.items()):
            features.add("lone vertex at the midpoint")
        if i and a - bands[i - 1][1] <= TOUCH:
            features.add("almost touching")
    for u, v in g.edges:
        if sum(g.value(u) < a and b < g.value(v) for a, b in bands) >= 2:
            features.add("edge crossing several bands")
    return features


def assert_merge_matches_fold(g, bands):
    fast = merge_bands(g, bands)
    ref = reference_merge_bands(g, bands)
    assert is_level_isomorphic(fast, ref)
    assert extended_diagram(fast) == extended_diagram(ref)
    for vid in g.vertex_ids:
        if not any(a <= g.value(vid) <= b for a, b in bands):
            assert fast.value(vid) == ref.value(vid) == g.value(vid)
    # the same input ids survive: a lone vertex at its midpoint keeps its id
    kept = set(g.vertex_ids)
    assert kept & set(fast.vertex_ids) == kept & set(ref.vertex_ids)
    return fast


def test_merge_bands_matches_per_band_fold():
    rng = random.Random(5150)
    seen = Counter()
    for _ in range(300):
        g = family_graph(rng)
        bands = random_bands(rng, g)
        seen.update(band_features(g, bands))
        assert_merge_matches_fold(g, bands)
    assert len(seen) == 6 and min(seen.values()) >= 10, seen


def test_merge_bands_matches_per_band_fold_on_lattice_edges():
    # every graph's values are dyadic (combs, ladders) or hundredths (random)
    rng = random.Random(5155)
    seen = Counter()
    for _ in range(100):
        g = family_graph(rng)
        values = sorted({g.value(v) for v in g.vertex_ids})
        lo, hi = values[0], values[-1]

        # ends in thirds and sevenths, coprime to the values' denominators
        den = rng.choice((3, 7, 21))
        cuts = sorted(
            {F(rng.randint(int(lo * den) - den, int(hi * den) + den), den) for _ in range(8)}
        )
        cuts = [c for c in cuts if c.denominator != 1]
        off_lattice = list(zip(cuts[::2], cuts[1::2]))

        # both closed ends on vertex values, and degenerate bands [v, v]
        picks = sorted(rng.sample(values, min(len(values), rng.randint(1, 6))))
        on_values = list(zip(picks[::2], picks[1::2])) or [(picks[0], picks[0])]
        if rng.random() < 0.5:
            on_values = [(v, v) for v in picks]

        # a band of ends in thirds around a lone vertex at its midpoint
        around = []
        for i in range(rng.randrange(2), len(values), 2):
            gaps = [values[j] - values[i] for j in (i - 1, i + 1) if 0 <= j < len(values)]
            half = min(abs(gap) for gap in gaps) / 3
            around.append((values[i] - half, values[i] + half))

        for case, bands in (
            ("ends off the values' lattice", off_lattice),
            ("ends on vertex values", on_values),
            ("lone vertices at midpoints", around),
        ):
            if not bands:
                continue
            seen[case] += 1
            seen.update(band_features(g, bands))
            fast = assert_merge_matches_fold(g, bands)
            if case == "lone vertices at midpoints":
                assert fast == g  # every vertex keeps its id and value
    cases = ("ends off the values' lattice", "ends on vertex values", "lone vertices at midpoints")
    assert min(seen[case] for case in cases) >= 50, seen
    assert seen["lone vertex at the midpoint"] >= 100, seen


def test_merge_sequence_matches_per_band_fold():
    rng = random.Random(6160)
    overlaps = 0
    for _ in range(80):
        g = family_graph(rng)
        values = sorted({g.value(v) for v in g.vertex_ids})
        anchors = sorted(set(rng.sample(values, rng.randint(1, len(values)))))
        halfwidth = F(rng.randint(1, 1500), 1000)
        result, messages = warned(merge_sequence, g, anchors, halfwidth)
        ref = reference_merge_bands(g, [(c - halfwidth, c + halfwidth) for c in anchors])
        assert is_level_isomorphic(result.graph, ref)
        # 2*halfwidth per pass: one pass for disjoint bands, else one per anchor
        assert len(messages) <= 1
        n_passes = len(anchors) if messages else 1
        assert result.certificate == 2 * halfwidth * n_passes
        overlaps += len(messages)
    assert 0 < overlaps < 80
    assert merge_sequence(g, [], F(1)).certificate == 0


def test_clear_features_matches_per_band_fold():
    rng = random.Random(7170)
    moves = 0
    runs = Counter()
    for _ in range(120):
        g = family_graph(rng)
        alpha = g.span() / 3 * F(rng.randint(1, 100), 100)
        fast, (ref_graph, ref_moves) = clear_features(g, alpha), reference_clear_features(g, alpha)
        assert fast.moves == ref_moves
        assert is_level_isomorphic(fast.graph, ref_graph)
        assert fast.certificate == move_certificate(ref_moves)
        moves += len(fast.moves)
        runs[passes(fast.moves)] += 1
        if passes(fast.moves) == 1:
            assert fast.certificate <= reference_move_certificate(fast.moves)
    assert moves > 100
    assert runs[1] > 50, runs


# non-dyadic alphas put alpha's own denominator into the lattice's lcm
NEAR_ALPHAS = (F(1, 3), F(5, 7), F(7, 3), F(3), F(4), F(5), F(17, 3))


def test_near_bands_matches_the_fraction_scan():
    rng = random.Random(8180)
    seen = Counter()
    for _ in range(1200):
        d = extended_diagram(random_graph(rng, n_critical=rng.randint(4, 9)))
        for alpha in NEAR_ALPHAS:
            assert near_bands(d, alpha) == reference_near_bands(d, alpha, seen)
    assert seen["widening call"] >= 100 and seen["two triggers"] >= 1, seen


def test_near_bands_last_trigger_sets_both_ends():
    # the band [0, 1] of the near point drags both survivors: (-1/2, 3/4) by
    # its low end and (1/4, 3/2) by its high end. The later one in diagram
    # order sets the band from the band as the visit found it, and the
    # widened band drags neither survivor again.
    d = Diagram(
        [
            point("Ext0", -1, 3),
            point("Ord0", 0, 1),
            point("Ord0", F(-1, 2), F(3, 4)),
            point("Ord0", F(1, 4), F(3, 2)),
        ]
    )
    assert near_bands(d, F(1)) == reference_near_bands(d, F(1)) == [(0, F(3, 2))]
    # as Rel1 points the survivors swap places in diagram order
    d = Diagram(
        [
            point("Ext0", -1, 3),
            point("Ord0", 0, 1),
            point("Ord0", F(1, 4), F(3, 2)),
            point("Rel1", F(3, 4), F(-1, 2)),
        ]
    )
    assert near_bands(d, F(1)) == reference_near_bands(d, F(1)) == [(F(-1, 2), 1)]


def test_near_bands_and_simplify_on_a_1000_tooth_comb():
    g = comb_graph(random.Random(1001), 1000)
    d = extended_diagram(g)
    teeth = [p for p in d if p.kind != "Ext0"]
    assert len(teeth) == 1000
    # tooth depths are k/4 for k in 1..12, so these alphas clear a third,
    # two thirds and all of the teeth
    for alpha, share in ((F(1), F(1, 3)), (F(2), F(2, 3)), (F(3), F(1))):
        near = sum(p.persistence <= alpha for p in teeth)
        assert abs(F(near, 1000) - share) < F(1, 20)
        _, ints = _near_bands(d, alpha)
        assert near_bands(d, alpha) == reference_near_bands(d, alpha)
        assert all(type(x) is int for band in ints for x in band)
        result = simplify(g, alpha)
        assert all(p.diagonal_distance > alpha / 2 for p in extended_diagram(result.graph))
        assert result.certificate <= 2 * alpha


@given(st.integers(0, 2**32), st.integers(0, 2**32))
@settings(max_examples=150, deadline=None)
def test_merge_bands_snaps_the_diagram(graph_seed, band_seed):
    g = family_graph(random.Random(graph_seed))
    bands = random_bands(random.Random(band_seed), g)
    want = extended_diagram(g)
    for a, b in bands:
        want = snap_diagram(want, MergeParams(a, b))
    assert extended_diagram(merge_bands(g, bands)) == want


# ---------------------------------------------------------------------------
# snap_diagram
# ---------------------------------------------------------------------------


def test_snap_single_coordinate():
    d = Diagram([point("Ord0", 1, 2)])
    assert snap_diagram(d, MergeParams(F("1.8"), F("2.6"))) == Diagram(
        [point("Ord0", 1, F("2.2"))]
    )


def test_snap_flattened_branch_is_removed():
    d = Diagram([point("Ord0", 1, 2)])
    assert snap_diagram(d, MergeParams(F("0.5"), F("2.5"))) == Diagram()


def test_snap_empty():
    assert snap_diagram(Diagram(), MergeParams(0, 1)) == Diagram()


def test_snap_keeps_flat_trunk():
    d = Diagram([point("Ext0", 0, 3), point("Ext1", 3, 0)])
    snapped = snap_diagram(d, MergeParams(-1, 4))
    assert snapped == Diagram([point("Ext0", F("1.5"), F("1.5"))])


# ---------------------------------------------------------------------------
# simplify
# ---------------------------------------------------------------------------


def test_simplify_y_removes_short_branch():
    result = simplify(y_graph(), F("1.5"))
    assert is_level_isomorphic(result.graph, segment())
    assert result.certificate <= 3


def test_simplify_y_below_feature_scale_is_identity():
    result = simplify(y_graph(), F("0.5"))
    assert result.graph == y_graph()
    assert result.certificate == 0
    assert result.moves == ()


def test_simplify_segment_identity():
    result = simplify(segment(), 2)
    assert result.graph == segment()


def test_simplify_rejects_nonpositive_alpha():
    with pytest.raises(ValueError):
        simplify(y_graph(), 0)


def test_simplify_checks_its_input_once(monkeypatch):
    # extended_diagram checks the input graph; simplify adds no second check
    runs = count_defect_searches(monkeypatch)
    g = y_graph()
    simplify(g, F(1, 2))
    assert [run is g for run in runs] == [True]


def test_simplify_tiny_trunk_stretches():
    g = segment(0, F("0.5"))
    result = simplify(g, 1)
    d = extended_diagram(result.graph)
    assert all(p.diagonal_distance > F(1, 2) for p in d)
    assert result.moves[-1].kind == "stretch"


def test_simplify_results_carry_their_moves_certificate():
    # `clear_features` costs its own moves and `simplify` costs them again
    # only when it appends a stretch; random graphs at random scales, a
    # short segment and a point, the last two stretched
    rng = random.Random(6190)
    stretched = 0
    cases = [(segment(0, F(1, 2)), F(1)), (ReebGraph([("pt", F(1))]), F(1))]
    for _ in range(60):
        g = family_graph(rng)
        cases.append((g, g.span() * F(rng.randint(1, 120), 100)))
    for g, alpha in cases:
        cleared, result = clear_features(g, alpha), simplify(g, alpha)
        assert cleared.certificate == move_certificate(cleared.moves)
        assert result.certificate == move_certificate(result.moves)
        if result.moves[-1:] and result.moves[-1].kind == "stretch":
            stretched += 1
            assert result.moves[:-1] == cleared.moves
            assert result.certificate == cleared.certificate + result.moves[-1].cost
        else:
            assert result == cleared
    assert stretched >= 10, stretched


def test_simplify_contract_on_random_instances():
    rng = random.Random(17)
    runs = Counter()
    for _ in range(100):
        g = random_graph(rng, n_critical=rng.randint(4, 9))
        alpha = g.span() / 3 * F(rng.randint(1, 100), 100)
        result = simplify(g, alpha)
        out = extended_diagram(result.graph)
        assert all(p.diagonal_distance > alpha / 2 for p in out)
        assert graph_bottleneck(g, result.graph) <= 4 * alpha
        assert result.certificate <= 2 * alpha
        runs[passes(result.moves)] += 1
        if passes(result.moves) == 1:
            assert result.certificate <= reference_move_certificate(result.moves)
    assert runs[1] > 50, runs


@given(st.integers(0, 2**32), st.integers(1, 100))
@settings(max_examples=100, deadline=None)
def test_simplify_certificate_between_lower_bound_and_contract(seed, percent):
    rng = random.Random(seed)
    g = random_graph(rng, n_critical=rng.randint(4, 9))
    alpha = g.span() / 3 * F(percent, 100)
    result = simplify(g, alpha)
    assert fd_lower(g, result.graph) <= result.certificate <= 2 * alpha


@pytest.mark.parametrize(
    "seed, trial, certificate",
    [(60570, 50, F("2.12")), (810916, 19, F("1.96"))],
)
def test_simplify_contract_seeds_costed_per_pass(seed, trial, certificate):
    # one pass of disjoint bands, once costed as a chain above 2 alpha
    report = run_experiment("simplify-contract", ExperimentConfig(seed=seed, trials=trial + 1))
    record = report.records[trial]
    assert record.passed, record.values
    assert F(record.values["certificate"]) == certificate
    assert certificate <= 2 * F(record.values["alpha"])


# ---------------------------------------------------------------------------
# full transform
# ---------------------------------------------------------------------------


def test_full_transform_recovers_perturbed_y():
    y = y_graph()
    perturbed = y.with_values({"b": F("1.05"), "c": F("1.95")})
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        result = full_transform(perturbed, TransformParams(F("0.1"), critical_values(y)))
    assert is_level_isomorphic(result.graph, y)


def test_full_transform_fixed_point_on_y():
    y = y_graph()
    result = full_transform(y, TransformParams(F(1, 100), critical_values(y)))
    assert is_level_isomorphic(result.graph, y)


def test_full_transform_figure1_right_with_left_anchors():
    left, right = figure1_left(), figure1_right()
    result = full_transform(right, TransformParams(F(1, 100), critical_values(left)))
    assert extended_diagram(result.graph) == extended_diagram(left)
    assert not is_level_isomorphic(result.graph, left)


def test_full_transform_critical_values_land_on_anchors():
    y = y_graph()
    perturbed = y.with_values({"b": F("1.01"), "c": F("1.99")})
    result = full_transform(perturbed, TransformParams(F(1, 50), critical_values(y)))
    anchors = set(critical_values(y))
    assert set(critical_values(result.graph)) <= anchors


def test_full_transform_certificate_budget():
    # certificate <= 4*alpha (simplify at 2*alpha) + 18*alpha (disjoint merges)
    y = y_graph()
    perturbed = y.with_values({"b": F("1.01"), "c": F("1.99")})
    alpha = F(1, 50)
    result, messages = warned(full_transform, perturbed, TransformParams(alpha, critical_values(y)))
    assert messages == []
    assert result.certificate <= 22 * alpha


def test_full_transform_certificate_adds_its_two_stages():
    # the transform's certificate is its simplification's plus its anchor
    # merges', whether the 9 * alpha bands are disjoint or overlap
    rng = random.Random(6200)
    seen = Counter()
    for _ in range(40):
        g = family_graph(rng)
        alpha = F(rng.randint(1, 60), 1000)
        params = TransformParams(alpha, critical_values(g))
        result, messages = warned(full_transform, g, params)
        simplified = simplify(g, 2 * alpha)
        merged, _ = warned(merge_sequence, simplified.graph, params.anchors, 9 * alpha)
        assert result.graph == merged.graph
        assert result.certificate == simplified.certificate + merged.certificate
        seen["overlap" if messages else "disjoint"] += 1
    assert min(seen["overlap"], seen["disjoint"]) >= 5, seen


def test_full_transform_recovers_jittered_1000_tooth_comb():
    # 2002 vertices, at the default recursion limit: a trunk with one
    # downward tooth per slot of height 4, values on a 1/256 grid, jitter of
    # at most alpha = 1/32, so the 18 alpha anchor bands fit in every gap
    rng = random.Random(1000)
    vertices, edges, prev = [("b", F(0))], [], "b"
    for i in range(1, 1001):
        fork = 4 * i + F(7, 2)
        vertices += [(f"f{i}", fork), (f"t{i}", fork - F(rng.randint(64, 192), 64))]
        edges += [(prev, f"f{i}"), (f"f{i}", f"t{i}")]
        prev = f"f{i}"
    vertices.append(("top", 4 * 1001 + F(1, 2)))
    edges.append((prev, "top"))
    source = ReebGraph(vertices, edges)
    assert len(source.vertex_ids) == 2002
    noisy = source.with_values({v: x + F(rng.randint(-8, 8), 256) for v, x in vertices})
    params = TransformParams(F(1, 32), critical_values(source))
    result, messages = warned(full_transform, noisy, params)
    assert messages == []
    assert is_level_isomorphic(result.graph, source)


def test_merge_sequence_overlap_warns():
    y = y_graph()
    with pytest.warns(UserWarning) as caught:
        merge_sequence(y, critical_values(y), F("0.9"))
    assert [str(w.message) for w in caught] == [
        "anchor bands overlap (twice the half-width, 1.8, is at least the least"
        " anchor gap, 1); merging sequentially from the lowest anchor"
    ]


def test_overlap_warning_names_the_callers_line():
    # through `full_transform` the warning once named the library's own call
    # of `merge_sequence`
    y = y_graph()
    anchors = critical_values(y)
    for fn, args in (
        (merge_sequence, (y, anchors, F("0.9"))),
        (full_transform, (y, TransformParams(F("0.1"), anchors))),
    ):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            fn(*args)
        assert [w.filename for w in caught] == [__file__], fn.__name__


def test_merge_sequence_warns_exactly_when_a_gap_is_at_most_the_width():
    # the warning is the only report of overlapping bands: it is raised once
    # when some gap between sorted anchors is at most twice the half-width,
    # never otherwise, and it names both numbers
    rng = random.Random(6180)
    seen = Counter()
    for _ in range(200):
        g = family_graph(rng)
        values = sorted({g.value(v) for v in g.vertex_ids})
        anchors = rng.sample(values, rng.randint(1, len(values)))
        gaps = [b - a for a, b in zip(sorted(anchors), sorted(anchors)[1:])]
        halfwidth = rng.choice([F(rng.randint(0, 1500), 1000), *(gap / 2 for gap in gaps[:2])])
        _, messages = warned(merge_sequence, g, anchors, halfwidth)
        overlap = any(gap <= 2 * halfwidth for gap in gaps)
        assert len(messages) == overlap
        if overlap:
            seen["at the width" if min(gaps) == 2 * halfwidth else "overlap"] += 1
            assert messages[0].startswith("anchor bands overlap")
            assert f"half-width, {format_value(2 * halfwidth)}," in messages[0]
            assert f"anchor gap, {format_value(min(gaps))})" in messages[0]
        else:
            seen["disjoint"] += 1
    assert min(seen[case] for case in ("at the width", "overlap", "disjoint")) >= 20, seen


def test_merge_sequence_rejects_negative_halfwidth():
    y = y_graph()
    for anchors in (critical_values(y), []):
        with pytest.raises(ValueError, match="half-width"):
            merge_sequence(y, anchors, F("-0.1"))


def test_merge_sequence_reads_every_anchor_form_alike():
    # a CriticalValues, its sorted and reversed lists and a tuple give the
    # same graph, certificate and warning, for disjoint (1/8) and
    # overlapping (9/10) bands
    rng = random.Random(6170)
    for g in [y_graph(), figure1_left()] + [family_graph(rng) for _ in range(6)]:
        anchors = critical_values(g)
        for halfwidth in (F(1, 8), F(9, 10)):
            forms = (anchors, list(anchors), list(reversed(anchors.values)), tuple(anchors))
            results = [warned(merge_sequence, g, form, halfwidth) for form in forms]
            first, first_messages = results[0]
            gaps = [b - a for a, b in zip(anchors, anchors.values[1:])]
            assert len(first_messages) == any(gap <= 2 * halfwidth for gap in gaps)
            for other, messages in results[1:]:
                assert other.graph == first.graph
                assert (other.certificate, messages) == (first.certificate, first_messages)



def test_merge_sequence_reads_a_repeated_anchor_as_one_band():
    # two copies of one anchor once read as a gap of 0: an overlap warning
    # and two passes over one band, certified at 1/2
    result, messages = warned(merge_sequence, y_graph(), [1, 1], F(1, 8))
    assert messages == []
    assert result.certificate == F(1, 4)
    assert result.graph == merge_sequence(y_graph(), [1], F(1, 8)).graph


# ---------------------------------------------------------------------------
# the int lattice against the `Fraction` merges, exactly
# ---------------------------------------------------------------------------


def assert_identical(got, want):
    """Equal graphs, with the same vertex order and values, edge order and name."""
    assert got == want
    assert got.vertices() == want.vertices()
    assert got.edges == want.edges
    assert got.name == want.name


def assert_same_transform(got, want):
    (got, got_messages), (want, want_messages) = got, want
    assert_identical(got.graph, want.graph)
    assert got.certificate == want.certificate
    assert got_messages == want_messages


OFF_LATTICE = (3, 7, 21)  # denominators coprime to every value's


def test_lattice_merges_match_the_fraction_merges_exactly():
    rng = random.Random(3737)
    seen = Counter()
    for _ in range(150):
        g = family_graph(rng)
        values = sorted({g.value(v) for v in g.vertex_ids})

        # merge: a band with ends on the values' lattice or in thirds and sevenths
        den = rng.choice((100, *OFF_LATTICE))
        a = F(rng.randint(int(values[0] * den) - den, int(values[-1] * den)), den)
        b = a + F(rng.randint(0, 3 * den), den)
        assert_identical(merge(g, MergeParams(a, b)), fraction_merge_bands(g, [(a, b)]))

        # merge_sequence: anchors in any order, bands disjoint, a gap equal
        # to the width, overlapping, and half-widths off the values' lattice
        anchors = rng.sample(values, rng.randint(1, len(values)))
        ordered = sorted(anchors)
        least = min((y - x for x, y in zip(ordered, ordered[1:])), default=F(1))
        cases = {
            "disjoint": least / 3,
            "gap equal to the width": least / 2,
            "overlapping": least * F(3, 4),
            "off the lattice": F(rng.randint(1, 40), rng.choice(OFF_LATTICE)),
        }
        for case, halfwidth in cases.items():
            got = warned(merge_sequence, g, anchors, halfwidth)
            want = warned(fraction_merge_sequence, g, anchors, halfwidth)
            assert_same_transform(got, want)
            seen[case] += 1
            seen["warned"] += bool(got[1])

        # simplify and full_transform at dyadic and off-lattice alphas
        for alpha in (
            g.span() / 3 * F(rng.randint(1, 100), 100),
            F(rng.randint(1, 60), rng.choice(OFF_LATTICE) * 10),
        ):
            got, want = simplify(g, alpha), fraction_simplify(g, alpha)
            assert_identical(got.graph, want.graph)
            assert (got.certificate, got.moves) == (want.certificate, want.moves)
            seen["simplify moved"] += bool(got.moves)
            params = TransformParams(alpha / 9, critical_values(g))
            got = warned(full_transform, g, params)
            want = warned(fraction_full_transform, g, params)
            assert_same_transform(got, want)
    assert min(seen.values()) >= 50, seen


def test_lattice_transform_matches_the_fraction_merges_on_the_recovery_comb():
    # the benchmark's jittered 602-vertex comb, its anchors at every base
    # value, at the recovery alpha, and simplified at an alpha that clears
    # about half of its teeth
    source, noisy, anchors = recovery_comb(300)
    params = TransformParams(F(1, 32), anchors)
    got = warned(full_transform, noisy, params)
    assert_same_transform(got, warned(fraction_full_transform, noisy, params))
    assert got[1] == [] and is_level_isomorphic(got[0].graph, source)
    halfwidth = 9 * params.alpha
    got = warned(merge_sequence, noisy, anchors, halfwidth)
    assert_same_transform(got, warned(fraction_merge_sequence, noisy, anchors, halfwidth))
    got, want = simplify(noisy, 2), fraction_simplify(noisy, 2)
    assert_identical(got.graph, want.graph)
    assert (got.certificate, got.moves) == (want.certificate, want.moves)
    assert 100 < len(got.moves) < 200


def count_builds(monkeypatch) -> tuple[list[ReebGraph], list[Move]]:
    """Record every `ReebGraph` built and every `Move` the operators build."""
    built: list[ReebGraph] = []
    moves: list[Move] = []
    init = ReebGraph.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    def counting_move(*args, **kwargs):
        moves.append(Move(*args, **kwargs))
        return moves[-1]

    monkeypatch.setattr(ReebGraph, "__init__", counting_init)
    monkeypatch.setattr(operators, "Move", counting_move)
    return built, moves


def test_full_transform_builds_one_graph_and_no_move_for_its_anchors(monkeypatch):
    # the simplification at 2 alpha finds no near feature and builds
    # nothing, so every build is the anchor stage's: one merge of 602 bands
    _, noisy, anchors = recovery_comb(300)
    params = TransformParams(F(1, 32), anchors)
    built, moves = count_builds(monkeypatch)
    simplify(noisy, 2 * params.alpha)
    assert (built, moves) == ([], [])
    full_transform(noisy, params)
    assert len(built) <= 1 and moves == []
