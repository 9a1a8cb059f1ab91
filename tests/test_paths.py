import importlib
import random
from fractions import Fraction as F

import pytest

from reebmetrics import (
    InvalidGraphError,
    ReebGraph,
    contraction_path,
    cycle,
    figure1_left,
    figure1_right,
    figure5,
    graph_bottleneck,
    intrinsic_upper,
    join_via_contractions,
    linear_path,
    path_length,
    random_graph,
    segment,
    structure_isomorphisms,
    validate,
    y_graph,
)
from reebmetrics.distortion import (
    FDBoundCertificate,
    best_structure_shift,
    certify_fd_upper,
    projection_correspondence,
)
from reebmetrics.paths import GraphPath, _intrinsic_bound


def reference_bottleneck_lengths(p: GraphPath) -> tuple[F, ...]:
    """Each segment's bottleneck distance, recomputed from its two graphs.

    `path_length(p, "bottleneck")` reads these from the certificates'
    lower bounds instead.
    """
    return tuple(graph_bottleneck(a, b) for a, b in zip(p.graphs, p.graphs[1:]))


def direct_path(g1: ReebGraph, g2: ReebGraph, n: int) -> GraphPath:
    """Linear value interpolation along the first structure isomorphism."""
    sigma = structure_isomorphisms(g1, g2, limit=1)[0]
    return linear_path(g1, {v: g2.value(sigma[v]) for v in g1.vertex_ids}, n)


def assert_two_sided(p: GraphPath) -> None:
    """Every recomputed segment d_B, and their total, is at most twice the
    certified upper bound."""
    db = reference_bottleneck_lengths(p)
    uppers = [c.upper for c in p.certificates]
    assert all(b <= 2 * u for b, u in zip(db, uppers))
    assert sum(db) <= 2 * sum(uppers)


def point() -> ReebGraph:
    """The terminal point of every contraction at value 0."""
    return ReebGraph([("pt", 0)])


def test_contraction_of_the_terminal_point_is_one_constant_step():
    p = contraction_path(point())
    assert p.graphs == (point(), point())
    assert p.certificates == (FDBoundCertificate(F(0), F(0)),)
    assert path_length(p, "bottleneck").total == 0
    assert path_length(p, "fd_upper").total == 0


def test_linear_path_steps_and_certificates():
    y = y_graph()
    p = linear_path(y, {"b": F("1.05"), "c": F("1.95")}, 5)
    assert len(p.steps) == 6
    assert all(c.upper == F(1, 100) for c in p.certificates)
    assert p.steps[0][1] == y
    assert p.steps[-1][1].value("b") == F("1.05")


def test_linear_path_segment_growth():
    s = segment(0, 3)
    p = linear_path(s, {"top": 5}, 2)
    values = [g.value("top") for _, g in p.steps]
    assert values == [F(3), F(4), F(5)]


def test_linear_path_rejects_orientation_flip():
    s = segment(0, 3)
    with pytest.raises(InvalidGraphError):
        linear_path(s, {"top": -1, "bot": 2}, 4)


def test_linear_path_checks_grid_steps_only():
    # top and bot cross at value 1 when s = 1/2: a grid step of n=4, not of n=3
    s = segment(0, 3)
    target = {"top": -1, "bot": 2}
    p = linear_path(s, target, 3)
    assert [c.upper for c in p.certificates] == [F(4, 3)] * 3
    with pytest.raises(InvalidGraphError) as err:
        linear_path(s, target, 4)
    assert str(err.value) == (
        "interpolation step 2/4 breaks monotonicity: edge joins two vertices at value 1"
    )


def test_linear_path_reports_level_collision():
    s = segment(0, 2)
    with pytest.raises(InvalidGraphError) as err:
        linear_path(s, {"top": 0, "bot": 2}, 2)
    assert "step" in str(err.value)


def test_linear_path_rejects_an_invalid_start_before_building_a_step(monkeypatch):
    # a start with pass-through vertices or several components once got
    # all n + 1 steps built (51 at n = 50) before its first certificate
    # rejected it; a start with a level edge still fails at step 0
    built = []
    with_values = ReebGraph.with_values

    def counted(self, values):
        built.append(self)
        return with_values(self, values)

    monkeypatch.setattr(ReebGraph, "with_values", counted)
    vertices = [("a", 0), ("b", 1), ("c", 2)]
    through = ReebGraph(vertices, [("a", "b"), ("b", "c")])
    apart = ReebGraph([*vertices, ("d", 3)], [("a", "b"), ("c", "d")])
    for g in (through, apart):
        with pytest.raises(InvalidGraphError) as err:
            linear_path(g, {"c": 5}, 50)
        assert str(err.value) == str(validate(g))
    assert built == []
    level = ReebGraph([*vertices, ("d", 1)], [("a", "b"), ("b", "d"), ("b", "c")])
    with pytest.raises(InvalidGraphError) as err:
        linear_path(level, {"c": 5}, 50)
    assert str(err.value) == (
        "interpolation step 0/50 breaks monotonicity: edge joins two vertices at value 1"
    )
    assert built == []


def test_an_interpolation_builds_one_graph_a_step(monkeypatch):
    # step 0 is the start itself, whose level edges are already known: n
    # steps build n graphs
    built = []
    with_values = ReebGraph.with_values

    def counted(self, values):
        built.append(self)
        return with_values(self, values)

    monkeypatch.setattr(ReebGraph, "with_values", counted)
    p = linear_path(y_graph(), {"b": "1.25"}, 4)
    assert len(p.certificates) == len(built) == 4
    built.clear()
    p = contraction_path(segment(), 4)
    assert len(built) == 4  # the four shrink steps; the collapse builds a point
    assert len(p.certificates) == 5


def test_path_length_needs_metric():
    p = contraction_path(point())
    with pytest.raises(ValueError):
        path_length(p, "hausdorff")
    with pytest.raises(ValueError):
        path_length(p, "fd")  # the metric is named fd_upper


def test_graph_path_validation():
    s = segment()
    with pytest.raises(ValueError):
        GraphPath(((F(0), s),), ())  # endpoint times missing
    with pytest.raises(ValueError):
        GraphPath(((F(0), s), (F(1), s)), ())  # certificate count mismatch


# ---------------------------------------------------------------------------
# contraction paths
# ---------------------------------------------------------------------------


def test_contraction_path_segment_goes_straight_to_shrink():
    p = contraction_path(segment(), 4)
    assert len(p.steps) == 6  # 4 shrink steps + terminal collapse
    final = p.steps[-1][1]
    assert len(final.vertex_ids) == 1
    assert final.value(final.vertex_ids[0]) == F(3, 2)


def test_contraction_path_y_prunes_then_shrinks():
    p = contraction_path(y_graph(), 2)
    stage = p.certificates[0]
    # clearing the branch of persistence 1/2... the branch has persistence 1
    assert stage.upper <= 2 * 1
    assert len(p.steps[1][1].vertex_ids) == 2
    final = p.steps[-1][1]
    assert len(final.vertex_ids) == 1


def test_contraction_path_cycle():
    p = contraction_path(cycle(), 2)
    final = p.steps[-1][1]
    assert len(final.vertex_ids) == 1
    assert path_length(p, "fd_upper").total > 0


def test_contraction_path_figure1_certified_length_finite():
    p = contraction_path(figure1_left(), 4)
    total = path_length(p, "fd_upper").total
    assert total > 0
    db_total = path_length(p, "bottleneck").total
    assert db_total <= 2 * total


def test_contraction_clears_random_graphs():
    rng = random.Random(21)
    for _ in range(10):
        g = random_graph(rng, n_critical=rng.randint(4, 8))
        p = contraction_path(g, 2)
        final = p.steps[-1][1]
        assert len(final.vertex_ids) == 1
        assert path_length(p, "fd_upper").total > 0


# ---------------------------------------------------------------------------
# intrinsic upper bounds
# ---------------------------------------------------------------------------


def test_intrinsic_upper_identity_zero():
    y = y_graph()
    assert intrinsic_upper(y, y) == 0


def test_intrinsic_upper_perturbation_linear():
    y = y_graph()
    perturbed = y.with_values({"b": F("1.05"), "c": F("1.95")})
    assert intrinsic_upper(y, perturbed) <= F("0.05")


def test_intrinsic_upper_figure1_positive_finite():
    bound = intrinsic_upper(figure1_left(), figure1_right())
    assert bound > 0


def test_intrinsic_upper_makes_no_bottleneck_call(monkeypatch):
    # the package exports a function named `distortion`, so load the module
    distortion = importlib.import_module("reebmetrics.distortion")
    calls = []

    def counted(g1, g2):
        calls.append(1)
        return graph_bottleneck(g1, g2)

    monkeypatch.setattr(distortion, "graph_bottleneck", counted)
    assert intrinsic_upper(figure1_left(), figure1_right()) == 20
    assert calls == []
    join_via_contractions(figure1_left(), figure1_right())  # the certified witness
    assert calls


def jittered(rng: random.Random, g: ReebGraph) -> ReebGraph:
    """g with every value moved by at most a quarter of its closest edge gap,
    so no edge turns level and the structure is shared."""
    gap = min(abs(g.value(u) - g.value(v)) for u, v in g.edges)
    return g.with_values(
        {v: g.value(v) + gap / 4 * F(rng.randint(-8, 8), 8) for v in g.vertex_ids}
    )


def test_intrinsic_upper_is_the_certified_join_or_the_direct_shift():
    rng = random.Random(1414)
    pairs = [
        (figure1_left(), figure1_right()),
        (y_graph(), cycle()),
        (y_graph(), segment()),
        (figure5(3), figure5(4)),
    ]
    pairs += [
        (random_graph(rng, n_critical=rng.randint(3, 7)),
         random_graph(rng, n_critical=rng.randint(3, 7)))
        for _ in range(6)
    ]
    # pairs that share a structure: jittered copies, order-preserving
    # rescalings, and two unit segments far apart
    shared = [
        (y_graph(), y_graph().with_values({"b": F("1.05"), "c": F("1.95")})),
        (figure1_left(), jittered(rng, figure1_left())),
        (segment(0, 1), segment(100, 101)),
    ]
    for _ in range(4):
        g = random_graph(rng, n_critical=rng.randint(3, 7))
        shared += [
            (g, jittered(rng, g)),
            (g, g.with_values({v: 3 * x + 2 for v, x in g.vertices()})),
            (g, g.with_values({v: x / 5 - 7 for v, x in g.vertices()})),
        ]
    for k, (g1, g2) in enumerate(pairs + shared):
        direct = best_structure_shift(g1, g2)
        assert direct is not None or k < len(pairs)
        bound = intrinsic_upper(g1, g2)
        for n in (1, 2, 4, 8):
            join = path_length(join_via_contractions(g1, g2, n), "fd_upper").total
            assert bound == (join if direct is None else min(direct, join))
            assert direct is None or direct <= join
    assert intrinsic_upper(segment(0, 1), segment(100, 101)) == 100
    join = join_via_contractions(segment(0, 1), segment(100, 101))
    assert path_length(join, "fd_upper").total == 101


def test_intrinsic_bound_searches_structures_once(monkeypatch):
    # with no shared structure the contraction join follows without a second search
    distortion = importlib.import_module("reebmetrics.distortion")
    calls = []
    search = distortion.structure_isomorphisms
    monkeypatch.setattr(
        distortion, "structure_isomorphisms", lambda *a, **k: calls.append(a) or search(*a, **k)
    )
    assert _intrinsic_bound(figure1_left(), figure1_right()) == (20, "contraction-join")
    assert len(calls) == 1


def test_intrinsic_bound_builds_no_join_when_the_graphs_share_a_structure(monkeypatch):
    paths = importlib.import_module("reebmetrics.paths")
    calls = []
    stages = paths._contraction_stages
    monkeypatch.setattr(
        paths, "_contraction_stages", lambda *a: calls.append(a) or stages(*a)
    )
    y = y_graph()
    perturbed = y.with_values({"b": F("1.05"), "c": F("1.95")})
    assert intrinsic_upper(y, perturbed) == F("0.05")
    assert _intrinsic_bound(y, perturbed) == (F("0.05"), "natural")
    assert calls == []


def test_join_path_endpoints():
    y, s = y_graph(), segment(0, 5)
    p = join_via_contractions(y, s, 2)
    assert p.steps[0][1] == y
    assert p.steps[-1][1] == s


def test_direct_linear_path_found_for_shared_structure():
    y = y_graph()
    stretched = y.with_values({"b": F("0.8"), "d": F("3.5")})
    p = direct_path(y, stretched, 4)
    assert p.steps[-1][1] == stretched


def test_direct_linear_path_none_for_different_structure():
    assert structure_isomorphisms(y_graph(), cycle(), limit=1) == []


def test_linear_path_interpolates_along_every_structure_isomorphism():
    rng = random.Random(4242)
    y = y_graph()
    pairs = [(y, y.with_values({"b": F("0.8"), "d": F("3.5")})), (cycle(), cycle(1, 2))]
    for _ in range(6):
        g = random_graph(rng, n_critical=rng.randint(4, 7))
        pairs.append((g, jittered(rng, g)))
    for g1, g2 in pairs:
        witnesses = structure_isomorphisms(g1, g2)
        paths = [
            linear_path(g1, {v: g2.value(sigma[v]) for v in g1.vertex_ids}, 3)
            for sigma in witnesses
        ]  # every witness interpolates when g1 has no level edge
        assert direct_path(g1, g2, 3) == paths[0]


def test_linear_path_rejects_a_level_edge_along_every_structure_isomorphism():
    level = ReebGraph(
        [("a", 0), ("b", 1), ("c", 1), ("d", 2)], [("a", "b"), ("b", "c"), ("c", "d")]
    )
    witnesses = structure_isomorphisms(level, level)
    assert witnesses
    for sigma in witnesses:
        target = {v: level.value(sigma[v]) for v in level.vertex_ids}
        with pytest.raises(InvalidGraphError, match="step 0/2"):
            linear_path(level, target, 2)


def test_join_is_one_contraction_the_bridge_and_the_other_reversed():
    pairs = [(y_graph(), cycle()), (figure1_left(), segment(0, 5)), (cycle(), y_graph())]
    for g1, g2 in pairs:
        for n in (1, 2, 4):
            down, up = contraction_path(g1, n), contraction_path(g2, n)
            join = join_via_contractions(g1, g2, n)
            assert join.graphs == down.graphs + up.graphs[::-1]
            end1, end2 = down.graphs[-1], up.graphs[-1]
            bridge = certify_fd_upper(end1, end2, abs(end1.min_value() - end2.min_value()))
            certs = [*down.certificates, bridge, *up.certificates[::-1]]
            assert [(c.lower, c.upper, c.remainder) for c in join.certificates] == [
                (c.lower, c.upper, c.remainder) for c in certs
            ]


# ---------------------------------------------------------------------------
# lengths read from certificates, and d_B <= 2 * upper per segment
# ---------------------------------------------------------------------------


def test_direct_path_two_sided_on_perturbation():
    y = y_graph()
    perturbed = y.with_values({"b": F("1.05"), "c": F("1.95")})
    for n in (2, 4, 8, 16):
        assert_two_sided(direct_path(y, perturbed, n))
        assert_two_sided(join_via_contractions(y, perturbed, n))


def test_figure1_paths_two_sided_per_segment():
    left, right = figure1_left(), figure1_right()
    assert structure_isomorphisms(left, right, limit=1) == []
    assert_two_sided(join_via_contractions(left, right, 4))


def test_refining_linear_partition_never_decreases_bottleneck_sum():
    rng = random.Random(64)
    for _ in range(5):
        g = random_graph(rng, n_critical=rng.randint(4, 7))
        gap = min(abs(g.value(u) - g.value(v)) for u, v in g.edges)
        target = {
            v: g.value(v) + gap / 4 * F(rng.randint(-64, 64), 64)
            for v in g.vertex_ids
        }
        sums = []
        for n in (2, 4, 8, 16):
            p = linear_path(g, target, n)
            sums.append(path_length(p, "bottleneck").total)
        assert all(a <= b for a, b in zip(sums, sums[1:]))


def test_per_segment_two_sided_bound_on_contraction():
    rng = random.Random(13)
    randoms = [random_graph(rng, n_critical=rng.randint(4, 7)) for _ in range(3)]
    for g in (y_graph(), cycle(), figure1_left(), *randoms):
        for n in (2, 4):
            assert_two_sided(contraction_path(g, n))


def test_path_lengths_sum_their_certificates():
    y = y_graph()
    for p in (
        contraction_path(figure1_left(), 4),
        join_via_contractions(y, cycle(), 2),
        linear_path(y, {"b": F("1.05"), "c": F("1.95")}, 4),
    ):
        db, fd = path_length(p, "bottleneck"), path_length(p, "fd_upper")
        assert db.per_step == tuple(2 * c.lower for c in p.certificates)
        assert fd.per_step == tuple(c.upper for c in p.certificates)
        assert (db.total, fd.total) == (sum(db.per_step), sum(fd.per_step))


def constructed_paths() -> list[GraphPath]:
    """Paths from every constructor in `paths`, on small graphs."""
    y, seg = y_graph(), segment()
    perturbed = y.with_values({"b": F("1.05"), "c": F("1.95")})
    rng = random.Random(31)
    randoms = [random_graph(rng, n_critical=rng.randint(4, 8)) for _ in range(4)]
    direct = direct_path(y, perturbed, 4)
    join = join_via_contractions(y, cycle(), 2)
    sampled = GraphPath(
        ((F(0), y), (F(1), seg)),
        (certify_fd_upper(y, seg, projection_correspondence(y, seg)),),
    )
    return [
        contraction_path(point()),
        sampled,
        linear_path(y, {"b": F("1.05"), "c": F("1.95")}, 4),
        linear_path(segment(0, 3), {"top": 5}, 2),
        direct,
        join,
        join_via_contractions(figure1_left(), figure1_right(), 2),
        *(contraction_path(g, 2) for g in (y, cycle(), figure1_left(), *randoms)),
    ]


def test_bottleneck_lengths_are_the_recomputed_distances():
    for p in constructed_paths():
        db = path_length(p, "bottleneck")
        assert db.per_step == reference_bottleneck_lengths(p)
        assert db.total == sum(db.per_step)


def test_admissibility_surrogate_step_bounds_vanish_under_refinement():
    y = y_graph()
    target = {"b": F("1.05"), "c": F("1.95")}
    uppers = []
    for n in (2, 4, 8, 16):
        p = linear_path(y, target, n)
        uppers.append(max(c.upper for c in p.certificates))
    assert all(b == a / 2 for a, b in zip(uppers, uppers[1:]))
    assert uppers[-1] == F("0.05") / 16


def test_linear_path_bottleneck_total_bounded_by_sup_norm():
    rng = random.Random(77)
    g = random_graph(rng, n_critical=6)
    gap = min(abs(g.value(u) - g.value(v)) for u, v in g.edges)
    target = {
        v: g.value(v) + gap / 4 * F(rng.randint(-64, 64), 64) for v in g.vertex_ids
    }
    sup = max(abs(target[v] - g.value(v)) for v in g.vertex_ids)
    p = linear_path(g, target, 16)
    total = path_length(p, "bottleneck").total
    assert total <= sup
    assert all(step <= sup / 16 for step in path_length(p, "bottleneck").per_step)


def test_direct_path_identical_graphs_bottleneck_zero():
    y = y_graph()
    direct = direct_path(y, y, 2)
    assert path_length(direct, "bottleneck").total == 0
    assert reference_bottleneck_lengths(direct) == (0, 0)
    assert_two_sided(join_via_contractions(y, y, 2))
