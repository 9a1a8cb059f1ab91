import random
import warnings
from fractions import Fraction as F

import pytest

from reebmetrics import (
    Diagram,
    DiagramPoint,
    MergeParams,
    TransformParams,
    crit_ball_check,
    critical_values,
    cycle,
    extended_diagram,
    figure1_left,
    figure1_right,
    full_transform,
    graph_bottleneck,
    is_level_isomorphic,
    merge,
    merge_sequence,
    random_graph,
    segment,
    simplify,
    snap_diagram,
    y_graph,
)


def point(kind, b, d):
    return DiagramPoint(kind, F(b), F(d))


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


def test_simplify_tiny_trunk_stretches():
    g = segment(0, F("0.5"))
    result = simplify(g, 1)
    d = extended_diagram(result.graph)
    assert all(p.diagonal_distance > F(1, 2) for p in d)
    assert result.moves[-1].kind == "stretch"


def test_simplify_contract_on_random_instances():
    rng = random.Random(17)
    for _ in range(100):
        g = random_graph(rng, n_critical=rng.randint(4, 9))
        alpha = g.span() / 3 * F(rng.randint(1, 100), 100)
        result = simplify(g, alpha)
        out = extended_diagram(result.graph)
        assert all(p.diagonal_distance > alpha / 2 for p in out)
        assert graph_bottleneck(g, result.graph) <= 4 * alpha
        assert result.certificate <= 2 * alpha


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
    result = full_transform(perturbed, TransformParams(alpha, critical_values(y)))
    assert not result.overlap
    assert result.certificate <= 22 * alpha


def test_merge_sequence_overlap_warns():
    y = y_graph()
    with pytest.warns(UserWarning):
        merge_sequence(y, critical_values(y), F("0.9"))


# ---------------------------------------------------------------------------
# crit_ball_check
# ---------------------------------------------------------------------------


def test_crit_ball_identity():
    d = extended_diagram(y_graph())
    assert crit_ball_check(d, d, 0)


def test_crit_ball_perturbation():
    y = y_graph()
    perturbed = y.with_values({"b": F("1.05"), "c": F("1.95")})
    assert crit_ball_check(
        extended_diagram(perturbed), extended_diagram(y), F("0.05")
    )


def test_crit_ball_missing_target_kind():
    assert not crit_ball_check(
        extended_diagram(y_graph()), extended_diagram(segment()), F("0.4")
    )


def test_crit_ball_rejects_negative_radius():
    with pytest.raises(ValueError):
        crit_ball_check(Diagram(), Diagram(), -1)
