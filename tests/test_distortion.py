import random
from fractions import Fraction as F

import pytest

from reebmetrics import (
    Correspondence,
    ReebGraph,
    FDBoundCertificate,
    certify_fd_upper,
    distortion,
    fd_lower,
    fd_upper,
    graph_bottleneck,
    identity_correspondence,
    natural_correspondence,
    projection_correspondence,
    random_graph,
    sample_net,
    segment,
    travel_distances,
    value_shift_upper,
    y_graph,
)
from reebmetrics.distortion import default_resolution, value_defect


def reference_distortion(g1: ReebGraph, g2: ReebGraph, c: Correspondence) -> F:
    """The distortion loop before it moved onto one integer lattice: one
    `Fraction` matrix per graph, and the gaps subtracted as fractions."""
    c.validate()
    pairs = [(x, y) for x, y in c.phi.items()] + [(x, y) for y, x in c.psi.items()]
    d1 = travel_distances(g1, [x for x, _ in pairs])
    d2 = travel_distances(g2, [y for _, y in pairs])
    worst = F(0)
    for i in range(len(pairs)):
        for j in range(i + 1, len(pairs)):
            worst = max(worst, abs(d1[i][j] - d2[i][j]))
    return worst


def dyadic(g: ReebGraph, rng: random.Random) -> ReebGraph:
    """The same order of values, moved onto a 1/8 grid with random steps."""
    levels = sorted({g.value(v) for v in g.vertex_ids})
    new, at = {}, F(0)
    for value in levels:
        at += F(rng.randint(1, 12), 8)
        new[value] = at
    return g.with_values({v: new[g.value(v)] for v in g.vertex_ids})


def test_sample_net_contains_vertices_and_respects_resolution():
    y = y_graph()
    pts = sample_net(y, F(1, 2))
    vertex_points = {p for p in pts if p.vertex is not None}
    assert len(vertex_points) == 4
    by_edge: dict[int, list] = {}
    for p in pts:
        if p.edge is not None:
            by_edge.setdefault(p.edge, []).append(p.value)
    for idx, values in by_edge.items():
        lo, hi = y.edge_values(idx)
        ordered = [lo] + sorted(values) + [hi]
        assert all(b - a <= F(1, 2) for a, b in zip(ordered, ordered[1:]))


def test_default_resolution_is_an_eighth_of_the_gap():
    assert default_resolution(y_graph()) == F(1, 8)


def test_identity_correspondence_costs_nothing():
    y = y_graph()
    c = identity_correspondence(y)
    assert distortion(y, y, c) == 0
    assert fd_upper(y, y, c) == 0


def test_level_matched_segments_cost_nothing():
    s = segment()
    c = identity_correspondence(s)
    assert fd_upper(s, s, c) == 0


def test_collapse_y_onto_segment():
    y, seg = y_graph(), segment()
    c = projection_correspondence(y, seg, resolution=F(1, 4))
    assert value_defect(c, "phi") == 0
    assert value_defect(c, "psi") == 0
    assert distortion(y, seg, c) == 1
    assert fd_upper(y, seg, c) == F(1, 2)


def test_natural_correspondence_on_perturbed_y():
    y = y_graph()
    perturbed = y.with_values({"b": F("1.05"), "c": F("1.95")})
    c = natural_correspondence(y, perturbed, {v: v for v in y.vertex_ids})
    assert fd_upper(y, perturbed, c) <= F("0.05")


def test_correspondence_validation_rejects_foreign_points():
    y, seg = y_graph(), segment()
    c = Correspondence(
        y,
        seg,
        phi={y.vertex_point("a"): y.vertex_point("a")},  # wrong target graph point
        psi={seg.vertex_point("bot"): y.vertex_point("a")},
        resolution=F(1, 4),
    )
    with pytest.raises(ValueError):
        distortion(y, seg, c)


def test_fd_lower_examples():
    y = y_graph()
    assert fd_lower(y, y) == 0
    perturbed = y.with_values({"b": F("1.05"), "c": F("1.95")})
    assert fd_lower(y, perturbed) == F("0.025")
    from reebmetrics import figure1_left, figure1_right

    assert fd_lower(figure1_left(), figure1_right()) == 0


def test_value_shift_upper_bounds():
    y = y_graph()
    perturbed = y.with_values({"b": F("1.05"), "c": F("1.95")})
    ident = {v: v for v in y.vertex_ids}
    assert value_shift_upper(y, perturbed, ident) == F("0.05")
    with pytest.raises(ValueError):
        value_shift_upper(y, segment(), {"a": "bot", "b": "top", "c": "bot", "d": "top"})


def test_certificates_are_ordered_intervals():
    y = y_graph()
    perturbed = y.with_values({"b": F("1.05"), "c": F("1.95")})
    cert = certify_fd_upper(
        y, perturbed, "identity value shift", upper=value_shift_upper(y, perturbed, {v: v for v in y.vertex_ids})
    )
    assert cert.lower <= cert.upper
    assert cert.lower == F("0.025")
    with pytest.raises(ValueError):
        FDBoundCertificate(F(1), F(0), "broken")


def test_sampled_certificate_carries_remainder():
    y, seg = y_graph(), segment()
    c = projection_correspondence(y, seg, resolution=F(1, 4))
    cert = certify_fd_upper(y, seg, c)
    assert cert.remainder == F(1, 2)
    assert cert.upper == F(1, 2) + F(1, 2)


def test_identity_witness_certificate_has_no_remainder():
    y = y_graph()
    cert = certify_fd_upper(y, y, identity_correspondence(y))
    assert cert.upper == 0 and cert.remainder == 0


def test_lower_bounds_never_exceed_value_shift_uppers():
    rng = random.Random(12)
    for _ in range(30):
        g = random_graph(rng, n_critical=rng.randint(4, 8))
        gap = min(abs(g.value(u) - g.value(v)) for u, v in g.edges)
        bound = gap / 4 * F(rng.randint(1, 64), 64)
        values = {
            v: g.value(v) + bound * F(rng.randint(-64, 64), 64) for v in g.vertex_ids
        }
        other = g.with_values(values)
        upper = value_shift_upper(g, other, {v: v for v in g.vertex_ids})
        assert fd_lower(g, other) <= upper
        assert upper <= bound
        assert graph_bottleneck(g, other) <= bound


def continuity_defect(src, dst, mapping) -> F:
    """Worst slack of a map's continuity surrogate, zero when it holds.

    Consecutive samples along an arc of src must map to points of dst
    joinable by a path of value span at most their own gap plus twice the
    map's value defect.
    """
    defect = max(abs(x.value - y.value) for x, y in mapping.items())
    per_edge: dict = {}
    for p in mapping:
        if p.edge is not None:
            per_edge.setdefault(p.edge, []).append(p)
    steps = []
    for idx, pts in per_edge.items():
        u, v = src.edges[idx]
        chain = [src.vertex_point(u), *sorted(pts, key=lambda p: p.value), src.vertex_point(v)]
        steps += [(a, b) for a, b in zip(chain, chain[1:]) if a in mapping and b in mapping]
    d = travel_distances(dst, [mapping[p] for step in steps for p in step])
    allowed = [b.value - a.value + 2 * defect for a, b in steps]
    return max([F(0)] + [d[2 * k][2 * k + 1] - room for k, room in enumerate(allowed)])


def test_continuity_surrogate_holds_for_built_in_witnesses():
    y, seg = y_graph(), segment()
    proj = projection_correspondence(y, seg, resolution=F(1, 4))
    assert continuity_defect(y, seg, proj.phi) == continuity_defect(seg, y, proj.psi) == 0
    perturbed = y.with_values({"b": F("1.05"), "c": F("1.95")})
    nat = natural_correspondence(y, perturbed, {v: v for v in y.vertex_ids})
    assert continuity_defect(y, perturbed, nat.phi) == continuity_defect(perturbed, y, nat.psi) == 0
    # it fails for a map that moves one sample of arc a-c, value kept, onto
    # arc b-c: its neighbours on a-c reach it only over the fork at c
    torn = dict(nat.phi)
    x = next(p for p, q in nat.phi.items() if p.edge == 0 and F("1.05") < q.value < F("1.5"))
    torn[x] = perturbed.edge_point(1, nat.phi[x].value)
    assert continuity_defect(y, perturbed, torn) > 0


def test_correspondence_json_round_trip():
    from reebmetrics.fileio import correspondence_from_json, correspondence_to_json

    y, seg = y_graph(), segment()
    c = projection_correspondence(y, seg, resolution=F(1, 2))
    text = correspondence_to_json(c)
    back = correspondence_from_json(y, seg, text)
    assert back.phi == c.phi
    assert back.psi == c.psi
    assert back.resolution == c.resolution
    assert fd_upper(y, seg, back) == fd_upper(y, seg, c)


def test_distortion_matches_fraction_reference():
    # resolution 1/3 on dyadic graphs puts sample points on thirds, which no
    # vertex value has: the common lattice must cover the samples too
    rng = random.Random(5150)
    checked = 0
    for trial in range(8):
        g = random_graph(rng, n_critical=rng.randint(4, 6))
        if trial % 2:
            g = dyadic(g, rng)
        gap = min(abs(g.value(u) - g.value(v)) for u, v in g.edges)
        jitter = g.with_values(
            {v: g.value(v) + gap / 4 * F(rng.randint(-7, 7), 7) for v in g.vertex_ids}
        )
        ident = {v: v for v in g.vertex_ids}
        seg = segment(g.min_value(), g.max_value())
        for resolution in (F(1, 3), g.span() / 7):
            for c, other in (
                (natural_correspondence(g, jitter, ident, resolution), jitter),
                (projection_correspondence(g, seg, resolution), seg),
            ):
                assert distortion(g, other, c) == reference_distortion(g, other, c), trial
                checked += 1
    assert checked == 32
