import importlib
import math
import random
from collections import Counter
from fractions import Fraction as F
from itertools import chain
from typing import Optional

import pytest

from reebmetrics import (
    Correspondence,
    InvalidGraphError,
    ReebGraph,
    FDBoundCertificate,
    GraphPoint,
    certify_fd_upper,
    cycle,
    distortion,
    fd_lower,
    fd_upper,
    graph_bottleneck,
    natural_correspondence,
    projection_correspondence,
    random_graph,
    sample_net,
    segment,
    structure_isomorphisms,
    travel_distances,
    validate,
    value_shift_upper,
    y_graph,
)
from reebmetrics.distortion import _sample_pairs, default_resolution
from reebmetrics.graph import _travel_matrix
from reebmetrics.rationals import common_denominator, format_value
from value_reference import coprime_cases, dyadic, reference_contains_point, reference_net_cover


def reference_distortion(g1: ReebGraph, g2: ReebGraph, c: Correspondence) -> F:
    """The distortion loop before it moved onto one integer lattice: one
    `Fraction` matrix per graph, and the gaps subtracted as fractions."""
    pairs = [(x, y) for x, y in c.phi.items()] + [(x, y) for y, x in c.psi.items()]
    d1 = travel_distances(g1, [x for x, _ in pairs])
    d2 = travel_distances(g2, [y for _, y in pairs])
    worst = F(0)
    for i in range(len(pairs)):
        for j in range(i + 1, len(pairs)):
            worst = max(worst, abs(d1[i][j] - d2[i][j]))
    return worst


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


def reference_sample_net(g: ReebGraph, resolution=None) -> tuple[GraphPoint, ...]:
    """The sample net before it moved onto the graph's lattice: each value
    built from the edge's `Fraction` values, lo + span·k/pieces."""
    h = F(resolution) if resolution is not None else default_resolution(g)
    if h <= 0:
        raise ValueError("resolution must be positive")
    points = [g.vertex_point(v) for v in g.vertex_ids]
    for idx in range(len(g.edges)):
        lo, hi = g.edge_values(idx)
        span = hi - lo
        pieces = int(-(-span // h))  # ceil(span / h)
        for k in range(1, pieces):
            points.append(GraphPoint(lo + span * F(k, pieces), edge=idx))
    return tuple(points)


def test_sample_net_matches_fraction_reference():
    # point for point and in order: seeded graphs at the default resolution
    # and at fractions of their span; graphs on pairwise coprime denominators
    # and their subdivisions at thirds, whose scales run to dozens of digits;
    # dyadic graphs at 1/3, which puts samples on thirds no vertex value has,
    # and at 7/19, which divides none of their edge spans
    rng = random.Random(6160)
    cases = []
    for _ in range(20):
        g = random_graph(rng, n_critical=rng.randint(3, 9))
        cases += [(g, None), (g, g.span() / rng.randint(3, 30))]
    for g, thirds in coprime_cases(6161, 3):
        cases += [(g, g.span() / 41), (thirds, thirds.span() / 53)]
    off_grid = 0
    for _ in range(12):
        g = dyadic(random_graph(rng, n_critical=rng.randint(3, 8)), rng)
        cases += [(g, F(1, 3)), (g, F(7, 19))]
        spans = [hi - lo for lo, hi in map(g.edge_values, range(len(g.edges)))]
        off_grid += all(span % F(7, 19) for span in spans)
    assert off_grid == 12
    for g, resolution in cases:
        assert sample_net(g, resolution) == reference_sample_net(g, resolution)


def test_default_resolution_is_an_eighth_of_the_gap():
    assert default_resolution(y_graph()) == F(1, 8)


def identity(g: ReebGraph) -> Correspondence:
    """The correspondence of g with itself along the identity vertex map."""
    return natural_correspondence(g, g, {v: v for v in g.vertex_ids})


def test_identity_correspondence_costs_nothing():
    y = y_graph()
    c = identity(y)
    assert distortion(y, y, c) == 0
    assert fd_upper(y, y, c) == 0


def test_level_matched_segments_cost_nothing():
    s = segment()
    c = identity(s)
    assert distortion(s, s, c) == 0
    assert fd_upper(s, s, c) == 0


def test_collapse_y_onto_segment():
    y, seg = y_graph(), segment()
    c = projection_correspondence(y, seg, resolution=F(1, 4))
    # both maps keep every sample's value: no value defect
    assert all(p.value == q.value for p, q in chain(c.phi.items(), c.psi.items()))
    assert distortion(y, seg, c) == 1
    assert fd_upper(y, seg, c) == F(1, 2)


def test_projection_target_is_a_segment_or_a_point():
    y = y_graph()
    point = ReebGraph([("p", F(3, 2))])
    assert projection_correspondence(y, point).psi  # a point is a target
    for target in (
        ReebGraph([("a", 0), ("b", 3), ("c", 1)], [("a", "b")]),  # plus an isolated vertex
        cycle(),  # two arcs between two vertices
        y,
    ):
        with pytest.raises(ValueError, match="the collapse witness needs a segment on one side"):
            projection_correspondence(y, target)


def test_the_collapse_target_may_be_on_either_side():
    # the same rule picks the target whichever side it is on: the reversed
    # witness swaps the two maps, so it certifies the same interval
    rng = random.Random(35)
    graphs = [y_graph(), cycle()]
    graphs += (random_graph(rng, n_critical=rng.randint(3, 6)) for _ in range(4))
    checked = 0
    for g in graphs:
        lo, hi = g.min_value(), g.max_value()
        point = ReebGraph([("pt", (lo + hi) / 2)])
        for target in (segment(lo, hi), segment(lo - 1, hi + F(1, 3)), point):
            forward = projection_correspondence(g, target)
            backward = projection_correspondence(target, g)
            assert (backward.g1, backward.g2) == (target, g)
            assert (backward.phi, backward.psi) == (forward.psi, forward.phi)
            assert backward.resolution == forward.resolution == default_resolution(g)
            assert certify_fd_upper(target, g, backward) == certify_fd_upper(g, target, forward)
            checked += 1
    assert checked == 18


def test_building_a_collapse_reads_each_range_once(monkeypatch):
    # the range of each graph is read once, not once per sample: the scans
    # do not grow with the number of samples
    calls = Counter()
    for name in ("min_value", "max_value"):
        scan = getattr(ReebGraph, name)

        def counted(self, scan=scan, name=name):
            calls[name] += 1
            return scan(self)

        monkeypatch.setattr(ReebGraph, name, counted)
    y, seg = y_graph(), segment()
    totals = []
    for resolution in (F(1, 4), F(1, 64)):
        calls.clear()
        c = projection_correspondence(y, seg, resolution)
        assert len(c.phi) > 4 / resolution
        totals.append(sum(calls.values()))
    assert totals[0] == totals[1] <= 4


def test_a_certificate_rejects_an_invalid_graph_before_sampling(monkeypatch):
    # the lower bound's diagrams reject a pass-through vertex before the
    # upper bound runs a single travel sweep
    sweeps = []

    def counted(*args):
        sweeps.append(args)
        return _travel_matrix(*args)

    distortion_module = importlib.import_module("reebmetrics.distortion")
    monkeypatch.setattr(distortion_module, "_travel_matrix", counted)
    through = ReebGraph([("a", 0), ("b", 1), ("c", 2)], [("a", "b"), ("b", "c")])
    seg = segment(0, 2)
    with pytest.raises(InvalidGraphError) as err:
        certify_fd_upper(through, seg, projection_correspondence(through, seg))
    assert str(err.value) == str(validate(through))
    assert sweeps == []
    certify_fd_upper(y_graph(), segment(), projection_correspondence(y_graph(), segment()))
    assert len(sweeps) == 2


def test_natural_correspondence_on_perturbed_y():
    y = y_graph()
    perturbed = y.with_values({"b": F("1.05"), "c": F("1.95")})
    c = natural_correspondence(y, perturbed, {v: v for v in y.vertex_ids})
    assert fd_upper(y, perturbed, c) <= F("0.05")


def test_correspondence_validation_rejects_foreign_points():
    # both maps cover their whole sample nets, so only the foreign point is wrong
    y, seg = y_graph(), segment()
    c = projection_correspondence(y, seg, F(1, 4))
    with pytest.raises(ValueError, match="phi maps outside the graphs"):
        Correspondence(
            y,
            seg,
            phi={**c.phi, y.vertex_point("a"): y.vertex_point("a")},  # wrong target graph point
            psi=c.psi,
            resolution=F(1, 4),
        )


def test_distortion_rejects_off_graph_points():
    y, seg = y_graph(), segment()
    c = projection_correspondence(y, seg, F(1, 4))
    off_y = GraphPoint(value=F(9), edge=0)  # past the top of y's first edge
    off_seg = GraphPoint(value=F(-1), edge=0)
    on_y, on_seg = y.vertex_point("a"), seg.vertex_point("bot")
    for phi, psi in (
        ({**c.phi, off_y: on_seg}, c.psi),
        ({**c.phi, on_y: off_seg}, c.psi),
        (c.phi, {**c.psi, off_seg: on_y}),
        (c.phi, {**c.psi, on_seg: off_y}),
    ):
        with pytest.raises(ValueError, match="maps outside the graphs"):
            Correspondence(y, seg, phi, psi, resolution=F(1, 4))


def test_correspondence_must_map_its_whole_sample_nets():
    # each map pair once certified a bound it does not hold: a sampled fd
    # upper bound is sound only on a map of the whole net at a positive
    # resolution
    from reebmetrics import figure1_left, figure1_right

    left, right = figure1_left(), figure1_right()
    bot = {left.vertex_point("bot"): right.vertex_point("bot")}
    with pytest.raises(ValueError, match="phi maps 1 of the 14000 samples at resolution 0.001"):
        Correspondence(left, right, bot, {v: k for k, v in bot.items()}, F(1, 1000))
    y, seg = y_graph(), segment()
    c = projection_correspondence(y, seg, F(1, 8))
    assert fd_upper(y, seg, c) == F(1, 2)
    for resolution in (F(-1, 100), F(0)):
        with pytest.raises(ValueError, match="resolution must be positive"):
            Correspondence(y, seg, c.phi, c.psi, resolution)
        for build in (natural_correspondence, reference_natural_correspondence):
            with pytest.raises(ValueError, match="resolution must be positive"):
                build(y, y, {v: v for v in y.vertex_ids}, resolution)
        with pytest.raises(ValueError, match="resolution must be positive"):
            sample_net(ReebGraph([("pt", 1)]), resolution)


def test_correspondence_reads_its_resolution_as_an_exact_value():
    # the resolution "1/4" once built, and `certify_fd_upper` then raised a
    # TypeError adding the string "1/41/4" to a Fraction; an int resolution
    # gave an int remainder
    y, seg = y_graph(), segment()
    quarter = projection_correspondence(y, seg, F(1, 4))
    c = Correspondence(y, seg, quarter.phi, quarter.psi, "1/4")
    assert type(c.resolution) is F and c.resolution == F(1, 4)
    cert = certify_fd_upper(y, seg, c)
    assert (cert.lower, cert.upper, cert.remainder) == (F(1, 4), F(1), F(1, 2))
    whole = projection_correspondence(y, seg, F(1))
    c = Correspondence(y, seg, whole.phi, whole.psi, 1)
    assert type(c.resolution) is F
    cert = certify_fd_upper(y, seg, c)
    assert type(cert.remainder) is F and cert.remainder == 2
    assert cert == certify_fd_upper(y, seg, whole)
    with pytest.raises(TypeError, match="float values are not accepted"):
        Correspondence(y, seg, quarter.phi, quarter.psi, 0.25)


def reference_check(g1, g2, phi, psi, resolution) -> Optional[str]:
    """The error `Correspondence` raised before its check moved onto the
    graphs' lattices, or None: each sample net built and looked up in its
    map, and every mapped point compared as `Fraction`s."""
    for name, src, dst, mapping in (("phi", g1, g2, phi), ("psi", g2, g1, psi)):
        covered, size = reference_net_cover(src, resolution, mapping)
        if covered < size:
            return (
                f"{name} maps {covered} of the {size} samples at resolution "
                f"{format_value(resolution)}; a correspondence must map them all"
            )
        for x, y in mapping.items():
            if not (reference_contains_point(src, x) and reference_contains_point(dst, y)):
                return f"{name} maps outside the graphs"
    return None


def keys_that_are_no_samples(g: ReebGraph, resolution: F) -> list[GraphPoint]:
    """Points next to the net of g that the check must not count: points on
    an edge at its ends and between its lowest samples, then points off g. The points past the edge's ends and at the edge indices -1 and
    len(edges) sit where a sample would be if the edge went on, or if the
    index wrapped."""
    cut = [math.ceil((hi - lo) / resolution) for lo, hi in map(g.edge_values, range(len(g.edges)))]
    idx = max(range(len(g.edges)), key=cut.__getitem__)
    lo, hi = g.edge_values(idx)
    step = (hi - lo) / cut[idx]
    last_lo, last_hi = g.edge_values(len(g.edges) - 1)
    first_lo, first_hi = g.edge_values(0)
    v = g.vertex_ids[-1]
    return [
        GraphPoint(value=lo, edge=idx),
        GraphPoint(value=hi, edge=idx),
        GraphPoint(value=lo + step / 2, edge=idx),
        GraphPoint(value=lo + step * F(3, 2), edge=idx),
        GraphPoint(value=hi + step, edge=idx),
        GraphPoint(value=lo - step, edge=idx),
        GraphPoint(value=last_lo + (last_hi - last_lo) / cut[-1], edge=-1),
        GraphPoint(value=first_lo + (first_hi - first_lo) / cut[0], edge=len(g.edges)),
        GraphPoint(value=g.value(v) + F(1, 3), vertex=v),
        GraphPoint(value=g.value(v), vertex="nowhere"),
    ]


def test_correspondence_check_matches_fraction_reference():
    # whole maps, maps short of one sample, and maps with one more key: a
    # point between two samples (on the graph, but no sample) or a point off
    # the graph, each also with one sample dropped, so a key the check
    # wrongly counted would hide the gap. Every map must get the reference's
    # verdict and message, "N of M" included
    rng = random.Random(2727)
    verdicts: Counter = Counter()
    for trial in range(8):
        g = random_graph(rng, n_critical=rng.randint(3, 6))
        if trial % 2:
            g = dyadic(g, rng)
        gap = min(abs(g.value(u) - g.value(v)) for u, v in g.edges)
        jitter = g.with_values(
            {v: g.value(v) + gap / 4 * F(rng.randint(-7, 7), 7) for v in g.vertex_ids}
        )
        ident = {v: v for v in g.vertex_ids}
        seg = segment(g.min_value(), g.max_value())
        for resolution in (F(1, 3), g.span() / 7):
            for c in (
                natural_correspondence(g, jitter, ident, resolution),
                projection_correspondence(g, seg, resolution),
            ):
                g1, g2 = c.g1, c.g2
                anywhere1, anywhere2 = g1.vertex_point(g1.vertex_ids[0]), g2.vertex_point(g2.vertex_ids[0])
                moved = rng.choice(list(c.phi))
                off_image = keys_that_are_no_samples(g2, resolution)[-1]
                phis = [c.phi, {**c.phi, moved: off_image}]
                phis += ({**c.phi, x: anywhere2} for x in keys_that_are_no_samples(g1, resolution))
                psis = [{**c.psi, y: anywhere1} for y in keys_that_are_no_samples(g2, resolution)]
                variants = [(phi, c.psi) for phi in phis] + [(c.phi, psi) for psi in psis]
                for phi, psi in variants:
                    for drop in (None, "phi", "psi"):
                        if drop == "phi":
                            phi = dict(phi)
                            del phi[rng.choice([p for p in c.phi if p != moved])]
                        elif drop == "psi":
                            psi = dict(psi)
                            del psi[rng.choice(list(c.psi))]
                        want = reference_check(g1, g2, phi, psi, resolution)
                        try:
                            Correspondence(g1, g2, phi, psi, resolution)
                            got = None
                        except ValueError as exc:
                            got = str(exc)
                        assert got == want, (trial, want)
                        verdicts[want and ("outside" if "outside" in want else "cover")] += 1
    assert sorted(verdicts, key=str) == [None, "cover", "outside"]
    assert min(verdicts.values()) >= 32, verdicts


def test_building_a_correspondence_and_its_travel_matrices_hash_no_fraction(monkeypatch):
    # the check once rebuilt both sample nets and looked each sample up in
    # its map, and the travel matrices keyed edge points by `Fraction` value:
    # 122 and 612 `Fraction.__hash__` calls on one pair of the benchmark's
    # `certify` workload
    rng = random.Random(1212)
    g = random_graph(rng, n_critical=6)
    gap = min(abs(g.value(u) - g.value(v)) for u, v in g.edges)
    jitter = g.with_values({v: g.value(v) + gap / 5 for v in g.vertex_ids})
    c = natural_correspondence(g, jitter, {v: v for v in g.vertex_ids}, F(1, 3))
    calls = []
    fraction_hash = F.__hash__

    def counted(self):
        calls.append(self)
        return fraction_hash(self)

    monkeypatch.setattr(F, "__hash__", counted)
    assert reference_net_cover(g, c.resolution, c.phi)[0] == len(c.phi)
    assert calls  # the counter sees the rule the check replaced
    calls.clear()
    again = Correspondence(g, jitter, c.phi, c.psi, c.resolution)
    assert not calls
    pairs, scale = _sample_pairs(g, jitter, again)
    _travel_matrix(g, tuple(x for x, _ in pairs), scale)
    _travel_matrix(jitter, tuple(y for _, y in pairs), scale)
    assert not calls


class CountingMap(dict):
    """A dict that counts the walks over it: `items()`, `keys()`, `values()`
    and iteration."""

    reads = 0

    def items(self):
        self.reads += 1
        return super().items()

    def keys(self):
        self.reads += 1
        return super().keys()

    def values(self):
        self.reads += 1
        return super().values()

    def __iter__(self):
        self.reads += 1
        return super().__iter__()


def test_a_correspondence_reads_each_map_once():
    # one walk per map builds the correspondence and lays out its pairs;
    # the certificates read that layout, not the maps (each map was once
    # walked twice to build it and twice more to certify it)
    rng = random.Random(3434)
    g = random_graph(rng, n_critical=5)
    jitter = g.with_values({v: g.value(v) + F(rng.randint(-3, 3), 97) for v in g.vertex_ids})
    y = y_graph()
    for c in (
        projection_correspondence(y, segment(y.min_value(), y.max_value())),
        natural_correspondence(g, jitter, {v: v for v in g.vertex_ids}, F(1, 3)),
    ):
        phi, psi = CountingMap(c.phi), CountingMap(c.psi)
        counted = Correspondence(c.g1, c.g2, phi, psi, c.resolution)
        assert (phi.reads, psi.reads) == (1, 1)
        cert = certify_fd_upper(c.g1, c.g2, counted)
        upper = fd_upper(c.g1, c.g2, counted)
        worst = distortion(c.g1, c.g2, counted)
        assert (phi.reads, psi.reads) == (1, 1)
        # the layout is phi's pairs, then psi's pairs turned round, on the
        # lcm of both scales and every sampled denominator
        pairs = [*c.phi.items(), *((x, y) for y, x in c.psi.items())]
        lattice = math.lcm(
            c.g1.scale, c.g2.scale, common_denominator(p.value for p in chain(*pairs))
        )
        assert _sample_pairs(c.g1, c.g2, counted) == (tuple(pairs), lattice)
        assert worst == reference_distortion(c.g1, c.g2, c)
        assert cert.upper == upper + 2 * c.resolution
        assert cert == certify_fd_upper(c.g1, c.g2, c)


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
    shift = value_shift_upper(y, perturbed, {v: v for v in y.vertex_ids})
    cert = certify_fd_upper(y, perturbed, shift)
    assert cert.lower <= cert.upper
    assert cert == FDBoundCertificate(F("0.025"), F("0.05"), F(0))
    with pytest.raises(ValueError):
        FDBoundCertificate(F(1), F(0))
    # the witness is a correspondence or a bound; a label is neither
    with pytest.raises(ValueError, match="not a decimal or ratio value"):
        certify_fd_upper(y, perturbed, "identity value shift")


def test_a_correspondence_certifies_only_its_own_graphs():
    # a natural map onto one jittered copy once certified another copy,
    # reading its sample points on that copy's edges; a map pair passed the
    # wrong way round failed on an unrelated travel error
    rng = random.Random(2525)
    g = random_graph(rng, n_critical=6)
    gap = min(abs(g.value(u) - g.value(v)) for u, v in g.edges)
    h1, h2 = (
        g.with_values({v: g.value(v) + gap / 4 * F(rng.randint(-7, 7), 7) for v in g.vertex_ids})
        for _ in range(2)
    )
    assert h1 != h2
    c = natural_correspondence(g, h1, {v: v for v in g.vertex_ids}, g.span() / 5)
    for call in (distortion, fd_upper, certify_fd_upper):
        with pytest.raises(ValueError, match="other graphs"):
            call(g, h2, c)
    y, seg = y_graph(), segment()
    collapse = projection_correspondence(y, seg)
    with pytest.raises(ValueError, match="other graphs"):
        certify_fd_upper(seg, y, collapse)
    # an equal graph built apart is the same graph; with its edges in
    # another order it is not, since edge points name edges by index
    assert certify_fd_upper(y_graph(), segment(), collapse) == certify_fd_upper(y, seg, collapse)
    reordered = ReebGraph(list(y.vertices()), y.edges[::-1])
    assert reordered == y and reordered.edges != y.edges
    with pytest.raises(ValueError, match="other graphs"):
        certify_fd_upper(reordered, seg, collapse)


def test_natural_map_costs_exactly_its_value_shift():
    # why `reeb fdbound --witness natural` may take the value shift: along a
    # map `_edge_map` accepts, the natural correspondence's sampled bound is
    # the shift itself, whichever way the matched edges run. The maps are
    # the structure isomorphisms of jittered copies and the identity onto
    # copies with fresh values
    rng = random.Random(7373)
    checked = flipped = 0
    for _ in range(25):
        g = random_graph(rng, n_critical=rng.randint(3, 7))
        gap = min(abs(g.value(u) - g.value(v)) for u, v in g.edges)
        jitter = g.with_values(
            {v: g.value(v) + gap / 4 * F(rng.randint(-7, 7), 7) for v in g.vertex_ids}
        )
        levels = rng.sample(range(1, 8 * len(g.vertex_ids)), len(g.vertex_ids))
        fresh = g.with_values({v: F(k, 4) for v, k in zip(g.vertex_ids, levels)})
        maps = [(jitter, sigma) for sigma in structure_isomorphisms(g, jitter, limit=4)]
        maps.append((fresh, {v: v for v in g.vertex_ids}))
        for h, sigma in maps:
            flipped += sum(
                (g.value(u) < g.value(v)) != (h.value(sigma[u]) < h.value(sigma[v]))
                for u, v in g.edges
            )
            c = natural_correspondence(g, h, sigma, g.span() / 6)
            assert fd_upper(g, h, c) == value_shift_upper(g, h, sigma)
            checked += 1
    assert checked >= 60
    assert flipped >= 40


def test_sampled_certificate_carries_remainder():
    y, seg = y_graph(), segment()
    c = projection_correspondence(y, seg, resolution=F(1, 4))
    cert = certify_fd_upper(y, seg, c)
    assert cert.remainder == F(1, 2)
    assert cert.upper == F(1, 2) + F(1, 2)


@pytest.mark.parametrize("g", [y_graph(), segment()], ids=["Y", "segment"])
def test_identity_witness_certificate_keeps_the_remainder(g):
    # every sampled correspondence adds 2 * resolution, even one that costs nothing
    c = identity(g)
    cert = certify_fd_upper(g, g, c)
    assert cert.remainder == 2 * c.resolution
    assert cert.upper == 2 * c.resolution


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


def reference_defect(c: Correspondence) -> F:
    """The value defect of both maps, subtracted as fractions."""
    return max(abs(x.value - y.value) for x, y in chain(c.phi.items(), c.psi.items()))


def test_distortion_matches_fraction_reference():
    # resolution 1/3 on dyadic graphs puts sample points on thirds, which no
    # vertex value has: the common lattice must cover the samples too. The
    # natural map of a jittered copy repeats every phi pair among psi's when
    # each arc keeps its number of samples, and `distortion` reads each such
    # pair once; a projection onto a segment wider than the graph's range
    # repeats none. A map pair whose psi sends every sample to the lowest
    # vertex has its whole distortion and defect on psi's side
    rng = random.Random(5150)
    checked = all_repeat = 0
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
        wide = segment(g.min_value() - F(1, 5), g.max_value() + F(1, 7))
        for resolution in (F(1, 3), g.span() / 7):
            natural = natural_correspondence(g, jitter, ident, resolution)
            net = sample_net(g, resolution)
            bottom = g.vertex_point(min(g.vertex_ids, key=g.value))
            lopsided = Correspondence(
                g, g, {p: p for p in net}, {p: bottom for p in net}, resolution
            )
            cases = (
                (natural, jitter),
                (projection_correspondence(g, seg, resolution), seg),
                (projection_correspondence(g, wide, resolution), wide),
                (lopsided, g),
            )
            for c, other in cases:
                phi_pairs = set(c.phi.items())
                repeats = sum((x, y) in phi_pairs for y, x in c.psi.items())
                if other is wide:
                    assert repeats == 0, trial
                all_repeat += c is natural and repeats == len(c.psi) == len(c.phi)
                want = reference_distortion(g, other, c)
                assert distortion(g, other, c) == want, trial
                assert fd_upper(g, other, c) == max(want / 2, reference_defect(c)), trial
                checked += 1
            assert fd_upper(g, g, lopsided) == g.span()
    assert checked == 64
    assert all_repeat >= 8


def test_default_resolution_certificate_is_pinned():
    # a 9-vertex, 10-edge random graph and a jittered copy, sampled at the
    # default resolution (578 and 575 samples). Captured while the
    # travel-distance matrix still swept once per sample value.
    rng = random.Random(5)
    g = random_graph(rng, n_critical=9)
    gap = min(abs(g.value(u) - g.value(v)) for u, v in g.edges)
    jitter = g.with_values(
        {v: g.value(v) + gap / 4 * F(rng.randint(-21, 21), 21) for v in g.vertex_ids}
    )
    c = natural_correspondence(g, jitter, {v: v for v in g.vertex_ids})
    assert (len(g.vertex_ids), len(g.edges), len(c.phi), len(c.psi)) == (9, 10, 578, 575)
    assert c.resolution == min(default_resolution(g), default_resolution(jitter))
    cert = certify_fd_upper(g, jitter, c)
    assert (cert.lower, cert.upper, cert.remainder) == (F(9, 160), F(129, 700), F(201, 2800))


def reference_natural_correspondence(g1, g2, vertex_map, resolution=None):
    """The two-pass edge matching that `natural_correspondence` replaced:
    each direction greedily takes, for every edge in index order, the first
    unused edge of the other graph between the mapped ends."""
    inverse = {w: v for v, w in vertex_map.items()}
    if len(inverse) != len(vertex_map):
        raise ValueError("vertex map is not a bijection")

    def edge_match(src, dst, mapping):
        used, out = set(), {}
        for idx, (u, v) in enumerate(src.edges):
            found = next(
                (
                    jdx
                    for jdx, (a, b) in enumerate(dst.edges)
                    if jdx not in used and {a, b} == {mapping[u], mapping[v]}
                ),
                None,
            )
            if found is None:
                raise ValueError("vertex map does not carry edges to edges")
            used.add(found)
            out[idx] = found
        return out

    fwd, bwd = edge_match(g1, g2, vertex_map), edge_match(g2, g1, inverse)
    h = F(resolution) if resolution is not None else min(
        default_resolution(g1), default_resolution(g2)
    )

    def transport(src, dst, vmap, emap):
        out = {}
        for p in reference_sample_net(src, h):
            if p.vertex is not None:
                out[p] = dst.vertex_point(vmap[p.vertex])
                continue
            lo, hi = src.edge_values(p.edge)
            t = (p.value - lo) / (hi - lo)
            jdx = emap[p.edge]
            same = vmap[src.edges[p.edge][0]] == dst.edges[jdx][0]
            dlo, dhi = dst.edge_values(jdx)
            out[p] = dst.edge_point(jdx, dlo + (t if same else 1 - t) * (dhi - dlo))
        return out

    return Correspondence(
        g1, g2, transport(g1, g2, vertex_map, fwd), transport(g2, g1, inverse, bwd), h
    )


def shuffled_copy(g, rng):
    """g under fresh ids, with vertices, edges and edge ends in random order."""
    ids = list(g.vertex_ids)
    rng.shuffle(ids)
    rename = {v: f"v{k}" for k, v in enumerate(ids)}
    vertices = [(rename[v], g.value(v)) for v in g.vertex_ids]
    rng.shuffle(vertices)
    edges = [
        (rename[u], rename[v]) if rng.random() < 0.5 else (rename[v], rename[u])
        for u, v in g.edges
    ]
    rng.shuffle(edges)
    return ReebGraph(vertices, edges)


def test_natural_correspondence_matches_two_pass_reference():
    rng = random.Random(9090)
    theta = ReebGraph([("a", 0), ("b", 1), ("c", 2)], [("a", "b")] * 3 + [("b", "c")])
    graphs = [cycle(), theta, y_graph()]
    graphs += [random_graph(rng, n_critical=rng.randint(3, 7)) for _ in range(12)]
    # dyadic copies, sampled at 1/3 as well: their samples and images land
    # on thirds, off both graphs' lattices
    dyadic_rng = random.Random(4343)
    thirds = [dyadic(g, dyadic_rng) for g in graphs[3:9]]
    jitter_rng = random.Random(4242)
    checked = flipped = at_thirds = 0
    third = (F(1, 3),)
    for g, extra in [(g, ()) for g in graphs] + [(g, third) for g in thirds]:
        # the identity onto a copy with fresh distinct values: every edge
        # whose ends change order runs the other way in the copy
        levels = jitter_rng.sample(range(1, 8 * len(g.vertex_ids)), len(g.vertex_ids))
        jitter = g.with_values({v: F(k, 4) for v, k in zip(g.vertex_ids, levels)})
        flipped += sum(a != b for a, b in zip(g.edges, jitter.edges))
        pairs = [(jitter, [{v: v for v in g.vertex_ids}])]
        for _ in range(3):
            h = shuffled_copy(g, rng)
            pairs.append((h, structure_isomorphisms(g, h, limit=4)))
        for h, sigmas in pairs:
            for sigma in sigmas:
                for resolution in (None, g.span() / 5, *extra):
                    got = natural_correspondence(g, h, sigma, resolution)
                    want = reference_natural_correspondence(g, h, sigma, resolution)
                    assert list(got.phi.items()) == list(want.phi.items())
                    assert list(got.psi.items()) == list(want.psi.items())
                    assert got.resolution == want.resolution
                    checked += 1
                    at_thirds += resolution in extra
    assert checked >= 120
    assert at_thirds >= 30
    assert flipped >= 20


def test_natural_map_onto_a_level_edge_matches_reference():
    # a graph with a level edge is not canonical, but it is a ReebGraph: an
    # edge sample mapped onto that edge lands on the edge's lower end
    seg = segment(0, 1)
    flat = ReebGraph([("bot", 0), ("top", 0)], [("bot", "top")])
    ident = {"bot": "bot", "top": "top"}
    got = natural_correspondence(seg, flat, ident, F(1, 4))
    want = reference_natural_correspondence(seg, flat, ident, F(1, 4))
    assert list(got.phi.items()) == list(want.phi.items())
    assert list(got.psi.items()) == list(want.psi.items())
    assert set(got.phi.values()) == {flat.vertex_point("bot"), flat.vertex_point("top")}


def test_natural_correspondence_errors_match_reference():
    y = y_graph()
    # a -- c is an edge of Y, but its image a -- b is not
    swap = {"a": "a", "b": "c", "c": "b", "d": "d"}
    # the map reaches one of the cycle's two arcs and leaves the other
    ident = {"bot": "bot", "top": "top"}
    seg = ReebGraph([("bot", 0), ("top", 3)], [("bot", "top")])
    for g1, g2, vmap in ((y, y, swap), (seg, cycle(), ident)):
        for build in (natural_correspondence, reference_natural_correspondence):
            with pytest.raises(ValueError, match="does not carry edges to edges"):
                build(g1, g2, vmap)


def test_a_vertex_map_that_is_no_bijection_is_one_error():
    # a map that missed a vertex once ended in a KeyError in the edge matching
    y = y_graph()
    path = ReebGraph([("a", 0), ("b", 1), ("c", 2)], [("a", "b"), ("b", "c")])
    cases = (
        (y, {"a": "a"}),
        (y, {"a": "a", "b": "b", "c": "c", "d": "zz"}),
        (path, {"a": "a", "b": "b", "c": "c", "d": "c"}),
    )
    for g2, vmap in cases:
        for build in (natural_correspondence, value_shift_upper):
            with pytest.raises(ValueError, match="bijection between the vertex sets"):
                build(y, g2, vmap)
