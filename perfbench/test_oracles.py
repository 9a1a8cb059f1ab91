"""The benchmark's own checks against the program, on small named graphs.

    python3 -m pytest perfbench/test_oracles.py
"""

from __future__ import annotations

import random
import sys
from fractions import Fraction
from itertools import combinations
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import pytest  # noqa: E402

import gen  # noqa: E402
import oracles  # noqa: E402
import workloads  # noqa: E402
from reebmetrics import generators  # noqa: E402
from tracing import Tracer  # noqa: E402

bottleneck = workloads.bottleneck
distortion = workloads.distortion
experiments = workloads.experiments
graph = workloads.graph
isomorphism = workloads.isomorphism
operators = workloads.operators
persistence = workloads.persistence

NAMED = {
    "Y": generators.y_graph,
    "cycle": generators.cycle,
    "figure1_left": generators.figure1_left,
    "figure1_right": generators.figure1_right,
}


@pytest.fixture(params=sorted(NAMED))
def named(request):
    return NAMED[request.param]()


def test_reference_texts_are_the_named_graphs():
    ref = workloads.reference_graphs()
    for name, make in NAMED.items():
        assert oracles.same_graph(ref[name], make())


def test_topology_counts(named):
    assert oracles.topology_counts(named) == oracles.kind_counts(
        persistence.extended_diagram(named)
    )


def test_travel_distance_sweep(named):
    samples = distortion.sample_net(named, Fraction(1, 2))
    for x, y in combinations(samples, 2):
        assert oracles.travel_distance(named, x, y) == graph.travel_distance(named, x, y)


def test_bottleneck_witness_and_bounds():
    graphs = [make() for make in NAMED.values()]
    y = NAMED["Y"]()
    graphs.append(y.with_values({"b": Fraction("1.25"), "c": Fraction("1.875")}))
    for g, h in combinations(graphs, 2):
        d1 = persistence.extended_diagram(g)
        d2 = persistence.extended_diagram(h)
        res = bottleneck.bottleneck(d1, d2)
        assert oracles.witness_cost(d1, d2, res.witness) == res.value
        assert oracles.nearest_neighbour_bound(d1, d2) <= res.value
    assert oracles.max_displacement(y, graphs[-1]) == Fraction(1, 4)


def test_figure1_pair_has_equal_diagrams():
    left = persistence.extended_diagram(NAMED["figure1_left"]())
    right = persistence.extended_diagram(NAMED["figure1_right"]())
    assert oracles.points(left) == oracles.points(right)
    assert oracles.nearest_neighbour_bound(left, right) == 0


@pytest.mark.parametrize("band", [(1, 2), (Fraction(5, 2), Fraction(9, 2)), (3, 5), (0, 8)])
def test_snapping(named, band):
    a, b = (Fraction(v) for v in band)
    params = operators.MergeParams(a, b)
    merged = operators.merge(named, params)
    d = persistence.extended_diagram(named)
    assert oracles.points(persistence.extended_diagram(merged)) == oracles.snap(d, a, b)
    assert oracles.points(operators.snap_diagram(d, params)) == oracles.snap(d, a, b)


def test_level_isomorphism_by_values():
    y = NAMED["Y"]()
    moved = y.with_values({"b": Fraction("1.5")})
    renamed = graph.ReebGraph(
        [(f"r{v}", y.value(v)) for v in y.vertex_ids],
        [(f"r{u}", f"r{v}") for u, v in y.edges],
    )
    for other in (y, moved, renamed, NAMED["cycle"]()):
        expected = isomorphism.is_level_isomorphic(y, other)
        assert oracles.level_isomorphic_distinct(y, other) == expected
    with pytest.raises(ValueError):  # figure1 repeats the value 4
        oracles.level_isomorphic_distinct(NAMED["figure1_left"](), NAMED["figure1_right"]())


def test_generated_families():
    rng = random.Random(7)
    families = [
        gen.comb(rng, 5),
        gen.comb(rng, 5, up=True),
        gen.ladder(rng, 4),
        gen.mixed(rng, 3, 3, 3),
    ]
    for base in families:
        g = workloads.parse(base, "base")
        assert graph.validate(g).ok
        assert oracles.topology_counts(g) == oracles.kind_counts(persistence.extended_diagram(g))
        sub = workloads.parse(gen.subdivide(base, rng, 3), "sub")
        assert oracles.same_graph(graph.canonicalize(sub), g)
        copy = workloads.parse(gen.jitter(base, rng, workloads.JITTER), "copy")
        assert graph.validate(copy).ok
        assert oracles.max_displacement(g, copy) <= Fraction(workloads.JITTER, gen.DENOM)


def test_off_grid_copies_keep_sample_counts():
    step = int(workloads.RESOLUTION * gen.DENOM)
    base = gen.off_grid(gen.mixed(random.Random(1), 2, 2, 2), step)

    def pieces(g):
        return [-(-abs(g.values[u] - g.values[v]) // step) for u, v in g.edges]

    g = workloads.parse(base, "base")
    assert graph.validate(g).ok
    samples = len(distortion.sample_net(g, workloads.RESOLUTION))
    rng = random.Random(2)
    for _ in range(20):
        copy = gen.jitter(base, rng, workloads.CERTIFY_JITTER)
        assert pieces(copy) == pieces(base)
        h = workloads.parse(copy, "copy")
        assert graph.validate(h).ok
        assert len(distortion.sample_net(h, workloads.RESOLUTION)) == samples


def test_suite_record_counts():
    for name in experiments.EXPERIMENTS:
        for trials in (1, 41):
            if trials > 1 and name in ("recovery", "path-equivalence"):
                continue  # slow; the count rule is exercised at one trial
            report = experiments.run_experiment(
                name, experiments.ExperimentConfig(seed=3, trials=trials)
            )
            assert len(report.records) == oracles.suite_records(name, trials)


def test_tracer_self_time_and_restore():
    g = NAMED["figure1_left"]()
    original = persistence.extended_diagram
    tracer = Tracer()
    tracer.install()
    try:
        assert persistence.extended_diagram is not original
        operators.simplify(g, Fraction(1))
    finally:
        tracer.uninstall()
    assert persistence.extended_diagram is original
    assert tracer.counts["operators.simplify.calls"] == 1
    assert tracer.counts["operators.moves"] >= 1
    assert tracer.counts["persistence.extended_diagram.calls"] >= 2
    self_times = tracer.self_times()
    assert all(t >= 0 for t in self_times.values())
    names = [tracer.names[i] for i in tracer.name]
    assert names[0] == "operators.simplify"

    def layer(i):
        return names[i].split(".")[0]

    # the root's self time excludes exactly the first span of another layer
    # on each path down from it
    covered = 0.0
    for k in range(1, len(names)):
        first = layer(k) != "operators"
        p = tracer.parent[k]
        while first and p > 0:
            first = layer(p) == "operators"
            p = tracer.parent[p]
        if first:
            covered += tracer.end[k] - tracer.start[k]
    total = tracer.end[0] - tracer.start[0]
    assert self_times["operators.simplify"] == pytest.approx(total - covered, abs=1e-9)
