"""Acceptance suite: one test per criterion, exact arithmetic, desk scale.

Each test prints a PASS line with its headline numbers so the suite doubles
as a human-readable report when run with `pytest -s tests/test_acceptance.py`.
"""

import random

from reebmetrics import (
    extended_diagram,
    figure1_left,
    figure1_right,
    graph_bottleneck,
    intrinsic_upper,
    is_level_isomorphic,
    random_graph,
    reduce_extended_filtration,
)
from reebmetrics.experiments import ExperimentConfig, run_experiment
from reebmetrics.persistence import _diagram_from_sweeps


def report(line: str) -> None:
    print(line)


def test_criterion_1_oracle_equivalence():
    """Matrix reduction and union-find agree exactly on 100 random graphs."""
    rng = random.Random(1001)
    for trial in range(100):
        g = random_graph(rng, n_critical=rng.randint(4, 9))
        d = reduce_extended_filtration(g)
        swept = _diagram_from_sweeps(g)
        assert d.of_kind("Ord0") == swept.of_kind("Ord0"), trial
        assert d.of_kind("Rel1") == swept.of_kind("Rel1"), trial
        ext0 = d.of_kind("Ext0")
        assert len(ext0) == 1
        assert (ext0[0].birth, ext0[0].death) == (g.min_value(), g.max_value())
        assert len(d.of_kind("Ext1")) == len(g.edges) - len(g.vertex_ids) + 1
    report("PASS criterion 1 (oracle equivalence): 100/100 exact")


def test_criterion_2_stability():
    """200 jitter trials satisfy bottleneck <= jitter bound, exactly.

    Asserted from the machine-readable record stream, which also checks the
    numbers it carries.
    """
    import json

    rep = run_experiment("stability", ExperimentConfig(seed=1, trials=200))
    records = [json.loads(line) for line in rep.to_records_text().splitlines()]
    assert len(records) == 200
    for record in records:
        assert record["pass"] is True
        from reebmetrics.rationals import parse_value

        assert parse_value(record["bottleneck"]) <= parse_value(record["delta"])
    report(f"PASS criterion 2 (stability): {len(records)}/200 exact")


def test_criterion_3_snapping():
    """Merged-graph diagrams equal snapped diagrams on 100 random bands."""
    rep = run_experiment("snapping", ExperimentConfig(seed=1, trials=100))
    good, total = rep.counts
    assert rep.passed, rep.to_text()
    report(f"PASS criterion 3 (snapping principle): {good}/{total} exact multiset equality")


def test_criterion_4_simplification_contract():
    """Clearance, bottleneck <= 4*alpha, certificate <= 2*alpha on 100 trials."""
    rep = run_experiment("simplify-contract", ExperimentConfig(seed=1, trials=100))
    good, total = rep.counts
    assert rep.passed, rep.to_text()
    report(f"PASS criterion 4 (simplification contract): {good}/{total} exact")


def test_criterion_5_recovery():
    """50 recoveries with K = 1/22, epsilon at half the local-scale bound."""
    rep = run_experiment("recovery", ExperimentConfig(seed=1, trials=50))
    good, total = rep.counts
    assert rep.passed, rep.to_text()
    applicable = sum(1 for r in rep.records if r.values.get("applicable") == "True")
    assert applicable == total  # the jitter scale keeps every trial meaningful
    report(f"PASS criterion 5 (recovery): {good}/{total} isomorphic recoveries")


def test_criterion_6_figure1():
    """Equal diagrams, zero bottleneck, non-isomorphic, positive intrinsic bound."""
    left, right = figure1_left(), figure1_right()
    assert extended_diagram(left) == extended_diagram(right)
    db = graph_bottleneck(left, right)
    assert db == 0
    assert not is_level_isomorphic(left, right)
    upper = intrinsic_upper(left, right)
    assert upper > 0
    report(
        "PASS criterion 6 (figure-1 pair): diagrams equal, bottleneck 0, "
        f"non-isomorphic, intrinsic upper bound {upper}"
    )


def test_criterion_7_lowerbound_consistency():
    """bottleneck <= 2 * certified distortion upper bound on 100 pairs."""
    rep = run_experiment("lowerbound-consistency", ExperimentConfig(seed=1, trials=100))
    good, total = rep.counts
    assert rep.passed, rep.to_text()
    report(f"PASS criterion 7 (lower-bound consistency): {good}/{total} exact")


def test_criterion_8_path_equivalence():
    """Refinement monotonicity and per-segment two-sided bounds, n in 2..16."""
    rep = run_experiment("path-equivalence", ExperimentConfig(seed=1, trials=100))
    good, total = rep.counts
    assert rep.passed, rep.to_text()
    report(f"PASS criterion 8 (path equivalence): {good}/{total} checks")


def test_criterion_9_figure5_sequence():
    """n + 2 critical values and decreasing consecutive bottleneck distances."""
    rep = run_experiment("figure5", ExperimentConfig(seed=1, trials=1))
    good, total = rep.counts
    assert rep.passed, rep.to_text()
    report(f"PASS criterion 9 (figure-5 sequence): {good}/{total} checks for n = 1..8")
