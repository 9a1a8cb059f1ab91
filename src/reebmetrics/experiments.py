"""Named experiment suites verifying the theory end to end at desk scale.

Every experiment draws exact rational instances from a seeded generator,
checks its statement with exact arithmetic, and reports one record per
trial. Reports are deterministic functions of (seed, config).

A runner yields one `(index, passed, values)` triple per trial and knows
nothing of records; `run_experiment` names each trial after its suite's
key in `_SUITES` and formats its values into a `TrialRecord`.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Callable, Iterator, Optional

from .bottleneck import graph_bottleneck
from .distortion import certify_fd_upper, projection_correspondence, value_shift_upper
from .generators import (
    _VALUE_RANGE,
    cycle,
    figure1_left,
    figure1_right,
    figure5,
    random_graph,
    segment,
    y_graph,
)
from .graph import ReebGraph, critical_values, validate
from .isomorphism import is_level_isomorphic
from .operators import (
    MergeParams,
    TransformParams,
    full_transform,
    merge,
    simplify,
    snap_diagram,
)
from .paths import GraphPath, contraction_path, intrinsic_upper, linear_path, path_length
from .persistence import extended_diagram
from .rationals import format_value

_CRITICAL_COUNTS = (4, 8)  # a random instance has 4 to 8 critical values
_K = Fraction(1, 22)  # the local-equivalence constant of the recovery theorem
_EPSILON_FRACTION = Fraction(1, 2)  # recovery scale, as a share of its bound

_Trial = tuple[int, bool, dict[str, object]]  # (index, passed, values)


@dataclass(frozen=True)
class ExperimentConfig:
    """`trials=None` runs the suite's own trial count, as `reeb experiment` does."""

    seed: int = 1
    trials: Optional[int] = None

    def __post_init__(self) -> None:
        if self.trials is not None and self.trials < 1:
            raise ValueError("trials must be positive")


@dataclass(frozen=True)
class TrialRecord:
    experiment: str
    index: int
    passed: bool
    values: dict[str, str] = field(default_factory=dict)

    def to_json(self) -> str:
        payload = {
            "experiment": self.experiment,
            "trial": self.index,
            "pass": self.passed,
        }
        payload.update(self.values)
        return json.dumps(payload, sort_keys=True)


@dataclass(frozen=True)
class ExperimentReport:
    name: str
    records: tuple[TrialRecord, ...]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.records)

    @property
    def counts(self) -> tuple[int, int]:
        good = sum(1 for r in self.records if r.passed)
        return good, len(self.records)

    def to_records_text(self) -> str:
        return "\n".join(r.to_json() for r in self.records) + "\n"

    def to_text(self) -> str:
        good, total = self.counts
        status = "PASS" if self.passed else "FAIL"
        lines = [f"{status} {self.name}: {good}/{total} trials"]
        for r in self.records:
            if not r.passed:
                lines.append(f"  FAIL trial {r.index}: {r.values}")
        return "\n".join(lines) + "\n"


def _fmt(values: dict[str, object]) -> dict[str, str]:
    out = {}
    for key, val in values.items():
        if isinstance(val, Fraction):
            out[key] = format_value(val)
        else:
            out[key] = str(val)
    return out


def _random_instance(rng: random.Random) -> ReebGraph:
    return random_graph(rng, n_critical=rng.randint(*_CRITICAL_COUNTS))


def _min_edge_gap(g: ReebGraph) -> Fraction:
    return min(abs(g.value(u) - g.value(v)) for u, v in g.edges)


def _jitter(g: ReebGraph, rng: random.Random, bound: Fraction) -> ReebGraph:
    """Independent per-vertex jitter of magnitude <= bound, kept valid."""
    safe = min(bound, _min_edge_gap(g) / 4)
    values = {
        v: g.value(v) + safe * Fraction(rng.randint(-64, 64), 64)
        for v in g.vertex_ids
    }
    out = g.with_values(values)
    if not validate(out).ok:  # pragma: no cover - jitter bound guarantees this
        raise AssertionError("jitter produced an invalid graph")
    return out


# ---------------------------------------------------------------------------
# individual experiments: each runner yields (index, passed, values)
# ---------------------------------------------------------------------------


def _run_stability(config: ExperimentConfig) -> Iterator[_Trial]:
    rng = random.Random(config.seed)
    for i in range(config.trials):
        g = _random_instance(rng)
        delta = _min_edge_gap(g) / 4 * Fraction(rng.randint(1, 64), 64)
        perturbed = _jitter(g, rng, delta)
        db = graph_bottleneck(g, perturbed)
        yield i, db <= delta, {"delta": delta, "bottleneck": db}


def _run_snapping(config: ExperimentConfig) -> Iterator[_Trial]:
    rng = random.Random(config.seed)
    lo, hi = _VALUE_RANGE
    for i in range(config.trials):
        g = _random_instance(rng)
        a = lo - 1 + Fraction(rng.randint(0, 1000), 1000) * (hi - lo + 2)
        b = a + Fraction(rng.randint(0, 1000), 1000) * (hi - a + 1)
        params = MergeParams(a, b)
        merged = merge(g, params)
        left = extended_diagram(merged)
        right = snap_diagram(extended_diagram(g), params)
        yield i, left == right, {"a": a, "b": b, "points": len(left)}


def _run_simplify_contract(config: ExperimentConfig) -> Iterator[_Trial]:
    rng = random.Random(config.seed)
    for i in range(config.trials):
        g = _random_instance(rng)
        alpha = g.span() / 3 * Fraction(rng.randint(1, 100), 100)
        result = simplify(g, alpha)
        out_diagram = extended_diagram(result.graph)
        clearance = all(p.diagonal_distance > alpha / 2 for p in out_diagram)
        db = graph_bottleneck(g, result.graph)
        stable = db <= 4 * alpha
        certified = result.certificate <= 2 * alpha
        yield i, clearance and stable and certified, {
            "alpha": alpha,
            "bottleneck": db,
            "certificate": result.certificate,
            "moves": len(result.moves),
            "clearance": clearance,
            "stable": stable,
            "certified": certified,
        }


def _run_recovery(config: ExperimentConfig) -> Iterator[_Trial]:
    rng = random.Random(config.seed)
    for i in range(config.trials):
        f = _random_instance(rng)
        a_f = critical_values(f).min_gap()
        eps = _EPSILON_FRACTION * a_f / (8 * (1 + 22 * _K))
        # jitter at half the bottleneck threshold keeps every trial applicable
        g = _jitter(f, rng, _K * eps / 2)
        hypothesis = value_shift_upper(f, g, {v: v for v in f.vertex_ids})
        db = graph_bottleneck(f, g)
        applicable = db < _K * eps
        result = full_transform(g, TransformParams(_K * eps, critical_values(f)))
        recovered = is_level_isomorphic(result.graph, f)
        yield i, applicable and recovered, {
            "epsilon": eps,
            "fd_hypothesis": hypothesis,
            "bottleneck": db,
            "applicable": applicable,
            "recovered": recovered,
        }


def _run_figure1(config: ExperimentConfig) -> Iterator[_Trial]:
    left = figure1_left()
    right = figure1_right()
    same_diagram = extended_diagram(left) == extended_diagram(right)
    db = graph_bottleneck(left, right)
    iso = is_level_isomorphic(left, right)
    upper = intrinsic_upper(left, right)
    passed = same_diagram and db == 0 and not iso and upper > 0
    yield 0, passed, {
        "diagram_equal": same_diagram,
        "bottleneck": db,
        "isomorphic": iso,
        "intrinsic_upper": upper,
    }


def _run_figure5(config: ExperimentConfig) -> Iterator[_Trial]:
    graphs = {n: figure5(n) for n in range(1, 10)}
    for n in range(1, 9):
        count = len(critical_values(graphs[n]))
        yield n, count == n + 2, {"check": "critical-count", "n": n, "count": count}
    previous: Optional[Fraction] = None
    for n in range(1, 8):
        db = graph_bottleneck(graphs[n], graphs[n + 1])
        height = Fraction(1, 2 ** (n + 1))
        ok = db <= height / 2 and (previous is None or db < previous)
        yield 8 + n, ok, {
            "check": "consecutive-bottleneck",
            "n": n,
            "bottleneck": db,
            "feature_height": height,
        }
        previous = db


def _run_lowerbound(config: ExperimentConfig) -> Iterator[_Trial]:
    rng = random.Random(config.seed)

    def check(
        kind: str, g1: ReebGraph, g2: ReebGraph, upper: Fraction
    ) -> tuple[bool, dict[str, object]]:
        db = graph_bottleneck(g1, g2)
        return db <= 2 * upper, {"pair": kind, "bottleneck": db, "fd_upper": upper}

    for i in range(config.trials):
        g = _random_instance(rng)
        mode = i % 3
        if mode == 0:
            bound = _min_edge_gap(g) / 4 * Fraction(rng.randint(1, 64), 64)
            other = _jitter(g, rng, bound)
            upper = value_shift_upper(g, other, {v: v for v in g.vertex_ids})
            yield i, *check("jitter", g, other, upper)
        elif mode == 1:
            alpha = g.span() / 4 * Fraction(rng.randint(1, 100), 100)
            result = simplify(g, alpha)
            yield i, *check("simplify", g, result.graph, result.certificate)
        else:
            lo, hi = _VALUE_RANGE
            a = lo + Fraction(rng.randint(0, 1000), 1000) * (hi - lo)
            width = (hi - lo) / 5 * Fraction(rng.randint(0, 100), 100)
            params = MergeParams(a, a + width)
            yield i, *check("merge", g, merge(g, params), width)

    left, right = figure1_left(), figure1_right()
    yield config.trials, *check("figure1", left, right, intrinsic_upper(left, right))
    y = y_graph()
    perturbed = y.with_values({"b": Fraction("1.05"), "c": Fraction("1.95")})
    yield config.trials + 1, *check(
        "y-perturbed",
        y,
        perturbed,
        value_shift_upper(y, perturbed, {v: v for v in y.vertex_ids}),
    )
    for offset, (name, graph) in enumerate((("y", y), ("cycle", cycle()))):
        seg = segment()
        cert = certify_fd_upper(graph, seg, projection_correspondence(graph, seg))
        yield config.trials + 2 + offset, *check(f"{name}-collapse", graph, seg, cert.upper)


def _run_path_equivalence(config: ExperimentConfig) -> Iterator[_Trial]:
    rng = random.Random(config.seed)
    refinements = (2, 4, 8, 16)
    index = itertools.count()

    def lengths(path: GraphPath) -> tuple[Fraction, Fraction, bool]:
        """Both totals, and whether every segment has d_B <= 2 * upper."""
        db, fd = path_length(path, "bottleneck"), path_length(path, "fd_upper")
        ok = all(b <= 2 * u for b, u in zip(db.per_step, fd.per_step))
        return db.total, fd.total, ok

    pair_count = max(2, config.trials // 20)
    for _ in range(pair_count):
        g = _random_instance(rng)
        bound = _min_edge_gap(g) / 4
        target_graph = _jitter(g, rng, bound)
        target = {v: target_graph.value(v) for v in g.vertex_ids}
        sums = []
        for n in refinements:
            db, _, ok = lengths(linear_path(g, target, n))
            sums.append(db)
            yield next(index), ok, {"check": "linear-segments", "n": n, "bottleneck_sum": db}
        monotone = all(a <= b for a, b in zip(sums, sums[1:]))
        yield next(index), monotone, {
            "check": "linear-refinement",
            "sums": [format_value(s) for s in sums],
        }

    for label, graph in (("figure1_left", figure1_left()), ("random", _random_instance(rng))):
        sums = []
        for n in refinements:
            db, fd, ok = lengths(contraction_path(graph, n))
            sums.append(db)
            yield next(index), ok and db <= 2 * fd, {
                "check": "contraction-segments",
                "graph": label,
                "n": n,
                "bottleneck_sum": db,
                "fd_sum": fd,
            }
        monotone = all(a <= b for a, b in zip(sums, sums[1:]))
        yield next(index), monotone, {
            "check": "contraction-refinement",
            "graph": label,
            "sums": [format_value(s) for s in sums],
        }


# suite name -> (runner, default trial count), in run order
_SUITES: dict[str, tuple[Callable[[ExperimentConfig], Iterator[_Trial]], int]] = {
    "stability": (_run_stability, 200),
    "snapping": (_run_snapping, 100),
    "simplify-contract": (_run_simplify_contract, 100),
    "recovery": (_run_recovery, 50),
    "figure1": (_run_figure1, 1),
    "figure5": (_run_figure5, 1),
    "lowerbound-consistency": (_run_lowerbound, 100),
    "path-equivalence": (_run_path_equivalence, 100),
}
EXPERIMENTS = tuple(_SUITES)


def run_experiment(name: str, config: Optional[ExperimentConfig] = None) -> ExperimentReport:
    if name not in _SUITES:
        raise ValueError(f"unknown experiment {name!r}; choose from {EXPERIMENTS}")
    runner, trials = _SUITES[name]
    config = config or ExperimentConfig()
    if config.trials is None:
        config = replace(config, trials=trials)
    records = (
        TrialRecord(name, index, passed, _fmt(values))
        for index, passed, values in runner(config)
    )
    return ExperimentReport(name, tuple(records))
