"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload certify --seed 3 --seconds 25 --trace 0

Run from the root of a checkout: the program is imported from its `src/`
directory and nowhere else. The metric names and units come from
`BENCHMARK.json` next to `src/`.

A run sets its inputs up several times and reports the median set-up
time, then repeats whole rounds of the workload's operations until
`--seconds` have passed. With `--trace 0` the program runs as shipped and
the run reports the end-to-end metrics. With `--trace 1` every operation
runs untraced and then traced; the run reports the per-layer metrics (per
round; for the layers set-up calls, per set-up) and the tracing overhead,
and writes every span to `.bench_out/trace-<workload>-seed<seed>-*.tsv.gz`.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SLICE_S = 0.1  # set-up repeats this long at the start and after each round
GAUGE_REF_S = 0.001  # the calibration kernel's time at the reference speed


def load_program() -> dict:
    """Import `reebmetrics` from the checkout's `src/`; exit if it is absent."""
    package = ROOT / "src" / "reebmetrics" / "__init__.py"
    spec = ROOT / "BENCHMARK.json"
    if not package.is_file() or not spec.is_file():
        sys.exit(f"perfbench: needs {package} and {spec}; run from a full checkout")
    sys.path[:0] = [str(package.parent.parent), str(HERE)]
    import reebmetrics

    if Path(reebmetrics.__file__).resolve() != package.resolve():
        sys.exit(f"perfbench: imported reebmetrics from {reebmetrics.__file__}, not {package}")
    return json.loads(spec.read_text())


def gauge() -> float:
    """Seconds the fixed calibration kernel takes right now (median of 3)."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _kernel() -> None:
    # pure Python in the program's own mix: Fraction arithmetic, tuple keys,
    # dict stores; it never calls the program
    total, table = Fraction(0), {}
    for i in range(1, 400):
        total += Fraction(i % 7, i % 97 + 1)
        table[(i % 50, i % 13)] = total


def time_op(op, tracer):
    """Run one operation, timing only the calls into the program.

    Returns the latency scaled to the reference machine speed (the clock's
    latency times GAUGE_REF_S over the calibration kernel's time just before
    and after the operation), the clock's latency, and the result or error.
    """
    before = gauge()
    if tracer is not None:
        tracer.install()
    start = time.perf_counter()
    try:
        result, error = op.run(), None
    except Exception as exc:  # a failed operation is counted, not fatal
        result, error = None, exc
    latency = time.perf_counter() - start
    if tracer is not None:
        tracer.uninstall()
    speed = GAUGE_REF_S / ((before + gauge()) / 2)
    return latency * speed, latency, result, error


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = load_program()
    import workloads
    from tracing import Tracer

    if args.workload not in workloads.WORKLOADS:
        choices = ", ".join(workloads.WORKLOADS)
        sys.exit(f"perfbench: unknown workload {args.workload!r}; choose from {choices}")
    make = workloads.WORKLOADS[args.workload]
    seen: set[str] = set()

    def log(message: str) -> None:  # each distinct message once, on stderr
        if message not in seen:
            seen.add(message)
            print(f"perfbench: {message}", file=sys.stderr)

    setup_times: list[float] = []

    def set_up(min_s: float):
        # repeated between rounds too, so the median spans the whole run and
        # not one burst of machine noise
        spent, raw = 0.0, []
        before = gauge()
        while spent == 0.0 or spent < min_s:
            start = time.perf_counter()
            state = make(args.seed), workloads.reference_graphs()
            raw.append(time.perf_counter() - start)
            spent += raw[-1]
        speed = GAUGE_REF_S / ((before + gauge()) / 2)
        setup_times.extend(t * speed for t in raw)
        return state

    rnd, reference = set_up(SETUP_SLICE_S)

    tracer = setup_tracer = None
    if args.trace:
        # one more set-up, traced, for the layers set-up calls (fileio)
        setup_tracer = Tracer()
        setup_tracer.install()
        make(args.seed)
        workloads.reference_graphs()
        setup_tracer.uninstall()
        # every operation then runs untraced and traced, back to back, so
        # the overhead compares the same work under the same load
        tracer = Tracer()
    passes = (None, tracer) if tracer is not None else (None,)
    busy = {False: 0.0, True: 0.0}  # clock seconds in untraced / traced calls
    latencies: list[float] = []  # untraced operations only, scaled
    raw_latencies: list[float] = []  # the same, as the clock read them
    attempted = failed = rounds = 0
    correct = True
    first_guards = None
    start = time.perf_counter()
    deadline = start + args.seconds
    def more() -> bool:  # whole rounds only: stop at the boundary nearest the deadline
        now = time.perf_counter()
        return rounds == 0 or deadline - now > (now - start) / (2 * rounds)

    while more():
        guards: dict[str, Fraction] = defaultdict(Fraction)
        for op in rnd.ops:
            for t in passes:
                latency, raw, result, error = time_op(op, t)
                attempted += 1
                busy[t is not None] += raw  # back to back: the clock compares them fairly
                if t is None:
                    latencies.append(latency)
                    raw_latencies.append(raw)
                if error is not None:
                    failed += 1
                    log(f"failed {op.label}: {type(error).__name__}: {str(error)[:120]}")
                    continue
                try:
                    for name, value in op.check(result).items():
                        if t is None:
                            guards[name] += value
                except Exception as exc:  # a wrong output makes the run incorrect
                    correct = False
                    log(f"wrong output {op.label}: {type(exc).__name__}: {exc}")
        rounds += 1
        set_up(SETUP_SLICE_S)
        if first_guards is None:
            first_guards = guards
        elif guards != first_guards:
            correct = False
            log("quality guards differ between rounds of the same operations")

    if tracer is None:
        measured = dict(workloads.reference_guards(reference))
        measured.update({k: v for k, v in first_guards.items() if k in rnd.owned})
        measured.update(
            setup_s=statistics.median(setup_times),
            ops_per_s=len(latencies) / sum(latencies),
            op_p50_ms=1000 * statistics.median(latencies),
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        )
        wanted = spec["end_to_end"]
    else:
        measured = defaultdict(float)  # a layer the workload never calls reads 0
        for t, per in ((setup_tracer, 1), (tracer, rounds)):  # per set-up, per round
            measured.update({f"{name}.s": s / per for name, s in t.self_times().items()})
            measured.update({name: n / per for name, n in t.counts.items()})
        measured["trace.overhead"] = 100 * (busy[True] - busy[False]) / busy[False]
        out = ROOT / ".bench_out"
        out.mkdir(exist_ok=True)
        setup_tracer.write(out / f"trace-{args.workload}-seed{args.seed}-setup.tsv.gz")
        tracer.write(out / f"trace-{args.workload}-seed{args.seed}-rounds.tsv.gz")
        wanted = spec["per_layer"]

    print(
        f"perfbench: {args.workload} seed {args.seed}: {attempted} ops "
        f"({failed} failed), {rounds} rounds, {sum(raw_latencies):.2f} s by the clock, "
        f"op p50 {1000 * statistics.median(raw_latencies):.1f} ms by the clock",
        file=sys.stderr,
    )
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    m["name"]: {"value": float(measured[m["name"]]), "unit": m["unit"]}
                    for m in wanted
                },
            }
        )
    )


if __name__ == "__main__":
    main()
