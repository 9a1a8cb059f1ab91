"""Time one layer of the library on a seeded size ladder of comb pairs.

Each rung is `comb(Random(1), teeth)` from `perfbench/gen.py` and its copy
`jitter(comb, Random(2), 8)`, each value moved by at most 1/32, parsed
through `parse_graph_text`. The clock times one call of the layer, the best
of 3 when one call takes under a second:

* `bottleneck` (the default): `graph_bottleneck` of the comb against the
  copy, both extended diagrams and the matching; its value is the distance.
* `full_transform`: `full_transform` of the copy at alpha 1/32 with an
  anchor at every value of the comb, the recovery the `transform` workload
  checks, at size; its value is the certificate.

Every rung runs in a child process of its own, which limits its own
address space with `RLIMIT_AS`; the parent gives it a wall-clock limit. So
a rung that runs out of memory or time is a recorded outcome,
`over-memory` or `over-time`, next to the `ok` ones, and each row holds the
child's max RSS as the kernel reports it to the parent.

Standard library only; the generator is imported from `perfbench/`
unchanged, and the library from this checkout's `src/`.

    python ladder/run.py                           # 500, 2000, 5000 and 50 000 teeth
    python ladder/run.py --teeth 500               # one rung
    python ladder/run.py --layer full_transform    # 300, 2000, 10 000 and 50 000 teeth

Prints one JSON object: the limits, the Python version and one row per rung.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from gen import DENOM, comb, jitter, to_text  # noqa: E402

from reebmetrics import (  # noqa: E402
    CriticalValues,
    TransformParams,
    full_transform,
    graph_bottleneck,
)
from reebmetrics.fileio import parse_graph_text  # noqa: E402

RUNGS = {  # each layer's default rungs, in teeth
    "bottleneck": (500, 2000, 5000, 50_000),
    "full_transform": (300, 2000, 10_000, 50_000),
}
ALPHA = Fraction(1, 32)  # the jitter is at most alpha, so 18 alpha bands fit every gap
MEMORY_GB = 3  # each child's RLIMIT_AS
TIME_LIMIT_S = 300  # each child's wall clock
OVER_MEMORY = 3  # the child's exit code when it raises MemoryError


def _comb_pair(teeth: int):
    """The rung's generator graphs: the comb and its jittered copy."""
    g = comb(random.Random(1), teeth)
    return g, jitter(g, random.Random(2), 8)


def _operation(layer: str, teeth: int):
    """The rung's timed call, on graphs parsed from the generator's text."""
    g, noisy = _comb_pair(teeth)
    if layer == "bottleneck":
        g1, g2 = (parse_graph_text(to_text(x)) for x in (g, noisy))
        return lambda: graph_bottleneck(g1, g2)
    anchors = CriticalValues(tuple(Fraction(v, DENOM) for v in sorted(g.values.values())))
    params = TransformParams(ALPHA, anchors)
    copy = parse_graph_text(to_text(noisy))
    return lambda: full_transform(copy, params).certificate


def child(layer: str, teeth: int) -> None:
    """Run one rung under the memory limit and print its value and seconds."""
    limit = MEMORY_GB << 30
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    try:
        operation = _operation(layer, teeth)
        times = []
        while not times or (len(times) < 3 and min(times) < 1):
            start = time.perf_counter()
            value = operation()
            times.append(time.perf_counter() - start)
    except MemoryError:
        sys.exit(OVER_MEMORY)
    print(json.dumps({"value": str(value), "seconds": round(min(times), 4)}))


def rung(layer: str, teeth: int) -> dict:
    """Start the rung's child, wait for it at most `TIME_LIMIT_S`, and read
    its outcome and its max RSS from `os.wait4`."""
    vertices = len(_comb_pair(teeth)[0].values)
    command = [sys.executable, __file__, "--layer", layer, "--child", str(teeth)]
    with tempfile.TemporaryFile("w+") as out, tempfile.TemporaryFile("w+") as err:
        proc = subprocess.Popen(command, stdout=out, stderr=err, text=True)
        deadline = time.monotonic() + TIME_LIMIT_S
        timed_out = False
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                proc.kill()
                timed_out = True
                _, status, usage = os.wait4(proc.pid, 0)
                break
            time.sleep(0.02)
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        row = {
            "layer": layer,
            "family": "comb",
            "teeth": teeth,
            "vertices": vertices,
            "seconds": None,
            "max_rss_mb": round(usage.ru_maxrss / 1024, 1),
        }
        if timed_out:
            row["outcome"] = "over-time"
        elif proc.returncode == OVER_MEMORY:
            row["outcome"] = "over-memory"
        elif proc.returncode == 0:
            row.update(json.loads(out.read()), outcome="ok")
        else:
            row.update(outcome="error", stderr=err.read()[-500:])
    return row


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--layer", choices=sorted(RUNGS), default="bottleneck")
    parser.add_argument("--teeth", type=int, action="append", help="a rung (repeatable)")
    parser.add_argument("--child", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child is not None:
        child(args.layer, args.child)
        return
    rows = [rung(args.layer, teeth) for teeth in args.teeth or RUNGS[args.layer]]
    print(
        json.dumps(
            {
                "python": platform.python_version(),
                "memory_gb": MEMORY_GB,
                "time_limit_s": TIME_LIMIT_S,
                "rows": rows,
            },
            indent=2,
        )
    )


if __name__ == "__main__":
    main()
