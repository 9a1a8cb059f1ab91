"""Span tracing around the program's layer boundaries, from outside it.

`Tracer.install` replaces every public function of the traced `reebmetrics`
modules with a timing wrapper, in every module that binds it, so calls one
layer makes into another through a module-level name (for example
`reebmetrics.distortion.travel_distance`) are recorded too. `uninstall`
puts the original functions back, so untraced rounds run the program as
shipped. Spans (name, start, end, parent) are kept in flat arrays and
written out once at the end; counts are taken at the same boundaries.
Each span name starts with its layer, the module the function lives in.
"""

from __future__ import annotations

import array
import functools
import gzip
import importlib
import inspect
import time
from collections import defaultdict
from typing import Callable

# The layers, in the program's own module names. `diagram` and `rationals`
# are left out on purpose: their functions (`linf`, `to_fraction`, ...) run
# inside the innermost loops, where a span per call would time the tracer.
LAYERS = (
    "graph",
    "persistence",
    "bottleneck",
    "operators",
    "distortion",
    "paths",
    "isomorphism",
    "generators",
    "experiments",
    "fileio",
)
ALL_MODULES = LAYERS + ("diagram", "rationals", "cli", "__init__")


def _cells(c, args, kwargs, result):
    g = args[0]
    c["persistence.cells"] += 2 * (len(g.vertex_ids) + len(g.edges))


def _removed(c, args, kwargs, result):
    c["graph.canonicalize.removed"] += len(args[0].vertex_ids) - len(result.vertex_ids)


def _points(c, args, kwargs, result):
    c["bottleneck.points"] += len(args[0]) + len(args[1])


def _moves(c, args, kwargs, result):
    c["operators.moves"] += len(result.moves)


def _samples(c, args, kwargs, result):
    c["distortion.samples"] += len(result.phi) + len(result.psi)


def _sample_pairs(c, args, kwargs, result):
    corr = args[2] if len(args) > 2 else kwargs["c"]
    n = len(corr.phi) + len(corr.psi)
    c["distortion.sample_pairs"] += n * (n - 1) // 2


def _segments(c, args, kwargs, result):
    c["paths.segments"] += len(result.per_step)


def _found(c, args, kwargs, result):
    c["isomorphism.structure_isomorphisms.found"] += len(result)


def _bytes(c, args, kwargs, result):
    c["fileio.parse_graph_text.bytes"] += len(args[0].encode())


# Counts beyond calls and failures, each taken where the work happens.
COUNTERS: dict[str, Callable] = {
    "persistence.extended_diagram": _cells,
    "graph.canonicalize": _removed,
    "bottleneck.bottleneck": _points,
    "operators.simplify": _moves,
    "distortion.natural_correspondence": _samples,
    "distortion.distortion": _sample_pairs,
    "paths.path_length": _segments,
    "isomorphism.structure_isomorphisms": _found,
    "fileio.parse_graph_text": _bytes,
}


def _span_name(name: str, args: tuple) -> str:
    # one span name per suite, so each suite's time is reported on its own
    if name == "experiments.run_experiment" and args:
        return f"experiments.{args[0]}"
    return name


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.parent = array.array("i")
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # ---- recording ----

    def _open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn: Callable, name: str) -> Callable:
        counter = COUNTERS.get(name)
        counts = self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = _span_name(name, args)
            idx = self._open(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                counts[span + ".failed"] += 1
                raise
            finally:
                counts[span + ".calls"] += 1
                self._close(idx)
            if counter is not None:
                counter(counts, args, kwargs, result)
            return result

        return traced

    # ---- patching ----

    def install(self) -> None:
        """Wrap each layer's public functions wherever a module binds them."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = {m: importlib.import_module(_module_path(m)) for m in ALL_MODULES}
        wrappers: dict[int, Callable] = {}
        for layer in LAYERS:
            mod = modules[layer]
            for attr, fn in vars(mod).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(fn)
                    and fn.__module__ == mod.__name__
                ):
                    wrappers[id(fn)] = self._wrap(fn, f"{layer}.{attr}")
        for mod in modules.values():
            for attr, fn in list(vars(mod).items()):
                wrapper = wrappers.get(id(fn))
                if wrapper is not None:
                    self._patched.append((mod, attr, fn))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._patched):
            setattr(mod, attr, fn)
        self._patched.clear()

    # ---- results ----

    def self_times(self) -> dict[str, float]:
        """Seconds per span name of the layer's own work under that span.

        A span's self time is its duration minus the spans of other layers
        it covers. Calls inside the same layer count as its own work: the
        layers' public functions call each other (`simplify` calls
        `clear_features`, `extended_diagram` calls
        `reduce_extended_filtration`), and subtracting those would leave the
        outer boundary with nothing.
        """
        layer = [name.split(".", 1)[0] for name in self.names]
        n = len(self.name)
        covered = array.array("d", bytes(8 * n))
        for i in range(n):
            p = self.parent[i]
            if p < 0 or layer[self.name[p]] == layer[self.name[i]]:
                continue
            # i is a top-level call into another layer for p and for every
            # enclosing span of p's layer up to where that layer was entered
            duration = self.end[i] - self.start[i]
            outer = layer[self.name[p]]
            while p >= 0 and layer[self.name[p]] == outer:
                covered[p] += duration
                p = self.parent[p]
        out: dict[str, float] = defaultdict(float)
        for i in range(n):
            out[self.names[self.name[i]]] += self.end[i] - self.start[i] - covered[i]
        return out

    def write(self, path) -> None:
        """Spans as gzipped tab-separated lines: name, start, end, parent."""
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("index\tname\tstart_s\tend_s\tparent\n")
            for i in range(len(self.name)):
                out.write(
                    f"{i}\t{self.names[self.name[i]]}\t{self.start[i] - t0:.9f}"
                    f"\t{self.end[i] - t0:.9f}\t{self.parent[i]}\n"
                )


def _module_path(name: str) -> str:
    return "reebmetrics" if name == "__init__" else f"reebmetrics.{name}"
