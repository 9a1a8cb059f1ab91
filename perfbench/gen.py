"""Seeded constructive Reeb-graph families for the benchmark.

Every value is an integer count of 1/256 steps (a dyadic value), so the
text the program parses holds short exact decimals and the benchmark's own
checks stay exact integer arithmetic. Structure depends only on the size
arguments; the seed moves values, the order of features and the jitter, so
inputs of one size cost about the same under every seed.

Families:

* `comb`: a trunk with teeth. Downward teeth give one Ord0 point each; the
  same comb with upward teeth gives Rel1 points (the negated graph).
* `ladder`: two rails joined at both ends and by rungs; one Ext1 point per
  loop.
* `mixed`: a trunk of slots, each holding a downward tooth, an upward tooth
  or a loop made of two parallel arcs, in seeded order.
* `subdivide`: any graph with pass-through vertices added on every arc.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

DENOM = 256  # values are ints in units of 1/DENOM
UNIT = DENOM  # one value unit
SLOT = 4 * UNIT  # every feature lives in its own band of this height


@dataclass
class Graph:
    """Vertex values (in 1/DENOM units) and edges, as the text will hold them."""

    values: dict[str, int] = field(default_factory=dict)
    edges: list[tuple[str, str]] = field(default_factory=list)

    def add(self, vid: str, value: int) -> str:
        if vid in self.values:
            raise ValueError(f"duplicate vertex {vid}")
        self.values[vid] = value
        return vid

    def copy(self) -> "Graph":
        return Graph(dict(self.values), list(self.edges))


def fmt(value: int) -> str:
    """Exact decimal text of value / DENOM (DENOM is a power of two)."""
    sign = "-" if value < 0 else ""
    whole, rest = divmod(abs(value), DENOM)
    if not rest:
        return f"{sign}{whole}"
    digits = DENOM.bit_length() - 1
    frac = str(rest * 5**digits).rjust(digits, "0").rstrip("0")
    return f"{sign}{whole}.{frac}"


def to_text(g: Graph) -> str:
    lines = [f"v {vid} {fmt(val)}" for vid, val in g.values.items()]
    lines += [f"e {u} {v}" for u, v in g.edges]
    return "\n".join(lines) + "\n"


TALL = (64, 192)  # feature heights of 1 to 3 value units, in 1/64 units


def _depth(rng: random.Random, heights: tuple[int, int] = TALL) -> int:
    """A feature height on the 1/64 grid, within `heights` (in 1/64 units)."""
    return rng.randint(*heights) * (UNIT // 64)


def comb(
    rng: random.Random,
    teeth: int,
    up: bool = False,
    heights: tuple[tuple[int, int], ...] = (TALL,),
) -> Graph:
    """Trunk from 0 to just above SLOT*(teeth+1), one tooth per slot.

    Tooth i takes its height from heights[i % len(heights)], so a comb can
    mix height classes in a fixed pattern.
    """
    g = Graph()
    prev = g.add("b", 0)
    for i in range(1, teeth + 1):
        base = i * SLOT
        d = _depth(rng, heights[i % len(heights)])
        if up:
            fork = g.add(f"f{i}", base + UNIT // 2)
            g.add(f"t{i}", base + UNIT // 2 + d)
        else:
            fork = g.add(f"f{i}", base + SLOT - UNIT // 2)
            g.add(f"t{i}", base + SLOT - UNIT // 2 - d)
        g.edges.append((prev, fork))
        g.edges.append((fork, f"t{i}"))
        prev = fork
    g.edges.append((prev, g.add("top", (teeth + 1) * SLOT + UNIT // 2)))
    return g


def ladder(rng: random.Random, rungs: int) -> Graph:
    """Rails a_i at ~SLOT*i and c_i at ~SLOT*i + SLOT/2, rung a_i -> c_i."""
    g = Graph()
    wiggle = 3 * UNIT // 4
    a = c = g.add("b", 0)
    for i in range(1, rungs + 1):
        ai = g.add(f"a{i}", i * SLOT + rng.randint(-wiggle, wiggle))
        ci = g.add(f"c{i}", i * SLOT + SLOT // 2 + rng.randint(-wiggle, wiggle))
        g.edges += [(a, ai), (c, ci), (ai, ci)]
        a, c = ai, ci
    top = g.add("top", (rungs + 1) * SLOT)
    g.edges += [(a, top), (c, top)]
    return g


def mixed(rng: random.Random, down: int, up: int, loops: int) -> Graph:
    """Slots holding down teeth, up teeth and two-arc loops in seeded order."""
    kinds = ["down"] * down + ["up"] * up + ["loop"] * loops
    rng.shuffle(kinds)
    g = Graph()
    prev = g.add("b", 0)
    for i, kind in enumerate(kinds, start=1):
        base = i * SLOT
        d = _depth(rng)
        if kind == "down":
            fork = g.add(f"f{i}", base + SLOT - UNIT // 2)
            g.edges += [(prev, fork), (fork, g.add(f"t{i}", base + SLOT - UNIT // 2 - d))]
            prev = fork
        elif kind == "up":
            fork = g.add(f"f{i}", base + UNIT // 2)
            g.edges += [(prev, fork), (fork, g.add(f"t{i}", base + UNIT // 2 + d))]
            prev = fork
        else:
            split = g.add(f"s{i}", base + UNIT // 2)
            join = g.add(f"j{i}", base + UNIT // 2 + d)
            g.edges += [(prev, split), (split, join), (split, join)]
            prev = join
    g.edges.append((prev, g.add("top", (len(kinds) + 1) * SLOT + UNIT // 2)))
    return g


def subdivide(g: Graph, rng: random.Random, per_edge: int) -> Graph:
    """Add per_edge pass-through vertices inside every arc, at distinct values."""
    out = Graph(dict(g.values))
    for k, (u, v) in enumerate(g.edges):
        lo, hi = sorted((g.values[u], g.values[v]))
        picks = sorted(rng.sample(range(lo + 1, hi), per_edge))
        chain = [u if g.values[u] == lo else v]
        for j, val in enumerate(picks):
            chain.append(out.add(f"p{k}_{j}", val))
        chain.append(v if chain[0] == u else u)
        out.edges += list(zip(chain, chain[1:]))
    return out


def jitter(g: Graph, rng: random.Random, amount: int, grain: int = 1) -> Graph:
    """Same structure; every value moves by a multiple of `grain` of size at
    most `amount`.

    Callers keep `amount` below half the smallest gap between values, so the
    value order, and with it every arc's orientation, is kept.
    """
    out = g.copy()
    for vid in out.values:
        out.values[vid] += rng.randint(-amount // grain, amount // grain) * grain
    return out


def off_grid(g: Graph, step: int) -> Graph:
    """Move every value by at most step/2 so that no arc spans a multiple of
    `step` (nor comes within step/3 of one).

    Vertices get one of three residues modulo `step`, different at the two
    ends of every arc (a greedy colouring), so every span sits at least a
    third of `step` away from the multiples. A copy jittered by less than
    step/6 per vertex then samples each arc into as many pieces as the
    original does at resolution `step`. Arcs must span at least `step`.
    """
    residues = (0, step // 3, 2 * step // 3)
    colour: dict[str, int] = {}
    neighbours: dict[str, set[str]] = {v: set() for v in g.values}
    for u, v in g.edges:
        neighbours[u].add(v)
        neighbours[v].add(u)
    out = g.copy()
    for vid, value in g.values.items():
        taken = {colour[w] for w in neighbours[vid] if w in colour}
        colour[vid] = min(c for c in range(3) if c not in taken)
        r = residues[colour[vid]]
        out.values[vid] = value + (r - value + step // 2) % step - step // 2
    return out
