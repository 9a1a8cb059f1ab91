"""No result depends on the order in which a graph's vertices were listed.

A graph holds its vertices in (level, id) order, sorted by its constructor,
so graphs built from reorderings of one vertex list give the same results:
the same written files, canonical form, diagram, merges, isomorphisms and
bounds. Each graph here, its jittered copy and its subdivision are rebuilt
with their vertex lists reversed and shuffled, and every result is compared
with the one the graphs give as built.
"""

import random
from fractions import Fraction as F

import pytest

from reebmetrics import (
    ReebGraph,
    cycle,
    figure1_left,
    figure1_right,
    figure5,
    level_isomorphism,
    random_graph,
    segment,
    structure_isomorphisms,
    y_graph,
)
from reebmetrics.fileio import graph_to_json, graph_to_text
from reebmetrics.graph import canonicalize, validate
from reebmetrics.operators import MergeParams, merge
from reebmetrics.paths import intrinsic_upper
from reebmetrics.persistence import extended_diagram


def tied_comb() -> ReebGraph:
    """Four minima at one value hanging from the top: a level isomorphism
    may map them onto each other in any order."""
    tips = [f"t{i}" for i in range(4)]
    return ReebGraph(
        [("bot", 0), *((t, 1) for t in tips), ("top", 2)],
        [("bot", "top"), *((t, "top") for t in tips)],
        name="tied_comb",
    )


GRAPHS = {
    "segment": segment,
    "cycle": cycle,
    "Y": y_graph,
    "figure1_left": figure1_left,
    "figure1_right": figure1_right,
    "tied_comb": tied_comb,
    **{f"figure5_{n}": (lambda n=n: figure5(n)) for n in range(5, 9)},
    **{f"random_{seed}": (lambda seed=seed: random_graph(seed, 4 + seed)) for seed in range(8)},
}


def jittered(g: ReebGraph, rng: random.Random) -> ReebGraph:
    """g with each value moved by at most a third of the least gap between
    two of its values, so every edge keeps its orientation."""
    levels = sorted({g.level(v) for v in g.vertex_ids})
    step = F(min(b - a for a, b in zip(levels, levels[1:])), 3 * g.scale)
    return g.with_values({v: g.value(v) + rng.randint(-1, 1) * step for v in g.vertex_ids})


def subdivided(g: ReebGraph) -> ReebGraph:
    """g with a pass-through vertex `x<i>` in the middle of edge i."""
    middles = [(f"x{i}", (g.value(u) + g.value(v)) / 2) for i, (u, v) in enumerate(g.edges)]
    edges = [e for i, (u, v) in enumerate(g.edges) for e in ((u, f"x{i}"), (f"x{i}", v))]
    return ReebGraph([*g.vertices(), *middles], edges, name=g.name)


def reorderings(g: ReebGraph, rng: random.Random) -> list[ReebGraph]:
    """g rebuilt from its vertex list reversed, and from it shuffled."""
    vertices = list(g.vertices())
    shuffled = rng.sample(vertices, len(vertices))
    return [ReebGraph(order, g.edges, name=g.name) for order in (vertices[::-1], shuffled)]


def shape(g: ReebGraph):
    return g.vertices(), g.edges


def results(g: ReebGraph, h: ReebGraph, s: ReebGraph, bands) -> dict:
    """Every result compared: of g, of g against its jittered copy h, and
    of its subdivision s."""
    return {
        "vertex_ids": g.vertex_ids,
        "text": graph_to_text(g),
        "json": graph_to_json(g),
        "diagram": extended_diagram(g).rows,
        "merges": [shape(merge(g, MergeParams(a, b))) for a, b in bands],
        "level_isomorphism": level_isomorphism(g, g),
        "structure_isomorphisms": structure_isomorphisms(g, h),
        "intrinsic_upper": (intrinsic_upper(g, h), intrinsic_upper(h, g)),
        "canonicalize": shape(canonicalize(s)),
        "validate": str(validate(s)),
    }


@pytest.mark.parametrize("name", GRAPHS)
def test_results_do_not_depend_on_the_order_of_the_vertex_list(name):
    rng = random.Random(f"vertex order {name}")
    g = GRAPHS[name]()
    h, s = jittered(g, rng), subdivided(g)
    lo, span = g.min_value(), g.span()
    bands = [sorted(lo + span * F(rng.randint(0, 32), 32) for _ in range(2)) for _ in range(4)]
    expected = results(g, h, s, bands)
    for copies in zip(reorderings(g, rng), reorderings(h, rng), reorderings(s, rng)):
        got = results(*copies, bands)
        assert got == expected, [key for key in expected if got[key] != expected[key]]
