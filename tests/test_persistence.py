import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reebmetrics import (
    Diagram,
    DiagramPoint,
    canonicalize,
    validate,
    InvalidGraphError,
    ReebGraph,
    cycle,
    extended_diagram,
    figure1_left,
    figure1_right,
    graph_bottleneck,
    random_graph,
    reduce_extended_filtration,
    segment,
    y_graph,
)
from reebmetrics.persistence import _diagram_from_sweeps
from value_reference import coprime_cases, on_primes, reference_reduce_extended_filtration


def point(kind, b, d):
    return DiagramPoint(kind, F(b), F(d))


def ladder(rng: random.Random, rungs: int) -> ReebGraph:
    """Two rails joined by `rungs` crossing arcs, with tied rail values."""
    level = {"bot": 0, "top": 4 * rungs + 4}
    edges = []
    for side in "lr":
        below = "bot"
        for k in range(rungs):
            vid = f"{side}{k}"
            level[vid] = 4 * k + 2 + rng.choice((0, 0, 1))
            edges.append((below, vid))
            below = vid
        edges.append((below, "top"))
    for k in range(rungs):
        a, b = f"l{k}", f"r{min(rungs - 1, k + 1)}"
        if level[a] != level[b]:
            edges.append((a, b))
    return ReebGraph(level.items(), edges)


# ---------------------------------------------------------------------------
# worked examples
# ---------------------------------------------------------------------------


def test_segment_diagram():
    assert extended_diagram(segment()) == Diagram([point("Ext0", 0, 3)])


def test_y_diagram():
    assert extended_diagram(y_graph()) == Diagram(
        [point("Ext0", 0, 3), point("Ord0", 1, 2)]
    )


def test_cycle_diagram():
    assert extended_diagram(cycle()) == Diagram(
        [point("Ext0", 0, 3), point("Ext1", 3, 0)]
    )


def test_two_handles_on_a_chain():
    # chain 0-1-2-4-6-7 with extra arcs (1,4) and (2,6): holes span [1,4], [2,6]
    g = ReebGraph(
        [("a", 0), ("b", 1), ("c", 2), ("d", 4), ("e", 6), ("f", 7)],
        [
            ("a", "b"),
            ("b", "c"),
            ("c", "d"),
            ("d", "e"),
            ("e", "f"),
            ("b", "d"),
            ("c", "e"),
        ],
    )
    d = extended_diagram(g)
    assert d.of_kind("Ext1") == (point("Ext1", 4, 1), point("Ext1", 6, 2))


def test_wedge_of_cycle_and_branch():
    g = ReebGraph(
        [("bot", 0), ("m", 1), ("p", F("1.5")), ("top", 2)],
        [("bot", "top"), ("bot", "p"), ("p", "top"), ("p", "m")],
    )
    assert extended_diagram(g) == Diagram(
        [
            point("Ext0", 0, 2),
            point("Ext1", 2, 0),
            point("Ord0", 1, "3/2"),
        ]
    )


def test_upside_down_y_rel1():
    g = ReebGraph(
        [("a", 3), ("b", 2), ("c", 1), ("d", 0)],
        [("a", "c"), ("b", "c"), ("c", "d")],
    )
    assert _diagram_from_sweeps(g).of_kind("Rel1") == (point("Rel1", 2, 1),)
    assert extended_diagram(g).of_kind("Rel1") == (point("Rel1", 2, 1),)


def test_single_vertex_diagram():
    g = ReebGraph([("a", F("1.5"))], [])
    assert extended_diagram(g) == Diagram([point("Ext0", "1.5", "1.5")])


def test_unionfind_examples():
    assert _diagram_from_sweeps(y_graph()).of_kind("Ord0") == (point("Ord0", 1, 2),)
    assert _diagram_from_sweeps(segment()).of_kind("Ord0") == ()


def test_extended_diagram_rejects_invalid():
    g = ReebGraph([("a", 0), ("b", 1), ("c", 2), ("d", 3)], [("a", "b"), ("c", "d")])
    with pytest.raises(InvalidGraphError):
        extended_diagram(g)


def test_diagram_equal():
    assert extended_diagram(figure1_left()) == extended_diagram(figure1_right())
    assert extended_diagram(y_graph()) != extended_diagram(segment())
    d = extended_diagram(cycle())
    assert d == d


# ---------------------------------------------------------------------------
# oracle equivalence and structural invariants
# ---------------------------------------------------------------------------


def test_matrix_reduction_matches_unionfind_on_random_graphs():
    rng = random.Random(101)
    for _ in range(100):
        g = random_graph(rng, n_critical=rng.randint(4, 9))
        d = reduce_extended_filtration(g)
        swept = _diagram_from_sweeps(g)
        assert d.of_kind("Ord0") == swept.of_kind("Ord0")
        assert d.of_kind("Rel1") == swept.of_kind("Rel1")


def test_extended_invariants_on_random_graphs():
    rng = random.Random(577)
    for _ in range(60):
        g = random_graph(rng, n_critical=rng.randint(4, 9))
        d = extended_diagram(g)
        ext0 = d.of_kind("Ext0")
        assert len(ext0) == 1
        assert ext0[0].birth == g.min_value()
        assert ext0[0].death == g.max_value()
        assert len(d.of_kind("Ext1")) == g.first_betti()
        vertex_values = {g.value(v) for v in g.vertex_ids}
        for p in d:
            assert p.birth in vertex_values
            assert p.death in vertex_values


def test_point_type_geometry_on_random_graphs():
    rng = random.Random(31)
    for _ in range(40):
        g = random_graph(rng, n_critical=rng.randint(4, 9))
        for p in extended_diagram(g):
            if p.kind == "Ord0":
                assert p.birth < p.death
            elif p.kind == "Rel1":
                assert p.birth > p.death
            elif p.kind == "Ext0":
                assert p.birth <= p.death
            else:
                assert p.birth >= p.death


def test_tie_handling_equal_values_across_branches():
    # two branch tips share a value; both orders must give the same multiset
    g = ReebGraph(
        [("a", 0), ("t1", 1), ("t2", 1), ("s1", 2), ("s2", 3), ("top", 4)],
        [("a", "s1"), ("t1", "s1"), ("s1", "s2"), ("t2", "s2"), ("s2", "top")],
    )
    d = reduce_extended_filtration(g)
    assert d.of_kind("Ord0") == _diagram_from_sweeps(g).of_kind("Ord0")
    assert d.of_kind("Ord0") == (point("Ord0", 1, 2), point("Ord0", 1, 3))


def test_stability_under_jitter():
    rng = random.Random(9)
    for _ in range(40):
        g = random_graph(rng, n_critical=rng.randint(4, 8))
        gap = min(abs(g.value(u) - g.value(v)) for u, v in g.edges)
        delta = gap / 4 * F(rng.randint(1, 64), 64)
        jitters = {
            v: g.value(v) + delta * F(rng.randint(-64, 64), 64) for v in g.vertex_ids
        }
        perturbed = g.with_values(jitters)
        assert graph_bottleneck(g, perturbed) <= delta


def test_tie_handling_rel1_mirror():
    g = ReebGraph(
        [("a", 4), ("t1", 3), ("t2", 3), ("s1", 2), ("s2", 1), ("top", 0)],
        [("a", "s1"), ("t1", "s1"), ("s1", "s2"), ("t2", "s2"), ("s2", "top")],
    )
    d = reduce_extended_filtration(g)
    assert d.of_kind("Rel1") == _diagram_from_sweeps(g).of_kind("Rel1")
    assert d.of_kind("Rel1") == (point("Rel1", 3, 1), point("Rel1", 3, 2))


def test_tie_rich_graph_cross_oracle():
    # shared fork/tip levels, parallel edges, and a loop hitting tie values
    g = ReebGraph(
        [
            ("m1", 0),
            ("m2", 0),
            ("s", 1),
            ("f1", 2),
            ("f2", 2),
            ("t1", 3),
            ("t2", 3),
            ("top", 4),
        ],
        [
            ("m1", "s"),
            ("m2", "s"),
            ("s", "f1"),
            ("s", "f2"),
            ("f1", "t1"),
            ("f1", "t2"),
            ("f2", "t2"),
            ("f2", "top"),
        ],
    )
    assert validate(g).ok
    d = reduce_extended_filtration(g)
    swept = _diagram_from_sweeps(g)
    assert d.of_kind("Ord0") == swept.of_kind("Ord0")
    assert d.of_kind("Rel1") == swept.of_kind("Rel1")
    assert len(d.of_kind("Ext1")) == g.first_betti()
    ext0 = d.of_kind("Ext0")
    assert ext0 == (point("Ext0", 0, 4),)


# ---------------------------------------------------------------------------
# the integer cell order and the sweeps against the Fraction-keyed reduction
# ---------------------------------------------------------------------------


def tie_rich_graphs() -> list[ReebGraph]:
    """Shared levels across branches, in both directions, and parallel arcs."""
    fork = ReebGraph(
        [("a", 0), ("t1", 1), ("t2", 1), ("s1", 2), ("s2", 3), ("top", 4)],
        [("a", "s1"), ("t1", "s1"), ("s1", "s2"), ("t2", "s2"), ("s2", "top")],
    )
    loops = ReebGraph(
        [("m1", 0), ("m2", 0), ("s", 1), ("f1", 2), ("f2", 2), ("t1", 3), ("t2", 3), ("top", 4)],
        [
            ("m1", "s"), ("m2", "s"), ("s", "f1"), ("s", "f2"),
            ("f1", "t1"), ("f1", "t2"), ("f2", "t2"), ("f2", "top"), ("f2", "top"),
        ],
    )
    return [fork, fork.negated(), loops, loops.negated(), cycle(), y_graph()]


def test_reduction_matches_fraction_reference():
    rng = random.Random(8101)
    graphs = tie_rich_graphs()
    for _ in range(40):
        g = random_graph(rng, n_critical=rng.randint(3, 12))
        graphs += [g, g.negated(), on_primes(g)]
    for rungs in (1, 2, 5, 9):
        g = ladder(rng, rungs)
        graphs += [g, g.negated(), on_primes(g)]
    graphs += [on_primes(g) for g in tie_rich_graphs()]
    for k, g in enumerate(graphs):
        d = reduce_extended_filtration(g)
        assert d == reference_reduce_extended_filtration(g), k
        assert _diagram_from_sweeps(g) == d, k
        if validate(g).ok:
            assert extended_diagram(g) == d, k


def test_extended_diagram_matches_fraction_reference_on_large_lattices():
    for g, sub in coprime_cases(6011, 4):
        assert len(str(sub.scale)) > 24
        want = reference_reduce_extended_filtration(sub)
        assert reduce_extended_filtration(sub) == want
        assert extended_diagram(canonicalize(sub)) == want
        assert extended_diagram(g) == want


@st.composite
def small_graphs(draw):
    """A graph on 1-7 vertices with values of mixed small denominators; level
    arcs, parallel arcs and several components are all allowed."""
    n = draw(st.integers(min_value=1, max_value=7))
    values = [
        F(draw(st.integers(0, 12)), draw(st.sampled_from((1, 2, 3, 5, 7))))
        for _ in range(n)
    ]
    pairs = draw(
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=10)
    )
    return ReebGraph(
        [(f"v{i}", values[i]) for i in range(n)],
        [(f"v{a}", f"v{b}") for a, b in pairs if a != b],
    )


@given(small_graphs())
@settings(max_examples=200, deadline=None)
def test_reduction_matches_fraction_reference_on_small_graphs(g):
    reference = reference_reduce_extended_filtration(g)
    assert reduce_extended_filtration(g) == reference
    assert _diagram_from_sweeps(g).of_kind("Ord0") == reference.of_kind("Ord0")


@given(small_graphs())
@settings(max_examples=300, deadline=None)
def test_sweeps_match_the_reduction_on_small_graphs(g):
    d = reduce_extended_filtration(g)
    assert _diagram_from_sweeps(g) == d
    if validate(g).ok:
        assert extended_diagram(g) == d


# ---------------------------------------------------------------------------
# the sweeps against the reduction at scale
# ---------------------------------------------------------------------------


def trunk(rng: random.Random, slots: int, kinds=("down", "up", "loop")) -> ReebGraph:
    """A trunk of `slots` features drawn from `kinds`: a tooth hanging down,
    a tooth standing up, or a loop of two parallel arcs. Trunk values wander
    around 2k at slot k, so features overlap and many vertices tie."""
    level = {"bot": 0}
    edges = []
    below = "bot"
    for k in range(1, slots + 1):
        base = level[below]
        while base == level[below]:
            base = 2 * k + rng.randint(-3, 3)
        kind = rng.choice(kinds)
        if kind == "loop":
            split, join = f"s{k}", f"j{k}"
            level[split], level[join] = base, base + rng.randint(1, 4)
            edges += [(below, split), (split, join), (split, join)]
            below = join
        else:
            fork, tip = f"f{k}", f"t{k}"
            level[fork] = base
            level[tip] = base + rng.randint(1, 4) * (1 if kind == "up" else -1)
            edges += [(below, fork), (fork, tip)]
            below = fork
    level["top"] = level[below] + 1
    edges.append((below, "top"))
    return ReebGraph(level.items(), edges)


@pytest.mark.parametrize(
    "family, vertices",
    [("ladder", 1000), ("ladder", 3000), ("comb", 1000), ("comb", 5000), ("mixed", 1000), ("mixed", 5000)],
)
def test_sweeps_match_the_reduction_on_large_graphs(family, vertices):
    rng = random.Random(vertices + len(family))
    if family == "ladder":
        g = canonicalize(ladder(rng, vertices // 2 - 1))  # two rail ends pass through
    else:
        g = trunk(rng, vertices // 2 - 1, ("down",) if family == "comb" else ("down", "up", "loop"))
    assert vertices - 2 <= len(g.vertex_ids) <= vertices
    assert validate(g).ok
    assert extended_diagram(g) == reduce_extended_filtration(g)


def theta(arcs: int) -> ReebGraph:
    return ReebGraph([("bot", 0), ("top", 1)], [("bot", "top")] * arcs)


def fan_to_the_top(spokes: int) -> ReebGraph:
    """A chain s0 < s1 < ... with an arc from each of s1, s2, ... to the top."""
    vertices = [(f"s{i}", i) for i in range(spokes)] + [("top", spokes)]
    edges = [(f"s{i}", f"s{i + 1}") for i in range(spokes - 1)] + [(f"s{spokes - 1}", "top")]
    edges += [(f"s{i}", "top") for i in range(1, spokes)]
    return ReebGraph(vertices, edges)


def nested_arcs(arcs: int) -> ReebGraph:
    """A chain s0 < ... < s(2k+1) with arcs s_i -- s_(2k+1-i): each arc spans
    the next one, so the cycles' forest paths are long."""
    vertices = [(f"s{i}", i) for i in range(2 * arcs + 2)]
    edges = [(f"s{i}", f"s{i + 1}") for i in range(2 * arcs + 1)]
    edges += [(f"s{i}", f"s{2 * arcs + 1 - i}") for i in range(1, arcs + 1)]
    return ReebGraph(vertices, edges)


@pytest.mark.parametrize(
    "g",
    [
        theta(3000),
        fan_to_the_top(1000),
        fan_to_the_top(1000).negated(),
        nested_arcs(1000),
        nested_arcs(1000).negated(),
    ],
    ids=["theta", "fan-to-the-top", "fan-from-the-bottom", "nested", "nested-negated"],
)
def test_sweeps_match_the_reduction_on_many_cycles(g):
    d = extended_diagram(g)
    assert len(d.of_kind("Ext1")) == g.first_betti()
    assert d == reduce_extended_filtration(g)
