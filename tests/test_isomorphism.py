import random
import sys
from collections import Counter
from fractions import Fraction as F

import pytest

from reebmetrics import (
    ReebGraph,
    cycle,
    figure1_left,
    figure1_right,
    is_level_isomorphic,
    level_isomorphism,
    random_graph,
    segment,
    structure_isomorphisms,
    y_graph,
)
from reebmetrics.persistence import extended_diagram
from value_reference import coprime_cases, value_reading


def relabeled(g: ReebGraph, suffix: str) -> ReebGraph:
    mapping = {v: f"{v}{suffix}" for v in g.vertex_ids}
    return ReebGraph(
        [(mapping[v], g.value(v)) for v in g.vertex_ids],
        [(mapping[u], mapping[v]) for u, v in g.edges],
    )


def test_y_isomorphic_to_relabeling():
    y = y_graph()
    other = relabeled(y, "_x")
    mapping = level_isomorphism(y, other)
    assert mapping is not None
    assert all(mapping[v] == f"{v}_x" for v in y.vertex_ids)


def test_witness_preserves_values_and_edges():
    g = figure1_left()
    other = relabeled(g, "_z")
    mapping = level_isomorphism(g, other)
    assert mapping is not None
    for v in g.vertex_ids:
        assert g.value(v) == other.value(mapping[v])
    from collections import Counter

    mapped = Counter(tuple(sorted((mapping[u], mapping[v]))) for u, v in g.edges)
    actual = Counter(tuple(sorted(e)) for e in other.edges)
    assert mapped == actual


def test_figure1_pair_not_isomorphic():
    assert not is_level_isomorphic(figure1_left(), figure1_right())


def test_value_mismatch_not_isomorphic():
    assert not is_level_isomorphic(segment(0, 3), segment(0, 2))


def test_multiplicity_matters():
    one = segment()
    two = cycle()
    assert not is_level_isomorphic(one, two)


def test_parallel_edges_match():
    assert is_level_isomorphic(cycle(), relabeled(cycle(), "_c"))


def test_branch_position_distinguishes():
    # s splits into arcs up to p and to the top of a branch; b joins at p.
    # The two graphs differ only in which top (d at 3 or e at 4) sits above
    # p, so they have the same diagram and the same (value, down, up) keys.
    vertices = [("a", 0), ("s", 1), ("b", F("1.5")), ("p", 2), ("d", 3), ("e", 4)]
    left = ReebGraph(
        vertices, [("a", "s"), ("s", "p"), ("p", "d"), ("s", "e"), ("b", "p")]
    )
    right = ReebGraph(
        vertices, [("a", "s"), ("s", "p"), ("p", "e"), ("s", "d"), ("b", "p")]
    )
    assert not is_level_isomorphic(left, right)
    assert extended_diagram(left) == extended_diagram(right)
    assert len(structure_isomorphisms(left, right)) == 1

    def keys(g):
        return Counter((g.value(v), g.down_degree(v), g.up_degree(v)) for v in g.vertex_ids)

    assert keys(left) == keys(right)


def test_level_edge_answer_does_not_depend_on_vertex_ids():
    # b and c share a value; renaming them z and y swaps their id order,
    # which once decided the side of the degree profile the level edge fell on
    g1 = ReebGraph(
        [("a", 0), ("b", 1), ("c", 1), ("d", 2)], [("a", "b"), ("b", "c"), ("c", "d")]
    )
    g2 = ReebGraph(
        [("a", 0), ("z", 1), ("y", 1), ("d", 2)], [("a", "z"), ("z", "y"), ("y", "d")]
    )
    assert (g1.down_degree("b"), g1.up_degree("b")) == (1, 0)
    assert (g1.down_degree("c"), g1.up_degree("c")) == (0, 1)
    assert level_isomorphism(g1, g2) == {"a": "a", "b": "z", "c": "y", "d": "d"}
    assert level_isomorphism(g2, g1) == {"a": "a", "z": "b", "y": "c", "d": "d"}


def test_structure_isomorphism_ignores_values():
    y = y_graph()
    stretched = y.with_values({"b": F("1.2"), "c": F("2.2")})
    isos = structure_isomorphisms(y, stretched)
    assert any(all(s[v] == v for v in y.vertex_ids) for s in isos)


def test_structure_isomorphism_respects_orientation():
    up = ReebGraph([("a", 0), ("b", 1), ("c", 2)], [("a", "b"), ("b", "c"), ("a", "c")])
    # same multigraph, but the long edge now points the other way in values
    down = ReebGraph([("a", 2), ("b", 1), ("c", 0)], [("a", "b"), ("b", "c"), ("a", "c")])
    isos = structure_isomorphisms(up, down)
    for sigma in isos:
        for u, v in up.edges:
            o1 = up.value(u) < up.value(v)
            o2 = down.value(sigma[u]) < down.value(sigma[v])
            assert o1 == o2


def test_structure_isomorphism_none_for_different_shapes():
    assert structure_isomorphisms(figure1_left(), figure1_right()) == []


def swapped_teeth_combs() -> tuple[ReebGraph, ReebGraph]:
    """A 1500-vertex comb, trunk t0 < t1 < ... with a downward tooth below
    each trunk vertex and every value distinct, and the same comb with its
    top two teeth swapped. The swap keeps every degree profile, so a search
    fails only at t748 and unwinds through every earlier vertex."""
    vertices, edges = [], []
    for i in range(750):
        vertices += [(f"t{i}", 2 * i + 1), (f"d{i}", F(2 * i + 1, 2))]
        edges.append((f"d{i}", f"t{i}"))
        if i:
            edges.append((f"t{i - 1}", f"t{i}"))
    swapped = [e for e in edges if e not in (("d748", "t748"), ("d749", "t749"))]
    swapped += [("d748", "t749"), ("d749", "t748")]
    return ReebGraph(vertices, edges), ReebGraph(vertices, swapped)


def test_level_isomorphism_at_scale_within_recursion_limit():
    assert sys.getrecursionlimit() <= 1000
    comb, swapped = swapped_teeth_combs()
    other = relabeled(comb, "_r")
    mapping = level_isomorphism(comb, other)
    assert mapping is not None
    assert all(mapping[v] == f"{v}_r" for v in comb.vertex_ids)
    assert not is_level_isomorphic(comb, swapped)


def reference_structure_isomorphisms(
    g1: ReebGraph, g2: ReebGraph, limit: int = 32
) -> list[dict[str, str]]:
    """The recursive search that `structure_isomorphisms` replaced, with
    every value comparison made on `Fraction`s."""
    if len(g1.vertex_ids) != len(g2.vertex_ids) or len(g1.edges) != len(g2.edges):
        return []
    profile1, profile2 = value_reading(g1).profile, value_reading(g2).profile
    order1 = sorted(g1.vertex_ids, key=lambda v: (g1.value(v), v))
    verts2 = list(g2.vertex_ids)
    found: list[dict[str, str]] = []
    mapping: dict[str, str] = {}
    used: set[str] = set()
    edges1 = Counter(tuple(sorted(e)) for e in g1.edges)
    edges2 = Counter(tuple(sorted(e)) for e in g2.edges)

    def compatible(v: str, w: str) -> bool:
        if profile1[v] != profile2[w]:
            return False
        for u, sigma_u in mapping.items():
            m1 = edges1[tuple(sorted((u, v)))]
            m2 = edges2[tuple(sorted((sigma_u, w)))]
            if m1 != m2:
                return False
            if m1 and (g1.value(u) < g1.value(v)) != (g2.value(sigma_u) < g2.value(w)):
                return False
        return True

    def backtrack(i: int) -> None:
        if len(found) >= limit:
            return
        if i == len(order1):
            found.append(dict(mapping))
            return
        v = order1[i]
        for w in verts2:
            if w in used:
                continue
            if not compatible(v, w):
                continue
            mapping[v] = w
            used.add(w)
            backtrack(i + 1)
            del mapping[v]
            used.remove(w)

    backtrack(0)
    return found


def shuffled_copy(rng: random.Random, g: ReebGraph, suffix: str) -> ReebGraph:
    """g relabelled, with vertex and edge order shuffled and values moved
    monotonically, so every structure isomorphism survives."""
    values = sorted({g.value(v) for v in g.vertex_ids})
    moved = {val: k * 3 + rng.randint(0, 2) for k, val in enumerate(values)}
    vertices = [(f"{v}{suffix}", moved[g.value(v)]) for v in g.vertex_ids]
    edges = [(f"{u}{suffix}", f"{v}{suffix}") for u, v in g.edges]
    rng.shuffle(vertices)
    rng.shuffle(edges)
    return ReebGraph(vertices, edges)


def interchangeable_comb(teeth: int) -> ReebGraph:
    """Teeth at one value between a bottom and a top: teeth! isomorphisms."""
    return ReebGraph(
        [("r", 0), ("top", 10)] + [(f"t{i}", 5) for i in range(teeth)],
        [("r", "top")] + [(e, f"t{i}") for i in range(teeth) for e in ("r", "top")],
    )


def structure_cases(seed: int, count: int):
    """Seeded graph pairs: shuffled copies (symmetric shapes have many
    witnesses) and random graphs of one vertex count, in both orders."""
    rng = random.Random(seed)
    comb = interchangeable_comb(rng.randint(2, 4))
    shapes = [y_graph(), cycle(), figure1_left(), figure1_right(), comb]
    shapes += [random_graph(rng, n_critical=rng.randint(3, 7)) for _ in range(count)]
    for g in shapes:
        yield g, shuffled_copy(rng, g, "_s")
        other = random_graph(rng, n_critical=len(g.vertex_ids))
        yield g, other
        yield other, g


def test_structure_isomorphisms_match_reference_search():
    witnesses = 0
    for g1, g2 in structure_cases(seed=4321, count=40):
        for limit in (0, 1, 3, 32):
            got = structure_isomorphisms(g1, g2, limit=limit)
            assert got == reference_structure_isomorphisms(g1, g2, limit=limit)
            assert len(got) <= limit
            witnesses += len(got)
    assert witnesses > 200


def _stack_depth() -> int:
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    return depth


def test_structure_isomorphisms_below_vertex_count_recursion_limit():
    # a chain whose copy lists its vertices in value order, so the first
    # free candidate is always the right one and the search only descends;
    # at the default limit the search also proves the witness unique
    n = 400
    chain = ReebGraph(
        [(f"c{i}", i) for i in range(n)], [(f"c{i}", f"c{i + 1}") for i in range(n - 1)]
    )
    copy = ReebGraph(
        [(f"k{i}", 2 * i) for i in range(n)], [(f"k{i}", f"k{i + 1}") for i in range(n - 1)]
    )
    limit = _stack_depth() + 100
    assert limit < n
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(limit)
    try:
        witness = {f"c{i}": f"k{i}" for i in range(n)}
        assert structure_isomorphisms(chain, copy, limit=1) == [witness]
        assert structure_isomorphisms(chain, copy) == [witness]
        with pytest.raises(RecursionError):
            reference_structure_isomorphisms(chain, copy, limit=1)
    finally:
        sys.setrecursionlimit(old)


def reference_level_isomorphism(g1: ReebGraph, g2: ReebGraph) -> dict[str, str] | None:
    """The value-class search that `level_isomorphism` replaced: g1's
    vertices level by level in `vertex_ids` order, each matched on degree
    profile and on the images of its down-neighbours, with every value
    comparison made on `Fraction`s."""

    def down_multiset(g: ReebGraph, v: str) -> Counter:
        return Counter(w for _, w in g.neighbors(v) if g.value(w) < g.value(v))

    if len(g1.vertex_ids) != len(g2.vertex_ids) or len(g1.edges) != len(g2.edges):
        return None
    profile1, profile2 = value_reading(g1).profile, value_reading(g2).profile
    classes1: dict = {}
    classes2: dict = {}
    for v in g1.vertex_ids:
        classes1.setdefault(g1.value(v), []).append(v)
    for v in g2.vertex_ids:
        classes2.setdefault(g2.value(v), []).append(v)
    if set(classes1) != set(classes2):
        return None
    levels = sorted(classes1)
    for lvl in levels:
        prof1 = sorted(profile1[v] for v in classes1[lvl])
        if prof1 != sorted(profile2[v] for v in classes2[lvl]):
            return None

    mapping: dict[str, str] = {}
    used: set[str] = set()
    stack = [(0, 0, 0)]  # (level, position in level, next candidate index)
    while stack:
        level_idx, pos, start = stack.pop()
        members = classes1[levels[level_idx]]
        v = members[pos]
        if v in mapping:
            used.remove(mapping.pop(v))
        want = Counter({mapping[u]: c for u, c in down_multiset(g1, v).items()})
        candidates = classes2[levels[level_idx]]
        for idx in range(start, len(candidates)):
            w = candidates[idx]
            if w in used or profile2[w] != profile1[v]:
                continue
            if down_multiset(g2, w) != want:
                continue
            mapping[v] = w
            used.add(w)
            stack.append((level_idx, pos, idx + 1))
            if pos + 1 < len(members):
                stack.append((level_idx, pos + 1, 0))
            elif level_idx + 1 < len(levels):
                stack.append((level_idx + 1, 0, 0))
            else:
                return dict(mapping)
            break
    return None


def permuted_copy(rng: random.Random, g: ReebGraph, suffix: str) -> ReebGraph:
    """g relabelled, with vertex and edge order shuffled and values kept."""
    vertices = [(f"{v}{suffix}", g.value(v)) for v in g.vertex_ids]
    edges = [(f"{u}{suffix}", f"{v}{suffix}") for u, v in g.edges]
    rng.shuffle(vertices)
    rng.shuffle(edges)
    return ReebGraph(vertices, edges)


def level_cases(seed: int, count: int):
    yield from structure_cases(seed, count)
    rng = random.Random(seed)
    shapes = [y_graph(), cycle(), figure1_left(), figure1_right()]
    shapes += [interchangeable_comb(teeth) for teeth in (2, 3, 5)]
    shapes += [random_graph(rng, n_critical=rng.randint(3, 9)) for _ in range(count)]
    for g in shapes:
        other = permuted_copy(rng, g, "_p")
        yield g, other
        yield other, g
    yield figure1_left(), figure1_right()
    yield figure1_right(), figure1_left()
    comb, swapped = swapped_teeth_combs()
    yield comb, permuted_copy(rng, comb, "_p")
    yield comb, swapped
    yield swapped, comb


def test_level_isomorphism_matches_reference_search_on_large_lattices():
    rng = random.Random(6011)
    for g, sub in coprime_cases(6011, 4):
        assert len(str(sub.scale)) > 24
        top = max(sub.vertex_ids, key=sub.value)
        moved = sub.with_values({top: sub.value(top) + F(1, 127)})  # another scale
        for g1 in (g, sub):
            g2 = permuted_copy(rng, g1, "_p")
            got = level_isomorphism(g1, g2)
            assert got is not None and reference_level_isomorphism(g1, g2) is not None
            assert_level_witness(g1, g2, got)
        assert moved.scale != sub.scale
        assert level_isomorphism(sub, moved) is None
        assert reference_level_isomorphism(sub, moved) is None


def assert_level_witness(g1: ReebGraph, g2: ReebGraph, sigma: dict[str, str]) -> None:
    assert sorted(sigma) == sorted(g1.vertex_ids)
    assert sorted(sigma.values()) == sorted(g2.vertex_ids)
    assert all(g1.value(v) == g2.value(sigma[v]) for v in g1.vertex_ids)
    mapped = Counter(tuple(sorted((sigma[u], sigma[v]))) for u, v in g1.edges)
    assert mapped == Counter(tuple(sorted(e)) for e in g2.edges)


def test_level_isomorphism_matches_reference_search():
    found = missed = exact = 0
    for g1, g2 in level_cases(seed=8642, count=40):
        got = level_isomorphism(g1, g2)
        want = reference_level_isomorphism(g1, g2)
        assert (got is None) == (want is None)
        assert is_level_isomorphic(g1, g2) == (got is not None)
        if got is None:
            missed += 1
            continue
        found += 1
        assert_level_witness(g1, g2, got)
        # with one vertex per value there is one witness; with ties the two
        # searches may pick different, equally valid ones
        values = [g1.value(v) for v in g1.vertex_ids]
        if len(set(values)) == len(values):
            assert got == want
            exact += 1
    assert found > 50 and missed > 100 and exact > 40
