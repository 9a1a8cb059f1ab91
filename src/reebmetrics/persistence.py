"""Extended persistence of a Reeb graph's induced map.

`extended_diagram` assembles the diagram from one elder-rule union-find
sweep (`_elder_sweep`) run twice: up the sublevel sets, and down the
superlevel sets as the same sweep over negated levels with every edge's ends
swapped. A sweep adds the edges in order; an edge whose ends are already
connected closes a loop, and any other edge joins two components, the one
born later dying there.

* Ord0 is the upward sweep's deaths and Rel1 the downward sweep's.
* Ext0 pairs each component's first vertex upward, its minimum, with its
  first vertex downward, its maximum.
* Ext1 pairs the two sweeps' loop-closing edges. A downward loop-closing
  edge f closes the cycle f + (its path in the downward spanning forest).
  That cycle is written as a bit column over the upward loop-closing edges
  it contains: its coordinates in the fundamental-cycle basis of the upward
  forest. The columns are reduced over Z2 in downward order by their
  highest set bit, one owner column per low; a column that keeps low e
  gives Ext1(value of e's upper end, value of f's lower end).

Why Ext1 is exact: cycles of the sublevel set at b and of the superlevel set
at d meet in the cycle space of f^-1[d, b], so the Ext1 points are the
unique pairing of those two flags. In sublevel order the latest edge of a
cycle closes a loop, and it is the cycle's highest coordinate, so a column's
highest bit is the low that the coned reduction finds.

Cost: sorting the edges, two near-linear sweeps, the total length of the
downward forest paths, and at most b1^2 column XORs of b1 bits each.

`reduce_extended_filtration`, Z2 column reduction of the coned extended
filtration, is the oracle the tests compare the sweeps against. The sweeps'
union-find is `graph._find_root` over vertex indices.

Cells at equal value are ordered by (dimension ascending, stable input
index); the sweeps and the reduction use the same total order, so their
pairings agree exactly even at ties. The order is a sort of plain int
tuples: vertex values enter as the graph's int levels (each value times the
lcm of their denominators), which keep every comparison and tie. A cell's
exact value is always that of one vertex, so a diagram's rows are the
graph's own levels on the graph's own `scale`, and no `Fraction` is built.
"""

from __future__ import annotations

from typing import NamedTuple

from .diagram import _EXT0, _EXT1, _ORD0, _REL1, Diagram
from .graph import InvalidGraphError, ReebGraph, _find_root, validate


def _cells(g: ReebGraph) -> tuple[list[int], list[tuple[int, int]]]:
    """The graph's int levels of its vertex values, and edges as vertex
    index pairs.

    Edges run lower end first (`ReebGraph` orients them so), so an edge
    enters the sublevel sets at its upper end's value and the superlevel sets
    at its lower end's.
    """
    index = {vid: i for i, vid in enumerate(g.vertex_ids)}
    return (
        [g.level(vid) for vid in g.vertex_ids],
        [(index[u], index[v]) for u, v in g.edges],
    )


def _sublevel_order(level: list[int], ends: list[tuple[int, int]]) -> list[int]:
    """Vertices (cell i) and edges (cell n + e) by (value, dim, index).

    With every level negated and every edge's ends swapped, this is the
    superlevel order: by descending value, then dim, then index.
    """
    n = len(level)
    keys = [(value, 0, i) for i, value in enumerate(level)]
    keys += [(level[upper], 1, e) for e, (_, upper) in enumerate(ends)]
    keys.sort()
    return [i + n * dim for _, dim, i in keys]


def reduce_extended_filtration(g: ReebGraph) -> Diagram:
    """Full extended diagram via Z2 reduction on the coned filtration.

    The relative part is realized through the cone: coned cells use reduced
    boundaries (the cone apex is dropped), so relative homology classes
    appear as reduced classes of the cone and the total complex pairs
    perfectly. Pairs classify by the cell kinds at birth and death.

    Cells are numbered by kind: vertex i, edge n + e, cone-vertex N + i and
    cone-edge N + n + e, for n vertices and N cells of the graph. The
    ordinary cells come first, by ascending value; the coned cells follow by
    descending value, superlevel sets indexed by the reversed real line.
    """
    level, ends = _cells(g)
    n = len(level)
    size = n + len(ends)
    order = _sublevel_order(level, ends)
    order += [
        size + cell
        for cell in _sublevel_order([-value for value in level], [(v, u) for u, v in ends])
    ]
    pos = [0] * (2 * size)
    for p, cell in enumerate(order):
        pos[cell] = p

    columns = [0] * n  # vertices are cycles
    columns += [(1 << pos[u]) | (1 << pos[v]) for u, v in ends]
    columns += [1 << pos[i] for i in range(n)]
    columns += [
        (1 << pos[n + e]) | (1 << pos[size + u]) | (1 << pos[size + v])
        for e, (u, v) in enumerate(ends)
    ]
    columns = [columns[cell] for cell in order]

    low_owner: dict[int, int] = {}
    pairs: list[tuple[int, int]] = []
    for j in range(len(columns)):
        col = columns[j]
        while col:
            low = col.bit_length() - 1
            owner = low_owner.get(low)
            if owner is None:
                low_owner[low] = j
                pairs.append((low, j))
                break
            col ^= columns[owner]
        columns[j] = col

    # the vertex whose value each cell takes, and the cell's kind:
    # 0 vertex, 1 edge, 2 cone-vertex, 3 cone-edge
    source = [*range(n), *(v for _, v in ends), *range(n), *(u for u, _ in ends)]
    rows: list[tuple[int, int, int]] = []
    for i, j in pairs:
        birth_cell, death_cell = order[i], order[j]
        bkind = 2 * (birth_cell >= size) + (birth_cell % size >= n)
        dkind = 2 * (death_cell >= size) + (death_cell % size >= n)
        b, d = source[birth_cell], source[death_cell]
        if bkind == 0 and dkind == 1:
            if level[b] < level[d]:
                rows.append((_ORD0, level[b], level[d]))
        elif bkind == 0 and dkind == 2:
            rows.append((_EXT0, level[b], level[d]))
        elif bkind == 1 and dkind == 3:
            rows.append((_EXT1, level[b], level[d]))
        elif bkind == 2 and dkind == 3:
            if level[b] > level[d]:
                rows.append((_REL1, level[b], level[d]))
        else:  # pragma: no cover - impossible by dimension bookkeeping
            raise AssertionError(f"unexpected pair of cell kinds {bkind} -> {dkind}")
    return Diagram._from_rows(g.scale, rows)


class _Sweep(NamedTuple):
    """What one elder-rule sweep found, in vertex and edge indices."""

    deaths: list[tuple[int, int]]  # (younger vertex, merging edge's later end)
    loops: list[int]  # loop-closing edges, in sweep order
    forest: list[int]  # spanning-forest edges
    roots: list[int]  # each component's first vertex


def _elder_sweep(level: list[int], ends: list[tuple[int, int]]) -> _Sweep:
    """Sweep the sublevel sets with a union-find under the elder rule.

    Edges enter by (value, index), their order in `_sublevel_order`, and a
    vertex is born before every edge at its value. On merging two components
    the one whose first vertex came earlier, by (value, index), survives;
    the younger one dies at the current edge value. Zero-persistence deaths
    are dropped.
    """
    n = len(level)
    parent = list(range(n))  # union-find forest; each root is its component's elder
    deaths: list[tuple[int, int]] = []
    loops: list[int] = []
    forest: list[int] = []
    for e in sorted(range(len(ends)), key=lambda e: (level[ends[e][1]], e)):
        lower, upper = ends[e]  # the edge enters at its upper end's value
        ru, rv = _find_root(parent, lower), _find_root(parent, upper)
        if ru == rv:
            loops.append(e)
            continue
        forest.append(e)
        elder, younger = (ru, rv) if (level[ru], ru) < (level[rv], rv) else (rv, ru)
        if level[younger] < level[upper]:
            deaths.append((younger, upper))
        parent[younger] = elder
    roots = [i for i in range(n) if parent[i] == i]
    return _Sweep(deaths, loops, forest, roots)


def _diagram_from_sweeps(g: ReebGraph) -> Diagram:
    """The extended diagram of any graph, from an upward and a downward sweep."""
    level, ends = _cells(g)
    n = len(level)
    up = _elder_sweep(level, ends)
    down = _elder_sweep([-value for value in level], [(v, u) for u, v in ends])
    rows = [(_ORD0, level[b], level[d]) for b, d in up.deaths]
    rows += [(_REL1, level[b], level[d]) for b, d in down.deaths]

    # the downward forest, rooted at each component's maximum
    top, parent, parent_edge, depth = list(range(n)), [0] * n, [-1] * n, [0] * n
    adjacent: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for e in down.forest:
        u, v = ends[e]
        adjacent[u].append((v, e))
        adjacent[v].append((u, e))
    stack = list(down.roots)
    while stack:
        x = stack.pop()
        for y, e in adjacent[x]:
            if e != parent_edge[x]:
                parent[y], parent_edge[y], depth[y], top[y] = x, e, depth[x] + 1, top[x]
                stack.append(y)
    rows += [(_EXT0, level[r], level[top[r]]) for r in up.roots]

    bit = [0] * len(ends)  # 1 << row for each upward loop-closing edge
    for row, e in enumerate(up.loops):
        bit[e] = 1 << row
    owner: dict[int, int] = {}
    for f in down.loops:
        u, v = ends[f]
        col = bit[f]
        while u != v:
            if depth[u] < depth[v]:
                u, v = v, u
            col ^= bit[parent_edge[u]]
            u = parent[u]
        while col:
            low = col.bit_length() - 1
            kept = owner.get(low)
            if kept is None:
                owner[low] = col
                birth = level[ends[up.loops[low]][1]]  # the upper end of e
                rows.append((_EXT1, birth, level[ends[f][0]]))
                break
            col ^= kept
    return Diagram._from_rows(g.scale, rows)


def extended_diagram(g: ReebGraph) -> Diagram:
    """The typed extended persistence diagram of a valid connected graph."""
    level_edges, components, through = g._defects
    if level_edges or components > 1 or through:
        raise InvalidGraphError(str(validate(g)))
    return _diagram_from_sweeps(g)
