"""Extended persistence of a Reeb graph's induced map.

Two independent computations are provided and used as mutual oracles:

* `reduce_extended_filtration` runs Z2 column reduction over the boundary
  matrix of the extended filtration, realized on the cone of the graph
  complex. It produces all four point classes.
* `ord0_unionfind` sweeps sublevel sets with a union-find under the elder
  rule and yields the degree-0 ordinary part; run on the value-negated graph
  it yields the relative one-dimensional part.

Cells at equal value are ordered by (dimension ascending, stable input
index); both computations use the same total order, so their pairings agree
exactly even at ties. The order is a sort of plain int triples: vertex
values enter scaled to integers over the lcm of their denominators, which
keeps every comparison and tie, and a cell's exact value is always that of
one vertex, so diagram points reuse the graph's own `Fraction`s.
"""

from __future__ import annotations

from fractions import Fraction

from .diagram import EXT0, EXT1, ORD0, REL1, Diagram, DiagramPoint
from .graph import ReebGraph, UnionFind, require_canonical
from .rationals import common_denominator, on_lattice


def _cells(g: ReebGraph) -> tuple[list[Fraction], list[int], list[tuple[int, int]]]:
    """Vertex values, the same values as ints on one lattice, and edges as
    vertex index pairs.

    Edges run lower end first (`ReebGraph` orients them so), so an edge
    enters the sublevel sets at its upper end's value and the superlevel sets
    at its lower end's.
    """
    values = [g.value(vid) for vid in g.vertex_ids]
    scale = common_denominator(values)
    index = {vid: i for i, vid in enumerate(g.vertex_ids)}
    return (
        values,
        [on_lattice(value, scale) for value in values],
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
    values, level, ends = _cells(g)
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
    points: list[DiagramPoint] = []
    for i, j in pairs:
        birth_cell, death_cell = order[i], order[j]
        bkind = 2 * (birth_cell >= size) + (birth_cell % size >= n)
        dkind = 2 * (death_cell >= size) + (death_cell % size >= n)
        b, d = source[birth_cell], source[death_cell]
        if bkind == 0 and dkind == 1:
            if level[b] < level[d]:
                points.append(DiagramPoint(ORD0, values[b], values[d]))
        elif bkind == 0 and dkind == 2:
            points.append(DiagramPoint(EXT0, values[b], values[d]))
        elif bkind == 1 and dkind == 3:
            points.append(DiagramPoint(EXT1, values[b], values[d]))
        elif bkind == 2 and dkind == 3:
            if level[b] > level[d]:
                points.append(DiagramPoint(REL1, values[b], values[d]))
        else:  # pragma: no cover - impossible by dimension bookkeeping
            raise AssertionError(f"unexpected pair of cell kinds {bkind} -> {dkind}")
    return Diagram(points)


def ord0_unionfind(g: ReebGraph) -> tuple[DiagramPoint, ...]:
    """Degree-0 ordinary points by sublevel sweep with the elder rule.

    On merging two components the one born earlier (by cell position, hence
    by value with stable tie-breaking) survives; the younger one dies at the
    current edge value. Zero-persistence pairs are dropped.
    """
    values, level, ends = _cells(g)
    n = len(level)
    order = _sublevel_order(level, ends)
    birth_rank = [0] * n
    for rank, cell in enumerate(order):
        if cell < n:
            birth_rank[cell] = rank
    sets = UnionFind()
    points: list[DiagramPoint] = []
    for cell in order:
        if cell < n:
            sets.add(cell)
            continue
        u, v = ends[cell - n]
        ru, rv = sets.find(u), sets.find(v)
        if ru == rv:
            continue
        elder, younger = (ru, rv) if birth_rank[ru] < birth_rank[rv] else (rv, ru)
        if level[younger] < level[v]:
            points.append(DiagramPoint(ORD0, values[younger], values[v]))
        sets.union(younger, elder)
    return tuple(sorted(points, key=DiagramPoint.sort_key))


def rel1_unionfind(g: ReebGraph) -> tuple[DiagramPoint, ...]:
    """Rel1 points obtained by the symmetry f -> -f (flip, sweep, flip back)."""
    flipped = ord0_unionfind(g.negated())
    points = [DiagramPoint(REL1, -p.birth, -p.death) for p in flipped]
    return tuple(sorted(points, key=DiagramPoint.sort_key))


def extended_diagram(g: ReebGraph) -> Diagram:
    """The typed extended persistence diagram of a valid connected graph."""
    require_canonical(g)
    return reduce_extended_filtration(g)
