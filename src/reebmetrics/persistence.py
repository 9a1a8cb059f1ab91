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
exactly even at ties.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Literal

from .diagram import EXT0, EXT1, ORD0, REL1, Diagram, DiagramPoint
from .graph import InvalidGraphError, ReebGraph, UnionFind, validate


@dataclass(frozen=True)
class _Cell:
    value: Fraction  # entry value on its own axis (ascending or descending)
    dim: int  # dimension of the underlying graph cell
    index: int  # stable input index
    kind: Literal["vertex", "edge", "cone-vertex", "cone-edge"]
    ref: object  # vertex id, or edge index


def _ordinary_cells(g: ReebGraph) -> list[_Cell]:
    cells = [
        _Cell(g.value(vid), 0, i, "vertex", vid)
        for i, vid in enumerate(g.vertex_ids)
    ]
    for idx, (u, v) in enumerate(g.edges):
        cells.append(_Cell(max(g.value(u), g.value(v)), 1, idx, "edge", idx))
    cells.sort(key=lambda c: (c.value, c.dim, c.index))
    return cells


def _relative_cells(g: ReebGraph) -> list[_Cell]:
    cells = [
        _Cell(g.value(vid), 0, i, "cone-vertex", vid)
        for i, vid in enumerate(g.vertex_ids)
    ]
    for idx, (u, v) in enumerate(g.edges):
        cells.append(_Cell(min(g.value(u), g.value(v)), 1, idx, "cone-edge", idx))
    # descending value: superlevel sets indexed by the reversed real line
    cells.sort(key=lambda c: (-c.value, c.dim, c.index))
    return cells


def reduce_extended_filtration(g: ReebGraph) -> Diagram:
    """Full extended diagram via Z2 reduction on the coned filtration.

    The relative part is realized through the cone: coned cells use reduced
    boundaries (the cone apex is dropped), so relative homology classes
    appear as reduced classes of the cone and the total complex pairs
    perfectly. Pairs classify by the cell kinds at birth and death.
    """
    cells = _ordinary_cells(g) + _relative_cells(g)
    pos: dict[tuple[str, object], int] = {
        (c.kind, c.ref): i for i, c in enumerate(cells)
    }

    columns: list[int] = []
    for c in cells:
        if c.kind == "vertex":
            col = 0
        elif c.kind == "edge":
            u, v = g.edges[c.ref]  # type: ignore[index]
            col = (1 << pos[("vertex", u)]) | (1 << pos[("vertex", v)])
        elif c.kind == "cone-vertex":
            col = 1 << pos[("vertex", c.ref)]
        else:  # cone-edge
            u, v = g.edges[c.ref]  # type: ignore[index]
            col = (
                (1 << pos[("edge", c.ref)])
                | (1 << pos[("cone-vertex", u)])
                | (1 << pos[("cone-vertex", v)])
            )
        columns.append(col)

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

    points: list[DiagramPoint] = []
    for i, j in pairs:
        birth_cell, death_cell = cells[i], cells[j]
        bkind, dkind = birth_cell.kind, death_cell.kind
        b, d = birth_cell.value, death_cell.value
        if bkind == "vertex" and dkind == "edge":
            if b < d:
                points.append(DiagramPoint(ORD0, b, d))
        elif bkind == "vertex" and dkind == "cone-vertex":
            points.append(DiagramPoint(EXT0, b, d))
        elif bkind == "edge" and dkind == "cone-edge":
            points.append(DiagramPoint(EXT1, b, d))
        elif bkind == "cone-vertex" and dkind == "cone-edge":
            if b > d:
                points.append(DiagramPoint(REL1, b, d))
        else:  # pragma: no cover - impossible by dimension bookkeeping
            raise AssertionError(f"unexpected pair {bkind} -> {dkind}")
    return Diagram(points)


def ord0_unionfind(g: ReebGraph) -> tuple[DiagramPoint, ...]:
    """Degree-0 ordinary points by sublevel sweep with the elder rule.

    On merging two components the one born earlier (by cell position, hence
    by value with stable tie-breaking) survives; the younger one dies at the
    current edge value. Zero-persistence pairs are dropped.
    """
    order = _ordinary_cells(g)
    position = {
        (c.kind, c.ref): rank for rank, c in enumerate(order)
    }
    sets = UnionFind()
    birth_rank: dict[str, int] = {}
    points: list[DiagramPoint] = []
    for cell in order:
        if cell.kind == "vertex":
            vid = cell.ref  # type: ignore[assignment]
            sets.add(vid)
            birth_rank[vid] = position[("vertex", vid)]
        else:
            u, v = g.edges[cell.ref]  # type: ignore[index]
            ru, rv = sets.find(u), sets.find(v)
            if ru == rv:
                continue
            elder, younger = (
                (ru, rv) if birth_rank[ru] < birth_rank[rv] else (rv, ru)
            )
            birth_value = g.value(younger)
            death_value = cell.value
            if birth_value < death_value:
                points.append(DiagramPoint(ORD0, birth_value, death_value))
            sets.union(younger, elder)
    return tuple(sorted(points, key=DiagramPoint.sort_key))


def rel1_unionfind(g: ReebGraph) -> tuple[DiagramPoint, ...]:
    """Rel1 points obtained by the symmetry f -> -f (flip, sweep, flip back)."""
    flipped = ord0_unionfind(g.negated())
    points = [DiagramPoint(REL1, -p.birth, -p.death) for p in flipped]
    return tuple(sorted(points, key=DiagramPoint.sort_key))


def extended_diagram(g: ReebGraph) -> Diagram:
    """The typed extended persistence diagram of a valid connected graph."""
    report = validate(g)
    if not report.ok:
        raise InvalidGraphError(str(report))
    return reduce_extended_filtration(g)
