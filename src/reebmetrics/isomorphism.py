"""Value-preserving and orientation-preserving multigraph isomorphism.

A level-preserving isomorphism certifies functional distortion distance zero
between two Reeb graphs. A structure isomorphism may move values but keeps
the value order on every edge, which is what a monotone linear
interpolation between two graphs needs. Both come from one backtracking
search; they differ only in the key a vertex and its image must share.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, Hashable, Optional

from .graph import ReebGraph


def _unordered(a: str, b: str) -> tuple[str, str]:
    return (a, b) if a < b else (b, a)


def _edge_counts(g: ReebGraph) -> Counter:
    """Multiplicity of every unordered vertex pair joined by an edge."""
    return Counter(_unordered(a, b) for a, b in g.edges)


def _isomorphisms(
    g1: ReebGraph,
    g2: ReebGraph,
    key: Callable[[ReebGraph, str], Hashable],
    limit: int,
) -> list[dict[str, str]]:
    """Up to `limit` vertex bijections g1 -> g2 that keep `key`, edge
    multiplicities and the value order on every edge.

    g1's vertices are visited in their (level, id) order, and each is tried
    against the unused vertices of g2 with its key, in g2's (level, id)
    order, so the witnesses, and which `limit` of them are found, depend
    only on the two graphs. Edge orientation is tested on each graph's own
    levels.
    """
    if len(g1.vertex_ids) != len(g2.vertex_ids) or len(g1.edges) != len(g2.edges):
        return []
    keys1 = {v: key(g1, v) for v in g1.vertex_ids}
    by_key: dict[Hashable, list[str]] = {}
    for w in g2.vertex_ids:
        by_key.setdefault(key(g2, w), []).append(w)
    if Counter(keys1.values()) != Counter({k: len(ws) for k, ws in by_key.items()}):
        return []
    order1 = g1.vertex_ids
    edges1, edges2 = _edge_counts(g1), _edge_counts(g2)
    nbrs1 = {v: {w for _, w in g1.neighbors(v)} for v in g1.vertex_ids}
    nbrs2 = {v: {w for _, w in g2.neighbors(v)} for v in g2.vertex_ids}
    found: list[dict[str, str]] = []
    mapping: dict[str, str] = {}
    used: set[str] = set()  # the image of mapping

    # Depth-first search on an explicit stack: a frame (position, next
    # candidate index) stands for order1[position] and resumes its scan of
    # the candidates after everything below its current choice is explored.
    stack = [(0, 0)]
    while stack and len(found) < limit:
        i, start = stack.pop()
        v = order1[i]
        if v in mapping:  # resumed: undo the choice explored below
            used.remove(mapping.pop(v))
        # Only neighbours share an edge: each mapped neighbour u of v needs
        # the same edges, with the same orientation, between sigma(u) and a
        # candidate w, and then w has no other mapped neighbour iff the
        # counts of mapped neighbours agree.
        lv = g1.level(v)
        mapped = [
            (mapping[u], edges1[_unordered(u, v)], g1.level(u) < lv)
            for u in nbrs1[v]
            if u in mapping
        ]
        candidates = by_key[keys1[v]]
        for idx in range(start, len(candidates)):
            w = candidates[idx]
            if w in used or len(mapped) != sum(1 for x in nbrs2[w] if x in used):
                continue
            lw = g2.level(w)
            if any(
                edges2[_unordered(sigma_u, w)] != count or (g2.level(sigma_u) < lw) != below
                for sigma_u, count, below in mapped
            ):
                continue
            if i + 1 == len(order1):  # the last vertex has one free candidate
                found.append({**mapping, v: w})
                break
            mapping[v] = w
            used.add(w)
            stack.append((i, idx + 1))
            stack.append((i + 1, 0))
            break
    return found


def level_isomorphism(g1: ReebGraph, g2: ReebGraph) -> Optional[dict[str, str]]:
    """A vertex bijection preserving values and edge multiplicities, or None.

    Graphs of different scales have different value multisets, so only
    graphs of one scale are searched, keyed on their int levels.
    """
    if g1.scale != g2.scale:
        return None
    found = _isomorphisms(
        g1, g2, lambda g, v: (g.level(v), g.down_degree(v), g.up_degree(v)), limit=1
    )
    return found[0] if found else None


def is_level_isomorphic(g1: ReebGraph, g2: ReebGraph) -> bool:
    return level_isomorphism(g1, g2) is not None


def structure_isomorphisms(
    g1: ReebGraph, g2: ReebGraph, limit: int = 32
) -> list[dict[str, str]]:
    """Orientation-preserving multigraph isomorphisms that ignore exact values.

    Vertices are matched compatibly with the value ORDER on each edge (the
    arc orientations), which is what a monotone linear interpolation of
    vertex values between the two graphs needs. Values themselves may differ.
    Returns up to `limit` witnesses.
    """
    return _isomorphisms(
        g1, g2, lambda g, v: (g.down_degree(v), g.up_degree(v)), limit=limit
    )
