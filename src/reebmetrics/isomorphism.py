"""Value-preserving multigraph isomorphism.

A level-preserving isomorphism certifies functional distortion distance zero
between two Reeb graphs. The search groups vertices by value and backtracks
over value classes; with only down-neighbors assigned at each stage, edge
multiplicities can be checked incrementally.
"""

from __future__ import annotations

from collections import Counter
from typing import Optional

from .graph import ReebGraph


def _degree_profile(g: ReebGraph, vid: str) -> tuple[int, int]:
    return (g.down_degree(vid), g.up_degree(vid))


def _down_multiset(g: ReebGraph, vid: str) -> Counter:
    fv = g.value(vid)
    counter: Counter = Counter()
    for _, w in g.neighbors(vid):
        if g.value(w) < fv:
            counter[w] += 1
    return counter


def _unordered(a: str, b: str) -> tuple[str, str]:
    return (a, b) if a < b else (b, a)


def _edge_counts(g: ReebGraph) -> Counter:
    """Multiplicity of every unordered vertex pair joined by an edge."""
    return Counter(_unordered(a, b) for a, b in g.edges)


def level_isomorphism(g1: ReebGraph, g2: ReebGraph) -> Optional[dict[str, str]]:
    """A vertex bijection preserving values and edge multiplicities, or None."""
    if len(g1.vertex_ids) != len(g2.vertex_ids) or len(g1.edges) != len(g2.edges):
        return None
    classes1: dict = {}
    classes2: dict = {}
    for vid in g1.vertex_ids:
        classes1.setdefault(g1.value(vid), []).append(vid)
    for vid in g2.vertex_ids:
        classes2.setdefault(g2.value(vid), []).append(vid)
    if set(classes1) != set(classes2):
        return None
    levels = sorted(classes1)
    for lvl in levels:
        if len(classes1[lvl]) != len(classes2[lvl]):
            return None
        prof1 = sorted(_degree_profile(g1, v) for v in classes1[lvl])
        prof2 = sorted(_degree_profile(g2, v) for v in classes2[lvl])
        if prof1 != prof2:
            return None

    # Depth-first search over the vertices of g1 in level order, on an
    # explicit stack: a frame (level, position, next candidate index) stands
    # for one vertex of g1 and resumes its scan of the same-level vertices of
    # g2 when a deeper choice fails.
    mapping: dict[str, str] = {}
    used: set[str] = set()
    stack = [(0, 0, 0)]
    while stack:
        level_idx, pos, start = stack.pop()
        members = classes1[levels[level_idx]]
        v = members[pos]
        if v in mapping:  # resumed after a failure below: undo this choice
            used.remove(mapping.pop(v))
        want = Counter({mapping[u]: c for u, c in _down_multiset(g1, v).items()})
        candidates = classes2[levels[level_idx]]
        for idx in range(start, len(candidates)):
            w = candidates[idx]
            if w in used:
                continue
            if _degree_profile(g2, w) != _degree_profile(g1, v):
                continue
            if _down_multiset(g2, w) != want:
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
    if len(g1.vertex_ids) != len(g2.vertex_ids) or len(g1.edges) != len(g2.edges):
        return []
    order1 = sorted(g1.vertex_ids, key=lambda v: (g1.value(v), v))
    verts2 = list(g2.vertex_ids)
    found: list[dict[str, str]] = []
    mapping: dict[str, str] = {}
    used: set[str] = set()  # the image of mapping

    edges1, edges2 = _edge_counts(g1), _edge_counts(g2)
    nbrs1 = {v: {w for _, w in g1.neighbors(v)} for v in g1.vertex_ids}
    nbrs2 = {v: {w for _, w in g2.neighbors(v)} for v in g2.vertex_ids}
    prof1 = {v: _degree_profile(g1, v) for v in g1.vertex_ids}
    prof2 = {v: _degree_profile(g2, v) for v in g2.vertex_ids}

    def compatible(v: str, w: str) -> bool:
        if prof1[v] != prof2[w]:
            return False
        # edges between v and already-assigned vertices must match with the
        # same orientation and multiplicity. Only neighbours share an edge:
        # each mapped neighbour u of v needs the same edges between sigma(u)
        # and w, and then w has no other mapped neighbour iff the counts of
        # mapped neighbours agree.
        mapped = [u for u in nbrs1[v] if u in mapping]
        for u in mapped:
            sigma_u = mapping[u]
            if edges1[_unordered(u, v)] != edges2[_unordered(sigma_u, w)]:
                return False
            if (g1.value(u) < g1.value(v)) != (g2.value(sigma_u) < g2.value(w)):
                return False
        return len(mapped) == sum(1 for x in nbrs2[w] if x in used)

    # Depth-first search on an explicit stack: a frame (position, next
    # candidate index) stands for order1[position] and resumes its scan of
    # verts2 after everything below its current choice is explored.
    stack = [(0, 0)]
    while stack and len(found) < limit:
        i, start = stack.pop()
        v = order1[i]
        if v in mapping:  # resumed: undo the choice explored below
            used.remove(mapping.pop(v))
        for idx in range(start, len(verts2)):
            w = verts2[idx]
            if w in used or not compatible(v, w):
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
