"""Text and structured formats for graphs and diagrams.

Graph text format, line oriented:

    # comment
    v <id> <value>
    e <id1> <id2>

Diagram text format, one point per line, canonically sorted so equal
diagrams compare byte-wise:

    <kind> <birth> <death>

Values are decimal strings (exact), with `p/q` accepted for rationals whose
denominator is not 10-smooth. A JSON object format carries the same fields
for tooling.
"""

from __future__ import annotations

import json
from typing import Iterator, Optional, Union

from .diagram import KINDS, Diagram, DiagramPoint
from .distortion import Correspondence
from .graph import ReebGraph
from .rationals import format_value, parse_value


class ParseError(ValueError):
    """Text that does not parse; `line_number` is None when the whole file is at fault."""

    def __init__(self, line_number: Optional[int], message: str):
        super().__init__(message if line_number is None else f"line {line_number}: {message}")
        self.line_number = line_number


def _data_lines(text: str) -> Iterator[tuple[int, str, str]]:
    """`(lineno, raw, stripped)` for every line that is not blank or a comment."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield lineno, raw, line


# ---------------------------------------------------------------------------
# graphs
# ---------------------------------------------------------------------------


def graph_to_text(g: ReebGraph) -> str:
    lines = [f"v {vid} {format_value(value)}" for vid, value in g.vertices()]
    lines += [f"e {u} {v}" for u, v in sorted(g.edges)]
    return "\n".join(lines) + "\n"


def parse_graph_text(text: str, name: str | None = None) -> ReebGraph:
    vertices: list[tuple[str, object]] = []
    edges: list[tuple[str, str]] = []
    for lineno, raw, line in _data_lines(text):
        parts = line.split()
        if parts[0] == "v":
            if len(parts) != 3:
                raise ParseError(lineno, f"expected 'v <id> <value>', got {raw!r}")
            try:
                value = parse_value(parts[2])
            except ValueError as exc:
                raise ParseError(lineno, str(exc)) from exc
            vertices.append((parts[1], value))
        elif parts[0] == "e":
            if len(parts) != 3:
                raise ParseError(lineno, f"expected 'e <id1> <id2>', got {raw!r}")
            edges.append((parts[1], parts[2]))
        else:
            raise ParseError(lineno, f"unknown record type {parts[0]!r}")
    try:
        return ReebGraph(vertices, edges, name=name)
    except ValueError as exc:
        raise ParseError(None, str(exc)) from exc


def graph_to_json(g: ReebGraph) -> str:
    payload = {
        "name": g.name,
        "vertices": [{"id": vid, "value": format_value(value)} for vid, value in g.vertices()],
        "edges": sorted([u, v] for u, v in g.edges),
    }
    return json.dumps(payload, indent=2) + "\n"


def graph_from_json(text: str) -> ReebGraph:
    """Read the JSON object format; a missing or malformed field is a ValueError."""
    payload = json.loads(text)
    try:
        vertices = [(v["id"], parse_value(v["value"])) for v in payload["vertices"]]
        edges = [(u, v) for u, v in payload["edges"]]
    except (KeyError, IndexError, TypeError) as exc:
        raise ValueError(f"malformed graph object: {exc!r}") from exc
    return ReebGraph(vertices, edges, name=payload.get("name"))


# ---------------------------------------------------------------------------
# diagrams
# ---------------------------------------------------------------------------


def diagram_to_text(d: Diagram) -> str:
    return f"{d}\n" if d else ""


def parse_diagram_text(text: str) -> Diagram:
    points = []
    for lineno, raw, line in _data_lines(text):
        parts = line.split()
        if len(parts) != 3 or parts[0] not in KINDS:
            raise ParseError(lineno, f"expected '<kind> <birth> <death>', got {raw!r}")
        try:
            points.append(
                DiagramPoint(parts[0], parse_value(parts[1]), parse_value(parts[2]))
            )
        except ValueError as exc:
            raise ParseError(lineno, str(exc)) from exc
    return Diagram(points)


# ---------------------------------------------------------------------------
# correspondences
# ---------------------------------------------------------------------------


def _point_to_obj(p) -> dict:
    if p.vertex is not None:
        return {"vertex": p.vertex}
    return {"edge": p.edge, "value": format_value(p.value)}


def _point_from_obj(g: ReebGraph, obj: dict):
    if "vertex" in obj:
        return g.vertex_point(obj["vertex"])
    edge = obj["edge"]
    if isinstance(edge, bool) or not isinstance(edge, int):
        raise ValueError(f"an edge index is a JSON integer, not {json.dumps(edge)}")
    return g.edge_point(edge, parse_value(obj["value"]))


def correspondence_to_json(c) -> str:
    """Serialize a map pair; points are {'vertex': id} or {'edge': i, 'value': v}."""
    payload = {
        "resolution": format_value(c.resolution),
        "phi": [[_point_to_obj(x), _point_to_obj(y)] for x, y in c.phi.items()],
        "psi": [[_point_to_obj(y), _point_to_obj(x)] for y, x in c.psi.items()],
    }
    return json.dumps(payload, indent=2) + "\n"


def correspondence_from_json(g1: ReebGraph, g2: ReebGraph, text: str):
    """Read a sampled map pair; a file that certifies no bound is a ValueError.

    Text that is not a JSON object with `resolution`, `phi` and `psi` is a
    ParseError. The bound is the sampled distortion plus the 2 * resolution
    remainder, so the file is never exact, and `Correspondence` checks that
    phi and psi map their whole sample nets.
    """
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.lineno, exc.msg) from exc
    if not isinstance(payload, dict) or not {"resolution", "phi", "psi"} <= payload.keys():
        raise ParseError(None, "expected a JSON object with resolution, phi and psi")
    try:
        if payload.get("exact"):
            raise ValueError("a witness file is never exact: its bound keeps the sampling remainder")
        resolution = parse_value(payload["resolution"])
        phi = {_point_from_obj(g1, a): _point_from_obj(g2, b) for a, b in payload["phi"]}
        psi = {_point_from_obj(g2, a): _point_from_obj(g1, b) for a, b in payload["psi"]}
    except (KeyError, IndexError, TypeError) as exc:
        raise ValueError(f"no such point or field: {exc}") from exc
    return Correspondence(g1, g2, phi, psi, resolution)


# ---------------------------------------------------------------------------
# sniffing
# ---------------------------------------------------------------------------


def load_graph_or_diagram(text: str) -> Union[ReebGraph, Diagram]:
    """Parse either format by looking at the first data record."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return graph_from_json(text)
    for _, _, line in _data_lines(text):
        head = line.split()[0]
        if head in ("v", "e"):
            return parse_graph_text(text)
        if head in KINDS:
            return parse_diagram_text(text)
        break
    raise ValueError("file is neither a graph nor a diagram")
