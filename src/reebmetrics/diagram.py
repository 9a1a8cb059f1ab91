"""Extended persistence diagrams as typed multisets of points.

Four point kinds occur for a Reeb graph's induced map: Ord0 (downward
branches), Rel1 (upward branches), Ext0 (trunks), Ext1 (holes). Relative
coordinates are stored as plain reals; the reversed orientation is carried
by the kind tag.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Iterable, Optional

from .rationals import common_denominator, format_value, on_lattice, to_fraction

ORD0 = "Ord0"
REL1 = "Rel1"
EXT0 = "Ext0"
EXT1 = "Ext1"
KINDS = (ORD0, REL1, EXT0, EXT1)

# a diagram row's kind is the kind's position in KINDS
_ORD0, _REL1, _EXT0, _EXT1 = range(len(KINDS))
_KIND_RANK = {kind: i for i, kind in enumerate(KINDS)}

# per kind rank, the signs of birth - death it allows, and the error otherwise
_SIDES = (
    ({-1}, "Ord0 points lie strictly above the diagonal"),
    ({1}, "Rel1 points lie strictly below the diagonal"),
    ({-1, 0}, "Ext0 points lie on or above the diagonal"),
    ({0, 1}, "Ext1 points lie on or below the diagonal"),
)


def _check_side(kind: int, birth, death) -> None:
    """Raise unless (birth, death) lies on its kind's side of the diagonal;
    the coordinates are `Fraction`s or ints on one lattice."""
    signs, message = _SIDES[kind]
    if (birth > death) - (birth < death) not in signs:
        raise ValueError(message)


@dataclass(frozen=True)
class DiagramPoint:
    kind: str
    birth: Fraction
    death: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "birth", to_fraction(self.birth))
        object.__setattr__(self, "death", to_fraction(self.death))
        if self.kind not in KINDS:
            raise ValueError(f"unknown diagram point kind {self.kind!r}")
        _check_side(_KIND_RANK[self.kind], self.birth, self.death)

    @property
    def persistence(self) -> Fraction:
        return abs(self.birth - self.death)

    @property
    def diagonal_distance(self) -> Fraction:
        """l-infinity distance to the diagonal: |birth - death| / 2."""
        return self.persistence / 2

    def sort_key(self) -> tuple:
        return (_KIND_RANK[self.kind], self.birth, self.death)

    def __str__(self) -> str:
        return f"{self.kind} {format_value(self.birth)} {format_value(self.death)}"


def linf(p: DiagramPoint, q: DiagramPoint) -> Fraction:
    return max(abs(p.birth - q.birth), abs(p.death - q.death))


_Row = tuple[int, int, int]  # (kind rank, birth, death) on a diagram's lattice


class Diagram:
    """Multiset of typed diagram points, kept in canonical sorted order.

    A diagram is stored on an int lattice: `scale`, the lcm of its points'
    denominators, and `rows`, one sorted `(kind rank, birth * scale,
    death * scale)` triple per point. Scaling by a positive constant keeps
    every order, so the rows sort exactly as the points do by
    `DiagramPoint.sort_key`, and two diagrams are equal, and hash alike,
    exactly when their points are. The `DiagramPoint`s themselves are built
    once, on the first read of `points`, iteration, `str` or `repr`; the
    persistence sweeps, the bottleneck matching and the band closure read
    the rows.
    """

    def __init__(self, points: Iterable[DiagramPoint] = ()):
        points = tuple(points)
        scale = common_denominator(chain.from_iterable((p.birth, p.death) for p in points))
        self.scale = scale
        self.rows: tuple[_Row, ...] = tuple(
            sorted(
                (_KIND_RANK[p.kind], on_lattice(p.birth, scale), on_lattice(p.death, scale))
                for p in points
            )
        )
        self._points: Optional[tuple[DiagramPoint, ...]] = None

    @classmethod
    def _from_rows(cls, scale: int, rows: Iterable[_Row]) -> Diagram:
        """The diagram of `rows` on a lattice of `scale` that holds every
        coordinate, such as a graph's own `scale`.

        Each row is checked against its kind's side of the diagonal, then
        the lattice is reduced to the lcm of the points' denominators by
        dividing out the gcd of `scale` and every coordinate.
        """
        rows = list(rows)
        common = scale
        for kind, birth, death in rows:
            _check_side(kind, birth, death)
            if common != 1:
                common = math.gcd(common, birth, death)
        if common != 1:
            scale //= common
            rows = [(kind, birth // common, death // common) for kind, birth, death in rows]
        rows.sort()
        d = cls.__new__(cls)
        d.scale, d.rows, d._points = scale, tuple(rows), None
        return d

    @property
    def points(self) -> tuple[DiagramPoint, ...]:
        if self._points is None:
            scale = self.scale
            self._points = tuple(
                DiagramPoint(KINDS[kind], Fraction(birth, scale), Fraction(death, scale))
                for kind, birth, death in self.rows
            )
        return self._points

    def of_kind(self, kind: str) -> tuple[DiagramPoint, ...]:
        return tuple(p for p in self.points if p.kind == kind)

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.points)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Diagram):
            return NotImplemented
        return self.scale == other.scale and self.rows == other.rows

    def __hash__(self) -> int:
        return hash((self.scale, self.rows))

    def __repr__(self) -> str:
        return f"Diagram({list(self.points)!r})"

    def __str__(self) -> str:
        return "\n".join(str(p) for p in self.points)
