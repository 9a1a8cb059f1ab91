"""Extended persistence diagrams as typed multisets of points.

Four point kinds occur for a Reeb graph's induced map: Ord0 (downward
branches), Rel1 (upward branches), Ext0 (trunks), Ext1 (holes). Relative
coordinates are stored as plain reals; the reversed orientation is carried
by the kind tag.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .rationals import format_value, to_fraction

ORD0 = "Ord0"
REL1 = "Rel1"
EXT0 = "Ext0"
EXT1 = "Ext1"
KINDS = (ORD0, REL1, EXT0, EXT1)

_KIND_RANK = {kind: i for i, kind in enumerate(KINDS)}


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
        if self.kind == ORD0 and not self.birth < self.death:
            raise ValueError("Ord0 points lie strictly above the diagonal")
        if self.kind == REL1 and not self.birth > self.death:
            raise ValueError("Rel1 points lie strictly below the diagonal")
        if self.kind == EXT0 and not self.birth <= self.death:
            raise ValueError("Ext0 points lie on or above the diagonal")
        if self.kind == EXT1 and not self.birth >= self.death:
            raise ValueError("Ext1 points lie on or below the diagonal")

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


class Diagram:
    """Multiset of typed diagram points, kept in canonical sorted order."""

    def __init__(self, points: Iterable[DiagramPoint] = ()):
        self.points: tuple[DiagramPoint, ...] = tuple(
            sorted(points, key=DiagramPoint.sort_key)
        )

    def of_kind(self, kind: str) -> tuple[DiagramPoint, ...]:
        return tuple(p for p in self.points if p.kind == kind)

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Diagram):
            return NotImplemented
        return self.points == other.points

    def __hash__(self) -> int:
        return hash(self.points)

    def __repr__(self) -> str:
        return f"Diagram({list(self.points)!r})"

    def __str__(self) -> str:
        return "\n".join(str(p) for p in self.points)

