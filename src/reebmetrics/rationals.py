"""Exact rational values: parsing, canonical printing, and integer lattices.

All function values in this package are `fractions.Fraction`. Floats are
rejected at every entry point because a single rounding error would corrupt
exact diagram equality and matching types downstream.

The hot loops of the read path (the persistence cell sort, the bottleneck
candidates, the travel-distance sweep) and the band-merge write path (the
band closure of `simplify`, the anchors, gaps and bands of the anchored
merge, and the band lookup and midpoints of a merge) do not compare
`Fraction`s. Each computation takes the lcm of the denominators of the
values it reads (`common_denominator`) and works on each value times that
lcm, an exact `int` (`on_lattice`). Scaling by a positive constant keeps
every order, tie and difference, so those loops compare and subtract plain
ints, and only the results they return become `Fraction`s again.

A `ReebGraph` carries its own lattice, computed once on construction: its
`scale` and each vertex's `level`, which its edge orientation, degrees,
validation, canonicalization and level isomorphism compare. A sample net
and the natural map of a correspondence build each sample value and its
image from levels, with one `Fraction` normalisation per point, and the
check of a correspondence tests its points against levels as ints. A
computation that also reads values the graph does not hold (sample points,
merge bands) takes the lcm of `g.scale` and the denominators of those extra
values only, and lifts each level by `scale // g.scale`: the travel-distance
sweep, the distortion and value defect of a sampled certificate, which
read both graphs' sweeps and every sample on one such lattice, and the band
merge, whose bands arrive as ints on their own lattice (the closure's, or
the anchors' and half-width's, lifted once) and are lifted with the levels
onto the lcm of the two.

A `Diagram` carries a lattice too: its `scale`, the lcm of its points'
denominators, and one int row per point. The persistence sweeps emit the
rows from a graph's levels, and the bottleneck matching, the band closure
of `simplify` and diagram snapping read them, lifting each diagram's rows
to the lcm of its `scale` and the other denominators they meet.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Iterable

_DECIMAL_RE = re.compile(r"^[+-]?(\d+)(\.(\d+))?$")
_RATIO_RE = re.compile(r"^[+-]?\d+/\d+$")

ValueLike = Fraction | int | str


def to_fraction(value: ValueLike) -> Fraction:
    """Coerce an exact value (Fraction, int, or decimal/ratio string)."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("boolean is not a graph value")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        raise TypeError(
            "float values are not accepted; pass a decimal string or Fraction"
        )
    if isinstance(value, str):
        return parse_value(value)
    raise TypeError(f"cannot interpret {value!r} as an exact value")


def common_denominator(values: Iterable[Fraction]) -> int:
    """The lcm of the denominators of `values`; 1 when there are none."""
    return math.lcm(*{value.denominator for value in values})


def on_lattice(value: Fraction, scale: int) -> int:
    """`value * scale` as an int; `scale` is a multiple of its denominator."""
    return value.numerator * (scale // value.denominator)


def parse_value(text: str) -> Fraction:
    """Parse a decimal string like '1.25' or a ratio like '5/11', nothing else.

    Anything else, a zero denominator included, is a ValueError.
    """
    if isinstance(text, str):
        text = text.strip()
        if _DECIMAL_RE.match(text) or _RATIO_RE.match(text):
            try:
                return Fraction(text)
            except ZeroDivisionError:
                raise ValueError(f"zero denominator in value {text!r}") from None
    raise ValueError(f"not a decimal or ratio value: {text!r}")


def format_value(value: Fraction) -> str:
    """Canonical text form: shortest decimal when exact, else 'p/q'.

    Values whose denominator has only factors 2 and 5 print as the minimal
    decimal string (no trailing zeros, integers without a point), so that
    parse(format(x)) == x and format(parse(s)) == s on canonical strings.
    """
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    den = value.denominator
    twos = 0
    while den % 2 == 0:
        den //= 2
        twos += 1
    fives = 0
    while den % 5 == 0:
        den //= 5
        fives += 1
    if den != 1:
        return f"{value.numerator}/{value.denominator}"
    digits = max(twos, fives)
    scaled = value.numerator * 10**digits // value.denominator
    sign = "-" if scaled < 0 else ""
    body = str(abs(scaled)).rjust(digits + 1, "0")
    whole, frac = body[:-digits], body[-digits:]
    frac = frac.rstrip("0")
    if not frac:
        return f"{sign}{whole}"
    return f"{sign}{whole}.{frac}"
