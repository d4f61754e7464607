"""Intersection arrays of distance-regular graphs and their derived parameters.

An intersection array {b_0,...,b_{D-1}; c_1,...,c_D} determines the candidate
parameters of a distance-regular graph of diameter D and valency k = b_0, with
a_i = k - b_i - c_i (b_D = c_0 = 0).  This module only enforces the structural
invariants every such array must satisfy (c_1 = 1, a_i >= 0, positive b_i and
c_i); the deeper necessary conditions live in drgf.feasibility.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property


class ArrayFormatError(ValueError):
    """Raised for text that does not describe a valid intersection array."""


@dataclass(frozen=True)
class IntersectionArray:
    """Immutable intersection array; safe to share across threads."""

    b: tuple[int, ...]
    c: tuple[int, ...]

    def __post_init__(self):
        if len(self.b) != len(self.c) or not self.b:
            raise ArrayFormatError("need equal, nonzero numbers of b and c entries")
        if any(not isinstance(x, int) for x in self.b + self.c):
            raise ArrayFormatError("entries must be integers")
        if self.c[0] != 1:
            raise ArrayFormatError(f"c_1 must be 1, got {self.c[0]}")
        if any(x < 1 for x in self.b) or any(x < 1 for x in self.c):
            raise ArrayFormatError("all b_i (i < D) and c_i must be >= 1")
        for i, a in enumerate(self.a):
            if a < 0:
                raise ArrayFormatError(f"a_{i} = {a} is negative")

    @property
    def D(self) -> int:
        return len(self.b)

    @property
    def k(self) -> int:
        return self.b[0]

    @cached_property
    def a(self) -> tuple[int, ...]:
        """a_0..a_D with the conventions b_D = 0, c_0 = 0 (so a_0 = 0)."""
        bb = self.b + (0,)
        cc = (0,) + self.c
        return tuple(self.k - bb[i] - cc[i] for i in range(self.D + 1))

    @cached_property
    def kseq(self) -> tuple[Fraction, ...]:
        """k_0 = 1, k_i = k_{i-1} b_{i-1} / c_i, exact rationals."""
        ks = [Fraction(1)]
        for i in range(self.D):
            ks.append(ks[-1] * self.b[i] / self.c[i])
        return tuple(ks)

    @cached_property
    def v(self) -> Fraction:
        return sum(self.kseq)

    @property
    def k_integral(self) -> bool:
        return all(x.denominator == 1 for x in self.kseq)

    @property
    def t(self) -> int | None:
        """Smallest i with a_i != 0, or None for a bipartite-type array."""
        for i in range(1, self.D + 1):
            if self.a[i] != 0:
                return i
        return None

    @property
    def g(self) -> int | None:
        """Odd girth 2t + 1, or None when all a_i vanish."""
        t = self.t
        return None if t is None else 2 * t + 1

    def __str__(self) -> str:
        return format_array(self)


_ARRAY_RE = re.compile(r"^\{([^;{}]*);([^;{}]*)\}$")


def parse_array(text: str) -> IntersectionArray:
    """Parse '{b0,...,b_{D-1};c1,...,cD}' (whitespace tolerated)."""
    compact = re.sub(r"\s+", "", text)
    m = _ARRAY_RE.match(compact)
    if not m:
        raise ArrayFormatError(f"not of the form {{b0,...;c1,...}}: {text!r}")
    try:
        b = tuple(int(x) for x in m.group(1).split(","))
        c = tuple(int(x) for x in m.group(2).split(","))
    except ValueError as exc:
        raise ArrayFormatError(f"non-integer entry in {text!r}") from exc
    return IntersectionArray(b, c)


def format_array(arr: IntersectionArray) -> str:
    """Canonical text form: no whitespace."""
    return "{" + ",".join(map(str, arr.b)) + ";" + ",".join(map(str, arr.c)) + "}"
