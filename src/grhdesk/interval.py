"""Read-only interval cells.

Every enclosure the package computes is an interval array of ``ivec``: an
:class:`~grhdesk.ivec.IVec` of real intervals or a
:class:`~grhdesk.ivec.CVec` of complex rectangles.  A single cell of one,
what indexing or iterating an array gives, is a :class:`RealInterval`, a
closed interval [lo, hi] with double endpoints, or a :class:`ComplexBox`,
a rectangle with RealInterval sides re and im.  Cells do no arithmetic:
they are read (endpoints, width, whether they hold 0 or meet another
cell), never written, and only ``ivec`` makes them.  Exact values become
doubles in the exact kernel (``balls``); a cell's width is exact when
hi - lo is a double (``_sum_is_exact``, the TwoSum test), else one ulp
up.  There is no transcendental here, and nothing ever rounds inward.
"""

from __future__ import annotations

import math


def _up(x: float) -> float:
    return math.nextafter(x, math.inf)


def _sum_is_exact(a: float, b: float, s: float) -> bool:
    """TwoSum error term of a+b is zero (valid for any magnitudes)."""
    v = s - a
    return (a - (s - v)) + (b - v) == 0.0


class RealInterval:
    """One cell of an IVec: the closed interval [lo, hi], read-only."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: float, hi: float):
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is read-only")

    def __repr__(self) -> str:
        return f"[{self.lo!r}, {self.hi!r}]"

    def width(self) -> float:
        """Upper bound on hi - lo as a double (exact when hi - lo is)."""
        w = self.hi - self.lo
        return w if _sum_is_exact(self.hi, -self.lo, w) else _up(w)

    def contains_zero(self) -> bool:
        return self.lo <= 0.0 <= self.hi

    def intersects(self, other: "RealInterval") -> bool:
        return self.lo <= other.hi and other.lo <= self.hi


class ComplexBox:
    """One cell of a CVec: the rectangle re + i*im with RealInterval sides, read-only."""

    __slots__ = ("re", "im")

    def __init__(self, re: RealInterval, im: RealInterval):
        object.__setattr__(self, "re", re)
        object.__setattr__(self, "im", im)

    __setattr__ = RealInterval.__setattr__

    def __repr__(self) -> str:
        return f"({self.re!r}) + i*({self.im!r})"

    def intersects(self, other: "ComplexBox") -> bool:
        return self.re.intersects(other.re) and self.im.intersects(other.im)
