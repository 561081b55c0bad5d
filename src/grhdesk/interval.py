"""Read-only interval cells, and exact values rounded outward to doubles.

Every enclosure the package computes is an interval array of ``ivec``: an
:class:`~grhdesk.ivec.IVec` of real intervals or a
:class:`~grhdesk.ivec.CVec` of complex rectangles.  A single cell of one,
what indexing or iterating an array gives, is a :class:`RealInterval`, a
closed interval [lo, hi] with double endpoints, or a :class:`ComplexBox`,
a rectangle with RealInterval sides re and im.  Cells do no arithmetic:
they are read (endpoints, width, whether they hold 0 or meet another
cell), never written, and only ``ivec`` makes them.

The rest of the module is the exact rounding the arrays and the big-float
kernels share: an exact rational (``_ratio_ends``, behind
``IVec.from_ratios``) or an integer times a power of two (``_narrow``, by
which every fixed-point ball of ``hurwitz`` and ``characters`` becomes
doubles) rounded outward once, and ``_sum_is_exact``, the TwoSum test
that keeps a cell's width exact when hi - lo is a double.  There is no
transcendental here, and nothing ever rounds inward.
"""

from __future__ import annotations

import math
import sys

_INF = math.inf


# ---------------------------------------------------------------------------
# hardware endpoint helpers


def _dn(x: float) -> float:
    return math.nextafter(x, -_INF)


def _up(x: float) -> float:
    return math.nextafter(x, _INF)


def _sum_is_exact(a: float, b: float, s: float) -> bool:
    """TwoSum error term of a+b is zero (valid for any magnitudes)."""
    v = s - a
    return (a - (s - v)) + (b - v) == 0.0


# ---------------------------------------------------------------------------
# exact values rounded outward to doubles

_MAX = sys.float_info.max


def _floor_float(n: int, e: int) -> float:
    """The largest double <= n 2^e."""
    # floor to 53 bits, or to the subnormal grid 2^-1074 where that is coarser
    k = max(abs(n).bit_length() - 53, -1074 - e, 0)
    m, ex = n >> k, e + k
    if not m or m.bit_length() + ex <= 1024:
        return math.ldexp(m, ex)  # exact: at most 53 bits on the double grid
    return _MAX if n > 0 else -_INF


def _narrow(lo: int, hi: int, e: int) -> tuple[float, float]:
    """Doubles enclosing [lo 2^e, hi 2^e], each side rounded outward once."""
    return _floor_float(lo, e), -_floor_float(-hi, e)


def _ratio_ends(n: int, d: int) -> tuple[float, float]:
    """The largest double <= n/d and the smallest >= it, for integers n and d > 0.

    n/d need not be in lowest terms.  CPython's int division n / d is
    correctly rounded, subnormals included, so n/d lies within half an ulp
    of q = n / d, and one exact comparison of q = qn/qd with n/d, the sign
    of qn d - n qd, says on which side: q is one endpoint and its
    neighbour toward n/d the other.  A quotient beyond the double range
    raises OverflowError and takes the integer path: n 2^k / d keeps at
    least 54 bits, so flooring it to an integer and then to 53 bits is one
    floor of n/d.  Both paths give the same endpoints, down to the sign of
    zero (the exact quotient 0 is [0.0, -0.0]).
    """
    try:
        q = n / d
    except OverflowError:
        k = max(54 + d.bit_length() - abs(n).bit_length(), 0)
        return _narrow((n << k) // d, -((-n << k) // d), -k)
    qn, qd = q.as_integer_ratio()
    side = qn * d - n * qd
    if side < 0:
        return q, _up(q)
    if side > 0:
        return _dn(q), q
    return (q, q) if n else (0.0, -0.0)


# ---------------------------------------------------------------------------
# cells


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
