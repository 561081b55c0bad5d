"""Outward-rounded scalar interval arithmetic on doubles.

A :class:`RealInterval` is a closed interval [lo, hi] with IEEE double
endpoints.  Correctly-rounded operations (+, -, *, sqrt) are nudged one
ulp outward unless the result is exact.  Exact integer and rational
inputs, and the exact values of big-integer kernels, are rounded outward
once (``_ratio_ends``, the scalar primitive behind ``IVec.from_ratios``,
and ``_narrow``).  A :class:`ComplexBox` is a rectangle with RealInterval
sides.

There is no transcendental here.  Every enclosure's transcendental comes
either from a fixed-point ball of ``hurwitz`` or ``characters``
(mpmath.libmp, narrowed to doubles once) or from numpy in an interval
array (``ivec``).  The array tier does the bulk work; this scalar tier
keeps what is still called: the small-q plan's constants, the boxes of
``CharMeta``, ``q_pow`` and ``completion_factor``, the cell views of
``IVec``/``CVec``, and the tests' references.

Every operation returns an interval that contains the exact image of its
input intervals.  Nothing here is ever allowed to round inward.
"""

from __future__ import annotations

import math
import numbers
import sys
from fractions import Fraction

from .errors import NegativeSqrtDomain

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


# Veltkamp's splitter 2^27 + 1, and the magnitudes inside which Dekker's
# TwoProduct of two doubles is exact (see _prod_is_exact)
_SPLIT = 134217729.0
_DEKKER_LO = 2.0**-480
_DEKKER_HI = 2.0**480


def _prod_is_exact(a: float, b: float, p: float) -> bool:
    """p equals a*b exactly.

    When 2^-480 <= |a|, |b| <= 2^480 this is Dekker's TwoProduct with
    Veltkamp's split (Dekker, Numer. Math. 18, 1971): a*b = p exactly iff
    fl(a b) = p and the error a b - fl(a b) is zero.  Dekker's algorithm
    gives that error exactly when no step underflows or overflows, and in
    this range none can: every partial product and sum is a multiple of
    ulp(a) ulp(b) >= 2^-1064, on the subnormal grid 2^-1074, and is below
    2^962 in magnitude, the split's (2^27 + 1) x below 2^508.  Outside the
    range, and for zeros and non-finite values, the test is exact rational
    arithmetic; the verdict is the same either way.
    """
    if _DEKKER_LO <= abs(a) <= _DEKKER_HI and _DEKKER_LO <= abs(b) <= _DEKKER_HI:
        if a * b != p:
            return False
        c = _SPLIT * a
        ah = c - (c - a)
        al = a - ah
        c = _SPLIT * b
        bh = c - (c - b)
        bl = b - bh
        return ((ah * bh - p) + ah * bl + al * bh) + al * bl == 0.0
    if not (math.isfinite(a) and math.isfinite(b) and math.isfinite(p)):
        return False
    if a == 0.0 or b == 0.0:
        return p == 0.0
    an, ad = a.as_integer_ratio()
    bn, bd = b.as_integer_ratio()
    pn, pd = p.as_integer_ratio()
    return an * bn * pd == pn * ad * bd


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


def _end(x, side: int) -> float:
    """An endpoint as a double: an exact rational (int, Fraction, numpy
    integer) rounded outward, down for side 0 and up for side 1, anything
    else by float()."""
    if isinstance(x, numbers.Rational):
        return _ratio_ends(int(x.numerator), int(x.denominator))[side]
    return float(x)


# ---------------------------------------------------------------------------


class RealInterval:
    """Closed interval with double endpoints and outward rounding."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi, _raw: bool = False):
        if not _raw:
            flo, fhi = _end(lo, 0), _end(hi, 1)
            if not flo <= fhi:
                raise ValueError(f"invalid interval endpoints [{lo}, {hi}]")
            lo, hi = flo, fhi
        self.lo = lo
        self.hi = hi

    # -- constructors ------------------------------------------------------

    @staticmethod
    def point(x) -> "RealInterval":
        """Tightest interval containing x (exact when x is representable)."""
        if isinstance(x, float):
            return RealInterval(x, x, _raw=True)
        if isinstance(x, numbers.Integral):
            x = int(x)
            f = float(x)
            if int(f) == x:
                return RealInterval(f, f, _raw=True)
            return RealInterval.from_fraction(Fraction(x))
        if isinstance(x, Fraction):
            return RealInterval.from_fraction(x)
        f = float(x)
        return RealInterval(f, f, _raw=True)

    @staticmethod
    def from_fraction(fr: Fraction) -> "RealInterval":
        if not isinstance(fr, Fraction):
            fr = Fraction(fr)
        return RealInterval(*_ratio_ends(fr.numerator, fr.denominator), _raw=True)

    @staticmethod
    def zero() -> "RealInterval":
        return RealInterval(0.0, 0.0, _raw=True)

    @staticmethod
    def one() -> "RealInterval":
        return RealInterval(1.0, 1.0, _raw=True)

    # -- basic queries -----------------------------------------------------

    def __repr__(self) -> str:
        return f"[{self.lo!r}, {self.hi!r}]"

    def lo_fraction(self) -> Fraction:
        return Fraction(self.lo)

    def hi_fraction(self) -> Fraction:
        return Fraction(self.hi)

    def mid(self) -> float:
        """Approximate midpoint as a double (not a rigorous quantity)."""
        m = 0.5 * (self.lo + self.hi)
        if not math.isfinite(m):
            m = 0.5 * self.lo + 0.5 * self.hi
        return m

    def width(self) -> float:
        """Upper bound on hi - lo as a double (exact when hi - lo is)."""
        w = self.hi - self.lo
        return w if _sum_is_exact(self.hi, -self.lo, w) else _up(w)

    def mag(self) -> float:
        """Upper bound on sup |x| over the interval."""
        return max(abs(self.lo), abs(self.hi))

    def contains(self, x) -> bool:
        """Exact containment test for int/float/Fraction values."""
        fr = Fraction(x) if not isinstance(x, Fraction) else x
        return self.lo_fraction() <= fr <= self.hi_fraction()

    def contains_zero(self) -> bool:
        return self.lo <= 0.0 <= self.hi

    def intersects(self, other: "RealInterval") -> bool:
        return self.lo <= other.hi and other.lo <= self.hi

    def sign(self) -> int:
        """1 if strictly positive, -1 if strictly negative, 0 if straddling."""
        if self.lo > 0.0:
            return 1
        if self.hi < 0.0:
            return -1
        return 0

    # -- widening ---------------------------------------------------------

    def pad(self, bound: "RealInterval") -> "RealInterval":
        """Widen by [-r, r] where r is the upper endpoint of `bound` (>= 0)."""
        m = _coerce(bound).hi
        if m < 0.0:
            raise ValueError("pad radius must be nonnegative")
        return RealInterval(_dn(self.lo - m), _up(self.hi + m), _raw=True)

    # -- arithmetic --------------------------------------------------------

    def __neg__(self) -> "RealInterval":
        return RealInterval(-self.hi, -self.lo, _raw=True)

    def __add__(self, other) -> "RealInterval":
        b = _coerce(other)
        lo = self.lo + b.lo
        hi = self.hi + b.hi
        # skip the nudge when the float sum is exact
        if not _sum_is_exact(self.lo, b.lo, lo):
            lo = _dn(lo)
        if not _sum_is_exact(self.hi, b.hi, hi):
            hi = _up(hi)
        return RealInterval(lo, hi, _raw=True)

    def __sub__(self, other) -> "RealInterval":
        return self + (-_coerce(other))

    def __mul__(self, other) -> "RealInterval":
        a, b = self, _coerce(other)
        corners = ((a.lo, b.lo), (a.lo, b.hi), (a.hi, b.lo), (a.hi, b.hi))
        prods = [x * y for x, y in corners]
        lo, hi = min(prods), max(prods)
        # a tied corner with an inexact product still forces the nudge
        lo_exact = hi_exact = True
        for (x, y), p in zip(corners, prods):
            if p == lo and lo_exact:
                lo_exact = _prod_is_exact(x, y, p)
            if p == hi and hi_exact:
                hi_exact = _prod_is_exact(x, y, p)
        return RealInterval(lo if lo_exact else _dn(lo), hi if hi_exact else _up(hi), _raw=True)

    def square(self) -> "RealInterval":
        """x^2 as a set image (never dips below 0 for straddling inputs)."""
        if self.contains_zero():
            return RealInterval(0.0, (self * self).hi, _raw=True)
        return self * self

    def sqrt(self) -> "RealInterval":
        if self.lo < 0.0:
            raise NegativeSqrtDomain(f"sqrt of {self!r}")
        lo = math.sqrt(self.lo)
        hi = math.sqrt(self.hi)
        if not _prod_is_exact(lo, lo, self.lo):
            lo = max(0.0, _dn(lo))
        if not _prod_is_exact(hi, hi, self.hi):
            hi = _up(hi)
        return RealInterval(lo, hi, _raw=True)


# ---------------------------------------------------------------------------


def _coerce(b) -> RealInterval:
    return b if isinstance(b, RealInterval) else RealInterval.point(b)


# pi enclosures ------------------------------------------------------------

# math.pi is the nearest double below pi
_PI_LO, _PI_HI = math.pi, _up(math.pi)


def pi_interval() -> RealInterval:
    """The two doubles around pi."""
    return RealInterval(_PI_LO, _PI_HI, _raw=True)


# ---------------------------------------------------------------------------
# complex boxes


class ComplexBox:
    """Axis-aligned rectangle re + i*im with RealInterval sides."""

    __slots__ = ("re", "im")

    def __init__(self, re: RealInterval, im: RealInterval):
        self.re = re
        self.im = im

    @staticmethod
    def point(z: complex) -> "ComplexBox":
        z = complex(z)
        return ComplexBox(RealInterval.point(z.real), RealInterval.point(z.imag))

    @staticmethod
    def zero() -> "ComplexBox":
        return ComplexBox(RealInterval.zero(), RealInterval.zero())

    @staticmethod
    def one() -> "ComplexBox":
        return ComplexBox(RealInterval.one(), RealInterval.zero())

    def __repr__(self) -> str:
        return f"({self.re!r}) + i*({self.im!r})"

    def __add__(self, other) -> "ComplexBox":
        other = _coerce_box(other)
        return ComplexBox(self.re + other.re, self.im + other.im)

    def __neg__(self) -> "ComplexBox":
        return ComplexBox(-self.re, -self.im)

    def __mul__(self, other) -> "ComplexBox":
        if isinstance(other, RealInterval):
            return ComplexBox(self.re * other, self.im * other)
        other = _coerce_box(other)
        return ComplexBox(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def conj(self) -> "ComplexBox":
        return ComplexBox(self.re, -self.im)

    def mul_i(self) -> "ComplexBox":
        return ComplexBox(-self.im, self.re)

    def abs2(self) -> RealInterval:
        return self.re.square() + self.im.square()

    def abs(self) -> RealInterval:
        return self.abs2().sqrt()

    def intersects(self, other: "ComplexBox") -> bool:
        return self.re.intersects(other.re) and self.im.intersects(other.im)


def _coerce_box(z) -> ComplexBox:
    if isinstance(z, ComplexBox):
        return z
    return ComplexBox.point(complex(z))
