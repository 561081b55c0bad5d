"""Outward-rounded scalar interval arithmetic on doubles.

A :class:`RealInterval` is a closed interval [lo, hi] with IEEE double
endpoints.  Correctly-rounded operations (+, -, *, /, sqrt) are nudged one
ulp outward unless the result is exact; libm transcendentals are nudged
``_TRANS_ULPS`` ulps outward to cover their documented worst-case error.
Exact integer and rational inputs are rounded outward once
(``_ratio_ends``, the scalar primitive behind ``IVec.from_ratios``).  A
:class:`ComplexBox` is a rectangle with RealInterval sides.

The array tier (``ivec``) does the bulk work; this scalar tier keeps what
is still called: small q's theta sums, prefactors and recovery factors,
scalar because libm's 2-ulp trust gives narrower samples there than
numpy's kernel bound; the boxes of ``CharMeta``, ``q_pow`` and
``completion_factor``; the cell views of ``IVec``/``CVec``; and the tests'
oracles.

Every operation returns an interval that contains the exact image of its
input intervals.  Nothing here is ever allowed to round inward.
"""

from __future__ import annotations

import math
import numbers
import sys
from fractions import Fraction

from .errors import (
    DivisorContainsZero,
    LogDomain,
    NegativeSqrtDomain,
)

# platform libm documents <= 1 ulp worst-case for exp/log/sin/cos on
# x86-64 doubles; two ulps of outward slack keeps containment with margin.
_TRANS_ULPS = 2
_INF = math.inf
_TINY = math.ulp(0.0)  # smallest subnormal


# ---------------------------------------------------------------------------
# hardware endpoint helpers


def _dn(x: float) -> float:
    return math.nextafter(x, -_INF)


def _up(x: float) -> float:
    return math.nextafter(x, _INF)


def _dn_k(x: float, k: int) -> float:
    for _ in range(k):
        x = math.nextafter(x, -_INF)
    return x


def _up_k(x: float, k: int) -> float:
    for _ in range(k):
        x = math.nextafter(x, _INF)
    return x


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

    def __truediv__(self, other) -> "RealInterval":
        a, b = self, _coerce(other)
        if b.contains_zero():
            raise DivisorContainsZero(f"division by {b!r}")
        corners = ((a.lo, b.lo), (a.lo, b.hi), (a.hi, b.lo), (a.hi, b.hi))
        quots = [x / y for x, y in corners]
        lo, hi = min(quots), max(quots)
        # q = x/y is exact iff q*y reproduces x exactly; a tied corner
        # with an inexact quotient still forces the nudge
        lo_exact = hi_exact = True
        for (x, y), q in zip(corners, quots):
            if q == lo and lo_exact:
                lo_exact = _prod_is_exact(q, y, x)
            if q == hi and hi_exact:
                hi_exact = _prod_is_exact(q, y, x)
        return RealInterval(lo if lo_exact else _dn(lo), hi if hi_exact else _up(hi), _raw=True)

    def square(self) -> "RealInterval":
        """x^2 as a set image (never dips below 0 for straddling inputs)."""
        if self.contains_zero():
            return RealInterval(0.0, (self * self).hi, _raw=True)
        return self * self

    # -- elementary functions ----------------------------------------------

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

    def exp(self) -> "RealInterval":
        lo = max(0.0, _dn_k(_hw_exp(self.lo), _TRANS_ULPS))
        hi = _up_k(_hw_exp(self.hi), _TRANS_ULPS)
        if hi == 0.0:
            hi = _TINY
        return RealInterval(lo, hi, _raw=True)

    def log(self) -> "RealInterval":
        if self.lo <= 0.0:
            raise LogDomain(f"log of {self!r}")
        return RealInterval(
            _dn_k(math.log(self.lo), _TRANS_ULPS), _up_k(math.log(self.hi), _TRANS_ULPS), _raw=True
        )


# ---------------------------------------------------------------------------


def _hw_exp(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return _INF


def _coerce(b) -> RealInterval:
    return b if isinstance(b, RealInterval) else RealInterval.point(b)


# pi enclosures ------------------------------------------------------------

# math.pi is the nearest double below pi
_PI_LO, _PI_HI = math.pi, _up(math.pi)


def pi_interval() -> RealInterval:
    """The two doubles around pi."""
    return RealInterval(_PI_LO, _PI_HI, _raw=True)


def _cos_sin(x: RealInterval) -> tuple[RealInterval, RealInterval]:
    """Ranges of cos and sin over the interval via endpoint values + extrema."""
    if x.width() >= 2.0 * _PI_LO:
        full = RealInterval(-1.0, 1.0, _raw=True)
        return full, full

    def at(e, step):
        return step(math.cos(e), _TRANS_ULPS), step(math.sin(e), _TRANS_ULPS)

    floor_lo, ceil_lo = at(x.lo, _dn_k), at(x.lo, _up_k)
    floor_hi, ceil_hi = at(x.hi, _dn_k), at(x.hi, _up_k)
    # extremum locations: cos peaks at 2k*pi, dips at pi + 2k*pi; sin
    # peaks at pi/2 + 2k*pi, dips at -pi/2 + 2k*pi.  Enumerate candidate k
    # with a conservative float sweep (the interval is less than one
    # period wide).
    out = []
    for k, (offset_max, offset_min) in enumerate(((0.0, 1.0), (0.5, -0.5))):
        lo = min(floor_lo[k], floor_hi[k])
        hi = max(ceil_lo[k], ceil_hi[k])
        if _contains_odd_multiple(x.lo, x.hi, offset_max):
            hi = 1.0
        if _contains_odd_multiple(x.lo, x.hi, offset_min):
            lo = -1.0
        out.append(RealInterval(max(lo, -1.0), min(hi, 1.0), _raw=True))
    return out[0], out[1]


def _contains_odd_multiple(lo: float, hi: float, offset: float) -> bool:
    """Could (offset + 2k) * pi lie inside [lo, hi] for some integer k?

    Conservative: may answer True when the point is merely within a few ulps
    of the interval, which only widens the trig range.
    """
    # candidate k values bracketing the interval
    k_lo = math.floor(lo / (2.0 * _PI_HI) - offset / 2.0) - 1
    k_hi = math.ceil(hi / (2.0 * _PI_LO) - offset / 2.0) + 1
    for k in range(k_lo, k_hi + 1):
        m = offset + 2.0 * k
        # location interval for m*pi, outward
        if m >= 0:
            loc_lo, loc_hi = _dn(m * _PI_LO), _up(m * _PI_HI)
        else:
            loc_lo, loc_hi = _dn(m * _PI_HI), _up(m * _PI_LO)
        if loc_hi >= lo and loc_lo <= hi:
            return True
    return False


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

    def exp(self) -> "ComplexBox":
        r = self.re.exp()
        c, s = _cos_sin(self.im)
        return ComplexBox(r * c, r * s)

    def intersects(self, other: "ComplexBox") -> bool:
        return self.re.intersects(other.re) and self.im.intersects(other.im)


def _coerce_box(z) -> ComplexBox:
    if isinstance(z, ComplexBox):
        return z
    return ComplexBox.point(complex(z))


# ---------------------------------------------------------------------------
# Bernoulli numbers


_BERN_CACHE: dict[int, Fraction] = {}


def bernoulli(n: int) -> Fraction:
    """Exact Bernoulli number B_n."""
    b = _BERN_CACHE.get(n)
    if b is None:
        import mpmath

        p, q = mpmath.bernfrac(n)
        b = Fraction(int(p), int(q))
        _BERN_CACHE[n] = b
    return b
