"""Two-tier outward-rounded interval arithmetic.

A :class:`RealInterval` is a closed interval [lo, hi] whose endpoints live in
one of two precision tiers:

* hardware -- IEEE double endpoints.  Correctly-rounded operations (+, -, *,
  /, sqrt) are nudged one ulp outward; libm transcendentals are nudged
  ``_TRANS_ULPS`` ulps outward to cover their documented worst-case error.
* bigfloat(bits) -- arbitrary-precision endpoints on mpmath's raw mpf
  representation.  Arithmetic kernels are correctly rounded under directed
  rounding; transcendental kernels run with ``_GUARD`` extra bits and are
  nudged two ulps outward at the target precision.

Every operation returns an interval that contains the exact image of its
input intervals.  Nothing here is ever allowed to round inward.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from fractions import Fraction

from mpmath import libmp
from mpmath.libmp import (
    fnan,
    fninf,
    fone,
    fzero,
    from_float,
    from_int,
    from_man_exp,
    from_rational,
    mpf_abs,
    mpf_add,
    mpf_atan,
    mpf_cmp,
    mpf_cos_sin,
    mpf_div,
    mpf_exp,
    mpf_log,
    mpf_mul,
    mpf_neg,
    mpf_pi,
    mpf_pos,
    mpf_sqrt,
    mpf_sub,
    to_float,
)

from .errors import (
    DivisorContainsZero,
    LogDomain,
    NegativeSqrtDomain,
    NonPositiveRealPart,
)

_FLOOR = "f"
_CEIL = "c"
_GUARD = 32
_BIG_TRANS_ULPS = 2
# platform libm documents <= 1 ulp worst-case for exp/log/sin/cos/atan on
# x86-64 doubles; two ulps of outward slack keeps containment with margin.
_TRANS_ULPS = 2
_INF = math.inf
_TINY = math.ulp(0.0)  # smallest subnormal


@dataclass(frozen=True)
class PrecisionTier:
    """Where interval endpoints live: 'hardware' doubles or 'bigfloat' mpfs."""

    kind: str
    bits: int

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        if self.kind == "hardware":
            return "hardware"
        return f"bigfloat({self.bits})"


HARDWARE = PrecisionTier("hardware", 53)


def bigfloat(bits: int = 128) -> PrecisionTier:
    """Big-float tier at the given mantissa size (minimum 64 bits)."""
    if bits < 64:
        raise ValueError("bigfloat tier requires at least 64 bits")
    return PrecisionTier("bigfloat", bits)


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
# bigfloat endpoint helpers (raw mpf tuples)


def _is_special(x) -> bool:
    return x[1] == 0 and x != fzero


def _raw_ulp(x, bits: int, count: int):
    """count ulps at the magnitude of x (or an absolute floor for x == 0)."""
    if x == fzero:
        return from_man_exp(count, -4 * bits)
    # value of x is man * 2^exp with bc = bit length of man
    e = x[2] + x[3] - bits
    return from_man_exp(count, e)


def _nudge(x, bits: int, count: int, direction: str):
    if _is_special(x):
        return x
    u = _raw_ulp(x, bits, count)
    if direction == _FLOOR:
        return mpf_sub(x, u, bits + 4, _FLOOR)
    return mpf_add(x, u, bits + 4, _CEIL)


def _big_trans(fn, x, bits: int, direction: str):
    return _big_round(fn(x, bits + _GUARD, direction), bits, direction)


def _big_round(r, bits: int, direction: str):
    """A kernel result at bits + _GUARD, rounded to bits and nudged outward."""
    r = mpf_pos(r, bits, direction)
    return _nudge(r, bits, _BIG_TRANS_ULPS, direction)


def _raw_to_fraction(x) -> Fraction:
    if x == fzero:
        return Fraction(0)
    if _is_special(x):
        raise ValueError("cannot convert non-finite endpoint to Fraction")
    sign, man, exp, _ = x
    v = Fraction(int(man)) * Fraction(2) ** exp
    return -v if sign else v


def _raw_to_float_dir(x, direction: str) -> float:
    """Nearest double in the given direction (floor/ceil) for a raw mpf."""
    if x == fzero:
        return 0.0
    if _is_special(x):
        if x == fninf:
            return -_INF
        if x == fnan:
            raise ValueError("NaN endpoint")
        return _INF
    r = mpf_pos(x, 53, direction)
    f = to_float(r, strict=False)
    # exactness check: ldexp may have flushed past the double exponent range
    back = from_float(f)
    c = mpf_cmp(back, x)
    if direction == _FLOOR and c > 0:
        f = _dn(f)
    elif direction == _CEIL and c < 0:
        f = _up(f)
    return f


def _floor_float(n: int, e: int) -> float:
    """The largest double <= n 2^e."""
    k = max(abs(n).bit_length() - 53, 0)
    m, ex = n >> k, e + k  # floor to 53 bits
    if ex >= -1074 and m.bit_length() + ex <= 1024:
        return math.ldexp(m, ex)  # exact: a 53-bit integer times 2^ex in range
    return _raw_to_float_dir(from_man_exp(n, e), _FLOOR)


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


def _fmin(a, b):
    return a if mpf_cmp(a, b) <= 0 else b


def _fmax(a, b):
    return a if mpf_cmp(a, b) >= 0 else b


# ---------------------------------------------------------------------------


class RealInterval:
    """Closed interval with outward rounding on a fixed precision tier."""

    __slots__ = ("lo", "hi", "tier")

    def __init__(self, lo, hi, tier: PrecisionTier = HARDWARE, _raw: bool = False):
        if _raw:
            self.lo = lo
            self.hi = hi
            self.tier = tier
            return
        if tier.kind == "hardware":
            flo, fhi = float(lo), float(hi)
            if not flo <= fhi:
                raise ValueError(f"invalid interval endpoints [{lo}, {hi}]")
            self.lo = flo
            self.hi = fhi
        else:
            rlo = _any_to_raw(lo, tier.bits, _FLOOR)
            rhi = _any_to_raw(hi, tier.bits, _CEIL)
            if mpf_cmp(rlo, rhi) > 0:
                raise ValueError(f"invalid interval endpoints [{lo}, {hi}]")
            self.lo = rlo
            self.hi = rhi
        self.tier = tier

    # -- constructors ------------------------------------------------------

    @staticmethod
    def point(x, tier: PrecisionTier = HARDWARE) -> "RealInterval":
        """Tightest interval containing x (exact when x is representable)."""
        if tier.kind == "hardware":
            if isinstance(x, float):
                return RealInterval(x, x, tier, _raw=True)
            if isinstance(x, int):
                f = float(x)
                if int(f) == x:
                    return RealInterval(f, f, tier, _raw=True)
                return RealInterval.from_fraction(Fraction(x), tier)
            if isinstance(x, Fraction):
                return RealInterval.from_fraction(x, tier)
            f = float(x)
            return RealInterval(f, f, tier, _raw=True)
        lo = _any_to_raw(x, tier.bits, _FLOOR)
        hi = _any_to_raw(x, tier.bits, _CEIL)
        return RealInterval(lo, hi, tier, _raw=True)

    @staticmethod
    def from_fraction(fr: Fraction, tier: PrecisionTier = HARDWARE) -> "RealInterval":
        if not isinstance(fr, Fraction):
            fr = Fraction(fr)
        if tier.kind == "hardware":
            return RealInterval(*_ratio_ends(fr.numerator, fr.denominator), tier, _raw=True)
        lo = from_rational(fr.numerator, fr.denominator, tier.bits, _FLOOR)
        hi = from_rational(fr.numerator, fr.denominator, tier.bits, _CEIL)
        return RealInterval(lo, hi, tier, _raw=True)

    @staticmethod
    def from_decimal(s: str, tier: PrecisionTier = HARDWARE) -> "RealInterval":
        """Enclosure of an exact decimal literal such as '1.8397'."""
        fr = Fraction(s)
        return RealInterval.from_fraction(fr, tier)

    @staticmethod
    def zero(tier: PrecisionTier = HARDWARE) -> "RealInterval":
        if tier.kind == "hardware":
            return RealInterval(0.0, 0.0, tier, _raw=True)
        return RealInterval(fzero, fzero, tier, _raw=True)

    @staticmethod
    def one(tier: PrecisionTier = HARDWARE) -> "RealInterval":
        if tier.kind == "hardware":
            return RealInterval(1.0, 1.0, tier, _raw=True)
        return RealInterval(fone, fone, tier, _raw=True)

    @staticmethod
    def hull_of(*vals: "RealInterval") -> "RealInterval":
        out = vals[0]
        for v in vals[1:]:
            out = out.hull(v)
        return out

    # -- basic queries -----------------------------------------------------

    def __repr__(self) -> str:
        if self.tier.kind == "hardware":
            return f"[{self.lo!r}, {self.hi!r}]"
        return (
            f"[{libmp.to_str(self.lo, 20)}, {libmp.to_str(self.hi, 20)}]"
            f"@{self.tier.bits}"
        )

    def lo_float(self) -> float:
        """Lower endpoint as the nearest double at or below it."""
        if self.tier.kind == "hardware":
            return self.lo
        return _raw_to_float_dir(self.lo, _FLOOR)

    def hi_float(self) -> float:
        if self.tier.kind == "hardware":
            return self.hi
        return _raw_to_float_dir(self.hi, _CEIL)

    def lo_fraction(self) -> Fraction:
        if self.tier.kind == "hardware":
            return Fraction(self.lo)
        return _raw_to_fraction(self.lo)

    def hi_fraction(self) -> Fraction:
        if self.tier.kind == "hardware":
            return Fraction(self.hi)
        return _raw_to_fraction(self.hi)

    def mid(self) -> float:
        """Approximate midpoint as a double (not a rigorous quantity)."""
        lo, hi = self.lo_float(), self.hi_float()
        m = 0.5 * (lo + hi)
        if not math.isfinite(m):
            m = 0.5 * lo + 0.5 * hi
        return m

    def width(self) -> float:
        """Upper bound on hi - lo as a double (exact when hi - lo is)."""
        if self.tier.kind == "hardware":
            w = self.hi - self.lo
            return w if _sum_is_exact(self.hi, -self.lo, w) else _up(w)
        w = mpf_sub(self.hi, self.lo, 53, _CEIL)
        return _raw_to_float_dir(w, _CEIL)

    def mag(self) -> float:
        """Upper bound on sup |x| over the interval."""
        return max(abs(self.lo_float()), abs(self.hi_float()))

    def contains(self, x) -> bool:
        """Exact containment test for int/float/Fraction values."""
        fr = Fraction(x) if not isinstance(x, Fraction) else x
        return self.lo_fraction() <= fr <= self.hi_fraction()

    def contains_zero(self) -> bool:
        if self.tier.kind == "hardware":
            return self.lo <= 0.0 <= self.hi
        return mpf_cmp(self.lo, fzero) <= 0 <= mpf_cmp(self.hi, fzero)

    def contains_interval(self, other: "RealInterval") -> bool:
        return (
            self.lo_fraction() <= other.lo_fraction()
            and other.hi_fraction() <= self.hi_fraction()
        )

    def intersects(self, other: "RealInterval") -> bool:
        return (
            self.lo_fraction() <= other.hi_fraction()
            and other.lo_fraction() <= self.hi_fraction()
        )

    def sign(self) -> int:
        """1 if strictly positive, -1 if strictly negative, 0 if straddling."""
        if self.tier.kind == "hardware":
            if self.lo > 0.0:
                return 1
            if self.hi < 0.0:
                return -1
            return 0
        if mpf_cmp(self.lo, fzero) > 0:
            return 1
        if mpf_cmp(self.hi, fzero) < 0:
            return -1
        return 0

    # -- lattice ops -------------------------------------------------------

    def hull(self, other: "RealInterval") -> "RealInterval":
        a, b = _coerce_pair(self, other)
        if a.tier.kind == "hardware":
            return RealInterval(min(a.lo, b.lo), max(a.hi, b.hi), a.tier, _raw=True)
        return RealInterval(_fmin(a.lo, b.lo), _fmax(a.hi, b.hi), a.tier, _raw=True)

    def pad(self, bound: "RealInterval") -> "RealInterval":
        """Widen by [-r, r] where r is the upper endpoint of `bound` (>= 0)."""
        r = bound if isinstance(bound, RealInterval) else RealInterval.point(bound, self.tier)
        if self.tier.kind == "hardware":
            m = r.hi_float()
            if m < 0.0:
                raise ValueError("pad radius must be nonnegative")
            return RealInterval(_dn(self.lo - m), _up(self.hi + m), self.tier, _raw=True)
        rr = _any_to_raw(r.hi_fraction(), self.tier.bits, _CEIL)
        if mpf_cmp(rr, fzero) < 0:
            raise ValueError("pad radius must be nonnegative")
        bits = self.tier.bits
        return RealInterval(
            mpf_sub(self.lo, rr, bits, _FLOOR),
            mpf_add(self.hi, rr, bits, _CEIL),
            self.tier,
            _raw=True,
        )

    def widen_to(self, tier: PrecisionTier) -> "RealInterval":
        """Re-represent on another tier, rounding outward as needed."""
        if tier == self.tier:
            return self
        if tier.kind == "hardware":
            return RealInterval(self.lo_float(), self.hi_float(), tier, _raw=True)
        if self.tier.kind == "hardware":
            lo = from_float(self.lo)
            hi = from_float(self.hi)
        else:
            lo = mpf_pos(self.lo, tier.bits, _FLOOR)
            hi = mpf_pos(self.hi, tier.bits, _CEIL)
        return RealInterval(lo, hi, tier, _raw=True)

    # -- arithmetic --------------------------------------------------------

    def __neg__(self) -> "RealInterval":
        if self.tier.kind == "hardware":
            return RealInterval(-self.hi, -self.lo, self.tier, _raw=True)
        return RealInterval(mpf_neg(self.hi), mpf_neg(self.lo), self.tier, _raw=True)

    def __add__(self, other) -> "RealInterval":
        a, b = _coerce_pair(self, other)
        if a.tier.kind == "hardware":
            lo = a.lo + b.lo
            hi = a.hi + b.hi
            # skip the nudge when the float sum is exact
            if not _sum_is_exact(a.lo, b.lo, lo):
                lo = _dn(lo)
            if not _sum_is_exact(a.hi, b.hi, hi):
                hi = _up(hi)
            return RealInterval(lo, hi, a.tier, _raw=True)
        bits = a.tier.bits
        return RealInterval(
            mpf_add(a.lo, b.lo, bits, _FLOOR),
            mpf_add(a.hi, b.hi, bits, _CEIL),
            a.tier,
            _raw=True,
        )

    __radd__ = __add__

    def __sub__(self, other) -> "RealInterval":
        a, b = _coerce_pair(self, other)
        return a + (-b)

    def __rsub__(self, other) -> "RealInterval":
        a, b = _coerce_pair(self, other)
        return b + (-a)

    def __mul__(self, other) -> "RealInterval":
        a, b = _coerce_pair(self, other)
        if a.tier.kind == "hardware":
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
            return RealInterval(
                lo if lo_exact else _dn(lo), hi if hi_exact else _up(hi), a.tier, _raw=True
            )
        bits = a.tier.bits
        los = (
            mpf_mul(a.lo, b.lo, bits, _FLOOR),
            mpf_mul(a.lo, b.hi, bits, _FLOOR),
            mpf_mul(a.hi, b.lo, bits, _FLOOR),
            mpf_mul(a.hi, b.hi, bits, _FLOOR),
        )
        his = (
            mpf_mul(a.lo, b.lo, bits, _CEIL),
            mpf_mul(a.lo, b.hi, bits, _CEIL),
            mpf_mul(a.hi, b.lo, bits, _CEIL),
            mpf_mul(a.hi, b.hi, bits, _CEIL),
        )
        lo = los[0]
        for p in los[1:]:
            lo = _fmin(lo, p)
        hi = his[0]
        for p in his[1:]:
            hi = _fmax(hi, p)
        return RealInterval(lo, hi, a.tier, _raw=True)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RealInterval":
        a, b = _coerce_pair(self, other)
        if b.contains_zero():
            raise DivisorContainsZero(f"division by {b!r}")
        if a.tier.kind == "hardware":
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
            return RealInterval(
                lo if lo_exact else _dn(lo), hi if hi_exact else _up(hi), a.tier, _raw=True
            )
        bits = a.tier.bits
        los = (
            mpf_div(a.lo, b.lo, bits, _FLOOR),
            mpf_div(a.lo, b.hi, bits, _FLOOR),
            mpf_div(a.hi, b.lo, bits, _FLOOR),
            mpf_div(a.hi, b.hi, bits, _FLOOR),
        )
        his = (
            mpf_div(a.lo, b.lo, bits, _CEIL),
            mpf_div(a.lo, b.hi, bits, _CEIL),
            mpf_div(a.hi, b.lo, bits, _CEIL),
            mpf_div(a.hi, b.hi, bits, _CEIL),
        )
        lo = los[0]
        for p in los[1:]:
            lo = _fmin(lo, p)
        hi = his[0]
        for p in his[1:]:
            hi = _fmax(hi, p)
        return RealInterval(lo, hi, a.tier, _raw=True)

    def __rtruediv__(self, other) -> "RealInterval":
        a, b = _coerce_pair(self, other)
        return b / a

    def square(self) -> "RealInterval":
        """x^2 as a set image (never dips below 0 for straddling inputs)."""
        if self.contains_zero():
            m = self * self
            if self.tier.kind == "hardware":
                return RealInterval(0.0, m.hi, self.tier, _raw=True)
            return RealInterval(fzero, m.hi, self.tier, _raw=True)
        return self * self

    def abs(self) -> "RealInterval":
        if self.sign() >= 1:
            return self
        if self.sign() <= -1:
            return -self
        if self.tier.kind == "hardware":
            return RealInterval(0.0, max(-self.lo, self.hi), self.tier, _raw=True)
        return RealInterval(fzero, _fmax(mpf_abs(self.lo), mpf_abs(self.hi)), self.tier, _raw=True)

    # -- elementary functions ----------------------------------------------

    def sqrt(self) -> "RealInterval":
        if self.tier.kind == "hardware":
            if self.lo < 0.0:
                raise NegativeSqrtDomain(f"sqrt of {self!r}")
            lo = math.sqrt(self.lo)
            hi = math.sqrt(self.hi)
            if not _prod_is_exact(lo, lo, self.lo):
                lo = max(0.0, _dn(lo))
            if not _prod_is_exact(hi, hi, self.hi):
                hi = _up(hi)
            return RealInterval(lo, hi, self.tier, _raw=True)
        if mpf_cmp(self.lo, fzero) < 0:
            raise NegativeSqrtDomain(f"sqrt of {self!r}")
        bits = self.tier.bits
        return RealInterval(
            mpf_sqrt(self.lo, bits, _FLOOR),
            mpf_sqrt(self.hi, bits, _CEIL),
            self.tier,
            _raw=True,
        )

    def exp(self) -> "RealInterval":
        if self.tier.kind == "hardware":
            lo = max(0.0, _dn_k(_hw_exp(self.lo), _TRANS_ULPS))
            hi = _up_k(_hw_exp(self.hi), _TRANS_ULPS)
            if hi == 0.0:
                hi = _TINY
            return RealInterval(lo, hi, self.tier, _raw=True)
        return RealInterval(
            _big_trans(mpf_exp, self.lo, self.tier.bits, _FLOOR),
            _big_trans(mpf_exp, self.hi, self.tier.bits, _CEIL),
            self.tier,
            _raw=True,
        )

    def log(self) -> "RealInterval":
        if self.tier.kind == "hardware":
            if self.lo <= 0.0:
                raise LogDomain(f"log of {self!r}")
            return RealInterval(
                _dn_k(math.log(self.lo), _TRANS_ULPS),
                _up_k(math.log(self.hi), _TRANS_ULPS),
                self.tier,
                _raw=True,
            )
        if mpf_cmp(self.lo, fzero) <= 0:
            raise LogDomain(f"log of {self!r}")
        return RealInterval(
            _big_trans(mpf_log, self.lo, self.tier.bits, _FLOOR),
            _big_trans(mpf_log, self.hi, self.tier.bits, _CEIL),
            self.tier,
            _raw=True,
        )

    def atan(self) -> "RealInterval":
        if self.tier.kind == "hardware":
            return RealInterval(
                _dn_k(math.atan(self.lo), _TRANS_ULPS),
                _up_k(math.atan(self.hi), _TRANS_ULPS),
                self.tier,
                _raw=True,
            )
        return RealInterval(
            _big_trans(mpf_atan, self.lo, self.tier.bits, _FLOOR),
            _big_trans(mpf_atan, self.hi, self.tier.bits, _CEIL),
            self.tier,
            _raw=True,
        )

    def sin(self) -> "RealInterval":
        return _cos_sin(self)[1]

    def cos(self) -> "RealInterval":
        return _cos_sin(self)[0]


# ---------------------------------------------------------------------------


def _hw_exp(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return _INF


def _any_to_raw(x, bits: int, direction: str):
    """Directed conversion of int/float/Fraction/raw to a raw mpf."""
    if isinstance(x, tuple):
        return mpf_pos(x, bits, direction)
    if isinstance(x, float):
        return from_float(x)  # exact
    if isinstance(x, int):
        return from_int(x, bits, direction)
    if isinstance(x, Fraction):
        return from_rational(x.numerator, x.denominator, bits, direction)
    raise TypeError(f"cannot build bigfloat endpoint from {type(x)!r}")


def _coerce_pair(a: RealInterval, b) -> tuple[RealInterval, RealInterval]:
    if not isinstance(b, RealInterval):
        b = RealInterval.point(b, a.tier)
    if a.tier != b.tier:
        raise TypeError(f"tier mismatch: {a.tier!r} vs {b.tier!r}")
    return a, b


# pi enclosures ------------------------------------------------------------

_PI_CACHE: dict[int, RealInterval] = {}


def pi_interval(tier: PrecisionTier = HARDWARE) -> RealInterval:
    if tier.kind == "hardware":
        # math.pi is the nearest double below pi
        return RealInterval(math.pi, _up(math.pi), HARDWARE, _raw=True)
    iv = _PI_CACHE.get(tier.bits)
    if iv is None:
        lo = _nudge(mpf_pi(tier.bits + _GUARD, _FLOOR), tier.bits, 1, _FLOOR)
        hi = _nudge(mpf_pi(tier.bits + _GUARD, _CEIL), tier.bits, 1, _CEIL)
        iv = RealInterval(mpf_pos(lo, tier.bits, _FLOOR), mpf_pos(hi, tier.bits, _CEIL), tier, _raw=True)
        _PI_CACHE[tier.bits] = iv
    return iv


_PI_FLOATS: dict[PrecisionTier, tuple[float, float, float]] = {}


def _pi_floats(tier: PrecisionTier) -> tuple[float, float, float]:
    """Doubles pi_lo <= pi <= pi_hi and two_pi_lo <= 2 pi for the tier."""
    fl = _PI_FLOATS.get(tier)
    if fl is None:
        if tier.kind == "hardware":
            fl = (math.pi, _up(math.pi), 2.0 * math.pi)
        else:
            pi = pi_interval(tier)
            fl = (pi.lo_float(), pi.hi_float(), (pi + pi).lo_float())
        _PI_FLOATS[tier] = fl
    return fl


def _cos_sin(x: RealInterval) -> tuple[RealInterval, RealInterval]:
    """Ranges of cos and sin over the interval via endpoint values + extrema.

    On the bigfloat tier one mpf_cos_sin call per endpoint and rounding
    direction gives both functions; mpmath rounds only when it converts
    the final fixed-point values, so each endpoint is the one mpf_cos or
    mpf_sin alone would give.
    """
    tier = x.tier
    pi_lo, pi_hi, two_pi_lo = _pi_floats(tier)
    if tier.kind == "hardware":
        one, none, fmin, fmax = 1.0, -1.0, min, max

        def at(e, d):
            step = _dn_k if d == _FLOOR else _up_k
            return step(math.cos(e), _TRANS_ULPS), step(math.sin(e), _TRANS_ULPS)

    else:
        one, none, fmin, fmax = fone, mpf_neg(fone), _fmin, _fmax
        bits = tier.bits

        def at(e, d):
            return [_big_round(v, bits, d) for v in mpf_cos_sin(e, bits + _GUARD, d)]

    if x.width() >= two_pi_lo:
        full = RealInterval(none, one, tier, _raw=True)
        return full, full

    lo_f, hi_f = x.lo_float(), x.hi_float()

    floor_lo, ceil_lo = at(x.lo, _FLOOR), at(x.lo, _CEIL)
    floor_hi, ceil_hi = at(x.hi, _FLOOR), at(x.hi, _CEIL)
    # extremum locations: cos peaks at 2k*pi, dips at pi + 2k*pi; sin
    # peaks at pi/2 + 2k*pi, dips at -pi/2 + 2k*pi.  Enumerate candidate k
    # with a conservative float sweep (the interval is less than one
    # period wide).
    out = []
    for k, (offset_max, offset_min) in enumerate(((0.0, 1.0), (0.5, -0.5))):
        lo = fmin(floor_lo[k], floor_hi[k])
        hi = fmax(ceil_lo[k], ceil_hi[k])
        if _contains_odd_multiple(lo_f, hi_f, pi_lo, pi_hi, offset_max):
            hi = one
        if _contains_odd_multiple(lo_f, hi_f, pi_lo, pi_hi, offset_min):
            lo = none
        out.append(RealInterval(fmax(lo, none), fmin(hi, one), tier, _raw=True))
    return out[0], out[1]


def _contains_odd_multiple(lo: float, hi: float, pi_lo: float, pi_hi: float, offset: float) -> bool:
    """Could (offset + 2k) * pi lie inside [lo, hi] for some integer k?

    Conservative: may answer True when the point is merely within a few ulps
    of the interval, which only widens the trig range.
    """
    # candidate k values bracketing the interval
    k_lo = math.floor(lo / (2.0 * pi_hi) - offset / 2.0) - 1
    k_hi = math.ceil(hi / (2.0 * pi_lo) - offset / 2.0) + 1
    for k in range(k_lo, k_hi + 1):
        m = offset + 2.0 * k
        # location interval for m*pi, outward
        if m >= 0:
            loc_lo, loc_hi = _dn(m * pi_lo), _up(m * pi_hi)
        else:
            loc_lo, loc_hi = _dn(m * pi_hi), _up(m * pi_lo)
        if loc_hi >= lo and loc_lo <= hi:
            return True
    return False


# ---------------------------------------------------------------------------
# complex boxes


class ComplexBox:
    """Axis-aligned rectangle re + i*im with RealInterval sides."""

    __slots__ = ("re", "im")

    def __init__(self, re: RealInterval, im: RealInterval):
        if re.tier != im.tier:
            raise TypeError("ComplexBox components must share a tier")
        self.re = re
        self.im = im

    @property
    def tier(self) -> PrecisionTier:
        return self.re.tier

    @staticmethod
    def point(z: complex, tier: PrecisionTier = HARDWARE) -> "ComplexBox":
        z = complex(z)
        return ComplexBox(RealInterval.point(z.real, tier), RealInterval.point(z.imag, tier))

    @staticmethod
    def from_real(re: RealInterval) -> "ComplexBox":
        return ComplexBox(re, RealInterval.zero(re.tier))

    @staticmethod
    def zero(tier: PrecisionTier = HARDWARE) -> "ComplexBox":
        return ComplexBox(RealInterval.zero(tier), RealInterval.zero(tier))

    @staticmethod
    def one(tier: PrecisionTier = HARDWARE) -> "ComplexBox":
        return ComplexBox(RealInterval.one(tier), RealInterval.zero(tier))

    def __repr__(self) -> str:
        return f"({self.re!r}) + i*({self.im!r})"

    def __add__(self, other) -> "ComplexBox":
        other = _coerce_box(other, self.tier)
        return ComplexBox(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other) -> "ComplexBox":
        other = _coerce_box(other, self.tier)
        return ComplexBox(self.re - other.re, self.im - other.im)

    def __rsub__(self, other) -> "ComplexBox":
        other = _coerce_box(other, self.tier)
        return other - self

    def __neg__(self) -> "ComplexBox":
        return ComplexBox(-self.re, -self.im)

    def __mul__(self, other) -> "ComplexBox":
        if isinstance(other, RealInterval):
            return ComplexBox(self.re * other, self.im * other)
        other = _coerce_box(other, self.tier)
        return ComplexBox(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other) -> "ComplexBox":
        if isinstance(other, RealInterval):
            return ComplexBox(self.re / other, self.im / other)
        other = _coerce_box(other, self.tier)
        d = other.abs2()
        if d.contains_zero():
            raise DivisorContainsZero(f"complex division by {other!r}")
        num = self * other.conj()
        return ComplexBox(num.re / d, num.im / d)

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

    def log(self) -> "ComplexBox":
        """Principal log; requires Re(z) strictly positive."""
        if self.re.sign() != 1:
            raise NonPositiveRealPart(f"log of {self!r}")
        mod = self.abs2().log() * RealInterval.from_fraction(Fraction(1, 2), self.tier)
        arg = (self.im / self.re).atan()
        return ComplexBox(mod, arg)

    def pad(self, bound: RealInterval) -> "ComplexBox":
        return ComplexBox(self.re.pad(bound), self.im.pad(bound))

    def widen_to(self, tier: PrecisionTier) -> "ComplexBox":
        return ComplexBox(self.re.widen_to(tier), self.im.widen_to(tier))

    def contains(self, z) -> bool:
        z = complex(z) if not isinstance(z, tuple) else z
        if isinstance(z, tuple):
            re, im = z
        else:
            re, im = z.real, z.imag
        return self.re.contains(re) and self.im.contains(im)

    def intersects(self, other: "ComplexBox") -> bool:
        return self.re.intersects(other.re) and self.im.intersects(other.im)

    def contains_zero(self) -> bool:
        return self.re.contains_zero() and self.im.contains_zero()


def _coerce_box(z, tier: PrecisionTier) -> ComplexBox:
    if isinstance(z, ComplexBox):
        if z.tier != tier:
            raise TypeError(f"tier mismatch: {z.tier!r} vs {tier!r}")
        return z
    if isinstance(z, RealInterval):
        return ComplexBox.from_real(z)
    return ComplexBox.point(complex(z), tier)


# ---------------------------------------------------------------------------
# log-gamma via Stirling with a rigorously bounded remainder


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


# the Stirling remainder is held this many bits below one ulp of |w|
_STIRLING_GOAL_BITS = 3


def _stirling_cap(bits: int) -> int:
    """The most Stirling terms a tier sums."""
    if bits <= 64:
        return 14
    if bits <= 128:
        return 24
    if bits <= 256:
        return 46
    return max(46, bits // 4)


@cache
def _stirling_table(tier: PrecisionTier):
    """Per-tier constants of log_gamma's Stirling sum, K = 1.._stirling_cap.

    (coefficients B_2k / (2k (2k-1)) as intervals, the exact remainder
    constants |B_{2K+2}| 2^{K+1} / ((2K+2)(2K+1)), their base-2 logs,
    1/2, log(2 pi)/2).
    """
    cap = _stirling_cap(tier.bits)
    coeffs = [
        RealInterval.from_fraction(bernoulli(2 * k) / ((2 * k) * (2 * k - 1)), tier)
        for k in range(1, cap + 1)
    ]
    rems = [
        abs(bernoulli(2 * K + 2)) * 2 ** (K + 1) / ((2 * K + 2) * (2 * K + 1))
        for K in range(1, cap + 1)
    ]
    half = RealInterval.from_fraction(Fraction(1, 2), tier)
    half_log_2pi = (pi_interval(tier) * RealInterval.point(2, tier)).log() * half
    log2_rems = [math.log2(c.numerator) - math.log2(c.denominator) for c in rems]
    return coeffs, rems, log2_rems, half, half_log_2pi


def _stirling_terms(log2_rems: list[float], r: float, bits: int) -> int:
    """The fewest terms K whose remainder bound at |w| >= r meets the goal.

    The goal is _STIRLING_GOAL_BITS below one ulp of r at `bits`; 0 when
    no K in the table meets it and the argument must shift right.  The
    choice is by floats; the bound that pads the sum is exact.
    """
    if r <= 0.0:
        return 0
    goal = math.frexp(r)[1] - bits - _STIRLING_GOAL_BITS
    log2_r = math.log2(r)
    for K, log2_rem in enumerate(log2_rems, start=1):
        if log2_rem - (2 * K + 1) * log2_r <= goal:
            return K
    return 0


def log_gamma(z: ComplexBox) -> ComplexBox:
    """Principal log Gamma for Re(z) > 0, any tier.

    Stirling's series at w = z + j,
    (w - 1/2) log w - w + log(2 pi)/2 + sum_{k<=K} B_2k / (2k (2k-1)) w^{1-2k},
    has remainder |R_K| <= |B_{2K+2}| / ((2K+2)(2K+1)) sec(arg w / 2)^{2K+2}
    / |w|^{2K+1}, and sec(arg w / 2)^{2K+2} <= 2^{K+1} while Re w > 0.
    K is the fewest terms whose bound, at a rigorous lower bound r on |w|,
    falls _STIRLING_GOAL_BITS below one ulp of r at the tier, up to the
    tier's cap; while no K up to the cap does, the argument shifts right
    by log Gamma(w) = log Gamma(w+1) - log w (j = 0 when |z| is large
    enough).  The sum is (1/w) times a Horner sum in u = 1/w^2 with real
    coefficients, K - 1 box products; the remainder bound is one exact
    rational from r, rounded up once, and pads the result.
    """
    tier = z.tier
    if z.re.sign() != 1:
        raise NonPositiveRealPart(f"log_gamma of {z!r}")
    coeffs, rems, log2_rems, half, half_log_2pi = _stirling_table(tier)

    shift_acc = ComplexBox.zero(tier)
    w = z
    # each shift adds 1 to Re w, and no tier needs |w| >= bits; a NaN
    # endpoint never meets the goal, so the walk is capped
    for _ in range(tier.bits):
        abs2 = w.abs2()
        r = abs2.sqrt().lo_float()  # |w| >= r
        K = _stirling_terms(log2_rems, r, tier.bits)
        if K:
            break
        shift_acc = shift_acc + w.log()
        w = w + ComplexBox.one(tier)
    else:
        raise NonPositiveRealPart(f"log_gamma of {z!r}: no Stirling remainder bound")

    # (w - 1/2) log w - w + (1/2) log(2 pi)
    result = (w - ComplexBox.from_real(half)) * w.log() - w + ComplexBox.from_real(half_log_2pi)

    inv_w = w.conj() / abs2
    u = inv_w * inv_w
    acc = ComplexBox.from_real(coeffs[K - 1])
    for c in reversed(coeffs[: K - 1]):
        acc = acc * u
        acc = ComplexBox(acc.re + c, acc.im)
    result = result + acc * inv_w

    rem = rems[K - 1] / Fraction(r) ** (2 * K + 1)
    result = result.pad(RealInterval.from_fraction(rem, tier))
    return result - shift_acc
