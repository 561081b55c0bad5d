"""Vectorized interval arrays on doubles.

:class:`IVec` holds parallel numpy arrays of lower and upper endpoints.
:class:`CVec`, a complex rectangle array, holds one float64 endpoint
block e of shape (2, 2, *shape), indexed (re/im, lo/hi); its re and im
are zero-copy IVec views of that block.  Every elementwise operation
widens its result enough to contain the exact image:

* IEEE-correct array arithmetic (+, -, *, /, sqrt) moves each endpoint one
  ulp outward (``_KA``), as the scalar RealInterval does,
* numpy transcendental kernels (exp, log, sin, cos), whose SIMD paths are
  documented to a few ulps, get ``_KT``.

The one-ulp step is np.nextafter for endpoint arrays of up to
``_NEXTAFTER_MAX`` elements and a shift form above; the switch is keyed
on the element count of one endpoint array (one part of a CVec), so a
CVec kernel rounds each endpoint exactly as the IVec operations on its
parts would.

A CVec operation costs a fixed handful of numpy calls over its block,
whatever its shape: a product of two CVecs is one broadcast product of
the 16 endpoint pairs, one min and one max over the corners, one
rounding of the four real products, one subtraction and one addition for
the real and imaginary parts, and one more rounding (a CVec times real
intervals takes 8 corners and one rounding); a sum or difference is one
ufunc and one rounding; take, reshape, concatenate, moveaxis, indexing,
conj and negation are one call each on the block, data axes offset by 2.
At desk scale, where arrays hold a few cells, that fixed cost, not the
element count, is what an operation costs.

Reductions use the standard floating sum bound |fl(sum) - sum| <=
(n-1) u sum|x_i|, valid for any summation order, so numpy's pairwise
summation is covered.

A module-level operation counter tallies elementwise work (elements touched
per operation) so callers can compare measured work across problem sizes;
a CVec operation counts what the IVec operations on its parts would
(6n for a CVec product of n cells, 2n for a sum).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DivisorContainsZero, LogDomain, NegativeSqrtDomain
from .interval import ComplexBox, RealInterval

_EPS = 2.0**-52
_U = 2.0**-53
_TINY = 2.0 * 5e-324
# x -+ (k eps |x| + k tiny) moves a normal x outward by k to 2k ulps of
# its binade before rounding.  At k = _KA, just above 1/2, that shift is
# more than half an ulp and at most 1.0000002 ulps, so round-to-nearest
# lands on the next double: exactly one ulp (two at most below 2^-1020),
# which encloses the exact result of an IEEE-correct operation, as the
# scalar RealInterval's nudge does.  _KT = 8 covers numpy's SIMD
# transcendental kernels (documented to 4 ulp) with margin.
_KA = 0.5000001
_KT = 8.0
# np.nextafter gives that same one-ulp step in one ufunc call, but at a
# libm call per element: it is the faster form up to about this size
_NEXTAFTER_MAX = 256
_MAX = np.finfo(np.float64).max
_PI_LO = math.pi
_PI_HI = math.nextafter(math.pi, math.inf)


class _OpCounter:
    """Tallies elementwise interval operations (elements touched)."""

    __slots__ = ("count",)

    def __init__(self):
        self.count = 0

    def add(self, n: int):
        self.count += n

    def reset(self):
        self.count = 0


op_counter = _OpCounter()


# The shift form, x -+ (k eps |x| + k tiny), runs in place on one array.
# An endpoint that overflowed (+inf below, -inf above) shifts to
# inf - inf = NaN, which fmin/fmax drop, and the last step moves it to
# the largest finite double, as np.nextafter does; NaN stays NaN.
def _dn_arr(x: np.ndarray, k: float) -> np.ndarray:
    if k == _KA and np.size(x) <= _NEXTAFTER_MAX:
        return np.nextafter(x, -np.inf)
    with np.errstate(invalid="ignore", over="ignore"):
        y = np.asarray(np.abs(x))  # an array even for a scalar x
        y *= k * _EPS
        y += k * _TINY
        np.subtract(x, y, out=y)
        np.fmin(y, x, out=y)
        return np.minimum(y, _MAX, out=y)


def _up_arr(x: np.ndarray, k: float) -> np.ndarray:
    if k == _KA and np.size(x) <= _NEXTAFTER_MAX:
        return np.nextafter(x, np.inf)
    with np.errstate(invalid="ignore", over="ignore"):
        y = np.asarray(np.abs(x))
        y *= k * _EPS
        y += k * _TINY
        np.add(x, y, out=y)
        np.fmax(y, x, out=y)
        return np.maximum(y, -_MAX, out=y)


def _as_arr(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)


class IVec:
    """Array of closed hardware intervals (endpoint arrays lo <= hi)."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi, _checked: bool = False):
        lo = _as_arr(lo)
        hi = _as_arr(hi)
        if not _checked:
            if lo.shape != hi.shape:
                raise ValueError("endpoint shape mismatch")
            # as RealInterval: not lo <= hi, so a NaN endpoint is refused too
            with np.errstate(invalid="ignore"):
                bad = not np.all(lo <= hi)
            if bad:
                raise ValueError("endpoints not ordered lo <= hi (or NaN)")
        self.lo = lo
        self.hi = hi

    # -- constructors --------------------------------------------------

    @staticmethod
    def from_points(x) -> "IVec":
        a = _as_arr(x).copy()
        return IVec(a, a.copy(), _checked=True)

    @staticmethod
    def zeros(shape) -> "IVec":
        return IVec(np.zeros(shape), np.zeros(shape), _checked=True)

    @staticmethod
    def from_intervals(ivs) -> "IVec":
        lo = np.array([v.lo for v in ivs])
        hi = np.array([v.hi for v in ivs])
        return IVec(lo, hi, _checked=True)

    @staticmethod
    def from_ratios(num, den: int) -> "IVec":
        """The rationals num/den, each rounded outward once, in one numpy pass.

        num is an integer array and den a positive integer, all below 2^53
        in magnitude.  Each entry's endpoints are RealInterval.from_fraction's:
        the largest double <= num/den and the smallest >= it.  The nearest
        double q = num/den is Q 2^(e-53) with a 53-bit integer Q, and
        |q - num/den| <= 2^(e-54), so Q den - num 2^(53-e) lies within
        den/2 of zero: its value mod 2^64 is exact, and its sign says on
        which side of num/den q lies.
        """
        num = np.asarray(num, dtype=np.int64)
        q = num / den
        mant, e = np.frexp(q)
        big_q = np.ldexp(mant, 53).astype(np.int64).astype(np.uint64)
        shift = (53 - e).astype(np.uint64)
        scaled = np.where(shift < 64, num.astype(np.uint64) << np.minimum(shift, 63), 0)
        side = (big_q * np.uint64(den) - scaled).view(np.int64)
        lo = np.where(side > 0, np.nextafter(q, -np.inf), q)
        hi = np.where(side < 0, np.nextafter(q, np.inf), q)
        return IVec(lo, hi, _checked=True)

    # -- structure -----------------------------------------------------

    @property
    def shape(self):
        return self.lo.shape

    @property
    def size(self) -> int:
        return self.lo.size

    def __len__(self) -> int:
        return self.lo.shape[0]

    def __getitem__(self, idx):
        lo = self.lo[idx]
        hi = self.hi[idx]
        if np.ndim(lo) == 0:
            return RealInterval(float(lo), float(hi), _raw=True)
        return IVec(lo, hi, _checked=True)

    def take(self, idx) -> "IVec":
        return IVec(self.lo[idx], self.hi[idx], _checked=True)

    def reshape(self, *shape) -> "IVec":
        return IVec(self.lo.reshape(*shape), self.hi.reshape(*shape), _checked=True)

    def moveaxis(self, src: int, dst: int) -> "IVec":
        return IVec(
            np.moveaxis(self.lo, src, dst), np.moveaxis(self.hi, src, dst), _checked=True
        )

    def take_last(self, idx) -> "IVec":
        return IVec(
            np.take(self.lo, idx, axis=-1), np.take(self.hi, idx, axis=-1), _checked=True
        )

    @staticmethod
    def concatenate(parts, axis: int = 0) -> "IVec":
        return IVec(
            np.concatenate([p.lo for p in parts], axis=axis),
            np.concatenate([p.hi for p in parts], axis=axis),
            _checked=True,
        )

    def copy(self) -> "IVec":
        return IVec(self.lo.copy(), self.hi.copy(), _checked=True)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"IVec(shape={self.shape}, max_width={float(np.max(self.width())):.3g})"

    # -- queries ---------------------------------------------------------

    def width(self) -> np.ndarray:
        return _up_arr(self.hi - self.lo, _KA)

    def mid(self) -> np.ndarray:
        return 0.5 * (self.lo + self.hi)

    def mag(self) -> np.ndarray:
        """Pointwise upper bound of |x|."""
        return np.maximum(np.abs(self.lo), np.abs(self.hi))

    def mig(self) -> np.ndarray:
        """Pointwise lower bound of |x| (0 where the interval straddles)."""
        straddle = (self.lo <= 0.0) & (self.hi >= 0.0)
        return np.where(straddle, 0.0, np.minimum(np.abs(self.lo), np.abs(self.hi)))

    def contains_zero(self) -> np.ndarray:
        return (self.lo <= 0.0) & (self.hi >= 0.0)

    # -- arithmetic ------------------------------------------------------

    def __neg__(self) -> "IVec":
        return IVec(-self.hi, -self.lo, _checked=True)

    def __add__(self, other) -> "IVec":
        lo2, hi2 = _other_endpoints(other)
        lo = _dn_arr(self.lo + lo2, _KA)
        hi = _up_arr(self.hi + hi2, _KA)
        op_counter.add(lo.size)
        return IVec(lo, hi, _checked=True)

    __radd__ = __add__

    def __sub__(self, other) -> "IVec":
        lo2, hi2 = _other_endpoints(other)
        lo = _dn_arr(self.lo - hi2, _KA)
        hi = _up_arr(self.hi - lo2, _KA)
        op_counter.add(lo.size)
        return IVec(lo, hi, _checked=True)

    def __rsub__(self, other) -> "IVec":
        return (-self) + other

    def __mul__(self, other) -> "IVec":
        lo2, hi2 = _other_endpoints(other)
        with np.errstate(invalid="ignore", over="ignore"):
            p1 = self.lo * lo2
            p2 = self.lo * hi2
            p3 = self.hi * lo2
            p4 = self.hi * hi2
            lo = np.minimum(np.minimum(p1, p2), np.minimum(p3, p4))
            hi = np.maximum(np.maximum(p1, p2), np.maximum(p3, p4))
        op_counter.add(np.size(lo))
        return IVec(_dn_arr(lo, _KA), _up_arr(hi, _KA), _checked=True)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "IVec":
        lo2, hi2 = _other_endpoints(other)
        lo2 = np.broadcast_to(_as_arr(lo2), np.broadcast_shapes(self.lo.shape, np.shape(lo2)))
        hi2 = np.broadcast_to(_as_arr(hi2), lo2.shape)
        if np.any((lo2 <= 0.0) & (hi2 >= 0.0)):
            raise DivisorContainsZero("vector division by interval containing 0")
        with np.errstate(invalid="ignore", over="ignore"):
            q1 = self.lo / lo2
            q2 = self.lo / hi2
            q3 = self.hi / lo2
            q4 = self.hi / hi2
            lo = np.minimum(np.minimum(q1, q2), np.minimum(q3, q4))
            hi = np.maximum(np.maximum(q1, q2), np.maximum(q3, q4))
        op_counter.add(np.size(lo))
        return IVec(_dn_arr(lo, _KA), _up_arr(hi, _KA), _checked=True)

    def __rtruediv__(self, other) -> "IVec":
        lo2, hi2 = _other_endpoints(other)
        num = IVec(np.broadcast_to(_as_arr(lo2), self.shape),
                   np.broadcast_to(_as_arr(hi2), self.shape), _checked=True)
        return num / self

    def square(self) -> "IVec":
        with np.errstate(over="ignore"):
            m1 = self.lo * self.lo
            m2 = self.hi * self.hi
        hi = _up_arr(np.maximum(m1, m2), _KA)
        lo = np.where(
            self.contains_zero(),
            0.0,
            np.maximum(_dn_arr(np.minimum(m1, m2), _KA), 0.0),
        )
        op_counter.add(np.size(m1))
        return IVec(lo, hi, _checked=True)

    def abs(self) -> "IVec":
        lo = self.mig()
        hi = self.mag()
        return IVec(lo, hi, _checked=True)

    # -- elementwise functions --------------------------------------------

    def sqrt(self) -> "IVec":
        if np.any(self.lo < 0.0):
            raise NegativeSqrtDomain("vector sqrt of negative interval")
        lo = np.maximum(_dn_arr(np.sqrt(self.lo), _KA), 0.0)
        hi = _up_arr(np.sqrt(self.hi), _KA)
        op_counter.add(lo.size)
        return IVec(lo, hi, _checked=True)

    def _rising(self, fn, floor: float = -np.inf) -> "IVec":
        """An increasing numpy kernel at both endpoints, _KT ulps outward,
        clipped below at floor, the bottom of its range."""
        with np.errstate(over="ignore", under="ignore"):
            lo = np.maximum(_dn_arr(fn(self.lo), _KT), floor)
            hi = np.maximum(_up_arr(fn(self.hi), _KT), floor)
        op_counter.add(lo.size)
        return IVec(lo, hi, _checked=True)

    def exp(self) -> "IVec":
        return self._rising(np.exp, 0.0)

    def log(self) -> "IVec":
        if np.any(self.lo <= 0.0):
            raise LogDomain("vector log needs strictly positive intervals")
        return self._rising(np.log)

    def sin(self) -> "IVec":
        return _trig_vec(self, is_sin=True)

    def cos(self) -> "IVec":
        return _trig_vec(self, is_sin=False)

    # -- reductions -------------------------------------------------------

    def sum(self, axis=None):
        """Rigorous interval sum; RealInterval for a full reduction."""
        n = self.size if axis is None else self.lo.shape[axis]
        slo = np.sum(self.lo, axis=axis)
        shi = np.sum(self.hi, axis=axis)
        tlo = np.sum(np.abs(self.lo), axis=axis)
        thi = np.sum(np.abs(self.hi), axis=axis)
        # (n-1) u sum|x| covers any ordering; n+2 absorbs the bound's own
        # rounding and the abs-sum's inflation
        lo = _dn_arr(slo - ((n + 2) * _U) * tlo, _KA)
        hi = _up_arr(shi + ((n + 2) * _U) * thi, _KA)
        op_counter.add(self.size)
        if axis is None:
            return RealInterval(float(lo), float(hi), _raw=True)
        return IVec(lo, hi, _checked=True)

    # -- set operations -----------------------------------------------------

    def hull(self, other: "IVec") -> "IVec":
        return IVec(
            np.minimum(self.lo, other.lo), np.maximum(self.hi, other.hi), _checked=True
        )

    def pad(self, radius) -> "IVec":
        r = _as_arr(radius)
        if np.any(r < 0.0):
            raise ValueError("pad radius must be nonnegative")
        return IVec(_dn_arr(self.lo - r, _KA), _up_arr(self.hi + r, _KA), _checked=True)

    def intersects(self, other: "IVec") -> np.ndarray:
        return (self.lo <= other.hi) & (other.lo <= self.hi)


def _other_endpoints(other):
    if isinstance(other, IVec):
        return other.lo, other.hi
    if isinstance(other, RealInterval):
        return other.lo, other.hi
    a = _as_arr(other)
    return a, a


def _trig_vec(x: IVec, is_sin: bool) -> IVec:
    fn = np.sin if is_sin else np.cos
    v1 = fn(x.lo)
    v2 = fn(x.hi)
    lo = _dn_arr(np.minimum(v1, v2), _KT)
    hi = _up_arr(np.maximum(v1, v2), _KT)
    # peaks of sin at (1/2 + 2k) pi, dips at (-1/2 + 2k) pi; for cos 0 and 1
    off_max = 0.5 if is_sin else 0.0
    off_min = -0.5 if is_sin else 1.0
    hi = np.where(_contains_extremum(x, off_max), 1.0, hi)
    lo = np.where(_contains_extremum(x, off_min), -1.0, lo)
    lo = np.maximum(lo, -1.0)
    hi = np.minimum(hi, 1.0)
    op_counter.add(lo.size)
    return IVec(lo, hi, _checked=True)


def _contains_extremum(x: IVec, off: float) -> np.ndarray:
    """Mask: might (off + 2k) pi lie inside the interval for integer k?

    Conservative by a few ulps of slack, which only widens trig output.
    """
    a = np.where(x.lo >= 0.0, x.lo / _PI_HI, x.lo / _PI_LO)
    b = np.where(x.hi >= 0.0, x.hi / _PI_LO, x.hi / _PI_HI)
    a = _dn_arr(a, 4.0)
    b = _up_arr(b, 4.0)
    return np.floor((b - off) / 2.0) >= np.ceil((a - off) / 2.0)


# lo then hi: the target each end rounds toward, and the sign of its pad
_TOWARD = np.array([-np.inf, np.inf])
_SIGN = np.array([-1.0, 1.0])


def _ends_axis(v: np.ndarray, ndim: int) -> np.ndarray:
    """v, one value per end, shaped to run along axis 1 of an ndim-dim array."""
    return v.reshape((2,) + (1,) * (ndim - 2))


def _round(x: np.ndarray, n: int) -> np.ndarray:
    """x rounded outward, ends along axis 1, as _dn_arr/_up_arr at _KA
    (in place up to _NEXTAFTER_MAX, into a new array above it).

    n is the element count of one endpoint array, so the switch between
    np.nextafter and the shift form falls where it does for an IVec part.
    """
    if n <= _NEXTAFTER_MAX:
        return np.nextafter(x, _ends_axis(_TOWARD, x.ndim), out=x)
    with np.errstate(invalid="ignore", over="ignore"):
        y = np.abs(x)
        y *= _KA * _EPS
        y += _KA * _TINY
        lo, hi = y[:, 0], y[:, 1]
        np.subtract(x[:, 0], lo, out=lo)
        np.fmin(lo, x[:, 0], out=lo)
        np.minimum(lo, _MAX, out=lo)
        np.add(x[:, 1], hi, out=hi)
        np.fmax(hi, x[:, 1], out=hi)
        np.maximum(hi, -_MAX, out=hi)
    return y


def _lift(x: np.ndarray, lead: int, ndim: int) -> np.ndarray:
    """x, whose first `lead` axes are not data axes, with ones inserted
    after them until it has ndim data axes, so the data axes broadcast."""
    pad = ndim + lead - x.ndim
    return x.reshape(x.shape[:lead] + (1,) * pad + x.shape[lead:]) if pad else x


def _shape(shape) -> tuple:
    return (shape,) if isinstance(shape, (int, np.integer)) else tuple(shape)


def _axis(axis: int) -> int:
    """A data axis as an axis of the block."""
    return axis + 2 if axis >= 0 else axis


class CVec:
    """Array of complex rectangles on one endpoint block.

    e has shape (2, 2, *shape), indexed (re/im, lo/hi); re and im are
    IVec views of it.  CVec(re, im) stacks two IVecs of one shape into a
    new block; the block kernels build theirs with CVec.from_block.
    """

    __slots__ = ("e",)

    def __init__(self, re: IVec, im: IVec):
        if re.shape != im.shape:
            raise ValueError("component shape mismatch")
        self.e = np.array([[re.lo, re.hi], [im.lo, im.hi]], dtype=np.float64)

    # -- constructors -----------------------------------------------------

    @staticmethod
    def from_block(e: np.ndarray) -> "CVec":
        """The CVec on the float64 block e, shape (2, 2, *shape) indexed
        (re/im, lo/hi), taken as is: no copy and no check."""
        v = object.__new__(CVec)
        v.e = e
        return v

    @staticmethod
    def from_points(z) -> "CVec":
        z = np.asarray(z, dtype=np.complex128)
        e = np.empty((2, 2) + z.shape)
        e[0] = z.real
        e[1] = z.imag
        return CVec.from_block(e)

    @staticmethod
    def zeros(shape) -> "CVec":
        return CVec.from_block(np.zeros((2, 2) + _shape(shape)))

    @staticmethod
    def from_real(re: IVec) -> "CVec":
        e = np.zeros((2, 2) + re.shape)
        e[0, 0] = re.lo
        e[0, 1] = re.hi
        return CVec.from_block(e)

    @staticmethod
    def from_boxes(boxes) -> "CVec":
        return CVec.from_block(
            np.array(
                [
                    [[b.re.lo for b in boxes], [b.re.hi for b in boxes]],
                    [[b.im.lo for b in boxes], [b.im.hi for b in boxes]],
                ],
                dtype=np.float64,
            )
        )

    # -- structure ----------------------------------------------------------

    @property
    def re(self) -> IVec:
        return IVec(self.e[0, 0], self.e[0, 1], _checked=True)

    @property
    def im(self) -> IVec:
        return IVec(self.e[1, 0], self.e[1, 1], _checked=True)

    @property
    def shape(self):
        return self.e.shape[2:]

    @property
    def size(self) -> int:
        return self.e.size // 4

    def __len__(self) -> int:
        return self.e.shape[2]

    def __getitem__(self, idx):
        e = self.e[(slice(None), slice(None)) + (idx if isinstance(idx, tuple) else (idx,))]
        if e.ndim == 2:
            (rlo, rhi), (ilo, ihi) = e.tolist()
            return ComplexBox(RealInterval(rlo, rhi, _raw=True), RealInterval(ilo, ihi, _raw=True))
        return CVec.from_block(e)

    def take(self, idx) -> "CVec":
        return CVec.from_block(np.take(self.e, idx, axis=2))

    def reshape(self, *shape) -> "CVec":
        if len(shape) == 1 and not isinstance(shape[0], (int, np.integer)):
            shape = tuple(shape[0])
        return CVec.from_block(self.e.reshape((2, 2) + shape))

    def moveaxis(self, src: int, dst: int) -> "CVec":
        return CVec.from_block(np.moveaxis(self.e, _axis(src), _axis(dst)))

    def take_last(self, idx) -> "CVec":
        return CVec.from_block(np.take(self.e, idx, axis=-1))

    @staticmethod
    def concatenate(parts, axis: int = 0) -> "CVec":
        return CVec.from_block(np.concatenate([p.e for p in parts], axis=_axis(axis)))

    def copy(self) -> "CVec":
        return CVec.from_block(self.e.copy())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        w = max(float(np.max(self.re.width())), float(np.max(self.im.width())))
        return f"CVec(shape={self.shape}, max_width={w:.3g})"

    # -- arithmetic -----------------------------------------------------------

    def __neg__(self) -> "CVec":
        return CVec.from_block(np.negative(self.e[:, ::-1]))

    def __add__(self, other) -> "CVec":
        return _add(np.add, self.e, _block(other))

    __radd__ = __add__

    def __sub__(self, other) -> "CVec":
        return _add(np.subtract, self.e, _block(other)[:, ::-1])

    def __rsub__(self, other) -> "CVec":
        return (-self) + other

    def __mul__(self, other) -> "CVec":
        if _is_complexlike(other):
            return _mul(self.e, _block(other))
        return _mul_real(self.e, _real_ends(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not _is_complexlike(other):
            return CVec(self.re / other, self.im / other)
        o = CVec.from_block(_block(other))
        d = o.abs2()
        num = self * o.conj()
        return CVec(num.re / d, num.im / d)

    def conj(self) -> "CVec":
        e = self.e.copy()
        np.negative(self.e[1, ::-1], out=e[1])
        return CVec.from_block(e)

    def mul_i(self) -> "CVec":
        e = np.empty_like(self.e)
        np.negative(self.e[1, ::-1], out=e[0])
        e[1] = self.e[0]
        return CVec.from_block(e)

    def abs2(self) -> IVec:
        return self.re.square() + self.im.square()

    def exp(self) -> "CVec":
        im = self.im
        return CVec(im.cos(), im.sin()) * self.re.exp()

    def sum(self, axis=None):
        r = self.re.sum(axis)
        i = self.im.sum(axis)
        if isinstance(r, RealInterval):
            return ComplexBox(r, i)
        return CVec(r, i)

    def pad(self, radius) -> "CVec":
        r = _as_arr(radius)
        if np.any(r < 0.0):
            raise ValueError("pad radius must be nonnegative")
        ndim = max(self.e.ndim - 2, r.ndim)
        step = _ends_axis(_SIGN, ndim + 2) * r  # -r at the lower end, +r at the upper
        e = _lift(self.e, 2, ndim) + step
        return CVec.from_block(_round(e, e.size // 4))


def _add(op, x: np.ndarray, y: np.ndarray) -> CVec:
    """op(x, y) over two blocks, rounded outward: np.add, or np.subtract
    with y's ends swapped, so lo - hi and hi - lo."""
    ndim = max(x.ndim, y.ndim) - 2
    e = op(_lift(x, 2, ndim), _lift(y, 2, ndim))
    n = e.size // 4
    op_counter.add(2 * n)
    return CVec.from_block(_round(e, n))


def _mul(x: np.ndarray, y: np.ndarray) -> CVec:
    """The product of two blocks from their 16 endpoint products.

    Each of the four real products re re, re im, im re, im im is the min
    and max of its four corners, rounded outward; then re = re re - im im
    and im = re im + im re are formed and rounded again.  These are the
    endpoints of four IVec products, a subtraction and an addition.
    """
    ndim = max(x.ndim, y.ndim) - 2
    x = _lift(x, 2, ndim)
    y = _lift(y, 2, ndim)
    with np.errstate(invalid="ignore", over="ignore"):
        # axes (x part, y part, x end, y end, *shape), in C order so the
        # corner axes merge without a copy
        xs, ys = x.reshape((2, 1, 2, 1) + x.shape[2:]), y.reshape((2, 1, 2) + y.shape[2:])
        p = np.multiply(xs, ys, order="C")
        shape = p.shape[4:]
        corners = p.reshape((4, 4) + shape)
        ends = np.empty((4, 2) + shape)  # (x part and y part, end, *shape)
        np.minimum.reduce(corners, axis=1, out=ends[:, 0])
        np.maximum.reduce(corners, axis=1, out=ends[:, 1])
    n = p.size // 16
    rr, ri, ir, ii = _round(ends, n)
    e = np.empty((2, 2) + shape)
    np.subtract(rr, ii[::-1], out=e[0])
    np.add(ri, ir, out=e[1])
    op_counter.add(6 * n)
    return CVec.from_block(_round(e, n))


def _mul_real(x: np.ndarray, r: np.ndarray) -> CVec:
    """A block times real intervals r, shape (2, *shape) as (lo, hi), or
    real points, shape (1, *shape): the min and max of each part's
    corners, rounded outward once."""
    ndim = max(x.ndim - 2, r.ndim - 1)
    x = _lift(x, 2, ndim)
    r = _lift(r, 1, ndim)
    with np.errstate(invalid="ignore", over="ignore"):
        # axes (part, x end, r end, *shape)
        p = np.multiply(x.reshape((2, 2, 1) + x.shape[2:]), r, order="C")
        shape = p.shape[3:]
        corners = p.reshape((2, 2 * r.shape[0]) + shape)
        e = np.empty((2, 2) + shape)
        np.minimum.reduce(corners, axis=1, out=e[:, 0])
        np.maximum.reduce(corners, axis=1, out=e[:, 1])
    n = e.size // 4
    op_counter.add(2 * n)
    return CVec.from_block(_round(e, n))


def _is_complexlike(other) -> bool:
    if isinstance(other, (CVec, ComplexBox, complex)):
        return True
    return not isinstance(other, (IVec, RealInterval)) and np.iscomplexobj(other)


def _block(other) -> np.ndarray:
    """The endpoint block of a CVec, a ComplexBox or complex points."""
    if isinstance(other, CVec):
        return other.e
    if isinstance(other, ComplexBox):
        return np.array([[other.re.lo, other.re.hi], [other.im.lo, other.im.hi]])
    return CVec.from_points(other).e


def _real_ends(other) -> np.ndarray:
    """Real intervals as (lo, hi) stacked on a first axis, real points as (x,)."""
    if isinstance(other, IVec):
        return np.stack((other.lo, other.hi))
    if isinstance(other, RealInterval):
        return np.array([other.lo, other.hi])
    return _as_arr(other)[None]
