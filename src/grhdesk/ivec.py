"""Vectorized interval arrays on doubles.

:class:`IVec` (real intervals) and :class:`CVec` (complex rectangles)
each hold one float64 endpoint block e of shape (parts, 2, *shape),
indexed (part, lo/hi): an IVec has one part, a CVec two, re and im, which
are zero-copy IVec views of its block.  What treats the parts alike is
written once, on the block, in their base class: indexing, take,
reshape, moveaxis, concatenate, negation, sums and differences, pad,
sum, and products and quotients by real intervals.  Every elementwise
operation widens its result enough to contain the exact image:

* IEEE-correct array arithmetic (+, -, *, /, sqrt) moves each endpoint one
  ulp outward (``_KA``), as the scalar RealInterval does,
* numpy transcendental kernels (exp, log, atan, sin, cos), whose SIMD
  paths are documented to a few ulps, get ``_KT``.

One kernel, ``_round``, does all of that rounding, for every part of a
block at once.  Its one-ulp step is np.nextafter for parts of up to
``_NEXTAFTER_MAX`` elements and a shift form above; the switch is keyed
on the element count of one part, so a CVec part rounds exactly as an
IVec of its shape would.

An operation costs a fixed handful of numpy calls over its block,
whatever its shape: a product of two CVecs is one broadcast product of
the 16 endpoint pairs, one min and one max over the corners, one
rounding of the four real products, one subtraction and one addition for
the real and imaginary parts, and one more rounding; a product or
quotient by real intervals takes 4 corners a part and one rounding; a
sum or difference is one ufunc and one rounding; take, reshape,
concatenate, moveaxis, indexing, conj and negation are one call each on
the block, data axes offset by 2.  At desk scale, where arrays hold a few
cells, that fixed cost, not the element count, is what an operation
costs.

Reductions use the standard floating sum bound |fl(sum) - sum| <=
(n-1) u sum|x_i|, valid for any summation order, so numpy's pairwise
summation is covered.

A module-level operation counter tallies elementwise work so callers can
compare measured work across problem sizes: each rounded block adds
e.size // 2, the intervals it holds.  So a CVec counts what the IVec
operations on its parts would: 2n for a sum of n cells, and 6n for a
product (four real products, then a subtraction and an addition).
"""

from __future__ import annotations

import operator

import numpy as np

from .errors import DivisorContainsZero, LogDomain, NegativeSqrtDomain
from .interval import _PI_HI, _PI_LO, ComplexBox, RealInterval, _ratio_ends

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


class _OpCounter:
    """Tallies elementwise interval operations (elements touched)."""

    __slots__ = ("count",)

    def __init__(self):
        self.count = 0

    def add(self, n: int):
        self.count += n


op_counter = _OpCounter()


def _per_rank(lo: float, hi: float) -> dict:
    """(lo, hi), one value per end, shaped to run along axis 1 of a block
    of each rank up to 32, so the kernels broadcast it without a reshape."""
    return {ndim: np.array([lo, hi]).reshape((2,) + (1,) * (ndim - 2)) for ndim in range(2, 33)}


# the target each end rounds toward, the sign of its pad (and the bound
# of sin and cos at it), and pi, rounded to divide it outward by sign
_TOWARD = _per_rank(-np.inf, np.inf)
_SIGN = _per_rank(-1.0, 1.0)
_PI_NONNEG = _per_rank(_PI_HI, _PI_LO)
_PI_NEG = _per_rank(_PI_LO, _PI_HI)
# where (off + 2k) pi may lie inside, a lower end is -1 and an upper +1:
# sin dips at off = -1/2 and peaks at 1/2, cos at 1 and 0
_SIN_OFF = _per_rank(-0.5, 0.5)
_COS_OFF = _per_rank(1.0, 0.0)


def _round(x: np.ndarray, k: float = _KA) -> np.ndarray:
    """The block x rounded outward, each lower end (x[:, 0]) down and each
    upper end (x[:, 1]) up: one ulp at k = _KA, else k to 2k ulps of its
    binade by the shift form x -+ (k eps |x| + k tiny).

    At _KA up to _NEXTAFTER_MAX elements a part, np.nextafter rounds x
    in place; otherwise the shift form writes a new array.  The element
    count of one part, not of x, picks the form.  In the shift form an
    endpoint that overflowed (+inf below, -inf above) shifts to
    inf - inf = NaN, which fmin/fmax drop, and the last step moves it to
    the largest finite double, as np.nextafter does; NaN stays NaN.
    """
    if k == _KA and x.size <= 2 * _NEXTAFTER_MAX * x.shape[0]:
        return np.nextafter(x, _TOWARD[x.ndim], out=x)
    with np.errstate(invalid="ignore", over="ignore"):
        y = np.abs(x)
        y *= k * _EPS
        y += k * _TINY
        lo, hi = y[:, 0], y[:, 1]
        np.subtract(x[:, 0], lo, out=lo)
        np.fmin(lo, x[:, 0], out=lo)
        np.minimum(lo, _MAX, out=lo)
        np.add(x[:, 1], hi, out=hi)
        np.fmax(hi, x[:, 1], out=hi)
        np.maximum(hi, -_MAX, out=hi)
    return y


def _counted(e: np.ndarray, k: float = _KA) -> np.ndarray:
    """e rounded outward by _round, its intervals tallied."""
    op_counter.add(e.size // 2)
    return _round(e, k)


def _as_arr(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)


def _integers(x) -> np.ndarray:
    """x as a numpy integer array, else as an object array of its entries
    (numpy makes floats of Python ints past int64 mixed with negatives)."""
    a = np.asarray(x)
    return a if a.dtype.kind in "iu" else np.array(x, dtype=object)


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


def _hull(corners: np.ndarray) -> np.ndarray:
    """The block of the min and max over axis 1 of corners, shape
    (parts, k, *shape); not yet rounded."""
    e = np.empty((corners.shape[0], 2) + corners.shape[2:])
    np.minimum.reduce(corners, axis=1, out=e[:, 0])
    np.maximum.reduce(corners, axis=1, out=e[:, 1])
    return e


class _Block:
    """An interval array on one endpoint block e, shape (parts, 2, *shape),
    indexed (part, lo/hi).  The block kernels build their results with
    from_block; the subclasses say how many parts they have (_PARTS), what
    one cell is (_cell) and how another operand becomes a block
    (_operand)."""

    __slots__ = ("e",)

    @classmethod
    def from_block(cls, e: np.ndarray):
        """The array on the float64 block e, taken as is: no copy and no check."""
        v = object.__new__(cls)
        v.e = e
        return v

    @classmethod
    def zeros(cls, shape):
        return cls.from_block(np.zeros((cls._PARTS, 2) + _shape(shape)))

    # -- structure -----------------------------------------------------

    @property
    def shape(self):
        return self.e.shape[2:]

    @property
    def size(self) -> int:
        return self.e.size // (2 * self._PARTS)

    def __len__(self) -> int:
        return self.e.shape[2]

    def __getitem__(self, idx):
        e = self.e[(slice(None), slice(None)) + (idx if isinstance(idx, tuple) else (idx,))]
        return self._cell(e) if e.ndim == 2 else self.from_block(e)

    def take(self, idx):
        return self.from_block(np.take(self.e, idx, axis=2))

    def reshape(self, *shape):
        if len(shape) == 1 and not isinstance(shape[0], (int, np.integer)):
            shape = tuple(shape[0])
        return self.from_block(self.e.reshape((self._PARTS, 2) + shape))

    def moveaxis(self, src: int, dst: int):
        return self.from_block(np.moveaxis(self.e, _axis(src), _axis(dst)))

    def take_last(self, idx):
        return self.from_block(np.take(self.e, idx, axis=-1))

    @classmethod
    def concatenate(cls, parts, axis: int = 0):
        return cls.from_block(np.concatenate([p.e for p in parts], axis=_axis(axis)))

    def copy(self):
        return self.from_block(self.e.copy())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        w = float(np.max(_round(self.e - self.e[:, ::-1])[:, 1]))
        return f"{type(self).__name__}(shape={self.shape}, max_width={w:.3g})"

    # -- arithmetic ------------------------------------------------------

    def __neg__(self):
        return self.from_block(np.negative(self.e[:, ::-1]))

    def __add__(self, other):
        return self.from_block(_add(np.add, self.e, self._operand(other)))

    __radd__ = __add__

    def __sub__(self, other):
        # lo - hi and hi - lo: the other's ends swapped
        return self.from_block(_add(np.subtract, self.e, self._operand(other)[:, ::-1]))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        """Times real intervals or real points."""
        return self.from_block(_corners(np.multiply, self.e, _real_ends(other)))

    __rmul__ = __mul__

    def __truediv__(self, other):
        """Divided by real intervals, none containing 0, or real points."""
        return self.from_block(_divide(self.e, _real_ends(other)))

    # -- reductions and padding ------------------------------------------

    def sum(self, axis=None):
        """Rigorous interval sum; one cell for a full reduction."""
        e = self.e
        axes = tuple(range(2, e.ndim)) if axis is None else _axis(axis)
        n = self.size if axis is None else e.shape[axes]
        s = np.sum(e, axis=axes)
        err = np.sum(np.abs(e), axis=axes)
        # (n-1) u sum|x| covers any ordering; n+2 absorbs the bound's own
        # rounding and the abs-sum's inflation
        err *= (n + 2) * _U
        err *= _SIGN[err.ndim]
        s += err
        op_counter.add(e.size // 2)
        out = self.from_block(_round(s))
        return out[()] if axis is None else out

    def pad(self, radius):
        """Every part widened by radius (>= 0, broadcast against the shape)
        below and above, rounded outward."""
        r = _as_arr(radius)
        if (r < 0.0).any():
            raise ValueError("pad radius must be nonnegative")
        ndim = max(self.e.ndim - 2, r.ndim)
        e = _lift(self.e, 2, ndim) + _SIGN[ndim + 2] * r  # -r below, +r above
        return self.from_block(_round(e))


def _add(op, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """op(x, y) over two blocks, rounded outward: np.add, or np.subtract
    with y's ends swapped."""
    ndim = max(x.ndim, y.ndim) - 2
    return _counted(op(_lift(x, 2, ndim), _lift(y, 2, ndim)))


def _corners(op, x: np.ndarray, r: np.ndarray) -> np.ndarray:
    """op (np.multiply or np.divide) of a block x by real intervals r,
    shape (2, *shape) as (lo, hi), or real points, shape (1, *shape): each
    part the min and max of its corners x end op r end, rounded outward
    once.  x's ends axis may hold one point as well."""
    ndim = max(x.ndim - 2, r.ndim - 1)
    x = _lift(x, 2, ndim)
    r = _lift(r, 1, ndim)
    with np.errstate(invalid="ignore", over="ignore"):
        # axes (part, x end, r end, *shape), in C order so the corner
        # axes merge without a copy
        p = op(x.reshape(x.shape[:2] + (1,) + x.shape[2:]), r, order="C")
        e = _hull(p.reshape((p.shape[0], p.shape[1] * p.shape[2]) + p.shape[3:]))
    return _counted(e)


def _divide(x: np.ndarray, r: np.ndarray) -> np.ndarray:
    """_corners(np.divide, x, r), refusing a divisor that contains 0 (in an
    empty quotient no divisor meets a numerator, and none is refused)."""
    if x.size and ((r[0] <= 0.0) & (r[-1] >= 0.0)).any():
        raise DivisorContainsZero("vector division by interval containing 0")
    return _corners(np.divide, x, r)


def _square(e: np.ndarray) -> np.ndarray:
    """Every part of the block e squared: the hull of lo^2 and hi^2,
    rounded outward, with the lower end 0 where the part contains 0."""
    with np.errstate(over="ignore"):
        s = _counted(_hull(e * e))
    np.maximum(s, 0.0, out=s)  # the upper ends are positive already
    np.copyto(s[:, 0], 0.0, where=(e[:, 0] <= 0.0) & (e[:, 1] >= 0.0))
    return s


def _real_ends(other) -> np.ndarray:
    """Real intervals as (lo, hi) stacked on a first axis, real points as (x,)."""
    if isinstance(other, IVec):
        return other.e[0]
    if isinstance(other, RealInterval):
        return np.array([other.lo, other.hi])
    return _as_arr(other)[None]


class IVec(_Block):
    """Array of closed hardware intervals: a block of one part, lo = e[0, 0]
    and hi = e[0, 1].  IVec(lo, hi) checks and copies its endpoints; the
    block kernels build theirs with IVec.from_block."""

    __slots__ = ()
    _PARTS = 1

    def __init__(self, lo, hi):
        lo = _as_arr(lo)
        hi = _as_arr(hi)
        if lo.shape != hi.shape:
            raise ValueError("endpoint shape mismatch")
        # as RealInterval: not lo <= hi, so a NaN endpoint is refused too
        with np.errstate(invalid="ignore"):
            bad = not (lo <= hi).all()
        if bad:
            raise ValueError("endpoints not ordered lo <= hi (or NaN)")
        self.e = np.array([[lo, hi]])

    @staticmethod
    def _cell(e: np.ndarray) -> RealInterval:
        ((lo, hi),) = e.tolist()
        return RealInterval(lo, hi, _raw=True)

    @staticmethod
    def _operand(other) -> np.ndarray:
        """Another IVec's block, or real intervals or points as a block
        whose ends axis holds (lo, hi) or one point."""
        return other.e if isinstance(other, IVec) else _real_ends(other)[None]

    # -- constructors --------------------------------------------------

    @staticmethod
    def from_points(x) -> "IVec":
        a = _as_arr(x)
        return IVec.from_block(np.array([[a, a]]))

    @staticmethod
    def from_intervals(ivs) -> "IVec":
        return IVec.from_block(np.array([[[v.lo for v in ivs], [v.hi for v in ivs]]]))

    @staticmethod
    def from_ratios(num, den) -> "IVec":
        """The rationals num/den, each rounded outward once.

        num and den are integers of any size that broadcast together
        (numpy integer arrays, Python ints, or sequences or object arrays
        of them), every den > 0, in lowest terms or not.  Each entry is
        exactly interval._ratio_ends(num, den), the largest double <=
        num/den and the smallest >= it, down to the sign of zero (an exact
        0 is [0.0, -0.0]).  A den <= 0 raises ValueError, a non-integer
        entry TypeError.

        Integer arrays with |num| and den below 2^53 take one numpy pass:
        both are exact as doubles, so q = num/den is the nearest double,
        Q 2^(e-53) with a 53-bit integer Q, and |q - num/den| <= 2^(e-54),
        so Q den - num 2^(53-e) lies within den/2 of zero: its value mod
        2^64 is exact, and its sign says on which side of num/den q lies.
        Anything else goes entry by entry through _ratio_ends.
        """
        num, den = _integers(num), _integers(den)
        if not den.min(initial=1) > 0:
            raise ValueError("every denominator must be positive")
        entrywise = object in (num.dtype, den.dtype) or max(
            -int(num.min(initial=0)), int(num.max(initial=0)), int(den.max(initial=1))
        ) >= 2**53
        if entrywise:
            pairs = np.broadcast(num, den)
            ends = [_ratio_ends(operator.index(n), operator.index(d)) for n, d in pairs]
            return IVec.from_block(np.array(ends, dtype=np.float64).T.reshape((1, 2) + pairs.shape))
        num, den = num.astype(np.int64, copy=False), den.astype(np.int64, copy=False)
        q = num / den
        mant, e = np.frexp(q)
        big_q = np.ldexp(mant, 53).astype(np.int64).astype(np.uint64)
        shift = (53 - e).astype(np.uint64)
        scaled = np.where(shift < 64, num.astype(np.uint64) << np.minimum(shift, 63), 0)
        side = (big_q * den.astype(np.uint64) - scaled).view(np.int64)
        lo = np.where(side > 0, np.nextafter(q, -np.inf), q)
        # 0.0 - q is -q exactly, and +0.0 where q = 0, so hi is -0.0 there
        neg = 0.0 - q
        hi = -np.where(side < 0, np.nextafter(neg, -np.inf), neg)
        return IVec.from_block(np.array([[lo, hi]]))

    # -- queries ---------------------------------------------------------

    @property
    def lo(self) -> np.ndarray:
        return self.e[0, 0]

    @property
    def hi(self) -> np.ndarray:
        return self.e[0, 1]

    def width(self) -> np.ndarray:
        # the upper end of [lo - hi, hi - lo] rounded outward
        return _round(self.e - self.e[:, ::-1])[0, 1]

    def mid(self) -> np.ndarray:
        return 0.5 * (self.lo + self.hi)

    def mag(self) -> np.ndarray:
        """Pointwise upper bound of |x|."""
        return np.abs(self.e[0]).max(axis=0)

    def contains_zero(self) -> np.ndarray:
        return (self.lo <= 0.0) & (self.hi >= 0.0)

    def intersects(self, other: "IVec") -> np.ndarray:
        return (self.lo <= other.hi) & (other.lo <= self.hi)

    # -- arithmetic and elementwise functions -------------------------------

    def __rtruediv__(self, other) -> "IVec":
        return IVec.from_block(_divide(self._operand(other), self.e[0]))

    def square(self) -> "IVec":
        return IVec.from_block(_square(self.e))

    def _rising(self, fn, floor: float = -np.inf, k: float = _KT) -> "IVec":
        """An increasing numpy kernel at both ends, k ulps outward, clipped
        below at floor, the bottom of its range."""
        with np.errstate(over="ignore", under="ignore"):
            e = _counted(fn(self.e), k)
        return IVec.from_block(np.maximum(e, floor, out=e))

    def sqrt(self) -> "IVec":
        if (self.lo < 0.0).any():
            raise NegativeSqrtDomain("vector sqrt of negative interval")
        return self._rising(np.sqrt, 0.0, _KA)

    def exp(self) -> "IVec":
        return self._rising(np.exp, 0.0)

    def log(self) -> "IVec":
        if (self.lo <= 0.0).any():
            raise LogDomain("vector log needs strictly positive intervals")
        return self._rising(np.log)

    def atan(self) -> "IVec":
        return self._rising(np.arctan)

    def sin(self) -> "IVec":
        return self._trig(np.sin, _SIN_OFF)

    def cos(self) -> "IVec":
        return self._trig(np.cos, _COS_OFF)

    def _trig(self, fn, off: dict) -> "IVec":
        """The hull of fn at both ends, _KT ulps outward, then -1 below and
        +1 above where an extremum (off + 2k) pi might lie inside, and
        clipped to [-1, 1] (a lower end never reaches 1, nor an upper -1)."""
        e = _counted(_hull(fn(self.e)), _KT)
        np.copyto(e, _SIGN[e.ndim], where=_contains_extremum(self.e, off))
        return IVec.from_block(np.clip(e, -1.0, 1.0, out=e))


def _contains_extremum(e: np.ndarray, off: dict) -> np.ndarray:
    """Mask over the block e's ends: might (off + 2k) pi lie inside the
    interval for an integer k, with off's lower value at each lower end
    and its upper value at each upper end?

    Conservative by a few ulps of slack, which only widens trig output.
    """
    x = _round(e / np.where(e >= 0.0, _PI_NONNEG[e.ndim], _PI_NEG[e.ndim]), 4.0)
    off = off[e.ndim]
    return np.floor((x[:, 1:] - off) / 2.0) >= np.ceil((x[:, :1] - off) / 2.0)


class CVec(_Block):
    """Array of complex rectangles: a block of two parts, re and im, each
    an IVec view of it.  CVec(re, im) concatenates two IVec blocks of one
    shape into a new block; the block kernels build theirs with
    CVec.from_block."""

    __slots__ = ()
    _PARTS = 2

    def __init__(self, re: IVec, im: IVec):
        if re.shape != im.shape:
            raise ValueError("component shape mismatch")
        self.e = np.concatenate((re.e, im.e))

    @staticmethod
    def _cell(e: np.ndarray) -> ComplexBox:
        (rlo, rhi), (ilo, ihi) = e.tolist()
        return ComplexBox(RealInterval(rlo, rhi, _raw=True), RealInterval(ilo, ihi, _raw=True))

    @staticmethod
    def _operand(other) -> np.ndarray:
        """The endpoint block of a CVec, a ComplexBox or complex points."""
        if isinstance(other, CVec):
            return other.e
        if isinstance(other, ComplexBox):
            return np.array([[other.re.lo, other.re.hi], [other.im.lo, other.im.hi]])
        return CVec.from_points(other).e

    # -- constructors -----------------------------------------------------

    @staticmethod
    def from_points(z) -> "CVec":
        z = np.asarray(z, dtype=np.complex128)
        e = np.empty((2, 2) + z.shape)
        e[0] = z.real
        e[1] = z.imag
        return CVec.from_block(e)

    @staticmethod
    def from_real(re: IVec) -> "CVec":
        e = np.zeros((2, 2) + re.shape)
        e[0] = re.e[0]
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

    # -- parts ----------------------------------------------------------------

    @property
    def re(self) -> IVec:
        return IVec.from_block(self.e[:1])

    @property
    def im(self) -> IVec:
        return IVec.from_block(self.e[1:])

    # -- complex arithmetic ---------------------------------------------------

    def __mul__(self, other) -> "CVec":
        if _is_complexlike(other):
            return CVec.from_block(_mul(self.e, self._operand(other)))
        return super().__mul__(other)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "CVec":
        if not _is_complexlike(other):
            return super().__truediv__(other)
        o = CVec.from_block(self._operand(other))
        return (self * o.conj()) / o.abs2()

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
        sq = _square(self.e)
        return IVec.from_block(_add(np.add, sq[:1], sq[1:]))

    def exp(self) -> "CVec":
        im = self.im
        return CVec(im.cos(), im.sin()) * self.re.exp()


def _mul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The product of two complex blocks from their 16 endpoint products.

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
        # (x part and y part, end, *shape)
        rr, ri, ir, ii = _counted(_hull(p.reshape((4, 4) + shape)))
    e = np.empty((2, 2) + shape)
    np.subtract(rr, ii[::-1], out=e[0])
    np.add(ri, ir, out=e[1])
    return _counted(e)


def _is_complexlike(other) -> bool:
    if isinstance(other, (CVec, ComplexBox, complex)):
        return True
    return not isinstance(other, (IVec, RealInterval)) and np.iscomplexobj(other)
