"""Two-array interval arithmetic: an independent oracle for ivec's block kernels.

An interval array here is a pair (lo, hi) of float64 arrays, and each
operation is written out end by end: dn and up round one endpoint array
outward, a product or quotient is the min and max of its four corner
arrays, a square, sqrt, exp, log, atan, sin and cos treat each end apart,
and a sum bounds each end's rounding error on its own.  ivec's kernels work on
one (parts, 2, *shape) block instead; they must give these endpoints bit
for bit.  Each operation tallies ivec.op_counter as its kernel must: the
number of intervals it produces (none for neg and pad).

A complex array is a pair (re, im) of such pairs, and its operations are
the real ones above, in the order the complex kernels promise.
"""

import numpy as np

from grhdesk.ivec import IVec, op_counter

_EPS = 2.0**-52
_U = 2.0**-53
_TINY = 2.0 * 5e-324
_KA = 0.5000001
_KT = 8.0
_NEXTAFTER_MAX = 256
_MAX = np.finfo(np.float64).max
_PI_LO = np.pi
_PI_HI = np.nextafter(np.pi, np.inf)


# -- rounding: one endpoint array at a time ------------------------------


def dn(x, k=_KA):
    """x moved down: one ulp by np.nextafter at k = _KA up to
    _NEXTAFTER_MAX elements, else by k eps |x| + k tiny.  -inf stays,
    +inf moves to the largest double and NaN stays NaN."""
    if k == _KA and np.size(x) <= _NEXTAFTER_MAX:
        return np.nextafter(x, -np.inf)
    with np.errstate(invalid="ignore", over="ignore"):
        y = np.asarray(np.abs(x))
        y *= k * _EPS
        y += k * _TINY
        np.subtract(x, y, out=y)
        np.fmin(y, x, out=y)
        return np.minimum(y, _MAX, out=y)


def up(x, k=_KA):
    """x moved up, as dn mirrored."""
    if k == _KA and np.size(x) <= _NEXTAFTER_MAX:
        return np.nextafter(x, np.inf)
    with np.errstate(invalid="ignore", over="ignore"):
        y = np.asarray(np.abs(x))
        y *= k * _EPS
        y += k * _TINY
        np.add(x, y, out=y)
        np.fmax(y, x, out=y)
        return np.maximum(y, -_MAX, out=y)


def ends(x):
    """An IVec or real points as a (lo, hi) pair."""
    if isinstance(x, IVec):
        return x.lo.copy(), x.hi.copy()
    a = np.asarray(x, dtype=np.float64)
    return a, a


# -- real arithmetic -------------------------------------------------------


def neg(a):
    return -a[1], -a[0]


def add(a, b):
    lo, hi = dn(a[0] + b[0]), up(a[1] + b[1])
    op_counter.add(np.size(lo))
    return lo, hi


def sub(a, b):
    lo, hi = dn(a[0] - b[1]), up(a[1] - b[0])
    op_counter.add(np.size(lo))
    return lo, hi


def _four_corners(op, a, b):
    with np.errstate(all="ignore"):
        p1, p2, p3, p4 = op(a[0], b[0]), op(a[0], b[1]), op(a[1], b[0]), op(a[1], b[1])
        lo = np.minimum(np.minimum(p1, p2), np.minimum(p3, p4))
        hi = np.maximum(np.maximum(p1, p2), np.maximum(p3, p4))
    op_counter.add(np.size(lo))
    return dn(lo), up(hi)


def mul(a, b):
    return _four_corners(np.multiply, a, b)


def div(a, b):
    """a / b; b must not contain 0 (the caller checks)."""
    return _four_corners(np.divide, a, b)


def contains_zero(a):
    return (a[0] <= 0.0) & (a[1] >= 0.0)


def square(a):
    with np.errstate(over="ignore"):
        m1, m2 = a[0] * a[0], a[1] * a[1]
    hi = up(np.maximum(m1, m2))
    lo = np.where(contains_zero(a), 0.0, np.maximum(dn(np.minimum(m1, m2)), 0.0))
    op_counter.add(np.size(m1))
    return lo, hi


def _rising(fn, a, floor=-np.inf, k=_KT):
    with np.errstate(all="ignore"):
        lo = np.maximum(dn(fn(a[0]), k), floor)
        hi = np.maximum(up(fn(a[1]), k), floor)
    op_counter.add(np.size(lo))
    return lo, hi


def sqrt(a):
    """sqrt of a with lo >= 0."""
    lo = np.maximum(dn(np.sqrt(a[0])), 0.0)
    hi = up(np.sqrt(a[1]))
    op_counter.add(np.size(lo))
    return lo, hi


def exp(a):
    return _rising(np.exp, a, 0.0)


def log(a):
    """log of a with lo > 0."""
    return _rising(np.log, a)


def atan(a):
    return _rising(np.arctan, a)


def _contains_extremum(a, off):
    """Might (off + 2k) pi lie in a for an integer k?  A few ulps slack."""
    with np.errstate(all="ignore"):
        x = np.where(a[0] >= 0.0, a[0] / _PI_HI, a[0] / _PI_LO)
        y = np.where(a[1] >= 0.0, a[1] / _PI_LO, a[1] / _PI_HI)
        x, y = dn(x, 4.0), up(y, 4.0)
        return np.floor((y - off) / 2.0) >= np.ceil((x - off) / 2.0)


def _trig(a, is_sin):
    fn = np.sin if is_sin else np.cos
    with np.errstate(all="ignore"):
        v1, v2 = fn(a[0]), fn(a[1])
        lo, hi = dn(np.minimum(v1, v2), _KT), up(np.maximum(v1, v2), _KT)
    # sin peaks at (1/2 + 2k) pi and dips at (-1/2 + 2k) pi; cos at 0 and 1
    hi = np.where(_contains_extremum(a, 0.5 if is_sin else 0.0), 1.0, hi)
    lo = np.where(_contains_extremum(a, -0.5 if is_sin else 1.0), -1.0, lo)
    lo, hi = np.maximum(lo, -1.0), np.minimum(hi, 1.0)
    op_counter.add(np.size(lo))
    return lo, hi


def sin(a):
    return _trig(a, True)


def cos(a):
    return _trig(a, False)


def width(a):
    return up(a[1] - a[0])


def pad(a, r):
    r = np.asarray(r, dtype=np.float64)
    return dn(a[0] - r), up(a[1] + r)


def sum(a, axis=None):
    """The rigorous sum of each end: (n + 2) u sum|x| covers any order."""
    n = np.size(a[0]) if axis is None else np.shape(a[0])[axis]
    c = (n + 2) * _U
    lo = dn(np.sum(a[0], axis=axis) - c * np.sum(np.abs(a[0]), axis=axis))
    hi = up(np.sum(a[1], axis=axis) + c * np.sum(np.abs(a[1]), axis=axis))
    op_counter.add(np.size(a[0]))
    return lo, hi


# -- complex arithmetic on (re, im) pairs --------------------------------


def points(z):
    """Complex points as a (re, im) pair of point pairs."""
    z = np.asarray(z, dtype=np.complex128)
    return (z.real.copy(), z.real.copy()), (z.imag.copy(), z.imag.copy())


def cmul(a, b):
    return sub(mul(a[0], b[0]), mul(a[1], b[1])), add(mul(a[0], b[1]), mul(a[1], b[0]))


def cmul_real(a, r):
    return mul(a[0], r), mul(a[1], r)


def cdiv_real(a, r):
    return div(a[0], r), div(a[1], r)


def cadd(a, b):
    return add(a[0], b[0]), add(a[1], b[1])


def csub(a, b):
    return sub(a[0], b[0]), sub(a[1], b[1])


def conj(a):
    return a[0], neg(a[1])


def abs2(a):
    return add(square(a[0]), square(a[1]))


def cdiv(a, b):
    """a / b as (a conj(b)) / |b|^2, each part divided apart."""
    return cdiv_real(cmul(a, conj(b)), abs2(b))


def cexp(a):
    r = exp(a[0])
    return mul(cos(a[1]), r), mul(sin(a[1]), r)


def cpad(a, r):
    return pad(a[0], r), pad(a[1], r)


def csum(a, axis=None):
    return sum(a[0], axis), sum(a[1], axis)
