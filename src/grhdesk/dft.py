"""Interval DFTs: naive, radix-2, Bluestein, and the character-group DFT.

Conventions: forward multiplies each datum by e(-nm/N), backward by
e(+nm/N), neither normalizes, so forward-then-backward scales by N.

Twiddle tables are computed once per length at the big-float tier (quadrant
symmetry keeps that cheap), narrowed to hardware endpoints, and cached.

dft() holds the one length policy: radix-2 for powers of two, the naive
sum up to _NAIVE_LIMIT, Bluestein above it.  The group DFT evaluates sums
of a(n) chi(n) for every character of a modulus simultaneously by
transforming one CRT coordinate at a time through dft(), which is the
usual row-column method over the cyclic factor structure.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .characters import CharGroup, unit_phase
from .interval import HARDWARE, bigfloat
from .ivec import CVec, IVec

_TWIDDLE_BITS = 128
_NAIVE_LIMIT = 64  # axis lengths above this go through Bluestein

_table_cache: dict[int, CVec] = {}
_chirp_cache: dict[tuple[int, int], CVec] = {}
_vhat_cache: dict[tuple[int, int], CVec] = {}
_rev_cache: dict[int, np.ndarray] = {}


def unity_table(n: int) -> CVec:
    """e(-j/n) for j = 0..n-1, hardware boxes narrowed from big-float."""
    tab = _table_cache.get(n)
    if tab is not None:
        return tab
    tier = bigfloat(_TWIDDLE_BITS)
    if n % 4 == 0:
        quarter = n // 4
        base = [
            unit_phase(Fraction(-j, n), tier).widen_to(HARDWARE)
            for j in range(quarter + 1)
        ]
        re = np.empty(n)
        re_hi = np.empty(n)
        im = np.empty(n)
        im_hi = np.empty(n)
        for j, b in enumerate(base):
            re[j], re_hi[j] = b.re.lo_float(), b.re.hi_float()
            im[j], im_hi[j] = b.im.lo_float(), b.im.hi_float()
        # remaining quadrants by exact multiplications by -i:
        # e(-(j + n/4)/n) = -i e(-j/n): (re, im) -> (im, -re)
        for k in range(1, 4):
            lo_src_re = re[(k - 1) * quarter : k * quarter].copy()
            hi_src_re = re_hi[(k - 1) * quarter : k * quarter].copy()
            lo_src_im = im[(k - 1) * quarter : k * quarter].copy()
            hi_src_im = im_hi[(k - 1) * quarter : k * quarter].copy()
            sl = slice(k * quarter, (k + 1) * quarter)
            re[sl], re_hi[sl] = lo_src_im, hi_src_im
            im[sl], im_hi[sl] = -hi_src_re, -lo_src_re
        tab = CVec(IVec(re, re_hi, _checked=True), IVec(im, im_hi, _checked=True))
    else:
        boxes = [unit_phase(Fraction(-j, n), tier).widen_to(HARDWARE) for j in range(n)]
        tab = CVec.from_boxes(boxes)
    _table_cache[n] = tab
    return tab


def _bit_reverse_indices(n: int) -> np.ndarray:
    rev = _rev_cache.get(n)
    if rev is None:
        bits = n.bit_length() - 1
        rev = np.zeros(n, dtype=np.int64)
        for i in range(n):
            rev[i] = int(bin(i)[2:].zfill(bits)[::-1], 2)
        _rev_cache[n] = rev
    return rev


def fft_pow2(z: CVec, direction: str = "forward") -> CVec:
    """Radix-2 interval FFT along the last axis (length a power of two)."""
    n = z.shape[-1]
    if n & (n - 1):
        raise ValueError(f"length {n} is not a power of two")
    if n == 1:
        return z.copy()
    table = unity_table(n)
    if direction == "backward":
        table = table.conj()
    z = z.take_last(_bit_reverse_indices(n))
    lead = z.shape[:-1]
    size = 2
    while size <= n:
        half = size // 2
        z = z.reshape(*lead, n // size, size)
        even = z[..., :half]
        odd = z[..., half:]
        tw = table.take_last(np.arange(half) * (n // size))
        t = odd * tw
        z = CVec.concatenate([even + t, even - t], axis=-1)
        z = z.reshape(*lead, n)
        size *= 2
    return z


def dft_naive(x: CVec, direction: str = "forward") -> CVec:
    """Definition-sum DFT along the last axis."""
    n = x.shape[-1]
    if n == 1:
        return x.copy()
    table = unity_table(n)
    if direction == "backward":
        table = table.conj()
    idx = (np.arange(n)[:, None] * np.arange(n)[None, :]) % n
    prods = x.reshape(*x.shape[:-1], n, 1) * table.take_last(idx)
    return prods.sum(axis=-2)


def _chirp(n: int, direction: str) -> CVec:
    """e(sign * j^2 / 2n) for j = 0..n-1 (sign -1 forward, +1 backward)."""
    sign = -1 if direction == "forward" else 1
    key = (n, sign)
    tab = _chirp_cache.get(key)
    if tab is None:
        tier = bigfloat(_TWIDDLE_BITS)
        boxes = [
            unit_phase(Fraction(sign * ((j * j) % (2 * n)), 2 * n), tier).widen_to(
                HARDWARE
            )
            for j in range(n)
        ]
        tab = CVec.from_boxes(boxes)
        _chirp_cache[key] = tab
    return tab


def dft_bluestein(x: CVec, direction: str = "forward") -> CVec:
    """Chirp-z DFT of arbitrary length over a power-of-two convolution."""
    n = x.shape[-1]
    if n == 1:
        return x.copy()
    L = 1
    while L < 2 * n - 1:
        L *= 2
    chirp = _chirp(n, direction)
    u = x * chirp
    zeros = CVec.zeros(u.shape[:-1] + (L - n,))
    upad = CVec.concatenate([u, zeros], axis=-1)

    key = (n, direction == "forward")
    vhat = _vhat_cache.get(key)
    if vhat is None:
        vconj = chirp.conj()  # e(-sign j^2/2n)
        vpad = CVec.zeros((L,))
        head = np.arange(n)
        tail = np.arange(1, n)
        re_lo = vpad.re.lo.copy()
        re_hi = vpad.re.hi.copy()
        im_lo = vpad.im.lo.copy()
        im_hi = vpad.im.hi.copy()
        re_lo[head], re_hi[head] = vconj.re.lo, vconj.re.hi
        im_lo[head], im_hi[head] = vconj.im.lo, vconj.im.hi
        re_lo[L - tail], re_hi[L - tail] = vconj.re.lo[tail], vconj.re.hi[tail]
        im_lo[L - tail], im_hi[L - tail] = vconj.im.lo[tail], vconj.im.hi[tail]
        vpad = CVec(
            IVec(re_lo, re_hi, _checked=True), IVec(im_lo, im_hi, _checked=True)
        )
        vhat = fft_pow2(vpad, "forward")
        _vhat_cache[key] = vhat

    conv = fft_pow2(fft_pow2(upad, "forward") * vhat, "backward") * Fraction(1, L)
    return conv[..., :n] * chirp


def dft(x: CVec, direction: str = "forward") -> CVec:
    """Length dispatch: radix-2 when possible, naive when small, else chirp."""
    n = x.shape[-1]
    if n & (n - 1) == 0:
        return fft_pow2(x, direction)
    if n <= _NAIVE_LIMIT:
        return dft_naive(x, direction)
    return dft_bluestein(x, direction)


# ---------------------------------------------------------------------------
# group DFT over the CRT factor structure


_perm_cache: dict[tuple, np.ndarray] = {}


def units_of(group: CharGroup) -> np.ndarray:
    """Residues coprime to q, ascending."""
    q = group.q
    return np.array([n for n in range(1, q) if math.gcd(n, q) == 1], dtype=np.int64)


def _coords_perm(group: CharGroup) -> np.ndarray:
    """perm[flat coordinate index] = position of that residue in units_of."""
    key = (group.q, group.orders)
    perm = _perm_cache.get(key)
    if perm is not None:
        return perm
    units = units_of(group)
    coords = []
    for f in group.factors:
        coords.append(f.dlog[units % f.prime_power])
    if group.special_two:
        st = group.special_two
        coords.append(st.dlog_sign[units % st.modulus])
        coords.append(st.dlog_five[units % st.modulus])
    flat = np.ravel_multi_index(tuple(np.asarray(c) for c in coords), group.orders)
    perm = np.empty(group.phi, dtype=np.int64)
    perm[flat] = np.arange(group.phi)
    _perm_cache[key] = perm
    return perm


def group_dft_cvec(group: CharGroup, values: CVec) -> CVec:
    """Character sums for every index at once.

    `values` is aligned with units_of(group) along its last axis; the result
    has the factor orders as its trailing axes, so position tuple k holds
    sum a(n) chi_k(n).  Leading axes batch independent input vectors.
    """
    lead = values.shape[:-1]
    arr = values.take_last(_coords_perm(group))
    arr = arr.reshape(*lead, *group.orders)
    ndim_lead = len(lead)
    for axis_pos in range(len(group.orders)):
        axis = ndim_lead + axis_pos
        arr = dft(arr.moveaxis(axis, -1), "backward").moveaxis(-1, axis)
    return arr
