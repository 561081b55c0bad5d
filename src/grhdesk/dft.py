"""Interval DFTs: naive, radix-2, Bluestein, and the character-group DFT.

Conventions: forward multiplies each datum by e(-nm/N), backward by
e(+nm/N), neither normalizes, so forward-then-backward scales by N.
fft_pow2 computes either direction: Bluestein's convolution uses both, and
the small-q sampler's FFT the backward one.  dft, dft_naive and
dft_bluestein compute the backward sum only, the one every character sum
needs.

Every twiddle and chirp comes from one table per length, unity_table(n):
the exact kernel's fixed-point recurrence (balls.fixed_unit_powers: one
big-float transcendental per length, one integer radius), narrowed once to
hardware endpoints and cached.  Bluestein's chirp of length n is
unity_table(2n) read at j^2 mod 2n.

dft() holds the one length policy: radix-2 for powers of two, the naive
sum up to _NAIVE_LIMIT, Bluestein above it.  The group DFT evaluates sums
of a(n) chi(n) for every character of a modulus simultaneously by
transforming one CRT coordinate at a time through dft(), which is the
usual row-column method over the cyclic factor structure.
"""

from __future__ import annotations

import numpy as np

from .balls import fixed_unit_powers, narrow_ball
from .characters import CharGroup
from .ivec import CVec

_NAIVE_LIMIT = 64  # axis lengths above this go through Bluestein

_table_cache: dict[int, CVec] = {}
_vhat_cache: dict[int, CVec] = {}

# sides (re lo, re hi, im lo, im hi) of e(-k/4), k = 0..3: the points 1, -i, -1, i
_QUARTER_POINTS = np.array(
    [[1.0, 1.0, 0.0, 0.0], [0.0, 0.0, -1.0, -1.0], [-1.0, -1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 1.0]]
)


def unity_table(n: int) -> CVec:
    """e(-j/n) for j = 0..n-1 as a CVec.

    The fixed-point table of e(j/n) at scale 2^-shift, with
    shift = 53 + 2 bitlen(n) + 16 (the guard bits that
    CharGroup._fixed_unity_tables adds to GAUSS_BITS), is conjugated and
    each side narrowed to a double once (balls.narrow_ball).  Entries
    with 4j = 0 mod n are the exact points 1, -i, -1, i.
    """
    tab = _table_cache.get(n)
    if tab is not None:
        return tab
    shift = 53 + 2 * n.bit_length() + 16
    re, im, rad = fixed_unit_powers(n, shift)
    sides = np.array([narrow_ball((x, -y, rad, -shift), False) for x, y in zip(re, im)])
    j = np.flatnonzero(4 * np.arange(n) % n == 0)
    sides[j] = _QUARTER_POINTS[4 * j // n]
    tab = CVec.from_block(sides.T.reshape(2, 2, n).copy())
    _table_cache[n] = tab
    return tab


def _bit_reverse_indices(n: int) -> np.ndarray:
    rev = np.zeros(1, dtype=np.int64)
    while rev.size < n:
        rev = np.concatenate([2 * rev, 2 * rev + 1])
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


def dft_naive(x: CVec) -> CVec:
    """Definition-sum backward DFT along the last axis."""
    n = x.shape[-1]
    if n == 1:
        return x.copy()
    table = unity_table(n).conj()
    idx = (np.arange(n)[:, None] * np.arange(n)[None, :]) % n
    prods = x.reshape(*x.shape[:-1], n, 1) * table.take_last(idx)
    return prods.sum(axis=-2)


def _chirp(n: int) -> CVec:
    """e(j^2 / 2n) for j = 0..n-1."""
    j = np.arange(n)
    return unity_table(2 * n).take_last(j * j % (2 * n)).conj()


def dft_bluestein(x: CVec) -> CVec:
    """Chirp-z backward DFT of arbitrary length over a power-of-two convolution."""
    n = x.shape[-1]
    if n == 1:
        return x.copy()
    L = 1
    while L < 2 * n - 1:
        L *= 2
    chirp = _chirp(n)
    u = x * chirp
    zeros = CVec.zeros(u.shape[:-1] + (L - n,))
    upad = CVec.concatenate([u, zeros], axis=-1)

    vhat = _vhat_cache.get(n)
    if vhat is None:
        v = chirp.conj()  # e(-j^2/2n), wrapped around for the cyclic convolution
        vpad = CVec.concatenate([v, CVec.zeros((L - 2 * n + 1,)), v[n - 1 : 0 : -1]])
        vhat = fft_pow2(vpad, "forward")
        _vhat_cache[n] = vhat

    conv = fft_pow2(fft_pow2(upad, "forward") * vhat, "backward") * (1.0 / L)
    return conv[..., :n] * chirp


def dft(x: CVec) -> CVec:
    """Backward DFT along the last axis, by length: radix-2 when possible,
    naive when small, else chirp."""
    n = x.shape[-1]
    if n & (n - 1) == 0:
        return fft_pow2(x, "backward")
    if n <= _NAIVE_LIMIT:
        return dft_naive(x)
    return dft_bluestein(x)


# ---------------------------------------------------------------------------
# group DFT over the CRT factor structure


def units_of(group: CharGroup) -> np.ndarray:
    """Residues coprime to q, ascending."""
    q = group.q
    return np.flatnonzero(np.gcd(np.arange(q), q) == 1)


def _coords_perm(group: CharGroup) -> np.ndarray:
    """perm[flat coordinate index] = position of that residue in units_of."""
    units = units_of(group)
    coords = tuple(f.dlog[units % f.prime_power] for f in group.factors)
    perm = np.empty(group.phi, dtype=np.int64)
    perm[np.ravel_multi_index(coords, group.orders)] = np.arange(group.phi)
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
        arr = dft(arr.moveaxis(axis, -1)).moveaxis(-1, axis)
    return arr
