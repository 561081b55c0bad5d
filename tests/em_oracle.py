"""Scalar Euler-Maclaurin Hurwitz zeta in mpmath.iv: the test oracle.

em_hurwitz encloses zeta(s, alpha) one value at a time in mpmath.iv,
mpmath's outward-rounded interval arithmetic, at a given precision, with
the truncation remainder enclosed as an interval.  It is checked against
mpmath in test_hurwitz.py, and the package's lattice kernel
(hurwitz._em_rows), its Taylor-shift queries and the large-q L-values are
checked against it.  Its truncation (terms_a, terms_b) is the package's
hurwitz.auto_params.

The helpers below move values between mpmath.iv and the package's
hardware intervals: ``iv_real``/``iv_complex`` build iv values (exactly
from hardware boxes, outward from rationals), ``ends`` reads the exact
endpoints of an iv interval, and ``covers``, ``meets``, ``holds`` and
``width`` compare and measure hardware boxes and iv values exactly.
``ivprec`` sets ``iv.prec`` for a block.

``em_constants`` gives the lattice kernel's per-column constants exactly,
as Gaussian rationals from exact Pochhammer symbols: the form the kernel
computed them in before its higher Bernoulli coefficients became
complex128 balls, kept to check those balls against.
"""

from __future__ import annotations

import itertools
import math
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction

import mpmath
from mpmath import iv
from mpmath.libmp import to_rational

from grhdesk.errors import DomainError, PoleProximity
from grhdesk.hurwitz import _pochhammer, auto_params, bernoulli, zeta_upper
from grhdesk.interval import ComplexBox, RealInterval


@contextmanager
def ivprec(bits: int):
    """iv.prec = bits inside the block, restored after it."""
    old = iv.prec
    iv.prec = bits
    try:
        yield
    finally:
        iv.prec = old


def iv_real(x) -> iv.mpf:
    """An iv interval holding x: a RealInterval or double exactly, a
    Fraction outward at iv.prec, a pair (lo, hi) as the hull of its two
    ends, an iv interval as it is."""
    if isinstance(x, RealInterval):
        return iv.mpf([x.lo, x.hi])
    if isinstance(x, Fraction):
        return iv.mpf(x.numerator) / x.denominator
    if isinstance(x, tuple):
        lo, hi = x
        return iv.mpf([iv_real(lo).a, iv_real(hi).b])
    return iv.mpf(x)


def iv_complex(z) -> iv.mpc:
    """An iv box holding z, each part as iv_real takes it; a pair is (re, im)."""
    if isinstance(z, iv.mpc):
        return z
    if isinstance(z, ComplexBox):
        return iv.mpc(iv_real(z.re), iv_real(z.im))
    if isinstance(z, tuple):
        return iv.mpc(*map(iv_real, z))
    if isinstance(z, complex):
        return iv.mpc(z.real, z.imag)
    return iv.mpc(iv_real(z), 0)


def ends(x: iv.mpf) -> tuple[Fraction, Fraction]:
    """The exact endpoints of a finite iv interval."""
    return tuple(Fraction(*to_rational(v)) for v in x._mpi_)


def _parts(x) -> list[tuple]:
    """The exact endpoints of each part of x: [re] for a real, [re, im]
    for a complex value, hardware or iv.  Doubles and Fractions compare
    exactly, so hardware endpoints stay doubles."""
    if isinstance(x, RealInterval):
        return [(x.lo, x.hi)]
    if isinstance(x, ComplexBox):
        return _parts(x.re) + _parts(x.im)
    if isinstance(x, iv.mpc):
        return _parts(x.real) + _parts(x.imag)
    return [ends(x)]


def covers(outer, inner) -> bool:
    """outer holds all of inner; each is a hardware box or an iv value."""
    return all(a <= c and d <= b for (a, b), (c, d) in zip(_parts(outer), _parts(inner), strict=True))


def meets(x, y) -> bool:
    """x and y intersect; each is a hardware box or an iv value."""
    return all(a <= d and c <= b for (a, b), (c, d) in zip(_parts(x), _parts(y), strict=True))


def holds(x, *point) -> bool:
    """x, hardware or iv, holds the exact real parts point = (re,) or (re, im)."""
    return all(a <= v <= b for (a, b), v in zip(_parts(x), point))


def width(x) -> Fraction:
    """The largest width over the parts of x."""
    return max(b - a for a, b in _parts(x))


@dataclass(frozen=True)
class EMParams:
    """Euler-Maclaurin truncation choices.

    terms_a: number of direct power terms summed before the boundary.
    terms_b: number of Bernoulli correction terms.  The remainder after
    terms_b corrections is rigorously enclosed and added to the result,
    so both choices affect only the width of the output, never its
    containment.
    """

    terms_a: int
    terms_b: int


def _em_core(s: iv.mpc, alpha: iv.mpf, a: int, b: int) -> iv.mpc:
    """Enclosure of sum_{n>=0} (n + alpha)^{-s}, continued past sigma > 1.

    alpha may be any strictly positive interval here; the public wrapper
    restricts it to (0, 1].  Remainder bound used: with A = a + alpha,

        |R_b| <= 2 zeta(2b+1) (2 pi)^{-(2b+1)} |(s)_{2b+1}| A^{-sigma-2b} / (sigma+2b)

    valid whenever sigma + 2b > 0.
    """
    re_lo, re_hi = ends(s.real)
    im_lo, im_hi = ends(s.imag)
    if ends(alpha)[0] <= 0:
        raise DomainError("alpha must be strictly positive")
    if re_lo <= 1 <= re_hi and im_lo <= 0 <= im_hi:
        raise PoleProximity("s overlaps the pole at 1")
    if re_lo + 2 * b <= 0:
        raise DomainError("remainder bound needs Re(s) + 2*terms_b > 0")
    if a < 0 or b < 1:
        raise DomainError("terms_a must be >= 0 and terms_b >= 1")

    acc = iv.mpc(0, 0)
    for n in range(a):
        acc += iv.exp(-s * iv.log(alpha + n))

    A = alpha + a
    logA = iv.log(A)
    P = iv.exp(-s * logA)  # A^{-s}
    acc += P * A / (s - 1) + P / 2

    invA2 = 1 / (A * A)
    apow = P * A  # A^{1-s}
    poch = s  # (s)_1
    for k in range(1, b + 1):
        apow = apow * invA2  # A^{1-s-2k}
        acc += poch * iv_real(bernoulli(2 * k) / math.factorial(2 * k)) * apow
        poch = poch * (s + (2 * k - 1)) * (s + 2 * k)
    # poch is now (s)_{2b+1}

    sig2b = s.real + 2 * b
    rpow = iv.exp(-logA * sig2b)  # A^{-sigma-2b}
    zu = iv_real(zeta_upper(2 * b + 1))
    radius = zu * 2 * abs(poch) * rpow / ((2 * iv.pi) ** (2 * b + 1) * sig2b)
    r = iv.mpf([-radius.b, radius.b])
    return acc + iv.mpc(r, r)


def _auto_params(s: iv.mpc, alpha: iv.mpf, bits: int) -> EMParams:
    """hurwitz.auto_params at the lower ends of Re s and alpha and the larger |Im s|."""
    im_lo, im_hi = ends(s.imag)
    t = float(max(-im_lo, im_hi))
    return EMParams(*auto_params(ends(s.real)[0], t, ends(alpha)[0], bits))


def em_hurwitz(s, alpha, params: EMParams | None = None, bits: int = 53) -> iv.mpc:
    """Enclosure of the Hurwitz zeta zeta(s, alpha) for alpha in (0, 1], at iv.prec = bits.

    s may be an iv box, a ComplexBox, a pair (re, im) or a number, and alpha an iv
    interval, a RealInterval or a number (see iv_complex, iv_real).
    With params omitted the truncation is chosen so the remainder sits
    near 2^-bits.
    """
    with ivprec(bits):
        sb, al = iv_complex(s), iv_real(alpha)
        lo, hi = ends(al)
        if lo <= 0:
            raise DomainError("alpha must be strictly positive")
        if hi > 1:
            raise DomainError("alpha must lie in (0, 1]")
        if params is None:
            params = _auto_params(sb, al, bits)
        return _em_core(sb, al, params.terms_a, params.terms_b)


def em_hurwitz_tail(s, alpha, skip: int, params: EMParams | None = None, bits: int = 53) -> iv.mpc:
    """Enclosure of zeta(s, alpha) - sum_{n=0}^{skip-1} (n+alpha)^{-s}.

    Evaluated directly as the shifted series zeta(s, alpha + skip), so no
    cancellation between the full value and the removed head occurs.
    """
    with ivprec(bits):
        sb = iv_complex(s)
        shifted = iv_real(alpha) + skip
        if params is None:
            params = _auto_params(sb, shifted, bits)
        return _em_core(sb, shifted, params.terms_a, params.terms_b)


def em_constants(t: float, sigma: Fraction, ncols: int, b: int) -> list[tuple]:
    """The constants of hurwitz._em_rows at one ordinate, exactly: for each
    column c = 0..ncols, (1/(s_c - 1), [B_2k/(2k)! (s_c)_{2k-1} for k = 1..b],
    rem^2) at s_c = sigma + c + it, each Gaussian rational as a pair
    (re, im) of Fractions.

    rem^2 is the square of 2 zeta(2b+1) |(s_c)_{2b+1}| / ((2 pi)^{2b+1}
    (sigma_c + 2b)) with zeta(2b+1) and 1/pi bounded above (zeta_upper and
    a lower bound on pi at 300 bits), so any rem whose square is at least
    it bounds the remainder constant.  The Pochhammer symbols are exact
    scaled Gaussian integers (hurwitz._pochhammer).
    """
    with mpmath.workprec(300):
        pi_lo = Fraction(*to_rational(mpmath.pi._mpf_)) - Fraction(1, 2**290)
    scale_rem = 2 * zeta_upper(2 * b + 1) / (2 * pi_lo) ** (2 * b + 1)
    out = []
    for c in range(ncols + 1):
        poch = list(itertools.islice(_pochhammer(sigma + c, t), 2 * b + 2))
        x, y, den = poch[1]  # s_c = (x + iy) / den
        d2 = (x - den) ** 2 + y * y
        inv = (Fraction((x - den) * den, d2), Fraction(-y * den, d2))
        coefs = []
        for k in range(1, b + 1):
            pr, pim, scale = poch[2 * k - 1]
            bk = bernoulli(2 * k) / math.factorial(2 * k)
            coefs.append((bk * Fraction(pr, scale), bk * Fraction(pim, scale)))
        pr, pim, scale = poch[2 * b + 1]
        rem_sq = (scale_rem / (sigma + c + 2 * b)) ** 2 * Fraction(pr * pr + pim * pim, scale * scale)
        out.append((inv, coefs, rem_sq))
    return out
