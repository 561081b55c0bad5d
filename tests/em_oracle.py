"""Scalar Euler-Maclaurin Hurwitz zeta: the test oracle.

em_hurwitz encloses zeta(s, alpha) one value at a time, with the
truncation remainder enclosed as an interval, at either precision tier.
It is checked against mpmath in test_hurwitz.py, and the package's
lattice kernel (hurwitz._em_rows), its Taylor-shift queries and the
large-q L-values are checked against it.  Its truncation (terms_a,
terms_b) is the package's hurwitz.auto_params.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from grhdesk.errors import DomainError, PoleProximity
from grhdesk.hurwitz import auto_params, zeta_upper
from grhdesk.interval import (
    HARDWARE,
    ComplexBox,
    PrecisionTier,
    RealInterval,
    bernoulli,
    pi_interval,
)

_HALF = Fraction(1, 2)


def _cpow(base: RealInterval, z: ComplexBox) -> ComplexBox:
    """base**z for a strictly positive real base."""
    lg = base.log()
    return ComplexBox(z.re * lg, z.im * lg).exp()


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


def _auto_params(s: ComplexBox, alpha: RealInterval, tier: PrecisionTier) -> EMParams:
    """hurwitz.auto_params at the lower ends of Re s and alpha and the larger |Im s|."""
    t = max(-s.im.lo_float(), s.im.hi_float())
    return EMParams(*auto_params(s.re.lo_fraction(), t, alpha.lo_fraction(), tier.bits))


def _em_core(s: ComplexBox, alpha: RealInterval, a: int, b: int) -> ComplexBox:
    """Enclosure of sum_{n>=0} (n + alpha)^{-s}, continued past sigma > 1.

    alpha may be any strictly positive interval here; the public wrapper
    restricts it to (0, 1].  Remainder bound used: with A = a + alpha,

        |R_b| <= 2 zeta(2b+1) (2 pi)^{-(2b+1)} |(s)_{2b+1}| A^{-sigma-2b} / (sigma+2b)

    valid whenever sigma + 2b > 0.
    """
    tier = s.tier
    if alpha.lo_fraction() <= 0:
        raise DomainError("alpha must be strictly positive")
    if (s - 1).contains_zero():
        raise PoleProximity("s overlaps the pole at 1")
    if s.re.lo_fraction() + 2 * b <= 0:
        raise DomainError("remainder bound needs Re(s) + 2*terms_b > 0")
    if a < 0 or b < 1:
        raise DomainError("terms_a must be >= 0 and terms_b >= 1")

    neg_s = -s
    acc = ComplexBox.zero(tier)
    for n in range(a):
        acc = acc + _cpow(alpha + n, neg_s)

    A = alpha + a
    logA = A.log()
    P = ComplexBox(neg_s.re * logA, neg_s.im * logA).exp()  # A^{-s}
    half = RealInterval.from_fraction(_HALF, tier)
    acc = acc + (P * A) / (s - 1)
    acc = acc + P * half

    invA2 = RealInterval.one(tier) / A.square()
    apow = P * A  # A^{1-s}
    poch = s  # (s)_1
    for k in range(1, b + 1):
        apow = apow * invA2  # A^{1-s-2k}
        coef = RealInterval.from_fraction(bernoulli(2 * k) / math.factorial(2 * k), tier)
        acc = acc + (poch * coef) * apow
        poch = (poch * (s + (2 * k - 1))) * (s + 2 * k)
    # poch is now (s)_{2b+1}

    sig2b = s.re + 2 * b
    rpow = (logA * (-sig2b)).exp()  # A^{-sigma-2b}
    zu = RealInterval.from_fraction(zeta_upper(2 * b + 1), tier)
    two_pi_pow_lo = (2 * pi_interval(tier).lo_fraction()) ** (2 * b + 1)
    two_pi_pow = RealInterval.from_fraction(two_pi_pow_lo, tier)
    radius = (zu * 2 * poch.abs() * rpow) / (two_pi_pow * sig2b)
    return acc.pad(radius)


def _coerce_s(s, tier: PrecisionTier) -> ComplexBox:
    if isinstance(s, ComplexBox):
        return s
    if isinstance(s, RealInterval):
        return ComplexBox.from_real(s)
    if isinstance(s, Fraction):
        return ComplexBox(RealInterval.from_fraction(s, tier), RealInterval.zero(tier))
    return ComplexBox.point(complex(s), tier)


def _coerce_alpha(alpha, tier: PrecisionTier) -> RealInterval:
    if isinstance(alpha, RealInterval):
        return alpha
    if isinstance(alpha, (Fraction, int)):
        return RealInterval.from_fraction(Fraction(alpha), tier)
    return RealInterval.point(alpha, tier)


def em_hurwitz(s, alpha, params: EMParams | None = None, tier: PrecisionTier = HARDWARE) -> ComplexBox:
    """Enclosure of the Hurwitz zeta zeta(s, alpha) for alpha in (0, 1].

    s may be a ComplexBox (its tier then wins), a RealInterval, or a
    plain number; alpha likewise.  With params omitted the truncation is
    chosen so the remainder sits near the tier's resolution.
    """
    sb = _coerce_s(s, tier)
    tier = sb.tier
    al = _coerce_alpha(alpha, tier)
    if al.lo_fraction() <= 0:
        raise DomainError("alpha must be strictly positive")
    if al.hi_fraction() > 1:
        raise DomainError("alpha must lie in (0, 1]")
    if params is None:
        params = _auto_params(sb, al, tier)
    return _em_core(sb, al, params.terms_a, params.terms_b)


def em_hurwitz_tail(s, alpha, skip: int, params: EMParams | None = None, tier: PrecisionTier = HARDWARE) -> ComplexBox:
    """Enclosure of zeta(s, alpha) - sum_{n=0}^{skip-1} (n+alpha)^{-s}.

    Evaluated directly as the shifted series zeta(s, alpha + skip), so no
    cancellation between the full value and the removed head occurs.
    """
    sb = _coerce_s(s, tier)
    tier = sb.tier
    al = _coerce_alpha(alpha, tier)
    shifted = al + skip
    if params is None:
        params = _auto_params(sb, shifted, tier)
    return _em_core(sb, shifted, params.terms_a, params.terms_b)
