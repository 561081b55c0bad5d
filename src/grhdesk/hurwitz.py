"""Rigorous Hurwitz zeta evaluation.

Three evaluation paths, stacked bottom to top:

* ``em_hurwitz`` — direct Euler-Maclaurin summation of zeta(s, alpha)
  with the truncation remainder enclosed as an interval, at either
  precision tier;
* ``build_lattice`` — a precomputed grid of tail values
  zeta_M(1/2 + it + c, r/D) along one horizontal line, built for all
  rows at once on hardware interval arrays, kept as one (D, Ncols+1)
  interval array and persisted on disk.  Its only big-float work is the
  powers (n + alpha)^{-s}.  Every base is an integer m over D and
  m -> m^{-s} is completely multiplicative, so only primes are
  transcendental: each prime p^{-s}, and D^{s}, is a midpoint-radius ball
  from one log, one exp and one cos_sin kernel call whose results are
  trusted to a few ulps; every composite is an exact Gaussian-integer
  fixed-point product of two balls.  Its per-column constants are exact
  rationals rounded once;
* ``unit_hurwitz`` — Taylor-shift queries against that grid for the
  rational second arguments a/q of every unit a mod q at once, with a
  geometric bound on the truncated Taylor tail and exact restoration of
  the first M+1 direct terms.

This module alone knows the lattice: its layout, its file format
(save_lattice, load_lattice) and its query.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np
from mpmath.libmp import (
    from_float,
    from_rational,
    mpf_cos_sin,
    mpf_exp,
    mpf_log,
    mpf_mul,
    mpf_neg,
    to_float,
)

from .errors import DomainError, PoleProximity, RadiusViolation
from .interval import (
    _BIG_TRANS_ULPS,
    _GUARD,
    _TINY,
    _TRANS_ULPS,
    HARDWARE,
    ComplexBox,
    PrecisionTier,
    RealInterval,
    _narrow,
    _up,
    _up_k,
    bernoulli,
    bigfloat,
    pi_interval,
)
from .ivec import CVec, IVec

DEFAULT_D = 2048
DEFAULT_NCOLS = 15
DEFAULT_M = 9
# Precision of a lattice build: the target of the truncation choices
# (auto_params), and the bits at which the powers (n + alpha)^{-s_0} are
# trusted (their prime balls carry a few more, see _sieved_powers).  The
# rest of the build and the stored cells are hardware, so more bits
# barely narrow a cell.
DEFAULT_BUILD_BITS = 64

_HALF = Fraction(1, 2)


def zeta_upper(m: int) -> Fraction:
    """Exact rational upper bound on zeta(m) for integer m >= 2."""
    if m < 2:
        raise DomainError("zeta_upper needs m >= 2")
    # 1 + 2^-m + integral_2^inf x^-m dx
    return 1 + Fraction(1, 2**m) + Fraction(2, (m - 1) * 2**m)


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


def auto_params(s: ComplexBox, alpha: RealInterval, tier: PrecisionTier) -> EMParams:
    """Truncation choices aiming the remainder near the tier's resolution."""
    bits = tier.bits
    b = max(8, (bits + 3) // 4)
    smag = s.abs().hi_float()
    sigma = s.re.lo_float()
    al = max(alpha.lo_float(), 0.0)
    # float estimate of log2 of the remainder as a function of the
    # boundary point A = a + alpha; solve for the smallest adequate a
    num = 1.0 + math.log2(float(zeta_upper(2 * b + 1)))
    for j in range(2 * b + 1):
        num += math.log2(smag + j + 1.0)
    num -= (2 * b + 1) * math.log2(2.0 * math.pi)
    num -= math.log2(sigma + 2 * b)
    num += bits + 8
    a_boundary = 2.0 ** (num / (sigma + 2 * b))
    a = max(2, math.ceil(a_boundary - al) + 1)
    return EMParams(a, b)


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
        params = auto_params(sb, al, tier)
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
        params = auto_params(sb, shifted, tier)
    return _em_core(sb, shifted, params.terms_a, params.terms_b)


# ---------------------------------------------------------------------------
# the lattice kernel: every row and column at once


def _trust(v, bits: int) -> float:
    """_BIG_TRANS_ULPS ulps at `bits` of a raw mpf, as a double (upward).

    The ulp comes from the mpf's own exponent, at the scale of _raw_ulp
    (an absolute floor for an exact zero).
    """
    e = v[2] + v[3] - bits if v[1] else -4 * bits
    return math.ldexp(_BIG_TRANS_ULPS, e) or _TINY


def _mag(v) -> float:
    """Upper bound on |v| for a raw mpf, as a double."""
    return _up(abs(to_float(v)))


# a fixed-point ball (X, Y, R, e): a value within R 2^e of (X + iY) 2^e
_Ball = tuple[int, int, int, int]


def _ball(x: Fraction, sigma: Fraction, t: float, bits: int) -> _Ball:
    """Enclosure of x^{-(sigma + it)} for x > 0 as a fixed-point ball (X, Y, R, e).

    The value lies within R 2^e of (X + iY) 2^e: a disc of integer radius
    on Gaussian-integer midpoints.  Midpoint-radius evaluation at
    bits + _GUARD with one mpf_log, one mpf_exp and one mpf_cos_sin.  Each
    kernel result is trusted to _BIG_TRANS_ULPS ulps at `bits`, the
    contract of the bigfloat tier's transcendentals; the radii are doubles
    rounded upward at every operation and carry the input radius of each
    step, the rounding of x, sigma and every product.  The two part radii
    add to the disc radius, and the midpoints are truncated to integers at
    the exponent that leaves the larger part bits + _GUARD bits.
    """
    prec = bits + _GUARD
    rel = math.ldexp(1.0, 1 - prec)  # bounds one rounding to nearest at prec, relative
    # |log x - log x~| <= d / (1 - d) <= rel for the rounding d <= 2^-prec of x
    lg = mpf_log(from_rational(x.numerator, x.denominator, prec, "n"), prec, "n")
    rad_lg = _up(_trust(lg, bits) + rel)
    # E = -sigma log x: the rounding of sigma and of the product, 2 rel |E|
    e = mpf_neg(mpf_mul(from_rational(sigma.numerator, sigma.denominator, prec, "n"), lg, prec, "n"))
    rad_e = _up(_up(_up(abs(float(sigma))) * rad_lg) + _up(2 * rel * _mag(e)))
    th = mpf_neg(mpf_mul(from_float(t), lg, prec, "n"))
    rad_th = _up(_up(abs(t) * rad_lg) + _up(rel * _mag(th)))

    r = mpf_exp(e, prec, "n")
    r_mag, tr = _mag(r), _trust(r, bits)
    # |exp(E + d) - exp(E)| <= exp(E) (e^|d| - 1)
    rad_r = _up(tr + _up(_up(r_mag + tr) * _up_k(math.expm1(rad_e), _TRANS_ULPS)))
    c, s = mpf_cos_sin(th, prec, "n")
    tc, ts = _trust(c, bits), _trust(s, bits)
    # |cos(th + d) - cos th| <= |sin th| |d| + d^2 / 2, and likewise for sin
    quad = _up(_up(rad_th * rad_th) / 2)
    rad_c = _up(_up(tc + _up(_up(_mag(s) + ts) * rad_th)) + quad)
    rad_s = _up(_up(ts + _up(_up(_mag(c) + tc) * rad_th)) + quad)

    mids, rad = [], 0.0
    for v, rad_v in ((c, rad_c), (s, rad_s)):
        p = mpf_mul(r, v, prec, "n")
        rad_p = _up(r_mag * rad_v)
        rad_p = _up(rad_p + _up(_mag(v) * rad_r))
        rad_p = _up(rad_p + _up(rad_r * rad_v))
        rad = _up(rad + _up(rad_p + _up(rel * _mag(p))))
        mids.append(p)
    # r > 0 and cos^2 + sin^2 = 1, so one part is nonzero
    ex = max(v[2] + v[3] for v in mids if v[1]) - prec
    X, Y = (_to_fixed(v, ex) for v in mids)
    # each truncation moves its part by less than one unit
    return X, Y, _ceil_scaled(rad, ex) + 2, ex


def _to_fixed(v, e: int) -> int:
    """A raw finite mpf as an integer multiple of 2^e, truncated toward zero."""
    sign, man, exp, _ = v
    n = man << (exp - e) if exp >= e else man >> (e - exp)
    return -n if sign else n


def _ceil_scaled(x: float, e: int) -> int:
    """ceil(x 2^-e) for a double x >= 0, exactly."""
    n, d = x.as_integer_ratio()
    if e < 0:
        n <<= -e
    else:
        d <<= e
    return -(-n // d)


def _ball_mul(u: _Ball, v: _Ball, prec: int) -> _Ball:
    """Product of two fixed-point balls, its midpoint truncated to prec bits.

    The Gaussian-integer midpoint product is exact; the radius is
    |mid u| R_v + |mid v| R_u + R_u R_v plus the truncation, with
    |X + iY| <= max + min/2 over |X|, |Y| (as sqrt(1 + x^2) <= 1 + x/2).
    """
    X1, Y1, R1, e1 = u
    X2, Y2, R2, e2 = v
    X, Y = X1 * X2 - Y1 * Y2, X1 * Y2 + Y1 * X2
    R = _mid_mag(X1, Y1) * R2 + _mid_mag(X2, Y2) * R1 + R1 * R2
    k = max(abs(X), abs(Y)).bit_length() - prec
    if k <= 0:
        return X, Y, R, e1 + e2
    # X >> k and Y >> k each move their part by less than one unit of 2^k
    return X >> k, Y >> k, (R >> k) + 3, e1 + e2 + k


def _mid_mag(X: int, Y: int) -> int:
    """An integer upper bound on |X + iY|."""
    a, b = abs(X), abs(Y)
    return (a + (b >> 1) if a >= b else b + (a >> 1)) + 1


def _narrow_ball(z: _Ball, real: bool) -> tuple[float, float, float, float]:
    """A fixed-point ball as (re.lo, re.hi, im.lo, im.hi) doubles.

    real says the exact value is real (a positive base to a real power),
    so the imaginary sides are [0, 0] whatever the radius.
    """
    X, Y, R, e = z
    im = (0.0, 0.0) if real else _narrow(Y - R, Y + R, e)
    return (*_narrow(X - R, X + R, e), *im)


def _power_ball(x: Fraction, sigma: Fraction, t: float, bits: int) -> tuple[float, float, float, float]:
    """Enclosure of x^{-(sigma + it)} for x > 0 as (re.lo, re.hi, im.lo, im.hi) doubles.

    One _ball at `bits`, narrowed: the single-power form of the lattice
    powers, against which the sieve (_sieved_powers) is tested.
    """
    return _narrow_ball(_ball(x, sigma, t, bits), t == 0.0)


def _smallest_prime_factors(top: int) -> np.ndarray:
    """spf[m] is the smallest prime factor of m for 2 <= m <= top."""
    spf = np.arange(top + 1, dtype=np.int64)
    # descending, so the smallest divisor d with d^2 <= m writes m last;
    # that d is prime, and a composite m has one
    for d in range(math.isqrt(top), 1, -1):
        spf[d * d :: d] = d
    return spf


def _sieved_powers(ms: list[int], L: int, sigma: Fraction, t: float, bits: int) -> np.ndarray:
    """Enclosures of (m/L)^{-(sigma + it)} for each integer m >= 1.

    Shape (len(ms), 4): re.lo, re.hi, im.lo, im.hi.  Since m -> m^{-s}
    is completely multiplicative, only primes are transcendental: the
    integers needed are ms closed under m -> spf(m) and m -> m/spf(m),
    each prime p is one _ball for p^{-s}, L^{s} is one more, and each
    composite m = p k (p = spf(m)) is one exact fixed-point product of the
    balls of p and k, made the first time a walk down the cofactors of an
    m in ms reaches it.  A power is then the ball of m times L^{s},
    narrowed to doubles by integer directed rounding.  The balls are
    trusted at bits plus the bit length of the top integer, which bounds
    the number of factors a chain multiplies, so that the radii the
    products add up stay below one ball's at `bits`.
    """
    top = max(ms)
    prec = bits + top.bit_length()
    mul_prec = prec + _GUARD  # the midpoint bits of a _ball at prec
    spf = _smallest_prime_factors(top)
    balls = {1: (1, 0, 0, 0)}
    for m in ms:
        # walk down the cofactors m, m/spf(m), ... to one already made,
        # then make the ones above it: p = spf(k) first, then k = p (k/p)
        chain = []
        while m not in balls:
            chain.append(m)
            m //= int(spf[m])
        for k in reversed(chain):
            p = int(spf[k])
            if p not in balls:
                balls[p] = _ball(Fraction(p), sigma, t, prec)
            if k != p:
                balls[k] = _ball_mul(balls[p], balls[k // p], mul_prec)
    scale = _ball(Fraction(1, L), sigma, t, prec)  # L^{s}
    out = np.empty((len(ms), 4))
    for i, m in enumerate(ms):
        out[i] = _narrow_ball(_ball_mul(balls[m], scale, mul_prec), t == 0.0)
    return out


def _exact_cvec(values: list[tuple[Fraction, Fraction]]) -> CVec:
    """Hardware CVec of exact Gaussian rationals, each side rounded outward once."""
    return CVec(
        IVec.from_intervals([RealInterval.from_fraction(re) for re, _ in values]),
        IVec.from_intervals([RealInterval.from_fraction(im) for _, im in values]),
    )


def _em_rows(
    t: float,
    base_sigma: Fraction,
    alphas: list[Fraction],
    ncols: int,
    a: int,
    b: int,
    tier: PrecisionTier,
) -> CVec:
    """Enclosures of sum_{n>=0} (n+alpha)^{-(base_sigma+c+it)}, shape (rows, ncols+1).

    Row i has alpha = alphas[i] > 0, column c = 0..ncols shifts the first
    argument by c.  This is _em_core's formula with a common truncation
    (a, b) for all rows.  The only row-dependent transcendentals, the
    powers (n+alpha)^{-s_0} for n = 0..a (n = a gives A^{-s_0}), come
    from one _sieved_powers call over the integers m = (n+alpha) L, L the
    common denominator of the alphas: a ball per prime factor and one for
    L^{s_0}, exact fixed-point products for the composites, each power
    narrowed to hardware once; each base n+alpha is rounded outward
    once.  The row-independent constants 1/(s_c-1), (s_c)_{2k-1}
    B_2k/(2k)! and the remainder constant are exact Gaussian rationals,
    because t is a double, each rounded outward once; only the remainder
    constant needs bounds, an upper one on |(s_c)_{2b+1}| and a lower one
    on (2 pi)^{2b+1} from pi at tier.bits.  Everything else runs on hardware
    interval arrays: column c scales the column c-1 powers by
    (n+alpha)^{-1}, the direct sum adds term by term, and the remainder
    radius takes each row's own A = a + alpha.  At t = 0 the values are
    real and the imaginary parts are set to [0, 0].
    """
    if min(alphas) <= 0:
        raise DomainError("alpha must be strictly positive")
    if base_sigma + 2 * b <= 0:
        raise DomainError("remainder bound needs Re(s) + 2*terms_b > 0")
    if a < 0 or b < 1:
        raise DomainError("terms_a must be >= 0 and terms_b >= 1")
    cols = range(ncols + 1)
    if t == 0.0 and any(base_sigma + c == 1 for c in cols):
        raise PoleProximity("a column coincides with the pole at 1")

    # (n + alpha)^{-s_0} and n + alpha on hardware, every base an integer over L
    L = math.lcm(*(alpha.denominator for alpha in alphas))
    ms = [alpha.numerator * (L // alpha.denominator) + n * L for alpha in alphas for n in range(a + 1)]
    ends = _sieved_powers(ms, L, base_sigma, t, tier.bits).T.reshape(4, len(alphas), a + 1)
    power = CVec(IVec(ends[0], ends[1], _checked=True), IVec(ends[2], ends[3], _checked=True))
    lo, hi = np.empty(len(ms)), np.empty(len(ms))
    for i, m in enumerate(ms):
        x = RealInterval.from_fraction(Fraction(m, L))
        lo[i], hi[i] = x.lo, x.hi
    base = IVec(lo, hi, _checked=True).reshape(len(alphas), a + 1)
    inv = 1.0 / base

    # the per-column constants in scaled Gaussian integers: with den the
    # common denominator of sigma and t, s_c + j = (x_c + j den + i y) / den
    T = Fraction(t)
    den = math.lcm(base_sigma.denominator, T.denominator)
    y = T.numerator * (den // T.denominator)
    zu = zeta_upper(2 * b + 1)
    two_pi_pow_lo = (2 * pi_interval(tier).lo_fraction()) ** (2 * b + 1)
    bern = [bernoulli(2 * k) / math.factorial(2 * k) for k in range(1, b + 1)]
    inv_sm1, coefs, rad_const, sig2b = [], [], [], []
    for c in cols:
        x = ((base_sigma + c) * den).numerator
        d2 = (x - den) ** 2 + y * y
        inv_sm1.append((Fraction((x - den) * den, d2), Fraction(-y * den, d2)))
        pr, pim, scale = x, y, den  # (s)_1 = (pr + i pim) / scale
        for k in range(1, b + 1):
            coefs.append((bern[k - 1] * Fraction(pr, scale), bern[k - 1] * Fraction(pim, scale)))
            for j in (2 * k - 1, 2 * k):
                xj = x + j * den
                pr, pim, scale = pr * xj - pim * y, pr * y + pim * xj, scale * den
        # (pr + i pim) / scale is now (s)_{2b+1}
        poch_abs = fraction_sqrt_upper(Fraction(pr * pr + pim * pim, scale * scale))
        rad = 2 * zu * poch_abs / (two_pi_pow_lo * (base_sigma + c + 2 * b))
        rad_const.append(RealInterval.from_fraction(rad).hi)
        sig2b.append(RealInterval.from_fraction(base_sigma + c + 2 * b))
    inv_sm1 = _exact_cvec(inv_sm1)
    coefs = _exact_cvec(coefs).reshape(ncols + 1, b)

    # column c of every power: one more factor (n + alpha)^{-1} per column
    shape = (len(alphas), a + 1, 1)
    by_col = [power.reshape(*shape)]
    for _ in cols[1:]:
        by_col.append(by_col[-1] * inv.reshape(*shape))
    terms = CVec.concatenate(by_col, axis=2)

    P = terms[:, a, :]  # A^{-s_c}
    A = base[:, a].reshape(-1, 1)
    apow = P * A  # A^{1-s_c}
    # each addition widens by a few ulps of its running sum, so the small
    # parts are summed apart and meet the large P A/(s-1) once, at the end
    direct = P * 0.5
    for n in range(a):
        direct = direct + terms[:, n, :]
    head = apow * inv_sm1
    invA2 = inv[:, a].square().reshape(-1, 1)
    apow = apow * invA2  # A^{-1-s_c}
    tail = apow * coefs[:, 0]
    for k in range(1, b):
        apow = apow * invA2  # A^{1-s_c-2k-2}
        tail = tail + apow * coefs[:, k]
    cell = (direct + tail) + head

    # remainder: rad_const_c A^{-sigma_c-2b} with each row's own A
    rpow = (A.log() * -IVec.from_intervals(sig2b)).exp()
    cell = cell.pad((rpow * np.array(rad_const)).hi)
    if t == 0.0:
        cell = CVec(cell.re, IVec.zeros(cell.shape))
    return cell


# ---------------------------------------------------------------------------
# the lattice


@dataclass(frozen=True, slots=True)
class HurwitzLattice:
    """Grid of tail values zeta_M(1/2 + it + c, r/D) as one interval array.

    Rows r = 1..D hold the offset alpha = r/D (row D is alpha = 1);
    columns c = 0..Ncols shift the first argument by integers.  Each cell
    contains zeta(1/2+it+c, r/D) - sum_{n=0}^{M} (n + r/D)^{-(1/2+it+c)}.
    rows is the hardware CVec of shape (D, Ncols+1) that one _em_rows
    call fills, row r at index r-1; bits is that build's precision (the
    trust precision of its powers and the target of its truncation).
    Immutable once built; queries only read.
    """

    t: float
    D: int
    Ncols: int
    M: int
    bits: int
    rows: CVec = field(repr=False)

    def cell(self, r: int, c: int) -> ComplexBox:
        """Cell for row r (1-based) and column c (0-based)."""
        if not (1 <= r <= self.D):
            raise IndexError(f"row {r} outside 1..{self.D}")
        if not (0 <= c <= self.Ncols):
            raise IndexError(f"column {c} outside 0..{self.Ncols}")
        return self.rows[r - 1, c]

    def s_at(self, c: int = 0) -> ComplexBox:
        """The point 1/2 + it + c as a hardware box."""
        return ComplexBox(
            RealInterval.from_fraction(_HALF + c, HARDWARE),
            RealInterval.point(self.t, HARDWARE),
        )


def build_lattice(
    t: float,
    D: int = DEFAULT_D,
    Ncols: int = DEFAULT_NCOLS,
    M: int = DEFAULT_M,
    tier: PrecisionTier | None = None,
    cache_dir: str | Path | None = None,
    cache: bool = True,
) -> HurwitzLattice:
    """Build (or load from cache) the lattice at ordinate t.

    tier.bits sets the build's precision: auto_params aims the
    Euler-Maclaurin truncation at it, and the powers (n + alpha)^{-s_0}
    are trusted to a few ulps at it; only the primes up to (M + 2 + a) D,
    the numerator of the top base over D, and D^{s_0} take transcendental
    kernel calls, the composites are exact fixed-point products.  No interval arithmetic
    runs at that tier; the build works in big-float balls, Gaussian
    integers, exact rationals and hardware interval arrays, and
    the returned lattice is hardware.  With cache enabled the result is
    persisted keyed by (t, D, Ncols, M, build bits).
    """
    t = float(t)
    if D < 2 or Ncols < 2 or M < 0:
        raise DomainError("need D >= 2, Ncols >= 2, M >= 0")
    if tier is None:
        tier = bigfloat(DEFAULT_BUILD_BITS)
    if tier.kind == "hardware":
        raise DomainError("lattice must be built at a big-float tier")

    path = None
    if cache:
        path = _cache_path(cache_dir, t, D, Ncols, M, tier.bits)
        if path.is_file():
            try:
                return load_lattice(path, expect=(t, D, Ncols, M, tier.bits))
            except ValueError:
                pass  # not the requested lattice, or damaged: rebuilt and overwritten

    alphas = [Fraction(r, D) + (M + 1) for r in range(1, D + 1)]
    sb = ComplexBox(RealInterval.from_fraction(_HALF, tier), RealInterval.point(t, tier))
    # terms_a falls as alpha grows, so the smallest alpha gives the
    # largest truncation point over the rows: one a serves them all
    params = auto_params(sb, RealInterval.from_fraction(alphas[0], tier), tier)
    rows = _em_rows(t, _HALF, alphas, Ncols, params.terms_a, params.terms_b, tier)
    lat = HurwitzLattice(t=t, D=D, Ncols=Ncols, M=M, bits=tier.bits, rows=rows)
    if path is not None:
        path.parent.mkdir(parents=True, exist_ok=True)
        save_lattice(lat, path)
    return lat


def _cache_path(cache_dir, t: float, D: int, Ncols: int, M: int, bits: int) -> Path:
    if cache_dir is None:
        cache_dir = os.environ.get("GRHDESK_CACHE")
    if cache_dir is None:
        cache_dir = Path.home() / ".cache" / "grhdesk"
    name = f"hurlat_t{t!r}_D{D}_N{Ncols}_M{M}_b{bits}.dat"
    return Path(cache_dir) / name


_MAGIC = "hurwitz-lattice 2"


def save_lattice(lat: HurwitzLattice, path: str | Path) -> None:
    """Write header (decimal) then cells row-major, one line per cell.

    A cell's line is the float.hex form of its endpoints re.lo re.hi
    im.lo im.hi, taken straight from the endpoint arrays of lat.rows.
    """
    path = Path(path)
    re, im = lat.rows.re, lat.rows.im
    ends = np.stack([re.lo, re.hi, im.lo, im.hi], axis=-1).reshape(-1, 4)
    lines = [_MAGIC, f"{lat.t!r} {lat.D} {lat.Ncols} {lat.M} {lat.bits}"]
    lines += [" ".join(map(float.hex, cell)) for cell in ends.tolist()]
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text("\n".join(lines) + "\n")
    tmp.replace(path)


def load_lattice(path: str | Path, expect: tuple | None = None) -> HurwitzLattice:
    """Read a lattice file written by save_lattice.

    With expect = (t, D, Ncols, M, build bits), a file whose header names
    any other lattice raises ValueError.  So does a malformed or cut-short
    file, and one with a cell whose endpoints are not ordered lo <= hi
    (NaN included).
    """
    path = Path(path)
    with path.open() as fh:
        magic = fh.readline().strip()
        if magic != _MAGIC:
            raise ValueError(f"not a lattice file: {path}")
        head = fh.readline().split()
        if len(head) != 5:
            raise ValueError(f"malformed lattice header in {path}")
        t = float(head[0])
        D, Ncols, M, bits = (int(v) for v in head[1:])
        if expect is not None and (t, D, Ncols, M, bits) != tuple(expect):
            raise ValueError(f"{path} holds lattice {(t, D, Ncols, M, bits)}, not {expect}")
        cells = [fh.readline().split() for _ in range(D * (Ncols + 1))]
    if any(len(fields) != 4 for fields in cells):
        raise ValueError(f"lattice body in {path} is cut short or malformed")
    ends = np.array([[float.fromhex(v) for v in fields] for fields in cells])
    ends = ends.reshape(D, Ncols + 1, 4)
    if not np.all(ends[..., 0::2] <= ends[..., 1::2]):
        raise ValueError(f"lattice body in {path} holds a cell with lo > hi or NaN")
    rows = CVec(
        IVec(ends[..., 0], ends[..., 1], _checked=True),
        IVec(ends[..., 2], ends[..., 3], _checked=True),
    )
    return HurwitzLattice(t=t, D=D, Ncols=Ncols, M=M, bits=bits, rows=rows)


# ---------------------------------------------------------------------------
# Taylor-shift queries


def taylor_tail_bound(
    s_mag_hi: Fraction,
    delta_abs: Fraction,
    radius: Fraction,
    first_k: int,
) -> Fraction:
    """Upper bound on sum_{k>=first_k} |delta|^k |(s)_k|/k! |zeta_M(s+k, alpha)|.

    radius is M + 1 + alpha, the decay base of the zeta_M column values;
    s_mag_hi an upper bound on |s| with Re(s) = 1/2.  Uses
    |zeta_M(s+k, alpha)| <= radius^(-1/2-k) (1 + radius/(k - 1/2)) and the
    termwise ratio bound; raises RadiusViolation when the ratio reaches 1.
    """
    K = first_k
    if delta_abs == 0:
        return Fraction(0)
    # first term, with the column-value bound at k = K
    poch = Fraction(1)
    for j in range(K):
        poch *= s_mag_hi + j
    tK = (
        delta_abs**K
        * poch
        / math.factorial(K)
        * radius ** (-K)  # the extra radius^(-1/2) factor < 1 is dropped
        * (1 + radius / (K - _HALF))
    )
    ratio = delta_abs * max(Fraction(1), (s_mag_hi + K) / (K + 1)) / radius
    if ratio >= 1:
        raise RadiusViolation(
            f"Taylor tail ratio {float(ratio):.3g} >= 1 at k = {K}"
        )
    return tK / (1 - ratio)


def unit_hurwitz(lat: HurwitzLattice, q: int, units: np.ndarray) -> CVec:
    """zeta(1/2 + i lat.t, a/q) for every a in units, batched.

    Each a/q takes the row r nearest to it (ties toward the larger r,
    clamped to 1..D), shifts that row by delta = a/q - r/D through Ncols
    Taylor terms, bounds the truncated Taylor tail geometrically, and
    restores the first M+1 direct terms at the exact argument a/q.  One
    tail bound serves the batch: taylor_tail_bound is monotone in |delta|
    and in the reciprocal of the row radius, so the largest |delta| and
    the smallest row bound every unit.  Each a must satisfy 0 < a < q and
    gcd(a, q) = 1.
    """
    D = lat.D
    units = np.asarray(units, dtype=np.int64)
    if not np.all((0 < units) & (units < q) & (np.gcd(units, q) == 1)):
        raise DomainError(f"need 0 < a < q and gcd(a, q) = 1 for every unit mod {q}")
    rows = np.clip((2 * units * D + q) // (2 * q), 1, D)

    d_max = Fraction(0)
    deltas = []
    for a, r in zip(units, rows):
        d = Fraction(int(a), q) - Fraction(int(r), D)
        deltas.append(RealInterval.from_fraction(-d, HARDWARE))
        if abs(d) > d_max:
            d_max = abs(d)
    neg_delta = IVec.from_intervals(deltas)

    cells = lat.rows.take(rows - 1)

    def col(k: int) -> CVec:
        return cells[(slice(None), k)]

    s0 = lat.s_at(0)
    acc = col(0)
    if d_max:
        coef = CVec.full(neg_delta.shape, ComplexBox.one(HARDWARE))
        for k in range(1, lat.Ncols + 1):
            # coef_k = (-delta)^k (s)_k / k!
            coef = (coef * (s0 + (k - 1))) * (neg_delta / k)
            acc = acc + coef * col(k)
        s_mag_hi = fraction_sqrt_upper(Fraction(1, 4) + Fraction(lat.t) ** 2)
        radius = Fraction(int(rows.min()), D) + (lat.M + 1)
        tail = taylor_tail_bound(s_mag_hi, d_max, radius, lat.Ncols + 1)
        if tail:
            acc = acc.pad(RealInterval.from_fraction(tail, HARDWARE).hi_float())

    # restore the removed head sum_{n<=M} (n + a/q)^(-s) at the exact argument
    neg_re = -s0.re
    neg_im = -s0.im
    for n in range(lat.M + 1):
        base = IVec.from_points((units + n * q).astype(np.float64)) / q
        lg = base.log()
        acc = acc + CVec(lg * neg_re, lg * neg_im).exp()
    return acc


def fraction_sqrt_upper(x: Fraction) -> Fraction:
    """A rational upper bound on sqrt(x) for x >= 0."""
    if x < 0:
        raise DomainError("sqrt of a negative rational")
    if x == 0:
        return Fraction(0)
    # scale to a large integer, take isqrt, round up
    scale = 2**64
    n = x.numerator * scale * scale
    d = x.denominator
    root = math.isqrt(n // d) + 1
    return Fraction(root, scale)
