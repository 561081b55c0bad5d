"""Rigorous Hurwitz zeta evaluation.

The lattice and the unit query: two stages on one Euler-Maclaurin
kernel (_em_rows), whose powers are the exact kernel's balls (balls):

* ``build_lattice`` — a precomputed grid of tail values
  zeta_M(1/2 + it + c, r/D), r = 0..D, along one horizontal line, built
  for all rows at once on hardware interval arrays, kept as one
  (D+1, Ncols+1) interval array, on disk only in a given cache_dir.  Its only
  big-float work is the powers (n + alpha)^{-s}.  Every base is an
  integer m over D and m -> m^{-s} is completely multiplicative, so only
  primes are transcendental: each prime p^{-s}, and D^{s}, is one
  balls.ball, and every base (m/D)^{-s} is then an exact Gaussian-integer
  fixed-point product of a prime's ball and a smaller base's, down to
  D^{s}.  Its bases m/D are rounded in one numpy pass.  Of its
  per-column constants, 1/(s_c - 1), which sets each cell's largest
  term, and the first Bernoulli coefficient s_c/12 are exact Gaussian
  rationals, each rounded once; the higher Bernoulli coefficients and the
  remainder constant are complex128 balls from one cumulative product of
  the exact factors s_c + j per block, with an a priori radius, as their
  few ulps of width scale terms far below a cell (_em_constants).
  Every lattice has one shape, DEFAULT_NCOLS + 1 columns, the head
  length DEFAULT_M + 1 and the build precision DEFAULT_BUILD_BITS; only
  its row count D follows the height, lattice_size(t) unless given;
* ``unit_hurwitz`` — Taylor-shift queries against a block of those
  grids for the rational second arguments a/q of every unit a mod q at
  once: each a/q reads its nearest row, |a/q - r/D| <= 1/(2D), in a
  fixed number of interval-array operations per block of units, with
  exact Taylor coefficients, a geometric bound on the truncated Taylor
  tail and exact restoration of the first M+1 direct terms.

Both stages take a block of ordinates that share a row count D and the
truncation (a, b) (_truncation), with the ordinates on a leading array
axis: _build_block makes the block's lattices in one _em_rows pass, and
unit_hurwitz reads a block of lattices in one query.
What does not depend on t is made once per block: the bases m/D, their
reciprocals and the remainder's A^(-sigma_c-2b) in the build, each
prime's integer root and log in the sieve, and the powers of -delta and
the head's log and modulus in the query.  Every operation is elementwise
over the ordinates, so a block's values are those of its ordinates one
at a time, bit for bit, and a block costs the interval-array calls of
one ordinate; a single ordinate is the one-element block.

The small-q sampler's zeta(9/8) is one _em_rows cell.  The scalar
Euler-Maclaurin evaluation the kernel is tested against, one value at a
time, is the oracle in tests/em_oracle.py.

This module alone knows the lattice: its layout, its default row count
(lattice_size), its truncation, its file format (save_lattice,
load_lattice) and its query.  It keeps no lattice in memory beyond the
block _build_block has just made, until build_lattice hands each out.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from pathlib import Path

import numpy as np

from .balls import GUARD, ball_mul, bernoulli, modulus, narrow_ball, pi_fixed, turn
from .errors import DomainError, PoleProximity, RadiusViolation
from .ivec import CVec, IVec

# the cap of the default row count (lattice_size)
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


def auto_params(sigma: Fraction, t: float, alpha: Fraction, bits: int) -> tuple[int, int]:
    """Euler-Maclaurin truncation (terms_a, terms_b) for s = sigma + it at offset alpha.

    terms_a direct power terms precede the boundary point A = terms_a +
    alpha and terms_b Bernoulli corrections follow it; both aim the
    remainder near 2^-bits.  The remainder is enclosed whatever the
    choice, so it sets the width of a result, never its containment.
    """
    b = max(8, (bits + 3) // 4)
    smag = float(fraction_sqrt_upper(sigma**2 + Fraction(t) ** 2))
    sig = float(sigma)
    al = max(float(alpha), 0.0)
    # float estimate of log2 of the remainder as a function of the
    # boundary point A = a + alpha; solve for the smallest adequate a
    num = 1.0 + math.log2(float(zeta_upper(2 * b + 1)))
    for j in range(2 * b + 1):
        num += math.log2(smag + j + 1.0)
    num -= (2 * b + 1) * math.log2(2.0 * math.pi)
    num -= math.log2(sig + 2 * b)
    num += bits + 8
    a_boundary = 2.0 ** (num / (sig + 2 * b))
    a = max(2, math.ceil(a_boundary - al) + 1)
    return a, b


# ---------------------------------------------------------------------------
# the lattice kernel: every row and column at once


def _smallest_prime_factors(top: int) -> np.ndarray:
    """spf[m] is the smallest prime factor of m for 2 <= m <= top."""
    spf = np.arange(top + 1, dtype=np.int64)
    # descending, so the smallest divisor d with d^2 <= m writes m last;
    # that d is prime, and a composite m has one
    for d in range(math.isqrt(top), 1, -1):
        spf[d * d :: d] = d
    return spf


def _sieved_powers(ms: list[int], L: int, sigma: Fraction, ts: list[float], bits: int) -> np.ndarray:
    """Enclosures of (m/L)^{-(sigma + it)} for each integer m >= 1 and each t in ts.

    Shape (len(ts), len(ms), 4): re.lo, re.hi, im.lo, im.hi.  Since
    m -> m^{-s} is completely multiplicative, only primes are
    transcendental: the integers needed are ms closed under
    m -> m/spf(m), each prime p is one ball for p^{-s}, and L^{s} is one
    more, the root B(1) of every cofactor chain.  Each k > 1 on a chain is
    then one exact fixed-point product B(k) = p^{-s} B(k/p) (p = spf(k)),
    which is (k/L)^{-s} itself, made the first time a walk down the
    cofactors of an m in ms reaches it; a power is B(m) narrowed to
    doubles by integer directed rounding.  The walk and each ball's
    integer root and log (balls.modulus) do not depend on t, so they are made
    once for all of ts; each ordinate then turns the balls (balls.turn) and
    multiplies down the same walk.  The balls are trusted at bits plus the
    bit length of the top integer, which bounds the number of factors a
    chain multiplies, so that the radii the products add up stay below
    one ball's at `bits`.
    """
    top = max(ms)
    prec = bits + top.bit_length()
    mul_prec = prec + GUARD  # the midpoint bits of a ball at prec
    spf = _smallest_prime_factors(top)
    # walk down the cofactors m, m/spf(m), ... of each m to one already
    # made, then make the ones above it: B(k) = p^{-s} B(k/p)
    made, walk = {1}, []
    for m in ms:
        chain = []
        while m not in made:
            chain.append(m)
            m //= int(spf[m])
        for k in reversed(chain):
            made.add(k)
            walk.append((k, int(spf[k])))
    root = modulus(Fraction(1, L), sigma, prec)  # B(1) = L^{s}
    primes = {p: modulus(Fraction(p), sigma, prec) for p in dict.fromkeys(p for _, p in walk)}
    out = np.empty((len(ts), len(ms), 4))
    for i, t in enumerate(ts):
        balls = {1: turn(root, t)}
        turned = {p: turn(m, t) for p, m in primes.items()}
        for k, p in walk:
            balls[k] = ball_mul(turned[p], balls[k // p], mul_prec)
        for j, m in enumerate(ms):
            out[i, j] = narrow_ball(balls[m], t == 0.0)
    return out


def _pochhammer(sigma: Fraction, t: float) -> Iterator[tuple[int, int, int]]:
    """(pr, pim, scale) with (s)_j = (pr + i pim) / scale for j = 0, 1, 2, ...

    s = sigma + it.  Exact scaled Gaussian integers, because t is a
    double: with den the common denominator of sigma and t,
    s + j = (x + j den + i y) / den, and scale = den^j.
    """
    T = Fraction(t)
    den = math.lcm(sigma.denominator, T.denominator)
    x, y = sigma.numerator * (den // sigma.denominator), T.numerator * (den // T.denominator)
    pr, pim, scale = 1, 0, 1
    for j in itertools.count():
        yield pr, pim, scale
        xj = x + j * den
        pr, pim, scale = pr * xj - pim * y, pr * y + pim * xj, scale * den


# the relative error, per product, of a cumulative complex128 product of
# exact factors (_em_constants): a naive complex product is within
# sqrt(5) u of the exact product of its operands (Brent, Percival and
# Zimmermann, Math. Comp. 76, 2007), one with FMA within 2u (Jeannerod,
# Kornerup, Louvet and Muller, Math. Comp. 86, 2017); 9/4 is sqrt(5) with
# 0.6% to spare
_PROD_REL = 2.25 * 2.0**-53


@cache
def _tail_constants(b: int, bits: int) -> tuple[IVec, float]:
    """The constants of _em_rows that do not depend on s: B_2k / (2k)! for
    k = 1..b, each rounded outward once, and an upper bound, as a double,
    on 2 zeta(2b+1) / (2 pi)^(2b+1).

    (2 pi)^(2b+1) is bounded below from a lower bound on pi: the low end
    of balls.pi_fixed's ball at bits + GUARD, rounded down to bits bits.
    """
    # pi lies in [2, 4), where one ulp at `bits` is 2^(2 - bits)
    _, pi, rad_pi = pi_fixed(bits + GUARD)
    pi_lo = Fraction((pi - rad_pi) >> (GUARD + 2), 1 << (bits - 2))
    rem = 2 * zeta_upper(2 * b + 1) / (2 * pi_lo) ** (2 * b + 1)
    exact = [bernoulli(2 * k) / math.factorial(2 * k) for k in range(1, b + 1)] + [rem]
    ends = IVec.from_ratios([v.numerator for v in exact], [v.denominator for v in exact])
    return ends[:b], float(ends.hi[b])


def _em_constants(ts: list[float], sigma: Fraction, ncols: int, b: int, bits: int):
    """The constants of _em_rows that depend on s_c = sigma + c + it, for
    each t in ts and column c = 0..ncols, as (inv, coefs, rad): inv the
    CVec of 1/(s_c - 1), shape (len(ts), ncols+1); coefs the CVec of the
    Bernoulli coefficients B_2k/(2k)! (s_c)_{2k-1}, k = 1..b, shape
    (len(ts), ncols+1, b); rad an upper bound on the remainder constant
    2 zeta(2b+1) |(s_c)_{2b+1}| / ((2 pi)^{2b+1} (sigma_c + 2b)), doubles
    of inv's shape.

    1/(s_c - 1), which sets the largest term of each cell, and the k = 1
    coefficient s_c/12 are exact Gaussian rationals, as t is a double,
    each part rounded outward once.  The higher Pochhammer symbols are
    balls: the factors s_c + j = (sigma + c + j) + it, j = 0..2b, are exact
    complex128 numbers (sigma is dyadic, _em_rows), and one np.cumprod
    along j gives every (s_c)_n, n = 1..2b+1, P_n after n - 1 products.
    Each product is within sqrt(5) u of the exact product of its operands
    (_PROD_REL), so P_n is within (1 + sqrt(5) u)^(n-1) - 1 of (s_c)_n
    relatively, and so within (n - 1) 9/4 u |P_n| of it; |P_n| <= |re| +
    |im|.  The 0.6% between 9/4 and sqrt(5) covers the compounding, the
    two roundings of the radius and any underflow inside a product, as
    every |P_n| is at least sigma >= 2^-53.  Each coefficient box is that
    ball rounded outward once, times the cached B_2k/(2k)!
    (_tail_constants); the remainder constant takes the ball's modulus,
    |P_{2b+1}| plus the radius, rounded up.  A product or modulus that
    overflows raises DomainError, so no cell is NaN.
    """
    T, C = len(ts), ncols + 1
    factors = np.empty((T, C, 2 * b + 1), dtype=np.complex128)
    factors.real = float(sigma) + np.add.outer(np.arange(C), np.arange(2 * b + 1))
    factors.imag = np.reshape(ts, (T, 1, 1))
    bern, rem = _tail_constants(b, bits)
    sig2b = float(sigma) + 2 * b + np.arange(C)
    with np.errstate(over="ignore", invalid="ignore"):
        # (s_c)_n for odd n >= 3: n - 1 = 2, 4, ..., 2b products
        poch = np.cumprod(factors, axis=-1)[..., 2::2]
        rad = (np.abs(poch.real) + np.abs(poch.imag)) * (np.arange(2, 2 * b + 1, 2) * _PROD_REL)
        balls = CVec.from_points(poch).pad(rad)
        # |P| = big sqrt(1 + (small/big)^2), which cannot overflow first
        re, im = np.abs(poch.real[..., b - 1]), np.abs(poch.imag[..., b - 1])
        big, small = np.maximum(re, im), np.minimum(re, im)
        mod = ((IVec.from_points(small) / big).square() + 1.0).sqrt() * big + rad[..., b - 1]
        rad_const = ((mod * rem) / sig2b).hi
    bad = ~(np.isfinite(balls.e).all(axis=(0, 1, 3, 4)) & np.isfinite(rad_const).all(axis=1))
    if bad.any():
        raise DomainError(f"(s)_{2 * b + 1} overflows a double at t = {ts[int(np.argmax(bad))]!r}")

    # the exact constants: s_c = (u + c v)/v + i tn/td and, over the common
    # denominator den, s_c - 1 = (X + iY)/den, so 1/(s_c - 1) = den (X - iY)/(X^2 + Y^2)
    u, v = sigma.numerator, sigma.denominator
    inv_re, inv_im, inv_den, tns, tds = [], [], [], [], []
    for t in ts:
        tn, td = t.as_integer_ratio()
        den = math.lcm(v, td)
        Y = tn * (den // td)
        for c in range(C):
            X = (u + (c - 1) * v) * (den // v)
            inv_re.append(X * den)
            inv_im.append(-Y * den)
            inv_den.append(X * X + Y * Y)
        tns.append(tn)
        tds.append(12 * td)
    inv = CVec(IVec.from_ratios(inv_re, inv_den), IVec.from_ratios(inv_im, inv_den)).reshape(T, C)
    # s_c/12: its real part (u + c v)/(12 v) does not depend on t, its
    # imaginary part tn/(12 td) not on c
    first = np.empty((2, 2, T, C, 1))
    first[0] = IVec.from_ratios(u + v * np.arange(C), 12 * v).e[0].reshape(2, 1, C, 1)
    first[1] = IVec.from_ratios(tns, tds).e[0].reshape(2, T, 1, 1)
    coefs = CVec.concatenate([CVec.from_block(first), balls[..., : b - 1] * bern[1:]], axis=2)
    return inv, coefs, rad_const


def _em_rows(
    ts: list[float],
    base_sigma: Fraction,
    alphas: list[Fraction],
    ncols: int,
    a: int,
    b: int,
    bits: int = DEFAULT_BUILD_BITS,
) -> CVec:
    """Enclosures of sum_{n>=0} (n+alpha)^{-(base_sigma+c+it)}, shape (len(ts), rows, ncols+1).

    Axis 0 runs over the ordinates t in ts, row i has alpha = alphas[i] >
    0, column c = 0..ncols shifts the first argument by c.  With one
    truncation (a, b) for all ordinates and rows, A = a + alpha and
    s = s_c = sigma + it, a cell is the direct sum over n < a, plus
    A^{1-s}/(s-1) + A^{-s}/2 + sum_{k<=b} B_2k/(2k)! (s)_{2k-1} A^{1-s-2k},
    padded by the remainder bound
    2 zeta(2b+1) (2 pi)^{-(2b+1)} |(s)_{2b+1}| A^{-sigma-2b} / (sigma+2b),
    valid whenever sigma + 2b > 0.  base_sigma must be a positive dyadic
    rational whose shifts by 0..ncols+2b are doubles (1/2 and 9/8 are),
    and an ordinate whose (s_c)_{2b+1} overflows a double raises
    DomainError.  The only transcendentals that depend on the row, the
    powers (n+alpha)^{-s_0} for n = 0..a (n = a gives A^{-s_0}), come
    from one _sieved_powers call over the integers
    m = (n+alpha) L, L the common denominator of the alphas: a ball per
    prime factor and one for L^{s_0}, exact fixed-point products down
    each chain of cofactors, each power narrowed to hardware once; the
    bases n+alpha = m/L are rounded outward once, all in one numpy pass
    (IVec.from_ratios).  The constants that depend on t alone come from
    _em_constants: 1/(s_c-1) and the first Bernoulli coefficient s_c/12
    are exact Gaussian rationals, each rounded outward once, because
    1/(s_c-1) sets the largest term of each cell; the higher coefficients
    (s_c)_{2k-1} B_2k/(2k)! and the remainder constant are complex128
    balls from one cumulative product per block, with an a priori radius,
    since their few ulps of width scale terms far below the cell.
    Everything else runs on hardware interval arrays with the ordinates on
    the leading axis, so a block of ordinates costs the interval-array
    calls of one: column c scales the column c-1 powers by (n+alpha)^{-1},
    the direct sum adds term by term, the Bernoulli tail is A^{-1-s_c}
    times a Horner sum in A^{-2} (one CVec x IVec product and one addition
    per term), and the remainder radius takes each row's own A.  The
    bases, their reciprocals, A^{-2} and A^{-sigma_c-2b} do not depend on
    t and are made once.  Every operation is elementwise over the
    ordinates, so a cell does not depend on the block it is built in.  At
    t = 0 the values are real and the imaginary parts are set to [0, 0].
    """
    if min(alphas) <= 0:
        raise DomainError("alpha must be strictly positive")
    if a < 0 or b < 1:
        raise DomainError("terms_a must be >= 0 and terms_b >= 1")
    if not np.isfinite(ts).all():
        raise DomainError(f"every ordinate must be finite: {ts}")
    den = base_sigma.denominator
    if base_sigma <= 0 or den & (den - 1) or base_sigma.numerator + (ncols + 2 * b) * den >= 2**53:
        raise DomainError("base_sigma must be positive and dyadic, with shifts by 0..ncols+2b doubles")
    cols = range(ncols + 1)
    if 0.0 in ts and any(base_sigma + c == 1 for c in cols):
        raise PoleProximity("a column coincides with the pole at 1")
    T, R = len(ts), len(alphas)
    inv_sm1, coefs, rad_const = _em_constants(ts, base_sigma, ncols, b, bits)
    inv_sm1 = inv_sm1.reshape(T, 1, ncols + 1)
    coefs = coefs.reshape(T, 1, ncols + 1, b)
    rad_const = rad_const.reshape(T, 1, ncols + 1)
    sig2b = float(base_sigma) + 2 * b + np.arange(ncols + 1)

    # (n + alpha)^{-s_0} and n + alpha on hardware, every base an integer over L
    L = math.lcm(*(alpha.denominator for alpha in alphas))
    ms = [alpha.numerator * (L // alpha.denominator) + n * L for alpha in alphas for n in range(a + 1)]
    ends = np.moveaxis(_sieved_powers(ms, L, base_sigma, ts, bits), -1, 0)
    power = CVec.from_block(ends.reshape(2, 2, T, R, a + 1).copy())
    base = IVec.from_ratios(ms, L).reshape(R, a + 1)
    inv = 1.0 / base

    # column c of every power: one more factor (n + alpha)^{-1} per column
    by_col = [power.reshape(T, R, a + 1, 1)]
    for _ in cols[1:]:
        by_col.append(by_col[-1] * inv.reshape(R, a + 1, 1))
    terms = CVec.concatenate(by_col, axis=3)

    P = terms[:, :, a, :]  # A^{-s_c}
    A = base[:, a].reshape(-1, 1)
    apow = P * A  # A^{1-s_c}
    # each addition widens by a few ulps of its running sum, so the small
    # parts are summed apart and meet the large P A/(s-1) once, at the end
    direct = P * 0.5
    for n in range(a):
        direct = direct + terms[:, :, n, :]
    head = apow * inv_sm1
    invA2 = inv[:, a].square().reshape(-1, 1)
    # the tail A^{-1-s_c} sum_k coefs[..., k] (A^{-2})^k, by Horner in A^{-2}
    poly = coefs[..., b - 1]
    for k in range(b - 2, -1, -1):
        poly = poly * invA2 + coefs[..., k]
    tail = (apow * invA2) * poly
    cell = (direct + tail) + head

    # remainder: rad_const_c A^{-sigma_c-2b} with each row's own A
    rpow = (A.log() * -sig2b).exp()
    cell = cell.pad((rpow * rad_const).hi)
    cell.e[1, :, np.array(ts) == 0.0] = 0.0  # real at t = 0
    return cell


# ---------------------------------------------------------------------------
# the lattice


@dataclass(frozen=True, slots=True)
class HurwitzLattice:
    """Grid of tail values zeta_M(1/2 + it + c, r/D) as one interval array.

    Rows r = 0..D hold the offset r/D (row 0 is 0 and row D is 1);
    columns c = 0..Ncols shift the first argument by integers, with
    Ncols = DEFAULT_NCOLS and M = DEFAULT_M for every lattice.  Each cell
    contains the tail sum_{n>M} (n + r/D)^{-(1/2+it+c)}, which is
    zeta(1/2+it+c, M + 1 + r/D).  rows is the hardware CVec of shape
    (D+1, Ncols+1) that an _em_rows call fills, alone or as one ordinate
    of a block, row r at index r, cell (r, c) at rows[r, c].  Immutable
    once built; queries only read.
    """

    t: float
    D: int
    rows: CVec = field(repr=False)


# the most the default row count lets a Taylor shift amplify cell widths
_MAX_AMPLIFICATION = 16


def lattice_size(t: float) -> int:
    """The default row count D of a lattice at ordinate t.

    A query shifts a row by |delta| <= 1/(2D) through the coefficients
    (s0)_k / k!, s0 = 1/2 + it, so it amplifies the widths of the cells
    it reads by up to sum_{k <= Ncols} |(s0)_k / k!| (2D)^{-k}, about
    e^{|t|/(2D)}; neither that nor the truncated Taylor tail depends on
    the modulus.  D is the smallest power of two >= 2 whose
    amplification, bounded above from the exact _pochhammer values at the
    default column count, is at most _MAX_AMPLIFICATION, capped at
    DEFAULT_D.  It depends on |t| alone, so an ordinate gets the same
    lattice whatever range or modulus it is sampled for.
    """
    K = DEFAULT_NCOLS
    # 2^64 |(s0)_k / k!| rounded up, each an integer square root, as
    # fraction_sqrt_upper gives it; the sum is compared times 2^64 (2D)^K,
    # in integers
    mags = [
        math.isqrt(((pr * pr + pim * pim) << 128) // (scale * math.factorial(k)) ** 2) + 1
        for k, (pr, pim, scale) in enumerate(itertools.islice(_pochhammer(_HALF, float(t)), K + 1))
    ]
    D = 2
    while D < DEFAULT_D:
        acc = 0
        for m in mags:  # sum_k mags[k] (2D)^(K-k), by Horner
            acc = acc * 2 * D + m
        if acc <= (_MAX_AMPLIFICATION << 64) * (2 * D) ** K:
            break
        D *= 2
    return D


def build_lattice(t: float, D: int | None = None, cache_dir: str | Path | None = None) -> HurwitzLattice:
    """Build (or load from cache_dir) the lattice at ordinate t.

    D defaults to lattice_size(t), the fewest rows whose Taylor shifts
    keep a query's width at the height t; an explicit D wins.  Every
    lattice has the one shape DEFAULT_NCOLS, DEFAULT_M and
    DEFAULT_BUILD_BITS.

    auto_params takes the Euler-Maclaurin truncation (a, b) for every row
    from the exact s_0 = 1/2 + it, row 1's offset 1/D + M + 1 and
    DEFAULT_BUILD_BITS (_truncation), and the powers (n + alpha)^{-s_0}
    are trusted to a few ulps at those bits.  Row 0, at offset
    M + 1, reuses that truncation, with a remainder enclosed at its own
    boundary point A (_em_rows): the choice sets a little of row 0's
    width, never its containment.  Choosing at M + 1 instead would raise a
    at some heights (t = 16.125 at D = 4) and move every endpoint of rows
    1..D.  Only the primes up to (M + 2 + a) D, the numerator of the top
    base over D, and D^{s_0} take transcendental kernel calls; every power
    is an exact fixed-point product of those balls, and row 0's bases
    (n + M + 1) D are row D's shifted by one n.  The build works in
    fixed-point balls, Gaussian integers, exact rationals, complex128
    balls and hardware interval arrays, and the returned lattice is
    hardware.  Exact are the powers' balls and 1/(s_c - 1) and s_c/12,
    which set each cell's largest terms; complex128 balls with an a priori
    radius are the higher Bernoulli coefficients and the remainder
    constant, whose width scales only terms far below the cell
    (_em_constants).  With a cache_dir, the lattice is loaded from its
    file there (_cache_path, keyed by (t, D)), or else built and saved
    there; with None no file is read or written, so another process that
    asks for it without a cache_dir builds it again.

    A lattice built here is one ordinate's _em_rows pass; _build_block
    builds a block of ordinates in one pass, cell for cell the same, and
    hands each to the next build_lattice call for its (t, D, cache_dir),
    which then builds nothing and reads nothing from disk.
    """
    t = float(t)
    if D is None:
        D = lattice_size(t)
    if D < 2:
        raise DomainError("need D >= 2")

    lat = _fresh.pop((t, D, cache_dir), None)
    if lat is not None:
        return lat
    if cache_dir is None:
        return _build([t], D)[0]
    path = _cache_path(cache_dir, t, D)
    if path.is_file():
        try:
            return load_lattice(path, expect=(t, D))
        except ValueError:
            pass  # not the requested lattice, or damaged: rebuilt and overwritten
    lat = _build([t], D)[0]
    save_lattice(lat, path)
    return lat


def _truncation(t: float, D: int) -> tuple[int, int]:
    """The truncation (a, b) of every row of the lattice at (t, D), chosen
    at row 1 (see build_lattice)."""
    if D < 2:
        raise DomainError("need D >= 2")
    return auto_params(_HALF, t, Fraction(1, D) + DEFAULT_M + 1, DEFAULT_BUILD_BITS)


def _build(ts: list[float], D: int) -> list[HurwitzLattice]:
    """The lattices at the ordinates ts, which share D and the truncation
    of ts[0], from one _em_rows pass."""
    alphas = [Fraction(r, D) + (DEFAULT_M + 1) for r in range(D + 1)]
    rows = _em_rows(ts, _HALF, alphas, DEFAULT_NCOLS, *_truncation(ts[0], D), DEFAULT_BUILD_BITS)
    # each lattice owns its rows, so a kept one keeps no other's alive
    return [HurwitzLattice(t=t, D=D, rows=rows[i].copy()) for i, t in enumerate(ts)]


# lattices _build_block made that no build_lattice call has returned yet,
# by (t, D, cache_dir); emptied at each block, so it holds one block at most
_fresh: dict[tuple, HurwitzLattice] = {}


def _build_block(ts: list[float], D: int, cache_dir) -> None:
    """Build, in one _em_rows pass, the lattices with D rows at ts; with a
    cache_dir, only those whose file it does not hold, each then saved.

    ts must share the row count D and the truncation (_truncation).  Each
    lattice is kept in memory until build_lattice is asked for it, so the
    caller gets it from build_lattice with no disk read.
    """
    _fresh.clear()
    todo = ts if cache_dir is None else [t for t in ts if not _cache_path(cache_dir, t, D).is_file()]
    if todo:
        for lat in _build(todo, D):
            if cache_dir is not None:
                save_lattice(lat, _cache_path(cache_dir, lat.t, D))
            _fresh[lat.t, D, cache_dir] = lat


def _cache_path(cache_dir, t: float, D: int) -> Path:
    name = f"hurlat_t{t!r}_D{D}_N{DEFAULT_NCOLS}_M{DEFAULT_M}_b{DEFAULT_BUILD_BITS}.dat"
    return Path(cache_dir) / name


# version 4: the endpoint block as raw float64 after a header that names
# the truncation; a file of an earlier version (text) is rebuilt
_MAGIC = "hurwitz-lattice 4"


def save_lattice(lat: HurwitzLattice, path: str | Path) -> None:
    """Write a two-line text header, then the endpoint block of lat.rows.

    The header is _MAGIC, then "t D Ncols M bits a b" in decimal: the
    lattice's (t, D), the shape DEFAULT_NCOLS, DEFAULT_M and
    DEFAULT_BUILD_BITS, and the truncation (a, b) build_lattice takes for
    (t, D).  The block, shape (2, 2, D + 1, Ncols + 1) indexed (re/im,
    lo/hi, row, column), is raw little-endian float64 in C order.  The directory is made if
    missing, and the file is written whole before it replaces the path.
    """
    path = Path(path)
    a, b = _truncation(lat.t, lat.D)
    head = f"{_MAGIC}\n{lat.t!r} {lat.D} {DEFAULT_NCOLS} {DEFAULT_M} {DEFAULT_BUILD_BITS} {a} {b}\n"
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_bytes(head.encode() + lat.rows.e.astype("<f8").tobytes())
    tmp.replace(path)


def load_lattice(path: str | Path, expect: tuple | None = None) -> HurwitzLattice:
    """Read a lattice file written by save_lattice.

    A file whose header names another shape (Ncols, M, build bits) than
    the package's one raises ValueError, and with expect = (t, D) so does
    a file whose header names any other lattice.  So does a file built
    under another truncation than build_lattice takes for its (t, D), a
    malformed file, a body of any other length than the block's, and a
    cell whose endpoints are not ordered lo <= hi (NaN included).
    """
    path = Path(path)
    magic, head, body = (path.read_bytes().split(b"\n", 2) + [b"", b""])[:3]
    if magic != _MAGIC.encode():
        raise ValueError(f"not a lattice file: {path}")
    fields = head.split()
    if len(fields) != 7:
        raise ValueError(f"malformed lattice header in {path}")
    t = float(fields[0])
    D, Ncols, M, bits, a, b = (int(v) for v in fields[1:])
    if (Ncols, M, bits) != (DEFAULT_NCOLS, DEFAULT_M, DEFAULT_BUILD_BITS):
        raise ValueError(f"{path} holds a lattice of shape {(Ncols, M, bits)}, not the package's")
    if D < 2:
        raise ValueError(f"malformed lattice header in {path}")
    if expect is not None and (t, D) != tuple(expect):
        raise ValueError(f"{path} holds lattice {(t, D)}, not {expect}")
    if (a, b) != _truncation(t, D):
        raise ValueError(f"{path} was built under truncation {(a, b)}, not {_truncation(t, D)}")
    shape = (2, 2, D + 1, Ncols + 1)
    if len(body) != 8 * math.prod(shape):
        raise ValueError(f"lattice body in {path} is cut short or malformed")
    e = np.frombuffer(body, dtype="<f8").astype(np.float64).reshape(shape)
    # as IVec(lo, hi): not lo <= hi, so a NaN end is refused too
    with np.errstate(invalid="ignore"):
        if not (e[:, 0] <= e[:, 1]).all():
            raise ValueError(f"lattice body in {path} has a cell with lo > hi or a NaN end")
    return HurwitzLattice(t=t, D=D, rows=CVec.from_block(e))


# ---------------------------------------------------------------------------
# Taylor-shift queries


def taylor_tail_bound(
    s_mag_hi: Fraction,
    delta_abs: Fraction,
    radius: Fraction,
    first_k: int,
) -> tuple[int, int]:
    """Upper bound on sum_{k>=first_k} |delta|^k |(s)_k|/k! |zeta_M(s+k, alpha)|,
    as an integer fraction (num, den), den > 0, not reduced.

    radius is M + 1 + alpha, the decay base of the zeta_M column values;
    s_mag_hi an upper bound on |s| with Re(s) = 1/2.  Uses
    |zeta_M(s+k, alpha)| <= radius^(-1/2-k) (1 + radius/(k - 1/2)) and the
    termwise ratio bound; raises RadiusViolation when the ratio reaches 1.
    With K = first_k the bound is t_K / (1 - ratio), where
    t_K = |delta|^K prod_{j<K} (s_mag_hi + j) / K! radius^(-K)
    (1 + radius/(K - 1/2)) (the extra radius^(-1/2) < 1 is dropped) and
    ratio = |delta| max(1, (s_mag_hi + K)/(K + 1)) / radius.  The
    arguments are nonnegative ints or Fractions (radius positive), and the
    bound is formed in integers over their numerators and denominators,
    with no gcd: the caller rounds it once (IVec.from_ratios).
    """
    K = first_k
    if delta_abs == 0:
        return 0, 1
    sn, sd = s_mag_hi.numerator, s_mag_hi.denominator
    dn, dd = delta_abs.numerator, delta_abs.denominator
    rn, rd = radius.numerator, radius.denominator
    # ratio = F / E
    E = dd * rn * sd * (K + 1)
    F = dn * rd * max(sd * (K + 1), sn + K * sd)
    if F >= E:
        raise RadiusViolation(f"Taylor tail ratio {F / E:.3g} >= 1 at k = {K}")
    poch = 1
    for j in range(K):
        poch *= sn + j * sd
    # t_K = dn^K poch rd^K (rd (2K - 1) + 2 rn) / (dd^K sd^K K! rn^K rd (2K - 1))
    num = (dn * rd) ** K * poch * (rd * (2 * K - 1) + 2 * rn) * E
    den = (dd * sd * rn) ** K * math.factorial(K) * rd * (2 * K - 1) * (E - F)
    return num, den


def _shift_coefs(ts: list[float], n: int) -> CVec:
    """(s0)_k / k! for k = 0..n at s0 = 1/2 + it, for each t in ts, shape (len(ts), n+1).

    Exact Gaussian rationals from _pochhammer, each side rounded outward
    once.
    """
    poch = [p for t in ts for p in itertools.islice(_pochhammer(_HALF, t), n + 1)]
    facts = [math.factorial(k) for k in range(n + 1)] * len(ts)
    dens = [scale * f for (_, _, scale), f in zip(poch, facts)]
    re = IVec.from_ratios([pr for pr, _, _ in poch], dens)
    im = IVec.from_ratios([pim for _, pim, _ in poch], dens)
    return CVec(re, im).reshape(len(ts), n + 1)


# units per block of a unit_hurwitz call: a block's working set is about
# 3.5 KB a unit and ordinate (its (units, Ncols) coefficient, power and
# term arrays and the (M+1, units) head), so a call's memory does not
# grow with phi(q)
_UNIT_BLOCK = 4096


def unit_hurwitz(lats: Sequence[HurwitzLattice], q: int, units: np.ndarray) -> CVec:
    """zeta(1/2 + i lat.t, a/q) for every lattice lat of lats and every a in units.

    lats is a block of lattices of one row count D at one or more
    ordinates; the values, shape (len(lats), len(units)), carry a leading
    axis over the lattices, in order, and cost the interval-array calls
    of one lattice.  Each a/q takes the row r in 0..D nearest to it
    (ties toward the larger r), so |delta| <= 1/(2D) for
    delta = a/q - r/D, shifts that row by delta through Ncols Taylor
    terms, bounds the truncated Taylor tail geometrically, and restores
    the first M+1 direct terms at the exact argument a/q; a unit below
    1/(2D) reads row 0, offset M + 1, the same way as any other.  The work is a fixed number of
    interval-array operations per block of _UNIT_BLOCK units
    (_unit_block); every operation is elementwise over the units and the
    ordinates, so neither kind of block changes an endpoint.  One tail
    bound per ordinate serves the batch: taylor_tail_bound is monotone in
    |delta| and in the reciprocal of the row radius, so the largest
    |delta| and the smallest row bound every unit.  Each a must satisfy
    0 < a < q and gcd(a, q) = 1.
    """
    D = lats[0].D
    if any(x.D != D for x in lats):
        raise ValueError("a block of lattices needs one row count D")
    units = np.asarray(units, dtype=np.int64)
    if not ((0 < units) & (units < q) & (np.gcd(units, q) == 1)).all():
        raise DomainError(f"need 0 < a < q and gcd(a, q) = 1 for every unit mod {q}")
    ts = [x.t for x in lats]
    rows = (2 * units * D + q) // (2 * q)  # 0..D
    neg_num = rows * q - units * D  # -delta = neg_num / (q D)
    d_max = int(np.abs(neg_num).max(initial=0))
    coefs = pad = None
    if d_max:
        coefs = _shift_coefs(ts, DEFAULT_NCOLS)[:, 1:]
        radius = Fraction(int(rows.min()) + (DEFAULT_M + 1) * D, D)
        delta = Fraction(d_max, q * D)
        s_mags = [fraction_sqrt_upper(Fraction(1, 4) + Fraction(t) ** 2) for t in ts]
        tails = [taylor_tail_bound(s_mag, delta, radius, DEFAULT_NCOLS + 1) for s_mag in s_mags]
        pad = IVec.from_ratios(*zip(*tails)).hi.reshape(-1, 1)
    cells = CVec.from_block(np.stack([x.rows.e for x in lats], axis=2))
    blocks = []
    for i in range(0, max(len(units), 1), _UNIT_BLOCK):  # one block if empty
        part = slice(i, i + _UNIT_BLOCK)
        blocks.append(_unit_block(cells, ts, q, units[part], rows[part], neg_num[part], coefs, pad))
    return blocks[0] if len(blocks) == 1 else CVec.concatenate(blocks, axis=1)


def _unit_block(
    lattices: CVec,
    ts: list[float],
    q: int,
    units: np.ndarray,
    rows: np.ndarray,
    neg_num: np.ndarray,
    coefs: CVec | None,
    pad: np.ndarray | None,
) -> CVec:
    """unit_hurwitz for one block of units, rows r and shifts -delta =
    neg_num / (qD), against the stacked lattices (ordinates, D+1, Ncols+1)
    at the ordinates ts.

    -delta is rounded outward once, its powers (-delta)^k come from a
    doubling table, the coefficients are coefs = (s0)_k / k! (k = 1..Ncols,
    _shift_coefs, one row per ordinate; None when no unit of the call is
    shifted) times those powers, all Ncols columns are multiplied in one
    CVec product, and the head (n + a/q)^(-s), n <= M, is one
    (M+1, units) log, its modulus exp(-log/2) and a cos and sin of the
    phase -t log per ordinate.  The Taylor terms are summed from k = Ncols
    down, smallest first, and added to the cell once; then come the tail
    pad, one per ordinate, and the head terms in order of n.  Every unit
    takes the same path, whichever row it reads.  The powers of -delta,
    the log and the modulus do not depend on t and are made once.
    """
    D, Ncols = lattices.shape[1] - 1, lattices.shape[2] - 1
    cells = lattices[:, rows]
    acc = cells[:, :, 0]
    if coefs is not None:
        # (-delta)^k for k = 1..2^(j+1) from k = 1..2^j and (-delta)^(2^j)
        pw = IVec.from_ratios(neg_num, q * D).reshape(-1, 1)
        while pw.shape[1] < Ncols:
            pw = IVec.concatenate([pw, pw * pw[:, -1:]], axis=1)
        terms = (coefs.reshape(len(ts), 1, Ncols) * pw[:, :Ncols]) * cells[:, :, 1:]
        shift = terms[:, :, Ncols - 1]
        for k in range(Ncols - 2, -1, -1):
            shift = shift + terms[:, :, k]
        acc = (acc + shift).pad(pad)

    # restore the removed head sum_{n<=M} (n + a/q)^(-s) at the exact argument
    lg = IVec.from_ratios(units + q * np.arange(DEFAULT_M + 1).reshape(-1, 1), q).log()
    phase = lg * -np.array(ts).reshape(-1, 1, 1)
    head = CVec(phase.cos(), phase.sin()) * (lg * -0.5).exp()
    for n in range(DEFAULT_M + 1):
        acc = acc + head[:, n]
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
