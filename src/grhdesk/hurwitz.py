"""Rigorous Hurwitz zeta evaluation.

Two stages, the build and the query, on one Euler-Maclaurin kernel
(_em_rows) and one power kernel (_ball):

* ``build_lattice`` — a precomputed grid of tail values
  zeta_M(1/2 + it + c, r/D), r = 0..D, along one horizontal line, built
  for all rows at once on hardware interval arrays, kept as one
  (D+1, Ncols+1) interval array, on disk only in a given cache_dir.  Its only
  big-float work is the powers (n + alpha)^{-s}.  Every base is an
  integer m over D and m -> m^{-s} is completely multiplicative, so only
  primes are transcendental: each prime p^{-s}, and D^{s}, is an integer
  fixed-point ball whose modulus is an exact integer root and whose
  phase takes one log and one cos_sin kernel call, trusted to a few
  ulps; every base (m/D)^{-s} is then an exact Gaussian-integer
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

The samplers' other Hurwitz-type constants come from the same kernels:
zeta(9/8) is one _em_rows cell, and q^(-s) one _power_ball.  The ball
kernels also serve Gamma: log_gamma is Stirling's series in the same
integer fixed point, at exact rational points, with one mpf_log and one
mpf_atan2 for w and one of each for the shift product, and
_gamma_factor exponentiates it into the completion's archimedean factor
with one _exp_ball (one mpf_exp and one mpf_cos_sin).  The small-q
sampler's point values are balls of the same kind, at the same
precision _GAMMA_BITS: its theta terms, prefactors and recovery factors
are _exp_ball calls on exact multiples of pi (_pi_ball) and log pi
(_log_pi), composed by _ball_mul, _ball_scale and _ball_sum.  The
kernels' exact Bernoulli numbers are bernoulli's.  The scalar
Euler-Maclaurin evaluation the kernels are tested against, one value at
a time, is the oracle in tests/em_oracle.py.

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
from mpmath.libmp import (
    bernfrac,
    from_float,
    from_int,
    from_man_exp,
    from_rational,
    mpf_atan2,
    mpf_cos_sin,
    mpf_div,
    mpf_exp,
    mpf_log,
    mpf_mul,
    mpf_neg,
    mpf_pi,
    mpf_shift,
    to_float,
    to_int,
)

from .errors import DomainError, NonPositiveRealPart, PoleProximity, RadiusViolation
from .interval import _narrow
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

# The big-float kernels (mpmath.libmp's log, atan2, exp, cos_sin and pi)
# run with _GUARD bits above the precision they serve, and each result is
# trusted to _BIG_TRANS_ULPS ulps at that precision
_GUARD = 32
_BIG_TRANS_ULPS = 2

_HALF = Fraction(1, 2)


@cache
def bernoulli(n: int) -> Fraction:
    """Exact Bernoulli number B_n."""
    p, q = bernfrac(n)
    return Fraction(int(p), int(q))


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


# a fixed-point ball (X, Y, R, e): a value within R 2^e of (X + iY) 2^e
_Ball = tuple[int, int, int, int]


def _ball(x: Fraction, sigma: Fraction, t: float, bits: int) -> _Ball:
    """Enclosure of x^{-(sigma + it)} for x > 0 as a fixed-point ball (X, Y, R, e).

    The value lies within R 2^e of (X + iY) 2^e: a disc of integer radius
    on Gaussian-integer midpoints, built in integer fixed point at
    prec = bits + _GUARD.  For x = n/d and sigma = u/v the modulus
    x^{-sigma} is the integer v-th root of d^u 2^{vF} / n^u (math.isqrt
    at v = 2), exact to one unit of 2^-F.  The phase -t log x is the exact
    product of the double t and one mpf_log, and feeds one mpf_cos_sin;
    each kernel result is trusted to _BIG_TRANS_ULPS ulps at `bits`.  The
    integer radius carries the rounding of x into the log, the trust of
    both kernels, the truncations to integers, and (|t| + |sigma|)
    rad(log): |t| rad(log) into the phase, which moves e^{i phase} by no
    more along the unit circle, and |sigma| rad(log) into the modulus.
    The integer root needs no such term, but with it the ball keeps the
    contract of the form exp(-s log x): it holds exp(-s l) for l at
    log x -+ the log kernel's trust, a few ulps at `bits`.  The midpoint
    is truncated to prec bits.

    The root and the log do not depend on t: _modulus makes them once and
    _turn each ordinate's ball from them, so a block of ordinates pays one
    root and one mpf_log per base.
    """
    return _turn(_modulus(x, sigma, bits), t)


# the t-free part of a _ball: (mod, F, log, its radius in units of
# 2^-prec, |sigma| as u / v, bits)
_Modulus = tuple[int, int, tuple, int, int, int, int]


def _modulus(x: Fraction, sigma: Fraction, bits: int) -> _Modulus:
    """The integer root mod = floor(2^F x^{-sigma}) and mpf_log(x) of _ball."""
    prec = bits + _GUARD
    n, d = x.numerator, x.denominator
    u, v = sigma.numerator, sigma.denominator
    top, bot = (d, n) if u >= 0 else (n, d)
    u = abs(u)
    # x^{-sigma} = (top/bot)^{u/v} >= 2^{u (bits(top) - bits(bot) - 1)/v},
    # so the root floor(2^F x^{-sigma}) has at least prec bits
    F = prec - u * (top.bit_length() - bot.bit_length() - 1) // v
    num, den = top**u, bot**u
    if F >= 0:
        num <<= v * F
    else:
        den <<= -v * F
    mod = _iroot(num // den, v)  # 2^F x^{-sigma} lies in [mod, mod + 1)

    # units of 2^-prec below: |log x~ - log x| <= 2 for the rounding of x
    lg = mpf_log(from_rational(n, d, prec, "n"), prec, "n")
    return mod, F, lg, _trust_units(lg, bits, prec) + 2, u, v, bits


def _turn(m: _Modulus, t: float) -> _Ball:
    """The _ball at ordinate t from its t-free part m = _modulus(x, sigma, bits)."""
    mod, F, lg, rad_lg, u, v, bits = m
    prec = bits + _GUARD
    tn, td = abs(t).as_integer_ratio()
    # (|t| + |sigma|) rad(log), |sigma| = u / v
    rad_s = -(-(tn * v + u * td) * rad_lg // (td * v))
    c, s = mpf_cos_sin(mpf_neg(mpf_mul(from_float(t), lg)), prec, "n")
    C, S = _to_fixed(c, -prec), _to_fixed(s, -prec)
    X, Y = mod * C, mod * S
    # the exact value is (mod + f) e^{i th} with 0 <= f < 1 and |th - th~|
    # <= |t| rad(log); e^{i th} moves by at most |th - th~| on the unit
    # circle, and C + iS is within trust + 1 of e^{i th~} in each part
    rad_unit = rad_s + _trust_units(c, bits, prec) + _trust_units(s, bits, prec) + 2
    R = mod * rad_unit + (1 << prec)
    # cos^2 + sin^2 = 1 and mod >= 2^prec, so k > 0; each shift moves its
    # part by less than one unit of 2^k
    k = max(abs(X), abs(Y)).bit_length() - prec
    return X >> k, Y >> k, (R >> k) + 3, k - F - prec


def _trust_units(v, bits: int, prec: int) -> int:
    """_BIG_TRANS_ULPS ulps at `bits` of a raw mpf, in units of 2^-prec, rounded up.

    The ulp comes from the mpf's own exponent: 2^(exponent + bit length
    - bits), or 2^(-5 bits) for an exact zero.
    """
    e = (v[2] + v[3] if v[1] else -4 * bits) - bits + prec
    return _BIG_TRANS_ULPS << e if e >= 0 else -(-_BIG_TRANS_ULPS >> -e)


def _iroot(N: int, v: int) -> int:
    """floor(N^(1/v)) for integers N >= 0 and v >= 1."""
    if v == 2:
        return math.isqrt(N)
    if v == 1 or N < 2:
        return N
    r = 1 << -(-N.bit_length() // v)  # >= N^(1/v); Newton descends to the floor
    while True:
        s = ((v - 1) * r + N // r ** (v - 1)) // v
        if s >= r:
            return r
        r = s


def _to_fixed(v, e: int) -> int:
    """A raw finite mpf as an integer multiple of 2^e, truncated toward zero."""
    sign, man, exp, _ = v
    n = man << (exp - e) if exp >= e else man >> (e - exp)
    return -n if sign else n


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


def _ball_sum(balls: list[_Ball]) -> _Ball:
    """The sum of fixed-point balls at their largest exponent; the empty
    sum is exactly 0."""
    X = Y = R = 0
    e = max((b[3] for b in balls), default=0)
    for x, y, r, eb in balls:
        s = e - eb
        # a floor shift moves each part by less than one unit of 2^e
        X, Y, R = X + (x >> s), Y + (y >> s), R - (-r >> s) + (2 if s else 0)
    return X, Y, R, e


def _ball_scale(z: _Ball, num: int, den: int, prec: int) -> _Ball:
    """z num / den for integers num and den > 0, at the fixed scale 2^-prec."""
    X, Y, R, e = z
    s = e + prec
    if s >= 0:
        num <<= s
    else:
        den <<= -s
    # each floor moves its part by less than one unit
    return X * num // den, Y * num // den, -(-R * abs(num) // den) + 2, -prec


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


def _exp_ball(z: _Ball) -> _Ball:
    """e^z for a fixed-point ball z = (X, Y, R, -prec), as a ball with a
    prec-bit midpoint; DomainError if R > 2^(prec - 2).

    One mpf_exp of the real part gives the modulus and one mpf_cos_sin of
    the imaginary part the phase, each trusted to _BIG_TRANS_ULPS ulps
    at prec - _GUARD bits.
    """
    X, Y, R, e = z
    prec = -e
    bits = prec - _GUARD
    if R > 1 << (prec - 2):
        raise DomainError(f"ball of radius {R} x 2^{e} too wide to exponentiate")
    # the modulus e^{X~ + delta}, |delta| <= R units <= 1/4, is within
    # (2R (1 + 2^-_GUARD) + trust + 1) units of 2^-prec of mpf_exp's E,
    # relative to E, as e^delta - 1 <= 2 |delta| there; the phase as in _turn
    _, man, exp, _ = mpf_exp(from_man_exp(X, e), prec, "n")
    rel = 2 * R + (R >> _GUARD) + (_BIG_TRANS_ULPS << (_GUARD + 1)) + 1
    c, s = mpf_cos_sin(from_man_exp(Y, e), prec, "n")
    C, S = _to_fixed(c, -prec), _to_fixed(s, -prec)
    rad_unit = R + _trust_units(c, bits, prec) + _trust_units(s, bits, prec) + 2
    Xo, Yo, Ro = man * C, man * S, man * (rel + rad_unit)
    k = max(max(abs(Xo), abs(Yo)).bit_length() - prec, 0)
    return Xo >> k, Yo >> k, (Ro >> k) + 3, exp - prec + k


def _power_ball(x: Fraction, sigma: Fraction, t: float, bits: int) -> tuple[float, float, float, float]:
    """Enclosure of x^{-(sigma + it)} for x > 0 as (re.lo, re.hi, im.lo, im.hi) doubles.

    One _ball at `bits`, narrowed: the sampler's q^(-s)
    (sampler_largeq.q_pow), and the single-power form of the lattice
    powers, against which the sieve (_sieved_powers) is tested.
    """
    return _narrow_ball(_ball(x, sigma, t, bits), t == 0.0)


# ---------------------------------------------------------------------------
# log Gamma on the same balls


# every point ball (log_gamma's, the completion's, q^(-s) and small q's
# values) is trusted at _GAMMA_BITS, in fixed point at 2^-_GAMMA_PREC:
# 43 bits past a double, so a value made from them narrows to doubles a
# few ulps wide
_GAMMA_BITS = 96
_GAMMA_PREC = _GAMMA_BITS + _GUARD
# the Stirling remainder is held below 2^-_STIRLING_GOAL_BITS, 12 bits
# below one ulp of 1: it moves e^(log Gamma), narrowed to doubles, by
# 1/2048 of an ulp at most
_STIRLING_GOAL_BITS = 64
# the most Stirling terms log_gamma sums: at the goal, 12 terms serve
# |w| >= 11.5, and log_gamma shifts a smaller argument right to there
_STIRLING_CAP = 12


@cache
def _pi_fixed(prec: int) -> tuple[tuple, int, int]:
    """pi as (the raw mpf, its midpoint at 2^-prec, radius), trusted at
    prec - _GUARD bits: the one pi of log_gamma and _gamma_factor."""
    pi = mpf_pi(prec, "n")
    return pi, _to_fixed(pi, -prec), _trust_units(pi, prec - _GUARD, prec) + 1


def _pi_ball(re, im) -> _Ball:
    """pi (re + i im) for exact rationals re and im (ints, doubles or
    Fractions) as a fixed-point ball at 2^-_GAMMA_PREC."""
    _, pi, rad_pi = _pi_fixed(_GAMMA_PREC)
    a, b = re.as_integer_ratio()
    c, d = im.as_integer_ratio()
    # each floor moves its part by less than one unit
    R = -(-abs(a) * rad_pi // b) - (-abs(c) * rad_pi // d) + 2
    return a * pi // b, c * pi // d, R, -_GAMMA_PREC


@cache
def _log_pi() -> tuple[int, int]:
    """log pi at the scale 2^-_GAMMA_PREC as (midpoint, radius): one mpf_log
    of _pi_fixed's pi."""
    prec = _GAMMA_PREC
    pi, _, rad_pi = _pi_fixed(prec)
    lg = mpf_log(pi, prec, "n")
    # |log pi~ - log pi| <= |pi~ - pi| / pi, below rad_pi units
    return _to_fixed(lg, -prec), _trust_units(lg, _GAMMA_BITS, prec) + rad_pi + 1


@cache
def _stirling_table(goal_bits: int):
    """log_gamma's constants, in fixed point at 2^-_GAMMA_PREC.

    (the coefficients B_2k / (2k (2k-1)), k = 1.._STIRLING_CAP, each
    truncated toward -infinity; the exact remainder constants
    |B_{2K+2}| 2^{K+1} / ((2K+2)(2K+1)) as (numerator, denominator); the
    float |w| from which K terms meet the goal 2^-goal_bits;
    log(2 pi)/2 as (midpoint, radius)).
    """
    prec = _GAMMA_PREC
    coefs = []
    for k in range(1, _STIRLING_CAP + 1):
        c = bernoulli(2 * k) / ((2 * k) * (2 * k - 1))
        coefs.append((c.numerator << prec) // c.denominator)
    rems = [
        abs(bernoulli(2 * K + 2)) * 2 ** (K + 1) / ((2 * K + 2) * (2 * K + 1))
        for K in range(1, _STIRLING_CAP + 1)
    ]
    reach = [
        2.0 ** ((math.log2(c.numerator) - math.log2(c.denominator) + goal_bits) / (2 * K + 1))
        for K, c in enumerate(rems, start=1)
    ]
    pi, _, rad_pi = _pi_fixed(prec)
    # |log(2 pi~) - log(2 pi)| <= |pi~ - pi| / pi
    half_log = mpf_shift(mpf_log(mpf_shift(pi, 1), prec, "n"), -1)
    rad_log = _trust_units(half_log, _GAMMA_BITS, prec) + rad_pi + 1
    return coefs, [c.as_integer_ratio() for c in rems], reach, (_to_fixed(half_log, -prec), rad_log)


def _stirling_plan(x: float, y: float, reach: list[float]) -> tuple[int, int]:
    """The fewest shifts n, then the fewest terms K, whose Stirling
    remainder at w = x + n + iy meets log_gamma's goal.

    reach[K - 1] is the float |w| from which K terms do (_stirling_table).
    The choice is by floats; the bound that pads the sum is exact.
    """
    r_min = min(reach)
    n = 0
    if math.hypot(x, y) < r_min:
        n = max(0, math.ceil(math.sqrt(r_min * r_min - y * y) - x))
        while math.hypot(x + n, y) < r_min:
            n += 1
    r = math.hypot(x + n, y)
    return n, next(K for K, reach_K in enumerate(reach, start=1) if reach_K <= r)


# a ball (X, Y, R) at the fixed scale 2^-prec: within R 2^-prec of (X + iY) 2^-prec
_Fixed = tuple[int, int, int]


def _fixed_mul(u: _Fixed, v: _Fixed, prec: int) -> _Fixed:
    """Product of two balls at the scale 2^-prec, as _ball_mul bounds it."""
    X1, Y1, R1 = u
    X2, Y2, R2 = v
    R = _mid_mag(X1, Y1) * R2 + _mid_mag(X2, Y2) * R1 + R1 * R2
    # each floor shift moves its part by less than one unit
    return (X1 * X2 - Y1 * Y2) >> prec, (X1 * Y2 + Y1 * X2) >> prec, (R >> prec) + 3


def _half_log_fixed(n: int, d: int) -> tuple[int, int]:
    """log(n/d)/2 for integers n, d > 0 at the scale 2^-_GAMMA_PREC, as
    (midpoint, radius): one mpf_log of n/d rounded to the kernel precision."""
    prec = _GAMMA_PREC
    lg = mpf_shift(mpf_log(from_rational(n, d, prec, "n"), prec, "n"), -1)
    # n/d rounds by half an ulp, so its log moves by at most one unit
    return _to_fixed(lg, -prec), _trust_units(lg, _GAMMA_BITS, prec) + 2


def _atan2_fixed(y: int, x: int) -> tuple[int, int, tuple]:
    """arg(x + iy) for integers, not both 0, at the scale 2^-_GAMMA_PREC,
    as (midpoint, radius, the raw mpf): one mpf_atan2 of the exact integers."""
    prec = _GAMMA_PREC
    arg = mpf_atan2(from_int(y), from_int(x), prec, "n")
    return _to_fixed(arg, -prec), _trust_units(arg, _GAMMA_BITS, prec) + 1, arg


def log_gamma(x, y) -> _Ball:
    """Principal log Gamma(x + iy) for exact rationals x > 0 and y, as a
    fixed-point ball (X, Y, R, -_GAMMA_PREC).

    x and y are ints, finite doubles or Fractions, taken exactly.
    Stirling's series at w = z + n,
    (w - 1/2) log w - w + log(2 pi)/2 + sum_{k<=K} B_2k / (2k (2k-1)) w^{1-2k},
    has remainder |R_K| <= |B_{2K+2}| / ((2K+2)(2K+1)) sec(arg w / 2)^{2K+2}
    / |w|^{2K+1}, and sec(arg w / 2)^{2K+2} <= 2^{K+1} while Re w > 0.  n
    and K are the fewest shifts, then terms up to _STIRLING_CAP, whose
    bound is at most 2^-_STIRLING_GOAL_BITS (_stirling_plan),
    and log Gamma(z) = log Gamma(w) - log prod_{j<n} (z + j).

    With z = (a + ib)/d over integers, the shift product is one exact
    Gaussian integer over d^n: its log is one mpf_log of its squared
    modulus and one mpf_atan2, on the branch that the float sum of the n
    factors' atans picks (each lies in (-pi/2, pi/2), so the float sum is
    within far less than pi of the exact one).  log w is one more mpf_log
    and mpf_atan2.  The rest is integer fixed point at 2^-_GAMMA_PREC:
    w and 1/w truncated, the Horner sum in 1/w^2 on Gaussian integers,
    each step a _fixed_mul plus a coefficient B_2k / (2k (2k-1)) that is
    truncated once, and the exact remainder bound at the integer lower
    bound isqrt(|w|^2 d^2) on |w| d, rounded up into the radius.  Each
    mpmath kernel result is trusted to _BIG_TRANS_ULPS ulps at
    _GAMMA_BITS, as in _turn.  No Fraction is made past the inputs.
    """
    if any(isinstance(v, float) and not math.isfinite(v) for v in (x, y)):
        raise NonPositiveRealPart(f"log_gamma at {x} + {y}i, not a finite point")
    xn, xd = x.as_integer_ratio()
    yn, yd = y.as_integer_ratio()
    if xn <= 0:
        raise NonPositiveRealPart(f"log_gamma at {x} + {y}i")
    prec = _GAMMA_PREC
    coefs, rems, reach, (half_log, rad_half_log) = _stirling_table(_STIRLING_GOAL_BITS)
    d = math.lcm(xd, yd)
    a, b = xn * (d // xd), yn * (d // yd)  # z = (a + ib) / d
    n, K = _stirling_plan(a / d, b / d, reach)

    # the shift product (a + jd + ib), j < n, and the float sum of its args
    pr, pim, args = 1, 0, 0.0
    for j in range(n):
        u = a + j * d
        pr, pim = pr * u - pim * b, pr * b + pim * u
        args += math.atan2(b, u)
    g = a + n * d  # w = (g + ib) / d
    norm = g * g + b * b

    # (w - 1/2) log w - w + log(2 pi)/2, w within 2 of W
    lw_re, rad_lw_re = _half_log_fixed(norm, d * d)
    lw_im, rad_lw_im, _ = _atan2_fixed(b, g)
    W = ((g << prec) // d, (b << prec) // d, 2)
    main = _fixed_mul((W[0] - (1 << (prec - 1)), W[1], 2), (lw_re, lw_im, rad_lw_re + rad_lw_im), prec)
    X, Y, R = main[0] - W[0] + half_log, main[1] - W[1], main[2] + W[2] + rad_half_log

    # (1/w) sum_k coefs[k] (1/w^2)^k by Horner, 1/w = d (g - ib) / |g + ib|^2
    inv = ((d * g << prec) // norm, (-d * b << prec) // norm, 2)
    inv2 = _fixed_mul(inv, inv, prec)
    acc = (coefs[K - 1], 0, 1)
    for c in reversed(coefs[: K - 1]):
        # acc / w^2 + c, with one more unit for c's truncation
        Ar, Ai, Ra = _fixed_mul(acc, inv2, prec)
        acc = (Ar + c, Ai, Ra + 1)
    P, Q, S = _fixed_mul(acc, inv, prec)
    X, Y, R = X + P, Y + Q, R + S

    # the remainder, at |w|^{2K+1} >= norm^K isqrt(norm) / d^{2K+1}
    num, den = rems[K - 1]
    R += -(-(num << prec) * d ** (2 * K + 1) // (den * norm**K * math.isqrt(norm)))

    if n:
        _, pi, rad_pi = _pi_fixed(prec)
        lp_re, rad_lp_re = _half_log_fixed(pr * pr + pim * pim, d ** (2 * n))
        lp_im, rad_lp_im, arg = _atan2_fixed(pim, pr)
        turns = round((args - to_float(arg)) / (2 * math.pi))
        X -= lp_re
        Y -= lp_im + 2 * turns * pi
        R += rad_lp_re + rad_lp_im + 2 * abs(turns) * rad_pi
    return X, Y, R, -prec


def _gamma_factor(lg: _Ball, y, q: int) -> tuple[float, float, float, float]:
    """Gamma(x + iy) e^{pi |y| / 2} (q/pi)^{iy} from lg = log_gamma(x, y),
    as (re.lo, re.hi, im.lo, im.hi) doubles.

    The exponent lg + pi |y| / 2 + i y log(q/pi) is summed in lg's fixed
    point, with one pi (_pi_fixed) and one mpf_log of q/pi; then one
    _exp_ball, narrowed to doubles once.  A real factor (y = 0) gets the
    imaginary sides [0, 0].
    """
    X, Y, R, e = lg
    prec = -e
    bits = prec - _GUARD
    pi_mpf, pi, rad_pi = _pi_fixed(prec)
    yn, yd = y.as_integer_ratio()
    # pi |y| / 2 and y log(q / pi~), with |log(q/pi~) - log(q/pi)| <= |pi~ - pi| / pi
    X += abs(yn) * pi // (2 * yd)
    lq = mpf_log(mpf_div(from_int(q), pi_mpf, prec, "n"), prec, "n")
    rad_lq = _trust_units(lq, bits, prec) + rad_pi + 2
    Y += yn * _to_fixed(lq, -prec) // yd
    R += -(-abs(yn) * (rad_pi + 2 * rad_lq) // (2 * yd)) + 2
    return _narrow_ball(_exp_ball((X, Y, R, e)), yn == 0)


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
    m -> m/spf(m), each prime p is one _ball for p^{-s}, and L^{s} is one
    more, the root B(1) of every cofactor chain.  Each k > 1 on a chain is
    then one exact fixed-point product B(k) = p^{-s} B(k/p) (p = spf(k)),
    which is (k/L)^{-s} itself, made the first time a walk down the
    cofactors of an m in ms reaches it; a power is B(m) narrowed to
    doubles by integer directed rounding.  The walk and each ball's
    integer root and log (_modulus) do not depend on t, so they are made
    once for all of ts; each ordinate then turns the balls (_turn) and
    multiplies down the same walk.  The balls are trusted at bits plus the
    bit length of the top integer, which bounds the number of factors a
    chain multiplies, so that the radii the products add up stay below
    one ball's at `bits`.
    """
    top = max(ms)
    prec = bits + top.bit_length()
    mul_prec = prec + _GUARD  # the midpoint bits of a _ball at prec
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
    root = _modulus(Fraction(1, L), sigma, prec)  # B(1) = L^{s}
    primes = {p: _modulus(Fraction(p), sigma, prec) for p in dict.fromkeys(p for _, p in walk)}
    out = np.empty((len(ts), len(ms), 4))
    for i, t in enumerate(ts):
        balls = {1: _turn(root, t)}
        turned = {p: _turn(m, t) for p, m in primes.items()}
        for k, p in walk:
            balls[k] = _ball_mul(turned[p], balls[k // p], mul_prec)
        for j, m in enumerate(ms):
            out[i, j] = _narrow_ball(balls[m], t == 0.0)
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

    (2 pi)^(2b+1) is bounded below from a lower bound on pi: mpf_pi at
    bits + _GUARD rounded down to bits bits, less one ulp.
    """
    # pi lies in [2, 4), where one ulp at `bits` is 2^(2 - bits)
    pi_lo = Fraction(to_int(mpf_shift(mpf_pi(bits + _GUARD, "f"), bits - 2), "f") - 1, 1 << (bits - 2))
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
