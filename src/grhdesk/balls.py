"""The exact kernel: integer fixed-point balls, rounded to doubles once.

Every big-float value the package certifies is made here, from a few
mpmath.libmp kernel calls, as a fixed-point ball (X, Y, R, e): a value
within R 2^e of (X + iY) 2^e.  Each kernel runs GUARD bits above the
precision it serves and is trusted to _BIG_TRANS_ULPS ulps there; every
other step is exact integer arithmetic whose truncations the radius
carries.  Here are the powers x^{-s} (ball, split into modulus and
turn), ball products, sums, scalings and exponentials, pi and log pi,
the roots of unity of the Gauss sums and DFT tables, log Gamma and the
completion's Gamma factor, and the outward rounding of a ball
(narrow_ball), a Gauss-sum quotient (fixed_quotient) or an exact
rational (ratio_ends, behind IVec.from_ratios) to doubles.  Values come
out as ints, raw mpfs or (re.lo, re.hi, im.lo, im.hi) doubles, never
interval arrays: the module imports nothing from the package but its
errors, and its callers wrap the doubles.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from functools import cache

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

from .errors import DomainError, NonPositiveRealPart

# The big-float kernels (mpmath.libmp's log, atan2, exp, cos_sin and pi)
# run with GUARD bits above the precision they serve, and each result is
# trusted to _BIG_TRANS_ULPS ulps at that precision
GUARD = 32
_BIG_TRANS_ULPS = 2

# every point ball (log_gamma's, the completion's, q^(-s) and small q's
# values) is trusted at GAMMA_BITS, in fixed point at 2^-GAMMA_PREC:
# 43 bits past a double, so a value made from them narrows to doubles a
# few ulps wide
GAMMA_BITS = 96
GAMMA_PREC = GAMMA_BITS + GUARD


# ---------------------------------------------------------------------------
# reading kernel results


def _trust_units(v, prec: int) -> int:
    """_BIG_TRANS_ULPS ulps at bits = prec - GUARD of a raw mpf, in units of
    2^-prec, rounded up: an ulp is 2^(exponent + bit length - bits), or
    2^(-5 bits) for an exact zero."""
    bits = prec - GUARD
    e = (v[2] + v[3] if v[1] else -4 * bits) - bits + prec
    return _BIG_TRANS_ULPS << e if e >= 0 else -(-_BIG_TRANS_ULPS >> -e)


def _to_fixed(v, e: int) -> int:
    """A raw finite mpf as an integer multiple of 2^e, truncated toward zero."""
    sign, man, exp, _ = v
    n = man << (exp - e) if exp >= e else man >> (e - exp)
    return -n if sign else n


def _mid_rad(v, prec: int, units: int) -> tuple[int, int]:
    """A kernel result v at the scale 2^-prec as (midpoint, radius): the
    midpoint truncated toward zero, the radius its trust plus `units`
    more, for the truncation and whatever the caller's input adds."""
    return _to_fixed(v, -prec), _trust_units(v, prec) + units


def _cos_sin(x, prec: int) -> tuple[int, int, int]:
    """cos x and sin x for a raw mpf x at the scale 2^-prec, as (C, S, the
    sum of their trusts): one mpf_cos_sin."""
    c, s = mpf_cos_sin(x, prec, "n")
    (C, rad_c), (S, rad_s) = _mid_rad(c, prec, 0), _mid_rad(s, prec, 0)
    return C, S, rad_c + rad_s


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


# ---------------------------------------------------------------------------
# balls


# a fixed-point ball (X, Y, R, e): a value within R 2^e of (X + iY) 2^e
_Ball = tuple[int, int, int, int]


def ball(x: Fraction, sigma: Fraction, t: float, bits: int) -> _Ball:
    """Enclosure of x^{-(sigma + it)} for x > 0 as a fixed-point ball (X, Y, R, e).

    Built in integer fixed point at prec = bits + GUARD.  For x = n/d and
    sigma = u/v the modulus x^{-sigma} is the integer v-th root of
    d^u 2^{vF} / n^u (math.isqrt at v = 2), exact to one unit of 2^-F.
    The phase -t log x is the exact product of the double t and one
    mpf_log, and feeds one mpf_cos_sin.  The integer radius carries the
    rounding of x into the log, the trust of both kernels, the
    truncations to integers, and (|t| + |sigma|) rad(log): |t| rad(log)
    into the phase, which moves e^{i phase} by no more along the unit
    circle, and |sigma| rad(log) into the modulus, so the ball holds
    exp(-s l) for l at log x -+ the log kernel's trust.  The midpoint is
    truncated to prec bits.  The root and the log do not depend on t:
    modulus makes them once and turn each ordinate's ball from them, so a
    block of ordinates pays one root and one mpf_log per base.
    """
    return turn(modulus(x, sigma, bits), t)


# the t-free part of a ball: (mod, F, log, its radius in units of
# 2^-prec, |sigma| as u / v, prec)
_Modulus = tuple[int, int, tuple, int, int, int, int]


def modulus(x: Fraction, sigma: Fraction, bits: int) -> _Modulus:
    """The integer root mod = floor(2^F x^{-sigma}) and mpf_log(x) of ball."""
    prec = bits + GUARD
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
    return mod, F, lg, _trust_units(lg, prec) + 2, u, v, prec


def turn(m: _Modulus, t: float) -> _Ball:
    """The ball at ordinate t from its t-free part m = modulus(x, sigma, bits)."""
    mod, F, lg, rad_lg, u, v, prec = m
    tn, td = abs(t).as_integer_ratio()
    # (|t| + |sigma|) rad(log), |sigma| = u / v
    rad_s = -(-(tn * v + u * td) * rad_lg // (td * v))
    C, S, rad_cs = _cos_sin(mpf_neg(mpf_mul(from_float(t), lg)), prec)
    X, Y = mod * C, mod * S
    # the exact value is (mod + f) e^{i th} with 0 <= f < 1 and |th - th~|
    # <= |t| rad(log); e^{i th} moves by at most |th - th~| on the unit
    # circle, and C + iS is within trust + 1 of e^{i th~} in each part
    R = mod * (rad_s + rad_cs + 2) + (1 << prec)
    # cos^2 + sin^2 = 1 and mod >= 2^prec, so k > 0; each shift moves its
    # part by less than one unit of 2^k
    k = max(abs(X), abs(Y)).bit_length() - prec
    return X >> k, Y >> k, (R >> k) + 3, k - F - prec


def _mid_mag(X: int, Y: int) -> int:
    """An integer upper bound on |X + iY|: max + min/2 over |X|, |Y|, as
    sqrt(1 + x^2) <= 1 + x/2, plus one for the floor."""
    a, b = abs(X), abs(Y)
    return (a + (b >> 1) if a >= b else b + (a >> 1)) + 1


def _gauss_mul(X1: int, Y1: int, R1: int, X2: int, Y2: int, R2: int) -> tuple[int, int, int]:
    """The exact Gaussian-integer product of two balls' midpoints and the
    radius |mid 1| R2 + |mid 2| R1 + R1 R2 of their product."""
    R = _mid_mag(X1, Y1) * R2 + _mid_mag(X2, Y2) * R1 + R1 * R2
    return X1 * X2 - Y1 * Y2, X1 * Y2 + Y1 * X2, R


def ball_mul(u: _Ball, v: _Ball, prec: int) -> _Ball:
    """Product of two fixed-point balls (_gauss_mul), its midpoint truncated to prec bits."""
    X1, Y1, R1, e1 = u
    X2, Y2, R2, e2 = v
    X, Y, R = _gauss_mul(X1, Y1, R1, X2, Y2, R2)
    e = e1 + e2
    k = max(abs(X), abs(Y)).bit_length() - prec
    if k <= 0:
        return X, Y, R, e
    # X >> k and Y >> k each move their part by less than one unit of 2^k
    return X >> k, Y >> k, (R >> k) + 3, e + k


def ball_sum(balls: list[_Ball]) -> _Ball:
    """The sum of fixed-point balls at their largest exponent; the empty
    sum is exactly 0."""
    X = Y = R = 0
    e = max((b[3] for b in balls), default=0)
    for x, y, r, eb in balls:
        s = e - eb
        # a floor shift moves each part by less than one unit of 2^e
        X, Y, R = X + (x >> s), Y + (y >> s), R - (-r >> s) + (2 if s else 0)
    return X, Y, R, e


def ball_scale(z: _Ball, num: int, den: int, prec: int) -> _Ball:
    """z num / den for integers num and den > 0, at the fixed scale 2^-prec."""
    X, Y, R, e = z
    s = e + prec
    if s >= 0:
        num <<= s
    else:
        den <<= -s
    # each floor moves its part by less than one unit
    return X * num // den, Y * num // den, -(-R * abs(num) // den) + 2, -prec


def exp_ball(z: _Ball) -> _Ball:
    """e^z for a fixed-point ball z = (X, Y, R, -prec), as a ball with a
    prec-bit midpoint; DomainError if R > 2^(prec - 2).

    One mpf_exp of the real part gives the modulus and one mpf_cos_sin of
    the imaginary part the phase, each trusted to _BIG_TRANS_ULPS ulps
    at prec - GUARD bits.
    """
    X, Y, R, e = z
    prec = -e
    if R > 1 << (prec - 2):
        raise DomainError(f"ball of radius {R} x 2^{e} too wide to exponentiate")
    # the modulus e^{X~ + delta}, |delta| <= R units <= 1/4, is within
    # (2R (1 + 2^-GUARD) + trust + 1) units of 2^-prec of mpf_exp's E,
    # relative to E, as e^delta - 1 <= 2 |delta| there; the phase as in turn
    _, man, exp, _ = mpf_exp(from_man_exp(X, e), prec, "n")
    rel = 2 * R + (R >> GUARD) + (_BIG_TRANS_ULPS << (GUARD + 1)) + 1
    C, S, rad_cs = _cos_sin(from_man_exp(Y, e), prec)
    Xo, Yo, Ro = man * C, man * S, man * (rel + R + rad_cs + 2)
    k = max(max(abs(Xo), abs(Yo)).bit_length() - prec, 0)
    return Xo >> k, Yo >> k, (Ro >> k) + 3, exp - prec + k


def power_ball(x: Fraction, sigma: Fraction, t: float, bits: int) -> tuple[float, float, float, float]:
    """Enclosure of x^{-(sigma + it)} for x > 0 as (re.lo, re.hi, im.lo, im.hi) doubles.

    One ball at `bits`, narrowed: the sampler's q^(-s)
    (sampler_largeq.q_pow), and the single-power form of the lattice
    powers, against which the sieve (hurwitz._sieved_powers) is tested.
    """
    return narrow_ball(ball(x, sigma, t, bits), t == 0.0)


# ---------------------------------------------------------------------------
# exact values rounded outward to doubles

_MAX = sys.float_info.max


def _floor_float(n: int, e: int) -> float:
    """The largest double <= n 2^e."""
    # floor to 53 bits, or to the subnormal grid 2^-1074 where that is coarser
    k = max(abs(n).bit_length() - 53, -1074 - e, 0)
    m, ex = n >> k, e + k
    if not m or m.bit_length() + ex <= 1024:
        return math.ldexp(m, ex)  # exact: at most 53 bits on the double grid
    return _MAX if n > 0 else -math.inf


def _narrow(lo: int, hi: int, e: int) -> tuple[float, float]:
    """Doubles enclosing [lo 2^e, hi 2^e], each side rounded outward once."""
    return _floor_float(lo, e), -_floor_float(-hi, e)


def narrow_ball(z: _Ball, real: bool) -> tuple[float, float, float, float]:
    """A fixed-point ball as (re.lo, re.hi, im.lo, im.hi) doubles; real
    says the exact value is real, so the imaginary sides are [0, 0]."""
    X, Y, R, e = z
    im = (0.0, 0.0) if real else _narrow(Y - R, Y + R, e)
    return (*_narrow(X - R, X + R, e), *im)


def ratio_ends(n: int, d: int) -> tuple[float, float]:
    """The largest double <= n/d and the smallest >= it, for integers n and d > 0.

    n/d need not be in lowest terms.  CPython's int division n / d is
    correctly rounded, subnormals included, so the sign of qn d - n qd
    for q = n / d = qn/qd says on which side of n/d q lies: q is one
    endpoint and its neighbour toward n/d the other.  A quotient beyond
    the double range raises OverflowError and takes the integer path:
    n 2^k / d keeps at least 54 bits, so flooring it to an integer and
    then to 53 bits is one floor of n/d.  Both paths give the same
    endpoints, down to the sign of zero (0 is [0.0, -0.0]).
    """
    try:
        q = n / d
    except OverflowError:
        k = max(54 + d.bit_length() - abs(n).bit_length(), 0)
        return _narrow((n << k) // d, -((-n << k) // d), -k)
    qn, qd = q.as_integer_ratio()
    side = qn * d - n * qd
    if side < 0:
        return q, math.nextafter(q, math.inf)
    if side > 0:
        return math.nextafter(q, -math.inf), q
    return (q, q) if n else (0.0, -0.0)


def fixed_quotient(x: int, y: int, d: int, r: int, scale: int) -> tuple[float, float, float, float]:
    """(re.lo, re.hi, im.lo, im.hi) doubles holding (x + iy)/D + delta for
    all d <= D < d + 1 and |delta| <= r/d: x and y integers of either
    sign, r >= 0 and d > 0.  At scale 2^-scale each part v/D lies between
    the smaller of the floors of v 2^scale/(d + 1) and v 2^scale/d and the
    next integer above the larger; the pad is ceil(r 2^scale/d), and each
    side is rounded outward to a double once."""
    one = 1 << scale
    pad = -(-r * one // d)
    ends = ()
    for v in (x, y):
        a, b = v * one // (d + 1), v * one // d
        ends += _narrow(min(a, b) - pad, max(a, b) + 1 + pad, -scale)
    return ends


# ---------------------------------------------------------------------------
# pi and the roots of unity


@cache
def pi_fixed(prec: int) -> tuple[tuple, int, int]:
    """pi as (the raw mpf, its midpoint at 2^-prec, radius), trusted at
    prec - GUARD bits: the package's one pi."""
    pi = mpf_pi(prec, "n")
    return pi, *_mid_rad(pi, prec, 1)


def pi_ball(re, im) -> _Ball:
    """pi (re + i im) for exact rationals re and im (ints, doubles or
    Fractions) as a fixed-point ball at 2^-GAMMA_PREC."""
    _, pi, rad_pi = pi_fixed(GAMMA_PREC)
    a, b = re.as_integer_ratio()
    c, d = im.as_integer_ratio()
    # each floor moves its part by less than one unit
    R = -(-abs(a) * rad_pi // b) - (-abs(c) * rad_pi // d) + 2
    return a * pi // b, c * pi // d, R, -GAMMA_PREC


@cache
def log_pi() -> tuple[int, int]:
    """log pi at the scale 2^-GAMMA_PREC as (midpoint, radius): one mpf_log
    of pi_fixed's pi."""
    pi, _, rad_pi = pi_fixed(GAMMA_PREC)
    # |log pi~ - log pi| <= |pi~ - pi| / pi, below rad_pi units
    return _mid_rad(mpf_log(pi, GAMMA_PREC, "n"), GAMMA_PREC, rad_pi + 1)


def fixed_unit_powers(n: int, shift: int) -> tuple[list[int], list[int], int]:
    """e(k/n) for k = 0..n-1 as integers at scale 2^-shift, with one radius.

    Returns lists (re, im) of Python ints and an integer rad with
    |(re[k] + i im[k]) 2^-shift - e(k/n)| <= rad 2^-shift for every k.
    The only transcendental is e(1/n): one mpf_cos_sin of 2 pi/n (pi from
    pi_fixed) at shift + 8 + GUARD bits, each part rounded to the nearest
    integer (x_1, y_1).  pi and the kernel are trusted to _BIG_TRANS_ULPS
    ulps at shift + 8 bits, below 2^-6 units of 2^-shift, so with the
    rounding to integers each part is within one unit: r_1 = 2.  When n
    divides 4, e(1/n) is 1, -1 or i, the parts round to it exactly, and
    r_1 = 0.  The rest is the recurrence z_{k+1} = round(z_k z_1 / 2^shift),
    whose error in units of 2^-shift obeys

        r_{k+1} <= r_k + r_1 + r_k r_1 / 2^shift + 1,

    the last term covering the round-to-nearest of both parts; it is left
    out when the product is exact, so exact phases such as e(1/4) stay
    exact.  It serves the Gauss sums and every DFT twiddle and chirp
    (dft.unity_table), which read each entry as a midpoint with the
    shared radius.
    """
    one = 1 << shift
    half = one >> 1
    prec = shift + 8 + GUARD
    two_pi_n = mpf_div(mpf_shift(pi_fixed(prec)[0], 1), from_int(n), prec, "n")
    x1, y1 = (to_int(mpf_shift(v, shift), "n") for v in mpf_cos_sin(two_pi_n, prec, "n"))
    r1 = 0 if 4 % n == 0 else 2
    re, im = [one], [0]
    x, y, rad = one, 0, 0
    for _ in range(1, n):
        vx, vy = x * x1 - y * y1, x * y1 + y * x1
        x, y = (vx + half) >> shift, (vy + half) >> shift
        rad += r1 - ((-rad * r1) >> shift) + (x << shift != vx or y << shift != vy)
        re.append(x)
        im.append(y)
    return re, im, rad


# ---------------------------------------------------------------------------
# log Gamma


# the Stirling remainder is held below 2^-_STIRLING_GOAL_BITS, 12 bits
# below one ulp of 1: it moves e^(log Gamma), narrowed to doubles, by
# 1/2048 of an ulp at most
_STIRLING_GOAL_BITS = 64
# the most Stirling terms log_gamma sums: at the goal, 12 terms serve
# |w| >= 11.5, and log_gamma shifts a smaller argument right to there
_STIRLING_CAP = 12


@cache
def bernoulli(n: int) -> Fraction:
    """Exact Bernoulli number B_n."""
    p, q = bernfrac(n)
    return Fraction(int(p), int(q))


@cache
def _stirling_table(goal_bits: int):
    """log_gamma's constants, in fixed point at 2^-GAMMA_PREC.

    (the coefficients B_2k / (2k (2k-1)), k = 1.._STIRLING_CAP, each
    truncated toward -infinity; the exact remainder constants
    |B_{2K+2}| 2^{K+1} / ((2K+2)(2K+1)) as (numerator, denominator); the
    float |w| from which K terms meet the goal 2^-goal_bits;
    log(2 pi)/2 as (midpoint, radius)).
    """
    prec = GAMMA_PREC
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
    pi, _, rad_pi = pi_fixed(prec)
    # |log(2 pi~) - log(2 pi)| <= |pi~ - pi| / pi
    half_log = _mid_rad(mpf_shift(mpf_log(mpf_shift(pi, 1), prec, "n"), -1), prec, rad_pi + 1)
    return coefs, [c.as_integer_ratio() for c in rems], reach, half_log


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
    """Product of two balls at the scale 2^-prec (_gauss_mul), back at that scale."""
    X, Y, R = _gauss_mul(*u, *v)
    # each floor shift moves its part by less than one unit
    return X >> prec, Y >> prec, (R >> prec) + 3


def _half_log_fixed(n: int, d: int) -> tuple[int, int]:
    """log(n/d)/2 for integers n, d > 0 at the scale 2^-GAMMA_PREC, as
    (midpoint, radius): one mpf_log of n/d rounded to the kernel precision."""
    prec = GAMMA_PREC
    lg = mpf_shift(mpf_log(from_rational(n, d, prec, "n"), prec, "n"), -1)
    # n/d rounds by half an ulp, so its log moves by at most one unit
    return _mid_rad(lg, prec, 2)


def _atan2_fixed(y: int, x: int) -> tuple[int, int, tuple]:
    """arg(x + iy) for integers, not both 0, at the scale 2^-GAMMA_PREC,
    as (midpoint, radius, the raw mpf): one mpf_atan2 of the exact integers."""
    arg = mpf_atan2(from_int(y), from_int(x), GAMMA_PREC, "n")
    return *_mid_rad(arg, GAMMA_PREC, 1), arg


def log_gamma(x, y) -> _Ball:
    """Principal log Gamma(x + iy) for exact rationals x > 0 and y, as a
    fixed-point ball (X, Y, R, -GAMMA_PREC).

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
    and mpf_atan2.  The rest is integer fixed point at 2^-GAMMA_PREC:
    w and 1/w truncated, the Horner sum in 1/w^2 on Gaussian integers,
    each step a _fixed_mul plus a coefficient B_2k / (2k (2k-1)) that is
    truncated once, and the exact remainder bound at the integer lower
    bound isqrt(|w|^2 d^2) on |w| d, rounded up into the radius.  Each
    mpmath kernel result is trusted to _BIG_TRANS_ULPS ulps at
    GAMMA_BITS, as in turn.  No Fraction is made past the inputs.
    """
    if any(isinstance(v, float) and not math.isfinite(v) for v in (x, y)):
        raise NonPositiveRealPart(f"log_gamma at {x} + {y}i, not a finite point")
    xn, xd = x.as_integer_ratio()
    yn, yd = y.as_integer_ratio()
    if xn <= 0:
        raise NonPositiveRealPart(f"log_gamma at {x} + {y}i")
    prec = GAMMA_PREC
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
        _, pi, rad_pi = pi_fixed(prec)
        lp_re, rad_lp_re = _half_log_fixed(pr * pr + pim * pim, d ** (2 * n))
        lp_im, rad_lp_im, arg = _atan2_fixed(pim, pr)
        turns = round((args - to_float(arg)) / (2 * math.pi))
        X -= lp_re
        Y -= lp_im + 2 * turns * pi
        R += rad_lp_re + rad_lp_im + 2 * abs(turns) * rad_pi
    return X, Y, R, -prec


def gamma_factor(lg: _Ball, y, q: int) -> tuple[float, float, float, float]:
    """Gamma(x + iy) e^{pi |y| / 2} (q/pi)^{iy} from lg = log_gamma(x, y),
    as (re.lo, re.hi, im.lo, im.hi) doubles.

    The exponent lg + pi |y| / 2 + i y log(q/pi) is summed in lg's fixed
    point, with one pi (pi_fixed) and one mpf_log of q/pi; then one
    exp_ball, narrowed to doubles once.  A real factor (y = 0) gets the
    imaginary sides [0, 0].
    """
    X, Y, R, e = lg
    prec = -e
    pi_mpf, pi, rad_pi = pi_fixed(prec)
    yn, yd = y.as_integer_ratio()
    # pi |y| / 2 and y log(q / pi~), with |log(q/pi~) - log(q/pi)| <= |pi~ - pi| / pi
    X += abs(yn) * pi // (2 * yd)
    lq, rad_lq = _mid_rad(mpf_log(mpf_div(from_int(q), pi_mpf, prec, "n"), prec, "n"), prec, rad_pi + 2)
    Y += yn * lq // yd
    R += -(-abs(yn) * (rad_pi + 2 * rad_lq) // (2 * yd)) + 2
    return narrow_ball(exp_ball((X, Y, R, e)), yn == 0)
