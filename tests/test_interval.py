"""Interval arithmetic: containment, rounding, serialization.

Tests parametrized by ``oracle`` check the hardware result on their own
terms ("hardware"), and then also that it holds mpmath.iv's enclosure of
the same expression at 128 bits ("bigfloat(128)").

The scalar tier has no transcendental.  The elementary functions tested
here are the package's two sources of them: of interval arguments, the
array tier's numpy kernels (ivec), one cell at a time; at exact points,
hurwitz's fixed-point balls, narrowed to doubles once.
"""

import math
import sys
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import iv

from grhdesk import hurwitz
from grhdesk.errors import LogDomain, NegativeSqrtDomain, NonPositiveRealPart
from grhdesk.hurwitz import _GAMMA_PREC, _exp_ball, _half_log_fixed, _narrow_ball, log_gamma
from grhdesk.interval import (
    ComplexBox,
    RealInterval,
    _narrow,
    _prod_is_exact,
    _ratio_ends,
    pi_interval,
)
from grhdesk.ivec import IVec

from em_oracle import covers, ends, iv_complex, iv_real, ivprec

ORACLES = pytest.mark.parametrize("oracle", [None, 128], ids=["hardware", "bigfloat(128)"])


def check_oracle(got, oracle, expr):
    """With an oracle precision, got holds expr() evaluated in mpmath.iv at it."""
    if oracle:
        with ivprec(oracle):
            want = expr()
        assert covers(got, want), (got, want)


def iv_loggamma(z: complex):
    """mpmath.iv's log Gamma at iv.prec; its complex form fails on real arguments."""
    if z.imag == 0:
        return iv.mpc(iv.loggamma(iv.mpf(z.real)), 0)
    return iv.loggamma(iv_complex(z))


def mp_fraction(x, prec=220) -> Fraction:
    """Exact rational value of an mpmath float."""
    with mpmath.workprec(prec):
        sign, man, exp, _ = mpmath.mpf(x)._mpf_
    v = Fraction(int(man)) * Fraction(2) ** exp
    return -v if sign else v


def assert_contains_mp(x: RealInterval, mp_value):
    fr = mp_fraction(mp_value)
    assert x.lo_fraction() <= fr <= x.hi_fraction(), (x, mp_value)


# ---------------------------------------------------------------------------
# operation dispatch by name (used by the randomized containment suites)

_ARITH = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
    "sqrt": lambda a, b: a.sqrt(),
}


def arith(op: str, a: RealInterval, b: RealInterval = None) -> RealInterval:
    """Named operation: add, sub, mul, and unary sqrt (b ignored)."""
    return _ARITH[op](a, b)


def elem(f: str, a: RealInterval) -> RealInterval:
    """Named elementary function of an interval: exp, log, sin, cos, as
    the array tier's kernel on one cell."""
    return getattr(IVec(a.lo, a.hi), f)()[()]


def _fixed(x: float) -> int:
    """A double exactly as a multiple of 2^-_GAMMA_PREC (every test point is one)."""
    v = Fraction(x) * 2**_GAMMA_PREC
    assert v.denominator == 1, x
    return int(v)


def point_elem(f: str, x: float) -> RealInterval:
    """Named elementary function at an exact double: exp, sin and cos as one
    hurwitz._exp_ball, log from hurwitz._half_log_fixed, each narrowed once."""
    if f == "log":
        n, d = x.as_integer_ratio()
        mid, rad = _half_log_fixed(n, d)
        return RealInterval(*_narrow(2 * (mid - rad), 2 * (mid + rad), -_GAMMA_PREC))
    X = _fixed(x)
    ball = _exp_ball((X, 0, 0, -_GAMMA_PREC) if f == "exp" else (0, X, 0, -_GAMMA_PREC))
    ends = _narrow_ball(ball, False)
    return RealInterval(*(ends[2:] if f == "sin" else ends[:2]))


ARITH_OPS = tuple(_ARITH)
ELEM_OPS = ("exp", "log", "sin", "cos")


# ---------------------------------------------------------------------------
# arithmetic


@ORACLES
def test_add_exact_endpoints(oracle):
    s = arith("add", RealInterval(1, 2), RealInterval(3, 4))
    assert s.contains(4) and s.contains(6)
    assert s.lo_fraction() == 4 and s.hi_fraction() == 6
    check_oracle(s, oracle, lambda: iv.mpf([1, 2]) + iv.mpf([3, 4]))


@ORACLES
def test_mul_sign_analysis(oracle):
    p = arith("mul", RealInterval(-1, 1), RealInterval(-1, 1))
    assert p.lo_fraction() == -1 and p.hi_fraction() == 1
    check_oracle(p, oracle, lambda: iv.mpf([-1, 1]) * iv.mpf([-1, 1]))


# 3 * fl(1/3) rounds to exactly 1.0, so (-3) * fl(1/3) ties the exact
# corner product 1 * (-1) at the lower endpoint; both corner orders
@pytest.mark.parametrize(
    "a, b",
    [((-3.0, 1.0), (-1.0, 1 / 3)), ((-1.0, 1 / 3), (-3.0, 1.0))],
    ids=["inexact-first", "exact-first"],
)
def test_mul_tied_corner_with_one_inexact_product_is_nudged(a, b):
    assert -3.0 * (1 / 3) == -1.0 and not _prod_is_exact(-3.0, 1 / 3, -1.0)
    p = RealInterval(*a) * RealInterval(*b)
    assert p.lo == math.nextafter(-1.0, -math.inf)
    assert p.hi == 3.0


def test_mul_tied_corners_all_exact_are_not_nudged():
    # (-2) * (-1) and 1 * 2 tie at the upper endpoint, both exact
    p = RealInterval(-2.0, 1.0) * RealInterval(-1.0, 2.0)
    assert (p.lo, p.hi) == (-4.0, 2.0)


def _corner_reference(a, b):
    """The hardware product with every tied corner tested by all()."""
    corners = ((a.lo, b.lo), (a.lo, b.hi), (a.hi, b.lo), (a.hi, b.hi))
    vals = [x * y for x, y in corners]
    lo, hi = min(vals), max(vals)
    if not all(_prod_is_exact(x, y, lo) for (x, y), v in zip(corners, vals) if v == lo):
        lo = math.nextafter(lo, -math.inf)
    if not all(_prod_is_exact(x, y, hi) for (x, y), v in zip(corners, vals) if v == hi):
        hi = math.nextafter(hi, math.inf)
    return lo, hi


_corner_floats = st.one_of(
    st.floats(allow_nan=False),
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 3.0, 1 / 3, -3.0, math.ulp(0.0), 2.0**-1074 * 3]),
)


@settings(max_examples=400, deadline=None)
@given(_corner_floats, _corner_floats, _corner_floats, _corner_floats)
def test_corner_loop_matches_the_all_reference(w, x, y, z):
    a = RealInterval(min(w, x), max(w, x))
    b = RealInterval(min(y, z), max(y, z))
    got = a * b
    want = _corner_reference(a, b)
    assert (got.lo.hex(), got.hi.hex()) == (want[0].hex(), want[1].hex())


@ORACLES
def test_sqrt_domain(oracle):
    r = arith("sqrt", RealInterval(2, 2))
    with mpmath.workprec(220):
        assert_contains_mp(r, mpmath.sqrt(2))
    check_oracle(r, oracle, lambda: iv.sqrt(2))
    with pytest.raises(NegativeSqrtDomain):
        arith("sqrt", RealInterval(-1, 1))


def test_sub_and_negation():
    d = RealInterval(1, 2) - RealInterval(3, 4)
    assert d.lo == -3.0 and d.hi == -1.0


# ---------------------------------------------------------------------------
# elementary functions


@ORACLES
def test_exp_zero(oracle):
    r = point_elem("exp", 0.0)
    assert r.contains(1)
    check_oracle(r, oracle, lambda: iv.exp(0))


@ORACLES
def test_sin_over_zero_to_pi(oracle):
    x = RealInterval(0.0, pi_interval().hi)
    r = elem("sin", x)
    assert r.contains(0) and r.contains(1)
    eps = Fraction(1, 10**12)
    assert -eps <= r.lo_fraction() and r.hi_fraction() <= 1 + eps
    check_oracle(r, oracle, lambda: iv.sin(iv_real(x)))


@ORACLES
def test_log_exp_roundtrip(oracle):
    r = elem("log", elem("exp", RealInterval.one()))
    assert r.contains(1)
    check_oracle(r, oracle, lambda: iv.log(iv.exp(1)))


@ORACLES
def test_log_domain(oracle):
    with pytest.raises(LogDomain):
        elem("log", RealInterval(0, 1))
    # the smallest subnormal is inside the domain
    tiny = math.ulp(0.0)
    r = elem("log", RealInterval(tiny, 1))
    assert r.lo < -744.0 and r.hi >= 0.0
    check_oracle(r, oracle, lambda: iv.log(iv.mpf([tiny, 1])))


def test_cos_interval_spanning_minimum():
    r = elem("cos", RealInterval(3.0, 3.3))
    assert r.lo == -1.0
    assert r.hi < math.cos(3.3) + 1e-12


def test_trig_full_period_clamps():
    r = elem("sin", RealInterval(0.0, 10.0))
    assert r.lo == -1.0 and r.hi == 1.0


# the elementary functions in mpmath.iv
IV_ELEM = {
    "exp": iv.exp,
    "log": iv.log,
    "sin": iv.sin,
    "cos": iv.cos,
}


@ORACLES
@pytest.mark.parametrize("fname", ELEM_OPS)
def test_elem_width_near_image_width(oracle, fname):
    # at an exact point the ball narrowed to doubles is an ulp or two wide
    y = point_elem(fname, 0.5)
    ulp = math.ulp(max(abs(y.lo), abs(y.hi), 1e-300))
    assert y.width() <= 8 * ulp
    check_oracle(y, oracle, lambda: IV_ELEM[fname](iv.mpf(0.5)))


# ---------------------------------------------------------------------------
# transcendental containment against a higher-precision oracle


@ORACLES
def test_containment_against_oracle_grid(oracle):
    pts = [0.001, 0.3, 0.5, 1.0, 1.5, 2.718, 10.0, 123.456, 2500.0]
    with mpmath.workprec(200):
        for v in pts:
            x = RealInterval.point(v)
            for fname in ELEM_OPS:
                for y in (elem(fname, x), point_elem(fname, v)):
                    if fname != "exp" or v < 700:
                        assert_contains_mp(y, getattr(mpmath, fname)(v))
                        check_oracle(y, oracle, lambda: IV_ELEM[fname](iv.mpf(v)))
            assert_contains_mp(x.sqrt(), mpmath.sqrt(v))
            check_oracle(x.sqrt(), oracle, lambda: iv.sqrt(v))


def test_pi_interval_contains_pi():
    assert_contains_mp(pi_interval(), mpmath.pi)


# ---------------------------------------------------------------------------
# log_gamma: hurwitz's fixed-point ball kernel, narrowed to doubles and
# held to the same oracles as the interval layer


def gamma_box(z: complex) -> ComplexBox:
    """hurwitz.log_gamma at the exact point z, narrowed to doubles."""
    re_lo, re_hi, im_lo, im_hi = _narrow_ball(log_gamma(z.real, z.imag), False)
    return ComplexBox(RealInterval(re_lo, re_hi), RealInterval(im_lo, im_hi))


@ORACLES
def test_log_gamma_at_one(oracle):
    lg = gamma_box(1 + 0j)
    assert lg.re.contains(0) and lg.im.contains(0)
    check_oracle(lg, oracle, lambda: iv_loggamma(1 + 0j))


@ORACLES
def test_log_gamma_at_half(oracle):
    re_lo, re_hi, im_lo, im_hi = _narrow_ball(log_gamma(Fraction(1, 2), 0), False)
    lg = ComplexBox(RealInterval(re_lo, re_hi), RealInterval(im_lo, im_hi))
    with mpmath.workprec(200):
        assert_contains_mp(lg.re, mpmath.log(mpmath.sqrt(mpmath.pi)))
    assert lg.im.contains(0)
    check_oracle(lg, oracle, lambda: iv.mpc(iv.log(iv.sqrt(iv.pi)), 0))


def stirling_reference(z, prec=300, terms=60):
    """Independent Stirling evaluation with doubled term count.

    Shifts far right (|z| large), sums the asymptotic series at high
    precision, and undoes the shift.  Used as the oracle for log_gamma.
    """
    with mpmath.workprec(prec):
        z = mpmath.mpc(z)
        shift = mpmath.mpc(0)
        while abs(z) < 2 * terms:
            shift += mpmath.log(z)
            z += 1
        out = (z - mpmath.mpf(1) / 2) * mpmath.log(z) - z + mpmath.log(
            2 * mpmath.pi
        ) / 2
        for k in range(1, terms + 1):
            b = mpmath.bernoulli(2 * k)
            out += b / ((2 * k) * (2 * k - 1) * z ** (2 * k - 1))
        out -= shift
        return +out.real, +out.imag


def assert_holds_reference(lg: ComplexBox, z: complex):
    re_ref, im_ref = stirling_reference(z)
    assert_contains_mp(lg.re, re_ref)
    assert_contains_mp(lg.im, im_ref)


@ORACLES
def test_log_gamma_3_plus_4i(oracle):
    lg = gamma_box(complex(3, 4))
    assert_holds_reference(lg, complex(3, 4))
    check_oracle(lg, oracle, lambda: iv_loggamma(3 + 4j))


@pytest.mark.parametrize(
    "z", [complex(0.25, 0.5), complex(0.75, 50.0), complex(1.25, 1250.0), complex(0.5, 5000.0)]
)
def test_log_gamma_tall_arguments(z):
    lg = gamma_box(z)
    assert_holds_reference(lg, z)
    # a ball far narrower than a double: each side is at most one ulp wide
    for part in (lg.re, lg.im):
        assert part.width() <= 2 * math.ulp(max(abs(part.lo), abs(part.hi))), part


@ORACLES
@pytest.mark.parametrize("sigma", [0.25, 0.75])
@pytest.mark.parametrize("im", [0.0, 0.5, 4.0, 7.9, 8.0, 8.1, 50.0, 500.0, 5000.0])
def test_log_gamma_contains_reference_across_the_shift_threshold(oracle, sigma, im):
    # the completion factors read 1/4 + 8i and 3/4 + 8i at t = 16; below
    # |w| of about 11.5 log_gamma shifts right, from there it sums at z
    z = complex(sigma, im)
    lg = gamma_box(z)
    assert_holds_reference(lg, z)
    check_oracle(lg, oracle, lambda: iv_loggamma(z))


@pytest.mark.parametrize("z", [complex(0.25, 8.0), complex(3.0, 4.0), complex(0.75, 50.0)])
def test_log_gamma_remainder_bound_holds_where_it_dominates(monkeypatch, z):
    # with the goal at 2^-20 only a few terms are summed, and the padded
    # remainder bound, not rounding, is what makes the result contain
    # log Gamma
    monkeypatch.setattr(hurwitz, "_STIRLING_GOAL_BITS", 20)
    lg = gamma_box(z)
    assert_holds_reference(lg, z)
    assert lg.re.width() > 1e-9


@pytest.mark.parametrize(
    "z, re_width, im_width",
    [
        (complex(0.25, 8.0), 3.907985046680551e-14, 8.881784197001252e-14),
        (complex(0.75, 150.0), 1.1368683772161603e-12, 4.433786671143025e-12),
    ],
)
def test_log_gamma_hardware_widths(z, re_width, im_width):
    # pinned at the widths of the earlier hardware-interval Stirling sum,
    # 14 terms summed term by term after shifting to |w| >= 10: the ball
    # narrowed to doubles is no wider
    lg = gamma_box(z)
    assert lg.re.width() <= re_width
    assert lg.im.width() <= im_width


def test_stirling_term_count_meets_its_goal():
    # n is the fewest shifts from which some K <= the cap meets the goal
    # 2^-64 by the exact remainder bound at |w|, and K the fewest terms
    # that meet it there
    coefs, rems, reach, _ = hurwitz._stirling_table(64)
    cap = hurwitz._STIRLING_CAP
    assert len(coefs) == len(rems) == len(reach) == cap
    goal = Fraction(1, 2**64)

    def bounds(x, y):
        r = mpmath.sqrt(mpmath.mpf(x) ** 2 + mpmath.mpf(y) ** 2)
        return [Fraction(*rem) / mp_fraction(r) ** (2 * k + 1) for k, rem in enumerate(rems, 1)]

    counts = []
    for x, y in [(0.25, 0.0), (0.75, 4.0), (0.25, 8.0), (3.0, 4.0), (0.75, 16.0),
                 (0.25, 22.5), (0.5, 50.0), (0.75, 150.0), (0.5, 5000.0), (0.5, 1e8)]:
        n, K = hurwitz._stirling_plan(x, y, reach)
        at = bounds(x + n, y)
        assert at[K - 1] <= goal, (x, y)
        assert all(b > goal for b in at[: K - 1]), (x, y)
        if n:
            assert all(b > goal for b in bounds(x + n - 1, y)), (x, y)
        else:
            counts.append(K)
    assert counts == sorted(counts, reverse=True)  # fewer terms as |w| grows
    assert hurwitz._stirling_plan(0.25, 8.0, reach) == (9, 12)  # t = 16, parity 0
    assert hurwitz._stirling_plan(0.75, 150.0, reach)[0] == 0  # t = 300


@pytest.mark.parametrize("x", [Fraction(1, 4), Fraction(3, 4)])
@pytest.mark.parametrize("y", [2.0, 3.0, 5.0, 8.0, -3.0, -8.0, 0.125])
def test_log_gamma_branch_past_pi(x, y):
    # with |y| small the kernel shifts many times, and the shift product's
    # argument wraps past +-pi: its atan2 alone is off by 2 pi k, which the
    # float sum of the factors' atans puts back
    n, _ = hurwitz._stirling_plan(float(x), y, hurwitz._stirling_table(64)[2])
    args = sum(math.atan2(y, float(x) + j) for j in range(n))
    if abs(y) >= 2:
        assert abs(args) > math.pi, (x, y, n)
    lg = gamma_box(complex(float(x), y))
    with mpmath.workprec(300):
        ref = mpmath.loggamma(mpmath.mpc(mpmath.mpf(x.numerator) / x.denominator, y))
    assert_contains_mp(lg.re, ref.real)
    assert_contains_mp(lg.im, ref.imag)


def test_log_gamma_domain_error():
    with pytest.raises(NonPositiveRealPart):
        log_gamma(-1.0, 0.5)
    with pytest.raises(NonPositiveRealPart):
        log_gamma(Fraction(0), 3)
    # a NaN or infinite part is no point at all
    for x, y in [(1.0, math.nan), (math.nan, 1.0), (math.inf, 1.0), (0.5, -math.inf)]:
        with pytest.raises(NonPositiveRealPart):
            log_gamma(x, y)


# ---------------------------------------------------------------------------
# rational endpoints: a 128-bit mpmath.iv enclosure widened to doubles


def test_widen_exact_value_roundtrip():
    with ivprec(128):
        one = RealInterval(*ends(iv.mpf(1)))
    assert one.lo == 1.0 and one.hi == 1.0


def test_widen_pi_to_hardware_is_wider():
    with ivprec(128):
        pb = iv.pi
    ph = RealInterval(*ends(pb))
    assert covers(ph, pb)
    assert_contains_mp(ph, mpmath.pi)
    # the two doubles around pi, as pi_interval gives them
    assert (ph.lo, ph.hi) == (pi_interval().lo, pi_interval().hi)


@given(
    st.floats(min_value=-1e12, max_value=1e12, allow_nan=False),
    st.floats(min_value=0, max_value=1e-3),
)
def test_widen_roundtrip_contains(mid, rad):
    with ivprec(128):
        x = iv.mpf(mid) + iv.mpf([-rad, rad]) / 3
    back = RealInterval(*ends(x))
    assert covers(back, x)
    lo, hi = ends(x)
    # each endpoint is the nearest double on its outer side
    assert back.lo <= lo < math.nextafter(back.lo, math.inf)
    assert math.nextafter(back.hi, -math.inf) < hi <= back.hi


# ---------------------------------------------------------------------------
# randomized containment under composition

finite = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)


@settings(max_examples=400, deadline=None)
@given(
    st.lists(
        st.tuples(st.sampled_from(ARITH_OPS + ELEM_OPS), finite, finite),
        min_size=1,
        max_size=8,
    ),
    finite,
)
def test_containment_under_composition(prog, seed):
    """Evaluate a random op chain pointwise at 4x precision and inside
    intervals; the point result must land in the interval."""
    with mpmath.workprec(4 * 53):
        point = mpmath.mpf(seed)
        acc = RealInterval.point(seed)
        for op, x, _ in prog:
            try:
                if op in ("add", "sub", "mul"):
                    pt_other = mpmath.mpf(x)
                    acc = arith(op, acc, RealInterval.point(x))
                    point = {
                        "add": point + pt_other,
                        "sub": point - pt_other,
                        "mul": point * pt_other,
                    }[op]
                elif op == "sqrt":
                    acc = arith("sqrt", acc)
                    point = mpmath.sqrt(point)
                elif op in ELEM_OPS:
                    if op == "exp" and point > 300:
                        return
                    acc = elem(op, acc)
                    point = getattr(mpmath, op)(point)
            except (NegativeSqrtDomain, LogDomain, ValueError):
                return
            if abs(point) > 1e100:
                return
        # mpmath compares a double with an mpf exactly, without Fractions:
        # a chain such as mul, mul, exp reaches exp(-4e13), whose Fraction
        # form needs a 2^(5.8e13) denominator and exhausts memory
        assert acc.lo <= point <= acc.hi, (prog, seed)


@settings(max_examples=200, deadline=None)
@given(finite, finite, finite, finite)
def test_tiers_intersect_on_same_expression(a, b, c, d):
    # the hardware result holds mpmath.iv's 128-bit enclosure of the same
    # interval expression
    x = RealInterval(*sorted((a, b)))
    y = RealInterval(*sorted((c, d)))
    with ivprec(128):
        xi, yi = iv_real(x), iv_real(y)
        want = iv.sin(xi * yi + xi)
    assert covers(elem("sin", x * y + x), want)


@settings(max_examples=200, deadline=None)
@given(finite, st.floats(min_value=0, max_value=1.0), st.sampled_from(ELEM_OPS))
def test_inclusion_isotonicity(mid, rad, fname):
    narrow = RealInterval(mid, mid + rad / 2)
    wide = RealInterval(mid - rad / 2, mid + rad)
    try:
        out_wide = elem(fname, wide)
    except LogDomain:
        return
    out_narrow = elem(fname, narrow)
    assert out_wide.lo <= out_narrow.lo and out_narrow.hi <= out_wide.hi


# ---------------------------------------------------------------------------
# complex boxes


@ORACLES
def test_complex_exp(oracle):
    # one hurwitz._exp_ball at the exact point 0.5 + i, narrowed once
    z = ComplexBox.point(complex(0.5, 1.0))
    re_lo, re_hi, im_lo, im_hi = _narrow_ball(_exp_ball((_fixed(0.5), _fixed(1.0), 0, -_GAMMA_PREC)), False)
    r = ComplexBox(RealInterval(re_lo, re_hi), RealInterval(im_lo, im_hi))
    with mpmath.workprec(200):
        w = mpmath.exp(mpmath.mpc(0.5, 1.0))
        assert_contains_mp(r.re, w.real)
        assert_contains_mp(r.im, w.imag)
    check_oracle(r, oracle, lambda: iv.exp(iv_complex(z)))


def test_complex_abs():
    z = ComplexBox.point(complex(3, 4))
    assert z.abs().contains(5)


@settings(max_examples=200, deadline=None)
@given(finite, finite, finite, finite)
def test_complex_mul_containment(ar, ai, br, bi):
    with mpmath.workprec(212):
        za = mpmath.mpc(ar, ai)
        zb = mpmath.mpc(br, bi)
        prod = za * zb
    box = ComplexBox.point(complex(ar, ai)) * ComplexBox.point(complex(br, bi))
    assert box.re.lo_fraction() <= mp_fraction(prod.real) <= box.re.hi_fraction()
    assert box.im.lo_fraction() <= mp_fraction(prod.imag) <= box.im.hi_fraction()


# ---------------------------------------------------------------------------
# directed rounding of exact values to doubles


@pytest.mark.parametrize(
    "n, e",
    [
        (1, 0),
        (3, -2),
        (-(2**80) - 1, -100),
        (2**60 + 1, 5),
        (5, -1076),
        (-7, -1080),
        (2**53 + 1, 980),
        (-(2**60) - 3, 1000),
    ],
    ids=["one", "exact", "negative", "big", "subnormal", "subnormal-neg", "overflow", "overflow-neg"],
)
def test_narrow_rounds_outward_to_adjacent_doubles(n, e):
    # inside the double range one shift to 53 bits; outside it the
    # subnormal grid or the overflow ends
    lo, hi = _narrow(n, n, e)
    v = Fraction(n) * Fraction(2) ** e
    assert (Fraction(lo) if math.isfinite(lo) else -math.inf) <= v
    assert v <= (Fraction(hi) if math.isfinite(hi) else math.inf)
    assert hi == lo or hi == math.nextafter(lo, math.inf)


def _floor_reference(v: Fraction) -> float:
    """The largest double <= v, from Fraction's correctly rounded float()."""
    if v > sys.float_info.max:
        return sys.float_info.max
    if v < -sys.float_info.max:
        return -math.inf
    f = float(v)
    return f if Fraction(f) <= v else math.nextafter(f, -math.inf)


@settings(max_examples=500, deadline=None)
@given(
    st.integers(-(2**120), 2**120),
    st.integers(-1300, 1100) | st.integers(-1200, -1020) | st.integers(900, 1030),
)
def test_narrow_agrees_with_the_exact_floor(n, e):
    # both sides bit for bit, across the subnormal range and past the
    # largest double
    v = Fraction(n) * Fraction(2) ** e
    lo, hi = _narrow(n, n, e)
    assert _bits((lo, hi)) == _bits((_floor_reference(v), -_floor_reference(-v))), (n, e)


def _assert_adjacent_enclosure(lo: float, hi: float, v: Fraction):
    assert (Fraction(lo) if math.isfinite(lo) else -math.inf) <= v
    assert v <= (Fraction(hi) if math.isfinite(hi) else math.inf)
    assert hi == lo or hi == math.nextafter(lo, math.inf)


@pytest.mark.parametrize(
    "v",
    [Fraction(1, 3), Fraction(-2, 3), 2**60 + 1, -(2**60) - 1, 10**400, -(10**400), Fraction(1, 10**400)],
    ids=["third", "neg-two-thirds", "big", "neg-big", "overflow", "overflow-neg", "underflow"],
)
def test_int_and_fraction_endpoints_round_outward(v):
    # the constructor rounds exact endpoints outward, as from_fraction does
    x = RealInterval(v, v)
    _assert_adjacent_enclosure(x.lo, x.hi, Fraction(v))
    y = RealInterval.from_fraction(Fraction(v))
    assert (x.lo, x.hi) == (y.lo, y.hi) and x.lo < x.hi


@pytest.mark.parametrize(
    "v",
    [np.int64(2**60 + 1), np.int64(-(2**60) - 1), np.uint64(2**64 - 1), np.int32(7)],
    ids=["int64-big", "int64-neg-big", "uint64-max", "int32-small"],
)
def test_numpy_integer_endpoints_round_outward(v):
    # numpy integers are exact integers: the constructor and point round
    # them outward as they do a Python int, never to nearest by float()
    exact = int(v)
    want = RealInterval.point(exact)
    for x in (RealInterval(v, v), RealInterval.point(v)):
        _assert_adjacent_enclosure(x.lo, x.hi, Fraction(exact))
        assert (x.lo, x.hi) == (want.lo, want.hi)
        assert type(x.lo) is float and type(x.hi) is float


@pytest.mark.parametrize(
    "fr",
    [
        Fraction(0),
        Fraction(3, 4),
        Fraction(1, 3),
        Fraction(-1, 3),
        Fraction(2**60 + 1),
        Fraction(1537, 64),
        Fraction(1, 7 * 2**1070),
        Fraction(-(10**400), 3),
        Fraction(10**400, 3),
    ],
    ids=["zero", "exact", "third", "neg-third", "big", "base", "subnormal", "overflow-neg", "overflow"],
)
def test_from_fraction_rounds_outward_to_adjacent_doubles(fr):
    iv = RealInterval.from_fraction(fr)
    _assert_adjacent_enclosure(iv.lo, iv.hi, fr)
    if math.isfinite(iv.lo) and Fraction(iv.lo) == fr:  # a double is its own point
        assert iv.hi == iv.lo


@settings(max_examples=200, deadline=None)
@given(st.integers(-(2**200), 2**200), st.integers(1, 2**200))
def test_from_fraction_random_fractions(n, d):
    fr = Fraction(n, d)
    iv = RealInterval.from_fraction(fr)
    _assert_adjacent_enclosure(iv.lo, iv.hi, fr)


# ---------------------------------------------------------------------------
# float fast paths against their exact forms


def _prod_is_exact_rational(a: float, b: float, p: float) -> bool:
    """The exact form of _prod_is_exact."""
    if not (math.isfinite(a) and math.isfinite(b) and math.isfinite(p)):
        return False
    return Fraction(a) * Fraction(b) == Fraction(p)


def _ratio_ends_integer(n: int, d: int) -> tuple[float, float]:
    """The integer form of _ratio_ends: n 2^k / d floored to >= 54 bits, then to 53."""
    k = max(54 + d.bit_length() - abs(n).bit_length(), 0)
    return _narrow((n << k) // d, -((-n << k) // d), -k)


def _bits(ends) -> tuple[str, ...]:
    """Endpoints bit for bit: float.hex tells -0.0 from 0.0."""
    return tuple(x.hex() for x in ends)


_SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.0**-1022, math.inf, -math.inf, math.nan,
            2.0**-480, 2.0**480, math.nextafter(2.0**-480, 0.0), math.nextafter(2.0**480, math.inf)]


@st.composite
def _doubles(draw):
    """Doubles of few or many mantissa bits, many near the Dekker range limits 2^-+480."""
    kind = draw(st.sampled_from(["grid", "grid", "any", "special"]))
    if kind == "any":
        return draw(st.floats(allow_subnormal=True))
    if kind == "special":
        return draw(st.sampled_from(_SPECIAL))
    m = draw(st.integers(1, 2**8) | st.integers(2**26 - 4, 2**27 + 4) | st.integers(1, 2**53 - 1))
    e = draw(st.integers(-1074, 1023) | st.integers(-600, -440) | st.integers(440, 600) | st.integers(-4, 4))
    x = math.ldexp(m, e - m.bit_length())  # |x| in [2^(e-1), 2^e)
    return -x if draw(st.booleans()) else x


@settings(max_examples=1500, deadline=None)
@given(_doubles(), _doubles(), st.sampled_from(["product", "above", "below", "other"]), _doubles())
def test_prod_is_exact_agrees_with_rational_test(a, b, which, other):
    p = a * b
    p = {
        "product": p,
        "above": math.nextafter(p, math.inf),
        "below": math.nextafter(p, -math.inf),
        "other": other,
    }[which]
    assert _prod_is_exact(a, b, p) == _prod_is_exact_rational(a, b, p), (a, b, p)


@pytest.mark.parametrize("ea", [-1074, -600, -540, -481, -480, -479, -1, 0, 26, 479, 480, 481, 540, 600, 1000])
@pytest.mark.parametrize("eb", [-600, -540, -481, -480, -479, 0, 479, 480, 481, 540])
def test_prod_is_exact_at_the_range_limits(ea, eb):
    # small-integer and dyadic factors with exact products, 53-bit
    # factors with inexact ones, each side of both limits of the Dekker
    # range; 2^-540 squared is subnormal, where the error term underflows
    for ma, mb in ((1, 1), (3, 5), (2**26 + 1, 2**26 - 1), (2**27 + 1, 2**27 + 3), (2**53 - 1, 2**53 - 3)):
        for sa, sb in ((1, 1), (-1, 1), (-1, -1)):
            a = sa * math.ldexp(ma, ea - ma.bit_length() + 1)
            b = sb * math.ldexp(mb, eb - mb.bit_length() + 1)
            if not (math.isfinite(a) and math.isfinite(b)):
                continue
            p = a * b
            for q in (p, math.nextafter(p, math.inf), math.nextafter(p, -math.inf), 0.0, -0.0):
                assert _prod_is_exact(a, b, q) == _prod_is_exact_rational(a, b, q), (a, b, q)


@st.composite
def _ratios(draw):
    """(n, d), d > 0, with n/d from about 2^-1100 to 2^1100."""
    kind = draw(st.sampled_from(["random", "unreduced", "dyadic", "zero"]))
    sign = draw(st.sampled_from([1, -1]))
    if kind == "zero":
        return 0, draw(st.integers(1, 2**200))
    if kind == "dyadic":
        m = draw(st.integers(1, 2**60))
        i, j = draw(st.integers(0, 1100)), draw(st.integers(0, 1100))
        return sign * (m << i), 1 << j
    db = draw(st.integers(1, 600))
    d = draw(st.integers(2 ** (db - 1), 2**db - 1))
    nb = max(db + draw(st.integers(-1100, 1100)), 1)
    n = sign * draw(st.integers(2 ** (nb - 1), 2**nb - 1))
    if kind == "unreduced":
        g = draw(st.integers(2, 2**100))
        n, d = n * g, d * g
    return n, d


@settings(max_examples=1500, deadline=None)
@given(_ratios())
def test_ratio_ends_agree_with_the_integer_path(nd):
    n, d = nd
    assert _bits(_ratio_ends(n, d)) == _bits(_ratio_ends_integer(n, d)), (n, d)


_MAX_INT = int(sys.float_info.max)


@pytest.mark.parametrize(
    "n, d",
    [
        (0, 1),
        (0, 3**50),
        (1, 2**1074),  # the smallest subnormal
        (1, 2**1075),  # half of it: rounds to 0.0
        (-1, 2**1075),
        (3, 2**1076),
        (1, 3 * 2**1074),
        (-(10**400), 3),  # overflows
        (_MAX_INT, 1),
        (_MAX_INT + 1, 1),
        (-(_MAX_INT + 2**969), 1),  # halfway to 2^1024: OverflowError
        (_MAX_INT + 2**969 - 1, 1),
        (2**1024 * 7, 7),  # the same ratio unreduced
        (2**1023 * 12, 6),
        (6 * (2**53 + 1), 6),
    ],
)
def test_ratio_ends_at_the_double_range_limits(n, d):
    assert _bits(_ratio_ends(n, d)) == _bits(_ratio_ends_integer(n, d))
    _assert_adjacent_enclosure(*_ratio_ends(n, d), Fraction(n, d))


# ---------------------------------------------------------------------------
# structural


def test_invalid_endpoints_rejected():
    with pytest.raises(ValueError):
        RealInterval(2, 1)


def test_tier_mixing_rejected():
    # an mpmath.iv interval is refused, never collapsed to a point
    with pytest.raises((TypeError, ValueError, NotImplementedError)):
        RealInterval(1, 2) + iv.mpf([1, 2])
    with pytest.raises((TypeError, ValueError, NotImplementedError)):
        iv.mpf([1, 2]) * RealInterval(1, 2)


def test_sign_and_zero_queries():
    assert RealInterval(1, 2).sign() == 1
    assert RealInterval(-2, -1).sign() == -1
    assert RealInterval(-1, 1).sign() == 0
    assert RealInterval(-1, 1).contains_zero()
    assert not RealInterval(1, 2).contains_zero()


def test_pad_widens_both_sides():
    x = RealInterval(1, 2).pad(RealInterval.point(0.5))
    assert x.lo <= 0.5 and x.hi >= 2.5
