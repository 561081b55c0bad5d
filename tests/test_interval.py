"""Interval arithmetic one cell at a time: containment, rounding, cells.

Every operation here is the array tier's (ivec) on zero-dimensional
arrays, read back as interval cells; the cells themselves do no
arithmetic.  Tests parametrized by ``oracle`` check the hardware result
on their own terms ("hardware"), and then also that it holds mpmath.iv's
enclosure of the same expression at 128 bits ("bigfloat(128)").

The elementary functions tested here are the package's two sources of
them: of interval arguments, the array tier's numpy kernels; at exact
points, the exact kernel's fixed-point balls (balls), narrowed to
doubles once.  The exact rounding primitives (balls._narrow and
balls.ratio_ends) are checked against their exact forms.
"""

import math
import sys
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from mpmath import iv

from grhdesk import balls
from grhdesk.errors import LogDomain, NegativeSqrtDomain, NonPositiveRealPart
from grhdesk.balls import GAMMA_PREC, _half_log_fixed, _narrow, exp_ball, log_gamma, narrow_ball, ratio_ends
from grhdesk.interval import ComplexBox, RealInterval
from grhdesk.ivec import CVec, IVec, pi_times

from em_oracle import covers, ends, holds, hw, iv_complex, iv_real, ivprec

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
    assert Fraction(x.lo) <= fr <= Fraction(x.hi), (x, mp_value)


def point(x: float) -> RealInterval:
    return RealInterval(x, x)


# ---------------------------------------------------------------------------
# operation dispatch by name (used by the randomized containment suites)

_ARITH = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
    "sqrt": lambda a, b: a.sqrt(),
}


def _vec(a: RealInterval) -> IVec:
    """A cell as a zero-dimensional IVec."""
    return IVec(a.lo, a.hi)


def arith(op: str, a: RealInterval, b: RealInterval = None) -> RealInterval:
    """Named operation: add, sub, mul, and unary sqrt (b ignored), as the
    array tier's kernel on one cell."""
    return _ARITH[op](_vec(a), None if b is None else _vec(b))[()]


def elem(f: str, a: RealInterval) -> RealInterval:
    """Named elementary function of an interval: exp, log, sin, cos, as
    the array tier's kernel on one cell."""
    return getattr(_vec(a), f)()[()]


def _fixed(x: float) -> int:
    """A double exactly as a multiple of 2^-GAMMA_PREC (every test point is one)."""
    v = Fraction(x) * 2**GAMMA_PREC
    assert v.denominator == 1, x
    return int(v)


def point_elem(f: str, x: float) -> RealInterval:
    """Named elementary function at an exact double: exp, sin and cos as one
    balls.exp_ball, log from balls._half_log_fixed, each narrowed once."""
    if f == "log":
        n, d = x.as_integer_ratio()
        mid, rad = _half_log_fixed(n, d)
        return RealInterval(*_narrow(2 * (mid - rad), 2 * (mid + rad), -GAMMA_PREC))
    X = _fixed(x)
    ball = exp_ball((X, 0, 0, -GAMMA_PREC) if f == "exp" else (0, X, 0, -GAMMA_PREC))
    ends = narrow_ball(ball, False)
    return RealInterval(*(ends[2:] if f == "sin" else ends[:2]))


ARITH_OPS = tuple(_ARITH)
ELEM_OPS = ("exp", "log", "sin", "cos")


# ---------------------------------------------------------------------------
# arithmetic


def _out(lo: float, hi: float) -> tuple[float, float]:
    """lo and hi each moved one ulp outward."""
    return math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)


@ORACLES
def test_add_exact_endpoints(oracle):
    # an exact sum is still moved one ulp outward on each side
    s = arith("add", RealInterval(1.0, 2.0), RealInterval(3.0, 4.0))
    assert (s.lo, s.hi) == _out(4.0, 6.0)
    check_oracle(s, oracle, lambda: iv.mpf([1, 2]) + iv.mpf([3, 4]))


@ORACLES
def test_mul_sign_analysis(oracle):
    p = arith("mul", RealInterval(-1.0, 1.0), RealInterval(-1.0, 1.0))
    assert (p.lo, p.hi) == _out(-1.0, 1.0)
    check_oracle(p, oracle, lambda: iv.mpf([-1, 1]) * iv.mpf([-1, 1]))


# 3 * fl(1/3) rounds to exactly 1.0, so (-3) * fl(1/3) ties the exact
# corner product 1 * (-1) at the lower endpoint; both corner orders
@pytest.mark.parametrize(
    "a, b",
    [((-3.0, 1.0), (-1.0, 1 / 3)), ((-1.0, 1 / 3), (-3.0, 1.0))],
    ids=["inexact-first", "exact-first"],
)
def test_mul_tied_corner_with_one_inexact_product_is_nudged(a, b):
    assert -3.0 * (1 / 3) == -1.0 and not _prod_is_exact_rational(-3.0, 1 / 3, -1.0)
    p = arith("mul", RealInterval(*a), RealInterval(*b))
    assert (p.lo, p.hi) == _out(-1.0, 3.0)


def _corner_reference(a, b):
    """The hull of the four corner products, NaN if any is NaN, each end
    moved one ulp outward."""
    vals = [x * y for x in (a.lo, a.hi) for y in (b.lo, b.hi)]
    if any(math.isnan(v) for v in vals):
        return math.nan, math.nan
    return _out(min(vals), max(vals))


_corner_floats = st.one_of(
    st.floats(allow_nan=False),
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 3.0, 1 / 3, -3.0, math.ulp(0.0), 2.0**-1074 * 3]),
)


@settings(max_examples=400, deadline=None)
@given(_corner_floats, _corner_floats, _corner_floats, _corner_floats)
def test_corner_loop_matches_the_all_reference(w, x, y, z):
    a = RealInterval(min(w, x), max(w, x))
    b = RealInterval(min(y, z), max(y, z))
    with np.errstate(over="ignore"):  # an end at the largest double steps to inf
        got = arith("mul", a, b)
    want = _corner_reference(a, b)
    assert (got.lo.hex(), got.hi.hex()) == (want[0].hex(), want[1].hex())


@ORACLES
def test_sqrt_domain(oracle):
    r = arith("sqrt", point(2.0))
    with mpmath.workprec(220):
        assert_contains_mp(r, mpmath.sqrt(2))
    check_oracle(r, oracle, lambda: iv.sqrt(2))
    with pytest.raises(NegativeSqrtDomain):
        arith("sqrt", RealInterval(-1.0, 1.0))


def test_sub_and_negation():
    d = arith("sub", RealInterval(1.0, 2.0), RealInterval(3.0, 4.0))
    assert (d.lo, d.hi) == _out(-3.0, -1.0)
    n = (-IVec(1.0, 2.0))[()]
    assert (n.lo, n.hi) == (-2.0, -1.0)


# ---------------------------------------------------------------------------
# elementary functions


@ORACLES
def test_exp_zero(oracle):
    r = point_elem("exp", 0.0)
    assert r.lo <= 1.0 <= r.hi
    check_oracle(r, oracle, lambda: iv.exp(0))


@ORACLES
def test_sin_over_zero_to_pi(oracle):
    x = RealInterval(0.0, pi_times(1)[()].hi)
    r = elem("sin", x)
    assert r.lo <= 0.0 and 1.0 <= r.hi
    eps = Fraction(1, 10**12)
    assert -eps <= Fraction(r.lo) and Fraction(r.hi) <= 1 + eps
    check_oracle(r, oracle, lambda: iv.sin(iv_real(x)))


@ORACLES
def test_log_exp_roundtrip(oracle):
    r = elem("log", elem("exp", point(1.0)))
    assert r.lo <= 1.0 <= r.hi
    check_oracle(r, oracle, lambda: iv.log(iv.exp(1)))


@ORACLES
def test_log_domain(oracle):
    with pytest.raises(LogDomain):
        elem("log", RealInterval(0.0, 1.0))
    # the smallest subnormal is inside the domain
    tiny = math.ulp(0.0)
    r = elem("log", RealInterval(tiny, 1.0))
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
            x = point(v)
            for fname in ELEM_OPS:
                for y in (elem(fname, x), point_elem(fname, v)):
                    if fname != "exp" or v < 700:
                        assert_contains_mp(y, getattr(mpmath, fname)(v))
                        check_oracle(y, oracle, lambda: IV_ELEM[fname](iv.mpf(v)))
            assert_contains_mp(arith("sqrt", x), mpmath.sqrt(v))
            check_oracle(arith("sqrt", x), oracle, lambda: iv.sqrt(v))


def test_pi_interval_contains_pi():
    # pi_times(1) is the two doubles around pi
    pi = pi_times(1)[()]
    assert_contains_mp(pi, mpmath.pi)
    assert (pi.lo, pi.hi) == (math.pi, math.nextafter(math.pi, math.inf))


# ---------------------------------------------------------------------------
# log_gamma: the exact kernel's fixed-point ball, narrowed to doubles and
# held to the same oracles as the interval layer


def gamma_box(z: complex) -> ComplexBox:
    """balls.log_gamma at the exact point z, narrowed to doubles."""
    re_lo, re_hi, im_lo, im_hi = narrow_ball(log_gamma(z.real, z.imag), False)
    return ComplexBox(RealInterval(re_lo, re_hi), RealInterval(im_lo, im_hi))


@ORACLES
def test_log_gamma_at_one(oracle):
    lg = gamma_box(1 + 0j)
    assert holds(lg, 0, 0)
    check_oracle(lg, oracle, lambda: iv_loggamma(1 + 0j))


@ORACLES
def test_log_gamma_at_half(oracle):
    re_lo, re_hi, im_lo, im_hi = narrow_ball(log_gamma(Fraction(1, 2), 0), False)
    lg = ComplexBox(RealInterval(re_lo, re_hi), RealInterval(im_lo, im_hi))
    with mpmath.workprec(200):
        assert_contains_mp(lg.re, mpmath.log(mpmath.sqrt(mpmath.pi)))
    assert lg.im.contains_zero()
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
    monkeypatch.setattr(balls, "_STIRLING_GOAL_BITS", 20)
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
    coefs, rems, reach, _ = balls._stirling_table(64)
    cap = balls._STIRLING_CAP
    assert len(coefs) == len(rems) == len(reach) == cap
    goal = Fraction(1, 2**64)

    def bounds(x, y):
        r = mpmath.sqrt(mpmath.mpf(x) ** 2 + mpmath.mpf(y) ** 2)
        return [Fraction(*rem) / mp_fraction(r) ** (2 * k + 1) for k, rem in enumerate(rems, 1)]

    counts = []
    for x, y in [(0.25, 0.0), (0.75, 4.0), (0.25, 8.0), (3.0, 4.0), (0.75, 16.0),
                 (0.25, 22.5), (0.5, 50.0), (0.75, 150.0), (0.5, 5000.0), (0.5, 1e8)]:
        n, K = balls._stirling_plan(x, y, reach)
        at = bounds(x + n, y)
        assert at[K - 1] <= goal, (x, y)
        assert all(b > goal for b in at[: K - 1]), (x, y)
        if n:
            assert all(b > goal for b in bounds(x + n - 1, y)), (x, y)
        else:
            counts.append(K)
    assert counts == sorted(counts, reverse=True)  # fewer terms as |w| grows
    assert balls._stirling_plan(0.25, 8.0, reach) == (9, 12)  # t = 16, parity 0
    assert balls._stirling_plan(0.75, 150.0, reach)[0] == 0  # t = 300


@pytest.mark.parametrize("x", [Fraction(1, 4), Fraction(3, 4)])
@pytest.mark.parametrize("y", [2.0, 3.0, 5.0, 8.0, -3.0, -8.0, 0.125])
def test_log_gamma_branch_past_pi(x, y):
    # with |y| small the kernel shifts many times, and the shift product's
    # argument wraps past +-pi: its atan2 alone is off by 2 pi k, which the
    # float sum of the factors' atans puts back
    n, _ = balls._stirling_plan(float(x), y, balls._stirling_table(64)[2])
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
        one = hw(iv.mpf(1))
    assert one.lo == 1.0 and one.hi == 1.0


def test_widen_pi_to_hardware_is_wider():
    with ivprec(128):
        pb = iv.pi
    ph = hw(pb)
    assert covers(ph, pb)
    assert_contains_mp(ph, mpmath.pi)
    # the two doubles around pi, as pi_times(1) gives them
    pi = pi_times(1)[()]
    assert (ph.lo, ph.hi) == (pi.lo, pi.hi)


@given(
    st.floats(min_value=-1e12, max_value=1e12, allow_nan=False),
    st.floats(min_value=0, max_value=1e-3),
)
def test_widen_roundtrip_contains(mid, rad):
    with ivprec(128):
        x = iv.mpf(mid) + iv.mpf([-rad, rad]) / 3
    back = hw(x)
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
        exact = mpmath.mpf(seed)
        acc = point(seed)
        for op, x, _ in prog:
            try:
                if op in ("add", "sub", "mul"):
                    pt_other = mpmath.mpf(x)
                    acc = arith(op, acc, point(x))
                    exact = {
                        "add": exact + pt_other,
                        "sub": exact - pt_other,
                        "mul": exact * pt_other,
                    }[op]
                elif op == "sqrt":
                    acc = arith("sqrt", acc)
                    exact = mpmath.sqrt(exact)
                elif op in ELEM_OPS:
                    if op == "exp" and exact > 300:
                        return
                    acc = elem(op, acc)
                    exact = getattr(mpmath, op)(exact)
            except (NegativeSqrtDomain, LogDomain, ValueError):
                return
            if abs(exact) > 1e100:
                return
        # mpmath compares a double with an mpf exactly, without Fractions:
        # a chain such as mul, mul, exp reaches exp(-4e13), whose Fraction
        # form needs a 2^(5.8e13) denominator and exhausts memory
        assert acc.lo <= exact <= acc.hi, (prog, seed)


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
    assert covers(elem("sin", arith("add", arith("mul", x, y), x)), want)


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
    # one balls.exp_ball at the exact point 0.5 + i, narrowed once
    z = ComplexBox(point(0.5), point(1.0))
    re_lo, re_hi, im_lo, im_hi = narrow_ball(exp_ball((_fixed(0.5), _fixed(1.0), 0, -GAMMA_PREC)), False)
    r = ComplexBox(RealInterval(re_lo, re_hi), RealInterval(im_lo, im_hi))
    with mpmath.workprec(200):
        w = mpmath.exp(mpmath.mpc(0.5, 1.0))
        assert_contains_mp(r.re, w.real)
        assert_contains_mp(r.im, w.imag)
    check_oracle(r, oracle, lambda: iv.exp(iv_complex(z)))


def test_complex_abs():
    r = CVec.from_points(complex(3, 4)).abs2().sqrt()[()]
    assert r.lo <= 5.0 <= r.hi


@settings(max_examples=200, deadline=None)
@given(finite, finite, finite, finite)
def test_complex_mul_containment(ar, ai, br, bi):
    with mpmath.workprec(212):
        za = mpmath.mpc(ar, ai)
        zb = mpmath.mpc(br, bi)
        prod = za * zb
    box = (CVec.from_points(complex(ar, ai)) * CVec.from_points(complex(br, bi)))[()]
    assert Fraction(box.re.lo) <= mp_fraction(prod.real) <= Fraction(box.re.hi)
    assert Fraction(box.im.lo) <= mp_fraction(prod.imag) <= Fraction(box.im.hi)


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
    # IVec.from_ratios rounds an exact int or Fraction outward once, as
    # ratio_ends does
    fr = Fraction(v)
    x = IVec.from_ratios(fr.numerator, fr.denominator)[()]
    _assert_adjacent_enclosure(x.lo, x.hi, fr)
    assert (x.lo, x.hi) == ratio_ends(fr.numerator, fr.denominator) and x.lo < x.hi


@pytest.mark.parametrize(
    "v",
    [np.int64(2**60 + 1), np.int64(-(2**60) - 1), np.uint64(2**64 - 1), np.int32(7)],
    ids=["int64-big", "int64-neg-big", "uint64-max", "int32-small"],
)
def test_numpy_integer_endpoints_round_outward(v):
    # numpy integers are exact integers: IVec.from_ratios rounds them
    # outward as it does a Python int, never to nearest by float()
    exact = int(v)
    want = ratio_ends(exact, 1)
    for x in (IVec.from_ratios(v, 1)[()], IVec.from_ratios([v], np.int64(1))[0]):
        _assert_adjacent_enclosure(x.lo, x.hi, Fraction(exact))
        assert (x.lo, x.hi) == want
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
    # a Fraction's ends, as IVec.from_ratios rounds them
    x = IVec.from_ratios(fr.numerator, fr.denominator)[()]
    _assert_adjacent_enclosure(x.lo, x.hi, fr)
    if math.isfinite(x.lo) and Fraction(x.lo) == fr:  # a double is its own point
        assert x.hi == x.lo


@settings(max_examples=200, deadline=None)
@given(st.integers(-(2**200), 2**200), st.integers(1, 2**200))
def test_from_fraction_random_fractions(n, d):
    fr = Fraction(n, d)
    x = IVec.from_ratios(fr.numerator, fr.denominator)[()]
    _assert_adjacent_enclosure(x.lo, x.hi, fr)


# ---------------------------------------------------------------------------
# float fast paths against their exact forms


def _prod_is_exact_rational(a: float, b: float, p: float) -> bool:
    """p equals a*b exactly, all three finite."""
    if not (math.isfinite(a) and math.isfinite(b) and math.isfinite(p)):
        return False
    return Fraction(a) * Fraction(b) == Fraction(p)


def _ratio_ends_integer(n: int, d: int) -> tuple[float, float]:
    """The integer form of ratio_ends: n 2^k / d floored to >= 54 bits, then to 53."""
    k = max(54 + d.bit_length() - abs(n).bit_length(), 0)
    return _narrow((n << k) // d, -((-n << k) // d), -k)


def _bits(ends) -> tuple[str, ...]:
    """Endpoints bit for bit: float.hex tells -0.0 from 0.0."""
    return tuple(x.hex() for x in ends)


_SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.0**-1022, math.inf, -math.inf, math.nan,
            2.0**-480, 2.0**480, math.nextafter(2.0**-480, 0.0), math.nextafter(2.0**480, math.inf)]


@st.composite
def _doubles(draw):
    """Doubles of few or many mantissa bits, many near 2^-+480 and at the ends of the double range."""
    kind = draw(st.sampled_from(["grid", "grid", "any", "special"]))
    if kind == "any":
        return draw(st.floats(allow_subnormal=True))
    if kind == "special":
        return draw(st.sampled_from(_SPECIAL))
    m = draw(st.integers(1, 2**8) | st.integers(2**26 - 4, 2**27 + 4) | st.integers(1, 2**53 - 1))
    e = draw(st.integers(-1074, 1023) | st.integers(-600, -440) | st.integers(440, 600) | st.integers(-4, 4))
    x = math.ldexp(m, e - m.bit_length())  # |x| in [2^(e-1), 2^e)
    return -x if draw(st.booleans()) else x


def _product_cells(a: float, b: float) -> tuple[RealInterval, RealInterval]:
    """The array product of the points a and b in each rounding form: a
    cell of a one-element product (np.nextafter) and of a 257-element one
    (the shift form)."""
    with np.errstate(over="ignore"):  # an end at the largest double steps to inf
        one = (IVec.from_points(a) * b)[()]
        many = (IVec.from_points(np.full(257, a)) * b)[0]
    return one, many


def _holds_product(cell: RealInterval, a: float, b: float) -> bool:
    """cell holds a*b exactly; an infinite end holds all beyond it."""
    exact = Fraction(a) * Fraction(b)
    return (cell.lo == -math.inf or Fraction(cell.lo) <= exact) and (
        cell.hi == math.inf or exact <= Fraction(cell.hi)
    )


@settings(max_examples=1500, deadline=None)
@given(_doubles(), _doubles(), st.sampled_from(["product", "above", "below", "other"]), _doubles())
def test_prod_is_exact_agrees_with_rational_test(a, b, which, other):
    # the array product of the points a and b holds a*b exactly, so it
    # holds every double p the rational test finds equal to a*b
    assume(math.isfinite(a) and math.isfinite(b))
    p = a * b
    p = {
        "product": p,
        "above": math.nextafter(p, math.inf),
        "below": math.nextafter(p, -math.inf),
        "other": other,
    }[which]
    for cell in _product_cells(a, b):
        assert _holds_product(cell, a, b), (a, b)
        if _prod_is_exact_rational(a, b, p):
            assert cell.lo <= p <= cell.hi, (a, b, p)


@pytest.mark.parametrize("ea", [-1074, -600, -540, -481, -480, -479, -1, 0, 26, 479, 480, 481, 540, 600, 1000])
@pytest.mark.parametrize("eb", [-600, -540, -481, -480, -479, 0, 479, 480, 481, 540])
def test_prod_is_exact_at_the_range_limits(ea, eb):
    # small-integer and dyadic factors with exact products, 53-bit
    # factors with inexact ones, each side of 2^-+480, into the subnormal
    # range (2^-540 squared) and past the largest double: the product of
    # the points is fl(a b) one ulp outward by np.nextafter, one or two by
    # the shift form, and holds a*b and every double equal to it
    for ma, mb in ((1, 1), (3, 5), (2**26 + 1, 2**26 - 1), (2**27 + 1, 2**27 + 3), (2**53 - 1, 2**53 - 3)):
        for sa, sb in ((1, 1), (-1, 1), (-1, -1)):
            a = sa * math.ldexp(ma, ea - ma.bit_length() + 1)
            b = sb * math.ldexp(mb, eb - mb.bit_length() + 1)
            if not (math.isfinite(a) and math.isfinite(b)):
                continue
            p = a * b
            one, many = _product_cells(a, b)
            lo2, hi2 = _out(*_out(p, p))
            assert (one.lo, one.hi) == _out(p, p), (a, b)
            assert lo2 <= many.lo <= one.lo and one.hi <= many.hi <= hi2, (a, b)
            assert _holds_product(one, a, b) and _holds_product(many, a, b), (a, b)
            for q in (p, math.nextafter(p, math.inf), math.nextafter(p, -math.inf), 0.0, -0.0):
                if _prod_is_exact_rational(a, b, q):
                    assert one.lo < q < one.hi, (a, b, q)


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
    assert _bits(ratio_ends(n, d)) == _bits(_ratio_ends_integer(n, d)), (n, d)


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
    assert _bits(ratio_ends(n, d)) == _bits(_ratio_ends_integer(n, d))
    _assert_adjacent_enclosure(*ratio_ends(n, d), Fraction(n, d))


# ---------------------------------------------------------------------------
# structural


def test_invalid_endpoints_rejected():
    # cells come from arrays only, and an array refuses ends out of order
    with pytest.raises(ValueError):
        IVec(2.0, 1.0)


def test_tier_mixing_rejected():
    # an mpmath.iv interval is refused, never collapsed to a point
    with pytest.raises((TypeError, ValueError, NotImplementedError)):
        IVec(1.0, 2.0) + iv.mpf([1, 2])
    with pytest.raises((TypeError, ValueError, NotImplementedError)):
        iv.mpf([1, 2]) * IVec(1.0, 2.0)


def test_sign_and_zero_queries():
    assert RealInterval(-1.0, 1.0).contains_zero()
    assert RealInterval(0.0, 1.0).contains_zero() and RealInterval(-1.0, -0.0).contains_zero()
    assert not RealInterval(1.0, 2.0).contains_zero()
    assert not RealInterval(-2.0, -1.0).contains_zero()
    assert RealInterval(1.0, 2.0).intersects(RealInterval(2.0, 3.0))
    assert not RealInterval(1.0, 2.0).intersects(RealInterval(math.nextafter(2.0, 3.0), 3.0))
    box = ComplexBox(RealInterval(1.0, 2.0), RealInterval(-1.0, 0.0))
    assert box.intersects(ComplexBox(RealInterval(2.0, 3.0), RealInterval(0.0, 1.0)))
    assert not box.intersects(ComplexBox(RealInterval(0.0, 3.0), RealInterval(0.5, 1.0)))


def test_pad_widens_both_sides():
    x = IVec(1.0, 2.0).pad(0.5)[()]
    assert x.lo <= 0.5 and x.hi >= 2.5


# the operators and methods a cell must not have: its arithmetic is the
# array tier's, one operation for every cell of an array
_ARITHMETIC = [
    f"__{op}__" for base in ("add", "sub", "mul", "truediv", "floordiv", "mod", "pow", "matmul")
    for op in (base, "r" + base, "i" + base)
] + ["__neg__", "__pos__", "__abs__", "__invert__", "sqrt", "pad", "square", "abs2", "conj", "exp", "log"]


@pytest.mark.parametrize("cls", [RealInterval, ComplexBox])
def test_cells_define_no_arithmetic(cls):
    assert [name for name in _ARITHMETIC if hasattr(cls, name)] == []


def test_cells_are_read_only():
    v = IVec(np.array([1.0, 2.0]), np.array([1.5, 2.5]))
    cell, box = v[1], CVec(v, -v)[0]
    assert (cell.lo, cell.hi) == (2.0, 2.5) and repr(cell) == "[2.0, 2.5]"
    assert (box.im.lo, box.im.hi) == (-1.5, -1.0)
    for obj, name in [(cell, "lo"), (cell, "hi"), (box, "re"), (box, "im")]:
        with pytest.raises(AttributeError):
            setattr(obj, name, cell)
    assert (cell.lo, cell.hi) == (2.0, 2.5)
