"""Vectorized interval arrays: containment against exact references."""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from grhdesk.errors import DivisorContainsZero, LogDomain
from grhdesk.interval import ComplexBox, RealInterval
from grhdesk.ivec import _KA, _KT, CVec, IVec, _dn_arr, _up_arr, op_counter

RNG = np.random.default_rng(20260822)


def rand_ivec(n, scale=10.0, width=1e-6):
    mid = RNG.uniform(-scale, scale, n)
    rad = RNG.uniform(0, width, n)
    return IVec(mid - rad, mid + rad)


def contains_all(v: IVec, pts: np.ndarray) -> bool:
    return bool(np.all((v.lo <= pts) & (pts <= v.hi)))


# ---------------------------------------------------------------------------
# elementwise arithmetic containment


def test_add_sub_mul_div_containment():
    n = 4096
    a = rand_ivec(n)
    b = rand_ivec(n)
    pa = a.mid()
    pb = b.mid()
    assert contains_all(a + b, pa + pb)
    assert contains_all(a - b, pa - pb)
    assert contains_all(a * b, pa * pb)
    cm = np.abs(pb) + 0.5
    c = IVec(cm - 1e-9, cm + 1e-9)
    assert contains_all(a / c, pa / cm)


def test_from_ratios_rounds_as_from_fraction():
    # both signs, zero, exact quotients and numerators near 2^53
    rng = np.random.default_rng(20261019)
    for den in (1, 3, 12, 2048, 1009 * 2048, 2**52 - 1):
        num = np.concatenate([
            rng.integers(-(2**52), 2**52, 500),
            rng.integers(-5000, 5000, 500),
            [0, 1, -1, den, -den, 7 * den],
        ])
        v = IVec.from_ratios(num, den)
        for i, n in enumerate(num.tolist()):
            ref = RealInterval.from_fraction(Fraction(n, den))
            assert (v.lo[i], v.hi[i]) == (ref.lo, ref.hi), (n, den)


def test_mul_exact_rational_check():
    # spot-check corner products against rational arithmetic
    a = rand_ivec(256, scale=3.0, width=0.5)
    b = rand_ivec(256, scale=3.0, width=0.5)
    p = a * b
    for i in range(0, 256, 37):
        corners = [
            Fraction(x) * Fraction(y)
            for x in (a.lo[i], a.hi[i])
            for y in (b.lo[i], b.hi[i])
        ]
        assert Fraction(float(p.lo[i])) <= min(corners)
        assert Fraction(float(p.hi[i])) >= max(corners)


def test_div_by_straddling_interval_raises():
    a = rand_ivec(8)
    b = IVec(np.full(8, -1.0), np.full(8, 1.0))
    with pytest.raises(DivisorContainsZero):
        a / b


def test_square_nonnegative_and_containment():
    a = IVec(np.array([-2.0, -1e-3, 0.5]), np.array([1.0, 2e-3, 0.75]))
    s = a.square()
    assert np.all(s.lo >= 0.0)
    assert s.lo[0] == 0.0
    assert contains_all(s, np.array([4.0, 0.0, 0.36]) * 0 + np.array([1.0, 1e-6, 0.3025]))


def test_scalar_and_interval_broadcast():
    a = rand_ivec(64)
    r = RealInterval(2.0, 2.0 + 1e-9)
    out = a * r + 1.0
    pts = a.mid() * 2.0 + 1.0
    lo_ok = out.lo <= pts + 1e-7
    hi_ok = pts - 1e-7 <= out.hi
    assert np.all(lo_ok & hi_ok)


# ---------------------------------------------------------------------------
# transcendental containment (oracle: mpmath at 120 bits on sampled entries)


@pytest.mark.parametrize("fname", ["exp", "log", "sin", "cos", "sqrt"])
def test_elementwise_function_containment(fname):
    n = 2048
    if fname in ("log", "sqrt"):
        base = np.abs(RNG.uniform(1e-8, 1e4, n)) + 1e-9
        v = IVec(base, base * (1 + 1e-12))
    elif fname == "exp":
        base = RNG.uniform(-600.0, 600.0, n)
        v = IVec(base, base + 1e-9)
    else:
        base = RNG.uniform(-1e5, 1e5, n)
        v = IVec(base, base + RNG.uniform(0, 1e-4, n))
    out = getattr(v, fname)()
    with mpmath.workprec(120):
        for i in range(0, n, 101):
            for endpoint in (v.lo[i], v.hi[i]):
                ref = getattr(mpmath, fname)(mpmath.mpf(float(endpoint)))
                assert float(out.lo[i]) <= float(ref) <= float(out.hi[i]), (
                    fname,
                    endpoint,
                )


def test_arithmetic_rounds_one_ulp_outward():
    # as the scalar RealInterval: one ulp each side, also at powers of two,
    # where the ulp below is half the ulp above
    rng = np.random.default_rng(11)
    x = rng.uniform(1.0, 2.0, 4096) * 2.0 ** rng.integers(-900, 900, 4096)
    x = np.concatenate([x, 2.0 ** np.arange(-900, 900), np.nextafter(2.0 ** np.arange(-900, 900), 0)])
    x = np.concatenate([x, -x, [0.0, 5e-324, -1e-310]])
    for part in (x, x[:64], x[-64:]):  # the shift form and np.nextafter
        v = IVec.from_points(part) + 0.0
        assert np.array_equal(v.lo, np.nextafter(part, -np.inf))
        assert np.array_equal(v.hi, np.nextafter(part, np.inf))
    inf = IVec(np.array([-np.inf, 1.0]), np.array([1.0, np.inf])) * 2.0
    assert inf.lo[0] == -np.inf and inf.hi[1] == np.inf


@pytest.mark.parametrize("n", [4, 300])  # np.nextafter and the shift form
def test_overflowed_endpoints_stay_finite_on_the_inner_side(n):
    # a finite product that overflows rounds to inf; the enclosure keeps
    # the largest double on its inner side, at either size and sign
    big = np.finfo(np.float64).max
    up = IVec.from_points(np.full(n, 1e200)) * 1e200
    assert np.all(up.lo == big) and np.all(up.hi == np.inf)
    down = IVec.from_points(np.full(n, -1e200)) * 1e200
    assert np.all(down.lo == -np.inf) and np.all(down.hi == -big)
    # the same at the transcendental allowance, and NaN stays NaN
    x = np.tile([np.inf, -np.inf, np.nan, 1.0], n // 4)
    for k in (_KA, _KT):
        lo, hi = _dn_arr(x, k), _up_arr(x, k)
        assert np.array_equal(lo[:4], [big, -np.inf, np.nan, lo[3]], equal_nan=True)
        assert np.array_equal(hi[:4], [np.inf, -big, np.nan, hi[3]], equal_nan=True)
        assert lo[3] < 1.0 < hi[3]


def test_shift_form_rounds_scalars():
    # a 0-d input, as from a 0-d IVec's exp, comes back rounded outward
    x = IVec.from_points(np.float64(1.0)).exp()
    assert x.lo < math.e < x.hi
    assert float(_dn_arr(np.float64(1.0), _KT)) < 1.0 < float(_up_arr(np.float64(1.0), _KT))


def test_exp_extreme_arguments():
    v = IVec(np.array([-800.0, 700.0, 709.9]), np.array([-750.0, 710.0, 710.0]))
    out = v.exp()
    assert np.all(out.lo >= 0.0)
    assert out.hi[0] > 0.0
    assert math.isinf(out.hi[1]) or out.hi[1] > 1e304


def test_log_domain_raises():
    with pytest.raises(LogDomain):
        IVec(np.array([0.0]), np.array([1.0])).log()


def test_trig_extrema_detected():
    # intervals straddling peaks and dips of both functions
    v = IVec(
        np.array([1.5, 4.6, -0.1, 3.0]),
        np.array([1.65, 4.8, 0.1, 3.3]),
    )
    s = v.sin()
    c = v.cos()
    assert s.hi[0] == 1.0  # pi/2 inside
    assert s.lo[1] == -1.0  # 3pi/2 inside
    assert c.hi[2] == 1.0  # 0 inside
    assert c.lo[3] == -1.0  # pi inside
    assert np.all(s.lo >= -1.0) and np.all(s.hi <= 1.0)


def test_trig_large_arguments_contain_reference():
    base = np.array([1e4, 12345.678, 99999.5, 2.5e5])
    v = IVec(base, base)
    s = v.sin()
    c = v.cos()
    with mpmath.workprec(120):
        for i, x in enumerate(base):
            assert float(s.lo[i]) <= float(mpmath.sin(mpmath.mpf(x))) <= float(s.hi[i])
            assert float(c.lo[i]) <= float(mpmath.cos(mpmath.mpf(x))) <= float(c.hi[i])


# ---------------------------------------------------------------------------
# rigorous sums


def test_sum_containment_exact_rational():
    n = 5000
    a = rand_ivec(n, scale=1e3, width=1e-9)
    s = a.sum()
    exact_lo = sum(Fraction(float(x)) for x in a.lo)
    exact_hi = sum(Fraction(float(x)) for x in a.hi)
    assert s.lo_fraction() <= exact_lo
    assert exact_hi <= s.hi_fraction()


def test_sum_cancellation_heavy():
    x = np.array([1e16, 1.0, -1e16, 1e-8] * 250)
    a = IVec(x, x)
    s = a.sum()
    exact = sum(Fraction(float(v)) for v in x)
    assert s.lo_fraction() <= exact <= s.hi_fraction()


def test_sum_axis_reduction():
    m = rand_ivec(600).reshape(6, 100)
    s = m.sum(axis=1)
    assert s.shape == (6,)
    total = s.sum()
    full = m.sum()
    assert total.intersects(full)


# ---------------------------------------------------------------------------
# complex vectors


def test_cvec_mul_matches_complex_arithmetic():
    n = 512
    za = RNG.uniform(-5, 5, n) + 1j * RNG.uniform(-5, 5, n)
    zb = RNG.uniform(-5, 5, n) + 1j * RNG.uniform(-5, 5, n)
    va = CVec.from_points(za)
    vb = CVec.from_points(zb)
    prod = va * vb
    ref = za * zb
    assert contains_all(prod.re, ref.real)
    assert contains_all(prod.im, ref.imag)


def test_cvec_exp_contains_reference():
    z = np.array([0.5 + 1.0j, -2.0 + 3.0j, 0.0 + 0.0j, 1.5 - 0.5j])
    v = CVec.from_points(z).exp()
    ref = np.exp(z)
    pad = np.abs(ref) * 1e-13 + 1e-300
    assert np.all(v.re.lo <= ref.real + pad) and np.all(ref.real - pad <= v.re.hi)
    assert np.all(v.im.lo <= ref.imag + pad) and np.all(ref.imag - pad <= v.im.hi)


def test_cvec_scalar_complex_and_box():
    v = CVec.from_points(np.array([1.0 + 0j, 0 + 1j]))
    w = v * (0 + 1j)
    assert w[0].im.contains(1) and w[1].re.contains(-1)
    box = ComplexBox.point(2 + 0j)
    u = v * box
    assert u[0].re.contains(2)


def test_cvec_sum_and_conj():
    z = RNG.uniform(-1, 1, 100) + 1j * RNG.uniform(-1, 1, 100)
    v = CVec.from_points(z)
    s = v.sum()
    assert s.re.contains_zero() or abs(s.re.mid() - z.real.sum()) < 1e-10
    total = complex(z.sum())
    assert s.re.lo <= total.real <= s.re.hi
    assert s.im.lo <= total.imag <= s.im.hi
    c = v.conj().sum()
    assert abs(c.im.mid() + total.imag) < 1e-10


# ---------------------------------------------------------------------------
# structure and counters


def test_indexing_and_concat():
    a = rand_ivec(10)
    one = a[3]
    assert isinstance(one, RealInterval)
    part = a[2:5]
    assert isinstance(part, IVec) and len(part) == 3
    back = IVec.concatenate([a[:5], a[5:]])
    assert np.array_equal(back.lo, a.lo)


def test_take_and_reshape():
    a = rand_ivec(12)
    idx = np.array([0, 5, 11])
    t = a.take(idx)
    assert t.lo[1] == a.lo[5]
    m = a.reshape(3, 4)
    assert m.shape == (3, 4)


def test_op_counter_scales_with_size():
    op_counter.reset()
    a = rand_ivec(1000)
    b = rand_ivec(1000)
    _ = a * b
    first = op_counter.count
    _ = a * b
    assert op_counter.count == 2 * first
    assert first >= 1000


def test_invalid_endpoints_rejected():
    with pytest.raises(ValueError):
        IVec(np.array([1.0]), np.array([0.5]))


@pytest.mark.parametrize("lo, hi", [(np.nan, 1.0), (0.0, np.nan), (np.nan, np.nan)])
def test_nan_endpoints_rejected(lo, hi):
    # as RealInterval: any entry with not lo <= hi, NaN included
    with pytest.raises(ValueError):
        RealInterval(lo, hi)
    with pytest.raises(ValueError):
        IVec(np.array([0.0, lo]), np.array([1.0, hi]))
    with pytest.raises(ValueError):
        CVec(IVec(np.array([lo]), np.array([hi])), IVec.zeros(1))
    # the internal path takes its endpoints as they come
    v = IVec(np.array([lo]), np.array([hi]), _checked=True)
    assert np.isnan(v.lo[0]) or np.isnan(v.hi[0])


# ---------------------------------------------------------------------------
# property: random expression containment


@settings(max_examples=60, deadline=None)
@given(
    hnp.arrays(
        np.float64,
        st.integers(min_value=1, max_value=30),
        elements=st.floats(min_value=-30, max_value=30, allow_nan=False),
    ),
    st.lists(st.sampled_from(["add", "mul", "sin", "cos", "exp", "square"]), min_size=1, max_size=5),
)
def test_random_pipeline_containment(pts, ops):
    v = IVec.from_points(pts)
    ref = pts.astype(np.float64).copy()
    with mpmath.workprec(150):
        refs = [mpmath.mpf(float(x)) for x in ref]
        for op in ops:
            if op == "add":
                v = v + 1.25
                refs = [r + mpmath.mpf(1.25) for r in refs]
            elif op == "mul":
                v = v * 0.5
                refs = [r * mpmath.mpf(0.5) for r in refs]
            elif op == "sin":
                v = v.sin()
                refs = [mpmath.sin(r) for r in refs]
            elif op == "cos":
                v = v.cos()
                refs = [mpmath.cos(r) for r in refs]
            elif op == "exp":
                if any(abs(r) > 300 for r in refs):
                    return
                v = v.exp()
                refs = [mpmath.exp(r) for r in refs]
            elif op == "square":
                v = v.square()
                refs = [r * r for r in refs]
            if any(abs(r) > 1e150 for r in refs):
                return
        for i, r in enumerate(refs):
            assert float(v.lo[i]) <= float(r) <= float(v.hi[i]), (ops, pts[i])


# ---------------------------------------------------------------------------
# CVec block kernels against the per-part reference
#
# The reference is the complex arithmetic written out over the two IVec
# parts, (re, im); every block kernel must give its endpoints bit for bit,
# and tally the same op_counter work.


def ref_mul(a, b):
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def ref_mul_real(a, r):
    return a[0] * r, a[1] * r


def ref_add(a, b):
    return a[0] + b[0], a[1] + b[1]


def ref_sub(a, b):
    return a[0] - b[0], a[1] - b[1]


def ref_exp(a):
    r = a[0].exp()
    return r * a[1].cos(), r * a[1].sin()


def parts(v: CVec):
    return v.re.copy(), v.im.copy()


def point_parts(z):
    z = np.asarray(z, dtype=np.complex128)
    return IVec.from_points(z.real), IVec.from_points(z.imag)


def box_parts(b: ComplexBox):
    return (
        IVec(np.asarray(b.re.lo), np.asarray(b.re.hi), _checked=True),
        IVec(np.asarray(b.im.lo), np.asarray(b.im.hi), _checked=True),
    )


def hexes(re: IVec, im: IVec) -> list[str]:
    ends = np.stack([re.lo, re.hi, im.lo, im.hi])
    return [float.hex(x) for x in ends.reshape(-1).tolist()]


def assert_same(v: CVec, ref):
    assert v.shape == ref[0].shape == ref[1].shape
    assert hexes(v.re, v.im) == hexes(*ref)


# endpoints where the two rounding forms differ (powers of two near the
# normal range's bottom), signed zeros, subnormals, infinities and NaN
SPECIAL = np.array(
    [0.0, -0.0, 5e-324, -5e-324, 1e-310, -3e-320, 2.0**-1022, -(2.0**-1021),
     1.5, -2.75, 1e300, -1e300, np.finfo(np.float64).max, np.inf, -np.inf, np.nan]
)


def special_ivec(shape, rng, finite=False):
    """Intervals with ends drawn from SPECIAL and ordinary values, lo <= hi
    where both are numbers, NaN ends left as drawn."""
    pool = SPECIAL[np.isfinite(SPECIAL)] if finite else SPECIAL
    n = int(np.prod(shape))
    a = np.where(rng.random(n) < 0.4, rng.choice(pool, n), rng.normal(0, 4, n))
    b = np.where(rng.random(n) < 0.4, rng.choice(pool, n), a + rng.uniform(0, 1e-6, n))
    with np.errstate(invalid="ignore"):
        lo, hi = np.where(a <= b, a, b), np.where(a <= b, b, a)
    lo = np.where(np.isnan(a) | np.isnan(b), a, lo)
    hi = np.where(np.isnan(a) | np.isnan(b), b, hi)
    return IVec(lo.reshape(shape), hi.reshape(shape), _checked=True)


def special_cvec(shape, rng, finite=False):
    return CVec(special_ivec(shape, rng, finite), special_ivec(shape, rng, finite))


def counted(fn):
    op_counter.reset()
    out = fn()
    return out, op_counter.count


# (left shape, right shape): equal, 0-size, (k, 1) x (k, n), lower rank on
# either side, and per-part sizes 256 and 257 on either side of _NEXTAFTER_MAX
SHAPES = [
    ((5,), (5,)), ((0,), (0,)), ((3, 0), (3, 1)), ((4, 1), (4, 6)), ((6,), (4, 6)),
    ((4, 6), (6,)), ((), (3,)), ((256,), (256,)), ((257,), (257,)), ((257, 1), (1,)),
    ((16, 16), (16, 1)), ((1, 257), (2, 257)),
]


@pytest.mark.parametrize("sa, sb", SHAPES)
def test_cvec_binary_kernels_match_the_reference(sa, sb):
    with np.errstate(all="ignore"):
        rng = np.random.default_rng(hash((sa, sb)) % 2**32)
        a, b = special_cvec(sa, rng), special_cvec(sb, rng)
        ra, rb = parts(a), parts(b)
        r = special_ivec(sb, rng)
        x = rng.normal(size=sb)
        cases = [
            ("mul", lambda: a * b, lambda: ref_mul(ra, rb)),
            ("rmul", lambda: b * a, lambda: ref_mul(rb, ra)),
            ("add", lambda: a + b, lambda: ref_add(ra, rb)),
            ("sub", lambda: a - b, lambda: ref_sub(ra, rb)),
            ("rsub", lambda: b - a, lambda: ref_sub(rb, ra)),
            ("mul ivec", lambda: a * r, lambda: ref_mul_real(ra, r)),
            ("mul real array", lambda: a * x, lambda: ref_mul_real(ra, x)),
            ("mul complex array", lambda: a * (x + 0.5j), lambda: ref_mul(ra, point_parts(x + 0.5j))),
        ]
        for name, kernel, ref in cases:
            (out, n_out), (want, n_want) = counted(kernel), counted(ref)
            assert_same(out, want)
            assert n_out == n_want, name


@pytest.mark.parametrize("shape", [(0,), (3,), (2, 5), (256,), (257,), (3, 1, 257)])
def test_cvec_unary_kernels_match_the_reference(shape):
    with np.errstate(all="ignore"):
        rng = np.random.default_rng(sum(shape) + len(shape))
        v = special_cvec(shape, rng)
        rv = parts(v)
        box = ComplexBox(RealInterval(-0.5, 2.0**-1022), RealInterval(0.0, 3.0))
        iv = RealInterval(-1.0, 3.0)
        rad = np.abs(rng.normal(size=shape[-1:])) * 1e-3
        cases = [
            ("neg", lambda: -v, lambda: (-rv[0], -rv[1])),
            ("conj", lambda: v.conj(), lambda: (rv[0], -rv[1])),
            ("mul_i", lambda: v.mul_i(), lambda: (-rv[1], rv[0])),
            ("mul box", lambda: v * box, lambda: ref_mul(rv, box_parts(box))),
            ("add box", lambda: v + box, lambda: ref_add(rv, box_parts(box))),
            ("sub box", lambda: v - box, lambda: ref_sub(rv, box_parts(box))),
            ("mul complex", lambda: v * (0.25 - 2j), lambda: ref_mul(rv, point_parts(0.25 - 2j))),
            ("add real", lambda: v + 0.0, lambda: ref_add(rv, point_parts(0.0))),
            ("rsub real", lambda: 1.0 - v, lambda: ref_add((-rv[0], -rv[1]), point_parts(1.0))),
            ("mul interval", lambda: v * iv, lambda: ref_mul_real(rv, iv)),
            ("mul scalar", lambda: 3.0 * v, lambda: ref_mul_real(rv, 3.0)),
            ("pad", lambda: v.pad(rad), lambda: (rv[0].pad(rad), rv[1].pad(rad))),
            ("pad scalar", lambda: v.pad(0.0), lambda: (rv[0].pad(0.0), rv[1].pad(0.0))),
        ]
        for name, kernel, ref in cases:
            (out, n_out), (want, n_want) = counted(kernel), counted(ref)
            assert_same(out, want)
            assert n_out == n_want, name


@pytest.mark.parametrize("shape", [(0,), (4,), (256,), (257,), (3, 90)])
def test_cvec_exp_matches_the_reference(shape):
    rng = np.random.default_rng(7 + sum(shape))
    v = special_cvec(shape, rng, finite=True) * 1e-300  # ends in exp's range
    (out, n_out), (want, n_want) = counted(v.exp), counted(lambda: ref_exp(parts(v)))
    assert_same(out, want)
    assert n_out == n_want


def test_cvec_pad_broadcasts_up_the_radius():
    v = CVec.from_points(np.array([1.0 + 2j, -3.0]))
    rad = np.array([[0.0], [0.5], [2.0]])
    assert_same(v.pad(rad), (v.re.pad(rad), v.im.pad(rad)))
    with pytest.raises(ValueError):
        v.pad(-1.0)


def test_cvec_rounding_switch_is_per_part():
    # 200 cells make an 800-endpoint block, yet each part rounds as a
    # 200-element IVec: by np.nextafter, one ulp below 2^-1022, where the
    # shift form of a 257-element part moves two
    tiny = 2.0**-1022
    for n, step in ((200, np.nextafter(tiny, 0)), (257, tiny - 2 * 5e-324)):
        v = CVec.from_points(np.full(n, tiny + 1j * tiny)) + 0.0
        assert np.all(v.re.lo == step) and np.all(v.im.lo == step), n


def test_cvec_structure_kernels_match_the_parts():
    rng = np.random.default_rng(3)
    v = special_cvec((3, 4, 5), rng)
    re, im = parts(v)

    def same(out, f):
        assert_same(out, (IVec(f(re.lo), f(re.hi), _checked=True), IVec(f(im.lo), f(im.hi), _checked=True)))

    idx = np.array([[2, 0], [1, 1]])
    same(v.take(idx), lambda a: a[idx])
    same(v.take(np.array([], dtype=np.intp)), lambda a: a[np.array([], dtype=np.intp)])
    same(v.reshape(12, 5), lambda a: a.reshape(12, 5))
    same(v.reshape((5, -1)), lambda a: a.reshape(5, -1))
    same(v.moveaxis(-1, 0), lambda a: np.moveaxis(a, -1, 0))
    same(v.moveaxis(0, -2), lambda a: np.moveaxis(a, 0, -2))
    same(v.take_last(np.array([4, 0, 4])), lambda a: np.take(a, [4, 0, 4], axis=-1))
    same(CVec.concatenate([v, v[:, :2]], axis=-2), lambda a: np.concatenate([a, a[:, :2]], axis=-2))
    same(CVec.concatenate([v[:1], v]), lambda a: np.concatenate([a[:1], a]))
    same(v[..., 1:4:2], lambda a: a[..., 1:4:2])
    same(v[-1], lambda a: a[-1])
    same(v[:, None, -2], lambda a: a[:, None, -2])
    same(v.copy(), lambda a: a.copy())
    same(CVec.zeros((0, 2)), lambda a: np.zeros((0, 2)))
    cell = v[2, -1, 3]
    assert isinstance(cell, ComplexBox)
    assert [float.hex(x) for x in (cell.re.lo, cell.re.hi, cell.im.lo, cell.im.hi)] == [
        float.hex(float(x[2, -1, 3])) for x in (re.lo, re.hi, im.lo, im.hi)
    ]
    # iteration walks the first data axis, down to ComplexBoxes
    rows = list(v)
    assert len(rows) == len(v) == 3 and all(isinstance(r, CVec) for r in rows)
    cells = [c for row in v[0] for c in row]
    assert len(cells) == 20 and all(isinstance(c, ComplexBox) for c in cells)
    assert list(CVec.zeros(0)) == []


def test_cvec_re_and_im_are_views_of_one_block():
    v = CVec.from_points(np.arange(6.0).reshape(2, 3) * (1 + 1j))
    assert v.e.shape == (2, 2, 2, 3) and v.e.dtype == np.float64
    assert np.shares_memory(v.re.lo, v.e) and np.shares_memory(v.im.hi, v.e)
    # CVec(re, im) stacks its parts into a new block of its own
    w = CVec(v.re, v.im)
    assert not np.shares_memory(w.e, v.e) and hexes(w.re, w.im) == hexes(v.re, v.im)
    with pytest.raises(ValueError):
        CVec(v.re, v.im[:, :2])


def test_cvec_op_counter_tallies_are_pinned():
    # elements touched per operation, as the IVec operations on the parts
    a = CVec.from_points(np.ones((3, 4)) * (1 + 2j))
    b = CVec.from_points(np.ones((3, 1)) * (2 - 1j))
    r = IVec.from_points(np.ones(4))
    box = ComplexBox.point(1j)
    for fn, count in [
        (lambda: a * b, 6 * 12),
        (lambda: a * box, 6 * 12),
        (lambda: a * r, 2 * 12),
        (lambda: a * 2.0, 2 * 12),
        (lambda: a + b, 2 * 12),
        (lambda: a - box, 2 * 12),
        (lambda: a.exp(), 5 * 12),
        (lambda: -a, 0),
        (lambda: a.conj(), 0),
        (lambda: a.mul_i(), 0),
        (lambda: a.pad(1e-3), 0),
        (lambda: a.take(np.array([0, 2])), 0),
        (lambda: a.sum(axis=0), 2 * 12),
    ]:
        assert counted(fn)[1] == count
