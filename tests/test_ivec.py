"""Vectorized interval arrays: containment against exact references."""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import ivec_oracle as O
from grhdesk import ivec
from grhdesk.errors import DivisorContainsZero, LogDomain
from grhdesk.interval import ComplexBox, RealInterval, _ratio_ends
from grhdesk.ivec import _KA, _KT, CVec, IVec, _round, op_counter

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


def _ratio_case(dtype):
    """(dtype, [(num, den), ...], one_den): numerators zero, below 2^53
    (the numpy pass), at its edge and past it; denominators likewise; an
    int64 case stays inside int64."""
    top = 2**63 - 1 if dtype is np.int64 else 2**80
    edge = [2**53 - 1, 2**53, 2**53 + 1]
    nums = st.one_of(
        st.just(0),
        st.integers(-(2**53) + 1, 2**53 - 1),
        st.sampled_from(edge + [-x for x in edge]),
        st.integers(-top, top),
    )
    dens = st.one_of(st.integers(1, 2**53 - 1), st.sampled_from(edge), st.integers(1, top))
    return st.tuples(st.just(dtype), st.lists(st.tuples(nums, dens), min_size=1, max_size=12), st.booleans())


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([np.int64, object]).flatmap(_ratio_case))
def test_from_ratios_rounds_as_from_fraction(case):
    # every entry has _ratio_ends's endpoints (RealInterval.from_fraction's),
    # down to the sign of zero, for int64 and object arrays, with one
    # denominator for every entry or one per entry
    dtype, pairs, one_den = case
    if one_den:
        pairs = [(n, pairs[0][1]) for n, _ in pairs]
    num = np.array([n for n, _ in pairs], dtype=dtype)
    den = np.array(pairs[0][1] if one_den else [d for _, d in pairs], dtype=dtype)
    v = IVec.from_ratios(num, den)
    assert v.shape == num.shape
    for i, (n, d) in enumerate(pairs):
        got = float.hex(v.lo[i]), float.hex(v.hi[i])
        assert got == tuple(map(float.hex, _ratio_ends(n, d))), (n, d)


def test_from_ratios_routes_and_refuses(monkeypatch):
    # int64 entries below 2^53 take the numpy pass, never _ratio_ends;
    # anything else, and every object array, goes entry by entry
    calls = []
    monkeypatch.setattr(ivec, "_ratio_ends", lambda n, d: calls.append((n, d)) or _ratio_ends(n, d))
    IVec.from_ratios(np.array([2**53 - 1, -(2**53) + 1, 0]), np.array([[3], [2**53 - 1]]))
    IVec.from_ratios([5, -7], 12)
    assert calls == []
    IVec.from_ratios(np.array([2**53, 1]), 3)
    IVec.from_ratios(np.array([1, 2], dtype=object), 3)
    assert calls == [(2**53, 3), (1, 3), (1, 3), (2, 3)]
    with pytest.raises(ValueError, match="positive"):
        IVec.from_ratios([1, 2], [3, 0])
    with pytest.raises(TypeError):
        IVec.from_ratios([0.5], 3)


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


def test_atan_containment():
    # large arguments, where atan flattens toward pi/2, and small ones
    rng = np.random.default_rng(27)
    base = np.concatenate([rng.uniform(-1e5, 1e5, 1024), rng.uniform(-2.0, 2.0, 1024)])
    v = IVec(base, base + 1e-9)
    out = v.atan()
    with mpmath.workprec(120):
        for i in range(0, base.size, 53):
            for endpoint in (v.lo[i], v.hi[i]):
                ref = mpmath.atan(mpmath.mpf(float(endpoint)))
                assert float(out.lo[i]) <= float(ref) <= float(out.hi[i]), endpoint


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
        lo, hi = _round(np.array([[x, x]]), k)[0]
        assert np.array_equal(lo[:4], [big, -np.inf, np.nan, lo[3]], equal_nan=True)
        assert np.array_equal(hi[:4], [np.inf, -big, np.nan, hi[3]], equal_nan=True)
        assert lo[3] < 1.0 < hi[3]


def test_shift_form_rounds_scalars():
    # a 0-d input, as from a 0-d IVec's exp, comes back rounded outward
    x = IVec.from_points(np.float64(1.0)).exp()
    assert x.lo < math.e < x.hi
    lo, hi = _round(np.array([[1.0, 1.0]]), _KT)[0]
    assert lo < 1.0 < hi


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
    a = rand_ivec(1000)
    b = rand_ivec(1000)
    start = op_counter.count
    _ = a * b
    first = op_counter.count - start
    _ = a * b
    assert op_counter.count - start == 2 * first
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
    v = IVec.from_block(np.array([[[lo], [hi]]]))
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
# block kernels against the two-array oracle
#
# ivec_oracle writes every operation out on (lo, hi) endpoint arrays, end
# by end; each IVec and CVec kernel must give its endpoints bit for bit
# (float.hex tells -0.0 from 0.0 and keeps NaN), and tally the same
# op_counter work.


def block_ivec(lo, hi):
    """The IVec on the ends lo and hi as given, unordered or NaN ends kept."""
    return IVec.from_block(np.array([[lo, hi]], dtype=np.float64))


def block_cvec(re, im):
    return CVec(block_ivec(*re), block_ivec(*im))


def hexes(*pairs) -> list[str]:
    return [float.hex(x) for lo, hi in pairs for x in np.stack([lo, hi]).reshape(-1).tolist()]


def same(out, ref):
    """out (IVec, RealInterval, CVec or ComplexBox) has the endpoints of
    ref, a (lo, hi) pair or an (re, im) pair of them, bit for bit."""
    if isinstance(out, (CVec, ComplexBox)):
        got = [(out.re.lo, out.re.hi), (out.im.lo, out.im.hi)]
    else:
        got, ref = [(out.lo, out.hi)], [ref]
    assert [np.shape(g[0]) for g in got] == [np.shape(r[0]) for r in ref]
    assert hexes(*got) == hexes(*ref)


def counted(fn):
    before = op_counter.count
    out = fn()
    return out, op_counter.count - before


def check(cases):
    for name, kernel, ref in cases:
        (out, n_out), (want, n_want) = counted(kernel), counted(ref)
        same(out, want)
        assert n_out == n_want, name


# endpoints where the two rounding forms differ (powers of two near the
# normal range's bottom), signed zeros, subnormals, infinities and NaN
SPECIAL = np.array(
    [0.0, -0.0, 5e-324, -5e-324, 1e-310, -3e-320, 2.0**-1022, -(2.0**-1021),
     1.5, -2.75, 1e300, -1e300, np.finfo(np.float64).max, np.inf, -np.inf, np.nan]
)


def special_pair(shape, rng, finite=False, positive=False):
    """(lo, hi) with ends drawn from SPECIAL and ordinary values, lo <= hi
    where both are numbers, NaN ends left as drawn; positive takes the
    ends' magnitudes, so lo >= 0."""
    pool = SPECIAL[np.isfinite(SPECIAL)] if finite else SPECIAL
    n = int(np.prod(shape))
    a = np.where(rng.random(n) < 0.4, rng.choice(pool, n), rng.normal(0, 4, n))
    b = np.where(rng.random(n) < 0.4, rng.choice(pool, n), a + rng.uniform(0, 1e-6, n))
    if positive:
        a, b = np.abs(a), np.abs(b)
    with np.errstate(invalid="ignore"):
        lo, hi = np.where(a <= b, a, b), np.where(a <= b, b, a)
    lo = np.where(np.isnan(a) | np.isnan(b), a, lo)
    hi = np.where(np.isnan(a) | np.isnan(b), b, hi)
    return lo.reshape(shape), hi.reshape(shape)


def away_from_zero(shape, rng):
    """(lo, hi) of one sign each, none containing 0: a divisor or a log
    argument when the signs are all positive."""
    lo, hi = special_pair(shape, rng, positive=True)
    lo = np.where(lo == 0.0, 5e-324, lo)
    hi = np.where(hi == 0.0, 5e-324, hi)
    return lo, hi


def signed(pair, rng):
    """pair with the sign of a random half of its entries flipped."""
    flip = rng.random(np.shape(pair[0])) < 0.5
    return np.where(flip, -pair[1], pair[0]), np.where(flip, -pair[0], pair[1])


def special_cvec(shape, rng, finite=False):
    return block_cvec(special_pair(shape, rng, finite), special_pair(shape, rng, finite))


def complex_ends(v: CVec):
    return (v.re.lo.copy(), v.re.hi.copy()), (v.im.lo.copy(), v.im.hi.copy())


def box_ends(b: ComplexBox):
    return O.ends(b.re), O.ends(b.im)


def test_round_matches_the_oracle_in_both_forms():
    # k = _KA by np.nextafter up to _NEXTAFTER_MAX elements a part and by
    # the shift form above; _KT and the trig allowance 4 always shift
    rng = np.random.default_rng(5)
    for n in (1, 16, 256, 257, 600):
        x = np.concatenate([SPECIAL, rng.normal(0, 1e3, 600)])[:n]
        for k in (_KA, _KT, 4.0):
            for parts in (1, 2, 4):
                block = np.stack([np.stack([x, -x])] * parts)
                got = _round(block.copy(), k)
                for p in range(parts):
                    assert hexes(got[p]) == hexes((O.dn(x, k), O.up(-x, k))), (n, k, parts)


# (left shape, right shape): equal, 0-size, (k, 1) x (k, n), lower rank on
# either side, and per-part sizes 256 and 257 on either side of _NEXTAFTER_MAX
SHAPES = [
    ((5,), (5,)), ((0,), (0,)), ((3, 0), (3, 1)), ((4, 1), (4, 6)), ((6,), (4, 6)),
    ((4, 6), (6,)), ((), (3,)), ((256,), (256,)), ((257,), (257,)), ((257, 1), (1,)),
    ((16, 16), (16, 1)), ((1, 257), (2, 257)),
]

UNARY_SHAPES = [(0,), (3,), (2, 5), (256,), (257,), (3, 1, 257)]


@pytest.mark.parametrize("sa, sb", SHAPES)
def test_ivec_binary_kernels_match_the_reference(sa, sb):
    with np.errstate(all="ignore"):
        rng = np.random.default_rng(hash((sa, sb, 1)) % 2**32)
        pa, pb = special_pair(sa, rng), special_pair(sb, rng)
        pd = signed(away_from_zero(sb, rng), rng)
        a, b, d = block_ivec(*pa), block_ivec(*pb), block_ivec(*pd)
        x = rng.normal(size=sb)
        iv = RealInterval(-1.5, 2.0**-1022)
        cases = [
            ("add", lambda: a + b, lambda: O.add(pa, pb)),
            ("sub", lambda: a - b, lambda: O.sub(pa, pb)),
            ("rsub", lambda: b - a, lambda: O.sub(pb, pa)),
            ("mul", lambda: a * b, lambda: O.mul(pa, pb)),
            ("rmul", lambda: b * a, lambda: O.mul(pb, pa)),
            ("div", lambda: a / d, lambda: O.div(pa, pd)),
            ("add points", lambda: a + x, lambda: O.add(pa, (x, x))),
            ("sub points", lambda: a - x, lambda: O.sub(pa, (x, x))),
            ("mul points", lambda: a * x, lambda: O.mul(pa, (x, x))),
            ("div points", lambda: a / x, lambda: O.div(pa, (x, x))),
            ("add interval", lambda: b + iv, lambda: O.add(pb, O.ends(iv))),
            ("sub interval", lambda: b - iv, lambda: O.sub(pb, O.ends(iv))),
            ("mul interval", lambda: b * iv, lambda: O.mul(pb, O.ends(iv))),
            ("div interval", lambda: b / RealInterval(2.0, 3.0), lambda: O.div(pb, (2.0, 3.0))),
            ("radd scalar", lambda: 2.5 + b, lambda: O.add(pb, O.ends(2.5))),
            ("rsub scalar", lambda: 1.0 - b, lambda: O.add(O.neg(pb), O.ends(1.0))),
            ("rmul scalar", lambda: -3.0 * b, lambda: O.mul(pb, O.ends(-3.0))),
            ("rdiv scalar", lambda: 3.0 / d, lambda: O.div(O.ends(3.0), pd)),
        ]
        check(cases)


@pytest.mark.parametrize("shape", UNARY_SHAPES)
def test_ivec_unary_kernels_match_the_reference(shape):
    with np.errstate(all="ignore"):
        rng = np.random.default_rng(sum(shape) + len(shape) + 1)
        pv, pp = special_pair(shape, rng), special_pair(shape, rng, positive=True)
        pl = away_from_zero(shape, rng)
        v, p, l = block_ivec(*pv), block_ivec(*pp), block_ivec(*pl)
        rad = np.abs(rng.normal(size=shape[-1:])) * 1e-3
        cases = [
            ("neg", lambda: -v, lambda: O.neg(pv)),
            ("square", v.square, lambda: O.square(pv)),
            ("sqrt", p.sqrt, lambda: O.sqrt(pp)),
            ("exp", v.exp, lambda: O.exp(pv)),
            ("log", l.log, lambda: O.log(pl)),
            ("atan", v.atan, lambda: O.atan(pv)),
            ("sin", v.sin, lambda: O.sin(pv)),
            ("cos", v.cos, lambda: O.cos(pv)),
            ("pad", lambda: v.pad(rad), lambda: O.pad(pv, rad)),
            ("pad scalar", lambda: v.pad(0.0), lambda: O.pad(pv, 0.0)),
            ("sum", v.sum, lambda: O.sum(pv)),
            ("sum first", lambda: v.sum(axis=0), lambda: O.sum(pv, axis=0)),
            ("sum last", lambda: v.sum(axis=-1), lambda: O.sum(pv, axis=-1)),
        ]
        check(cases)
        assert hexes((v.width(),) * 2) == hexes((O.width(pv),) * 2)


def test_ivec_trig_of_wide_and_huge_intervals_matches_the_reference():
    # extrema inside, at the ends and far out, where sin and cos clip to 1
    rng = np.random.default_rng(8)
    lo = np.concatenate([rng.uniform(-20, 20, 300), [-np.pi / 2, 0.0, np.pi, 1e17, -1e300]])
    hi = lo + np.concatenate([rng.uniform(0, 4, 300), [0.0, 0.0, 1e-15, 1e3, 1e300]])
    v = block_ivec(lo, hi)
    check([("sin", v.sin, lambda: O.sin((lo, hi))), ("cos", v.cos, lambda: O.cos((lo, hi)))])


@pytest.mark.parametrize("sa, sb", SHAPES)
def test_cvec_binary_kernels_match_the_reference(sa, sb):
    with np.errstate(all="ignore"):
        rng = np.random.default_rng(hash((sa, sb)) % 2**32)
        pa, pb = (special_pair(sa, rng), special_pair(sa, rng)), (special_pair(sb, rng), special_pair(sb, rng))
        a, b = block_cvec(*pa), block_cvec(*pb)
        pr = special_pair(sb, rng)
        r = block_ivec(*pr)
        pd = signed(away_from_zero(sb, rng), rng)
        d = block_ivec(*pd)
        x = rng.normal(size=sb)
        cases = [
            ("mul", lambda: a * b, lambda: O.cmul(pa, pb)),
            ("rmul", lambda: b * a, lambda: O.cmul(pb, pa)),
            ("add", lambda: a + b, lambda: O.cadd(pa, pb)),
            ("sub", lambda: a - b, lambda: O.csub(pa, pb)),
            ("rsub", lambda: b - a, lambda: O.csub(pb, pa)),
            ("mul ivec", lambda: a * r, lambda: O.cmul_real(pa, pr)),
            ("div ivec", lambda: a / d, lambda: O.cdiv_real(pa, pd)),
            ("mul real array", lambda: a * x, lambda: O.cmul_real(pa, (x, x))),
            ("div real array", lambda: a / x, lambda: O.cdiv_real(pa, (x, x))),
            ("mul complex array", lambda: a * (x + 0.5j), lambda: O.cmul(pa, O.points(x + 0.5j))),
            ("add real array", lambda: a + x, lambda: O.cadd(pa, O.points(x))),
        ]
        check(cases)


@pytest.mark.parametrize("shape", UNARY_SHAPES)
def test_cvec_unary_kernels_match_the_reference(shape):
    with np.errstate(all="ignore"):
        rng = np.random.default_rng(sum(shape) + len(shape))
        pv = (special_pair(shape, rng), special_pair(shape, rng))
        v = block_cvec(*pv)
        box = ComplexBox(RealInterval(-0.5, 2.0**-1022), RealInterval(0.0, 3.0))
        iv = RealInterval(-1.0, 3.0)
        rad = np.abs(rng.normal(size=shape[-1:])) * 1e-3
        cases = [
            ("neg", lambda: -v, lambda: (O.neg(pv[0]), O.neg(pv[1]))),
            ("conj", lambda: v.conj(), lambda: O.conj(pv)),
            ("mul_i", lambda: v.mul_i(), lambda: (O.neg(pv[1]), pv[0])),
            ("abs2", v.abs2, lambda: O.abs2(pv)),
            ("mul box", lambda: v * box, lambda: O.cmul(pv, box_ends(box))),
            ("add box", lambda: v + box, lambda: O.cadd(pv, box_ends(box))),
            ("sub box", lambda: v - box, lambda: O.csub(pv, box_ends(box))),
            ("mul complex", lambda: v * (0.25 - 2j), lambda: O.cmul(pv, O.points(0.25 - 2j))),
            ("add real", lambda: v + 0.0, lambda: O.cadd(pv, O.points(0.0))),
            ("rsub real", lambda: 1.0 - v, lambda: O.cadd((O.neg(pv[0]), O.neg(pv[1])), O.points(1.0))),
            ("mul interval", lambda: v * iv, lambda: O.cmul_real(pv, O.ends(iv))),
            ("div interval", lambda: v / RealInterval(-3.0, -0.5), lambda: O.cdiv_real(pv, (-3.0, -0.5))),
            ("mul scalar", lambda: 3.0 * v, lambda: O.cmul_real(pv, O.ends(3.0))),
            ("pad", lambda: v.pad(rad), lambda: O.cpad(pv, rad)),
            ("pad scalar", lambda: v.pad(0.0), lambda: O.cpad(pv, 0.0)),
            ("sum", v.sum, lambda: O.csum(pv)),
            ("sum first", lambda: v.sum(axis=0), lambda: O.csum(pv, axis=0)),
            ("sum last", lambda: v.sum(axis=-1), lambda: O.csum(pv, axis=-1)),
        ]
        check(cases)


@pytest.mark.parametrize("shape", [(0,), (4,), (256,), (257,), (3, 90)])
def test_cvec_exp_matches_the_reference(shape):
    rng = np.random.default_rng(7 + sum(shape))
    v = special_cvec(shape, rng, finite=True) * 1e-300  # ends in exp's range
    check([("exp", v.exp, lambda: O.cexp(complex_ends(v)))])


@pytest.mark.parametrize("shape", [(4,), (3, 257)])
def test_cvec_complex_division_matches_the_reference(shape):
    rng = np.random.default_rng(9 + len(shape))
    a = special_cvec(shape, rng, finite=True)
    mag = rng.uniform(0.5, 2.0, shape) * np.exp(1j * rng.uniform(0, 2 * np.pi, shape))
    b = CVec.from_points(mag).pad(1e-3)
    box = ComplexBox(RealInterval(0.5, 0.75), RealInterval(-2.0, -1.0))
    with np.errstate(all="ignore"):
        check([
            ("cvec", lambda: a / b, lambda: O.cdiv(complex_ends(a), complex_ends(b))),
            ("box", lambda: a / box, lambda: O.cdiv(complex_ends(a), box_ends(box))),
            ("points", lambda: a / mag, lambda: O.cdiv(complex_ends(a), O.points(mag))),
        ])
    with pytest.raises(DivisorContainsZero):
        a / b.pad(3.0)


def test_division_refuses_a_divisor_meeting_zero():
    # as the oracle's caller must: any divisor interval that contains 0,
    # NaN divisors aside; an empty quotient divides nothing
    a = IVec.from_points(np.ones(3))
    for lo, hi in [(-1.0, 1.0), (0.0, 2.0), (-2.0, -0.0), (0.0, 0.0)]:
        with pytest.raises(DivisorContainsZero):
            a / IVec(np.array([1.0, lo, 1.0]), np.array([2.0, hi, 2.0]))
        with pytest.raises(DivisorContainsZero):
            1.0 / IVec(np.array([lo]), np.array([hi]))
        with pytest.raises(DivisorContainsZero):
            CVec.from_points(np.ones(3) * 1j) / RealInterval(lo, hi)
    assert np.isnan((a / np.array([np.nan, 1.0, 1.0])).lo[0])
    assert (IVec.zeros((0,)) / RealInterval(-1.0, 1.0)).shape == (0,)
    with pytest.raises(DivisorContainsZero):
        a / 0.0


def test_ivec_structure_kernels_match_the_ends():
    rng = np.random.default_rng(4)
    lo, hi = special_pair((3, 4, 5), rng)
    v = block_ivec(lo, hi)

    def same_ends(out, f):
        same(out, (f(lo), f(hi)))

    idx = np.array([[2, 0], [1, 1]])
    same_ends(v.take(idx), lambda a: a[idx])
    same_ends(v.reshape(12, 5), lambda a: a.reshape(12, 5))
    same_ends(v.reshape((5, -1)), lambda a: a.reshape(5, -1))
    same_ends(v.moveaxis(-1, 0), lambda a: np.moveaxis(a, -1, 0))
    same_ends(v.take_last(np.array([4, 0, 4])), lambda a: np.take(a, [4, 0, 4], axis=-1))
    same_ends(IVec.concatenate([v, v[:, :2]], axis=-2), lambda a: np.concatenate([a, a[:, :2]], axis=-2))
    same_ends(v[..., 1:4:2], lambda a: a[..., 1:4:2])
    same_ends(v[:, None, -2], lambda a: a[:, None, -2])
    same_ends(v.copy(), lambda a: a.copy())
    same_ends(IVec.zeros((0, 2)), lambda a: np.zeros((0, 2)))
    cell = v[2, -1, 3]
    assert isinstance(cell, RealInterval)
    assert hexes((cell.lo, cell.hi)) == hexes((lo[2, -1, 3], hi[2, -1, 3]))
    assert v.shape == (3, 4, 5) and v.size == 60 and len(v) == 3
    assert [r.shape for r in v] == [(4, 5)] * 3
    # sums over a block that is not contiguous, and of a 0-d array
    flo, fhi = special_pair((3, 4, 5), rng, finite=True)
    f = block_ivec(flo, fhi).moveaxis(-1, 0)
    moved = (np.moveaxis(flo, -1, 0), np.moveaxis(fhi, -1, 0))
    with np.errstate(over="ignore"):
        check([
            ("sum", f.sum, lambda: O.sum(moved)),
            ("sum middle", lambda: f.sum(axis=1), lambda: O.sum(moved, axis=1)),
            ("sum 0-d", block_ivec(flo[0, 0, 0], fhi[0, 0, 0]).sum, lambda: O.sum((flo[0, 0, 0], fhi[0, 0, 0]))),
        ])


def test_cvec_pad_broadcasts_up_the_radius():
    v = CVec.from_points(np.array([1.0 + 2j, -3.0]))
    rad = np.array([[0.0], [0.5], [2.0]])
    same(v.pad(rad), O.cpad(complex_ends(v), rad))
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
    (rlo, rhi), (ilo, ihi) = complex_ends(v)

    def same_parts(out, f):
        same(out, ((f(rlo), f(rhi)), (f(ilo), f(ihi))))

    idx = np.array([[2, 0], [1, 1]])
    same_parts(v.take(idx), lambda a: a[idx])
    same_parts(v.take(np.array([], dtype=np.intp)), lambda a: a[np.array([], dtype=np.intp)])
    same_parts(v.reshape(12, 5), lambda a: a.reshape(12, 5))
    same_parts(v.reshape((5, -1)), lambda a: a.reshape(5, -1))
    same_parts(v.moveaxis(-1, 0), lambda a: np.moveaxis(a, -1, 0))
    same_parts(v.moveaxis(0, -2), lambda a: np.moveaxis(a, 0, -2))
    same_parts(v.take_last(np.array([4, 0, 4])), lambda a: np.take(a, [4, 0, 4], axis=-1))
    same_parts(CVec.concatenate([v, v[:, :2]], axis=-2), lambda a: np.concatenate([a, a[:, :2]], axis=-2))
    same_parts(CVec.concatenate([v[:1], v]), lambda a: np.concatenate([a[:1], a]))
    same_parts(v[..., 1:4:2], lambda a: a[..., 1:4:2])
    same_parts(v[-1], lambda a: a[-1])
    same_parts(v[:, None, -2], lambda a: a[:, None, -2])
    same_parts(v.copy(), lambda a: a.copy())
    same_parts(CVec.zeros((0, 2)), lambda a: np.zeros((0, 2)))
    cell = v[2, -1, 3]
    assert isinstance(cell, ComplexBox)
    assert hexes((cell.re.lo, cell.re.hi), (cell.im.lo, cell.im.hi)) == hexes(
        (rlo[2, -1, 3], rhi[2, -1, 3]), (ilo[2, -1, 3], ihi[2, -1, 3])
    )
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
    assert v.re.e.shape == (1, 2, 2, 3) and v.re.width().shape == v.shape
    # CVec(re, im) stacks its parts into a new block of its own
    w = CVec(v.re, v.im)
    assert not np.shares_memory(w.e, v.e)
    same(w, complex_ends(v))
    with pytest.raises(ValueError):
        CVec(v.re, v.im[:, :2])


def test_ivec_lo_and_hi_are_views_of_its_block():
    v = IVec(np.array([1.0, 2.0]), np.array([1.5, 2.0]))
    assert v.e.shape == (1, 2, 2)
    assert np.shares_memory(v.lo, v.e) and np.shares_memory(v.hi, v.e)
    with pytest.raises(AttributeError):
        v.lo = np.zeros(2)


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
        (lambda: a / r, 2 * 12),
        (lambda: a / b, 3 * 3 + 8 * 12),  # abs2 of b's 3 cells, product, quotient
        (lambda: a + b, 2 * 12),
        (lambda: a - box, 2 * 12),
        (lambda: a.abs2(), 3 * 12),
        (lambda: a.exp(), 5 * 12),
        (lambda: -a, 0),
        (lambda: a.conj(), 0),
        (lambda: a.mul_i(), 0),
        (lambda: a.pad(1e-3), 0),
        (lambda: a.take(np.array([0, 2])), 0),
        (lambda: a.sum(axis=0), 2 * 12),
    ]:
        assert counted(fn)[1] == count
