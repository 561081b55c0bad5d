"""Large-modulus sampler against direct Euler-Maclaurin character sums.

The oracle path computes L_chi(1/2+it) = q^(-s) sum_a chi(a) zeta(s, a/q)
term by term with scalar Hurwitz evaluations and exact character phases
in mpmath.iv — no lattice, no Taylor shift, no DFT — so agreement checks
the whole batched pipeline.  Completion tests pin realness, sign behaviour and
linearity in the unimodular constant.
"""

import itertools
import math
import os
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from mpmath import iv

from grhdesk import balls, characters, hurwitz, ivec, sampler_largeq
from grhdesk.characters import char_group
from grhdesk.dft import units_of
from grhdesk.errors import DomainError, NotPrimitive, RealnessViolation
from grhdesk.hurwitz import (
    DEFAULT_D,
    DEFAULT_M,
    DEFAULT_NCOLS,
    build_lattice,
    fraction_sqrt_upper,
    lattice_size,
    taylor_tail_bound,
)
from grhdesk.interval import ComplexBox
from grhdesk.ivec import CVec, op_counter
from grhdesk.sampler_largeq import (
    DEFAULT_STEP,
    SampleGrid,
    completion_factor,
    grid_count,
    l_values_at,
    lambda_from_l,
    q_pow,
    sample_all,
    sample_range,
    unit_hurwitz,
)

from em_oracle import em_hurwitz, holds, iv_complex, iv_real, ivprec, meets, width
from lattices import lattice


def mp_fraction(x, prec=300) -> Fraction:
    with mpmath.workprec(prec):
        sign, man, exp, _ = mpmath.mpf(x)._mpf_
    v = Fraction(int(man)) * Fraction(2) ** exp
    return -v if sign else v


def l_reference(q: int, idx, t: float, bits: int = 96) -> iv.mpc:
    """q^(-s) sum_a chi(a) zeta(s, a/q) by scalar evaluation in mpmath.iv at bits."""
    group = char_group(q)
    with ivprec(bits):
        acc = iv.mpc(0, 0)
        for a in range(1, q):
            if math.gcd(a, q) != 1:
                continue
            chi = iv.exp(iv.mpc(0, 2 * iv.pi * iv_real(group.phase(idx, a))))
            acc += chi * em_hurwitz((Fraction(1, 2), t), Fraction(a, q), bits=bits)
        lq = iv.log(q)
        return acc * iv.exp(iv.mpc(-lq / 2, -t * lq))


def l_at(vals, q: int, idx) -> ComplexBox:
    """The L-value of character idx in l_values_at's flat np.ndindex order."""
    return vals[int(np.ravel_multi_index(idx, char_group(q).orders))]


def l_column(vals, q: int, chars) -> CVec:
    """The L-values of chars, a (len(chars), 1) column of l_values_at's vals."""
    orders = char_group(q).orders
    return vals.take([int(np.ravel_multi_index(idx, orders)) for idx in chars]).reshape(-1, 1)


def completed(q, lat, chars, metas=None):
    """lambda_from_l for chars mod q at lat.t, with each character's (epsilon C) box."""
    group = char_group(q)
    if metas is None:
        metas = [group.char_meta(idx) for idx in chars]
    l = l_column(l_values_at(q, [lat]), q, chars)
    eps_c = CVec.concatenate([meta.epsilon * completion_factor(lat.t, meta.parity, q) for meta in metas])
    return lambda_from_l(l, eps_c.reshape(-1, 1), q, chars, [lat.t])[:, 0]


@pytest.fixture(scope="module")
def lat_t0():
    return lattice(0.0, 64)


@pytest.fixture(scope="module")
def lat_t1():
    return lattice(1.0, 64)


@pytest.fixture(scope="module")
def lat_t10():
    return lattice(10.0, 64)


@pytest.fixture(scope="module")
def lat_tm1():
    return lattice(-1.0, 64)


@pytest.fixture(scope="module")
def lat_tm10():
    return lattice(-10.0, 64)


# -- batched Hurwitz ---------------------------------------------------------


@pytest.mark.parametrize("q", [7, 12, 36, 61])
def test_unit_hurwitz_matches_scalar_query(lat_t0, lat_t10, q):
    # the scalar query is the direct Euler-Maclaurin sum at the exact a/q
    group = char_group(q)
    units = units_of(group)
    for lat in (lat_t0, lat_t10):
        vec = unit_hurwitz([lat], q, units)[0]
        for i, a in enumerate(units):
            scalar = em_hurwitz((Fraction(1, 2), lat.t), Fraction(int(a), q))
            assert meets(vec[i], scalar)
            # the Taylor shift off the lattice is wider than the direct
            # sum, so allow a constant factor but no blowup; the 53-bit
            # oracle is 2.2-3.5x narrower here than a direct sum on doubles
            assert vec[i].re.width() < 16 * width(scalar.real) + 1e-13


def test_q_pow_contains_reference():
    # the paper's operating points q = 100003 at t = 1000 and q = 399989
    # at t = 294, and one far height
    cases = [(3, 0.0), (101, 2.5), (17, -4.0), (100003, 1000.0), (399989, 294.0), (7, 1e4)]
    for q, t in cases:
        box = q_pow(q, t)
        assert box.shape == (1,)
        with mpmath.workprec(200):
            ref = mpmath.power(q, mpmath.mpc(-0.5, -t))
            fre, fim = mp_fraction(ref.real), mp_fraction(ref.imag)
        assert holds(box[0], fre, fim)
    for q in (3, 101, 100003):
        im = q_pow(q, 0.0)[0].im
        assert (im.lo, im.hi) == (0.0, 0.0)


# -- l_values_at -------------------------------------------------------------


def test_l_values_q4_contains_chi4_reference(lat_t0):
    box = l_at(l_values_at(4, [lat_t0]), 4, (1,))
    # independent multiprecision value, no package code involved
    with mpmath.workprec(200):
        ref = mpmath.mpf(0.5) * (
            mpmath.zeta(mpmath.mpf("0.5"), mpmath.mpf(1) / 4)
            - mpmath.zeta(mpmath.mpf("0.5"), mpmath.mpf(3) / 4)
        )
        fre = mp_fraction(ref)
    assert holds(box, fre)
    assert box.im.contains_zero()
    assert meets(box, l_reference(4, (1,), 0.0))


def test_l_values_q3_principal_euler_factor(lat_t0):
    box = l_at(l_values_at(3, [lat_t0]), 3, (0,))
    # (1 - 3^{-1/2}) zeta(1/2)
    with mpmath.workprec(200):
        ref = (1 - mpmath.power(3, -mpmath.mpf("0.5"))) * mpmath.zeta(mpmath.mpf("0.5"))
        fre = mp_fraction(ref)
    assert holds(box, fre)
    assert box.im.contains_zero()


@pytest.mark.parametrize("q", [5, 8, 13])
@pytest.mark.parametrize("t", [0.0, 10.0])
def test_l_values_contain_em_character_sums(lat_t0, lat_t10, q, t):
    lat = lat_t0 if t == 0.0 else lat_t10
    vals = l_values_at(q, [lat])
    group = char_group(q)
    assert len(vals) == group.phi
    for idx in group.all_indices():
        ref = l_reference(q, idx, t)
        assert meets(l_at(vals, q, idx), ref), (q, idx, t)


def test_l_values_conjugate_symmetry(lat_t0, lat_t1, lat_t10, lat_tm1, lat_tm10):
    # L_{conj chi}(conj s) = conj L_chi(s): compare chi-bar at -t with
    # the conjugate of chi at +t
    pairs = [(lat_t0, lat_t0), (lat_t1, lat_tm1), (lat_t10, lat_tm10)]
    for q in range(3, 21):
        group = char_group(q)
        for lat_p, lat_m in pairs:
            vp = l_values_at(q, [lat_p])
            vm = l_values_at(q, [lat_m])
            for idx in group.all_indices():
                c = group.conjugate(idx)
                assert l_at(vm, q, c).intersects(l_at(vp.conj(), q, idx)), (q, idx, lat_p.t)


@pytest.mark.parametrize("q", [5, 12, 101])
def test_l_values_of_a_block_are_each_lattice_alone(lat_t0, lat_t10, lat_tm1, q):
    # one unit query and one group DFT over a block of ordinates: each
    # ordinate's phi(q) values in turn, endpoint for endpoint; t = 0 keeps
    # its real q^(-s) in the block
    lats = [lat_t10, lat_t0, lat_tm1]
    block = l_values_at(q, lats)
    phi = char_group(q).phi
    assert block.shape == (3 * phi,)
    for i, lat in enumerate(lats):
        assert np.array_equal(block.e[:, :, i * phi : (i + 1) * phi], l_values_at(q, [lat]).e), (q, i)


def test_l_values_rejects_tiny_modulus(lat_t0):
    with pytest.raises(DomainError):
        l_values_at(2, [lat_t0])


# -- completion --------------------------------------------------------------


def test_lambda_positive_at_center_q4(lat_t0):
    lam = completed(4, lat_t0, [(1,)])
    assert lam[0].lo > 0.0


def test_lambda_linear_in_epsilon(lat_t10):
    meta = char_group(5).char_meta((1,))
    lam = completed(5, lat_t10, [(1,)], [meta])[0]
    flipped = replace(meta, epsilon=-meta.epsilon)
    lam_neg = completed(5, lat_t10, [(1,)], [flipped])[0]
    assert lam_neg.lo == -lam.hi
    assert lam_neg.hi == -lam.lo


def test_lambda_realness_across_moduli(lat_t0, lat_t1, lat_t10):
    # lambda_from_l raises RealnessViolation on any box off the real axis
    checked = 0
    for lat in (lat_t0, lat_t1, lat_t10):
        for q in range(3, 48):
            chars = char_group(q).primitive_indices()
            if chars:
                checked += len(completed(q, lat, chars))
    assert checked >= 1000


def test_wrong_epsilon_raises_realness_violation(lat_t10):
    group = char_group(5)
    hits = 0
    for idx in group.primitive_indices():
        meta = replace(group.char_meta(idx), epsilon=CVec.from_points([1.0]))
        try:
            completed(5, lat_t10, [idx], [meta])
        except RealnessViolation:
            hits += 1
    # complex characters mod 5 have a genuinely complex prefactor
    assert hits >= 2


def test_realness_violation_names_modulus_character_and_ordinate(lat_t10):
    group = char_group(5)
    meta = group.char_meta((1,))
    l = l_column(l_values_at(5, [lat_t10]), 5, [(1,)])
    eps_c = (meta.epsilon * completion_factor(10.0, meta.parity, 5)).reshape(1, 1)
    assert not lambda_from_l(l, eps_c, 5, [(1,)], [10.0])[0, 0].contains_zero()
    # i L completes to i Lambda, whose imaginary part Lambda misses 0
    with pytest.raises(RealnessViolation, match=r"t=10\.0 for index \(1,\) mod 5$"):
        lambda_from_l(l.mul_i(), eps_c, 5, [(1,)], [10.0])


def test_realness_violation_names_the_one_turned_character(lat_t10):
    # one array step completes every character; turning one epsilon by i
    # makes that completed value imaginary, and the error names it alone
    group = char_group(5)
    chars = group.primitive_indices()
    metas = [group.char_meta(idx) for idx in chars]
    assert not any(s.contains_zero() for s in completed(5, lat_t10, chars, metas))
    for k, idx in enumerate(chars):
        turned = list(metas)
        turned[k] = replace(metas[k], epsilon=metas[k].epsilon.mul_i())
        with pytest.raises(RealnessViolation) as err:
            completed(5, lat_t10, chars, turned)
        named = [c for c in chars if f"for index {c} mod 5" in str(err.value)]
        assert named == [idx], str(err.value)


@pytest.mark.parametrize(
    "t, parity, re_width, im_width",
    [
        (16.0, 0, 1.5765166949677223e-13, 1.2678746941219288e-13),
        (16.0, 1, 4.005684672847565e-13, 7.045475314271243e-13),
        (300.0, 0, 3.574696094688079e-12, 2.124855846830087e-12),
        (300.0, 1, 2.6631141736288555e-11, 4.367084471823546e-11),
        (2500.0, 0, 7.533029755535381e-12, 1.8118909150821594e-11),
        (2500.0, 1, 6.007194741641797e-10, 4.716067536492119e-10),
    ],
)
def test_completion_factor_widths(t, parity, re_width, im_width):
    # pinned at the widths of the earlier log_gamma (14 terms summed term
    # by term after shifting to |w| >= 10); the factor is no wider
    c = completion_factor(t, parity, 7)[0]
    assert c.re.width() <= re_width
    assert c.im.width() <= im_width


def test_lambda_gamma_factor_keeps_magnitude_tame():
    # at t = 2500 the raw gamma factor underflows; the assembled factor must not
    for parity in (0, 1):
        mag = completion_factor(2500.0, parity, 4).abs2()[0]
        assert mag.hi < 1e6
        assert mag.lo > 0.0


def completion_reference(t: float, parity: int, q: int) -> mpmath.mpc:
    """exp(log Gamma((1/2 + a + it)/2) + pi|t|/4 + i (t/2) log(q/pi)) at 300 bits."""
    with mpmath.workprec(300):
        t = mpmath.mpf(t)
        z = mpmath.mpc(mpmath.mpf(2 * parity + 1) / 4, t / 2)
        return mpmath.exp(
            mpmath.loggamma(z) + mpmath.pi * abs(t) / 4 + mpmath.mpc(0, t / 2) * mpmath.log(q / mpmath.pi)
        )


@pytest.mark.parametrize("q", [4, 7, 101])
@pytest.mark.parametrize("t", [0.0, 16.0, -16.0, 300.0, 2500.0])
def test_completion_factor_contains_mpmath(t, q):
    for parity in (0, 1):
        c = completion_factor(t, parity, q)[0]
        ref = completion_reference(t, parity, q)
        assert mp_fraction(c.re.lo) <= mp_fraction(ref.real) <= mp_fraction(c.re.hi), (t, parity, q)
        assert mp_fraction(c.im.lo) <= mp_fraction(ref.imag) <= mp_fraction(c.im.hi), (t, parity, q)
        if t == 0.0:
            assert (c.im.lo, c.im.hi) == (0.0, 0.0)
        # a few ulps of the factor's magnitude
        ulp = math.ulp(max(abs(c.re.lo), abs(c.re.hi), abs(c.im.lo), abs(c.im.hi)))
        assert c.re.width() <= 4 * ulp and c.im.width() <= 4 * ulp, (t, parity, q)


@pytest.mark.parametrize("t", [16.0, 300.0])
def test_completion_factor_carries_the_log_gamma_radius(monkeypatch, t):
    # with log_gamma's remainder goal at 2^-20 its ball is wide, and the
    # factor contains the true value only if the exponential carries that
    # radius into the modulus and the phase
    monkeypatch.setattr(balls, "_STIRLING_GOAL_BITS", 20)
    for parity in (0, 1):
        c = completion_factor(t, parity, 7)[0]
        ref = completion_reference(t, parity, 7)
        assert mp_fraction(c.re.lo) <= mp_fraction(ref.real) <= mp_fraction(c.re.hi), (t, parity)
        assert mp_fraction(c.im.lo) <= mp_fraction(ref.imag) <= mp_fraction(c.im.hi), (t, parity)
        assert c.re.width() > 1e-9


def _count_kernels(monkeypatch) -> dict:
    """Count the mpmath.libmp kernel calls the exact kernel (balls) makes, by name."""
    counts = {}
    for name in ("mpf_log", "mpf_atan2", "mpf_exp", "mpf_cos_sin"):
        def counted(*args, _f=getattr(balls, name), _name=name, **kw):
            counts[_name] = counts.get(_name, 0) + 1
            return _f(*args, **kw)

        monkeypatch.setattr(balls, name, counted)
    return counts


@pytest.mark.parametrize(
    "t, kernels",
    [
        # 1/4 + 8i shifts 9 times: log and atan2 of w and of the shift
        # product, log(q/pi), and the exponential's exp and cos_sin
        (16.0, {"mpf_log": 3, "mpf_atan2": 2, "mpf_exp": 1, "mpf_cos_sin": 1}),
        # 1/4 + 150i sums at z itself: no shift product
        (300.0, {"mpf_log": 2, "mpf_atan2": 1, "mpf_exp": 1, "mpf_cos_sin": 1}),
    ],
)
def test_completion_factor_is_one_ball(monkeypatch, t, kernels):
    completion_factor(t, 0, 7)  # log_gamma's constants and pi, made once
    counts = _count_kernels(monkeypatch)
    calls = []
    log_gamma = sampler_largeq.log_gamma
    monkeypatch.setattr(sampler_largeq, "log_gamma", lambda *a: calls.append(a) or log_gamma(*a))

    def refused(*args):
        raise AssertionError("a rounded array operation")

    monkeypatch.setattr(ivec, "_counted", refused)
    c = completion_factor(t, 0, 7)
    assert calls == [(Fraction(1, 4), Fraction(t) / 2)]
    assert counts == kernels
    assert c[0].re.width() > 0.0


# -- grids -------------------------------------------------------------------


def test_grid_count_examples():
    assert grid_count(0, 10, DEFAULT_STEP) == 129
    assert grid_count(6, 7, DEFAULT_STEP) == 13
    assert grid_count(0, 0, DEFAULT_STEP) == 1


def test_grid_count_matches_aligned_formula():
    step = DEFAULT_STEP
    for n0, n1 in [(0, 128), (13, 40), (-12, 3)]:
        lo, hi = step * n0, step * n1
        assert grid_count(lo, hi, step) == int((hi - lo) / step) + 1


def test_grid_count_rejects_bad_ranges():
    with pytest.raises(DomainError):
        grid_count(1, 0, DEFAULT_STEP)
    with pytest.raises(DomainError):
        grid_count(0, 1, 0)
    with pytest.raises(DomainError):
        # no multiple of 5/64 inside (1/128, 3/128)
        grid_count(Fraction(1, 128), Fraction(3, 128), DEFAULT_STEP)


def test_sample_range_rejects_non_dyadic_ordinates():
    with pytest.raises(DomainError):
        sample_range(5, (1,), 0, 1, Fraction(1, 3), size=16)


def test_non_dyadic_step_is_refused_before_its_ordinates_are_listed():
    # 10^20 + 1 multiples of 1/10^20 in [0, 1]: refused at once, not listed
    with pytest.raises(DomainError, match="binary rationals"):
        sample_range(7, (1,), 0, 1, Fraction(1, 10**20))
    # a lone multiple of a non-binary step may still be binary
    assert sampler_largeq._ordinates(1, 1, Fraction(1, 3)) == (3, [1.0])


# the refusal above for a dyadic step too fine for its range, in a fresh
# interpreter whose address space is capped: listing the 2^70 + 1
# ordinates first would run into a MemoryError or hang
_FINE_STEP = """
import resource, sys
from fractions import Fraction
resource.setrlimit(resource.RLIMIT_AS, (3 << 29, 3 << 29))
from grhdesk import sampler_largeq
from grhdesk.errors import DomainError
for call in (lambda: sampler_largeq._ordinates(0, 1, Fraction(1, 2**70)),
             lambda: sampler_largeq.sample_range(7, (1,), 0, 1, Fraction(1, 2**70))):
    try:
        call()
    except DomainError as exc:
        assert "binary rationals" in str(exc), exc
    else:
        sys.exit("not refused")
print("refused")
"""


def test_fine_dyadic_step_is_refused_before_its_ordinates_are_listed():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    run = subprocess.run(
        [sys.executable, "-c", _FINE_STEP], capture_output=True, text=True, timeout=60, env=env
    )
    assert (run.returncode, run.stdout.strip()) == (0, "refused"), run.stderr
    # the refusal is exact: a fine step whose ordinates are all doubles is
    # listed, and ranges on either side of 53 bits go as the Fraction
    # reference has them
    fine = sampler_largeq._ordinates(0, Fraction(4, 2**70), Fraction(1, 2**70))
    assert fine == (0, [k / 2**70 for k in range(5)])
    cases = [
        (2**53 - 1, 2**53, 1),
        (2**53, 2**53 + 1, 1),
        (-(2**54), -(2**54) + 2, 2),
        (Fraction(2**52, 3), Fraction(2**52 + 6, 3), 3),
        (3 * 2**51 - 3, 3 * 2**51 + 3, 3),
    ]
    for lo, hi, step in cases:
        want = _fraction_ordinates(lo, hi, step)
        if isinstance(want, str):
            with pytest.raises(DomainError, match=want):
                sampler_largeq._ordinates(lo, hi, Fraction(step))
        else:
            assert sampler_largeq._ordinates(lo, hi, Fraction(step)) == want, (lo, hi, step)


def test_ordinate_count_is_bounded_before_any_is_listed():
    # 2^51 + 1 ordinates, each an exact double: refused on the count, in
    # O(1), where they were listed until the call hung
    assert sampler_largeq._MAX_ORDINATES == 2**20
    with pytest.raises(DomainError, match=r"^2251799813685249 ordinates in one call, more than 1048576; .*item 8"):
        sampler_largeq._ordinates(0, 3 * 2**51, 3)
    n0, ts = sampler_largeq._ordinates(0, 2**20 - 1, 1)
    assert (n0, len(ts), ts[-1]) == (0, 2**20, 2**20 - 1)
    with pytest.raises(DomainError, match="^1048577 ordinates"):
        sampler_largeq._ordinates(0, 2**20, 1)


def _fraction_ordinates(t_lo, t_hi, step):
    """The ordinates by exact Fraction arithmetic, or the DomainError message."""
    step, lo, hi = Fraction(step), Fraction(t_lo), Fraction(t_hi)
    if step <= 0:
        return "t_step must be positive"
    if hi < lo:
        return "empty ordinate range"
    n0, n1 = -int(-lo // step), int(hi // step)
    if n1 < n0:
        return "no grid ordinate inside the range"
    ts = [float(step * n) for n in range(n0, n1 + 1)]
    if any(Fraction(t) != step * n for n, t in enumerate(ts, n0)):
        return "grid ordinates must be binary rationals"
    return n0, ts


def test_ordinates_match_exact_fraction_arithmetic():
    # the integer bookkeeping gives the Fraction reference's ordinates,
    # bit for bit, and refuses the same ranges
    rng = np.random.default_rng(5)
    cases = [
        (1, 1, Fraction(1, 3)),  # a non-binary step whose one multiple is binary
        (0, 1, Fraction(1, 3)),
        (16, 16 + Fraction(1, 16), Fraction(1, 16)),
        (-2.5, 3, DEFAULT_STEP),
        (0.1, 0.7, 0.0625),
        (1e4, 1e4 + 1, Fraction(1, 1024)),
        (1, 0, DEFAULT_STEP),
        (0, 1, 0),
        (0, 1, Fraction(-1, 4)),
        (Fraction(1, 128), Fraction(3, 128), DEFAULT_STEP),
        (0, Fraction(3, 10**18), Fraction(1, 10**18)),
        (Fraction(7, 1 << 60), Fraction(20, 1 << 60), Fraction(3, 1 << 60)),
    ]
    for _ in range(300):
        step = Fraction(int(rng.integers(1, 50)), int(rng.choice([1, 2, 3, 5, 12, 64])))
        lo = Fraction(int(rng.integers(-500, 500)), int(rng.integers(1, 100)))
        cases.append((lo, lo + Fraction(int(rng.integers(-1, 40)), 8), step))
        cases.append((float(lo), float(lo) + 3.0, float(step)))
    for t_lo, t_hi, step in cases:
        want = _fraction_ordinates(t_lo, t_hi, step)
        if isinstance(want, str):
            with pytest.raises(DomainError, match=want):
                sampler_largeq._ordinates(t_lo, t_hi, Fraction(step))
        else:
            n0, ts = sampler_largeq._ordinates(t_lo, t_hi, Fraction(step))
            assert (n0, [t.hex() for t in ts]) == (want[0], [t.hex() for t in want[1]])


def test_sample_all_without_primitive_characters_builds_nothing(tmp_path, monkeypatch):
    # q = 2 mod 4 has no primitive character: {} once the range is checked,
    # with no lattice, no table and no cache file
    monkeypatch.setattr(sampler_largeq, "_table_block", _refuse)
    monkeypatch.setattr(sampler_largeq, "_lattice_block", _refuse)
    for q in (6, 10, 30, 1002):
        assert sample_all(q, 300, 300, Fraction(1, 16), cache_dir=tmp_path) == {}
    assert list(tmp_path.iterdir()) == []
    for bad in [(1, 0, DEFAULT_STEP), (0, 1, 0), (0, 1, Fraction(1, 3)),
                (Fraction(1, 128), Fraction(3, 128), DEFAULT_STEP)]:
        with pytest.raises(DomainError):
            sample_all(6, *bad, cache_dir=tmp_path)


def _refuse(*args, **kwargs):
    raise AssertionError("table work for a refused character")


def test_sample_range_refuses_imprimitive_before_any_table(monkeypatch):
    monkeypatch.setattr(sampler_largeq, "_table_block", _refuse)
    with pytest.raises(NotPrimitive, match=r"\(3,\) mod 9"):
        sample_range(9, (3,), 16, 16, 1 / 16)


@pytest.mark.parametrize("idx", [(7,), (-1,), (1, 2), ()])
def test_sample_range_refuses_malformed_indices(monkeypatch, idx):
    # (Z/9Z)* is cyclic of order 6: one entry in 0..5
    monkeypatch.setattr(sampler_largeq, "_table_block", _refuse)
    with pytest.raises(ValueError, match="mod 9"):
        sample_range(9, idx, 16, 16, 1 / 16)


def test_sample_grid_requires_positive_step():
    group = char_group(4)
    with pytest.raises(DomainError):
        SampleGrid(4, (1,), Fraction(0), 0, [], group.char_meta((1,)))


def test_lattice_size_policy():
    pinned = {0: 2, 16: 4, 300: 64, 1000: 256, 4000: 1024}
    assert {t: lattice_size(t) for t in pinned} == pinned
    heights = [0, 1, 16, 22, 23, 100, 300, 1000, 2000, 4000, 10_000, 1e6]
    sizes = [lattice_size(t) for t in heights]
    assert sizes == [lattice_size(-t) for t in heights]
    assert sizes == sorted(sizes)
    assert sizes[-2:] == [DEFAULT_D, DEFAULT_D]
    # below the cap the truncated Taylor tail at |delta| = 1/(2D) is negligible
    for t, D in zip(heights[:-1], sizes):
        s_mag_hi = fraction_sqrt_upper(Fraction(1, 4) + Fraction(t) ** 2)
        radius = Fraction(1, D) + DEFAULT_M + 1
        tail = Fraction(*taylor_tail_bound(s_mag_hi, Fraction(1, 2 * D), radius, DEFAULT_NCOLS + 1))
        assert tail <= Fraction(1, 2**52), (t, D)


def lattice_size_oracle(t: float) -> int:
    """lattice_size as the Fraction formula it replaced: each |(s0)_k / k!|
    bounded by fraction_sqrt_upper, the sum compared in Fractions."""
    poch = itertools.islice(hurwitz._pochhammer(Fraction(1, 2), float(t)), DEFAULT_NCOLS + 1)
    mags = [
        fraction_sqrt_upper(Fraction(pr * pr + pim * pim, (scale * math.factorial(k)) ** 2))
        for k, (pr, pim, scale) in enumerate(poch)
    ]
    D = 2
    while D < DEFAULT_D and sum(m / (2 * D) ** k for k, m in enumerate(mags)) > 16:
        D *= 2
    return D


def test_lattice_size_matches_the_fraction_formula():
    # the oracle is nondecreasing in |t| (each |(s0)_k| is, and so is its
    # rounded-up bound), so on the grid k/16, 0 <= k <= 48,000, it is a
    # step function: its steps are found by bisection, checked on both
    # sides with the oracle, and lattice_size must give it at every point
    grid = 3000 * 16

    def oracle_at(k):
        return lattice_size_oracle(k / 16)

    steps, k, D = [], 0, oracle_at(0)
    while oracle_at(grid) != D:
        lo, hi = k, grid  # oracle_at(lo) == D != oracle_at(hi)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if oracle_at(mid) == D else (lo, mid)
        k, D = hi, oracle_at(hi)
        steps.append((k, D))
    assert len(steps) >= 8
    sizes = [lattice_size(k / 16) for k in range(grid + 1)]
    want, D = [], oracle_at(0)
    bounds = dict(steps)
    for k in range(grid + 1):
        D = bounds.get(k, D)
        want.append(D)
    assert sizes == want
    for k, _ in steps:  # both sides of each switch, and their mirror images
        for j in (k - 1, k):
            assert lattice_size(-j / 16) == lattice_size_oracle(-j / 16) == want[j]
    rng = np.random.default_rng(24)
    for t in rng.uniform(-5000, 5000, 300):
        assert lattice_size(float(t)) == lattice_size_oracle(float(t)), t


def _unit_width_max(lat, q):
    z = unit_hurwitz([lat], q, units_of(char_group(q)))
    return max((z.re.hi - z.re.lo).max(), (z.im.hi - z.im.lo).max())


@pytest.mark.parametrize("t", [16.0, 300.0])
def test_lattice_size_keeps_unit_widths(t):
    D = lattice_size(t)
    lat = lattice(t)
    big = lattice(t, 4 * D)
    assert lat.D == D
    for q in (101, 1009, 4099):
        assert _unit_width_max(lat, q) <= 1.01 * _unit_width_max(big, q), q


def test_sample_does_not_depend_on_its_range(tmp_path):
    heights = range(20, 25)
    # the range crosses a change of the default row count
    assert len({lattice_size(t) for t in heights}) == 2
    ranged, alone = tmp_path / "range", tmp_path / "alone"
    grid = sample_range(5, (1,), 20, 24, 1, cache_dir=ranged)
    files = sorted(path.name for path in ranged.glob("*.dat"))
    assert len(files) == len(grid) == len(heights)
    assert all(f"_D{lattice_size(t)}_" in name for t, name in zip(heights, files))
    for t, sample in zip(heights, grid.samples):
        one = sample_range(5, (1,), t, t, 1, cache_dir=alone).samples[0]
        assert (one.lo, one.hi) == (sample.lo, sample.hi), t
    assert sorted(path.name for path in alone.glob("*.dat")) == files


def test_sample_range_sign_change_q5(tmp_path_factory):
    cache = str(tmp_path_factory.mktemp("latcache"))
    grid = sample_range(5, (1,), 6, 7, size=16, cache_dir=cache)
    assert len(grid) == 13
    assert grid.t_at(0) == Fraction(385, 64)
    signs = [(s.lo > 0.0) - (s.hi < 0.0) for s in grid.samples]
    assert all(s != 0 for s in signs)
    assert any(a * b == -1 for a, b in zip(signs, signs[1:]))


def test_sample_range_even_for_real_character(tmp_path_factory):
    cache = str(tmp_path_factory.mktemp("latcache"))
    grid = sample_range(
        5, (2,), Fraction(-15, 64), Fraction(15, 64), size=16, cache_dir=cache
    )
    n = len(grid)
    assert n == 7
    for i in range(n):
        assert grid.samples[i].intersects(grid.samples[n - 1 - i])


def test_sample_range_metadata(tmp_path_factory):
    cache = str(tmp_path_factory.mktemp("latcache"))
    grid = sample_range(4, (1,), 0, Fraction(5, 64), size=16, cache_dir=cache)
    assert grid.q == 4 and grid.character == (1,)
    assert grid.meta is char_group(4).char_meta((1,)) and grid.meta.parity == 1
    assert grid.t_step == DEFAULT_STEP and grid.n_start == 0
    assert grid.t_float(1) == 5 / 64
    assert len(grid) == 2


# -- shared per-(q, ordinate) tables -----------------------------------------

T_LO, T_HI, STEP = Fraction(1), Fraction(17, 16), Fraction(1, 16)


@pytest.fixture(scope="module")
def shared_cache(tmp_path_factory):
    return str(tmp_path_factory.mktemp("latcache"))


def _endpoints(grid):
    return [(s.lo, s.hi) for s in grid.samples]


def _assembled(q, idx, tables):
    """mpmath.iv reference for one character: (epsilon C) L at 53 bits at
    each ordinate of tables, then the realness check and the projection."""
    meta = char_group(q).char_meta(idx)
    out = []
    with ivprec(53):
        for t, vals in tables.items():
            eps_c = iv_complex(meta.epsilon[0]) * iv_complex(completion_factor(t, meta.parity, q)[0])
            lam = eps_c * iv_complex(l_at(vals, q, idx))
            assert holds(lam.imag, 0), (q, idx, t)
            r = max(-lam.imag.a, lam.imag.b)
            out.append(lam.real + iv.mpf([-r, r]))
    return out


@pytest.mark.parametrize("q", [5, 7, 8, 12, 101])
def test_sample_all_and_sample_range_match_assembly(shared_cache, q):
    grids = sample_all(q, T_LO, T_HI, STEP, size=16, cache_dir=shared_cache)
    assert set(grids) == set(char_group(q).primitive_indices())
    tables = {}
    for t_fr in (T_LO, T_HI):
        t = float(t_fr)
        lat = build_lattice(t, D=16, cache_dir=shared_cache)
        tables[t] = l_values_at(q, [lat])
    for idx, grid in grids.items():
        one = sample_range(q, idx, T_LO, T_HI, STEP, size=16, cache_dir=shared_cache)
        assert grid.character == one.character == idx
        assert grid.meta.parity == one.meta.parity
        assert _endpoints(grid) == _endpoints(one), (q, idx)
        for s, ref in zip(grid.samples, _assembled(q, idx, tables)):
            assert meets(s, ref), (q, idx)
            assert s.width() <= 1.01 * width(ref), (q, idx)


def test_sample_all_computes_each_completion_factor_once(shared_cache, monkeypatch):
    # one factor per (parity, ordinate), however many characters share it,
    # over more ordinates than the tables keep
    calls = []

    def counted(t, parity, q):
        calls.append((t, parity, q))
        return completion_factor(t, parity, q)

    monkeypatch.setattr(sampler_largeq, "completion_factor", counted)
    sampler_largeq._tables.clear()
    grids = sample_all(13, 0, 1, Fraction(1, 16), size=4, cache_dir=shared_cache)
    assert {grid.meta.parity for grid in grids.values()} == {0, 1}
    assert len(next(iter(grids.values()))) == 17
    assert sorted(calls) == sorted({(t, p, 13) for t, p, _ in calls})
    assert len(calls) == 2 * 17


def test_warm_sample_range_runs_without_bigfloat_arithmetic(shared_cache, monkeypatch):
    # once the tables for (q, t) exist, a call for another character costs
    # its root number and the completion step, all on hardware: every
    # mpmath.libmp kernel the package imports refuses to run.  The group's
    # kept root numbers are emptied, so each call below computes its own.
    first = sample_range(101, (1,), T_LO, T_HI, STEP, size=16, cache_dir=shared_cache)
    monkeypatch.setattr(char_group(101), "_metas", {})
    kernels = [name for name in vars(balls) if name.startswith("mpf_")]
    assert set(kernels) >= {"mpf_log", "mpf_cos_sin", "mpf_pi"}
    for name in kernels:
        monkeypatch.setattr(balls, name, _refuse)
    for idx in [(2,), (50,), (99,)]:
        grid = sample_range(101, idx, T_LO, T_HI, STEP, size=16, cache_dir=shared_cache)
        assert len(grid) == len(first) == 2
    # the refusal is live where the kernels are looked up
    with pytest.raises(AssertionError):
        balls.power_ball(Fraction(3), Fraction(1, 2), 1.0, 64)
    with pytest.raises(AssertionError):
        balls.fixed_unit_powers(5, 60)


def test_alternating_moduli_read_their_own_tables(shared_cache):
    calls = [(5, (1,)), (7, (1,)), (5, (2,)), (7, (3,)), (5, (3,)), (7, (2,))]

    def run(order):
        return {
            op: _endpoints(
                sample_range(op[0], op[1], T_LO, T_LO, STEP, size=16, cache_dir=shared_cache)
            )
            for op in order
        }

    sampler_largeq._tables.clear()
    alone = run([op for op in calls if op[0] == 5])
    sampler_largeq._tables.clear()
    alone.update(run([op for op in calls if op[0] == 7]))
    sampler_largeq._tables.clear()
    assert run(calls) == alone


def _count_gauss_sums(monkeypatch) -> list:
    """Patch CharGroup._gauss_fixed to record (q, idx) of every call."""
    calls = []
    original = characters.CharGroup._gauss_fixed

    def counted(self, idx):
        calls.append((self.q, idx))
        return original(self, idx)

    monkeypatch.setattr(characters.CharGroup, "_gauss_fixed", counted)
    return calls


def _bits(grid):
    return [(s.lo.hex(), s.hi.hex()) for s in grid.samples]


def test_repeated_sample_range_runs_one_gauss_sum(shared_cache, monkeypatch):
    # the root number does not depend on t, so a second call for the same
    # character, at the same or a new ordinate, reads the kept one
    monkeypatch.setattr(char_group(1009), "_metas", {})
    calls = _count_gauss_sums(monkeypatch)
    first = sample_range(1009, (1,), T_LO, T_LO, STEP, size=4, cache_dir=shared_cache)
    again = sample_range(1009, (1,), T_LO, T_LO, STEP, size=4, cache_dir=shared_cache)
    later = sample_range(1009, (1,), T_HI, T_HI, STEP, size=4, cache_dir=shared_cache)
    assert calls == [(1009, (1,))]
    assert _bits(again) == _bits(first) and len(first) == 1
    assert again.meta is first.meta is later.meta


def test_sample_all_reuses_earlier_root_numbers(shared_cache, monkeypatch):
    # a sweep after a sample_range at q runs the Gauss sums of the other
    # characters only, and a second sweep at a new ordinate runs none
    group = char_group(101)
    monkeypatch.setattr(group, "_metas", {})
    calls = _count_gauss_sums(monkeypatch)
    one = sample_range(101, (5,), T_LO, T_LO, STEP, size=4, cache_dir=shared_cache)
    assert calls == [(101, (5,))]
    grids = sample_all(101, T_LO, T_LO, STEP, size=4, cache_dir=shared_cache)
    assert grids[(5,)].meta is one.meta and _bits(grids[(5,)]) == _bits(one)
    assert sorted(calls) == sorted((101, idx) for idx in group.primitive_indices())
    del calls[:]
    later = sample_all(101, T_HI, T_HI, STEP, size=4, cache_dir=shared_cache)
    assert calls == []
    assert all(later[idx].meta is grids[idx].meta for idx in grids)


# -- blocks of cold ordinates -------------------------------------------------


def _counted_ops(call):
    """call()'s result and the ivec.op_counter delta it ran."""
    before = op_counter.count
    out = call()
    return out, op_counter.count - before


def _samples_by_ordinate(grids) -> dict:
    """{(character, t): (lo, hi)} over a sample_all result."""
    return {
        (idx, grid.t_float(i)): (s.lo, s.hi)
        for idx, grid in grids.items()
        for i, s in enumerate(grid.samples)
    }


# (q, t_lo, t_hi, step, ordinates of the range with a table beforehand)
BLOCK_RANGES = {
    # t = 0 takes the real-only rows and the pole check; each t < 0 builds
    # a lattice of its own, not |t|'s (hurlat_t-0.0625_D2_... on disk)
    "through-zero": (5, Fraction(-3, 16), Fraction(3, 16), Fraction(1, 16), []),
    # the default row count switches from 4 to 8 between 22 and 23
    "size-switch": (7, Fraction(22), Fraction(47, 2), Fraction(1, 4), []),
    # more ordinates than the cap lets one block hold (patched below)
    "over-the-cap": (7, Fraction(16), Fraction(33, 2), Fraction(1, 16), []),
    # the first ordinate's table is made by an earlier call
    "warm-start": (12, Fraction(16), Fraction(65, 4), Fraction(1, 16), [Fraction(16)]),
}


@pytest.mark.parametrize("case", sorted(BLOCK_RANGES))
def test_block_of_ordinates_matches_one_ordinate_at_a_time(case, tmp_path, monkeypatch):
    # every ordinate of a range without a table goes through blocks of one
    # lattice shape; each sample equals the one-ordinate call's, bit for
    # bit, and the blocks run no more elementwise work than the
    # one-ordinate calls
    q, t_lo, t_hi, step, warm = BLOCK_RANGES[case]
    ts = sampler_largeq._ordinates(t_lo, t_hi, step)[1]
    blocks = []
    table_block = sampler_largeq._table_block

    def spied(q, block, *args):
        blocks.append(list(block))
        return table_block(q, block, *args)

    monkeypatch.setattr(sampler_largeq, "_table_block", spied)
    if case == "over-the-cap":
        one = max((lattice_size(16.0) + 1) * (hurwitz._truncation(16.0, lattice_size(16.0))[0] + 1), 6)
        monkeypatch.setattr(sampler_largeq, "_BLOCK_CELLS", 3 * one * (DEFAULT_NCOLS + 1))
    ranged, alone = tmp_path / "range", tmp_path / "alone"
    for t in warm:
        for cache in (ranged, alone):
            sample_all(q, t, t, step, cache_dir=cache)
    del blocks[:]

    got, block_ops = _counted_ops(lambda: sample_all(q, t_lo, t_hi, step, cache_dir=ranged))
    cold = [t for t in ts if Fraction(t) not in warm]
    assert [t for block in blocks for t in block] == cold
    shapes = [{(lattice_size(t), hurwitz._truncation(t, lattice_size(t))) for t in b} for b in blocks]
    assert all(len(shape) == 1 for shape in shapes)
    if case == "over-the-cap":
        assert len(blocks) >= 3 and max(map(len, blocks)) == 3
    else:
        assert any(len(b) > 1 for b in blocks)
    del blocks[:]

    want, one_ops = {}, 0
    for t in ts:
        grids, ops = _counted_ops(lambda: sample_all(q, t, t, step, cache_dir=alone))
        want.update(_samples_by_ordinate(grids))
        one_ops += ops
    assert _samples_by_ordinate(got) == want
    assert block_ops <= one_ops
    assert sorted(p.name for p in ranged.glob("*.dat")) == sorted(p.name for p in alone.glob("*.dat"))


def test_cold_block_runs_the_rounding_calls_of_one_ordinate(tmp_path, monkeypatch):
    # a block's interval-array calls do not grow with its ordinates
    calls = []
    rounding = ivec._round

    def counted(*args):
        calls.append(1)
        return rounding(*args)

    monkeypatch.setattr(ivec, "_round", counted)
    runs = {}
    for n in (0, 2):
        del calls[:]
        grid = sample_range(7, (1,), 16, 16 + Fraction(n, 16), Fraction(1, 16), cache_dir=tmp_path / str(n))
        assert len(grid) == n + 1
        runs[n + 1] = len(calls)
    assert 0 < runs[3] <= runs[1]


def test_no_cache_dir_reads_and_writes_no_lattice_file(tmp_path, monkeypatch):
    # without a cache_dir the lattices live in memory only: nothing lands
    # under HOME or $GRHDESK_CACHE, no lattice file is saved or loaded, and
    # every sample and cell is the one a call with a cache_dir gives
    home, env = tmp_path / "home", tmp_path / "env"
    home.mkdir()
    env.mkdir()
    monkeypatch.setenv("HOME", str(home))
    monkeypatch.setenv("GRHDESK_CACHE", str(env))
    monkeypatch.setattr(sampler_largeq, "_lattices", {})
    monkeypatch.setattr(sampler_largeq, "_tables", {})

    def refused(*args, **kwargs):
        raise AssertionError("lattice file I/O without a cache_dir")

    def hexes(grids):
        return {idx: [(s.lo.hex(), s.hi.hex()) for s in g.samples] for idx, g in grids.items()}

    call = (7, 16, 16 + Fraction(1, 8), Fraction(1, 16))
    with monkeypatch.context() as m:
        m.setattr(hurwitz, "save_lattice", refused)
        m.setattr(hurwitz, "load_lattice", refused)
        grids = sample_all(*call)
        lat = build_lattice(16.0)
    assert list(home.iterdir()) == [] and list(env.iterdir()) == []
    assert sum(len(g) for g in grids.values()) == 5 * 3
    assert hexes(grids) == hexes(sample_all(*call, cache_dir=tmp_path))
    assert lat.rows.e.tobytes() == build_lattice(16.0, cache_dir=tmp_path).rows.e.tobytes()
