"""The lattice's kernels against an independent multiprecision oracle.

The scalar Euler-Maclaurin oracle (em_oracle.em_hurwitz) is checked
against mpmath's zeta(s, a) evaluated at much higher working precision
with exact rational containment; the lattice kernel (_em_rows), the
lattice build and the Taylor-shift queries are then checked against that
oracle and mpmath, the lattice's sieved powers against single power
balls and mpmath, and auto_params against a pinned table.
"""

import math
import random
import re
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from mpmath import iv

from grhdesk import hurwitz
from grhdesk.errors import DomainError, PoleProximity, RadiusViolation
from grhdesk.hurwitz import (
    DEFAULT_M,
    DEFAULT_NCOLS,
    HurwitzLattice,
    _GAMMA_PREC,
    _ball,
    _ball_mul,
    _ball_scale,
    _ball_sum,
    _em_rows,
    _exp_ball,
    _log_pi,
    _pi_ball,
    _power_ball,
    _shift_coefs,
    _sieved_powers,
    auto_params,
    build_lattice,
    fraction_sqrt_upper,
    load_lattice,
    save_lattice,
    taylor_tail_bound,
    unit_hurwitz,
    zeta_upper,
)
from grhdesk.interval import ComplexBox, RealInterval
from grhdesk.ivec import CVec, IVec

from em_oracle import (
    EMParams,
    covers,
    em_constants,
    em_hurwitz,
    em_hurwitz_tail,
    ends,
    holds,
    iv_complex,
    iv_real,
    ivprec,
    meets,
    width,
)
from lattices import lattice

# the precision of the oracle where its enclosure must be far narrower than a double's
BIG = 96


def mp_fraction(x, prec=300) -> Fraction:
    with mpmath.workprec(prec):
        sign, man, exp, _ = mpmath.mpf(x)._mpf_
    v = Fraction(int(man)) * Fraction(2) ** exp
    return -v if sign else v


def hurwitz_ref(s, alpha: Fraction, prec=300):
    """mpmath Hurwitz zeta as a pair of exact rationals."""
    with mpmath.workprec(prec):
        val = mpmath.zeta(s, mpmath.mpf(alpha.numerator) / alpha.denominator)
        val = mpmath.mpc(val)
        return mp_fraction(val.real, prec), mp_fraction(val.imag, prec)


def cell_hex(lat, r: int, c: int) -> str:
    """float.hex of the endpoints re.lo re.hi im.lo im.hi of cell (r, c) in lat.rows."""
    i = (r, c)
    re, im = lat.rows.re, lat.rows.im
    return " ".join(float(v).hex() for v in (re.lo[i], re.hi[i], im.lo[i], im.hi[i]))


def query(lat, a: int, q: int) -> ComplexBox:
    """The lattice query for one residue a/q."""
    return unit_hurwitz([lat], q, np.array([a]))[0, 0]


# -- em_hurwitz --------------------------------------------------------------


# the oracle at a double's precision and at BIG
ORACLE_BITS = pytest.mark.parametrize("bits", [53, BIG], ids=["hw", "big"])


@ORACLE_BITS
def test_em_contains_basel_value(bits):
    z = em_hurwitz(2, 1, bits=bits)
    fre, fim = hurwitz_ref(2, Fraction(1))
    assert holds(z, fre, fim)
    # pi^2/6 double-checked symbolically
    with mpmath.workprec(300):
        assert holds(z, mp_fraction(mpmath.pi**2 / 6))


@pytest.mark.parametrize("num", [1, 2, 3])
@ORACLE_BITS
def test_em_at_zero_is_half_minus_alpha(bits, num):
    alpha = Fraction(num, 4)
    z = em_hurwitz(0, alpha, bits=bits)
    assert holds(z, Fraction(1, 2) - alpha, 0)


@ORACLE_BITS
def test_em_half_alpha_doubling_identity(bits):
    # zeta(s, 1/2) = (2^s - 1) zeta(s) at s = 1/2
    lhs = em_hurwitz(Fraction(1, 2), Fraction(1, 2), bits=bits)
    zs = em_hurwitz(Fraction(1, 2), 1, bits=bits)
    with ivprec(bits):
        rhs = zs * (iv.sqrt(2) - 1)
    assert meets(lhs, rhs)


def test_em_containment_randomized_bigfloat():
    rng = random.Random(20260822)
    for _ in range(20):
        sigma = Fraction(rng.randint(3, 30), 10)
        if sigma == 1:
            sigma = Fraction(11, 10)
        t = Fraction(rng.randint(-50, 300), 10)
        alpha = Fraction(rng.randint(1, 64), 64)
        z = em_hurwitz((sigma, t), alpha, bits=BIG)
        with mpmath.workprec(300):
            ref = mpmath.zeta(
                mpmath.mpf(sigma.numerator) / sigma.denominator
                + 1j * mpmath.mpf(t.numerator) / t.denominator,
                mpmath.mpf(alpha.numerator) / alpha.denominator,
            )
            assert holds(z, mp_fraction(ref.real), mp_fraction(ref.imag))
        assert width(z.real) < 1e-20


def test_em_containment_randomized_hardware():
    rng = random.Random(7)
    for _ in range(20):
        sigma = Fraction(rng.randint(1, 30), 10)
        if sigma == 1:
            sigma = Fraction(1, 2)
        t = Fraction(rng.randint(0, 200), 10)
        alpha = Fraction(rng.randint(1, 32), 32)
        z = em_hurwitz(complex(float(sigma), float(t)), alpha)
        with mpmath.workprec(200):
            ref = mpmath.zeta(
                mpmath.mpf(sigma.numerator) / sigma.denominator
                + 1j * mpmath.mpf(t.numerator) / t.denominator,
                mpmath.mpf(alpha.numerator) / alpha.denominator,
            )
            assert holds(z, mp_fraction(ref.real), mp_fraction(ref.imag))


def test_em_rigor_does_not_depend_on_params():
    # coarse truncation must still contain the value, just wider
    fre, fim = hurwitz_ref(Fraction(3, 2), Fraction(1, 3))
    for a, b in [(0, 1), (1, 2), (3, 4), (40, 20)]:
        z = em_hurwitz(Fraction(3, 2), Fraction(1, 3), params=EMParams(a, b), bits=BIG)
        assert holds(z, fre, fim), (a, b)


def test_em_width_shrinks_with_params():
    widths = []
    for a, b in [(2, 2), (8, 6), (32, 16)]:
        z = em_hurwitz(Fraction(3, 2), Fraction(1, 3), params=EMParams(a, b), bits=BIG)
        widths.append(width(z.real))
    assert widths[0] > widths[1] > widths[2]


def test_em_wide_alpha_interval_covers_both_ends():
    lo, hi = Fraction(3, 10), Fraction(3, 10) + Fraction(1, 2**20)
    z = em_hurwitz(2.5 + 3j, (lo, hi), bits=BIG)
    for a in (lo, hi):
        fre, fim = hurwitz_ref(mpmath.mpf(2.5) + 3j, a)
        assert holds(z, fre, fim)


def test_em_pole_raises():
    with pytest.raises(PoleProximity):
        em_hurwitz(1, Fraction(1, 2))
    wide = ComplexBox(RealInterval(0.99, 1.01), RealInterval.zero())
    with pytest.raises(PoleProximity):
        em_hurwitz(wide, Fraction(1, 2))


def test_em_domain_checks():
    with pytest.raises(DomainError):
        em_hurwitz(2, 0)
    with pytest.raises(DomainError):
        em_hurwitz(2, Fraction(-1, 4))
    with pytest.raises(DomainError):
        em_hurwitz(2, Fraction(5, 4))
    with pytest.raises(DomainError):
        em_hurwitz(2, Fraction(1, 2), params=EMParams(4, 0))
    with pytest.raises(DomainError):
        zeta_upper(1)


def test_zeta_upper_dominates():
    with mpmath.workprec(120):
        for m in (3, 5, 17, 41):
            assert Fraction(zeta_upper(m)) >= mp_fraction(mpmath.zeta(m))


def test_em_tail_skip_matches_reference():
    s = mpmath.mpf(5) / 2
    z = em_hurwitz_tail(Fraction(5, 2), 1, skip=10, bits=BIG)
    with mpmath.workprec(300):
        ref = mpmath.zeta(s) - sum((n + 1) ** (-s) for n in range(10))
        assert holds(z, mp_fraction(ref), Fraction(0))


# -- truncation choice -------------------------------------------------------

# (t, bits): (terms_a at D = 12, 64, 2048), terms_b at s = 1/2 + it and
# alpha = 1/D + 10, the smallest row offset of a lattice with M = 9.
# Every lattice build takes its truncation from auto_params, so a change
# to this table changes every cell
AUTO_PARAMS = {
    (0.0, 64): ((2, 2, 2), 16),
    (0.0, 96): ((5, 5, 5), 24),
    (16.0, 64): ((13, 13, 13), 16),
    (16.0, 96): ((17, 17, 17), 24),
    (16.0625, 64): ((13, 13, 13), 16),
    (16.0625, 96): ((17, 17, 17), 24),
    (300.0, 64): ((220, 220, 220), 16),
    (300.0, 96): ((214, 214, 214), 24),
    (1000.0, 64): ((737, 738, 738), 16),
    (1000.0, 96): ((703, 703, 703), 24),
    (4000.0, 64): ((3001, 3001, 3001), 16),
    (4000.0, 96): ((2826, 2826, 2826), 24),
}


@pytest.mark.parametrize("t, bits", list(AUTO_PARAMS))
@pytest.mark.parametrize("i, D", enumerate([12, 64, 2048]), ids=["D12", "D64", "D2048"])
def test_auto_params_pinned(t, bits, i, D):
    terms_a, terms_b = AUTO_PARAMS[t, bits]
    assert auto_params(Fraction(1, 2), t, Fraction(1, D) + 10, bits) == (terms_a[i], terms_b)


def test_columns_engine_matches_scalar_path():
    cols = _em_rows([10.0], Fraction(1, 2), [Fraction(2, 5)], 4, 40, 24, BIG)[0]
    for c in range(5):
        assert meets(cols[0, c], em_hurwitz((Fraction(1, 2) + c, 10.0), Fraction(2, 5), bits=BIG))


def test_columns_engine_real_fast_path_contains():
    cols = _em_rows([0.0], Fraction(1, 2), [Fraction(7, 16)], 3, 30, 20, BIG)[0]
    for c in range(4):
        fre, fim = hurwitz_ref(Fraction(1, 2) + c, Fraction(7, 16))
        assert holds(cols[0, c], fre, fim)
        assert cols[0, c].im.width() == 0.0


@pytest.mark.parametrize("t", [0.0, 3.0, 50.0])
def test_lattice_kernel_contains_oracles_off_dyadic_rows(t):
    # D = 12: the row offsets r/D are not floats, so every row's powers
    # and boundary point start from a rounded enclosure of alpha.  Every
    # cell meets the scalar Euler-Maclaurin oracle (run at 53 bits to
    # keep 192 cells per ordinate fast), and row D contains mpmath's value
    D, ncols, M = 12, DEFAULT_NCOLS, DEFAULT_M
    lat = lattice(t, D)
    for r in range(1, D + 1):
        for c in range(ncols + 1):
            oracle = em_hurwitz_tail(complex(0.5 + c, t), Fraction(r, D), skip=M + 1)
            assert meets(lat.rows[r, c], oracle), (t, r, c)
    for c in range(ncols + 1):
        with mpmath.workprec(300):
            s = mpmath.mpf(1) / 2 + c + 1j * mpmath.mpf(t)
            ref = mpmath.mpc(mpmath.zeta(s) - sum((n + 1) ** (-s) for n in range(M + 1)))
            fre, fim = mp_fraction(ref.real), mp_fraction(ref.imag)
        assert holds(lat.rows[D, c], fre, fim), (t, c)


def test_lattice_kernel_width():
    # widths are a correctness quantity: the hardware stages of the kernel
    # leave about 3e-15 at column 0, where the cells are largest
    lat = lattice(16.0, 64)
    for row in lat.rows:
        assert max(row[0].re.width(), row[0].im.width()) <= 1e-14
    # the widest cell of the build from sieved powers (prime balls and
    # exact products) and exact constants is 2.7756e-15; stay within 5%
    re, im = lat.rows.re, lat.rows.im
    widest = max((re.hi - re.lo).max(), (im.hi - im.lo).max())
    assert widest <= 1.05 * 2.7755575615628914e-15


# the widest cell at each (D, t), from the tail summed term by term
# before Horner's form; the Horner tail stays within 1% of it
_TAIL_WIDEST = {
    (4, 0.0): 1.1546319456101628e-14,
    (4, 16.0): 2.0261570199409107e-15,
    (4, 300.0): 9.636735853746359e-14,
    (64, 0.0): 1.1546319456101628e-14,
    (64, 16.0): 2.220446049250313e-15,
    (64, 300.0): 9.792167077193881e-14,
}


@pytest.mark.parametrize("D, t", sorted(_TAIL_WIDEST))
def test_lattice_cells_contain_the_oracle_values(D, t):
    # each checked cell contains the whole 96-bit oracle box, far
    # narrower than the hardware cells: every cell at D = 4, and rows 0,
    # 1, 2, D/2, D-1 and D at D = 64 (each row has its own A)
    lat = lattice(t, D)
    rows = range(D + 1) if D <= 4 else (0, 1, 2, D // 2, D - 1, D)
    for r in rows:
        for c in range(DEFAULT_NCOLS + 1):
            oracle = em_hurwitz_tail(complex(0.5 + c, t), Fraction(r, D), skip=DEFAULT_M + 1, bits=BIG)
            cell = lat.rows[r, c]
            assert covers(cell.re, oracle.real), (r, c)
            if t == 0.0:  # the value is real, and the lattice says so exactly
                assert cell.im.lo == cell.im.hi == 0.0 and holds(oracle.imag, 0), (r, c)
            else:
                assert covers(cell.im, oracle.imag), (r, c)
    re, im = lat.rows.re, lat.rows.im
    widest = max((re.hi - re.lo).max(), (im.hi - im.lo).max())
    assert widest <= 1.01 * _TAIL_WIDEST[D, t]


# the widest cell of each lattice before the Bernoulli coefficients past
# k = 1 became complex128 balls; no lattice may get wider than this
_BEFORE_BALLS_WIDEST = {
    (0.0, 2): 1.1546319456101628e-14,
    (16.0, 4): 2.0261570199409107e-15,
    (16.0625, 4): 2.1649348980190553e-15,
    (300.0, 64): 9.792167077193881e-14,
}


@pytest.mark.parametrize("t, D", sorted(_BEFORE_BALLS_WIDEST))
def test_widest_cell_no_wider_than_before_the_balls(t, D):
    e = lattice(t, D).rows.e
    assert (e[:, 1] - e[:, 0]).max() <= _BEFORE_BALLS_WIDEST[t, D]


@pytest.mark.parametrize("t", [0.0, 16.0, -16.0, 16.0625, 300.0, 1000.0, 2500.0])
def test_em_constants_contain_the_exact_values(t):
    # at the lattice's own truncation: every coefficient box holds the
    # exact Gaussian rational B_2k/(2k)! (s_c)_{2k-1}, 1/(s_c - 1) holds
    # its exact value, and the remainder constant is at least the exact
    # one (compared squared, as |(s_c)_{2b+1}| is a square root)
    b = hurwitz._truncation(t, hurwitz.lattice_size(t))[1]
    inv, coefs, rem = hurwitz._em_constants([t], Fraction(1, 2), DEFAULT_NCOLS, b, 64)
    assert coefs.shape == (1, DEFAULT_NCOLS + 1, b)
    for c, (inv_exact, coefs_exact, rem_sq) in enumerate(em_constants(t, Fraction(1, 2), DEFAULT_NCOLS, b)):
        assert holds(inv[0, c], *inv_exact), (t, c)
        for k, exact in enumerate(coefs_exact, start=1):
            assert holds(coefs[0, c, k - 1], *exact), (t, c, k)
        assert rem[0, c] >= 0.0 and Fraction(rem[0, c]) ** 2 >= rem_sq, (t, c)


def test_em_rows_overflow_raises_naming_t():
    # (s)_33 at t = 1e10 is about 1e330: beyond a double, so no cell could
    # be finite, and the kernel refuses rather than return NaN cells
    with pytest.raises(DomainError, match=r"t = 10000000000\.0"):
        _em_rows([1e10], hurwitz._HALF, [Fraction(10)], 15, 0, 16)
    # one ordinate too high spoils a block, and the message names it
    with pytest.raises(DomainError, match=r"t = 10000000000\.0"):
        _em_rows([16.0, 1e10], hurwitz._HALF, [Fraction(10)], 15, 0, 16)
    with pytest.raises(DomainError, match="finite"):
        _em_rows([float("nan")], hurwitz._HALF, [Fraction(10)], 15, 0, 16)
    # 1e9 stays below the overflow: every cell has its two ends
    cells = _em_rows([1e9], hurwitz._HALF, [Fraction(10)], 15, 0, 16)
    assert not np.isnan(cells.e).any()


def test_em_rows_of_a_block_is_each_ordinate_alone():
    # 11 ordinates, more than a SIMD register's lanes, with t = 0 and
    # negative t among them: every cell of the block, bit for bit, is the
    # cell of its ordinate built alone
    D = 4
    ts = [16.0, 0.0, -16.0, 16.0625, 16.125, 16.1875, 3.0, 1e-300, 16.25, 5.5, -0.5]
    alphas = [Fraction(r, D) + (DEFAULT_M + 1) for r in range(D + 1)]
    a, b = hurwitz._truncation(16.0, D)
    block = _em_rows(ts, hurwitz._HALF, alphas, DEFAULT_NCOLS, a, b)
    for i, t in enumerate(ts):
        alone = _em_rows([t], hurwitz._HALF, alphas, DEFAULT_NCOLS, a, b)
        assert np.array_equal(block.e[:, :, i], alone.e[:, :, 0]), t


@pytest.mark.parametrize(
    "t, bits",
    [(0.0, 64), (3.0, 64), (16.0, 64), (16.0625, 64), (50.0, 64), (1e4, 64), (1e4, 96), (-16.0, 64)],
)
@pytest.mark.parametrize(
    "sigma", [Fraction(1, 2), Fraction(3, 2), Fraction(7, 16), Fraction(33, 2)]
)
def test_power_ball_contains_and_is_tight(t, bits, sigma):
    # Containment is checked against the log kernel's full allowance, not
    # only against the exact value: mpmath's log at bits + _GUARD errs far
    # less than the 2 ulps at `bits` that the ball trusts, so only values
    # at log x -+ 2 ulps show a missing propagation term, such as
    # |t| rad(log x) into the argument of cos and sin.  That allowance
    # alone spreads the argument by |t| 2^(3-bits); where this reaches a
    # double ulp (t = 1e4 at 64 bits) the width check is left out.
    tight = abs(t) * 2.0 ** (3 - bits) <= 2.0**-53
    with mpmath.workdps(50):
        for D in (12, 64):
            for n in range(14):
                for r in range(1, D + 1):
                    x = n + Fraction(r, D)
                    lo_re, hi_re, lo_im, hi_im = _power_ball(x, sigma, t, bits)
                    lg = mpmath.log(mpmath.mpf(x.numerator) / x.denominator)
                    allowance = 0 if lg == 0 else mpmath.ldexp(2, mpmath.frexp(lg)[1] - bits)
                    s = mpmath.mpf(sigma.numerator) / sigma.denominator + 1j * mpmath.mpf(t)
                    for dlg in (-allowance, 0, allowance):
                        v = mpmath.exp(-s * (lg + dlg))
                        assert lo_re <= v.real <= hi_re, (t, bits, sigma, x, dlg)
                        assert lo_im <= v.imag <= hi_im, (t, bits, sigma, x, dlg)
                    if tight:
                        ulp = math.ulp(max(abs(lo_re), abs(hi_re), abs(lo_im), abs(hi_im)))
                        assert hi_re - lo_re <= 4 * ulp, (t, bits, sigma, x)
                        assert hi_im - lo_im <= 4 * ulp, (t, bits, sigma, x)


@pytest.mark.parametrize("t", [0.0, 3.0, 16.0625, -16.0, 1e4, -1e4])
@pytest.mark.parametrize(
    "sigma", [Fraction(1, 2), Fraction(3, 2), Fraction(7, 16), Fraction(33, 2)]
)
def test_ball_disc_holds_every_kernel_allowance(t, sigma):
    # The disc itself, before any narrowing to doubles, holds x^-s moved by
    # each kernel's full trust at once: the log by -+ 2 ulps at `bits`
    # (into the phase and the modulus, as exp(-s (log x + dl))), then cos
    # and sin of that phase by -+ 2 ulps each.  mpmath's kernels at
    # bits + _GUARD err far less than that trust, so only these corners
    # show a missing radius term.  Bases: n + r/12 as in a lattice, the
    # primes of the sieve, and 1/L for the root L^s of its chains.
    xs = [n + Fraction(r, 12) for n in range(14) for r in range(1, 13)]
    xs += [Fraction(p) for p in (2, 3, 5, 7, 11, 13, 97, 2039)]
    xs += [Fraction(1, 64), Fraction(1, 2048)]
    with mpmath.workprec(240):
        sig, tt = mpmath.mpf(sigma.numerator) / sigma.denominator, mpmath.mpf(t)

        def allowance(v, bits):
            return 0 if v == 0 else mpmath.ldexp(2, mpmath.frexp(v)[1] - bits)

        for bits in (64, 96):
            for x in xs:
                X, Y, R, e = _ball(x, sigma, t, bits)
                mid = mpmath.mpc(X, Y)
                lg = mpmath.log(mpmath.mpf(x.numerator) / x.denominator)
                a_lg = allowance(lg, bits)
                for dl in (-a_lg, 0, a_lg):
                    mod = mpmath.exp(-sig * (lg + dl))
                    c, sn = mpmath.cos(-tt * (lg + dl)), mpmath.sin(-tt * (lg + dl))
                    a_c, a_s = allowance(c, bits), allowance(sn, bits)
                    for dc in (-a_c, 0, a_c):
                        for ds in (-a_s, 0, a_s):
                            v = mod * mpmath.mpc(c + dc, sn + ds)
                            assert abs(v * mpmath.ldexp(1, -e) - mid) <= R, (t, sigma, bits, x, dl, dc, ds)


def _lattice_bases(D: int) -> list[int]:
    """Numerators m of the bases m/D = n + M + 1 + r/D of a D-row lattice, M = 9, n = 0..13."""
    return [(10 + n) * D + r for n in range(14) for r in range(1, D + 1)]


def _primes_dividing(ms) -> set[int]:
    out = set()
    for m in ms:
        d = 2
        while d * d <= m:
            while m % d == 0:
                out.add(d)
                m //= d
            d += 1
        if m > 1:
            out.add(m)
    return out


@pytest.mark.parametrize("t", [0.0, 3.0, 16.0, 16.0625, 50.0])
@pytest.mark.parametrize("sigma", [Fraction(1, 2), Fraction(3, 2), Fraction(7, 16)])
def test_sieved_powers_overlap_power_ball_and_are_no_wider(t, sigma):
    # a sieved power is a product of prime balls and L^s at more bits;
    # the reference is one ball of the base itself at `bits`
    for D in (12, 64):
        ms = _lattice_bases(D)
        for m, row in zip(ms, _sieved_powers(ms, D, sigma, [t], 64)[0]):
            x = Fraction(m, D)
            ref = _power_ball(x, sigma, t, 64)
            for j in (0, 2):
                lo, hi, ref_lo, ref_hi = row[j], row[j + 1], ref[j], ref[j + 1]
                assert lo <= ref_hi and ref_lo <= hi, (D, sigma, t, x, j)
                assert hi - lo <= ref_hi - ref_lo, (D, sigma, t, x, j)


@pytest.mark.parametrize("bits", [64, 96])
@pytest.mark.parametrize(
    "sigma", [Fraction(1, 2), Fraction(3, 2), Fraction(7, 16), Fraction(33, 2)]
)
def test_sieved_powers_contain_mpmath_far_up(bits, sigma):
    # far up the line, and at a negative ordinate
    for t in (1e4, -16.0):
        with mpmath.workdps(60):
            s = mpmath.mpf(sigma.numerator) / sigma.denominator + 1j * mpmath.mpf(t)
            for D in (12, 64):
                ms = _lattice_bases(D)
                for m, row in zip(ms, _sieved_powers(ms, D, sigma, [t], bits)[0]):
                    v = mpmath.exp(-s * mpmath.log(mpmath.mpf(m) / D))
                    assert row[0] <= v.real <= row[1], (t, bits, sigma, D, m)
                    assert row[2] <= v.imag <= row[3], (t, bits, sigma, D, m)


@pytest.mark.parametrize("D", [12, 64, 2048])
def test_lattice_bases_round_as_from_fraction(D):
    # the bases m/D of a lattice, rounded in one numpy pass, have the
    # endpoints of one RealInterval.from_fraction each
    ms = _lattice_bases(D)
    base = IVec.from_ratios(ms, D)
    for i, m in enumerate(ms):
        ref = RealInterval.from_fraction(Fraction(m, D))
        assert (base.lo[i], base.hi[i]) == (ref.lo, ref.hi), (D, m)


def _radial(X: int, Y: int, R: int) -> tuple[int, int]:
    """A Gaussian integer in the disc of radius R about X + iY, pushed out along X + iY."""
    mag = math.isqrt(X * X + Y * Y) + 1

    def push(c: int) -> int:
        return c + (abs(c) * R // mag) * (1 if c >= 0 else -1)

    return push(X), push(Y)


def test_ball_product_contains_products_of_members():
    # exact products of points of two discs lie in the product disc, its
    # truncation included: points pushed out along their midpoints (every
    # error term of the product aligned) and points off them along an axis
    rng = random.Random(20261019)

    def rand_ball():
        def signed(bits):
            return rng.choice((-1, 1)) * rng.getrandbits(bits)

        X, Y = signed(rng.randint(1, 90)), signed(rng.randint(0, 90))
        return X, Y, rng.getrandbits(rng.randint(0, 90)), rng.randint(-300, 10)

    for _ in range(300):
        balls = [rand_ball(), rand_ball()]
        pts = []
        for X, Y, R, _ in balls:
            pts.append([_radial(X, Y, R), (X + R, Y), (X - R, Y), (X, Y + R), (X, Y - R)])
        for prec in (64, 400):
            X, Y, R, e = _ball_mul(*balls, prec)
            sh = e - balls[0][3] - balls[1][3]
            assert sh >= 0
            for x1, y1 in pts[0]:
                for x2, y2 in pts[1]:
                    dre = x1 * x2 - y1 * y2 - (X << sh)
                    dim = x1 * y2 + y1 * x2 - (Y << sh)
                    assert dre * dre + dim * dim <= (R << sh) ** 2, (balls, prec)


def test_ball_sums_and_scalings_contain_those_of_members():
    # the sum at the largest exponent, and a product by num/den at 2^-prec,
    # hold the exact sums and products of the balls' axis points
    rng = random.Random(20261021)

    def signed(bits):
        return rng.choice((-1, 1)) * rng.getrandbits(bits)

    for _ in range(300):
        balls = [
            (signed(rng.randint(1, 90)), signed(rng.randint(0, 90)), rng.getrandbits(rng.randint(0, 40)),
             rng.randint(-200, 10))
            for _ in range(rng.randint(1, 4))
        ]
        num, den, prec = signed(rng.randint(1, 40)) or 1, rng.getrandbits(30) + 1, rng.choice((64, 128))
        X, Y, R, e = _ball_sum(balls)
        points = [[(x + r, y), (x - r, y), (x, y + r), (x, y - r)] for x, y, r, _ in balls]
        for i in range(4):
            re = sum(Fraction(p[i][0]) * Fraction(2) ** b[3] for p, b in zip(points, balls))
            im = sum(Fraction(p[i][1]) * Fraction(2) ** b[3] for p, b in zip(points, balls))
            d = (re - Fraction(X) * Fraction(2) ** e) ** 2 + (im - Fraction(Y) * Fraction(2) ** e) ** 2
            assert d <= (Fraction(R) * Fraction(2) ** e) ** 2, (balls, i)
        x, y, r, eb = balls[0]
        Xs, Ys, Rs, es = _ball_scale(balls[0], num, den, prec)
        assert es == -prec
        for px, py in points[0]:
            re = Fraction(px * num, den) * Fraction(2) ** (eb + prec) - Xs
            im = Fraction(py * num, den) * Fraction(2) ** (eb + prec) - Ys
            assert re * re + im * im <= Rs * Rs, (balls[0], num, den, prec)
    assert _ball_sum([]) == (0, 0, 0, 0)


def test_point_balls_hold_pi_log_pi_and_exponentials():
    # pi (re + i im) and log pi hold their values; e^z holds e^w for w
    # at z's axis points, whatever the size of z's real and imaginary parts
    prec = _GAMMA_PREC
    with mpmath.workprec(400):
        lp, rad = _log_pi()
        assert abs(mpmath.log(mpmath.pi) * 2**prec - lp) <= rad
        for re, im in [(1, 0), (Fraction(-1, 7), Fraction(3, 2)), (0.25, -2.0**-30), (Fraction(4 * 75, 128), 0.25)]:
            X, Y, R, e = _pi_ball(re, im)
            v = mpmath.pi * mpmath.mpc(mpmath.mpf(Fraction(re).numerator) / Fraction(re).denominator,
                                       mpmath.mpf(Fraction(im).numerator) / Fraction(im).denominator)
            assert abs(v * 2**prec - mpmath.mpc(X, Y)) <= R, (re, im)
        for x, y, r in [(0, 0, 0), (3, -7, 5), (-(10**5), 10**4, 2**60), (5, 2**40, 1)]:
            z = (x << prec, y << prec, r, -prec)
            X, Y, R, e = _exp_ball(z)
            for w in [(x, y), (x + mpmath.ldexp(r, -prec), y), (x, y - mpmath.ldexp(r, -prec))]:
                v = mpmath.exp(mpmath.mpc(*w))
                assert abs(v * mpmath.ldexp(1, -e) - mpmath.mpc(X, Y)) <= R, (x, y, r, w)
    # past a radius of 1/4 the exponential's relative bound no longer holds
    with pytest.raises(DomainError, match="too wide to exponentiate"):
        _exp_ball((0, 0, (1 << (prec - 2)) + 1, -prec))


def _count_balls(monkeypatch) -> tuple[list[Fraction], list[float]]:
    """Record, from here on, the base of every transcendental ball's root
    and log (_modulus) and the ordinate of every turn of one (_turn)."""
    bases, turns = [], []
    modulus, turn = hurwitz._modulus, hurwitz._turn

    def counted_modulus(x, *args):
        bases.append(x)
        return modulus(x, *args)

    def counted_turn(m, t):
        turns.append(t)
        return turn(m, t)

    monkeypatch.setattr(hurwitz, "_modulus", counted_modulus)
    monkeypatch.setattr(hurwitz, "_turn", counted_turn)
    return bases, turns


def test_lattice_build_takes_one_ball_per_prime(monkeypatch):
    # t = 16, D = 64 truncates at a = 13, so the bases are m/64 for
    # m = 640..1536: the 242 primes up to 1536 and 64^s, not 910 powers
    bases, turns = _count_balls(monkeypatch)
    lattice(16.0, 64)
    primes = _primes_dividing(range(640, 1537))
    assert len(primes) == 242
    assert sorted(bases) == sorted([Fraction(p) for p in primes] + [Fraction(1, 64)])
    assert turns == [16.0] * 243


def test_block_build_takes_one_root_and_log_per_prime(monkeypatch):
    # two ordinates of one truncation (a = 13 at D = 64) in one pass:
    # each prime's integer root and log once, its phase once per ordinate,
    # and every cell as the one-ordinate build's
    ts = [16.0, 16.0625]
    assert {hurwitz._truncation(t, 64) for t in ts} == {(13, 16)}
    bases, turns = _count_balls(monkeypatch)
    block = hurwitz._build(ts, 64)
    assert len(bases) == 243 and sorted(turns) == sorted(ts * 243)
    for t, lat in zip(ts, block):
        alone = lattice(t, 64)
        assert np.array_equal(lat.rows.e, alone.rows.e), t


def test_one_row_takes_only_the_primes_of_its_bases(monkeypatch):
    # one row of a D = 2048 lattice with a = 28 has 29 bases up to about
    # 80,000: no ball for a prime that divides none of them
    calls, _ = _count_balls(monkeypatch)
    alpha = Fraction(777, 2048) + 10
    _em_rows([7.0], Fraction(1, 2) + 16, [alpha], 49, 28, 18, 72)
    ms = [alpha.numerator + n * 2048 for n in range(29)]
    primes = _primes_dividing(ms)
    assert sorted(calls) == sorted([Fraction(p) for p in primes] + [Fraction(1, 2048)])
    assert len(calls) < 80


# -- the lattice -------------------------------------------------------------


@pytest.fixture(scope="module")
def lat8_t0():
    return lattice(0.0, 8)


@pytest.fixture(scope="module")
def lat8_t10():
    return lattice(10.0, 8)


@pytest.fixture(scope="module")
def lat256_t0():
    return lattice(0.0, 256)


def test_lattice_last_row_cell_example(lat8_t0):
    # cell (r=D, c=2) holds zeta(5/2) minus its first M+1 integer terms
    cell = lat8_t0.rows[8, 2]
    s = mpmath.mpf(5) / 2
    with mpmath.workprec(300):
        ref = mpmath.zeta(s) - sum((n + 1) ** (-s) for n in range(10))
        assert cell.re.contains(mp_fraction(ref))
    assert cell.im.contains(0)


def test_lattice_cells_match_em_tail_oracle(lat8_t0):
    for r in range(1, 9):
        for c in (0, 1, 15):
            cell = lat8_t0.rows[r, c]
            oracle = em_hurwitz_tail(
                Fraction(1, 2) + c, Fraction(r, 8), skip=10, bits=BIG
            )
            assert meets(cell, oracle), (r, c)
            assert cell.re.width() < 1e-13


def test_lattice_complex_cells_match_em_tail_oracle(lat8_t10):
    for r in (1, 4, 8):
        for c in (0, 2, 15):
            cell = lat8_t10.rows[r, c]
            oracle = em_hurwitz_tail((Fraction(1, 2) + c, 10.0), Fraction(r, 8), skip=10, bits=BIG)
            assert meets(cell, oracle), (r, c)


def test_lattice_half_row_doubling_identity(lat8_t0):
    # restore the removed head at alpha = 1/2, then compare with (2^s-1) zeta(s)
    for c in (0, 1, 3):
        s = Fraction(1, 2) + c
        cell = lat8_t0.rows[4, c]
        with mpmath.workprec(300):
            ms = mpmath.mpf(s.numerator) / s.denominator
            full = (2**ms - 1) * mpmath.zeta(ms)
            ref = full - sum((n + mpmath.mpf(1) / 2) ** (-ms) for n in range(10))
            assert cell.re.contains(mp_fraction(ref)), c


@pytest.mark.parametrize("fixture", ["lat8_t0", "lat8_t10"])
def test_lattice_row_0_is_row_d_and_one_more_term(fixture, request):
    # row 0 (offset M + 1) holds row D (offset M + 2) plus (M + 1)^(-s_c)
    lat = request.getfixturevalue(fixture)
    for c in (0, 1, 7, 15):
        ends = _power_ball(Fraction(DEFAULT_M + 1), Fraction(1, 2) + c, lat.t, 96)
        term = ComplexBox(RealInterval(*ends[:2]), RealInterval(*ends[2:]))
        assert lat.rows[0, c].intersects(lat.rows[lat.D, c] + term), c


def test_lattice_validates_arguments(tmp_path):
    # fewer than two rows are refused before any work or file
    with pytest.raises(DomainError):
        build_lattice(0.0, D=1, cache_dir=tmp_path)
    assert list(tmp_path.iterdir()) == []


def _file_parts(path) -> tuple[bytes, list[bytes], np.ndarray]:
    """A lattice file's magic line, header fields and body as float64s."""
    magic, head, body = path.read_bytes().split(b"\n", 2)
    return magic, head.split(), np.frombuffer(body, dtype="<f8").copy()


def _write_parts(path, magic: bytes, head: list[bytes], body) -> None:
    path.write_bytes(magic + b"\n" + b" ".join(head) + b"\n" + np.asarray(body, dtype="<f8").tobytes())


def test_lattice_save_load_roundtrip(tmp_path, lat8_t10):
    # the header carries the one shape (Ncols 15, M 9, build bits 64) and
    # the truncation (a, b) a build takes for the lattice, and the body is
    # the version-4 format: the endpoint block of lat.rows, shape
    # (2, 2, D + 1, Ncols + 1), as raw little-endian float64 in C order
    path = tmp_path / "lat.dat"
    save_lattice(lat8_t10, path)
    back = load_lattice(path, expect=(10.0, 8))
    assert (back.t, back.D) == (10.0, 8)
    assert back.rows.shape == lat8_t10.rows.shape == (9, 16)
    magic, head, body = _file_parts(path)
    a, b = hurwitz._truncation(10.0, 8)
    assert magic == b"hurwitz-lattice 4"
    assert head == f"10.0 8 15 9 64 {a} {b}".encode().split()
    assert body.size == 2 * 2 * 9 * 16
    assert np.array_equal(body, lat8_t10.rows.e.reshape(-1))
    assert np.array_equal(back.rows.e, lat8_t10.rows.e)
    for r in range(9):
        for c in range(16):
            assert cell_hex(back, r, c) == cell_hex(lat8_t10, r, c)


def test_lattice_disk_cache_hit(tmp_path):
    lat1 = build_lattice(0.0, D=4, cache_dir=tmp_path)
    files = list(tmp_path.iterdir())
    assert len(files) == 1
    lat2 = build_lattice(0.0, D=4, cache_dir=tmp_path)
    assert cell_hex(lat1, 1, 0) == cell_hex(lat2, 1, 0)
    assert list(tmp_path.iterdir()) == files


LATTICE_0 = (0.0, 4)


def _assert_rebuilt(path, fresh, tmp_path):
    again = build_lattice(0.0, D=4, cache_dir=tmp_path)
    assert load_lattice(path, expect=LATTICE_0).D == 4
    assert (again.t, again.D) == (0.0, 4)
    for r in range(5):
        for c in range(16):
            assert cell_hex(again, r, c) == cell_hex(fresh, r, c)


# headers "t D Ncols M bits" that name another lattice than (0.0, 4) in
# the one shape (15, 9, 64): another t, D, Ncols, M or bits alone, three
# in a foreign shape (Ncols 3, M 2) with another t, bits or D, and one
# cut short
@pytest.mark.parametrize(
    "doctored",
    [
        "10.0 4 3 2 96",
        "0.0 4 3 2 64",
        "0.0 8 3 2 96",
        "0.0 4 3",
        "10.0 4 15 9 64",
        "0.0 8 15 9 64",
        "0.0 4 3 9 64",
        "0.0 4 15 2 64",
        "0.0 4 15 9 96",
        "truncation",
    ],
)
def test_lattice_cache_rebuilds_on_header_mismatch(tmp_path, doctored):
    fresh = build_lattice(0.0, D=4, cache_dir=tmp_path)
    (path,) = tmp_path.iterdir()
    magic, head, body = _file_parts(path)
    assert head[:5] == b"0.0 4 15 9 64".split()
    a, b = (int(v) for v in head[5:])
    if doctored == "truncation":
        # the lattice asked for, built under another truncation
        head = head[:5] + [str(a + 1).encode(), str(b).encode()]
    else:
        head = doctored.encode().split() + (head[5:] if doctored.count(" ") == 4 else [])
    # the cells stay; a header naming another lattice must not be trusted
    _write_parts(path, magic, head, body)
    with pytest.raises(ValueError):
        load_lattice(path, expect=LATTICE_0)
    _assert_rebuilt(path, fresh, tmp_path)


def test_lattice_cache_rebuilds_truncated_file(tmp_path):
    # a body one value short, cut in half, cut inside a value, or one
    # value long is refused
    fresh = build_lattice(0.0, D=4, cache_dir=tmp_path)
    (path,) = tmp_path.iterdir()
    whole = path.read_bytes()
    for cut in (whole[:-8], whole[: len(whole) // 2], whole[:-3], whole + whole[-8:]):
        path.write_bytes(cut)
        with pytest.raises(ValueError):
            load_lattice(path, expect=LATTICE_0)
        _assert_rebuilt(path, fresh, tmp_path)
        assert path.read_bytes() == whole


@pytest.mark.parametrize("fault", ["swapped", "nan"])
def test_lattice_cache_rebuilds_unordered_cell(tmp_path, fault):
    # a body cell whose endpoints are not ordered lo <= hi is refused
    fresh = build_lattice(0.0, D=4, cache_dir=tmp_path)
    (path,) = tmp_path.iterdir()
    magic, head, body = _file_parts(path)
    ends = body.reshape(2, 2, 5, 16)
    lo, hi = ends[0, 0, 1, 0], ends[0, 1, 1, 0]  # re of cell (1, 0)
    assert lo != hi
    ends[0, 0, 1, 0], ends[0, 1, 1, 0] = (hi, lo) if fault == "swapped" else (lo, np.nan)
    _write_parts(path, magic, head, body)
    with pytest.raises(ValueError):
        load_lattice(path, expect=LATTICE_0)
    _assert_rebuilt(path, fresh, tmp_path)


def test_lattice_cache_rebuilds_version_1_file(tmp_path):
    # a file in an earlier format (version 1, version 2 with rows 1..D
    # only, or the version-3 text form of this very lattice) is
    # refused even when its header names the requested lattice, then
    # rebuilt and overwritten
    fresh = build_lattice(0.0, D=4, cache_dir=tmp_path)
    (path,) = tmp_path.iterdir()
    whole = path.read_bytes()
    assert whole.startswith(b"hurwitz-lattice 4\n")
    ends = np.moveaxis(fresh.rows.e, (0, 1), (-2, -1)).reshape(-1, 4)
    cells = [" ".join(map(float.hex, cell)) for cell in ends.tolist()]
    stale = " ".join(map(float.hex, (1.0, 1.0, 0.0, 0.0)))  # the point box 1
    old = {"hurwitz-lattice 1": [stale] * 64, "hurwitz-lattice 2": cells[16:], "hurwitz-lattice 3": cells}
    for magic, body in old.items():
        path.write_text("\n".join([magic, "0.0 4 15 9 64"] + body) + "\n")
        with pytest.raises(ValueError):
            load_lattice(path, expect=LATTICE_0)
        _assert_rebuilt(path, fresh, tmp_path)
        assert path.read_bytes() == whole


def test_load_rejects_foreign_file(tmp_path):
    p = tmp_path / "junk.dat"
    p.write_text("something else\n")
    with pytest.raises(ValueError):
        load_lattice(p)


@pytest.mark.parametrize("shape", [(3, 9, 64), (15, 2, 64), (15, 9, 96)])
def test_load_without_expect_refuses_another_shape(tmp_path, shape):
    # a whole, well-formed file of a lattice in another shape (Ncols, M,
    # build bits): the truncation its header names is the one such a
    # build took, and its body has that shape's length and ordered cells;
    # with no expect it is refused all the same
    ncols, M, bits = shape
    a, b = auto_params(Fraction(1, 2), 0.0, Fraction(1, 4) + M + 1, bits)
    head = f"0.0 4 {ncols} {M} {bits} {a} {b}".encode().split()
    body = np.zeros((2, 2, 5, ncols + 1))
    body[:, 1] = 1.0
    path = tmp_path / f"hurlat_t0.0_D4_N{ncols}_M{M}_b{bits}.dat"
    _write_parts(path, b"hurwitz-lattice 4", head, body)
    with pytest.raises(ValueError, match="shape"):
        load_lattice(path)


# -- Taylor-shift queries ----------------------------------------------------


def test_nearest_row_selection():
    # row r of this lattice holds r in column 0 and zeros elsewhere, so a
    # query returns its row's r plus the restored head
    # sum_{n <= M} (n + a/q)^(-1/2) (t = 0) plus a Taylor-tail pad far
    # below 1/2
    D = 8
    cells = np.zeros((D + 1, DEFAULT_NCOLS + 1), dtype=complex)
    cells[:, 0] = np.arange(D + 1)
    lat = HurwitzLattice(t=0.0, D=D, rows=CVec.from_points(cells))

    def row(a, q):
        head = sum((n + a / q) ** -0.5 for n in range(DEFAULT_M + 1))
        return round(query(lat, a, q).re.mid() - head)

    assert row(1, 2) == 4
    assert row(3, 16) == 2  # exact tie 1.5 goes to the larger row
    # below 1/(2D) the query reads row 0, restoring the same head
    assert row(1, 10**6) == 0
    assert row(1, 17) == 0 and row(1, 16) == 1  # 1/16 = 1/(2D) ties to row 1
    assert row(999999, 10**6) == 8


def test_eval_taylor_on_row_matches_em(lat8_t0):
    # a/q = 3/8 sits exactly on row 3: no Taylor shift, no tail
    z = query(lat8_t0, 3, 8)
    oracle = em_hurwitz(Fraction(1, 2), Fraction(3, 8), bits=BIG)
    assert meets(z, oracle)
    fre, fim = hurwitz_ref(Fraction(1, 2), Fraction(3, 8))
    assert holds(z, fre, fim)


def test_eval_taylor_randomized_against_em(lat256_t0):
    rng = random.Random(404)
    seen = 0
    while seen < 25:
        q = rng.randint(3, 10**4)
        a = rng.randint(1, q - 1)
        if math.gcd(a, q) != 1:
            continue
        seen += 1
        z = query(lat256_t0, a, q)
        oracle = em_hurwitz(Fraction(1, 2), Fraction(a, q), bits=BIG)
        assert meets(z, oracle), (a, q)
        assert z.re.width() < 1e-11, (a, q)


def test_eval_taylor_complex_example(lat8_t10):
    z = query(lat8_t10, 2, 5)
    oracle = em_hurwitz((Fraction(1, 2), 10.0), Fraction(2, 5), bits=BIG)
    assert meets(z, oracle)


def test_eval_taylor_validates_input(lat8_t0):
    with pytest.raises(DomainError):
        query(lat8_t0, 2, 4)
    with pytest.raises(DomainError):
        query(lat8_t0, 0, 5)
    with pytest.raises(DomainError):
        query(lat8_t0, 5, 5)
    with pytest.raises(DomainError):
        unit_hurwitz([lat8_t0], 5, np.array([1, 2, 5]))  # one bad unit fails the batch


@pytest.fixture(scope="module")
def lat64_t16():
    return lattice(16.0, 64)


@pytest.mark.parametrize(
    "q, width", [(7, 6.626e-13), (101, 3.131e-12), (1009, 1.2101e-11), (1024, 1.2549e-11)]
)
def test_unit_hurwitz_width_guard(lat64_t16, q, width):
    # widths are a correctness quantity: the widest query over every unit
    # of q stays at or below the per-term Taylor recurrence it replaced
    units = np.array([a for a in range(1, q) if math.gcd(a, q) == 1])
    z = unit_hurwitz([lat64_t16], q, units)[0]
    assert max((z.re.hi - z.re.lo).max(), (z.im.hi - z.im.lo).max()) <= width


# the widest side of each unit a < q/(2D), in increasing a, when those
# units read row 1 at |delta| up to 1/D, rounded up in the fifth digit;
# reading row 0 keeps every such unit within them
LOW_UNIT_WIDTHS = {
    (1009, 0.0): [9.0950e-13, 6.0752e-13, 5.0449e-13, 4.4054e-13, 4.0501e-13, 3.5528e-13, 3.3929e-13],
    (1024, 0.0): [8.9884e-13, 4.9738e-13, 3.9613e-13, 3.4284e-13],
    (1009, 10.0): [9.6805e-12, 5.1160e-12, 4.6285e-12, 3.7277e-12, 3.4133e-12, 2.5633e-12, 2.4097e-12],
    (1024, 10.0): [9.2504e-12, 4.6226e-12, 3.3156e-12, 2.5473e-12],
}


@pytest.mark.parametrize("q, t", sorted(LOW_UNIT_WIDTHS))
def test_unit_hurwitz_low_units_read_row_0(q, t):
    # a/q < 1/(2D) reads row 0 (offset M + 1) at delta = a/q and restores
    # the same head as any unit: each holds the direct sum and is no
    # wider than before
    D = 64
    lat = lattice(t, D)
    units = np.array([a for a in range(1, q) if math.gcd(a, q) == 1])
    z = unit_hurwitz([lat], q, units)[0]
    low = np.flatnonzero(2 * D * units < q)
    assert len(low) == len(LOW_UNIT_WIDTHS[q, t])
    for i, pinned in zip(low, LOW_UNIT_WIDTHS[q, t]):
        box = z[i]
        ref = em_hurwitz((Fraction(1, 2), t), Fraction(int(units[i]), q), bits=BIG)
        mid_re = sum(ends(ref.real)) / 2
        mid_im = sum(ends(ref.imag)) / 2
        assert holds(box, mid_re, mid_im), units[i]
        assert max(box.re.width(), box.im.width()) <= pinned, units[i]


def test_unit_hurwitz_blocks_change_no_endpoint(lat64_t16, monkeypatch):
    # units go through in blocks, so that a call's memory does not grow
    # with phi(q); every operation is elementwise over the units, so the
    # block size moves no endpoint
    q = 101
    units = np.arange(1, q)
    whole = unit_hurwitz([lat64_t16], q, units)
    monkeypatch.setattr(hurwitz, "_UNIT_BLOCK", 7)
    blocked = unit_hurwitz([lat64_t16], q, units)
    for a, b in ((whole.re, blocked.re), (whole.im, blocked.im)):
        assert np.array_equal(a.lo, b.lo) and np.array_equal(a.hi, b.hi)
    assert unit_hurwitz([lat64_t16], q, np.array([], dtype=np.int64)).shape == (1, 0)


def test_unit_hurwitz_of_a_block_is_each_lattice_alone(lat64_t16):
    # a block of lattices of one row count gives each lattice's values on
    # a leading axis, endpoint for endpoint, in the interval-array calls
    # of one lattice; lattices of two row counts are refused
    lats = [lat64_t16, lattice(-16.0625, 64)]
    for q in (7, 101):
        units = np.array([a for a in range(1, q) if math.gcd(a, q) == 1])
        block = unit_hurwitz(lats, q, units)
        assert block.shape == (2, len(units))
        for i, lat in enumerate(lats):
            assert np.array_equal(block.e[:, :, i], unit_hurwitz([lat], q, units).e[:, :, 0]), (q, i)
    with pytest.raises(ValueError, match="one row count"):
        unit_hurwitz([lat64_t16, lattice(16.0, 8)], 7, units[:3])


@pytest.mark.parametrize("t", [0.0, 10.0, -10.0, 1e4])
def test_shift_coefs_contain_pochhammer_ratios(t):
    coefs = _shift_coefs([t], 15)[0]
    assert coefs.shape == (16,)
    with mpmath.workprec(300):
        s0 = mpmath.mpf(1) / 2 + 1j * mpmath.mpf(t)
        for k in range(16):
            ref = mpmath.rf(s0, k) / mpmath.factorial(k)
            fre, fim = mp_fraction(ref.real), mp_fraction(ref.imag)
            assert holds(coefs[k], fre, fim), (t, k)
            if t == 0.0:
                assert coefs[k].im.width() == 0.0


def taylor_tail_oracle(s_mag_hi: Fraction, delta_abs: Fraction, radius: Fraction, K: int) -> Fraction:
    """taylor_tail_bound as the Fraction formula it replaced."""
    if delta_abs == 0:
        return Fraction(0)
    poch = Fraction(1)
    for j in range(K):
        poch *= s_mag_hi + j
    tK = delta_abs**K * poch / math.factorial(K) * radius ** (-K) * (1 + radius / (K - Fraction(1, 2)))
    ratio = delta_abs * max(Fraction(1), (s_mag_hi + K) / (K + 1)) / radius
    if ratio >= 1:
        raise RadiusViolation(f"Taylor tail ratio {float(ratio):.3g} >= 1 at k = {K}")
    return tK / (1 - ratio)


def test_taylor_tail_bound_matches_the_fraction_formula():
    # the same rational, so the pad it rounds to is the same double, over
    # heights, shifts up to the largest a row count allows, every row's
    # radius and first terms K; a ratio >= 1 raises in both
    rng = random.Random(2025)
    ts = [0.0, 1.0, 16.0, -16.0, 16.0625, 300.0, 1000.0, 2500.0, 1e4, 1e6]
    ts += [rng.uniform(-5000, 5000) for _ in range(10)]
    raised = 0
    for t in ts:
        s_mag = fraction_sqrt_upper(Fraction(1, 4) + Fraction(t) ** 2)
        for D in (2, 4, 64, 2048):
            q = rng.randint(3, 10**5)
            deltas = [0, Fraction(1, 2 * D), Fraction(rng.randint(1, q // 2), q * D), Fraction(1, q * D)]
            for delta in deltas:
                for r in (0, 1, D // 2, D):
                    radius = Fraction(r, D) + DEFAULT_M + 1
                    for K in (1, 2, DEFAULT_NCOLS + 1, 40):
                        try:
                            want = taylor_tail_oracle(s_mag, delta, radius, K)
                        except RadiusViolation as err:
                            with pytest.raises(RadiusViolation, match=re.escape(str(err))):
                                taylor_tail_bound(s_mag, delta, radius, K)
                            raised += 1
                            continue
                        num, den = taylor_tail_bound(s_mag, delta, radius, K)
                        assert den > 0 and Fraction(num, den) == want, (t, D, delta, r, K)
    assert raised  # the grid reaches the radius violation


def test_taylor_radius_violation_raises():
    # delta comparable to the decay radius makes the ratio exceed one
    with pytest.raises(RadiusViolation):
        taylor_tail_bound(Fraction(4000), Fraction(1, 2), Fraction(10), 16)


# -- spec-level invariants ---------------------------------------------------


def test_taylor_tail_dominates_brute_terms():
    # the geometric bound must cover the summed magnitudes of the next
    # 50 Taylor terms, evaluated honestly at big-float precision
    rng = random.Random(31337)
    D, M, ncols = 2048, 9, 15
    K = ncols + 1
    cases = 0
    while cases < 1000:
        q = rng.randint(3, 10**4)
        a = rng.randint(1, q - 1)
        if math.gcd(a, q) != 1:
            continue
        t = rng.uniform(0.0, 25.0) if cases % 3 else 0.0
        cases += 1
        r = (2 * a * D + q) // (2 * q)  # the query's row, 0..D
        delta = abs(Fraction(a, q) - Fraction(r, D))
        radius = Fraction(r, D) + (M + 1)
        smag_sq = Fraction(1, 4) + Fraction(t) ** 2
        smag = fraction_sqrt_upper(smag_sq)
        bound = Fraction(*taylor_tail_bound(smag, delta, radius, K))
        if delta == 0:
            assert bound == 0
            continue
        if cases % 20:
            continue  # full brute evaluation on a 1-in-20 subsample
        alpha = Fraction(r, D) + (M + 1)
        cells = _em_rows([t], Fraction(1, 2) + K, [alpha], 49, 28, 18, 72)[0]
        brute = Fraction(0)
        poch = Fraction(1)
        for j in range(K):
            poch *= smag + j
        dk = delta**K
        for k in range(K, K + 50):
            coef = dk * poch / math.factorial(k)
            brute += coef * cells[0, k - K].abs().hi_fraction()
            poch *= smag + k
            dk *= delta
        assert brute <= bound, (a, q, t)


def test_alpha_derivative_matches_finite_difference():
    # d/dalpha zeta(s, alpha) = -s zeta(s+1, alpha); forward difference
    # with step eps carries a second-derivative error of eps/2 * sup|f''|
    rng = random.Random(99)
    eps = Fraction(1, 2**20)
    for _ in range(20):
        sigma = Fraction(rng.randint(12, 40), 10)
        t = Fraction(rng.randint(0, 120), 10)
        alpha = Fraction(rng.randint(2, 60), 64)
        with ivprec(BIG):
            s = iv_complex((sigma, t))
            deriv = em_hurwitz(s + 1, alpha, bits=BIG) * (-s)
            za = em_hurwitz(s, alpha, bits=BIG)
            zb = em_hurwitz(s, alpha + eps, bits=BIG)
            fd = (zb - za) * iv_real(1 / eps)
            second = em_hurwitz(s + 2, (alpha, alpha + eps), bits=BIG) * (s * (s + 1))
            err = (abs(second) * iv_real(eps / 2)).b
            pad = iv.mpf([-err, err])
            assert meets(fd + iv.mpc(pad, pad), deriv)
