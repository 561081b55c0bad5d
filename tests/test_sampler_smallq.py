"""Small-modulus dual-grid sampler against the large-modulus sampler and mpmath.

The two samplers share the character tables and the group DFT that turns
residue-class sums into character sums.  What goes into that DFT is
independent: one sums theta series on the dual grid and transforms back
with an FFT, the other reads Hurwitz values off a lattice.  Overlapping
enclosures at the same ordinates therefore check both.  The dual values
and both error bounds are also checked against mpmath directly.
"""

from dataclasses import replace
from fractions import Fraction
from functools import lru_cache

import mpmath
import numpy as np
import pytest

from grhdesk import sampler_smallq
from grhdesk.characters import CharGroup, char_group
from grhdesk.errors import (
    BetaConditionViolated,
    DomainError,
    NotPrimitive,
    RealnessViolation,
    TailDivergence,
    XConditionViolated,
)
from grhdesk.interval import RealInterval
from grhdesk.ivec import IVec
from grhdesk.sampler_largeq import sample_all, sample_range
from grhdesk.sampler_smallq import (
    FftPlan,
    alias_bound_fhat,
    default_plan,
    default_trunc,
    smallq_all,
    smallq_samples,
    t_grid_error,
)

# t-samples every 1/8 and a dual period of 64: small enough for a fast
# test, and the t-grid error near t = 64 is still far below the widths
PLAN = FftPlan(A=Fraction(8), B=Fraction(64))
T_MAX = Fraction(1, 4)


@pytest.fixture(scope="module")
def grid_q5():
    return smallq_samples(5, (1,), PLAN, T_MAX)


def test_smallq_overlaps_largeq(grid_q5, tmp_path_factory):
    cache = str(tmp_path_factory.mktemp("latcache"))
    ref = sample_range(5, (1,), 0, T_MAX, PLAN.t_step, size=16, cache_dir=cache)
    assert len(grid_q5) == len(ref) == 3
    for i in range(len(ref)):
        assert grid_q5.t_at(i) == ref.t_at(i)
        assert grid_q5.samples[i].intersects(ref.samples[i]), i
        assert grid_q5.samples[i].width() < 1e-12


def test_smallq_realness_projection(grid_q5, monkeypatch):
    # with the right constant every assembled box straddles the real axis
    # (grid_q5 was built without RealnessViolation); rotating the constant
    # by i makes the completed value purely imaginary, which must be refused
    assert all(s.sign() == 1 for s in grid_q5.samples)
    original = CharGroup.char_meta

    def rotated(self, idx, *args, **kwargs):
        meta = original(self, idx, *args, **kwargs)
        return replace(meta, epsilon=meta.epsilon.mul_i())

    monkeypatch.setattr(CharGroup, "char_meta", rotated)
    with pytest.raises(RealnessViolation):
        smallq_samples(5, (1,), PLAN, T_MAX)


# the width of each character's sample at t = 0 on the default plan since
# small q's values became fixed-point balls, rounded up in the fifth
# digit: nothing may widen the narrowest samples the package makes
T0_WIDTHS = {
    5: {(1,): 1.3212e-14, (2,): 9.1039e-15, (3,): 1.3212e-14},
    7: {(1,): 2.0651e-14, (2,): 1.8430e-14, (3,): 1.7986e-14, (4,): 1.8430e-14, (5,): 2.0651e-14},
    8: {(0, 1): 1.5100e-14, (1, 1): 1.5100e-14},
}


@pytest.mark.parametrize("q", sorted(T0_WIDTHS))
def test_smallq_widths_at_zero_stay_pinned(q):
    grids = smallq_all(q, default_plan(), 0)
    assert set(grids) == set(T0_WIDTHS[q])
    for idx, grid in grids.items():
        s = grid.samples[0]
        assert s.hi - s.lo <= T0_WIDTHS[q][idx], (q, idx)


# the widest sample over every character mod 7 up to t = 10 since the
# values became balls, rounded up in the fifth digit; a change may widen
# it by 5% at most
WIDEST_AT_10 = {
    "eta0.5": (FftPlan(A=Fraction(16), B=Fraction(128), eta=0.5), 6.2755e-12),
    "A8-B64": (PLAN, 9.5224e-11),
}


@pytest.mark.parametrize("name", sorted(WIDEST_AT_10))
def test_smallq_widest_sample_to_ten_stays_pinned(name):
    plan, widest = WIDEST_AT_10[name]
    grids = smallq_all(7, plan, 10)
    assert max((g.samples.hi - g.samples.lo).max() for g in grids.values()) <= 1.05 * widest


def _refuse(*args, **kwargs):
    raise AssertionError("table work for a refused call")


def test_smallq_rejects_imprimitive(monkeypatch):
    monkeypatch.setattr(sampler_smallq, "_dual_values", _refuse)
    monkeypatch.setattr(sampler_smallq, "alias_bound_fhat", _refuse)
    with pytest.raises(NotPrimitive, match=r"\(3,\) mod 9"):
        smallq_samples(9, (3,), PLAN, T_MAX)


@pytest.mark.parametrize("idx", [(7,), (-1,), (1, 2), ()])
def test_smallq_refuses_malformed_indices(monkeypatch, idx):
    # (Z/9Z)* is cyclic of order 6: one entry in 0..5
    monkeypatch.setattr(sampler_smallq, "_dual_values", _refuse)
    monkeypatch.setattr(sampler_smallq, "alias_bound_fhat", _refuse)
    with pytest.raises(ValueError, match="mod 9"):
        smallq_samples(9, idx, PLAN, T_MAX)


@pytest.mark.parametrize("t_max", [-0.01, Fraction(-1, 10**9), -1])
def test_smallq_refuses_negative_t_max(monkeypatch, t_max):
    # int(t_max * A) truncates toward zero, so the sign is tested on
    # t_max itself: -0.01 must not become a grid with one sample at t = 0
    monkeypatch.setattr(sampler_smallq, "_dual_values", _refuse)
    with pytest.raises(DomainError, match="t_max must be nonnegative"):
        smallq_samples(5, (1,), None, t_max)


@pytest.mark.parametrize(
    "plan, t_max, message",
    [
        (PLAN, -1, "t_max must be nonnegative"),
        (PLAN, 10**30, "exceeds the plan's ordinate range"),
        (FftPlan(A=Fraction(1), B=Fraction(1024)), 1000, "recovery factor"),
    ],
)
def test_smallq_refuses_t_max_before_any_character_or_ordinate(monkeypatch, plan, t_max, message):
    # each refusal is O(1): no root number and no ordinate list first
    monkeypatch.setattr(CharGroup, "char_meta", _refuse)
    monkeypatch.setattr(sampler_smallq, "_ordinates", _refuse)
    monkeypatch.setattr(sampler_smallq, "_dual_values", _refuse)
    with pytest.raises(DomainError, match=message):
        smallq_all(13, plan, t_max)


def test_smallq_refuses_ordinates_that_are_not_doubles(monkeypatch):
    # a step of 1/12: the ordinate 1/12 has no exact double
    monkeypatch.setattr(sampler_smallq, "_dual_values", _refuse)
    plan = FftPlan(A=Fraction(12), B=Fraction(16, 3))
    with pytest.raises(DomainError, match="binary rationals"):
        smallq_samples(5, (1,), plan, Fraction(1, 6))


def test_default_trunc_refuses_a_nonpositive_decay_constant():
    # eta = 3 puts cos(pi eta/2) = cos(3 pi/2) below zero in floating point
    with pytest.raises(TailDivergence, match="underflowed"):
        default_trunc(0.0, 7, 3.0)


@pytest.mark.parametrize(
    "eta, parity, message",
    [
        (1 - 2**-20, 1, r"term ratio 1.5 >= 1 for q = 7, parity 1 at bin n = 0$"),
        (1 - 2**-53, 0, r">= 1 for q = 7, parity 0 at bin n = 0$"),
    ],
)
def test_dual_value_tails_refuse_naming_q_parity_and_bin(monkeypatch, eta, parity, message):
    # the sums cut after one term: at eta = 1 - 2^-20 the decay constant
    # Re e^(2u) is about 1.5e-6, too little against the odd tail's factor
    # 3/2, and at eta = 1 - 2^-53 it is not certified positive, which
    # the ratio's bound shows by reaching 1
    monkeypatch.setattr(sampler_smallq, "default_trunc", lambda x, q, eta: 1)
    with pytest.raises(TailDivergence, match=message):
        sampler_smallq._dual_values(7, parity, FftPlan(A=Fraction(8), B=Fraction(64), eta=eta))


def test_dual_values_refuse_a_runaway_theta_sum(monkeypatch):
    # at eta = 1 - 2^-53 default_trunc asks for 485,768,217 terms at bin 0:
    # refused before any term is summed
    monkeypatch.setattr(sampler_smallq, "_exp_ball", _refuse)
    plan = FftPlan(A=Fraction(8), B=Fraction(64), eta=1 - 2**-53)
    with pytest.raises(
        TailDivergence, match=r"^485768217 theta terms for q = 7, parity 0 at bin n = 0, more than 1024$"
    ):
        sampler_smallq._dual_values(7, 0, plan)


def test_zeta_nine_eighths_contains_mpmath():
    # the constant of the envelope behind both error budgets: it must hold
    # zeta(9/8), and be no looser than the scalar Euler-Maclaurin oracle's
    # hardware enclosure [8.586241294510526, 8.58624129451062]
    z = sampler_smallq.zeta_nine_eighths()
    with mpmath.workdps(50):
        man, exp = mpmath.zeta(mpmath.mpf(9) / 8).man_exp
    ref = Fraction(man) * Fraction(2) ** exp
    assert z.lo_fraction() <= ref <= z.hi_fraction()
    assert z.hi_fraction() <= Fraction(8.58624129451062)
    assert z.hi_fraction() - z.lo_fraction() <= Fraction(1e-13)


@pytest.mark.parametrize("parity", [0, 1])
def test_error_bounds_finite_and_positive_on_default_plan(parity):
    # the alias bound can underflow to [0, tiny]; what is used is its
    # upper endpoint, which must be a positive finite radius
    plan = default_plan()
    alias = alias_bound_fhat(plan, 7, parity)
    tgrid = t_grid_error(plan, 7, parity, plan.N // 4)
    assert alias.shape == (plan.N // 2 + 1,) and tgrid.shape == (plan.N // 4 + 1,)
    for bound in (alias, tgrid):
        assert (0.0 <= bound.lo).all() and (0.0 < bound.hi).all()
        assert np.isfinite(bound.hi).all()


@pytest.mark.parametrize("u, d", [(-3, 2), (-88, 1)])
@pytest.mark.parametrize("parity, eta", [(0, 0.0), (1, 0.0), (0, -0.5), (1, 0.5)])
def test_envelope_holds_rademachers_bound_at_negative_t(u, d, parity, eta):
    # Rademacher's bound has |1 + s| = |3/2 + it| = sqrt(9/4 + t^2); the
    # lower periodization shift makes t < 0, where |3/2 + t| undercut it
    # (0.5% at t = -88) and vanished at t = -3/2
    q, c = 5, 2 * parity + 1
    env = sampler_smallq._envelope(np.array([u], dtype=object), d, q, parity, eta)
    with mpmath.workprec(200):
        t = mpmath.mpf(u) / d
        want = (
            mpmath.zeta(mpmath.mpf(9) / 8)
            * mpmath.pi ** (-mpmath.mpf(c) / 4)
            * abs(mpmath.gamma(mpmath.mpc(mpmath.mpf(c) / 4, t / 2)))
            * mpmath.exp(mpmath.pi * eta * t / 4)
            * (q / (2 * mpmath.pi) * mpmath.sqrt(t**2 + mpmath.mpf(9) / 4)) ** (mpmath.mpf(5) / 16)
        )
        assert env.lo[0] <= want <= env.hi[0], (env, want)


def test_t_grid_error_at_the_lower_shift_zero_of_the_old_base():
    # m = 2024 puts the lower shift m/A - B at t = -3/2: the t-grid pad is
    # finite there, and smallq_all up to it refuses at the decay rate instead
    plan = default_plan()
    pad = t_grid_error(plan, 5, 0, 2024)
    assert np.isfinite(pad.hi).all() and 6.4 < pad.hi[2024] < 6.42
    with pytest.raises(BetaConditionViolated, match=r"q = 5, parity 1 at m = 2019 "):
        smallq_all(5, plan, Fraction(253, 2))


@pytest.mark.parametrize("parity", [0, 1])
def test_alias_bound_names_the_first_bin_below_the_x_condition(parity):
    # X(w) > 1 needs 2w > delta + log(2q/pi^2), w > 2.29 at q = 101: the
    # reflected w2 = 2 pi (1/2 - n/16) stays above it for n <= 2 only
    plan = FftPlan(A=Fraction(1, 2), B=Fraction(16))
    with pytest.raises(XConditionViolated, match=rf"q = 101, parity {parity} at bin n = 3;"):
        alias_bound_fhat(plan, 101, parity)


def test_alias_bound_refuses_too_small_a():
    # 2 pi A just above 1: X(w) falls below 1 from the first bin on
    plan = FftPlan(A=Fraction(1, 4), B=Fraction(8))
    with pytest.raises(XConditionViolated, match=r"q = 101, parity 0 at bin n = 0;"):
        alias_bound_fhat(plan, 101, 0)


@pytest.mark.parametrize("parity", [0, 1])
def test_t_grid_error_refuses_ordinates_near_the_period(parity):
    # m/A = B - 1/A: the reflected shift sits 1/A from the origin, where
    # the decay rate beta is negative
    plan = default_plan()
    with pytest.raises(BetaConditionViolated, match=rf"q = 7, parity {parity} at m = \d+ "):
        t_grid_error(plan, 7, parity, plan.N - 1)


@pytest.mark.parametrize(
    "A, B, parity, first",
    [(3, Fraction(16, 3), 0, 14), (3, Fraction(16, 3), 1, 11), (Fraction(2, 3), 24, 1, 15)],
)
def test_t_grid_error_names_the_first_failing_ordinate(A, B, parity, first):
    # t = m/3 - 16/3: beta, checked by hand, is positive at |t| = 1
    # (parity 0) and 2 (parity 1), and negative at every smaller |t| of
    # the grid.  t = 3m/2 - 24 first fails at m = 15, on the pole
    # t^2 = 9/4 of the odd correction term.  Every ordinate before the one
    # named is bounded
    plan = FftPlan(A=Fraction(A), B=Fraction(B))
    with pytest.raises(BetaConditionViolated, match=rf"q = 7, parity {parity} at m = {first} "):
        t_grid_error(plan, 7, parity, plan.N - 1)
    bound = t_grid_error(plan, 7, parity, first - 1)
    assert len(bound) == first and np.isfinite(bound.hi).all()


@pytest.mark.parametrize("m_max", [-1, default_plan().N])
def test_t_grid_error_refuses_ordinates_outside_the_plan(m_max):
    with pytest.raises(DomainError, match="ordinate range"):
        t_grid_error(default_plan(), 7, 0, m_max)


def _real_products(monkeypatch, fn, *args):
    """The number of scalar RealInterval products fn(*args) makes."""
    calls = [0]
    mul = RealInterval.__mul__

    def counted(self, other):
        calls[0] += 1
        return mul(self, other)

    monkeypatch.setattr(RealInterval, "__mul__", counted)
    fn(*args)
    monkeypatch.undo()
    return calls[0]


@pytest.mark.parametrize("parity", [0, 1])
def test_error_budgets_make_no_scalar_product_per_bin_or_ordinate(monkeypatch, parity):
    # the budgets are whole-range array passes: their scalar work is a
    # fixed set of constants, whatever N or m_max
    plans = [FftPlan(A=Fraction(8), B=Fraction(8)), default_plan()]
    alias = [_real_products(monkeypatch, alias_bound_fhat, p, 7, parity) for p in plans]
    tgrid = [_real_products(monkeypatch, t_grid_error, PLAN, 7, parity, m) for m in (1, 300)]
    assert alias[0] == alias[1] and tgrid[0] == tgrid[1]
    assert 0 < max(alias + tgrid) < 30


def test_exact_ratios_past_two_to_the_53():
    # the budgets' rationals (object arrays from _shifts) round through
    # IVec.from_ratios as RealInterval.from_fraction, with numerators and
    # denominators below and past 2^53
    for den in (12, 2**60 + 1):
        nums = np.array([[2**60 + 1, -3], [0, 7 * den]], dtype=object)
        v = IVec.from_ratios(nums, den)
        assert v.shape == (2, 2)
        for (i, j), n in np.ndenumerate(nums):
            ref = RealInterval.from_fraction(Fraction(n, den))
            assert (v.lo[i, j], v.hi[i, j]) == (ref.lo, ref.hi), (n, den)


# ---------------------------------------------------------------------------
# every character of q at once


@lru_cache(maxsize=None)
def _all_chars(q):
    return smallq_all(q, PLAN, T_MAX)


@pytest.mark.parametrize("q", [5, 7, 8, 12, 13])
def test_samplers_agree_for_every_character(q, tmp_path):
    small = _all_chars(q)
    large = sample_all(q, 0, T_MAX, PLAN.t_step, size=32, cache_dir=str(tmp_path))
    assert set(small) == set(large) == set(char_group(q).primitive_indices())
    for chi, grid in small.items():
        ref = large[chi]
        assert len(grid) == len(ref) == 3
        for i in range(len(ref)):
            assert grid.t_at(i) == ref.t_at(i)
            assert grid.samples[i].intersects(ref.samples[i]), (chi, i)


@pytest.mark.parametrize("chi", [(1,), (2,)])
def test_one_character_matches_all_characters(chi):
    # (1) mod 7 is odd and (2) mod 7 is even: each parity's pass is the
    # same whichever characters share it
    one = smallq_samples(7, chi, PLAN, T_MAX)
    every = _all_chars(7)[chi]
    assert [(s.lo, s.hi) for s in one.samples] == [
        (s.lo, s.hi) for s in every.samples
    ]


def test_error_budgets_once_per_parity(monkeypatch):
    calls = {"alias": 0, "tgrid": 0}
    alias, tgrid = sampler_smallq.alias_bound_fhat, sampler_smallq.t_grid_error

    def counted_alias(*args):
        calls["alias"] += 1
        return alias(*args)

    def counted_tgrid(*args):
        calls["tgrid"] += 1
        return tgrid(*args)

    monkeypatch.setattr(sampler_smallq, "alias_bound_fhat", counted_alias)
    monkeypatch.setattr(sampler_smallq, "t_grid_error", counted_tgrid)
    smallq_all(7, PLAN, T_MAX)
    # both parities occur mod 7, and each budget covers every bin or
    # ordinate of its parity in one call
    assert calls == {"alias": 2, "tgrid": 2}


# ---------------------------------------------------------------------------
# mpmath oracles

_DPS = 40


def _chi_mp(q, chi, k):
    ph = char_group(q).phase(chi, k)
    if ph is None:
        return mpmath.mpc(0)
    return mpmath.expjpi(2 * mpmath.mpf(ph.numerator) / ph.denominator)


def _fhat_over_eps(q, chi, parity, x, eta=0.0):
    """2 e^{(2a+1)u/2} q^{-(2a+1)/4} sum chi(k) k^a exp(-pi k^2 e^{2u}/q),
    u = x + i pi eta/4, so e^{2u} = e^{2x} e^{i pi eta/2}."""
    c = 2 * parity + 1
    u = x + 1j * mpmath.pi * eta / 4
    e2u = mpmath.exp(2 * u)
    total = mpmath.fsum(
        _chi_mp(q, chi, k) * k**parity * mpmath.exp(-mpmath.pi * k * k * e2u / q)
        for k in range(1, 80)
    )
    return 2 * mpmath.exp(c * u / 2) * mpmath.mpf(q) ** (-mpmath.mpf(c) / 4) * total


@pytest.mark.parametrize(
    "q,short,eta",
    [(5, False, 0.0), (7, False, 0.0), (5, True, 0.0), (7, True, 0.0), (5, False, 0.5), (7, True, 0.5)],
    ids=["5", "7", "5-short", "7-short", "5-eta0.5", "7-short-eta0.5"],
)
def test_dual_values_contain_theta_sums(q, short, eta, monkeypatch):
    # default_trunc leaves a tail far below a double ulp; cutting the sum
    # after two terms makes the geometric tail pad carry the containment.
    # eta turns e^{2u} and the prefactor off the real axis
    group = char_group(q)
    plan = replace(PLAN, eta=eta)
    bins = (0, 1, plan.N // 4, plan.N // 2)
    if short:
        monkeypatch.setattr(sampler_smallq, "default_trunc", lambda x, q, eta: 2)
    with mpmath.workdps(_DPS):
        for parity in (0, 1):
            dual = sampler_smallq._dual_values(q, parity, plan)
            for chi in group.primitive_indices():
                if group.parity(chi) != parity:
                    continue
                col = int(np.ravel_multi_index(chi, group.orders))
                for n in bins:
                    x = 2 * mpmath.pi * n / plan.B.numerator * plan.B.denominator
                    box = dual[n, col]
                    ref = _fhat_over_eps(q, chi, parity, x, eta)
                    assert box.re.lo <= ref.real <= box.re.hi, (chi, n)
                    assert box.im.lo <= ref.imag <= box.im.hi, (chi, n)


@pytest.mark.parametrize("q", [5, 7])
def test_far_dual_bins_take_one_row_bound(q):
    # past the first bin whose certified bound on every character's value
    # is below 2^-1000 the rows are that bound about zero: bins 72 (q = 5)
    # and 75 (q = 7) of the 1025 at default_plan().  The bound is within
    # 0.2% of the largest value at that bin, so it is checked there
    plan = default_plan()
    group = char_group(q)
    with mpmath.workdps(_DPS):
        for parity in (0, 1):
            dual = sampler_smallq._dual_values(q, parity, plan)
            ends = np.stack([dual.re.lo, dual.re.hi, dual.im.lo, dual.im.hi], axis=-1)
            padded = np.all(ends == ends[-1, 0], axis=(1, 2))
            cut = int(np.argmax(padded))
            assert 0 < cut < 80 and padded[cut:].all(), parity
            far = ends[-1, 0, 1]
            assert tuple(ends[-1, 0]) == (-far, far, -far, far) and far < 2.0**-1000
            for n in (cut - 1, cut, cut + 1):
                x = 2 * mpmath.pi * n / plan.B.numerator * plan.B.denominator
                for chi in group.primitive_indices():
                    if group.parity(chi) == parity:
                        box = dual[n, int(np.ravel_multi_index(chi, group.orders))]
                        ref = _fhat_over_eps(q, chi, parity, x)
                        assert box.re.lo <= ref.real <= box.re.hi, (chi, n)
                        assert box.im.lo <= ref.imag <= box.im.hi, (chi, n)


# (1) is odd and (2) is even both mod 5 and mod 7
_ORACLE_CHARS = [(5, (1,)), (5, (2,)), (7, (1,)), (7, (2,))]
_ORACLE_PLAN = FftPlan(A=Fraction(1, 2), B=Fraction(16))


@pytest.mark.parametrize("q,chi", _ORACLE_CHARS)
def test_alias_bound_dominates_nearest_shifts(q, chi):
    # the periodized dual value at bin n differs from Fhat(x_n) by the
    # shifts Fhat(x_n + 2 pi A k), k != 0; the two nearest must fit in the
    # bound, the one below through Fhat(-x) = conj Fhat(x)
    parity = char_group(q).parity(chi)
    with mpmath.workdps(_DPS):
        period = 2 * mpmath.pi * _ORACLE_PLAN.A.numerator / _ORACLE_PLAN.A.denominator
        bounds = alias_bound_fhat(_ORACLE_PLAN, q, parity)
        assert len(bounds) == 5
        for n in range(5):
            x = 2 * mpmath.pi * n / _ORACLE_PLAN.B.numerator
            shifts = abs(_fhat_over_eps(q, chi, parity, x + period)) + abs(
                _fhat_over_eps(q, chi, parity, period - x)
            )
            assert bounds[n].hi >= shifts, n


@pytest.mark.parametrize("q,chi", _ORACLE_CHARS)
def test_t_grid_error_dominates_nearest_shifts(q, chi):
    # |F(t)| = pi^(-(2a+1)/4) |Gamma((1+2a+2it)/4)| |L(1/2+it)| at eta = 0
    parity = char_group(q).parity(chi)
    with mpmath.workdps(_DPS):
        values = [_chi_mp(q, chi, k) for k in range(q)]

        def f_abs(t):
            s = mpmath.mpf(1) / 2 + 1j * t
            gamma = mpmath.gamma((1 + 2 * parity + 2j * t) / 4)
            lval = mpmath.dirichlet(s, values)
            return mpmath.pi ** (-mpmath.mpf(2 * parity + 1) / 4) * abs(gamma) * abs(lval)

        bounds = t_grid_error(_ORACLE_PLAN, q, parity, 7)
        for m in range(8):
            t = mpmath.mpf(m) * _ORACLE_PLAN.A.denominator / _ORACLE_PLAN.A.numerator
            b = mpmath.mpf(_ORACLE_PLAN.B.numerator)
            shifts = f_abs(t + b) + f_abs(t - b)
            assert bounds[m].hi >= shifts, m
