"""Small-modulus dual-grid sampler against the large-modulus sampler.

The two samplers share nothing past the character tables: one sums theta
series on the dual grid and transforms back with an FFT, the other reads
Hurwitz values off a lattice and transforms over the character group.
Overlapping enclosures at the same ordinates therefore check both.
"""

from dataclasses import replace
from fractions import Fraction

import pytest

from grhdesk.characters import CharGroup
from grhdesk.errors import (
    BetaConditionViolated,
    DomainError,
    NotPrimitive,
    RealnessViolation,
    XConditionViolated,
)
from grhdesk.sampler_largeq import sample_range
from grhdesk.sampler_smallq import (
    FftPlan,
    alias_bound_fhat,
    default_plan,
    dual_samples,
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


def test_smallq_rejects_imprimitive():
    with pytest.raises(NotPrimitive):
        smallq_samples(9, (3,), PLAN, T_MAX)
    with pytest.raises(NotPrimitive):
        dual_samples(9, (3,), PLAN)


@pytest.mark.parametrize("parity", [0, 1])
def test_error_bounds_finite_and_positive_on_default_plan(parity):
    # the alias bound can underflow to [0, tiny]; what is used is its
    # upper endpoint, which must be a positive finite radius
    plan = default_plan()
    half = plan.N // 2
    for n in (0, 1, half // 2, -half, half):
        bound = alias_bound_fhat(n, plan, 7, parity)
        assert 0.0 <= bound.lo_float() and 0.0 < bound.hi_float() < float("inf"), n
    for m in (0, 1, plan.N // 4):
        bound = t_grid_error(m, plan, 7, parity)
        assert 0.0 <= bound.lo_float() and 0.0 < bound.hi_float() < float("inf"), m


def test_alias_bound_refuses_bins_outside_the_signed_range():
    plan = default_plan()
    for n in (plan.N // 2 + 1, -(plan.N // 2 + 1)):
        with pytest.raises(DomainError):
            alias_bound_fhat(n, plan, 7, 0)


def test_alias_bound_refuses_too_small_a():
    # 2 pi A just above 1: X(w) at the reflected frequency falls below 1
    plan = FftPlan(A=Fraction(1, 4), B=Fraction(8))
    with pytest.raises(XConditionViolated):
        alias_bound_fhat(1, plan, 101, 0)


@pytest.mark.parametrize("parity", [0, 1])
def test_t_grid_error_refuses_ordinates_near_the_period(parity):
    # m/A = B - 1/A: the reflected shift sits 1/A from the origin, where
    # the decay rate beta is negative
    plan = default_plan()
    with pytest.raises(BetaConditionViolated):
        t_grid_error(plan.N - 1, plan, 7, parity)
