"""Dual-grid sampler for small moduli.

Define, for primitive chi and eta in (-1, 1),

    F(t) = epsilon q^(it/2) pi^(-(1/2+2a+2it)/4) Gamma((1/2+2a+2it)/4)
           exp(pi eta t/4) L_chi(1/2+it)          (a = parity)

so that F is real-valued and Lambda_chi(t) = pi^((2a+1)/4) exp(pi t(1-eta)/4) F(t).
Its Fourier transform Fhat is a rapidly converging theta-like sum, so the
pipeline runs: evaluate Fhat on the dual grid 2 pi n / B, treat the values
as the periodization (adding a rigorous aliasing bound per bin), transform
back with one unnormalized backward FFT scaled by 2 pi / B (Poisson
summation makes the two periodizations a DFT pair), add the t-grid
periodization error per output ordinate, and convert to completed values.
Every step carries explicit interval error bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .characters import CharMeta, char_group, unit_phase
from .dft import fft_pow2
from .errors import (
    BetaConditionViolated,
    DomainError,
    NotPrimitive,
    RealnessViolation,
    TailDivergence,
    XConditionViolated,
)
from .hurwitz import em_hurwitz
from .interval import (
    HARDWARE,
    ComplexBox,
    RealInterval,
    log_gamma,
    pi_interval,
)
from .ivec import CVec
from .sampler_largeq import SampleGrid

_HALF = Fraction(1, 2)
_ZETA98 = None


def zeta_nine_eighths() -> RealInterval:
    """zeta(9/8), the constant in the Rademacher-derived L bound."""
    global _ZETA98
    if _ZETA98 is None:
        _ZETA98 = em_hurwitz(Fraction(9, 8), Fraction(1)).re
    return _ZETA98


def _frac_pow(base: RealInterval, fr: Fraction) -> RealInterval:
    """base^fr for a positive interval base."""
    return (base.log() * RealInterval.from_fraction(fr, HARDWARE)).exp()


@dataclass(frozen=True)
class FftPlan:
    """Grid geometry: t-samples at m/A, dual samples at 2 pi n/B, N = A B.

    eta twists the integration contour to slow the decay of the dual-side
    sums; delta = (pi/2)(1-|eta|) is the resulting decay parameter.
    """

    A: Fraction
    B: Fraction
    eta: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "A", Fraction(self.A))
        object.__setattr__(self, "B", Fraction(self.B))
        if self.A <= 0 or self.B <= 0:
            raise DomainError("need A > 0 and B > 0")
        if not -1.0 < self.eta < 1.0:
            raise DomainError("eta must lie in (-1, 1)")
        prod = self.A * self.B
        if prod.denominator != 1 or prod < 2 or prod.numerator & (prod.numerator - 1):
            raise DomainError("N = A*B must be a power of two >= 2")
        # A >= 1/(2 pi), certified: 2 pi A > 1
        two_pi_a = pi_interval(HARDWARE) * RealInterval.from_fraction(2 * self.A)
        if not two_pi_a.lo_float() > 1.0:
            raise DomainError("need A >= 1/(2 pi)")

    @property
    def N(self) -> int:
        return (self.A * self.B).numerator

    @property
    def delta(self) -> RealInterval:
        one = RealInterval.one(HARDWARE)
        half = RealInterval.from_fraction(_HALF)
        return pi_interval(HARDWARE) * (one - RealInterval.point(abs(self.eta))) * half

    @property
    def t_step(self) -> Fraction:
        return 1 / self.A


def default_plan() -> FftPlan:
    return FftPlan(A=Fraction(16), B=Fraction(128), eta=0.0)


@dataclass
class DualSamples:
    """Fhat on the dual grid with its per-bin error budget.

    values[n] (truncation tail already included) plus a symmetric pad of
    alias_bound_per_n[n] contains the periodized dual value at bin n.
    """

    values: list[ComplexBox]
    trunc_bound: RealInterval
    alias_bound_per_n: list[RealInterval]


def default_trunc(x: float, q: int, eta: float) -> int:
    """Smallest n with pi n^2 Re(e^{2u})/q >= 30.

    Makes the geometric tail about 1e-13 of the leading theta term.
    """
    c = math.exp(2 * x) * math.cos(math.pi * eta / 2)
    if not c > 0:
        raise TailDivergence("theta decay constant underflowed")
    return max(1, math.ceil(math.sqrt(30 * q / (math.pi * c))))


def _theta_value(
    x: RealInterval, q: int, group, idx, meta: CharMeta, eta: float, trunc: int, parity: int
) -> tuple[ComplexBox, RealInterval]:
    """Truncated dual-side theta sum with its tail radius.

    Returns (box containing Fhat(x), tail radius used) where the box is

        2 epsilon exp((2 parity + 1) u/2) / q^((2 parity + 1)/4)
          * sum_{n=1}^inf n^parity chi(n) exp(-pi n^2 e^{2u}/q),

    u = x + i pi eta/4.  The tail past trunc is dominated by a geometric
    series; TailDivergence if the certified term ratio reaches 1.
    """
    pi = pi_interval(HARDWARE)
    u = ComplexBox(x, pi * RealInterval.point(eta / 4))
    e2u = (u + u).exp()

    acc = ComplexBox.zero(HARDWARE)
    for n in range(1, trunc + 1):
        if math.gcd(n, q) != 1:
            continue
        scale = pi * RealInterval.from_fraction(Fraction(-(n * n), q))
        term = (e2u * scale).exp()
        if parity:
            term = term * RealInterval.point(n)
        acc = acc + unit_phase(group.phase(idx, n)) * term

    # geometric tail: |term ratio| <= (1 + 1/(trunc+1))^parity
    #                 * exp(-pi (2 trunc + 3) Re(e^{2u}) / q)
    c = e2u.re
    if not c.lo_float() > 0.0:
        raise TailDivergence("cannot certify a positive theta decay constant")
    one = RealInterval.one(HARDWARE)
    n0 = trunc + 1
    rho = (c * (pi * RealInterval.from_fraction(Fraction(-(2 * trunc + 3), q)))).exp()
    first = (c * (pi * RealInterval.from_fraction(Fraction(-(n0 * n0), q)))).exp()
    if parity:
        bump = RealInterval.from_fraction(Fraction(n0 + 1, n0))
        rho = rho * bump
        first = first * RealInterval.point(n0)
    if not rho.hi_float() < 1.0:
        raise TailDivergence(f"term ratio {rho.hi_float():.3g} >= 1 at trunc={trunc}")
    tail = first / (one - rho)
    acc = acc.pad(tail)

    scale_fr = Fraction(2 * parity + 1, 2)
    pref = (u * RealInterval.from_fraction(scale_fr)).exp()
    qpow = _frac_pow(RealInterval.point(q), Fraction(2 * parity + 1, 4))
    factor = (RealInterval.point(2) / qpow)
    return (meta.epsilon * pref) * acc * factor, tail


def _decay_bound(w: RealInterval, x_of_w: RealInterval, parity: int) -> RealInterval:
    """exp((2 parity + 1) w/2 - X) (1 + 1/(2X))^((2 parity + 2)/2)."""
    one = RealInterval.one(HARDWARE)
    half = RealInterval.from_fraction(_HALF)
    grow = w * RealInterval.from_fraction(Fraction(2 * parity + 1, 2))
    body = one + half / x_of_w
    if parity:
        body = body * body.sqrt()
    return (grow - x_of_w).exp() * body


def alias_bound_fhat(n: int, plan: FftPlan, q: int, parity: int) -> RealInterval:
    """Bound on |periodized dual value at bin n - Fhat(2 pi n/B)|.

    n is the signed frequency, |n| <= N/2.  Apply the one-sided decay
    bound at w1 = 2 pi |n|/B + 2 pi A (shifts upward) and at
    w2 = -2 pi |n|/B + 2 pi A (shifts downward, reflected through the
    realness of F), with X(w) = (pi delta / q) exp(2w - delta).
    """
    n = abs(int(n))
    if 2 * n > plan.N:
        raise DomainError("bin outside the signed frequency range")
    pi = pi_interval(HARDWARE)
    delta = plan.delta
    f1 = Fraction(n) / plan.B + plan.A
    f2 = plan.A - Fraction(n) / plan.B
    if f2 <= 0:
        raise XConditionViolated("reflected frequency is not positive")
    w1 = (pi + pi) * RealInterval.from_fraction(f1)
    w2 = (pi + pi) * RealInterval.from_fraction(f2)
    q_iv = RealInterval.point(q)

    def x_of(w: RealInterval) -> RealInterval:
        return pi * delta * (w + w - delta).exp() / q_iv

    x1 = x_of(w1)
    x2 = x_of(w2)
    if not (x1.lo_float() > 1.0 and x2.lo_float() > 1.0):
        raise XConditionViolated(
            f"X(w) <= 1 at bin {n}; enlarge A (X1={x1.lo_float():.3g}, "
            f"X2={x2.lo_float():.3g})"
        )
    one = RealInterval.one(HARDWARE)
    num = (_decay_bound(w1, x1, parity) + _decay_bound(w2, x2, parity)) * (
        RealInterval.point(4)
    )
    den = (
        _frac_pow(q_iv, Fraction(2 * parity + 1, 4))
        * delta.sqrt()
        * (one - (-(pi * RealInterval.from_fraction(plan.A))).exp())
    )
    return num / den


def _beta(t_fr: Fraction, parity: int) -> RealInterval:
    """pi/4 - (2a+1)/2 arctan(1/(2|t|)) - 4/(pi^2 |t^2 - (2a+1)^2/4|)."""
    if t_fr == 0:
        raise BetaConditionViolated("ordinate at the arctan singularity")
    c = Fraction(2 * parity + 1)
    den_fr = abs(t_fr * t_fr - c * c / 4)
    if den_fr == 0:
        raise BetaConditionViolated("ordinate at the pole of the correction term")
    pi = pi_interval(HARDWARE)
    quarter = RealInterval.from_fraction(Fraction(1, 4))
    at = RealInterval.from_fraction(abs(t_fr))
    one = RealInterval.one(HARDWARE)
    arct = (one / (at + at)).atan()
    corr = RealInterval.point(4) / (pi * pi * RealInterval.from_fraction(den_fr))
    return pi * quarter - arct * RealInterval.from_fraction(c / 2) - corr


def _envelope(t_fr: Fraction, q: int, parity: int, eta: float) -> RealInterval:
    """zeta(9/8) pi^(-(2a+1)/4) |Gamma((2a+1)/4 + it/2)| e^(pi eta t/4)
    ((q/2pi)|3/2 + t|)^(5/16)."""
    pi = pi_interval(HARDWARE)
    tt = RealInterval.from_fraction(t_fr)
    z = ComplexBox(
        RealInterval.from_fraction(Fraction(2 * parity + 1, 4)),
        tt * RealInterval.from_fraction(_HALF),
    )
    gamma_abs = log_gamma(z).re.exp()
    pi_pow = (pi.log() * RealInterval.from_fraction(Fraction(-(2 * parity + 1), 4))).exp()
    e_eta = (pi * tt * RealInterval.point(eta / 4)).exp()
    rad_base = RealInterval.point(q) / (pi + pi) * RealInterval.from_fraction(
        abs(Fraction(3, 2) + t_fr)
    )
    rad = _frac_pow(rad_base, Fraction(5, 16))
    return zeta_nine_eighths() * pi_pow * gamma_abs * e_eta * rad


def t_grid_error(m: int, plan: FftPlan, q: int, parity: int) -> RealInterval:
    """Bound on |periodized t-side value at m - F(m/A)|.

    Sums the two nearest periodization shifts' envelopes, each divided by
    the geometric factor its exponential decay rate beta provides; raises
    BetaConditionViolated when m/A is too close to B for the decay rate to
    beat the contour twist.
    """
    t1 = Fraction(m) / plan.A + plan.B
    t2 = Fraction(m) / plan.A - plan.B
    pi = pi_interval(HARDWARE)
    pe = pi * RealInterval.point(plan.eta / 4)
    beta1 = _beta(t1, parity) - pe
    beta2 = _beta(t2, parity) + pe
    if not (beta1.lo_float() > 0.0 and beta2.lo_float() > 0.0):
        raise BetaConditionViolated(
            f"decay condition fails at m={m} (m/A={float(Fraction(m) / plan.A):.4g})"
        )
    one = RealInterval.one(HARDWARE)
    b_iv = RealInterval.from_fraction(plan.B)
    out = RealInterval.zero(HARDWARE)
    for t_fr, beta in ((t1, beta1), (t2, beta2)):
        env = _envelope(t_fr, q, parity, plan.eta)
        den = one - (-(b_iv * beta)).exp()
        out = out + env / den
    return out


def dual_samples(
    q: int, char, plan: FftPlan, meta: CharMeta | None = None
) -> DualSamples:
    """Fhat over the full dual grid with per-bin alias bounds.

    Direct theta sums cover the nonnegative frequencies; the negative half
    is the conjugate reflection (F is real-valued, so Fhat(-x) is the
    conjugate of Fhat(x)), which sidesteps the slowly converging sums at
    negative x entirely.
    """
    group = char_group(q)
    idx = tuple(int(v) for v in char)
    if meta is None:
        meta = group.char_meta(idx)
    if not meta.primitive:
        raise NotPrimitive(f"index {idx} mod {q} is imprimitive")
    parity = meta.parity
    n_total = plan.N
    half = n_total // 2
    pi = pi_interval(HARDWARE)

    values: list[ComplexBox | None] = [None] * n_total
    alias: list[RealInterval | None] = [None] * n_total
    worst_tail = RealInterval.zero(HARDWARE)
    for n in range(half + 1):
        x = (pi + pi) * RealInterval.from_fraction(Fraction(n) / plan.B)
        trunc = default_trunc(x.lo_float(), q, plan.eta)
        box, tail = _theta_value(x, q, group, idx, meta, plan.eta, trunc, parity)
        values[n] = box
        alias[n] = alias_bound_fhat(n, plan, q, parity)
        worst_tail = worst_tail.hull(tail)
    for n in range(half + 1, n_total):
        values[n] = values[n_total - n].conj()
        alias[n] = alias[n_total - n]
    return DualSamples(values, worst_tail, alias)


def smallq_samples(q: int, char, plan: FftPlan | None, t_max) -> SampleGrid:
    """Completed-value enclosures at m/A for m = 0..floor(t_max A).

    One backward FFT of the dual samples yields every ordinate at once;
    each output is padded by the total alias budget and its own t-grid
    periodization error, converted to the completed normalization, checked
    real, and projected.
    """
    if plan is None:
        plan = default_plan()
    group = char_group(q)
    idx = tuple(int(v) for v in char)
    meta = group.char_meta(idx)
    if not meta.primitive:
        raise NotPrimitive(f"index {idx} mod {q} is imprimitive")
    parity = meta.parity

    m_max = int(Fraction(t_max) * plan.A)
    if m_max < 0:
        raise DomainError("t_max must be nonnegative")
    if m_max >= plan.N:
        raise DomainError("t_max exceeds the plan's ordinate range")
    # hardware exponent ceiling for the recovery factor exp(pi t (1-eta)/4)
    if math.pi * float(t_max) * (1.0 - plan.eta) / 4.0 > 700.0:
        raise DomainError("t_max too large for this plan's recovery factor")

    ds = dual_samples(q, idx, plan, meta=meta)
    alias_total = RealInterval.zero(HARDWARE)
    for bound in ds.alias_bound_per_n:
        alias_total = alias_total + bound

    pi = pi_interval(HARDWARE)
    core = fft_pow2(CVec.from_boxes(ds.values), "backward")
    core = core.pad(alias_total.hi_float())
    core = core * ((pi + pi) / RealInterval.from_fraction(plan.B))

    one = RealInterval.one(HARDWARE)
    pi_pow = (pi.log() * RealInterval.from_fraction(Fraction(2 * parity + 1, 4))).exp()
    eta_fac = (one - RealInterval.point(plan.eta)) * RealInterval.from_fraction(
        Fraction(1, 4)
    )
    samples = []
    for m in range(m_max + 1):
        t_fr = Fraction(m) / plan.A
        t = float(t_fr)
        if Fraction(t) != t_fr:
            raise DomainError("grid ordinates must be binary rationals")
        box = core[m].pad(t_grid_error(m, plan, q, parity))
        recover = pi_pow * (pi * RealInterval.from_fraction(t_fr) * eta_fac).exp()
        lam = box * recover
        if not lam.im.contains_zero():
            raise RealnessViolation(
                f"imaginary part {lam.im!r} misses 0 at t={t} for modulus {q}"
            )
        samples.append(lam.re.pad(lam.im.mag()))
    return SampleGrid(q, idx, plan.t_step, 0, samples, meta)
