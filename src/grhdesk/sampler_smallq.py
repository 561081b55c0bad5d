"""Dual-grid sampler for small moduli: the theta/FFT method of Booker,
"Artin's conjecture, Turing's method, and the Riemann hypothesis",
Experiment. Math. 15 (2006).

Define, for primitive chi and eta in (-1, 1),

    F(t) = epsilon q^(it/2) pi^(-(1+2a+2it)/4) Gamma((1+2a+2it)/4)
           exp(pi eta t/4) L_chi(1/2+it)          (a = parity)

so that F is real-valued and, for t >= 0,
Lambda_chi(t) = pi^((2a+1)/4) exp(pi t(1-eta)/4) F(t).  Its Fourier
transform Fhat is a rapidly converging theta-like sum.  Every character
of q enters only through its parity a, its root-number constant epsilon
and the phases chi(k), so the pipeline runs once per parity among the
requested characters, for all of them together:

1. the error budgets, which depend only on (q, a, plan): the aliasing
   bound of every dual bin, summed into one total, and the t-grid
   periodization error at each output ordinate;
2. Fhat on the dual grid 2 pi n/B, n = 0..N/2: the theta terms
   k^a exp(-pi k^2 e^{2u}/q) summed by residue class of k mod q, one
   group DFT (the convention of sampler_largeq.l_values_at) for the
   character sums of every chi at once, then the geometric tail radius,
   the prefactor and epsilon; from the first bin where a certified bound
   on the whole row is below 2^-1000, every row is that bound;
3. the negative bins by conjugate reflection (F is real, so
   Fhat(-x) = conj Fhat(x)) and one unnormalized backward FFT, batched
   over the characters and scaled by 2 pi/B (Poisson summation makes the
   two periodizations a DFT pair);
4. for every character and ordinate at once: the alias total and the
   t-grid pad, the conversion to completed values, the realness check
   and the projection.

Every step carries explicit interval error bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache

import numpy as np

from .characters import char_group
from .dft import fft_pow2, group_dft_cvec, units_of
from .errors import (
    BetaConditionViolated,
    DomainError,
    TailDivergence,
    XConditionViolated,
)
from .hurwitz import DEFAULT_BUILD_BITS, _em_rows, auto_params
from .interval import (
    ComplexBox,
    RealInterval,
    log_gamma,
    pi_interval,
)
from .ivec import CVec, IVec
from .sampler_largeq import SampleGrid, _ordinates, lambda_from_l

_HALF = Fraction(1, 2)


@cache
def zeta_nine_eighths() -> RealInterval:
    """zeta(9/8), the constant in the Rademacher-derived L bound.

    One cell of the lattice's Euler-Maclaurin kernel (hurwitz._em_rows):
    the row alpha = 1, column 0, at s = 9/8, truncated as auto_params
    picks for a lattice build's precision.
    """
    sigma, alpha = Fraction(9, 8), Fraction(1)
    a, b = auto_params(sigma, 0.0, alpha, DEFAULT_BUILD_BITS)
    return _em_rows([0.0], sigma, [alpha], 0, a, b, DEFAULT_BUILD_BITS)[0, 0, 0].re


def _frac_pow(base: RealInterval, fr: Fraction) -> RealInterval:
    """base^fr for a positive interval base."""
    return (base.log() * RealInterval.from_fraction(fr)).exp()


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
        two_pi_a = pi_interval() * RealInterval.from_fraction(2 * self.A)
        if not two_pi_a.lo > 1.0:
            raise DomainError("need A >= 1/(2 pi)")

    @property
    def N(self) -> int:
        return (self.A * self.B).numerator

    @property
    def delta(self) -> RealInterval:
        one = RealInterval.one()
        half = RealInterval.from_fraction(_HALF)
        return pi_interval() * (one - RealInterval.point(abs(self.eta))) * half

    @property
    def t_step(self) -> Fraction:
        return 1 / self.A


def default_plan() -> FftPlan:
    return FftPlan(A=Fraction(16), B=Fraction(128), eta=0.0)


def default_trunc(x: float, q: int, eta: float) -> int:
    """Smallest n with pi n^2 Re(e^{2u})/q >= 30.

    Makes the geometric tail about 1e-13 of the leading theta term.
    """
    c = math.exp(2 * x) * math.cos(math.pi * eta / 2)
    if not c > 0:
        raise TailDivergence("theta decay constant underflowed")
    return max(1, math.ceil(math.sqrt(30 * q / (math.pi * c))))


def _dual_values(q: int, parity: int, plan: FftPlan) -> CVec:
    """Fhat / epsilon at the dual bins n = 0..N/2 for every character mod q.

    Shape (N/2 + 1, phi(q)); column j is the character at flat position j
    of the group's orders (np.ravel_multi_index), and row n encloses

        2 exp((2 parity + 1) u/2) / q^((2 parity + 1)/4)
          * sum_{k>=1} chi_j(k) k^parity exp(-pi k^2 e^{2u}/q),

    u = 2 pi n/B + i pi eta/4, which is Fhat(2 pi n/B) / epsilon for the
    characters of this parity.  The terms up to default_trunc are summed
    by residue class of k mod q, and one group DFT turns the class sums
    into the character sums.  The tail past the truncation is dominated
    by a geometric series whatever the character and is padded on;
    TailDivergence if the certified term ratio reaches 1.

    Far out the rows vanish.  With y = pi Re(e^{2u})/q, k^2 >= 3k - 2 and
    k^parity <= 2^(k-1) bound every row, for every character, by

        B = 2 e^((2 parity + 1) x/2) q^(-(2 parity + 1)/4) e^(-y) / (1 - 2 e^(-3y))

    (x = Re u) once y >= 1.  y grows with x, and there the exponent
    (2 parity + 1) x/2 - y has slope (2 parity + 1)/2 - 2y < 0 while the
    denominator grows, so B falls with x: the certified B of the first
    bin with y >= 1 and B < 2^-1000 bounds that bin and every later one.
    Those rows are that bound about zero, and their theta sums are
    skipped.
    """
    group = char_group(q)
    slot = {int(a): j for j, a in enumerate(units_of(group))}
    pi = pi_interval()
    one = RealInterval.one()
    eta_im = pi * RealInterval.point(plan.eta / 4)
    scale_fr = RealInterval.from_fraction(Fraction(2 * parity + 1, 2))
    factor = RealInterval.point(2) / _frac_pow(
        RealInterval.point(q), Fraction(2 * parity + 1, 4)
    )

    cut = math.ldexp(1.0, -1000)
    classes, tails, prefs = [], [], []
    far = None
    for n in range(plan.N // 2 + 1):
        x = (pi + pi) * RealInterval.from_fraction(Fraction(n) / plan.B)
        u = ComplexBox(x, eta_im)
        e2u = (u + u).exp()
        y = pi * e2u.re / RealInterval.point(q)
        if y.lo >= 1.0:
            bound = factor * (x * scale_fr - y).exp() / (one - (-(y * 3)).exp() * 2)
            if bound.hi < cut:
                far = bound.hi
                break
        trunc = default_trunc(x.lo, q, plan.eta)

        acc = [ComplexBox.zero()] * group.phi
        for k in range(1, trunc + 1):
            if math.gcd(k, q) != 1:
                continue
            scale = pi * RealInterval.from_fraction(Fraction(-(k * k), q))
            term = (e2u * scale).exp()
            if parity:
                term = term * RealInterval.point(k)
            j = slot[k % q]
            acc[j] = acc[j] + term
        classes.extend(acc)

        # geometric tail: |term ratio| <= (1 + 1/(trunc+1))^parity
        #                 * exp(-pi (2 trunc + 3) Re(e^{2u}) / q)
        c = e2u.re
        if not c.lo > 0.0:
            raise TailDivergence("cannot certify a positive theta decay constant")
        n0 = trunc + 1
        rho = (c * (pi * RealInterval.from_fraction(Fraction(-(2 * trunc + 3), q)))).exp()
        first = (c * (pi * RealInterval.from_fraction(Fraction(-(n0 * n0), q)))).exp()
        if parity:
            rho = rho * RealInterval.from_fraction(Fraction(n0 + 1, n0))
            first = first * RealInterval.point(n0)
        if not rho.hi < 1.0:
            raise TailDivergence(f"term ratio {rho.hi:.3g} >= 1 at trunc={trunc}")
        tails.append((first / (one - rho)).hi)
        prefs.append((u * scale_fr).exp() * factor)

    bins = len(prefs)
    sums = group_dft_cvec(group, CVec.from_boxes(classes).reshape(bins, group.phi))
    sums = sums.reshape(bins, group.phi).pad(np.array(tails).reshape(bins, 1))
    dual = sums * CVec.from_boxes(prefs).reshape(bins, 1)
    if far is None:
        return dual
    rest = CVec.zeros((plan.N // 2 + 1 - bins, group.phi)).pad(far)
    return CVec.concatenate([dual, rest], axis=0)


def _decay_bound(w: RealInterval, x_of_w: RealInterval, parity: int) -> RealInterval:
    """exp((2 parity + 1) w/2 - X) (1 + 1/(2X))^((2 parity + 2)/2)."""
    one = RealInterval.one()
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
    pi = pi_interval()
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
    if not (x1.lo > 1.0 and x2.lo > 1.0):
        raise XConditionViolated(
            f"X(w) <= 1 at bin {n}; enlarge A (X1={x1.lo:.3g}, "
            f"X2={x2.lo:.3g})"
        )
    one = RealInterval.one()
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
    pi = pi_interval()
    quarter = RealInterval.from_fraction(Fraction(1, 4))
    at = RealInterval.from_fraction(abs(t_fr))
    one = RealInterval.one()
    arct = (one / (at + at)).atan()
    corr = RealInterval.point(4) / (pi * pi * RealInterval.from_fraction(den_fr))
    return pi * quarter - arct * RealInterval.from_fraction(c / 2) - corr


def _envelope(t_fr: Fraction, q: int, parity: int, eta: float) -> RealInterval:
    """zeta(9/8) pi^(-(2a+1)/4) |Gamma((2a+1)/4 + it/2)| e^(pi eta t/4)
    ((q/2pi)|3/2 + t|)^(5/16)."""
    pi = pi_interval()
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
    pi = pi_interval()
    pe = pi * RealInterval.point(plan.eta / 4)
    beta1 = _beta(t1, parity) - pe
    beta2 = _beta(t2, parity) + pe
    if not (beta1.lo > 0.0 and beta2.lo > 0.0):
        raise BetaConditionViolated(
            f"decay condition fails at m={m} (m/A={float(Fraction(m) / plan.A):.4g})"
        )
    one = RealInterval.one()
    b_iv = RealInterval.from_fraction(plan.B)
    out = RealInterval.zero()
    for t_fr, beta in ((t1, beta1), (t2, beta2)):
        env = _envelope(t_fr, q, parity, plan.eta)
        den = one - (-(b_iv * beta)).exp()
        out = out + env / den
    return out


def _smallq_grids(q: int, chars, plan: FftPlan | None, t_max) -> list[SampleGrid]:
    """One SampleGrid per character in chars, built a parity at a time.

    The alias total, the t-grid pads and the dual values depend on the
    character only through its parity, so each parity among chars costs
    one set of budgets, one _dual_values table and one backward FFT
    batched over its characters.  The outputs are padded by the alias
    total and each by its own t-grid periodization error, converted to
    the completed normalization, and checked real and projected by
    sampler_largeq.lambda_from_l, all as arrays; each grid owns a copy
    of its row.

    The indices' form (canonical) and t_max are checked first, in O(1):
    its sign, the plan's ordinate range and the recovery exponent.  Only
    then does char_meta check each character primitive and read its
    constants, and are the ordinates m/A, m = 0..floor(t_max A), listed,
    by the large-q sampler's rule (sampler_largeq._ordinates).
    """
    if plan is None:
        plan = default_plan()
    group = char_group(q)
    chars = [group.canonical(char) for char in chars]
    if Fraction(t_max) < 0:
        raise DomainError("t_max must be nonnegative")
    m_max = int(Fraction(t_max) * plan.A)
    if m_max >= plan.N:
        raise DomainError("t_max exceeds the plan's ordinate range")
    # hardware exponent ceiling for the recovery factor exp(pi t (1-eta)/4)
    if math.pi * float(t_max) * (1.0 - plan.eta) / 4.0 > 700.0:
        raise DomainError("t_max too large for this plan's recovery factor")
    metas = [group.char_meta(char) for char in chars]
    _, ts = _ordinates(0, m_max / plan.A, plan.t_step)

    pi = pi_interval()
    one = RealInterval.one()
    eta_fac = (one - RealInterval.point(plan.eta)) * RealInterval.from_fraction(
        Fraction(1, 4)
    )
    n_total = plan.N
    half = n_total // 2
    samples = [None] * len(chars)
    for parity in sorted({meta.parity for meta in metas}):
        members = [i for i, meta in enumerate(metas) if meta.parity == parity]

        alias = [alias_bound_fhat(n, plan, q, parity) for n in range(half + 1)]
        alias_total = RealInterval.zero()
        for n in range(n_total):
            alias_total = alias_total + alias[min(n, n_total - n)]
        t_pads = [t_grid_error(m, plan, q, parity).hi for m in range(m_max + 1)]
        pi_pow = (pi.log() * RealInterval.from_fraction(Fraction(2 * parity + 1, 4))).exp()
        recover = IVec.from_intervals(
            [pi_pow * (pi * RealInterval.point(t) * eta_fac).exp() for t in ts]
        )

        # Fhat on bins 0..N/2 per character, then the negative half by
        # conjugate reflection: F is real-valued, so Fhat(-x) = conj Fhat(x)
        cols = [int(np.ravel_multi_index(chars[i], group.orders)) for i in members]
        eps = CVec.from_boxes([metas[i].epsilon for i in members])
        dual = (_dual_values(q, parity, plan).take_last(cols) * eps).moveaxis(0, -1)
        dual = CVec.concatenate([dual, dual[..., half - 1 : 0 : -1].conj()], axis=-1)
        core = fft_pow2(dual, "backward").pad(alias_total.hi)
        core = core * ((pi + pi) / RealInterval.from_fraction(plan.B))

        member_chars = [chars[i] for i in members]
        real = lambda_from_l(core[:, : m_max + 1].pad(t_pads), recover, q, member_chars, ts)
        for i, row in zip(members, real):
            samples[i] = row.copy()
    return [
        SampleGrid(q, char, plan.t_step, 0, out, meta)
        for char, meta, out in zip(chars, metas, samples)
    ]


def smallq_samples(q: int, char, plan: FftPlan | None, t_max) -> SampleGrid:
    """Completed-value enclosures at m/A for m = 0..floor(t_max A).

    Reads the same builder as smallq_all with one character, so it costs
    the budgets, dual values and FFT of that character's parity only.
    ValueError for a malformed index (CharGroup.canonical), NotPrimitive
    for an imprimitive one and DomainError for a negative t_max, each
    before any budget or dual value is computed.
    """
    return _smallq_grids(q, [char], plan, t_max)[0]


def smallq_all(q: int, plan: FftPlan | None, t_max) -> dict[tuple[int, ...], SampleGrid]:
    """smallq_samples for every primitive character mod q, keyed by index.

    One pass per parity serves every character of that parity.
    """
    chars = char_group(q).primitive_indices()
    return dict(zip(chars, _smallq_grids(q, chars, plan, t_max)))
