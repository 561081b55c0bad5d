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

1. the error budgets, which depend only on (q, a, plan), as one interval
   array each: the aliasing bound of every dual bin, summed into one
   total, and the t-grid periodization error of every output ordinate;
2. Fhat on the dual grid 2 pi n/B, n = 0..N/2: the theta terms
   k^a exp(-pi k^2 e^{2u}/q), each one fixed-point ball exponential
   (balls), summed by residue class of k mod q and times the prefactor
   before one narrowing to doubles; one group DFT (the convention of
   sampler_largeq.l_values_at) for the character sums of every chi at
   once, then the geometric tail radius and epsilon; from the first bin
   where a certified bound on the whole row is below 2^-1000, every row
   is that bound;
3. the negative bins by conjugate reflection (F is real, so
   Fhat(-x) = conj Fhat(x)) and one unnormalized backward FFT, batched
   over the characters and scaled by 2 pi/B (Poisson summation makes the
   two periodizations a DFT pair);
4. for every character and ordinate at once: the alias total and the
   t-grid pad, the conversion to completed values by the recovery
   factor (one real ball exponential per ordinate), the realness check
   and the projection.

Every step carries explicit interval error bounds.  The point values
(theta terms, prefactors, recovery factors) are the exact kernel's
balls (balls), each narrowed to doubles once; the bounds (budgets, tail
pads, the far-bin cut) are interval arrays of ivec.
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
from .balls import (
    GAMMA_BITS,
    GAMMA_PREC,
    ball,
    ball_mul,
    ball_scale,
    ball_sum,
    exp_ball,
    log_gamma,
    log_pi,
    narrow_ball,
    pi_ball,
)
from .hurwitz import DEFAULT_BUILD_BITS, _em_rows, auto_params
from .ivec import CVec, IVec, pi_times
from .sampler_largeq import SampleGrid, _ordinates, _ratio, lambda_from_l


@cache
def zeta_nine_eighths() -> IVec:
    """zeta(9/8), the constant in the Rademacher-derived L bound.

    The real part of one cell of the lattice's Euler-Maclaurin kernel
    (hurwitz._em_rows): the row alpha = 1, column 0, at s = 9/8, truncated
    as auto_params picks for a lattice build's precision.  A
    zero-dimensional IVec.
    """
    sigma, alpha = Fraction(9, 8), Fraction(1)
    a, b = auto_params(sigma, 0.0, alpha, DEFAULT_BUILD_BITS)
    return _em_rows([0.0], sigma, [alpha], 0, a, b, DEFAULT_BUILD_BITS).re.reshape(())


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
        object.__setattr__(self, "A", Fraction(*_ratio(self.A)))
        object.__setattr__(self, "B", Fraction(*_ratio(self.B)))
        if self.A <= 0 or self.B <= 0:
            raise DomainError("need A > 0 and B > 0")
        if not -1.0 < self.eta < 1.0:
            raise DomainError("eta must lie in (-1, 1)")
        prod = self.A * self.B
        if prod.denominator != 1 or prod < 2 or prod.numerator & (prod.numerator - 1):
            raise DomainError("N = A*B must be a power of two >= 2")
        # A >= 1/(2 pi), certified: 2 pi A > 1
        if not pi_times(2 * self.A).lo > 1.0:
            raise DomainError("need A >= 1/(2 pi)")

    @property
    def N(self) -> int:
        return (self.A * self.B).numerator

    @property
    def delta(self) -> IVec:
        """(pi/2)(1 - |eta|), a zero-dimensional IVec."""
        return pi_times((1 - Fraction(abs(self.eta))) / 2)

    @property
    def t_step(self) -> Fraction:
        return 1 / self.A


def default_plan() -> FftPlan:
    return FftPlan(A=Fraction(16), B=Fraction(128), eta=0.0)


# the most theta terms _dual_values sums at one bin: default_trunc at bin
# 0 is at most 14 for q <= 20 at eta = 0 and 35 at eta = 0.9
_MAX_TERMS = 1024


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
    characters of this parity.  The values are fixed-point balls
    (balls): e^{2u} is one exp_ball of the exact 4 pi n/B + i pi eta/2,
    each theta term up to default_trunc one more, times k^parity exactly,
    summed by residue class of k mod q; the prefactor, the exp_ball of
    (2 parity + 1) u/2 times the ball q^(-(2 parity + 1)/4), multiplies
    each class sum before its one narrowing to doubles, and one group DFT
    turns the class sums into the character sums.  TailDivergence, before
    any sum, if a bin needs more than _MAX_TERMS terms.

    The bounds are interval arrays over the bins.  The tail past the
    truncation is dominated by a geometric series whatever the character,
    and is padded on times the prefactor's modulus 2 e^((2 parity + 1) x/2)
    q^(-(2 parity + 1)/4) (x = Re u); TailDivergence if the certified term
    ratio reaches 1.

    Far out the rows vanish.  With y = pi Re(e^{2u})/q, k^2 >= 3k - 2 and
    k^parity <= 2^(k-1) bound every row, for every character, by

        B = 2 e^((2 parity + 1) x/2) q^(-(2 parity + 1)/4) e^(-y) / (1 - 2 e^(-3y))

    once y >= 1.  y grows with x, and there the exponent
    (2 parity + 1) x/2 - y has slope (2 parity + 1)/2 - 2y < 0 while the
    denominator grows, so B falls with x: the certified B of the first
    bin with y >= 1 and B < 2^-1000 bounds that bin and every later one.
    Those rows are that bound about zero, and their theta sums are
    skipped.
    """
    group = char_group(q)
    slot = {int(a): j for j, a in enumerate(units_of(group))}
    c = 2 * parity + 1
    half = plan.N // 2
    pi = pi_times(1)

    # x = 2 pi n/B, Re e^{2u} = e^{2x} cos(pi eta/2), y, and the
    # prefactor's modulus, at every bin
    x = IVec.from_ratios(2 * plan.B.denominator * np.arange(half + 1), plan.B.numerator) * pi
    re_e2u = (x + x).exp() * (IVec.from_points(plan.eta) * pi * 0.5).cos()
    y = re_e2u * pi / q
    mod = (x * (c / 2) + IVec.from_points(float(q)).log() * (-c / 4)).exp() * 2.0

    near = np.flatnonzero(y.lo >= 1.0)
    bound = (mod.take(near) * (-y.take(near)).exp() / (1.0 - (y.take(near) * -3.0).exp() * 2.0)).hi
    below = np.flatnonzero(bound < math.ldexp(1.0, -1000))
    bins = int(near[below[0]]) if below.size else half + 1

    truncs = [default_trunc(lo, q, plan.eta) for lo in x.lo[:bins].tolist()]
    n = next((n for n, trunc in enumerate(truncs) if trunc > _MAX_TERMS), None)
    if n is not None:
        raise TailDivergence(
            f"{truncs[n]} theta terms for q = {q}, parity {parity} at bin n = {n}, more than {_MAX_TERMS}"
        )

    # geometric tail: |term ratio| <= (1 + 1/(trunc+1))^parity
    #                 * exp(-pi (2 trunc + 3) Re(e^{2u}) / q),
    # whose bound reaches 1 where Re(e^{2u}) is not certified positive
    n0 = np.array(truncs) + 1
    decay = re_e2u[:bins] * pi
    rho = (decay * IVec.from_ratios(-(2 * n0 + 1), q)).exp()
    first = (decay * IVec.from_ratios(-n0 * n0, q)).exp()
    if parity:
        rho = rho * IVec.from_ratios(n0 + 1, n0)
        first = first * n0
    fails = np.flatnonzero(~(rho.hi < 1.0))
    if fails.size:
        n = int(fails[0])
        raise TailDivergence(
            f"term ratio {rho.hi[n]:.3g} >= 1 for q = {q}, parity {parity} at bin n = {n}"
        )
    pads = (first / (1.0 - rho) * mod[:bins]).hi

    prec = GAMMA_PREC
    pi_exact = pi_ball(1, 0)
    q_pow = ball(Fraction(q), Fraction(c, 4), 0.0, GAMMA_BITS)
    eta = Fraction(plan.eta)
    ends = []
    for n, trunc in enumerate(truncs):
        # -pi e^{2u}/q, and each term exp(-pi k^2 e^{2u}/q) k^parity
        e2u = exp_ball(pi_ball(4 * n / plan.B, eta / 2))
        X, Y, R, _ = ball_scale(ball_mul(e2u, pi_exact, prec), -1, q, prec)
        classes = [[] for _ in range(group.phi)]
        for k in range(1, trunc + 1):
            if math.gcd(k, q) == 1:
                tx, ty, tr, te = exp_ball((k * k * X, k * k * Y, k * k * R, -prec))
                m = k**parity
                classes[slot[k % q]].append((m * tx, m * ty, m * tr, te))
        pref = ball_mul(exp_ball(pi_ball(c * n / plan.B, c * eta / 8)), q_pow, prec)
        pref = pref[:3] + (pref[3] + 1,)  # times 2
        ends.extend(narrow_ball(ball_mul(ball_sum(terms), pref, prec), False) for terms in classes)

    ends = np.array(ends).reshape(bins, group.phi, 4)
    classes = CVec(IVec(ends[..., 0], ends[..., 1]), IVec(ends[..., 2], ends[..., 3]))
    sums = group_dft_cvec(group, classes).reshape(bins, group.phi)
    dual = sums.pad(pads.reshape(bins, 1))
    if bins > half:
        return dual
    rest = CVec.zeros((half + 1 - bins, group.phi)).pad(bound[below[0]])
    return CVec.concatenate([dual, rest], axis=0)


def _shifts(k_max: int, step: Fraction, shift: Fraction) -> tuple[np.ndarray, int]:
    """Exact integers u, shape (2, k_max + 1) and dtype object, and d > 0
    with u/d = k step + shift (row 0) and k step - shift (row 1)."""
    k = np.arange(k_max + 1, dtype=object) * (step.numerator * shift.denominator)
    top = shift.numerator * step.denominator
    return np.stack([k + top, k - top]), step.denominator * shift.denominator


def _decay_bound(w: IVec, x_of_w: IVec, parity: int) -> IVec:
    """exp((2 parity + 1) w/2 - X) (1 + 1/(2X))^((2 parity + 2)/2)."""
    body = 1.0 + 0.5 / x_of_w
    if parity:
        body = body * body.sqrt()
    return (w * ((2 * parity + 1) / 2) - x_of_w).exp() * body


def alias_bound_fhat(plan: FftPlan, q: int, parity: int) -> IVec:
    """Bound on |periodized dual value - Fhat(2 pi n/B)| at every bin
    n = 0..N/2, which is also the bound at -n.

    Applies the one-sided decay bound at w1 = 2 pi (A + n/B) (shifts
    upward) and at w2 = 2 pi (A - n/B) >= pi A (shifts downward, reflected
    through the realness of F), with X(w) = (pi delta / q) exp(2w - delta).
    XConditionViolated names q, the parity and the first bin where X(w1)
    or X(w2) is not certified above 1.
    """
    pi = pi_times(1)
    delta = plan.delta
    u, d = _shifts(plan.N // 2, 1 / plan.B, plan.A)
    w = IVec.from_ratios(np.abs(u), d) * pi_times(2)
    x = (w + w - delta).exp() * (delta * pi / q)
    fails = ~(x.lo > 1.0).all(axis=0)
    if fails.any():
        n = int(np.argmax(fails))
        raise XConditionViolated(
            f"X(w) <= 1 for q = {q}, parity {parity} at bin n = {n}; enlarge A "
            f"(X1={x.lo[0, n]:.3g}, X2={x.lo[1, n]:.3g})"
        )
    decay = _decay_bound(w, x, parity)
    # q^((2 parity + 1)/4) delta^(1/2) (1 - e^(-pi A))
    q_pow = (IVec.from_points(float(q)).log() * ((2 * parity + 1) / 4)).exp()
    den = q_pow * delta.sqrt() * (1.0 - (IVec.from_ratios(-plan.A.numerator, plan.A.denominator) * pi).exp())
    out = (decay[0] + decay[1]) * 4.0 / den
    return IVec(np.maximum(out.lo, 0.0), out.hi)  # a bound on |.|: lo >= 0


def _beta(u: np.ndarray, d: int, parity: int) -> IVec:
    """pi/4 - (c/2) arctan(1/(2|t|)) - 4/(pi^2 |t^2 - c^2/4|) at each t = u/d
    (u nonzero, from _shifts), c = 2 parity + 1.

    At the pole t^2 = c^2/4 the numerator 1 stands in for 0: the correction
    is then at least 16/pi^2 > pi/2, so beta, twisted by pi eta/4 or not,
    is negative there, as it is at the pole itself.
    """
    c = 2 * parity + 1
    pole = np.maximum(np.abs(4 * u * u - c * c * d * d), 1)
    at, gap = IVec.from_ratios(np.stack([np.abs(4 * d * u), pole]), 4 * d * d)
    pi = pi_times(1)
    arct = (0.5 / at).atan() * (c / 2)
    return -(arct + 4.0 / (gap * (pi * pi))) + pi_times(Fraction(1, 4))


def _envelope(u: np.ndarray, d: int, q: int, parity: int, eta: float) -> IVec:
    """zeta(9/8) pi^(-c/4) |Gamma(c/4 + it/2)| e^(pi eta t/4)
    ((q/2pi)|3/2 + it|)^(5/16) at each t = u/d (from _shifts), c = 2 parity + 1.

    |Gamma| is e^(Re log Gamma): the real part of balls.log_gamma's ball
    at the exact point c/4 + it/2, one ball per t, narrowed to doubles
    into one IVec, then one exp.  |3/2 + it|^(5/16) is
    (t^2 + 9/4)^(5/32), its base the exact (4u^2 + 9d^2)/(4d^2) rounded
    outward once, so it is positive at every t.
    """
    c = 2 * parity + 1
    ends = [narrow_ball(log_gamma(Fraction(c, 4), Fraction(k, 2 * d)), False)[:2] for k in u.flat]
    gamma_abs = IVec(*np.array(ends).T.reshape((2,) + u.shape)).exp()
    t, base = IVec.from_ratios(np.stack([4 * d * u, 4 * u * u + 9 * d * d]), 4 * d * d)
    pi = pi_times(1)
    # zeta(9/8) pi^(-c/4) (q/2pi)^(5/16) = zeta(9/8) e^(-(c/4) log pi + (5/16) log(q/2pi))
    const = (pi.log() * (-c / 4) + (q / (pi + pi)).log() * (5 / 16)).exp() * zeta_nine_eighths()
    rad = (base.log() * (5 / 32)).exp()
    return gamma_abs * (t * pi_times(Fraction(eta) / 4)).exp() * rad * const


def t_grid_error(plan: FftPlan, q: int, parity: int, m_max: int) -> IVec:
    """Bound on |periodized t-side value - F(m/A)| at every ordinate
    m = 0..m_max, for 0 <= m_max < N.

    Sums the envelopes of the two nearest periodization shifts, t = m/A + B
    and t = m/A - B, each divided by the geometric factor its decay rate
    beta - pi eta sign(t)/4 provides.  BetaConditionViolated names q, the
    parity and the first m where a rate is not certified positive: m/A
    too close to B for the decay rate to beat the contour twist.
    """
    if not 0 <= m_max < plan.N:
        raise DomainError("m_max outside the plan's ordinate range 0..N-1")
    u, d = _shifts(m_max, 1 / plan.A, plan.B)
    pe = Fraction(plan.eta) / 4
    beta = _beta(u, d, parity) - pi_times([pe, -pe]).reshape(2, 1)
    fails = ~(beta.lo > 0.0).all(axis=0)
    if fails.any():
        m = int(np.argmax(fails))
        raise BetaConditionViolated(
            f"decay condition fails for q = {q}, parity {parity} at m = {m} "
            f"(m/A = {float(m / plan.A):.4g})"
        )
    out = _envelope(u, d, q, parity, plan.eta) / (
        1.0 - (beta * IVec.from_ratios(-plan.B.numerator, plan.B.denominator)).exp()
    )
    out = out[0] + out[1]
    return IVec(np.maximum(out.lo, 0.0), out.hi)  # a bound on |.|: lo >= 0


def _recovery(ts: list[float], parity: int, eta: float) -> IVec:
    """pi^((2 parity + 1)/4) e^(pi t (1 - eta)/4) at each t of ts: the real
    ball e^((2 parity + 1)/4 log pi + pi t (1 - eta)/4) per ordinate,
    log pi from balls.log_pi, each narrowed to doubles once."""
    lp, rad = log_pi()
    c = 2 * parity + 1
    scale = (1 - Fraction(eta)) / 4
    ends = []
    for t in ts:
        X, _, R, e = pi_ball(Fraction(t) * scale, 0)
        # c lp / 4 floors by less than one unit
        ends.append(narrow_ball(exp_ball((X + (c * lp >> 2), 0, R - (-c * rad >> 2) + 1, e)), True)[:2])
    return IVec(*np.array(ends).T)


def _smallq_grids(q: int, chars, plan: FftPlan | None, t_max) -> list[SampleGrid]:
    """One SampleGrid per character in chars, built a parity at a time.

    The alias total, the t-grid pads and the dual values depend on the
    character only through its parity, so each parity among chars costs
    one call of each budget, one _dual_values table and one backward FFT
    batched over its characters.  The outputs are padded by the alias
    total and each by its own t-grid periodization error, converted to
    the completed normalization, and checked real and projected by
    sampler_largeq.lambda_from_l, all as arrays; each grid owns a copy
    of its row.

    The indices' form (canonical) and t_max are checked first, in O(1):
    that it is finite (DomainError for a NaN or an infinity, as for the
    plan's A and B), its sign, the plan's ordinate range and the recovery
    exponent.  Only then does char_meta check each character primitive
    and read its constants, and are the ordinates m/A,
    m = 0..floor(t_max A), listed, by the large-q sampler's rule
    (sampler_largeq._ordinates).
    """
    if plan is None:
        plan = default_plan()
    group = char_group(q)
    chars = [group.canonical(char) for char in chars]
    t_max = Fraction(*_ratio(t_max))
    if t_max < 0:
        raise DomainError("t_max must be nonnegative")
    m_max = int(t_max * plan.A)
    if m_max >= plan.N:
        raise DomainError("t_max exceeds the plan's ordinate range")
    # hardware exponent ceiling for the recovery factor exp(pi t (1-eta)/4)
    if math.pi * float(t_max) * (1.0 - plan.eta) / 4.0 > 700.0:
        raise DomainError("t_max too large for this plan's recovery factor")
    metas = [group.char_meta(char) for char in chars]
    _, ts = _ordinates(0, m_max / plan.A, plan.t_step)

    n_total = plan.N
    half = n_total // 2
    fold = np.r_[: half + 1, half - 1 : 0 : -1]  # bin n of 0..N-1 as min(n, N - n)
    samples = [None] * len(chars)
    for parity in sorted({meta.parity for meta in metas}):
        members = [i for i, meta in enumerate(metas) if meta.parity == parity]

        alias_total = alias_bound_fhat(plan, q, parity).take(fold).sum()
        t_pads = t_grid_error(plan, q, parity, m_max).hi
        recover = _recovery(ts, parity, plan.eta)

        # Fhat on bins 0..N/2 per character, then the negative half by
        # conjugate reflection: F is real-valued, so Fhat(-x) = conj Fhat(x)
        cols = [int(np.ravel_multi_index(chars[i], group.orders)) for i in members]
        eps = CVec.concatenate([metas[i].epsilon for i in members])
        dual = (_dual_values(q, parity, plan).take_last(cols) * eps).moveaxis(0, -1)
        dual = CVec.concatenate([dual, dual[..., half - 1 : 0 : -1].conj()], axis=-1)
        core = fft_pow2(dual, "backward").pad(alias_total.hi)
        core = core * pi_times(2 / plan.B)

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
    for an imprimitive one and DomainError for a negative or non-finite
    t_max, each before any budget or dual value is computed.
    """
    return _smallq_grids(q, [char], plan, t_max)[0]


def smallq_all(q: int, plan: FftPlan | None, t_max) -> dict[tuple[int, ...], SampleGrid]:
    """smallq_samples for every primitive character mod q, keyed by index.

    One pass per parity serves every character of that parity.
    """
    chars = char_group(q).primitive_indices()
    return dict(zip(chars, _smallq_grids(q, chars, plan, t_max)))
