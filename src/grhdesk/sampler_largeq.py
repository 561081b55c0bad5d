"""Large-modulus samples of the completed function via lattice + group DFT.

At one ordinate t the values L_chi(1/2+it) for every character mod q are
character sums over Hurwitz values:

    L_chi(1/2+it) = q^(-s) sum_{a mod q, gcd(a,q)=1} chi(a) zeta(s, a/q).

The Hurwitz values come off the precomputed lattice by one batched Taylor
shift (hurwitz.unit_hurwitz), the character sums are one group DFT
(dft.group_dft_cvec), and the q^(-s) scaling is one power ball of the
lattice's power kernel (hurwitz._power_ball); all phi(q) L-values for
the modulus drop out of one pass.  This module only composes those
steps: the lattice query and its file format live in hurwitz, the DFT
length policy in dft.
Completion multiplies in the archimedean factor, which depends on the
character only through its parity, and the unimodular constant, then
projects the provably real result onto the real axis.

The samplers keep three bounded in-memory LRU caches: the lattice per
(ordinate, row count), at most 8, each one interval array of four
float64 endpoints per cell, 512 bytes a row (2 KB at the 4 rows that
hurwitz.lattice_size gives t = 16, 128 KB at its 256 rows for t = 1000,
1 MB at its cap of 2048); one table of the phi(q) L-values per
(q, ordinate), at most 8 tables; and the completion factor per
(ordinate, parity, q), at most 16 boxes.
Every character of q sampled at that ordinate reads the same table, so
sample_all costs one pass per ordinate, and a per-character sample_range
call costs its root number and two box products per sample once the
table exists.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .characters import CharMeta, char_group
from .dft import group_dft_cvec, units_of
from .errors import DomainError, RealnessViolation
from .hurwitz import HurwitzLattice, _power_ball, build_lattice, unit_hurwitz
from .interval import (
    HARDWARE,
    ComplexBox,
    RealInterval,
    log_gamma,
    pi_interval,
)

DEFAULT_STEP = Fraction(5, 64)


@dataclass(slots=True)
class SampleGrid:
    """Consecutive samples of the completed function on a dyadic grid.

    samples[i] encloses the completed value at (n_start + i) * t_step;
    each is the realness projection of an assembled complex box, so the
    enclosure is rigorous even though only the real part is kept.
    """

    q: int
    character: tuple[int, ...]
    t_step: Fraction
    n_start: int
    samples: list[RealInterval]
    meta: CharMeta

    def __post_init__(self):
        if self.t_step <= 0:
            raise DomainError("t_step must be positive")

    def __len__(self) -> int:
        return len(self.samples)

    def t_at(self, i: int) -> Fraction:
        """Exact ordinate of samples[i]."""
        return self.t_step * (self.n_start + i)

    def t_float(self, i: int) -> float:
        return float(self.t_at(i))


def _grid_span(t_lo, t_hi, t_step) -> tuple[int, int]:
    """First and last multiple of t_step inside [t_lo, t_hi], as indices."""
    step = Fraction(t_step)
    if step <= 0:
        raise DomainError("t_step must be positive")
    lo = Fraction(t_lo)
    hi = Fraction(t_hi)
    if hi < lo:
        raise DomainError("empty ordinate range")
    n0 = -int(-lo // step)
    n1 = int(hi // step)
    if n1 < n0:
        raise DomainError("no grid ordinate inside the range")
    return n0, n1


def grid_count(t_lo, t_hi, t_step) -> int:
    """Number of step-multiples inside [t_lo, t_hi].

    When t_lo sits on the grid this equals floor((t_hi - t_lo)/t_step) + 1.
    """
    n0, n1 = _grid_span(t_lo, t_hi, t_step)
    return n1 - n0 + 1


# ---------------------------------------------------------------------------
# L-values


def q_pow(q: int, t: float) -> ComplexBox:
    """q^(-s) at s = 1/2 + it: one hurwitz._power_ball at 96 bits, as a hardware box.

    At t = 0 the value is real and its imaginary part is exactly [0, 0].
    """
    re_lo, re_hi, im_lo, im_hi = _power_ball(Fraction(q), Fraction(1, 2), t, 96)
    return ComplexBox(RealInterval(re_lo, re_hi), RealInterval(im_lo, im_hi))


def l_values_at(q: int, lat: HurwitzLattice) -> dict[tuple[int, ...], ComplexBox]:
    """L_chi(1/2 + i lat.t) for every character mod q, in one transform.

    The imprimitive characters come out of the same DFT at no extra cost;
    they are returned too, though only primitive ones get certified.
    """
    if q < 3:
        raise DomainError("need q >= 3")
    group = char_group(q)
    units = units_of(group)
    zvals = unit_hurwitz(lat, q, units)
    sums = group_dft_cvec(group, zvals).reshape(group.phi)
    scale = q_pow(q, lat.t)
    out = {}
    for pos, idx in enumerate(np.ndindex(*group.orders)):
        out[tuple(int(v) for v in idx)] = sums[pos] * scale
    return out


# ---------------------------------------------------------------------------
# completion


@lru_cache(maxsize=16)
def completion_factor(t: float, parity: int, q: int) -> ComplexBox:
    """The archimedean part of the completion at ordinate t:

        exp(log Gamma((1/2 + a + it)/2) + pi|t|/4 + i (t/2) log(q/pi)),  a = parity.

    Assembled in log space: Re log Gamma decays like -pi|t|/4, so adding
    pi|t|/4 before exponentiating keeps magnitudes near 1 and avoids
    overflow at any desk-scale height.  |t| rather than t keeps the
    factor even, so the completed function of a real character is even.
    It depends on the character only through its parity.
    """
    z = ComplexBox(
        RealInterval.from_fraction(Fraction(2 * parity + 1, 4), HARDWARE),
        RealInterval.point(t / 2, HARDWARE),
    )
    lg = log_gamma(z)
    pi = pi_interval(HARDWARE)
    log_q_pi = (RealInterval.point(q, HARDWARE) / pi).log()
    arg = ComplexBox(
        lg.re + pi * RealInterval.point(abs(t) / 4, HARDWARE),
        lg.im + RealInterval.point(t / 2, HARDWARE) * log_q_pi,
    )
    return arg.exp()


def lambda_box(l: ComplexBox, t: float, meta: CharMeta, q: int) -> ComplexBox:
    """Pre-projection completed box, epsilon * completion_factor * L."""
    return (meta.epsilon * completion_factor(t, meta.parity, q)) * l


def lambda_from_l(
    l: ComplexBox, t: float, meta: CharMeta, q: int, char: tuple[int, ...]
) -> RealInterval:
    """Real enclosure of the completed value of character char mod q at ordinate t.

    The assembled box must straddle the real axis; its real part widened
    by the imaginary radius then encloses the true (real) value.  If it
    does not, RealnessViolation names (q, char, t).
    """
    lam = lambda_box(l, t, meta, q)
    if not lam.im.contains_zero():
        raise RealnessViolation(
            f"imaginary part {lam.im!r} misses 0 at t={t} for index {char} mod {q}"
        )
    return lam.re.pad(lam.im.mag())


# ---------------------------------------------------------------------------
# grids


@lru_cache(maxsize=8)
def _shared_lattice(t: float, size: int | None, cache_dir) -> HurwitzLattice:
    """The lattice at t; size None takes build_lattice's default, lattice_size(t)."""
    return build_lattice(t, D=size, cache_dir=cache_dir)


@lru_cache(maxsize=8)
def _modulus_table(
    q: int, t: float, size: int | None, cache_dir
) -> dict[tuple[int, ...], ComplexBox]:
    """L_chi(1/2 + it) for every character mod q, from one l_values_at pass."""
    return l_values_at(q, _shared_lattice(t, size, cache_dir))


def _grids(q, chars, t_lo, t_hi, t_step, size, cache_dir) -> list[SampleGrid]:
    """One SampleGrid per character in chars, all read from the same tables.

    Callers often keep many grids, so each grid shares the caller's step
    (Fractions are immutable) and holds an exactly sized sample list.
    """
    step = t_step if isinstance(t_step, Fraction) else Fraction(t_step)
    n_start, n_end = _grid_span(t_lo, t_hi, step)

    group = char_group(q)
    metas = [group.char_meta(char) for char in chars]

    samples = [[None] * (n_end - n_start + 1) for _ in chars]
    for i, n in enumerate(range(n_start, n_end + 1)):
        t_fr = step * n
        t = float(t_fr)
        if Fraction(t) != t_fr:
            raise DomainError("grid ordinates must be binary rationals")
        table = _modulus_table(q, t, size, cache_dir)
        for char, meta, out in zip(chars, metas, samples):
            out[i] = lambda_from_l(table[char], t, meta, q, char)
    return [
        SampleGrid(q, char, step, n_start, out, meta)
        for char, meta, out in zip(chars, metas, samples)
    ]


def sample_range(
    q: int,
    char,
    t_lo,
    t_hi,
    t_step: Fraction = DEFAULT_STEP,
    *,
    size: int | None = None,
    cache_dir=None,
) -> SampleGrid:
    """Grid of completed-value enclosures for one character.

    Ordinates are the multiples of t_step inside [t_lo, t_hi]; each must
    be an exact binary rational so the lattice is keyed by the exact
    ordinate.  size None gives each ordinate t its own row count,
    hurwitz.lattice_size(t), from the height alone, so an ordinate's
    lattice and samples do not depend on the range or modulus they are
    asked for; an explicit size serves every ordinate of the call.
    Lattices are cached in memory (at most 8, 512 bytes per row) and on
    disk, so every modulus sampled at the same ordinate and row count
    reuses the same one.

    The first call at a (q, ordinate) pair runs l_values_at once for all
    phi(q) characters and keeps the L-values in an in-memory table, and
    the completion factor of each parity is cached beside it; later calls
    for any character of q at that ordinate read both, so a sample then
    costs two box products and the realness check, plus the character's
    root number once per call.  At most 8 tables are kept, least recently
    used first out; each holds phi(q) boxes, about 0.4 KB per character
    (0.4 MB at q = 1009).
    """
    char = char_group(q).canonical(char)
    return _grids(q, [char], t_lo, t_hi, t_step, size, cache_dir)[0]


def sample_all(
    q: int,
    t_lo,
    t_hi,
    t_step: Fraction = DEFAULT_STEP,
    *,
    size: int | None = None,
    cache_dir=None,
) -> dict[tuple[int, ...], SampleGrid]:
    """sample_range for every primitive character mod q, keyed by index.

    Reads the same per-(q, ordinate) tables as sample_range, so the whole
    sweep costs one l_values_at pass per ordinate plus phi(q) root numbers.
    """
    chars = char_group(q).primitive_indices()
    grids = _grids(q, chars, t_lo, t_hi, t_step, size, cache_dir)
    return dict(zip(chars, grids))
