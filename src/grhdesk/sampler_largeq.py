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
Completion is one array step for every requested character at once: the
unimodular constant times the archimedean factor, which depends on the
character only through its parity, times the L-values, then one
realness check and the projection onto the real axis (lambda_from_l,
which the small-q sampler ends in too).  The archimedean factor is one
fixed-point ball per (ordinate, parity) (completion_factor: one
hurwitz.log_gamma, exponentiated by hurwitz._gamma_factor), made with
the L-values of each (q, ordinate) table and narrowed to doubles once.

Ordinates go through in blocks.  A call's ordinates that have no
(q, ordinate) table yet are cut into blocks of consecutive ordinates that
share a lattice row count and Euler-Maclaurin truncation,
each holding at most _BLOCK_CELLS cells in its largest array (_blocks).
A block's missing lattices are built in one Euler-Maclaurin pass
(hurwitz._build_block), saved one file per ordinate only if a cache_dir
is given, then taken from build_lattice with no file read; its L-values
are one l_values_at pass (one unit query, one group DFT with the
ordinates on a leading axis), whose numpy calls do not grow with the
block.  At desk heights a cold ordinate's cost is set by those calls, so
a block of T ordinates costs far less than T single ordinates; the cap
stops a block where its arrays outgrow the cache (a block of q = 4099's
ordinates is slower than one ordinate at a time).

The module keeps two bounded in-memory caches, each of the 8 entries
last made, and without a cache_dir nothing outlives the process: the
lattice per (ordinate, row count, cache_dir), one
interval array of four float64 endpoints per cell in D + 1 rows of 512
bytes (2.5 KB at the D = 4 that hurwitz.lattice_size gives t = 16,
128.5 KB at its D = 256 for t = 1000, 1 MB at its cap of 2048); and the
table per (q, ordinate, row count, cache_dir), the phi(q) L-values as
one CVec of 32-byte cells (32 KB at q = 1009), beside the completion
factors of both parities.  A call uses the tables of a block it made
directly, so a block longer than 8 ordinates reads no table it let go.
Every character of q sampled at an ordinate reads the same table, so
sample_all costs one pass per block.  Root numbers do not depend on the
ordinate: CharGroup.char_meta computes a character's once, from the
exact fixed-point Gauss sum narrowed to hardware boxes, and keeps it on
the group (about 0.66 KB a character, 0.66 MB for every character mod
1009; the char_group LRU keeps at most 64 groups).  So only the first
call for a character pays its O(q) Gauss sum.  Once the tables exist, a
sample_range call costs one array completion step and runs no big-float
arithmetic, and a later sample_all sweep at new ordinates costs its
blocks' lattices and l_values_at passes alone.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .characters import CharMeta, char_group
from .dft import group_dft_cvec, units_of
from .errors import DomainError, RealnessViolation
from .hurwitz import (
    DEFAULT_NCOLS,
    _GAMMA_BITS,
    HurwitzLattice,
    _build_block,
    _gamma_factor,
    _power_ball,
    _truncation,
    build_lattice,
    lattice_size,
    log_gamma,
    unit_hurwitz,
)
from .interval import ComplexBox, RealInterval
from .ivec import CVec, IVec

DEFAULT_STEP = Fraction(5, 64)


@dataclass(slots=True)
class SampleGrid:
    """Consecutive samples of the completed function on a dyadic grid.

    samples is one IVec row, the grid's own copy: samples[i], a
    RealInterval, encloses the completed value at (n_start + i) * t_step,
    and iterating it gives them in order.  Each is the realness projection
    of an assembled complex box, so the enclosure is rigorous even though
    only the real part is kept.
    """

    q: int
    character: tuple[int, ...]
    t_step: Fraction
    n_start: int
    samples: IVec
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


def _ratio(x) -> tuple[int, int]:
    """x as (numerator, positive denominator), the value Fraction(x) reads."""
    try:
        return x.as_integer_ratio()
    except AttributeError:
        return Fraction(x).as_integer_ratio()


def _grid_span(t_lo, t_hi, t_step) -> tuple[int, int]:
    """First and last multiple of t_step inside [t_lo, t_hi], as indices.

    Integer arithmetic on the numerators and denominators, no Fraction.
    """
    p, d = _ratio(t_step)
    if p <= 0:
        raise DomainError("t_step must be positive")
    ln, ld = _ratio(t_lo)
    hn, hd = _ratio(t_hi)
    if hn * ld < ln * hd:
        raise DomainError("empty ordinate range")
    n0 = -(-ln * d // (ld * p))
    n1 = hn * d // (hd * p)
    if n1 < n0:
        raise DomainError("no grid ordinate inside the range")
    return n0, n1


# the most ordinates one call lists, far above any caller's count (small
# q lists at most a plan's N = 2048), so a finer range is refused, not listed
_MAX_ORDINATES = 2**20


def _ordinates(t_lo, t_hi, step: Fraction) -> tuple[int, list[float]]:
    """The index of the first multiple of step inside [t_lo, t_hi], and
    every such multiple as a double.

    Each must be a binary rational, equal to its double (DomainError
    otherwise), so that a lattice is keyed by the exact ordinate.  With
    the step p/d in lowest terms and d = 2^k m, m odd, the ordinate
    n p / d is a binary rational only if m divides n, which two
    consecutive n cannot both do: for m > 1, a range of two or more
    ordinates is refused before any is listed.  For m = 1 the ordinate
    is a double only if the odd part of n p has at most 53 bits; a range
    of two or more holds an odd n at or next to the end of larger
    magnitude, so if that n times the odd part of p needs more bits, the
    range is refused before any ordinate is listed too.  So is a range
    of more than _MAX_ORDINATES ordinates.
    """
    n_start, n_end = _grid_span(t_lo, t_hi, step)
    p, d = step.numerator, step.denominator
    # a range whose every n p has at most 53 bits passes at once
    if n_end > n_start and (d & -d != d or (max(-n_start, n_end) * p).bit_length() > 53):
        odd_n = max(abs(n_start | 1), abs((n_end - 1) | 1))
        if d & -d != d or (odd_n * (p // (p & -p))).bit_length() > 53:
            raise DomainError("grid ordinates must be binary rationals")
    if n_end - n_start >= _MAX_ORDINATES:
        raise DomainError(
            f"{n_end - n_start + 1} ordinates in one call, more than {_MAX_ORDINATES}; "
            "a range this long waits for the block iterator of ROADMAP item 8"
        )
    # int / int is correctly rounded, as float(Fraction) is; the ordinate
    # n p / d is its double tn / td exactly when tn d = n p td
    ts = [n * p / d for n in range(n_start, n_end + 1)]
    for n, t in enumerate(ts, n_start):
        tn, td = t.as_integer_ratio()
        if tn * d != n * p * td:
            raise DomainError("grid ordinates must be binary rationals")
    return n_start, ts


def grid_count(t_lo, t_hi, t_step) -> int:
    """Number of step-multiples inside [t_lo, t_hi].

    When t_lo sits on the grid this equals floor((t_hi - t_lo)/t_step) + 1.
    """
    n0, n1 = _grid_span(t_lo, t_hi, t_step)
    return n1 - n0 + 1


# ---------------------------------------------------------------------------
# L-values


def q_pow(q: int, t: float) -> ComplexBox:
    """q^(-s) at s = 1/2 + it: one hurwitz._power_ball at the point balls'
    precision _GAMMA_BITS, as a hardware box.

    At t = 0 the value is real and its imaginary part is exactly [0, 0].
    """
    re_lo, re_hi, im_lo, im_hi = _power_ball(Fraction(q), Fraction(1, 2), t, _GAMMA_BITS)
    return ComplexBox(RealInterval(re_lo, re_hi), RealInterval(im_lo, im_hi))


def l_values_at(q: int, lats: Sequence[HurwitzLattice]) -> CVec:
    """L_chi(1/2 + i lat.t) for every character mod q and every lattice
    lat of lats, a block of lattices of one row count D, in one transform.

    A flat CVec of len(lats) * phi(q) values: each ordinate's phi(q)
    values follow the last's, in the block's order, from one unit query
    and one group DFT over the whole block, and within an ordinate they
    lie in np.ndindex order over the group's orders: the character idx
    sits at np.ravel_multi_index(idx, orders).  The imprimitive
    characters come out of the same DFT at no extra cost; they are
    returned too, though only primitive ones get certified.
    """
    if q < 3:
        raise DomainError("need q >= 3")
    group = char_group(q)
    zvals = unit_hurwitz(lats, q, units_of(group))
    scale = CVec.from_boxes([q_pow(q, x.t) for x in lats]).reshape(-1, 1)
    values = group_dft_cvec(group, zvals).reshape(len(lats), group.phi) * scale
    return values.reshape(-1)


# ---------------------------------------------------------------------------
# completion


def completion_factor(t: float, parity: int, q: int) -> ComplexBox:
    """The archimedean part of the completion at ordinate t:

        exp(log Gamma((1/2 + a + it)/2) + pi|t|/4 + i (t/2) log(q/pi)),  a = parity.

    One fixed-point ball: hurwitz.log_gamma at the exact point
    (2a+1)/4 + i t/2, then the exponent and its exponential in the same
    fixed point (hurwitz._gamma_factor: one mpf_log of q/pi, one mpf_exp,
    one mpf_cos_sin), narrowed to doubles once, as q_pow is.  Adding
    pi|t|/4 keeps the magnitude near |t|^(a/2) at any height, where
    Gamma alone decays like e^(-pi|t|/4).  |t| rather than t keeps the
    factor even, so the completed function of a real character is even.
    It depends on the character only through its parity, and at t = 0
    its imaginary part is exactly [0, 0].
    """
    y = Fraction(t) / 2
    lg = log_gamma(Fraction(2 * parity + 1, 4), y)
    re_lo, re_hi, im_lo, im_hi = _gamma_factor(lg, y, q)
    return ComplexBox(RealInterval(re_lo, re_hi), RealInterval(im_lo, im_hi))


def lambda_from_l(l: CVec, factor, q: int, chars, ts) -> IVec:
    """Real enclosures of factor * l, the completed values of chars mod q at ts.

    l[i, j] belongs to chars[i] at ts[j]; factor, a CVec or IVec that
    broadcasts to l's shape, is epsilon * completion_factor here and the
    recovery factor in the small-q sampler.  Every product must straddle
    the real axis; its real part widened by its imaginary radius then
    encloses the true (real) value.  If one does not, RealnessViolation
    names the first such (q, char, t), in row-major order.
    """
    lam = l * factor
    im = lam.im
    misses = ~im.contains_zero()
    if misses.any():
        i, j = np.argwhere(misses)[0]
        raise RealnessViolation(
            f"imaginary part {im[i, j]!r} misses 0 at t={ts[j]} "
            f"for index {chars[i]} mod {q}"
        )
    return lam.re.pad(im.mag())


# ---------------------------------------------------------------------------
# grids


# cells of the largest array a block of cold ordinates makes, the
# lattice build's (D+1, a+1, Ncols+1) or the unit query's (phi(q), Ncols+1)
# per ordinate; see _blocks
_BLOCK_CELLS = 1 << 16

# the kept lattices by (t, D, cache_dir) and (q, t)-tables by
# (q, t, size, cache_dir): the 8 last made of each
_lattices: dict = {}
_tables: dict = {}


def _keep(cache: dict, key, value) -> None:
    """Keep value under the new key, letting the oldest go past 8."""
    cache[key] = value
    if len(cache) > 8:
        del cache[next(iter(cache))]


def _blocks(ts: list[float], size: int | None, phi: int):
    """ts, in order, cut into blocks of consecutive ordinates that share a
    lattice row count D and truncation and whose arrays hold
    at most _BLOCK_CELLS cells, as (D, block); an ordinate that alone
    holds more is a block of its own."""
    block, shape = [], None
    for t in ts:
        D = lattice_size(t) if size is None else size
        a, b = _truncation(t, D)
        cells = max((D + 1) * (a + 1), phi) * (DEFAULT_NCOLS + 1)
        if block and ((D, a, b) != shape or (len(block) + 1) * cells > _BLOCK_CELLS):
            yield shape[0], block
            block = []
        block.append(t)
        shape = (D, a, b)
    if block:
        yield shape[0], block


def _lattice_block(ts: list[float], D: int, cache_dir) -> list[HurwitzLattice]:
    """The lattices with D rows at a block of ordinates from _blocks: the
    kept ones reused, the others built in one hurwitz._build_block pass
    (those that cache_dir does not hold yet), each then taken from
    build_lattice."""
    lats = [_lattices.get((t, D, cache_dir)) for t in ts]
    cold = [t for t, lat in zip(ts, lats) if lat is None]
    if cold:
        _build_block(cold, D, cache_dir)
    for i, t in enumerate(ts):
        if lats[i] is None:
            lats[i] = build_lattice(t, D=D, cache_dir=cache_dir)
            _keep(_lattices, (t, D, cache_dir), lats[i])
    return lats


def _table_block(q: int, ts: list[float], D: int, cache_dir) -> list[tuple[CVec, CVec]]:
    """For each t of a block from _blocks: L_chi(1/2 + it) for every
    character mod q, and the completion factors of parity 0 and 1 at t, as
    two CVecs; the L-values of the whole block come from one l_values_at
    pass over its lattices with D rows."""
    values = l_values_at(q, _lattice_block(ts, D, cache_dir)).reshape(len(ts), -1)
    return [
        (
            CVec.from_block(values.e[:, :, i].copy()),
            CVec.from_boxes([completion_factor(t, parity, q) for parity in (0, 1)]),
        )
        for i, t in enumerate(ts)
    ]


def _make_tables(q: int, ts: list[float], tables: list, size: int | None, cache_dir) -> list:
    """tables, the kept (q, t)-table of each t in ts or None, with each None
    made: by blocks of ordinates (_blocks, _table_block), each kept.  Each
    block's tables are used as made, so a call needs no table it may have
    let go."""
    cold = [t for t, table in zip(ts, tables) if table is None]
    made = {}
    for D, block in _blocks(cold, size, char_group(q).phi):
        for t, table in zip(block, _table_block(q, block, D, cache_dir)):
            made[t] = table
            _keep(_tables, (q, t, size, cache_dir), table)
    return [made[t] if table is None else table for t, table in zip(ts, tables)]


def _grids(q, chars, t_lo, t_hi, t_step, size, cache_dir) -> list[SampleGrid]:
    """One SampleGrid per character in chars, all read from the same tables.

    Callers often keep many grids, so each grid shares the caller's step
    (Fractions are immutable) and owns its row of samples, copied out of
    the (chars, ordinates) array so that no grid keeps the others' alive.
    The range is checked first; an empty chars then builds no table, and
    an imprimitive character (NotPrimitive, from char_meta) none either.
    """
    step = t_step if isinstance(t_step, Fraction) else Fraction(t_step)
    n_start, ts = _ordinates(t_lo, t_hi, step)
    if not chars:
        return []

    group = char_group(q)
    metas = [group.char_meta(char) for char in chars]
    # (chars, 1) index columns: one block take per table gives that
    # ordinate's column of the (chars, ordinates) arrays
    cols = np.array([np.ravel_multi_index(char, group.orders) for char in chars], dtype=np.intp)
    parities = np.array([meta.parity for meta in metas], dtype=np.intp)
    cols, parities = cols.reshape(-1, 1), parities.reshape(-1, 1)
    tables = [_tables.get((q, t, size, cache_dir)) for t in ts]
    if None in tables:
        tables = _make_tables(q, ts, tables, size, cache_dir)
    l = CVec.concatenate([lv.take(cols) for lv, _ in tables], axis=1)
    c = CVec.concatenate([fac.take(parities) for _, fac in tables], axis=1)
    eps = CVec.from_boxes([meta.epsilon for meta in metas]).reshape(-1, 1)
    rows = lambda_from_l(l, eps * c, q, chars, ts)
    return [
        SampleGrid(q, char, step, n_start, row.copy(), meta)
        for char, meta, row in zip(chars, metas, rows)
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
    Lattices are kept in memory (the last 8, 512 bytes per row), so every
    modulus sampled at the same ordinate and row count reuses the same
    one; only with a cache_dir are they also loaded from and saved to
    files there, which another process can reuse instead of rebuilding.

    The first call at a (q, ordinate) pair computes the L-values of all
    phi(q) characters, in one l_values_at pass for each block of such
    ordinates that share a lattice row count and truncation, and keeps
    them in an in-memory table per ordinate, with the completion factor
    of each parity beside them; later calls for any character of q at
    that ordinate read that table, so a call then costs one array
    completion step, (epsilon C) L with the realness check and the
    projection, over all its ordinates.
    The last 8 tables made are kept; each holds phi(q) array cells of 32
    bytes (32 KB at q = 1009).  The character's root number
    and completion constant come from CharGroup.char_meta, which runs
    the Gauss sum on the first call for the character and keeps the
    result, so every later call, at any ordinate, reuses it.

    An index needs one entry per cyclic factor of the group, each in
    0..order - 1 (ValueError otherwise), and must be primitive
    (NotPrimitive otherwise); both are checked before any table is built.
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
    sweep costs one l_values_at pass per block of ordinates, plus the root number
    of each character that no earlier call at q computed (char_meta
    keeps them on the group).  A modulus with no primitive character
    (q = 2 mod 4) gets {} once its range is checked, with no lattice or
    table built.
    """
    chars = char_group(q).primitive_indices()
    grids = _grids(q, chars, t_lo, t_hi, t_step, size, cache_dir)
    return dict(zip(chars, grids))
