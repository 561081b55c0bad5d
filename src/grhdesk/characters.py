"""Dirichlet characters mod q: group structure, primitivity, root numbers.

The unit group (Z/qZ)* is decomposed into cyclic factors by CRT:

* odd prime powers p^a contribute one cyclic factor with a primitive root,
* q = 2m with m odd merges the trivial factor at 2 into the first odd one,
* 4 exactly contributes an order-2 factor generated by -1,
* 2^a with a >= 3 contributes two cyclic factors, both read mod 2^a and
  appended after the odd ones: the sign factor generated by -1 (order 2)
  and the factor generated by 5 (order 2^(a-2)).

A character is an exponent tuple, one entry per cyclic generator.  All
character values are exact rational phases (fractions of a turn), so parity,
conjugation and primitivity are exact integer computations; only the final
complex embedding e(phase) rounds, and it rounds outward into boxes.  Root
numbers and completion constants come from the Gauss sum in integer fixed
point, on the exact kernel's roots of unity (balls.fixed_unit_powers), each
side rounded outward to a double once (balls.fixed_quotient), and each
character's are kept on its group (CharGroup.char_meta).  Both samplers
certify primitive characters only, so char_meta is also where an index is
checked primitive: an imprimitive one raises NotPrimitive before any Gauss
sum runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product

import numpy as np

from .balls import fixed_quotient, fixed_unit_powers
from .errors import HypothesisViolated, NotPrimitive, QTooSmall
from .ivec import CVec

# the precision of the Gauss sums in integer fixed point: their unity
# tables carry guard bits above it (CharGroup._fixed_unity_tables), so
# tau is known to about 2^-GAUSS_BITS
GAUSS_BITS = 160


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization as (p, multiplicity) pairs, ascending."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            a = 0
            while n % d == 0:
                n //= d
                a += 1
            out.append((d, a))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


def euler_phi(n: int) -> int:
    out = 1
    for p, a in factorize(n):
        out *= (p - 1) * p ** (a - 1)
    return out


def _primitive_root(p: int, a: int) -> int:
    """Smallest primitive root mod p^a (p odd prime)."""
    phi_p = p - 1
    prime_divs = [f for f, _ in factorize(phi_p)]
    g = 2
    while True:
        if all(pow(g, phi_p // f, p) != 1 for f in prime_divs):
            break
        g += 1
    if a == 1:
        return g
    # g lifts to p^a unless g^(p-1) = 1 mod p^2
    if pow(g, phi_p, p * p) == 1:
        g += p
    return g


@dataclass(frozen=True)
class CyclicFactor:
    """One cyclic piece of (Z/qZ)*: modulus, its prime, generator, order, dlog table.

    prime is the p of the prime power p^a the factor comes from; a factor
    merged as 2 p^a records the odd p.  For 2^a with a >= 3 the unit group
    is <-1> x <5>, two factors that share the modulus 2^a; each dlog gives
    the exponent of its own generator.
    """

    prime_power: int
    prime: int
    generator: int
    order: int
    dlog: np.ndarray

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"C({self.prime_power}, g={self.generator}, ord={self.order})"


def _dlog_table(m: int, g: int, order: int) -> np.ndarray:
    tab = np.full(m, -1, dtype=np.int64)
    x = 1
    for e in range(order):
        if tab[x] != -1:
            raise ValueError(f"generator {g} has order below {order} mod {m}")
        tab[x] = e
        x = (x * g) % m
    if x != 1:
        raise ValueError(f"generator {g} order exceeds {order} mod {m}")
    return tab


def _two_power_factors(alpha: int) -> list[CyclicFactor]:
    """The sign factor <-1> and the factor <5> of (Z/2^alpha Z)*, alpha >= 3."""
    m = 1 << alpha
    half = 1 << (alpha - 2)
    sign = np.full(m, -1, dtype=np.int64)
    five = np.full(m, -1, dtype=np.int64)
    x = 1
    for e in range(half):
        sign[x], sign[m - x] = 0, 1
        five[x], five[m - x] = e, e
        x = (x * 5) % m
    return [CyclicFactor(m, 2, m - 1, 2, sign), CyclicFactor(m, 2, 5, half, five)]


@dataclass(frozen=True, slots=True)
class CharMeta:
    """Facts about one primitive character that the samplers consume.

    epsilon is the unimodular constant that multiplies the gamma-completed L
    value, a one-cell CVec; it is a square root of the conjugated root
    number, which is exactly the normalization that makes the completed
    function real on the critical line.  Either square root works (they
    differ by a global sign); char_meta takes the principal one unless the
    real part of the conjugated root number is certified negative, then i
    times the principal root of its negative.  Downstream assembly checks
    realness of every box a posteriori.  root_number is the root number
    itself, tau(chi)/(i^parity sqrt(q)), from the same Gauss sum.
    """

    parity: int
    epsilon: CVec
    root_number: CVec


class CharGroup:
    """Character group mod q with O(1) character evaluation tables."""

    def __init__(self, q: int):
        if q < 3:
            raise QTooSmall(f"need q >= 3, got {q}")
        self.q = q
        self.phi = euler_phi(q)
        facs = factorize(q)
        two_alpha = facs[0][1] if facs and facs[0][0] == 2 else 0
        odd = [(p, a) for p, a in facs if p != 2]

        factors: list[CyclicFactor] = []

        if two_alpha == 1:
            # merge the trivial factor at 2 into the first odd prime power
            p, a = odd[0]
            pp = p**a
            g = _primitive_root(p, a)
            if g % 2 == 0:
                g += pp
            m = 2 * pp
            factors.append(CyclicFactor(m, p, g % m, euler_phi(pp), _dlog_table(m, g % m, euler_phi(pp))))
            odd = odd[1:]
        elif two_alpha == 2:
            factors.append(CyclicFactor(4, 2, 3, 2, _dlog_table(4, 3, 2)))

        for p, a in odd:
            pp = p**a
            g = _primitive_root(p, a)
            factors.append(CyclicFactor(pp, p, g, euler_phi(pp), _dlog_table(pp, g, euler_phi(pp))))
        if two_alpha >= 3:
            factors += _two_power_factors(two_alpha)

        self.factors = factors
        self.orders: tuple[int, ...] = tuple(f.order for f in factors)
        check = 1
        for o in self.orders:
            check *= o
        if check != self.phi:
            raise HypothesisViolated(f"factor orders {self.orders} do not multiply to phi({q})")
        self.exponent = 1
        for o in self.orders:
            self.exponent = self.exponent * o // math.gcd(self.exponent, o)
        self._unity_tables = None
        self._canonical: dict = {}
        self._metas: dict = {}

    # -- indices ------------------------------------------------------------

    def all_indices(self):
        """Every character index (exponent tuple); phi(q) of them."""
        return product(*(range(o) for o in self.orders))

    def principal(self) -> tuple[int, ...]:
        return tuple(0 for _ in self.orders)

    def canonical(self, idx) -> tuple[int, ...]:
        """idx as a tuple of ints, one shared object per character.

        char_meta keys its kept metas and the sample grids name characters
        by this tuple, so the many grids a sweep keeps hold one tuple per
        character.  An index needs one entry per cyclic factor, entry k in
        0..orders[k] - 1; any other raises ValueError.
        """
        idx = tuple(int(v) for v in idx)
        out = self._canonical.get(idx)
        if out is None:
            if len(idx) != len(self.orders) or any(not 0 <= k < o for k, o in zip(idx, self.orders)):
                raise ValueError(
                    f"index {idx} mod {self.q}: need one entry per cyclic factor, "
                    f"each in 0..order-1 for the orders {self.orders}"
                )
            out = self._canonical[idx] = idx
        return out

    def conjugate(self, idx) -> tuple[int, ...]:
        return tuple((-k) % o for k, o in zip(idx, self.orders))

    # -- exact phase evaluation ----------------------------------------------

    def phase(self, idx, n: int) -> Fraction | None:
        """chi(n) = e(phase) as an exact fraction of a turn; None when gcd(n, q) > 1."""
        (c,), (ok,) = self.phase_numerators(idx, [n % self.q])
        return Fraction(int(c), self.exponent) if ok else None

    def phase_numerators(self, idx, ns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(c, ok) with chi(n) = e(c / exponent) for each n of ns where ok.

        ok is False where gcd(n, q) > 1 (chi vanishes there; c is 0).
        """
        ns = np.asarray(ns, dtype=np.int64)
        L = self.exponent
        c = np.zeros(ns.shape, dtype=np.int64)
        ok = np.ones(ns.shape, dtype=bool)
        for k, f in zip(idx, self.factors):
            e = f.dlog[np.mod(ns, f.prime_power)]
            ok &= e >= 0
            c += k * np.where(e >= 0, e, 0) * (L // f.order)
        c = np.where(ok, c % L, 0)
        return c, ok

    def _fixed_unity_tables(self):
        """Fixed-point e(a/q), a < q, and e(c/exponent), c < exponent.

        Returns (shift, q_table, exponent_table), each table the (re, im,
        rad) of balls.fixed_unit_powers at scale 2^-shift, re and im as
        object arrays, built on first use and kept.  The guard bits above
        GAUSS_BITS absorb the radius growth of the recurrences and of the
        phi(q)-term Gauss sum, both O(q^2) units of the last place.
        """
        if self._unity_tables is None:
            shift = GAUSS_BITS + 2 * self.q.bit_length() + 16
            tables = (fixed_unit_powers(n, shift) for n in (self.q, self.exponent))
            self._unity_tables = (shift,) + tuple(
                (np.array(x, dtype=object), np.array(y, dtype=object), r) for x, y, r in tables
            )
        return self._unity_tables

    # -- character attributes -----------------------------------------------

    def parity(self, idx) -> int:
        """0 for even characters, 1 for odd: (1 - chi(-1)) / 2."""
        ph = self.phase(idx, self.q - 1)
        if ph == 0:
            return 0
        if ph == Fraction(1, 2):
            return 1
        raise HypothesisViolated(f"chi(-1) phase {ph} is not 0 or 1/2")

    def is_primitive(self, idx) -> bool:
        """Conductor equals q, by the local rule at each prime power.

        At an odd p (or at 4): a degree-1 factor needs a nonzero exponent,
        a higher power needs an exponent coprime to p.  A merged 2*p^a factor
        means the 2-part of any conductor is 1, so nothing mod q is
        primitive.  At 2^a (a >= 3) the exponent of 5 must be odd, by the
        same coprime rule, and the sign factor allows any exponent.
        """
        for k, f in zip(idx, self.factors):
            if f.prime_power % 4 == 2:
                return False
            if f.prime_power >= 8 and f.generator == f.prime_power - 1:
                continue  # the sign factor <-1> of 2^a
            if f.prime_power == f.prime:
                if k == 0:
                    return False
            elif k % f.prime == 0:
                return False
        return True

    def primitive_indices(self):
        return [idx for idx in self.all_indices() if self.is_primitive(idx)]

    # -- Gauss sum and root number --------------------------------------------

    def _gauss_fixed(self, idx) -> tuple[int, int, int, int]:
        """tau(chi) = sum chi(a) e(a/q) over a mod q in integer fixed point.

        Returns (re, im, rad, scale): each part of tau lies within
        rad 2^-scale of (re + i im) 2^-scale.  Each term
        e(c_a/exponent) e(a/q) is the product of two fixed-point table
        entries at scale 2^-shift, so the sum is exact integer arithmetic
        at scale 2^-2shift with no transcendental per residue.  Its radius
        is phi(q) times the per-product bound

            |z_c z_a - e(c/L) e(a/q)| <= r_L (1 + r_q/2^shift) + r_q

        in units of 2^-shift, from |e(.)| = 1.
        """
        shift, (q_re, q_im, q_rad), (l_re, l_im, l_rad) = self._fixed_unity_tables()
        c, ok = self.phase_numerators(idx, np.arange(self.q))
        units = np.flatnonzero(ok)
        a_re, a_im = q_re[units], q_im[units]
        c_re, c_im = l_re[c[units]], l_im[c[units]]
        re = int(np.dot(c_re, a_re) - np.dot(c_im, a_im))
        im = int(np.dot(c_re, a_im) + np.dot(c_im, a_re))
        one = 1 << shift
        rad = len(units) * (l_rad * (one + q_rad) + q_rad * one)
        return re, im, rad, 2 * shift

    def _root_and_constant(self, idx, parity: int) -> tuple[CVec, CVec]:
        """The root number and the completion constant w (CharMeta.epsilon)
        of a primitive character of the given parity, as one-cell CVecs.

        Both come from _gauss_fixed's integers: with x + iy = tau/i^parity
        at scale 2^-scale (within 2 rad of tau/i^parity in modulus) and
        s <= sqrt(q) 2^scale < s + 1 (math.isqrt), the root number is
        root = (x + iy)/(sqrt(q) 2^scale), padded by 2 rad/s.  The |root|^2
        check is CVec.abs2.  w is the half-angle square root of
        conj(root): N/|N| for N = sqrt(q) + conj(tau/i^parity), or
        i N/|N| for N = sqrt(q) - conj(tau/i^parity) when Re root is
        certified negative, where N clears 0 by about sqrt(q).  At scale
        2^-scale N lies within 1 + 2 rad of the integer point c, and
        |N/|N| - c/|c|| <= 2 |N - c|/|c| for N != 0, so w is c/|c| padded
        by 2 (1 + 2 rad)/|c|, with isqrt bracketing |c|.  Each end of
        either cell is rounded outward to a double once
        (balls.fixed_quotient).
        """
        x, y, rad, scale = self._gauss_fixed(idx)
        if parity == 1:
            x, y = y, -x  # divide by i
        s = math.isqrt(self.q << 2 * scale)
        root = CVec.from_ends(fixed_quotient(x, y, s, 2 * rad, scale))
        abs2 = root.abs2()[0]
        if not abs2.lo <= 1.0 <= abs2.hi:
            raise HypothesisViolated(f"|root number|^2 = {abs2!r} misses 1 for index {idx} mod {self.q}")
        sign = -1 if root.re.hi[0] < 0.0 else 1
        cx, cy = s + sign * x, -sign * y
        w = CVec.from_ends(fixed_quotient(cx, cy, math.isqrt(cx * cx + cy * cy), 2 * (1 + 2 * rad), scale))
        return root, (w.mul_i() if sign == -1 else w)

    def char_meta(self, idx) -> CharMeta:
        """Parity, completion constant and root number of a primitive character.

        The index is checked first: ValueError for a malformed one
        (canonical), NotPrimitive naming q and the index for an imprimitive
        one, before any Gauss sum runs.  The completion constant is a
        unimodular w with w*w the conjugated root number: conjugating the
        completed value flips w to conj(w) and applies the functional
        equation, which costs one factor of the root number, and the two
        cancel exactly.  w comes from the exact Gauss sum in integer fixed
        point, narrowed to doubles once (_root_and_constant), so no
        big-float arithmetic runs here once the group's unity tables exist.

        The result is kept on the group, keyed by the canonical index, and
        every later call for the character returns the same object, so a
        character costs one Gauss sum (and one pair of unity tables per
        group) however many grids, ordinates or sweeps read it.  A kept
        character takes about 0.79 KB, its two one-cell CVecs, its
        canonical index and its dict entry included (tracemalloc, q = 1009).
        """
        idx = self.canonical(idx)
        meta = self._metas.get(idx)
        if meta is None:
            if not self.is_primitive(idx):
                raise NotPrimitive(f"index {idx} mod {self.q} is imprimitive")
            parity = self.parity(idx)
            root, w = self._root_and_constant(idx, parity)
            meta = self._metas[idx] = CharMeta(parity=parity, epsilon=w, root_number=root)
        return meta


@lru_cache(maxsize=64)
def char_group(q: int) -> CharGroup:
    return CharGroup(q)


def index_label(q: int, idx) -> str:
    """Certificate form of a character: q, then exponents, comma-separated."""
    return ",".join(str(v) for v in (q, *idx))


def parse_index_label(text: str) -> tuple[int, tuple[int, ...]]:
    parts = [int(v) for v in text.strip().split(",")]
    return parts[0], tuple(parts[1:])
