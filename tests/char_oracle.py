"""Character values chi(n) one at a time, in mpmath.iv: the test oracle.

eval_char embeds the exact phase of chi(n) (CharGroup.phase) with
unit_phase: the exact points 1, i, -1 and -i at quarter turns, else cos
and sin of 2 pi times the phase in mpmath.iv at 80 bits.  The group
DFT's character sums are checked against sums of these values term by
term in test_dft.py.
"""

from __future__ import annotations

from fractions import Fraction

from mpmath import iv

from grhdesk.characters import CharGroup

from em_oracle import ivprec

_QUARTERS = ((1, 0), (0, 1), (-1, 0), (0, -1))


def unit_phase(fr: Fraction) -> iv.mpc:
    """e(fr) = exp(2 pi i fr) for an exact rational number of turns."""
    fr = fr % 1
    if (4 * fr).denominator == 1:
        return iv.mpc(*_QUARTERS[int(4 * fr)])
    with ivprec(80):
        theta = iv.pi * (iv.mpf(2 * fr.numerator) / fr.denominator)
        return iv.mpc(iv.cos(theta), iv.sin(theta))


def eval_char(g: CharGroup, idx, n: int) -> iv.mpc:
    """chi(n) in mpmath.iv for the character idx of g; 0 when gcd(n, q) > 1."""
    ph = g.phase(idx, n)
    if ph is None:
        return iv.mpc(0, 0)
    return unit_phase(ph)
