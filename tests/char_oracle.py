"""Character values chi(n) one at a time, as hardware boxes: the test oracle.

eval_char embeds the exact phase of chi(n) (CharGroup.phase) with
unit_phase: cos and sin of 2 pi times the phase in mpmath.iv, rounded
outward to doubles.  The group DFT's character sums are checked against
sums of these values term by term in test_dft.py.
"""

from __future__ import annotations

from fractions import Fraction

from mpmath import iv

from grhdesk.characters import CharGroup
from grhdesk.interval import ComplexBox, RealInterval

from em_oracle import ends, ivprec


def unit_phase(fr: Fraction) -> ComplexBox:
    """e(fr) = exp(2 pi i fr) for an exact rational number of turns."""
    fr = fr % 1
    if fr.denominator == 1:
        return ComplexBox.one()
    if fr.denominator == 2:
        return -ComplexBox.one()
    if fr.denominator == 4:
        one = RealInterval.one()
        return ComplexBox(RealInterval.zero(), one if fr.numerator == 1 else -one)
    with ivprec(80):
        theta = iv.pi * (iv.mpf(2 * fr.numerator) / fr.denominator)
        return ComplexBox(RealInterval(*ends(iv.cos(theta))), RealInterval(*ends(iv.sin(theta))))


def eval_char(g: CharGroup, idx, n: int) -> ComplexBox:
    """chi(n) as a hardware box for the character idx of g; 0 when gcd(n, q) > 1."""
    ph = g.phase(idx, n)
    if ph is None:
        return ComplexBox.zero()
    return unit_phase(ph)
