"""Character values chi(n) one at a time, as hardware boxes: the test oracle.

eval_char embeds the exact phase of chi(n) (CharGroup.phase) with
unit_phase, one scalar outward-rounded cos and sin of 2 pi times the
phase.  The group DFT's character sums are checked against sums of these
values term by term in test_dft.py.
"""

from __future__ import annotations

from fractions import Fraction

from grhdesk.characters import CharGroup
from grhdesk.interval import ComplexBox, RealInterval, _cos_sin, pi_interval


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
    theta = pi_interval() * RealInterval.from_fraction(2 * fr)
    return ComplexBox(*_cos_sin(theta))


def eval_char(g: CharGroup, idx, n: int) -> ComplexBox:
    """chi(n) as a hardware box for the character idx of g; 0 when gcd(n, q) > 1."""
    ph = g.phase(idx, n)
    if ph is None:
        return ComplexBox.zero()
    return unit_phase(ph)
