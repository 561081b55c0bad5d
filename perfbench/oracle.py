"""Independent mpmath values of the completed function, for spot checks.

The L-value is ``mpmath.dirichlet`` over the character table built from
``CharGroup.phase``; the root number is an mpmath Gauss sum; completion
uses ``mpmath.loggamma`` in the normalisation of
``sampler_largeq.lambda_box``:

    Lambda = eps (q/pi)^(it/2) Gamma((1/2 + a + it)/2) exp(pi|t|/4) L(1/2 + it)

with eps a square root of the conjugated root number.  Which square root
the package picks is its own choice, so a value is checked up to one sign
per character.
"""

from __future__ import annotations

import mpmath

DPS = 30


def completed_value(group, chi, t: float, dps: int = DPS) -> mpmath.mpc:
    """Lambda(chi, 1/2 + it) at `dps` digits, for the principal branch of eps."""
    q = group.q
    with mpmath.workdps(dps):
        table = []
        for n in range(q):
            ph = group.phase(chi, n)
            table.append(0 if ph is None else mpmath.expjpi(mpmath.mpf(2 * ph.numerator) / ph.denominator))
        parity = 0 if table[q - 1] == 1 else 1
        tau = mpmath.fsum(table[n] * mpmath.expjpi(mpmath.mpf(2 * n) / q) for n in range(1, q))
        root = tau / (mpmath.mpc(0, 1) ** parity * mpmath.sqrt(q))
        eps = mpmath.sqrt(mpmath.conj(root))
        t = mpmath.mpf(t)
        s = mpmath.mpc(mpmath.mpf(1) / 2, t)
        lval = mpmath.dirichlet(s, table)
        z = mpmath.mpc(mpmath.mpf(1 + 2 * parity) / 4, t / 2)
        arg = mpmath.loggamma(z) + mpmath.pi * abs(t) / 4 + mpmath.mpc(0, t / 2) * mpmath.log(q / mpmath.pi)
        return +(eps * mpmath.exp(arg) * lval)


def signs_inside(value: mpmath.mpc, lo: float, hi: float) -> set[int]:
    """The signs s in {+1, -1} with s * Re(value) inside [lo, hi].

    Raises ValueError when the oracle itself is not real, which would mean
    its normalisation is wrong rather than the enclosure.
    """
    scale = max(mpmath.mpf(1), abs(value))
    if abs(value.imag) > mpmath.mpf(10) ** (8 - DPS) * scale:
        raise ValueError(f"oracle value {value} is not real")
    re = value.real
    return {s for s in (1, -1) if lo <= s * re <= hi}
