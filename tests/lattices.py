"""Lattices for tests, built in memory: no cache file is read or written."""

from __future__ import annotations

from grhdesk import hurwitz


def lattice(t: float, D: int | None = None) -> hurwitz.HurwitzLattice:
    """The lattice build_lattice(t, D) returns, from one _build pass."""
    t = float(t)
    return hurwitz._build([t], hurwitz.lattice_size(t) if D is None else D)[0]
