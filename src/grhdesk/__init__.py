"""Rigorous verification of the generalized Riemann hypothesis at desk scale.

Interval-certified samples of completed Dirichlet L-functions on the
critical line, for every primitive character of a modulus: a lattice and
group-DFT sampler for large moduli (sampler_largeq) and a dual-grid
theta/FFT sampler for small ones (sampler_smallq).  Every enclosure is
an outward-rounded interval array on doubles (ivec), read one cell at a
time as an interval.RealInterval or ComplexBox, and every transcendental
in it comes from one of two places: numpy's kernels on interval arrays
(ivec), or the exact kernel (balls), whose integer fixed-point balls
from a few big-float calls are rounded outward once: the Hurwitz powers,
q^(-s), the Gamma factor of the completion, small q's theta sums,
prefactors and recovery factors, the roots of unity and the root
numbers.  balls.log_gamma is the package's one log Gamma.  Locating
zeros from sign changes and certifying zero counts are not implemented
yet.
"""

__version__ = "0.1.0"

from .interval import ComplexBox, RealInterval

__all__ = [
    "ComplexBox",
    "RealInterval",
    "__version__",
]
