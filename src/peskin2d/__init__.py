"""Spectral boundary-integral simulator for an elastic interface in 2D Stokes flow.

The package evolves a closed elastic filament whose velocity is a
singular boundary integral over the curve itself, with a general
monotone tension law.  Small perturbations of the unit circle,
including corner-bearing data, relax exponentially to a translated
circle; the modules expose the linearized spectrum, the exact
exponential mode propagators, the singular-kernel identities, and the
dyadic norm diagnostics that quantify all of this.
"""

__version__ = "0.1.0"

from .curve import FourierCurve, split
from .errors import (ConfigError, GeometryError, IllConditioned,
                     InsufficientDecay, PeskinError, StepRejected,
                     TensionDomainError)
from .initdata import corner_report, make_corner, make_single_mode, rescale_to_norm
from .integrator import RunConfig, Trajectory, iter_run, run
from .kernels import ik_exact, jk_exact, pv_quadrature_ik, pv_quadrature_jk
from .linear import build_pair_system, spectrum_report
from .tension import TensionLaw, cubic, hookean, linear_coefficients, power
