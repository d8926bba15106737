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

from .curve import (CurveSplit, FourierCurve, PhysicalGrid, analyze,
                    derivative, eval_y, from_json_dict, grid_to_csv,
                    reassemble, split, synthesize, to_json_dict, y_tilde)
from .errors import (ConfigError, GeometryError, IllConditioned,
                     InsufficientDecay, PeskinError, StepRejected,
                     TensionDomainError)
from .initdata import (InitialDataSpec, corner_report, make_corner,
                       make_polygonal, make_random_decay, make_single_mode,
                       rescale_to_norm)
from .integrator import (RunConfig, Trajectory, default_dt, fit_decay, iter_run,
                         run, step)
from .kernels import (fit_kernel_bounds, ik_exact, jk_exact, l_kernel,
                      l_tilde_kernel, phi_weight, psi_n, pv_quadrature_ik,
                      pv_quadrature_jk)
from .linear import ModePairSystem, build_pair_system, spectrum_report
from .nonlin import (NonlinearityEvaluation, chord_arc_ratio,
                     eval_nonlinearity, eval_residual, linear_mode_rhs)
from .norms import (DyadicDecomposition, NormReport, decompose, l2_norm,
                    linf_norm, lp_project, n_norm, norm_report, s_norm,
                    wiener_snapshot, z1_algebra_check, z1_weight, z2_weight)
from .tension import (LinearCoefficients, TensionLaw, cubic, hookean,
                      law_from_config, linear_coefficients, power, small_t,
                      small_t_prime)
