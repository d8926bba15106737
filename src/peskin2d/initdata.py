"""Generators for initial perturbations in the small-data regime.

All generators emit a FourierCurve whose a0 and a1 components vanish
(the perturbation lives entirely in Y) unless a steady-state component
is requested explicitly.  Corners are realized as radial tent bumps:
the tent spectrum is known in closed form and decays like 1/k^2, which
is exactly the dyadic block signature of a Lipschitz corner (block
profile 2^{3n/2} |P_n Y| bounded but not decaying in n).
"""

from dataclasses import dataclass, field

import numpy as np

from . import norms
from .curve import FourierCurve, split, wavenumbers
from .draws import Philox
from .errors import REQUIRED, ConfigError, GeometryError, read_config
from .nonlin import CHORD_ARC_MIN, chord_arc_ratio

# largest real or imaginary part of an initial mode: at K = 2048 the squares of
# the chord-arc check can overflow past about 4e146, those of l2_norm past 1.5e152
MODE_MAX = 1e100


def tent_hat(j, width):
    """Fourier coefficients of the periodic unit tent max(0, 1 - |s|/width).

    hat(0) = width/(2 pi); hat(j) = 2 sin^2(j width/2) / (pi j^2 width).
    """
    j = np.asarray(j, dtype=float)
    out = np.empty_like(j)
    nz = j != 0
    out[nz] = 2.0 * np.sin(j[nz] * width / 2.0) ** 2 / (np.pi * j[nz] ** 2 * width)
    out[~nz] = width / (2.0 * np.pi)
    return out


def make_single_mode(K, k, amplitude, allow_steady=False):
    """Single-coefficient data a_k = amplitude."""
    if abs(k) > K:
        raise ConfigError(f"mode {k} outside truncation K={K}")
    if k in (0, 1) and not allow_steady:
        raise ConfigError("modes 0 and 1 parametrize steady circles; "
                          "set allow_steady=True to generate them")
    modes = np.zeros(2 * K + 1, dtype=complex)
    modes[K + k] = amplitude
    return FourierCurve(modes)


def _corner_modes(K, positions, strengths, width):
    """Raw (uncalibrated) coefficients of e^{is} sum strengths tent(s - p)."""
    k = wavenumbers(K)
    j = k - 1
    modes = np.zeros(2 * K + 1, dtype=complex)
    for p, w in zip(positions, strengths):
        modes += w * tent_hat(j, width) * np.exp(-1j * j * p)
    modes[K + 0] = 0.0
    modes[K + 1] = 0.0
    return modes


def make_corner(K, positions, strengths, amplitude, width=1.0):
    """Corner-bearing perturbation from radial tents at the given angles.

    The tent shape is self-calibrated: a single unit-strength tent is
    normalized by its own s-norm (computed from the closed-form
    spectrum at this K), so a one-tent call returns data with s-norm
    exactly equal to amplitude and multi-tent data lands within the
    triangle-inequality factor of it.  Halving amplitude halves every
    norm exactly.  Returns the curve; corner_report describes it.
    """
    positions = np.atleast_1d(np.asarray(positions, dtype=float))
    strengths = np.atleast_1d(np.asarray(strengths, dtype=float))
    if positions.size != strengths.size:
        raise ConfigError("positions and strengths must have equal length")
    # sorted, equal positions are neighbours (np.unique would import numpy.ma);
    # like np.unique, two NaNs count as equal
    ring = np.sort(np.round(positions % (2 * np.pi), 12), axis=None)
    if np.any(ring[1:] == ring[:-1]) or np.count_nonzero(np.isnan(ring)) > 1:
        raise ConfigError("tent positions must be distinct")
    if not (0 < width <= np.pi):
        raise ConfigError("tent width must lie in (0, pi]")

    unit = _corner_modes(K, [0.0], [1.0], width)
    scale = norms.s_norm(unit)
    with np.errstate(over="ignore", invalid="ignore"):  # _require_size rejects an overflow
        modes = amplitude / scale * _corner_modes(K, positions, strengths, width)
    curve = FourierCurve(modes)
    _require_size(curve.modes, "corner data")
    _require_chord_arc(curve)
    return curve


def corner_report(K, positions, strengths, amplitude, width=1.0):
    """s-norm and Wiener snapshot at t = 0 of make_corner's data, and its tail.

    tail_w_estimate is the coefficient tail beyond K.  The Wiener tail of
    tent data decays like 1/|k| and so grows with the truncation horizon;
    the estimate makes that visible instead of hiding it.  It sums 2^20
    terms, so it is computed only on request, never in a run.
    """
    modes = make_corner(K, positions, strengths, amplitude, width).modes
    scale = norms.s_norm(_corner_modes(K, [0.0], [1.0], width))
    return {
        "s_norm": norms.s_norm(modes),
        "w_norm": norms.wiener_snapshot(modes, 0.0),
        "tail_w_estimate": _tent_tail_w(K, strengths, width, abs(amplitude) / scale),
    }


def _tent_tail_w(K, strengths, width, scale):
    """Closed-form estimate of sum_{|k| > K} |a_k| |k| up to the horizon |k| = 2^20.

    For tent spectra the summand behaves like 1/|k|, so the full tail
    diverges logarithmically; the finite-horizon value quantifies the
    truncation honestly for comparison against the retained Wiener mass.
    """
    j = np.arange(K, 2 ** 20, dtype=float)
    # |k| ~ j+1 on the positive side, j-1 on the negative; bound both by closed form
    env = 2.0 * np.sin(j * width / 2.0) ** 2 / (np.pi * j ** 2 * width)
    per_tent = float(np.sum(env * (j + 1.0)) + np.sum(env * np.maximum(j - 1.0, 0.0)))
    return scale * float(np.sum(np.abs(strengths))) * per_tent


def make_polygonal(K, vertices, amplitude):
    """Regular polygon-like data: equal tents at the vertex angles, touching widths."""
    if vertices < 2:
        raise ConfigError("polygonal data needs at least 2 vertices")
    positions = 2.0 * np.pi * np.arange(vertices) / vertices
    return make_corner(K, positions, np.ones(vertices), amplitude,
                       width=np.pi / vertices)


def make_random_decay(K, exponent, seed, amplitude):
    """Random-phase data a_k = amplitude zeta_k |k|^{-exponent}, k not in {0, 1}.

    zeta_k = e^{i theta_k}, theta_k drawn in k order from Philox4x64-10 keyed
    by SeedSequence(seed): the values of numpy's Generator(Philox(seed))
    .uniform(0, 2 pi), so the output is a pure function of (K, exponent,
    seed, amplitude).
    """
    if exponent <= 1:
        raise ConfigError("decay exponent must exceed 1")
    rng = Philox(seed)
    k = wavenumbers(K)
    theta = np.array([rng.uniform(0.0, 2.0 * np.pi) for _ in range(k.size)])
    mag = np.zeros(k.size)
    nz = k != 0
    mag[nz] = np.abs(k[nz]).astype(float) ** (-float(exponent))
    with np.errstate(over="ignore", invalid="ignore"):  # InitialDataSpec.make rejects it
        modes = amplitude * np.exp(1j * theta) * mag
    modes[K + 0] = 0.0
    if K >= 1:
        modes[K + 1] = 0.0
    return FourierCurve(modes)


def rescale_to_norm(curve, norm_name, value):
    """Scale all modes so the named norm ('s' or 'w') equals value exactly.

    Both norms are positively homogeneous, so the rescale is exact and
    idempotent up to roundoff.  The modes are first scaled by the power of
    two that brings max |a_k| into [1/2, 1), which changes no rounding and
    keeps |a_k|^2 from underflowing at any amplitude.  A value that needs a
    factor past MODE_MAX on those modes is a ConfigError.
    """
    exponent = np.frexp(np.abs(curve.modes).max())[1]
    modes = np.ldexp(curve.modes.view(float), -exponent).view(complex)
    if norm_name == "s":
        current = norms.s_norm(modes)
    elif norm_name == "w":
        current = norms.wiener_snapshot(modes, 0.0)
    else:
        raise ConfigError(f"unknown target norm {norm_name!r} (use 's' or 'w')")
    if current == 0.0:
        raise ConfigError("cannot rescale identically zero data")
    if value / current > MODE_MAX:   # a Python float: an overflow is a quiet inf
        raise ConfigError(f"target {norm_name}-norm {value:g} needs modes past {MODE_MAX:g}")
    return FourierCurve(modes * (value / current), curve.time)


def _require_size(modes, what):
    """Reject modes with a real or imaginary part past MODE_MAX, inf included.

    A NaN part passes here: it overflows nothing, and InitialDataSpec.make
    rejects every non-finite mode.
    """
    largest = np.fmax.reduce(np.abs(modes.view(float)), initial=0.0)
    if largest > MODE_MAX:
        raise ConfigError(f"{what} has a mode part of size {largest:.3g}, "
                          f"past the initial-data bound {MODE_MAX:g}")


def _require_chord_arc(curve):
    """Reject curves whose sampled chord-arc ratio drops below the threshold."""
    ratio = chord_arc_ratio(curve)
    if ratio <= CHORD_ARC_MIN:
        raise GeometryError(
            f"generated curve fails the chord-arc check: min ratio {ratio:.4g}")


# the keys of each kind are the arguments of make_<kind> after K, and target_norm
_SPEC_SCHEMAS = {kind: {**keys, "target_norm": ("target", None)} for kind, keys in {
    "single_mode": {"k": ("int", REQUIRED), "amplitude": ("amplitude", 1e-3),
                    "allow_steady": ("bool", False)},
    "random_decay": {"exponent": ("real", 2.0), "seed": ("int", 0, (0, None)),
                     "amplitude": ("amplitude", 1e-3)},
    "corner": {"positions": ("reals", REQUIRED), "strengths": ("reals", REQUIRED),
               "amplitude": ("amplitude", 1e-2), "width": ("real", 1.0)},
    "polygonal": {"vertices": ("int", REQUIRED, (None, 2048)),
                  "amplitude": ("amplitude", 1e-2)},
}.items()}


@dataclass(frozen=True)
class InitialDataSpec:
    """Declarative description of initial data, JSON-mappable.

    kind: single_mode | random_decay | corner | polygonal
    params: arguments of make_<kind> after K
    target_norm: optional (name, value) rescale applied after generation
    """
    kind: str
    params: dict = field(default_factory=dict)
    target_norm: tuple = None

    @staticmethod
    def from_dict(d):
        params = read_config(d, _SPEC_SCHEMAS, "initial data", dispatch="kind")
        kind, target = params.pop("kind"), params.pop("target_norm")
        return InitialDataSpec(kind=kind, params=params, target_norm=target)

    def make(self, K):
        """Generate the curve at truncation K (corner data: corner_report describes it)."""
        # looked up per call, so a replaced make_<kind> takes effect
        curve = globals()[f"make_{self.kind}"](K, **self.params)
        _require_size(curve.modes, f"initial data {self.kind!r}")
        if self.target_norm is not None:   # keeps the modes within MODE_MAX
            curve = rescale_to_norm(curve, *self.target_norm)
        if not np.all(np.isfinite(curve.modes)):
            raise ConfigError(f"initial data {self.kind!r} has non-finite modes")
        sp = split(curve)
        if not self.params.get("allow_steady", False) and (sp.a0 != 0 or sp.a1 != 0):
            raise ConfigError(f"initial data {self.kind!r} has steady modes "
                              f"a0 = {sp.a0}, a1 = {sp.a1}; both must be 0")
        return curve
