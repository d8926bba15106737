"""Spectral representation of the interface curve.

The curve is stored as the Fourier coefficients a_k, |k| <= K, of the
perturbation X, so the physical curve is

    XX(s) = e^{is} + sum_k a_k e^{iks}.

The base circle e^{is} is never stored; it is added back on synthesis.
Coefficients follow the convention a_k = (1/2pi) integral X(s) e^{-iks} ds.
All operations are pure functions over immutable values; every transform
is one FFT of any even size M >= 2K+2.

half_kernel is the one (s, alpha) form of the half-angle kernel
e^{-i alpha/2} / (2 sin(alpha/2)) shared by y_tilde here, the boundary
integral in nonlin and the difference kernels in kernels; near_zero marks
the offsets where its removable singularity needs the limit form.
"""

import csv
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError


def _frozen(arr):
    arr = np.array(arr, dtype=complex)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class FourierCurve:
    """Perturbation coefficients a_k on k = -K..K plus a time stamp."""
    modes: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        m = _frozen(self.modes)
        if m.ndim != 1 or m.size % 2 == 0:
            raise ConfigError("modes must be a 1-d array of odd length (k = -K..K)")
        object.__setattr__(self, "modes", m)

    @property
    def K(self):
        return (self.modes.size - 1) // 2

    def mode(self, k):
        """Coefficient a_k (zero outside the stored range)."""
        if abs(k) > self.K:
            return 0.0 + 0.0j
        return complex(self.modes[self.K + k])

    def with_modes(self, modes, time=None):
        return FourierCurve(modes, self.time if time is None else time)


@dataclass(frozen=True)
class CurveSplit:
    """The split X = a0 + a1 e^{is} + Y; y_modes holds zeros at k = 0, 1."""
    a0: complex
    a1: complex
    y_modes: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "y_modes", _frozen(self.y_modes))

    @property
    def K(self):
        return (self.y_modes.size - 1) // 2


@dataclass(frozen=True)
class PhysicalGrid:
    """Samples of the full curve XX(s_j) at s_j = 2 pi j / M."""
    n_points: int
    samples: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "samples", _frozen(self.samples))

    @property
    def s(self):
        return 2.0 * np.pi * np.arange(self.n_points) / self.n_points


def wavenumbers(K):
    return np.arange(-K, K + 1)


def _dft_direct(values, K):
    """O(M^2) forward transform: the tests' oracle for the FFT path."""
    M = values.size
    j = np.arange(M)
    k = wavenumbers(K)
    return np.exp(-2j * np.pi * np.outer(k, j) / M) @ values / M


def fourier_samples(k, coeff, M):
    """sum_k coeff_k e^{iks} on the M-point grid s_j = 2 pi j / M.

    Scatters coeff into an M-point spectrum at k mod M and takes one
    inverse FFT; every spectral synthesis in the package goes through here.
    """
    spec = np.zeros(M, dtype=complex)
    spec[k % M] += coeff
    return np.fft.ifft(spec) * M


def _modes_to_grid(modes, M):
    """Evaluate sum a_k e^{iks_j} on the M-point grid."""
    return fourier_samples(wavenumbers((modes.size - 1) // 2), modes, M)


def _grid_to_modes(values, K):
    M = values.size
    return (np.fft.fft(values) / M)[wavenumbers(K) % M]


def _check_grid(M, K):
    if M % 2 != 0:
        raise ConfigError(f"grid size must be even, got {M}")
    if M < 2 * K + 2:
        raise ConfigError(f"grid size {M} too small for K={K} (need M >= 2K+2)")


def synthesize(curve, M):
    """Sample the full curve e^{is} + X on M equispaced points."""
    _check_grid(M, curve.K)
    s = 2.0 * np.pi * np.arange(M) / M
    return PhysicalGrid(M, np.exp(1j * s) + _modes_to_grid(curve.modes, M))


def analyze(grid, K, time=0.0):
    """Recover perturbation coefficients from samples of the full curve.

    Exact for band-limited input with M >= 2K+2.
    """
    _check_grid(grid.n_points, K)
    x = grid.samples - np.exp(1j * grid.s)
    return FourierCurve(_grid_to_modes(x, K), time)


def split(curve):
    """Extract (a0, a1, Y); reassemble() inverts it bit for bit."""
    y = np.array(curve.modes)
    K = curve.K
    a0 = complex(y[K])
    a1 = complex(y[K + 1]) if K >= 1 else 0.0 + 0.0j
    y[K] = 0.0
    if K >= 1:
        y[K + 1] = 0.0
    return CurveSplit(a0=a0, a1=a1, y_modes=y, time=curve.time)


def reassemble(sp):
    m = np.array(sp.y_modes)
    m[sp.K] = sp.a0
    if sp.K >= 1:
        m[sp.K + 1] = sp.a1
    return FourierCurve(m, sp.time)


def derivative(curve):
    """Coefficients of X': i k a_k.  The full curve derivative adds i e^{is}."""
    return 1j * wavenumbers(curve.K) * curve.modes


def eval_y(curve, s, order=0):
    """Pointwise Y or its derivative: modes 0 and 1 excluded."""
    s = np.asarray(s, dtype=float)
    K = curve.K
    k = wavenumbers(K)
    coeff = np.array(curve.modes)
    coeff[K] = 0.0
    if K >= 1:
        coeff[K + 1] = 0.0
    if order:
        coeff = coeff * (1j * k) ** order
    return np.exp(1j * np.multiply.outer(s, k)) @ coeff


def half_kernel(alpha):
    """The half-angle kernel e^{-i alpha/2} / (2 sin(alpha/2)).

    Callers keep alpha off the zero set 2 pi Z (see near_zero).
    """
    return np.exp(-0.5j * alpha) / (2.0 * np.sin(alpha / 2.0))


def near_zero(alpha):
    """Mask of the offsets within 1e-8 of 2 pi Z, where half_kernel is singular."""
    return np.abs(np.remainder(alpha + np.pi, 2.0 * np.pi) - np.pi) < 1e-8


def y_tilde(curve, s, alpha):
    """Regularized difference quotient of the Y part of the curve,

        e^{-is} e^{-i alpha/2} (Y(s - alpha) - Y(s)) / (2 sin(alpha/2)),

    continuous across alpha = 0 where it tends to -e^{-is} Y'(s).
    Broadcasts over array-valued s and alpha.
    """
    s = np.asarray(s, dtype=float)
    alpha = np.asarray(alpha, dtype=float)
    s, alpha = np.broadcast_arrays(s, alpha)
    small = near_zero(alpha)
    safe_alpha = np.where(small, 1.0, alpha)
    ys = eval_y(curve, s)
    ysa = eval_y(curve, s - safe_alpha)
    main = np.exp(-1j * s) * half_kernel(safe_alpha) * (ysa - ys)
    limit = -np.exp(-1j * s) * eval_y(curve, s, order=1)
    out = np.where(small, limit, main)
    return complex(out) if out.ndim == 0 else out


def to_json_dict(curve):
    """Snapshot schema: {"time": t, "K": K, "modes": [[re, im], ...]} for k=-K..K."""
    return {
        "time": float(curve.time),
        "K": int(curve.K),
        "modes": [[float(c.real), float(c.imag)] for c in curve.modes],
    }


def from_json_dict(d):
    modes = np.array([complex(re, im) for re, im in d["modes"]])
    if modes.size != 2 * int(d["K"]) + 1:
        raise ConfigError("snapshot modes length inconsistent with K")
    return FourierCurve(modes, float(d["time"]))


def grid_to_csv(grid, path):
    """Write physical samples as rows (s, Re XX, Im XX)."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["s", "re_x", "im_x"])
        for sj, xj in zip(grid.s, grid.samples):
            w.writerow([repr(float(sj)), repr(float(xj.real)), repr(float(xj.imag))])
