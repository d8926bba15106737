"""Spectral representation of the interface curve.

The curve is stored as the Fourier coefficients a_k, |k| <= K, of the
perturbation X, so the physical curve is

    XX(s) = e^{is} + sum_k a_k e^{iks}.

The base circle e^{is} is never stored.
Coefficients follow the convention a_k = (1/2pi) integral X(s) e^{-iks} ds.
All operations are pure functions over immutable values; the grid
transforms of the perturbation are one FFT each (fourier_samples to any
M-point grid, _grid_to_modes back), and every pointwise Fourier sum is one
fourier_eval.

half_kernel is the one (s, alpha) form of the half-angle kernel
e^{-i alpha/2} / (2 sin(alpha/2)) shared by this module, the boundary
integral in nonlin and the difference kernels in kernels; near_zero marks
the offsets where its removable singularity needs the limit form, and
difference_quotient is the one quotient built on it, for Y~ here and for
L_n in kernels.

thread_scratch holds the tiles of nonlin and the lattice chunks of kernels.
"""

import threading
from dataclasses import dataclass
from functools import partial

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


@dataclass(frozen=True)
class CurveSplit:
    """The split X = a0 + a1 e^{is} + Y; y_modes holds zeros at k = 0, 1."""
    a0: complex
    a1: complex
    y_modes: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "y_modes", _frozen(self.y_modes))


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
    coeff may be a stack (..., k.size): each row is transformed on its own,
    bit for bit as a 1-d call.
    """
    spec = np.zeros(np.shape(coeff)[:-1] + (M,), dtype=complex)
    spec.T[k % M] += coeff.T     # the last axis; an Ellipsis index is twice as slow
    return np.fft.ifft(spec) * M


_scratch = threading.local()


def thread_scratch(size):
    """The calling thread's scratch buffer: a complex array of at least size elements.

    It grows to the thread's largest request, never shrinks, and is freed
    when the thread exits.  Every request reuses the same memory: callers
    carve typed views from it in element units, all before a scan starts.
    """
    buf = getattr(_scratch, "buffer", None)
    if buf is None or buf.size < size:
        buf = _scratch.buffer = np.empty(size, dtype=complex)
    return buf


def _grid_to_modes(values, K):
    """Modes k = -K..K of grid values (..., M), row by row."""
    M = values.shape[-1]
    return (np.fft.fft(values) / M).take(wavenumbers(K) % M, axis=-1)


def split(curve):
    """Extract (a0, a1, Y): the modes k = 0 and 1, and the rest with those two zeroed."""
    y = np.array(curve.modes)
    K = curve.K
    a0 = complex(y[K])
    a1 = complex(y[K + 1]) if K >= 1 else 0.0 + 0.0j
    y[K] = 0.0
    if K >= 1:
        y[K + 1] = 0.0
    return CurveSplit(a0=a0, a1=a1, y_modes=y)


def derivative(curve):
    """Coefficients of X': i k a_k.  The full curve derivative adds i e^{is}."""
    return 1j * wavenumbers(curve.K) * curve.modes


def fourier_eval(k, coeff, s, order=0):
    """Direct sum of coeff_k (ik)^order e^{iks} at arbitrary points s (O(|s| |k|)).

    The one pointwise evaluator: eval_y and kernels.psi_n are thin calls.
    """
    s = np.asarray(s, dtype=float)
    coeff = coeff * (1j * k) ** order if order else coeff
    out = np.exp(1j * np.multiply.outer(s, k)) @ np.asarray(coeff, dtype=complex)
    return complex(out) if out.ndim == 0 else out


def eval_y(curve, s, order=0):
    """Pointwise Y or its derivative: modes 0 and 1 excluded."""
    return fourier_eval(wavenumbers(curve.K), split(curve).y_modes, s, order)


def half_kernel(alpha):
    """The half-angle kernel e^{-i alpha/2} / (2 sin(alpha/2)).

    Callers keep alpha off the zero set 2 pi Z (see near_zero).
    """
    return np.exp(-0.5j * alpha) / (2.0 * np.sin(alpha / 2.0))


def near_zero(alpha):
    """Mask of the offsets within 1e-8 of 2 pi Z, where half_kernel is singular."""
    return np.abs(np.remainder(alpha + np.pi, 2.0 * np.pi) - np.pi) < 1e-8


def difference_quotient(f, s, alpha):
    """The half-angle difference quotient half_kernel(alpha) (f(s) - f(s - alpha)).

    f(s, order) evaluates a Fourier sum or its derivative.  Where
    near_zero(alpha) the removable singularity is crossed with the limit
    f'(s) e^{-i alpha/2}, first order in alpha.  Broadcasts over s and alpha.
    """
    s, alpha = np.broadcast_arrays(np.asarray(s, dtype=float), np.asarray(alpha, dtype=float))
    small = near_zero(alpha)
    safe = np.where(small, 1.0, alpha)
    main = half_kernel(safe) * (f(s) - f(s - safe))
    limit = f(s, order=1) * np.exp(-1j * alpha / 2.0)
    out = np.where(small, limit, main)
    return complex(out) if out.ndim == 0 else out


def y_tilde(curve, s, alpha):
    """Regularized difference quotient of the Y part of the curve,

        e^{-is} e^{-i alpha/2} (Y(s - alpha) - Y(s)) / (2 sin(alpha/2)),

    that is -e^{-is} difference_quotient(Y): continuous across alpha = 0,
    where it tends to -e^{-is} Y'(s).  Broadcasts over array-valued s and alpha.
    """
    s = np.asarray(s, dtype=float)
    out = -np.exp(-1j * s) * difference_quotient(partial(eval_y, curve), s, alpha)
    return complex(out) if out.ndim == 0 else out


def to_json_dict(curve):
    """Snapshot schema: {"time": t, "K": K, "modes": [[re, im], ...]} for k=-K..K."""
    return {
        "time": float(curve.time),
        "K": int(curve.K),
        "modes": curve.modes.view(float).reshape(-1, 2).tolist(),
    }


def from_json_dict(d):
    modes = np.array([complex(re, im) for re, im in d["modes"]])
    time = float(d["time"])
    if modes.size != 2 * int(d["K"]) + 1 or not np.all(np.isfinite([*modes, time])):
        raise ConfigError("snapshot modes length inconsistent with K, or a non-finite value")
    return FourierCurve(modes, time)
