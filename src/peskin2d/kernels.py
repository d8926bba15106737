"""Torus kernels, their exact Fourier identities, and dyadic bumps.

Two exact mode integrals anchor all singular quadrature in the package:
for the half-angle kernel e^{-i a/2} / (2 sin(a/2)),

    ik_exact(k) = -i/2 for k >= 0,  +i/2 for k <= -1,

and for the squared kernel (e^{-ika} - 1) / (4 sin^2(a/2)),

    jk_exact(k) = -|k| / 2.

The alternating-point (midpoint) trapezoidal rule reproduces both to
machine precision because its nodes are symmetric about the singularity;
the package evaluates the symmetric pair sum in closed form so the odd
part of the integrand cancels exactly in floating point as well.

Dyadic frequency bumps phi_n localize to |k| in [2^{n-1}, 2^{n+1}] and
form a partition of unity on |k| >= 1.  The localized convolution
kernels psi_n and the difference kernels L_n, L~_n built from them obey
scale-explicit L^1 bounds that are checked numerically as fitted
constants rather than proved.
"""

from functools import lru_cache

import numpy as np

from .curve import fourier_samples
from .errors import ConfigError

# ---------------------------------------------------------------------------
# dyadic bumps


def smooth_step(x):
    """C-infinity step: 0 for x <= 0, 1 for x >= 1, exp(-1/x) glue between."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    out[x >= 1.0] = 1.0
    mid = (x > 0.0) & (x < 1.0)
    if np.any(mid):
        xm = x[mid]
        q = np.exp(-1.0 / xm)
        q1 = np.exp(-1.0 / (1.0 - xm))
        out[mid] = q / (q + q1)
    return out if out.ndim else float(out)


def bump_low(xi):
    """Mother low-pass bump: 1 on [-1, 1], supported in [-2, 2]."""
    return smooth_step(2.0 - np.abs(np.asarray(xi, dtype=float)))


def phi_weight(n, k):
    """Annulus bump phi_n(k) = phi_0(k / 2^n), supported on |k| in [2^{n-1}, 2^{n+1}]."""
    k = np.asarray(k, dtype=float)
    return bump_low(k / 2.0 ** n) - bump_low(k / 2.0 ** (n - 1))


def phi_cumulative(n, k):
    """Low-pass sum of phi_0..phi_n: equals 1 on 1 <= |k| <= 2^n, kills k = 0."""
    k = np.asarray(k, dtype=float)
    return bump_low(k / 2.0 ** n) - bump_low(2.0 * k)


# ---------------------------------------------------------------------------
# exact identities and principal-value quadrature


def ik_exact(k):
    """Mode integral of the half-angle kernel: -(i/2) for k >= 0, +(i/2) for k <= -1."""
    return -0.5j if k >= 0 else 0.5j


def jk_exact(k):
    """Mode integral of the squared difference kernel: -|k|/2."""
    return -abs(k) / 2.0


def _check_pv_grid(k, M):
    if M % 2 != 0:
        raise ConfigError(f"quadrature size must be even, got {M}")
    if M < 8 * abs(k) + 8:
        raise ConfigError(f"quadrature size {M} too small for mode {k} (need >= {8 * abs(k) + 8})")


def pv_quadrature_ik(k, M):
    """Midpoint-rule principal value of e^{-i(k+1/2)a} / (2 sin(a/2)) over the torus.

    Nodes are the odd multiples of pi/M; the symmetric pair f(a) + f(-a)
    is summed in its cancellation-free closed form -i sin((k+1/2)a)/sin(a/2).
    """
    _check_pv_grid(k, M)
    a = (2.0 * np.arange(M // 2) + 1.0) * np.pi / M
    pair = -1j * np.sin((k + 0.5) * a) / np.sin(a / 2.0)
    return complex(pair.sum() / M)


def pv_quadrature_jk(k, M):
    """Midpoint-rule principal value of (e^{-ika} - 1) / (4 sin^2(a/2)).

    Pair sum in closed form: -sin^2(ka/2) / sin^2(a/2), a trigonometric
    polynomial, so the rule is exact up to roundoff once M > 2|k|.
    """
    _check_pv_grid(k, M)
    a = (2.0 * np.arange(M // 2) + 1.0) * np.pi / M
    pair = -np.sin(k * a / 2.0) ** 2 / np.sin(a / 2.0) ** 2
    return complex(pair.sum() / M)


# ---------------------------------------------------------------------------
# localized convolution kernels


@lru_cache(maxsize=64)
def _psi_support(n):
    """Frequencies and weights of psi_n: hat(psi_n)(k) = phi_{n+2}(k), zero at k = 1."""
    kmax = 2 ** (n + 3)
    k = np.arange(-kmax, kmax + 1)
    w = phi_weight(n + 2, k)
    w[k == 1] = 0.0  # excluded mode; vacuous here since phi_{n+2}(1) = 0
    keep = w != 0.0
    k, w = k[keep], w[keep]
    k.flags.writeable = False
    w.flags.writeable = False
    return k, w


def psi_n(n, s, order=0):
    """The block-n kernel psi_n(s) (or its order-th derivative) as a finite Fourier sum."""
    if n < 0:
        raise ConfigError("block index must be >= 0")
    k, w = _psi_support(n)
    s = np.asarray(s, dtype=float)
    coeff = w * (1j * k) ** order if order else w
    out = np.exp(1j * np.multiply.outer(s, k)) @ coeff.astype(complex)
    return complex(out) if out.ndim == 0 else out


def psi_cumulative(n, s):
    """Low-pass kernel with hat = phi_cumulative(n+2, k), modes {0, 1} removed."""
    kmax = 2 ** (n + 3)
    k = np.arange(-kmax, kmax + 1)
    w = phi_cumulative(n + 2, k)
    w[(k == 0) | (k == 1)] = 0.0
    s = np.asarray(s, dtype=float)
    out = np.exp(1j * np.multiply.outer(s, k)) @ w.astype(complex)
    return complex(out) if out.ndim == 0 else out


_L_SMALL = 1e-8


def _half_kernel(alpha):
    """e^{-i alpha/2} / (2 sin(alpha/2)); caller keeps alpha off the zero set."""
    return np.exp(-1j * alpha / 2.0) / (2.0 * np.sin(alpha / 2.0))


def l_kernel(n, s, alpha):
    """Difference kernel L_n(s, alpha) = half_kernel(alpha) (psi_n(s) - psi_n(s - alpha)).

    For |alpha| below 1e-8 the removable singularity is crossed with the
    limit psi_n'(s) carried to first order in alpha.
    """
    s = np.asarray(s, dtype=float)
    alpha = np.asarray(alpha, dtype=float)
    s, alpha = np.broadcast_arrays(s, alpha)
    small = np.abs(np.remainder(alpha + np.pi, 2.0 * np.pi) - np.pi) < _L_SMALL
    safe = np.where(small, 1.0, alpha)
    main = _half_kernel(safe) * (psi_n(n, s) - psi_n(n, s - safe))
    limit = psi_n(n, s, order=1) * np.exp(-1j * alpha / 2.0)
    out = np.where(small, limit, main)
    return complex(out) if out.ndim == 0 else out


def l_kernel_lowpass(n, s, alpha):
    """Cumulative counterpart of l_kernel built from psi_cumulative."""
    return _half_kernel(alpha) * (psi_cumulative(n, s) - psi_cumulative(n, s - alpha))


def l_tilde_kernel(n, s, alpha, min_form="clamped"):
    """Modified kernel subtracting the first-order part of L_n.

    The correction factor multiplying psi_n'(s) is

        half_kernel(alpha) * sgn(alpha) * min(|alpha|, 2^{-n})   ["clamped"]
        half_kernel(alpha) * min(2^{-n}, alpha)                  ["literal"]

    The two coincide for alpha > 0.  The clamped form is the one whose
    L^1 size obeys min(2^{2n} |alpha|, 1/|alpha|) on both signs of alpha;
    the literal signed form is kept for reporting.
    """
    if min_form not in ("clamped", "literal"):
        raise ConfigError(f"unknown min_form {min_form!r}")
    s = np.asarray(s, dtype=float)
    alpha = np.asarray(alpha, dtype=float)
    s, alpha = np.broadcast_arrays(s, alpha)
    if min_form == "clamped":
        factor = np.sign(alpha) * np.minimum(np.abs(alpha), 2.0 ** (-n))
    else:
        factor = np.minimum(2.0 ** (-n), alpha)
    out = l_kernel(n, s, alpha) - _half_kernel(alpha) * factor * psi_n(n, s, order=1)
    return complex(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# numerical L^1 norms and fitted bound constants


@lru_cache(maxsize=32)
def _psi_grid(n, M):
    """psi_n and psi_n' sampled on the M-point grid via FFT."""
    k, w = _psi_support(n)
    vals = fourier_samples(k, w, M)
    dvals = fourier_samples(k, w * 1j * k, M)
    vals.flags.writeable = False
    dvals.flags.writeable = False
    return vals, dvals


def _grid_size(n, oversample=8):
    return int(oversample) * 2 ** (n + 3)


def psi_l1_norm(n, order=0, oversample=8):
    """Trapezoidal integral of |psi_n^{(order)}| over the torus."""
    M = _grid_size(n, oversample)
    k, w = _psi_support(n)
    vals = fourier_samples(k, w * (1j * k) ** order, M)
    return float(np.abs(vals).sum() * 2.0 * np.pi / M)


def l_kernel_l1(n, alpha, oversample=8):
    """Integral over s of |L_n(s, alpha)| by trapezoidal rule on a fine grid."""
    M = _grid_size(n, oversample)
    vals, _ = _psi_grid(n, M)
    shifted = _shift_samples(vals, alpha, n, M)
    lv = _half_kernel(alpha) * (vals - shifted)
    return float(np.abs(lv).sum() * 2.0 * np.pi / M)


def l_tilde_l1(n, alpha, oversample=8, min_form="clamped"):
    """Integral over s of |L~_n(s, alpha)|."""
    M = _grid_size(n, oversample)
    vals, dvals = _psi_grid(n, M)
    shifted = _shift_samples(vals, alpha, n, M)
    if min_form == "clamped":
        factor = np.sign(alpha) * min(abs(alpha), 2.0 ** (-n))
    else:
        factor = min(2.0 ** (-n), alpha)
    lv = _half_kernel(alpha) * (vals - shifted - factor * dvals)
    return float(np.abs(lv).sum() * 2.0 * np.pi / M)


def l_tilde_dalpha_l1(n, alpha, oversample=8, h_rel=1e-5):
    """Integral over s of |d/d alpha L~_n| by central differencing in alpha."""
    M = _grid_size(n, oversample)
    vals, dvals = _psi_grid(n, M)
    h = h_rel * max(abs(alpha), 2.0 ** (-n))

    def field(a):
        factor = np.sign(a) * min(abs(a), 2.0 ** (-n))
        return _half_kernel(a) * (vals - _shift_samples(vals, a, n, M) - factor * dvals)

    dv = (field(alpha + h) - field(alpha - h)) / (2.0 * h)
    return float(np.abs(dv).sum() * 2.0 * np.pi / M)


def _shift_samples(vals, alpha, n, M):
    """Samples of psi_n(s - alpha) from the cached support (exact, not interpolated)."""
    k, w = _psi_support(n)
    return fourier_samples(k, w * np.exp(-1j * k * alpha), M)


def dyadic_alphas(n_per_decade=1, lo=-10, hi=0):
    """Dyadic test offsets +-2^j covering small through order-one angles."""
    exps = np.arange(lo, hi + 1, 1.0 / n_per_decade)
    mags = 2.0 ** exps
    return np.concatenate([mags, -mags])


def fit_kernel_bounds(n_list=range(7), alphas=None, oversample=8):
    """Fitted constants for the kernel bounds.

    Returns a dict with, per bound, the maximal ratio of the measured
    L^1 norm to the model size over the (n, alpha) lattice:

        l_bound:              |L_n|_L1      vs min(2^n, 1/|alpha|)
        l_tilde_bound:        |L~_n|_L1     vs min(2^{2n} |alpha|, 1/|alpha|)
        l_tilde_dalpha:       |d_a L~_n|_L1 vs min(2^{2n}, 1/alpha^2)
        l_tilde_dalpha_sharp: |d_a L~_n|_L1 vs min(2^{2n}, 2^n/|alpha|)

    The first three models are the stated targets.  For the derivative
    kernel the measured mass at order-one alpha genuinely scales like
    2^n / |alpha| (the exact Fourier coefficient of d_a L~_n at a bump
    frequency has that size), so the fitted constant under the
    1/alpha^2 model grows like 2^{n_max} while staying finite and
    lattice-stable for a fixed block range; the sharp model carries an
    n-uniform constant and is reported alongside.
    """
    if alphas is None:
        alphas = dyadic_alphas(4)
    out = {"l_bound": 0.0, "l_tilde_bound": 0.0, "l_tilde_dalpha": 0.0,
           "l_tilde_dalpha_sharp": 0.0, "l_tilde_bound_literal": 0.0}
    for n in n_list:
        for a in alphas:
            aa = abs(a)
            out["l_bound"] = max(
                out["l_bound"], l_kernel_l1(n, a, oversample) / min(2.0 ** n, 1.0 / aa))
            model = min(2.0 ** (2 * n) * aa, 1.0 / aa)
            out["l_tilde_bound"] = max(
                out["l_tilde_bound"], l_tilde_l1(n, a, oversample) / model)
            if a > 0:
                out["l_tilde_bound_literal"] = max(
                    out["l_tilde_bound_literal"],
                    l_tilde_l1(n, a, oversample, min_form="literal") / model)
            dval = l_tilde_dalpha_l1(n, a, oversample)
            out["l_tilde_dalpha"] = max(
                out["l_tilde_dalpha"], dval / min(2.0 ** (2 * n), 1.0 / aa ** 2))
            out["l_tilde_dalpha_sharp"] = max(
                out["l_tilde_dalpha_sharp"], dval / min(2.0 ** (2 * n), 2.0 ** n / aa))
    return out
