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

The half-angle kernel itself is curve.half_kernel, the one (s, alpha)
form the package shares.  psi_n is one curve.fourier_eval and L_n one
curve.difference_quotient, whose limit form covers the offsets near zero.

Dyadic frequency bumps phi_n localize to |k| in [2^{n-1}, 2^{n+1}] and
form a partition of unity on |k| >= 1.  The localized convolution
kernels psi_n and the difference kernels L_n, L~_n built from them obey
scale-explicit L^1 bounds that are checked numerically as fitted
constants rather than proved.

The fit runs over an (n, alpha) lattice.  psi_n is real and even (its
weights are symmetric in k), so each norm is even in alpha: the lattice
is folded to the distinct |alpha|, and the shifted rows psi_n(s_j - a)
for a in {alpha, alpha + h, alpha - h} come from one batched real
inverse FFT of the k >= 0 half spectrum per block, in chunks capped at
_CHUNK_SAMPLES samples.  Every chunk writes its spectra, rows and
temporaries (about 0.6 MiB) into curve.thread_scratch, the thread's one
scratch buffer: as large as its largest request, shared with the
boundary integral's tiles, freed when the thread exits.  So a warm fit
allocates nothing of a chunk's size.  Against one complex transform per
field and alpha the fitted constants agree to about 1e-13 relative;
l_tilde_dalpha_sharp to about 3e-11, because the central difference at
relative step 1e-5 magnifies roundoff by about 1/h.
"""

from functools import lru_cache, partial

import numpy as np

from .curve import (difference_quotient, fourier_eval, fourier_samples, half_kernel,
                    thread_scratch, wavenumbers)
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


PV_CHUNK = 16   # wavenumbers per pass of an array call


def _pv_rule(k, M, pair):
    """pair(k, a) summed over the M/2 pair nodes, over M, for an int k or an integer array.

    The grid is checked once, against the first k in order that it is too
    small for.  An array goes PV_CHUNK wavenumbers at a time; each row sums
    on its own, bit for bit as an int call.
    """
    if M % 2 != 0:
        raise ConfigError(f"quadrature size must be even, got {M}")
    ks = np.atleast_1d(k)
    short = ks[M < 8 * np.abs(ks) + 8]
    if short.size:
        raise ConfigError(f"quadrature size {M} too small for mode {short[0]} "
                          f"(need >= {8 * abs(short[0]) + 8})")
    a = (2.0 * np.arange(M // 2) + 1.0) * np.pi / M
    out = np.empty(ks.shape, dtype=complex)
    for first in range(0, ks.size, PV_CHUNK):
        out[first:first + PV_CHUNK] = pair(ks[first:first + PV_CHUNK, None], a).sum(axis=-1) / M
    return out if np.ndim(k) else complex(out[0])


def pv_quadrature_ik(k, M):
    """Midpoint-rule principal value of e^{-i(k+1/2)a} / (2 sin(a/2)) over the torus.

    Nodes are the odd multiples of pi/M; the symmetric pair f(a) + f(-a)
    is summed in its cancellation-free closed form -i sin((k+1/2)a)/sin(a/2).
    k is an int (a complex is returned) or a 1-d integer array.
    """
    return _pv_rule(k, M, lambda k, a: -1j * np.sin((k + 0.5) * a) / np.sin(a / 2.0))


def pv_quadrature_jk(k, M):
    """Midpoint-rule principal value of (e^{-ika} - 1) / (4 sin^2(a/2)).

    Pair sum in closed form: -sin^2(ka/2) / sin^2(a/2), a trigonometric
    polynomial, so the rule is exact up to roundoff once M > 2|k|.
    k is an int (a complex is returned) or a 1-d integer array.
    """
    return _pv_rule(k, M, lambda k, a: -np.sin(k * a / 2.0) ** 2 / np.sin(a / 2.0) ** 2)


# ---------------------------------------------------------------------------
# localized convolution kernels


@lru_cache(maxsize=64)
def _psi_support(n):
    """Frequencies and weights of psi_n: hat(psi_n)(k) = phi_{n+2}(k), zero at k = 1."""
    k = wavenumbers(2 ** (n + 3))
    w = phi_weight(n + 2, k)
    keep = w != 0.0
    k, w = k[keep], w[keep]
    k.flags.writeable = False
    w.flags.writeable = False
    return k, w


def psi_n(n, s, order=0):
    """The block-n kernel psi_n(s) (or its order-th derivative) as a finite Fourier sum."""
    if n < 0:
        raise ConfigError("block index must be >= 0")
    return fourier_eval(*_psi_support(n), s, order)


def l_kernel(n, s, alpha):
    """Difference kernel L_n(s, alpha) = half_kernel(alpha) (psi_n(s) - psi_n(s - alpha)).

    It is curve.difference_quotient of psi_n, so where near_zero(alpha)
    it takes the limit psi_n'(s) e^{-i alpha/2}.
    """
    return difference_quotient(partial(psi_n, n), s, alpha)


def _clamped(a, n):
    """The clamped correction factor sgn(a) min(|a|, 2^{-n})."""
    return np.sign(a) * np.minimum(np.abs(a), 2.0 ** (-n))


def l_tilde_kernel(n, s, alpha):
    """Modified kernel subtracting the first-order part of L_n.

    The correction factor multiplying psi_n'(s) is
    half_kernel(alpha) * sgn(alpha) * min(|alpha|, 2^{-n}), whose L^1 size
    obeys min(2^{2n} |alpha|, 1/|alpha|) on both signs of alpha.  For
    alpha > 0 it equals the literal factor half_kernel(alpha) * min(2^{-n}, alpha).
    """
    s, alpha = np.broadcast_arrays(np.asarray(s, dtype=float), np.asarray(alpha, dtype=float))
    out = (l_kernel(n, s, alpha)
           - half_kernel(alpha) * _clamped(alpha, n) * psi_n(n, s, order=1))
    return complex(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# numerical L^1 norms and fitted bound constants


# Samples in one chunk of the batched lattice: three shifted rows of M
# samples per alpha, so a chunk's rows and half spectra take 256 KiB each.
_CHUNK_SAMPLES = 2 ** 15


def _real_samples(kp, coeff, M):
    """Real samples of sum_k coeff_k e^{iks} on the M-point grid, from the k > 0 half.

    coeff (..., nk) sits at the frequencies 0 < kp < M/2; the k < 0 half is
    its conjugate, which holds for psi_n and its shifts because the psi_n
    weights are real and even in k (and zero at k = 0).
    """
    spec = np.zeros(coeff.shape[:-1] + (M // 2 + 1,), dtype=complex)
    spec[..., kp] = coeff
    return np.fft.irfft(spec, n=M, norm="forward")


@lru_cache(maxsize=32)
def _psi_grid(n, M):
    """psi_n and psi_n' sampled on the M-point grid (both real)."""
    k, w = _psi_support(n)
    kp, wp = k[k > 0], w[k > 0]
    if kp[-1] >= M // 2:
        raise ConfigError(f"grid of {M} points too coarse for block {n}; "
                          "oversample must be >= 2")
    vals = _real_samples(kp, wp, M)
    dvals = _real_samples(kp, wp * 1j * kp, M)
    vals.flags.writeable = False
    dvals.flags.writeable = False
    return vals, dvals


def _grid_size(n, oversample=8):
    return int(oversample) * 2 ** (n + 3)


def psi_l1_norm(n, order=0):
    """Trapezoidal integral of |psi_n^{(order)}| over the torus."""
    M = _grid_size(n)
    k, w = _psi_support(n)
    vals = fourier_samples(k, w * (1j * k) ** order, M)
    return float(np.abs(vals).sum() * 2.0 * np.pi / M)


def _l1_rows(n, alphas, M):
    """L^1 norms over s of L_n, L~_n and d_alpha L~_n, one value per alpha.

    Returns (|L_n|, |L~_n|, |d_a L~_n|), three arrays shaped like alphas.
    L~_n uses the clamped correction factor, and its derivative is a
    central difference at alpha +- h with h = 1e-5 max(|alpha|, 2^{-n}).
    Each alpha needs the rows psi_n(s_j - a) for a in {alpha, alpha + h,
    alpha - h}; they come from one batched real inverse FFT per chunk of
    _CHUNK_SAMPLES samples, and every norm is summed in real arithmetic:
    the half kernel is a scalar factor per row.  Every temporary of a
    chunk's size is a view of curve.thread_scratch, so a warm call
    allocates only per-alpha vectors and the rows x |kp| phases.
    """
    alphas = np.asarray(alphas, dtype=float)
    factors = _clamped(alphas, n)
    k, w = _psi_support(n)
    kp, wp = k[k > 0], w[k > 0]
    vals, dvals = _psi_grid(n, M)
    steps = 1e-5 * np.maximum(np.abs(alphas), 2.0 ** (-n))
    out = np.empty((3, alphas.size))
    rows = max(1, _CHUNK_SAMPLES // (3 * M))
    n_spec, n_rows = 3 * rows * (M // 2 + 1), rows * M   # complex and real elements
    buf = thread_scratch(n_spec + 2 * n_rows)
    spec_all = buf[:n_spec].reshape(3, rows, M // 2 + 1)
    spec_all.fill(0.0)  # only the kp columns are written below
    real = buf[n_spec:n_spec + 2 * n_rows].view(float).reshape(4, rows, M)
    shifted_all, tmp_all = real[:3], real[3]
    for lo in range(0, alphas.size, rows):
        a, h, f = (x[lo:lo + rows] for x in (alphas, steps, factors))
        spec, diff, tmp = spec_all[:, :a.size], shifted_all[:, :a.size], tmp_all[:a.size]
        shifts = np.stack([a, a + h, a - h])
        phase = -1j * shifts[..., None] * kp
        spec[..., kp] = np.multiply(wp, np.exp(phase, out=phase), out=phase)
        np.fft.irfft(spec, n=M, norm="forward", out=diff)
        np.subtract(vals, diff, out=diff)
        hk = half_kernel(shifts)
        out[0, lo:lo + rows] = np.abs(hk[0]) * np.abs(diff[0], out=tmp).sum(axis=-1)
        np.multiply(f[:, None], dvals, out=tmp)
        np.subtract(diff[0], tmp, out=tmp)
        out[1, lo:lo + rows] = np.abs(hk[0]) * np.abs(tmp, out=tmp).sum(axis=-1)
        # tilde rows at alpha +- h, in place of diff[1:]
        for tilde, clamp in zip(diff[1:], _clamped(shifts[1:], n)):
            np.subtract(tilde, np.multiply(clamp[:, None], dvals, out=tmp), out=tilde)
        re = np.multiply(hk[1].real[:, None], diff[1], out=diff[0])
        re -= np.multiply(hk[2].real[:, None], diff[2], out=tmp)
        im = np.multiply(hk[1].imag[:, None], diff[1], out=diff[1])
        im -= np.multiply(hk[2].imag[:, None], diff[2], out=diff[2])
        out[2, lo:lo + rows] = np.hypot(re, im, out=re).sum(axis=-1) / (2.0 * h)
    return out * (2.0 * np.pi / M)


def _l1_at(n, alpha):
    """The three norms at one alpha, evaluated at |alpha|.

    Reflecting s -> -s maps psi_n(s + |alpha|) to psi_n(s - |alpha|) and
    psi_n' to -psi_n', and the clamped correction factor is odd in alpha,
    so every norm at alpha < 0 equals the one at |alpha|.
    """
    return _l1_rows(n, np.array([abs(float(alpha))]), _grid_size(n))[:, 0]


def l_kernel_l1(n, alpha):
    """Integral over s of |L_n(s, alpha)| by trapezoidal rule on a fine grid."""
    return float(_l1_at(n, alpha)[0])


def l_tilde_l1(n, alpha):
    """Integral over s of |L~_n(s, alpha)|."""
    return float(_l1_at(n, alpha)[1])


def l_tilde_dalpha_l1(n, alpha):
    """Integral over s of |d/d alpha L~_n| by central differencing in alpha."""
    return float(_l1_at(n, alpha)[2])


def dyadic_alphas(n_per_decade=1):
    """Dyadic test offsets +-2^j, j = -10..0, covering small through order-one angles."""
    exps = np.arange(-10, 1, 1.0 / n_per_decade)
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

    Every norm is even in alpha, so the lattice is folded to the distinct
    |alpha| and each block n takes one batched _l1_rows call.  The literal
    factor min(2^{-n}, alpha) equals the clamped one for alpha > 0, so its
    constant is the clamped ratio over the |alpha| that occur with a
    positive sign.
    """
    if alphas is None:
        alphas = dyadic_alphas(4)
    alphas = np.asarray(alphas, dtype=float)
    mags, where = np.unique(np.abs(alphas), return_inverse=True)
    positive = np.zeros(mags.size, dtype=bool)
    positive[where[alphas > 0]] = True
    out = dict.fromkeys(("l_bound", "l_tilde_bound", "l_tilde_dalpha",
                         "l_tilde_dalpha_sharp", "l_tilde_bound_literal"), 0.0)

    def worst(key, ratios):
        out[key] = max(out[key], float(ratios.max(initial=0.0)))

    for n in n_list:
        l1, tilde, dval = _l1_rows(n, mags, _grid_size(n, oversample))
        tilde_ratio = tilde / np.minimum(2.0 ** (2 * n) * mags, 1.0 / mags)
        worst("l_bound", l1 / np.minimum(2.0 ** n, 1.0 / mags))
        worst("l_tilde_bound", tilde_ratio)
        worst("l_tilde_bound_literal", tilde_ratio[positive])
        worst("l_tilde_dalpha", dval / np.minimum(2.0 ** (2 * n), 1.0 / mags ** 2))
        worst("l_tilde_dalpha_sharp", dval / np.minimum(2.0 ** (2 * n), 2.0 ** n / mags))
    return out
