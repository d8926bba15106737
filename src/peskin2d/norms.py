"""Littlewood-Paley blocks and the function-space diagnostics.

All operations act on plain complex coefficient arrays c of odd length,
indexed k = -K..K, with the unnormalized L^2 convention

    |f|_{L2}^2 = integral_T |f|^2 ds = 2 pi sum_k |c_k|^2,

so a single mode e^{iks} has L^2 norm sqrt(2 pi).  The diagnostics:

    s_norm(c)          |f'|_Linf + sup_n 2^{3n/2} |P_n f|_L2
    z1_weight(c, t)    time-weighted snapshot, (1 + 2^n t)^{2/3} per block
    z2_weight(c, t)    adds the short-time factor (2^n t)^{-1/3} (t > 0)
    wiener_snapshot    weighted l^1 of coefficients with dyadic shells
    n_norm             the sequence-space counterpart over sampled times

Block weights come from the same dyadic bumps as the kernel module, so
the partition of unity holds at coefficient level: the blocks plus the
k = 0 residual reconstruct the input exactly.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .curve import fourier_samples, wavenumbers
from .errors import ConfigError
from .kernels import phi_weight


def _as_coeffs(c):
    c = np.asarray(c, dtype=complex)
    if c.ndim != 1 or c.size % 2 == 0:
        raise ConfigError("coefficient array must be 1-d of odd length")
    return c


def n_blocks(K):
    """Smallest block count covering |k| <= K (support of phi_n starts at 2^{n-1})."""
    return max(1, int(np.floor(np.log2(max(K, 1)))) + 2)


@lru_cache(maxsize=256)
def _block_weights(n, K):
    """phi_n(k) on k = -K..K, read-only."""
    w = phi_weight(n, wavenumbers(K))
    w.flags.writeable = False
    return w


def lp_project(c, n):
    """Coefficients of the block P_n f: phi_n(k) c_k."""
    if n < 0:
        raise ConfigError("block index must be >= 0")
    c = _as_coeffs(c)
    return _block_weights(n, (c.size - 1) // 2) * c


def low_residual(c):
    """The k = 0 part not covered by any dyadic block."""
    c = _as_coeffs(c)
    out = np.zeros_like(c)
    out[c.size // 2] = c[c.size // 2]
    return out


@dataclass(frozen=True)
class DyadicDecomposition:
    """Blocks P_n f plus the k = 0 residual; their sum is f exactly."""
    blocks: tuple
    residual: np.ndarray

    def reconstruct(self):
        return self.residual + sum(self.blocks)


def decompose(c):
    """Dyadic decomposition of a coefficient array."""
    c = _as_coeffs(c)
    K = (c.size - 1) // 2
    return DyadicDecomposition(
        blocks=tuple(lp_project(c, n) for n in range(n_blocks(K))),
        residual=low_residual(c))


def l2_norm(c):
    """Unnormalized L^2 norm sqrt(2 pi sum |c_k|^2)."""
    c = _as_coeffs(c)
    return float(np.sqrt(2.0 * np.pi * np.sum(np.abs(c) ** 2)))


def linf_norm(c):
    """Sup norm of the synthesized function on a grid 8 times oversampled."""
    c = _as_coeffs(c)
    K = (c.size - 1) // 2
    M = max(64, 8 * max(2 * K, 1))
    return float(np.abs(fourier_samples(wavenumbers(K), c, M)).max())


def deriv_coeffs(c):
    c = _as_coeffs(c)
    return 1j * wavenumbers((c.size - 1) // 2) * c


def block_l2_profile(c):
    """2^{3n/2} |P_n f|_L2 for every block; the sup is the dyadic half of s_norm."""
    c = _as_coeffs(c)
    K = (c.size - 1) // 2
    return np.array([2.0 ** (1.5 * n) * l2_norm(lp_project(c, n))
                     for n in range(n_blocks(K))])


def s_norm(c):
    """|f'|_Linf plus the sup over blocks of 2^{3n/2} |P_n f|_L2."""
    c = _as_coeffs(c)
    return _s_from(block_l2_profile(c), linf_norm(deriv_coeffs(c)))


def z1_weight(c, t):
    """Time-weighted snapshot: (1+t)^{2/3} |f'|_Linf + sup (1 + 2^n t)^{2/3} 2^{3n/2} |P_n f|."""
    if t < 0:
        raise ConfigError("z1 weight needs t >= 0")
    c = _as_coeffs(c)
    return _z1_from(block_l2_profile(c), linf_norm(deriv_coeffs(c)), t)


def z2_weight(c, t):
    """Snapshot with the short-time weight (2^n t)^{-1/3} (1 + 2^n t) 2^{3n/2} |P_n f|.

    Defined for t > 0.  At t = 0 the weight is singular: the snapshot is
    zero when every block vanishes and +inf otherwise, which is the
    literal limiting value per block.
    """
    if t < 0:
        raise ConfigError("z2 weight needs t >= 0")
    return _z2_from(block_l2_profile(_as_coeffs(c)), t)


# The three snapshots from the block profile prof and d_inf = |f'|_Linf.


def _s_from(prof, d_inf):
    return d_inf + float(prof.max(initial=0.0))


def _z1_from(prof, d_inf, t):
    n = np.arange(prof.size)
    weighted = (1.0 + 2.0 ** n * t) ** (2.0 / 3.0) * prof
    return (1.0 + t) ** (2.0 / 3.0) * d_inf + float(weighted.max(initial=0.0))


def _z2_from(prof, t):
    if t == 0.0:
        return 0.0 if float(prof.max(initial=0.0)) == 0.0 else float("inf")
    n = np.arange(prof.size)
    x = 2.0 ** n * t
    weighted = x ** (-1.0 / 3.0) * (1.0 + x) * prof
    return float(weighted.max(initial=0.0))


@dataclass(frozen=True)
class NormReport:
    """All diagnostics of one snapshot, with the per-block contributions."""
    s_norm: float
    z1_snapshot: float
    z2_snapshot: float
    w_snapshot: float
    block_profile: np.ndarray     # 2^{3n/2} |P_n f|_L2 per block


def norm_report(c, t):
    """Evaluate every diagnostic of a coefficient snapshot at time t.

    The block profile and |f'|_Linf are computed once and shared; each
    value equals the one its single-diagnostic function returns.
    """
    if t < 0:
        raise ConfigError("norm report needs t >= 0")
    c = _as_coeffs(c)
    prof = block_l2_profile(c)
    d_inf = linf_norm(deriv_coeffs(c))
    return NormReport(
        s_norm=_s_from(prof, d_inf),
        z1_snapshot=_z1_from(prof, d_inf, t),
        z2_snapshot=_z2_from(prof, t),
        w_snapshot=wiener_snapshot(c, t),
        block_profile=prof)


def _shell_sup(mag, t):
    """sup over the dyadic shells |k| in [2^{m-1}, 2^{m+1}] of sum mag_k (1 + |k| t)^{2/3}."""
    K = (mag.size - 1) // 2
    k = np.abs(wavenumbers(K))
    sup = 0.0
    for m in range(n_blocks(K)):
        mask = (k >= 2.0 ** (m - 1)) & (k <= 2.0 ** (m + 1))
        sup = max(sup, float(np.sum(mag[mask] * (1.0 + k[mask] * t) ** (2.0 / 3.0))))
    return sup


def wiener_snapshot(c, t):
    """sum |c_k| |k|  +  sup over shells of sum |c_k| |k| (1 + |k| t)^{2/3}."""
    if t < 0:
        raise ConfigError("wiener weight needs t >= 0")
    c = _as_coeffs(c)
    mag = np.abs(c) * np.abs(wavenumbers((c.size - 1) // 2))
    return float(mag.sum()) + _shell_sup(mag, t)


def n_norm(c, times):
    """Sequence norm: sup_t sum |c_k| + sup over t and shells of the weighted shell sums.

    The sequence is time-independent here, so the first sup is trivial;
    the shell term grows with t and the sup runs over the sampled times.
    """
    mag = np.abs(_as_coeffs(c))
    shell_sup = 0.0
    for t in np.atleast_1d(times):
        if t < 0:
            raise ConfigError("n_norm times must be >= 0")
        shell_sup = max(shell_sup, _shell_sup(mag, t))
    return float(mag.sum()) + shell_sup


def convolve_coeffs(a, b):
    """Coefficients of the pointwise product: full convolution, no truncation."""
    a = _as_coeffs(a)
    b = _as_coeffs(b)
    return np.convolve(a, b)


def z1_algebra_check(y1_snapshots, y2_snapshots, t_grid):
    """Ratio sup_t z1(Y1' Y2') / (sup_t z1(Y1) * sup_t z1(Y2)).

    Snapshots are coefficient arrays aligned with t_grid.  The product
    of derivatives is formed by exact convolution, so no dealiasing
    error enters.  Returns 0 when either factor vanishes identically.
    """
    t_grid = np.atleast_1d(np.asarray(t_grid, dtype=float))
    if not (len(y1_snapshots) == len(y2_snapshots) == t_grid.size):
        raise ConfigError("snapshot lists and t_grid must have equal length")
    prod_sup, z1_sup1, z1_sup2 = 0.0, 0.0, 0.0
    for c1, c2, t in zip(y1_snapshots, y2_snapshots, t_grid):
        prod = convolve_coeffs(deriv_coeffs(c1), deriv_coeffs(c2))
        prod_sup = max(prod_sup, z1_weight(prod, t))
        z1_sup1 = max(z1_sup1, z1_weight(c1, t))
        z1_sup2 = max(z1_sup2, z1_weight(c2, t))
    denom = z1_sup1 * z1_sup2
    return prod_sup / denom if denom > 0 else 0.0
