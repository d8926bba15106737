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
    norm_table         s, z1, z2 and w of a stack of snapshots, each value the
                       single-diagnostic function's, a chunk of snapshots per pass

Block weights come from the same dyadic bumps as the kernel module, so
the partition of unity holds at coefficient level: the blocks plus the
k = 0 residual reconstruct the input exactly.
"""

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


def l2_norm(c):
    """Unnormalized L^2 norm sqrt(2 pi sum |c_k|^2)."""
    c = _as_coeffs(c)
    return float(np.sqrt(2.0 * np.pi * np.sum(np.abs(c) ** 2)))


def linf_norm(c):
    """Sup norm of the synthesized function on a grid 8 times oversampled."""
    return float(_sup(_as_coeffs(c)))


def _sup(c):
    """linf_norm of each row of a coefficient stack (..., 2K+1)."""
    K = (c.shape[-1] - 1) // 2
    M = max(64, 8 * max(2 * K, 1))
    return np.abs(fourier_samples(wavenumbers(K), c, M)).max(axis=-1)


def deriv_coeffs(c):
    c = _as_coeffs(c)
    return 1j * wavenumbers((c.size - 1) // 2) * c


def block_l2_profile(c):
    """2^{3n/2} |P_n f|_L2 for every block; the sup is the dyadic half of s_norm."""
    return _profile(_as_coeffs(c))


@lru_cache(maxsize=64)
def _profile_factors(K):
    """The block weights phi_n(k) stacked as (n_blocks(K), 2K+1), and 2^{3n/2} per block."""
    weights = np.array([phi_weight(n, wavenumbers(K)) for n in range(n_blocks(K))])
    scales = np.array([2.0 ** (1.5 * n) for n in range(n_blocks(K))])
    weights.flags.writeable = scales.flags.writeable = False
    return weights, scales


def _profile(c):
    """block_l2_profile of each row of a coefficient stack (..., 2K+1): the
    l2_norm of every block, each a sum over its own row."""
    weights, scales = _profile_factors((c.shape[-1] - 1) // 2)
    return scales * np.sqrt(2.0 * np.pi * np.sum(np.abs(weights * c[..., None, :]) ** 2,
                                                 axis=-1))


def s_norm(c):
    """|f'|_Linf plus the sup over blocks of 2^{3n/2} |P_n f|_L2."""
    c = _as_coeffs(c)
    return float(_s_from(block_l2_profile(c), linf_norm(deriv_coeffs(c))))


def z1_weight(c, t):
    """Time-weighted snapshot: (1+t)^{2/3} |f'|_Linf + sup (1 + 2^n t)^{2/3} 2^{3n/2} |P_n f|."""
    if t < 0:
        raise ConfigError("z1 weight needs t >= 0")
    c = _as_coeffs(c)
    return float(_z1_from(block_l2_profile(c), linf_norm(deriv_coeffs(c)), t))


def z2_weight(c, t):
    """Snapshot with the short-time weight (2^n t)^{-1/3} (1 + 2^n t) 2^{3n/2} |P_n f|.

    Defined for t > 0.  At t = 0 the weight is singular: the snapshot is
    zero when every block vanishes and +inf otherwise, which is the
    literal limiting value per block.
    """
    if t < 0:
        raise ConfigError("z2 weight needs t >= 0")
    return float(_z2_from(block_l2_profile(_as_coeffs(c)), t))


# The three snapshots from the block profile prof and d_inf = |f'|_Linf.
# Each takes rows: prof (..., n_blocks), d_inf and the times t (...).


def _s_from(prof, d_inf):
    return d_inf + prof.max(axis=-1, initial=0.0)


def _z1_from(prof, d_inf, t):
    t = np.asarray(t, dtype=float)
    n = np.arange(prof.shape[-1])
    weighted = (1.0 + 2.0 ** n * t[..., None]) ** (2.0 / 3.0) * prof
    # Python's pow per time: numpy's vector pow may round differently
    lead = np.reshape([(1.0 + x) ** (2.0 / 3.0) for x in t.ravel().tolist()], t.shape)
    return lead * d_inf + weighted.max(axis=-1, initial=0.0)


def _z2_from(prof, t):
    t = np.asarray(t, dtype=float)
    x = 2.0 ** np.arange(prof.shape[-1]) * t[..., None]
    with np.errstate(divide="ignore", invalid="ignore"):   # rows at t = 0, replaced below
        weighted = x ** (-1.0 / 3.0) * (1.0 + x) * prof
    at_zero = np.where(prof.max(axis=-1, initial=0.0) == 0.0, 0.0, np.inf)
    return np.where(t == 0.0, at_zero, weighted.max(axis=-1, initial=0.0))


TABLE_CHUNK = 8


def norm_table(snapshots, times):
    """Rows [t, s_norm, z1, z2, w] of a (S, 2K+1) snapshot stack at S times.

    Row i holds times[i] and the s_norm, z1_weight, z2_weight and
    wiener_snapshot of snapshots[i] at times[i], bit for bit, as Python
    floats; the four share one block profile and one |f'|_Linf.  The stack
    goes TABLE_CHUNK = 8 snapshots at a time (its |f'|_Linf grid holds at
    most 8 x 16K points), so a warm table peaks near 0.41 MiB at K = 64.
    """
    snapshots = np.asarray(snapshots, dtype=complex)
    times = np.asarray(times, dtype=float)
    if snapshots.ndim != 2 or snapshots.shape[1] % 2 == 0 or times.shape != snapshots.shape[:1]:
        raise ConfigError("norm table needs a (S, 2K+1) snapshot stack of odd row length "
                          "and one time per snapshot")
    if np.any(times < 0):
        raise ConfigError("norm table needs t >= 0")
    rows = []
    for first in range(0, len(times), TABLE_CHUNK):
        t = times[first:first + TABLE_CHUNK]
        columns = _diagnostics(snapshots[first:first + TABLE_CHUNK], t)
        rows += [list(row) for row in zip(t.tolist(), *(col.tolist() for col in columns))]
    return rows


def _diagnostics(c, t):
    """(s_norm, z1, z2, w) of each row of a coefficient stack at times t."""
    k = wavenumbers((c.shape[-1] - 1) // 2)
    prof = _profile(c)
    d_inf = _sup(1j * k * c)
    mag = np.abs(c) * np.abs(k)
    return (_s_from(prof, d_inf), _z1_from(prof, d_inf, t), _z2_from(prof, t),
            mag.sum(axis=-1) + _shell_sup(mag, t))


def _shell_sup(mag, t):
    """sup over the dyadic shells |k| in [2^{m-1}, 2^{m+1}] of sum mag_k (1 + |k| t)^{2/3}.

    Per row of mag (..., 2K+1), at the times t (...).
    """
    t = np.asarray(t, dtype=float)
    k = np.abs(wavenumbers((mag.shape[-1] - 1) // 2))
    sup = np.zeros(t.shape)
    for m in range(n_blocks((mag.shape[-1] - 1) // 2)):
        mask = (k >= 2.0 ** (m - 1)) & (k <= 2.0 ** (m + 1))
        shell = mag[..., mask] * (1.0 + k[mask] * t[..., None]) ** (2.0 / 3.0)
        sup = np.maximum(sup, np.sum(shell, axis=-1))
    return sup


def wiener_snapshot(c, t):
    """sum |c_k| |k|  +  sup over shells of sum |c_k| |k| (1 + |k| t)^{2/3}."""
    if t < 0:
        raise ConfigError("wiener weight needs t >= 0")
    c = _as_coeffs(c)
    mag = np.abs(c) * np.abs(wavenumbers((c.size - 1) // 2))
    return float(mag.sum()) + float(_shell_sup(mag, t))


def n_norm(c, times):
    """Sequence norm: sup_t sum |c_k| + sup over t and shells of the weighted shell sums.

    The sequence is time-independent here, so the first sup is trivial;
    the shell term grows with t and the sup runs over the sampled times.
    """
    mag = np.abs(_as_coeffs(c))
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if np.any(times < 0):
        raise ConfigError("n_norm times must be >= 0")
    return float(mag.sum()) + float(_shell_sup(mag, times).max(initial=0.0))


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
