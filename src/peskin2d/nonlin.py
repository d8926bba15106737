"""Evaluation of the boundary-integral velocity and its linearization.

The curve moves with

    N(s) = (1/4 pi) p.v. integral Re[ XX'(r)^2 / (XX(r) - XX(s))^2 ]
                                  (XX(r) - XX(s)) T(|XX'(r)|) dr,

which is evaluated in the algebraically regularized form: writing
X~(s, r) = e^{-i(s+r)/2} (X(r) - X(s)) / (2 sin((s-r)/2)) and
g(r) = 1 - i e^{-ir} X'(r) (so |g| is the stretch), the integrand
becomes

    -i Re[ e^{-i(s-r)} g(r)^2 / (1 + i X~)^2 ]
       e^{i(s+r)/2} (1 + i X~) / (2 sin((s-r)/2)) T(|g|),

with no difference of nearly equal quantities left.  Outer points sit
on the uniform grid s_j = 2 pi j / M.  The inner integral runs over
alpha = s - r on the half-step-offset grid alpha_q = (2q+1) pi / M, so
r = s_j - alpha_q is the offset node r_p, p = (j - q - 1) mod M.  The
r = s singularity is never sampled and the midpoint rule is spectrally
accurate.

In (s, alpha) every factor is a 1-D array.  With c_q = 1/(2 sin(alpha_q/2))
and w_q = c_q e^{i alpha_q/2}, so that conj(w_q) is the shared half-angle
kernel curve.half_kernel(alpha_q),

    b = e^{is/2} (1 + i X~) = e^{is/2} + c_q i e^{-ir/2} (X(r) - X(s)),
    Re[ e^{-i(s-r)} g^2 T / (1 + i X~)^2 ] = Re[ H conj(b)^2 ] / |b|^4 =: rho,
    N(s_j) = (-i / 2M) e^{i s_j/2} sum_q rho b conj(w_q),

where H = e^{ir} g^2 T(|g|).  No complex division is left: rho is
Re[conj(H) b^2] over the real |b|^4, and |b| is exactly the chord-arc
ratio, so it is monitored for free.

X(r_p), H(r_p) and i e^{-ir/2} become rows of a zero-copy sliding
window over a reversed, doubled 1-D array; e^{-ir/2} is taken at
r = s_j - alpha_q itself, so it changes sign where that point wraps
below 0.  The sum runs over tiles of TILE_ROWS outer points: the cached
workspace is O(M), one call's temporaries are O(TILE_ROWS * M), and no
M x M array is formed.  Row sums are numpy reductions in a fixed order,
not BLAS calls, so the result does not depend on the BLAS thread count.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .curve import fourier_samples, half_kernel, split, wavenumbers
from .errors import ConfigError, GeometryError
from .tension import linear_coefficients, small_t

CHORD_ARC_MIN = 0.1
TILE_ROWS = 32


@dataclass(frozen=True)
class NonlinearityEvaluation:
    """Velocity modes (|k| <= K), grid values on s_j, and the grid size used."""
    n_modes: np.ndarray
    grid_values: np.ndarray
    quadrature_M: int

    def __post_init__(self):
        for name in ("n_modes", "grid_values"):
            arr = np.array(getattr(self, name), dtype=complex)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


@lru_cache(maxsize=4)
def _workspace(M):
    """1-D grid factors shared by every evaluation at this M.

    e^{i s_j/2} on the outer grid; c_q and conj(w_q) on alpha_q; and
    i e^{-i r_p/2}, e^{i r_p} on the offset nodes (alpha_q and r_p are
    the same numbers).
    """
    s = 2.0 * np.pi * np.arange(M) / M
    offset = (2.0 * np.arange(M) + 1.0) * np.pi / M
    c = 1.0 / (2.0 * np.sin(offset / 2.0))
    arrays = (np.exp(0.5j * s), c, half_kernel(offset),
              1j * np.exp(-0.5j * offset), np.exp(1j * offset))
    for arr in arrays:
        arr.flags.writeable = False
    return arrays


def _values_on(modes, M, shift):
    """sum a_k e^{ik(s + shift)} on the M grid via padded FFT."""
    k = wavenumbers((modes.size - 1) // 2)
    return fourier_samples(k, modes * np.exp(1j * k * shift), M)


def _alpha_rows(values, wrap_sign=1.0):
    """Zero-copy M x M view of offset-node values at r = s_j - alpha_q.

    Entry [j, q] is values[(j - q - 1) mod M], times wrap_sign where
    j <= q (there s_j - alpha_q = r_p - 2 pi).  It is a sliding window
    over the reversed, doubled array, read with its rows flipped.
    """
    M = values.size
    doubled = np.concatenate((wrap_sign * values, values))[-2::-1].copy()
    return sliding_window_view(doubled, M)[::-1]


def _chord_tiles(xs, xr, M):
    """Yield (rows, b, |b|^2) tile by tile, b = e^{is/2} (1 + i X~)."""
    exp_half_s, c, _, i_exp_half_neg_r, _ = _workspace(M)
    xr_rows = _alpha_rows(xr)
    phase_rows = _alpha_rows(i_exp_half_neg_r, -1.0)
    for start in range(0, M, TILE_ROWS):
        rows = slice(start, min(start + TILE_ROWS, M))
        b = xr_rows[rows] - xs[rows, None]
        b *= phase_rows[rows]
        b *= c
        b += exp_half_s[rows, None]
        yield rows, b, np.square(b.real) + np.square(b.imag)


def eval_nonlinearity(curve, law, M):
    """Evaluate the boundary-integral velocity of the curve.

    Preconditions: M even with M >= 2K+2 (M >= 4K recommended for
    dealiased accuracy); the sampled chord-arc ratio must exceed 0.1
    (else GeometryError) and the stretch |XX'| must stay inside the
    law's validity interval (else TensionDomainError).
    """
    K = curve.K
    if M % 2 != 0 or M < 2 * K + 2:
        raise ConfigError(f"quadrature size {M} invalid for K={K}")
    exp_half_s, _, conj_w, _, exp_r = _workspace(M)
    k = wavenumbers(K)

    xs = _values_on(curve.modes, M, 0.0)
    xr = _values_on(curve.modes, M, np.pi / M)
    dxr = _values_on(1j * k * curve.modes, M, np.pi / M)

    g = 1.0 - 1j * np.conj(exp_r) * dxr
    stretch = np.abs(g)
    law.check_domain(stretch)
    conj_h_rows = _alpha_rows(np.conj(exp_r * g * g) * small_t(law, stretch))

    # the chord-arc minimum covers every tile: after a violation the
    # scan goes on, but the integrand is skipped
    min2 = np.inf
    row_sums = np.empty(M, dtype=complex)
    for rows, b, abs2 in _chord_tiles(xs, xr, M):
        min2 = min(min2, float(abs2.min()))
        if min2 <= CHORD_ARC_MIN ** 2:
            continue
        # rho = Re[H conj(b)^2] / |b|^4 = Re[conj(H) b^2] / |b|^4
        b_sq = b * b
        b_sq *= conj_h_rows[rows]
        rho = b_sq.real
        rho /= abs2 * abs2
        b *= rho
        b *= conj_w
        row_sums[rows] = b.sum(axis=1)
    if min2 <= CHORD_ARC_MIN ** 2:
        raise GeometryError(
            f"chord-arc ratio {np.sqrt(min2):.4g} <= {CHORD_ARC_MIN}: "
            "curve too close to self-intersection")
    grid_values = (-1j / (2.0 * M)) * exp_half_s * row_sums

    spec = np.fft.fft(grid_values) / M
    n_modes = spec[k % M]
    return NonlinearityEvaluation(n_modes=n_modes, grid_values=grid_values,
                                  quadrature_M=M)


def chord_arc_ratio(curve, M=None):
    """Minimum sampled chord-arc ratio |XX(r)-XX(s)| / |2 sin((s-r)/2)|."""
    M = M if M is not None else max(64, 4 * curve.K)
    xs = _values_on(curve.modes, M, 0.0)
    xr = _values_on(curve.modes, M, np.pi / M)
    min2 = min(float(abs2.min()) for _, _, abs2 in _chord_tiles(xs, xr, M))
    return float(np.sqrt(min2))


def linear_mode_rhs(y_modes, coeffs, a1):
    """Closed-form linearized velocity modes c_k for given coefficients.

    c_k = -(A/8)(2|k| + |k-1| - |k+1|) a_k - (b_tilde/8) |k| a_k
          + (B/8) ((1+a1)^2/|1+a1|) |2-k| conj(a_{2-k}),

    with c_0 = c_1 = 0.  The coupling term enters with a plus sign; that
    sign is pinned down by the decoupled pair systems and confirmed by
    the finite-difference Jacobian of the full velocity, which the test
    suite checks to 1e-6 relative.
    """
    y = np.asarray(y_modes, dtype=complex)
    K = (y.size - 1) // 2
    k = wavenumbers(K)
    a1 = complex(a1)
    r1 = abs(1.0 + a1)
    u = (1.0 + a1) ** 2 / r1

    diag = -(coeffs.A / 8.0) * (2.0 * np.abs(k) + np.abs(k - 1) - np.abs(k + 1)) \
        - (coeffs.b_tilde / 8.0) * np.abs(k)
    out = diag * y
    # conjugate coupling a_k <- conj(a_{2-k}); partner index 2-k must lie in range
    j = 2 - k
    valid = np.abs(j) <= K
    partner = np.zeros_like(y)
    partner[valid] = np.conj(y[K + j[valid]])
    out += (coeffs.B / 8.0) * u * np.abs(j) * partner
    out[K + 0] = 0.0
    if K >= 1:
        out[K + 1] = 0.0
    return out


def eval_linear_part(curve_split, law):
    """Linearized velocity modes using coefficients from the split's own a1."""
    coeffs = linear_coefficients(law, curve_split.a1)
    return linear_mode_rhs(curve_split.y_modes, coeffs, curve_split.a1)


def eval_residual(curve, law, M, coeffs=None, a1_ref=None):
    """Residual modes L_k = N_k - c_k.

    By default the linear part is built from the curve's own a1; the
    integrator passes frozen (coeffs, a1_ref) instead, which moves the
    coefficient drift into the residual.  For data of size eps the
    residual is O(eps^2).
    """
    sp = split(curve)
    if coeffs is None:
        a1_ref = sp.a1
        coeffs = linear_coefficients(law, a1_ref)
    ev = eval_nonlinearity(curve, law, M)
    c = linear_mode_rhs(sp.y_modes, coeffs, a1_ref)
    return ev.n_modes - c
