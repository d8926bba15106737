"""Linearized mode systems around the circle: rates, spectra, propagators.

Around the steady circle a0 + (1 + a1) e^{is} the perturbation modes
decouple: a0 and a1 are frozen, a2 decays at the scalar rate
(A + b_tilde)/4, and for m >= 3 the pair state (a_m, conj(a_{2-m}))
obeys u' = G u with the 2x2 matrix

    G = -(1/8) [ (2m-2) A + m b_tilde            -(m-2) B (1+a1)^2 / |1+a1| ]
               [ -m B (1+conj(a1))^2 / |1+a1|    (2m-2) A + (m-2) b_tilde   ]

whose -8 G eigenvalues are exactly 2 A (m-1) and 2 (A + b_tilde) (m-1),
real and positive whenever the tension law is monotone.  The matrix is
not Hermitian for m >= 3 despite the real spectrum, so it is
diagonalized by the closed-form 2x2 eigensolver and the eigenvector
condition number is recorded.

All 2K+1 modes sit in one pair layout: pair m = 1..K+2 holds
u_m = (a_m, conj(a_{2-m})), with a zero pad slot where a_m (m > K) is
truncated away.  pair_matrices is the one encoding of the linearization:
the integrator propagates its G and subtracts G u from the velocity, and
nonlin.linear_mode_rhs is G u in mode order.  Everything works on stacks
of pairs at once: pair_apply multiplies 2x2 matrices into the pair
states, and propagator_tables turns a stack of G into e^{G dt},
phi1(G dt) and phi2(G dt), with no loop over m and no BLAS call.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import IllConditioned
from .tension import linear_coefficients

_COND_LIMIT = 1e8


@dataclass(frozen=True)
class ModePairSystem:
    """Coupled system for (a_m, conj(a_{2-m})), m >= 3."""
    m: int
    G: np.ndarray
    eigenvalues: np.ndarray       # of G itself
    eigenvectors: np.ndarray      # columns
    spectral_abscissa: float      # max real part of eig(G), < 0 under positivity
    eigen_cond: float             # condition number of the eigenvector matrix

    def __post_init__(self):
        for name in ("G", "eigenvalues", "eigenvectors"):
            arr = np.array(getattr(self, name), dtype=complex)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def minus8_eigenvalues(self):
        """Eigenvalues of -8 G: 2 A (m-1) and 2 (A + b_tilde) (m-1)."""
        return -8.0 * self.eigenvalues


def pair_matrices(m, coeffs, a1, K):
    """G of every pair m in an integer array, stacked as (len(m), 2, 2).

    The frozen modes a0, a1 and the modes beyond the truncation K carry
    no linear part: every entry of G that touches one of them is zero.
    So G = 0 for m = 1, only the mode-2 rate -(A + b_tilde)/4 is left for
    m = 2, and only the scalar rate of a_{2-m} is left for m > K.
    """
    m = np.asarray(m, dtype=float)
    a1 = complex(a1)
    u = (1.0 + a1) ** 2 / abs(1.0 + a1)
    A, B, Bt = coeffs.A, coeffs.B, coeffs.b_tilde
    G = np.empty(m.shape + (2, 2), dtype=complex)
    G[..., 0, 0] = (2.0 * m - 2.0) * A + m * Bt
    G[..., 0, 1] = -(m - 2.0) * B * u
    G[..., 1, 0] = -m * B * np.conj(u)
    G[..., 1, 1] = (2.0 * m - 2.0) * A + (m - 2.0) * Bt
    # which components of u_m = (a_m, conj(a_{2-m})) evolve
    live = np.stack(((m >= 2) & (m <= K), m >= 3), axis=-1)
    return np.where(live[..., :, None] & live[..., None, :], -0.125 * G, 0.0)


@lru_cache(maxsize=8)
def pair_layout(K):
    """(m, hi, lo): pairs 1..K+2 and their slots of a_m, a_{2-m}; 2K+1 is the pad.

    Cached per K, so the arrays are read-only.
    """
    m = np.arange(1, K + 3)
    layout = (m, np.where(m <= K, K + m, 2 * K + 1), K + 2 - m)
    for arr in layout:
        arr.flags.writeable = False
    return layout


def pair_apply(mats, v):
    """Each 2x2 matrix of mats (..., K+2, 2, 2) times its pair state of v.

    v (..., 2K+1) holds modes; the result (..., K+2, 2) is in the pair
    layout, and pair_modes maps it back.  Two elementwise products per
    row, summed in a fixed order: no BLAS call, so the result does not
    depend on the BLAS thread count.
    """
    _, hi, lo = pair_layout((v.shape[-1] - 1) // 2)
    padded = np.concatenate((v, np.zeros(v.shape[:-1] + (1,), dtype=complex)), axis=-1)
    u = np.stack((padded[..., hi], np.conj(padded[..., lo])), axis=-1)
    return (mats * u[..., None, :]).sum(axis=-1)


def pair_modes(out):
    """Modes (..., 2K+1) of a pair-layout stack (..., K+2, 2); drops the pad."""
    K = out.shape[-2] - 2
    _, hi, lo = pair_layout(K)
    new = np.empty(out.shape[:-2] + (2 * K + 2,), dtype=complex)
    new[..., hi] = out[..., 0]
    new[..., lo] = np.conj(out[..., 1])
    return new[..., :-1]


def _eig2(G):
    """Closed-form eigen-decomposition of a stack of 2x2 complex matrices.

    Returns (eigenvalues (..., 2), eigenvector columns (..., 2, 2)).
    Exact for diagonal input; otherwise uses the stable quadratic formula
    on the trace and determinant, and of the two null-vector expressions
    (b, lam - a) and (lam - d, c) keeps the larger one.
    """
    a, b = G[..., 0, 0], G[..., 0, 1]
    c, d = G[..., 1, 0], G[..., 1, 1]
    diag = (b == 0) & (c == 0)
    disc = np.sqrt((a - d) ** 2 + 4.0 * b * c + 0j)
    lam = np.stack(((a + d - disc) / 2.0, (a + d + disc) / 2.0), axis=-1)
    lam[diag] = np.stack((a, d), axis=-1)[diag]
    v1 = np.stack((np.broadcast_to(b[..., None], lam.shape), lam - a[..., None]), axis=-2)
    v2 = np.stack((lam - d[..., None], np.broadcast_to(c[..., None], lam.shape)), axis=-2)
    v = np.where((np.abs(v1).max(axis=-2) >= np.abs(v2).max(axis=-2))[..., None, :], v1, v2)
    nrm = np.sqrt(np.square(v.real).sum(axis=-2) + np.square(v.imag).sum(axis=-2))
    nrm[diag] = 1.0
    vecs = v / nrm[..., None, :]
    vecs[diag] = np.eye(2)
    return lam, vecs


def _det2(V):
    return V[..., 0, 0] * V[..., 1, 1] - V[..., 0, 1] * V[..., 1, 0]


def _cond2(V):
    """2-norm condition number of a stack of 2x2 matrices, in closed form.

    sigma_max^2 + sigma_min^2 = |V|_F^2 and sigma_max sigma_min = |det V|.
    """
    f = np.square(np.abs(V)).sum(axis=(-2, -1))
    det = np.abs(_det2(V))
    with np.errstate(divide="ignore"):
        return (f + np.sqrt(np.maximum(f * f - 4.0 * det * det, 0.0))) / (2.0 * det)


def build_pair_system(m, coeffs, a1):
    """Assemble the pair matrix for mode m >= 3 and diagonalize it."""
    if m < 3:
        raise ValueError("pair systems exist for m >= 3 only")
    G = pair_matrices([m], coeffs, a1, K=m)
    lam, vecs = _eig2(G)
    return ModePairSystem(
        m=m, G=G[0], eigenvalues=lam[0], eigenvectors=vecs[0],
        spectral_abscissa=float(np.max(lam[0].real)), eigen_cond=float(_cond2(vecs)[0]))


def _phi1_scalar(z):
    """(e^z - 1)/z with a series branch for |z| < 1e-4.

    The main branch uses e^z - 1 = 2 e^{z/2} sinh(z/2), which is free of
    cancellation for moderate |z|.
    """
    z = np.asarray(z, dtype=complex)
    small = np.abs(z) < 1e-4
    zs = np.where(small, 1.0, z)
    main = 2.0 * np.exp(zs / 2.0) * np.sinh(zs / 2.0) / zs
    series = 1.0 + z / 2.0 + z ** 2 / 6.0 + z ** 3 / 24.0 + z ** 4 / 120.0
    return np.where(small, series, main)


def _phi2_scalar(z):
    """(e^z - 1 - z)/z^2 = (phi1(z) - 1)/z with a series branch for |z| < 1e-3."""
    z = np.asarray(z, dtype=complex)
    small = np.abs(z) < 1e-3
    zs = np.where(small, 1.0, z)
    main = (2.0 * np.exp(zs / 2.0) * np.sinh(zs / 2.0) / zs - 1.0) / zs
    series = 0.5 + z / 6.0 + z ** 2 / 24.0 + z ** 3 / 120.0 + z ** 4 / 720.0
    return np.where(small, series, main)


def _matrix_functions(m, lam, V, cond, dt):
    """(e^{G dt}, phi1(G dt), phi2(G dt)) of a stack G = V diag(lam) V^-1.

    Each is V f(lam dt) V^-1 with the closed-form 2x2 inverse, summed as
    elementwise products: no BLAS call, no loop over the stack.  Diagonal
    G (V = I) gives exactly the scalar functions on the diagonal.
    """
    bad = np.flatnonzero(cond > _COND_LIMIT)
    if bad.size:
        i = bad[0]
        raise IllConditioned(
            f"pair m={int(m[i])}: eigenvector condition {cond[i]:.3g} exceeds {_COND_LIMIT:.0e}")
    Vinv = np.stack((np.stack((V[..., 1, 1], -V[..., 0, 1]), axis=-1),
                     np.stack((-V[..., 1, 0], V[..., 0, 0]), axis=-1)), axis=-2)
    Vinv = Vinv / _det2(V)[..., None, None]
    z = lam * dt
    return tuple(((V * f(z)[..., None, :])[..., None] * Vinv[..., None, :, :]).sum(axis=-2)
                 for f in (np.exp, _phi1_scalar, _phi2_scalar))


def propagator_tables(m, G, dt):
    """(e^{G dt}, phi1(G dt), phi2(G dt)) for a (n, 2, 2) stack of pair matrices.

    m labels the stack; IllConditioned names the first m whose
    eigenvector condition number exceeds the limit.
    """
    lam, V = _eig2(np.asarray(G, dtype=complex))
    return _matrix_functions(m, lam, V, _cond2(V), dt)


def propagator_matrices(sys, dt):
    """(e^{G dt}, phi1(G dt), phi2(G dt)) in one diagonalization pass."""
    tables = _matrix_functions([sys.m], sys.eigenvalues[None], sys.eigenvectors[None],
                               np.array([sys.eigen_cond]), dt)
    return tuple(t[0] for t in tables)


def spectrum_report(law, a1, m_max):
    """Rows (m, lambda1, lambda2, decay_rate) for 3 <= m <= m_max.

    lambda1, lambda2 are the eigenvalues of -8 G sorted ascending; the
    decay rate is min(lambda1, lambda2) / 8 and grows linearly in m.
    """
    if m_max < 3:
        raise ValueError("m_max must be >= 3")
    m = np.arange(3, m_max + 1)
    lam, _ = _eig2(pair_matrices(m, linear_coefficients(law, a1), a1, K=m_max))
    lams = np.sort((-8.0 * lam).real, axis=-1)
    return [{"m": int(mm), "lambda1": float(l1), "lambda2": float(l2),
             "decay_rate": float(l1 / 8.0)} for mm, (l1, l2) in zip(m, lams)]
