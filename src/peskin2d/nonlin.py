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

X(s_j), X(r_p) and X'(r_p) come from one stacked synthesis.  X(r_p),
H(r_p) and i e^{-ir/2} become rows of one read-only strided window over
a reversed, doubled 1-D array; e^{-ir/2} is taken at r = s_j - alpha_q
itself, so it changes sign where that point wraps below 0, and its
window depends on M alone.  The sum runs over tiles of outer points, and
no M x M array is formed.  A tile holds max(TILE_ROWS, TILE_POINTS // M)
rows, but no more than the B M rows of a B-curve stack: 64 at M = 256,
and 32 from M = 512 up, so each pass's fixed cost is spread over at
least TILE_POINTS points where the grid has them.  Two caches serve
each M: the read-only O(M) workspace and the phase window.  Every tile
pass writes with out= into four arrays (48 bytes a point: 0.75 MiB at
M = 256) carved from curve.thread_scratch, the thread's one scratch
buffer: as large as its largest request, shared with the kernel lattice,
freed when the thread exits.  So no warm call allocates a tile-sized
array, and threads may evaluate at once.  The passes run with a one-row
ufunc buffer, so numpy reads strided and broadcast operands in place.
Row sums are numpy reductions in a fixed order, not BLAS calls.

Every evaluation runs on a stack of curves, modes (B, 2K+1): one curve
is a stack of one, and eval_nonlinearity_stack and the finite-difference
Jacobian of jacobian_errors pass more.  Each row goes through the same
operations in the same order as that curve on its own, so a stack equals
the loop of single evaluations bit for bit.  A stack runs
max(1, STACK_POINTS // M) curves per pass: 25 at M = 160, 4 at
M = 1024.  A tile holds the same rows of each of the pass's B curves, a
B-th of its height each, in the same scratch: no tile grows, and a
pass's O(B M) arrays stay near STACK_POINTS values.
"""

import contextlib
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .curve import (_grid_to_modes, fourier_samples, half_kernel, split, thread_scratch,
                    wavenumbers)
from .errors import ConfigError, GeometryError, StepRejected
from .linear import pair_apply, pair_layout, pair_matrices, pair_modes
from .tension import linear_coefficients, small_t

CHORD_ARC_MIN = 0.1
TILE_ROWS = 32           # least outer points per tile
TILE_POINTS = 2 ** 14    # (s, alpha) points per tile below M = 512: see _tile_rows
STACK_POINTS = 2 ** 12   # grid values per pass of a stack: see _stack_chunk


@dataclass(frozen=True)
class NonlinearityEvaluation:
    """Velocity modes (|k| <= K) and grid values on s_j."""
    n_modes: np.ndarray
    grid_values: np.ndarray

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


@lru_cache(maxsize=4)
def _phase_rows(M):
    """The (M, M) window of i e^{-ir/2} at r = s_j - alpha_q: it depends on M alone."""
    return _alpha_rows(_workspace(M)[3], -1.0)


@contextlib.contextmanager
def _row_buffer(M):
    """numpy's ufunc buffer at one tile row; set by callers, not the _chord_tiles generator."""
    old = np.setbufsize(16 * -(-M // 16))  # a multiple of 16
    try:
        yield
    finally:
        np.setbufsize(old)


def _check_quadrature(M, K):
    if M % 2 != 0 or M < 2 * K + 2:
        raise ConfigError(f"quadrature size {M} invalid for K={K}")


def _samples(modes, M):
    """X(s_j), X(r_p) and X'(r_p), (3, B, M), of modes (B, 2K+1), in one synthesis."""
    k = wavenumbers((modes.shape[-1] - 1) // 2)
    shift = np.exp(1j * k * (np.pi / M))
    return fourier_samples(k, np.stack((modes, modes * shift, 1j * k * modes * shift)), M)


def _alpha_rows(values, wrap_sign=1.0):
    """Read-only (..., M, M) view of offset-node values at r = s_j - alpha_q.

    Entry [..., j, q] is values[..., (j - q - 1) mod M], times wrap_sign
    where j <= q (there s_j - alpha_q = r_p - 2 pi).  That is element
    M - 1 - j + q of the row's reversed, doubled array (2M - 1 values):
    one strided view whose rows step back and columns forward.
    """
    M = values.shape[-1]
    flipped = values[..., ::-1]
    doubled = np.concatenate((flipped[..., 1:], wrap_sign * flipped), axis=-1)
    step = doubled.strides[-1]
    return as_strided(doubled[..., M - 1:], values.shape + (M,),
                      doubled.strides[:-1] + (-step, step), writeable=False)


def _tile_rows(M):
    """Outer points per tile: TILE_ROWS, or TILE_POINTS // M where that is more."""
    return max(TILE_ROWS, TILE_POINTS // M)


def _stack_chunk(M):
    """Curves per pass of a stack, at most _tile_rows(M) since STACK_POINTS <= TILE_POINTS."""
    return max(1, STACK_POINTS // M)


def _tile_views(B, M):
    """b, b^2, |b|^2 and a real temporary: (B, height, M) views of thread_scratch.

    For B <= _tile_rows(M), a tile holds the same rows of each curve, at
    most M of each; a short last tile takes the leading [:, :n, :] rows.
    _grid_values and its _chord_tiles scan get the same four views.
    """
    shape = (2, B, min(_tile_rows(M), B * M) // B, M)
    n = shape[1] * shape[2] * M
    buf = thread_scratch(3 * n)
    return (*buf[:2 * n].reshape(shape), *buf[2 * n:3 * n].view(float).reshape(shape))


def _chord_tiles(xs, xr, M):
    """Yield (rows, b, |b|^2) tile by tile, b = e^{is/2} (1 + i X~).

    xs and xr are (B, M), one row per curve of the stack.  b and |b|^2
    live in the thread's tile scratch (_tile_views): they are valid only
    until the next tile is drawn, and one thread must not interleave two
    scans at the same M.
    """
    exp_half_s, c, _, _, _ = _workspace(M)
    b_tile, _, abs2_tile, tmp_tile = _tile_views(len(xs), M)
    xr_rows = _alpha_rows(xr)
    phase_rows = _phase_rows(M)
    height = b_tile.shape[-2]
    for start in range(0, M, height):
        rows = slice(start, min(start + height, M))
        n = rows.stop - start
        b = np.subtract(xr_rows[:, rows, :], xs[:, rows, None], out=b_tile[:, :n, :])
        b *= phase_rows[rows]
        b *= c
        b += exp_half_s[rows, None]
        abs2 = np.square(b.real, out=abs2_tile[:, :n, :])
        abs2 += np.square(b.imag, out=tmp_tile[:, :n, :])
        yield rows, b, abs2


def _grid_values(modes, law, M):
    """Velocity on the grid s_j, (B, M), of the stack of modes (B, 2K+1)."""
    _check_quadrature(M, (modes.shape[-1] - 1) // 2)
    bad = np.count_nonzero(~np.isfinite(modes))
    if bad:
        # NaN compares False against every guard below
        raise StepRejected(f"{bad} of {modes.size} modes are non-finite "
                           "on entry to the boundary integral")
    exp_half_s, _, conj_w, _, exp_r = _workspace(M)

    xs, xr, xr_prime = _samples(modes, M)
    g = 1.0 - 1j * np.conj(exp_r) * xr_prime
    # small_t checks the stretch against the law before g^2 can overflow
    conj_h_rows = _alpha_rows(small_t(law, np.abs(g)) * np.conj(exp_r * g * g))

    # the chord-arc minimum covers every tile: after a violation the
    # scan goes on, but the integrand is skipped
    min2 = np.inf
    row_sums = np.empty((len(modes), M), dtype=complex)
    _, b_sq_tile, _, tmp_tile = _tile_views(len(modes), M)
    with _row_buffer(M):
        for rows, b, abs2 in _chord_tiles(xs, xr, M):
            min2 = min(min2, float(abs2.min()))
            if min2 <= CHORD_ARC_MIN ** 2:
                continue
            n = b.shape[-2]
            # rho = Re[H conj(b)^2] / |b|^4 = Re[conj(H) b^2] / |b|^4, written
            # contiguously: b *= rho is a third faster than with a strided rho
            b_sq = np.multiply(b, b, out=b_sq_tile[:, :n, :])
            b_sq *= conj_h_rows[:, rows, :]
            abs4 = np.multiply(abs2, abs2, out=tmp_tile[:, :n, :])
            rho = np.divide(b_sq.real, abs4, out=abs4)
            b *= rho
            b *= conj_w
            row_sums[:, rows] = b.sum(axis=-1)
    if min2 <= CHORD_ARC_MIN ** 2:
        raise GeometryError(
            f"chord-arc ratio {np.sqrt(min2):.4g} <= {CHORD_ARC_MIN}: "
            "curve too close to self-intersection")
    return (-1j / (2.0 * M)) * exp_half_s * row_sums


def eval_nonlinearity(curve, law, M):
    """Evaluate the boundary-integral velocity of the curve.

    Preconditions: M even with M >= 2K+2 (M >= 4K recommended for
    dealiased accuracy); every mode finite (else StepRejected); the
    sampled chord-arc ratio must exceed 0.1 (else GeometryError) and the
    stretch |XX'| must stay inside the law's validity interval (else
    TensionDomainError).  Threads may evaluate at once.
    """
    grid_values = _grid_values(curve.modes[None], law, M)[0]
    return NonlinearityEvaluation(n_modes=_grid_to_modes(grid_values, curve.K),
                                  grid_values=grid_values)


def eval_nonlinearity_stack(modes, law, M):
    """Velocity modes (B, 2K+1) of every curve in a (B, 2K+1) stack of modes.

    Row i is eval_nonlinearity(FourierCurve(modes[i]), law, M).n_modes bit
    for bit.  The stack runs _stack_chunk(M) curves per pass, so its
    memory beyond the output does not grow with B.  A stack with one
    failing curve raises the class of error that curve raises on its own.
    """
    modes = np.asarray(modes, dtype=complex)
    K = (modes.shape[-1] - 1) // 2
    out = np.empty_like(modes)
    step = _stack_chunk(M)
    for first in range(0, len(modes), step):
        chunk = slice(first, first + step)
        out[chunk] = _grid_to_modes(_grid_values(modes[chunk], law, M), K)
    return out


def chord_arc_ratio(curve, M=None):
    """Minimum sampled chord-arc ratio |XX(r)-XX(s)| / |2 sin((s-r)/2)|.

    M must be even with M >= 2K+2 (else ConfigError), as for eval_nonlinearity.
    """
    M = M if M is not None else max(64, 4 * curve.K)
    _check_quadrature(M, curve.K)
    xs, xr, _ = _samples(curve.modes[None], M)
    with _row_buffer(M):
        min2 = min(float(abs2.min()) for _, _, abs2 in _chord_tiles(xs, xr, M))
    return float(np.sqrt(min2))


def linear_mode_rhs(y_modes, coeffs, a1):
    """Linearized velocity modes c_k: G u of linear.pair_matrices in mode order.

    That is the operator the integrator propagates.  In closed form

    c_k = -(A/8)(2|k| + |k-1| - |k+1|) a_k - (b_tilde/8) |k| a_k
          + (B/8) ((1+a1)^2/|1+a1|) |2-k| conj(a_{2-k}),

    with c_0 = c_1 = 0 and no partner beyond |k| <= K.  The coupling sign
    is pinned down by the decoupled pair systems and confirmed by the
    finite-difference Jacobian of the full velocity (jacobian_errors),
    which verify-linearization and the test suite check to 1e-6 relative.
    y_modes may be a stack (..., 2K+1).
    """
    y = np.asarray(y_modes, dtype=complex)
    K = (y.shape[-1] - 1) // 2
    return pair_modes(pair_apply(pair_matrices(pair_layout(K)[0], coeffs, a1, K), y))


def jacobian_errors(law, a1, k_max, delta, M):
    """Relative error of the finite-difference Jacobian of the velocity, per direction.

    About the circle (1 + a1) e^{is} at K = k_max + 2, each direction e is
    e_k or i e_k (in that order) for k = -k_max..k_max other than the
    frozen 0 and 1.  Its error is max |J e - c| / max |c| over the modes,
    with J e = (N(X + delta e) - N(X - delta e)) / (2 delta) from
    eval_nonlinearity at quadrature size M and c = linear_mode_rhs(e).  All
    perturbed curves go through one stacked evaluation, and G is applied to
    every direction at once.
    """
    coeffs = linear_coefficients(law, a1)
    K = k_max + 2
    ks = np.array([k for k in range(-k_max, k_max + 1) if k not in (0, 1)])
    dirs = np.zeros((2 * ks.size, 2 * K + 1), dtype=complex)
    dirs[np.arange(2 * ks.size), np.repeat(K + ks, 2)] = np.tile([1.0, 1j], ks.size)
    base = np.zeros(2 * K + 1, dtype=complex)
    base[K + 1] = a1
    n = eval_nonlinearity_stack(np.concatenate((base + delta * dirs, base - delta * dirs)),
                                law, M)
    jac = (n[:len(dirs)] - n[len(dirs):]) / (2.0 * delta)
    c = linear_mode_rhs(dirs, coeffs, a1)
    return np.abs(jac - c).max(axis=1) / np.abs(c).max(axis=1)


def eval_residual(curve, law, M):
    """Residual modes L_k = N_k - c_k, the linear part taken about the curve's own a1.

    For data of size eps the residual is O(eps^2).
    """
    sp = split(curve)
    return (eval_nonlinearity(curve, law, M).n_modes
            - linear_mode_rhs(sp.y_modes, linear_coefficients(law, sp.a1), sp.a1))
