"""Exponential time differencing on the exact mode splitting.

Each step integrates the linear part of every mode exactly and treats
only the quadratic-and-higher residual L with a second-order
predictor-corrector.  All 2K+1 modes sit in one pair layout: pair
m = 1..K+2 holds u_m = (a_m, conj(a_{2-m})) with the 2x2 matrix G of
linear.pair_matrices, and

    m = 1:          a_1 paired with itself, G = 0 (a1 is frozen),
    m = 2:          (a_2, conj(a_0)); G keeps only the mode-2 rate
                    -(A + b_tilde)/4, the a_0 row is zero,
    3 <= m <= K:    the full coupled pair,
    m = K+1, K+2:   a_m is truncated away (a zero pad slot); G keeps only
                    the scalar rate of a_{2-m}.

Every pair takes the same update u+ = E u + dt [phi1(G dt) L +
phi2(G dt) (L* - L)], where L* is the residual re-evaluated at the
predictor; with G = 0 (phi1 = 1, phi2 = 1/2) this is exactly Heun, and
a diagonal G gives exactly the scalar exponential update.

Under the frozen-coefficient policy (default) the propagators are built
once from a1(0) and the coefficient drift lives inside the residual; the
refreshed policy rebuilds them from a1(t) every step.
"""

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .curve import FourierCurve, split
from .errors import ConfigError, InsufficientDecay, StepRejected, config_values
from .initdata import InitialDataSpec
from .linear import pair_matrices, propagator_tables
from .nonlin import eval_residual
from .norms import l2_norm, linf_norm, deriv_coeffs
from .tension import linear_coefficients

BLOWUP_FACTOR = 10.0


@dataclass(frozen=True)
class RunConfig:
    """Everything a run needs; JSON-mappable via from_dict/to_dict."""
    law: object
    initial: object                  # InitialDataSpec or FourierCurve
    K: int = 128
    M: int = None                    # default 4K
    dt: float = None                 # default 0.5 / fastest retained rate
    t_end: float = 1.0
    snapshot_every: float = None     # default 10 dt
    frozen_coefficients: bool = True
    watch_modes: tuple = (2, 3, -1)
    threads: int = 1                 # accepted for interface compatibility
    raw: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.M is not None and self.M < 4 * self.K:
            raise ConfigError(f"M={self.M} must be >= 4K = {4 * self.K}")
        for name in ("dt", "t_end", "snapshot_every"):
            value = getattr(self, name)
            if value is not None and not _positive_real(value):
                raise ConfigError(f"{name} must be positive and finite, got {value!r}")
        if self.dt is not None and self.t_end < self.dt:
            raise ConfigError("t_end must be >= dt")
        if not all(isinstance(k, numbers.Integral) and not isinstance(k, bool)
                   for k in self.watch_modes):
            raise ConfigError(f"watch_modes must be integers, got {self.watch_modes!r}")
        if not isinstance(self.frozen_coefficients, bool):
            raise ConfigError("frozen_coefficients must be true or false, "
                              f"got {self.frozen_coefficients!r}")

    @staticmethod
    def from_dict(d):
        from .tension import law_from_config
        if not isinstance(d, dict):
            raise ConfigError("run config must be a mapping")
        known = {"law", "initial_data", "K", "M", "dt", "t_end", "snapshot_every",
                 "frozen_coefficients", "watch_modes", "threads"}
        unknown = set(d) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        with config_values():
            return RunConfig(
                law=law_from_config(d["law"]),
                initial=InitialDataSpec.from_dict(d["initial_data"]),
                K=int(d.get("K", 128)), M=d.get("M"),
                dt=d.get("dt"), t_end=float(d.get("t_end", 1.0)),
                snapshot_every=d.get("snapshot_every"),
                frozen_coefficients=d.get("frozen_coefficients", True),
                watch_modes=tuple(d.get("watch_modes", (2, 3, -1))),
                threads=int(d.get("threads", 1)),
                raw=dict(d))


def _positive_real(x):
    return (isinstance(x, numbers.Real) and not isinstance(x, bool)
            and math.isfinite(x) and x > 0)


@dataclass
class Trajectory:
    """Snapshots plus per-snapshot diagnostics and the decay-fit summary."""
    snapshots: list
    table: list                       # dicts: t, |a_k| watches, l2_Y, ...
    watch_modes: tuple
    fit_rate: float = None
    a0_limit: complex = None
    a1_limit: complex = None

    @property
    def times(self):
        return np.array([row["t"] for row in self.table])


class _Propagators:
    """Per-(coefficients, a1_ref, dt) exact propagator tables for all modes."""

    def __init__(self, coeffs, a1_ref, dt, K):
        self.dt = dt
        self.coeffs = coeffs
        self.a1_ref = a1_ref
        # pair m = 1..K+2 holds u_m = (a_m, conj(a_{2-m})); a_m for m > K is
        # truncated away and reads and writes the zero pad slot 2K+1
        m = np.arange(1, K + 3)
        self.hi = np.where(m <= K, K + m, 2 * K + 1)
        self.lo = K + 2 - m
        # E, phi1, phi2 of every pair, stacked as one (3, K+2, 2, 2) array
        self.tables = np.stack(propagator_tables(m, pair_matrices(m, coeffs, a1_ref, K), dt))

    def advance(self, K, modes, L, L_star=None):
        """One ETD update of all modes; L_star=None gives the predictor."""
        v = np.zeros((3, 2 * K + 2), dtype=complex)  # modes, L, L* - L; then the pad
        v[0, :-1] = modes
        v[1, :-1] = L
        if L_star is not None:
            v[2, :-1] = L_star - L
        e_u, p1_l, p2_c = _pair_apply(self.tables, v, self.hi, self.lo)
        out = e_u + self.dt * (p1_l + p2_c)
        new = np.empty(2 * K + 2, dtype=complex)
        new[self.hi] = out[:, 0]
        new[self.lo] = np.conj(out[:, 1])
        return new[:-1]


def _pair_apply(mats, v, hi, lo):
    """Each 2x2 matrix in mats times its pair state (v[hi], conj(v[lo])).

    Works on stacks: mats (..., n, 2, 2) against v (..., N).  A sum of two
    elementwise products per row, in a fixed order: no BLAS call, so the
    result does not depend on the BLAS thread count.
    """
    u = np.stack((v[..., hi], np.conj(v[..., lo])), axis=-1)
    return (mats * u[..., None, :]).sum(axis=-1)


def default_dt(law, a1, K):
    """Resolve the fastest retained linear rate: dt = 0.5 / max rate."""
    coeffs = linear_coefficients(law, a1)
    fastest = (coeffs.A + coeffs.b_tilde) * max(K - 1, 1) / 4.0
    return 0.5 / fastest


def _guard_blowup(old, new):
    if not np.all(np.isfinite(new)):
        raise StepRejected(
            f"{int(np.count_nonzero(~np.isfinite(new)))} of {new.size} modes "
            "are non-finite after the step")
    floor = max(float(np.abs(old).max()), 1e-16)
    if float(np.abs(new).max()) > BLOWUP_FACTOR * floor:
        raise StepRejected(
            f"mode magnitude grew more than {BLOWUP_FACTOR:.0f}x in one step "
            f"({np.abs(old).max():.3g} -> {np.abs(new).max():.3g})")


def step(curve, law, dt, cfg, props=None):
    """One ETD-RK2 step of length dt.

    props carries the precomputed propagators; when omitted (or when
    the refreshed-coefficient policy is active) they are rebuilt from
    the current a1.
    """
    K = curve.K
    M = cfg.M if cfg.M is not None else 4 * K
    if props is None:
        a1_ref = curve.mode(1)
        props = _Propagators(linear_coefficients(law, a1_ref), a1_ref, dt, K)
    L = eval_residual(curve, law, M, props.coeffs, props.a1_ref)
    predictor = FourierCurve(props.advance(K, curve.modes, L), curve.time + dt)
    L_star = eval_residual(predictor, law, M, props.coeffs, props.a1_ref)
    new = props.advance(K, curve.modes, L, L_star)
    _guard_blowup(curve.modes, new)
    return FourierCurve(new, curve.time + dt)


def _diagnostics_row(curve, watch_modes):
    sp = split(curve)
    y = sp.y_modes
    row = {"t": float(curve.time),
           "l2_Y": l2_norm(y),
           "linf_Yprime": linf_norm(deriv_coeffs(y)),
           "a0_re": sp.a0.real, "a0_im": sp.a0.imag,
           "a1_re": sp.a1.real, "a1_im": sp.a1.imag}
    for k in watch_modes:
        row[f"abs_a{k}"] = abs(curve.mode(k))
    return row


def run(cfg):
    """Integrate to t_end, recording snapshots on the configured cadence.

    On a step error the exception propagates with trajectory.partial
    attached for post-mortem inspection.
    """
    law = cfg.law
    if isinstance(cfg.initial, FourierCurve):
        curve = cfg.initial
        if curve.K != cfg.K:
            raise ConfigError("initial curve truncation differs from config K")
    else:
        curve, _ = cfg.initial.make(cfg.K)

    a1_ref = split(curve).a1
    dt = cfg.dt if cfg.dt is not None else default_dt(law, a1_ref, cfg.K)
    if cfg.t_end < dt:
        raise ConfigError("t_end must be >= dt")
    n_steps = int(round(cfg.t_end / dt))
    snap_every = cfg.snapshot_every if cfg.snapshot_every is not None else 10 * dt
    snap_stride = max(1, int(round(snap_every / dt)))

    props = None
    if cfg.frozen_coefficients:
        props = _Propagators(linear_coefficients(law, a1_ref), a1_ref, dt, cfg.K)

    snapshots = [curve]
    table = [_diagnostics_row(curve, cfg.watch_modes)]
    try:
        for i in range(1, n_steps + 1):
            curve = step(curve, law, dt, cfg, props)
            # re-stamp with exact multiple of dt to keep times reproducible
            curve = FourierCurve(curve.modes, i * dt)
            if i % snap_stride == 0 or i == n_steps:
                snapshots.append(curve)
                table.append(_diagnostics_row(curve, cfg.watch_modes))
    except Exception as err:
        err.partial = Trajectory(snapshots, table, cfg.watch_modes)
        raise

    traj = Trajectory(snapshots, table, cfg.watch_modes)
    try:
        traj.fit_rate, traj.a0_limit, traj.a1_limit = fit_decay(traj)
    except InsufficientDecay:
        pass
    return traj


def _aitken(x0, x1, x2):
    """Aitken extrapolation of a geometric tail; falls back to the last value."""
    d1, d2 = x1 - x0, x2 - x1
    denom = d2 - d1
    if abs(denom) < 1e3 * np.finfo(float).eps * max(abs(x2), 1e-300):
        return x2
    return x2 - d2 * d2 / denom


def fit_decay(traj):
    """(rate, a0_limit, a1_limit) from the recorded trajectory.

    rate is the negated least-squares slope of log |Y|_L2 over the
    final half of the snapshots; the limits extrapolate a0, a1 from the
    last three snapshots.  Raises InsufficientDecay unless |Y| dropped
    by at least e^2 overall.
    """
    t = traj.times
    l2 = np.array([row["l2_Y"] for row in traj.table])
    if len(t) < 4:
        raise InsufficientDecay("need at least 4 snapshots to fit a decay rate")
    # the drop test tolerates roundoff so a run sitting exactly at e^2 passes
    if l2[0] <= 0 or l2[-1] <= 0 or l2[-1] * np.exp(2.0) > l2[0] * (1.0 + 1e-9):
        raise InsufficientDecay(
            f"|Y| dropped by {l2[0] / l2[-1] if l2[-1] > 0 else np.inf:.3g} < e^2")
    half = len(t) // 2
    tt, yy = t[half:], np.log(l2[half:])
    slope = np.polyfit(tt, yy, 1)[0]
    a0 = [complex(r["a0_re"], r["a0_im"]) for r in traj.table[-3:]]
    a1 = [complex(r["a1_re"], r["a1_im"]) for r in traj.table[-3:]]
    return float(-slope), _aitken(*a0), _aitken(*a1)
