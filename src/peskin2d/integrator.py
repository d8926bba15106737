"""Exponential time differencing on the exact mode splitting.

Each step integrates the linear part of every mode exactly and treats
only the quadratic-and-higher residual L with a second-order
predictor-corrector:

    modes 0, 1:   no linear part; Heun's method on L,
    mode 2:       scalar rate (A + b_tilde)/4, exact exponential factor,
    pairs m >= 3: state u = (a_m, conj(a_{2-m})), exact e^{G dt},
    tail modes:   partners of m > K are outside truncation, so the pair
                  reduces to the scalar diagonal rate.

The update is u+ = E u + dt [phi1(G dt) L + phi2(G dt) (L* - L)], where
L* is the residual re-evaluated at the predictor; with G = 0 this is
exactly Heun.  Under the frozen-coefficient policy (default) the
propagators are built once from a1(0) and the coefficient drift lives
inside the residual; the refreshed policy rebuilds them from a1(t)
every step.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .curve import FourierCurve, split
from .errors import ConfigError, InsufficientDecay, StepRejected
from .initdata import InitialDataSpec
from .linear import (build_pair_system, mode2_system, propagator_matrices,
                     _phi1_scalar, _phi2_scalar)
from .nonlin import eval_nonlinearity, linear_mode_rhs
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
        if self.dt is not None and self.dt <= 0:
            raise ConfigError("dt must be positive")
        if self.dt is not None and self.t_end < self.dt:
            raise ConfigError("t_end must be >= dt")

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
        try:
            law = law_from_config(d["law"])
            initial = InitialDataSpec.from_dict(d["initial_data"])
            return RunConfig(
                law=law, initial=initial,
                K=int(d.get("K", 128)), M=d.get("M"),
                dt=d.get("dt"), t_end=float(d.get("t_end", 1.0)),
                snapshot_every=d.get("snapshot_every"),
                frozen_coefficients=bool(d.get("frozen_coefficients", True)),
                watch_modes=tuple(d.get("watch_modes", (2, 3, -1))),
                threads=int(d.get("threads", 1)),
                raw=dict(d))
        except KeyError as e:
            raise ConfigError(f"missing config key: {e}") from e


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
        self.rate2 = mode2_system(coeffs).rate
        z2 = -self.rate2 * dt
        self.e2 = math.exp(z2)
        self.p1_2 = float(np.real(_phi1_scalar(z2)))
        self.p2_2 = float(np.real(_phi2_scalar(z2)))
        pairs = [propagator_matrices(build_pair_system(m, coeffs, a1_ref), dt)
                 for m in range(3, K + 1)]
        # (E, phi1, phi2) of every pair m = 3..K, stacked as (K-2, 2, 2)
        # arrays: advance updates all pairs in one elementwise pass
        self.pair_E, self.pair_P1, self.pair_P2 = (
            np.array([p[i] for p in pairs], dtype=complex).reshape(-1, 2, 2)
            for i in range(3))
        # negative modes 2-m for m = K+1, K+2 have their partner truncated away:
        # the pair collapses to the scalar diagonal entry of G
        self.tail = []
        for m in (K + 1, K + 2):
            rate = ((2.0 * m - 2.0) * coeffs.A + (m - 2.0) * coeffs.b_tilde) / 8.0
            z = -rate * dt
            self.tail.append((math.exp(z), float(np.real(_phi1_scalar(z))),
                              float(np.real(_phi2_scalar(z)))))

    def advance(self, K, modes, L, L_star=None):
        """One ETD update of all modes; L_star=None gives the predictor."""
        new = np.array(modes)
        corr = (L_star - L) if L_star is not None else np.zeros_like(L)
        dt = self.dt
        # modes 0 and 1: plain quadrature of the residual
        for idx in (K + 0, K + 1):
            new[idx] = modes[idx] + dt * (L[idx] + 0.5 * corr[idx])
        # mode 2: scalar exponential
        new[K + 2] = self.e2 * modes[K + 2] + dt * (self.p1_2 * L[K + 2]
                                                    + self.p2_2 * corr[K + 2])
        # pairs (a_m, conj(a_{2-m})), m = 3..K, all at once
        m = np.arange(3, K + 1)
        hi, lo = K + m, K + 2 - m
        out = _pair_apply(self.pair_E, modes, hi, lo) + dt * (
            _pair_apply(self.pair_P1, L, hi, lo) + _pair_apply(self.pair_P2, corr, hi, lo))
        new[hi] = out[:, 0]
        new[lo] = np.conj(out[:, 1])
        # truncated tail: k = 2-m for m = K+1, K+2
        for m, (e, p1, p2) in zip((K + 1, K + 2), self.tail):
            idx = K + 2 - m
            new[idx] = e * modes[idx] + dt * (p1 * L[idx] + p2 * corr[idx])
        return new


def _pair_apply(mats, v, hi, lo):
    """Each 2x2 matrix in mats times its pair state (v[hi], conj(v[lo])).

    A sum of two elementwise products per row, in a fixed order: no BLAS
    call, so the result does not depend on the BLAS thread count.
    """
    u = np.stack((v[hi], np.conj(v[lo])), axis=1)
    return (mats * u[:, None, :]).sum(axis=2)


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
    sp = split(curve)
    if props is None:
        a1_ref = sp.a1
        props = _Propagators(linear_coefficients(law, a1_ref), a1_ref, dt, K)
    coeffs, a1_ref = props.coeffs, props.a1_ref

    ev = eval_nonlinearity(curve, law, M)
    L = ev.n_modes - linear_mode_rhs(sp.y_modes, coeffs, a1_ref)

    predictor = props.advance(K, curve.modes, L)
    pred_curve = FourierCurve(predictor, curve.time + dt)
    sp_pred = split(pred_curve)
    ev_star = eval_nonlinearity(pred_curve, law, M)
    L_star = ev_star.n_modes - linear_mode_rhs(sp_pred.y_modes, coeffs, a1_ref)

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
