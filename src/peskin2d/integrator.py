"""Exponential time differencing on the exact mode splitting.

Each step integrates the linear part of every mode exactly and treats
only the quadratic-and-higher residual L = N - G u with a second-order
predictor-corrector.  G, its pair layout and the batched 2x2 apply live
in linear, so the residual subtracts the very operator the propagators
integrate.  Every pair takes u+ = E u + dt [phi1(G dt) L +
phi2(G dt) (L* - L)], where L* is the residual re-evaluated at the
predictor; with G = 0 (phi1 = 1, phi2 = 1/2) this is exactly Heun, and a
diagonal G gives exactly the scalar exponential update.

Under the frozen-coefficient policy (default) the propagators are built
once from a1(0) and the coefficient drift lives inside the residual; the
refreshed policy rebuilds them from a1(t) every step.  iter_run yields
each snapshot as it is taken; run collects them into a Trajectory.
"""

import contextlib
from dataclasses import dataclass

import numpy as np

from .curve import FourierCurve, split
from .errors import REQUIRED, ConfigError, InsufficientDecay, StepRejected, read_config
from .initdata import InitialDataSpec
from .linear import _eig2, pair_apply, pair_layout, pair_matrices, pair_modes, propagator_tables
from .nonlin import eval_nonlinearity
from .norms import l2_norm, linf_norm, deriv_coeffs
from .tension import law_from_config, linear_coefficients

BLOWUP_FACTOR = 10.0
MAX_STEPS = 10 ** 6       # README simulate table gives each cap and its reason
MAX_SNAPSHOTS = 10 ** 4


_RUN_SCHEMA = {"law": ("object", REQUIRED), "initial_data": ("object", REQUIRED),
               "K": ("int", 128, (1, 2048)), "M": ("int", None, (None, 8192)),
               "dt": ("positive", None), "t_end": ("positive", 1.0),
               "snapshot_every": ("positive", None),
               "frozen_coefficients": ("bool", True),
               "threads": ("int", 1, (1, None))}  # accepted and ignored: existing configs pass it


@dataclass(frozen=True)
class RunConfig:
    """Everything a run needs; from_dict reads it from a JSON-style mapping."""
    law: object
    initial: object                  # InitialDataSpec, or FourierCurve at t = 0
    K: int = 128
    M: int = None                    # default 4K
    dt: float = None                 # default 0.5 / fastest retained rate
    t_end: float = 1.0
    snapshot_every: float = None     # default 10 dt
    frozen_coefficients: bool = True

    def __post_init__(self):
        if self.M is not None and (self.M % 2 or self.M < 4 * self.K):
            raise ConfigError(f"M={self.M} must be even and >= 4K = {4 * self.K}")

    @staticmethod
    def from_dict(d):
        values = read_config(d, _RUN_SCHEMA, "run config")
        del values["threads"]
        return RunConfig(law=law_from_config(values.pop("law")),
                         initial=InitialDataSpec.from_dict(values.pop("initial_data")),
                         **values)


@dataclass
class Trajectory:
    """Snapshots plus per-snapshot diagnostics and the decay-fit summary."""
    snapshots: list
    table: list                       # dicts keyed by TABLE_COLUMNS
    fit_rate: float = None
    a0_limit: complex = None
    a1_limit: complex = None

    @property
    def times(self):
        return np.array([row["t"] for row in self.table])

    def fit(self):
        """Fill the decay-fit fields by fit_decay; they stay None on InsufficientDecay."""
        with contextlib.suppress(InsufficientDecay):
            self.fit_rate, self.a0_limit, self.a1_limit = fit_decay(self.table)
        return self


class _Propagators:
    """Per-(law, a1_ref, dt) exact propagator tables for all modes."""

    def __init__(self, law, a1_ref, dt, K):
        self.dt = dt
        m = pair_layout(K)[0]
        self.G = pair_matrices(m, linear_coefficients(law, a1_ref), a1_ref, K)
        # E, phi1, phi2 of every pair, stacked as one (3, K+2, 2, 2) array
        self.tables = np.stack(propagator_tables(m, self.G, dt))

    def advance(self, modes, L, L_star=None):
        """One ETD update of all modes; L_star=None gives the predictor."""
        corr = np.zeros_like(L) if L_star is None else L_star - L
        e_u, p1_l, p2_c = pair_apply(self.tables, np.stack((modes, L, corr)))
        return pair_modes(e_u + self.dt * (p1_l + p2_c))

    def residual(self, curve, law, M):
        """L = N - G u: the velocity minus the linear part that advance integrates."""
        return (eval_nonlinearity(curve, law, M).n_modes
                - pair_modes(pair_apply(self.G, curve.modes)))


def default_dt(law, a1, K):
    """dt = 0.5 / the fastest retained linear rate, max |eigenvalue| of the pair stack."""
    lam, _ = _eig2(pair_matrices(pair_layout(K)[0], linear_coefficients(law, a1), a1, K))
    return 0.5 / float(np.abs(lam).max())


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


def step(curve, law, dt, M, props=None):
    """One ETD-RK2 step of length dt, with the boundary integral at M points.

    props carries the precomputed propagators; when omitted (the
    refreshed-coefficient policy) they are rebuilt from the current a1.
    """
    if props is None:
        props = _Propagators(law, curve.mode(1), dt, curve.K)
    L = props.residual(curve, law, M)
    predictor = FourierCurve(props.advance(curve.modes, L), curve.time + dt)
    L_star = props.residual(predictor, law, M)
    new = props.advance(curve.modes, L, L_star)
    _guard_blowup(curve.modes, new)
    return FourierCurve(new, curve.time + dt)


# The slowest linear modes about the circle: mode 2 decays alone at (A + b~)/4,
# pair m = 3 couples a_3 with conj(a_-1) at A/2 and (A + b~)/2, and every
# pair m >= 3 decays at a rate growing linearly in m.
WATCH_MODES = (2, 3, -1)
# diagnostics.csv columns, in order: every diagnostics row holds exactly these
TABLE_COLUMNS = ("t", *(f"abs_a{k}" for k in WATCH_MODES), "l2_Y", "linf_Yprime",
                 "a0_re", "a0_im", "a1_re", "a1_im")


def _diagnostics_row(curve):
    sp = split(curve)
    y = sp.y_modes
    values = (float(curve.time), *(abs(curve.mode(k)) for k in WATCH_MODES), l2_norm(y),
              linf_norm(deriv_coeffs(y)), sp.a0.real, sp.a0.imag, sp.a1.real, sp.a1.imag)
    return dict(zip(TABLE_COLUMNS, values))


def iter_run(cfg):
    """Integrate to t_end, yielding (curve, diagnostics row) at t = 0 and at
    each snapshot step, and keeping nothing.  A step error propagates only
    after every earlier snapshot has been yielded.
    """
    law = cfg.law
    if isinstance(cfg.initial, FourierCurve):
        curve = cfg.initial
        if curve.K != cfg.K:
            raise ConfigError("initial curve truncation differs from config K")
        if curve.time != 0.0:
            raise ConfigError(f"initial curve time must be 0, got {curve.time}")
    else:
        curve = cfg.initial.make(cfg.K)

    a1_ref = split(curve).a1
    dt = cfg.dt if cfg.dt is not None else default_dt(law, a1_ref, cfg.K)
    if cfg.t_end < dt:
        source = "" if cfg.dt is not None else (
            f", the law's default at K = {cfg.K}: 0.5 / its fastest linear rate")
        raise ConfigError(f"t_end = {cfg.t_end:g} must be >= dt = {dt:.4g}{source}")
    if cfg.t_end / dt > MAX_STEPS:  # compared as a float: the ratio may overflow to inf
        raise ConfigError(f"t_end / dt = {cfg.t_end / dt:.3g} steps exceeds {MAX_STEPS}")
    n_steps = int(round(cfg.t_end / dt))
    snap_every = cfg.snapshot_every if cfg.snapshot_every is not None else 10 * dt
    # a stride past t_end snapshots the same steps, t = 0 and the last; min keeps it finite
    snap_stride = max(1, int(round(min(snap_every, cfg.t_end) / dt)))
    n_snaps = 1 + -(-n_steps // snap_stride)
    if n_snaps > MAX_SNAPSHOTS:
        raise ConfigError(f"snapshot_every = {snap_every:.3g} gives {n_snaps} snapshots, "
                          f"more than {MAX_SNAPSHOTS}")

    M = cfg.M if cfg.M is not None else 4 * cfg.K
    props = _Propagators(law, a1_ref, dt, cfg.K) if cfg.frozen_coefficients else None

    yield curve, _diagnostics_row(curve)
    for i in range(1, n_steps + 1):
        curve = step(curve, law, dt, M, props)
        # re-stamp with exact multiple of dt to keep times reproducible
        curve = FourierCurve(curve.modes, i * dt)
        if i % snap_stride == 0 or i == n_steps:
            yield curve, _diagnostics_row(curve)


def run(cfg):
    """Collect iter_run(cfg) into a Trajectory and fit its decay."""
    snapshots, table = map(list, zip(*iter_run(cfg)))
    return Trajectory(snapshots, table).fit()


def _aitken(x0, x1, x2):
    """Aitken extrapolation of a geometric tail; falls back to the last value.

    The tail is geometric only if it contracts, |d2| < |d1|, and d2 - d1
    is more than roundoff of d1 and of the terms: d1 and d2 carry the
    rounding of x0, x1, x2, which exceeds that of d1 when |d1| << |x2|.
    A linear drift, or two differences equal to within roundoff, returns
    x2: there d2^2 / (d2 - d1) is no limit, only an inflated drift.
    """
    d1, d2 = x1 - x0, x2 - x1
    denom = d2 - d1
    roundoff = 1e3 * np.finfo(float).eps * max(abs(d1), abs(x2))
    if not (abs(d2) < abs(d1) and abs(denom) > roundoff):
        return x2
    return x2 - d2 * d2 / denom


def fit_decay(table):
    """(rate, a0_limit, a1_limit) from a trajectory's diagnostics rows.

    rate is the negated least-squares slope of log |Y|_L2 over the
    final half of the rows; the limits extrapolate a0, a1 from the
    last three rows.  Raises InsufficientDecay unless |Y| stayed
    positive and dropped by at least e^2 overall.
    """
    t = np.array([row["t"] for row in table])
    l2 = np.array([row["l2_Y"] for row in table])
    if len(t) < 4:
        raise InsufficientDecay("need at least 4 snapshots to fit a decay rate")
    # the drop test tolerates roundoff so a run sitting exactly at e^2 passes
    if np.any(l2 <= 0) or l2[-1] * np.exp(2.0) > l2[0] * (1.0 + 1e-9):
        raise InsufficientDecay(f"|Y| must stay positive and drop by e^2; it went "
                                f"from {l2[0]:.3g} to {l2[-1]:.3g}")
    half = len(t) // 2
    tt, yy = t[half:], np.log(l2[half:])
    slope = np.polyfit(tt, yy, 1)[0]
    a0 = [complex(r["a0_re"], r["a0_im"]) for r in table[-3:]]
    a1 = [complex(r["a1_re"], r["a1_im"]) for r in table[-3:]]
    return float(-slope), _aitken(*a0), _aitken(*a1)
