"""Elasticity laws and the scalar coefficients of the linearized problem.

A tension law maps the local stretch r = |curve derivative| to a positive
tension tau(r).  The evolution equation only ever sees the reduced form
T(r) = tau(r)/r, its derivative, and the two numbers

    A = T(|1 + a1|),    B = T'(|1 + a1|),

evaluated at the first-mode coefficient a1 of the current curve.  The
combination A + |1 + a1| * B equals tau'(|1 + a1|) and controls every
linear decay rate, so it must stay positive.
"""

import inspect
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, TensionDomainError, read_config

DEFAULT_INTERVAL = (0.5, 2.0)


class TensionLaw:
    """Scalar elasticity law tau(r) with an analytic derivative.

    evaluate and derivative must accept numpy arrays.  Positivity of tau
    and tau' on [r_min, r_max] is checked on a sample grid at
    construction unless check_positivity is False (diagnostic mode).
    """

    def __init__(self, evaluate, derivative, label,
                 r_min=DEFAULT_INTERVAL[0], r_max=DEFAULT_INTERVAL[1],
                 check_positivity=True):
        if not (0 < r_min < r_max):
            raise ConfigError(f"invalid validity interval [{r_min}, {r_max}]")
        self.evaluate = evaluate
        self.derivative = derivative
        self.label = label
        self.r_min = float(r_min)
        self.r_max = float(r_max)
        if check_positivity:
            bad = self.positivity_failures()
            if bad.size:
                raise ConfigError(f"law '{label}' needs finite tau > 0 and tau' > 0, "
                                  f"fails at r={bad[:5]}...")

    def positivity_failures(self):
        """Points of a 256-point grid on [r_min, r_max] where tau or tau' is not finite and > 0."""
        if not np.isfinite(self.r_max):
            raise ConfigError(f"cannot check the positivity of '{self.label}' on the "
                              f"infinite interval [{self.r_min}, {self.r_max}]")
        r = np.linspace(self.r_min, self.r_max, 256)
        with np.errstate(all="ignore"):
            tau, dtau = self.evaluate(r), self.derivative(r)
            ok = np.isfinite(tau) & np.isfinite(dtau) & (tau > 0) & (dtau > 0)
        return r[~ok]

    def check_domain(self, r):
        r = np.asarray(r, dtype=float)
        if not r.size:
            return
        # NaN carries through min and max, so lo and hi see every non-finite value
        lo, hi = r.min(), r.max()
        if not (np.isfinite(lo) and np.isfinite(hi)):
            raise TensionDomainError(
                f"stretch must be finite, got {np.count_nonzero(~np.isfinite(r))} "
                "non-finite value(s)")
        if lo <= 0:
            raise TensionDomainError(f"stretch must be positive, got {lo}")
        if lo < self.r_min or hi > self.r_max:
            raise TensionDomainError(
                f"stretch in [{lo:.6g}, {hi:.6g}] leaves the "
                f"validity interval [{self.r_min}, {self.r_max}] of '{self.label}'")

    def __repr__(self):
        return f"TensionLaw({self.label!r}, [{self.r_min}, {self.r_max}])"


@dataclass(frozen=True)
class LinearCoefficients:
    """Coefficients A = T(|1+a1|), B = T'(|1+a1|), b_tilde = |1+a1| B.

    tension_deriv stores A + b_tilde, which equals tau'(|1+a1|).
    """
    A: float
    B: float
    b_tilde: float
    tension_deriv: float


def hookean(k0=1.0, **kw):
    """Linear law tau(r) = k0 * r."""
    if k0 <= 0:
        raise ConfigError("hookean law needs k0 > 0")
    return TensionLaw(lambda r: k0 * np.asarray(r, dtype=float),
                      lambda r: k0 * np.ones_like(np.asarray(r, dtype=float)),
                      f"hookean(k0={k0})", **kw)


def cubic(c=1.0, **kw):
    """Nonlinear law tau(r) = r + c * r^3."""
    if c <= 0:
        raise ConfigError("cubic law needs c > 0")
    return TensionLaw(lambda r: np.asarray(r, dtype=float) + c * np.asarray(r, dtype=float) ** 3,
                      lambda r: 1.0 + 3.0 * c * np.asarray(r, dtype=float) ** 2,
                      f"cubic(c={c})", **kw)


def power(p=2.0, **kw):
    """Power law tau(r) = r^p, p > 0."""
    if p <= 0:
        raise ConfigError("power law needs p > 0")
    return TensionLaw(lambda r: np.asarray(r, dtype=float) ** p,
                      lambda r: p * np.asarray(r, dtype=float) ** (p - 1.0),
                      f"power(p={p})", **kw)


def affine(c0=1.0, c1=1.0, **kw):
    """Affine law tau(r) = c0 + c1 * r; c1 < 0 gives a diagnostic anti-monotone law."""
    return TensionLaw(lambda r: c0 + c1 * np.asarray(r, dtype=float),
                      lambda r: c1 * np.ones_like(np.asarray(r, dtype=float)),
                      f"affine(c0={c0},c1={c1})", **kw)


_BUILDERS = {
    "hookean": (hookean, ("k0",)),
    "cubic": (cubic, ("c",)),
    "power": (power, ("p",)),
    "affine": (affine, ("c0", "c1")),
}


_LAW_SCHEMAS = {
    kind: {**{p: ("real", inspect.signature(fn).parameters[p].default) for p in names},
           "r_min": ("positive", DEFAULT_INTERVAL[0]),
           "r_max": ("positive", DEFAULT_INTERVAL[1]), "check_positivity": ("bool", True)}
    for kind, (fn, names) in _BUILDERS.items()}


def law_from_config(cfg):
    """Build a law from a JSON-style mapping, e.g. {"law": "cubic", "c": 1.0}.

    Optional keys: r_min / r_max override the validity interval;
    check_positivity=false builds a diagnostic law without the
    positivity gate (its failures are then reported, not hidden).
    """
    values = read_config(cfg, _LAW_SCHEMAS, "law", dispatch="law")
    return _BUILDERS[values.pop("law")][0](**values)


def small_t(law, r):
    """Reduced tension T(r) = tau(r)/r."""
    law.check_domain(r)
    r = np.asarray(r, dtype=float)
    out = law.evaluate(r) / r
    return out if out.ndim else float(out)


def small_t_prime(law, r):
    """Derivative T'(r) = tau'(r)/r - tau(r)/r^2."""
    law.check_domain(r)
    r = np.asarray(r, dtype=float)
    out = law.derivative(r) / r - law.evaluate(r) / r ** 2
    return out if out.ndim else float(out)


def linear_coefficients(law, a1):
    """Coefficients of the linearization around the circle (1 + a1) e^{is}.

    small_t raises TensionDomainError if r = |1 + a1| leaves the validity
    interval: the curve degenerated too far from the unit circle.
    tension_deriv = A + r B equals tau'(r) for any law, so a wrong
    law.derivative shows only in verify-linearization's Jacobian check.
    """
    r = abs(1.0 + complex(a1))
    A = small_t(law, r)
    B = small_t_prime(law, r)
    return LinearCoefficients(A=A, B=B, b_tilde=r * B, tension_deriv=A + r * B)
