"""Correctness checks on what ``peskin2d.cli.main`` wrote.

Each function returns a list of problems; an empty list means the output
passed.  The harness counts one failed operation per call with problems.
"""

import csv
import json
import math
import os

import numpy as np

from workloads import expected_snapshots, expected_steps

# Final modes: max |x - ref| <= MODES_RTOL * max |ref|.
MODES_RTOL = 1e-9
# Report numbers: |x - ref| <= REPORT_TOL * max(|ref|, 1).
REPORT_TOL = 1e-9
# Seeded small data against the exactly integrated linearization: the
# ratio |final - linear|_2 / |linear|_2 is the nonlinear residual, and it
# scales in proportion to the nonlinear term (scaling that term by c
# scales the ratio by c; c = 0 gives 5e-16).  Only the random phases
# change with the seed, so the ratio stays near one value per workload:
# over seeds 0-39 it was 1.67e-4 to 2.01e-4 (mean 1.83e-4, sd 6%) on
# wide256 and 6.4e-4 to 9.8e-4 (mean 7.7e-4, sd 10%) on refresh64; at
# the smoke test's K = 8, 5.7e-5 to 7.0e-5 and 1.4e-4 to 2.4e-4.  The
# check wants it within a factor LINEAR_FACTOR of that mean, so a
# nonlinear term off by that factor, or dropped, fails at every seed.
LINEAR_RATIO = {("wide256", False): 1.83e-4, ("refresh64", False): 7.7e-4,
                ("wide256", True): 6.3e-5, ("refresh64", True): 1.8e-4}
LINEAR_FACTOR = 1.5


def manifest_hashes(out_dir):
    with open(os.path.join(out_dir, "manifest.json")) as fh:
        return json.load(fh)["outputs"]


def snapshot_names(out_dir):
    return sorted(n for n in os.listdir(out_dir)
                  if n.startswith("snapshot_") and n.endswith(".json"))


def load_modes(path):
    with open(path) as fh:
        d = json.load(fh)
    return float(d["time"]), int(d["K"]), np.array([complex(re, im) for re, im in d["modes"]])


def check_simulate(out_dir, cfg, n_steps):
    """Step count, snapshot count, final time and finite modes of a simulate run."""
    problems = []
    want_steps = expected_steps(cfg)
    if n_steps != want_steps:
        problems.append(f"{n_steps} steps, expected {want_steps}")
    names = snapshot_names(out_dir)
    if len(names) != expected_snapshots(cfg):
        problems.append(f"{len(names)} snapshots, expected {expected_snapshots(cfg)}")
    for name in names:
        t, K, modes = load_modes(os.path.join(out_dir, name))
        if K != cfg["K"] or modes.size != 2 * K + 1:
            problems.append(f"{name}: K={K}, expected {cfg['K']}")
        if not np.all(np.isfinite(modes)):
            problems.append(f"{name}: non-finite modes")
    if names:
        t_last = load_modes(os.path.join(out_dir, names[-1]))[0]
        if abs(t_last - cfg["t_end"]) > 1e-12 * max(1.0, cfg["t_end"]):
            problems.append(f"final snapshot at t={t_last!r}, expected {cfg['t_end']!r}")
    return problems


def _numbers(obj):
    """All numbers in a JSON value, in a fixed (sorted-key) order."""
    if isinstance(obj, bool) or obj is None:
        return []
    if isinstance(obj, (int, float)):
        return [float(obj)]
    if isinstance(obj, dict):
        return [x for k in sorted(obj) for x in _numbers(obj[k])]
    if isinstance(obj, list):
        return [x for v in obj for x in _numbers(v)]
    return []


def report_numbers(path):
    """Numbers of a JSON report or a CSV table, in file order."""
    if path.endswith(".csv"):
        with open(path) as fh:
            rows = list(csv.reader(fh))[1:]
        return [float(v) for row in rows for v in row]
    with open(path) as fh:
        return _numbers(json.load(fh))


def check_report(path, allowed_inf=()):
    """Finite numbers; positions in allowed_inf may hold +inf by definition."""
    vals = report_numbers(path)
    bad = [i for i, v in enumerate(vals)
           if not math.isfinite(v) and not (i in allowed_inf and v == math.inf)]
    return [f"{os.path.basename(path)}: non-finite value at {bad[:3]}"] if bad else []


def close(values, ref, tol, floor):
    """Equal (infinities included) or within tol * max(max |finite ref|, floor)."""
    x, r = np.asarray(values), np.asarray(ref)
    if x.shape != r.shape:
        return False
    scale = max(float(np.abs(r[np.isfinite(r)]).max(initial=0.0)), floor)
    with np.errstate(invalid="ignore"):
        near = np.abs(x - r) <= tol * scale
    return bool(np.all((x == r) | near))


def check_modes_reference(final_modes, ref_modes):
    ref = np.array([complex(re, im) for re, im in ref_modes])
    if not close(final_modes, ref, MODES_RTOL, 1e-300):
        return ["final modes differ from the stored reference"]
    return []


def check_report_reference(path, ref_values):
    if not close(report_numbers(path), ref_values, REPORT_TOL, 1.0):
        return [f"{os.path.basename(path)} differs from the stored reference"]
    return []


def linear_prediction(y0, coeffs, t):
    """Exact solution at time t of the linearized mode system from y0.

    The generator is the closed-form linear velocity ``linear_mode_rhs``
    (checked against a finite-difference Jacobian by the test suite).  It
    couples a_m with conj(a_{2-m}), so each pair (m, 2-m) is a complex 2x2
    system exponentiated in closed form; other modes evolve alone.
    """
    from peskin2d.nonlin import linear_mode_rhs
    K = (y0.size - 1) // 2

    def rhs_of(k):
        e = np.zeros(2 * K + 1, dtype=complex)
        e[K + k] = 1.0
        return linear_mode_rhs(e, coeffs, 0.0)

    out = np.array(y0, dtype=complex)
    rhs = {k: rhs_of(k) for k in range(-K, K + 1)}
    for m in range(3, K + 1):
        j = 2 - m
        a, b = rhs[m][K + m], rhs[j][K + m]
        c, d = np.conj(rhs[m][K + j]), np.conj(rhs[j][K + j])
        p = 0.5 * (a + d) * t
        delta = np.sqrt((0.5 * (a - d) * t) ** 2 + b * c * t * t + 0j)
        sinhc = np.sinh(delta) / delta if abs(delta) > 1e-12 else 1.0
        ch = np.cosh(delta)
        u0, u1 = y0[K + m], np.conj(y0[K + j])
        n00, n01 = 0.5 * (a - d) * t, b * t
        n10, n11 = c * t, -0.5 * (a - d) * t
        v0 = np.exp(p) * (ch * u0 + sinhc * (n00 * u0 + n01 * u1))
        v1 = np.exp(p) * (ch * u1 + sinhc * (n10 * u0 + n11 * u1))
        out[K + m], out[K + j] = v0, np.conj(v1)
    # mode 2 and the truncated tail k = 2 - m, m = K+1, K+2: scalar rates
    for k in (2, 1 - K, -K):
        out[K + k] = np.exp(rhs[k][K + k] * t) * y0[K + k]
    return out


def check_linear_theory(out_dir, cfg, workload, tiny):
    """Seeded random-decay data departs from the exact linear evolution by
    the workload's nonlinear residual."""
    from peskin2d.tension import law_from_config, linear_coefficients
    names = snapshot_names(out_dir)
    t0, _, y0 = load_modes(os.path.join(out_dir, names[0]))
    t1, _, y1 = load_modes(os.path.join(out_dir, names[-1]))
    coeffs = linear_coefficients(law_from_config(cfg["law"]), 0.0)
    pred = linear_prediction(y0, coeffs, t1 - t0)
    ratio = float(np.linalg.norm(y1 - pred) / np.linalg.norm(pred))
    want = LINEAR_RATIO[workload, tiny]
    if not want / LINEAR_FACTOR <= ratio <= want * LINEAR_FACTOR:
        return [f"final modes deviate {ratio:.3g} from the linear evolution, "
                f"expected {want:.3g} within a factor {LINEAR_FACTOR}"], ratio
    return [], ratio
