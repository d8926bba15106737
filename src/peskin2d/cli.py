"""Command-line entry point.

Subcommands:
    simulate              integrate a run config, write snapshots + diagnostics
    linear-spectrum       CSV table of pair-system eigenvalues and decay rates
    verify-kernels        JSON report: kernel identities and fitted bound constants
    measure-norms         CSV of S/Z1/Z2/W diagnostics along a stored trajectory
    fit-decay             JSON decay rate and terminal circle of a stored trajectory
    verify-linearization  JSON report: finite-difference Jacobian vs closed form

Every command writes a manifest.json (config, package version, sha256 of
each output file) next to its outputs.  Exit codes are part of the
contract:

    0 success            1 verification failed     2 config error
    3 geometry error     4 tension domain error    5 step rejected
    6 insufficient decay
"""

import argparse
import csv
import hashlib
import json
import os
import sys

import numpy as np

from . import __version__
from .curve import FourierCurve, from_json_dict, split, to_json_dict
from .errors import (ConfigError, GeometryError, InsufficientDecay,
                     PeskinError, StepRejected, TensionDomainError, config_values)
from .integrator import RunConfig, Trajectory, fit_decay, run
from .kernels import (dyadic_alphas, fit_kernel_bounds, ik_exact, jk_exact,
                      l_kernel, psi_l1_norm, pv_quadrature_ik, pv_quadrature_jk,
                      phi_weight)
from .nonlin import eval_nonlinearity, linear_mode_rhs
from .norms import norm_report
from .linear import spectrum_report
from .tension import law_from_config, linear_coefficients

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_GEOMETRY = 3
EXIT_TENSION_DOMAIN = 4
EXIT_STEP_REJECTED = 5
EXIT_INSUFFICIENT_DECAY = 6

_ERROR_CODES = [
    (ConfigError, EXIT_CONFIG),
    (GeometryError, EXIT_GEOMETRY),
    (TensionDomainError, EXIT_TENSION_DOMAIN),
    (StepRejected, EXIT_STEP_REJECTED),
    (InsufficientDecay, EXIT_INSUFFICIENT_DECAY),
]


def _load_json(path):
    try:
        with open(path) as fh:
            config = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    if not isinstance(config, dict):
        raise ConfigError(f"config {path} must be a JSON object, "
                          f"got {type(config).__name__}")
    return config


def _at_least(name, value, lo):
    if value < lo:
        raise ConfigError(f"{name} must be >= {lo}, got {value}")
    return value


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(out_dir, command, config, filenames):
    manifest = {
        "command": command,
        "version": __version__,
        "config": config,
        "outputs": {name: _sha256(os.path.join(out_dir, name)) for name in filenames},
    }
    return _write_json(os.path.join(out_dir, "manifest.json"), manifest)


def _write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _ensure_out(path):
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as e:
        raise ConfigError(f"cannot create output directory {path}: {e}") from e
    return path


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([repr(v) if isinstance(v, float) else v for v in row])


# ---------------------------------------------------------------------------
# subcommands


def _cmd_simulate(args):
    config = _load_json(args.config)
    if args.init is not None:
        try:
            config["initial_data"] = json.loads(args.init)
        except json.JSONDecodeError as e:
            raise ConfigError(f"--init is not valid JSON: {e}") from e
    if args.snapshot_every is not None:
        config["snapshot_every"] = args.snapshot_every
    if args.watch_modes is not None:
        try:
            config["watch_modes"] = [int(x) for x in args.watch_modes.split(",")]
        except ValueError as e:
            raise ConfigError(f"--watch-modes is not a comma-separated integer list: {e}") from e
    cfg = RunConfig.from_dict(config)
    out = _ensure_out(args.out)
    traj = run(cfg)

    names = []
    for i, snap in enumerate(traj.snapshots):
        name = f"snapshot_{i:06d}.json"
        with open(os.path.join(out, name), "w") as fh:
            json.dump(to_json_dict(snap), fh)
            fh.write("\n")
        names.append(name)
    header = ["t"] + [f"abs_a{k}" for k in cfg.watch_modes] \
        + ["l2_Y", "linf_Yprime", "a0_re", "a0_im", "a1_re", "a1_im"]
    rows = [[row[h] for h in header] for row in traj.table]
    _write_csv(os.path.join(out, "diagnostics.csv"), header, rows)
    names.append("diagnostics.csv")

    summary = {"fit_rate": traj.fit_rate,
               "a0_limit": None if traj.a0_limit is None else
               [traj.a0_limit.real, traj.a0_limit.imag],
               "a1_limit": None if traj.a1_limit is None else
               [traj.a1_limit.real, traj.a1_limit.imag]}
    _write_json(os.path.join(out, "summary.json"), summary)
    names.append("summary.json")
    _write_manifest(out, "simulate", config, names)
    return EXIT_OK


def _cmd_linear_spectrum(args):
    config = _load_json(args.config)
    with config_values():
        law = law_from_config(config.get("law", {"law": "hookean"}))
        a1 = complex(*config.get("a1", [0.0, 0.0]))
        m_max = _at_least("m_max", int(config.get("m_max", 32)), 3)
    rows = spectrum_report(law, a1, m_max)
    out = _ensure_out(args.out)
    _write_csv(os.path.join(out, "spectrum.csv"),
               ["m", "lambda1", "lambda2", "decay_rate"],
               [[r["m"], r["lambda1"], r["lambda2"], r["decay_rate"]] for r in rows])
    _write_manifest(out, "linear-spectrum", config, ["spectrum.csv"])
    return EXIT_OK


def _cmd_verify_kernels(args):
    config = _load_json(args.config) if args.config else {}
    with config_values():
        k_max = _at_least("k_max", int(config.get("k_max", 64)), 0)
        M = int(config.get("M", 1024))
        n_max = _at_least("n_max", int(config.get("n_max", 6)), 0)
        oversample = int(config.get("oversample", 8))
        npd = _at_least("alphas_per_decade", int(config.get("alphas_per_decade", 4)), 1)

    # np.max keeps a NaN error; the builtin max would drop it
    ks = range(-k_max, k_max + 1)
    ident_err = float(np.max([abs(pv_quadrature_ik(k, M) - ik_exact(k)) for k in ks]
                             + [abs(pv_quadrature_jk(k, M) - jk_exact(k)) for k in ks]))

    rng = np.random.default_rng(7)
    dual_errs = []
    for _ in range(50):
        n = int(rng.integers(0, n_max + 1))
        s = float(rng.uniform(0.0, 2.0 * np.pi))
        a = float(rng.uniform(-np.pi, np.pi))
        if abs(a) < 1e-6:
            a = 0.1
        kk = np.arange(-2 ** (n + 3), 2 ** (n + 3) + 1)
        w = phi_weight(n + 2, kk)
        direct = np.sum(w * np.exp(-1j * a / 2.0) * (1.0 - np.exp(-1j * a * kk))
                        / (2.0 * np.sin(a / 2.0)) * np.exp(1j * s * kk))
        dual_errs.append(abs(direct - l_kernel(n, s, a)))
    dual_err = float(np.max(dual_errs))

    coarse = fit_kernel_bounds(range(n_max + 1), dyadic_alphas(npd), oversample)
    fine = fit_kernel_bounds(range(n_max + 1), dyadic_alphas(2 * npd), 2 * oversample)
    stability = {key: abs(fine[key] - coarse[key]) / coarse[key]
                 for key in ("l_bound", "l_tilde_bound", "l_tilde_dalpha",
                             "l_tilde_dalpha_sharp")}
    psi_mass = {n: psi_l1_norm(n) for n in range(n_max + 1)}

    passed = (ident_err <= 1e-12 and dual_err <= 1e-10
              and all(v <= 0.20 for v in stability.values()))
    report = {
        "identity_max_error": ident_err,
        "dual_formula_max_error": dual_err,
        "fitted_constants": coarse,
        "fitted_constants_refined": fine,
        "refinement_change": stability,
        "psi_l1_mass": psi_mass,
        "pass": passed,
    }
    out = _ensure_out(args.out)
    _write_json(os.path.join(out, "kernel_report.json"), report)
    _write_manifest(out, "verify-kernels", config, ["kernel_report.json"])
    return EXIT_OK if passed else EXIT_CHECK_FAILED


# diagnostics.csv columns that fit-decay reads
_TABLE_COLUMNS = ("t", "l2_Y", "a0_re", "a0_im", "a1_re", "a1_im")


def _load_trajectory(traj_dir):
    table_path = os.path.join(traj_dir, "diagnostics.csv")
    try:
        with open(table_path) as fh:
            reader = csv.DictReader(fh)
            rows = list(reader)
    except OSError as e:
        raise ConfigError(f"cannot read trajectory {traj_dir}: {e}") from e
    missing = [key for key in _TABLE_COLUMNS if key not in (reader.fieldnames or ())]
    if missing:
        raise ConfigError(f"malformed trajectory table {table_path}: missing {missing}")
    try:
        table = [{k: float(v) for k, v in row.items()} for row in rows]
    except (TypeError, ValueError) as e:
        raise ConfigError(f"malformed trajectory table {table_path}: "
                          f"{type(e).__name__}: {e}") from e
    snaps = []
    for name in sorted(os.listdir(traj_dir)):
        if name.startswith("snapshot_") and name.endswith(".json"):
            path = os.path.join(traj_dir, name)
            try:
                with open(path) as fh:
                    snaps.append(from_json_dict(json.load(fh)))
            except (OSError, KeyError, TypeError, ValueError) as e:
                raise ConfigError(f"malformed snapshot {path}: "
                                  f"{type(e).__name__}: {e}") from e
    return Trajectory(snapshots=snaps, table=table, watch_modes=())


def _cmd_measure_norms(args):
    traj = _load_trajectory(args.traj)
    if not traj.snapshots:
        raise ConfigError(f"no snapshots found in {args.traj}")
    rows = []
    for snap in traj.snapshots:
        y = split(snap).y_modes
        t = float(snap.time)
        r = norm_report(y, t)
        rows.append([t, r.s_norm, r.z1_snapshot, r.z2_snapshot, r.w_snapshot])
    out = _ensure_out(args.out)
    _write_csv(os.path.join(out, "norms.csv"),
               ["t", "s_norm", "z1", "z2", "w"], rows)
    _write_manifest(out, "measure-norms", {"traj": args.traj}, ["norms.csv"])
    return EXIT_OK


def _cmd_fit_decay(args):
    traj = _load_trajectory(args.traj)
    rate, a0, a1 = fit_decay(traj)
    report = {"rate": rate, "a0_limit": [a0.real, a0.imag],
              "a1_limit": [a1.real, a1.imag]}
    out = _ensure_out(args.out)
    _write_json(os.path.join(out, "decay.json"), report)
    _write_manifest(out, "fit-decay", {"traj": args.traj}, ["decay.json"])
    return EXIT_OK


def _cmd_verify_linearization(args):
    config = _load_json(args.config)
    with config_values():
        law = law_from_config(config["law"])
        a1 = complex(*config.get("a1", [0.0, 0.0]))
        k_check = _at_least("k_max", int(config.get("k_max", 12)), 2)
        K = k_check + 2
        M = int(config.get("M", max(8 * K, 160)))
        delta = float(config.get("delta", 1e-6))
    if not (np.isfinite(delta) and delta > 0):
        raise ConfigError(f"delta must be positive and finite, got {delta!r}")
    bad = law.positivity_failures()
    out = _ensure_out(args.out)
    if bad.size:
        report = {"structural_condition": "failed",
                  "failures_at_r": [float(r) for r in bad[:16]],
                  "pass": False}
        _write_json(os.path.join(out, "linearization_report.json"), report)
        _write_manifest(out, "verify-linearization", config,
                        ["linearization_report.json"])
        return EXIT_CHECK_FAILED

    coeffs = linear_coefficients(law, a1)
    base = np.zeros(2 * K + 1, dtype=complex)
    base[K + 1] = a1
    errors = []
    for k in range(-k_check, k_check + 1):
        if k in (0, 1):
            continue
        for phase in (1.0, 1j):
            e = np.zeros(2 * K + 1, dtype=complex)
            e[K + k] = phase
            fp = eval_nonlinearity(FourierCurve(base + delta * e), law, M).n_modes
            fm = eval_nonlinearity(FourierCurve(base - delta * e), law, M).n_modes
            jac = (fp - fm) / (2.0 * delta)
            ck = linear_mode_rhs(e, coeffs, a1)
            scale = np.abs(ck).max()
            errors.append(float(np.abs(jac - ck).max() / scale))
    max_rel = float(np.max(errors))
    passed = max_rel <= 1e-6
    report = {"structural_condition": "ok", "max_relative_jacobian_error": max_rel,
              "threshold": 1e-6, "pass": passed}
    _write_json(os.path.join(out, "linearization_report.json"), report)
    _write_manifest(out, "verify-linearization", config, ["linearization_report.json"])
    return EXIT_OK if passed else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------


def _build_parser():
    p = argparse.ArgumentParser(
        prog="peskin2d",
        description="Spectral boundary-integral bench for an elastic interface "
                    "in 2D Stokes flow")
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, fn, needs_config=True, needs_traj=False):
        sp = sub.add_parser(name)
        if needs_traj:
            sp.add_argument("--traj", required=True, help="trajectory directory")
        elif needs_config:
            sp.add_argument("--config", required=(name != "verify-kernels"),
                            help="JSON config path")
        sp.add_argument("--out", required=True, help="output directory")
        if name == "simulate":
            sp.add_argument("--snapshot-every", type=float, default=None)
            sp.add_argument("--watch-modes", type=str, default=None,
                            help="comma-separated mode list")
            sp.add_argument("--init", type=str, default=None,
                            help="inline initial-data JSON overriding the config")
        sp.set_defaults(fn=fn)

    add("simulate", _cmd_simulate)
    add("linear-spectrum", _cmd_linear_spectrum)
    add("verify-kernels", _cmd_verify_kernels)
    add("measure-norms", _cmd_measure_norms, needs_traj=True)
    add("fit-decay", _cmd_fit_decay, needs_traj=True)
    add("verify-linearization", _cmd_verify_linearization)
    return p


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except PeskinError as err:
        for cls, code in _ERROR_CODES:
            if isinstance(err, cls):
                print(f"error: {err}", file=sys.stderr)
                return code
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
