"""Command-line entry point.

Subcommands:
    simulate              integrate a run config, write snapshots + diagnostics
    linear-spectrum       CSV table of pair-system eigenvalues and decay rates
    verify-kernels        JSON report: kernel identities and fitted bound constants
    measure-norms         CSV of S/Z1/Z2/W diagnostics along a stored trajectory
    fit-decay             JSON decay rate and terminal circle from a trajectory's diagnostics.csv
    verify-linearization  JSON report: finite-difference Jacobian vs closed form

Every command writes a manifest.json (config, package version, sha256 of
each output file) next to its outputs.  Exit codes are part of the
contract:

    0 success            1 verification failed
    2 config error, unwritable output, or a value past the float range
    3 geometry error     4 tension domain error    5 step rejected
    6 insufficient decay     7 ill-conditioned propagator
"""

import argparse
import csv
import fnmatch
import functools
import json
import os
import sys

try:
    from _sha2 import sha256 as _new_sha256          # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256 as _new_sha256    # Python 3.10, 3.11
    except ImportError:
        from hashlib import sha256 as _new_sha256    # loads OpenSSL's libcrypto, ~3.5 MiB of RSS

import numpy as np

from . import __version__
from .curve import from_json_dict, split, to_json_dict
from .draws import PCG64
from .errors import (REQUIRED, ConfigError, GeometryError, IllConditioned, InsufficientDecay,
                     PeskinError, StepRejected, TensionDomainError, read_config)
from .integrator import TABLE_COLUMNS, RunConfig, fit_decay, iter_run
from .kernels import (dyadic_alphas, fit_kernel_bounds, ik_exact, jk_exact,
                      l_kernel, psi_l1_norm, pv_quadrature_ik, pv_quadrature_jk,
                      phi_weight)
from .nonlin import jacobian_errors
from .norms import norm_table
from .linear import spectrum_report
from .tension import law_from_config

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_GEOMETRY = 3
EXIT_TENSION_DOMAIN = 4
EXIT_STEP_REJECTED = 5
EXIT_INSUFFICIENT_DECAY = 6
EXIT_ILL_CONDITIONED = 7

_ERROR_CODES = [
    (ConfigError, EXIT_CONFIG),
    (GeometryError, EXIT_GEOMETRY),
    (TensionDomainError, EXIT_TENSION_DOMAIN),
    (StepRejected, EXIT_STEP_REJECTED),
    (InsufficientDecay, EXIT_INSUFFICIENT_DECAY),
    (IllConditioned, EXIT_ILL_CONDITIONED),
]


def _load_json(path):
    try:
        with open(path) as fh:
            config = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    if not isinstance(config, dict):
        raise ConfigError(f"config {path} must be a JSON object, got {type(config).__name__}")
    return config


def _sha256(path):
    h = _new_sha256()
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

# upper bounds: README's key tables give the reason for each
_SPECTRUM_SCHEMA = {"law": ("object", {"law": "hookean"}), "a1": ("pair", 0j),
                    "m_max": ("int", 32, (3, 2048))}
_KERNELS_SCHEMA = {"k_max": ("int", 64, (0, 8191)), "M": ("int", 1024, (None, 65536)),
                   "n_max": ("int", 6, (0, 12)), "oversample": ("int", 8, (2, 16)),
                   "alphas_per_decade": ("int", 4, (1, 64))}
_LINEARIZATION_SCHEMA = {"law": ("object", REQUIRED), "a1": ("pair", 0j),
                         "k_max": ("int", 12, (2, 1022)), "M": ("int", None, (None, 8192)),
                         "delta": ("positive", 1e-6, (None, 1e-2))}
# simulate's i-th snapshot file, and the glob that matches every snapshot name
_SNAPSHOT = "snapshot_{:06d}.json"
_SNAPSHOT_GLOB = _SNAPSHOT.replace("{:06d}", "*")


def _cmd_simulate(args):
    config = _load_json(args.config)
    cfg = RunConfig.from_dict(config)
    out = _ensure_out(args.out)
    for name in os.listdir(out):     # an earlier run's files: a directory holds one run
        if name in ("manifest.json", "summary.json") or fnmatch.fnmatch(name, _SNAPSHOT_GLOB):
            os.remove(os.path.join(out, name))
    table = []

    def rows():
        for i, (curve, row) in enumerate(iter_run(cfg)):
            with open(os.path.join(out, _SNAPSHOT.format(i)), "w") as fh:
                fh.write(json.dumps(to_json_dict(curve)) + "\n")
            table.append(row)
            yield row.values()

    # written as the run yields them: a failed run leaves the snapshots and rows it reached
    _write_csv(os.path.join(out, "diagnostics.csv"), TABLE_COLUMNS, rows())
    try:
        rate, a0, a1 = fit_decay(table)
        summary = {"fit_rate": rate, "a0_limit": [a0.real, a0.imag], "a1_limit": [a1.real, a1.imag]}
    except InsufficientDecay:
        summary = {"fit_rate": None, "a0_limit": None, "a1_limit": None}
    _write_json(os.path.join(out, "summary.json"), summary)
    names = [_SNAPSHOT.format(i) for i in range(len(table))]
    _write_manifest(out, "simulate", config, names + ["diagnostics.csv", "summary.json"])
    return EXIT_OK


def _cmd_linear_spectrum(args):
    config = _load_json(args.config)
    c = read_config(config, _SPECTRUM_SCHEMA, "linear-spectrum config")
    rows = spectrum_report(law_from_config(c["law"]), c["a1"], c["m_max"])
    out = _ensure_out(args.out)
    _write_csv(os.path.join(out, "spectrum.csv"),
               ["m", "lambda1", "lambda2", "decay_rate"],
               [[r["m"], r["lambda1"], r["lambda2"], r["decay_rate"]] for r in rows])
    _write_manifest(out, "linear-spectrum", config, ["spectrum.csv"])
    return EXIT_OK


def _cmd_verify_kernels(args):
    config = _load_json(args.config) if args.config else {}
    c = read_config(config, _KERNELS_SCHEMA, "verify-kernels config")
    k_max, M, n_max = c["k_max"], c["M"], c["n_max"]
    oversample, npd = c["oversample"], c["alphas_per_decade"]

    # np.max keeps a NaN error; the builtin max would drop it
    ks = range(-k_max, k_max + 1)
    quad_ik = pv_quadrature_ik(np.array(ks), M).tolist()
    quad_jk = pv_quadrature_jk(np.array(ks), M).tolist()
    # Python's complex abs, as before: numpy's vector abs may round differently
    ident_err = float(np.max([abs(q - ik_exact(k)) for k, q in zip(ks, quad_ik)]
                             + [abs(q - jk_exact(k)) for k, q in zip(ks, quad_jk)]))

    rng = PCG64(7)   # the draws of numpy's default_rng(7)
    # the pass test scales each error by the draw's sum of |terms|: roundoff
    # grows with the block size and 1/sin(alpha/2), the report keeps it absolute
    dual_errs, dual_rel = [], []
    for _ in range(50):
        n = rng.integers(0, n_max + 1)
        s = rng.uniform(0.0, 2.0 * np.pi)
        a = rng.uniform(-np.pi, np.pi)
        if abs(a) < 1e-6:
            a = 0.1
        kk = np.arange(-2 ** (n + 3), 2 ** (n + 3) + 1)
        w = phi_weight(n + 2, kk)
        terms = (w * np.exp(-1j * a / 2.0) * (1.0 - np.exp(-1j * a * kk))
                 / (2.0 * np.sin(a / 2.0)) * np.exp(1j * s * kk))
        dual_errs.append(abs(np.sum(terms) - l_kernel(n, s, a)))
        dual_rel.append(dual_errs[-1] / np.abs(terms).sum())
    dual_err = float(np.max(dual_errs))

    coarse = fit_kernel_bounds(range(n_max + 1), dyadic_alphas(npd), oversample)
    fine = fit_kernel_bounds(range(n_max + 1), dyadic_alphas(2 * npd), 2 * oversample)
    stability = {key: abs(fine[key] - coarse[key]) / coarse[key]
                 for key in ("l_bound", "l_tilde_bound", "l_tilde_dalpha",
                             "l_tilde_dalpha_sharp")}
    psi_mass = {n: psi_l1_norm(n) for n in range(n_max + 1)}

    passed = (ident_err <= 1e-12 and float(np.max(dual_rel)) <= 1e-12
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


def _load_trajectory(traj_dir, out_dir):
    """The diagnostics.csv rows of traj_dir, read for a command that writes to out_dir."""
    if os.path.realpath(out_dir) == os.path.realpath(traj_dir):   # keep simulate's manifest
        raise ConfigError(f"--out {out_dir} is the trajectory directory --traj {traj_dir}: "
                          "its manifest would be overwritten")
    table_path = os.path.join(traj_dir, "diagnostics.csv")
    try:
        with open(table_path) as fh:
            reader = csv.DictReader(fh)
            rows = list(reader)
    except OSError as e:
        raise ConfigError(f"cannot read trajectory {traj_dir}: {e}") from e
    missing = [key for key in TABLE_COLUMNS if key not in (reader.fieldnames or ())]
    if missing:
        raise ConfigError(f"malformed trajectory table {table_path}: missing {missing}")
    try:
        table = [{k: float(v) for k, v in row.items()} for row in rows]
    except (TypeError, ValueError) as e:
        raise ConfigError(f"malformed trajectory table {table_path}: "
                          f"{type(e).__name__}: {e}") from e
    if not np.all(np.isfinite([list(row.values()) for row in table])):
        raise ConfigError(f"malformed trajectory table {table_path}: a non-finite value")
    return table


def _cmd_measure_norms(args):
    table = _load_trajectory(args.traj, args.out)
    snaps = []
    for name in sorted(fnmatch.filter(os.listdir(args.traj), _SNAPSHOT_GLOB)):
        path = os.path.join(args.traj, name)
        try:
            with open(path) as fh:
                snaps.append(from_json_dict(json.load(fh)))
        except (OSError, KeyError, TypeError, ValueError, OverflowError, ConfigError) as e:
            raise ConfigError(f"malformed snapshot {path}: {type(e).__name__}: {e}") from e
        if snaps[-1].K != snaps[0].K:   # simulate writes one K per directory
            raise ConfigError(f"malformed snapshot {path}: K {snaps[-1].K}, but the "
                              f"trajectory's first snapshot has K {snaps[0].K}")
    if not snaps:
        raise ConfigError(f"no snapshots found in {args.traj}")
    times = [snap.time for snap in snaps]
    if times != [row["t"] for row in table]:
        raise ConfigError(f"trajectory {args.traj}: snapshot times do not match the t column")
    rows = norm_table([split(snap).y_modes for snap in snaps], times)
    out = _ensure_out(args.out)
    _write_csv(os.path.join(out, "norms.csv"),
               ["t", "s_norm", "z1", "z2", "w"], rows)
    _write_manifest(out, "measure-norms", {"traj": args.traj}, ["norms.csv"])
    return EXIT_OK


def _cmd_fit_decay(args):
    rate, a0, a1 = fit_decay(_load_trajectory(args.traj, args.out))
    report = {"rate": rate, "a0_limit": [a0.real, a0.imag],
              "a1_limit": [a1.real, a1.imag]}
    out = _ensure_out(args.out)
    _write_json(os.path.join(out, "decay.json"), report)
    _write_manifest(out, "fit-decay", {"traj": args.traj}, ["decay.json"])
    return EXIT_OK


def _cmd_verify_linearization(args):
    config = _load_json(args.config)
    c = read_config(config, _LINEARIZATION_SCHEMA, "verify-linearization config")
    law, a1, k_check, delta = law_from_config(c["law"]), c["a1"], c["k_max"], c["delta"]
    K = k_check + 2
    if c["M"] is not None and (c["M"] % 2 != 0 or c["M"] < 2 * K + 2):
        raise ConfigError(f"verify-linearization config: M must be even and >= "
                          f"2 (k_max + 2) + 2 = {2 * K + 2} for k_max {k_check}, got {c['M']}")
    M = c["M"] if c["M"] is not None else max(8 * K, 160)
    bad = law.positivity_failures()
    if bad.size:
        report = {"structural_condition": "failed",
                  "failures_at_r": [float(r) for r in bad[:16]],
                  "pass": False}
    else:
        # every error of the evaluation comes before --out is created
        max_rel = float(np.max(jacobian_errors(law, a1, k_check, delta, M)))
        report = {"structural_condition": "ok", "max_relative_jacobian_error": max_rel,
                  "threshold": 1e-6, "pass": max_rel <= 1e-6}
    out = _ensure_out(args.out)
    _write_json(os.path.join(out, "linearization_report.json"), report)
    _write_manifest(out, "verify-linearization", config, ["linearization_report.json"])
    return EXIT_OK if report["pass"] else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------


@functools.cache
def _build_parser():
    """The argument parser, built once per process: parse_args keeps no state."""
    p = argparse.ArgumentParser(
        prog="peskin2d",
        description="Spectral boundary-integral bench for an elastic interface "
                    "in 2D Stokes flow")
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, fn, needs_traj=False):
        sp = sub.add_parser(name)
        if needs_traj:
            sp.add_argument("--traj", required=True, help="trajectory directory")
        else:
            sp.add_argument("--config", required=(name != "verify-kernels"),
                            help="JSON config path")
        sp.add_argument("--out", required=True, help="output directory")
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
        # a value past the float range stops the command: it never reaches an output
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return args.fn(args)
    except FloatingPointError as err:
        print(f"error: a value leaves the float range ({err}): the config's magnitudes "
              "are too large or too small", file=sys.stderr)
        return EXIT_CONFIG
    except PeskinError as err:
        for cls, code in _ERROR_CODES:
            if isinstance(err, cls):
                print(f"error: {err}", file=sys.stderr)
                return code
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except OSError as err:  # every read turns its OSError into a ConfigError: a write failed
        print(f"error: cannot write output: {err}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
