import csv
import hashlib
import importlib.metadata
import json
import math
import os
import shutil
import subprocess
import sys
import sysconfig
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from peskin2d import initdata
from peskin2d.cli import (EXIT_CHECK_FAILED, EXIT_CONFIG, EXIT_GEOMETRY,
                          EXIT_INSUFFICIENT_DECAY, EXIT_OK,
                          EXIT_TENSION_DOMAIN, main)


REPO = Path(__file__).resolve().parents[1]
SUBCOMMANDS = ("simulate", "linear-spectrum", "verify-kernels",
               "measure-norms", "fit-decay", "verify-linearization")


def src_env(**extra):
    """Environment for a fresh interpreter that imports the package from src.

    PYTHONWARNINGS carries pyproject's pytest filterwarnings (such as
    error::RuntimeWarning), so a warning fails a test in a child
    interpreter as it does in-process.
    """
    pythonpath = os.pathsep.join(
        p for p in (str(REPO / "src"), os.environ.get("PYTHONPATH")) if p)
    filters = pyproject()["tool"]["pytest"]["ini_options"]["filterwarnings"]
    warnings = ",".join(p for p in (os.environ.get("PYTHONWARNINGS"), *filters) if p)
    return dict(os.environ, PYTHONPATH=pythonpath, PYTHONWARNINGS=warnings, **extra)


def pyproject():
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    with open(REPO / "pyproject.toml", "rb") as fh:
        return tomllib.load(fh)


def declared_console_script():
    """The `peskin2d` entry of [project.scripts] in pyproject.toml."""
    scripts = pyproject()["project"].get("scripts", {})
    assert "peskin2d" in scripts, scripts
    return scripts["peskin2d"]


def peskin2d_installed():
    try:
        importlib.metadata.distribution("peskin2d")
    except importlib.metadata.PackageNotFoundError:
        return False
    return True


def write_config(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


SIM_CONFIG = {
    "law": {"law": "cubic", "c": 1.0},
    "initial_data": {"kind": "single_mode", "k": 2, "amplitude": [1e-3, 0.0]},
    "K": 8, "M": 32, "dt": 0.05, "t_end": 4.0, "snapshot_every": 0.25,
    "watch_modes": [2, 3, -1],
}


def snapshot_names(out):
    return sorted(n for n in os.listdir(out) if n.startswith("snapshot_"))


def simulate(tmp_path, config=SIM_CONFIG, name="run"):
    cfg = write_config(tmp_path / f"{name}.json", config)
    out = str(tmp_path / name)
    code = main(["simulate", "--config", cfg, "--out", out])
    return code, out


class TestSimulate:
    def test_zero_data_exit_ok(self, tmp_path):
        config = dict(SIM_CONFIG)
        config["initial_data"] = {"kind": "single_mode", "k": 2,
                                  "amplitude": [0.0, 0.0]}
        config["t_end"] = 0.5
        code, out = simulate(tmp_path, config)
        assert code == EXIT_OK
        rows = open(os.path.join(out, "diagnostics.csv")).read().strip().split("\n")
        header = rows[0].split(",")
        assert header == ["t", "abs_a2", "abs_a3", "abs_a-1", "l2_Y",
                          "linf_Yprime", "a0_re", "a0_im", "a1_re", "a1_im"]
        for row in rows[1:]:
            assert float(row.split(",")[4]) < 1e-13

    def test_malformed_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["simulate", "--config", str(bad),
                     "--out", str(tmp_path / "o")]) == EXIT_CONFIG

    def test_unknown_config_key(self, tmp_path):
        config = dict(SIM_CONFIG)
        config["surprise"] = 1
        code, _ = simulate(tmp_path, config)
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("override", [
        {"K": "abc"},
        {"M": "64"},
        {"M": 33},
        {"law": {"law": "cubic", "c": "x"}},
        {"initial_data": {"kind": "corner", "strengths": [1.0]}},
        {"initial_data": {"kind": "single_mode", "k": "x"}},
        {"dt": float("nan")},
        {"snapshot_every": "x"},
        {"watch_modes": "ab"},
        {"t_end": float("inf")},
        {"snapshot_every": 0.0},
        {"snapshot_every": -0.25},
        {"frozen_coefficients": "no"},
        {"initial_data": {"kind": "single_mode", "k": 2, "amplitude": float("nan")}},
        {"initial_data": {"kind": "random_decay", "amplitude": float("inf")}},
        *({"initial_data": dict(SIM_CONFIG["initial_data"], target_norm=target)}
          for target in (["s", float("inf")], "s", ["s"], ["s", -0.01], ["s", 0.0])),
        # read as something else before the one config reader
        {"K": 8.7},
        {"K": "8"},
        {"t_end": "0.5"},
        {"t_end": True},
        {"law": {"law": "cubic", "C": 2}},
        {"law": {"law": "hookean", "zz": 1}},
        {"law": {"law": "hookean", "k0": float("nan")}},
        {"initial_data": dict(SIM_CONFIG["initial_data"], zz=1)},
        {"initial_data": dict(SIM_CONFIG["initial_data"], k=2.9)},
        {"initial_data": {"kind": "random_decay", "seed": 1.5}},
        {"initial_data": {"kind": "random_decay", "seed": True}},
        {"initial_data": {"kind": "polygonal", "vertices": 2.5}},
        {"initial_data": {"kind": "single_mode", "k": 1, "allow_steady": "no"}},
        {"initial_data": {"kind": "corner", "positions": [0.0],
                          "strengths": [float("inf")]}},
    ], ids=["K-not-int", "M-string", "M-odd", "law-c-string", "corner-no-positions",
            "mode-not-int", "dt-nan", "snapshot-every-string",
            "watch-modes-string", "t-end-inf", "snapshot-every-zero",
            "snapshot-every-negative", "frozen-string", "amplitude-nan",
            "amplitude-inf", "target-norm-inf", "target-norm-bare-name",
            "target-norm-one-item", "target-norm-negative", "target-norm-zero",
            "K-fraction", "K-string", "t-end-string", "t-end-bool",
            "law-key-typo", "law-unknown-key", "law-k0-nan", "initial-unknown-key",
            "mode-fraction", "seed-fraction", "seed-bool", "vertices-fraction",
            "allow-steady-string", "strengths-inf"])
    def test_bad_config_value_exit_code(self, tmp_path, override):
        # a bad value is a config error (exit 2), never an uncaught exception;
        # the test settings also turn any RuntimeWarning on the way into an error
        code, out = simulate(tmp_path, dict(SIM_CONFIG, **override))
        assert code == EXIT_CONFIG
        assert not os.path.isdir(out) or not snapshot_names(out)

    @pytest.mark.parametrize("initial", [
        {"kind": "corner", "positions": [0.0, 1.9], "strengths": [1.0, 0.7],
         "amplitude": 1e-3, "target_norm": ["s", 1e-3]},
        {"kind": "polygonal", "vertices": 3, "amplitude": 1e-3},
    ], ids=["corner", "polygonal"])
    def test_run_never_computes_initial_data_report(self, tmp_path, monkeypatch, initial):
        def refuse(*args, **kwargs):
            raise AssertionError("the initial-data report was computed")
        monkeypatch.setattr(initdata, "corner_report", refuse)
        monkeypatch.setattr(initdata, "_tent_tail_w", refuse)
        code, _ = simulate(tmp_path, dict(SIM_CONFIG, initial_data=initial, t_end=0.5))
        assert code == EXIT_OK

    @pytest.mark.parametrize("initial", [
        {"kind": "single_mode", "k": 2, "amplitude": 1e200},
        {"kind": "random_decay", "target_norm": ["s", 1e200]},
        {"kind": "corner", "positions": [0.0], "strengths": [1e300]},
    ], ids=["single-mode-1e200", "random-decay-target-1e200", "corner-strength-1e300"])
    def test_initial_data_near_the_float_range(self, tmp_path, initial):
        # modes past about 1e154 overflowed the squares of l2_norm and of the
        # chord-arc check: a RuntimeWarning, or l2_Y = inf in row 0 and exit 4
        code, out = simulate(tmp_path, dict(SIM_CONFIG, initial_data=initial))
        assert code == EXIT_CONFIG
        assert not snapshot_names(out)
        with open(os.path.join(out, "diagnostics.csv")) as fh:
            values = [float(v) for row in list(csv.reader(fh))[1:] for v in row]
        assert all(map(math.isfinite, values))

    def test_deterministic_outputs(self, tmp_path):
        config = dict(SIM_CONFIG)
        config["initial_data"] = {"kind": "random_decay", "exponent": 2.0,
                                  "seed": 9, "amplitude": 1e-3}
        _, out1 = simulate(tmp_path, config, "one")
        _, out2 = simulate(tmp_path, config, "two")
        d1 = open(os.path.join(out1, "diagnostics.csv"), "rb").read()
        d2 = open(os.path.join(out2, "diagnostics.csv"), "rb").read()
        assert d1 == d2

    def test_outputs_independent_of_blas_threads(self, tmp_path):
        # the same config in fresh interpreters with 1 and 2 BLAS/OpenMP
        # threads must hash identically: no result may depend on a
        # threaded reduction order
        config = dict(SIM_CONFIG, K=32, M=128, dt=0.01, t_end=0.3,
                      snapshot_every=0.1)
        config["initial_data"] = {"kind": "random_decay", "exponent": 2.0,
                                  "seed": 5, "amplitude": 1e-2}
        cfg = write_config(tmp_path / "k32.json", config)
        hashes = []
        for threads in ("1", "2"):
            out = str(tmp_path / f"threads{threads}")
            env = src_env(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            proc = subprocess.run(
                [sys.executable, "-m", "peskin2d.cli", "simulate",
                 "--config", cfg, "--out", out],
                env=env, capture_output=True, text=True, timeout=300)
            assert proc.returncode == EXIT_OK, proc.stderr
            hashes.append(json.load(open(os.path.join(out, "manifest.json")))["outputs"])
        assert hashes[0] == hashes[1]
        assert len(hashes[0]) > 3

    def test_manifest_hashes(self, tmp_path):
        code, out = simulate(tmp_path)
        assert code == EXIT_OK
        manifest = json.load(open(os.path.join(out, "manifest.json")))
        assert manifest["command"] == "simulate"
        for name, digest in manifest["outputs"].items():
            h = hashlib.sha256(open(os.path.join(out, name), "rb").read())
            assert h.hexdigest() == digest

    def test_geometry_exit_code(self, tmp_path):
        config = dict(SIM_CONFIG)
        config["law"] = {"law": "cubic", "c": 1.0, "r_min": 0.02, "r_max": 20.0}
        config["initial_data"] = {"kind": "single_mode", "k": 2,
                                  "amplitude": [0.55, 0.0]}
        code, _ = simulate(tmp_path, config)
        assert code == EXIT_GEOMETRY

    def test_tension_domain_exit_code(self, tmp_path):
        config = dict(SIM_CONFIG)
        config["initial_data"] = {"kind": "single_mode", "k": 2,
                                  "amplitude": [0.55, 0.0]}
        code, _ = simulate(tmp_path, config)
        assert code == EXIT_TENSION_DOMAIN

    def test_failed_run_leaves_its_snapshots(self, tmp_path):
        # an earlier finished run with more snapshots than the failing one reaches
        code, out = simulate(tmp_path, dict(SIM_CONFIG, snapshot_every=0.05))
        assert code == EXIT_OK and len(snapshot_names(out)) == 81
        config = {"law": {"law": "affine", "c0": 2.0, "c1": -0.5,
                          "check_positivity": False},
                  "initial_data": {"kind": "single_mode", "k": 3, "amplitude": 1e-4},
                  "K": 8, "M": 32, "dt": 0.5, "t_end": 200.0, "snapshot_every": 1.0}
        code, out = simulate(tmp_path, config)
        assert code == EXIT_TENSION_DOMAIN
        assert sorted(os.listdir(out)) == ["diagnostics.csv"] + [
            f"snapshot_{i:06d}.json" for i in range(30)]
        rows = list(csv.reader(open(os.path.join(out, "diagnostics.csv"))))[1:]
        times = [json.load(open(os.path.join(out, name)))["time"]
                 for name in snapshot_names(out)]
        assert [float(row[0]) for row in rows] == times == [float(i) for i in range(30)]
        assert main(["measure-norms", "--traj", out,
                     "--out", str(tmp_path / "norms")]) == EXIT_OK

    def test_memory_does_not_grow_with_snapshot_count(self, tmp_path):
        # every snapshot goes to disk as it is taken, so only its table row
        # stays in memory: far less than the (2K+1) complex modes it holds
        K = 64
        config = dict(SIM_CONFIG, law={"law": "hookean"}, K=K, M=4 * K, dt=0.01,
                      snapshot_every=0.01)
        config["initial_data"] = {"kind": "random_decay", "exponent": 2.0,
                                  "seed": 1, "amplitude": 1e-3}
        peaks = {}
        for n in (1, 40, 400):           # the first call fills the per-M caches
            cfg = write_config(tmp_path / "mem.json", dict(config, t_end=0.01 * n))
            tracemalloc.start()
            try:
                code = main(["simulate", "--config", cfg, "--out", str(tmp_path / f"m{n}")])
                peaks[n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert code == EXIT_OK
        per_snapshot = (peaks[400] - peaks[40]) / 360
        assert per_snapshot < (2 * K + 1) * 16, per_snapshot


class TestSpectrumAndKernels:
    def test_linear_spectrum_csv(self, tmp_path):
        cfg = write_config(tmp_path / "c.json",
                           {"law": {"law": "cubic"}, "a1": [0.0, 0.0], "m_max": 6})
        out = str(tmp_path / "spec")
        assert main(["linear-spectrum", "--config", cfg, "--out", out]) == EXIT_OK
        rows = open(os.path.join(out, "spectrum.csv")).read().strip().split("\n")
        assert rows[0] == "m,lambda1,lambda2,decay_rate"
        first = rows[1].split(",")
        assert int(first[0]) == 3
        assert float(first[1]) == pytest.approx(8.0)
        assert float(first[2]) == pytest.approx(16.0)
        rates = [float(r.split(",")[3]) for r in rows[1:]]
        assert all(b > a for a, b in zip(rates, rates[1:]))

    def test_linear_spectrum_affine_large_offset(self, tmp_path):
        # a valid law whose A + |1+a1| B meets tau'(|1+a1|) only to roundoff
        cfg = write_config(tmp_path / "a.json",
                           {"law": {"law": "affine", "c0": 10000.0, "c1": 1.0},
                            "a1": [0.1, 0.0]})
        out = str(tmp_path / "spec")
        assert main(["linear-spectrum", "--config", cfg, "--out", out]) == EXIT_OK

    def test_verify_kernels_small(self, tmp_path):
        cfg = write_config(tmp_path / "k.json",
                           {"k_max": 8, "M": 128, "n_max": 2, "oversample": 4})
        out = str(tmp_path / "kern")
        assert main(["verify-kernels", "--config", cfg, "--out", out]) == EXIT_OK
        report = json.load(open(os.path.join(out, "kernel_report.json")))
        assert report["pass"] is True
        assert report["identity_max_error"] <= 1e-12
        assert report["dual_formula_max_error"] <= 1e-10

    def test_dual_formula_relative_to_term_sum(self, tmp_path):
        # block n = 11 sums 2^15 terms: its roundoff is above 1e-10 absolute
        # but within 1e-12 of the sum of |terms|, and every other check passes
        cfg = write_config(tmp_path / "k.json", {"k_max": 4, "M": 64, "n_max": 11,
                                                 "oversample": 2, "alphas_per_decade": 4})
        out = str(tmp_path / "kern")
        assert main(["verify-kernels", "--config", cfg, "--out", out]) == EXIT_OK
        report = json.load(open(os.path.join(out, "kernel_report.json")))
        assert report["dual_formula_max_error"] > 1e-10 and report["pass"] is True

    def test_perturbed_dual_formula_fails(self, tmp_path, monkeypatch):
        from peskin2d import cli
        exact = cli.l_kernel
        monkeypatch.setattr(cli, "l_kernel", lambda n, s, a: exact(n, s, a) * (1.0 + 1e-9))
        cfg = write_config(tmp_path / "k.json",
                           {"k_max": 8, "M": 128, "n_max": 2, "oversample": 4})
        out = str(tmp_path / "kern")
        assert main(["verify-kernels", "--config", cfg, "--out", out]) == EXIT_CHECK_FAILED
        report = json.load(open(os.path.join(out, "kernel_report.json")))
        assert report["identity_max_error"] <= 1e-12 and report["pass"] is False
        assert max(report["refinement_change"].values()) <= 0.20


    @pytest.mark.parametrize("config", [
        {"m_max": "x"},
        {"m_max": 2},
        {"law": {"law": "cubic", "c": "x"}},
        {"a1": 3},
        {"a1": [float("nan"), 0.0]},
        {"m_max": 5.9},
        {"zz": 1},
    ], ids=["m-max-string", "m-max-2", "law-c-string", "a1-not-pair", "a1-nan",
            "m-max-fraction", "unknown-key"])
    def test_linear_spectrum_bad_config_exit_code(self, tmp_path, config):
        cfg = write_config(tmp_path / "c.json", config)
        assert main(["linear-spectrum", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == EXIT_CONFIG

    @pytest.mark.parametrize("config", [
        {"n_max": -1},
        {"alphas_per_decade": 0},
        {"k_max": "x"},
        {"k_max": -5},
        [1, 2],
        {"n_max": 1.5},
        {"zz": 1},
    ], ids=["n-max-negative", "alphas-per-decade-0", "k-max-string",
            "k-max-negative", "not-an-object", "n-max-fraction", "unknown-key"])
    def test_verify_kernels_bad_config_exit_code(self, tmp_path, config):
        # k_max = -5 would check no identity and pass with error 0.0
        cfg = write_config(tmp_path / "k.json", config)
        assert main(["verify-kernels", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == EXIT_CONFIG


class TestTrajectoryTools:
    def test_measure_norms_and_fit_decay(self, tmp_path):
        _, out = simulate(tmp_path)
        nout = str(tmp_path / "norms")
        assert main(["measure-norms", "--traj", out, "--out", nout]) == EXIT_OK
        rows = open(os.path.join(nout, "norms.csv")).read().strip().split("\n")
        assert rows[0] == "t,s_norm,z1,z2,w"
        assert len(rows) > 10
        dout = str(tmp_path / "decay")
        assert main(["fit-decay", "--traj", out, "--out", dout]) == EXIT_OK
        decay = json.load(open(os.path.join(dout, "decay.json")))
        assert decay["rate"] == pytest.approx(1.0, rel=0.01)  # cubic mode-2 rate

    @pytest.mark.parametrize("command", ["measure-norms", "fit-decay"])
    def test_snapshot_without_time_exit_code(self, tmp_path, capsys, command):
        _, out = simulate(tmp_path)
        path = os.path.join(out, "snapshot_000001.json")
        snap = json.load(open(path))
        del snap["time"]
        json.dump(snap, open(path, "w"))
        assert main([command, "--traj", out, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert "snapshot_000001.json" in capsys.readouterr().err

    @pytest.mark.parametrize("edit", ["drop-column", "bad-cell"])
    def test_malformed_table_exit_code(self, tmp_path, capsys, edit):
        _, out = simulate(tmp_path)
        path = os.path.join(out, "diagnostics.csv")
        lines = open(path).read().splitlines()
        if edit == "drop-column":
            lines = [line.rsplit(",", 1)[0] for line in lines]   # drops a1_im
        else:
            lines[2] = "x" + lines[2]
        open(path, "w").write("\n".join(lines) + "\n")
        assert main(["fit-decay", "--traj", out, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert "diagnostics.csv" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["measure-norms", "fit-decay"])
    def test_extra_snapshot_exit_code(self, tmp_path, capsys, command):
        _, out = simulate(tmp_path)
        names = snapshot_names(out)
        shutil.copy(os.path.join(out, names[-1]),
                    os.path.join(out, f"snapshot_{len(names):06d}.json"))
        assert main([command, "--traj", out, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert out in capsys.readouterr().err

    def test_rerun_replaces_earlier_snapshots(self, tmp_path):
        simulate(tmp_path)
        code, out = simulate(tmp_path, dict(SIM_CONFIG, t_end=1.0))
        assert code == EXIT_OK
        manifest = json.load(open(os.path.join(out, "manifest.json")))
        assert snapshot_names(out) == sorted(n for n in manifest["outputs"]
                                             if n.startswith("snapshot_"))
        nout = str(tmp_path / "norms")
        assert main(["measure-norms", "--traj", out, "--out", nout]) == EXIT_OK
        rows = open(os.path.join(nout, "norms.csv")).read().strip().split("\n")
        assert len(rows) == 1 + 5

    def test_fit_decay_insufficient(self, tmp_path):
        config = dict(SIM_CONFIG)
        config["t_end"] = 0.5
        _, out = simulate(tmp_path, config)
        assert main(["fit-decay", "--traj", out,
                     "--out", str(tmp_path / "d")]) == EXIT_INSUFFICIENT_DECAY


class TestVerifyLinearization:
    @pytest.mark.parametrize("law", [{"law": "hookean"}, {"law": "cubic", "c": 1.0}])
    def test_passes(self, tmp_path, law):
        cfg = write_config(tmp_path / "l.json", {"law": law, "k_max": 6})
        out = str(tmp_path / "lin")
        assert main(["verify-linearization", "--config", cfg, "--out", out]) == EXIT_OK
        report = json.load(open(os.path.join(out, "linearization_report.json")))
        assert report["pass"] is True
        assert report["max_relative_jacobian_error"] <= 1e-6

    @pytest.mark.parametrize("config", [
        {},
        {"law": {"law": "hookean"}, "k_max": "a"},
        {"law": {"law": "hookean"}, "k_max": -3},
        {"law": {"law": "hookean"}, "k_max": 0},
        {"law": {"law": "hookean"}, "delta": 0},
        {"law": {"law": "hookean"}, "delta": float("nan")},
        {"law": {"law": "hookean"}, "delta": "1e-6"},
        {"law": {"law": "cubic"}, "delta": 1e308},
        {"law": {"law": "cubic"}, "delta": 0.02},
        {"law": {"law": "hookean"}, "zz": 1},
        {"law": {"law": "hookean"}, "a1": [float("nan"), 0.0]},
    ], ids=["no-law", "k-max-string", "k-max-negative", "k-max-0",
            "delta-zero", "delta-nan", "delta-string", "delta-huge", "delta-above-bound",
            "unknown-key", "a1-nan"])
    def test_bad_config_exit_code(self, tmp_path, config):
        # k_max = 0 checks no mode, and delta = 0 makes the Jacobian NaN:
        # either would pass on nothing; a delta above 1e-2 cannot pass, and
        # 1e308 overflows the perturbed curve
        cfg = write_config(tmp_path / "l.json", config)
        assert main(["verify-linearization", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == EXIT_CONFIG

    def test_nan_jacobian_fails(self, tmp_path, monkeypatch):
        # a non-finite error fails the check instead of vanishing inside max
        import peskin2d.nonlin as nonlin
        monkeypatch.setattr(nonlin, "eval_nonlinearity_stack",
                            lambda modes, law, M: np.full(modes.shape, np.nan, dtype=complex))
        cfg = write_config(tmp_path / "l.json", {"law": {"law": "hookean"}, "k_max": 2})
        out = str(tmp_path / "lin")
        assert main(["verify-linearization", "--config", cfg,
                     "--out", out]) == EXIT_CHECK_FAILED
        report = json.load(open(os.path.join(out, "linearization_report.json")))
        assert report["pass"] is False
        assert math.isnan(report["max_relative_jacobian_error"])

    @pytest.mark.parametrize("config, code, words", [
        ({"law": {"law": "cubic"}, "M": 33}, EXIT_CONFIG, ("M", "k_max 12", "33")),
        ({"law": {"law": "cubic"}, "M": 28}, EXIT_CONFIG, ("M", ">= 2 (k_max + 2) + 2 = 30")),
        ({"law": {"law": "cubic"}, "k_max": 2, "M": 6}, EXIT_CONFIG, ("M", "k_max 2")),
        ({"law": {"law": "cubic"}, "a1": [1.5, 0.0]}, EXIT_TENSION_DOMAIN, ("stretch",)),
    ], ids=["M-odd", "M-too-small", "M-too-small-k-max-2", "a1-stretch"])
    def test_config_checked_before_out_is_created(self, tmp_path, capsys, config, code, words):
        cfg = write_config(tmp_path / "l.json", config)
        out = tmp_path / "lin"
        assert main(["verify-linearization", "--config", cfg, "--out", str(out)]) == code
        err = capsys.readouterr().err
        assert all(word in err for word in words), err
        assert "K=" not in err
        assert not out.exists()

    def test_report_independent_of_blas_threads(self, tmp_path):
        cfg = write_config(tmp_path / "l.json", {"law": {"law": "cubic", "c": 1.0}})
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            proc = subprocess.run(
                [sys.executable, "-m", "peskin2d.cli", "verify-linearization",
                 "--config", cfg, "--out", str(out)],
                env=src_env(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads),
                capture_output=True, text=True, timeout=300)
            assert proc.returncode == EXIT_OK, proc.stderr
            outputs.append([(out / name).read_bytes()
                            for name in ("linearization_report.json", "manifest.json")])
        assert outputs[0] == outputs[1]

    def test_broken_law_structural_report(self, tmp_path):
        cfg = write_config(tmp_path / "b.json",
                           {"law": {"law": "affine", "c0": 3.0, "c1": -1.0,
                                    "check_positivity": False}})
        out = str(tmp_path / "bad")
        assert main(["verify-linearization", "--config", cfg,
                     "--out", out]) == EXIT_CHECK_FAILED
        report = json.load(open(os.path.join(out, "linearization_report.json")))
        assert report["structural_condition"] == "failed"
        assert len(report["failures_at_r"]) > 0


class TestExitCodeTable:
    def test_documented_codes(self):
        # the table is part of the public contract
        from peskin2d.cli import (EXIT_OK, EXIT_CHECK_FAILED, EXIT_CONFIG,
                                  EXIT_GEOMETRY, EXIT_TENSION_DOMAIN,
                                  EXIT_STEP_REJECTED, EXIT_INSUFFICIENT_DECAY)
        assert (EXIT_OK, EXIT_CHECK_FAILED, EXIT_CONFIG, EXIT_GEOMETRY,
                EXIT_TENSION_DOMAIN, EXIT_STEP_REJECTED,
                EXIT_INSUFFICIENT_DECAY) == (0, 1, 2, 3, 4, 5, 6)

    def test_readme_table_lists_every_code(self):
        from peskin2d import cli
        codes = sorted(v for k, v in vars(cli).items() if k.startswith("EXIT_"))
        table = [line.split("|")[1].strip() for line in
                 (REPO / "README.md").read_text().splitlines()
                 if line.startswith("| ") and line.split("|")[1].strip().isdigit()]
        assert [int(c) for c in table] == codes == list(range(8))
        assert sorted(code for _, code in cli._ERROR_CODES) == codes[2:]

    def test_readme_lists_every_config_key(self):
        # one README key table per command, law and initial-data kind, with
        # exactly the keys of its schema
        from peskin2d import cli, initdata, integrator, tension
        schemas = {"`simulate`": integrator._RUN_SCHEMA,
                   "`linear-spectrum`": cli._SPECTRUM_SCHEMA,
                   "`verify-kernels`": cli._KERNELS_SCHEMA,
                   "`verify-linearization`": cli._LINEARIZATION_SCHEMA}
        schemas.update({f"law `{kind}`": ["law", *schema]
                        for kind, schema in tension._LAW_SCHEMAS.items()})
        schemas.update({f"initial data `{kind}`": ["kind", *schema]
                        for kind, schema in initdata._SPEC_SCHEMAS.items()})
        tables, heading = {}, None
        for line in (REPO / "README.md").read_text().splitlines():
            if line.startswith("#"):
                heading = line.lstrip("#").strip()
            elif line.startswith("| `"):
                tables.setdefault(heading, set()).add(line.split("`")[1])
        for heading, schema in schemas.items():
            assert tables.get(heading) == set(schema), heading

    @pytest.mark.parametrize("command", ["simulate", "linear-spectrum"])
    def test_ill_conditioned_exit_code(self, tmp_path, monkeypatch, capsys, command):
        from peskin2d import cli, linear
        from peskin2d.cli import EXIT_ILL_CONDITIONED
        from peskin2d.errors import IllConditioned

        def ill_conditioned(*args, **kwargs):
            raise IllConditioned("pair m=3: eigenvector condition 1e+13 exceeds 1e+12")

        # simulate builds its propagators through linear._matrix_functions, where
        # IllConditioned is raised; linear-spectrum never builds a propagator, so
        # its one computation stands in for the raise site
        monkeypatch.setattr(linear, "_matrix_functions", ill_conditioned)
        monkeypatch.setattr(cli, "spectrum_report", ill_conditioned)
        config = SIM_CONFIG if command == "simulate" else {"law": {"law": "cubic"}}
        cfg = write_config(tmp_path / "c.json", config)
        code = main([command, "--config", cfg, "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == EXIT_ILL_CONDITIONED
        assert err.startswith("error: pair m=3:") and "Traceback" not in err

    def test_overflowing_law_exits_2_quietly(self, tmp_path):
        # cubic tau overflows to inf on the positivity grid up to r_max = 1e200
        config = dict(SIM_CONFIG, law={"law": "cubic", "r_max": 1e200})
        cfg = write_config(tmp_path / "big.json", config)
        out = tmp_path / "o"
        proc = subprocess.run(
            [sys.executable, "-m", "peskin2d.cli", "simulate", "--config", cfg,
             "--out", str(out)],
            env=src_env(), capture_output=True, text=True, timeout=300)
        assert proc.returncode == EXIT_CONFIG, proc.stderr
        assert proc.stderr.startswith("error: law 'cubic(c=1.0)' needs finite tau")
        assert "RuntimeWarning" not in proc.stderr and "Traceback" not in proc.stderr
        assert not out.exists()

    def test_step_rejected_exit_code(self, tmp_path):
        from peskin2d.cli import EXIT_STEP_REJECTED
        config = {
            "law": {"law": "affine", "c0": 3.0, "c1": -1.0,
                    "check_positivity": False},
            "initial_data": {"kind": "single_mode", "k": 2,
                             "amplitude": [1e-8, 0.0]},
            "K": 8, "M": 32, "dt": 12.0, "t_end": 24.0,
        }
        code, _ = simulate(tmp_path, config)
        assert code == EXIT_STEP_REJECTED


class TestUnwritableOutput:
    """An output path that cannot be written exits 2 with a message, not a traceback."""

    @pytest.mark.parametrize("name", ["diagnostics.csv", "snapshot_000000.json"])
    def test_simulate(self, tmp_path, capsys, name):
        os.makedirs(tmp_path / "run" / name)  # simulate clears an earlier snapshot_*.json
        code, _ = simulate(tmp_path, dict(SIM_CONFIG, t_end=0.5))
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert err.startswith("error: ") and name in err and "Traceback" not in err

    def test_verify_kernels(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "k.json", {"k_max": 1, "M": 64, "n_max": 1,
                                                 "oversample": 2, "alphas_per_decade": 1})
        os.makedirs(tmp_path / "o" / "kernel_report.json")
        code = main(["verify-kernels", "--config", cfg, "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert err.startswith("error: ") and "kernel_report.json" in err


BIG = 10 ** 30


class TestIntegerUpperBounds:
    """An integer key above its bound exits 2 before anything of its size is allocated."""

    @pytest.mark.parametrize("command, config", [
        ("linear-spectrum", {"m_max": BIG}),
        ("verify-kernels", {"n_max": BIG}),
        ("verify-kernels", {"M": BIG}),
        ("verify-kernels", {"oversample": BIG}),
        ("verify-kernels", {"alphas_per_decade": BIG}),
        ("verify-linearization", {"law": {"law": "cubic"}, "k_max": BIG}),
        ("verify-linearization", {"law": {"law": "cubic"}, "M": BIG}),
        ("simulate", dict(SIM_CONFIG, K=BIG, M=None)),
        ("simulate", dict(SIM_CONFIG, M=BIG)),
        ("simulate", dict(SIM_CONFIG, initial_data={"kind": "polygonal", "vertices": BIG})),
    ], ids=["m-max", "n-max", "kernels-M", "oversample", "alphas-per-decade",
            "linearization-k-max", "linearization-M", "K", "M", "vertices"])
    def test_above_bound_exit_code(self, tmp_path, capsys, command, config):
        cfg = write_config(tmp_path / "c.json", config)
        code = main([command, "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG
        assert "must be an integer" in capsys.readouterr().err


class TestInterface:
    def test_flag_passthrough(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", SIM_CONFIG)
        out = str(tmp_path / "flags")
        code = main(["simulate", "--config", cfg, "--out", out,
                     "--snapshot-every", "0.5", "--watch-modes", "2,5"])
        assert code == EXIT_OK
        header = open(os.path.join(out, "diagnostics.csv")).readline().strip()
        assert header.startswith("t,abs_a2,abs_a5,")

    def test_inline_init(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", SIM_CONFIG)
        out = str(tmp_path / "inline")
        code = main(["simulate", "--config", cfg, "--out", out, "--init",
                     json.dumps({"kind": "single_mode", "k": 3,
                                 "amplitude": [1e-3, 0.0]})])
        assert code == EXIT_OK
        manifest = json.load(open(os.path.join(out, "manifest.json")))
        assert manifest["config"]["initial_data"]["k"] == 3

    def test_consecutive_calls_parse_independently(self, tmp_path):
        # the parser is built once per process: a flag of one call must not
        # leak into the next, whatever subcommand ran in between
        cfg = write_config(tmp_path / "c.json", SIM_CONFIG)
        spec = write_config(tmp_path / "s.json", {"law": {"law": "cubic"}, "m_max": 4})
        first, second = str(tmp_path / "flag"), str(tmp_path / "config")
        assert main(["simulate", "--config", cfg, "--out", first,
                     "--snapshot-every", "0.5", "--watch-modes", "5"]) == EXIT_OK
        assert main(["linear-spectrum", "--config", spec,
                     "--out", str(tmp_path / "spec")]) == EXIT_OK
        assert main(["simulate", "--config", cfg, "--out", second]) == EXIT_OK
        # t_end 4: every 0.5 gives 9 snapshots, the config's 0.25 gives 17
        assert len(snapshot_names(first)) == 9
        assert len(snapshot_names(second)) == 17
        header = open(os.path.join(second, "diagnostics.csv")).readline()
        assert header.startswith("t,abs_a2,abs_a3,abs_a-1,")
        manifest = json.load(open(os.path.join(second, "manifest.json")))
        assert manifest["config"]["snapshot_every"] == 0.25

    def test_help_lists_subcommands(self, capsys):
        with pytest.raises(SystemExit) as e:
            main(["--help"])
        assert e.value.code == 0
        text = capsys.readouterr().out
        for name in SUBCOMMANDS:
            assert name in text

    def test_unknown_flag_is_error(self):
        with pytest.raises(SystemExit) as e:
            main(["simulate", "--config", "x.json", "--out", "y", "--frobnicate"])
        assert e.value.code != 0

    def test_console_script_installed(self):
        # the package declares a `peskin2d` command, its target imports, and
        # the wrapper an installer writes for it runs; no install is needed
        value = declared_console_script()
        assert value == "peskin2d.cli:main"
        target = importlib.metadata.EntryPoint(
            name="peskin2d", value=value, group="console_scripts").load()
        assert callable(target)
        module, attr = value.split(":")
        wrapper = f"import sys; from {module} import {attr}; sys.exit({attr}())"
        proc = subprocess.run(
            [sys.executable, "-c", wrapper, "--help"], env=src_env(),
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("usage: peskin2d"), proc.stdout
        for name in SUBCOMMANDS:
            assert name in proc.stdout

    @pytest.mark.skipif(
        not peskin2d_installed(),
        reason="no installed peskin2d distribution "
               "(importlib.metadata.PackageNotFoundError: peskin2d)")
    def test_installed_console_script_runs(self):
        dist = importlib.metadata.distribution("peskin2d")
        entry = dist.entry_points.select(group="console_scripts",
                                         name="peskin2d")
        assert [ep.value for ep in entry] == [declared_console_script()]
        script = (shutil.which("peskin2d", path=sysconfig.get_path("scripts"))
                  or shutil.which("peskin2d"))
        assert script is not None, "peskin2d script not in scripts dir or PATH"
        proc = subprocess.run([script, "--help"], capture_output=True,
                              text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
