import hashlib
import importlib.metadata
import json
import math
import os
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from peskin2d.cli import (EXIT_CHECK_FAILED, EXIT_CONFIG, EXIT_GEOMETRY,
                          EXIT_INSUFFICIENT_DECAY, EXIT_OK,
                          EXIT_TENSION_DOMAIN, main)


REPO = Path(__file__).resolve().parents[1]
SUBCOMMANDS = ("simulate", "linear-spectrum", "verify-kernels",
               "measure-norms", "fit-decay", "verify-linearization")


def src_env(**extra):
    """Environment for a fresh interpreter that imports the package from src."""
    pythonpath = os.pathsep.join(
        p for p in (str(REPO / "src"), os.environ.get("PYTHONPATH")) if p)
    return dict(os.environ, PYTHONPATH=pythonpath, **extra)


def declared_console_script():
    """The `peskin2d` entry of [project.scripts] in pyproject.toml."""
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    with open(REPO / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"].get("scripts", {})
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
    ], ids=["K-not-int", "M-string", "law-c-string", "corner-no-positions",
            "mode-not-int", "dt-nan", "snapshot-every-string",
            "watch-modes-string", "t-end-inf", "snapshot-every-zero",
            "snapshot-every-negative", "frozen-string"])
    def test_bad_config_value_exit_code(self, tmp_path, override):
        # a bad value is a config error (exit 2), never an uncaught exception
        code, _ = simulate(tmp_path, dict(SIM_CONFIG, **override))
        assert code == EXIT_CONFIG

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

    def test_verify_kernels_small(self, tmp_path):
        cfg = write_config(tmp_path / "k.json",
                           {"k_max": 8, "M": 128, "n_max": 2, "oversample": 4})
        out = str(tmp_path / "kern")
        assert main(["verify-kernels", "--config", cfg, "--out", out]) == EXIT_OK
        report = json.load(open(os.path.join(out, "kernel_report.json")))
        assert report["pass"] is True
        assert report["identity_max_error"] <= 1e-12
        assert report["dual_formula_max_error"] <= 1e-10


    @pytest.mark.parametrize("config", [
        {"m_max": "x"},
        {"m_max": 2},
        {"law": {"law": "cubic", "c": "x"}},
        {"a1": 3},
    ], ids=["m-max-string", "m-max-2", "law-c-string", "a1-not-pair"])
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
    ], ids=["n-max-negative", "alphas-per-decade-0", "k-max-string",
            "k-max-negative", "not-an-object"])
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
    ], ids=["no-law", "k-max-string", "k-max-negative", "k-max-0",
            "delta-zero", "delta-nan"])
    def test_bad_config_exit_code(self, tmp_path, config):
        # k_max = 0 checks no mode, and delta = 0 makes the Jacobian NaN:
        # either would pass on nothing
        cfg = write_config(tmp_path / "l.json", config)
        assert main(["verify-linearization", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == EXIT_CONFIG

    def test_nan_jacobian_fails(self, tmp_path, monkeypatch):
        # a non-finite error fails the check instead of vanishing inside max
        import peskin2d.cli as cli
        monkeypatch.setattr(cli, "eval_nonlinearity", lambda curve, law, M: SimpleNamespace(
            n_modes=np.full(curve.modes.size, np.nan, dtype=complex)))
        cfg = write_config(tmp_path / "l.json", {"law": {"law": "hookean"}, "k_max": 2})
        out = str(tmp_path / "lin")
        assert main(["verify-linearization", "--config", cfg,
                     "--out", out]) == EXIT_CHECK_FAILED
        report = json.load(open(os.path.join(out, "linearization_report.json")))
        assert report["pass"] is False
        assert math.isnan(report["max_relative_jacobian_error"])

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
