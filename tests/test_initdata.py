import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from peskin2d import (ConfigError, FourierCurve, GeometryError, corner_report,
                      initdata, make_corner, make_single_mode, rescale_to_norm, split)
from peskin2d.curve import _grid_to_modes, fourier_samples, wavenumbers
from peskin2d.initdata import InitialDataSpec, make_polygonal, make_random_decay, tent_hat
from peskin2d.norms import block_l2_profile, s_norm, wiener_snapshot


class TestSingleMode:
    def test_basic(self):
        c = make_single_mode(16, 2, 1e-3)
        assert c.mode(2) == 1e-3
        assert np.abs(c.modes).sum() == 1e-3

    def test_pair_partner(self):
        c = make_single_mode(16, -1, 1e-3)
        assert c.mode(-1) == 1e-3

    def test_round_trip(self):
        c = make_single_mode(8, 3, 2e-3 + 1e-3j)
        back = _grid_to_modes(fourier_samples(wavenumbers(8), c.modes, 64), 8)
        assert np.abs(back - c.modes).max() < 1e-15

    def test_rejects_steady_modes(self):
        with pytest.raises(ConfigError):
            make_single_mode(8, 0, 1e-3)
        with pytest.raises(ConfigError):
            make_single_mode(8, 1, 1e-3)
        c = make_single_mode(8, 1, 1e-3, allow_steady=True)
        assert c.mode(1) == 1e-3


class TestCorner:
    def test_tent_spectrum_closed_form(self):
        # the generated coefficients are the calibrated tent spectrum; the
        # grid round trip must reproduce them from the samples
        K = 64
        curve = make_corner(K, [0.0], [1.0], 1e-2)
        back = _grid_to_modes(fourier_samples(wavenumbers(K), curve.modes, 512), K)
        assert np.abs(back - curve.modes).max() < 1e-10
        # shape check against the raw closed form (common rescale factor)
        k = np.arange(-K, K + 1)
        raw = tent_hat(k - 1, 1.0)
        raw[K] = raw[K + 1] = 0.0
        mask = np.abs(raw) > 1e-12
        factor = curve.modes[mask] / raw[mask]
        assert np.abs(factor - factor[0]).max() < 1e-12 * abs(factor[0])

    def test_single_tent_snorm_is_amplitude(self):
        curve = make_corner(128, [0.0], [1.0], 1e-2)
        report = corner_report(128, [0.0], [1.0], 1e-2)
        assert report["s_norm"] == pytest.approx(1e-2, rel=1e-12)
        assert s_norm(curve.modes) == pytest.approx(1e-2, rel=1e-12)

    def test_multi_tent_snorm_within_factor_two(self):
        report = corner_report(128, [0.0, np.pi], [1.0, 1.0], 1e-2)
        assert 0.5e-2 <= report["s_norm"] / 2.0 <= 2e-2  # strengths sum to 2

    def test_corner_block_signature(self):
        # bounded non-decaying block profile over n = 2..6
        K = 128
        curve = make_corner(K, [0.0, np.pi], [1.0, 1.0], 1e-2)
        prof = block_l2_profile(split(curve).y_modes)[2:7]
        assert prof.min() > 0
        assert prof.max() / prof.min() <= 4.0

    def test_linearity_in_amplitude(self):
        c1 = make_corner(64, [0.5], [1.0], 1e-2)
        c2 = make_corner(64, [0.5], [1.0], 0.5e-2)
        assert np.abs(c1.modes - 2.0 * c2.modes).max() < 1e-18
        assert s_norm(c2.modes) == pytest.approx(0.5 * s_norm(c1.modes), rel=1e-12)

    def test_zero_steady_components(self):
        curve = make_corner(64, [1.0, 2.0], [1.0, -0.5], 1e-2)
        sp = split(curve)
        assert sp.a0 == 0 and sp.a1 == 0

    def test_geometry_guard(self):
        # a deep inward spike collapses the curve through the origin
        with pytest.raises(GeometryError):
            make_corner(64, [0.0], [-1.0], 16.0, width=0.5)

    def test_tail_report_positive(self):
        report = corner_report(64, [0.0], [1.0], 1e-2)
        assert report["tail_w_estimate"] > 0
        # corner spectra lose Wiener mass only logarithmically: the tail
        # beyond K is a visible fraction of the retained mass
        assert report["tail_w_estimate"] > 1e-6 * report["w_norm"]

    def test_report_describes_the_curve(self):
        curve = make_corner(64, [0.0, 1.9], [1.0, 0.7], 1e-2)
        report = corner_report(64, [0.0, 1.9], [1.0, 0.7], 1e-2)
        assert report["s_norm"] == s_norm(curve.modes)
        assert report["w_norm"] == wiener_snapshot(curve.modes, 0.0)

    def test_rejects_duplicate_positions(self):
        with pytest.raises(ConfigError):
            make_corner(32, [0.1, 0.1], [1.0, 1.0], 1e-2)

    @pytest.mark.parametrize("positions, distinct", [
        ([0.0, 2.0 * np.pi], False),            # the same angle mod 2 pi
        ([1.0, 1.0 + 1e-14, 3.0], False),       # equal to 12 digits
        ([1.0, 1.0 + 1e-9, 3.0], True),
        ([3.0, 0.5, 2.0, 0.5], False),          # duplicates apart in the list
        ([np.nan, 1.0], True),
        ([np.nan, np.nan], False),              # np.unique counts NaNs as one
    ])
    def test_distinct_positions_as_np_unique_counts_them(self, positions, distinct):
        rounded = np.round(np.asarray(positions) % (2 * np.pi), 12)
        assert (np.unique(rounded).size == rounded.size) == distinct
        if distinct:
            make_corner(32, positions, np.ones(len(positions)), 1e-2)
        else:
            with pytest.raises(ConfigError, match="tent positions must be distinct"):
                make_corner(32, positions, np.ones(len(positions)), 1e-2)

    def test_corner_simulate_does_not_import_numpy_ma(self, tmp_path):
        # np.unique imports numpy.ma, which costs 12-21 ms on every corner set-up
        config = {"law": {"law": "cubic"}, "K": 16, "M": 64, "dt": 0.01, "t_end": 0.02,
                  "initial_data": {"kind": "corner", "positions": [0.0, 1.9],
                                   "strengths": [1.0, 0.7], "amplitude": 0.01}}
        path = tmp_path / "corner.json"
        path.write_text(json.dumps(config))
        script = ("import sys; from peskin2d.cli import main; "
                  f"code = main(['simulate', '--config', {str(path)!r}, '--out', "
                  f"{str(tmp_path / 'out')!r}]); "
                  "print(code, 'numpy.ma' in sys.modules)")
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.stdout.split() == ["0", "False"], proc.stderr


class TestPolygonal:
    def test_basic(self):
        curve = make_polygonal(64, 5, 1e-2)
        report = corner_report(64, 2.0 * np.pi * np.arange(5) / 5, np.ones(5), 1e-2,
                               width=np.pi / 5)
        sp = split(curve)
        assert sp.a0 == 0 and sp.a1 == 0
        assert report["s_norm"] > 0
        # five-fold symmetry: X = e^{is} h(s) with h having only modes 0 mod 5,
        # so perturbation modes sit at k = 1 mod 5 (minus the removed 0, 1)
        k = np.arange(-64, 65)
        live = np.abs(curve.modes) > 1e-18
        assert np.all((k[live] - 1) % 5 == 0)


class TestRandomDecay:
    def test_deterministic_per_seed(self):
        a = make_random_decay(32, 2.0, 42, 1e-2)
        b = make_random_decay(32, 2.0, 42, 1e-2)
        assert np.array_equal(a.modes, b.modes)
        c = make_random_decay(32, 2.0, 43, 1e-2)
        assert not np.array_equal(a.modes, c.modes)

    def test_golden_values(self):
        # frozen from the counter-based generator; guards stream stability
        c = make_random_decay(8, 2.0, 7, 1.0)
        assert abs(c.modes[8 + 2]) == pytest.approx(0.25, rel=1e-12)
        assert abs(c.modes[8 - 3]) == pytest.approx(1.0 / 9.0, rel=1e-12)

    def test_zero_amplitude(self):
        c = make_random_decay(16, 2.0, 1, 0.0)
        assert np.abs(c.modes).max() == 0.0

    def test_snorm_linear_in_amplitude(self):
        a = make_random_decay(32, 2.0, 5, 1e-2)
        b = make_random_decay(32, 2.0, 5, 2e-2)
        assert s_norm(b.modes) == pytest.approx(2 * s_norm(a.modes), rel=1e-12)

    def test_rejects_flat_decay(self):
        with pytest.raises(ConfigError):
            make_random_decay(16, 0.9, 0, 1e-3)


class TestRescale:
    @pytest.mark.parametrize("name", ["s", "w"])
    def test_exact_and_idempotent(self, name):
        curve = make_corner(64, [0.0, 2.0], [1.0, 0.7], 3e-2)
        scaled = rescale_to_norm(curve, name, 1e-2)
        measure = s_norm if name == "s" else lambda m: wiener_snapshot(m, 0.0)
        assert measure(scaled.modes) == pytest.approx(1e-2, rel=1e-10)
        again = rescale_to_norm(scaled, name, 1e-2)
        assert np.abs(again.modes - scaled.modes).max() <= 1e-12 * 1e-2

    @pytest.mark.parametrize("amplitude", [1e-200, 1e-320])
    @pytest.mark.parametrize("name", ["s", "w"])
    def test_exact_at_tiny_amplitude(self, name, amplitude):
        # |a_k|^2 underflows unless the modes are scaled before measuring
        scaled = rescale_to_norm(make_random_decay(16, 2.0, 0, amplitude), name, 1e-2)
        measure = s_norm if name == "s" else lambda m: wiener_snapshot(m, 0.0)
        assert measure(scaled.modes) == pytest.approx(1e-2, rel=1e-15)

    def test_zero_data_rejected(self):
        c = make_random_decay(8, 2.0, 0, 0.0)
        with pytest.raises(ConfigError):
            rescale_to_norm(c, "s", 1e-2)


class TestSpec:
    def test_from_dict_and_make(self):
        spec = InitialDataSpec.from_dict({
            "kind": "corner", "positions": [0.0, 1.9], "strengths": [1.0, 0.7],
            "amplitude": 0.02, "target_norm": ["s", 0.01]})
        curve = spec.make(64)
        assert s_norm(split(curve).y_modes) == pytest.approx(0.01, rel=1e-10)

    def test_single_mode_spec(self):
        spec = InitialDataSpec.from_dict(
            {"kind": "single_mode", "k": 2, "amplitude": [1e-3, 0.0]})
        curve = spec.make(16)
        assert curve.mode(2) == 1e-3

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            InitialDataSpec.from_dict({"kind": "fractal"}).make(8)

    @pytest.mark.parametrize("spec", [
        {"kind": "single_mode", "k": 2, "amplitude": float("inf")},
        {"kind": "random_decay", "amplitude": float("nan")},
        {"kind": "corner", "positions": [0.0], "strengths": [float("nan")]},
        {"kind": "random_decay", "amplitude": float("inf")},
        {"kind": "corner", "positions": [0.0], "strengths": [1.0],
         "amplitude": [float("inf"), 0.0]},
    ], ids=["single-mode-inf", "random-decay-nan", "corner-nan", "random-decay-inf",
            "corner-pair-inf"])
    def test_non_finite_modes_rejected(self, spec):
        with pytest.raises(ConfigError, match="non-finite"):
            InitialDataSpec.from_dict(spec).make(8)

    def test_steady_modes_rejected_without_assert(self, monkeypatch):
        # a generator that leaves a0 != 0 is a config error, also under -O
        def shifted(K, *args, **kwargs):
            modes = np.zeros(2 * K + 1, dtype=complex)
            modes[K] = 1e-3
            modes[K + 2] = 1e-3
            return FourierCurve(modes)
        monkeypatch.setattr(initdata, "make_random_decay", shifted)
        with pytest.raises(ConfigError, match="steady modes"):
            InitialDataSpec.from_dict({"kind": "random_decay"}).make(8)
