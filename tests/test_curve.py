import json

import numpy as np
import pytest

from peskin2d import (ConfigError, FourierCurve, analyze, derivative, eval_y,
                      from_json_dict, grid_to_csv, reassemble, split,
                      synthesize, to_json_dict, y_tilde)
from peskin2d.curve import _dft_direct, wavenumbers

from conftest import random_y_modes


def make_curve(K, assign):
    modes = np.zeros(2 * K + 1, dtype=complex)
    for k, v in assign.items():
        modes[K + k] = v
    return FourierCurve(modes)


class TestSynthesize:
    def test_unit_circle(self):
        grid = synthesize(make_curve(3, {}), 8)
        assert np.allclose(grid.samples, np.exp(1j * grid.s), atol=1e-15)

    def test_single_mode(self):
        grid = synthesize(make_curve(4, {2: 0.1}), 16)
        expect = np.exp(1j * grid.s) + 0.1 * np.exp(2j * grid.s)
        assert np.allclose(grid.samples, expect, atol=1e-15)

    def test_rejects_bad_grid(self):
        with pytest.raises(ConfigError):
            synthesize(make_curve(4, {}), 15)  # odd
        with pytest.raises(ConfigError):
            synthesize(make_curve(8, {}), 16)  # < 2K+2

    def test_round_trip_random(self, rng):
        K, M = 32, 128
        curve = FourierCurve(random_y_modes(rng, K, decay=1.5, amp=0.1))
        back = analyze(synthesize(curve, M), K)
        assert np.abs(back.modes - curve.modes).max() < 1e-13


class TestAnalyze:
    def test_pure_third_mode(self):
        s = 2 * np.pi * np.arange(16) / 16
        from peskin2d.curve import PhysicalGrid
        grid = PhysicalGrid(16, np.exp(1j * s) + np.exp(3j * s))
        curve = analyze(grid, 5)
        expect = np.zeros(11, complex)
        expect[5 + 3] = 1.0
        assert np.abs(curve.modes - expect).max() < 1e-14

    def test_unit_circle_gives_zero(self):
        s = 2 * np.pi * np.arange(16) / 16
        from peskin2d.curve import PhysicalGrid
        curve = analyze(PhysicalGrid(16, np.exp(1j * s)), 5)
        assert np.abs(curve.modes).max() < 1e-15

    def test_direct_dft_matches_fft(self, rng):
        # the slow path is the oracle for the fast path
        K = 10
        vals = rng.normal(size=64) + 1j * rng.normal(size=64)
        k = wavenumbers(K)
        fast = np.fft.fft(vals)[k % 64] / 64
        assert np.abs(_dft_direct(vals, K) - fast).max() < 1e-13

    def test_non_pow2_grid(self, rng):
        K, M = 8, 36
        curve = FourierCurve(random_y_modes(rng, K, amp=0.2))
        back = analyze(synthesize(curve, M), K)
        assert np.abs(back.modes - curve.modes).max() < 1e-13

    @pytest.mark.parametrize("M", [36, 100, 162])
    def test_non_pow2_synthesis_matches_direct_sum(self, rng, M):
        # the FFT path against e^{is_j} + sum_k a_k e^{iks_j}, summed directly
        K = 16
        curve = FourierCurve(random_y_modes(rng, K, amp=0.2))
        s = 2 * np.pi * np.arange(M) / M
        direct = np.exp(1j * s) + np.exp(1j * np.outer(s, wavenumbers(K))) @ curve.modes
        assert np.abs(synthesize(curve, M).samples - direct).max() < 1e-13


class TestSplit:
    def test_constant_mode(self):
        sp = split(make_curve(3, {0: 1 + 1j}))
        assert sp.a0 == 1 + 1j and sp.a1 == 0
        assert np.abs(sp.y_modes).max() == 0

    def test_mixed(self):
        sp = split(make_curve(6, {1: 0.2, 5: 0.01}))
        assert sp.a1 == 0.2
        assert sp.y_modes[6 + 5] == 0.01
        assert sp.y_modes[6 + 1] == 0

    def test_reassembly_identity(self, rng):
        modes = rng.normal(size=21) + 1j * rng.normal(size=21)
        curve = FourierCurve(modes)
        back = reassemble(split(curve))
        assert np.array_equal(back.modes, curve.modes)


class TestDerivative:
    def test_single_mode(self):
        d = derivative(make_curve(4, {2: 1.0}))
        assert d[4 + 2] == 2j
        assert np.abs(np.delete(d, 4 + 2)).max() == 0

    def test_zero_curve(self):
        assert np.abs(derivative(make_curve(4, {}))).max() == 0

    def test_against_finite_difference(self, rng):
        # perturbation-sized data: truncation error of the stencil stays below 1e-8
        K, M = 16, 256
        curve = FourierCurve(random_y_modes(rng, K, decay=3.0, amp=1e-4))
        from peskin2d.curve import _modes_to_grid
        x = _modes_to_grid(curve.modes, M)
        h = 2 * np.pi / M
        # 4th-order centered stencil on the periodic samples
        fd = (-np.roll(x, -2) + 8 * np.roll(x, -1)
              - 8 * np.roll(x, 1) + np.roll(x, 2)) / (12 * h)
        spectral = _modes_to_grid(derivative(curve), M)
        assert np.abs(fd - spectral).max() < 1e-8


class TestYTilde:
    def test_zero_perturbation(self):
        c = make_curve(4, {})
        for s, a in [(0.3, 1.0), (2.0, -0.5), (1.0, 1e-12)]:
            assert y_tilde(c, s, a) == 0

    def test_single_mode_closed_form(self, rng):
        a2 = 0.37 - 0.21j
        c = make_curve(4, {2: a2})
        for _ in range(20):
            s = rng.uniform(0, 2 * np.pi)
            a = rng.uniform(-np.pi, np.pi)
            if abs(a) < 1e-6:
                continue
            expect = a2 * np.exp(1j * s) * np.exp(-1j * a / 2) \
                * (np.exp(-2j * a) - 1) / (2 * np.sin(a / 2))
            assert y_tilde(c, s, a) == pytest.approx(expect, rel=1e-12)

    def test_limit_continuity(self, rng):
        c = FourierCurve(random_y_modes(rng, 8, amp=0.3))
        for s in rng.uniform(0, 2 * np.pi, 5):
            limit = -np.exp(-1j * s) * eval_y(c, s, order=1)
            assert abs(y_tilde(c, s, 1e-9) - limit) < 1e-6
            # values approach the limit from both sides
            assert abs(y_tilde(c, s, 1e-7) - limit) < 1e-5

    def test_bounded_by_yprime(self, rng):
        for _ in range(20):
            c = FourierCurve(random_y_modes(rng, 16, amp=0.05))
            sup = np.abs(eval_y(c, np.linspace(0, 2 * np.pi, 512), order=1)).max()
            s = rng.uniform(0, 2 * np.pi, 30)
            a = rng.uniform(-np.pi, np.pi, 30)
            vals = np.abs(y_tilde(c, s, a))
            assert vals.max() <= sup * (1 + 1e-9)


class TestInvariants:
    def test_parseval(self, rng):
        K, M = 16, 128
        curve = FourierCurve(random_y_modes(rng, K, amp=0.5))
        grid = synthesize(curve, M)
        x = grid.samples - np.exp(1j * grid.s)
        grid_energy = np.sum(np.abs(x) ** 2) / M  # (1/2pi) integral |X|^2
        coeff_energy = np.sum(np.abs(curve.modes) ** 2)
        assert grid_energy == pytest.approx(coeff_energy, rel=1e-12)

    def test_translation_equivariance(self, rng):
        K, M = 8, 64
        curve = FourierCurve(random_y_modes(rng, K, amp=0.3))
        grid = synthesize(curve, M)
        shifted = np.roll(grid.samples, -1)  # samples at s_j + 2pi/M
        from peskin2d.curve import PhysicalGrid
        back = analyze(PhysicalGrid(M, shifted), K)
        k = wavenumbers(K)
        h = 2 * np.pi / M
        # every mode of the full curve picks up e^{ikh}; in perturbation
        # coordinates the shifted base circle leaves (e^{ih}-1) on mode 1
        expect = curve.modes * np.exp(1j * k * h)
        expect[K + 1] += np.exp(1j * h) - 1.0
        assert np.abs(back.modes - expect).max() < 1e-13


class TestSerialization:
    def test_json_round_trip(self, rng):
        curve = FourierCurve(random_y_modes(rng, 6, amp=1.0), time=2.5)
        d = json.loads(json.dumps(to_json_dict(curve)))
        back = from_json_dict(d)
        assert back.time == 2.5
        assert np.array_equal(back.modes, curve.modes)

    def test_csv_export(self, tmp_path):
        grid = synthesize(make_curve(3, {2: 0.1}), 8)
        path = tmp_path / "curve.csv"
        grid_to_csv(grid, path)
        rows = path.read_text().strip().split("\n")
        assert rows[0] == "s,re_x,im_x"
        assert len(rows) == 9
        s0, re0, im0 = map(float, rows[1].split(","))
        assert (s0, re0, im0) == (0.0, pytest.approx(1.1), pytest.approx(0.0))
