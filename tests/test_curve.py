import json
from functools import partial

import numpy as np
import pytest

from peskin2d import FourierCurve, split
from peskin2d.curve import (_dft_direct, _grid_to_modes, difference_quotient, fourier_eval,
                            fourier_samples, from_json_dict, to_json_dict, wavenumbers)
from peskin2d.errors import ConfigError
from peskin2d.norms import deriv_coeffs

from conftest import random_y_modes


def make_curve(K, assign):
    modes = np.zeros(2 * K + 1, dtype=complex)
    for k, v in assign.items():
        modes[K + k] = v
    return FourierCurve(modes)


def grid(M):
    return 2 * np.pi * np.arange(M) / M


def samples(curve, M):
    """The perturbation X on the M-point grid."""
    return fourier_samples(wavenumbers(curve.K), curve.modes, M)


class TestSynthesize:
    def test_unit_circle(self):
        # the base circle e^{is} as the pure first mode, on the smallest grid M = 2K+2
        assert np.allclose(samples(make_curve(3, {1: 1.0}), 8), np.exp(1j * grid(8)), atol=1e-15)

    def test_single_mode(self):
        expect = 0.1 * np.exp(2j * grid(16))
        assert np.allclose(samples(make_curve(4, {2: 0.1}), 16), expect, atol=1e-15)

    def test_round_trip_random(self, rng):
        K, M = 32, 128
        curve = FourierCurve(random_y_modes(rng, K, decay=1.5, amp=0.1))
        back = _grid_to_modes(samples(curve, M), K)
        assert np.abs(back - curve.modes).max() < 1e-13

    def test_stack_rows_match_one_dimensional_calls(self, rng):
        # each row of a stacked synthesis is bit for bit its own 1-d call
        K, M = 12, 48
        k = wavenumbers(K)
        stack = np.stack([random_y_modes(rng, K, amp=a) for a in (1e-3, 0.1, 0.7)])
        got = fourier_samples(k, stack, M)
        for row, coeff in zip(got, stack):
            assert np.array_equal(row, fourier_samples(k, coeff, M))


class TestAnalyze:
    def test_pure_third_mode(self):
        expect = np.zeros(11, complex)
        expect[5 + 3] = 1.0
        assert np.abs(_grid_to_modes(np.exp(3j * grid(16)), 5) - expect).max() < 1e-14

    def test_unit_circle_gives_zero(self):
        # samples of the unit circle give zero in every mode but the first
        modes = _grid_to_modes(np.exp(1j * grid(16)), 5)
        assert abs(modes[5 + 1] - 1.0) < 1e-15
        assert np.abs(np.delete(modes, 5 + 1)).max() < 1e-15

    def test_direct_dft_matches_fft(self, rng):
        # the slow path is the oracle for the fast path
        K = 10
        vals = rng.normal(size=64) + 1j * rng.normal(size=64)
        k = wavenumbers(K)
        fast = np.fft.fft(vals)[k % 64] / 64
        assert np.abs(_dft_direct(vals, K) - fast).max() < 1e-13

    @pytest.mark.parametrize("M", [36, 64, 100])
    def test_grid_to_modes_matches_direct_dft(self, rng, M):
        # the package's forward transform against the O(M^2) oracle, row by row
        K = 16
        vals = rng.normal(size=(3, M)) + 1j * rng.normal(size=(3, M))
        got = _grid_to_modes(vals, K)
        assert got.shape == (3, 2 * K + 1)
        for row, v in zip(got, vals):
            assert np.abs(row - _dft_direct(v, K)).max() < 1e-13

    def test_non_pow2_grid(self, rng):
        K, M = 8, 36
        curve = FourierCurve(random_y_modes(rng, K, amp=0.2))
        back = _grid_to_modes(samples(curve, M), K)
        assert np.abs(back - curve.modes).max() < 1e-13

    @pytest.mark.parametrize("M", [36, 100, 162])
    def test_non_pow2_synthesis_matches_direct_sum(self, rng, M):
        # the FFT path against sum_k a_k e^{iks_j}, summed directly
        K = 16
        curve = FourierCurve(random_y_modes(rng, K, amp=0.2))
        direct = np.exp(1j * np.outer(grid(M), wavenumbers(K))) @ curve.modes
        assert np.abs(samples(curve, M) - direct).max() < 1e-13


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


class TestDerivative:
    def test_single_mode(self):
        d = deriv_coeffs(make_curve(4, {2: 1.0}).modes)
        assert d[4 + 2] == 2j
        assert np.abs(np.delete(d, 4 + 2)).max() == 0

    def test_zero_curve(self):
        assert np.abs(deriv_coeffs(make_curve(4, {}).modes)).max() == 0

    def test_against_finite_difference(self, rng):
        # perturbation-sized data: truncation error of the stencil stays below 1e-8
        K, M = 16, 256
        curve = FourierCurve(random_y_modes(rng, K, decay=3.0, amp=1e-4))
        x = samples(curve, M)
        h = 2 * np.pi / M
        # 4th-order centered stencil on the periodic samples
        fd = (-np.roll(x, -2) + 8 * np.roll(x, -1)
              - 8 * np.roll(x, 1) + np.roll(x, 2)) / (12 * h)
        spectral = fourier_samples(wavenumbers(K), deriv_coeffs(curve.modes), M)
        assert np.abs(fd - spectral).max() < 1e-8


# Y(s) or Y'(s) of the curve: the Fourier sum whose difference quotient L_n runs
y_of = lambda c: partial(fourier_eval, wavenumbers(c.K), split(c).y_modes)


class TestYTilde:
    """The difference quotient half_kernel(a) (Y(s) - Y(s - a)) of the curve's Y part."""

    def test_zero_perturbation(self):
        c = make_curve(4, {})
        for s, a in [(0.3, 1.0), (2.0, -0.5), (1.0, 1e-12)]:
            assert difference_quotient(y_of(c), s, a) == 0

    def test_single_mode_closed_form(self, rng):
        a2 = 0.37 - 0.21j
        c = make_curve(4, {2: a2})
        for _ in range(20):
            s = rng.uniform(0, 2 * np.pi)
            a = rng.uniform(-np.pi, np.pi)
            if abs(a) < 1e-6:
                continue
            expect = a2 * np.exp(2j * s) * np.exp(-1j * a / 2) \
                * (1 - np.exp(-2j * a)) / (2 * np.sin(a / 2))
            assert difference_quotient(y_of(c), s, a) == pytest.approx(expect, rel=1e-12)

    def test_limit_continuity(self, rng):
        c = FourierCurve(random_y_modes(rng, 8, amp=0.3))
        for s in rng.uniform(0, 2 * np.pi, 5):
            limit = y_of(c)(s, order=1)
            assert abs(difference_quotient(y_of(c), s, 1e-9) - limit) < 1e-6
            # values approach the limit from both sides
            assert abs(difference_quotient(y_of(c), s, 1e-7) - limit) < 1e-5

    def test_bounded_by_yprime(self, rng):
        for _ in range(20):
            c = FourierCurve(random_y_modes(rng, 16, amp=0.05))
            sup = np.abs(y_of(c)(np.linspace(0, 2 * np.pi, 512), order=1)).max()
            s = rng.uniform(0, 2 * np.pi, 30)
            a = rng.uniform(-np.pi, np.pi, 30)
            vals = np.abs(difference_quotient(y_of(c), s, a))
            assert vals.max() <= sup * (1 + 1e-9)


class TestInvariants:
    def test_parseval(self, rng):
        K, M = 16, 128
        curve = FourierCurve(random_y_modes(rng, K, amp=0.5))
        x = samples(curve, M)
        grid_energy = np.sum(np.abs(x) ** 2) / M  # (1/2pi) integral |X|^2
        coeff_energy = np.sum(np.abs(curve.modes) ** 2)
        assert grid_energy == pytest.approx(coeff_energy, rel=1e-12)

    def test_translation_equivariance(self, rng):
        K, M = 8, 64
        curve = FourierCurve(random_y_modes(rng, K, amp=0.3))
        circle = np.exp(1j * grid(M))
        shifted = np.roll(circle + samples(curve, M), -1)  # full curve at s_j + 2pi/M
        back = _grid_to_modes(shifted - circle, K)
        k = wavenumbers(K)
        h = 2 * np.pi / M
        # every mode of the full curve picks up e^{ikh}; in perturbation
        # coordinates the shifted base circle leaves (e^{ih}-1) on mode 1
        expect = curve.modes * np.exp(1j * k * h)
        expect[K + 1] += np.exp(1j * h) - 1.0
        assert np.abs(back - expect).max() < 1e-13


class TestSerialization:
    def test_json_round_trip(self, rng):
        curve = FourierCurve(random_y_modes(rng, 6, amp=1.0), time=2.5)
        d = json.loads(json.dumps(to_json_dict(curve)))
        back = from_json_dict(d)
        assert back.time == 2.5
        assert np.array_equal(back.modes, curve.modes)

    @pytest.mark.parametrize("edit", [{"K": 8.5}, {"K": True}, {"K": "8"}, {"time": "0.75"},
                                      {"time": True}, {"time": float("nan")}, {"K": 7},
                                      {"modes": [[0.0, 0.0]] * 16 + [[True, False]]}],
                             ids=["K-fraction", "K-bool", "K-string", "time-string",
                                  "time-bool", "time-nan", "K-mismatch", "mode-bool"])
    def test_from_json_dict_rejects(self, edit):
        # K an integer, time and mode parts finite numbers, as the config reader asks
        d = dict(to_json_dict(FourierCurve(np.zeros(17), time=0.75)), **edit)
        with pytest.raises(ConfigError):
            from_json_dict(d)

    def test_json_text_matches_per_element_floats(self):
        # the modes are encoded as one array of (re, im) pairs
        tiny = np.nextafter(0.0, 1.0)
        modes = np.array([-0.0 + 0.0j, complex(0.0, -0.0), complex(tiny, -tiny),
                          complex(2.2250738585072014e-308 / 3, 1e-310),
                          complex(1e308, -1e308), complex(-1e308, 1e308),
                          complex(0.1, -1.0 / 3.0)])
        curve = FourierCurve(modes, time=0.5)
        old = {"time": 0.5, "K": 3,
               "modes": [[float(c.real), float(c.imag)] for c in curve.modes]}
        assert json.dumps(to_json_dict(curve)) == json.dumps(old)
        assert "-0.0" in json.dumps(to_json_dict(curve))

