import tracemalloc

import numpy as np
import pytest

from peskin2d import (ConfigError, ik_exact, jk_exact, kernels, pv_quadrature_ik,
                      pv_quadrature_jk)
from peskin2d.curve import fourier_samples
from conftest import in_threads
from peskin2d.kernels import (_clamped, _grid_size, _l1_rows, _psi_support, bump_low,
                              dyadic_alphas, fit_kernel_bounds, l_kernel, l_kernel_l1,
                              l_tilde_dalpha_l1, l_tilde_l1, phi_weight, psi_l1_norm, psi_n,
                              smooth_step)


class TestExactValues:
    @pytest.mark.parametrize("k,val", [(0, -0.5j), (-1, 0.5j), (7, -0.5j),
                                       (-5, 0.5j), (100, -0.5j)])
    def test_ik(self, k, val):
        assert ik_exact(k) == val

    @pytest.mark.parametrize("k,val", [(0, 0.0), (3, -1.5), (-3, -1.5), (10, -5.0)])
    def test_jk(self, k, val):
        assert jk_exact(k) == val


class TestPvQuadrature:
    def test_examples(self):
        assert abs(pv_quadrature_ik(0, 64) - (-0.5j)) < 1e-12
        assert abs(pv_quadrature_ik(5, 128) - (-0.5j)) < 1e-12
        assert abs(pv_quadrature_ik(-4, 128) - 0.5j) < 1e-12

    def test_rejects_bad_grid(self):
        with pytest.raises(ConfigError):
            pv_quadrature_ik(0, 63)
        with pytest.raises(ConfigError):
            pv_quadrature_ik(10, 64)  # below 8|k|+8

    @pytest.mark.parametrize("M", [1024, 1000])
    def test_array_of_k_equals_int_calls(self, M):
        # 129 wavenumbers: no multiple of PV_CHUNK
        ks = np.arange(-64, 65)
        for rule in (pv_quadrature_ik, pv_quadrature_jk):
            got = rule(ks, M)
            assert got.shape == ks.shape
            assert got.tolist() == [rule(int(k), M) for k in ks]

    @pytest.mark.parametrize("ks, M", [([3, -20, 40, 2], 64), ([0, 1], 63)])
    def test_array_grid_check_is_the_loops_first_failure(self, ks, M):
        for rule in (pv_quadrature_ik, pv_quadrature_jk):
            with pytest.raises(ConfigError) as loop:
                for k in ks:
                    rule(k, M)
            with pytest.raises(ConfigError) as array:
                rule(np.array(ks), M)
            assert str(array.value) == str(loop.value)

    @pytest.mark.parametrize("k", [-64, -17, -1, 0, 1, 23, 64])
    def test_full_family(self, k):
        assert abs(pv_quadrature_ik(k, 1024) - ik_exact(k)) < 1e-12
        assert abs(pv_quadrature_jk(k, 1024) - jk_exact(k)) < 1e-12


class TestDyadicBumps:
    def test_smooth_step_ends(self):
        assert smooth_step(-1.0) == 0.0
        assert smooth_step(0.0) == 0.0
        assert smooth_step(1.0) == 1.0
        assert 0 < smooth_step(0.5) < 1

    def test_partition_of_unity(self):
        K = 128
        k = np.arange(-2 * K, 2 * K + 1)
        total = sum(phi_weight(n, k) for n in range(12))
        nz = np.abs(k) >= 1
        assert np.abs(total[nz] - 1.0).max() < 1e-15
        assert abs(total[k.size // 2]) == 0.0  # k = 0 untouched

    def test_support(self):
        for n in range(5):
            k = np.arange(-300, 301)
            w = phi_weight(n, k)
            inside = (np.abs(k) >= 2.0 ** (n - 1)) & (np.abs(k) <= 2.0 ** (n + 1))
            assert np.all(w[~inside] == 0.0)

    def test_dyadic_dilation(self):
        k = np.arange(1, 257, dtype=float)
        for n in range(1, 6):
            assert np.allclose(phi_weight(n, k), phi_weight(0, k / 2 ** n), atol=1e-15)

    def test_cumulative_equals_partial_sum(self):
        k = np.arange(-64, 65)
        for n in range(5):
            partial = sum(phi_weight(b, k) for b in range(n + 1))
            cumulative = bump_low(k / 2.0 ** n) - bump_low(2.0 * k)
            assert np.abs(cumulative - partial).max() < 1e-15


class TestPsi:
    def test_fourier_coefficients(self):
        for n in range(3):
            M = 2 ** (n + 6)
            s = 2 * np.pi * np.arange(M) / M
            vals = psi_n(n, s)
            spec = np.fft.fft(vals) / M
            k = np.arange(-M // 2 + 1, M // 2)
            got = spec[k % M]
            want = phi_weight(n + 2, k).astype(complex)
            want[k == 1] = 0.0
            assert np.abs(got - want).max() < 1e-12

    def test_l1_mass_ratio(self):
        # mass is n-independent up to a bounded factor
        ratio = psi_l1_norm(3) / psi_l1_norm(0)
        assert 0.25 <= ratio <= 4.0

    def test_derivative_mass_scales_like_2n(self):
        consts = [psi_l1_norm(n, order=1) / 2.0 ** n for n in range(7)]
        assert max(consts) / min(consts) < 4.0


class TestLKernel:
    def test_dual_formula(self, rng):
        # defining Fourier sum vs the difference-of-psi form
        for _ in range(50):
            n = int(rng.integers(0, 5))
            s = float(rng.uniform(0, 2 * np.pi))
            a = float(rng.uniform(-np.pi, np.pi))
            if abs(a) < 1e-6:
                a = 0.3
            kk = np.arange(-2 ** (n + 3), 2 ** (n + 3) + 1)
            w = phi_weight(n + 2, kk)
            direct = np.sum(w * np.exp(-1j * a / 2) * (1 - np.exp(-1j * a * kk))
                            / (2 * np.sin(a / 2)) * np.exp(1j * s * kk))
            assert abs(direct - l_kernel(n, s, a)) < 1e-10

    def test_small_alpha_limit(self):
        for n in range(3):
            for s in (0.0, 1.1, 4.0):
                lim = psi_n(n, s, order=1)
                assert abs(l_kernel(n, s, 1e-9) - lim) < 1e-5 * max(1, abs(lim))

    def test_l1_bound_shape(self):
        # |L_n|_L1 <= C min(2^n, 1/|alpha|) with one constant across the lattice
        consts = []
        for n in range(5):
            for a in [0.001, 0.01, 0.1, 1.0, -0.05, -1.5]:
                consts.append(l_kernel_l1(n, a) / min(2.0 ** n, 1 / abs(a)))
        assert max(consts) < 50.0

    def test_single_block_reproduction(self, rng):
        # low-pass difference kernel reproduces the block difference quotient:
        # (1/2pi) integral P_b g(y) L_{<=b+2}(s-y, alpha) dy
        #     = e^{-i alpha/2} (P_b g(s) - P_b g(s-alpha)) / (2 sin(alpha/2))
        b = 2
        K = 2 ** (b + 2)
        k = np.arange(-K, K + 1)
        g = (rng.normal(size=k.size) + 1j * rng.normal(size=k.size)) * phi_weight(b, k)
        g[(k == 0) | (k == 1)] = 0.0
        M = 512
        sg = 2 * np.pi * np.arange(M) / M
        for a in (0.7, -0.3, 2.0):
            gs = np.exp(1j * np.outer(sg, k)) @ g
            gsa = np.exp(1j * np.outer(sg - a, k)) @ g
            want = np.exp(-1j * a / 2) * (gs - gsa) / (2 * np.sin(a / 2))
            # convolution via Fourier multipliers of the cumulative kernel
            mult = sum(phi_weight(j, k) for j in range(b + 2 + 2 + 1)).astype(complex)
            mult[(k == 0) | (k == 1)] = 0.0
            conv = np.exp(1j * np.outer(sg, k)) @ (g * mult)
            conva = np.exp(1j * np.outer(sg - a, k)) @ (g * mult)
            got = np.exp(-1j * a / 2) * (conv - conva) / (2 * np.sin(a / 2))
            assert np.abs(got - want).max() < 1e-10


class TestLTilde:
    # the clamped factor of L~_n; _l1_rows applies it, and fit_kernel_bounds'
    # l_tilde_bound_literal rests on these two facts
    def test_large_alpha_form(self):
        # for 2^n |alpha| >= 1 the clamp saturates at 2^{-n}
        n = 2
        for a in (0.5, 1.0, 2.5):
            assert abs(_clamped(a, n) - 2.0 ** (-n)) < 1e-12

    def test_literal_form_matches_for_positive_alpha(self):
        n = 3
        for a in (0.01, 0.3, 1.0):
            assert _clamped(a, n) == pytest.approx(min(2.0 ** -n, a), rel=1e-13)

    def test_small_alpha_bound(self):
        # |L~_n|_L1 <= C 2^{2n} |alpha| in the regime 2^n |alpha| <= 1/4,
        # with an n-uniform constant (the Taylor remainder of psi_n)
        consts = []
        for n in range(5):
            for mag in (2.0 ** -9, 2.0 ** -7):
                a = mag * 2.0 ** -n
                for sgn in (+1, -1):
                    consts.append(l_tilde_l1(n, sgn * a) / (2.0 ** (2 * n) * a))
        assert max(consts) < 500.0
        assert max(consts) / min(consts) < 4.0  # n-uniform up to bump geometry

    def test_dalpha_bound_sharp_model(self):
        # the sharp model min(2^{2n}, 2^n/|alpha|) carries an n-uniform constant
        consts = []
        for n in range(5):
            best = 0.0
            for a in (0.001, 0.05, 0.8, -0.4, 2.0):
                model = min(2.0 ** (2 * n), 2.0 ** n / abs(a))
                best = max(best, l_tilde_dalpha_l1(n, a) / model)
            consts.append(best)
        assert max(consts) < 500.0
        assert max(consts) / min(consts) < 4.0


class TestBoundStability:
    def test_fitted_constants_refinement(self):
        ns = range(4)
        coarse = fit_kernel_bounds(ns, dyadic_alphas(4), oversample=8)
        fine = fit_kernel_bounds(ns, dyadic_alphas(8), oversample=16)
        for key in ("l_bound", "l_tilde_bound", "l_tilde_dalpha",
                    "l_tilde_dalpha_sharp"):
            assert np.isfinite(coarse[key]) and coarse[key] > 0
            assert abs(fine[key] - coarse[key]) / coarse[key] <= 0.20


def _complex_lattice_norms(n, alpha, oversample=8, h_rel=1e-5):
    """|L_n|, clamped |L~_n| and |d_a L~_n| the direct way.

    Each field is a complex inverse FFT of w e^{-ik alpha}, multiplied by
    the complex half kernel; the norm is np.abs(...).sum() on the grid.
    """
    M = _grid_size(n, oversample)
    k, w = _psi_support(n)
    vals = fourier_samples(k, w, M)
    dvals = fourier_samples(k, w * 1j * k, M)

    def field(a, factor):
        hk = np.exp(-1j * a / 2) / (2 * np.sin(a / 2))
        return hk * (vals - fourier_samples(k, w * np.exp(-1j * k * a), M) - factor * dvals)

    def norm(v):
        return float(np.abs(v).sum() * 2 * np.pi / M)

    def clamped(a):
        return np.sign(a) * min(abs(a), 2.0 ** -n)

    h = h_rel * max(abs(alpha), 2.0 ** -n)
    deriv = (field(alpha + h, clamped(alpha + h)) - field(alpha - h, clamped(alpha - h))) / (2 * h)
    return norm(field(alpha, 0.0)), norm(field(alpha, clamped(alpha))), norm(deriv)


def _lattice_mags(n):
    return (2.0 ** -10, 2.0 ** -n, 0.3, 1.68)


class TestBatchedLattice:
    def test_threads_match_one_thread(self):
        # each thread has its own chunk scratch: with one shared set, one
        # block's rows overwrote another's between two passes of a chunk
        M, alphas, blocks = 256, dyadic_alphas(2)[:21], (1, 2, 3)
        refs = [_l1_rows(n, alphas, M) for n in blocks]
        got = in_threads([lambda n=n: _l1_rows(n, alphas, M) for n in blocks], calls=60)
        for ref, results in zip(refs, got):
            bad = [r for r in results if isinstance(r, Exception) or not np.array_equal(r, ref)]
            assert not bad, f"{len(bad)} of {len(results)} calls differ"

    @pytest.mark.parametrize("n", range(5))
    def test_even_in_alpha(self, n):
        for a in _lattice_mags(n):
            for fn in (l_kernel_l1, l_tilde_l1, l_tilde_dalpha_l1):
                assert fn(n, -a) == pytest.approx(fn(n, a), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("n", range(5))
    def test_matches_complex_transform(self, n):
        for mag in _lattice_mags(n):
            # below |alpha| 2^n = 1/16, L~ is a second-order remainder and
            # both evaluations lose digits to the cancellation psi(s) -
            # psi(s - alpha) - alpha psi'(s) (each is within 6e-12 of a
            # cancellation-free sum at n = 0, alpha = 2^-10)
            tilde_rel = 1e-13 if mag * 2.0 ** n >= 1.0 / 16 else 1e-11
            for a in (mag, -mag):
                l1, clamped, deriv = _complex_lattice_norms(n, a)
                assert l_kernel_l1(n, a) == pytest.approx(l1, rel=1e-13)
                assert l_tilde_l1(n, a) == pytest.approx(clamped, rel=tilde_rel)
                assert l_tilde_dalpha_l1(n, a) == pytest.approx(deriv, rel=1e-9)

    def test_chunk_size_does_not_change_results(self, monkeypatch):
        n = 5
        M = _grid_size(n, 8)
        mags = np.abs(dyadic_alphas(3))[:31]     # 31 rows: no chunk size divides it
        want = _l1_rows(n, mags, M)
        for rows in (1, 2, 4, 5, 64):
            monkeypatch.setattr(kernels, "_CHUNK_SAMPLES", 3 * M * rows)
            got = _l1_rows(n, mags, M)
            assert np.array_equal(got, want), rows

    def test_pinned_constants(self):
        # fit_kernel_bounds(range(7), dyadic_alphas(4), 8) before the
        # lattice was batched: one complex inverse FFT per field and alpha
        want = {"l_bound": 42.99435584710013,
                "l_tilde_bound": 103.46874040806469,
                "l_tilde_dalpha": 5277.631213444279,
                "l_tilde_dalpha_sharp": 103.44779474187722,
                "l_tilde_bound_literal": 103.46874040806469}
        got = fit_kernel_bounds(range(7), dyadic_alphas(4), 8)
        assert set(got) == set(want)
        for key, value in want.items():
            assert got[key] == pytest.approx(value, rel=1e-10, abs=0.0), key
        assert got["l_tilde_bound_literal"] == got["l_tilde_bound"]

    def test_warm_fit_allocates_nothing_large(self):
        # every chunk temporary lives in the cached scratch; a chunk's
        # shifted rows alone are 256 KiB
        args = (range(7), dyadic_alphas(4), 8)
        fit_kernel_bounds(*args)
        tracemalloc.start()
        try:
            fit_kernel_bounds(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * 2 ** 20, f"peak {peak / 2 ** 10:.0f} KiB"

    def test_literal_constant_uses_positive_alphas_only(self):
        # with only negative offsets the literal form has no entries
        got = fit_kernel_bounds(range(3), -np.abs(dyadic_alphas(2)), 8)
        assert got["l_tilde_bound_literal"] == 0.0
        assert got["l_tilde_bound"] > 0.0

    def test_rejects_aliased_grid(self):
        with pytest.raises(ConfigError):
            fit_kernel_bounds(range(2), dyadic_alphas(1), oversample=1)
