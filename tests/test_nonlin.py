import contextlib
import gc
import threading
import tracemalloc
import weakref

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from peskin2d import (FourierCurve, GeometryError, StepRejected,
                      TensionDomainError, TensionLaw, cubic, hookean,
                      linear_coefficients, nonlin, split)
import peskin2d.curve
from peskin2d.curve import wavenumbers
from peskin2d.errors import ConfigError
from peskin2d.integrator import _Propagators
from peskin2d.kernels import _l1_rows, dyadic_alphas, fit_kernel_bounds
from peskin2d.nonlin import chord_arc_ratio, eval_nonlinearity, linear_mode_rhs
from peskin2d.tension import affine

from conftest import in_threads, random_y_modes


def curve_with(K, assign):
    modes = np.zeros(2 * K + 1, dtype=complex)
    for k, v in assign.items():
        modes[K + k] = v
    return FourierCurve(modes)


def eval_raw_form(curve, law, M):
    """Unregularized quotient form of the velocity integral; test oracle only.

    Suffers cancellation near r = s, so it is compared at loose tolerance.
    """
    K = curve.K
    k = wavenumbers(K)
    s = 2 * np.pi * np.arange(M) / M
    r = (2 * np.arange(M) + 1) * np.pi / M
    Es = np.exp(1j * np.outer(s, k))
    Er = np.exp(1j * np.outer(r, k))
    Xs = np.exp(1j * s) + Es @ curve.modes
    Xr = np.exp(1j * r) + Er @ curve.modes
    dXr = 1j * np.exp(1j * r) + Er @ (1j * k * curve.modes)
    from peskin2d.tension import small_t
    T = small_t(law, np.abs(dXr))
    diff = Xr[None, :] - Xs[:, None]
    integrand = np.real(dXr[None, :] ** 2 / diff ** 2) * diff * T[None, :]
    return integrand.sum(axis=1) / (2.0 * M)


def eval_long_double(curve, c, M):
    """Regularized integrand of the nonlin module docstring, in np.clongdouble.

    Test oracle only: dense M x M sums with no tiling, for the cubic law
    tau(r) = r + c r^3, whose reduced tension T(r) = 1 + c r^2 is also
    evaluated in long double.
    """
    ld = np.longdouble
    pi = 4 * np.arctan(ld(1))
    k = wavenumbers(curve.K).astype(ld)
    a = curve.modes.astype(np.clongdouble)
    s = 2 * pi * np.arange(M).astype(ld) / M
    r = (2 * np.arange(M).astype(ld) + 1) * pi / M
    xs = np.exp(1j * np.outer(s, k)) @ a
    xr = np.exp(1j * np.outer(r, k)) @ a
    dxr = np.exp(1j * np.outer(r, k)) @ (1j * k * a)
    g = 1 - 1j * np.exp(-1j * r) * dxr
    stretch = np.abs(g)
    S, R = s[:, None], r[None, :]
    two_sin = 2 * np.sin((S - R) / 2)
    one_plus = 1 + 1j * np.exp(-1j * (S + R) / 2) * (xr[None, :] - xs[:, None]) / two_sin
    integrand = -1j * np.real(np.exp(-1j * (S - R)) * (g * g)[None, :] / one_plus ** 2) \
        * np.exp(1j * (S + R) / 2) * one_plus / two_sin * (1 + c * stretch ** 2)[None, :]
    return integrand.sum(axis=1) / (2 * M)


def dense_chord_arc_ratio(curve, M):
    """min |1 + i X~| over the full M x M (s, r) grid; test oracle only."""
    s = 2 * np.pi * np.arange(M) / M
    r = (2 * np.arange(M) + 1) * np.pi / M
    k = wavenumbers(curve.K)
    xs = np.exp(1j * np.outer(s, k)) @ curve.modes
    xr = np.exp(1j * np.outer(r, k)) @ curve.modes
    S, R = s[:, None], r[None, :]
    x_tilde = np.exp(-1j * (S + R) / 2) * (xr[None, :] - xs[:, None]) \
        / (2 * np.sin((S - R) / 2))
    return float(np.abs(1 + 1j * x_tilde).min())


def random_curve(K, seed):
    return FourierCurve(random_y_modes(np.random.default_rng(seed), K, amp=1e-2))


class TestSteadyStates:
    def test_unit_circle(self, cubic_law):
        ev = eval_nonlinearity(curve_with(16, {}), cubic_law, 128)
        assert np.abs(ev.grid_values).max() < 1e-12
        assert np.abs(ev.n_modes).max() < 1e-12

    def test_translated_scaled_circle(self, cubic_law):
        ev = eval_nonlinearity(
            curve_with(16, {0: 0.3 + 0.2j, 1: 0.1 - 0.05j}), cubic_law, 128)
        assert np.abs(ev.grid_values).max() < 1e-10

    @pytest.mark.parametrize("law_fn", [hookean, cubic])
    def test_steady_family_grid(self, law_fn):
        law = law_fn()
        K, M = 64, 512
        a0s = [0.0, 0.3 + 0.2j, -0.25j, 0.15 - 0.1j, 0.4]
        a1s = [0.0, 0.1, 0.3, 0.2j, -0.15 + 0.2j]
        for a0 in a0s:
            for a1 in a1s:
                ev = eval_nonlinearity(curve_with(K, {0: a0, 1: a1}), law, M)
                bound = 1e-10 * max(1.0, abs(a0), abs(a1))
                assert np.abs(ev.grid_values).max() < bound


class TestLinearization:
    def test_mode2_rate_hookean(self, hookean_law):
        # velocity of a tiny second mode matches the scalar decay rate
        delta = 1e-6
        ev = eval_nonlinearity(curve_with(16, {2: delta}), hookean_law, 128)
        got = ev.n_modes[16 + 2] / delta
        assert got == pytest.approx(-0.25, rel=1e-4)

    @staticmethod
    def linear_part(curve, law):
        # G u about the curve's own a1
        sp = split(curve)
        return linear_mode_rhs(sp.y_modes, linear_coefficients(law, sp.a1), sp.a1)

    def test_linear_part_zero(self, cubic_law):
        c = self.linear_part(curve_with(8, {}), cubic_law)
        assert np.abs(c).max() == 0.0

    def test_mode2_hookean_closed_form(self, hookean_law):
        c = self.linear_part(curve_with(8, {2: 1.0}), hookean_law)
        assert c[8 + 2] == pytest.approx(-0.25, rel=1e-15)

    def test_mode3_cubic_closed_form(self, cubic_law):
        c = self.linear_part(curve_with(8, {3: 1.0}), cubic_law)
        # A=B=2: -(A/8)(6+2-4) - (B/8)*3 = -1 - 3/4
        assert c[8 + 3] == pytest.approx(-1.75, rel=1e-15)
        # conjugate coupling lands on mode -1 with weight +(B/8)|2-(-1)| = 3/4
        assert c[8 - 1] == pytest.approx(0.75, rel=1e-15)

    def test_rates_zeroed_on_steady_modes(self, cubic_law):
        c = self.linear_part(curve_with(8, {0: 1.0, 1: 0.5, 2: 1.0}), cubic_law)
        assert c[8 + 0] == 0.0 and c[8 + 1] == 0.0

    @pytest.mark.parametrize("law_fn", [hookean, cubic])
    @pytest.mark.parametrize("a1", [0.0, 0.1 + 0.05j])
    def test_jacobian_consistency(self, law_fn, a1):
        # central differences of the full velocity vs the closed form
        law = law_fn()
        K = 14
        M = 160
        delta = 1e-6
        coeffs = linear_coefficients(law, a1)
        base = np.zeros(2 * K + 1, dtype=complex)
        base[K + 1] = a1
        worst = 0.0
        for k in range(-12, 13):
            if k in (0, 1):
                continue
            for phase in (1.0, 1j):
                e = np.zeros(2 * K + 1, dtype=complex)
                e[K + k] = phase
                fp = eval_nonlinearity(FourierCurve(base + delta * e), law, M).n_modes
                fm = eval_nonlinearity(FourierCurve(base - delta * e), law, M).n_modes
                jac = (fp - fm) / (2 * delta)
                want = linear_mode_rhs(e, coeffs, a1)
                scale = np.abs(want).max()
                worst = max(worst, np.abs(jac - want).max() / scale)
        assert worst <= 1e-6

    def test_jacobian_catches_wrong_derivative(self):
        # tau = r + r^3 with the wrong tau' = 1 + 2 r^2: A + |1+a1| B equals
        # the law's own tau' identically, so only the Jacobian of the full
        # velocity can see that derivative and evaluate disagree
        law = TensionLaw(lambda r: np.asarray(r, float) + np.asarray(r, float) ** 3,
                         lambda r: 1.0 + 2.0 * np.asarray(r, float) ** 2, "wrong-derivative")
        K, M, delta, a1 = 8, 64, 1e-6, 0.1
        coeffs = linear_coefficients(law, a1)
        assert coeffs.A + coeffs.b_tilde == pytest.approx(1.0 + 2.0 * 1.1 ** 2, rel=1e-12)
        base = np.zeros(2 * K + 1, dtype=complex)
        base[K + 1] = a1
        worst = 0.0
        for k in (2, 3, -1):
            e = np.zeros(2 * K + 1, dtype=complex)
            e[K + k] = 1.0
            fp = eval_nonlinearity(FourierCurve(base + delta * e), law, M).n_modes
            fm = eval_nonlinearity(FourierCurve(base - delta * e), law, M).n_modes
            want = linear_mode_rhs(e, coeffs, a1)
            worst = max(worst, np.abs((fp - fm) / (2 * delta) - want).max() / np.abs(want).max())
        assert worst > 1e-6

    def test_jacobian_zero_linear_part_is_named(self):
        # tau' = 1e-17 passes the positivity gate, but at r = |1 + a1| = 2
        # A + b_tilde = 0.5 - 0.5 is exactly 0: direction k = 2 has no linear
        # part to measure a relative error against
        law = affine(1.0, 1e-17, r_max=10.0)
        with pytest.raises(ConfigError, match=r"^direction k=2 has a zero linear part, "
                                              r"so no relative Jacobian error: "
                                              r"A \+ b_tilde = 0$"):
            nonlin.jacobian_errors(law, 1.0, 2, 1e-6, 64)


def residual(curve, law, M):
    """The residual N - G u that the integrator subtracts, G about a1 = 0."""
    return _Propagators(law, 0.0, 0.01, curve.K).residual(curve, law, M)


class TestResidual:
    # every curve here has a1 = 0
    def test_circle_zero(self, cubic_law):
        L = residual(curve_with(8, {}), cubic_law, 64)
        assert np.abs(L).max() < 1e-13

    def test_quadratic_scaling_single_mode(self, cubic_law):
        delta = 1e-3
        L1 = residual(curve_with(16, {2: delta}), cubic_law, 128)
        L2 = residual(curve_with(16, {2: delta / 2}), cubic_law, 128)
        k_dom = np.argmax(np.abs(L1))
        ratio = abs(L1[k_dom]) / abs(L2[k_dom])
        assert 3.5 <= ratio <= 4.5

    def test_modes01_quadratically_small(self, cubic_law, rng):
        K, M = 16, 128
        for eps in (1e-2, 5e-3):
            modes = random_y_modes(rng, K, amp=eps)
            L = residual(FourierCurve(modes), cubic_law, M)
            size = np.abs(modes).sum()
            assert abs(L[K + 0]) < 10 * size ** 2
            assert abs(L[K + 1]) < 10 * size ** 2


class TestInvariants:
    def test_rotational_equivariance(self, cubic_law, rng):
        K, M = 16, 128
        modes = random_y_modes(rng, K, amp=5e-3)
        curve = FourierCurve(modes)
        shift = 2 * np.pi * 7 / M  # a grid-compatible rotation angle
        k = wavenumbers(K)
        rotated = FourierCurve(modes * np.exp(1j * (k - 1) * shift))
        ev = eval_nonlinearity(curve, cubic_law, M)
        ev_rot = eval_nonlinearity(rotated, cubic_law, M)
        # velocity of the rotated curve = rotated velocity: modes pick the
        # same phases as the curve (component along e^{iks} at shifted s)
        want = ev.n_modes * np.exp(1j * (k - 1) * shift)
        assert np.abs(ev_rot.n_modes - want).max() < 1e-11

    def test_quadrature_plateau(self, cubic_law, rng):
        K = 16
        modes = random_y_modes(rng, K, amp=5e-3)
        curve = FourierCurve(modes)
        a = eval_nonlinearity(curve, cubic_law, 4 * K).n_modes
        b = eval_nonlinearity(curve, cubic_law, 8 * K).n_modes
        assert np.abs(a - b).max() < 1e-10

    def test_grid_values_transform_consistency(self, cubic_law, rng):
        K, M = 8, 64
        ev = eval_nonlinearity(FourierCurve(random_y_modes(rng, K, amp=1e-2)),
                               cubic_law, M)
        k = wavenumbers(K)
        spec = np.fft.fft(ev.grid_values) / M
        assert np.abs(spec[k % M] - ev.n_modes).max() < 1e-14

    def test_raw_form_agreement(self, cubic_law, rng):
        # the algebraically regularized integrand equals the raw quotient
        # form up to the raw form's own cancellation noise
        K, M = 8, 96
        curve = FourierCurve(random_y_modes(rng, K, amp=1e-2))
        reg = eval_nonlinearity(curve, cubic_law, M).grid_values
        raw = eval_raw_form(curve, cubic_law, M)
        assert np.abs(reg - raw).max() < 1e-7


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                    reason="long double is not an extended-precision type here")
class TestAccuracy:
    # max |N - N_ref| / max |N_ref| against the long-double oracle.  Each
    # grid value cancels O(1) terms down to an O(amplitude) velocity, so
    # the error sits far above 1e-16; the bounds are about 5x the error
    # measured for the tiled (s, alpha) evaluation (6.4e-14, 8.7e-14,
    # 2.2e-14, 8.2e-14, 4.0e-15).
    @pytest.mark.parametrize("make, M, bound", [
        pytest.param(lambda: random_curve(16, 1), 64, 3e-13, id="K16-M64"),
        pytest.param(lambda: random_curve(32, 2), 128, 4e-13, id="K32-M128"),
        pytest.param(lambda: random_curve(8, 3), 18, 1e-13, id="K8-M18"),
        pytest.param(lambda: random_curve(16, 4), 100, 4e-13, id="K16-M100"),
        pytest.param(lambda: curve_with(8, {2: 0.42, 3: 0.03j}), 64, 2e-14,
                     id="near-chord-arc-limit"),
    ])
    def test_against_long_double(self, make, M, bound):
        curve = make()
        law = cubic(c=1.0, r_min=0.05, r_max=10.0)
        ref = eval_long_double(curve, 1.0, M)
        got = eval_nonlinearity(curve, law, M).grid_values
        err = float(np.abs(got - ref).max() / np.abs(ref).max())
        assert err <= bound, f"relative error {err:.3g}"


class TestChordArc:
    @pytest.mark.parametrize("K, M, assign", [
        (8, 18, {2: 0.3}), (16, 64, {2: 0.42, 3: 0.03j}), (16, 100, {3: 0.2, -2: 0.1})])
    def test_matches_dense_formula(self, K, M, assign):
        curve = curve_with(K, assign)
        assert abs(chord_arc_ratio(curve, M) - dense_chord_arc_ratio(curve, M)) <= 1e-14

    def test_geometry_error_reports_minimum_over_all_tiles(self, monkeypatch):
        # with 32-row tiles, the first tile of rows already violates the bound
        # (min 0.028), but the reported ratio is the global minimum from the second
        monkeypatch.setattr(nonlin, "TILE_POINTS", 0)
        assert nonlin._tile_rows(64) == 32
        curve = curve_with(8, {2: 0.52, 3: 0.1j})
        wide = cubic(r_min=0.02, r_max=20.0)
        with pytest.raises(GeometryError) as exc:
            eval_nonlinearity(curve, wide, 64)
        assert f"chord-arc ratio {chord_arc_ratio(curve, 64):.4g} <=" in str(exc.value)
        assert chord_arc_ratio(curve, 64) < 0.01

    @pytest.mark.parametrize("M", [33, 7, 30])
    def test_invalid_quadrature_size_rejected(self, M):
        # odd M, and M < 2K+2: chord_arc_ratio once returned 0.9002 at
        # M = 33 and an aliased 0.99999 at M = 7 for this curve
        curve = curve_with(16, {2: 0.05})
        message = f"quadrature size {M} invalid for K=16"
        with pytest.raises(ConfigError) as exc:
            chord_arc_ratio(curve, M)
        assert str(exc.value) == message
        with pytest.raises(ConfigError) as exc:
            eval_nonlinearity(curve, cubic(), M)
        assert str(exc.value) == message


def sliding_alpha_rows(values, wrap_sign):
    """The sliding_window_view construction of nonlin._alpha_rows; test oracle only."""
    M = values.shape[-1]
    doubled = np.concatenate((wrap_sign * values, values), axis=-1)[..., -2::-1].copy()
    return sliding_window_view(doubled, M, axis=-1)[..., ::-1, :]


class TestAlphaRows:
    @pytest.mark.parametrize("wrap_sign", [1.0, -1.0])
    @pytest.mark.parametrize("lead", [(), (1,), (3,)], ids=["row", "stack-1", "stack-3"])
    def test_strided_window_equals_sliding_window(self, wrap_sign, lead):
        M = 10
        rng = np.random.default_rng(len(lead) + M)
        values = rng.standard_normal(lead + (M,)) + 1j * rng.standard_normal(lead + (M,))
        got = nonlin._alpha_rows(values, wrap_sign)
        want = sliding_alpha_rows(values, wrap_sign)
        assert got.shape == want.shape == lead + (M, M)
        assert np.array_equal(got, want)
        j, q = np.indices((M, M))
        assert np.array_equal(got, values[..., (j - q - 1) % M] * np.where(j <= q, wrap_sign, 1.0))

    def test_window_is_read_only(self):
        window = nonlin._alpha_rows(np.arange(8.0) + 0j, -1.0)
        assert not window.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            window[0, 0] = 1.0
        phase = nonlin._phase_rows(8)
        assert phase is nonlin._phase_rows(8)
        assert not phase.flags.writeable
        assert np.array_equal(phase, sliding_alpha_rows(nonlin._workspace(8)[3], -1.0))


class TestTileBuffers:
    # every call shares one cached set of tile scratch arrays per (rows, M)
    def test_interleaved_calls_match_a_fresh_call(self, cubic_law):
        K, M = 16, 100
        a, b, c = (random_curve(K, seed) for seed in (11, 12, 13))
        first = eval_nonlinearity(a, cubic_law, M)
        eval_nonlinearity(b, cubic_law, M)
        chord_arc_ratio(c, M)
        eval_nonlinearity(a, cubic_law, 64)
        again = eval_nonlinearity(a, cubic_law, M)
        assert np.array_equal(again.n_modes, first.n_modes)
        assert np.array_equal(again.grid_values, first.grid_values)

    def test_threads_at_one_M_match_one_thread(self, cubic_law):
        # each thread has its own tile scratch: with one shared set, a thread
        # overwrote another's tile between two passes of a call
        K, M = 16, 128
        curves = [random_curve(K, seed) for seed in (21, 22, 23)]
        refs = [eval_nonlinearity(c, cubic_law, M) for c in curves]
        got = in_threads([lambda c=c: eval_nonlinearity(c, cubic_law, M)
                          for c in curves], calls=30)
        for ref, results in zip(refs, got):
            bad = [r for r in results if isinstance(r, Exception)
                   or not np.array_equal(r.n_modes, ref.n_modes)
                   or not np.array_equal(r.grid_values, ref.grid_values)]
            assert not bad, f"{len(bad)} of {len(results)} calls differ, e.g. {bad[0]!r}"

    @pytest.mark.parametrize("M, rows, points, height", [
        (100, 7, 0, 7),
        (100, 100, 0, 100),
        (200, 32, 2 ** 14, 81),
        (100, 32, 2 ** 14, 100),
    ], ids=["7", "100", "point-sized", "point-sized-one-tile"])
    def test_tile_height_leaves_results_bitwise_equal(self, cubic_law, monkeypatch,
                                                      M, rows, points, height):
        # the reference takes 32-row tiles; M = 100 and 200 are no multiple
        # of 32, 7 or 81, so the last tile is short; at M = 100 a tile of
        # 100 rows covers the grid, and 163 point-sized rows are cut to it
        K = 16
        curve = random_curve(K, 4)
        monkeypatch.setattr(nonlin, "TILE_POINTS", 0)
        assert nonlin._tile_rows(M) == 32
        ref = eval_nonlinearity(curve, cubic_law, M)
        ref_ratio = chord_arc_ratio(curve, M)
        monkeypatch.setattr(nonlin, "TILE_ROWS", rows)
        monkeypatch.setattr(nonlin, "TILE_POINTS", points)
        assert nonlin._tile_views(1, M)[0].shape == (1, height, M)
        got = eval_nonlinearity(curve, cubic_law, M)
        assert np.array_equal(got.n_modes, ref.n_modes)
        assert np.array_equal(got.grid_values, ref.grid_values)
        assert chord_arc_ratio(curve, M) == ref_ratio

    def test_warm_call_allocates_less_than_two_tiles(self, hookean_law):
        # the per-tile temporaries are 32 x M complex each (512 KiB at
        # M = 1024); a warm call writes them all into the cached scratch
        K, M = 256, 1024
        curve = random_curve(K, 5)
        eval_nonlinearity(curve, hookean_law, M)
        tracemalloc.start()
        try:
            eval_nonlinearity(curve, hookean_law, M)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * nonlin.TILE_ROWS * M * 16, f"peak {peak / 2 ** 10:.0f} KiB"

    def test_warm_call_takes_no_default_ufunc_buffer(self, hookean_law):
        # numpy's default 8192-element complex buffer alone is 128 KiB; under
        # the one-row buffer a warm call peaks near 0.22 MiB, against 0.44 with it
        K, M = 256, 1024
        curve = random_curve(K, 5)
        eval_nonlinearity(curve, hookean_law, M)
        tracemalloc.start()
        try:
            eval_nonlinearity(curve, hookean_law, M)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.3 * 2 ** 20, f"peak {peak / 2 ** 10:.0f} KiB"


def random_stack(K, B, seed):
    """B random curves, their amplitudes spread over two decades."""
    rng = np.random.default_rng(seed)
    return np.stack([random_y_modes(rng, K, amp=amp) for amp in np.geomspace(1e-3, 1e-1, B)])


class TestStack:
    # a stack runs _stack_chunk(M) curves per pass, each tile holding the same
    # rows of every curve of the pass; row by row it is the one-curve call
    @pytest.mark.parametrize("B", [1, 3, 11])
    @pytest.mark.parametrize("chunk", [1, 3, 4, "default"])
    def test_stack_equals_per_curve_loop(self, cubic_law, monkeypatch, B, chunk):
        # M = 100 is no multiple of any tile height, so every chunk's last
        # tile is short; a numbered chunk sets STACK_POINTS to chunk x M, and
        # the default takes 40 curves per pass at M = 100
        K, M = 16, 100
        modes = random_stack(K, B, seed=B)
        if chunk != "default":
            monkeypatch.setattr(nonlin, "STACK_POINTS", chunk * M)
        step = nonlin._stack_chunk(M)
        assert step == (40 if chunk == "default" else chunk)
        passes = []
        real_grid_values = nonlin._grid_values

        def counted(stack, law, M):
            passes.append(len(stack))
            return real_grid_values(stack, law, M)

        monkeypatch.setattr(nonlin, "_grid_values", counted)
        got = nonlin.eval_nonlinearity_stack(modes, cubic_law, M)
        assert passes == [min(step, B - first) for first in range(0, B, step)]
        for row, curve_modes in zip(got, modes):
            want = eval_nonlinearity(FourierCurve(curve_modes), cubic_law, M).n_modes
            assert np.array_equal(row, want)

    @pytest.mark.parametrize("bad_modes, law, error", [
        ({2: 0.55}, cubic(r_min=0.05, r_max=10.0), GeometryError),
        ({2: 0.55}, cubic(), TensionDomainError),
        ({2: 1e-3, 3: np.nan}, cubic(), StepRejected),
    ], ids=["geometry", "stretch", "non-finite"])
    @pytest.mark.parametrize("position", [0, 6, 10])
    def test_one_bad_curve_raises_what_the_loop_raises(self, bad_modes, law, error, position):
        bad = curve_with(8, bad_modes)
        with pytest.raises(error):
            eval_nonlinearity(bad, law, 64)
        modes = random_stack(8, 11, seed=3)
        modes[position] = bad.modes
        with pytest.raises(error):
            nonlin.eval_nonlinearity_stack(modes, law, 64)

    @pytest.mark.parametrize("modes, law, M, error, message", [
        ({3: np.nan}, cubic(), 64, StepRejected,
         "1 of 17 modes are non-finite on entry to the boundary integral"),
        ({}, cubic(), 17, ConfigError, "quadrature size 17 invalid for K=8"),
        ({2: 0.55}, cubic(), 64, TensionDomainError,
         "stretch in [0.112472, 2.09937] leaves the validity interval [0.5, 2.0] "
         "of 'cubic(c=1.0)'"),
        ({2: 0.55}, cubic(r_min=0.05, r_max=10.0), 64, GeometryError,
         "chord-arc ratio 0.02525 <= 0.1: curve too close to self-intersection"),
    ], ids=["non-finite", "grid", "stretch", "geometry"])
    def test_one_curve_error_messages(self, modes, law, M, error, message):
        with pytest.raises(error) as exc:
            eval_nonlinearity(curve_with(8, modes), law, M)
        assert str(exc.value) == message

    def test_warm_stacked_call_allocates_less_than_two_tiles(self, hookean_law):
        # the bound of test_warm_call_allocates_less_than_two_tiles: each
        # pass's O(B M) arrays, B = 4 at M = 1024, stay far below a tile's scratch
        K, M = 256, 1024
        modes = random_stack(K, 11, seed=5)
        nonlin.eval_nonlinearity_stack(modes, hookean_law, M)
        tracemalloc.start()
        try:
            nonlin.eval_nonlinearity_stack(modes, hookean_law, M)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * nonlin.TILE_ROWS * M * 16, f"peak {peak / 2 ** 10:.0f} KiB"

    @pytest.mark.parametrize("law_fn", [hookean, cubic])
    @pytest.mark.parametrize("a1", [0.0, 0.1 + 0.05j])
    def test_jacobian_errors_equal_per_direction_loop(self, law_fn, a1):
        # the loop verify-linearization ran before the stack: one pair of
        # calls and one G per direction
        law, k_max, delta, M = law_fn(), 5, 1e-6, 64
        K = k_max + 2
        coeffs = linear_coefficients(law, a1)
        base = np.zeros(2 * K + 1, dtype=complex)
        base[K + 1] = a1
        want = []
        for k in range(-k_max, k_max + 1):
            if k in (0, 1):
                continue
            for phase in (1.0, 1j):
                e = np.zeros(2 * K + 1, dtype=complex)
                e[K + k] = phase
                fp = eval_nonlinearity(FourierCurve(base + delta * e), law, M).n_modes
                fm = eval_nonlinearity(FourierCurve(base - delta * e), law, M).n_modes
                ck = linear_mode_rhs(e, coeffs, a1)
                want.append(float(np.abs((fp - fm) / (2.0 * delta) - ck).max()
                                  / np.abs(ck).max()))
        got = nonlin.jacobian_errors(law, a1, k_max, delta, M)
        assert np.array_equal(got, want)
        assert got.max() <= 1e-6


class TestThreadScratch:
    # the tile scans and the kernel lattice's chunks take their views of one
    # buffer per thread (curve.thread_scratch)
    def test_one_buffer_serves_every_pass_of_a_thread(self, cubic_law):
        # the M = 256 tiles are the largest request (64 x 256 points at 48
        # bytes); a default fit and a 25-curve stack at M = 160 fit inside it
        curve, stack = random_curve(64, 31), random_stack(16, 25, 32)
        results, buffers = [], []

        def work():
            for job in (lambda: eval_nonlinearity(curve, cubic_law, 256),
                        fit_kernel_bounds,
                        lambda: nonlin.eval_nonlinearity_stack(stack, cubic_law, 160),
                        lambda: eval_nonlinearity(curve, cubic_law, 256)):
                results.append(job())
                buffers.append(peskin2d.curve._scratch.buffer)
            buffers.append(weakref.ref(buffers[0]))

        thread = threading.Thread(target=work)
        thread.start()
        thread.join(timeout=120)
        assert not thread.is_alive() and len(results) == 4
        first, *_, again = results
        assert np.array_equal(again.n_modes, first.n_modes)
        assert np.array_equal(again.grid_values, first.grid_values)
        *held, freed = buffers
        assert all(buf is held[0] for buf in held)
        assert held[0].nbytes == 48 * 64 * 256
        del buffers, held
        gc.collect()
        assert freed() is None, "the buffer outlived its thread"

    def test_threads_mixing_lattice_and_tiles_match_serial(self, cubic_law):
        curves = [random_curve(16, seed) for seed in (41, 42)]
        alphas = dyadic_alphas(2)[:21]
        jobs = [lambda c=c: eval_nonlinearity(c, cubic_law, 128).grid_values for c in curves]
        jobs += [lambda n=n: _l1_rows(n, alphas, 256) for n in (1, 3)]
        refs = [job() for job in jobs]
        for ref, results in zip(refs, in_threads(jobs, calls=30)):
            bad = [r for r in results if isinstance(r, Exception) or not np.array_equal(r, ref)]
            assert not bad, f"{len(bad)} of {len(results)} calls differ"


@contextlib.contextmanager
def caller_bufsize(size):
    old = np.setbufsize(size)
    try:
        yield
    finally:
        np.setbufsize(old)


class TestRowBuffer:
    # the tile passes set numpy's ufunc buffer to one row and restore the caller's
    @pytest.mark.parametrize("K, M", [(8, 18), (16, 100), (128, 512)])
    def test_results_independent_of_caller_bufsize(self, cubic_law, K, M):
        curve = random_curve(K, 6)
        results = []
        for size in (16, 8192, 2 ** 16):
            with caller_bufsize(size):
                ev = eval_nonlinearity(curve, cubic_law, M)
                assert np.getbufsize() == size
                ratio = chord_arc_ratio(curve, M)
                assert np.getbufsize() == size
            results.append((ev, ratio))
        (ref, ref_ratio), *rest = results
        for ev, ratio in rest:
            assert np.array_equal(ev.n_modes, ref.n_modes)
            assert np.array_equal(ev.grid_values, ref.grid_values)
            assert ratio == ref_ratio

    @pytest.mark.parametrize("scan", ["eval_nonlinearity", "chord_arc_ratio"])
    def test_caller_bufsize_restored_when_tile_loop_raises(self, cubic_law, monkeypatch,
                                                           scan):
        real_tiles = nonlin._chord_tiles

        def one_tile_then_fail(xs, xr, M):
            yield next(real_tiles(xs, xr, M))
            raise RuntimeError("tile failure")

        monkeypatch.setattr(nonlin, "_chord_tiles", one_tile_then_fail)
        curve = random_curve(16, 7)
        call = {"eval_nonlinearity": lambda: eval_nonlinearity(curve, cubic_law, 100),
                "chord_arc_ratio": lambda: chord_arc_ratio(curve, 100)}[scan]
        with caller_bufsize(2 ** 16):
            with pytest.raises(RuntimeError, match="tile failure"):
                call()
            assert np.getbufsize() == 2 ** 16


class TestErrors:
    def test_non_finite_mode_rejected_on_entry(self, cubic_law):
        # NaN compares False against the chord-arc and stretch guards
        curve = curve_with(8, {2: 1e-3, 3: np.nan})
        with pytest.raises(StepRejected, match="non-finite"):
            eval_nonlinearity(curve, cubic_law, 64)

    def test_geometry_error(self):
        wide = cubic(r_min=0.05, r_max=10.0)
        with pytest.raises(GeometryError):
            eval_nonlinearity(curve_with(8, {2: 0.55}), wide, 64)

    def test_tension_domain_error(self, cubic_law):
        # stretch of a large second mode leaves the default [0.5, 2] interval
        with pytest.raises(TensionDomainError):
            eval_nonlinearity(curve_with(8, {2: 0.55}), cubic_law, 64)

    def test_products_past_the_float_range(self):
        # b_max^4 bounds |b|^4: chords near 2e91 at M = 32
        law = hookean(r_max=1e300)
        with pytest.raises(GeometryError, match="overflow the boundary integral"):
            eval_nonlinearity(curve_with(8, {2: 1e90}), law, 32)
        # b_max^2 max|T| max|g|^2 bounds |b|^2 |H|: T(1) = 1 + c
        with pytest.raises(TensionDomainError, match="overflows the boundary integral"):
            eval_nonlinearity(curve_with(8, {2: 1e-3}), cubic(c=1e300), 32)

    def test_grid_too_small(self, cubic_law):
        from peskin2d.errors import ConfigError
        with pytest.raises(ConfigError):
            eval_nonlinearity(curve_with(8, {}), cubic_law, 17)
