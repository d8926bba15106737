import math

import numpy as np
import pytest

from peskin2d import (ConfigError, FourierCurve, IllConditioned,
                      InsufficientDecay, StepRejected, cubic, make_single_mode,
                      power, rescale_to_norm)
from peskin2d.initdata import make_random_decay
from peskin2d.integrator import (MAX_SNAPSHOTS, MAX_STEPS, RunConfig, _aitken,
                                 _Propagators, default_dt, fit_decay, iter_run, run, step)
from peskin2d.linear import (_phi1_scalar, _phi2_scalar, build_pair_system,
                             propagator_matrices, propagator_tables)
from peskin2d.tension import TensionLaw, linear_coefficients

from conftest import random_y_modes


def config(law, initial, **kw):
    kw.setdefault("K", initial.K)
    kw.setdefault("M", 4 * initial.K)
    return RunConfig(law=law, initial=initial, **kw)


class TestStep:
    def test_circle_fixed_point(self, cubic_law):
        curve = FourierCurve(np.zeros(17, complex))
        cfg = config(cubic_law, curve, dt=0.1, t_end=1.0)
        out = step(curve, cubic_law, 0.1, cfg.M)
        assert np.abs(out.modes).max() < 1e-14
        assert out.time == pytest.approx(0.1)

    def test_linear_regime_scalar_exponential(self, hookean_law):
        delta = 1e-6
        curve = make_single_mode(8, 2, delta)
        cfg = config(hookean_law, curve, dt=0.01, t_end=1.0)
        out = step(curve, hookean_law, 0.01, cfg.M)
        want = delta * np.exp(-0.01 / 4)
        assert abs(out.mode(2) - want) < 1e-13 * delta + 1e-14

    def test_second_order(self, cubic_law):
        ini = rescale_to_norm(make_random_decay(12, 2.0, 11, 1.0), "s", 0.01)
        def end_state(dt):
            cfg = config(cubic_law, ini, dt=dt, t_end=1.6, snapshot_every=1.6)
            return run(cfg).snapshots[-1].modes
        ref = end_state(0.0125)
        e1 = np.abs(end_state(0.1) - ref).max()
        e2 = np.abs(end_state(0.05) - ref).max()
        assert 3.5 <= e1 / e2 <= 4.5

    def test_blowup_guard(self):
        # anti-monotone diagnostic law: tau' (1) < 0, so mode 2 grows
        law = TensionLaw(lambda r: np.asarray(r, float) * (3.0 - 2.0 * np.asarray(r, float)),
                         lambda r: 3.0 - 4.0 * np.asarray(r, float),
                         "antimonotone", check_positivity=False)
        curve = make_single_mode(8, 2, 1e-8)
        cfg = config(law, curve, dt=12.0, t_end=24.0)
        with pytest.raises(StepRejected):
            step(curve, law, 12.0, cfg.M)

    def test_non_finite_mode_rejected(self, cubic_law):
        # NaN compares False against every threshold, so only an explicit
        # finiteness check stops it from flowing into the next step
        curve = make_single_mode(8, 2, 1e-3)
        modes = curve.modes.copy()
        modes[8 + 3] = np.nan
        cfg = config(cubic_law, curve, dt=0.05, t_end=1.0)
        with pytest.raises(StepRejected, match="non-finite"):
            step(FourierCurve(modes), cubic_law, 0.05, cfg.M)

    def test_pair_update_matches_matrix_products(self, cubic_law, rng):
        # every pair u = (a_m, conj(a_{2-m})) advances by E u + dt (P1 lu + P2 cu)
        K, dt, a1 = 12, 0.01, 0.02 - 0.01j
        props = _Propagators(cubic_law, a1, dt, K)
        modes, L, L_star = (rng.standard_normal(2 * K + 1)
                            + 1j * rng.standard_normal(2 * K + 1) for _ in range(3))
        new = props.advance(modes, L, L_star)
        co = linear_coefficients(cubic_law, a1)
        for m in range(3, K + 1):
            E, P1, P2 = propagator_matrices(build_pair_system(m, co, a1), dt)

            def pair(v):
                return np.array([v[K + m], np.conj(v[K + 2 - m])])
            want = E @ pair(modes) + dt * (P1 @ pair(L) + P2 @ pair(L_star - L))
            assert np.allclose([new[K + m], np.conj(new[K + 2 - m])], want,
                               rtol=1e-14, atol=1e-14)

    @pytest.mark.parametrize("K", [8, 64])
    def test_frozen_and_scalar_modes_exact(self, cubic_law, rng, K):
        # modes 0 and 1 take exactly Heun; mode 2 and the truncated-partner
        # modes 1-K, -K take exactly the scalar ETD update, bit for bit
        dt, a1 = 0.01, 0.02 - 0.01j
        co = linear_coefficients(cubic_law, a1)
        props = _Propagators(cubic_law, a1, dt, K)
        modes, L, L_star = (rng.standard_normal(2 * K + 1)
                            + 1j * rng.standard_normal(2 * K + 1) for _ in range(3))
        for Ls in (None, L_star):
            new = props.advance(modes, L, Ls)
            corr = np.zeros_like(L) if Ls is None else Ls - L
            for k in (0, 1):
                assert new[K + k] == modes[K + k] + dt * (L[K + k] + 0.5 * corr[K + k])
            rates = {2: (co.A + co.b_tilde) / 4.0}
            for m in (K + 1, K + 2):
                rates[2 - m] = ((2.0 * m - 2.0) * co.A + (m - 2.0) * co.b_tilde) / 8.0
            for k, rate in rates.items():
                z = -rate * dt
                e = math.exp(z)
                p1, p2 = (float(np.real(f(z))) for f in (_phi1_scalar, _phi2_scalar))
                want = e * modes[K + k] + dt * (p1 * L[K + k] + p2 * corr[K + k])
                assert new[K + k] == want, k

    def test_batched_build_names_ill_conditioned_pair(self):
        # one near-defective G in the stack: its two eigenvectors are
        # nearly parallel, so the condition number is ~1e10
        G = np.array([-np.eye(2), [[-1.0, 1.0], [0.0, -1.0 - 1e-10]], -2.0 * np.eye(2)])
        with pytest.raises(IllConditioned, match="pair m=7:"):
            propagator_tables(np.array([6, 7, 8]), G, 0.1)
        E, P1, P2 = propagator_tables(np.array([6, 8]), G[[0, 2]], 0.1)
        assert np.allclose(E, [np.exp(-0.1) * np.eye(2), np.exp(-0.2) * np.eye(2)],
                           rtol=1e-15, atol=0)


class TestRun:
    def test_zero_data_constant(self, cubic_law):
        curve = FourierCurve(np.zeros(17, complex))
        traj = run(config(cubic_law, curve, dt=0.1, t_end=1.0, snapshot_every=0.2))
        for row in traj.table:
            assert row["l2_Y"] < 1e-13
        assert traj.fit_rate is None  # nothing decayed

    def test_mode2_rate_hookean(self, hookean_law):
        curve = make_single_mode(8, 2, 1e-3)
        traj = run(config(hookean_law, curve, dt=0.05, t_end=8.0,
                          snapshot_every=0.25))
        assert traj.fit_rate == pytest.approx(0.25, rel=0.01)

    def test_default_dt_resolves_fastest_rate(self, cubic_law):
        # 0.5 / ((A + b_tilde)(K-1)/4) for the cubic law at the circle
        assert default_dt(cubic_law, 0.0, 65) == pytest.approx(0.5 / 64.0, rel=1e-12)

    def test_default_dt_hookean_counts_truncated_partner(self, hookean_law):
        # A = 1, b_tilde = 0: the fastest rate is not (A + b_tilde)(K-1)/4 = 7/4
        # but that of a_{-K} alone in pair K+2, ((2m-2) A + (m-2) b_tilde)/8 = 18/8
        assert default_dt(hookean_law, 0.0, 8) == pytest.approx(0.5 / 2.25, rel=1e-12)

    def test_default_dt_power_half_uses_larger_eigenvalue(self):
        # tau = sqrt(r): A = 1, b_tilde = -1/2, so the eigenvalue 2 A (m-1)/8 of
        # pair m = K outruns 2 (A + b_tilde)(m-1)/8 twice over
        assert default_dt(power(0.5), 0.0, 64) == pytest.approx(0.5 / (63 / 4), rel=1e-12)

    def test_corner_decay_against_linear_prediction(self, cubic_law):
        from peskin2d import make_corner
        from peskin2d.linear import spectrum_report
        from peskin2d.tension import linear_coefficients
        K = 32
        curve = make_corner(K, [0.0, 1.9], [1.0, 0.7], 0.01)
        curve = rescale_to_norm(curve, "s", 0.01)
        traj = run(config(cubic_law, curve, dt=0.02, t_end=10.0,
                          snapshot_every=0.5))
        co = linear_coefficients(cubic_law, 0.0)
        r_min = min((co.A + co.b_tilde) / 4,
                    min(r["decay_rate"] for r in spectrum_report(cubic_law, 0.0, K)))
        from peskin2d import split as csplit
        from peskin2d.norms import linf_norm
        linf0 = linf_norm(csplit(traj.snapshots[0]).y_modes)
        linfT = linf_norm(csplit(traj.snapshots[-1]).y_modes)
        assert linfT < linf0 * np.exp(-0.9 * r_min * 10.0)

    def test_snapshot_times_strictly_increasing(self, cubic_law):
        curve = make_single_mode(8, 2, 1e-4)
        traj = run(config(cubic_law, curve, dt=0.05, t_end=1.0, snapshot_every=0.1))
        t = traj.times
        assert np.all(np.diff(t) > 0)

    def test_determinism(self, cubic_law):
        def once():
            ini = make_random_decay(16, 2.0, 3, 1e-3)
            traj = run(config(cubic_law, ini, dt=0.05, t_end=1.0,
                              snapshot_every=0.25))
            return np.concatenate([s.modes for s in traj.snapshots])
        a, b = once(), once()
        assert np.array_equal(a, b)

    def test_iter_run_yields_snapshots_before_failure(self):
        law = TensionLaw(lambda r: np.asarray(r, float) * (3.0 - 2.0 * np.asarray(r, float)),
                         lambda r: 3.0 - 4.0 * np.asarray(r, float),
                         "antimonotone", check_positivity=False)
        curve = make_single_mode(8, 2, 1e-6)
        cfg = config(law, curve, dt=12.0, t_end=60.0)
        received = []
        with pytest.raises(StepRejected):
            for snap, row in iter_run(cfg):
                received.append((snap, row))
        # the growth guard rejects the first step, after t = 0 was handed over
        assert len(received) == 1
        snap, row = received[0]
        assert snap is curve
        assert row["t"] == 0.0 and row["abs_a2"] == 1e-6

    def test_run_collects_iter_run(self, cubic_law):
        cfg = config(cubic_law, make_single_mode(8, 2, 1e-3), dt=0.05, t_end=4.0,
                     snapshot_every=0.25)
        traj = run(cfg)
        pairs = list(iter_run(cfg))
        assert [s.time for s in traj.snapshots] == [s.time for s, _ in pairs]
        assert all(np.array_equal(a.modes, s.modes)
                   for a, (s, _) in zip(traj.snapshots, pairs))
        assert traj.table == [row for _, row in pairs]
        assert (traj.fit_rate, traj.a0_limit, traj.a1_limit) == fit_decay(traj.table)


class TestSymmetry:
    """Whole-run oracles: the flow commutes with rotation and translation."""

    K = 16

    def _snapshots(self, modes, frozen):
        cfg = config(cubic(), FourierCurve(modes), dt=0.05, t_end=0.5, snapshot_every=0.1,
                     frozen_coefficients=frozen)
        return [s.modes for s, _ in iter_run(cfg)]

    def _initial(self, rng):
        modes = random_y_modes(rng, self.K, amp=1e-2)
        modes[self.K] = 0.1 + 0.05j
        modes[self.K + 1] = 0.02 - 0.01j
        return modes

    @pytest.mark.parametrize("frozen", [True, False])
    def test_rotation(self, rng, frozen):
        # a_k e^{i(k-1) theta} is the curve e^{-i theta} X(s + theta); a shift
        # by 7 grid steps of M = 4K keeps the quadrature nodes
        k = np.arange(-self.K, self.K + 1)
        phase = np.exp(1j * (k - 1) * 2.0 * np.pi * 7 / (4 * self.K))
        modes = self._initial(rng)
        base = self._snapshots(modes, frozen)
        turned = self._snapshots(modes * phase, frozen)
        assert len(base) == 6
        for a, b in zip(turned, base):
            assert np.abs(a - b * phase).max() <= 1e-14

    @pytest.mark.parametrize("frozen", [True, False])
    def test_translation(self, rng, frozen):
        c = 0.3 - 0.2j
        modes = self._initial(rng)
        moved = modes.copy()
        moved[self.K] += c
        base = self._snapshots(modes, frozen)
        shifted = self._snapshots(moved, frozen)
        assert len(base) == 6
        for a, b in zip(shifted, base):
            assert abs(a[self.K] - b[self.K] - c) <= 1e-14
            assert np.abs(np.delete(a - b, self.K)).max() <= 1e-14


class TestPolicies:
    def test_mode01_drift_quadratic(self, cubic_law, rng):
        drifts = {}
        for eps in (0.02, 0.01, 0.005):
            modes = random_y_modes(rng, 16, amp=1.0)
            curve = rescale_to_norm(FourierCurve(modes), "s", eps)
            traj = run(config(cubic_law, curve, dt=0.05, t_end=3.0,
                              snapshot_every=0.25))
            drift = max(abs(complex(r["a0_re"], r["a0_im"])) +
                        abs(complex(r["a1_re"], r["a1_im"])) for r in traj.table)
            drifts[eps] = drift
        c_fit = {eps: d / eps ** 2 for eps, d in drifts.items()}
        vals = list(c_fit.values())
        assert max(vals) / min(vals) < 3.0  # one stable constant across eps

    def test_monotone_decay_small_data(self, cubic_law, rng):
        modes = random_y_modes(rng, 12, amp=1.0)
        curve = rescale_to_norm(FourierCurve(modes), "s", 1e-4)
        traj = run(config(cubic_law, curve, dt=0.05, t_end=3.0,
                          snapshot_every=0.1))
        l2 = np.array([row["l2_Y"] for row in traj.table])
        assert np.all(np.diff(l2) <= 1e-12 * l2[0])

    def test_frozen_vs_refreshed_quadratic_gap(self, cubic_law, rng):
        gaps = {}
        for eps in (0.01, 0.005):
            modes = random_y_modes(rng, 12, amp=1.0)
            curve = rescale_to_norm(FourierCurve(modes), "s", eps)
            ends = {}
            for frozen in (True, False):
                traj = run(config(cubic_law, curve, dt=0.05, t_end=5.0,
                                  snapshot_every=1.0, frozen_coefficients=frozen))
                ends[frozen] = traj.snapshots[-1].modes
            gaps[eps] = np.abs(ends[True] - ends[False]).max()
        # bounded by O(eps^2) t; the observed gap is cubic (coefficient
        # drift O(eps^2) times the O(eps) state), so at least quadratic
        for eps, gap in gaps.items():
            assert gap <= eps ** 2 * 5.0
        assert gaps[0.01] / gaps[0.005] >= 3.5


class TestFitDecay:
    def _synthetic(self, rate, t_end=8.0, n=33):
        ts = np.linspace(0.0, t_end, n)
        table = []
        for t in ts:
            table.append({"t": float(t), "l2_Y": float(np.exp(-rate * t)),
                          "a0_re": 0.1 * (1 - np.exp(-t)), "a0_im": 0.0,
                          "a1_re": 0.0, "a1_im": -0.05 * (1 - np.exp(-t))})
        return table

    def test_exact_exponential(self):
        rate, a0, a1 = fit_decay(self._synthetic(0.7))
        assert rate == pytest.approx(0.7, abs=1e-10)
        assert a0 == pytest.approx(0.1, abs=1e-3)
        assert a1 == pytest.approx(-0.05j, abs=1e-3)

    @pytest.mark.parametrize("first, step", [
        (0.25, 0.125),
        (0.3, 1e-9),   # step far below the terms: d1, d2 differ by the terms' roundoff
        (0.3 + 0.1j, 1e-9j),
        (2.7e-9 + 1e-12j, -9.72e-15j),   # a1's late drift under the circle's rotation
        (-9.311809432953932e-10, 4.653872159298107e-10),   # through 0: 2.1e6 before
    ])
    def test_aitken_returns_last_term_of_arithmetic_sequence(self, first, step):
        # a linear drift is no geometric tail, whatever its rounding
        x = [first + i * step for i in range(3)]
        assert _aitken(*x) == x[2]

    @pytest.mark.parametrize("ratio", [0.5, 0.9, np.exp(-0.5 + 0.3j)])
    def test_aitken_extrapolates_geometric_tail(self, ratio):
        limit = 0.1 - 0.05j
        x = [limit + 0.01 * ratio ** i for i in range(3)]
        assert abs(_aitken(*x) - limit) <= 1e-14

    def test_insufficient_decay(self):
        with pytest.raises(InsufficientDecay):
            fit_decay(self._synthetic(0.1, t_end=1.0))

    def test_a0_limit_quadratic_in_eps(self, cubic_law):
        from peskin2d import make_corner
        K = 32
        limits = {}
        for eps in (1e-2, 5e-3):
            curve = make_corner(K, [0.0, 1.9], [1.0, 0.7], eps)
            traj = run(config(cubic_law, curve, dt=0.02, t_end=8.0,
                              snapshot_every=0.5))
            limits[eps] = abs(traj.a0_limit)
        ratio = limits[1e-2] / limits[5e-3]
        assert 3.3 <= ratio <= 4.7


class TestConfig:
    def test_from_dict(self):
        cfg = RunConfig.from_dict({
            "law": {"law": "cubic", "c": 1.0},
            "initial_data": {"kind": "single_mode", "k": 2, "amplitude": [1e-3, 0]},
            "K": 16, "M": 64, "dt": 0.05, "t_end": 1.0})
        assert cfg.K == 16 and cfg.dt == 0.05

    def test_rejects_unknown_keys(self):
        with pytest.raises(ConfigError):
            RunConfig.from_dict({"law": {"law": "cubic"}, "initial_data":
                                 {"kind": "single_mode", "k": 2}, "wat": 1})

    @staticmethod
    def _k8(**keys):
        return RunConfig.from_dict({"law": {"law": "cubic"},
                                    "initial_data": {"kind": "single_mode", "k": 2},
                                    "K": 8, **keys})

    @pytest.mark.parametrize("keys, match", [
        ({"dt": 1e-9, "t_end": 1.0}, "steps exceeds"),
        ({"dt": 1e-10, "t_end": 1e300}, "steps exceeds"),
        ({"dt": 1e-4, "t_end": 2.0, "snapshot_every": 1e-4}, "snapshots, more than"),
    ], ids=["steps", "steps-overflow", "snapshots"])
    def test_planned_counts_capped_before_first_yield(self, keys, match):
        with pytest.raises(ConfigError, match=match):
            next(iter_run(self._k8(**keys)))

    def test_counts_at_the_caps_accepted(self):
        # t = 0 is yielded before any step is taken
        for keys in ({"dt": 1.0 / MAX_STEPS, "t_end": 1.0, "snapshot_every": 1.0},
                     {"dt": 1e-3, "t_end": (MAX_SNAPSHOTS - 1) * 1e-3, "snapshot_every": 1e-3},
                     {"dt": 1e-3, "t_end": 1.0, "snapshot_every": 1e308}):
            assert next(iter_run(self._k8(**keys)))[1]["t"] == 0.0

    def test_initial_curve_time_must_be_zero(self, cubic_law):
        # snapshots are stamped i * dt, so a curve at t = 5 gave the
        # times [5.0, 0.1, 0.2, ...]
        late = FourierCurve(make_single_mode(8, 2, 0.01).modes, 5.0)
        cfg = config(cubic_law, late, M=32, dt=0.1, t_end=0.5, snapshot_every=0.1)
        with pytest.raises(ConfigError, match="initial curve time must be 0, got 5.0"):
            run(cfg)

    def test_m_floor(self):
        with pytest.raises(ConfigError):
            RunConfig.from_dict({"law": {"law": "cubic"},
                                 "initial_data": {"kind": "single_mode", "k": 2},
                                 "K": 16, "M": 32})
