"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report lines alongside the pytest verdicts.
"""

import numpy as np
import pytest

from peskin2d import (FourierCurve, cubic, hookean, linear_coefficients,
                      make_corner, make_random_decay, make_single_mode,
                      rescale_to_norm)
from peskin2d.curve import wavenumbers
from peskin2d.integrator import RunConfig, run
from peskin2d.kernels import (dyadic_alphas, fit_kernel_bounds, ik_exact,
                              jk_exact, pv_quadrature_ik, pv_quadrature_jk)
from peskin2d.linear import build_pair_system, spectrum_report
from peskin2d.nonlin import eval_nonlinearity, eval_residual, linear_mode_rhs
from peskin2d.norms import convolve_coeffs, n_norm, z1_algebra_check

from conftest import random_y_modes


def report(num, name, detail):
    print(f"\nACCEPTANCE {num:02d} [{name}]: PASS ({detail})")


def fail_report(num, name, detail):
    print(f"\nACCEPTANCE {num:02d} [{name}]: FAIL ({detail})")


class Check:
    """Collects assertions; prints one summary line per criterion."""

    def __init__(self, num, name):
        self.num, self.name = num, name

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is None:
            report(self.num, self.name, getattr(self, "detail", ""))
        else:
            fail_report(self.num, self.name, str(exc)[:200])
        return False


def test_criterion_01_kernel_identities():
    with Check(1, "kernel identities") as c:
        worst = 0.0
        for k in range(-64, 65):
            worst = max(worst,
                        abs(pv_quadrature_ik(k, 1024) - ik_exact(k)),
                        abs(pv_quadrature_jk(k, 1024) - jk_exact(k)))
        c.detail = f"max abs error {worst:.3e} <= 1e-12 over |k| <= 64, M=1024"
        assert worst <= 1e-12


def test_criterion_02_steady_states():
    with Check(2, "steady circles") as c:
        K, M = 64, 512
        worst = 0.0
        a0s = [0.0, 0.3 + 0.2j, -0.25j, 0.15 - 0.1j, 0.4]
        a1s = [0.0, 0.1, 0.3, 0.2j, -0.15 + 0.2j]
        for law in (hookean(), cubic()):
            for a0 in a0s:
                for a1 in a1s:
                    modes = np.zeros(2 * K + 1, dtype=complex)
                    modes[K + 0], modes[K + 1] = a0, a1
                    ev = eval_nonlinearity(FourierCurve(modes), law, M)
                    scale = max(1.0, abs(a0), abs(a1))
                    worst = max(worst, np.abs(ev.grid_values).max() / scale)
        c.detail = f"max |velocity| {worst:.3e} <= 1e-10 on 5x5 circle grid, both laws"
        assert worst <= 1e-10


def test_criterion_03_linearization_jacobian():
    with Check(3, "linearization Jacobian") as c:
        K, M, delta = 14, 160, 1e-6
        worst = 0.0
        for law in (hookean(), cubic()):
            coeffs = linear_coefficients(law, 0.0)
            base = np.zeros(2 * K + 1, dtype=complex)
            for k in range(-12, 13):
                if k in (0, 1):
                    continue
                for phase in (1.0, 1j):
                    e = np.zeros(2 * K + 1, dtype=complex)
                    e[K + k] = phase
                    fp = eval_nonlinearity(FourierCurve(base + delta * e), law, M).n_modes
                    fm = eval_nonlinearity(FourierCurve(base - delta * e), law, M).n_modes
                    jac = (fp - fm) / (2 * delta)
                    want = linear_mode_rhs(e, coeffs, 0.0)
                    worst = max(worst, float(np.abs(jac - want).max()
                                             / np.abs(want).max()))
        c.detail = f"max rel error {worst:.3e} <= 1e-6, |k| <= 12, both laws"
        assert worst <= 1e-6


def test_criterion_04_pair_spectrum():
    with Check(4, "pair-system spectrum") as c:
        worst = 0.0
        for law in (hookean(), cubic()):
            for a1 in (0.0, 0.1, 0.1j):
                co = linear_coefficients(law, a1)
                for m in range(3, 129):
                    sys = build_pair_system(m, co, a1)
                    want = np.sort([2.0 * co.A * (m - 1),
                                    2.0 * (co.A + co.b_tilde) * (m - 1)])
                    got = np.sort(np.linalg.eigvals(-8.0 * np.asarray(sys.G)).real)
                    worst = max(worst, np.abs(got - want).max() / want.max())
        c.detail = f"max rel eigenvalue error {worst:.3e} <= 1e-12, 3 <= m <= 128"
        assert worst <= 1e-12


def _fit_mode2_rate(law, dt):
    curve = make_single_mode(8, 2, 1e-4)
    cfg = RunConfig(law=law, initial=curve, K=8, M=32, dt=dt, t_end=8.0,
                    snapshot_every=0.25)
    traj = run(cfg)
    t = traj.times
    a2 = np.array([row["abs_a2"] for row in traj.table])
    return -np.polyfit(t, np.log(a2), 1)[0]


def test_criterion_05_mode2_decay():
    with Check(5, "second-mode decay rate") as c:
        r_h = _fit_mode2_rate(hookean(), 0.05)
        r_c = _fit_mode2_rate(cubic(), 0.02)
        c.detail = f"hookean {r_h:.6f} (want 0.25 +-1%), cubic {r_c:.6f} (want 1 +-1%)"
        assert abs(r_h - 0.25) <= 0.0025
        assert abs(r_c - 1.0) <= 0.01


@pytest.fixture(scope="module")
def corner_runs():
    """The stability benchmark: corner data, cubic law, K = 128."""
    law = cubic()
    K = 128
    runs = {}
    for eps, t_end in ((0.01, 20.0), (0.005, 8.0)):
        curve = make_corner(K, [0.0, 1.9], [1.0, 0.7], eps)
        curve = rescale_to_norm(curve, "s", eps)
        cfg = RunConfig(law=law, initial=curve, K=K, M=512, dt=0.01,
                        t_end=t_end, snapshot_every=0.25)
        runs[eps] = run(cfg)
    return runs


def test_criterion_06_nonlinear_stability(corner_runs):
    with Check(6, "nonlinear stability, corner data") as c:
        law = cubic()
        traj = corner_runs[0.01]
        co = linear_coefficients(law, 0.0)
        predicted = min((co.A + co.b_tilde) / 4,
                        min(r["decay_rate"] for r in spectrum_report(law, 0.0, 128)))
        # (a) monotone L2 decay after t = 1 and rate within 10 percent
        t = traj.times
        l2 = np.array([row["l2_Y"] for row in traj.table])
        tail = l2[t >= 1.0]
        assert np.all(np.diff(tail) <= 1e-12 * l2[0])
        assert traj.fit_rate == pytest.approx(predicted, rel=0.10)
        # (b) terminal curve is a circle to 1e-6 in the sup norm
        end = traj.snapshots[-1]
        K = end.K
        final = np.array(end.modes)
        final[K + 0] -= traj.a0_limit
        final[K + 1] -= traj.a1_limit
        sup_dev = np.abs(final).sum()  # l1 of coefficients bounds the sup
        assert sup_dev <= 1e-6
        # (c) limits scale quadratically in the data size
        small = corner_runs[0.005]
        r0 = abs(traj.a0_limit) / abs(small.a0_limit)
        r1 = abs(traj.a1_limit) / abs(small.a1_limit)
        assert 3.3 <= r0 <= 4.7
        assert 3.3 <= r1 <= 4.7
        c.detail = (f"rate {traj.fit_rate:.4f} vs {predicted} (+-10%), "
                    f"terminal circle deviation {sup_dev:.2e} <= 1e-6, "
                    f"limit ratios a0 {r0:.2f}, a1 {r1:.2f} in [3.3, 4.7]")


def test_criterion_07_residual_quadratic():
    with Check(7, "residual quadratic smallness") as c:
        law = cubic()
        K, M = 16, 128
        ratios = []
        for seed in range(10):
            base = make_random_decay(K, 2.0, seed, 1.0)
            big = rescale_to_norm(base, "s", 1e-3)
            smaller = FourierCurve(big.modes / 2.0)
            L1 = eval_residual(big, law, M)
            L2 = eval_residual(smaller, law, M)
            k_dom = int(np.argmax(np.abs(L1)))
            ratios.append(abs(L1[k_dom]) / abs(L2[k_dom]))
        c.detail = f"ratios in [{min(ratios):.2f}, {max(ratios):.2f}] within [3.5, 4.5]"
        assert min(ratios) >= 3.5 and max(ratios) <= 4.5


def test_criterion_08_kernel_bound_constants():
    with Check(8, "kernel bound constants") as c:
        ns = range(7)
        coarse = fit_kernel_bounds(ns, dyadic_alphas(4), oversample=8)
        fine = fit_kernel_bounds(ns, dyadic_alphas(8), oversample=16)
        changes = {}
        for key in ("l_bound", "l_tilde_bound", "l_tilde_dalpha"):
            assert np.isfinite(coarse[key]) and coarse[key] > 0
            changes[key] = abs(fine[key] - coarse[key]) / coarse[key]
            assert changes[key] <= 0.20
        c.detail = ", ".join(f"{k}={coarse[k]:.1f} ({100 * v:.1f}% drift)"
                             for k, v in changes.items())


def test_criterion_09_norm_products(rng):
    with Check(9, "norm product properties") as c:
        times = np.array([0.0, 0.1, 1.0, 10.0])
        conv_ratios = []
        for _ in range(50):
            K = 24
            a = random_y_modes(rng, K, decay=rng.uniform(1.2, 2.5), amp=1.0)
            b = random_y_modes(rng, K, decay=rng.uniform(1.2, 2.5), amp=1.0)
            a /= n_norm(a, times)
            b /= n_norm(b, times)
            conv_ratios.append(n_norm(convolve_coeffs(np.abs(a), np.abs(b)), times))
        t_grid = np.array([0.0, 0.2, 1.0, 3.0])
        alg_ratios = []
        for _ in range(30):
            K = 16
            amps = rng.uniform(0.5, 2.0, size=2)
            rates = 2.0 ** rng.integers(0, 4, size=2)
            base1 = random_y_modes(rng, K, decay=2.0, amp=amps[0])
            base2 = random_y_modes(rng, K, decay=2.0, amp=amps[1])
            y1 = [base1 * np.exp(-rates[0] * t) for t in t_grid]
            y2 = [base2 * np.exp(-rates[1] * t) for t in t_grid]
            alg_ratios.append(z1_algebra_check(y1, y2, t_grid))
        for ratios in (conv_ratios, alg_ratios):
            full, half = max(ratios), max(ratios[:len(ratios) // 2])
            assert np.isfinite(full)
            assert full <= 1.5 * half
        c.detail = (f"convolution constant {max(conv_ratios):.2f}, "
                    f"z1-algebra constant {max(alg_ratios):.2f}, both stable +-50%")


def test_criterion_10_integrator_order():
    with Check(10, "integrator order") as c:
        law = cubic()
        ini = rescale_to_norm(make_random_decay(12, 2.0, 11, 1.0), "s", 0.01)

        def end_state(dt):
            cfg = RunConfig(law=law, initial=ini, K=12, M=48, dt=dt, t_end=1.6,
                            snapshot_every=1.6)
            return run(cfg).snapshots[-1].modes

        ref = end_state(0.0125)
        e1 = np.abs(end_state(0.1) - ref).max()
        e2 = np.abs(end_state(0.05) - ref).max()
        ratio = e1 / e2
        c.detail = f"error ratio dt/dt2 = {ratio:.2f} in [3.5, 4.5]"
        assert 3.5 <= ratio <= 4.5


# ---------------------------------------------------------------------------
# physics oracles: Stokes flow is incompressible, so the enclosed area is
# conserved; these checks need no stored reference


def enclosed_area(curve):
    """A = pi sum_k k |b_k|^2 of the full curve, b = a + delta_{k,1} (the base circle)."""
    b = np.array(curve.modes)
    b[curve.K + 1] += 1.0
    return np.pi * float(np.sum(wavenumbers(curve.K) * np.abs(b) ** 2))


@pytest.mark.parametrize("law, initial", [
    (cubic(), lambda K: rescale_to_norm(make_corner(K, [0.0, 1.9], [1.0, 0.7], 0.01), "s", 0.01)),
    (hookean(), lambda K: make_random_decay(K, 2.0, 0, 1e-3)),
], ids=["cubic-corner", "hookean-random-decay"])
def test_area_drift_is_second_order(law, initial):
    # the drift is the integrator's error alone: about 4.00x per halving of
    # dt (measured 5.7e-11 to 9.1e-10 here); without the ETD corrector, 2.0x
    K = 16
    curve = initial(K)
    drifts = []
    for dt in (0.02, 0.01, 0.005):
        traj = run(RunConfig(law=law, initial=curve, K=K, M=4 * K, dt=dt, t_end=1.0,
                             snapshot_every=0.1))
        areas = np.array([enclosed_area(snap) for snap in traj.snapshots])
        drifts.append(float(np.abs(areas - areas[0]).max()))
    ratios = [drifts[0] / drifts[1], drifts[1] / drifts[2]]
    assert all(3.5 <= r <= 4.5 for r in ratios), (drifts, ratios)


def test_terminal_circle_has_the_initial_area(corner_runs):
    # the limit disk keeps the area: |1 + a1_limit|^2 = A(0) / pi.  Measured
    # gap 8.4e-11, against A(0) / pi - 1 = 5.4e-7 for the data itself
    traj = corner_runs[0.01]
    radius2 = enclosed_area(traj.snapshots[0]) / np.pi
    assert radius2 - 1.0 > 5e-7
    assert abs(abs(1.0 + traj.a1_limit) ** 2 - radius2) <= 1e-9
