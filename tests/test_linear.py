import numpy as np
import pytest
import scipy.linalg

from peskin2d import (IllConditioned, build_pair_system, cubic, hookean,
                      linear_coefficients, spectrum_report)
from peskin2d.linear import (ModePairSystem, pair_layout, pair_matrices,
                             propagator_matrices)
from peskin2d.tension import affine, power


def closed_form_eigs(coeffs, m):
    return np.sort([2.0 * coeffs.A * (m - 1),
                    2.0 * (coeffs.A + coeffs.b_tilde) * (m - 1)])


class TestBuildPairSystem:
    def test_hookean_m3_diagonal(self):
        co = linear_coefficients(hookean(), 0.0)
        sys = build_pair_system(3, co, 0.0)
        assert np.allclose(sys.G, -np.diag([0.5, 0.5]), atol=1e-15)
        assert np.allclose(np.sort(sys.minus8_eigenvalues.real), [4.0, 4.0],
                           atol=1e-14)

    def test_cubic_m3(self):
        co = linear_coefficients(cubic(), 0.0)
        sys = build_pair_system(3, co, 0.0)
        # oracle: numeric eigensolver on the assembled matrix
        numeric = np.sort(np.linalg.eigvals(-8 * sys.G).real)
        assert np.allclose(numeric, [8.0, 16.0], rtol=1e-13)
        assert np.allclose(np.sort(sys.minus8_eigenvalues.real), numeric,
                           rtol=1e-12)

    @pytest.mark.parametrize("law_fn", [hookean, cubic])
    @pytest.mark.parametrize("a1", [0.0, 0.1, 0.1j, -0.05 + 0.2j])
    def test_closed_form_vs_eigensolver(self, law_fn, a1):
        law = law_fn()
        co = linear_coefficients(law, a1)
        for m in [3, 4, 10, 37, 128]:
            sys = build_pair_system(m, co, a1)
            numeric = np.sort(np.linalg.eigvals(-8.0 * sys.G).real)
            want = closed_form_eigs(co, m)
            assert np.abs(np.sort(sys.minus8_eigenvalues.real) - want).max() \
                <= 1e-12 * want.max()
            assert np.abs(numeric - want).max() <= 1e-12 * want.max()
            assert np.abs(sys.minus8_eigenvalues.imag).max() <= 1e-12 * want.max()

    def test_spectral_abscissa_negative(self):
        co = linear_coefficients(cubic(), 0.1j)
        for m in (3, 17, 60):
            sys = build_pair_system(m, co, 0.1j)
            assert sys.spectral_abscissa < 0

    def test_rejects_small_m(self):
        co = linear_coefficients(hookean(), 0.0)
        with pytest.raises(ValueError):
            build_pair_system(2, co, 0.0)


class TestPropagate:
    def test_hookean_scalar_exponential(self):
        co = linear_coefficients(hookean(), 0.0)
        sys = build_pair_system(3, co, 0.0)
        out = propagate(sys, (1.0, 0.0), 1.0)
        assert out[0] == pytest.approx(np.exp(-0.5), rel=1e-14)
        assert out[1] == 0.0

    def test_zero_dt_identity(self):
        co = linear_coefficients(cubic(), 0.1)
        sys = build_pair_system(5, co, 0.1)
        out = propagate(sys, (0.3 + 0.1j, -0.2j), 0.0)
        assert out[0] == pytest.approx(0.3 + 0.1j, abs=1e-15)
        assert out[1] == pytest.approx(-0.2j, abs=1e-15)

    def test_semigroup(self):
        co = linear_coefficients(cubic(), 0.1j)
        sys = build_pair_system(4, co, 0.1j)
        state = (0.2 - 0.3j, 0.05 + 0.4j)
        composed = propagate(sys, propagate(sys, state, 0.3), 0.7)
        direct = propagate(sys, state, 1.0)
        assert abs(composed[0] - direct[0]) + abs(composed[1] - direct[1]) < 1e-12

    def test_against_scipy_expm(self, rng):
        for a1 in (0.0, 0.07 - 0.12j):
            co = linear_coefficients(cubic(), a1)
            for m in (3, 9, 40):
                sys = build_pair_system(m, co, a1)
                dt = 0.31
                E_ref = scipy.linalg.expm(np.asarray(sys.G) * dt)
                state = rng.normal(size=2) + 1j * rng.normal(size=2)
                got = propagate(sys, state, dt)
                want = E_ref @ state
                assert abs(got[0] - want[0]) + abs(got[1] - want[1]) < 1e-12

    def test_conjugate_pair_reduction(self, rng):
        # the negative-index system is the conjugate-swap of its partner:
        # if (u, v)' = G (u, v) with state (a_m, conj(a_{2-m})), then the
        # direct system for k = 2-m <= -1 propagates (a_k, conj(a_{2-k}))
        # as the swapped conjugate of the m-system
        a1 = 0.1 - 0.05j
        co = linear_coefficients(cubic(), a1)
        m = 5
        k = 2 - m
        sys = build_pair_system(m, co, a1)
        # direct matrix for state (a_k, conj(a_{2-k})) from the decoupled equations
        r1 = abs(1 + a1)
        u = (1 + a1) ** 2 / r1
        A, B, Bt = co.A, co.B, co.b_tilde
        G_neg = np.array([
            [-((-2 * k + 2) * A - k * Bt) / 8, (2 - k) * B * u / 8],
            [-k * B * np.conj(u) / 8, -((-2 * k + 2) * A + (2 - k) * Bt) / 8],
        ])
        state = rng.normal(size=2) + 1j * rng.normal(size=2)
        dt = 0.4
        direct = scipy.linalg.expm(G_neg * dt) @ state
        # reduction: swap + conjugate into the m-system and back
        swapped = (np.conj(state[1]), np.conj(state[0]))
        prop = propagate(sys, swapped, dt)
        via = np.array([np.conj(prop[1]), np.conj(prop[0])])
        assert np.abs(direct - via).max() < 1e-12

    def test_ill_conditioned_guard(self):
        # a near-defective G: its two eigenvectors are nearly parallel
        G = np.array([[-1.0, 1.0], [0.0, -1.0 - 1e-10]], dtype=complex)
        V = np.array([[1.0, 1.0], [0.0, -1e-10]], dtype=complex)
        sys = ModePairSystem(m=3, G=G, eigenvalues=np.array([-1.0, -1.0 - 1e-10]),
                             eigenvectors=V, spectral_abscissa=-1.0,
                             eigen_cond=float(np.linalg.cond(V)))
        with pytest.raises(IllConditioned):
            propagator_matrices(sys, 0.1)

    @pytest.mark.parametrize("law", [hookean(), hookean(k0=3.0), power(1.0), affine(0.0, 2.0)],
                             ids=["hookean", "hookean-k0-3", "power-1", "affine-0-2"])
    @pytest.mark.parametrize("a1", [0.01 + 0.02j, 0.05j])
    def test_linear_law_about_rotated_circle(self, law, a1):
        # tau linear through the origin: T' = 0, but tau'/r - tau/r^2 rounds
        # to about 1e-16 off r = 1, and each pair's two equal eigenvalues
        # once gave parallel eigenvectors (condition 4e18 at m = 3)
        co = linear_coefficients(law, a1)
        for m in range(3, 67):
            sys = build_pair_system(m, co, a1)
            assert sys.eigen_cond == 1.0
            E = propagator_matrices(sys, 0.01)[0]
            want = np.exp(-co.A * (m - 1) / 4.0 * 0.01)
            assert np.allclose(E, want * np.eye(2), rtol=1e-14, atol=0), m


class TestPhiFunctions:
    def test_phi1_zero_limit(self):
        co = linear_coefficients(cubic(), 0.0)
        sys = build_pair_system(3, co, 0.0)
        P1 = propagator_matrices(sys, 1e-16)[1]
        assert np.allclose(P1, np.eye(2), atol=1e-12)

    def test_phi1_diagonal_formula(self):
        co = linear_coefficients(hookean(), 0.0)
        sys = build_pair_system(3, co, 0.0)  # G = -diag(1/2, 1/2)
        P1 = propagator_matrices(sys, 2.0)[1]
        want = (1 - np.exp(-1.0)) / 1.0
        assert np.allclose(np.diag(P1), [want, want], rtol=1e-14)
        assert abs(P1[0, 1]) + abs(P1[1, 0]) < 1e-15

    def test_series_eigen_crossover(self):
        # dual-path oracle at the same z; e^z - 1 = 2 e^{z/2} sinh(z/2)
        # keeps the reference free of cancellation near the branch switch
        from peskin2d.linear import _phi1_scalar, _phi2_scalar

        def phi1_ref(z):
            return 2.0 * np.exp(z / 2) * np.sinh(z / 2) / z

        for z in (0.99e-4, 0.99e-4j, (0.7 + 0.7j) * 1e-4, 1.01e-4):
            assert abs(complex(_phi1_scalar(np.array(z))) - phi1_ref(z)) < 1e-12
        for z in (0.99e-3, 0.99e-3j, 1.01e-3):
            ref = (phi1_ref(z) - 1.0) / z
            assert abs(complex(_phi2_scalar(np.array(z))) - ref) < 1e-12

    def test_long_step_stays_finite(self):
        # past Re z = -40 both take (e^z - 1)/z: sinh(z/2) overflows near
        # Re z = -1420, and the series terms overflow past |z| of about 1e77
        from peskin2d.linear import _phi1_scalar, _phi2_scalar

        z = np.array([-41.0, -1625.0, -1625.0 + 3.0j, -1e148])
        phi1 = (np.exp(z) - 1.0) / z
        assert np.array_equal(_phi1_scalar(z), phi1)
        assert np.array_equal(_phi2_scalar(z), (phi1 - 1.0) / z)
        # the two forms meet at the cut
        for f in (_phi1_scalar, _phi2_scalar):
            below, above = f(np.array([-40.0 - 1e-12, -40.0]))
            assert abs(below / above - 1) < 1e-13

    def test_phi2_matches_definition(self):
        co = linear_coefficients(cubic(), 0.1)
        sys = build_pair_system(6, co, 0.1)
        dt = 0.2
        G = np.asarray(sys.G)
        E = scipy.linalg.expm(G * dt)
        want = np.linalg.solve((G * dt) @ (G * dt), E - np.eye(2) - G * dt)
        assert np.allclose(propagator_matrices(sys, dt)[2], want, rtol=1e-10)

    def test_propagator_matrices_consistent(self):
        co = linear_coefficients(cubic(), 0.0)
        sys = build_pair_system(4, co, 0.0)
        E, P1, P2 = propagator_matrices(sys, 0.5)
        assert np.allclose(E, _apply(sys, 0.5, np.exp), atol=1e-14)
        G = np.asarray(sys.G) * 0.5
        assert np.allclose(P1 @ G, E - np.eye(2), atol=1e-14)
        assert np.allclose(P2 @ G, P1 - np.eye(2), atol=1e-14)


def propagate(sys, state, dt):
    """e^{G dt} of the pair system applied to its state (a_m, conj(a_{2-m}))."""
    return propagator_matrices(sys, dt)[0] @ np.asarray(state, dtype=complex)


def _apply(sys, dt, fn):
    V = np.asarray(sys.eigenvectors)
    return V @ np.diag(fn(np.asarray(sys.eigenvalues) * dt)) @ np.linalg.inv(V)


class TestSpectrumReport:
    def test_hookean_rates(self):
        rows = spectrum_report(hookean(), 0.0, 6)
        assert rows[0]["m"] == 3
        assert rows[0]["decay_rate"] == pytest.approx(0.5, rel=1e-14)
        # rate(m) = (m-1)/4 for the linear law: both eigenvalues 2(m-1), over 8
        for r in rows:
            assert r["decay_rate"] == pytest.approx((r["m"] - 1) / 4, rel=1e-13)

    def test_cubic_m3_rate(self):
        rows = spectrum_report(cubic(), 0.0, 3)
        assert rows[0]["decay_rate"] == pytest.approx(1.0, rel=1e-13)

    def test_monotone_in_m(self):
        rows = spectrum_report(cubic(), 0.1j, 40)
        rates = [r["decay_rate"] for r in rows]
        assert all(b > a for a, b in zip(rates, rates[1:]))

    def test_rate_matches_matrix_exponential_norm_decay(self):
        # oracle: fit the decay of |e^{G t}| over t
        co = linear_coefficients(cubic(), 0.0)
        sys = build_pair_system(3, co, 0.0)
        # non-normal transients die like the spectral gap; fit late times
        ts = np.linspace(8.0, 16.0, 9)
        norms = [np.linalg.norm(scipy.linalg.expm(np.asarray(sys.G) * t), 2)
                 for t in ts]
        slope = np.polyfit(ts, np.log(norms), 1)[0]
        assert -slope == pytest.approx(-sys.spectral_abscissa, rel=1e-3)

    def test_stiff_law_is_finite(self):
        # c = 1e300: the squares of the unscaled discriminant overflow
        rows = spectrum_report(cubic(c=1e300), 0.0, 5)
        for r in rows:
            assert r["lambda1"] == pytest.approx(2e300 * (r["m"] - 1), rel=1e-14)
            assert r["lambda2"] == pytest.approx(6e300 * (r["m"] - 1), rel=1e-14)

    def test_eig2_scaling_changes_no_rounding(self):
        # a power of two scales the eigenvalues exactly and leaves the eigenvectors alone
        from peskin2d.linear import _eig2
        G = pair_matrices(pair_layout(16)[0], linear_coefficients(cubic(), 0.1 + 0.05j),
                          0.1 + 0.05j, 16)
        lam, vecs = _eig2(G)
        for p in (-600, -1, 1, 600):
            lam_p, vecs_p = _eig2(G * 2.0 ** p)
            assert np.array_equal(lam_p, lam * 2.0 ** p)
            assert np.array_equal(vecs_p, vecs)

    def test_mode2_rate(self):
        # mode 2 decays alone at (A + b_tilde)/4: -G[0, 0] of pair m = 2
        for law, want in ((cubic(), 1.0), (hookean(), 0.25)):
            co = linear_coefficients(law, 0.0)
            rate = (co.A + co.b_tilde) / 4
            assert rate == pytest.approx(want, rel=1e-15)
            assert -pair_matrices([2], co, 0.0, K=8)[0, 0, 0] == rate


class TestPairLayout:
    def test_layout(self):
        m, hi, lo = pair_layout(3)
        assert m.tolist() == [1, 2, 3, 4, 5]
        assert hi.tolist() == [4, 5, 6, 7, 7]   # a_4, a_5 are past K: the pad 2K+1
        assert lo.tolist() == [4, 3, 2, 1, 0]

    def test_cached_arrays_reject_writes(self):
        # one layout per K is shared by every caller
        assert pair_layout(5) is pair_layout(5)
        for arr in pair_layout(5):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0
