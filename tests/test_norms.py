import numpy as np
import pytest

from peskin2d.curve import wavenumbers
from peskin2d.kernels import phi_weight
from peskin2d.norms import (_profile_factors, block_l2_profile,
                            convolve_coeffs, l2_norm, n_norm, s_norm, wiener_snapshot,
                            z1_algebra_check, z1_weight, z2_weight)

from conftest import random_y_modes


def single_mode(K, k, amp=1.0):
    c = np.zeros(2 * K + 1, dtype=complex)
    c[K + k] = amp
    return c


class TestProjection:
    def test_single_mode_weight(self):
        c = single_mode(8, 2)
        got = _profile_factors(8)[0][1] * c
        assert got[8 + 2] == phi_weight(1, 2)  # = 1: mode 2 lives in block 1
        assert got[8 + 2] == 1.0

    def test_partition_reconstruction(self, rng):
        # the weighted blocks plus the k = 0 residual rebuild c
        c = rng.normal(size=33) + 1j * rng.normal(size=33)
        weights, _ = _profile_factors(16)
        residual = np.where(wavenumbers(16) == 0, c, 0.0)
        assert np.abs(residual + (weights * c).sum(axis=0) - c).max() < 1e-15

    # A norm report is one row of norm_table: the snapshot's time and its
    # s_norm, z1, z2 and Wiener values, sharing one stacked block profile.

    def test_norm_report_bundle(self, rng):
        from peskin2d.norms import _profile, norm_table
        c = random_y_modes(rng, 16, amp=0.1)
        (row,) = norm_table(c[None], [0.5])
        assert row[0] == 0.5
        assert row[1] == pytest.approx(s_norm(c), rel=1e-14)
        assert row[2] == pytest.approx(z1_weight(c, 0.5), rel=1e-14)
        assert row[4] == pytest.approx(wiener_snapshot(c, 0.5), rel=1e-14)
        assert np.all(_profile(c[None]) >= 0)

    @pytest.mark.parametrize("t", [0.0, 0.02, 1.5])
    def test_norm_report_equals_single_diagnostics(self, rng, t):
        # measure-norms writes the report's values with repr(), so sharing
        # the block profile must not move a single bit
        from peskin2d.norms import _profile, norm_table
        c = random_y_modes(rng, 64, amp=0.1)
        (row,) = norm_table(c[None], [t])
        assert row == [t, s_norm(c), z1_weight(c, t), z2_weight(c, t),
                       wiener_snapshot(c, t)]
        assert np.array_equal(_profile(c[None])[0], block_l2_profile(c))

    def test_norm_table_equals_norm_report_row_by_row(self, rng):
        # measure-norms writes the table with repr(): every report value must
        # be its single-diagnostic function's to the bit, including z2 = inf
        # at t = 0 and 0 for the zero snapshot, and each a Python float
        from peskin2d.norms import TABLE_CHUNK, norm_table
        S = 2 * TABLE_CHUNK + 5
        snaps = np.stack([random_y_modes(rng, 64, amp=a) for a in np.geomspace(1e-4, 1e-1, S)])
        snaps[1] = 0.0
        times = np.concatenate(([0.0, 0.0], np.cumsum(rng.uniform(0.001, 0.5, S - 2))))
        table = norm_table(snaps, times)
        assert len(table) == S
        for row, c, t in zip(table, snaps, times):
            assert row == [t, s_norm(c), z1_weight(c, t), z2_weight(c, t),
                           wiener_snapshot(c, t)]
            assert all(type(v) is float for v in row)
        assert table[0][3] == float("inf") and table[1][3] == 0.0

    @pytest.mark.parametrize("snaps, times", [
        (np.zeros((3, 9)), [0.0, 0.1, -0.1]),
        (np.zeros((3, 9)), [0.0, 0.1]),
        (np.zeros((3, 8)), [0.0, 0.1, 0.2]),
        (np.zeros(9), [0.0]),
    ], ids=["negative-time", "times-short", "even-rows", "one-dimensional"])
    def test_norm_table_rejects(self, snaps, times):
        from peskin2d.errors import ConfigError
        from peskin2d.norms import norm_table
        with pytest.raises(ConfigError):
            norm_table(snaps, times)

    def test_parseval_vs_grid_quadrature(self, rng):
        c = random_y_modes(rng, 16, amp=0.7)
        block = _profile_factors(16)[0][2] * c
        M = 256
        k = np.arange(-16, 17)
        sgrid = 2 * np.pi * np.arange(M) / M
        vals = np.exp(1j * np.outer(sgrid, k)) @ block
        quad = np.sqrt(np.sum(np.abs(vals) ** 2) * 2 * np.pi / M)
        assert quad == pytest.approx(l2_norm(block), rel=1e-12)


class TestSNorm:
    def test_zero(self):
        assert s_norm(np.zeros(17, complex)) == 0.0

    def test_single_mode_closed_form(self):
        eps = 1e-3
        c = single_mode(8, 2, eps)
        # derivative sup = 2 eps; block n=1 holds mode 2 with weight 1
        want = 2 * eps + 2.0 ** 1.5 * np.sqrt(2 * np.pi) * eps
        assert s_norm(c) == pytest.approx(want, rel=1e-12)

    def test_monotone_under_truncation_growth(self, rng):
        c = random_y_modes(rng, 8, amp=0.4)
        bigger = np.zeros(65, complex)
        bigger[32 - 8:32 + 9] = c
        assert s_norm(bigger) >= s_norm(c) - 1e-13
        assert wiener_snapshot(bigger, 0.3) >= wiener_snapshot(c, 0.3) - 1e-13


class TestTimeWeights:
    def test_z1_at_zero_equals_s_norm(self, rng):
        c = random_y_modes(rng, 16, amp=0.2)
        assert z1_weight(c, 0.0) == pytest.approx(s_norm(c), rel=1e-14)

    def test_z1_bounded_for_heat_like_decay(self):
        # per-block amplitude e^{-2^n t} keeps every weighted term bounded:
        # (1 + 2^n t)^{2/3} e^{-2^n t} <= 1 for all t
        K = 64
        k = np.arange(-K, K + 1)
        base = np.zeros(2 * K + 1, complex)
        for n in range(1, 6):
            base[K + 2 ** n] = 2.0 ** (-1.5 * n)  # flat block profile
        cap = z1_weight(base, 0.0) * 1.01
        for t in (0.0, 0.05, 0.3, 1.0, 4.0):
            c = np.array(base)
            for n in range(1, 6):
                c[K + 2 ** n] *= np.exp(-2.0 ** n * t)
            assert z1_weight(c, t) <= cap

    def test_z2_dominates_z1_blocks(self, rng):
        # per block the z2 weight exceeds the z1 weight by ((1+x)/x)^{1/3} >= 1
        c = random_y_modes(rng, 16, amp=0.1)
        for t in (0.01, 0.1, 1.0, 10.0):
            prof = block_l2_profile(c)
            n = np.arange(prof.size)
            x = 2.0 ** n * t
            z1_blocks = ((1 + x) ** (2 / 3) * prof).max()
            assert z2_weight(c, t) >= z1_blocks - 1e-13

    def test_z2_at_zero(self, rng):
        assert z2_weight(np.zeros(9, complex), 0.0) == 0.0
        assert z2_weight(single_mode(4, 2), 0.0) == np.inf

    def test_z2_z1_ordering_single_mode_oracle(self):
        # single mode k = 2^j sits alone in block j, so both weights have
        # closed forms; the ordering constant c comes from those formulas
        eps = 1e-3
        K = 64
        for j in (1, 2, 4, 5):
            k = 2 ** j
            for t in (0.01, 0.1, 1.0, 10.0):
                c = single_mode(K, k, eps)
                blk = 2.0 ** (1.5 * j) * np.sqrt(2 * np.pi) * eps
                z1_closed = (1 + t) ** (2 / 3) * k * eps \
                    + (1 + k * t) ** (2 / 3) * blk
                z2_closed = (k * t) ** (-1 / 3) * (1 + k * t) * blk
                assert z1_weight(c, t) == pytest.approx(z1_closed, rel=1e-12)
                assert z2_weight(c, t) == pytest.approx(z2_closed, rel=1e-12)
                assert z2_weight(c, t) >= (z2_closed / z1_closed) \
                    * z1_weight(c, t) * (1 - 1e-12)


class TestWiener:
    def test_zero(self):
        assert wiener_snapshot(np.zeros(11, complex), 1.0) == 0.0

    def test_single_mode_t0(self):
        eps = 2e-4
        assert wiener_snapshot(single_mode(8, 2, eps), 0.0) \
            == pytest.approx(4 * eps, rel=1e-14)

    def test_hand_sum(self):
        # two modes, t = 1: total = 2e + 3e'; shells checked by hand
        c = np.zeros(17, complex)
        c[8 + 2] = 1e-3   # |k| = 2 shells m = 0, 1, 2
        c[8 - 3] = 2e-3   # |k| = 3 shells m = 1, 2
        total = 2 * 1e-3 + 3 * 2e-3
        w2 = 2 * 1e-3 * (1 + 2) ** (2 / 3)
        w3 = 3 * 2e-3 * (1 + 3) ** (2 / 3)
        shell = max(w2, w2 + w3)  # m = 0: only |k|=2; m in {1,2}: both
        assert wiener_snapshot(c, 1.0) == pytest.approx(total + shell, rel=1e-13)

    def test_n_norm_product_property(self, rng):
        # convolution bound: |C|_N <= C_fit |A|_N |B|_N with a stable constant
        times = np.array([0.0, 0.1, 1.0, 10.0])
        ratios = []
        for trial in range(50):
            K = 24
            a = random_y_modes(rng, K, decay=rng.uniform(1.2, 2.5), amp=1.0)
            b = random_y_modes(rng, K, decay=rng.uniform(1.2, 2.5), amp=1.0)
            a /= n_norm(a, times)
            b /= n_norm(b, times)
            conv = convolve_coeffs(np.abs(a), np.abs(b))
            ratios.append(n_norm(conv, times))
        half = max(ratios[:25])
        full = max(ratios)
        assert np.isfinite(full)
        assert full <= 1.5 * half  # refinement-stable within 50%


class TestZ1Algebra:
    def test_zero_factor(self, rng):
        t_grid = [0.0, 0.5]
        y1 = [random_y_modes(rng, 8, amp=0.1) for _ in t_grid]
        y2 = [np.zeros(17, complex) for _ in t_grid]
        assert z1_algebra_check(y1, y2, t_grid) == 0.0

    def test_two_block_family(self):
        # families eps e^{-2^{n_i} t} e^{i 2^{n_i} s}: ratio finite and recorded
        K = 64
        t_grid = np.linspace(0.0, 2.0, 9)
        n1, n2 = 2, 5
        y1 = [single_mode(K, 2 ** n1, 1e-2 * np.exp(-2.0 ** n1 * t)) for t in t_grid]
        y2 = [single_mode(K, 2 ** n2, 1e-2 * np.exp(-2.0 ** n2 * t)) for t in t_grid]
        ratio = z1_algebra_check(y1, y2, t_grid)
        assert 0 < ratio < 10.0

    def test_random_family_stability(self, rng):
        t_grid = np.array([0.0, 0.2, 1.0, 3.0])
        ratios = []
        for trial in range(30):
            K = 16
            amps = rng.uniform(0.5, 2.0, size=2)
            rates = 2.0 ** rng.integers(0, 4, size=2)
            base1 = random_y_modes(rng, K, decay=2.0, amp=amps[0])
            base2 = random_y_modes(rng, K, decay=2.0, amp=amps[1])
            y1 = [base1 * np.exp(-rates[0] * t) for t in t_grid]
            y2 = [base2 * np.exp(-rates[1] * t) for t in t_grid]
            ratios.append(z1_algebra_check(y1, y2, t_grid))
        half, full = max(ratios[:15]), max(ratios)
        assert np.isfinite(full)
        assert full <= 1.5 * half
