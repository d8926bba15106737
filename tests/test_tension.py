import warnings

import numpy as np
import pytest

from peskin2d import (ConfigError, TensionDomainError, TensionLaw, cubic,
                      hookean, law_from_config, linear_coefficients, power,
                      small_t, small_t_prime)


def central_diff(fn, r, h=1e-6):
    return (fn(r + h) - fn(r - h)) / (2 * h)


class TestSmallT:
    def test_hookean_is_constant(self):
        assert small_t(hookean(), 2.0) == pytest.approx(1.0, abs=0)

    def test_cubic_at_one(self):
        # (1 + 1)/1
        assert small_t(cubic(c=1.0), 1.0) == pytest.approx(2.0, rel=1e-15)

    def test_power_half(self):
        assert small_t(power(p=2.0), 0.5) == pytest.approx(0.5, rel=1e-15)

    def test_domain_errors(self):
        law = hookean()
        with pytest.raises(TensionDomainError):
            small_t(law, -1.0)
        with pytest.raises(TensionDomainError):
            small_t(law, 3.0)  # outside default [0.5, 2]

    def test_non_finite_stretch_rejected(self):
        # NaN compares False against both interval ends
        law = hookean()
        with pytest.raises(TensionDomainError, match="finite"):
            law.check_domain(np.array([1.0, np.nan]))
        with pytest.raises(TensionDomainError, match="finite"):
            linear_coefficients(law, complex(np.nan, 0.0))


class TestCheckDomain:
    # every check reads one min and one max; the messages are the ones of
    # the per-element checks they replaced
    @pytest.mark.parametrize("r, message", [
        ([1.0, np.nan, 1.5], "stretch must be finite, got 1 non-finite value(s)"),
        ([1.0, np.inf], "stretch must be finite, got 1 non-finite value(s)"),
        ([-np.inf, np.nan, 1.0], "stretch must be finite, got 2 non-finite value(s)"),
        ([1.0, 0.0], "stretch must be positive, got 0.0"),
        ([-1.0, 1.0], "stretch must be positive, got -1.0"),
        ([0.4, 1.0], "stretch in [0.4, 1] leaves the validity interval [0.5, 2.0] "
                     "of 'hookean(k0=1.0)'"),
        ([1.0, 2.5], "stretch in [1, 2.5] leaves the validity interval [0.5, 2.0] "
                     "of 'hookean(k0=1.0)'"),
        (0.49999999999999994, "stretch in [0.5, 0.5] leaves the validity interval "
                              "[0.5, 2.0] of 'hookean(k0=1.0)'"),
    ], ids=["nan", "inf", "two-non-finite", "zero", "negative", "below", "above",
            "just-below"])
    def test_rejections_keep_their_messages(self, r, message):
        with pytest.raises(TensionDomainError) as exc:
            hookean().check_domain(np.array(r))
        assert str(exc.value) == message

    @pytest.mark.parametrize("r", [0.5, 2.0, [0.5, 2.0], [2.0, 1.0, 0.5], []])
    def test_interval_ends_accepted(self, r):
        assert hookean().check_domain(np.array(r)) is None

    def test_infinite_stretch_rejected_under_infinite_r_max(self):
        law = TensionLaw(lambda r: r, lambda r: np.ones_like(r), "open",
                         r_max=np.inf, check_positivity=False)
        law.check_domain(np.array([1.0, 1e300]))
        with pytest.raises(TensionDomainError, match="must be finite"):
            law.check_domain(np.array([1.0, np.inf]))


class TestSmallTPrime:
    def test_hookean_is_zero(self):
        assert small_t_prime(hookean(), 1.3) == pytest.approx(0.0, abs=0)

    def test_cubic_at_one(self):
        # (1 + 3)/1 - 2/1
        assert small_t_prime(cubic(c=1.0), 1.0) == pytest.approx(2.0, rel=1e-14)

    def test_power_square_at_two(self):
        # tau = r^2: T(r) = r so T' = 1 everywhere; oracle = central difference
        law = power(p=2.0, r_max=2.5)
        oracle = central_diff(lambda r: small_t(law, r), 2.0)
        val = small_t_prime(law, 2.0)
        assert val == pytest.approx(1.0, rel=1e-14)
        assert val == pytest.approx(oracle, rel=1e-8)

    @pytest.mark.parametrize("law_fn", [hookean, cubic, lambda: power(p=1.7)])
    @pytest.mark.parametrize("r", [0.6, 0.9, 1.0, 1.4, 1.9])
    def test_matches_central_difference(self, law_fn, r):
        law = law_fn()
        oracle = central_diff(lambda x: small_t(law, x), r)
        assert small_t_prime(law, r) == pytest.approx(oracle, rel=1e-6, abs=1e-10)


class TestLinearCoefficients:
    def test_hookean_trivial(self):
        co = linear_coefficients(hookean(), 0.0)
        assert (co.A, co.B, co.b_tilde, co.tension_deriv) == (1.0, 0.0, 0.0, 1.0)

    def test_cubic_origin(self):
        co = linear_coefficients(cubic(c=1.0), 0.0)
        assert co.A == pytest.approx(2.0, rel=1e-15)
        assert co.B == pytest.approx(2.0, rel=1e-15)
        assert co.b_tilde == pytest.approx(2.0, rel=1e-15)
        assert co.tension_deriv == pytest.approx(4.0, rel=1e-15)

    def test_cubic_offset(self):
        co = linear_coefficients(cubic(c=1.0), 0.1)
        assert co.tension_deriv == pytest.approx(1 + 3 * 1.1 ** 2, rel=1e-14)

    @pytest.mark.parametrize("law_fn", [hookean, cubic, lambda: power(p=2.5)])
    @pytest.mark.parametrize("a1", [0.0, 0.1, 0.1j, -0.05 + 0.2j, 0.3])
    def test_identity_and_positivity(self, law_fn, a1):
        law = law_fn()
        co = linear_coefficients(law, a1)
        direct = float(law.derivative(np.array(abs(1 + a1))))
        assert co.A + co.b_tilde == pytest.approx(direct, rel=1e-12)
        assert co.tension_deriv > 0
        assert co.A > 0

    def test_domain_error_far_from_circle(self):
        with pytest.raises(TensionDomainError):
            linear_coefficients(hookean(), 1.5)  # |1+a1| = 2.5 > r_max


class TestLawConstruction:
    def test_positivity_gate(self):
        with pytest.raises(ConfigError):
            TensionLaw(lambda r: 2 * r - r ** 2, lambda r: 2 - 2 * r, "bad",
                       r_min=0.5, r_max=2.0)

    def test_infinite_interval_rejected(self):
        # linspace(0.5, inf, 256) is [nan, inf, ...]: no grid, so no check
        with pytest.raises(ConfigError, match="infinite interval"):
            hookean(r_max=np.inf)

    def test_overflow_fails_the_gate(self):
        # r^3 overflows long before r_max = 1e200, and tau = inf is no tension;
        # the gate says so without a RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match="finite tau"):
                cubic(r_max=1e200)
            law = cubic(r_max=1e200, check_positivity=False)
            assert law.positivity_failures()[-1] == 1e200

    def test_diagnostic_mode_reports_failures(self):
        law = TensionLaw(lambda r: 2 * r - r ** 2, lambda r: 2 - 2 * r, "bad",
                         r_min=0.5, r_max=2.0, check_positivity=False)
        bad = law.positivity_failures()
        assert bad.size > 0
        assert np.all(bad >= 0.999)  # tau' = 2 - 2r <= 0 exactly for r >= 1

    def test_from_config(self):
        law = law_from_config({"law": "cubic", "c": 2.0})
        assert small_t(law, 1.0) == pytest.approx(3.0, rel=1e-15)
        with pytest.raises(ConfigError):
            law_from_config({"law": "exotic"})
        with pytest.raises(ConfigError):
            law_from_config({"no_law_key": 1})

    def test_fd_consistency_has_teeth(self):
        # a mismatched derivative is visible to the finite-difference oracle
        law = TensionLaw(lambda r: np.asarray(r, float),
                         lambda r: 2.0 * np.ones_like(np.asarray(r, float)),
                         "inconsistent")
        oracle = central_diff(lambda x: small_t(law, x), 1.2)
        assert abs(small_t_prime(law, 1.2) - oracle) > 0.1
