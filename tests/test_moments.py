"""Analytic count moments and the binomial approximation."""
import math

import numpy as np
import pytest

from pmtcount import (ApproximationBreakdownError, BinomialApprox,
                      ReceiverConfig, Regime, binomial_approx, derive_params,
                      fit_binomial, moments_approx_noiseless,
                      moments_exact_noiseless, moments_full, moments_shot)

# Frozen high-precision reference values.
MEAN_EXACT_T_GT_TAU = 4.639200646475444   # e^{-0.05}(1 - e^{-0.05})/0.01
MEAN_APPROX_T_LE_TAU = 7.788007830714049  # 10 e^{-0.25}
Q_AT_3_5 = 2.3262907903552504e-4


class TestExactNoiseless:
    def test_zero_rate(self):
        cfg = ReceiverConfig(T=0.01, tau=0.02, xi=0.3)
        m = moments_exact_noiseless(0.0, cfg)
        assert m.mean == 0.0 and m.variance == 0.0

    @pytest.mark.parametrize("lam", [1e-136, 5e-324])
    def test_rate_below_float_resolution(self, lam):
        # 1 - e^{-lam T} rounds to 0 here, as the mean does; the adjacent-
        # window ratio must not divide by it.
        cfg = ReceiverConfig(T=0.0078125, tau=0.3, xi=0.3)
        m = moments_exact_noiseless(lam, cfg)
        assert m.mean == 0.0 and m.variance == 0.0

    def test_fast_sampling_reference(self):
        cfg = ReceiverConfig(T=0.01, tau=0.005, xi=0.3)
        m = moments_exact_noiseless(10.0, cfg)
        assert m.regime is Regime.T_GT_TAU
        assert m.mean == pytest.approx(MEAN_EXACT_T_GT_TAU, rel=1e-12)

    def test_variance_positive_and_sub_poisson(self):
        for tau in (0.005, 0.01, 0.02, 0.035):
            cfg = ReceiverConfig(T=0.01, tau=tau, xi=0.3)
            m = moments_exact_noiseless(10.0, cfg)
            assert 0.0 < m.variance <= m.mean


class TestApproxNoiseless:
    def test_slow_pulse_equivalents(self):
        cfg = ReceiverConfig(T=0.01, tau=0.02, xi=0.3)
        m = moments_approx_noiseless(10.0, cfg)
        assert m.lambda_equiv == pytest.approx(10.0, rel=1e-12)
        assert m.tau_equiv == pytest.approx(0.025, rel=1e-12)
        assert m.mean == pytest.approx(MEAN_APPROX_T_LE_TAU, rel=1e-12)

    def test_fast_sampling_equivalents(self):
        cfg = ReceiverConfig(T=0.01, tau=0.005, xi=0.3)
        m = moments_approx_noiseless(10.0, cfg)
        assert m.lambda_equiv == pytest.approx(5.0, rel=1e-12)
        assert m.tau_equiv == pytest.approx(0.015, rel=1e-12)

    def test_close_to_exact(self):
        cfg = ReceiverConfig(T=0.01, tau=0.01, xi=0.3)
        exact = moments_exact_noiseless(10.0, cfg)
        approx = moments_approx_noiseless(10.0, cfg)
        assert approx.mean == pytest.approx(exact.mean, rel=0.01)

    def test_validity_flag(self):
        cfg = ReceiverConfig(T=0.01, tau=0.1, xi=0.3)
        assert not moments_approx_noiseless(40.0, cfg).approx_valid
        assert moments_approx_noiseless(4.0, cfg).approx_valid


class TestShot:
    def test_reduces_to_noiseless_at_q_zero(self):
        cfg = ReceiverConfig(T=0.01, tau=0.02, xi=0.3, sigma=0.0)
        m = moments_shot(10.0, cfg)
        ref = moments_approx_noiseless(10.0, cfg)
        assert m.mean == ref.mean and m.variance == ref.variance

    def test_thinned_rate(self):
        cfg = ReceiverConfig(T=0.01, tau=0.02, xi=0.3, sigma=0.2)
        m = moments_shot(10.0, cfg)
        assert m.lambda_equiv == pytest.approx(10.0 * (1.0 - Q_AT_3_5),
                                               rel=1e-9)


class TestFull:
    def test_reduces_to_noiseless_when_clean(self):
        # With p = q = 0 the mean collapses to the exact noiseless mean
        # and the variance to the small-dead-time sub-Poisson form.
        cfg = ReceiverConfig(T=0.01, tau=0.02, xi=0.3)
        m = moments_full(10.0, cfg)
        exact = moments_exact_noiseless(10.0, cfg)
        approx = moments_approx_noiseless(10.0, cfg)
        assert m.mean == pytest.approx(exact.mean, rel=1e-12)
        assert m.variance == pytest.approx(
            m.mean - 2.0 * m.tau_equiv * m.mean ** 2, rel=1e-12)
        assert m.variance == pytest.approx(approx.variance, rel=1e-3)

    def test_thermal_terms_vanish_at_matched_dead_time(self):
        # tau = T gives alpha=1, delta=0, so the variance collapses to
        # mean - 3T mean^2 regardless of sigma0.
        cfg = ReceiverConfig(T=0.01, tau=0.01, xi=0.3, sigma=0.2, sigma0=0.02)
        m = moments_full(10.0, cfg)
        assert m.variance == pytest.approx(
            m.mean - 3.0 * cfg.T * m.mean ** 2, rel=1e-12)

    def test_degenerate_dark_channel(self):
        cfg = ReceiverConfig(T=0.01, tau=0.02, xi=0.3, sigma0=0.0)
        m = moments_full(0.0, cfg)
        assert m.mean == 0.0 and m.variance == 0.0

    def test_zero_rate_without_thermal_noise_is_invalid(self):
        # No signal and no thermal crossings: the count is 0 and no
        # moment-matched model exists, as in the other regimes.
        cfg = ReceiverConfig(T=0.01, tau=0.02, xi=0.3)
        m = moments_full(0.0, cfg)
        assert (m.mean, m.variance, m.lambda_equiv) == (0.0, 0.0, 0.0)
        assert not m.approx_valid

    def test_noiseless_fast_sampling_matches_exact(self):
        # With sigma = sigma0 = 0 and T > tau the full model reduces to
        # the exact noiseless moments.
        for T in (0.01, 0.02, 0.05, 0.1):
            for tau in T * np.array([0.1, 0.35, 0.5, 0.9]):
                cfg = ReceiverConfig(T=T, tau=float(tau), xi=0.3)
                for lam in (0.0, 0.5, 3.0, 12.0, 40.0):
                    full = moments_full(lam, cfg)
                    exact = moments_exact_noiseless(lam, cfg)
                    assert full.regime is Regime.T_GT_TAU
                    assert full.mean == exact.mean
                    assert full.variance == pytest.approx(
                        exact.variance, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("fn", [moments_exact_noiseless,
                                    moments_approx_noiseless, moments_shot,
                                    moments_full])
    def test_rejects_negative_rate(self, fn):
        cfg = ReceiverConfig(T=0.01, tau=0.02, xi=0.3)
        with pytest.raises(ValueError):
            fn(-1.0, cfg)

    @pytest.mark.parametrize("fn", [moments_exact_noiseless,
                                    moments_approx_noiseless])
    def test_noiseless_models_invalid_above_unit_threshold(self, fn):
        # A lone unit pulse reaches xi <= 1 only; above it, crossings
        # need piled-up pulses, which the noiseless models do not count.
        def valid(xi):
            cfg = ReceiverConfig(T=0.01, tau=0.02, xi=xi)
            return fn(10.0, cfg).approx_valid
        assert valid(1.0)
        assert not valid(1.5)


class TestBinomialApprox:
    def test_matched_dead_time_collapses_regimes(self):
        cfg = ReceiverConfig(T=0.01, tau=0.01, xi=0.3, sigma=0.2, sigma0=0.02)
        d = derive_params(cfg)
        m = moments_full(10.0, cfg)
        b = binomial_approx(m, d)
        assert b.N == pytest.approx(1.0 / (3.0 * cfg.T), rel=1e-12)
        assert b.P == pytest.approx(3.0 * cfg.T * m.mean, rel=1e-12)

    def test_fast_sampling_form(self):
        # T > tau: tau' = 3T/2, with no thermal correction.
        cfg = ReceiverConfig(T=0.02, tau=0.005, xi=0.3, sigma=0.2,
                             sigma0=0.02)
        m = moments_full(10.0, cfg)
        b = binomial_approx(m, derive_params(cfg))
        assert b.N == pytest.approx(1.0 / (3.0 * cfg.T), rel=1e-12)
        assert b.P == pytest.approx(3.0 * cfg.T * m.mean, rel=1e-12)

    def test_no_thermal_noise_form(self):
        cfg = ReceiverConfig(T=0.01, tau=0.02, xi=0.3, sigma=0.2, sigma0=0.0)
        d = derive_params(cfg)
        m = moments_full(10.0, cfg)
        b = binomial_approx(m, d)
        tau_eq = m.tau_equiv
        assert b.N == pytest.approx(1.0 / (2.0 * tau_eq), rel=1e-12)
        assert b.P == pytest.approx(2.0 * tau_eq * m.mean, rel=1e-12)

    def test_mean_preserved_exactly(self):
        for tau in (0.01, 0.02, 0.035):
            cfg = ReceiverConfig(T=0.01, tau=tau, xi=0.3, sigma=0.2,
                                 sigma0=0.02)
            m = moments_full(10.0, cfg)
            b = binomial_approx(m, derive_params(cfg))
            assert b.mean == pytest.approx(m.mean, rel=1e-12)
            assert b.N > m.mean

    def test_rejects_zero_mean(self):
        cfg = ReceiverConfig(T=0.01, tau=0.02, xi=0.3)
        with pytest.raises(ApproximationBreakdownError):
            binomial_approx(moments_full(0.0, cfg), derive_params(cfg))

    def test_rejects_dominant_thermal_correction(self):
        # Heavy thermal noise with a long dead time drives the correction
        # bracket past 1, where no binomial matches the moments.
        cfg = ReceiverConfig(T=0.01, tau=0.105, xi=0.1, sigma0=0.1)
        m = moments_full(0.1, cfg)
        with pytest.raises(ApproximationBreakdownError):
            binomial_approx(m, derive_params(cfg))


class TestFitBinomial:
    def test_round_trip(self):
        b = BinomialApprox(N=31.5, P=0.27)
        fit = fit_binomial(b.mean, b.variance)
        assert fit.N == pytest.approx(b.N, rel=1e-12)
        assert fit.P == pytest.approx(b.P, rel=1e-12)

    @pytest.mark.parametrize("var", [0.0, -1.0, 5.0, 7.5, math.nan])
    def test_rejects_non_sub_poisson(self, var):
        with pytest.raises(ApproximationBreakdownError):
            fit_binomial(5.0, var)
