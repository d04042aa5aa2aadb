"""Parameter types, validation, and the Gaussian tail function."""
import math

import numpy as np
import pytest
from scipy import special

from pmtcount import (ChannelParams, ReceiverConfig, derive_params,
                      gaussian_q, gen_arrivals, moments_full,
                      subpoisson_moments, subpoisson_pmf)

# Frozen high-precision reference values (computed with an independent
# arbitrary-precision erfc oracle before the build).
Q_AT_1 = 0.15865525393145705
Q_AT_3_5 = 2.3262907903552504e-4
Q_AT_4_5 = 3.3976731247300603e-6


class TestGaussianQ:
    def test_symmetry_at_zero(self):
        assert gaussian_q(0.0) == 0.5

    def test_far_tail_clamps_to_zero(self):
        assert gaussian_q(40.0) == 0.0

    def test_reference_value(self):
        assert gaussian_q(1.0) == pytest.approx(Q_AT_1, rel=1e-12)

    def test_reflection_identity_on_grid(self):
        x = np.linspace(-8.0, 8.0, 1000)
        total = gaussian_q(x) + gaussian_q(-x)
        assert np.all(np.abs(total - 1.0) <= 1e-12)

    def test_monotone_decreasing(self):
        x = np.linspace(-8.0, 8.0, 200)
        q = gaussian_q(x)
        assert np.all(np.diff(q) < 0.0)

    def test_scalar_and_array_agree(self):
        # One implementation: an array gives bitwise its elements' values.
        x = np.concatenate([np.linspace(-40.0, 40.0, 4001),
                            [0.0, -0.0, 5e-324, 1e300, np.inf, -np.inf]])
        q = gaussian_q(x.reshape(-1, 1)).ravel()
        assert q.tobytes() == np.array([gaussian_q(v) for v in x]).tobytes()
        assert gaussian_q(np.array(1.0)).shape == ()

    def test_matches_scipy_erfc(self):
        x = np.linspace(-8.0, 8.0, 1601)
        ref = 0.5 * special.erfc(x / math.sqrt(2.0))
        assert np.allclose(gaussian_q(x), ref, rtol=1e-14, atol=0.0)


class TestReceiverConfig:
    def test_sample_count(self):
        cfg = ReceiverConfig(T=0.01, tau=0.02, xi=0.3)
        assert cfg.n_samples == 100

    @pytest.mark.parametrize("kwargs", [
        dict(T=0.0, tau=0.02, xi=0.3),
        dict(T=0.003, tau=0.02, xi=0.3),   # 1/T not an integer
        dict(T=0.01, tau=0.0, xi=0.3),
        dict(T=0.01, tau=1.0, xi=0.3),
        dict(T=0.01, tau=0.02, xi=0.0),
        dict(T=0.01, tau=0.02, xi=0.3, sigma=-0.1),
        dict(T=0.01, tau=0.02, xi=0.3, sigma0=-0.1),
    ])
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            ReceiverConfig(**kwargs)


class TestChannelParams:
    def test_signal_rate(self):
        assert ChannelParams(lambda0=1.0, lambda1=12.0).lambda_s == 11.0

    @pytest.mark.parametrize("kwargs", [
        dict(lambda0=-1.0, lambda1=10.0),
        dict(lambda0=5.0, lambda1=1.0),
        dict(lambda0=0.0, lambda1=0.0),
    ])
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            ChannelParams(**kwargs)


class TestDeriveParams:
    def test_reference_operating_point(self):
        cfg = ReceiverConfig(T=0.01, tau=0.01, xi=0.3, sigma=0.2, sigma0=0.02)
        d = derive_params(cfg)
        assert d.alpha == 1
        assert d.delta == pytest.approx(0.0, abs=1e-15)
        assert d.q == pytest.approx(Q_AT_3_5, rel=1e-12)
        assert d.p < 1e-50  # Q(15) is vanishingly small

    def test_zero_thermal_noise_gives_p_zero(self):
        cfg = ReceiverConfig(T=0.01, tau=0.01, xi=0.3, sigma0=0.0)
        assert derive_params(cfg).p == 0.0

    def test_zero_shot_noise_gives_q_zero(self):
        cfg = ReceiverConfig(T=0.01, tau=0.01, xi=0.3, sigma=0.0)
        assert derive_params(cfg).q == 0.0

    def test_fractional_dead_time(self):
        cfg = ReceiverConfig(T=0.01, tau=0.035, xi=0.3)
        d = derive_params(cfg)
        assert d.alpha == 3
        assert d.delta == pytest.approx(0.005, rel=1e-9)

    def test_alpha_delta_reconstruct_tau(self):
        for tau in np.linspace(0.005, 0.3, 60):
            cfg = ReceiverConfig(T=0.01, tau=float(tau), xi=0.3)
            d = derive_params(cfg)
            assert d.alpha * cfg.T + d.delta == pytest.approx(tau, rel=1e-12)
            assert 0.0 <= d.delta < cfg.T * (1.0 + 1e-9)

    def test_exact_multiple_keeps_alpha_up(self):
        # tau = 3T must land on (alpha=3, delta=0) even when tau/T is
        # slightly below 3 in floating point.
        cfg = ReceiverConfig(T=0.01, tau=0.03, xi=0.3)
        d = derive_params(cfg)
        assert d.alpha == 3
        assert d.delta == pytest.approx(0.0, abs=1e-14)

    def test_pure(self):
        cfg = ReceiverConfig(T=0.01, tau=0.02, xi=0.3, sigma=0.2, sigma0=0.02)
        assert derive_params(cfg) == derive_params(cfg)

    def test_config_derives_once(self):
        # cfg.derived is derive_params(cfg), kept by the config that made
        # it and invisible to its equality and hash.
        cfg = ReceiverConfig(T=0.01, tau=0.035, xi=0.3, sigma=0.2,
                             sigma0=0.02)
        twin = ReceiverConfig(T=0.01, tau=0.035, xi=0.3, sigma=0.2,
                              sigma0=0.02)
        assert cfg.derived == derive_params(cfg)
        assert cfg.derived is cfg.derived
        assert cfg == twin and hash(cfg) == hash(twin)


@pytest.mark.parametrize("build", [
    lambda: ReceiverConfig(T=0.01, tau=0.02, xi=math.nan),
    lambda: ReceiverConfig(T=0.01, tau=0.02, xi=math.inf),
    lambda: ReceiverConfig(T=0.01, tau=0.02, xi=0.3, sigma=math.nan),
    lambda: ReceiverConfig(T=0.01, tau=0.02, xi=0.3, sigma0=math.inf),
    lambda: ChannelParams(0.0, math.inf),
    lambda: ChannelParams(math.nan, 12.0),
    lambda: ChannelParams(1.0, math.nan),
    lambda: subpoisson_pmf(math.nan, 0.01),
    lambda: subpoisson_moments(math.inf, 0.01),
    lambda: moments_full(math.nan, ReceiverConfig(T=0.01, tau=0.02, xi=0.3)),
    lambda: gen_arrivals(math.inf, np.random.default_rng(0)),
], ids=["xi_nan", "xi_inf", "sigma_nan", "sigma0_inf", "lambda1_inf",
        "lambda0_nan", "lambda1_nan", "pmf_nan", "subpoisson_moments_inf",
        "moments_full_nan", "gen_arrivals_inf"])
def test_nonfinite_parameters_rejected(build):
    with pytest.raises(ValueError):
        build()
