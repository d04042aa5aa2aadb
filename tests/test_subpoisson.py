"""Ideal dead-time counting distribution, moments, and moment inversion."""
import hashlib
import math

import numpy as np
import pytest

from pmtcount import (SeriesBreakdownError, invert_moments,
                      subpoisson_moments, subpoisson_pmf)

# Frozen high-precision reference values at (lambda=10, tau=0.01).
MEAN_10_001 = 9.048374180359596   # 10 e^{-0.1}
VAR_10_001 = 7.419099981734412    # mean - (1 - 0.99^2) mean^2


class TestPmf:
    def test_zero_rate(self):
        dist = subpoisson_pmf(0.0, 0.1)
        assert dist.pmf[0] == 1.0
        assert np.all(dist.pmf[1:] == 0.0)

    def test_support_bound(self):
        dist = subpoisson_pmf(10.0, 0.01)
        assert dist.M == 101
        assert dist.pmf.size == dist.M + 1

    def test_mean_matches_closed_form(self):
        dist = subpoisson_pmf(10.0, 0.01)
        assert dist.mean() == pytest.approx(MEAN_10_001, rel=1e-4)

    def test_variance_matches_closed_form(self):
        dist = subpoisson_pmf(10.0, 0.01)
        assert dist.variance() == pytest.approx(VAR_10_001, rel=1e-3)

    def test_normalization_on_grid(self):
        for tau in (0.005, 0.02, 0.05):
            for lam in (0.5, 5.0, 10.0):
                dist = subpoisson_pmf(lam, tau)
                assert abs(dist.pmf.sum() - 1.0) <= 1e-6
                assert np.all(dist.pmf >= 0.0)

    def test_rejects_large_lambda_tau(self):
        with pytest.raises(SeriesBreakdownError):
            subpoisson_pmf(60.0, 0.01)

    def test_rejects_cancellation_breakdown(self):
        # lam*tau is within range but the alternating series cancels
        # beyond double precision; this must be reported, not silently
        # renormalized.
        with pytest.raises(SeriesBreakdownError):
            subpoisson_pmf(25.0, 0.01)

    @pytest.mark.parametrize("lam,tau", [(-1.0, 0.01), (10.0, 0.0),
                                         (10.0, 1.0)])
    def test_rejects_invalid(self, lam, tau):
        with pytest.raises(ValueError):
            subpoisson_pmf(lam, tau)


class TestMoments:
    def test_zero_rate(self):
        assert subpoisson_moments(0.0, 0.1) == (0.0, 0.0)

    def test_reference_point(self):
        mean, var = subpoisson_moments(10.0, 0.01)
        assert mean == pytest.approx(MEAN_10_001, rel=1e-12)
        assert var == pytest.approx(VAR_10_001, rel=1e-12)

    def test_sub_poisson_everywhere(self):
        for lam in np.linspace(0.0, 50.0, 26):
            for tau in np.linspace(0.001, 0.1, 12):
                mean, var = subpoisson_moments(float(lam), float(tau))
                assert var <= mean + 1e-12


class TestInvertMoments:
    def test_round_trip(self):
        lam, tau = 10.0, 0.015
        mean = lam * math.exp(-lam * tau)
        var = mean - 2.0 * tau * mean * mean
        lam_fit, tau_fit = invert_moments(mean, var)
        assert lam_fit == pytest.approx(lam, rel=1e-6)
        assert tau_fit == pytest.approx(tau, rel=1e-6)

    def test_poisson_limit(self):
        lam_fit, tau_fit = invert_moments(5.0, 5.0)
        assert tau_fit == 0.0
        assert lam_fit == pytest.approx(5.0, rel=1e-12)

    def test_rejects_super_poisson(self):
        with pytest.raises(ValueError):
            invert_moments(5.0, 6.0)

    @pytest.mark.parametrize("mean,var", [(0.0, 1.0), (1.0, 0.0),
                                          (-1.0, 1.0)])
    def test_rejects_invalid(self, mean, var):
        with pytest.raises(ValueError):
            invert_moments(mean, var)


# SHA-256 of the PMF bytes from the series summed over every order up to
# M: dropping the orders whose terms all underflow to 0.0 moves no bit.
PMF_DIGESTS = {
    (0.5, 0.001):
        "228e6dbac06b8e13847e63dc0a5a5e2517492ff3bda985465982364c3ffe25d1",
    (10.0, 0.002):
        "86d3f2c32b701465f2474321c4de491e07695c85eda8992aca199966a1dc1710",
    (10.0, 0.05):
        "2d9fd9ccf935a4528ebfe4781c9b7c86bad6c9a346312408e2d4b2859e131c10",
}


@pytest.mark.parametrize("lam,tau", PMF_DIGESTS)
def test_pmf_bytes_pinned(lam, tau):
    pmf = subpoisson_pmf(lam, tau).pmf
    assert hashlib.sha256(pmf.tobytes()).hexdigest() == PMF_DIGESTS[lam, tau]
