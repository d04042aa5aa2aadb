"""ML detection rule, thresholds, and error probability."""
import math

import numpy as np
import pytest
from scipy.special import gammaln

from pmtcount import (BinomialApprox, ChannelParams, ReceiverConfig, ber_mc,
                      binomial_approx, build_rule, build_rule_from_fit,
                      classify, derive_params, error_prob_analytic,
                      moments_full, ml_threshold, ml_threshold_general)
from pmtcount import moments
from pmtcount.detector import RENORM_TOL, binom_logpmf, binom_pmf_support

OPERATING_CFG = ReceiverConfig(T=0.01, tau=0.01, xi=0.3, sigma=0.2,
                               sigma0=0.02)


class TestBinomPmf:
    def test_integer_n_matches_exact_binomial(self):
        b = BinomialApprox(N=12.0, P=0.3)
        n = np.arange(13)
        ref = np.array([math.comb(12, k) * 0.3 ** k * 0.7 ** (12 - k)
                        for k in n])
        assert np.allclose(np.exp(binom_logpmf(n, b)), ref, rtol=1e-12)

    @pytest.mark.parametrize("N,P", [(33.3, 0.2), (1.5, 0.5), (4.0, 1e-3),
                                     (1234.56, 0.9)])
    def test_log_gamma_matches_scipy_gammaln(self, N, P):
        n = np.arange(int(N) + 1)
        ref = (gammaln(N + 1.0) - gammaln(n + 1.0) - gammaln(N - n + 1.0)
               + n * math.log(P) + (N - n) * math.log1p(-P))
        got = binom_logpmf(n, BinomialApprox(N=N, P=P))
        scale = gammaln(N + 1.0) + 1.0
        assert np.all(np.abs(got - ref) <= 8.0 * np.finfo(float).eps * scale)

    def test_renormalization_gap_small_at_operating_point(self):
        b0 = binomial_approx(moments_full(1.0, OPERATING_CFG),
                             derive_params(OPERATING_CFG))
        pmf, gap = binom_pmf_support(b0)
        assert gap < RENORM_TOL
        assert pmf.sum() == pytest.approx(1.0, abs=1e-12)

    def test_shared_arrays_are_read_only(self):
        # Every reader gets the same arrays, so none may write to them.
        b = BinomialApprox(N=33.3, P=0.2)
        pmf, _ = binom_pmf_support(b)
        assert binom_pmf_support(b)[0] is pmf
        for shared in (pmf, b.support_logpmf):
            with pytest.raises(ValueError, match="read-only"):
                shared[0] = 1.0
            with pytest.raises(ValueError, match="read-only"):
                shared *= 2.0
        n = np.arange(34)
        assert np.array_equal(b.support_logpmf, binom_logpmf(n, b))
        unnormalized = np.exp(binom_logpmf(n, b))
        assert np.array_equal(pmf, unnormalized / unnormalized.sum())

    def test_rule_and_error_evaluate_each_pmf_once(self, monkeypatch):
        # A ber row's build_rule + error_prob_analytic: one log PMF per
        # hypothesis, shared by the threshold scan and the error sum.
        calls = []

        def counted(n, approx):
            calls.append(approx)
            return binom_logpmf(n, approx)

        monkeypatch.setattr(moments, "binom_logpmf", counted)
        rule = build_rule(ChannelParams(lambda0=1.0, lambda1=12.0),
                          OPERATING_CFG)
        error_prob_analytic(rule)
        assert [id(b) for b in calls] == [id(rule.approx1), id(rule.approx0)]


class TestThreshold:
    def test_closed_form_matches_brute_force(self):
        # At tau = T both binomials have N = 1/(3T), so the closed form
        # must agree with the exhaustive likelihood-ratio scan.
        T = 0.01
        cfg = ReceiverConfig(T=T, tau=T, xi=0.3, sigma=0.2, sigma0=0.02)
        d = derive_params(cfg)
        for lam0, lam1 in [(0.5, 5.0), (1.0, 12.0), (1.0, 20.0), (2.0, 8.0),
                           (0.1, 15.0)]:
            m0 = moments_full(lam0, cfg)
            m1 = moments_full(lam1, cfg)
            b0 = binomial_approx(m0, d)
            b1 = binomial_approx(m1, d)
            assert ml_threshold(m1.mean, m0.mean, T) == \
                ml_threshold_general(b0, b1)

    def test_brute_force_is_llr_sign_flip(self):
        b0 = BinomialApprox(N=33.0, P=0.03)
        b1 = BinomialApprox(N=33.0, P=0.30)
        n_th = ml_threshold_general(b0, b1)
        n = np.arange(34)
        llr = binom_logpmf(n, b1) - binom_logpmf(n, b0)
        assert np.all(llr[:n_th + 1] < 0.0)
        assert np.all(llr[n_th + 1:] >= 0.0)

    def test_golden_regression(self):
        # Frozen after the first verified build: lambda0=1, lambda1=20 at
        # the reference operating point gives a count threshold of 5.
        chan = ChannelParams(lambda0=1.0, lambda1=20.0)
        rule = build_rule(chan, OPERATING_CFG)
        assert rule.n_th == 5
        m0 = moments_full(1.0, OPERATING_CFG).mean
        m1 = moments_full(20.0, OPERATING_CFG).mean
        assert ml_threshold(m1, m0, 0.01) == 5

    def test_threshold_monotone_in_separation(self):
        n_hat0, T = 1.0, 0.01
        eps = np.linspace(0.5, 20.0, 40)
        ths = [ml_threshold(n_hat0 * (1.0 + e), n_hat0, T) for e in eps]
        assert all(b >= a for a, b in zip(ths, ths[1:]))
        assert all(0 <= t < 1.0 / (3.0 * T) for t in ths)

    def test_rejects_unordered_hypotheses(self):
        with pytest.raises(ValueError):
            ml_threshold(1.0, 2.0, 0.01)


class TestClassify:
    def _rule(self):
        chan = ChannelParams(lambda0=1.0, lambda1=12.0)
        return build_rule(chan, OPERATING_CFG)

    def test_zero_count_decides_off(self):
        assert classify(0, self._rule()) == 0

    def test_tie_decides_off(self):
        rule = self._rule()
        assert classify(rule.n_th, rule) == 0
        assert classify(rule.n_th + 1, rule) == 1

    def test_agrees_with_direct_likelihood_comparison(self):
        rule = self._rule()
        n_max = int(min(rule.approx0.N, rule.approx1.N))
        n = np.arange(n_max + 1)
        llr = binom_logpmf(n, rule.approx1) - binom_logpmf(n, rule.approx0)
        for k in n:
            assert classify(int(k), rule) == int(llr[k] >= 0.0)


class TestErrorProbability:
    def test_indistinguishable_hypotheses(self):
        b = BinomialApprox(N=30.0, P=0.2)
        rule = build_rule_from_fit(b, b)
        assert error_prob_analytic(rule) == pytest.approx(0.5, abs=1e-9)

    def test_separation_limit(self):
        chan = ChannelParams(lambda0=0.05, lambda1=25.0)
        rule = build_rule(chan, OPERATING_CFG)
        assert error_prob_analytic(rule) < 1e-3

    def test_matches_monte_carlo(self):
        chan = ChannelParams(lambda0=1.0, lambda1=12.0)
        rule = build_rule(chan, OPERATING_CFG)
        analytic = error_prob_analytic(rule)
        ber, se = ber_mc(chan, OPERATING_CFG, 100_000, seed=21, rule=rule)
        assert abs(ber - analytic) < 3.0 * se


class TestBerMc:
    def test_equal_rates_give_half(self):
        chan = ChannelParams(lambda0=6.0, lambda1=6.0)
        b = binomial_approx(moments_full(6.0, OPERATING_CFG),
                            derive_params(OPERATING_CFG))
        rule = build_rule_from_fit(b, b)
        ber, se = ber_mc(chan, OPERATING_CFG, 20_000, seed=22, rule=rule)
        assert abs(ber - 0.5) < 3.0 * se

    def test_deterministic_across_workers(self):
        chan = ChannelParams(lambda0=1.0, lambda1=12.0)
        b1 = ber_mc(chan, OPERATING_CFG, 30_000, seed=23, workers=1)
        b4 = ber_mc(chan, OPERATING_CFG, 30_000, seed=23, workers=4)
        assert b1 == b4

    def test_rejects_empty_run(self):
        chan = ChannelParams(lambda0=1.0, lambda1=12.0)
        with pytest.raises(ValueError):
            ber_mc(chan, OPERATING_CFG, 0, seed=1)
