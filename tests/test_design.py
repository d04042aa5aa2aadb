"""KL distances between count models and operating-point selection."""
import hashlib
import math

import numpy as np
import pytest
from scipy.stats import binom as sp_binom

from pmtcount import (BinomialApprox, ChannelParams, DegenerateKlError,
                      ReceiverConfig, binomial_approx, check_conditions,
                      derive_params, gaussian_q, kl_approx_01, kl_equal_n,
                      kl_gap_bound, kl_general_n, moments_full, select_params)
from pmtcount import (MlRule, build_rule_from_fit, design,
                      error_prob_analytic, moments)
from pmtcount.detector import binom_logpmf
from pmtcount.design import (KL_GAP_CEILING, ConditionFlags, DesignResult,
                             default_tau_grid, default_xi_grid)

# Frozen high-precision reference: equal-N KL distance at N=100,
# P0=0.01, P1=0.05.
KL_100_001_005 = 2.4736149824367605

# sha256 of _random_design_lines(), one line per design.
RANDOM_DESIGNS_SHA256 = (
    "b16c7290a3b8e54c3b9a0ddc63360a280f0624160354c1158206e74c7699debe")

TEMPLATE = ReceiverConfig(T=0.01, tau=0.01, xi=0.3, sigma=0.2, sigma0=0.02)


def _brute_force_kl(ba, bb):
    """Direct sum over the conditioning support with the truncation
    convention: the combinatorial log-ratio is dropped (treated as 0) for
    outcomes outside the other model's support."""
    Na, Nb = int(ba.N), int(bb.N)
    lo, hi = min(Na, Nb), max(Na, Nb)
    sign = 1.0 if Na >= Nb else -1.0
    total = 0.0
    for n in range(Na + 1):
        pa = sp_binom.pmf(n, Na, ba.P)
        term = (n * math.log(ba.P / bb.P)
                + (Na - n) * math.log1p(-ba.P)
                - (Nb - n) * math.log1p(-bb.P))
        if n <= lo:
            term += sign * sum(math.log(k / (k - n))
                               for k in range(lo + 1, hi + 1))
        total += pa * term
    return total


class TestEqualN:
    def test_reference_value(self):
        d01, d10 = kl_equal_n(BinomialApprox(N=100.0, P=0.01),
                              BinomialApprox(N=100.0, P=0.05))
        assert d01 == pytest.approx(KL_100_001_005, rel=1e-12)
        assert d10 > 0.0

    def test_identical_models_give_zero(self):
        b = BinomialApprox(N=50.0, P=0.2)
        assert kl_equal_n(b, b) == (0.0, 0.0)

    def test_nonnegative_on_random_grid(self):
        rng = np.random.default_rng(101)
        for _ in range(10_000):
            N = rng.uniform(1.0, 200.0)
            p0, p1 = rng.uniform(0.01, 0.99, 2)
            d01, d10 = kl_equal_n(BinomialApprox(N=N, P=p0),
                                  BinomialApprox(N=N, P=p1))
            assert d01 >= 0.0 and d10 >= 0.0

    def test_rejects_mismatched_n(self):
        with pytest.raises(ValueError):
            kl_equal_n(BinomialApprox(N=10.0, P=0.1),
                       BinomialApprox(N=12.0, P=0.1))

    def test_rejects_degenerate_probability(self):
        with pytest.raises(DegenerateKlError):
            kl_equal_n(BinomialApprox(N=10.0, P=1.0),
                       BinomialApprox(N=10.0, P=0.5))


class TestGeneralN:
    def test_reduces_to_equal_n(self):
        b0 = BinomialApprox(N=100.0, P=0.01)
        b1 = BinomialApprox(N=100.0, P=0.05)
        general = kl_general_n(b0, b1)
        equal = kl_equal_n(b0, b1)
        assert general[0] == pytest.approx(equal[0], abs=1e-12)
        assert general[1] == pytest.approx(equal[1], abs=1e-12)

    def test_matches_brute_force_small_instance(self):
        b0 = BinomialApprox(N=8.0, P=0.1)
        b1 = BinomialApprox(N=6.0, P=0.3)
        d01, d10 = kl_general_n(b0, b1)
        assert d01 == pytest.approx(_brute_force_kl(b0, b1), abs=1e-9)
        assert d10 == pytest.approx(_brute_force_kl(b1, b0), abs=1e-9)

    def test_nonnegative_on_operating_grid(self):
        for lam0, lam1 in [(0.5, 5.0), (1.0, 12.0), (2.0, 20.0)]:
            for tau_mult in (1, 2, 3):
                cfg = ReceiverConfig(T=0.01, tau=0.01 * tau_mult, xi=0.3,
                                     sigma=0.2, sigma0=0.02)
                d = derive_params(cfg)
                b0 = binomial_approx(moments_full(lam0, cfg), d)
                b1 = binomial_approx(moments_full(lam1, cfg), d)
                d01, d10 = kl_general_n(b0, b1)
                assert d01 >= 0.0 and d10 >= 0.0


class TestApprox01:
    def test_zero_at_identical_models(self):
        b = BinomialApprox(N=40.0, P=0.25)
        assert kl_approx_01(b, b) == pytest.approx(0.0, abs=1e-15)

    def test_exact_at_equal_trial_counts(self):
        # With N0 = N1 the approximation is algebraically identical to
        # the equal-N closed form.
        cfg = TEMPLATE
        d = derive_params(cfg)
        b0 = binomial_approx(moments_full(0.1, cfg), d)
        b1 = binomial_approx(moments_full(5.0, cfg), d)
        assert kl_approx_01(b0, b1) == pytest.approx(
            kl_equal_n(b0, b1)[0], rel=1e-12)

    def test_close_to_general_in_validity_region(self):
        # Valid when P1 <= 0.2 and the first model is far sparser than
        # the second.
        for b0, b1 in [(BinomialApprox(N=40.0, P=0.02),
                        BinomialApprox(N=33.3, P=0.18)),
                       (BinomialApprox(N=50.0, P=0.01),
                        BinomialApprox(N=33.3, P=0.15)),
                       (BinomialApprox(N=36.0, P=0.03),
                        BinomialApprox(N=33.3, P=0.20))]:
            exact, _ = kl_general_n(b0, b1)
            assert kl_approx_01(b0, b1) == pytest.approx(exact, rel=0.10)

    def test_monotone_in_separation(self):
        b0 = BinomialApprox(N=33.0, P=0.02)
        vals = [kl_approx_01(b0, BinomialApprox(N=33.0, P=p))
                for p in np.linspace(0.05, 0.5, 12)]
        assert all(b > a for a, b in zip(vals, vals[1:]))


class TestConditions:
    def test_zero_thermal_noise_satisfies_p_bound(self):
        chan = ChannelParams(lambda0=0.3, lambda1=8.0)
        cfg = ReceiverConfig(T=0.01, tau=0.01, xi=0.3, sigma=0.2, sigma0=0.0)
        flags = check_conditions(chan, cfg)
        assert flags.p_bound
        assert flags.p_bound_margin > 0.0

    def test_noise_crossing_probability_worked_bound(self):
        # At threshold/noise ratio xi/sigma0 > 4.5 the per-sample false
        # crossing probability is below 3.4e-6, under the 8e-6 budget.
        p = gaussian_q(0.09 / 0.02)
        assert p < 3.4e-6
        assert p < 8e-6

    def test_gap_bound_within_ceiling_at_reference_box(self):
        # lambda0'=0.1, lambda1'=2, tau=10T=0.1, p=8e-6: the loss from
        # fixing the holding time at T stays under the 0.0102 ceiling.
        lam0p, lam1p, tau, T, alpha, p = 0.1, 2.0, 0.1, 0.01, 10, 8e-6
        n_hat0 = lam0p + p / T
        P0 = 2.0 * (tau + T / 2.0) * n_hat0
        gap = kl_gap_bound(lam0p, lam1p, tau, T, alpha, P0, 0.5, n_hat0)
        assert 0.0 < gap <= KL_GAP_CEILING

    def test_asymmetry_flag_predicts_kl_ordering(self):
        # Wherever the asymmetry condition holds, D01 < D10 must follow
        # (tolerating up to 1% approximation counterexamples).
        rng = np.random.default_rng(202)
        checked, violations = 0, 0
        while checked < 200:
            lam0 = rng.uniform(0.05, 2.0)
            lam1 = lam0 + rng.uniform(2.0, 18.0)
            tau_mult = rng.integers(1, 4)
            cfg = ReceiverConfig(T=0.01, tau=0.01 * float(tau_mult), xi=0.3,
                                 sigma=0.2, sigma0=0.02)
            chan = ChannelParams(lambda0=lam0, lambda1=lam1)
            flags = check_conditions(chan, cfg)
            if not flags.kl_asymmetry:
                continue
            d = derive_params(cfg)
            b0 = binomial_approx(moments_full(lam0, cfg), d)
            b1 = binomial_approx(moments_full(lam1, cfg), d)
            d01, d10 = kl_general_n(b0, b1)
            checked += 1
            if not d01 < d10:
                violations += 1
        assert violations <= 2  # <= 1% of 200 sampled points

    def test_asymmetry_violated_for_close_rates(self):
        chan = ChannelParams(lambda0=5.0, lambda1=7.0)
        flags = check_conditions(chan, TEMPLATE)
        assert not flags.kl_asymmetry


class TestSelectParams:
    def test_fast_path_fixes_holding_time(self):
        chan = ChannelParams(lambda0=0.3, lambda1=9.3)
        result = select_params(chan, TEMPLATE)
        assert result.fast_path
        assert result.tau_star == TEMPLATE.T

    def test_full_path_taken_when_conditions_fail(self):
        chan = ChannelParams(lambda0=5.0, lambda1=7.0)
        result = select_params(chan, TEMPLATE)
        assert not result.fast_path

    def test_degenerate_channel_flagged(self):
        chan = ChannelParams(lambda0=5.0, lambda1=5.0)
        result = select_params(chan, TEMPLATE)
        assert not result.separable
        assert result.predicted_ber == 0.5

    def test_fast_and_full_agree_at_good_point(self):
        chan = ChannelParams(lambda0=0.3, lambda1=9.3)
        fast = select_params(chan, TEMPLATE)
        full = select_params(chan, TEMPLATE, force_full=True)
        assert full.tau_star == TEMPLATE.T
        assert fast.xi_star == pytest.approx(full.xi_star, abs=0.05)

    def test_gap_bound_dominates_measured_gap(self):
        # On points satisfying the preconditions, the measured loss
        # D01(tau) - D01(T) must not exceed the analytic upper bound.
        chan = ChannelParams(lambda0=0.1, lambda1=2.1)
        for tau_mult in (2, 5, 10):
            cfg = ReceiverConfig(T=0.01, tau=0.01 * tau_mult, xi=0.3,
                                 sigma=0.2, sigma0=0.02)
            flags = check_conditions(chan, cfg)
            if not (flags.holding_time_ok and flags.p_bound):
                continue
            d = derive_params(cfg)
            cfg_t = ReceiverConfig(T=0.01, tau=0.01, xi=0.3, sigma=0.2,
                                   sigma0=0.02)
            d_t = derive_params(cfg_t)
            b0 = binomial_approx(moments_full(chan.lambda0, cfg), d)
            b1 = binomial_approx(moments_full(chan.lambda1, cfg), d)
            b0t = binomial_approx(moments_full(chan.lambda0, cfg_t), d_t)
            b1t = binomial_approx(moments_full(chan.lambda1, cfg_t), d_t)
            gap = kl_general_n(b0, b1)[0] - kl_general_n(b0t, b1t)[0]
            assert gap <= flags.kl_gap_value + 1e-12

    def test_grid_defaults(self):
        xi = default_xi_grid(TEMPLATE)
        tau = default_tau_grid(TEMPLATE)
        assert xi.size == 64 and np.all(np.diff(xi) > 0.0)
        assert np.allclose(tau, TEMPLATE.T * np.arange(1, 11))

    def test_rejects_off_grid_holding_times(self):
        chan = ChannelParams(lambda0=0.3, lambda1=9.3)
        with pytest.raises(ValueError):
            select_params(chan, TEMPLATE, tau_grid=[0.015])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("grids", [
        dict(tau_grid=[0.01, math.nan]), dict(tau_grid=[0.01, math.inf]),
        dict(xi_grid=[0.2, 0.4, math.inf]), dict(xi_grid=[0.2, math.nan])],
        ids=["tau_nan", "tau_inf", "xi_inf", "xi_nan"])
    def test_rejects_non_finite_grid_entries(self, grids):
        # Not skipped as invalid points, and no warning on the way.
        chan = ChannelParams(lambda0=1.0, lambda1=12.0)
        with pytest.raises(ValueError, match="grid entries must be finite"):
            select_params(chan, TEMPLATE, force_full=True, **grids)

    @pytest.mark.parametrize("xi_grid", [[0.4, 0.1, 0.3], [0.7, 0.1, 0.3, 0.2]])
    def test_fast_path_decision_at_grid_median(self, xi_grid, monkeypatch):
        # The fast-path conditions are checked at np.median(xi_grid).
        seen = []
        check = design.check_conditions
        monkeypatch.setattr(design, "check_conditions",
                            lambda chan, cfg: seen.append(cfg.xi)
                            or check(chan, cfg))
        select_params(ChannelParams(0.3, 9.3), TEMPLATE, xi_grid=xi_grid)
        assert seen[0] == float(np.median(xi_grid))

    def test_chosen_point_evaluates_each_pmf_once(self, monkeypatch):
        # At fig11 the ML threshold, the analytic BER and the KL share one
        # log PMF per hypothesis.
        calls = []
        logpmf = moments.binom_logpmf
        monkeypatch.setattr(moments, "binom_logpmf",
                            lambda n, b: calls.append(b) or logpmf(n, b))
        select_params(ChannelParams(1.0, 12.0), TEMPLATE, force_full=True)
        assert len(calls) == 2 and calls[0] is not calls[1]

    def test_chosen_point_matches_fresh_binomials(self):
        # Rule, BER and KL equal bitwise those from binomials built afresh
        # and read in another order, and the BER the plain PMF formula.
        tmpl, chan, xi_grid = ORACLE_CASES["fig11"]
        result = select_params(chan, tmpl, xi_grid=xi_grid, force_full=True)
        cfg = ReceiverConfig(T=tmpl.T, tau=result.tau_star,
                             xi=result.xi_star, sigma=tmpl.sigma,
                             sigma0=tmpl.sigma0)

        def fresh():
            return [binomial_approx(moments_full(lam, cfg),
                                    derive_params(cfg))
                    for lam in (chan.lambda0, chan.lambda1)]

        b0, b1 = fresh()
        assert (result.kl_01, result.kl_10) == kl_general_n(b0, b1)
        b0, b1 = fresh()
        n_th = build_rule_from_fit(*fresh()).n_th
        assert error_prob_analytic(MlRule(n_th, b0, b1)) == \
            result.predicted_ber

        n = np.arange(int(min(b0.N, b1.N)) + 1)
        assert n_th == np.nonzero(binom_logpmf(n, b1)
                                  < binom_logpmf(n, b0))[0][-1]

        def plain_pmf(b):
            pmf = np.exp(binom_logpmf(np.arange(int(b.N) + 1), b))
            return pmf / pmf.sum()

        assert 0.5 * (plain_pmf(b1)[:n_th + 1].sum()
                      + plain_pmf(b0)[n_th + 1:].sum()) == \
            result.predicted_ber

    def test_shared_pmf_at_unequal_trial_counts(self, monkeypatch):
        # Unequal integer parts: the KL expectation reads the same PMFs as
        # the rule and the BER, and gives what fresh binomials give.
        calls = []
        logpmf = moments.binom_logpmf
        monkeypatch.setattr(moments, "binom_logpmf",
                            lambda n, b: calls.append(b) or logpmf(n, b))
        pair = (BinomialApprox(36.2, 0.04), BinomialApprox(33.7, 0.3))
        rule = build_rule_from_fit(*pair)
        kl = kl_general_n(*pair)
        ber = error_prob_analytic(rule)
        assert len(calls) == 2
        fresh = [BinomialApprox(b.N, b.P) for b in pair]
        assert kl_general_n(*fresh) == kl
        assert error_prob_analytic(MlRule(rule.n_th, *fresh)) == ber
        assert build_rule_from_fit(*fresh).n_th == rule.n_th


# Receivers for the batched-grid oracle: fig11; a T = 0.02 receiver; and
# sigma0 = 0.1 on a xi grid low enough that thermal crossings leave
# unequal integer parts of N0 and N1 (the general-N KL) and excluded-mass
# breakdowns, which the default xi grid never reaches.
NOISY = ReceiverConfig(T=0.01, tau=0.01, xi=0.3, sigma=0.2, sigma0=0.1)
NOISY_XI = np.linspace(0.05, 0.6, 23)
ORACLE_CASES = {
    "fig11": (TEMPLATE, ChannelParams(1.0, 12.0), None),
    "T0.02": (ReceiverConfig(T=0.02, tau=0.02, xi=0.3, sigma=0.2,
                             sigma0=0.02), ChannelParams(0.5, 8.0), None),
    "noisy_lam0.25": (NOISY, ChannelParams(0.25, 4.0), NOISY_XI),
    "noisy_lam1": (NOISY, ChannelParams(1.0, 12.0), NOISY_XI),
}


def _scalar_objective(channel, tmpl, xi_grid, tau_grid, fast):
    """select_params' objective through the scalar chain, point by point,
    tau-major: -inf where the chain raises. Also returns the number of
    such points, how many valid points have unequal integer parts of N0
    and N1, and how many of those fail the excluded-mass check."""
    vals = np.full((len(tau_grid), len(xi_grid)), -math.inf)
    skipped = unequal = excluded = 0
    for i, tau in enumerate(tau_grid):
        for j, xi in enumerate(xi_grid):
            try:
                cfg = ReceiverConfig(T=tmpl.T, tau=float(tau), xi=float(xi),
                                     sigma=tmpl.sigma, sigma0=tmpl.sigma0)
                d = derive_params(cfg)
                b0 = binomial_approx(moments_full(channel.lambda0, cfg), d)
                b1 = binomial_approx(moments_full(channel.lambda1, cfg), d)
                if fast:
                    vals[i, j] = kl_approx_01(b0, b1)
                    continue
                unequal += math.floor(b0.N) != math.floor(b1.N)
                vals[i, j] = min(kl_general_n(b0, b1))
            except ValueError as e:
                skipped += 1
                excluded += "excluded expectation mass" in str(e)
    return vals, skipped, unequal, excluded


def _grids(tmpl, xi_grid, fast):
    xi = default_xi_grid(tmpl) if xi_grid is None else xi_grid
    return xi, np.array([tmpl.T]) if fast else default_tau_grid(tmpl)


class TestBatchedGrid:
    @pytest.mark.parametrize("fast", [True, False], ids=["fast", "full"])
    @pytest.mark.parametrize("case", ORACLE_CASES)
    def test_grid_matches_scalar_chain(self, case, fast):
        tmpl, chan, xi_grid = ORACLE_CASES[case]
        xi, taus = _grids(tmpl, xi_grid, fast)
        vals, skipped = design._grid_objective(chan, tmpl, xi, taus, fast)
        ref, ref_skipped, unequal, excluded = _scalar_objective(
            chan, tmpl, xi, taus, fast)
        assert skipped == ref_skipped
        np.testing.assert_array_equal(vals == -math.inf, ref == -math.inf)
        ok = ref > -math.inf
        assert ok.any()
        assert np.all(np.abs(vals[ok] - ref[ok])
                      <= 1e-12 + 1e-9 * np.abs(ref[ok]))
        if xi_grid is not None and not fast:
            assert unequal > 0 and excluded > 0 and skipped > excluded

    @pytest.mark.parametrize("case", ORACLE_CASES)
    def test_binomials_match_scalar_chain(self, case):
        tmpl, chan, xi_grid = ORACLE_CASES[case]
        xi, taus = _grids(tmpl, xi_grid, False)
        for lam in (chan.lambda0, chan.lambda1):
            N, P, ok = design._binomial_grid(lam, tmpl, xi, taus[:, None])
            for (i, j), valid in np.ndenumerate(ok):
                cfg = ReceiverConfig(T=tmpl.T, tau=float(taus[i]),
                                     xi=float(xi[j]), sigma=tmpl.sigma,
                                     sigma0=tmpl.sigma0)
                try:
                    b = binomial_approx(moments_full(lam, cfg),
                                        derive_params(cfg))
                except ValueError:
                    assert not valid
                    continue
                assert valid
                assert N[i, j] == pytest.approx(b.N, rel=1e-12)
                assert P[i, j] == pytest.approx(b.P, rel=1e-12)

    def test_binomials_without_shot_noise_match_scalar_chain(self):
        # sigma = 0: q is a step at xi = 1, so the grid straddles it.
        tmpl = ReceiverConfig(T=0.01, tau=0.01, xi=0.3, sigma0=0.1)
        xi = np.array([0.6, 0.9, 0.99, 1.0, 1.01, 1.2])
        taus = np.array([0.01, 0.02, 0.03])
        N, P, ok = design._binomial_grid(4.0, tmpl, xi, taus[:, None])
        for (i, j), valid in np.ndenumerate(ok):
            cfg = ReceiverConfig(T=tmpl.T, tau=float(taus[i]),
                                 xi=float(xi[j]), sigma0=tmpl.sigma0)
            try:
                b = binomial_approx(moments_full(4.0, cfg),
                                    derive_params(cfg))
            except ValueError:
                assert not valid
                continue
            assert valid
            assert N[i, j] == pytest.approx(b.N, rel=1e-12)
            assert P[i, j] == pytest.approx(b.P, rel=1e-12)
        assert ok[:, xi < 1.0].all() and not ok.all()

    @pytest.mark.parametrize("case", ORACLE_CASES)
    def test_full_path_picks_scalar_optimum(self, case):
        # First maximum in tau-major order, as a scan of the scalar chain
        # finds it, with the same skip count.
        tmpl, chan, xi_grid = ORACLE_CASES[case]
        xi, taus = _grids(tmpl, xi_grid, False)
        ref, ref_skipped, _, _ = _scalar_objective(chan, tmpl, xi, taus,
                                                   False)
        i, j = np.unravel_index(np.argmax(ref), ref.shape)
        result = select_params(chan, tmpl, xi_grid=xi_grid, force_full=True)
        assert (result.tau_star, result.xi_star) == (taus[i], xi[j])
        assert result.skipped_points == ref_skipped

    @pytest.mark.parametrize("force_full", [False, True])
    def test_skipped_points_count_invalid_entries(self, force_full):
        # xi <= 0 and tau = 1 fail ReceiverConfig; each such point counts.
        chan = ChannelParams(lambda0=0.25, lambda1=4.0)
        xi = np.array([-0.1, 0.0, 0.15, 0.3, 0.5])
        taus = np.array([0.01, 0.02, 1.0])
        result = select_params(chan, TEMPLATE, xi_grid=xi, tau_grid=taus,
                               force_full=force_full)
        assert result.fast_path is not force_full
        taus = taus[:1] if result.fast_path else taus
        ref, ref_skipped, _, _ = _scalar_objective(chan, TEMPLATE, xi, taus,
                                                   result.fast_path)
        assert ref_skipped == (2 if result.fast_path else 9)
        assert result.skipped_points == ref_skipped

    def test_rejects_holding_times_below_T(self):
        # Within the multiple-of-T tolerance, but in the T > tau regime.
        chan = ChannelParams(lambda0=1.0, lambda1=12.0)
        with pytest.raises(ValueError):
            select_params(chan, TEMPLATE, tau_grid=[0.01 * (1.0 - 1e-10)],
                          force_full=True)


# DesignResults pinned from the scalar-grid implementation: the batched
# grid must reproduce them bit for bit, on the fast path (golden-section
# refinement) and the full path. predicted_ber follows the C library's
# log-gamma (math.lgamma) in its last bits.
PINNED_DESIGNS = [
    (TEMPLATE, (1.0, 12.0), None, False, DesignResult(
        xi_star=0.14276923076923076, tau_star=0.01, kl_01=8.321934287365902,
        kl_10=15.630681018035151, conditions=ConditionFlags(
            kl_asymmetry=False, holding_time_ok=True, p_bound=True,
            kl_gap_bound=False, kl_asymmetry_margin=-0.5402168239967784,
            holding_time_margin=0.271813923782314,
            p_bound_margin=0.0017264608281259359,
            kl_gap_value=0.055098067178526444),
        predicted_ber=0.008078509405990326, fast_path=False, separable=True,
        skipped_points=0)),
    (TEMPLATE, (0.25, 4.0), None, False, DesignResult(
        xi_star=0.14276923081898302, tau_star=0.01, kl_01=3.043144970901402,
        kl_10=6.909310662687034, conditions=ConditionFlags(
            kl_asymmetry=True, holding_time_ok=True, p_bound=True,
            kl_gap_bound=True, kl_asymmetry_margin=0.4615676536266453,
            holding_time_margin=0.25259131315754385,
            p_bound_margin=6.39962064853889e-05,
            kl_gap_value=0.0038306987374004437),
        predicted_ber=0.06104783552911954, fast_path=True, separable=True,
        skipped_points=0)),
    (TEMPLATE, (2.0, 24.0), None, True, DesignResult(
        xi_star=0.14276923076923076, tau_star=0.01, kl_01=15.911646814388522,
        kl_10=25.61338336727593, conditions=ConditionFlags(
            kl_asymmetry=False, holding_time_ok=True, p_bound=True,
            kl_gap_bound=False, kl_asymmetry_margin=-1.8711527082251247,
            holding_time_margin=0.27248101505956673,
            p_bound_margin=0.0137285155077364,
            kl_gap_value=0.20211968291019816),
        predicted_ber=0.0005090560143117106, fast_path=False, separable=True,
        skipped_points=0)),
    (ORACLE_CASES["T0.02"][0], (0.1, 2.1), None, False, DesignResult(
        xi_star=0.14276923081898302, tau_star=0.02, kl_01=1.6891477390783662,
        kl_10=4.123158324535619, conditions=ConditionFlags(
            kl_asymmetry=True, holding_time_ok=True, p_bound=True,
            kl_gap_bound=True, kl_asymmetry_margin=0.7162135982369606,
            holding_time_margin=0.02496129981331873,
            p_bound_margin=7.408323494478237e-05,
            kl_gap_value=0.0012802189204451494),
        predicted_ber=0.10889078992167069, fast_path=True, separable=True,
        skipped_points=0)),
    (NOISY, (1.0, 12.0), NOISY_XI, True, DesignResult(
        xi_star=0.39999999999999997, tau_star=0.01, kl_01=8.30580492961082,
        kl_10=15.590459458888594, conditions=ConditionFlags(
            kl_asymmetry=False, holding_time_ok=True, p_bound=True,
            kl_gap_bound=False, kl_asymmetry_margin=-0.5418105154748432,
            holding_time_margin=0.2718249611559034,
            p_bound_margin=0.0016878602377262686,
            kl_gap_value=0.05521850033191701),
        predicted_ber=0.008143405683180413, fast_path=False, separable=True,
        skipped_points=52)),
    (NOISY, (0.5, 8.0), None, False, DesignResult(
        xi_star=0.6153846154182319, tau_star=0.01, kl_01=5.886632770556072,
        kl_10=12.682229584316907, conditions=ConditionFlags(
            kl_asymmetry=True, holding_time_ok=True, p_bound=True,
            kl_gap_bound=False, kl_asymmetry_margin=0.1388085207418297,
            holding_time_margin=0.25675957760532364,
            p_bound_margin=0.0004711843135508118,
            kl_gap_value=0.014158251975517896),
        predicted_ber=0.016102343275775977, fast_path=True, separable=True,
        skipped_points=0)),
]


@pytest.mark.parametrize("tmpl,rates,xi_grid,force_full,expected",
                         PINNED_DESIGNS,
                         ids=["fig11", "fig11_fast", "fig11_full",
                              "T0.02_fast", "noisy_full", "noisy_fast"])
def test_design_result_pinned(tmpl, rates, xi_grid, force_full, expected):
    assert select_params(ChannelParams(*rates), tmpl, xi_grid=xi_grid,
                         force_full=force_full) == expected


def _random_design_lines(n=150, seed=20261019):
    """repr(DesignResult), or `type: message` when select_params raises,
    over n seeded channels and receivers on both paths. Covers lambda0 = 0,
    sigma = 0 and sigma0 = 0, which the pinned designs above never reach."""
    rng = np.random.default_rng(seed)
    lines = []
    for i in range(n):
        lam0 = 0.0 if rng.random() < 0.25 else rng.uniform(0.05, 3.0)
        lam1 = lam0 + rng.uniform(0.5, 30.0)
        T = 1.0 / int(rng.choice([10, 20, 50, 100, 128, 200]))
        tmpl = ReceiverConfig(T=T, tau=T, xi=0.3,
                              sigma=float(rng.choice([0.0, 0.1, 0.2, 0.4])),
                              sigma0=float(rng.choice(
                                  [0.0, 0.005, 0.02, 0.05, 0.1])))
        try:
            lines.append(repr(select_params(ChannelParams(lam0, lam1), tmpl,
                                            force_full=bool(i % 2))))
        except ValueError as e:
            lines.append(f"{type(e).__name__}: {e}")
    return lines


def test_random_designs_pinned():
    # A refactor of the moment -> binomial -> KL chain keeps every line.
    lines = _random_design_lines()
    assert any(line.startswith("DesignResult") for line in lines[::2])
    assert any(line.startswith("DesignResult") for line in lines[1::2])
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == RANDOM_DESIGNS_SHA256
