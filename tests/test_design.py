"""KL distances between count models and operating-point selection."""
import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from scipy.stats import binom as sp_binom

from pmtcount import (BinomialApprox, ChannelParams, DegenerateKlError,
                      ReceiverConfig, binomial_approx, check_conditions,
                      derive_params, gaussian_q, kl_approx_01, kl_equal_n,
                      kl_gap_bound, kl_general_n, moments_full, select_params)
from pmtcount import (MlRule, build_rule_from_fit, design, detector,
                      error_prob_analytic, moments)
from pmtcount.design import (KL_GAP_CEILING, ConditionFlags, DesignResult,
                             default_tau_grid, default_xi_grid)
from pmtcount.moments import binom_logpmf

# Frozen high-precision reference: equal-N KL distance at N=100,
# P0=0.01, P1=0.05.
KL_100_001_005 = 2.4736149824367605

# sha256 of _random_design_lines(), one line per design.
RANDOM_DESIGNS_SHA256 = (
    "4f50894c89777f63c13cfc6d906894999905bf76729a11f4b4f7c7636bdc6861")

TEMPLATE = ReceiverConfig(T=0.01, tau=0.01, xi=0.3, sigma=0.2, sigma0=0.02)


def _inject_xi_grid(monkeypatch, grid):
    """Make select_params search `grid`, which must ascend, in place of
    the default xi grid; None keeps the default."""
    if grid is not None:
        monkeypatch.setattr(design, "default_xi_grid",
                            lambda cfg: np.asarray(grid, dtype=float))


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

    def test_expectation_builds_only_complete_rows(self):
        # N0 = 3000.5 against N1 = 30.5: only the 31 rows n < 31 of the
        # log-ratio matrix are used, so none of its 3001 x 2970 is built.
        b0 = BinomialApprox(3000.5, 1e-3)
        b1 = BinomialApprox(30.5, 0.1)
        tracemalloc.start()
        try:
            d01, d10 = kl_general_n(b0, b1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert math.isfinite(d01) and math.isfinite(d10)
        assert peak < 8e6


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

    def test_asymmetry_fails_without_positive_denominator(self):
        # 1 - 2 tau' n_hat1 = -0.225 here: no asymmetry margin exists.
        cfg = ReceiverConfig(T=0.01, tau=0.04, xi=0.2, sigma=0.1, sigma0=0.2)
        flags = check_conditions(ChannelParams(0.5, 2.0), cfg)
        assert not flags.kl_asymmetry
        assert flags.kl_asymmetry_margin == -math.inf
        assert all(math.isfinite(v) for v in (
            flags.holding_time_margin, flags.p_bound_margin,
            flags.kl_gap_value))

    def test_gap_bound_infinite_where_binomial_breaks_down(self):
        # 0 < n_hat0 < n_hat1, but binomial_approx at lambda0 raises
        # (thermal bracket 1.23 >= 1): no finite bound exists.
        cfg = ReceiverConfig(T=1 / 98, tau=16 / 98, xi=1.7, sigma=0.155,
                             sigma0=0.208)
        chan = ChannelParams(0.0, 56.0)
        assert 0.0 < moments_full(0.0, cfg).mean < moments_full(56.0, cfg).mean
        with pytest.raises(ValueError):
            binomial_approx(moments_full(0.0, cfg), cfg.derived)
        flags = check_conditions(chan, cfg)
        assert flags.kl_gap_value == math.inf
        assert flags.kl_gap_bound is False


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

    @pytest.mark.parametrize("xi_grid", [None, [0.1, 0.3, 0.7]],
                             ids=["default", "injected"])
    def test_degenerate_channel_reports_grid_median(self, xi_grid,
                                                    monkeypatch):
        # xi* is the point the conditions were checked at: the median.
        chan = ChannelParams(lambda0=5.0, lambda1=5.0)
        _inject_xi_grid(monkeypatch, xi_grid)
        result = select_params(chan, TEMPLATE)
        grid = default_xi_grid(TEMPLATE) if xi_grid is None else xi_grid
        assert result.xi_star == float(np.median(grid))
        cfg = ReceiverConfig(T=TEMPLATE.T, tau=TEMPLATE.T, xi=result.xi_star,
                             sigma=TEMPLATE.sigma, sigma0=TEMPLATE.sigma0)
        assert result.conditions == check_conditions(chan, cfg)

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

    def test_rejects_receiver_without_holding_time(self):
        # T = 1: no multiple of T lies below the symbol.
        cfg = ReceiverConfig(T=1.0, tau=0.5, xi=0.3)
        with pytest.raises(ValueError, match="no multiple of T"):
            select_params(ChannelParams(1.0, 12.0), cfg)

    @pytest.mark.parametrize("xi_grid", [[0.1, 0.3, 0.4], [0.1, 0.2, 0.3, 0.7]])
    def test_fast_path_decision_at_grid_median(self, xi_grid, monkeypatch):
        # The fast-path conditions are checked at np.median(xi_grid).
        seen = []
        check = design.check_conditions
        monkeypatch.setattr(design, "check_conditions",
                            lambda chan, cfg: seen.append(cfg.xi)
                            or check(chan, cfg))
        _inject_xi_grid(monkeypatch, xi_grid)
        select_params(ChannelParams(0.3, 9.3), TEMPLATE)
        assert seen[0] == float(np.median(xi_grid))

    @pytest.mark.parametrize("chan", [ChannelParams(1.0, 12.0),
                                      ChannelParams(5.0, 5.0)],
                             ids=["separable", "degenerate"])
    def test_forced_full_path_checks_only_what_it_reports(self, chan,
                                                          monkeypatch):
        # A forced full search takes no fast-path test at the grid median:
        # the conditions are checked once, at the reported point, which
        # is the median itself on a degenerate channel.
        seen = []
        check = design.check_conditions
        monkeypatch.setattr(design, "check_conditions",
                            lambda ch, cfg: seen.append(cfg) or check(ch, cfg))
        xi_grid = [0.1, 0.2, 0.3, 0.7]
        _inject_xi_grid(monkeypatch, xi_grid)
        result = select_params(chan, TEMPLATE, force_full=True)
        assert [(cfg.xi, cfg.tau) for cfg in seen] == \
            [(result.xi_star, result.tau_star)]
        assert result.conditions == check(chan, seen[0])
        assert result.separable == (chan.lambda_s > 0.0)
        if not result.separable:
            assert result.xi_star == float(np.median(xi_grid))

    def test_scalar_chain_goes_through_moments_full(self, monkeypatch):
        # design and detector reach the moment model by its public name,
        # so wrapping that name (as a tracer does) sees every evaluation.
        calls = []
        for owner in (design, detector):
            full = owner.moments_full
            monkeypatch.setattr(owner, "moments_full",
                                lambda lam, cfg, full=full, owner=owner:
                                calls.append(owner) or full(lam, cfg))
        assert select_params(ChannelParams(0.3, 9.3), TEMPLATE).fast_path
        assert design in calls and detector in calls

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
        tmpl, chan, _ = ORACLE_CASES["fig11"]
        result = select_params(chan, tmpl, force_full=True)
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


# Receivers for the batched-grid oracle: fig11; fig11's receiver at a
# channel that takes the fast path; a T = 0.02 receiver; and sigma0 = 0.1
# on a xi grid low enough that thermal crossings leave unequal integer
# parts of N0 and N1 (the general-N KL) and excluded-mass breakdowns,
# which the default xi grid never reaches; select_params reads that grid
# through _inject_xi_grid.
NOISY = ReceiverConfig(T=0.01, tau=0.01, xi=0.3, sigma=0.2, sigma0=0.1)
NOISY_XI = np.linspace(0.05, 0.6, 23)
ORACLE_CASES = {
    "fig11": (TEMPLATE, ChannelParams(1.0, 12.0), None),
    "fig11_lam0.3": (TEMPLATE, ChannelParams(0.3, 9.3), None),
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

    @pytest.mark.parametrize("case,force_full", [
        pytest.param(case, full, id=case if full else case + "-auto")
        for case in ORACLE_CASES for full in (True, False)])
    def test_full_path_picks_scalar_optimum(self, case, force_full,
                                            monkeypatch):
        # On either path, the grid point that is the first maximum in
        # tau-major order, as a scan of the scalar chain finds it, with
        # the same skip count.
        tmpl, chan, xi_grid = ORACLE_CASES[case]
        _inject_xi_grid(monkeypatch, xi_grid)
        result = select_params(chan, tmpl, force_full=force_full)
        assert result.fast_path is (case == "fig11_lam0.3" and not force_full)
        xi, taus = _grids(tmpl, xi_grid, result.fast_path)
        ref, ref_skipped, _, _ = _scalar_objective(chan, tmpl, xi, taus,
                                                   result.fast_path)
        i, j = np.unravel_index(np.argmax(ref), ref.shape)
        assert (result.tau_star, result.xi_star) == (taus[i], xi[j])
        assert result.skipped_points == ref_skipped


# DesignResults pinned from the scalar-grid implementation: the batched
# grid must reproduce them bit for bit, on the fast path (xi grid at
# tau = T) and the full path. predicted_ber follows the C library's
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
        xi_star=0.14276923076923076, tau_star=0.01, kl_01=3.043144970901402,
        kl_10=6.9093106626869645, conditions=ConditionFlags(
            kl_asymmetry=True, holding_time_ok=True, p_bound=True,
            kl_gap_bound=True, kl_asymmetry_margin=0.46156765362660623,
            holding_time_margin=0.2525913131575469,
            p_bound_margin=6.399620648538889e-05,
            kl_gap_value=0.0038306987374007156),
        predicted_ber=0.06104783552911929, fast_path=True, separable=True,
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
        xi_star=0.14276923076923076, tau_star=0.02, kl_01=1.689147739078388,
        kl_10=4.123158324535682, conditions=ConditionFlags(
            kl_asymmetry=True, holding_time_ok=True, p_bound=True,
            kl_gap_bound=True, kl_asymmetry_margin=0.7162135982369677,
            holding_time_margin=0.024961299813315234,
            p_bound_margin=7.408323494478235e-05,
            kl_gap_value=0.0012802189204451561),
        predicted_ber=0.10889078992166927, fast_path=True, separable=True,
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
        xi_star=0.6153846153846154, tau_star=0.01, kl_01=5.88663277061907,
        kl_10=12.682229584437863, conditions=ConditionFlags(
            kl_asymmetry=True, holding_time_ok=True, p_bound=True,
            kl_gap_bound=False, kl_asymmetry_margin=0.13880852073429795,
            holding_time_margin=0.25675957760541074,
            p_bound_margin=0.0004711843135661321,
            kl_gap_value=0.014158251975817524),
        predicted_ber=0.01610234327533335, fast_path=True, separable=True,
        skipped_points=0)),
]


@pytest.mark.parametrize("tmpl,rates,xi_grid,force_full,expected",
                         PINNED_DESIGNS,
                         ids=["fig11", "fig11_fast", "fig11_full",
                              "T0.02_fast", "noisy_full", "noisy_fast"])
def test_design_result_pinned(tmpl, rates, xi_grid, force_full, expected,
                              monkeypatch):
    _inject_xi_grid(monkeypatch, xi_grid)
    assert select_params(ChannelParams(*rates), tmpl,
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
