"""Ideal dead-time counting distribution, moments, and moment inversion."""
import hashlib
import math
import tracemalloc

from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pmtcount import (ApproximationBreakdownError, SeriesBreakdownError,
                      invert_moments, subpoisson_moments, subpoisson_pmf)
from pmtcount import subpoisson
from pmtcount.subpoisson import _lambert_w0

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

    def test_rejects_term_above_inverse_eps(self):
        # The largest term, about e^38.8, exceeds 1/eps: its rounding
        # error alone exceeds every P(n).
        with pytest.raises(SeriesBreakdownError, match="overflow"):
            subpoisson_pmf(60.0, 0.01)

    def test_rejects_cancellation_breakdown(self):
        # lam*tau is within range but the alternating series cancels
        # beyond double precision; this must be reported, not silently
        # renormalized.
        with pytest.raises(SeriesBreakdownError):
            subpoisson_pmf(25.0, 0.01)

    def test_rejects_term_overflow(self):
        # The largest order's terms exceed the float range; exp would
        # overflow into inf - inf.
        with pytest.raises(SeriesBreakdownError, match="overflow"):
            subpoisson_pmf(1000.0, 5e-4)

    def test_precision_breakdown_builds_no_term_matrix(self):
        # The largest term, about e^149, exceeds 1/eps: the series is
        # rejected before its term block exists.
        tracemalloc.start()
        try:
            with pytest.raises(SeriesBreakdownError, match="overflow"):
                subpoisson_pmf(100.0, 0.001)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_term_matrix_is_the_only_square_array(self):
        # At (10, 0.001) the series runs to order S = 336; its one term
        # matrix takes 8 (S + 1)^2 bytes, and no second one may join it.
        tracemalloc.start()
        try:
            subpoisson_pmf(10.0, 0.001)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 8 * 337 ** 2

    def test_term_block_is_below_one_square(self):
        # At (10, 0.001) no row sums past column 70 of S + 1 = 337, so the
        # block is 337 x 128 and the call peaks below one 8 (S + 1)^2 square.
        tracemalloc.start()
        try:
            subpoisson_pmf(10.0, 0.001)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 337 ** 2

    def test_lgamma_only_where_read(self):
        # The peak test reads log gamma up to ceil(M / 2) = 501 and the block
        # up to S = 336, not up to M = 1001.
        sizes = []
        elementwise = subpoisson._elementwise

        def recording_elementwise(f, x):
            if f is math.lgamma:
                sizes.append(np.size(x))
            return elementwise(f, x)

        with mock.patch.object(subpoisson, "_elementwise",
                               recording_elementwise):
            subpoisson_pmf(10.0, 0.001)
        assert sum(sizes) <= 502

    @pytest.mark.parametrize("lam,tau", [(1.0, 0.6), (2.0, 0.4), (3.0, 0.9),
                                         (5.0, 0.2)])
    def test_matches_mpmath_past_half_lambda_tau(self, lam, tau):
        # The cancellation grows with lam, not with lam * tau.
        pmf = subpoisson_pmf(lam, tau).pmf
        ref = np.array([float(p) for p in _pmf_ref(lam, tau, pmf.size - 1)])
        big = ref >= 1e-10
        assert np.all(np.abs(pmf[big] - ref[big]) <= 1e-12 * ref[big])

    @pytest.mark.parametrize("lam,tau", [(-1.0, 0.01), (10.0, 0.0),
                                         (10.0, 1.0)])
    def test_rejects_invalid(self, lam, tau):
        with pytest.raises(ValueError):
            subpoisson_pmf(lam, tau)

    def test_breakdown_traceback_holds_no_term_matrix(self):
        # A caller that keeps the error (a benchmark tally, a log record)
        # must not keep the term block alive with it. At lam = 17
        # the series is summed and misses normalization; at lam = 25 its
        # largest term exceeds 1/eps.
        for lam in (17.0, 25.0):
            with pytest.raises(SeriesBreakdownError) as info:
                subpoisson_pmf(lam, 0.001)
            tb = info.value.__traceback__
            sizes = []
            while tb is not None:
                sizes += [v.size for v in tb.tb_frame.f_locals.values()
                          if isinstance(v, np.ndarray)]
                tb = tb.tb_next
            assert max(sizes) <= 1002  # M + 1 at tau = 0.001


def _pmf_ref(lam, tau, M):
    """P(0..M) from the same series summed in 50 digits."""
    with mpmath.workdps(50):
        lam, tau = mpmath.mpf(lam), mpmath.mpf(tau)
        rate = lam * mpmath.exp(-lam * tau)
        pmf = []
        for n in range(M + 1):
            total = mpmath.mpf(0)
            for m in range(M - n + 1):
                s = n + m
                avail = 1 - (s - 1) * tau
                if avail < 0:
                    continue
                total += ((-1) ** m * (avail * rate) ** s
                          / (mpmath.factorial(n) * mpmath.factorial(m)))
            pmf.append(total)
        return pmf


def _series_square_and_mask(lam, tau, M):
    """_series as it was before the Hankel view: the order index matrix
    n + m gathers log_base, and a mask sets the orders past S to -inf."""
    pmf = np.zeros(M + 1)
    if lam == 0.0:
        pmf[0] = 1.0
        return pmf
    s = np.arange(M + 1)
    avail = 1.0 - (s - 1) * tau
    with np.errstate(divide="ignore"):
        log_base = s * (np.log(np.maximum(avail, 0.0))
                        + math.log(lam) - lam * tau)
    log_base[0] = 0.0
    log_base[avail < 0.0] = -np.inf
    lg = np.array([math.lgamma(k) for k in s + 1.0])
    peak = log_base - lg[s // 2] - lg[s - s // 2]
    if peak.max() > -math.log(np.finfo(float).eps):
        raise SeriesBreakdownError(
            f"PMF series terms overflow precision at lambda={lam}, tau={tau}")
    S = int(np.flatnonzero(peak > -760.0)[-1])
    s, lg = s[:S + 1], lg[:S + 1]
    idx = np.minimum(s[:, None] + s[None, :], S)
    log_terms = log_base[idx] - lg[:, None] - lg[None, :]
    log_terms[s[:, None] + s[None, :] > S] = -np.inf
    terms = np.exp(log_terms)
    terms[:, 1::2] *= -1.0
    pmf[:S + 1] = [math.fsum(terms[n, :S - n + 1]) for n in range(S + 1)]
    return pmf


def _pmf_outcome(lam, tau):
    """The PMF's bytes, or the message of the SeriesBreakdownError, which
    names the check that raised it."""
    try:
        return subpoisson_pmf(lam, tau).pmf.tobytes()
    except SeriesBreakdownError as err:
        return str(err)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(lam=st.floats(0.0, 80.0), tau=st.floats(0.001, 1.0, exclude_max=True))
@example(lam=0.0, tau=0.1)
@example(lam=5e-324, tau=0.01)
@example(lam=1e-310, tau=0.5)
@example(lam=3.0, tau=1.0 - 1e-12)
@example(lam=10.0, tau=0.001)
@example(lam=17.0, tau=0.001)
@example(lam=60.0, tau=0.01)
def test_pmf_bytes_match_square_and_mask_series(lam, tau):
    with mock.patch.object(subpoisson, "_series", _series_square_and_mask):
        expected = _pmf_outcome(lam, tau)
    assert _pmf_outcome(lam, tau) == expected


# The analytic benchmark's 54 PMF points (lambda * tau <= 0.5).
BENCH_PMF_GRID = [(lam, tau)
                  for lam in (0.5, 1.0, 2.0, 5.0, 10.0, 17.0, 20.0, 25.0,
                              50.0, 100.0)
                  for tau in (0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.5)
                  if lam * tau <= 0.5]


def _log_uniform_points(n, seed):
    rng = np.random.default_rng(seed)
    lam = np.exp(rng.uniform(math.log(0.01), math.log(80.0), n))
    tau = np.exp(rng.uniform(math.log(5e-4), math.log(0.99), n))
    return list(zip(lam.tolist(), tau.tolist()))


@pytest.mark.parametrize("points", [
    BENCH_PMF_GRID,
    _log_uniform_points(300, 27),
    # A 60-bit row depth flips the last bit of one entry here; 80 does not.
    [(0.6250105998195842, 0.02374089323337325)],
], ids=["bench_grid", "log_uniform", "depth_sentinel"])
def test_row_depth_cut_matches_full_sum(points):
    # The series sums each row only down to its depth; the oracle sums every
    # term. Both must give the same PMF bytes or the same breakdown message.
    for lam, tau in points:
        with mock.patch.object(subpoisson, "_series", _series_square_and_mask):
            expected = _pmf_outcome(lam, tau)
        assert _pmf_outcome(lam, tau) == expected, (lam, tau)


@pytest.mark.parametrize("lam,tau,full,share", [(0.5, 0.001, 15225, 1 / 3),
                                                (10.0, 0.002, 43071, 0.4)])
def test_rows_sum_only_terms_within_depth(lam, tau, full, share):
    # `full` terms reach e^-760; most of them cannot move a rounded P(n).
    lengths = []
    fsum = math.fsum

    def recording_fsum(terms):
        lengths.append(len(terms))
        return fsum(terms)

    with mock.patch.object(subpoisson.math, "fsum", recording_fsum):
        subpoisson._series(lam, tau, int(math.floor(1.0 / tau)) + 1)
    assert sum(lengths) <= share * full


@pytest.mark.parametrize("M", [0, 1, 2])
def test_series_matches_square_and_mask_at_lowest_orders(M):
    # M = 0 leaves the single order S = 0, which subpoisson_pmf never asks for.
    got = subpoisson._series(0.7, 0.4, M)
    assert got.tobytes() == _series_square_and_mask(0.7, 0.4, M).tobytes()


@pytest.mark.parametrize("lam,tau,widths,breaks", [
    (10.0, 0.001, [64, 128], False),
    (20.0, 0.002, [64, 128], True),   # summed, then misses normalization
    (20.0, 0.01, [64, 101], False),   # the doubling stops at S + 1 = 101
    (5.0, 0.02, [51], False),         # S + 1 = 51: the full width at once
])
def test_term_block_matches_square_and_mask_series(lam, tau, widths, breaks):
    # The block's width K doubles until every row ends below its cut; the
    # PMF bytes or breakdown message must be those of the full square.
    built = []
    window = subpoisson.sliding_window_view

    def recording_window(x, k):
        built.append(k)
        return window(x, k)

    with mock.patch.object(subpoisson, "sliding_window_view",
                           recording_window):
        got = _pmf_outcome(lam, tau)
    with mock.patch.object(subpoisson, "_series", _series_square_and_mask):
        expected = _pmf_outcome(lam, tau)
    assert built == widths
    assert isinstance(expected, str) == breaks
    assert got == expected


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

    @pytest.mark.parametrize("mean,var", [(math.nan, 1.0), (1.0, math.nan),
                                          (math.inf, 1.0)])
    def test_rejects_nonfinite(self, mean, var):
        with pytest.raises(ValueError):
            invert_moments(mean, var)

    @pytest.mark.parametrize("lam,tau", [
        (lam, tau) for lam in (1e-3, 0.1, 1.0, 10.0, 100.0, 1e3)
        for tau in (1e-4, 1e-3, 0.01, 0.1, 0.3) if lam * tau < 1.0])
    def test_inverse_is_exact(self, lam, tau):
        _, residual = _round_trip(lam * math.exp(-lam * tau), tau)
        assert residual <= 1e-14

    @pytest.mark.parametrize("tau", [1e-3, 0.1, 0.3])
    @pytest.mark.parametrize("gap", [1e-12, 1e-13, 1e-14])
    def test_inverse_is_exact_next_to_branch_point(self, tau, gap):
        # mean * tau' = 1/e - gap puts lambda' tau' within 3e-6 of 1, where
        # lambda' e^{-lambda' tau'} peaks and the two branches meet.
        lam_tau, residual = _round_trip((math.exp(-1.0) - gap) / tau, tau)
        assert lam_tau == pytest.approx(1.0, abs=1e-5)
        assert residual <= 1e-14

    @pytest.mark.parametrize("tau", [1e-3, 0.1, 0.3])
    def test_no_solution_past_branch_point(self, tau):
        mean = math.exp(-1.0) * (1.0 + 1e-9) / tau
        with pytest.raises(ApproximationBreakdownError):
            invert_moments(mean, mean - 2.0 * tau * mean ** 2)


    def test_underflowing_mean_square_is_breakdown(self):
        # 2 mean^2 underflows to 0, so tau' has no finite value.
        with pytest.raises(ApproximationBreakdownError):
            invert_moments(1e-160, 1e-160)


def _round_trip(mean, tau):
    """lambda' tau' from inverting the model's own moments at (mean, tau),
    and the relative residual of mean = lambda' e^{-lambda' tau'}."""
    lam_fit, tau_fit = invert_moments(mean, mean - 2.0 * tau * mean ** 2)
    fitted_mean = lam_fit * math.exp(-lam_fit * tau_fit)
    return lam_fit * tau_fit, abs(fitted_mean - mean) / mean


# SHA-256 of the PMF bytes from the series summed over every order up to
# M: dropping the orders whose terms all underflow to 0.0 moves no bit.
# (5, 0.001) has M = 1001 and (2, 0.4) has lambda * tau = 0.8.
PMF_DIGESTS = {
    (0.5, 0.001):
        "c7995ba417050f9af7f67151d560373f0ef62676c7385bcde1426dc9519b864c",
    (10.0, 0.002):
        "ba94b02f34b05937efc1a00c9e1f9b065493bd7a0c2c89ab3a7cfd39ba028326",
    (10.0, 0.05):
        "663fa49852139de29e4b990c647d3f6e5a1f7254c52db8a5d9462bcc246886ad",
    (5.0, 0.001):
        "500ef77c3bdfc46a694910e67e51b7a9825a49e5ea03b796496c031e6a7edcdc",
    (2.0, 0.4):
        "1edc0fc5aa7ce7fd4d73c7f37bfd304579c78392a8040f4f3d0e1dbc682cce16",
}


@pytest.mark.parametrize("lam,tau", PMF_DIGESTS)
def test_pmf_bytes_pinned(lam, tau):
    pmf = subpoisson_pmf(lam, tau).pmf
    assert hashlib.sha256(pmf.tobytes()).hexdigest() == PMF_DIGESTS[lam, tau]


EPS = np.finfo(float).eps
INV_E = math.exp(-1.0)  # rounds above 1/e, so -INV_E is just below -1/e


def _w0_ref(z):
    """W0(z) in 50 digits; the real part where the float z lies below
    -1/e, off the real domain by less than an ulp."""
    with mpmath.workdps(50):
        return mpmath.lambertw(mpmath.mpf(z)).real


def _w0_grid():
    rng = np.random.default_rng(7)
    return [0.0, -5e-324, -1e-310, -2.2e-308, -1e-200, -1e-20,
            *-np.logspace(-15.0, 0.0, 200) * INV_E,
            *-rng.uniform(0.0, INV_E, 400),
            *(-INV_E + k * 2.0 ** -54 for k in range(0, 400, 7)),
            *(-INV_E * (1.0 - 10.0 ** -k) for k in range(1, 17))]


class TestLambertW0:
    """The Halley W0 behind invert_moments, against 50-digit mpmath."""

    def test_matches_mpmath(self):
        # One rounding of z moves W0 by |W0| / |1 + W0| relative, which
        # grows without bound at the branch point.
        for z in _w0_grid():
            w, ref = _lambert_w0(float(z)), _w0_ref(z)
            cond = 1.0 + 1.0 / max(abs(1.0 + float(ref)), 1e-300)
            assert abs(w - ref) <= 4.0 * EPS * abs(ref) * cond, z

    def test_residual_within_rounding(self):
        # w e^w reproduces z to rounding, branch point included.
        for z in _w0_grid():
            w = _lambert_w0(float(z))
            with mpmath.workdps(50):
                residual = abs(mpmath.mpf(w) * mpmath.exp(w) - mpmath.mpf(z))
            assert residual <= 2.0 * EPS * abs(z), z

    def test_endpoints(self):
        assert _lambert_w0(0.0) == 0.0
        assert _lambert_w0(-INV_E) == -1.0
        assert _lambert_w0(-5e-324) == -5e-324  # W0(z) = z - z^2 + ...
        assert -1.0 < _lambert_w0(-INV_E + 2.0 ** -54) < -1.0 + 1e-7
