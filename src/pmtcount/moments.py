"""Analytic count moments for the finite-sampling-rate receiver.

Covers the noiseless exact and approximate forms, the shot-noise-only
approximations, the shot+thermal forms, and the moment-matched binomial
approximation of the count likelihood. Two sampling regimes throughout:
T > tau (sampling period longer than the held pulse) and T <= tau.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .params import (ApproximationBreakdownError, DerivedParams,
                     ReceiverConfig, check_rate)


class Regime(enum.Enum):
    T_GT_TAU = "T>tau"
    T_LE_TAU = "T<=tau"


@dataclass(frozen=True)
class CountMoments:
    """First two moments of the recorded pulse count n_s.

    lambda_equiv / tau_equiv are the parameters of the ideal sub-Poisson
    model matching these moments: tau' = 3T/2 for T > tau, tau + T/2 for
    T <= tau. approx_valid is False when the operating point is outside
    the small-(lambda T, lambda tau) validity region or the approximate
    variance came out nonpositive, and in the shot-noise models when xi >= 1:
    pile-up then decides crossings, not the one-pulse thinning q. The
    noiseless models count every unit pulse, so they are invalid when
    xi > 1 (a sample crosses when it reaches xi, so xi = 1 is still valid).
    """
    mean: float
    variance: float
    regime: Regime
    lambda_equiv: float
    tau_equiv: float
    approx_valid: bool = True


@dataclass(frozen=True)
class BinomialApprox:
    """Binomial(N, P) moment-matched to a count distribution; N stays real.

    Its log PMF and renormalized PMF over n = 0..floor(N) are computed on
    first use and shared, read-only, by every later reader.
    """
    N: float
    P: float

    @property
    def mean(self) -> float:
        return self.N * self.P

    @property
    def variance(self) -> float:
        return self.N * self.P * (1.0 - self.P)

    @cached_property
    def support_logpmf(self) -> np.ndarray:
        """binom_logpmf over n = 0..floor(N)."""
        logpmf = binom_logpmf(np.arange(int(math.floor(self.N)) + 1), self)
        logpmf.flags.writeable = False
        return logpmf

    @cached_property
    def support_pmf(self) -> tuple[np.ndarray, float]:
        """The PMF over n = 0..floor(N) divided by its mass Z, and the
        renormalization gap |Z - 1|."""
        pmf = np.exp(self.support_logpmf)
        z = pmf.sum()
        pmf /= z
        pmf.flags.writeable = False
        return pmf, abs(z - 1.0)


def binom_logpmf(n: np.ndarray, approx: BinomialApprox) -> np.ndarray:
    """Log PMF of Binomial(N, P) with real-valued N via log-gamma.

    Defined on integer n in [0, floor(N)]; not renormalized (see
    BinomialApprox.support_pmf for the renormalized mass).
    """
    n = np.asarray(n, dtype=float)
    N, P = approx.N, approx.P
    k = (n + 1.0).ravel().tolist() + (N - n + 1.0).ravel().tolist()
    lg = np.fromiter(map(math.lgamma, k), float, len(k)).reshape(2, *n.shape)
    return (math.lgamma(N + 1.0) - lg[0] - lg[1]
            + n * math.log(P) + (N - n) * math.log1p(-P))


def _frame(lam: float, cfg: ReceiverConfig) -> tuple[Regime, float]:
    """cfg's sampling regime and equivalent dead time tau' (tau + T/2 for
    T <= tau, 3T/2 for T > tau), once lam is checked finite and >= 0."""
    check_rate(lam)
    if cfg.T <= cfg.tau:
        return Regime.T_LE_TAU, cfg.tau + cfg.T / 2.0
    return Regime.T_GT_TAU, 1.5 * cfg.T


def _in_validity(lam: float, cfg: ReceiverConfig) -> bool:
    return lam * cfg.tau < 0.5 and lam * cfg.T < 0.5


def moments_exact_noiseless(lam: float, cfg: ReceiverConfig) -> CountMoments:
    """Exact mean and second moment of n_s with no shot or thermal noise.

    T > tau:  mean = e^{-lam tau}(1 - e^{-lam tau})/T,
              E[n_s^2] = mean + mean^2 (1 - 3T + 2T^2).
    T <= tau: mean = e^{-lam tau}(1 - e^{-lam T})/T, second moment with the
              alpha/delta correlation terms of adjacent-window counting.
    1 - e^{-lam t} is taken as -expm1(-lam t), 0 only where lam t underflows.
    """
    regime, tau_eq = _frame(lam, cfg)
    T, tau = cfg.T, cfg.tau
    if regime is Regime.T_GT_TAU:
        mean = math.exp(-lam * tau) * -math.expm1(-lam * tau) / T
        second = mean + mean * mean * (1.0 - 3.0 * T + 2.0 * T * T)
        lam_eq = tau * lam / T
    else:
        denom = -math.expm1(-lam * T)
        mean = math.exp(-lam * tau) * denom / T
        d = cfg.derived
        ratio = -math.expm1(-lam * (T - d.delta)) / denom if denom else 0.0
        bracket = ((1.0 - (d.alpha + 1) * T) * (1.0 - (d.alpha + 2) * T)
                   + 2.0 * T * (1.0 - (d.alpha + 1) * T) * ratio)
        second = mean + mean * mean * bracket
        lam_eq = lam
    return CountMoments(mean, second - mean * mean, regime, lam_eq, tau_eq,
                        approx_valid=cfg.xi <= 1.0)


def _equivalent(lam: float, rate: float, cfg: ReceiverConfig,
                xi_ok: bool) -> CountMoments:
    """The sub-Poisson equivalent model of lam's count at arrival rate
    `rate`: lambda' = rate tau / T (T > tau) or rate (T <= tau), and
    mean = lambda' e^{-lambda' tau'}, var = mean - 2 tau' mean^2."""
    regime, tau_eq = _frame(lam, cfg)
    lam_eq = rate * cfg.tau / cfg.T if regime is Regime.T_GT_TAU else rate
    mean = lam_eq * math.exp(-lam_eq * tau_eq)
    var = mean - 2.0 * tau_eq * mean * mean
    return CountMoments(mean, var, regime, lam_eq, tau_eq,
                        _in_validity(lam, cfg) and var > 0.0 and xi_ok)


def moments_approx_noiseless(lam: float, cfg: ReceiverConfig) -> CountMoments:
    """Small-(lambda T, lambda tau) sub-Poisson approximation, no noise.

    T > tau:  lambda' = tau lam / T, tau' = 3T/2.
    T <= tau: lambda' = lam,         tau' = tau + T/2.
    In both cases mean = lambda' e^{-lambda' tau'} and
    var = mean - 2 tau' mean^2.
    """
    return _equivalent(lam, lam, cfg, cfg.xi <= 1.0)


def moments_shot(lam: float, cfg: ReceiverConfig) -> CountMoments:
    """Approximate moments with shot noise only (sigma0 treated as 0).

    Shot noise thins the arrivals: a pulse sample misses the threshold
    with probability q = Q((1-xi)/sigma), so the equivalent rate becomes
    (1-q) lam (T <= tau) or (1-q) lam tau / T (T > tau); the equivalent
    dead time is unchanged.
    """
    thinned = (1.0 - cfg.derived.q) * lam
    return _equivalent(lam, thinned, cfg, cfg.xi < 1.0)


def _mean_le(lam_p, p, tau, T, xp=math):
    """moments_full's T <= tau mean; xp=np evaluates arrays."""
    return (xp.exp(-lam_p * tau) * (1.0 - p)
            * (1.0 - xp.exp(-lam_p * T) * (1.0 - p)) / T)


def _bracket(d: DerivedParams, lam_p, mean, tau_eq):
    """binomial_approx's T <= tau thermal bracket c; takes arrays too."""
    return (d.p * d.delta / (tau_eq * (lam_p * d.T + d.p))
            + (d.alpha - 1) * d.p / (mean * tau_eq))


def _n_p(mean, tau_eq, c):
    """binomial_approx's (N, P) from the bracket c; takes arrays too."""
    return 1.0 / (2.0 * tau_eq * (1.0 - c)), 2.0 * tau_eq * mean * (1.0 - c)


def moments_full(lam: float, cfg: ReceiverConfig) -> CountMoments:
    """Approximate moments with both shot and thermal noise.

    The shot noise enters only through the modified rate
    lambda' = (1 - q) lam; thermal noise adds false threshold crossings
    with per-sample probability p = Q(xi/sigma0).

    T > tau:  mean = e(1-p)[1 - e(1-p)]/T with e = e^{-lam' tau},
              var = mean + (2T^2 - 3T) mean^2.
    T <= tau: mean = e^{-lam' tau}(1-p)[1 - e^{-lam' T}(1-p)]/T,
              var = mean[1 + 2(alpha-1)p]
                    + 2 mean^2 [-(tau + T/2) + p delta/(lam' T + p)],
              the last term taken as 0 when p = 0.
    """
    regime, tau_eq = _frame(lam, cfg)
    d = cfg.derived
    T, tau, p = cfg.T, cfg.tau, d.p
    lam_p = (1.0 - d.q) * lam
    valid = _in_validity(lam, cfg) and cfg.xi < 1.0
    if regime is Regime.T_GT_TAU:
        e = math.exp(-lam_p * tau)
        mean = e * (1.0 - p) * (-math.expm1(-lam_p * tau) + p * e) / T
        var = mean + (2.0 * T * T - 3.0 * T) * mean * mean
        lam_eq = lam_p * tau / T
    else:
        mean = _mean_le(lam_p, p, tau, T)
        thermal = p * d.delta / (lam_p * T + p) if p > 0.0 else 0.0
        var = (mean * (1.0 + 2.0 * (d.alpha - 1) * p)
               + 2.0 * mean * mean * (-(tau + T / 2.0) + thermal))
        lam_eq = lam_p
    return CountMoments(mean, var, regime, lam_eq, tau_eq, valid and var > 0.0)


def binomial_approx(moments: CountMoments, derived: DerivedParams) -> BinomialApprox:
    """Moment-matched Binomial(N, P) for a count distribution.

    T > tau:  N = 1/(2 tau'), P = 2 tau' mean.
    T <= tau: the thermal correction bracket
              c = p delta / (tau'(lam' T + p)) + (alpha - 1) p / (mean tau')
              gives N = 1/(2 tau' (1 - c)), P = 2 tau' mean (1 - c).
    N P equals the source mean exactly; rejects P outside (0, 1) or
    N <= mean (approximation breakdown).
    """
    n_hat = moments.mean
    if n_hat <= 0.0:
        raise ApproximationBreakdownError("count mean must be positive")
    tau_eq = moments.tau_equiv
    correction = (0.0 if moments.regime is Regime.T_GT_TAU else
                  _bracket(derived, moments.lambda_equiv, n_hat, tau_eq))
    if correction >= 1.0:
        raise ApproximationBreakdownError(
            f"thermal correction bracket {correction} >= 1")
    N, P = _n_p(n_hat, tau_eq, correction)
    if not (0.0 < P < 1.0):
        raise ApproximationBreakdownError(
            f"binomial probability P={P} outside (0, 1) at mean {n_hat}")
    if N <= n_hat:
        raise ApproximationBreakdownError(
            f"binomial trial count N={N} <= mean {n_hat}")
    return BinomialApprox(N=N, P=P)


def fit_binomial(mean: float, var: float) -> BinomialApprox:
    """Binomial(N, P) with the given mean and variance (e.g. measured).

    P = 1 - var/mean and N = mean/P; defined only for a sub-Poisson count,
    so rejects anything but 0 < var < mean (approximation breakdown).
    """
    if not (0.0 < var < mean):
        raise ApproximationBreakdownError(
            f"binomial fit needs 0 < variance < mean, got {var} and {mean}")
    p = 1.0 - var / mean
    return BinomialApprox(N=mean / p, P=p)
