"""ML detection of OOK symbols from pulse counts via binomial likelihoods."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .moments import BinomialApprox, _full, binomial_approx
from .moments import binom_logpmf  # noqa: F401  (re-exported)
from .params import (ApproximationBreakdownError, ChannelParams,
                     ReceiverConfig, derive_params)
from .simulate import simulate_counts_hist

# Renormalization of the real-N binomial PMF must stay below this at a
# valid operating point.
RENORM_TOL = 1e-6


def binom_pmf_support(approx: BinomialApprox) -> tuple[np.ndarray, float]:
    """Renormalized PMF over n = 0..floor(N) and the renormalization gap.

    Returns (pmf, |Z - 1|) where Z is the unnormalized mass; the gap must
    be small (< RENORM_TOL) for the approximation to be trustworthy. The
    PMF is computed once per approx and shared, so it is read-only: copy
    it before writing.
    """
    return approx.support_pmf


@dataclass(frozen=True)
class MlRule:
    """Count-threshold decision rule: decide 1 iff n_s > n_th.

    Ties (n_s = n_th) decide 0, consistent with the floor in the
    closed-form threshold.
    """
    n_th: int
    approx0: BinomialApprox
    approx1: BinomialApprox

    def __post_init__(self):
        if self.n_th < 0:
            raise ValueError("threshold must be nonnegative")
        if self.n_th >= min(self.approx0.N, self.approx1.N):
            raise ApproximationBreakdownError(
                "threshold beyond binomial support")


def ml_threshold(n_hat1: float, n_hat0: float, T: float) -> int:
    """Closed-form ML count threshold at the tau* = T operating point.

    Both binomials then have N = 1/(3T) and P_i = 3T * n_hat_i. Setting the
    log-likelihood ratio to zero gives

        n_th = floor( (1/(3T)) * log(r) / (log(n_hat1/n_hat0) + log(r)) ),
        r = (1 - 3T n_hat0) / (1 - 3T n_hat1)   (> 1, so log r > 0).
    """
    if not (0.0 < n_hat0 < n_hat1):
        raise ValueError("need 0 < n_hat0 < n_hat1 (separable hypotheses)")
    if 3.0 * T * n_hat1 >= 1.0:
        raise ValueError("3T * n_hat1 must be < 1")
    log_r = math.log((1.0 - 3.0 * T * n_hat0) / (1.0 - 3.0 * T * n_hat1))
    n_th = math.floor((1.0 / (3.0 * T)) * log_r
                      / (math.log(n_hat1 / n_hat0) + log_r))
    if not (0 <= n_th < 1.0 / (3.0 * T)):
        raise ValueError(f"threshold {n_th} outside [0, 1/(3T))")
    return int(n_th)


def ml_threshold_general(approx0: BinomialApprox,
                         approx1: BinomialApprox) -> int:
    """Brute-force ML threshold for two binomials with arbitrary real N.

    Largest n in the common support whose likelihood ratio favors
    hypothesis 0; the log-likelihood ratio is monotone in n so this is the
    exact ML rule boundary.
    """
    n_max = int(math.floor(min(approx0.N, approx1.N)))
    llr = (approx1.support_logpmf[:n_max + 1]
           - approx0.support_logpmf[:n_max + 1])
    below = np.nonzero(llr < 0.0)[0]
    return int(below[-1]) if below.size else 0


def _binomial_pair(channel: ChannelParams, cfg: ReceiverConfig
                   ) -> tuple[BinomialApprox, BinomialApprox]:
    """The moment-matched binomials of both hypotheses at (channel, cfg),
    from one derive_params(cfg)."""
    d = derive_params(cfg)
    return (binomial_approx(_full(channel.lambda0, cfg, d), d),
            binomial_approx(_full(channel.lambda1, cfg, d), d))


def build_rule(channel: ChannelParams, cfg: ReceiverConfig) -> MlRule:
    """Detection rule from analytic moments (the default pipeline)."""
    return build_rule_from_fit(*_binomial_pair(channel, cfg))


def build_rule_from_fit(b0: BinomialApprox, b1: BinomialApprox) -> MlRule:
    """Detection rule from externally fitted binomial parameters."""
    return MlRule(n_th=ml_threshold_general(b0, b1), approx0=b0, approx1=b1)


def classify(n_s: int, rule: MlRule) -> int:
    """Decide the OOK symbol for a pulse count."""
    return 1 if n_s > rule.n_th else 0


def error_prob_analytic(rule: MlRule) -> float:
    """Symbol error probability under the binomial likelihoods.

    p_e = [P(n <= n_th | approx1) + P(n > n_th | approx0)] / 2, summed
    over the renormalized integer supports.
    """
    pmf1, _ = binom_pmf_support(rule.approx1)
    pmf0, _ = binom_pmf_support(rule.approx0)
    miss = pmf1[:rule.n_th + 1].sum()
    false_alarm = pmf0[rule.n_th + 1:].sum()
    return float(0.5 * (miss + false_alarm))


def ber_mc(channel: ChannelParams, cfg: ReceiverConfig, symbols: int,
           seed: int | tuple, workers: int = 1,
           rule: MlRule | None = None) -> tuple[float, float]:
    """Monte Carlo bit error rate over i.i.d. equiprobable OOK symbols.

    Hypothesis h runs on the stream key `seed` extended by h (an int s
    gives (s, 0) and (s, 1); see `simulate`), applies the rule built from
    analytic moments unless one is supplied, and returns (ber,
    binomial-proportion standard error).
    """
    if symbols < 1:
        raise ValueError("symbols must be >= 1")
    if rule is None:
        rule = build_rule(channel, cfg)
    n0 = symbols // 2
    n1 = symbols - n0
    key = seed if isinstance(seed, tuple) else (seed,)
    errors = 0
    if n0:
        h0 = simulate_counts_hist(channel.lambda0, cfg, n0, (*key, 0), workers)
        errors += int(h0[rule.n_th + 1:].sum())
    h1 = simulate_counts_hist(channel.lambda1, cfg, n1, (*key, 1), workers)
    errors += int(h1[:rule.n_th + 1].sum())
    ber = errors / symbols
    std_error = math.sqrt(max(ber * (1.0 - ber), 1.0 / symbols) / symbols)
    return ber, std_error
