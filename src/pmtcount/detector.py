"""ML detection of OOK symbols from pulse counts via binomial likelihoods."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .moments import BinomialApprox, binomial_approx, moments_full
from .params import ApproximationBreakdownError, ChannelParams, ReceiverConfig
# Unused here (ber_mc draws through simulate_counts_hists); imported only
# so perfbench's tracer can wrap it at detector: CI fails on an absent span.
from .simulate import simulate_counts_hist, simulate_counts_hists


@dataclass(frozen=True)
class MlRule:
    """Count-threshold decision rule: decide 1 iff n_s > n_th.

    n_th is the largest count at which hypothesis 0 is strictly more
    likely, so a tie (n_s = n_th) decides 0.
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


def build_rule(channel: ChannelParams, cfg: ReceiverConfig) -> MlRule:
    """Detection rule from analytic moments (the default pipeline)."""
    return build_rule_from_fit(
        binomial_approx(moments_full(channel.lambda0, cfg), cfg.derived),
        binomial_approx(moments_full(channel.lambda1, cfg), cfg.derived))


def build_rule_from_fit(b0: BinomialApprox, b1: BinomialApprox) -> MlRule:
    """Detection rule from externally fitted binomial parameters."""
    return MlRule(n_th=ml_threshold_general(b0, b1), approx0=b0, approx1=b1)


def error_prob_analytic(rule: MlRule) -> float:
    """Symbol error probability under the binomial likelihoods.

    p_e = [P(n <= n_th | approx1) + P(n > n_th | approx0)] / 2, summed
    over the renormalized integer supports.
    """
    pmf1, _ = rule.approx1.support_pmf
    pmf0, _ = rule.approx0.support_pmf
    miss = pmf1[:rule.n_th + 1].sum()
    false_alarm = pmf0[rule.n_th + 1:].sum()
    return float(0.5 * (miss + false_alarm))


def ber_mc(channel: ChannelParams, cfg: ReceiverConfig, symbols: int,
           seed: int | tuple, workers: int = 1,
           rule: MlRule | None = None) -> tuple[float, float]:
    """Monte Carlo bit error rate over i.i.d. equiprobable OOK symbols.

    Hypothesis h runs on the stream key `seed` extended by h (an int s
    gives (s, 0) and (s, 1); see `simulate`); both are drawn in one pass.
    Applies the rule built from analytic moments unless one is supplied,
    and returns (ber, binomial-proportion standard error).
    """
    if symbols < 1:
        raise ValueError("symbols must be >= 1")
    if rule is None:
        rule = build_rule(channel, cfg)
    n0 = symbols // 2
    n1 = symbols - n0
    key = seed if isinstance(seed, tuple) else (seed,)
    runs = [(channel.lambda0, n0, (*key, 0)), (channel.lambda1, n1, (*key, 1))]
    *h0, h1 = simulate_counts_hists(runs if n0 else runs[1:], cfg, workers)
    errors = (sum(int(h[rule.n_th + 1:].sum()) for h in h0)
              + int(h1[:rule.n_th + 1].sum()))
    ber = errors / symbols
    std_error = math.sqrt(max(ber * (1.0 - ber), 1.0 / symbols) / symbols)
    return ber, std_error
