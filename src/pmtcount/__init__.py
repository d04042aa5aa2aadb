"""Photon-counting receiver model with dead-time and finite-rate sampling.

Library layout:
  params     parameter types, Gaussian tail function
  subpoisson ideal dead-time counting distribution and moment fitting
  moments    analytic moments across noise regimes, binomial approximation
  simulate   event-level Monte Carlo of the receiver chain
  detector   ML OOK detection, analytic and Monte Carlo error probability
  design     KL distances and (xi*, tau*) selection
  cli        batch experiment harness (CSV sweeps)
"""

from .params import (ChannelParams, DerivedParams, ReceiverConfig,
                     derive_params, gaussian_q)
from .subpoisson import (SeriesBreakdownError, SubPoissonDist, invert_moments,
                         subpoisson_moments, subpoisson_pmf)
from .moments import (ApproximationBreakdownError, BinomialApprox,
                      CountMoments, Regime, binomial_approx, fit_binomial,
                      moments_approx_noiseless, moments_exact_noiseless,
                      moments_full, moments_shot)
from .simulate import (count_rising_edges, hist_moments, ideal_counts_hist,
                       simulate_counts_hist)
from .detector import (MlRule, ber_mc, build_rule, build_rule_from_fit,
                       error_prob_analytic, ml_threshold_general)
from .design import (ConditionFlags, DegenerateKlError, DesignResult,
                     check_conditions, kl_approx_01, kl_equal_n,
                     kl_general_n, kl_gap_bound, select_params)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
