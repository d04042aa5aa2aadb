"""KL-distance computation and (xi*, tau*) selection.

The operating point is chosen to maximize the minimum of the two KL
distances between the binomial count models for the OOK hypotheses
(Chernoff-Stein rationale). When the asymmetry and holding-time
conditions hold, the tractable fast path fixes tau* = T and maximizes an
approximate D(P0||P1) over xi alone. Both paths take the first maximum
of their objective on the (xi, tau) grid.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .detector import build_rule, error_prob_analytic
from .moments import (BinomialApprox, _bracket, _mean_le, _n_p,
                      binomial_approx, moments_full)
from .params import (ApproximationBreakdownError, ChannelParams,
                     ReceiverConfig, derive_params)

# Ceiling on the KL gap D01(tau) - D01(T) under the stated parameter box.
KL_GAP_CEILING = 0.0102

# Probability mass allowed on excluded (n >= k) terms of the expectation
# in the general-N KL distance at a valid operating point.
EXCLUDED_MASS_TOL = 1e-6

# Size of the default (xi, tau) search grid.
_XI_POINTS = 64
_TAU_MULTIPLES = 10


class DegenerateKlError(ApproximationBreakdownError):
    """Raised for P in {0, 1} exactly (infinite KL distance)."""


def _check_probs(*approxes: BinomialApprox):
    for b in approxes:
        if not (0.0 < b.P < 1.0):
            raise DegenerateKlError(f"binomial P={b.P} gives infinite KL")
        if b.N <= 0.0:
            raise ValueError(f"binomial N={b.N} must be positive")


def kl_equal_n(b0: BinomialApprox, b1: BinomialApprox) -> tuple[float, float]:
    """KL distances between Binomial(N, P0) and Binomial(N, P1), equal N.

    D(P0||P1) = N [P0 log(P0/P1) + (1-P0) log((1-P0)/(1-P1))], and the
    symmetric counterpart.
    """
    if abs(b0.N - b1.N) > 1e-9 * max(b0.N, b1.N):
        raise ValueError(f"trial counts differ: {b0.N} vs {b1.N}")
    _check_probs(b0, b1)
    N = b0.N
    return _kl_base(N, b0.P, N, b1.P), _kl_base(N, b1.P, N, b0.P)


def _kl_base(Na, Pa, Nb, Pb, xp=math):
    """D(Pa||Pb) less the log-binomial-coefficient term, 0 only at Na == Nb;
    the full path omits it where floor(Na) == floor(Nb); xp=np for arrays."""
    return (Na * Pa * xp.log(Pa / Pb)
            + Na * (1.0 - Pa) * (xp.log1p(-Pa) - xp.log1p(-Pb))
            + (Na - Nb) * xp.log1p(-Pb))


def _kl_directed(ba: BinomialApprox, bb: BinomialApprox) -> tuple[float, float]:
    """D(Pa||Pb) for real-valued trial counts, plus excluded mass.

    Uses the identity log[C(Na,n)/C(Nb,n)] = sum over integer
    k in (Nb, Na] of log(k/(k-n)) (negated when Na < Nb); the expectation
    over n ~ Pa is computed exactly on the integer support. Terms with
    n >= k are excluded and their conditioning mass reported.
    """
    _check_probs(ba, bb)
    Na, Nb = ba.N, bb.N
    base = _kl_base(Na, ba.P, Nb, bb.P)
    lo, hi = (Nb, Na) if Na >= Nb else (Na, Nb)
    ks = np.arange(math.floor(lo) + 1, math.floor(hi) + 1)
    if ks.size == 0:
        return base, 0.0
    pmf_a, _ = ba.support_pmf
    # Only rows n < ks[0] have every term; the rest are excluded mass.
    n = np.arange(min(pmf_a.size, ks[0]))
    log_sum = np.log(ks[None, :] / (ks[None, :] - n[:, None])).sum(axis=1)
    excluded = float(pmf_a[n.size:].sum())
    expectation = float(pmf_a[:n.size] @ log_sum)
    if Na < Nb:
        expectation = -expectation
    return base + expectation, excluded


def kl_general_n(b0: BinomialApprox, b1: BinomialApprox,
                 mass_tol: float = EXCLUDED_MASS_TOL
                 ) -> tuple[float, float]:
    """KL distances for binomials with (possibly) different trial counts.

    Reduces exactly to kl_equal_n when N0 = N1. Raises if the probability
    mass on excluded expectation terms exceeds mass_tol.
    """
    d01, ex01 = _kl_directed(b0, b1)
    d10, ex10 = _kl_directed(b1, b0)
    if max(ex01, ex10) > mass_tol:
        raise ApproximationBreakdownError(
            f"excluded expectation mass {max(ex01, ex10):.3g} exceeds "
            f"{mass_tol}; KL truncation convention invalid here")
    return d01, d10


def kl_approx_01(b0: BinomialApprox, b1: BinomialApprox) -> float:
    """Tractable approximation of D(P0||P1), the optimization objective.

    D(P0||P1) ~= N1 log((1-P0)/(1-P1))
                 + N0 P0 [log(P0/P1) - log((1-P0)/(1-P1))].
    """
    _check_probs(b0, b1)
    return _kl_approx(b0.N, b0.P, b1.N, b1.P)


def _kl_approx(N0, P0, N1, P1, xp=math):
    log_ratio = xp.log1p(-P0) - xp.log1p(-P1)
    return N1 * log_ratio + N0 * P0 * (xp.log(P0 / P1) - log_ratio)


@dataclass(frozen=True)
class ConditionFlags:
    """Numeric condition checks backing the fast selection path.

    Margins are (bound - value): positive means satisfied.
    """
    kl_asymmetry: bool
    holding_time_ok: bool
    p_bound: bool
    kl_gap_bound: bool
    kl_asymmetry_margin: float
    holding_time_margin: float
    p_bound_margin: float
    kl_gap_value: float


def kl_gap_bound(lambda0p: float, lambda1p: float, tau: float, T: float,
                 alpha: int, P0: float, P1: float, n_hat0: float) -> float:
    """Upper bound on D01(tau) - D01(T), the loss from fixing tau* = T.

    bound = {P0 + lam0' tau [log(1/lam0') + log((2 alpha + 3) lam1' / 3)
             + log(1 - P1)]} * n_hat0.
    """
    bracket = (math.log(1.0 / lambda0p)
               + math.log((2.0 * alpha + 3.0) * lambda1p / 3.0)
               + math.log1p(-P1))
    return (P0 + lambda0p * tau * bracket) * n_hat0


def check_conditions(channel: ChannelParams,
                     cfg: ReceiverConfig) -> ConditionFlags:
    """Evaluate the inequalities licensing the fast tau* = T path."""
    d = cfg.derived
    m0 = moments_full(channel.lambda0, cfg)
    m1 = moments_full(channel.lambda1, cfg)
    n_hat0, n_hat1 = m0.mean, m1.mean
    if n_hat0 <= 0.0 or n_hat1 <= n_hat0:
        return ConditionFlags(False, False, False, False,
                              -math.inf, -math.inf, -math.inf, math.inf)
    tau_eq = m1.tau_equiv
    tau0_eq = 1.5 * cfg.T
    lam0p = (1.0 - d.q) * channel.lambda0
    lam1p = (1.0 - d.q) * channel.lambda1
    alpha = max(d.alpha, 1)

    # Asymmetry: log(n1/n0) > (1 + tau'/tau0') / (1 - 2 tau' n1).
    denom = 1.0 - 2.0 * tau_eq * n_hat1
    if denom <= 0.0:
        kl_asymmetry_margin = -math.inf
    else:
        kl_asymmetry_margin = (math.log(n_hat1 / n_hat0)
                         - (1.0 + tau_eq / tau0_eq) / denom)

    # Holding time: p < 1/2 - log(gamma)/(2(gamma-1)) - gamma tau.
    gamma = n_hat1 / n_hat0
    holding_time_margin = (0.5 - math.log(gamma) / (2.0 * (gamma - 1.0))
                     - gamma * cfg.tau) - d.p

    # Three-part bound on p.
    bound = min(1.0 - math.exp(-((lam1p * cfg.T) ** 3)),
                (1.0 - channel.lambda0 * tau_eq) / (alpha + 0.5),
                1.0 - (2.0 * (alpha - 1) / (2.0 * alpha + 1.0))
                * math.exp(lam0p * (cfg.tau + cfg.T)))
    p_bound_margin = bound - d.p

    try:
        gap = kl_gap_bound(max(lam0p, 1e-300), lam1p, cfg.tau, cfg.T, alpha,
                           binomial_approx(m0, d).P,
                           binomial_approx(m1, d).P, n_hat0)
    except ValueError:
        gap = math.inf

    return ConditionFlags(
        kl_asymmetry=kl_asymmetry_margin > 0.0,
        holding_time_ok=holding_time_margin > 0.0,
        p_bound=p_bound_margin > 0.0,
        kl_gap_bound=gap <= KL_GAP_CEILING,
        kl_asymmetry_margin=kl_asymmetry_margin,
        holding_time_margin=holding_time_margin,
        p_bound_margin=p_bound_margin,
        kl_gap_value=gap,
    )


@dataclass(frozen=True)
class DesignResult:
    """The chosen operating point; skipped_points is the number of grid
    points skipped because the scalar chain raises there."""
    xi_star: float
    tau_star: float
    kl_01: float
    kl_10: float
    conditions: ConditionFlags
    predicted_ber: float
    fast_path: bool
    separable: bool = True
    skipped_points: int = 0


@np.errstate(divide="ignore", invalid="ignore")
def _binomial_grid(lam, cfg, xi, tau):
    """moments_full -> binomial_approx's (N, P) at broadcast (lam, xi, tau),
    tau >= T, and a mask that is False where that chain would raise."""
    d = derive_params(SimpleNamespace(T=cfg.T, tau=tau, xi=xi, sigma=cfg.sigma,
                                      sigma0=cfg.sigma0))
    tau_eq = tau + cfg.T / 2.0
    lam_p = (1.0 - d.q) * lam
    mean = _mean_le(lam_p, d.p, tau, cfg.T, np)
    c = _bracket(d, lam_p, mean, tau_eq)
    N, P = _n_p(mean, tau_eq, c)
    ok = ((xi > 0.0) & (tau > 0.0) & (tau < 1.0) & (mean > 0.0) & (c < 1.0)
          & (P > 0.0) & (P < 1.0) & (N > mean))
    return N, P, ok


@np.errstate(divide="ignore", invalid="ignore")
def _grid_objective(channel, cfg, xi_grid, taus, fast):
    """select_params' objective on the (tau, xi) grid, -inf where the
    scalar chain raises, and the number of such points."""
    lams = np.array([channel.lambda0, channel.lambda1])[:, None, None]
    (N0, N1), (P0, P1), ok = _binomial_grid(lams, cfg, xi_grid, taus[:, None])
    ok = ok.all(axis=0)
    skipped = int(np.count_nonzero(~ok))
    vals = np.where(ok, _kl_approx(N0, P0, N1, P1, np) if fast else
                    np.minimum(_kl_base(N0, P0, N1, P1, np),
                               _kl_base(N1, P1, N0, P0, np)), -math.inf)
    if not fast:
        # Unequal integer parts need the general-N expectation term.
        for i in zip(*np.nonzero(ok & (np.floor(N0) != np.floor(N1)))):
            try:
                vals[i] = min(kl_general_n(BinomialApprox(N0[i], P0[i]),
                                           BinomialApprox(N1[i], P1[i])))
            except ApproximationBreakdownError:
                skipped += 1
                vals[i] = -math.inf
    return vals, skipped


def default_xi_grid(cfg: ReceiverConfig) -> np.ndarray:
    """Coarse deterministic grid of _XI_POINTS xi in (max(6 sigma0, 0.05),
    1 + 3 sigma)."""
    lo = max(6.0 * cfg.sigma0, 0.05)
    hi = 1.0 + 3.0 * cfg.sigma
    return np.linspace(lo, hi, _XI_POINTS + 1, endpoint=False)[1:]


def default_tau_grid(cfg: ReceiverConfig) -> np.ndarray:
    """tau candidates {T, 2T, ..., _TAU_MULTIPLES T} below the symbol."""
    taus = cfg.T * np.arange(1, _TAU_MULTIPLES + 1)
    return taus[taus < 1.0]


def _finite(grid, name: str) -> np.ndarray:
    """A user grid as a float array; ValueError on NaN or infinite entries."""
    grid = np.asarray(grid, dtype=float)
    if not np.isfinite(grid).all():
        raise ValueError(f"{name} grid entries must be finite")
    return grid


def select_params(channel: ChannelParams, cfg_template: ReceiverConfig,
                  xi_grid=None, tau_grid=None,
                  force_full: bool = False) -> DesignResult:
    """Select (xi*, tau*) by the max-min-KL criterion.

    Fast path (conditions satisfied): tau* = T, grid search on xi
    maximizing the approximate D(P0||P1). Full path: maximize
    min(D01, D10) from the exact general-N KL over the (xi, tau) grid.
    Both paths take the grid's first maximum in tau-major order;
    breakdown points are skipped and counted. The grid is evaluated in
    one numpy pass; the scalar chain (the batched pass's oracle) reports
    the chosen point. A user grid with a NaN or infinite entry raises
    ValueError.
    """
    T = cfg_template.T
    xi_grid = default_xi_grid(cfg_template) if xi_grid is None \
        else _finite(xi_grid, "xi")
    if tau_grid is None:
        tau_grid = default_tau_grid(cfg_template)
    else:
        tau_grid = _finite(tau_grid, "tau")
        k = tau_grid / T
        if np.any((np.abs(k - np.round(k)) > 1e-9) | ((0.0 < k) & (k < 1.0))):
            raise ValueError("tau grid must contain integer multiples of T")
    if xi_grid.size == 0 or tau_grid.size == 0:
        raise ValueError("grids must be nonempty")

    def cfg_at(xi, tau):
        return ReceiverConfig(T, float(tau), float(xi), cfg_template.sigma,
                              cfg_template.sigma0)

    # The fast-path test and the degenerate result read the grid median.
    if not force_full or channel.lambda_s == 0.0:
        xi_sorted, mid = np.sort(xi_grid, axis=None), xi_grid.size // 2
        # np.median, bitwise: the middle value or the mean of the two.
        mid_cfg = cfg_at(xi_sorted[mid] if xi_grid.size % 2
                         else (xi_sorted[mid - 1] + xi_sorted[mid]) / 2.0, T)
        cond_mid = check_conditions(channel, mid_cfg)
    if channel.lambda_s == 0.0:
        return DesignResult(xi_star=mid_cfg.xi, tau_star=T, kl_01=0.0,
                            kl_10=0.0, conditions=cond_mid, predicted_ber=0.5,
                            fast_path=False, separable=False)
    fast = (not force_full and cond_mid.kl_asymmetry
            and cond_mid.holding_time_ok and cond_mid.p_bound)

    taus = np.array([T]) if fast else tau_grid
    vals, skipped = _grid_objective(channel, cfg_template, xi_grid, taus, fast)
    # First maximum in tau-major order, as a `v > best` scan finds it.
    vals = np.where(np.isnan(vals), -math.inf, vals).ravel()
    best = int(np.argmax(vals))
    if vals[best] == -math.inf:
        raise ApproximationBreakdownError(
            "no valid operating point on the (xi, tau) grid")
    i_tau, i_xi = divmod(best, xi_grid.size)
    tau_star, xi_star = taus[i_tau], xi_grid[i_xi]

    cfg_star = cfg_at(xi_star, tau_star)
    cond = check_conditions(channel, cfg_star)
    rule = build_rule(channel, cfg_star)
    kl01, kl10 = kl_general_n(rule.approx0, rule.approx1)
    ber = error_prob_analytic(rule)
    return DesignResult(xi_star=float(xi_star), tau_star=float(tau_star),
                        kl_01=kl01, kl_10=kl10, conditions=cond,
                        predicted_ber=ber, fast_path=fast,
                        skipped_points=skipped)
