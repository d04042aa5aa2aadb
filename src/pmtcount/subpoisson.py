"""Dead-time-modified Poisson counting statistics (ideal infinite-rate receiver).

The counting law for a Poisson arrival stream censored by a (paralyzable)
dead time tau is sub-Poisson: variance below the mean. The PMF is an
alternating series that cancels catastrophically as lam grows, so terms
are evaluated in log magnitude, and each P(n) sums exactly, with math.fsum,
the terms within reach of its rounded value.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .params import (ApproximationBreakdownError, _elementwise, check_rate,
                     check_tau)

_NORMALIZATION_TOL = 1e-4
_NEGATIVE_CLAMP = -1e-9


class SeriesBreakdownError(ApproximationBreakdownError):
    """Raised when the PMF series' largest term leaves no digit of P(n)
    after rounding, or the summed PMF misses normalization."""


@dataclass(frozen=True)
class SubPoissonDist:
    """Counting distribution of recorded pulses in one symbol.

    pmf[n] for n = 0..M with M = floor(1/tau) + 1, the maximum number of
    countable pulses.
    """
    lam: float
    tau: float
    M: int
    pmf: np.ndarray

    def mean(self) -> float:
        return float(np.arange(self.M + 1) @ self.pmf)

    def variance(self) -> float:
        n = np.arange(self.M + 1)
        m = self.mean()
        return float((n * n) @ self.pmf - m * m)


def subpoisson_pmf(lam: float, tau: float) -> SubPoissonDist:
    """Evaluate the dead-time counting PMF.

    P(n) = sum_{m=0}^{M-n} (-1)^m / (n! m!) * [(1-(n+m-1)tau) lam e^{-lam tau}]^{n+m}

    with the n = m = 0 term defined as 1. The terms cancel by about
    e^{2 lam}, whatever lam * tau is. The series is rejected
    (SeriesBreakdownError) before any term is summed if its largest term
    exceeds 1/eps, so that its rounding error exceeds every P(n), and
    after summing if the PMF misses unit normalization by more than 1e-4;
    the moments stay closed-form for all inputs.
    """
    check_rate(lam)
    check_tau(tau)

    M = int(math.floor(1.0 / tau)) + 1
    pmf = _series(lam, tau, M)
    pmf[(pmf < 0.0) & (pmf >= _NEGATIVE_CLAMP)] = 0.0
    total = math.fsum(pmf)
    if abs(total - 1.0) > _NORMALIZATION_TOL or np.any(pmf < 0.0):
        raise SeriesBreakdownError(
            f"PMF series breakdown at lambda={lam}, tau={tau}: "
            f"sum={total!r}, min={float(pmf.min())!r}")
    return SubPoissonDist(lam=lam, tau=tau, M=M, pmf=pmf)


def _series(lam: float, tau: float, M: int) -> np.ndarray:
    """P(0..M) from the alternating series, each row summed exactly over
    the terms that can reach its rounded value. The term block lives only
    in this frame: a SeriesBreakdownError's traceback cannot keep it."""
    pmf = np.zeros(M + 1)
    if lam == 0.0:
        pmf[0] = 1.0
        return pmf
    s = np.arange(M + 1)
    # log [(1-(s-1)tau) lam e^{-lam tau}]^s: 0 at s = 0, -inf once avail <= 0.
    avail = 1.0 - (s - 1) * tau
    with np.errstate(divide="ignore"):
        log_base = s * (np.log(np.maximum(avail, 0.0))
                        + math.log(lam) - lam * tau)

    lg = _elementwise(math.lgamma, s[:(M + 1) // 2 + 1] + 1.0)
    # Order-s terms (n + m = s) peak at the balanced split, log gamma being
    # convex; past the last order S whose peak clears -760, exp gives 0.0.
    # A term above 1/eps rounds by about 1 >= P(n): no digit survives.
    peak = log_base - lg[s // 2] - lg[s - s // 2]
    if peak.max() > -math.log(np.finfo(float).eps):
        raise SeriesBreakdownError(
            f"PMF series terms overflow precision at lambda={lam}, tau={tau}")
    S = int(np.flatnonzero(peak > -760.0)[-1])
    lg = np.append(lg, _elementwise(math.lgamma, s[lg.size:S + 1] + 1.0))
    # Row n of the Hankel terms[n, m] = (-1)^m e^{log_base[n+m]-lg[n]-lg[m]}
    # is a window of the orders (-inf past S).
    orders = np.concatenate([log_base[:S + 1], np.full(S, -np.inf)])
    # Row n sums its first h[n] terms, through the last within depth of the
    # row's largest. Log terms are concave in m, so what goes is a tail of
    # at most S + 1 terms below (row max) e^{-depth}: 2^-80 of the
    # e^{-2 lam} (row max) that the cancellation lets P(n) resolve at best.
    # That this moves no bit is measured, not proven; a 60-bit margin did.
    # Only K columns are built, K doubling until each row ends below its cut.
    depth = 2.0 * lam + math.log(S + 1) + 80.0 * math.log(2.0)
    K = 32
    while True:
        K = min(2 * K, S + 1)
        terms = sliding_window_view(orders, K)[:S + 1] - lg[:S + 1, None]
        np.subtract(terms, lg[:K], out=terms)
        cut = terms.max(axis=1) - depth
        if K > S or np.all(terms[:, -1] < cut):
            break
    flat = memoryview(terms.ravel())
    h = K - np.argmax(terms[:, ::-1] >= cut[:, None], axis=1)  # last m >= cut
    head = terms[:, :h.max()]
    np.exp(head, out=head)
    head[:, 1::2] *= -1.0
    pmf[:S + 1] = [math.fsum(flat[n * K:n * K + k])
                   for n, k in enumerate(h.tolist())]
    return pmf


def subpoisson_moments(lam: float, tau: float) -> tuple[float, float]:
    """Closed-form mean and variance of the dead-time counting law.

    mean = lam e^{-lam tau};  var = mean - [1 - (1-tau)^2] mean^2.
    """
    check_rate(lam)
    check_tau(tau)
    mean = lam * math.exp(-lam * tau)
    var = mean - (1.0 - (1.0 - tau) ** 2) * mean * mean
    return mean, var


def invert_moments(mean: float, variance: float) -> tuple[float, float]:
    """Fit equivalent (lambda', tau') from measured count moments.

    Inverts the small-dead-time moment model

        mean = lambda' e^{-lambda' tau'},  variance = mean - 2 tau' mean^2

    in closed form: tau' = (mean - variance) / (2 mean^2), and with
    x = mean tau', lambda' = -W0(-x) / tau' on the branch lambda' tau' <= 1,
    where W0 is the principal branch of the Lambert W function. A solution
    exists iff x <= 1/e. Raises ValueError on a nonfinite input, and
    ApproximationBreakdownError if no (lambda', tau') matches: mean or
    variance <= 0, variance > mean (super-Poisson), 2 mean^2 below the
    smallest normal float, or x > 1/e.
    """
    if not (math.isfinite(mean) and math.isfinite(variance)):
        raise ValueError(f"moments must be finite, got {mean} and {variance}")
    if mean <= 0.0:
        raise ApproximationBreakdownError("mean must be positive")
    if variance <= 0.0:
        raise ApproximationBreakdownError("variance must be positive")
    if variance > mean * (1.0 + 1e-12):
        raise ApproximationBreakdownError(
            f"variance {variance} exceeds mean {mean}: super-Poisson input, "
            "dead-time model does not apply")

    if 2.0 * mean * mean < np.finfo(float).tiny:
        raise ApproximationBreakdownError(f"2 mean^2 underflows at {mean=}")
    tau_eq = (mean - variance) / (2.0 * mean * mean)
    if tau_eq <= 0.0:
        return mean, 0.0  # Poisson limit
    x = mean * tau_eq
    if x > math.exp(-1.0):
        raise ApproximationBreakdownError(
            f"no lambda' with lambda'*tau' <= 1 reproduces mean={mean} "
            f"at tau'={tau_eq}: mean*tau' = {x} exceeds 1/e")
    return -_lambert_w0(-x) / tau_eq, tau_eq


def _lambert_w0(z: float) -> float:
    """Principal branch W0(z) of the Lambert W function on [-1/e, 0]:
    the root w in [-1, 0] of w e^w = z.

    Halley's iteration from the branch-point series
    w = -1 + p - p^2/3 + 11 p^3/72, p = sqrt(2(e z + 1)), near -1/e, and
    from w = z - z^2 elsewhere; it stops once a step moves w by at most
    1e-8 relative, which the cubic convergence leaves at rounding level.
    A z that rounds to or below -1/e (so that e z + 1 <= 0) gives -1.
    """
    if z == 0.0:
        return z
    p2 = 2.0 * (math.e * z + 1.0)
    if p2 <= 0.0:
        return -1.0
    if p2 < 0.6:
        p = math.sqrt(p2)
        w = -1.0 + p * (1.0 + p * (-1.0 / 3.0 + p * 11.0 / 72.0))
    else:
        w = z - z * z
    for _ in range(20):
        ew = math.exp(w)
        f = w * ew - z
        step = f / (ew * (w + 1.0) - (w + 2.0) * f / (2.0 * w + 2.0))
        w -= step
        if abs(step) <= 1e-8 * abs(w):
            break
    return w
