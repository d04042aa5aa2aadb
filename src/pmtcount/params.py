"""Shared parameter types, validation, and the Gaussian tail function.

All quantities are dimensionless: the symbol duration is normalized to 1
and the mean pulse height to 1. The only bridge to physical units is
:func:`thermal_sigma_from_physical`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

_SQRT2 = math.sqrt(2.0)

# Boltzmann constant [J/K], used only by the physical-unit helper.
_BOLTZMANN = 1.380649e-23


def gaussian_q(x):
    """Gaussian tail probability Q(x) = P(Z > x) for standard normal Z.

    Accepts scalars or arrays. Computed as erfc(x/sqrt(2))/2, accurate to
    better than 1e-12 relative for |x| <= 8 and absolutely beyond; clamps
    to 0 in the far tail (Q(40) underflows).
    """
    if np.isscalar(x):
        return 0.5 * math.erfc(x / _SQRT2)
    return 0.5 * special.erfc(np.asarray(x, dtype=float) / _SQRT2)


class ApproximationBreakdownError(ValueError):
    """Raised when an approximation of the count model has no valid
    parameters at the requested point; the CLI maps it to exit 3."""


def check_rate(lam: float) -> None:
    """Raise ValueError unless the arrival rate lam is finite and >= 0."""
    if not 0.0 <= lam < math.inf:
        raise ValueError(f"lambda={lam} must be finite and nonnegative")


def check_tau(tau: float) -> None:
    """Raise ValueError unless the holding time tau is in (0, 1)."""
    if not 0.0 < tau < 1.0:
        raise ValueError(f"holding time tau={tau} must be in (0, 1)")


def thermal_sigma_from_physical(temperature_k: float, symbol_duration_s: float,
                                load_resistance_ohm: float) -> float:
    """Normalized thermal-noise std dev from physical receiver parameters.

    sigma0^2 = 2 * k_B * T0 * Ts / R, with T0 in kelvin, Ts in seconds and
    R in ohms. Returned value feeds ReceiverConfig.sigma0 directly.
    """
    if not all(0.0 < v < math.inf for v in (temperature_k, symbol_duration_s,
                                            load_resistance_ohm)):
        raise ValueError("physical parameters must be positive and finite")
    return math.sqrt(2.0 * _BOLTZMANN * temperature_k * symbol_duration_s
                     / load_resistance_ohm)


@dataclass(frozen=True)
class ReceiverConfig:
    """Receiver chain parameters, normalized to one symbol.

    T       sampling period as a fraction of the symbol; 1/T must be an
            integer sample count.
    tau     holding (dead) time of the pulse-holding circuit, in (0, 1).
    xi      quantizer decision threshold, normalized to unit pulse height.
    sigma   std dev of the random pulse amplitude (shot noise), >= 0.
    sigma0  std dev of the additive per-sample thermal noise, >= 0.
    """
    T: float
    tau: float
    xi: float
    sigma: float = 0.0
    sigma0: float = 0.0

    def __post_init__(self):
        if not (0.0 < self.T <= 1.0):
            raise ValueError(f"sampling period T={self.T} must be in (0, 1]")
        n_samp = 1.0 / self.T
        if abs(n_samp - round(n_samp)) > 1e-9 * n_samp:
            raise ValueError(f"1/T = {n_samp} is not an integer sample count")
        check_tau(self.tau)
        if not 0.0 < self.xi < math.inf:
            raise ValueError(f"threshold xi={self.xi} must be positive "
                             "and finite")
        if not (0.0 <= self.sigma < math.inf and 0.0 <= self.sigma0 < math.inf):
            raise ValueError("noise std devs must be nonnegative and finite")

    @property
    def n_samples(self) -> int:
        """Number of ADC samples per symbol."""
        return int(round(1.0 / self.T))


@dataclass(frozen=True)
class ChannelParams:
    """OOK photon arrival rates per symbol.

    lambda0 is the background (symbol 0) rate, lambda1 = lambda_s + lambda0
    the symbol-1 rate.
    """
    lambda0: float
    lambda1: float

    def __post_init__(self):
        if not (0.0 <= self.lambda0 <= self.lambda1 < math.inf
                and self.lambda1 > 0.0):
            raise ValueError("need finite lambda1 >= lambda0 >= 0 and "
                             "lambda1 > 0")

    @property
    def lambda_s(self) -> float:
        return self.lambda1 - self.lambda0


@dataclass(frozen=True)
class DerivedParams:
    """Quantities derived from a ReceiverConfig.

    q      probability a unit-mean pulse sample falls below threshold,
           Q((1 - xi) / sigma).
    p      probability a noise-only sample exceeds threshold, Q(xi / sigma0).
    alpha  floor(tau / T): whole sampling periods covered by the dead time.
    delta  remainder tau - alpha*T in [0, T).
    T      the sampling period alpha and delta are counted in.
    """
    q: float
    p: float
    alpha: int
    delta: float
    T: float


def derive_params(cfg) -> DerivedParams:
    """Compute (q, p, alpha, delta, T) for a validated receiver config.

    cfg may also be any object with ReceiverConfig's fields whose xi and
    tau are broadcast arrays: q and p then follow xi, alpha (as floats)
    and delta tau. The floor for alpha is nudged by 1e-12 so that tau at
    an exact multiple of T (the tau* = T operating point) gives delta = 0.
    """
    xi, tau, T = cfg.xi, cfg.tau, cfg.T
    q = (gaussian_q((1.0 - xi) / cfg.sigma) if cfg.sigma > 0.0
         else 1.0 - (xi < 1.0))  # a step at xi = 1
    p = gaussian_q(xi / cfg.sigma0) if cfg.sigma0 > 0.0 else 0.0
    xp = np if isinstance(tau, np.ndarray) else math
    alpha = xp.floor(tau / T + 1e-12)
    delta = tau - alpha * T  # clipped at 0 below, for floats and arrays
    return DerivedParams(q, p, alpha, (delta + abs(delta)) / 2.0, T)
