"""Hot Monte Carlo kernels of the batch engine: numpy, no Python loops.
The single-trial chain in `simulate` is their reference.

receiver_counts scatters every (arrival, covered sample) pair, in (trial,
arrival) order, with one weighted `np.bincount`, which adds sequentially:
each sample sums its pulses from 0.0 in arrival order, then gets its noise,
so the sample values are bitwise those of adding one arrival at a time.

Batch layout: times (trials, max_count) epochs sorted per row, +inf past
counts[row]; counts (trials,); amps (trials, max_count), ignored past
counts; noise (trials, n_samp) thermal noise, or (0, 0) when noiseless.
"""
from __future__ import annotations

import numpy as np


def dead_time_counts(times: np.ndarray, counts: np.ndarray,
                     tau: float) -> np.ndarray:
    """Ideal infinite-rate receiver: paralyzable dead-time censoring. The
    first arrival is recorded, then each whose gap from the previous one
    exceeds tau (the merged pulse train must drop low first)."""
    col = np.arange(1, times.shape[1])
    with np.errstate(invalid="ignore"):  # inf - inf in the padding
        gaps = np.diff(times, axis=1) > tau
    return (counts > 0) + (gaps & (col < counts[:, None])).sum(axis=1)


def _pulse_cells(times, counts, amps, n_samp, T, tau):
    """Flat (trial, sample) bin and amplitude of each covered sample."""
    max_count = times.shape[1]
    flat = np.flatnonzero(np.arange(max_count) < counts[:, None])
    t = times.ravel()[flat]
    k0 = np.maximum(np.ceil(t / T), 1.0).astype(np.int64)
    k1 = np.minimum(np.ceil((t + tau) / T), n_samp + 1.0).astype(np.int64)
    width = np.maximum(k1 - k0, 0)
    # Pair i of an arrival whose pairs start at cumsum - width: k0 + i - start.
    bins = np.repeat(flat // max_count * n_samp + k0 - 1
                     - (np.cumsum(width) - width), width)
    bins += np.arange(bins.size)
    return bins, np.repeat(amps.ravel()[flat], width)


def receiver_counts(times: np.ndarray, counts: np.ndarray,
                    amps: np.ndarray, noise: np.ndarray,
                    n_samp: int, T: float, tau: float,
                    xi: float) -> np.ndarray:
    """Full receiver chain: held pulses -> sampling -> quantize -> edges.

    Samples sit at t_k = k T for k = 1..n_samp; an arrival at t with
    amplitude a raises samples with t <= kT < t + tau by a. A pulse count
    is recorded per 0->1 transition of the quantized stream, with an
    implicit low state before the symbol.
    """
    # The pair arrays die with this call; with no pairs bincount is int64.
    F = np.bincount(*_pulse_cells(times, counts, amps, n_samp, T, tau),
                    minlength=len(times) * n_samp)
    F = F.astype(float, copy=False).reshape(-1, n_samp)
    if noise.size:
        F += noise
    bits = F >= xi
    return bits[:, 0] + (bits[:, 1:] & ~bits[:, :-1]).sum(axis=1)
