"""Hot Monte Carlo kernels of the batch engine: numpy, no Python loops.
The single-trial chain in `simulate` is their reference.

receiver_counts scatters every (arrival, covered sample) pair, in (trial,
arrival) order, with one weighted `np.bincount`, which adds sequentially:
each sample sums its pulses from 0.0 in arrival order, then gets its noise,
so the sample values are bitwise those of adding one arrival at a time.

Batch layout (ragged, one entry per arrival): row (m,) the trial of each
arrival, ascending; times (m,) its epoch; amps (m,) its amplitude; noise
(n, n_samp) thermal noise, or (0, 0) when noiseless. Epochs are sorted
within each row by a stable argsort of the float key row + time; keys
closer than their ulp (<= 2^-38 at row 16383) tie and keep their draw
order, so rows stay whole and only such close pairs may stay unsorted.
"""
from __future__ import annotations

import numpy as np


def dead_time_counts(n: int, row: np.ndarray, times: np.ndarray,
                     tau: float) -> np.ndarray:
    """Ideal infinite-rate receiver: paralyzable dead-time censoring. The
    first arrival of each row is recorded, then each whose gap from the
    previous one exceeds tau (the merged pulse train must drop low first)."""
    recorded = np.diff(row, prepend=-1) != 0
    recorded[1:] |= np.diff(times) > tau
    return np.bincount(row[recorded], minlength=n)


def _pulse_cells(row, times, amps, n_samp, T, tau):
    """Flat (trial, sample) bin and amplitude of each covered sample."""
    k0 = np.maximum(np.ceil(times / T), 1.0).astype(np.int64)
    k1 = np.minimum(np.ceil((times + tau) / T), n_samp + 1.0).astype(np.int64)
    width = np.maximum(k1 - k0, 0)
    # Pair i of an arrival whose pairs start at cumsum - width: k0 + i - start.
    bins = np.repeat(row * n_samp + k0 - 1 - (np.cumsum(width) - width),
                     width)
    bins += np.arange(bins.size)
    return bins, np.repeat(amps, width)


def receiver_counts(n: int, row: np.ndarray, times: np.ndarray,
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
    F = np.bincount(*_pulse_cells(row, times, amps, n_samp, T, tau),
                    minlength=n * n_samp)
    F = F.astype(float, copy=False).reshape(n, n_samp)
    if noise.size:
        F += noise
    bits = F >= xi
    return bits[:, 0] + (bits[:, 1:] & ~bits[:, :-1]).sum(axis=1)
