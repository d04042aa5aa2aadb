"""Hot Monte Carlo kernels of the batch engine: numpy, no Python loops.
The single-trial chain in `simulate` is their reference.

Batch layout (ragged, one entry per arrival): row (m,) the trial of each
arrival, ascending; times (m,) its epoch; amps (m,) its amplitude. Epochs
are sorted within each row by a stable argsort of the float key row + time;
keys closer than their ulp (<= 2^-38 at row 16383) tie and keep their draw
order, so rows stay whole and only such close pairs may stay unsorted.
Thermal noise is drawn later, by a source that receiver_counts calls.
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


def _covered_cells(row, times, amps, n_samp, T, tau):
    """Sorted flat (trial, sample) cells that pulses cover, and their sums."""
    k0 = np.maximum(np.ceil(times / T), 1.0).astype(np.int64)
    k1 = np.minimum(np.ceil((times + tau) / T), n_samp + 1.0).astype(np.int64)
    width = np.maximum(k1 - k0, 0)
    # Pair i of an arrival whose pairs start at cumsum - width: k0 + i - start.
    bins = np.repeat(row * n_samp + k0 - 1 - (np.cumsum(width) - width),
                     width)
    bins += np.arange(bins.size)
    order = np.argsort(bins, kind="stable")
    new = np.diff(bins[order], prepend=-1) != 0
    # bincount sums each cell from 0.0 in (trial, arrival) order.
    pulse = np.repeat(amps, width)[order]
    return bins[order[new]], np.bincount(np.cumsum(new) - 1, weights=pulse)


def receiver_counts(n: int, row: np.ndarray, times: np.ndarray,
                    amps: np.ndarray, noise, n_samp: int, T: float,
                    tau: float, xi: float) -> np.ndarray:
    """Full receiver chain: held pulses -> sampling -> quantize -> edges.

    Sample k = 1..n_samp of trial i (t_k = k T) is cell i * n_samp + k - 1;
    an arrival at t with amplitude a raises it by a if t <= kT < t + tau.
    noise(cells) gives the noise of the sorted covered cells and the
    uncovered cells that cross xi. Counts are the 0->1 transitions, after
    an implicit low state before the symbol."""
    cells, F = _covered_cells(row, times, amps, n_samp, T, tau)
    cell_noise, crossings = noise(cells)
    high = np.concatenate([cells[F + cell_noise >= xi], crossings])
    high.sort(kind="stable")
    # A high cell starts an edge unless its row's previous cell is high.
    edge = (high % n_samp == 0) | (np.diff(high, prepend=-1) != 1)
    return np.bincount(high[edge] // n_samp, minlength=n)
