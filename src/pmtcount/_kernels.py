"""Hot Monte Carlo kernels of the batch engine: numpy, no Python loops over
arrivals, and no sort unless noise flips cells. The single-trial chain in
`tests/test_simulate.py` is their reference.

Batch layout (ragged, one entry per arrival): key (m,) is the int64
row << 49 | epoch of each arrival, where row is its trial and epoch / 2**49
its time in [0, 1); amps (m,) is its amplitude. Keys are sorted, so rows
stay whole and epochs ascend within each row, ties included. The kernels
decode the keys; scaling by 2**49 is exact in float64, so a gap test on keys
decides as one on the float times would. Sample k = 1..n_samp of trial i is
the cell with key i << s | k, s = n_samp.bit_length(): slot 0 of each row
is never a cell, so keys of adjacent cells differ by 1 only within a row.
Thermal noise is drawn later and added to the cell sums in place.
"""
from __future__ import annotations

import numpy as np

# Arrival keys row << 49 | epoch fit int64 while rows take at most 14 bits.
_EPOCH_BITS = 49


def cell_keys(sample: np.ndarray, n_samp: int) -> np.ndarray:
    """Cell keys of flat sample indices i * n_samp + k - 1."""
    pad = (1 << n_samp.bit_length()) - n_samp
    return sample + sample // n_samp * pad + 1


def dead_time_counts(n: int, key: np.ndarray, tau: float) -> np.ndarray:
    """Ideal infinite-rate receiver: paralyzable dead-time censoring. The
    first arrival of each row is recorded, then each whose gap from the
    previous one exceeds tau (the merged pulse train must drop low first)."""
    row = key >> _EPOCH_BITS
    recorded = np.diff(row, prepend=-1) != 0
    recorded[1:] |= np.diff(key) > tau * 2.0 ** _EPOCH_BITS
    return np.bincount(row.compress(recorded), minlength=n)


def _covered_cells(key, amps, n_samp, T, tau):
    """Sorted keys of the cells that pulses cover, and their pulse sums.

    Arrival i covers keys [a_i, b_i). b is nondecreasing, so end_i = sum over
    h <= i of min(width_h, b_h - b_{h-1}) cells lie below b_i. Pass j = W-1
    down to 0 (W the widest) adds pulses wider than j to cell end_i - width_i
    + j, others to a dummy slot: each cell sums from 0.0 in arrival order."""
    base = key >> _EPOCH_BITS << n_samp.bit_length()
    u = (key & ((1 << _EPOCH_BITS) - 1)) * (2.0 ** -_EPOCH_BITS / T)
    a = base + np.maximum(np.ceil(u), 1.0).astype(np.int64)
    b = base + np.minimum(np.ceil(u + tau / T), n_samp + 1.0).astype(np.int64)
    width = np.maximum(b - a, 0)
    first = np.cumsum(np.minimum(width, np.diff(b, prepend=0))) - width
    del u, base, b  # the per-pass arrays below set the peak
    cells = np.empty((first + width).max(initial=0) + 1, np.int64)
    F = np.zeros(cells.size)
    for j in range(width.max(initial=0) - 1, -1, -1):
        at = first + j
        at[width <= j] = cells.size - 1
        cells[at] = a + j
        np.add.at(F, at, amps)
    return cells[:-1], F[:-1]


def receiver_counts(n: int, key: np.ndarray, amps: np.ndarray, noise,
                    n_samp: int, T: float, tau: float, xi: float
                    ) -> np.ndarray:
    """Full receiver chain: held pulses -> sampling -> quantize -> edges.

    An arrival at t with amplitude a raises sample k (t_k = k T) by a if
    t <= kT < t + tau. noise(cells, F) adds thermal noise to F in place and
    returns the sorted keys of the cells, covered or not, whose bit it
    inverts. Counts are the 0->1 transitions of F >= xi, inverted if
    flipped, after an implicit low state before the symbol."""
    cells, F = _covered_cells(key, amps, n_samp, T, tau)
    flips = noise(cells, F)
    bit = F >= xi
    if flips.size:
        cells = np.setxor1d(cells[bit], flips, assume_unique=True)
        bit = np.ones(cells.size, bool)
    # A high cell starts an edge unless key - 1 is a high cell.
    linked = np.diff(cells) == 1
    np.greater(bit[1:], linked & bit[:-1], out=bit[1:])
    return np.bincount(cells.compress(bit) >> n_samp.bit_length(), minlength=n)
