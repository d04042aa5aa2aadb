"""Hot Monte Carlo kernels of the batch engine, in numpy.

Each kernel maps a drawn batch to one recorded count per trial. They loop
over arrival columns and sample offsets (few) and vectorize over trials
(many); the single-trial chain in `simulate` is their reference.

Array layout shared by all kernels:
  times  (trials, max_count) arrival epochs sorted ascending per row,
         padded with +inf beyond counts[row].
  counts (trials,) number of valid arrivals per row.
  amps   (trials, max_count) pulse amplitudes (ignored beyond counts).
  noise  (trials, n_samp) per-sample thermal noise, or a (0, 0) array.
"""
from __future__ import annotations

import numpy as np


def dead_time_counts(times: np.ndarray, counts: np.ndarray,
                     tau: float) -> np.ndarray:
    """Ideal infinite-rate receiver: paralyzable dead-time censoring.

    An arrival is recorded iff the gap from the previous arrival exceeds
    tau (the merged pulse train must drop low first); the first arrival is
    always recorded.
    """
    trials, max_count = times.shape
    out = np.zeros(trials, dtype=np.int64)
    prev = np.full(trials, -np.inf)
    for j in range(max_count):
        t = times[:, j]
        ok = (j < counts) & (t - prev > tau)
        out += ok
        prev = np.where(j < counts, t, prev)
    return out


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
    trials, max_count = times.shape
    F = np.zeros((trials, n_samp))
    rows = np.arange(trials)
    for j in range(max_count):
        valid = j < counts
        if not valid.any():
            break
        t = times[:, j]
        with np.errstate(invalid="ignore"):
            k0 = np.ceil(t / T)
            k1 = np.ceil((t + tau) / T)
        k0 = np.where(valid, k0, 1.0)
        k1 = np.where(valid, k1, 0.0)
        k0 = np.maximum(k0, 1.0).astype(np.int64)
        k1 = np.minimum(k1, float(n_samp + 1)).astype(np.int64)
        width = int(np.max(np.where(valid, k1 - k0, 0), initial=0))
        for off in range(width):
            k = k0 + off
            m = valid & (k < k1)
            F[rows[m], k[m] - 1] += amps[m, j]
    if noise.size:
        F += noise
    bits = F >= xi
    edges = bits[:, 0].astype(np.int64)
    if n_samp > 1:
        edges += (bits[:, 1:] & ~bits[:, :-1]).sum(axis=1)
    return edges
