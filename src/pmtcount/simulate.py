"""Event-level Monte Carlo of the receiver chain.

Batch b draws all of its randomness from default_rng(SeedSequence(seed,
spawn_key=(b,))) in a fixed order: counts, epochs, amplitudes, then, if
sigma0 > 0, the covered samples' noise and the count and positions of the
uncovered samples that cross xi. Reductions are integer histograms, so
results are identical for any worker count. Workers are threads; numpy
releases the GIL only inside array operations, so batches overlap partly.
Importing pmtcount sets two glibc malloc parameters process-wide so that
batches stop page-faulting their heap in again; results do not depend on them.
"""
from __future__ import annotations

import ctypes
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import _kernels
from .params import ReceiverConfig, check_rate, check_tau, derive_params

BATCH_SIZE = 16384

# Trims leave M_TOP_PAD (-2) = 128 MiB of freed heap mapped, above one batch's
# peak; one arena (M_ARENA_MAX, -8) makes the pool threads share that pad.
_mallopt = ctypes.CDLL(None).mallopt
_mallopt.argtypes, _mallopt.restype = [ctypes.c_int] * 2, ctypes.c_int
_mallopt(-2, 128 << 20)
_mallopt(-8, 1)

# Histogram slack past the largest reachable counts: n_s <= ceil(n_samp / 2),
# and the ideal receiver records at most floor(1/tau) + 1 pulses.
_HIST_PAD = 4


def _batch_rng(seed: int, batch_index: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(batch_index,)))


# ---------------------------------------------------------------------------
# single-trial operations (unit-test surface; the batch engine is the
# vectorized equivalent)

@dataclass(frozen=True)
class ArrivalSet:
    """Sorted photon arrival epochs within one normalized symbol."""
    times: np.ndarray


@dataclass(frozen=True)
class SampleStream:
    """Analog samples F(t_k) at t_k = kT and their quantized bits."""
    values: np.ndarray
    bits: np.ndarray


@dataclass(frozen=True)
class TrialResult:
    n_s: int
    arrivals: int


def gen_arrivals(lam: float, rng: np.random.Generator) -> ArrivalSet:
    """Poisson(lam) arrival count with i.i.d. uniform epochs on [0, 1)."""
    check_rate(lam)
    n = rng.poisson(lam)
    times = np.sort(rng.random(n))
    return ArrivalSet(times=times)


def synth_samples(arrivals: ArrivalSet, cfg: ReceiverConfig,
                  rng: np.random.Generator) -> SampleStream:
    """Held pulses with Gaussian amplitudes plus thermal noise, sampled.

    Each arrival contributes a rectangular pulse of width tau whose
    amplitude is drawn once from Normal(1, sigma^2); overlapping pulses
    add. Per-sample thermal noise is Normal(0, sigma0^2).
    """
    n_samp = cfg.n_samples
    t = arrivals.times
    if cfg.sigma > 0.0:
        amps = rng.normal(1.0, cfg.sigma, t.size)
    else:
        amps = np.ones(t.size)
    tk = np.arange(1, n_samp + 1) * cfg.T
    covered = (t[None, :] <= tk[:, None]) & (tk[:, None] < (t + cfg.tau)[None, :])
    values = covered @ amps
    if cfg.sigma0 > 0.0:
        values = values + rng.normal(0.0, cfg.sigma0, n_samp)
    bits = (values >= cfg.xi).astype(np.int8)
    return SampleStream(values=values, bits=bits)


def count_rising_edges(bits: np.ndarray) -> int:
    """Number of 0->1 transitions, with an implicit 0 before the stream."""
    b = np.asarray(bits).astype(bool)
    if b.size == 0:
        return 0
    return int(b[0]) + int((b[1:] & ~b[:-1]).sum())


def simulate_symbol(lam: float, cfg: ReceiverConfig,
                    rng: np.random.Generator) -> TrialResult:
    arrivals = gen_arrivals(lam, rng)
    stream = synth_samples(arrivals, cfg, rng)
    return TrialResult(n_s=count_rising_edges(stream.bits),
                       arrivals=arrivals.times.size)


# ---------------------------------------------------------------------------
# batch engine

def _draw_batch(lam, cfg: ReceiverConfig | None, rng, n):
    """Draw all randomness for n trials in the ragged layout of `_kernels`
    (row, times, amps, noise); lam may be scalar or (n,) array. The kernel
    calls noise(cells) once, with the sorted covered cells: it draws their
    Normal(0, sigma0) noise, then a Binomial(#uncovered, p) count of
    uncovered cells that cross xi, at distinct uniform positions.
    """
    row = np.repeat(np.arange(n), rng.poisson(lam, n))
    times = rng.random(row.size)
    times = times[np.argsort(row + times, kind="stable")]
    if cfg is None:
        return row, times
    if cfg.sigma > 0.0:
        amps = rng.normal(1.0, cfg.sigma, row.size)
    else:
        amps = np.ones(row.size)

    def noise(cells):
        if cfg.sigma0 == 0.0:
            return 0.0, cells[:0]
        cell_noise = rng.normal(0.0, cfg.sigma0, cells.size)
        free = n * cfg.n_samples - cells.size
        k = rng.binomial(free, derive_params(cfg).p)
        # First k distinct values of i.i.d. uniform draws: a uniform k-subset.
        rank = np.zeros(0, np.int64)
        while rank.size < k:
            rank = np.concatenate([rank, rng.integers(0, free, k - rank.size)])
            rank.sort()
            rank = rank[np.diff(rank, prepend=-1) != 0]
        # Uncovered cell of rank r: r plus the covered cells before it.
        skip = np.searchsorted(cells - np.arange(cells.size), rank, "right")
        return cell_noise, rank + skip
    return row, times, amps, noise


def _map_batches(worker, n_batches: int, workers: int):
    """Run worker(batch_index) for all batches, results in batch order."""
    if workers <= 1 or n_batches <= 1:
        return [worker(b) for b in range(n_batches)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(worker, range(n_batches)))


def _counts_hist(lam, cfg, kernel, hist_len, trials, seed, workers):
    """Histogram of kernel(n, *batch) over `trials` symbols.

    Batch b is drawn from _batch_rng(seed, b); the per-batch bincounts are
    summed exactly. hist_len must exceed every reachable count.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if workers < 1:
        raise ValueError("workers must be >= 1")

    def worker(b):
        n = min(BATCH_SIZE, trials - b * BATCH_SIZE)
        batch = _draw_batch(lam, cfg, _batch_rng(seed, b), n)
        return np.bincount(kernel(n, *batch), minlength=hist_len)

    n_batches = (trials + BATCH_SIZE - 1) // BATCH_SIZE
    return np.sum(_map_batches(worker, n_batches, workers), axis=0)


def simulate_counts_hist(lam: float, cfg: ReceiverConfig, trials: int,
                         seed: int, workers: int = 1) -> np.ndarray:
    """Histogram of recorded pulse counts over `trials` receiver symbols."""
    kernel = partial(_kernels.receiver_counts, n_samp=cfg.n_samples, T=cfg.T,
                     tau=cfg.tau, xi=cfg.xi)
    return _counts_hist(lam, cfg, kernel, cfg.n_samples // 2 + 1 + _HIST_PAD,
                        trials, seed, workers)


def ideal_counts_hist(lam: float, tau: float, trials: int, seed: int,
                      workers: int = 1) -> np.ndarray:
    """Histogram of dead-time-censored counts for the ideal receiver."""
    check_tau(tau)
    return _counts_hist(lam, None, partial(_kernels.dead_time_counts, tau=tau),
                        int(1.0 / tau) + 2 + _HIST_PAD, trials, seed, workers)


def hist_moments(hist: np.ndarray) -> tuple[float, float]:
    """Sample mean and (unbiased) variance of a count histogram."""
    n = int(hist.sum())
    if n < 1:
        raise ValueError("empty histogram")
    k = np.arange(hist.size, dtype=np.int64)
    s1 = int(k @ hist)
    s2 = int((k * k) @ hist)
    mean = s1 / n
    if n == 1:
        return mean, 0.0
    var = (s2 - s1 * s1 / n) / (n - 1)
    return mean, var


def estimate_moments_mc(lam: float, cfg: ReceiverConfig, trials: int,
                        seed: int, workers: int = 1
                        ) -> tuple[float, float, float]:
    """Monte Carlo mean, variance and standard error of the mean of n_s.

    A single trial yields variance 0 (flagged by the degenerate value, not
    an error).
    """
    hist = simulate_counts_hist(lam, cfg, trials, seed, workers)
    mean, var = hist_moments(hist)
    std_error = (var / trials) ** 0.5
    return mean, var, std_error
