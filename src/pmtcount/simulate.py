"""Event-level Monte Carlo of the receiver chain.

A `seed` is a stream key (NumPy NEP 19): an int s, the same as (s,), or a
tuple (s, k1, ..., km); callers extend a key to split its stream. Trials
split into the fewest batches of at most min(BATCH_SIZE, 2**15 / lam),
sizes within 1, so a batch holds about 2**15 expected arrivals and its
arrays stay in a core's L2 cache; the layout depends on (lam, trials)
alone. Batch b of n trials draws all of its randomness from
default_rng(SeedSequence(s, spawn_key=(k1, ..., km, b))) in a fixed order:
an arrival total M ~ Poisson(lam n), M sorted uniform keys
row << 49 | epoch in [0, n << 49) (see `_kernels`), amplitudes, then, if
sigma0 > 0, Normal noise (added in place) for the covered samples within
6 sigma0 of xi, and flip candidates of all other samples with acceptance
draws. Reductions are integer histograms that run to the largest count
drawn, so results are identical for any worker count. N workers are the
caller and N - 1 threads of a lasting pool (rebuilt in a forked child)
taking batches in turn; a `ber` point's two runs share one pass, heaviest
batches first. np.add.at and np.bincount hold the GIL; 2 threads ran a
fig10 point 1.3-1.5x as fast as 1 on 2 cores. Importing pmtcount sets two
glibc malloc parameters so that batches stop page-faulting their heap in
again; results do not depend on them.
"""
from __future__ import annotations

import ctypes
import os
from concurrent.futures import ThreadPoolExecutor
from functools import cache, partial

import numpy as np

from . import _kernels
from ._kernels import _EPOCH_BITS
from .params import ReceiverConfig, check_rate, check_tau, gaussian_q

BATCH_SIZE = 16384
assert BATCH_SIZE <= 1 << (63 - _EPOCH_BITS)

# Trims leave M_TOP_PAD (-2) = 128 MiB of freed heap mapped, above one batch's
# peak; one arena (M_ARENA_MAX, -8) makes the pool threads share that pad.
_mallopt = ctypes.CDLL(None).mallopt
_mallopt.argtypes, _mallopt.restype = [ctypes.c_int] * 2, ctypes.c_int
_mallopt(-2, 128 << 20)
_mallopt(-8, 1)


def _batch_rng(seed: int | tuple, batch_index: int) -> np.random.Generator:
    # Entropy is zero-padded ((s, 0) would be s), so k1.. join the spawn key.
    entropy, *key = seed if isinstance(seed, tuple) else (seed,)
    return np.random.default_rng(
        np.random.SeedSequence(entropy, spawn_key=(*key, batch_index)))


def count_rising_edges(bits: np.ndarray) -> int:
    """Number of 0->1 transitions, with an implicit 0 before the stream."""
    b = np.asarray(bits).astype(bool)
    if b.size == 0:
        return 0
    return int(b[0]) + int((b[1:] & ~b[:-1]).sum())


def _flip_candidates(rng, size, r):
    """Sorted positions in [0, size), each included independently with
    probability r: partial sums of i.i.d. Geometric(r) gaps."""
    # Mean + 4 sd: the first round nearly always reaches size.
    chunk = int(size * r + 4.0 * (size * r) ** 0.5) + 1
    pos = np.cumsum(rng.geometric(r, chunk)) - 1
    while pos[-1] < size:
        more = pos[-1] + np.cumsum(rng.geometric(r, chunk))
        pos = np.concatenate([pos, more])
    return pos[:np.searchsorted(pos, size)]


def _draw_batch(lam, cfg: ReceiverConfig | None, rng, n):
    """Draw all randomness for n trials in the ragged layout of `_kernels`:
    (key, amps, noise), or (key,) for the ideal receiver (cfg None).

    The kernel calls noise(cells, F) once. It adds Normal(0, sigma0) noise
    in place to the covered cells with |F - xi| < 6 sigma0. Every other
    sample (F = 0 if uncovered) flips its noiseless bit with probability
    q = Q(|F - xi| / sigma0) <= r = max(Q(6), p): it is drawn as a
    Bernoulli(r) candidate and accepted with probability q / r."""
    # Uniform rows split the Poisson(lam n) total into n Poisson(lam) rows.
    key = rng.integers(0, n << _EPOCH_BITS, rng.poisson(lam * n))
    key.sort()  # orders (row, epoch) exactly; rows keep their places
    if cfg is None:
        return (key,)
    if cfg.sigma > 0.0:
        amps = rng.normal(1.0, cfg.sigma, key.size)
    else:
        amps = np.ones(key.size)
    n_samp, xi, sigma0, p = cfg.n_samples, cfg.xi, cfg.sigma0, cfg.derived.p
    r = max(gaussian_q(6.0), p)

    def noise(cells, F):
        if sigma0 == 0.0:
            return cells[:0]
        near = np.flatnonzero(np.abs(F - xi) < 6.0 * sigma0)
        z = rng.normal(0.0, sigma0, near.size)
        cand = _kernels.cell_keys(_flip_candidates(rng, n * n_samp, r), n_samp)
        if cand.size:  # classified on the noiseless F, so before F[near] += z
            at = np.searchsorted(cells, cand)
            hit = np.flatnonzero(at < np.searchsorted(cells, cand, "right"))
            dist = np.abs(F[at[hit]] - xi)
            # q = p where uncovered, 0 where near: those cells get z instead.
            q = np.full(cand.size, p)
            q[hit] = np.where(dist >= 6.0 * sigma0, gaussian_q(dist / sigma0),
                              0.0)
            cand = cand[rng.random(cand.size) * r < q]  # the flips
        F[near] += z
        return cand
    return key, amps, noise


# One lasting pool per thread count. A forked child inherits the cached
# pools but none of their threads.
_pool = cache(ThreadPoolExecutor)
os.register_at_fork(after_in_child=_pool.cache_clear)


def _map_batches(worker, n_batches: int, workers: int):
    """worker(b) for each batch index b, in batch order, run by the caller
    and up to workers - 1 pool threads taking each next b from one iterator;
    after a raise none is handed out, and the first is raised at the end."""
    results, errors, indices = [None] * n_batches, [], iter(range(n_batches))

    def drain():
        for b in indices:  # next() on a range iterator holds the GIL
            try:
                results[b] = worker(b)
            except BaseException as e:
                errors.append(e)
                list(indices)  # hands out the rest to no one
    helpers = [_pool(workers - 1).submit(drain)
               for _ in range(min(workers, n_batches) - 1)]
    drain()
    for h in helpers:
        h.result()
    if errors:
        raise errors[0]
    return results


def _counts_hists(runs, cfg, kernel, workers):
    """Histograms of kernel(n, *batch), one per run (lam, trials, seed).

    Run batch b of n_batches = ceil(trials / size) has trials // n_batches
    trials, one more if b < trials % n_batches, from _batch_rng(seed, b).
    All batches share one pass on `workers` threads, the caller being one,
    most expected arrivals lam * n first; bincounts are summed exactly."""
    if workers < 1:
        raise ValueError("workers must be >= 1")
    batches = []
    for r, (lam, trials, seed) in enumerate(runs):
        check_rate(lam)
        if trials < 1:
            raise ValueError("trials must be >= 1")
        # About 2**15 expected arrivals; tested first, as 2**15 / lam
        # overflows for subnormal lam.
        size = (BATCH_SIZE if lam * BATCH_SIZE <= 2**15
                else max(1, int(2**15 / lam)))
        n_batches = -(-trials // size)
        batches += [(r, lam, trials // n_batches + (b < trials % n_batches),
                     seed, b) for b in range(n_batches)]
    batches.sort(key=lambda x: -x[1] * x[2])  # ties keep run, batch order

    def worker(i):
        _, lam, n, seed, b = batches[i]
        batch = _draw_batch(lam, cfg, _batch_rng(seed, b), n)
        return np.bincount(kernel(n, *batch))

    hists = _map_batches(worker, len(batches), workers)
    total = np.zeros((len(runs), max(h.size for h in hists)), np.intp)
    for (r, *_), h in zip(batches, hists):
        total[r, :h.size] += h
    return [np.trim_zeros(t, "b") for t in total]  # to the largest count drawn


def simulate_counts_hists(runs, cfg: ReceiverConfig, workers: int = 1):
    """Recorded-pulse-count histograms of receiver runs, in one pass."""
    kernel = partial(_kernels.receiver_counts, n_samp=cfg.n_samples, T=cfg.T,
                     tau=cfg.tau, xi=cfg.xi)
    return _counts_hists(runs, cfg, kernel, workers)


def simulate_counts_hist(lam: float, cfg: ReceiverConfig, trials: int,
                         seed: int | tuple, workers: int = 1) -> np.ndarray:
    """Histogram of recorded pulse counts over `trials` receiver symbols."""
    return simulate_counts_hists([(lam, trials, seed)], cfg, workers)[0]


def ideal_counts_hist(lam: float, tau: float, trials: int, seed: int | tuple,
                      workers: int = 1) -> np.ndarray:
    """Histogram of dead-time-censored counts for the ideal receiver."""
    check_tau(tau)
    kernel = partial(_kernels.dead_time_counts, tau=tau)
    return _counts_hists([(lam, trials, seed)], None, kernel, workers)[0]


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
