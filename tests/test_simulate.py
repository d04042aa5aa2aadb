"""Event-level Monte Carlo engine: single-trial chain and batch reductions."""
import math
import multiprocessing
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import chi2_contingency, chisquare, poisson

import pmtcount
from pmtcount import (ReceiverConfig, count_rising_edges, derive_params,
                      gen_arrivals, hist_moments, ideal_counts_hist,
                      moments_exact_noiseless, simulate_counts_hist,
                      simulate_symbol, synth_samples)
from pmtcount import _kernels, simulate
from pmtcount._kernels import _EPOCH_BITS
from pmtcount.simulate import (BATCH_SIZE, _batch_rng, _draw_batch,
                               _flip_candidates)


def _decode(key):
    """Row and float time of each arrival key."""
    return (key >> _EPOCH_BITS,
            (key & ((1 << _EPOCH_BITS) - 1)) * 2.0 ** -_EPOCH_BITS)


# (lam, cfg, dead-time tau) of the batch kernel cases.
KERNEL_CASES = [
    (10.0, ReceiverConfig(T=0.01, tau=0.02, xi=0.3, sigma=0.2,
                          sigma0=0.02), 0.01),
    # T > tau: a pulse covers at most one sample.
    (10.0, ReceiverConfig(T=0.02, tau=0.005, xi=0.3, sigma=0.2,
                          sigma0=0.02), 0.005),
    # Noiseless wide pulse: empty noise array, 10-11 samples per pulse.
    (10.0, ReceiverConfig(T=0.002, tau=0.02, xi=0.3), 0.02),
    # No arrivals in the whole batch, thermal noise only.
    (0.0, ReceiverConfig(T=0.01, tau=0.02, xi=0.3, sigma=0.2,
                         sigma0=0.3), 0.02),
    # xi < 6 sigma0: uncovered flips next to covered cells.
    (10.0, ReceiverConfig(T=0.01, tau=0.02, xi=0.06, sigma=0.2,
                          sigma0=0.02), 0.02),
    # Noisy wide pulse: up to 10 cells per pulse, so the order in which
    # a cell sums its pulses matters most.
    (10.0, ReceiverConfig(T=0.002, tau=0.02, xi=0.3, sigma=0.2,
                          sigma0=0.02), 0.02),
    # tau / T not an integer: pulses cover 1 or 2 samples.
    (10.0, ReceiverConfig(T=0.01, tau=0.015, xi=0.3, sigma=0.2,
                          sigma0=0.02), 0.015),
]
KERNEL_IDS = ["fig6_noisy", "T_gt_tau", "noiseless_wide", "no_arrivals",
              "near_band", "noisy_wide", "fractional_tau"]


class TestArrivals:
    def test_zero_rate_is_empty(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            assert gen_arrivals(0.0, rng).times.size == 0

    def test_sorted_within_symbol(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            t = gen_arrivals(10.0, rng).times
            assert np.all(np.diff(t) >= 0.0)
            assert np.all((t >= 0.0) & (t < 1.0))

    def test_mean_count(self):
        rng = np.random.default_rng(2)
        trials = 100_000
        total = sum(gen_arrivals(10.0, rng).times.size
                    for _ in range(trials))
        bound = 4.0 * math.sqrt(10.0 / trials)
        assert abs(total / trials - 10.0) < bound

    def test_rejects_negative_rate(self):
        with pytest.raises(ValueError):
            gen_arrivals(-1.0, np.random.default_rng(0))


class TestSampleSynthesis:
    def test_no_arrivals_no_noise_all_low(self):
        cfg = ReceiverConfig(T=0.01, tau=0.02, xi=0.3)
        rng = np.random.default_rng(3)
        stream = synth_samples(gen_arrivals(0.0, rng), cfg, rng)
        assert np.all(stream.values == 0.0)
        assert np.all(stream.bits == 0)

    def test_single_pulse_geometry(self):
        # A unit pulse on [0.005, 0.025) covers the samples at t=0.01 and
        # t=0.02 only, producing exactly one rising edge.
        from pmtcount.simulate import ArrivalSet
        cfg = ReceiverConfig(T=0.01, tau=0.02, xi=0.3)
        rng = np.random.default_rng(4)
        stream = synth_samples(ArrivalSet(times=np.array([0.005])), cfg, rng)
        assert np.all(stream.bits[:2] == 1)
        assert np.all(stream.bits[2:] == 0)
        assert count_rising_edges(stream.bits) == 1

    def test_overlapping_pulses_add(self):
        # k coincident pulses stack; the covered sample has variance
        # k sigma^2 around mean k.
        from pmtcount.simulate import ArrivalSet
        cfg = ReceiverConfig(T=0.01, tau=0.02, xi=0.3, sigma=0.2)
        rng = np.random.default_rng(5)
        arrivals = ArrivalSet(times=np.array([0.005, 0.005]))
        vals = np.array([synth_samples(arrivals, cfg, rng).values[0]
                         for _ in range(20_000)])
        assert vals.mean() == pytest.approx(2.0, abs=0.02)
        assert vals.var() == pytest.approx(2.0 * cfg.sigma ** 2, rel=0.1)


class TestRisingEdges:
    @pytest.mark.parametrize("bits,expected", [
        ([0, 0, 0, 0, 0, 0], 0),
        ([0, 1, 1, 0, 1, 1], 2),
        ([1, 0, 1, 0, 1, 0], 3),
        ([1, 1, 1, 1], 1),
        ([], 0),
    ])
    def test_patterns(self, bits, expected):
        assert count_rising_edges(np.array(bits, dtype=np.int8)) == expected

    def test_exhaustive_length_12(self):
        # Brute-force scanner: count "01" occurrences in "0" + string.
        for word in range(1 << 12):
            bits = np.array([(word >> i) & 1 for i in range(12)],
                            dtype=np.int8)
            expected = ("0" + "".join(map(str, bits))).count("01")
            assert count_rising_edges(bits) == expected


class TestFlipCandidates:
    @pytest.mark.parametrize("size,r", [(1, 0.5), (100, 0.05),
                                        (10_000, 1e-3), (50_000, 0.3)])
    def test_sorted_distinct_and_in_range(self, size, r):
        pos = _flip_candidates(np.random.default_rng(3), size, r)
        assert np.all(np.diff(pos) > 0)
        assert pos.size == 0 or (pos[0] >= 0 and pos[-1] < size)

    def test_extension_loop_covers_every_position(self):
        # Gaps of one include every position, so a first chunk of about
        # size * r gaps falls short and the loop must extend it to size.
        class OnesRng:
            calls = 0

            def geometric(self, r, n):
                self.calls += 1
                return np.ones(n, dtype=np.int64)

        rng = OnesRng()
        pos = _flip_candidates(rng, 100, 0.05)
        assert rng.calls > 1
        assert np.array_equal(pos, np.arange(100))

    def test_included_fraction_is_r(self):
        size, r = 1_000_000, 0.01
        pos = _flip_candidates(np.random.default_rng(11), size, r)
        sd = math.sqrt(size * r * (1.0 - r))
        assert abs(pos.size - size * r) < 5.0 * sd


class TestBatchEngine:
    def test_histogram_is_deterministic(self):
        cfg = ReceiverConfig(T=0.01, tau=0.02, xi=0.3, sigma=0.2, sigma0=0.02)
        h1 = simulate_counts_hist(10.0, cfg, 40_000, seed=42, workers=1)
        h2 = simulate_counts_hist(10.0, cfg, 40_000, seed=42, workers=1)
        assert np.array_equal(h1, h2)

    def test_worker_count_invariance(self):
        cfg = ReceiverConfig(T=0.01, tau=0.02, xi=0.3, sigma=0.2, sigma0=0.02)
        h1 = simulate_counts_hist(10.0, cfg, 50_000, seed=7, workers=1)
        h8 = simulate_counts_hist(10.0, cfg, 50_000, seed=7, workers=8)
        assert np.array_equal(h1, h8)

    def test_stream_key_extends_the_spawn_key(self):
        # An int seed s keeps its batch streams: batch b is spawn key (b,).
        want = np.random.default_rng(np.random.SeedSequence(5, spawn_key=(3,)))
        assert np.array_equal(_batch_rng(5, 3).random(8), want.random(8))
        # The rest of a key tuple joins the spawn key, not the entropy:
        # SeedSequence zero-pads entropy, where (5, 0) would be 5 again.
        assert not np.array_equal(_batch_rng((5, 0), 3).random(8),
                                  _batch_rng(5, 3).random(8))

    def test_batches_split_trials_near_equally(self):
        # 25 000 fig10 trials at lambda = 12 take batches of at most
        # 2**15 / 12 = 2730 trials: ten batches of 2 500, not 9 x 2730 + 430.
        cfg = ReceiverConfig(T=0.01, tau=0.01, xi=0.3, sigma=0.2, sigma0=0.02)
        got = simulate_counts_hist(12.0, cfg, 25_000, seed=(9,))
        want = sum(np.bincount(_kernels.receiver_counts(
            2_500, *_draw_batch(12.0, cfg, _batch_rng((9,), b), 2_500),
            cfg.n_samples, cfg.T, cfg.tau, cfg.xi), minlength=got.size)
            for b in range(10))
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("lam,most", [(0.0, BATCH_SIZE),
                                          (5e-324, BATCH_SIZE),
                                          (10.0, 3276)])
    def test_batch_size_follows_arrival_budget(self, monkeypatch, lam, most):
        # A batch holds about 2**15 expected arrivals and at most BATCH_SIZE
        # trials; a subnormal rate must not overflow 2**15 / lam.
        sizes = []

        def recorded(lam, cfg, rng, n):
            sizes.append(n)
            return _draw_batch(lam, cfg, rng, n)
        monkeypatch.setattr(simulate, "_draw_batch", recorded)
        assert ideal_counts_hist(lam, 0.5, 40_000, seed=1).sum() == 40_000
        assert sum(sizes) == 40_000
        assert max(sizes) - min(sizes) <= 1 and max(sizes) <= most
        assert len(sizes) == math.ceil(40_000 / most)

    @pytest.mark.parametrize("lam", [0.5, 10.0])
    def test_rows_get_poisson_arrival_counts(self, monkeypatch, lam):
        # One Poisson(lam n) total with uniform rows gives each of a call's
        # rows an independent Poisson(lam) count; chi-square over the rows
        # of all batches, tail bins pooled to expected counts >= 5.
        counts = []

        def recorded(lam, cfg, rng, n):
            batch = _draw_batch(lam, cfg, rng, n)
            counts.append(np.bincount(batch[0] >> _EPOCH_BITS, minlength=n))
            return batch
        monkeypatch.setattr(simulate, "_draw_batch", recorded)
        trials = 40_000
        ideal_counts_hist(lam, 0.5, trials, seed=(41,))
        rows = np.concatenate(counts)
        assert rows.size == trials
        lo, hi = np.flatnonzero(trials * poisson.pmf(np.arange(100), lam)
                                >= 5.0)[[0, -1]]
        observed = np.bincount(np.clip(rows, lo, hi) - lo)
        expected = trials * np.concatenate([
            [poisson.cdf(lo, lam)], poisson.pmf(np.arange(lo + 1, hi), lam),
            [poisson.sf(hi - 1, lam)]])
        assert chisquare(observed, expected).pvalue > 1e-3

    @pytest.mark.parametrize("trials", [1, 16384, 16385, 25_000, 32768,
                                        1_000_000])
    def test_batch_sizes(self, monkeypatch, trials):
        sizes = []

        def recorded(lam, cfg, rng, n):
            sizes.append(n)
            return _draw_batch(lam, cfg, rng, n)
        monkeypatch.setattr(simulate, "_draw_batch", recorded)
        assert ideal_counts_hist(0.0, 0.5, trials, seed=1).sum() == trials
        assert sum(sizes) == trials
        assert max(sizes) - min(sizes) <= 1 and max(sizes) <= BATCH_SIZE
        assert len(sizes) == math.ceil(trials / BATCH_SIZE)

    def test_thread_pool_is_reused(self, monkeypatch):
        cfg = ReceiverConfig(T=0.01, tau=0.01, xi=0.3, sigma=0.2, sigma0=0.02)
        names = []

        def recorded(*args):
            names.append(threading.current_thread().name)
            time.sleep(0.05)  # so that both threads take a batch
            return _draw_batch(*args)
        monkeypatch.setattr(simulate, "_draw_batch", recorded)
        simulate_counts_hist(1.0, cfg, 40_000, seed=2, workers=2)
        first, names[:] = set(names), []
        simulate_counts_hist(1.0, cfg, 40_000, seed=2, workers=2)
        assert set(names) <= first

    def test_pool_survives_fork(self, tmp_path):
        # A forked child inherits the parent's cached pool but not its
        # threads; without a reset its batches would wait forever.
        cfg = ReceiverConfig(T=0.01, tau=0.01, xi=0.3, sigma=0.2, sigma0=0.02)
        want = simulate_counts_hist(1.0, cfg, 40_000, seed=3, workers=2)
        out = tmp_path / "child.npy"

        def child():
            np.save(out, simulate_counts_hist(1.0, cfg, 40_000, seed=3,
                                              workers=2))
        proc = multiprocessing.get_context("fork").Process(target=child)
        proc.start()
        proc.join(timeout=60)
        if proc.is_alive():
            proc.kill()
            proc.join()
            pytest.fail("forked child hung on the pool")
        assert proc.exitcode == 0
        assert np.array_equal(np.load(out), want)

    def test_ideal_worker_count_invariance(self):
        h1 = ideal_counts_hist(10.0, 0.01, 50_000, seed=7, workers=1)
        h4 = ideal_counts_hist(10.0, 0.01, 50_000, seed=7, workers=4)
        assert np.array_equal(h1, h4)

    @pytest.mark.parametrize("lam,cfg,dead_tau", KERNEL_CASES,
                             ids=KERNEL_IDS)
    def test_kernel_paths_agree_bitwise(self, lam, cfg, dead_tau):
        # Every row of a drawn batch must get the count that the
        # single-trial rule gives: samples at kT, covered when
        # t <= kT < t + tau, plus the noise the kernel drew, quantized at
        # xi, rising edges counted. A flipped sample's noise is -inf if its
        # noiseless bit is high and +inf otherwise.
        rng = _batch_rng(seed=11, batch_index=0)
        key, amps, noise = _draw_batch(lam, cfg, rng, 4096)
        row, times = _decode(key)
        # A twin of the batch's stream: its next draws are the Normals.
        twin = _batch_rng(seed=11, batch_index=0)
        _draw_batch(lam, cfg, twin, 4096)
        drawn = []

        def recorded(cells, F):
            clean = F.copy()
            flips = noise(cells, F)
            drawn.append((cells, clean, F, flips))
            return flips
        n_samp = cfg.n_samples
        got = _kernels.receiver_counts(4096, key, amps, recorded,
                                       n_samp, cfg.T, cfg.tau, cfg.xi)
        [(cells, F, noisy, flips)] = drawn
        # Normal noise, the stream's next draws, was added in place to
        # exactly the cells within 6 sigma0 of xi, and the flipped cells are
        # distinct and none of those.
        near = np.abs(F - cfg.xi) < 6.0 * cfg.sigma0
        cell_noise = np.zeros(F.size)
        cell_noise[near] = twin.normal(0.0, cfg.sigma0,
                                       np.count_nonzero(near))
        assert np.array_equal(noisy, F + cell_noise)
        assert np.array_equal(noisy != F, near)
        assert np.unique(flips).size == flips.size
        assert not np.isin(flips, cells[near]).any()
        shift = n_samp.bit_length()

        def flat_index(key):
            return (key >> shift) * n_samp + (key & ((1 << shift) - 1)) - 1
        flat_F = np.zeros(4096 * n_samp)
        flat_F[flat_index(cells)] = F
        flat = np.zeros(4096 * n_samp)
        flat[flat_index(cells)] = cell_noise
        flat[flat_index(flips)] = np.where(flat_F[flat_index(flips)] >= cfg.xi,
                                           -np.inf, np.inf)
        kT = np.arange(1, n_samp + 1) * cfg.T
        for i in range(4096):
            t = times[row == i]
            covered = (t <= kT[:, None]) & (kT[:, None] < t + cfg.tau)
            # The cells of the row are exactly its covered samples.
            lo, hi = np.searchsorted(cells, [i << shift, (i + 1) << shift])
            assert np.array_equal(flat_index(cells[lo:hi]) - i * n_samp,
                                  np.flatnonzero(covered.any(axis=1)))
            values = (covered @ amps[row == i]
                      + flat[i * n_samp:(i + 1) * n_samp])
            assert got[i] == count_rising_edges(values >= cfg.xi)

        rng = _batch_rng(seed=11, batch_index=1)
        (key,) = _draw_batch(lam, None, rng, 4096)
        row, times = _decode(key)
        got = _kernels.dead_time_counts(4096, key, dead_tau)
        for i in range(4096):
            t = np.sort(times[row == i])
            assert got[i] == (t.size > 0) + int((np.diff(t) > dead_tau).sum())

    @pytest.mark.parametrize("lam,cfg", [c[:2] for c in KERNEL_CASES] + [
        # The fig6 receiver at sigma0 = 0.2: p = Q(2.5), flips in every batch.
        (10.0, ReceiverConfig(T=0.01, tau=0.02, xi=0.5, sigma=0.2,
                              sigma0=0.2))], ids=KERNEL_IDS + ["fig6_flips"])
    def test_readout_matches_gather_and_diff_oracle(self, lam, cfg):
        # The kernel reads edges off the bitmask of its cells. The oracle
        # gathers the keys of the high cells, inverts the flipped ones and
        # counts each key that does not follow its predecessor by 1.
        key, amps, noise = _draw_batch(lam, cfg, _batch_rng(23, 0), 4096)
        twin = _batch_rng(23, 0)  # its next draws are the Normals
        _draw_batch(lam, cfg, twin, 4096)
        drawn = []

        def recorded(cells, F):
            clean = F.copy()
            out = noise(cells, F)
            drawn.append((cells, clean, out))
            return out
        got = _kernels.receiver_counts(4096, key, amps, recorded,
                                       cfg.n_samples, cfg.T, cfg.tau, cfg.xi)
        [(cells, F, out)] = drawn
        # The source returns the flips, after (z, ...) if it does not add z
        # in place; the oracle takes z from the twin stream either way.
        flips = out[-1] if isinstance(out, tuple) else out
        near = np.abs(F - cfg.xi) < 6.0 * cfg.sigma0
        z = np.zeros(F.size)
        z[near] = twin.normal(0.0, cfg.sigma0, np.count_nonzero(near))
        high = cells[F + z >= cfg.xi]
        if flips.size:
            high = np.setxor1d(high, flips, assume_unique=True)
        edge = np.diff(high, prepend=-1) != 1
        want = np.bincount(high.compress(edge) >> cfg.n_samples.bit_length(),
                           minlength=4096)
        assert np.array_equal(got, want)
        # Both branches run: flips are drawn where p makes them likely.
        assert (flips.size > 0) == (cfg.derived.p > 1e-4)

    def test_cell_sums_add_pulses_in_arrival_order(self):
        # Float sums depend on their order once 3 pulses share a cell: each
        # cell's F must be 0.0 plus its pulses in arrival order, bit for bit.
        cfg = ReceiverConfig(T=0.002, tau=0.02, xi=0.3, sigma=0.2)
        key, amps, noise = _draw_batch(40.0, cfg, _batch_rng(5, 0), 300)
        drawn = []

        def recorded(cells, F):
            drawn.append((cells.copy(), F.copy()))
            return noise(cells, F)
        _kernels.receiver_counts(300, key, amps, recorded, cfg.n_samples,
                                 cfg.T, cfg.tau, cfg.xi)
        [(cells, F)] = drawn
        row, times = _decode(key)
        kT = np.arange(1, cfg.n_samples + 1) * cfg.T
        want = {}
        for i, t, amp in zip(row.tolist(), times, amps):
            for k in np.flatnonzero((t <= kT) & (kT < t + cfg.tau)) + 1:
                cell = i << cfg.n_samples.bit_length() | int(k)
                want[cell] = want.get(cell, 0.0) + amp
        assert cells.tolist() == sorted(want)
        assert F.tolist() == [want[c] for c in cells.tolist()]

    def test_ideal_counts_of_a_full_batch(self):
        # The last row's keys lie within 2**49 of 2**63, so a dead-time
        # test that adds floor(tau * 2**49) to a key overflows int64.
        assert ideal_counts_hist(1.0, 0.5, BATCH_SIZE, seed=3).tolist() == [
            6047, 9288, 1049]

    def test_draw_is_sorted_by_row_then_time(self):
        # The kernels build covered cells without a sort: they rely on
        # (row, time) pairs that never decrease across the whole batch.
        cfg = ReceiverConfig(T=0.01, tau=0.02, xi=0.3, sigma=0.2, sigma0=0.02)
        for lam in (10.0, 40.0):
            key, *_ = _draw_batch(lam, cfg, _batch_rng(17, 0), BATCH_SIZE)
            row, times = _decode(key)
            assert row.min() >= 0 and row.max() < BATCH_SIZE
            step = np.diff(row)
            assert np.all((step > 0) | ((step == 0) & (np.diff(times) >= 0)))
            assert np.all((times >= 0.0) & (times < 1.0))

    def test_batch_matches_single_trial_chain(self):
        # The batch engine and the single-trial API sample the same model;
        # compare their means at loose MC tolerance.
        cfg = ReceiverConfig(T=0.01, tau=0.01, xi=0.3)
        rng = np.random.default_rng(9)
        single = np.array([simulate_symbol(10.0, cfg, rng).n_s
                           for _ in range(20_000)])
        mean_b, var_b = hist_moments(
            simulate_counts_hist(10.0, cfg, 100_000, seed=10))
        se_tot = math.sqrt(single.var() / single.size + var_b / 100_000)
        assert abs(single.mean() - mean_b) < 4.0 * se_tot

    @pytest.mark.parametrize("lam,xi,tau,sigma0,seed", [
        (10.0, 0.5, 0.02, 0.02, 21),  # fig6
        (1.0, 0.3, 0.01, 0.02, 23),   # fig10, symbol 0
        (12.0, 0.3, 0.01, 0.02, 25),  # fig10, symbol 1
        (2.0, 0.3, 0.02, 0.3, 27),    # p = Q(1) = 0.159 per noise sample
        # xi < 6 sigma0: uncovered samples cross at p = Q(3).
        (10.0, 0.06, 0.02, 0.02, 31),
    ], ids=["fig6", "fig10_lambda0", "fig10_lambda1", "noise_p0.159",
            "near_band"])
    def test_batch_matches_single_trial_distribution(self, lam, xi, tau,
                                                     sigma0, seed):
        # Two-sample chi-square of the count distributions, tail bins
        # pooled until every expected count is at least 5.
        cfg = ReceiverConfig(T=0.01, tau=tau, xi=xi, sigma=0.2, sigma0=sigma0)
        rng = np.random.default_rng(seed)
        single = np.bincount([simulate_symbol(lam, cfg, rng).n_s
                              for _ in range(20_000)])
        batch = simulate_counts_hist(lam, cfg, 100_000, seed=seed + 1)
        table = np.zeros((2, max(single.size, batch.size)))
        table[0, :single.size] = single
        table[1, :batch.size] = batch
        expected = table.sum(0) * table.sum(1).min() / table.sum()
        ok = np.flatnonzero(expected >= 5.0)
        lo, hi = ok[0], ok[-1]
        pooled = np.column_stack([table[:, :lo + 1].sum(1), table[:, lo + 1:hi],
                                  table[:, hi:].sum(1)])
        assert chi2_contingency(pooled, correction=False).pvalue > 1e-3

    def test_noise_crossings_mean(self):
        # No arrivals: each sample crosses xi on noise alone with
        # probability p, independently, so the mean edge count is
        # p + (n_samp - 1) p (1 - p).
        cfg = ReceiverConfig(T=0.01, tau=0.02, xi=0.3, sigma0=0.3)
        p = derive_params(cfg).p
        mean, var = hist_moments(simulate_counts_hist(0.0, cfg, 50_000,
                                                      seed=29))
        se = math.sqrt(var / 50_000)
        exact = p + (cfg.n_samples - 1) * p * (1.0 - p)
        assert abs(mean - exact) < 4.0 * se

    def test_batch_memory_is_sparse(self):
        # One 16384-trial fig10 batch at lambda0 = 1; a single dense
        # (trials, n_samp) float array would take 13 MB.
        cfg = ReceiverConfig(T=0.01, tau=0.01, xi=0.3, sigma=0.2, sigma0=0.02)
        tracemalloc.start()
        try:
            simulate_counts_hist(1.0, cfg, 16384, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4_000_000

    def test_ideal_histogram_ends_at_largest_count(self):
        # The receiver bound floor(1/tau) + 1 is 100 001 here, but no count
        # passes about 30; bound-sized batch histograms took 100 MB.
        tracemalloc.start()
        try:
            hist = ideal_counts_hist(10.0, 1e-5, 200_000, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16_000_000
        assert hist[-1] > 0

    def test_receiver_histogram_ends_at_largest_count(self):
        cfg = ReceiverConfig(T=0.01, tau=0.02, xi=0.3, sigma=0.2, sigma0=0.02)
        assert simulate_counts_hist(10.0, cfg, 40_000, seed=1)[-1] > 0

    @pytest.mark.parametrize("sigma0", [0.0, 100.0],
                             ids=["noiseless", "p_half"])
    def test_receiver_counts_within_edge_bound(self, sigma0):
        # A rising edge needs a low sample before it: n_s <= ceil(n_samp / 2).
        # lam = 400 covers 86 % of samples; sigma0 = 100 flips half the rest.
        cfg = ReceiverConfig(T=0.01, tau=0.005, xi=0.3, sigma0=sigma0)
        hist = simulate_counts_hist(400.0, cfg, 5000, seed=1)
        assert hist.size - 1 <= math.ceil(cfg.n_samples / 2)

    def test_ideal_counts_within_dead_time_bound(self):
        # Recorded arrivals are more than tau apart, so at most
        # floor(1/tau) + 1 of them; at tau = 0.4 and lam = 1/tau that many
        # are recorded in some trials.
        hist = ideal_counts_hist(2.5, 0.4, 20_000, seed=1)
        assert hist.size - 1 <= math.floor(1 / 0.4) + 1

    def test_noise_crossings_memory_is_sparse(self):
        # lambda = 0 and p = 0.159: the crossing positions are a k-subset of
        # 1.6e6 uncovered cells, k ~ 2.6e5; an index array over all of them
        # would take 13 MB.
        cfg = ReceiverConfig(T=0.01, tau=0.02, xi=0.3, sigma0=0.3)
        tracemalloc.start()
        try:
            simulate_counts_hist(0.0, cfg, 16384, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10_000_000

    def test_batches_do_not_fault_heap_in_again(self):
        # Freed batch memory stays mapped, so identical fig6 batches after a
        # warm-up reuse its pages; when glibc trims it, each batch faults
        # ~7000 pages in again. A fresh interpreter, because glibc's default
        # trim threshold grows with the largest block the process has freed.
        code = """if True:
            import resource
            from pmtcount import ReceiverConfig, simulate_counts_hist
            cfg = ReceiverConfig(T=0.01, tau=0.02, xi=0.3, sigma=0.2,
                                 sigma0=0.02)
            simulate_counts_hist(10.0, cfg, 16384, seed=3)
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            for _ in range(3):
                simulate_counts_hist(10.0, cfg, 16384, seed=3)
            print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
        """
        src = str(Path(pmtcount.__file__).resolve().parents[1])
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             env=dict(os.environ, PYTHONPATH=src),
                             capture_output=True, text=True, timeout=120)
        assert int(out.stdout) < 300

    def test_mean_matches_analytic(self):
        cfg = ReceiverConfig(T=0.01, tau=0.01, xi=0.3)
        mean, var = hist_moments(simulate_counts_hist(10.0, cfg, 200_000,
                                                      seed=12))
        se = math.sqrt(var / 200_000)
        ref = moments_exact_noiseless(10.0, cfg).mean
        assert abs(mean - ref) < 4.0 * se

    def test_hist_moments(self):
        hist = np.array([0, 2, 0, 1])
        mean, var = hist_moments(hist)
        data = np.array([1, 1, 3])
        assert mean == pytest.approx(data.mean())
        assert var == pytest.approx(data.var(ddof=1))

    def test_single_trial_degenerate_variance(self):
        cfg = ReceiverConfig(T=0.01, tau=0.01, xi=0.3)
        # One trial has no spread to estimate: variance 0, not an error.
        _, var = hist_moments(simulate_counts_hist(10.0, cfg, 1, seed=13))
        assert var == 0.0

    @pytest.mark.parametrize("trials", [0, -5])
    def test_rejects_bad_trials(self, trials):
        cfg = ReceiverConfig(T=0.01, tau=0.01, xi=0.3)
        with pytest.raises(ValueError):
            simulate_counts_hist(10.0, cfg, trials, seed=1)

    @pytest.mark.parametrize("workers", [0, -2])
    def test_rejects_bad_workers(self, workers):
        cfg = ReceiverConfig(T=0.01, tau=0.01, xi=0.3)
        with pytest.raises(ValueError):
            simulate_counts_hist(10.0, cfg, 100, seed=1, workers=workers)
        with pytest.raises(ValueError):
            ideal_counts_hist(10.0, 0.01, 100, seed=1, workers=workers)

    @pytest.mark.parametrize("lam", [math.nan, math.inf, -1.0])
    @pytest.mark.parametrize("run", [
        lambda lam: simulate_counts_hist(
            lam, ReceiverConfig(T=0.01, tau=0.01, xi=0.3), 100, seed=1),
        lambda lam: ideal_counts_hist(lam, 0.01, 100, seed=1),
    ], ids=["receiver", "ideal"])
    def test_rejects_bad_rate(self, run, lam):
        with pytest.raises(ValueError, match="lambda="):
            run(lam)
