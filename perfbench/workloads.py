"""The three workloads, their inputs and their output checks.

A workload runs in sweeps. A Monte Carlo sweep is one CLI preset sweep,
issued as one `pmtcount` call per sweep point with the point's own seed,
so that each point is a timed operation; the rows equal those of the
single-call preset sweep. An analytic sweep is one pass over the design
grid and the PMF grid. Every input comes from the benchmark seed.
"""
from __future__ import annotations

import csv
import hashlib
import math
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from pkg import load_package

load_package()
from pmtcount import cli, design, subpoisson  # noqa: E402
from pmtcount.design import DegenerateKlError  # noqa: E402
from pmtcount.moments import ApproximationBreakdownError  # noqa: E402
from pmtcount.params import ChannelParams, ReceiverConfig  # noqa: E402
from pmtcount.subpoisson import SeriesBreakdownError  # noqa: E402

BREAKDOWNS = (SeriesBreakdownError, ApproximationBreakdownError,
              DegenerateKlError)

# fig10: |ber - ber_analytic| / stderr. Seeds 1 and 2 reach 2.2; over 120
# seeds at 50 000 symbols z has mean -0.4 and sd 1.0, so 6 is about
# 5.6 sd from the bias and no random stream flips it by chance.
BER_Z_MAX = 6.0
# fig6: criterion 06's 5 % tolerance on (N, P), applied to the fit pooled
# over all sweeps of a run, widened by 4 standard errors of that pooled
# fit (estimated from the sweep-to-sweep spread).
FIT_TOL = 0.05
FIT_SE_WIDTH = 4.0
# criterion 01: PMF mean against the closed form.
PMF_MEAN_RTOL = 1e-4


@dataclass
class Tally:
    """What one run did, over all of its sweeps."""
    attempted: int = 0
    failed: int = 0
    wrong: list = field(default_factory=list)
    breakdowns: list = field(default_factory=list)
    op_s: list = field(default_factory=list)
    sweep_s: list = field(default_factory=list)
    items: float = 0.0
    csv_sha256: list = field(default_factory=list)

    def fail(self, what: str, breakdown: bool = False) -> None:
        """Count a failed operation; anything but a typed breakdown also
        makes the run incorrect."""
        self.failed += 1
        (self.breakdowns if breakdown else self.wrong).append(what)


def _seed_base(seed: int, sweep: int) -> int:
    # Per-point seeds are base + i (approx-params) or base + 2i, base+2i+1
    # (ber); a stride of 100 keeps every sweep's streams distinct.
    return seed * 1_000_000 + 100 * sweep


class CliSweep:
    """A preset sweep of the `pmtcount` CLI, one call per point."""

    def __init__(self, name, command, preset, workers, trials, values,
                 seed_step, seed, out_dir):
        self.name = name
        self.command = command
        self.preset = preset
        self.workers = workers
        self.trials = trials
        self.values = values
        self.seed_step = seed_step
        self.seed = seed
        self.out = out_dir / f"{name}.csv"
        self.rows: list[dict] = []

    def argv(self, i: int, seed: int, trials: int) -> list[str]:
        return [self.command, "--preset", self.preset,
                "--workers", str(self.workers), "--trials", str(trials),
                "--values", repr(self.values[i]), "--seed", str(seed),
                "-o", str(self.out)]

    def first_call(self) -> None:
        _call_cli(self.argv(0, self.seed, 1))

    def sweep(self, r: int, tally: Tally, tracer=None) -> None:
        """Run sweep r. The CLI's own spans come from the wrapped module
        attributes, so tracer is unused here."""
        base = _seed_base(self.seed, r)
        wall = 0.0
        for i in range(len(self.values)):
            argv = self.argv(i, base + self.seed_step * i, self.trials)
            dt, rc, exc = _timed(_call_cli, argv)
            wall += dt
            tally.op_s.append(dt)
            tally.items += self.trials
            tally.attempted += 1
            what = f"{self.name} sweep {r} point {self.values[i]}"
            if exc is not None:
                tally.fail(*_failure(what, exc))
                continue
            if rc != 0:
                tally.fail(f"{what}: exit {rc}",
                           breakdown=rc == cli.EXIT_BREAKDOWN)
                continue
            data = self.out.read_bytes()
            if r == 0:
                tally.csv_sha256.append(hashlib.sha256(data).hexdigest())
            row = next(csv.DictReader(data.decode().splitlines()))
            row = {k: float(v) for k, v in row.items()}
            self.rows.append(row)
            problem = self.check_point(row)
            if problem:
                tally.fail(f"{what}: {problem}")
        tally.sweep_s.append(wall)

    def check_point(self, row) -> str | None:
        raise NotImplementedError

    def finish(self, tally: Tally) -> None:
        """Checks over the whole run, after the last sweep."""


class Fig6Fit(CliSweep):
    """approx-params --preset fig6: binomial (N, P) against the MC fit."""

    def check_point(self, row):
        if not (math.isfinite(row["N_fit"]) and row["N_fit"] > 0.0
                and 0.0 < row["P_fit"] < 1.0):
            return f"fit out of range: N={row['N_fit']}, P={row['P_fit']}"
        return None

    def finish(self, tally):
        # Pool the per-sweep fits back into moments: mean = N P and
        # var = mean (1 - P); every sweep has the same trial count.
        for xi in self.values:
            rows = [r for r in self.rows if r["xi"] == xi]
            if len(rows) < 2:
                continue
            tally.attempted += 1
            mean = statistics.fmean(r["N_fit"] * r["P_fit"] for r in rows)
            var = statistics.fmean(r["N_fit"] * r["P_fit"] * (1.0 - r["P_fit"])
                                   for r in rows)
            p_fit = 1.0 - var / mean
            n_fit = mean / p_fit
            for key, pooled in (("N", n_fit), ("P", p_fit)):
                ratios = [r[f"{key}_fit"] / r[f"{key}_theory"] for r in rows]
                se = statistics.stdev(ratios) / math.sqrt(len(rows))
                err = abs(pooled / rows[0][f"{key}_theory"] - 1.0)
                if err > FIT_TOL + FIT_SE_WIDTH * se:
                    tally.fail(f"fig6 xi={xi}: pooled {key}_fit off theory by "
                               f"{err:.4f} over {len(rows)} sweeps "
                               f"(se {se:.4f})")
                    break


class Fig10Ber(CliSweep):
    """ber --preset fig10: Monte Carlo BER against the analytic BER."""

    def check_point(self, row):
        if not (0.0 <= row["ber"] <= 1.0 and row["stderr"] > 0.0):
            return f"ber {row['ber']} stderr {row['stderr']} out of range"
        z = (row["ber"] - row["ber_analytic"]) / row["stderr"]
        if not abs(z) <= BER_Z_MAX:
            return f"|ber - ber_analytic| / stderr = {abs(z):.2f} > {BER_Z_MAX}"
        return None


# fig11 receiver; xi and tau are the starting point of the design search.
FIG11 = dict(T=0.01, tau=0.01, xi=0.3, sigma=0.2, sigma0=0.02)
DESIGN_CHANNELS = [(l0, l1) for l0 in (0.25, 0.5, 1.0, 2.0)
                   for l1 in (4.0, 8.0, 12.0, 16.0, 20.0, 24.0)]
# Every (lambda, tau) with lambda*tau <= 0.5, the PMF's documented range:
# 54 points.
PMF_LAMBDAS = (0.5, 1.0, 2.0, 5.0, 10.0, 17.0, 20.0, 25.0, 50.0, 100.0)
PMF_TAUS = (0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.5)
PMF_GRID = [(lam, tau) for lam in PMF_LAMBDAS for tau in PMF_TAUS
            if lam * tau <= 0.5]


class AnalyticDesign:
    """select_params (fast path and forced full path) over a channel grid
    at the fig11 receiver, and subpoisson_pmf -> invert_moments over the
    PMF grid. No Monte Carlo. The seed sets the order of the calls."""

    name = "analytic_design"

    def __init__(self, seed):
        self.cfg = ReceiverConfig(**FIG11)
        self.ops = ([("design", ChannelParams(l0, l1), full)
                     for l0, l1 in DESIGN_CHANNELS for full in (False, True)]
                    + [("pmf", lam, tau) for lam, tau in PMF_GRID])
        self.rng = np.random.default_rng(seed)

    def first_call(self) -> None:
        design.select_params(ChannelParams(1.0, 12.0), self.cfg)

    def sweep(self, r: int, tally: Tally, tracer=None) -> None:
        wall = 0.0
        for k in self.rng.permutation(len(self.ops)):
            kind, a, b = self.ops[k]
            tally.attempted += 1
            if kind == "design":
                dt, problem = self._design(a, b, tracer)
                tally.op_s.append(dt)
                tally.items += 1
            else:
                dt, problem = self._pmf(a, b, tracer)
            wall += dt
            if problem:
                tally.fail(*problem)
        tally.sweep_s.append(wall)

    def finish(self, tally: Tally) -> None:
        pass

    def _design(self, channel, full, tracer):
        what = (f"select_params({channel.lambda0}, {channel.lambda1}, "
                f"force_full={full})")
        dt, res, exc = _timed(design.select_params, channel, self.cfg,
                              force_full=full)
        if exc is not None:
            return dt, _failure(what, exc)
        if tracer is not None:
            grid = design.default_xi_grid(self.cfg).size
            if not res.fast_path:
                grid *= design.default_tau_grid(self.cfg).size
            tracer.add("design.grid_points", grid)
            tracer.add("design.skipped_points", res.skipped_points)
        if not math.isfinite(res.predicted_ber):
            return dt, (f"{what}: predicted_ber {res.predicted_ber}",)
        if res.fast_path and not math.isclose(res.tau_star, self.cfg.T,
                                              rel_tol=1e-12):
            return dt, (f"{what}: fast path tau_star {res.tau_star} != T",)
        return dt, None

    def _pmf(self, lam, tau, tracer):
        what = f"subpoisson_pmf({lam}, {tau}) -> invert_moments"
        dt, dist, exc = _timed(subpoisson.subpoisson_pmf, lam, tau)
        if exc is not None:
            if tracer is not None and isinstance(exc, SeriesBreakdownError):
                tracer.add("subpoisson.pmf_breakdowns")
            return dt, _failure(what, exc)
        mean_ref = lam * math.exp(-lam * tau)
        if abs(dist.mean() - mean_ref) > PMF_MEAN_RTOL * mean_ref:
            return dt, (f"{what}: mean {dist.mean()} != {mean_ref}",)
        dt2, fit, exc = _timed(subpoisson.invert_moments, dist.mean(),
                               dist.variance())
        dt += dt2
        if exc is not None:
            return dt, _failure(what, exc)
        if not (all(map(math.isfinite, fit)) and fit[0] > 0.0
                and fit[1] >= 0.0):
            return dt, (f"{what}: invert_moments gave {fit}",)
        return dt, None


def _failure(what, exc):
    """Failure record: a typed breakdown fails the operation only; any
    other exception also makes the run incorrect."""
    if isinstance(exc, BREAKDOWNS):
        return f"{what}: {type(exc).__name__}", True
    return f"{what}: {type(exc).__name__}: {exc}", False


def _timed(fn, *args, **kwargs):
    """(seconds, result, exception) of one library call."""
    start = time.perf_counter()
    try:
        out, exc = fn(*args, **kwargs), None
    except Exception as e:  # noqa: BLE001 - every error is a counted failure
        out, exc = None, e
    return time.perf_counter() - start, out, exc


def _call_cli(argv) -> int:
    """Exit code of one in-process `pmtcount` call."""
    try:
        return cli.main(argv)
    except SystemExit as e:  # argparse rejects its arguments this way
        return e.code if isinstance(e.code, int) else 2


WORKLOADS = ("fig6_fit", "fig10_ber", "analytic_design")


def make(name: str, seed: int, out_dir):
    """The workload called name, with its inputs drawn from seed."""
    xis = [0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8]
    if name == "fig6_fit":
        # arrival-dense (lambda=10, tau=2T), shot + thermal noise, 1 thread;
        # 32768 trials = 2 full batches per point.
        return Fig6Fit(name, "approx-params", "fig6", workers=1,
                       trials=32768, values=xis, seed_step=1, seed=seed,
                       out_dir=out_dir)
    if name == "fig10_ber":
        # 2 threads; 50 000 symbols = 2 x 25 000 = 4 uneven batches per point.
        return Fig10Ber(name, "ber", "fig10", workers=2, trials=50_000,
                        values=xis, seed_step=2, seed=seed, out_dir=out_dir)
    if name == "analytic_design":
        return AnalyticDesign(seed)
    raise ValueError(f"unknown workload {name!r}")
