"""pmtcount benchmark: end-to-end metrics, or per-layer metrics from spans.

    python3 perfbench/run.py --workload fig6_fit --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; pmtcount is imported from its src/ tree.
Workloads (see workloads.py and NOTES.md): fig6_fit, fig10_ber,
analytic_design. A run makes set-up probes in fresh interpreters, one
untimed warm-up sweep, then sweeps until --seconds have passed and enough
latency samples exist. --trace 0 prints the end-to-end metrics; --trace 1
alternates untraced and traced sweeps and prints the per-layer metrics.
Times are reported at a reference machine speed: each sweep runs between
two calls of a fixed calibration computation, and its times are scaled
by CAL_REF_S over their mean (raw values are in the info line). The last
line of standard output is the result object; the line before it holds
the environment, the output hashes and the failure details.
CLI outputs go to .bench_build/perfbench/ in the checkout.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib.util
import inspect
import json
import os
import platform
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np

T_START = time.monotonic()

import pkg  # noqa: E402
from spans import Layer, Tracer, beyond, median, percentile, summarize  # noqa: E402,E501

SETUP_SAMPLES = {0: 5, 1: 3}
MIN_SWEEPS = 3
# p90 of the per-operation latency then has at least 10 samples beyond it.
MIN_OP_SAMPLES = 100
# No sweep starts later than this after start-up, so a run ends well
# inside three minutes even on a loaded machine.
LAST_SWEEP_START_S = 140.0
PROBE_TIMEOUT_S = 60.0
# calibrate() on the 2-core machine the benchmark was defined on, in its
# faster phases: timings are reported at the speed where it takes this.
CAL_REF_S = 0.0065


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("fig6_fit", "fig10_ber", "analytic_design"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1 or args.seed < 0:
        p.error("--seconds must be >= 1 and --seed >= 0")
    return args


def probe_setup(workload: str, n: int, out_dir) -> list[dict]:
    """n set-up samples, each a fresh interpreter timed from spawn to exit,
    at reference speed (calibrated before and after the probes)."""
    cal = calibrate()
    samples = []
    cmd = [sys.executable, str(pkg.ROOT / "perfbench" / "probe.py"),
           "--workload", workload, "--out-dir", str(out_dir)]
    for _ in range(n):
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=pkg.ROOT, capture_output=True,
                              text=True, timeout=PROBE_TIMEOUT_S)
        wall = time.perf_counter() - start
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        sample = json.loads(proc.stdout.strip().splitlines()[-1])
        sample["wall_s"] = wall
        samples.append(sample)
    scale = CAL_REF_S / ((cal + calibrate()) / 2.0)
    return [{"raw_wall_s": x["wall_s"],
             **{k: x[k] * scale for k in ("wall_s", "import_s", "first_call_s")}}
            for x in samples]


def instrument(tracer: Tracer) -> None:
    """Wrap every call site the workloads reach, at the module attribute
    the caller looks up."""
    from pmtcount import _kernels, cli, design, detector, simulate, subpoisson

    default_workers = getattr(simulate, "default_workers", lambda: 1)

    def hist_after(fn, args, kwargs, dur):
        a = inspect.signature(fn).bind(*args, **kwargs).arguments
        trials = a.get("trials", 0)
        tracer.add("simulate.trials", trials)
        if "cfg" in a:
            tracer.add("simulate.samples", trials * a["cfg"].n_samples)
        tracer.add("simulate.capacity_s",
                   (a.get("workers") or default_workers()) * dur)

    def count_batches(map_batches):
        def mapped(worker, n_batches, *rest, **kwargs):
            tracer.add("simulate.batches", n_batches)

            def timed(b):
                start = tracer.clock()
                try:
                    return worker(b)
                finally:
                    tracer.add("simulate.batch_busy_s", tracer.clock() - start)
            return map_batches(timed, n_batches, *rest, **kwargs)
        return mapped

    tracer.wrap(cli, "main", "cli.main")
    for owner in (cli, detector):
        tracer.wrap(owner, "simulate_counts_hist", "simulate.hist",
                    after=hist_after)
    tracer.wrap(simulate, "_draw_batch", "simulate.draw")
    tracer.wrap(_kernels, "receiver_counts", "simulate.kernel")
    tracer.replace(simulate, "_map_batches", count_batches)
    tracer.wrap(cli, "ber_mc", "detector.ber_mc")
    for owner in (cli, design):
        tracer.wrap(owner, "build_rule", "detector.build_rule")
        tracer.wrap(owner, "error_prob_analytic", "detector.error_prob")
        tracer.wrap(owner, "select_params", "design.select_params")
    for owner in (cli, detector, design):
        tracer.wrap(owner, "moments_full", "moments")
        tracer.wrap(owner, "binomial_approx", "moments")
    tracer.wrap(design, "kl_general_n", "design.kl")
    tracer.wrap(design, "kl_approx_01", "design.kl")
    tracer.wrap(subpoisson, "subpoisson_pmf", "subpoisson.pmf")
    for owner in (cli, subpoisson):
        tracer.wrap(owner, "invert_moments", "subpoisson.invert")


def calibrate() -> float:
    """Seconds for a fixed reference computation that uses no pmtcount
    code: random draws, a row sort, a threshold count and a Python loop.
    Median of 5 repeats."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        rng = np.random.default_rng(12345)
        x = rng.random((4096, 16))
        x.sort(axis=1)
        hits = int((rng.normal(0.0, 1.0, (4096, 50)) >= 0.5).sum())
        for i in range(20000):
            hits += i % 7
        times.append(time.perf_counter() - start)
    return median(times)


@dataclass
class Timings:
    """Sweep walls and latencies at reference speed.

    Each sweep runs between two calibrations; its times are multiplied by
    CAL_REF_S / (mean of those two), which cancels the machine's speed
    swings to first order. Raw values stay in the Tally.
    """
    plain: list = field(default_factory=list)
    traced: list = field(default_factory=list)
    ops: list = field(default_factory=list)
    cal: list = field(default_factory=list)
    traced_scale: list = field(default_factory=list)


def run_sweeps(wl, tally, seconds: int, trace: int):
    """Warm up, then sweep until done; with trace=1 every second sweep is
    traced. Returns (Timings, tracer)."""
    wl.sweep(0, tally)
    # The warm-up sweep's outputs are checked; its timings are dropped.
    tally.op_s.clear()
    tally.sweep_s.clear()
    tally.items = 0.0
    tracer = Tracer()
    t = Timings(cal=[calibrate()])
    start = time.monotonic()
    r = 1
    while True:
        on = trace == 1 and r % 2 == 0
        n_ops = len(tally.op_s)
        if on:
            instrument(tracer)
        try:
            wl.sweep(r, tally, tracer if on else None)
        finally:
            tracer.restore()
        t.cal.append(calibrate())
        scale = CAL_REF_S / ((t.cal[-2] + t.cal[-1]) / 2.0)
        (t.traced if on else t.plain).append(tally.sweep_s[-1] * scale)
        if on:
            t.traced_scale.append(scale)
        else:
            t.ops.extend(x * scale for x in tally.op_s[n_ops:])
        r += 1
        done = (time.monotonic() - start >= seconds
                and len(t.plain) >= MIN_SWEEPS
                and (len(t.traced) >= MIN_SWEEPS if trace
                     else len(t.ops) >= MIN_OP_SAMPLES))
        if done or time.monotonic() - T_START > LAST_SWEEP_START_S:
            break
    wl.finish(tally)
    return t, tracer


def end_to_end(tally, t: Timings, setup) -> dict:
    failed_frac = tally.failed / tally.attempted
    return {
        "setup_s": (median([s["wall_s"] for s in setup]), "s"),
        "wall_s": (median(t.plain), "s"),
        "work_per_s": (tally.items / sum(t.ops), "1/s"),
        "op_s_p50": (percentile(t.ops, 50), "s"),
        "op_s_p90": (percentile(t.ops, 90), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
        "success_frac": (1.0 - failed_frac, "frac"),
    }


def per_layer(tracer: Tracer, t: Timings, setup) -> dict:
    """Per-layer metrics, per traced sweep; times at reference speed."""
    from pmtcount import simulate

    n = len(t.traced)
    scale = median(t.traced_scale) / n
    layers = summarize(tracer.spans)
    c = tracer.counts

    def total(name):
        return layers.get(name, Layer()).total * scale

    def calls(name):
        return layers.get(name, Layer()).calls / n

    def own(name):
        return layers.get(name, Layer()).self * scale

    def count(name):
        return c.get(name, 0) / n

    slots = c.get("simulate.batches", 0) * getattr(simulate, "BATCH_SIZE", 0)
    grid = c.get("design.grid_points", 0)
    return {
        "simulate.kernel_s": (total("simulate.kernel"), "s"),
        "simulate.draw_s": (total("simulate.draw"), "s"),
        "simulate.draw_calls": (calls("simulate.draw"), "count"),
        "simulate.self_s": (own("simulate.hist"), "s"),
        "simulate.trials": (count("simulate.trials"), "count"),
        "simulate.samples": (count("simulate.samples"), "count"),
        "simulate.hist_calls": (calls("simulate.hist"), "count"),
        "simulate.worker_busy_frac": (
            _ratio(c.get("simulate.batch_busy_s", 0),
                   c.get("simulate.capacity_s", 0)), "frac"),
        "simulate.batch_fill": (
            _ratio(c.get("simulate.trials", 0), slots), "frac"),
        "simulate.wall_frac": (
            layers.get("simulate.hist", Layer()).total
            / sum(w / f for w, f in zip(t.traced, t.traced_scale)), "frac"),
        "detector.ber_mc_self_s": (own("detector.ber_mc"), "s"),
        "detector.build_rule_s": (total("detector.build_rule"), "s"),
        "detector.error_prob_s": (total("detector.error_prob"), "s"),
        "moments.s": (total("moments"), "s"),
        "moments.calls": (calls("moments"), "count"),
        "design.select_params_self_s": (own("design.select_params"), "s"),
        "design.kl_s": (total("design.kl"), "s"),
        "design.kl_calls": (calls("design.kl"), "count"),
        "design.grid_points": (count("design.grid_points"), "count"),
        "design.skipped_points": (count("design.skipped_points"), "count"),
        "design.useful_frac": (
            1.0 - _ratio(c.get("design.skipped_points", 0), grid)
            if grid else 0.0, "frac"),
        "subpoisson.pmf_s": (total("subpoisson.pmf"), "s"),
        "subpoisson.pmf_calls": (calls("subpoisson.pmf"), "count"),
        "subpoisson.pmf_breakdowns": (count("subpoisson.pmf_breakdowns"),
                                      "count"),
        "subpoisson.invert_s": (total("subpoisson.invert"), "s"),
        "subpoisson.invert_calls": (calls("subpoisson.invert"), "count"),
        "cli.self_s": (own("cli.main"), "s"),
        "setup.import_s": (median([s["import_s"] for s in setup]), "s"),
        "setup.first_call_s": (median([s["first_call_s"] for s in setup]),
                               "s"),
        "trace.overhead_frac": (median(t.traced) / median(t.plain) - 1.0,
                                "frac"),
    }


def _named(workload: str, table: dict) -> dict:
    """The generic end-to-end metrics under their per-workload names."""
    if "work_per_s" not in table:
        return {}
    if workload == "analytic_design":
        return {"designs_per_s": table["work_per_s"][0],
                "design_s_p50": table["op_s_p50"][0],
                "design_s_p90": table["op_s_p90"][0]}
    return {"trials_per_s": table["work_per_s"][0],
            "point_s_p50": table["op_s_p50"][0],
            "point_s_p90": table["op_s_p90"][0]}


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def environment() -> dict:
    import numpy
    import scipy
    from pmtcount import _kernels

    git = None
    if (pkg.ROOT / ".git").exists():
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(pkg.ROOT.parent))
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=pkg.ROOT,
                                  env=env, capture_output=True, text=True)
            git = proc.stdout.strip() if proc.returncode == 0 else None
        except OSError:  # no git executable
            pass
    src = hashlib.sha256()
    for path in sorted(pkg.SRC.rglob("*.py")):
        src.update(path.relative_to(pkg.SRC).as_posix().encode())
        src.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "numba_enabled": getattr(_kernels, "NUMBA_ENABLED", None),
        "PMTCOUNT_WORKERS": os.environ.get("PMTCOUNT_WORKERS"),
        "PMTCOUNT_NO_NUMBA": os.environ.get("PMTCOUNT_NO_NUMBA"),
        "git_revision": git,
        "src_sha256": src.hexdigest(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        pkg.load_package()
    except (pkg.MissingPackage, ImportError) as exc:
        print(f"perfbench: cannot import pmtcount: {exc}", file=sys.stderr)
        return 2
    import workloads

    out_dir = pkg.ROOT / ".bench_build" / "perfbench"
    out_dir.mkdir(parents=True, exist_ok=True)
    setup = probe_setup(args.workload, SETUP_SAMPLES[args.trace], out_dir)
    wl = workloads.make(args.workload, args.seed, out_dir)
    tally = workloads.Tally()
    t, tracer = run_sweeps(wl, tally, args.seconds, args.trace)

    if args.trace:
        table = per_layer(tracer, t, setup)
    else:
        table = end_to_end(tally, t, setup)
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in table.items()}
    info = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "environment": environment(),
        "sweeps": {"plain": len(t.plain), "traced": len(t.traced)},
        "op_samples": len(t.ops),
        "op_samples_beyond_p90": beyond(t.ops, 90),
        "calibration_s": {"reference": CAL_REF_S, "median": median(t.cal),
                          "min": min(t.cal), "max": max(t.cal)},
        "raw": {"wall_s": median(tally.sweep_s),
                "op_s_p50": percentile(tally.op_s, 50),
                "op_s_p90": percentile(tally.op_s, 90),
                "setup_s": median([s["raw_wall_s"] for s in setup])},
        "failed_frac": tally.failed / tally.attempted,
        "named": _named(args.workload, table),
        "breakdowns": sorted(set(tally.breakdowns)),
        "wrong": tally.wrong[:20],
        "absent_spans": sorted(set(tracer.absent)),
        "csv_sha256_first_sweep": tally.csv_sha256,
    }
    print(json.dumps(info))
    print(json.dumps({"correct": not tally.wrong,
                      "attempted": tally.attempted,
                      "failed": tally.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
