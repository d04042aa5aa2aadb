"""Batch experiment harness: analytic/Monte-Carlo sweeps written as CSV.

Every run writes a CSV with a header row (values at 9 significant digits)
plus a JSON manifest (every resolved option, version, wall time). Each
option takes its value from the first layer that sets it: command-line
flag > config file > preset > built-in default (``DEFAULTS``). Exit codes:
0 success, 2 invalid configuration, 3 approximation breakdown at the
requested operating point, 1 internal error.
"""
from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys
import time

import numpy as np

from . import __version__
from .design import select_params
from .detector import (ber_mc, build_rule, build_rule_from_fit,
                       error_prob_analytic)
from .moments import (binomial_approx, fit_binomial, moments_approx_noiseless,
                      moments_exact_noiseless, moments_full, moments_shot)
from .params import ApproximationBreakdownError, ChannelParams, ReceiverConfig
from .simulate import hist_moments, simulate_counts_hist
from .subpoisson import invert_moments, subpoisson_pmf

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_INVALID_CONFIG = 2
EXIT_BREAKDOWN = 3

_PARAM_KEYS = ("T", "tau", "xi", "sigma", "sigma0", "lambda0", "lambda1")

# Built-in value of each option no flag, config file or preset sets; a
# config value takes its entry's type (float if none; `values` is a list).
DEFAULTS = dict(trials=100_000, seed=1, workers=1, sigma=0.0, sigma0=0.0,
                full_path=False, mc_fitted_rule=False)

# Desk-scale presets mirroring the published sweeps. Trial counts are
# sized for minutes-scale runs; the listed BER presets use 1e5 symbols
# per point, the fitting presets 1e5..1e6 trials per point.
PRESETS = {
    "fig3": dict(command="sweep-sampling", lam=10.0, tau=0.02, xi=0.3,
                 sigma=0.0, sigma0=0.0, values=[0.02, 0.01, 0.005, 0.004, 0.002],
                 trials=200_000),
    "fig4": dict(command="sweep-sampling", lam=10.0, tau=0.005, xi=0.3,
                 sigma=0.0, sigma0=0.0, values=[0.02, 0.01, 0.005, 0.004, 0.002],
                 trials=200_000),
    "fig5": dict(command="sweep-noise", lam=10.0, tau=0.02, T=0.01, xi=0.3,
                 sigma0=0.0, values=[0.1, 0.15, 0.2, 0.25, 0.3],
                 trials=200_000),
    "fig6": dict(command="approx-params", lam=10.0, tau=0.02, T=0.01,
                 sigma=0.2, sigma0=0.02,
                 values=[0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8], trials=200_000),
    "fig7": dict(command="approx-params", lam=10.0, tau=0.01, T=0.01,
                 sigma=0.2, sigma0=0.02,
                 values=[0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8], trials=200_000),
    "fig9": dict(command="ber", sweep="tau", lambda0=1.0, lambda1=12.0,
                 T=0.01, xi=0.3, sigma=0.2, sigma0=0.02,
                 values=[0.01, 0.02, 0.03, 0.04, 0.05], trials=100_000),
    "fig10": dict(command="ber", sweep="xi", lambda0=1.0, lambda1=12.0,
                  T=0.01, tau=0.01, sigma=0.2, sigma0=0.02,
                  values=[0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8],
                  trials=100_000),
    "fig11": dict(command="design", lambda0=1.0, lambda1=12.0, T=0.01,
                  tau=0.01, xi=0.3, sigma=0.2, sigma0=0.02),
}


def _fmt(x) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.9g}"


def _write_csv(path, header, rows):
    out = open(path, "w", newline="") if path else sys.stdout
    try:
        writer = csv.writer(out)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])
    finally:
        if path:
            out.close()


def _write_manifest(path, args, wall_time):
    if not path:
        return
    manifest = {
        "command": args.command,
        "params": {k: v for k, v in vars(args).items()
                   if k not in ("command", "output")},
        "version": __version__,
        "wall_time_s": wall_time,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    with open(str(path) + ".manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, default=str)
        fh.write("\n")


def _parse(key, text):
    """A config file's `text` for option `key`, as that option's type."""
    if key == "values":
        values = [float(v) for v in text.split()]
        if not values:
            raise ValueError("values needs at least one number")
        return values
    try:  # exact for integers of any size; 1e5 still reads as 100000
        num = int(text)
    except ValueError:
        num = float(text)
    typ = type(DEFAULTS.get(key, 0.0))
    if typ is not float and not float(num).is_integer():
        raise ValueError(f"{key} must be an integer, got {text!r}")
    return typ(num)


def _read_config_file(path, params):
    values = {}
    with open(path) as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"malformed config line: {line!r}")
            key, val = (s.strip() for s in line.split("=", 1))
            if key not in params:
                raise ValueError(f"not a parameter of this command: {key!r}")
            values[key] = _parse(key, val)
    return values


def _resolve(args):
    """Fill unset options from the config file, preset, then DEFAULTS;
    presets are cut to the command's parameters, config keys must be one."""
    if args.preset and args.preset not in PRESETS:
        raise ValueError(f"unknown preset {args.preset!r}")
    params = vars(args).keys() - {"command", "config", "preset", "output",
                                  "input"}
    config = _read_config_file(args.config, params) if args.config else {}
    for layer in (config, PRESETS.get(args.preset, {}), DEFAULTS):
        for key in params & layer.keys():
            if getattr(args, key) is None:
                setattr(args, key, layer[key])


def _require(what, params, *keys):
    missing = [k for k in keys if params.get(k) is None]
    if missing:
        raise ValueError(f"missing {what}: {', '.join(missing)}")


def _receiver(args, **point) -> ReceiverConfig:
    """Receiver config from the resolved args, a sweep point overriding."""
    kw = dict(vars(args), **point)
    _require("receiver parameters", kw, "T", "tau", "xi")
    return ReceiverConfig(T=kw["T"], tau=kw["tau"], xi=kw["xi"],
                          sigma=kw["sigma"], sigma0=kw["sigma0"])


def _channel(args, **point) -> ChannelParams:
    """Channel from the resolved args; a swept lambda_s sets lambda1."""
    _require("channel parameters", vars(args), "lambda0", "lambda1")
    lambda1 = (args.lambda0 + point["lambda_s"] if "lambda_s" in point
               else args.lambda1)
    return ChannelParams(lambda0=args.lambda0, lambda1=lambda1)


def _mc_moments(args, lam, cfg, seed):
    """Monte Carlo mean and unbiased variance of the recorded count."""
    hist = simulate_counts_hist(lam, cfg, args.trials, seed, args.workers)
    return hist_moments(hist)


# ---------------------------------------------------------------------------
# subcommand bodies

def _cmd_pmf(args):
    _require("parameters", vars(args), "lam", "tau")
    dist = subpoisson_pmf(args.lam, args.tau)
    rows = [(n, p) for n, p in enumerate(dist.pmf)]
    return ["n", "probability"], rows


def _cmd_moments(args):
    cfg = _receiver(args)
    _require("parameters", vars(args), "lam")
    rows = []
    for name, fn in (("exact_noiseless", moments_exact_noiseless),
                     ("approx_noiseless", moments_approx_noiseless),
                     ("shot", moments_shot),
                     ("full", moments_full)):
        m = fn(args.lam, cfg)
        rows.append((name, m.mean, m.variance, m.lambda_equiv, m.tau_equiv,
                     m.approx_valid))
    return (["model", "mean", "variance", "lambda_equiv", "tau_equiv",
             "approx_valid"], rows)


def _cmd_fit(args):
    with open(args.input) as fh:
        rows = list(csv.DictReader(fh))
    n = np.array([int(r["n"]) for r in rows], dtype=np.int64)
    counts = np.array([float(r["count"]) for r in rows])
    if (counts < 0.0).any():
        raise ValueError("counts must be nonnegative")
    hist = np.bincount(n, weights=counts)
    # Counts may be weights (any scale), so use the population moments,
    # which are scale-invariant; hist_moments' n/(n-1) needs integer counts.
    total = hist.sum()
    if not 0.0 < total < math.inf:
        raise ValueError("counts must be finite with a positive total, "
                         f"got {total}")
    k = np.arange(hist.size)
    mean = float(k @ hist / total)
    var = float((k - mean) ** 2 @ hist / total)
    lam_fit, tau_fit = invert_moments(mean, var)
    return (["mean", "variance", "lambda_fit", "tau_fit"],
            [(mean, var, lam_fit, tau_fit)])


def _equiv_row(model):
    """Row builder: MC-fitted (tau', lambda') beside `model`'s theory."""
    def row(args, point, key):
        cfg = _receiver(args, **point)
        m = model(args.lam, cfg)
        lam_fit, tau_fit = invert_moments(
            *_mc_moments(args, args.lam, cfg, key))
        return tau_fit, lam_fit, m.tau_equiv, m.lambda_equiv
    return row


def _binomial_row(args, point, key):
    """Row builder: theory binomial (N, P) beside the MC-fitted one."""
    cfg = _receiver(args, **point)
    b = binomial_approx(moments_full(args.lam, cfg), cfg.derived)
    fit = fit_binomial(*_mc_moments(args, args.lam, cfg, key))
    return b.N, b.P, fit.N, fit.P


def _ber_row(args, point, key):
    """Row builder: MC BER beside the detection rule's analytic BER."""
    channel, cfg = _channel(args, **point), _receiver(args, **point)
    if args.mc_fitted_rule:
        rule = build_rule_from_fit(*(
            fit_binomial(*_mc_moments(args, lam, cfg, (*key, 1, h)))
            for h, lam in enumerate((channel.lambda0, channel.lambda1))))
    else:
        rule = build_rule(channel, cfg)
    ber, stderr = ber_mc(channel, cfg, args.trials, (*key, 0), args.workers,
                         rule=rule)
    return ber, stderr, error_prob_analytic(rule)


_EQUIV_COLUMNS = ["tau_fit", "lambda_fit", "tau_theory", "lambda_theory"]

# MC sweep command -> (swept parameter, rate parameters, row builder, row
# columns); ber sweeps its --sweep parameter, or runs one unswept point.
_SWEEPS = {
    "sweep-sampling": ("T", ("lam",), _equiv_row(moments_approx_noiseless),
                       _EQUIV_COLUMNS),
    "sweep-noise": ("sigma", ("lam",), _equiv_row(moments_shot),
                    _EQUIV_COLUMNS),
    "approx-params": ("xi", ("lam",), _binomial_row,
                      ["N_theory", "P_theory", "N_fit", "P_fit"]),
    "ber": (None, ("lambda0", "lambda1"), _ber_row,
            ["ber", "stderr", "ber_analytic"]),
}


def _cmd_sweep(args):
    """One MC-versus-theory row per sweep point, a dict of overrides.
    Point i's row draws on stream keys that extend (seed, i): the sweeps on
    (seed, i), ber on (seed, i, 0, h) for hypothesis h, --mc-fitted-rule's
    fits on (seed, i, 1, h); see `simulate`."""
    swept, rates, row, columns = _SWEEPS[args.command]
    swept = swept or args.sweep
    _require("parameters", vars(args), *rates)
    if swept or args.values is not None:
        _require("parameters", {"sweep": swept, "values": args.values},
                 "sweep", "values")
    points = [(v, {swept: v}) for v in args.values] if swept else [(0.0, {})]
    rows = [(v, *row(args, point, (args.seed, i)))
            for i, (v, point) in enumerate(points)]
    return [swept or "point", *columns], rows


def _cmd_design(args):
    channel = _channel(args)
    cfg = _receiver(args)
    result = select_params(channel, cfg, force_full=args.full_path)
    c = result.conditions
    row = (result.xi_star, result.tau_star, result.kl_01, result.kl_10,
           result.predicted_ber, result.fast_path, c.kl_asymmetry,
           c.holding_time_ok, c.p_bound, c.kl_gap_bound, result.skipped_points)
    return (["xi_star", "tau_star", "kl_01", "kl_10", "predicted_ber",
             "fast_path", "kl_asymmetry", "holding_time_ok", "p_bound",
             "kl_gap_bound", "skipped_points"], [row])


_COMMANDS = {
    "pmf": _cmd_pmf,
    "moments": _cmd_moments,
    "fit": _cmd_fit,
    **dict.fromkeys(_SWEEPS, _cmd_sweep),
    "design": _cmd_design,
}


@functools.cache
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="pmtcount",
        description="Photon-counting receiver experiments (CSV output)")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_mc=True):
        p.add_argument("--config", help="flat key=value parameter file")
        p.add_argument("--preset", help="named parameter preset (fig3..fig11)")
        p.add_argument("--output", "-o", help="CSV output path (default stdout)")
        for key in _PARAM_KEYS:
            p.add_argument(f"--{key}", type=float, default=None)
        p.add_argument("--lambda", dest="lam", type=float, default=None,
                       help="single photon arrival rate")
        if needs_mc:
            p.add_argument("--trials", type=int, default=None)
            p.add_argument("--seed", type=int, default=None)
            p.add_argument("--workers", type=int, default=None,
                           help="thread count (default 1)")

    p = sub.add_parser("pmf", help="ideal dead-time counting PMF")
    common(p, needs_mc=False)

    p = sub.add_parser("moments", help="analytic count moments, all models")
    common(p, needs_mc=False)

    p = sub.add_parser("fit", help="fit (lambda', tau') to a count histogram")
    common(p, needs_mc=False)
    p.add_argument("--input", required=True,
                   help="CSV histogram with columns n,count")

    for name, help_text, label in (
            ("sweep-sampling", "MC vs theory equivalent params over T",
             "sampling periods"),
            ("sweep-noise", "MC vs theory equivalent params over sigma",
             "shot noise std devs"),
            ("approx-params", "binomial (N, P) vs MC fit over xi",
             "decision thresholds"),
            ("ber", "Monte Carlo bit error rate", "values of --sweep")):
        p = sub.add_parser(name, help=help_text)
        common(p)
        p.add_argument("--values", type=float, nargs="+", default=None,
                       help=f"swept {label}")
    p.add_argument("--sweep", choices=["xi", "tau", "lambda_s"], default=None)
    p.add_argument("--mc-fitted-rule", action="store_true", default=None,
                   help="build the detection rule from MC-fitted moments")

    p = sub.add_parser("design", help="select (xi*, tau*) by max-min KL")
    common(p, needs_mc=False)
    p.add_argument("--full-path", action="store_true", default=None,
                   help="force the full max-min grid search")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    start = time.monotonic()
    try:
        _resolve(args)
        header, rows = _COMMANDS[args.command](args)
    except ApproximationBreakdownError as exc:
        print(f"pmtcount: approximation breakdown: {exc}", file=sys.stderr)
        return EXIT_BREAKDOWN
    except (ValueError, FileNotFoundError, KeyError) as exc:
        print(f"pmtcount: invalid configuration: {exc}", file=sys.stderr)
        return EXIT_INVALID_CONFIG
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"pmtcount: internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    _write_csv(args.output, header, rows)
    _write_manifest(args.output, args, time.monotonic() - start)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
