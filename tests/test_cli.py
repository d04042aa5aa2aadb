"""CLI harness: CSV output, config layering, exit codes, reproducibility."""
import csv
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pmtcount
from pmtcount import (ApproximationBreakdownError, ChannelParams,
                      DegenerateKlError, ReceiverConfig, SeriesBreakdownError,
                      ber_mc, cli, detector, moments)
from pmtcount.cli import (EXIT_BREAKDOWN, EXIT_INVALID_CONFIG, EXIT_OK, main)


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _sub_poisson_hist(lam, cfg, trials, seed, workers=1):
    """Stand-in MC histogram, independent of the random stream: the first
    ceil(trials / 2) trials count round(lam), the rest one more, so
    0 < variance < mean."""
    hist = np.zeros(round(lam) + 2, dtype=np.int64)
    hist[-2:] = trials - trials // 2, trials // 2
    return hist


class TestPmfCommand:
    def test_normalized_output(self, tmp_path):
        out = tmp_path / "pmf.csv"
        assert main(["pmf", "--lambda", "10", "--tau", "0.01",
                     "-o", str(out)]) == EXIT_OK
        rows = _read_csv(out)
        assert rows[0] == ["n", "probability"]
        total = sum(float(r[1]) for r in rows[1:])
        assert abs(total - 1.0) <= 1e-6

    def test_breakdown_exit_code(self, tmp_path):
        out = tmp_path / "pmf.csv"
        assert main(["pmf", "--lambda", "80", "--tau", "0.01",
                     "-o", str(out)]) == EXIT_BREAKDOWN
        assert not out.exists()

    def test_series_overflow_exit_code(self, capsys):
        assert main(["pmf", "--lambda", "1000", "--tau", "0.0005"]) == \
            EXIT_BREAKDOWN
        assert "overflow" in capsys.readouterr().err

    def test_series_breakdown_message_prints_plain_floats(self, capsys):
        assert main(["pmf", "--lambda", "17", "--tau", "0.001"]) == \
            EXIT_BREAKDOWN
        assert re.fullmatch(
            r"pmtcount: approximation breakdown: PMF series breakdown at "
            r"lambda=17\.0, tau=0\.001: sum=\d\.\d+, min=0\.0\n",
            capsys.readouterr().err)


class TestMomentsCommand:
    def test_all_models_reported(self, tmp_path):
        out = tmp_path / "m.csv"
        assert main(["moments", "--lambda", "10", "--T", "0.01",
                     "--tau", "0.02", "--xi", "0.3", "--sigma", "0.2",
                     "--sigma0", "0.02", "-o", str(out)]) == EXIT_OK
        rows = _read_csv(out)
        assert [r[0] for r in rows[1:]] == ["exact_noiseless",
                                            "approx_noiseless", "shot",
                                            "full"]

    @pytest.mark.parametrize("xi,valid", [("0.8", "1"), ("2.5", "0")])
    def test_thinning_models_invalid_at_pileup(self, tmp_path, xi, valid):
        # At xi >= 1 a crossing needs piled-up pulses, which the one-pulse
        # thinning of the shot and full models does not describe.
        out = tmp_path / "m.csv"
        assert main(["moments", "--preset", "fig6", "--xi", xi,
                     "-o", str(out)]) == EXIT_OK
        flags = {r[0]: r[-1] for r in _read_csv(out)[1:]}
        assert flags["shot"] == flags["full"] == valid


class TestFitCommand:
    def test_round_trip(self, tmp_path):
        import math
        lam, tau = 10.0, 0.015
        mean = lam * math.exp(-lam * tau)
        var = mean - 2.0 * tau * mean * mean
        # Two-point histogram with the requested mean and variance.
        import numpy as np
        from pmtcount import subpoisson_pmf
        dist = subpoisson_pmf(lam, tau)
        hist_path = tmp_path / "hist.csv"
        with open(hist_path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["n", "count"])
            for n, p in enumerate(dist.pmf):
                if p > 0:
                    w.writerow([n, p * 1e9])
        out = tmp_path / "fit.csv"
        assert main(["fit", "--input", str(hist_path),
                     "-o", str(out)]) == EXIT_OK
        row = dict(zip(*_read_csv(out)))
        assert float(row["lambda_fit"]) == pytest.approx(lam, rel=0.05)
        assert float(row["tau_fit"]) == pytest.approx(tau, rel=0.05)

    def test_missing_input_is_config_error(self, tmp_path):
        assert main(["fit", "--input", str(tmp_path / "nope.csv")]) == \
            EXIT_INVALID_CONFIG

    def test_fit_does_not_depend_on_count_scale(self, tmp_path):
        # Counts are weights: 0.2/0.5/0.3 sums to 1 and must fit like
        # its multiples (mean 1.1, population variance 0.49).
        fits = []
        for scale in (0.5, 1.0, 2.0):
            hist_path = tmp_path / "hist.csv"
            hist_path.write_text("n,count\n" + "".join(
                f"{n},{c * scale}\n" for n, c in enumerate((0.2, 0.5, 0.3))))
            out = tmp_path / "fit.csv"
            assert main(["fit", "--input", str(hist_path),
                         "-o", str(out)]) == EXIT_OK
            row = dict(zip(*_read_csv(out)))
            assert float(row["variance"]) == pytest.approx(0.49)
            fits.append((float(row["lambda_fit"]), float(row["tau_fit"])))
        assert fits[0] == pytest.approx(fits[1])
        assert fits[2] == pytest.approx(fits[1])

    def test_tiny_mean_is_breakdown(self, tmp_path):
        # mean = 1e-310: 2 mean^2 underflows, so no tau' exists.
        hist_path = tmp_path / "hist.csv"
        hist_path.write_text("n,count\n0,1e300\n1,1e-10\n")
        out = tmp_path / "fit.csv"
        assert main(["fit", "--input", str(hist_path), "-o", str(out)]) == \
            EXIT_BREAKDOWN
        assert not out.exists()

    def test_negative_count_index_is_config_error(self, tmp_path):
        hist_path = tmp_path / "hist.csv"
        hist_path.write_text("n,count\n-1,5\n0,10\n1,40\n2,20\n")
        assert main(["fit", "--input", str(hist_path)]) == \
            EXIT_INVALID_CONFIG

    def test_negative_count_is_config_error(self, tmp_path):
        # A negative weight still leaves a positive total and a
        # plausible sub-Poisson fit, so only an explicit check catches it.
        hist_path = tmp_path / "hist.csv"
        hist_path.write_text("n,count\n0,50\n1,100\n2,40\n3,-1\n")
        out = tmp_path / "fit.csv"
        assert main(["fit", "--input", str(hist_path), "-o", str(out)]) == \
            EXIT_INVALID_CONFIG
        assert not out.exists()


class TestConfigLayering:
    def test_flags_override_config_file(self, tmp_path):
        cfg = tmp_path / "params.cfg"
        cfg.write_text("tau = 0.02\nlambda0 = 1\nlambda1 = 12\n"
                       "T = 0.01\nxi = 0.3\n")
        out1 = tmp_path / "a.csv"
        assert main(["pmf", "--config", str(cfg), "--lambda", "10",
                     "-o", str(out1)]) == EXIT_OK
        out2 = tmp_path / "b.csv"
        assert main(["pmf", "--config", str(cfg), "--lambda", "10",
                     "--tau", "0.01", "-o", str(out2)]) == EXIT_OK
        # flag tau=0.01 gives a longer support than config tau=0.02
        assert len(_read_csv(out2)) > len(_read_csv(out1))

    def test_preset_supplies_defaults(self, tmp_path):
        out = tmp_path / "d.csv"
        assert main(["design", "--preset", "fig11", "-o", str(out)]) == \
            EXIT_OK
        rows = _read_csv(out)
        assert rows[0][0] == "xi_star"

    def test_unknown_preset_rejected(self):
        assert main(["pmf", "--preset", "fig99", "--lambda", "10",
                     "--tau", "0.01"]) == EXIT_INVALID_CONFIG

    def test_missing_params_rejected(self):
        assert main(["moments", "--lambda", "10"]) == EXIT_INVALID_CONFIG

    def test_invalid_receiver_rejected(self):
        assert main(["moments", "--lambda", "10", "--T", "0.013",
                     "--tau", "0.02", "--xi", "0.3"]) == EXIT_INVALID_CONFIG

    def test_config_file_overrides_preset(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("lam = 3\n")
        out = tmp_path / "m.csv"
        assert main(["moments", "--preset", "fig6", "--config", str(cfg),
                     "--xi", "0.3", "-o", str(out)]) == EXIT_OK
        row = dict(zip(*_read_csv(out)[:2]))
        assert float(row["lambda_equiv"]) == 3.0

    @pytest.mark.parametrize("flags,seed", [([], 5), (["--seed", "7"], 7)])
    def test_config_file_seed_and_trials(self, tmp_path, flags, seed):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("seed = 5\ntrials = 300\n")
        out = tmp_path / "a.csv"
        assert main(["approx-params", "--preset", "fig6", "--values", "0.3",
                     "--config", str(cfg), "-o", str(out)] + flags) == EXIT_OK
        params = json.loads((tmp_path / "a.csv.manifest.json")
                            .read_text())["params"]
        assert (params["seed"], params["trials"]) == (seed, 300)

    def test_large_config_seed_is_exact(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("seed = 9007199254740993\ntrials = 300\n")
        out = tmp_path / "a.csv"
        assert main(["approx-params", "--preset", "fig6", "--values", "0.3",
                     "--config", str(cfg), "-o", str(out)]) == EXIT_OK
        params = json.loads((tmp_path / "a.csv.manifest.json")
                            .read_text())["params"]
        assert params["seed"] == 2 ** 53 + 1

    def test_config_file_values_list(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("values = 0.3 0.5\ntrials = 300\n")
        out = tmp_path / "a.csv"
        assert main(["approx-params", "--lambda", "10", "--T", "0.01",
                     "--tau", "0.02", "--sigma", "0.2", "--sigma0", "0.02",
                     "--config", str(cfg), "-o", str(out)]) == EXIT_OK
        assert [r[0] for r in _read_csv(out)[1:]] == ["0.3", "0.5"]

    @pytest.mark.parametrize("line", ["lambda = 3", "lam_typo = 3",
                                      "output = 3", "trials = 2.5",
                                      "values ="])
    def test_bad_config_file_key_or_value(self, tmp_path, line):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(line + "\n")
        assert main(["ber", "--preset", "fig10", "--trials", "10",
                     "--config", str(cfg)]) == EXIT_INVALID_CONFIG

    def test_design_takes_no_mc_options(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["design", "--preset", "fig11", "--workers", "0"])
        assert exc.value.code == EXIT_INVALID_CONFIG
        out = tmp_path / "d.csv"
        assert main(["design", "--preset", "fig11", "-o", str(out)]) == \
            EXIT_OK
        params = json.loads((tmp_path / "d.csv.manifest.json")
                            .read_text())["params"]
        assert not {"trials", "seed", "workers"} & params.keys()

    @pytest.mark.parametrize("argv", [
        ["sweep-sampling", "--preset", "fig3", "--values", "0.01"],
        ["sweep-noise", "--preset", "fig5", "--values", "0.2"],
        ["approx-params", "--preset", "fig6", "--values", "0.3"],
        ["ber", "--preset", "fig10", "--values", "0.3"],
        ["ber", "--preset", "fig10", "--values", "0.3", "--mc-fitted-rule"],
    ])
    def test_zero_trials_rejected(self, argv):
        assert main(argv + ["--trials", "0"]) == EXIT_INVALID_CONFIG


class TestReproducibility:
    BER_ARGS = ["ber", "--lambda0", "1", "--lambda1", "12", "--T", "0.01",
                "--tau", "0.01", "--xi", "0.3", "--sigma", "0.2",
                "--sigma0", "0.02", "--trials", "20000", "--seed", "5"]

    def test_worker_count_does_not_change_csv(self, tmp_path):
        out1 = tmp_path / "w1.csv"
        out4 = tmp_path / "w4.csv"
        assert main(self.BER_ARGS + ["--workers", "1",
                                     "-o", str(out1)]) == EXIT_OK
        assert main(self.BER_ARGS + ["--workers", "4",
                                     "-o", str(out4)]) == EXIT_OK
        assert out1.read_bytes() == out4.read_bytes()

    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_nonpositive_workers_rejected(self, workers):
        assert main(["ber", "--preset", "fig10", "--values", "0.3",
                     "--trials", "10", "--workers", workers]) == \
            EXIT_INVALID_CONFIG

    def test_config_file_workers_is_int(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("workers = 2\n")
        out = tmp_path / "run.csv"
        assert main(self.BER_ARGS + ["--config", str(cfg),
                                     "-o", str(out)]) == EXIT_OK
        manifest = json.loads((tmp_path / "run.csv.manifest.json")
                              .read_text())
        assert manifest["params"]["workers"] == 2
        assert isinstance(manifest["params"]["workers"], int)

    def test_manifest_written(self, tmp_path):
        out = tmp_path / "run.csv"
        assert main(self.BER_ARGS + ["-o", str(out)]) == EXIT_OK
        manifest = json.loads((tmp_path / "run.csv.manifest.json")
                              .read_text())
        assert manifest["command"] == "ber"
        assert manifest["params"]["seed"] == 5
        assert "version" in manifest and "wall_time_s" in manifest

    def test_manifest_records_detection_rule(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "simulate_counts_hist", _sub_poisson_hist)
        out = tmp_path / "run.csv"
        assert main(["ber", "--preset", "fig10", "--values", "0.3",
                     "--trials", "2000", "--mc-fitted-rule",
                     "-o", str(out)]) == EXIT_OK
        manifest = json.loads((tmp_path / "run.csv.manifest.json")
                              .read_text())
        assert manifest["params"]["mc_fitted_rule"] is True

    def test_fixed_significant_digits(self, tmp_path):
        out = tmp_path / "run.csv"
        assert main(self.BER_ARGS + ["-o", str(out)]) == EXIT_OK
        for value in _read_csv(out)[1]:
            digits = value.replace(".", "").replace("-", "").lstrip("0")
            assert len(digits.split("e")[0]) <= 9


class TestDesignOutput:
    # SHA-256 of the fig11 design CSV from the scalar (xi, tau) grid loop;
    # the batched grid must write the same bytes.
    DIGEST = "7f8af74501c72c76c8b2b3c5103e5388d0fe0835c99630d886705a0aa17f5c36"
    # The fig11 receiver at lambda0 = 0.3, lambda1 = 9.3 takes the fast
    # path.
    FAST_DIGEST = (
        "d794fbd06faf3235ce5f32983cddec681fa6739f05bfe3c5f07c1b86a5e1f4f5")

    @pytest.mark.parametrize(
        "extra,digest",
        [([], DIGEST), (["--full-path"], DIGEST),
         (["--lambda0", "0.3", "--lambda1", "9.3"], FAST_DIGEST)],
        ids=["default", "full_path", "fast_path"])
    def test_csv_bytes_pinned(self, tmp_path, extra, digest):
        out = tmp_path / "design.csv"
        assert main(["design", "--preset", "fig11", "-o", str(out)]
                    + extra) == EXIT_OK
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


class TestSweepOutputs:
    # SHA-256 of each CSV at --trials 20000; any change to the random
    # stream, the sweep loop or the fits shows up here.
    CASES = [
        (["sweep-sampling", "--preset", "fig3", "--values", "0.02", "0.005",
          "--seed", "3"],
         "ab8e7a55ce13bcdc151c2b2c6f64700845fc2d9f686d9090ee516131f732178a"),
        (["sweep-noise", "--preset", "fig5", "--values", "0.1", "0.3",
          "--seed", "4"],
         "176cf8e33bfa89714626522a0d9bb183ebc91c36432ce71feadd30a62fe56a40"),
        (["approx-params", "--preset", "fig6", "--values", "0.2", "0.8",
          "--seed", "5"],
         "a8de4407adcdeab5894f8e5abfb076e1e7e640feabd7ffb8687051c3ac0b595a"),
        (["ber", "--preset", "fig10", "--values", "0.2", "0.5",
          "--seed", "6"],
         "f1bc09540164084095115f2322fe9051c3d8b196ccf89b59587392ba5eb97139"),
        (["ber", "--preset", "fig9", "--values", "0.01", "0.03",
          "--seed", "7", "--mc-fitted-rule"],
         "7ec8625a37a397d756f4c3790fd2815a2a94b7a3db0969c2a7fa379dcead9db1"),
    ]

    @pytest.mark.parametrize("argv,digest", CASES,
                             ids=["fig3", "fig5", "fig6", "fig10", "fig9"])
    def test_csv_bytes_pinned(self, tmp_path, argv, digest):
        out = tmp_path / "run.csv"
        assert main(argv + ["--trials", "20000", "-o", str(out)]) == EXIT_OK
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_reused_parser_keeps_no_state(self, tmp_path):
        # One parser serves every call in a process: a --mc-fitted-rule
        # run must leave the next call's parse untouched.
        (fig9, _), (fig10, digest) = self.CASES[4], self.CASES[3]
        out = tmp_path / "run.csv"
        for argv in (fig9, fig10):
            assert main(argv + ["--trials", "20000", "-o", str(out)]) == EXIT_OK
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
        assert cli._build_parser() is cli._build_parser()

    def test_mc_fitted_rule_needs_no_moment_inversion(self, tmp_path,
                                                       monkeypatch):
        # Only the binomial fit of the MC moments is used: the rule is
        # built without ever calling invert_moments.
        def no_inversion(mean, var):
            raise AssertionError("invert_moments called")
        monkeypatch.setattr(cli, "simulate_counts_hist", _sub_poisson_hist)
        monkeypatch.setattr(cli, "invert_moments", no_inversion)
        assert main(["ber", "--preset", "fig10", "--values", "0.3",
                     "--trials", "3", "--seed", "1", "--mc-fitted-rule",
                     "-o", str(tmp_path / "b.csv")]) == EXIT_OK

    @pytest.mark.parametrize("argv", [
        ["approx-params", "--preset", "fig6", "--values", "0.5"],
        ["ber", "--preset", "fig10", "--values", "0.3", "--mc-fitted-rule"],
        ["sweep-sampling", "--preset", "fig3", "--values", "0.01"],
        ["sweep-noise", "--preset", "fig5", "--values", "0.2"],
    ])
    def test_degenerate_fit_is_breakdown(self, argv):
        # One trial has variance 0: no binomial matches it.
        assert main(argv + ["--trials", "1"]) == EXIT_BREAKDOWN


def test_no_two_streams_share_a_key(monkeypatch, tmp_path):
    # Every histogram a sweep or ber_mc draws has its own stream key: the
    # fitted-rule fits, the evaluations, every point, and ber_mc at seeds
    # s and s + 1 (an int s and the tuple (s,) are the same key).
    keys = []

    def recorder(real):
        def hist(lam, cfg, trials, seed, workers=1):
            keys.append(seed if isinstance(seed, tuple) else (seed,))
            return real(lam, cfg, trials, seed, workers)
        return hist
    for owner in (cli, detector):
        monkeypatch.setattr(owner, "simulate_counts_hist",
                            recorder(owner.simulate_counts_hist))
    assert main(["ber", "--preset", "fig9", "--values", "0.01", "0.03",
                 "0.05", "--seed", "7", "--mc-fitted-rule", "--trials",
                 "20000", "-o", str(tmp_path / "b.csv")]) == EXIT_OK
    assert len(keys) == 12
    cfg = ReceiverConfig(T=0.01, tau=0.01, xi=0.3, sigma=0.2, sigma0=0.02)
    for seed in (7, 8):
        ber_mc(ChannelParams(lambda0=1.0, lambda1=12.0), cfg, 2000, seed)
    assert len(keys) == 16
    assert len(set(keys)) == len(keys)


@pytest.mark.parametrize("argv", [
    ["approx-params", "--lambda", "10", "--T", "0.01", "--values", "0.3"],
    ["approx-params", "--lambda", "10", "--T", "0.01", "--tau", "0.02"],
    ["sweep-sampling", "--tau", "0.02", "--xi", "0.3", "--values", "0.01"],
    ["ber", "--preset", "fig10", "--sweep", "lambda_s", "--values", "5"],
    ["ber", "--preset", "fig10", "--sweep", "tau", "--values", "0.02"],
    ["ber", "--lambda0", "1", "--lambda1", "12", "--T", "0.01", "--tau",
     "0.01", "--xi", "0.3", "--sweep", "xi"],
    ["pmf", "--tau", "0.01"],
    ["moments", "--T", "0.01", "--tau", "0.02", "--xi", "0.3"],
    ["ber", "--lambda0", "1", "--lambda1", "12", "--T", "0.01", "--tau",
     "0.01", "--xi", "0.3", "--values", "0.2", "0.5", "--trials", "10"],
])
def test_incomplete_config_is_config_error(argv):
    assert main(argv) == EXIT_INVALID_CONFIG


@pytest.mark.parametrize("argv", [
    ["moments", "--lambda", "10", "--T", "0.01", "--tau", "0.02",
     "--xi", "nan"],
    ["moments", "--lambda", "nan", "--T", "0.01", "--tau", "0.02",
     "--xi", "0.3"],
    ["pmf", "--lambda", "nan", "--tau", "0.01"],
    ["ber", "--preset", "fig10", "--values", "0.3", "--trials", "100",
     "--sigma", "nan"],
    ["design", "--preset", "fig11", "--lambda0", "nan"],
    ["design", "--preset", "fig11", "--sigma0", "inf"],
    ["ber", "--preset", "fig10", "--values", "0.3", "--trials", "100",
     "--lambda1", "inf"],
    ["approx-params", "--preset", "fig6", "--values", "nan",
     "--trials", "100"],
])
def test_nonfinite_parameter_is_config_error(argv, tmp_path):
    out = tmp_path / "out.csv"
    assert main(argv + ["-o", str(out)]) == EXIT_INVALID_CONFIG
    assert not out.exists()


@pytest.mark.parametrize("count", ["inf", "nan", "-inf"])
def test_nonfinite_fit_count_is_config_error(count, tmp_path):
    hist_path = tmp_path / "hist.csv"
    hist_path.write_text(f"n,count\n0,10\n1,{count}\n2,20\n")
    out = tmp_path / "fit.csv"
    assert main(["fit", "--input", str(hist_path), "-o", str(out)]) == \
        EXIT_INVALID_CONFIG
    assert not out.exists()


def test_breakdowns_share_one_base_class():
    assert moments.ApproximationBreakdownError is ApproximationBreakdownError
    assert issubclass(SeriesBreakdownError, ApproximationBreakdownError)
    assert issubclass(DegenerateKlError, ApproximationBreakdownError)


def test_any_breakdown_exits_3(monkeypatch, tmp_path, capsys):
    class FreshBreakdown(ApproximationBreakdownError):
        pass

    def body(args):
        raise FreshBreakdown("no model at this point")

    monkeypatch.setitem(cli._COMMANDS, "pmf", body)
    out = tmp_path / "pmf.csv"
    assert main(["pmf", "--lambda", "1", "--tau", "0.1",
                 "-o", str(out)]) == EXIT_BREAKDOWN
    assert not out.exists()
    assert "approximation breakdown" in capsys.readouterr().err


def test_threshold_beyond_binomial_support_is_breakdown(tmp_path):
    # At T = 1/3 the design's chosen point has a binomial N below its ML
    # threshold: no valid model there, which is exit 3, not a config error.
    out = tmp_path / "design.csv"
    assert main(["design", "--lambda0", "4.8055355684583025",
                 "--lambda1", "9.611071136916605",
                 "--T", "0.3333333333333333", "--tau", "0.3", "--xi", "0.3",
                 "--sigma", "0.3", "--sigma0", "0.11924391515404767",
                 "-o", str(out)]) == EXIT_BREAKDOWN
    assert not out.exists()


def test_import_and_every_command_leave_scipy_unloaded(tmp_path):
    # pmtcount's runtime needs numpy only; scipy.special alone was half of
    # the import time. One in-process call of each command, then no scipy
    # module may be loaded.
    hist = tmp_path / "hist.csv"
    hist.write_text("n,count\n0,2\n1,5\n2,3\n")
    runs = [["pmf", "--lambda", "5", "--tau", "0.02"],
            ["moments", "--preset", "fig6", "--xi", "0.3"],
            ["fit", "--input", str(hist)],
            ["sweep-sampling", "--preset", "fig3", "--values", "0.01"],
            ["sweep-noise", "--preset", "fig5", "--values", "0.2"],
            ["approx-params", "--preset", "fig6", "--values", "0.3"],
            ["ber", "--preset", "fig10", "--values", "0.3"],
            ["ber", "--preset", "fig9", "--values", "0.02",
             "--mc-fitted-rule"],
            ["design", "--preset", "fig11"]]
    assert {argv[0] for argv in runs} == cli._COMMANDS.keys()
    runs = [argv + ["-o", str(tmp_path / f"{i}.csv")]
            + (["--trials", "2000"] if argv[0] in cli._SWEEPS else [])
            for i, argv in enumerate(runs)]
    code = ("import sys, pmtcount.cli as c; "
            f"codes = [c.main(a) for a in {runs!r}]; "
            "loaded = sorted(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')); "
            "print(codes, loaded[:5]); "
            "sys.exit(bool(loaded) or any(codes))")
    src = str(Path(pmtcount.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
