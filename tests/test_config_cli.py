"""Config parsing and the command-line front-end (exit codes, file formats)."""
import csv
import math
import re
import subprocess
import sys

import numpy as np
import pytest

from ginibrenet import samplers
from ginibrenet.cli import main
from ginibrenet.config import ConfigError, load_config
from ginibrenet.patterns import read_pattern_csv

GOOD_CONFIG = """\
[process]
kind = palm_beta_ginibre
beta = 1.0
radius = 2.0

[receiver]
x = 0.0
y = 0.0

[attenuation]
R = 1.0
alpha = 4.0

[fading]
kind = exponential
c = 1.0

[estimation]
estimator = tilted
n_reps = 200
x_grid = 3.0, 4.0, 5.0
seed = 7
"""


class TestConfig:
    def test_good_config_parses(self, tmp_path):
        p = tmp_path / "exp.ini"
        p.write_text(GOOD_CONFIG)
        cfg = load_config(p)
        assert cfg.model.fading.kind == "exponential"
        assert cfg.model.radius == 2.0
        assert cfg.plan.x_grid == [3.0, 4.0, 5.0]
        assert cfg.plan.seed == 7
        assert cfg.regime.kind == "exponential"

    def test_missing_fading_section(self, tmp_path):
        p = tmp_path / "bad.ini"
        p.write_text(GOOD_CONFIG.replace("[fading]", "[fadingx]"))
        with pytest.raises(ConfigError, match=r"\[fading\]"):
            load_config(p)

    def test_bad_value_is_line_anchored(self, tmp_path):
        p = tmp_path / "bad.ini"
        p.write_text(GOOD_CONFIG.replace("alpha = 4.0", "alpha = four"))
        with pytest.raises(ConfigError, match=r"bad\.ini:\d+.*alpha"):
            load_config(p)

    def test_non_increasing_grid(self, tmp_path):
        p = tmp_path / "bad.ini"
        p.write_text(GOOD_CONFIG.replace("3.0, 4.0, 5.0", "5.0, 4.0, 3.0"))
        with pytest.raises(ConfigError, match="increasing"):
            load_config(p)

    def test_incompatible_estimator(self, tmp_path):
        p = tmp_path / "bad.ini"
        p.write_text(GOOD_CONFIG.replace("estimator = tilted", "estimator = mlmc"))
        with pytest.raises(ConfigError, match="estimator"):
            load_config(p)

    def test_beta_ginibre_kind_refused(self, tmp_path):
        # every estimator draws the reduced Palm process, so this kind would
        # run the same model as palm_beta_ginibre
        p = tmp_path / "bad.ini"
        p.write_text(GOOD_CONFIG.replace("kind = palm_beta_ginibre", "kind = beta_ginibre"))
        with pytest.raises(ConfigError,
                           match=r"bad\.ini:2: \[process\] kind: .*reduced Palm process"):
            load_config(p)

    def test_seed_override(self, tmp_path):
        p = tmp_path / "exp.ini"
        p.write_text(GOOD_CONFIG)
        assert load_config(p, seed_override=99).plan.seed == 99

    @pytest.mark.parametrize("extra", [
        "[output]\nformats = csv",
        "split = 2.0",  # lands in [estimation], the last section of GOOD_CONFIG
        "[noise]\nw = -1",
        "[threshold]\ntau = 0",
    ], ids=["formats", "split", "w", "tau"])
    def test_unread_key_still_loads(self, tmp_path, extra):
        # keys that nothing reads, even with values a reader would reject:
        # the config loads as if they were absent
        good, old = tmp_path / "good.ini", tmp_path / "old.ini"
        good.write_text(GOOD_CONFIG)
        old.write_text(GOOD_CONFIG + extra + "\n")
        assert load_config(old).model == load_config(good).model
        assert load_config(old).plan == load_config(good).plan


class TestCliSample:
    def test_sample_writes_readable_csv(self, tmp_path):
        out = tmp_path / "pat.csv"
        code = main(["sample", "--process", "ginibre", "--radius", "3",
                     "--seed", "7", "--out", str(out)])
        assert code == 0
        pat = read_pattern_csv(out)
        assert pat.process_kind == "ginibre"
        assert np.all(np.abs(pat.points) <= 3.0)

    def test_sample_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            main(["sample", "--process", "beta-ginibre", "--beta", "0.25",
                  "--radius", "3", "--seed", "11", "--out", str(path)])
        assert a.read_text() == b.read_text()

    def test_stdout_matches_out_file(self, tmp_path, capsys):
        out = tmp_path / "pat.csv"
        args = ["sample", "--process", "palm", "--beta", "0.5", "--radius", "3",
                "--seed", "13"]
        assert main(args + ["--out", str(out)]) == 0
        capsys.readouterr()
        assert main(args) == 0
        assert capsys.readouterr().out == out.read_text()

    @pytest.mark.parametrize("process", ["ginibre", "poisson"])
    def test_beta_is_a_usage_error_where_it_does_nothing(self, tmp_path, capsys,
                                                         process):
        out = tmp_path / "pat.csv"
        assert main(["sample", "--process", process, "--beta", "0.3", "--radius",
                     "2", "--seed", "1", "--out", str(out)]) == 2
        assert "--beta" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("variants, label", [
        ([["beta-ginibre"], ["beta-ginibre", "--beta", "1"], ["ginibre"]], "ginibre"),
        ([["palm"], ["palm", "--beta", "1"]], "palm_beta_ginibre"),
    ], ids=["beta-ginibre", "palm"])
    def test_beta_defaults_to_one(self, capsys, variants, label):
        # beta = 1 thins nothing: beta-ginibre draws the Ginibre pattern and
        # labels it so
        texts = set()
        for args in variants:
            assert main(["sample", "--process", *args, "--radius", "3",
                         "--seed", "5"]) == 0
            texts.add(capsys.readouterr().out)
        (text,) = texts
        assert text.startswith(f"# process={label} beta=1.0 ")

    def test_env_seed_fallback(self, tmp_path, monkeypatch):
        out = tmp_path / "pat.csv"
        monkeypatch.setenv("GINIBRENET_SEED", "123")
        main(["sample", "--process", "poisson", "--radius", "2",
              "--out", str(out)])
        assert read_pattern_csv(out).seed == 123

    def test_bad_radius_exit_2(self):
        assert main(["sample", "--process", "ginibre", "--radius", "-1",
                     "--seed", "1"]) == 2

    def test_unknown_flag_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["validate", "--bogus"])
        assert exc.value.code == 2


class TestSeedInput:
    @pytest.mark.parametrize("case, message", [
        ("config", r"exp\.ini:\d+: \[estimation\] seed: must be non-negative"),
        ("flag", r"argument --seed: must be non-negative, got -1"),
        ("env", r"^error: GINIBRENET_SEED: not an integer: 'abc'$"),
    ], ids=["config", "flag", "env"])
    def test_bad_seed_is_a_usage_error(self, tmp_path, monkeypatch, capsys,
                                       case, message):
        out = tmp_path / "out"
        cfg = tmp_path / "exp.ini"
        seed = "-1" if case == "config" else "7"
        cfg.write_text(GOOD_CONFIG.replace("seed = 7", f"seed = {seed}")
                       + f"\n[output]\ndirectory = {out}\n")
        argv = ["estimate", "--config", str(cfg)]
        if case == "flag":
            argv += ["--seed", "-1"]
        if case == "env":
            monkeypatch.setenv("GINIBRENET_SEED", "abc")
            argv = ["sample", "--process", "ginibre", "--radius", "2",
                    "--out", str(out / "pat.csv")]
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
        assert code == 2
        assert re.search(message, capsys.readouterr().err.strip())
        assert not out.exists()


class TestCliRates:
    def test_bounded_table(self, tmp_path, capsys):
        code = main(["rates", "--fading", "bounded", "--bound", "2",
                     "--atten-R", "1", "--atten-alpha", "2.5", "--x", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "0.5" in out

    def test_compare_poisson_constants(self, capsys):
        code = main(["rates", "--fading", "bounded", "--bound", "1",
                     "--atten-R", "1", "--atten-alpha", "4",
                     "--compare-poisson"])
        assert code == 0
        out = capsys.readouterr().out
        assert "-0.5" in out and "-1" in out

    @pytest.mark.parametrize("fading", [
        ["bounded", "--bound", "3"],
        ["weibull_super", "--gamma", "2", "--c", "2.5"],
    ], ids=["bounded", "weibull_super"])
    def test_log_growth_below_one_exit_2(self, capsys, fading):
        # x^2 log x and its Weibull analogue are not positive at x <= 1
        code = main(["rates", "--fading", *fading, "--atten-R", "1.5",
                     "--atten-alpha", "3", "--x", "0.5"])
        assert code == 2
        assert "x > 1" in capsys.readouterr().err

    def test_compare_poisson_insensitive_regime(self, capsys):
        code = main(["rates", "--fading", "exponential", "--c", "1",
                     "--compare-poisson"])
        assert code == 2
        assert "insensitive" in capsys.readouterr().err


class TestCliEstimate:
    def test_estimate_outputs(self, tmp_path):
        cfg = tmp_path / "exp.ini"
        cfg.write_text(GOOD_CONFIG + f"\n[output]\ndirectory = {tmp_path}/out\n")
        code = main(["estimate", "--config", str(cfg)])
        assert code == 0
        est = (tmp_path / "out" / "estimates.csv").read_text().splitlines()
        assert est[0] == ("x,estimator,p,stderr,ci_lo,ci_hi,n_reps,seed,"
                          "ess,max_weight_share")
        assert len(est) == 4
        assert (tmp_path / "out" / "slope.csv").exists()
        # a tilted estimate writes its weight diagnostics; ESS >= 1 / share
        for row in csv.DictReader(est):
            ess, share = float(row["ess"]), float(row["max_weight_share"])
            assert 0.0 < share <= 1.0 and 1.0 - 1e-12 <= share * ess
            assert ess <= float(row["n_reps"])

    def test_slope_fitted_to_the_written_estimates(self, tmp_path):
        cfg = tmp_path / "sj.ini"
        cfg.write_text(
            GOOD_CONFIG.replace("kind = exponential\nc = 1.0", "kind = pareto\nc = 2.0")
            .replace("estimator = tilted", "estimator = single_jump")
            .replace("n_reps = 200", "n_reps = 1000")
            .replace("3.0, 4.0, 5.0", "4.0, 8.0, 16.0")
            + f"\n[output]\ndirectory = {tmp_path}/out\n")
        assert main(["estimate", "--config", str(cfg)]) == 0
        with (tmp_path / "out" / "estimates.csv").open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        p = {float(row["x"]): float(row["p"]) for row in rows}
        assert {(row["ess"], row["max_weight_share"]) for row in rows} == {("", "")}
        with (tmp_path / "out" / "slope.csv").open(newline="") as fh:
            rows = list(csv.reader(fh))
        kept = rows[1:rows.index([])]
        assert len(kept) == 3
        for x, log_p, _ in kept:
            assert float(log_p) == math.log(p[float(x)])

    def test_env_seed_does_not_override_config_seed(self, tmp_path, monkeypatch):
        cfg = tmp_path / "exp.ini"
        cfg.write_text(GOOD_CONFIG + f"\n[output]\ndirectory = {tmp_path}/out\n")
        monkeypatch.setenv("GINIBRENET_SEED", "123")
        assert main(["estimate", "--config", str(cfg)]) == 0
        with (tmp_path / "out" / "estimates.csv").open(newline="") as fh:
            assert {row["seed"] for row in csv.DictReader(fh)} == {"7"}

    def test_missing_section_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.ini"
        cfg.write_text(GOOD_CONFIG.replace("[fading]\nkind = exponential\nc = 1.0\n", ""))
        assert main(["estimate", "--config", str(cfg)]) == 2
        assert "fading" in capsys.readouterr().err

    def test_short_grid_exit_2(self, tmp_path):
        cfg = tmp_path / "short.ini"
        cfg.write_text(GOOD_CONFIG.replace("3.0, 4.0, 5.0", "3.0"))
        assert main(["estimate", "--config", str(cfg)]) == 2

    def test_sampler_stall_reports_diagnostics(self, tmp_path, monkeypatch, capsys):
        # an off-centre receiver draws DPP patterns; with no proposal budget
        # past the first chunk, a pattern that needs a second one stalls
        monkeypatch.setattr(samplers, "STALL_CAP", 0)
        cfg = tmp_path / "off.ini"
        cfg.write_text(GOOD_CONFIG.replace("radius = 2.0", "radius = 4.0")
                       .replace("x = 0.0", "x = 0.5")
                       .replace("estimator = tilted", "estimator = crude")
                       .replace("n_reps = 200", "n_reps = 50")
                       + f"\n[output]\ndirectory = {tmp_path}/out\n")
        assert main(["estimate", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert "sampler stall" in err and "'proposals'" in err


class TestConsoleScript:
    def test_module_help_runs(self):
        proc = subprocess.run([sys.executable, "-m", "ginibrenet.cli", "--help"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert "sample" in proc.stdout and "validate" in proc.stdout

    def test_commands_do_not_load_scipy_stats(self, tmp_path):
        # scipy.stats nearly doubles a process's memory and costs about a
        # second to import; every law the package tests against needs only
        # scipy.special, so no command and no check loads it
        # the slope fit needs a hit at every level of the 50-rep crude grid:
        # all of 400 seeds hit 0.5 / 1 / 1.5, while P(I >= 5) = 6.4e-3
        # leaves x = 5 empty for most seeds
        cfg = tmp_path / "exp.ini"
        cfg.write_text(GOOD_CONFIG.replace("estimator = tilted", "estimator = crude")
                       .replace("n_reps = 200", "n_reps = 50")
                       .replace("x_grid = 3.0, 4.0, 5.0", "x_grid = 0.5, 1.0, 1.5")
                       + f"\n[output]\ndirectory = {tmp_path}/out\n")
        script = f"""
import sys
import ginibrenet
from ginibrenet import validate
from ginibrenet.cli import main
assert main(["sample", "--process", "palm", "--radius", "2", "--seed", "1",
             "--out", {str(tmp_path / "pts.csv")!r}]) == 0
assert main(["rates", "--fading", "weibull_super", "--gamma", "2"]) == 0
assert main(["estimate", "--config", {str(cfg)!r}]) == 0
print("after commands:", "scipy.stats" in sys.modules)
ginibrenet.count_distribution(ginibrenet.DiskRestriction(radius=1.0), 5)
print("after count_distribution:", "scipy.stats" in sys.modules)
validate.run_suite(quick=True, report=lambda line: None)
print("after the quick suite:", "scipy.stats" in sys.modules)
"""
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert "after commands: False" in proc.stdout
        assert "after count_distribution: False" in proc.stdout
        assert "after the quick suite: False" in proc.stdout
