"""Tests for the audit CLI: config validation, exit codes, reports."""

import copy
import json
import math
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ahrenvol import cli, collar, variation
from ahrenvol.collar import NonConvergence, RadialGeometry, hyperbolic_profile

import oracles


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run(argv):
    return cli.main(argv)


HYP = {"family": "radial", "seed": 3}
PERT = {"family": "radial", "seed": 3, "profile": {"theta": [0.02, -0.01, 0.015]}}


FUZZ_BASE = {
    "family": "radial",
    "seed": 1,
    "profile": {"theta": [0.05, 0.05, 0.05]},
    "jet": {"n_grid": 4, "amplitude": 0.05},
    "grid": {"eps_n": 12, "eps_lo": 0.02, "eps_hi": 0.3},
    "trials": 3,
    "flow": {"theta0": [0.05, 0.05, 0.05], "steps": 4, "eta": 1e-3, "target_fraction": 0.2},
    "tolerances": {"hyperbolic_V": 1e-6},
}
FUZZ_PATHS = [(key,) for key in FUZZ_BASE] + [
    (section, key) for section, body in FUZZ_BASE.items() if isinstance(body, dict) for key in body
]
# what json.load can return, NaN and the infinities included
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-2, 40) | st.floats()
    | st.floats(-3.0, 3.0) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


def test_runtime_does_not_import_scipy():
    """scipy is a test dependency only: the CLI and the library run on numpy."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    code = "import sys, ahrenvol.cli, ahrenvol.variation; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"


class TestConfigValidation:
    def test_missing_required_key_names_it(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", {"family": "radial"})
        code = run(["renvol", "--config", cfg, "--out-dir", str(tmp_path)])
        assert code == cli.EXIT_USAGE
        assert "'seed'" in capsys.readouterr().err

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", {"family": "radial", "seed": 1, "bogus": 2})
        code = run(["renvol", "--config", cfg, "--out-dir", str(tmp_path)])
        assert code == cli.EXIT_USAGE
        assert "bogus" in capsys.readouterr().err

    def test_unknown_nested_key_rejected(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, "c.json", {"family": "radial", "seed": 1, "grid": {"epsn": 4}}
        )
        assert run(["renvol", "--config", cfg, "--out-dir", str(tmp_path)]) == cli.EXIT_USAGE
        assert "epsn" in capsys.readouterr().err

    def test_bad_family(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {"family": "klein-bottle", "seed": 1})
        assert run(["renvol", "--config", cfg, "--out-dir", str(tmp_path)]) == cli.EXIT_USAGE

    def test_bad_family_message_names_every_family(self):
        with pytest.raises(cli.ConfigError) as exc:
            cli.AuditConfig.from_dict({"family": "klein-bottle", "seed": 1})
        for name in cli._FAMILIES:
            assert f"'{name}'" in str(exc.value)

    @pytest.mark.parametrize("family", sorted(cli._FAMILIES))
    def test_defaults_live_on_the_dataclass(self, family):
        """A config that gives only the required keys is the dataclass's defaults."""
        config = cli.AuditConfig.from_dict({"family": family, "seed": 0})
        assert config == cli.AuditConfig(family=family, seed=0)

    @pytest.mark.parametrize("raw, key", [({"seed": 1}, "family"),
                                          ({"family": "radial", "seed": None}, "seed")])
    def test_required_key_is_checked_on_the_given_keys(self, raw, key):
        with pytest.raises(cli.ConfigError, match=f"missing required key '{key}'"):
            cli.AuditConfig.from_dict(raw)

    def test_missing_file(self, tmp_path):
        code = run(["renvol", "--config", str(tmp_path / "nope.json"), "--out-dir", str(tmp_path)])
        assert code == cli.EXIT_USAGE

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{not json")
        assert run(["renvol", "--config", str(path), "--out-dir", str(tmp_path)]) == cli.EXIT_USAGE

    def test_unknown_subcommand(self, tmp_path):
        assert run(["frobnicate"]) == cli.EXIT_USAGE

    def test_config_directory_exits_usage_and_names_it(self, tmp_path, capsys):
        assert run(["renvol", "--config", str(tmp_path), "--out-dir", str(tmp_path)]) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert "config error" in err and str(tmp_path) in err

    def test_non_utf8_config_exits_usage_and_names_it(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_bytes(b'{"family": "radial", "seed": 1, "x": "\xff\xfe"}')
        assert run(["renvol", "--config", str(path), "--out-dir", str(tmp_path)]) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert "config error" in err and str(path) in err

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_uncreatable_out_dir_exits_usage_before_any_work(self, tmp_path, capsys,
                                                             monkeypatch, source):
        """An output directory under a regular file is refused before the run.
        Only the flag sets the directory: a config 'outputs' section is an
        unknown key, refused before any work too."""
        blocker = tmp_path / "file"
        blocker.write_text("")
        out = str(blocker / "reports")
        ran = []
        monkeypatch.setitem(cli._RUNNERS, "renvol", lambda *args: ran.append(args))
        if source == "flag":
            argv = ["--config", write_config(tmp_path, "c.json", HYP), "--out-dir", out]
            named = ["'--out-dir'", out]
        else:
            argv = ["--config", write_config(tmp_path, "c.json",
                                             {**HYP, "outputs": {"directory": out}})]
            named = ["unknown key 'outputs' in 'config'"]
        assert run(["renvol", *argv]) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert all(text in err for text in named), err
        assert ran == []

    def test_seed_flag_exits_usage(self, tmp_path, capsys):
        """The seed is set by the config alone."""
        assert run(["renvol", "--seed", "7", "--out-dir", str(tmp_path)]) == cli.EXIT_USAGE
        assert "unrecognized arguments: --seed 7" in capsys.readouterr().err
        assert not os.listdir(tmp_path)

    @pytest.mark.parametrize(
        "extra, key",
        [
            ({"seed": "abc"}, "seed"),
            ({"profile": {"theta": 5}}, "theta"),
            ({"trials": 0}, "trials"),
            ({"grid": {"eps_n": 4}}, "eps_n"),
            ({"grid": {"eps_n": 6}}, "eps_n"),
            ({"grid": {"eps_n": 7}}, "eps_n"),
            ({"jet": {"n_grid": 0}}, "n_grid"),
            ({"jet": {"n_grid": 3}}, "n_grid"),
            ({"flow": {"eta": -1.0}}, "eta"),
            ({"grid": {"rho_max": 2.5}}, "rho_max"),
            ({"family": "torus-collar", "jet": {"amplitude": 0.6}}, "amplitude"),
            ({"family": "torus-collar", "jet": {"amplitude": 2.0}}, "amplitude"),
            ({"profile": {"theta": [-5, 0, 0]}}, "theta"),
            ({"flow": {"target_fraction": -1}}, "target_fraction"),
            ({"flow": {"target_fraction": 0}}, "target_fraction"),
            ({"flow": {"theta0": [-5, 0, 0], "steps": 1}}, "theta0"),
            ({"grid": {"eps_lo": float("nan")}}, "eps_lo"),
            ({"jet": {"n_grid": 10**6}}, "n_grid"),
            ({"grid": {"eps_n": 65}}, "eps_n"),
            ({"trials": 1001}, "trials"),
            ({"flow": {"steps": 10001}}, "steps"),
            ({"family": "torus-collar"}, "family"),
            ({"family": []}, "family"),
            ({"family": {}}, "family"),
            ({"outputs": {"directory": "."}}, "outputs"),
        ],
        ids=["seed", "theta", "trials", "eps_n", "eps_n_6", "eps_n_7", "n_grid", "n_grid_3", "eta",
             "rho_max_past_cap", "amplitude_g_rho", "amplitude_gamma", "theta_nonpositive_profile",
             "target_fraction_negative", "target_fraction_zero", "theta0_nonpositive_profile",
             "eps_lo_nan", "n_grid_huge", "eps_n_past_max", "trials_past_max", "steps_past_max",
             "family_not_radial", "family_list", "family_object", "outputs_section"],
    )
    def test_malformed_value_exits_usage_and_names_key(self, tmp_path, capsys, extra, key):
        cfg = write_config(tmp_path, "c.json", {"family": "radial", "seed": 1, **extra})
        if key == "family":  # no radial config: the radial-only subcommands refuse it
            subs = ["flow", "gauss-bonnet"]
        else:
            subs = ["linearize-check", "renvol"]
            if extra.get("family", "radial") == "radial":
                subs.append("gauss-bonnet")
            if "flow" in extra:
                subs.append("flow")
        for sub in subs:
            assert run([sub, "--config", cfg, "--out-dir", str(tmp_path)]) == cli.EXIT_USAGE
            assert f"'{key}'" in capsys.readouterr().err

    @settings(max_examples=40, deadline=None)
    @given(
        family=st.sampled_from(["radial", "torus-collar"]),
        overrides=st.dictionaries(st.sampled_from(FUZZ_PATHS), JSON_VALUES, max_size=3),
    )
    def test_fuzzed_config_is_valid_or_config_error(self, family, overrides):
        """Random JSON values for any key: a geometry or a ConfigError, nothing else."""
        raw = copy.deepcopy({**FUZZ_BASE, "family": family})
        # keys inside a section first, so that replacing the section wins
        for path, value in sorted(overrides.items(), key=lambda kv: -len(kv[0])):
            target = raw
            for key in path[:-1]:
                target = target[key]
            target[path[-1]] = value
        try:
            config = cli.AuditConfig.from_dict(raw)
            config.geometry()
        except cli.ConfigError:
            return
        numbers = [config.jet_amplitude, config.eps_lo, config.eps_hi, config.flow_eta,
                   config.flow_target_fraction, *config.theta, *config.flow_theta0,
                   *config.tolerances.values()]
        assert all(math.isfinite(x) for x in numbers)

    @pytest.mark.parametrize("rho_max", [2.0])
    def test_rho_max_is_an_unknown_key(self, tmp_path, capsys, rho_max):
        """Every eps-family runs out to its geometry's rho_max, so a config
        cannot move that end, not even to the ball's cap rho = 2."""
        cfg = write_config(tmp_path, "c.json", {**HYP, "grid": {"rho_max": rho_max}})
        for sub in ("renvol", "gauss-bonnet"):
            assert run([sub, "--config", cfg, "--out-dir", str(tmp_path)]) == cli.EXIT_USAGE
            assert "unknown key 'rho_max' in 'grid'" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["c.json"]

    @pytest.mark.parametrize("family, eps_hi", [
        ("radial", 2.0), ("radial", 2.5), ("torus-collar", 1.0), ("torus-collar", 1.5)])
    def test_eps_hi_at_or_past_the_family_rho_max_exits_usage(self, tmp_path, capsys,
                                                              family, eps_hi):
        raw = {"family": family, "seed": 1, "jet": {"n_grid": 4},
               "grid": {"eps_lo": eps_hi / 10, "eps_hi": eps_hi}}
        cfg = write_config(tmp_path, "c.json", raw)
        assert run(["renvol", "--config", cfg, "--out-dir", str(tmp_path)]) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert "'eps_hi'" in err and "'rho_max'" not in err
        # just below the family's rho_max the grid is accepted
        rho_max = cli._FAMILIES[family].rho_max
        below = {**raw, "grid": {"eps_lo": rho_max / 10, "eps_hi": 0.99 * rho_max}}
        assert cli.AuditConfig.from_dict(below).eps_hi == 0.99 * rho_max

    def test_threads_below_one_exits_usage(self, tmp_path, capsys):
        assert run(["renvol", "--out-dir", str(tmp_path), "--threads", "0"]) == cli.EXIT_USAGE
        assert "--threads" in capsys.readouterr().err
        assert not os.listdir(tmp_path)

    @pytest.mark.parametrize("name, value, sub", [
        ("flow_target", 0.5, "flow"), ("flow_monotone", 3, "flow"),
        ("slice_norms_finite", 3, "el-residual")])
    def test_fixed_tolerance_override_exits_usage_and_names_it(self, tmp_path, capsys,
                                                               name, value, sub):
        """A count passes at 0 only, so an override could pass a failing
        count, and flow_target's verdict reads 'flow.target_fraction', so an
        override would be reported but not judged."""
        cfg = write_config(tmp_path, "c.json", {**HYP, "tolerances": {name: value}})
        assert run([sub, "--config", cfg, "--out-dir", str(tmp_path)]) == cli.EXIT_USAGE
        assert f"tolerance '{name}' cannot be set" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["c.json"]

    def test_misspelled_tolerance_exits_usage_and_names_it(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", {**HYP, "tolerances": {"hyperbolic_v": 1e-30}})
        assert run(["renvol", "--config", cfg, "--out-dir", str(tmp_path)]) == cli.EXIT_USAGE
        assert "'hyperbolic_v'" in capsys.readouterr().err
        assert not (tmp_path / "renvol-report.json").exists()

    def test_check_names_are_the_emitted_row_names(self, tmp_path):
        """Every subcommand on the ball and on a perturbed profile emits, between
        them, every row name a tolerance may override, and no other."""
        seen = set()
        for label, raw in (("ball", HYP), ("pert", PERT)):
            cfg = write_config(tmp_path, f"{label}.json", {**raw, "flow": {"steps": 1}})
            out = tmp_path / label
            for sub in cli.SUBCOMMANDS:
                assert run([sub, "--config", cfg, "--out-dir", str(out)]) in (
                    cli.EXIT_OK, cli.EXIT_CHECK_FAILED
                )
                report = json.loads((out / f"{sub}-report.json").read_text())
                seen.update(row["name"] for row in report["checks"])
        assert seen == cli.CHECK_NAMES

    def test_negative_tolerance_rejected(self, tmp_path):
        cfg = write_config(
            tmp_path, "c.json", {"family": "radial", "seed": 1, "tolerances": {"x": -1.0}}
        )
        assert run(["renvol", "--config", cfg, "--out-dir", str(tmp_path)]) == cli.EXIT_USAGE


SEED7 = {"family": "radial", "seed": 7}


class TestAlgebraSuite:
    def test_passes_and_writes_report(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", SEED7)
        code = run(["algebra-suite", "--config", cfg, "--out-dir", str(tmp_path)])
        assert code == cli.EXIT_OK
        report = json.loads((tmp_path / "algebra-suite-report.json").read_text())
        assert report["seed"] == 7
        assert report["version"]
        assert report["checks"]
        for row in report["checks"]:
            assert row["anchor"]
            assert row["passed"]
        # no temp files left behind by the atomic writer
        assert not [f for f in os.listdir(tmp_path) if f.startswith(".tmp-")]

    def test_deterministic_reports(self, tmp_path):
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        cfg = write_config(tmp_path, "c.json", SEED7)
        for out in (a_dir, b_dir):
            assert run([
                "algebra-suite", "--config", cfg, "--out-dir", str(out), "--format", "csv"
            ]) == cli.EXIT_OK
        reports = []
        for out in (a_dir, b_dir):
            data = json.loads((out / "algebra-suite-report.json").read_text())
            data.pop("timestamp")
            data.pop("elapsed_seconds")
            reports.append(data)
        assert reports[0] == reports[1]
        assert (a_dir / "algebra-suite-report.csv").read_text() == (
            b_dir / "algebra-suite-report.csv"
        ).read_text()

    @pytest.mark.parametrize("seed", [0, 3, 7, 9, 20260823])
    def test_stacked_suite_equals_per_trial_loop(self, seed):
        """Grouping the trials into stacks changes no bit of any row."""
        report = cli.run_algebra_suite(cli.AuditConfig(family="radial", seed=seed))
        assert [row["value"] for row in report.checks] == oracles.algebra_suite_loop(seed)

    def test_work_counts_trials_per_loop_and_group(self):
        work = cli.run_algebra_suite(cli.AuditConfig(family="radial", seed=3)).artifacts["work"]
        assert sorted(work) == ["contraction", "curvature", "derivation"]
        for loop in work.values():
            assert loop["trials"] == 100 and sum(loop["groups"].values()) == 100
        assert len(work["contraction"]["groups"]) == 6
        assert sorted(work["derivation"]["groups"]) == ["n=3", "n=4", "n=5"]
        assert work["curvature"]["groups"] == {"n=4": 100}

    def test_csv_rows_carry_anchor_and_seed(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {"family": "radial", "seed": 9})
        run(["algebra-suite", "--config", cfg, "--out-dir", str(tmp_path), "--format", "csv"])
        lines = (tmp_path / "algebra-suite-report.csv").read_text().splitlines()
        assert lines[0].startswith("#")
        header = lines[1].split(",")
        assert "anchor" in header and "seed" in header
        assert all(line.rstrip().endswith(",9") for line in lines[2:])


class TestCollarAudit:
    @pytest.mark.parametrize(
        "raw",
        [{"family": "torus-collar", "seed": 3, "jet": {"n_grid": 8}},
         {"family": "radial", "seed": 0, "profile": {"theta": [0.05, 0.05, 0.05]}}],
        ids=["torus", "theta"],
    )
    def test_invariant_parity_reads_the_interpolant_slope(self, tmp_path, raw):
        """The rho^1 coefficient of s, |r|^2 and |R|^2 is the slope at 0 of
        their Chebyshev interpolant, at roundoff level; the degree-6
        least-squares fit it replaced read 4.1e-8 (torus) and 3.5e-8 (theta)."""
        cfg = write_config(tmp_path, "c.json", raw)
        assert run(["collar-audit", "--config", cfg, "--out-dir", str(tmp_path)]) == cli.EXIT_OK
        report = json.loads((tmp_path / "collar-audit-report.json").read_text())
        (row,) = [c for c in report["checks"] if c["name"] == "invariant_parity"]
        assert row["value"] < 1e-10

    @pytest.mark.parametrize("theta, v3", [([0.01, 0.0, 0.0], -0.03), ([0.05, 0.05, 0.05], 0.0)])
    def test_v3_artifact_is_the_warped_closed_form(self, tmp_path, theta, v3):
        """The report's v3 is A'''(0)/2 (oracles.warped_volume_coefficients):
        -0.03 on theta = (0.01, 0, 0), where int v3 dvol_gamma = -0.592, and
        exactly 0 on (0.05)^3, whose A has no rho^3 term."""
        raw = {"family": "radial", "seed": 0, "profile": {"theta": theta}}
        cfg = write_config(tmp_path, "c.json", raw)
        assert run(["collar-audit", "--config", cfg, "--out-dir", str(tmp_path)]) == cli.EXIT_OK
        (got,) = json.loads((tmp_path / "collar-audit-report.json").read_text())["artifacts"]["v3"]
        want = oracles.warped_volume_coefficients(collar.perturbed_profile(theta))[1]
        assert want == pytest.approx(v3, abs=1e-16) and abs(got - want) <= 1e-14
        if v3 == 0.0:
            assert got == 0.0


class TestInProcessCalls:
    """A batch of main calls in one process, as scripts/run_all_audits.py
    makes, shares one parser and nothing else."""

    def test_parser_is_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_consecutive_calls_stay_independent(self, tmp_path, capsys):
        ball = write_config(tmp_path, "ball.json", HYP)
        pert = write_config(tmp_path, "pert.json", {**PERT, "seed": 7})
        first, second, third = (tmp_path / name for name in ("first", "second", "third"))
        assert run(["renvol", "--config", ball, "--out-dir", str(first)]) == cli.EXIT_OK
        assert run(["collar-audit", "--config", pert, "--format", "csv",
                    "--out-dir", str(second)]) == cli.EXIT_OK
        capsys.readouterr()
        assert run(["renvol", "--config", ball, "--format", "xml"]) == cli.EXIT_USAGE
        assert "invalid choice: 'xml'" in capsys.readouterr().err
        assert run(["renvol", "--config", ball, "--out-dir", str(third)]) == cli.EXIT_OK

        audit = json.loads((second / "collar-audit-report.json").read_text())
        assert (audit["subcommand"], audit["seed"]) == ("collar-audit", 7)
        assert audit["config"]["theta"] == PERT["profile"]["theta"]
        assert (second / "collar-audit-report.csv").exists()
        reports = []
        for out in (first, third):
            assert sorted(os.listdir(out)) == ["renvol-report.json"]
            report = json.loads((out / "renvol-report.json").read_text())
            for key in ("elapsed_seconds", "timestamp"):
                report.pop(key)
            reports.append(report)
        assert reports[0] == reports[1]
        assert reports[1]["seed"] == 3

    @pytest.mark.parametrize("sub", cli.SUBCOMMANDS)
    def test_report_bytes_do_not_depend_on_the_directory(self, tmp_path, sub):
        """One config written to two directories gives byte-identical reports
        apart from the run's duration and time stamp: the config echo holds
        what was computed, not where the report went."""
        cfg = write_config(tmp_path, "c.json", {**PERT, "trials": 1, "flow": {"steps": 1}})
        texts = []
        for name in ("a", os.path.join("b", "c")):
            out = tmp_path / name
            assert run([sub, "--config", cfg, "--out-dir", str(out)]) in (
                cli.EXIT_OK, cli.EXIT_CHECK_FAILED)
            lines = (out / f"{sub}-report.json").read_text().splitlines(keepends=True)
            texts.append("".join(line for line in lines if not line.startswith(
                ('  "elapsed_seconds": ', '  "timestamp": '))))
        assert texts[0] == texts[1]
        assert str(tmp_path) not in texts[0]


class TestRenvol:
    def test_hyperbolic_ball(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", HYP)
        assert run(["renvol", "--config", cfg, "--out-dir", str(tmp_path)]) == cli.EXIT_OK
        report = json.loads((tmp_path / "renvol-report.json").read_text())
        coeffs = report["artifacts"]["coefficients"]
        assert coeffs["C0"] == pytest.approx(2.0 * math.pi**2 / 3.0, rel=1e-6)
        assert coeffs["V"] == pytest.approx(4.0 * math.pi**2 / 3.0, rel=1e-6)
        artifacts = report["artifacts"]
        assert 0.0 < artifacts["quadrature_error"] < 1e-9 * max(artifacts["volumes"])
        assert 1.0 <= artifacts["fit_cond"] < 1e9
        assert "half_grid_drift" not in artifacts
        # the family is exactly C0 eps^-3 + C2 eps^-1 + V + 2 pi^2 (-(3/16) eps + eps^3/192)
        assert artifacts["kept_powers"] == [1, 3]
        # two clear steps (the runner-up's residual 47 and 7e4 times the best),
        # stopping under the floor: full basis, bare model, 6 + 5 candidates
        assert len(artifacts["selection_gaps"]) == 2 and min(artifacts["selection_gaps"]) > 10.0
        assert 0.0 < artifacts["floor_ratio"] <= 1.0
        assert artifacts["fits"] == 13
        assert artifacts["log_ambiguous"] is False

    @pytest.mark.parametrize("theta, tol", [([0.01, 0.0, 0.0], 1e-7), ([0.05, 0.05, 0.05], 3e-6)])
    def test_log_coefficient_is_the_warped_v3(self, tmp_path, theta, tol):
        """The fitted L against 2 pi^2 v3, v3 = A'''(0)/2 from the closed form,
        relative to max(1, |2 pi^2 v3|): measured 1.6e-8 and 7.4e-7 (the exact
        L is 0 on (0.05)^3)."""
        raw = {"family": "radial", "seed": 0, "profile": {"theta": theta}}
        cfg = write_config(tmp_path, "c.json", raw)
        assert run(["renvol", "--config", cfg, "--out-dir", str(tmp_path)]) == cli.EXIT_OK
        got = json.loads((tmp_path / "renvol-report.json").read_text())["artifacts"]["coefficients"]["L"]
        want = 2.0 * math.pi**2 * oracles.warped_volume_coefficients(collar.perturbed_profile(theta))[1]
        assert abs(got - want) <= tol * max(1.0, abs(want)), (got, want)

    def test_quadrature_failure_exits_nonconvergence(self, tmp_path, monkeypatch, capsys):
        class KinkedBall(RadialGeometry):
            """The ball with g_rho scaled by 1 + |rho - 0.1|: a kink inside one panel."""

            def spatial(self, rho, orders=4):
                g, *rest = super().spatial(rho, orders)
                return (g * (1.0 + np.abs(np.reshape(rho, (-1, 1, 1)) - 0.1)), *rest)

        monkeypatch.setattr(
            cli.AuditConfig, "geometry", lambda self: KinkedBall(hyperbolic_profile())
        )
        cfg = write_config(tmp_path, "c.json", HYP)
        code = run(["renvol", "--config", cfg, "--out-dir", str(tmp_path)])
        assert code == cli.EXIT_NONCONVERGENCE
        assert "quadrature non-convergence on [0.0876,0.112]" in capsys.readouterr().err

    def test_torus_family_runs(self, tmp_path):
        cfg = write_config(
            tmp_path, "c.json",
            {"family": "torus-collar", "seed": 5, "jet": {"n_grid": 4, "amplitude": 0.05}},
        )
        assert run(["renvol", "--config", cfg, "--out-dir", str(tmp_path)]) == cli.EXIT_OK

    def test_eight_samples_exit_usage_and_name_eps_n(self, tmp_path, capsys):
        """On 8 samples this profile's fit interpolated its family and read
        V = 387.78 (closed form 15.8559) and L = -96.5 (7.698), with exit 0."""
        cfg = write_config(tmp_path, "c.json", {
            "family": "radial", "seed": 0, "profile": {"theta": [-0.08, 0.05, 0.02]},
            "grid": {"eps_n": 8},
        })
        assert run(["renvol", "--config", cfg, "--out-dir", str(tmp_path)]) == cli.EXIT_USAGE
        assert "'eps_n' must be at least 12" in capsys.readouterr().err


GAUSS_BONNET_ROWS = (
    "gauss_bonnet_sum_constant", "boundary_finite_part_zero", "interior_finite_part_chi",
)


class TestGaussBonnet:
    @pytest.mark.parametrize("name", GAUSS_BONNET_ROWS)
    @pytest.mark.parametrize("tol, code", [(1e-3, cli.EXIT_OK), (1e-12, cli.EXIT_CHECK_FAILED)])
    def test_tolerance_override_bounds_the_deviation_from_chi(self, tmp_path, tol, code, name):
        cfg = write_config(tmp_path, "c.json", {**HYP, "tolerances": {name: tol}})
        assert run(["gauss-bonnet", "--config", cfg, "--out-dir", str(tmp_path)]) == code
        report = json.loads((tmp_path / "gauss-bonnet-report.json").read_text())
        rows = {c["name"]: c for c in report["checks"]}
        assert list(rows) == list(GAUSS_BONNET_ROWS)
        assert rows[name]["tolerance"] == tol
        # only the overridden row can fail on the ball
        assert [n for n, row in rows.items() if not row["passed"]] == (
            [name] if code == cli.EXIT_CHECK_FAILED else [])
        # the chi row reports FP itself; the tolerance bounds |FP - chi|
        assert rows["interior_finite_part_chi"]["value"] == pytest.approx(1.0, abs=1e-4)

    @pytest.mark.parametrize("rho_max", [1.0, 1.5])
    def test_rho_max_short_of_the_cap_exits_usage(self, tmp_path, capsys, rho_max):
        """The interior family always runs to the cap rho = 2, so a config
        asking for another cutoff is refused rather than echoed unused."""
        cfg = write_config(tmp_path, "c.json", {**HYP, "grid": {"rho_max": rho_max}})
        code = run(["gauss-bonnet", "--config", cfg, "--out-dir", str(tmp_path)])
        assert code == cli.EXIT_USAGE
        assert "unknown key 'rho_max' in 'grid'" in capsys.readouterr().err
        assert not (tmp_path / "gauss-bonnet-report.json").exists()

    def test_requires_radial_family(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", {"family": "torus-collar", "seed": 5})
        code = run(["gauss-bonnet", "--config", cfg, "--out-dir", str(tmp_path)])
        assert code == cli.EXIT_USAGE
        assert "radial" in capsys.readouterr().err

    def test_hyperbolic_ball(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", HYP)
        assert run(["gauss-bonnet", "--config", cfg, "--out-dir", str(tmp_path)]) == cli.EXIT_OK
        report = json.loads((tmp_path / "gauss-bonnet-report.json").read_text())
        row = {c["name"]: c for c in report["checks"]}["interior_finite_part_chi"]
        assert row["value"] == pytest.approx(1.0, abs=1e-4)
        artifacts = report["artifacts"]
        assert 0.0 < artifacts["quadrature_error"] < 1e-9 * max(map(abs, artifacts["interior"]))
        for part in ("interior", "boundary"):
            assert 1.0 <= artifacts["fit_cond"][part] < 1e9
            # both families are affine in the ball's volume family
            assert artifacts["kept_powers"][part] == [1, 3]
            assert min(artifacts["selection_gaps"][part]) > 10.0
            assert 0.0 < artifacts["floor_ratio"][part] <= 1.0
            assert artifacts["fits"][part] == 13
            assert artifacts["log_ambiguous"][part] is False


class TestLinearizeCheck:
    def test_passes(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {**PERT, "trials": 2})
        assert run([
            "linearize-check", "--config", cfg, "--out-dir", str(tmp_path)
        ]) == cli.EXIT_OK
        report = json.loads((tmp_path / "linearize-check-report.json").read_text())
        for order in report["artifacts"]["orders"]:
            assert abs(order - 2.0) < 0.2

    def test_threads_flag_gives_same_orders(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {**PERT, "trials": 2})
        run(["linearize-check", "--config", cfg, "--out-dir", str(tmp_path / "s")])
        run(["linearize-check", "--config", cfg, "--out-dir", str(tmp_path / "p"),
             "--threads", "2"])
        a = json.loads((tmp_path / "s" / "linearize-check-report.json").read_text())
        b = json.loads((tmp_path / "p" / "linearize-check-report.json").read_text())
        assert a["artifacts"]["orders"] == b["artifacts"]["orders"]

    def test_trial_builds_the_background_frame_once(self, monkeypatch):
        """A trial's finite differences take q from the linearized curvature's
        background record: one frame at rho = 0.25, then one for the batch of
        six perturbed slices."""
        frame, rhos = collar._slice_frame, []

        def counting(geom, rho):
            rhos.append(np.atleast_1d(rho).tolist())
            return frame(geom, rho)

        monkeypatch.setattr(collar, "_slice_frame", counting)
        monkeypatch.setattr(variation, "_slice_frame", counting)
        cli._linearize_trial(3)
        assert rhos == [[0.25], [0.25] * 6]

    def test_torus_report_names_the_radial_trials(self, tmp_path):
        """The finite-difference trials run on seeded radial profiles whatever
        the family, so a torus report's fd_convergence_order anchor says so."""
        cfg = write_config(tmp_path, "c.json",
                           {"family": "torus-collar", "seed": 3, "jet": {"n_grid": 4}, "trials": 1})
        run(["linearize-check", "--config", cfg, "--out-dir", str(tmp_path)])
        report = json.loads((tmp_path / "linearize-check-report.json").read_text())
        (anchor,) = [c["anchor"] for c in report["checks"] if c["name"] == "fd_convergence_order"]
        assert "radial trial profiles" in anchor


class TestELResidual:
    def test_hyperbolic_reports_zero_residual(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", HYP)
        assert run(["el-residual", "--config", cfg, "--out-dir", str(tmp_path)]) == cli.EXIT_OK
        report = json.loads((tmp_path / "el-residual-report.json").read_text())
        rows = {c["name"]: c for c in report["checks"]}
        assert rows["einstein_residual"]["passed"]
        assert report["artifacts"]["max_norm"] < 1e-8

    def test_ball_einstein_residual_is_at_roundoff(self, tmp_path):
        """The z-jet's interpolant reaches past the largest rho, so the ball's
        residual is at roundoff, and every phi^(k) stays under the critical
        threshold."""
        cfg = write_config(tmp_path, "c.json", HYP)
        assert run(["el-residual", "--config", cfg, "--out-dir", str(tmp_path)]) == cli.EXIT_OK
        report = json.loads((tmp_path / "el-residual-report.json").read_text())
        rows = {c["name"]: c for c in report["checks"]}
        assert rows["einstein_residual"]["value"] < 1e-10
        assert report["artifacts"]["critical"] is True

    def test_noncritical_profile_diagnostics(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", PERT)
        assert run(["el-residual", "--config", cfg, "--out-dir", str(tmp_path)]) == cli.EXIT_OK
        report = json.loads((tmp_path / "el-residual-report.json").read_text())
        rows = {c["name"]: c for c in report["checks"]}
        assert "einstein_residual" not in rows
        assert rows["phi4_pairing"]["passed"]
        assert report["artifacts"]["critical"] is False
        assert 0.0 < report["artifacts"]["z_tail"] < 1e-6

    def test_nonfinite_slice_norm_is_counted(self, tmp_path, monkeypatch, capsys):
        gradient = cli.variation.functional_gradient

        def one_nan(geom, rhos=None):
            result = gradient(geom, rhos)
            if rhos is None:  # the slice norms, not el_slice_analysis's nodes
                result["slice_norms"][3] = np.nan
            return result

        monkeypatch.setattr(cli.variation, "functional_gradient", one_nan)
        cfg = write_config(tmp_path, "c.json", PERT)
        assert run(["el-residual", "--config", cfg, "--out-dir", str(tmp_path)]) == (
            cli.EXIT_CHECK_FAILED)
        assert "[FAIL] slice_norms_finite: 1.000e+00 (tol 1.0e+00)" in capsys.readouterr().out


class TestFlow:
    def test_flow_run_and_progress_csv(self, tmp_path):
        cfg = write_config(
            tmp_path, "c.json",
            {
                "family": "radial",
                "seed": 11,
                "flow": {"theta0": [0.05, 0.05, 0.05], "steps": 60, "eta": 1e-3,
                         "target_fraction": 0.01},
            },
        )
        assert run(["flow", "--config", cfg, "--out-dir", str(tmp_path)]) == cli.EXIT_OK
        lines = (tmp_path / "flow-progress.csv").read_text().splitlines()
        assert lines[1].split(",")[0] == "step"
        values = [float(line.split(",")[4]) for line in lines[2:]]
        assert all(b <= a for a, b in zip(values, values[1:]))
        assert values[-1] <= 0.01 * values[0]

    def test_flow_reports_its_work(self, tmp_path):
        """Two steps reach 0.2 Z(theta_0); the second halves eta once.  The
        candidates are the only Z evaluations, with one gradient pass at
        theta_0 and one at theta_1 (the central differences took 12 more)."""
        theta0 = [0.05090830220592401, 0.0505358641812712, 0.04925194149357641]
        cfg = write_config(tmp_path, "c.json", {
            "family": "radial", "seed": 41,
            "flow": {"theta0": theta0, "steps": 4, "target_fraction": 0.2},
        })
        assert run(["flow", "--config", cfg, "--out-dir", str(tmp_path)]) == cli.EXIT_OK
        report = json.loads((tmp_path / "flow-report.json").read_text())
        assert report["artifacts"]["work"] == {
            "z_evaluations": 3, "gradient_passes": 2, "halvings": [0, 1]}

    def test_stalled_flow_exits_nonconvergence(self, tmp_path, monkeypatch, capsys):
        def stall(*args, **kwargs):
            raise NonConvergence("stalled")

        monkeypatch.setattr(cli.variation, "run_flow", stall)
        cfg = write_config(tmp_path, "c.json", HYP)
        code = run(["flow", "--config", cfg, "--out-dir", str(tmp_path)])
        assert code == cli.EXIT_NONCONVERGENCE
        assert "stalled" in capsys.readouterr().err

    def test_rising_steps_are_counted(self, tmp_path, monkeypatch, capsys):
        values = (1.0, 2.0, 0.5, 0.7, 1e-3)
        history = [cli.variation.FlowStep(k, (0.05, 0.05, 0.05), v, 1e-3)
                   for k, v in enumerate(values)]
        monkeypatch.setattr(cli.variation, "run_flow", lambda *args, **kwargs: history)
        cfg = write_config(tmp_path, "c.json", HYP)
        code = run(["flow", "--config", cfg, "--out-dir", str(tmp_path)])
        assert code == cli.EXIT_CHECK_FAILED
        out = capsys.readouterr().out
        assert "[FAIL] flow_monotone: 2.000e+00 (tol 1.0e+00)" in out
        assert "[pass] flow_target" in out


class TestSubcommandFuzz:
    """Fuzzed grids, profiles and torus jets through whole subcommands: every
    run exits with a documented code and never raises."""

    @staticmethod
    def _exits_documented(subcommand, raw):
        with tempfile.TemporaryDirectory() as out:
            cfg = os.path.join(out, "c.json")
            with open(cfg, "w", encoding="utf-8") as handle:
                json.dump(raw, handle)
            code = run([subcommand, "--config", cfg, "--out-dir", out])
            assert code in (cli.EXIT_OK, cli.EXIT_CHECK_FAILED, cli.EXIT_USAGE,
                            cli.EXIT_NONCONVERGENCE)
            if code in (cli.EXIT_OK, cli.EXIT_CHECK_FAILED):
                assert os.path.exists(os.path.join(out, f"{subcommand}-report.json"))

    @settings(max_examples=20, deadline=None)
    @given(
        subcommand=st.sampled_from(["renvol", "gauss-bonnet"]),
        eps_n=st.integers(4, 70),
        # eps_lo = 10^(-lo/4) over [1e-12, 1] and eps_hi / eps_lo = 10^(span/4)
        # over [1, 1e4], in quarter decades: about half the grids span the
        # factor 8 (hypothesis draws small floats near 0 far more often)
        lo=st.integers(0, 48),
        span=st.integers(0, 16),
        theta=st.lists(st.floats(-2.0, 2.0), max_size=4),
    )
    def test_exit_code_is_documented_and_reports_exist(self, subcommand, eps_n, lo, span, theta):
        grid = {"eps_n": eps_n, "eps_lo": 10.0 ** (-lo / 4), "eps_hi": 10.0 ** ((span - lo) / 4)}
        raw = {"family": "radial", "seed": 1, "profile": {"theta": theta}, "grid": grid}
        self._exits_documented(subcommand, raw)

    @settings(max_examples=10, deadline=None)
    @given(
        subcommand=st.sampled_from(["collar-audit", "renvol"]),
        n_grid=st.sampled_from([4, 6, 8]),
        amplitude=st.floats(0.0, 0.6),
        seed=st.integers(0, 50),
    )
    def test_torus_exit_code_is_documented_and_reports_exist(
        self, subcommand, n_grid, amplitude, seed
    ):
        raw = {"family": "torus-collar", "seed": seed,
               "jet": {"n_grid": n_grid, "amplitude": amplitude}}
        self._exits_documented(subcommand, raw)

    @settings(max_examples=15, deadline=None)
    @given(
        subcommand=st.sampled_from(["el-residual", "linearize-check", "flow"]),
        theta=st.lists(st.floats(-2.0, 2.0), max_size=4),
        seed=st.integers(0, 50),
        trials=st.integers(1, 3),
        theta0=st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=4),
        steps=st.integers(0, 3),
        # eta = 10^(k/4) over [1e-6, 1e4]: large steps leave the profile family
        eta_exponent=st.integers(-24, 16),
        target_fraction=st.floats(1e-3, 1.0),
    )
    def test_radial_variation_exit_code_is_documented_and_reports_exist(
        self, subcommand, theta, seed, trials, theta0, steps, eta_exponent, target_fraction
    ):
        raw = {"family": "radial", "seed": seed, "profile": {"theta": theta}, "trials": trials,
               "flow": {"theta0": theta0, "steps": steps, "eta": 10.0 ** (eta_exponent / 4),
                        "target_fraction": target_fraction}}
        self._exits_documented(subcommand, raw)

    @settings(max_examples=8, deadline=None)
    @given(
        subcommand=st.sampled_from(["el-residual", "linearize-check"]),
        n_grid=st.sampled_from([4, 6]),
        amplitude=st.floats(0.0, 0.6),
        seed=st.integers(0, 50),
    )
    def test_torus_variation_exit_code_is_documented_and_reports_exist(
        self, subcommand, n_grid, amplitude, seed
    ):
        raw = {"family": "torus-collar", "seed": seed,
               "jet": {"n_grid": n_grid, "amplitude": amplitude}}
        self._exits_documented(subcommand, raw)

    def test_flow_step_out_of_the_profile_family_is_halved(self, tmp_path):
        """A step of eta = 100 leaves the profile family (A is no longer
        positive on (0, 2)); the line search rejects it and halves eta."""
        cfg = write_config(tmp_path, "c.json", {
            "family": "radial", "seed": 1,
            "flow": {"theta0": [0.05, 0.05, 0.05], "steps": 1, "eta": 100.0},
        })
        assert run(["flow", "--config", cfg, "--out-dir", str(tmp_path)]) in (
            cli.EXIT_OK, cli.EXIT_CHECK_FAILED
        )
        report = json.loads((tmp_path / "flow-report.json").read_text())
        history = report["artifacts"]["history"]
        assert history[1]["value"] <= history[0]["value"]
        assert history[1]["eta"] < 1.0

    @pytest.mark.parametrize(
        "subcommand, grid, theta",
        [
            # the design's condition number (1.4e17) is past the fit's limit
            ("renvol", {"eps_n": 12, "eps_lo": 1e-12, "eps_hi": 1.0}, [0.0, 0.0, 0.0]),
            # eps up to 1.5 lies outside the asymptotic regime: residual 1.1e-3
            ("gauss-bonnet", {"eps_n": 12, "eps_lo": 0.125, "eps_hi": 1.5}, [0.0, 2.0]),
        ],
    )
    def test_rejected_fit_exits_nonconvergence(self, tmp_path, capsys, subcommand, grid, theta):
        cfg = write_config(
            tmp_path, "c.json",
            {"family": "radial", "seed": 1, "profile": {"theta": theta}, "grid": grid},
        )
        assert run([subcommand, "--config", cfg, "--out-dir", str(tmp_path)]) == (
            cli.EXIT_NONCONVERGENCE
        )
        assert "asymptotic" in capsys.readouterr().err
