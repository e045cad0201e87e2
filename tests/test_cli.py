import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from rtnqubit.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


UNDRAWABLE = "--nu-max 1e+300 at --tau 1: t_max = 2e+300 at tau = 1 asks for 1e+300 flips"


def parse_csv(text):
    lines = [ln for ln in text.strip().splitlines() if not ln.startswith("#")]
    header = lines[0].split(",")
    rows = [[float(v) for v in ln.split(",")] for ln in lines[1:]]
    return header, np.array(rows)


class TestEvolve:
    def test_dephasing_lambda3_is_one(self, capsys):
        code, out, _ = run(
            capsys, "evolve", "--a1", "0", "--a2", "0", "--a3", "1.5",
            "--nu-max", "4", "--steps", "40",
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["nu", "b1", "b2", "b3", "lambda1", "lambda2", "lambda3"]
        assert np.all(rows[:, header.index("lambda3")] == 1.0)

    def test_first_row_reproduces_input_bloch(self, capsys):
        code, out, _ = run(capsys, "evolve", "--bloch", "0.2,-0.3,0.4", "--steps", "10")
        assert code == 0
        _, rows = parse_csv(out)
        assert rows[0, 0] == 0.0
        assert np.array_equal(rows[0, 1:4], [0.2, -0.3, 0.4])

    def test_underdamped_profiles_change_sign(self, capsys):
        code, out, _ = run(capsys, "evolve", "--a1", "1", "--a2", "1", "--a3", "0")
        assert code == 0
        header, rows = parse_csv(out)
        lam1 = rows[:, header.index("lambda1")]
        assert lam1.min() < -1e-3 < 1e-3 < lam1.max()

    def test_rejects_negative_coupling(self, capsys):
        code, _, err = run(capsys, "evolve", "--a1", "-1")
        assert code == 2
        assert "error" in err

    def test_rejects_bloch_outside_sphere(self, capsys):
        code, _, err = run(capsys, "evolve", "--bloch", "1,1,1")
        assert code == 2
        assert "initial Bloch vector (1.0, 1.0, 1.0) lies outside the sphere" in err
        assert "np.float64" not in err


class TestCpScan:
    def test_not_cp_verdict(self, capsys):
        code, out, _ = run(capsys, "cp-scan", "--a1", "1.2", "--a2", "1.2", "--a3", "0")
        assert code == 0
        assert "not completely positive" in out
        assert "xi_" in out

    def test_cp_verdict(self, capsys):
        code, out, _ = run(capsys, "cp-scan", "--a1", "0", "--a2", "0", "--a3", "5")
        assert code == 0
        assert "verdict: completely positive" in out

    def test_first_row_is_identity_channel(self, capsys):
        _, out, _ = run(capsys, "cp-scan", "--a1", "0.7", "--a2", "0.3", "--a3", "0.1")
        _, rows = parse_csv(out)
        assert np.array_equal(rows[0], [0.0, 0.0, 0.0, 0.0, 1.0])

    def test_rows_sum_to_one(self, capsys):
        _, out, _ = run(capsys, "cp-scan", "--a1", "0.9", "--a2", "0.2", "--a3", "0.4")
        _, rows = parse_csv(out)
        assert np.max(np.abs(rows[:, 1:].sum(axis=1) - 1.0)) < 1e-12

    def test_nu_max_overrides_horizon(self, capsys):
        _, out, _ = run(
            capsys, "cp-scan", "--a1", "0.7", "--a2", "0.3", "--a3", "0.1",
            "--nu-max", "1.5", "--steps", "10",
        )
        _, rows = parse_csv(out)
        assert rows[-1, 0] == 1.5

    def test_json_carries_verdict_in_meta(self, capsys):
        code, out, _ = run(
            capsys, "cp-scan", "--a1", "1.2", "--a2", "1.2", "--a3", "0",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"meta", "rows"}
        assert payload["meta"]["verdict"]["is_cp"] is False
        assert payload["meta"]["verdict"]["witness"]["value"] < -1e-10


class TestCritical:
    def test_two_axis_threshold(self, capsys):
        code, out, _ = run(capsys, "critical", "--direction", "1,1,0")
        assert code == 0
        _, rows = parse_csv(out)
        assert abs(rows[0, 3] - 0.8) < 0.05

    def test_dephasing_cp_for_all(self, capsys):
        code, out, _ = run(capsys, "critical", "--direction", "0,0,1")
        assert code == 0
        assert "one nonzero coupling" in out
        _, rows = parse_csv(out)
        assert np.isinf(rows[0, 3])

    def test_unresolvable_direction_usage_error(self, capsys):
        code, _, err = run(capsys, "critical", "--direction", "1,1e-6,0")
        assert code == 2
        assert "c*/kappa_min" in err

    def test_json_reports_null_boundary(self, capsys):
        code, out, _ = run(capsys, "critical", "--direction", "0,0,1", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["meta"]["verdict"]["a_tau_critical"] is None
        assert payload["rows"][0][3] is None

    def test_degenerate_direction_usage_error(self, capsys):
        code, _, err = run(capsys, "critical", "--direction", "0,0,0")
        assert code == 2

    def test_missing_direction_usage_error(self, capsys):
        code, _, _ = run(capsys, "critical")
        assert code == 2


class TestMcValidate:
    ARGS = (
        "mc-validate", "--a1", "0", "--a2", "0", "--a3", "1",
        "--nu-max", "2", "--steps", "20", "--trajectories", "400", "--seed", "5",
    )

    def test_passes_and_exit_zero(self, capsys):
        code, out, _ = run(capsys, *self.ARGS)
        assert code == 0
        assert "z-check" in out

    def test_fixed_seed_reproduces_identical_bytes(self, capsys):
        _, out1, _ = run(capsys, *self.ARGS)
        _, out2, _ = run(capsys, *self.ARGS)
        assert out1 == out2

    def test_single_trajectory_exits_one_beyond_origin(self, capsys):
        code, out, _ = run(
            capsys, "mc-validate", "--a1", "0", "--a2", "0", "--a3", "1",
            "--nu-max", "2", "--steps", "10", "--trajectories", "1",
        )
        assert code == 1
        header, rows = parse_csv(out)
        se_cols = [header.index(f"mc_se{k}") for k in (1, 2, 3)]
        assert np.all(rows[:, se_cols] == 0.0)

    @pytest.mark.parametrize("n", ["1", "400"])
    def test_json_meta_reports_contract_version(self, capsys, n):
        _, out, _ = run(capsys, *self.ARGS, "--trajectories", n, "--format", "json")
        assert json.loads(out)["meta"]["contract_version"] == 2

    def test_zero_trajectories_usage_error(self, capsys):
        code, _, err = run(capsys, "mc-validate", "--trajectories", "0")
        assert code == 2
        assert "trajectories must be >= 1" in err

    def test_single_trajectory_origin_only_grid_passes(self, capsys):
        code, _, _ = run(
            capsys, "mc-validate", "--a1", "0", "--a2", "0", "--a3", "1",
            "--nu-max", "0", "--steps", "2", "--trajectories", "1",
        )
        assert code == 0


class TestMarkovCompare:
    def test_table_structure_and_limits(self, capsys):
        code, out, _ = run(
            capsys, "markov-compare", "--a1", "1", "--tau", "0.1",
            "--t-max", "2", "--steps", "20",
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["tau", "t", "lambda_colored", "lambda_markov", "abs_diff", "gamma"]
        taus = np.unique(rows[:, 0])
        assert np.allclose(np.sort(taus), [0.001, 0.01, 0.1])
        # gamma = 4 kappa^2 tau = 2 D at every rung
        assert np.all(rows[:, 5] == rows[0, 5])
        d = 2.0 * 1.0**2 * 0.1
        assert rows[0, 5] == pytest.approx(2.0 * d, rel=1e-15)
        # t = 0 rows are exactly 1
        t0 = rows[rows[:, 1] == 0.0]
        assert np.all(t0[:, 2] == 1.0) and np.all(t0[:, 3] == 1.0)

    def test_diff_decreases_down_the_ladder(self, capsys):
        _, out, _ = run(
            capsys, "markov-compare", "--a1", "1", "--tau", "0.1",
            "--t-max", "2", "--steps", "20",
        )
        header, rows = parse_csv(out)
        per_tau = {}
        for row in rows:
            per_tau.setdefault(row[0], []).append(row[4])
        maxima = {tau: max(v) for tau, v in per_tau.items()}
        ordered = [maxima[t] for t in sorted(maxima, reverse=True)]
        assert ordered[0] > ordered[1] > ordered[2]

    def test_explicit_ladder(self, capsys):
        _, out, _ = run(
            capsys, "markov-compare", "--a1", "2", "--tau", "1",
            "--tau-ladder", "0.5,0.05", "--steps", "10",
        )
        _, rows = parse_csv(out)
        assert set(np.unique(rows[:, 0])) == {0.5, 0.05}

    def test_finite_rate_past_the_tau_domain(self, capsys):
        # (4 a1 tau)^2 overflows at --tau, which the explicit ladder leaves
        # out, but gamma = 4 a1^2 tau is finite: the table is printed
        code, out, _ = run(
            capsys, "markov-compare", "--a1", "1.908e47", "--tau", "2.187e134",
            "--tau-ladder", "4.1e-15,1.9e-43",
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert set(np.unique(rows[:, 0])) == {4.1e-15, 1.9e-43}
        assert np.all(rows[:, 5] == 4.0 * 1.908e47 * 1.908e47 * 2.187e134)


    @pytest.mark.parametrize(
        "argv",
        [
            ["--a1", "1e200"],
            ["--a1", "1e150", "--tau", "1e10"],
            ["--a1", "1e100", "--tau-ladder", "1e200"],
        ],
    )
    def test_overflowing_rate_names_a1(self, capsys, argv):
        # D = 2 a1^2 tau, or (4 kappa tau)^2 at a ladder rung, overflows: the
        # error names the inputs, not the coupling (0, 0, a_k) of a rung, and
        # no overflow warning precedes it
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "markov-compare", *argv)
        assert code == 2
        assert out == ""
        assert "--a1" in err and "--tau" in err
        assert all(flag in err for flag in argv[::2])
        assert "coupling strengths" not in err and "a = (" not in err


class TestVolterraCheck:
    def test_default_tolerance_passes(self, capsys):
        code, out, _ = run(
            capsys, "volterra-check", "--a1", "1", "--a2", "1", "--a3", "0",
            "--steps", "10000",
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["component", "kappa_tau", "max_abs_deviation"]
        assert rows.shape[0] == 3
        assert np.all(rows[:, 2] < 1e-5)

    def test_tight_tolerance_fails(self, capsys):
        code, out, _ = run(
            capsys, "volterra-check", "--a1", "1", "--a2", "1", "--a3", "0",
            "--steps", "2000", "--tol", "1e-9",
        )
        assert code == 1
        assert "FAIL" in out

    def test_quadrature_blowup_is_a_failed_verdict(self, capsys):
        # 100 steps cannot follow these frequencies: each component's
        # quadrature blows up, so its deviation is unbounded
        argv = ["volterra-check", "--a1", "1e3", "--a2", "1e3", "--a3", "0", "--steps", "100"]
        code, out, _ = run(capsys, *argv)
        assert code == 1
        assert [ln.split(",")[2] for ln in out.splitlines()[1:4]] == ["inf"] * 3
        assert out.splitlines()[-1].startswith("# max deviation inf") and "FAIL" in out
        code, out, _ = run(capsys, *argv, "--format", "json")
        payload = json.loads(out)
        assert code == 1
        assert payload["meta"]["verdict"] == {"max_abs_deviation": None, "passed": False}
        assert [row[2] for row in payload["rows"]] == [None] * 3


class TestConfigAndOutput:
    def test_config_file_with_flag_override(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("a1=0\na2=0\na3=2.0\nnu-max=1\nsteps=4\nbloch=1,0,0\n")
        code, out, _ = run(capsys, "evolve", "--config", str(cfg), "--steps", "2")
        assert code == 0
        _, rows = parse_csv(out)
        assert rows.shape[0] == 3  # flag overrode steps=4
        assert rows[-1, 0] == 1.0  # nu-max from file

    def test_unknown_config_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("frobnicate=1\n")
        code, _, err = run(capsys, "evolve", "--config", str(cfg))
        assert code == 2
        assert "unknown key" in err

    def test_malformed_config_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        for text, message in (
            ("just some text\n", "expected key=value"),
            ("steps=x\n", "bad value for steps"),
            ("bloch=1,2\n", "bad value for bloch"),
        ):
            cfg.write_text(text)
            code, _, err = run(capsys, "evolve", "--config", str(cfg))
            assert code == 2
            assert message in err

    def test_comments_and_blanks_ignored(self, capsys, tmp_path):
        cfg = tmp_path / "ok.cfg"
        cfg.write_text("# model\n\na3=1.0\na1=0\na2=0\n")
        code, _, _ = run(capsys, "evolve", "--config", str(cfg))
        assert code == 0
        # a key that only another command takes is ignored, not echoed
        cfg.write_text("# model\n\na3=1.0\ntrajectories=7\n")
        code, out, _ = run(capsys, "evolve", "--config", str(cfg), "--format", "json")
        assert code == 0
        config = json.loads(out)["meta"]["config"]
        assert config["a3"] == 1.0
        assert "trajectories" not in config

    def test_out_writes_file_and_verdict_to_stdout(self, capsys, tmp_path):
        target = tmp_path / "scan.csv"
        code, out, _ = run(
            capsys, "cp-scan", "--a1", "1.2", "--a2", "1.2", "--a3", "0",
            "--out", str(target),
        )
        assert code == 0
        assert "not completely positive" in out
        header, rows = parse_csv(target.read_text())
        assert header[0] == "nu"
        assert rows.shape[1] == 5

    def test_unwritable_out_usage_error(self, capsys, tmp_path):
        target = tmp_path / "missing" / "x.csv"
        code, out, err = run(capsys, "evolve", "--out", str(target))
        assert code == 2
        assert out == ""
        assert "cannot write output file" in err

    def test_csv_uses_round_trip_floats(self, capsys):
        _, out, _ = run(capsys, "evolve", "--bloch", "0.1,0.2,0.3", "--steps", "3")
        _, rows = parse_csv(out)
        assert rows[0, 1] == 0.1  # parses back to the exact double

    def test_csv_is_newline_terminated(self, capsys):
        _, out, _ = run(capsys, "evolve", "--steps", "2")
        assert out.endswith("\n")

    def test_json_top_level_shape(self, capsys, tmp_path):
        cfg = tmp_path / "json.cfg"
        cfg.write_text("format=JSON\n")
        for argv in (("--format", "json"), ("--config", str(cfg))):
            _, out, _ = run(capsys, "evolve", "--steps", "2", *argv)
            payload = json.loads(out)
            assert set(payload) == {"meta", "rows"}
            assert payload["meta"]["command"] == "evolve"
            assert payload["meta"]["columns"][0] == "nu"
            assert len(payload["rows"]) == 3

    # meta.config at each command's defaults: the shared options plus its own
    SHARED = {"a1": 1.0, "a2": 1.0, "a3": 0.0, "format": "json", "seed": 20260809, "tau": 1.0}
    OWN = {
        "evolve": {"bloch": [1.0, 0.0, 0.0], "nu_max": 5.0, "steps": 200},
        "cp-scan": {"steps": 400},
        "critical": {"direction": [1.0, 1.0, 0.0]},
        "mc-validate": {
            "bloch": [0.5773502691896258] * 3,
            "nu_max": 3.0,
            "steps": 50,
            "trajectories": 2,
        },
        "markov-compare": {"steps": 100, "t_max": 5.0},
        "volterra-check": {"nu_max": 10.0, "steps": 10000, "tol": 1e-5},
    }

    @pytest.mark.parametrize("command", list(OWN))
    def test_json_meta_config_at_defaults(self, capsys, command):
        extra = {"critical": ["--direction", "1,1,0"], "mc-validate": ["--trajectories", "2"]}
        _, out, _ = run(capsys, command, *extra.get(command, []), "--format", "json")
        config = json.loads(out)["meta"]["config"]
        assert list(config.items()) == sorted({**self.SHARED, **self.OWN[command]}.items())

    def test_config_applies_to_its_call_only(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("steps=7\na1=0.3\n")
        code, out, _ = run(capsys, "evolve", "--config", str(cfg))
        assert code == 0
        assert parse_csv(out)[1].shape[0] == 8
        code, out, _ = run(capsys, "evolve", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert len(payload["rows"]) == 201
        assert payload["meta"]["config"]["a1"] == 1.0

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["cp-scan", "--nu-max", "nan"], "nu-max must be finite and >= 0"),
            (["evolve", "--nu-max", "inf"], "nu-max must be finite and >= 0"),
            (["evolve", "--bloch", "nan,0,0"], "lies outside the sphere"),
            (["markov-compare", "--t-max", "nan"], "t-max must be finite and > 0"),
            (["markov-compare", "--tau-ladder", "nan"], "tau ladder values must be finite"),
            (["volterra-check", "--tol", "nan"], "tol must be finite and > 0"),
            (["critical", "--direction", "1,1,0", "--tau", "0"], "flip timescale must be finite"),
            (["critical", "--direction", "1,1,0", "--tau", "nan"], "flip timescale must be finite"),
            (["evolve", "--a1", "1e200"], "invalid model parameters"),
            (["evolve", "--a1", "5e153", "--a2", "5e153"], "invalid model parameters"),
            (["evolve", "--tau", "1e300"], "invalid model parameters"),
            (["cp-scan", "--a1", "1e200"], "invalid model parameters"),
            (["mc-validate", "--a1", "1e200", "--trajectories", "2"], "invalid model parameters"),
            (["volterra-check", "--a1", "1e200"], "invalid model parameters"),
            # a mean flip count of 1e300 per axis is past what the sampler draws
            (["mc-validate", "--nu-max", "1e300", "--trajectories", "1"], UNDRAWABLE),
            (["mc-validate", "--nu-max", "1e300", "--trajectories", "2"], UNDRAWABLE),
            # a zero or overflowing quadrature horizon t_max = 2 tau nu_max
            (["volterra-check", "--nu-max", "0"], "finite positive horizon 2 tau nu-max"),
            (["volterra-check", "--nu-max", "1e308"], "finite positive horizon 2 tau nu-max"),
            (["volterra-check", "--nu-max", "1e300", "--tau", "1e10"], "finite positive horizon"),
        ],
    )
    def test_non_finite_values_usage_error(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert message in err

    def test_unknown_flag_usage_error(self, capsys):
        code, _, _ = run(capsys, "evolve", "--frobnicate", "1")
        assert code == 2

    def test_unknown_command_usage_error(self, capsys):
        code, _, _ = run(capsys, "transmogrify")
        assert code == 2


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_examples():
    """The argv of each `rtnqubit ...` line in the README's "Command line" block."""
    section = README.read_text().split("## Command line", 1)[1]
    block = section.split("```bash\n", 1)[1].split("```", 1)[0]
    return [
        line.split("#", 1)[0].split()[1:]
        for line in block.splitlines()
        if line.startswith("rtnqubit ")
    ]


# Each command at its defaults; critical has no default direction.
DEFAULTS = {
    "evolve": [],
    "cp-scan": [],
    "critical": ["--direction", "1,1,0"],
    "mc-validate": [],
    "markov-compare": [],
    "volterra-check": [],
}


class TestDocumentedRuns:
    def test_readme_lists_every_command(self):
        assert sorted(argv[0] for argv in readme_examples()) == sorted(DEFAULTS)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("argv", readme_examples(), ids=" ".join)
    def test_readme_example_runs(self, capsys, argv, fmt):
        code, out, err = run(capsys, *argv, "--format", fmt)
        assert code == 0, err
        if fmt == "json":
            assert json.loads(out)["rows"]
        else:
            assert parse_csv(out)[1].size

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("command", list(DEFAULTS))
    def test_defaults_exit_as_documented(self, capsys, command, fmt):
        # mc-validate's default two-axis model fails its z-check against the
        # closed form (README, "Command line"); every other default passes
        code, out, _ = run(capsys, command, *DEFAULTS[command], "--format", fmt)
        assert code == (1 if command == "mc-validate" else 0)
        assert out

    EXTRAS = {
        "cp-scan": ["verdict"],
        "critical": ["verdict"],
        "mc-validate": ["contract_version", "verdict"],
        "volterra-check": ["verdict"],
    }

    @pytest.mark.parametrize("command", list(DEFAULTS))
    def test_json_meta_key_order(self, capsys, command):
        _, out, _ = run(capsys, command, *DEFAULTS[command], "--format", "json")
        meta = json.loads(out)["meta"]
        expected = ["command", "version", "config", *self.EXTRAS.get(command, []), "columns"]
        assert list(meta) == expected
