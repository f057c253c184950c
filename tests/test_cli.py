"""Command-line interface: determinism, schema, exit codes, outputs."""

import json
from importlib import resources

import jsonschema
import numpy as np
import pytest

from logkdv import cli, jacobi
from logkdv.errors import NumericalError


def load_schema():
    with resources.files("logkdv").joinpath("summary_schema.json").open() as fh:
        return json.load(fh)


def read_summary(outdir, name):
    with open(outdir / f"{name}_summary.json") as fh:
        return json.load(fh)


def run(args):
    return cli.main([str(a) for a in args])


SCHEMA = load_schema()

NUMERIC_KEYS = [
    (name, key)
    for name, params in cli._PARAMS.items()
    for key, (default, _) in params.items()
    if cli._flag_type(default) in (float, int)
]


SMALL_RUNS = {
    "spectrum": ["--z-max", 4.0, "--n-max", 200],
    "projections": ["--n-max", 2000],
    "coercivity": ["--n-max", 100, "--n-samples", 50],
    "evolve": ["--T", 0.5, "--n-modes", 50],
    "dissipate": ["--T", 0.2, "--extent", 10.0, "--spacing", 0.1, "--dt", 0.01],
    "reconstruct": ["--z", 2.705497, "--m-max", 100, "--num-points", 401],
    "reconstruct-bump": ["--mode", "bump", "--num-points", 401],
}


@pytest.mark.parametrize("run_id", SMALL_RUNS)
def test_every_subcommand_writes_identical_bytes_twice(run_id, tmp_path):
    args = [run_id.split("-")[0], *SMALL_RUNS[run_id]]
    d1, d2 = tmp_path / "a", tmp_path / "b"
    assert run([*args, "--outdir", d1]) == 0
    assert run([*args, "--outdir", d2]) == 0
    doc = read_summary(d1, args[0])
    files = sorted(p.name for p in d1.iterdir())
    assert files == sorted([*doc["outputs"], f"{args[0]}_summary.json"])
    assert sorted(p.name for p in d2.iterdir()) == files
    for name in files:
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes(), name


class TestProjectionsCommand:
    def test_known_head_values_in_csv(self, tmp_path):
        assert run(["projections", "--n-max", 1, "--outdir", tmp_path]) == 0
        lines = (tmp_path / "projections.csv").read_text().strip().splitlines()
        assert lines[0] == "n,f_n"
        n0, f0 = lines[1].split(",")
        n1, f1 = lines[2].split(",")
        assert float(f0) == pytest.approx(2.50663, abs=1e-5)
        assert float(f1) == 2.0
        assert len(lines) == 3

    def test_summary_validates(self, tmp_path):
        run(["projections", "--outdir", tmp_path])
        doc = read_summary(tmp_path, "projections")
        jsonschema.validate(doc, SCHEMA)

    def test_deterministic_output(self, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        run(["projections", "--n-max", 2000, "--outdir", d1])
        run(["projections", "--n-max", 2000, "--outdir", d2])
        assert (d1 / "projections.csv").read_bytes() == (d2 / "projections.csv").read_bytes()
        assert (
            (d1 / "projections_summary.json").read_bytes()
            == (d2 / "projections_summary.json").read_bytes()
        )


class TestSpectrumCommand:
    def test_eigenvalues_in_summary(self, tmp_path):
        assert run(
            ["spectrum", "--z-max", 8.0, "--n-max", 500, "--outdir", tmp_path]
        ) == 0
        doc = read_summary(tmp_path, "spectrum")
        jsonschema.validate(doc, SCHEMA)
        assert doc["scalars"]["z1"] == pytest.approx(2.7054, abs=1e-3)
        assert doc["scalars"]["z2"] == pytest.approx(6.1540, abs=1e-3)
        assert doc["scalars"]["E1"] == pytest.approx(5.4109, abs=2e-3)
        assert all(doc["invariants"].values())

    def test_csv_traces_written(self, tmp_path):
        run(["spectrum", "--z-max", 8.0, "--n-max", 500, "--outdir", tmp_path])
        scan = (tmp_path / "wronskian_scan.csv").read_text().splitlines()
        trace = (tmp_path / "wronskian_trace.csv").read_text().splitlines()
        assert scan[0] == "z,W_inf"
        assert trace[0] == "n,W_n"
        assert len(trace) == 501

    def test_tol_below_float_spacing_ends(self, tmp_path, time_limit):
        with time_limit(10):
            code = run(["spectrum", "--tol", 1e-15, "--n-max", 200, "--outdir", tmp_path])
        assert code == 0
        assert read_summary(tmp_path, "spectrum")["scalars"]["z1"] == pytest.approx(
            2.7054, abs=1e-3
        )

    def test_numerical_failure_writes_no_csv(self, tmp_path, monkeypatch, capsys):
        trace = jacobi.wronskian_trace

        def fail_near_z1(z, n_max):
            if abs(z - 2.7054) < 1e-2:
                raise NumericalError("synthetic failure at z1")
            return trace(z, n_max)

        monkeypatch.setattr(jacobi, "wronskian_trace", fail_near_z1)
        assert run(["spectrum", "--z-max", 4.0, "--n-max", 200, "--outdir", tmp_path]) == 2
        assert capsys.readouterr().err.startswith("error: synthetic failure")
        assert list(tmp_path.iterdir()) == []


class TestEvolveCommand:
    def test_zero_horizon_is_identity(self, tmp_path):
        assert run(["evolve", "--T", 0, "--n-modes", 50, "--outdir", tmp_path]) == 0
        lines = (tmp_path / "evolve.csv").read_text().strip().splitlines()
        assert lines[0] == "t,norm,c1,drift"
        assert len(lines) == 2  # header + the initial sample only
        t, norm, c1, drift = (float(v) for v in lines[1].split(","))
        assert (t, c1, drift) == (0.0, 0.0, 0.0)

    def test_short_run_summary(self, tmp_path):
        assert run(
            [
                "evolve",
                "--T", 0.5,
                "--n-modes", 100,
                "--dt", 1e-3,
                "--outdir", tmp_path,
            ]
        ) == 0
        doc = read_summary(tmp_path, "evolve")
        jsonschema.validate(doc, SCHEMA)
        assert doc["invariants"]["norm_conserved"]
        assert doc["scalars"]["max_norm_drift"] < 1e-8


class TestDissipateCommand:
    def test_summary_and_csv(self, tmp_path):
        assert run(
            [
                "dissipate",
                "--T", 0.5,
                "--extent", 20.0,
                "--spacing", 0.05,
                "--dt", 2e-3,
                "--outdir", tmp_path,
            ]
        ) == 0
        doc = read_summary(tmp_path, "dissipate")
        jsonschema.validate(doc, SCHEMA)
        assert doc["invariants"]["l2_monotone"]
        assert doc["invariants"]["constraint_conserved"]
        header = (tmp_path / "dissipate.csv").read_text().splitlines()[0]
        assert header == "t,l2_norm,h1_seminorm,linf_norm,a,b,A"


class TestCoercivityCommand:
    def test_summary(self, tmp_path):
        assert run(
            ["coercivity", "--n-max", 100, "--n-samples", 50, "--outdir", tmp_path]
        ) == 0
        doc = read_summary(tmp_path, "coercivity")
        jsonschema.validate(doc, SCHEMA)
        assert 0.0 < doc["scalars"]["coercivity_constant"] < 1.0
        assert all(doc["invariants"].values())


class TestReconstructCommand:
    def test_eigenvector_mode(self, tmp_path):
        assert run(
            [
                "reconstruct",
                "--z", 2.705497,
                "--m-max", 200,
                "--outdir", tmp_path,
            ]
        ) == 0
        doc = read_summary(tmp_path, "reconstruct")
        jsonschema.validate(doc, SCHEMA)
        assert doc["invariants"]["odd_parity"]
        assert doc["invariants"]["weak_residuals_small"]
        header = (tmp_path / "eigenvector_profile.csv").read_text().splitlines()[0]
        assert header == "x,y_odd,y_even"

    def test_bump_mode(self, tmp_path):
        assert run(
            ["reconstruct", "--mode", "bump", "--num-points", 1201, "--outdir", tmp_path]
        ) == 0
        doc = read_summary(tmp_path, "reconstruct")
        assert doc["invariants"]["parseval"]


class TestConfigHandling:
    def test_config_file_overridden_by_flag(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_max": 5}))
        assert run(
            ["projections", "--config", cfg, "--n-max", 3, "--outdir", tmp_path]
        ) == 0
        doc = read_summary(tmp_path, "projections")
        assert doc["config"]["n_max"] == 3

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        assert run(["projections", "--config", cfg, "--outdir", tmp_path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "\n" not in err.strip()

    def test_defaults_pass_their_range_checks(self):
        for name, params in cli._PARAMS.items():
            for key, (default, check) in params.items():
                assert check(default), f"{name}.{key} default {default!r} out of range"

    @pytest.mark.parametrize("name, key", NUMERIC_KEYS)
    def test_wrong_type_or_non_finite_value_rejected(self, name, key, tmp_path, capsys):
        default = cli._PARAMS[name][key][0]
        is_float = cli._flag_type(default) is float
        bad = [float("inf"), float("-inf"), float("nan"), "x", [1]]
        if default is not None:
            bad.append(None)
        if is_float:
            bad += [True, 10**400]
        else:
            bad += [1000.9, True]

        def rejected(args):
            code = run([name, *args, "--outdir", tmp_path])
            err = capsys.readouterr().err
            return code == 1 and err.startswith("error:") and "\n" not in err.strip()

        cfg = tmp_path / "cfg.json"
        for value in bad:
            cfg.write_text(json.dumps({key: value}))
            assert rejected(["--config", cfg]), value
        flag = "--" + key.replace("_", "-")
        for text in ("inf", "nan") if is_float else ("inf", "nan", "1.5"):
            assert rejected([flag, text]), text
        assert not list(tmp_path.glob("*_summary.json"))

    @pytest.mark.parametrize(
        "args",
        [[], ["nosuch"], ["projections", "--bogus", "1"], ["projections", "--n-max"]],
        ids=["no-subcommand", "unknown-subcommand", "unknown-flag", "missing-value"],
    )
    def test_usage_error_exits_1_with_one_line(self, args, tmp_path, capsys):
        assert run([*args, "--outdir", tmp_path] if args else args) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and "\n" not in captured.err.strip()
        assert captured.out == ""

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["projections", "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: logkdv projections")

    def test_out_of_range_value_rejected(self, tmp_path, capsys):
        for args in (
            ["spectrum", "--scan-step", -0.1],
            ["spectrum", "--trace-z", 1e300],
            ["reconstruct", "--z", 1e300],
        ):
            assert run([*args, "--outdir", tmp_path]) == 1, args
            err = capsys.readouterr().err
            assert err.startswith("error:") and "\n" not in err.strip()
        assert not list(tmp_path.iterdir())

    def test_missing_config_file(self, tmp_path):
        assert run(
            ["projections", "--config", tmp_path / "nope.json", "--outdir", tmp_path]
        ) == 1

    def test_outdir_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("LOGKDV_OUTDIR", str(tmp_path / "envout"))
        assert run(["projections", "--n-max", 1]) == 0
        assert (tmp_path / "envout" / "projections.csv").exists()

    def test_unwritable_output_exits_1_with_one_line(self, tmp_path, capsys):
        (tmp_path / "projections.csv").mkdir()
        assert run(["projections", "--n-max", 3, "--outdir", tmp_path]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: cannot write output:")
        assert "\n" not in captured.err.strip()
        assert captured.out == ""

    def test_failed_write_leaves_no_file_of_the_run(self, tmp_path, capsys):
        (tmp_path / "projections_summary.json").mkdir()
        assert run(["projections", "--n-max", 3, "--outdir", tmp_path]) == 1
        assert capsys.readouterr().err.startswith("error: cannot write output:")
        assert [p.name for p in tmp_path.iterdir()] == ["projections_summary.json"]

    def test_numerical_failure_exit_code(self, tmp_path, monkeypatch, capsys):
        def boom(config):
            raise NumericalError("synthetic failure")

        monkeypatch.setitem(cli._RUNNERS, "projections", boom)
        assert run(["projections", "--outdir", tmp_path]) == 2
        assert capsys.readouterr().err.startswith("error:")
