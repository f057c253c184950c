"""Command-line interface: determinism, schema, exit codes, outputs."""

import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import tempfile
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logkdv import cli, jacobi
from logkdv.errors import NumericalError


def load_schema():
    with resources.files("logkdv").joinpath("summary_schema.json").open() as fh:
        return json.load(fh)


def _reject_constant(token):
    raise ValueError(f"{token} is not JSON")


def read_summary(outdir, name):
    """The summary, parsed as strict JSON: NaN and Infinity are rejected."""
    with open(outdir / f"{name}_summary.json") as fh:
        return json.load(fh, parse_constant=_reject_constant)


def run(args):
    return cli.main([str(a) for a in args])


def run_python(args, **kwargs):
    """Run ``python -W error::RuntimeWarning args`` with this checkout's package on the path."""
    env = dict(os.environ)
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", *map(str, args)],
        env=env, capture_output=True, text=True, timeout=120, **kwargs,
    )


def run_module(module, args, **kwargs):
    """Run ``python -m module args`` with this checkout's package on the path."""
    return run_python(["-m", module, *args], **kwargs)


SCHEMA = load_schema()

NUMERIC_KEYS = [
    (name, key)
    for name, params in cli._PARAMS.items()
    for key, (default, _) in params.items()
    if cli._flag_type(default) in (float, int)
]


# A small run of each subcommand, and whether it loads scipy: only evolve
# and dissipate do, and of scipy they load LAPACK's extension module
# scipy.linalg._flapack alone (for dgttrf and dgttrs, evolve's and
# dissipate's dpttrs and dissipate's dpttrf), not the scipy or
# scipy.linalg packages. The other runs use the package's ports of Cephes'
# zeta and of brentq.
SMALL_RUNS = {
    "spectrum": (["--z-max", 4.0, "--n-max", 200], False),
    "projections": (["--n-max", 2000], False),
    "coercivity": (["--n-max", 100, "--n-samples", 50], False),
    "evolve": (["--T", 0.5, "--n-modes", 50], True),
    "dissipate": (["--T", 0.2, "--extent", 10.0, "--spacing", 0.1, "--dt", 0.01], True),
    # the default z is a root that find_eigenvalues finds
    "reconstruct": (["--m-max", 100, "--num-points", 401], False),
    "reconstruct-bump": (["--mode", "bump", "--num-points", 401], False),
}

# Importing the CLI loads no scipy, so a run's first scipy import happens
# inside ``main``, under its ``np.errstate`` and, in this child, with runtime
# warnings as errors. The last line printed lists the scipy modules then loaded.
FRESH_RUN = """
import json, sys
import logkdv.cli

def scipy_modules():
    return sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")

assert not scipy_modules(), scipy_modules()
code = logkdv.cli.main(sys.argv[1:])
print(json.dumps(scipy_modules()))
sys.exit(code)
"""


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    """Run a row of ``SMALL_RUNS`` once for the module: ``FRESH_RUN`` in a fresh
    interpreter into ``fresh/``, ``cli.main`` in this one into ``here/``."""
    done = {}

    def get(run_id):
        if run_id not in done:
            name = run_id.split("-")[0]
            args = SMALL_RUNS[run_id][0]
            fresh, here = (tmp_path_factory.mktemp(run_id) / side for side in ("fresh", "here"))
            proc = run_python(["-c", FRESH_RUN, name, *args, "--outdir", fresh])
            done[run_id] = name, proc, run([name, *args, "--outdir", here]), fresh, here
        return done[run_id]

    return get


def fresh_scipy_modules(small_run, run_id):
    """The scipy modules loaded by the fresh-interpreter run of a row."""
    proc = small_run(run_id)[1]
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("run_id", SMALL_RUNS)
def test_every_subcommand_writes_identical_bytes_twice(run_id, small_run):
    # once in a fresh interpreter, once in this one
    name, proc, code, fresh, here = small_run(run_id)
    assert proc.returncode == 0, proc.stderr
    assert code == 0
    doc = read_summary(fresh, name)
    jsonschema.validate(doc, SCHEMA)
    files = sorted([*doc["outputs"], f"{name}_summary.json"])
    assert sorted(p.name for p in fresh.iterdir()) == files
    assert sorted(p.name for p in here.iterdir()) == files
    for file_name in files:
        assert (fresh / file_name).read_bytes() == (here / file_name).read_bytes(), file_name


def write_csv_row_by_row(path, table):
    """Reference writer: one join and one write per row."""
    columns = list(table.values())
    with open(path, "w") as fh:
        fh.write(",".join(table) + "\n")
        for start in range(0, len(columns[0]), cli._CSV_BLOCK_ROWS):
            block = [
                np.asarray(col[start : start + cli._CSV_BLOCK_ROWS], dtype=float).tolist()
                for col in columns
            ]
            for row in zip(*block):
                fh.write(",".join(map(repr, row)) + "\n")


def assert_same_csv_bytes(table, directory):
    directory.mkdir()
    cli._write_csv(directory / "blocked.csv", table)
    write_csv_row_by_row(directory / "reference.csv", table)
    assert (directory / "blocked.csv").read_bytes() == (directory / "reference.csv").read_bytes()


def _bit_neighbours(values, reach):
    """Each float64 value and the ``reach`` doubles on either side of it."""
    bits = np.asarray(values, dtype=float).view(np.int64)
    return (bits[:, None] + np.arange(-reach, reach + 1)).ravel().view(float)


_POWERS_OF_TWO = np.ldexp(1.0, np.arange(-1074, 1024))
# Families where a shortest-digit formatter is most likely to go wrong,
# each also with its negatives
FORMAT_FAMILIES = {
    # every power of two and both its neighbours: the boundaries where the
    # rounding interval is asymmetric
    "powers_of_two": np.concatenate([
        _POWERS_OF_TWO, np.nextafter(_POWERS_OF_TWO, 0.0), np.nextafter(_POWERS_OF_TWO, np.inf)]),
    "powers_of_ten": np.array([float(f"1e{k}") for k in range(-323, 309)]),
    "smallest_subnormals": np.arange(1, 100_001, dtype=np.int64).view(float),
    "integers_near_2_53_and_1e16": np.concatenate([
        np.arange(2**53 - 2000, 2**53 + 2000), np.arange(10**16 - 2000, 10**16 + 2000)]).astype(float),
    # the switches between positional and exponent form
    "format_thresholds": _bit_neighbours([1e-4, 1e16], 1000),
}


class TestCsvWriter:
    @pytest.mark.parametrize("family", FORMAT_FAMILIES)
    def test_value_family_matches_row_by_row_writer(self, family, tmp_path):
        values = FORMAT_FAMILIES[family]
        values = np.concatenate([values, -values])
        assert_same_csv_bytes({"v": values}, tmp_path / "csv")

    @settings(max_examples=300, deadline=None)
    @given(rows=st.lists(st.tuples(st.floats(), st.floats()), max_size=40),
           block_rows=st.integers(1, 8))
    def test_any_floats_match_row_by_row_writer(self, rows, block_rows):
        # st.floats() draws subnormals, both zeros, both infinities and nan
        table = {"a": np.array([a for a, _ in rows]), "b": np.array([b for _, b in rows])}
        with pytest.MonkeyPatch.context() as patch, tempfile.TemporaryDirectory() as tmp:
            patch.setattr(cli, "_CSV_BLOCK_ROWS", block_rows)
            assert_same_csv_bytes(table, Path(tmp) / "csv")

    @pytest.mark.parametrize("run_id", SMALL_RUNS)
    def test_every_small_run_table_matches_row_by_row_writer(self, run_id, tmp_path):
        name = run_id.split("-")[0]
        args = cli._build_parser().parse_args([name, *map(str, SMALL_RUNS[run_id][0])])
        config = cli._resolve_config(name, None, {k: getattr(args, k) for k in cli._PARAMS[name]})
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            _, _, tables = cli._RUNNERS[name](config)
        for file_name, table in tables.items():
            assert_same_csv_bytes(table, tmp_path / file_name)

    @pytest.mark.parametrize("rows", [0, 1, 3, 4, 5, 11])
    def test_small_blocks_and_extreme_floats_match_row_by_row_writer(
        self, rows, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(cli, "_CSV_BLOCK_ROWS", 4)
        extremes = np.array([-0.0, 5e-324, 1e-5, 1e-4, 9.999999999999998e15, 1e16,
                             1.7976931348623157e308, np.nan, np.inf, -np.inf])
        values = np.resize(extremes, rows)
        table = {"k": np.arange(rows), "v": values, "w": -values[::-1]}
        assert_same_csv_bytes(table, tmp_path / "csv")
        lines = (tmp_path / "csv" / "blocked.csv").read_text().split("\n")
        assert lines[0] == "k,v,w" and lines[-1] == "" and len(lines) == rows + 2


class TestProjectionsCommand:
    def test_golden_csv_bytes_across_block_boundaries(self, tmp_path):
        # 40001 rows cross two block boundaries; f_n comes from sqrt, division
        # and a sequential product only, so the bytes do not depend on the platform
        assert cli._CSV_BLOCK_ROWS < 40001 // 2
        assert run(["projections", "--n-max", 40000, "--outdir", tmp_path]) == 0
        data = (tmp_path / "projections.csv").read_bytes()
        assert len(data) == 1_094_285
        assert hashlib.sha256(data).hexdigest() == (
            "3770cb021997238dbe95b11592f5e6624a659d0c630dd60fd1cdcf79cfe4ee2d"
        )

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
        # at the default --n-max, which no row of SMALL_RUNS uses
        assert run(["projections", "--outdir", tmp_path]) == 0
        doc = read_summary(tmp_path, "projections")
        jsonschema.validate(doc, SCHEMA)

    def test_deterministic_output(self, tmp_path):
        # twice in one process: nothing the first run leaves behind changes the bytes
        d1, d2 = tmp_path / "a", tmp_path / "b"
        assert run(["projections", "--n-max", 2000, "--outdir", d1]) == 0
        assert run(["projections", "--n-max", 2000, "--outdir", d2]) == 0
        for name in ("projections.csv", "projections_summary.json"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes(), name


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

    def test_roots_are_checked_by_the_scan_evaluator(self, tmp_path, monkeypatch):
        # W_inf at the roots comes from the batched evaluator that found
        # them; the only Wronskian trace is the one written to the CSV
        trace, traced = jacobi.wronskian_trace, []

        def record(z, n_max):
            traced.append(z)
            return trace(z, n_max)

        monkeypatch.setattr(jacobi, "wronskian_trace", record)
        assert run(["spectrum", "--z-max", 8.0, "--n-max", 500, "--outdir", tmp_path]) == 0
        assert traced == [1.0]
        assert read_summary(tmp_path, "spectrum")["invariants"]["roots_are_relative_zeros"]

    def test_no_roots_are_relative_zeros(self, tmp_path):
        args = ["spectrum", "--z-min", 1e-300, "--z-max", 1e-299, "--n-max", 200]
        assert run(args + ["--outdir", tmp_path]) == 0
        doc = read_summary(tmp_path, "spectrum")
        assert "z1" not in doc["scalars"]
        assert doc["invariants"]["roots_are_relative_zeros"] is True

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
        args = ["spectrum", "--z-max", 4.0, "--n-max", 200, "--trace-z", 2.7054]
        assert run(args + ["--outdir", tmp_path]) == 2
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

    def test_two_modes_at_the_range_checks_lower_bound(self, tmp_path):
        # the smallest --n-modes accepted, the size the midpoint solve's pad is for
        assert run(["evolve", "--n-modes", 2, "--T", 0.5, "--outdir", tmp_path]) == 0
        assert read_summary(tmp_path, "evolve")["invariants"]["norm_conserved"]

    def test_pre_edge_pairing_drift_at_roundoff(self, tmp_path):
        # the default sample_every is 10; c1 still comes from every step
        assert run(["evolve", "--T", 0.25, "--outdir", tmp_path]) == 0
        assert read_summary(tmp_path, "evolve")["scalars"]["pairing_drift_abs"] < 1e-11
        # each sample is paired alone, so the samples of a shorter run are the
        # first rows of a longer run's CSV
        lines = {}
        for T in (0.25, 0.5):
            out = tmp_path / f"T{T}"
            assert run(["evolve", "--n-modes", 50, "--T", T, "--outdir", out]) == 0
            lines[T] = (out / "evolve.csv").read_bytes().splitlines(keepends=True)
        assert len(lines[0.25]) == 27
        assert lines[0.5][:27] == lines[0.25]

    def test_negative_value_in_exponent_notation(self, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        assert run(["evolve", "--n-modes", 50, "--T", "-1e-1", "--outdir", d1]) == 0
        assert run(["evolve", "--n-modes", 50, "--T=-1e-1", "--outdir", d2]) == 0
        for name in ("evolve.csv", "evolve_summary.json"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes(), name
        args = ["dissipate", *SMALL_RUNS["dissipate"][0], "--center", "-5e0"]
        assert run([*args, "--outdir", tmp_path / "c"]) == 0


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

    def test_narrow_bump_runs_without_warning(self, tmp_path):
        # the bump's square overflows off its centre node, where exp(-inf) = 0
        args = SMALL_RUNS["dissipate"][0]
        assert run(["dissipate", *args, "--width", 1e-300, "--outdir", tmp_path]) == 0
        doc = read_summary(tmp_path, "dissipate")
        assert all(v is not None for v in doc["scalars"].values())


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

    def test_non_finite_scalar_written_as_null(self, tmp_path):
        # the even coefficients' fitted power law decays too slowly to sum: inf
        assert run(["reconstruct", "--z", 100, "--m-max", 10, "--outdir", tmp_path]) == 0
        doc = read_summary(tmp_path, "reconstruct")
        jsonschema.validate(doc, SCHEMA)
        assert doc["scalars"]["tail_even"] is None

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
        [[], ["nosuch"], ["projections", "--bogus", "1"], ["projections", "--n-max"],
         ["evolve", "--T", "-1e-1x"]],
        ids=["no-subcommand", "unknown-subcommand", "unknown-flag", "missing-value",
             "malformed-negative-value"],
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
            ["reconstruct", "--m-max", 5000],  # basis index 2 m_max + 1 above MAX_INDEX
            ["dissipate", "--extent", 1e308, "--spacing", 1e-10],
            ["dissipate", "--extent", 100.01, "--spacing", 0.01],
            ["dissipate", "--T", 1e-9],
            ["dissipate", "--dt", 1e-320],
            ["dissipate", "--center", -100],
            ["dissipate", "--center", -60, "--width", 1],
            ["evolve", "--dt", 1e-320],
            ["evolve", "--T", 1e-9],
            ["coercivity", "--seed", -1],
            ["evolve", "--preset", "random", "--seed", -1],
        ):
            assert run([*args, "--outdir", tmp_path]) == 1, args
            err = capsys.readouterr().err
            assert err.startswith("error:") and "\n" not in err.strip()
        assert not list(tmp_path.iterdir())
        # the gaussian bump's quadrature reaches basis index n_modes + 1
        assert run(["evolve", "--n-modes", 10_000, "--T", 0.001, "--outdir", tmp_path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "n_modes" in err and "9999" in err
        assert not list(tmp_path.iterdir())

    def test_step_whose_couplings_underflow_runs(self, tmp_path):
        # at dt = 5e-324, h/2 times each coupling underflows to 0.0, so the
        # midpoint matrix is the identity and the one step keeps the state
        args = ["evolve", "--dt", 5e-324, "--T", 5e-324, "--n-modes", 5]
        assert run([*args, "--outdir", tmp_path]) == 0
        summary = json.loads((tmp_path / "evolve_summary.json").read_text())
        assert summary["scalars"]["max_norm_drift"] == 0.0

    def test_random_preset_takes_every_n_modes_in_range(self, tmp_path):
        # only the gaussian bump has a quadrature to bound
        args = ["evolve", "--preset", "random", "--n-modes", 100_000, "--T", 0]
        assert run([*args, "--outdir", tmp_path]) == 0
        summary = json.loads((tmp_path / "evolve_summary.json").read_text())
        assert summary["config"]["n_modes"] == 100_000

    @pytest.mark.parametrize(
        "args",
        [["--z", 1e-165], ["--z", 1e-170], ["--x-max", 1e-80], ["--x-max", 1e-90],
         ["--x-max", 1e-200]],
        ids=["z-1e-165", "z-1e-170", "x-max-1e-80", "x-max-1e-90", "x-max-1e-200"],
    )
    def test_arithmetic_failure_exits_2_with_one_line(self, args, tmp_path, capsys):
        # the residual's reference norm underflows to zero, or a residual norm
        # overflows (at 1e-80 to an Infinity that was written with exit 0)
        assert run(["reconstruct", *args, "--outdir", tmp_path]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and "\n" not in captured.err.strip()
        assert captured.out == ""
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

    def test_memory_error_while_writing_leaves_no_file(self, tmp_path, monkeypatch, capsys):
        def write_then_fail(path, table):
            path.write_text("partial")
            raise MemoryError("synthetic")

        monkeypatch.setattr(cli, "_write_csv", write_then_fail)
        assert run(["projections", "--n-max", 3, "--outdir", tmp_path]) == 1
        err = capsys.readouterr().err
        assert err == "error: not enough memory: synthetic\n"
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("args, code", [(["projections", "--n-max", 3], 0),
                                            (["projections", "--n-max", 0], 1)])
    def test_memory_released_after_every_run(self, args, code, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "_release_freed_memory", lambda: calls.append(1))
        assert run([*args, "--outdir", tmp_path]) == code
        assert calls == [1]

    def test_numerical_failure_exit_code(self, tmp_path, monkeypatch, capsys):
        def boom(config):
            raise NumericalError("synthetic failure")

        monkeypatch.setitem(cli._RUNNERS, "projections", boom)
        assert run(["projections", "--outdir", tmp_path]) == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("code", [1, 2])
    def test_failed_run_removes_the_directories_it_created(self, code, tmp_path, monkeypatch,
                                                           capsys):
        # a fresh nested --outdir a/b: both directories go with the failed run
        # (exit 1 at the float cap, exit 2 from the runner); a directory that
        # was already there stays, and so do the files in it
        def boom(config):
            raise NumericalError("synthetic failure")

        monkeypatch.setitem(cli._RUNNERS, "projections", boom)
        args = (["dissipate", "--T", 1e4, "--dt", 1e-4] if code == 1 else ["projections"])
        monkeypatch.chdir(tmp_path)
        assert run([*args, "--outdir", Path("a", "b")]) == code
        assert capsys.readouterr().err.startswith("error:")
        assert not list(tmp_path.iterdir())
        (tmp_path / "a").mkdir()
        assert run([*args, "--outdir", tmp_path / "a" / "b" / "c"]) == code
        assert [p.name for p in tmp_path.iterdir()] == ["a"]
        assert not list((tmp_path / "a").iterdir())
        (tmp_path / "a" / "keep").write_text("")
        assert run([*args, "--outdir", tmp_path / "a"]) == code
        assert [p.name for p in (tmp_path / "a").iterdir()] == ["keep"]

    def test_outdir_below_a_file_exits_1_and_removes_nothing(self, tmp_path, capsys):
        (tmp_path / "a").write_text("")
        assert run(["projections", "--outdir", tmp_path / "a" / "b"]) == 1
        assert capsys.readouterr().err.startswith("error: cannot create output directory:")
        assert [p.name for p in tmp_path.iterdir()] == ["a"]


# Resident MB a ``projections --n-max 1000000`` run leaves behind in a
# process that loaded scipy.optimize, the largest scipy import, and ran
# coercivity first.
RSS_AFTER_LARGE_RUN = """
import sys
import logkdv.cli
import scipy.optimize

def rss_mb():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmRSS:")) / 1024

out = ["--outdir", sys.argv[1]]
assert logkdv.cli.main(["coercivity", "--n-max", "20", "--n-samples", "5", *out]) == 0
before = rss_mb()
assert logkdv.cli.main(["projections", "--n-max", "1000000", *out]) == 0
print(rss_mb() - before)
"""


class TestModuleEntryPoints:
    @pytest.mark.parametrize("module", ["logkdv.cli", "logkdv"])
    def test_runs_with_runtime_warnings_as_errors(self, module, tmp_path):
        # runpy warns when the module it runs was imported with the package
        proc = run_module(module, ["projections", "--n-max", 3, "--outdir", tmp_path])
        assert proc.returncode == 0, proc.stderr
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "projections.csv", "projections_summary.json"]

    @pytest.mark.parametrize("run_id", [r for r, (_, scipy) in SMALL_RUNS.items() if scipy])
    def test_first_scipy_import_runs_under_the_errstate(self, run_id, small_run):
        # a float warning raised while LAPACK's extension loads would exit 2 in the child
        assert fresh_scipy_modules(small_run, run_id)

    @pytest.mark.parametrize("run_id", [r for r, (_, scipy) in SMALL_RUNS.items() if scipy])
    def test_run_loads_the_lapack_extension_alone(self, run_id, small_run):
        # loaded from its file: neither scipy's nor scipy.linalg's __init__ runs
        assert fresh_scipy_modules(small_run, run_id) == ["scipy.linalg._flapack"]

    @pytest.mark.parametrize(
        "call, loaded",
        [
            ("from logkdv.errors import _lapack; _lapack()", ["scipy.linalg._flapack"]),
            ("from logkdv.jacobi import truncated_matrix_eigenvalues as f; f(401)",
             ["scipy.linalg._flapack"]),
            ("from logkdv.coercivity import coercivity_constant_dense as f; f(50)", []),
        ],
        ids=["lapack", "truncated_matrix_eigenvalues", "coercivity_constant_dense"],
    )
    def test_library_call_loads_the_lapack_extension_at_most(self, call, loaded):
        proc = run_python(["-c", f"""{call}
import json, sys
print(json.dumps(sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")))"""])
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == loaded

    def test_scipy_imported_after_lapack_has_its_routines(self):
        # a scipy that renames or moves _flapack fails here
        proc = run_python(["-c", """
import sys
from logkdv.errors import _lapack
lapack = _lapack()
import scipy.linalg.lapack
assert sys.modules["scipy.linalg._flapack"] is lapack
for name in ("dgttrf", "dgttrs", "dstebz", "dpttrf", "dpttrs"):
    assert getattr(scipy.linalg.lapack, name) is getattr(lapack, name), name
"""])
        assert proc.returncode == 0, proc.stderr

    def test_lapack_after_scipy_returns_its_module(self):
        proc = run_python(["-c", """
import sys
import scipy.linalg
from logkdv.errors import _lapack
assert _lapack() is sys.modules["scipy.linalg._flapack"]
assert _lapack().dgttrf is scipy.linalg.lapack.dgttrf
"""])
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize("run_id", [r for r, (_, scipy) in SMALL_RUNS.items() if not scipy])
    def test_run_loads_no_scipy(self, run_id, small_run):
        # zeta and the root finder are ports with scipy's bits
        assert fresh_scipy_modules(small_run, run_id) == []

    @pytest.mark.parametrize("run_id", SMALL_RUNS)
    def test_no_run_loads_scipy_optimize(self, run_id, small_run):
        assert "scipy.optimize" not in fresh_scipy_modules(small_run, run_id)

    @pytest.mark.parametrize("run_id", SMALL_RUNS)
    def test_no_run_loads_scipy_sparse(self, run_id, small_run):
        # the half-line solves run on LAPACK's tridiagonal routines
        assert "scipy.sparse" not in fresh_scipy_modules(small_run, run_id)

    @pytest.mark.skipif(
        platform.libc_ver()[0] != "glibc" or not Path("/proc/self/status").is_file(),
        reason="reads VmRSS and frees through glibc",
    )
    def test_large_run_returns_its_memory_after_scipy_loaded(self, tmp_path):
        # without the trim in main, the freed 10^6-row arrays stayed resident:
        # +49 MB in this child, +12 MB without its scipy.optimize import
        proc = run_python(["-c", RSS_AFTER_LARGE_RUN, tmp_path])
        assert proc.returncode == 0, proc.stderr
        assert float(proc.stdout.split()[-1]) < 15.0

    @pytest.mark.parametrize("name", ["evolve", "dissipate"])
    def test_step_count_beyond_the_cap_exits_1_before_allocating(self, name, tmp_path):
        # 10^13 steps: the times alone would ask for 72.8 TiB, so the run is
        # rejected before any array of steps, with no cap on the child's memory
        proc = run_module("logkdv", [name, "--T", 1e4, "--dt", 1e-9, "--outdir", tmp_path])
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: T=10000.0 and dt=1e-09 ask for 10000000000000 steps")
        assert "\n" not in proc.stderr.strip()
        assert proc.stdout == ""
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("name, values, floats", [("evolve", 400, 4_200_000_402),
                                                      ("dissipate", 2001, 20_210_002_003)])
    def test_stored_states_beyond_the_cap_exit_1_before_allocating(self, name, values, floats,
                                                                   tmp_path):
        # 10^8 steps, under the step cap, keep 10^7 + 1 states at the default
        # --sample-every 10: 31.3 GiB and 151 GiB, rejected before any array of
        # steps, with no cap on the child's memory
        proc = run_module("logkdv", [name, "--T", 1e4, "--dt", 1e-4, "--outdir", tmp_path])
        assert proc.returncode == 1
        assert proc.stderr == (
            f"error: T=10000.0, dt=0.0001 and sample_every=10 keep 10000001 states of {values}"
            f" values and 100000001 times and probes: {floats} floats, above the cap of 268435456\n"
        )
        assert proc.stdout == ""
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "args, message",
        [(["spectrum", "--scan-step", 1e-9],
          "scan_step=1e-09 on (0.05, 20.0] and n_max=1000 take 19950000001 scan points of 500"
          " shooting products: 9975000000500 floats"),
         (["coercivity", "--n-max", 1_000_000, "--n-samples", 1_000_000],
          "1000000 samples of n_max + 1 = 1000001 coefficients are 1000001000000 floats")],
        ids=["spectrum", "coercivity"],
    )
    def test_arrays_beyond_the_cap_exit_1_before_allocating(self, args, message, tmp_path):
        # the scan's z alone would ask for 149 GiB, the samples for 7.28 TiB;
        # both are rejected before anything is allocated, with no cap on the
        # child's memory
        proc = run_module("logkdv", [*args, "--outdir", tmp_path])
        assert proc.returncode == 1
        assert proc.stderr == f"error: {message}, above the cap of 268435456\n"
        assert proc.stdout == ""
        assert not list(tmp_path.iterdir())

    def test_grid_beyond_memory_exits_1_with_one_line(self, tmp_path):
        # 10^15 nodes at the largest extent ask for 7.11 PiB; the child's
        # address space is capped so that the allocation fails at once on any host
        def cap_memory():
            resource.setrlimit(resource.RLIMIT_AS, (8 << 30, 8 << 30))

        proc = run_module(
            "logkdv",
            ["dissipate", "--extent", 100, "--spacing", 1e-13, "--outdir", tmp_path],
            preexec_fn=cap_memory,
        )
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: not enough memory:")
        assert "\n" not in proc.stderr.strip()
        assert not list(tmp_path.iterdir())
