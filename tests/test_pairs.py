"""``bench/pairs.py``: summaries of synthetic perfbench records, pair order, child environment."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

PAIRS_PY = Path(__file__).resolve().parent.parent / "bench" / "pairs.py"
_spec = importlib.util.spec_from_file_location("pairs", PAIRS_PY)
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)

BETTER = {"wall_s": "lower", "max_rss_mb": "lower", "jacobi.shoot.s": "lower"}


def untraced(scale, solves):
    """A ``--trace 0`` run as ``pairs._run`` returns it: wall_s is the scaled solve sum."""
    metrics = {"wall_s": {"value": scale * sum(solves.values()), "unit": "s"},
               "max_rss_mb": {"value": 100.0, "unit": "MB"}}
    return {"result": {"metrics": metrics, "failed": 0, "attempted": 8},
            "record": {"trace": 0, "host_speed_scale": scale, "solve_median_s": solves}}


def traced(shoot_s):
    """A ``--trace 1`` run: per-layer metrics, no host-speed scale."""
    return {"result": {"metrics": {"jacobi.shoot.s": {"value": shoot_s, "unit": "s"}},
                       "failed": 0, "attempted": 4},
            "record": {"trace": 1, "solve_median_s": {"find_eigenvalues": 0.3}}}


def test_solves_are_scaled_medians_that_add_up_to_wall_s():
    # binary fractions, so that sums and scaled values are exact and ties are ties
    scales = [0.75, 1.25, 1.0]
    runs = [(untraced(s, {"find_eigenvalues": 0.25, "evolve": 0.5}),
             untraced(s, {"find_eigenvalues": 0.125, "evolve": 0.375 + 0.125 * k}))
            for k, s in enumerate(scales)]
    entry = pairs._workload_entry(runs, BETTER)
    solves = entry["solves"]
    assert solves["find_eigenvalues"]["base"]["runs"] == [0.25 * s for s in scales]
    assert solves["find_eigenvalues"]["head"]["median"] == 0.125
    assert solves["find_eigenvalues"]["head_better_pairs"] == 3
    assert solves["evolve"]["head_better_pairs"] == 1  # faster, equal, slower
    for side in ("base", "head"):
        walls = entry["metrics"]["wall_s"][side]["runs"]
        sums = [sum(solve[side]["runs"][k] for solve in solves.values()) for k in range(3)]
        assert sums == walls
    assert entry["metrics"]["wall_s"]["head_better_pairs"] == 2
    assert entry["metrics"]["max_rss_mb"]["head_better_pairs"] == 0  # ties count for neither
    assert (entry["failed_head"], entry["attempted_head"]) == (0, 24)


def test_only_solves_named_the_same_in_every_run_are_kept():
    # cli_repro's coercivity solve carries the seed of its pair
    runs = [(untraced(1.0, {"spectrum": 0.1, f"coercivity --seed {seed}": 0.05}),
             untraced(1.0, {"spectrum": 0.1, f"coercivity --seed {seed}": 0.05}))
            for seed in (1, 2, 3)]
    assert list(pairs._workload_entry(runs, BETTER)["solves"]) == ["spectrum"]


def test_traced_pairs_summarise_the_per_layer_metrics():
    runs = [(traced(0.02), traced(0.01)), (traced(0.02), traced(0.03)),
            (traced(0.02), traced(0.01))]
    entry = pairs._workload_entry(runs, BETTER)
    assert "solves" not in entry  # a traced run's solve times are not scaled
    shoot = entry["metrics"]["jacobi.shoot.s"]
    assert shoot["base"]["runs"] == [0.02] * 3
    assert shoot["head"]["median"] == 0.01
    assert shoot["head_better_pairs"] == 2
    assert entry["pairs"] == 3 and entry["seeds"] == [1, 2, 3]


def test_fingerprints_differ_names_each_changed_file_once():
    def fingerprinted(seed, scan_digest, extra=None):
        run = untraced(1.0, {"spectrum": 0.1})
        run["record"]["fingerprints"] = {
            "spectrum": {"wronskian_scan.csv": scan_digest, "spectrum_summary.json": "s"},
            f"coercivity --seed {seed}": {"coercivity_summary.json": "c", **(extra or {})},
        }
        return run

    same = [(fingerprinted(seed, "a"), fingerprinted(seed, "a")) for seed in (1, 2)]
    assert pairs._workload_entry(same, BETTER)["fingerprints_differ"] == []
    # a changed digest in two pairs, and a file only the head wrote
    runs = [(fingerprinted(1, "a"), fingerprinted(1, "b")),
            (fingerprinted(2, "a"), fingerprinted(2, "b", {"extra.csv": "e"})),
            (fingerprinted(3, "a"), fingerprinted(3, "a"))]
    assert pairs._workload_entry(runs, BETTER)["fingerprints_differ"] == [
        "coercivity --seed 2/extra.csv", "spectrum/wronskian_scan.csv"]


def test_imports_no_numpy():
    code = "import sys; import pairs; sys.exit('numpy' in sys.modules)"
    subprocess.run([sys.executable, "-c", code], cwd=PAIRS_PY.parent, check=True)


def test_cli_startup_summarises_seconds_and_names_changed_outputs():
    def run(seconds, summary_digest="s"):
        return seconds, {"projections.csv": "p", "projections_summary.json": summary_digest}

    runs = {
        "projections": [(run(0.75), run(0.25)), (run(0.5), run(0.25)), (run(0.25), run(0.5))],
        "coercivity": [(run(0.5), run(0.5, "t")), (run(0.5), run(0.5)), (run(0.5), run(0.5))],
    }
    entry = pairs._startup_entry(runs)
    projections = entry["subcommands"]["projections"]
    assert projections["base"]["runs"] == [0.75, 0.5, 0.25]
    assert projections["head"]["median"] == 0.25
    assert projections["head_better_pairs"] == 2
    assert entry["subcommands"]["coercivity"]["head_better_pairs"] == 0  # ties count for neither
    assert entry["pairs"] == 3
    assert entry["fingerprints_differ"] == ["coercivity/projections_summary.json"]
    same = {"projections": [(run(0.5), run(0.25))]}
    assert pairs._startup_entry(same)["fingerprints_differ"] == []


def test_alternate_puts_the_base_first_in_odd_pairs(capsys):
    calls = []

    def run(tree, pair):
        calls.append((tree, pair))
        return 10.0 * pair + (tree == "head")

    runs = pairs._alternate("base", "head", 4, run, "label", float)
    assert calls == [("base", 1), ("head", 1), ("head", 2), ("base", 2),
                     ("base", 3), ("head", 3), ("head", 4), ("base", 4)]
    assert runs == [(10.0, 11.0), (20.0, 21.0), (30.0, 31.0), (40.0, 41.0)]
    assert capsys.readouterr().out.splitlines()[1] == "label pair 2: base 20.0000 head 21.0000"


def test_spawn_runs_every_child_in_one_pinned_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("LOGKDV_OUTDIR", str(tmp_path))
    monkeypatch.setenv("PYTHONPATH", "elsewhere")
    for var in pairs.THREAD_VARS:
        monkeypatch.setenv(var, "4")
    code = "import json, os; print(json.dumps([os.getcwd(), dict(os.environ)]))"
    seconds, stdout = pairs._spawn(tmp_path, [sys.executable, "-c", code])
    cwd, env = json.loads(stdout)
    assert seconds > 0.0 and Path(cwd) == tmp_path.resolve()
    assert env["PYTHONDONTWRITEBYTECODE"] == "1"
    assert [env[var] for var in pairs.THREAD_VARS] == ["1"] * len(pairs.THREAD_VARS)
    assert env["PYTHONPATH"].split(os.pathsep) == [str(tmp_path / "src"), "elsewhere"]
    assert "LOGKDV_OUTDIR" not in env


def test_spawn_raises_on_a_nonzero_exit(tmp_path):
    code = "import sys; print('said', file=sys.stderr); sys.exit(3)"
    with pytest.raises(RuntimeError, match=r"exited 3:\nsaid"):
        pairs._spawn(tmp_path, [sys.executable, "-c", code])
