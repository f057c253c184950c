"""Before/after benchmark pairs: perfbench on a base commit and on HEAD.

Usage, from the root of a checkout:

    python3 bench/pairs.py --pr 16 --base HEAD~1

Both trees are committed files, of ``--base`` and of ``HEAD``, each
extracted with ``git archive`` into a fresh temporary directory.  A working
tree would not do: besides uncommitted edits it can hold bytecode caches,
and with ``src/logkdv/__pycache__`` present one and the same commit read
``max_rss_mb`` 168 MB on ``cli_repro`` (seed 2, a 2-core Xeon host) where a
fresh copy read 142 MB.

Every child (perfbench, a ``logkdv`` command, pytest) runs in one
environment, built by ``_spawn``: in its tree, with the tree's ``src``
first on ``PYTHONPATH``, ``PYTHONDONTWRITEBYTECODE=1``, each BLAS/OpenMP
thread variable of ``THREAD_VARS`` set to 1 as perfbench pins its workers,
and no ``LOGKDV_OUTDIR``.  Every comparison runs in pairs, through
``_alternate``: a pair runs once on each tree, the base first in odd pairs
and the head first in even ones.  The runs are sequential, so they never
compete for the host.

Per workload, ``<tree>/perfbench/run.py --trace 0`` runs ten pairs and
``--trace 1`` three, each run for the ``run_seconds`` of ``BENCHMARK.json``
with the pair's number as its seed.

Writes ``BENCH_<pr>.json`` at the root of the checkout: per workload, the
runs, median and quartiles of each side and the number of pairs in which
the head is better, for every end-to-end metric (``metrics``) and solve
(``solves``) of the untraced pairs and every ``per_layer`` metric of the
traced ones.  A solve's time is its median scaled to the reference host
speed, so a run's solves add up to its ``wall_s``; solves not named the
same in every run (``cli_repro``'s ``coercivity --seed N``) are left out.
Also the failed and attempted solves; for ``cli_repro``, the sorted
``<run>/<file>`` names whose sha256 differ between the trees in any pair
(``fingerprints_differ``, empty when both wrote the same bytes); and the
Python, numpy and scipy versions the runs reported.  Imports no numpy.

``cli_startup`` times what perfbench cannot see, since its workers import
``logkdv`` once: each subcommand at its defaults as a user starts it,
``python -m logkdv <sub> --outdir <fresh directory>`` in a fresh
interpreter, from spawn to exit, import included.  Ten pairs per
subcommand.  It holds the same summaries of the seconds per subcommand,
and ``fingerprints_differ`` names the ``<sub>/<file>`` outputs whose
sha256 differ in any pair.

``tier1`` times the test suite of each tree on its own source, from spawn
to exit: the whole tier-1 suite (``TIER1_PAIRS`` pairs) and criterion 4, the
lattice norm-conservation acceptance test that takes much of it, alone
(``PAIRS`` pairs), writing no pytest cache.  These run after perfbench,
so they cannot touch the trees it runs.

Per-layer seconds (``*.s``, ``*.self_s``, ``trace.wall_s``) are not scaled
to the host speed, so they carry the 20-30% host drift between runs; counts
(steps, calls, point-modes, bytes) are exact.  ``trace.overhead_s``, the
mean traced pass minus the mean untraced one in unscaled seconds, reads
host drift, not tracing cost.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("cli_repro", "spectral", "dynamics")
SUBCOMMANDS = ("projections", "spectrum", "coercivity", "evolve", "dissipate", "reconstruct")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
PAIRS = 10  # the fewest pairs that can back a claimed gain
TRACED_PAIRS = 3  # per-layer numbers back no claim, they explain the end-to-end ones
TIER1_PAIRS = 3  # the whole suite takes most of a minute per run
PYTEST = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
          "--continue-on-collection-errors"]
CRITERION_4 = "tests/test_acceptance.py::test_criterion_4_norm_conservation"


def _git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def _extract(rev: str, dest: Path) -> None:
    """Write the committed files of ``rev`` into ``dest``."""
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def _spawn(tree: Path, cmd: list) -> tuple:
    """Seconds from spawn to exit of ``cmd`` run in ``tree``, and its stdout.

    The one child environment is built here.  A nonzero exit raises
    ``RuntimeError`` with the exit code and the tail of stderr plus stdout.
    """
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", **{var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        [str(tree / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.pop("LOGKDV_OUTDIR", None)
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    seconds = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited {proc.returncode}:\n"
                           f"{(proc.stderr + proc.stdout)[-2000:]}")
    return seconds, proc.stdout


def _alternate(base: Path, head: Path, pairs: int, run, label: str, shown) -> list:
    """``(base, head)`` results of ``run(tree, pair)`` for pairs 1 to ``pairs``.

    The base runs first in odd pairs, the head in even ones; each pair prints
    ``shown`` of both results under ``label``.
    """
    runs = []
    for pair in range(1, pairs + 1):
        done = {tree: run(tree, pair) for tree in ([base, head] if pair % 2 else [head, base])}
        runs.append((done[base], done[head]))
        print(f"{label} pair {pair}: base {shown(done[base]):.4f} "
              f"head {shown(done[head]):.4f}", flush=True)
    return runs


def _run(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One perfbench run: its result line plus the record it wrote."""
    _, stdout = _spawn(tree, [sys.executable, "perfbench/run.py", "--workload", workload,
                              "--seed", str(seed), "--seconds", str(seconds),
                              "--trace", str(trace)])
    result = json.loads(stdout.strip().splitlines()[-1])
    record = json.loads((tree / "perfbench" / "out" /
                         f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return {"result": result, "record": record}


def _summary(values: list) -> dict:
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def _compare(base: list, head: list, better: str) -> dict:
    sign = 1.0 if better == "lower" else -1.0
    return {
        "base": _summary(base),
        "head": _summary(head),
        "head_better_pairs": sum(sign * (h - b) < 0.0 for b, h in zip(base, head)),
    }


def _solve_times(run: dict) -> dict:
    """Each solve's median time, scaled to the reference host speed as ``wall_s`` is."""
    record = run["record"]
    return {name: s * record["host_speed_scale"] for name, s in record["solve_median_s"].items()}


def _workload_entry(runs: list, better: dict) -> dict:
    """Summaries of ``runs``, a list of (base, head) run pairs of one workload."""
    metrics = {}
    for name, entry in runs[0][0]["result"]["metrics"].items():
        base = [b["result"]["metrics"][name]["value"] for b, _ in runs]
        head = [h["result"]["metrics"][name]["value"] for _, h in runs]
        metrics[name] = {"unit": entry["unit"], "better": better[name],
                         **_compare(base, head, better[name])}
    out = {"pairs": len(runs), "seeds": list(range(1, len(runs) + 1)), "metrics": metrics}
    if not runs[0][0]["record"]["trace"]:  # only untraced runs scale to the host speed
        times = [(_solve_times(b), _solve_times(h)) for b, h in runs]
        names = [n for n in times[0][0] if all(n in b and n in h for b, h in times)]
        out["solves"] = {n: _compare([b[n] for b, _ in times], [h[n] for _, h in times], "lower")
                         for n in names}
    for side, index in (("base", 0), ("head", 1)):
        out[f"failed_{side}"] = sum(pair[index]["result"]["failed"] for pair in runs)
        out[f"attempted_{side}"] = sum(pair[index]["result"]["attempted"] for pair in runs)
    if runs[0][0]["record"].get("fingerprints"):  # same seed, same output bytes
        out["fingerprints_differ"] = _fingerprints_differ(runs)
    return out


def _differing(base: dict, head: dict) -> set:
    """``<run>/<file>`` names whose sha256 differ between two ``{run: {file: sha256}}``."""
    names = set()
    for run in base.keys() | head.keys():
        files_b, files_h = base.get(run, {}), head.get(run, {})
        names.update(f"{run}/{name}" for name in files_b.keys() | files_h.keys()
                     if files_b.get(name) != files_h.get(name))
    return names


def _fingerprints_differ(runs: list) -> list:
    """Sorted ``<run>/<file>`` names whose sha256 differ between base and head in any pair."""
    return sorted(set().union(*(_differing(b["record"]["fingerprints"],
                                           h["record"]["fingerprints"]) for b, h in runs)))


def _cli_run(tree: Path, sub: str, outdir: Path) -> tuple:
    """Seconds of one fresh ``python -m logkdv <sub>`` at its defaults, and its files' sha256."""
    seconds, _ = _spawn(tree, [sys.executable, "-m", "logkdv", sub, "--outdir", str(outdir)])
    return seconds, {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                     for p in sorted(outdir.iterdir())}


def _startup_entry(runs: dict) -> dict:
    """Summaries of ``runs``: per subcommand, (base, head) pairs of ``_cli_run`` results."""
    subcommands = {sub: {"unit": "s", "better": "lower",
                         **_compare([b[0] for b, _ in pairs], [h[0] for _, h in pairs], "lower")}
                   for sub, pairs in runs.items()}
    differ = set().union(*(_differing({sub: b[1]}, {sub: h[1]})
                           for sub, pairs in runs.items() for b, h in pairs))
    return {"pairs": len(next(iter(runs.values()))),
            "command": "python -m logkdv <sub> --outdir <fresh directory>",
            "subcommands": subcommands, "fingerprints_differ": sorted(differ)}


def _cli_startup(base: Path, head: Path, tmp: Path) -> dict:
    """``PAIRS`` alternating pairs of ``_cli_run`` per subcommand, summarised."""
    return _startup_entry({
        sub: _alternate(base, head, PAIRS,
                        lambda tree, _: _cli_run(tree, sub, Path(tempfile.mkdtemp(dir=tmp))),
                        f"cli_startup {sub}", lambda done: done[0])
        for sub in SUBCOMMANDS})


def _tier1(base: Path, head: Path) -> dict:
    """Alternating pairs of the whole suite and of criterion 4 alone, summarised."""
    suites = {}
    for name, args, pairs in (("tier1", [], TIER1_PAIRS), ("criterion_4", [CRITERION_4], PAIRS)):
        runs = _alternate(base, head, pairs, lambda tree, _: _spawn(tree, PYTEST + args)[0],
                          name, float)
        suites[name] = {"unit": "s", "better": "lower", "pairs": pairs,
                        **_compare([b for b, _ in runs], [h for _, h in runs], "lower")}
    return {"command": f"python {' '.join(PYTEST[1:])} [{CRITERION_4}]", "suites": suites}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--pr", required=True, help="label of the output file BENCH_<pr>.json")
    p.add_argument("--base", default="HEAD", help="git revision of the base tree")
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    seconds = spec["run_seconds"]

    out = {
        "pr": args.pr,
        "base": {"rev": args.base, "commit": _git("rev-parse", args.base)},
        "head": {"rev": "HEAD", "commit": _git("rev-parse", "HEAD")},
        "seconds": seconds,
        "order": "the base runs first in odd pairs, the head in even ones",
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        base, head = Path(tmp) / "base", Path(tmp) / "head"
        for side, rev in ((base, out["base"]["commit"]), (head, out["head"]["commit"])):
            side.mkdir()
            _extract(rev, side)
        out["cli_startup"] = _cli_startup(base, head, Path(tmp))
        for workload in WORKLOADS:
            entries = []
            for trace, pairs, shown in ((0, PAIRS, "wall_s"), (1, TRACED_PAIRS, "trace.wall_s")):
                runs = _alternate(base, head, pairs,
                                  lambda tree, seed: _run(tree, workload, seed, seconds, trace),
                                  f"{workload} trace {trace} {shown}",
                                  lambda run: run["result"]["metrics"][shown]["value"])
                entries.append(_workload_entry(runs, better))
            out["workloads"][workload] = {**entries[0], "per_layer": entries[1]}
            env = runs[0][1]["record"]["environment"]
            out["environment"] = {k: env[k] for k in ("python", "numpy", "scipy", "nproc",
                                                      "cpu_model")}
        out["tier1"] = _tier1(base, head)
    path = ROOT / f"BENCH_{args.pr}.json"
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
