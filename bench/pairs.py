"""Before/after benchmark pairs: perfbench on a base commit and on HEAD.

Usage, from the root of a checkout:

    python3 bench/pairs.py --pr 15 --base HEAD~1

Both trees are committed files, of ``--base`` and of ``HEAD``, each
extracted with ``git archive`` into a fresh temporary directory.  A working
tree would not do: besides uncommitted edits it can hold bytecode caches,
and with ``src/logkdv/__pycache__`` present one and the same commit read
``max_rss_mb`` 168 MB on ``cli_repro`` (seed 2, a 2-core Xeon host) where a
fresh copy read 142 MB.
For each of the ten pairs of every workload,
``<tree>/perfbench/run.py --trace 0`` runs once on each tree for the
``run_seconds`` of ``BENCHMARK.json`` with the same seed, one tree after the
other, and the tree that goes first alternates from pair to pair.  The runs
are sequential, so they never compete for the host.

Writes ``BENCH_<pr>.json`` at the root of the checkout: per workload and
end-to-end metric, the runs, median and quartiles of each side and the
number of pairs in which the head is better; the failed and attempted
solves; for ``cli_repro``, whether both trees wrote the same output bytes;
and the Python, numpy and scipy versions the runs reported.  Imports no numpy.
"""

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("cli_repro", "spectral", "dynamics")
PAIRS = 10  # the fewest pairs that can back a claimed gain


def _git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def _extract(rev: str, dest: Path) -> None:
    """Write the committed files of ``rev`` into ``dest``."""
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def _run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run: its result line plus the record it wrote."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((tree / "perfbench" / "out" / f"{workload}-seed{seed}-trace0.json")
                        .read_text())
    return {"result": result, "record": record}


def _summary(values: list) -> dict:
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def _workload_entry(runs: list, better: dict) -> dict:
    """Per-metric summaries of ``runs``, a list of (base, head) run pairs."""
    metrics = {}
    for name, entry in runs[0][0]["result"]["metrics"].items():
        base = [b["result"]["metrics"][name]["value"] for b, _ in runs]
        head = [h["result"]["metrics"][name]["value"] for _, h in runs]
        sign = 1.0 if better[name] == "lower" else -1.0
        metrics[name] = {
            "unit": entry["unit"],
            "better": better[name],
            "base": _summary(base),
            "head": _summary(head),
            "head_better_pairs": sum(sign * (h - b) < 0.0 for b, h in zip(base, head)),
        }
    out = {
        "pairs": len(runs),
        "seeds": list(range(1, len(runs) + 1)),
        "metrics": metrics,
    }
    for side, index in (("base", 0), ("head", 1)):
        out[f"failed_{side}"] = sum(pair[index]["result"]["failed"] for pair in runs)
        out[f"attempted_{side}"] = sum(pair[index]["result"]["attempted"] for pair in runs)
    if runs[0][0]["record"].get("fingerprints"):  # same seed, same output bytes
        out["fingerprints_identical"] = all(
            b["record"]["fingerprints"] == h["record"]["fingerprints"] for b, h in runs)
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--pr", required=True, help="label of the output file BENCH_<pr>.json")
    p.add_argument("--base", default="HEAD", help="git revision of the base tree")
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
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
        for workload in WORKLOADS:
            runs = []
            for seed in range(1, PAIRS + 1):
                order = [base, head] if seed % 2 else [head, base]
                done = {tree: _run(tree, workload, seed, seconds) for tree in order}
                runs.append((done[base], done[head]))
                wall = [done[t]["result"]["metrics"]["wall_s"]["value"] for t in (base, head)]
                print(f"{workload} seed {seed}: wall_s base {wall[0]:.4f} head {wall[1]:.4f}",
                      flush=True)
            out["workloads"][workload] = _workload_entry(runs, better)
            env = runs[0][1]["record"]["environment"]
            out["environment"] = {k: env[k] for k in ("python", "numpy", "scipy", "nproc",
                                                      "cpu_model")}
    path = ROOT / f"BENCH_{args.pr}.json"
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
