"""Benchmark of the logkdv package: one workload per invocation.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {cli_repro,spectral,dynamics} \
        --seed N --seconds S --trace {0,1}

The runner itself imports no numpy.  It starts one fresh workload
process (``worker.py``) with the BLAS/OpenMP thread pools pinned to one
thread, and ``SETUP_PROBES`` fresh interpreters, half before and half
after it, that only import ``logkdv`` and build the inputs (``setup_s``
is their median time from spawn to ready).  It prints a table of the metrics with their
units, and as its last line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones of
``BENCHMARK.json``, with ``--trace 1`` the per-layer ones.  The full
record (environment, inputs, per-solve medians, failures, output
fingerprints) goes to ``perfbench/out/<workload>-seed<N>-trace<T>.json``.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 6
DEADLINE_S = 170.0  # a run must end within 180 s
PINNED = {var: "1" for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}


class BenchError(RuntimeError):
    pass


def _child_env(tmp: Path) -> dict:
    env = dict(os.environ, **PINNED)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["TMPDIR"] = str(tmp)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env.pop("LOGKDV_OUTDIR", None)
    return env


def _spawn(args: list[str], env: dict, deadline: float) -> str:
    cmd = [sys.executable, str(HERE / "worker.py"), "--spawned-at", repr(time.monotonic())]
    proc = subprocess.Popen(cmd + args, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("workload process ran past the deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"workload process exited {proc.returncode}:\n{err[-4000:]}")
    return out


def _environment() -> dict:
    import importlib.metadata as md

    def version(pkg):
        try:
            return md.version(pkg)
        except md.PackageNotFoundError:
            return "missing"

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    source = hashlib.sha256()
    for path in sorted((ROOT / "src" / "logkdv").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            source.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "threads": PINNED,
    }


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def run(args) -> dict:
    if not (ROOT / "src" / "logkdv" / "__init__.py").is_file():
        raise BenchError(f"no logkdv sources under {ROOT / 'src'}; run from a full checkout")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    deadline = time.monotonic() + DEADLINE_S
    out_dir = HERE / "out"
    tmp = out_dir / f"tmp-{args.workload}-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    env = _child_env(tmp)
    common = ["--workload", args.workload, "--seed", str(args.seed), "--tmp", str(tmp)]
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result_path = out_dir / f"{stem}.json"
    result_path.unlink(missing_ok=True)

    def probe():
        return json.loads(_spawn(common + ["--setup-only"], env, deadline))

    try:
        # probes before and after the workload, so one slow spell of the host
        # does not set the median
        probes = [probe() for _ in range(SETUP_PROBES // 2)]
        _spawn(common + ["--seconds", str(args.seconds), "--trace", str(args.trace),
                         "--result", str(result_path)], env, deadline)
        probes += [probe() for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    record = json.loads(result_path.read_text())

    if args.trace:
        values = dict(record["per_layer"])
        values["import.logkdv_s"] = statistics.median(p["import_s"] for p in probes)
    else:
        values = dict(record["end_to_end"])
        values["setup_s"] = statistics.median(p["setup_s"] for p in probes)
        values["max_rss_mb"] = record["max_rss_mb"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")

    record["environment"] = _environment()
    record["setup_probes"] = probes
    record["error_rate"] = record["failed"] / record["attempted"]
    record["metrics"] = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                         for m in wanted}
    result_path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return record


def _report(args, record) -> None:
    env = record["environment"]
    print(f"logkdv benchmark: workload={args.workload} seed={args.seed} trace={args.trace} "
          f"passes={record['passes']} of {record['solves_per_pass']} solves")
    print("environment: " + " ".join(f"{k}={v}" for k, v in env.items() if k != "threads")
          + " threads=" + ",".join(f"{k}={v}" for k, v in env["threads"].items()))
    for name, m in record["metrics"].items():
        print(f"  {name:48s} {_fmt(m['value']):>14s} {m['unit']}")
    if not args.trace:
        print(f"  {'error_rate':48s} {_fmt(record['error_rate']):>14s} 1"
              f"  ({record['failed']}/{record['attempted']} solves; round_p50_s over "
              f"{record['passes']} passes, setup_s over {SETUP_PROBES} probes)")
        raw = " ".join(f"{k}={_fmt(v)}" for k, v in record["raw_seconds"].items())
        print(f"  unscaled seconds: {raw} (scale to reference host speed "
              f"{_fmt(record['host_speed_scale'])})")
    for f in record["failures"]:
        print(f"  FAILED {f['solve']}: {'; '.join(f['why'])}")
    for run_name, files in record["fingerprints"].items():
        for fname, digest in files.items():
            print(f"  sha256 {digest[:16]} {run_name}: {fname}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True, choices=("cli_repro", "spectral", "dynamics"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    try:
        record = run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _report(args, record)
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
