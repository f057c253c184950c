"""One workload process of the logkdv benchmark; started by ``run.py``.

The process pins the BLAS/OpenMP pools to one thread before numpy is
imported, imports ``logkdv``, builds the workload's inputs from the seed
and reports when it is ready.  With ``--setup-only`` it stops there.
Otherwise it runs the workload in passes (rounds), closed loop with one
client, and writes a JSON result to ``--result``:

* untraced (``--trace 0``): at least ``RSS_PASSES`` passes over the solve
  list, then more until the next one would end past ``--seconds``;
  ``wall_s`` and ``cpu_s`` sum the median wall and CPU time of each
  solve, ``round_p50_s`` is the median pass, all three scaled to the
  reference host speed (see ``REFERENCE_KERNEL_S``);
* traced (``--trace 1``): one warm-up pass, passes for half of
  ``--seconds`` untraced, then passes for the other half with every
  public ``logkdv`` function wrapped (see ``tracer.py``).  Per-layer
  metrics are per pass; the spans are written next to the result.
"""

import os
import sys
import time

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
from pathlib import Path  # noqa: E402

_t = time.perf_counter()
import logkdv  # noqa: E402

IMPORT_S = time.perf_counter() - _t

import numpy as np  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


# max_rss_mb is the peak over this many passes, a fixed amount of work, so that
# the high-water mark settles whatever order the seed gives cli_repro.  Without
# the collection before each pass the peak would also rise with the pass count:
# each coercivity_constant call leaves its arrays in a reference cycle (scipy's
# brentq wraps the objective in a closure that refers to itself).
RSS_PASSES = 4

# Host-speed reference.  On a shared host the speed of a core drifts by 20-30%
# over minutes, and the solves slow in step with this kernel (a mix of lattice,
# half-line and projection calls tracked it with correlation 0.95 over 30 s
# windows).  So wall_s, round_p50_s and cpu_s are scaled by
# REFERENCE_KERNEL_S / (median kernel time of the run): seconds at the host
# speed at which the kernel takes 25 ms.  The raw seconds and the kernel times
# are kept in the result file.  The kernel does not touch logkdv, so a change
# to the program cannot move it.
REFERENCE_KERNEL_S = 0.025
KERNEL_RUNS_PER_PASS = 3


def reference_kernel() -> float:
    """Seconds for a fixed mix of interpreter, array and small-array work."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(150_000):
        acc += i * i
    a = np.arange(1e5)  # small enough not to raise the peak RSS of the pass
    for _ in range(50):
        a = np.sqrt(a + 1.0)
    x = np.ones(400)
    for _ in range(3000):
        x = x * 0.5 + 1.0
    return time.perf_counter() - t0


def _parse(argv):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spawned-at", type=float, required=True,
                   help="time.monotonic() in the parent just before this process started")
    p.add_argument("--tmp", required=True, help="scratch directory for CLI output")
    p.add_argument("--result", help="where to write the JSON result")
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


def run_pass(solves, failures):
    """One pass over the solve list; returns {solve name: (wall_s, cpu_s)}."""
    times = {}
    for solve in solves:
        solve.prepare()
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            result = solve.run()
            error = None
        except Exception as exc:  # a failed solve is counted, the run goes on
            error = f"{type(exc).__name__}: {exc}"
        t1, c1 = time.perf_counter(), time.process_time()
        if error is None:
            try:
                fails = solve.check(result)
            except Exception as exc:  # a result the gates cannot read is a failure
                fails = [f"gate raised {type(exc).__name__}: {exc}"]
        else:
            fails = [error]
        solve.cleanup()
        times[solve.name] = (t1 - t0, c1 - c0)
        if fails:
            failures.append({"solve": solve.name, "why": fails})
    return times


def _pass_walls(passes):
    return [sum(wall for wall, _ in times.values()) for times in passes]


def _solve_medians(passes, which):
    """Median over passes of each solve's wall (``which=0``) or CPU (1) time."""
    return {name: statistics.median(times[name][which] for times in passes)
            for name in passes[0]}


def _cli_files(solves):
    return {s.name: s.files for s in solves if isinstance(s, workloads.CliSolve)}


def _layer_metrics(tr, passes, wall_s, untraced_s, files_per_pass):
    """Per-layer metrics per pass over the solve list (see predictions.json)."""
    self_s = {k: v / passes for k, v in tr.self_times().items()}
    total_s = {k: v / passes for k, v in tr.inclusive_times().items()}
    m = {}

    def count(key):
        return tr.counts[key] / passes

    def calls(name):
        return tr.calls[name] / passes

    def rate(seconds, n):
        return seconds * 1e9 / n if n else 0.0

    def put(name, count_key=None, rate_key=None, with_calls=False):
        m[f"{name}.s"] = self_s.get(name, 0.0)
        if count_key:
            n = m[f"{name}.{count_key}"] = count(f"{name}.{count_key}")
            m[f"{name}.{rate_key}"] = rate(total_s.get(name, 0.0), n)
        if with_calls:
            m[f"{name}.calls"] = calls(name)

    put("hermite.basis_rows", "point_modes", "ns_per_point_mode")
    put("hermite.projection_sequence", "entries", "ns_per_entry")
    put("hermite.product_sequence")
    put("coercivity.coercivity_constant", with_calls=True)
    put("coercivity.c0_tail_estimate")
    put("coercivity.coercivity_constant_dense")
    forms = ("coercivity.energy_form", "coercivity.compat_norm_form")
    m["coercivity.forms.s"] = sum(self_s.get(f, 0.0) for f in forms)
    m["coercivity.forms.calls"] = sum(calls(f) for f in forms)
    put("jacobi.find_eigenvalues", with_calls=True)
    m["jacobi.scan_points"] = count("jacobi.find_eigenvalues.scan_points")
    m["jacobi.truncation_doublings"] = count("jacobi.find_eigenvalues.truncation_doublings")
    put("jacobi.wronskian_trace")
    put("jacobi.shoot")
    m["jacobi.shoot.steps"] = count("jacobi.shoot.steps")
    put("lattice.evolve_midpoint", "mode_steps", "ns_per_mode_step")
    put("lattice.evolve_rk4", "mode_steps", "ns_per_mode_step")
    put("lattice.skew_rhs")
    m["lattice.samples_bytes"] = (count("lattice.evolve_midpoint.samples_bytes")
                                  + count("lattice.evolve_rk4.samples_bytes"))
    put("lattice.c1_track")
    put("lattice.initial_gaussian_bump")
    put("halfline.evolve_dissipative", "node_steps", "ns_per_node_step")
    put("halfline.assemble_H")
    put("halfline.modulation_integrate")
    put("reconstruct.eigenvector_assemble")
    put("reconstruct.eigenpair_residual")
    put("reconstruct.convolution_synthesize")
    m["reconstruct.convolution_synthesize.kernel_evals"] = count(
        "reconstruct.convolution_synthesize.kernel_evals")

    # cli.main.s is main's whole duration; its self time (config, post-processing
    # and writing) is cli.self_s, the cli layer's share of the traced wall time
    m["cli.main.s"] = total_s.get("cli.main", 0.0)
    m["cli.main.calls"] = calls("cli.main")
    files = [f for per_pass in files_per_pass for per_run in per_pass.values()
             for f in per_run.values()]
    m["cli.bytes_written"] = sum(f["bytes"] for f in files) / passes
    m["cli.values_written"] = sum(f["values"] for f in files) / passes

    for layer in tracer.MODULES:
        m[f"{layer}.self_s"] = sum(v for k, v in self_s.items() if k.startswith(layer + "."))
    m["cli.ns_per_value_written"] = rate(m["cli.self_s"], m["cli.values_written"])
    m["trace.wall_s"] = wall_s
    m["trace.unattributed_s"] = wall_s - tr.top_level_s() / passes
    m["trace.overhead_s"] = wall_s - untraced_s
    m["trace.spans"] = len(tr.spans) / passes
    return m


def main(argv=None) -> int:
    args = _parse(argv)
    solves, inputs = workloads.WORKLOADS[args.workload](args.seed, Path(args.tmp))
    ready = time.monotonic()
    setup = {"setup_s": ready - args.spawned_at, "import_s": IMPORT_S}
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    failures = []
    attempted = 0
    passes, files_per_pass, rss_mb, kernel_s = [], [], [], []

    def run_passes(budget_s, min_passes):
        """Run passes until the next one would end past ``budget_s``; return their count."""
        nonlocal attempted
        start, n = time.perf_counter(), 0
        while True:
            # every pass starts with no cyclic garbage left by the one before, so
            # its peak RSS and its collector pauses do not depend on the pass count
            gc.collect()
            passes.append(run_pass(solves, failures))
            rss_mb.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
            attempted += len(solves)
            files_per_pass.append(_cli_files(solves))
            kernel_s.extend(reference_kernel() for _ in range(KERNEL_RUNS_PER_PASS))
            n += 1
            elapsed = time.perf_counter() - start
            if n >= min_passes and elapsed * (n + 1) / n > budget_s:
                return n

    out = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
           "inputs": inputs, "setup": setup, "solves_per_pass": len(solves)}
    if args.trace:
        run_passes(0.0, 1)  # warm-up, so untraced and traced passes are both warm
        n_untraced = run_passes(args.seconds / 2, 1)
        untraced_s = statistics.fmean(_pass_walls(passes[-n_untraced:]))
        tr = tracer.Tracer()
        tr.install(logkdv)
        try:
            n_traced = run_passes(args.seconds / 2, 1)
        finally:
            tr.restore()
        out["per_layer"] = _layer_metrics(
            tr, n_traced, statistics.fmean(_pass_walls(passes[-n_traced:])), untraced_s,
            files_per_pass[-n_traced:])
        spans_path = Path(args.result).with_suffix(".spans.json")
        tr.write(spans_path)
        out["spans_file"] = spans_path.name
    else:
        reference_kernel()  # warm-up
        run_passes(args.seconds, RSS_PASSES)
        raw = {
            "wall_s": sum(_solve_medians(passes, 0).values()),
            "cpu_s": sum(_solve_medians(passes, 1).values()),
            "round_p50_s": statistics.median(_pass_walls(passes)),
        }
        scale = REFERENCE_KERNEL_S / statistics.median(kernel_s)
        out["end_to_end"] = {name: value * scale for name, value in raw.items()}
        out["raw_seconds"] = raw
        out["kernel_s"] = kernel_s
        out["host_speed_scale"] = scale
    out["max_rss_mb"] = rss_mb[min(RSS_PASSES, len(rss_mb)) - 1]
    out["max_rss_mb_after_pass"] = rss_mb
    out["passes"] = len(passes)
    out["pass_walls_s"] = _pass_walls(passes)
    out["solve_median_s"] = _solve_medians(passes, 0)
    out["pass_times"] = passes
    out["attempted"] = attempted
    out["failed"] = len(failures)
    out["failures"] = failures[:20]
    digests = [{run: {name: facts["sha256"] for name, facts in files.items()}
                for run, files in per_pass.items()} for per_pass in files_per_pass]
    out["fingerprints"] = digests[0]
    out["fingerprints_stable"] = all(d == digests[0] for d in digests)
    with open(args.result, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
