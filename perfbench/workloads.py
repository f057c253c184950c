"""The three benchmark workloads: their inputs, their solves and their gates.

A workload is built from a seed (``WORKLOADS[name](seed, tmp_root)``)
and then run in passes (rounds); one pass calls each ``Solve`` of the
returned list in order.  Only ``Solve.run`` is timed.  ``Solve.check`` returns the gates
the result missed, so a solve fails on an exception, a nonzero CLI exit,
a false summary invariant or a missed gate.  The gate values are the
paper's numbers as pinned by the ROADMAP.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import random
import shutil
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

import logkdv
from logkdv import coercivity, halfline, hermite, jacobi, lattice, reconstruct

Z_REF = (2.7054, 6.1540)
Z_TOL = 1e-3
SLOPE_REF_A, SLOPE_REF_B, SLOPE_TOL = -0.75, -1.25, 0.01
C_REF, C_TOL = 0.13981, 1e-5
DENSE_TOL = 1e-10
RESIDUAL_MAX = 1e-2
MIDPOINT_DRIFT_MAX, RK4_DRIFT_MAX = 1e-8, 1e-6
DECAY_RATIO_MAX = 1.05


def _near(fails, label, value, ref, tol):
    if not abs(float(value) - ref) <= tol:  # also false for NaN
        fails.append(f"{label}={value!r} not within {tol:g} of {ref!r}")


def _below(fails, label, value, limit):
    if not float(value) < limit:
        fails.append(f"{label}={value!r} not below {limit:g}")


def _spectrum_gates(fails, z, slopes_a, slopes_b):
    if len(z) < 2:
        fails.append(f"found {len(z)} eigenvalues, need 2")
        return
    for k in range(2):
        _near(fails, f"z{k + 1}", z[k], Z_REF[k], Z_TOL)
        _near(fails, f"slope_a{k + 1}", slopes_a[k], SLOPE_REF_A, SLOPE_TOL)
        _near(fails, f"slope_b{k + 1}", slopes_b[k], SLOPE_REF_B, SLOPE_TOL)


def _norm_drift(traj) -> float:
    return float(np.abs(traj.norms / traj.norms[0] - 1.0).max())


class Solve:
    """One call into ``logkdv``; ``run`` is timed, the other hooks are not."""

    def prepare(self) -> None:
        pass

    def run(self):
        raise NotImplementedError

    def check(self, result) -> list[str]:
        raise NotImplementedError

    def cleanup(self) -> None:
        pass


class FnSolve(Solve):
    def __init__(self, name, run, check):
        self.name, self._run, self._check = name, run, check

    def run(self):
        return self._run()

    def check(self, result):
        fails = []
        self._check(fails, result)
        return fails


# ---------------------------------------------------------------- cli_repro


class CliSolve(Solve):
    """``logkdv.cli.main(argv)`` into a fresh output directory.

    ``check`` records the sha256, size and CSV value count of every file
    the run wrote; the fingerprints are data, not a gate.
    """

    def __init__(self, argv: list[str], tmp_root: Path):
        self.argv = argv
        self.name = " ".join(argv)
        self.tmp_root = tmp_root
        self.outdir = None
        self.files: dict[str, dict] = {}

    def prepare(self):
        self.outdir = Path(tempfile.mkdtemp(prefix="cli-", dir=self.tmp_root))
        self.files = {}

    def run(self):
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = logkdv.cli.main(self.argv + ["--outdir", str(self.outdir)])
        return code, err.getvalue().strip()

    def check(self, result):
        code, err = result
        if code != 0:
            return [f"exit code {code}: {err}"]
        sub = self.argv[0]
        fails = []
        try:
            summary = json.loads((self.outdir / f"{sub}_summary.json").read_text())
            _validate_summary(summary)
        except (OSError, ValueError) as exc:
            return [f"summary unusable: {exc}"]
        fails += [f"invariant {k} false" for k, v in summary["invariants"].items() if not v]
        fails += [f"output {f} missing" for f in summary["outputs"]
                  if not (self.outdir / f).is_file()]
        _cli_scalar_gates(fails, sub, summary["scalars"])
        self.files = {p.name: _file_facts(p) for p in sorted(self.outdir.iterdir())}
        return fails

    def cleanup(self):
        shutil.rmtree(self.outdir, ignore_errors=True)


def _validate_summary(summary):
    import jsonschema  # imported on first use: the gate is not part of set-up

    schema_path = Path(logkdv.__file__).with_name("summary_schema.json")
    try:
        jsonschema.validate(summary, json.loads(schema_path.read_text()))
    except jsonschema.ValidationError as exc:
        raise ValueError(f"schema: {exc.message}") from exc


def _cli_scalar_gates(fails, sub, s):
    if sub == "spectrum":
        z = [s.get("z1", math.nan), s.get("z2", math.nan)]
        _spectrum_gates(fails, z, [s.get("slope_a1", math.nan), s.get("slope_a2", math.nan)],
                        [s.get("slope_b1", math.nan), s.get("slope_b2", math.nan)])
    elif sub == "projections":
        _near(fails, "f0", s["f0"], math.sqrt(2.0 * math.pi), 1e-15)
        _near(fails, "f1", s["f1"], 2.0, 1e-15)
    elif sub == "coercivity":
        _near(fails, "coercivity_constant", s["coercivity_constant"], C_REF, C_TOL)
    elif sub == "evolve":
        _below(fails, "max_norm_drift", s["max_norm_drift"], MIDPOINT_DRIFT_MAX)
    elif sub == "dissipate":
        if not s["max_decay_ratio"] <= DECAY_RATIO_MAX:
            fails.append(f"max_decay_ratio={s['max_decay_ratio']!r} above {DECAY_RATIO_MAX}")
    elif sub == "reconstruct":
        _below(fails, "residual_projected_odd_eq", s["residual_projected_odd_eq"], RESIDUAL_MAX)
        _below(fails, "residual_projected_even_eq", s["residual_projected_even_eq"], RESIDUAL_MAX)


def _file_facts(path: Path) -> dict:
    data = path.read_bytes()
    facts = {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data), "values": 0}
    if path.suffix == ".csv":
        header, _, _ = data.partition(b"\n")
        facts["values"] = (data.count(b"\n") - 1) * (header.count(b",") + 1)
    return facts


def build_cli_repro(seed: int, tmp_root: Path) -> tuple[list[Solve], dict]:
    rng = random.Random(seed)
    coercivity_seed = rng.randrange(2**31)
    runs = [
        ["spectrum"],
        ["projections"],
        ["coercivity", "--seed", str(coercivity_seed)],
        ["evolve"],
        ["dissipate"],
        ["reconstruct"],
        ["projections", "--n-max", "1000000"],
    ]
    rng.shuffle(runs)
    return [CliSolve(argv, tmp_root) for argv in runs], {"coercivity_seed": coercivity_seed}


# ---------------------------------------------------------------- spectral


def build_spectral(seed: int, tmp_root: Path) -> tuple[list[Solve], dict]:
    rng = random.Random(seed)
    z_min = rng.uniform(0.03, 0.07)
    half_width = rng.uniform(10.0, 14.0)
    grid = hermite.RealGrid.uniform(half_width, 2401)
    found = {}

    def eigenvalues():
        found.clear()  # a failed scan must not leave the last pass's roots to later solves
        found["spectrum"] = jacobi.find_eigenvalues(z_min=z_min, z_max=20.0, n_max=4000)
        return found["spectrum"]

    def check_eigenvalues(fails, r):
        _spectrum_gates(fails, r.eigenvalues, r.decay_exponents_a, r.decay_exponents_b)

    def trace_at(k):
        def run():
            return jacobi.wronskian_trace(float(found["spectrum"].eigenvalues[k]), 20000)

        def check(fails, r):
            scale = float(np.abs(found["spectrum"].scan_w).max())
            _below(fails, f"|W_inf(z{k + 1})|/scan scale", abs(r.w_inf) / scale, 1e-2)

        return FnSolve(f"wronskian_trace z{k + 1}", run, check)

    def eigenprofile():
        z1 = float(found["spectrum"].eigenvalues[0])
        prof = reconstruct.eigenvector_assemble(z1, jacobi.shoot(z1, 4999), grid)
        return reconstruct.eigenpair_residual(z1, prof, grid)

    def check_eigenprofile(fails, r):
        _below(fails, "projected_odd_equation", r.projected_odd_equation, RESIDUAL_MAX)
        _below(fails, "projected_even_equation", r.projected_even_equation, RESIDUAL_MAX)

    def coercivity_tail():
        return coercivity.coercivity_constant(10**6), coercivity.c0_tail_estimate(10**6)

    def check_coercivity_tail(fails, r):
        _near(fails, "coercivity_constant(1e6)", r[0], C_REF, C_TOL)
        if not 0.0 < r[1] < 1.0:
            fails.append(f"c0_tail_estimate(1e6)={r[1]!r} outside (0, 1)")

    def coercivity_dense():
        return (coercivity.coercivity_constant_dense(400),
                coercivity.coercivity_constant(400, tail_corrected=False))

    def check_coercivity_dense(fails, r):
        _near(fails, "dense - secular at n=400", r[0] - r[1], 0.0, DENSE_TOL)

    solves = [
        FnSolve("find_eigenvalues", eigenvalues, check_eigenvalues),
        trace_at(0),
        trace_at(1),
        FnSolve("eigenprofile", eigenprofile, check_eigenprofile),
        FnSolve("coercivity_tail", coercivity_tail, check_coercivity_tail),
        FnSolve("coercivity_dense", coercivity_dense, check_coercivity_dense),
    ]
    return solves, {"z_min": z_min, "half_width": half_width}


# ---------------------------------------------------------------- dynamics


def build_dynamics(seed: int, tmp_root: Path) -> tuple[list[Solve], dict]:
    rng = random.Random(seed)
    params = {
        "lattice_center": rng.uniform(0.5, 1.5),
        "lattice_width": rng.uniform(0.8, 1.2),
        "random_seed": rng.randrange(2**31),
        "halfline_center": rng.uniform(-3.0, -1.0),
        "halfline_width": rng.uniform(0.75, 1.25),
    }
    hgrid = halfline.HalfLineGrid(40.0, 0.02)
    xgrid = hermite.RealGrid.uniform(12.0, 2401)
    last = {}

    def bump(n_modes):
        return lattice.initial_gaussian_bump(
            n_modes, params["lattice_center"], params["lattice_width"])

    def midpoint():
        traj = lattice.evolve(bump(400), 10.0, 1e-3, sample_every=10)
        return traj, lattice.c1_track(0.0, traj)

    def check_midpoint(fails, r):
        _below(fails, "midpoint norm drift", _norm_drift(r[0]), MIDPOINT_DRIFT_MAX)
        if not np.all(np.isfinite(r[1].conserved)):
            fails.append("c1_track pairing not finite")

    def midpoint_dense():
        state = lattice.initial_random(400, params["random_seed"])
        return lattice.evolve(state, 2.0, 1e-3, sample_every=1)

    def check_midpoint_dense(fails, r):
        _below(fails, "dense midpoint norm drift", _norm_drift(r), MIDPOINT_DRIFT_MAX)

    def rk4():
        return lattice.evolve(bump(200), 1.0, 0.5 * 200**-1.5, sample_every=10, method="rk4")

    def check_rk4(fails, r):
        _below(fails, "rk4 norm drift", _norm_drift(r), RK4_DRIFT_MAX)

    def dissipate(method):
        def run():
            last.pop(method, None)
            w0 = halfline.initial_gaussian_bump(
                hgrid, params["halfline_center"], params["halfline_width"])
            flow = halfline.evolve_dissipative(w0, 5.0, 1e-3, method=method, sample_every=10)
            a0 = -hgrid.integrate(halfline.gaussian_weight(hgrid) * w0.w)  # A = 0 data
            mod = halfline.modulation_integrate(flow, a0, 0.0)
            last[method] = (flow, mod)
            return flow, mod

        def check(fails, r):
            flow, mod = r
            t = flow.step_ts - flow.step_ts[0]
            ratio = float(((flow.step_l2 / flow.step_l2[0]) ** 2 / np.exp(-t)).max())
            if not ratio <= DECAY_RATIO_MAX:
                fails.append(f"{method} decay ratio {ratio!r} above {DECAY_RATIO_MAX}")
            if not np.all(np.diff(flow.step_l2) <= flow.step_l2[:-1] * 1e-10):
                fails.append(f"{method} L2 norm not monotone")
            drift = float(np.abs(mod.A - mod.A[0]).max())
            if not drift <= 1e-6 * (1.0 + abs(mod.A[0])):
                fails.append(f"{method} constraint drift {drift!r}")

        return FnSolve(f"evolve_dissipative {method}", run, check)

    def convolution():
        flow, mod = last["cn"]
        state = halfline.HalfLineState(flow.states[-1], float(flow.ts[-1]), hgrid)
        return reconstruct.convolution_synthesize(state, float(mod.a[-1]), float(mod.b[-1]), xgrid)

    def check_convolution(fails, r):
        if r.shape != xgrid.nodes.shape or not np.all(np.isfinite(r)):
            fails.append("convolution profile not finite or misshapen")

    solves = [
        FnSolve("lattice midpoint", midpoint, check_midpoint),
        FnSolve("lattice midpoint dense", midpoint_dense, check_midpoint_dense),
        FnSolve("lattice rk4", rk4, check_rk4),
        dissipate("cn"),
        dissipate("be"),
        FnSolve("convolution_synthesize", convolution, check_convolution),
    ]
    return solves, params


WORKLOADS = {
    "cli_repro": build_cli_repro,
    "spectral": build_spectral,
    "dynamics": build_dynamics,
}
