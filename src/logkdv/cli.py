"""Command-line front end: every computation as a reproducible run.

Each subcommand merges its defaults with an optional JSON config file
and explicit flags (flags win), validates the result before computing,
and computes; only then does ``main`` write the CSV traces and a JSON
summary into the output directory (``--outdir`` flag, else the
``LOGKDV_OUTDIR`` environment variable, else the working directory).
The files appear all together or not at all, so a failed run leaves
none behind.  Identical config and seed produce byte-identical files.

Exit codes: 0 success, 1 invalid configuration, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import coercivity as coerc
from . import halfline, jacobi, lattice, reconstruct
from .errors import NumericalError
from .hermite import RealGrid, fit_loglog_slope, projection_sequence

# Per subcommand, each config key maps to (default, range check).  The
# default's type sets the flag type and whether values are cast to int;
# a default of None means a float.
_PARAMS = {
    "spectrum": {
        "z_min": (0.05, lambda v: 0 < v),
        "z_max": (20.0, lambda v: 0 < v <= 100),
        "scan_step": (0.05, lambda v: 0 < v <= 1),
        "tol": (1e-6, lambda v: 0 < v <= 1e-2),
        "n_max": (1000, lambda v: 10 <= v <= 200_000),
        "trace_z": (1.0, lambda v: 0 < v <= 100),
    },
    "projections": {"n_max": (100, lambda v: 1 <= v <= 10_000_000)},
    "coercivity": {
        "n_max": (400, lambda v: 10 <= v <= 1_000_000),
        "n_samples": (1000, lambda v: 1 <= v <= 1_000_000),
        "seed": (0, lambda v: True),
    },
    "evolve": {
        "n_modes": (400, lambda v: 2 <= v <= 100_000),
        "T": (10.0, lambda v: abs(v) <= 1e4),
        "dt": (1e-3, lambda v: 0 < v <= 1),
        "sample_every": (10, lambda v: v >= 1),
        "method": ("midpoint", lambda v: v in ("midpoint", "rk4")),
        "preset": ("gaussian", lambda v: v in ("gaussian", "random")),
        "seed": (0, lambda v: True),
    },
    "dissipate": {
        "extent": (40.0, lambda v: v > 0),
        "spacing": (0.02, lambda v: v > 0),
        "T": (5.0, lambda v: 0 < v <= 1e4),
        "dt": (1e-3, lambda v: 0 < v <= 1),
        "method": ("cn", lambda v: v in ("cn", "be")),
        "sample_every": (10, lambda v: v >= 1),
        "center": (-2.0, lambda v: v < 0),
        "width": (1.0, lambda v: v > 0),
        "b0": (0.0, lambda v: True),
    },
    "reconstruct": {
        "mode": ("eigenvector", lambda v: v in ("eigenvector", "bump")),
        "z": (None, lambda v: v is None or 0 < v <= 100),
        "m_max": (500, lambda v: 10 <= v <= 4999),  # basis indices reach 2 m_max + 1
        "x_max": (12.0, lambda v: 0 < v <= 100),
        "num_points": (2401, lambda v: 32 <= v <= 10_000_000),
    },
}


_CSV_BLOCK_ROWS = 1 << 14


def _flag_type(default) -> type:
    return float if default is None else type(default)


def _is_finite_number(value) -> bool:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond float range
        return False


def _write_csv(path: Path, table: dict[str, np.ndarray]) -> None:
    """Write ``{column name: values}`` as a CSV with a header row."""
    columns = list(table.values())
    with open(path, "w") as fh:
        fh.write(",".join(table) + "\n")
        # converted to Python floats a block of rows at a time to bound memory
        for start in range(0, len(columns[0]), _CSV_BLOCK_ROWS):
            block = [
                np.asarray(col[start : start + _CSV_BLOCK_ROWS], dtype=float).tolist()
                for col in columns
            ]
            for row in zip(*block):
                fh.write(",".join(map(repr, row)) + "\n")


def _write_outputs(outdir: Path, name: str, config: dict, scalars: dict,
                   invariants: dict, tables: dict) -> Path:
    """Write the CSV tables and the JSON summary, all of them or none.

    Each file is written under a temporary name in ``outdir`` and renamed into
    place once every write has succeeded; on an OSError this run's files are removed.
    """
    def _scalar(v):
        v = float(v)
        return None if math.isnan(v) else v

    doc = {
        "subcommand": name,
        "config": config,
        "scalars": {k: _scalar(v) for k, v in scalars.items()},
        "invariants": {k: bool(v) for k, v in invariants.items()},
        "outputs": list(tables),
    }
    summary = outdir / f"{name}_summary.json"
    targets = [outdir / file_name for file_name in tables] + [summary]
    temps = [path.with_name(f".{path.name}.{os.getpid()}.tmp") for path in targets]
    placed = []
    try:
        for temp, table in zip(temps, tables.values()):
            _write_csv(temp, table)
        with open(temps[-1], "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        for temp, target in zip(temps, targets):
            os.replace(temp, target)
            placed.append(target)
    except OSError:
        for path in temps + placed:
            with contextlib.suppress(OSError):
                path.unlink()
        raise
    return summary


def _resolve_config(name: str, file_path: str | None, flag_values: dict) -> dict:
    params = _PARAMS[name]
    config = {key: default for key, (default, _) in params.items()}
    if file_path is not None:
        try:
            with open(file_path) as fh:
                loaded = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ValueError(f"cannot read config file {file_path}: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ValueError("config file must hold a JSON object")
        for key, value in loaded.items():
            if key not in config:
                raise ValueError(f"unknown config key {key!r} for {name}")
            config[key] = value
    for key, value in flag_values.items():
        if value is not None:
            config[key] = value
    for key, value in config.items():
        default, check = params[key]
        kind = _flag_type(default)
        if kind is float and not (value is None and default is None):
            if not _is_finite_number(value):
                raise ValueError(f"config value must be a finite number: {key}={value!r}")
        if kind is int:
            if not (_is_finite_number(value) and float(value).is_integer()):
                raise ValueError(f"config value must be an integer: {key}={value!r}")
            config[key] = int(value)
        if not check(config[key]):
            raise ValueError(f"config value out of range: {key}={config[key]!r}")
    return config


# ---------------------------------------------------------------- subcommands
# Each returns (scalars, invariants, {file name: {column name: values}}).


def _run_spectrum(config: dict) -> tuple[dict, dict, dict]:
    result = jacobi.find_eigenvalues(
        z_min=config["z_min"],
        z_max=config["z_max"],
        scan_step=config["scan_step"],
        tol=config["tol"],
        n_max=config["n_max"],
    )
    trace = jacobi.wronskian_trace(config["trace_z"], config["n_max"])
    scalars = {}
    for i, (zk, lam) in enumerate(zip(result.eigenvalues, result.frequencies), start=1):
        scalars[f"z{i}"] = zk
        scalars[f"E{i}"] = 2.0 * zk
        scalars[f"lambda{i}"] = lam
        scalars[f"slope_a{i}"] = result.decay_exponents_a[i - 1]
        scalars[f"slope_b{i}"] = result.decay_exponents_b[i - 1]
    scan_scale = float(np.abs(result.scan_w).max())
    at_roots = [
        abs(float(jacobi.wronskian_trace(zk, config["n_max"]).w_inf))
        for zk in result.eigenvalues
    ]
    invariants = {
        "eigenvalues_increasing": bool(np.all(np.diff(result.eigenvalues) > 0)),
        "roots_are_relative_zeros": all(v < 1e-2 * scan_scale for v in at_roots),
        "trace_plateau": trace.plateau_spread < 0.25 * max(abs(trace.tail_mean), 1e-30),
    }
    tables = {
        "wronskian_trace.csv": {"n": np.arange(1, trace.values.size), "W_n": trace.values[1:]},
        "wronskian_scan.csv": {"z": result.scan_z, "W_inf": result.scan_w},
    }
    return scalars, invariants, tables


def _run_projections(config: dict) -> tuple[dict, dict, dict]:
    f = projection_sequence(config["n_max"])
    scalars = {"f0": f[0], "f1": f[1]}
    invariants = {"all_positive": bool(np.all(f > 0))}
    if config["n_max"] >= 1000:
        scalars["tail_slope"] = fit_loglog_slope(
            f[100:], positions=np.arange(100, f.size), tail_fraction=1.0
        )
        invariants["quarter_power_decay"] = abs(scalars["tail_slope"] + 0.25) < 0.05
    return scalars, invariants, {"projections.csv": {"n": np.arange(f.size), "f_n": f}}


def _run_coercivity(config: dict) -> tuple[dict, dict, dict]:
    n_max = config["n_max"]
    c_hat = coerc.coercivity_constant(n_max)
    c_hat_half = coerc.coercivity_constant(max(10, n_max // 2))
    c_trunc = coerc.coercivity_constant(n_max, tail_corrected=False)
    c0_partial = coerc.c0_constant(n_max)
    c0_tail = coerc.c0_tail_estimate(n_max)

    rng = np.random.default_rng(config["seed"])
    samples = coerc.random_constrained_coefficients(n_max, rng, config["n_samples"])
    energies = np.array([coerc.energy_form(c) for c in samples])
    norms = np.array([coerc.compat_norm_form(c) for c in samples])
    c1_sq = samples[:, 1] ** 2
    c0_full = c0_partial + c0_tail
    invariants = {
        "in_unit_interval": 0.0 < c_hat < 1.0,
        "truncation_stable": abs(c_hat - c_hat_half) < 1e-3,
        "energy_coercive_on_samples": bool(np.all(energies >= c_hat * norms * (1 - 1e-12))),
        "c1_bound_on_samples": bool(np.all(4.0 * c1_sq <= c0_full * energies * (1 + 1e-12))),
        "upper_bound_on_samples": bool(np.all(energies <= norms * (1 + 1e-12))),
    }
    scalars = {
        "coercivity_constant": c_hat,
        "coercivity_constant_truncated": c_trunc,
        "c0_partial": c0_partial,
        "c0_tail_estimate": c0_tail,
        "c0_estimate": c0_full,
    }
    return scalars, invariants, {}


def _run_evolve(config: dict) -> tuple[dict, dict, dict]:
    if config["preset"] == "gaussian":
        state = lattice.initial_gaussian_bump(config["n_modes"])
    else:
        state = lattice.initial_random(config["n_modes"], config["seed"])
    if config["method"] == "rk4":
        config["dt"] = min(config["dt"], lattice._rk4_dt_cap(config["n_modes"]))
    traj = lattice.evolve(
        state,
        config["T"],
        config["dt"],
        sample_every=config["sample_every"],
        method=config["method"],
    )
    track = lattice.c1_track(0.0, traj)
    drift = track.conserved - track.conserved[0]
    rel_norm = np.abs(traj.norms / traj.norms[0] - 1.0).max()
    scalars = {
        "initial_norm": traj.norms[0],
        "final_norm": traj.norms[-1],
        "max_norm_drift": rel_norm,
        "pairing_drift_abs": track.drift_abs,
        "pairing_drift_rel": track.drift_rel,
    }
    invariants = {"norm_conserved": bool(rel_norm < 1e-8) if config["method"] == "midpoint"
                  else bool(rel_norm < 1e-6)}
    table = {"t": traj.ts, "norm": traj.norms, "c1": track.c1, "drift": drift}
    return scalars, invariants, {"evolve.csv": table}


def _run_dissipate(config: dict) -> tuple[dict, dict, dict]:
    grid = halfline.HalfLineGrid(config["extent"], config["spacing"])
    w0 = halfline.initial_gaussian_bump(grid, config["center"], config["width"])
    flow = halfline.evolve_dissipative(
        w0, config["T"], config["dt"], method=config["method"],
        sample_every=config["sample_every"],
    )
    a0 = -grid.integrate(halfline.gaussian_weight(grid) * w0.w)  # A = 0 data
    mod = halfline.modulation_integrate(flow, a0, config["b0"])
    l2 = np.array([grid.l2_norm(w) for w in flow.states])
    h1 = np.array([grid.h1_seminorm(w) for w in flow.states])
    linf = np.abs(flow.states).max(axis=1)
    t_rel = flow.step_ts - flow.step_ts[0]
    ratios = (flow.step_l2 / flow.step_l2[0]) ** 2 / np.exp(-t_rel)
    mono = np.all(np.diff(flow.step_l2) <= flow.step_l2[:-1] * 1e-10)
    a_bound = 1.1 * np.sqrt(np.pi) * l2[0] ** 2 * np.exp(-(mod.ts - mod.ts[0]))
    h1_rate = -np.polyfit(flow.ts, np.log(np.maximum(h1, 1e-300)), 1)[0]
    scalars = {
        "final_l2": l2[-1],
        "max_decay_ratio": float(ratios.max()),
        "constraint_drift": float(np.abs(mod.A - mod.A[0]).max()),
        "b_inf": mod.b_inf,
        "h1_decay_rate": h1_rate,
    }
    invariants = {
        "l2_decay_bound": bool(ratios.max() <= 1.05),
        "l2_monotone": bool(mono),
        "constraint_conserved": scalars["constraint_drift"] < 1e-6 * (1 + abs(mod.A[0])),
        "a_decay_bound": bool(np.all(mod.a**2 <= a_bound)),
        "h1_rate_positive": bool(h1_rate > 0),
    }
    table = {"t": flow.ts, "l2_norm": l2, "h1_seminorm": h1, "linf_norm": linf,
             "a": mod.a, "b": mod.b, "A": mod.A}
    return scalars, invariants, {"dissipate.csv": table}


def _run_reconstruct(config: dict) -> tuple[dict, dict, dict]:
    grid = RealGrid.uniform(config["x_max"], config["num_points"])
    if config["mode"] == "bump":
        c = np.zeros(51)
        bump_state = lattice.initial_gaussian_bump(49)
        c[2:] = lattice.lattice_to_coefficients(bump_state.a)[2:]
        values = reconstruct.synthesize(c, grid)
        parseval = float(np.dot(c, c))
        quad = grid.inner(values, values)
        scalars = {"coefficient_energy": parseval, "profile_energy": quad}
        invariants = {"parseval": abs(parseval - quad) < 1e-8 * max(1.0, parseval)}
        return scalars, invariants, {"profile.csv": {"x": grid.nodes, "value": values}}

    z = config["z"]
    if z is None:
        found = jacobi.find_eigenvalues(z_max=8.0, n_max=1000)
        if found.eigenvalues.size == 0:
            raise NumericalError("no eigenvalue found to reconstruct")
        z = float(found.eigenvalues[0])
    shooting = jacobi.shoot(z, config["m_max"])
    prof = reconstruct.eigenvector_assemble(z, shooting, grid)
    resid = reconstruct.eigenpair_residual(z, prof, grid)
    scalars = {
        "z": z,
        "c1": prof.c1,
        "tail_odd": prof.tail_odd,
        "tail_even": prof.tail_even,
        "residual_raw_odd_eq": resid.raw_odd_equation,
        "residual_raw_even_eq": resid.raw_even_equation,
        "residual_projected_odd_eq": resid.projected_odd_equation,
        "residual_projected_even_eq": resid.projected_even_equation,
    }
    odd = prof.y_odd
    even = prof.y_even
    invariants = {
        "odd_parity": bool(np.abs(odd + odd[::-1]).max() < 1e-10 * max(np.abs(odd).max(), 1e-30)),
        "even_parity": bool(np.abs(even - even[::-1]).max() < 1e-10 * max(np.abs(even).max(), 1e-30)),
        "weak_residuals_small": resid.projected_odd_equation < 1e-2
        and resid.projected_even_equation < 1e-2,
    }
    table = {"x": grid.nodes, "y_odd": odd, "y_even": even}
    return scalars, invariants, {"eigenvector_profile.csv": table}


_RUNNERS = {
    "spectrum": _run_spectrum,
    "projections": _run_projections,
    "coercivity": _run_coercivity,
    "evolve": _run_evolve,
    "dissipate": _run_dissipate,
    "reconstruct": _run_reconstruct,
}


class _Parser(argparse.ArgumentParser):
    """Raises ValueError on a usage error, so it is reported like a bad config."""

    def error(self, message):
        raise ValueError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="logkdv",
        description="Reproducible numerical experiments for the linearized "
        "log-KdV problem at the Gaussian solitary wave.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, params in _PARAMS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON file with config overrides")
        p.add_argument("--outdir", help="output directory (default: $LOGKDV_OUTDIR or .)")
        for key, (default, _) in params.items():
            flag = "--" + key.replace("_", "-")
            p.add_argument(flag, type=_flag_type(default), default=None)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        name = args.subcommand
        flag_values = {k: getattr(args, k) for k in _PARAMS[name]}
        config = _resolve_config(name, args.config, flag_values)
        outdir = Path(args.outdir or os.environ.get("LOGKDV_OUTDIR") or ".")
        try:
            outdir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ValueError(f"cannot create output directory: {exc}") from None
        scalars, invariants, tables = _RUNNERS[name](config)
        try:
            summary = _write_outputs(outdir, name, config, scalars, invariants, tables)
        except OSError as exc:
            raise ValueError(f"cannot write output: {exc}") from None
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(summary)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
