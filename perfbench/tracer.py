"""Spans and counters around the public functions of ``logkdv``, from outside.

``Tracer.install`` replaces every public function of the package's
modules with a timing wrapper, in every module namespace that binds it
(``projection_sequence`` is imported into ``cli``, ``coercivity`` and
``lattice``, so all three names are patched), and ``Tracer.restore``
puts the originals back.  Each call becomes a span ``[name, start_ns,
end_ns, parent_index]`` kept in memory; a generator such as
``basis_rows`` gets one span per ``next()`` call, so the work of the
recurrence lands on it and not on its consumer.  Counters come from the
call arguments or from public result fields only.
"""

from __future__ import annotations

import inspect
import json
import math
import time
from collections import Counter, defaultdict

MODULES = ("hermite", "coercivity", "jacobi", "lattice", "halfline", "reconstruct", "cli")


def _evolve_name(bound):
    return "lattice.evolve_" + bound.arguments["method"]


def _find_eigenvalues_counts(bound, result):
    # every truncation doubling repeats the whole W_inf scan
    doublings = round(math.log2(result.diagnostics["n_max"] / int(bound.arguments["n_max"])))
    return {
        "truncation_doublings": doublings,
        "scan_points": result.diagnostics["scan_points"] * (doublings + 1),
    }


def _evolve_counts(bound, result):
    a0 = bound.arguments["a0"]
    steps = int(round(abs(bound.arguments["T"]) / bound.arguments["dt"]))
    return {
        "mode_steps": a0.n_modes * steps,
        "samples_bytes": sum(x.nbytes for x in (result.ts, result.states, result.norms, result.c1)),
    }


# name -> (span name from the bound arguments or None, counters from (arguments, result))
_HOOKS = {
    "hermite.projection_sequence": (None, lambda b, r: {"entries": r.size}),
    "jacobi.find_eigenvalues": (None, _find_eigenvalues_counts),
    "jacobi.shoot": (None, lambda b, r: {"steps": int(b.arguments["m_max"])}),
    "lattice.evolve": (_evolve_name, _evolve_counts),
    "halfline.evolve_dissipative": (
        None, lambda b, r: {"node_steps": r.states.shape[1] * (r.step_ts.size - 1)}),
    "reconstruct.convolution_synthesize": (
        None,
        lambda b, r: {"kernel_evals": b.arguments["grid"].nodes.size
                      * b.arguments["state"].grid.nodes.size},
    ),
}


class Tracer:
    """In-memory span recorder; one instance per traced run."""

    def __init__(self):
        self.spans: list[list] = []
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    # ------------------------------------------------------------ recording

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter_ns()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        name_hook, count_hook = _HOOKS.get(name, (None, None))
        signature = inspect.signature(fn)

        if inspect.isgeneratorfunction(fn):
            def wrapper(*args, **kwargs):
                self.calls[name] += 1
                inner = fn(*args, **kwargs)
                try:
                    while True:
                        idx = self._open(name)
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            self._close(idx)
                        # basis_rows, the only generator, yields (n, row)
                        self.counts[name + ".point_modes"] += item[1].size
                        yield item
                finally:
                    inner.close()
        else:
            def wrapper(*args, **kwargs):
                bound = None
                if name_hook or count_hook:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                span = name_hook(bound) if name_hook else name
                self.calls[span] += 1
                idx = self._open(span)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self._close(idx)
                if count_hook:
                    for key, value in count_hook(bound, result).items():
                        self.counts[span + "." + key] += value
                return result

        return wrapper

    def install(self, package) -> None:
        """Patch the public functions of ``package``'s modules in every namespace."""
        wrappers = {}
        for mod_name in MODULES:
            module = getattr(package, mod_name)
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == module.__name__):
                    wrappers[id(obj)] = self._wrap(f"{mod_name}.{attr}", obj)
        for module in [package] + [getattr(package, m) for m in MODULES]:
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers:
                    self._patches.append((module, attr, obj))
                    setattr(module, attr, wrappers[id(obj)])

    def restore(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------ analysis

    def self_times(self) -> dict:
        """Seconds per span name: duration minus the time covered by child spans."""
        out = defaultdict(float)
        for name, start, end, parent in self.spans:
            dur = (end - start) * 1e-9
            out[name] += dur
            if parent >= 0:
                out[self.spans[parent][0]] -= dur
        return dict(out)

    def inclusive_times(self) -> dict:
        """Seconds per span name, children included (no wrapped function recurses)."""
        out = defaultdict(float)
        for name, start, end, _ in self.spans:
            out[name] += (end - start) * 1e-9
        return dict(out)

    def top_level_s(self) -> float:
        return sum((end - start) * 1e-9 for _, start, end, parent in self.spans if parent < 0)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent"], "spans": self.spans}, fh)
