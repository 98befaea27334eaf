"""In-memory span tracer for diraclab, applied from outside the package.

The tracer wraps public functions of the `diraclab` modules at run time.
Most callers bind those names with `from .x import y`, so a wrapper is
rebound under every module namespace that holds the original object;
`Grid3.meshgrid`, `scipy.linalg.expm` and the suite builder table are
wrapped by attribute.  Nothing under src/ is edited.

Spans (id, parent id, operation id, name, start, end) and counters stay in
memory and are written out once, when the run ends.  A layer's self time is
its span's duration minus the part covered by its child spans.

A name the package no longer has is skipped, so the tracer keeps working
while the package is refactored; the metrics it fed then read 0.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from collections import defaultdict
from time import perf_counter

# Functions recorded as spans: call count, self time and total time.
SPANNED = {
    "cli": ("main",),
    "config": ("resolve_run_config",),
    "suites": ("run_suite",),
    "matrices": ("mat_exp", "mat_inverse", "clifford_check", "taylor_exp_reference"),
    "dynamics": ("hamiltonian", "eigenspinor", "eta_matrix", "zbw_closed_form",
                 "alpha_evolved_oracle", "velocity_signal", "zbw_trajectory",
                 "write_trajectory_csv"),
    "spinors": ("component_residual", "cylindrical_residual", "jz_apply"),
    "fields": ("self_fields_commutator", "self_fields_matrix_maxwell", "self_potentials",
               "self_action_reduction"),
    "lattice": ("commutator_field_extract", "convergence_study"),
    "report": ("report_json", "render_json"),
}

# Functions too small or too frequent to span: only their calls are counted.
COUNTED = {
    "matrices": ("dirac_generator", "generators"),
    "spinors": ("as_spinor",),
    "lattice": ("validate_config",),
    "report": ("make_check",),
}

# render_json calls itself; only its outermost call is a span.
OUTERMOST_ONLY = {"report.render_json"}

# Bytes per complex128 element, for the computed-bytes model of the lattice.
COMPLEX_BYTES = 16
# commutator_field_extract's default test-function set (lattice.default_test_fields)
DEFAULT_TEST_FIELDS = 3


class Tracer:
    """Spans, counters and per-operation quantities of one traced process."""

    def __init__(self):
        self.spans = []  # (span id, parent id, op id, name, start, end)
        self.counts = defaultdict(int)  # (op id, metric) -> calls
        self.quantities = defaultdict(float)  # (op id, metric) -> amount
        self.op = None
        self._stack = []
        self._next_id = 0
        self._active = set()
        self._undo = []

    # -- recording -----------------------------------------------------------

    def begin_op(self, op_id) -> None:
        self.op = op_id

    def add(self, metric: str, amount: float) -> None:
        self.quantities[(self.op, metric)] += amount

    def span_wrapper(self, name: str, fn, after=None):
        tracer = self
        outermost = name in OUTERMOST_ONLY
        sig = inspect.signature(fn) if after is not None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if outermost and name in tracer._active:
                return fn(*args, **kwargs)
            sid = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1] if tracer._stack else None
            tracer._stack.append(sid)
            tracer._active.add(name)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer._stack.pop()
                tracer._active.discard(name)
                tracer.spans.append((sid, parent, tracer.op, name, start, end))
            if after is not None:
                after(tracer, sig.bind(*args, **kwargs).arguments, result)
            return result

        return wrapper

    def count_wrapper(self, metric: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.counts[(tracer.op, metric)] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation --------------------------------------------------------

    def _rebind(self, original, wrapper) -> None:
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "diraclab" or modname.startswith("diraclab.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._undo.append((mod, key, original))

    def _set_attr(self, owner, key, wrapper, original) -> None:
        setattr(owner, key, wrapper)
        self._undo.append((owner, key, original))

    def install(self) -> "Tracer":
        import diraclab  # noqa: F401  (loads every module the package imports)
        import diraclab.cli  # noqa: F401

        pkg = sys.modules
        for modname, names in SPANNED.items():
            mod = pkg.get(f"diraclab.{modname}")
            for fname in names:
                original = getattr(mod, fname, None)
                if callable(original):
                    name = f"{modname}.{fname}"
                    wrapper = self.span_wrapper(name, original, RESULT_HOOKS.get(name))
                    self._rebind(original, wrapper)
        for modname, names in COUNTED.items():
            mod = pkg.get(f"diraclab.{modname}")
            for fname in names:
                original = getattr(mod, fname, None)
                if callable(original):
                    self._rebind(original, self.count_wrapper(f"{modname}.{fname}.calls", original))
        lattice = pkg.get("diraclab.lattice")
        grid = getattr(lattice, "Grid3", None)
        meshgrid = getattr(grid, "meshgrid", None)
        if callable(meshgrid):
            self._set_attr(grid, "meshgrid", self.count_wrapper("lattice.meshgrid.calls", meshgrid),
                           meshgrid)
        linalg = pkg.get("scipy.linalg")
        expm = getattr(linalg, "expm", None)
        if callable(expm):
            self._set_attr(linalg, "expm",
                           self.count_wrapper("matrices.mat_exp.general_calls", expm), expm)
        builders = getattr(pkg.get("diraclab.suites"), "_BUILDERS", None)
        if isinstance(builders, dict):
            for suite, builder in list(builders.items()):
                builders[suite] = self.span_wrapper(f"suites.{suite}", builder)
                self._undo.append((builders, suite, builder))
        return self

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._undo.clear()

    # -- output --------------------------------------------------------------

    def dump(self) -> dict:
        return {
            "spans": self.spans,
            "counts": [[op, k, v] for (op, k), v in self.counts.items()],
            "quantities": [[op, k, v] for (op, k), v in self.quantities.items()],
        }

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.dump(), fh, separators=(",", ":"))


# --- per-call quantities -----------------------------------------------------

def _after_extract(tracer, args, result) -> None:
    grid = args.get("grid")
    if grid is None:
        return
    fields = args.get("test_fields")
    nfields = len(list(fields)) if fields is not None else DEFAULT_TEST_FIELDS
    n3 = grid.n ** 3
    tracer.add("lattice.grid_points", n3 * nfields)
    # computed, not measured: h and e estimates, 3 components each, per test field
    tracer.add("lattice.computed_bytes", nfields * 2 * 3 * n3 * COMPLEX_BYTES)
    excluded = getattr(result, "excluded_points", None)
    interior = getattr(result, "interior", None)
    if excluded is not None and interior is not None:
        tracer.add("lattice.excluded_points", excluded)
        tracer.add("lattice.interior_points", int(interior.sum()) * nfields)


def _after_trajectory(tracer, args, result) -> None:
    tracer.add("dynamics.zbw_trajectory.rows", len(result))


def _after_report(tracer, args, result) -> None:
    tracer.add("report.bytes", len(result.encode("utf-8")))


def _after_run_suite(tracer, args, result) -> None:
    tracer.add("suites.checks", len(result.checks))


# Span name -> hook that records what the call did, from its arguments and result.
RESULT_HOOKS = {
    "lattice.commutator_field_extract": _after_extract,
    "dynamics.zbw_trajectory": _after_trajectory,
    "report.report_json": _after_report,
    "suites.run_suite": _after_run_suite,
}


# --- aggregation -------------------------------------------------------------

def union_length(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict:
    """span id -> duration minus the time its direct children cover."""
    children = defaultdict(list)
    for sid, parent, _op, _name, start, end in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = {}
    for sid, _parent, _op, _name, start, end in spans:
        covered = [(max(s, start), min(e, end))
                   for s, e in children.get(sid, ()) if e > start and s < end]
        out[sid] = (end - start) - union_length(covered)
    return out


def per_op(dump: dict) -> dict:
    """op id -> {metric: value} for one process's dump.

    Span names give `<name>.calls`, `<name>.self_s` and `<name>.total_s`;
    counters and quantities keep their own names.
    """
    ops = defaultdict(lambda: defaultdict(float))
    selfs = self_times(dump["spans"])
    for sid, _parent, op, name, start, end in dump["spans"]:
        m = ops[op]
        m[f"{name}.calls"] += 1
        m[f"{name}.self_s"] += selfs[sid]
        m[f"{name}.total_s"] += end - start
    for op, key, value in dump["counts"]:
        ops[op][key] += value
    for op, key, value in dump["quantities"]:
        ops[op][key] += value
    return ops


def merge_ops(*parts) -> dict:
    """Sum per-op metrics from several processes (CLI children of one round)."""
    out = defaultdict(lambda: defaultdict(float))
    for part in parts:
        for op, metrics in part.items():
            for key, value in metrics.items():
                out[op][key] += value
    return out


def derive(metrics: dict) -> None:
    """Ratios computed per operation from the summed counters."""
    busy = metrics.get("lattice.commutator_field_extract.total_s", 0.0)
    points = metrics.get("lattice.grid_points", 0.0)
    metrics["lattice.points_per_s"] = points / busy if busy > 0 else 0.0
    interior = metrics.get("lattice.interior_points", 0.0)
    excluded = metrics.get("lattice.excluded_points", 0.0)
    metrics["lattice.excluded_ratio"] = excluded / interior if interior > 0 else 0.0
