"""Span tracing of the package's public functions, installed from outside.

`install` replaces each traced function by a wrapper in every kppfrag
module that binds it (names imported by value are separate bindings), and
each traced method on its class. The 2D factor objects returned by
`NeumannLaplacian.shifted_factor` are wrapped in a proxy so their `.solve`
calls are traced too. Every call records a span [name, start, end, parent,
run, info]; spans stay in memory until the caller writes them out.

`layer_metrics` turns the spans of one pass into the per-layer metrics.
"""
from __future__ import annotations

import json
import os
import sys
from time import perf_counter

# counts that must repeat exactly between passes with the same inputs
EXACT_COUNTS = (
    "grids.factor.calls",
    "grids.factor.fill_nnz",
    "solver.newton_iters",
    "solver.picard_steps",
    "optimizer.outer_iters",
    "optimizer.armijo.trials",
)

TERMINATIONS = ("lp_value", "step_zero", "objective_plateau", "max_iters", "failed")

# metric name -> unit; "computed" marks figures derived from sizes, not timed
PER_LAYER_UNITS: dict[str, str] = {}
for _layer in ("grids.lap_build", "grids.factor", "grids.factor_solve", "grids.apply",
               "grids.refine_fold", "optimizer.adjoint", "optimizer.lp",
               "optimizer.gradient", "optimizer.guess", "optimizer.armijo",
               "fields.resource_field"):
    PER_LAYER_UNITS[f"{_layer}.calls"] = "count"
    PER_LAYER_UNITS[f"{_layer}.s"] = "s"
PER_LAYER_UNITS.update({
    "grids.factor.fill_nnz": "count-computed",
    "grids.factor.fill_nnz_max": "count-computed",
    "grids.factor.share": "ratio",
    "solver.calls": "count",
    "solver.s": "s",
    "solver.self_s": "s",
    "solver.fail": "count",
    "solver.newton_iters": "count",
    "solver.picard_steps": "count",
    "solver.fallback_frac": "ratio",
    "solver.linesearch_trials": "count",
    "solver.linesearch_accept_ratio": "ratio",
    "optimizer.starts": "count",
    "optimizer.starts_failed": "count",
    "optimizer.outer_iters": "count",
    "optimizer.armijo.trials": "count",
    "optimizer.armijo.accept_ratio": "ratio",
    **{f"optimizer.termination.{t}": "count" for t in TERMINATIONS},
    "experiments.sweep.self_s": "s",
    "experiments.periodise.self_s": "s",
    "experiments.lemma2.self_s": "s",
    "cli.persist.s": "s",
    "cli.persist.bytes": "bytes-computed",
    "fields.to_csv.s": "s",
    "plots.emit.s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
})

NAME, START, END, PARENT, RUN, INFO = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.run_id = 0
        self._stack: list[int] = []

    def call(self, name, fn, args, kwargs, on_return=None):
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
                self.run_id, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = perf_counter()
        try:
            out = fn(*args, **kwargs)
        except BaseException as exc:
            span[END] = perf_counter()
            span[INFO] = {"error": type(exc).__name__}
            self._stack.pop()
            raise
        span[END] = perf_counter()
        self._stack.pop()
        return on_return(self, span, out, args, kwargs) if on_return else out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, t0, t1, parent, run, info) in enumerate(self.spans):
                rec = {"id": i, "name": name, "start": t0, "end": t1,
                       "parent": parent, "run": run}
                if info:
                    rec["info"] = info
                fh.write(json.dumps(rec) + "\n")


class _TracedFactor:
    """Stands in for a factor object; traces `.solve`, forwards the rest."""

    __slots__ = ("_factor", "_tracer")

    def __init__(self, factor, tracer: Tracer):
        self._factor = factor
        self._tracer = tracer

    def solve(self, *args, **kwargs):
        return self._tracer.call("grids.factor_solve", self._factor.solve, args, kwargs)

    def __getattr__(self, name):
        return getattr(self._factor, name)


# hooks run after a span closed: record what the result says, return it


def _on_factor(tracer, span, out, args, kwargs):
    if hasattr(out, "nnz"):  # a SuperLU factor; 1D banded wrappers have none
        span[INFO] = {"nnz": int(out.nnz)}
    return _TracedFactor(out, tracer)


def _on_solve(tracer, span, out, args, kwargs):
    from kppfrag.solver import SolverConfig

    cfg = args[2] if len(args) > 2 else kwargs.get("cfg")
    span[INFO] = {"iters": out.iterations, "fallback": out.used_fallback,
                  "burst": (cfg or SolverConfig()).fallback_burst}
    return out


def _on_optimize(tracer, span, out, args, kwargs):
    span[INFO] = {"starts": [[s.iterations, s.termination, s.failed] for s in out.starts]}
    return out


def _on_armijo(tracer, span, out, args, kwargs):
    span[INFO] = {"accepted": out[2] > 0.0}
    return out


def _on_persist(tracer, span, out, args, kwargs):
    folder = os.path.dirname(out)
    span[INFO] = {"bytes": sum(os.path.getsize(os.path.join(folder, f))
                               for f in os.listdir(folder))}
    return out


def install(tracer: Tracer):
    """Wrap the traced functions and methods; returns a callable that undoes it."""
    from kppfrag import cli, experiments, fields, grids, optimizer, plots, solver

    functions = [
        (grids.refine_fold_values, "grids.refine_fold", None),
        (solver.solve_steady_state, "solver", _on_solve),
        (optimizer.optimize, "optimizer.optimize", _on_optimize),
        (optimizer.solve_adjoint, "optimizer.adjoint", None),
        (optimizer.best_perturbation, "optimizer.lp", None),
        (optimizer.objective_gradient, "optimizer.gradient", None),
        (optimizer.random_fourier_guess, "optimizer.guess", None),
        (optimizer.armijo_ascent_step, "optimizer.armijo", _on_armijo),
        (experiments.fragmentation_sweep, "experiments.sweep", None),
        (experiments.periodisation_check, "experiments.periodise", None),
        (experiments.lemma2_bound_sweep, "experiments.lemma2", None),
        (fields.field_to_csv, "fields.to_csv", None),
        (plots.emit_plot, "plots.emit", None),
        (cli.persist_results, "cli.persist", _on_persist),
    ]
    methods = [
        (grids.NeumannLaplacian, "__init__", "grids.lap_build", None),
        (grids.NeumannLaplacian, "apply", "grids.apply", None),
        (grids.NeumannLaplacian, "shifted_factor", "grids.factor", _on_factor),
        (fields.ResourceField, "__init__", "fields.resource_field", None),
    ]

    def wrapper(name, fn, hook):
        def traced(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs, hook)
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = fn.__doc__
        return traced

    undo = []
    modules = [m for key, m in sys.modules.items()
               if m is not None and (key == "kppfrag" or key.startswith("kppfrag."))]
    for fn, name, hook in functions:
        traced = wrapper(name, fn, hook)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    undo.append((module, attr, fn))
                    setattr(module, attr, traced)
    for cls, attr, name, hook in methods:
        fn = cls.__dict__[attr]
        undo.append((cls, attr, fn))
        setattr(cls, attr, wrapper(name, fn, hook))

    def uninstall():
        for owner, attr, fn in reversed(undo):
            setattr(owner, attr, fn)
    return uninstall


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list, run_id: int, wall: float) -> dict[str, float]:
    """Per-layer metrics of the pass whose spans carry `run_id`."""
    ids = [i for i, s in enumerate(spans) if s[RUN] == run_id]
    child_time: dict[int, float] = {}
    for i in ids:
        s = spans[i]
        if s[PARENT] >= 0:
            child_time[s[PARENT]] = child_time.get(s[PARENT], 0.0) + s[END] - s[START]

    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    self_s: dict[str, float] = {}
    for i in ids:
        name, t0, t1 = spans[i][NAME], spans[i][START], spans[i][END]
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + t1 - t0
        self_s[name] = self_s.get(name, 0.0) + t1 - t0 - child_time.get(i, 0.0)

    # grids calls seen inside each solve give its Picard steps and trials
    per_solve: dict[int, list[int]] = {}
    for i in ids:
        name = spans[i][NAME]
        if name not in ("grids.factor_solve", "grids.apply"):
            continue
        p = spans[i][PARENT]
        while p >= 0 and spans[p][NAME] != "solver":
            p = spans[p][PARENT]
        if p >= 0:
            counts = per_solve.setdefault(p, [0, 0])
            counts[0 if name == "grids.factor_solve" else 1] += 1

    newton = picard = trials = accepted = fallback = ok = fail = 0
    armijo_trials = armijo_accepted = 0
    starts = starts_failed = outer = 0
    terminations = dict.fromkeys(TERMINATIONS, 0)
    fill = []
    persist_bytes = 0
    for i in ids:
        name, info = spans[i][NAME], spans[i][INFO] or {}
        if name == "solver":
            parent = spans[i][PARENT]
            if parent >= 0 and spans[parent][NAME] == "optimizer.armijo":
                armijo_trials += 1
            if "error" in info:
                fail += 1
                continue
            solves, applies = per_solve.get(i, (0, 0))
            steps = solves - info["iters"]
            bursts = steps // info["burst"]
            ok += 1
            newton += info["iters"]
            picard += steps
            fallback += bool(info["fallback"])
            # one apply for the start residual and one after each rescue burst
            trials += applies - 1 - bursts
            accepted += info["iters"] - bursts
        elif name == "optimizer.armijo":
            armijo_accepted += bool(info.get("accepted"))
        elif name == "optimizer.optimize":
            for iters, label, failed in info.get("starts", ()):
                starts += 1
                starts_failed += bool(failed)
                outer += iters
                terminations[label] = terminations.get(label, 0) + 1
        elif name == "grids.factor" and "nnz" in info:
            fill.append(info["nnz"])
        elif name == "cli.persist":
            persist_bytes += info.get("bytes", 0)

    out: dict[str, float] = {}
    for key in PER_LAYER_UNITS:
        layer, _, field = key.rpartition(".")
        if field == "calls":
            out[key] = calls.get(layer, 0)
        elif field == "s":
            out[key] = total.get(layer, 0.0)
        elif field == "self_s":
            out[key] = self_s.get(layer, 0.0)
    out.update({
        "grids.factor.fill_nnz": sum(fill),
        "grids.factor.fill_nnz_max": max(fill, default=0),
        "grids.factor.share": _ratio(total.get("grids.factor", 0.0), wall),
        "solver.fail": fail,
        "solver.newton_iters": newton,
        "solver.picard_steps": picard,
        "solver.fallback_frac": _ratio(fallback, ok),
        "solver.linesearch_trials": trials,
        "solver.linesearch_accept_ratio": _ratio(accepted, trials),
        "optimizer.starts": starts,
        "optimizer.starts_failed": starts_failed,
        "optimizer.outer_iters": outer,
        "optimizer.armijo.trials": armijo_trials,
        "optimizer.armijo.accept_ratio": _ratio(armijo_accepted, armijo_trials),
        **{f"optimizer.termination.{t}": terminations[t] for t in TERMINATIONS},
        "cli.persist.bytes": persist_bytes,
        "trace.wall_s": wall,
        "trace.spans": len(ids),
    })
    return out
