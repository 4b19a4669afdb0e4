"""The benchmark's workloads: their inputs, one timed pass, and the checks
on what the pass produced.

A pass calls the package only through `kppfrag.cli.main` and the public
functions of its modules, one call at a time. `run` times the program
calls and returns their outputs; `check` verifies those outputs and is
not timed. Module attributes are looked up at call time, so the tracer's
wrappers and a test's substitutes are seen.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import tempfile
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

import checks
from kppfrag import cli, experiments, fields, grids, optimizer, solver

# F of the crenel layout at mu=0.01, m0=0.3, kappa=1 on the n x n grid,
# as the package computed it when this benchmark was defined
PINNED_CRENEL_F = {120: 0.3866063583890749, 240: 0.3866115461774627}


@dataclass
class Op:
    """One operation: a mu point of a sweep, or one top-level call."""

    name: str
    error: str | None = None


@dataclass
class Pass:
    wall: float
    F_mean: float
    ops: list
    # exact outputs; passes with one program seed must produce equal ones
    fingerprint: object = None
    detail: dict = field(default_factory=dict)


def _failed(op: Op, reason: str | None) -> None:
    if reason and op.error is None:
        op.error = reason


def _check_winner(counts, kappa, m0, mu, m_vals, best_F) -> str | None:
    """Admissibility of a sweep winner, then a re-solve whose residual is
    recomputed with the benchmark's own stencil.

    The re-solve starts from theta = kappa, a supersolution above the
    positive steady state. The solver's default start mean(m) lands on the
    trivial state theta ~ 0 for many winners at mu <= 0.01 (residual tiny,
    F ~ 1e-14), which would make the check about that start, not the winner.
    The reported best F came from warm-started solves along the ascent, so
    both solves stop at the solver's residual floor, about 2e-9 at mu=1 on
    1000 nodes; hence the 1e-7 agreement tolerance.
    """
    reason = checks.check_admissible(m_vals, counts, kappa, m0)
    if reason:
        return reason
    try:
        m = fields.ResourceField(grids.Grid(counts), m_vals, kappa, m0)
        state = solver.solve_steady_state(
            m, fields.ProblemParams(mu=mu, kappa=kappa, m0=m0),
            theta0=np.full(len(m_vals), kappa))
    except (fields.FieldError, solver.SolverError) as exc:
        return f"re-solve of the winner at mu={mu:g} failed: {exc}"
    F = solver.total_population(state)
    return (checks.check_residual(state.theta.values, m_vals, counts, mu)
            or checks.check_population(F, m0)
            or checks.check_close(f"re-solved F at mu={mu:g}", F, best_F, 1e-7))


class Sweep1D:
    name = "sweep-1d"
    seeded = True

    def __init__(self, tiny: bool = False):
        self.preset = "paper-1d-m03"
        self.extra = ["--grid", "65", "--mu", "1,0.1", "--starts", "2"] if tiny else []
        preset = cli.PRESETS[self.preset]
        self.counts = (65,) if tiny else tuple(preset["grid"])
        self.mus = [1.0, 0.1] if tiny else list(preset["mu"])
        self.kappa, self.m0 = preset["kappa"], preset["m0"]
        self.starts = 2 if tiny else cli.RunConfig.starts
        self.ops_per_pass = len(self.mus)

    def inputs(self) -> dict:
        return {}

    def run(self, inp: dict, seed: int, workdir: str) -> Pass:
        out = tempfile.mkdtemp(prefix="sweep-1d-", dir=workdir)
        try:
            argv = ["sweep", "--preset", self.preset, "--out", out, "--plot",
                    "--seed", str(seed), *self.extra]
            sink = io.StringIO()
            t0 = perf_counter()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                rc = cli.main(argv)
            wall = perf_counter() - t0
            if rc != 0:
                raise RuntimeError(f"kppfrag sweep exited {rc}: {sink.getvalue()[-300:]}")
            with open(os.path.join(out, "report.json"), encoding="utf-8") as fh:
                report = json.load(fh)
            with open(os.path.join(out, "manifest.json"), "rb") as fh:
                manifest = fh.read()
            winners = []
            for i, rec in enumerate(report["records"]):
                path = os.path.join(out, f"best_m_{i:02d}.csv")
                if rec["error"] is None and os.path.exists(path):
                    with open(path, encoding="utf-8") as fh:
                        winners.append(fields.field_from_csv(fh.read()).values)
                else:
                    winners.append(None)
        finally:
            shutil.rmtree(out, ignore_errors=True)
        records = report["records"]
        ops = [Op(f"mu={r['mu']:g}", None if r["error"] is None else r["error"])
               for r in records]
        best = [r["best_F"] for r in records]
        found = [F for F in best if F is not None]
        return Pass(
            wall=wall,
            F_mean=float(np.mean(found)) if found else 0.0,
            ops=ops,
            fingerprint=(manifest, tuple(best)),
            detail={"records": records, "winners": winners},
        )

    def check(self, p: Pass) -> None:
        for op, rec, m_vals in zip(p.ops, p.detail["records"], p.detail["winners"]):
            if op.error is None:
                _failed(op, "winner layout missing from the run directory"
                        if m_vals is None else
                        _check_winner(self.counts, self.kappa, self.m0, rec["mu"],
                                      m_vals, rec["best_F"]))
        if len(p.ops) != len(self.mus):
            for op in p.ops:
                _failed(op, f"report has {len(p.ops)} mu points, expected {len(self.mus)}")


class Sweep2D:
    name = "sweep-2d"
    seeded = True

    def __init__(self, tiny: bool = False):
        preset = cli.PRESETS["paper-2d-m03"]
        self.counts = (12, 12) if tiny else tuple(preset["grid"])
        self.mus = list(preset["mu"])
        self.kappa, self.m0 = preset["kappa"], preset["m0"]
        self.allow = preset["allow_underresolved"]
        # sized so one pass takes a few seconds; the outer-iteration cap
        # makes each start do the same number of ascent steps whatever the
        # seed, so pass time does not swing with the random start layouts
        self.starts = 1 if tiny else 2
        self.max_outer_iters = 2 if tiny else 6
        self.ops_per_pass = len(self.mus)

    def inputs(self) -> dict:
        return {"grid": grids.Grid(self.counts),
                "params": fields.ProblemParams(mu=self.mus[0], kappa=self.kappa,
                                               m0=self.m0)}

    def run(self, inp: dict, seed: int, workdir: str) -> Pass:
        cfg = optimizer.OptimConfig(starts=self.starts, seed=seed,
                                    max_outer_iters=self.max_outer_iters)
        t0 = perf_counter()
        report = experiments.fragmentation_sweep(
            inp["params"], inp["grid"], self.mus, cfg,
            allow_underresolved=self.allow)
        wall = perf_counter() - t0
        records = report.records
        ops = [Op(f"mu={r.mu:g}", r.error) for r in records]
        found = [r.best_F for r in records if r.best_F is not None]
        return Pass(
            wall=wall,
            F_mean=float(np.mean(found)) if found else 0.0,
            ops=ops,
            fingerprint=tuple(
                (r.best_F, None if r.best_m is None else r.best_m.values.tobytes())
                for r in records),
            detail={"records": records},
        )

    def check(self, p: Pass) -> None:
        for op, rec in zip(p.ops, p.detail["records"]):
            if op.error is None:
                _failed(op, _check_winner(self.counts, self.kappa, self.m0, rec.mu,
                                          rec.best_m.values, rec.best_F))


class Solve2DCold:
    name = "solve-2d-cold"
    seeded = False

    def __init__(self, tiny: bool = False):
        self.sizes = (16, 24) if tiny else (120, 240)
        self.mu, self.kappa, self.m0 = 0.01, 1.0, 0.3
        self.ops_per_pass = len(self.sizes)

    def inputs(self) -> dict:
        layouts = {}
        for n in self.sizes:
            grid = grids.Grid((n, n))
            layouts[n] = fields.make_crenel(grid, self.kappa, self.m0)
        return {"layouts": layouts,
                "params": fields.ProblemParams(mu=self.mu, kappa=self.kappa, m0=self.m0)}

    def run(self, inp: dict, seed: int, workdir: str) -> Pass:
        wall = 0.0
        ops, Fs, results = [], [], []
        for n, m in inp["layouts"].items():
            op = Op(f"solve {n}x{n}")
            ops.append(op)
            t0 = perf_counter()
            try:
                state = solver.solve_steady_state(m, inp["params"])
                F = solver.total_population(state)
            except solver.SolverError as exc:
                op.error = f"{type(exc).__name__}: {exc}"
                results.append(None)
                continue
            finally:
                wall += perf_counter() - t0
            Fs.append(F)
            results.append((n, m.values, state.theta.values, F))
        return Pass(
            wall=wall,
            F_mean=float(np.mean(Fs)) if Fs else 0.0,
            ops=ops,
            fingerprint=tuple(None if r is None else (r[3], r[2].tobytes())
                              for r in results),
            detail={"results": results},
        )

    def check(self, p: Pass) -> None:
        for op, res in zip(p.ops, p.detail["results"]):
            if res is None:
                continue
            n, m_vals, theta, F = res
            _failed(op, checks.check_residual(theta, m_vals, (n, n), self.mu))
            _failed(op, checks.check_population(F, self.m0))
            if n in PINNED_CRENEL_F:
                _failed(op, checks.check_close(f"F on {n}x{n}", F, PINNED_CRENEL_F[n],
                                               checks.PIN_TOL))


class Identity1D:
    name = "identity-1d"
    seeded = False

    def __init__(self, tiny: bool = False):
        self.n = 65 if tiny else 1025
        self.k_max = 2 if tiny else 3
        self.mu, self.kappa, self.m0 = 0.05, 1.0, 0.3
        self.ops_per_pass = 2

    def inputs(self) -> dict:
        grid = grids.Grid((self.n,))
        return {"m": fields.make_crenel(grid, self.kappa, self.m0),
                "params": fields.ProblemParams(mu=self.mu, kappa=self.kappa, m0=self.m0)}

    def run(self, inp: dict, seed: int, workdir: str) -> Pass:
        t0 = perf_counter()
        rows = experiments.periodisation_check(inp["m"], inp["params"], self.k_max)
        eta, bound_rows = experiments.lemma2_bound_sweep(
            inp["m"], inp["params"], self.mu, self.k_max)
        wall = perf_counter() - t0
        return Pass(
            wall=wall,
            F_mean=float(np.mean([r.F_k for r in rows])),
            ops=[Op("periodisation_check"), Op("lemma2_bound_sweep")],
            fingerprint=(tuple(r.F_k for r in rows), eta,
                         tuple(r.min_gap for r in bound_rows)),
            detail={"rows": rows, "bound_rows": bound_rows},
        )

    def check(self, p: Pass) -> None:
        periodise, lemma2 = p.ops
        rows = p.detail["rows"]
        if len(rows) != self.k_max + 1:
            _failed(periodise, f"periodisation table has {len(rows)} rows")
        worst = max(r.deviation for r in rows)
        if not worst <= checks.IDENTITY_TOL:
            _failed(periodise, f"squeeze deviation {worst:.3e} above {checks.IDENTITY_TOL:g}")
        for r in rows:
            _failed(periodise, checks.check_population(r.F_k, self.m0))
        bad = [r.k for r in p.detail["bound_rows"] if not r.bound_ok]
        if bad:
            _failed(lemma2, f"uniform bound fails at k={bad}")


WORKLOADS = {w.name: w for w in (Sweep1D, Sweep2D, Solve2DCold, Identity1D)}
