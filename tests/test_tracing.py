"""The benchmark's span tracer (perfbench/tracing.py) still sees every
shifted solve: it counts them by wrapping NeumannLaplacian.shifted_factor,
so a solve that bypasses that factory would silently corrupt its counts.
Likewise it counts Laplacian builds by wrapping NeumannLaplacian.__init__,
which must stay the construction point even where the per-grid operators
come from the cache."""
import sys
from pathlib import Path
from time import perf_counter

from kppfrag import Grid, NeumannLaplacian, ProblemParams, make_crenel
import kppfrag.grids as grids_mod
import kppfrag.solver as solver_mod

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import tracing  # noqa: E402


def test_traced_factor_counts_match_shifted_solves(monkeypatch):
    solves = []
    real_solve = NeumannLaplacian.solve_shifted

    def counting_solve(self, *args, **kwargs):
        solves.append(1)
        return real_solve(self, *args, **kwargs)

    monkeypatch.setattr(NeumannLaplacian, "solve_shifted", counting_solve)
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    t0 = perf_counter()
    try:
        for counts, mu in (((33,), 0.05), ((12, 12), 0.1)):
            # looked up on the module at call time, so the traced wrapper runs
            solver_mod.solve_steady_state(make_crenel(Grid(counts), 1.0, 0.3),
                                          ProblemParams(mu=mu, kappa=1.0, m0=0.3))
    finally:
        uninstall()
    metrics = tracing.layer_metrics(tracer.spans, tracer.run_id, perf_counter() - t0)
    assert metrics["solver.calls"] == 2
    assert metrics["grids.factor.calls"] > 0
    assert metrics["grids.factor.calls"] == metrics["grids.factor_solve.calls"] == len(solves)
    assert metrics["solver.picard_steps"] >= 0


def test_traced_lap_builds_count_constructions_through_the_cache(monkeypatch):
    built = []
    real_init = NeumannLaplacian.__init__

    def counting_init(self, grid):
        built.append(grid.counts)
        real_init(self, grid)

    monkeypatch.setattr(NeumannLaplacian, "__init__", counting_init)
    grids_mod._grid_operators.cache_clear()
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    t0 = perf_counter()
    try:
        for counts, mu in (((12, 12), 0.1), ((12, 12), 0.05), ((33,), 0.05)):
            solver_mod.solve_steady_state(make_crenel(Grid(counts), 1.0, 0.3),
                                          ProblemParams(mu=mu, kappa=1.0, m0=0.3))
        NeumannLaplacian(Grid((33,)))
    finally:
        uninstall()
    metrics = tracing.layer_metrics(tracer.spans, tracer.run_id, perf_counter() - t0)
    assert grids_mod._grid_operators.cache_info().hits == 2
    assert metrics["grids.lap_build.calls"] == len(built) == 4


def test_traced_restart_solve_counts():
    # the tracer infers a solve's Picard steps as its factor solves less its
    # Newton steps: a restarted solve has one factor solve per Newton step of
    # both runs, so it reads no Picard step and counts as one fallback
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    t0 = perf_counter()
    try:
        state = solver_mod.solve_steady_state(make_crenel(Grid((240, 240)), 1.0, 0.3),
                                              ProblemParams(mu=0.01, kappa=1.0, m0=0.3))
    finally:
        uninstall()
    metrics = tracing.layer_metrics(tracer.spans, tracer.run_id, perf_counter() - t0)
    assert state.used_fallback
    assert metrics["solver.calls"] == 1
    assert metrics["solver.picard_steps"] == 0
    assert metrics["solver.fallback_frac"] == 1.0
    assert metrics["solver.newton_iters"] == state.iterations
