"""The run-owned row stacks of solver.steady_rows and optimizer._ascent.

A run's buffers are made once and reused by every step: when rows end,
the rows that go on move to the front in place. A row left behind by a
missed move, or a buffer read before it is written, would change some
row's bytes, so stacks of different sizes on different grids are solved
again and again in one process and checked against fresh one-row solves.
The traced heap peaks of single solves and of optimize are bounded in
N-vectors (8 N bytes) and MiB."""
import tracemalloc

import numpy as np
import pytest

from kppfrag import (
    Grid,
    NoConvergence,
    OptimConfig,
    ProblemParams,
    ScalarField,
    make_crenel,
    optimize,
    random_fourier_guess,
    solve_steady_state,
)
import kppfrag.solver as solver_mod

MU = 0.01
GRIDS = [Grid((1000,)), Grid((60, 60)), Grid((33, 17))]


def _rows(grid):
    """Resource rows whose solves end at different steps: random layouts
    that converge from mean(m), a crenel that stalls at its first step and
    restarts from max(m), a NaN row whose every linear solve fails, and a
    constant that is its own steady state at step 0."""
    rows = [random_fourier_guess(grid, 1.0, 0.3, seed).values for seed in range(4)]
    return rows + [make_crenel(grid, 1.0, 0.3).values, np.full(grid.num_nodes, np.nan),
                   np.full(grid.num_nodes, 0.3)]


def _alone(grid, m_vals):
    """What a fresh one-row solve gives: (theta bytes, residual, steps,
    restarted) or the message of its NoConvergence. A NaN resource is no
    ScalarField, so its row is the one-row steady_rows that
    solve_steady_state runs."""
    if not np.isfinite(m_vals).all():
        with np.errstate(invalid="ignore"):
            error = solver_mod.steady_rows(grid, m_vals[None], MU)[4][0]
        assert isinstance(error, NoConvergence)
        return str(error)
    try:
        state = solve_steady_state(ScalarField(grid, m_vals),
                                   ProblemParams(mu=MU, kappa=1.0, m0=0.3))
    except NoConvergence as exc:
        return str(exc)
    return (state.theta.values.tobytes(), state.residual_norm, state.iterations,
            state.used_fallback)


# the row order of each stack: different sizes, the failing and the
# restarting row at different positions, so rows end and move everywhere
ORDERS = [[0, 5, 4, 1, 6, 2, 3], [4, 2], [3, 1, 5, 0], [2], [6, 5, 4, 3, 2, 1, 0]]


def test_reused_stacks_keep_every_row_as_alone(monkeypatch):
    monkeypatch.delenv("KPPFRAG_THREADS", raising=False)
    rows = {grid: _rows(grid) for grid in GRIDS}
    alone = {grid: [_alone(grid, m) for m in rows[grid]] for grid in GRIDS}
    for grid in GRIDS:
        assert alone[grid][4][3] and isinstance(alone[grid][5], str)
        assert "linear solve failed" in alone[grid][5]
        assert alone[grid][6][2] == 0 and alone[grid][0][2] > 2
    params = ProblemParams(mu=0.05, kappa=1.0, m0=0.3)
    cfgs = {GRIDS[0]: OptimConfig(starts=6, seed=2), GRIDS[2]: OptimConfig(starts=3, seed=1)}
    first_runs = {}
    for round_ in range(2):
        for order in ORDERS:
            for grid in GRIDS:
                m_vals = np.vstack([rows[grid][k] for k in order])
                m_vals.setflags(write=False)      # read, never written
                with np.errstate(invalid="ignore"):
                    theta, rnorm, iterations, restarted, errors = solver_mod.steady_rows(
                        grid, m_vals, MU)
                for i, k in enumerate(order):
                    if isinstance(alone[grid][k], str):
                        assert str(errors[i]) == alone[grid][k]
                    else:
                        assert errors[i] is None
                        assert (theta[i].tobytes(), rnorm[i], iterations[i],
                                restarted[i]) == alone[grid][k]
            for grid, cfg in cfgs.items():
                run = optimize(params, grid, cfg)
                key = (grid, cfg)
                first_runs.setdefault(key, run)
                assert run.starts == first_runs[key].starts
                assert run.best_m.values.tobytes() == first_runs[key].best_m.values.tobytes()


def _traced_peak(run) -> int:
    """Bytes of the traced heap peak of run() above what was traced before."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        run()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()


@pytest.mark.parametrize("counts, limit", [((1000,), 9.53), ((120, 120), 13.55)])
def test_cold_solve_heap_peak(counts, limit):
    # a warm grid (operators built), then one cold crenel solve, which
    # restarts from max(m): 8.53 and 12.55 N-vectors; the limits add one
    # N-vector and stay at or under the 9.6 and 13.55 of the (S, N) arrays
    # made and freed on every Newton step that the run buffers replaced
    m = make_crenel(Grid(counts), 1.0, 0.3)
    params = ProblemParams(mu=0.01, kappa=1.0, m0=0.3)
    solve_steady_state(m, params)
    peak = _traced_peak(lambda: solve_steady_state(m, params))
    assert peak <= limit * 8 * m.grid.num_nodes


@pytest.mark.parametrize("mu, limit_mib", [(0.001, 2.418), (0.1, 2.196)])
def test_optimize_heap_peak(monkeypatch, mu, limit_mib):
    # 20 starts in one stack on 1000 nodes, second call on the same grid:
    # 2.148 and 2.025 MiB; the per-step arrays and the Newton result made
    # when the first row ended took 2.700 and 2.196
    monkeypatch.delenv("KPPFRAG_THREADS", raising=False)
    grid = Grid((1000,))
    run = lambda: optimize(ProblemParams(mu=mu, kappa=1.0, m0=0.3), grid,  # noqa: E731
                           OptimConfig(starts=20, seed=0))
    run()
    assert _traced_peak(run) <= limit_mib * 2**20
