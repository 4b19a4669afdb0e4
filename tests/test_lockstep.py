"""optimize advances its starts in lockstep on stacked rows. The reference
here is the per-start ascent it replaced: each start run alone through the
one-row public functions, one call at a time. Every StartRecord and the
winner's bytes must be equal, a start that fails mid-ascent must fail
alone, and the chunks of a process pool must not change a bit."""
import numpy as np
import pytest

from kppfrag import (
    DegenerateSample,
    Grid,
    OptimConfig,
    ProblemParams,
    SingularAdjoint,
    SolverError,
    StartRecord,
    armijo_ascent_step,
    best_perturbation,
    objective_gradient,
    optimize,
    random_fourier_guess,
    solve_adjoint,
    solve_steady_state,
    total_population,
)
import kppfrag.grids as grids_mod
import kppfrag.optimizer as optimizer_mod


def reference_start(params, grid, cfg, start_index):
    """One start of the vertex ascent, alone: (StartRecord, final m or None)."""
    try:
        m_cur = random_fourier_guess(grid, params.kappa, params.m0,
                                     optimizer_mod._start_seed(cfg.seed, start_index))
        state = solve_steady_state(m_cur, params)
        F_cur = total_population(state)
        trajectory = []
        termination = "max_iters"
        for _ in range(cfg.max_outer_iters):
            p = solve_adjoint(m_cur, state.theta, params)
            g = objective_gradient(state.theta, p)
            xi, lp_value = best_perturbation(g, m_cur)
            if lp_value < optimizer_mod.STOP_LP_VALUE:
                trajectory.append((F_cur, 0.0, lp_value))
                termination = "lp_value"
                break
            # a rejected step returns m_cur and F_cur unchanged
            m_cur, F_cur, step, state = armijo_ascent_step(
                m_cur, xi, F_cur, lp_value, params, theta0=state.theta.values)
            trajectory.append((F_cur, step, lp_value))
            if step == 0.0:
                termination = "step_zero"
                break
        return StartRecord(start_index=start_index, F=F_cur, termination=termination,
                           trajectory=trajectory), m_cur
    except (SolverError, SingularAdjoint, DegenerateSample) as exc:
        return StartRecord(start_index=start_index, F=float("-inf"), termination="failed",
                           trajectory=[], error=f"{type(exc).__name__}: {exc}"), None


def assert_matches_reference(params, grid, cfg):
    expect = [reference_start(params, grid, cfg, j) for j in range(cfg.starts)]
    run = optimize(params, grid, cfg)
    assert run.starts == [rec for rec, _ in expect]
    best = max((o for o in expect if not o[0].failed), key=lambda o: o[0].F)
    assert run.start_index == best[0].start_index
    assert run.best_m.values.tobytes() == best[1].values.tobytes()
    return run


@pytest.mark.parametrize("mu", [1.0, 0.01, 0.001])
@pytest.mark.parametrize("n", [33, 1000])
def test_lockstep_1d_matches_the_per_start_reference(n, mu):
    run = assert_matches_reference(ProblemParams(mu=mu, kappa=1.0, m0=0.3), Grid((n,)),
                                   OptimConfig(starts=4, seed=2))
    # the starts end at different outer steps, so rows leave the stack early
    assert len({rec.iterations for rec in run.starts}) > 1


@pytest.mark.parametrize("n, mu, steps", [(12, 0.05, 20), (33, 0.01, 6)])
def test_lockstep_2d_matches_the_per_start_reference(n, mu, steps):
    assert_matches_reference(ProblemParams(mu=mu, kappa=1.0, m0=0.3), Grid((n, n)),
                             OptimConfig(starts=3, seed=1, max_outer_iters=steps))


def test_a_start_failing_mid_ascent_fails_alone(monkeypatch):
    # the 1D solve fails on one row exactly where start 1 makes its third
    # adjoint solve (rhs = 1): in the stacked solve that failure must land on
    # that row, and every other start must keep its reference record
    grid, params = Grid((129,)), ProblemParams(mu=0.01, kappa=1.0, m0=0.3)
    cfg = OptimConfig(starts=4, seed=0)
    real_gtsv = grids_mod._Banded1D._gtsv
    adjoint_diags = []

    def recording(self, diag, rows):
        adjoint_diags.extend(d.copy() for d, r in zip(diag, rows) if (r == 1.0).all())
        return real_gtsv(self, diag, rows)

    with monkeypatch.context() as mp:
        mp.setattr(grids_mod._Banded1D, "_gtsv", recording)
        healthy = reference_start(params, grid, cfg, 1)[0]
    assert healthy.iterations > 3
    target = adjoint_diags[2].tobytes()

    def failing(self, diag, rows):
        if any(d.tobytes() == target and (r == 1.0).all() for d, r in zip(diag, rows)):
            raise np.linalg.LinAlgError("forced failure")
        return real_gtsv(self, diag, rows)

    monkeypatch.setattr(grids_mod._Banded1D, "_gtsv", failing)
    run = assert_matches_reference(params, grid, cfg)
    assert [rec.failed for rec in run.starts] == [False, True, False, False]
    assert run.starts[1].error == "SingularAdjoint: adjoint solve failed: forced failure"


def reference_lp(g, m_vals, kappa, w):
    """The one-row threshold LP as it was written before rows: ties in rate
    go to the lower node index through lexsort."""
    n = len(g)
    rate = g / w
    order = np.lexsort((np.arange(n), -rate))
    up = (w * (kappa - m_vals))[order]
    dn = (w * m_vals)[order]
    cum = np.cumsum(up) - (float(dn.sum()) - np.cumsum(dn))
    pivot = int(np.argmax(cum >= 0.0))
    zeta_sorted = np.where(np.arange(n) <= pivot, up, -dn)
    zeta_sorted[pivot] = float(dn[pivot + 1:].sum()) - float(up[:pivot].sum())
    zeta = np.empty(n)
    zeta[order] = zeta_sorted
    xi = zeta / w
    value = float(g @ xi)
    return (np.zeros(n), 0.0) if value <= 0.0 else (xi, value)


def test_stacked_lp_breaks_ties_as_the_one_row_lp():
    # rates drawn from three values, so most nodes tie: the stacked stable
    # sort must order each tie by node index, as lexsort did
    grid = Grid((40,))
    w = grid.node_weights
    rng = np.random.default_rng(9)
    g = w * rng.integers(0, 3, (6, 40))
    m_vals = np.vstack([random_fourier_guess(grid, 1.0, 0.3, s).values for s in range(6)])
    xi, values = optimizer_mod._lp_rows(w, g, m_vals, 1.0)
    for i in range(6):
        ref_xi, ref_value = reference_lp(g[i], m_vals[i], 1.0, w)
        assert values[i] == ref_value > 0.0 and xi[i].tobytes() == ref_xi.tobytes()


@pytest.mark.parametrize("threads", ["2", "3"])
def test_uneven_pool_chunks_match_serial(monkeypatch, threads):
    # 5 starts in 2 or 3 contiguous chunks of unequal size
    params, grid = ProblemParams(mu=0.1, kappa=1.0, m0=0.3), Grid((65,))
    cfg = OptimConfig(starts=5, seed=3)
    serial = optimize(params, grid, cfg)
    monkeypatch.setenv("KPPFRAG_THREADS", threads)
    pooled = optimize(params, grid, cfg)
    assert pooled.starts == serial.starts
    assert pooled.best_m.values.tobytes() == serial.best_m.values.tobytes()
