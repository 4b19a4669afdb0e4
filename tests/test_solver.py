import numpy as np
import pytest

from kppfrag import (
    Grid,
    NeumannLaplacian,
    NoConvergence,
    NonPositiveMeanResource,
    ProblemParams,
    ScalarField,
    SolverConfig,
    OptimConfig,
    make_crenel,
    mean,
    optimize,
    random_fourier_guess,
    solve_steady_state,
    total_population,
)
import kppfrag.grids as grids_mod
import kppfrag.solver as solver_mod
from conftest import constant_resource, l1_distance, lou_identity_residual

# regression constants frozen from grid-refinement studies during oracle
# construction (N=4000/8000 Richardson limit for the mu=0.01 crenel)
F_CRENEL_N1000_MU001 = 0.386613180689
F_CRENEL_RICHARDSON = 0.386613280835
F_CRENEL_N1000_MU1000 = 0.300014700638
LOU_N1000_MU001 = 6.9099e-5
LOU_N2000_MU001 = 3.4635e-5


@pytest.mark.parametrize("m0", [0.3, 0.6])
@pytest.mark.parametrize("mu", [1e-3, 1.0, 1e3])
def test_constant_resource_exact(m0, mu):
    g = Grid((257,))
    m = constant_resource(g, m0)
    state = solve_steady_state(m, ProblemParams(mu=mu, kappa=1.0, m0=m0))
    assert abs(total_population(state) - m0) <= 1e-10
    assert state.iterations <= 2
    assert not state.used_fallback


def test_constant_solution_at_interior_value():
    # theta == m for any constant m (kappa chosen above it)
    g = Grid((65, 33))
    m = constant_resource(g, 1.0, kappa=2.0)
    state = solve_steady_state(m, ProblemParams(mu=0.5, kappa=2.0, m0=1.0))
    assert np.max(np.abs(state.theta.values - 1.0)) <= 1e-12


def test_crenel_oracle_value(crenel_state_mu001):
    _, _, state = crenel_state_mu001
    F = total_population(state)
    assert F == pytest.approx(F_CRENEL_N1000_MU001, abs=1e-9)
    assert abs(F - F_CRENEL_RICHARDSON) <= 1e-4


def test_max_principle(crenel_state_mu001):
    _, _, state = crenel_state_mu001
    th = state.theta.values
    assert float(np.min(th)) > 0.0
    assert float(np.max(th)) <= 1.0 + 1e-8


def test_population_never_below_budget(crenel_state_mu001):
    m, _, state = crenel_state_mu001
    assert total_population(state) >= m.m0 - 1e-8


def test_weighted_balance_identity_exact(crenel_state_mu001):
    # dividing the scheme by theta and summing with the trapezoid weights
    # telescopes the Laplacian into a sum over edges, giving
    #   F - m0 = (mu / sum w) * sum_edges (d theta)^2 / (theta theta' h^2)
    # exactly at the discrete solution; machine-precision dual check of the
    # O(h) diagnostic below
    m, params, state = crenel_state_mu001
    th = state.theta.values
    g = state.theta.grid
    (h,) = g.spacings
    w = g.node_weights
    edge_sum = float(np.sum(np.diff(th) ** 2 / (th[1:] * th[:-1]) / h**2))
    lhs = total_population(state) - mean(m)
    rhs = params.mu * edge_sum / float(w.sum())
    assert abs(lhs - rhs) <= 1e-12


def test_lou_identity_constant_zero():
    g = Grid((129,))
    m = constant_resource(g, 0.3)
    params = ProblemParams(mu=0.7, kappa=1.0, m0=0.3)
    state = solve_steady_state(m, params)
    # flat profile: both quadratures vanish up to summation rounding
    assert lou_identity_residual(state, m, params) <= 1e-13


def test_lou_identity_crenel_and_halving(crenel_state_mu001):
    m1000, params, s1000 = crenel_state_mu001
    r1000 = lou_identity_residual(s1000, m1000, params)
    assert r1000 <= 5e-3
    assert r1000 == pytest.approx(LOU_N1000_MU001, rel=0.02)
    m2000 = make_crenel(Grid((2000,)), 1.0, 0.3)
    s2000 = solve_steady_state(m2000, params)
    r2000 = lou_identity_residual(s2000, m2000, params)
    assert r2000 == pytest.approx(LOU_N2000_MU001, rel=0.02)
    assert 0.45 <= r2000 / r1000 <= 0.55       # O(h) halving


def test_small_mu_profile_convergence():
    # L1 distance to m shrinks as layers sharpen
    grid = Grid((1000,))
    m = make_crenel(grid, 1.0, 0.3)
    dists = []
    for mu in (1e-2, 1e-3, 1e-4):
        state = solve_steady_state(m, ProblemParams(mu=mu, kappa=1.0, m0=0.3))
        dists.append(l1_distance(state.theta, m))
    assert dists[0] > dists[1] > dists[2]


def test_large_mu_limit(crenel_1000):
    state = solve_steady_state(crenel_1000, ProblemParams(mu=1e3, kappa=1.0, m0=0.3))
    F = total_population(state)
    assert abs(F - 0.3) <= 1e-2
    assert F == pytest.approx(F_CRENEL_N1000_MU1000, rel=1e-6)


def test_fallback_engages_at_small_mu(crenel_state_mu001):
    # the constant start is far from the layered profile: the first full
    # Newton step is rejected and the solve restarts from max(m)
    _, _, state = crenel_state_mu001
    assert state.used_fallback


def test_nonpositive_mean_rejected():
    g = Grid((9,))
    dead = ScalarField(g, np.zeros(9))
    with pytest.raises(NonPositiveMeanResource):
        solve_steady_state(dead, ProblemParams(mu=1.0, kappa=1.0, m0=0.3))


def test_no_convergence_raises_with_residual(monkeypatch):
    m = make_crenel(Grid((257,)), 1.0, 0.3)
    monkeypatch.setattr(solver_mod, "MAX_NEWTON_ITERS", 2)
    with pytest.raises(NoConvergence) as exc:
        solve_steady_state(m, ProblemParams(mu=0.001, kappa=1.0, m0=0.3))
    assert exc.value.last_residual > 0.0


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(newton_tol=0.0)


def test_bit_determinism():
    m = make_crenel(Grid((513,)), 1.0, 0.3)
    params = ProblemParams(mu=0.05, kappa=1.0, m0=0.3)
    a = solve_steady_state(m, params)
    b = solve_steady_state(m, params)
    assert np.array_equal(a.theta.values, b.theta.values)
    assert a.residual_norm == b.residual_norm
    assert a.iterations == b.iterations


def test_warm_start_converges_to_same_state():
    m = make_crenel(Grid((257,)), 1.0, 0.3)
    params = ProblemParams(mu=0.1, kappa=1.0, m0=0.3)
    cold = solve_steady_state(m, params)
    warm = solve_steady_state(m, params, theta0=cold.theta.values)
    assert warm.iterations <= cold.iterations
    assert np.max(np.abs(warm.theta.values - cold.theta.values)) <= 1e-9


def _supersolution_solve(m, params):
    return solve_steady_state(m, params, theta0=np.full(m.grid.num_nodes, m.kappa))


@pytest.mark.parametrize("n", [16, 24])
def test_default_start_avoids_trivial_state_2d(n):
    # from mean(m) Newton lands on theta ~ 1e-14 here; the solve must
    # notice mean(theta) < mean(m) and restart from max(m)
    m = make_crenel(Grid((n, n)), 1.0, 0.3)
    params = ProblemParams(mu=0.01, kappa=1.0, m0=0.3)
    state = solve_steady_state(m, params)
    ref = _supersolution_solve(m, params)
    assert total_population(state) >= 0.3
    assert abs(total_population(state) - total_population(ref)) <= 1e-12
    assert np.max(np.abs(state.theta.values - ref.theta.values)) <= 1e-9


def test_default_start_avoids_trivial_state_1d_winner():
    # the winning layout of this small 1D run used to re-solve cold to theta ~ 0
    params = ProblemParams(mu=0.01, kappa=1.0, m0=0.3)
    run = optimize(params, Grid((65,)), OptimConfig(starts=2, seed=1))
    state = solve_steady_state(run.best_m, params)
    assert abs(total_population(state) - run.best_F) <= 1e-9
    assert total_population(state) >= 0.3


def test_inexact_newton_matches_floor_only_solve(monkeypatch):
    # Newton's forcing term only changes how far each 2D Krylov solve runs:
    # the converged state meets the same residual gate and gives the same F
    m = make_crenel(Grid((60, 60)), 1.0, 0.3)
    params = ProblemParams(mu=0.01, kappa=1.0, m0=0.3)
    rtols = []
    real_solve = NeumannLaplacian.solve_shifted

    def recording_solve(self, mu, diag, rhs, rtol=None):
        rtols.append(rtol)
        return real_solve(self, mu, diag, rhs, rtol)

    monkeypatch.setattr(NeumannLaplacian, "solve_shifted", recording_solve)
    inexact = solve_steady_state(m, params)
    floor = grids_mod.residual_floor(m.grid, params.mu)
    assert any(r is not None and r > floor for r in rtols)

    def floor_only_solve(self, mu, diag, rhs, rtol=None):
        return real_solve(self, mu, diag, rhs)

    monkeypatch.setattr(NeumannLaplacian, "solve_shifted", floor_only_solve)
    reference = solve_steady_state(m, params)
    assert abs(total_population(inexact) - total_population(reference)) <= 1e-12
    theta = inexact.theta.values
    gate = max(SolverConfig().newton_tol, floor * np.max(np.abs(theta)))
    assert inexact.residual_norm <= gate
    assert np.max(np.abs(
        params.mu * NeumannLaplacian(m.grid).apply(theta) + theta * (m.values - theta)
    )) <= gate


def _newton_runs(monkeypatch):
    """Record every Newton run: its min_step, its steps, whether it stalled,
    and the residual sup norm and the iterate of each residual evaluation."""
    runs = []
    real_newton, real_residual = solver_mod._newton, solver_mod._residual

    def recording_newton(*args):
        run = {"min_step": args[-1], "norms": [], "iterates": []}
        runs.append(run)
        out = real_newton(*args)
        run["steps"], run["stalled"] = out[2], out[3]
        return out

    def recording_residual(lap, theta, m_vals, mu):
        r = real_residual(lap, theta, m_vals, mu)
        runs[-1]["norms"].append(float(np.abs(r).max()))
        runs[-1]["iterates"].append(theta.copy())
        return r

    monkeypatch.setattr(solver_mod, "_newton", recording_newton)
    monkeypatch.setattr(solver_mod, "_residual", recording_residual)
    return runs


def _line_search_stalled(norms):
    """Whether a damped run ended on one step's full set of halvings down
    to DAMPING_FLOOR, none of which lowered the residual."""
    trials = 1 + round(-np.log2(solver_mod.DAMPING_FLOOR))
    return len(norms) > trials and min(norms[-trials:]) >= min(norms[:-trials])


@pytest.mark.parametrize("counts", [(1000,), (60, 60), (120, 120)])
def test_cold_crenel_restarts_once_after_first_rejected_full_step(monkeypatch, counts):
    m = make_crenel(Grid(counts), 1.0, 0.3)
    runs = _newton_runs(monkeypatch)
    state = solve_steady_state(m, ProblemParams(mu=0.01, kappa=1.0, m0=0.3))
    assert [run["min_step"] for run in runs] == [1.0, None]
    cold, restart = runs
    # full steps only, until one is rejected: one trial per step
    assert cold["stalled"] and len(cold["norms"]) == 1 + cold["steps"]
    assert cold["norms"][-1] >= cold["norms"][-2]
    assert restart["iterates"][0].tobytes() == np.full(m.grid.num_nodes, 1.0).tobytes()
    assert state.used_fallback
    assert state.iterations == cold["steps"] + restart["steps"] == 8


def test_warm_solve_backtracks_without_restarting(monkeypatch):
    # the mirrored state is a poor warm start at mu = 0.1: its line search
    # rejects full steps, yet never stalls
    m = make_crenel(Grid((1000,)), 1.0, 0.3)
    params = ProblemParams(mu=0.1, kappa=1.0, m0=0.3)
    cold = solve_steady_state(m, params)
    runs = _newton_runs(monkeypatch)
    warm = solve_steady_state(m, params, theta0=cold.theta.values[::-1].copy())
    assert len(runs) == 1 and runs[0]["min_step"] == solver_mod.DAMPING_FLOOR
    assert len(runs[0]["norms"]) > 1 + runs[0]["steps"]
    assert not runs[0]["stalled"] and not warm.used_fallback
    # both solves stop under the residual's rounding floor, 7e-10 max|theta|
    # here, not at newton_tol
    assert abs(total_population(warm) - total_population(cold)) <= 1e-9


def test_warm_solve_restarts_when_its_line_search_stalls(monkeypatch):
    m = make_crenel(Grid((1000,)), 1.0, 0.3)
    params = ProblemParams(mu=0.01, kappa=1.0, m0=0.3)
    cold = solve_steady_state(m, params)
    runs = _newton_runs(monkeypatch)
    warm = solve_steady_state(m, params, theta0=cold.theta.values[::-1].copy())
    assert [run["min_step"] for run in runs] == [solver_mod.DAMPING_FLOOR, None]
    assert runs[0]["stalled"] and _line_search_stalled(runs[0]["norms"])
    assert warm.used_fallback
    assert warm.iterations == runs[0]["steps"] + runs[1]["steps"]
    assert abs(total_population(warm) - total_population(cold)) <= 1e-12


def test_warm_solve_on_the_trivial_state_restarts(monkeypatch):
    # from a start shaped against the resource, damped Newton converges to
    # theta ~ 0 without a stall: the mean check alone triggers the restart
    m = make_crenel(Grid((1000,)), 1.0, 0.3)
    params = ProblemParams(mu=0.01, kappa=1.0, m0=0.3)
    runs = _newton_runs(monkeypatch)
    warm = solve_steady_state(m, params, theta0=1.01 - m.values)
    assert [run["min_step"] for run in runs] == [solver_mod.DAMPING_FLOOR, None]
    assert not runs[0]["stalled"]
    assert m.grid.node_weights @ runs[0]["iterates"][-1] < 0.3 * m.grid.node_weights.sum()
    assert warm.used_fallback
    assert total_population(warm) == pytest.approx(F_CRENEL_N1000_MU001, abs=1e-9)


@pytest.mark.parametrize("mu", [0.1, 0.01])
def test_full_step_cold_solves_keep_the_constant_start(monkeypatch, mu):
    # random-Fourier layouts, the optimizer's cold starts, take only full
    # Newton steps: one run, with the bytes of damped Newton from mean(m)
    grid = Grid((120, 120))
    params = ProblemParams(mu=mu, kappa=1.0, m0=0.3)
    for seed in range(3):
        m = random_fourier_guess(grid, 1.0, 0.3, seed)
        lap = NeumannLaplacian(grid)
        theta, rnorm, steps, stalled = solver_mod._newton(
            lap, np.full(grid.num_nodes, mean(m)), m.values, mu, SolverConfig(),
            grids_mod.residual_floor(grid, mu), solver_mod.DAMPING_FLOOR)
        with monkeypatch.context() as mp:
            runs = _newton_runs(mp)
            state = solve_steady_state(m, params, lap=lap)
        assert len(runs) == 1 and not stalled
        assert len(runs[0]["norms"]) == 1 + runs[0]["steps"]
        assert state.theta.values.tobytes() == theta.tobytes()
        assert (state.residual_norm, state.iterations, state.used_fallback) == (
            rnorm, steps, False)


@pytest.mark.parametrize("mu", [0.1, 0.01])
@pytest.mark.parametrize("counts", [(120, 120), (127, 65)])
def test_hard_cold_start_reaches_the_supersolution_state(counts, mu):
    # the crenel's first full Newton step fails at both mu; the restart is
    # Newton from max(m) = kappa, so it gives the bytes of a solve warm
    # started there, plus the one rejected step
    m = make_crenel(Grid(counts), 1.0, 0.3)
    params = ProblemParams(mu=mu, kappa=1.0, m0=0.3)
    state = solve_steady_state(m, params)
    ref = _supersolution_solve(m, params)
    assert state.used_fallback and not ref.used_fallback
    assert state.theta.values.tobytes() == ref.theta.values.tobytes()
    assert state.iterations == ref.iterations + 1


@pytest.mark.parametrize("mu", [0.1, 0.01, 1e-3, 1e-4])
def test_restart_iterates_never_rise_in_1d(monkeypatch, mu):
    # Newton-Fourier: undamped Newton from the supersolution max(m) decreases
    # monotonically to the positive state; the direct 1D solve keeps it so
    # to rounding
    m = make_crenel(Grid((1000,)), 1.0, 0.3)
    runs = _newton_runs(monkeypatch)
    state = solve_steady_state(m, ProblemParams(mu=mu, kappa=1.0, m0=0.3))
    assert state.used_fallback and len(runs) == 2
    iterates = runs[1]["iterates"]
    assert len(iterates) == runs[1]["steps"] + 1
    for before, after in zip(iterates, iterates[1:]):
        assert np.all(after <= before + 2.0 * np.spacing(before))
    assert np.all(iterates[-1] == state.theta.values)
    assert float(np.min(state.theta.values)) > 0.0


@pytest.mark.parametrize("counts", [(1000,), (60, 60), (120, 120), (240, 240)])
def test_small_mu_crenel_needs_no_rescue(counts):
    # a hard start far from the layered profile: at most 10 Newton steps in
    # all, one restart, and a positive state well above the clip
    m = make_crenel(Grid(counts), 1.0, 0.3)
    state = solve_steady_state(m, ProblemParams(mu=0.01, kappa=1.0, m0=0.3))
    assert state.used_fallback
    assert state.iterations <= 10
    assert float(np.min(state.theta.values)) > 0.08


def test_optimize_2d_same_seed_is_bit_identical():
    params = ProblemParams(mu=0.05, kappa=1.0, m0=0.3)
    cfg = OptimConfig(starts=2, seed=4, max_outer_iters=5)
    a = optimize(params, Grid((14, 14)), cfg)
    b = optimize(params, Grid((14, 14)), cfg)
    assert a.best_F == b.best_F
    assert a.best_m.values.tobytes() == b.best_m.values.tobytes()


def test_krylov_stall_surfaces_as_no_convergence(monkeypatch):
    m = make_crenel(Grid((12, 12)), 1.0, 0.3)
    monkeypatch.setattr(grids_mod, "_KRYLOV_MAXITER", 1)
    with pytest.raises(NoConvergence, match="linear solve failed"):
        solve_steady_state(m, ProblemParams(mu=0.1, kappa=1.0, m0=0.3))


def test_nonfinite_1d_solve_surfaces_as_no_convergence():
    # a NaN warm start reaches the first Newton solve, whose failure must
    # surface as the solver's own error
    m = make_crenel(Grid((33,)), 1.0, 0.3)
    with pytest.raises(NoConvergence, match="linear solve failed"):
        solve_steady_state(m, ProblemParams(mu=0.1, kappa=1.0, m0=0.3),
                           theta0=np.full(33, np.nan))


def test_continuity_ratio_battery_reported(capsys):
    # ratio ||theta_a - theta_b||_1 / ||a - b||_1^(1/3) over random pairs;
    # no known constant, so record the max and sanity-bound it loosely
    from kppfrag import random_fourier_guess

    g = Grid((129,))
    params = ProblemParams(mu=0.1, kappa=1.0, m0=0.3)
    worst = 0.0
    for s in range(6):
        a = random_fourier_guess(g, 1.0, 0.3, 2 * s)
        b = random_fourier_guess(g, 1.0, 0.3, 2 * s + 1)
        ta = solve_steady_state(a, params).theta
        tb = solve_steady_state(b, params).theta
        ratio = l1_distance(ta, tb) / l1_distance(a, b) ** (1.0 / 3.0)
        worst = max(worst, ratio)
    print(f"continuity ratio max over battery: {worst:.4f}")
    assert np.isfinite(worst) and worst < 10.0
