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
from conftest import apply_one, constant_resource, l1_distance, lou_identity_residual

# regression constants frozen from grid-refinement studies during oracle
# construction (N=4000/8000 Richardson limit for the mu=0.01 crenel)
F_CRENEL_N1000_MU001 = 0.386613180689
F_CRENEL_RICHARDSON = 0.386613280835
F_CRENEL_N1000_MU1000 = 0.300014700638
LOU_N1000_MU001 = 6.9099e-5
# F of the cold mu=0.01 crenel solve on the 120 x 120 grid (perfbench pins the same)
F_CRENEL_120x120_MU001 = 0.3866063583890749
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


def test_crenel_2d_pinned_value():
    g = Grid((120, 120))
    state = solve_steady_state(make_crenel(g, 1.0, 0.3),
                               ProblemParams(mu=0.01, kappa=1.0, m0=0.3))
    assert abs(total_population(state) - F_CRENEL_120x120_MU001) <= 1e-10


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
    # from mean(m) the first full Newton step overshoots below zero here;
    # the solve must reject it and restart from max(m)
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

    def recording_solve(self, mu, diag, rhs, rtol=None, **kwargs):
        rtols.extend([None] * len(rhs) if rtol is None else rtol)
        return real_solve(self, mu, diag, rhs, rtol, **kwargs)

    monkeypatch.setattr(NeumannLaplacian, "solve_shifted", recording_solve)
    inexact = solve_steady_state(m, params)
    floor = grids_mod.residual_floor(m.grid, params.mu)
    assert any(r is not None and r > floor for r in rtols)

    def floor_only_solve(self, mu, diag, rhs, rtol=None, **kwargs):
        return real_solve(self, mu, diag, rhs, **kwargs)

    monkeypatch.setattr(NeumannLaplacian, "solve_shifted", floor_only_solve)
    reference = solve_steady_state(m, params)
    assert abs(total_population(inexact) - total_population(reference)) <= 1e-12
    theta = inexact.theta.values
    gate = max(SolverConfig().newton_tol, floor * np.max(np.abs(theta)))
    assert inexact.residual_norm <= gate
    assert np.max(np.abs(
        params.mu * apply_one(NeumannLaplacian(m.grid), theta) + theta * (m.values - theta)
    )) <= gate


def _failed_solves(monkeypatch):
    """Record the message of every failed row of a shifted solve."""
    failures = []
    real_solve = NeumannLaplacian.solve_shifted

    def recording_solve(self, *args, **kwargs):
        x, errors = real_solve(self, *args, **kwargs)
        failures.extend(e for e in errors if e is not None)
        return x, errors

    monkeypatch.setattr(NeumannLaplacian, "solve_shifted", recording_solve)
    return failures


@pytest.mark.parametrize("counts", [(1000,), (24, 24)])
def test_first_run_solve_failure_restarts_from_max_m(monkeypatch, counts):
    # a linear solve that fails on the first run is a failed step, like a
    # rising residual: it counts as one Newton step, and the solve restarts
    # from max(m) with the bytes of an untouched restart
    m = make_crenel(Grid(counts), 1.0, 0.3)
    params = ProblemParams(mu=0.1, kappa=1.0, m0=0.3)
    real_solve = NeumannLaplacian.solve_shifted
    calls = []

    def failing_once(self, mu, diag, rhs, rtol=None, **kwargs):
        calls.append(1)
        if len(calls) == 1:
            return np.full(rhs.shape, np.nan), ["forced failure"]
        return real_solve(self, mu, diag, rhs, rtol, **kwargs)

    monkeypatch.setattr(NeumannLaplacian, "solve_shifted", failing_once)
    runs = _newton_runs(monkeypatch)
    state = solve_steady_state(m, params)
    assert [run["monotone"] for run in runs] == [False, True]
    first, restart = runs
    assert first["stalled"] and first["steps"] == 1 and len(first["norms"]) == 1
    assert restart["iterates"][0].tobytes() == np.full(m.grid.num_nodes, 1.0).tobytes()
    assert state.used_fallback
    assert state.iterations == 1 + restart["steps"] == len(calls)
    monkeypatch.undo()
    reference = solve_steady_state(m, params, theta0=np.full(m.grid.num_nodes, 1.0))
    assert state.theta.values.tobytes() == reference.theta.values.tobytes()


def _newton_runs(monkeypatch):
    """Record every Newton run: whether it is monotone, its steps, whether
    it stalled, and the residual sup norm and the iterate of each residual
    evaluation."""
    runs = []
    real_newton, real_residual = solver_mod._newton, solver_mod._residual

    def recording_newton(*args, monotone):
        run = {"monotone": monotone, "norms": [], "iterates": []}
        runs.append(run)
        out = real_newton(*args, monotone=monotone)
        (run["steps"],), (run["stalled"],) = out[2], out[3]    # one-row solves
        return out

    def recording_residual(lap, theta, *args):
        r = real_residual(lap, theta, *args)
        runs[-1]["norms"].append(float(np.abs(r).max()))
        runs[-1]["iterates"].append(theta.copy())
        return r

    monkeypatch.setattr(solver_mod, "_newton", recording_newton)
    monkeypatch.setattr(solver_mod, "_residual", recording_residual)
    return runs


@pytest.mark.parametrize("counts", [(1000,), (60, 60), (120, 120)])
def test_cold_crenel_restarts_once_after_first_rejected_full_step(monkeypatch, counts):
    m = make_crenel(Grid(counts), 1.0, 0.3)
    failures = _failed_solves(monkeypatch)
    runs = _newton_runs(monkeypatch)
    state = solve_steady_state(m, ProblemParams(mu=0.01, kappa=1.0, m0=0.3))
    assert [run["monotone"] for run in runs] == [False, True]
    cold, restart = runs
    assert cold["stalled"]
    if m.grid.dim == 1:
        # full steps only, until one is rejected: one trial per step
        assert len(cold["norms"]) == 1 + cold["steps"]
        assert cold["norms"][-1] >= cold["norms"][-2]
        assert failures == []
    else:
        # the first Newton matrix, at theta = mean(m), is indefinite: CG
        # rejects it, and that failed solve is the one step of the run
        assert cold["steps"] == 1 and len(cold["norms"]) == 1
        assert len(failures) == 1 and "not positive definite" in failures[0]
    assert restart["iterates"][0].tobytes() == np.full(m.grid.num_nodes, 1.0).tobytes()
    assert state.used_fallback
    assert state.iterations == cold["steps"] + restart["steps"] == 8


@pytest.mark.parametrize("mu", [0.1, 0.01])
def test_warm_solve_restarts_at_its_first_failed_step(monkeypatch, mu):
    # the mirrored state is a poor warm start: its first full Newton step
    # fails (the residual rises at mu = 0.1; at mu = 0.01 it falls, but the
    # iterate goes negative), and the solve restarts at once from max(m)
    m = make_crenel(Grid((1000,)), 1.0, 0.3)
    params = ProblemParams(mu=mu, kappa=1.0, m0=0.3)
    cold = solve_steady_state(m, params)
    runs = _newton_runs(monkeypatch)
    warm = solve_steady_state(m, params, theta0=cold.theta.values[::-1].copy())
    assert [run["monotone"] for run in runs] == [False, True]
    first, restart = runs
    assert first["stalled"] and first["steps"] == 1 and len(first["norms"]) == 2
    assert warm.used_fallback
    assert warm.iterations == 1 + restart["steps"]
    # both solves stop under the residual's rounding floor, 7e-10 max|theta|
    # at mu = 0.1, not at newton_tol
    assert abs(total_population(warm) - total_population(cold)) <= 1e-9


def test_non_positive_trial_restarts_though_its_residual_falls(monkeypatch):
    # force the first step's iterate to exactly 0 at the last node, where
    # m = 0 and theta is small: the residual still falls, yet the step is
    # rejected and the solve restarts, so no iterate is ever clipped
    m = make_crenel(Grid((65,)), 1.0, 0.3)
    params = ProblemParams(mu=1e-3, kappa=1.0, m0=0.3)
    cold = solve_steady_state(m, params)
    assert m.values[-1] == 0.0
    real_solve = NeumannLaplacian.solve_shifted
    forced = []

    def forced_solve(self, mu, diag, rhs, rtol=None, **kwargs):
        delta, errors = real_solve(self, mu, diag, rhs, rtol, **kwargs)
        if not forced:
            forced.append(True)
            delta[:, -1] = -0.5 * diag[:, -1]   # diag = 2 theta - m = 2 theta here
        return delta, errors

    monkeypatch.setattr(NeumannLaplacian, "solve_shifted", forced_solve)
    runs = _newton_runs(monkeypatch)
    warm = solve_steady_state(m, params, theta0=2.0 * cold.theta.values)
    assert [run["monotone"] for run in runs] == [False, True]
    first = runs[0]
    assert first["stalled"] and first["steps"] == 1
    assert first["norms"][1] < first["norms"][0]
    assert first["iterates"][1].min() == 0.0
    assert warm.used_fallback
    assert abs(total_population(warm) - total_population(cold)) <= 1e-12


def test_warm_solve_on_the_trivial_state_restarts(monkeypatch):
    # a start at theta ~ 0 already meets newton_tol: the first run converges
    # in 0 steps, and the mean check alone triggers the restart, which gives
    # the cold solve's restart bytes
    params = ProblemParams(mu=0.01, kappa=1.0, m0=0.3)
    for counts in [(1000,), (24, 24)]:
        m = make_crenel(Grid(counts), 1.0, 0.3)
        cold = solve_steady_state(m, params)
        with monkeypatch.context() as mp:
            runs = _newton_runs(mp)
            warm = solve_steady_state(m, params,
                                      theta0=np.full(m.grid.num_nodes, 1e-13))
        assert [run["monotone"] for run in runs] == [False, True]
        first, restart = runs
        assert first["steps"] == 0 and not first["stalled"]
        assert first["norms"][0] <= SolverConfig().newton_tol
        assert warm.used_fallback
        assert warm.iterations == restart["steps"] == 7
        assert warm.theta.values.tobytes() == cold.theta.values.tobytes()


@pytest.mark.parametrize("mu", [0.1, 0.01])
def test_full_step_cold_solves_keep_the_constant_start(monkeypatch, mu):
    # random-Fourier layouts, the optimizer's cold starts, take only full
    # Newton steps: one run, with the bytes of Newton from mean(m)
    grid = Grid((120, 120))
    params = ProblemParams(mu=mu, kappa=1.0, m0=0.3)
    for seed in range(3):
        m = random_fourier_guess(grid, 1.0, 0.3, seed)
        lap = NeumannLaplacian(grid)
        theta, rnorm, steps, stalled, errors = solver_mod._newton(
            lap, np.full((1, grid.num_nodes), mean(m)), m.values[None], mu, SolverConfig(),
            grids_mod.residual_floor(grid, mu), monotone=False)
        with monkeypatch.context() as mp:
            runs = _newton_runs(mp)
            state = solve_steady_state(m, params)
        assert len(runs) == 1 and not stalled[0] and errors == [None]
        assert len(runs[0]["norms"]) == 1 + runs[0]["steps"]
        assert state.theta.values.tobytes() == theta[0].tobytes()
        assert (state.residual_norm, state.iterations, state.used_fallback) == (
            rnorm[0], steps[0], False)


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


def test_nonfinite_1d_solution_ends_a_monotone_run_at_once(monkeypatch):
    # gtsv can return a non-finite x from finite d and rhs; that is a failed
    # linear solve, so a monotone run ends at its first step with
    # NoConvergence and never takes a non-finite iterate
    real_gtsv = grids_mod._GTSV
    calls = []

    def overflowing_gtsv(*args, **kwargs):
        calls.append(1)
        out = real_gtsv(*args, **kwargs)
        out[3][0] = np.inf
        return out

    monkeypatch.setattr(grids_mod, "_GTSV", overflowing_gtsv)
    grid, mu = Grid((33,)), 0.1
    m = make_crenel(grid, 1.0, 0.3)
    _, _, steps, _, errors = solver_mod._newton(
        NeumannLaplacian(grid), np.ones((1, grid.num_nodes)), m.values[None], mu,
        SolverConfig(), grids_mod.residual_floor(grid, mu), monotone=True)
    assert steps == [1] and len(calls) == 2       # the stack, then its one row
    assert isinstance(errors[0], NoConvergence)
    assert str(errors[0]).startswith("linear solve failed: shifted solve: non-finite solution")
    with pytest.raises(NoConvergence, match="linear solve failed"):
        solve_steady_state(m, ProblemParams(mu=mu, kappa=1.0, m0=0.3))
    assert len(calls) == 6


def test_overflowing_newton_iterate_never_converges(monkeypatch):
    # theta = m = 2^1000 (one node at half of it, so the residual is finite
    # and far above the floor): a solve whose x holds the largest finite
    # double overflows theta + delta to inf at that node, and the residual
    # there to inf. The floor test would read inf <= inf; a residual must
    # be finite to converge, so the monotone run's next linear solve fails
    # and ends the row with NoConvergence, while the first run stalls and
    # keeps the finite iterate it had
    real_gtsv = grids_mod._GTSV
    calls = []

    def huge_gtsv(*args, **kwargs):
        calls.append(1)
        out = real_gtsv(*args, **kwargs)
        out[3][0] = np.finfo(float).max
        return out

    monkeypatch.setattr(grids_mod, "_GTSV", huge_gtsv)
    grid, mu = Grid((33,)), 0.1
    theta = np.full((1, grid.num_nodes), 2.0**1000)
    theta[0, -1] = 2.0**999
    lap, floor = NeumannLaplacian(grid), grids_mod.residual_floor(grid, mu)
    with np.errstate(all="ignore"):
        out, rnorm, steps, stalled, errors = solver_mod._newton(
            lap, theta, theta, mu, SolverConfig(), floor, monotone=True)
    assert steps == [2] and len(calls) == 1       # the second solve rejects its d
    assert isinstance(errors[0], NoConvergence)
    assert str(errors[0]).startswith("linear solve failed: shifted solve: non-finite diagonal")
    assert rnorm == [np.inf]
    with np.errstate(all="ignore"):
        out, rnorm, steps, stalled, errors = solver_mod._newton(
            lap, theta, theta, mu, SolverConfig(), floor, monotone=False)
    assert steps == [1] and stalled == [True] and errors == [None]
    assert out[0].tobytes() == theta[0].tobytes() and np.isfinite(rnorm[0])


@pytest.mark.parametrize("counts", [(33,), (12, 12)])
def test_nonfinite_warm_start_restarts_from_max_m(counts):
    # a NaN warm start never counts as converged: its first Newton solve
    # fails, and the solve restarts from max(m), as after a NaN iterate.
    # A start with zero and negative entries is used as given, unclipped:
    # the solve still returns the positive state and leaves the caller's
    # array alone (read-only here, so any write would raise)
    m = make_crenel(Grid(counts), 1.0, 0.3)
    params = ProblemParams(mu=0.1, kappa=1.0, m0=0.3)
    state = solve_steady_state(m, params, theta0=np.full(m.grid.num_nodes, np.nan))
    assert state.used_fallback
    assert np.isfinite(state.theta.values).all()
    assert float(np.min(state.theta.values)) > 0.0
    assert total_population(state) >= 0.3
    rough = np.where(np.arange(m.grid.num_nodes) % 3 == 0, -0.5, 0.0)
    rough.setflags(write=False)
    warm = solve_steady_state(m, params, theta0=rough)
    assert float(np.min(warm.theta.values)) > 0.0
    assert np.allclose(warm.theta.values, state.theta.values, rtol=1e-10, atol=0.0)


@pytest.mark.parametrize("counts", [(1000,), (24, 24), (33, 17)])
def test_steady_rows_solve_each_row_as_alone(counts):
    # a stack of a row that converges from mean(m), a row whose every
    # linear solve fails (a NaN resource: it stalls, restarts and fails)
    # and a crenel that restarts from max(m): one (S, N) float64 result,
    # whose converged rows have the bytes of their one-row solves
    grid, mu = Grid(counts), 0.01
    fourier, crenel = random_fourier_guess(grid, 1.0, 0.3, 1), make_crenel(grid, 1.0, 0.3)
    m_vals = np.vstack([fourier.values, np.full(grid.num_nodes, np.nan), crenel.values])
    with np.errstate(invalid="ignore"):
        theta, rnorm, iterations, restarted, errors = solver_mod.steady_rows(grid, m_vals, mu)
    assert type(theta) is np.ndarray and theta.dtype == np.float64
    assert theta.shape == m_vals.shape
    assert restarted == [False, True, True]
    assert isinstance(errors[1], NoConvergence)
    assert str(errors[1]).startswith("linear solve failed: shifted solve: non-finite")
    for i, m in ((0, fourier), (2, crenel)):
        alone = solve_steady_state(m, ProblemParams(mu=mu, kappa=1.0, m0=0.3))
        assert errors[i] is None and theta[i].tobytes() == alone.theta.values.tobytes()
        assert (rnorm[i], iterations[i], restarted[i]) == (
            alone.residual_norm, alone.iterations, alone.used_fallback)


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
