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
    # the constant start is far from the layered profile; plain Newton
    # stalls and the fixed-point rescue must engage
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
    monkeypatch.setattr(solver_mod, "FALLBACK_STEPS", 2)   # below one burst of 6
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


def test_positive_default_start_keeps_iteration_count(monkeypatch):
    # no restart when the first Newton run already reaches the positive state
    runs = []
    real_newton = solver_mod._newton

    def counting_newton(*args, **kwargs):
        runs.append(1)
        return real_newton(*args, **kwargs)

    monkeypatch.setattr(solver_mod, "_newton", counting_newton)
    m = make_crenel(Grid((60, 60)), 1.0, 0.3)
    state = solve_steady_state(m, ProblemParams(mu=0.01, kappa=1.0, m0=0.3))
    assert len(runs) == 1
    assert state.iterations == 18 and state.used_fallback


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


def _newton_grids(monkeypatch):
    """Record the grid of every Newton run, coarse levels included."""
    seen = []
    real_newton = solver_mod._newton

    def recording_newton(lap, *args, **kwargs):
        seen.append(lap.grid.counts)
        return real_newton(lap, *args, **kwargs)

    monkeypatch.setattr(solver_mod, "_newton", recording_newton)
    return seen


def _nested_starts(monkeypatch):
    """Record, for every nested restart asked for, whether it gave a start."""
    given = []
    real_start = solver_mod._nested_start

    def recording_start(*args):
        out = real_start(*args)
        given.append(out is not None)
        return out

    monkeypatch.setattr(solver_mod, "_nested_start", recording_start)
    return given


def _constant_start_solve(monkeypatch, m, params):
    # a level floor above the grid turns nesting off: today's constant start
    with monkeypatch.context() as mp:
        mp.setattr(solver_mod, "COARSEST_NODES", max(m.grid.counts) + 1)
        return solve_steady_state(m, params)


def test_bilinear_resampling_reproduces_bilinear_functions():
    def f(grid):
        x, y = grid.coords_columns()
        return 1.0 + 2.0 * x - y + 3.0 * x * y

    src = Grid((64, 33))
    for dst in (Grid((127, 65)), Grid((240, 17)), Grid((32, 32))):
        out = solver_mod._bilinear(f(src), src, dst)
        assert np.max(np.abs(out - f(dst))) <= 1e-13
    # nodes shared by both grids take the source value exactly
    fine = Grid((127, 65))
    vals = np.random.default_rng(0).random(fine.num_nodes)
    coarse = solver_mod._bilinear(vals, fine, src)
    assert np.array_equal(coarse, vals.reshape(65, 127)[::2, ::2].ravel())


@pytest.mark.parametrize("mu", [0.1, 0.01])
@pytest.mark.parametrize("counts", [(120, 120), (127, 65)])
def test_nested_start_reaches_the_supersolution_state(monkeypatch, counts, mu):
    # the crenel's first full Newton step fails at both mu: the fine run
    # turns to the coarse grid, whose own coarse grid is under the floor
    m = make_crenel(Grid(counts), 1.0, 0.3)
    params = ProblemParams(mu=mu, kappa=1.0, m0=0.3)
    seen = _newton_grids(monkeypatch)
    given = _nested_starts(monkeypatch)
    state = solve_steady_state(m, params)
    assert seen == [counts, tuple((n + 1) // 2 for n in counts)]
    assert given == [False, True]
    ref = _supersolution_solve(m, params)
    assert abs(total_population(state) - total_population(ref)) <= 1e-12
    assert np.max(np.abs(state.theta.values - ref.theta.values)) <= 1e-9


@pytest.mark.parametrize("mu", [0.1, 0.01])
def test_full_step_cold_solves_keep_the_constant_start(monkeypatch, mu):
    # random-Fourier layouts, the optimizer's cold starts, take only full
    # Newton steps: no coarse level is solved and the bytes are today's
    m = random_fourier_guess(Grid((120, 120)), 1.0, 0.3, 3)
    params = ProblemParams(mu=mu, kappa=1.0, m0=0.3)
    ref = _constant_start_solve(monkeypatch, m, params)
    seen = _newton_grids(monkeypatch)
    given = _nested_starts(monkeypatch)
    state = solve_steady_state(m, params)
    assert seen == [(120, 120)] and given == []
    _same_bytes(state, ref)


@pytest.mark.parametrize("counts", [(3, 3), (4, 200)])
def test_grids_too_small_to_halve_solve_cold(monkeypatch, counts):
    # the crenel's first full step fails here too, but halving 3 or 4 nodes
    # leaves 2, which is no grid: the level check must come first
    m = make_crenel(Grid(counts), 1.0, 0.3)
    params = ProblemParams(mu=0.01, kappa=1.0, m0=0.3)
    ref = _constant_start_solve(monkeypatch, m, params)
    seen = _newton_grids(monkeypatch)
    given = _nested_starts(monkeypatch)
    state = solve_steady_state(m, params)
    assert seen == [counts] and given == [False]
    _same_bytes(state, ref)


def test_nested_start_spares_the_fine_grid_its_rescue():
    # the constant start takes 18 Newton steps and a Picard rescue here; the
    # nested restart after the first (failed) full step leaves 1 + 3
    m = make_crenel(Grid((120, 120)), 1.0, 0.3)
    state = solve_steady_state(m, ProblemParams(mu=0.01, kappa=1.0, m0=0.3))
    assert not state.used_fallback
    assert state.iterations <= 5


def _same_bytes(a, b):
    assert a.theta.values.tobytes() == b.theta.values.tobytes()
    assert (a.residual_norm, a.iterations, a.used_fallback) == (
        b.residual_norm, b.iterations, b.used_fallback)


def test_coarse_level_with_zero_mean_falls_back_to_constant_start(monkeypatch):
    # the crenel on the odd x-columns only: the 64 x 64 coarse nodes sit on
    # the even columns, so the resampled resource is 0 and its mean too
    g = Grid((127, 127))
    odd = np.zeros((127, 127))
    odd[:, 1::2] = 1.0
    m = ScalarField(g, make_crenel(g, 1.0, 0.3).values * odd.ravel())
    assert not solver_mod._bilinear(m.values, g, Grid((64, 64))).any()
    params = ProblemParams(mu=0.01, kappa=1.0, m0=0.3)
    ref = _constant_start_solve(monkeypatch, m, params)
    seen = _newton_grids(monkeypatch)
    given = _nested_starts(monkeypatch)
    state = solve_steady_state(m, params)
    assert seen == [(127, 127)] and given == [False]
    assert state.used_fallback   # the rescue runs as it does without nesting
    _same_bytes(state, ref)


def test_coarse_level_failure_falls_back_to_constant_start(monkeypatch):
    m = make_crenel(Grid((120, 120)), 1.0, 0.3)
    params = ProblemParams(mu=0.01, kappa=1.0, m0=0.3)
    ref = _constant_start_solve(monkeypatch, m, params)
    real_newton = solver_mod._newton
    failed = []

    def failing_on_coarse(lap, *args, **kwargs):
        if lap.grid.counts != (120, 120):
            failed.append(lap.grid.counts)
            raise NoConvergence("forced on the coarse level", 1.0)
        return real_newton(lap, *args, **kwargs)

    monkeypatch.setattr(solver_mod, "_newton", failing_on_coarse)
    state = solve_steady_state(m, params)
    assert failed == [(60, 60)]
    _same_bytes(state, ref)


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
