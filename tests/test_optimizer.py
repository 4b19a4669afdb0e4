import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kppfrag import (
    DegenerateSample,
    Grid,
    NoConvergence,
    OptimConfig,
    OptimizationError,
    ProblemParams,
    ResourceField,
    ScalarField,
    SingularAdjoint,
    armijo_ascent_step,
    best_perturbation,
    make_crenel,
    mean,
    objective_gradient,
    optimize,
    random_fourier_guess,
    solve_adjoint,
    solve_steady_state,
    total_population,
)
import kppfrag.grids as grids_mod
import kppfrag.optimizer as optimizer_mod
from kppfrag.grids import NeumannLaplacian, residual_floor
from conftest import (apply_one, constant_resource, interior_resource, lp_bruteforce,
                      lp_rows_scatter)


# ---------------------------------------------------------------------------
# adjoint

def test_adjoint_constant_closed_form():
    # theta == m0, shift (2 theta - m) == m0, so p == 1/m0 up to solve rounding
    g = Grid((65,))
    m = constant_resource(g, 0.3)
    params = ProblemParams(mu=0.5, kappa=1.0, m0=0.3)
    state = solve_steady_state(m, params)
    p = solve_adjoint(m, state.theta, params).values
    assert np.allclose(p, 1.0 / 0.3, rtol=1e-12, atol=0.0)
    diag = 2.0 * state.theta.values - m.values
    resid = 0.5 * (-apply_one(NeumannLaplacian(g), p)) + diag * p - 1.0
    assert float(np.max(np.abs(resid))) <= 1e-9


def test_adjoint_positive_on_layered_instance(crenel_state_mu001):
    m, params, state = crenel_state_mu001
    adj = solve_adjoint(m, state.theta, params)
    assert float(np.min(adj.values)) > 0.0


def test_adjoint_residual_gate_holds_on_2d_crenel():
    # the 2D adjoint is a CG solve of the final Newton matrix; its
    # residual must clear the same gate the direct solve did
    m = make_crenel(Grid((120, 120)), 1.0, 0.3)
    params = ProblemParams(mu=0.01, kappa=1.0, m0=0.3)
    state = solve_steady_state(m, params)
    p = solve_adjoint(m, state.theta, params).values
    diag = 2.0 * state.theta.values - m.values
    resid = 0.01 * (-apply_one(NeumannLaplacian(m.grid), p)) + diag * p - 1.0
    gate = max(1e-10, residual_floor(m.grid, 0.01) * max(1.0, float(np.max(np.abs(p)))))
    assert float(np.max(np.abs(resid))) <= gate
    assert float(np.min(p)) > 0.0


def test_adjoint_krylov_stall_raises_singular_adjoint(monkeypatch):
    m = make_crenel(Grid((12, 12)), 1.0, 0.3)
    params = ProblemParams(mu=0.1, kappa=1.0, m0=0.3)
    state = solve_steady_state(m, params)
    monkeypatch.setattr(grids_mod, "_KRYLOV_MAXITER", 1)
    with pytest.raises(SingularAdjoint, match="adjoint solve failed"):
        solve_adjoint(m, state.theta, params)


def test_adjoint_2d_at_trivial_state_raises_singular_adjoint():
    # at theta ~ 0 the adjoint matrix mu * (-Lap) - diag(m) is indefinite
    # (the constant vector has negative curvature), an unstable state: CG
    # rejects it and the adjoint reports it as SingularAdjoint
    m = make_crenel(Grid((30, 30)), 1.0, 0.3)
    theta = ScalarField(m.grid, np.full(m.grid.num_nodes, 1e-12))
    with pytest.raises(SingularAdjoint, match="not positive definite"):
        solve_adjoint(m, theta, ProblemParams(mu=0.01, kappa=1.0, m0=0.3))


def test_adjoint_nonfinite_1d_solve_raises_singular_adjoint():
    # a finite but huge theta overflows the adjoint matrix 2 theta - m to inf
    m = make_crenel(Grid((33,)), 1.0, 0.3)
    theta = ScalarField(m.grid, np.full(33, 1e308))
    with np.errstate(over="ignore"), pytest.raises(SingularAdjoint,
                                                   match="adjoint solve failed"):
        solve_adjoint(m, theta, ProblemParams(mu=0.1, kappa=1.0, m0=0.3))


def test_gradient_constant_instance():
    g = Grid((33,))
    m = constant_resource(g, 0.4)
    params = ProblemParams(mu=1.0, kappa=1.0, m0=0.4)
    state = solve_steady_state(m, params)
    adj = solve_adjoint(m, state.theta, params)
    grad = objective_gradient(state.theta, adj)
    w = g.node_weights
    # p*theta == (1/m0)*m0 == 1, so g reduces to the weights themselves
    assert np.allclose(grad.values, w / w.sum(), rtol=1e-11)


def test_gradient_strictly_positive(crenel_state_mu001):
    m, params, state = crenel_state_mu001
    adj = solve_adjoint(m, state.theta, params)
    grad = objective_gradient(state.theta, adj)
    assert float(np.min(grad.values)) > 0.0


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_gradient_predicts_objective_change(seed):
    from conftest import zero_mean_direction

    g = Grid((65,))
    params = ProblemParams(mu=0.4, kappa=1.0, m0=0.35)
    base = interior_resource(random_fourier_guess(g, 1.0, 0.35, 100 + seed))
    state = solve_steady_state(base, params)
    adj = solve_adjoint(base, state.theta, params)
    grad = objective_gradient(state.theta, adj)
    xi = zero_mean_direction(g, seed)
    t = 1e-5
    Fp = total_population(solve_steady_state(base.with_values(base.values + t * xi), params))
    Fm = total_population(solve_steady_state(base.with_values(base.values - t * xi), params))
    fd = (Fp - Fm) / (2.0 * t)
    predicted = float(grad.values @ xi)
    assert fd == pytest.approx(predicted, rel=1e-4)


# ---------------------------------------------------------------------------
# exact direction LP

def test_lp_three_node_interior_example():
    g = Grid((3,))
    m = ResourceField(g, np.array([0.5, 0.5, 0.5]), 1.0, 0.5)
    grad = ScalarField(g, np.array([3.0, 2.0, 1.0]))
    xi, value = best_perturbation(grad, m)
    assert np.allclose(xi.values, [0.5, 0.0, -0.5], atol=1e-14)
    assert value == pytest.approx(1.0, abs=1e-14)


def test_lp_saturated_example_is_stationary():
    # raising the best-rate node is blocked by its cap and the budget;
    # no admissible ascent direction exists, so the zero vector comes back
    g = Grid((3,))
    m = ResourceField(g, np.array([1.0, 0.0, 0.5]), 1.0, mean(ScalarField(g, np.array([1.0, 0.0, 0.5]))))
    grad = ScalarField(g, np.array([3.0, 2.0, 1.0]))
    xi, value = best_perturbation(grad, m)
    assert value == 0.0
    assert not np.any(xi.values)


def test_lp_result_is_feasible_random():
    rng = np.random.default_rng(42)
    for _ in range(200):
        n = int(rng.integers(3, 12))
        g = Grid((n,))
        vals = rng.uniform(0.0, 1.0, n)
        m0 = mean(ScalarField(g, vals))
        if not 0.0 < m0 < 1.0:
            continue
        m = ResourceField(g, vals, 1.0, m0)
        grad = ScalarField(g, rng.standard_normal(n))
        xi, value = best_perturbation(grad, m)
        w = g.node_weights
        assert abs(float(w @ xi.values)) <= 1e-12 * n
        assert np.all(xi.values >= -m.values - 1e-12)
        assert np.all(xi.values <= 1.0 - m.values + 1e-12)
        assert value >= 0.0
        if value > 0.0:
            assert float(grad.values @ xi.values) == pytest.approx(value, abs=1e-13)


def test_lp_matches_bruteforce_quick():
    rng = np.random.default_rng(7)
    for _ in range(60):
        n = int(rng.integers(3, 7))
        g = Grid((n,))
        vals = rng.uniform(0.0, 1.0, n)
        m0 = mean(ScalarField(g, vals))
        m = ResourceField(g, vals, 1.0, m0)
        grad = ScalarField(g, rng.standard_normal(n))
        _, value = best_perturbation(grad, m)
        ref = max(lp_bruteforce(grad.values, vals, 1.0, g.node_weights), 0.0)
        assert value == pytest.approx(ref, abs=1e-12)


def _lp_stacks():
    """(w, g, m_vals, saturated) stacks for the LP byte oracle: random rows
    in 1D and 2D, rows whose rates g / w tie exactly (across the weights 1,
    1/2 and 1/4 too), zero gradients, and saturated rows (saturated True):
    m already at the LP's vertex, so that the LP value is <= 0."""
    rng = np.random.default_rng(26)
    for counts in ((3,), (40,), (1000,), (3, 3), (9, 7), (30, 30)):
        grid = Grid(counts)
        w, n = grid.node_weights, grid.num_nodes
        m_vals = np.vstack([random_fourier_guess(grid, 1.0, 0.3, s).values for s in range(5)])
        yield w, rng.standard_normal((5, n)), m_vals, False
        yield w, w * rng.integers(-2, 3, (5, n)) / 8.0, m_vals, False
        yield w, np.zeros((1, n)), m_vals[:1], False
        rate = rng.standard_normal((5, n))
        ranks = np.argsort(np.argsort(-rate, axis=1, kind="stable"), axis=1)
        yield w, w * rate, np.where(ranks < n // 3, 1.0, 0.0), True


def test_lp_rows_match_the_scatter_oracle_byte_for_byte():
    for w, g, m_vals, saturated in _lp_stacks():
        xi, values = optimizer_mod._lp_rows(w, g, m_vals, 1.0)
        ref_xi, ref_values = lp_rows_scatter(w, g, m_vals, 1.0)
        assert xi.tobytes() == ref_xi.tobytes()
        assert values.tobytes() == ref_values.tobytes()
        if saturated:
            assert not values.any() and not xi.any()


def test_lp_matches_bruteforce_2d():
    rng = np.random.default_rng(8)
    g = Grid((3, 3))
    w = g.node_weights
    for _ in range(25):
        vals = rng.uniform(0.0, 1.0, 9)
        m0 = float(w @ vals / w.sum())
        m = ResourceField(g, vals, 1.0, m0)
        grad = ScalarField(g, rng.standard_normal(9))
        _, value = best_perturbation(grad, m)
        ref = max(lp_bruteforce(grad.values, vals, 1.0, w), 0.0)
        assert value == pytest.approx(ref, abs=1e-12)


# ---------------------------------------------------------------------------
# vertex step

def test_armijo_zero_direction_is_noop():
    g = Grid((33,))
    m = constant_resource(g, 0.3)
    params = ProblemParams(mu=1.0, kappa=1.0, m0=0.3)
    xi = ScalarField(g, np.zeros(33))
    m2, F2, step, state = armijo_ascent_step(m, xi, 0.3, 0.0, params)
    assert m2 is m and F2 == 0.3 and step == 0.0 and state is None


def test_crenel_is_stationary_under_weighted_budget(crenel_state_mu001):
    # the saturated block maximizes the rate p*theta, which decays
    # monotonically outside it: no weighted-feasible first-order ascent,
    # the single block is a local maximizer even at small diffusivity
    # (fragmented optima are found from random starts, not from here)
    m, params, state = crenel_state_mu001
    adj = solve_adjoint(m, state.theta, params)
    grad = objective_gradient(state.theta, adj)
    _, lp_value = best_perturbation(grad, m)
    assert lp_value == 0.0


def test_armijo_first_step_increases_objective():
    # random start on the small-diffusivity instance: not stationary, and
    # the first accepted step must deliver the Armijo fraction of the gain
    g = Grid((1000,))
    params = ProblemParams(mu=0.01, kappa=1.0, m0=0.3)
    m = random_fourier_guess(g, 1.0, 0.3, 3)
    state = solve_steady_state(m, params)
    F0 = total_population(state)
    adj = solve_adjoint(m, state.theta, params)
    grad = objective_gradient(state.theta, adj)
    xi, lp_value = best_perturbation(grad, m)
    assert lp_value > 0.0
    m1, F1, step, _ = armijo_ascent_step(
        m, xi, F0, lp_value, params, theta0=state.theta.values
    )
    assert step == 1.0
    assert F1 > F0
    assert F1 >= F0 + optimizer_mod.ARMIJO_C * lp_value


def test_unconverged_trial_is_rejected_after_one_solve(monkeypatch):
    # the full step is the only trial: a steady solve that does not
    # converge ends the step at once, with m and F unchanged
    g = Grid((33,))
    params = ProblemParams(mu=0.1, kappa=1.0, m0=0.3)
    m = random_fourier_guess(g, 1.0, 0.3, 3)
    state = solve_steady_state(m, params)
    F0 = total_population(state)
    grad = objective_gradient(state.theta, solve_adjoint(m, state.theta, params))
    xi, lp_value = best_perturbation(grad, m)
    assert lp_value > 0.0
    solves = []
    real_rows = optimizer_mod.steady_rows

    def failing_solve(grid, m_vals, *args, **kwargs):
        solves.append(m_vals.copy())
        out = real_rows(grid, m_vals, *args, **kwargs)
        return out[:4] + ([NoConvergence("forced by test", float("nan"))] * len(m_vals),)

    monkeypatch.setattr(optimizer_mod, "steady_rows", failing_solve)
    m2, F2, step, state2 = armijo_ascent_step(
        m, xi, F0, lp_value, params, theta0=state.theta.values
    )
    assert m2 is m and F2 == F0 and step == 0.0 and state2 is None
    assert len(solves) == 1
    assert np.array_equal(solves[0], np.clip(m.values + xi.values, 0.0, 1.0)[None])


def test_constant_resource_is_stationary_at_lp_level():
    # gradient proportional to the weights means every admissible direction
    # has zero first-order gain
    g = Grid((65,))
    m = constant_resource(g, 0.4)
    params = ProblemParams(mu=1.0, kappa=1.0, m0=0.4)
    state = solve_steady_state(m, params)
    adj = solve_adjoint(m, state.theta, params)
    grad = objective_gradient(state.theta, adj)
    _, value = best_perturbation(grad, m)
    assert value <= 1e-12


# ---------------------------------------------------------------------------
# random starts

def test_fourier_guess_deterministic():
    g = Grid((101,))
    a = random_fourier_guess(g, 1.0, 0.3, 123)
    b = random_fourier_guess(g, 1.0, 0.3, 123)
    assert np.array_equal(a.values, b.values)
    c = random_fourier_guess(g, 1.0, 0.3, 124)
    assert not np.array_equal(a.values, c.values)


def test_fourier_guess_admissible():
    for seed in range(8):
        u = random_fourier_guess(Grid((101,)), 1.0, 0.3, seed)
        assert abs(mean(u) - 0.3) <= 1e-10
        assert u.values.min() >= 0.0 and u.values.max() <= 1.0


def test_fourier_guess_touches_a_bound():
    # affine stretch maximizes amplitude, so one box face is attained
    for seed in range(8):
        u = random_fourier_guess(Grid((101,)), 1.0, 0.3, seed)
        assert u.values.max() >= 1.0 - 1e-10 or u.values.min() <= 1e-10


def test_fourier_guess_pinned_stream_values():
    # regression pin on the draw order; numpy guarantees PCG64 stream
    # stability, so a change here means the sampling layout changed
    u = random_fourier_guess(Grid((101,)), 1.0, 0.3, 0)
    assert np.allclose(
        u.values[:3],
        [0.53312999559556307, 0.53563490536672387, 0.53505416741845779],
        rtol=0.0, atol=1e-15,
    )
    v = random_fourier_guess(Grid((9, 7)), 1.0, 0.3, 11)
    assert np.allclose(
        v.values[:3],
        [0.47522909683898606, 0.18620265303718636, 0.0],
        rtol=0.0, atol=1e-15,
    )


@pytest.mark.parametrize("counts, seed, digest", [
    ((9, 7), 11, "d50d4e1cf69fbb952fb69f0a6ca0ca5b7040b5d7453f0df08fd4bc1c1d24937b"),
    ((60, 60), 0, "ee466092a9a74c7dbc56c007de63a5cf96139d75b40b2e9c45d53da6a313c061"),
])
def test_fourier_guess_2d_bytes_are_pinned(counts, seed, digest):
    # sha256 of every value, pinned from the full-meshgrid evaluation: the
    # separable one on the axes keeps each product's operands and order
    u = random_fourier_guess(Grid(counts), 1.0, 0.3, seed)
    assert hashlib.sha256(u.values.tobytes()).hexdigest() == digest


_DRAW_DIGESTS = {
    ((101,), 0): "5f551366493414d3abe5cc61fbcc8697a1379115f6385dcd40dc916088f4a728",
    ((1000,), 3): "88eb01bddb494b1f4f17221ace88764f1273157ece133615436bc26c55c99c74",
    ((17, 33), 4): "ebc5a476cfa97cd92b91310f0aa99177e564d5b7366a5b36d63e075261423690",
    ((33, 17), 5): "34a7c0c48b80600620860c87554b305abcf1e45852f7861547a6b0b7d1839689",
}


def test_fourier_guess_bytes_survive_the_mode_cache():
    # sha256 pins from the draws that evaluated their modes afresh: a draw
    # that computes the axis modes and one that finds them cached give the
    # same bytes, on 1D and 2D grids of two sizes each, interleaved so that
    # the cache holds several axis lengths at once
    optimizer_mod._axis_modes.cache_clear()
    for _ in range(2):
        for (counts, seed), digest in _DRAW_DIGESTS.items():
            u = random_fourier_guess(Grid(counts), 1.0, 0.3, seed)
            assert hashlib.sha256(u.values.tobytes()).hexdigest() == digest
    assert optimizer_mod._axis_modes.cache_info().misses == 4    # 101, 1000, 17, 33
    for modes in optimizer_mod._axis_modes(17):
        assert modes.shape == (5, 17)
        with pytest.raises(ValueError, match="read-only"):
            modes[0, 0] = 1.0


def test_fourier_guess_2d_admissible():
    u = random_fourier_guess(Grid((17, 9)), 1.0, 0.6, 5)
    assert u.grid.num_nodes == 17 * 9
    assert abs(mean(u) - 0.6) <= 1e-10
    assert u.values.min() >= 0.0 and u.values.max() <= 1.0


def test_degenerate_sample_rejected(monkeypatch):
    class _FlatRng:
        def uniform(self, lo, hi, n):
            return np.zeros(n)

    monkeypatch.setattr(optimizer_mod.np.random, "default_rng", lambda seed: _FlatRng())
    with pytest.raises(DegenerateSample):
        random_fourier_guess(Grid((33,)), 1.0, 0.3, 0)


def test_start_seed_substreams_distinct():
    base = optimizer_mod._start_seed(7, 3).generate_state(4)
    other = optimizer_mod._start_seed(7, 4).generate_state(4)
    assert not np.array_equal(base, other)


# ---------------------------------------------------------------------------
# multi-start driver

def _small_cfg(starts=3, seed=0):
    return OptimConfig(starts=starts, seed=seed, max_outer_iters=60)


def test_optimize_deterministic_and_admissible():
    g = Grid((33,))
    params = ProblemParams(mu=1.0, kappa=1.0, m0=0.3)
    run1 = optimize(params, g, _small_cfg())
    run2 = optimize(params, g, _small_cfg())
    assert np.array_equal(run1.best_m.values, run2.best_m.values)
    assert run1.best_F == run2.best_F
    assert run1.start_index == run2.start_index
    assert isinstance(run1.best_m, ResourceField)
    assert abs(mean(run1.best_m) - 0.3) <= 1e-10
    assert run1.best_m.values.min() >= 0.0
    assert run1.best_m.values.max() <= 1.0


def test_optimize_trajectory_monotone():
    g = Grid((33,))
    params = ProblemParams(mu=1.0, kappa=1.0, m0=0.3)
    run = optimize(params, g, _small_cfg())
    assert run.trajectory, "winning start must record at least one row"
    Fs = [row[0] for row in run.trajectory]
    assert all(b >= a for a, b in zip(Fs, Fs[1:]))
    assert run.best_F == Fs[-1]
    assert run.best_F >= 0.3 - 1e-8
    for rec in run.starts:
        assert not rec.failed
        traj = [row[0] for row in rec.trajectory]
        assert all(b >= a for a, b in zip(traj, traj[1:]))


def test_optimize_beats_constant_layout():
    g = Grid((65,))
    params = ProblemParams(mu=0.1, kappa=1.0, m0=0.3)
    run = optimize(params, g, _small_cfg(starts=2, seed=1))
    assert run.best_F > 0.3 + 1e-3


def test_optimize_all_starts_failing(monkeypatch):
    def _always_degenerate(grid, kappa, m0, seed):
        raise DegenerateSample("forced by test")

    monkeypatch.setattr(optimizer_mod, "random_fourier_guess", _always_degenerate)
    with pytest.raises(OptimizationError) as exc:
        optimize(ProblemParams(mu=1.0, kappa=1.0, m0=0.3), Grid((17,)), _small_cfg(starts=2))
    assert "start 0" in str(exc.value) and "start 1" in str(exc.value)


def test_optimize_tie_goes_to_the_lowest_start_index(monkeypatch):
    # starts 2 and 3 share the highest F; the failed start 0 and the lower
    # start 1 do not win
    g = Grid((17,))
    crenel = make_crenel(g, 1.0, 0.3).values
    flat = np.full(g.num_nodes, 0.3)
    rec = optimizer_mod.StartRecord

    def fake_ascent(job):
        return [(rec(0, float("-inf"), "failed", [], error="forced by test"), None),
                (rec(1, 0.31, "lp_value", [(0.31, 0.0, 0.0)]), flat),
                (rec(2, 0.35, "lp_value", [(0.35, 0.0, 0.0)]), crenel),
                (rec(3, 0.35, "max_iters", [(0.35, 1.0, 0.01)]), flat)]

    monkeypatch.delenv("KPPFRAG_THREADS", raising=False)
    monkeypatch.setattr(optimizer_mod, "_ascent", fake_ascent)
    run = optimize(ProblemParams(mu=0.1, kappa=1.0, m0=0.3), g, _small_cfg(starts=4))
    assert (run.start_index, run.best_F, run.termination) == (2, 0.35, "lp_value")
    assert np.array_equal(run.best_m.values, crenel)
    assert [r.start_index for r in run.starts] == [0, 1, 2, 3]


def _check_finished_start(rec, max_outer_iters):
    """F never drops along the trajectory of a finished start, every step
    before the last is the full step, and the termination label agrees with
    the last row."""
    Fs = [row[0] for row in rec.trajectory]
    assert len(Fs) == rec.iterations >= 1 and rec.F == Fs[-1]
    assert all(b >= a for a, b in zip(Fs, Fs[1:]))
    assert all(row[1] == 1.0 for row in rec.trajectory[:-1])
    _, step, lp_value = rec.trajectory[-1]
    if rec.termination == "lp_value":
        assert step == 0.0 and lp_value < optimizer_mod.STOP_LP_VALUE
    elif rec.termination == "step_zero":
        assert step == 0.0
    else:
        assert rec.termination == "max_iters"
        assert rec.iterations == max_outer_iters


@given(n=st.integers(17, 65), mu=st.sampled_from([1.0, 0.1, 0.03]),
       max_outer_iters=st.integers(1, 15), seed=st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_ascent_properties(n, mu, max_outer_iters, seed):
    # every finished start passes the label checks, and the winner is
    # admissible; only lp_value and max_iters occur on this space
    params = ProblemParams(mu=mu, kappa=1.0, m0=0.3)
    run = optimize(params, Grid((n,)),
                   OptimConfig(starts=2, seed=seed, max_outer_iters=max_outer_iters))
    for rec in run.starts:
        if not rec.failed:
            _check_finished_start(rec, max_outer_iters)
    best = run.best_m
    ResourceField(best.grid, best.values, best.kappa, best.m0)


def test_rejected_full_step_ends_the_start(monkeypatch):
    # no full step can gain 1e12 times the LP value: the first is rejected
    monkeypatch.setattr(optimizer_mod, "ARMIJO_C", 1e12)
    solve = optimizer_mod.steady_rows
    vertex_step = optimizer_mod._vertex_step_rows
    trial_rows = []            # rows of each steady solve made in each vertex step

    def counting_step(*args, **kwargs):
        trial_rows.append([])

        def counting_solve(grid, m_vals, *solve_args, **solve_kwargs):
            trial_rows[-1].append(len(m_vals))
            return solve(grid, m_vals, *solve_args, **solve_kwargs)

        with pytest.MonkeyPatch.context() as inner:
            inner.setattr(optimizer_mod, "steady_rows", counting_solve)
            return vertex_step(*args, **kwargs)

    monkeypatch.setattr(optimizer_mod, "_vertex_step_rows", counting_step)
    cfg = OptimConfig(starts=2, seed=0)
    run = optimize(ProblemParams(mu=0.1, kappa=1.0, m0=0.3), Grid((33,)), cfg)
    assert [(rec.termination, rec.iterations) for rec in run.starts] == [
        ("step_zero", 1), ("step_zero", 1)]
    # both starts take their one ascent step together, and it makes one
    # trial per start: a rejected full step is not backtracked
    assert trial_rows == [[2]]
    for rec in run.starts:
        _check_finished_start(rec, cfg.max_outer_iters)


def test_optimize_process_pool_matches_serial(monkeypatch):
    g = Grid((33,))
    params = ProblemParams(mu=0.5, kappa=1.0, m0=0.3)
    serial = optimize(params, g, _small_cfg(starts=4))
    monkeypatch.setenv("KPPFRAG_THREADS", "4")
    parallel = optimize(params, g, _small_cfg(starts=4))
    assert np.array_equal(serial.best_m.values, parallel.best_m.values)
    # the winner comes back from a worker through the constructor
    assert not parallel.best_m.values.flags.writeable
    assert serial.best_F == parallel.best_F
    assert [r.F for r in serial.starts] == [r.F for r in parallel.starts]
    assert [r.trajectory for r in serial.starts] == [r.trajectory for r in parallel.starts]


def test_optim_config_validation():
    with pytest.raises(ValueError):
        OptimConfig(starts=0)
