from dataclasses import replace

import numpy as np
import pytest

from kppfrag import (
    Grid,
    NonPositiveMeanResource,
    OptimConfig,
    OptimizationError,
    ProblemParams,
    ResolutionError,
    ResourceField,
    check_resolution,
    efficiency_ratio,
    fragmentation_sweep,
    lemma2_bound_sweep,
    make_crenel,
    periodisation_check,
    refine_fold_values,
    solve_steady_state,
    total_population,
)
import kppfrag.experiments as experiments_mod
import kppfrag.grids as grids_mod
from conftest import constant_resource


def test_periodisation_constant_invariant():
    g = Grid((65,))
    m = constant_resource(g, 0.3)
    rows = periodisation_check(m, ProblemParams(mu=0.5, kappa=1.0, m0=0.3), k_max=3)
    assert [r.k for r in rows] == [0, 1, 2, 3]
    assert rows[0].deviation == 0.0
    assert all(r.deviation <= 1e-12 for r in rows)


def test_periodisation_crenel_exact_fold():
    g = Grid((129,))
    m = make_crenel(g, 1.0, 0.3)
    params = ProblemParams(mu=0.05, kappa=1.0, m0=0.3)
    rows = periodisation_check(m, params, k_max=3)
    for r in rows:
        assert r.mu_k == pytest.approx(0.05 / 4.0**r.k, rel=1e-15)
        assert r.deviation <= 1e-9
    assert rows[1].F_k == pytest.approx(rows[0].F_k, abs=1e-9)


def test_periodisation_rejects_negative_k():
    g = Grid((17,))
    m = constant_resource(g, 0.3)
    with pytest.raises(ValueError):
        periodisation_check(m, ProblemParams(mu=1.0, kappa=1.0, m0=0.3), k_max=-1)
    with pytest.raises(ValueError):
        lemma2_bound_sweep(m, ProblemParams(mu=1.0, kappa=1.0, m0=0.3), 1.0, k_max=-1)


def test_lemma_bound_constant_field():
    g = Grid((65,))
    m = constant_resource(g, 0.3)
    eta_hat, rows = lemma2_bound_sweep(
        m, ProblemParams(mu=0.1, kappa=1.0, m0=0.3), underline_mu=0.1, k_max=2
    )
    # flat layout has no excess population at any diffusivity
    assert abs(eta_hat) <= 1e-13
    assert all(r.bound_ok for r in rows)


def test_lemma_bound_crenel_positive_gap():
    g = Grid((129,))
    m = make_crenel(g, 1.0, 0.3)
    eta_hat, rows = lemma2_bound_sweep(
        m, ProblemParams(mu=0.05, kappa=1.0, m0=0.3), underline_mu=0.05, k_max=3,
    )
    assert eta_hat > 0.0
    assert [r.k for r in rows] == [0, 1, 2, 3]
    assert all(r.bound_ok for r in rows)
    assert all(r.min_gap >= eta_hat - 1e-8 for r in rows)


def test_lemma_bound_rejects_bad_mu():
    g = Grid((17,))
    m = constant_resource(g, 0.3)
    with pytest.raises(ValueError):
        lemma2_bound_sweep(m, ProblemParams(mu=1.0, kappa=1.0, m0=0.3), 0.0, 1)


def test_resolution_rule_boundary():
    # 10 / sqrt(0.001) = 316.23: the first passing axis count is 317
    assert not check_resolution(Grid((316,)), 1e-3)
    assert check_resolution(Grid((317,)), 1e-3)
    assert check_resolution(Grid((317, 317)), 1e-3)
    assert not check_resolution(Grid((317, 316)), 1e-3)


def _tiny_cfg():
    return OptimConfig(starts=2, seed=0, max_outer_iters=30)


def test_sweep_requires_decreasing_mu():
    for mu_list, message in (([0.5, 1.0], "strictly decreasing"),
                             ([], "mu_list must not be empty")):
        with pytest.raises(ValueError, match=message):
            fragmentation_sweep(
                ProblemParams(mu=1.0, kappa=1.0, m0=0.3), Grid((33,)), mu_list,
                _tiny_cfg(),
            )


def test_sweep_resolution_gate():
    params = ProblemParams(mu=1.0, kappa=1.0, m0=0.3)
    with pytest.raises(ResolutionError):
        fragmentation_sweep(params, Grid((33,)), [1.0, 0.01], _tiny_cfg())
    report = fragmentation_sweep(
        params, Grid((33,)), [1.0, 0.01], _tiny_cfg(), allow_underresolved=True
    )
    assert len(report.warnings) == 1
    assert "under-resolves" in report.warnings[0]
    assert len(report.records) == 2


def test_sweep_records_structure():
    params = ProblemParams(mu=1.0, kappa=1.0, m0=0.3)
    report = fragmentation_sweep(params, Grid((33,)), [1.0, 0.5], _tiny_cfg())
    assert [r.mu for r in report.records] == [1.0, 0.5]
    for rec in report.records:
        assert rec.error is None
        assert 0.3 - 1e-8 <= rec.best_F <= 1.0 + 1e-8
        assert rec.bv >= 0.0
        assert rec.jumps >= 1
        assert 0.0 <= rec.bangbang_frac <= 1.0
        assert rec.best_m is not None
        assert rec.wall_time >= 0.0
        assert rec.termination in {"lp_value", "step_zero", "max_iters"}


def test_sweep_2d_has_no_jump_count():
    params = ProblemParams(mu=1.0, kappa=1.0, m0=0.3)
    report = fragmentation_sweep(
        params, Grid((17, 17)), [1.0], OptimConfig(starts=1, seed=0, max_outer_iters=20)
    )
    rec = report.records[0]
    assert rec.jumps is None
    assert rec.bv is not None and rec.bv >= 0.0


def test_sweep_survives_failed_diffusivity(monkeypatch):
    real_optimize = experiments_mod.optimize

    def _flaky(params, grid, cfg):
        if params.mu == 0.5:
            raise OptimizationError("forced by test")
        return real_optimize(params, grid, cfg)

    monkeypatch.setattr(experiments_mod, "optimize", _flaky)
    params = ProblemParams(mu=1.0, kappa=1.0, m0=0.3)
    report = fragmentation_sweep(params, Grid((33,)), [1.0, 0.5, 0.25], _tiny_cfg())
    assert len(report.records) == 3
    ok = [r for r in report.records if r.error is None]
    bad = [r for r in report.records if r.error is not None]
    assert [r.mu for r in bad] == [0.5]
    assert bad[0].best_F is None and bad[0].best_m is None
    assert [r.mu for r in ok] == [1.0, 0.25]


def test_identity_experiments_build_one_laplacian_per_grid(monkeypatch):
    # operator builds, one per Grid object the campaign solves on
    lap_builds = []
    build = grids_mod._build_operators

    def counting_build(grid):
        lap_builds.append(grid.counts)
        return build(grid)

    monkeypatch.setattr(grids_mod, "_build_operators", counting_build)
    m = make_crenel(Grid((33,)), 1.0, 0.3)
    params = ProblemParams(mu=0.5, kappa=1.0, m0=0.3)
    refined = [(33,), (65,), (129,), (257,)]
    periodisation_check(m, params, k_max=3)
    assert lap_builds == refined
    lap_builds.clear()
    lemma2_bound_sweep(m, params, 0.5, k_max=3)
    assert lap_builds == refined
    lap_builds.clear()
    efficiency_ratio(m, [1.0, 0.5, 0.1])
    assert lap_builds == [(33,)]


def test_efficiency_constant_unity():
    g = Grid((65,))
    m = constant_resource(g, 0.3)
    assert efficiency_ratio(m, [1.0, 0.1]) == pytest.approx(1.0, abs=1e-12)


def test_efficiency_crenel_in_theory_window(crenel_1000):
    ratio = efficiency_ratio(crenel_1000, [1e-2, 1e-1, 1.0])
    assert 1.0 <= ratio < 3.0
    # small diffusivity dominates: more excess population per unit resource
    lo = efficiency_ratio(crenel_1000, [1e-2])
    hi = efficiency_ratio(crenel_1000, [1.0])
    assert lo > hi


def test_efficiency_zero_mean_is_a_solver_failure():
    # admissible, since mean 0 is within MEAN_TOL of m0 = 1e-11; the
    # solver's own check rejects it, which the CLI maps to exit 3
    m = ResourceField(Grid((33,)), np.zeros(33), 1.0, 1e-11)
    with pytest.raises(NonPositiveMeanResource):
        efficiency_ratio(m, [1.0])


def test_efficiency_rejects_empty_mu_list():
    m = make_crenel(Grid((33,)), 1.0, 0.3)
    with pytest.raises(ValueError):
        efficiency_ratio(m, [])


# ---------------------------------------------------------------------------
# mu-continuation along the rows of the identity experiments

def _record_solves(monkeypatch):
    """Wrap the campaigns' steady solver; each call appends (node count,
    theta0 copy or None, steady-state values, Newton iterations)."""
    calls = []
    real = experiments_mod.solve_steady_state

    def recording(m, params, cfg=None, theta0=None):
        state = real(m, params, cfg, theta0=theta0)
        calls.append((m.grid.num_nodes, None if theta0 is None else np.array(theta0),
                      state.theta.values.copy(), state.iterations))
        return state

    monkeypatch.setattr(experiments_mod, "solve_steady_state", recording)
    return calls


def test_lemma2_rows_continue_from_their_own_states(monkeypatch):
    calls = _record_solves(monkeypatch)
    m = make_crenel(Grid((65,)), 1.0, 0.3)
    lemma2_bound_sweep(m, ProblemParams(mu=0.1, kappa=1.0, m0=0.3), 0.1, k_max=2)
    samples = experiments_mod.LEMMA2_SAMPLES
    rows = [calls[i:i + samples] for i in range(0, len(calls), samples)]
    assert [row[0][0] for row in rows] == [65, 129, 257]
    for row in rows:
        assert len({n for n, *_ in row}) == 1
        assert row[0][1] is None                           # cold first solve
        assert all(theta0 is not None for _, theta0, _, _ in row[1:])
        # every warm start is built from this row's own previous states
        assert np.array_equal(row[1][1], row[0][2])
        for j in range(2, samples):
            assert np.array_equal(row[j][1], 2.0 * row[j - 1][2] - row[j - 2][2])


def test_periodisation_check_solves_cold(monkeypatch):
    calls = _record_solves(monkeypatch)
    m = make_crenel(Grid((65,)), 1.0, 0.3)
    periodisation_check(m, ProblemParams(mu=0.1, kappa=1.0, m0=0.3), k_max=3)
    assert [n for n, *_ in calls] == [65, 129, 257, 513]
    assert all(theta0 is None for _, theta0, _, _ in calls)


def _cold_lemma2_gaps(m, params, k_max):
    """lemma2's row min gaps at underline_mu = params.mu, with every sample
    solved from the cold start."""
    mus = np.geomspace(params.mu, 4.0 * params.mu, experiments_mod.LEMMA2_SAMPLES)
    gaps = []
    for k in range(k_max + 1):
        grid = m.grid.refined(k)
        m_k = ResourceField(grid, refine_fold_values(m.values, m.grid, k),
                            params.kappa, params.m0)
        gaps.append(min(
            total_population(solve_steady_state(
                m_k, replace(params, mu=mu / 4.0**k),
                experiments_mod.IDENTITY_SOLVER)) - params.m0
            for mu in mus))
    return gaps


@pytest.mark.parametrize("n", [257, 1025])
def test_lemma2_continuation_matches_cold_solves(n):
    m = make_crenel(Grid((n,)), 1.0, 0.3)
    params = ProblemParams(mu=0.05, kappa=1.0, m0=0.3)
    eta_hat, rows = lemma2_bound_sweep(m, params, 0.05, k_max=3)
    cold_gaps = _cold_lemma2_gaps(m, params, k_max=3)
    assert eta_hat == pytest.approx(cold_gaps[0], abs=1e-10)
    for row, gap in zip(rows, cold_gaps):
        assert row.min_gap == pytest.approx(gap, abs=1e-10)


def test_lemma2_newton_step_budget(monkeypatch):
    # the cold-start sweep took 316 Newton steps on this instance; the
    # continuation takes 144, and a slide back to cold starts breaks this
    calls = _record_solves(monkeypatch)
    m = make_crenel(Grid((1025,)), 1.0, 0.3)
    lemma2_bound_sweep(m, ProblemParams(mu=0.05, kappa=1.0, m0=0.3), 0.05, k_max=3)
    assert len(calls) == 4 * experiments_mod.LEMMA2_SAMPLES
    assert sum(iters for *_, iters in calls) <= 158
