"""Release gate: fourteen headline guarantees, one test per criterion.

Run `pytest -v tests/test_acceptance.py` for a pass/fail line per
criterion. The long-running entries (the 1D fragmentation sweep used by
criteria 8/9/13, and the 2D campaigns of criterion 14) execute once in
module-scoped fixtures and are shared.
"""
import json
import os
import time

import numpy as np
import pytest

from kppfrag import (
    DEFAULT_EFFICIENCY_MUS,
    Grid,
    OptimConfig,
    ProblemParams,
    ResourceField,
    ScalarField,
    SolverConfig,
    best_perturbation,
    efficiency_ratio,
    field_from_csv,
    fragmentation_sweep,
    jump_count,
    lemma2_bound_sweep,
    make_crenel,
    mean,
    objective_gradient,
    optimize,
    periodisation_check,
    random_fourier_guess,
    solve_adjoint,
    solve_steady_state,
    total_population,
)
from kppfrag.cli import main
from conftest import (
    constant_resource,
    interior_resource,
    l1_distance,
    lou_identity_residual,
    lp_bruteforce,
    zero_mean_direction,
)

KAPPA = 1.0


# ---------------------------------------------------------------------------
# shared expensive runs

@pytest.fixture(scope="module")
def sweep_dirs(tmp_path_factory):
    """The 1D fragmentation campaign (N=1000, four diffusivities, 20 seeded
    starts), run twice with identical settings for the determinism check."""
    base = tmp_path_factory.mktemp("sweeps")
    dirs = [str(base / "run1"), str(base / "run2")]
    t0 = time.perf_counter()
    rc1 = main(["sweep", "--preset", "paper-1d-m03", "--seed", "0",
                "--starts", "20", "--out", dirs[0]])
    first_wall = time.perf_counter() - t0
    rc2 = main(["sweep", "--preset", "paper-1d-m03", "--seed", "0",
                "--starts", "20", "--out", dirs[1]])
    assert rc1 == 0 and rc2 == 0
    return dirs[0], dirs[1], first_wall


@pytest.fixture(scope="module")
def crenel_1025():
    grid = Grid((1025,))
    m = make_crenel(grid, KAPPA, 0.3)
    return m, ProblemParams(mu=0.05, kappa=KAPPA, m0=0.3)


# ---------------------------------------------------------------------------
# criteria

def test_criterion_01_constant_exactness():
    grid = Grid((257,))
    t0 = time.perf_counter()
    for m0 in (0.3, 0.6):
        m = constant_resource(grid, m0, KAPPA)
        for mu in (1e-3, 1.0, 1e3):
            F = total_population(
                solve_steady_state(m, ProblemParams(mu=mu, kappa=KAPPA, m0=m0))
            )
            assert abs(F - m0) <= 1e-10, (m0, mu, F)
    wall = time.perf_counter() - t0
    print(f"six flat solves in {wall * 1e3:.0f} ms")
    assert wall < 1.0


def test_criterion_02_bounds_battery():
    grid = Grid((257,))
    rng = np.random.default_rng(0)
    t0 = time.perf_counter()
    worst_low, worst_high = np.inf, -np.inf
    for i in range(200):
        m0 = float(rng.uniform(0.1, 0.8))
        mu = float(10.0 ** rng.uniform(-3.0, 2.0))
        m = random_fourier_guess(grid, KAPPA, m0, seed=i)
        state = solve_steady_state(m, ProblemParams(mu=mu, kappa=KAPPA, m0=m0))
        F = total_population(state)
        assert F >= m0 - 1e-8, (i, m0, mu, F)
        assert F <= KAPPA + 1e-8, (i, m0, mu, F)
        assert float(np.min(state.theta.values)) > 0.0, (i, m0, mu)
        worst_low = min(worst_low, F - m0)
        worst_high = max(worst_high, F)
    wall = time.perf_counter() - t0
    print(f"200 instances in {wall:.1f}s; min F-m0 = {worst_low:.2e}, "
          f"max F = {worst_high:.6f}")
    assert wall < 120.0


def test_criterion_03_energy_balance_diagnostic(crenel_state_mu001):
    m1000, params, s1000 = crenel_state_mu001
    r1000 = lou_identity_residual(s1000, m1000, params)
    m2000 = make_crenel(Grid((2000,)), KAPPA, 0.3)
    s2000 = solve_steady_state(m2000, params)
    r2000 = lou_identity_residual(s2000, m2000, params)
    print(f"residuals: N=1000 {r1000:.4e}, N=2000 {r2000:.4e}, "
          f"ratio {r2000 / r1000:.3f}")
    assert r1000 <= 5e-3
    assert 0.35 <= r2000 / r1000 <= 0.65     # halves within +-30%


def test_criterion_04_squeeze_invariance(crenel_1025):
    m, params = crenel_1025
    rows = periodisation_check(m, params, k_max=3)
    devs = {r.k: r.deviation for r in rows}
    print("deviations:", {k: f"{v:.2e}" for k, v in devs.items()})
    for k in (1, 2, 3):
        assert devs[k] <= 1e-8, (k, devs[k])


def test_criterion_05_uniform_excess_bound(crenel_1025):
    m, params = crenel_1025
    eta_hat, rows = lemma2_bound_sweep(m, params, underline_mu=0.05, k_max=3)
    print(f"eta_hat = {eta_hat:.12f}; "
          f"min gaps = {[f'{r.min_gap:.6f}' for r in rows]}")
    assert eta_hat > 0.0
    # independently derived pin for this instance
    assert eta_hat == pytest.approx(0.057361051522, abs=1e-8)
    for r in rows:
        assert r.min_gap >= eta_hat - 1e-8, (r.k, r.min_gap)
        assert r.bound_ok


def test_criterion_06_gradient_consistency():
    # mu capped at 1: toward the flat large-mu regime the derivative along
    # budget-preserving directions vanishes and a relative metric on it
    # degenerates into solver-tolerance noise
    cases = [(Grid((101,)), s) for s in range(40)]
    cases += [(Grid((17, 17)), 40 + s) for s in range(10)]
    rng = np.random.default_rng(6)
    t = 1e-5
    solver_cfg = SolverConfig(newton_tol=1e-12)
    worst = 0.0
    for grid, seed in cases:
        mu = float(10.0 ** rng.uniform(-2.0, 0.0))
        params = ProblemParams(mu=mu, kappa=KAPPA, m0=0.35)
        m = interior_resource(random_fourier_guess(grid, KAPPA, 0.35, seed))
        state = solve_steady_state(m, params, solver_cfg)
        adj = solve_adjoint(m, state.theta, params)
        grad = objective_gradient(state.theta, adj)
        xi = zero_mean_direction(grid, seed)
        predicted = float(grad.values @ xi)
        Fp = total_population(
            solve_steady_state(m.with_values(m.values + t * xi), params, solver_cfg))
        Fm = total_population(
            solve_steady_state(m.with_values(m.values - t * xi), params, solver_cfg))
        fd = (Fp - Fm) / (2.0 * t)
        rel = abs(fd - predicted) / max(abs(fd), abs(predicted))
        worst = max(worst, rel)
        assert rel <= 1e-4, (grid.counts, seed, mu, rel)
    print(f"50 triples, worst relative error {worst:.2e}")


def test_criterion_07_direction_lp_oracle():
    rng = np.random.default_rng(7)
    t0 = time.perf_counter()
    worst = 0.0
    for i in range(1000):
        n = int(rng.integers(3, 9))
        grid = Grid((n,))
        vals = rng.uniform(0.0, KAPPA, n)
        m0 = mean(ScalarField(grid, vals))
        m = ResourceField(grid, vals, KAPPA, m0)
        g = ScalarField(grid, rng.standard_normal(n))
        _, value = best_perturbation(g, m)
        ref = max(lp_bruteforce(g.values, vals, KAPPA, grid.node_weights), 0.0)
        worst = max(worst, abs(value - ref))
        assert abs(value - ref) <= 1e-12, (i, n, value, ref)
    print(f"1000 instances in {time.perf_counter() - t0:.1f}s, "
          f"worst gap {worst:.2e}")


def _block_shape(values: np.ndarray) -> tuple[int, bool]:
    grid = Grid((values.size,))
    field = ScalarField(grid, values)
    jumps = jump_count(field, KAPPA / 2.0)
    touches = values[0] > KAPPA / 2.0 or values[-1] > KAPPA / 2.0
    return jumps, touches


def test_criterion_08_concentration_at_large_mu(sweep_dirs):
    run_dir, _, _ = sweep_dirs
    report = json.loads(open(os.path.join(run_dir, "report.json")).read())
    assert report["records"][0]["mu"] == 1.0
    best_m = field_from_csv(open(os.path.join(run_dir, "best_m_00.csv")).read())
    jumps, touches = _block_shape(best_m.values)
    print(f"mu=1: jump_count={jumps}, boundary_block={touches}")
    if jumps == 1 and touches:
        return
    # documented escalation: concentration is only guaranteed above a
    # threshold diffusivity; retry once at mu=5 and report the shift
    run = optimize(
        ProblemParams(mu=5.0, kappa=KAPPA, m0=0.3), Grid((1000,)),
        OptimConfig(starts=20, seed=0),
    )
    jumps5, touches5 = _block_shape(run.best_m.values)
    print(f"concentration threshold above mu=1; at mu=5: "
          f"jump_count={jumps5}, boundary_block={touches5}")
    assert jumps5 == 1 and touches5


def test_criterion_09_fragmentation_sweep(sweep_dirs):
    run_dir, _, wall = sweep_dirs
    report = json.loads(open(os.path.join(run_dir, "report.json")).read())
    recs = report["records"]
    assert [r["mu"] for r in recs] == [1.0, 0.1, 0.01, 0.001]
    assert all(r["error"] is None for r in recs)
    bvs = [r["bv"] for r in recs]
    jumps = [r["jumps"] for r in recs]
    print(f"bv along decreasing mu: {[f'{b:.3f}' for b in bvs]}; "
          f"jumps: {jumps}; first run {wall:.0f}s")
    inversions = [(a, b) for a, b in zip(bvs, bvs[1:]) if not b > a]
    assert len(inversions) <= 1, bvs
    assert all(b >= 0.95 * a for a, b in inversions), bvs
    assert jumps[3] >= 4 * jumps[0], jumps
    assert wall < 1800.0


def test_criterion_10_sharpening_profiles(crenel_1000):
    dists = []
    for mu in (1e-2, 1e-3, 1e-4):
        state = solve_steady_state(
            crenel_1000, ProblemParams(mu=mu, kappa=KAPPA, m0=0.3)
        )
        dists.append(l1_distance(state.theta, crenel_1000))
    print("L1 distances:", [f"{d:.6f}" for d in dists])
    assert dists[0] > dists[1] > dists[2]
    # independently derived pins for the same instance
    for got, ref in zip(dists, (0.178384, 0.066370, 0.022274)):
        assert got == pytest.approx(ref, rel=1e-3)


def test_criterion_11_flattening_limit(crenel_1000):
    F = total_population(
        solve_steady_state(crenel_1000, ProblemParams(mu=1e3, kappa=KAPPA, m0=0.3))
    )
    print(f"F at mu=1e3: {F:.8f}")
    assert abs(F - 0.3) <= 1e-2


def test_criterion_12_efficiency_window():
    grid = Grid((257,))
    rng = np.random.default_rng(12)
    t0 = time.perf_counter()
    ratios = []
    for i in range(100):
        m0 = float(rng.uniform(0.1, 0.8))
        m = random_fourier_guess(grid, KAPPA, m0, seed=1000 + i)
        ratio = efficiency_ratio(m, DEFAULT_EFFICIENCY_MUS)
        ratios.append(ratio)
        assert 1.0 <= ratio < 3.0, (i, m0, ratio)
    print(f"100 instances in {time.perf_counter() - t0:.1f}s; "
          f"ratio range [{min(ratios):.4f}, {max(ratios):.4f}]")


def test_criterion_13_deterministic_manifests(sweep_dirs):
    run1, run2, _ = sweep_dirs
    blob1 = open(os.path.join(run1, "manifest.json"), "rb").read()
    blob2 = open(os.path.join(run2, "manifest.json"), "rb").read()
    assert blob1 == blob2
    print(f"manifests byte-identical ({len(blob1)} bytes)")


def test_criterion_14_two_dimensional_campaign():
    grid = Grid((60, 60))
    t0 = time.perf_counter()
    outcomes = {}
    for m0 in (0.3, 0.6):
        report = fragmentation_sweep(
            ProblemParams(mu=0.1, kappa=KAPPA, m0=m0),
            grid,
            [0.1, 0.01],
            OptimConfig(starts=20, seed=0),
            allow_underresolved=True,
        )
        assert all(r.error is None for r in report.records)
        bv_coarse, bv_fine = (r.bv for r in report.records)
        outcomes[m0] = (bv_coarse, bv_fine)
        assert bv_fine > bv_coarse, (m0, bv_coarse, bv_fine)
    wall = time.perf_counter() - t0
    print(f"60x60 campaigns in {wall:.0f}s; bv(mu=0.1) -> bv(mu=0.01): "
          + "; ".join(f"m0={k}: {a:.3f} -> {b:.3f}"
                      for k, (a, b) in outcomes.items()))
    assert wall < 1200.0
