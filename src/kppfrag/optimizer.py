"""Maximization of the steady-state population over admissible resources.

The loop implemented by `optimize` is, per start:

    solve PDE -> solve adjoint -> nodal gradient -> exact LP direction
    -> full step to the LP vertex m + xi

repeated until the LP value drops under STOP_LP_VALUE (a vertex of the
admissible polytope), the full step is rejected, or
OptimConfig.max_outer_iters is hit. This is a conditional-gradient
(Frank-Wolfe) iteration with unit step: one steady solve tests m + xi, which
is accepted when F rises by at least the fraction ARMIJO_C of the LP gain;
the steady states use SolverConfig().
These constants are fixed; OptimConfig carries only the number of starts,
the seed and the outer-iteration cap. Multi-start plays the global-search
role; starts are seeded Fourier fields and fully reproducible.

Gradient derivation: with the objective F = weighted mean of theta and the
steady-state constraint, the sensitivity solves the shifted system

    (mu * (-Lap) + diag(2 theta - m)) p = 1                      (adjoint)

and dF[xi] = sum_i g_i xi_i with g = (w . p . theta) / sum(w). The shifted
matrix is the final Newton Jacobian; the adjoint solves it afresh (a direct
LAPACK tridiagonal solve in 1D, preconditioned conjugate gradients in 2D)
and gates the result on its residual; a failed or non-finite solve raises
SingularAdjoint. At a stable steady state the matrix is a nonsingular
M-matrix, positive definite in the trapezoid inner product CG uses; a 2D
solve that finds it is not (an unstable state, such as theta ~ 0) fails,
and so raises SingularAdjoint too.
With the trapezoid weights w this g is the exact discrete gradient (not an
O(h) approximation): w is the left null-structure of the non-symmetric
Laplacian's boundary rows, which is what makes W * Lap symmetric.
"""
from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .fields import ProblemParams, ResourceField, ScalarField
from .grids import Grid, NeumannLaplacian, residual_floor
from .solver import (
    NoConvergence,
    SolverError,
    solve_steady_state,
    total_population,
)


class SingularAdjoint(RuntimeError):
    """Adjoint system could not be solved reliably; the steady state is
    suspect (not a stable positive branch)."""


class DegenerateSample(RuntimeError):
    """Random field sampler produced an (almost) constant field; the affine
    normalization is undefined. The start that drew it fails."""


class OptimizationError(RuntimeError):
    """Every start failed; carries the per-start error messages."""


ARMIJO_C = 1e-4            # sufficient-increase fraction of the LP gain
STOP_LP_VALUE = 1e-10      # LP value under which m is a vertex


@dataclass(frozen=True)
class OptimConfig:
    max_outer_iters: int = 500
    starts: int = 20
    seed: int = 0

    def __post_init__(self):
        if self.starts < 1 or self.max_outer_iters < 1:
            raise ValueError("starts and max_outer_iters must be at least 1")


@dataclass(frozen=True)
class StartRecord:
    start_index: int
    F: float
    termination: str
    iterations: int
    trajectory: list
    error: str | None = None

    @property
    def failed(self) -> bool:
        return self.error is not None


@dataclass(frozen=True)
class OptimRun:
    best_m: ResourceField
    best_F: float
    trajectory: list           # (F, step, lp_value) rows of the winning start
    termination: str
    start_index: int
    starts: list               # StartRecord per start, in start order


# ---------------------------------------------------------------------------
# adjoint and gradient

def solve_adjoint(
    m: ResourceField,
    theta: ScalarField,
    params: ProblemParams,
) -> ScalarField:
    """Solve (mu * (-Lap) + diag(2 theta - m)) p = 1 and return the adjoint
    field p. Raises SingularAdjoint when the solve fails, p is not finite,
    or the residual ||A p - 1||_inf exceeds max(1e-10,
    residual_floor(grid, mu) * max(1, ||p||_inf))."""
    grid = theta.grid
    mu = params.mu
    diag = 2.0 * theta.values - m.values
    lap = NeumannLaplacian(grid)
    try:
        p = lap.solve_shifted(mu, diag, np.ones(grid.num_nodes))
    except np.linalg.LinAlgError as exc:
        raise SingularAdjoint(f"adjoint solve failed: {exc}") from exc
    if not np.isfinite(p).all():
        raise SingularAdjoint("adjoint solve produced non-finite values")
    resid = mu * (-lap.apply(p)) + diag * p - 1.0
    rnorm = float(np.abs(resid).max())
    floor = residual_floor(grid, mu) * max(1.0, float(np.abs(p).max()))
    if rnorm > max(1e-10, floor):
        raise SingularAdjoint(
            f"adjoint residual {rnorm:.3e} above tolerance; "
            "steady state is not a stable branch"
        )
    return ScalarField(grid, p)


def objective_gradient(theta: ScalarField, p: ScalarField) -> ScalarField:
    """Nodal gradient of the objective from the steady state theta and the
    adjoint field p of solve_adjoint: g = (w . p . theta) / sum(w), so that
    dF in direction xi is exactly sum_i g_i xi_i."""
    grid = theta.grid
    w = grid.node_weights
    g = w * p.values * theta.values / float(w.sum())
    return ScalarField(grid, g)


# ---------------------------------------------------------------------------
# exact direction LP

def best_perturbation(g: ScalarField, m: ResourceField) -> tuple[ScalarField, float]:
    """Exact maximizer of    sum_i g_i xi_i
    over the admissible-perturbation polytope

        -m_i <= xi_i <= kappa - m_i,    sum_i w_i xi_i = 0

    (w the node weights, so m + xi keeps the weighted mean). Threshold
    method on the weighted rates r_i = g_i / w_i: after substituting
    zeta = w . xi the problem is a continuous knapsack; sort by rate
    descending (ties by ascending node index), raise everything above the
    pivot to its cap, drop everything below to its floor, and let the pivot
    node absorb the balance. Returns (xi, lp_value); when the optimum is
    <= 0 (constant rates, or a saturated profile) returns xi = 0, value 0.
    """
    w = g.grid.node_weights
    kappa = m.kappa
    n = g.grid.num_nodes
    rate = g.values / w
    order = np.lexsort((np.arange(n), -rate))
    up = (w * (kappa - m.values))[order]     # zeta caps, >= 0
    dn = (w * m.values)[order]               # zeta floors are -dn, dn >= 0
    # cumulative budget if nodes 0..j raised and the rest dropped
    cum = np.cumsum(up) - (float(dn.sum()) - np.cumsum(dn))
    pivot = int(np.argmax(cum >= 0.0))       # exists: cum[-1] = sum(up) >= 0
    zeta_sorted = np.where(np.arange(n) <= pivot, up, -dn)
    zeta_sorted[pivot] = float(dn[pivot + 1 :].sum()) - float(up[:pivot].sum())
    zeta = np.empty(n)
    zeta[order] = zeta_sorted
    xi = zeta / w
    value = float(g.values @ xi)
    if value <= 0.0:
        return ScalarField(g.grid, np.zeros(n)), 0.0
    return ScalarField(g.grid, xi), value


# ---------------------------------------------------------------------------
# vertex step

def armijo_ascent_step(
    m: ResourceField,
    xi: ScalarField,
    F_current: float,
    lp_value: float,
    params: ProblemParams,
    theta0: np.ndarray | None = None,
):
    """Full step to the LP vertex: accept m + xi when
    F(m + xi) >= F(m) + c lp_value, c = ARMIJO_C.

    m + xi is admissible by LP construction; the clip only removes
    floating-point dust. On sufficient increase returns
    (m + xi, F_next, 1.0, state); when the increase falls short or the
    trial's steady solve does not converge, returns (m, F_current, 0.0,
    None), which signals termination to the caller. Makes at most one
    steady solve.
    """
    if lp_value <= 0.0 or not np.any(xi.values):
        return m, F_current, 0.0, None
    trial = m.with_values(np.clip(m.values + xi.values, 0.0, m.kappa))
    try:
        state = solve_steady_state(trial, params, theta0=theta0)
    except NoConvergence:
        return m, F_current, 0.0, None
    F_trial = total_population(state)
    if F_trial >= F_current + ARMIJO_C * lp_value:
        return trial, F_trial, 1.0, state
    return m, F_current, 0.0, None


# ---------------------------------------------------------------------------
# random admissible starts

def random_fourier_guess(
    grid: Grid, kappa: float, m0: float, seed
) -> ResourceField:
    """Admissible random field from the first five Fourier modes.

    1D: draw 11 coefficients c ~ U[-0.5, 0.5] in the order
    (a0, a1..a5, b1..b5) and form a0 + sum_j a_j sin(j pi x) + b_j cos(j pi x).
    2D: 21 coefficients, a0 then per mode j the four separable products
    sin sin, sin cos, cos sin, cos cos in that order. The affine map
    T(f) = a f + b with

        a = min(|kappa - m0| / max(f - fbar), m0 / |min(f - fbar)|),
        b = m0 - a fbar

    (fbar the weighted mean) stretches the sample to touch a box bound and
    enforces the mean exactly; residual violations below 1e-12 are clipped.

    `seed` may be an integer or a numpy SeedSequence. Same seed, same grid:
    bit-identical output.
    """
    rng = np.random.default_rng(seed)
    if grid.dim == 1:
        x = grid.axis_coords(0)
        c = rng.uniform(-0.5, 0.5, 11)
        f = np.full(grid.num_nodes, c[0])
        for j in range(1, 6):
            f += c[j] * np.sin(j * np.pi * x) + c[5 + j] * np.cos(j * np.pi * x)
    else:
        xg, yg = np.meshgrid(grid.axis_coords(0), grid.axis_coords(1))
        c = rng.uniform(-0.5, 0.5, 21)
        f2 = np.full(xg.shape, c[0])
        ci = 1
        for j in range(1, 6):
            sx, cx = np.sin(j * np.pi * xg), np.cos(j * np.pi * xg)
            sy, cy = np.sin(j * np.pi * yg), np.cos(j * np.pi * yg)
            f2 += (
                c[ci] * sx * sy
                + c[ci + 1] * sx * cy
                + c[ci + 2] * cx * sy
                + c[ci + 3] * cx * cy
            )
            ci += 4
        f = f2.ravel()
    if float(f.max() - f.min()) < 1e-14:
        raise DegenerateSample(
            "sampled field is constant to 1e-14; affine normalization undefined"
        )
    fbar = grid.mean(f)
    hi = float(np.max(f - fbar))
    lo = float(np.min(f - fbar))
    a = min(abs((kappa - m0) / hi), abs(m0 / lo))
    vals = np.clip(a * (f - fbar) + m0, 0.0, kappa)
    return ResourceField(grid, vals, kappa, m0)


def _start_seed(seed: int, start_index: int):
    """Documented substream split: start j draws its guess from
    SeedSequence(entropy=seed, spawn_key=(j,)), once; a degenerate draw
    fails the start."""
    return np.random.SeedSequence(entropy=seed, spawn_key=(start_index,))


# ---------------------------------------------------------------------------
# the full multi-start loop

def _run_single_start(args) -> tuple:
    params, grid, cfg, start_index = args
    try:
        m_cur = random_fourier_guess(
            grid, params.kappa, params.m0, _start_seed(cfg.seed, start_index)
        )
        state = solve_steady_state(m_cur, params)
        F_cur = total_population(state)
        trajectory: list = []
        termination = "max_iters"
        for _ in range(cfg.max_outer_iters):
            p = solve_adjoint(m_cur, state.theta, params)
            g = objective_gradient(state.theta, p)
            xi, lp_value = best_perturbation(g, m_cur)
            if lp_value < STOP_LP_VALUE:
                trajectory.append((F_cur, 0.0, lp_value))
                termination = "lp_value"
                break
            # a rejected step returns m_cur and F_cur unchanged
            m_cur, F_cur, step, state = armijo_ascent_step(
                m_cur, xi, F_cur, lp_value, params,
                theta0=state.theta.values,
            )
            trajectory.append((F_cur, step, lp_value))
            if step == 0.0:
                termination = "step_zero"
                break
        return StartRecord(
            start_index=start_index,
            F=F_cur,
            termination=termination,
            iterations=len(trajectory),
            trajectory=trajectory,
            error=None,
        ), m_cur
    except (SolverError, SingularAdjoint, DegenerateSample) as exc:
        return StartRecord(
            start_index=start_index,
            F=float("-inf"),
            termination="failed",
            iterations=0,
            trajectory=[],
            error=f"{type(exc).__name__}: {exc}",
        ), None


def pool_size() -> int:
    """Worker processes for the starts: KPPFRAG_THREADS, 1 when unset or
    empty. Raises ValueError unless it is a positive integer."""
    text = os.environ.get("KPPFRAG_THREADS", "").strip() or "1"
    try:
        threads = int(text)
    except ValueError:
        threads = 0
    if threads < 1:
        raise ValueError(f"KPPFRAG_THREADS must be a positive integer, got {text!r}")
    return threads


def optimize(params: ProblemParams, grid: Grid, cfg: OptimConfig | None = None) -> OptimRun:
    """Multi-start ascent; returns the best start's result plus all records.

    Reduction is deterministic: highest F wins, ties broken by the lowest
    start index. Set KPPFRAG_THREADS > 1 to run starts in a process pool;
    the result is identical to the serial run.
    """
    cfg = cfg or OptimConfig()
    jobs = [(params, grid, cfg, j) for j in range(cfg.starts)]
    threads = pool_size()
    if threads > 1 and cfg.starts > 1:
        with ProcessPoolExecutor(max_workers=min(threads, cfg.starts)) as pool:
            outcomes = list(pool.map(_run_single_start, jobs))
    else:
        outcomes = [_run_single_start(job) for job in jobs]

    records = [rec for rec, _ in outcomes]
    best = None
    for rec, m_final in outcomes:
        if rec.failed:
            continue
        if best is None or rec.F > best[0].F:
            best = (rec, m_final)
    if best is None:
        msgs = "; ".join(f"start {r.start_index}: {r.error}" for r in records)
        raise OptimizationError(f"all {cfg.starts} starts failed: {msgs}")
    rec, m_final = best
    return OptimRun(
        best_m=m_final,
        best_F=rec.F,
        trajectory=rec.trajectory,
        termination=rec.termination,
        start_index=rec.start_index,
        starts=records,
    )
