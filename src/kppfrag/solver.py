"""Steady states of the logistic diffusion equation on a box.

The discrete problem is R(theta) = 0 with

    R(theta) = mu * Lap(theta) + theta * (m - theta),

Lap the mirrored-ghost Neumann Laplacian, solved by damped Newton from the
constant start theta = mean(m) (or a warm start).

A 2D cold solve (no warm start) whose line search rejects the full Newton
step, the sign of a start far from the solution, turns to nested iteration
at that step (Briggs, Henson and McCormick, A Multigrid Tutorial, 2000): it
solves the grid with (n + 1) // 2 nodes per axis, when every axis keeps at
least COARSEST_NODES of them (so from 63 nodes per axis up), and restarts
Newton from that steady state. The resource is resampled onto the coarser
grid bilinearly (node counts such as 240, i.e. 239 intervals, do not nest,
so injection would not do), the solver calls itself there, and the coarse
state is resampled bilinearly back. Newton's iteration count does not grow
with refinement (Allgower, Boehmer, Potra and Rheinboldt 1986, SIAM J.
Numer. Anal. 23), so the fine grid then needs few steps. Where the grid is
too small to halve, or the coarse level raises SolverError (a resampled
resource with mean <= 0, NoConvergence), Newton goes on from where it was.
A cold solve that only ever takes full steps never leaves the constant-start
path, and neither does a 1D or warm-started solve.

When the plain Newton line search cannot reduce the residual (which
happens at small mu, where the solution develops steep transition layers
far from the constant start), a short burst of the positivity-preserving
fixed-point iteration

    (mu * (-Lap) + diag(theta_k)) theta_{k+1} = m . theta_k

carries the iterate into the Newton basin; the shifted matrix is an M-matrix
for positive theta_k, so iterates stay strictly positive. Every accepted
solution is strictly positive without clipping, and has weighted mean at
least mean(m); a solve that lands on the trivial state theta ~ 0 instead
restarts once from theta = max(m).

Residual tolerances: convergence means ||R||_inf <= newton_tol, or
||R||_inf below the floating-point evaluation floor of the stiff term
(grids.residual_floor times ||theta||), which is the best any method can do
in double precision at large mu / h^2.

Newton's linear solves are inexact (Dembo, Eisenstat and Steihaug 1982,
SIAM J. Numer. Anal. 19): each step solves its Jacobian system only to the
relative accuracy of the forcing term eta = min(NEWTON_FORCING,
||R||_inf / 2), which shrinks with the residual and so keeps the local
convergence quadratic (the choice is of the kind studied by Eisenstat and
Walker 1996, SIAM J. Sci. Comput. 17). Only the 2D Krylov solve can stop
early; the 1D solve is direct. Picard and adjoint solves keep the rounding
floor, and the stopping test above does not depend on eta, so every
accepted state meets the same residual gate.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import ClassVar

import numpy as np

from .fields import ProblemParams, ScalarField, mean
from .grids import Grid, NeumannLaplacian, residual_floor


class SolverError(RuntimeError):
    pass


class NonPositiveMeanResource(SolverError):
    """The equation has no positive steady state when the resource mean
    is not positive."""


class NoConvergence(SolverError):
    def __init__(self, message: str, last_residual: float):
        super().__init__(f"{message} (last residual {last_residual:.3e})")
        self.last_residual = last_residual


MAX_NEWTON_ITERS = 100
DAMPING_FLOOR = 2.0 ** -20             # smallest backtracking fraction
POSITIVITY_FLOOR = 1e-14               # line-search clip only, never the answer
FALLBACK_STEPS = 200                   # total fixed-point step budget
NEWTON_FORCING = 1e-2                  # cap of the forcing term eta
COARSEST_NODES = 32                    # fewest nodes per axis of a nested level


@dataclass(frozen=True)
class SolverConfig:
    newton_tol: float = 1e-11          # inf-norm of the discrete residual
    fallback_burst: ClassVar[int] = 6  # fixed-point steps per rescue burst

    def __post_init__(self):
        if not self.newton_tol > 0:
            raise ValueError("newton_tol must be positive")


@dataclass(frozen=True)
class SteadyState:
    theta: ScalarField
    residual_norm: float
    iterations: int                    # Newton steps on m.grid, all starts (rescue excluded)
    used_fallback: bool = False


def _residual(lap, theta, m_vals, mu):
    return mu * lap.apply(theta) + theta * (m_vals - theta)


def _picard_burst(lap, theta, m_vals, mu, steps):
    for _ in range(steps):
        theta = np.maximum(theta, 1e-300)
        theta = lap.solve_shifted(mu, theta, theta * m_vals)
        theta = np.maximum(theta, 1e-300)
    return theta


def _newton(lap, theta, m_vals, mu, cfg, floor_limit, on_damped=None):
    """Damped Newton with Picard rescue bursts from theta; returns
    (theta, residual norm, Newton iterations, rescue steps). The first time
    the line search rejects the full step, on_damped(), if given, is asked
    for a new start; Newton restarts from it, or goes on as if on_damped
    were not given when it returns None."""
    r = _residual(lap, theta, m_vals, mu)
    rnorm = float(np.abs(r).max())
    newton_iters = 0
    fallback_used = 0
    try:
        while True:
            if rnorm <= cfg.newton_tol or rnorm <= floor_limit * float(np.abs(theta).max()):
                break
            if newton_iters >= MAX_NEWTON_ITERS:
                raise NoConvergence("Newton iteration cap exceeded", rnorm)
            delta = lap.solve_shifted(mu, 2.0 * theta - m_vals, r,
                                      rtol=min(NEWTON_FORCING, 0.5 * rnorm))
            newton_iters += 1
            step = 1.0
            accepted = False
            while step >= DAMPING_FLOOR:
                trial = np.maximum(theta + step * delta, POSITIVITY_FLOOR)
                rt = _residual(lap, trial, m_vals, mu)
                rtn = float(np.abs(rt).max())
                if rtn < rnorm:
                    theta, r, rnorm = trial, rt, rtn
                    accepted = True
                    break
                step *= 0.5
            if step < 1.0 and on_damped is not None:
                restart, on_damped = on_damped(), None
                if restart is not None:
                    theta = restart
                    r = _residual(lap, theta, m_vals, mu)
                    rnorm = float(np.abs(r).max())
                    continue
            if not accepted:
                if fallback_used + cfg.fallback_burst > FALLBACK_STEPS:
                    raise NoConvergence("Newton stalled and rescue budget spent", rnorm)
                theta = _picard_burst(lap, theta, m_vals, mu, cfg.fallback_burst)
                fallback_used += cfg.fallback_burst
                r = _residual(lap, theta, m_vals, mu)
                rnorm = float(np.abs(r).max())
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"linear solve failed: {exc}", rnorm) from exc
    return theta, rnorm, newton_iters, fallback_used


def _axis_stencil(n_src, n_dst):
    """Left source node and right-neighbour weight of each of n_dst
    equispaced nodes on [0, 1], for linear interpolation from n_src nodes.
    Integer arithmetic, so a node that coincides with a source node takes
    its value exactly."""
    pos = np.arange(n_dst) * (n_src - 1)
    left = np.minimum(pos // (n_dst - 1), n_src - 2)
    return left, (pos - left * (n_dst - 1)) / (n_dst - 1)


def _bilinear(values, src, dst):
    """The bilinear interpolant of nodal values on the 2D grid src, sampled
    at the nodes of dst (both on the unit square)."""
    (ix, fx), (iy, fy) = map(_axis_stencil, src.counts, dst.counts)
    v = values.reshape(src.counts[1], src.counts[0])
    v = v[:, ix] * (1.0 - fx) + v[:, ix + 1] * fx
    return (v[iy] * (1.0 - fy)[:, None] + v[iy + 1] * fy[:, None]).ravel()


def _nested_start(m, params, cfg):
    """Restart of a cold 2D solve whose full Newton step failed: the steady
    state on the grid with (n + 1) // 2 nodes per axis, resampled onto
    m.grid. None when that grid has fewer than COARSEST_NODES nodes on an
    axis or its solve fails."""
    counts = tuple((n + 1) // 2 for n in m.grid.counts)
    if min(counts) < COARSEST_NODES:
        return None
    coarse = Grid(counts)
    try:
        # looked up on the module at call time, so a wrapper of
        # solve_steady_state sees every level as a call of its own
        state = solve_steady_state(
            ScalarField(coarse, _bilinear(m.values, m.grid, coarse)), params, cfg)
    except SolverError:
        return None
    return _bilinear(state.theta.values, coarse, m.grid)


def _below_mean(theta, weights, mbar):
    """True when the weighted mean of theta is under mean(m): no positive
    steady state is (up to rounding slack), so theta sits near theta = 0."""
    return float(weights @ theta) / float(weights.sum()) < (1.0 - 1e-8) * mbar


def solve_steady_state(
    m: ScalarField,
    params: ProblemParams,
    cfg: SolverConfig | None = None,
    theta0: np.ndarray | None = None,
    lap: NeumannLaplacian | None = None,
) -> SteadyState:
    """Compute the positive steady state for resource field m.

    Parameters
    ----------
    m, params : the problem instance; params.mu is the diffusivity. m is
        any positive-mean ScalarField: callers pass a ResourceField, the
        coarse levels of a nested solve the resampled resource.
    cfg : the residual tolerance newton_tol; the default 1e-11 serves every
        preset. The caps are fixed: MAX_NEWTON_ITERS Newton iterations per
        start, backtracking down to DAMPING_FLOOR, trial iterates clipped at
        POSITIVITY_FLOOR, FALLBACK_STEPS fixed-point steps spent in
        bursts of SolverConfig.fallback_burst, and Newton's linear solves
        stopped at the forcing term min(NEWTON_FORCING, ||R||_inf / 2).
    theta0 : optional warm start (flat nodal array). Without it the solve
        starts from the constant mean(m). A 2D cold solve whose line search
        rejects the full Newton step restarts there, once, from the steady
        state of the grid with (n + 1) // 2 nodes per axis, solved by this
        function and resampled bilinearly, when every axis of that grid has
        at least COARSEST_NODES nodes and that coarse solve succeeds;
        otherwise it goes on as from any start.
    lap : optional prebuilt Laplacian for m.grid (reused across solves in
        the optimizer loops).

    Every positive discrete steady state has weighted mean at least mean(m):
    dividing the equation by theta and summing with the trapezoid weights
    leaves mu * sum_edges (d theta)^2 / (theta_i theta_j h^2) >= 0 on one side,
    by the symmetry of W * Lap. An iterate that converges with a smaller
    mean has found the trivial state theta ~ 0 (it happens from the start
    mean(m) at small mu); the solve then restarts once from the
    supersolution theta = max(m), which lies above the positive state and
    away from theta = 0.

    The returned iterations and used_fallback describe the Newton runs on
    m.grid only: iterations counts the steps before a nested restart too,
    and the coarse levels' own Newton steps and rescues are not included.

    Raises
    ------
    NonPositiveMeanResource : if mean(m) <= 0.
    NoConvergence : if Newton plus the fixed-point rescue budget fail, a
        linear solve fails, or both starts end at the trivial state.
    """
    cfg = cfg or SolverConfig()
    mbar = mean(m)
    if mbar <= 0.0:
        raise NonPositiveMeanResource(f"mean(m) = {mbar} must be positive")
    lap = lap or NeumannLaplacian(m.grid)
    mu = params.mu
    m_vals = m.values
    weights = m.grid.node_weights

    theta = (
        np.full(m.grid.num_nodes, mbar)
        if theta0 is None
        else np.maximum(np.asarray(theta0, dtype=float), 1e-300)
    )
    floor_limit = residual_floor(m.grid, mu)
    nested = (partial(_nested_start, m, params, cfg)
              if theta0 is None and m.grid.dim == 2 else None)
    theta, rnorm, newton_iters, fallback_used = _newton(
        lap, theta, m_vals, mu, cfg, floor_limit, nested
    )
    if _below_mean(theta, weights, mbar):
        theta, rnorm, more_iters, more_fallback = _newton(
            lap, np.full(m.grid.num_nodes, float(np.max(m_vals))), m_vals, mu, cfg,
            floor_limit,
        )
        newton_iters += more_iters
        fallback_used += more_fallback
        if _below_mean(theta, weights, mbar):
            raise NoConvergence(
                "both starts converged to the trivial state theta ~ 0", rnorm
            )

    if float(np.min(theta)) <= 0.0:
        raise NoConvergence("converged iterate is not strictly positive", rnorm)

    return SteadyState(
        theta=ScalarField(m.grid, theta),
        residual_norm=rnorm,
        iterations=newton_iters,
        used_fallback=fallback_used > 0,
    )


def total_population(state: SteadyState) -> float:
    """The maximized objective: weighted mean of the steady state."""
    return mean(state.theta)

