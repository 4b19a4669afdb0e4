"""Steady states of the logistic diffusion equation on a box.

The discrete problem is R(theta) = 0 with

    R(theta) = mu * Lap(theta) + theta * (m - theta),

Lap the mirrored-ghost Neumann Laplacian, solved by Newton's method.

One globalization serves every start. The map F = -R is convex:
componentwise F(y) - F(x) - F'(x)(y - x) = (y - x)^2. Its Jacobian
F'(theta) = mu * (-Lap) + diag(2 theta - m) is a Z-matrix, and a
nonsingular M-matrix at every theta >= theta*, the positive steady state,
since F'(theta*) theta* = theta*^2 > 0. Any constant c >= max(m) has
F(c) = c (c - m) >= 0, so it is a supersolution. By the Newton-Fourier
theorem (Ortega and Rheinboldt, Iterative Solution of Nonlinear Equations
in Several Variables, 1970, section 13.3; Sattinger 1972, Indiana Univ.
Math. J. 21), undamped Newton from theta = max(m) then decreases
monotonically to theta*: every iterate stays above theta* > 0, no line
search is needed and there is no trivial state theta ~ 0 to land on.

A solve first runs damped Newton from the constant mean(m) (a cold solve)
or from the given warm start, which is usually closer. It restarts once,
from the constant max(m) with undamped steps and no residual test, when

- a cold solve's line search rejects a full Newton step (the sign of a
  start far from the solution, such as a single block at small mu);
- a warm solve's line search stalls below DAMPING_FLOOR;
- either converges with weighted mean below mean(m): every positive
  steady state has mean at least mean(m), so it has found theta ~ 0.

Positivity is proved, not clipped: the restart's iterates stay above
theta* > 0 (with exact linear solves), so the clip of trial iterates at POSITIVITY_FLOOR, which
guards the damped run, does not bind there.

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
early; the 1D solve is direct, so the 1D restart path is monotone to
rounding, while in 2D the inexact steps may break strict monotonicity.
Adjoint solves keep the rounding floor, and the stopping test above does
not depend on eta, so every accepted state meets the same residual gate.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .fields import ProblemParams, ScalarField, mean
from .grids import NeumannLaplacian, residual_floor


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
NEWTON_FORCING = 1e-2                  # cap of the forcing term eta


@dataclass(frozen=True)
class SolverConfig:
    newton_tol: float = 1e-11          # inf-norm of the discrete residual
    # no solver reads it: perfbench/tracing.py divides the fixed-point steps
    # it infers by it, and it goes when perfbench reads counters the solver
    # keeps itself
    fallback_burst: ClassVar[int] = 6

    def __post_init__(self):
        if not self.newton_tol > 0:
            raise ValueError("newton_tol must be positive")


@dataclass(frozen=True)
class SteadyState:
    theta: ScalarField
    residual_norm: float
    iterations: int                    # Newton steps, both runs
    used_fallback: bool = False        # restarted from max(m)


def _residual(lap, theta, m_vals, mu):
    return mu * lap.apply(theta) + theta * (m_vals - theta)


def _newton(lap, theta, m_vals, mu, cfg, floor_limit, min_step):
    """Newton from theta; returns (theta, residual norm, Newton steps,
    stalled). Each step backtracks by halving until the residual falls, and
    the run stops, stalled, when the fraction would drop below min_step.
    With min_step None every full step is taken, with no residual test."""
    r = _residual(lap, theta, m_vals, mu)
    rnorm = float(np.abs(r).max())
    newton_iters = 0
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
            while True:
                trial = np.maximum(theta + step * delta, POSITIVITY_FLOOR)
                rt = _residual(lap, trial, m_vals, mu)
                rtn = float(np.abs(rt).max())
                if min_step is None or rtn < rnorm:
                    break
                step *= 0.5
                if step < min_step:
                    return theta, rnorm, newton_iters, True
            theta, r, rnorm = trial, rt, rtn
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"linear solve failed: {exc}", rnorm) from exc
    return theta, rnorm, newton_iters, False


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
        any positive-mean ScalarField; callers pass a ResourceField.
    cfg : the residual tolerance newton_tol; the default 1e-11 serves every
        preset. The caps are fixed: MAX_NEWTON_ITERS Newton steps per run,
        backtracking down to DAMPING_FLOOR, trial iterates clipped at
        POSITIVITY_FLOOR, and Newton's linear solves stopped at the forcing
        term min(NEWTON_FORCING, ||R||_inf / 2).
    theta0 : optional warm start (flat nodal array). Without it the solve
        starts from the constant mean(m) and takes only full Newton steps.
    lap : optional prebuilt Laplacian for m.grid (reused across solves in
        the optimizer loops).

    The first run is damped Newton from theta0 or mean(m). The solve
    restarts once from the supersolution theta = max(m), taking undamped
    Newton steps with no residual test, when a cold run's line search
    rejects a full step, when a warm run's line search stalls below
    DAMPING_FLOOR, or when the first run converges with weighted mean
    below mean(m). Every positive discrete steady state has weighted mean
    at least mean(m): dividing the equation by theta and summing with the
    trapezoid weights leaves mu * sum_edges (d theta)^2 / (theta_i theta_j
    h^2) >= 0 on one side, by the symmetry of W * Lap; a smaller mean is
    the trivial state theta ~ 0 (it happens from the start mean(m) at
    small mu). Undamped Newton from max(m) decreases monotonically to the
    positive state (the Newton-Fourier theorem; see the module docstring).

    The returned iterations counts the Newton steps of both runs, the
    step whose line search failed included, and used_fallback is true
    when the solve restarted from max(m).

    Raises
    ------
    NonPositiveMeanResource : if mean(m) <= 0.
    NoConvergence : if a run exceeds MAX_NEWTON_ITERS steps, a linear solve
        fails, or the restart too ends at the trivial state.
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
    theta, rnorm, newton_iters, stalled = _newton(
        lap, theta, m_vals, mu, cfg, floor_limit,
        1.0 if theta0 is None else DAMPING_FLOOR,
    )
    restarted = stalled or _below_mean(theta, weights, mbar)
    if restarted:
        theta, rnorm, more_iters, _ = _newton(
            lap, np.full(m.grid.num_nodes, float(np.max(m_vals))), m_vals, mu, cfg,
            floor_limit, None,
        )
        newton_iters += more_iters
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
        used_fallback=restarted,
    )


def total_population(state: SteadyState) -> float:
    """The maximized objective: weighted mean of the steady state."""
    return mean(state.theta)

