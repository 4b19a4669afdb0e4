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
Math. J. 21), Newton from theta = max(m) then decreases monotonically to
theta*: every iterate stays above theta* > 0, no line search is needed and
there is no trivial state theta ~ 0 to land on.

One rule, full Newton steps only: a solve first runs from the constant
mean(m) (cold) or the given warm start, and stops, stalled, at the first
step whose linear solve fails, whose residual does not fall or whose
iterate is not strictly positive. It then restarts once from max(m), with
no test. A failed solve is how an indefinite Newton matrix shows in 2D,
where the conjugate-gradient solve takes positive definite matrices only;
on the restart path every Newton matrix is a nonsingular M-matrix, which
is positive definite in the trapezoid inner product the solve uses. It also
restarts when the first run converges with weighted mean below mean(m):
every positive steady state has mean at least mean(m), so it has found
theta ~ 0. A damped step would buy nothing, since any full step leaves
F(theta + delta) = delta^2 >= 0. No iterate is ever clipped: positivity
is tested on the first run and proved on the restart.

Residual tolerances: convergence means ||R||_inf <= newton_tol, or a
finite ||R||_inf below the floating-point evaluation floor of the stiff
term (grids.residual_floor times ||theta||), which is the best any method
can do in double precision at large mu / h^2. An iterate that overflowed
never converges: on the restart its next linear solve fails.

Newton's linear solves are inexact (Dembo, Eisenstat and Steihaug 1982,
SIAM J. Numer. Anal. 19): each step solves its Jacobian system only to the
relative accuracy of the forcing term eta = min(NEWTON_FORCING,
||R||_inf / 2), which shrinks with the residual and so keeps the local
convergence quadratic (the choice is of the kind studied by Eisenstat and
Walker 1996, SIAM J. Sci. Comput. 17). Only the 2D conjugate-gradient
solve can stop early; the 1D solve is direct, so the 1D restart path is
monotone to rounding, while in 2D the inexact steps may break strict
monotonicity.
Adjoint solves keep the rounding floor, and the stopping test above does
not depend on eta, so every accepted state meets the same residual gate.

The Newton iteration works on rows: steady_rows solves a stack of resource
fields (the optimizer's starts) together, one stacked linear solve per
Newton step, and each row stops, stalls, restarts or fails by the rule
above on its own, with the arithmetic of its own solve.
solve_steady_state is its one-row case.
"""
from __future__ import annotations

import math
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
    """mu * Lap(theta) + theta * (m - theta) per row, with the rounding of
    that expression and one temporary."""
    r = lap.apply(theta)
    r *= mu
    growth = m_vals - theta
    growth *= theta
    r += growth
    return r


def _newton(lap, theta, m_vals, mu, cfg, floor_limit, *, monotone):
    """Newton by full steps from each row of theta (S, N), against the same
    row of m_vals. Every row's arithmetic is that of its own run, and theta
    itself is never written to. Returns (theta, rnorm, steps, stalled,
    errors): theta (S, N) holding each row's last iterate, and per row its
    residual sup norm, the Newton steps, whether the run stalled, and None
    or the row's NoConvergence. Unless monotone, a row stalls at the first
    step whose linear solve fails, whose residual does not fall or whose
    iterate is not strictly positive (a NaN fails both tests), and keeps
    the iterate before that step; the failed step counts as a step. On the
    monotone run a failed linear solve ends its row with NoConvergence; on
    both runs the step cap does. The per-row tests run on Python floats,
    which costs less than array calls for the few rows of a stack. Each
    step is one stacked lap.solve_shifted on the working rows, which
    returns a failed row as NaN with its message and raises for none."""
    n_rows = len(theta)
    out, errors = None, [None] * n_rows
    rnorm_out, steps, stalled = [0.0] * n_rows, [0] * n_rows, [False] * n_rows
    live = list(range(n_rows))          # the row of each working row
    r = _residual(lap, theta, m_vals, mu)
    rnorm = np.abs(r).max(axis=1).tolist()

    def keep_rows(keep, *arrays):
        """End the working rows not in keep with the current iterate, written
        into out, which the first row to end makes so that it holds no memory
        through the steps before; return the arrays on the rows kept."""
        nonlocal live, rnorm, out
        if len(keep) == len(live):
            return arrays
        if out is None:
            out = np.empty((n_rows, theta.shape[1]))
        kept = set(keep)
        for k, i in enumerate(live):
            if k not in kept:
                out[i], rnorm_out[i] = theta[k], rnorm[k]
        live, rnorm = [live[k] for k in keep], [rnorm[k] for k in keep]
        return tuple(a[keep] for a in arrays) if keep else arrays

    while live:
        top = np.abs(theta).max(axis=1).tolist()
        going = []
        for k, i in enumerate(live):
            # an overflowed iterate has max|theta| = inf, and its floor test
            # would read inf <= inf
            if rnorm[k] <= cfg.newton_tol or (math.isfinite(rnorm[k])
                                              and rnorm[k] <= floor_limit * top[k]):
                continue
            if steps[i] >= MAX_NEWTON_ITERS:
                errors[i] = NoConvergence("Newton iteration cap exceeded", rnorm[k])
                continue
            going.append(k)
        theta, m_vals, r = keep_rows(going, theta, m_vals, r)
        if not live:
            break
        for i in live:
            steps[i] += 1
        # the direct 1D solve ignores its tolerance
        forcing = [min(NEWTON_FORCING, 0.5 * x) for x in rnorm] if lap.grid.dim == 2 else None
        delta, failures = lap.solve_shifted(mu, 2.0 * theta - m_vals, r, forcing)
        if any(e is not None for e in failures):
            for k, e in enumerate(failures):
                if e is not None and monotone:
                    errors[live[k]] = NoConvergence(f"linear solve failed: {e}", rnorm[k])
                elif e is not None:
                    stalled[live[k]] = True
            theta, m_vals, delta = keep_rows(
                [k for k, e in enumerate(failures) if e is None], theta, m_vals, delta)
            if not live:
                break
        trial = theta + delta
        rt = _residual(lap, trial, m_vals, mu)
        rtn = np.abs(rt).max(axis=1).tolist()
        if not monotone:
            low = trial.min(axis=1).tolist()
            better = [k for k in range(len(live)) if rtn[k] < rnorm[k] and low[k] > 0.0]
            if len(better) < len(live):
                for k in set(range(len(live))).difference(better):
                    stalled[live[k]] = True
                rtn = [rtn[k] for k in better]
                trial, rt, m_vals = keep_rows(better, trial, rt, m_vals)
        theta, r, rnorm = trial, rt, rtn
    # out is None only for a stack of no rows
    return (theta if out is None else out), rnorm_out, steps, stalled, errors


def _below_mean(theta, grid, mbar):
    """True when the weighted mean of theta is under mean(m): no positive
    steady state is (up to rounding slack), so theta sits near theta = 0."""
    return grid.mean(theta) < (1.0 - 1e-8) * mbar


def steady_rows(grid, m_vals, mu, cfg=None, theta0=None):
    """The positive steady state of every row of m_vals (S, N) on grid, by
    the rule of solve_steady_state, warm started from the rows of theta0
    when it is given (read, never written). Each row's arithmetic is that
    of its own solve. Returns (theta, rnorm, iterations, restarted,
    errors): theta (S, N) holding each row's final iterate, the others
    lists; errors[i] is None or the NoConvergence that solve_steady_state
    would raise for row i. Raises
    NonPositiveMeanResource when a row's mean is not positive."""
    cfg = cfg or SolverConfig()
    mbar = [grid.mean(v) for v in m_vals]
    for b in mbar:
        if b <= 0.0:
            raise NonPositiveMeanResource(f"mean(m) = {b} must be positive")
    lap = NeumannLaplacian(grid)
    grid._operators                     # built before any iterate exists
    n = m_vals.shape[1]
    floor_limit = residual_floor(grid, mu)
    # the start arrays are passed, not named, so none outlives its first step
    theta, rnorm, iterations, stalled, errors = _newton(
        lap, np.repeat(np.array(mbar)[:, None], n, axis=1) if theta0 is None
        else np.asarray(theta0, dtype=float), m_vals, mu, cfg, floor_limit, monotone=False)
    again = [i for i, (t, s, e, b) in enumerate(zip(theta, stalled, errors, mbar))
             if e is None and (s or _below_mean(t, grid, b))]
    restarted = [False] * len(mbar)
    if again:
        m_again = m_vals if len(again) == len(mbar) else m_vals[again]
        th, rn, steps, _, errs = _newton(
            lap, np.repeat(m_again.max(axis=1)[:, None], n, axis=1), m_again, mu, cfg,
            floor_limit, monotone=True)
        for k, i in enumerate(again):
            theta[i], rnorm[i], errors[i], restarted[i] = th[k], rn[k], errs[k], True
            iterations[i] += steps[k]
            if errors[i] is None and _below_mean(theta[i], grid, mbar[i]):
                errors[i] = NoConvergence(
                    "both starts converged to the trivial state theta ~ 0", rnorm[i])
    for i, t in enumerate(theta):
        if errors[i] is None and float(np.min(t)) <= 0.0:
            errors[i] = NoConvergence("converged iterate is not strictly positive", rnorm[i])
    return theta, rnorm, iterations, restarted, errors


def solve_steady_state(
    m: ScalarField,
    params: ProblemParams,
    cfg: SolverConfig | None = None,
    theta0: np.ndarray | None = None,
) -> SteadyState:
    """Compute the positive steady state for resource field m: steady_rows
    on its one row.

    Parameters
    ----------
    m, params : the problem instance; params.mu is the diffusivity. m is
        any positive-mean ScalarField; callers pass a ResourceField.
    cfg : the residual tolerance newton_tol; the default 1e-11 serves every
        preset. The caps are fixed: MAX_NEWTON_ITERS Newton steps per run,
        and Newton's linear solves stopped at the forcing term
        min(NEWTON_FORCING, ||R||_inf / 2).
    theta0 : optional warm start (flat nodal array), used as given and
        never written to. Without it the solve starts from the constant
        mean(m).

    The Laplacian's operators belong to m.grid: built on the first solve
    on that Grid object and reused by every later one.

    Newton takes full steps from theta0 or mean(m). At the first step whose
    linear solve fails, whose residual does not fall or whose iterate is
    not strictly positive, or when the run converges with weighted mean
    below mean(m), the solve restarts once from the supersolution
    theta = max(m) and takes every step untested. Every positive discrete
    steady state has weighted mean at least mean(m): dividing the equation
    by theta and summing with the trapezoid weights leaves mu * sum_edges
    (d theta)^2 / (theta_i theta_j h^2) >= 0 on one side, by the symmetry
    of W * Lap; a smaller mean is the trivial state theta ~ 0, which a poor
    start can reach. Newton from max(m) decreases monotonically to the
    positive state (the Newton-Fourier theorem; see the module docstring).

    The returned iterations counts the Newton steps of both runs, the
    rejected or failed step included, and used_fallback is true when the
    solve restarted from max(m).

    Raises
    ------
    NonPositiveMeanResource : if mean(m) <= 0.
    NoConvergence : if a run exceeds MAX_NEWTON_ITERS steps, a linear solve
        of the restart fails, or the restart too ends at the trivial state.
    """
    theta, rnorm, iterations, restarted, errors = steady_rows(
        m.grid, m.values[None], params.mu, cfg,
        None if theta0 is None else np.asarray(theta0, dtype=float)[None])
    if errors[0] is not None:
        raise errors[0]
    return SteadyState(
        theta=ScalarField(m.grid, theta[0]),
        residual_norm=float(rnorm[0]),
        iterations=int(iterations[0]),
        used_fallback=bool(restarted[0]),
    )


def total_population(state: SteadyState) -> float:
    """The maximized objective: weighted mean of the steady state."""
    return mean(state.theta)

