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

A steady_rows call owns the arrays its runs work in (see _newton): four
(S, N) buffers shared by both runs, with the 2D CG state in the same
allocation, made once per call and freed with it; nothing is cached on the
Grid or the module. The caller's m_vals and theta0 are read and never
written. A Newton step allocates no (S, N) array but, in 1D, the gtsv
diagonals and the Laplacian's correlation product; in 2D only scipy's DIA
product returns a new vector.
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


class _RowStack:
    """The working rows of one run over a stack of S rows: buffers, its
    (S, N) float64 arrays, made once for the run and freed with it, and
    rows, the label of each working row (its index in the run's stack), in
    buffer order. The working rows are the first len(rows) rows of every
    buffer, so a step works on C-contiguous views v[:live], which one 1D
    gtsv call on the block-diagonal system needs. When rows end, keep moves
    the rows that go on to the front, in place and in order."""

    def __init__(self, rows, buffers: list):
        self.rows = list(rows)
        self.buffers = buffers

    def keep(self, keep, *arrays):
        """Keep the working rows at the ascending positions keep and drop the
        others: move the kept rows of each array (the views of the working
        rows, or per-row vectors) to its front, in place, and return the
        arrays' views of them."""
        moves = [(dst, src) for dst, src in enumerate(keep) if dst != src]
        for a in arrays:
            for dst, src in moves:
                a[dst] = a[src]
        self.rows = [self.rows[k] for k in keep]
        return tuple(a[:len(keep)] for a in arrays)


def _residual(lap, theta, m_vals, mu, r, growth):
    """mu * Lap(theta) + theta * (m - theta) per row, with the rounding of
    that expression, written into r and returned; growth is scratch of
    r's shape."""
    # a 1D product is a new correlation in any case, so it is scaled into r
    np.multiply(lap.apply(theta, out=None if lap.grid.dim == 1 else r), mu, out=r)
    np.subtract(m_vals, theta, out=growth)
    growth *= theta
    r += growth
    return r


def _newton(lap, theta, m_vals, mu, cfg, floor_limit, out=None, stack=None, *, monotone):
    """Newton by full steps from each row of theta (S, N, or S, 1 for
    constant starts), against the same row of m_vals (S, N); theta and
    m_vals are read, never written. Every row's arithmetic is that of its
    own run. Returns (out, rnorm, steps, stalled, errors): out (S, N)
    holding each row's last iterate (made here unless given), and per row
    its residual sup norm, the Newton steps, whether the run stalled, and
    None or the row's NoConvergence. Unless monotone, a row
    stalls at the first step whose linear solve fails, whose residual does
    not fall or whose iterate is not strictly positive (a NaN fails both
    tests), and keeps the iterate before that step; the failed step counts
    as a step. On the monotone run a failed linear solve ends its row with
    NoConvergence; on both runs the step cap does. The per-row tests run on
    Python floats, which costs less than array calls for the few rows of a
    stack.

    The run works in the four buffers of stack (a _RowStack of at least S
    rows, made here unless given): the iterate theta, the residual r, one
    scratch for 2 theta - m and the growth term, and delta, the linear
    solve's x, which the trial theta + delta overwrites; an accepted trial
    becomes the iterate by swapping the two. A row that ends writes its
    iterate into out, and the rows that go on move to the front. m_vals is
    read in place until the first row ends, then its rows that go on are
    copied once. Each step is one stacked lap.solve_shifted on the working
    rows, which writes x into delta, returns a failed row as NaN with its
    message and raises for none."""
    n_rows = len(m_vals)
    out = np.empty(m_vals.shape) if out is None else out
    stack = _RowStack((), lap._run_buffers(4, n_rows)) if stack is None else stack
    stack.rows = list(range(n_rows))
    errors = [None] * n_rows
    rnorm_out, steps, stalled = [0.0] * n_rows, [0] * n_rows, [False] * n_rows
    start, m = theta, m_vals
    theta, r, scratch, delta = (b[:n_rows] for b in stack.buffers)
    np.copyto(theta, start)
    r = _residual(lap, theta, m, mu, r, scratch)
    rnorm = np.abs(r, out=scratch).max(axis=1).tolist()

    def end(k):
        """End working row k with the current iterate and residual norm."""
        i = stack.rows[k]
        out[i], rnorm_out[i] = theta[k], rnorm[k]

    def keep(going, *arrays):
        """Keep the working rows in going: move their rows of arrays and of m
        to the front, and their residual norms. The caller's m_vals is never
        written, so the first drop copies its rows that go on."""
        nonlocal m, rnorm
        rnorm = [rnorm[k] for k in going]
        if m is m_vals:
            m = m_vals[going]
            return stack.keep(going, *arrays)
        *arrays, m = stack.keep(going, *arrays, m)
        return arrays

    while True:
        top = np.abs(theta, out=scratch).max(axis=1).tolist()
        going = []
        for k, i in enumerate(stack.rows):
            # an overflowed iterate has max|theta| = inf, and its floor test
            # would read inf <= inf
            if rnorm[k] <= cfg.newton_tol or (math.isfinite(rnorm[k])
                                              and rnorm[k] <= floor_limit * top[k]):
                end(k)
            elif steps[i] >= MAX_NEWTON_ITERS:
                errors[i] = NoConvergence("Newton iteration cap exceeded", rnorm[k])
                end(k)
            else:
                going.append(k)
        if not going:
            break
        if len(going) < len(stack.rows):
            theta, r, scratch, delta = keep(going, theta, r, scratch, delta)
        for i in stack.rows:
            steps[i] += 1
        # the direct 1D solve ignores its tolerance
        forcing = [min(NEWTON_FORCING, 0.5 * x) for x in rnorm] if lap.grid.dim == 2 else None
        np.multiply(theta, 2.0, out=scratch)
        scratch -= m
        x, failures = lap.solve_shifted(mu, scratch, r, forcing, out=delta)
        trial = np.add(theta, x, out=delta)
        if any(e is not None for e in failures):
            for k, (i, e) in enumerate(zip(stack.rows, failures)):
                if e is None:
                    continue
                if monotone:
                    errors[i] = NoConvergence(f"linear solve failed: {e}", rnorm[k])
                else:
                    stalled[i] = True
                end(k)
            going = [k for k, e in enumerate(failures) if e is None]
            if not going:
                break
            theta, r, scratch, trial = keep(going, theta, r, scratch, trial)
        r = _residual(lap, trial, m, mu, r, scratch)
        rtn = np.abs(r, out=scratch).max(axis=1).tolist()
        if not monotone:
            low = trial.min(axis=1).tolist()
            better = [k for k in range(len(rtn)) if rtn[k] < rnorm[k] and low[k] > 0.0]
            if len(better) < len(rtn):
                for k in set(range(len(rtn))).difference(better):
                    stalled[stack.rows[k]] = True
                    end(k)
                if not better:
                    break
                theta, r, scratch, trial = keep(better, theta, r, scratch, trial)
                rtn = [rtn[k] for k in better]
        theta, delta, rnorm = trial, theta, rtn
    return out, rnorm_out, steps, stalled, errors


def _below_mean(theta, grid, mbar):
    """True when the weighted mean of theta is under mean(m): no positive
    steady state is (up to rounding slack), so theta sits near theta = 0."""
    return grid.mean(theta) < (1.0 - 1e-8) * mbar


def steady_rows(grid, m_vals, mu, cfg=None, theta0=None, out=None):
    """The positive steady state of every row of m_vals (S, N) on grid, by
    the rule of solve_steady_state, warm started from the rows of theta0
    when it is given. m_vals and theta0 are read, never written. Each row's
    arithmetic is that of its own solve. Returns (theta, rnorm, iterations,
    restarted, errors): theta (S, N) holding each row's final iterate,
    written into out when it is given, the others lists; errors[i] is None
    or the NoConvergence that solve_steady_state would raise for row i.
    Raises NonPositiveMeanResource when a row's mean is not positive.

    Both Newton runs work in one _RowStack of four (S, N) buffers and one
    NeumannLaplacian, whose 2D CG buffers share the buffers' allocation
    (NeumannLaplacian._run_buffers); all of them are freed when the call
    returns. Each row's final iterate is written straight into theta, the
    restart's too when every row restarts."""
    cfg = cfg or SolverConfig()
    mbar = [grid.mean(v) for v in m_vals]
    for b in mbar:
        if b <= 0.0:
            raise NonPositiveMeanResource(f"mean(m) = {b} must be positive")
    lap = NeumannLaplacian(grid)
    grid._operators                     # built before any iterate exists
    floor_limit = residual_floor(grid, mu)
    stack = _RowStack((), lap._run_buffers(4, len(m_vals)))
    start = np.array(mbar)[:, None] if theta0 is None else np.asarray(theta0, dtype=float)
    theta, rnorm, iterations, stalled, errors = _newton(
        lap, start, m_vals, mu, cfg, floor_limit, out, stack, monotone=False)
    again = [i for i, (t, s, e, b) in enumerate(zip(theta, stalled, errors, mbar))
             if e is None and (s or _below_mean(t, grid, b))]
    restarted = [False] * len(mbar)
    if again:
        every = len(again) == len(mbar)
        m_again = m_vals if every else m_vals[again]
        th, rn, steps, _, errs = _newton(
            lap, m_again.max(axis=1)[:, None], m_again, mu, cfg, floor_limit,
            theta if every else None, stack, monotone=True)
        for k, i in enumerate(again):
            if not every:
                theta[i] = th[k]
            rnorm[i], errors[i], restarted[i] = rn[k], errs[k], True
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

