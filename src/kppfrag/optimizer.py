"""Maximization of the steady-state population over admissible resources.

The loop implemented by `optimize` is, for each start:

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

The starts advance in lockstep (_ascent): m, theta and F of the live starts
are the rows of stacked arrays, and each outer step makes one stacked
adjoint solve, one gradient and LP, and one stacked trial steady solve
(solver.steady_rows) over all of them; a start leaves the stack when it
ends. Every row's arithmetic is that of its start run alone, so records
and winners do not depend on which starts share a stack: a 1D stacked
solve is one gtsv call whose blocks do not interact, 2D rows run one CG
solve each, and dot products stay per row. solve_adjoint,
objective_gradient, best_perturbation and armijo_ascent_step are the
one-row cases of the same code. With KPPFRAG_THREADS > 1 the starts are
split into contiguous chunks, one lockstep stack per worker process.

Gradient derivation: with the objective F = weighted mean of theta and the
steady-state constraint, the sensitivity solves the shifted system

    (mu * (-Lap) + diag(2 theta - m)) p = 1                      (adjoint)

and dF[xi] = sum_i g_i xi_i with g = (w . p . theta) / sum(w). The shifted
matrix is the final Newton Jacobian; the adjoint solves it afresh (a direct
LAPACK tridiagonal solve in 1D, preconditioned conjugate gradients in 2D)
and gates the result on its residual; a failed solve (one whose x is not
finite fails too) raises SingularAdjoint. At a stable steady state the
matrix is a nonsingular M-matrix, positive definite in the trapezoid inner
product CG uses; a 2D solve that finds it is not (an unstable state, such
as theta ~ 0) fails, and so raises SingularAdjoint too.
With the trapezoid weights w this g is the exact discrete gradient (not an
O(h) approximation): w is the left null-structure of the non-symmetric
Laplacian's boundary rows, which is what makes W * Lap symmetric.
"""
from __future__ import annotations

import functools
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .fields import ProblemParams, ResourceField, ScalarField
from .grids import Grid, NeumannLaplacian, residual_floor
from .solver import SteadyState, steady_rows


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
    trajectory: list
    error: str | None = None

    @property
    def iterations(self) -> int:
        """Outer steps of the start: one trajectory row each."""
        return len(self.trajectory)

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

def _adjoint_rows(grid: Grid, mu: float, m_vals: np.ndarray, theta: np.ndarray):
    """solve_adjoint on every row of m_vals and theta (S, N), as (p, errors):
    errors[i] is None or the SingularAdjoint of row i."""
    lap = NeumannLaplacian(grid)
    diag = 2.0 * theta - m_vals
    p, failures = lap.solve_shifted(mu, diag, np.ones_like(diag))
    errors = [None if f is None else SingularAdjoint(f"adjoint solve failed: {f}")
              for f in failures]
    # a row the solve accepts is finite; a failed one is NaN, so its
    # residual fails the comparison and the row keeps its solve message
    rnorm = np.abs(mu * (-lap.apply(p)) + diag * p - 1.0).max(axis=1)
    floor = residual_floor(grid, mu) * np.maximum(1.0, np.abs(p).max(axis=1))
    for k in np.flatnonzero(rnorm > np.maximum(1e-10, floor)):
        errors[k] = SingularAdjoint(
            f"adjoint residual {rnorm[k]:.3e} above tolerance; "
            "steady state is not a stable branch")
    return p, errors


def solve_adjoint(
    m: ResourceField,
    theta: ScalarField,
    params: ProblemParams,
) -> ScalarField:
    """Solve (mu * (-Lap) + diag(2 theta - m)) p = 1 and return the adjoint
    field p. Raises SingularAdjoint when the solve fails or the residual
    ||A p - 1||_inf exceeds max(1e-10, residual_floor(grid, mu) *
    max(1, ||p||_inf))."""
    p, errors = _adjoint_rows(theta.grid, params.mu, m.values[None], theta.values[None])
    if errors[0] is not None:
        raise errors[0]
    return ScalarField(theta.grid, p[0])


def _gradient(w: np.ndarray, theta: np.ndarray, p: np.ndarray) -> np.ndarray:
    return w * p * theta / float(w.sum())


def objective_gradient(theta: ScalarField, p: ScalarField) -> ScalarField:
    """Nodal gradient of the objective from the steady state theta and the
    adjoint field p of solve_adjoint: g = (w . p . theta) / sum(w), so that
    dF in direction xi is exactly sum_i g_i xi_i."""
    return ScalarField(theta.grid,
                       _gradient(theta.grid.node_weights, theta.values, p.values))


# ---------------------------------------------------------------------------
# exact direction LP

def _lp_rows(w: np.ndarray, g: np.ndarray, m_vals: np.ndarray, kappa: float):
    """best_perturbation on every row of g and m_vals (S, N), as (xi, lp
    values). The stable sort of -rate keeps tied nodes in ascending index
    order; the dot products stay one per row, since a stacked product
    rounds differently. The nodes before the pivot in sort order rise to
    kappa - m and those after it drop to -m: xi is set in node order
    straight from m, which is exactly zeta / w for any m that is not
    subnormal, since the trapezoid weights (1, 1/2, 1/4) are powers of two.
    Only the pivot divides by its w."""
    s, n = g.shape
    # flat indices of each row's nodes by descending rate
    order = np.argsort(np.divide(g, -w), axis=1, kind="stable")
    order += n * np.arange(s)[:, None]
    up = np.take(w * (kappa - m_vals), order)      # zeta caps, >= 0
    dn = np.take(w * m_vals, order)                # zeta floors are -dn
    # cumulative budget if nodes 0..j raised and the rest dropped
    cum = np.cumsum(up, axis=1)
    rest = np.cumsum(dn, axis=1)
    np.subtract(dn.sum(axis=1)[:, None], rest, out=rest)
    cum -= rest
    pivot = np.argmax(cum >= 0.0, axis=1)  # exists: cum[-1] = sum(up) >= 0
    rise = np.empty(s * n, dtype=bool)
    rise[order] = np.arange(n) < pivot[:, None]
    xi = np.negative(m_vals)
    np.add(xi, kappa, out=xi, where=rise.reshape(s, n))
    flat = xi.reshape(-1)
    for i, k in enumerate(pivot):
        node = order[i, k]
        zeta = float(dn[i, k + 1:].sum()) - float(up[i, :k].sum())
        flat[node] = zeta / w[node - i * n]
    values = np.array([float(gi @ xii) for gi, xii in zip(g, xi)]).reshape(s)
    xi[values <= 0.0] = 0.0
    values[values <= 0.0] = 0.0
    return xi, values


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
    xi, values = _lp_rows(g.grid.node_weights, g.values[None], m.values[None], m.kappa)
    return ScalarField(g.grid, xi[0]), float(values[0])


# ---------------------------------------------------------------------------
# vertex step

def _vertex_step_rows(grid: Grid, mu: float, kappa: float, m_vals: np.ndarray,
                      xi: np.ndarray, F: np.ndarray, lp: np.ndarray, theta0):
    """The full step of armijo_ascent_step on every row of m_vals and xi
    (S, N), all with positive LP values lp. Returns (trial, F_trial,
    accepted, steady): the clipped trials, their objectives, whether each
    gains at least ARMIJO_C times its LP value over F, and the steady_rows
    result of the trials, warm started from theta0. A trial whose steady
    solve ends in NoConvergence is not accepted."""
    trial = np.clip(m_vals + xi, 0.0, kappa)
    steady = steady_rows(grid, trial, mu, None, theta0)
    converged = np.array([e is None for e in steady[4]], dtype=bool)
    F_trial = np.array([grid.mean(t) if ok else np.nan
                        for t, ok in zip(steady[0], converged)]).reshape(len(trial))
    accepted = converged & (F_trial >= F + ARMIJO_C * lp)
    return trial, F_trial, accepted, steady


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
    steady solve: _vertex_step_rows on the one row.
    """
    if lp_value <= 0.0 or not np.any(xi.values):
        return m, F_current, 0.0, None
    trial, F_trial, accepted, (theta, rnorm, iterations, restarted, _) = (
        _vertex_step_rows(m.grid, params.mu, m.kappa, m.values[None], xi.values[None],
                          np.array([F_current]), np.array([lp_value]),
                          None if theta0 is None else np.asarray(theta0, dtype=float)[None]))
    if not accepted[0]:
        return m, F_current, 0.0, None
    state = SteadyState(theta=ScalarField(m.grid, theta[0]), residual_norm=float(rnorm[0]),
                        iterations=int(iterations[0]), used_fallback=bool(restarted[0]))
    return m.with_values(trial[0]), float(F_trial[0]), 1.0, state


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
        sin, cos = _axis_modes(grid.counts[0])
        c = rng.uniform(-0.5, 0.5, 11)
        f = np.full(grid.num_nodes, c[0])
        for j in range(1, 6):
            f += c[j] * sin[j - 1] + c[5 + j] * cos[j - 1]
    else:
        # the modes are separable: take them on the axes, a row of x and a
        # column of y, and let the products broadcast to (ny, nx)
        (sin_x, cos_x), (sin_y, cos_y) = (_axis_modes(n) for n in grid.counts)
        c = rng.uniform(-0.5, 0.5, 21)
        f2 = np.full((grid.counts[1], grid.counts[0]), c[0])
        ci = 1
        for j in range(5):
            sx, cx = sin_x[j][None, :], cos_x[j][None, :]
            sy, cy = sin_y[j][:, None], cos_y[j][:, None]
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


@functools.lru_cache(maxsize=8)
def _axis_modes(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(sin, cos), each (5, n): sin(j pi x) and cos(j pi x) for j = 1..5 on
    the n nodes of an axis, read-only. Every draw on an axis of n nodes
    reuses them: a sweep draws the same starts again at each mu."""
    x = np.linspace(0.0, 1.0, n)
    modes = tuple(np.array([f(j * np.pi * x) for j in range(1, 6)]) for f in (np.sin, np.cos))
    for a in modes:
        a.setflags(write=False)
    return modes


def _start_seed(seed: int, start_index: int):
    """Documented substream split: start j draws its guess from
    SeedSequence(entropy=seed, spawn_key=(j,)), once; a degenerate draw
    fails the start."""
    return np.random.SeedSequence(entropy=seed, spawn_key=(start_index,))


# ---------------------------------------------------------------------------
# the full multi-start loop

def _compact(keep, *arrays):
    """The rows of each array where keep holds: the arrays themselves, not
    copies, when it holds on every row."""
    return arrays if keep.all() else tuple(a[keep] for a in arrays)


def _ascent(job) -> list:
    """The vertex ascent of the starts in job = (params, grid, cfg, starts),
    in lockstep. m, theta and F of the live starts are stacked rows, and
    every outer step makes one adjoint, one gradient and LP, and one trial
    steady solve over all of them. A start leaves the stack when it ends
    (lp_value, step_zero, max_iters or failed); each row's arithmetic is
    that of its start run alone. Returns (StartRecord, final m values or
    None) per start, in start order."""
    params, grid, cfg, starts = job
    mu, kappa, w, n = params.mu, float(params.kappa), grid.node_weights, grid.num_nodes
    out, trajectory = {}, {j: [] for j in starts}

    def fail(j, exc):
        out[int(j)] = (StartRecord(start_index=int(j), F=float("-inf"), termination="failed",
                                   trajectory=[], error=f"{type(exc).__name__}: {exc}"), None)

    def end(j, F, termination, m_final):
        # a copy: a view would keep the whole stack of its step alive
        out[int(j)] = (StartRecord(start_index=int(j), F=float(F), termination=termination,
                                   trajectory=trajectory[j]), m_final.copy())

    def survivors(errors):
        """Fail the rows that have an error; True on the others."""
        for j, e in zip(rows, errors):
            if e is not None:
                fail(j, e)
        return np.array([e is None for e in errors], dtype=bool)

    rows, guesses = [], []
    for j in starts:
        try:
            guesses.append(random_fourier_guess(grid, kappa, params.m0,
                                                _start_seed(cfg.seed, j)).values)
            rows.append(j)
        except DegenerateSample as exc:
            fail(j, exc)
    rows = np.array(rows, dtype=int)
    m_vals = np.array(guesses).reshape(-1, n)
    theta, _, _, _, errors = steady_rows(grid, m_vals, mu)
    rows, m_vals, theta = _compact(survivors(errors), rows, m_vals, theta)
    F = np.array([grid.mean(t) for t in theta])
    for _ in range(cfg.max_outer_iters):
        if not rows.size:
            break
        p, errors = _adjoint_rows(grid, mu, m_vals, theta)
        rows, m_vals, theta, F, p = _compact(survivors(errors), rows, m_vals, theta, F, p)
        xi, lp = _lp_rows(w, _gradient(w, theta, p), m_vals, kappa)
        del p                           # not kept alive through the trial solve
        vertex = lp < STOP_LP_VALUE
        for k in np.flatnonzero(vertex):
            trajectory[rows[k]].append((float(F[k]), 0.0, float(lp[k])))
            end(rows[k], F[k], "lp_value", m_vals[k])
        rows, m_vals, theta, F, xi, lp = _compact(~vertex, rows, m_vals, theta, F, xi, lp)
        if not rows.size:
            break
        trial, F_trial, accepted, (theta, *_) = _vertex_step_rows(
            grid, mu, kappa, m_vals, xi, F, lp, theta)
        for k, j in enumerate(rows):
            if accepted[k]:
                trajectory[j].append((float(F_trial[k]), 1.0, float(lp[k])))
            else:
                trajectory[j].append((float(F[k]), 0.0, float(lp[k])))
                end(j, F[k], "step_zero", m_vals[k])
        rows, m_vals, theta, F = _compact(accepted, rows, trial, theta, F_trial)
    for k, j in enumerate(rows):
        end(j, F[k], "max_iters", m_vals[k])
    return [out[j] for j in starts]


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
    start index. Set KPPFRAG_THREADS > 1 to split the starts into that many
    contiguous chunks (at most one per start), each run in lockstep by one
    worker process; the result is identical to the serial run.
    """
    cfg = cfg or OptimConfig()
    chunks = np.array_split(np.arange(cfg.starts), min(pool_size(), cfg.starts))
    jobs = [(params, grid, cfg, [int(j) for j in chunk]) for chunk in chunks]
    if len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=len(jobs)) as pool:
            outcomes = [o for chunk in pool.map(_ascent, jobs) for o in chunk]
    else:
        outcomes = _ascent(jobs[0])

    records = [rec for rec, _ in outcomes]
    # max keeps the first maximum met: the lowest start index
    best = max((o for o in outcomes if not o[0].failed), key=lambda o: o[0].F,
               default=None)
    if best is None:
        msgs = "; ".join(f"start {r.start_index}: {r.error}" for r in records)
        raise OptimizationError(f"all {cfg.starts} starts failed: {msgs}")
    rec, m_final = best
    return OptimRun(
        best_m=ResourceField(grid, m_final, params.kappa, params.m0),
        best_F=rec.F,
        trajectory=rec.trajectory,
        termination=rec.termination,
        start_index=rec.start_index,
        starts=records,
    )
