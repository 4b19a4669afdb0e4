import math

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import solve_banded

from kppfrag import (
    FieldError,
    Grid,
    ProblemParams,
    ResourceField,
    ScalarField,
    SteadyState,
    make_crenel,
    solve_steady_state,
)


@pytest.fixture(scope="session")
def crenel_1000():
    grid = Grid((1000,))
    return make_crenel(grid, 1.0, 0.3)


@pytest.fixture(scope="session")
def crenel_state_mu001(crenel_1000):
    # the canonical small-diffusivity instance shared across modules
    params = ProblemParams(mu=0.01, kappa=1.0, m0=0.3)
    state = solve_steady_state(crenel_1000, params)
    return crenel_1000, params, state


def constant_resource(grid: Grid, value: float, kappa: float = 1.0) -> ResourceField:
    return ResourceField(grid, np.full(grid.num_nodes, value), kappa, value)


def interior_resource(m: ResourceField, shrink: float = 0.9) -> ResourceField:
    """Pull a (possibly bound-touching) admissible field strictly inside the
    box so that finite-difference probes m +- t*xi stay admissible."""
    vals = m.m0 + shrink * (m.values - m.m0)
    return ResourceField(m.grid, vals, m.kappa, m.m0)


def zero_mean_direction(grid: Grid, seed: int) -> np.ndarray:
    """Random direction with exact weighted zero mean and unit sup norm."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(grid.num_nodes)
    w = grid.node_weights
    v -= float(w @ v) / float(w.sum())
    return v / float(np.max(np.abs(v)))


def lp_bruteforce(g_vals: np.ndarray, m_vals: np.ndarray, kappa: float,
                  w: np.ndarray) -> float:
    """Exhaustive vertex enumeration for   max g.xi   subject to
    -m <= xi <= kappa - m,  w.xi = 0.

    Every vertex has at most one coordinate off its bound (n-1 active box
    constraints plus the equality). Enumerate the free index and the bound
    pattern of the rest, back-solve the free coordinate from the equality,
    and keep it if it lands inside its own box. Exponential; test use only.
    """
    n = g_vals.size
    lo = -m_vals
    hi = kappa - m_vals
    best = -np.inf
    for free in range(n):
        others = np.array([j for j in range(n) if j != free])
        for bits in range(1 << (n - 1)):
            xi = np.empty(n)
            pick = (bits >> np.arange(n - 1)) & 1
            xi[others] = np.where(pick == 1, hi[others], lo[others])
            xi[free] = -float(w[others] @ xi[others]) / w[free]
            if lo[free] - 5e-13 <= xi[free] <= hi[free] + 5e-13:
                best = max(best, float(g_vals @ xi))
    return best


def lp_rows_scatter(w: np.ndarray, g: np.ndarray, m_vals: np.ndarray, kappa: float):
    """The direction LP on every row of g and m_vals (S, N), as (xi, lp
    values), by the threshold method in zeta = w . xi: sort by descending
    rate g / w (stable), fill the sorted caps and floors around the pivot,
    scatter zeta back to node order and divide by w. Byte oracle for
    optimizer._lp_rows, which sets xi in node order without the scatter."""
    n = g.shape[1]
    rate = g / w
    order = np.argsort(-rate, axis=1, kind="stable") + n * np.arange(len(g))[:, None]
    up = np.take(w * (kappa - m_vals), order)
    dn = np.take(w * m_vals, order)
    cum = np.cumsum(up, axis=1) - (dn.sum(axis=1)[:, None] - np.cumsum(dn, axis=1))
    pivot = np.argmax(cum >= 0.0, axis=1)
    zeta_sorted = np.where(np.arange(n) <= pivot[:, None], up, -dn)
    for i, k in enumerate(pivot):
        zeta_sorted[i, k] = float(dn[i, k + 1:].sum()) - float(up[i, :k].sum())
    zeta = np.empty_like(zeta_sorted)
    zeta.put(order, zeta_sorted)
    xi = zeta / w
    values = np.array([float(gi @ xii) for gi, xii in zip(g, xi)]).reshape(len(g))
    xi[values <= 0.0] = 0.0
    values[values <= 0.0] = 0.0
    return xi, values


def dense_shifted(grid: Grid, mu: float, diag: np.ndarray) -> np.ndarray:
    """Dense mu * (-Lap) + diag(d), assembled node by node from the
    mirrored-ghost stencil (x index fastest in 2D); test oracle only."""
    counts = grid.counts
    strides = [1] if grid.dim == 1 else [1, counts[0]]
    n = grid.num_nodes
    a = np.diag(np.asarray(diag, dtype=float))
    for flat in range(n):
        idx = [flat % counts[0]] if grid.dim == 1 else [flat % counts[0], flat // counts[0]]
        for axis, (i, nn) in enumerate(zip(idx, counts)):
            scale = mu * (nn - 1.0) ** 2
            a[flat, flat] += 2.0 * scale
            for nb in (i - 1, i + 1):
                mirrored = 1 if nb < 0 else nn - 2 if nb >= nn else nb
                a[flat, flat + (mirrored - i) * strides[axis]] -= scale
    return a


def largest_eigenvalue_magnitude(lap, iters: int = 2000, seed: int = 0) -> float:
    """Power-iteration estimate of the spectral radius of lap; test oracle."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(lap.grid.num_nodes)
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(iters):
        w = apply_one(lap, v)
        lam = float(v @ w)
        nrm = np.linalg.norm(w)
        if nrm == 0.0:
            return 0.0
        v = w / nrm
    return abs(lam)


def lil_lap1d_csr(n: int) -> sp.csr_matrix:
    """The 1D Neumann Laplacian as it was first assembled: a LIL matrix with
    the two boundary couplings assigned element by element, then scaled and
    converted to CSR; product oracle for the grid Laplacian in 1D."""
    scale = (n - 1.0) ** 2
    mat = sp.diags(
        [np.ones(n - 1), -2.0 * np.ones(n), np.ones(n - 1)], [-1, 0, 1], format="lil"
    )
    mat[0, 1] = 2.0
    mat[n - 1, n - 2] = 2.0
    return (mat * scale).tocsr()


def kron_lap2d_csr(nx: int, ny: int) -> sp.csr_matrix:
    """The 2D Neumann Laplacian as the Kronecker sum I (x) Lap_x + Lap_y (x) I
    of the 1D oracles, in CSR (x index fastest); product oracle for the
    grid Laplacian in 2D."""
    return (sp.kron(sp.eye(ny), lil_lap1d_csr(nx))
            + sp.kron(lil_lap1d_csr(ny), sp.eye(nx))).tocsr()


def banded_shifted_solve(grid: Grid, mu: float, diag: np.ndarray,
                         rhs: np.ndarray) -> np.ndarray:
    """1D mu * (-Lap) + diag(d) packed in (3, n) diagonal-ordered form and
    solved by scipy.linalg.solve_banded; bit-identity oracle for the 1D
    shifted solve."""
    (n,) = grid.counts
    (h,) = grid.spacings
    inv = mu / (h * h)
    ab = np.zeros((3, n))
    ab[0, 1] = -2.0 * inv
    ab[0, 2:] = -1.0 * inv
    ab[2, :-2] = -1.0 * inv
    ab[1, :] = 2.0 * inv + diag
    ab[2, n - 2] = -2.0 * inv
    return solve_banded((1, 1), ab, rhs)


def scaled_precondition(cg, inv_eig: np.ndarray, wr: np.ndarray) -> np.ndarray:
    """M^(-1) r of the 2D CG object cg with its own scaling on every call:
    w r scaled by 2^-e, e the binary exponent of max|w r|, cast to float32
    for the four products and the inverse eigenvalues, and the result
    scaled back by 2^e. Byte oracle for _Cg2D._precondition, which casts
    w r unscaled."""
    e = min(max(math.frexp(float(np.max(np.abs(wr))))[1], -1022), 1022)
    shape = cg._lam_sum.shape
    r = (wr * math.ldexp(1.0, -e)).reshape(shape).astype(np.float32)
    r = np.matmul(np.matmul(cg._vy.T, r), cg._vx)
    r *= inv_eig
    r = np.matmul(np.matmul(cg._vy, r), cg._vx.T)
    return r.astype(np.float64).ravel() * math.ldexp(1.0, e)


def solve_one(lap, mu: float, diag: np.ndarray, rhs: np.ndarray, rtol=None):
    """One shifted system solved as the one-row stack (d[None], rhs[None]):
    (x, error), x the row's solution (NaN if its solve failed) and error
    the row's message or None."""
    x, errors = lap.solve_shifted(mu, diag[None], rhs[None], None if rtol is None else [rtol])
    return x[0], errors[0]


def apply_one(lap, v: np.ndarray) -> np.ndarray:
    """Lap v for one nodal vector v (N,), applied as the one-row stack v[None]."""
    return lap.apply(v[None])[0]


def l1_distance(a: ScalarField, b: ScalarField) -> float:
    if a.grid != b.grid:
        raise FieldError("fields on different grids")
    w = a.grid.node_weights
    return float(w @ np.abs(a.values - b.values)) / float(w.sum())


def lou_identity_residual(
    state: SteadyState, m: ResourceField, params: ProblemParams
) -> float:
    """Defect of the mass-balance identity relating the relative Dirichlet
    energy to the population excess:

        mu * avg(|grad theta|^2 / theta^2) = avg(theta) - m0.

    The left side is quadrature over cell edges (squared one-sided
    difference over the squared edge midpoint value); both averages on the
    right are plain nodal means. The deliberate mismatch of the two
    quadratures makes this an O(h) diagnostic that shrinks under refinement
    for a converged solve and blows up for a wrong one.
    """
    th = state.theta.values
    grid = state.theta.grid
    mu = params.mu
    if grid.dim == 1:
        (h,) = grid.spacings
        mid = 0.5 * (th[1:] + th[:-1])
        q = float(np.sum(h * ((th[1:] - th[:-1]) / h) ** 2 / mid**2))
    else:
        nx, ny = grid.counts
        hx, hy = grid.spacings
        sq = th.reshape(ny, nx)
        midx = 0.5 * (sq[:, 1:] + sq[:, :-1])
        midy = 0.5 * (sq[1:, :] + sq[:-1, :])
        q = float(
            np.sum(hx * hy * (np.diff(sq, axis=1) / hx) ** 2 / midx**2)
            + np.sum(hx * hy * (np.diff(sq, axis=0) / hy) ** 2 / midy**2)
        )
    return abs(mu * q - (float(np.mean(th)) - float(np.mean(m.values))))
