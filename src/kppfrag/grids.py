"""Tensor-product grids on the unit interval and unit square, the discrete
Neumann Laplacian, and the dyadic fold (periodisation) transform.

Grids are node-centered with both endpoints included: per axis, N nodes at
x_i = i*h with h = 1/(N-1). The Neumann Laplacian uses mirrored ghost nodes,
which gives the tridiagonal stencil with boundary rows (-2, 2) and (2, -2)
scaled by 1/h^2; the 2D operator is the Kronecker sum of the 1D ones. The
matrix is not symmetric, but W * Lap is, where W carries the trapezoid node
weights (1/2 at endpoints). Those weights double as the quadrature used for
all integral-like functionals; see fields.mean.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
import scipy.sparse as sp
from scipy.linalg import eigh_tridiagonal, get_lapack_funcs

_EPS = float(np.finfo(float).eps)
_KRYLOV_MAXITER = 500
(_GTSV,) = get_lapack_funcs(("gtsv",), dtype=np.float64)


class GridError(ValueError):
    pass


@dataclass(frozen=True)
class Grid:
    """Uniform node-centered grid on (0,1)^dim, dim in {1, 2}.

    counts holds the per-axis node count (N_x,) or (N_x, N_y); spacings the
    matching h = 1/(N-1). Values on 2D grids are stored row-major with the
    x index fastest, i.e. flat index j*N_x + i for node (x_i, y_j).
    """

    counts: tuple[int, ...]

    def __post_init__(self):
        if len(self.counts) not in (1, 2):
            raise GridError(f"dim must be 1 or 2, got {len(self.counts)}")
        for n in self.counts:
            if int(n) != n or n < 3:
                raise GridError(f"need at least 3 nodes per axis, got {n}")
        object.__setattr__(self, "counts", tuple(int(n) for n in self.counts))

    @property
    def dim(self) -> int:
        return len(self.counts)

    @property
    def spacings(self) -> tuple[float, ...]:
        return tuple(1.0 / (n - 1) for n in self.counts)

    @property
    def num_nodes(self) -> int:
        return math.prod(self.counts)

    def axis_coords(self, axis: int) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.counts[axis])

    @cached_property
    def node_weights(self) -> np.ndarray:
        """Trapezoid quadrature weight per node, flattened; sums to
        prod(N_axis - 1), i.e. 1/h^dim times the domain volume."""
        w = _axis_weights(self.counts[0])
        if self.dim == 2:
            w = np.outer(_axis_weights(self.counts[1]), w).ravel()
        return w

    def coords_columns(self) -> list[np.ndarray]:
        """Per-axis coordinate of every node, in flat order (for CSV export)."""
        if self.dim == 1:
            return [self.axis_coords(0)]
        x, y = np.meshgrid(self.axis_coords(0), self.axis_coords(1))
        return [x.ravel(), y.ravel()]

    def refined(self, k: int) -> "Grid":
        """Grid with each axis interval split 2^k times (same endpoints)."""
        return Grid(tuple((n - 1) * (1 << k) + 1 for n in self.counts))


def residual_floor(grid: Grid, mu: float) -> float:
    """Double-precision evaluation floor of mu * Lap(v) + O(1) * v per unit
    of max|v|: about eps * 4 * dim * mu / h^2 from the stiff term, with a
    safety factor of 8. Residuals below floor * max|v| are rounding noise."""
    hmin = min(grid.spacings)
    return 8.0 * _EPS * (1.0 + 4.0 * grid.dim * mu / (hmin * hmin))


def _axis_weights(n: int) -> np.ndarray:
    w = np.ones(n)
    w[0] = 0.5
    w[-1] = 0.5
    return w


def _lap1d_csr(n: int) -> sp.csr_matrix:
    scale = (n - 1.0) ** 2
    lower = np.full(n - 1, scale)
    upper = np.full(n - 1, scale)
    lower[-1] = upper[0] = 2.0 * scale
    return sp.diags([lower, np.full(n, -2.0 * scale), upper], [-1, 0, 1], format="csr")


@lru_cache(maxsize=8)
def _axis_eigenpairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and orthonormal eigenvectors (columns) of the symmetric
    tridiagonal W1^(1/2) (-Lap1) W1^(-1/2) on n nodes: the interior stencil
    (-1, 2, -1) / h^2, with the two boundary couplings -sqrt(2) / h^2.
    Cached and shared, hence read-only."""
    scale = (n - 1.0) ** 2
    off = np.full(n - 1, -scale)
    off[[0, -1]] = -np.sqrt(2.0) * scale
    pairs = eigh_tridiagonal(np.full(n, 2.0 * scale), off)
    for a in pairs:
        a.setflags(write=False)
    return pairs


def _read_only(mat: sp.csr_matrix) -> sp.csr_matrix:
    for a in (mat.data, mat.indices, mat.indptr):
        a.setflags(write=False)
    return mat


@lru_cache(maxsize=1)
def _grid_operators(counts: tuple[int, ...]) -> tuple:
    """(Lap, S, W^(1/2)) of the grid with these node counts: the Laplacian
    as CSR and, in 2D, its symmetric form S = W^(1/2) (-Lap) W^(-1/2) and
    the root trapezoid weights (None in 1D). S scales Lap's entries and
    shares its index arrays. Built once per grid and shared by every
    NeumannLaplacian on it, hence read-only; one entry, so a process holds
    the operators of one grid at a time. A caller that reuses a grid's
    operators keeps its own NeumannLaplacian instance, which holds them
    past eviction."""
    if len(counts) == 1:
        return _read_only(_lap1d_csr(counts[0])), None, None
    nx, ny = counts
    mat = (sp.kron(sp.eye(ny), _lap1d_csr(nx)) + sp.kron(_lap1d_csr(ny), sp.eye(nx))).tocsr()
    root_w = np.sqrt(Grid(counts).node_weights)
    rows = np.repeat(np.arange(mat.shape[0]), np.diff(mat.indptr))
    sym = sp.csr_matrix(((root_w[rows] * -mat.data) * (1.0 / root_w)[mat.indices],
                         mat.indices, mat.indptr), shape=mat.shape)
    root_w.setflags(write=False)
    return _read_only(mat), _read_only(sym), root_w


class NeumannLaplacian:
    """The discrete Laplacian with mirror (zero-flux) boundary rows.

    Supports application to flat nodal vectors and solves of the shifted
    systems (mu * (-Lap) + diag(d)) x = rhs that the Newton and adjoint
    steps need. 1D systems are tridiagonal and go straight to LAPACK's gtsv
    (Gaussian elimination with partial pivoting), O(N) per solve; the
    Laplacian keeps the constant off-diagonals of the last mu it saw and
    hands them to every 1D solve. 2D systems go through
    preconditioned MINRES on the symmetric form
    W^(1/2) (mu * (-Lap) + diag(d)) W^(-1/2); d may be indefinite (Newton
    matrices d = 2 theta - m). The preconditioner mu * (-Lap) + c I, with c
    the mean of |d|, is inverted exactly by fast diagonalization: the
    eigenvectors of each axis's symmetrized 1D operator turn it into a
    diagonal, so one application is four small dense matrix products.

    The CSR Laplacian and, in 2D, its symmetric form and W^(1/2) are built
    once per grid (_grid_operators, keyed by the node counts) and shared,
    read-only, by every NeumannLaplacian on that grid; only the 1D
    off-diagonals of the last mu belong to the instance. The constructor
    stays the one construction point, cached or not.

    Tolerance contract of solve_shifted(mu, d, rhs, rtol): a 2D solve
    returns x whose residual sup norm is at most max(floor, rtol) times
    max(|x|, |rhs|), floor being the rounding floor of _Minres2D; rtol=None
    (the default) asks for the floor itself. A Newton step passes its
    forcing term as rtol; every other caller takes the floor. The 1D solve
    is direct, ignores rtol and is bit-identical for every rtol.
    """

    def __init__(self, grid: Grid):
        self.grid = grid
        self._mat, self._symmetric, self._root_w = _grid_operators(grid.counts)
        self._last_band = None

    def apply(self, v: np.ndarray) -> np.ndarray:
        return self._mat @ v

    def _band(self, mu: float) -> tuple[float, float, np.ndarray, np.ndarray]:
        """(mu, c, dl, du): the constant part c = 2 mu / h^2 of the diagonal
        and the off-diagonals of the 1D system mu * (-Lap) + diag(d) for the
        last mu asked for. Read-only and shared by every factor with that
        mu; gtsv works on copies."""
        if self._last_band is None or self._last_band[0] != mu:
            n = self.grid.counts[0]
            h = self.grid.spacings[0]
            inv = mu / (h * h)
            dl = np.full(n - 1, -inv)
            du = np.full(n - 1, -inv)
            dl[-1] = du[0] = -2.0 * inv
            dl.setflags(write=False)
            du.setflags(write=False)
            self._last_band = (mu, 2.0 * inv, dl, du)
        return self._last_band

    def shifted_factor(self, mu: float, diag: np.ndarray):
        """Solver object for mu * (-Lap) + diag(d); has .solve(rhs, rtol=None).
        Every shifted solve goes through here."""
        if self.grid.dim == 1:
            return _Banded1D(self._band(mu), diag)
        return _Minres2D(self, mu, diag)

    def solve_shifted(self, mu: float, diag: np.ndarray, rhs: np.ndarray,
                      rtol: float | None = None) -> np.ndarray:
        return self.shifted_factor(mu, diag).solve(rhs, rtol)


class _Banded1D:
    """1D shifted system mu * (-Lap) + diag(d) as its three diagonals
    (dl, c + d, du), solved by LAPACK gtsv with no wrapper in between. The
    shared constant c = 2 mu / h^2 and off-diagonals come from
    NeumannLaplacian._band.

    Non-finite entries in d or rhs raise numpy.linalg.LinAlgError before
    LAPACK sees them, as does an exactly singular matrix (gtsv info > 0),
    so callers handle every 1D and 2D solve failure the same way. The check
    on d stays even though gtsv would run: an inf in d can still give a
    finite x.
    """

    def __init__(self, band: tuple[float, float, np.ndarray, np.ndarray],
                 diag: np.ndarray):
        _, centre, self._dl, self._du = band
        self._d = centre + np.asarray(diag, dtype=float)

    def solve(self, rhs: np.ndarray, rtol: float | None = None) -> np.ndarray:
        """Direct solve; rtol is accepted for the common interface and ignored."""
        rhs = np.asarray(rhs, dtype=float)
        if not (np.isfinite(self._d).all() and np.isfinite(rhs).all()):
            raise np.linalg.LinAlgError("1D shifted solve: non-finite diagonal or rhs")
        x, info = _GTSV(self._dl, self._d, self._du, rhs)[3:]
        if info > 0:
            raise np.linalg.LinAlgError("singular matrix")
        return x


class _Minres2D:
    """Preconditioned MINRES for one 2D shifted system A x = rhs.

    The Krylov iteration (Paige and Saunders 1975, SIAM J. Numer. Anal. 12,
    in the form and sign convention of SciPy's minres) runs on the
    symmetric form S = W^(1/2) A W^(-1/2), with S and W^(1/2) taken from
    the grid's shared read-only operators. It also carries the
    residual r = b - S x, so it can stop as soon as that residual, mapped
    back to A's rows, is under half the tolerance times the larger of |x|
    and |rhs| (sup norms). The residual costs no product with S: after the
    rotation (cs, sn) of step k,

        r_k = sn^2 r_(k-1) - (phibar cs / beta) r2,

    r2 the new unpreconditioned Lanczos vector and beta its preconditioned
    norm (the residual recurrence of Choi, Paige and Saunders 2011, SIAM J.
    Sci. Comput. 33, MINRES-QLP, with cs starting at -1 as here). The
    vectors are updated in place in a few work arrays.

    The tolerance is max(floor, rtol), where floor is the rounding floor
    residual_floor times max(1, |d|) and rtol the optional relative
    tolerance of solve (None: the floor alone). solve then measures the
    true residual; above the tolerance it makes one refinement pass for the
    correction, and if the residual is still above the tolerance it raises
    numpy.linalg.LinAlgError naming the tolerance it enforced, as the 1D
    gtsv solve does for a singular matrix.
    """

    def __init__(self, lap: NeumannLaplacian, mu: float, diag: np.ndarray):
        nx, ny = lap.grid.counts
        lam_x, self._qx = _axis_eigenpairs(nx)
        lam_y, self._qy = _axis_eigenpairs(ny)
        diag = np.asarray(diag, dtype=float)
        shift = max(float(np.mean(np.abs(diag))), 1e-12)
        self._inv_eig = 1.0 / (mu * (lam_y[:, None] + lam_x[None, :]) + shift)
        self._lap, self._mu, self._diag = lap, mu, diag
        self._floor = residual_floor(lap.grid, mu) * max(1.0, float(np.abs(diag).max()))

    def _precondition(self, v: np.ndarray) -> np.ndarray:
        """(mu * S_Lap + c I)^(-1) v by fast diagonalization."""
        qx, qy = self._qx, self._qy
        z = qy.T @ v.reshape(qy.shape[0], qx.shape[0]) @ qx
        z *= self._inv_eig
        return (qy @ z @ qx.T).ravel()

    def _minres(self, rhs: np.ndarray, tol: float) -> np.ndarray:
        root_w = self._lap._root_w
        b = root_w * rhs
        y = self._precondition(b)
        beta1 = float(np.sqrt(b @ y))
        if not beta1 > 0.0:
            return np.zeros_like(rhs)
        sym, mu, diag = self._lap._symmetric, self._mu, self._diag
        limit = 0.5 * tol
        rhs_max = float(np.abs(rhs).max())
        x = np.zeros_like(b)
        res = b.copy()                      # recurred residual b - S x
        w = np.zeros_like(b)
        w2 = np.zeros_like(b)
        v = np.empty_like(b)
        tmp = np.empty_like(b)
        r1 = r2 = b
        oldb, beta, dbar, epsln, phibar, cs, sn = 0.0, beta1, 0.0, 0.0, beta1, -1.0, 0.0
        for itn in range(_KRYLOV_MAXITER):
            np.divide(y, beta, out=v)
            y = sym @ v
            y *= mu
            y += np.multiply(diag, v, out=tmp)
            if itn:
                y -= np.multiply(r1, beta / oldb, out=tmp)
            alfa = float(v @ y)
            y -= np.multiply(r2, alfa / beta, out=tmp)
            r1, r2 = r2, y
            y = self._precondition(r2)
            oldb, beta = beta, math.sqrt(max(float(r2 @ y), 0.0))
            oldeps = epsln
            delta = cs * dbar + sn * alfa
            gbar = sn * dbar - cs * alfa
            epsln = sn * beta
            dbar = -cs * beta
            gamma = max(float(np.hypot(gbar, beta)), _EPS)
            cs, sn = gbar / gamma, beta / gamma
            phi = cs * phibar
            phibar *= sn
            # w <- (v - oldeps * w2 - delta * w) / gamma, the old w becoming w2
            w2 *= -oldeps
            w2 += v
            w2 -= np.multiply(w, delta, out=tmp)
            w2 /= gamma
            w, w2 = w2, w
            x += np.multiply(w, phi, out=tmp)
            if beta == 0.0:
                break
            res *= sn * sn
            res -= np.multiply(r2, phibar * cs / beta, out=tmp)
            if phibar <= _EPS * beta1:
                break
            res_max = float(np.abs(np.divide(res, root_w, out=tmp)).max())
            x_max = float(np.abs(np.divide(x, root_w, out=tmp)).max())
            if res_max <= limit * max(rhs_max, x_max):
                break
        return x / root_w

    def _residual(self, x: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, float]:
        """True residual rhs - A x, and its sup norm relative to max(|x|, |rhs|)."""
        r = rhs - (self._mu * (-(self._lap._mat @ x)) + self._diag * x)
        scale = max(float(np.max(np.abs(x))), float(np.max(np.abs(rhs))))
        return r, float(np.max(np.abs(r))) / max(scale, 1e-300)

    def solve(self, rhs: np.ndarray, rtol: float | None = None) -> np.ndarray:
        rhs = np.asarray(rhs, dtype=float)
        tol = self._floor if rtol is None else max(self._floor, rtol)
        x = self._minres(rhs, tol)
        r, rel = self._residual(x, rhs)
        if rel > tol:
            x = x + self._minres(r, tol)
            r, rel = self._residual(x, rhs)
        if not rel <= tol:
            enforced = (f"the rounding floor {self._floor:.3e}" if rtol is None else
                        f"the tolerance {tol:.3e} = max(requested rtol {rtol:.3e}, "
                        f"rounding floor {self._floor:.3e})")
            raise np.linalg.LinAlgError(
                f"2D shifted solve: relative residual {rel:.3e} above "
                f"{enforced} after refinement")
        return x


def _fold_indices(n_out: int, m_in: int) -> np.ndarray:
    """Indices 0..n_out-1 folded even-periodically (period 2*m_in) onto
    0..m_in."""
    r = np.arange(n_out) % (2 * m_in)
    return np.minimum(r, 2 * m_in - r)


def refine_fold_values(values: np.ndarray, grid: Grid, k: int) -> np.ndarray:
    """Dyadic squeeze onto the 2^k-refined grid: the output lives on
    grid.refined(k) and samples the even-periodic extension of the input at
    2^k x. Every input edge is traversed exactly 2^k times per period, so
    trapezoid means are preserved exactly; used by the identity experiments.
    """
    idx = [_fold_indices(((n - 1) << k) + 1, n - 1) for n in grid.counts]
    if grid.dim == 1:
        return values[idx[0]]
    nx, ny = grid.counts
    return values.reshape(ny, nx)[np.ix_(idx[1], idx[0])].ravel()
