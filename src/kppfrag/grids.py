"""Tensor-product grids on the unit interval and unit square, the discrete
Neumann Laplacian, and the dyadic fold (periodisation) transform.

Grids are node-centered with both endpoints included: per axis, N nodes at
x_i = i*h with h = 1/(N-1). The Neumann Laplacian uses mirrored ghost nodes,
which gives the tridiagonal stencil with boundary rows (-2, 2) and (2, -2)
scaled by 1/h^2; the 2D operator is the Kronecker sum of the 1D ones. The
matrix is not symmetric, but W * Lap is, where W carries the trapezoid node
weights (1/2 at endpoints), so Lap is self-adjoint in the trapezoid inner
product <u, v>_W = u . (w v) that the 2D conjugate-gradient solve uses.
Those weights double as the quadrature used for all integral-like
functionals; see fields.mean.

Every operation of the Laplacian, its product and its shifted solves,
takes and returns stacks of rows of shape (S, N), one nodal vector per
row; a single vector is the one-row stack v[None].

The Laplacian is stored by diagonals (the DIA format; Saad, Iterative
Methods for Sparse Linear Systems, 2003, section 3.4), with ascending
offsets (-1, 0, 1) in 1D and (-N_x, -1, 0, 1, N_x) in 2D, written straight
from the per-axis bands. A 2D product, one per row of the stack, adds the
diagonals in offset order into a zeroed output, so each row sums the same
products in the same order as a CSR product over sorted columns, and the
two agree bit for bit. In 2D
the x bands also run across the wrap from one grid row to the next, where
they hold zeros; each adds +-0 to a sum that starts at +0 and changes no
value. Only an inf in x shows: 0 * inf puts a NaN at its neighbour across
the wrap, where a CSR product would stay finite. The product is non-finite
at the inf's own row either way, and the shifted solves reject a
non-finite d or rhs.

In 1D the grid keeps the band data alone, and a product of a whole (S, N)
stack is one numpy correlation of the flattened stack with the interior
stencil (s, -2s, s), s = 1/h^2, read from the bands. numpy sums each
output from +0 in kernel order, ((+0 + s x[i-1]) - 2s x[i]) + s x[i+1],
which is the DIA order, so every interior node gets the DIA (and CSR)
product's bytes. The outputs in the first and last column of each row are
then overwritten with the mirror rows, summed in the same order,
(+0 + a) + b. Those are the only outputs whose window reaches across a
join between two rows of the stack, so no row ever reads another. Where
two NaNs meet in a sum, which of them survives may differ from the DIA
product: a NaN stays a NaN, its sign bit is not pinned.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.linalg import eigh_tridiagonal, get_lapack_funcs
from scipy.linalg.blas import ddot, idamax

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

    def __reduce__(self):
        # rebuild through the constructor: the cached node weights and
        # operators stay behind
        return Grid, (self.counts,)

    @cached_property
    def dim(self) -> int:
        # read on every Newton step and residual
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
        prod(N_axis - 1), i.e. 1/h^dim times the domain volume. Read-only:
        the 2D solves weight their inner products with it."""
        w = _axis_weights(self.counts[0])
        if self.dim == 2:
            w = np.outer(_axis_weights(self.counts[1]), w).ravel()
        w.setflags(write=False)
        return w

    @cached_property
    def _weight_sum(self) -> float:
        return float(self.node_weights.sum())

    @cached_property
    def _operators(self) -> tuple:
        """(Lap, eig): the Laplacian by diagonals (in 1D its band data
        (3, N), in 2D a scipy.sparse.dia_matrix with ascending offsets; see
        the module docstring) and, in 2D, the scaled per-axis eigenpairs
        (lam_x, V_x), (lam_y, V_y) of _axis_eigenpairs, lam in double and V
        in single precision, followed by the (ny, nx) sum lam_y + lam_x of
        the preconditioner's eigenvalues (eig is None in 1D). Built on first
        use, read-only, and shared by every NeumannLaplacian on this grid."""
        return _build_operators(self)

    def mean(self, values: np.ndarray) -> float:
        """Weighted (trapezoid) average of nodal values; equals the continuum
        mean for piecewise linear interpolants and is exact on constants."""
        return float(self.node_weights @ values) / self._weight_sum

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


def _axis_bands(n: int) -> np.ndarray:
    """The 1D Laplacian on n nodes as DIA data (3, n) for the offsets
    (-1, 0, 1): column j of the row for offset k holds the entry in matrix
    row j - k, column j, and the two slots outside the matrix (the last of
    the lower band, the first of the upper) hold 0."""
    scale = (n - 1.0) ** 2
    data = np.empty((3, n))
    data.fill(scale)
    data[1] = -2.0 * scale
    data[0, -2] = data[2, 1] = 2.0 * scale
    data[0, -1] = data[2, 0] = 0.0
    return data


def _axis_eigenpairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(lam, V) with -Lap1 = V diag(lam) V' W1 on n nodes, W1 the trapezoid
    axis weights, and V' W1 V = I. V = W1^(-1/2) Q, where Q holds the
    orthonormal eigenvectors of the symmetric tridiagonal
    W1^(1/2) (-Lap1) W1^(-1/2): the interior stencil (-1, 2, -1) / h^2,
    with the two boundary couplings -sqrt(2) / h^2. Read-only."""
    scale = (n - 1.0) ** 2
    off = np.full(n - 1, -scale)
    off[[0, -1]] = -np.sqrt(2.0) * scale
    lam, q = eigh_tridiagonal(np.full(n, 2.0 * scale), off)
    q /= np.sqrt(_axis_weights(n))[:, None]
    for a in (lam, q):
        a.setflags(write=False)
    return lam, q


def _build_operators(grid: Grid) -> tuple:
    if grid.dim == 1:
        bands = _axis_bands(grid.counts[0])
        bands.setflags(write=False)
        return bands, None
    nx, ny = grid.counts
    bx, by = _axis_bands(nx), _axis_bands(ny)
    # the Kronecker sum I (x) Lap_x + Lap_y (x) I by diagonals: the x bands
    # once per grid row, their zero slots falling on the row wraps, and
    # each y band entry once per node of its grid row
    data = np.empty((5, nx * ny))
    data[0] = np.repeat(by[0], nx)
    data[1] = np.tile(bx[0], ny)
    data[2].fill(bx[1, 0] + by[1, 0])
    data[3] = np.tile(bx[2], ny)
    data[4] = np.repeat(by[2], nx)
    eig_x = _single_eigenpairs(nx)
    eig_y = eig_x if ny == nx else _single_eigenpairs(ny)
    lam_sum = eig_y[0][:, None] + eig_x[0][None, :]
    lam_sum.setflags(write=False)
    return _read_only_dia(data, [-nx, -1, 0, 1, nx]), (eig_x, eig_y, lam_sum)


def _read_only_dia(data: np.ndarray, offsets: list) -> sp.dia_matrix:
    """The square DIA matrix of data and its ascending offsets, read-only."""
    n = data.shape[1]
    mat = sp.dia_matrix((data, offsets), shape=(n, n))
    for a in (mat.data, mat.offsets):
        a.setflags(write=False)
    return mat


def _single_eigenpairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """_axis_eigenpairs(n) with V cast to float32; both read-only. V keeps
    the Fortran order LAPACK returns it in: BLAS products round by operand
    layout, so the preconditioner's bytes depend on it."""
    lam, v = _axis_eigenpairs(n)
    v = v.astype(np.float32, order="F")
    v.setflags(write=False)
    return lam, v


class NeumannLaplacian:
    """The discrete Laplacian with mirror (zero-flux) boundary rows.

    Every operation takes and returns stacks of rows of shape (S, N), one
    nodal vector per row (a single vector is the stack v[None]): the
    product Lap v and the solves of the shifted systems
    (mu * (-Lap) + diag(d)) x = rhs that the Newton and adjoint steps need.
    Each row of a result is bit-identical to that of the row alone. 1D
    systems are tridiagonal and go straight to LAPACK's gtsv (Gaussian
    elimination with partial pivoting), O(N) per solve. 2D systems go
    through preconditioned conjugate gradients in the trapezoid inner
    product <u, v>_W = u . (w v), in which mu * (-Lap) + diag(d) is
    self-adjoint since W * Lap is symmetric. The matrix must be positive
    definite in that inner product: a 2D row that meets a direction of
    nonpositive curvature fails (see _Cg2D). The 1D solve takes any
    nonsingular d. The preconditioner mu * (-Lap) + c I, with c the mean of
    |d|, is inverted by fast diagonalization: the eigenvectors of each
    axis's 1D operator turn it into a diagonal, so one application is four
    small dense matrix products, made in single precision. The CG
    recurrence, its curvature test and the tolerance contract below stay
    in double precision. Both dimensions fail a row with a non-finite d or
    rhs before solving it, and one with a non-finite x after it: the 1D
    solve tests x, the 2D solve its true residual.

    A solve takes d and rhs of shape (S, N) and returns (x, errors): x of
    shape (S, N), and errors[i] the message of row i's failed solve, whose
    x row is then NaN, or None. No row failure raises; each is tried and
    lands on its own row. A 1D stack is one gtsv call on its block-diagonal
    system, a 2D stack one CG solve per row. apply and the solves write
    their result into out, a C-order (S, N) float64 array distinct from
    their inputs, when it is given, and return a new array otherwise; the
    inputs are never written.

    A 1D product is one correlation of the flattened rows with the stencil
    (s, -2s, s), followed by the two mirror rows written over the first and
    last column of every row. Those
    columns are the only outputs whose stencil window spans a join between
    rows, so rows cannot mix; each output sums its products from +0 in DIA
    order (module docstring). A 2D product is scipy's DIA product, one per
    row.

    The Laplacian, stored by diagonals, and, in 2D, the per-axis eigenpairs
    and their eigenvalue sums belong to the Grid (Grid._operators), which
    builds them on first use. An instance holds its grid and the buffers
    of its 2D CG solves, made with the buffers of the run that made it or
    by its first 2D solve and reused by every later one: constructing one
    is free, its 2D solves run one at a time, and every solve depends only
    on its arguments. The Newton runs of one steady solve share one.

    Tolerance contract of solve_shifted(mu, d, rhs, rtol): rtol is None or
    one value per row, and each 2D row solved returns its x with a residual
    sup norm of at most max(floor, rtol[i]) times max(|x|, |rhs|) on that
    row, floor being the rounding floor of _Cg2D; rtol=None (the default)
    asks for the floor itself on every row. A Newton step passes its
    forcing terms as rtol; every other caller takes the floor. The 1D solve
    is direct, ignores rtol and is bit-identical for every rtol.
    """

    def __init__(self, grid: Grid):
        self.grid = grid
        self._cg = None                 # 2D CG buffers, made by _run_buffers

    def apply(self, v: np.ndarray, *, out: np.ndarray | None = None) -> np.ndarray:
        """Lap applied to each row of the stack v (S, N), written into out (an
        (S, N) C-order float64 array other than v) and returned, or as a new
        C-order array. 1D makes one correlation over the whole stack; 2D
        makes one DIA product per row, since the multi-vector product on the
        transposed stack is the slower there, its (N, S) copies leaving
        cache. Either way each row is bit-identical to its own product."""
        lap = self.grid._operators[0]
        if self.grid.dim == 1:
            return _apply_1d(lap, v, out)
        out = np.empty(v.shape) if out is None else out
        for i, row in enumerate(v):
            out[i] = lap @ row
        return out

    def shifted_factor(self, mu: float, diag: np.ndarray):
        """Solver object for the stack of systems mu * (-Lap) + diag(d[i]), d
        of shape (S, N); its .solve(rhs, rtol=None, out=None) takes rhs of
        d's shape and returns (x, errors) as solve_shifted does. Every
        shifted solve goes through here. In 2D every object this instance
        returns shares the instance's CG buffers, so their solves run one
        at a time."""
        if self.grid.dim == 1:
            return _Banded1D(mu, diag)
        if self._cg is None:
            self._run_buffers(0, 0)
        return _Cg2D(self.grid, mu, diag, self._cg)

    def _run_buffers(self, count: int, rows: int) -> list:
        """count (rows, N) float64 buffers for a run that solves on this
        instance. In 2D they and the instance's CG buffers (see _Cg2D) are
        one allocation: a run then frees one block, and glibc trims a freed
        block from the heap only when it is over twice the largest block it
        has unmapped, so the next run of the same size reuses the pages
        instead of faulting them in again (a 240^2 solve frees 4.4 MB). In
        1D each buffer is its own array, no larger than the arrays a 1D step
        makes: a block of four is over glibc's mmap threshold at 8193 nodes,
        and the 1D squeeze campaigns trimmed and faulted it in again on
        every call."""
        n = self.grid.num_nodes
        if self.grid.dim == 1:
            return [np.empty((rows, n)) for _ in range(count)]
        size = count * rows * n
        block = np.empty(size + 4 * n + (3 * n + 1) // 2)
        single = block[size + 4 * n:].view(np.float32)[:3 * n]
        self._cg = (block[size:size + 4 * n].reshape(4, n),
                    single.reshape((3,) + self.grid.counts[::-1]))
        return list(block[:size].reshape(count, rows, n))

    def solve_shifted(self, mu: float, diag: np.ndarray, rhs: np.ndarray,
                      rtol=None, *, out: np.ndarray | None = None) -> tuple[np.ndarray, list]:
        return self.shifted_factor(mu, diag).solve(rhs, rtol, out=out)


def _apply_1d(bands: np.ndarray, rows: np.ndarray, out: np.ndarray | None) -> np.ndarray:
    """Lap applied to each row of rows (S, N) in 1D, written into out or as
    a new C-order array, from the Laplacian's band data (see the module
    docstring): one correlation of the flattened stack with the interior
    stencil, then the two mirror rows, which overwrite the outputs at the
    row joins. The mirror rows take Python floats, whose arithmetic is IEEE
    double as numpy's is, and which cost a one-row product less than column
    operations do."""
    s, n = rows.shape
    if not rows.size:
        return np.empty((s, n)) if out is None else out
    # the bands' diagonal holds matrix row 1, interior at every n >= 3
    product = np.correlate(rows.ravel(), bands.diagonal(), "same").reshape(s, n)
    if out is None:
        out = product
    else:
        np.copyto(out, product)
    first, up = bands.item(1, 0), bands.item(2, 1)
    low, last = bands.item(0, n - 2), bands.item(1, n - 1)
    out[:, 0] = [(0.0 + first * a) + up * b for a, b in rows[:, :2].tolist()]
    out[:, -1] = [(0.0 + low * a) + last * b for a, b in rows[:, -2:].tolist()]
    return out


def _require_finite(diag: np.ndarray, rhs: np.ndarray) -> None:
    """Raise numpy.linalg.LinAlgError on a non-finite entry of d or rhs, so
    callers handle every 1D and 2D solve failure the same way. The check on
    d matters even where the solve would run: an inf in d can still give a
    finite x."""
    if not (_all_finite(diag) and _all_finite(rhs)):
        raise np.linalg.LinAlgError("shifted solve: non-finite diagonal or rhs")


def _all_finite(a: np.ndarray) -> bool:
    """Whether every entry of the float64 array a is finite. A finite sum of
    squares proves it, so one BLAS dot (which, unlike numpy's, warns of no
    overflow) settles the common case; the exact test runs only when that
    sum is not finite, as with finite entries whose squares overflow."""
    v = a.ravel()
    return math.isfinite(ddot(v, v)) or bool(np.isfinite(v).all())


def _solve_each_row(x: np.ndarray, rhs: np.ndarray, solve_row) -> tuple[np.ndarray, list]:
    """(x, errors) of the stack rhs (S, N) solved row by row into x (S, N):
    solve_row(i, x[i]) writes row i's x into its row of x or raises
    numpy.linalg.LinAlgError, which leaves that row NaN with its message in
    errors; every other entry of errors is None."""
    errors = [None] * len(rhs)
    for i in range(len(rhs)):
        try:
            solve_row(i, x[i])
        except np.linalg.LinAlgError as exc:
            x[i] = np.nan
            errors[i] = str(exc)
    return x, errors


class _Banded1D:
    """1D shifted system mu * (-Lap) + diag(d) as its three diagonals
    (dl, 2 mu / h^2 + d, du), solved by LAPACK gtsv with no wrapper in
    between. Each solve builds the three diagonals afresh and lets gtsv
    overwrite them, so a factor keeps no state between solves. An exactly
    singular matrix (gtsv info > 0) raises numpy.linalg.LinAlgError, and so
    does a non-finite x, which a nearly singular matrix can give from finite
    d and rhs.

    The stack of rows (d and rhs of shape (S, N)) is one gtsv call on the
    block-diagonal system. The couplings at the block joins are zero, so
    elimination never swaps across a join (|d| >= 0 = |dl|) and its
    multiplier there is 0: each row's arithmetic is that of its own solve.
    A non-finite entry in a row's d, rhs or x, or info > 0, sends the stack
    to one solve per row (_solve_each_row), so the failure lands on that
    row alone, as NaN with its message.
    """

    def __init__(self, mu: float, diag: np.ndarray):
        self._mu, self._diag = mu, diag

    def solve(self, rhs: np.ndarray, rtol=None, *,
              out: np.ndarray | None = None) -> tuple[np.ndarray, list]:
        """Direct solve as (x, errors), x written into out (a C-order (S, N)
        float64 array other than rhs) or made; rtol is accepted for the
        common interface and ignored."""
        diag, x = self._diag, np.empty(rhs.shape) if out is None else out
        try:
            return self._gtsv(diag, rhs, x), [None] * len(rhs)
        except np.linalg.LinAlgError:
            pass
        return _solve_each_row(
            x, rhs, lambda i, row: self._gtsv(diag[i:i + 1], rhs[i:i + 1], row[None]))

    def _gtsv(self, diag: np.ndarray, rows: np.ndarray, x: np.ndarray) -> np.ndarray:
        """x (S, N) of one gtsv call on the block-diagonal system of rows (S, N),
        made in the given C-contiguous x: gtsv overwrites a copy of rows there."""
        s, n = rows.shape
        h = 1.0 / (n - 1)                   # Grid.spacings of the rows' grid
        inv = self._mu / (h * h)
        d = (2.0 * inv + diag).ravel()
        _require_finite(d, rows)
        # the stack's dl and du, n per block: the mirror couplings -2 inv at
        # each block's ends, and in its last column the zero couplings to
        # the next block
        off = np.empty((2, s * n))
        off.fill(-inv)
        off[0, n - 2::n] = off[1, ::n] = -2.0 * inv
        off[:, n - 1::n] = 0.0
        np.copyto(x, rows)
        x_flat, info = _GTSV(off[0, :-1], d, off[1, :-1], x.reshape(-1), overwrite_dl=1,
                             overwrite_d=1, overwrite_du=1, overwrite_b=1)[3:]
        if info > 0:
            raise np.linalg.LinAlgError("singular matrix")
        if not _all_finite(x_flat):
            raise np.linalg.LinAlgError("shifted solve: non-finite solution")
        return x


class _Cg2D:
    """Preconditioned conjugate gradients for the stack of 2D shifted
    systems A x = rhs[i], A = mu * (-Lap) + diag(d[i]): one CG solve per
    row, each written into its row of one (S, N) result (_solve_each_row).
    The CG state is made once per NeumannLaplacian, so once per steady
    solve's Newton runs (NeumannLaplacian._run_buffers), and shared by
    every _Cg2D that instance returns: a (4, N) float64 block of the CG
    vectors tmp (also w r), z and p (after CG, the scaled x and rhs of the
    residual check) and res, the scaled rhs that CG overwrites with its
    residual, and a (3, ny, nx) float32 block of the preconditioner's two
    work planes and the row's inverse eigenvalues. A row's preconditioner
    and tolerance are made in them when that row is solved, and x in its
    row of the result, so a solve allocates nothing but scipy's DIA
    products.

    W * Lap is symmetric, W the diagonal of trapezoid node weights w, so A
    is self-adjoint in the trapezoid inner product <u, v>_W = u . (w v). The
    iteration (Hestenes and Stiefel 1952, J. Res. Nat. Bur. Standards 49;
    Saad, Iterative Methods for Sparse Linear Systems, 2003, section 9.2)
    runs on A itself with W-weighted dot products and carries the residual
    r = b - A x that CG recurs anyway. It stops as soon as that residual is
    under half the tolerance times the larger of |x| and |rhs| (sup norms).
    x, r and the search direction are updated in place.

    The preconditioner M = mu * (-Lap) + c I, c = mean|d|, is self-adjoint
    in the same inner product. Per axis -Lap1 = V diag(lam) V' W1 with
    V' W1 V = I (_axis_eigenpairs), so M^(-1) r = V_y (E * (V_y' R V_x))
    V_x', R being w r on the (ny, nx) grid and E the inverse eigenvalues
    1 / (mu * (lam_y + lam_x) + c); then <r, z>_W = (w r) . z. It is
    applied in single precision: V, E and R are float32. R needs no scaling
    of its own, since the row's rhs is scaled into [1/2, 1) below, which
    keeps every residual CG meets inside float32's range. The
    preconditioner only shapes the search directions; x, r, p, the
    curvature p'WAp, the stopping test and the true-residual check below
    are all float64, so the tolerance is the same as with an exact M
    (Greenbaum 1997, SIAM J. Matrix Anal. Appl. 18; Carson and Higham 2018,
    SIAM J. Sci. Comput. 40).

    CG needs A positive definite in the trapezoid inner product. On the
    solver's restart path from max(m) and at every stable steady state (the
    adjoint), A is a nonsingular M-matrix (see the solver module), so it is.
    A search direction p with p'WAp <= 0 proves that it is not, and the
    row's solve raises numpy.linalg.LinAlgError there; the solver takes that
    as a failed Newton step, the adjoint as an unstable state. An indefinite
    A whose directions all keep p'WAp > 0 may still be solved, to the same
    tolerance.

    A row's tolerance is max(floor, rtol[i]), where floor is the rounding
    floor residual_floor times max(1, |d[i]|) and rtol the optional relative
    tolerances of solve (None: the floor alone). A row's solve scales its
    rhs by the exact power of two 2^-e that puts max|rhs| in [1/2, 1)
    (_binary_exponent; near the ends of double range as close as a normal
    2^-e gets), makes one CG pass on the scaled system and scales x back by
    2^e, so x scales exactly with rhs wherever it stays a normal double. It
    then measures the true residual of the returned x, rescaled, against
    the scaled rhs; above the tolerance (a subnormal x too coarse to meet
    it, or one that overflowed) it raises numpy.linalg.LinAlgError naming
    the tolerance it enforced, as the 1D gtsv solve does for a singular
    matrix. A zero rhs row returns zeros.
    """

    def __init__(self, grid: Grid, mu: float, diag: np.ndarray, buffers: tuple):
        self._mat, ((_, self._vx), (_, self._vy), self._lam_sum) = grid._operators
        (self._tmp, self._z, self._p, self._res), single = buffers
        self._work, self._inv_eig = single[:2], single[2]
        self._w, self._mu, self._diag = grid.node_weights, mu, diag
        self._floor = residual_floor(grid, mu)

    def solve(self, rhs: np.ndarray, rtol=None, *,
              out: np.ndarray | None = None) -> tuple[np.ndarray, list]:
        """(x, errors) of the stack rhs (S, N), row i solved to rtol[i], or
        to the floor alone when rtol is None; x is written into out (an (S,
        N) float64 array other than rhs) or made."""
        return _solve_each_row(
            np.empty(rhs.shape) if out is None else out, rhs,
            lambda i, x: self._solve_row(self._diag[i], rhs[i],
                                         None if rtol is None else rtol[i], x))

    def _solve_row(self, diag: np.ndarray, rhs: np.ndarray, rtol, x: np.ndarray) -> None:
        """x of one row, given its d and rhs, made in x; raises LinAlgError."""
        x.fill(0.0)
        _require_finite(diag, rhs)
        if not rhs.any():
            return
        tmp, inv_eig = self._tmp, self._inv_eig
        shift = max(float(np.mean(np.abs(diag, out=tmp))), 1e-12)
        # 1 / (mu * (lam_y + lam_x) + shift) in double, then cast once
        eig = np.multiply(self._lam_sum, self._mu, out=tmp.reshape(inv_eig.shape))
        eig += shift
        inv_eig[...] = np.divide(1.0, eig, out=eig)
        floor = self._floor * max(1.0, _sup(diag))
        tol = floor if rtol is None else max(floor, rtol)
        e = _binary_exponent(rhs)
        down = math.ldexp(1.0, -e)
        x = self._cg(diag, inv_eig, np.multiply(rhs, down, out=self._res), tol, x)
        x *= math.ldexp(1.0, e)
        rel = self._residual(diag, np.multiply(x, down, out=self._z),
                             np.multiply(rhs, down, out=self._p))
        if not rel <= tol:
            enforced = (f"the rounding floor {floor:.3e}" if rtol is None else
                        f"the tolerance {tol:.3e} = max(requested rtol {rtol:.3e}, "
                        f"rounding floor {floor:.3e})")
            raise np.linalg.LinAlgError(
                f"2D shifted solve: relative residual {rel:.3e} above {enforced}")

    def _apply(self, diag: np.ndarray, v: np.ndarray) -> np.ndarray:
        """A v = mu * (-Lap v) + d v, as a new array; v must not be tmp."""
        q = self._mat @ v
        q *= -self._mu
        q += np.multiply(diag, v, out=self._tmp)
        return q

    def _precondition(self, inv_eig: np.ndarray, wr: np.ndarray, out: np.ndarray) -> None:
        """out = M^(-1) r by fast diagonalization in single precision, given
        the row's float32 inverse eigenvalues and wr = w r (flat float64
        arrays). wr is cast into the float32 work buffer unscaled: _solve_row
        scales the row's rhs into [1/2, 1), and CG stops before max|r| falls
        under a quarter of the smallest rounding floor 8 eps = 2^-49, so
        max|w r| stays between 2^-53 and 1, far inside float32's range."""
        vx, vy, work = self._vx, self._vy, self._work
        work[0] = wr.reshape(work[0].shape)
        np.matmul(vy.T, work[0], out=work[1])
        np.matmul(work[1], vx, out=work[0])
        work[0] *= inv_eig
        np.matmul(vy, work[0], out=work[1])
        np.matmul(work[1], vx.T, out=work[0])
        out.reshape(work[0].shape)[...] = work[0]

    def _cg(self, diag: np.ndarray, inv_eig: np.ndarray, res: np.ndarray,
            tol: float, x: np.ndarray) -> np.ndarray:
        """x from x = 0 for the row of shift diag, made in and returned as
        the given zeroed x, given the right-hand side in res, which the pass
        owns and overwrites with the recurred residual b - A x."""
        w, tmp, z, p = self._w, self._tmp, self._z, self._p
        rhs_max = _sup(res)
        self._precondition(inv_eig, np.multiply(w, res, out=tmp), z)
        rz = float(tmp @ z)
        if not rz > 0.0:                    # breakdown: x = 0 fails the gate of the row
            return x
        limit = 0.5 * tol
        np.copyto(p, z)
        for _ in range(_KRYLOV_MAXITER):
            q = self._apply(diag, p)
            curvature = float(p @ np.multiply(w, q, out=tmp))
            if not curvature > 0.0:
                raise np.linalg.LinAlgError(
                    f"2D shifted solve: matrix is not positive definite "
                    f"(p'WAp = {curvature:.3e})")
            alpha = rz / curvature
            x += np.multiply(p, alpha, out=tmp)
            res -= np.multiply(q, alpha, out=tmp)
            res_max, x_max = _sup(res), _sup(x)
            if res_max <= limit * max(rhs_max, x_max):
                break
            self._precondition(inv_eig, np.multiply(w, res, out=tmp), z)
            rz, rz_old = float(tmp @ z), rz
            p *= rz / rz_old
            p += z
        return x

    def _residual(self, diag: np.ndarray, x: np.ndarray, rhs: np.ndarray) -> float:
        """Sup norm of the true residual rhs - A x relative to max(|x|, |rhs|),
        for the scaled, nonzero rhs of a row's solve. A NaN in x is a NaN in
        r, which np.max propagates and idamax may skip, so no tolerance
        passes it."""
        r = self._apply(diag, x)
        np.subtract(rhs, r, out=r)
        return float(np.abs(r, out=r).max()) / max(_sup(x), _sup(rhs))


def _sup(v: np.ndarray) -> float:
    """max|v| of a flat float64 v, read in one BLAS idamax pass with no
    temporary. NaN entries are not reliably seen."""
    return abs(float(v[idamax(v)]))


def _binary_exponent(v: np.ndarray) -> int:
    """The binary exponent e of max|v| (max|v| in [2^(e-1), 2^e)), clamped
    so that 2^-e and 2^e are normal doubles for any finite flat v."""
    return min(max(math.frexp(_sup(v))[1], -1022), 1022)


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
    idx = [_fold_indices(m, n - 1) for m, n in zip(grid.refined(k).counts, grid.counts)]
    if grid.dim == 1:
        return values[idx[0]]
    nx, ny = grid.counts
    return values.reshape(ny, nx)[np.ix_(idx[1], idx[0])].ravel()
