"""Nodal scalar fields, the admissible resource class, and field metrics.

All integral-like quantities (means, L1 norms, the optimization objective)
use the grid's trapezoid node weights. That single convention makes the
discrete lower bound mean(theta) >= m0 an exact algebraic identity of the
scheme and keeps the dyadic fold experiments exact; see the solver and
experiment modules.
"""
from __future__ import annotations

import io
from dataclasses import dataclass, field

import numpy as np

from .grids import Grid, GridError

MEAN_TOL = 1e-10
BOUND_TOL = 1e-12


class FieldError(ValueError):
    pass


class AdmissibilityError(FieldError):
    pass


@dataclass(frozen=True, eq=False)
class ScalarField:
    """Finite nodal values over a Grid, stored flat (x fastest in 2D)."""

    grid: Grid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.grid.num_nodes,):
            raise FieldError(
                f"values shape {vals.shape} does not match grid with "
                f"{self.grid.num_nodes} nodes"
            )
        if not np.isfinite(vals).all():
            raise FieldError("field values must be finite")
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    def __reduce__(self):
        # rebuild through the constructor, which validates the values again
        # and makes them read-only; a pickled array comes back writable
        return ScalarField, (self.grid, self.values)


@dataclass(frozen=True)
class ProblemParams:
    """One instance of the population-maximization problem."""

    mu: float
    kappa: float = 1.0
    m0: float = 0.3

    def __post_init__(self):
        if not (self.mu > 0):
            raise FieldError(f"mu must be positive, got {self.mu}")
        if not (0 < self.m0 < self.kappa):
            raise FieldError(
                f"need 0 < m0 < kappa, got m0={self.m0}, kappa={self.kappa}"
            )


class ResourceField(ScalarField):
    """Admissible resource distribution: 0 <= value <= kappa nodewise and
    weighted mean equal to m0.

    Bound violations up to BOUND_TOL and mean deviation up to MEAN_TOL are
    accepted (and the values kept as given); anything larger raises.
    """

    def __init__(self, grid: Grid, values: np.ndarray, kappa: float, m0: float):
        super().__init__(grid, values)
        if not (0 < m0 < kappa):
            raise AdmissibilityError(f"need 0 < m0 < kappa, got m0={m0}, kappa={kappa}")
        lo = float(self.values.min())
        hi = float(self.values.max())
        if lo < -BOUND_TOL or hi > kappa + BOUND_TOL:
            raise AdmissibilityError(
                f"values outside [0, kappa={kappa}]: min={lo}, max={hi}"
            )
        mbar = mean(self)
        if abs(mbar - m0) > MEAN_TOL:
            raise AdmissibilityError(
                f"weighted mean {mbar!r} differs from m0={m0} by {abs(mbar - m0):.3e}"
            )
        object.__setattr__(self, "kappa", float(kappa))
        object.__setattr__(self, "m0", float(m0))

    def __reduce__(self):
        return ResourceField, (self.grid, self.values, self.kappa, self.m0)

    def with_values(self, values: np.ndarray) -> "ResourceField":
        return ResourceField(self.grid, values, self.kappa, self.m0)


def mean(f: ScalarField) -> float:
    """Weighted (trapezoid) average of a field: Grid.mean of its values."""
    return f.grid.mean(f.values)


def bv_seminorm(f: ScalarField) -> float:
    """Discrete total variation.

    1D: sum of absolute neighbor differences (no h factor, so a unit jump
    contributes 1 regardless of resolution). 2D: anisotropic sum with each
    x-difference weighted by h_y and each y-difference by h_x, so a straight
    unit-height interface again contributes ~1.
    """
    if f.grid.dim == 1:
        return float(np.sum(np.abs(np.diff(f.values))))
    nx, ny = f.grid.counts
    hx, hy = f.grid.spacings
    square = f.values.reshape(ny, nx)
    tv_x = float(np.sum(np.abs(np.diff(square, axis=1)))) * hy
    tv_y = float(np.sum(np.abs(np.diff(square, axis=0)))) * hx
    return tv_x + tv_y


def jump_count(f: ScalarField, threshold: float) -> int:
    """Number of sign changes of (value - threshold) along a 1D grid.

    Nodes exactly at the threshold are skipped, so a monotone crossing
    counts once however it is sampled. 2D fields are rejected; use
    bv_seminorm for an area-normalized fragmentation measure there.
    """
    if f.grid.dim != 1:
        raise FieldError("jump_count is defined for 1D fields only")
    s = np.sign(f.values - threshold)
    s = s[s != 0.0]
    if s.size < 2:
        return 0
    return int(np.sum(s[1:] != s[:-1]))


def near_bangbang_fraction(f: ScalarField, kappa: float) -> float:
    """Fraction of nodes strictly inside (0.05*kappa, 0.95*kappa)."""
    v = f.values
    return float(np.mean((v > 0.05 * kappa) & (v < 0.95 * kappa)))


def make_crenel(grid: Grid, kappa: float, m0: float) -> ResourceField:
    """Single block of height kappa grown from x = 0 until the weighted mass
    reaches m0 * sum(weights), with one partial-value node absorbing the
    remainder. Admissibility is then exact. In 2D the block is an x-slab
    (y-independent)."""
    if not (0 < m0 < kappa):
        raise AdmissibilityError(f"need 0 < m0 < kappa, got m0={m0}, kappa={kappa}")
    w = Grid(grid.counts[:1]).node_weights
    col = _fill_greedy(w, m0 * float(w.sum()) / kappa) * kappa
    vals = col if grid.dim == 1 else np.tile(col, grid.counts[1])
    return ResourceField(grid, vals, kappa, m0)


def _fill_greedy(w: np.ndarray, target: float) -> np.ndarray:
    out = np.zeros_like(w)
    acc = 0.0
    for i, cap in enumerate(w):
        if acc + cap <= target:
            out[i] = 1.0
            acc += cap
        else:
            out[i] = (target - acc) / cap
            break
    return out


# ---------------------------------------------------------------------------
# CSV serialization: header x[,y],value; row-major; 17 significant digits.

def field_to_csv(f: ScalarField) -> str:
    cols = f.grid.coords_columns()
    header = ("x,value" if f.grid.dim == 1 else "x,y,value") + "\n"
    buf = io.StringIO()
    buf.write(header)
    for row in zip(*cols, f.values):
        buf.write(",".join(format(v, ".17g") for v in row) + "\n")
    return buf.getvalue()


def field_from_csv(text: str) -> ScalarField:
    """Read field_to_csv output back. Reads are strict: the coordinate
    columns must equal those of the uniform grid they span, in the writer's
    row-major order, to the last bit (17 digits round-trip doubles). Empty
    input, ragged rows, non-numeric cells, a wrong row order or a
    non-uniform grid raise FieldError."""
    lines = [ln for ln in text.strip().splitlines() if ln]
    if not lines:
        raise FieldError("empty field CSV")
    header = lines[0].strip().split(",")
    if header not in (["x", "value"], ["x", "y", "value"]):
        raise FieldError(f"unrecognized field CSV header: {lines[0]!r}")
    cells = [ln.split(",") for ln in lines[1:]]
    for i, row in enumerate(cells, start=1):
        if len(row) != len(header):
            raise FieldError(f"data row {i}: {len(row)} cells, expected {len(header)}")
    try:
        table = np.array(cells, dtype=float).reshape(len(cells), len(header))
    except ValueError as exc:
        raise FieldError(f"non-numeric cell in field CSV: {exc}") from None
    coords = table[:, :-1].T
    try:
        grid = Grid(tuple(np.unique(c).size for c in coords))
    except GridError as exc:
        raise FieldError(f"field CSV does not span a grid: {exc}") from None
    if not all(np.array_equal(c, expect)
               for c, expect in zip(coords, grid.coords_columns())):
        raise FieldError(
            "field CSV coordinates are not a uniform grid in row-major order "
            "(x fastest)")
    return ScalarField(grid, table[:, -1])
