import gc
import itertools
import re
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import get_lapack_funcs

from kppfrag import (
    Grid,
    GridError,
    NeumannLaplacian,
    refine_fold_values,
)
import kppfrag.grids as grids_mod
from conftest import (
    apply_one,
    banded_shifted_solve,
    dense_shifted,
    kron_lap2d_csr,
    largest_eigenvalue_magnitude,
    lil_lap1d_csr,
    solve_one,
)


def assert_row_failed(x, error, match):
    """A failed row of a shifted solve: NaN throughout, with a message
    that matches the pattern match."""
    assert error is not None and re.search(match, error), error
    assert np.isnan(x).all()


def test_grid_validation():
    with pytest.raises(GridError):
        Grid((2,))
    with pytest.raises(GridError):
        Grid((5, 5, 5))
    g = Grid((5, 9))
    assert g.dim == 2
    assert g.num_nodes == 45
    assert g.spacings == (0.25, 0.125)


def test_axis_coords_hit_endpoints():
    g = Grid((11,))
    x = g.axis_coords(0)
    assert x[0] == 0.0 and x[-1] == 1.0
    assert np.allclose(np.diff(x), 0.1)


def test_node_weights_1d():
    g = Grid((7,))
    w = g.node_weights
    assert w[0] == 0.5 and w[-1] == 0.5
    assert np.all(w[1:-1] == 1.0)
    assert w.sum() == 6.0          # N - 1


def test_node_weights_2d_tensor():
    g = Grid((4, 6))
    w = g.node_weights.reshape(6, 4)
    wx = np.array([0.5, 1, 1, 0.5])
    wy = np.array([0.5, 1, 1, 1, 1, 0.5])
    assert np.array_equal(w, np.outer(wy, wx))
    assert w.sum() == 15.0         # (Nx-1)(Ny-1)


def test_laplacian_matrix_n3():
    # h = 1/2, scale 4; boundary rows encode mirrored ghosts
    lap = NeumannLaplacian(Grid((3,)))
    expect = 4.0 * np.array([[-2, 2, 0], [1, -2, 1], [0, 2, -2]], dtype=float)
    dense = lap.apply(np.eye(3)).T
    assert np.array_equal(dense, expect)
    assert np.all(dense.sum(axis=1) == 0.0)


def test_laplacian_annihilates_constants():
    for counts in [(1000,), (30, 41)]:
        g = Grid(counts)
        lap = NeumannLaplacian(g)
        c = np.full(g.num_nodes, 3.7)
        hmin = min(g.spacings)
        assert np.max(np.abs(apply_one(lap, c))) <= 1e-12 * 3.7 / hmin**2


def test_laplacian_spectrum_small_dense():
    # eigenvalues real and nonpositive (similar to a symmetric matrix)
    for n in (3, 10, 50):
        lam = np.linalg.eigvals(NeumannLaplacian(Grid((n,))).apply(np.eye(n)).T)
        scale = 4.0 * (n - 1) ** 2
        assert np.max(np.abs(lam.imag)) <= 1e-9 * scale
        assert np.max(lam.real) <= 1e-9 * scale


def test_power_iteration_extreme_eigenvalue():
    # the stencil's extreme eigenvalue is -4/h^2 exactly
    g = Grid((1000,))
    lam = largest_eigenvalue_magnitude(NeumannLaplacian(g))
    target = 4.0 * (999.0) ** 2
    assert abs(lam - target) <= 0.01 * target


def test_2d_kronecker_sum_structure():
    gx, gy = Grid((7,)), Grid((5,))
    g2 = Grid((7, 5))
    fx = np.sin(2.0 * np.pi * gx.axis_coords(0)) + 0.3
    fy = np.cos(np.pi * gy.axis_coords(0)) + 1.1
    sep = np.outer(fy, fx).ravel()
    lx = apply_one(NeumannLaplacian(gx), fx)
    ly = apply_one(NeumannLaplacian(gy), fy)
    expect = (np.outer(fy, lx) + np.outer(ly, fx)).ravel()
    got = apply_one(NeumannLaplacian(g2), sep)
    assert np.allclose(got, expect, rtol=1e-12, atol=1e-9)


@pytest.mark.parametrize("counts", [(33,), (9, 12)])
def test_shifted_solve_residual(counts):
    g = Grid(counts)
    lap = NeumannLaplacian(g)
    rng = np.random.default_rng(7)
    diag = rng.uniform(0.5, 2.0, g.num_nodes)
    rhs = rng.standard_normal(g.num_nodes)
    mu = 0.37
    x, err = solve_one(lap, mu, diag, rhs)
    assert err is None
    resid = mu * (-apply_one(lap, x)) + diag * x - rhs
    assert np.max(np.abs(resid)) <= 1e-9 * max(1.0, np.max(np.abs(x)))


def test_shifted_factor_reuse_matches_solve():
    # one factor object serves a whole stack and keeps what its rows share
    # (in 2D the float32 work buffer too): solved twice, each time it gives
    # a fresh solve's bytes, and the second solve leaves the first result
    # as it was, so no returned row aliases a buffer the object reuses
    for counts, rows in itertools.product([(21,), (9, 7)], [1, 3]):
        g = Grid(counts)
        lap = NeumannLaplacian(g)
        rng = np.random.default_rng(rows)
        diag = rng.uniform(0.5, 1.5, (rows, g.num_nodes))
        rhs = rng.standard_normal((2, rows, g.num_nodes))
        fac = lap.shifted_factor(0.2, diag)
        first, errors = fac.solve(rhs[0])
        kept = first.tobytes()
        second, again = fac.solve(rhs[1])
        assert errors == again == [None] * rows and first.tobytes() == kept
        for got, b in ((first, rhs[0]), (second, rhs[1])):
            expect, expect_errors = lap.solve_shifted(0.2, diag, b)
            assert expect_errors == [None] * rows and got.tobytes() == expect.tobytes()


def test_dense_oracle_matches_operator():
    g = Grid((5, 4))
    diag = np.linspace(-1.0, 1.0, g.num_nodes)
    v = np.random.default_rng(3).standard_normal(g.num_nodes)
    lap = NeumannLaplacian(g)
    assert np.allclose(dense_shifted(g, 0.3, diag) @ v,
                       0.3 * (-apply_one(lap, v)) + diag * v, rtol=1e-13, atol=1e-12)


@pytest.mark.parametrize("counts", [(9, 12), (12, 9), (40,)])
def test_shifted_solve_indefinite_matches_dense_oracle(counts):
    # Newton matrices mu*(-Lap) + diag(2 theta - m) can be indefinite: the
    # direct 1D solve takes them, while a 2D CG solve either matches the
    # oracle or fails its row with a message naming positive definiteness
    g = Grid(counts)
    rng = np.random.default_rng(11)
    diag = rng.uniform(-1.0, 1.0, g.num_nodes)
    rhs = rng.standard_normal(g.num_nodes)
    dense = dense_shifted(g, 0.05, diag)
    eig = np.linalg.eigvals(dense).real
    assert eig.min() < 0.0 < eig.max()
    assert np.linalg.cond(dense) < 1e6
    expect = np.linalg.solve(dense, rhs)
    got, err = solve_one(NeumannLaplacian(g), 0.05, diag, rhs)
    if err is not None:
        assert g.dim == 2 and "not positive definite" in err and np.isnan(got).all()
        return
    assert np.allclose(got, expect, rtol=1e-9, atol=1e-11 * np.max(np.abs(expect)))


def _cg_passes(monkeypatch):
    """Record one entry per CG pass of every 2D shifted solve."""
    passes = []
    real_cg = grids_mod._Cg2D._cg

    def counting_cg(self, *args):
        passes.append(1)
        return real_cg(self, *args)

    monkeypatch.setattr(grids_mod._Cg2D, "_cg", counting_cg)
    return passes


@pytest.mark.parametrize("rtol", [None, 1e-2, 1e-6])
def test_shifted_solve_2d_spd_matches_dense_oracle(monkeypatch, rtol):
    # a definite shift, as on the restart path and at a stable steady
    # state: one CG pass meets half its tolerance, so x is within
    # ||A^-1|| times that residual of the dense solution
    g = Grid((9, 12))
    rng = np.random.default_rng(13)
    mu, diag = 0.05, rng.uniform(0.0, 2.0, g.num_nodes)
    rhs = rng.standard_normal(g.num_nodes)
    passes = _cg_passes(monkeypatch)
    dense = dense_shifted(g, mu, diag)
    assert np.linalg.eigvals(dense).real.min() > 0.0
    expect = np.linalg.solve(dense, rhs)
    got, err = solve_one(NeumannLaplacian(g), mu, diag, rhs, rtol)
    assert err is None and len(passes) == 1
    floor = grids_mod.residual_floor(g, mu) * max(1.0, np.max(np.abs(diag)))
    tol = floor if rtol is None else max(floor, rtol)
    scale = max(np.max(np.abs(got)), np.max(np.abs(rhs)))
    bound = np.linalg.norm(np.linalg.inv(dense), np.inf) * 0.5 * tol * scale
    assert np.max(np.abs(got - expect)) <= bound


def test_shifted_solve_2d_stall_raises_linalg_error(monkeypatch):
    # one Krylov step cannot reach the rounding floor on a variable shift;
    # the solve must give up after its one CG pass and fail its row
    g = Grid((10, 12))
    rng = np.random.default_rng(0)
    monkeypatch.setattr(grids_mod, "_KRYLOV_MAXITER", 1)
    passes = _cg_passes(monkeypatch)
    x, err = solve_one(NeumannLaplacian(g), 0.1, rng.uniform(-1.0, 1.0, g.num_nodes),
                       rng.standard_normal(g.num_nodes))
    assert_row_failed(x, err, "above the rounding floor")
    assert len(passes) == 1


def test_shifted_solve_2d_rtol_bounds_relative_residual():
    g = Grid((20, 17))
    lap = NeumannLaplacian(g)
    rng = np.random.default_rng(5)
    mu, diag = 0.05, rng.uniform(0.0, 2.0, g.num_nodes)
    rhs = rng.standard_normal(g.num_nodes)
    x, err = solve_one(lap, mu, diag, rhs, 1e-3)
    assert err is None
    resid = mu * (-apply_one(lap, x)) + diag * x - rhs
    floor = grids_mod.residual_floor(g, mu) * max(1.0, np.max(np.abs(diag)))
    rel = np.max(np.abs(resid)) / max(np.max(np.abs(x)), np.max(np.abs(rhs)))
    assert rel <= max(floor, 1e-3)


def test_shifted_solve_1d_ignores_rtol():
    g = Grid((101,))
    lap = NeumannLaplacian(g)
    rng = np.random.default_rng(9)
    diag, rhs = rng.uniform(-1.0, 1.0, 101), rng.standard_normal(101)
    (exact, err), (loose, loose_err) = (solve_one(lap, 0.01, diag, rhs),
                                        solve_one(lap, 0.01, diag, rhs, 1e-2))
    assert err is None and loose_err is None
    assert loose.tobytes() == exact.tobytes()


def test_shifted_solve_2d_stall_with_rtol_names_the_tolerance(monkeypatch):
    g = Grid((10, 12))
    rng = np.random.default_rng(0)
    monkeypatch.setattr(grids_mod, "_KRYLOV_MAXITER", 1)
    passes = _cg_passes(monkeypatch)
    x, err = solve_one(NeumannLaplacian(g), 0.1, rng.uniform(-1.0, 1.0, g.num_nodes),
                       rng.standard_normal(g.num_nodes), 1e-6)
    assert_row_failed(x, err, "requested rtol 1.000e-06")
    assert len(passes) == 1


def _shift(kind: str, num_nodes: int, rng) -> np.ndarray:
    if kind == "constant":         # the preconditioner is A itself, up to float32 rounding
        return np.full(num_nodes, 0.7)
    if kind == "definite":
        return rng.uniform(0.2, 2.0, num_nodes)
    return rng.uniform(-1.0, 1.0, num_nodes)


@pytest.mark.parametrize("n", [12, 60])
@pytest.mark.parametrize("mu", [0.05, 0.005])
@pytest.mark.parametrize("kind", ["constant", "definite", "indefinite"])
@pytest.mark.parametrize("rtol", [None, 1e-2, 1e-6])
def test_shifted_solve_2d_stops_on_its_recurred_residual(monkeypatch, n, mu, kind, rtol):
    # The CG loop stops once its recurred residual is under half the
    # tolerance. Were the recurrence to drift below the true residual, the
    # loop would stop early, and the true residual would land above the
    # tolerance (the row fails) or above the half tolerance the loop claims
    # (checked where rtol is far above the rounding floor). An
    # indefinite shift either meets the same test or is rejected, by the
    # curvature test of the first pass.
    g = Grid((n, n))
    lap = NeumannLaplacian(g)
    rng = np.random.default_rng(n)
    diag = _shift(kind, g.num_nodes, rng)
    rhs = rng.standard_normal(g.num_nodes)
    passes = _cg_passes(monkeypatch)
    x, err = solve_one(lap, mu, diag, rhs, rtol)
    if err is not None:
        assert kind == "indefinite" and "not positive definite" in err and np.isnan(x).all()
        assert len(passes) == 1
        return
    assert len(passes) == 1
    resid = mu * (-apply_one(lap, x)) + diag * x - rhs
    floor = grids_mod.residual_floor(g, mu) * max(1.0, np.max(np.abs(diag)))
    rel = np.max(np.abs(resid)) / max(np.max(np.abs(x)), np.max(np.abs(rhs)))
    assert rel <= (floor if rtol is None else 0.5 * rtol)


def test_grid_operators_are_shared_and_read_only():
    # every Laplacian on a grid reads the grid's operators, which are
    # read-only and unchanged by solves on another grid
    g = Grid((12, 9))
    a = NeumannLaplacian(g)
    mat, eig = g._operators
    assert mat.offsets.tolist() == [-12, -1, 0, 1, 12]
    for arr in (mat.data, mat.offsets, *eig[0], *eig[1], g.node_weights):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1.0
    for n, (lam, v) in zip(g.counts, eig):
        # per axis -Lap1 = V diag(lam) V' W1 with V' W1 V = I, in double precision
        lam64, v64 = grids_mod._axis_eigenpairs(n)
        w1 = Grid((n,)).node_weights
        assert np.allclose(v64.T @ (w1[:, None] * v64), np.eye(n), atol=1e-12)
        lap1 = NeumannLaplacian(Grid((n,))).apply(np.eye(n)).T
        assert np.allclose(-lap1 @ v64, v64 * lam64, atol=1e-9 * lam64.max())
        # the shared operators keep lam and the float32 cast of V, nothing else
        assert lam.tobytes() == lam64.tobytes()
        assert v.dtype == np.float32 and v.tobytes() == v64.astype(np.float32).tobytes()
        assert v.flags.f_contiguous     # the layout the preconditioner's bytes assume
    # a 1D grid keeps its band data alone, read-only too
    bands, no_eig = Grid((9,))._operators
    assert no_eig is None and bands.shape == (3, 9)
    with pytest.raises(ValueError, match="read-only"):
        bands[0, 0] = 1.0
    # and the preconditioner's eigenvalue sums lam_y + lam_x on the (ny, nx) grid
    (lam_x, _), (lam_y, _), lam_sum = eig
    assert lam_sum.tobytes() == (lam_y[:, None] + lam_x[None, :]).tobytes()
    with pytest.raises(ValueError, match="read-only"):
        lam_sum[0, 0] = 1.0
    rng = np.random.default_rng(2)
    diag, rhs = rng.uniform(0.0, 2.0, g.num_nodes), rng.standard_normal(g.num_nodes)
    first, first_err = solve_one(a, 0.05, diag, rhs)
    big = Grid((60, 60))
    big_err = solve_one(NeumannLaplacian(big), 0.05, np.ones(big.num_nodes),
                        np.ones(big.num_nodes))[1]
    again, again_err = solve_one(NeumannLaplacian(g), 0.05, diag, rhs)
    assert first_err is None and big_err is None and again_err is None
    assert again.tobytes() == first.tobytes()


@pytest.mark.parametrize("scale", [2.0**-140, 2.0**140])
def test_shifted_solve_2d_is_scale_equivariant_beyond_float32_range(scale):
    # the single-precision preconditioner sees r scaled by a power of two
    # into float32's range, so a right-hand side far outside that range
    # gives exactly the scaled solution
    g = Grid((20, 17))
    lap = NeumannLaplacian(g)
    rng = np.random.default_rng(5)
    diag, rhs = rng.uniform(0.2, 2.0, g.num_nodes), rng.standard_normal(g.num_nodes)
    (x, err), (scaled, scaled_err) = (solve_one(lap, 0.05, diag, rhs),
                                      solve_one(lap, 0.05, diag, scale * rhs))
    assert err is None and scaled_err is None
    assert scaled.tobytes() == (scale * x).tobytes()


@pytest.mark.parametrize("scale", [2.0**-1074, 2.0**-1040, 2.0**-1000, 2.0**1020])
def test_shifted_solve_2d_at_the_ends_of_double_range_fails_only_as_linalg_error(scale):
    # a row either fails (NaN, with its message) or returns an x that meets
    # the tolerance contract against its own rhs; both are checked at unit
    # scale, which the power of two reaches exactly
    g = Grid((20, 17))
    mu = 0.05
    rng = np.random.default_rng(5)
    diag, rhs = rng.uniform(0.2, 2.0, g.num_nodes), rng.standard_normal(g.num_nodes)
    lap = NeumannLaplacian(g)
    with np.errstate(all="ignore"):
        x, err = solve_one(lap, mu, diag, scale * rhs)
    if err is not None:
        assert np.isnan(x).all()
        return
    assert np.isfinite(x).all()
    x_unit, rhs_unit = x / scale, (scale * rhs) / scale
    resid = rhs_unit - (apply_one(lap, x_unit) * -mu + diag * x_unit)
    floor = grids_mod.residual_floor(g, mu) * max(1.0, np.max(np.abs(diag)))
    assert np.max(np.abs(resid)) <= floor * max(np.max(np.abs(x_unit)),
                                                 np.max(np.abs(rhs_unit)))


def test_shifted_solve_2d_of_zero_rhs_is_zero_without_cg(monkeypatch):
    passes = _cg_passes(monkeypatch)
    g = Grid((20, 17))
    x, errors = NeumannLaplacian(g).solve_shifted(0.05, np.ones((1, g.num_nodes)),
                                                  np.zeros((1, g.num_nodes)))
    assert passes == [] and errors == [None]
    assert x.shape == (1, g.num_nodes) and not x.any()


def test_grid_operators_live_as_long_as_their_grid(monkeypatch):
    # each Grid object builds its operators on first use and keeps them; an
    # equal grid builds its own, and operators go with their grid
    built = []
    real_build = grids_mod._build_operators

    def counting_build(grid):
        built.append(grid.counts)
        return real_build(grid)

    monkeypatch.setattr(grids_mod, "_build_operators", counting_build)
    small, large = Grid((13, 13)), Grid((27, 27))
    assert NeumannLaplacian(small).grid is small and built == []
    for _ in range(3):
        NeumannLaplacian(large).apply(np.ones((1, large.num_nodes)))
        assert solve_one(NeumannLaplacian(small), 0.1, np.ones(small.num_nodes),
                         np.ones(small.num_nodes))[1] is None
    assert built == [(27, 27), (13, 13)]
    twin = Grid((13, 13))
    assert twin._operators[0] is not small._operators[0]
    assert built == [(27, 27), (13, 13), (13, 13)]
    gone = weakref.ref(small._operators[0])
    del small
    gc.collect()
    assert gone() is None


@pytest.mark.parametrize("counts", [
    (3,), (4,), (33,), (1000,), (8193,),
    (3, 3), (3, 5), (12, 9), (60, 60), (127, 65), (240, 240),
], ids=lambda c: "x".join(map(str, c)))
def test_laplacian_products_match_sparse_oracles(counts):
    # 2D adds the diagonals in ascending offset order, each row's products
    # in the CSR oracle's column order; the row-wrap zeros add +-0 to a sum
    # that starts at +0. 1D sums the same products in the same order, by
    # one correlation and the two mirror rows. So every product keeps the
    # oracle's bytes, signed zeros included, on (S, N) stacks of one and of
    # seven rows, strided, Fortran-ordered and C-ordered
    g = Grid(counts)
    lap = NeumannLaplacian(g)
    oracle = lil_lap1d_csr(*counts) if g.dim == 1 else kron_lap2d_csr(*counts)
    rng = np.random.default_rng(g.num_nodes)
    shape = (g.num_nodes, 7)
    for v in (rng.standard_normal(shape), rng.uniform(0.0, 1.0, shape),
              np.where(rng.random(shape) < 0.5, 0.0, -0.0)):
        for rows in (v.T[:1], v.T, np.ascontiguousarray(v.T)):
            got, expect = lap.apply(rows), (oracle @ rows.T).T
            assert got.shape == expect.shape and got.flags.c_contiguous
            assert got.tobytes() == expect.tobytes()


@pytest.mark.parametrize("n", [3, 4, 33])
@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_1d_stack_product_keeps_a_nonfinite_row_to_itself(n, bad):
    # the outputs whose stencil window spans a row join are overwritten by
    # the mirror rows, so a non-finite entry anywhere in one row, its ends
    # included, leaves every other row's bytes as they were
    lap = NeumannLaplacian(Grid((n,)))
    rows = np.random.default_rng(n).standard_normal((7, n))
    clean = lap.apply(rows)
    for col in sorted({0, 1, n // 2, n - 2, n - 1}):
        dirty = rows.copy()
        dirty[3, col] = bad
        with np.errstate(invalid="ignore"):
            got = lap.apply(dirty)
        keep = np.arange(7) != 3
        assert got[keep].tobytes() == clean[keep].tobytes()
        assert not np.isfinite(got[3]).all()


def test_1d_product_matches_the_csr_oracle_on_special_values():
    # every five-node row over nine special values (9^5 rows, one stack):
    # the bytes of every entry that is not NaN are the oracle's, and NaN
    # falls where the oracle's does; where two NaNs meet in a sum, which
    # one survives (its sign bit) is the build's choice
    vals = [0.0, -0.0, 1.0, -1.0, np.inf, -np.inf, np.nan, 1e308, -1e-320]
    rows = np.array(list(itertools.product(vals, repeat=5)))
    with np.errstate(all="ignore"):
        got = NeumannLaplacian(Grid((5,))).apply(rows)
        expect = (lil_lap1d_csr(5) @ rows.T).T
    nan = np.isnan(expect)
    assert np.array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == expect[~nan].tobytes()


@pytest.mark.parametrize("n", [3, 4, 1000])
def test_shifted_solve_1d_bytes_match_solve_banded_oracle(n):
    g = Grid((n,))
    rng = np.random.default_rng(n)
    lap = NeumannLaplacian(g)
    for mu in (1.0, 0.01):
        diag = rng.uniform(-1.0, 1.0, n)
        rhs = rng.standard_normal(n)
        got, errors = lap.shifted_factor(mu, diag[None]).solve(rhs[None])
        assert errors == [None]
        assert got[0].tobytes() == banded_shifted_solve(g, mu, diag, rhs).tobytes()


def test_shifted_solve_1d_keeps_no_state():
    # gtsv overwrites the diagonals it is given: a factor solved twice and a
    # Laplacian that alternates mu must still match the oracle's bytes
    g = Grid((200,))
    rng = np.random.default_rng(11)
    lap = NeumannLaplacian(g)
    diag, rhs = rng.uniform(-1.0, 1.0, g.num_nodes), rng.standard_normal(g.num_nodes)
    inputs = diag.tobytes() + rhs.tobytes()
    fac = lap.shifted_factor(0.3, diag[None])
    expect = banded_shifted_solve(g, 0.3, diag, rhs).tobytes()
    for _ in range(2):
        got, errors = fac.solve(rhs[None])
        assert errors == [None] and got[0].tobytes() == expect
    for mu in (0.3, 0.002, 0.3):
        got, err = solve_one(lap, mu, diag, rhs)
        assert err is None
        assert got.tobytes() == banded_shifted_solve(g, mu, diag, rhs).tobytes()
    assert diag.tobytes() + rhs.tobytes() == inputs


@pytest.mark.parametrize("diag, rhs", [
    ([1.0, np.nan, 1.0], [1.0, 1.0, 1.0]),
    ([1.0, 1.0, 1.0], [1.0, np.inf, 1.0]),
    ([1.0, np.inf, 1.0], [1.0, 1.0, 1.0]),
])
def test_shifted_solve_1d_nonfinite_raises_linalg_error(monkeypatch, diag, rhs):
    # rejected up front in both dimensions, the row failing with the same
    # message; no CG pass runs in 2D
    passes = _cg_passes(monkeypatch)
    for counts in ((3,), (3, 3)):
        reps = Grid(counts).num_nodes // 3
        x, err = solve_one(NeumannLaplacian(Grid(counts)), 0.25,
                           np.tile(diag, reps), np.tile(rhs, reps))
        assert_row_failed(x, err, "non-finite diagonal or rhs")
    assert passes == []


def test_shifted_solve_1d_nonfinite_solution_raises_on_its_row_alone():
    # a nearly singular matrix can overflow x from finite d and rhs: the
    # row fails, alone on its own and alone in a stack
    lap, mu = NeumannLaplacian(Grid((5,))), 1.0
    diag = np.array([np.full(5, 1e-12), np.linspace(0.5, 2.0, 5)])
    rhs = np.array([np.full(5, 1e300), np.ones(5)])
    assert_row_failed(*solve_one(lap, mu, diag[0], rhs[0]), "non-finite solution")
    x, errors = lap.solve_shifted(mu, diag, rhs)
    assert errors == ["shifted solve: non-finite solution", None]
    assert np.isnan(x[0]).all()
    alone, err = solve_one(lap, mu, diag[1], rhs[1])
    assert err is None and x[1].tobytes() == alone.tobytes()


def test_finite_entries_whose_squares_overflow_pass_the_finite_checks():
    # the finiteness checks read one dot product per array; a dot that
    # overflows on finite entries falls back to the exact test
    big = np.array([1e200, -3e200, 2e200, 1e200, -1e200, 5e199, 1e200, 2e200, -1e200])
    grids_mod._require_finite(big, big[::-1].copy())
    for counts in ((9,), (3, 3)):
        lap = NeumannLaplacian(Grid(counts))
        x, err = solve_one(lap, 0.25, np.ones(9), big)
        assert err is None and np.isfinite(x).all() and np.max(np.abs(x)) > 1e199


def test_shifted_solve_1d_singular_raises_linalg_error():
    # zero shift: constants span the kernel of the Neumann Laplacian
    x, err = solve_one(NeumannLaplacian(Grid((3,))), 0.25, np.zeros(3), np.ones(3))
    assert_row_failed(x, err, "singular matrix")


def _gtsv_row(g, mu, diag, rhs):
    """One LAPACK gtsv call on one row's shifted system, built here."""
    (n,), (h,) = g.counts, g.spacings
    inv = mu / (h * h)
    dl, du = np.full(n - 1, -inv), np.full(n - 1, -inv)
    dl[-1] = du[0] = -2.0 * inv
    gtsv = get_lapack_funcs("gtsv", dtype=np.float64)
    x, info = gtsv(dl, 2.0 * inv + diag, du, rhs)[3:]
    return x, info


@pytest.mark.parametrize("n, mu", [(9, 1.0 / 64.0), (1000, 0.01)])
def test_stacked_1d_solve_is_per_row_gtsv_bit_for_bit(n, mu):
    # one gtsv call on the block-diagonal stack: the zero couplings at the
    # joins leave each row's elimination exactly its own
    g = Grid((n,))
    rng = np.random.default_rng(n)
    diag = rng.uniform(-1.0, 1.0, (5, n))
    diag[1] = rng.uniform(0.5, 2.0, n)
    rhs = rng.standard_normal((5, n))
    x, errors = NeumannLaplacian(g).solve_shifted(mu, diag, rhs)
    assert errors == [None] * 5 and x.shape == (5, n) and x.flags.c_contiguous
    for i in range(5):
        expect, info = _gtsv_row(g, mu, diag[i], rhs[i])
        assert info == 0 and x[i].tobytes() == expect.tobytes()
    one, errors = NeumannLaplacian(g).solve_shifted(mu, diag[:1], rhs[:1])
    assert errors == [None] and one.tobytes() == x[0].tobytes()


@pytest.mark.parametrize("n", [3, 4, 1000])
@pytest.mark.parametrize("rows", [1, 3])
def test_stacked_1d_solve_matches_flat_solves_bit_for_bit(n, rows):
    # the stack's off-diagonals are built with strided assignments, one
    # mirror coupling per block end and one zero join; at n = 3 a block's
    # dl has n - 1 = 2 entries, so the two mirror couplings are adjacent
    g = Grid((n,))
    lap = NeumannLaplacian(g)
    rng = np.random.default_rng(100 + n)
    for mu in (1.0, 0.01):
        diag = rng.uniform(-1.0, 1.0, (rows, n))
        rhs = rng.standard_normal((rows, n))
        x, errors = lap.solve_shifted(mu, diag, rhs)
        assert errors == [None] * rows and x.shape == (rows, n)
        for i in range(rows):
            flat, err = solve_one(lap, mu, diag[i], rhs[i])
            assert err is None and x[i].tobytes() == flat.tobytes()
            assert flat.tobytes() == _gtsv_row(g, mu, diag[i], rhs[i])[0].tobytes()


@pytest.mark.parametrize("counts", [(40,), (9, 7), (60, 60)])
@pytest.mark.parametrize("rows", [1, 2, 5])
def test_stacked_apply_is_per_row_apply_bit_for_bit(counts, rows):
    # 1D makes one correlation over the stack, 2D one product per row;
    # either way every row is the product of that row alone
    g = Grid(counts)
    lap = NeumannLaplacian(g)
    v = np.random.default_rng(rows).standard_normal((rows, g.num_nodes))
    out = lap.apply(v)
    assert out.shape == v.shape and out.flags.c_contiguous and out.flags.writeable
    for i in range(rows):
        assert out[i].tobytes() == apply_one(lap, v[i]).tobytes()


def _nan_preconditioner(monkeypatch, target, call):
    """Patch _Cg2D to put a NaN into the preconditioner's result on the
    given call (1-based) of every CG pass whose row d is the array target.
    Each pass of _cg starts a new count and marks whether its row is the
    target; a row's solve makes one pass."""
    real_cg, real_precondition = grids_mod._Cg2D._cg, grids_mod._Cg2D._precondition
    state = {"hit": False, "calls": 0}

    def cg(self, diag, *args):
        state.update(hit=diag.tobytes() == target.tobytes(), calls=0)
        return real_cg(self, diag, *args)

    def precondition(self, inv_eig, wr, out):
        real_precondition(self, inv_eig, wr, out)
        if state["hit"]:
            state["calls"] += 1
            if state["calls"] == call:
                out[len(out) // 2] = np.nan

    monkeypatch.setattr(grids_mod._Cg2D, "_cg", cg)
    monkeypatch.setattr(grids_mod._Cg2D, "_precondition", precondition)


@pytest.mark.parametrize("call", [1, 3])
def test_shifted_solve_2d_nan_in_cg_raises_on_its_row_alone(monkeypatch, call):
    # a NaN born inside the CG loop must not come back as a solution: the
    # row fails on its own, and in a stack the failure is that row's alone
    # while the other rows keep their bytes
    g, mu = Grid((9, 7)), 0.1
    lap = NeumannLaplacian(g)
    rng = np.random.default_rng(7)
    diag = rng.uniform(0.5, 2.0, (3, g.num_nodes))
    rhs = rng.standard_normal((3, g.num_nodes))
    clean = [solve_one(lap, mu, diag[i], rhs[i]) for i in range(3)]
    assert [err for _, err in clean] == [None] * 3
    _nan_preconditioner(monkeypatch, diag[1], call)
    assert_row_failed(*solve_one(lap, mu, diag[1], rhs[1]), "")
    x, errors = lap.solve_shifted(mu, diag, rhs)
    assert errors[0] is None and errors[2] is None and errors[1]
    assert np.isnan(x[1]).all()
    for i in (0, 2):
        assert x[i].tobytes() == clean[i][0].tobytes()


def test_shifted_solve_2d_true_residual_gate_catches_nan(monkeypatch):
    # the CG stopping test reads sup norms through idamax, which need not
    # see a NaN; the gate on the true residual of the returned x must
    real_cg = grids_mod._Cg2D._cg

    def nan_cg(self, *args):
        x = real_cg(self, *args)
        x[-1] = np.nan
        return x

    monkeypatch.setattr(grids_mod._Cg2D, "_cg", nan_cg)
    g = Grid((9, 7))
    rng = np.random.default_rng(8)
    diag, rhs = rng.uniform(0.5, 2.0, g.num_nodes), rng.standard_normal(g.num_nodes)
    x, err = solve_one(NeumannLaplacian(g), 0.1, diag, rhs)
    assert_row_failed(x, err, "relative residual nan")


def test_stacked_1d_solve_fails_row_by_row():
    # a non-finite d (row 1) and an exactly singular matrix (row 3: zero
    # shift, constants in the kernel) each fail alone, with the message of a
    # one-row solve; every other row keeps its gtsv bytes
    g, mu = Grid((9,)), 1.0 / 64.0        # h = 1/8, so mu / h^2 = 1: exact
    lap = NeumannLaplacian(g)
    rng = np.random.default_rng(5)
    diag = rng.uniform(0.5, 2.0, (5, 9))
    diag[1, 4] = np.nan
    diag[3] = 0.0
    rhs = rng.standard_normal((5, 9))
    x, errors = lap.solve_shifted(mu, diag, rhs)
    assert errors == [
        None, "shifted solve: non-finite diagonal or rhs", None, "singular matrix", None]
    assert np.isnan(x[[1, 3]]).all()
    for i in (0, 2, 4):
        expect, info = _gtsv_row(g, mu, diag[i], rhs[i])
        assert info == 0 and x[i].tobytes() == expect.tobytes()
    assert _gtsv_row(g, mu, diag[3], rhs[3])[1] > 0
    # a stack in which every row is exactly singular fails on every row
    x, errors = lap.solve_shifted(mu, np.zeros((3, 9)), rhs[:3])
    assert errors == ["singular matrix"] * 3
    assert x.shape == (3, 9) and np.isnan(x).all()


def test_stacked_2d_solve_fails_row_by_row():
    # 2D rows run one CG solve each with their own d and tolerance
    g = Grid((9, 7))
    lap = NeumannLaplacian(g)
    rng = np.random.default_rng(6)
    diag = rng.uniform(0.5, 2.0, (3, g.num_nodes))
    diag[1, 0] = np.inf
    rhs = rng.standard_normal((3, g.num_nodes))
    x, errors = lap.solve_shifted(0.1, diag, rhs, rtol=[1e-3, 1e-3, 1e-6])
    assert errors == [None, "shifted solve: non-finite diagonal or rhs", None]
    assert np.isnan(x[1]).all()
    for i, rtol in ((0, 1e-3), (2, 1e-6)):
        alone, err = solve_one(lap, 0.1, diag[i], rhs[i], rtol)
        assert err is None and x[i].tobytes() == alone.tobytes()
    # a stack with an inf in every row's d fails on every row
    diag[:, 0] = np.inf
    x, errors = lap.solve_shifted(0.1, diag, rhs)
    assert errors == ["shifted solve: non-finite diagonal or rhs"] * 3
    assert x.shape == (3, g.num_nodes) and np.isnan(x).all()


def test_refined_counts():
    assert Grid((129,)).refined(3).counts == (1025,)
    assert Grid((7, 9)).refined(1).counts == (13, 17)
    assert Grid((5,)).refined(0).counts == (5,)


def test_periodise_identity_k0():
    g = Grid((9,))
    v = np.arange(9.0)
    out = refine_fold_values(v, g, 0)
    assert np.array_equal(out, v)
    assert out is not v


def test_periodise_crenel_reflection():
    # block on x < 0.3 folds to blocks at both ends (reflection at x=1)
    g = Grid((9,))
    v = (g.axis_coords(0) < 0.3).astype(float)
    out = refine_fold_values(v, g, 1)
    assert np.array_equal(out, [1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1])


def test_periodise_2d_axiswise():
    # x and y fold independently, each on its own node count; means stay exact
    g = Grid((5, 3))
    x, y = np.meshgrid(g.axis_coords(0), g.axis_coords(1))
    square = x + 10.0 * y
    fine = g.refined(1)
    out = refine_fold_values(square.ravel(), g, 1)
    assert out.shape == (fine.num_nodes,)
    got = out.reshape(fine.counts[1], fine.counts[0])
    for j in range(fine.counts[1]):
        for i in range(fine.counts[0]):
            assert got[j, i] == square[_reference_fold(j, 2), _reference_fold(i, 4)]
    mean_in = float(g.node_weights @ square.ravel()) / float(g.node_weights.sum())
    mean_out = float(fine.node_weights @ out) / float(fine.node_weights.sum())
    assert abs(mean_out - mean_in) <= 1e-13 * abs(mean_in)


def _reference_fold(i, m):
    r = i % (2 * m)
    return min(r, 2 * m - r)


@given(n=st.integers(3, 40), k=st.integers(0, 4))
@settings(max_examples=60, deadline=None)
def test_refine_fold_index_pattern(n, k):
    g = Grid((n,))
    v = np.random.default_rng(n * 31 + k).standard_normal(n)
    out = refine_fold_values(v, g, k)
    m = n - 1
    assert out.shape == ((1 << k) * m + 1,)
    for i in range(out.size):
        assert out[i] == v[_reference_fold(i, m)]


@given(n=st.integers(3, 30), k=st.integers(1, 3))
@settings(max_examples=60, deadline=None)
def test_refine_fold_preserves_trapezoid_mean(n, k):
    # each input edge is traversed exactly 2^k times per period, so the
    # weighted mean is exact, not just O(h) close
    g = Grid((n,))
    v = np.random.default_rng(n * 101 + k).uniform(-1.0, 2.0, n)
    fine = g.refined(k)
    out = refine_fold_values(v, g, k)
    mean_in = float(g.node_weights @ v) / float(g.node_weights.sum())
    mean_out = float(fine.node_weights @ out) / float(fine.node_weights.sum())
    assert abs(mean_out - mean_in) <= 1e-13 * max(1.0, abs(mean_in))


def test_refine_fold_rejects_negative_level():
    with pytest.raises(ValueError):
        refine_fold_values(np.zeros(5), Grid((5,)), -1)
