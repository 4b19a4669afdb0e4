"""Correctness checks the benchmark applies to the program's outputs.

Everything here is independent of the package: the residual uses its own
mirrored-ghost stencil and the admissibility check its own trapezoid
weights, so a defect in the package's operators cannot hide itself.
Each check returns None when it passes and a one-line reason otherwise.
"""
from __future__ import annotations

import numpy as np

EPS = float(np.finfo(float).eps)
RESIDUAL_TOL = 1e-11
MEAN_TOL = 1e-10
IDENTITY_TOL = 1e-8
PIN_TOL = 1e-10


def _second_difference(u: np.ndarray, axis: int) -> np.ndarray:
    """(u[i-1] - 2u[i] + u[i+1]) * (N-1)^2 along one axis, with the mirror
    ghosts u[-1] = u[1] and u[N] = u[N-2] (zero flux)."""
    n = u.shape[axis]
    padded = np.take(u, np.r_[1, np.arange(n), n - 2], axis=axis)
    lo = np.take(padded, np.arange(0, n), axis=axis)
    hi = np.take(padded, np.arange(2, n + 2), axis=axis)
    return (lo - 2.0 * u + hi) * float(n - 1) ** 2


def laplacian(values: np.ndarray, counts: tuple) -> np.ndarray:
    """Neumann Laplacian of flat nodal values (x fastest in 2D)."""
    u = np.asarray(values, dtype=float).reshape(tuple(reversed(counts)))
    lap = sum(_second_difference(u, axis) for axis in range(u.ndim))
    return lap.ravel()


def trapezoid_mean(values: np.ndarray, counts: tuple) -> float:
    w = np.ones(())
    for n in reversed(counts):
        axis_w = np.ones(n)
        axis_w[[0, -1]] = 0.5
        w = np.multiply.outer(w, axis_w)
    w = w.ravel()
    return float(w @ np.asarray(values, dtype=float)) / float(w.sum())


def residual_floor(counts: tuple, mu: float, theta: np.ndarray) -> float:
    """Double-precision evaluation floor of the stiff term mu * Lap(theta),
    the same formula the solver accepts a converged iterate at."""
    h = 1.0 / (min(counts) - 1)
    return 8.0 * EPS * (1.0 + 4.0 * len(counts) * mu / (h * h)) * float(
        np.max(np.abs(theta))
    )


def check_residual(theta, m, counts: tuple, mu: float) -> str | None:
    theta = np.asarray(theta, dtype=float)
    m = np.asarray(m, dtype=float)
    r = mu * laplacian(theta, counts) + theta * (m - theta)
    rnorm = float(np.max(np.abs(r)))
    limit = max(RESIDUAL_TOL, residual_floor(counts, mu, theta))
    if not rnorm <= limit:
        return f"steady-state residual {rnorm:.3e} above {limit:.3e} (mu={mu:g})"
    return None


def check_population(F: float, m0: float) -> str | None:
    """The positive steady state has mean at least m0 (equality only for
    constant m); a solve that lands on the trivial state theta ~ 0 has a
    tiny residual but fails this."""
    if not F >= m0 - MEAN_TOL:
        return f"population F={F!r} below the resource mean m0={m0}"
    return None


def check_admissible(m, counts: tuple, kappa: float, m0: float) -> str | None:
    m = np.asarray(m, dtype=float)
    lo, hi = float(np.min(m)), float(np.max(m))
    if not (lo >= 0.0 and hi <= kappa):
        return f"layout outside [0, {kappa}]: min={lo!r} max={hi!r}"
    dev = abs(trapezoid_mean(m, counts) - m0)
    if not dev <= MEAN_TOL:
        return f"layout mean off m0={m0} by {dev:.3e}"
    return None


def check_close(name: str, got: float, want: float, tol: float) -> str | None:
    if not abs(got - want) <= tol:
        return f"{name} = {got!r}, expected {want!r} within {tol:g}"
    return None
