"""Experiment campaigns: the dyadic rescaling identity, the uniform
lower-bound sweep, the fragmentation sweep, and the efficiency ratio.

The rescaling identity: squeezing a resource field dyadically (x -> 2^k x
with even-periodic extension) while dividing the diffusivity by 4^k leaves
the attainable population mean unchanged. On nested grids this is exact at
the discrete level, provided the squeezed problem is solved on the
2^k-refined grid: the refined stencil folds node-for-node onto the base one
and the weighted mean is fold-invariant. The experiments below exploit that
exactness; deviations are solver-tolerance sized, far below the 1e-8 gate.

Both identity experiments solve one row of problems per refinement level
k. The uniform-bound sweep solves its mu samples along each row as a
continuation: every solve after the row's first starts from the row's own
earlier steady states, which roughly halves its Newton steps. The first
solve of every row is cold, and so is every solve of the periodisation
check (one mu per row): a row started from a folded state of another row
would satisfy the squeeze identity by construction, not by computation.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, replace as dc_replace

import numpy as np

from .fields import (
    ProblemParams,
    ResourceField,
    bv_seminorm,
    jump_count,
    near_bangbang_fraction,
)
from .grids import Grid, refine_fold_values
from .optimizer import OptimConfig, OptimizationError, optimize
from .solver import SolverConfig, solve_steady_state, total_population

IDENTITY_TOL = 1e-8
RESOLUTION_FACTOR = 10.0
IDENTITY_SOLVER = SolverConfig(newton_tol=1e-12)   # the two identity checks
LEMMA2_SAMPLES = 16      # log-spaced mu samples per dyadic level


class ResolutionError(ValueError):
    """Grid too coarse for the smallest requested diffusivity."""


@dataclass(frozen=True)
class PeriodisationRow:
    k: int
    mu_k: float
    F_k: float
    deviation: float


@dataclass(frozen=True)
class LemmaBoundRow:
    k: int
    min_gap: float          # min over the mu samples of F(m_k, mu/4^k) - m0
    bound_ok: bool          # min_gap >= eta_hat - IDENTITY_TOL


@dataclass(frozen=True)
class SweepRecord:
    mu: float
    wall_time: float
    best_F: float | None = None
    bv: float | None = None
    jumps: int | None = None
    bangbang_frac: float | None = None
    best_m: ResourceField | None = None
    termination: str | None = None
    error: str | None = None


@dataclass(frozen=True)
class SweepReport:
    records: list            # SweepRecord, in mu_list order (decreasing mu)
    bv_monotone: bool
    warnings: list


def _squeezed_F(
    m: ResourceField, params: ProblemParams, mus, k_max: int
) -> list[list[float]]:
    """F of the k-th dyadic squeeze of m at each mu / 4^k, for k = 0..k_max
    (one row per k). The k-th problem is solved on the 2^k-refined grid,
    where the squeeze is an exact index fold of the base problem; all mus
    of one k share that grid's Laplacian and folded resource.

    Each row is one natural-parameter continuation over mus, in order: the
    first solve starts cold, the second from the first state, every later
    one from the secant prediction 2 theta_{j-1} - theta_{j-2}, which
    assumes equal steps in log mu (Allgower and Georg, Introduction to
    Numerical Continuation Methods). No row starts from another row's state.
    """
    if k_max < 0:
        raise ValueError("k_max must be nonnegative")
    table = []
    for k in range(k_max + 1):
        grid = m.grid.refined(k)
        m_k = ResourceField(grid, refine_fold_values(m.values, m.grid, k),
                            params.kappa, params.m0)
        row, prev, theta = [], None, None
        for mu in mus:
            guess = theta if prev is None else 2.0 * theta - prev
            state = solve_steady_state(m_k, dc_replace(params, mu=mu / 4.0**k),
                                       IDENTITY_SOLVER, theta0=guess)
            prev, theta = theta, state.theta.values
            row.append(total_population(state))
        table.append(row)
    return table


def periodisation_check(
    m: ResourceField, params: ProblemParams, k_max: int
) -> list[PeriodisationRow]:
    """Table of (k, mu/4^k, F of the squeezed problem, |F_k - F_0|) for
    k = 0..k_max.
    """
    F = [row[0] for row in _squeezed_F(m, params, [params.mu], k_max)]
    return [
        PeriodisationRow(k=k, mu_k=params.mu / 4.0**k, F_k=F_k, deviation=abs(F_k - F[0]))
        for k, F_k in enumerate(F)
    ]


def lemma2_bound_sweep(
    m: ResourceField,
    params: ProblemParams,
    underline_mu: float,
    k_max: int,
) -> tuple[float, list[LemmaBoundRow]]:
    """Empirical uniform lower bound for the squeezed family.

    Estimates eta_hat as the minimum of F(m, mu) - m0 over LEMMA2_SAMPLES
    log-spaced mu in [underline_mu, 4 underline_mu], then verifies that the
    whole dyadic family k <= k_max stays above m0 + eta_hat - 1e-8 on the
    rescaled intervals. Constant m gives eta_hat = 0 exactly; any
    nonconstant admissible m gives eta_hat > 0. underline_mu sets the
    window; params.mu is not read.

    The samples of each k are solved in increasing mu as a continuation:
    the first cold, the second from the first steady state, each later one
    from the secant prediction through the two before it (the samples are
    equally spaced in log mu). Every row starts cold and continues only
    from its own states, so each min_gap is computed independently of
    eta_hat and the bound is not satisfied by construction.
    """
    if underline_mu <= 0:
        raise ValueError("underline_mu must be positive")
    mus = np.geomspace(underline_mu, 4.0 * underline_mu, LEMMA2_SAMPLES)
    gaps = [float(min(F - params.m0 for F in row))
            for row in _squeezed_F(m, params, mus, k_max)]
    eta_hat = gaps[0]
    rows = [LemmaBoundRow(k=k, min_gap=gap, bound_ok=gap >= eta_hat - IDENTITY_TOL)
            for k, gap in enumerate(gaps)]
    return eta_hat, rows


def check_resolution(grid: Grid, min_mu: float) -> bool:
    """Layer-resolving rule: at least 10/sqrt(mu) nodes per axis."""
    need = RESOLUTION_FACTOR / np.sqrt(min_mu)
    return all(n >= need for n in grid.counts)


def fragmentation_sweep(
    params: ProblemParams,
    grid: Grid,
    mu_list,
    optim_cfg: OptimConfig | None = None,
    allow_underresolved: bool = False,
) -> SweepReport:
    """Optimize the resource layout at each diffusivity of a decreasing list
    and record fragmentation metrics of the winners.

    The headline effect: the total variation of the best layout grows as the
    diffusivity shrinks (many small blocks), while large diffusivities favor
    a single boundary block. bv_monotone reports whether the recorded BV
    sequence increases along the sweep, tolerating one relative dip of at
    most 5% (multi-start ascent is a heuristic, not a certificate).
    """
    mu_list = [float(mu) for mu in mu_list]
    if not mu_list:
        raise ValueError("mu_list must not be empty")
    if any(b >= a for a, b in zip(mu_list, mu_list[1:])):
        raise ValueError("mu_list must be strictly decreasing")
    warnings: list[str] = []
    if not check_resolution(grid, min(mu_list)):
        msg = (
            f"grid {grid.counts} under-resolves mu={min(mu_list)}: need "
            f">= {RESOLUTION_FACTOR / np.sqrt(min(mu_list)):.0f} nodes per axis"
        )
        if not allow_underresolved:
            raise ResolutionError(msg)
        warnings.append(msg)
    cfg = optim_cfg or OptimConfig()
    records: list[SweepRecord] = []
    for mu in mu_list:
        t0 = time.perf_counter()
        try:
            run = optimize(dc_replace(params, mu=mu), grid, cfg)
        except OptimizationError as exc:
            records.append(SweepRecord(mu=mu, wall_time=time.perf_counter() - t0,
                                       error=str(exc)))
            continue
        best_m = run.best_m
        records.append(
            SweepRecord(
                mu=mu,
                best_F=run.best_F,
                bv=bv_seminorm(best_m),
                jumps=jump_count(best_m, params.kappa / 2.0) if grid.dim == 1 else None,
                bangbang_frac=near_bangbang_fraction(best_m, params.kappa),
                best_m=best_m,
                wall_time=time.perf_counter() - t0,
                termination=run.termination,
            )
        )
    bvs = [r.bv for r in records if r.bv is not None]
    dips = sum(
        1 for a, b in zip(bvs, bvs[1:]) if not (b > a) and not (b >= 0.95 * a)
    )
    soft = sum(1 for a, b in zip(bvs, bvs[1:]) if not (b > a))
    bv_monotone = dips == 0 and soft <= 1
    return SweepReport(records=records, bv_monotone=bv_monotone, warnings=warnings)


def efficiency_ratio(m: ResourceField, mu_list) -> float:
    """Best population-per-resource ratio max_mu F(m, mu) / m0 over the
    sampled diffusivity grid (a lower bound for the supremum over all mu).
    Equals 1 exactly for constant m; theory caps it below 3 in 1D.
    """
    mu_list = [float(mu) for mu in mu_list]
    if not mu_list:
        raise ValueError("mu_list must not be empty")
    best = -np.inf
    for mu in mu_list:
        params = ProblemParams(mu=mu, kappa=m.kappa, m0=m.m0)
        F = total_population(solve_steady_state(m, params))
        best = max(best, F / m.m0)
    return float(best)


DEFAULT_EFFICIENCY_MUS = tuple(float(x) for x in np.geomspace(1e-2, 1e2, 13))
