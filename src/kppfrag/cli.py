"""Command-line front end.

    kppfrag <command> [--config FILE] [--preset NAME] [--mu MU[,MU...]]
            [--m0 M0] [--kappa K] [--grid N[xM]] [--seed S] [--starts K]
            [--k-max K] [--out DIR] [--plot] [--allow-underresolved]

Commands: solve, optimize, sweep, periodise-check, lemma2, efficiency.
Flags may come before or after the command. Commands that need a concrete
resource layout (solve, periodise-check, lemma2, efficiency) act on the
canonical left-packed block layout for the given (kappa, m0, grid);
optimize and sweep search over layouts.

All commands share one path: one parser reads argv, `resolve_config`
merges the settings and `parse_config` validates them; `_execute` computes
a command's stdout lines, report body, field CSVs, plots and summary rows;
`main` times that call, prints the lines and, given --out, makes the one
`persist_results` call, adding `command` and `wall_time` to report.json.
That call is the one place that writes files: field_to_csv and emit_plot
return text, and persist_results writes every run file as UTF-8 with "\n"
line ends and puts the sha256 of the bytes written into the manifest.

Settings merge in increasing precedence: built-in defaults, --preset,
--config JSON file, explicit flags. Unknown keys in a config file are
rejected, and a sweep's mu ladder must strictly decrease. Only sweep and
efficiency take a list of diffusivities; the other commands reject more
than one mu. Without a mu setting, efficiency evaluates the 13 log-spaced
diffusivities of DEFAULT_EFFICIENCY_MUS; every other command defaults to
mu = 1. A run's finest grid (the grid refined k_max times for
periodise-check and lemma2, the grid itself otherwise) may hold at most
MAX_NODES = 2^24 nodes. Exit codes:
0 success, 2 configuration error (any malformed invocation included: an
unknown command or flag, a value that is not a number, a grid over
MAX_NODES), 3 solver or optimization failure (out of memory and a dead
worker process included), 4 IO failure while persisting. A failing
command writes one line to stderr; numpy's floating-point warnings are
silenced, since the solver checks its own results for non-finite values.
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import json
import math
import os
import sys
import time
from concurrent.futures import BrokenExecutor
from dataclasses import dataclass

import numpy as np

from .experiments import (
    DEFAULT_EFFICIENCY_MUS,
    ResolutionError,
    efficiency_ratio,
    fragmentation_sweep,
    lemma2_bound_sweep,
    periodisation_check,
)
from .fields import ProblemParams, field_to_csv, make_crenel
from .grids import Grid
from .optimizer import OptimConfig, OptimizationError, optimize, pool_size
from .plots import emit_plot
from .solver import SolverError, solve_steady_state, total_population

COMMANDS = ("solve", "optimize", "sweep", "periodise-check", "lemma2", "efficiency")
MU_LIST_COMMANDS = ("sweep", "efficiency")     # the others take a single mu
REFINING_COMMANDS = ("periodise-check", "lemma2")  # solve on grid refined k_max times
MAX_NODES = 1 << 24     # finest-grid cap: a float64 field there is 128 MiB


class ConfigError(ValueError):
    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field


@dataclass(frozen=True)
class RunConfig:
    command: str
    grid: tuple = (257,)
    mu: tuple = (1.0,)
    kappa: float = 1.0
    m0: float = 0.3
    seed: int = 0
    starts: int = 20
    max_outer_iters: int = 500
    k_max: int = 3
    out: str | None = None
    plot: bool = False
    allow_underresolved: bool = False


PRESETS = {
    "paper-1d-m03": {"grid": [1000], "kappa": 1.0, "m0": 0.3,
                     "mu": [1.0, 0.1, 0.01, 0.001]},
    "paper-1d-m06": {"grid": [1000], "kappa": 1.0, "m0": 0.6,
                     "mu": [1.0, 0.1, 0.01, 0.001]},
    "paper-2d-m03": {"grid": [60, 60], "kappa": 1.0, "m0": 0.3,
                     "mu": [0.1, 0.01], "allow_underresolved": True},
    "paper-2d-m06": {"grid": [60, 60], "kappa": 1.0, "m0": 0.6,
                     "mu": [0.1, 0.01], "allow_underresolved": True},
}

_SETTING_KEYS = tuple(
    f.name for f in dataclasses.fields(RunConfig) if f.name != "command"
)
_INT_MINIMA = {"seed": 0, "starts": 1, "max_outer_iters": 1, "k_max": 0}


def _as_int(field: str, value) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConfigError(field, f"expected an integer, got {value!r}")
    return int(value)


def _as_float(field: str, value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float, np.floating)):
        raise ConfigError(field, f"expected a number, got {value!r}")
    value = float(value)
    if not math.isfinite(value):
        raise ConfigError(field, "must be finite")
    return value


def parse_config(data: dict, command: str) -> RunConfig:
    """Build a validated RunConfig from a plain settings mapping.

    Unknown keys, per-field type or range violations and a finest grid of
    more than MAX_NODES nodes raise ConfigError naming the offending field.
    """
    if command not in COMMANDS:
        raise ConfigError("command", f"unknown command {command!r}")
    for key in data:
        if key not in _SETTING_KEYS:
            raise ConfigError(key, "unknown setting")
    merged = {key: getattr(RunConfig, key) for key in _SETTING_KEYS}
    if command == "efficiency":
        merged["mu"] = DEFAULT_EFFICIENCY_MUS
    merged.update(data)

    grid = merged["grid"]
    if isinstance(grid, (int, np.integer)):
        grid = [grid]
    if not isinstance(grid, (list, tuple)) or not 1 <= len(grid) <= 2:
        raise ConfigError("grid", "expected 1 or 2 node counts")
    grid = merged["grid"] = tuple(_as_int("grid", n) for n in grid)
    if any(n < 3 for n in grid):
        raise ConfigError("grid", "need at least 3 nodes per axis")

    mu = merged["mu"]
    if isinstance(mu, (int, float, np.floating)):
        mu = [mu]
    if not isinstance(mu, (list, tuple)) or len(mu) == 0:
        raise ConfigError("mu", "expected a number or nonempty list")
    mu = merged["mu"] = tuple(_as_float("mu", v) for v in mu)
    if any(v <= 0 for v in mu):
        raise ConfigError("mu", "diffusivities must be positive")
    if command == "sweep" and any(b >= a for a, b in zip(mu, mu[1:])):
        raise ConfigError("mu", "a sweep needs a strictly decreasing ladder")
    if command not in MU_LIST_COMMANDS and len(mu) > 1:
        raise ConfigError("mu", f"{command} takes one diffusivity, got {len(mu)}")

    kappa = merged["kappa"] = _as_float("kappa", merged["kappa"])
    m0 = merged["m0"] = _as_float("m0", merged["m0"])
    if kappa <= 0:
        raise ConfigError("kappa", "must be positive")
    if not 0 < m0 < kappa:
        raise ConfigError("m0", f"must lie strictly between 0 and kappa={kappa}")

    for key, low in _INT_MINIMA.items():
        merged[key] = _as_int(key, merged[key])
        if merged[key] < low:
            raise ConfigError(key, f"must be at least {low}")
    for key in ("plot", "allow_underresolved"):
        if not isinstance(merged[key], bool):
            raise ConfigError(key, "expected true or false")
    out = merged["out"]
    if out is not None and not (isinstance(out, str) and out):
        raise ConfigError("out", "expected a nonempty directory path")

    # any grid refined more than log2(MAX_NODES) times is over the cap, so
    # clamping k there keeps the power of two small
    k = merged["k_max"] if command in REFINING_COMMANDS else 0
    if Grid(grid).refined(min(k, MAX_NODES.bit_length())).num_nodes > MAX_NODES:
        raise ConfigError("grid", f"{command} would build a grid of more than "
                          f"MAX_NODES = {MAX_NODES} nodes")
    return RunConfig(command=command, **merged)


def load_config_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError("config", f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError("config", f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config", "top level must be a JSON object")
    if "command" in data:
        raise ConfigError("command", "set the command on the command line")
    return data


def _jsonable(obj):
    """Recursively convert to JSON-encodable values; non-finite -> null."""
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        f = float(obj)
        return f if math.isfinite(f) else None
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def persist_results(out_dir: str, config: RunConfig, report: dict,
                    fields: dict | None = None, plots: dict | None = None,
                    summary_rows: list | None = None) -> str:
    """Write a run directory: report.json, field CSVs, SVG plots, an
    optional summary.csv, and manifest.json (written last; its presence
    marks a complete run).

    Every file is UTF-8 text with "\n" line ends. The manifest maps each
    deterministic file to the sha256 of the bytes written and lists
    timing-bearing files (report.json, summary.csv) under "volatile"
    without hashes, so same-seed reruns produce byte-identical manifests.
    Partially written files, and first any earlier run's manifest.json,
    are removed, so a directory whose persisting failed claims no run.
    """
    os.makedirs(out_dir, exist_ok=True)
    with contextlib.suppress(FileNotFoundError):
        os.remove(os.path.join(out_dir, "manifest.json"))
    written: list[str] = []
    hashed: dict[str, str] = {}

    def write(name: str, text: str, digest: bool = True) -> None:
        """Write text to out_dir/name, recording the name for cleanup and,
        with digest, the sha256 of the bytes for the manifest."""
        data = text.encode("utf-8")
        written.append(name)        # before the open: a partial file is removed too
        with open(os.path.join(out_dir, name), "wb") as fh:
            fh.write(data)
        if digest:
            hashed[name] = hashlib.sha256(data).hexdigest()

    try:
        write("report.json", json.dumps(_jsonable(report), indent=2, sort_keys=True) + "\n",
              digest=False)

        for name, field in (fields or {}).items():
            write(name, field_to_csv(field))

        for name, (m, theta) in (plots or {}).items():
            write(name, emit_plot(m, theta))

        if summary_rows is not None:
            cols = ("mu", "best_F", "bv", "jumps", "bangbang_frac", "seconds")
            lines = [",".join(cols)]
            for row in summary_rows:
                cells = []
                for c in cols:
                    v = row.get(c)
                    if v is None:
                        cells.append("")
                    elif isinstance(v, float):
                        cells.append(f"{v:.17g}")
                    else:
                        cells.append(str(v))
                lines.append(",".join(cells))
            write("summary.csv", "\n".join(lines) + "\n", digest=False)

        # the out path names this very directory; echoing it would make
        # manifests from identical runs into different directories differ
        config_echo = _jsonable(dataclasses.asdict(config))
        config_echo.pop("out", None)
        manifest = {
            "config": config_echo,
            "files": hashed,
            "volatile": sorted(set(written) - set(hashed)),
        }
        write("manifest.json", json.dumps(manifest, indent=2, sort_keys=True) + "\n",
              digest=False)
    except BaseException:
        for name in written:
            try:
                os.remove(os.path.join(out_dir, name))
            except OSError:
                pass
        raise
    return os.path.join(out_dir, "manifest.json")


@dataclass
class _Result:
    """What one command produced: stdout lines, the report body (main adds
    command and wall_time), field CSVs, plots (written with --plot), summary
    rows (sweeps only) and warnings for stderr."""

    lines: list
    report: dict
    fields: dict
    plots: dict = dataclasses.field(default_factory=dict)
    rows: list | None = None
    warnings: list = dataclasses.field(default_factory=list)


def _entry(record, skip: str) -> dict:
    """A report entry holding every field of a record dataclass but skip."""
    return {f.name: getattr(record, f.name)
            for f in dataclasses.fields(record) if f.name != skip}


def _execute(cfg: RunConfig) -> _Result:
    """Compute the result of cfg.command."""
    grid = Grid(cfg.grid)
    params = ProblemParams(mu=cfg.mu[0], kappa=cfg.kappa, m0=cfg.m0)
    optim = OptimConfig(starts=cfg.starts, seed=cfg.seed,
                        max_outer_iters=cfg.max_outer_iters)

    if cfg.command == "optimize":
        run = optimize(params, grid, optim)
        state = solve_steady_state(run.best_m, params)
        line = (f"optimize: mu={params.mu:g} best_F={run.best_F:.12g} "
                f"termination={run.termination} start={run.start_index} "
                f"starts={len(run.starts)}")
        report = {
            "mu": params.mu, "best_F": run.best_F,
            "termination": run.termination, "start_index": run.start_index,
            "seed": cfg.seed, "trajectory": [list(t) for t in run.trajectory],
            "starts": [{**_entry(s, "trajectory"), "iterations": s.iterations}
                       for s in run.starts],
        }
        return _Result([line], report,
                       {"best_m.csv": run.best_m, "theta.csv": state.theta},
                       {"optimize.svg": (run.best_m, state.theta)})

    if cfg.command == "sweep":
        sweep = fragmentation_sweep(params, grid, cfg.mu, optim,
                                    allow_underresolved=cfg.allow_underresolved)
        lines, fields, plots, records = [], {}, {}, []
        for i, rec in enumerate(sweep.records):
            if rec.error is not None:
                lines.append(f"mu={rec.mu:g} FAILED: {rec.error}")
            else:
                jumps = "-" if rec.jumps is None else str(rec.jumps)
                lines.append(f"mu={rec.mu:g} best_F={rec.best_F:.12g} bv={rec.bv:.6g} "
                             f"jumps={jumps} bangbang={rec.bangbang_frac:.3f} "
                             f"[{rec.wall_time:.1f}s]")
            if rec.best_m is not None:
                fields[f"best_m_{i:02d}.csv"] = rec.best_m
                plots[f"best_m_{i:02d}.svg"] = (rec.best_m, None)
            records.append(_entry(rec, "best_m"))
        lines.append(f"bv_monotone={sweep.bv_monotone}")
        report = {"bv_monotone": sweep.bv_monotone, "warnings": sweep.warnings,
                  "seed": cfg.seed, "records": records}
        rows = [{**r, "seconds": r["wall_time"]} for r in records]
        return _Result(lines, report, fields, plots, rows, sweep.warnings)

    m = make_crenel(grid, cfg.kappa, cfg.m0)
    if cfg.command == "solve":
        state = solve_steady_state(m, params)
        F = total_population(state)
        line = (f"solve: mu={params.mu:g} grid={'x'.join(map(str, cfg.grid))} "
                f"F={F:.12g} residual={state.residual_norm:.3e} "
                f"iterations={state.iterations} fallback={state.used_fallback}")
        report = {"mu": params.mu, "F": F, "residual_norm": state.residual_norm,
                  "iterations": state.iterations,
                  "used_fallback": state.used_fallback}
        return _Result([line], report, {"m.csv": m, "theta.csv": state.theta},
                       {"solve.svg": (m, state.theta)})

    if cfg.command == "periodise-check":
        table = periodisation_check(m, params, cfg.k_max)
        lines = [f"k={r.k} mu={r.mu_k:.6g} F={r.F_k:.12g} deviation={r.deviation:.3e}"
                 for r in table]
        report = {"max_deviation": max(r.deviation for r in table),
                  "rows": [dataclasses.asdict(r) for r in table]}
    elif cfg.command == "lemma2":
        eta, table = lemma2_bound_sweep(m, params, cfg.mu[0], cfg.k_max)
        lines = [f"eta_hat={eta:.12g}"] + [
            f"k={r.k} min_gap={r.min_gap:.12g} bound_ok={r.bound_ok}" for r in table]
        report = {"eta_hat": eta, "all_ok": all(r.bound_ok for r in table),
                  "rows": [dataclasses.asdict(r) for r in table]}
    else:
        ratio = efficiency_ratio(m, cfg.mu)
        lines = [f"efficiency: max F/m0 = {ratio:.12g} over {len(cfg.mu)} diffusivities"]
        report = {"ratio": ratio, "mu_list": list(cfg.mu)}
    return _Result(lines, report, {"m.csv": m})


def _parse_grid_flag(text: str):
    parts = text.lower().split("x")
    try:
        return [int(p) for p in parts]
    except ValueError:
        raise ConfigError("grid", f"expected N or NxM, got {text!r}") from None


def _parse_mu_flag(text: str):
    try:
        return [float(p) for p in text.split(",")]
    except ValueError:
        raise ConfigError("mu", f"expected a number or comma list, got {text!r}") from None


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError("arguments", message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="kppfrag",
        description="Steady-state logistic diffusion: solve, optimize "
                    "resource layouts, and run fragmentation experiments.",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", help="JSON settings file")
    parser.add_argument("--preset", choices=sorted(PRESETS))
    parser.add_argument("--mu", help="diffusivity, or comma list for sweeps")
    parser.add_argument("--m0", type=float, help="resource budget (mean of m)")
    parser.add_argument("--kappa", type=float, help="pointwise cap on m")
    parser.add_argument("--grid", help="nodes per axis: N or NxM")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--starts", type=int)
    parser.add_argument("--k-max", type=int, dest="k_max")
    parser.add_argument("--out", help="directory for report/CSV/manifest")
    parser.add_argument("--plot", action="store_true", default=None)
    parser.add_argument("--allow-underresolved", action="store_true",
                        default=None, dest="allow_underresolved")
    return parser


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Merge preset < config file < flags, then validate for args.command."""
    settings = dict(PRESETS[args.preset]) if args.preset else {}
    if args.config:
        settings.update(load_config_file(args.config))
    flags = {key: getattr(args, key, None) for key in _SETTING_KEYS}
    for key, parse in (("mu", _parse_mu_flag), ("grid", _parse_grid_flag)):
        if flags[key] is not None:
            flags[key] = parse(flags[key])
    settings.update((k, v) for k, v in flags.items() if v is not None)
    return parse_config(settings, args.command)


def _check_environment() -> None:
    try:
        pool_size()
    except ValueError as exc:
        raise ConfigError("environment", str(exc)) from None


def main(argv=None) -> int:
    try:
        cfg = resolve_config(build_parser().parse_args(argv))
        _check_environment()
        t0 = time.perf_counter()
        with np.errstate(all="ignore"):
            result = _execute(cfg)
        wall = time.perf_counter() - t0
        for line in result.lines:
            print(line)
        for w in result.warnings:
            print(f"warning: {w}", file=sys.stderr)
        if cfg.out is not None:
            report = {"command": cfg.command, **result.report, "wall_time": wall}
            persist_results(cfg.out, cfg, report, result.fields,
                            result.plots if cfg.plot else None, result.rows)
        return 0
    except (ConfigError, ResolutionError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (SolverError, OptimizationError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3
    except MemoryError:
        print("solver failure: out of memory; use a smaller grid or k-max",
              file=sys.stderr)
        return 3
    except BrokenExecutor as exc:
        print(f"solver failure: a worker process died: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"io failure: {exc}", file=sys.stderr)
        return 4

if __name__ == "__main__":
    sys.exit(main())
