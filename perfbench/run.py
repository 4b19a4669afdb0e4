"""Benchmark of the kppfrag pipeline, one workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its `src/`.
One process calls the package in a closed loop: one pass of the workload
at a time, the next started only after the previous one returned, until
`--seconds` have passed (at least one pass). Seeded workloads cycle through
a few program seeds derived from `--seed`; passes with one program seed
must produce identical outputs.

`--trace 0` prints the end-to-end metrics: wall_s, the median pass time;
setup_s, the median time of fresh processes that import the package and
build the inputs; peak_rss_mb, the process's peak resident memory; and
best_F_mean, the median over passes of the mean F of the pass's results
(the sweep winners' best F, or the F of each top-level solve). Both times
are rescaled by the machine-speed probe in speed.py; the raw times are in
the detail line. `--trace 1` alternates untraced and traced passes on the
first program seed and prints the per-layer metrics of the traced ones.
An operation is one mu point of a sweep or one top-level call; an
exception, a missing result or a failed check counts it as failed, and
failed_frac = failed / attempted is printed with the failures.
Human-readable lines and one `detail` JSON line come first; the last line
is the result object. The exit code is 0 when every check passed, 1 when
one failed and 2 when the benchmark could not run.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import speed
import tracing

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = ROOT / ".perfbench"

# one serial process: no optimizer pool, one BLAS thread
THREAD_ENV = {"KPPFRAG_THREADS": "1", "OMP_NUM_THREADS": "1",
              "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
PROGRAM_SEEDS = 4      # per run, for the seeded workloads
SETUP_RUNS = 5         # fresh processes timed for setup_s

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB",
                    "best_F_mean": "1"}


class BenchError(RuntimeError):
    """The benchmark cannot run here (no package source, set-up failed)."""


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every workload (smoke test)")
    parser.add_argument("--setup-only", action="store_true",
                        help="import the package, build the inputs and exit")
    return parser.parse_args(argv)


def import_package():
    """Import kppfrag from this checkout's src/ and the benchmark modules."""
    os.environ.update(THREAD_ENV)
    src = ROOT / "src"
    if not (src / "kppfrag" / "__init__.py").is_file():
        raise BenchError(f"no package source at {src / 'kppfrag'}")
    for path in (str(BENCH_DIR), str(src)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import kppfrag
    if Path(kppfrag.__file__).resolve().parent != (src / "kppfrag").resolve():
        raise BenchError(f"kppfrag imported from {kppfrag.__file__}, not {src}")
    import workloads
    return workloads


def program_seeds(seed: int, seeded: bool) -> list[int]:
    return [seed * PROGRAM_SEEDS + j for j in range(PROGRAM_SEEDS)] if seeded else [seed]


def setup_times(args, probe) -> tuple[list[float], list[float]]:
    """Wall time of fresh processes that import the package and build the
    workload's inputs, from spawn to exit: raw and rescaled by the probe."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "1", "--trace", "0"] + (["--tiny"] if args.tiny else [])
    raw, scaled = [], []
    for _ in range(SETUP_RUNS):
        t0 = perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=120)
        raw.append(perf_counter() - t0)
        if proc.returncode != 0:
            raise BenchError(f"set-up run failed: {proc.stderr.strip()[-400:]}")
        scaled.append(probe.rescale(raw[-1]))
    return raw, scaled


def distribution(values: list[float]) -> dict:
    """Median, quartiles and count; a tail percentile only where at least
    ten samples lie beyond it."""
    out = {"median": statistics.median(values), "n": len(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3)
    for pct in (99, 90):
        if len(values) * (100 - pct) / 100 >= 10:
            out[f"p{pct}"] = statistics.quantiles(values, n=100)[pct - 1]
            break
    return out


class Ledger:
    """Runs passes and keeps the operation and failure counts.

    The first pass of each program seed is checked in full; a later pass
    with that seed must reproduce its outputs exactly and inherits its
    verdicts.
    """

    def __init__(self, workload, inputs, workdir: str):
        self.workload = workload
        self.inputs = inputs
        self.workdir = workdir
        self.first: dict = {}
        self.attempted = 0
        self.failures: list[str] = []

    def run(self, seed: int, label: str = "untraced"):
        wl = self.workload
        t0 = perf_counter()
        try:
            p = wl.run(self.inputs, seed, self.workdir)
        except Exception as exc:  # a crashed pass fails all its operations
            self.attempted += wl.ops_per_pass
            self.failures += [f"seed {seed} {label}: {type(exc).__name__}: {exc}"] * wl.ops_per_pass
            return None, perf_counter() - t0
        ref = self.first.get(seed)
        if ref is None:
            try:
                wl.check(p)
            except Exception as exc:
                self.fail(p, f"check raised {type(exc).__name__}: {exc}")
            self.first[seed] = p
        elif p.fingerprint != ref.fingerprint:
            self.fail(p, f"{label} outputs differ from an earlier pass with seed {seed}")
        else:
            for op, ref_op in zip(p.ops, ref.ops):
                op.error = op.error or ref_op.error
        self.attempted += len(p.ops)
        self.failures += [f"seed {seed} {label} {op.name}: {op.error}"
                          for op in p.ops if op.error]
        p.detail = {}
        return p, p.wall

    def fail(self, p, reason: str) -> None:
        for op in p.ops:
            op.error = op.error or reason


def untraced_run(ledger: Ledger, seeds: list[int], seconds: float, probe):
    """Pass times, raw and rescaled by the probe, and each pass's mean F."""
    walls, scaled, Fs = [], [], []
    deadline = perf_counter() + seconds
    while not walls or perf_counter() < deadline:
        p, wall = ledger.run(seeds[len(walls) % len(seeds)])
        walls.append(wall)
        scaled.append(probe.rescale(wall))
        if p is not None:
            Fs.append(p.F_mean)
    return walls, scaled, Fs


def traced_run(ledger: Ledger, seed: int, seconds: float, spans_path: Path):
    tracer = tracing.Tracer()
    untraced, traced, layers = [], [], []
    deadline = perf_counter() + seconds
    while not traced or perf_counter() < deadline:
        untraced.append(ledger.run(seed)[1])
        tracer.run_id = len(traced)
        uninstall = tracing.install(tracer)
        try:
            wall = ledger.run(seed, "traced")[1]
        finally:
            uninstall()
        traced.append(wall)
        layers.append(tracing.layer_metrics(tracer.spans, tracer.run_id, wall))
        for key in tracing.EXACT_COUNTS:
            if layers[-1][key] != layers[0][key]:
                ledger.failures.append(f"{key} changed between traced passes: "
                                       f"{layers[0][key]} -> {layers[-1][key]}")
    tracer.write(str(spans_path))
    metrics = {key: statistics.median(layer[key] for layer in layers)
               for key in tracing.PER_LAYER_UNITS if key != "trace.overhead_s"}
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    exact = {key: layers[0][key] for key in tracing.EXACT_COUNTS}
    return metrics, {"traced_walls": traced, "untraced_walls": untraced,
                     "exact_counts": exact, "spans_file": str(spans_path.relative_to(ROOT))}


def machine_facts() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "threads_env": {k: os.environ.get(k) for k in THREAD_ENV}}


def measure(args) -> dict:
    """Run the workload as the arguments say; returns the result object
    plus a `detail` entry."""
    workloads = import_package()
    if args.workload not in workloads.WORKLOADS:
        raise BenchError(f"unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload](tiny=args.tiny)
    seeds = program_seeds(args.seed, wl.seeded)
    WORK_DIR.mkdir(exist_ok=True)
    ledger = Ledger(wl, wl.inputs(), str(WORK_DIR))
    detail = {"workload": wl.name, "seed": args.seed, "program_seeds": seeds,
              "settings": vars(wl), "seconds": args.seconds,
              "machine": machine_facts()}

    if args.trace:
        spans_path = WORK_DIR / f"trace-{wl.name}-seed{args.seed}.jsonl"
        values, extra = traced_run(ledger, seeds[0], args.seconds, spans_path)
        units = tracing.PER_LAYER_UNITS
        detail.update(extra)
    else:
        with speed.SpeedProbe() as probe:
            setup_raw, setup = setup_times(args, probe)
            walls_raw, walls, Fs = untraced_run(ledger, seeds, args.seconds, probe)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        samples = {"wall_s": walls, "setup_s": setup, "peak_rss_mb": [rss_mb],
                   "best_F_mean": Fs or [0.0]}
        values = {k: statistics.median(v) for k, v in samples.items()}
        units = END_TO_END_UNITS
        detail["distribution"] = {k: distribution(v) for k, v in samples.items()}
        detail["raw"] = {"wall_s": distribution(walls_raw),
                         "setup_s": distribution(setup_raw)}
        detail["walls"], detail["walls_raw"] = walls, walls_raw
        detail["probe_s"] = {"ref": speed.REF_S, **distribution(probe.samples)}

    failed = len(ledger.failures)
    detail["failed_frac"] = failed / ledger.attempted
    detail["failures"] = ledger.failures[:20]
    return {
        "correct": failed == 0,
        "attempted": ledger.attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
        "detail": detail,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        if args.setup_only:
            import_package().WORKLOADS[args.workload](tiny=args.tiny).inputs()
            return 0
        result = measure(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    detail = result.pop("detail")
    for name, metric in result["metrics"].items():
        spread = detail.get("distribution", {}).get(name)
        extra = (f"  (q1 {spread['q1']:.6g}, q3 {spread['q3']:.6g}, n={spread['n']})"
                 if spread and "q1" in spread else "")
        print(f"{name:40s} {metric['value']:.6g} {metric['unit']}{extra}")
    print(f"failed_frac {detail['failed_frac']:.6g} "
          f"({result['failed']} of {result['attempted']} operations)")
    for line in detail["failures"]:
        print(f"FAILED {line}")
    print("detail " + json.dumps(detail, default=str))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
