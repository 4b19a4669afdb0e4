"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest -q perfbench/tests

Checks the output contract of every workload in both modes, and that a
corrupted steady state trips the residual check and counts as failed.
"""
import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _bench(workload: str, trace: int):
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0.05", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.stdout, proc.stderr
    return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_with_its_unit(workload, trace):
    rc, result = _bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert rc == (0 if result["correct"] else 1)
    assert result["attempted"] >= 1
    assert 0 <= result["failed"] <= result["attempted"]
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert set(got) == {"value", "unit"}
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)), m["name"]


def test_corrupted_theta_trips_the_residual_check(monkeypatch, tmp_path):
    workloads = run.import_package()
    from kppfrag import fields, solver

    real_solve = solver.solve_steady_state

    # start from the supersolution theta = kappa, which reaches the positive
    # steady state on every grid, so only the corruption can fail the checks
    def solve(m, params, *args, corrupt=0.0, **kwargs):
        state = real_solve(m, params, theta0=np.full(m.grid.num_nodes, m.kappa))
        theta = state.theta.values.copy()
        theta[theta.size // 2] *= 1.0 + corrupt
        return dataclasses.replace(state, theta=fields.ScalarField(m.grid, theta))

    wl = workloads.Solve2DCold(tiny=True)
    for corrupt, failed in ((0.0, 0), (1e-3, wl.ops_per_pass)):
        monkeypatch.setattr(
            workloads.solver, "solve_steady_state",
            lambda m, params, *a, **k: solve(m, params, corrupt=corrupt))
        ledger = run.Ledger(wl, wl.inputs(), str(tmp_path))
        ledger.run(seed=0)
        assert ledger.attempted == wl.ops_per_pass
        assert len(ledger.failures) == failed, ledger.failures
        assert all("steady-state residual" in f for f in ledger.failures)
