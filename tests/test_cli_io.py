import dataclasses
import hashlib
import json
import os
import re
import subprocess
import sys
import xml.etree.ElementTree as ET
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from kppfrag import (
    DEFAULT_EFFICIENCY_MUS,
    Grid,
    NoConvergence,
    ProblemParams,
    ScalarField,
    emit_plot,
    make_crenel,
    solve_steady_state,
)
import kppfrag.cli as cli
from kppfrag.cli import (
    ConfigError,
    PRESETS,
    RunConfig,
    load_config_file,
    main,
    parse_config,
    persist_results,
)


# ---------------------------------------------------------------------------
# configuration

def test_parse_config_defaults():
    cfg = parse_config({}, "solve")
    assert cfg == RunConfig(command="solve")
    assert cfg.grid == (257,) and cfg.mu == (1.0,) and cfg.starts == 20


def test_parse_config_presets():
    cfg = parse_config(PRESETS["paper-1d-m03"], "sweep")
    assert cfg.grid == (1000,)
    assert cfg.mu == (1.0, 0.1, 0.01, 0.001)
    assert cfg.m0 == 0.3 and cfg.kappa == 1.0
    cfg2 = parse_config(PRESETS["paper-2d-m06"], "sweep")
    assert cfg2.grid == (60, 60) and cfg2.m0 == 0.6
    assert cfg2.allow_underresolved is True


def test_parse_config_scalar_coercions():
    cfg = parse_config({"grid": 65, "mu": 0.5}, "solve")
    assert cfg.grid == (65,) and cfg.mu == (0.5,)


@pytest.mark.parametrize("data,field", [
    ({"m0": 1.0}, "m0"),                     # budget must sit below the cap
    ({"m0": 0.0}, "m0"),
    ({"kappa": -1.0}, "kappa"),
    ({"grid": [2]}, "grid"),
    ({"grid": [10, 10, 10]}, "grid"),
    ({"grid": "ten"}, "grid"),
    ({"mu": []}, "mu"),
    ({"mu": -0.5}, "mu"),
    ({"seed": -1}, "seed"),
    ({"starts": 0}, "starts"),
    ({"k_max": -2}, "k_max"),
    ({"plot": "yes"}, "plot"),
    ({"frobnicate": 1}, "frobnicate"),       # unknown keys name themselves
    ({"mu": [0.5, 1.0]}, "mu"),              # a sweep ladder must decrease
    ({"out": ""}, "out"),                    # an empty path would write nothing
])
def test_parse_config_rejections(data, field):
    # sweep validates every setting the other commands do, plus its ladder
    with pytest.raises(ConfigError) as exc:
        parse_config(data, "sweep")
    assert exc.value.field == field


def test_parse_config_mu_order_free_outside_sweeps():
    assert parse_config({"mu": [0.5, 1.0]}, "efficiency").mu == (0.5, 1.0)
    assert parse_config({"mu": [1.0, 0.5]}, "sweep").mu == (1.0, 0.5)
    with pytest.raises(ConfigError):
        parse_config({"mu": [1.0, 1.0]}, "sweep")


def test_parse_config_rejects_unknown_command():
    with pytest.raises(ConfigError):
        parse_config({}, "frobnicate")


def test_parse_config_bounds_the_finest_grid():
    # checked before anything is allocated: the refined grid of a 1D
    # k_max = 40 run would hold 2^41 + 1 nodes
    with pytest.raises(ConfigError, match="MAX_NODES = 16777216") as exc:
        parse_config({"grid": [3], "k_max": 40}, "periodise-check")
    assert exc.value.field == "grid"
    # 2049^2 nodes fit; one refinement, 4097^2 > 2^24, does not
    assert parse_config({"grid": [2049, 2049], "k_max": 0}, "lemma2").k_max == 0
    with pytest.raises(ConfigError):
        parse_config({"grid": [2049, 2049], "k_max": 1}, "lemma2")
    with pytest.raises(ConfigError):
        parse_config({"grid": [4097, 4097]}, "solve")
    # only the identity checks refine; k_max alone leaves other runs alone
    assert parse_config({"grid": [3], "k_max": 40}, "solve").k_max == 40
    assert parse_config({"grid": [1025], "k_max": 3}, "periodise-check").k_max == 3
    assert parse_config({"grid": [1025], "k_max": 3}, "lemma2").grid == (1025,)
    cap = cli.MAX_NODES
    assert parse_config({"grid": [cap]}, "solve").grid == (cap,)
    with pytest.raises(ConfigError):
        parse_config({"grid": [cap + 1]}, "solve")


def test_config_file_round_trip(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"grid": [33], "mu": [1.0, 0.5], "seed": 7}))
    cfg = parse_config(load_config_file(str(path)), "sweep")
    assert cfg.grid == (33,) and cfg.mu == (1.0, 0.5) and cfg.seed == 7


def test_config_file_rejects_bad_json(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config_file(str(path))
    path.write_text("[1, 2]")
    with pytest.raises(ConfigError):
        load_config_file(str(path))
    path.write_text('{"command": "solve"}')
    with pytest.raises(ConfigError):
        load_config_file(str(path))


def test_grid_flag_parse():
    assert cli._parse_grid_flag("60x60") == [60, 60]
    assert cli._parse_grid_flag("257") == [257]
    with pytest.raises(ConfigError):
        cli._parse_grid_flag("60y60")
    assert cli._parse_mu_flag("1,0.1,0.01") == [1.0, 0.1, 0.01]
    with pytest.raises(ConfigError):
        cli._parse_mu_flag("1;2")


def test_flag_overrides_beat_preset():
    rc = main(["solve", "--preset", "paper-1d-m03", "--grid", "9999x2"])
    assert rc == 2   # override reaches validation and fails there


# ---------------------------------------------------------------------------
# json helpers

def test_jsonable_conversions():
    out = cli._jsonable({
        "a": np.float64(1.5),
        "b": np.int64(3),
        "c": np.bool_(True),
        "d": float("-inf"),
        "e": float("nan"),
        "f": np.array([1.0, 2.0]),
        "g": (1, 2),
    })
    assert out == {"a": 1.5, "b": 3, "c": True, "d": None, "e": None,
                   "f": [1.0, 2.0], "g": [1, 2]}
    json.dumps(out)


# ---------------------------------------------------------------------------
# persistence

def _synthetic_sweep_dir(tmp_path, name, seed=0):
    g = Grid((33,))
    cfg = parse_config(
        {"grid": [33], "mu": [1.0, 0.5, 0.25, 0.125], "seed": seed,
         "out": str(tmp_path / name), "plot": True},
        "sweep",
    )
    fields, plots, rows = {}, {}, []
    for i, mu in enumerate(cfg.mu):
        m = make_crenel(g, 1.0, 0.3)
        fields[f"best_m_{i:02d}.csv"] = m
        plots[f"best_m_{i:02d}.svg"] = (m, None)
        rows.append({"mu": mu, "best_F": 0.3 + 0.01 * i, "bv": 1.0,
                     "jumps": None if i == 3 else 1, "bangbang_frac": 0.01,
                     "seconds": 0.5 + i})
    report = {"command": "sweep", "records": rows, "wall_time": 1.23}
    manifest = persist_results(cfg.out, cfg, report, fields, plots, rows)
    return cfg, manifest


def test_persist_layout_and_hashes(tmp_path):
    cfg, manifest_path = _synthetic_sweep_dir(tmp_path, "run")
    man = json.loads(open(manifest_path).read())
    assert sorted(man["files"]) == [
        "best_m_00.csv", "best_m_00.svg", "best_m_01.csv", "best_m_01.svg",
        "best_m_02.csv", "best_m_02.svg", "best_m_03.csv", "best_m_03.svg",
    ]
    assert man["volatile"] == ["report.json", "summary.csv"]
    for name, digest in man["files"].items():
        blob = open(os.path.join(cfg.out, name), "rb").read()
        assert hashlib.sha256(blob).hexdigest() == digest
    listed = set(man["files"]) | set(man["volatile"]) | {"manifest.json"}
    assert set(os.listdir(cfg.out)) == listed


def test_persist_same_seed_identical_manifests(tmp_path):
    _, man1 = _synthetic_sweep_dir(tmp_path, "run1")
    _, man2 = _synthetic_sweep_dir(tmp_path, "run2")
    assert open(man1, "rb").read() == open(man2, "rb").read()


def test_manifest_config_round_trips(tmp_path):
    cfg, manifest_path = _synthetic_sweep_dir(tmp_path, "run")
    echo = json.loads(open(manifest_path).read())["config"]
    command = echo.pop("command")
    rebuilt = parse_config(echo, command)
    assert rebuilt == dataclasses.replace(cfg, out=None)


def test_summary_csv_format(tmp_path):
    cfg, _ = _synthetic_sweep_dir(tmp_path, "run")
    lines = open(os.path.join(cfg.out, "summary.csv")).read().splitlines()
    assert lines[0] == "mu,best_F,bv,jumps,bangbang_frac,seconds"
    assert len(lines) == 5
    assert lines[1].startswith("1,")
    assert lines[4].split(",")[3] == ""      # None jumps -> empty cell


def test_persist_cleans_up_on_failure(tmp_path, monkeypatch):
    def _boom(m, theta):
        raise RuntimeError("forced by test")

    monkeypatch.setattr(cli, "emit_plot", _boom)
    with pytest.raises(RuntimeError):
        _synthetic_sweep_dir(tmp_path, "run")
    out = tmp_path / "run"
    assert not out.exists() or os.listdir(out) == []


def test_persist_removes_a_partly_written_file(tmp_path, monkeypatch):
    # the second CSV write stops after 10 bytes, as on a full disk
    class _FullDisk:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            self.fh.write(data[:10])
            raise OSError(28, "No space left on device")

    def full_disk_open(path, *args, **kwargs):
        fh = open(path, *args, **kwargs)
        return _FullDisk(fh) if path.endswith("best_m_01.csv") else fh

    monkeypatch.setattr(cli, "open", full_disk_open, raising=False)
    with pytest.raises(OSError):
        _synthetic_sweep_dir(tmp_path, "run")
    assert os.listdir(tmp_path / "run") == []


# ---------------------------------------------------------------------------
# plots

def test_svg_1d_valid_and_deterministic():
    g = Grid((101,))
    m = make_crenel(g, 1.0, 0.3)
    st = solve_steady_state(m, ProblemParams(mu=0.5, kappa=1.0, m0=0.3))
    svg = emit_plot(m, st.theta)
    assert svg == emit_plot(m, st.theta)
    assert svg.startswith("<?xml")
    root = ET.fromstring(svg.encode("utf-8"))
    assert root.tag.endswith("svg")
    assert root.get("width") == "800"


def test_svg_2d_two_panels():
    g = Grid((12, 9))
    m = make_crenel(g, 1.0, 0.3)
    st = solve_steady_state(m, ProblemParams(mu=0.5, kappa=1.0, m0=0.3))
    root = ET.fromstring(emit_plot(m, st.theta).encode("utf-8"))
    assert root.get("width") == "1600"
    assert ET.fromstring(emit_plot(m, None).encode("utf-8")).get("width") == "800"


def test_svg_rejects_mismatched_density():
    g = Grid((11,))
    m = make_crenel(g, 1.0, 0.3)
    with pytest.raises(ValueError):
        emit_plot(m, ScalarField(Grid((7,)), np.zeros(7)))


# ---------------------------------------------------------------------------
# exit codes

def test_exit_zero_on_success(tmp_path, capsys):
    out = tmp_path / "run"
    rc = main(["solve", "--grid", "65", "--mu", "0.5", "--out", str(out)])
    assert rc == 0
    assert (out / "manifest.json").exists()
    assert (out / "m.csv").exists() and (out / "theta.csv").exists()
    assert "F=" in capsys.readouterr().out


def test_exit_two_on_config_error(capsys):
    assert main(["solve", "--m0", "2.0"]) == 2
    assert "configuration error" in capsys.readouterr().err
    assert main(["sweep", "--grid", "33", "--mu", "0.001"]) == 2   # resolution
    capsys.readouterr()
    assert main(["sweep", "--grid", "33", "--mu", "0.5,1.0"]) == 2  # ladder order
    err = capsys.readouterr().err
    assert err.startswith("configuration error: mu:") and err.count("\n") == 1
    assert main(["solve", "--grid", "33", "--out", ""]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: out:") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["solve", "--m0", "abc"],
    ["solve", "--starts", "1e3"],
    ["solve", "--bogus", "1"],
    ["bogus"],
    [],
    ["solve", "--preset", "nope"],
    ["solve", "--grid", "5x"],
], ids=["m0-abc", "starts-1e3", "unknown-flag", "unknown-command",
        "missing-command", "unknown-preset", "grid-5x"])
def test_exit_two_on_malformed_invocation(capsys, argv):
    # argparse's own failures end in the same one line as every other
    # configuration error, with no usage block
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("configuration error:")
    assert captured.err.count("\n") == 1 and captured.out == ""


def test_flags_may_precede_the_command(capsys):
    assert main(["--grid", "33", "--mu", "0.5", "solve"]) == 0
    assert capsys.readouterr().out.startswith("solve: mu=0.5 grid=33 ")


@pytest.mark.parametrize("command", ["solve", "optimize", "periodise-check", "lemma2"])
def test_exit_two_on_mu_list_for_single_mu_command(capsys, command):
    # only sweep and efficiency take a list; no value may be dropped silently
    assert main([command, "--grid", "65", "--mu", "0.1,0.01"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: mu:") and err.count("\n") == 1
    assert f"{command} takes one diffusivity, got 2" in err


@pytest.mark.parametrize("value", ["two", "0", "1.5"])
def test_exit_two_on_bad_threads_setting(monkeypatch, capsys, value):
    monkeypatch.setenv("KPPFRAG_THREADS", value)
    assert main(["optimize", "--grid", "33", "--mu", "1", "--starts", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and err.count("\n") == 1
    assert f"KPPFRAG_THREADS must be a positive integer, got {value!r}" in err


def test_exit_three_on_solver_failure(monkeypatch, capsys):
    def _stall(*args, **kwargs):
        raise NoConvergence("stalled", last_residual=1.0)

    monkeypatch.setattr(cli, "solve_steady_state", _stall)
    assert main(["solve", "--grid", "65"]) == 3
    assert "solver failure" in capsys.readouterr().err


def test_exit_three_on_out_of_memory(monkeypatch, capsys):
    def _exhaust(*args, **kwargs):
        raise MemoryError("Unable to allocate 64.0 GiB")

    monkeypatch.setattr(cli, "periodisation_check", _exhaust)
    assert main(["periodise-check", "--grid", "65", "--k-max", "12"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("solver failure: out of memory") and err.count("\n") == 1


def test_exit_three_on_dead_worker(monkeypatch, capsys):
    def _killed(*args, **kwargs):
        raise BrokenProcessPool("A process in the process pool was terminated abruptly")

    monkeypatch.setattr(cli, "optimize", _killed)
    assert main(["optimize", "--grid", "33", "--starts", "2"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("solver failure: a worker process died: A process")
    assert err.count("\n") == 1


def test_exit_three_on_overflow_prints_one_line():
    # run as a user would: numpy's overflow warning would reach stderr
    # ahead of the failure message
    src = os.path.dirname(os.path.dirname(cli.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "kppfrag.cli", "solve", "--grid", "33",
         "--kappa", "1e200", "--m0", "1e199"],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 3
    assert proc.stderr.startswith("solver failure: ")
    assert proc.stderr.count("\n") == 1


def test_exit_four_on_io_failure(tmp_path, capsys):
    blocker = tmp_path / "blocked"
    blocker.write_text("in the way")
    rc = main(["solve", "--grid", "65", "--out", str(blocker)])
    assert rc == 4
    assert "io failure" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# command smoke (small instances)

def test_cmd_optimize_persists_run(tmp_path, capsys):
    out = tmp_path / "opt"
    rc = main(["optimize", "--grid", "33", "--mu", "1.0", "--starts", "2",
               "--seed", "1", "--out", str(out), "--plot"])
    assert rc == 0
    rep = json.loads((out / "report.json").read_text())
    assert rep["command"] == "optimize"
    assert rep["best_F"] >= 0.3 - 1e-8
    assert all(s["F"] is not None for s in rep["starts"])
    # iterations is a property of the record, not a field, and still reported
    assert [set(s) for s in rep["starts"]] == [
        {"start_index", "F", "termination", "iterations", "error"}] * 2
    winner = rep["starts"][rep["start_index"]]
    assert winner["iterations"] == len(rep["trajectory"]) >= 1
    traj = rep["trajectory"]
    assert all(b[0] >= a[0] for a, b in zip(traj, traj[1:]))
    assert (out / "best_m.csv").exists()
    assert (out / "optimize.svg").exists()


def test_cmd_sweep_reports_each_mu(tmp_path, capsys):
    out = tmp_path / "sweep"
    rc = main(["sweep", "--grid", "33", "--mu", "1.0,0.5", "--starts", "2",
               "--out", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "mu=1 " in text and "mu=0.5 " in text and "bv_monotone=" in text
    rep = json.loads((out / "report.json").read_text())
    assert [r["mu"] for r in rep["records"]] == [1.0, 0.5]
    assert (out / "best_m_00.csv").exists() and (out / "best_m_01.csv").exists()
    assert (out / "summary.csv").exists()


def test_cmd_periodise_and_lemma2(tmp_path, capsys):
    rc = main(["periodise-check", "--grid", "33", "--mu", "0.5", "--k-max", "2",
               "--out", str(tmp_path / "p")])
    assert rc == 0
    rep = json.loads((tmp_path / "p" / "report.json").read_text())
    assert rep["max_deviation"] <= 1e-10
    rc = main(["lemma2", "--grid", "33", "--mu", "0.5", "--k-max", "1"])
    assert rc == 0
    text = capsys.readouterr().out
    assert "eta_hat=" in text and "bound_ok=True" in text


def test_cmd_efficiency(capsys):
    rc = main(["efficiency", "--grid", "65", "--mu", "1.0,0.1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "max F/m0" in out
    ratio = float(out.split("=")[1].split("over")[0])
    assert 1.0 <= ratio < 3.0


def test_efficiency_evaluates_a_single_mu(tmp_path, capsys):
    out = tmp_path / "eff"
    assert main(["efficiency", "--grid", "65", "--mu", "0.5", "--out", str(out)]) == 0
    assert "over 1 diffusivities" in capsys.readouterr().out
    manifest = json.loads((out / "manifest.json").read_text())
    report = json.loads((out / "report.json").read_text())
    assert manifest["config"]["mu"] == report["mu_list"] == [0.5]


def test_efficiency_default_uses_thirteen_diffusivities(capsys):
    assert parse_config({}, "efficiency").mu == DEFAULT_EFFICIENCY_MUS
    assert parse_config({}, "lemma2").mu == (1.0,)
    assert main(["efficiency", "--grid", "65"]) == 0
    assert "over 13 diffusivities" in capsys.readouterr().out


_REAL = r"[-+0-9.e]+"
COMMAND_RUNS = {
    "solve": (
        ["solve", "--grid", "65", "--mu", "0.5", "--plot"],
        ["m.csv", "solve.svg", "theta.csv"],
        {"F", "iterations", "mu", "residual_norm", "used_fallback"},
        [rf"solve: mu=0\.5 grid=65 F={_REAL} residual={_REAL} iterations=\d+ "
         r"fallback=(True|False)"],
    ),
    "optimize": (
        ["optimize", "--grid", "33", "--mu", "1.0", "--starts", "2", "--seed", "1",
         "--plot"],
        ["best_m.csv", "optimize.svg", "theta.csv"],
        {"best_F", "mu", "seed", "start_index", "starts", "termination", "trajectory"},
        [rf"optimize: mu=1 best_F={_REAL} termination=\w+ start=\d+ starts=2"],
    ),
    "sweep": (
        ["sweep", "--grid", "33", "--mu", "1.0,0.5", "--starts", "2", "--plot"],
        ["best_m_00.csv", "best_m_00.svg", "best_m_01.csv", "best_m_01.svg"],
        {"bv_monotone", "records", "seed", "warnings"},
        [rf"mu={mu} best_F={_REAL} bv={_REAL} jumps=\d+ bangbang={_REAL} "
         r"\[\d+\.\ds\]" for mu in ("1", r"0\.5")] + [r"bv_monotone=(True|False)"],
    ),
    "periodise-check": (
        ["periodise-check", "--grid", "33", "--mu", "0.5", "--k-max", "2"],
        ["m.csv"],
        {"max_deviation", "rows"},
        [rf"k={k} mu={_REAL} F={_REAL} deviation={_REAL}" for k in range(3)],
    ),
    "lemma2": (
        ["lemma2", "--grid", "33", "--mu", "0.5", "--k-max", "1"],
        ["m.csv"],
        {"all_ok", "eta_hat", "rows"},
        [rf"eta_hat={_REAL}"] + [rf"k={k} min_gap={_REAL} bound_ok=True" for k in range(2)],
    ),
    "efficiency": (
        ["efficiency", "--grid", "65", "--mu", "1.0,0.1"],
        ["m.csv"],
        {"mu_list", "ratio"},
        [rf"efficiency: max F/m0 = {_REAL} over 2 diffusivities"],
    ),
}


@pytest.mark.parametrize("command", sorted(COMMAND_RUNS))
def test_command_run_directory(tmp_path, capsys, command):
    argv, files, keys, patterns = COMMAND_RUNS[command]
    out = tmp_path / "run"
    assert main(argv + ["--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(patterns)
    for line, pattern in zip(lines, patterns):
        assert re.fullmatch(pattern, line), line
    man = json.loads((out / "manifest.json").read_text())
    volatile = ["report.json", "summary.csv"] if command == "sweep" else ["report.json"]
    assert sorted(man["files"]) == files
    assert man["volatile"] == volatile
    assert sorted(os.listdir(out)) == sorted(files + volatile + ["manifest.json"])
    rep = json.loads((out / "report.json").read_text())
    assert set(rep) == keys | {"command", "wall_time"}
    assert rep["command"] == command and rep["wall_time"] > 0.0
