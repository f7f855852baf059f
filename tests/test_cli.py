"""End-to-end CLI checks on small configurations."""
import json
import math
from pathlib import Path

import pytest

from dragflow.cli import main, run_validation
from dragflow.config import load_config
from dragflow.grid import Grid
from dragflow.initial import InitSpec, generate_initial
from dragflow.recordio import read_records, write_snapshot_index, write_state_snapshot


def write_cfg(tmp_path, **overrides):
    doc = {
        "schema": 1,
        "grid": {"dim": 1, "points_per_axis": 32},
        "params": {"gamma": 2.0, "mu": 1.0, "lam": 0.0},
        "time": {"t_end": 0.5, "record_every": 20},
        "initial_data": {
            "kind": "single_mode",
            "base_rho": 1.0,
            "amplitudes": {"rho": 0.05, "u": 0.05, "n": 0.05, "v": 0.05},
        },
        "outputs": {"records_path": "records.csv"},
    }
    for key, val in overrides.items():
        if isinstance(val, dict) and key in doc:
            doc[key].update(val)
        else:
            doc[key] = val
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    return path


def test_run_equilibrium_constant_functionals(tmp_path):
    cfg = write_cfg(
        tmp_path,
        initial_data={"kind": "uniform_drag", "amplitudes": {"u": 0.0, "v": 0.0}},
    )
    code = main(["run", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == 0
    rows = read_records(tmp_path / "records.csv")
    assert len(rows) >= 2
    es = [row["E"] for row in rows]
    assert max(es) - min(es) < 1e-13


def test_run_missing_key_exits_2(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    doc = json.loads(write_cfg(tmp_path).read_text())
    del doc["params"]["gamma"]
    cfg_path.write_text(json.dumps(doc))
    code = main(["run", "--config", str(cfg_path)])
    assert code == 2
    assert "params.gamma" in capsys.readouterr().err


def test_run_malformed_amplitude_exits_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, initial_data={"amplitudes": {"rho": "big"}})
    code = main(["run", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == 2
    assert "initial_data.amplitudes.rho" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_run_uncomputable_dt_exits_3(tmp_path, capsys):
    cfg = write_cfg(tmp_path, params={"gamma": 1e6})
    code = main(["run", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == 3
    assert "status=blowup" in capsys.readouterr().out
    assert "stop:blowup" in read_records(tmp_path / "records.csv")[-1]["flags"]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_reference_run_with_overflowing_pressure_writes_one_flagged_row(tmp_path):
    # at gamma = 1e6 the pressure overflows: E, E_script and E_sigma are inf
    # and D_sigma nan at t=0, and the first step cannot compute a dt
    reference = Path(__file__).resolve().parents[1] / "configs" / "reference.json"
    doc = json.loads(reference.read_text())
    doc["params"]["gamma"] = 1e6
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 3
    rows = read_records(tmp_path / "records.csv")
    assert len(rows) == 1
    assert rows[0]["t"] == 0.0
    assert rows[0]["flags"] == "stop:blowup;endpoint;nonfinite"
    assert math.isinf(rows[0]["E"]) and math.isnan(rows[0]["D_sigma"])


def test_run_deterministic_bytes(tmp_path):
    cfg = write_cfg(tmp_path, initial_data={"kind": "multi_mode"}, seed=7)
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert main(["run", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["run", "--config", str(cfg), "--out", str(out2)]) == 0
    assert (out1 / "records.csv").read_bytes() == (out2 / "records.csv").read_bytes()


def test_run_emit_plot_data_and_snapshots(tmp_path):
    cfg = write_cfg(
        tmp_path,
        outputs={"records_path": "r.csv", "snapshots_path": "snaps", "snapshot_every": 2},
    )
    code = main(["run", "--config", str(cfg), "--out", str(tmp_path), "--emit-plot-data"])
    assert code == 0
    assert (tmp_path / "r.plot.dat").exists()
    index = json.loads((tmp_path / "snaps" / "snapshots.json").read_text())
    times = sorted({e["t"] for e in index["entries"]})
    assert len(times) >= 3  # periodic snapshots plus the final state
    rho_files = [e for e in index["entries"] if e["field"] == "rho"]
    assert all((tmp_path / "snaps" / e["file"]).exists() for e in rho_files)


def test_validate_passes_on_small_run(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    code = main(["validate", "--config", str(cfg), "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0, out
    lines = [l for l in out.strip().splitlines()]
    assert all(l.endswith("PASS") for l in lines)
    assert any(l.startswith("conservation.momentum_drift") for l in lines)


def test_validate_prints_the_momentum_bound_slacks_as_minima(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    assert main(["validate", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    printed = {
        name: float(value)
        for name, value, *_ in (line.split() for line in capsys.readouterr().out.splitlines())
    }
    _, result = run_validation(load_config(cfg), None)
    for name in ("jc_momentum", "jc_rate"):
        worst = min(r.checks[name + "_slack"] for r in result.records)
        assert printed[f"inequality.{name}_min_slack"] == worst
        assert worst >= 0.0  # the rate slack is 0 at t=0, where u = v
    assert printed["inequality.jc_momentum_min_slack"] > 0.0


def test_validate_fails_on_unstable_config(tmp_path, capsys):
    cfg = write_cfg(tmp_path, time={"t_end": 0.5, "cfl_diffusive": 1.0, "dt_max": 1.0})
    code = main(["validate", "--config", str(cfg), "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 4
    assert "run.completed" in out and "FAIL" in out


def test_decay_study_rows(tmp_path, capsys):
    cfg = write_cfg(tmp_path, time={"t_end": 4.0, "record_every": 20})
    code = main(
        [
            "decay-study",
            "--config",
            str(cfg),
            "--out",
            str(tmp_path),
            "--amplitudes",
            "0.02,0.05,0.05,0.0",
        ]
    )
    out = capsys.readouterr().out
    # the zero-amplitude row cannot be fitted, so the study exits nonzero
    assert code == 3
    body = (tmp_path / "decay_study.csv").read_text().strip().splitlines()
    assert len(body) == 5  # header + 4 rows
    rows = [dict(zip(body[0].split(","), line.split(","))) for line in body[1:]]
    assert rows[0]["status"] == "completed"
    assert float(rows[0]["lambda_hat"]) > 0.0
    # duplicate amplitudes give identical rows
    assert body[2] == body[3]
    assert rows[3]["status"] == "non_positive_values"


@pytest.mark.parametrize("amplitudes", ["abc", "0.01,nan", "inf", " , "])
def test_decay_study_rejects_bad_amplitudes(tmp_path, capsys, amplitudes):
    cfg = write_cfg(tmp_path)
    code = main(
        ["decay-study", "--config", str(cfg), "--out", str(tmp_path), "--amplitudes", amplitudes]
    )
    assert code == 2
    assert "--amplitudes" in capsys.readouterr().err
    assert not (tmp_path / "decay_study.csv").exists()


def _snapshot_index(directory, points, mean_n=0.0):
    """The index of a snapshot of single-mode data on a 1-D grid of
    ``points``, with ``mean_n`` added to n."""
    g = Grid(1, points)
    state = generate_initial(InitSpec(kind="single_mode", amplitudes={"rho": 0.05, "n": 0.05}), g)
    state.n += mean_n
    entries = write_state_snapshot(directory, state, 0.0, "init")
    return write_snapshot_index(directory, entries, g.dim, g.n)


@pytest.mark.parametrize("command", ["run", "validate", "decay-study", "kinetic-compare"])
@pytest.mark.parametrize("fault", ["missing_index", "grid_mismatch", "nonzero_mean_n"])
def test_bad_snapshot_exits_3_naming_the_key(tmp_path, capsys, command, fault):
    if fault == "missing_index":
        index = tmp_path / "absent.json"
    elif fault == "grid_mismatch":
        index = _snapshot_index(tmp_path, 16)  # the config's grid has 32 points
    else:
        index = _snapshot_index(tmp_path, 32, mean_n=0.1)
    cfg = write_cfg(tmp_path, initial_data={"kind": "from_snapshot", "snapshot": str(index)})
    code = main([command, "--config", str(cfg), "--out", str(tmp_path)])
    assert code == 3
    out, err = capsys.readouterr()
    if command == "decay-study":
        # each row carries the error as its status
        rows = out.strip().splitlines()[1:]
        assert len(rows) == 3 and all("error: initial_data.snapshot" in r for r in rows)
    else:
        lines = err.strip().splitlines()
        assert len(lines) == 1 and "initial_data.snapshot" in lines[0]


def test_kinetic_compare_smoke(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path,
        grid={"dim": 1, "points_per_axis": 32},
        kinetic={"particles": 20000, "compare_time": 0.2},
    )
    code = main(["kinetic-compare", "--config", str(cfg)])
    out = capsys.readouterr().out
    assert code == 0, out
    assert "refinement.improves PASS" in out
    assert "closure.decreases PASS" in out


def test_kinetic_compare_requires_1d(tmp_path, capsys):
    cfg = write_cfg(tmp_path, grid={"dim": 2, "points_per_axis": 16})
    code = main(["kinetic-compare", "--config", str(cfg)])
    assert code == 2


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_kinetic_compare_exits_3_when_a_run_stops(tmp_path, capsys):
    # at gamma = 1e6 the grid reference run cannot compute its first dt
    cfg = write_cfg(tmp_path, params={"gamma": 1e6}, kinetic={"particles": 1000})
    code = main(["kinetic-compare", "--config", str(cfg)])
    assert code == 3
    err = capsys.readouterr().err
    assert err.strip().splitlines() == ["kinetic-compare failed: grid reference run stopped: blowup"]


def test_bogovskii_test_subcommand(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    code = main(["bogovskii-test", "--config", str(cfg)])
    out = capsys.readouterr().out
    assert code == 0, out
    assert "spectral.poisson_residual" in out
    assert all(l.endswith("PASS") for l in out.strip().splitlines())
