"""End-to-end CLI checks on small configurations."""
import json

from dragflow.cli import main
from dragflow.recordio import read_records


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


def test_bogovskii_test_subcommand(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    code = main(["bogovskii-test", "--config", str(cfg)])
    out = capsys.readouterr().out
    assert code == 0, out
    assert "spectral.poisson_residual" in out
    assert all(l.endswith("PASS") for l in out.strip().splitlines())
