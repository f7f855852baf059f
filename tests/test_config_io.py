"""Config parsing/round-trip and record/snapshot serialization."""
import json
import math
import struct

import numpy as np
import pytest

from dragflow import recordio
from dragflow.config import ConfigError, load_config, parse_config, save_config, to_dict
from dragflow.dynamics import FluidParams
from dragflow.grid import Grid
from dragflow.initial import InitSpec, generate_initial
from dragflow.stepping import TimeConfig, run

MINIMAL = {
    "schema": 1,
    "grid": {"dim": 1, "points_per_axis": 32},
    "params": {"gamma": 2.0, "mu": 1.0},
    "time": {"t_end": 0.5},
    "initial_data": {"kind": "uniform_drag", "amplitudes": {"u": 1.0, "v": 0.0}},
}


def test_parse_minimal():
    cfg = parse_config(MINIMAL)
    assert cfg.grid.points_per_axis == 32
    assert cfg.params.gamma == 2.0
    assert cfg.time.cfl_advective == 0.4
    assert cfg.outputs.records_path == "records.csv"
    assert cfg.kinetic.particles == 100_000


def test_parse_missing_gamma_names_key():
    doc = json.loads(json.dumps(MINIMAL))
    del doc["params"]["gamma"]
    with pytest.raises(ConfigError, match="params.gamma"):
        parse_config(doc)


def test_parse_bad_schema():
    doc = dict(MINIMAL, schema=99)
    with pytest.raises(ConfigError, match="schema"):
        parse_config(doc)


@pytest.mark.parametrize(
    "section, values, key",
    [
        ("amplitudes", {"rho": "big"}, "initial_data.amplitudes.rho"),
        ("amplitudes", {"u": None}, "initial_data.amplitudes.u"),
        ("amplitudes", {"n": True}, "initial_data.amplitudes.n"),
        ("amplitudes", {"v": float("nan")}, "initial_data.amplitudes.v"),
        ("amplitudes", {"rho": float("inf")}, "initial_data.amplitudes.rho"),
        ("amplitudes", {"zeta": 0.1}, "initial_data.amplitudes.zeta"),
        ("phases", {"u": [0.5]}, "initial_data.phases.u"),
        ("phases", {"theta": 0.5}, "initial_data.phases.theta"),
        ("phases", [0.5], "initial_data.phases"),
    ],
)
def test_parse_bad_amplitudes_and_phases_name_key(section, values, key):
    doc = json.loads(json.dumps(MINIMAL))
    doc["initial_data"][section] = values
    with pytest.raises(ConfigError) as err:
        parse_config(doc)
    assert key in str(err.value)


def test_parse_amplitudes_and_phases_accept_numbers():
    doc = json.loads(json.dumps(MINIMAL))
    doc["initial_data"]["amplitudes"] = {"rho": 0.05, "u": 1, "n": -0.02, "v": 0.0}
    doc["initial_data"]["phases"] = {"rho": 0.5, "v": 3}
    cfg = parse_config(doc)
    assert cfg.initial_data.amp("u") == 1.0
    assert cfg.initial_data.phase("v") == 3.0


def test_config_roundtrip(tmp_path):
    cfg = parse_config(MINIMAL)
    path = tmp_path / "cfg.json"
    save_config(cfg, path)
    cfg2 = load_config(path)
    assert to_dict(cfg) == to_dict(cfg2)


def test_load_config_errors(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    with pytest.raises(ConfigError, match="JSON"):
        load_config(bad)


def small_run():
    g = Grid(1, 32)
    spec = InitSpec(kind="single_mode", amplitudes={"rho": 0.05, "u": 0.05, "n": 0.05, "v": 0.05})
    state = generate_initial(spec, g)
    params = FluidParams(gamma=2.0, mu=1.0)
    return g, run(state, params, TimeConfig(t_end=0.2, record_every=20))


def test_records_csv_roundtrip(tmp_path):
    g, result = small_run()
    path = tmp_path / "records.csv"
    recordio.write_records(path, result.records, g.dim)
    rows = recordio.read_records(path)
    assert len(rows) == len(result.records)
    header = [
        line
        for line in path.read_text().splitlines()
        if line and not line.startswith("#")
    ][0].split(",")
    assert header[0] == "t" and header[-1] == "flags"
    assert len(header) == len(recordio._columns(g.dim))
    for row, rec in zip(rows, result.records):
        assert row["t"] == rec.t  # repr round-trips exactly
        assert row["E"] == rec.functionals.E
        assert row["rho_c"] == rec.averages.rho_c
    assert math.isnan(rows[0]["res_energy"])
    assert "endpoint" in rows[0]["flags"]


def test_records_csv_documents_columns(tmp_path):
    g, result = small_run()
    path = tmp_path / "records.csv"
    recordio.write_records(path, result.records, g.dim)
    comments = [l for l in path.read_text().splitlines() if l.startswith("#")]
    for name in ("mass_rho", "E_sigma", "grad_u_max", "flags"):
        assert any(name in c for c in comments)


def test_snapshot_header_layout(tmp_path):
    g = Grid(1, 16)
    field = np.linspace(0.0, 1.0, 16)
    path = tmp_path / "f.bin"
    recordio.write_field(path, field, 1, 16, 2.5)
    raw = path.read_bytes()
    assert len(raw) == 32 + 16 * 8
    assert raw[:4] == b"DAF1"
    dim, n = struct.unpack_from("<II", raw, 4)
    (t,) = struct.unpack_from("<d", raw, 12)
    assert (dim, n, t) == (1, 16, 2.5)
    dim2, n2, t2, data = recordio.read_field(path)
    assert (dim2, n2, t2) == (1, 16, 2.5)
    assert np.array_equal(data, field)


def test_state_snapshot_roundtrip(tmp_path):
    g = Grid(1, 32)
    spec = InitSpec(kind="single_mode", amplitudes={"rho": 0.1, "u": 0.05, "n": 0.02, "v": 0.03})
    state = generate_initial(spec, g)
    entries = recordio.write_state_snapshot(tmp_path, state, 1.25, "final")
    index = recordio.write_snapshot_index(tmp_path, entries, g.dim, g.n)
    loaded = recordio.load_state(index, g)
    assert np.array_equal(loaded.rho, state.rho)
    assert np.array_equal(loaded.m, state.m)
    assert np.array_equal(loaded.n, state.n)
    assert np.array_equal(loaded.j, state.j)


def test_from_snapshot_init(tmp_path):
    g = Grid(1, 32)
    spec = InitSpec(kind="single_mode", amplitudes={"rho": 0.1, "u": 0.05, "n": 0.02, "v": 0.03})
    state = generate_initial(spec, g)
    entries = recordio.write_state_snapshot(tmp_path, state, 0.0, "init")
    index = recordio.write_snapshot_index(tmp_path, entries, g.dim, g.n)
    spec2 = InitSpec(kind="from_snapshot", snapshot=str(index))
    restored = generate_initial(spec2, g)
    assert np.array_equal(restored.rho, state.rho)


def test_plot_data(tmp_path):
    g, result = small_run()
    path = tmp_path / "plot.dat"
    recordio.write_plot_data(path, result.records)
    lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    assert len(lines) == len(result.records)
    t, log_l, log_e = (float(v) for v in lines[0].split())
    assert t == 0.0
    assert log_l == pytest.approx(math.log(result.records[0].functionals.L))
