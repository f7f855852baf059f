"""Config parsing/round-trip and record/snapshot serialization."""
import json
import math
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dragflow import recordio
from dragflow.cli import main
from dragflow.config import (
    ConfigError,
    GridConfig,
    KineticConfig,
    OutputConfig,
    RunConfig,
    load_config,
    parse_config,
    save_config,
    to_dict,
)
from dragflow.dynamics import FluidParams, State
from dragflow.functionals import Recorder
from dragflow.grid import Grid, random_band_limited
from dragflow.initial import KINDS, InitSpec, generate_initial
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


# (section, key, value) that the config once let through or crashed on
MALFORMED = [
    ("params", "drag_on", "false"),
    ("grid", "points_per_axis", "abc"),
    (None, "seed", "a"),
    ("outputs", "snapshot_every", "x"),
    ("kinetic", "particles", 0),
    ("grid", "dim", 1.7),
    ("time", "record_every", True),
    ("params", "gamma", math.inf),
    ("initial_data", "modes", 0),
    ("time", "cfl", 0.4),
]


def with_value(doc, section, key, value):
    doc = json.loads(json.dumps(doc))
    (doc.setdefault(section, {}) if section else doc)[key] = value
    return doc


@pytest.mark.parametrize("section, key, value", MALFORMED)
def test_malformed_value_raises_config_error_naming_key(tmp_path, section, key, value):
    doc = with_value(MINIMAL, section, key, value)
    dotted = f"{section}.{key}" if section else key
    with pytest.raises(ConfigError, match=re.escape(dotted)):
        parse_config(doc)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    assert main(["run", "--config", str(path), "--out", str(tmp_path)]) == 2
    assert not (tmp_path / "records.csv").exists()


def test_missing_keys_take_the_dataclass_defaults():
    doc = json.loads(json.dumps(MINIMAL))
    del doc["grid"]["dim"]
    cfg = parse_config(doc)
    assert cfg.grid == GridConfig(points_per_axis=32)
    assert cfg.outputs == OutputConfig() and cfg.kinetic == KineticConfig()
    assert (cfg.sigma_override, cfg.seed) == (None, 0)
    for section, key in [("grid", "points_per_axis"), ("time", "t_end"), ("initial_data", "kind")]:
        doc = json.loads(json.dumps(MINIMAL))
        del doc[section][key]
        with pytest.raises(ConfigError, match=f"missing required key {section}.{key}"):
            parse_config(doc)


def test_from_snapshot_without_snapshot_names_key():
    with pytest.raises(ConfigError, match="initial_data.snapshot"):
        parse_config(with_value(MINIMAL, "initial_data", "kind", "from_snapshot"))


def test_float_fields_read_integers_as_floats():
    cfg = parse_config(with_value(MINIMAL, "params", "gamma", 3))
    assert type(cfg.params.gamma) is float and cfg.params.gamma == 3.0


# -- property tests ---------------------------------------------------------

def finite(**bounds):
    return st.floats(allow_nan=False, allow_infinity=False, **bounds)


OBJECT = st.dictionaries(st.text(max_size=2), finite(), max_size=1)
# values of the wrong JSON type for a field of each annotated type
NOT_A = {
    "float": st.one_of(
        st.booleans(),
        st.text(max_size=4),
        st.lists(finite(), max_size=2),
        OBJECT,
        st.sampled_from([math.inf, -math.inf, math.nan, 10**400]),
    ),
    "int": st.one_of(
        st.booleans(), st.floats(), st.text(max_size=4), st.lists(st.integers(), max_size=2), OBJECT
    ),
    "bool": st.one_of(st.integers(), st.floats(), st.sampled_from(["true", "false"]), OBJECT),
    "str": st.one_of(
        st.booleans(), st.integers(), finite(), st.lists(st.text(max_size=2), max_size=2), OBJECT
    ),
    "fields": st.one_of(
        st.lists(finite(), max_size=2),
        st.text(max_size=4),
        st.fixed_dictionaries({"rho": st.text(max_size=4)}),
        st.fixed_dictionaries({"w": finite()}),
    ),
}
NEGATIVE = finite(max_value=0.0, exclude_max=True)
NONPOSITIVE = finite(max_value=0.0)
NOT_A_CFL = NONPOSITIVE | finite(min_value=1.0, exclude_min=True)
# every key of the document: (section, key, type, nullable, out-of-range values or None)
KEYS = [
    ("grid", "dim", "int", False, st.integers().filter(lambda d: d not in (1, 2, 3))),
    ("grid", "points_per_axis", "int", False,
     st.integers(max_value=7) | st.integers(min_value=4).map(lambda k: 2 * k + 1)),
    ("params", "gamma", "float", False, finite(max_value=1.0)),
    ("params", "mu", "float", False, NONPOSITIVE),
    ("params", "lam", "float", False, finite(max_value=-2.0)),  # MINIMAL has mu = 1
    ("params", "drag_on", "bool", False, None),
    ("time", "t_end", "float", False, NEGATIVE),
    ("time", "cfl_advective", "float", False, NOT_A_CFL),
    ("time", "cfl_diffusive", "float", False, NOT_A_CFL),
    ("time", "dt_max", "float", False, NONPOSITIVE),
    ("time", "scheme", "str", False,
     st.text(max_size=8).filter(lambda s: s.lower() not in ("rk4", "ssp_rk3"))),
    ("time", "record_every", "int", False, st.integers(max_value=0)),
    ("initial_data", "kind", "str", False, st.text(max_size=8).filter(lambda s: s not in KINDS)),
    ("initial_data", "amplitudes", "fields", False, None),
    ("initial_data", "phases", "fields", False, None),
    ("initial_data", "base_rho", "float", False, NONPOSITIVE),
    ("initial_data", "modes", "int", False, st.integers(max_value=0)),
    ("initial_data", "snapshot", "str", True, None),
    ("outputs", "records_path", "str", False, None),
    ("outputs", "snapshots_path", "str", True, None),
    ("outputs", "snapshot_every", "int", True, st.integers(max_value=0)),
    ("kinetic", "particles", "int", False, st.integers(max_value=0)),
    ("kinetic", "compare_time", "float", False, NONPOSITIVE),
    (None, "sigma_override", "float", True, NEGATIVE),
    (None, "seed", "int", False, st.integers(max_value=-1)),
]


def test_key_table_covers_every_config_key():
    doc = to_dict(parse_config(MINIMAL))
    keys = {(s, k) for s, sec in doc.items() if isinstance(sec, dict) for k in sec}
    keys |= {(None, k) for k, v in doc.items() if k != "schema" and not isinstance(v, dict)}
    assert {(s, k) for s, k, *_ in KEYS} == keys


@st.composite
def bad_documents(draw):
    section, key, kind, nullable, out_of_range = draw(st.sampled_from(KEYS))
    bad = NOT_A[kind] if nullable else NOT_A[kind] | st.none()
    if out_of_range is not None:
        bad = bad | out_of_range
    dotted = f"{section}.{key}" if section else key
    return with_value(to_dict(parse_config(MINIMAL)), section, key, draw(bad)), dotted


@settings(max_examples=300, deadline=None, database=None)
@given(bad_documents())
def test_any_bad_value_raises_config_error_naming_its_key(case):
    doc, dotted = case
    with pytest.raises(ConfigError) as err:
        parse_config(doc)
    assert dotted in str(err.value)


FIELD_VALUES = st.dictionaries(
    st.sampled_from(["rho", "u", "n", "v"]), finite() | st.integers(-5, 5)
)
VALID_CONFIGS = st.builds(
    RunConfig,
    grid=st.builds(
        GridConfig,
        dim=st.sampled_from([1, 2, 3]),
        points_per_axis=st.integers(4, 512).map(lambda k: 2 * k),
    ),
    params=st.builds(
        FluidParams,
        gamma=finite(min_value=1.0, exclude_min=True),
        mu=finite(min_value=1e-3, max_value=1e3),
        lam=finite(min_value=-1.9e-3, max_value=1e3),
        drag_on=st.booleans(),
    ),
    time=st.builds(
        TimeConfig,
        t_end=finite(min_value=0.0),
        cfl_advective=finite(min_value=1e-6, max_value=1.0),
        cfl_diffusive=finite(min_value=1e-6, max_value=1.0),
        dt_max=finite(min_value=1e-9),
        scheme=st.sampled_from(["rk4", "ssp_rk3"]),
        record_every=st.integers(1, 10**9),
    ),
    initial_data=st.builds(
        InitSpec,
        kind=st.sampled_from(KINDS),
        amplitudes=FIELD_VALUES,
        phases=FIELD_VALUES,
        base_rho=finite(min_value=1e-6, max_value=1e6),
        modes=st.integers(1, 64),
        snapshot=st.text(max_size=8),  # kind from_snapshot needs one
    ),
    outputs=st.builds(
        OutputConfig,
        records_path=st.text(max_size=8),
        snapshots_path=st.none() | st.text(max_size=8),
        snapshot_every=st.none() | st.integers(1, 10**6),
    ),
    kinetic=st.builds(
        KineticConfig,
        particles=st.integers(1, 10**7),
        compare_time=finite(min_value=1e-6, max_value=1e3),
    ),
    sigma_override=st.none() | finite(min_value=0.0),
    seed=st.integers(0, 2**63),
)


@settings(max_examples=200, deadline=None, database=None)
@given(VALID_CONFIGS)
def test_config_round_trips_through_json(cfg):
    assert parse_config(to_dict(cfg)) == cfg
    assert parse_config(json.loads(json.dumps(to_dict(cfg)))) == cfg


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


def random_state(dim, n, seed, amp):
    """An admissible state: 1 + amp * (band-limited field) densities, amp-sized velocities."""
    g = Grid(dim, n)
    rng = np.random.default_rng(seed)

    def field():
        return amp * random_band_limited(g, rng)

    rho = 1.0 + field()
    n_pert = field()
    u = np.stack([field() for _ in range(dim)])
    v = np.stack([field() for _ in range(dim)])
    return State(g, rho, rho * u, n_pert, (1.0 + n_pert) * v)


STATES = st.builds(
    random_state,
    dim=st.integers(1, 3),
    n=st.sampled_from([8, 16]),
    seed=st.integers(0, 2**32 - 1),
    amp=st.floats(1e-3, 0.1),
)


@settings(max_examples=30, deadline=None, database=None)
@given(
    STATES,
    st.floats(0.0, 1e3),
    st.floats(1e-6, 1.0),
    st.floats(1e-6, 1.0),
    st.sampled_from([(), ("stop:blowup",), ("stop:vacuum_breach",)]),
)
def test_records_csv_round_trips_random_states(tmp_path_factory, state, t, h0, h1, stop):
    g = state.grid
    recorder = Recorder(g, FluidParams(gamma=2.0, mu=1.0, lam=0.0))
    ev = recorder.evaluate(state)
    records = [
        recorder.record(t - h0, state, evaluation=ev),
        recorder.record(t, state, window=((h0, ev), (h1, ev)), evaluation=ev),
        recorder.record(t + h1, state, flags=stop, evaluation=ev),
    ]
    path = tmp_path_factory.mktemp("records") / "records.csv"
    recordio.write_records(path, records, g.dim)
    rows = recordio.read_records(path)
    assert len(rows) == len(records)
    for row, rec in zip(rows, records):
        assert list(row) == recordio._columns(g.dim)
        for name, want in zip(row, recordio.record_row(rec, g.dim)):
            got = row[name]
            assert got == want or (got != got and want != want), name  # nan matches nan


@settings(max_examples=30, deadline=None, database=None)
@given(STATES, st.floats(0.0, 1e6))
def test_state_snapshot_round_trips_random_states(tmp_path_factory, state, t):
    directory = tmp_path_factory.mktemp("snapshot")
    entries = recordio.write_state_snapshot(directory, state, t, "x")
    index = recordio.write_snapshot_index(directory, entries, state.grid.dim, state.grid.n)
    loaded = recordio.load_state(index, state.grid)
    for name in ("rho", "m", "n", "j"):
        assert np.array_equal(getattr(loaded, name), getattr(state, name)), name


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
