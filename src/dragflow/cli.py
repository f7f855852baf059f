"""Command-line driver: runs, validation suites, studies, comparisons.

Exit codes: 0 success, 2 configuration error, 3 run failure (inadmissible
or unreadable initial data included), 4 validation failure.  A study runs
its amplitudes one after another.
"""
from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from itertools import chain
from pathlib import Path

import numpy as np

from . import kinetic, recordio
from .config import ConfigError, RunConfig, load_config
from .functionals import (
    NonPositiveValues,
    Recorder,
    characteristic_lower_bound_check,
    decay_fit,
)
from .grid import BOGOVSKII_CONSTANT, Grid, random_band_limited
from .initial import InadmissibleInit, generate_initial
from .stepping import RunResult, Status, run

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUN = 3
EXIT_VALIDATION = 4


def _build(cfg: RunConfig, seed: int | None):
    grid = Grid(cfg.grid.dim, cfg.grid.points_per_axis)
    rng = np.random.default_rng(cfg.seed if seed is None else seed)
    state = generate_initial(cfg.initial_data, grid, rng)
    recorder = Recorder(grid, cfg.params, sigma=cfg.sigma_override)
    return grid, state, recorder


def _out_path(out_dir: str | None, rel: str) -> Path:
    return Path(out_dir) / rel if out_dir else Path(rel)


class _SnapshottingRecorder:
    """Recorder wrapper that also dumps the fields every k-th record."""

    def __init__(self, inner: Recorder, directory: Path, every: int):
        self.inner = inner
        self.directory = directory
        self.every = max(1, every)
        self.count = 0
        self.entries: list[dict] = []

    def evaluate(self, state, grad_u_max=None):
        return self.inner.evaluate(state, grad_u_max)

    def record(self, t, state, window=None, flags=(), evaluation=None):
        if self.count % self.every == 0:
            self.entries += recordio.write_state_snapshot(
                self.directory, state, t, tag=f"{self.count:06d}"
            )
        self.count += 1
        return self.inner.record(t, state, window=window, flags=flags, evaluation=evaluation)


def cmd_run(args) -> int:
    cfg = load_config(args.config)
    try:
        grid, state, recorder = _build(cfg, args.seed)
        snap = None
        if cfg.outputs.snapshots_path:
            snap_dir = _out_path(args.out, cfg.outputs.snapshots_path)
            snap = _SnapshottingRecorder(
                recorder, snap_dir, cfg.outputs.snapshot_every or 10**9
            )
        result = run(state, cfg.params, cfg.time, snap or recorder)
    except (InadmissibleInit, ValueError) as err:
        print(f"run failed during setup: {err}", file=sys.stderr)
        return EXIT_RUN

    records_path = _out_path(args.out, cfg.outputs.records_path)
    recordio.write_records(records_path, result.records, grid.dim)
    if snap is not None:
        snap.entries += recordio.write_state_snapshot(
            snap.directory, result.final_state, result.t_final, tag="final"
        )
        recordio.write_snapshot_index(snap.directory, snap.entries, grid.dim, grid.n)
    if args.emit_plot_data:
        recordio.write_plot_data(records_path.with_suffix(".plot.dat"), result.records)
    print(
        f"status={result.status.value} steps={result.steps} "
        f"t_final={result.t_final:.6g} records={len(result.records)}"
    )
    return EXIT_OK if result.status == Status.COMPLETED else EXIT_RUN


class _Report:
    def __init__(self):
        self.lines: list[tuple[str, float, float, bool]] = []

    def check(self, name: str, value: float, bound: float, ok: bool) -> None:
        self.lines.append((name, value, bound, ok))

    def check_le(self, name: str, value: float, bound: float) -> None:
        self.check(name, value, bound, bool(value <= bound))

    def emit(self) -> bool:
        all_ok = True
        for name, value, bound, ok in self.lines:
            print(f"{name} {float(value)!r} {float(bound)!r} {'PASS' if ok else 'FAIL'}")
            all_ok = all_ok and ok
        return all_ok


def _spectral_suite(report: _Report, grid: Grid, seed: int) -> None:
    rng = np.random.default_rng(seed)
    max_poisson = 0.0
    max_div = 0.0
    max_poincare = 0.0
    max_lift = 0.0
    cos_x = np.cos(grid.coords()[0])  # attains the Poincare and Bogovskii constants
    for f in chain([cos_x], (random_band_limited(grid, rng) for _ in range(50))):
        fl2 = grid.norms(f).l2
        phi = grid.poisson_mean_zero(f)
        max_poisson = max(max_poisson, grid.norms(grid.laplacian(phi) - f).l2 / fl2)
        b = grid.bogovskii(f)
        max_div = max(max_div, grid.norms(grid.divergence(b) - f).l2 / fl2)
        max_lift = max(max_lift, grid.norms(b).h1 / fl2)
        grad_l2 = math.sqrt(max(grid.norms(f).h1 ** 2 - fl2**2, 0.0))
        max_poincare = max(max_poincare, fl2 / grad_l2 if grad_l2 > 0 else math.inf)
    report.check_le("spectral.poisson_residual", max_poisson, 1e-10)
    report.check_le("spectral.bogovskii_div_residual", max_div, 1e-10)
    report.check_le("spectral.poincare_ratio", max_poincare, 1.0 + 1e-12)
    report.check_le("spectral.bogovskii_h1_constant", max_lift, BOGOVSKII_CONSTANT * (1.0 + 1e-12))


def _series(result: RunResult, name: str) -> np.ndarray:
    return np.array([getattr(r.functionals, name) for r in result.records])


def run_validation(cfg: RunConfig, seed: int | None) -> tuple[_Report, RunResult | None]:
    report = _Report()
    grid, state, recorder = _build(cfg, seed)
    _spectral_suite(report, grid, cfg.seed if seed is None else seed)
    result = run(state, cfg.params, cfg.time, recorder)
    report.check(
        "run.completed",
        float(result.status == Status.COMPLETED),
        1.0,
        result.status == Status.COMPLETED,
    )
    if result.status != Status.COMPLETED:
        report.check("run.status", math.nan, math.nan, False)
        return report, result

    recs = result.records
    mass = np.array([r.averages.rho_c for r in recs])
    report.check_le(
        "conservation.mass_rho_drift",
        float(np.max(np.abs(mass - mass[0])) / abs(mass[0])),
        1e-8,
    )
    report.check_le(
        "conservation.mean_n", float(np.max(np.abs([r.mass_n for r in recs]))), 1e-8
    )
    mom = np.array([r.mom_total for r in recs])
    mom_scale = max(
        float(np.max(np.abs(mom[0]))),
        _series(result, "E_dev")[0] ** 0.5,
        1e-30,
    )
    report.check_le(
        "conservation.momentum_drift",
        float(np.max(np.abs(mom - mom[0])) / mom_scale),
        1e-6,
    )
    report.check_le("run.reprojection_max", result.reprojection_max, 1e-10)
    report.check(
        "run.vacuum_floor_inactive",
        float(result.floor_ever_active),
        0.0,
        not result.floor_ever_active,
    )

    e_series = _series(result, "E")
    e_scale = max(abs(e_series[0]), 1e-30)
    e_increase = float(np.max(np.diff(e_series), initial=0.0)) / e_scale
    report.check_le("energy.monotone_increase", e_increase, 1e-9)
    es = _series(result, "E_sigma")
    es_scale = max(abs(es[0]), 1e-30)
    report.check_le(
        "esigma.monotone_increase", float(np.max(np.diff(es), initial=0.0)) / es_scale, 1e-9
    )

    # inequality suite evaluated on every record by the recorder
    for name in ("jc_momentum", "jc_rate"):
        worst = min(r.checks[name + "_slack"] for r in recs)
        report.check(f"inequality.{name}_min_slack", worst, 0.0, worst >= -1e-10)
    dom_worst = min(r.checks["domination_slack"] for r in recs)
    report.check("inequality.dissipation_domination_min_slack", dom_worst, 0.0, dom_worst >= -1e-12)
    eq_low = min(r.checks["equiv_lower_slack"] for r in recs)
    eq_up = min(r.checks["equiv_upper_slack"] for r in recs)
    report.check("inequality.equivalence_lower_min_slack", eq_low, 0.0, eq_low >= -1e-12)
    report.check("inequality.equivalence_upper_min_slack", eq_up, 0.0, eq_up >= -1e-12)

    char_ok, margins = characteristic_lower_bound_check(recs)
    report.check(
        "characteristic.lower_bound_min_margin",
        float(np.min(margins)),
        0.0,
        char_ok,
    )

    res = np.array(
        [
            r.residuals["energy_balance"]
            for r in recs
            if not math.isnan(r.residuals["energy_balance"])
        ]
    )
    d_mid = np.array(
        [
            r.functionals.D
            for r in recs
            if not math.isnan(r.residuals["energy_balance"])
        ]
    )
    if len(res):
        rel = float(np.max(np.abs(res) / np.maximum(d_mid, 1e-300)))
        report.check_le("identity.energy_residual_over_D", rel, 1e-3)
    return report, result


def cmd_validate(args) -> int:
    cfg = load_config(args.config)
    report, result = run_validation(cfg, args.seed)
    ok = report.emit()
    return EXIT_OK if ok else EXIT_VALIDATION


def _parse_amplitudes(text: str) -> list[float]:
    """The ``--amplitudes`` list: comma-separated finite numbers, at least one."""
    amplitudes = []
    for part in filter(str.strip, text.split(",")):
        try:
            amp = float(part)
        except ValueError:
            amp = math.nan  # rejected below, with the non-finite values
        if not math.isfinite(amp):
            raise ConfigError(f"--amplitudes must list finite numbers, got {part.strip()!r}")
        amplitudes.append(amp)
    if not amplitudes:
        raise ConfigError("--amplitudes lists no amplitude")
    return amplitudes


def cmd_decay_study(args) -> int:
    cfg = load_config(args.config)
    amplitudes = _parse_amplitudes(args.amplitudes)

    def one_row(amp: float) -> dict:
        row = {"amplitude": amp}
        spec = replace(
            cfg.initial_data,
            amplitudes={k: amp for k in ("rho", "u", "n", "v")},
        )
        try:
            _, state, recorder = _build(replace(cfg, initial_data=spec), args.seed)
            result = run(state, cfg.params, cfg.time, recorder)
            if result.status != Status.COMPLETED:
                row["status"] = result.status.value
                return row
            times = [r.t for r in result.records]
            l_vals = [r.functionals.L for r in result.records]
            fit = decay_fit(times, l_vals)
            last = result.records[-1].functionals
            row.update(
                status="completed",
                L0=l_vals[0],
                lambda_hat=fit.lambda_hat,
                r_squared=fit.r_squared,
                u_dist_final=last.u_align_dist,
                v_dist_final=last.v_align_dist,
            )
        except NonPositiveValues:
            row["status"] = "non_positive_values"
        except (InadmissibleInit, ValueError) as err:
            row["status"] = f"error: {err}"
        return row

    rows = [one_row(amp) for amp in amplitudes]

    out_path = _out_path(args.out, "decay_study.csv")
    out_path.parent.mkdir(parents=True, exist_ok=True)
    cols = ["amplitude", "status", "L0", "lambda_hat", "r_squared", "u_dist_final", "v_dist_final"]
    lines = [",".join(cols)]
    for row in rows:
        lines.append(
            ",".join(
                repr(row[c]) if isinstance(row.get(c), float) else str(row.get(c, ""))
                for c in cols
            )
        )
    out_path.write_text("\n".join(lines) + "\n")
    for line in lines:
        print(line)
    failed = any(r.get("status") not in ("completed",) for r in rows)
    return EXIT_RUN if failed else EXIT_OK


def cmd_kinetic_compare(args) -> int:
    cfg = load_config(args.config)
    if cfg.grid.dim != 1:
        print("kinetic-compare requires dim = 1", file=sys.stderr)
        return EXIT_CONFIG
    t_sample = cfg.kinetic.compare_time
    particles = cfg.kinetic.particles

    def once(n_grid: int, n_particles: int) -> kinetic.CompareOutcome:
        grid = Grid(1, n_grid)
        rng = np.random.default_rng(cfg.seed if args.seed is None else args.seed)
        state0 = generate_initial(cfg.initial_data, grid, rng)
        tcfg = replace(cfg.time, t_end=t_sample, record_every=10**9)
        return kinetic.compare_once(grid, state0, cfg.params, tcfg, n_particles)

    try:
        base = once(cfg.grid.points_per_axis, particles)
        fine = once(2 * cfg.grid.points_per_axis, 4 * particles)
    except kinetic.KineticError as err:
        print(f"kinetic-compare failed: {err}", file=sys.stderr)
        return EXIT_RUN
    ratio = fine.rel_diff / base.rel_diff if base.rel_diff > 0 else math.inf
    print(f"base.rel_diff {base.rel_diff!r}")
    print(f"base.diff_rho {base.diff_rho!r}")
    print(f"base.diff_m {base.diff_m!r}")
    print(f"base.closure_theta {base.theta_mass!r}")
    print(f"refined.rel_diff {fine.rel_diff!r}")
    print(f"refined.closure_theta {fine.theta_mass!r}")
    print(f"refinement.ratio {ratio!r}")
    print(f"refinement.improves {'PASS' if ratio < 1.0 else 'FAIL'}")
    print(f"closure.decreases {'PASS' if fine.theta_mass < base.theta_mass else 'FAIL'}")
    ok = ratio < 1.0 and fine.theta_mass < base.theta_mass
    return EXIT_OK if ok else EXIT_VALIDATION


def cmd_bogovskii_test(args) -> int:
    cfg = load_config(args.config)
    grid = Grid(cfg.grid.dim, cfg.grid.points_per_axis)
    report = _Report()
    _spectral_suite(report, grid, cfg.seed if args.seed is None else args.seed)
    ok = report.emit()
    return EXIT_OK if ok else EXIT_VALIDATION


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dragflow",
        description="Periodic-domain two-phase flow simulator with identity diagnostics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="path to a JSON run config")
        p.add_argument("--out", default=None, help="directory for output files")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")

    p_run = sub.add_parser("run", help="run a single simulation and write records")
    common(p_run)
    p_run.add_argument(
        "--emit-plot-data",
        action="store_true",
        help="also write (t, log L, log E_sigma) columns next to the records",
    )
    p_run.set_defaults(func=cmd_run)

    p_val = sub.add_parser("validate", help="run and evaluate the invariant suites")
    common(p_val)
    p_val.set_defaults(func=cmd_validate)

    p_decay = sub.add_parser("decay-study", help="one run per amplitude; fit decay rates")
    common(p_decay)
    p_decay.add_argument(
        "--amplitudes",
        default="0.01,0.02,0.05",
        help="comma-separated initial amplitudes",
    )
    p_decay.set_defaults(func=cmd_decay_study)

    p_kin = sub.add_parser(
        "kinetic-compare", help="particle reference solve vs the grid solver"
    )
    common(p_kin)
    p_kin.set_defaults(func=cmd_kinetic_compare)

    p_bog = sub.add_parser(
        "bogovskii-test", help="elliptic/divergence-lifting property suite"
    )
    common(p_bog)
    p_bog.set_defaults(func=cmd_bogovskii_test)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except InadmissibleInit as err:
        print(f"inadmissible initial data: {err}", file=sys.stderr)
        return EXIT_RUN


if __name__ == "__main__":
    sys.exit(main())
