"""Initial-data generation for the conservative state."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dynamics import State
from .grid import Grid

KINDS = ("uniform_drag", "single_mode", "multi_mode", "from_snapshot")


class InadmissibleInit(ValueError):
    """Requested initial data would violate positivity, or its snapshot
    cannot be read on the requested grid or holds an inadmissible state."""


@dataclass
class InitSpec:
    kind: str
    amplitudes: dict = field(default_factory=dict)
    phases: dict = field(default_factory=dict)
    base_rho: float = 1.0
    modes: int = 3  # multi_mode only
    snapshot: str | None = None  # from_snapshot only

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InadmissibleInit(f"kind must be one of {', '.join(KINDS)}, got {self.kind!r}")
        if not self.base_rho > 0.0:
            raise InadmissibleInit("base_rho must be positive")
        if self.modes < 1:
            raise InadmissibleInit("modes must be >= 1")
        if self.kind == "from_snapshot" and self.snapshot is None:
            raise InadmissibleInit("snapshot is required when kind is from_snapshot")

    def amp(self, name: str) -> float:
        return float(self.amplitudes.get(name, 0.0))

    def phase(self, name: str) -> float:
        return float(self.phases.get(name, 0.0))


def generate_initial(
    spec: InitSpec, grid: Grid, rng: np.random.Generator | None = None
) -> State:
    """Build a State from an init description; conservative variables formed exactly.

    single_mode: rho = base + a*cos(x1 + ph), u = b*sin(x1 + ph) e1,
    n = c*cos(x1 + ph), v = d*sin(x1 + ph) e1.  multi_mode superposes the
    first ``modes`` wavenumbers with 1/k^2 amplitude falloff and phases
    drawn from ``rng``.  All generated n have exact zero mean.
    """
    if spec.kind == "from_snapshot":
        from .recordio import load_state

        try:
            state = load_state(spec.snapshot, grid)
            state.validate()
        except (OSError, ValueError, KeyError) as err:
            raise InadmissibleInit(f"initial_data.snapshot {spec.snapshot!r}: {err}") from err
        return state

    x1 = grid.coords()[0]
    rho = np.full(grid.shape, spec.base_rho)
    u = grid.zeros_vector()
    n = grid.zeros()
    v = grid.zeros_vector()

    if spec.kind == "uniform_drag":
        u[0] += spec.amp("u")
        v[0] += spec.amp("v")
    elif spec.kind == "single_mode":
        rho = spec.base_rho + spec.amp("rho") * np.cos(x1 + spec.phase("rho"))
        u[0] = spec.amp("u") * np.sin(x1 + spec.phase("u"))
        n = spec.amp("n") * np.cos(x1 + spec.phase("n"))
        v[0] = spec.amp("v") * np.sin(x1 + spec.phase("v"))
    elif spec.kind == "multi_mode":
        if rng is None:
            rng = np.random.default_rng(0)
        ks = np.arange(1, spec.modes + 1)
        phases = {name: rng.uniform(0.0, 2.0 * np.pi, spec.modes) for name in ("rho", "u", "n", "v")}
        rho = np.full(grid.shape, spec.base_rho, dtype=float)
        for k, ph in zip(ks, phases["rho"]):
            rho = rho + spec.amp("rho") * np.cos(k * x1 + ph) / k**2
        for k, ph in zip(ks, phases["u"]):
            u[0] += spec.amp("u") * np.sin(k * x1 + ph) / k**2
        for k, ph in zip(ks, phases["n"]):
            n = n + spec.amp("n") * np.cos(k * x1 + ph) / k**2
        for k, ph in zip(ks, phases["v"]):
            v[0] += spec.amp("v") * np.sin(k * x1 + ph) / k**2

    if float(np.min(rho)) <= 0.0:
        raise InadmissibleInit(
            f"min rho_0 = {np.min(rho):.3e} <= 0; reduce amplitudes or raise base_rho"
        )
    if float(np.min(1.0 + n)) <= 0.0:
        raise InadmissibleInit(f"min(1 + n_0) = {np.min(1.0 + n):.3e} <= 0")
    n = n - np.mean(n)  # exact zero mean for the conserved perturbation

    state = State(grid, rho, rho[None] * u, n, (1.0 + n)[None] * v)
    state.validate()
    return state
