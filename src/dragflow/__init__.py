"""Periodic-domain simulator for drag-coupled two-phase flow.

A pressureless particle phase and an isentropic viscous fluid exchange
momentum through a relaxation drag force on the torus.  The package pairs a
pseudo-spectral solver for the coupled system with a diagnostics engine
that evaluates the conserved quantities, the energy balances, the
fluctuation (Lyapunov-type) functionals and their exact decay identities,
and a 1-D particle reference solver for the single-velocity closure of the
underlying kinetic description.
"""

from .dynamics import FluidParams, State, rhs, sound_speed_max
from .functionals import (
    Averages,
    DecayFit,
    DiagnosticsRecord,
    Recorder,
    alignment_check,
    alignment_target,
    averages,
    characteristic_lower_bound_check,
    decay_fit,
    pressure_potential,
    pressure_potential_bounds,
)
from .grid import BOGOVSKII_CONSTANT, Grid
from .initial import InitSpec, generate_initial
from .kinetic import ParticleEnsemble, closure_gap, deposit, kinetic_run, push
from .stepping import RunResult, Status, TimeConfig, compute_dt, run, step

__version__ = "0.1.0"

__all__ = [
    "BOGOVSKII_CONSTANT",
    "Averages",
    "DecayFit",
    "DiagnosticsRecord",
    "FluidParams",
    "Grid",
    "InitSpec",
    "ParticleEnsemble",
    "Recorder",
    "RunResult",
    "State",
    "Status",
    "TimeConfig",
    "alignment_check",
    "alignment_target",
    "averages",
    "characteristic_lower_bound_check",
    "closure_gap",
    "compute_dt",
    "decay_fit",
    "deposit",
    "generate_initial",
    "kinetic_run",
    "pressure_potential",
    "pressure_potential_bounds",
    "push",
    "rhs",
    "run",
    "sound_speed_max",
    "step",
]
