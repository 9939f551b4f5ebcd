"""Desk-scale solver for a heated free-boundary channel with moving
contact points: static meniscus, flattened-geometry operators, corner
regularity probes, heat and momentum stepping, energy bookkeeping."""

from .params import (ConstraintError, PhysicalParams, RegularityExponents,
                     compute_eps_max, select_exponents)
from .equilibrium import EquilibriumSurface, solve_equilibrium
from .geometry import Grid, GeometryFields, build_geometry, make_grid
from .corner import angular_eigenvalues, regularity_threshold, \
    wedge_poisson_probe
from .heat import HeatState, step_fd
from .flow import (CoupledProblem, FlowState, SpillError, StabilityError,
                   coupled_step, construct_flow_initial_data, momentum_step)
from .diagnostics import EnergyReport, energy_report, fit_decay, \
    surface_norm

__version__ = "0.1.0"

__all__ = [
    "ConstraintError", "PhysicalParams", "RegularityExponents",
    "compute_eps_max", "select_exponents",
    "EquilibriumSurface", "solve_equilibrium",
    "Grid", "GeometryFields", "build_geometry", "make_grid",
    "angular_eigenvalues", "regularity_threshold", "wedge_poisson_probe",
    "HeatState", "step_fd",
    "CoupledProblem", "FlowState", "SpillError", "StabilityError",
    "coupled_step", "construct_flow_initial_data", "momentum_step",
    "EnergyReport", "energy_report", "fit_decay", "surface_norm",
    "__version__",
]
