"""Wave solutions, reference states, drifts, and density evolution.

Nothing here touches a file: density snapshots are written by
:mod:`nelsonlab.harness.files`.
"""
from ..params import DiffusionParams, continue_to_imaginary, diffusion_params
from .drift import DEFAULT_B_CAP, DriftField, drift_fields, log_density_gradient
from .fokker_planck import DensityEvolution, evolve_density_fokker_planck, l1_distance
from .oracles import (ORACLE_KINDS, analytic_oracle, free_gaussian_variance,
                      ho_ground_density, ho_potential)
from .schrodinger import solve_schrodinger
from .wave import DEFAULT_RHO_FLOOR, WaveSolution, decompose

__all__ = [
    "DEFAULT_B_CAP",
    "DEFAULT_RHO_FLOOR",
    "DensityEvolution",
    "DiffusionParams",
    "DriftField",
    "ORACLE_KINDS",
    "WaveSolution",
    "analytic_oracle",
    "continue_to_imaginary",
    "decompose",
    "diffusion_params",
    "drift_fields",
    "evolve_density_fokker_planck",
    "free_gaussian_variance",
    "ho_ground_density",
    "ho_potential",
    "l1_distance",
    "log_density_gradient",
    "solve_schrodinger",
]
