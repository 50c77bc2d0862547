"""Operator algebra on weighted grid spaces and its continuation."""
from ..params import continue_to_imaginary
from .evolution import (correlation, heisenberg_action, heisenberg_operator,
                        stationary_generator, taylor_heisenberg,
                        time_derivative_recursion,
                        two_time_position_correlation)
from .operators import (AccelerationFields, OperatorMatrix,
                        acceleration_function, averaging_bands,
                        closed_derivative_bands, closed_laplacian_bands,
                        commutator, density_curvature, gauge_map,
                        hamiltonian, mapped_velocity_operator,
                        momentum_operator, position_operator,
                        rho_term_coefficient, velocity_operator)
from .spaces import SPACE_KINDS, WeightedSpace, build_space

__all__ = [
    "AccelerationFields",
    "OperatorMatrix",
    "SPACE_KINDS",
    "WeightedSpace",
    "acceleration_function",
    "averaging_bands",
    "build_space",
    "closed_derivative_bands",
    "closed_laplacian_bands",
    "commutator",
    "continue_to_imaginary",
    "correlation",
    "density_curvature",
    "gauge_map",
    "hamiltonian",
    "heisenberg_action",
    "heisenberg_operator",
    "mapped_velocity_operator",
    "momentum_operator",
    "position_operator",
    "rho_term_coefficient",
    "stationary_generator",
    "taylor_heisenberg",
    "time_derivative_recursion",
    "two_time_position_correlation",
    "velocity_operator",
]
