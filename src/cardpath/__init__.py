"""cardpath: lattice path sums over a countable-coordinate point model.

Modules
  intermediate_set  countable coordinates, unit sets, seeded continuous images
  amplitude         complex amplitude pairs, squared-modulus rule, windings
  lattice           time/space grids, paths, midpoint-rule action
  propagator        pinned kernels: enumeration, transfer matrix, Euclidean MC
  classical_limit   stationary paths and small-hbar concentration scans
  oracles           closed-form kernels and independent slow checks
  cli               config-driven experiment runner
"""
from .amplitude import (Amplitude, WaveSample, born_probability,
                        interference_cross_term, phase_from_count, superpose)
from .classical_limit import (ConcentrationScan, classical_path,
                              concentration_scan,
                              finite_difference_action_gradient)
from .errors import CardpathError
from .intermediate_set import (MappingDistribution, realize_images,
                               unit_set_counts)
from .lattice import (LagrangianSpec, LatticePath, SpaceGrid, TimeGrid,
                      discretized_action, free_particle, harmonic_oscillator,
                      linear_potential, winding_of)
from .oracles import AnalyticKernel, analytic_propagator, naive_enumeration, \
    shooting_euler_lagrange
from .propagator import (PropagatorConfig, PropagatorResult, compose,
                         convergence_recipe, propagate_enumerate,
                         propagate_monte_carlo_euclidean,
                         propagate_transfer_matrix)

__version__ = "0.1.0"

__all__ = [
    "Amplitude", "WaveSample", "born_probability", "interference_cross_term",
    "phase_from_count", "superpose",
    "ConcentrationScan", "classical_path", "concentration_scan",
    "finite_difference_action_gradient",
    "CardpathError",
    "MappingDistribution", "realize_images", "unit_set_counts",
    "LagrangianSpec", "LatticePath", "SpaceGrid", "TimeGrid",
    "discretized_action", "free_particle", "harmonic_oscillator",
    "linear_potential", "winding_of",
    "AnalyticKernel", "analytic_propagator", "naive_enumeration",
    "shooting_euler_lagrange",
    "PropagatorConfig", "PropagatorResult", "compose", "convergence_recipe",
    "propagate_enumerate", "propagate_monte_carlo_euclidean",
    "propagate_transfer_matrix",
    "__version__",
]
