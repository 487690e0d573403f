"""Expected values of functionals of time-fractional diffusion problems.

The package samples a diffusivity field with an affine-parametric sine
expansion, solves the Caputo subdiffusion equation by a P1 Galerkin method
with second-order graded-mesh time stepping, and averages linear
functionals of the solution over interlaced polynomial lattice QMC points.

Modules
-------
field      parametric diffusivity fields and bounds checking
qmc        interlaced polynomial lattice rules and CBC construction
fem        triangulation, P1 assembly, Ritz projection, functionals
tfrac      graded time meshes, convolution weights, trajectory solver
estimator  QMC estimation plus convergence / truncation / refinement studies
cli        command-line front end
"""

from .errors import (ConfigurationError, DomainError, FracUQError,
                     SolverError, ToleranceError, UsageError, ValidationError)
from .estimator import (RunConfig, convergence_table, estimate,
                        spacetime_refinement_study, truncation_study)
from .fem import assemble_mass, triangulate_unit_square
from .field import build_example_field, build_sine_table_field, verify_bounds
from .qmc import InterlacedLatticeRule, cbc_rule, load_gen_vector
from .tfrac import graded_mesh, l2J_norm

__version__ = "0.1.0"

__all__ = [
    "FracUQError", "ConfigurationError", "DomainError", "ValidationError",
    "SolverError", "ToleranceError", "UsageError",
    "build_example_field", "build_sine_table_field", "verify_bounds",
    "InterlacedLatticeRule", "cbc_rule", "load_gen_vector",
    "triangulate_unit_square", "assemble_mass",
    "graded_mesh", "l2J_norm",
    "RunConfig", "estimate", "convergence_table", "truncation_study",
    "spacetime_refinement_study",
    "__version__",
]
