"""spdelab: a numerical laboratory for degenerate second-order SPDEs.

Subpackages cover the coefficient model and parabolicity predicates,
mollification machinery, commutator checks, Brownian drivers, the
divergence-form grid solver, the nonlinear-filtering pipeline, Picard
iteration for a nonlinear SPDE, and a-priori-estimate diagnostics.
"""

__version__ = "0.1.0"

from .families import ScalarField, parse_field, triangle_wave
from .grids import DensityField, Grid
from .model import CoefficientSet, ParabolicityReport, verify_parabolicity

__all__ = [
    "__version__",
    "ScalarField", "parse_field", "triangle_wave",
    "DensityField", "Grid",
    "CoefficientSet", "ParabolicityReport", "verify_parabolicity",
]
