"""Stackelberg-Nash hierarchical control of clamped fourth-order parabolic
equations: follower equilibria, penalized HUM null control, semilinear
Picard extensions, and Carleman-weight and observability checks."""

__version__ = "0.1.0"

from .mesh import Grid, SpaceTimeField, SubdomainMask, build_grid, build_mask, full_mask, integrate
from .operators import ProblemSpec, solve_adjoint, solve_forward

__all__ = [
    "Grid",
    "SpaceTimeField",
    "SubdomainMask",
    "ProblemSpec",
    "build_grid",
    "build_mask",
    "full_mask",
    "integrate",
    "solve_forward",
    "solve_adjoint",
    "__version__",
]
