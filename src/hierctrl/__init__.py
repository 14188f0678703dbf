"""Stackelberg-Nash hierarchical control of clamped fourth-order parabolic
equations: follower equilibria, penalized HUM null control, semilinear
Picard extensions, and Carleman-weight and observability checks."""

__version__ = "0.1.0"

from .mesh import Grid, SubdomainMask, build_grid, build_mask, full_mask, integrate
from .operators import ProblemSpec

__all__ = [
    "Grid",
    "SubdomainMask",
    "ProblemSpec",
    "build_grid",
    "build_mask",
    "full_mask",
    "integrate",
    "__version__",
]
