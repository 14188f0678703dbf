"""Rectangular space-time grids, subdomain masks, discrete quadrature, and
centered difference stencils on space-time arrays.

Nodes include the boundary; unknowns live on interior nodes (clamped
boundary values are identically zero).  Fields carry one value per
(spatial node, time level k = 0..nt).  All containers are immutable value
data after construction; operations are pure.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyMask, InvalidGrid, ShapeMismatch

MIN_NODES_PER_AXIS = 6  # 13-point biharmonic stencil with ghost handling
MIN_TIME_STEPS = 4


def _as_tuple(value, dim, name):
    if np.isscalar(value):
        return (value,) * dim
    out = tuple(value)
    if len(out) != dim:
        raise InvalidGrid(f"{name} must have {dim} entries, got {len(out)}")
    return out


@dataclass(frozen=True)
class Grid:
    """Uniform tensor grid on a rectangle with uniform time levels."""

    dim: int
    lengths: tuple
    nx: tuple
    T: float
    nt: int
    h: tuple = field(init=False)
    dt: float = field(init=False)
    n_interior: int = field(init=False)
    hd: float = field(init=False)  # spatial cell volume h^d

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise InvalidGrid(f"dim must be 1 or 2, got {self.dim}")
        if any(n < MIN_NODES_PER_AXIS for n in self.nx):
            raise InvalidGrid(f"need nx >= {MIN_NODES_PER_AXIS} per axis, got {self.nx}")
        if self.nt < MIN_TIME_STEPS:
            raise InvalidGrid(f"need nt >= {MIN_TIME_STEPS}, got {self.nt}")
        if not all(math.isfinite(v) and v > 0 for v in (*self.lengths, self.T)):
            raise InvalidGrid("lengths and T must be finite and positive")
        object.__setattr__(self, "h", tuple(L / (n - 1) for L, n in zip(self.lengths, self.nx)))
        object.__setattr__(self, "dt", self.T / self.nt)
        object.__setattr__(self, "n_interior", int(np.prod(self.interior_shape)))
        object.__setattr__(self, "hd", float(np.prod(self.h)))

    @property
    def interior_shape(self):
        return tuple(n - 2 for n in self.nx)

    def coords(self, axis):
        return np.linspace(0.0, self.lengths[axis], self.nx[axis])

    def times(self):
        return np.linspace(0.0, self.T, self.nt + 1)

    def meshes(self):
        """Coordinate arrays broadcast to the full spatial shape."""
        axes = [self.coords(a) for a in range(self.dim)]
        return np.meshgrid(*axes, indexing="ij")

    def interior_slices(self):
        return tuple(slice(1, -1) for _ in range(self.dim))

    def interior_bool(self):
        keep = np.zeros(self.nx, dtype=bool)
        keep[self.interior_slices()] = True
        return keep

    def node_weights(self):
        """Per-node quadrature weights for spatial integrals.

        Interior nodes own rectangle cells of width h; the cells next to a
        wall absorb the boundary strip (width 3h/2), so integrating a
        constant over the full interior mask recovers the exact domain
        measure.  Boundary nodes carry weight zero.
        """
        cells = [np.ones(n) for n in self.nx]
        for fac in cells:
            fac[0] = fac[-1] = 0.0
            fac[1] = fac[-2] = 1.5
        return functools.reduce(np.kron, cells).reshape(self.nx) * self.hd

    def to_interior(self, full):
        """Flatten the interior values of a spatial array (row-major)."""
        full = np.asarray(full)
        if full.shape != self.nx:
            raise ShapeMismatch(f"expected spatial shape {self.nx}, got {full.shape}")
        return full[self.interior_slices()].reshape(-1).copy()

    def from_interior(self, vec):
        """Embed an interior vector into a full spatial array (boundary zero)."""
        vec = np.asarray(vec, dtype=float)
        if vec.shape != (self.n_interior,):
            raise ShapeMismatch(f"expected {self.n_interior} interior values, got {vec.shape}")
        full = np.zeros(self.nx)
        full[self.interior_slices()] = vec.reshape(self.interior_shape)
        return full


def build_grid(dim, lengths, nx, T, nt) -> Grid:
    dim = int(dim)
    if dim not in (1, 2):
        raise InvalidGrid(f"dim must be 1 or 2, got {dim}")
    lengths = tuple(float(L) for L in _as_tuple(lengths, dim, "lengths"))
    nx = tuple(int(n) for n in _as_tuple(nx, dim, "nx"))
    return Grid(dim=dim, lengths=lengths, nx=nx, T=float(T), nt=int(nt))


@dataclass(frozen=True)
class SubdomainMask:
    """0/1 indicator on strictly interior spatial nodes."""

    grid: Grid
    indicator: np.ndarray

    def __post_init__(self):
        ind = np.asarray(self.indicator, dtype=bool)
        if ind.shape != self.grid.nx:
            raise ShapeMismatch(f"mask shape {ind.shape} != grid shape {self.grid.nx}")
        if np.any(ind & ~self.grid.interior_bool()):
            raise EmptyMask("mask nodes must be strictly interior")
        object.__setattr__(self, "indicator", ind)

    @property
    def node_count(self):
        return int(self.indicator.sum())

    def interior_vector(self):
        """Indicator restricted to interior nodes, flattened, as floats."""
        return self.indicator[self.grid.interior_slices()].reshape(-1).astype(float)

    def union(self, other):
        return SubdomainMask(self.grid, self.indicator | other.indicator)

    def intersects(self, other):
        return bool(np.any(self.indicator & other.indicator))


def build_mask(grid, box) -> SubdomainMask:
    """Indicator of interior nodes falling inside a per-axis closed box."""
    if grid.dim == 1 and np.isscalar(box[0]):
        box = (box,)
    if len(box) != grid.dim:
        raise ShapeMismatch(f"box needs {grid.dim} intervals, got {len(box)}")
    ind = grid.interior_bool()
    for axis, (lo, hi) in enumerate(box):
        x = grid.coords(axis)
        # tolerate roundoff at box edges so nodes on the edge are included
        tol = 1e-12 * max(1.0, abs(hi), abs(lo))
        inside = (x >= lo - tol) & (x <= hi + tol)
        shape = [1] * grid.dim
        shape[axis] = grid.nx[axis]
        ind = ind & inside.reshape(shape)
    if not ind.any():
        raise EmptyMask(f"no interior node falls in box {box}")
    return SubdomainMask(grid, ind)


def full_mask(grid) -> SubdomainMask:
    return SubdomainMask(grid, grid.interior_bool())


@dataclass(frozen=True)
class SpaceTimeField:
    """Scalar field sampled at every node and time level k = 0..nt."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        expected = (self.grid.nt + 1,) + self.grid.nx
        if vals.shape != expected:
            raise ShapeMismatch(f"field shape {vals.shape} != {expected}")
        if not np.all(np.isfinite(vals)):
            raise ShapeMismatch("field contains non-finite entries")
        object.__setattr__(self, "values", vals)

    @classmethod
    def zeros(cls, grid):
        return cls(grid, np.zeros((grid.nt + 1,) + grid.nx))

    @classmethod
    def from_interior(cls, grid, interior):
        """Build from an array of interior values, one row per time level."""
        interior = np.asarray(interior, dtype=float)
        if interior.shape != (grid.nt + 1, grid.n_interior):
            raise ShapeMismatch(
                f"expected interior array {(grid.nt + 1, grid.n_interior)}, got {interior.shape}"
            )
        vals = np.zeros((grid.nt + 1,) + grid.nx)
        vals[(slice(None),) + grid.interior_slices()] = interior.reshape(
            (grid.nt + 1,) + grid.interior_shape
        )
        return cls(grid, vals)

    @classmethod
    def from_spatial(cls, grid, spatial):
        """Repeat one spatial array over all time levels."""
        spatial = np.asarray(spatial, dtype=float)
        if spatial.shape != grid.nx:
            raise ShapeMismatch(f"spatial shape {spatial.shape} != {grid.nx}")
        return cls(grid, np.broadcast_to(spatial, (grid.nt + 1,) + grid.nx).copy())

    def interior(self):
        """Interior values as an array of shape (nt+1, n_interior)."""
        sl = (slice(None),) + self.grid.interior_slices()
        return self.values[sl].reshape(self.grid.nt + 1, -1).copy()

    def level(self, k):
        return self.values[k]

    def __add__(self, other):
        return SpaceTimeField(self.grid, self.values + other.values)

    def __sub__(self, other):
        return SpaceTimeField(self.grid, self.values - other.values)

    def __mul__(self, scalar):
        return SpaceTimeField(self.grid, self.values * float(scalar))

    __rmul__ = __mul__


def time_weights(grid):
    """Trapezoidal weights over time levels (half weights at k=0, nt)."""
    w = np.full(grid.nt + 1, grid.dt)
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def integrate(field, mask, weight=None):
    """Space-time integral of field*weight over the masked region.

    Trapezoidal rule in time; in space each masked node contributes its
    node weight (see Grid.node_weights).  Exact for constants on the full
    interior mask.
    """
    grid = field.grid
    if mask.grid is not grid and mask.grid != grid:
        raise ShapeMismatch("mask and field live on different grids")
    vals = field.values
    if weight is not None:
        if weight.grid != grid:
            raise ShapeMismatch("weight and field live on different grids")
        vals = vals * weight.values
    nw = grid.node_weights() * mask.indicator
    per_level = np.tensordot(vals, nw, axes=(tuple(range(1, vals.ndim)), tuple(range(nw.ndim))))
    return float(np.dot(time_weights(grid), per_level))


def inner_h(grid, u, v):
    """Discrete spatial inner product h^d * sum over interior nodes."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape == grid.nx:
        u = grid.to_interior(u)
    if v.shape == grid.nx:
        v = grid.to_interior(v)
    if u.shape != v.shape:
        raise ShapeMismatch(f"shape mismatch {u.shape} vs {v.shape}")
    return grid.hd * float(np.dot(u, v))


def norm_h(grid, u):
    return math.sqrt(max(inner_h(grid, u, u), 0.0))


def _axis_shifts(grid, ax):
    """Index tuples (centre, plus, minus) along spatial axis ax of an (nt+1, *nx) array."""
    sl_c = [slice(None)] * (grid.dim + 1)
    sl_p = [slice(None)] * (grid.dim + 1)
    sl_m = [slice(None)] * (grid.dim + 1)
    sl_c[ax + 1] = slice(1, -1)
    sl_p[ax + 1] = slice(2, None)
    sl_m[ax + 1] = slice(0, -2)
    return tuple(sl_c), tuple(sl_p), tuple(sl_m)


def _st_axis_difference(grid, values, ax):
    """Centered first difference along spatial axis ax of an (nt+1, *nx) array, boundary rows zero."""
    c, p, m = _axis_shifts(grid, ax)
    g = np.zeros_like(values)
    g[c] = (values[p] - values[m]) / (2.0 * grid.h[ax])
    return g


def st_gradient(grid, values):
    """Centered spatial gradient of an (nt+1, *nx) array, boundary rows zero."""
    return tuple(_st_axis_difference(grid, values, ax) for ax in range(grid.dim))


def st_divergence(grid, comps):
    """Centered divergence of a per-axis tuple of (nt+1, *nx) arrays."""
    out = np.zeros_like(comps[0])
    for ax in range(grid.dim):
        out = out + _st_axis_difference(grid, comps[ax], ax)
    return out


def st_second_differences(grid, values):
    """Centered second differences of an (nt+1, *nx) array, boundary rows zero.

    One array per axis (d^2/dx_ax^2), then in 2D the mixed difference
    d^2/dx dy, which is zero on every boundary row.
    """
    out = []
    for ax in range(grid.dim):
        c, p, m = _axis_shifts(grid, ax)
        d2 = np.zeros_like(values)
        d2[c] = (values[p] - 2.0 * values[c] + values[m]) / grid.h[ax] ** 2
        out.append(d2)
    if grid.dim == 2:
        dxy = np.zeros_like(values)
        dxy[:, 1:-1, 1:-1] = (
            values[:, 2:, 2:] - values[:, 2:, :-2] - values[:, :-2, 2:] + values[:, :-2, :-2]
        ) / (4.0 * grid.h[0] * grid.h[1])
        out.append(dxy)
    return tuple(out)
