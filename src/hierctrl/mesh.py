"""Rectangular space-time grids, subdomain masks, discrete quadrature, and
centered difference stencils on space-time arrays.

Nodes include the boundary; unknowns live on interior nodes (clamped
boundary values are identically zero).  A space-time quantity is an
interior (nt+1, n) array, one row per time level k = 0..nt; the full-node
(nt+1, *nx) form, boundary nodes included, serves only the stencils, the
weighted integrals and the field dumps.  All containers are immutable
value data after construction; operations are pure.
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
    """Uniform tensor grid on a rectangle with uniform time levels.

    operator_holder keeps the grid's biharmonic and gradient matrices once
    operators.grid_operators has assembled them.
    """

    dim: int
    lengths: tuple
    nx: tuple
    T: float
    nt: int
    h: tuple = field(init=False)
    dt: float = field(init=False)
    n_interior: int = field(init=False)
    hd: float = field(init=False)  # spatial cell volume h^d
    operator_holder: list = field(init=False, repr=False, compare=False)

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
        object.__setattr__(self, "operator_holder", [])

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

    def to_interior_levels(self, full):
        """The interior values of an (nt+1, *nx) array, as an (nt+1, n) array."""
        full = np.asarray(full)
        if full.shape != (self.nt + 1,) + self.nx:
            raise ShapeMismatch(f"expected space-time shape {(self.nt + 1,) + self.nx}, got {full.shape}")
        return full[(slice(None),) + self.interior_slices()].reshape(self.nt + 1, -1).copy()

    def from_interior_levels(self, arr):
        """Embed an interior (nt+1, n) array into an (nt+1, *nx) array (boundary zero)."""
        arr = np.asarray(arr, dtype=float)
        if arr.shape != (self.nt + 1, self.n_interior):
            raise ShapeMismatch(f"expected interior array {(self.nt + 1, self.n_interior)}, got {arr.shape}")
        full = np.zeros((self.nt + 1,) + self.nx)
        full[(slice(None),) + self.interior_slices()] = arr.reshape((self.nt + 1,) + self.interior_shape)
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
    _interior: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        ind = np.asarray(self.indicator, dtype=bool)
        if ind.shape != self.grid.nx:
            raise ShapeMismatch(f"mask shape {ind.shape} != grid shape {self.grid.nx}")
        if np.any(ind & ~self.grid.interior_bool()):
            raise EmptyMask("mask nodes must be strictly interior")
        object.__setattr__(self, "indicator", ind)
        interior = ind[self.grid.interior_slices()].reshape(-1).astype(float)
        interior.flags.writeable = False
        object.__setattr__(self, "_interior", interior)

    def interior_vector(self):
        """Indicator restricted to interior nodes, flattened, as floats; one
        read-only array, computed when the mask is built."""
        return self._interior

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


def time_weights(grid):
    """Trapezoidal weights over time levels (half weights at k=0, nt)."""
    w = np.full(grid.nt + 1, grid.dt)
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def check_field(grid, values):
    """values as a float full-node (nt+1, *nx) array; ShapeMismatch unless
    it has that shape and finite entries."""
    vals = np.asarray(values, dtype=float)
    expected = (grid.nt + 1,) + grid.nx
    if vals.shape != expected:
        raise ShapeMismatch(f"field shape {vals.shape} != {expected}")
    if not np.all(np.isfinite(vals)):
        raise ShapeMismatch("field contains non-finite entries")
    return vals


def integrate(values, mask, log_weight=None):
    """Space-time integral of values * exp(log_weight) over the masked region.

    values and log_weight are full-node (nt+1, *nx) arrays on mask.grid,
    with finite entries.  Trapezoidal rule in time; in space each masked
    node contributes its node weight (see Grid.node_weights).  Exact for
    constants on the full interior mask.

    A log-weighted integrand must be nonnegative.  With b the quadrature
    weight times the integrand and m the largest log-weight where b > 0,
    the integral is exp(m) sum b exp(log_weight - m), its scale applied as
    exp(m/2) twice so that no rounding of m + log(sum) enters: 0, finite or
    inf, never NaN, however far exp(log_weight) lies outside the range of a
    double.
    """
    grid = mask.grid
    vals = check_field(grid, values)
    nw = grid.node_weights() * mask.indicator
    if log_weight is None:
        per_level = np.tensordot(vals, nw, axes=(tuple(range(1, vals.ndim)), tuple(range(nw.ndim))))
        return float(np.dot(time_weights(grid), per_level))
    log_weight = check_field(grid, log_weight)
    if np.any(vals < 0.0):
        raise ValueError("a log-weighted integrand must be nonnegative")
    b = time_weights(grid).reshape((-1,) + (1,) * grid.dim) * nw * vals
    positive = b > 0.0
    ell = log_weight[positive]
    m = ell.max(initial=-np.inf)  # -inf when no b > 0: the integral is 0
    total = np.sum(b[positive] * np.exp(ell - m))
    with np.errstate(over="ignore"):
        half = np.exp(0.5 * m)
        return float(half * total * half)


def inner_h(grid, u, v):
    """Discrete spatial inner product h^d * sum over interior nodes of two (n,) vectors."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != (grid.n_interior,) or v.shape != (grid.n_interior,):
        raise ShapeMismatch(f"need two ({grid.n_interior},) vectors, got {u.shape} and {v.shape}")
    return grid.hd * float(np.dot(u, v))


def norm_h(grid, u):
    return math.sqrt(max(inner_h(grid, u, u), 0.0))


def q_norm(grid, arr):
    """Discrete L2(Q) norm over levels 1..nt of an interior array, as one BLAS dot."""
    levels = arr[1:].ravel()
    return math.sqrt(grid.dt * grid.hd * float(np.dot(levels, levels)))


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


def _interior_difference(grid, arr, ax):
    """_st_axis_difference of an interior (nt+1, n) array, read on its zero-padded
    full-node form: (v[p] - v[m]) / (2h) at every interior node."""
    return grid.to_interior_levels(_st_axis_difference(grid, grid.from_interior_levels(arr), ax))


def interior_gradient(grid, arr):
    """Centered spatial gradient of an interior (nt+1, n) array with zero
    boundary values, one interior array per axis."""
    return tuple(_interior_difference(grid, arr, ax) for ax in range(grid.dim))


def interior_divergence(grid, comps):
    """Centered divergence of a per-axis tuple of interior (nt+1, n) arrays with
    zero boundary values."""
    out = np.zeros_like(comps[0])
    for ax in range(grid.dim):
        out = out + _interior_difference(grid, comps[ax], ax)
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
