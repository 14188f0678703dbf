"""Discrete fourth-order parabolic operators with clamped boundary conditions.

The biharmonic operator is assembled as A~' D A~ where A~ evaluates the
5-point Laplacian at every node (mirror ghosts u_{-1} = u_1 encode the
zero normal derivative, boundary values are zero) and D carries half
weights at boundary nodes.  This reproduces the classical clamped stencil
(diagonal 7 next to a wall in 1D) and is symmetric by construction.

Time stepping is backward Euler.  Adjoint marches use the exact transposes
of the forward step matrices, so every discrete duality identity holds to
solver precision (discretize-then-optimize).  Each family of step matrices
is one object, its Coordinates, and every march of it is
Coordinates.march.  Small grids march symmetric time-constant steps in
their eigenbasis; every other family marches through the one band step
loop, one LAPACK band solve per step: dpbtrs on a band Cholesky factor for
a symmetric positive-definite step and dgbtrs on a band LU factor
otherwise, whose transposed solve is the adjoint step.  Every
representation, and the sparse step matrices of the space-time system,
reads one assembly of the step matrices by diagonals.  The biharmonic and
gradient matrices are assembled once per grid (grid_operators) and shared
by every stepper on it.  Fixed points that march a family many times can
stay in its Coordinates, the eigenbasis of a modal family, and pass fields
between families through Couplings.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dgbtrs, dpbtrs, dtbtrs

from .errors import ShapeMismatch
from .linalg import band_cholesky, band_lu, symmetric_modes
from .mesh import Grid, SubdomainMask, q_norm


def _strides(grid: Grid):
    """Flat-index stride of each axis over the interior nodes, row-major."""
    m = grid.interior_shape
    return np.array([math.prod(m[ax + 1:]) for ax in range(grid.dim)])


def _csr(values, columns, shape):
    """CSR matrix of the nonzero entries of values, at the matching entries
    of columns; the leading axes of both run over the rows in order, the
    last over each row's entries in ascending column order."""
    keep = values != 0.0
    indptr = np.zeros(shape[0] + 1, dtype=np.int32)
    np.cumsum(keep.reshape(shape[0], -1).sum(axis=1), out=indptr[1:])
    return sp.csr_matrix((values[keep], columns[keep].astype(np.int32), indptr), shape=shape)


def _laplacian_slots(grid: Grid):
    """The extended Laplacian row by row, as (shifts, values).

    Row j, a node, reads the interior values at its interior coordinates
    (node index - 1) plus shifts[s], for the 2 dim + 1 slots s in ascending
    column order: the lower neighbour along each axis, the node itself,
    the upper neighbour along each axis in reverse.  values, shape
    nx + (2 dim + 1,), holds the row's entries, zero where it has none.
    Along one axis it is the second difference at an interior node and
    the single mirrored arm 2 u_first_interior / h^2 at a wall (mirror
    ghosts u_-1 = u_1, boundary values zero); a node on a wall of another
    axis has no entry along this one, and the node's own entry is the sum
    of the axes' centre weights in axis order.
    """
    dim = grid.dim
    eye = np.eye(dim, dtype=int)
    shifts = np.vstack([-eye, np.zeros((1, dim), dtype=int), eye[::-1]])
    values = np.zeros(grid.nx + (len(shifts),))
    centre = 0.0
    for ax, (n, h) in enumerate(zip(grid.nx, grid.h)):
        inv_h2 = 1.0 / (h * h)
        lower, own, upper = np.zeros((3, n))
        lower[2:], own[1:-1], upper[:-2] = inv_h2, -2.0 * inv_h2, inv_h2
        lower[-1] = upper[0] = 2.0 * inv_h2
        inside = np.ones(grid.nx, dtype=bool)  # interior along every other axis
        for other, m in enumerate(grid.nx):
            if other != ax:
                inside[(slice(None),) * other + (slice(0, m, m - 1),)] = False
        along = (slice(None),) + (None,) * (dim - 1 - ax)
        values[..., ax] = np.where(inside, lower[along], 0.0)
        values[..., -1 - ax] = np.where(inside, upper[along], 0.0)
        centre = centre + np.where(inside, own[along], 0.0)
    values[..., dim] = centre
    return shifts, values


def extended_laplacian(grid: Grid):
    """Discrete Laplacian at every node given interior values
    (_laplacian_slots), shape (nodes, interior nodes)."""
    shifts, values = _laplacian_slots(grid)
    nodes = np.moveaxis(np.indices(grid.nx), 0, -1)
    columns = (nodes[..., None, :] - 1 + shifts) @ _strides(grid)
    return _csr(values, columns, (math.prod(grid.nx), grid.n_interior))


def _boundary_halving(grid: Grid):
    """Per-node factor: 1/2 for each axis on whose wall the node sits."""
    halves = [np.ones(n) for n in grid.nx]
    for fac in halves:
        fac[0] = fac[-1] = 0.5
    return functools.reduce(np.kron, halves)


def assemble_biharmonic(grid: Grid):
    """Symmetric clamped discrete biharmonic on interior nodes: A' D A with
    A the extended Laplacian and D the boundary halving.

    Built entry by entry from the rows of A (_laplacian_slots): entry
    (i, k) sums tau_j A_ji A_jk over the nodes j, ascending, each term
    formed as A_jk (tau_j A_ji), and an entry that sums to zero is left
    out, as the sparse product A.T @ diag(tau) @ A forms them; so the two
    agree bit for bit.  Node j reaches column i through slot s when
    j = i + 1 - shifts[s], so the terms of the offset k - i =
    shifts[t] - shifts[s] come in descending s.
    """
    shifts, values = _laplacian_slots(grid)
    m = grid.interior_shape
    scaled = _boundary_halving(grid).reshape(grid.nx + (1,)) * values
    pairs = {}
    for s in reversed(range(len(shifts))):
        for t in range(len(shifts)):
            pairs.setdefault(tuple(shifts[t] - shifts[s]), []).append((s, t))
    strides = _strides(grid)
    offsets = sorted(pairs, key=lambda offset: np.dot(offset, strides))
    entries = np.zeros(m + (len(offsets),))
    for q, offset in enumerate(offsets):
        for s, t in pairs[offset]:
            nodes = tuple(slice(1 - c, 1 - c + size) for c, size in zip(shifts[s], m))
            entries[..., q] += values[nodes + (t,)] * scaled[nodes + (s,)]
    # an offset that leaves the interior meets only zero slots, so its entries are zero and left out
    columns = np.arange(grid.n_interior).reshape(m)[..., None] + np.dot(offsets, strides)
    return _csr(entries, columns, (grid.n_interior, grid.n_interior))


def gradient_matrices(grid: Grid):
    """Centered gradient per axis, interior nodes to interior nodes: at each
    interior node, (u[+1] - u[-1]) / 2h along the axis, boundary values zero."""
    m = grid.interior_shape
    flat = np.arange(grid.n_interior).reshape(m)
    out = []
    for ax, (stride, h) in enumerate(zip(_strides(grid), grid.h)):
        inv_2h = 0.5 / h
        weights = np.zeros(m + (2,))
        index = np.arange(m[ax])[(slice(None),) + (None,) * (grid.dim - 1 - ax)]
        weights[..., 0] = np.where(index >= 1, -inv_2h, 0.0)
        weights[..., 1] = np.where(index <= m[ax] - 2, inv_2h, 0.0)
        out.append(_csr(weights, flat[..., None] + np.array([-stride, stride]), (grid.n_interior,) * 2))
    return tuple(out)


def grid_operators(grid: Grid):
    """(assemble_biharmonic(grid), gradient_matrices(grid)), assembled on
    the grid's first use and kept on it; callers must not modify them."""
    if not grid.operator_holder:
        grid.operator_holder.append((assemble_biharmonic(grid), gradient_matrices(grid)))
    return grid.operator_holder[0]


def _interior_data(name, value, shape):
    """value as a float array, which must have the given shape."""
    arr = np.asarray(value, dtype=float)
    if arr.shape != shape:
        raise ShapeMismatch(f"{name} shape {arr.shape} != {shape}")
    return arr


_COEFFICIENT_FIELDS = ("grid", "a", "b", "a_adj", "b_adj")  # what a TimeStepper is built from


@dataclass(frozen=True)
class ProblemSpec:
    """Coefficients, control geometry, weights, targets and initial data.

    The data are interior arrays: a, each component of b, a_adj, each
    component of b_adj and the two targets have shape (nt+1, n), one row
    per time level, and w0 has shape (n,).  The spec checks these shapes
    when it is built.

    a_adj / b_adj, when set, are the coefficients of the backward (adjoint)
    equations; they default to a / b, which makes the adjoint step matrices
    exact transposes of the forward ones.  The semilinear solvers use the
    override to realize frozen-coefficient systems whose state and adjoint
    linearizations differ.

    The spec owns its TimeStepper (`stepper`), built on first use.  Copies
    made by with_ that keep grid and coefficients share it, even when the
    copy is made before anything has marched.  The spec also keeps what a
    solver derives from it alone (setup), which copies never share, as
    their data may differ.  Either way, callers must not modify a spec's
    arrays in place.
    """

    grid: Grid
    a: np.ndarray
    b: tuple
    leader_mask: SubdomainMask
    follower_masks: tuple
    target_masks: tuple
    alpha: tuple
    mu: tuple
    targets: tuple
    w0: np.ndarray
    a_adj: np.ndarray = None
    b_adj: tuple = None
    _stepper_holder: list = field(init=False, repr=False, compare=False)
    _setups: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # mu_i = 0 is rejected outright; alpha_i = 0 is tolerated as the
        # decoupled diagnostic limit even though the model assumes it positive
        if any(al < 0 for al in self.alpha) or any(m <= 0 for m in self.mu):
            raise ValueError("need alpha_i >= 0 and mu_i > 0")
        levels = (self.grid.nt + 1, self.grid.n_interior)
        object.__setattr__(self, "w0", _interior_data("w0", self.w0, levels[1:]))
        for name in ("a", "a_adj"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, _interior_data(name, getattr(self, name), levels))
        for name, count in (("b", self.grid.dim), ("b_adj", self.grid.dim), ("targets", 2)):
            arrays = getattr(self, name)
            if arrays is None:
                continue
            if len(arrays) != count:
                raise ShapeMismatch(f"need {count} {name} arrays, got {len(arrays)}")
            object.__setattr__(self, name, tuple(_interior_data(name, v, levels) for v in arrays))
        object.__setattr__(self, "_stepper_holder", [])
        object.__setattr__(self, "_setups", {})

    @property
    def stepper(self) -> TimeStepper:
        """The step matrices of this grid and these coefficients, built once."""
        if not self._stepper_holder:
            self._stepper_holder.append(TimeStepper(self.grid, self.a, self.b, self.a_adj, self.b_adj))
        return self._stepper_holder[0]

    def setup(self, build):
        """build(self), built on the first call with this build and kept;
        callers must not modify it."""
        if build not in self._setups:
            self._setups[build] = build(self)
        return self._setups[build]

    def with_(self, **kw):
        """A copy with fields replaced; it shares the stepper unless a
        coefficient field changes, and never the setups."""
        new = replace(self, **kw)
        if all(kw[name] is getattr(self, name) for name in _COEFFICIENT_FIELDS if name in kw):
            object.__setattr__(new, "_stepper_holder", self._stepper_holder)
        return new

    def with_zero_data(self):
        """Same operators and geometry, zero initial data and targets."""
        z = np.zeros((self.grid.nt + 1, self.grid.n_interior))
        return self.with_(w0=np.zeros(self.grid.n_interior), targets=(z, z))

    def has_controllability_geometry(self):
        return all(m.intersects(self.leader_mask) for m in self.target_masks)

    def require_controllability_geometry(self):
        if not self.has_controllability_geometry():
            raise ValueError("each target region must intersect the leader region")


def _entries(matrix):
    """(rows, columns, values) of the stored entries of a CSR matrix."""
    return np.repeat(np.arange(matrix.shape[0]), np.diff(matrix.indptr)), matrix.indices, matrix.data


def _time_constant(a, b):
    def const(f):
        return bool(np.all(f == f[0]))

    return const(a) and all(const(b_axis) for b_axis in b)


MODAL_MAX_N = 128  # up to this many a symmetric time-constant family marches in its eigenbasis


class Coordinates:
    """One family of step matrices and the coordinates it marches in.

    The family keeps its coefficients a and b (step_matrices reads them)
    and exactly one march representation, chosen by TimeStepper: modal
    (Q, the source transform dt diag(w) Q' and _recurrence_band), band
    Cholesky (cholesky, the factor of each step 1..nt) or band LU (lu,
    (kl, ku, factors, pivots) of each step 1..nt); the other two are None.
    Coordinates(grid), with neither, is physical space alone, for the
    arrays of a direct solve.

    A modal family's coordinates are its eigenbasis, y = Q'u at every level,
    and a coordinate array is mode-major, shape (n, nt+1) or (k, n, nt+1),
    which is the layout its band solve (march) reads.  A march in these
    coordinates takes the band right-hand sides themselves: dt diag(w) Q' s^j
    at column j forward and at column j-1 backward, the datum column left to
    the march.  Every other family marches in physical space (Q = I): its
    coordinate arrays are the interior (nt+1, n) or (k, nt+1, n) arrays, and
    a march reads its sources as always, so arithmetic in these coordinates
    is exactly the physical one.  datum, source and physical take one
    column or k, and column c of a k-column transform is bit for bit the
    single-column transform of column c.
    """

    def __init__(self, grid, a=None, b=None, modal=None, cholesky=None, lu=None):
        self.grid, self.a, self.b = grid, a, b
        self.Q, self.source_transform, self.band = modal if modal is not None else (None, None, None)
        self.modal = modal is not None
        self.cholesky = cholesky  # views of one band_cholesky array
        self.lu = lu  # factors: views of one band_lu factor

    def zeros(self, k=None):
        """A zero coordinate array, with k columns when k is given."""
        n, levels = self.grid.n_interior, self.grid.nt + 1
        shape = (n, levels) if self.modal else (levels, n)
        return np.zeros(shape if k is None else (k, *shape))

    def levels(self, arr, shifted=False):
        """The view of a field holding levels 1..nt, or 0..nt-1 when shifted."""
        at = slice(None, -1) if shifted else slice(1, None)
        return arr[..., at] if self.modal else arr[..., at, :]

    def source_levels(self, arr, backward=False):
        """The view of a march input that source levels 1..nt go to: a
        backward modal march reads source j at column j-1."""
        return self.levels(arr, shifted=backward and self.modal)

    def datum(self, v):
        """An (n,) or (k, n) datum in these coordinates."""
        v = np.asarray(v, dtype=float)
        n = self.grid.n_interior
        if v.ndim not in (1, 2) or v.shape[-1] != n:
            raise ShapeMismatch(f"datum shape {v.shape}: need ({n},) or (k, {n})")
        return np.matmul(self.Q.T, v[..., None])[..., 0] if self.modal else v

    def field(self, u):
        """An interior (nt+1, n) field in these coordinates."""
        return np.matmul(self.Q.T, u.T) if self.modal else u

    def source(self, s):
        """The forward march input of an interior (nt+1, n) or (k, nt+1, n)
        source array."""
        if not self.modal:
            return s
        out = self.zeros(len(s) if s.ndim == 3 else None)
        np.matmul(self.source_transform, np.swapaxes(s[..., 1:, :], -1, -2), out=self.source_levels(out))
        return out

    def physical(self, y, datum=None, backward=False):
        """A coordinate array as an interior (nt+1, n) or (k, nt+1, n) array,
        y itself in physical space.  Given the datum, the datum level (nt
        backward, 0 forward) holds the datum itself, not its round trip
        through Q."""
        u = np.matmul(np.swapaxes(y, -1, -2), self.Q.T) if self.modal else y
        if datum is not None:
            u[..., -1 if backward else 0, :] = datum
        return u

    def march(self, datum, rhs, backward=False):
        """The family's march in these coordinates, from datum at level nt
        backward and 0 forward.  Returns a new array of rhs's shape, or with
        nt+1 levels for each column of datum when rhs is None.

        Modal: rhs, (n, nt+1) or (k, n, nt+1), holds the band right-hand
        sides, and its datum column is set to datum here.  Level l of mode m
        then solves y_l - w_m y_{l-1} = rhs_l forward, and with the
        transposed band p_l - w_m p_{l+1} = rhs_l backward: one LAPACK band
        solve for every column, exact zeros when datum and rhs are all zero.

        Band: rhs, None, (nt+1, n) or (k, nt+1, n), holds the physical
        sources, scaled by dt once.  Level j is S_j^{-1} (level j-1 +
        dt s^j) forward, and level j-1 is S_j^{-T} (level j + dt s^j)
        backward: one positional LAPACK call per step on the level's
        contiguous row, dpbtrs on a Cholesky factor (S_j is symmetric, so it
        serves both directions) and dgbtrs, trans=1 backward, on an LU
        factor; positional, as parsing keywords costs about a third of a 1D
        step.  The k columns march one after another, so each is bit for bit
        the single-column march: one dgbtrs(trans=1) call on k columns
        rounds differently from k one-column calls once kl >= 12.  All-zero
        datum and rhs give +0.0 at once, without stepping.
        """
        if self.modal:
            rhs[..., -1 if backward else 0] = datum
            k = len(rhs) if rhs.ndim == 3 else 1
            y = dtbtrs(self.band, rhs.reshape(k, -1).T, uplo="L", trans="T" if backward else "N", diag="U")[0]
            return y.T.reshape(rhs.shape)
        nt, n = self.grid.nt, self.grid.n_interior
        out = np.zeros(np.shape(datum)[:-1] + (nt + 1, n) if rhs is None else rhs.shape)
        if not datum.any() and (rhs is None or not rhs.any()):
            return out  # +0.0, where an LU step of zero data can round to -0.0
        columns = out.reshape(-1, nt + 1, n)
        columns[:, nt if backward else 0] = datum
        sources = [None] * len(columns) if rhs is None else (self.grid.dt * rhs).reshape(-1, nt + 1, n)
        if self.lu is None:
            factors, pivots = self.cholesky, [None] * nt
        else:
            kl, ku, factors, pivots = self.lu
        order = slice(None, None, -1 if backward else 1)  # step j reads factor, pivots and source j
        factors, pivots, trans, (width, _) = factors[order], pivots[order], int(backward), factors[0].shape
        for column, source in zip(columns, sources):
            rows = list(column)
            reads, writes = (rows[:0:-1], rows[-2::-1]) if backward else (rows[:-1], rows[1:])
            srcs = [None] * nt if source is None else list(source)[1:][order]
            for factor, pivot, read, src, write in zip(factors, pivots, reads, srcs, writes):
                if src is None:
                    np.copyto(write, read)
                else:
                    np.add(read, src, out=write)
                if pivot is None:
                    dpbtrs(factor, write, 1, width, 1)
                else:
                    dgbtrs(factor, kl, ku, write, pivot, trans, n, width, n, 1)
        return out

    def q_norm(self, y):
        """mesh.q_norm of the physical field, to rounding since Q is orthonormal."""
        if not self.modal:
            return q_norm(self.grid, y)
        levels = self.levels(y)
        return math.sqrt(self.grid.dt * self.grid.hd * float(np.einsum("ml,ml->", levels, levels)))


class Coupling(NamedTuple):
    """The map from a field in one family's coordinates to a source of
    another's: multiply by the weights in physical space, as a march input.
    It is the matrix C = dt diag(w) Q_to' diag(weights) Q_from, built once,
    when either family is modal (dt diag(w) only when the target is; Q = I
    for a physical family), and the elementwise product between physical
    families, so their arithmetic is unchanged."""

    matrix: np.ndarray
    weights: np.ndarray
    source: Coordinates
    target: Coordinates

    def apply(self, y, out=None):
        """The coupling of y, the level view of a single-column field
        (Coordinates.levels), into out, a source_levels view, when given."""
        if self.matrix is None:
            return np.multiply(y, self.weights, out=out)
        if self.target.modal:
            return np.matmul(self.matrix, y if self.source.modal else y.T, out=out)
        return np.matmul(y.T, self.matrix.T, out=out)


def _coupling_matrix(weights, source, target):
    if target.modal:
        matrix = target.source_transform * weights
        return matrix @ source.Q if source.modal else matrix
    return weights[:, None] * source.Q if source.modal else None


class TimeStepper:
    """Per-level backward-Euler step matrices, kept ready to march with.

    Every family of step matrices (forward, and adjoint when its
    coefficients differ) is one object, its Coordinates, which keeps the
    family's coefficients and one march representation, chosen by the
    number n of interior unknowns and by the coefficients:

    - Modal, up to MODAL_MAX_N unknowns for time-constant coefficients
      without transport, whose step matrix S is symmetric: S = Q diag(1/w) Q'.
      A march runs in the family's Coordinates: it transforms its datum
      and sources, one GEMM per column, solves the recurrence over time of
      every mode and column as one unit-bidiagonal LAPACK band solve, on a
      band built once per family (Coordinates.march), and transforms back.
      A backward march is the forward march of the time-reversed data,
      reversed, with the same Q, w and band: bit for bit the mirror of a
      forward march, which the transposed band solve would not give, as
      the GEMMs round a level differently by its position.
    - Band Cholesky, for every other symmetric family (no transport), at
      any size: the LAPACK band Cholesky factor of each distinct level, all
      levels factored by one dpbtrf call (linalg.band_cholesky).  A step is
      one dpbtrs solve, which is also the transposed step.
    - Band LU, for every other family, at any size: the LAPACK band LU
      factor of each distinct level, all levels factored by one dgbtrf call
      (linalg.band_lu).  A step is one dgbtrs solve, and the transposed
      step one dgbtrs solve with trans=1 on the same factor.  That covers
      transport and a symmetric family that is not positive definite at
      some level, which dpbtrf reports (for example a reaction with
      dt a <= -(1 + dt lambda_min(B))).

    Every representation reads one assembly of the step matrices
    (_step_diagonals): the band factors through the step band (_step_band),
    the modal family as the dense matrix of its level's diagonals, and the
    sparse step_matrices directly.  Every march, modal or band, in
    coordinates or not, is the family's Coordinates.march, which holds the
    one band step loop.

    The coefficients are interior (nt+1, n) arrays, as a ProblemSpec holds
    them.  Every stepper on a grid shares that grid's biharmonic and
    gradient matrices (grid_operators).  Either way the backward march is
    the transpose of the forward one.  When the coefficients are
    time-independent one level serves every step.
    A band march, or a physical modal march, whose datum and sources are
    all zero returns zeros at once; a march in modal coordinates solves
    such data to exact zeros.

    A family's Coordinates (coordinates) are also where a march can run
    (march_forward's coordinates), and the stepper keeps the Coupling of
    each weight vector between two families' coordinates (coupling), built
    on first use.
    """

    def __init__(self, grid: Grid, a: np.ndarray, b: tuple, a_adj=None, b_adj=None):
        self.grid = grid
        self.biharm, self.grads = grid_operators(grid)
        forward = self._build(a, b)
        a_adj = a if a_adj is None else a_adj
        b_adj = b if b_adj is None else b_adj
        # adjoint coefficients equal to the forward ones entry for entry share its family
        if np.array_equal(a_adj, a) and all(map(np.array_equal, b_adj, b)):
            adjoint = forward
        else:
            adjoint = self._build(a_adj, b_adj)
        self._families = {"forward": forward, "adjoint": adjoint}
        self._couplings = {}

    def _build(self, a, b):
        grid = self.grid
        n, nt = grid.n_interior, grid.nt
        const = _time_constant(a, b)
        levels = [1] if const else list(range(1, nt + 1))
        steps = nt if const else 1  # how many steps each distinct level serves
        symmetric = not any(np.any(b_axis) for b_axis in b)
        if symmetric and const and n <= MODAL_MAX_N:
            offsets, data = self._step_diagonals(a, b, levels)
            modes = symmetric_modes(sp.dia_matrix((data[0], offsets), shape=(n, n)).toarray())
            modal = (modes.Q, (grid.dt * modes.w)[:, None] * modes.Q.T, _recurrence_band(modes.w, nt))
            return Coordinates(grid, a, b, modal=modal)
        band, kl, ku = self._step_band(a, b, levels)
        if symmetric and (factor := band_cholesky(band[:, kl + ku:])) is not None:
            return Coordinates(grid, a, b, cholesky=_per_step(factor, len(levels), steps))
        factor, pivots = band_lu(band, kl, ku)
        return Coordinates(grid, a, b, lu=(kl, ku, _per_step(factor, len(levels), steps), list(pivots) * steps))

    def _step_diagonals(self, a, b, levels):
        """I + dt (B + diag(a_j) + sum_axis diag(b_j) G_axis) at the given
        levels, by diagonals: (offsets, data), data of shape
        (L, len(offsets), n), with data[l, k, j] the entry
        (j - offsets[k], j) of the step matrix of levels[l] (scipy's dia
        layout) and zero where that row is outside the matrix.

        The one assembly of a step matrix.  Each entry is dt times the sum,
        in that order, of the biharmonic entry, the reaction and each axis's
        transport entry, plus 1 on the main diagonal: the arithmetic of the
        sparse sums I + dt (B + diag(a_j) + sum diag(b_j) G) entry for entry.
        """
        n = self.grid.n_interior
        transport = [(b_axis[levels], _entries(grad)) for grad, b_axis in zip(self.grads, b)
                     if np.any(b_axis[levels])]
        rows, cols, values = _entries(self.biharm)
        offsets = np.unique(np.concatenate([cols - rows] + [c - r for _, (r, c, _) in transport]))
        data = np.zeros((len(levels), len(offsets), n))
        data[:, np.searchsorted(offsets, cols - rows), cols] = values
        main = np.searchsorted(offsets, 0)
        data[:, main] += a[levels]
        for b_levels, (r, c, v) in transport:
            data[:, np.searchsorted(offsets, c - r), c] += b_levels[:, r] * v
        data *= self.grid.dt
        data[:, main] += 1.0
        return offsets, data

    def _step_band(self, a, b, levels):
        """The step matrices of the given levels in LAPACK's general band
        storage with room for an LU's fill, as (band, kl, ku): band, shape
        (L, 2 kl + ku + 1, n), holds entry (i, j) at band[l, kl + ku + i - j, j]
        and zeros in its first kl rows and outside the matrix.  Its rows
        kl + ku onward are the lower band storage that dpbtrf reads:
        row kl + ku + i holds entry (j+i, j)."""
        offsets, data = self._step_diagonals(a, b, levels)
        kl, ku = int(-offsets.min()), int(offsets.max())
        band = np.zeros((len(levels), 2 * kl + ku + 1, self.grid.n_interior))
        band[:, kl + ku - offsets] = data
        return band, kl, ku

    def step_matrices(self, family="forward"):
        """The step matrices I + dt L_j of steps 1..nt as one block-diagonal
        CSR matrix, shape (nt n, nt n), block j-1 that of step j: the
        diagonals of every level (_step_diagonals) read as one dia matrix,
        whose zero entries, inside a block or between blocks, are dropped."""
        fam = self.coordinates(family)
        nt, n = self.grid.nt, self.grid.n_interior
        offsets, data = self._step_diagonals(fam.a, fam.b, range(1, nt + 1))
        diagonals = data.transpose(1, 0, 2).reshape(len(offsets), nt * n)
        return sp.dia_matrix((diagonals, offsets), shape=(nt * n, nt * n)).tocsr()

    def coordinates(self, family="forward") -> Coordinates:
        """The family, forward or adjoint: its Coordinates."""
        try:
            return self._families[family]
        except KeyError:
            raise ValueError(f"unknown matrix family {family!r}") from None

    def coupling(self, weights, source, target) -> Coupling:
        """The Coupling of weights from family source's coordinates to family
        target's, built on first use and kept for these weights (one for
        both directions when the families are one)."""
        frm, to = self.coordinates(source), self.coordinates(target)
        key = (frm, to, weights.tobytes())
        if key not in self._couplings:
            self._couplings[key] = Coupling(_coupling_matrix(weights, frm, to), weights, frm, to)
        return self._couplings[key]

    def _march_inputs(self, datum, sources):
        """The datum and sources as float arrays, and the column count k.

        The datum is (n,) or (k, n); the sources are None, (nt+1, n) or
        (k, nt+1, n).  Any 3-D argument, or a 2-D datum, makes the march
        multi-column, shape (k, nt+1, n); a 1-D datum is then shared by
        every column.  Column counts must agree: nothing else broadcasts.
        k is None for a single-column march of shape (nt+1, n).
        """
        grid = self.grid
        n, nt = grid.n_interior, grid.nt
        datum = np.asarray(datum, dtype=float)
        if datum.ndim not in (1, 2) or datum.shape[-1] != n:
            raise ShapeMismatch(f"march datum shape {datum.shape}: need ({n},) or (k, {n})")
        k = len(datum) if datum.ndim == 2 else None
        if sources is not None:
            sources = np.asarray(sources, dtype=float)
            if sources.ndim not in (2, 3) or sources.shape[-2:] != (nt + 1, n):
                raise ShapeMismatch(f"march sources shape {sources.shape}: "
                                    f"need ({nt + 1}, {n}) or (k, {nt + 1}, {n})")
            src_k = len(sources) if sources.ndim == 3 else None
            if k is not None and src_k != k:
                raise ShapeMismatch(f"march datum has {k} columns, sources shape {sources.shape}")
            k = src_k
        return datum, sources, k

    def _march(self, datum, sources, family, backward, coordinates=False):
        """march_forward, or march_backward when backward is true: the
        family's Coordinates.march, on validated inputs (_march_inputs)
        for a physical march, and for a physical modal march on inputs
        that are not all zero, transformed around it."""
        coords = self.coordinates(family)
        if coordinates:
            return coords.march(datum, sources, backward)
        datum, sources, k = self._march_inputs(datum, sources)
        if not coords.modal:
            return coords.march(datum, sources, backward)
        n, nt = self.grid.n_interior, self.grid.nt
        if not datum.any() and (sources is None or not sources.any()):
            return np.zeros((nt + 1, n) if k is None else (k, nt + 1, n))
        # a modal backward march is the forward march of the time-reversed data, reversed
        if sources is not None:
            sources = sources.reshape(-1, nt + 1, n)
            if backward:  # reversed step j is step nt+1-j, which reads that source
                sources = np.concatenate((sources[:, :1], sources[:, :0:-1]), axis=1)
        rhs = coords.zeros(k or 1) if sources is None else coords.source(sources)
        out = coords.physical(coords.march(coords.datum(datum), rhs), datum)
        out = out[:, ::-1] if backward else out
        return out[0] if k is None else out

    def march_forward(self, w0_int, sources=None, family="forward", coordinates=False):
        """March (I + dt L_j) w^j = w^{j-1} + dt s^j for j = 1..nt.

        sources is an (nt+1, n) array, or (k, nt+1, n) for k columns that
        march at once; level j feeds step j (level 0 is never used).
        Returns all levels, shape (nt+1, n) or (k, nt+1, n), so column c is
        the (nt+1, n) block out[c]; see _march_inputs for the shapes
        accepted.  Column c of a k-column march is bit for bit the
        single-column march of its data.

        With coordinates, the datum, the sources and the result are in the
        family's Coordinates.  A physical family marches exactly as
        without; a modal family's march is then one band solve on its
        sources, the band right-hand sides, whose datum column it sets.
        """
        return self._march(w0_int, sources, family, False, coordinates)

    def march_backward(self, terminal_int, sources=None, family="forward", coordinates=False):
        """Transpose march: (I + dt L_j)' p^{j-1} = p^j + dt s^j.

        Runs j = nt..1; the stored level nt is the terminal datum and the
        multiplier of step j lands at level j-1.  Source level j pairs with
        state level j in the duality identity.  Shapes and coordinates as in
        march_forward; in a modal family's coordinates this is the
        transposed band solve.
        """
        return self._march(terminal_int, sources, family, True, coordinates)


def _per_step(factor, count, steps):
    """The factor of each step 1..nt: views of the count levels' own columns
    of one block-diagonal band factor, each level serving steps steps."""
    n = factor.shape[1] // count
    return [factor[:, l * n:(l + 1) * n] for l in range(count)] * steps


def _recurrence_band(w, nt):
    """The band of the unit lower bidiagonal systems y_l - w_m y_{l-1} of all
    modes m, mode-major (level l of mode m at m (nt+1) + l), as LAPACK's
    dtbtrs reads it: shape (2, n (nt+1)), F-ordered, row 1 the subdiagonal
    (zero between modes), row 0 the unit diagonal that diag='U' leaves unread."""
    band = np.zeros((2, len(w), nt + 1))
    band[1, :, :-1] = -w[:, None]
    return np.asfortranarray(band.reshape(2, -1))


def lagged(arr, weights=1.0):
    """arr, an interior (nt+1, n) or (k, nt+1, n) array, one level later:
    level 0 is +0.0 and level j is arr[j-1] * weights.  A control of step j
    is formed so from the multiplier of step j, which is stored at level j-1."""
    out = np.zeros_like(arr)
    np.multiply(arr[..., :-1, :], weights, out=out[..., 1:, :])
    return out


def control_sources(spec: ProblemSpec, f=None):
    """Interior source array for f*chi_O; the leader control f, when given,
    is an interior (nt+1, n) array."""
    grid = spec.grid
    src = np.zeros((grid.nt + 1, grid.n_interior))
    if f is not None:
        src += f * spec.leader_mask.interior_vector()
    return src
