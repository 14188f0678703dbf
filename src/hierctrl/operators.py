"""Discrete fourth-order parabolic operators with clamped boundary conditions.

The biharmonic operator is assembled as A~' D A~ where A~ evaluates the
5-point Laplacian at every node (mirror ghosts u_{-1} = u_1 encode the
zero normal derivative, boundary values are zero) and D carries half
weights at boundary nodes.  This reproduces the classical clamped stencil
(diagonal 7 next to a wall in 1D) and is symmetric by construction.

Time stepping is backward Euler.  Adjoint marches use the exact transposes
of the forward step matrices, so every discrete duality identity holds to
solver precision (discretize-then-optimize).  Small grids step with dense
inverses, one mat-vec per step; larger ones with SuperLU factorizations.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from .errors import ShapeMismatch
from .linalg import factorize, invert_stack
from .mesh import Grid, SpaceTimeField, SubdomainMask


def _axis_laplacian_rows(n, h):
    """All-node second difference along one axis from interior values.

    Shape (n, n-2).  Boundary rows carry the single mirrored arm
    2*u_first_interior / h^2; boundary values themselves are zero.
    """
    inv_h2 = 1.0 / (h * h)
    near, far = np.full(n - 2, inv_h2), np.full(n - 2, inv_h2)
    near[0] = far[-1] = 2.0 * inv_h2
    return sp.diags([near, np.full(n - 2, -2.0 * inv_h2), far], [0, -1, -2], shape=(n, n - 2))


def _axis_gradient(n, h):
    """Centered first derivative on interior nodes (boundary values zero)."""
    inv_2h = 0.5 / h
    return sp.diags([-inv_2h, inv_2h], [-1, 1], shape=(n - 2, n - 2))


def _on_axis(piece, ax, factors):
    """Kronecker product over the axes of the 1-D factors, with piece in place of factor ax."""
    return functools.reduce(sp.kron, factors[:ax] + [piece] + factors[ax + 1:])


def extended_laplacian(grid: Grid):
    """Discrete Laplacian at every node given interior values: the Kronecker
    sum of the 1-D second differences, embedded along the other axes."""
    embeddings = [sp.eye(n, n - 2, k=-1) for n in grid.nx]
    return sum(_on_axis(_axis_laplacian_rows(n, h), ax, embeddings)
               for ax, (n, h) in enumerate(zip(grid.nx, grid.h))).tocsr()


def _boundary_halving(grid: Grid):
    """Per-node factor: 1/2 for each axis on whose wall the node sits."""
    halves = [np.ones(n) for n in grid.nx]
    for fac in halves:
        fac[0] = fac[-1] = 0.5
    return functools.reduce(np.kron, halves)


def assemble_biharmonic(grid: Grid):
    """Symmetric clamped discrete biharmonic on interior nodes."""
    A = extended_laplacian(grid)
    tau = _boundary_halving(grid)
    M = (A.T @ sp.diags(tau) @ A).tocsr()
    M.sum_duplicates()
    return M


def gradient_matrices(grid: Grid):
    """Centered gradient per axis, interior nodes to interior nodes."""
    eyes = [sp.identity(n - 2, format="csr") for n in grid.nx]
    return tuple(_on_axis(_axis_gradient(n, h), ax, eyes).tocsr()
                 for ax, (n, h) in enumerate(zip(grid.nx, grid.h)))


_COEFFICIENT_FIELDS = ("grid", "a", "b", "a_adj", "b_adj")  # what a TimeStepper is built from


@dataclass(frozen=True)
class ProblemSpec:
    """Coefficients, control geometry, weights, targets and initial data.

    a_adj / b_adj, when set, are the coefficients of the backward (adjoint)
    equations; they default to a / b, which makes the adjoint step matrices
    exact transposes of the forward ones.  The semilinear solvers use the
    override to realize frozen-coefficient systems whose state and adjoint
    linearizations differ.

    The spec owns its TimeStepper (`stepper`), built on first use.  Copies
    made by with_ that keep grid and coefficients share it, even when the
    copy is made before anything has marched.
    """

    grid: Grid
    a: SpaceTimeField
    b: tuple
    leader_mask: SubdomainMask
    follower_masks: tuple
    target_masks: tuple
    alpha: tuple
    mu: tuple
    targets: tuple
    w0: np.ndarray
    a_adj: SpaceTimeField = None
    b_adj: tuple = None
    _stepper_holder: list = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.b) != self.grid.dim:
            raise ShapeMismatch(f"need {self.grid.dim} velocity components, got {len(self.b)}")
        # mu_i = 0 is rejected outright; alpha_i = 0 is tolerated as the
        # decoupled diagnostic limit even though the model assumes it positive
        if any(al < 0 for al in self.alpha) or any(m <= 0 for m in self.mu):
            raise ValueError("need alpha_i >= 0 and mu_i > 0")
        object.__setattr__(self, "w0", np.asarray(self.w0, dtype=float))
        if self.w0.shape != self.grid.nx:
            raise ShapeMismatch(f"w0 shape {self.w0.shape} != {self.grid.nx}")
        object.__setattr__(self, "_stepper_holder", [])

    @property
    def stepper(self) -> TimeStepper:
        """The step matrices of this grid and these coefficients, built once."""
        if not self._stepper_holder:
            self._stepper_holder.append(TimeStepper(self.grid, self.a, self.b, self.a_adj, self.b_adj))
        return self._stepper_holder[0]

    def with_(self, **kw):
        """A copy with fields replaced; it shares the stepper unless a coefficient field changes."""
        new = replace(self, **kw)
        if all(kw[name] is getattr(self, name) for name in _COEFFICIENT_FIELDS if name in kw):
            object.__setattr__(new, "_stepper_holder", self._stepper_holder)
        return new

    def with_zero_data(self):
        """Same operators and geometry, zero initial data and targets."""
        z = SpaceTimeField.zeros(self.grid)
        return self.with_(w0=np.zeros(self.grid.nx), targets=(z, z))

    def has_controllability_geometry(self):
        return all(m.intersects(self.leader_mask) for m in self.target_masks)

    def require_controllability_geometry(self):
        if not self.has_controllability_geometry():
            raise ValueError("each target region must intersect the leader region")


def _spatial_operator(grid, biharm, grads, a_field, b_fields, level):
    a_int = grid.to_interior(a_field.level(level))
    L = biharm + sp.diags(a_int)
    for axis, bf in enumerate(b_fields):
        b_int = grid.to_interior(bf.level(level))
        if np.any(b_int):
            L = L + sp.diags(b_int) @ grads[axis]
    return L.tocsr()


def _fields_time_constant(a_field, b_fields):
    def const(f):
        return bool(np.all(f.values == f.values[0]))

    return const(a_field) and all(const(bf) for bf in b_fields)


DENSE_MAX_N = 128  # up to this many interior unknowns a step is one mat-vec with a dense inverse


class _Family(NamedTuple):
    a: SpaceTimeField
    b: tuple
    time_constant: bool
    solvers: list  # the solver of each step 1..nt


class TimeStepper:
    """Per-level backward-Euler step matrices, kept ready to solve with.

    Up to DENSE_MAX_N interior unknowns a family of step matrices is kept
    as dense inverses, built and inverted as one stack: a step is one
    mat-vec, and a transposed step multiplies by the transpose of the same
    inverse, so the adjoint march is the exact transpose of the forward
    one.  Above the cap each level keeps a SuperLU factorization, and one
    factorization serves a step matrix and its transpose.  When the
    coefficients are time-independent one level serves every step.  The
    sparse step matrices themselves are rebuilt on demand by step_matrix.
    """

    def __init__(self, grid: Grid, a: SpaceTimeField, b: tuple, a_adj=None, b_adj=None):
        self.grid = grid
        self.biharm = assemble_biharmonic(grid)
        self.grads = gradient_matrices(grid)
        forward = self._build(a, b)
        if a_adj is None and b_adj is None:
            adjoint = forward
        else:
            adjoint = self._build(a if a_adj is None else a_adj, b if b_adj is None else b_adj)
        self._families = {"forward": forward, "adjoint": adjoint}

    def _build(self, a_field, b_fields):
        grid = self.grid
        const = _fields_time_constant(a_field, b_fields)
        levels = [1] if const else list(range(1, grid.nt + 1))
        if grid.n_interior <= DENSE_MAX_N:
            solvers = invert_stack(self._dense_step_stack(a_field, b_fields, levels))
        else:
            solvers = [factorize(self._step_matrix(a_field, b_fields, j)) for j in levels]
        return _Family(a_field, b_fields, const, solvers * grid.nt if const else solvers)

    def _step_matrix(self, a_field, b_fields, level):
        grid = self.grid
        L = _spatial_operator(grid, self.biharm, self.grads, a_field, b_fields, level)
        return (sp.identity(grid.n_interior, format="csr") + grid.dt * L).tocsr()

    def _dense_step_stack(self, a_field, b_fields, levels):
        """I + dt (B + diag(a_j) + sum_axis diag(b_j) G_axis) at the given levels, shape (L, n, n).

        Entry for entry the arithmetic of _spatial_operator and _step_matrix,
        so slice l equals the sparse step matrix of levels[l] exactly.
        """
        grid = self.grid
        diag = np.arange(grid.n_interior)
        stack = np.repeat(self.biharm.toarray()[None], len(levels), axis=0)
        stack[:, diag, diag] += a_field.interior()[levels]
        for grad, bf in zip(self.grads, b_fields):
            b_int = bf.interior()[levels]
            if np.any(b_int):
                stack += b_int[:, :, None] * grad.toarray()
        stack *= grid.dt
        stack[:, diag, diag] += 1.0
        return stack

    def _family(self, family):
        try:
            return self._families[family]
        except KeyError:
            raise ValueError(f"unknown matrix family {family!r}") from None

    def step(self, j, family="forward"):
        """Solver of the step matrix used by forward step j (1..nt): a
        DenseInverse up to DENSE_MAX_N unknowns, a Factorization above."""
        return self._family(family).solvers[j - 1]

    def step_matrix(self, j, family="forward"):
        """The sparse step matrix I + dt L_j itself (1..nt), built on demand."""
        fam = self._family(family)
        return self._step_matrix(fam.a, fam.b, 1 if fam.time_constant else j)

    def _march_arrays(self, datum, sources, level):
        """Output array holding the start datum at `level`, and the sources times dt.

        The datum is (n,) or (n, k); the sources are None, (nt+1, n) or
        (nt+1, n, k).  Any 3-D argument, or a 2-D datum, makes the march
        multi-column, shape (nt+1, n, k); a 1-D datum is then shared by
        every column.  Column counts must agree: nothing else broadcasts.
        """
        grid = self.grid
        n, nt = grid.n_interior, grid.nt
        datum = np.asarray(datum, dtype=float)
        if datum.ndim not in (1, 2) or datum.shape[0] != n:
            raise ShapeMismatch(f"march datum shape {datum.shape}: need ({n},) or ({n}, k)")
        k = datum.shape[1] if datum.ndim == 2 else None
        if sources is not None:
            sources = np.asarray(sources, dtype=float)
            if sources.ndim not in (2, 3) or sources.shape[:2] != (nt + 1, n):
                raise ShapeMismatch(f"march sources shape {sources.shape}: "
                                    f"need ({nt + 1}, {n}) or ({nt + 1}, {n}, k)")
            src_k = sources.shape[2] if sources.ndim == 3 else None
            if k is not None and src_k != k:
                raise ShapeMismatch(f"march datum has {k} columns, sources shape {sources.shape}")
            k = src_k
            sources = grid.dt * sources
        out = np.zeros((nt + 1, n) if k is None else (nt + 1, n, k))
        out[level] = datum if datum.ndim == out.ndim - 1 else datum[:, None]
        return out, sources

    def march_forward(self, w0_int, sources=None, family="forward"):
        """March (I + dt L_j) w^j = w^{j-1} + dt s^j for j = 1..nt.

        sources is an (nt+1, n) array, or (nt+1, n, k) for k columns that
        march at once (one k-column solve per step); level j feeds step j
        (level 0 is never used).  Returns all levels, shape (nt+1, n) or
        (nt+1, n, k); see _march_arrays for the shapes accepted.
        """
        solvers = self._family(family).solvers
        out, dt_src = self._march_arrays(w0_int, sources, 0)
        for j in range(1, self.grid.nt + 1):
            rhs = out[j - 1] if dt_src is None else out[j - 1] + dt_src[j]
            solvers[j - 1].solve(rhs, out=out[j])
        return out

    def march_backward(self, terminal_int, sources=None, family="forward"):
        """Exact transpose march: (I + dt L_j)' p^{j-1} = p^j + dt s^j.

        Runs j = nt..1; the stored level nt is the terminal datum and the
        multiplier of step j lands at level j-1.  Source level j pairs with
        state level j in the duality identity.  Shapes as in march_forward.
        """
        nt = self.grid.nt
        solvers = self._family(family).solvers
        out, dt_src = self._march_arrays(terminal_int, sources, nt)
        for j in range(nt, 0, -1):
            rhs = out[j] if dt_src is None else out[j] + dt_src[j]
            solvers[j - 1].solve(rhs, transpose=True, out=out[j - 1])
        return out


def columns(arr):
    """The k columns of an (nt+1, n, k) march, each as a contiguous (nt+1, n) array."""
    return list(np.moveaxis(arr, -1, 0).copy())


def control_sources(spec: ProblemSpec, f=None, v1=None, v2=None):
    """Interior source array for f*chi_O + v1*chi_O1 + v2*chi_O2."""
    grid = spec.grid
    src = np.zeros((grid.nt + 1, grid.n_interior))
    pairs = [
        (f, spec.leader_mask),
        (v1, spec.follower_masks[0]),
        (v2, spec.follower_masks[1]),
    ]
    for fld, mask in pairs:
        if fld is not None:
            src += fld.interior() * mask.interior_vector()
    return src


def solve_forward(spec: ProblemSpec, f=None, v1=None, v2=None, w0=None) -> SpaceTimeField:
    """State solve under leader f and followers v1, v2 (backward Euler)."""
    grid = spec.grid
    w0_full = spec.w0 if w0 is None else np.asarray(w0, dtype=float)
    w0_int = grid.to_interior(w0_full)
    src = control_sources(spec, f, v1, v2)
    W = spec.stepper.march_forward(w0_int, src)
    return SpaceTimeField.from_interior(grid, W)


def solve_adjoint(spec: ProblemSpec, sources: SpaceTimeField, terminal) -> SpaceTimeField:
    """Backward solve with the transposed step matrices.

    Realizes the continuous adjoint equation (divergence-form transport
    term) as the exact transpose of the forward scheme.
    """
    grid = spec.grid
    term_int = grid.to_interior(np.asarray(terminal, dtype=float))
    src = sources.interior() if sources is not None else None
    P = spec.stepper.march_backward(term_int, src, family="adjoint")
    return SpaceTimeField.from_interior(grid, P)


def duality_gap(spec: ProblemSpec, w0, fwd_sources, terminal, adj_sources):
    """Residual of the exact discrete duality identity (should be ~0).

    <psiT, w^nt>_h + dt sum_j <s^j, w^j>_h
      = <psi^0, w^0>_h + dt sum_j <psi^{j-1}, g^j>_h
    """
    grid = spec.grid
    stepper = spec.stepper
    W = stepper.march_forward(grid.to_interior(w0), fwd_sources)
    P = stepper.march_backward(grid.to_interior(terminal), adj_sources)
    hd = grid.hd
    lhs = hd * float(np.dot(P[-1], W[-1]))
    if adj_sources is not None:
        lhs += grid.dt * hd * float(np.sum(adj_sources[1:] * W[1:]))
    rhs = hd * float(np.dot(P[0], W[0]))
    if fwd_sources is not None:
        rhs += grid.dt * hd * float(np.sum(P[:-1] * fwd_sources[1:]))
    scale = max(abs(lhs), abs(rhs), 1e-300)
    return abs(lhs - rhs) / scale
