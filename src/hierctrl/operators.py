"""Discrete fourth-order parabolic operators with clamped boundary conditions.

The biharmonic operator is assembled as A~' D A~ where A~ evaluates the
5-point Laplacian at every node (mirror ghosts u_{-1} = u_1 encode the
zero normal derivative, boundary values are zero) and D carries half
weights at boundary nodes.  This reproduces the classical clamped stencil
(diagonal 7 next to a wall in 1D) and is symmetric by construction.

Time stepping is backward Euler.  Adjoint marches use the exact transposes
of the forward step matrices, so every discrete duality identity holds to
solver precision (discretize-then-optimize).  Small grids march symmetric
time-constant steps in their eigenbasis and other steps with dense
inverses, one mat-vec per step; larger ones with SuperLU factorizations.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from .errors import ShapeMismatch
from .linalg import Modes, factorize, invert_stack, symmetric_modes
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
MODAL_MAX_N = 110  # up to this many a symmetric time-constant family marches in its eigenbasis


class _Family(NamedTuple):
    a: SpaceTimeField
    b: tuple
    time_constant: bool
    solvers: list  # per step 1..nt: a Factorization, a DenseInverse, or the Modes of a modal family
    inverses: tuple  # dense non-modal families: the arrays steps 1..nt multiply by, and their transposes
    matrices: dict  # the sparse step matrix of a time-constant family, once step_matrix has built it


class TimeStepper:
    """Per-level backward-Euler step matrices, kept ready to march with.

    Every family of step matrices (forward, and adjoint when its
    coefficients differ) has one representation, chosen by the number n of
    interior unknowns and by the coefficients:

    - Modal, up to MODAL_MAX_N unknowns for time-constant coefficients
      without transport, whose step matrix S is symmetric: S = Q diag(1/w) Q'.
      A march transforms its datum and sources once, runs the recurrence
      as a log-depth scan over time and transforms back.  A backward march
      scans the reversed time axis with the same Q and w.
    - Dense, up to DENSE_MAX_N unknowns otherwise: the inverse of each
      distinct level, built and inverted as one stack.  A step is one
      mat-vec, and a transposed step multiplies by the transpose of the
      same inverse.
    - Above the cap each level keeps a SuperLU factorization, and one
      factorization serves a step matrix and its transpose.

    Either way the backward march is the transpose of the forward one.
    When the coefficients are time-independent one level serves every step.
    A march whose datum and sources are all zero returns zeros at once.
    The sparse step matrices themselves come from step_matrix.
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
        n, nt = grid.n_interior, grid.nt
        const = _fields_time_constant(a_field, b_fields)
        levels = [1] if const else list(range(1, nt + 1))
        inverses = None
        if const and n <= MODAL_MAX_N and not any(np.any(bf.values) for bf in b_fields):
            solvers = [symmetric_modes(self._dense_step_stack(a_field, b_fields, levels)[0])]
        elif n <= DENSE_MAX_N:
            solvers = invert_stack(self._dense_step_stack(a_field, b_fields, levels))
            arrays = [s.inv for s in solvers] * (nt if const else 1)
            inverses = (arrays, [inv.T for inv in arrays])
        else:
            solvers = [factorize(self._step_matrix(a_field, b_fields, j)) for j in levels]
        return _Family(a_field, b_fields, const, solvers * nt if const else solvers, inverses, {})

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
        """What forward step j (1..nt) solves with: the Modes of a modal
        family, else a DenseInverse up to DENSE_MAX_N unknowns and a
        Factorization above."""
        return self._family(family).solvers[j - 1]

    def step_matrix(self, j, family="forward"):
        """The sparse step matrix I + dt L_j itself (1..nt).

        A time-constant family builds it once and returns that matrix for
        every j; callers must not modify it.
        """
        fam = self._family(family)
        if not fam.time_constant:
            return self._step_matrix(fam.a, fam.b, j)
        if not fam.matrices:
            fam.matrices[1] = self._step_matrix(fam.a, fam.b, 1)
        return fam.matrices[1]

    def _march_inputs(self, datum, sources):
        """The datum and sources as float arrays, and the column count k.

        The datum is (n,) or (n, k); the sources are None, (nt+1, n) or
        (nt+1, n, k).  Any 3-D argument, or a 2-D datum, makes the march
        multi-column, shape (nt+1, n, k); a 1-D datum is then shared by
        every column.  Column counts must agree: nothing else broadcasts.
        k is None for a single-column march of shape (nt+1, n).
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
        return datum, sources, k

    def _march(self, datum, sources, family, backward):
        """march_forward, or march_backward when backward is true."""
        grid = self.grid
        n, nt = grid.n_interior, grid.nt
        fam = self._family(family)
        datum, sources, k = self._march_inputs(datum, sources)
        shape = (nt + 1, n) if k is None else (nt + 1, n, k)
        if not datum.any() and (sources is None or not sources.any()):
            return np.zeros(shape)
        if isinstance(fam.solvers[0], Modes):
            return _modal_march(fam.solvers[0], datum, sources, grid.dt, nt, k, backward)
        out = np.zeros(shape)
        out[nt if backward else 0] = datum if datum.ndim == out.ndim - 1 else datum[:, None]
        dt_src = None if sources is None else grid.dt * sources
        if fam.inverses is None:
            _solver_loop(fam.solvers, out, dt_src, backward)
        else:
            _inverse_loop(fam.inverses[backward], out, dt_src, backward)
        return out

    def march_forward(self, w0_int, sources=None, family="forward"):
        """March (I + dt L_j) w^j = w^{j-1} + dt s^j for j = 1..nt.

        sources is an (nt+1, n) array, or (nt+1, n, k) for k columns that
        march at once; level j feeds step j (level 0 is never used).
        Returns all levels, shape (nt+1, n) or (nt+1, n, k); see
        _march_inputs for the shapes accepted.  Column c of a k-column
        march is bit for bit the single-column march of its data.
        """
        return self._march(w0_int, sources, family, backward=False)

    def march_backward(self, terminal_int, sources=None, family="forward"):
        """Transpose march: (I + dt L_j)' p^{j-1} = p^j + dt s^j.

        Runs j = nt..1; the stored level nt is the terminal datum and the
        multiplier of step j lands at level j-1.  Source level j pairs with
        state level j in the duality identity.  Shapes as in march_forward.
        """
        return self._march(terminal_int, sources, family, backward=True)


def _steps(nt, backward):
    """(j, level read, level written) of each step, in marching order."""
    if backward:
        return [(j, j, j - 1) for j in range(nt, 0, -1)]
    return [(j, j - 1, j) for j in range(1, nt + 1)]


def _solver_loop(solvers, out, dt_src, backward):
    """out[to] = S_j^{-1} (out[from] + dt s^j), or S_j^{-T}, one solver call per step."""
    rhs = np.empty_like(out[0])
    for j, read, write in _steps(len(solvers), backward):
        src = out[read] if dt_src is None else np.add(out[read], dt_src[j], out=rhs)
        solvers[j - 1].solve(src, transpose=backward, out=out[write])


def _inverse_loop(mats, out, dt_src, backward):
    """out[to] = M_j (out[from] + dt s^j) with M_j the (transposed) inverse of step j.

    A k-column level multiplies as a stack of k mat-vecs, as DenseInverse.solve
    does, so each column is bit for bit the single-column march.
    """
    rhs = np.empty_like(out[0])
    if out.ndim == 3:  # (n, k) levels as stacks of k column vectors (k, n, 1)
        levels, rhs_in = list(out.transpose(0, 2, 1)[..., None]), rhs.T[..., None]
    else:
        levels, rhs_in = list(out), rhs
    plain = list(out)
    srcs = None if dt_src is None else list(dt_src)
    for j, read, write in _steps(len(mats), backward):
        if srcs is None:
            np.matmul(mats[j - 1], levels[read], out=levels[write])
        else:
            np.add(plain[read], srcs[j], out=rhs)
            np.matmul(mats[j - 1], rhs_in, out=levels[write])


def _modal_march(modes, datum, sources, dt, nt, k, backward):
    """March with the step inverse Q diag(w) Q' of a symmetric time-constant family.

    In modal coordinates step j reads y^j = w * (y^{j-1} + dt s^j).  The
    datum and the sources are transformed with one GEMM of shape
    (nt+1, n) @ (n, n) per column, the recurrence runs as a log-depth
    (Hillis-Steele) scan over time, elementwise, and one GEMM per column
    transforms back.  So column c of a k-column march is bit for bit the
    single-column march.  A backward march is the same scan over the
    reversed time axis.
    """
    Q, w = modes.Q, modes.w
    # time on axis -2: (nt+1, n), or (k, nt+1, n) so that each column is one contiguous GEMM operand
    x = np.empty((nt + 1, Q.shape[0]) if k is None else (k, nt + 1, Q.shape[0]))
    data, fed = (nt, slice(0, nt)) if backward else (0, slice(1, nt + 1))  # source j feeds level j or j-1
    x[..., data, :] = datum.T
    if sources is None:
        x[..., fed, :] = 0.0
    else:
        stacked = sources if k is None else np.moveaxis(sources, -1, 0)
        np.multiply(dt, stacked[..., 1:, :], out=x[..., fed, :])
    y = x @ Q
    y[..., fed, :] *= w
    # after the round with shift d, level l holds sum_{i=0..2d-1} w^i x_{l-i} (x_{l+i} backward)
    power, shift = w, 1
    while shift <= nt:
        if backward:
            y[..., :-shift, :] += power * y[..., shift:, :]
        else:
            y[..., shift:, :] += power * y[..., :-shift, :]
        shift *= 2
        if shift <= nt:
            power = power * power
    y = y @ Q.T
    y[..., data, :] = datum.T  # the datum level holds the datum itself, not its round trip
    return y if k is None else np.moveaxis(y, 0, -1)


def columns(arr):
    """The k columns of an (nt+1, n, k) march, each as a contiguous (nt+1, n)
    array; an (nt+1, n) march is its own single column."""
    if arr.ndim == 2:
        return [arr]
    return list(np.moveaxis(arr, -1, 0).copy())


def stack_columns(arrs):
    """The sources of one march from a list of (nt+1, n) columns: (nt+1, n, k),
    or a single column as it is, so that it marches in the plain form."""
    return arrs[0] if len(arrs) == 1 else np.stack(arrs, axis=-1)


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
