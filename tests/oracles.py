"""Reference operators and residuals the tests check the solvers against.

No subcommand runs these: each is an independent route to a quantity the
package computes another way (Lambda alone, the HUM functional, the
follower response operators, the discrete duality identity, plug-back
residuals, the dense follower form, the grid operators by sparse products,
the step matrices by sparse sums, the interior of a spatial array, the
state under any controls and the adjoint march), so it lives with the
tests.
Helpers the tests patch (nash._distinct_targets) are read through their
modules.
"""

import functools
import math

import numpy as np
import scipy.sparse as sp

from hierctrl import hum, nash, semilinear
from hierctrl.mesh import interior_gradient, norm_h, q_norm
from hierctrl.operators import _boundary_halving


def to_interior(grid, full):
    """The interior values of a spatial array on every node, flattened
    row-major, as a copy."""
    full = np.asarray(full)
    assert full.shape == grid.nx
    return full[grid.interior_slices()].reshape(-1).copy()


def state_sources(spec, f=None, v1=None, v2=None):
    """Interior source array for f*chi_O + v1*chi_O1 + v2*chi_O2; each
    control, when given, is an interior (nt+1, n) array."""
    grid = spec.grid
    src = np.zeros((grid.nt + 1, grid.n_interior))
    for ctrl, mask in ((f, spec.leader_mask), (v1, spec.follower_masks[0]), (v2, spec.follower_masks[1])):
        if ctrl is not None:
            src += ctrl * mask.interior_vector()
    return src


def solve_forward(spec, f=None, v1=None, v2=None, w0=None):
    """State under leader f and followers v1, v2 (backward Euler), as an
    interior (nt+1, n) array: the controls as in state_sources, and w0,
    when given in place of spec.w0, an (n,) vector."""
    w0 = spec.w0 if w0 is None else w0
    return spec.stepper.march_forward(w0, state_sources(spec, f, v1, v2))


def solve_adjoint(spec, sources, terminal):
    """Backward march with the transposed step matrices of the adjoint
    family, the exact transpose of the forward scheme: sources an interior
    (nt+1, n) array or None, terminal an (n,) vector."""
    return spec.stepper.march_backward(terminal, sources, family="adjoint")


def eval_G(spec, psi0, eps, tol_rel=1e-12):
    """Penalized HUM functional.

    The nonsmooth eps*||psi0|| penalty is replaced by (eps/2)*||psi0||^2,
    so the functional is a CG-solvable quadratic in the interior (n,)
    vector psi0.
    """
    grid = spec.grid
    coupled = hum.solve_coupled_adjoint(spec, psi0, tol_rel=tol_rel)
    psi = coupled.psi
    chi = spec.leader_mask.interior_vector()
    quad = 0.5 * grid.dt * grid.hd * float(np.sum(chi * psi[:-1] * psi[:-1]))
    affine = grid.hd * float(np.dot(spec.w0, psi[0]))
    for i in range(2):
        chid = spec.target_masks[i].interior_vector()
        eta = coupled.etas[i]
        wd = spec.targets[i]
        affine -= spec.alpha[i] * grid.dt * grid.hd * float(np.sum(chid * eta[1:] * wd[1:]))
    p0 = norm_h(grid, psi0)
    return quad + affine + 0.5 * eps * p0 * p0


def apply_lambda(spec, psi0, inner_tol=1e-12):
    """HUM operator: psi0 -> w(T) with zeroed affine data (symmetric PSD),
    on interior (n,) vectors."""
    return hum.grad_G(spec.with_zero_data(), psi0, eps=0.0, inner_tol=inner_tol)


def apply_response(spec, i, v):
    """Response operator A_i: state driven by v on follower region i, zero IC."""
    src = v * spec.follower_masks[i].interior_vector()
    return spec.stepper.march_forward(np.zeros(spec.grid.n_interior), src)


def apply_response_adjoint(spec, i, g):
    adj, = nash._response_adjoint(spec, [g], followers=(i,))
    return adj


def apply_A(spec, v1, v2):
    """Equilibrium operator: A(v1,v2)_i = alpha_i A_i*((A1v1+A2v2) chi_di) + mu_i v_i."""
    src = state_sources(spec, v1=v1, v2=v2)
    W = spec.stepper.march_forward(np.zeros(spec.grid.n_interior), src)
    adjs = nash._response_adjoint(spec, [W * m.interior_vector() for m in spec.target_masks])
    out = []
    for i, vi in enumerate((v1, v2)):
        chi = spec.follower_masks[i].interior_vector()
        out.append(spec.alpha[i] * adjs[i] + spec.mu[i] * (vi * chi))
    return tuple(out)


def compute_rhs(spec, f=None):
    """Right side of the equilibrium equation built from the free state."""
    src = state_sources(spec, f=f)
    Z = spec.stepper.march_forward(spec.w0, src)
    adjs = nash._response_adjoint(spec, [(wd - Z) * m.interior_vector()
                                         for wd, m in nash._distinct_targets(spec)])
    return tuple(spec.alpha[i] * adjs[i] for i in range(2))


def duality_gap(spec, w0, fwd_sources, terminal, adj_sources):
    """Residual of the exact discrete duality identity (should be ~0).

    <psiT, w^nt>_h + dt sum_j <s^j, w^j>_h
      = <psi^0, w^0>_h + dt sum_j <psi^{j-1}, g^j>_h

    w0 and terminal are (n,) vectors, the sources interior (nt+1, n) arrays
    or None.
    """
    grid = spec.grid
    stepper = spec.stepper
    W = stepper.march_forward(w0, fwd_sources)
    P = stepper.march_backward(terminal, adj_sources)
    hd = grid.hd
    lhs = hd * float(np.dot(P[-1], W[-1]))
    if adj_sources is not None:
        lhs += grid.dt * hd * float(np.sum(adj_sources[1:] * W[1:]))
    rhs = hd * float(np.dot(P[0], W[0]))
    if fwd_sources is not None:
        rhs += grid.dt * hd * float(np.sum(P[:-1] * fwd_sources[1:]))
    scale = max(abs(lhs), abs(rhs), 1e-300)
    return abs(lhs - rhs) / scale


def sample_bound(nonlin, dim, u_range=(-3.0, 3.0), p_range=(-3.0, 3.0), n=41):
    """Max over a sample grid of |F_u| + sum |dF/dp|; must stay within M."""
    us = np.linspace(*u_range, n)
    ps = np.linspace(*p_range, n)
    grids = np.meshgrid(us, *([ps] * dim), indexing="ij")
    u = grids[0]
    p = tuple(grids[1:])
    total = np.abs(nonlin.f_u(u, p))
    for comp in nonlin.grad_p(u, p):
        total = total + np.abs(comp)
    return float(np.max(total))


def quasi_equilibrium_residual(spec, nonlin, f, qe):
    """Plug-back residual of the stepped semilinear optimality system.

    The state rows use the true nonlinearity at the converged iterate; the
    adjoint rows use the tangent coefficients there.  Relative to the
    solution scale.  f is the leader control as an interior array.
    """
    grid = spec.grid
    U = qe.w
    F_int = nonlin.f(U, interior_gradient(grid, U))
    src = state_sources(spec, f, *qe.controls)
    res = 0.0
    for j in range(1, grid.nt + 1):
        M = step_matrix(spec.stepper, j, "forward")
        r = M @ U[j] - U[j - 1] - grid.dt * (src[j] + F_int[j])
        res += grid.dt * grid.hd * float(np.dot(r, r))
    res_state = math.sqrt(res)
    tg = semilinear._frozen_spec(spec, nonlin, U, base=None).stepper
    res_adj = 0.0
    for i in range(2):
        P = qe.phis[i]
        chid = spec.target_masks[i].interior_vector()
        wd = spec.targets[i]
        for j in range(1, grid.nt + 1):
            A = step_matrix(tg, j, "adjoint").T
            rhs = (P[j] if j < grid.nt else np.zeros_like(P[0])) + grid.dt * spec.alpha[i] * chid * (U[j] - wd[j])
            r = A @ P[j - 1] - rhs
            res_adj += grid.dt * grid.hd * float(np.dot(r, r))
    res_adj = math.sqrt(res_adj)
    scale = max(q_norm(grid, U), 1.0)
    return res_state / scale, res_adj / scale


def form_matrix(spec, nonlin, equilibrium, i):
    """The cross term of follower i's quadratic form
    (semilinear.second_order_form) as a dense symmetric matrix on its
    control unknowns, levels 1..nt on O_i, in the L2(Q)-unit basis: one
    companion march per unknown, symmetrized.  The form is it plus mu_i I."""
    grid = spec.grid
    eta = semilinear._form_companions(spec, nonlin, equilibrium)[i]
    nodes = np.flatnonzero(spec.follower_masks[i].interior_vector())
    m = grid.nt * len(nodes)
    levels, columns = np.divmod(np.arange(m), len(nodes))
    nodes = nodes[columns]
    unit = 1.0 / math.sqrt(grid.dt * grid.hd)
    cross = np.empty((m, m))  # the cross term of unit directions l and k at [l, k]
    for row, level, node in zip(cross, levels, nodes):
        d = np.zeros((grid.nt + 1, grid.n_interior))
        d[level + 1, node] = unit
        row[:] = eta(d)[levels, nodes]
    cross *= grid.dt * grid.hd * unit
    return 0.5 * (cross + cross.T)


def _axis_laplacian_rows(n, h):
    """All-node second difference along one axis from interior values.

    Shape (n, n-2).  Boundary rows carry the single mirrored arm
    2*u_first_interior / h^2; boundary values themselves are zero.
    """
    inv_h2 = 1.0 / (h * h)
    near, far = np.full(n - 2, inv_h2), np.full(n - 2, inv_h2)
    near[0] = far[-1] = 2.0 * inv_h2
    return sp.diags([near, np.full(n - 2, -2.0 * inv_h2), far], [0, -1, -2], shape=(n, n - 2))


def _on_axis(piece, ax, factors):
    """Kronecker product over the axes of the 1-D factors, with piece in place of factor ax."""
    return functools.reduce(sp.kron, factors[:ax] + [piece] + factors[ax + 1:])


def sparse_product_grid_operators(grid):
    """(extended Laplacian, biharmonic, gradient matrices) of the grid by
    Kronecker and sparse products: the extended Laplacian is the Kronecker
    sum of the 1-D second differences, embedded along the other axes, the
    biharmonic A.T @ diag(tau) @ A with the boundary halving tau, and each
    gradient the 1-D centred difference embedded by identities.  The
    operators module builds the same CSR arrays entry by entry."""
    embeddings = [sp.eye(n, n - 2, k=-1) for n in grid.nx]
    A = sum(_on_axis(_axis_laplacian_rows(n, h), ax, embeddings)
            for ax, (n, h) in enumerate(zip(grid.nx, grid.h))).tocsr()
    M = (A.T @ sp.diags(_boundary_halving(grid)) @ A).tocsr()
    M.sum_duplicates()
    eyes = [sp.identity(n - 2, format="csr") for n in grid.nx]
    grads = tuple(_on_axis(sp.diags([-0.5 / h, 0.5 / h], [-1, 1], shape=(n - 2, n - 2)), ax, eyes).tocsr()
                  for ax, (n, h) in enumerate(zip(grid.nx, grid.h)))
    return A, M, grads


def spatial_operator(biharm, grads, a, b, level):
    """B + diag(a_j) + sum_axis diag(b_j) G_axis at level j, by sparse sums:
    the spatial operator of a step matrix, assembled independently of
    TimeStepper._step_diagonals, which must match it entry for entry."""
    L = biharm + sp.diags(a[level])
    for axis, b_axis in enumerate(b):
        if np.any(b_axis[level]):
            L = L + sp.diags(b_axis[level]) @ grads[axis]
    return L.tocsr()


def sparse_step_matrix(stepper, j, family="forward"):
    """The step matrix I + dt L_j (1..nt) of a stepper's family by sparse
    sums (spatial_operator), from the family's coefficients."""
    grid, fam = stepper.grid, stepper.coordinates(family)
    L = spatial_operator(stepper.biharm, stepper.grads, fam.a, fam.b, j)
    return (sp.identity(grid.n_interior, format="csr") + grid.dt * L).tocsr()


def step_matrix(stepper, j, family="forward"):
    """Block j (1..nt) of stepper.step_matrices(family): the step matrix
    the marches and the stacked system use."""
    n = stepper.grid.n_interior
    block = slice((j - 1) * n, j * n)
    return stepper.step_matrices(family)[block, block]
