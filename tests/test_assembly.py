"""The grid operators and the stacked space-time system against the loop
builders they replaced: per-index COO stencils along each axis, and the
block-by-block COO assembly of the optimality system.  The Kronecker-sum
and block-matrix forms must give the same CSR arrays, entry for entry."""

import numpy as np
import pytest
import scipy.sparse as sp

from hierctrl.mesh import SpaceTimeField, build_grid, build_mask
from hierctrl.nash import stacked_system
from hierctrl.operators import ProblemSpec, assemble_biharmonic, extended_laplacian, gradient_matrices


def _ref_axis_laplacian_rows(n, h):
    inv_h2 = 1.0 / (h * h)
    rows, cols, vals = [], [], []
    for j in range(1, n - 1):
        rows.append(j)
        cols.append(j - 1)
        vals.append(-2.0 * inv_h2)
        if j - 2 >= 0:
            rows.append(j)
            cols.append(j - 2)
            vals.append(inv_h2)
        if j <= n - 3:
            rows.append(j)
            cols.append(j)
            vals.append(inv_h2)
    rows += [0, n - 1]
    cols += [0, n - 3]
    vals += [2.0 * inv_h2, 2.0 * inv_h2]
    return sp.csr_matrix((vals, (rows, cols)), shape=(n, n - 2))


def _ref_axis_embedding(n):
    rows = list(range(1, n - 1))
    cols = list(range(n - 2))
    vals = [1.0] * (n - 2)
    return sp.csr_matrix((vals, (rows, cols)), shape=(n, n - 2))


def _ref_axis_gradient(n, h):
    inv_2h = 0.5 / h
    rows, cols, vals = [], [], []
    for j in range(1, n - 1):
        if j - 2 >= 0:
            rows.append(j - 1)
            cols.append(j - 2)
            vals.append(-inv_2h)
        if j <= n - 3:
            rows.append(j - 1)
            cols.append(j)
            vals.append(inv_2h)
    return sp.csr_matrix((vals, (rows, cols)), shape=(n - 2, n - 2))


def _ref_extended_laplacian(grid):
    if grid.dim == 1:
        return _ref_axis_laplacian_rows(grid.nx[0], grid.h[0])
    Lx = _ref_axis_laplacian_rows(grid.nx[0], grid.h[0])
    Ly = _ref_axis_laplacian_rows(grid.nx[1], grid.h[1])
    Sx = _ref_axis_embedding(grid.nx[0])
    Sy = _ref_axis_embedding(grid.nx[1])
    return (sp.kron(Lx, Sy) + sp.kron(Sx, Ly)).tocsr()


def _ref_per_axis_product(grid, axis_factor):
    out = np.ones(grid.nx)
    for axis in range(grid.dim):
        shape = [1] * grid.dim
        shape[axis] = grid.nx[axis]
        out = out * axis_factor(grid.nx[axis]).reshape(shape)
    return out


def _halving(n):
    fac = np.ones(n)
    fac[0] = fac[-1] = 0.5
    return fac


def _cells(n):
    fac = np.ones(n)
    fac[0] = fac[-1] = 0.0
    fac[1] = fac[-2] = 1.5
    return fac


def _ref_biharmonic(grid):
    A = _ref_extended_laplacian(grid)
    tau = _ref_per_axis_product(grid, _halving).reshape(-1)
    M = (A.T @ sp.diags(tau) @ A).tocsr()
    M.sum_duplicates()
    return M


def _ref_gradient_matrices(grid):
    if grid.dim == 1:
        return (_ref_axis_gradient(grid.nx[0], grid.h[0]),)
    Gx = _ref_axis_gradient(grid.nx[0], grid.h[0])
    Gy = _ref_axis_gradient(grid.nx[1], grid.h[1])
    Ix = sp.identity(grid.nx[0] - 2, format="csr")
    Iy = sp.identity(grid.nx[1] - 2, format="csr")
    return (sp.kron(Gx, Iy).tocsr(), sp.kron(Ix, Gy).tocsr())


def _ref_stacked_system(spec):
    grid = spec.grid
    n = grid.n_interior
    nt = grid.nt
    total = 3 * nt * n
    dt = grid.dt
    stepper = spec.stepper
    chi = [m.interior_vector() for m in spec.follower_masks]
    chid = [m.interior_vector() for m in spec.target_masks]

    def w_idx(j):  # w^j, j = 1..nt
        return (j - 1) * n

    def p_idx(i, k):  # phi_i^k, k = 0..nt-1
        return nt * n + i * nt * n + k * n

    rows, cols, vals = [], [], []
    eyes = sp.identity(n, format="coo")

    def put(block, r0, c0, scale=1.0):
        blk = block.tocoo()
        rows.extend(blk.row + r0)
        cols.extend(blk.col + c0)
        vals.extend(blk.data * scale)

    for j in range(1, nt + 1):
        r0 = w_idx(j)
        put(stepper.step_matrix(j, "forward"), r0, w_idx(j))
        if j >= 2:
            put(eyes, r0, w_idx(j - 1), -1.0)
        for i in range(2):
            put(sp.diags(chi[i] * (dt / spec.mu[i])).tocoo(), r0, p_idx(i, j - 1))
    for i in range(2):
        for j in range(1, nt + 1):
            r0 = p_idx(i, j - 1)
            put(stepper.step_matrix(j, "adjoint").T.tocoo(), r0, p_idx(i, j - 1))
            if j <= nt - 1:
                put(eyes, r0, p_idx(i, j), -1.0)
            put(sp.diags(chid[i] * (dt * spec.alpha[i])).tocoo(), r0, w_idx(j), -1.0)
    return sp.csr_matrix((vals, (rows, cols)), shape=(total, total))


def _spec(grid, varying):
    """Distinct follower, target, alpha and mu per follower; with varying,
    time-dependent a and b and distinct adjoint coefficients."""
    rng = np.random.default_rng(7)
    shape = (grid.nt + 1,) + grid.nx
    box = lambda lo, hi: tuple((lo * L, hi * L) for L in grid.lengths)

    def field():
        return SpaceTimeField(grid, rng.standard_normal(shape)) if varying else SpaceTimeField.zeros(grid)

    z = SpaceTimeField.zeros(grid)
    spec = ProblemSpec(
        grid=grid, a=field(), b=tuple(field() for _ in range(grid.dim)),
        leader_mask=build_mask(grid, box(0.25, 0.75)),
        follower_masks=(build_mask(grid, box(0.2, 0.5)), build_mask(grid, box(0.5, 0.8))),
        target_masks=(build_mask(grid, box(0.3, 0.6)), build_mask(grid, box(0.4, 0.7))),
        alpha=(1e-3, 2.5e-3), mu=(1.0, 0.7), targets=(z, z), w0=np.zeros(grid.nx),
    )
    if varying:
        spec = spec.with_(a_adj=field(), b_adj=tuple(field() for _ in range(grid.dim)))
    return spec


GRIDS = {
    "1d": build_grid(1, 6.0, 12, 1.0, 10),
    "1d_min": build_grid(1, 1.0, 6, 1.0, 4),
    "2d_square": build_grid(2, (6.0, 6.0), (8, 8), 1.0, 6),
    "2d_nonsquare": build_grid(2, (1.0, 1.5), (7, 11), 1.0, 5),
    "2d_min": build_grid(2, (1.0, 1.0), (6, 6), 1.0, 4),
}


def assert_same_csr(got, ref):
    assert got.format == ref.format == "csr"
    assert got.shape == ref.shape
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(ref, name)
        assert a.dtype == b.dtype, name
        assert np.array_equal(a, b), name


@pytest.mark.parametrize("name", GRIDS)
def test_grid_operators_match_loop_builders(name):
    grid = GRIDS[name]
    assert_same_csr(extended_laplacian(grid), _ref_extended_laplacian(grid))
    assert_same_csr(assemble_biharmonic(grid), _ref_biharmonic(grid))
    got, ref = gradient_matrices(grid), _ref_gradient_matrices(grid)
    assert len(got) == len(ref) == grid.dim
    for g, r in zip(got, ref):
        assert_same_csr(g, r)


@pytest.mark.parametrize("name", GRIDS)
def test_node_weights_match_per_axis_product(name):
    grid = GRIDS[name]
    assert np.array_equal(grid.node_weights(), _ref_per_axis_product(grid, _cells) * grid.hd)


@pytest.mark.parametrize("varying", [False, True], ids=["constant", "time_varying"])
@pytest.mark.parametrize("name", GRIDS)
def test_stacked_system_matches_coo_assembly(name, varying):
    spec = _spec(GRIDS[name], varying)
    if varying:
        st = spec.stepper
        assert abs(st.step_matrix(2, "adjoint") - st.step_matrix(2, "forward")).max() > 0.0
        assert abs(st.step_matrix(2, "forward") - st.step_matrix(3, "forward")).max() > 0.0
    assert_same_csr(stacked_system(spec), _ref_stacked_system(spec))
