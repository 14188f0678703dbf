import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg.lapack import dgbtrf, dgbtrs, dpbtrf, dpbtrs

from hierctrl import operators
from hierctrl.errors import ShapeMismatch, SingularMatrix
from hierctrl.linalg import PIVOT_RTOL, factorize
from hierctrl.mesh import build_grid, build_mask, norm_h
from hierctrl.nash import solve_nash_fixed_point
from hierctrl.operators import MODAL_MAX_N, ProblemSpec, assemble_biharmonic, lagged

from conftest import leader_bump, make_hum_spec, make_nash_spec
from oracles import (duality_gap, solve_adjoint, solve_forward, spatial_operator, sparse_step_matrix, step_matrix,
                     to_interior)


def _step(st, family, j, transpose, x):
    """Step j (1..nt) of one (n,) column x: one band Cholesky solve on a
    symmetric positive-definite family, one band LU solve (transposed when
    asked) on any other."""
    fam = st.coordinates(family)
    if fam.cholesky is not None:
        return dpbtrs(fam.cholesky[j - 1], x, lower=1)[0]
    kl, ku, factors, pivots = fam.lu
    return dgbtrs(factors[j - 1], kl, ku, x, pivots[j - 1], trans=int(transpose))[0]


def _stepped(st, family, datum, src, backward):
    """A march as one _step per level and column: datum (n,) or (k, n),
    src (nt+1, n) or (k, nt+1, n), each column contiguous."""
    n, nt = st.grid.n_interior, st.grid.nt
    out = np.zeros_like(src)
    for col, d, s in zip(out.reshape(-1, nt + 1, n), datum.reshape(-1, n), src.reshape(-1, nt + 1, n)):
        col[nt if backward else 0] = d
        for j in range(nt, 0, -1) if backward else range(1, nt + 1):
            read, write = (j, j - 1) if backward else (j - 1, j)
            col[write] = _step(st, family, j, backward, col[read] + st.grid.dt * s[j])
    return out


def _plain_spec(grid, a_values=None, b_values=None):
    """A spec whose coefficients are the interior values of full-node arrays."""
    z = np.zeros((grid.nt + 1, grid.n_interior))
    a = z if a_values is None else grid.to_interior_levels(a_values)
    if b_values is None:
        b = (z,) * grid.dim
    else:
        b = tuple(grid.to_interior_levels(bv) for bv in b_values)
    L = grid.lengths[0]
    box = lambda lo, hi: tuple((lo * Lx, hi * Lx) for Lx in grid.lengths)
    return ProblemSpec(
        grid=grid, a=a, b=b,
        leader_mask=build_mask(grid, box(0.25, 0.75)),
        follower_masks=(build_mask(grid, box(0.2, 0.5)), build_mask(grid, box(0.5, 0.8))),
        target_masks=(build_mask(grid, box(0.35, 0.65)),) * 2,
        alpha=(1e-3, 1e-3), mu=(1.0, 1.0), targets=(z, z), w0=np.zeros(grid.n_interior),
    )


def test_biharmonic_zero_field():
    g = build_grid(1, 1.0, 16, 1.0, 8)
    M = assemble_biharmonic(g)
    assert np.all(M @ np.zeros(g.n_interior) == 0.0)


def test_biharmonic_symmetric_exactly():
    for g in (build_grid(1, 1.0, 16, 1.0, 8), build_grid(2, (1.0, 1.5), (8, 9), 1.0, 8)):
        M = assemble_biharmonic(g)
        assert abs(M - M.T).max() == 0.0


def test_biharmonic_clamped_stencil_rows():
    g = build_grid(1, 1.0, 9, 1.0, 8)
    M = (assemble_biharmonic(g) * g.h[0] ** 4).toarray()
    assert np.allclose(M[0, :3], [7.0, -4.0, 1.0])
    assert np.allclose(M[3, 1:6], [1.0, -4.0, 6.0, -4.0, 1.0])


def test_biharmonic_quartic_interior_and_wall_defect():
    """u = x^2(1-x)^2 has u'''' = 24; the 5-point stencil reproduces it
    exactly away from the walls, while the mirror closure carries its
    known -4/h defect on the wall-adjacent rows."""
    g = build_grid(1, 1.0, 64, 1.0, 8)
    x = g.coords(0)
    u = x**2 * (1 - x) ** 2
    app = assemble_biharmonic(g) @ to_interior(g, u)
    assert np.max(np.abs(app[2:-2] - 24.0)) <= 1e-6
    assert app[0] - 24.0 == pytest.approx(-4.0 / g.h[0], rel=1e-8)
    assert app[-1] - 24.0 == pytest.approx(-4.0 / g.h[0], rel=1e-8)


def test_biharmonic_consistency_ratio_boundary_compatible():
    """Second-order convergence on a clamped profile that is mirror-even at
    both walls (the closure is exact for it): error ratio ~ 4 per halving."""
    errs = []
    for nx in (32, 64, 128):
        g = build_grid(1, 1.0, nx, 1.0, 8)
        x = g.coords(0)
        u = np.sin(np.pi * x) ** 2
        exact = -8 * np.pi**4 * np.cos(2 * np.pi * x)
        app = assemble_biharmonic(g) @ to_interior(g, u)
        errs.append(np.max(np.abs(app - to_interior(g, exact))))
    for e0, e1 in zip(errs, errs[1:]):
        assert 3.0 <= e0 / e1 <= 5.0


def test_biharmonic_quartic_2d_interior():
    g = build_grid(2, (1.0, 1.0), (24, 24), 1.0, 8)
    X, Y = g.meshes()
    u = X**2 * (1 - X) ** 2
    app = assemble_biharmonic(g) @ to_interior(g, u)
    interior = app.reshape(g.interior_shape)[2:-2, 2:-2]
    assert np.max(np.abs(interior - 24.0)) <= 1e-5


def test_reaction_shift_is_identity():
    """A unit reaction adds dt I to the step matrix, to rounding."""
    g = build_grid(1, 1.0, 12, 1.0, 8)
    shifted = step_matrix(_plain_spec(g, a_values=np.ones((g.nt + 1,) + g.nx)).stepper, 1)
    plain = step_matrix(_plain_spec(g).stepper, 1)
    assert abs(shifted - plain - g.dt * sp.identity(g.n_interior)).max() <= 1e-15 * abs(plain).max()


def test_operator_symmetric_without_transport():
    g = build_grid(1, 1.0, 12, 1.0, 8)
    spec = _plain_spec(g, a_values=np.full((g.nt + 1,) + g.nx, 0.7))
    st = spec.stepper
    fwd = step_matrix(st, 2, "forward")
    assert abs(fwd - fwd.T).max() == 0.0
    assert abs(fwd - sparse_step_matrix(st, 2)).max() == 0.0
    # the backward march solves with the adjoint-family matrix transposed
    assert abs(step_matrix(st, 2, "adjoint").T - fwd).max() == 0.0


def test_unknown_matrix_family_rejected():
    g = build_grid(1, 1.0, 12, 1.0, 8)
    st = _plain_spec(g).stepper
    for call in (lambda: st.step_matrices("adjiont"),
                 lambda: st.march_backward(np.zeros(g.n_interior), family="backward"),
                 lambda: st.march_forward(np.zeros(g.n_interior), family="Forward")):
        with pytest.raises(ValueError, match="unknown matrix family"):
            call()


def test_transpose_contract_exact(rng):
    g = build_grid(1, 1.0, 14, 1.0, 8)
    shape = (g.nt + 1,) + g.nx
    spec = _plain_spec(g, a_values=rng.standard_normal(shape),
                       b_values=[rng.standard_normal(shape)])
    st = spec.stepper
    eye = sp.identity(g.n_interior, format="csr")
    for level in (1, 4, 8):
        L = spatial_operator(st.biharm, st.grads, spec.a, spec.b, level)
        assert abs(L - L.T).max() > 0.0  # transport makes the operator nonsymmetric
        adj_step = step_matrix(st, level, "adjoint").T  # what the backward march solves with
        assert abs(adj_step - (eye + g.dt * L).T).max() == 0.0
    for j in (1, 5):
        assert abs(step_matrix(st, j, "adjoint") - step_matrix(st, j, "forward")).max() == 0.0


def test_solve_forward_zero_data():
    g = build_grid(1, 1.0, 12, 1.0, 8)
    spec = _plain_spec(g)
    w = solve_forward(spec, w0=np.zeros(g.n_interior))
    assert np.all(w == 0.0)


def test_solve_forward_dissipative(rng):
    g = build_grid(1, 1.0, 12, 1.0, 8)
    spec = _plain_spec(g)
    w0 = rng.standard_normal(g.n_interior)
    w = solve_forward(spec, w0=w0)
    norms = [norm_h(g, w[k]) for k in range(g.nt + 1)]
    assert all(norms[k + 1] <= norms[k] + 1e-15 for k in range(g.nt))


def test_duality_identity_random_coefficients(rng):
    g = build_grid(1, 1.0, 12, 1.0, 8)
    shape = (g.nt + 1,) + g.nx
    spec = _plain_spec(g, a_values=rng.standard_normal(shape),
                       b_values=[rng.standard_normal(shape)])
    for _ in range(5):
        gap = duality_gap(
            spec,
            rng.standard_normal(g.n_interior),
            rng.standard_normal((g.nt + 1, g.n_interior)),
            rng.standard_normal(g.n_interior),
            rng.standard_normal((g.nt + 1, g.n_interior)),
        )
        assert gap <= 1e-10


def test_duality_identity_2d(rng):
    g = build_grid(2, (1.0, 1.0), (8, 8), 0.5, 6)
    shape = (g.nt + 1,) + g.nx
    spec = _plain_spec(g, a_values=rng.standard_normal(shape),
                       b_values=[rng.standard_normal(shape), rng.standard_normal(shape)])
    gap = duality_gap(
        spec,
        rng.standard_normal(g.n_interior),
        rng.standard_normal((g.nt + 1, g.n_interior)),
        rng.standard_normal(g.n_interior),
        rng.standard_normal((g.nt + 1, g.n_interior)),
    )
    assert gap <= 1e-10


def test_public_adjoint_pairing(rng):
    """<w(T), psiT> - <w0, psi(0)> equals the source pairing for the
    forward march and the adjoint family's backward march on a plain spec."""
    spec = make_nash_spec()
    g = spec.grid
    f = rng.standard_normal((g.nt + 1, g.n_interior))
    w = solve_forward(spec, f=f, w0=spec.w0)
    psiT = rng.standard_normal(g.n_interior)
    psi = solve_adjoint(spec, None, psiT)
    lhs = g.hd * float(np.dot(w[-1], psiT))
    rhs = g.hd * float(np.dot(spec.w0, psi[0]))
    chi = spec.leader_mask.interior_vector()
    pi = psi
    rhs += g.dt * g.hd * float(np.sum(pi[:-1] * (f[1:] * chi)))
    assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs), 1e-300)


def test_adjoint_equals_time_reversed_forward(rng):
    g = build_grid(1, 1.0, 12, 1.0, 8)
    spec = _plain_spec(g)
    data = rng.standard_normal(g.n_interior)
    w = solve_forward(spec, w0=data)
    psi = solve_adjoint(spec, None, data)
    assert np.allclose(psi[::-1], w, atol=1e-14)


def test_adjoint_zero_data():
    g = build_grid(1, 1.0, 12, 1.0, 8)
    spec = _plain_spec(g)
    psi = solve_adjoint(spec, np.zeros((g.nt + 1, g.n_interior)), np.zeros(g.n_interior))
    assert np.all(psi == 0.0)


def test_adjoint_terminal_stored_exactly(rng):
    g = build_grid(1, 1.0, 12, 1.0, 8)
    spec = _plain_spec(g)
    psiT = rng.standard_normal(g.n_interior)
    psi = solve_adjoint(spec, None, psiT)
    assert np.array_equal(psi[-1], psiT)


def test_time_dependent_coefficients_still_dual(rng):
    g = build_grid(1, 1.0, 12, 1.0, 8)
    t = g.times()[:, None]
    x = g.coords(0)[None, :]
    a_vals = np.sin(2 * np.pi * t) * np.cos(np.pi * x)
    spec = _plain_spec(g, a_values=a_vals, b_values=[0.5 * t * np.ones_like(a_vals)])
    gap = duality_gap(
        spec,
        rng.standard_normal(g.n_interior),
        rng.standard_normal((g.nt + 1, g.n_interior)),
        rng.standard_normal(g.n_interior),
        rng.standard_normal((g.nt + 1, g.n_interior)),
    )
    assert gap <= 1e-10


def _frozen_like_stepper(rng, nx=14, transport=True):
    """Time-dependent a and b with distinct adjoint coefficients, as the
    semilinear frozen specs of a gradient nonlinearity have: both families
    keep a band LU factor of every level at any size.  Without transport
    (b = b_adj = 0) both families are symmetric and keep band Cholesky
    factors at any size."""
    g = build_grid(1, 1.0, nx, 1.0, 8)
    shape = (g.nt + 1,) + g.nx

    def transport_values():
        return rng.standard_normal(shape) if transport else np.zeros(shape)

    spec = _plain_spec(g, a_values=rng.standard_normal(shape), b_values=[transport_values()])
    spec = spec.with_(a_adj=g.to_interior_levels(rng.standard_normal(shape)),
                      b_adj=(g.to_interior_levels(transport_values()),))
    st = spec.stepper
    fam = st.coordinates("forward")
    factors = fam.lu[2] if transport else fam.cholesky
    assert len(factors) == g.nt and not np.array_equal(factors[0], factors[1])
    assert abs(step_matrix(st, 3, "adjoint") - step_matrix(st, 3, "forward")).max() > 0.0
    return g, st


# interior sizes n = nx - 2: 12, 14 (the shipped 1D grids), 38 (semilinear_1d), 62, 98, 128 and 144;
# time-dependent families keep band factors at every size
COLUMN_SIZES = (12, 14, 38, 62, 98, 128, 144)


def _on_column_grids(cases):
    """pytest params (*values, nx) of every case (id, values) on every
    COLUMN_SIZES grid; on the n = 12 grid a case keeps its own id."""
    return [pytest.param(*values, n + 2, id=case_id if n == 12 else f"{case_id}-n{n}")
            for n in COLUMN_SIZES for case_id, values in cases]


@pytest.mark.parametrize("direction,family,transport,nx", _on_column_grids(
    [(f"{d}-{f}" + ("" if t else "-symmetric"), (d, f, t))
     for t in (True, False) for d in ("march_forward", "march_backward") for f in ("forward", "adjoint")]))
def test_two_column_march_matches_single_columns_bitwise(rng, family, direction, transport, nx):
    """Each column of a 2-column march is bit for bit the single-column
    march of its own contiguous data."""
    g, st = _frozen_like_stepper(rng, nx, transport)
    march = getattr(st, direction)
    datum = rng.standard_normal((2, g.n_interior))
    src = rng.standard_normal((2, g.nt + 1, g.n_interior))
    both = march(datum, src, family=family)
    assert both.shape == (2, g.nt + 1, g.n_interior)
    for k in range(2):
        assert np.array_equal(both[k], march(datum[k], src[k], family=family))
    # a shared (n,) datum and no sources
    shared = march(datum[0], src, family=family)
    assert np.array_equal(shared[1], march(datum[0], src[1], family=family))
    free = march(datum, None, family=family)
    for k in range(2):
        assert np.array_equal(free[k], march(datum[k], None, family=family))


@pytest.mark.parametrize("direction", ["march_forward", "march_backward"])
def test_one_column_march_equals_plain_form(rng, direction):
    g, st = _frozen_like_stepper(rng)
    march = getattr(st, direction)
    datum = rng.standard_normal(g.n_interior)
    src = rng.standard_normal((g.nt + 1, g.n_interior))
    plain = march(datum, src, family="adjoint")
    assert plain.shape == (g.nt + 1, g.n_interior)
    assert np.array_equal(march(datum, src[None], family="adjoint")[0], plain)
    assert np.array_equal(march(datum[None], src[None], family="adjoint")[0], plain)


def test_duality_identity_per_column(rng):
    """<P^nt, W^nt> + dt sum <g^j, W^j> = <P^0, W^0> + dt sum <P^{j-1}, s^j>,
    column by column, for a 2-column forward and backward march."""
    g, st = _frozen_like_stepper(rng)
    n, nt = g.n_interior, g.nt
    w0, psiT = rng.standard_normal((2, n)), rng.standard_normal((2, n))
    s, gsrc = rng.standard_normal((2, nt + 1, n)), rng.standard_normal((2, nt + 1, n))
    W = st.march_forward(w0, s)
    P = st.march_backward(psiT, gsrc)
    for k in range(2):
        lhs = P[k, -1] @ W[k, -1] + g.dt * np.sum(gsrc[k, 1:] * W[k, 1:])
        rhs = P[k, 0] @ W[k, 0] + g.dt * np.sum(P[k, :-1] * s[k, 1:])
        assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs))


@pytest.mark.parametrize("datum_shape,source_shape", [
    ((13,), None),                   # datum too long
    ((1, 2, 12), None),              # datum 3-D
    ((12,), (9, 13)),                # sources with the wrong n
    ((12,), (2, 8, 12)),             # sources with the wrong level count
    ((12,), (1, 2, 9, 12)),          # sources 4-D
    ((2, 12), (3, 9, 12)),           # column counts disagree
    ((2, 12), (9, 12)),              # a 2-column datum with single-column sources
    ((1, 12), (9, 12)),              # a 1-column datum does not broadcast either
    ((12, 2), None),                 # datum with the column axis last
    ((12,), (9, 12, 2)),             # sources with the column axis last
])
def test_march_rejects_mismatched_shapes(datum_shape, source_shape):
    g = build_grid(1, 1.0, 14, 1.0, 8)
    st = _plain_spec(g).stepper
    assert (g.n_interior, g.nt) == (12, 8)
    src = None if source_shape is None else np.zeros(source_shape)
    for march in (st.march_forward, st.march_backward):
        with pytest.raises(ShapeMismatch):
            march(np.zeros(datum_shape), src)


def _superlu_marches(st, family, datum, src):
    """Forward and backward marches by SuperLU solves of the sparse step
    matrices, one per level."""
    g = st.grid
    n, nt = g.n_interior, g.nt
    facts = [factorize(step_matrix(st, j, family)) for j in range(1, nt + 1)]
    fwd, bwd = np.zeros((nt + 1, n)), np.zeros((nt + 1, n))
    fwd[0], bwd[nt] = datum, datum
    for j in range(1, nt + 1):
        fwd[j] = facts[j - 1].solve(fwd[j - 1] + g.dt * src[j])
    for j in range(nt, 0, -1):
        bwd[j - 1] = facts[j - 1].solve(bwd[j] + g.dt * src[j], transpose=True)
    return fwd, bwd


def _transport_stepper(rng, dim, nx, nt=8):
    """Time-dependent reaction and transport along every axis, with distinct
    adjoint coefficients: both families keep a band LU factor per level."""
    g = build_grid(dim, 1.0 if dim == 1 else (1.0, 1.5), nx, 1.0, nt)
    shape = (g.nt + 1,) + g.nx
    spec = _plain_spec(g, a_values=rng.standard_normal(shape),
                       b_values=[rng.standard_normal(shape) for _ in range(dim)])
    spec = spec.with_(a_adj=g.to_interior_levels(rng.standard_normal(shape)),
                      b_adj=tuple(g.to_interior_levels(rng.standard_normal(shape)) for _ in range(dim)))
    st = spec.stepper
    assert all(st.coordinates(family).lu is not None for family in ("forward", "adjoint"))
    return g, st


# 1D, and 2D with n = 100 and n = 196 unknowns (kl = 20 and 28)
@pytest.mark.parametrize("dim,nx", [(1, 14), (2, (12, 12)), (2, (16, 16))])
@pytest.mark.parametrize("family", ["forward", "adjoint"])
def test_lu_marches_match_superlu_solves(rng, family, dim, nx):
    """On a spec with time-dependent transport and distinct adjoint
    coefficients both marches step on band LU factors, and agree with
    SuperLU solves of the sparse step matrices, level by level."""
    g, st = _transport_stepper(rng, dim, nx)
    n, nt = g.n_interior, g.nt
    datum, src = rng.standard_normal(n), rng.standard_normal((nt + 1, n))
    fwd, bwd = _superlu_marches(st, family, datum, src)
    for got, ref in ((st.march_forward(datum, src, family=family), fwd),
                     (st.march_backward(datum, src, family=family), bwd)):
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("dim,nx", [(1, 16), (1, 40), (2, (8, 8)), (2, (12, 12))])
def test_dense_step_stack_equals_sparse_step_matrices(rng, dim, nx):
    """The dense read of level l's diagonals (_step_diagonals as one dia
    matrix, which a modal family's eigendecomposition reads), and block
    levels[l] of step_matrices, are the step matrix of levels[l] by sparse
    sums (sparse_step_matrix), entry for entry, with time-dependent reaction
    and transport along every axis.  Slice l of _step_band holds the same
    matrix in general band storage, entry for entry, with zeros in its kl
    fill rows and outside the matrix."""
    g = build_grid(dim, 1.0 if dim == 1 else (1.0, 1.5), nx, 1.0, 6)
    shape = (g.nt + 1,) + g.nx
    spec = _plain_spec(g, a_values=rng.standard_normal(shape),
                       b_values=[rng.standard_normal(shape) for _ in range(dim)])
    st = spec.stepper
    levels = [1, 3, 4, 6]
    n = g.n_interior
    offsets, data = st._step_diagonals(spec.a, spec.b, levels)
    for diagonals, j in zip(data, levels):
        dense = sp.dia_matrix((diagonals, offsets), shape=(n, n)).toarray()
        S = sparse_step_matrix(st, j).toarray()
        assert np.array_equal(dense, S) and np.array_equal(step_matrix(st, j).toarray(), S)
    band, kl, ku = st._step_band(spec.a, spec.b, levels)
    kd = 2 * (g.nx[-1] - 2) if dim == 2 else 2
    assert (kl, ku) == (kd, kd) and band.shape == (len(levels), 3 * kd + 1, n)
    for sl, j in zip(band, levels):
        S = sparse_step_matrix(st, j).toarray()
        assert not sl[:kl].any()
        for d in range(-ku, kl + 1):  # row kl + ku + d holds the entries (j + d, j)
            inside = sl[kl + ku + d, max(0, -d):n - max(0, d)]
            assert np.array_equal(inside, np.diagonal(S, -d)) and np.count_nonzero(sl[kl + ku + d]) <= inside.size
            assert not np.concatenate([sl[kl + ku + d, :max(0, -d)], sl[kl + ku + d, n - max(0, d):]]).any()
        assert np.count_nonzero(np.triu(S, kd + 1)) == 0 and np.count_nonzero(np.tril(S, -kd - 1)) == 0


@pytest.mark.parametrize("nx", [16, 132])
def test_transport_marches_on_band_lu_at_every_size(rng, nx):
    """A transport term keeps the family off the modal and Cholesky paths,
    on one band LU factor at any size (n = 14 and 130): a step is one
    dgbtrs solve, the transposed step its trans=1 solve."""
    g = build_grid(1, 1.0, nx, 1.0, 4)
    st = _plain_spec(g, b_values=[np.full((g.nt + 1,) + g.nx, 0.5)]).stepper
    fam = st.coordinates("forward")
    assert not fam.modal and fam.cholesky is None
    kl, ku, factors, pivots = fam.lu
    assert (kl, ku) == (2, 2) and all(f is factors[0] for f in factors) and factors[0].shape == (7, g.n_interior)
    w0 = rng.standard_normal(g.n_interior)
    assert np.array_equal(st.march_forward(w0)[1], dgbtrs(factors[0], kl, ku, w0, pivots[0])[0])
    assert np.array_equal(st.march_backward(w0)[-2], dgbtrs(factors[0], kl, ku, w0, pivots[0], trans=1)[0])


def test_2d_benchmark_grid_marches_on_one_band_factor(rng):
    """The 24 x 24 grid has 484 unknowns, above the modal cap: its
    time-constant symmetric family keeps one band Cholesky factor (kd = 44)
    that every step solves with."""
    g = build_grid(2, (1.0, 1.0), (24, 24), 1.0, 4)
    assert g.n_interior == 484 > MODAL_MAX_N
    st = _plain_spec(g).stepper
    fam = st.coordinates("forward")
    assert not fam.modal and fam.lu is None
    factors = fam.cholesky
    assert factors[0].shape == (45, 484) and all(f is factors[0] for f in factors)
    w0 = rng.standard_normal(g.n_interior)
    W = st.march_forward(w0)
    assert np.array_equal(W[1], dpbtrs(factors[0], w0, lower=1)[0])
    assert np.array_equal(st.march_backward(w0)[-2], W[1])


def test_singular_level_in_dense_stack_raises():
    """A reaction at the last interior node that makes that diagonal entry
    of the level-3 step matrix equal its Schur complement leaves a last pivot
    at rounding level: SingularMatrix naming stack entry 2 (levels 1..nt),
    never numpy's LinAlgError."""
    g = build_grid(1, 1.0, 14, 1.0, 8)
    M = np.eye(g.n_interior) + g.dt * assemble_biharmonic(g).toarray()
    schur = M[-1, :-1] @ np.linalg.solve(M[:-1, :-1], M[:-1, -1])
    a = np.zeros((g.nt + 1,) + g.nx)
    a[3, -2] = (schur - M[-1, -1]) / g.dt
    with pytest.raises(SingularMatrix, match="matrix 2 "):
        _plain_spec(g, a_values=a).stepper


@pytest.mark.parametrize("name", ["a", "b", "a_adj", "b_adj", "targets", "w0"])
def test_spec_rejects_data_of_another_grid(name):
    """Data built on an nt = 19 grid (20 levels) do not fit an nt = 16 spec:
    the spec raises ShapeMismatch when it is built, before a stepper reads
    the wrong time levels or a sweep meets arrays of another shape."""
    spec = make_hum_spec(nx=16, nt=16)
    other = build_grid(1, spec.grid.lengths, 16, spec.grid.T, 19)
    levels = np.zeros((other.nt + 1, other.n_interior))
    data = {"a": levels, "b": (levels,), "a_adj": levels, "b_adj": (levels,),
            "targets": (levels, levels), "w0": np.zeros(other.nx)}
    with pytest.raises(ShapeMismatch, match=name):
        spec.with_(**{name: data[name]})


def test_data_only_copy_shares_the_stepper(rng):
    """with_ keeps the stepper of a copy that leaves grid and coefficients
    alone, also for copies made before the first march."""
    spec = _plain_spec(build_grid(1, 1.0, 12, 1.0, 6))
    g = spec.grid
    z = g.to_interior_levels(rng.standard_normal((g.nt + 1,) + g.nx))
    early = spec.with_(w0=rng.standard_normal(g.n_interior))
    copies = [early, spec.with_zero_data(), spec.with_(mu=(2.0, 3.0), targets=(z, z)),
              spec.with_(a=spec.a, b=spec.b)]
    assert all(c.stepper is spec.stepper for c in copies)


@pytest.mark.parametrize("name", ["grid", "a", "b", "a_adj", "b_adj"])
def test_coefficient_change_builds_its_own_stepper(rng, name):
    spec = _plain_spec(build_grid(1, 1.0, 12, 1.0, 6))
    g = spec.grid
    shape = (g.nt + 1,) + g.nx
    if name == "grid":
        # same shapes, another length: every field still fits
        changed = spec.with_(grid=build_grid(1, 2.0, 12, 1.0, 6))
    elif name in ("a", "a_adj"):
        changed = spec.with_(**{name: g.to_interior_levels(rng.uniform(0.0, 1.0, shape))})
    else:
        changed = spec.with_(**{name: (g.to_interior_levels(rng.uniform(0.0, 1.0, shape)),)})
    assert changed.stepper is not spec.stepper


def test_steppers_on_one_grid_share_its_operators(rng):
    """Every stepper on a grid, whatever its coefficients, reads the one
    biharmonic and gradient matrices assembled for that grid; another grid
    assembles its own."""
    spec = _plain_spec(build_grid(1, 1.0, 12, 1.0, 6))
    g = spec.grid
    a = g.to_interior_levels(rng.uniform(0.0, 1.0, (g.nt + 1,) + g.nx))
    steppers = [spec.stepper, spec.with_(a=a).stepper, spec.with_(a_adj=a, b_adj=(a,)).stepper]
    assert len({id(st) for st in steppers}) == 3
    biharm, grads = operators.grid_operators(g)
    assert all(st.biharm is biharm and st.grads is grads for st in steppers)
    other = spec.with_(grid=build_grid(1, 2.0, 12, 1.0, 6)).stepper
    assert other.biharm is not biharm and other.grads[0] is not grads[0]


@pytest.mark.parametrize("time_dependent", [False, True])
def test_equal_adjoint_coefficients_share_the_forward_family(rng, time_dependent):
    """Adjoint coefficients equal to the forward ones entry for entry build
    no second family (modal when time-constant, band LU otherwise):
    the adjoint marches are bitwise those of a stepper built without them.
    Coefficients that differ anywhere still build their own."""
    g = build_grid(1, 1.0, 14, 1.0, 8)
    shape = (g.nt + 1, g.n_interior)
    a = rng.uniform(0.0, 1.0, shape) if time_dependent else np.full(shape, 0.7)
    b = (rng.uniform(0.0, 1.0, shape) if time_dependent else np.zeros(shape),)
    plain = operators.TimeStepper(g, a, b)
    st = operators.TimeStepper(g, a, b, a_adj=a.copy(), b_adj=(b[0].copy(),))
    assert st.coordinates("adjoint") is st.coordinates("forward")
    datum, src = rng.standard_normal(g.n_interior), rng.standard_normal(shape)
    for march in ("march_forward", "march_backward"):
        assert np.array_equal(getattr(st, march)(datum, src, family="adjoint"),
                              getattr(plain, march)(datum, src, family="adjoint"))
    a_adj = a.copy()
    a_adj[-1, 0] += 1.0
    other = operators.TimeStepper(g, a, b, a_adj=a_adj)
    assert other.coordinates("adjoint") is not other.coordinates("forward")


def _modal_stepper(nx=14, nt=8, length=1.0):
    """Time-constant reaction, no transport: a symmetric family, kept as modes."""
    g = build_grid(1, length, nx, 1.0, nt)
    st = _plain_spec(g, a_values=np.full((g.nt + 1,) + g.nx, 0.7)).stepper
    fam = st.coordinates("forward")
    assert fam.modal and fam.cholesky is None and fam.lu is None
    return g, st


@pytest.mark.parametrize("nx,nt,length", [(14, 8, 1.0), (64, 64, 6.0)])  # the latter: the benchmark grid
@pytest.mark.parametrize("direction", ["march_forward", "march_backward"])
def test_two_column_modal_march_matches_single_columns_bitwise(rng, direction, nx, nt, length):
    g, st = _modal_stepper(nx, nt, length)
    march = getattr(st, direction)
    datum = rng.standard_normal((2, g.n_interior))
    src = rng.standard_normal((2, g.nt + 1, g.n_interior))
    both = march(datum, src)
    assert both.shape == (2, g.nt + 1, g.n_interior)
    for k in range(2):
        assert np.array_equal(both[k], march(datum[k], src[k]))
    shared = march(datum[0], src)
    for k in range(2):
        assert np.array_equal(shared[k], march(datum[0], src[k]))
    free = march(datum, None)
    for k in range(2):
        assert np.array_equal(free[k], march(datum[k], None))


# the 62-unknown benchmark grid: the eigendecomposition rounds at about 1e-16 of
# the largest eigenvalue of the step matrix, about 3000 times its smallest there
# (54 times on the 22-unknown grid), so its bound is looser (measured 6e-13 to 8e-13)
@pytest.mark.parametrize("nx,nt,rtol", [pytest.param(24, nt, 1e-13, id=str(nt)) for nt in (4, 7, 33, 64)]
                         + [pytest.param(64, 64, 2e-12, id="benchmark-grid")])
def test_modal_march_matches_step_loop(rng, monkeypatch, nx, nt, rtol):
    """The eigenbasis band solve and the band Cholesky step loop march the
    same symmetric family to rounding."""
    g, modal = _modal_stepper(nx=nx, nt=nt, length=6.0)
    monkeypatch.setattr(operators, "MODAL_MAX_N", 0)
    loop = _plain_spec(g, a_values=np.full((g.nt + 1,) + g.nx, 0.7)).stepper
    assert loop.coordinates("forward").cholesky is not None
    datum = rng.standard_normal((2, g.n_interior))
    src = rng.standard_normal((2, g.nt + 1, g.n_interior))
    for direction in ("march_forward", "march_backward"):
        got, ref = getattr(modal, direction)(datum, src), getattr(loop, direction)(datum, src)
        assert np.abs(got - ref).max() <= rtol * np.abs(ref).max()


@pytest.mark.parametrize("nx,nt,length", [(14, 8, 1.0), (39, 8, 6.0), (64, 64, 6.0), (78, 100, 6.0)])
@pytest.mark.parametrize("k", [None, 2])
def test_backward_modal_march_is_reversed_forward_march(rng, nx, nt, length, k):
    """A backward modal march equals, bit for bit, the forward march of the
    time-reversed data, reversed: source level j feeds level j-1 backward,
    so the reversed sources are levels nt..1 at levels 1..nt."""
    g, st = _modal_stepper(nx, nt, length)
    n = g.n_interior
    datum = rng.standard_normal(n if k is None else (k, n))
    src = rng.standard_normal((nt + 1, n) if k is None else (k, nt + 1, n))
    reversed_src = src.copy()
    reversed_src[..., 1:, :] = src[..., :0:-1, :]
    assert np.array_equal(st.march_backward(datum, src)[..., ::-1, :], st.march_forward(datum, reversed_src))


def test_duality_identity_on_modal_stepper(rng):
    g, st = _modal_stepper()
    spec = _plain_spec(g, a_values=np.full((g.nt + 1,) + g.nx, 0.7))
    assert spec.stepper is not st and spec.stepper.coordinates("forward").modal
    for _ in range(5):
        gap = duality_gap(
            spec,
            rng.standard_normal(g.n_interior),
            rng.standard_normal((g.nt + 1, g.n_interior)),
            rng.standard_normal(g.n_interior),
            rng.standard_normal((g.nt + 1, g.n_interior)),
        )
        assert gap <= 1e-12


def test_singular_symmetric_level_raises():
    """A time-constant reaction that leaves the last pivot of the symmetric
    step matrix at rounding level: the modal family keeps the LU rule."""
    g = build_grid(1, 1.0, 14, 1.0, 8)
    M = np.eye(g.n_interior) + g.dt * assemble_biharmonic(g).toarray()
    schur = M[-1, :-1] @ np.linalg.solve(M[:-1, :-1], M[:-1, -1])
    a = np.zeros((g.nt + 1,) + g.nx)
    a[:, -2] = (schur - M[-1, -1]) / g.dt
    with pytest.raises(SingularMatrix, match="matrix 0 "):
        _plain_spec(g, a_values=a).stepper


@pytest.mark.parametrize("backward,k,coordinates", [
    pytest.param(b, k, c, id=f"{b}-{k}" + ("-coordinates" if c else ""))
    for c in (False, True) for b in (False, True) for k in (None, 2)])
def test_all_zero_march_equals_stepped_zeros(rng, k, backward, coordinates):
    """A march with zero datum and sources returns zeros without stepping,
    in physical space and in a band family's coordinates: +0.0 throughout,
    where the stepped march on the band LU path gives the same values, some
    of them -0.0."""
    g, st = _frozen_like_stepper(rng)
    n, nt = g.n_interior, g.nt
    shape = (nt + 1, n) if k is None else (k, nt + 1, n)
    march = st.march_backward if backward else st.march_forward
    got = march(np.zeros(n), np.zeros(shape), coordinates=coordinates)
    stepped = _stepped(st, "forward", np.zeros(shape[:-2] + (n,)), np.zeros(shape), backward)
    assert got.shape == shape and np.array_equal(got, stepped)
    assert not np.signbit(got).any()


@pytest.mark.parametrize("backward,k,family,transport,nx", _on_column_grids(
    [(f"{b}-{k}" + ("" if f == "adjoint" else f"-{f}") + ("" if t else "-symmetric"), (b, k, f, t))
     for t in (True, False) for b in (False, True) for k in (None, 2) for f in ("adjoint", "forward")]))
def test_step_loop_equals_solver_loop_bitwise(rng, k, backward, family, transport, nx):
    """The step loop gives the bits of one band LU solve per step
    (transposed backward), and on a symmetric family one band Cholesky
    solve, column by column on contiguous columns."""
    g, st = _frozen_like_stepper(rng, nx, transport)
    n, nt = g.n_interior, g.nt
    datum = rng.standard_normal(n if k is None else (k, n))
    src = rng.standard_normal((nt + 1, n) if k is None else (k, nt + 1, n))
    got = (st.march_backward if backward else st.march_forward)(datum, src, family=family)
    assert np.array_equal(got, _stepped(st, family, datum, src, backward))


@pytest.mark.parametrize("nx,modal", [(MODAL_MAX_N + 2, True), (MODAL_MAX_N + 3, False)])
def test_modal_cap_in_1d(nx, modal):
    g = build_grid(1, 1.0, nx, 1.0, 4)
    st = _plain_spec(g).stepper
    assert st.coordinates("forward").modal == modal


def test_only_transport_keeps_band_lu(rng):
    """Below the modal cap a transport term keeps a band LU factor, one
    shared by every step when time-constant; a time-dependent symmetric
    family keeps one band Cholesky factor per level instead."""
    g = build_grid(1, 1.0, 14, 1.0, 8)
    shape = (g.nt + 1,) + g.nx
    transport = _plain_spec(g, b_values=[np.full(shape, 0.5)]).stepper
    varying = _plain_spec(g, a_values=rng.uniform(0.0, 1.0, shape)).stepper
    _, _, factors, pivots = transport.coordinates("forward").lu
    assert factors[0] is factors[-1] and pivots[0] is pivots[-1] and len(factors) == g.nt
    fam = varying.coordinates("forward")
    assert fam.lu is None and not fam.modal
    assert len(fam.cholesky) == g.nt and not np.array_equal(fam.cholesky[0], fam.cholesky[1])


def _symmetric_varying_stepper(rng, dim, nx, nt=6):
    """A time-dependent reaction without transport, with a distinct adjoint
    reaction: both families symmetric, neither modal."""
    g = build_grid(dim, 1.0 if dim == 1 else (1.0, 1.5), nx, 1.0, nt)
    shape = (g.nt + 1,) + g.nx
    spec = _plain_spec(g, a_values=rng.uniform(-1.0, 1.0, shape))
    spec = spec.with_(a_adj=g.to_interior_levels(rng.uniform(-1.0, 1.0, shape)))
    return g, spec


# 1D, and 2D with n = 100 and n = 144 unknowns
@pytest.mark.parametrize("dim,nx", [(1, 14), (2, (12, 12)), (2, (14, 14))])
@pytest.mark.parametrize("family", ["forward", "adjoint"])
def test_band_marches_match_superlu_solves(rng, family, dim, nx):
    """A time-dependent symmetric family marches on band Cholesky factors
    at any size, and agrees with SuperLU solves of its sparse step
    matrices, level by level, forward and backward."""
    g, spec = _symmetric_varying_stepper(rng, dim, nx)
    st = spec.stepper
    assert st.coordinates(family).cholesky is not None
    assert st.coordinates("adjoint") is not st.coordinates("forward")
    n, nt = g.n_interior, g.nt
    datum, src = rng.standard_normal(n), rng.standard_normal((nt + 1, n))
    fwd, bwd = _superlu_marches(st, family, datum, src)
    for got, ref in ((st.march_forward(datum, src, family=family), fwd),
                     (st.march_backward(datum, src, family=family), bwd)):
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("dim,nx", [(1, 14), (2, (12, 12))])
def test_duality_identity_on_band_stepper(rng, dim, nx):
    g, spec = _symmetric_varying_stepper(rng, dim, nx)
    spec = spec.with_(a_adj=None)
    assert spec.stepper.coordinates("forward").cholesky is not None
    for _ in range(3):
        gap = duality_gap(
            spec,
            rng.standard_normal(g.n_interior),
            rng.standard_normal((g.nt + 1, g.n_interior)),
            rng.standard_normal(g.n_interior),
            rng.standard_normal((g.nt + 1, g.n_interior)),
        )
        assert gap <= 1e-12


@pytest.mark.parametrize("nx", [14, 146])
def test_indefinite_symmetric_level_marches_as_transport_does(rng, nx):
    """A reaction at level 3 below -(1 + dt lambda_min(B))/dt, midway
    between the two smallest eigenvalues of that step matrix, makes it
    indefinite and nonsingular: dpbtrf refuses it, and the family keeps
    band LU factors at any size, which march as SuperLU solves of the step
    matrices do."""
    g = build_grid(1, 1.0, nx, 1.0, 8)
    lam = np.linalg.eigvalsh(np.eye(g.n_interior) + g.dt * assemble_biharmonic(g).toarray())[:2]
    a = np.zeros((g.nt + 1,) + g.nx)
    a[3] = -lam.mean() / g.dt
    st = _plain_spec(g, a_values=a).stepper
    assert lam[0] < -g.dt * a[3, 1] and np.linalg.eigvalsh(step_matrix(st, 3).toarray())[0] < 0.0
    fam = st.coordinates("forward")
    assert fam.cholesky is None and fam.lu is not None
    datum, src = rng.standard_normal(g.n_interior), rng.standard_normal((g.nt + 1, g.n_interior))
    fwd, bwd = _superlu_marches(st, "forward", datum, src)
    for got, ref in ((st.march_forward(datum, src), fwd), (st.march_backward(datum, src), bwd)):
        assert np.abs(got - ref).max() <= 1e-10 * np.abs(ref).max()


def test_near_singular_symmetric_level_raises_on_the_band_path():
    """A reaction at the last interior node of level 3 that leaves the last
    Cholesky pivot of that step matrix positive but below PIVOT_RTOL times
    its scale: dpbtrf accepts the level, and the pivot rule raises
    SingularMatrix naming stack entry 2 (levels 1..nt)."""
    g = build_grid(1, 1.0, 14, 1.0, 8)
    plain = _plain_spec(g)

    def lower_band(spec):
        band, kl, ku = plain.stepper._step_band(spec.a, spec.b, [3])
        return band[0, kl + ku:]

    band = lower_band(plain)
    scale = np.abs(band).max()
    last = dpbtrf(band, lower=1)[0][0, -1] ** 2  # the last pivot without the reaction
    a = np.zeros((g.nt + 1,) + g.nx)
    a[3, -2] = (0.3 * PIVOT_RTOL * scale - last) / g.dt
    spec = _plain_spec(g, a_values=a)
    factor, info = dpbtrf(lower_band(spec), lower=1)
    assert info == 0 and 0.0 < factor[0, -1] ** 2 < PIVOT_RTOL * scale
    with pytest.raises(SingularMatrix, match="matrix 2 "):
        spec.stepper


def test_near_singular_transport_level_raises_on_the_band_lu_path():
    """A reaction at the last interior node of level 3 of a spec with
    transport, off by 0.3 PIVOT_RTOL times the scale from the one that
    makes that step matrix S singular (a shift of S's last diagonal entry
    by -1 / (S^-1)_nn), leaves its smallest LU pivot nonzero but below
    PIVOT_RTOL times its scale: the pivot rule raises SingularMatrix naming
    stack entry 2 (levels 1..nt)."""
    g = build_grid(1, 1.0, 14, 1.0, 8)
    shape = (g.nt + 1,) + g.nx
    b_values = [np.full(shape, 0.5)]
    plain = _plain_spec(g, b_values=b_values)
    band, kl, ku = plain.stepper._step_band(plain.a, plain.b, [3])
    scale = np.abs(band).max()
    singular = -1.0 / np.linalg.inv(step_matrix(plain.stepper, 3).toarray())[-1, -1]
    a = np.zeros(shape)
    a[3, -2] = (singular + 0.3 * PIVOT_RTOL * scale) / g.dt
    spec = _plain_spec(g, a_values=a, b_values=b_values)
    factor, _, info = dgbtrf(plain.stepper._step_band(spec.a, spec.b, [3])[0][0], kl, ku)
    assert info == 0 and 0.0 < np.abs(factor[kl + ku]).min() < PIVOT_RTOL * scale
    with pytest.raises(SingularMatrix, match="matrix 2 "):
        spec.stepper


@pytest.mark.parametrize("nx", [(8, 8), (10, 10), (16, 16)], ids=["8x8", "10x10", "16x16"])
def test_2d_transport_backward_march_columns_bitwise(rng, nx):
    """On 2D grids with transport (kl = 12, 16 and 28) each column of a
    2-column backward march is bit for bit its single-column march.  One
    dgbtrs(trans=1) call on both columns would round differently from two
    one-column calls, so the step loop marches the columns one by one."""
    g, st = _transport_stepper(rng, 2, nx)
    assert st.coordinates("adjoint").lu[0] >= 12
    datum = rng.standard_normal((2, g.n_interior))
    src = rng.standard_normal((2, g.nt + 1, g.n_interior))
    both = st.march_backward(datum, src, family="adjoint")
    for k in range(2):
        assert np.array_equal(both[k], st.march_backward(datum[k], src[k], family="adjoint"))


def test_lagged_is_the_level_lag_with_a_positive_zero(rng):
    """lagged(arr, w) is arr[j-1] * w at levels 1..nt bit for bit and +0.0
    at level 0, for one column or k; the Nash controls formed with it keep
    +0.0 at level 0, which v1.field.txt would print as -0 otherwise."""
    g = build_grid(1, 1.0, 14, 1.0, 8)
    arr = rng.standard_normal((2, g.nt + 1, g.n_interior))
    w = -rng.uniform(0.5, 2.0, g.n_interior)
    for got, ref in ((lagged(arr[0], w), arr[0, :-1] * w), (lagged(arr[0]), arr[0, :-1]),
                     (lagged(arr, w), arr[:, :-1] * w)):
        assert np.array_equal(got[..., 1:, :], ref)
        assert not got[..., 0, :].any() and not np.signbit(got[..., 0, :]).any()
    spec = make_nash_spec()
    sol = solve_nash_fixed_point(spec, leader_bump(spec.grid), tol_rel=1e-12)
    for v in sol.controls:
        assert not v[0].any() and not np.signbit(v[0]).any()
