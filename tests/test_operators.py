import numpy as np
import pytest
import scipy.sparse as sp

from hierctrl import operators
from hierctrl.errors import ShapeMismatch, SingularMatrix
from hierctrl.linalg import DenseInverse, Factorization, Modes, factorize
from hierctrl.mesh import SpaceTimeField, build_grid, build_mask, norm_h
from hierctrl.operators import (DENSE_MAX_N, MODAL_MAX_N, ProblemSpec, _spatial_operator,
                                assemble_biharmonic, duality_gap, solve_adjoint, solve_forward)

from conftest import make_nash_spec


def _plain_spec(grid, a_values=None, b_values=None):
    a = SpaceTimeField.zeros(grid) if a_values is None else SpaceTimeField(grid, a_values)
    if b_values is None:
        b = tuple(SpaceTimeField.zeros(grid) for _ in range(grid.dim))
    else:
        b = tuple(SpaceTimeField(grid, bv) for bv in b_values)
    L = grid.lengths[0]
    box = lambda lo, hi: tuple((lo * Lx, hi * Lx) for Lx in grid.lengths)
    z = SpaceTimeField.zeros(grid)
    return ProblemSpec(
        grid=grid, a=a, b=b,
        leader_mask=build_mask(grid, box(0.25, 0.75)),
        follower_masks=(build_mask(grid, box(0.2, 0.5)), build_mask(grid, box(0.5, 0.8))),
        target_masks=(build_mask(grid, box(0.35, 0.65)),) * 2,
        alpha=(1e-3, 1e-3), mu=(1.0, 1.0), targets=(z, z), w0=np.zeros(grid.nx),
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
    app = assemble_biharmonic(g) @ g.to_interior(u)
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
        app = assemble_biharmonic(g) @ g.to_interior(u)
        errs.append(np.max(np.abs(app - g.to_interior(exact))))
    for e0, e1 in zip(errs, errs[1:]):
        assert 3.0 <= e0 / e1 <= 5.0


def test_biharmonic_quartic_2d_interior():
    g = build_grid(2, (1.0, 1.0), (24, 24), 1.0, 8)
    X, Y = g.meshes()
    u = X**2 * (1 - X) ** 2
    app = assemble_biharmonic(g) @ g.to_interior(u)
    interior = app.reshape(g.interior_shape)[2:-2, 2:-2]
    assert np.max(np.abs(interior - 24.0)) <= 1e-5


def test_reaction_shift_is_identity():
    g = build_grid(1, 1.0, 12, 1.0, 8)
    spec = _plain_spec(g, a_values=np.ones((g.nt + 1,) + g.nx))
    st = spec.stepper
    L = _spatial_operator(g, st.biharm, st.grads, spec.a, spec.b, 1)
    M = assemble_biharmonic(g)
    diff = L - M
    assert abs(diff - np.eye(g.n_interior)).max() <= 1e-14


def test_operator_symmetric_without_transport():
    g = build_grid(1, 1.0, 12, 1.0, 8)
    spec = _plain_spec(g, a_values=np.full((g.nt + 1,) + g.nx, 0.7))
    st = spec.stepper
    fwd = st.step_matrix(2, "forward")
    assert abs(fwd - fwd.T).max() == 0.0
    # the backward march solves with the adjoint-family matrix transposed
    assert abs(st.step_matrix(2, "adjoint").T - fwd).max() == 0.0


def test_unknown_matrix_family_rejected():
    g = build_grid(1, 1.0, 12, 1.0, 8)
    st = _plain_spec(g).stepper
    for call in (lambda: st.step_matrix(1, "adjiont"), lambda: st.step(1, "backward"),
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
        L = _spatial_operator(g, st.biharm, st.grads, spec.a, spec.b, level)
        assert abs(L - L.T).max() > 0.0  # transport makes the operator nonsymmetric
        adj_step = st.step_matrix(level, "adjoint").T  # what the backward march solves with
        assert abs(adj_step - (eye + g.dt * L).T).max() == 0.0
    for j in (1, 5):
        assert abs(st.step_matrix(j, "adjoint") - st.step_matrix(j, "forward")).max() == 0.0


def test_solve_forward_zero_data():
    g = build_grid(1, 1.0, 12, 1.0, 8)
    spec = _plain_spec(g)
    w = solve_forward(spec, w0=np.zeros(g.nx))
    assert np.all(w.values == 0.0)


def test_solve_forward_dissipative(rng):
    g = build_grid(1, 1.0, 12, 1.0, 8)
    spec = _plain_spec(g)
    w0 = g.from_interior(rng.standard_normal(g.n_interior))
    w = solve_forward(spec, w0=w0)
    norms = [norm_h(g, w.values[k]) for k in range(g.nt + 1)]
    assert all(norms[k + 1] <= norms[k] + 1e-15 for k in range(g.nt))


def test_duality_identity_random_coefficients(rng):
    g = build_grid(1, 1.0, 12, 1.0, 8)
    shape = (g.nt + 1,) + g.nx
    spec = _plain_spec(g, a_values=rng.standard_normal(shape),
                       b_values=[rng.standard_normal(shape)])
    for _ in range(5):
        gap = duality_gap(
            spec,
            g.from_interior(rng.standard_normal(g.n_interior)),
            rng.standard_normal((g.nt + 1, g.n_interior)),
            g.from_interior(rng.standard_normal(g.n_interior)),
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
        g.from_interior(rng.standard_normal(g.n_interior)),
        rng.standard_normal((g.nt + 1, g.n_interior)),
        g.from_interior(rng.standard_normal(g.n_interior)),
        rng.standard_normal((g.nt + 1, g.n_interior)),
    )
    assert gap <= 1e-10


def test_public_adjoint_pairing(rng):
    """<w(T), psiT> - <w0, psi(0)> equals the source pairing for the public
    solve_forward / solve_adjoint pair on a plain spec."""
    spec = make_nash_spec()
    g = spec.grid
    f = SpaceTimeField.from_interior(g, rng.standard_normal((g.nt + 1, g.n_interior)))
    w = solve_forward(spec, f=f, w0=spec.w0)
    psiT = g.from_interior(rng.standard_normal(g.n_interior))
    psi = solve_adjoint(spec, None, psiT)
    lhs = g.hd * float(np.dot(g.to_interior(w.values[-1]), g.to_interior(psiT)))
    rhs = g.hd * float(np.dot(g.to_interior(spec.w0), g.to_interior(psi.values[0])))
    chi = spec.leader_mask.interior_vector()
    fi = f.interior()
    pi = psi.interior()
    rhs += g.dt * g.hd * float(np.sum(pi[:-1] * (fi[1:] * chi)))
    assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs), 1e-300)


def test_adjoint_equals_time_reversed_forward(rng):
    g = build_grid(1, 1.0, 12, 1.0, 8)
    spec = _plain_spec(g)
    data = g.from_interior(rng.standard_normal(g.n_interior))
    w = solve_forward(spec, w0=data)
    psi = solve_adjoint(spec, None, data)
    assert np.allclose(psi.values[::-1], w.values, atol=1e-14)


def test_adjoint_zero_data():
    g = build_grid(1, 1.0, 12, 1.0, 8)
    spec = _plain_spec(g)
    psi = solve_adjoint(spec, SpaceTimeField.zeros(g), np.zeros(g.nx))
    assert np.all(psi.values == 0.0)


def test_adjoint_terminal_stored_exactly(rng):
    g = build_grid(1, 1.0, 12, 1.0, 8)
    spec = _plain_spec(g)
    psiT = g.from_interior(rng.standard_normal(g.n_interior))
    psi = solve_adjoint(spec, None, psiT)
    assert np.array_equal(psi.values[-1], psiT)


def test_time_dependent_coefficients_still_dual(rng):
    g = build_grid(1, 1.0, 12, 1.0, 8)
    t = g.times()[:, None]
    x = g.coords(0)[None, :]
    a_vals = np.sin(2 * np.pi * t) * np.cos(np.pi * x)
    spec = _plain_spec(g, a_values=a_vals, b_values=[0.5 * t * np.ones_like(a_vals)])
    gap = duality_gap(
        spec,
        g.from_interior(rng.standard_normal(g.n_interior)),
        rng.standard_normal((g.nt + 1, g.n_interior)),
        g.from_interior(rng.standard_normal(g.n_interior)),
        rng.standard_normal((g.nt + 1, g.n_interior)),
    )
    assert gap <= 1e-10


def _frozen_like_stepper(rng):
    """Time-dependent a and b with distinct adjoint coefficients, as the
    semilinear frozen specs have: both families factorize every level."""
    g = build_grid(1, 1.0, 14, 1.0, 8)
    shape = (g.nt + 1,) + g.nx
    spec = _plain_spec(g, a_values=rng.standard_normal(shape), b_values=[rng.standard_normal(shape)])
    spec = spec.with_(a_adj=SpaceTimeField(g, rng.standard_normal(shape)),
                      b_adj=(SpaceTimeField(g, rng.standard_normal(shape)),))
    st = spec.stepper
    assert st.step(1, "forward") is not st.step(2, "forward")
    assert abs(st.step_matrix(3, "adjoint") - st.step_matrix(3, "forward")).max() > 0.0
    return g, st


@pytest.mark.parametrize("family", ["forward", "adjoint"])
@pytest.mark.parametrize("direction", ["march_forward", "march_backward"])
def test_two_column_march_matches_single_columns_bitwise(rng, family, direction):
    g, st = _frozen_like_stepper(rng)
    march = getattr(st, direction)
    datum = rng.standard_normal((g.n_interior, 2))
    src = rng.standard_normal((g.nt + 1, g.n_interior, 2))
    both = march(datum, src, family=family)
    assert both.shape == (g.nt + 1, g.n_interior, 2)
    for k in range(2):
        assert np.array_equal(both[:, :, k], march(datum[:, k], src[:, :, k], family=family))
    # a shared (n,) datum and no sources
    shared = march(datum[:, 0], src, family=family)
    assert np.array_equal(shared[:, :, 1], march(datum[:, 0], src[:, :, 1], family=family))
    free = march(datum, None, family=family)
    for k in range(2):
        assert np.array_equal(free[:, :, k], march(datum[:, k], None, family=family))


@pytest.mark.parametrize("direction", ["march_forward", "march_backward"])
def test_one_column_march_equals_plain_form(rng, direction):
    g, st = _frozen_like_stepper(rng)
    march = getattr(st, direction)
    datum = rng.standard_normal(g.n_interior)
    src = rng.standard_normal((g.nt + 1, g.n_interior))
    plain = march(datum, src, family="adjoint")
    assert plain.shape == (g.nt + 1, g.n_interior)
    assert np.array_equal(march(datum, src[:, :, None], family="adjoint")[:, :, 0], plain)
    assert np.array_equal(march(datum[:, None], src[:, :, None], family="adjoint")[:, :, 0], plain)


def test_duality_identity_per_column(rng):
    """<P^nt, W^nt> + dt sum <g^j, W^j> = <P^0, W^0> + dt sum <P^{j-1}, s^j>,
    column by column, for a 2-column forward and backward march."""
    g, st = _frozen_like_stepper(rng)
    n, nt = g.n_interior, g.nt
    w0, psiT = rng.standard_normal((n, 2)), rng.standard_normal((n, 2))
    s, gsrc = rng.standard_normal((nt + 1, n, 2)), rng.standard_normal((nt + 1, n, 2))
    W = st.march_forward(w0, s)
    P = st.march_backward(psiT, gsrc)
    for k in range(2):
        lhs = P[-1, :, k] @ W[-1, :, k] + g.dt * np.sum(gsrc[1:, :, k] * W[1:, :, k])
        rhs = P[0, :, k] @ W[0, :, k] + g.dt * np.sum(P[:-1, :, k] * s[1:, :, k])
        assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs))


@pytest.mark.parametrize("datum_shape,source_shape", [
    ((13,), None),                   # datum too long
    ((12, 2, 1), None),              # datum 3-D
    ((12,), (9, 13)),                # sources with the wrong n
    ((12,), (8, 12, 2)),             # sources with the wrong level count
    ((12,), (9, 12, 2, 1)),          # sources 4-D
    ((12, 2), (9, 12, 3)),           # column counts disagree
    ((12, 2), (9, 12)),              # a 2-column datum with single-column sources
    ((12, 1), (9, 12)),              # a 1-column datum does not broadcast either
])
def test_march_rejects_mismatched_shapes(datum_shape, source_shape):
    g = build_grid(1, 1.0, 14, 1.0, 8)
    st = _plain_spec(g).stepper
    assert (g.n_interior, g.nt) == (12, 8)
    src = None if source_shape is None else np.zeros(source_shape)
    for march in (st.march_forward, st.march_backward):
        with pytest.raises(ShapeMismatch):
            march(np.zeros(datum_shape), src)


@pytest.mark.parametrize("family", ["forward", "adjoint"])
def test_dense_marches_match_superlu_solves(rng, family):
    """Below the cap both marches apply dense inverses.  On a spec with
    time-dependent transport and distinct adjoint coefficients they agree
    with SuperLU solves of the sparse step matrices, level by level."""
    g, st = _frozen_like_stepper(rng)
    assert isinstance(st.step(1, family), DenseInverse)
    n, nt = g.n_interior, g.nt
    facts = [factorize(st.step_matrix(j, family)) for j in range(1, nt + 1)]
    datum, src = rng.standard_normal(n), rng.standard_normal((nt + 1, n))
    fwd = np.zeros((nt + 1, n))
    fwd[0] = datum
    for j in range(1, nt + 1):
        fwd[j] = facts[j - 1].solve(fwd[j - 1] + g.dt * src[j])
    bwd = np.zeros((nt + 1, n))
    bwd[nt] = datum
    for j in range(nt, 0, -1):
        bwd[j - 1] = facts[j - 1].solve(bwd[j] + g.dt * src[j], transpose=True)
    for got, ref in ((st.march_forward(datum, src, family=family), fwd),
                     (st.march_backward(datum, src, family=family), bwd)):
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


def test_dense_transposed_step_uses_the_same_inverse(rng):
    """A transposed step multiplies by the transpose of the forward step's
    own inverse, so the two are exact transposes of each other."""
    g, st = _frozen_like_stepper(rng)
    x = rng.standard_normal(g.n_interior)
    for j in (1, 4, 8):
        inv = st.step(j, "adjoint")
        assert np.array_equal(inv.solve(x), inv.inv @ x)
        assert np.array_equal(inv.solve(x, transpose=True), inv.inv.T @ x)


@pytest.mark.parametrize("nx,dense", [(DENSE_MAX_N + 2, True), (DENSE_MAX_N + 3, False)])
def test_dense_cap_in_1d(nx, dense):
    g = build_grid(1, 1.0, nx, 1.0, 4)
    st = _plain_spec(g).stepper
    assert isinstance(st.step(1), DenseInverse if dense else Factorization)


def test_2d_benchmark_grid_stays_on_superlu(rng):
    """The 24 x 24 grid has 484 unknowns, above the cap: SuperLU factorizations."""
    g = build_grid(2, (1.0, 1.0), (24, 24), 1.0, 4)
    assert g.n_interior == 484 > DENSE_MAX_N
    st = _plain_spec(g).stepper
    assert isinstance(st.step(1), Factorization)
    w0 = rng.standard_normal(g.n_interior)
    W = st.march_forward(w0)
    assert np.array_equal(W[1], st.step(1).solve(w0))


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


def test_data_only_copy_shares_the_stepper(rng):
    """with_ keeps the stepper of a copy that leaves grid and coefficients
    alone, also for copies made before the first march."""
    spec = _plain_spec(build_grid(1, 1.0, 12, 1.0, 6))
    g = spec.grid
    z = SpaceTimeField(g, rng.standard_normal((g.nt + 1,) + g.nx))
    early = spec.with_(w0=g.from_interior(rng.standard_normal(g.n_interior)))
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
        changed = spec.with_(**{name: SpaceTimeField(g, rng.uniform(0.0, 1.0, shape))})
    else:
        changed = spec.with_(**{name: (SpaceTimeField(g, rng.uniform(0.0, 1.0, shape)),)})
    assert changed.stepper is not spec.stepper


def _modal_stepper(nx=14, nt=8, length=1.0):
    """Time-constant reaction, no transport: a symmetric family, kept as modes."""
    g = build_grid(1, length, nx, 1.0, nt)
    st = _plain_spec(g, a_values=np.full((g.nt + 1,) + g.nx, 0.7)).stepper
    assert isinstance(st.step(1), Modes) and st.step(1) is st.step(g.nt)
    return g, st


@pytest.mark.parametrize("nx,nt,length", [(14, 8, 1.0), (64, 64, 6.0)])  # the latter: the benchmark grid
@pytest.mark.parametrize("direction", ["march_forward", "march_backward"])
def test_two_column_modal_march_matches_single_columns_bitwise(rng, direction, nx, nt, length):
    g, st = _modal_stepper(nx, nt, length)
    march = getattr(st, direction)
    datum = rng.standard_normal((g.n_interior, 2))
    src = rng.standard_normal((g.nt + 1, g.n_interior, 2))
    both = march(datum, src)
    assert both.shape == (g.nt + 1, g.n_interior, 2)
    for k in range(2):
        assert np.array_equal(both[:, :, k], march(datum[:, k], src[:, :, k]))
    shared = march(datum[:, 0], src)
    for k in range(2):
        assert np.array_equal(shared[:, :, k], march(datum[:, 0], src[:, :, k]))
    free = march(datum, None)
    for k in range(2):
        assert np.array_equal(free[:, :, k], march(datum[:, k], None))


@pytest.mark.parametrize("nt", [4, 7, 33, 64])
def test_modal_march_matches_step_loop(rng, monkeypatch, nt):
    """The eigenbasis scan and the dense-inverse step loop march the same
    symmetric family to rounding."""
    g, modal = _modal_stepper(nx=24, nt=nt, length=6.0)
    monkeypatch.setattr(operators, "MODAL_MAX_N", 0)
    loop = _plain_spec(g, a_values=np.full((g.nt + 1,) + g.nx, 0.7)).stepper
    assert isinstance(loop.step(1), DenseInverse)
    datum = rng.standard_normal((g.n_interior, 2))
    src = rng.standard_normal((g.nt + 1, g.n_interior, 2))
    for direction in ("march_forward", "march_backward"):
        got, ref = getattr(modal, direction)(datum, src), getattr(loop, direction)(datum, src)
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


def test_duality_identity_on_modal_stepper(rng):
    g, st = _modal_stepper()
    spec = _plain_spec(g, a_values=np.full((g.nt + 1,) + g.nx, 0.7))
    assert spec.stepper is not st and isinstance(spec.stepper.step(1), Modes)
    for _ in range(5):
        gap = duality_gap(
            spec,
            g.from_interior(rng.standard_normal(g.n_interior)),
            rng.standard_normal((g.nt + 1, g.n_interior)),
            g.from_interior(rng.standard_normal(g.n_interior)),
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


@pytest.mark.parametrize("k", [None, 2])
@pytest.mark.parametrize("backward", [False, True])
def test_all_zero_march_equals_stepped_zeros(rng, k, backward):
    """A march with zero datum and sources returns zeros without stepping;
    on the inverse path the stepped march gives the same bits."""
    g, st = _frozen_like_stepper(rng)
    n, nt = g.n_interior, g.nt
    shape = (nt + 1, n) if k is None else (nt + 1, n, k)
    got = (st.march_backward if backward else st.march_forward)(np.zeros(n), np.zeros(shape))
    stepped = np.zeros(shape)
    for j in range(nt, 0, -1) if backward else range(1, nt + 1):
        read, write = (j, j - 1) if backward else (j - 1, j)
        stepped[write] = st.step(j).solve(stepped[read] + g.dt * np.zeros(shape[1:]), transpose=backward)
    assert got.shape == shape and np.array_equal(got, stepped)
    assert not np.signbit(got).any()


@pytest.mark.parametrize("k", [None, 2])
@pytest.mark.parametrize("backward", [False, True])
def test_step_loop_equals_solver_loop_bitwise(rng, k, backward):
    """The dense step loop gives the bits of one DenseInverse.solve per step."""
    g, st = _frozen_like_stepper(rng)
    n, nt = g.n_interior, g.nt
    datum = rng.standard_normal(n if k is None else (n, k))
    src = rng.standard_normal((nt + 1, n) if k is None else (nt + 1, n, k))
    got = (st.march_backward if backward else st.march_forward)(datum, src, family="adjoint")
    ref = np.zeros_like(src)
    ref[nt if backward else 0] = datum
    for j in range(nt, 0, -1) if backward else range(1, nt + 1):
        read, write = (j, j - 1) if backward else (j - 1, j)
        ref[write] = st.step(j, "adjoint").solve(ref[read] + g.dt * src[j], transpose=backward)
    assert np.array_equal(got, ref)


@pytest.mark.parametrize("nx,modal", [(MODAL_MAX_N + 2, True), (MODAL_MAX_N + 3, False)])
def test_modal_cap_in_1d(nx, modal):
    g = build_grid(1, 1.0, nx, 1.0, 4)
    st = _plain_spec(g).stepper
    assert isinstance(st.step(1), Modes if modal else DenseInverse)


def test_transport_or_time_dependence_keeps_inverses(rng):
    g = build_grid(1, 1.0, 14, 1.0, 8)
    shape = (g.nt + 1,) + g.nx
    transport = _plain_spec(g, b_values=[np.full(shape, 0.5)]).stepper
    varying = _plain_spec(g, a_values=rng.uniform(0.0, 1.0, shape)).stepper
    assert isinstance(transport.step(1), DenseInverse) and transport.step(1) is transport.step(g.nt)
    assert isinstance(varying.step(1), DenseInverse) and varying.step(1) is not varying.step(2)


def test_time_constant_step_matrix_built_once():
    g, st = _modal_stepper()
    first = st.step_matrix(1)
    assert all(st.step_matrix(j) is first for j in range(1, g.nt + 1))
    fresh = st._step_matrix(st._family("forward").a, st._family("forward").b, g.nt)
    assert abs(first - fresh).max() == 0.0
