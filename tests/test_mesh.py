import numpy as np
import pytest

from hierctrl.cli import dump_field
from hierctrl.errors import EmptyMask, InvalidGrid, ShapeMismatch
from hierctrl.mesh import (build_grid, build_mask, full_mask, inner_h, integrate,
                           interior_divergence, interior_gradient, norm_h, st_gradient,
                           st_second_differences)
from oracles import to_interior


def test_grid_spacings_1d():
    g = build_grid(1, 1.0, 9, 1.0, 8)
    assert g.h == (0.125,)
    assert g.dt == 0.125
    assert g.n_interior == 7 and g.hd == 0.125


def test_grid_spacings_2d():
    g = build_grid(2, (1.0, 2.0), (9, 17), 0.5, 10)
    assert g.h == (0.125, 0.125)
    assert g.dt == 0.05
    assert g.n_interior == 7 * 15 and g.hd == 0.125 * 0.125


def test_grid_rejects_too_few_nodes():
    with pytest.raises(InvalidGrid):
        build_grid(1, 1.0, 4, 1.0, 8)


def test_grid_rejects_too_few_steps():
    with pytest.raises(InvalidGrid):
        build_grid(1, 1.0, 9, 1.0, 3)


def test_grid_rejects_bad_lengths():
    with pytest.raises(InvalidGrid):
        build_grid(1, -1.0, 9, 1.0, 8)


def test_mask_box_nodes():
    g = build_grid(1, 1.0, 9, 1.0, 8)
    m = build_mask(g, (0.25, 0.75))
    x = g.coords(0)
    assert set(x[m.indicator]) == {0.25, 0.375, 0.5, 0.625, 0.75}


def test_mask_full_domain_sets_all_interior():
    g = build_grid(1, 1.0, 9, 1.0, 8)
    m = build_mask(g, (0.0, 1.0))
    assert int(m.indicator.sum()) == 7
    assert not m.indicator[0] and not m.indicator[-1]


def test_mask_empty_box_raises():
    g = build_grid(1, 1.0, 9, 1.0, 8)
    with pytest.raises(EmptyMask):
        build_mask(g, (0.9999, 0.99995))


def test_mask_2d_box():
    g = build_grid(2, (1.0, 1.0), (9, 9), 1.0, 8)
    m = build_mask(g, ((0.25, 0.75), (0.375, 0.625)))
    assert int(m.indicator.sum()) == 5 * 3


def test_integrate_constant_exact():
    g = build_grid(1, 1.0, 9, 1.0, 8)
    f = np.ones((g.nt + 1,) + g.nx)
    assert integrate(f, full_mask(g)) == pytest.approx(1.0, abs=1e-12)


def test_integrate_zero():
    g = build_grid(1, 1.0, 9, 1.0, 8)
    assert integrate(np.zeros((g.nt + 1,) + g.nx), full_mask(g)) == 0.0


def test_integrate_linear_profile():
    g = build_grid(1, 1.0, 17, 1.0, 8)
    f = np.tile(g.coords(0), (g.nt + 1, 1))
    assert abs(integrate(f, full_mask(g)) - 0.5) <= g.h[0] ** 2


def test_integrate_constant_2d():
    g = build_grid(2, (1.0, 2.0), (9, 9), 0.5, 8)
    f = np.ones((g.nt + 1,) + g.nx)
    assert integrate(f, full_mask(g)) == pytest.approx(1.0 * 2.0 * 0.5, abs=1e-12)


def test_integrate_linear_in_field(rng):
    g = build_grid(1, 1.0, 12, 1.0, 6)
    shape = (g.nt + 1,) + g.nx
    f1 = rng.standard_normal(shape)
    f2 = rng.standard_normal(shape)
    m = build_mask(g, (0.2, 0.8))
    a, b = 0.37, -1.9
    combo = a * f1 + b * f2
    lhs = integrate(combo, m)
    rhs = a * integrate(f1, m) + b * integrate(f2, m)
    assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs), 1.0)


def test_integrate_disjoint_masks_add_exactly(rng):
    g = build_grid(1, 1.0, 17, 1.0, 6)
    f = rng.standard_normal((g.nt + 1,) + g.nx)
    m1 = build_mask(g, (0.06, 0.45))
    m2 = build_mask(g, (0.51, 0.95))
    assert not m1.intersects(m2)
    assert integrate(f, m1) + integrate(f, m2) == integrate(f, m1.union(m2))


def test_integrate_weight_argument(rng):
    g = build_grid(1, 1.0, 12, 1.0, 6)
    f = rng.standard_normal((g.nt + 1,) + g.nx) ** 2
    w = rng.standard_normal((g.nt + 1,) + g.nx) ** 2
    prod = f * w
    m = full_mask(g)
    log_w = np.log(w)
    assert integrate(f, m, log_weight=log_w) == pytest.approx(integrate(prod, m), rel=1e-14)


def test_integrate_log_weight_rejects_negative_field(rng):
    g = build_grid(1, 1.0, 12, 1.0, 6)
    vals = rng.standard_normal((g.nt + 1,) + g.nx) ** 2
    vals[2, 5] = -1e-300
    with pytest.raises(ValueError, match="nonnegative"):
        integrate(vals, full_mask(g), log_weight=np.zeros(vals.shape))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_integrate_log_weight_beyond_double_range(rng):
    """Weights far outside the range of a double give 0, the exact shifted
    value, or inf, never NaN and without a warning; log-weights where the
    field is zero do not count."""
    g = build_grid(1, 1.0, 12, 1.0, 6)
    f = rng.standard_normal((g.nt + 1,) + g.nx) ** 2
    m = full_mask(g)
    base = integrate(f, m)
    ones = np.ones((g.nt + 1,) + g.nx)
    for log_w, expected in ((-1e30, 0.0), (-800.0, 0.0), (1000.0, np.inf), (1e30, np.inf)):
        assert integrate(f, m, log_weight=log_w * ones) == expected
    # exp(800) overflows, exp(800) exp(-700) = exp(100) does not
    shifted = integrate(f * np.exp(-700.0), m, log_weight=800.0 * ones)
    assert shifted == pytest.approx(base * np.exp(100.0), rel=1e-12)
    sparse = f.copy()
    sparse[1:] = 0.0
    huge_on_zeros = np.where(sparse > 0.0, 0.0, 1e30)
    assert integrate(sparse, m, log_weight=huge_on_zeros) == pytest.approx(integrate(sparse, m), rel=1e-14)


def test_inner_product_spd(rng):
    g = build_grid(1, 1.0, 12, 1.0, 6)
    u = rng.standard_normal(g.n_interior)
    v = rng.standard_normal(g.n_interior)
    assert inner_h(g, u, v) == pytest.approx(inner_h(g, v, u))
    assert inner_h(g, u, u) > 0
    assert norm_h(g, np.zeros(g.n_interior)) == 0.0


def test_inner_product_takes_interior_vectors_only(rng):
    """A full-node spatial array is not converted by its shape: it is rejected."""
    g = build_grid(1, 1.0, 12, 1.0, 6)
    v = rng.standard_normal(g.n_interior)
    with pytest.raises(ShapeMismatch):
        inner_h(g, np.zeros(g.nx), v)
    with pytest.raises(ShapeMismatch):
        norm_h(g, np.zeros(g.nx))


def test_interior_stencils_are_st_gradient_on_zero_padded_data(rng):
    """The gradient and divergence of interior arrays equal, bit for bit, the
    full-node centred differences of their zero-padded forms at every
    interior node, in 1D and 2D."""
    for g in (build_grid(1, 1.0, 9, 1.0, 4), build_grid(2, (1.0, 1.5), (7, 8), 0.5, 4)):
        arrs = [rng.standard_normal((g.nt + 1, g.n_interior)) for _ in range(g.dim)]
        full = [g.from_interior_levels(a) for a in arrs]
        for got, ref in zip(interior_gradient(g, arrs[0]), st_gradient(g, full[0])):
            assert np.array_equal(got, g.to_interior_levels(ref))
        ref = np.zeros_like(full[0])
        for ax in range(g.dim):
            ref = ref + st_gradient(g, full[ax])[ax]
        assert np.array_equal(interior_divergence(g, arrs), g.to_interior_levels(ref))


def test_field_shape_validation(tmp_path):
    """integrate takes full-node (nt+1, *nx) arrays and dump_field interior
    (nt+1, n) ones; a wrong shape or a non-finite entry raises ShapeMismatch,
    and dump_field then writes nothing."""
    g = build_grid(1, 1.0, 9, 1.0, 8)
    good = np.zeros((g.nt + 1, 9))
    bad = good.copy()
    bad[0, 0] = np.inf
    for wrong in (np.zeros((g.nt, 9)), np.zeros((g.nt + 1, 7)), bad):
        with pytest.raises(ShapeMismatch):
            integrate(wrong, full_mask(g))
        with pytest.raises(ShapeMismatch):
            integrate(good, full_mask(g), log_weight=wrong)
    path = tmp_path / "x.field.txt"
    interior = np.zeros((g.nt + 1, g.n_interior))
    interior[3, 2] = np.nan
    for wrong in (np.zeros((g.nt + 1, 9)), np.zeros((g.nt, g.n_interior)), interior):
        with pytest.raises(ShapeMismatch):
            dump_field(path, g, wrong)
    assert not path.exists()


def test_mask_rejects_boundary_nodes():
    g = build_grid(1, 1.0, 9, 1.0, 8)
    ind = np.zeros(g.nx, dtype=bool)
    ind[0] = True
    from hierctrl.mesh import SubdomainMask

    with pytest.raises(EmptyMask):
        SubdomainMask(g, ind)


def test_interior_roundtrip(rng):
    g = build_grid(2, (1.0, 1.0), (8, 7), 1.0, 5)
    arr = rng.standard_normal((g.nt + 1, g.n_interior))
    full = g.from_interior_levels(arr)
    assert np.array_equal(g.to_interior_levels(full), arr)
    assert np.array_equal(to_interior(g, full[2]), arr[2])
    assert not full[:, [0, -1]].any() and not full[:, :, [0, -1]].any()


def test_2d_stencils_exact_on_quadratics():
    """Centered first, second and mixed differences reproduce the derivatives
    of x^2, x*y and y^2 to rounding at every interior node and time level.
    Each difference is zero on the walls of its own axes."""
    g = build_grid(2, (1.0, 1.5), (9, 11), 0.5, 4)
    X, Y = g.meshes()
    scale = (1.0 + np.arange(g.nt + 1))[:, None, None]
    inner = (slice(None), slice(1, -1), slice(1, -1))
    # (field, d/dx, d/dy, d2/dx2, d2/dy2, d2/dxdy)
    cases = [
        (X * X, 2 * X, 0 * X, 2 + 0 * X, 0 * X, 0 * X),
        (X * Y, Y, X, 0 * X, 0 * X, 1 + 0 * X),
        (Y * Y, 0 * X, 2 * Y, 0 * X, 2 + 0 * X, 0 * X),
    ]
    for u, *derivs in cases:
        values = scale * u
        got = st_gradient(g, values) + st_second_differences(g, values)
        assert len(got) == 5
        for d, exact, axes in zip(got, derivs, [(0,), (1,), (0,), (1,), (0, 1)]):
            assert np.abs(d[inner] - (scale * exact)[inner]).max() <= 1e-10
            for ax in axes:
                walls = np.moveaxis(d, ax + 1, 0)[[0, -1]]
                assert not walls.any()
