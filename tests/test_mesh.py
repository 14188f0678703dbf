import numpy as np
import pytest

from hierctrl.errors import EmptyMask, InvalidGrid, ShapeMismatch
from hierctrl.mesh import (SpaceTimeField, build_grid, build_mask, full_mask, inner_h, integrate,
                           norm_h, st_gradient, st_second_differences)


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
    assert m.node_count == 7
    assert not m.indicator[0] and not m.indicator[-1]


def test_mask_empty_box_raises():
    g = build_grid(1, 1.0, 9, 1.0, 8)
    with pytest.raises(EmptyMask):
        build_mask(g, (0.9999, 0.99995))


def test_mask_2d_box():
    g = build_grid(2, (1.0, 1.0), (9, 9), 1.0, 8)
    m = build_mask(g, ((0.25, 0.75), (0.375, 0.625)))
    assert m.node_count == 5 * 3


def test_integrate_constant_exact():
    g = build_grid(1, 1.0, 9, 1.0, 8)
    f = SpaceTimeField(g, np.ones((g.nt + 1,) + g.nx))
    assert integrate(f, full_mask(g)) == pytest.approx(1.0, abs=1e-12)


def test_integrate_zero():
    g = build_grid(1, 1.0, 9, 1.0, 8)
    assert integrate(SpaceTimeField.zeros(g), full_mask(g)) == 0.0


def test_integrate_linear_profile():
    g = build_grid(1, 1.0, 17, 1.0, 8)
    f = SpaceTimeField.from_spatial(g, g.coords(0))
    assert abs(integrate(f, full_mask(g)) - 0.5) <= g.h[0] ** 2


def test_integrate_constant_2d():
    g = build_grid(2, (1.0, 2.0), (9, 9), 0.5, 8)
    f = SpaceTimeField(g, np.ones((g.nt + 1,) + g.nx))
    assert integrate(f, full_mask(g)) == pytest.approx(1.0 * 2.0 * 0.5, abs=1e-12)


def test_integrate_linear_in_field(rng):
    g = build_grid(1, 1.0, 12, 1.0, 6)
    shape = (g.nt + 1,) + g.nx
    f1 = SpaceTimeField(g, rng.standard_normal(shape))
    f2 = SpaceTimeField(g, rng.standard_normal(shape))
    m = build_mask(g, (0.2, 0.8))
    a, b = 0.37, -1.9
    combo = SpaceTimeField(g, a * f1.values + b * f2.values)
    lhs = integrate(combo, m)
    rhs = a * integrate(f1, m) + b * integrate(f2, m)
    assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs), 1.0)


def test_integrate_disjoint_masks_add_exactly(rng):
    g = build_grid(1, 1.0, 17, 1.0, 6)
    f = SpaceTimeField(g, rng.standard_normal((g.nt + 1,) + g.nx))
    m1 = build_mask(g, (0.06, 0.45))
    m2 = build_mask(g, (0.51, 0.95))
    assert not m1.intersects(m2)
    assert integrate(f, m1) + integrate(f, m2) == integrate(f, m1.union(m2))


def test_integrate_weight_argument(rng):
    g = build_grid(1, 1.0, 12, 1.0, 6)
    f = SpaceTimeField(g, rng.standard_normal((g.nt + 1,) + g.nx))
    w = SpaceTimeField(g, rng.standard_normal((g.nt + 1,) + g.nx))
    prod = SpaceTimeField(g, f.values * w.values)
    m = full_mask(g)
    assert integrate(f, m, weight=w) == pytest.approx(integrate(prod, m), rel=1e-14)


def test_inner_product_spd(rng):
    g = build_grid(1, 1.0, 12, 1.0, 6)
    u = rng.standard_normal(g.n_interior)
    v = rng.standard_normal(g.n_interior)
    assert inner_h(g, u, v) == pytest.approx(inner_h(g, v, u))
    assert inner_h(g, u, u) > 0
    assert norm_h(g, np.zeros(g.n_interior)) == 0.0


def test_field_shape_validation():
    g = build_grid(1, 1.0, 9, 1.0, 8)
    with pytest.raises(ShapeMismatch):
        SpaceTimeField(g, np.zeros((g.nt, 9)))
    bad = np.zeros((g.nt + 1, 9))
    bad[0, 0] = np.inf
    with pytest.raises(ShapeMismatch):
        SpaceTimeField(g, bad)


def test_mask_rejects_boundary_nodes():
    g = build_grid(1, 1.0, 9, 1.0, 8)
    ind = np.zeros(g.nx, dtype=bool)
    ind[0] = True
    from hierctrl.mesh import SubdomainMask

    with pytest.raises(EmptyMask):
        SubdomainMask(g, ind)


def test_interior_roundtrip(rng):
    g = build_grid(2, (1.0, 1.0), (8, 7), 1.0, 5)
    vec = rng.standard_normal(g.n_interior)
    assert np.array_equal(g.to_interior(g.from_interior(vec)), vec)


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
