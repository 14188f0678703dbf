"""The sampled Carleman weights and log theta against the per-level loops
they replaced: a separate time factor r(t) with its own singular set, one
level at a time, and theta level by level.  Sampling WeightForm over the
whole space-time array must give the same values, bit for bit; log theta
matches its own level loop bit for bit and the old product form of theta
to rounding."""

import numpy as np
import pytest

from hierctrl.carleman import (ALPHA_FLOOR, XI_CAP, EtaFunction, WeightForm, build_carleman_weights,
                               build_weights)
from hierctrl.mesh import build_grid


def _ref_time_factor(grid, variant):
    t = grid.times()
    T = grid.T
    if variant == "sharp":
        r = np.sqrt(np.maximum(t * (T - t), 0.0))
        singular = (t <= 0.0) | (t >= T)
    elif variant == "ell-modified":
        r = np.where(t <= T / 2.0, T / 2.0, np.sqrt(np.maximum(t * (T - t), 0.0)))
        singular = t >= T
    else:
        raise ValueError(f"unknown variant {variant!r}")
    return r, singular


def _ref_build_weights(eta_fn, lam, s, variant):
    grid = eta_fn.grid
    form = WeightForm(eta_fn, lam, s, variant)
    r, singular = _ref_time_factor(grid, variant)
    A = np.exp(lam * (2.0 * form.M + eta_fn.value(*grid.meshes())))
    alpha = np.empty((grid.nt + 1,) + grid.nx)
    xi = np.empty_like(alpha)
    for k in range(grid.nt + 1):
        if singular[k]:
            alpha[k] = ALPHA_FLOOR
            xi[k] = XI_CAP
        else:
            alpha[k] = (A - form.B) / r[k]
            xi[k] = A / r[k]
    return alpha, xi


def _ref_theta(grid, s, pairs):
    def one(alpha_ell, xi_ell):
        out = np.empty((grid.nt + 1,) + grid.nx)
        for k in range(grid.nt + 1):
            e = np.exp(s * alpha_ell[k])
            out[k] = np.where(e == 0.0, 0.0, xi_ell[k] ** 3 * e)
        out[grid.nt] = 0.0
        return out

    cands = [one(a, x) for a, x in pairs]
    return cands[0] if len(cands) == 1 else np.minimum(cands[0], cands[1])


def _ref_log_theta(grid, s, pairs):
    def one(alpha_ell, xi_ell):
        out = np.empty((grid.nt + 1,) + grid.nx)
        for k in range(grid.nt + 1):
            out[k] = s * alpha_ell[k] + 3.0 * np.log(xi_ell[k])
        return out

    cands = [one(a, x) for a, x in pairs]
    return cands[0] if len(cands) == 1 else np.minimum(cands[0], cands[1])


CASES = {
    "1d-shared": (build_grid(1, 1.0, 24, 1.0, 24), dict(case="shared", lam=1.0, s=4.0, center=0.3)),
    "2d-nonsquare": (build_grid(2, (1.0, 1.5), (9, 13), 0.7, 8),
                     dict(case="shared", lam=1.0, s=2.0, center=(0.4, 0.9))),
    "1d-distinct-window": (build_grid(1, 6.0, 30, 1.0, 20),
                           dict(case="distinct", lam=0.05, s=4.0, center=2.6, center2=3.4,
                                window=(1.2, 4.8))),
    "1d-underflow": (build_grid(1, 1.0, 24, 1.0, 24), dict(case="shared", lam=50.0, s=4.0, center=0.5)),
    # xi^3 overflows where exp(s alpha) underflows: the reference theta's e == 0 branch decides
    "1d-cube-overflow": (build_grid(1, 1.0, 24, 1.0, 24), dict(case="shared", lam=400.0, s=4.0, center=0.5)),
}


@pytest.mark.parametrize("name", list(CASES))
def test_weights_and_theta_match_level_loops(name):
    grid, kw = CASES[name]
    with np.errstate(over="ignore", invalid="ignore"):
        w = build_carleman_weights(grid, **kw)
        ref = {}
        for variant in ("sharp", "ell-modified"):
            for k, eta_fn in enumerate(w.etas):
                alpha, xi = build_weights(eta_fn, w.lam, w.s, variant)
                ref[variant, k] = _ref_build_weights(eta_fn, w.lam, w.s, variant)
                assert np.array_equal(alpha, ref[variant, k][0])
                assert np.array_equal(xi, ref[variant, k][1])
        # the shared case's reference is the one-eta theta, with no min
        pairs = [ref["ell-modified", k] for k in range(1 if w.case == "shared" else 2)]
        theta = _ref_theta(grid, w.s, pairs)
    assert np.array_equal(w.alpha, ref["sharp", 0][0])
    assert np.array_equal(w.xi, ref["sharp", 0][1])
    assert np.array_equal(w.log_theta, _ref_log_theta(grid, w.s, pairs))
    ours = np.exp(w.log_theta)
    assert np.array_equal(ours == 0.0, theta == 0.0)
    nonzero = theta != 0.0
    assert np.all(np.abs(ours[nonzero] - theta[nonzero]) <= 1e-14 * theta[nonzero])


@pytest.mark.parametrize("name", ["1d-underflow", "1d-cube-overflow"])
def test_large_lambda_cases_underflow(name):
    """The large-lambda cases underflow theta on levels that are not
    singular; in the second, xi^3 is infinite there too.  log theta stays
    finite."""
    grid, kw = CASES[name]
    with np.errstate(over="ignore", invalid="ignore"):
        w = build_carleman_weights(grid, **kw)
        alpha_ell, xi_ell = build_weights(w.etas[0], w.lam, w.s, "ell-modified")
        inner = slice(1, grid.nt)
        assert np.all(np.isfinite(alpha_ell[inner]))
        assert np.all(np.exp(w.s * alpha_ell[inner]) == 0.0)
        assert np.isinf(xi_ell[inner] ** 3).any() == (name == "1d-cube-overflow")
    assert np.all(np.isfinite(w.log_theta))
    assert not np.exp(w.log_theta).any()


def test_distinct_window_case_has_two_weights():
    """The windowed case samples two different eta functions, which differ
    on the nodes inside the window."""
    grid, kw = CASES["1d-distinct-window"]
    w = build_carleman_weights(grid, **kw)
    (a1, _), (a2, _) = (build_weights(eta, w.lam, w.s, "ell-modified") for eta in w.etas)
    lo, hi = kw["window"]
    x = grid.coords(0)
    inside = (x > lo) & (x < hi)
    assert inside.any()
    assert not np.array_equal(a1[:, inside], a2[:, inside])
    assert np.array_equal(a1[:, ~inside], a2[:, ~inside])


def test_unknown_variant_rejected():
    fn = EtaFunction(build_grid(1, 1.0, 12, 1.0, 8), 0.5)
    with pytest.raises(ValueError, match="unknown variant"):
        WeightForm(fn, 1.0, 4.0, "flat")
    with pytest.raises(ValueError, match="unknown variant"):
        build_weights(fn, 1.0, 4.0, "flat")
