"""Shared reference problems.

The reference domain has length 6 so the slowest clamped-beam mode decays
only mildly over the horizon: the follower coupling is strong enough that
inflating alpha/mu by 1e4 genuinely diverges, and the null-control sweep
has real signal to remove.
"""

import numpy as np
import pytest

from hierctrl.mesh import build_grid, build_mask
from hierctrl.operators import ProblemSpec
from oracles import to_interior

L_REF = 6.0


def make_nash_spec(nx=12, nt=10, alpha=1e-3, mu=1.0, with_targets=True):
    """Margin-positive follower-equilibrium reference (criterion-3 geometry)."""
    L = L_REF
    g = build_grid(1, L, nx, 1.0, nt)
    x = g.coords(0)
    w0 = 16.0 * (x / L) ** 2 * (1 - x / L) ** 2
    if with_targets:
        wd = constant_in_time(g, 0.5 * np.sin(np.pi * x / L))
    else:
        wd = np.zeros((g.nt + 1, g.n_interior))
    return ProblemSpec(
        grid=g,
        a=np.zeros((g.nt + 1, g.n_interior)),
        b=(np.zeros((g.nt + 1, g.n_interior)),),
        leader_mask=build_mask(g, (0.25 * L, 0.70 * L)),
        follower_masks=(build_mask(g, (0.15 * L, 0.45 * L)), build_mask(g, (0.55 * L, 0.85 * L))),
        target_masks=(build_mask(g, (0.35 * L, 0.65 * L)),) * 2,
        alpha=(alpha, alpha),
        mu=(mu, mu),
        targets=(wd, wd),
        w0=to_interior(g, w0),
    )


def make_hum_spec(nx=16, nt=16, alpha=1e-3, mu=1.0):
    """Null-control reference: clamped bump, shared targets meeting the
    leader region (criterion-8 geometry)."""
    L = L_REF
    g = build_grid(1, L, nx, 1.0, nt)
    x = g.coords(0)
    w0 = 16.0 * (x / L) ** 2 * (1 - x / L) ** 2
    z = np.zeros((g.nt + 1, g.n_interior))
    return ProblemSpec(
        grid=g,
        a=z,
        b=(z,),
        leader_mask=build_mask(g, (0.30 * L, 0.80 * L)),
        follower_masks=(build_mask(g, (0.15 * L, 0.45 * L)), build_mask(g, (0.55 * L, 0.85 * L))),
        target_masks=(build_mask(g, (0.50 * L, 0.90 * L)),) * 2,
        alpha=(alpha, alpha),
        mu=(mu, mu),
        targets=(z, z),
        w0=to_interior(g, w0),
    )


def constant_in_time(grid, spatial):
    """The interior values of a full-node spatial array, repeated at every
    time level: an interior (nt+1, n) array."""
    return np.tile(to_interior(grid, spatial), (grid.nt + 1, 1))


def leader_bump(grid, amplitude=0.3):
    """A leader control as an interior (nt+1, n) array, the same at every level."""
    x = grid.coords(0)
    return constant_in_time(grid, amplitude * np.sin(2 * np.pi * x / grid.lengths[0]))


@pytest.fixture(scope="session")
def nash_spec():
    return make_nash_spec()


@pytest.fixture(scope="session")
def hum_spec():
    return make_hum_spec()


@pytest.fixture()
def rng():
    return np.random.default_rng(20240809)
