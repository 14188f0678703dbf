"""Follower Nash equilibrium for a given leader control.

Response operators, the variational equilibrium equation, the contraction
fixed point over the coupled optimality system, that system as one stacked
space-time matrix (hum.dense_oracle factors it), and the first-order
residuals.

Discrete conventions.  Control fields carry their degrees of freedom at
levels 1..nt (level 0 is identically zero); the control value at level j
drives forward step j.  Adjoint fields store the multiplier of step j at
level j-1, so the stationarity relation reads v_i^j = -phi_i^{j-1}/mu_i
on the follower region: the exact discrete transcription of v = -phi/mu
forced by transposing the backward-Euler scheme.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import TooLarge
from .linalg import TINY, iterate
from .mesh import SpaceTimeField
from .operators import ProblemSpec, columns, control_sources, solve_forward, stack_columns


def q_norm(grid, arr):
    """Discrete L2(Q) norm over levels 1..nt of an interior array."""
    return math.sqrt(grid.dt * grid.hd * float(np.sum(arr[1:] * arr[1:])))


@dataclass
class NashSolution:
    w: SpaceTimeField
    phi1: SpaceTimeField
    phi2: SpaceTimeField
    v1: SpaceTimeField
    v2: SpaceTimeField
    iterations: int
    history: list

    @property
    def phis(self):
        return (self.phi1, self.phi2)

    @property
    def controls(self):
        return (self.v1, self.v2)


def _indicators(masks):
    """Interior indicator vector of each mask."""
    return tuple(m.interior_vector() for m in masks)


def _controls_from_adjoints(spec, phi_arrays, chis):
    """v_i^j = -chi_i * phi_i^{j-1} / mu_i, bitwise, level 0 zero; chis are
    the follower indicators (_indicators(spec.follower_masks))."""
    out = []
    for phi, chi, mu in zip(phi_arrays, chis, spec.mu):
        v = np.zeros_like(phi)
        v[1:] = -(phi[:-1] * chi) / mu
        out.append(v)
    return out


def apply_response(spec: ProblemSpec, i, v: SpaceTimeField) -> SpaceTimeField:
    """Response operator A_i: state driven by v on follower region i, zero IC."""
    grid = spec.grid
    src = v.interior() * spec.follower_masks[i].interior_vector()
    W = spec.stepper.march_forward(np.zeros(grid.n_interior), src)
    return SpaceTimeField.from_interior(grid, W)


def _response_adjoint(spec, g_states, followers=(0, 1)):
    """A_i^* for each i in followers: state-side arrays (levels 1..nt) to
    control-side arrays on O_i.  g_states[k] goes with followers[k]; they
    march together, one column each, in a single backward march."""
    grid = spec.grid
    P = spec.stepper.march_backward(np.zeros(grid.n_interior), stack_columns(g_states), family="adjoint")
    out = []
    for i, p in zip(followers, columns(P)):
        o = np.zeros_like(p)
        o[1:] = p[:-1] * spec.follower_masks[i].interior_vector()
        out.append(o)
    return out


def apply_response_adjoint(spec: ProblemSpec, i, g: SpaceTimeField) -> SpaceTimeField:
    adj, = _response_adjoint(spec, [g.interior()], followers=(i,))
    return SpaceTimeField.from_interior(spec.grid, adj)


def apply_A(spec: ProblemSpec, v1: SpaceTimeField, v2: SpaceTimeField):
    """Equilibrium operator: A(v1,v2)_i = alpha_i A_i*((A1v1+A2v2) chi_di) + mu_i v_i."""
    grid = spec.grid
    src = control_sources(spec, v1=v1, v2=v2)
    W = spec.stepper.march_forward(np.zeros(grid.n_interior), src)
    adjs = _response_adjoint(spec, [W * m.interior_vector() for m in spec.target_masks])
    out = []
    for i in range(2):
        chi = spec.follower_masks[i].interior_vector()
        vi = (v1, v2)[i].interior() * chi
        out.append(SpaceTimeField.from_interior(grid, spec.alpha[i] * adjs[i] + spec.mu[i] * vi))
    return tuple(out)


def compute_rhs(spec: ProblemSpec, f=None):
    """Right side of the equilibrium equation built from the free state."""
    grid = spec.grid
    src = control_sources(spec, f=f)
    Z = spec.stepper.march_forward(grid.to_interior(spec.w0), src)
    adjs = _response_adjoint(spec, [(wd.interior() - Z) * m.interior_vector()
                                    for wd, m in zip(spec.targets, spec.target_masks)])
    return tuple(SpaceTimeField.from_interior(grid, spec.alpha[i] * adjs[i]) for i in range(2))


def solve_nash_fixed_point(
    spec: ProblemSpec,
    f=None,
    tol_rel=1e-12,
    max_iter=200,
    damping=1.0,
    extra_source=None,
    on_sweep=None,
) -> NashSolution:
    """Contraction fixed point z -> w^z over the coupled optimality system.

    Each sweep marches the follower adjoints backward from the frozen state
    z, one column per distinct target term alpha_i chi_di (z - w_id): when
    both followers weigh and track alike (the shared case) their adjoints
    are one equation, marched as one column that serves as phi_1 and
    phi_2, bitwise what a 2-column march gives.  Then the state marches
    forward under the controls.

    Convergence is measured in the discrete L2(Q) norm of the state-iterate
    change; failures are raised by linalg.iterate.  extra_source, when
    given, is an unmasked interior source added to the state equation (the
    frozen constant term of semilinear sweeps); on_sweep(it, W, vs, change)
    is called after every sweep.
    """
    grid = spec.grid
    stepper = spec.stepper
    w0_int = grid.to_interior(spec.w0)
    f_src = control_sources(spec, f=f)
    if extra_source is not None:
        f_src = f_src + extra_source
    # per-solve vectors: (alpha_i chi_di, w_id) of each distinct target term, chi_i
    terms = [(al * chid, wd.interior())
             for al, chid, wd in zip(spec.alpha, _indicators(spec.target_masks), spec.targets)]
    if all(np.array_equal(a, b) for a, b in zip(*terms)):
        terms = terms[:1]
    chis = _indicators(spec.follower_masks)
    zero = np.zeros(grid.n_interior)
    sweeps = itertools.count(1)

    def sweep(state):
        # the adjoints from frozen z in one march, then the controls, then the state
        z = state[0]
        src = stack_columns([wt * (z - wd) for wt, wd in terms])
        phis = columns(stepper.march_backward(zero, src, family="adjoint"))
        if len(phis) == 1:
            phis = phis * 2
        vs = _controls_from_adjoints(spec, phis, chis)
        src = f_src.copy()
        for v, chi in zip(vs, chis):
            src += v * chi
        W = stepper.march_forward(w0_int, src)
        change = q_norm(grid, W - z)
        if on_sweep is not None:
            on_sweep(next(sweeps), W, vs, change)
        scale = max(q_norm(grid, z), q_norm(grid, W), TINY)
        return (z + damping * (W - z), W, phis, vs), change, scale

    start = (np.zeros((grid.nt + 1, grid.n_interior)),)
    (_, W, phis, vs), it, history = iterate(sweep, start, tol_rel, max_iter, "Nash fixed point")
    return _package_solution(spec, W, phis, vs, it, history)


def _package_solution(spec, W, phis, vs, iterations, history):
    grid = spec.grid
    return NashSolution(
        w=SpaceTimeField.from_interior(grid, W),
        phi1=SpaceTimeField.from_interior(grid, phis[0]),
        phi2=SpaceTimeField.from_interior(grid, phis[1]),
        v1=SpaceTimeField.from_interior(grid, vs[0]),
        v2=SpaceTimeField.from_interior(grid, vs[1]),
        iterations=iterations,
        history=list(history),
    )


ORACLE_MAX_UNKNOWNS = 20000  # the stacked system is factored whole, so its size is capped


def stacked_system(spec: ProblemSpec):
    """The full space-time optimality system as one sparse matrix.

    Unknowns are stacked by block: w^1..w^nt, then phi_1^0..phi_1^{nt-1},
    then phi_2^0..phi_2^{nt-1}, so a solution reshapes to (3, nt, n).  Its
    transpose is the coupled adjoint system of the HUM gradient, with
    psi^{j-1} in the w^j slot and eta_i^j in the phi_i^{j-1} slot.  The
    state rows are the all-at-once backward-Euler system
    blockdiag(I + dt L_j) - kron(shift, I); the multiplier rows are the
    transpose of that system in the adjoint family.
    """
    grid = spec.grid
    n, nt, dt = grid.n_interior, grid.nt, grid.dt
    total = 3 * nt * n
    if total > ORACLE_MAX_UNKNOWNS:
        raise TooLarge(f"{total} stacked unknowns exceed the {ORACLE_MAX_UNKNOWNS} oracle cap")
    stepper = spec.stepper
    shift = sp.kron(sp.eye(nt, k=-1), sp.identity(n))

    def marched(family):
        return sp.block_diag([stepper.step_matrix(j, family) for j in range(1, nt + 1)]) - shift

    def per_step(vec):
        return sp.kron(sp.identity(nt), sp.diags(vec))

    adjoint = marched("adjoint").T
    controls = [per_step(m.interior_vector() * (dt / mu)) for m, mu in zip(spec.follower_masks, spec.mu)]
    targets = [-per_step(m.interior_vector() * (dt * al)) for m, al in zip(spec.target_masks, spec.alpha)]
    return sp.bmat([[marched("forward"), *controls],
                    [targets[0], adjoint, None],
                    [targets[1], None, adjoint]], format="csr")


def _raw_residuals(spec, W, v_arrays):
    grid = spec.grid
    adjs = _response_adjoint(spec, [(W - wd.interior()) * m.interior_vector()
                                    for wd, m in zip(spec.targets, spec.target_masks)])
    out = []
    for i in range(2):
        vi = v_arrays[i]
        r = spec.alpha[i] * adjs[i] + spec.mu[i] * vi
        scale = max(q_norm(grid, spec.mu[i] * vi), TINY)
        out.append(q_norm(grid, r) / scale)
    return tuple(out)


def verify_first_order(spec: ProblemSpec, solution: NashSolution):
    """Relative stationarity residual of each follower's cost.

    r_i = alpha_i A_i*((w - w_id) chi_di) + mu_i v_i, reported relative to
    max(||mu_i v_i||, tiny).
    """
    return _raw_residuals(spec, solution.w.interior(), [v.interior() for v in solution.controls])


def cost_followers(spec: ProblemSpec, f, v1, v2, w=None):
    """Discrete follower costs, in the same quadrature the optimality
    system is derived from (right-endpoint rule in time)."""
    grid = spec.grid
    if w is None:
        w = solve_forward(spec, f=f, v1=v1, v2=v2)
    W = w.interior()
    out = []
    for i in range(2):
        chid = spec.target_masks[i].interior_vector()
        dev = (W - spec.targets[i].interior()) * np.sqrt(chid)
        vi = (v1, v2)[i].interior() * np.sqrt(spec.follower_masks[i].interior_vector())
        ji = 0.5 * spec.alpha[i] * q_norm(grid, dev) ** 2 + 0.5 * spec.mu[i] * q_norm(grid, vi) ** 2
        out.append(ji)
    return tuple(out)


def cost_leader(spec: ProblemSpec, f):
    grid = spec.grid
    chi = np.sqrt(spec.leader_mask.interior_vector())
    return 0.5 * q_norm(grid, f.interior() * chi) ** 2
