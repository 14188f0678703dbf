"""Follower Nash equilibrium for a given leader control.

Response operators, the variational equilibrium equation, the alternating
sweep over the coupled optimality system, run forward for the contraction
fixed point and transposed for hum's coupled adjoint, that system as one
stacked space-time matrix (hum.dense_oracle factors it), and the
first-order residuals.

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
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .errors import TooLarge
from .linalg import TINY, contraction_estimate, iterate
from .mesh import q_norm
from .operators import Coordinates, ProblemSpec, control_sources, lagged


@dataclass
class NashSolution:
    """State, follower adjoints and follower controls, each an interior
    (nt+1, n) array with one row per time level 0..nt.

    adjoints are the follower adjoints as the solve left them, in
    coordinates (operators.Coordinates, the adjoint family's for the fixed
    point): one array serving phi_1 and phi_2 in the shared case.  phis,
    the pair (phi_1, phi_2), is formed from them in physical space when it
    is first read, and controls, the pair (v_1, v_2), from those, the
    follower masks and mu (_controls_from_adjoints) when it is first read;
    both are kept.  A Lambda apply reads neither.  contraction_estimate is
    the fixed point's rho-hat (linalg.contraction_estimate), nan for a
    direct solve or a history of one change.
    """
    w: np.ndarray
    adjoints: tuple
    coordinates: Coordinates
    follower_masks: tuple
    mu: tuple
    iterations: int
    contraction_estimate: float = math.nan

    @cached_property
    def phis(self):
        return tuple(_physical_adjoints(self.coordinates, self.adjoints))

    @cached_property
    def controls(self):
        return tuple(_controls_from_adjoints(self.follower_masks, self.mu, self.phis))


def _indicators(masks):
    """Interior indicator vector of each mask."""
    return tuple(m.interior_vector() for m in masks)


def _target_terms(spec):
    """(alpha_i chi_di, w_id) of each distinct follower target term: one in
    the shared case, where both followers weigh and track alike."""
    terms = [(al * chid, wd) for al, chid, wd in zip(spec.alpha, _indicators(spec.target_masks), spec.targets)]
    return terms[:1] if all(np.array_equal(a, b) for a, b in zip(*terms)) else terms


def _distinct_targets(spec):
    """(w_id, O_di) of each distinct target term, as _target_terms counts them."""
    return list(zip(spec.targets, spec.target_masks))[:len(_target_terms(spec))]


def _control_weights(spec, k):
    """The weight of lagged(phi_c) for each of k adjoint columns in the state
    source f + sum_c lagged(phi_c, weights[c]) = f + sum_i v_i: -chi_i/mu_i,
    or their sum when one column serves both followers (k = 1)."""
    ws = [-chi / mu for chi, mu in zip(_indicators(spec.follower_masks), spec.mu)]
    return [ws[0] + ws[1]] if k == 1 else ws


def _sweep_setup(spec):
    """What alternate derives from the spec alone, kept on the spec
    (ProblemSpec.setup): for each direction (transposed False, True) the
    companion couplings, forward to adjoint coordinates, the main-field
    couplings, adjoint to forward, and each companion column's offset in
    forward coordinates, None where zero.

    Forward there is a column per distinct target term (alpha_i chi_di,
    w_id): alpha_i chi_di feeds the adjoints from z - w_id and the control
    weights feed the state.  Transposed there is a column per distinct
    alpha_i chi_di, as the targets never enter psi: the same couplings in
    the other roles, without offsets."""
    stepper = spec.stepper
    fwd = stepper.coordinates("forward")
    terms = _target_terms(spec)
    weights = [wt for wt, _ in terms]
    distinct = weights[:1] if all(np.array_equal(weights[0], wt) for wt in weights) else weights

    def couplings(ws, source, target):
        return [stepper.coupling(wt, source, target) for wt in ws]

    return {False: (couplings(weights, "forward", "adjoint"),
                    couplings(_control_weights(spec, len(weights)), "adjoint", "forward"),
                    [fwd.field(wd) if wd.any() else None for _, wd in terms]),
            True: (couplings(_control_weights(spec, len(distinct)), "forward", "adjoint"),
                   couplings(distinct, "adjoint", "forward"),
                   [None] * len(distinct))}


def _physical_adjoints(coordinates, adjoints):
    """phi_1 and phi_2 in physical space from adjoints in coordinates; a
    single adjoint serves both."""
    phis = [coordinates.physical(phi) for phi in adjoints]
    return phis * 2 if len(phis) == 1 else phis


def _controls_from_adjoints(follower_masks, mu, phi_arrays):
    """v_i^j = -chi_i * phi_i^{j-1} / mu_i, bitwise, level 0 zero."""
    out = []
    for phi, chi, mu_i in zip(phi_arrays, _indicators(follower_masks), mu):
        v = lagged(phi, chi)
        v[1:] /= -mu_i  # not lagged(phi, chi) / -mu_i, which makes level 0 -0.0
        out.append(v)
    return out


def _response_adjoint(spec, g_states, followers=(0, 1)):
    """A_i^* for each i in followers: state-side arrays (levels 1..nt) to
    control-side arrays on O_i.  g_states[k] goes with followers[k]; they
    march together as the columns of one (k, nt+1, n) backward march; a
    single g_state serves every follower."""
    grid = spec.grid
    ps = spec.stepper.march_backward(np.zeros(grid.n_interior), np.stack(g_states), family="adjoint")
    return [lagged(p, spec.follower_masks[i].interior_vector())
            for i, p in zip(followers, list(ps) * len(followers) if len(ps) == 1 else ps)]


def alternate(spec: ProblemSpec, datum, source=None, transposed=False, tol_rel=1e-12, max_iter=200,
              damping=1.0, on_sweep=None):
    """The alternating sweep over the optimality system, run forward (the
    Nash fixed point) or transposed (the coupled adjoint, whose system is
    the transpose of stacked_system).

    The main field, the state forward or psi transposed, marches in the
    forward family from datum, an (n,) vector, at level 0 forward and nt
    transposed.  The companions, the follower adjoints forward or eta_i
    transposed, march in the adjoint family the other way in time, as one
    (k, nt+1, n) march.  A sweep marches the companions from the main
    iterate less each column's offset, then the main field under source
    (None for zero) plus the companions' part, through the couplings and
    offsets of the spec's setup (_sweep_setup).  While the iterate is the
    start and there are no offsets the companions are zero, so that sweep
    marches the main field alone.  datum, source and every field are in
    the coordinates each family marches in (operators.Coordinates): a
    modal march is one band solve and a coupling one GEMM, and band
    Cholesky and band LU families keep the physical arithmetic.

    The change is the discrete L2(Q) norm of the main iterate's, which
    moves by damping times it; the transposed first sweep, which has no
    iterate to move, takes its X.  The sweep is affine, so without damping the
    solve also stops on Banach's bound (linalg.iterate's error_bound);
    failures are raised by linalg.iterate.  on_sweep(X, companions, change)
    is called after every sweep.  Returns the last main field and
    companions, in coordinates, the iterations and the history.
    """
    stepper = spec.stepper
    fwd, adj = stepper.coordinates("forward"), stepper.coordinates("adjoint")
    to_companions, to_main, offsets = spec.setup(_sweep_setup)[transposed]
    march_companions, march_main = ((stepper.march_forward, stepper.march_backward) if transposed
                                    else (stepper.march_backward, stepper.march_forward))
    zero = np.zeros(spec.grid.n_interior)
    companion_src = adj.zeros(len(offsets))
    fed = fwd.zeros()  # the companions' part of the main source
    main_src = fed if source is None else fwd.zeros()
    no_offsets = all(offset is None for offset in offsets)
    # The stop rule is the one rule that depends on the direction, kept so by measurement (Nash's
    # rule on the transpose adds a Lambda apply to hum_sweep_1d jobs): the Nash solve records its
    # change from the zero state start and scales it by max(||z||, ||W||); the transpose starts
    # with no iterate, so its first sweep records nothing, and scales by ||psi_new||.
    start, keep_norm = (None, False) if transposed else (fwd.zeros(), True)

    def sweep(state):
        x, x_norm = state[:2]
        if x is start and no_offsets:  # zero companions, bitwise what their march gives
            companions = adj.zeros(len(offsets))
            if source is not None:
                np.copyto(main_src, source)
        else:
            for col, coupling, offset in zip(companion_src, to_companions, offsets):
                coupling.apply(fwd.levels(x if offset is None else x - offset, shifted=transposed),
                               out=adj.source_levels(col, backward=not transposed))
            companions = march_companions(zero, companion_src, family="adjoint", coordinates=True)
            levels = fwd.source_levels(fed, backward=transposed)
            to_main[0].apply(adj.levels(companions[0], shifted=not transposed), out=levels)
            for companion, coupling in zip(companions[1:], to_main[1:]):
                levels += coupling.apply(adj.levels(companion, shifted=not transposed))
            if source is not None:
                np.add(source, fed, out=main_src)
        X = march_main(datum, main_src, coordinates=True)
        step = None if x is None else X - x
        change = None if step is None else fwd.q_norm(step)
        norm = fwd.q_norm(X)
        if on_sweep is not None:
            on_sweep(X, companions, change)
        x_next = X if damping == 1.0 or step is None else x + damping * step
        next_norm = norm if x_next is X else fwd.q_norm(x_next)
        return (x_next, next_norm if keep_norm else 0.0, X, companions), change, max(x_norm, norm, TINY)

    (_, _, X, companions), it, history = iterate(
        sweep, (start, 0.0), tol_rel, max_iter, "coupled adjoint" if transposed else "Nash fixed point",
        error_bound=damping == 1.0)
    return X, companions, it, history


def solve_nash_fixed_point(
    spec: ProblemSpec,
    f=None,
    tol_rel=1e-12,
    max_iter=200,
    damping=1.0,
    extra_source=None,
    on_sweep=None,
) -> NashSolution:
    """Contraction fixed point z -> w^z over the coupled optimality system:
    alternate run forward from w0.

    Each sweep marches the follower adjoints backward from the frozen
    state z, one column serving phi_1 and phi_2 in the shared case, then
    the state forward under f + v_1 + v_2; with damping 1 the next iterate
    is W itself.  f, the leader control, is an interior (nt+1, n) array or
    None; extra_source, when given, is an unmasked interior source added
    to the state equation (the frozen constant term of semilinear sweeps).
    on_sweep(it, W, vs, change) gets physical arrays after every sweep.
    """
    fwd, adj = spec.stepper.coordinates("forward"), spec.stepper.coordinates("adjoint")
    source = control_sources(spec, f=f)
    if extra_source is not None:
        source = source + extra_source

    hook = None
    if on_sweep is not None:
        sweeps = itertools.count(1)

        def hook(W, phis, change):
            vs = _controls_from_adjoints(spec.follower_masks, spec.mu, _physical_adjoints(adj, phis))
            on_sweep(next(sweeps), fwd.physical(W, spec.w0), vs, change)

    W, phis, it, history = alternate(spec, fwd.datum(spec.w0), fwd.source(source), tol_rel=tol_rel,
                                     max_iter=max_iter, damping=damping, on_sweep=hook)
    return NashSolution(fwd.physical(W, spec.w0), tuple(phis), adj, spec.follower_masks, spec.mu, it,
                        contraction_estimate(history))


ORACLE_MAX_UNKNOWNS = 20000  # the stacked system is factored whole, so its size is capped


def stacked_system(spec: ProblemSpec):
    """The full space-time optimality system as one sparse matrix.

    Unknowns are stacked by block: w^1..w^nt, then phi_1^0..phi_1^{nt-1},
    then phi_2^0..phi_2^{nt-1}, so a solution reshapes to (3, nt, n).  Its
    transpose is the coupled adjoint system of the HUM gradient, with
    psi^{j-1} in the w^j slot and eta_i^j in the phi_i^{j-1} slot.  The
    state rows are the all-at-once backward-Euler system
    blockdiag(I + dt L_j) - kron(shift, I), the block diagonal being the
    stepper's step_matrices, read from the one assembly its marches factor;
    the multiplier rows are the transpose of that system in the adjoint
    family.
    """
    grid = spec.grid
    n, nt, dt = grid.n_interior, grid.nt, grid.dt
    total = 3 * nt * n
    if total > ORACLE_MAX_UNKNOWNS:
        raise TooLarge(f"{total} stacked unknowns exceed the {ORACLE_MAX_UNKNOWNS} oracle cap")
    stepper = spec.stepper
    shift = sp.kron(sp.eye(nt, k=-1), sp.identity(n))

    def marched(family):
        return stepper.step_matrices(family) - shift

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
    adjs = _response_adjoint(spec, [(W - wd) * m.interior_vector()
                                    for wd, m in _distinct_targets(spec)])
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
    return _raw_residuals(spec, solution.w, solution.controls)


def cost_followers(spec: ProblemSpec, w, controls):
    """Discrete follower costs, in the same quadrature the optimality
    system is derived from (right-endpoint rule in time).  The state w and
    each of the controls (v1, v2) are interior (nt+1, n) arrays."""
    grid = spec.grid
    out = []
    for i in range(2):
        chid = spec.target_masks[i].interior_vector()
        dev = (w - spec.targets[i]) * np.sqrt(chid)
        vi = controls[i] * np.sqrt(spec.follower_masks[i].interior_vector())
        ji = 0.5 * spec.alpha[i] * q_norm(grid, dev) ** 2 + 0.5 * spec.mu[i] * q_norm(grid, vi) ** 2
        out.append(ji)
    return tuple(out)


def cost_leader(spec: ProblemSpec, f):
    grid = spec.grid
    chi = np.sqrt(spec.leader_mask.interior_vector())
    return 0.5 * q_norm(grid, f * chi) ** 2
