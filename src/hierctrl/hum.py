"""Leader control by penalized HUM.

The coupled adjoint system (backward observation variable driven by two
forward companions), the penalized functional G_eps, its gradient via the
exact discrete duality, conjugate-gradient minimization with the quadratic
penalty, and the exact-controllability-to-trajectory wrapper.

The gradient chain is exact by construction: the coupled system steps with
the transposes of the optimality-system step matrices, so the smooth part
of grad G equals the terminal state of the optimality system driven by
f = psi restricted to the leader region, to solver precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import TINY, conjugate_gradient, factorize, iterate
from .mesh import SpaceTimeField, norm_h
from .nash import (NashSolution, _controls_from_adjoints, _indicators, _package_solution, q_norm,
                   solve_nash_fixed_point, stacked_system)
from .operators import ProblemSpec, columns, control_sources, solve_forward, stack_columns


@dataclass
class CoupledAdjointState:
    """psi and its forward companions eta_i = F_adj(-chi_i psi^{j-1}/mu_i).

    A coupled-adjoint solve that marched eta_1 and eta_2 keeps them.  One
    that marched only their sum (the shared case) leaves companions None
    until eta1, eta2 or etas is first read; that read marches both from
    psi as one 2-column march and keeps them.
    """
    psi: SpaceTimeField
    spec: ProblemSpec
    iterations: int = 0
    history: list = None
    companions: tuple = None

    @property
    def etas(self):
        if self.companions is None:
            spec = self.spec
            etas = _companions(spec, self.psi.interior(), _indicators(spec.follower_masks), 2)
            self.companions = tuple(SpaceTimeField.from_interior(spec.grid, eta) for eta in etas)
        return self.companions

    @property
    def eta1(self):
        return self.etas[0]

    @property
    def eta2(self):
        return self.etas[1]


@dataclass
class HumResult:
    psi0: np.ndarray
    f: SpaceTimeField
    nash: NashSolution
    terminal_norm: float
    cg_residuals: list
    cg_iterations: int
    eps: float
    true_residual: float


def _psi_source(weights, eta_arrs):
    """sum_c weights[c] eta_c over the companion columns."""
    src = np.zeros_like(eta_arrs[0])
    for wt, eta in zip(weights, eta_arrs):
        src += wt * eta
    return src


def _companions(spec, psi, chis, k):
    """The forward companions of psi: eta_1 and eta_2 as two columns (k = 2),
    or their sum as one (k = 1).  eta_i marches the Nash control
    -chi_i psi^{j-1}/mu_i of psi (chis: the follower indicators), as the
    coupled adjoint is the transpose of the Nash system."""
    srcs = _controls_from_adjoints(spec, (psi, psi), chis)
    if k == 1:
        srcs = [srcs[0] + srcs[1]]
    zero = np.zeros(spec.grid.n_interior)
    return columns(spec.stepper.march_forward(zero, stack_columns(srcs), family="adjoint"))


def solve_coupled_adjoint(spec: ProblemSpec, psi0, tol_rel=1e-12, max_iter=200) -> CoupledAdjointState:
    """Fixed point over psi and its forward companions; linear in the
    terminal datum psi0.

    psi marches backward with the transposed forward matrices, fed by
    sum_i alpha_i chi_di eta_i; then the companions march forward with the
    adjoint-coefficient family.  Together they are the exact transpose of
    the optimality system.  When both target weights alpha_i chi_di are
    equal (the shared case) psi reads only eta_1 + eta_2, so a sweep
    marches that sum as one column, the transpose of the merged Nash
    sweep; otherwise eta_1 and eta_2 march as two columns.  The change is
    measured on psi and the marched columns.  The first sweep has no
    predecessor, so its change is not recorded.
    """
    grid = spec.grid
    stepper = spec.stepper
    psi0_int = grid.to_interior(np.asarray(psi0, dtype=float))
    weights = [al * chid for al, chid in zip(spec.alpha, _indicators(spec.target_masks))]
    if np.array_equal(*weights):
        weights = weights[:1]
    chis = _indicators(spec.follower_masks)

    def sweep(state):
        psi, etas = state
        psi_new = stepper.march_backward(psi0_int, _psi_source(weights, etas), family="forward")
        etas_new = _companions(spec, psi_new, chis, len(weights))
        change = None
        if psi is not None:
            change = q_norm(grid, psi_new - psi)
            for e_new, e_old in zip(etas_new, etas):
                change = math.hypot(change, q_norm(grid, e_new - e_old))
        return (psi_new, etas_new), change, max(q_norm(grid, psi_new), TINY)

    start = (None, [np.zeros((grid.nt + 1, grid.n_interior)) for _ in weights])
    (psi, etas), it, history = iterate(sweep, start, tol_rel, max_iter, "coupled adjoint")
    return _coupled_state(spec, psi, etas if len(etas) == 2 else None, it, history)


def _coupled_state(spec, psi, etas, iterations, history):
    grid = spec.grid
    return CoupledAdjointState(
        psi=SpaceTimeField.from_interior(grid, psi),
        spec=spec,
        iterations=iterations,
        history=history,
        companions=None if etas is None else tuple(SpaceTimeField.from_interior(grid, e) for e in etas),
    )


def dense_oracle(spec: ProblemSpec, f=None, psi0=None):
    """Direct space-time solves of the optimality system and its transpose.

    Factors the stacked system once.  The solve with leader f gives the
    Nash solution the fixed point is tested against; the transposed solve,
    with psi0 feeding the w^nt row, gives the coupled adjoint state.
    Returns (NashSolution, CoupledAdjointState).
    """
    grid = spec.grid
    n = grid.n_interior
    nt = grid.nt
    lu = factorize(stacked_system(spec))
    w0_int = grid.to_interior(spec.w0)
    rhs = np.zeros((3, nt, n))
    rhs[0] += grid.dt * control_sources(spec, f=f)[1:]
    rhs[0, 0] += w0_int
    for i in range(2):
        chid = spec.target_masks[i].interior_vector()
        rhs[1 + i] += -grid.dt * spec.alpha[i] * chid * spec.targets[i].interior()[1:]
    x = lu.solve(rhs.reshape(-1)).reshape(3, nt, n)
    W = np.vstack([w0_int, x[0]])
    phis = [np.vstack([x[1 + i], np.zeros(n)]) for i in range(2)]
    vs = _controls_from_adjoints(spec, phis, _indicators(spec.follower_masks))
    nash = _package_solution(spec, W, phis, vs, 1, [0.0])

    psi0_int = np.zeros(n) if psi0 is None else grid.to_interior(np.asarray(psi0, dtype=float))
    rhs = np.zeros((3, nt, n))
    rhs[0, nt - 1] = psi0_int
    x = lu.solve(rhs.reshape(-1), transpose=True).reshape(3, nt, n)
    psi = np.vstack([x[0], psi0_int])
    etas = [np.vstack([np.zeros(n), x[1 + i]]) for i in range(2)]
    return nash, _coupled_state(spec, psi, etas, 1, [0.0])


def leader_from_psi(spec: ProblemSpec, coupled: CoupledAdjointState) -> SpaceTimeField:
    """Leader control f = psi restricted to the leader region.

    Control level j carries psi^{j-1}: the value pairing with forward step j
    in the discrete duality.
    """
    grid = spec.grid
    chi = spec.leader_mask.interior_vector()
    psi = coupled.psi.interior()
    f = np.zeros_like(psi)
    f[1:] = psi[:-1] * chi
    return SpaceTimeField.from_interior(grid, f)


def eval_G(spec: ProblemSpec, psi0, eps, tol_rel=1e-12):
    """Penalized HUM functional.

    The nonsmooth eps*||psi0|| penalty is replaced by (eps/2)*||psi0||^2,
    so the functional is a CG-solvable quadratic.
    """
    grid = spec.grid
    coupled = solve_coupled_adjoint(spec, psi0, tol_rel=tol_rel)
    psi = coupled.psi.interior()
    chi = spec.leader_mask.interior_vector()
    quad = 0.5 * grid.dt * grid.hd * float(np.sum(chi * psi[:-1] * psi[:-1]))
    w0_int = grid.to_interior(spec.w0)
    affine = grid.hd * float(np.dot(w0_int, psi[0]))
    for i in range(2):
        chid = spec.target_masks[i].interior_vector()
        eta = coupled.etas[i].interior()
        wd = spec.targets[i].interior()
        affine -= spec.alpha[i] * grid.dt * grid.hd * float(np.sum(chid * eta[1:] * wd[1:]))
    p0 = norm_h(grid, np.asarray(psi0, dtype=float))
    return quad + affine + 0.5 * eps * p0 * p0


def grad_G(spec: ProblemSpec, psi0, eps, inner_tol=1e-12):
    """Gradient of G_eps: terminal state of the optimality system driven by
    f = psi chi_O, plus the penalty gradient."""
    psi0 = np.asarray(psi0, dtype=float)
    coupled = solve_coupled_adjoint(spec, psi0, tol_rel=inner_tol)
    f = leader_from_psi(spec, coupled)
    nash = solve_nash_fixed_point(spec, f, tol_rel=inner_tol)
    return nash.w.values[-1] + eps * psi0


def apply_lambda(spec: ProblemSpec, psi0, inner_tol=1e-12):
    """HUM operator: psi0 -> w(T) with zeroed affine data (symmetric PSD)."""
    return grad_G(spec.with_zero_data(), psi0, eps=0.0, inner_tol=inner_tol)


def minimize_G(spec: ProblemSpec, eps, cg_tol=1e-8, max_iter=200, psi0=None):
    """Quadratic-penalty HUM: solve (Lambda + eps I) psi0 = -b by CG.

    eps is one penalty, giving one HumResult, or a sequence of them, giving
    one HumResult per eps in the same order; a sequence shares one
    multi-shift CG run.  b is the gradient at psi0 = 0 (one affine solve);
    Lambda applications run with zeroed affine data.  Inner solves run at
    min(cg_tol/10, 1e-10) so their noise stays below the CG tolerance.

    Each psi0 is reconstructed with the affine data, which yields
    w(T) = Lambda psi0 + b and so the true residual w(T) + eps psi0 without
    another Lambda apply.  Where it misses cg_tol relative to ||b||
    (floating-point drift of the shift recurrences), that eps is refined
    once by a single-shift CG on the residual equation.

    psi0, for a single eps only, is a start in place of the CG run: it is
    reconstructed and refined like a drifted shift, so a start that already
    meets cg_tol costs no CG iteration, and its cg_residuals begin with its
    true residual relative to ||b||.
    """
    spec.require_controllability_geometry()
    grid = spec.grid
    inner_tol = min(cg_tol / 10.0, 1e-10)
    eps_list = [float(e) for e in np.atleast_1d(eps)]
    if psi0 is not None and len(eps_list) != 1:
        raise ValueError("a psi0 start takes a single eps")
    b_full = grad_G(spec, np.zeros(grid.nx), eps=0.0, inner_tol=inner_tol)
    b_int = grid.to_interior(b_full)
    norm_b = max(float(np.linalg.norm(b_int)), TINY)
    zspec = spec.with_zero_data()

    def apply(x_int):
        lam = grad_G(zspec, grid.from_interior(x_int), eps=0.0, inner_tol=inner_tol)
        return grid.to_interior(lam)

    def reconstruct(x_int, e):
        psi0 = grid.from_interior(x_int)
        coupled = solve_coupled_adjoint(spec, psi0, tol_rel=inner_tol)
        f = leader_from_psi(spec, coupled)
        nash = solve_nash_fixed_point(spec, f, tol_rel=inner_tol)
        r_true = grid.to_interior(nash.w.values[-1]) + e * x_int
        return psi0, f, nash, r_true

    if psi0 is None:
        cg = conjugate_gradient(apply, -b_int, tol_rel=cg_tol, max_iter=max_iter, shifts=eps_list)
        starts = zip(eps_list, cg.xs, cg.histories, cg.shift_iterations)
    else:
        starts = [(eps_list[0], grid.to_interior(np.asarray(psi0, dtype=float)), None, 0)]
    results = []
    for e, x_int, residuals, iterations in starts:
        psi0, f, nash, r_true = reconstruct(x_int, e)
        norm_r = float(np.linalg.norm(r_true))
        if residuals is None:
            residuals = [norm_r / norm_b]
        if norm_r > cg_tol * norm_b:
            fix = conjugate_gradient(apply, -r_true, tol_rel=cg_tol * norm_b / norm_r,
                                     max_iter=max_iter, shifts=(e,))
            residuals = residuals + [h * norm_r / norm_b for h in fix.histories[0][1:]]
            iterations += fix.iterations
            psi0, f, nash, r_true = reconstruct(x_int + fix.xs[0], e)
            norm_r = float(np.linalg.norm(r_true))
        results.append(HumResult(
            psi0=psi0,
            f=f,
            nash=nash,
            terminal_norm=norm_h(grid, nash.w.values[-1]),
            cg_residuals=residuals,
            cg_iterations=iterations,
            eps=e,
            true_residual=norm_r / norm_b,
        ))
    return results if np.ndim(eps) else results[0]


@dataclass
class TrajectoryResult:
    hum: HumResult
    u: SpaceTimeField
    ubar: SpaceTimeField
    terminal_mismatch: float


def control_to_trajectory(spec: ProblemSpec, u0, ubar0, zetas, eps, **kw):
    """Exact controllability to a free trajectory, linear case.

    Solves the uncontrolled problem for ubar, shifts data (w0 = u0 - ubar0,
    w_id = zeta_id - ubar), runs minimize_G and reconstructs u = w + ubar.
    The terminal mismatch ||u(T) - ubar(T)|| is the w-problem terminal norm,
    bitwise.  eps is one penalty or a sequence of them, as in minimize_G,
    giving one TrajectoryResult or a list of them.
    """
    u0 = np.asarray(u0, dtype=float)
    ubar0 = np.asarray(ubar0, dtype=float)
    # the data shifts leave the coefficients, so both problems share spec's stepper
    base = spec.with_(w0=ubar0)
    ubar = solve_forward(base, w0=ubar0)
    wspec = spec.with_(w0=u0 - ubar0, targets=tuple(z - ubar for z in zetas))
    hums = minimize_G(wspec, np.atleast_1d(eps), **kw)
    results = [TrajectoryResult(hum=hum, u=hum.nash.w + ubar, ubar=ubar, terminal_mismatch=hum.terminal_norm)
               for hum in hums]
    return results if np.ndim(eps) else results[0]

