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

from dataclasses import dataclass

import numpy as np

from .linalg import TINY, RitzPairs, conjugate_gradient, factorize, ritz_pairs
from .mesh import norm_h
from .nash import NashSolution, _control_weights, alternate, solve_nash_fixed_point, stacked_system
from .operators import Coordinates, ProblemSpec, control_sources, lagged

RITZ_DIRECTIONS = 8  # a single-eps CG run from b of this many iterations yields Ritz pairs
RITZ_CAP = 20  # the most Ritz pairs a solve keeps
# A Lambda apply inside CG runs its inner solves at min(INNER_TOL_MAX, RELAX tol_rel / r), r the
# relative residual that CG run has reached and tol_rel its own tolerance, and never tighter than
# min(cg_tol/10, 1e-10) (minimize_G).
RELAX = 0.01
INNER_TOL_MAX = 1e-4


@dataclass
class CoupledAdjointState:
    """psi and its forward companions eta_i = F_adj(-chi_i psi^{j-1}/mu_i),
    each an interior (nt+1, n) array with one row per time level 0..nt.

    companions stays None until etas is first read; that read marches both
    from psi as one 2-column march and keeps them.  A direct solve sets
    them.
    """
    psi: np.ndarray
    spec: ProblemSpec
    iterations: int = 0
    companions: tuple = None

    @property
    def etas(self):
        if self.companions is None:
            self.companions = tuple(_companions(self.spec, self.psi))
        return self.companions


@dataclass
class HumResult:
    """One penalized HUM solve: the interior terminal datum psi0, shape
    (n,), the leader control f and the state w it drives, interior
    (nt+1, n) arrays, and terminal_norm, the norm of w(T).

    cg_residuals are CG's residuals relative to b_norm, refinements
    included, cg_iterations its Lambda applies.  b_norm is the residual
    scale: ||b|| of a cold solve, the one its start carried for a warm one
    (minimize_G's start).  ritz holds the Ritz pairs of Lambda above eps
    that a later solve with a nearby Lambda is preconditioned with: those
    of this solve's own cold CG run, from its T_k, when that run made
    enough iterations, else the ones its start carried; None for several
    eps.
    """
    psi0: np.ndarray
    f: np.ndarray
    w: np.ndarray
    terminal_norm: float
    cg_residuals: list
    cg_iterations: int
    eps: float
    true_residual: float
    b_norm: float
    ritz: RitzPairs = None


def _companions(spec, psi):
    """The forward companions of psi, eta_1 and eta_2, as one (2, nt+1, n)
    march: column i marches lagged(psi) times -chi_i/mu_i
    (nash._control_weights), the Nash state source of psi, as the coupled
    adjoint is the transpose of the Nash system."""
    src = np.stack([lagged(psi, wt) for wt in _control_weights(spec, 2)])
    return spec.stepper.march_forward(np.zeros(spec.grid.n_interior), src, family="adjoint")


def solve_coupled_adjoint(spec: ProblemSpec, psi0, tol_rel=1e-12, max_iter=200) -> CoupledAdjointState:
    """Fixed point over psi, linear in the terminal datum psi0, an interior
    (n,) vector: nash.alternate run transposed.

    psi marches backward with the transposed forward matrices, fed by
    sum_i alpha_i chi_di eta_i, where the companions eta_i march forward
    with the adjoint-coefficient family from the previous psi; their sum
    marches as one column when both target weights are equal.  The change
    is measured on psi, and the companions are read from the final psi when
    first wanted (CoupledAdjointState.etas).  A zero psi0 gives the zero
    state, psi and both companions, without a sweep or a march (0
    iterations).
    """
    grid = spec.grid
    fwd = spec.stepper.coordinates("forward")
    datum = fwd.datum(psi0)
    if not datum.any():
        psi, *etas = np.zeros((3, grid.nt + 1, grid.n_interior))
        return CoupledAdjointState(psi, spec, 0, tuple(etas))
    psi, _, it, _ = alternate(spec, datum, transposed=True, tol_rel=tol_rel, max_iter=max_iter)
    return CoupledAdjointState(fwd.physical(psi, psi0, backward=True), spec, it)


def dense_oracle(spec: ProblemSpec, f=None, psi0=None):
    """Direct space-time solves of the optimality system and its transpose.

    Factors the stacked system once.  The solve with leader f gives the
    Nash solution the fixed point is tested against; the transposed solve,
    with psi0 feeding the w^nt row, gives the coupled adjoint state.  f is
    an interior (nt+1, n) array and psi0 an interior (n,) vector; either
    may be None (zero).  Returns (NashSolution, CoupledAdjointState).
    """
    grid = spec.grid
    n = grid.n_interior
    nt = grid.nt
    lu = factorize(stacked_system(spec))
    rhs = np.zeros((3, nt, n))
    rhs[0] += grid.dt * control_sources(spec, f=f)[1:]
    rhs[0, 0] += spec.w0
    for i in range(2):
        chid = spec.target_masks[i].interior_vector()
        rhs[1 + i] += -grid.dt * spec.alpha[i] * chid * spec.targets[i][1:]
    x = lu.solve(rhs.reshape(-1)).reshape(3, nt, n)
    W = np.vstack([spec.w0, x[0]])
    phis = [np.vstack([x[1 + i], np.zeros(n)]) for i in range(2)]
    nash = NashSolution(W, tuple(phis), Coordinates(grid), spec.follower_masks, spec.mu, 1)

    psi0 = np.zeros(n) if psi0 is None else psi0
    rhs = np.zeros((3, nt, n))
    rhs[0, nt - 1] = psi0
    x = lu.solve(rhs.reshape(-1), transpose=True).reshape(3, nt, n)
    psi = np.vstack([x[0], psi0])
    etas = tuple(np.vstack([np.zeros(n), x[1 + i]]) for i in range(2))
    return nash, CoupledAdjointState(psi, spec, 1, etas)


def leader_from_psi(spec: ProblemSpec, coupled: CoupledAdjointState):
    """Leader control f = psi restricted to the leader region, as an
    interior (nt+1, n) array.

    Control level j carries psi^{j-1}: the value pairing with forward step j
    in the discrete duality.
    """
    return lagged(coupled.psi, spec.leader_mask.interior_vector())


def grad_G(spec: ProblemSpec, psi0, eps, inner_tol=1e-12, fields=None):
    """Gradient of G_eps: terminal state of the optimality system driven by
    f = psi chi_O, plus the penalty gradient.  psi0 and the gradient are
    interior (n,) vectors.  fields, when given, is a list the leader
    control f and the state w, interior (nt+1, n) arrays, are appended to
    as one (f, w) pair."""
    coupled = solve_coupled_adjoint(spec, psi0, tol_rel=inner_tol)
    f = leader_from_psi(spec, coupled)
    nash = solve_nash_fixed_point(spec, f, tol_rel=inner_tol)
    if fields is not None:
        fields.append((f, nash.w))
    return nash.w[-1] + eps * psi0


def minimize_G(spec: ProblemSpec, eps, cg_tol=1e-8, max_iter=200, start=None):
    """Quadratic-penalty HUM: solve (Lambda + eps I) psi0 = -b by CG.

    eps is one penalty, giving one HumResult, or a sequence of them, giving
    one HumResult per eps in the same order; a sequence shares one
    multi-shift CG run.  b is the gradient at psi0 = 0 (one affine solve);
    Lambda applications run with zeroed affine data.  Each inner solve, the
    coupled adjoint and the Nash fixed point, stops once its last change,
    or Banach's bound on its error, is below its tolerance.  The affine
    solve and a start's evaluation, which feed f and w directly, run at
    min(cg_tol/10, 1e-10).  A Lambda apply inside a CG run of tolerance
    tol_rel runs at min(INNER_TOL_MAX, RELAX tol_rel / r), and never
    tighter than min(cg_tol/10, 1e-10), r being the relative residual of
    the unshifted recurrence that run has reached (conjugate_gradient
    hands it to each apply): tight while r is large and loose as it
    falls, as the error a Krylov method tolerates in its k-th product
    grows like tol_rel ||b|| / ||r_k|| (Simoncini & Szyld, SIAM J. Sci.
    Comput. 25(2), 2003; van den Eshof & Sleijpen, SIAM J. Matrix Anal.
    Appl. 26(1), 2004).  r does not depend on the shifts, so each eps of a
    sweep gets the applies, bit for bit, of its own single-eps run.

    No solve follows the CG run.  f and w are linear and affine in psi0, and
    each Lambda apply keeps the (f, w) of its direction d_k (grad_G's
    fields), so each eps takes f = sum_k gamma_k f_k and
    w = w_b + sum_k gamma_k w_k from CG's coefficients gamma
    (CGResult.coefficients), w_b being the state of the affine solve: one
    tensordot for every eps.  Then w(T) = b + sum_k gamma_k Lambda d_k,
    and the true residual is w(T) + eps psi0, psi0 = sum_k gamma_k d_k, so
    the residual CG's recurrences estimated is checked against the products
    Lambda d_k that were applied.  Where it misses cg_tol relative to ||b||
    (floating-point drift of the recurrences), that eps is refined
    once by a single-shift CG on the residual equation, whose own
    combination is added to f and w.

    start, a HumResult of a nearby problem, for a single eps only, takes
    the place of the affine solve and the CG run: its psi0 is evaluated
    with the affine data and refined like a drifted shift, and every
    residual is measured against its b_norm, so no affine solve is made.
    A start that already meets cg_tol costs no CG iteration, and its
    cg_residuals begin with its true residual.  The start's Ritz pairs
    (linalg.RitzPairs), when it has them, turn the refinement into
    preconditioned CG under RitzPairs.preconditioner(eps), which deflates
    the few eigenvalues above eps that plain CG spends its iterations on;
    its residuals stay unpreconditioned.

    A single-eps solve whose cold, unpreconditioned CG run from b makes at
    least RITZ_DIRECTIONS iterations returns, as HumResult.ritz, that
    run's Ritz pairs (linalg.ritz_pairs of its T_k and orthonormal basis)
    with values above eps, at most RITZ_CAP of them; a warm solve returns
    its start's.  This costs no Lambda apply.  A preconditioned run's T_k
    belongs to the pencil (Lambda + eps, M), not to Lambda, so no pairs are
    taken from a refinement.
    """
    spec.require_controllability_geometry()
    grid = spec.grid
    inner_tol = min(cg_tol / 10.0, 1e-10)
    eps_list = [float(e) for e in np.atleast_1d(eps)]
    if start is not None and len(eps_list) != 1:
        raise ValueError("a start takes a single eps")
    fields = []  # (f, w) of the affine solve or the start, then of every direction Lambda is applied to
    zspec = spec.with_zero_data()

    def run_cg(rhs, tol_rel, shifts, preconditioner=None):
        """conjugate_gradient on Lambda from rhs, each apply at its relaxed inner tolerance."""
        def apply(x, r):
            tol = max(inner_tol, min(INNER_TOL_MAX, RELAX * tol_rel / max(r, TINY)))
            return grad_G(zspec, x, eps=0.0, inner_tol=tol, fields=fields)

        return conjugate_gradient(apply, rhs, tol_rel=tol_rel, max_iter=max_iter, shifts=shifts,
                                  preconditioner=preconditioner)

    def combine(base, coefficients, first):
        """base's (f, w) plus, for each row of coefficients, its combination
        of the fields of the directions applied from fields[first] on."""
        weights = np.hstack([np.ones((len(coefficients), 1)), coefficients])
        return [np.tensordot(weights, np.stack([field, *column[first:]]), axes=1)
                for field, column in zip(base, zip(*fields))]

    if start is None:
        b = grad_G(spec, np.zeros(grid.n_interior), eps=0.0, inner_tol=inner_tol, fields=fields)
        norm_b = max(float(np.linalg.norm(b)), TINY)
        ritz = recycled = None  # the pairs the refinements run on, and the ones returned
        cg = run_cg(-b, cg_tol, eps_list)
        if len(eps_list) == 1 and cg.iterations >= RITZ_DIRECTIONS:
            recycled = ritz_pairs(cg, eps_list[0], RITZ_CAP)
        fs, ws = combine(fields[0], cg.coefficients, 1)
        starts = zip(eps_list, cg.xs, fs, ws, cg.histories, cg.shift_iterations)
    else:
        norm_b = start.b_norm
        ritz = recycled = start.ritz
        grad_G(spec, start.psi0, eps=0.0, inner_tol=inner_tol, fields=fields)
        starts = [(eps_list[0], start.psi0, *fields.pop(), None, 0)]
    results = []
    for e, x, f, w, residuals, iterations in starts:
        r_true = w[-1] + e * x
        norm_r = float(np.linalg.norm(r_true))
        if residuals is None:
            residuals = [norm_r / norm_b]
        if norm_r > cg_tol * norm_b:
            first = len(fields)
            fix = run_cg(-r_true, cg_tol * norm_b / norm_r, (e,),
                         None if ritz is None else ritz.preconditioner(e))
            residuals = residuals + [h * norm_r / norm_b for h in fix.histories[0][1:]]
            iterations += fix.iterations
            x = x + fix.xs[0]
            (f,), (w,) = combine((f, w), fix.coefficients, first)
            r_true = w[-1] + e * x
            norm_r = float(np.linalg.norm(r_true))
        results.append(HumResult(
            psi0=x,
            f=f,
            w=w,
            terminal_norm=norm_h(grid, w[-1]),
            cg_residuals=residuals,
            cg_iterations=iterations,
            eps=e,
            true_residual=norm_r / norm_b,
            b_norm=norm_b,
            ritz=recycled,
        ))
    return results if np.ndim(eps) else results[0]


@dataclass
class TrajectoryResult:
    """The controlled trajectory u and the free one ubar, interior (nt+1, n)
    arrays, with the HUM solve of their difference."""
    hum: HumResult
    u: np.ndarray
    ubar: np.ndarray


def control_to_trajectory(spec: ProblemSpec, u0, ubar0, zetas, eps, **kw):
    """Exact controllability to a free trajectory, linear case.

    Marches the uncontrolled problem for ubar, shifts data (w0 = u0 - ubar0,
    w_id = zeta_id - ubar), runs minimize_G and reconstructs u = w + ubar.
    The terminal mismatch ||u(T) - ubar(T)|| is the w-problem terminal norm
    (HumResult.terminal_norm).  eps is one penalty or a sequence of them, as
    in minimize_G, giving one TrajectoryResult or a list of them.  u0 and
    ubar0 are (n,) vectors and zetas two interior (nt+1, n) arrays.
    """
    u0 = np.asarray(u0, dtype=float)
    ubar0 = np.asarray(ubar0, dtype=float)
    # the data shifts leave the coefficients, so both problems share spec's stepper
    ubar = spec.stepper.march_forward(ubar0)
    wspec = spec.with_(w0=u0 - ubar0, targets=tuple(z - ubar for z in zetas))
    hums = minimize_G(wspec, np.atleast_1d(eps), **kw)
    results = [TrajectoryResult(hum=hum, u=hum.w + ubar, ubar=ubar) for hum in hums]
    return results if np.ndim(eps) else results[0]
