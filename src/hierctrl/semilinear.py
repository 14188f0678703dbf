"""Semilinear extension: quasi-equilibria, Picard null control, sufficiency.

The nonlinearity enters through frozen-coefficient sweeps: the secant
coefficients G1, G2 (tau-averaged derivatives) modify the state equation,
the tangent derivatives modify the adjoint equations, and each sweep is a
linear solve handled by the nash / hum machinery with coefficient
overrides.  Everything reduces bitwise to the linear path when F vanishes.

Every iterate, coefficient and result is an interior (nt+1, n) array.  An
iterate's boundary values are zero, so its centred gradient at an interior
node reads only interior values and zeros (mesh.interior_gradient).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .carleman import check_target_condition
from .errors import OuterDivergence, UnsupportedNonlinearity
from .expressions import parse_expr
from .hum import minimize_G
from .linalg import TINY, iterate, lanczos
from .mesh import interior_divergence, interior_gradient
from .nash import NashSolution, q_norm, solve_nash_fixed_point
from .operators import ProblemSpec, lagged

GL_POINTS = 8

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(GL_POINTS)
_GL_NODES = 0.5 * (_GL_NODES + 1.0)  # map to [0, 1]
_GL_WEIGHTS = 0.5 * _GL_WEIGHTS


@dataclass
class Nonlinearity:
    """F(u, p) with first (and optionally second) derivatives and a bound M.

    p stands for the spatial gradient; callables receive (u, p) with p a
    tuple of arrays, one per axis, and broadcast over array inputs.
    hess_p is a dim x dim nested structure of callables (or None entries).
    """

    name: str
    bound: float
    f: callable
    f_u: callable
    grad_p: callable
    f_uu: callable = None
    grad_p_f_u: callable = None
    hess_p: callable = None

    @property
    def has_second_order(self):
        return self.f_uu is not None and self.grad_p_f_u is not None and self.hess_p is not None


def _cosh2(x):
    """cosh(x)^2; past |x| of about 355 it overflows to inf, and what it
    divides takes the exact limit 0."""
    with np.errstate(over="ignore"):
        return np.cosh(x) ** 2


def _tanh_family(name, c1, c2) -> Nonlinearity:
    """F = c1 tanh(u) + c2 tanh(du/dx1), with analytic first and second derivatives."""
    c1 = float(c1)
    c2 = float(c2)

    def zeros(u):
        return np.zeros_like(np.asarray(u, dtype=float))

    def f(u, p):
        return c1 * np.tanh(u) + c2 * np.tanh(p[0])

    def f_u(u, p):
        return c1 / _cosh2(u)

    def grad_p(u, p):
        return (c2 / _cosh2(p[0]),) + tuple(zeros(u) for _ in p[1:])

    def f_uu(u, p):
        return -2.0 * c1 * np.tanh(u) / _cosh2(u)

    def grad_p_f_u(u, p):
        return tuple(zeros(u) for _ in p)

    def hess_p(u, p):
        z = zeros(u)
        pp = -2.0 * c2 * np.tanh(p[0]) / _cosh2(p[0])
        return tuple(tuple(pp if i == j == 0 else z for j in range(len(p))) for i in range(len(p)))

    return Nonlinearity(name, abs(c1) + abs(c2), f, f_u, grad_p, f_uu, grad_p_f_u, hess_p)


def preset_zero() -> Nonlinearity:
    return _tanh_family("zero", 0.0, 0.0)


def preset_tanh(c) -> Nonlinearity:
    return _tanh_family("tanh", c, 0.0)


def preset_grad_tanh(c1, c2) -> Nonlinearity:
    return _tanh_family("grad-tanh", c1, c2)


def from_expression(text, bound, dim=1) -> Nonlinearity:
    """User-defined F from an expression in u, p1, p2.

    First derivatives come from central finite differences, so this form is
    accepted by the first-order operations only; the second-order checker
    rejects it (honest second derivatives are required there).
    """
    ast = parse_expr(text)

    def env(u, p):
        e = {"u": np.asarray(u, dtype=float)}
        for i in range(dim):
            e[f"p{i + 1}"] = np.asarray(p[i], dtype=float)
        return e

    def f(u, p):
        return ast.evaluate(env(u, p))

    def difference(plus, minus, h, name):
        """(plus - minus) / 2h, which must be finite: frozen coefficients
        are built from it, and a step matrix cannot hold inf or nan."""
        with np.errstate(all="ignore"):
            out = (plus - minus) / (2.0 * h)
        if not np.all(np.isfinite(out)):
            raise UnsupportedNonlinearity(f"nonlinearity.expr = {text!r}: its finite-difference {name} "
                                          "is not finite where the solve evaluates it")
        return out

    def f_u(u, p):
        u = np.asarray(u, dtype=float)
        h = 1e-6 * (1.0 + np.abs(u))
        return difference(ast.evaluate({**env(u + h, p)}), ast.evaluate({**env(u - h, p)}), h, "dF/du")

    def grad_p(u, p):
        out = []
        for i in range(dim):
            pi = np.asarray(p[i], dtype=float)
            h = 1e-6 * (1.0 + np.abs(pi))
            pp = list(p)
            pm = list(p)
            pp[i] = pi + h
            pm[i] = pi - h
            out.append(difference(f(u, tuple(pp)), f(u, tuple(pm)), h, f"dF/dp{i + 1}"))
        return tuple(out)

    origin = f(np.zeros(1), tuple(np.zeros(1) for _ in range(dim)))
    if not np.all(np.isfinite(origin)):
        raise UnsupportedNonlinearity(f"F(0,0) is not finite for {text!r}")
    return Nonlinearity(f"expr:{text}", float(bound), f, f_u, grad_p)


def eval_secant_coeffs(grid, nonlin: Nonlinearity, base, z):
    """tau-averaged derivative coefficients along the segment base -> base+z.

    G1 = int_0^1 F_u(base + tau z, grad base + tau grad z) dtau and the
    gradient-slot analogue G2, evaluated per node by 8-point Gauss-Legendre.
    base and z are interior (nt+1, n) arrays, and so are G1 and each
    component of G2; base = None means the zero-base variant.
    """
    gz = interior_gradient(grid, z)
    if base is None:
        base = np.zeros_like(z)
        gb = tuple(np.zeros_like(z) for _ in range(grid.dim))
    else:
        gb = interior_gradient(grid, base)
    g1 = np.zeros_like(z)
    g2 = [np.zeros_like(z) for _ in range(grid.dim)]
    for tau, wq in zip(_GL_NODES, _GL_WEIGHTS):
        u = base + tau * z
        p = tuple(gb[ax] + tau * gz[ax] for ax in range(grid.dim))
        g1 += wq * nonlin.f_u(u, p)
        comps = nonlin.grad_p(u, p)
        for ax in range(grid.dim):
            g2[ax] += wq * comps[ax]
    return g1, tuple(g2)


def _tangent(spec: ProblemSpec, nonlin, u):
    """The coefficients (a - F_u, b - grad_p F) of the equation linearized
    at the interior (nt+1, n) array u."""
    grid = spec.grid
    gu = interior_gradient(grid, u)
    fu = nonlin.f_u(u, gu)
    gpf = nonlin.grad_p(u, gu)
    return spec.a - fu, tuple(spec.b[ax] - gpf[ax] for ax in range(grid.dim))


def _secant(spec: ProblemSpec, nonlin, z, base=None):
    """The state coefficients (a - G1, b - G2) frozen at z, with the secant
    averages along base -> base+z (eval_secant_coeffs)."""
    g1, g2 = eval_secant_coeffs(spec.grid, nonlin, base, z)
    return spec.a - g1, tuple(b_axis - g2_axis for b_axis, g2_axis in zip(spec.b, g2))


def _frozen_spec(spec: ProblemSpec, nonlin, z, base=None):
    """Linear spec for one frozen-z sweep.

    State equation coefficients pick up the secant averages; the adjoint
    equations pick up the tangent derivatives at base+z.
    """
    a, b = _secant(spec, nonlin, z, base)
    a_adj, b_adj = _tangent(spec, nonlin, z if base is None else base + z)
    return spec.with_(a=a, b=b, a_adj=a_adj, b_adj=b_adj)


def _z_change_norm(grid, d):
    """Discrete norm of (z, grad z) iterate changes."""
    total = q_norm(grid, d) ** 2
    for g in interior_gradient(grid, d):
        total += q_norm(grid, g) ** 2
    return math.sqrt(total)


def _picard_change(grid, z, w):
    """(change, scale) of a Picard step z -> w, both in the (z, grad z) norm."""
    scale = max(_z_change_norm(grid, z), _z_change_norm(grid, w), TINY)
    return _z_change_norm(grid, w - z), scale


def _constant_source(grid, nonlin):
    """The constant remainder F(0, 0) as an interior (nt+1, n) source, or
    None when it is zero."""
    f00 = float(nonlin.f(np.zeros(1), tuple(np.zeros(1) for _ in range(grid.dim)))[0])
    return np.full((grid.nt + 1, grid.n_interior), f00) if f00 != 0.0 else None


def solve_quasi_equilibrium(spec: ProblemSpec, nonlin: Nonlinearity, f=None,
                            tol=1e-10, inner_tol=1e-12) -> NashSolution:
    """Outer Picard on the frozen-z optimality system.

    Each sweep solves the linear system with secant coefficients at z and
    the constant remainder F(0,0); convergence is measured in the discrete
    (z, grad z) norm.  f is the leader control as an interior (nt+1, n)
    array, or None.  The quasi-equilibrium is the last sweep's Nash
    solution of the frozen system: its state w, follower adjoints phis and
    controls.
    """
    grid = spec.grid
    extra = _constant_source(grid, nonlin)

    def sweep(state):
        z = state[0]
        frozen = _frozen_spec(spec, nonlin, z, base=None)
        sol = solve_nash_fixed_point(frozen, f, tol_rel=inner_tol, extra_source=extra)
        return (sol.w, sol), *_picard_change(grid, z, sol.w)

    (_, sol), _, _ = iterate(sweep, (np.zeros((grid.nt + 1, grid.n_interior)),), tol, 50,
                             "quasi-equilibrium Picard")
    return sol


def solve_free_trajectory(spec: ProblemSpec, nonlin: Nonlinearity, ubar0, max_iter=60):
    """Uncontrolled semilinear trajectory by secant-coefficient Picard, from
    the (n,) vector ubar0; an interior (nt+1, n) array.  Each sweep builds
    the forward family of the secant coefficients alone, the one it
    marches.  With ubar0 and F(0,0) both zero the trajectory is zero, and
    no stepper is built."""
    grid = spec.grid
    zero = np.zeros((grid.nt + 1, grid.n_interior))
    src = _constant_source(grid, nonlin)
    if src is None and not np.any(ubar0):
        return zero

    def sweep(z):
        a, b = _secant(spec, nonlin, z)
        u = spec.with_(a=a, b=b, a_adj=None, b_adj=None).stepper.march_forward(ubar0, src)
        return u, *_picard_change(grid, z, u)

    u, _, _ = iterate(sweep, zero, 1e-12, max_iter, "free trajectory Picard")
    return u


@dataclass
class SemilinearControlResult:
    """The leader control f, the controlled state u and the free trajectory
    ubar, each an interior (nt+1, n) array, with the terminal norm of the
    last outer iteration's HUM solve, ||u(T) - ubar(T)||."""
    f: np.ndarray
    u: np.ndarray
    ubar: np.ndarray
    terminal_mismatch: float
    outer_iterations: int
    history: list
    target_check: list = None
    cg_residuals: list = None  # per outer iteration, that iteration's HumResult.cg_residuals
    cg_iterations: int = 0  # summed over outer iterations, refinements included


# Forcing terms of the outer loop: a warm HUM solve stops once its residual, relative to the first
# solve's ||b||, is at most FORCING_FACTOR times the last outer change relative to its scale,
# clamped to [FORCING_FLOOR * cg_tol, max(FORCING_CAP, cg_tol)].
FORCING_FACTOR = 1e-4
FORCING_CAP = 1e-5
FORCING_FLOOR = 1e-2


def semilinear_null_control(spec: ProblemSpec, nonlin: Nonlinearity, ubar0, eps,
                            outer_tol=1e-8, max_outer=30, cg_tol=1e-9, cg_max_iter=300,
                            log_theta=None) -> SemilinearControlResult:
    """Exact controllability to the free semilinear trajectory.

    Outer loop: freeze z, build the linear spec with secant state
    coefficients and tangent adjoint coefficients around the trajectory,
    run the penalized HUM solver, update z with the controlled state.  The
    loop is an inexact Picard iteration (Eisenstat & Walker's forcing
    terms).  The first HUM solve is cold, at cg_tol relative to its own
    ||b||.  Each later one starts from the previous HumResult (minimize_G's
    start), so it makes no affine solve and measures its residuals against
    the first solve's ||b||, and stops once they are at most
    FORCING_FACTOR times the last outer change relative to its scale,
    clamped to [FORCING_FLOOR * cg_tol, max(FORCING_CAP, cg_tol)]: a
    loose solve while the outer change is large, a tight one as it
    converges.  Its refinement is preconditioned with the Ritz pairs the
    start carries: the frozen coefficients, and so Lambda's few
    eigenvalues above eps, move little between iterations.  The pairs come
    from the latest solve that applied Lambda often enough, in practice
    the cold first one, and are always used.
    spec.w0 holds the absolute initial state u0 and spec.targets the
    absolute targets zeta_id; ubar0 is an (n,) vector.
    """
    grid = spec.grid
    spec.require_controllability_geometry()
    ubar = solve_free_trajectory(spec, nonlin, ubar0)
    w0 = spec.w0 - ubar0
    wtargets = tuple(t - ubar for t in spec.targets)
    base_wspec = spec.with_(w0=w0, targets=wtargets)
    target_check = None
    if log_theta is not None:
        target_check = check_target_condition(base_wspec, log_theta)
    cg_residuals, cg_iterations = [], []  # per outer iteration; no HumResult outlives its iteration
    cap, floor = max(FORCING_CAP, cg_tol), FORCING_FLOOR * cg_tol

    def sweep(state):
        z, previous, change = state  # change: the last outer change relative to its scale
        frozen = _frozen_spec(base_wspec, nonlin, z, base=ubar)
        tol = cg_tol if previous is None else min(cap, max(floor, FORCING_FACTOR * change))
        hum = minimize_G(frozen, eps, cg_tol=tol, max_iter=cg_max_iter, start=previous)
        cg_residuals.append(hum.cg_residuals)
        cg_iterations.append(hum.cg_iterations)
        change, scale = _picard_change(grid, z, hum.w)
        return (hum.w, hum, change / scale), change, scale

    start = (np.zeros((grid.nt + 1, grid.n_interior)), None, None)
    (z, hum, _), _, history = iterate(sweep, start, outer_tol, max_outer, "semilinear outer loop",
                                      diverged=OuterDivergence)
    return SemilinearControlResult(
        f=hum.f, u=z + ubar, ubar=ubar,
        terminal_mismatch=hum.terminal_norm,
        outer_iterations=len(history), history=history,
        target_check=target_check, cg_residuals=cg_residuals, cg_iterations=sum(cg_iterations))


def _form_companions(spec: ProblemSpec, nonlin: Nonlinearity, equilibrium):
    """For each follower i, the map from a direction, an interior (nt+1, n)
    array, to the backward companion eta of follower i's quadratic form
    (second_order_form), an interior (nt+1, n) array: linear in the
    direction.  The tangent stepper (the equation linearized at the
    equilibrium state, _tangent) and the second derivatives at the
    equilibrium are evaluated here, once, and every map shares them; each
    call of a map is one tangent march of the direction on O_i and one
    companion march."""
    if not nonlin.has_second_order:
        raise UnsupportedNonlinearity(
            "second-order checker needs analytic second derivatives; "
            "expression-based nonlinearities are first-order only")
    grid = spec.grid
    u = equilibrium.w
    a, b = _tangent(spec, nonlin, u)
    st = spec.with_(a=a, b=b, a_adj=None, b_adj=None).stepper
    gu = interior_gradient(grid, u)
    fuu = nonlin.f_uu(u, gu)
    gpfu = nonlin.grad_p_f_u(u, gu)
    hpp = nonlin.hess_p(u, gu)

    def companion(i):
        chi = spec.follower_masks[i].interior_vector()
        chid = spec.target_masks[i].interior_vector()
        phi = equilibrium.phis[i]
        phi_at = lagged(phi)  # the multiplier of step j, stored at level j-1, at state level j

        def eta(direction):
            H = st.march_forward(np.zeros(grid.n_interior), direction * chi)
            gh = interior_gradient(grid, H)
            src_eta = fuu * phi_at * H
            for ax in range(grid.dim):
                src_eta = src_eta + gpfu[ax] * gh[ax] * phi_at
            vec = []
            for ax in range(grid.dim):
                comp = gpfu[ax] * H * phi_at
                for bx in range(grid.dim):
                    comp = comp + hpp[ax][bx] * gh[bx] * phi_at
                vec.append(comp)
            src_eta = src_eta - interior_divergence(grid, tuple(vec))
            src_eta = src_eta + spec.alpha[i] * chid * H
            return st.march_backward(np.zeros(grid.n_interior), src_eta, family="adjoint")

        return eta

    return [companion(i) for i in range(2)]


def second_order_form(spec: ProblemSpec, i, direction, eta) -> float:
    """Quadratic form of follower i's cost at the equilibrium.

    eta is follower i's map of _form_companions at the equilibrium, which
    every direction shares: it marches the tangent state h driven by the
    direction, an interior (nt+1, n) array, then the backward companion
    with the second-derivative sources.  Returns
    int int_Oi direction*eta + mu_i ||direction||^2.
    """
    E = eta(direction)
    grid = spec.grid
    chi = spec.follower_masks[i].interior_vector()
    cross = grid.dt * grid.hd * float(np.sum((direction[1:] * chi) * E[:-1]))
    norm2 = q_norm(grid, direction * chi) ** 2
    return cross + spec.mu[i] * norm2


FORM_TOL = 1e-10  # form_extremes stops once both extreme Ritz bounds are this small relative to the largest


def form_extremes(spec: ProblemSpec, i, eta):
    """The smallest and largest eigenvalue, theta_min and theta_max, of the
    cross term of follower i's quadratic form (second_order_form) on its
    control unknowns, levels 1..nt on O_i, in the discrete L2(Q) inner
    product the sampled directions are unit in.  The form's own extremes
    are mu_i + theta_min and mu_i + theta_max.

    The cross term is linear in the direction: on the unknowns' L2(Q)-unit
    basis, the cross term of a direction x is read from its companion eta
    (_form_companions) of x embedded on O_i.  The Lanczos process
    (linalg.lanczos) runs on it from the all-ones vector, and stops once
    the Ritz bounds ||w_k|| |e_k' y| of T_k's smallest and largest
    eigenvalues are both at most FORM_TOL times the larger of their
    magnitudes, or when the Krylov space is invariant.  eta as in
    second_order_form.
    """
    grid = spec.grid
    nodes = np.flatnonzero(spec.follower_masks[i].interior_vector())

    def cross(x):
        d = np.zeros((grid.nt + 1, grid.n_interior))
        d[1:, nodes] = x.reshape(grid.nt, len(nodes))
        return eta(d)[:-1, nodes].ravel()

    m = grid.nt * len(nodes)
    for _, _, alphas, betas, norm_w in lanczos(cross, np.ones(m), m):
        theta, Y = scipy.linalg.eigh_tridiagonal(alphas, betas[1:])
        if norm_w * np.abs(Y[-1, [0, -1]]).max() <= FORM_TOL * np.abs(theta[[0, -1]]).max():
            break
    return float(theta[0]), float(theta[-1])


@dataclass
class SufficiencyReport:
    """The sampled forms of each follower (forms), their minimum and
    c_hat = min_form - mu_i; lambda_min and lambda_max are mu_i plus the
    cross-term extremes of form_extremes, and c_hat_sharp the smallest
    cross-term eigenvalue itself, the sharp c_hat."""
    min_form: tuple
    c_hat: tuple
    all_positive: bool
    n_directions: int
    dimension_in_analysis_range: bool
    forms: tuple
    lambda_min: tuple
    lambda_max: tuple
    c_hat_sharp: tuple


def verify_equilibrium_sufficiency(spec: ProblemSpec, nonlin: Nonlinearity, equilibrium,
                                   n_directions=20, seed=0) -> SufficiencyReport:
    """Sample random unit control directions and evaluate the quadratic form.

    Positive sampled forms back the equilibrium/quasi-equilibrium
    equivalence; c_hat_i = min (form - mu_i ||w||^2)/||w||^2 stands in for
    the nonconstructive coupling constant, and the cross term's smallest
    eigenvalue (form_extremes) gives its sharp value.  Both run on each
    follower's map of _form_companions.  1D runs are flagged as outside the
    dimension range (2..20) the second-order equivalence analysis assumes.
    """
    grid = spec.grid
    rng = np.random.default_rng(seed)
    forms, extremes = [], []
    for i, eta in enumerate(_form_companions(spec, nonlin, equilibrium)):
        chi = spec.follower_masks[i].interior_vector()
        sampled = []
        for _ in range(n_directions):
            d = rng.standard_normal((grid.nt + 1, grid.n_interior)) * chi
            d[0] = 0.0
            d /= q_norm(grid, d)
            sampled.append(second_order_form(spec, i, d, eta))
        forms.append(tuple(sampled))
        extremes.append(form_extremes(spec, i, eta))
    mins = tuple(min(sampled, default=math.nan) for sampled in forms)
    theta_min, theta_max = zip(*extremes)
    return SufficiencyReport(
        min_form=mins,
        c_hat=tuple(low - mu for low, mu in zip(mins, spec.mu)),
        all_positive=all(v > 0 for sampled in forms for v in sampled),
        n_directions=n_directions,
        dimension_in_analysis_range=grid.dim >= 2,
        forms=tuple(forms),
        lambda_min=tuple(theta + mu for theta, mu in zip(theta_min, spec.mu)),
        lambda_max=tuple(theta + mu for theta, mu in zip(theta_max, spec.mu)),
        c_hat_sharp=theta_min,
    )
