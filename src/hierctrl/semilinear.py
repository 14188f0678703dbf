"""Semilinear extension: quasi-equilibria, Picard null control, sufficiency.

The nonlinearity enters through frozen-coefficient sweeps: the secant
coefficients G1, G2 (tau-averaged derivatives) modify the state equation,
the tangent derivatives modify the adjoint equations, and each sweep is a
linear solve handled by the nash / hum machinery with coefficient
overrides.  Everything reduces bitwise to the linear path when F vanishes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .carleman import check_target_condition
from .errors import OuterDivergence, UnsupportedNonlinearity
from .expressions import parse_expr
from .hum import HumResult, minimize_G
from .linalg import TINY, iterate
from .mesh import SpaceTimeField, st_divergence, st_gradient
from .nash import q_norm, solve_nash_fixed_point
from .operators import ProblemSpec, TimeStepper, control_sources

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

    def f_u(u, p):
        u = np.asarray(u, dtype=float)
        h = 1e-6 * (1.0 + np.abs(u))
        return (ast.evaluate({**env(u + h, p)}) - ast.evaluate({**env(u - h, p)})) / (2.0 * h)

    def grad_p(u, p):
        out = []
        for i in range(dim):
            pi = np.asarray(p[i], dtype=float)
            h = 1e-6 * (1.0 + np.abs(pi))
            pp = list(p)
            pm = list(p)
            pp[i] = pi + h
            pm[i] = pi - h
            out.append((f(u, tuple(pp)) - f(u, tuple(pm))) / (2.0 * h))
        return tuple(out)

    origin = f(np.zeros(1), tuple(np.zeros(1) for _ in range(dim)))
    if not np.all(np.isfinite(origin)):
        raise UnsupportedNonlinearity(f"F(0,0) is not finite for {text!r}")
    return Nonlinearity(f"expr:{text}", float(bound), f, f_u, grad_p)


def sample_bound(nonlin: Nonlinearity, dim, u_range=(-3.0, 3.0), p_range=(-3.0, 3.0), n=41):
    """Max over a sample grid of |F_u| + sum |dF/dp|; must stay within M."""
    us = np.linspace(*u_range, n)
    ps = np.linspace(*p_range, n)
    grids = np.meshgrid(us, *([ps] * dim), indexing="ij")
    u = grids[0]
    p = tuple(grids[1:])
    total = np.abs(nonlin.f_u(u, p))
    for comp in nonlin.grad_p(u, p):
        total = total + np.abs(comp)
    return float(np.max(total))


def eval_secant_coeffs(nonlin: Nonlinearity, base, z: SpaceTimeField):
    """tau-averaged derivative coefficients along the segment base -> base+z.

    G1 = int_0^1 F_u(base + tau z, grad base + tau grad z) dtau and the
    gradient-slot analogue G2, evaluated per node by 8-point Gauss-Legendre.
    base = None means the zero-base variant.
    """
    grid = z.grid
    zv = z.values
    gz = st_gradient(grid, zv)
    if base is None:
        bv = np.zeros_like(zv)
        gb = tuple(np.zeros_like(zv) for _ in range(grid.dim))
    else:
        bv = base.values
        gb = st_gradient(grid, bv)
    g1 = np.zeros_like(zv)
    g2 = [np.zeros_like(zv) for _ in range(grid.dim)]
    for tau, wq in zip(_GL_NODES, _GL_WEIGHTS):
        u = bv + tau * zv
        p = tuple(gb[ax] + tau * gz[ax] for ax in range(grid.dim))
        g1 += wq * nonlin.f_u(u, p)
        comps = nonlin.grad_p(u, p)
        for ax in range(grid.dim):
            g2[ax] += wq * comps[ax]
    return SpaceTimeField(grid, g1), tuple(SpaceTimeField(grid, c) for c in g2)


def _frozen_spec(spec: ProblemSpec, nonlin, z: SpaceTimeField, base=None):
    """Linear spec for one frozen-z sweep.

    State equation coefficients pick up the secant averages; the adjoint
    equations pick up the tangent derivatives at base+z.
    """
    grid = spec.grid
    g1, g2 = eval_secant_coeffs(nonlin, base, z)
    eval_at = z if base is None else base + z
    uv = eval_at.values
    gp = st_gradient(grid, uv)
    fu = nonlin.f_u(uv, gp)
    gpf = nonlin.grad_p(uv, gp)
    a_fwd = SpaceTimeField(grid, spec.a.values - g1.values)
    b_fwd = tuple(SpaceTimeField(grid, spec.b[ax].values - g2[ax].values) for ax in range(grid.dim))
    a_adj = SpaceTimeField(grid, spec.a.values - fu)
    b_adj = tuple(SpaceTimeField(grid, spec.b[ax].values - gpf[ax]) for ax in range(grid.dim))
    return spec.with_(a=a_fwd, b=b_fwd, a_adj=a_adj, b_adj=b_adj)


def _z_change_norm(grid, d_values):
    """Discrete norm of (z, grad z) iterate changes."""
    total = q_norm(grid, _interior_levels(grid, d_values)) ** 2
    for g in st_gradient(grid, d_values):
        total += q_norm(grid, _interior_levels(grid, g)) ** 2
    return math.sqrt(total)


def _picard_change(grid, z, w):
    """(change, scale) of a Picard step z -> w, both in the (z, grad z) norm."""
    scale = max(_z_change_norm(grid, z.values), _z_change_norm(grid, w.values), TINY)
    return _z_change_norm(grid, w.values - z.values), scale


def _interior_levels(grid, values):
    sl = (slice(None),) + grid.interior_slices()
    return values[sl].reshape(grid.nt + 1, -1)


@dataclass
class QuasiEquilibrium:
    u: SpaceTimeField
    phi1: SpaceTimeField
    phi2: SpaceTimeField
    v1: SpaceTimeField
    v2: SpaceTimeField
    outer_iterations: int
    history: list

    @property
    def phis(self):
        return (self.phi1, self.phi2)

    @property
    def controls(self):
        return (self.v1, self.v2)


def solve_quasi_equilibrium(spec: ProblemSpec, nonlin: Nonlinearity, f=None,
                            tol=1e-10, inner_tol=1e-12) -> QuasiEquilibrium:
    """Outer Picard on the frozen-z optimality system.

    Each sweep solves the linear system with secant coefficients at z and
    the constant remainder F(0,0); convergence is measured in the discrete
    (z, grad z) norm.
    """
    grid = spec.grid
    f00 = float(nonlin.f(np.zeros(1), tuple(np.zeros(1) for _ in range(grid.dim)))[0])
    extra = np.full((grid.nt + 1, grid.n_interior), f00) if f00 != 0.0 else None

    def sweep(state):
        z = state[0]
        frozen = _frozen_spec(spec, nonlin, z, base=None)
        sol = solve_nash_fixed_point(frozen, f, tol_rel=inner_tol, extra_source=extra)
        return (sol.w, sol), *_picard_change(grid, z, sol.w)

    (_, sol), it, history = iterate(sweep, (SpaceTimeField.zeros(grid),), tol, 50,
                                    "quasi-equilibrium Picard")
    return QuasiEquilibrium(
        u=sol.w, phi1=sol.phi1, phi2=sol.phi2, v1=sol.v1, v2=sol.v2,
        outer_iterations=it, history=history)


def quasi_equilibrium_residual(spec: ProblemSpec, nonlin: Nonlinearity, f, qe: QuasiEquilibrium):
    """Plug-back residual of the stepped semilinear optimality system.

    The state rows use the true nonlinearity at the converged iterate; the
    adjoint rows use the tangent coefficients there.  Relative to the
    solution scale.
    """
    grid = spec.grid
    U = qe.u.interior()
    uv = qe.u.values
    gp = st_gradient(grid, uv)
    Fv = nonlin.f(uv, gp)
    F_int = _interior_levels(grid, Fv)
    src = control_sources(spec, f=f)
    for i in range(2):
        src = src + qe.controls[i].interior() * spec.follower_masks[i].interior_vector()
    res = 0.0
    for j in range(1, grid.nt + 1):
        M = spec.stepper.step_matrix(j, "forward")
        r = M @ U[j] - U[j - 1] - grid.dt * (src[j] + F_int[j])
        res += grid.dt * grid.hd * float(np.dot(r, r))
    res_state = math.sqrt(res)
    tg = _frozen_spec(spec, nonlin, SpaceTimeField(grid, uv), base=None).stepper
    res_adj = 0.0
    for i in range(2):
        P = qe.phis[i].interior()
        chid = spec.target_masks[i].interior_vector()
        wd = spec.targets[i].interior()
        for j in range(1, grid.nt + 1):
            A = tg.step_matrix(j, "adjoint").T
            rhs = (P[j] if j < grid.nt else np.zeros_like(P[0])) + grid.dt * spec.alpha[i] * chid * (U[j] - wd[j])
            r = A @ P[j - 1] - rhs
            res_adj += grid.dt * grid.hd * float(np.dot(r, r))
    res_adj = math.sqrt(res_adj)
    scale = max(q_norm(grid, U), 1.0)
    return res_state / scale, res_adj / scale


def solve_free_trajectory(spec: ProblemSpec, nonlin: Nonlinearity, ubar0, max_iter=60) -> SpaceTimeField:
    """Uncontrolled semilinear trajectory by secant-coefficient Picard."""
    grid = spec.grid
    f00 = float(nonlin.f(np.zeros(1), tuple(np.zeros(1) for _ in range(grid.dim)))[0])
    ubar0_int = grid.to_interior(np.asarray(ubar0, dtype=float))
    src = np.full((grid.nt + 1, grid.n_interior), f00) if f00 != 0.0 else None

    def sweep(z):
        st = _frozen_spec(spec, nonlin, z, base=None).stepper
        u = SpaceTimeField.from_interior(grid, st.march_forward(ubar0_int, src))
        return u, *_picard_change(grid, z, u)

    u, _, _ = iterate(sweep, SpaceTimeField.zeros(grid), 1e-12, max_iter, "free trajectory Picard")
    return u


@dataclass
class SemilinearControlResult:
    hum: HumResult
    f: SpaceTimeField
    u: SpaceTimeField
    ubar: SpaceTimeField
    w: SpaceTimeField
    terminal_mismatch: float
    outer_iterations: int
    history: list
    target_check: list = None
    cg_residuals: list = None  # per outer iteration, that iteration's HumResult.cg_residuals
    cg_iterations: int = 0  # summed over outer iterations, refinements included


def semilinear_null_control(spec: ProblemSpec, nonlin: Nonlinearity, ubar0, eps,
                            outer_tol=1e-8, max_outer=30, cg_tol=1e-9, cg_max_iter=300,
                            log_theta=None) -> SemilinearControlResult:
    """Exact controllability to the free semilinear trajectory.

    Outer loop: freeze z, build the linear spec with secant state
    coefficients and tangent adjoint coefficients around the trajectory,
    run the penalized HUM solver, update z with the controlled state.  From
    the second iteration on, the HUM solve starts from the previous psi0:
    the frozen coefficients move little between iterations.
    spec.w0 holds the absolute initial state u0 and spec.targets the
    absolute targets zeta_id.
    """
    grid = spec.grid
    spec.require_controllability_geometry()
    ubar = solve_free_trajectory(spec, nonlin, ubar0)
    w0 = spec.w0 - np.asarray(ubar0, dtype=float)
    wtargets = tuple(t - ubar for t in spec.targets)
    base_wspec = spec.with_(w0=w0, targets=wtargets)
    target_check = None
    if log_theta is not None:
        target_check = check_target_condition(base_wspec, log_theta)
    hums = []

    def sweep(state):
        z, previous = state
        frozen = _frozen_spec(base_wspec, nonlin, z, base=ubar)
        hum = minimize_G(frozen, eps, cg_tol=cg_tol, max_iter=cg_max_iter,
                         psi0=None if previous is None else previous.psi0)
        hums.append(hum)
        return (hum.nash.w, hum), *_picard_change(grid, z, hum.nash.w)

    (z, hum), _, history = iterate(sweep, (SpaceTimeField.zeros(grid), None), outer_tol, max_outer,
                                   "semilinear outer loop", diverged=OuterDivergence)
    u = SpaceTimeField(grid, z.values + ubar.values)
    return SemilinearControlResult(
        hum=hum, f=hum.f, u=u, ubar=ubar, w=z,
        terminal_mismatch=hum.terminal_norm,
        outer_iterations=len(history), history=history,
        target_check=target_check, cg_residuals=[h.cg_residuals for h in hums],
        cg_iterations=sum(h.cg_iterations for h in hums))


def _tangent_stepper(spec: ProblemSpec, nonlin: Nonlinearity, equilibrium) -> TimeStepper:
    """Stepper of the equation linearized at the equilibrium state."""
    grid = spec.grid
    uv = equilibrium.u.values
    gu = st_gradient(grid, uv)
    fu = nonlin.f_u(uv, gu)
    gpf = nonlin.grad_p(uv, gu)
    return spec.with_(
        a=SpaceTimeField(grid, spec.a.values - fu),
        b=tuple(SpaceTimeField(grid, spec.b[ax].values - gpf[ax]) for ax in range(grid.dim)),
        a_adj=None, b_adj=None,
    ).stepper


def second_order_form(spec: ProblemSpec, nonlin: Nonlinearity, equilibrium,
                      i, direction: SpaceTimeField, stepper=None) -> float:
    """Quadratic form of follower i's cost at the equilibrium.

    Solves the tangent state h driven by the direction, then the backward
    companion eta with the second-derivative sources, and returns
    int int_Oi direction*eta + mu_i ||direction||^2.  stepper, when given,
    is the tangent stepper of this spec and equilibrium (_tangent_stepper),
    which every direction shares.
    """
    if not nonlin.has_second_order:
        raise UnsupportedNonlinearity(
            "second-order checker needs analytic second derivatives; "
            "expression-based nonlinearities are first-order only")
    grid = spec.grid
    uv = equilibrium.u.values
    gu = st_gradient(grid, uv)
    st = stepper or _tangent_stepper(spec, nonlin, equilibrium)
    chi = spec.follower_masks[i].interior_vector()
    src = direction.interior() * chi
    H = st.march_forward(np.zeros(grid.n_interior), src)
    h_field = SpaceTimeField.from_interior(grid, H)
    hv = h_field.values
    gh = st_gradient(grid, hv)
    phiv = equilibrium.phis[i].values
    # multiplier of step j is stored at level j-1; align it with state level j
    phi_at = np.zeros_like(phiv)
    phi_at[1:] = phiv[:-1]
    fuu = nonlin.f_uu(uv, gu)
    gpfu = nonlin.grad_p_f_u(uv, gu)
    hpp = nonlin.hess_p(uv, gu)
    src_eta = fuu * phi_at * hv
    for ax in range(grid.dim):
        src_eta = src_eta + gpfu[ax] * gh[ax] * phi_at
    vec = []
    for ax in range(grid.dim):
        comp = gpfu[ax] * hv * phi_at
        for bx in range(grid.dim):
            comp = comp + hpp[ax][bx] * gh[bx] * phi_at
        vec.append(comp)
    src_eta = src_eta - st_divergence(grid, tuple(vec))
    chid_full = spec.target_masks[i].indicator.astype(float)
    src_eta = src_eta + spec.alpha[i] * chid_full * hv
    src_int = _interior_levels(grid, src_eta)
    E = st.march_backward(np.zeros(grid.n_interior), src_int, family="adjoint")
    d_int = direction.interior()
    cross = grid.dt * grid.hd * float(np.sum((d_int[1:] * chi) * E[:-1]))
    norm2 = q_norm(grid, d_int * chi) ** 2
    return cross + spec.mu[i] * norm2


@dataclass
class SufficiencyReport:
    min_form: tuple
    c_hat: tuple
    all_positive: bool
    n_directions: int
    dimension_in_analysis_range: bool
    forms: tuple = ((), ())


def verify_equilibrium_sufficiency(spec: ProblemSpec, nonlin: Nonlinearity, equilibrium,
                                   n_directions=20, seed=0) -> SufficiencyReport:
    """Sample random unit control directions and evaluate the quadratic form.

    Positive sampled forms back the equilibrium/quasi-equilibrium
    equivalence; c_hat_i = min (form - mu_i ||w||^2)/||w||^2 stands in for
    the nonconstructive coupling constant.  1D runs are flagged as outside
    the dimension range (2..20) the second-order equivalence analysis
    assumes.
    """
    grid = spec.grid
    rng = np.random.default_rng(seed)
    mins, chats, all_forms = [], [], []
    positive = True
    stepper = None
    for i in range(2):
        chi = spec.follower_masks[i].interior_vector()
        forms = []
        for _ in range(n_directions):
            d = rng.standard_normal((grid.nt + 1, grid.n_interior)) * chi
            d[0] = 0.0
            nrm = q_norm(grid, d)
            if nrm == 0.0:
                continue
            d /= nrm
            direction = SpaceTimeField.from_interior(grid, d)
            stepper = stepper or _tangent_stepper(spec, nonlin, equilibrium)
            forms.append(second_order_form(spec, nonlin, equilibrium, i, direction, stepper=stepper))
        all_forms.append(tuple(forms))
        if forms:
            mins.append(min(forms))
            chats.append(min(forms) - spec.mu[i])
            positive = positive and all(v > 0 for v in forms)
        else:
            mins.append(math.nan)
            chats.append(math.nan)
    return SufficiencyReport(
        min_form=tuple(mins),
        c_hat=tuple(chats),
        all_positive=positive if n_directions > 0 else True,
        n_directions=n_directions,
        dimension_in_analysis_range=grid.dim >= 2,
        forms=tuple(all_forms),
    )
