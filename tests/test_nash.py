import numpy as np
import pytest

from hierctrl.errors import ContractionFailure, MaxIterations, TooLarge
from hierctrl.hum import dense_oracle
from hierctrl.mesh import SpaceTimeField
from hierctrl.nash import (apply_A, apply_response, apply_response_adjoint, compute_rhs,
                           cost_followers, q_norm,
                           solve_nash_fixed_point, verify_first_order)
from hierctrl.operators import TimeStepper

from conftest import leader_bump, make_nash_spec


def _ctrl_field(spec, rng, i):
    g = spec.grid
    arr = rng.standard_normal((g.nt + 1, g.n_interior)) * spec.follower_masks[i].interior_vector()
    arr[0] = 0.0
    return SpaceTimeField.from_interior(g, arr)


def test_response_zero_input(nash_spec):
    g = nash_spec.grid
    w = apply_response(nash_spec, 0, SpaceTimeField.zeros(g))
    assert np.all(w.values == 0.0)


def test_response_linearity(nash_spec, rng):
    v1 = _ctrl_field(nash_spec, rng, 0)
    v2 = _ctrl_field(nash_spec, rng, 0)
    a, b = 1.7, -0.45
    combo = SpaceTimeField(nash_spec.grid, a * v1.values + b * v2.values)
    lhs = apply_response(nash_spec, 0, combo).values
    rhs = a * apply_response(nash_spec, 0, v1).values + \
        b * apply_response(nash_spec, 0, v2).values
    scale = max(np.abs(rhs).max(), 1e-300)
    assert np.abs(lhs - rhs).max() <= 1e-12 * scale


def test_response_adjoint_consistency(nash_spec, rng):
    g = nash_spec.grid
    for i in range(2):
        v = _ctrl_field(nash_spec, rng, i)
        gfield = SpaceTimeField.from_interior(g, rng.standard_normal((g.nt + 1, g.n_interior)))
        w = apply_response(nash_spec, i, v)
        adj = apply_response_adjoint(nash_spec, i, gfield)
        lhs = g.dt * g.hd * float(np.sum(w.interior()[1:] * gfield.interior()[1:]))
        rhs = g.dt * g.hd * float(np.sum(v.interior()[1:] * adj.interior()[1:]))
        assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs), 1e-300)


def test_apply_A_collapses_without_observation(rng):
    spec = make_nash_spec(alpha=0.0)
    v1 = _ctrl_field(spec, rng, 0)
    v2 = _ctrl_field(spec, rng, 1)
    r1, r2 = apply_A(spec, v1, v2)
    assert np.allclose(r1.values, spec.mu[0] * v1.values)
    assert np.allclose(r2.values, spec.mu[1] * v2.values)


def test_apply_A_zero_controls(nash_spec):
    g = nash_spec.grid
    z = SpaceTimeField.zeros(g)
    r1, r2 = apply_A(nash_spec, z, z)
    assert np.all(r1.values == 0.0) and np.all(r2.values == 0.0)


def test_apply_A_coercivity_sample(nash_spec, rng):
    """<A(v), v> >= (1/4) min(mu) ||v||^2 on the margin-positive spec."""
    g = nash_spec.grid
    bound = 0.25 * min(nash_spec.mu)
    for _ in range(20):
        v1 = _ctrl_field(nash_spec, rng, 0)
        v2 = _ctrl_field(nash_spec, rng, 1)
        r1, r2 = apply_A(nash_spec, v1, v2)
        inner = g.dt * g.hd * (float(np.sum(r1.interior()[1:] * v1.interior()[1:]))
                               + float(np.sum(r2.interior()[1:] * v2.interior()[1:])))
        norm2 = q_norm(g, v1.interior()) ** 2 + q_norm(g, v2.interior()) ** 2
        assert inner >= bound * norm2


def test_fixed_point_zero_data_single_sweep():
    spec = make_nash_spec(with_targets=False).with_(w0=np.zeros((12,)))
    sol = solve_nash_fixed_point(spec)
    assert sol.iterations == 1
    for field in (sol.w, sol.phi1, sol.phi2, sol.v1, sol.v2):
        assert np.all(field.values == 0.0)


def test_fixed_point_matches_dense_oracle(nash_spec):
    f = leader_bump(nash_spec.grid)
    sol = solve_nash_fixed_point(nash_spec, f, tol_rel=1e-12)
    oracle, _ = dense_oracle(nash_spec, f)
    g = nash_spec.grid
    num = q_norm(g, sol.w.interior() - oracle.w.interior())
    den = max(q_norm(g, oracle.w.interior()), 1e-300)
    assert num / den <= 1e-8
    for a, b in zip(sol.controls, oracle.controls):
        nd = q_norm(g, a.interior() - b.interior())
        assert nd <= 1e-8 * max(q_norm(g, b.interior()), 1e-300)


def test_oracle_zero_data():
    spec = make_nash_spec(with_targets=False).with_(w0=np.zeros((12,)))
    oracle, _ = dense_oracle(spec)
    assert np.all(oracle.w.values == 0.0)


def test_oracle_size_guard():
    spec = make_nash_spec(nx=130, nt=60)  # 3 * 60 * 128 = 23040 stacked unknowns
    with pytest.raises(TooLarge):
        dense_oracle(spec)


def test_oracle_plugback_residual(nash_spec):
    """The stacked solution satisfies the stepped optimality equations."""
    f = leader_bump(nash_spec.grid)
    oracle, _ = dense_oracle(nash_spec, f)
    g = nash_spec.grid
    st = nash_spec.stepper
    W = oracle.w.interior()
    from hierctrl.operators import control_sources

    src = control_sources(nash_spec, f=f)
    for i in range(2):
        src = src + oracle.controls[i].interior() * nash_spec.follower_masks[i].interior_vector()
    res = 0.0
    for j in range(1, g.nt + 1):
        r = st.step_matrix(j, "forward") @ W[j] - W[j - 1] - g.dt * src[j]
        res = max(res, np.abs(r).max())
    for i in range(2):
        P = oracle.phis[i].interior()
        chid = nash_spec.target_masks[i].interior_vector()
        wd = nash_spec.targets[i].interior()
        for j in range(1, g.nt + 1):
            rhs = (P[j] if j < g.nt else np.zeros_like(P[0])) \
                + g.dt * nash_spec.alpha[i] * chid * (W[j] - wd[j])
            r = st.step_matrix(j, "adjoint").T @ P[j - 1] - rhs
            res = max(res, np.abs(r).max())
    assert res <= 1e-10


def test_control_relation_exact(nash_spec):
    """v_i at level j is -phi_i/mu_i at the step-j multiplier, bitwise."""
    f = leader_bump(nash_spec.grid)
    sol = solve_nash_fixed_point(nash_spec, f)
    for i, (v, phi) in enumerate(zip(sol.controls, sol.phis)):
        chi = nash_spec.follower_masks[i].interior_vector()
        expected = -(phi.interior()[:-1] * chi) / nash_spec.mu[i]
        assert np.array_equal(v.interior()[1:], expected)
        assert np.all(v.interior()[0] == 0.0)


def test_first_order_residuals(nash_spec):
    f = leader_bump(nash_spec.grid)
    oracle, _ = dense_oracle(nash_spec, f)
    r1, r2 = verify_first_order(nash_spec, oracle)
    assert r1 <= 1e-8 and r2 <= 1e-8


def test_first_order_detects_perturbation(nash_spec):
    f = leader_bump(nash_spec.grid)
    sol = solve_nash_fixed_point(nash_spec, f)
    bumped = SpaceTimeField(nash_spec.grid, sol.v1.values * 1.1)
    class _Fake:
        w = sol.w
        controls = (bumped, sol.v2)
    r1, _ = verify_first_order(nash_spec, _Fake())
    assert r1 > 1e-3


def test_first_order_zero_observation():
    spec = make_nash_spec(alpha=0.0, with_targets=False)
    sol = solve_nash_fixed_point(spec, None)
    r1, r2 = verify_first_order(spec, sol)
    assert r1 == 0.0 and r2 == 0.0


def test_divergence_detected_not_hang(nash_spec):
    inflated = nash_spec.with_(alpha=(10.0, 10.0))
    with pytest.raises(ContractionFailure) as err:
        solve_nash_fixed_point(inflated, tol_rel=1e-12, max_iter=500)
    assert err.value.ratio > 1.0


def test_max_iterations_carries_last_iterate(nash_spec):
    with pytest.raises(MaxIterations) as err:
        solve_nash_fixed_point(nash_spec, leader_bump(nash_spec.grid), max_iter=1)
    assert err.value.iterations == 1
    assert err.value.best is not None
    assert len(err.value.history) == 1


def test_cost_descent_at_equilibrium(nash_spec, rng):
    """J_i does not decrease under unilateral perturbations of follower i."""
    f = leader_bump(nash_spec.grid)
    sol = solve_nash_fixed_point(nash_spec, f, tol_rel=1e-13)
    g = nash_spec.grid
    base = cost_followers(nash_spec, f, sol.v1, sol.v2, w=sol.w)
    for i in range(2):
        vn = q_norm(g, sol.controls[i].interior())
        for _ in range(20):
            delta = rng.standard_normal((g.nt + 1, g.n_interior))
            delta *= nash_spec.follower_masks[i].interior_vector()
            delta[0] = 0.0
            delta *= (1e-3 * vn + 1e-6) / q_norm(g, delta)
            vi = SpaceTimeField.from_interior(g, sol.controls[i].interior() + delta)
            pair = (vi, sol.v2) if i == 0 else (sol.v1, vi)
            perturbed = cost_followers(nash_spec, f, pair[0], pair[1])
            assert perturbed[i] >= base[i] - 1e-15 * max(base[i], 1.0)


def test_compute_rhs_matches_equilibrium_equation(nash_spec):
    """The converged controls satisfy A(v1, v2) = B."""
    f = leader_bump(nash_spec.grid)
    sol = solve_nash_fixed_point(nash_spec, f, tol_rel=1e-13)
    r1, r2 = apply_A(nash_spec, sol.v1, sol.v2)
    b1, b2 = compute_rhs(nash_spec, f)
    g = nash_spec.grid
    for r, b in ((r1, b1), (r2, b2)):
        gap = q_norm(g, r.interior() - b.interior())
        assert gap <= 1e-9 * max(q_norm(g, b.interior()), 1e-300)


def test_history_recorded(nash_spec):
    f = leader_bump(nash_spec.grid)
    sol = solve_nash_fixed_point(nash_spec, f)
    assert len(sol.history) == sol.iterations
    assert all(np.isfinite(h) for h in sol.history)


def _count_marches(monkeypatch):
    """Wrap both TimeStepper marches with a shared recorder of
    (march name, column count k), in call order."""
    calls = []
    for name in ("march_forward", "march_backward"):
        original = getattr(TimeStepper, name)

        def counted(self, datum, sources=None, *args, _original=original, _name=name, **kwargs):
            if np.ndim(sources) == 3:
                k = np.shape(sources)[2]
            else:
                k = np.shape(datum)[1] if np.ndim(datum) == 2 else 1
            calls.append((_name, k))
            return _original(self, datum, sources, *args, **kwargs)

        monkeypatch.setattr(TimeStepper, name, counted)
    return calls


def test_nash_sweep_makes_two_marches(nash_spec, monkeypatch):
    """The follower adjoints march in one backward march (one column per
    distinct target term), then the state marches forward: 2 marches per
    sweep, not 3."""
    calls = _count_marches(monkeypatch)
    sol = solve_nash_fixed_point(nash_spec, leader_bump(nash_spec.grid))
    assert sol.iterations > 2
    assert len(calls) == 2 * sol.iterations


def test_shared_nash_sweep_marches_one_adjoint_column(nash_spec, monkeypatch):
    """Equal weights alpha_i chi_di and equal targets make the two follower
    adjoints one equation: each sweep marches it as one column, backward,
    then the state forward, and that column is phi_1 and phi_2 alike."""
    calls = _count_marches(monkeypatch)
    sol = solve_nash_fixed_point(nash_spec, leader_bump(nash_spec.grid))
    assert sol.iterations > 2
    assert calls == [("march_backward", 1), ("march_forward", 1)] * sol.iterations
    assert np.array_equal(sol.phi1.values, sol.phi2.values)


@pytest.mark.parametrize("change", ["alpha", "targets"])
def test_distinct_target_terms_march_two_adjoint_columns(nash_spec, change, monkeypatch):
    """Different alpha_i, or different targets, keep one adjoint column per
    follower, and the fixed point still matches the oracle."""
    wd = nash_spec.targets[0]
    kw = {"alpha": (1e-3, 2.5e-3)} if change == "alpha" else {"targets": (wd, 0.5 * wd)}
    spec = nash_spec.with_(**kw)
    f = leader_bump(spec.grid)
    calls = _count_marches(monkeypatch)
    sol = solve_nash_fixed_point(spec, f, tol_rel=1e-12)
    assert calls == [("march_backward", 2), ("march_forward", 1)] * sol.iterations
    monkeypatch.undo()
    oracle, _ = dense_oracle(spec, f)
    g = spec.grid
    for a, b in zip((sol.w, *sol.phis, *sol.controls), (oracle.w, *oracle.phis, *oracle.controls)):
        assert q_norm(g, a.interior() - b.interior()) <= 1e-8 * max(q_norm(g, b.interior()), 1e-300)
    assert q_norm(g, sol.phi1.interior() - sol.phi2.interior()) > 1e-3 * q_norm(g, sol.phi1.interior())
