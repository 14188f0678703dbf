import numpy as np
import pytest

import hierctrl.nash as nash
from hierctrl.errors import ContractionFailure, MaxIterations, TooLarge
from hierctrl.hum import dense_oracle
from hierctrl.nash import cost_followers, q_norm, solve_nash_fixed_point, verify_first_order
from hierctrl.operators import TimeStepper, control_sources

from conftest import leader_bump, make_nash_spec
from oracles import (apply_A, apply_response, apply_response_adjoint, compute_rhs, solve_forward, state_sources,
                     step_matrix)


def _random_control(spec, rng, i):
    g = spec.grid
    arr = rng.standard_normal((g.nt + 1, g.n_interior)) * spec.follower_masks[i].interior_vector()
    arr[0] = 0.0
    return arr


def test_response_zero_input(nash_spec):
    g = nash_spec.grid
    w = apply_response(nash_spec, 0, np.zeros((g.nt + 1, g.n_interior)))
    assert np.all(w == 0.0)


def test_response_linearity(nash_spec, rng):
    v1 = _random_control(nash_spec, rng, 0)
    v2 = _random_control(nash_spec, rng, 0)
    a, b = 1.7, -0.45
    combo = a * v1 + b * v2
    lhs = apply_response(nash_spec, 0, combo)
    rhs = a * apply_response(nash_spec, 0, v1) + \
        b * apply_response(nash_spec, 0, v2)
    scale = max(np.abs(rhs).max(), 1e-300)
    assert np.abs(lhs - rhs).max() <= 1e-12 * scale


def test_response_adjoint_consistency(nash_spec, rng):
    g = nash_spec.grid
    for i in range(2):
        v = _random_control(nash_spec, rng, i)
        garr = rng.standard_normal((g.nt + 1, g.n_interior))
        w = apply_response(nash_spec, i, v)
        adj = apply_response_adjoint(nash_spec, i, garr)
        lhs = g.dt * g.hd * float(np.sum(w[1:] * garr[1:]))
        rhs = g.dt * g.hd * float(np.sum(v[1:] * adj[1:]))
        assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs), 1e-300)


def test_apply_A_collapses_without_observation(rng):
    spec = make_nash_spec(alpha=0.0)
    v1 = _random_control(spec, rng, 0)
    v2 = _random_control(spec, rng, 1)
    r1, r2 = apply_A(spec, v1, v2)
    assert np.allclose(r1, spec.mu[0] * v1)
    assert np.allclose(r2, spec.mu[1] * v2)


def test_apply_A_zero_controls(nash_spec):
    g = nash_spec.grid
    z = np.zeros((g.nt + 1, g.n_interior))
    r1, r2 = apply_A(nash_spec, z, z)
    assert np.all(r1 == 0.0) and np.all(r2 == 0.0)


def test_apply_A_coercivity_sample(nash_spec, rng):
    """<A(v), v> >= (1/4) min(mu) ||v||^2 on the margin-positive spec."""
    g = nash_spec.grid
    bound = 0.25 * min(nash_spec.mu)
    for _ in range(20):
        v1 = _random_control(nash_spec, rng, 0)
        v2 = _random_control(nash_spec, rng, 1)
        r1, r2 = apply_A(nash_spec, v1, v2)
        inner = g.dt * g.hd * (float(np.sum(r1[1:] * v1[1:]))
                               + float(np.sum(r2[1:] * v2[1:])))
        norm2 = q_norm(g, v1) ** 2 + q_norm(g, v2) ** 2
        assert inner >= bound * norm2


def test_fixed_point_zero_data_single_sweep():
    spec = make_nash_spec(with_targets=False).with_(w0=np.zeros((10,)))
    sol = solve_nash_fixed_point(spec)
    assert sol.iterations == 1
    for arr in (sol.w, *sol.phis, *sol.controls):
        assert np.all(arr == 0.0)


def test_fixed_point_matches_dense_oracle(nash_spec):
    f = leader_bump(nash_spec.grid)
    sol = solve_nash_fixed_point(nash_spec, f, tol_rel=1e-12)
    oracle, _ = dense_oracle(nash_spec, f)
    g = nash_spec.grid
    num = q_norm(g, sol.w - oracle.w)
    den = max(q_norm(g, oracle.w), 1e-300)
    assert num / den <= 1e-8
    for a, b in zip(sol.controls, oracle.controls):
        nd = q_norm(g, a - b)
        assert nd <= 1e-8 * max(q_norm(g, b), 1e-300)


def test_error_bound_stop_matches_oracle_at_larger_rho(nash_spec):
    """At alpha = 1 the sweep contracts by rho of about 0.127, three decades
    above the shipped weights: the solve stopped by Banach's bound still
    matches the direct solve to its tolerance."""
    spec = nash_spec.with_(alpha=(1.0, 1.0))
    f = leader_bump(spec.grid)
    sol = solve_nash_fixed_point(spec, f, tol_rel=1e-12)
    assert 0.1 < sol.contraction_estimate < 0.15
    oracle, _ = dense_oracle(spec, f)
    g = spec.grid
    assert q_norm(g, sol.w - oracle.w) <= 1e-12 * q_norm(g, oracle.w)
    assert np.isnan(oracle.contraction_estimate)


def test_oracle_zero_data():
    spec = make_nash_spec(with_targets=False).with_(w0=np.zeros((10,)))
    oracle, _ = dense_oracle(spec)
    assert np.all(oracle.w == 0.0)


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
    W = oracle.w
    src = control_sources(nash_spec, f=f)
    for i in range(2):
        src = src + oracle.controls[i] * nash_spec.follower_masks[i].interior_vector()
    res = 0.0
    for j in range(1, g.nt + 1):
        r = step_matrix(st, j, "forward") @ W[j] - W[j - 1] - g.dt * src[j]
        res = max(res, np.abs(r).max())
    for i in range(2):
        P = oracle.phis[i]
        chid = nash_spec.target_masks[i].interior_vector()
        wd = nash_spec.targets[i]
        for j in range(1, g.nt + 1):
            rhs = (P[j] if j < g.nt else np.zeros_like(P[0])) \
                + g.dt * nash_spec.alpha[i] * chid * (W[j] - wd[j])
            r = step_matrix(st, j, "adjoint").T @ P[j - 1] - rhs
            res = max(res, np.abs(r).max())
    assert res <= 1e-10


def test_control_relation_exact(nash_spec):
    """v_i at level j is -phi_i/mu_i at the step-j multiplier, bitwise."""
    f = leader_bump(nash_spec.grid)
    sol = solve_nash_fixed_point(nash_spec, f)
    for i, (v, phi) in enumerate(zip(sol.controls, sol.phis)):
        chi = nash_spec.follower_masks[i].interior_vector()
        expected = -(phi[:-1] * chi) / nash_spec.mu[i]
        assert np.array_equal(v[1:], expected)
        assert np.all(v[0] == 0.0)


def test_first_order_residuals(nash_spec):
    f = leader_bump(nash_spec.grid)
    oracle, _ = dense_oracle(nash_spec, f)
    r1, r2 = verify_first_order(nash_spec, oracle)
    assert r1 <= 1e-8 and r2 <= 1e-8


def test_first_order_detects_perturbation(nash_spec):
    f = leader_bump(nash_spec.grid)
    sol = solve_nash_fixed_point(nash_spec, f)
    bumped = sol.controls[0] * 1.1
    class _Fake:
        w = sol.w
        controls = (bumped, sol.controls[1])
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
    base = cost_followers(nash_spec, sol.w, sol.controls)
    for i in range(2):
        vn = q_norm(g, sol.controls[i])
        for _ in range(20):
            delta = rng.standard_normal((g.nt + 1, g.n_interior))
            delta *= nash_spec.follower_masks[i].interior_vector()
            delta[0] = 0.0
            delta *= (1e-3 * vn + 1e-6) / q_norm(g, delta)
            vi = sol.controls[i] + delta
            pair = (vi, sol.controls[1]) if i == 0 else (sol.controls[0], vi)
            perturbed = cost_followers(nash_spec, solve_forward(nash_spec, f, *pair), pair)
            assert perturbed[i] >= base[i] - 1e-15 * max(base[i], 1.0)


def test_compute_rhs_matches_equilibrium_equation(nash_spec):
    """The converged controls satisfy A(v1, v2) = B."""
    f = leader_bump(nash_spec.grid)
    sol = solve_nash_fixed_point(nash_spec, f, tol_rel=1e-13)
    r1, r2 = apply_A(nash_spec, *sol.controls)
    b1, b2 = compute_rhs(nash_spec, f)
    g = nash_spec.grid
    for r, b in ((r1, b1), (r2, b2)):
        gap = q_norm(g, r - b)
        assert gap <= 1e-9 * max(q_norm(g, b), 1e-300)


def test_history_recorded(nash_spec):
    """Every sweep hands on_sweep its change, a finite number."""
    f = leader_bump(nash_spec.grid)
    history = []
    sol = solve_nash_fixed_point(nash_spec, f, on_sweep=lambda it, W, vs, change: history.append(change))
    assert len(history) == sol.iterations
    assert all(np.isfinite(h) for h in history)


def _count_marches(monkeypatch):
    """Wrap both TimeStepper marches with a shared recorder of
    (march name, column count k), in call order."""
    calls = []
    for name in ("march_forward", "march_backward"):
        original = getattr(TimeStepper, name)

        def counted(self, datum, sources=None, *args, _original=original, _name=name, **kwargs):
            if np.ndim(sources) == 3:
                k = np.shape(sources)[0]
            else:
                k = np.shape(datum)[0] if np.ndim(datum) == 2 else 1
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
    assert np.array_equal(sol.phis[0], sol.phis[1])


@pytest.mark.parametrize("change", ["alpha", "targets"])
def test_distinct_target_terms_march_two_adjoint_columns(nash_spec, change, monkeypatch):
    """Different alpha_i, or different targets, keep one adjoint column per
    follower, and the fixed point still matches the oracle."""
    wd = nash_spec.targets[0]
    half = 0.5 * wd
    kw = {"alpha": (1e-3, 2.5e-3)} if change == "alpha" else {"targets": (wd, half)}
    spec = nash_spec.with_(**kw)
    f = leader_bump(spec.grid)
    calls = _count_marches(monkeypatch)
    sol = solve_nash_fixed_point(spec, f, tol_rel=1e-12)
    assert calls == [("march_backward", 2), ("march_forward", 1)] * sol.iterations
    monkeypatch.undo()
    oracle, _ = dense_oracle(spec, f)
    g = spec.grid
    for a, b in zip((sol.w, *sol.phis, *sol.controls), (oracle.w, *oracle.phis, *oracle.controls)):
        assert q_norm(g, a - b) <= 1e-8 * max(q_norm(g, b), 1e-300)
    assert q_norm(g, sol.phis[0] - sol.phis[1]) > 1e-3 * q_norm(g, sol.phis[0])


def _distinct_spec(nash_spec, change):
    wd = nash_spec.targets[0]
    half = 0.5 * wd
    return nash_spec.with_(**{"alpha": (1e-3, 2.5e-3)} if change == "alpha" else {"targets": (wd, half)})


def test_shared_checks_march_one_adjoint_column(nash_spec, monkeypatch):
    """In the shared case verify_first_order and compute_rhs march one
    response-adjoint column for both followers; by the column contract
    their outputs are byte-identical to two equal columns."""
    f = leader_bump(nash_spec.grid)
    sol = solve_nash_fixed_point(nash_spec, f)
    calls = _count_marches(monkeypatch)
    residuals, rhs = verify_first_order(nash_spec, sol), compute_rhs(nash_spec, f)
    assert calls == [("march_backward", 1), ("march_forward", 1), ("march_backward", 1)]
    monkeypatch.setattr(nash, "_distinct_targets", lambda spec: list(zip(spec.targets, spec.target_masks)))
    del calls[:]
    assert verify_first_order(nash_spec, sol) == residuals
    two = compute_rhs(nash_spec, f)
    assert calls == [("march_backward", 2), ("march_forward", 1), ("march_backward", 2)]
    assert all(np.array_equal(a, b) for a, b in zip(rhs, two))


@pytest.mark.parametrize("change", ["alpha", "targets"])
def test_distinct_checks_march_two_adjoint_columns(nash_spec, change, monkeypatch):
    spec = _distinct_spec(nash_spec, change)
    sol = solve_nash_fixed_point(spec, leader_bump(spec.grid))
    calls = _count_marches(monkeypatch)
    verify_first_order(spec, sol)
    assert calls == [("march_backward", 2)]


def _count_control_builds(monkeypatch):
    calls = []
    original = nash._controls_from_adjoints

    def counted(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(nash, "_controls_from_adjoints", counted)
    return calls


def test_nash_solve_forms_controls_once(nash_spec, monkeypatch):
    """The sweeps march with the fused source and form v_i only when the
    solution's controls are first read, or every sweep when on_sweep reads
    them; later reads form nothing."""
    f = leader_bump(nash_spec.grid)
    calls = _count_control_builds(monkeypatch)
    sol = solve_nash_fixed_point(nash_spec, f)
    assert sol.iterations > 2 and len(calls) == 0
    controls = sol.controls
    assert sol.controls is controls and len(calls) == 1
    del calls[:]
    seen = solve_nash_fixed_point(nash_spec, f, on_sweep=lambda *args: None)
    assert len(calls) == seen.iterations
    assert all(np.array_equal(a, b) for a, b in zip(sol.controls, seen.controls))
    assert len(calls) == seen.iterations + 1


@pytest.mark.parametrize("case", ["shared", "alpha"])
def test_controls_read_after_solve_are_formed_from_adjoints(nash_spec, case):
    """The controls, read after a fixed-point or an oracle solve, are bit for
    bit _controls_from_adjoints of the solution's adjoints."""
    spec = nash_spec if case == "shared" else _distinct_spec(nash_spec, case)
    f = leader_bump(spec.grid)
    for sol in (solve_nash_fixed_point(spec, f), dense_oracle(spec, f)[0]):
        ref = nash._controls_from_adjoints(spec.follower_masks, spec.mu, [sol.phis[0].copy(), sol.phis[1].copy()])
        assert all(np.array_equal(v, r) for v, r in zip(sol.controls, ref))


@pytest.mark.parametrize("case", ["shared", "alpha", "targets"])
def test_fused_state_source_matches_follower_controls(nash_spec, case, monkeypatch):
    """f - sum_c shift(phi_c) weights_c, the source each sweep's state
    march reads, is f + chi_1 v_1 + chi_2 v_2 to rounding, with the v_i
    formed from the adjoints of that sweep."""
    spec = nash_spec if case == "shared" else _distinct_spec(nash_spec, case)
    sources = []
    stepper = spec.stepper
    original = stepper.march_forward

    def recorded(datum, src=None, *args, **kwargs):
        sources.append(np.array(src))
        return original(datum, src, *args, **kwargs)

    monkeypatch.setattr(stepper, "march_forward", recorded)
    f = leader_bump(spec.grid)
    sol = solve_nash_fixed_point(spec, f)
    monkeypatch.undo()
    ref = state_sources(spec, f, *sol.controls)
    assert len(sources) == sol.iterations
    coords = stepper.coordinates()
    fed = sources[-1][1:]
    if coords.modal:  # the march read the band right-hand sides dt diag(w) Q' s^j, at columns 1..nt
        fed = np.linalg.solve(coords.source_transform, sources[-1][:, 1:]).T
    assert np.abs(fed - ref[1:]).max() <= 1e-14 * np.abs(ref).max()
