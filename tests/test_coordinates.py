"""The inner fixed points in the coordinates each step family marches in.

A modal family marches in its eigenbasis and every other family in
physical space (operators.Coordinates); the Nash and coupled-adjoint sweeps
run in those coordinates and return physical arrays.  Both must match the
direct stacked solves whatever the families are.
"""

import numpy as np
import pytest
from conftest import leader_bump, make_nash_spec
from oracles import apply_lambda

from hierctrl import hum, nash, operators
from hierctrl.hum import dense_oracle, solve_coupled_adjoint
from hierctrl.nash import q_norm, solve_nash_fixed_point

# the module constants that force each representation on the 10-unknown reference grid, and
# whether the spec has a transport term, which keeps its families off the modal and Cholesky paths
FAMILIES = {
    "modal": ({}, False),
    "band": ({"MODAL_MAX_N": 0}, False),
    "lu": ({"MODAL_MAX_N": 0}, True),
}


def _representation(family):
    """The name of the representation a stepper family marches with."""
    if family.modal:
        return "modal"
    return next(name for name in ("cholesky", "lu") if getattr(family, name) is not None)


def _family_spec(family, case, monkeypatch):
    """_spec(case) under the module constants of FAMILIES[family], with a
    constant transport term b = 0.5 where it asks for one (the adjoint
    family of the mixed case then takes it too: b_adj defaults to b)."""
    constants, transport = FAMILIES[family]
    for name, value in constants.items():
        monkeypatch.setattr(operators, name, value)
    spec = _spec(case)
    return spec.with_(b=(np.full_like(spec.a, 0.5),)) if transport else spec


def _spec(case):
    spec = make_nash_spec()
    if case == "alpha":
        return spec.with_(alpha=(1e-3, 2.5e-3))
    if case == "targets":
        return spec.with_(targets=(spec.targets[0], 0.5 * spec.targets[0]))
    if case == "mixed":  # a time-dependent adjoint reaction: its family cannot be modal
        g = spec.grid
        ramp = np.linspace(0.0, 0.5, g.nt + 1)[:, None] * np.ones(g.n_interior)
        return spec.with_(a_adj=ramp)
    return spec


def _rel(grid, a, b):
    return q_norm(grid, a - b) / max(q_norm(grid, b), 1e-300)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("case", ["shared", "alpha", "targets", "mixed"])
def test_fixed_points_match_oracle_in_every_family(family, case, monkeypatch, rng):
    """Nash and coupled-adjoint fixed points against dense_oracle, to 1e-10
    relative, on modal, band Cholesky and band LU families, in the
    shared and distinct cases, and with a modal forward family beside a
    band adjoint one, whose couplings are Q' diag I and I diag Q."""
    spec = _family_spec(family, case, monkeypatch)
    stepper, g = spec.stepper, spec.grid
    assert _representation(stepper.coordinates("forward")) == {"band": "cholesky"}.get(family, family)
    assert stepper.coordinates("forward").modal == (family == "modal")
    assert stepper.coordinates("adjoint").modal == (family == "modal" and case != "mixed")
    f = leader_bump(g)
    psi0 = rng.standard_normal(g.n_interior)
    sol = solve_nash_fixed_point(spec, f, tol_rel=1e-13)
    st = solve_coupled_adjoint(spec, psi0, tol_rel=1e-13)
    nash, coupled = dense_oracle(spec, f, psi0)
    for a, b in zip((sol.w, *sol.phis, *sol.controls), (nash.w, *nash.phis, *nash.controls)):
        assert _rel(g, a, b) <= 1e-10
    for a, b in zip((st.psi, *st.etas), (coupled.psi, *coupled.etas)):
        assert _rel(g, a, b) <= 1e-10
    assert np.array_equal(sol.w[0], spec.w0) and np.array_equal(st.psi[-1], psi0)


def test_damped_nash_converges_to_undamped_on_modal_spec():
    spec = make_nash_spec()
    assert spec.stepper.coordinates().modal
    f = leader_bump(spec.grid)
    plain = solve_nash_fixed_point(spec, f, tol_rel=1e-13)
    damped = solve_nash_fixed_point(spec, f, tol_rel=1e-13, damping=0.6)
    assert damped.iterations > plain.iterations
    for a, b in zip((damped.w, *damped.phis), (plain.w, *plain.phis)):
        assert _rel(spec.grid, a, b) <= 1e-10


def test_extra_source_in_modal_coordinates_matches_physical(monkeypatch):
    """The unmasked state source of the semilinear sweeps is transformed
    with f once per solve: modal and band families give one equilibrium."""
    g = make_nash_spec().grid
    extra = np.full((g.nt + 1, g.n_interior), 0.3)
    f = leader_bump(g)
    modal = solve_nash_fixed_point(make_nash_spec(), f, tol_rel=1e-13, extra_source=extra)
    monkeypatch.setattr(operators, "MODAL_MAX_N", 0)
    dense = solve_nash_fixed_point(make_nash_spec(), f, tol_rel=1e-13, extra_source=extra)
    for a, b in zip((modal.w, *modal.phis), (dense.w, *dense.phis)):
        assert _rel(g, a, b) <= 1e-10


@pytest.mark.parametrize("k", [None, 2])
@pytest.mark.parametrize("backward", [False, True])
def test_modal_march_in_coordinates_is_the_physical_march(backward, k, rng):
    """A march in a modal family's coordinates, transformed back, is the
    physical march: bit for bit forward, where the physical march is that
    march, and to rounding backward, where the physical march mirrors a
    forward one and this one solves the transposed band.  Its datum level
    is the datum's transform.  Column c of a k-column datum, source and
    physical transform is bit for bit the single-column transform."""
    spec = make_nash_spec()
    stepper, g = spec.stepper, spec.grid
    coords = stepper.coordinates()
    cols = () if k is None else (k,)
    datum = rng.standard_normal(cols + (g.n_interior,))
    src = rng.standard_normal(cols + (g.nt + 1, g.n_interior))
    march = stepper.march_backward if backward else stepper.march_forward
    rhs = coords.source(src)
    if backward:  # a backward march reads source level j at column j-1
        rhs[..., :-1] = rhs[..., 1:].copy()
    y = march(coords.datum(datum), rhs, coordinates=True)
    ref = march(datum, src)
    got = coords.physical(y)
    if backward:
        assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()
    else:
        assert np.array_equal(got[..., 1:, :], ref[..., 1:, :])
        assert np.array_equal(coords.physical(y, datum), ref)
    assert np.array_equal(y[..., -1 if backward else 0], coords.datum(datum))
    for c in range(k or 1):
        y_c, ref_c = (y, ref) if k is None else (y[c], ref[c])
        assert abs(coords.q_norm(y_c) - q_norm(g, ref_c)) <= 1e-14 * q_norm(g, ref_c)
        if k is not None:
            assert np.array_equal(coords.datum(datum)[c], coords.datum(datum[c]))
            assert np.array_equal(coords.source(src)[c], coords.source(src[c]))
            assert np.array_equal(got[c], coords.physical(y[c]))


def test_couplings_are_built_once_per_stepper(monkeypatch, rng):
    """A Lambda apply builds its coupling matrices on the stepper's first
    solve and every later apply reuses them.  With one family for both
    directions there are two, each serving the sweep and its transpose:
    alpha chi_d, for the Nash adjoint source and the coupled adjoint's psi
    source, and the summed control weights -chi_i/mu_i, for the Nash state
    source and the companions' source."""
    spec = make_nash_spec()
    built = []
    original = operators._coupling_matrix

    def counted(*args):
        built.append(1)
        return original(*args)

    monkeypatch.setattr(operators, "_coupling_matrix", counted)
    apply_lambda(spec, rng.standard_normal(spec.grid.n_interior))
    first = len(built)
    apply_lambda(spec, rng.standard_normal(spec.grid.n_interior))
    assert first == 2 and len(built) == first


def _same(a, b):
    """Bit for bit equal: arrays by value and dtype, sequences item by item."""
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and a.dtype == b.dtype and np.array_equal(a, b)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    return a == b


def _record_histories(monkeypatch):
    """The list each history nash.alternate returns is appended to, for
    the Nash and the coupled-adjoint solves."""
    histories = []
    original = nash.alternate

    def recorded(*args, **kwargs):
        out = original(*args, **kwargs)
        histories.append(out[3])
        return out

    for home in (nash, hum):
        monkeypatch.setattr(home, "alternate", recorded)
    return histories


def _nash_outputs(spec, f, extra, damping, record, histories):
    seen = []

    def on_sweep(it, W, vs, change):
        seen.append((it, W.copy(), [v.copy() for v in vs], change))

    sol = solve_nash_fixed_point(spec, f, tol_rel=1e-13, damping=damping, extra_source=extra,
                                 on_sweep=on_sweep if record else None)
    return [sol.w, sol.phis, sol.controls, sol.iterations, histories.pop(), seen]


def _coupled_outputs(spec, psi0, histories):
    st = solve_coupled_adjoint(spec, psi0, tol_rel=1e-13)
    return [st.psi, st.etas, st.iterations, histories.pop()]


@pytest.mark.parametrize("zero_data", [False, True])
@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("case", ["shared", "alpha", "targets"])
def test_consecutive_solves_on_one_spec_match_fresh_copies(family, case, zero_data, monkeypatch, rng):
    """A spec keeps its inner-solve setup across solves and nothing else:
    consecutive solves with different psi0, f and extra_source, with and
    without on_sweep and damping, equal bit for bit the same solves on a
    fresh with_ copy, which builds its own setup.  The histories are the
    ones nash.alternate returns."""
    spec = _family_spec(family, case, monkeypatch)
    histories = _record_histories(monkeypatch)
    if zero_data:  # the first Nash sweep of a zero-target solve marches the state alone
        spec = spec.with_zero_data()
    g = spec.grid
    shape = (g.nt + 1, g.n_interior)
    extra = np.full(shape, 0.3)
    nash_runs = [(leader_bump(g), None, 1.0, False), (rng.standard_normal(shape), extra, 1.0, True),
                 (leader_bump(g, 0.1), None, 0.6, True), (None, extra, 0.6, False)]
    for f, extra_source, damping, record in nash_runs:
        kept = _nash_outputs(spec, f, extra_source, damping, record, histories)
        assert _same(kept, _nash_outputs(spec.with_(), f, extra_source, damping, record, histories))
        psi0 = rng.standard_normal(g.n_interior)
        assert _same(_coupled_outputs(spec, psi0, histories), _coupled_outputs(spec.with_(), psi0, histories))
    assert histories == []
