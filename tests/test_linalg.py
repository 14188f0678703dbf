import math

import numpy as np
import pytest
import scipy.sparse as sp

from hierctrl.errors import ContractionFailure, MaxIterations, NonFiniteBreakdown, SingularMatrix
from hierctrl.linalg import PATIENCE, conjugate_gradient, factorize, invert_stack, iterate


def _random_spd(n, seed):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n))
    return A @ A.T + n * np.eye(n)


def test_factorize_identity():
    b = np.array([3.0, -1.0, 2.0])
    fact = factorize(sp.identity(3, format="csr"))
    assert np.allclose(fact.solve(b), b)


def test_factorize_diagonal():
    A = sp.diags([2.0, 4.0]).tocsr()
    x = factorize(A).solve(np.array([2.0, 4.0]))
    assert np.allclose(x, [1.0, 1.0])


def test_factorize_residual_bound():
    A = _random_spd(50, 0)
    rng = np.random.default_rng(1)
    b = rng.standard_normal(50)
    x = factorize(sp.csr_matrix(A)).solve(b)
    res = np.max(np.abs(A @ x - b))
    bound = 1e-10 * (np.max(np.abs(A)) * np.max(np.abs(x)) + np.max(np.abs(b)))
    assert res <= bound


def test_factorize_transpose_solve():
    rng = np.random.default_rng(2)
    A = rng.standard_normal((12, 12)) + 12 * np.eye(12)
    b = rng.standard_normal(12)
    fact = factorize(sp.csr_matrix(A))
    assert np.allclose(A.T @ fact.solve(b, transpose=True), b)


def test_factorize_singular_raises():
    with pytest.raises(SingularMatrix):
        factorize(sp.csr_matrix(np.array([[1.0, 1.0], [1.0, 1.0]])))
    with pytest.raises(SingularMatrix):
        factorize(sp.csr_matrix((3, 3)))


def test_invert_stack_inverts_every_matrix():
    rng = np.random.default_rng(3)
    stack = rng.standard_normal((4, 9, 9)) + 9 * np.eye(9)
    invs = invert_stack(stack)
    assert len(invs) == 4
    b = rng.standard_normal(9)
    for A, inv in zip(stack, invs):
        assert np.allclose(A @ inv.solve(b), b, rtol=0, atol=1e-12)
        assert np.allclose(A.T @ inv.solve(b, transpose=True), b, rtol=0, atol=1e-12)


@pytest.mark.parametrize("bad", [
    np.array([[1.0, 1.0], [1.0, 1.0]]),          # exactly singular: numpy would raise LinAlgError
    np.array([[1.0, 1.0], [1.0, 1.0 + 1e-15]]),  # pivot 1e-15 below the rule; numpy would invert it
    np.zeros((2, 2)),
    np.array([[np.inf, 0.0], [0.0, 1.0]]),
])
def test_invert_stack_singular_level_raises(bad):
    stack = np.stack([np.eye(2), 3.0 * np.eye(2), bad])
    with pytest.raises(SingularMatrix, match="matrix 2 "):
        invert_stack(stack)


@pytest.mark.parametrize("n", [12, 62, 128, 484])
@pytest.mark.parametrize("transpose", [False, True])
def test_dense_inverse_columns_bitwise(n, transpose):
    """A k-column solve is bit for bit k one-column solves, also written in place."""
    rng = np.random.default_rng(n)
    inv = invert_stack((rng.standard_normal((n, n)) + n * np.eye(n))[None])[0]
    for k in (2, 3, 5):
        rhs = rng.standard_normal((n, k))
        cols = np.stack([inv.solve(rhs[:, c], transpose=transpose) for c in range(k)], axis=1)
        assert np.array_equal(inv.solve(rhs, transpose=transpose), cols)
        out = np.empty((n, k))
        inv.solve(rhs, transpose=transpose, out=out)
        assert np.array_equal(out, cols)


def test_cg_identity_one_iteration():
    b = np.array([1.0, 2.0, 3.0])
    res = conjugate_gradient(lambda v: v, b, tol_rel=1e-12)
    assert res.iterations == 1
    assert np.allclose(res.xs[0], b)


def test_cg_finite_termination_distinct_eigenvalues():
    d = np.arange(1.0, 11.0)
    res = conjugate_gradient(lambda v: d * v, np.ones(10), tol_rel=1e-10)
    assert res.iterations <= 10
    assert np.allclose(res.xs[0], 1.0 / d)


def test_cg_matches_direct_solve():
    A = _random_spd(30, 3)
    rng = np.random.default_rng(4)
    b = rng.standard_normal(30)
    direct = np.linalg.solve(A, b)
    res = conjugate_gradient(lambda v: A @ v, b, tol_rel=1e-12, max_iter=500)
    assert np.linalg.norm(res.xs[0] - direct) <= 1e-8 * np.linalg.norm(direct)


def test_cg_history_final_below_first():
    A = _random_spd(20, 5)
    b = np.ones(20)
    res = conjugate_gradient(lambda v: A @ v, b, tol_rel=1e-10)
    assert res.histories[0][-1] <= res.histories[0][0]


def test_cg_zero_rhs():
    res = conjugate_gradient(lambda v: v, np.zeros(4))
    assert res.iterations == 0
    assert np.all(res.xs[0] == 0.0)


def test_cg_max_iterations_carries_best():
    A = _random_spd(30, 6)
    b = np.ones(30)
    with pytest.raises(MaxIterations) as err:
        conjugate_gradient(lambda v: A @ v, b, tol_rel=1e-15, max_iter=2)
    assert err.value.best[0] is not None
    assert err.value.iterations == 2
    assert len(err.value.history[0]) == 3


def test_cg_nonfinite_breakdown():
    def bad(v):
        return np.full_like(v, np.nan)

    with pytest.raises(NonFiniteBreakdown):
        conjugate_gradient(bad, np.ones(3))


def test_cg_rejects_indefinite():
    with pytest.raises(NonFiniteBreakdown):
        conjugate_gradient(lambda v: -v, np.ones(3))


def _spread_spd(n, seed):
    """SPD matrix with eigenvalues spread over 1e-3..1, so shifts matter."""
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    A = (Q * np.logspace(-3, 0, n)) @ Q.T
    return 0.5 * (A + A.T), rng.standard_normal(n)


def _plain_cg(apply, b, tol_rel, max_iter):
    """Textbook single-system CG: the reference the multi-shift solver must reproduce."""
    norm_b = float(np.linalg.norm(b))
    x = np.zeros_like(b)
    r = b.copy()
    p = r.copy()
    rs = float(np.dot(r, r))
    history = [np.sqrt(rs) / norm_b]
    for it in range(1, max_iter + 1):
        Ap = apply(p)
        alpha = rs / float(np.dot(p, Ap))
        x = x + alpha * p
        r = r - alpha * Ap
        rs_new = float(np.dot(r, r))
        history.append(np.sqrt(rs_new) / norm_b)
        if history[-1] <= tol_rel:
            return x, it, history
        p = r + (rs_new / rs) * p
        rs = rs_new
    raise AssertionError("reference CG did not converge")


def test_multishift_matches_independent_solves():
    A, b = _spread_spd(40, 7)
    shifts = (1e-1, 1e-4, 0.0, 1e-2, 1e-3)  # unsorted: the base is the smallest
    tol = 1e-10
    res = conjugate_gradient(lambda v: A @ v, b, tol_rel=tol, shifts=shifts)
    assert res.iterations == max(res.shift_iterations)
    for s, x, its, hist in zip(shifts, res.xs, res.shift_iterations, res.histories):
        ref = conjugate_gradient(lambda v: A @ v, b, tol_rel=tol, shifts=(s,))
        assert np.linalg.norm(x - ref.xs[0]) <= tol * np.linalg.norm(ref.xs[0])
        true_res = np.linalg.norm(A @ x + s * x - b) / np.linalg.norm(b)
        assert true_res <= tol
        assert abs(its - ref.iterations) <= 1
        assert len(hist) == its + 1 and hist[-1] <= tol < min(hist[:-1])


@pytest.mark.parametrize("shift", [0.0, 0.3])
def test_single_shift_is_plain_cg_bitwise(shift):
    A, b = _spread_spd(30, 8)
    x, its, history = _plain_cg(lambda v: A @ v + shift * v, b, 1e-10, 500)
    res = conjugate_gradient(lambda v: A @ v, b, tol_rel=1e-10, shifts=(shift,))
    assert np.array_equal(res.xs[0], x)
    assert res.iterations == res.shift_iterations[0] == its
    assert res.histories[0] == history


def test_multishift_max_iterations_carries_best_per_shift():
    A, b = _spread_spd(40, 9)
    shifts = (1.0, 1e-4)
    with pytest.raises(MaxIterations) as err:
        conjugate_gradient(lambda v: A @ v, b, tol_rel=1e-10, max_iter=12, shifts=shifts)
    best, history = err.value.best, err.value.history
    assert err.value.iterations == 12 and len(best) == len(history) == 2
    # the large shift converged: its history stops below tol and it carries its solution
    assert history[0][-1] <= 1e-10 and len(history[0]) <= 13
    assert np.linalg.norm(A @ best[0] + best[0] - b) <= 1e-9 * np.linalg.norm(b)
    # the small one did not: it carries the iterate of its smallest residual
    assert len(history[1]) == 13 and min(history[1]) > 1e-10
    true_res = np.linalg.norm(A @ best[1] + 1e-4 * best[1] - b) / np.linalg.norm(b)
    assert true_res == pytest.approx(min(history[1]), rel=1e-6)


def test_multishift_nonfinite_breakdown():
    def bad(v):
        return np.full_like(v, np.nan)

    with pytest.raises(NonFiniteBreakdown):
        conjugate_gradient(bad, np.ones(3), shifts=(1e-2, 1.0))
    with pytest.raises(NonFiniteBreakdown):
        conjugate_gradient(lambda v: -v, np.ones(3), shifts=(0.5, 0.1))


def _affine_sweep(factor):
    """x -> 1 + factor * (x - 1), with change |x_next - x| and scale |x_next|."""
    def sweep(x):
        x_next = 1.0 + factor * (x - 1.0)
        return x_next, abs(x_next - x), abs(x_next)
    return sweep


def test_iterate_converges():
    x, iterations, history = iterate(_affine_sweep(0.5), 0.0, 1e-3, 100, "halving")
    assert iterations == len(history) == 10
    assert history == [0.5**k for k in range(1, 11)]
    assert x == 1.0 - 0.5**10


def test_iterate_skips_unrecorded_sweeps():
    def sweep(x):
        return x + 1, (None if x == 0 else 0.0), 1.0

    x, iterations, history = iterate(sweep, 0, 1e-12, 10, "two-step")
    assert (x, iterations, history) == (2, 2, [0.0])


def test_iterate_growth_raises_after_patience():
    with pytest.raises(ContractionFailure) as err:
        iterate(_affine_sweep(2.0), 0.0, 1e-12, 100, "doubling")
    assert PATIENCE == 10
    # the first change has no predecessor; the next PATIENCE changes grow
    assert err.value.iterations == PATIENCE + 1
    assert err.value.ratio == 2.0


def test_iterate_growth_streak_resets():
    """PATIENCE - 1 growing changes, a drop, PATIENCE - 1 more, then zero."""
    changes = [*range(1, PATIENCE + 1), 0.5, *range(1, PATIENCE), 0.0]
    x, iterations, _ = iterate(lambda k: (k + 1, changes[k], 1.0), 0, 0.0, 100, "bouncing")
    assert iterations == x == len(changes)


def test_iterate_non_finite_change():
    with pytest.raises(ContractionFailure) as err:
        iterate(lambda x: (x, math.nan, 1.0), 0.0, 1e-12, 100, "nan")
    assert err.value.iterations == 1
    assert err.value.ratio == math.inf


def test_iterate_max_iterations_carries_last_iterate():
    with pytest.raises(MaxIterations) as err:
        iterate(_affine_sweep(0.9), 0.0, 1e-12, 5, "slow")
    assert err.value.iterations == 5
    assert err.value.best == pytest.approx(1.0 - 0.9**5)
    assert err.value.history == pytest.approx([0.1 * 0.9**k for k in range(5)])
