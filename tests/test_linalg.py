import math

import numpy as np
import pytest
import scipy.sparse as sp

from hierctrl.errors import ContractionFailure, MaxIterations, NonFiniteBreakdown, SingularMatrix
from scipy.linalg.lapack import dgbtrf, dgbtrs, dpbtrf, dpbtrs

from hierctrl.linalg import (PATIENCE, RHO_CAP, RitzPairs, band_cholesky, band_lu, conjugate_gradient,
                             contraction_estimate, factorize, iterate, ritz_pairs)
from hierctrl.mesh import build_grid
from hierctrl.operators import Coordinates


def _random_spd(n, seed):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n))
    return A @ A.T + n * np.eye(n)

def _random_spd_bands(count, kd, n, seed):
    """count diagonally dominant symmetric band matrices in LAPACK's lower
    band storage, shape (count, kd+1, n), zero past each matrix's last row."""
    bands = np.random.default_rng(seed).uniform(-1.0, 1.0, (count, kd + 1, n))
    bands[:, 0] = 2.0 * (kd + 1)
    for i in range(1, kd + 1):
        bands[:, i, n - i:] = 0.0
    return bands


def _random_general_bands(count, kl, ku, n, seed):
    """count band matrices in LAPACK's general band storage with room for
    the fill, shape (count, 2 kl + ku + 1, n): rows kl .. 2 kl + ku hold
    entries (j + i - kl - ku, j), the first kl rows and the entries outside
    the matrix are zero.  Not diagonally dominant, so LU pivots."""
    bands = np.random.default_rng(seed).uniform(-1.0, 1.0, (count, 2 * kl + ku + 1, n))
    bands[:, :kl] = 0.0
    j = np.arange(n)
    for d in range(-ku, kl + 1):  # row kl + ku + d holds the entries (j + d, j)
        bands[:, kl + ku + d, (j + d < 0) | (j + d >= n)] = 0.0
    return bands


def _general_matrix(band, kl, ku):
    """The dense matrix of one general band."""
    n = band.shape[1]
    return sum(np.diag(band[kl + ku + d, max(0, -d):n - max(0, d)], -d) for d in range(-ku, kl + 1))


def _band_matrix(band):
    """The dense symmetric matrix of one lower band."""
    n = band.shape[1]
    lower = sum(np.diag(band[i, :n - i], -i) for i in range(len(band)))
    return lower + np.tril(lower, -1).T


def test_band_cholesky_of_a_stack_is_each_matrix_factor_bitwise():
    """One dpbtrf call on the block-diagonal band gives each matrix's own
    factor bit for bit, which solves with that matrix."""
    rng = np.random.default_rng(4)
    for kd, n in ((2, 38), (20, 100), (44, 484)):
        bands = _random_spd_bands(5, kd, n, kd)
        factor = band_cholesky(bands)
        assert factor.shape == (kd + 1, 5 * n) and factor.flags.f_contiguous
        b = rng.standard_normal(n)
        for l, band in enumerate(bands):
            own = factor[:, l * n:(l + 1) * n]
            assert np.array_equal(own, dpbtrf(band, lower=1)[0])
            x = dpbtrs(own, b, lower=1)[0]
            assert np.abs(_band_matrix(band) @ x - b).max() <= 1e-12 * np.abs(b).max()


@pytest.mark.parametrize("kl,ku", [(2, 2), (12, 12), (28, 28)])
def test_band_lu_of_a_stack_is_each_matrix_factor_bitwise(kl, ku):
    """One dgbtrf call on the block-diagonal band gives each matrix's own
    factor and pivots bit for bit, which solve with that matrix and, with
    trans=1, with its transpose."""
    rng = np.random.default_rng(kl)
    n = 4 * (kl + ku) + 3
    bands = _random_general_bands(5, kl, ku, n, kl)
    factor, pivots = band_lu(bands, kl, ku)
    assert factor.shape == (2 * kl + ku + 1, 5 * n) and factor.flags.f_contiguous
    assert pivots.shape == (5, n)
    b = rng.standard_normal(n)
    for l, band in enumerate(bands):
        own, own_pivots, info = dgbtrf(band, kl, ku)
        assert info == 0 and not np.array_equal(own_pivots, np.arange(n))  # rows were swapped
        assert np.array_equal(factor[:, l * n:(l + 1) * n], own)
        assert np.array_equal(pivots[l], own_pivots)
        A = _general_matrix(band, kl, ku)
        for trans, matrix in ((0, A), (1, A.T)):
            x = dgbtrs(factor[:, l * n:(l + 1) * n], kl, ku, b, pivots[l], trans=trans)[0]
            bound = 1e-12 * (np.abs(matrix).max() * np.abs(x).max() + np.abs(b).max())
            assert np.abs(matrix @ x - b).max() <= bound


BAD_GENERAL_BANDS = [  # kl = ku = 1 and n = 2: rows 0 (fill), 1 (upper), 2 (diagonal), 3 (lower)
    np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, 0.0]]),  # exactly singular: the last pivot is 0
    np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 1.0 + 1e-15], [1.0, 0.0]]),  # last pivot 1e-15 below the rule
    np.zeros((4, 2)),
    np.array([[0.0, 0.0], [0.0, 1.0], [np.inf, 1.0], [0.0, 0.0]]),
]


@pytest.mark.parametrize("bad", BAD_GENERAL_BANDS)
def test_band_lu_singular_level_raises(bad):
    """A bad matrix at the last level of the block-diagonal band, after two
    good ones, raises SingularMatrix naming level 2."""
    good = np.array([[0.0, 0.0], [0.0, -1.0], [2.0, 2.0], [1.0, 0.0]])
    with pytest.raises(SingularMatrix, match="matrix 2 "):
        band_lu(np.stack([good, 3.0 * good, bad]), 1, 1)


@pytest.mark.parametrize("bad", BAD_GENERAL_BANDS)
def test_band_lu_names_lowest_bad_level(bad):
    """With bad matrices at levels 1 and 3 the error names level 1: a
    singular, a near-singular, a zero and a non-finite band."""
    good = np.array([[0.0, 0.0], [0.0, -1.0], [2.0, 2.0], [1.0, 0.0]])
    bands = np.stack([good, bad, 3.0 * good, 2.0 * bad, 5.0 * good])
    with pytest.raises(SingularMatrix, match="matrix 1 "):
        band_lu(bands, 1, 1)


BAD_BANDS = [
    np.array([[1.0, 1.0 + 1e-15], [1.0, 0.0]]),  # positive definite, last pivot 1e-15 below the rule
    np.zeros((2, 2)),
    np.array([[np.inf, 1.0], [0.0, 0.0]]),
]


@pytest.mark.parametrize("bad", BAD_BANDS)
def test_band_cholesky_singular_level_raises(bad):
    """A bad matrix at the last level of the block-diagonal band, after two
    good ones, raises SingularMatrix naming level 2."""
    good = np.array([[2.0, 2.0], [1.0, 0.0]])
    with pytest.raises(SingularMatrix, match="matrix 2 "):
        band_cholesky(np.stack([good, 3.0 * good, bad]))


@pytest.mark.parametrize("bad", BAD_BANDS)
def test_band_cholesky_names_lowest_bad_level(bad):
    """With bad matrices at levels 1 and 3 the error names level 1, as
    band_lu's rule does."""
    good = np.array([[2.0, 2.0], [1.0, 0.0]])
    bands = np.stack([good, bad, 3.0 * good, 2.0 * bad, 5.0 * good])
    with pytest.raises(SingularMatrix, match="matrix 1 "):
        band_cholesky(bands)


@pytest.mark.parametrize("indefinite", [
    np.array([[1.0, 1.0], [1.0, 0.0]]),    # exactly singular: the last pivot is 0
    np.array([[1.0, -1.0], [2.0, 0.0]]),   # eigenvalues of both signs
])
def test_band_cholesky_of_an_indefinite_stack_is_none(indefinite):
    good = np.array([[2.0, 2.0], [1.0, 0.0]])
    assert band_cholesky(np.stack([good, indefinite, good])) is None


def _band_family(kind, kd, n, nt):
    """Coordinates of a family of nt steps on a 1D grid with n unknowns
    whose step matrices are one random band of bandwidth kd, kept as its
    band Cholesky factor (a random SPD band) or band LU factor (a random
    general band), as TimeStepper keeps a time-constant family."""
    grid = build_grid(1, 1.0, n + 2, 1.0, nt)
    if kind == "cholesky":
        return Coordinates(grid, cholesky=[band_cholesky(_random_spd_bands(1, kd, n, n))] * nt)
    factor, pivots = band_lu(_random_general_bands(1, kd, kd, n, n), kd, kd)
    return Coordinates(grid, lu=(kd, kd, [factor] * nt, list(pivots) * nt))


def _own_solve(coords, backward, rhs):
    """One step's one-column solve by a keyword call."""
    if coords.cholesky is not None:
        return dpbtrs(coords.cholesky[0], rhs, lower=1)[0]
    kl, ku, factors, pivots = coords.lu
    return dgbtrs(factors[0], kl, ku, rhs, pivots[0], trans=int(backward))[0]


@pytest.mark.parametrize("kind", ["cholesky", "lu"])
@pytest.mark.parametrize("kd,n", [(2, 38), (2, 128), (12, 100), (20, 100), (44, 484)])
@pytest.mark.parametrize("backward", [False, True])
def test_band_loop_columns_bitwise(kind, kd, n, backward):
    """A k-column march of the band step loop (Coordinates.march) is bit
    for bit k one-column marches, for k = 1, 2, 3 and 5, with and without
    sources, forward and backward, and each one-column march is its steps'
    own solves of contiguous rows: level j - 1 or j plus dt s^j, one
    dpbtrs solve (it serves both directions) or one dgbtrs solve, trans=1
    backward."""
    rng = np.random.default_rng(n)
    nt = 4
    coords = _band_family(kind, kd, n, nt)
    dt = coords.grid.dt
    for k in (1, 2, 3, 5):
        datum, src = rng.standard_normal((k, n)), rng.standard_normal((k, nt + 1, n))
        for sources in (None, src):
            out = coords.march(datum, sources, backward)
            assert out.shape == (k, nt + 1, n)
            for c in range(k):
                one = coords.march(datum[c], None if sources is None else sources[c], backward)
                assert np.array_equal(out[c], one)
                ref = np.zeros((nt + 1, n))
                ref[nt if backward else 0] = datum[c]
                for j in range(nt, 0, -1) if backward else range(1, nt + 1):
                    read, write = (j, j - 1) if backward else (j - 1, j)
                    rhs = ref[read].copy() if sources is None else ref[read] + dt * sources[c, j]
                    assert rhs.flags.c_contiguous
                    ref[write] = _own_solve(coords, backward, rhs)
                assert np.array_equal(one, ref)


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


def test_cg_identity_one_iteration():
    b = np.array([1.0, 2.0, 3.0])
    res = conjugate_gradient(lambda v, _r: v, b, tol_rel=1e-12)
    assert res.iterations == 1
    assert np.allclose(res.xs[0], b)


def test_cg_finite_termination_distinct_eigenvalues():
    d = np.arange(1.0, 11.0)
    res = conjugate_gradient(lambda v, _r: d * v, np.ones(10), tol_rel=1e-10)
    assert res.iterations <= 10
    assert np.allclose(res.xs[0], 1.0 / d)


def test_cg_matches_direct_solve():
    A = _random_spd(30, 3)
    rng = np.random.default_rng(4)
    b = rng.standard_normal(30)
    direct = np.linalg.solve(A, b)
    res = conjugate_gradient(lambda v, _r: A @ v, b, tol_rel=1e-12, max_iter=500)
    assert np.linalg.norm(res.xs[0] - direct) <= 1e-8 * np.linalg.norm(direct)


def test_cg_history_final_below_first():
    A = _random_spd(20, 5)
    b = np.ones(20)
    res = conjugate_gradient(lambda v, _r: A @ v, b, tol_rel=1e-10)
    assert res.histories[0][-1] <= res.histories[0][0]


def test_cg_zero_rhs():
    res = conjugate_gradient(lambda v, _r: v, np.zeros(4))
    assert res.iterations == 0
    assert np.all(res.xs[0] == 0.0)


def test_cg_max_iterations_carries_best():
    A = _random_spd(30, 6)
    b = np.ones(30)
    with pytest.raises(MaxIterations) as err:
        conjugate_gradient(lambda v, _r: A @ v, b, tol_rel=1e-15, max_iter=2)
    assert err.value.best[0] is not None
    assert err.value.iterations == 2
    assert len(err.value.history[0]) == 3


def test_cg_nonfinite_breakdown():
    def bad(v, _r):
        return np.full_like(v, np.nan)

    with pytest.raises(NonFiniteBreakdown):
        conjugate_gradient(bad, np.ones(3))


def test_cg_rejects_indefinite():
    with pytest.raises(NonFiniteBreakdown):
        conjugate_gradient(lambda v, _r: -v, np.ones(3))


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
    res = conjugate_gradient(lambda v, _r: A @ v, b, tol_rel=tol, shifts=shifts)
    assert res.iterations == max(res.shift_iterations)
    for s, x, its, hist in zip(shifts, res.xs, res.shift_iterations, res.histories):
        ref = conjugate_gradient(lambda v, _r: A @ v, b, tol_rel=tol, shifts=(s,))
        assert np.linalg.norm(x - ref.xs[0]) <= tol * np.linalg.norm(ref.xs[0])
        true_res = np.linalg.norm(A @ x + s * x - b) / np.linalg.norm(b)
        assert true_res <= tol
        assert abs(its - ref.iterations) <= 1
        assert len(hist) == its + 1 and hist[-1] <= tol < min(hist[:-1])


@pytest.mark.parametrize("shift", [0.0, 0.3])
def test_single_shift_matches_textbook_cg(shift):
    """In exact arithmetic the Lanczos form is textbook CG.  In floating
    point the first residuals agree to rounding; textbook CG then loses
    orthogonality on the ill-conditioned shift 0 (condition number 1000)
    and needs more iterations, while the orthogonal basis never needs more."""
    A, b = _spread_spd(30, 8)
    x, its, history = _plain_cg(lambda v: A @ v + shift * v, b, 1e-10, 500)
    res = conjugate_gradient(lambda v, _r: A @ v, b, tol_rel=1e-10, shifts=(shift,))
    assert res.iterations == res.shift_iterations[0] <= its
    assert np.allclose(res.histories[0][:10], history[:10], rtol=1e-12, atol=0.0)
    assert res.histories[0][-1] <= 1e-10 < min(res.histories[0][:-1])
    assert np.linalg.norm(res.xs[0] - x) <= 1e-9 * np.linalg.norm(x)


def test_multishift_takes_fewer_iterations_than_textbook_cg_on_a_hum_like_operator():
    """On a spectrum shaped like the HUM operator's (a few eigenvalues above
    the shifts, a cluster far below), textbook CG finds converged Ritz
    values again; the orthogonal basis does not, so every shift needs
    fewer iterations, and each still solves its system to the tolerance."""
    A, lam, Q, b = _hum_like_spd()
    shifts = (1e-2, 1e-3, EPS)
    tol = 1e-10
    res = conjugate_gradient(lambda v, _r: A @ v, b, tol_rel=tol, shifts=shifts)
    for s, x, its in zip(shifts, res.xs, res.shift_iterations):
        _, textbook, _ = _plain_cg(lambda v: A @ v + s * v, b, tol, 500)
        assert its < textbook
        direct = np.linalg.solve(A + s * np.eye(len(b)), b)
        assert np.linalg.norm(x - direct) <= 1e-8 * np.linalg.norm(direct)
        assert np.linalg.norm(A @ x + s * x - b) <= tol * np.linalg.norm(b)


def test_applied_vectors_are_orthonormal():
    A, lam, Q, b = _hum_like_spd()
    apply, directions, _ = _recording(A)
    res = conjugate_gradient(apply, b, tol_rel=1e-12, shifts=(1e-2, EPS))
    V = np.array(directions)
    assert len(V) == res.iterations > 10
    assert np.abs(V @ V.T - np.eye(len(V))).max() <= 1e-12


@pytest.mark.parametrize("mode", [0, 3])
def test_eigenvector_right_side_converges_in_one_iteration(mode):
    A, lam, Q, b = _hum_like_spd()
    shifts = (1e-2, EPS)
    res = conjugate_gradient(lambda v, _r: A @ v, Q[:, mode], tol_rel=1e-10, shifts=shifts)
    assert res.iterations == 1 and res.shift_iterations == [1, 1]
    for s, x in zip(shifts, res.xs):
        assert np.all(np.isfinite(x))
        assert np.allclose(x, Q[:, mode] / (lam[mode] + s), rtol=1e-12, atol=1e-14)
    # an exactly invariant start: beta_1 = 0, every shift solved, no division by it
    res = conjugate_gradient(lambda v, _r: 2.0 * v, np.ones(3), tol_rel=0.0, shifts=(0.0, 1.0))
    assert res.iterations == 1 and res.histories == [[1.0, 0.0], [1.0, 0.0]]
    assert np.allclose(res.xs, [np.full(3, 0.5), np.full(3, 1.0 / 3.0)], rtol=1e-15, atol=0.0)


def test_multishift_coefficients_rebuild_each_solution_from_the_applied_directions():
    """x_s = sum_k coefficients[s, k] d_k over the directions d_k CG applied
    A to, for every shift, including one that freezes early."""
    A, b = _spread_spd(40, 11)
    shifts = (1e-4, 1e-2, 1.0)
    applied = []

    def apply(v, _r):
        applied.append(v.copy())
        return A @ v

    res = conjugate_gradient(apply, b, tol_rel=1e-10, shifts=shifts)
    assert res.shift_iterations[2] < res.iterations  # the large shift froze early
    assert res.coefficients.shape == (3, res.iterations) == (3, len(applied))
    assert np.all(res.coefficients[2, res.shift_iterations[2]:] == 0.0)
    for x, gamma in zip(res.xs, res.coefficients):
        assert np.linalg.norm(gamma @ np.array(applied) - x) <= 1e-12 * np.linalg.norm(x)


def test_cg_zero_rhs_has_no_coefficients():
    res = conjugate_gradient(lambda v, _r: v, np.zeros(4), shifts=(0.0, 1.0))
    assert res.coefficients.shape == (2, 0)


def test_multishift_max_iterations_carries_best_per_shift():
    A, b = _spread_spd(40, 9)
    shifts = (1.0, 1e-4)
    with pytest.raises(MaxIterations) as err:
        conjugate_gradient(lambda v, _r: A @ v, b, tol_rel=1e-10, max_iter=12, shifts=shifts)
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
    def bad(v, _r):
        return np.full_like(v, np.nan)

    with pytest.raises(NonFiniteBreakdown):
        conjugate_gradient(bad, np.ones(3), shifts=(1e-2, 1.0))
    with pytest.raises(NonFiniteBreakdown):
        conjugate_gradient(lambda v, _r: -v, np.ones(3), shifts=(0.5, 0.1))


EPS = 1e-4


def _hum_like_spd(n=60, top=7, seed=12):
    """SPD matrix shaped like the HUM operator: `top` eigenvalues in
    1e-2..1, the rest below 1e-6, far under the shift EPS.  Returns the
    matrix, its eigenvalues descending, the matching eigenvectors and a
    right side."""
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    lam = np.concatenate([np.logspace(0, -2, top), np.logspace(-6, -12, n - top)])
    A = (Q * lam) @ Q.T
    return 0.5 * (A + A.T), lam, Q, rng.standard_normal(n)


def _recording(A):
    """apply(v, r) = A v, keeping every direction and product it saw."""
    directions, products = [], []

    def apply(v, _r):
        directions.append(v.copy())
        products.append(A @ v)
        return products[-1]

    return apply, directions, products


def test_pcg_deflated_by_exact_top_eigenpairs_converges_in_a_few_iterations():
    A, lam, Q, b = _hum_like_spd()
    tol = 1e-10
    pairs = RitzPairs(lam[:7], Q[:, :7])
    plain = conjugate_gradient(lambda v, _r: A @ v, b, tol_rel=tol, shifts=(EPS,))
    res = conjugate_gradient(lambda v, _r: A @ v, b, tol_rel=tol, shifts=(EPS,),
                             preconditioner=pairs.preconditioner(EPS))
    assert res.iterations <= 5 < plain.iterations
    direct = np.linalg.solve(A + EPS * np.eye(len(b)), b)
    assert np.linalg.norm(res.xs[0] - direct) <= 1e-8 * np.linalg.norm(direct)
    assert np.linalg.norm(A @ res.xs[0] + EPS * res.xs[0] - b) <= tol * np.linalg.norm(b)
    # the history is the unpreconditioned recurrence residual relative to ||b||
    assert res.histories[0][0] == 1.0 and res.histories[0][-1] <= tol < min(res.histories[0][:-1])
    assert len(res.histories[0]) == res.iterations + 1 and res.shift_iterations == [res.iterations]


def test_the_identity_preconditioner_reproduces_the_unpreconditioned_solve():
    """With M = I the preconditioned process is the same Lanczos run, with
    the shift in the product instead of in T_k: equal to rounding."""
    A, b = _spread_spd(30, 8)
    plain = conjugate_gradient(lambda v, _r: A @ v, b, tol_rel=1e-10, shifts=(0.3,))
    res = conjugate_gradient(lambda v, _r: A @ v, b, tol_rel=1e-10, shifts=(0.3,), preconditioner=lambda r: r)
    assert res.iterations == plain.iterations
    assert np.linalg.norm(res.xs[0] - plain.xs[0]) <= 1e-14 * np.linalg.norm(plain.xs[0])
    assert np.allclose(res.histories[0], plain.histories[0], rtol=1e-13, atol=0.0)


def test_a_preconditioner_that_is_not_positive_definite_is_a_typed_failure():
    A, b = _spread_spd(30, 8)
    with pytest.raises(NonFiniteBreakdown, match="preconditioner not positive definite"):
        conjugate_gradient(lambda v, _r: A @ v, b, tol_rel=1e-10, shifts=(0.3,), preconditioner=lambda r: -r)


@pytest.mark.parametrize("top, bound", [(None, 11), (3, 8), (5, 6)])
def test_preconditioned_basis_is_m_orthonormal_and_deflation_pays(top, bound):
    """Under the identity (top None) or M^-1 = V (Theta + eps)^-1 V' +
    (I - V V')/eps from the top eigenpairs, the applied vectors
    d_k = M^-1 v_k are M-orthonormal (D M D' = I), and each deflated
    eigenvalue saves iterations."""
    A, lam, Q, b = _hum_like_spd()
    if top is None:
        preconditioner, M = (lambda r: r), np.eye(len(b))
    else:
        V = Q[:, :top]
        preconditioner = RitzPairs(lam[:top], V).preconditioner(EPS)
        M = V @ np.diag(lam[:top] + EPS) @ V.T + EPS * (np.eye(len(b)) - V @ V.T)
    apply, directions, _ = _recording(A)
    res = conjugate_gradient(apply, b, tol_rel=1e-10, shifts=(EPS,), preconditioner=preconditioner)
    D = np.array(directions)
    assert len(D) == res.iterations <= bound
    assert np.abs(D @ M @ D.T - np.eye(len(D))).max() <= 1e-11
    direct = np.linalg.solve(A + EPS * np.eye(len(b)), b)
    assert np.linalg.norm(res.xs[0] - direct) <= 1e-8 * np.linalg.norm(direct)


def test_pcg_coefficients_rebuild_the_solution_from_the_applied_directions():
    A, lam, Q, b = _hum_like_spd(seed=13)
    apply, directions, _ = _recording(A)
    pairs = RitzPairs(lam[:5], Q[:, :5])  # two large eigenvalues left undeflated
    res = conjugate_gradient(apply, b, tol_rel=1e-10, shifts=(EPS,), preconditioner=pairs.preconditioner(EPS))
    assert res.coefficients.shape == (1, res.iterations) == (1, len(directions))
    x = res.coefficients[0] @ np.array(directions)
    assert np.linalg.norm(x - res.xs[0]) <= 1e-12 * np.linalg.norm(res.xs[0])


def test_preconditioner_takes_a_single_shift():
    with pytest.raises(ValueError, match="single shift"):
        conjugate_gradient(lambda v, _r: v, np.ones(3), shifts=(1e-2, 1.0), preconditioner=lambda r: r)


def test_pcg_max_iterations_carries_best():
    A, b = _spread_spd(40, 9)
    with pytest.raises(MaxIterations) as err:
        conjugate_gradient(lambda v, _r: A @ v, b, tol_rel=1e-14, max_iter=5, shifts=(1e-4,),
                           preconditioner=lambda r: 2.0 * r)
    assert err.value.iterations == 5 and len(err.value.history[0]) == 6
    true_res = np.linalg.norm(A @ err.value.best[0] + 1e-4 * err.value.best[0] - b) / np.linalg.norm(b)
    assert true_res == pytest.approx(min(err.value.history[0]), rel=1e-6)


def _residual_recording(A):
    """apply(v, r) = A v, keeping every r it was handed."""
    residuals = []

    def apply(v, r):
        residuals.append(r)
        return A @ v

    return apply, residuals


def test_cg_hands_apply_the_unshifted_residual():
    """apply gets 1, then the residual of the unshifted recurrence after
    each step: bit for bit the history of a shift 0 run on the same T_k."""
    A, b = _spread_spd(40, 9)
    apply, residuals = _residual_recording(A)
    res = conjugate_gradient(apply, b, tol_rel=1e-10, shifts=(1e-1, 1e-3, 0.0))
    assert res.iterations == res.shift_iterations[2]
    assert residuals == res.histories[2][:-1]
    assert residuals[0] == 1.0 and min(residuals) < 1e-5


def test_cg_hands_apply_the_same_residuals_whatever_the_shifts():
    """A shift-free r: a sweep hands apply the residuals its single-shift
    run does, up to that run's stop."""
    A, b = _spread_spd(40, 9)
    sweep_apply, swept = _residual_recording(A)
    conjugate_gradient(sweep_apply, b, tol_rel=1e-10, shifts=(1e-1, 1e-2, 1e-3))
    for shift in (1e-1, 1e-3):
        single_apply, single = _residual_recording(A)
        conjugate_gradient(single_apply, b, tol_rel=1e-10, shifts=(shift,))
        assert single == swept[:len(single)]


def test_pcg_hands_apply_its_shifts_own_residual():
    """Under a preconditioner T_k holds the one shift, so r is that
    shift's own history."""
    A, lam, Q, b = _hum_like_spd(seed=13)
    apply, residuals = _residual_recording(A)
    pairs = RitzPairs(lam[:5], Q[:, :5])
    res = conjugate_gradient(apply, b, tol_rel=1e-10, shifts=(EPS,), preconditioner=pairs.preconditioner(EPS))
    assert residuals == res.histories[0][:-1]


def test_cg_falls_back_to_one_on_a_non_positive_unshifted_pivot():
    """A indefinite, A + 2 I positive definite, and b'A b < 0: the first
    unshifted pivot is negative, so every apply is handed r = 1, and the
    shifted solve is still exact."""
    A = np.diag([-1.0, 0.5, 1.0, 2.0, 3.0])
    b = np.array([1.0, 0.1, 0.1, 0.1, 0.1])
    apply, residuals = _residual_recording(A)
    res = conjugate_gradient(apply, b, tol_rel=1e-12, shifts=(2.0,))
    assert residuals == [1.0] * res.iterations and res.iterations > 1
    direct = np.linalg.solve(A + 2.0 * np.eye(5), b)
    assert np.linalg.norm(res.xs[0] - direct) <= 1e-10 * np.linalg.norm(direct)


def test_ritz_pairs_of_cg_directions_recover_the_top_eigenvalues():
    """The eigenpairs of a plain CG run's own T_k, mapped through its
    orthonormal basis, find the eigenvalues above the floor; the Ritz
    vectors are orthonormal and nearly eigenvectors."""
    A, lam, _, b = _hum_like_spd()
    cg = conjugate_gradient(lambda v, _r: A @ v, b, tol_rel=1e-10, shifts=(EPS,))
    pairs = ritz_pairs(cg, EPS, 20)
    assert len(pairs.values) == 7
    assert np.allclose(pairs.values, lam[:7], rtol=1e-8, atol=0.0)
    V = pairs.vectors
    assert np.allclose(V.T @ V, np.eye(7), atol=1e-12)
    assert np.linalg.norm(A @ V - V * pairs.values, axis=0).max() <= 1e-6
    # the cap keeps the largest
    assert np.array_equal(ritz_pairs(cg, EPS, 3).values, pairs.values[:3])


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


def _linear_contraction(rho, n=6, seed=0):
    """x -> K x + c with K symmetric of spectrum {-rho, rho}, so every change
    is exactly rho times the last; returns the sweep and the fixed point."""
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    K = Q @ np.diag(rho * np.resize([1.0, -1.0], n)) @ Q.T
    c = rng.standard_normal(n)

    def sweep(x):
        x_next = K @ x + c
        return x_next, float(np.linalg.norm(x_next - x)), float(np.linalg.norm(x_next))
    return sweep, np.linalg.solve(np.eye(n) - K, c)


def test_error_bound_stops_a_sweep_early_within_tolerance():
    """At rho = 1e-4 a loop left on the change rule (the default) runs until
    its change is below tol_rel * scale, a sweep that only confirms a
    correction far below the tolerance; Banach's bound stops one sweep
    before it, with the error still below tol_rel * scale."""
    sweep, exact = _linear_contraction(1e-4)
    tol = 1e-10
    plain, by_change, changes = iterate(sweep, np.zeros(6), tol, 50, "contraction")
    assert changes[-1] <= tol * np.linalg.norm(plain) < changes[-2]
    x, by_bound, history = iterate(sweep, np.zeros(6), tol, 50, "contraction", error_bound=True)
    assert by_bound == by_change - 1
    rho = contraction_estimate(history)
    assert rho == pytest.approx(1e-4, rel=1e-6)
    error = np.linalg.norm(x - exact)
    assert error <= tol * np.linalg.norm(x)
    assert error <= rho / (1.0 - rho) * history[-1]


def test_error_bound_above_cap_keeps_change_rule():
    """rho = 0.6 is above RHO_CAP: the solve stops on the same sweep, with
    the same iterate, as the change rule alone."""
    sweep, _ = _linear_contraction(0.6)
    assert RHO_CAP == 0.5
    plain = iterate(sweep, np.zeros(6), 1e-10, 200, "contraction")
    bound = iterate(sweep, np.zeros(6), 1e-10, 200, "contraction", error_bound=True)
    assert bound[1] == plain[1]
    assert np.array_equal(bound[0], plain[0])
    assert contraction_estimate(bound[2]) == pytest.approx(0.6, rel=1e-5)


def test_error_bound_distrusts_a_growing_change():
    """One change that grows makes rho-hat 2: with rho-hat above RHO_CAP,
    rho/(1 - rho) * change is negative, and must not stop the loop."""
    changes = [1.0, 2.0, 1e-3, 1e-7]
    x, iterations, history = iterate(lambda k: (k + 1, changes[k], 1.0), 0, 1e-6, 10, "scripted",
                                     error_bound=True)
    assert contraction_estimate(history) == 2.0
    assert iterations == x == 4


def test_contraction_estimate_needs_two_changes():
    assert math.isnan(contraction_estimate([]))
    assert math.isnan(contraction_estimate([0.5]))
    assert contraction_estimate([1.0, 0.1, 0.05]) == 0.5
