"""Minimal linear algebra behind the time steppers and HUM solver.

Stacks of band matrices get LAPACK band factors, Cholesky for symmetric
positive-definite ones and LU otherwise, and small symmetric matrices are
diagonalized; every one of them passes the same pivot check.  The one
sparse factorization, of dense_oracle's stacked space-time system, is
delegated to SuperLU (scipy.sparse.linalg.splu).  One Lanczos process,
which conjugate gradient and the Ritz pairs run on, and the fixed-point
driver are written against callbacks so the HUM operator, the follower
forms and the sweeps, which involve nested PDE solves, plug in without
ever being materialized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import ContractionFailure, MaxIterations, NonFiniteBreakdown, SingularMatrix

PIVOT_RTOL = 1e-14
PATIENCE = 10  # consecutive growing sweeps before a fixed point is declared divergent
RHO_CAP = 0.5  # the error-bound stop trusts a contraction estimate only below this
TINY = 1e-300


@dataclass
class Factorization:
    """SuperLU factorization of a square sparse matrix; one factorization
    solves with the matrix and with its transpose."""

    _lu: object

    def solve(self, rhs, transpose=False):
        """Solve with the matrix or its transpose; rhs is (n,) or (n, k), one
        column per system."""
        return self._lu.solve(np.asarray(rhs, dtype=float), trans="T" if transpose else "N")


def factorize(matrix) -> Factorization:
    matrix = sp.csc_matrix(matrix)
    if matrix.shape[0] != matrix.shape[1]:
        raise SingularMatrix("matrix must be square")
    scale = float(abs(matrix).max()) if matrix.nnz else 0.0
    if scale == 0.0:
        raise SingularMatrix("zero matrix")
    try:
        lu = spla.splu(matrix)
    except RuntimeError as exc:  # SuperLU signals exact singularity this way
        raise SingularMatrix(str(exc)) from exc
    pivots = np.abs(lu.U.diagonal())
    if pivots.min() < PIVOT_RTOL * scale:
        raise SingularMatrix(f"pivot {pivots.min():.3e} below {PIVOT_RTOL:.0e}*scale")
    return Factorization(lu)


def _scales(stack):
    """The largest magnitude of every matrix in a stack, which must be
    nonzero and finite: SingularMatrix names the first that is not."""
    scale = np.abs(stack).max(axis=(1, 2))
    bad = np.flatnonzero(~np.isfinite(scale) | (scale == 0.0))
    if bad.size:
        raise SingularMatrix(f"matrix {bad[0]} of the stack is zero or not finite")
    return scale


def _check_pivots(pivots, scale):
    """SingularMatrix naming the first matrix of a stack whose smallest
    pivot is below PIVOT_RTOL times its scale."""
    bad = np.flatnonzero(pivots < PIVOT_RTOL * scale)
    if bad.size:
        raise SingularMatrix(f"matrix {bad[0]} of the stack: pivot {pivots[bad[0]]:.3e} "
                             f"below {PIVOT_RTOL:.0e}*scale")


def _block_diagonal(bands):
    """An (L, rows, n) stack of bands as the (rows, L n) F-ordered band of
    their block-diagonal matrix, and its scales (_scales)."""
    count, rows, n = bands.shape
    return np.asfortranarray(bands.transpose(1, 0, 2).reshape(rows, count * n)), _scales(bands)


def band_lu(bands, kl, ku):
    """The band LU factors, with partial pivoting, of a stack of band matrices.

    bands, shape (L, 2 kl + ku + 1, n), holds each matrix in LAPACK's
    general band storage with kl rows of room for the fill: bands[l,
    kl + ku + i - j, j] is entry (i, j) of matrix l, and the first kl rows
    and the entries outside the matrix are zero.  All L are factored by one
    dgbtrf call on their block-diagonal band, which gives each matrix's own
    factor and pivots bit for bit.  Returns that (2 kl + ku + 1, L n)
    F-ordered factor, whose columns l n .. (l+1) n - 1 are matrix l's, and
    the pivots, shape (L, n), row l matrix l's own (0-based, as scipy's
    dgbtrs takes them).  Each matrix passes the pivot rule: a pivot U_jj
    below PIVOT_RTOL times the matrix's largest entry in magnitude, a zero
    matrix or a non-finite entry raises SingularMatrix naming the matrix
    (Anderson et al., LAPACK Users' Guide, 3rd ed., SIAM 1999, 2.4).
    """
    bands = np.asarray(bands, dtype=float)
    count, _, n = bands.shape
    block, scale = _block_diagonal(bands)
    factor, pivots, _ = scipy.linalg.lapack.dgbtrf(block, kl, ku, overwrite_ab=1)
    _check_pivots(np.abs(factor[kl + ku].reshape(count, n)).min(axis=1), scale)
    return factor, pivots.reshape(count, n) - n * np.arange(count, dtype=pivots.dtype)[:, None]


def band_cholesky(bands):
    """The band Cholesky factors of a stack of symmetric band matrices, or
    None when LAPACK finds one of them not positive definite.

    bands, shape (L, kd+1, n), holds each matrix in LAPACK's lower band
    storage: bands[l, i, j] is entry (j+i, j) of matrix l.  All L are
    factored by one dpbtrf call on their block-diagonal band, which gives
    each matrix's own factor bit for bit.  Returns that (kd+1, L n) F-ordered
    band: its columns l n .. (l+1) n - 1 are matrix l's factor, which
    dpbtrs solves with (lower=1).  Each matrix passes band_lu's pivot rule
    restated for Cholesky, with the pivot L_jj^2.
    """
    bands = np.asarray(bands, dtype=float)
    count, _, n = bands.shape
    block, scale = _block_diagonal(bands)
    factor, info = scipy.linalg.lapack.dpbtrf(block, lower=1, overwrite_ab=1)
    if info > 0:
        return None
    _check_pivots((factor[0].reshape(count, n) ** 2).min(axis=1), scale)
    return factor


class Modes(NamedTuple):
    """Orthonormal eigenvectors Q (columns) of a symmetric matrix and its
    reciprocal eigenvalues w: the matrix's inverse is Q diag(w) Q'."""

    Q: np.ndarray
    w: np.ndarray


def symmetric_modes(matrix) -> Modes:
    """Modes of a symmetric matrix.  Its dense LU (getrf) passes band_lu's
    pivot rule first, so a singular matrix raises SingularMatrix as a band
    factor would."""
    scale = _scales(matrix[None])
    lu = scipy.linalg.lapack.dgetrf(matrix)[0]
    _check_pivots(np.abs(lu.diagonal()).min(keepdims=True), scale)
    # scipy's LAPACK, as for the LU: numpy's own BLAS threads can stall behind scipy's
    lam, Q = scipy.linalg.eigh(matrix, driver="evd", check_finite=False)
    return Modes(Q, 1.0 / lam)


@dataclass
class CGResult:
    """Solutions of (A + s_i I) x_i = b, one per shift s_i, in the order given.

    iterations counts operator applications.  shift_iterations[i] is the
    iteration at which shift i converged, and histories[i] holds its
    recurrence residuals ||b - (A + s_i I) x_k|| / ||b|| for
    k = 0..shift_iterations[i], under a preconditioner too (never the
    preconditioned norm).  coefficients, shape (len(xs), iterations), writes
    each solution in the vectors the operator was applied to:
    x_i = sum_k coefficients[i, k] d_k, d_k being the k-th argument of
    apply, to rounding.  Row i is zero after shift_iterations[i].

    basis, shape (iterations, len(b)), holds the Lanczos vectors v_k as
    rows, and alphas (iterations values) and betas (one fewer) are the
    diagonal and the off-diagonal of the tridiagonal T_k they span
    (lanczos).  Without a preconditioner the v_k are the orthonormal d_k
    and T_k = V_k' A V_k, so its eigenpairs give A's Rayleigh-Ritz pairs on
    the Krylov space (ritz_pairs); under one the v_k are M^-1-orthonormal
    and T_k = D_k' (A + s I) D_k belongs to the pencil (A + s I, M).
    """

    xs: list
    iterations: int
    histories: list
    shift_iterations: list
    coefficients: np.ndarray
    basis: np.ndarray
    alphas: np.ndarray
    betas: np.ndarray


class RitzPairs(NamedTuple):
    """Ritz values (descending) and orthonormal Ritz vectors (columns) of a
    symmetric operator on a Krylov space (ritz_pairs)."""

    values: np.ndarray
    vectors: np.ndarray

    def preconditioner(self, shift):
        """M^-1 = V (Theta + shift)^-1 V' + (I - V V')/shift, the inverse of
        A + shift I when the pairs are exact eigenpairs and the rest of A's
        spectrum is zero; shift must be positive."""
        V, scale = self.vectors, 1.0 / (self.values + shift) - 1.0 / shift

        def apply(r):
            return r / shift + V @ (scale * (V.T @ r))

        return apply


def ritz_pairs(cg: CGResult, floor, cap) -> RitzPairs:
    """Rayleigh-Ritz for a symmetric A on the Krylov space of an
    unpreconditioned conjugate_gradient run, from what the run returned:
    the eigenpairs (theta, y) of its T_k (scipy.linalg.eigh_tridiagonal),
    the vectors mapped through its orthonormal basis, sum_j y_j v_j.  No
    application of A is made.  Returns the pairs whose value is above
    floor, the largest first, at most cap of them.
    """
    theta, Y = scipy.linalg.eigh_tridiagonal(cg.alphas, cg.betas)
    top = np.flatnonzero(theta > floor)[::-1][:cap]
    return RitzPairs(theta[top], cg.basis.T @ Y[:, top])


def lanczos(apply, b, size, preconditioner=None):
    """The Lanczos process on a symmetric A from a nonzero b: a generator of
    at most size steps.

    Step k applies A once, apply(z_k) returning A z_k, and yields
    (V, Z, alphas, betas, norm_w).  The rows of V are the Lanczos vectors
    v_1 = b / beta_0, ..., v_k, those of Z the vectors A was applied to;
    alphas holds T_k's diagonal and betas beta_0, then beta_j coupling v_j
    and v_{j+1}, k values in all; norm_w is the 2-norm of the remainder
    w_k = A z_k - V_k h_k left after v_k is made orthogonal to all earlier
    vectors by classical Gram-Schmidt done twice, so converged Ritz values
    are not found again (Greenbaum & Strakos, SIAM J. Matrix Anal. Appl.
    13(1), 1992).  Without a preconditioner Z is V, A V_k = V_k T_k +
    w_k e_k', and norm_w |e_k' y| bounds the residual of the Ritz pair of
    T_k's eigenpair (theta, y) (Parlett, The Symmetric Eigenvalue Problem,
    SIAM 1998, ch. 13).  The Krylov space is invariant when k = len(b) or
    when the second Gram-Schmidt pass takes more than half of what the
    first left (that remainder was rounding inside the span; Parlett 6.9):
    norm_w is then 0, and the process ends after that step.  A remainder is
    normalized into the next vector only when the caller resumes.  V and Z
    are views of the process's own arrays and alphas and betas its own
    lists, which grow when it resumes; a caller keeping them copies them.

    preconditioner, a callable r -> M^-1 r with M SPD, makes the v_k
    M^-1-orthonormal: the Gram-Schmidt inner products are taken against the
    applied vectors z_k = M^-1 v_k, and beta_j = sqrt(w' M^-1 w).

    Raises NonFiniteBreakdown on a non-finite alpha or norm_w and on a
    w' M^-1 w <= 0 (M not positive definite).
    """

    def normalized(w, norm_w):
        """(beta, w / beta, M^-1 w / beta), beta the M^-1-norm of w; norm_w,
        its 2-norm, is beta without a preconditioner."""
        if preconditioner is None:
            v = w / norm_w
            return norm_w, v, v
        mw = np.asarray(preconditioner(w), dtype=float)
        square = float(np.dot(w, mw))
        if not (math.isfinite(square) and square > 0.0):
            raise NonFiniteBreakdown(f"preconditioner not positive definite: <r,M^-1 r> = {square:.3e}")
        beta = math.sqrt(square)
        return beta, w / beta, mw / beta

    V = np.empty((size, b.size))
    Z = V if preconditioner is None else np.empty_like(V)
    alphas, betas = [], []
    w, norm_w = b, float(np.linalg.norm(b))
    for k in range(size):
        beta, V[k], Z[k] = normalized(w, norm_w)
        betas.append(beta)
        u = np.asarray(apply(Z[k]), dtype=float)
        h = Z[:k + 1] @ u
        w = u - h @ V[:k + 1]
        left = float(np.linalg.norm(w))
        h2 = Z[:k + 1] @ w
        w -= h2 @ V[:k + 1]
        alphas.append(float(h[k] + h2[k]))
        norm_w = float(np.linalg.norm(w))
        if k + 1 == b.size or norm_w < 0.5 * left:  # w was rounding inside the span: invariant
            norm_w = 0.0
        if not (math.isfinite(alphas[k]) and math.isfinite(norm_w)):
            raise NonFiniteBreakdown("non-finite Lanczos coefficient")
        yield V[:k + 1], Z[:k + 1], alphas, betas, norm_w
        if norm_w == 0.0:
            return


def conjugate_gradient(apply, b, tol_rel=1e-10, max_iter=500, shifts=(0.0,),
                       preconditioner=None) -> CGResult:
    """Multi-shift CG: solves (A + s I) x = b for every s in shifts.

    apply(v, r) returns A v for a symmetric A; A + s I must be positive
    definite for every s.  This is CG in its Lanczos form (Saad, Iterative
    Methods for Sparse Linear Systems, 2nd ed., 2003, 6.7.1): one lanczos
    run on A from b, at most max_iter steps, builds the orthonormal v_k and
    the tridiagonal T_k (alpha_k on the diagonal, beta_k beside it); its
    full reorthogonalization keeps the iteration count from drifting with
    rounding.  T_k + s I is T_k shifted, so every shift follows its own
    LDL' factorization at O(1) per iteration: the pivots
    d_k = alpha_k + s - beta_{k-1}^2 / d_{k-1} and z_k = -beta_{k-1} z_{k-1}
    / d_{k-1}, z_1 = ||b||.  The residual of x_k = V_k y_k, y_k solving
    (T_k + s I) y_k = ||b|| e_1, is |z_k / d_k| ||w_k||, w_k being the
    step's remainder; a shift stops once that is at most tol_rel ||b||, and
    y from one back substitution is its coefficients over the applied
    vectors.  On an invariant Krylov space ||w_k|| = 0, and every shift
    still running is solved exactly.  In exact arithmetic the iterates are
    CG's.  The result also returns the run's basis and T_k.

    preconditioner, a callable r -> M^-1 r with M SPD, runs the same process
    on M^-1 (A + s I) in the M inner product (Saad, 9.2) for the single
    shift it takes (a preconditioner breaks the shift invariance, so with
    several shifts it raises ValueError): lanczos with the preconditioner
    on A + s I, whose v_k are M^-1-orthonormal, so the shift goes into the
    product (A + s I) M^-1 v_k and T_k is left unshifted.  The residual
    |z_k / d_k| ||w_k|| and the stop rule stay unpreconditioned, so tol_rel
    keeps its meaning.

    r, handed to every apply, is the relative residual the run has
    reached: 1 at the first apply, then the residual |z_k / d_k| ||w_k|| /
    ||b|| of the unshifted recurrence (s = 0) on the same T_k, so an
    inexact apply may work more loosely as r falls (Simoncini & Szyld,
    SIAM J. Sci. Comput. 25(2), 2003).  r does not depend on the shifts,
    and a sweep hands apply what each of its single-shift runs would.
    Under a preconditioner T_k already holds the one shift, and r is that
    shift's own residual.  From a pivot d_k <= 0 of the unshifted
    recurrence on, r stays 1.

    Raises MaxIterations carrying the best iterate of every shift (from its
    smallest residual), every history and the iteration each shift
    converged at (None for those that missed), NonFiniteBreakdown on a
    non-finite scalar, a pivot d_k <= 0 (A + s I not positive definite) or
    a w' M^-1 w <= 0 (M not positive definite).
    """
    b = np.asarray(b, dtype=float)
    shifts = [float(s) for s in np.atleast_1d(shifts)]
    m, n = len(shifts), b.size
    if preconditioner is not None and m != 1:
        raise ValueError(f"a preconditioner takes a single shift, not {m}")
    norm_b = float(np.linalg.norm(b))
    if norm_b == 0.0:
        return CGResult([np.zeros_like(b) for _ in range(m)], 0, [[0.0] for _ in range(m)], [0] * m,
                        np.zeros((m, 0)), np.zeros((0, n)), np.zeros(0), np.zeros(0))
    diagonal = shifts if preconditioner is None else [0.0]  # what each shift adds to T_k's diagonal
    reached = 1.0  # the relative residual of the unshifted recurrence, which every apply gets
    unshifted = None  # that recurrence's last pivot and z, None once a pivot was not positive

    def operator(z):
        az = apply(z, reached)
        return az if preconditioner is None else np.asarray(az, dtype=float) + shifts[0] * z

    size = min(max_iter, n)
    pivots = [[] for _ in range(m)]  # d_k of each shift
    zs = [[] for _ in range(m)]  # z_k of each shift
    histories = [[1.0] for _ in range(m)]
    shift_iterations = [None] * m
    coefficients = np.zeros((m, size))
    xs = [None] * m
    active = list(range(m))

    def solution(i, k):
        """y of shift i after k iterations, by back substitution through L'."""
        d = np.array(pivots[i][:k])
        y = np.array(zs[i][:k]) / d
        for j in range(k - 2, -1, -1):
            y[j] -= betas[j + 1] / d[j] * y[j + 1]
        return y

    def ldl(k, diag, last):
        """(d_k, z_k) of the LDL' recurrence of T_k + diag I, last being (d_{k-1}, z_{k-1})."""
        if not k:
            return alphas[0] + diag, betas[0]
        return alphas[k] + diag - betas[k] ** 2 / last[0], -betas[k] / last[0] * last[1]

    for k, (V, Z, alphas, betas, norm_w) in enumerate(lanczos(operator, b, size, preconditioner)):
        if k == 0 or unshifted is not None:
            d, z = ldl(k, 0.0, unshifted)
            unshifted = (d, z) if 0.0 < d < math.inf and math.isfinite(z) else None
            reached = 1.0 if unshifted is None else norm_w * abs(z / d) / norm_b
        for i in list(active):
            d, z = ldl(k, diagonal[i], (pivots[i][-1], zs[i][-1]) if k else None)
            if not d > 0.0:
                raise NonFiniteBreakdown(f"operator not positive definite: pivot {d:.3e} "
                                         f"at shift {shifts[i]:.3e}")
            if not math.isfinite(d) or not math.isfinite(z):
                raise NonFiniteBreakdown("non-finite shift recurrence in CG")
            pivots[i].append(d)
            zs[i].append(z)
            histories[i].append(norm_w * abs(z / d) / norm_b)
            if histories[i][-1] <= tol_rel:
                active.remove(i)
                shift_iterations[i] = k + 1
                coefficients[i, :k + 1] = solution(i, k + 1)
                xs[i] = coefficients[i, :k + 1] @ Z
        if not active:
            return CGResult(xs, k + 1, histories, shift_iterations, coefficients[:, :k + 1].copy(),
                            V, np.array(alphas), np.array(betas[1:]))
    best = []
    for i, history in enumerate(histories):
        k = int(np.argmin(history))
        best.append(solution(i, k) @ Z[:k] if k else np.zeros(n))  # k = 0: the zero start
    worst = max(min(history) for history in histories)
    raise MaxIterations(
        f"CG did not reach tol {tol_rel:.1e} in {max_iter} iterations on "
        f"{len(active)} of {m} shifts (largest best residual {worst:.3e})",
        best=best,
        iterations=max_iter,
        history=histories,
        shifts=shifts,
        shift_iterations=shift_iterations,
    )


def contraction_estimate(history):
    """rho-hat: the largest ratio between consecutive changes of a
    fixed-point history, or nan with fewer than two changes."""
    ratios = [b / max(a, TINY) for a, b in zip(history, history[1:])]
    return max(ratios) if ratios else math.nan


def iterate(sweep, x, tol_rel, max_iter, name, diverged=ContractionFailure, error_bound=False):
    """Fixed-point driver: x <- sweep(x) until the change is small.

    sweep(x) returns (x_next, change, scale); change is None when the sweep
    has nothing to compare against yet, and such a sweep is not recorded.
    Stops when change <= tol_rel * scale or change == 0 and returns
    (x_next, iterations, history of recorded changes).  With error_bound,
    for a sweep that is an affine contraction, the loop also stops on
    Banach's a-posteriori bound rho/(1 - rho) * change <= tol_rel * scale
    on the distance of x_next to the fixed point, rho being the history's
    contraction_estimate; that needs two recorded changes and a rho below
    RHO_CAP.  Raises `diverged`
    (a ContractionFailure) on a non-finite change or after PATIENCE
    consecutive growing changes, MaxIterations carrying the last iterate
    otherwise.
    """
    history = []
    streak = 0
    for it in range(1, max_iter + 1):
        x, change, scale = sweep(x)
        if change is None:
            continue
        history.append(change)
        if not math.isfinite(change):
            raise diverged(f"{name} diverged to non-finite values at sweep {it}",
                           ratio=math.inf, iterations=it)
        if len(history) > 1 and change > history[-2]:
            streak += 1
            if streak >= PATIENCE:
                ratio = change / max(history[-2], TINY)
                raise diverged(f"{name} change grew {streak} consecutive sweeps "
                               f"(last ratio {ratio:.3g})", ratio=ratio, iterations=it)
        else:
            streak = 0
        if change <= tol_rel * scale or change == 0.0:
            return x, it, history
        if error_bound:
            rho = contraction_estimate(history)  # nan, failing the cap, before two changes
            if rho < RHO_CAP and rho / (1.0 - rho) * change <= tol_rel * scale:
                return x, it, history
    raise MaxIterations(f"{name} did not converge in {max_iter} sweeps",
                        best=x, iterations=max_iter, history=history)
