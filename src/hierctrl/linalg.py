"""Minimal linear algebra behind the time steppers and HUM solver.

Direct factorizations are delegated to SuperLU (scipy.sparse.linalg.splu);
stacks of small matrices are inverted densely from one LAPACK LU per
matrix, which also carries the pivot check, and small symmetric matrices
are diagonalized.  Conjugate gradient and the fixed-point driver are
written against callbacks so the HUM operator and the sweeps, which
involve nested PDE solves, plug in without ever being materialized.
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

    def solve(self, rhs, transpose=False, out=None):
        """Solve with the matrix or its transpose; rhs is (n,) or (n, k), one
        column per system.  The solution is written to out when given."""
        rhs = np.asarray(rhs, dtype=float)
        x = self._lu.solve(rhs, trans="T" if transpose else "N")
        if out is None:
            return x
        out[...] = x
        return out


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


def _checked_lu(stack):
    """LAPACK getrf factors (lu, piv) of every matrix in an (L, n, n) stack.

    Applies factorize's rule to each matrix: a pivot below PIVOT_RTOL times
    the matrix's largest entry, a zero matrix or a non-finite entry raises
    SingularMatrix naming the matrix.
    """
    stack = np.asarray(stack, dtype=float)
    scale = np.abs(stack).max(axis=(1, 2))
    bad = np.flatnonzero(~np.isfinite(scale) | (scale == 0.0))
    if bad.size:
        raise SingularMatrix(f"matrix {bad[0]} of the stack is zero or not finite")
    factors = [scipy.linalg.lapack.dgetrf(matrix)[:2] for matrix in stack]
    pivots = np.abs([lu.diagonal() for lu, _ in factors]).min(axis=1)
    bad = np.flatnonzero(pivots < PIVOT_RTOL * scale)
    if bad.size:
        raise SingularMatrix(f"matrix {bad[0]} of the stack: pivot {pivots[bad[0]]:.3e} "
                             f"below {PIVOT_RTOL:.0e}*scale")
    return factors


def invert_stack(stack) -> np.ndarray:
    """The inverse of every matrix in an (L, n, n) stack, as an (L, n, n) array.

    Each matrix is factored once (getrf), checked by _checked_lu's rule and
    inverted from those factors (getri).
    """
    return np.array([scipy.linalg.lapack.dgetri(lu, piv)[0] for lu, piv in _checked_lu(stack)])


class Modes(NamedTuple):
    """Orthonormal eigenvectors Q (columns) of a symmetric matrix and its
    reciprocal eigenvalues w: the matrix's inverse is Q diag(w) Q'."""

    Q: np.ndarray
    w: np.ndarray


def symmetric_modes(matrix) -> Modes:
    """Modes of a symmetric matrix.  It passes _checked_lu's rule first, so a
    singular matrix raises SingularMatrix as in invert_stack."""
    _checked_lu(matrix[None])
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
    """

    xs: list
    iterations: int
    histories: list
    shift_iterations: list
    coefficients: np.ndarray


class RitzPairs(NamedTuple):
    """Ritz values (descending) and orthonormal Ritz vectors (columns) of a
    symmetric operator on a subspace (ritz_pairs)."""

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


def ritz_pairs(directions, products, floor, cap) -> RitzPairs:
    """Rayleigh-Ritz for a symmetric A on the span of directions.

    directions is a (k, n) array of vectors d_j and products holds A d_j in
    the same layout, so no application of A is made.  The directions are
    orthonormalized by an SVD that drops singular values below 1e-10 times
    the largest, so a rank-deficient set is harmless.  Returns the pairs
    whose value is above floor, the largest first, at most cap of them.
    """
    D = np.asarray(directions, dtype=float).T
    AD = np.asarray(products, dtype=float).T
    U, s, Wt = np.linalg.svd(D, full_matrices=False)
    keep = s > 1e-10 * s[0]
    Q = U[:, keep]
    AQ = AD @ (Wt[keep].T / s[keep])
    H = Q.T @ AQ
    theta, Y = np.linalg.eigh(0.5 * (H + H.T))
    top = np.flatnonzero(theta > floor)[::-1][:cap]
    return RitzPairs(theta[top], Q @ Y[:, top])


def conjugate_gradient(apply, b, tol_rel=1e-10, max_iter=500, shifts=(0.0,),
                       preconditioner=None) -> CGResult:
    """Multi-shift CG: solves (A + s I) x = b for every s in shifts.

    apply(v) returns A v for a symmetric A; A + s I must be positive
    definite for every s.  This is CG in its Lanczos form (Saad, Iterative
    Methods for Sparse Linear Systems, 2nd ed., 2003, 6.7.1).  One Lanczos
    run on A builds the orthonormal vectors v_1 = b/||b||, v_2, ... and the
    tridiagonal T_k (alpha_k on the diagonal, beta_k beside it); each vector
    is applied to A once and kept orthonormal to all earlier ones by
    classical Gram-Schmidt done twice, so converged Ritz values are not
    found again and the iteration count does not drift with rounding
    (Greenbaum & Strakos, SIAM J. Matrix Anal. Appl. 13(1), 1992).
    T_k + s I is T_k shifted, so every shift follows its own LDL'
    factorization at O(1) per iteration: the pivots
    d_k = alpha_k + s - beta_{k-1}^2 / d_{k-1} and z_k = -beta_{k-1} z_{k-1}
    / d_{k-1}, z_1 = ||b||.  The residual of x_k = V_k y_k, y_k solving
    (T_k + s I) y_k = ||b|| e_1, is |z_k / d_k| ||w_k||, w_k being what the
    Gram-Schmidt passes leave; a shift stops once that is at most
    tol_rel ||b||, and y from one back substitution is its coefficients over
    the applied vectors.  The Krylov space is invariant when k = len(b) or
    when the second Gram-Schmidt pass takes more than half of what the first
    left (that remainder was rounding inside the span; Parlett, The
    Symmetric Eigenvalue Problem, 1998, 6.9); then beta_k = 0, and every
    shift still running is solved exactly.  In exact arithmetic the iterates
    are CG's.

    preconditioner, a callable r -> M^-1 r with M SPD, runs the same process
    on M^-1 (A + s I) in the M inner product (Saad, 9.2) for the single
    shift it takes (a preconditioner breaks the shift invariance, so with
    several shifts it raises ValueError).  The v_k are M^-1-orthonormal:
    the Gram-Schmidt inner products are taken against the vectors M^-1 v_k
    that apply receives, z_1 = sqrt(b' M^-1 b), v_1 = b / z_1 and
    beta_k = sqrt(w_k' M^-1 w_k).  The shift goes into the product
    (A + s I) M^-1 v_k and T_k is left unshifted.  The residual
    |z_k / d_k| ||w_k|| and the stop rule stay unpreconditioned, so tol_rel
    keeps its meaning.

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
                        np.zeros((m, 0)))

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

    size = min(max_iter, n)
    V = np.empty((max(size, 1), n))  # the Lanczos vectors v_k, one per row
    Z = V if preconditioner is None else np.empty_like(V)  # the applied vectors M^-1 v_k
    diagonal = shifts if preconditioner is None else [0.0]  # added to T_k's diagonal
    beta, V[0], Z[0] = normalized(b, norm_b)
    betas = [beta]  # beta_0 = z_1, then beta_k coupling v_k and v_{k+1}
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

    for k in range(size):
        u = np.asarray(apply(Z[k]), dtype=float)
        if preconditioner is not None:
            u = u + shifts[0] * Z[k]
        h = Z[:k + 1] @ u
        w = u - h @ V[:k + 1]
        left = float(np.linalg.norm(w))
        h2 = Z[:k + 1] @ w
        w -= h2 @ V[:k + 1]
        alpha = float(h[k] + h2[k])
        norm_w = float(np.linalg.norm(w))
        if k + 1 == n or norm_w < 0.5 * left:  # w was rounding inside the span: invariant
            norm_w = 0.0
        if not (math.isfinite(alpha) and math.isfinite(norm_w)):
            raise NonFiniteBreakdown("non-finite Lanczos coefficient in CG")
        for i in list(active):
            if k:
                last_d, last_z = pivots[i][-1], zs[i][-1]
                d, z = alpha + diagonal[i] - betas[-1] ** 2 / last_d, -betas[-1] / last_d * last_z
            else:
                d, z = alpha + diagonal[i], betas[0]
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
                xs[i] = coefficients[i, :k + 1] @ Z[:k + 1]
        if not active:
            return CGResult(xs, k + 1, histories, shift_iterations, coefficients[:, :k + 1].copy())
        if k + 1 < size:
            beta, V[k + 1], Z[k + 1] = normalized(w, norm_w)
            betas.append(beta)
    best = []
    for i, history in enumerate(histories):
        k = int(np.argmin(history))
        best.append(solution(i, k) @ Z[:k])
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
