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
    recurrence residuals |zeta_k| ||r_k|| / ||b|| for k = 0..shift_iterations[i]
    (under a preconditioner, ||r_k|| / ||b||: never the preconditioned norm).
    coefficients, shape (len(xs), iterations), writes each solution in the
    directions CG applied the operator to: x_i = sum_k coefficients[i, k] d_k,
    d_k being the k-th argument of apply, to rounding; preconditioned or
    not, those are the search directions p_k.
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


def _curvature(p, Ap):
    """<p, A p>, raising NonFiniteBreakdown unless it is finite and positive."""
    denom = float(np.dot(p, Ap))
    if not np.isfinite(denom) or denom <= 0.0:
        if denom <= 0.0 and np.isfinite(denom):
            raise NonFiniteBreakdown(f"operator not positive definite: <p,Ap> = {denom:.3e}")
        raise NonFiniteBreakdown("non-finite curvature in CG")
    return denom


def conjugate_gradient(apply, b, tol_rel=1e-10, max_iter=500, shifts=(0.0,),
                       preconditioner=None) -> CGResult:
    """Multi-shift CG: solves (A + s I) x = b for every s in shifts.

    apply(p) returns A p.  One Krylov sequence runs on the base system, the
    smallest shift, which must be SPD.  Shifted residuals are collinear with
    the base residual, r_k(s) = zeta_k(s) r_k, so every other shift follows
    through the zeta recurrences (Jegerlehner, hep-lat/9612014) at O(n) per
    shift per iteration and stops once its residual is below tol_rel.  On
    the base shift zeta is exactly 1, so a single shift is plain CG, bit for
    bit.  The xs and ps updates also run on coefficient vectors over the
    applied directions p_k, with r_k = p_k - beta_{k-1} p_{k-1}, which gives
    CGResult.coefficients and leaves xs bit for bit as they were.  Raises
    MaxIterations carrying the best iterate of every shift,
    every history and the iteration each shift converged at (None for those
    that missed), NonFiniteBreakdown on any non-finite scalar.

    preconditioner, a callable r -> M^-1 r with M SPD, makes it
    preconditioned CG on the single shift it takes (a preconditioner breaks
    the shift invariance, so with several shifts it raises ValueError).  Its
    histories are still the unpreconditioned recurrence residuals
    ||r_k|| / ||b|| and it stops on them, so tol_rel keeps its meaning; its
    coefficients are the step lengths, x = sum_k alpha_k p_k.
    """
    b = np.asarray(b, dtype=float)
    shifts = np.asarray(shifts, dtype=float)
    m = len(shifts)
    if preconditioner is not None and m != 1:
        raise ValueError(f"a preconditioner takes a single shift, not {m}")
    norm_b = float(np.linalg.norm(b))
    if norm_b == 0.0:
        return CGResult([np.zeros_like(b) for _ in range(m)], 0, [[0.0] for _ in range(m)], [0] * m,
                        np.zeros((m, 0)))
    if preconditioner is not None:
        return _preconditioned_cg(apply, b, norm_b, tol_rel, max_iter, float(shifts[0]), preconditioner)
    base_shift = float(shifts.min())
    rel_shift = shifts - base_shift
    r = b.copy()
    p = r.copy()
    rs = float(np.dot(r, r))
    rel0 = np.sqrt(rs) / norm_b
    xs = np.zeros((m, b.size))
    ps = np.tile(b, (m, 1))
    gx = np.zeros((m, max_iter + 1))  # xs and ps in the directions p_0, p_1, ...
    gp = np.zeros((m, max_iter + 1))
    gp[:, 0] = 1.0
    zeta = np.ones(m)
    zeta_old = np.ones(m)
    alpha_old, beta_old = 1.0, 0.0
    active = np.ones(m, dtype=bool)
    histories = [[rel0] for _ in range(m)]
    shift_iterations = [0] * m
    best_x, best_res = xs.copy(), np.full(m, rel0)
    for it in range(1, max_iter + 1):
        Ap = np.asarray(apply(p), dtype=float) + base_shift * p
        alpha = rs / _curvature(p, Ap)
        r = r - alpha * Ap
        rs_new = float(np.dot(r, r))
        if not np.isfinite(rs_new):
            raise NonFiniteBreakdown("non-finite residual in CG")
        beta = rs_new / rs
        act = np.flatnonzero(active)
        z, zo = zeta[act], zeta_old[act]
        z_new = z * zo * alpha_old / (alpha * beta_old * (zo - z)
                                      + zo * alpha_old * (1.0 + rel_shift[act] * alpha))
        if not np.all(np.isfinite(z_new)):
            raise NonFiniteBreakdown("non-finite shift recurrence in CG")
        xs[act] = xs[act] + (alpha * z_new / z)[:, None] * ps[act]
        ps[act] = z_new[:, None] * r + (beta * (z_new / z) ** 2)[:, None] * ps[act]
        gx[act] += (alpha * z_new / z)[:, None] * gp[act]
        gp[act] *= (beta * (z_new / z) ** 2)[:, None]
        gp[act, it] += z_new  # r = p_it - beta p_{it-1}
        gp[act, it - 1] -= z_new * beta
        zeta_old[act], zeta[act] = z, z_new
        rels = np.abs(z_new) * (np.sqrt(rs_new) / norm_b)
        for i, rel in zip(act, rels):
            histories[i].append(rel)
            if rel < best_res[i]:
                best_res[i], best_x[i] = rel, xs[i]
            if rel <= tol_rel:
                active[i] = False
                shift_iterations[i] = it
        if not active.any():
            return CGResult(list(xs), it, histories, shift_iterations, gx[:, :it].copy())
        p = r + beta * p
        rs = rs_new
        alpha_old, beta_old = alpha, beta
    raise MaxIterations(
        f"CG did not reach tol {tol_rel:.1e} in {max_iter} iterations on "
        f"{int(active.sum())} of {m} shifts (largest best residual {best_res.max():.3e})",
        best=list(best_x),
        iterations=max_iter,
        history=histories,
        shifts=[float(s) for s in shifts],
        shift_iterations=[None if a else k for a, k in zip(active, shift_iterations)],
    )


def _preconditioned_cg(apply, b, norm_b, tol_rel, max_iter, shift, preconditioner) -> CGResult:
    """conjugate_gradient's single-shift path under a preconditioner."""
    x = np.zeros_like(b)
    r = b.copy()
    p = preconditioner(r)
    rz = float(np.dot(r, p))
    history = [1.0]
    alphas = []
    best_x, best_res = x, 1.0
    for it in range(1, max_iter + 1):
        Ap = np.asarray(apply(p), dtype=float) + shift * p
        alpha = rz / _curvature(p, Ap)
        alphas.append(alpha)
        x = x + alpha * p
        r = r - alpha * Ap
        rel = float(np.linalg.norm(r)) / norm_b
        if not np.isfinite(rel):
            raise NonFiniteBreakdown("non-finite residual in CG")
        history.append(rel)
        if rel < best_res:
            best_res, best_x = rel, x
        if rel <= tol_rel:
            return CGResult([x], it, [history], [it], np.array([alphas]))
        z = preconditioner(r)
        rz_new = float(np.dot(r, z))
        if not np.isfinite(rz_new) or rz_new <= 0.0:
            raise NonFiniteBreakdown(f"preconditioner not positive definite: <r,M^-1 r> = {rz_new:.3e}")
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise MaxIterations(
        f"PCG did not reach tol {tol_rel:.1e} in {max_iter} iterations "
        f"(best residual {best_res:.3e})",
        best=[best_x], iterations=max_iter, history=[history], shifts=[shift],
        shift_iterations=[None],
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
