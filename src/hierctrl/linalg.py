"""Minimal sparse linear algebra behind the time steppers and HUM solver.

Direct factorizations are delegated to SuperLU (scipy.sparse.linalg.splu);
conjugate gradient, power iteration and the fixed-point driver are written
against callbacks so the HUM operator and the sweeps, which involve nested
PDE solves, plug in without ever being materialized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import ContractionFailure, MaxIterations, NonFiniteBreakdown, SingularMatrix

PIVOT_RTOL = 1e-14
PATIENCE = 10  # consecutive growing sweeps before a fixed point is declared divergent
TINY = 1e-300


@dataclass
class Factorization:
    """Immutable LU factorization; shareable across threads."""

    n: int
    _lu: object

    def solve(self, rhs, transpose=False):
        rhs = np.asarray(rhs, dtype=float)
        return self._lu.solve(rhs, trans="T" if transpose else "N")


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
    return Factorization(matrix.shape[0], lu)


@dataclass
class CGResult:
    x: np.ndarray
    iterations: int
    residuals: list


def conjugate_gradient(apply, b, tol_rel=1e-10, max_iter=500) -> CGResult:
    """CG against an SPD operator callback.

    Stops when the relative euclidean residual drops below tol_rel.
    Raises MaxIterations carrying the best iterate, NonFiniteBreakdown on
    any non-finite scalar.
    """
    b = np.asarray(b, dtype=float)
    norm_b = float(np.linalg.norm(b))
    if norm_b == 0.0:
        return CGResult(np.zeros_like(b), 0, [0.0])
    x = np.zeros_like(b)
    r = b.copy()
    p = r.copy()
    rs = float(np.dot(r, r))
    history = [np.sqrt(rs) / norm_b]
    best_x, best_res = x.copy(), history[0]
    for it in range(1, max_iter + 1):
        Ap = np.asarray(apply(p), dtype=float)
        denom = float(np.dot(p, Ap))
        if not np.isfinite(denom) or denom <= 0.0:
            if denom <= 0.0 and np.isfinite(denom):
                raise NonFiniteBreakdown(f"operator not positive definite: <p,Ap> = {denom:.3e}")
            raise NonFiniteBreakdown("non-finite curvature in CG")
        alpha = rs / denom
        x = x + alpha * p
        r = r - alpha * Ap
        rs_new = float(np.dot(r, r))
        if not np.isfinite(rs_new):
            raise NonFiniteBreakdown("non-finite residual in CG")
        rel = np.sqrt(rs_new) / norm_b
        history.append(rel)
        if rel < best_res:
            best_res, best_x = rel, x.copy()
        if rel <= tol_rel:
            return CGResult(x, it, history)
        p = r + (rs_new / rs) * p
        rs = rs_new
    raise MaxIterations(
        f"CG did not reach tol {tol_rel:.1e} in {max_iter} iterations (best {best_res:.3e})",
        best=best_x,
        iterations=max_iter,
        history=history,
    )


def iterate(sweep, x, tol_rel, max_iter, name, diverged=ContractionFailure):
    """Fixed-point driver: x <- sweep(x) until the change is small.

    sweep(x) returns (x_next, change, scale); change is None when the sweep
    has nothing to compare against yet, and such a sweep is not recorded.
    Stops when change <= tol_rel * scale or change == 0 and returns
    (x_next, iterations, history of recorded changes).  Raises `diverged`
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
    raise MaxIterations(f"{name} did not converge in {max_iter} sweeps",
                        best=x, iterations=max_iter, history=history)


@dataclass
class OperatorNormEstimate:
    value: float
    last_increment: float
    history: list


def operator_norm(apply, apply_adjoint, n, iters=50, seed=0) -> OperatorNormEstimate:
    """Largest singular value via power iteration on A*A.

    Rayleigh estimates are monotone nondecreasing; returns the final
    estimate together with the last relative increment.
    """
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(n)
    nv = float(np.linalg.norm(v))
    if nv == 0.0:
        return OperatorNormEstimate(0.0, 0.0, [])
    v /= nv
    history = []
    last_inc = 0.0
    for _ in range(iters):
        w = np.asarray(apply(v), dtype=float)
        sigma = float(np.linalg.norm(w))
        if sigma == 0.0:
            return OperatorNormEstimate(0.0, 0.0, history)
        if history:
            last_inc = (sigma - history[-1]) / max(sigma, 1e-300)
        history.append(sigma)
        z = np.asarray(apply_adjoint(w), dtype=float)
        nz = float(np.linalg.norm(z))
        if nz == 0.0:
            return OperatorNormEstimate(sigma, last_inc, history)
        v = z / nz
    return OperatorNormEstimate(history[-1], last_inc, history)
