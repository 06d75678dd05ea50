"""Binary logistic regression via penalized maximum likelihood.

Inputs are standardized to zero mean / unit variance before fitting
(constant columns are dropped and marked in `kept`), so coefficient magnitudes
are comparable across features. The optimizer is damped Newton ascent
with a ridge penalty; each accepted step does not decrease the penalized
log-likelihood. Iteration stops when the gradient norm falls below
tolerance (the fit has converged) or when a step no longer raises the
penalized log-likelihood (ascent has reached float precision; the fit
reports converged only if the gradient test passes). Inputs must be
finite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import PolicyforestError
from .dataset import EncodedMatrix, check_finite


class LogisticError(PolicyforestError):
    """Raised for degenerate inputs."""


# Newton iteration cap, gradient-norm convergence tolerance, and the ridge
# penalty on the standardized coefficients (not the intercept).
MAX_ITERS = 1000
TOLERANCE = 1e-8
L2 = 1e-6

# Rows per block of the Hessian sum. A product of so few rows sums each
# cell in one pass whatever the BLAS thread count (larger blocks did not),
# so the fit's bytes do not depend on it.
HESSIAN_ROWS = 64


@dataclass
class LogisticModel:
    beta: np.ndarray          # coefficients on the standardized scale
    intercept: float
    means: np.ndarray         # per kept column
    stds: np.ndarray
    column_names: list[str]   # the fit matrix's columns
    kept: np.ndarray          # per column: False where dropped as constant
    ll_history: list[float]   # penalized log-likelihood per iteration
    converged: bool


def sigmoid(s):
    """Standard logistic 1/(1+exp(-s)), overflow-safe for large |s|."""
    s = np.asarray(s, dtype=float)
    out = np.empty_like(s)
    pos = s >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-s[pos]))
    es = np.exp(s[~pos])
    out[~pos] = es / (1.0 + es)
    return float(out) if out.ndim == 0 else out


def _penalized_ll(y, p, beta, l2):
    eps = 1e-12
    ll = float(np.sum(y * np.log(p + eps) + (1 - y) * np.log(1 - p + eps)))
    return ll - 0.5 * l2 * float(beta @ beta)


def _gradient(A: np.ndarray, y: np.ndarray, p: np.ndarray, theta: np.ndarray,
              pen: np.ndarray) -> np.ndarray:
    """Gradient of _penalized_ll at theta = [intercept, beta] over the
    design A = [1, Z], with p = sigmoid(A @ theta) and pen the ridge per
    entry of theta (0 for the intercept)."""
    return A.T @ (y - p) - pen * theta


def _hessian(A: np.ndarray, w: np.ndarray) -> np.ndarray:
    """(A * w[:, None]).T @ A, summed over blocks of HESSIAN_ROWS rows in
    row order."""
    H = np.zeros((A.shape[1], A.shape[1]))
    for b in range(0, len(A), HESSIAN_ROWS):
        block = A[b:b + HESSIAN_ROWS]
        H += (block * w[b:b + HESSIAN_ROWS, None]).T @ block
    return H


def fit(matrix: EncodedMatrix) -> LogisticModel:
    """Maximum-likelihood fit with standardization; deterministic
    (zero initialization)."""
    # One layout for every input: column means and stds sum in an order
    # that depends on it.
    X, y = np.ascontiguousarray(matrix.X), matrix.y.astype(float)
    n = X.shape[0]
    if n < 2:
        raise LogisticError(f"need at least 2 samples, got {n}")
    if y.sum() == 0 or y.sum() == n:
        raise LogisticError("training labels contain a single class")
    check_finite(X, LogisticError)

    stds_all = X.std(axis=0)
    kept = stds_all > 0
    means = X[:, kept].mean(axis=0)
    stds = stds_all[kept]
    Z = (X[:, kept] - means) / stds

    m = Z.shape[1]
    theta = np.zeros(m + 1)  # [intercept, beta]
    pen = np.concatenate(([0.0], np.full(m, L2)))
    # C order, so that _hessian's row blocks are contiguous: hstack alone
    # gives F order, as Z has.
    A = np.ascontiguousarray(np.hstack([np.ones((n, 1)), Z]))

    # p and ll always belong to the current theta: the line search
    # computes them for the step it accepts.
    p = sigmoid(A @ theta)
    ll = _penalized_ll(y, p, theta[1:], L2)
    history: list[float] = []
    converged = False
    for _ in range(MAX_ITERS):
        history.append(ll)
        grad = _gradient(A, y, p, theta, pen)
        if np.linalg.norm(grad) < TOLERANCE:
            converged = True
            break
        # The line search only accepts steps that do not lower ll (short
        # of its 2**-60 fallback), so an ll no higher than the last one
        # means ascent has hit float precision: later steps would only
        # move theta in its last bits.
        if len(history) > 1 and ll <= history[-2]:
            break
        w = np.maximum(p * (1 - p), 1e-10)
        H = _hessian(A, w) + np.diag(pen + 1e-12)
        step = np.linalg.solve(H, grad)
        # Halve the step until the penalized log-likelihood does not drop;
        # after 60 halvings take the step 2**-60 as it is.
        scale = 1.0
        for halvings in range(61):
            cand = theta + scale * step
            p_c = sigmoid(A @ cand)
            ll_c = _penalized_ll(y, p_c, cand[1:], L2)
            if ll_c >= ll or halvings == 60:
                break
            scale *= 0.5
        theta, p, ll = cand, p_c, ll_c

    if not converged:
        grad = _gradient(A, y, p, theta, pen)
        converged = bool(np.linalg.norm(grad) < TOLERANCE)

    return LogisticModel(beta=theta[1:], intercept=float(theta[0]),
                         means=means, stds=stds,
                         column_names=list(matrix.column_names), kept=kept,
                         ll_history=history, converged=converged)


def predict_proba(model: LogisticModel, rows: np.ndarray) -> np.ndarray:
    """sigma(intercept + beta . standardize(row)) for each row of the 2-D
    matrix rows, in the layout of the matrix the model was fit on."""
    rows = np.asarray(rows, dtype=float)
    check_finite(rows, LogisticError)
    if rows.shape[1] != len(model.column_names):
        raise LogisticError(f"row arity {rows.shape[1]} does not match model "
                            f"feature count {len(model.column_names)}")
    if not model.kept.all():
        rows = rows[:, model.kept]
    z = (rows - model.means) / model.stds
    return sigmoid(model.intercept + z @ model.beta)
