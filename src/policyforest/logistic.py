"""Binary logistic regression via penalized maximum likelihood.

Inputs are standardized to zero mean / unit variance before fitting
(constant columns are dropped and recorded), so coefficient magnitudes
are comparable across features. The optimizer is damped Newton ascent
with a ridge penalty; each accepted step does not decrease the penalized
log-likelihood. Iteration stops when the gradient norm falls below
tolerance (the fit has converged) or when a step no longer raises the
penalized log-likelihood (ascent has reached float precision; the fit
reports converged only if the gradient test passes). Inputs must be
finite.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import PolicyforestError
from .dataset import EncodedMatrix, check_finite

SCHEMA_VERSION = 1


class LogisticError(PolicyforestError):
    """Raised for degenerate inputs or failed convergence."""


@dataclass(frozen=True)
class LogisticConfig:
    max_iters: int = 1000
    tolerance: float = 1e-8
    l2: float = 1e-6

    def __post_init__(self):
        if self.max_iters < 1:
            raise LogisticError(f"max_iters must be >= 1, got "
                                f"{self.max_iters}")
        if not (math.isfinite(self.tolerance) and self.tolerance > 0):
            raise LogisticError(f"tolerance must be finite and > 0, got "
                                f"{self.tolerance}")
        if not math.isfinite(self.l2):
            raise LogisticError(f"l2 must be finite, got {self.l2}")
        if self.l2 < 0:
            raise LogisticError(f"l2 must be >= 0, got {self.l2}")


@dataclass
class LogisticModel:
    beta: np.ndarray          # coefficients on the standardized scale
    intercept: float
    means: np.ndarray         # per retained column
    stds: np.ndarray
    column_names: list[str]   # retained columns, original order
    dropped_columns: list[str]
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


def penalized_log_likelihood(X_std: np.ndarray, y: np.ndarray,
                             beta: np.ndarray, intercept: float,
                             l2: float) -> float:
    """Sum of per-sample Bernoulli log-likelihoods minus (l2/2)|beta|^2."""
    p = sigmoid(intercept + X_std @ beta)
    return _penalized_ll(y, p, beta, l2)


def log_likelihood_gradient(X_std: np.ndarray, y: np.ndarray,
                            beta: np.ndarray, intercept: float,
                            l2: float) -> np.ndarray:
    """Gradient of the penalized log-likelihood, intercept term first.

    The ridge penalty applies to the coefficients only.
    """
    p = sigmoid(intercept + X_std @ beta)
    resid = y - p
    return np.concatenate(([resid.sum()], X_std.T @ resid - l2 * beta))


def fit(matrix: EncodedMatrix,
        config: LogisticConfig = LogisticConfig()) -> LogisticModel:
    """Maximum-likelihood fit with standardization; deterministic
    (zero initialization)."""
    X, y = matrix.X, matrix.y.astype(float)
    n = X.shape[0]
    if n < 2:
        raise LogisticError(f"need at least 2 samples, got {n}")
    if y.sum() == 0 or y.sum() == n:
        raise LogisticError("training labels contain a single class")
    check_finite(X, LogisticError)

    stds_all = X.std(axis=0)
    keep = stds_all > 0
    dropped = [name for name, k in zip(matrix.column_names, keep) if not k]
    names = [name for name, k in zip(matrix.column_names, keep) if k]
    means = X[:, keep].mean(axis=0)
    stds = stds_all[keep]
    Z = (X[:, keep] - means) / stds

    m = Z.shape[1]
    theta = np.zeros(m + 1)  # [intercept, beta]
    pen = np.concatenate(([0.0], np.full(m, config.l2)))
    A = np.hstack([np.ones((n, 1)), Z])

    # p and ll always belong to the current theta: the line search
    # computes them for the step it accepts.
    p = sigmoid(A @ theta)
    ll = _penalized_ll(y, p, theta[1:], config.l2)
    history: list[float] = []
    converged = False
    for _ in range(config.max_iters):
        history.append(ll)
        grad = A.T @ (y - p) - pen * theta
        if np.linalg.norm(grad) < config.tolerance:
            converged = True
            break
        # The line search only accepts steps that do not lower ll (short
        # of its 2**-60 fallback), so an ll no higher than the last one
        # means ascent has hit float precision: later steps would only
        # move theta in its last bits.
        if len(history) > 1 and ll <= history[-2]:
            break
        w = np.maximum(p * (1 - p), 1e-10)
        H = (A * w[:, None]).T @ A + np.diag(pen + 1e-12)
        step = np.linalg.solve(H, grad)
        # Halve the step until the penalized log-likelihood does not drop;
        # after 60 halvings take the step 2**-60 as it is.
        scale = 1.0
        for halvings in range(61):
            cand = theta + scale * step
            p_c = sigmoid(A @ cand)
            ll_c = _penalized_ll(y, p_c, cand[1:], config.l2)
            if ll_c >= ll or halvings == 60:
                break
            scale *= 0.5
        theta, p, ll = cand, p_c, ll_c
        # Unpenalized likelihood on separable data has no finite optimum:
        # the gradient vanishes as |beta| grows, so flag runaway
        # coefficients instead of reporting a spurious convergence.
        if config.l2 == 0 and np.linalg.norm(theta[1:]) > 20.0:
            raise LogisticError(
                "coefficients diverging: data appear perfectly separable; "
                "refit with l2 > 0")

    if not converged:
        grad = A.T @ (y - p) - pen * theta
        converged = bool(np.linalg.norm(grad) < config.tolerance)
        if not converged and config.l2 == 0:
            raise LogisticError(
                "did not converge: possible perfect separation; refit with "
                "l2 > 0")

    return LogisticModel(beta=theta[1:], intercept=float(theta[0]),
                         means=means, stds=stds, column_names=names,
                         dropped_columns=dropped, ll_history=history,
                         converged=converged)


def predict_proba(model: LogisticModel, rows: np.ndarray,
                  input_columns: list[str] | None = None):
    """sigma(intercept + beta . standardize(row)).

    Accepts a single row or a matrix whose columns are the model's
    retained columns; pass input_columns when the input still includes
    columns that were dropped as constant at fit time.
    """
    rows = np.asarray(rows, dtype=float)
    single = rows.ndim == 1
    if single:
        rows = rows[None, :]
    check_finite(rows, LogisticError)
    if input_columns is not None and input_columns != model.column_names:
        try:
            sel = [input_columns.index(c) for c in model.column_names]
        except ValueError as e:
            raise LogisticError(f"input columns missing model column: {e}")
        rows = rows[:, sel]
    if rows.shape[1] != len(model.column_names):
        raise LogisticError(f"row arity {rows.shape[1]} does not match model "
                            f"feature count {len(model.column_names)}")
    z = (rows - model.means) / model.stds
    p = sigmoid(model.intercept + z @ model.beta)
    return float(p[0]) if single else p


def coefficient_ranking(model: LogisticModel) -> list[tuple[str, float]]:
    """Features sorted by descending |beta| (standardized scale); ties
    break toward the lower feature index."""
    mags = np.abs(model.beta)
    order = sorted(range(len(mags)), key=lambda i: (-mags[i], i))
    return [(model.column_names[i], float(mags[i])) for i in order]


def logistic_to_json(model: LogisticModel) -> str:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "kind": "logistic",
        "column_names": model.column_names,
        "dropped_columns": model.dropped_columns,
        "beta": list(model.beta),
        "intercept": model.intercept,
        "means": list(model.means),
        "stds": list(model.stds),
        "converged": model.converged,
    }
    return json.dumps(doc, sort_keys=True)


def logistic_from_json(text: str) -> LogisticModel:
    doc = json.loads(text)
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise LogisticError(f"unsupported schema version "
                            f"{doc.get('schema_version')!r}")
    return LogisticModel(beta=np.asarray(doc["beta"]),
                         intercept=doc["intercept"],
                         means=np.asarray(doc["means"]),
                         stds=np.asarray(doc["stds"]),
                         column_names=doc["column_names"],
                         dropped_columns=doc["dropped_columns"],
                         ll_history=[], converged=doc["converged"])
