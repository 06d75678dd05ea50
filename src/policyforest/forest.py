"""From-scratch CART trees and Random Forest ensemble for binary outcomes.

Trees split on `value <= threshold` using Gini impurity; the forest
averages leaf positive fractions. All randomness flows from per-tree seeds
derived deterministically from the config seed, so serial and parallel
fits produce identical models.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from functools import partial

import numpy as np

from .dataset import EncodedMatrix, check_finite

SCHEMA_VERSION = 1

_MASK64 = (1 << 64) - 1


def mix_seed(seed: int, index: int) -> int:
    """Derive a stream seed from (seed, index) via a splitmix64 round.

    Stable by construction: adding trees or runs never reshuffles the
    seeds of earlier ones.
    """
    z = (seed * 0x9E3779B97F4A7C15 + index + 1) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


class ForestError(ValueError):
    """Raised for invalid forest configuration or inputs."""


def map_ordered(fn, items, n_jobs: int = 1) -> list:
    """[fn(x) for x in items], on up to n_jobs worker processes.

    fn must pickle (a module-level function, or a functools.partial of one
    binding the shared inputs). The items are cut into one chunk per
    worker, so the shared inputs are sent once per worker, not once per
    item. Results come back in item order, so a caller that reduces them
    in order gets the same floats serially and in parallel. Workers are
    capped at the core count and the item count; fn must not call
    map_ordered with n_jobs > 1 itself.
    """
    if n_jobs < 1:
        raise ForestError(f"n_jobs must be >= 1, got {n_jobs}")
    items = list(items)
    workers = min(n_jobs, os.cpu_count() or 1, len(items))
    if workers <= 1:
        return [fn(x) for x in items]
    # Imported here: the pool costs import time and memory that serial
    # runs never need.
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items,
                             chunksize=math.ceil(len(items) / workers)))


# Impurity decreases at or below this are treated as zero gain (guards
# against float noise on splits that are exactly neutral).
GAIN_EPS = 1e-12


@dataclass(frozen=True)
class ForestConfig:
    n_trees: int = 500
    max_depth: int | None = None
    min_samples_leaf: int = 1
    features_per_split: int | str = "sqrt"  # "sqrt" -> ceil(sqrt(F))
    bootstrap: bool = True
    seed: int = 0

    def __post_init__(self):
        if self.n_trees < 1:
            raise ForestError(f"n_trees must be >= 1, got {self.n_trees}")
        if self.min_samples_leaf < 1:
            raise ForestError(f"min_samples_leaf must be >= 1, got "
                              f"{self.min_samples_leaf}")
        if isinstance(self.features_per_split, str):
            if self.features_per_split != "sqrt":
                raise ForestError(f"features_per_split must be a count or "
                                  f"'sqrt', got {self.features_per_split!r}")
        elif self.features_per_split < 1:
            raise ForestError("features_per_split must be >= 1")

    def resolve_features_per_split(self, n_features: int) -> int:
        if self.features_per_split == "sqrt":
            return min(n_features, math.ceil(math.sqrt(n_features)))
        if self.features_per_split > n_features:
            raise ForestError(f"features_per_split "
                              f"{self.features_per_split} exceeds feature "
                              f"count {n_features}")
        return self.features_per_split


@dataclass
class TreeNode:
    """Internal node (feature_index set) or leaf (feature_index None)."""

    feature_index: int | None = None
    threshold: float = 0.0
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None
    positive_fraction: float = 0.0
    n_samples: int = 0

    @property
    def is_leaf(self) -> bool:
        return self.feature_index is None


def gini_impurity(n_pos: int, n_neg: int) -> float:
    """Binary Gini impurity 1 - p^2 - (1-p)^2 = 2p(1-p)."""
    n = n_pos + n_neg
    if n < 1:
        raise ForestError("gini impurity of an empty node is undefined")
    p = n_pos / n
    return 2.0 * p * (1.0 - p)


@dataclass(frozen=True)
class BinnedMatrix:
    """A float matrix with each cell replaced by a bin number, built once
    and shared by every tree of a forest.

    A cell's bin is the rank of its value among its column's distinct
    values plus the bin count of all earlier columns, so bin order is
    feature-major and ascending in value within a column. `rows` are the
    rows of X that split search counts (a node's sample, with bootstrap
    repeats).
    """

    X: np.ndarray            # (n, F) float matrix the bins describe
    codes: np.ndarray        # (F, n) int32 bin of each cell
    bin_values: np.ndarray   # (n_bins,) value of each bin
    bin_feature: np.ndarray  # (n_bins,) column of each bin
    rows: np.ndarray

    @classmethod
    def of(cls, X: np.ndarray) -> "BinnedMatrix":
        X = np.asarray(X, dtype=float)
        check_finite(X, ForestError)
        n, n_features = X.shape
        codes = np.empty((n_features, n), dtype=np.int32)
        values, start = [], 0
        for f in range(n_features):
            vals = np.unique(X[:, f])
            codes[f] = np.searchsorted(vals, X[:, f]) + start
            values.append(vals)
            start += len(vals)
        bin_feature = np.repeat(np.arange(n_features),
                                [len(v) for v in values])
        # The leading empty array keeps a matrix without columns valid.
        return cls(X, codes, np.concatenate([np.empty(0), *values]),
                   bin_feature, np.arange(n))

    @property
    def n_features(self) -> int:
        return self.X.shape[1]

    def at(self, rows: np.ndarray) -> "BinnedMatrix":
        return BinnedMatrix(self.X, self.codes, self.bin_values,
                            self.bin_feature, rows)


def _cuts(view: BinnedMatrix, y: np.ndarray, n_pos: int, candidate_features):
    """Every cut between adjacent values present in the view's rows, over
    the candidate columns, in feature-major then ascending order.

    Returns (low bin, high bin, n_left, pos_left) per cut: the bins on
    either side of the cut and the row and positive counts at or below it.
    """
    n = len(y)
    cands = sorted({int(f) for f in candidate_features})
    keys = view.codes[cands].take(view.rows, axis=1)
    counts = np.bincount(keys.ravel())
    # y is 0/1, so compressing by it keeps the positive rows.
    pos = np.bincount(keys.compress(y, axis=1).ravel(), minlength=len(counts))
    present = counts.nonzero()[0]
    cum = counts[present].cumsum()
    # Each candidate column holds all n rows, so the running counts
    # restart every n rows: the j-th candidate's bins start at j * n.
    j = (cum - 1) // n
    n_left = cum - j * n
    pos_left = pos[present].cumsum() - j * n_pos
    cut = (n_left < n).nonzero()[0]
    return present[cut], present[cut + 1], n_left[cut], pos_left[cut]


def _split_between(view: BinnedMatrix, low: int,
                   high: int) -> tuple[int, float]:
    """(feature, midpoint threshold) of the cut between two bins."""
    return (int(view.bin_feature[low]),
            float(0.5 * (view.bin_values[low] + view.bin_values[high])))


def best_split(X: np.ndarray | BinnedMatrix, y: np.ndarray,
               candidate_features) -> tuple[int, float, float] | None:
    """Greedy search over candidate features and midpoint thresholds.

    X is a float matrix, or a BinnedMatrix whose rows match y. Returns
    (feature, threshold, impurity_decrease) maximizing the weighted Gini
    decrease, or None when no split has positive gain. Ties break toward
    the lowest feature index, then lowest threshold.
    """
    view = X if isinstance(X, BinnedMatrix) else BinnedMatrix.of(X)
    n = len(y)
    if n < 2:
        return None
    n_pos = int(y.sum())
    if n_pos == 0 or n_pos == n:
        return None
    parent = gini_impurity(n_pos, n - n_pos)

    low, high, n_left, pos_left = _cuts(view, y, n_pos, candidate_features)
    if low.size == 0:
        return None
    n_right = n - n_left
    pos_right = n_pos - pos_left
    p_l = pos_left / n_left
    p_r = pos_right / n_right
    gain = parent - (n_left / n) * 2 * p_l * (1 - p_l) \
                  - (n_right / n) * 2 * p_r * (1 - p_r)
    k = int(gain.argmax())
    if gain[k] <= GAIN_EPS:
        return None
    return _split_between(view, low[k], high[k]) + (float(gain[k]),)


def _grow(view: BinnedMatrix, y: np.ndarray, idx: np.ndarray, depth: int,
          config: ForestConfig, k_features: int, rng: np.random.Generator,
          importance: np.ndarray, n_total: int) -> TreeNode:
    sub_y = y[idx]
    n = len(idx)
    n_pos = int(sub_y.sum())
    node = TreeNode(positive_fraction=n_pos / n, n_samples=n)

    if n_pos == 0 or n_pos == n:
        return node
    if config.max_depth is not None and depth >= config.max_depth:
        return node
    if n < 2 * config.min_samples_leaf or n < 2:
        return node

    candidates = rng.choice(view.n_features, size=k_features, replace=False)
    node_view = view.at(idx)
    found = best_split(node_view, sub_y, candidates)
    if found is None:
        # Impure node with no positive-gain split: take the first cut of
        # the lowest non-constant candidate, so consistent data is still
        # memorized (parity splits such as XOR have zero first-level gain).
        low, high, _, _ = _cuts(node_view, sub_y, n_pos, candidates)
        if low.size == 0:
            return node
        found = _split_between(view, low[0], high[0]) + (0.0,)
    f, thr, gain = found
    mask = view.X[idx, f] <= thr
    left_idx = idx[mask]
    right_idx = idx[~mask]
    if (len(left_idx) < config.min_samples_leaf
            or len(right_idx) < config.min_samples_leaf):
        return node

    importance[f] += (n / n_total) * gain
    node.feature_index = f
    node.threshold = thr
    node.left = _grow(view, y, left_idx, depth + 1, config, k_features, rng,
                      importance, n_total)
    node.right = _grow(view, y, right_idx, depth + 1, config, k_features,
                       rng, importance, n_total)
    return node


def fit_tree(X: np.ndarray | BinnedMatrix, y: np.ndarray,
             sample_indices: np.ndarray, config: ForestConfig,
             tree_seed: int) -> tuple[TreeNode, np.ndarray]:
    """Grow one CART tree on the given sample; returns (root, importances).

    X is a float matrix or its BinnedMatrix. Importances are unnormalized
    per-feature sums of sample-weighted impurity decreases.
    """
    view = X if isinstance(X, BinnedMatrix) else BinnedMatrix.of(X)
    idx = np.asarray(sample_indices, dtype=int)
    if len(idx) == 0:
        raise ForestError("cannot fit a tree on an empty sample")
    rng = np.random.default_rng(tree_seed)
    k = config.resolve_features_per_split(view.n_features)
    importance = np.zeros(view.n_features)
    root = _grow(view, y, idx, 0, config, k, rng, importance, len(idx))
    return root, importance


def _route(node: TreeNode, X: np.ndarray, out: np.ndarray,
           idx: np.ndarray) -> None:
    if node.is_leaf:
        out[idx] = node.positive_fraction
        return
    mask = X[idx, node.feature_index] <= node.threshold
    _route(node.left, X, out, idx[mask])
    _route(node.right, X, out, idx[~mask])


def tree_predict(root: TreeNode, X: np.ndarray) -> np.ndarray:
    out = np.empty(X.shape[0])
    _route(root, X, out, np.arange(X.shape[0]))
    return out


@dataclass
class ForestModel:
    trees: list[TreeNode]
    config: ForestConfig
    column_names: list[str]
    gini_importance: np.ndarray  # normalized to sum 1 when any split exists


def _build_tree(view: BinnedMatrix, y: np.ndarray, config: ForestConfig,
                i: int) -> tuple[TreeNode, np.ndarray]:
    """Tree i of a forest: its bootstrap sample and growth both draw from
    seeds derived from (config.seed, i) alone."""
    n = len(y)
    tree_seed = mix_seed(config.seed, i)
    if config.bootstrap:
        boot_rng = np.random.default_rng(mix_seed(tree_seed, 0))
        idx = boot_rng.integers(0, n, size=n)
    else:
        idx = np.arange(n)
    return fit_tree(view, y, idx, config, mix_seed(tree_seed, 1))


def fit_forest(matrix: EncodedMatrix, config: ForestConfig,
               n_jobs: int = 1) -> ForestModel:
    """Fit the ensemble; deterministic given config.seed, parallel or not.

    With n_jobs > 1 the trees are grown in worker processes (map_ordered).
    """
    X, y = matrix.X, matrix.y
    n = X.shape[0]
    if n < 2:
        raise ForestError(f"need at least 2 samples, got {n}")
    if y.sum() == 0 or y.sum() == n:
        raise ForestError("training labels contain a single class")
    results = map_ordered(partial(_build_tree, BinnedMatrix.of(X), y, config),
                          range(config.n_trees), n_jobs)
    trees = [r[0] for r in results]
    raw = np.mean([r[1] for r in results], axis=0)
    total = raw.sum()
    importance = raw / total if total > 0 else raw
    return ForestModel(trees, config, list(matrix.column_names), importance)


def predict_proba(model: ForestModel, rows: np.ndarray) -> np.ndarray:
    """Mean over trees of routed-leaf positive fractions.

    Accepts a single row (1-D) or a matrix (2-D); returns a scalar or a
    vector accordingly.
    """
    rows = np.asarray(rows, dtype=float)
    single = rows.ndim == 1
    if single:
        rows = rows[None, :]
    if rows.shape[1] != len(model.column_names):
        raise ForestError(f"row arity {rows.shape[1]} does not match model "
                          f"feature count {len(model.column_names)}")
    check_finite(rows, ForestError)
    acc = np.zeros(rows.shape[0])
    for t in model.trees:
        acc += tree_predict(t, rows)
    probs = acc / len(model.trees)
    return float(probs[0]) if single else probs


def permutation_importance(model: ForestModel, matrix: EncodedMatrix,
                           metric: str = "balanced_accuracy",
                           seed: int = 0, n_repeats: int = 5) -> np.ndarray:
    """Mean metric drop over seeded within-column shuffles of each feature."""
    from .metrics import balanced_accuracy, confusion_at_threshold, roc_and_auc

    if n_repeats < 1:
        raise ForestError(f"n_repeats must be >= 1, got {n_repeats}")
    if metric not in ("balanced_accuracy", "auc"):
        raise ForestError(f"unknown metric {metric!r}")

    def score(scores: np.ndarray) -> float:
        if metric == "auc":
            return roc_and_auc(scores, matrix.y)[1]
        c = confusion_at_threshold(scores, matrix.y, 0.5)
        return balanced_accuracy(c)

    base = score(predict_proba(model, matrix.X))
    out = np.zeros(matrix.n_features)
    for f in range(matrix.n_features):
        rng = np.random.default_rng(mix_seed(seed, f))
        drops = []
        for _ in range(n_repeats):
            Xp = matrix.X.copy()
            Xp[:, f] = Xp[rng.permutation(matrix.n_samples), f]
            drops.append(base - score(predict_proba(model, Xp)))
        out[f] = float(np.mean(drops))
    return out


# ---------------------------------------------------------------------------
# JSON serialization


def _node_to_dict(node: TreeNode) -> dict:
    if node.is_leaf:
        return {"leaf": True, "positive_fraction": node.positive_fraction,
                "n_samples": node.n_samples}
    return {"leaf": False, "feature_index": node.feature_index,
            "threshold": node.threshold,
            "left": _node_to_dict(node.left),
            "right": _node_to_dict(node.right)}


def _node_from_dict(d: dict) -> TreeNode:
    if d["leaf"]:
        return TreeNode(positive_fraction=d["positive_fraction"],
                        n_samples=d["n_samples"])
    return TreeNode(feature_index=d["feature_index"],
                    threshold=d["threshold"],
                    left=_node_from_dict(d["left"]),
                    right=_node_from_dict(d["right"]))


def forest_to_json(model: ForestModel) -> str:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "kind": "forest",
        "config": {
            "n_trees": model.config.n_trees,
            "max_depth": model.config.max_depth,
            "min_samples_leaf": model.config.min_samples_leaf,
            "features_per_split": model.config.features_per_split,
            "bootstrap": model.config.bootstrap,
            "seed": model.config.seed,
        },
        "column_names": model.column_names,
        "gini_importance": list(model.gini_importance),
        "trees": [_node_to_dict(t) for t in model.trees],
    }
    return json.dumps(doc, sort_keys=True)


def forest_from_json(text: str) -> ForestModel:
    doc = json.loads(text)
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise ForestError(f"unsupported schema version "
                          f"{doc.get('schema_version')!r}")
    cfg = ForestConfig(**doc["config"])
    trees = [_node_from_dict(t) for t in doc["trees"]]
    return ForestModel(trees, cfg, doc["column_names"],
                       np.asarray(doc["gini_importance"]))
