import json
import os
from dataclasses import dataclass

import numpy as np
import pytest

from policyforest import forest
from policyforest.dataset import EncodedMatrix
from policyforest.forest import (ForestConfig, ForestError, ForestModel,
                                 GAIN_EPS, BinnedMatrix, Tree, best_split,
                                 fit_forest, fit_forests, fit_tree,
                                 forest_from_json, forest_to_json,
                                 gini_impurity, map_chunks, mix_seed,
                                 predict_proba)


def matrix_from(X, y):
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    names = [f"f{i}" for i in range(X.shape[1])]
    return EncodedMatrix(X, y, names, np.arange(len(y)))


def brute_force_best_split(X, y, features):
    """Enumerate every (feature, midpoint) pair; mirror of the production
    gain formula so float results are comparable exactly."""
    n = len(y)
    n_pos = int(y.sum())
    if n < 2 or n_pos in (0, n):
        return None
    parent = gini_impurity(n_pos, n - n_pos)
    best = None
    for f in sorted(features):
        xs = np.sort(np.unique(X[:, f]))
        for a, b in zip(xs[:-1], xs[1:]):
            thr = 0.5 * (a + b)
            left = X[:, f] <= thr
            n_l = int(left.sum())
            n_r = n - n_l
            pos_l = int(y[left].sum())
            pos_r = n_pos - pos_l
            p_l = pos_l / n_l
            p_r = pos_r / n_r
            gain = parent - (n_l / n) * 2 * p_l * (1 - p_l) \
                - (n_r / n) * 2 * p_r * (1 - p_r)
            if gain > GAIN_EPS and (best is None or gain > best[2]):
                best = (f, float(thr), float(gain))
    return best


def first_midpoint(X, features):
    """Zero-gain fallback: first midpoint of the lowest non-constant
    candidate."""
    for f in sorted(features):
        xs = np.unique(X[:, f])
        if xs.size > 1:
            return f, float(0.5 * (xs[0] + xs[1])), 0.0
    return None


@dataclass
class RefNode:
    """Node of the reference grower: internal (feature_index set) or leaf
    (feature_index None)."""

    feature_index: int | None = None
    threshold: float = 0.0
    left: "RefNode | None" = None
    right: "RefNode | None" = None
    positive_fraction: float = 0.0
    n_samples: int = 0


def to_tree(root):
    """The reference grower's nodes as the flat arrays of a Tree, in
    preorder."""
    cols = {name: [] for name in
            ("feature", "threshold", "right", "value", "n_samples")}

    def visit(node):
        i = len(cols["feature"])
        leaf = node.feature_index is None
        cols["feature"].append(-1 if leaf else node.feature_index)
        cols["threshold"].append(node.threshold)
        cols["right"].append(-1)
        cols["value"].append(node.positive_fraction)
        cols["n_samples"].append(node.n_samples)
        if not leaf:
            visit(node.left)
            cols["right"][i] = len(cols["feature"])
            visit(node.right)

    visit(root)
    return Tree(**{name: np.array(v) for name, v in cols.items()})


def tree_predict(tree, X):
    """Predictions of a single tree: a one-tree forest."""
    n_features = X.shape[1]
    model = ForestModel([tree], ForestConfig(n_trees=1),
                        [f"f{i}" for i in range(n_features)],
                        np.zeros(n_features))
    return predict_proba(model, X)


def tree_arrays(tree):
    return {name: getattr(tree, name).tolist() for name in
            ("feature", "threshold", "right", "value", "n_samples")}


def reference_grow(X, y, idx, config, k, rng, importance, n_total,
                   fallbacks):
    """Level-order growth with brute-force split search. Each level makes
    one draw for its splittable nodes, left to right: a row of uniform
    keys per node, whose k smallest name the node's candidate columns."""
    root = RefNode()
    level = [(root, idx)]
    depth = 0
    while level:
        splittable = []
        for node, rows in level:
            n = len(rows)
            n_pos = int(y[rows].sum())
            node.positive_fraction, node.n_samples = n_pos / n, n
            if (0 < n_pos < n and n >= 2 * config.min_samples_leaf
                    and (config.max_depth is None
                         or depth < config.max_depth)):
                splittable.append((node, rows))
        keys = rng.random((len(splittable), X.shape[1]))
        children = []
        for (node, rows), node_keys in zip(splittable, keys):
            candidates = sorted(int(c) for c in
                                np.argsort(node_keys, kind="stable")[:k])
            found = brute_force_best_split(X[rows], y[rows], candidates)
            if found is None:
                found = first_midpoint(X[rows], candidates)
                if found is None:
                    continue
                fallbacks.append(found)
            f, thr, gain = found
            left = X[rows, f] <= thr
            if min(left.sum(), (~left).sum()) < config.min_samples_leaf:
                continue
            importance[f] += (len(rows) / n_total) * gain
            node.feature_index, node.threshold = f, thr
            node.left, node.right = RefNode(), RefNode()
            children += [(node.left, rows[left]), (node.right, rows[~left])]
        level = children
        depth += 1
    return root


def reference_fit_forest(matrix, config, fallbacks):
    X, y = matrix.X, matrix.y
    n = len(y)
    k = config.resolve_features_per_split(X.shape[1])
    trees, raws = [], []
    for i in range(config.n_trees):
        tree_seed = mix_seed(config.seed, i)
        if config.bootstrap:
            boot_rng = np.random.default_rng(mix_seed(tree_seed, 0))
            idx = boot_rng.integers(0, n, size=n)
        else:
            idx = np.arange(n)
        rng = np.random.default_rng(mix_seed(tree_seed, 1))
        importance = np.zeros(X.shape[1])
        trees.append(to_tree(reference_grow(X, y, idx, config, k, rng,
                                            importance, n, fallbacks)))
        raws.append(importance)
    raw = np.mean(raws, axis=0)
    total = raw.sum()
    return ForestModel(trees, config, list(matrix.column_names),
                       raw / total if total > 0 else raw)


class TestGiniImpurity:
    def test_pure_node(self):
        assert gini_impurity(5, 0) == 0.0

    def test_balanced_node(self):
        assert gini_impurity(5, 5) == 0.5

    def test_hand_value(self):
        assert gini_impurity(3, 1) == pytest.approx(0.375, abs=1e-15)

    def test_empty_node_error(self):
        with pytest.raises(ForestError):
            gini_impurity(0, 0)


class TestBestSplit:
    def test_perfect_single_feature(self):
        X = np.array([[0.0], [0.0], [1.0], [1.0]])
        y = np.array([0, 0, 1, 1])
        f, thr, gain = best_split(X, y, [0])
        assert f == 0
        assert thr == 0.5
        assert gain == pytest.approx(0.5, abs=1e-15)

    def test_pure_labels(self):
        X = np.array([[0.0], [1.0]])
        assert best_split(X, np.array([1, 1]), [0]) is None

    def test_constant_feature(self):
        X = np.array([[2.0], [2.0], [2.0], [2.0]])
        y = np.array([0, 1, 0, 1])
        assert best_split(X, y, [0]) is None

    def test_no_candidates(self):
        y = np.array([0, 1, 0, 1])
        assert best_split(np.zeros((4, 2)), y, []) is None
        assert best_split(np.zeros((4, 0)), y, []) is None

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(60):
            n = int(rng.integers(2, 51))
            d = int(rng.integers(1, 6))
            X = rng.integers(0, 5, size=(n, d)).astype(float)
            y = rng.integers(0, 2, size=n)
            feats = range(d)
            assert best_split(X, y, feats) == brute_force_best_split(
                X, y, feats)

    def test_tie_breaks_to_lowest_feature(self):
        # duplicated feature gives identical gains; lowest index must win
        X = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0], [1.0, 1.0]])
        y = np.array([0, 0, 1, 1])
        f, thr, _ = best_split(X, y, [1, 0])
        assert f == 0


class TestFitTree:
    def test_pure_sample_single_leaf(self):
        X = np.array([[0.0], [1.0], [2.0]])
        y = np.array([1, 1, 1])
        tree, imp = fit_tree(X, y, np.arange(3), ForestConfig(n_trees=1), 0)
        assert tree.feature.tolist() == [-1]
        assert tree.value[0] == 1.0
        assert imp.sum() == 0.0

    def test_xor_memorized(self):
        X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        y = np.array([0, 1, 1, 0])
        cfg = ForestConfig(n_trees=1, features_per_split=2, bootstrap=False)
        tree, _ = fit_tree(X, y, np.arange(4), cfg, 3)
        preds = tree_predict(tree, X)
        assert np.array_equal(preds, y.astype(float))

    def test_same_seed_same_tree(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(40, 5))
        y = rng.integers(0, 2, size=40)
        cfg = ForestConfig(n_trees=1)
        r1, i1 = fit_tree(X, y, np.arange(40), cfg, 99)
        r2, i2 = fit_tree(X, y, np.arange(40), cfg, 99)
        assert json.dumps(tree_arrays(r1)) == json.dumps(tree_arrays(r2))
        assert np.array_equal(i1, i2)

    def test_min_samples_leaf_respected(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(60, 3))
        y = rng.integers(0, 2, size=60)
        cfg = ForestConfig(n_trees=1, min_samples_leaf=5, features_per_split=3)
        tree, _ = fit_tree(X, y, np.arange(60), cfg, 0)
        leaves = tree.feature == -1
        assert leaves.sum() > 1
        assert np.all(tree.n_samples[leaves] >= 5)

    @pytest.mark.parametrize("min_leaf", [1, 3])
    @pytest.mark.parametrize("max_depth", [None, 3])
    @pytest.mark.parametrize("fps", [2, 7])
    def test_repeats_count_like_rows(self, min_leaf, max_depth, fps):
        m = TestModelIdentity._noisy_matrix()
        cfg = ForestConfig(n_trees=1, min_samples_leaf=min_leaf,
                           max_depth=max_depth, features_per_split=fps)
        rng = np.random.default_rng(min_leaf + fps)
        for seed in range(3):
            sample = rng.integers(0, m.n_samples, m.n_samples)
            repeated, i_repeated = fit_tree(m.X, m.y, sample, cfg, seed)
            copied, i_copied = fit_tree(m.X[sample], m.y[sample],
                                        np.arange(len(sample)), cfg, seed)
            assert tree_arrays(repeated) == tree_arrays(copied)
            assert np.array_equal(i_repeated, i_copied)


def _separable_matrix(n=80, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1, 1, size=n)
    y = (x > 0).astype(int)
    return matrix_from(x[:, None], y)


class TestFitForest:
    def test_separable_data(self):
        m = _separable_matrix()
        model = fit_forest(m, ForestConfig(n_trees=20, seed=1))
        held = np.array([[-0.9], [-0.5], [0.5], [0.9]])
        p = predict_proba(model, held)
        assert np.all(p[:2] < 0.5)
        assert np.all(p[2:] > 0.5)

    def test_singleton_ensemble_equals_tree(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(50, 4))
        y = rng.integers(0, 2, size=50)
        m = matrix_from(X, y)
        cfg = ForestConfig(n_trees=1, bootstrap=False, seed=7)
        model = fit_forest(m, cfg)
        tree_seed = mix_seed(mix_seed(7, 0), 1)
        tree, _ = fit_tree(X, y, np.arange(50), cfg, tree_seed)
        assert np.array_equal(predict_proba(model, X), tree_predict(tree, X))

    def test_single_class_error(self):
        m = matrix_from(np.zeros((5, 1)), np.ones(5, dtype=int))
        with pytest.raises(ForestError, match="single class"):
            fit_forest(m, ForestConfig(n_trees=2))

    def test_no_columns_error(self):
        y = np.array([0, 1] * 3)
        with pytest.raises(ForestError, match="without columns"):
            fit_forest(matrix_from(np.zeros((6, 0)), y),
                       ForestConfig(n_trees=2))
        with pytest.raises(ForestError, match="without columns"):
            fit_tree(np.zeros((6, 0)), y, np.arange(6), ForestConfig(), 0)

    def test_memorization_limit(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(30, 3))
        y = rng.integers(0, 2, size=30)
        m = matrix_from(X, y)
        cfg = ForestConfig(n_trees=5, bootstrap=False, min_samples_leaf=1,
                           features_per_split=3, seed=0)
        model = fit_forest(m, cfg)
        assert np.array_equal(predict_proba(model, X), y.astype(float))

    def test_probability_bounds(self):
        m = _separable_matrix(seed=5)
        model = fit_forest(m, ForestConfig(n_trees=15, seed=2))
        p = predict_proba(model, np.linspace(-2, 2, 50)[:, None])
        assert np.all((p >= 0) & (p <= 1))

    def test_serial_parallel_identical(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(100, 6))
        y = (X[:, 0] + rng.normal(0, 0.5, 100) > 0).astype(int)
        m = matrix_from(X, y)
        cfg = ForestConfig(n_trees=16, seed=11)
        serial = fit_forest(m, cfg, n_jobs=1)
        parallel = fit_forest(m, cfg, n_jobs=4)
        assert np.array_equal(predict_proba(serial, X),
                              predict_proba(parallel, X))
        assert np.array_equal(serial.gini_importance,
                              parallel.gini_importance)
        assert forest_to_json(serial) == forest_to_json(parallel)

    def test_tree_order_invariance(self):
        m = _separable_matrix(seed=8)
        model = fit_forest(m, ForestConfig(n_trees=9, seed=3))
        shuffled = fit_forest(m, ForestConfig(n_trees=9, seed=3))
        shuffled.trees = list(reversed(shuffled.trees))
        assert np.allclose(predict_proba(model, m.X),
                           predict_proba(shuffled, m.X), atol=1e-12)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(9)
        X = rng.uniform(0.1, 4.0, size=(60, 3))
        y = (X[:, 1] > 2.0).astype(int)
        cfg = ForestConfig(n_trees=12, seed=5)
        base = fit_forest(matrix_from(X, y), cfg)
        Xt = X.copy()
        Xt[:, 1] = np.log(Xt[:, 1])  # strictly increasing transform
        trans = fit_forest(matrix_from(Xt, y), cfg)
        probe = rng.uniform(0.1, 4.0, size=(20, 3))
        probe_t = probe.copy()
        probe_t[:, 1] = np.log(probe_t[:, 1])
        assert np.array_equal(predict_proba(base, probe),
                              predict_proba(trans, probe_t))

    def test_predictions_equal_a_walk_of_each_tree(self):
        rng = np.random.default_rng(14)
        m = matrix_from(np.round(rng.normal(size=(60, 3)), 1),
                        rng.integers(0, 2, size=60))
        model = fit_forest(m, ForestConfig(n_trees=6, max_depth=4, seed=3))
        root_only = Tree(np.array([-1], dtype=np.int32), np.array([0.0]),
                         np.array([-1], dtype=np.int32), np.array([0.25]),
                         np.array([8], dtype=np.int32))
        model.trees.insert(2, root_only)
        # Rows on every threshold of every column, and far out either side.
        cuts = np.concatenate([t.threshold[t.feature >= 0]
                               for t in model.trees])
        rows = np.concatenate([np.column_stack([cuts] * 3),
                               [[1e300] * 3, [-1e300] * 3, [1e300, -1e300, 0]],
                               rng.normal(size=(20, 3))])

        def walk(tree, row):
            i = 0
            while tree.feature[i] >= 0:
                i = (i + 1 if row[tree.feature[i]] <= tree.threshold[i]
                     else tree.right[i])
            return tree.value[i]

        expected = [sum(walk(t, row) for t in model.trees) / len(model.trees)
                    for row in rows]
        assert predict_proba(model, rows).tolist() == expected

    def test_arity_mismatch(self):
        m = _separable_matrix()
        model = fit_forest(m, ForestConfig(n_trees=3, seed=0))
        with pytest.raises(ForestError, match="arity"):
            predict_proba(model, np.zeros((2, 5)))


def _absolute(jobs, chunk):
    """A map_chunks fn that records the jobs it was handed."""
    return [(jobs, abs(x)) for x in chunk]


class TestMapOrdered:
    """map_chunks's one worker rule: min(n_jobs, cores, items) workers,
    one chunk each, results in item order."""

    def test_workers_capped_by_cores_and_items(self, recording_pool,
                                               monkeypatch):
        assert map_chunks(_absolute, [-1, -2, -3], 10_000) == \
            [(1, 1), (1, 2), (1, 3)]
        bound = min(os.cpu_count() or 1, 3)
        assert all(w <= bound for w, _ in recording_pool)
        recording_pool.clear()
        for cores, expected in ((8, (3, 1)), (2, (2, 1))):
            monkeypatch.setattr(os, "cpu_count", lambda: cores)
            assert map_chunks(_absolute, [-1, -2, -3], 10_000) == \
                [(1, 1), (1, 2), (1, 3)]
            assert recording_pool.pop() == expected

    def test_one_worker_needs_no_pool(self, recording_pool, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        assert map_chunks(_absolute, [-4, 5], 1) == [(1, 4), (1, 5)]
        # A single item keeps the jobs, so a single forest can fan out.
        assert map_chunks(_absolute, [-4], 4) == [(4, 4)]
        assert map_chunks(_absolute, [], 4) == []
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        assert map_chunks(_absolute, [-4, 5], 4) == [(1, 4), (1, 5)]
        assert recording_pool == []

    @pytest.mark.parametrize("n_jobs", [0, -3])
    def test_rejects_n_jobs_below_one(self, n_jobs):
        with pytest.raises(ForestError, match="n_jobs"):
            map_chunks(_absolute, [1, 2], n_jobs)

    def test_forest_fans_out_trees_once(self, recording_pool, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        m = _separable_matrix(seed=4)
        cfg = ForestConfig(n_trees=7, seed=1)
        model = fit_forest(m, cfg, n_jobs=3)
        # One pool, one chunk of trees per worker.
        assert recording_pool == [(3, 1)]
        assert forest_to_json(model) == forest_to_json(fit_forest(m, cfg))


class TestModelIdentity:
    """The batched level-order grower grows the same forests as level-order
    growth one node at a time over brute-force split search, byte for
    byte."""

    @staticmethod
    def _noisy_matrix():
        rng = np.random.default_rng(31)
        n = 90
        X = np.column_stack([
            np.round(rng.normal(size=n), 1),          # continuous with ties
            rng.integers(-2, 3, size=n),              # ordinal
            np.full(n, 4.0),                          # constant
            rng.integers(0, 2, size=n),               # binary
            rng.uniform(size=n),                      # continuous
            np.zeros(n),                              # constant
            rng.integers(0, 2, size=n),               # binary
        ]).astype(float)
        y = ((X[:, 0] + 0.5 * X[:, 1] + rng.normal(0, 1, n)) > 0).astype(int)
        return matrix_from(X, y)

    @staticmethod
    def _parity_matrix():
        # Every split of the full grid has zero gain, and each
        # non-constant column offers three cuts to the fallback.
        a, b = np.meshgrid(np.arange(4.0), np.arange(4.0))
        X = np.column_stack([np.full(16, 1.0), a.ravel(), b.ravel()])
        y = ((a + b).ravel() % 2).astype(int)
        return matrix_from(X, y)

    @staticmethod
    def _two_widest_matrix():
        # Columns 2 and 4 tie for the most distinct values (12), each
        # value held by several rows; the lower one is searched by runs.
        rng = np.random.default_rng(37)
        n = 80

        def twelve_values(scale):
            v = np.concatenate([np.arange(12), rng.integers(0, 12, n - 12)])
            return rng.permutation(v) * scale

        X = np.column_stack([
            rng.integers(0, 2, size=n),
            rng.integers(-1, 2, size=n),
            twelve_values(0.5),
            rng.integers(0, 4, size=n),
            twelve_values(-1.5),
        ]).astype(float)
        y = ((X[:, 2] - 0.3 * X[:, 4] + rng.normal(0, 2, n)) > 3).astype(int)
        return matrix_from(X, y)

    @staticmethod
    def _narrow_matrix():
        # No column takes more than 3 values.
        rng = np.random.default_rng(39)
        n = 70
        X = np.column_stack([rng.integers(0, 3, size=n),
                             rng.integers(0, 2, size=n),
                             rng.integers(-1, 2, size=n) * 2.5,
                             np.full(n, 7.0)]).astype(float)
        y = ((X[:, 0] + X[:, 2] + rng.normal(0, 1, n)) > 1).astype(int)
        return matrix_from(X, y)

    def test_widest_column_search_matches_brute_force(self):
        rng = np.random.default_rng(47)
        for m, widths in ((self._two_widest_matrix(), [2, 3, 12, 4, 12]),
                          (self._narrow_matrix(), [3, 2, 3, 1])):
            assert np.diff(BinnedMatrix.of(m.X).bin_start).tolist() == widths
            for _ in range(40):
                rows = rng.integers(0, m.n_samples,
                                    int(rng.integers(2, m.n_samples)))
                feats = rng.choice(m.n_features,
                                   int(rng.integers(1, m.n_features + 1)),
                                   replace=False)
                X, y = m.X[rows], m.y[rows]
                assert best_split(X, y, feats) == \
                    brute_force_best_split(X, y, feats)

    def test_matches_reference_grower(self):
        fallbacks = []
        for m in (self._noisy_matrix(), self._parity_matrix(),
                  self._two_widest_matrix(), self._narrow_matrix()):
            for overrides in ({}, {"max_depth": 3}, {"min_samples_leaf": 5},
                              {"bootstrap": False},
                              {"features_per_split": m.n_features}):
                for seed in (0, 1, 2):
                    cfg = ForestConfig(n_trees=4, seed=seed, **overrides)
                    expected = reference_fit_forest(m, cfg, fallbacks)
                    assert forest_to_json(fit_forest(m, cfg)) == \
                        forest_to_json(expected), (overrides, seed)
        assert fallbacks  # the zero-gain fallback was exercised


class TestFitForests:
    """Growing many forests together gives each forest byte for byte."""

    @staticmethod
    def _forests(n):
        rng = np.random.default_rng(41)
        specs = [{"n_trees": 1}, {"n_trees": 3, "max_depth": 2},
                 {"n_trees": 7, "min_samples_leaf": 4},
                 {"n_trees": 3, "bootstrap": False},
                 {"n_trees": 7, "max_depth": 5, "min_samples_leaf": 2},
                 {"n_trees": 1, "bootstrap": False, "max_depth": 1},
                 {"n_trees": 3, "features_per_split": 5}]
        forests = []
        for i, spec in enumerate(specs):
            rows = np.sort(rng.choice(n, size=int(rng.integers(20, n)),
                                      replace=False))
            forests.append((rows, ForestConfig(seed=i, **spec)))
        return forests

    @pytest.mark.parametrize("in_flight", [1, 4, forest.TREES_IN_FLIGHT])
    def test_equals_fitting_each_forest_alone(self, in_flight, monkeypatch):
        m = TestModelIdentity._noisy_matrix()
        forests = self._forests(m.n_samples)
        alone = [forest_to_json(fit_forest(m.subset(rows), cfg))
                 for rows, cfg in forests]
        # The last forest draws more candidates than the others, so a
        # level of many trees in flight mixes candidate counts.
        monkeypatch.setattr(forest, "TREES_IN_FLIGHT", in_flight)
        searched = []
        best_cuts = forest._best_cuts

        def spy(view, rows, labels, row_node, node_n, *rest):
            searched.append(len(node_n))
            return best_cuts(view, rows, labels, row_node, node_n, *rest)

        monkeypatch.setattr(forest, "_best_cuts", spy)
        # A budget of one row searches one node per sub-step.
        for step_rows in (1, 50, forest.STEP_ROWS):
            monkeypatch.setattr(forest, "STEP_ROWS", step_rows)
            searched.clear()
            together = list(fit_forests(m, iter(forests)))
            assert sorted(i for i, _ in together) == \
                list(range(len(forests)))
            for i, model in together:
                assert forest_to_json(model) == alone[i], (step_rows, i)
            assert (max(searched) == 1) == (step_rows == 1)

    def test_parallel_equals_serial(self, recording_pool, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        m = TestModelIdentity._noisy_matrix()
        forests = self._forests(m.n_samples)
        serial = dict(fit_forests(m, forests))
        parallel = list(fit_forests(m, forests, n_jobs=2))
        assert recording_pool == [(2, 1)]
        # Models come back as they complete, in either mode.
        assert sorted(i for i, _ in parallel) == list(range(len(forests)))
        for i, model in parallel:
            assert forest_to_json(model) == forest_to_json(serial[i])

    def test_single_class_forest_rejected(self):
        m = matrix_from(np.arange(8.0)[:, None], [0, 0, 0, 0, 1, 1, 1, 1])
        with pytest.raises(ForestError, match="single class"):
            list(fit_forests(m, [(range(8), ForestConfig(n_trees=2)),
                                 (range(4), ForestConfig(n_trees=2))]))

    @pytest.mark.parametrize("bad", [-1, -6, 6, 9])
    def test_row_outside_matrix_rejected(self, bad):
        m = matrix_from(np.arange(6.0)[:, None], [0, 1, 0, 1, 0, 1])
        with pytest.raises(ForestError, match=f"row {bad} outside"):
            list(fit_forests(m, [([bad, 0, 1, 2], ForestConfig(n_trees=2))]))

    def test_binning_equals_np_unique_per_column(self):
        rng = np.random.default_rng(5)
        X = rng.integers(-3, 4, size=(40, 5)) * np.array(
            [1.0, 0.5, 5e-324, -1.0, 0.0])
        X[::7, 1] = rng.normal(size=6)
        view = BinnedMatrix.of(X)
        values = [np.unique(column) for column in X.T]
        assert view.bin_start.tolist() == np.cumsum(
            [0] + [len(v) for v in values]).tolist()
        assert np.array_equal(view.bin_values, np.concatenate(values))
        assert np.array_equal(view.codes, np.column_stack(
            [np.searchsorted(v, c) for v, c in zip(values, X.T)]))
        assert view.codes.dtype == np.int32
        empty = BinnedMatrix.of(np.empty((3, 0)))
        assert empty.bin_start.tolist() == [0] and empty.bin_values.size == 0

    def test_binning_all_rows_equals_binning_the_rows(self):
        """Trees grown on rows R of a matrix binned over all rows equal
        trees grown on the matrix of R alone."""
        rng = np.random.default_rng(43)
        n = 120
        inside = np.arange(n) % 3 != 0           # R: two rows in three
        step = np.where(inside, rng.integers(0, 2, n) * 2.0, 1.0)
        near_one = np.where(rng.uniform(size=n) < 0.5, 1.0,
                            np.nextafter(1.0, 2.0))
        wide = np.round(rng.normal(size=n), 1)
        wide[~inside] = rng.uniform(5, 6, size=(~inside).sum())
        X = np.column_stack([step, near_one, wide,
                             rng.integers(-2, 3, size=n)]).astype(float)
        y = ((step > 1) ^ (near_one > 1) ^ (rng.uniform(size=n) < 0.2)
             ).astype(int)
        # The midpoint of 1.0 and the next float rounds back to 1.0.
        assert 0.5 * (1.0 + np.nextafter(1.0, 2.0)) == 1.0
        rows = np.flatnonzero(inside)
        whole = BinnedMatrix.of(X)
        part = BinnedMatrix.of(X[rows])
        for seed in range(4):
            for fps in (1, 2, 4):
                cfg = ForestConfig(n_trees=1, features_per_split=fps)
                boot = np.random.default_rng(seed).integers(0, len(rows),
                                                            len(rows))
                t_whole, i_whole = fit_tree(whole, y, rows[boot], cfg, seed)
                t_part, i_part = fit_tree(part, y[rows], boot, cfg, seed)
                assert tree_arrays(t_whole) == tree_arrays(t_part)
                assert np.array_equal(i_whole, i_part)


class TestNonFiniteInput:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejected_naming_first_row_and_column(self, bad):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(12, 3))
        y = np.array([0, 1] * 6)
        cfg = ForestConfig(n_trees=2)
        model = fit_forest(matrix_from(X, y), cfg)
        X[7, 0] = bad
        X[4, 2] = bad
        with pytest.raises(ForestError, match="row 4, column 2"):
            fit_forest(matrix_from(X, y), cfg)
        with pytest.raises(ForestError, match="row 4, column 2"):
            fit_tree(X, y, np.arange(12), cfg, 0)
        with pytest.raises(ForestError, match="row 0, column 1"):
            predict_proba(model, np.array([0.0, bad, 0.0]))
        with pytest.raises(ForestError, match="row 4, column 2"):
            predict_proba(model, X)


class TestImportances:
    def test_planted_feature_ranks_first(self):
        rng = np.random.default_rng(12)
        n = 300
        X = rng.normal(size=(n, 8))
        y = rng.integers(0, 2, size=n)
        X[:, 4] = y + rng.normal(0, 0.1, n)
        m = matrix_from(X, y)
        model = fit_forest(m, ForestConfig(n_trees=30, seed=1))
        assert int(np.argmax(model.gini_importance)) == 4

    def test_stump_forest_importance(self):
        X = np.array([[0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0]] * 10)
        y = np.array([0, 1] * 10)
        cfg = ForestConfig(n_trees=5, bootstrap=False, features_per_split=4,
                           seed=0)
        model = fit_forest(matrix_from(X, y), cfg)
        assert model.gini_importance[3] == pytest.approx(1.0, abs=1e-12)
        assert np.all(model.gini_importance[:3] == 0.0)

    def test_importance_normalized(self):
        rng = np.random.default_rng(13)
        X = rng.normal(size=(100, 5))
        y = (X[:, 0] > 0).astype(int)
        model = fit_forest(matrix_from(X, y), ForestConfig(n_trees=10, seed=4))
        assert model.gini_importance.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(model.gini_importance >= 0)


class TestSerialization:
    def test_round_trip(self):
        m = _separable_matrix(seed=21)
        model = fit_forest(m, ForestConfig(n_trees=7, seed=9))
        text = forest_to_json(model)
        clone = forest_from_json(text)
        assert np.array_equal(predict_proba(model, m.X),
                              predict_proba(clone, m.X))
        assert forest_to_json(clone) == text

    def test_bad_schema_version(self):
        with pytest.raises(ForestError, match="schema version"):
            forest_from_json(json.dumps({"schema_version": 99}))

    def test_schema_one_rejected(self):
        # Schema 1 stored each tree as nested node objects.
        doc = json.loads(forest_to_json(fit_forest(
            _separable_matrix(seed=22), ForestConfig(n_trees=2, seed=1))))
        doc["schema_version"] = 1
        doc["trees"] = [{"leaf": True, "positive_fraction": 0.5,
                         "n_samples": 80}] * 2
        with pytest.raises(ForestError,
                           match="unsupported schema version 1"):
            forest_from_json(json.dumps(doc))


class TestMixSeed:
    def test_stable_and_distinct(self):
        seen = {mix_seed(0, i) for i in range(1000)}
        assert len(seen) == 1000
        assert mix_seed(42, 7) == mix_seed(42, 7)
        assert mix_seed(42, 7) != mix_seed(43, 7)
