import os
from dataclasses import dataclass

import numpy as np
import pytest

from policyforest import forest
from policyforest.dataset import EncodedMatrix, mix_seed
from policyforest.forest import (ForestConfig, ForestError, ForestModel,
                                 BinnedMatrix, Tree, fit_forest, fit_forests,
                                 map_chunks, predict_proba)
from conftest import (bootstrap_draw, brute_force_best_split, same_forest,
                      splitmix64_draw, stump_split)


def matrix_from(X, y):
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    names = [f"f{i}" for i in range(X.shape[1])]
    return EncodedMatrix(X, y, names, np.arange(len(y)))


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
    level order: breadth first, each node's left child before its right."""
    nodes = [root]
    for node in nodes:
        if node.feature_index is not None:
            nodes += [node.left, node.right]
    at = {id(node): i for i, node in enumerate(nodes)}
    leaf = [node.feature_index is None for node in nodes]
    return Tree(
        np.array([-1 if lf else n.feature_index
                  for n, lf in zip(nodes, leaf)]),
        np.array([n.threshold for n in nodes]),
        np.array([-1 if lf else at[id(n.left)]
                  for n, lf in zip(nodes, leaf)]),
        np.array([n.positive_fraction for n in nodes]),
        np.array([n.n_samples for n in nodes]))


def tree_leaves(tree, X):
    """The leaf of a single tree each row of X reaches, walking the tree
    node by node."""
    def walk(row):
        i = 0
        while tree.feature[i] >= 0:
            i = tree.left[i] + (row[tree.feature[i]] > tree.threshold[i])
        return i

    return np.array([walk(row) for row in X], dtype=int)


def tree_predict(tree, X):
    """Predictions of a single tree, walking it for each row of X."""
    return tree.value[tree_leaves(tree, X)]


def tree_depth(tree):
    """The number of tests on the longest path from the root to a leaf."""
    depth = np.zeros(len(tree.feature), dtype=int)
    for i in np.flatnonzero(tree.feature >= 0):
        depth[[tree.left[i], tree.left[i] + 1]] = depth[i] + 1
    return depth.max()


def reference_grow(X, y, idx, config, k, draw_seed, importance, n_total,
                   fallbacks):
    """Level-order growth with brute-force split search. Each level draws
    for its splittable nodes, left to right, a row of X.shape[1] keys per
    node from the next values of the stream seeded by draw_seed; the k
    smallest keys of a row name the node's candidate columns."""
    root = RefNode()
    level = [(root, idx)]
    depth = 0
    drawn = 0
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
        children = []
        for node, rows in splittable:
            keys = [splitmix64_draw(draw_seed, drawn + j)
                    for j in range(X.shape[1])]
            drawn += X.shape[1]
            candidates = sorted(sorted(range(X.shape[1]),
                                       key=keys.__getitem__)[:k])
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


def reference_fit_forest(matrix, config, seed, fallbacks):
    X, y = matrix.X, matrix.y
    n = len(y)
    k = config.features_per_split or int(np.ceil(np.sqrt(X.shape[1])))
    trees, raws = [], []
    for i in range(config.n_trees):
        tree_seed = mix_seed(seed, i)
        idx = np.array(bootstrap_draw(mix_seed(tree_seed, 0), n)
                       if config.bootstrap else range(n))
        importance = np.zeros(X.shape[1])
        trees.append(to_tree(reference_grow(
            X, y, idx, config, k, mix_seed(tree_seed, 1), importance, n,
            fallbacks)))
        raws.append(importance)
    raw = np.mean(raws, axis=0)
    total = raw.sum()
    return ForestModel(trees, list(matrix.column_names),
                       raw / total if total > 0 else raw)


class TestBestSplit:
    """The root split of a one-tree forest, as stump_split reads it."""

    def test_perfect_single_feature(self):
        X = np.array([[0.0], [0.0], [1.0], [1.0]])
        y = np.array([0, 0, 1, 1])
        f, thr, gain = stump_split(X, y, [0])
        assert f == 0
        assert thr == 0.5
        assert gain == pytest.approx(0.5, abs=1e-15)

    def test_pure_labels(self):
        with pytest.raises(ForestError, match="single class"):
            fit_forest(matrix_from([[0.0], [1.0]], [1, 1]),
                       ForestConfig(n_trees=1))

    def test_constant_feature(self):
        X = np.array([[2.0], [2.0], [2.0], [2.0]])
        y = np.array([0, 1, 0, 1])
        assert stump_split(X, y, [0]) is None

    def test_no_candidates(self):
        # A split searches at least one candidate column.
        with pytest.raises(ForestError,
                           match="features_per_split must be >= 1"):
            stump_split(np.zeros((4, 2)), np.array([0, 1, 0, 1]), [])

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(60):
            n = int(rng.integers(2, 51))
            d = int(rng.integers(1, 6))
            X = rng.integers(0, 5, size=(n, d)).astype(float)
            y = rng.integers(0, 2, size=n)
            feats = range(d)
            assert stump_split(X, y, feats) == brute_force_best_split(
                X, y, feats)

    def test_tie_breaks_to_lowest_feature(self):
        # duplicated feature gives identical gains; lowest index must win
        X = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0], [1.0, 1.0]])
        y = np.array([0, 0, 1, 1])
        f, thr, _ = stump_split(X, y, [1, 0])
        assert f == 0


class TestFitTree:
    """Single trees, grown as one-tree forests."""

    def test_pure_sample_single_leaf(self):
        # A bootstrap that draws one class alone grows a single leaf.
        m = matrix_from([[0.0], [1.0], [2.0]], [1, 1, 0])
        model = fit_forest(m, ForestConfig(n_trees=20))
        pure = [t for t in model.trees if t.value[0] in (0.0, 1.0)]
        assert pure and all(t.feature.tolist() == [-1] for t in pure)

    def test_xor_memorized(self):
        X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        y = np.array([0, 1, 1, 0])
        cfg = ForestConfig(n_trees=1, features_per_split=2, bootstrap=False)
        tree = fit_forest(matrix_from(X, y), cfg, 3).trees[0]
        assert np.array_equal(tree_predict(tree, X), y.astype(float))

    def test_same_seed_same_tree(self):
        rng = np.random.default_rng(0)
        m = matrix_from(rng.normal(size=(40, 5)), rng.integers(0, 2, size=40))
        cfg = ForestConfig(n_trees=1)
        assert same_forest(fit_forest(m, cfg, 99), fit_forest(m, cfg, 99))

    def test_min_samples_leaf_respected(self):
        rng = np.random.default_rng(1)
        m = matrix_from(rng.normal(size=(60, 3)), rng.integers(0, 2, size=60))
        cfg = ForestConfig(n_trees=1, min_samples_leaf=5, features_per_split=3)
        tree = fit_forest(m, cfg).trees[0]
        leaves = tree.feature == -1
        assert leaves.sum() > 1
        assert np.all(tree.n_samples[leaves] >= 5)

    def test_bootstrap_counts_sum_to_n(self):
        # Each tree's root holds the n rows its bootstrap drew, repeats
        # included.
        m = TestModelIdentity._noisy_matrix()
        model = fit_forest(m, ForestConfig(n_trees=5, max_depth=1), 3)
        for i, tree in enumerate(model.trees):
            drawn = bootstrap_draw(mix_seed(mix_seed(3, i), 0), m.n_samples)
            assert tree.n_samples[0] == m.n_samples
            assert tree.value[0] == m.y[drawn].sum() / m.n_samples

    @pytest.mark.parametrize("min_leaf", [1, 3])
    @pytest.mark.parametrize("max_depth", [None, 3])
    @pytest.mark.parametrize("fps", [2, 7])
    def test_repeats_count_like_rows(self, min_leaf, max_depth, fps):
        # A bootstrap tree equals the tree grown without bootstrap on
        # copies of the rows its bootstrap drew.
        m = TestModelIdentity._noisy_matrix()
        settings = dict(n_trees=1, min_samples_leaf=min_leaf,
                        max_depth=max_depth, features_per_split=fps)
        for seed in range(3):
            drawn = bootstrap_draw(mix_seed(mix_seed(seed, 0), 0),
                                   m.n_samples)
            repeated = fit_forest(m, ForestConfig(**settings), seed)
            copied = fit_forest(m.subset(drawn),
                                ForestConfig(bootstrap=False, **settings),
                                seed)
            assert same_forest(repeated, copied)

    @pytest.mark.parametrize("bad", [-1, 6])
    def test_row_outside_matrix_rejected(self, bad):
        m = matrix_from(np.arange(6.0)[:, None], [0, 1, 0, 1, 0, 1])
        with pytest.raises(ForestError,
                           match=f"row {bad} outside the matrix's 6 rows"):
            list(fit_forests(m, ForestConfig(n_trees=1),
                             [([bad, 0, 1, 2], 0)]))


def _separable_matrix(n=80, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1, 1, size=n)
    y = (x > 0).astype(int)
    return matrix_from(x[:, None], y)


class TestFitForest:
    def test_separable_data(self):
        m = _separable_matrix()
        model = fit_forest(m, ForestConfig(n_trees=20), 1)
        held = np.array([[-0.9], [-0.5], [0.5], [0.9]])
        p = predict_proba(model, held)
        assert np.all(p[:2] < 0.5)
        assert np.all(p[2:] > 0.5)

    def test_singleton_ensemble_equals_tree(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(50, 4))
        y = rng.integers(0, 2, size=50)
        m = matrix_from(X, y)
        cfg = ForestConfig(n_trees=1, bootstrap=False)
        model = fit_forest(m, cfg, 7)
        assert np.array_equal(predict_proba(model, X),
                              tree_predict(model.trees[0], X))

    def test_single_class_error(self):
        m = matrix_from(np.zeros((5, 1)), np.ones(5, dtype=int))
        with pytest.raises(ForestError, match="single class"):
            fit_forest(m, ForestConfig(n_trees=2))

    @pytest.mark.parametrize("depth", [0, -3])
    def test_max_depth_below_one_rejected(self, depth):
        with pytest.raises(ForestError,
                           match=f"max_depth must be >= 1, got {depth}"):
            ForestConfig(max_depth=depth)

    def test_no_columns_error(self):
        y = np.array([0, 1] * 3)
        with pytest.raises(ForestError, match="without columns"):
            fit_forest(matrix_from(np.zeros((6, 0)), y),
                       ForestConfig(n_trees=2))

    def test_memorization_limit(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(30, 3))
        y = rng.integers(0, 2, size=30)
        m = matrix_from(X, y)
        cfg = ForestConfig(n_trees=5, bootstrap=False, min_samples_leaf=1,
                           features_per_split=3)
        model = fit_forest(m, cfg)
        assert np.array_equal(predict_proba(model, X), y.astype(float))

    def test_probability_bounds(self):
        m = _separable_matrix(seed=5)
        model = fit_forest(m, ForestConfig(n_trees=15), 2)
        p = predict_proba(model, np.linspace(-2, 2, 50)[:, None])
        assert np.all((p >= 0) & (p <= 1))

    def test_serial_parallel_identical(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(100, 6))
        y = (X[:, 0] + rng.normal(0, 0.5, 100) > 0).astype(int)
        m = matrix_from(X, y)
        cfg = ForestConfig(n_trees=16)
        serial = fit_forest(m, cfg, 11, n_jobs=1)
        parallel = fit_forest(m, cfg, 11, n_jobs=4)
        assert np.array_equal(predict_proba(serial, X),
                              predict_proba(parallel, X))
        assert np.array_equal(serial.gini_importance,
                              parallel.gini_importance)
        assert same_forest(serial, parallel)
        assert not same_forest(serial, fit_forest(m, cfg, 12))

    def test_tree_order_invariance(self):
        m = _separable_matrix(seed=8)
        model = fit_forest(m, ForestConfig(n_trees=9), 3)
        shuffled = fit_forest(m, ForestConfig(n_trees=9), 3)
        shuffled.trees = list(reversed(shuffled.trees))
        assert np.allclose(predict_proba(model, m.X),
                           predict_proba(shuffled, m.X), atol=1e-12)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(9)
        X = rng.uniform(0.1, 4.0, size=(60, 3))
        y = (X[:, 1] > 2.0).astype(int)
        # A strictly increasing transform of a column grows the same
        # trees, each cut on it between the same two values of its node's
        # rows, so each row of a tree's sample reaches the same leaf.
        # Between those values a prediction may differ, since a cut is
        # their midpoint on either scale.
        cfg = ForestConfig(n_trees=12)
        base = fit_forest(matrix_from(X, y), cfg, 5)
        Xt = X.copy()
        Xt[:, 1] = np.log(Xt[:, 1])  # strictly increasing transform
        trans = fit_forest(matrix_from(Xt, y), cfg, 5)
        for i, (a, b) in enumerate(zip(base.trees, trans.trees)):
            for name in ("feature", "left", "value", "n_samples"):
                assert np.array_equal(getattr(a, name), getattr(b, name))
            on = a.feature == 1
            assert np.array_equal(a.threshold[~on], b.threshold[~on])
            sample = bootstrap_draw(mix_seed(mix_seed(5, i), 0), len(y))
            assert np.array_equal(tree_leaves(a, X[sample]),
                                  tree_leaves(b, Xt[sample]))

    def test_predictions_equal_a_walk_of_each_tree(self):
        rng = np.random.default_rng(14)
        m = matrix_from(np.round(rng.normal(size=(60, 3)), 1),
                        rng.integers(0, 2, size=60))
        model = fit_forest(m, ForestConfig(n_trees=6, max_depth=4), 3)
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
        expected = sum(tree_predict(t, rows) for t in model.trees)
        assert predict_proba(model, rows).tolist() == (
            expected / len(model.trees)).tolist()

    def test_trees_of_any_depth_over_several_blocks(self, monkeypatch):
        rng = np.random.default_rng(21)
        m = matrix_from(rng.normal(size=(300, 4)), rng.integers(0, 2, 300))
        deep = fit_forest(m, ForestConfig(n_trees=5, bootstrap=False,
                                          min_samples_leaf=1), 2)
        stumps = fit_forest(m, ForestConfig(n_trees=4, max_depth=1), 4)
        # Deep trees take several rounds of ROUTE_STEPS steps, stumps one.
        assert min(map(tree_depth, deep.trees)) > 2 * forest.ROUTE_STEPS
        assert set(map(tree_depth, stumps.trees)) == {1}
        deep.trees[1:1] = stumps.trees[:2]
        deep.trees += stumps.trees[2:]
        rows = rng.normal(size=(40, 4))
        # Three trees per block: four blocks, the last one partial.
        monkeypatch.setattr(forest, "PREDICT_PAIRS", 3 * len(rows))
        expected = sum(tree_predict(t, rows) for t in deep.trees)
        assert predict_proba(deep, rows).tolist() == (
            expected / len(deep.trees)).tolist()

    def test_arity_mismatch(self):
        m = _separable_matrix()
        model = fit_forest(m, ForestConfig(n_trees=3))
        with pytest.raises(ForestError, match="arity"):
            predict_proba(model, np.zeros((2, 5)))

    @pytest.mark.parametrize("shape", [(2, 3, 3), (3,), ()],
                             ids=["3-D", "1-D", "0-D"])
    def test_rows_other_than_a_matrix_rejected(self, shape):
        model = fit_forest(_separable_matrix(), ForestConfig(n_trees=3))
        with pytest.raises(ForestError, match=f"got a {len(shape)}-D "):
            predict_proba(model, np.zeros(shape))


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
        bound = min(forest._usable_cores(), 3)
        assert all(w <= bound for w, _ in recording_pool)
        recording_pool.clear()
        for cores, expected in ((8, (3, 1)), (2, (2, 1))):
            monkeypatch.setattr(forest, "_usable_cores", lambda: cores)
            assert map_chunks(_absolute, [-1, -2, -3], 10_000) == \
                [(1, 1), (1, 2), (1, 3)]
            assert recording_pool.pop() == expected

    def test_one_worker_needs_no_pool(self, recording_pool, monkeypatch):
        monkeypatch.setattr(forest, "_usable_cores", lambda: 8)
        assert map_chunks(_absolute, [-4, 5], 1) == [(1, 4), (1, 5)]
        # A single item keeps the jobs, so a single forest can fan out.
        assert map_chunks(_absolute, [-4], 4) == [(4, 4)]
        assert map_chunks(_absolute, [], 4) == []
        monkeypatch.setattr(forest, "_usable_cores", lambda: 1)
        assert map_chunks(_absolute, [-4, 5], 4) == [(1, 4), (1, 5)]
        assert recording_pool == []

    def test_one_usable_core_starts_no_pool(self, recording_pool,
                                            monkeypatch):
        # Two cores on the host, one in the process's CPU affinity.
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                            raising=False)
        assert map_chunks(_absolute, [-4, 5], 2) == [(1, 4), (1, 5)]
        assert recording_pool == []

    def test_cores_without_affinity(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert forest._usable_cores() == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert forest._usable_cores() == 1

    @pytest.mark.parametrize("n_jobs", [0, -3])
    def test_rejects_n_jobs_below_one(self, n_jobs):
        with pytest.raises(ForestError, match="n_jobs"):
            map_chunks(_absolute, [1, 2], n_jobs)

    def test_forest_fans_out_trees_once(self, recording_pool, monkeypatch):
        monkeypatch.setattr(forest, "_usable_cores", lambda: 8)
        m = _separable_matrix(seed=4)
        cfg = ForestConfig(n_trees=7)
        model = fit_forest(m, cfg, 1, n_jobs=3)
        # One pool, one chunk of trees per worker.
        assert recording_pool == [(3, 1)]
        assert same_forest(model, fit_forest(m, cfg, 1))


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
        # value held by several rows.
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

    def test_columns_of_any_width_match_brute_force(self):
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
                assert stump_split(X, y, feats) == \
                    brute_force_best_split(X, y, feats)

    @pytest.mark.parametrize("seed", range(4))
    def test_cuts_ignore_row_order_within_nodes(self, seed):
        # One pass over nodes of random rows, each node's rows shuffled
        # within its range: every node gets the brute-force cut of its
        # rows, repeats included, whatever their order.
        rng = np.random.default_rng(seed)
        for m in (self._two_widest_matrix(), self._noisy_matrix(),
                  self._narrow_matrix()):
            view = BinnedMatrix.of(m.X)
            k = int(rng.integers(1, m.n_features + 1))
            nodes = []
            while len(nodes) < 12:
                rows = rng.choice(m.n_samples,
                                  int(rng.integers(2, m.n_samples)),
                                  replace=False).astype(np.int32)
                counts = rng.integers(1, 4, len(rows)).astype(np.int32)
                if 0 < m.y[rows].sum() < len(rows):
                    nodes.append((rows, counts))
            cands = np.sort(np.argsort(
                rng.uniform(size=(len(nodes), m.n_features)))[:, :k], axis=1)
            expected = []
            for (rows, counts), feats in zip(nodes, cands):
                sample = np.repeat(rows, counts)
                X, y = m.X[sample], m.y[sample]
                expected.append(brute_force_best_split(X, y, feats)
                                or first_midpoint(X, feats)
                                or (-1, 0.0, 0.0))
            rows, counts = (np.concatenate(part) for part in zip(*nodes))
            row_node = np.repeat(np.arange(len(nodes), dtype=np.int32),
                                 [len(r) for r, _ in nodes])
            node_n = np.bincount(row_node, weights=counts).astype(int)
            node_pos = np.bincount(row_node, weights=counts * m.y[rows]
                                   ).astype(int)
            for _ in range(3):
                order = np.lexsort((rng.uniform(size=len(rows)), row_node))
                cuts = forest._best_cuts(
                    view, rows[order], m.y[rows[order]] != 0, row_node,
                    node_n, node_pos, cands, counts[order])
                assert list(zip(*(c.tolist() for c in cuts))) == expected

    def test_matches_reference_grower(self):
        fallbacks = []
        for m in (self._noisy_matrix(), self._parity_matrix(),
                  self._two_widest_matrix(), self._narrow_matrix()):
            for overrides in ({}, {"max_depth": 3}, {"min_samples_leaf": 5},
                              {"bootstrap": False},
                              {"features_per_split": m.n_features}):
                for seed in (0, 1, 2):
                    cfg = ForestConfig(n_trees=4, **overrides)
                    expected = reference_fit_forest(m, cfg, seed, fallbacks)
                    assert same_forest(fit_forest(m, cfg, seed), expected), \
                        (overrides, seed)
        assert fallbacks  # the zero-gain fallback was exercised


class TestFitForests:
    """Growing many forests together gives each forest byte for byte."""

    CONFIGS = [ForestConfig(n_trees=1),
               ForestConfig(n_trees=3, max_depth=2),
               ForestConfig(n_trees=7, min_samples_leaf=4),
               ForestConfig(n_trees=3, bootstrap=False),
               ForestConfig(n_trees=7, max_depth=5, min_samples_leaf=2),
               ForestConfig(n_trees=1, bootstrap=False, max_depth=1),
               ForestConfig(n_trees=3, features_per_split=5)]

    @staticmethod
    def _forests(n):
        """Seven (rows, seed) forests, each on its own rows."""
        rng = np.random.default_rng(41)
        return [(np.sort(rng.choice(n, size=int(rng.integers(20, n)),
                                    replace=False)), seed)
                for seed in range(7)]

    # One row grows one tree at a time, 100 rows a few of the trees (13-79
    # distinct rows each), and the default all of a call's trees.
    @pytest.mark.parametrize("budget", [1, 100, forest.ROWS_IN_FLIGHT])
    def test_equals_fitting_each_forest_alone(self, budget, monkeypatch):
        m = TestModelIdentity._noisy_matrix()
        forests = self._forests(m.n_samples)
        alone = [[fit_forest(m.subset(rows), cfg, seed)
                  for rows, seed in forests] for cfg in self.CONFIGS]
        monkeypatch.setattr(forest, "ROWS_IN_FLIGHT", budget)
        in_flight = []
        # ("pass", splittable nodes) and ("search", nodes), in the order
        # they happen.
        events = []
        draw, search = forest.splitmix64, forest._search
        sample, grow_trees = forest._sample, forest._grow_trees
        growing = {}  # distinct rows of each tree started and not done

        def draw_spy(seed, counter):
            # A pass draws its candidate keys in one call, a row of seeds
            # per splittable node; a bootstrap draw has one seed.
            if np.ndim(seed) == 2:
                events.append(("pass", len(seed)))
            return draw(seed, counter)

        def search_spy(view, labels, buffer, start, *rest):
            events.append(("search", len(start)))
            return search(view, labels, buffer, start, *rest)

        def sample_spy(bootstrap, task):
            drawn = sample(bootstrap, task)
            growing[task[:2]] = len(drawn[0])
            # The rows of the trees in flight, this one last.
            in_flight.append(list(growing.values()))
            return drawn

        def grow_spy(*args):
            for key, *grown in grow_trees(*args):
                del growing[key]
                yield key, *grown

        monkeypatch.setattr(forest, "splitmix64", draw_spy)
        monkeypatch.setattr(forest, "_search", search_spy)
        monkeypatch.setattr(forest, "_sample", sample_spy)
        monkeypatch.setattr(forest, "_grow_trees", grow_spy)
        for cfg, expected in zip(self.CONFIGS, alone):
            in_flight.clear()
            events.clear()
            together = list(fit_forests(m, cfg, iter(forests)))
            assert sorted(i for i, _ in together) == list(range(len(forests)))
            for i, model in together:
                assert same_forest(model, expected[i]), cfg
            # Each tree started while the rows of the others were under
            # the budget.
            assert not growing
            assert all(sum(rows) - rows[-1] < budget for rows in in_flight)
            most, trees = max(map(len, in_flight)), 7 * cfg.n_trees
            assert {1: most == 1, 100: 1 < most < trees}.get(
                budget, most == trees), cfg
            # A pass with splittable nodes searches them all in one call.
            pass_nodes = 0
            for kind, nodes in events:
                if kind == "pass":
                    assert pass_nodes == 0
                    pass_nodes = nodes
                else:
                    assert nodes == pass_nodes > 0, cfg
                    pass_nodes = 0
            assert pass_nodes == 0

    def test_split_table_is_int32(self, monkeypatch):
        # np.add.at leaves its fast path when the table, keys and counts
        # differ in dtype.
        seen = {}
        best_cuts = forest._best_cuts

        def best_cuts_spy(view, rows, labels, row_node, node_n, node_pos,
                          cands, counts):
            seen.setdefault("rows", set()).add(rows.dtype)
            seen.setdefault("counts", set()).add(counts.dtype)
            return best_cuts(view, rows, labels, row_node, node_n, node_pos,
                             cands, counts)

        class Spy:
            def __init__(self, of):
                self.of = of

            def __getattr__(self, name):
                return getattr(self.of, name)

        class AddSpy(Spy):
            def at(self, table, key, counts):
                seen.setdefault("add.at", set()).add(
                    (table.dtype, key.dtype, counts.dtype))
                np.add.at(table, key, counts)

        class NumPy(Spy):
            add = AddSpy(np.add)

        monkeypatch.setattr(forest, "_best_cuts", best_cuts_spy)
        monkeypatch.setattr(forest, "np", NumPy(np))
        m = TestModelIdentity._noisy_matrix()
        list(fit_forests(m, ForestConfig(n_trees=3), self._forests(
            m.n_samples)))
        int32 = np.dtype(np.int32)
        assert seen == {"rows": {int32}, "counts": {int32},
                        "add.at": {(int32, int32, int32)}}

    def test_lanes_span_only_their_nodes_values(self, monkeypatch):
        # One tree on one column of 400 values: the nodes of a pass split
        # those values between them, so a pass's table holds at most one
        # slot pair per value, however many nodes it searches.
        passes = []
        best_cuts = forest._best_cuts

        def best_cuts_spy(view, rows, labels, row_node, *rest):
            passes.append([row_node.max() + 1])
            return best_cuts(view, rows, labels, row_node, *rest)

        class AddSpy:
            def __getattr__(self, name):
                return getattr(np.add, name)

            def at(self, table, key, counts):
                passes[-1].append(table.size)
                np.add.at(table, key, counts)

        class NumPy:
            add = AddSpy()

            def __getattr__(self, name):
                return getattr(np, name)

        monkeypatch.setattr(forest, "_best_cuts", best_cuts_spy)
        monkeypatch.setattr(forest, "np", NumPy())
        rng = np.random.default_rng(53)
        x = rng.permutation(400).astype(float)
        y = rng.integers(0, 2, size=400)
        fit_forest(matrix_from(x[:, None], y),
                   ForestConfig(n_trees=1, bootstrap=False))
        assert max(nodes for nodes, _ in passes) > 10
        assert max(size for _, size in passes) <= 2 * 400

    def test_table_beyond_int32_keys_is_refused(self):
        # Two rows whose codes lie 2**30 apart need 2**31 + 2 slots.
        view = BinnedMatrix(np.array([[0.0], [1.0]]),
                            np.array([[0], [2**30]], dtype=np.int32),
                            np.array([0, 2**30 + 1]), np.array([0.0, 1.0]))
        with pytest.raises(ForestError, match=r"2\*\*31"):
            forest._best_cuts(view, np.array([0, 1], dtype=np.int32),
                              np.array([False, True]),
                              np.zeros(2, dtype=np.int32), np.array([2]),
                              np.array([1]), np.array([[0]]),
                              np.ones(2, dtype=np.int32))

    def test_parallel_equals_serial(self, recording_pool, monkeypatch):
        monkeypatch.setattr(forest, "_usable_cores", lambda: 8)
        m = TestModelIdentity._noisy_matrix()
        forests = self._forests(m.n_samples)
        cfg = ForestConfig(n_trees=3, max_depth=5)
        serial = dict(fit_forests(m, cfg, forests))
        parallel = list(fit_forests(m, cfg, forests, n_jobs=2))
        assert recording_pool == [(2, 1)]
        # Models come back as they complete, in either mode.
        assert sorted(i for i, _ in parallel) == list(range(len(forests)))
        for i, model in parallel:
            assert same_forest(model, serial[i])

    def test_config_checked_before_any_pool(self, recording_pool,
                                            monkeypatch):
        monkeypatch.setattr(forest, "_usable_cores", lambda: 8)
        m = matrix_from(np.arange(8.0)[:, None], [0, 1] * 4)
        cfg = ForestConfig(n_trees=2, features_per_split=2)
        with pytest.raises(ForestError, match="features_per_split 2 exceeds "
                                              "feature count 1"):
            list(fit_forests(m, cfg, [(range(8), 0), (range(8), 1)],
                             n_jobs=2))
        assert recording_pool == []

    def test_single_class_forest_rejected(self):
        m = matrix_from(np.arange(8.0)[:, None], [0, 0, 0, 0, 1, 1, 1, 1])
        with pytest.raises(ForestError, match="single class"):
            list(fit_forests(m, ForestConfig(n_trees=2),
                             [(range(8), 0), (range(4), 1)]))

    @pytest.mark.parametrize("bad", [-1, -6, 6, 9])
    def test_row_outside_matrix_rejected(self, bad):
        m = matrix_from(np.arange(6.0)[:, None], [0, 1, 0, 1, 0, 1])
        with pytest.raises(ForestError, match=f"row {bad} outside"):
            list(fit_forests(m, ForestConfig(n_trees=2),
                             [([bad, 0, 1, 2], 0)]))

    @pytest.mark.parametrize("rows", [np.arange(12) % 3 == 0,
                                      [0.5, 1.9, 2.2, 3.7]],
                             ids=["mask", "floats"])
    def test_rows_that_are_not_row_numbers_rejected(self, rows):
        # int conversion would read the mask as 12 copies of rows 0 and 1,
        # and the floats as rows 0-3.
        m = matrix_from(np.arange(12.0)[:, None], [0, 1] * 6)
        with pytest.raises(ForestError,
                           match="forest 1's rows must be integer row "
                                 f"numbers, got {np.asarray(rows).dtype}"):
            list(fit_forests(m, ForestConfig(n_trees=2),
                             [(range(12), 0), (rows, 1)]))
        # An empty list is no rows, whatever dtype NumPy gives it.
        with pytest.raises(ForestError, match="need at least 2 samples, "
                                              "got 0"):
            list(fit_forests(m, ForestConfig(n_trees=2), [([], 0)]))

    def test_tree_arrays_own_their_data(self):
        # A kept tree holds its own nodes and nothing of the trees grown
        # beside it.
        m = TestModelIdentity._noisy_matrix()
        dtypes = {"feature": np.int32, "threshold": np.float64,
                  "left": np.int32, "value": np.float64,
                  "n_samples": np.int32}
        for _, model in fit_forests(m, ForestConfig(n_trees=4),
                                    self._forests(m.n_samples)):
            for tree in model.trees:
                assert len(tree.feature) > 1
                for name, dtype in dtypes.items():
                    array = getattr(tree, name)
                    assert array.base is None, name
                    assert array.dtype == dtype, name

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
        """A forest on rows R of a matrix binned over all rows equals the
        forest on the matrix of R alone."""
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
        whole = matrix_from(X, y)
        for seed in range(4):
            for fps in (1, 2, 4):
                cfg = ForestConfig(n_trees=3, features_per_split=fps)
                [(_, together)] = fit_forests(whole, cfg, [(rows, seed)])
                assert same_forest(together,
                                   fit_forest(whole.subset(rows), cfg, seed))


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
        with pytest.raises(ForestError, match="row 0, column 1"):
            predict_proba(model, np.array([[0.0, bad, 0.0]]))
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
        model = fit_forest(m, ForestConfig(n_trees=30), 1)
        assert int(np.argmax(model.gini_importance)) == 4

    def test_stump_forest_importance(self):
        X = np.array([[0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0]] * 10)
        y = np.array([0, 1] * 10)
        cfg = ForestConfig(n_trees=5, bootstrap=False, features_per_split=4)
        model = fit_forest(matrix_from(X, y), cfg)
        assert model.gini_importance[3] == pytest.approx(1.0, abs=1e-12)
        assert np.all(model.gini_importance[:3] == 0.0)

    def test_importance_normalized(self):
        rng = np.random.default_rng(13)
        X = rng.normal(size=(100, 5))
        y = (X[:, 0] > 0).astype(int)
        model = fit_forest(matrix_from(X, y), ForestConfig(n_trees=10), 4)
        assert model.gini_importance.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(model.gini_importance >= 0)


class TestMixSeed:
    def test_stable_and_distinct(self):
        seen = {mix_seed(0, i) for i in range(1000)}
        assert len(seen) == 1000
        assert mix_seed(42, 7) == mix_seed(42, 7)
        assert mix_seed(42, 7) != mix_seed(43, 7)

    def test_known_answers(self):
        # Every run, forest and tree seed derives through mix_seed.
        assert [mix_seed(s, i) for s, i in [
            (0, 0), (42, 7), (2**64 - 1, 3), (-1, 2**40)]] == [
            0x5692161D100B05E5, 0x691CFB1624B11B0B, 0xE3489983F7C9F2B4,
            0xFD0E3ED0C53AEC45]
