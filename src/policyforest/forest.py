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
from functools import cached_property, partial
from itertools import starmap

import numpy as np

from . import PolicyforestError
from .dataset import EncodedMatrix, check_finite

SCHEMA_VERSION = 2

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


class ForestError(PolicyforestError):
    """Raised for invalid forest configuration or inputs."""


def map_chunks(fn, items, n_jobs: int = 1):
    """fn(jobs, chunk) over contiguous chunks of items, one chunk per
    worker process, concatenated in item order.

    fn maps a chunk of items to an iterable of results, so one call can
    share work across its items (fit_forests grows all their trees
    together). There are min(n_jobs, cores, items) workers. fn must
    pickle (a module-level function, or a functools.partial of one
    binding the shared inputs), so the shared inputs are sent once per
    worker, and inside a worker jobs is 1, so that pools never nest. With
    one worker, fn runs here once on all items with jobs = min(n_jobs,
    cores), so that a single forest can still fan out its trees, and its
    result is returned as it is. When jobs is 1 the items are not even
    listed: a lazy fn streams over lazy items.
    """
    if n_jobs < 1:
        raise ForestError(f"n_jobs must be >= 1, got {n_jobs}")
    jobs = min(n_jobs, os.cpu_count() or 1)
    if jobs > 1:
        items = list(items)
        workers = min(jobs, len(items))
        if workers > 1:
            size = math.ceil(len(items) / workers)
            chunks = [items[i:i + size]
                      for i in range(0, len(items), size)]
            # Imported here: the pool costs import time and memory that
            # serial runs never need.
            from concurrent.futures import ProcessPoolExecutor
            with ProcessPoolExecutor(max_workers=workers) as pool:
                return [r for part in pool.map(partial(_in_worker, fn),
                                               chunks)
                        for r in part]
    return fn(jobs, items)


def _in_worker(fn, chunk) -> list:
    """fn's results on one chunk in a worker, listed so that they pickle."""
    return list(fn(1, chunk))


# Impurity decreases at or below this are treated as zero gain (guards
# against float noise on splits that are exactly neutral).
GAIN_EPS = 1e-12

# Trees grown at once, one depth level per pass, and the distinct rows one
# sub-step of a pass may search. More of either spreads the per-call NumPy
# cost over more nodes but holds more memory.
TREES_IN_FLIGHT = 32
STEP_ROWS = 3072


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
        if n_features < 1:
            raise ForestError("cannot fit a tree on a matrix without columns")
        if self.features_per_split == "sqrt":
            return min(n_features, math.ceil(math.sqrt(n_features)))
        if self.features_per_split > n_features:
            raise ForestError(f"features_per_split "
                              f"{self.features_per_split} exceeds feature "
                              f"count {n_features}")
        return self.features_per_split


@dataclass(frozen=True, eq=False)
class Tree:
    """A fitted tree as flat arrays over its nodes in preorder.

    Node i sends a row with `row[feature[i]] <= threshold[i]` to node
    i + 1 and any other row to node right[i]. A leaf has feature and
    right -1. value is a node's positive fraction and n_samples its
    sample size, bootstrap repeats included.
    """

    feature: np.ndarray    # int32
    threshold: np.ndarray  # float64
    right: np.ndarray      # int32
    value: np.ndarray      # float64
    n_samples: np.ndarray  # int32


_TREE_DTYPES = {"feature": np.int32, "threshold": np.float64,
                "right": np.int32, "value": np.float64,
                "n_samples": np.int32}


def gini_impurity(n_pos: int, n_neg: int) -> float:
    """Binary Gini impurity 1 - p^2 - (1-p)^2 = 2p(1-p)."""
    n = n_pos + n_neg
    if n < 1:
        raise ForestError("gini impurity of an empty node is undefined")
    p = n_pos / n
    return 2.0 * p * (1.0 - p)


@dataclass(frozen=True)
class BinnedMatrix:
    """A float matrix with each cell replaced by the rank of its value
    among its column's distinct values, built once and shared by every
    tree grown on the matrix's rows.

    A cut only uses the values present in its node, so binning a
    superset of a forest's rows gives the same thresholds as binning
    exactly those rows.
    """

    X: np.ndarray           # (n, F) float matrix the bins describe
    codes: np.ndarray       # (n, F) int32 rank of each cell in its column
    bin_start: np.ndarray   # (F + 1,) first bin of each column
    bin_values: np.ndarray  # (n_bins,) value of each bin, column-major

    @classmethod
    def of(cls, X: np.ndarray) -> "BinnedMatrix":
        X = np.asarray(X, dtype=float)
        check_finite(X, ForestError)
        # One stable sort of every column; a bin starts at each value that
        # differs from the one before it in its column.
        order = np.argsort(X, axis=0, kind="stable")
        ranked = np.take_along_axis(X, order, axis=0)
        new_bin = np.ones(X.shape, dtype=bool)
        new_bin[1:] = ranked[1:] != ranked[:-1]
        codes = np.empty(X.shape, dtype=np.int32)
        np.put_along_axis(codes, order, new_bin.cumsum(axis=0) - 1, axis=0)
        bin_start = np.concatenate([[0], new_bin.sum(axis=0).cumsum()])
        return cls(X, codes, bin_start, ranked.T[new_bin.T])

    @property
    def n_features(self) -> int:
        return self.X.shape[1]

    @cached_property
    def widest(self) -> int:
        """The column with the most bins, the lowest of equals."""
        return int(np.argmax(np.diff(self.bin_start)))


def _sample(view: BinnedMatrix, rows: np.ndarray, counts: np.ndarray):
    """A sample as its distinct rows and their repeat counts, two arrays
    over its slots, in the order of view's widest column, stable by slot."""
    keep = counts.nonzero()[0]
    keep = keep[np.argsort(view.codes[rows[keep], view.widest],
                           kind="stable")]
    return rows[keep], counts[keep]


def _best_cuts(view: BinnedMatrix, rows: np.ndarray, labels: np.ndarray,
               row_node: np.ndarray, node_n: np.ndarray,
               node_pos: np.ndarray, cands: np.ndarray, counts: np.ndarray):
    """Best cut of each node of one growth step, all nodes at once.

    rows holds the nodes' distinct rows back to back, each node's in the
    order of view's widest column; counts their repeats, labels their
    labels as booleans and row_node the node of each. Node i has node_n[i]
    rows, node_pos[i] of them positive, repeats included. cands[i] holds
    node i's candidate columns in ascending order. Each (node, candidate)
    lane sums the counts of its rows, and of its positive rows, per value
    of its column, in one table for all lanes: a lane of the widest
    column has one slot per run of equal values in its node, any other
    lane one slot per bin of its column. Each cut lies between two
    adjacent values present in its node.

    Returns per node (feature, threshold, gain): the cut with the largest
    weighted Gini decrease, ties to the lowest column, then the lowest
    threshold. When no cut gains more than GAIN_EPS it is the node's first
    cut with gain 0.0, so that consistent data is still memorized (parity
    splits such as XOR have zero first-level gain). feature is -1 when no
    candidate column varies within the node.
    """
    m, k = cands.shape
    feature = np.full(m, -1)
    threshold = np.zeros(m)
    gain_out = np.zeros(m)
    wide = view.widest
    # Rows of the nodes that search the widest column. A node's rows are
    # in that column's order, so its values there come in runs.
    at_wide = cands == wide
    wide_rows = np.flatnonzero(at_wide.any(axis=1)[row_node])
    wide_node = row_node[wide_rows]
    wide_code = view.codes[rows[wide_rows], wide]
    new_run = np.ones(len(wide_rows), dtype=bool)
    new_run[1:] = ((wide_code[1:] != wide_code[:-1])
                   | (wide_node[1:] != wide_node[:-1]))
    node_runs = np.bincount(wide_node[new_run], minlength=m)
    first_run = np.cumsum(node_runs) - node_runs
    lane_feature = cands.ravel()
    lane_bins = np.where(
        at_wide.ravel(), np.repeat(node_runs, k),
        view.bin_start[lane_feature + 1] - view.bin_start[lane_feature])
    lane_table = np.cumsum(lane_bins) - lane_bins
    size = int(lane_bins.sum())
    # Code of each (row, candidate) cell, in node then column order; in
    # the widest column, the rank of the row's run in its node.
    node_slots = np.bincount(row_node, minlength=m)
    cell = np.repeat(cands, node_slots, axis=0)
    cell += (rows * view.n_features)[:, None]
    code = view.codes.ravel()[cell]
    np.put(code, wide_rows * k + at_wide.argmax(axis=1)[wide_node],
           np.cumsum(new_run) - 1 - first_run[wide_node])
    # A positive row's cells count size slots higher. The running sums
    # over the table stay within k times the nodes' rows, repeats
    # included, far under 2**53, so its floats are exact integers.
    key = np.repeat(lane_table.reshape(m, k), node_slots, axis=0)
    key += (size * labels)[:, None]
    key += code
    table = np.bincount(key.ravel(), np.repeat(counts.astype(float), k),
                        minlength=2 * size)
    pos = table[size:]
    total = table[:size] + pos
    present = total.nonzero()[0]
    lane = np.searchsorted(lane_table, present, side="right") - 1
    # Every lane holds all of its node's rows, so the running counts over
    # the table restart at each lane's first row.
    lane_n = np.repeat(node_n, k)
    lane_pos = np.repeat(node_pos, k)
    n_left = total[present].cumsum() - (np.cumsum(lane_n) - lane_n)[lane]
    pos_left = pos[present].cumsum() - (np.cumsum(lane_pos) - lane_pos)[lane]
    cut = (n_left < lane_n[lane]).nonzero()[0]
    if cut.size == 0:
        return feature, threshold, gain_out
    cut_lane = lane[cut]
    node = cut_lane // k
    n = node_n[node]
    n_pos = node_pos[node]
    n_left = n_left[cut]
    pos_left = pos_left[cut]
    p = n_pos / n
    parent = 2.0 * p * (1.0 - p)
    n_right = n - n_left
    pos_right = n_pos - pos_left
    p_l = pos_left / n_left
    p_r = pos_right / n_right
    gain = parent - (n_left / n) * 2 * p_l * (1 - p_l) \
                  - (n_right / n) * 2 * p_r * (1 - p_r)

    # Cuts come in (node, column, value) order: each node's first maximum
    # is its tie-broken best.
    new_node = np.ones(len(node), dtype=bool)
    new_node[1:] = node[1:] != node[:-1]
    starts = new_node.nonzero()[0]
    best = np.maximum.reduceat(gain, starts)
    at_best = np.where(gain == best[new_node.cumsum() - 1],
                       np.arange(len(gain)), len(gain))
    positive = best > GAIN_EPS
    chosen = np.where(positive, np.minimum.reduceat(at_best, starts), starts)
    lanes = cut_lane[chosen]
    col = lane_feature[lanes]
    at = node[chosen]
    low, high = present[cut[chosen] + [[0], [1]]] - lane_table[lanes]
    # A run's rank maps back to its bin through the run's first row.
    ranked = col == wide
    run_code = wide_code[new_run]
    low[ranked] = run_code[first_run[at[ranked]] + low[ranked]]
    high[ranked] = run_code[first_run[at[ranked]] + high[ranked]]
    feature[at] = col
    threshold[at] = 0.5 * (view.bin_values[view.bin_start[col] + low]
                           + view.bin_values[view.bin_start[col] + high])
    gain_out[at] = np.where(positive, best, 0.0)
    return feature, threshold, gain_out


def best_split(X: np.ndarray | BinnedMatrix, y: np.ndarray,
               candidate_features) -> tuple[int, float, float] | None:
    """Greedy search over candidate features and midpoint thresholds.

    X is a float matrix, or a BinnedMatrix whose rows match y. Returns
    (feature, threshold, impurity_decrease) maximizing the weighted Gini
    decrease, or None when no split has positive gain. Ties break toward
    the lowest feature index, then lowest threshold. This is one node of
    the search that grows trees.
    """
    view = X if isinstance(X, BinnedMatrix) else BinnedMatrix.of(X)
    y = np.asarray(y)
    n = len(y)
    if n < 2:
        return None
    n_pos = int(y.sum())
    if n_pos == 0 or n_pos == n:
        return None
    cands = np.unique(np.asarray(list(candidate_features), dtype=int))
    if cands.size == 0:
        return None
    f, thr, gain = _search(view, y != 0, _sample(view, np.arange(n),
                                                 np.ones(n, dtype=int)),
                           np.array([0]), np.array([n]), np.array([n]),
                           np.array([n_pos]), cands[None, :])[:3]
    if gain[0] <= GAIN_EPS:
        return None
    return int(f[0]), float(thr[0]), float(gain[0])


class _Tree:
    """One tree being grown level by level: its sample (see _sample),
    permuted in place so that every node's rows are one contiguous range
    of slots, in widest-column order within it; front, the nodes of its
    current level left to right as a (4, nodes) array of first slot,
    slots, rows and positives, rows and positives counting repeats; and
    its finished levels, each a (6, nodes) float array holding per node
    its first slot, rows, positive fraction, feature (-1 for a leaf),
    threshold and sample-weighted impurity decrease. Counts and features
    are exact as floats."""

    __slots__ = ("key", "sample", "rng", "k", "min_leaf", "max_depth",
                 "n_total", "depth", "front", "levels")

    def __init__(self, key, rows: np.ndarray, counts: np.ndarray,
                 config: ForestConfig, seed: int, view: BinnedMatrix,
                 labels: np.ndarray):
        self.key = key
        self.k = config.resolve_features_per_split(view.n_features)
        self.sample = _sample(view, rows, counts)
        self.rng = np.random.default_rng(seed)
        self.min_leaf = config.min_samples_leaf
        self.max_depth = (math.inf if config.max_depth is None
                          else config.max_depth)
        rows, counts = self.sample
        self.n_total = counts.sum()
        self.depth = 0
        self.front = np.array([[0], [len(rows)], [self.n_total],
                               [counts[labels[rows]].sum()]])
        self.levels = []

    def tree(self, n_features: int) -> tuple[Tree, np.ndarray]:
        """The finished tree in preorder, and its raw importances."""
        start, n, value, feature, threshold, weighted = np.concatenate(
            self.levels, axis=1)
        depth = np.repeat(np.arange(len(self.levels)),
                          [level.shape[1] for level in self.levels])
        feature = feature.astype(np.int32)
        inner = feature >= 0
        importance = np.bincount(feature[inner], weights=weighted[inner],
                                 minlength=n_features)
        # Level order lists the children of each level's splits left to
        # right, so split s (in level order) has children 2s + 1, 2s + 2.
        right = np.full(len(n), -1, dtype=np.int32)
        right[inner] = 2 * np.arange(inner.sum()) + 2
        # A left child's slots start where its parent's do, and a right
        # child's after its left sibling's: (first slot, depth) order is
        # preorder.
        order = np.lexsort((depth, start))
        preorder = np.empty_like(right)
        preorder[order] = np.arange(len(order))
        right = np.where(right >= 0, preorder[right], -1)
        return Tree(feature[order], threshold[order], right[order],
                    value[order], n[order].astype(np.int32)), importance


def _grow_trees(view: BinnedMatrix, y: np.ndarray, tasks):
    """Grow one tree per task (key, rows, counts, config, seed) and yield
    (key, tree, raw importance) as each tree completes.

    The tree's sample holds rows[i] of view counts[i] times; seed seeds
    the candidate draws. Up to TREES_IN_FLIGHT trees grow together, each
    by one depth level per pass. A tree draws the candidates of all its
    splittable nodes of a level at once from its own generator, and each
    node's cut depends on its own rows and candidates alone, so a tree is
    the same however many trees grow beside it and however the passes are
    cut into sub-steps. Importances are the per-feature sums of
    sample-weighted impurity decreases, in level order.
    """
    labels = np.asarray(y) != 0
    n_features = view.n_features
    tasks = iter(tasks)
    growing: list[_Tree] = []
    changed = True
    while True:
        while len(growing) < TREES_IN_FLIGHT:
            task = next(tasks, None)
            if task is None:
                break
            growing.append(_Tree(*task, view, labels))
            changed = True
        if not growing:
            return
        if changed:
            # One buffer of rows and one of counts hold every sample in
            # flight, so that a sub-step gathers and writes back the slots
            # of many trees at once.
            sizes = [len(g.sample[0]) for g in growing]
            offsets = np.cumsum(sizes) - sizes
            buffer = [np.concatenate(part)
                      for part in zip(*(g.sample for g in growing))]
            for g, o, size in zip(growing, offsets.tolist(), sizes):
                g.sample = [part[o:o + size] for part in buffer]
        _grow_level(view, labels, growing, buffer, offsets)
        done = [g for g in growing if not g.front.size]
        growing = [g for g in growing if g.front.size]
        changed = bool(done)
        for g in done:
            yield (g.key, *g.tree(n_features))


def _grow_level(view: BinnedMatrix, labels: np.ndarray, growing: list,
                buffer: list, offsets: np.ndarray) -> None:
    """Split the current level of every tree in growing, whose samples lie
    in buffer at offsets, and make each tree's next level its children."""
    n_features = view.n_features
    sizes = [g.front.shape[1] for g in growing]
    start, slots, n, n_pos = np.concatenate([g.front for g in growing],
                                            axis=1)
    node_offset = np.repeat(offsets, sizes)
    start += node_offset
    min_leaf = np.repeat([g.min_leaf for g in growing], sizes)
    k = np.repeat([g.k for g in growing], sizes)
    splittable = ((0 < n_pos) & (n_pos < n) & (n >= 2 * min_leaf)
                  & np.repeat([g.depth < g.max_depth for g in growing], sizes))
    bounds = np.cumsum(sizes) - sizes
    # One draw per tree for its m splittable nodes, left to right: a row
    # of uniform keys per node, whose k smallest name the node's k
    # candidate columns.
    keys = {}
    for g, m in zip(growing, np.add.reduceat(splittable, bounds,
                                             dtype=int).tolist()):
        if m:
            keys.setdefault(g.k, []).append(g.rng.random((m, n_features)))

    feature = np.full(len(n), -1)
    threshold = np.zeros(len(n))
    gain = np.zeros(len(n))
    slots_left = np.zeros(len(n), dtype=int)
    n_left = np.zeros(len(n), dtype=int)
    pos_left = np.zeros(len(n), dtype=int)
    # A sub-step searches nodes with equal candidate counts, at most
    # STEP_ROWS distinct rows of them unless one node holds more.
    for k_nodes, parts in keys.items():
        nodes = np.flatnonzero(splittable & (k == k_nodes))
        cands = np.argpartition(np.concatenate(parts), k_nodes - 1,
                                axis=1)[:, :k_nodes]
        cands.sort(axis=1)
        ends = np.cumsum(slots[nodes])
        first = 0
        while first < len(nodes):
            rows_before = ends[first - 1] if first else 0
            last = max(first + 1, int(np.searchsorted(
                ends, rows_before + STEP_ROWS, side="right")))
            at = nodes[first:last]
            (feature[at], threshold[at], gain[at], slots_left[at],
             n_left[at], pos_left[at]) = _search(
                view, labels, buffer, start[at], slots[at], n[at],
                n_pos[at], cands[first:last])
            first = last

    split = ((feature >= 0) & (n_left >= min_leaf)
             & (n - n_left >= min_leaf))
    start -= node_offset
    record = np.stack([
        start, n, n_pos / n, np.where(split, feature, -1),
        np.where(split, threshold, 0.0),
        np.where(split, (n / np.repeat([g.n_total for g in growing], sizes))
                 * gain, 0.0)])
    s = split.nonzero()[0]
    # Children left to right, each split's left child first.
    children = np.stack([start[s], slots_left[s], n_left[s], pos_left[s],
                         start[s] + slots_left[s], slots[s] - slots_left[s],
                         n[s] - n_left[s], n_pos[s] - pos_left[s]],
                        axis=1).reshape(-1, 4).T
    child_bounds = 2 * np.concatenate(
        [[0], np.add.reduceat(split, bounds, dtype=int).cumsum()])
    bounds = bounds.tolist()
    child_bounds = child_bounds.tolist()
    for i, g in enumerate(growing):
        g.levels.append(record[:, bounds[i]:bounds[i] + sizes[i]].copy())
        g.front = children[:, child_bounds[i]:child_bounds[i + 1]]
        g.depth += 1


def _search(view: BinnedMatrix, labels: np.ndarray, buffer: list,
            start: np.ndarray, slots: np.ndarray, n: np.ndarray,
            n_pos: np.ndarray, cands: np.ndarray):
    """Best cut of each node whose sample lies in buffer's slots from
    start, and the slots, rows and positives it sends left; puts each
    node's left slots first within its range, both sides in their old
    order."""
    m = len(n)
    first = np.cumsum(slots) - slots
    slot = np.repeat(start - first, slots) + np.arange(first[-1] + slots[-1])
    rows, counts = (part[slot] for part in buffer)
    row_labels = labels[rows]
    row_node = np.repeat(np.arange(m), slots)
    feature, threshold, gain = _best_cuts(view, rows, row_labels, row_node,
                                          n, n_pos, cands, counts)
    go_left = view.X[rows, feature[row_node]] <= threshold[row_node]
    left = np.where(go_left, counts, 0)
    order = np.argsort(2 * row_node + ~go_left, kind="stable")
    for part, values in zip(buffer, (rows, counts)):
        part[slot] = values[order]
    return (feature, threshold, gain,
            *(np.add.reduceat(v, first, dtype=int)
              for v in (go_left, left, left * row_labels)))


def fit_tree(X: np.ndarray | BinnedMatrix, y: np.ndarray,
             sample_indices: np.ndarray, config: ForestConfig,
             tree_seed: int) -> tuple[Tree, np.ndarray]:
    """Grow one CART tree on the given sample; returns (tree, importances).

    X is a float matrix or its BinnedMatrix. Importances are unnormalized
    per-feature sums of sample-weighted impurity decreases.
    """
    view = X if isinstance(X, BinnedMatrix) else BinnedMatrix.of(X)
    idx = np.asarray(sample_indices, dtype=int)
    if len(idx) == 0:
        raise ForestError("cannot fit a tree on an empty sample")
    [(_, tree, importance)] = _grow_trees(
        view, y, [(None, *np.unique(idx, return_counts=True), config,
                   tree_seed)])
    return tree, importance


@dataclass
class ForestModel:
    trees: list[Tree]
    config: ForestConfig
    column_names: list[str]
    gini_importance: np.ndarray  # normalized to sum 1 when any split exists


def _tree_task(forest: int, i: int, rows: np.ndarray, config: ForestConfig):
    """Growth task of tree i of a forest on rows: the tree draws its
    bootstrap and its growth from seeds derived from (config.seed, i)
    alone."""
    tree_seed = mix_seed(config.seed, i)
    counts = np.ones(len(rows), dtype=int)
    if config.bootstrap:
        boot_rng = np.random.default_rng(mix_seed(tree_seed, 0))
        counts = np.bincount(boot_rng.integers(0, len(rows), size=len(rows)),
                             minlength=len(rows))
    return (forest, i), rows, counts, config, mix_seed(tree_seed, 1)


def _grow_chunk(view: BinnedMatrix, y: np.ndarray, _jobs: int, trees):
    """Grow each (forest, tree index, rows, config) in trees together;
    yields ((forest, tree index), tree, raw importance) as each tree
    completes."""
    return _grow_trees(view, y, starmap(_tree_task, trees))


def _assemble(config: ForestConfig, column_names,
              grown: list[tuple[Tree, np.ndarray]]) -> ForestModel:
    raw = np.mean([imp for _, imp in grown], axis=0)
    total = raw.sum()
    importance = raw / total if total > 0 else raw
    return ForestModel([t for t, _ in grown], config, list(column_names),
                       importance)


def fit_forests(matrix: EncodedMatrix, forests, n_jobs: int = 1):
    """Fit one forest per (rows, config) in forests, each the model that
    fit_forest(matrix.subset(rows), config) fits; yields (index, model)
    as each model's last tree completes.

    One BinnedMatrix serves all forests, and the trees of all of them
    grow together, on up to n_jobs worker processes (map_chunks). When
    map_chunks uses no pool, forests is read as trees start, so a long
    series holds only the forests in flight.
    """
    view = BinnedMatrix.of(matrix.X)
    y = matrix.y
    configs, grown, missing = {}, {}, {}

    def trees():
        for f, (rows, config) in enumerate(forests):
            rows = np.asarray(rows, dtype=int)
            if len(rows) < 2:
                raise ForestError(f"need at least 2 samples, got {len(rows)}")
            outside = (rows < 0) | (rows >= len(y))
            if outside.any():
                raise ForestError(f"row {rows[outside.argmax()]} outside the "
                                  f"matrix's {len(y)} rows")
            n_pos = y[rows].sum()
            if n_pos == 0 or n_pos == len(rows):
                raise ForestError("training labels contain a single class")
            configs[f] = config
            grown[f] = [None] * config.n_trees
            missing[f] = config.n_trees
            for i in range(config.n_trees):
                yield f, i, rows, config

    for (f, i), tree, importance in map_chunks(
            partial(_grow_chunk, view, y), trees(), n_jobs):
        grown[f][i] = tree, importance
        missing[f] -= 1
        if not missing[f]:
            del missing[f]
            yield f, _assemble(configs.pop(f), matrix.column_names,
                               grown.pop(f))


def fit_forest(matrix: EncodedMatrix, config: ForestConfig,
               n_jobs: int = 1) -> ForestModel:
    """Fit the ensemble; deterministic given config.seed, parallel or not.

    With n_jobs > 1 the trees are grown in worker processes.
    """
    [(_, model)] = fit_forests(
        matrix, [(np.arange(matrix.n_samples), config)], n_jobs)
    return model


def _leaf_values(trees: list[Tree], rows: np.ndarray) -> np.ndarray:
    """(len(trees), len(rows)) positive fraction of the leaf each finite
    row reaches in each tree. A leaf sends every finite value right, to
    itself (column 0, threshold -inf), so all (tree, row) pairs step
    together until none moves."""
    sizes = [len(t.feature) for t in trees]
    offset = np.cumsum(sizes) - sizes
    feature = np.concatenate([t.feature for t in trees])
    leaf = feature < 0
    feature[leaf] = 0
    threshold = np.where(leaf, -np.inf,
                         np.concatenate([t.threshold for t in trees]))
    # Node i steps to step[i] when its test fails, else to step[i + size].
    size = len(feature)
    right = np.concatenate([t.right + o for t, o in zip(trees, offset)])
    step = np.concatenate([np.where(leaf, np.arange(size), right),
                           np.arange(1, size + 1)])
    n, n_columns = rows.shape
    node = np.repeat(offset, n)
    cell = np.tile(np.arange(n) * n_columns, len(trees))
    values = rows.ravel()
    while True:
        moved = step[node + size * (values[cell + feature[node]]
                                    <= threshold[node])]
        if np.array_equal(moved, node):
            break
        node = moved
    value = np.concatenate([t.value for t in trees])
    return value[node].reshape(len(trees), n)


# (tree, row) pairs routed at once by predict_proba; bounds its memory
# on large forests.
PREDICT_PAIRS = 1 << 16


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
    trees = model.trees
    per_block = max(1, PREDICT_PAIRS // max(1, rows.shape[0]))
    acc = np.zeros(rows.shape[0])
    # Summed tree by tree, in tree order: the same floats as adding one
    # tree's predictions at a time.
    for b in range(0, len(trees), per_block):
        for values in _leaf_values(trees[b:b + per_block], rows):
            acc += values
    probs = acc / len(trees)
    return float(probs[0]) if single else probs


# ---------------------------------------------------------------------------
# JSON serialization


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
        "trees": [{name: getattr(t, name).tolist() for name in _TREE_DTYPES}
                  for t in model.trees],
    }
    return json.dumps(doc, sort_keys=True)


def forest_from_json(text: str) -> ForestModel:
    doc = json.loads(text)
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise ForestError(f"unsupported schema version "
                          f"{doc.get('schema_version')!r}")
    cfg = ForestConfig(**doc["config"])
    trees = [Tree(**{name: np.array(t[name], dtype=dtype)
                     for name, dtype in _TREE_DTYPES.items()})
             for t in doc["trees"]]
    return ForestModel(trees, cfg, doc["column_names"],
                       np.asarray(doc["gini_importance"]))
