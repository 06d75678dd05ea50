"""From-scratch CART trees and Random Forest ensemble for binary outcomes.

Trees split on `value <= threshold` using Gini impurity; the forest
averages leaf positive fractions. Every tree grows through fit_forests,
and fit_forest is its one-forest form. One ForestConfig holds the model
settings of a fit and each forest brings its rows and its seed; a tree
draws its bootstrap and its candidates from seeds derived from (forest
seed, tree index) alone, so serial and parallel fits produce identical
models. The trees in flight grow together, level by level, as one set of
arrays with no object per tree.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from . import PolicyforestError
from .dataset import (EncodedMatrix, check_finite, mix_seed, row_numbers,
                      splitmix64)


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

# Distinct sample rows of the trees grown at once, one depth level per
# pass (trees start while fewer are in flight; about 32 Set D eval trees).
# More trees in flight spread each pass's NumPy calls over more nodes and
# hold more memory.
ROWS_IN_FLIGHT = 23_000


@dataclass(frozen=True)
class ForestConfig:
    """Model settings shared by every tree of a fit, whose forests each
    bring a seed. features_per_split None means ceil(sqrt(F))."""

    n_trees: int = 500
    max_depth: int | None = None
    min_samples_leaf: int = 1
    features_per_split: int | None = None
    bootstrap: bool = True

    def __post_init__(self):
        if self.n_trees < 1:
            raise ForestError(f"n_trees must be >= 1, got {self.n_trees}")
        if self.max_depth is not None and self.max_depth < 1:
            raise ForestError(f"max_depth must be >= 1, got {self.max_depth}")
        if self.min_samples_leaf < 1:
            raise ForestError(f"min_samples_leaf must be >= 1, got "
                              f"{self.min_samples_leaf}")
        if self.features_per_split is not None and self.features_per_split < 1:
            raise ForestError("features_per_split must be >= 1")

    def resolve(self, n_features: int) -> tuple[int, int, float]:
        """(candidate columns per node, min_samples_leaf, max_depth) of a
        tree grown on n_features columns, max_depth inf for None."""
        if n_features < 1:
            raise ForestError("cannot fit a tree on a matrix without columns")
        k = self.features_per_split or math.ceil(math.sqrt(n_features))
        if k > n_features:
            raise ForestError(f"features_per_split {k} exceeds feature "
                              f"count {n_features}")
        return (k, self.min_samples_leaf,
                math.inf if self.max_depth is None else self.max_depth)


@dataclass(frozen=True, eq=False)
class Tree:
    """A fitted tree as flat arrays over its nodes in the order they grew:
    level by level, each level left to right.

    Node i sends a row with `row[feature[i]] <= threshold[i]` to node
    left[i] and any other row to node left[i] + 1. A leaf has feature and
    left -1. value is a node's positive fraction and n_samples its
    sample size, bootstrap repeats included.
    """

    feature: np.ndarray    # int32
    threshold: np.ndarray  # float64
    left: np.ndarray       # int32
    value: np.ndarray      # float64
    n_samples: np.ndarray  # int32


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
        codes = np.empty(X.shape, dtype=np.int32)
        # Each column's bin values; the empty first entry starts bin_start
        # at 0 and gives a matrix without columns something to concatenate.
        values = [np.empty(0)]
        # One stable sort per column; a bin starts at each value that
        # differs from the one before it.
        for j, column in enumerate(X.T):
            order = np.argsort(column, kind="stable")
            ranked = column[order]
            new_bin = np.ones(len(ranked), dtype=bool)
            new_bin[1:] = ranked[1:] != ranked[:-1]
            codes[order, j] = new_bin.cumsum() - 1
            values.append(ranked[new_bin])
        bin_start = np.cumsum([len(v) for v in values])
        return cls(X, codes, bin_start, np.concatenate(values))

    @property
    def n_features(self) -> int:
        return self.X.shape[1]

    @cached_property
    def widest(self) -> int:
        """The column with the most bins, the lowest of equals."""
        return int(np.argmax(np.diff(self.bin_start)))


def _best_cuts(view: BinnedMatrix, rows: np.ndarray, labels: np.ndarray,
               row_node: np.ndarray, node_n: np.ndarray,
               node_pos: np.ndarray, cands: np.ndarray, counts: np.ndarray):
    """Best cut of each splittable node of one growth pass, all at once.

    rows holds the nodes' distinct rows back to back, each node's in the
    order of view's widest column; counts their repeats, labels their
    labels as booleans and row_node the node of each. Node i has node_n[i]
    rows, node_pos[i] of them positive, repeats included. cands[i] holds
    node i's candidate columns in ascending order. Each (node, candidate)
    lane sums the counts of its rows, per value of its column and label,
    in one table for all lanes: a lane of the widest column has one slot
    per run of equal values in its node, any other lane one slot per bin
    of its column. Each cut lies between two adjacent values present in
    its node.

    The table is filled one candidate position j at a time, each row
    adding its count once to the slot of its node's j-th lane.

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
    # The candidate position of the widest column in each of its rows'
    # nodes, and the rank of each row's run in its node, which stands for
    # its code there.
    wide_j = at_wide.argmax(axis=1)[wide_node]
    wide_rank = np.cumsum(new_run) - 1 - first_run[wide_node]
    # Slot 2s of the table sums negative rows, 2s + 1 positive ones. Table,
    # keys and counts share one dtype, so that np.add.at stays on its fast
    # path; the sums stay within a tree's rows, repeats included.
    table = np.zeros(2 * int(lane_bins.sum()), dtype=np.int32)
    node_slots = np.bincount(row_node, minlength=m)
    flat = rows * view.n_features
    codes = view.codes.ravel()
    lane_start = lane_table.astype(np.int32).reshape(m, k)
    for j in range(k):
        key = codes[flat + np.repeat(cands[:, j], node_slots)]
        here = wide_j == j
        key[wide_rows[here]] = wide_rank[here]
        key += np.repeat(lane_start[:, j], node_slots)
        key <<= 1
        key |= labels
        np.add.at(table, key, counts)
    pos = table[1::2]
    total = table[::2] + pos
    present = total.nonzero()[0]
    lane = np.searchsorted(lane_table, present, side="right") - 1
    # Every lane holds all of its node's rows, so the running counts over
    # the table restart at each lane's first row.
    lane_n = np.repeat(node_n, k)
    lane_pos = np.repeat(node_pos, k)
    n_left = total[present].cumsum() - (np.cumsum(lane_n) - lane_n)[lane]
    pos_left = pos[present].cumsum() - (np.cumsum(lane_pos) - lane_pos)[lane]
    del table, pos, total
    cut = (n_left < lane_n[lane]).nonzero()[0]
    if cut.size == 0:
        return feature, threshold, gain_out
    cut_lane = lane[cut]
    node = cut_lane // k
    n = node_n[node]
    n_left = n_left[cut]
    n_right = n - n_left
    p_l = pos_left[cut] / n_left
    p_r = (node_pos[node] - pos_left[cut]) / n_right
    p = node_pos / node_n
    gain = (2.0 * p * (1.0 - p))[node] \
        - (n_left / n) * 2 * p_l * (1 - p_l) \
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


def _sample(view: BinnedMatrix, bootstrap: bool, task) -> tuple:
    """The sample of task (forest, i, rows, seed), tree i of the forest on
    rows seeded by seed: its distinct rows in view's widest column's order,
    stable by place in rows; their bootstrap counts (all ones without
    bootstrap); and its candidate seed. The tree draws from two streams
    (dataset.splitmix64) whose seeds derive from (seed, i) alone, here and
    nowhere else: its bootstrap counts, and its candidate keys."""
    _, i, rows, seed = task
    tree_seed = mix_seed(seed, i)
    n = len(rows)
    counts = np.ones(n, dtype=int)
    if bootstrap:
        # Draw j, u, picks row ((u >> 32) * n) >> 32 of the n: exact in
        # uint64, since n < 2**32.
        draw = splitmix64(mix_seed(tree_seed, 0), np.arange(n))
        draw >>= np.uint64(32)
        draw *= np.uint64(n)
        draw >>= np.uint64(32)
        counts = np.bincount(draw.astype(int), minlength=n)
    keep = counts.nonzero()[0]
    keep = keep[np.argsort(view.codes[rows[keep], view.widest],
                           kind="stable")]
    return rows[keep], counts[keep], mix_seed(tree_seed, 1)


def _grow_trees(view: BinnedMatrix, labels: np.ndarray, bootstrap: bool,
                growth: tuple, _jobs: int, tasks):
    """map_chunks's function over tasks: grow one tree per task (forest,
    tree index, rows, forest seed), each drawing its own sample (_sample),
    and yield ((forest, tree index), tree, raw importance) as each tree
    completes, the trees of one pass in the order they started.

    labels holds the label of each row of view as booleans. growth,
    ForestConfig.resolve's (k, min_leaf, max_depth), holds for every
    tree. Trees grow together, each by one depth level per pass, and the
    next tree starts while the samples in flight hold fewer than
    ROWS_IN_FLIGHT distinct rows, so at least one grows. Each pass
    searches all its splittable nodes in one _search call. A tree draws its
    candidates from its own stream, and each node's cut depends on its own
    rows and candidates alone, so a tree is the same however many trees
    grow beside it.
    Importances are the per-feature sums of sample-weighted impurity
    decreases, in level order.

    The trees in flight are arrays, tree after tree in the order they
    started, so that no step of a pass loops over them. trees holds per
    tree its key, candidate seed, keys drawn, sample size with repeats,
    distinct rows and depth; buffer the samples' rows and counts as int32,
    permuted in place so that every node's rows are one contiguous range
    of slots, still in the widest column's order; front the level's nodes,
    left to right, as a (5, nodes) array of tree, first slot within the
    tree, slots, rows and positives (with repeats); and levels records,
    each the tree of each node and a (5, nodes) float array of its rows,
    positive fraction, feature (-1 for a leaf), threshold and
    sample-weighted impurity decrease, all exact as floats: one record of
    the nodes grown before a tree last ended, then one per pass since.
    """
    k, min_leaf, max_depth = growth
    width = view.n_features
    tasks = iter(tasks)
    trees = np.zeros(0, [("key", int, 2), ("seed", np.uint64),
                         ("drawn", int), ("n_total", int), ("size", int),
                         ("depth", int)])
    buffer = [np.zeros(0, dtype=np.int32)] * 2
    front = np.zeros((5, 0), dtype=int)
    levels = []
    while True:
        rows_in_flight = trees["size"].sum()
        started = []
        while (rows_in_flight < ROWS_IN_FLIGHT
               and (task := next(tasks, None)) is not None):
            started.append((task[:2], *_sample(view, bootstrap, task)))
            rows_in_flight += len(started[-1][1])
        if started:
            new = np.zeros(len(started), trees.dtype)
            new["key"], rows, counts, new["seed"] = zip(*started)
            new["size"] = list(map(len, rows))
            rows, counts = np.concatenate(rows), np.concatenate(counts)
            first = np.cumsum(new["size"]) - new["size"]
            new["n_total"], n_pos = np.add.reduceat(
                [counts, counts * labels[rows]], first, axis=1)
            front = np.concatenate([front, [
                len(trees) + np.arange(len(new)), np.zeros_like(first),
                new["size"], new["n_total"], n_pos]], axis=1)
            buffer = [np.concatenate(part, dtype=np.int32)
                      for part in zip(buffer, (rows, counts))]
            trees = np.concatenate([trees, new])
            del started, rows, counts  # the samples live in buffer alone
        if not trees.size:
            return

        tree, start, slots, n, n_pos = front
        first_slot = start + (np.cumsum(trees["size"]) - trees["size"])[tree]
        splittable = ((0 < n_pos) & (n_pos < n) & (n >= 2 * min_leaf)
                      & (trees["depth"] < max_depth)[tree])
        # Each tree draws a row of keys, one per column, for each of its m
        # splittable nodes, left to right, from the next m * width values
        # of its stream; the k smallest keys of a row name the node's k
        # candidate columns. One call draws the keys of every tree, which
        # are dropped once they have named the candidates.
        owner = tree[splittable]
        rank = np.arange(len(owner)) - np.searchsorted(owner, owner)
        cands = np.sort(np.argpartition(splitmix64(
            trees["seed"][owner, None],
            (trees["drawn"][owner] + width * rank)[:, None] + np.arange(width)
        ), k - 1, axis=1)[:, :k], axis=1)
        trees["drawn"] += width * np.bincount(owner, minlength=len(trees))

        feature = np.full(len(n), -1)
        threshold, gain = np.zeros((2, len(n)))
        slots_left, n_left, pos_left = np.zeros((3, len(n)), dtype=int)
        at = splittable.nonzero()[0]
        if at.size:
            (feature[at], threshold[at], gain[at], slots_left[at],
             n_left[at], pos_left[at]) = _search(
                view, labels, buffer, first_slot[at], slots[at], n[at],
                n_pos[at], cands)

        split = ((feature >= 0) & (n_left >= min_leaf)
                 & (n - n_left >= min_leaf))
        levels.append((tree.copy(), np.stack([
            n, n_pos / n, np.where(split, feature, -1),
            np.where(split, threshold, 0.0),
            np.where(split, (n / trees["n_total"][tree]) * gain, 0.0)])))
        s = split.nonzero()[0]
        # Children left to right, each split's left child first; they come
        # tree after tree, as their parents do.
        front = np.stack([tree[s], start[s], slots_left[s], n_left[s],
                          pos_left[s], tree[s], start[s] + slots_left[s],
                          slots[s] - slots_left[s], n[s] - n_left[s],
                          n_pos[s] - pos_left[s]], axis=1).reshape(-1, 5).T
        trees["depth"] += 1

        # A tree without children is done; its nodes leave the records,
        # the rest stay as one record, and the trees left are renumbered.
        live = np.bincount(front[0], minlength=len(trees)) > 0
        if live.all():
            continue
        done = ~live
        buffer = [part[np.repeat(live, trees["size"])] for part in buffer]
        renumber = np.cumsum(live) - 1
        front[0] = renumber[front[0]]
        tree, record = (np.concatenate(part, axis=-1) for part in zip(*levels))
        out = done[tree]
        levels = [(renumber[tree[~out]], record[:, ~out])]
        keys = trees["key"][done].tolist()
        trees = trees[live]

        # The done trees, numbered from 0, and their nodes in level order.
        tree, record = tree[out], record[:, out]
        order = np.argsort(tree, kind="stable")
        tree = (np.cumsum(done) - 1)[tree[order]]
        n, value, feature, threshold, weighted = record[:, order]
        feature = feature.astype(np.int32)
        inner = feature >= 0
        importance = np.bincount(
            tree[inner] * width + feature[inner], weights=weighted[inner],
            minlength=len(keys) * width).reshape(len(keys), width)
        # Level order lists the children of each level's splits left to
        # right, so split s (in level order) has children 2s + 1, 2s + 2.
        first = np.searchsorted(tree, np.arange(len(keys)))
        splits_before = np.cumsum(inner) - inner
        left = np.where(inner, 2 * (splits_before
                                    - splits_before[first][tree]) + 1, -1)
        arrays = (feature, threshold, left.astype(np.int32), value,
                  n.astype(np.int32))
        bounds = np.append(first, len(tree)).tolist()
        # Each array its own, so that a kept tree holds only its nodes.
        for key, a, b, raw in zip(keys, bounds, bounds[1:], importance):
            yield tuple(key), Tree(*(x[a:b].copy() for x in arrays)), raw


def _search(view: BinnedMatrix, labels: np.ndarray, buffer: list,
            start: np.ndarray, slots: np.ndarray, n: np.ndarray,
            n_pos: np.ndarray, cands: np.ndarray):
    """Best cut of each node of a pass whose sample lies in buffer's slots
    from start, and the slots, rows and positives it sends left; puts each
    node's left slots first within its range, both sides in their old
    order. One call searches and partitions all the pass's splittable
    nodes (_best_cuts), and its per-row arrays are int32."""
    m = len(n)
    first = np.cumsum(slots) - slots
    slot = np.repeat((start - first).astype(np.int32), slots)
    slot += np.arange(len(slot), dtype=np.int32)
    rows, counts = (part[slot] for part in buffer)
    row_labels = labels[rows]
    row_node = np.repeat(np.arange(m, dtype=np.int32), slots)
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


@dataclass
class ForestModel:
    trees: list[Tree]
    column_names: list[str]
    gini_importance: np.ndarray  # normalized to sum 1 when any split exists


def _assemble(column_names,
              grown: list[tuple[Tree, np.ndarray]]) -> ForestModel:
    raw = np.mean([imp for _, imp in grown], axis=0)
    total = raw.sum()
    importance = raw / total if total > 0 else raw
    return ForestModel([t for t, _ in grown], list(column_names), importance)


def fit_forests(matrix: EncodedMatrix, config: ForestConfig, forests,
                n_jobs: int = 1):
    """Fit one forest per (rows, seed) in forests, each the model that
    fit_forest(matrix.subset(rows), config, seed) fits; yields (index,
    model) as each model's last tree completes.

    One config serves every forest and is checked against the matrix
    before any tree grows. One BinnedMatrix serves all forests, and the
    trees of all of them grow together, on up to n_jobs worker processes
    (map_chunks). When map_chunks uses no pool, forests is read as trees
    start, so a long series holds only the forests in flight.
    """
    view = BinnedMatrix.of(matrix.X)
    growth = config.resolve(view.n_features)
    y = matrix.y
    grown, missing = {}, {}

    def trees():
        for f, (rows, seed) in enumerate(forests):
            rows = row_numbers(rows, len(y), ForestError,
                               f"forest {f}'s rows")
            if len(rows) < 2:
                raise ForestError(f"need at least 2 samples, got {len(rows)}")
            n_pos = y[rows].sum()
            if n_pos == 0 or n_pos == len(rows):
                raise ForestError("training labels contain a single class")
            grown[f] = [None] * config.n_trees
            missing[f] = config.n_trees
            for i in range(config.n_trees):
                yield f, i, rows, seed

    for (f, i), tree, importance in map_chunks(
            partial(_grow_trees, view, y != 0, config.bootstrap, growth),
            trees(), n_jobs):
        grown[f][i] = tree, importance
        missing[f] -= 1
        if not missing[f]:
            del missing[f]
            yield f, _assemble(matrix.column_names, grown.pop(f))


def fit_forest(matrix: EncodedMatrix, config: ForestConfig, seed: int = 0,
               n_jobs: int = 1) -> ForestModel:
    """Fit the ensemble; deterministic given seed, parallel or not.

    With n_jobs > 1 the trees are grown in worker processes.
    """
    [(_, model)] = fit_forests(
        matrix, config, [(np.arange(matrix.n_samples), seed)], n_jobs)
    return model


# Routing steps between two drops of the (tree, row) pairs at a leaf.
ROUTE_STEPS = 4


def _leaf_values(trees: list[Tree], rows: np.ndarray) -> np.ndarray:
    """(len(trees), len(rows)) positive fraction of the leaf each finite
    row reaches in each tree. A leaf's test (column 0, threshold -inf)
    fails for every finite value and steps to the leaf itself, so the live
    (tree, row) pairs step together ROUTE_STEPS times; then each writes
    its node back, and only the pairs not yet at a leaf go on."""
    sizes = [len(t.feature) for t in trees]
    offset = np.cumsum(sizes) - sizes
    feature = np.concatenate([t.feature for t in trees])
    leaf = feature < 0
    feature[leaf] = 0
    threshold = np.where(leaf, -np.inf,
                         np.concatenate([t.threshold for t in trees]))
    # Node i steps to step[i] when its test fails, else to step[i + size].
    size = len(feature)
    left = np.concatenate([t.left + o for t, o in zip(trees, offset)])
    here = np.arange(size)
    step = np.concatenate([np.where(leaf, here, left + 1),
                           np.where(leaf, here, left)])
    n, n_columns = rows.shape
    node = np.repeat(offset, n)
    cell = np.tile(np.arange(n) * n_columns, len(trees))
    values = rows.ravel()
    live, at = np.arange(len(node)), node
    while len(live):
        for _ in range(ROUTE_STEPS):
            at = step[at + size * (values[cell + feature[at]]
                                   <= threshold[at])]
        node[live] = at
        going = ~leaf[at]
        live, at, cell = live[going], at[going], cell[going]
    value = np.concatenate([t.value for t in trees])
    return value[node].reshape(len(trees), n)


# (tree, row) pairs routed at once by predict_proba; bounds its memory
# on large forests.
PREDICT_PAIRS = 1 << 16


def predict_proba(model: ForestModel, rows: np.ndarray) -> np.ndarray:
    """Mean over trees of routed-leaf positive fractions, one per row of
    the 2-D matrix rows."""
    rows = np.asarray(rows, dtype=float)
    check_finite(rows, ForestError)
    if rows.shape[1] != len(model.column_names):
        raise ForestError(f"row arity {rows.shape[1]} does not match model "
                          f"feature count {len(model.column_names)}")
    trees = model.trees
    per_block = max(1, PREDICT_PAIRS // max(1, rows.shape[0]))
    acc = np.zeros(rows.shape[0])
    # Summed tree by tree, in tree order: the same floats as adding one
    # tree's predictions at a time.
    for b in range(0, len(trees), per_block):
        for values in _leaf_values(trees[b:b + per_block], rows):
            acc += values
    return acc / len(trees)
