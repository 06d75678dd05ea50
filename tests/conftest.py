from dataclasses import fields

import numpy as np
import pytest

from policyforest.dataset import (IG_NAMES, PA_LABELS, PA_TO_PD,
                                  EncodedMatrix, PolicyCase)
from policyforest.forest import GAIN_EPS, ForestConfig, Tree, fit_forest


def splitmix64_draw(seed, i):
    """Draw i of the SplitMix64 stream seeded by seed, in Python ints: the
    reference for the package's vectorized stream."""
    mask = (1 << 64) - 1
    z = (seed + (i + 1) * 0x9E3779B97F4A7C15) & mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return z ^ (z >> 31)


def bootstrap_draw(seed, n):
    """The rows 0..n-1 a tree's bootstrap stream seeded by seed draws:
    draw j, u, picks row ((u >> 32) * n) >> 32."""
    return [((splitmix64_draw(seed, j) >> 32) * n) >> 32 for j in range(n)]


def make_cases(n, seed=0, signal=True, driver_ig=0, missing_p90_every=0):
    """Synthetic policy cases: outcome driven by p90 and one IG when
    signal is set, pure coin flips otherwise."""
    rng = np.random.default_rng(seed)
    cases = []
    for i in range(n):
        p90 = float(rng.uniform())
        align = np.zeros(len(IG_NAMES), dtype=int)
        n_active = int(rng.integers(2, 8))
        active = rng.choice(len(IG_NAMES), size=n_active, replace=False)
        align[active] = rng.choice([-2, -1, 1, 2], size=n_active)
        if signal and align[driver_ig] == 0:
            align[driver_ig] = int(rng.choice([-2, 2]))
        pa = PA_LABELS[int(rng.integers(len(PA_LABELS)))]
        if signal:
            score = 2.0 * (p90 - 0.5) + 0.5 * align[driver_ig] \
                + float(rng.normal(0, 0.8))
            outcome = int(score > 0)
        else:
            outcome = int(rng.uniform() < 0.5)
        p90_val = None if (missing_p90_every and i % missing_p90_every == 0) \
            else p90
        cases.append(PolicyCase(
            case_id=f"case-{i}", year=int(rng.integers(1981, 2003)),
            outcome=outcome, ig_alignments=tuple(int(v) for v in align),
            policy_area=pa, policy_domain=PA_TO_PD[pa], p90=p90_val))
    if signal and n > 1:
        # guarantee both classes
        if all(c.outcome == cases[0].outcome for c in cases):
            raise AssertionError("degenerate synthetic draw; change seed")
    return cases


def same_forest(a, b):
    """Whether two ForestModels are the same model: equal trees, every
    node array compared exactly, and the same importance and columns."""
    return (len(a.trees) == len(b.trees)
            and all(np.array_equal(getattr(s, f.name), getattr(t, f.name))
                    for s, t in zip(a.trees, b.trees) for f in fields(Tree))
            and np.array_equal(a.gini_importance, b.gini_importance)
            and a.column_names == b.column_names)


def loop_stance_correlation(cases, feature):
    """(corr, at-bats) of one feature's stances with the outcomes of cases,
    one case at a time: a P90 stance is 4 * p90 - 2, zeroed in the
    noncommittal band [-0.4, 0.4]; an IG's is its alignment. at-bats
    counts the non-zero stances, and corr is 0.5 / at-bats times the sum
    of the stances on adopted cases minus those on rejected ones, or 0.0
    with no at-bats."""
    total, at_bats = 0.0, 0
    for c in cases:
        if feature == "P90":
            v = 4 * c.p90 - 2
            if abs(v) <= 0.4:
                v = 0.0
        else:
            v = c.alignment(feature)
        if v != 0:
            at_bats += 1
            total += v if c.outcome == 1 else -v
    return (0.5 * total / at_bats if at_bats else 0.0), at_bats


def brute_force_best_split(X, y, features):
    """Enumerate every (feature, midpoint) pair; mirror of the production
    gain formula so float results are comparable exactly."""
    n = len(y)
    n_pos = int(y.sum())
    if n < 2 or n_pos in (0, n):
        return None
    p = n_pos / n
    parent = 2 * p * (1 - p)
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


def stump_split(X, y, features):
    """The root split of a one-tree forest fit over the candidate columns
    features of X (depth 1, no bootstrap, every candidate searched), as
    (feature, threshold, gain) with the gain recomputed by the production
    formula from the root and its children. None when that gain is at most
    GAIN_EPS, or when y has one class, which fit_forest rejects."""
    cands = sorted(set(features))
    y = np.asarray(y, dtype=int)
    if y.min() == y.max():
        return None
    matrix = EncodedMatrix(np.asarray(X, dtype=float)[:, cands], y,
                           [f"f{c}" for c in cands], np.arange(len(y)))
    tree = fit_forest(matrix, ForestConfig(
        n_trees=1, max_depth=1, bootstrap=False,
        features_per_split=len(cands))).trees[0]
    if tree.feature[0] < 0:
        return None
    n, p = tree.n_samples[0], tree.value[0]
    gain = 2 * p * (1 - p)
    for child in (tree.left[0], tree.left[0] + 1):
        p_c = tree.value[child]
        gain -= (tree.n_samples[child] / n) * 2 * p_c * (1 - p_c)
    if gain <= GAIN_EPS:
        return None
    return cands[tree.feature[0]], float(tree.threshold[0]), float(gain)


@pytest.fixture(scope="session")
def cases_200():
    return make_cases(200, seed=7)


@pytest.fixture(scope="session")
def cases_noise_100():
    return make_cases(100, seed=11, signal=False)


@pytest.fixture
def recording_pool(monkeypatch):
    """Replace the worker pool with an in-process stand-in and return the
    list of (max_workers, chunksize) it was asked for. No process starts;
    each chunk is pickled and unpickled before it runs, so that it runs
    on the objects a worker receives."""
    import concurrent.futures
    import pickle

    requests = []

    class RecordingPool:
        def __init__(self, max_workers):
            self.max_workers = max_workers

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            requests.append((self.max_workers, chunksize))
            return (fn(pickle.loads(pickle.dumps(chunk))) for chunk in items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        RecordingPool)
    return requests
