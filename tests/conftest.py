from dataclasses import fields

import numpy as np
import pytest

from policyforest.dataset import IG_NAMES, PA_LABELS, PA_TO_PD, PolicyCase
from policyforest.forest import Tree


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


@pytest.fixture(scope="session")
def cases_200():
    return make_cases(200, seed=7)


@pytest.fixture(scope="session")
def cases_noise_100():
    return make_cases(100, seed=11, signal=False)


@pytest.fixture
def recording_pool(monkeypatch):
    """Replace the worker pool with an in-process stand-in and return the
    list of (max_workers, chunksize) it was asked for. No process starts."""
    import concurrent.futures

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
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        RecordingPool)
    return requests
