"""Acceptance checks, one test per criterion.

Each test prints a single pass/fail line. Criteria 1 to 8 run on synthetic
data only; criteria 9 to 12 need a real dataset file in the canonical
schema and run only when the POLICY_CASES_CSV environment variable
points at one.
"""

import functools
import json
import math
import os
from dataclasses import asdict

import numpy as np
import pytest

from policyforest.dataset import (IG_NAMES, AlignmentTally, EncodedMatrix,
                                  FeatureSetSpec, PolicyCase, load_cases,
                                  net_iga)
from policyforest.experiments import (build_set_c, compare_selectors,
                                      nonlinearity_case_study,
                                      rank_igs_by_domain,
                                      run_feature_set_eval)
from policyforest.forest import ForestConfig, fit_forest
from policyforest.logistic import _gradient, _penalized_ll, fit, sigmoid
from policyforest.metrics import (balanced_accuracy, confusion_at_threshold,
                                  roc_and_auc, select_operating_point)
from conftest import (brute_force_best_split, loop_stance_correlation,
                      make_cases, same_forest, stump_split)
from test_experiments import rank_stances, three_region_cases

DATA_ENV = "POLICY_CASES_CSV"
HAVE_DATA = os.environ.get(DATA_ENV, "") != ""
needs_data = pytest.mark.skipif(
    not HAVE_DATA, reason=f"set {DATA_ENV} to a canonical CSV file")


def criterion(num, label):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {num:2d} ({label}): FAIL")
                raise
            print(f"criterion {num:2d} ({label}): PASS")
        return wrapper
    return deco


def matrix_from(X, y):
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    return EncodedMatrix(X, y, [f"f{i}" for i in range(X.shape[1])],
                         np.arange(len(y)))


def pairwise_auc(scores, labels):
    pos = [s for s, l in zip(scores, labels) if l == 1]
    neg = [s for s, l in zip(scores, labels) if l == 0]
    total = sum(1.0 if p > n else 0.5 if p == n else 0.0
                for p in pos for n in neg)
    return total / (len(pos) * len(neg))


@criterion(1, "trapezoidal AUC equals pairwise oracle")
def test_auc_oracle():
    rng = np.random.default_rng(101)
    checked = 0
    while checked < 200:
        n = int(rng.integers(2, 13))
        labels = rng.integers(0, 2, size=n)
        if labels.sum() in (0, n):
            continue
        scores = np.round(rng.uniform(size=n), 1)  # coarse grid forces ties
        auc = roc_and_auc(scores, labels)
        assert abs(auc - pairwise_auc(scores, labels)) <= 1e-12
        checked += 1


@criterion(2, "split search matches exhaustive enumeration")
def test_split_oracle():
    rng = np.random.default_rng(102)
    for _ in range(100):
        n = int(rng.integers(2, 51))
        d = int(rng.integers(1, 6))
        X = rng.integers(0, 5, size=(n, d)).astype(float)
        y = rng.integers(0, 2, size=n)
        assert stump_split(X, y, range(d)) == brute_force_best_split(
            X, y, range(d))


@criterion(3, "operating point matches exhaustive threshold sweep")
def test_operating_point_oracle():
    rng = np.random.default_rng(103)
    checked = 0
    while checked < 100:
        n = int(rng.integers(2, 40))
        labels = rng.integers(0, 2, size=n)
        if labels.sum() in (0, n):
            continue
        scores = np.round(rng.uniform(size=n), 2)
        op = select_operating_point(scores, labels)
        best = max(
            balanced_accuracy(confusion_at_threshold(scores, labels, t))
            for t in np.concatenate((np.unique(scores),
                                     [scores.max() + 1.0])))
        assert abs(op.train_balanced_accuracy - best) <= 1e-12
        checked += 1


@criterion(4, "logistic gradient matches finite differences")
def test_logistic_gradient():
    # fit's gradient, against central differences of the objective its
    # line search computes, over the design A = [1, Z].
    rng = np.random.default_rng(104)
    h = 1e-6
    for _ in range(50):
        n, d = int(rng.integers(5, 30)), int(rng.integers(1, 5))
        Z = rng.normal(size=(n, d))
        y = rng.integers(0, 2, size=n).astype(float)
        beta = rng.normal(size=d)
        intercept = float(rng.normal())
        l2 = float(rng.uniform(0, 0.1))
        A = np.hstack([np.ones((n, 1)), Z])
        theta = np.concatenate(([intercept], beta))
        pen = np.concatenate(([0.0], np.full(d, l2)))
        g = _gradient(A, y, sigmoid(A @ theta), theta, pen)

        def objective(t):
            return _penalized_ll(y, sigmoid(A @ t), t[1:], l2)

        fd = np.array([(objective(theta + e) - objective(theta - e)) / (2 * h)
                       for e in h * np.eye(d + 1)])
        denom = np.maximum(np.abs(g), 1e-3)
        assert np.all(np.abs(g - fd) / denom <= 1e-5)
    # the optimizer never decreases its objective
    for seed in range(5):
        r = np.random.default_rng(200 + seed)
        X = r.normal(size=(120, 4))
        yy = (X[:, 0] + r.normal(0, 1.5, 120) > 0).astype(int)
        model = fit(matrix_from(X, yy))
        assert np.all(np.diff(model.ll_history) >= -1e-10)


@criterion(5, "planted features recovered by Gini importance")
def test_planted_recovery():
    hits = 0
    for seed in range(40):
        rng = np.random.default_rng(300 + seed)
        n = 500
        X = rng.normal(size=(n, 21))
        y = rng.integers(0, 2, size=n)
        X[:, 0] = y + rng.normal(0, 0.6, n)
        model = fit_forest(matrix_from(X, y),
                           ForestConfig(n_trees=20, min_samples_leaf=5), seed)
        hits += int(np.argmax(model.gini_importance) == 0)
    assert hits >= 38  # 95% of 40

    recovered = 0
    plants = (0, 7, 20)
    for seed in range(10):
        rng = np.random.default_rng(400 + seed)
        cases = []
        for i in range(200):
            align = np.zeros(len(IG_NAMES), dtype=int)
            yy = int(rng.integers(0, 2))
            for p in plants:
                if rng.uniform() < 0.95:
                    align[p] = 2 if yy else -2
            for j in rng.choice(len(IG_NAMES), size=5, replace=False):
                if j not in plants:
                    align[j] = int(rng.choice([-2, -1, 1, 2]))
            cases.append(PolicyCase(f"a{i}", 1990, yy, tuple(align),
                                    "Guns", "Guns",
                                    p90=float(rng.uniform())))
        spec = build_set_c(cases, k=3, base_seed=seed, n_splits=3,
                           forest_config=ForestConfig(n_trees=15))
        recovered += int(set(spec.ig_subset)
                         == {IG_NAMES[p] for p in plants})
    assert recovered >= 9  # 90% of 10


@criterion(6, "forest beats logistic on three-region data by >= 10 points")
def test_nonlinearity_advantage():
    cases = three_region_cases(n=300, seed=2)
    rep = nonlinearity_case_study(
        cases, forest_config=ForestConfig(n_trees=60), base_seed=2)
    gap = rep.forest_balanced_accuracy - rep.logistic_balanced_accuracy
    assert gap >= 0.10


@criterion(7, "identical seeds give byte-identical reports, serial or "
              "parallel")
def test_determinism(tmp_path):
    cases = make_cases(150, seed=21)
    cfg = ForestConfig(n_trees=30)
    paths = []
    for tag, jobs in (("serial_a", 1), ("serial_b", 1), ("parallel", 4)):
        rep = run_feature_set_eval(cases, FeatureSetSpec.set_b(),
                                   "random_draw", n_runs=3, base_seed=13,
                                   forest_config=cfg, n_jobs=jobs)
        p = tmp_path / f"report_{tag}.json"
        p.write_text(json.dumps(asdict(rep), sort_keys=True, indent=2))
        paths.append(p)
    blobs = [p.read_bytes() for p in paths]
    assert blobs[0] == blobs[1] == blobs[2]
    # individual models are identical too, not just their scores
    mat = matrix_from(np.random.default_rng(0).normal(size=(80, 5)),
                      np.random.default_rng(1).integers(0, 2, 80))
    f1 = fit_forest(mat, cfg, n_jobs=1)
    f2 = fit_forest(mat, cfg, n_jobs=4)
    assert same_forest(f1, f2)


@criterion(8, "aggregate-stance and correlation identities hold exactly")
def test_stance_identities():
    rng = np.random.default_rng(108)
    for _ in range(200):
        a, b, c, d = (int(v) for v in rng.integers(0, 11, size=4))
        assert net_iga(AlignmentTally(a, b, c, d)) == \
            -net_iga(AlignmentTally(c, d, a, b))
    base = net_iga(AlignmentTally(3, 2, 4, 1))
    assert net_iga(AlignmentTally(4, 2, 4, 1)) > base
    assert net_iga(AlignmentTally(3, 3, 4, 1)) > base
    assert net_iga(AlignmentTally(3, 2, 5, 1)) < base
    assert net_iga(AlignmentTally(3, 2, 4, 2)) < base
    assert net_iga(AlignmentTally(0, 0, 0, 0)) == 0.0
    assert net_iga(AlignmentTally(1, 0, 0, 0)) == math.log(2.0)
    assert net_iga(AlignmentTally(2, 1, 1, 2)) == \
        math.log(3.5) - math.log(3.0)

    def one(outcome, value, name="AARP"):
        align = np.zeros(len(IG_NAMES), dtype=int)
        align[IG_NAMES.index(name)] = value
        return PolicyCase("x", 1990, outcome, tuple(align), "Guns", "Guns",
                          p90=0.5)

    assert rank_stances([one(1, 2)])["AARP"] == (1.0, 1)
    assert rank_stances([one(1, 2), one(0, 2)])["AARP"][0] == 0.0
    cases = make_cases(60, seed=31)
    for name, (corr, at_bats) in rank_stances(cases).items():
        expected, count = loop_stance_correlation(cases, name)
        assert at_bats == count
        assert abs(corr - expected) <= 1e-12


# ---------------------------------------------------------------------------
# Dataset-conditional criteria (real data in the canonical schema).


@pytest.fixture(scope="module")
def real_cases():
    with open(os.environ[DATA_ENV]) as fh:
        return load_cases(fh)


@needs_data
@criterion(9, "dataset outcome counts match published totals")
def test_dataset_counts(real_cases):
    pos = sum(c.outcome for c in real_cases)
    assert pos == 643
    assert len(real_cases) - pos == 1193
    post = [c for c in real_cases if c.year >= 1997]
    post_pos = sum(c.outcome for c in post)
    assert post_pos == 188
    assert len(post) - post_pos == 461


@needs_data
@criterion(10, "feature-set accuracies within published tolerances")
def test_feature_set_accuracy(real_cases):
    reports = {}
    for sid, spec in (("A", FeatureSetSpec.set_a()),
                      ("B", FeatureSetSpec.set_b()),
                      ("C", build_set_c(real_cases)),
                      ("D", FeatureSetSpec.set_d())):
        reports[sid] = run_feature_set_eval(real_cases, spec, "random_draw",
                                            n_jobs=4)
    ba = {k: 100 * r.balanced_accuracy_mean for k, r in reports.items()}
    auc = {k: 100 * r.auc_mean for k, r in reports.items()}
    assert abs(ba["A"] - 61.5) <= 3.0 and abs(auc["A"] - 66.2) <= 3.0
    assert abs(ba["D"] - 70.1) <= 3.0 and abs(auc["D"] - 77.7) <= 3.0
    assert abs(ba["B"] - ba["C"]) <= 3.0
    assert ba["D"] - ba["A"] >= 5.0
    retro = run_feature_set_eval(real_cases, FeatureSetSpec.set_d(),
                                 "retrodiction", n_jobs=4)
    assert abs(100 * retro.balanced_accuracy_mean - 71.3) <= 3.0
    assert abs(100 * retro.auc_mean - 76.5) <= 3.0


@needs_data
@criterion(11, "per-domain feature rankings match published ordering")
def test_domain_rankings(real_cases):
    ranked = rank_igs_by_domain(real_cases,
                                ("Foreign", "Guns", "Social Welfare"),
                                n_jobs=4)
    foreign = ranked["Foreign"]
    assert foreign[0].feature == "P90"
    assert foreign[1].feature == "Defense Contractors"
    guns = ranked["Guns"]
    active = {r.feature for r in guns if r.rf_score_mean > 0}
    assert active == {"P90", "National Rifle Association"}
    welfare = ranked["Social Welfare"]
    top_ig = next(r.feature for r in welfare if r.feature != "P90")
    assert top_ig == "AARP"


@needs_data
@criterion(12, "forest-chosen subset beats logistic-chosen by >= 3 points")
def test_selector_gain(real_cases):
    comp = compare_selectors(real_cases, regimes=("random_draw",), n_jobs=4)
    gain = next(g for g in comp.gains
                if g.model_kind == "forest" and g.regime == "random_draw")
    assert gain.balanced_accuracy_gain_mean >= 0.03
