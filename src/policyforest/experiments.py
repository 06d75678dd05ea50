"""Experiment harness: feature-set evaluations, per-domain IG rankings,
preference-outcome correlations, per-IG accuracy gains, selector
comparisons, and the nonlinearity case study.

Every experiment is a pure function of (cases, parameters, base_seed);
run seeds derive from the base seed with the same mixing function the
forest uses, so reports are bit-reproducible and independent of
execution parallelism: seeded runs are handed out in contiguous chunks
by one forest.map_chunks call per series (a rank's series holds every
domain's runs), each chunk grows the forests of its runs together
(forest.fit_forests), and callers reduce the results in run order.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from functools import partial
from itertools import groupby, product

import numpy as np

from . import forest as rf
from . import logistic as lr
from . import metrics as mx
from .dataset import (CUTOFF_YEAR, IG_NAMES, PD_LABELS, EncodedMatrix,
                      FeatureSetSpec, PolicyCase, SplitPlan, encode,
                      random_split, rescale_p90, retrodiction_split,
                      zero_noncommittal)
from .forest import ForestConfig, map_chunks, mix_seed

REGIMES = ("random_draw", "retrodiction")
MODEL_KINDS = ("forest", "logistic")
# Share of cases each random draw trains on; only run_feature_set_eval
# takes another.
TRAIN_FRACTION = 0.67


class ExperimentError(ValueError):
    """Raised for invalid experiment parameters or degenerate data."""


def _mean_std(values) -> tuple[float, float]:
    vals = list(values)
    mean = float(np.mean(vals))
    std = float(np.std(vals, ddof=1)) if len(vals) > 1 else 0.0
    return mean, std


def check_positive(name: str, value: int) -> None:
    """Raise an ExperimentError naming the setting if value < 1."""
    if value < 1:
        raise ExperimentError(f"{name} must be >= 1, got {value}")


def check_regime_settings(regime: str, model_kind: str, n_runs: int | None,
                          train_fraction: float | None,
                          names=("n_runs", "train_fraction")) -> None:
    """Raise an ExperimentError naming the setting, as in names, that the
    regime cannot use: a train fraction under retrodiction, whose split
    is fixed by year, or more than one logistic run there, since every
    logistic refit on the fixed split is the same model."""
    if regime != "retrodiction":
        return
    if train_fraction is not None:
        raise ExperimentError(f"{names[1]} applies to random_draw splits "
                              f"only; retrodiction splits at {CUTOFF_YEAR}")
    if model_kind == "logistic" and n_runs is not None and n_runs > 1:
        raise ExperimentError(f"{names[0]} must be 1 for a logistic model "
                              f"under retrodiction, whose fit on the fixed "
                              f"split is deterministic; got {n_runs}")


def _check_choice(kind: str, value: str, choices) -> None:
    if value not in choices:
        raise ExperimentError(f"unknown {kind} {value!r}")


def _check_k(k: int) -> None:
    if not (1 <= k <= len(IG_NAMES)):
        raise ExperimentError(f"k must be in [1, {len(IG_NAMES)}], got {k}")


def _runs(n_samples: int, base_seed: int, js,
          train_fraction: float = TRAIN_FRACTION,
          fixed_plan: SplitPlan | None = None):
    """(plan, model seed) of each run j in js: run j splits with seed
    mix_seed(base_seed, j), unless the plan is fixed, and fits with seed
    mix_seed(run_seed, 1)."""
    for j in js:
        run_seed = mix_seed(base_seed, j)
        plan = fixed_plan
        if plan is None:
            plan = random_split(n_samples, train_fraction, run_seed)
        yield plan, mix_seed(run_seed, 1)


def _split_chunk(matrices: list[EncodedMatrix], base_seed: int,
                 forest_config: ForestConfig, with_logistic: bool,
                 n_jobs: int, items) -> list:
    """Items (g, j): run j of the seeded split series (_runs) of
    matrices[g] fits a forest and, with_logistic, a logistic model on its
    train rows; the forests of one matrix's runs grow together. Returns
    (plan, forest Gini importance, {name: |beta|} or None) per item."""
    out = []
    for g, group in groupby(items, key=lambda item: item[0]):
        matrix = matrices[g]
        runs = list(_runs(matrix.n_samples, base_seed, [j for _, j in group]))
        forests = [(plan.train_indices, replace(forest_config, seed=seed))
                   for plan, seed in runs]
        gini = {i: model.gini_importance
                for i, model in rf.fit_forests(matrix, forests, n_jobs)}
        for i, (plan, _) in enumerate(runs):
            betas = None
            if with_logistic:
                betas = dict(lr.coefficient_ranking(
                    lr.fit(matrix.subset(plan.train_indices))))
            out.append((plan, gini[i], betas))
    return out


def _split_forests(matrices: list[EncodedMatrix], n_splits: int,
                   base_seed: int, forest_config: ForestConfig, n_jobs: int,
                   first: int = 0, with_logistic: bool = False) -> list:
    """_split_chunk for runs first .. first + n_splits - 1 of every matrix,
    in (matrix, run) order, in one map on up to n_jobs worker processes."""
    chunk = partial(_split_chunk, matrices, base_seed, forest_config,
                    with_logistic)
    items = product(range(len(matrices)), range(first, first + n_splits))
    return map_chunks(chunk, items, n_jobs)


def _logistic_scores(matrix: EncodedMatrix, plan: SplitPlan) -> tuple:
    """(train labels, test labels, train scores, test scores) of a
    logistic model fit on the plan's train rows."""
    train = matrix.subset(plan.train_indices)
    test = matrix.subset(plan.test_indices)
    model = lr.fit(train)
    return (train.y, test.y,
            lr.predict_proba(model, train.X, train.column_names),
            lr.predict_proba(model, test.X, test.column_names))


def _run_scores(model_kind: str, matrix: EncodedMatrix, runs,
                forest_config: ForestConfig, n_jobs: int):
    """Fit one model per (plan, model seed) in runs on the plan's train
    rows. Yields (i, train labels, test labels, train scores, test scores)
    for runs[i] as each fit completes; the forests of all runs grow
    together. No frame holds a model or its rows while the next one fits."""
    if model_kind == "logistic":
        for i, (plan, _) in enumerate(runs):
            yield (i, *_logistic_scores(matrix, plan))
        return
    split = {}

    def forests():
        for i, (plan, model_seed) in enumerate(runs):
            train_idx = np.asarray(plan.train_indices, dtype=int)
            split[i] = train_idx, np.asarray(plan.test_indices, dtype=int)
            yield train_idx, replace(forest_config, seed=model_seed)

    def score(done):
        i, model = done
        train_idx, test_idx = split.pop(i)
        return (i, matrix.y[train_idx], matrix.y[test_idx],
                rf.predict_proba(model, matrix.X[train_idx]),
                rf.predict_proba(model, matrix.X[test_idx]))

    # map, not a loop, so that no frame holds the last model while the
    # next forests grow.
    yield from map(score, rf.fit_forests(matrix, forests(), n_jobs))


# ---------------------------------------------------------------------------
# Feature-set evaluation (Table-4-style runs)


@dataclass(frozen=True)
class RunResult:
    run_index: int
    seed: int
    threshold: float
    train_balanced_accuracy: float
    balanced_accuracy: float
    auc: float
    tp: int
    fp: int
    tn: int
    fn: int


@dataclass
class EvalReport:
    feature_set_id: str
    regime: str
    model_kind: str
    base_seed: int
    n_dropped_missing_p90: int
    runs: list[RunResult]
    balanced_accuracy_mean: float = 0.0
    balanced_accuracy_std: float = 0.0
    auc_mean: float = 0.0
    auc_std: float = 0.0

    def __post_init__(self):
        if self.runs:
            self.balanced_accuracy_mean, self.balanced_accuracy_std = \
                _mean_std(r.balanced_accuracy for r in self.runs)
            self.auc_mean, self.auc_std = _mean_std(r.auc for r in self.runs)

    def to_dict(self) -> dict:
        return asdict(self)


def _eval_chunk(matrix: EncodedMatrix, fixed_plan: SplitPlan | None,
                model_kind: str, base_seed: int, forest_config: ForestConfig,
                train_fraction: float, n_jobs: int,
                js: list[int]) -> list[RunResult]:
    """Runs js of run_feature_set_eval (_runs), in run order: each fits,
    picks the threshold on train and scores test."""
    runs = _runs(matrix.n_samples, base_seed, js, train_fraction, fixed_plan)
    results = {}
    for i, train_y, test_y, train_scores, test_scores in _run_scores(
            model_kind, matrix, runs, forest_config, n_jobs):
        op = mx.select_operating_point(train_scores, train_y)
        conf = mx.confusion_at_threshold(test_scores, test_y, op.threshold)
        _, auc = mx.roc_and_auc(test_scores, test_y)
        results[i] = RunResult(
            run_index=js[i], seed=mix_seed(base_seed, js[i]),
            threshold=op.threshold,
            train_balanced_accuracy=op.train_balanced_accuracy,
            balanced_accuracy=mx.balanced_accuracy(conf), auc=auc,
            tp=conf.tp, fp=conf.fp, tn=conf.tn, fn=conf.fn)
    return [results[i] for i in range(len(js))]


def run_feature_set_eval(cases: list[PolicyCase], spec: FeatureSetSpec,
                         regime: str, model_kind: str = "forest",
                         n_runs: int | None = None, base_seed: int = 0,
                         forest_config: ForestConfig = ForestConfig(),
                         train_fraction: float | None = None,
                         n_jobs: int = 1) -> EvalReport:
    """Repeated split / fit / evaluate for one feature set.

    random_draw: n_runs (default 25) independent seeded splits, each
    training on train_fraction (default TRAIN_FRACTION) of the cases.
    retrodiction: a single fixed year split, which takes no
    train_fraction; n_runs (default 1) forest refits with different model
    seeds quantify fit randomness only, and a logistic model runs once.
    """
    _check_choice("regime", regime, REGIMES)
    _check_choice("model kind", model_kind, MODEL_KINDS)
    if n_runs is None:
        n_runs = 25 if regime == "random_draw" else 1
    check_positive("n_runs", n_runs)
    check_regime_settings(regime, model_kind, n_runs, train_fraction)
    if train_fraction is None:
        train_fraction = TRAIN_FRACTION
    matrix = encode(cases, spec)

    fixed_plan = None
    if regime == "retrodiction":
        fixed_plan = retrodiction_split(
            [cases[i] for i in matrix.case_indices])

    chunk = partial(_eval_chunk, matrix, fixed_plan, model_kind, base_seed,
                    forest_config, train_fraction)
    runs = map_chunks(chunk, range(n_runs), n_jobs)
    return EvalReport(feature_set_id=spec.id, regime=regime,
                      model_kind=model_kind, base_seed=base_seed,
                      n_dropped_missing_p90=matrix.n_dropped_missing_p90,
                      runs=runs)


# ---------------------------------------------------------------------------
# Preference-outcome correlation (at-bats weighted)


def _stance_correlations(X: np.ndarray, y: np.ndarray,
                         names: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """(corr, at-bats) per column of X, named by names: at-bats counts the
    rows whose stance x is non-zero, and corr = (0.5/at_bats) * (sum of x
    over adopted - sum over rejected), each sum in row order (0 with no
    at-bats). P90 is rescaled to [-2,2] and its noncommittal band zeroed."""
    stances = np.array(X, dtype=float)
    if "P90" in names:
        p = names.index("P90")
        stances[:, p] = [zero_noncommittal(rescale_p90(v)) for v in X[:, p]]
    at_bats = np.count_nonzero(stances, axis=0)
    sums = np.zeros((2, len(names)))
    np.add.at(sums, y, stances)  # sums[y[i]] += stances[i], i in order
    return 0.5 / np.maximum(at_bats, 1) * (sums[1] - sums[0]), at_bats


def ig_outcome_correlation(cases: list[PolicyCase],
                           feature: str) -> tuple[float | None, int]:
    """(correlation, at-bats) of one feature's stances with the outcomes
    of cases, those with a P90 for "P90" (_stance_correlations); (None, 0)
    when the feature was never at bat."""
    _check_choice("feature", feature, ("P90", *IG_NAMES))
    p90 = feature == "P90"
    m = encode(cases, FeatureSetSpec("custom", p90, False,
                                     () if p90 else (feature,), "none"))
    corr, at_bats = _stance_correlations(m.X, m.y, m.column_names)
    return (float(corr[0]) if at_bats[0] else None), int(at_bats[0])


# ---------------------------------------------------------------------------
# Per-domain IG ranking


@dataclass(frozen=True)
class DomainRankingRow:
    feature: str
    rf_score_mean: float
    rf_score_std: float
    correlation_mean: float | None
    correlation_std: float | None
    at_bats_mean: float
    at_bats_std: float


# P90 and every IG, no policy columns: the ranking and selection features.
_RANKING_SPEC = FeatureSetSpec("custom", True, False, IG_NAMES, "none")


def rank_igs_by_domain(cases: list[PolicyCase],
                       domains: tuple[str, ...] = PD_LABELS,
                       n_splits: int = 21, base_seed: int = 0,
                       forest_config: ForestConfig = ForestConfig(),
                       n_jobs: int = 1) -> dict[str, list[DomainRankingRow]]:
    """Rank P90 and the IGs by averaged Gini importance within each domain,
    over its cases that have a P90; returns {domain: rows}, each domain's
    rows by falling importance.

    Every domain, and the training labels of each of its runs, is checked
    before any forest is fit. Then the runs of
    all domains go to one worker map; run j of every domain splits with
    seed mix_seed(base_seed, j). Correlations and at-bats are computed on
    each split's test rows; every figure is a mean +/- std over splits.
    """
    check_positive("n_splits", n_splits)
    matrices = []
    for domain in domains:
        _check_choice("policy domain", domain, PD_LABELS)
        matrix = encode([c for c in cases if c.policy_domain == domain],
                        _RANKING_SPEC)
        n, n_pos = matrix.n_samples, int(matrix.y.sum())
        if n < 2 or n_pos == 0 or n_pos == n:
            raise ExperimentError(f"domain {domain!r} is degenerate: cannot "
                                  f"rank ({n} usable cases, {n_pos} positive)")
        for j, (plan, _) in enumerate(_runs(n, base_seed, range(n_splits))):
            train = matrix.y[list(plan.train_indices)]
            if train.min() == train.max():
                raise ExperimentError(
                    f"domain {domain!r}, run {j + 1} of {n_splits}: the "
                    f"{len(train)} training cases have a single class; "
                    f"cannot rank")
        matrices.append(matrix)
    splits = _split_forests(matrices, n_splits, base_seed, forest_config,
                            n_jobs)
    ranked = {}
    for g, (domain, matrix) in enumerate(zip(domains, matrices)):
        runs = splits[g * n_splits:(g + 1) * n_splits]
        importances = np.array([importance for _, importance, _ in runs])
        corrs, at_bats = map(np.array, zip(*(
            _stance_correlations(test.X, test.y, matrix.column_names)
            for test in (matrix.subset(plan.test_indices)
                         for plan, _, _ in runs))))
        rows = []
        for f, name in enumerate(matrix.column_names):
            seen = at_bats[:, f] > 0
            corr = _mean_std(corrs[seen, f]) if seen.any() else (None, None)
            rows.append(DomainRankingRow(name, *_mean_std(importances[:, f]),
                                         *corr, *_mean_std(at_bats[:, f])))
        # A stable sort: equal scores keep column order.
        ranked[domain] = sorted(rows, key=lambda r: -r.rf_score_mean)
    return ranked


# ---------------------------------------------------------------------------
# Set C construction (top-k IGs by averaged Gini importance)


def _top_k(scores, k: int) -> tuple[str, ...]:
    """The k IGs with the highest scores, ties to the earlier IG, in IG
    order."""
    order = sorted(range(len(IG_NAMES)), key=lambda i: (-scores[i], i))
    return tuple(IG_NAMES[i] for i in sorted(order[:k]))


def build_set_c(cases: list[PolicyCase], k: int = 14, base_seed: int = 0,
                n_splits: int = 21,
                forest_config: ForestConfig = ForestConfig(),
                n_jobs: int = 1) -> FeatureSetSpec:
    """Derive the reduced IG subset from Set-B forests over random draws."""
    _check_k(k)
    check_positive("n_splits", n_splits)
    matrix = encode(cases, FeatureSetSpec.set_b())
    ig_cols = [matrix.column_names.index(name) for name in IG_NAMES]

    acc = np.zeros(matrix.n_features)
    for _, importance, _ in _split_forests([matrix], n_splits, base_seed,
                                           forest_config, n_jobs):
        acc += importance
    chosen = _top_k(acc[ig_cols], k)
    if k == len(IG_NAMES):
        return FeatureSetSpec.set_b()
    spec_id = "C" if k == 14 else "custom"
    return FeatureSetSpec(spec_id, use_p90=True, use_net_iga=False,
                          ig_subset=chosen, policy_encoding="pd")


# ---------------------------------------------------------------------------
# Per-IG accuracy gains (Set B vs Set A on strongly-engaged subgroups)


@dataclass(frozen=True)
class GainRow:
    ig: str
    gain_mean: float
    gain_std: float
    mean_test_cases: float


@dataclass
class GainReport:
    rows: list[GainRow]
    excluded: list[str]  # IGs below the test-case threshold in some run
    base_seed: int = 0

    def to_dict(self) -> dict:
        return asdict(self)


def _gain_chunk(mat_b: EncodedMatrix, mat_a: EncodedMatrix,
                align: np.ndarray, base_seed: int, forest_config: ForestConfig,
                n_jobs: int,
                js: list[int]) -> list[list[tuple[int, float | None]]]:
    """Runs js of gain_per_ig (_runs), in run order: per run, per IG,
    (strong-stance test cases, spec_b accuracy minus spec_a accuracy on
    them, or None when there are none)."""
    # Same model seed for both fits: the comparison is paired, so the
    # models differ only by feature set (identical specs give gain 0).
    runs = list(_runs(mat_b.n_samples, base_seed, js))
    preds = {}
    for tag, mat in (("b", mat_b), ("a", mat_a)):
        for i, train_y, _, train_scores, test_scores in _run_scores(
                "forest", mat, runs, forest_config, n_jobs):
            op = mx.select_operating_point(train_scores, train_y)
            preds[tag, i] = (test_scores >= op.threshold).astype(int)
    out = []
    for i, (plan, _) in enumerate(runs):
        test_idx = np.asarray(plan.test_indices, dtype=int)
        y_test = mat_b.y[test_idx]
        per_ig: list[tuple[int, float | None]] = []
        for g in range(len(IG_NAMES)):
            mask = np.abs(align[test_idx, g]) == 2
            gain = None
            if mask.any():
                acc_b = float(np.mean(preds["b", i][mask] == y_test[mask]))
                acc_a = float(np.mean(preds["a", i][mask] == y_test[mask]))
                gain = acc_b - acc_a
            per_ig.append((int(mask.sum()), gain))
        out.append(per_ig)
    return out


def gain_per_ig(cases: list[PolicyCase],
                spec_b: FeatureSetSpec | None = None,
                spec_a: FeatureSetSpec | None = None,
                n_runs: int = 25, base_seed: int = 0,
                min_test_cases: int = 20,
                forest_config: ForestConfig = ForestConfig(),
                n_jobs: int = 1) -> GainReport:
    """Per-IG mean accuracy gain of the spec_b model over the spec_a model.

    For each run, accuracy is measured on test cases where the IG was
    strongly in favor or strongly opposed; IGs with fewer than
    min_test_cases such cases in any run are reported separately.
    """
    check_positive("n_runs", n_runs)
    check_positive("min_test_cases", min_test_cases)
    spec_b = spec_b or FeatureSetSpec.set_b()
    spec_a = spec_a or FeatureSetSpec.set_a()
    # Filtered here, not only in encode: when one spec uses P90 and the
    # other does not, encode would drop rows from one matrix only, and
    # mat_b, mat_a and align must stay row-aligned.
    usable = [c for c in cases
              if not (spec_b.use_p90 or spec_a.use_p90) or c.p90 is not None]
    mat_b = encode(usable, spec_b)
    mat_a = encode(usable, spec_a)
    align = np.array([c.ig_alignments for c in usable])  # (n, 43)

    gains: dict[str, list[float]] = {name: [] for name in IG_NAMES}
    counts: dict[str, list[int]] = {name: [] for name in IG_NAMES}
    chunk = partial(_gain_chunk, mat_b, mat_a, align, base_seed,
                    forest_config)
    for per_ig in map_chunks(chunk, range(n_runs), n_jobs):
        for name, (count, gain) in zip(IG_NAMES, per_ig):
            counts[name].append(count)
            if gain is not None:
                gains[name].append(gain)

    rows: list[GainRow] = []
    excluded: list[str] = []
    for name in IG_NAMES:
        if min(counts[name]) >= min_test_cases:
            mean, std = _mean_std(gains[name])
            rows.append(GainRow(name, mean, std,
                                float(np.mean(counts[name]))))
        else:
            excluded.append(name)
    rows.sort(key=lambda r: -r.gain_mean)
    return GainReport(rows=rows, excluded=excluded, base_seed=base_seed)


# ---------------------------------------------------------------------------
# Selector comparison (forest-Gini-chosen vs logistic-beta-chosen IGs)


@dataclass(frozen=True)
class SelectorCell:
    model_kind: str   # forest | logistic
    selector: str     # rf_gini | logistic_beta
    regime: str       # random_draw | retrodiction
    balanced_accuracy_mean: float
    balanced_accuracy_std: float
    auc_mean: float
    auc_std: float


@dataclass(frozen=True)
class SelectorGain:
    model_kind: str
    regime: str
    balanced_accuracy_gain_mean: float
    balanced_accuracy_gain_std: float
    auc_gain_mean: float
    auc_gain_std: float


@dataclass
class SelectorComparison:
    rf_chosen: tuple[str, ...]
    logistic_chosen: tuple[str, ...]
    cells: list[SelectorCell]
    gains: list[SelectorGain]  # mean of per-split differences
    base_seed: int = 0

    def to_dict(self) -> dict:
        return asdict(self)


def _select_subsets(matrix: EncodedMatrix, k: int, n_splits: int,
                    base_seed: int, forest_config: ForestConfig,
                    n_jobs: int) -> tuple[tuple[str, ...], tuple[str, ...]]:
    ig_cols = {name: matrix.column_names.index(name) for name in IG_NAMES}
    gini_acc = np.zeros(len(IG_NAMES))
    beta_acc = np.zeros(len(IG_NAMES))
    for _, gini, mags in _split_forests([matrix], n_splits, base_seed,
                                        forest_config, n_jobs, first=10_000,
                                        with_logistic=True):
        for i, name in enumerate(IG_NAMES):
            gini_acc[i] += gini[ig_cols[name]]
            beta_acc[i] += mags.get(name, 0.0)
    return _top_k(gini_acc, k), _top_k(beta_acc, k)


def compare_selectors(cases: list[PolicyCase], k: int = 14,
                      regimes: tuple[str, ...] = REGIMES,
                      n_splits: int = 21, base_seed: int = 0,
                      forest_config: ForestConfig = ForestConfig(),
                      n_jobs: int = 1) -> SelectorComparison:
    """Evaluate forest-chosen vs logistic-chosen k-IG subsets.

    Both model kinds are evaluated on both subsets (features: P90 plus
    the chosen IGs) under paired split seeds; gain rows are the mean of
    per-split differences, not the difference of means.
    """
    _check_k(k)
    check_positive("n_splits", n_splits)
    for regime in regimes:
        _check_choice("regime", regime, REGIMES)
    rf_chosen, lg_chosen = _select_subsets(
        encode(cases, _RANKING_SPEC), k, n_splits, base_seed, forest_config,
        n_jobs)

    specs = {"rf_gini": replace(_RANKING_SPEC, ig_subset=rf_chosen),
             "logistic_beta": replace(_RANKING_SPEC, ig_subset=lg_chosen)}
    cells: list[SelectorCell] = []
    gains: list[SelectorGain] = []
    for model_kind in MODEL_KINDS:
        for regime in regimes:
            n_runs = n_splits
            if regime == "retrodiction" and model_kind == "logistic":
                n_runs = 1  # deterministic on a fixed split
            per_sel: dict[str, EvalReport] = {}
            for sel, spec in specs.items():
                rep = per_sel[sel] = run_feature_set_eval(
                    cases, spec, regime, model_kind, n_runs=n_runs,
                    base_seed=base_seed, forest_config=forest_config,
                    n_jobs=n_jobs)
                cells.append(SelectorCell(
                    model_kind, sel, regime,
                    rep.balanced_accuracy_mean, rep.balanced_accuracy_std,
                    rep.auc_mean, rep.auc_std))
            a, b = per_sel["rf_gini"].runs, per_sel["logistic_beta"].runs
            gains.append(SelectorGain(
                model_kind, regime,
                *_mean_std(x.balanced_accuracy - y.balanced_accuracy
                           for x, y in zip(a, b)),
                *_mean_std(x.auc - y.auc for x, y in zip(a, b))))
    return SelectorComparison(rf_chosen=rf_chosen, logistic_chosen=lg_chosen,
                              cells=cells, gains=gains, base_seed=base_seed)


# ---------------------------------------------------------------------------
# Nonlinearity case study (P90 x pivot-IG geometry)


@dataclass(frozen=True)
class CaseStudyPoint:
    case_id: str
    p90: float
    pivot_alignment: int
    outcome: int
    forest_proba: float
    forest_pred: int
    logistic_proba: float
    logistic_pred: int


@dataclass
class CaseStudyReport:
    domain: str
    pivot_ig: str
    points: list[CaseStudyPoint]
    forest_balanced_accuracy: float
    logistic_balanced_accuracy: float
    region_counts: dict[str, dict[str, int]]

    def to_dict(self) -> dict:
        return asdict(self)


def nonlinearity_case_study(cases: list[PolicyCase],
                            pivot_ig: str = "Defense Contractors",
                            domain: str = "Foreign", base_seed: int = 0,
                            forest_config: ForestConfig = ForestConfig(),
                            n_jobs: int = 1) -> CaseStudyReport:
    """Fit forest and logistic on (P90, pivot alignment) over domain cases
    where the pivot took a stance; report both balanced accuracies and the
    per-case point data behind the three-region picture.

    Protocol: a single fit on all qualifying cases, evaluated in-sample
    at each model's own best operating point.
    """
    _check_choice("IG", pivot_ig, IG_NAMES)
    sub = [c for c in cases
           if c.policy_domain == domain and c.p90 is not None
           and c.alignment(pivot_ig) != 0]
    if not sub:
        raise ExperimentError(f"no {domain!r} cases with a non-neutral "
                              f"{pivot_ig!r} stance")
    n_pos = sum(c.outcome for c in sub)
    if n_pos == 0 or n_pos == len(sub):
        raise ExperimentError(f"case-study subset is single-class "
                              f"({n_pos}/{len(sub)} positive)")

    X = np.array([[c.p90, c.alignment(pivot_ig)] for c in sub], dtype=float)
    y = np.array([c.outcome for c in sub], dtype=int)
    matrix = EncodedMatrix(X, y, ["P90", pivot_ig],
                           np.arange(len(sub)))

    cfg = replace(forest_config, seed=mix_seed(base_seed, 1))
    fmodel = rf.fit_forest(matrix, cfg, n_jobs=n_jobs)
    lmodel = lr.fit(matrix)
    f_scores = rf.predict_proba(fmodel, X)
    l_scores = lr.predict_proba(lmodel, X, matrix.column_names)
    f_op = mx.select_operating_point(f_scores, y)
    l_op = mx.select_operating_point(l_scores, y)
    f_pred = (f_scores >= f_op.threshold).astype(int)
    l_pred = (l_scores >= l_op.threshold).astype(int)
    points = [CaseStudyPoint(c.case_id, c.p90, c.alignment(pivot_ig),
                             c.outcome, float(f_scores[i]), int(f_pred[i]),
                             float(l_scores[i]), int(l_pred[i]))
              for i, c in enumerate(sub)]

    regions = {"pivot_favors": [], "pivot_opposes_p90_high": [],
               "pivot_opposes_p90_low": []}
    for c in sub:
        if c.alignment(pivot_ig) > 0:
            key = "pivot_favors"
        elif c.p90 >= 0.5:
            key = "pivot_opposes_p90_high"
        else:
            key = "pivot_opposes_p90_low"
        regions[key].append(c.outcome)
    region_counts = {key: {"pos": sum(v), "neg": len(v) - sum(v)}
                     for key, v in regions.items()}

    return CaseStudyReport(
        domain=domain, pivot_ig=pivot_ig, points=points,
        forest_balanced_accuracy=f_op.train_balanced_accuracy,
        logistic_balanced_accuracy=l_op.train_balanced_accuracy,
        region_counts=region_counts)
