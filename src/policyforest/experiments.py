"""Experiment harness: feature-set evaluations, per-domain IG rankings,
preference-outcome correlations, per-IG accuracy gains, selector
comparisons, and the nonlinearity case study.

Every experiment is a pure function of (cases, parameters, base_seed);
run seeds derive from the base seed with the same mixing function the
forest uses, so reports are bit-reproducible and independent of
execution parallelism. Every experiment, the case study included, draws
and checks all its runs up front (_runs; the case study's one run trains
and tests on all its rows), each a (train rows, test rows, model seed)
triple, and lists its fits as items (matrix, model kind, run).
forest.map_chunks hands the items to _fit_chunk in contiguous chunks,
one per worker, which may span cells or specs (rank's domains are row
sets of one matrix); _fit_chunk fits a chunk's items of one matrix and
kind together (all their forests in one forest.fit_forests call), and
callers reduce the _Fits in item order.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from . import forest as rf
from . import logistic as lr
from . import metrics as mx
from . import PolicyforestError
from .dataset import (CUTOFF_YEAR, IG_NAMES, MODEL_KINDS, PD_LABELS, REGIMES,
                      TRAIN_FRACTION, EncodedMatrix, FeatureSetSpec,
                      PolicyCase, encode, mix_seed, random_split,
                      retrodiction_split)
from .forest import ForestConfig, map_chunks


class ExperimentError(PolicyforestError):
    """Raised for invalid experiment parameters or degenerate data."""


def _row_mean_std(values: np.ndarray) -> list[tuple[float, float]]:
    """(mean, sample std) of each row of a C-contiguous 2-D array, std 0.0
    for rows of one value: a reduction along contiguous rows sums each as
    np.mean and np.std sum the row alone."""
    std = (values.std(axis=1, ddof=1) if values.shape[1] > 1
           else np.zeros(len(values)))
    return list(zip(values.mean(axis=1).tolist(), std.tolist()))


def _mean_std(values) -> tuple[float, float]:
    """_row_mean_std of the values as one row."""
    return _row_mean_std(np.array([list(values)]))[0]


def check_positive(name: str, value: int) -> None:
    """Raise an ExperimentError naming the setting if value < 1."""
    if value < 1:
        raise ExperimentError(f"{name} must be >= 1, got {value}")


def check_regime_settings(regime: str, model_kind: str, n_runs: int | None,
                          train_fraction: float | None,
                          names=("n_runs", "train_fraction")) -> None:
    """Raise an ExperimentError naming the setting, as in names, that the
    regime cannot use: a train fraction outside (0, 1), or any under
    retrodiction, whose split is fixed by year, or more than one logistic
    run there, since every logistic refit on the fixed split is the same
    model."""
    if regime != "retrodiction":
        if train_fraction is not None and not 0 < train_fraction < 1:
            raise ExperimentError(f"{names[1]} must be in (0, 1), got "
                                  f"{train_fraction}")
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


def check_k(name: str, k: int) -> None:
    """Raise an ExperimentError naming the setting if k is not an IG
    count in [1, len(IG_NAMES)]."""
    if not (1 <= k <= len(IG_NAMES)):
        raise ExperimentError(f"{name} must be in [1, {len(IG_NAMES)}], "
                              f"got {k}")


def _runs(y: np.ndarray, base_seed: int, js,
          train_fraction: float = TRAIN_FRACTION, fixed_split=None,
          check_test: bool = False) -> list:
    """The list of (train rows, test rows, model seed) of each run j in
    js over the rows labelled y: run j splits with seed mix_seed(base_seed,
    j), unless the split is fixed, and fits with seed mix_seed(run_seed, 1).
    A run whose training rows, or with check_test its test rows, are fewer
    than 2 or of one class is an ExperimentError naming the run and side."""
    runs = []
    for at, j in enumerate(js, 1):
        run_seed = mix_seed(base_seed, j)
        train, test = fixed_split or random_split(len(y), train_fraction,
                                                  run_seed)
        sides = [("training", train), ("test", test)][:1 + check_test]
        for side, rows in sides:
            labels = y[rows]
            if labels.size < 2 or labels.min() == labels.max():
                what = ("are fewer than 2" if labels.size < 2
                        else "have a single class")
                raise ExperimentError(f"run {at} of {len(js)}: the "
                                      f"{labels.size} {side} cases {what}")
        runs.append((train, test, mix_seed(run_seed, 1)))
    return runs


class _Fit(NamedTuple):
    """What one run hands back to its command: its test rows, the model's
    per-column importance (forest Gini, or logistic |beta| with 0 for a
    column dropped as constant) and, when scored, the operating point
    chosen on its train rows and its test scores."""
    test_rows: np.ndarray
    importance: np.ndarray
    op: mx.OperatingPoint | None = None
    test_scores: np.ndarray | None = None


def _scored(matrix: EncodedMatrix, train: np.ndarray, test: np.ndarray,
            model, score: bool) -> _Fit:
    """The _Fit of model, a forest or a logistic model fit on rows train
    of matrix, scored when score is set. A run that tests on its train
    rows scores them once."""
    if isinstance(model, rf.ForestModel):
        importance = model.gini_importance
        predict = partial(rf.predict_proba, model)
    else:
        mags = dict(zip(model.column_names, np.abs(model.beta)))
        importance = np.array([mags.get(name, 0.0)
                               for name in matrix.column_names])
        predict = partial(lr.predict_proba, model,
                          input_columns=matrix.column_names)
    if not score:
        return _Fit(test, importance)
    scores = predict(matrix.X[train])
    op = mx.select_operating_point(scores, matrix.y[train])
    if not np.array_equal(train, test):
        scores = predict(matrix.X[test])
    return _Fit(test, importance, op, scores)


def _fit_chunk(forest_config: ForestConfig, score: bool, n_jobs: int,
               items: list) -> list[_Fit]:
    """The _Fit of each item (matrix, kind, (train rows, test rows, model
    seed)), a model of kind fit on the matrix's train rows, in item
    order. The items of one matrix and kind are fit together: all their
    forests in one fit_forests call, their logistic models one by one."""
    groups: dict[tuple[int, str], list[int]] = {}
    for at, (matrix, kind, _) in enumerate(items):
        groups.setdefault((id(matrix), kind), []).append(at)
    fits = [None] * len(items)

    def scored(ats, done):
        i, model = done
        matrix, _, (train, test, _) = items[ats[i]]
        return ats[i], _scored(matrix, train, test, model, score)

    for (_, kind), ats in groups.items():
        matrix = items[ats[0]][0]
        runs = [items[at][2] for at in ats]
        models = (rf.fit_forests(matrix, forest_config,
                                 ((train, seed) for train, _, seed in runs),
                                 n_jobs)
                  if kind == "forest" else
                  enumerate(lr.fit(matrix.subset(train))
                            for train, _, _ in runs))
        # map, not a loop over models, so that no frame holds the last
        # model while the next forests grow.
        for at, fit in map(partial(scored, ats), models):
            fits[at] = fit
    return fits


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


def _run_result(matrix: EncodedMatrix, base_seed: int, j: int,
                fit: _Fit) -> RunResult:
    """Run j's RunResult: its test rows scored at the operating point."""
    test_y = matrix.y[fit.test_rows]
    conf = mx.confusion_at_threshold(fit.test_scores, test_y, fit.op.threshold)
    return RunResult(run_index=j, seed=mix_seed(base_seed, j),
                     threshold=fit.op.threshold,
                     train_balanced_accuracy=fit.op.train_balanced_accuracy,
                     balanced_accuracy=mx.balanced_accuracy(conf),
                     auc=mx.roc_and_auc(fit.test_scores, test_y),
                     tp=conf.tp, fp=conf.fp, tn=conf.tn, fn=conf.fn)


def run_feature_set_eval(cases: list[PolicyCase],
                         spec: FeatureSetSpec | Callable[[], FeatureSetSpec],
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

    spec may be a function that derives a spec using P90 (Set C's
    selection, see build_set_c): it is called once the runs, drawn over
    the cases that have a P90, are checked.
    """
    _check_choice("regime", regime, REGIMES)
    _check_choice("model kind", model_kind, MODEL_KINDS)
    if n_runs is None:
        n_runs = 25 if regime == "random_draw" else 1
    check_positive("n_runs", n_runs)
    check_regime_settings(regime, model_kind, n_runs, train_fraction)
    if train_fraction is None:
        train_fraction = TRAIN_FRACTION
    use_p90 = callable(spec) or spec.use_p90
    # encode's rows: the cases, those with a P90 when the spec uses it.
    row_cases = [c for c in cases if not (use_p90 and c.p90 is None)]
    runs = _runs(np.array([c.outcome for c in row_cases], dtype=int),
                 base_seed, range(n_runs), train_fraction,
                 retrodiction_split(row_cases)
                 if regime == "retrodiction" else None, check_test=True)
    if callable(spec):
        spec = spec()
        if not spec.use_p90:
            raise ExperimentError(f"derived feature set {spec.id!r} does "
                                  f"not use P90")
    matrix = encode(cases, spec)

    fits = map_chunks(partial(_fit_chunk, forest_config, True),
                      [(matrix, model_kind, run) for run in runs], n_jobs)
    return EvalReport(feature_set_id=spec.id, regime=regime,
                      model_kind=model_kind, base_seed=base_seed,
                      n_dropped_missing_p90=matrix.n_dropped_missing_p90,
                      runs=[_run_result(matrix, base_seed, j, fit)
                            for j, fit in enumerate(fits)])


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
        stances[:, p] = 4.0 * stances[:, p] - 2.0
        stances[np.abs(stances[:, p]) <= 0.4, p] = 0.0
    at_bats = np.count_nonzero(stances, axis=0)
    sums = np.zeros((2, len(names)))
    np.add.at(sums, y, stances)  # sums[y[i]] += stances[i], i in order
    return 0.5 / np.maximum(at_bats, 1) * (sums[1] - sums[0]), at_bats


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

    The domains' cases are encoded once, each domain a set of rows of the
    one matrix. Every domain and each of its runs is checked before any
    forest is fit; run j of every domain splits that domain's rows with
    seed mix_seed(base_seed, j). The runs of all domains go to one worker
    map, run j of every domain together, so that each chunk holds every
    domain. Correlations and at-bats are computed on each split's test
    rows; every figure is a mean +/- std over splits.
    """
    check_positive("n_splits", n_splits)
    for domain in domains:
        _check_choice("policy domain", domain, PD_LABELS)
    in_domains = [c for c in cases if c.policy_domain in domains]
    matrix = encode(in_domains, _RANKING_SPEC)
    row_domain = np.array([in_domains[i].policy_domain
                           for i in matrix.case_indices])
    domain_runs = []
    for domain in domains:
        rows = np.flatnonzero(row_domain == domain)
        y = matrix.y[rows]
        n, n_pos = len(rows), int(y.sum())
        if n < 2 or n_pos == 0 or n_pos == n:
            raise ExperimentError(f"domain {domain!r} is degenerate: cannot "
                                  f"rank ({n} usable cases, {n_pos} positive)")
        try:
            runs = _runs(y, base_seed, range(n_splits))
        except ExperimentError as e:
            raise ExperimentError(f"domain {domain!r}, {e}") from None
        domain_runs.append([(rows[train], rows[test], model_seed)
                            for train, test, model_seed in runs])
    # Split-major: runs[j * len(domains) + d] is run j of domains[d].
    runs = [run for same_j in zip(*domain_runs) for run in same_j]
    fits = map_chunks(partial(_fit_chunk, forest_config, False),
                      [(matrix, "forest", run) for run in runs], n_jobs)
    ranked = {}
    for d, domain in enumerate(domains):
        domain_fits = fits[d::len(domains)]
        # (features, splits) arrays, one row per feature.
        importances = np.stack([fit.importance for fit in domain_fits],
                               axis=1)
        corrs, at_bats = (np.stack(part, axis=1) for part in zip(*(
            _stance_correlations(matrix.X[fit.test_rows],
                                 matrix.y[fit.test_rows], matrix.column_names)
            for fit in domain_fits)))
        scores = _row_mean_std(importances)
        seen_stats = _row_mean_std(at_bats)
        rows = []
        for f, name in enumerate(matrix.column_names):
            # The splits a feature's correlation averages vary by feature.
            seen = at_bats[f] > 0
            corr = _mean_std(corrs[f, seen]) if seen.any() else (None, None)
            rows.append(DomainRankingRow(name, *scores[f], *corr,
                                         *seen_stats[f]))
        # A stable sort: equal scores keep column order.
        ranked[domain] = sorted(rows, key=lambda r: -r.rf_score_mean)
    return ranked


# ---------------------------------------------------------------------------
# Set C construction (top-k IGs by averaged Gini importance)


def _top_k(matrix: EncodedMatrix, scores: np.ndarray,
           k: int) -> tuple[str, ...]:
    """The k IGs whose columns of matrix have the highest scores, ties to
    the earlier IG, in IG order."""
    ig = scores[[matrix.column_names.index(name) for name in IG_NAMES]]
    order = sorted(range(len(IG_NAMES)), key=lambda i: (-ig[i], i))
    return tuple(IG_NAMES[i] for i in sorted(order[:k]))


def build_set_c(cases: list[PolicyCase], k: int = 14, base_seed: int = 0,
                n_splits: int = 21,
                forest_config: ForestConfig = ForestConfig(),
                n_jobs: int = 1) -> FeatureSetSpec:
    """Derive the reduced IG subset from Set-B forests over random draws."""
    check_k("k", k)
    check_positive("n_splits", n_splits)
    matrix = encode(cases, FeatureSetSpec.set_b())
    runs = _runs(matrix.y, base_seed, range(n_splits))
    acc = np.zeros(matrix.n_features)
    for fit in map_chunks(partial(_fit_chunk, forest_config, False),
                          [(matrix, "forest", run) for run in runs], n_jobs):
        acc += fit.importance
    chosen = _top_k(matrix, acc, k)
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
    # Same runs, so same split and model seed, for both fits: the
    # comparison is paired, so the models differ only by feature set
    # (identical specs give gain 0).
    runs = _runs(mat_b.y, base_seed, range(n_runs))
    fits = iter(map_chunks(partial(_fit_chunk, forest_config, True),
                           [(m, "forest", run) for run in runs
                            for m in (mat_b, mat_a)], n_jobs))
    for fit_b, fit_a in zip(fits, fits):
        test = fit_b.test_rows
        hit_b = (fit_b.test_scores >= fit_b.op.threshold) == mat_b.y[test]
        hit_a = (fit_a.test_scores >= fit_a.op.threshold) == mat_b.y[test]
        for g, name in enumerate(IG_NAMES):
            mask = np.abs(align[test, g]) == 2
            counts[name].append(int(mask.sum()))
            if mask.any():
                gains[name].append(float(np.mean(hit_b[mask]))
                                   - float(np.mean(hit_a[mask])))

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


def compare_selectors(cases: list[PolicyCase], k: int = 14,
                      regimes: tuple[str, ...] = REGIMES,
                      n_splits: int = 21, base_seed: int = 0,
                      forest_config: ForestConfig = ForestConfig(),
                      n_jobs: int = 1) -> SelectorComparison:
    """Evaluate forest-chosen vs logistic-chosen k-IG subsets.

    Both subsets are chosen over runs 10,000 onward of a random-draw
    series: the k IGs of highest summed forest Gini importance, and of
    highest summed logistic |beta|. Both model kinds are then evaluated
    on both subsets (features: P90 plus the chosen IGs) under paired
    split seeds, every cell's runs in one map; gain rows are the mean of
    per-split differences, not the difference of means.
    """
    check_k("k", k)
    check_positive("n_splits", n_splits)
    for regime in regimes:
        _check_choice("regime", regime, REGIMES)
    matrix = encode(cases, _RANKING_SPEC)
    # Selection item j is run 10,000 + j. Both subsets' matrices keep
    # the rows of matrix (those with a P90), so one list of evaluation
    # runs per regime serves both.
    runs = _runs(matrix.y, base_seed, range(10_000, 10_000 + n_splits))
    row_cases = [cases[i] for i in matrix.case_indices]
    eval_runs = {regime: _runs(matrix.y, base_seed, range(n_splits),
                               fixed_split=retrodiction_split(row_cases)
                               if regime == "retrodiction" else None,
                               check_test=True)
                 for regime in regimes}
    acc = {kind: np.zeros(matrix.n_features) for kind in MODEL_KINDS}
    items = [(matrix, kind, run) for run in runs for kind in MODEL_KINDS]
    for (_, kind, _), fit in zip(items, map_chunks(
            partial(_fit_chunk, forest_config, False), items, n_jobs)):
        acc[kind] += fit.importance
    chosen = {"rf_gini": _top_k(matrix, acc["forest"], k),
              "logistic_beta": _top_k(matrix, acc["logistic"], k)}

    matrices = {sel: encode(cases, replace(_RANKING_SPEC, ig_subset=subset))
                for sel, subset in chosen.items()}
    results = {(kind, regime, sel): [] for kind in MODEL_KINDS
               for regime in regimes for sel in chosen}
    # A logistic model runs once on a fixed split: it is deterministic.
    cells = [(kind, regime, sel, j) for j in range(n_splits)
             for kind, regime, sel in results
             if j == 0 or kind == "forest" or regime == "random_draw"]
    fits = map_chunks(partial(_fit_chunk, forest_config, True),
                      [(matrices[sel], kind, eval_runs[regime][j])
                       for kind, regime, sel, j in cells], n_jobs)
    for (kind, regime, sel, j), fit in zip(cells, fits):
        results[kind, regime, sel].append(
            _run_result(matrices[sel], base_seed, j, fit))

    out: list[SelectorCell] = []
    gains: list[SelectorGain] = []
    for kind in MODEL_KINDS:
        for regime in regimes:
            pair = [results[kind, regime, sel] for sel in chosen]
            for sel, rs in zip(chosen, pair):
                out.append(SelectorCell(
                    kind, sel, regime,
                    *_mean_std(x.balanced_accuracy for x in rs),
                    *_mean_std(x.auc for x in rs)))
            gains.append(SelectorGain(
                kind, regime,
                *_mean_std(x.balanced_accuracy - y.balanced_accuracy
                           for x, y in zip(*pair)),
                *_mean_std(x.auc - y.auc for x, y in zip(*pair))))
    return SelectorComparison(rf_chosen=chosen["rf_gini"],
                              logistic_chosen=chosen["logistic_beta"],
                              cells=out, gains=gains, base_seed=base_seed)


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


def nonlinearity_case_study(cases: list[PolicyCase],
                            pivot_ig: str = "Defense Contractors",
                            domain: str = "Foreign", base_seed: int = 0,
                            forest_config: ForestConfig = ForestConfig(),
                            n_jobs: int = 1) -> CaseStudyReport:
    """Fit forest and logistic on (P90, pivot alignment) over domain cases
    where the pivot took a stance; report both balanced accuracies and the
    per-case point data behind the three-region picture.

    Protocol: one run whose train and test rows are both all the
    qualifying cases, its model seed mix_seed(base_seed, 1), with a
    forest and a logistic item; each model is scored in-sample at its own
    best operating point.
    """
    _check_choice("IG", pivot_ig, IG_NAMES)
    _check_choice("policy domain", domain, PD_LABELS)
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

    matrix = encode(sub, FeatureSetSpec("custom", True, False, (pivot_ig,),
                                        "none"))
    rows = np.arange(matrix.n_samples)
    run = rows, rows, mix_seed(base_seed, 1)
    f_fit, l_fit = map_chunks(partial(_fit_chunk, forest_config, True),
                              [(matrix, "forest", run),
                               (matrix, "logistic", run)], n_jobs)
    f_scores, l_scores = f_fit.test_scores, l_fit.test_scores
    f_pred = (f_scores >= f_fit.op.threshold).astype(int)
    l_pred = (l_scores >= l_fit.op.threshold).astype(int)
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
        forest_balanced_accuracy=f_fit.op.train_balanced_accuracy,
        logistic_balanced_accuracy=l_fit.op.train_balanced_accuracy,
        region_counts=region_counts)
