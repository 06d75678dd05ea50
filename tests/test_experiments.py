from dataclasses import asdict, replace

import numpy as np
import pytest

from policyforest import experiments, forest
from policyforest.cli import main
from policyforest.dataset import (IG_NAMES, PD_LABELS, FeatureSetSpec,
                                  PolicyCase, dump_cases, encode,
                                  random_split)
from policyforest.experiments import (TRAIN_FRACTION, CaseStudyPoint,
                                      CaseStudyReport, ExperimentError,
                                      build_set_c,
                                      compare_selectors, gain_per_ig,
                                      nonlinearity_case_study,
                                      rank_igs_by_domain,
                                      run_feature_set_eval)
from policyforest.forest import ForestConfig, mix_seed
from conftest import loop_stance_correlation, make_cases

FAST_FOREST = ForestConfig(n_trees=15, min_samples_leaf=2)

NRA = "National Rifle Association"
DEFENSE = "Defense Contractors"


def _case(i, outcome, p90, alignments, pa="Guns", year=1990):
    from policyforest.dataset import PA_TO_PD
    return PolicyCase(f"s{i}", year, outcome, tuple(alignments), pa,
                      PA_TO_PD[pa], p90=p90)


def three_region_cases(n=300, seed=0, upper_left=0.7, right=0.95,
                       lower_left=0.05):
    """Synthetic geometry: pivot in favor -> nearly always adopted;
    pivot opposed -> adopted mostly when p90 favors."""
    rng = np.random.default_rng(seed)
    piv_idx = IG_NAMES.index(DEFENSE)
    cases = []
    for i in range(n):
        align = np.zeros(len(IG_NAMES), dtype=int)
        piv = int(rng.choice([-2, 2]))
        align[piv_idx] = piv
        p90 = float(rng.uniform())
        if piv > 0:
            y = int(rng.uniform() < right)
        else:
            y = int(rng.uniform() < (upper_left if p90 > 0.5
                                     else lower_left))
        cases.append(_case(i, y, p90, align, pa="Foreign Policy"))
    return cases


class TestRunFeatureSetEval:
    def test_separable_is_perfect(self):
        # outcome equals sign of the driver IG: any IG-bearing spec nails it
        align_idx = 0
        cases = []
        rng = np.random.default_rng(1)
        for i in range(120):
            align = np.zeros(len(IG_NAMES), dtype=int)
            y = int(rng.integers(0, 2))
            align[align_idx] = 2 if y else -2
            cases.append(_case(i, y, float(rng.uniform()), align))
        rep = run_feature_set_eval(cases, FeatureSetSpec.set_b(),
                                   "random_draw", n_runs=3,
                                   forest_config=FAST_FOREST)
        assert rep.balanced_accuracy_mean > 0.97
        assert rep.auc_mean > 0.99

    def test_shuffled_labels_near_chance(self):
        cases = make_cases(300, seed=5, signal=False)
        rep = run_feature_set_eval(cases, FeatureSetSpec.set_a(),
                                   "random_draw", n_runs=5,
                                   forest_config=FAST_FOREST)
        assert abs(rep.balanced_accuracy_mean - 0.5) < 0.08

    def test_retrodiction_single_run(self, cases_200):
        rep = run_feature_set_eval(cases_200, FeatureSetSpec.set_a(),
                                   "retrodiction",
                                   forest_config=FAST_FOREST)
        assert len(rep.runs) == 1

    def test_random_draw_run_count_and_distinct_seeds(self, cases_200):
        rep = run_feature_set_eval(cases_200, FeatureSetSpec.set_a(),
                                   "random_draw", n_runs=4,
                                   forest_config=FAST_FOREST)
        assert len(rep.runs) == 4
        assert len({r.seed for r in rep.runs}) == 4

    def test_bit_reproducible(self, cases_200):
        kw = dict(regime="random_draw", n_runs=3, base_seed=9,
                  forest_config=FAST_FOREST)
        a = run_feature_set_eval(cases_200, FeatureSetSpec.set_b(), **kw)
        b = run_feature_set_eval(cases_200, FeatureSetSpec.set_b(), **kw)
        assert asdict(a) == asdict(b)

    def test_aggregate_recomputable_from_runs(self, cases_200):
        rep = run_feature_set_eval(cases_200, FeatureSetSpec.set_a(),
                                   "random_draw", n_runs=5,
                                   forest_config=FAST_FOREST)
        bas = [r.balanced_accuracy for r in rep.runs]
        assert rep.balanced_accuracy_mean == pytest.approx(np.mean(bas))
        assert rep.balanced_accuracy_std == pytest.approx(
            np.std(bas, ddof=1))

    def test_logistic_model_kind(self, cases_200):
        rep = run_feature_set_eval(cases_200, FeatureSetSpec.set_a(),
                                   "random_draw", model_kind="logistic",
                                   n_runs=3)
        assert rep.model_kind == "logistic"
        assert 0.0 <= rep.balanced_accuracy_mean <= 1.0

    def test_unknown_regime(self, cases_200):
        with pytest.raises(ExperimentError):
            run_feature_set_eval(cases_200, FeatureSetSpec.set_a(), "bogus")

    @pytest.mark.parametrize("regime", ["random_draw", "retrodiction"])
    def test_missing_p90_dropped_and_counted(self, regime, monkeypatch):
        cases = make_cases(200, seed=7, missing_p90_every=4)
        kept = [i for i, c in enumerate(cases) if c.p90 is not None]
        seen = []
        fit_chunk = experiments._fit_chunk

        def spy(forest_config, score, n_jobs, items):
            items = list(items)
            for matrix, kind, (train, test, _) in items:
                assert kind == "forest"
                seen.append((matrix.case_indices[train],
                             matrix.case_indices[test]))
            return fit_chunk(forest_config, score, n_jobs, items)

        monkeypatch.setattr(experiments, "_fit_chunk", spy)
        rep = run_feature_set_eval(cases, FeatureSetSpec.set_a(), regime,
                                   n_runs=2, forest_config=FAST_FOREST)
        assert rep.n_dropped_missing_p90 == 50
        assert len(seen) == 2
        for train_idx, test_idx in seen:
            assert sorted([*train_idx, *test_idx]) == kept
            if regime == "retrodiction":
                assert all(cases[i].year < 1997 for i in train_idx)
                assert all(cases[i].year >= 1997 for i in test_idx)
        for run, (_, test_idx) in zip(rep.runs, seen):
            assert run.tp + run.fp + run.tn + run.fn == len(test_idx)

    def test_derived_spec_must_use_p90(self, cases_200):
        no_p90 = FeatureSetSpec("custom", False, False, IG_NAMES[:5], "pd")
        with pytest.raises(ExperimentError, match="does not use P90"):
            run_feature_set_eval(cases_200, lambda: no_p90, "random_draw",
                                 n_runs=2, forest_config=FAST_FOREST)

    def test_spec_without_p90_keeps_every_case(self):
        cases = make_cases(120, seed=7, missing_p90_every=4)
        spec = FeatureSetSpec("custom", False, False, IG_NAMES[:5], "pd")
        rep = run_feature_set_eval(cases, spec, "retrodiction",
                                   forest_config=FAST_FOREST)
        assert rep.n_dropped_missing_p90 == 0
        run = rep.runs[0]
        assert run.tp + run.fp + run.tn + run.fn == \
            sum(c.year >= 1997 for c in cases)


def rank_stances(cases):
    """{feature: (corr, at-bats)} over those of cases that have a P90, as
    rank computes them on a split's test rows."""
    m = encode(cases, experiments._RANKING_SPEC)
    corr, at_bats = experiments._stance_correlations(m.X, m.y,
                                                     m.column_names)
    return {name: (float(c), int(n))
            for name, c, n in zip(m.column_names, corr, at_bats)}


class TestIgOutcomeCorrelation:
    def test_single_strong_favor_adopted(self):
        align = np.zeros(len(IG_NAMES), dtype=int)
        align[IG_NAMES.index(NRA)] = 2
        assert rank_stances([_case(0, 1, 0.5, align)])[NRA] == (1.0, 1)

    def test_cancellation(self):
        align = np.zeros(len(IG_NAMES), dtype=int)
        align[IG_NAMES.index(NRA)] = 2
        cases = [_case(0, 1, 0.5, align), _case(1, 0, 0.5, align)]
        assert rank_stances(cases)[NRA] == (0.0, 2)

    def test_matches_loop_oracle(self):
        cases = make_cases(80, seed=3, missing_p90_every=9)
        with_p90 = [c for c in cases if c.p90 is not None]
        stances = rank_stances(cases)
        assert list(stances) == ["P90", *IG_NAMES]
        for feature, (corr, at_bats) in stances.items():
            expected, count = loop_stance_correlation(with_p90, feature)
            assert at_bats == count
            assert corr == pytest.approx(expected, abs=1e-12)

    def test_never_at_bat(self):
        align = np.zeros(len(IG_NAMES), dtype=int)
        assert rank_stances([_case(0, 1, 0.5, align)])[NRA] == (0.0, 0)


class TestRankSummaries:
    """rank's whole-array summaries equal their one-value-at-a-time
    definitions exactly."""

    def test_mean_std_is_numpys_bit_for_bit(self):
        rng = np.random.default_rng(10)
        for n in range(1, 41):
            v = rng.normal(size=n) * 10.0 ** rng.integers(-3, 4)
            std = float(np.std(v, ddof=1)) if n > 1 else 0.0
            assert experiments._mean_std(iter(v.tolist())) == \
                (float(np.mean(v)), std)

    def test_row_mean_std_equals_mean_std_per_row(self):
        rng = np.random.default_rng(8)
        for values in (rng.uniform(size=(44, 21)) ** 3,
                       rng.integers(0, 300, size=(44, 21)),
                       rng.normal(size=(5, 2)), rng.normal(size=(5, 1))):
            for row, stats in zip(values, experiments._row_mean_std(values)):
                assert stats == experiments._mean_std(row)

    def test_p90_stances_are_the_dataset_rescale(self):
        rng = np.random.default_rng(9)
        p90 = np.concatenate([[0.0, 0.35, 0.4, 0.5, 0.6, 0.65, 1.0],
                              rng.uniform(size=200)])
        # Every case adopted: corr is 0.5 / at-bats times the row-order
        # sum of the stances.
        corr, at_bats = experiments._stance_correlations(
            p90[:, None], np.ones(len(p90), dtype=int), ["P90"])
        # The stance scale is [-2, 2], its band [-0.4, 0.4] zeroed.
        stances = [0.0 if abs(4.0 * v - 2.0) <= 0.4 else 4.0 * v - 2.0
                   for v in p90]
        total = 0.0
        for v in stances:
            total += v
        assert at_bats[0] == np.count_nonzero(stances)
        assert corr[0] == 0.5 / at_bats[0] * (total - 0.0)


class TestRankIgsByDomain:
    def _planted_domain_cases(self, n=160, seed=2):
        rng = np.random.default_rng(seed)
        nra = IG_NAMES.index(NRA)
        cases = []
        for i in range(n):
            align = rng.choice([-1, 0, 0, 0, 1], size=len(IG_NAMES))
            y = int(rng.integers(0, 2))
            align[nra] = 2 if y else -2
            cases.append(_case(i, y, float(rng.uniform()), align))
        return cases

    def test_planted_ig_outranks_noise(self):
        rows = rank_igs_by_domain(self._planted_domain_cases(), ("Guns",),
                                  n_splits=5,
                                  forest_config=FAST_FOREST)["Guns"]
        assert rows[0].feature == NRA
        assert rows[0].at_bats_mean > 0

    def test_rows_sorted_by_score(self):
        rows = rank_igs_by_domain(self._planted_domain_cases(), ("Guns",),
                                  n_splits=3,
                                  forest_config=FAST_FOREST)["Guns"]
        scores = [r.rf_score_mean for r in rows]
        assert scores == sorted(scores, reverse=True)

    def test_degenerate_domain_error(self):
        align = np.zeros(len(IG_NAMES), dtype=int)
        cases = [_case(i, 1, 0.5, align) for i in range(10)]
        with pytest.raises(ExperimentError, match="Guns"):
            rank_igs_by_domain(cases, ("Guns",), n_splits=2)

    def test_unknown_domain(self):
        with pytest.raises(ExperimentError, match="Outer Space"):
            rank_igs_by_domain([], ("Outer Space",))

    def test_domain_rows_do_not_depend_on_other_domains(self, cases_200):
        alone = rank_igs_by_domain(cases_200, ("Guns",), n_splits=2,
                                   base_seed=3, forest_config=FAST_FOREST)
        every = rank_igs_by_domain(cases_200, n_splits=2, base_seed=3,
                                   forest_config=FAST_FOREST)
        assert list(every) == list(PD_LABELS)
        assert every["Guns"] == alone["Guns"]

    def test_each_split_drawn_once(self, cases_200, monkeypatch):
        """rank draws its splits once for its single-class check and its
        fits, and every other seeded series draws each split once."""
        calls = []

        def spy(*args):
            calls.append(args)
            return random_split(*args)

        monkeypatch.setattr(experiments, "random_split", spy)
        fc = ForestConfig(n_trees=2)
        for run, splits in [
                (lambda: rank_igs_by_domain(cases_200, forest_config=fc),
                 len(PD_LABELS) * 21),
                (lambda: gain_per_ig(cases_200, n_runs=25,
                                     forest_config=fc), 25),
                # 21 selection runs, then 21 random draws that both
                # subsets share.
                (lambda: compare_selectors(cases_200, n_splits=21,
                                           forest_config=fc), 42),
                (lambda: build_set_c(cases_200, n_splits=21,
                                     forest_config=fc), 21),
                (lambda: run_feature_set_eval(
                    cases_200, FeatureSetSpec.set_a(), "random_draw",
                    forest_config=fc), 25)]:
            calls.clear()
            run()
            assert len(calls) == splits

    def test_correlations_are_means_over_test_splits(self, cases_200):
        seed, n_splits = 5, 3
        rows = rank_igs_by_domain(cases_200, ("Misc",), n_splits=n_splits,
                                  base_seed=seed,
                                  forest_config=FAST_FOREST)["Misc"]
        sub = [c for c in cases_200
               if c.policy_domain == "Misc" and c.p90 is not None]
        m = encode(sub, experiments._RANKING_SPEC)
        per_split = [experiments._stance_correlations(
                         m.X[test], m.y[test], m.column_names)
                     for test in (random_split(len(sub), TRAIN_FRACTION,
                                               mix_seed(seed, j))[1]
                                  for j in range(n_splits))]
        for row in rows:
            f = m.column_names.index(row.feature)
            corrs = [corr[f] for corr, at_bats in per_split if at_bats[f]]
            assert row.at_bats_mean == np.mean([at_bats[f]
                                                for _, at_bats in per_split])
            assert row.correlation_mean == (np.mean(corrs) if corrs
                                            else None)


class TestBuildSetC:
    def test_full_subset_equals_set_b(self, cases_200):
        spec = build_set_c(cases_200, k=43, n_splits=2,
                           forest_config=FAST_FOREST)
        assert spec == FeatureSetSpec.set_b()
        kw = dict(regime="random_draw", n_runs=3, base_seed=4,
                  forest_config=FAST_FOREST)
        a = run_feature_set_eval(cases_200, spec, **kw)
        b = run_feature_set_eval(cases_200, FeatureSetSpec.set_b(), **kw)
        assert asdict(a) == asdict(b)

    def test_k_out_of_range(self, cases_200):
        with pytest.raises(ExperimentError):
            build_set_c(cases_200, k=44)

    def test_planted_recovery(self):
        rng = np.random.default_rng(6)
        plants = [0, 7, 20]
        cases = []
        for i in range(300):
            align = np.zeros(len(IG_NAMES), dtype=int)
            y = int(rng.integers(0, 2))
            for p in plants:
                align[p] = (2 if y else -2) if rng.uniform() < 0.9 \
                    else int(rng.choice([-1, 1]))
            noise = rng.choice(len(IG_NAMES), size=6, replace=False)
            for j in noise:
                if j not in plants:
                    align[j] = int(rng.choice([-2, -1, 1, 2]))
            cases.append(_case(i, y, float(rng.uniform()), align))
        spec = build_set_c(cases, k=3, n_splits=5,
                           forest_config=ForestConfig(n_trees=25))
        assert set(spec.ig_subset) == {IG_NAMES[p] for p in plants}
        assert spec.id == "custom"

    def test_k14_gets_c_id(self, cases_200):
        spec = build_set_c(cases_200, k=14, n_splits=2,
                           forest_config=FAST_FOREST)
        assert spec.id == "C"
        assert len(spec.ig_subset) == 14


class TestGainPerIg:
    def test_identical_specs_zero_gain(self, cases_200):
        spec = FeatureSetSpec.set_b()
        rep = gain_per_ig(cases_200, spec_b=spec, spec_a=spec, n_runs=2,
                          min_test_cases=1, forest_config=FAST_FOREST)
        assert rep.rows  # some IG qualifies
        assert all(r.gain_mean == 0.0 for r in rep.rows)

    def test_informative_spec_gains(self):
        # driver IG decides the outcome; spec_a sees only random p90
        rng = np.random.default_rng(9)
        driver = 3
        cases = []
        for i in range(240):
            align = np.zeros(len(IG_NAMES), dtype=int)
            y = int(rng.integers(0, 2))
            align[driver] = 2 if y else -2
            cases.append(_case(i, y, float(rng.uniform()), align))
        spec_a = FeatureSetSpec("custom", True, False, (), "none")
        spec_b = FeatureSetSpec("custom", True, False,
                                (IG_NAMES[driver],), "none")
        rep = gain_per_ig(cases, spec_b=spec_b, spec_a=spec_a, n_runs=3,
                          min_test_cases=10, forest_config=FAST_FOREST)
        by_name = {r.ig: r for r in rep.rows}
        assert by_name[IG_NAMES[driver]].gain_mean > 0.3

    def test_threshold_exclusion(self, cases_200):
        rep = gain_per_ig(cases_200, n_runs=2, min_test_cases=10 ** 6,
                          forest_config=FAST_FOREST)
        assert rep.rows == []
        assert set(rep.excluded) == set(IG_NAMES)


class TestCompareSelectors:
    def test_forced_tie_zero_gains(self):
        # only two IGs ever active: both selectors must choose them
        rng = np.random.default_rng(12)
        a_idx, b_idx = 5, 9
        cases = []
        for i in range(160):
            align = np.zeros(len(IG_NAMES), dtype=int)
            y = int(rng.integers(0, 2))
            align[a_idx] = 2 if y else -2
            align[b_idx] = int(rng.choice([-2, -1, 1, 2]))
            year = 1985 if i % 2 else 1999
            c = _case(i, y, float(rng.uniform()), align)
            cases.append(PolicyCase(c.case_id, year, c.outcome,
                                    c.ig_alignments, c.policy_area,
                                    c.policy_domain, p90=c.p90))
        comp = compare_selectors(cases, k=2, n_splits=3,
                                 forest_config=FAST_FOREST)
        assert set(comp.rf_chosen) == {IG_NAMES[a_idx], IG_NAMES[b_idx]}
        assert comp.rf_chosen == comp.logistic_chosen
        for g in comp.gains:
            assert g.balanced_accuracy_gain_mean == 0.0
            assert g.auc_gain_mean == 0.0

    def test_gain_is_mean_of_paired_differences(self, cases_200):
        comp = compare_selectors(cases_200, k=3, n_splits=3,
                                 regimes=("random_draw",),
                                 forest_config=FAST_FOREST)
        # with equal paired run counts, the gain mean equals the
        # difference of the cell means
        for g in comp.gains:
            cell = {(c.model_kind, c.selector): c for c in comp.cells
                    if c.regime == g.regime}
            diff = cell[(g.model_kind, "rf_gini")].balanced_accuracy_mean \
                - cell[(g.model_kind, "logistic_beta")].balanced_accuracy_mean
            assert g.balanced_accuracy_gain_mean == pytest.approx(diff,
                                                                  abs=1e-12)


class TestNonlinearityCaseStudy:
    def test_three_region_forest_advantage(self):
        cases = three_region_cases(seed=1)
        rep = nonlinearity_case_study(
            cases, forest_config=ForestConfig(n_trees=60), base_seed=1)
        gap = rep.forest_balanced_accuracy - rep.logistic_balanced_accuracy
        assert gap >= 0.10
        assert len(rep.points) == len(cases)
        assert rep.region_counts["pivot_favors"]["pos"] > \
            rep.region_counts["pivot_favors"]["neg"]

    @pytest.mark.parametrize("n_jobs", [1, 2])
    def test_in_sample_fits_at_the_model_seed(self, n_jobs, recording_pool,
                                              monkeypatch):
        """The report is that of a forest seeded mix_seed(seed, 1) and a
        logistic model, each fit on every qualifying case and scored
        there at the operating point its own scores choose."""
        from policyforest import logistic, metrics
        monkeypatch.setattr(experiments.rf, "_usable_cores", lambda: 8)
        cases = three_region_cases(n=120, seed=3)
        cfg, seed = ForestConfig(n_trees=20), 5
        matrix = encode(cases, FeatureSetSpec("custom", True, False,
                                              (DEFENSE,), "none"))
        fmodel = forest.fit_forest(matrix, cfg, mix_seed(seed, 1))
        lmodel = logistic.fit(matrix)
        scores = [forest.predict_proba(fmodel, matrix.X),
                  logistic.predict_proba(lmodel, matrix.X,
                                         matrix.column_names)]
        ops = [metrics.select_operating_point(s, matrix.y) for s in scores]
        (f_scores, f_pred), (l_scores, l_pred) = [
            (s, (s >= op.threshold).astype(int))
            for s, op in zip(scores, ops)]

        rep = nonlinearity_case_study(cases, base_seed=seed,
                                      forest_config=cfg, n_jobs=n_jobs)
        expected = CaseStudyReport(
            domain="Foreign", pivot_ig=DEFENSE,
            points=[CaseStudyPoint(c.case_id, c.p90, c.alignment(DEFENSE),
                                   c.outcome, float(f_scores[i]),
                                   int(f_pred[i]), float(l_scores[i]),
                                   int(l_pred[i]))
                    for i, c in enumerate(cases)],
            forest_balanced_accuracy=ops[0].train_balanced_accuracy,
            logistic_balanced_accuracy=ops[1].train_balanced_accuracy,
            # The regions are counted from the cases, not the fits.
            region_counts=rep.region_counts)
        assert asdict(rep) == asdict(expected)
        assert recording_pool == ([(2, 1)] if n_jobs == 2 else [])

    def test_each_model_scores_the_rows_once(self, monkeypatch):
        """The run tests on its train rows, so each model scores them in
        one predict_proba call."""
        from policyforest import logistic
        calls = []
        for module in (forest, logistic):
            def spy(*args, predict=module.predict_proba,
                    name=module.__name__, **kwargs):
                calls.append(name)
                return predict(*args, **kwargs)
            monkeypatch.setattr(module, "predict_proba", spy)
        nonlinearity_case_study(three_region_cases(n=60, seed=4),
                                forest_config=ForestConfig(n_trees=5))
        assert sorted(calls) == ["policyforest.forest",
                                 "policyforest.logistic"]

    def test_constant_pivot_error(self):
        align = np.zeros(len(IG_NAMES), dtype=int)
        cases = [_case(i, i % 2, 0.5, align, pa="Foreign Policy")
                 for i in range(10)]
        with pytest.raises(ExperimentError, match="non-neutral"):
            nonlinearity_case_study(cases)

    def test_unknown_pivot(self):
        with pytest.raises(ExperimentError):
            nonlinearity_case_study([], pivot_ig="Nobody")

    def test_unknown_domain(self, cases_200):
        with pytest.raises(ExperimentError,
                           match="unknown policy domain 'Nope'"):
            nonlinearity_case_study(cases_200, domain="Nope")


class TestWorkerFanOut:
    """The outermost loop with more than one item gets the workers, one
    chunk each, and nothing inside a worker asks for a pool of its own."""

    @pytest.fixture(autouse=True)
    def eight_cores(self, monkeypatch):
        monkeypatch.setattr(experiments.rf, "_usable_cores", lambda: 8)

    def test_runs_fan_out_not_trees(self, cases_200, recording_pool):
        run_feature_set_eval(cases_200, FeatureSetSpec.set_a(),
                             "random_draw", n_runs=3,
                             forest_config=FAST_FOREST, n_jobs=2)
        gain_per_ig(cases_200, n_runs=3, forest_config=FAST_FOREST,
                    n_jobs=2)
        rank_igs_by_domain(cases_200, ("Economic",), n_splits=3,
                           forest_config=FAST_FOREST, n_jobs=2)
        # Three runs on two workers: chunks of two runs and one run.
        assert recording_pool == [(2, 1)] * 3

    @pytest.mark.parametrize("n_runs", [3, 4])
    def test_gains_chunks_fit_each_matrix_once(self, n_runs, cases_200,
                                               recording_pool, monkeypatch):
        """Each of the two chunks grows its Set B forests in one
        fit_forests call and its Set A forests in another, however the
        chunk interleaves their runs."""
        fitted = []
        fit_forests = forest.fit_forests

        def spy(matrix, *args):
            fitted.append(matrix.column_names)
            return fit_forests(matrix, *args)

        monkeypatch.setattr(forest, "fit_forests", spy)
        gain_per_ig(cases_200, n_runs=n_runs, forest_config=FAST_FOREST,
                    n_jobs=2)
        assert recording_pool == [(2, 1)]
        b, a = (encode(cases_200, spec).column_names
                for spec in (FeatureSetSpec.set_b(), FeatureSetSpec.set_a()))
        assert sorted(fitted[:2]) == sorted(fitted[2:]) == sorted([b, a])

    def test_all_domains_share_one_pool(self, cases_200, recording_pool):
        rank_igs_by_domain(cases_200, n_splits=2, forest_config=FAST_FOREST,
                           n_jobs=2)
        # Six domains' twelve runs on two workers, one chunk each.
        assert recording_pool == [(2, 1)]

    def test_single_run_fans_out_trees(self, cases_200, recording_pool):
        run_feature_set_eval(cases_200, FeatureSetSpec.set_a(),
                             "retrodiction", forest_config=FAST_FOREST,
                             n_jobs=2)
        # The single forest's 15 trees go out as two chunks.
        assert recording_pool == [(2, 1)]

    # Pools per command: two where a selection precedes the evaluation
    # runs that use it, else one.
    POOLS = {
        "eval_set_c": (["eval", "--set", "C", "--selection-splits", "2",
                        "--runs", "2"], 2),
        "eval_logistic": (["eval", "--model", "logistic", "--runs", "2"], 1),
        "rank": (["rank", "--runs", "2"], 1),
        "set_c": (["set-c", "--k", "3", "--runs", "2"], 1),
        "gains": (["gains", "--runs", "2", "--min-test-cases", "1"], 1),
        "compare_selectors": (["compare-selectors", "--k", "3",
                               "--runs", "2"], 2),
        "case_study": (["case-study", "--pivot", "AARP"], 1),
    }

    @pytest.mark.parametrize("name", sorted(POOLS))
    def test_pools_per_command(self, name, cases_200, recording_pool,
                               tmp_path):
        argv, pools = self.POOLS[name]
        data = tmp_path / "cases.csv"
        data.write_text(dump_cases(cases_200))
        assert main(argv + ["--data", str(data), "--trees", "4",
                            "--jobs", "2"]) == 0
        assert recording_pool == [(2, 1)] * pools


class TestRunCounts:
    CALLS = {
        "eval": (lambda cases, n: run_feature_set_eval(
            cases, FeatureSetSpec.set_a(), "random_draw", n_runs=n,
            forest_config=FAST_FOREST), "n_runs"),
        "rank": (lambda cases, n: rank_igs_by_domain(
            cases, ("Economic",), n_splits=n, forest_config=FAST_FOREST),
            "n_splits"),
        "set_c": (lambda cases, n: build_set_c(
            cases, k=3, n_splits=n, forest_config=FAST_FOREST), "n_splits"),
        "gains": (lambda cases, n: gain_per_ig(
            cases, n_runs=n, forest_config=FAST_FOREST), "n_runs"),
        "selectors": (lambda cases, n: compare_selectors(
            cases, k=3, n_splits=n, forest_config=FAST_FOREST), "n_splits"),
    }

    @pytest.mark.parametrize("n", [0, -2])
    @pytest.mark.parametrize("call", sorted(CALLS))
    def test_below_one_rejected(self, call, n, cases_200):
        fn, name = self.CALLS[call]
        with pytest.raises(ExperimentError, match=f"{name} must be >= 1, "
                                                  f"got {n}"):
            fn(cases_200, n)


class TestOneCoreHost:
    """On one core, n_jobs > 1 runs exactly as n_jobs = 1: no pool, and
    forests read as lazily."""

    @pytest.fixture(autouse=True)
    def one_core(self, monkeypatch):
        monkeypatch.setattr(experiments.rf, "_usable_cores", lambda: 1)

    @staticmethod
    def _forests_read_before_first_model(matrix, n_jobs):
        read = []

        def forests():
            for f in range(6):
                read.append(f)
                rows = np.arange(f, matrix.n_samples)
                yield rows, f

        next(forest.fit_forests(matrix, ForestConfig(n_trees=20), forests(),
                                n_jobs))
        return len(read)

    def test_no_pool_and_lazy_forests(self, cases_200, recording_pool,
                                      monkeypatch):
        # About 16 of these trees in flight (some 126 distinct rows each),
        # fewer than the 6 forests' 120.
        monkeypatch.setattr(forest, "ROWS_IN_FLIGHT", 2000)
        matrix = encode(cases_200, FeatureSetSpec.set_a())
        serial = self._forests_read_before_first_model(matrix, 1)
        assert serial < 6
        assert self._forests_read_before_first_model(matrix, 2) == serial
        run_feature_set_eval(cases_200, FeatureSetSpec.set_a(),
                             "random_draw", n_runs=3,
                             forest_config=FAST_FOREST, n_jobs=2)
        assert recording_pool == []


class TestEntryChecks:
    """Bad settings are rejected when the experiment is called, before
    any model is fit or any worker pool starts."""

    @pytest.mark.parametrize("k", [0, -1, 44])
    @pytest.mark.parametrize("fn", [build_set_c, compare_selectors])
    def test_k_outside_ig_range(self, fn, k, cases_200):
        with pytest.raises(ExperimentError,
                           match=rf"k must be in \[1, 43\], got {k}"):
            fn(cases_200, k=k, n_splits=2, forest_config=FAST_FOREST)

    @pytest.mark.parametrize("n", [0, -1])
    def test_min_test_cases_below_one(self, n, cases_200):
        with pytest.raises(ExperimentError,
                           match=f"min_test_cases must be >= 1, got {n}"):
            gain_per_ig(cases_200, n_runs=2, min_test_cases=n,
                        forest_config=FAST_FOREST)

    @pytest.mark.parametrize("settings, message", [
        ({"train_fraction": 0.5}, "train_fraction applies to random_draw"),
        ({"train_fraction": 0.67}, "train_fraction applies to random_draw"),
        ({"model_kind": "logistic", "n_runs": 2},
         "n_runs must be 1 for a logistic model under retrodiction")],
        ids=["fraction", "default-fraction", "logistic-runs"])
    def test_retrodiction_settings(self, settings, message, cases_200):
        with pytest.raises(ExperimentError, match=message):
            run_feature_set_eval(cases_200, FeatureSetSpec.set_a(),
                                 "retrodiction", forest_config=FAST_FOREST,
                                 **settings)

    @pytest.mark.parametrize("fraction", [1.5, 0.0, float("nan")])
    def test_train_fraction_outside_unit_interval_starts_no_pool(
            self, fraction, cases_200, recording_pool, monkeypatch):
        monkeypatch.setattr(experiments.rf, "_usable_cores", lambda: 8)
        with pytest.raises(ExperimentError,
                           match=r"train_fraction must be in \(0, 1\)"):
            run_feature_set_eval(cases_200, FeatureSetSpec.set_a(),
                                 "random_draw", n_runs=3,
                                 train_fraction=fraction,
                                 forest_config=FAST_FOREST, n_jobs=2)
        assert recording_pool == []

    def test_unknown_model_kind_starts_no_pool(self, cases_200,
                                               recording_pool, monkeypatch):
        monkeypatch.setattr(experiments.rf, "_usable_cores", lambda: 8)
        with pytest.raises(ExperimentError, match="unknown model kind"):
            run_feature_set_eval(cases_200, FeatureSetSpec.set_a(),
                                 "random_draw", model_kind="tree", n_runs=3,
                                 forest_config=FAST_FOREST, n_jobs=2)
        assert recording_pool == []

    @pytest.mark.parametrize("run, settings", [
        (gain_per_ig, {"n_runs": 2}),
        (build_set_c, {"n_splits": 2}),
        (compare_selectors, {"k": 3, "n_splits": 2})],
        ids=["gains", "set-c", "compare-selectors"])
    def test_single_class_training_run_starts_no_pool(
            self, run, settings, cases_200, recording_pool, monkeypatch):
        monkeypatch.setattr(experiments.rf, "_usable_cores", lambda: 8)
        cases = [replace(c, outcome=1) for c in cases_200]
        with pytest.raises(ExperimentError, match=r"run 1 of 2: the \d+ "
                           r"training cases have a single class"):
            run(cases, forest_config=FAST_FOREST, n_jobs=2, **settings)
        assert recording_pool == []

    @pytest.mark.parametrize("run", [
        lambda cases: run_feature_set_eval(
            cases, FeatureSetSpec.set_a(), "retrodiction", n_runs=2,
            forest_config=FAST_FOREST, n_jobs=2),
        lambda cases: compare_selectors(
            cases, k=3, regimes=("retrodiction",), n_splits=2,
            forest_config=FAST_FOREST, n_jobs=2)],
        ids=["eval", "compare-selectors"])
    def test_single_class_test_run_starts_no_pool(
            self, run, cases_200, recording_pool, monkeypatch):
        # Every case from the cutoff year on is adopted: the retrodiction
        # test rows, which the AUC needs with both classes, have one.
        monkeypatch.setattr(experiments.rf, "_usable_cores", lambda: 8)
        cases = [replace(c, outcome=1) if c.year >= 1997 else c
                 for c in cases_200]
        with pytest.raises(ExperimentError, match=r"run 1 of 2: the \d+ "
                           r"test cases have a single class"):
            run(cases)
        assert recording_pool == []

    def test_unknown_regime_starts_no_pool(self, cases_200, recording_pool,
                                           monkeypatch):
        monkeypatch.setattr(experiments.rf, "_usable_cores", lambda: 8)
        with pytest.raises(ExperimentError, match="unknown regime 'retro'"):
            compare_selectors(cases_200, k=3,
                              regimes=("random_draw", "retro"), n_splits=3,
                              forest_config=FAST_FOREST, n_jobs=2)
        assert recording_pool == []
