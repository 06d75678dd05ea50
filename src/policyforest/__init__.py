"""Tabular toolkit for predicting policy outcomes from wealthy-voter and
interest-group preferences: from-scratch random forests, logistic
regression, evaluation metrics, and a reproducible experiment harness."""

__version__ = "0.1.0"

from .dataset import (IG_NAMES, PA_LABELS, PA_TO_PD, PD_LABELS,
                      AlignmentTally, DatasetError, EncodedMatrix,
                      FeatureSetSpec, PolicyCase, SplitPlan, domain_counts,
                      encode, load_cases, net_iga, random_split, rescale_p90,
                      retrodiction_split, tally_alignments, zero_noncommittal)
from .forest import (ForestConfig, ForestError, ForestModel, Tree,
                     best_split, fit_forest, fit_forests, fit_tree,
                     gini_impurity, mix_seed)
from .logistic import LogisticConfig, LogisticError, LogisticModel, sigmoid
from .metrics import (ConfusionCounts, MetricsError, OperatingPoint, RocCurve,
                      balanced_accuracy, confusion_at_threshold, roc_and_auc,
                      select_operating_point)
from .experiments import (EvalReport, ExperimentError, build_set_c,
                          compare_selectors, gain_per_ig,
                          ig_outcome_correlation, nonlinearity_case_study,
                          rank_igs_by_domain, run_feature_set_eval)
