"""Tabular toolkit for predicting policy outcomes from wealthy-voter and
interest-group preferences: from-scratch random forests, logistic
regression, evaluation metrics, and a reproducible experiment harness.

The public names below load their module on first use (PEP 562), so that
a command imports only the modules it runs.
"""

import importlib

__version__ = "0.1.0"


class PolicyforestError(ValueError):
    """Base of every error raised for invalid input files, settings or
    data; each module raises its own subclass."""


_EXPORTS = {
    "dataset": ("IG_NAMES", "PA_LABELS", "PA_TO_PD", "PD_LABELS",
                "AlignmentTally", "DatasetError", "EncodedMatrix",
                "FeatureSetSpec", "PolicyCase", "SplitPlan", "domain_counts",
                "encode", "load_cases", "net_iga", "random_split",
                "rescale_p90", "retrodiction_split", "tally_alignments",
                "zero_noncommittal"),
    "forest": ("ForestConfig", "ForestError", "ForestModel", "Tree",
               "best_split", "fit_forest", "fit_forests", "fit_tree",
               "gini_impurity", "mix_seed"),
    "logistic": ("LogisticConfig", "LogisticError", "LogisticModel",
                 "sigmoid"),
    "metrics": ("ConfusionCounts", "MetricsError", "OperatingPoint",
                "RocCurve", "balanced_accuracy", "confusion_at_threshold",
                "roc_and_auc", "select_operating_point"),
    "experiments": ("EvalReport", "ExperimentError", "build_set_c",
                    "compare_selectors", "gain_per_ig",
                    "ig_outcome_correlation", "nonlinearity_case_study",
                    "rank_igs_by_domain", "run_feature_set_eval"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

__all__ = ["PolicyforestError", "__version__", *_MODULE_OF]


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
