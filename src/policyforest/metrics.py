"""Confusion-based metrics: balanced accuracy, operating point, ROC/AUC.

Decision rule throughout: predict positive iff score >= threshold.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import PolicyforestError


class MetricsError(PolicyforestError):
    """Raised for degenerate inputs (single-class or non-binary labels,
    non-finite scores, length mismatch)."""


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fp: int
    tn: int
    fn: int

    @property
    def sensitivity(self) -> float:
        if self.tp + self.fn == 0:
            raise MetricsError("sensitivity undefined: no positive labels")
        return self.tp / (self.tp + self.fn)

    @property
    def specificity(self) -> float:
        if self.tn + self.fp == 0:
            raise MetricsError("specificity undefined: no negative labels")
        return self.tn / (self.tn + self.fp)


@dataclass(frozen=True)
class OperatingPoint:
    threshold: float
    train_balanced_accuracy: float


def _check_pair(scores, labels) -> tuple[np.ndarray, np.ndarray]:
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise MetricsError(f"scores and labels must be equal-length vectors, "
                           f"got shapes {scores.shape} and {labels.shape}")
    if scores.size == 0:
        raise MetricsError("empty score vector")
    # Checked before the cast to int, which would truncate 0.7 to 0.
    if not np.all((labels == 0) | (labels == 1)):
        raise MetricsError("labels must be 0 or 1")
    bad = np.flatnonzero(~np.isfinite(scores))
    if bad.size:
        raise MetricsError(f"non-finite score {float(scores[bad[0]])} at "
                           f"index {bad[0]}")
    return scores, labels.astype(int, copy=False)


def confusion_at_threshold(scores, labels, threshold: float) -> ConfusionCounts:
    """Count prediction outcomes with the score >= threshold rule."""
    scores, labels = _check_pair(scores, labels)
    pred = scores >= threshold
    return ConfusionCounts(
        tp=int(np.sum(pred & (labels == 1))),
        fp=int(np.sum(pred & (labels == 0))),
        tn=int(np.sum(~pred & (labels == 0))),
        fn=int(np.sum(~pred & (labels == 1))),
    )


def balanced_accuracy(c: ConfusionCounts) -> float:
    """(sensitivity + specificity) / 2; chance baseline is 0.5."""
    return 0.5 * (c.sensitivity + c.specificity)


def _threshold_candidates(distinct: np.ndarray) -> np.ndarray:
    """Midpoints between consecutive distinct scores, plus sentinels below
    the minimum and above the maximum. Covers every achievable confusion
    table under the >= rule."""
    mids = 0.5 * (distinct[:-1] + distinct[1:])
    return np.concatenate(([distinct[0] - 1.0], mids, [distinct[-1] + 1.0]))


def _sweep(scores, labels, thresholds_of):
    """Returns (thresholds, tp, fp, n_pos, n_neg) from one ascending sort,
    with thresholds = thresholds_of(ascending distinct scores) and tp[i],
    fp[i] the positives and negatives scoring >= thresholds[i].

    Searching each threshold's own value counts a midpoint that rounds
    onto a neighbouring score exactly as the >= rule does.
    """
    scores, labels = _check_pair(scores, labels)
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise MetricsError(f"both classes must be present in the labels, "
                           f"got {n_pos} positive and {n_neg} negative")
    order = np.argsort(scores, kind="stable")
    s = scores[order]
    cum_pos = np.concatenate(([0], np.cumsum(labels[order])))
    thresholds = thresholds_of(s[np.concatenate(([True], s[1:] != s[:-1]))])
    below = np.searchsorted(s, thresholds, side="left")
    tp = n_pos - cum_pos[below]
    fp = (s.size - below) - tp
    return thresholds, tp, fp, n_pos, n_neg


def select_operating_point(train_scores, train_labels) -> OperatingPoint:
    """Threshold maximizing training balanced accuracy.

    Ties break toward the smallest qualifying threshold.
    """
    thresholds, tp, fp, n_pos, n_neg = _sweep(train_scores, train_labels,
                                              _threshold_candidates)
    ba = 0.5 * (tp / n_pos + (n_neg - fp) / n_neg)
    best = int(np.argmax(ba))
    return OperatingPoint(threshold=float(thresholds[best]),
                          train_balanced_accuracy=float(ba[best]))


def roc_and_auc(scores, labels) -> float:
    """Trapezoidal area under the ROC curve over distinct-score
    thresholds.

    Tied scores advance tpr and fpr jointly, so the area equals the
    Mann-Whitney statistic P(s_pos > s_neg) + 0.5 P(equal).
    """
    _, tp, fp, n_pos, n_neg = _sweep(scores, labels, lambda d: d[::-1])
    pts = np.column_stack((np.concatenate(([0], fp)) / n_neg,
                           np.concatenate(([0], tp)) / n_pos))
    return float(np.trapezoid(pts[:, 1], pts[:, 0]))
