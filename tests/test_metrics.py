import numpy as np
import pytest

from policyforest.metrics import (ConfusionCounts, MetricsError,
                                  balanced_accuracy, confusion_at_threshold,
                                  roc_and_auc, select_operating_point)


def reference_operating_point(scores, labels):
    """One confusion table per candidate threshold (midpoints between
    distinct scores plus the -1/+1 sentinels); the first maximum wins."""
    scores = np.asarray(scores, dtype=float)
    distinct = np.unique(scores)
    mids = 0.5 * (distinct[:-1] + distinct[1:])
    best_t, best_ba = None, -1.0
    for t in np.concatenate(([distinct[0] - 1.0], mids,
                             [distinct[-1] + 1.0])):
        ba = balanced_accuracy(confusion_at_threshold(scores, labels, t))
        if ba > best_ba:
            best_t, best_ba = float(t), ba
    return best_t, best_ba


def reference_roc_and_auc(scores, labels):
    """The trapezoidal area under the ROC points found by walking the
    descending scores one tie group at a time."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=int)
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    order = np.argsort(-scores, kind="stable")
    s, l = scores[order], labels[order]
    points = [(0.0, 0.0)]
    tp = fp = 0
    i = 0
    while i < s.size:
        j = i
        while j < s.size and s[j] == s[i]:
            tp += int(l[j] == 1)
            fp += int(l[j] == 0)
            j += 1
        points.append((fp / n_neg, tp / n_pos))
        i = j
    pts = np.asarray(points)
    return float(np.trapezoid(pts[:, 1], pts[:, 0]))


def sweep_inputs(n_cases=60, seed=3):
    """Score vectors with ties, adjacent doubles and extreme magnitudes,
    each with labels holding both classes."""
    rng = np.random.default_rng(seed)
    for k in range(n_cases):
        n = int(rng.integers(2, 30))
        kind = k % 6
        if kind == 0:
            scores = np.round(rng.uniform(size=n), 2)
        elif kind == 1:  # heavy ties
            scores = rng.choice([0.0, 0.25, 0.5, 1.0], size=n)
        elif kind == 2:  # adjacent doubles: midpoints round onto a score
            a = rng.uniform()
            b = np.nextafter(a, 2.0)
            scores = rng.choice([a, b, np.nextafter(b, 2.0)], size=n)
        elif kind == 3:  # sentinels +-1.0 vanish at this scale
            scores = rng.choice([-3e20, -1e20, 0.0, 1e20, 2e20], size=n)
        elif kind == 4:
            scores = np.round(rng.normal(size=n), 1)
        else:
            scores = rng.uniform(size=n)
        labels = rng.integers(0, 2, size=n)
        if labels.sum() in (0, n):
            labels[0] = 1 - labels[0]
        yield scores, labels


def midpoints_separate(scores):
    """True when every midpoint lies strictly between its neighbours."""
    distinct = np.unique(scores)
    mids = 0.5 * (distinct[:-1] + distinct[1:])
    return bool(np.all((distinct[:-1] < mids) & (mids < distinct[1:])))


def pairwise_auc(scores, labels):
    """Mann-Whitney statistic: P(s_pos > s_neg) + 0.5 P(equal)."""
    pos = [s for s, l in zip(scores, labels) if l == 1]
    neg = [s for s, l in zip(scores, labels) if l == 0]
    total = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                total += 1.0
            elif p == n:
                total += 0.5
    return total / (len(pos) * len(neg))


def sweep_operating_point(scores, labels):
    """Exhaustive max balanced accuracy over all n+1 threshold classes."""
    scores = np.asarray(scores)
    best = -1.0
    for t in np.concatenate((np.unique(scores), [scores.max() + 1])):
        ba = balanced_accuracy(confusion_at_threshold(scores, labels, t))
        best = max(best, ba)
    return best


class TestConfusion:
    def test_basic(self):
        c = confusion_at_threshold([0.9, 0.1], [1, 0], 0.5)
        assert (c.tp, c.fp, c.tn, c.fn) == (1, 0, 1, 0)

    def test_threshold_at_floor_predicts_all_positive(self):
        c = confusion_at_threshold([0.3, 0.6, 0.9], [0, 1, 1], 0.0)
        assert c.tn == 0 and c.fn == 0
        assert c.tp == 2 and c.fp == 1

    def test_boundary_is_positive(self):
        c = confusion_at_threshold([0.5], [1], 0.5)
        assert c.tp == 1

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            n = int(rng.integers(1, 40))
            scores = rng.uniform(size=n)
            labels = rng.integers(0, 2, size=n)
            t = float(rng.uniform())
            c = confusion_at_threshold(scores, labels, t)
            tp = fp = tn = fn = 0
            for s, l in zip(scores, labels):
                if s >= t:
                    tp, fp = tp + (l == 1), fp + (l == 0)
                else:
                    tn, fn = tn + (l == 0), fn + (l == 1)
            assert (c.tp, c.fp, c.tn, c.fn) == (tp, fp, tn, fn)

    def test_length_mismatch(self):
        with pytest.raises(MetricsError):
            confusion_at_threshold([0.1, 0.2], [1], 0.5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("fn", [
        lambda s, l: confusion_at_threshold(s, l, 0.5),
        select_operating_point, roc_and_auc])
    def test_non_finite_score_rejected(self, fn, bad):
        scores = [0.1, 0.9, bad, 0.4, bad]
        with pytest.raises(MetricsError, match="at index 2"):
            fn(scores, [0, 1, 1, 0, 1])

    def test_non_binary_labels_rejected(self):
        # 0.7 and 1.9 would pass if cast to int before the check.
        for labels in ([0, 1, 2], [0, 0.7, 1], [1.9, 0, 1]):
            for fn in (lambda s, l: confusion_at_threshold(s, l, 0.5),
                       select_operating_point, roc_and_auc):
                with pytest.raises(MetricsError, match="0 or 1"):
                    fn([0.1, 0.5, 0.9], labels)


class TestBalancedAccuracy:
    def test_perfect(self):
        assert balanced_accuracy(ConfusionCounts(5, 0, 5, 0)) == 1.0

    def test_all_positive_predictor_is_chance(self):
        c = confusion_at_threshold([0.9, 0.9, 0.9], [1, 0, 0], 0.5)
        assert balanced_accuracy(c) == 0.5

    def test_hand_value(self):
        # sensitivity 0.8, specificity 0.6
        assert balanced_accuracy(ConfusionCounts(8, 4, 6, 2)) == \
            pytest.approx(0.7, abs=1e-15)

    def test_class_absent_error(self):
        with pytest.raises(MetricsError):
            balanced_accuracy(ConfusionCounts(3, 0, 0, 0))

    def test_label_swap_symmetry(self):
        rng = np.random.default_rng(8)
        scores = rng.uniform(size=30)
        labels = rng.integers(0, 2, size=30)
        if labels.sum() in (0, 30):
            labels[0] = 1 - labels[0]
        t = 0.5
        c = confusion_at_threshold(scores, labels, t)
        # swap label convention and complement predictions
        c_swapped = confusion_at_threshold(-scores, 1 - labels, -t)
        # -s >= -t differs from s < t at exact equality; avoid ties
        assert not np.any(scores == t)
        assert balanced_accuracy(c) == pytest.approx(
            balanced_accuracy(ConfusionCounts(
                tp=c_swapped.tp, fp=c_swapped.fp,
                tn=c_swapped.tn, fn=c_swapped.fn)), abs=1e-12)


class TestOperatingPoint:
    def test_separable(self):
        op = select_operating_point([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1])
        assert op.train_balanced_accuracy == 1.0
        assert 0.2 < op.threshold < 0.8
        assert op.threshold == 0.5

    def test_degenerate_equal_scores(self):
        op = select_operating_point([0.4, 0.4, 0.4], [1, 0, 1])
        assert op.train_balanced_accuracy == 0.5

    def test_single_class_error(self):
        with pytest.raises(MetricsError):
            select_operating_point([0.1, 0.9], [1, 1])

    def test_matches_sweep_oracle(self):
        n_separate = 0
        for scores, labels in sweep_inputs():
            op = select_operating_point(scores, labels)
            assert (op.threshold, op.train_balanced_accuracy) == \
                reference_operating_point(scores, labels)
            assert roc_and_auc(scores, labels) == \
                reference_roc_and_auc(scores, labels)
            # Where a midpoint rounds onto a score, the candidates miss a
            # table the exhaustive sweep reaches; compare only elsewhere.
            if midpoints_separate(scores):
                n_separate += 1
                assert op.train_balanced_accuracy == \
                    sweep_operating_point(scores, labels)
        assert n_separate >= 40

    def test_tie_breaks_to_smallest_threshold(self):
        # two thresholds achieve balAcc 1.0 is impossible; use flat case
        scores = [0.2, 0.2, 0.8, 0.8]
        labels = [0, 0, 1, 1]
        op = select_operating_point(scores, labels)
        assert op.threshold == 0.5


class TestRocAuc:
    def test_perfect_ranking(self):
        auc = roc_and_auc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1])
        assert auc == 1.0

    def test_chance_level(self):
        rng = np.random.default_rng(4)
        scores = rng.uniform(size=4000)
        labels = rng.integers(0, 2, size=4000)
        auc = roc_and_auc(scores, labels)
        assert auc == pytest.approx(0.5, abs=0.05)

    def test_matches_pairwise_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(60):
            n = int(rng.integers(2, 13))
            scores = np.round(rng.uniform(size=n), 1)  # force ties
            labels = rng.integers(0, 2, size=n)
            if labels.sum() in (0, n):
                labels[0] = 1 - labels[0]
            auc = roc_and_auc(scores, labels)
            assert auc == pytest.approx(pairwise_auc(scores, labels),
                                        abs=1e-12)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(6)
        scores = rng.uniform(size=50)
        labels = rng.integers(0, 2, size=50)
        labels[0], labels[1] = 0, 1
        auc1 = roc_and_auc(scores, labels)
        auc2 = roc_and_auc(np.exp(3 * scores), labels)
        assert auc1 == pytest.approx(auc2, abs=1e-12)

    def test_single_class_error(self):
        with pytest.raises(MetricsError):
            roc_and_auc([0.1, 0.9], [0, 0])
