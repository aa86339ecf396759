import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pretermalc.metrics import auc, interp_pr, pr_auc, pr_points, roc_points
from pretermalc.records import Label

P, F = Label.PRETERM, Label.FULL_TERM


def pair_enumeration_auc(scores, labels):
    """O(n^2) oracle: fraction of positive/negative pairs ranked correctly,
    ties counting one half."""
    pos = [s for s, y in zip(scores, labels) if y is P]
    neg = [s for s, y in zip(scores, labels) if y is F]
    total = 0.0
    for sp in pos:
        for sn in neg:
            if sp > sn:
                total += 1.0
            elif sp == sn:
                total += 0.5
    return total / (len(pos) * len(neg))


def threshold_enumeration_pr_auc(scores, labels):
    """Oracle: walk distinct thresholds descending, recomputing tp and
    predicted-positive counts from scratch at each one."""
    scores = list(scores)
    n_pos = sum(1 for y in labels if y is P)
    thresholds = sorted(set(scores), reverse=True)
    ap = 0.0
    prev_recall = 0.0
    for t in thresholds:
        tp = sum(1 for s, y in zip(scores, labels) if s >= t and y is P)
        predicted = sum(1 for s in scores if s >= t)
        recall = tp / n_pos
        if recall > prev_recall:
            ap += (tp / predicted) * (recall - prev_recall)
            prev_recall = recall
    return ap


def threshold_enumeration_curves(scores, labels):
    """Oracle: ROC and PR vertices recounted from scratch at each distinct
    threshold, descending."""
    n_pos = sum(1 for y in labels if y is P)
    n_neg = len(labels) - n_pos
    fpr, tpr, recall, precision = [0.0], [0.0], [], []
    for t in sorted(set(scores), reverse=True):
        tp = sum(1 for s, y in zip(scores, labels) if s >= t and y is P)
        predicted = sum(1 for s in scores if s >= t)
        fpr.append((predicted - tp) / n_neg)
        tpr.append(tp / n_pos)
        recall.append(tp / n_pos)
        precision.append(tp / predicted)
    return fpr, tpr, recall, precision


def scanned_interp_pr(recall, precision, grid):
    """Reference: for each grid point, scan for the best precision at any
    recall at or above it."""
    return [max((p for rec, p in zip(recall, precision) if rec >= r), default=precision[-1]) for r in grid]


def random_instance(rng, n_max=200, tie_heavy=False):
    n = int(rng.integers(2, n_max + 1))
    labels = [Label(int(v)) for v in rng.integers(0, 2, size=n)]
    if P not in labels:
        labels[0] = P
    if F not in labels:
        labels[-1] = F
    if tie_heavy:
        scores = rng.integers(0, 5, size=n).astype(float) / 4.0
    else:
        scores = rng.random(n)
    return scores, labels


# --- worked examples -------------------------------------------------------------


def test_auc_perfect_separation():
    assert auc([0.9, 0.8, 0.2, 0.1], [P, P, F, F]) == 1.0


def test_auc_all_ties():
    assert auc([0.5, 0.5, 0.5, 0.5], [P, F, P, F]) == 0.5


def test_auc_hand_worked():
    scores = [0.9, 0.4, 0.6, 0.2]
    labels = [P, F, F, P]
    assert auc(scores, labels) == 0.5
    assert auc(scores, labels) == pair_enumeration_auc(scores, labels)


def test_pr_auc_perfect_separation():
    assert pr_auc([0.9, 0.8, 0.2, 0.1], [P, P, F, F]) == 1.0


def test_pr_auc_all_positive_scores_random():
    rng = np.random.default_rng(0)
    scores = rng.random(20)
    assert pr_auc(scores, [P] * 20) == 1.0


def test_pr_auc_hand_worked():
    # precision 1 at recall 1/2, then 2/3 at recall 1
    assert pr_auc([0.8, 0.6, 0.4], [P, F, P]) == pytest.approx(5.0 / 6.0, abs=1e-15)


def test_single_class_rejected():
    with pytest.raises(ValueError, match="single class"):
        auc([0.1, 0.2], [P, P])
    with pytest.raises(ValueError, match="positive"):
        pr_auc([0.1, 0.2], [F, F])


def test_empty_and_nonfinite_rejected():
    with pytest.raises(ValueError, match="no examples"):
        auc([], [])
    with pytest.raises(ValueError, match="non-finite"):
        auc([0.5, float("nan")], [P, F])


# --- oracle equivalence ------------------------------------------------------------


def test_auc_matches_pair_enumeration_100_instances():
    rng = np.random.default_rng(42)
    for k in range(100):
        scores, labels = random_instance(rng, tie_heavy=(k % 3 == 0))
        assert auc(scores, labels) == pytest.approx(
            pair_enumeration_auc(scores, labels), abs=1e-12
        )


def test_pr_auc_matches_threshold_enumeration_100_instances():
    rng = np.random.default_rng(43)
    for k in range(100):
        scores, labels = random_instance(rng, tie_heavy=(k % 3 == 0))
        assert pr_auc(scores, labels) == pytest.approx(
            threshold_enumeration_pr_auc(scores, labels), abs=1e-12
        )


@settings(max_examples=60)
@given(st.integers(0, 2**32 - 1))
def test_auc_monotone_transform_invariant(seed):
    rng = np.random.default_rng(seed)
    scores, labels = random_instance(rng, n_max=60)
    base = auc(scores, labels)
    for transform in (
        lambda s: 3.0 * s + 1.0,
        np.exp,
        lambda s: np.arctan(s) * 2.0,
        lambda s: s**3 + s,
    ):
        assert auc(transform(np.asarray(scores)), labels) == pytest.approx(base, abs=1e-12)


# --- curve helpers ----------------------------------------------------------------


def test_roc_points_endpoints_and_monotonicity():
    rng = np.random.default_rng(7)
    scores, labels = random_instance(rng, n_max=50, tie_heavy=True)
    fpr, tpr = roc_points(scores, labels)
    assert fpr[0] == 0.0 and tpr[0] == 0.0
    assert fpr[-1] == 1.0 and tpr[-1] == 1.0
    assert np.all(np.diff(fpr) >= 0) and np.all(np.diff(tpr) >= 0)


def test_roc_trapezoid_area_matches_auc():
    rng = np.random.default_rng(9)
    for _ in range(20):
        scores, labels = random_instance(rng, n_max=80, tie_heavy=True)
        fpr, tpr = roc_points(scores, labels)
        assert np.trapezoid(tpr, fpr) == pytest.approx(auc(scores, labels), abs=1e-12)


def test_pr_points_recall_ascending():
    rng = np.random.default_rng(11)
    scores, labels = random_instance(rng, n_max=50)
    recall, precision = pr_points(scores, labels)
    assert np.all(np.diff(recall) >= 0)
    assert recall[-1] == 1.0
    assert np.all((precision >= 0) & (precision <= 1))


def test_curves_match_threshold_enumeration_100_instances():
    rng = np.random.default_rng(44)
    grid = np.linspace(0.0, 1.0, 101)
    for k in range(100):
        scores, labels = random_instance(rng, n_max=80, tie_heavy=(k % 3 == 0))
        fpr, tpr, recall, precision = threshold_enumeration_curves(list(scores), labels)
        roc = roc_points(scores, labels)
        assert roc[0].tolist() == fpr and roc[1].tolist() == tpr
        rec, prec = pr_points(scores, labels)
        assert rec.tolist() == recall and prec.tolist() == precision
        assert interp_pr(rec, prec, grid).tolist() == scanned_interp_pr(recall, precision, grid)


def test_interpolators_hit_known_points():
    scores = [0.9, 0.8, 0.2, 0.1]
    labels = [P, P, F, F]
    fpr, tpr = roc_points(scores, labels)
    grid = np.array([0.0, 0.5, 1.0])
    recall, precision = pr_points(scores, labels)
    assert np.allclose(interp_pr(recall, precision, grid), [1.0, 1.0, 1.0])
