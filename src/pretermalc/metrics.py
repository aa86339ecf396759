"""Ranking metrics computed directly from scores: AUC as the pair count
of the rank-sum statistic with half credit for ties, and PR-AUC as average
precision with tied scores collapsed into one threshold step. All of them
read one sweep over the distinct thresholds.

The positive class throughout is preterm; scores are predicted preterm
probabilities (any monotone transform gives identical AUC).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .records import Label


def _as_arrays(scores: Sequence[float], labels: Sequence[Label]) -> tuple[np.ndarray, np.ndarray]:
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray([int(l) for l in labels], dtype=np.int64)
    if s.ndim != 1 or s.shape != y.shape:
        raise ValueError(f"scores and labels must be equal-length 1-d sequences, got {s.shape} vs {y.shape}")
    if s.size == 0:
        raise ValueError("no examples to score")
    if not np.all(np.isfinite(s)):
        raise ValueError("non-finite score")
    return s, y == int(Label.PRETERM)


def _require_both_classes(pos: np.ndarray) -> tuple[int, int]:
    n_pos = int(pos.sum())
    n_neg = int(pos.size - n_pos)
    if n_pos == 0 or n_neg == 0:
        raise ValueError(f"metric undefined with a single class (pos={n_pos}, neg={n_neg})")
    return n_pos, n_neg


def _sweep(s: np.ndarray, pos: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cumulative true- and false-positive counts (int64) at each distinct
    threshold, scores descending: entry k counts every example scoring at
    least the k-th highest distinct score."""
    order = np.argsort(-s, kind="stable")
    s_desc = s[order]
    last = np.append(np.flatnonzero(s_desc[1:] != s_desc[:-1]), s.size - 1)
    tp = np.cumsum(pos[order], dtype=np.int64)[last]
    return tp, last + 1 - tp


def auc(scores: Sequence[float], labels: Sequence[Label]) -> float:
    """Probability a random positive outscores a random negative, ties worth
    one half. Equals exhaustive pair counting."""
    s, pos = _as_arrays(scores, labels)
    n_pos, n_neg = _require_both_classes(pos)
    tp, fp = _sweep(s, pos)
    # Each positive at a threshold counts the negatives below it, plus half
    # of those tied with it: twice the pair count is an integer.
    fp_before = np.append(0, fp[:-1])
    twice_pairs = int(np.dot(np.diff(tp, prepend=0), 2 * n_neg - fp - fp_before))
    return twice_pairs / (2 * n_pos * n_neg)


def _require_positives(pos: np.ndarray) -> int:
    n_pos = int(pos.sum())
    if n_pos == 0:
        raise ValueError("metric undefined without positive examples")
    return n_pos


def pr_auc(scores: Sequence[float], labels: Sequence[Label]) -> float:
    """Average precision: sum over distinct descending thresholds of
    precision * recall increment."""
    s, pos = _as_arrays(scores, labels)
    n_pos = _require_positives(pos)
    tp, fp = _sweep(s, pos)
    # Summed left to right, in threshold order, then divided once.
    total = np.cumsum(tp / (tp + fp) * np.diff(tp, prepend=0))[-1]
    return float(total) / n_pos


def roc_points(scores: Sequence[float], labels: Sequence[Label]) -> tuple[np.ndarray, np.ndarray]:
    """ROC polyline vertices (fpr, tpr), one vertex per distinct threshold,
    starting at (0, 0) and ending at (1, 1)."""
    s, pos = _as_arrays(scores, labels)
    n_pos, n_neg = _require_both_classes(pos)
    tp, fp = _sweep(s, pos)
    return np.append(0.0, fp / n_neg), np.append(0.0, tp / n_pos)


def pr_points(scores: Sequence[float], labels: Sequence[Label]) -> tuple[np.ndarray, np.ndarray]:
    """Precision-recall vertices per distinct threshold, recall ascending."""
    s, pos = _as_arrays(scores, labels)
    n_pos = _require_positives(pos)
    tp, fp = _sweep(s, pos)
    return tp / n_pos, tp / (tp + fp)


def interp_roc(fpr: np.ndarray, tpr: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """TPR sampled at fixed FPR grid points by linear interpolation."""
    return np.interp(grid, fpr, tpr)


def interp_pr(recall: np.ndarray, precision: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Precision sampled at fixed recall grid points (step-wise from the
    right, matching the average-precision convention): the highest
    precision at any recall >= r, or the last precision past the end.
    ``recall`` must be ascending, as ``pr_points`` returns it."""
    best_from = np.maximum.accumulate(precision[::-1])[::-1]
    first = np.searchsorted(recall, grid, side="left")
    return np.append(best_from, precision[-1])[first]
