"""Class-conditional label corruption: the 2x2 row-stochastic matrix, its
frequency estimator over dual-labeled examples, and the layer that pushes
clean probabilities through it."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .records import Label, LabeledExample

ROW_SUM_TOL = 1e-12
DISTRIBUTION_TOL = 1e-9  # row-sum slack of a float64 probability input
N_CLASSES = 2


class EstimationError(ValueError):
    pass


@dataclass(frozen=True)
class CorruptionMatrix:
    """entries[i, j] = p(noisy == j | clean == i), rows indexed preterm-first.

    counts holds the supporting contingency table when the matrix came from
    data; synthetic matrices may carry zero counts.
    """

    entries: np.ndarray
    counts: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        entries = np.asarray(self.entries, dtype=np.float64)
        if entries.shape != (N_CLASSES, N_CLASSES):
            raise ValueError(f"corruption matrix must be 2x2, got shape {entries.shape}")
        if not np.all((entries >= 0.0) & (entries <= 1.0)):  # NaN fails both comparisons
            raise ValueError(f"corruption matrix entries must lie in [0, 1], got {entries.tolist()}")
        row_sums = entries.sum(axis=1)
        if np.any(np.abs(row_sums - 1.0) > ROW_SUM_TOL):
            raise ValueError(f"corruption matrix rows must sum to 1, got {row_sums}")
        counts = self.counts
        if counts is None:
            counts = np.zeros((N_CLASSES, N_CLASSES), dtype=np.int64)
        counts = np.asarray(counts, dtype=np.int64)
        if counts.shape != (N_CLASSES, N_CLASSES):
            raise ValueError(f"count table must be 2x2, got shape {counts.shape}")
        if np.any(counts < 0):
            raise ValueError("count table entries must be non-negative")
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "counts", counts)

    @classmethod
    def identity(cls) -> "CorruptionMatrix":
        return cls(entries=np.eye(N_CLASSES))


def estimate_corruption_matrix(d_prime: Sequence[LabeledExample]) -> CorruptionMatrix:
    """Frequency estimate over examples carrying both labels: entry (i, j) is
    the fraction of clean-class-i examples whose noisy label is j."""
    counts = np.zeros((N_CLASSES, N_CLASSES), dtype=np.int64)
    for ex in d_prime:
        if ex.clean_label is None or ex.noisy_label is None:
            raise EstimationError(f"example {ex.patient_id} lacks one of the two labels")
        counts[int(ex.clean_label), int(ex.noisy_label)] += 1
    row_sums = counts.sum(axis=1)
    for i in range(N_CLASSES):
        if row_sums[i] == 0:
            raise EstimationError(f"no dual-labeled examples with clean label {Label(i).name}; cannot estimate row")
    entries = counts / row_sums[:, None]
    return CorruptionMatrix(entries=entries, counts=counts)


def corruption_layer(p: np.ndarray, c: CorruptionMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Map clean-class probabilities to noisy-class probabilities:
    q_j = sum_i p_i * entries[i, j]. Accepts a single distribution or a batch
    of row distributions. Returns q and the entries it used, both in p's
    float dtype: this is the one place C is cast, so a float32 training step
    stays float32 through the backward product with C as well."""
    p = np.asarray(p)
    if p.shape[-1] != N_CLASSES:
        raise ValueError(f"probability vector must have {N_CLASSES} entries, got shape {p.shape}")
    # A float32 softmax row can miss 1 by about 1e-7.
    tol = max(DISTRIBUTION_TOL, 64 * float(np.finfo(p.dtype).eps))
    if np.any(p < -1e-12) or np.any(np.abs(p.sum(axis=-1) - 1.0) > tol):
        raise ValueError("input must be a probability distribution over classes")
    entries = c.entries.astype(p.dtype, copy=False)
    return p @ entries, entries
