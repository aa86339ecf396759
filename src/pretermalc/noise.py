"""Class-conditional label corruption: the 2x2 row-stochastic matrix, built
from the count table it normalises, its estimator over dual-labeled
examples, and the layer that pushes clean probabilities through it."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .records import Label, LabeledExample

DISTRIBUTION_TOL = 1e-9  # row-sum slack of a float64 probability input
N_CLASSES = 2


class EstimationError(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class CorruptionMatrix:
    """The 2x2 contingency table counts[i, j] = #(clean == i, noisy == j),
    rows indexed preterm-first, and the matrix it determines:
    entries[i, j] = counts[i, j] / counts[i].sum() = p(noisy == j | clean == i).
    """

    counts: np.ndarray
    entries: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        counts = np.asarray(self.counts)
        if counts.shape != (N_CLASSES, N_CLASSES):
            raise ValueError(f"count table must be 2x2, got shape {counts.shape}")
        if not np.issubdtype(counts.dtype, np.integer):
            raise ValueError(f"count table entries must be integers, got dtype {counts.dtype}")
        if np.any(counts < 0):
            raise ValueError("count table entries must be non-negative")
        counts = counts.astype(np.int64)
        row_sums = counts.sum(axis=1)
        for i in range(N_CLASSES):
            if row_sums[i] == 0:
                raise EstimationError(f"no dual-labeled examples with clean label {Label(i).name}; cannot estimate row")
        entries = counts / row_sums[:, None]
        for name, array in (("counts", counts), ("entries", entries)):
            array.flags.writeable = False  # so the two cannot drift apart
            object.__setattr__(self, name, array)


def estimate_corruption_matrix(d_prime: Sequence[LabeledExample]) -> CorruptionMatrix:
    """Frequency estimate over examples carrying both labels: entry (i, j) is
    the fraction of clean-class-i examples whose noisy label is j."""
    counts = np.zeros((N_CLASSES, N_CLASSES), dtype=np.int64)
    for ex in d_prime:
        if ex.clean_label is None or ex.noisy_label is None:
            raise EstimationError(f"example {ex.patient_id} lacks one of the two labels")
        counts[int(ex.clean_label), int(ex.noisy_label)] += 1
    return CorruptionMatrix(counts)


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
