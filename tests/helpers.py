"""Shared test utilities: class-conditional label noise, small random
network setups, a full-coordinate finite-difference gradient check and an
oracle of the calibration's label accuracy."""

from __future__ import annotations

from dataclasses import replace
from typing import Sequence

import numpy as np

from pretermalc import bench
from pretermalc.linkage import link_accuracy, match_newborns
from pretermalc.net import (
    Batch,
    ModelParams,
    NetDims,
    backward,
    forward,
    init_params,
    loss_corrected,
)
from pretermalc.noise import CorruptionMatrix
from pretermalc.records import Label
from pretermalc.synth import SynthConfig, generate_cohort

# Each row sums to 100, so in float64 the entries are exactly 0.68, 0.32, 0.2, 0.8.
REFERENCE_COUNTS = np.array([[68, 32], [20, 80]])


def reference_matrix() -> CorruptionMatrix:
    return CorruptionMatrix(REFERENCE_COUNTS)


def apply_class_conditional_noise(labels: Sequence[Label], c: CorruptionMatrix, seed: int) -> list[Label]:
    """Draw a noisy label for each clean label from the matching matrix row."""
    rng = np.random.default_rng(seed)
    u = rng.random(len(labels))
    out = []
    for k, label in enumerate(labels):
        keep_p = c.entries[int(label), int(label)]
        noisy = label if u[k] < keep_p else Label(1 - int(label))
        out.append(noisy)
    return out


def random_small_sequences(
    seed: int, vocab_size: int = 20, d: int = 8
) -> tuple[ModelParams, list[list[tuple[int, ...]]], np.ndarray]:
    """A small random model plus variable-length visit-code sequences.

    Two to four sequences, one to five visits each, one to four distinct
    codes per visit as a sorted tuple, random binary labels. Small enough
    that checking every parameter coordinate stays fast.
    """
    rng = np.random.default_rng(seed)
    params = init_params(NetDims(vocab_size, d_emb=d, d_h=d), seed=int(rng.integers(2**31)))
    seqs = []
    for _ in range(int(rng.integers(2, 5))):
        n_visits = int(rng.integers(1, 6))
        seqs.append(
            [
                tuple(sorted(rng.choice(vocab_size, size=int(rng.integers(1, 5)), replace=False).tolist()))
                for _ in range(n_visits)
            ]
        )
    labels = rng.integers(0, 2, size=len(seqs))
    return params, seqs, labels


def random_small_setup(
    seed: int, vocab_size: int = 20, d: int = 8
) -> tuple[ModelParams, Batch, np.ndarray]:
    """``random_small_sequences`` with the sequences as one batch."""
    params, seqs, labels = random_small_sequences(seed, vocab_size, d)
    return params, Batch.from_sequences(seqs), labels


def max_gradient_rel_error(
    params: ModelParams,
    batch: Batch,
    labels: np.ndarray,
    c: CorruptionMatrix,
    h: float = 1e-5,
) -> float:
    """Worst relative error between reverse-mode and central-difference
    gradients of ``loss_corrected`` with matrix ``c`` (``IDENTITY`` for
    plain cross-entropy) over every coordinate of every parameter tensor.

    Relative error is |numeric - analytic| / max(|numeric|, |analytic|, 1e-6);
    the floor keeps finite-difference noise on dead coordinates from
    registering as disagreement.
    """

    def loss() -> float:
        return loss_corrected(forward(params, batch), labels, c)

    grads = backward(params, forward(params, batch), labels, c)
    worst = 0.0
    for name, tensor in params.items():
        analytic = grads[name]
        it = np.nditer(tensor, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            saved = tensor[idx]
            tensor[idx] = saved + h
            up = loss()
            tensor[idx] = saved - h
            down = loss()
            tensor[idx] = saved
            numeric = (up - down) / (2.0 * h)
            err = abs(numeric - analytic[idx]) / max(abs(numeric), abs(analytic[idx]), 1e-6)
            worst = max(worst, err)
    return worst


def full_cohort_label_accuracy(config: SynthConfig) -> float:
    """``bench.mean_label_accuracy`` the plain way: the linked label
    accuracy averaged over the same seeded cohorts, each generated with its
    prenatal visits."""
    total = 0.0
    for i in range(bench.CALIBRATION_SEEDS):
        cohort = generate_cohort(replace(config, seed=bench.derive_seed(config.seed, "calibration", i)))
        links = match_newborns(cohort.mothers, cohort.newborns, cohort.vocab)
        total += link_accuracy(links, cohort.truth, cohort.newborns, cohort.vocab)[1]
    return total / bench.CALIBRATION_SEEDS
