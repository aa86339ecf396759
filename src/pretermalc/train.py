"""Epoch scheduling and the training loop.

The alternating schedule interleaves corrected-loss epochs over the
noisy-labeled set with plain cross-entropy epochs over the clean set,
starting noisy at epoch 0. The sequential baselines run the same two phases
back to back in either order; the no-correction baselines train plainly on
one fixed set. Every epoch trains through the corruption layer: the
estimated matrix on corrected epochs, the identity on plain ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .net import (
    IDENTITY,
    Batch,
    ModelParams,
    backward,
    forward,
    loss_clean,
    loss_corrected,
    predict_probs,
    sequence_of,
)
from .noise import CorruptionMatrix
from .records import LabeledExample

CLEAN = "clean"
NOISY = "noisy"
MIXED = "mixed"

PLAIN = "plain"  # cross-entropy: the corruption layer is the identity
CORRECTED = "corrected"  # the corruption layer is the estimated matrix

# The one optimizer setup every run uses: minibatches of BATCH_SIZE
# examples, each followed by one Adam step of size LEARNING_RATE.
BATCH_SIZE = 64
LEARNING_RATE = 1e-3
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# Epochs per training run, unless a run asks for another count.
DEFAULT_EPOCHS = 10


class TrainMethod(Enum):
    ALC = "ALC"
    GLC_NOISY_THEN_CLEAN = "GLC_noisy_then_clean"
    GLC_CLEAN_THEN_NOISY = "GLC_clean_then_noisy"
    NOLC_CLEAN = "NoLC_clean"
    NOLC_NOISY = "NoLC_noisy"
    NOLC_MIXED = "NoLC_mixed"


@dataclass(frozen=True)
class EpochSpec:
    dataset: str  # clean | noisy | mixed
    loss_kind: str  # plain | corrected

    def __post_init__(self) -> None:
        if self.dataset not in (CLEAN, NOISY, MIXED):
            raise ValueError(f"unknown dataset tag {self.dataset!r}")
        if self.loss_kind not in (PLAIN, CORRECTED):
            raise ValueError(f"unknown loss kind {self.loss_kind!r}")
        if self.loss_kind == CORRECTED and self.dataset == CLEAN:
            raise ValueError("corrected loss is only paired with noisy-labeled data")


def plan_epochs(method: TrainMethod, n_epochs: int) -> list[EpochSpec]:
    """The per-epoch (dataset, loss) schedule for a method."""
    if n_epochs < 1:
        raise ValueError(f"n_epochs must be >= 1, got {n_epochs}")
    if not isinstance(method, TrainMethod):
        raise ValueError(f"unknown method {method!r}")
    noisy = EpochSpec(NOISY, CORRECTED)
    clean = EpochSpec(CLEAN, PLAIN)
    first = math.ceil(n_epochs / 2)  # the first phase of a sequential schedule
    plans = {
        TrainMethod.ALC: [clean if e % 2 else noisy for e in range(n_epochs)],
        TrainMethod.GLC_NOISY_THEN_CLEAN: [noisy] * first + [clean] * (n_epochs - first),
        TrainMethod.GLC_CLEAN_THEN_NOISY: [clean] * first + [noisy] * (n_epochs - first),
        TrainMethod.NOLC_CLEAN: [clean] * n_epochs,
        TrainMethod.NOLC_NOISY: [EpochSpec(NOISY, PLAIN)] * n_epochs,
        TrainMethod.NOLC_MIXED: [EpochSpec(MIXED, PLAIN)] * n_epochs,
    }
    return plans[method]


@dataclass(frozen=True)
class TrainConfig:
    method: TrainMethod = TrainMethod.ALC
    n_epochs: int = DEFAULT_EPOCHS
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_epochs < 1:
            raise ValueError(f"n_epochs must be >= 1, got {self.n_epochs}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass
class OptState:
    """Optimizer state in the flat parameter layout and dtype."""

    m: np.ndarray  # first moments
    v: np.ndarray  # second moments
    scratch: tuple[np.ndarray, np.ndarray]  # step temporaries, so a step allocates no buffer
    step: int = 0

    @classmethod
    def for_params(cls, params: ModelParams) -> "OptState":
        flat = params.flat
        return cls(
            m=np.zeros_like(flat),
            v=np.zeros_like(flat),
            scratch=(np.empty_like(flat), np.empty_like(flat)),
        )


def optimizer_step(params: ModelParams, grads: ModelParams, state: OptState) -> None:
    """One in-place Adam update of the whole flat parameter buffer, with
    per-coordinate first and second moments and bias correction. Each
    product keeps the operand order of ``lr·(m/bc1) / (sqrt(v/bc2) + eps)``
    with ``v += ((1-β2)·g)·g``, so the in-place form rounds exactly as the
    textbook expression does."""
    g = grads.flat
    update, tmp = state.scratch
    state.step += 1
    t = state.step
    bc1 = 1.0 - ADAM_BETA1**t
    bc2 = 1.0 - ADAM_BETA2**t
    m, v = state.m, state.v
    m *= ADAM_BETA1
    m += np.multiply(g, 1.0 - ADAM_BETA1, out=tmp)
    v *= ADAM_BETA2
    np.multiply(g, 1.0 - ADAM_BETA2, out=tmp)
    tmp *= g
    v += tmp
    np.divide(m, bc1, out=update)
    update *= LEARNING_RATE
    np.divide(v, bc2, out=tmp)
    np.sqrt(tmp, out=tmp)
    tmp += ADAM_EPS
    with np.errstate(invalid="ignore"):  # inf/inf from an infinite gradient: nan, reported below
        update /= tmp
    bad = params.first_non_finite(update)
    if bad is not None:
        raise FloatingPointError(f"non-finite update for tensor {bad}")
    params.flat -= update


@dataclass(frozen=True)
class EpochLog:
    epoch: int
    dataset: str
    loss_kind: str
    mean_loss: float


def mixed_examples(
    d_star: Sequence[LabeledExample], d_tilde: Sequence[LabeledExample]
) -> list[LabeledExample]:
    """Concatenation with dual-labeled mothers appearing once (clean side)."""
    star_ids = {ex.patient_id for ex in d_star}
    return list(d_star) + [ex for ex in d_tilde if ex.patient_id not in star_ids]


def _pool(
    dataset: str, d_star: Sequence[LabeledExample], d_tilde: Sequence[LabeledExample]
) -> tuple[list, np.ndarray]:
    """The visit sequences and labels an epoch over ``dataset`` reads: the
    clean set with clean labels, the noisy set with noisy labels, or the
    mixed set, where an example takes its clean label when it has one."""
    examples = d_star if dataset == CLEAN else d_tilde if dataset == NOISY else mixed_examples(d_star, d_tilde)
    if not examples:
        raise ValueError(f"schedule needs {dataset} examples but none are available")
    seqs, labels = [], []
    for ex in examples:
        label = ex.noisy_label if dataset == NOISY else ex.clean_label
        if label is None and dataset == MIXED:  # a mother with only the noisy label
            label = ex.noisy_label
        if label is None:
            raise ValueError(f"example {ex.patient_id} lacks the {dataset} label")
        seqs.append(sequence_of(ex))
        labels.append(int(label))
    return seqs, np.array(labels, dtype=np.int64)


def train(
    params: ModelParams,
    d_star: Sequence[LabeledExample],
    d_tilde: Sequence[LabeledExample],
    c: CorruptionMatrix | None,
    config: TrainConfig,
) -> tuple[ModelParams, list[EpochLog]]:
    """Run the configured schedule and return final parameters plus the
    per-epoch mean-loss log. Every step computes in float32; the returned
    parameters are the exact float64 upcast of the final float32 weights, so
    scoring stays float64, where a row sums to 1 within 1e-12 and a score
    does not depend on the batch it is computed in. Inputs are never
    mutated; identical inputs give bit-identical outputs."""
    plan = plan_epochs(config.method, config.n_epochs)

    # One pool per tag, built in the order the plan first reads it.
    pools = {tag: _pool(tag, d_star, d_tilde) for tag in dict.fromkeys(spec.dataset for spec in plan)}
    if any(spec.loss_kind == CORRECTED for spec in plan) and c is None:
        raise ValueError("schedule contains corrected-loss epochs but no corruption matrix was given")

    params = params.astype(np.float32)
    state = OptState.for_params(params)
    log: list[EpochLog] = []
    for epoch, spec in enumerate(plan):
        seqs, labels = pools[spec.dataset]
        matrix = IDENTITY if spec.loss_kind == PLAIN else c
        rng = np.random.default_rng([config.seed, epoch])
        perm = rng.permutation(len(seqs))
        total = 0.0
        for start in range(0, len(perm), BATCH_SIZE):
            chunk = perm[start : start + BATCH_SIZE]
            trace = forward(params, Batch.from_sequences([seqs[i] for i in chunk]))
            chunk_labels = labels[chunk]
            if spec.loss_kind == PLAIN:
                loss = loss_clean(trace, chunk_labels)
            else:
                loss = loss_corrected(trace, chunk_labels, matrix)
            grads = backward(params, trace, chunk_labels, matrix)
            optimizer_step(params, grads, state)
            total += loss * len(chunk)
        log.append(EpochLog(epoch, spec.dataset, spec.loss_kind, total / len(seqs)))
    return params.astype(np.float64), log


def score_examples(params: ModelParams, examples: Sequence[LabeledExample]) -> np.ndarray:
    """Predicted preterm probability per example, in order."""
    seqs = [sequence_of(ex) for ex in examples]
    return predict_probs(params, seqs)[:, 0]
