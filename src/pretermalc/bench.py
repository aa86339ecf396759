"""Repeated train/test benchmark over the synthetic corpus, plus the
bisection that calibrates clerical noise to a target noisy-label accuracy.

Each repeat draws a fresh 70/15/15 split of the clean set and scores every
trained model once, on the test part; the validation part is held out
unread. The repeat's noisy pool is the noisy set without the mothers of its
validation and test parts, so no held-out mother is trained on under either
label. The corruption matrix is re-estimated per repeat from the
dual-labeled examples that landed on the training side. Every random choice
is derived from (base_seed, repeat), so the report is reproducible run to
run and independent of the worker count.
"""

from __future__ import annotations

import hashlib
import logging
import math
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .linkage import LinkSet, link_accuracy, match_newborns
from .metrics import auc, interp_pr, interp_roc, pr_auc, pr_points, roc_points
from .noise import CorruptionMatrix, estimate_corruption_matrix
from .records import (
    CodeVocabulary,
    DatasetSplit,
    LabeledExample,
    RecordFileError,
    collector_paused,
    load_examples,
    read_lines,
)
from .synth import ClericalNoiseModel, Cohort, SynthConfig, build_datasets, generate_cohort
from .net import ModelParams, NetDims, init_params
from .train import BATCH_SIZE, DEFAULT_EPOCHS, LEARNING_RATE, TrainConfig, TrainMethod, score_examples, train

logger = logging.getLogger(__name__)

DEFAULT_SPLIT = (0.7, 0.15, 0.15)
DEFAULT_REPEATS = 20
MAX_SPLIT_ATTEMPTS = 20
CURVE_GRID = np.linspace(0.0, 1.0, 101)
RAW_CSV_HEADER = "method,repeat,auc,pr_auc"
CALIBRATION_TOLERANCE = 0.02
CALIBRATION_SEEDS = 5  # cohorts per evaluated rate
MAX_CALIBRATION_STEPS = 30

# Read by the BLAS libraries numpy may load, once, when it is first imported.
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchmarkError(RuntimeError):
    pass


class CalibrationError(RuntimeError):
    pass


def derive_seed(*parts) -> int:
    """Stable 63-bit seed from arbitrary hashable parts (not python hash())."""
    digest = hashlib.sha256(repr(parts).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little") >> 1


@dataclass(frozen=True)
class BenchmarkConfig:
    """What a repeated benchmark runs: the methods, in report order, the
    number of repeated splits, the seed that every split, initialization
    and training run derives from, and the epochs of each training run. A
    method may be given by name; it is stored as a TrainMethod."""

    methods: tuple[TrainMethod, ...] = tuple(TrainMethod)
    repeats: int = DEFAULT_REPEATS
    base_seed: int = 0
    n_epochs: int = DEFAULT_EPOCHS

    def __post_init__(self) -> None:
        valid = {m.value: m for m in TrainMethod}
        names = [m.value if isinstance(m, TrainMethod) else m for m in self.methods]
        for name in names:
            if name not in valid:
                raise ValueError(f"methods: unknown method {name!r}; valid: {', '.join(valid)}")
        if not names:
            raise ValueError("methods: no methods given")
        repeated = sorted({name for name in names if names.count(name) > 1})
        if repeated:
            raise ValueError(f"methods: method(s) given more than once: {', '.join(repeated)}")
        if self.repeats < 1:
            raise ValueError(f"repeats must be >= 1, got {self.repeats}")
        if self.n_epochs < 1:
            raise ValueError(f"n_epochs must be >= 1, got {self.n_epochs}")
        object.__setattr__(self, "methods", tuple(valid[name] for name in names))


def load_labeled_examples(path, vocab: CodeVocabulary, kind: str) -> list[LabeledExample]:
    """The examples of the clean or noisy file `path`, each of which must
    carry that `kind` of label, as the `--clean` or `--noisy` file does."""
    examples = load_examples(path, vocab)
    for ex in examples:
        if getattr(ex, f"{kind}_label") is None:
            raise RecordFileError(f"{path}: example {ex.patient_id} lacks the {kind} label that --{kind} needs")
    return examples


@dataclass(frozen=True)
class Corpus:
    """The example sets of one cohort. `d_prime`, the dual-labeled set, is
    the `d_star` examples that also carry a noisy label."""

    vocab: CodeVocabulary
    d_star: tuple[LabeledExample, ...]
    d_tilde: tuple[LabeledExample, ...]
    d_prime: tuple[LabeledExample, ...]
    config: SynthConfig | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "d_star", tuple(self.d_star))
        object.__setattr__(self, "d_tilde", tuple(self.d_tilde))
        object.__setattr__(self, "d_prime", tuple(self.d_prime))

    @classmethod
    def from_files(cls, clean_path, noisy_path, vocab_path, config: SynthConfig | None = None) -> "Corpus":
        vocab = CodeVocabulary.load(vocab_path)
        d_star = load_labeled_examples(clean_path, vocab, "clean")
        d_tilde = load_labeled_examples(noisy_path, vocab, "noisy")
        return cls(vocab, d_star, d_tilde, [ex for ex in d_star if ex.noisy_label is not None], config)


def build_corpus(config: SynthConfig) -> tuple[Corpus, Cohort, LinkSet]:
    """Generate, link, and assemble the three datasets for one config."""
    cohort = generate_cohort(config)
    links = match_newborns(cohort.mothers, cohort.newborns, cohort.vocab)
    d_star, d_tilde, d_prime = build_datasets(cohort.mothers, cohort.newborns, links, cohort.vocab)
    return Corpus(cohort.vocab, d_star, d_tilde, d_prime, config), cohort, links


def split_examples(
    d_star: Sequence[LabeledExample],
    fractions: tuple[float, float, float],
    seed: int,
) -> DatasetSplit:
    """Deterministic shuffle split of the clean set."""
    if abs(sum(fractions) - 1.0) > 1e-9 or any(f <= 0 for f in fractions):
        raise ValueError(f"split fractions must be positive and sum to 1, got {fractions}")
    n = len(d_star)
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    n_train = int(n * fractions[0])
    n_val = int(n * fractions[1])
    train_part = tuple(d_star[i] for i in perm[:n_train])
    val_part = tuple(d_star[i] for i in perm[n_train : n_train + n_val])
    test_part = tuple(d_star[i] for i in perm[n_train + n_val :])
    return DatasetSplit(train=train_part, validation=val_part, test=test_part)


def _has_both_classes(examples: Iterable[LabeledExample]) -> bool:
    seen = set()
    for ex in examples:
        seen.add(ex.clean_label)
        if len(seen) == 2:
            return True
    return False


@dataclass(frozen=True)
class RepeatRow:
    method: str
    repeat: int
    auc: float
    pr_auc: float


@dataclass
class MethodSummary:
    auc_mean: float
    auc_std: float
    prauc_mean: float
    prauc_std: float


def summarize(rows: Iterable[RepeatRow]) -> dict[str, MethodSummary]:
    """Mean and population std (a single repeat reports 0) of the test AUC
    and PR-AUC of each method, in the order the methods first appear."""
    by_method: dict[str, list[RepeatRow]] = {}
    for row in rows:
        by_method.setdefault(row.method, []).append(row)
    summaries = {}
    for method, m_rows in by_method.items():
        aucs = np.array([row.auc for row in m_rows])
        prs = np.array([row.pr_auc for row in m_rows])
        summaries[method] = MethodSummary(
            float(aucs.mean()), float(aucs.std()), float(prs.mean()), float(prs.std())
        )
    return summaries


@dataclass
class BenchmarkReport:
    methods: list[str]
    rows: list[RepeatRow]
    summaries: dict[str, MethodSummary]
    fingerprint: str
    curves: dict[str, dict[str, np.ndarray]]  # method -> grid, mean tpr, mean precision

    def report_csv(self) -> str:
        lines = ["method,auc_mean,auc_std,prauc_mean,prauc_std"]
        for m in self.methods:
            s = self.summaries[m]
            lines.append(
                f"{m},{s.auc_mean:.6f},{s.auc_std:.6f},{s.prauc_mean:.6f},{s.prauc_std:.6f}"
            )
        return "\n".join(lines) + "\n"

    def raw_csv(self) -> str:
        lines = [RAW_CSV_HEADER]
        for row in self.rows:
            lines.append(f"{row.method},{row.repeat},{row.auc:.6f},{row.pr_auc:.6f}")
        return "\n".join(lines) + "\n"


def load_raw_csv(path: str | Path) -> list[RepeatRow]:
    """The rows of a file written from `BenchmarkReport.raw_csv`: one per
    (method, repeat) pair, each with a named method, a repeat >= 0 and
    scores in [0, 1], and every method on the same set of repeats."""
    header = [RAW_CSV_HEADER]  # popped by the first line, which must equal it
    seen: set[tuple[str, int]] = set()

    def parse(line: str) -> RepeatRow | None:
        if header:
            if line != header.pop():
                raise ValueError(f"unexpected header {line!r}, expected {RAW_CSV_HEADER!r}")
            return None
        method, repeat, auc_, pr_auc_ = line.split(",")
        if not method:
            raise ValueError("empty method name")
        row = RepeatRow(method, int(repeat), float(auc_), float(pr_auc_))
        if row.repeat < 0:
            raise ValueError(f"repeat must be >= 0, got {row.repeat}")
        for name, score in (("auc", row.auc), ("pr_auc", row.pr_auc)):
            if not 0.0 <= score <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {score}")
        if (method, row.repeat) in seen:
            raise ValueError(f"{method} repeat {row.repeat} listed again")
        seen.add((method, row.repeat))
        return row

    def build(rows: list[RepeatRow | None]) -> list[RepeatRow]:
        repeats: dict[str, set[int]] = {}
        for row in rows[1:]:
            repeats.setdefault(row.method, set()).add(row.repeat)
        methods = list(repeats)
        for method in methods[1:]:
            if repeats[method] != repeats[methods[0]]:
                raise ValueError(
                    f"{method} covers repeats {sorted(repeats[method])}, "
                    f"but {methods[0]} covers {sorted(repeats[methods[0]])}"
                )
        return rows[1:]

    return read_lines(path, parse, build)


@dataclass(frozen=True)
class RepeatInputs:
    """What every method of one repeat trains from."""

    split: DatasetSplit
    noisy: tuple[LabeledExample, ...]  # d_tilde without the split's validation and test mothers
    c_hat: CorruptionMatrix  # from the dual-labeled examples of split.train
    init: ModelParams
    train_seed: int


def repeat_inputs(corpus: Corpus, repeat: int, base_seed: int) -> RepeatInputs:
    """The split of repeat `repeat` and what its training runs read. The
    split is redrawn until its validation part, its test part and the
    dual-labeled examples of its training part each hold both classes. The
    noisy pool is `corpus.d_tilde`, in its order, without any mother of the
    validation or test part."""
    for attempt in range(MAX_SPLIT_ATTEMPTS):
        split = split_examples(
            corpus.d_star, DEFAULT_SPLIT, derive_seed(base_seed, "split", repeat, attempt)
        )
        dual_train = [ex for ex in split.train if ex.noisy_label is not None]
        if all(map(_has_both_classes, (split.validation, split.test, dual_train))):
            break
    else:
        raise BenchmarkError(
            f"repeat {repeat}: could not draw a split with both classes in its validation part, "
            f"its test part and the dual-labeled examples of its training part "
            f"after {MAX_SPLIT_ATTEMPTS} attempts"
        )
    if attempt:
        logger.info("repeat %d: resampled split %d time(s)", repeat, attempt)
    held_out = {ex.patient_id for ex in split.validation + split.test}
    return RepeatInputs(
        split=split,
        noisy=tuple(ex for ex in corpus.d_tilde if ex.patient_id not in held_out),
        c_hat=estimate_corruption_matrix(dual_train),
        init=init_params(NetDims(vocab_size=len(corpus.vocab)), derive_seed(base_seed, "init", repeat)),
        train_seed=derive_seed(base_seed, "train", repeat),
    )


def _run_repeat(
    corpus: Corpus, config: BenchmarkConfig, repeat: int
) -> list[tuple[RepeatRow, np.ndarray, np.ndarray]]:
    """Each method's row and its TPR and precision on CURVE_GRID, in order."""
    inputs = repeat_inputs(corpus, repeat, config.base_seed)
    split = inputs.split
    labels = [ex.clean_label for ex in split.test]
    results = []
    for method in config.methods:
        cfg = TrainConfig(method, config.n_epochs, inputs.train_seed)
        model, _ = train(inputs.init, split.train, inputs.noisy, inputs.c_hat, cfg)
        scores = score_examples(model, split.test)
        row = RepeatRow(method.value, repeat, auc(scores, labels), pr_auc(scores, labels))
        fpr, tpr = roc_points(scores, labels)
        rec, prec = pr_points(scores, labels)
        results.append((row, interp_roc(fpr, tpr, CURVE_GRID), interp_pr(rec, prec, CURVE_GRID)))
    return results


@contextmanager
def _single_blas_thread_env():
    """Give worker processes started inside the block one BLAS thread each.
    Workers already run one per core; BLAS threads on top of them contend
    for the same cores, and the network's larger products then wait on
    descheduled threads. Only freshly started (spawned) interpreters read
    these variables; this process's BLAS is left as it is."""
    saved = {name: os.environ.get(name) for name in BLAS_THREAD_VARIABLES}
    os.environ.update(dict.fromkeys(BLAS_THREAD_VARIABLES, "1"))
    try:
        yield
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


def _corpus_digest(corpus: Corpus) -> str:
    """Content digest of the corpus: the vocabulary, then every example's
    id, labels and visit codes, set by set."""
    h = hashlib.sha256("\n".join(corpus.vocab).encode("utf-8"))
    for part in (corpus.d_star, corpus.d_tilde, corpus.d_prime):
        h.update(b"\x00")
        for ex in part:
            labels = tuple(None if label is None else int(label) for label in (ex.clean_label, ex.noisy_label))
            visits = tuple(tuple(sorted(v.codes)) for v in ex.record.visits)
            h.update(repr((ex.patient_id, labels, visits)).encode("utf-8"))
    return h.hexdigest()


def _fingerprint(corpus: Corpus, config: BenchmarkConfig) -> str:
    """Digest of what shapes the reports: the corpus content and the
    request. The epoch count and the fixed batch and step sizes are hashed
    as the train settings they once were, so a default run keeps the
    fingerprint it had then. The cohort config is left out: the content
    digest covers every dataset it shaped."""
    payload = repr(
        (
            [m.value for m in config.methods],
            config.repeats,
            DEFAULT_SPLIT,
            {"n_epochs": config.n_epochs, "batch_size": BATCH_SIZE, "learning_rate": LEARNING_RATE},
            config.base_seed,
            _corpus_digest(corpus),
        )
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def repeated_benchmark(
    corpus: Corpus,
    config: BenchmarkConfig = BenchmarkConfig(),
    *,
    workers: int = 1,
) -> BenchmarkReport:
    """Train every method on every repeat's split and aggregate test metrics
    and mean ROC and PR curves.

    Worker processes only parallelize over repeats; results are assembled in
    repeat order, so the report is identical for any worker count.
    """
    methods, repeats = config.methods, config.repeats
    run = partial(_run_repeat, corpus, config)
    if workers > 1:
        # One chunk of repeats per worker, so the corpus is pickled once per
        # worker. It travels with the task, not with the start-up arguments:
        # a worker that dies while starting then breaks the pool instead of
        # leaving this process blocked on the start-up pipe.
        with _single_blas_thread_env(), ProcessPoolExecutor(
            max_workers=workers, mp_context=multiprocessing.get_context("spawn")
        ) as pool:
            results = list(pool.map(run, range(repeats), chunksize=math.ceil(repeats / workers)))
    else:
        results = [run(r) for r in range(repeats)]

    rows: list[RepeatRow] = []
    curves: dict[str, dict[str, np.ndarray]] = {}
    for method, per_repeat in zip(methods, zip(*results)):
        method_rows, tprs, precisions = zip(*per_repeat)
        rows.extend(method_rows)
        curves[method.value] = {
            "grid": CURVE_GRID.copy(),
            "tpr": np.mean(tprs, axis=0),
            "precision": np.mean(precisions, axis=0),
        }

    return BenchmarkReport(
        methods=[m.value for m in methods],
        rows=rows,
        summaries=summarize(rows),
        fingerprint=_fingerprint(corpus, config),
        curves=curves,
    )


# --- noise calibration -------------------------------------------------------


@collector_paused()
def mean_label_accuracy(config: SynthConfig) -> float:
    """Average noisy-label accuracy of the heuristic linkage over
    CALIBRATION_SEEDS cohorts generated with seeds derived from config.seed.
    Uses the same seed schedule as calibrate_noise, so a calibrated config
    evaluates on exactly the cohorts the calibration saw."""
    total = 0.0
    for i in range(CALIBRATION_SEEDS):
        cohort = generate_cohort(replace(config, seed=derive_seed(config.seed, "calibration", i)))
        links = match_newborns(cohort.mothers, cohort.newborns, cohort.vocab)
        total += link_accuracy(links, cohort.truth, cohort.newborns, cohort.vocab)[1]
        del cohort, links  # else this cohort stays alive while the next one is generated
    return total / CALIBRATION_SEEDS


def calibrate_noise(target: float = 0.72, config: SynthConfig | None = None) -> ClericalNoiseModel:
    """Bisection on the newborn misclassification rate until the mean noisy-
    label accuracy over seeded cohorts lands within CALIBRATION_TOLERANCE of
    the target. All other noise channels stay at their configured values.

    Rate 0 is evaluated first, then the midpoints. Rate 1 is evaluated only
    when the accuracy at rate 0.5 is more than CALIBRATION_TOLERANCE above
    the target (the first step that raises the bracket's low end), and the
    target is below reach when the accuracy at rate 1 is too. On the
    default config the rates evaluated are 0, 0.5 and 0.25. Where the
    accuracy falls as the rate rises, this gives the result or error that
    checking rate 1 up front would. The accuracy is not strictly monotone,
    since a wrong link can make a flipped label correct: where rate 0.5 is
    within tolerance of the target or below it, the search goes on even if
    rate 1 would stay above the target."""
    base = config or SynthConfig()
    if not 0.5 < target <= 1.0:
        raise ValueError(f"target accuracy must be in (0.5, 1], got {target}")

    def mean_accuracy(rate: float) -> float:
        cfg = replace(
            base, clerical_noise=replace(base.clerical_noise, misclassified_newborn_rate=rate)
        )
        return mean_label_accuracy(cfg)

    lo, hi = 0.0, 1.0
    f_lo = mean_accuracy(lo)
    if abs(f_lo - target) <= CALIBRATION_TOLERANCE:
        return replace(base.clerical_noise, misclassified_newborn_rate=lo)
    if f_lo < target:
        raise CalibrationError(
            f"target {target} unreachable: accuracy is {f_lo:.4f} even with no misclassification"
        )
    f_hi = None  # evaluated at rate 1 only when the search first needs it
    for _ in range(MAX_CALIBRATION_STEPS):
        mid = 0.5 * (lo + hi)
        f_mid = mean_accuracy(mid)
        if abs(f_mid - target) <= CALIBRATION_TOLERANCE:
            return replace(base.clerical_noise, misclassified_newborn_rate=mid)
        if f_mid > target:
            if f_hi is None:
                f_hi = mean_accuracy(hi)
                if f_hi > target + CALIBRATION_TOLERANCE:
                    raise CalibrationError(
                        f"target {target} below reach: accuracy stays {f_hi:.4f} at full misclassification"
                    )
            lo, f_lo = mid, f_mid
        else:
            hi, f_hi = mid, f_mid
    raise CalibrationError(
        f"no convergence in {MAX_CALIBRATION_STEPS} steps: bracket [{lo:.4f}, {hi:.4f}] "
        f"with accuracies [{f_lo:.4f}, {f_hi:.4f}] around target {target}"
    )
