"""Repeated train/test benchmark over the synthetic corpus, plus the
bisection that calibrates clerical noise to a target noisy-label accuracy.

Each repeat draws a fresh 70/15/15 split of the clean set; the noisy set
stays wholly in the training pool, and the corruption matrix is re-estimated
per repeat from the dual-labeled examples that landed on the training side.
Every random choice is derived from (base_seed, repeat), so the report is
reproducible run to run and independent of the worker count.
"""

from __future__ import annotations

import hashlib
import logging
import math
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, replace
from functools import partial
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .linkage import LinkSet, link_accuracy, match_newborns
from .metrics import auc, interp_pr, interp_roc, pr_auc, pr_points, roc_points
from .noise import CorruptionMatrix, estimate_corruption_matrix
from .records import CodeVocabulary, DatasetSplit, Label, LabeledExample, load_examples
from .synth import ClericalNoiseModel, Cohort, SynthConfig, build_datasets, generate_cohort
from .net import CORRECTED, NetDims, init_params
from .train import TrainConfig, TrainMethod, plan_epochs, score_examples, train

logger = logging.getLogger(__name__)

DEFAULT_SPLIT = (0.7, 0.15, 0.15)
DEFAULT_REPEATS = 20
MAX_SPLIT_ATTEMPTS = 20
CURVE_GRID = np.linspace(0.0, 1.0, 101)

ALL_METHODS = tuple(TrainMethod)

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
class Corpus:
    vocab: CodeVocabulary
    d_star: tuple[LabeledExample, ...]
    d_tilde: tuple[LabeledExample, ...]
    d_prime: tuple[LabeledExample, ...]
    config: SynthConfig

    def __post_init__(self) -> None:
        object.__setattr__(self, "d_star", tuple(self.d_star))
        object.__setattr__(self, "d_tilde", tuple(self.d_tilde))
        object.__setattr__(self, "d_prime", tuple(self.d_prime))

    @classmethod
    def from_files(cls, clean_path, noisy_path, vocab_path, config: SynthConfig) -> "Corpus":
        vocab = CodeVocabulary.load(vocab_path)
        d_star = load_examples(clean_path, vocab)
        d_tilde = load_examples(noisy_path, vocab)
        d_prime = [ex for ex in d_star if ex.noisy_label is not None]
        return cls(vocab, tuple(d_star), tuple(d_tilde), tuple(d_prime), config)


def build_corpus(
    config: SynthConfig,
    max_per_mother: int = 3,
    max_l1_minutes: int = 1440,
) -> tuple[Corpus, Cohort, LinkSet]:
    """Generate, link, and assemble the three datasets for one config."""
    cohort = generate_cohort(config)
    links = match_newborns(
        cohort.mothers, cohort.newborns, cohort.vocab,
        max_per_mother=max_per_mother, max_l1_minutes=max_l1_minutes,
    )
    d_star, d_tilde, d_prime = build_datasets(
        cohort.mothers, cohort.newborns, links, cohort.vocab, config
    )
    corpus = Corpus(cohort.vocab, tuple(d_star), tuple(d_tilde), tuple(d_prime), config)
    return corpus, cohort, links


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
    return DatasetSplit(train=train_part, validation=val_part, test=test_part, seed=seed)


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
    val_auc: float
    val_pr_auc: float


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
    repeats: int
    rows: list[RepeatRow]
    summaries: dict[str, MethodSummary]
    fingerprint: str
    curves: dict[str, dict[str, np.ndarray]] = field(default_factory=dict)

    def report_csv(self) -> str:
        lines = ["method,auc_mean,auc_std,prauc_mean,prauc_std"]
        for m in self.methods:
            s = self.summaries[m]
            lines.append(
                f"{m},{s.auc_mean:.6f},{s.auc_std:.6f},{s.prauc_mean:.6f},{s.prauc_std:.6f}"
            )
        return "\n".join(lines) + "\n"

    def raw_csv(self) -> str:
        lines = ["method,repeat,auc,pr_auc,val_auc,val_pr_auc"]
        for row in self.rows:
            lines.append(
                f"{row.method},{row.repeat},{row.auc:.6f},{row.pr_auc:.6f},"
                f"{row.val_auc:.6f},{row.val_pr_auc:.6f}"
            )
        return "\n".join(lines) + "\n"


def _split_for_repeat(
    corpus: Corpus, repeat: int, base_seed: int, fractions: tuple[float, float, float], need_c: bool
) -> DatasetSplit:
    prime_ids = {ex.patient_id for ex in corpus.d_prime}
    for attempt in range(MAX_SPLIT_ATTEMPTS):
        split = split_examples(
            corpus.d_star, fractions, derive_seed(base_seed, "split", repeat, attempt)
        )
        ok = _has_both_classes(split.validation) and _has_both_classes(split.test)
        if ok and need_c:
            prime_train = [ex for ex in split.train if ex.patient_id in prime_ids]
            ok = _has_both_classes(prime_train)
        if ok:
            if attempt:
                logger.info("repeat %d: resampled split %d time(s)", repeat, attempt)
            return split
    raise BenchmarkError(
        f"repeat {repeat}: could not draw a split with both classes in every part "
        f"after {MAX_SPLIT_ATTEMPTS} attempts"
    )


def _metric_pair(params, examples) -> tuple[float, float]:
    scores = score_examples(params, examples)
    labels = [ex.clean_label for ex in examples]
    return auc(scores, labels), pr_auc(scores, labels)


def _run_repeat(
    corpus: Corpus,
    methods: Sequence[TrainMethod],
    base_seed: int,
    fractions: tuple[float, float, float],
    base_config: TrainConfig,
    collect_curves: bool,
    repeat: int,
) -> tuple[list[RepeatRow], dict[str, dict[str, np.ndarray]]]:
    need_c = any(
        any(spec.loss_kind == CORRECTED for spec in plan_epochs(m, base_config.n_epochs))
        for m in methods
    )
    split = _split_for_repeat(corpus, repeat, base_seed, fractions, need_c)

    c_hat: CorruptionMatrix | None = None
    if need_c:
        train_ids = {ex.patient_id for ex in split.train}
        prime_train = [ex for ex in corpus.d_prime if ex.patient_id in train_ids]
        c_hat = estimate_corruption_matrix(prime_train)

    dims = NetDims(vocab_size=len(corpus.vocab))
    init = init_params(dims, derive_seed(base_seed, "init", repeat))
    train_seed = derive_seed(base_seed, "train", repeat)

    rows: list[RepeatRow] = []
    curves: dict[str, dict[str, np.ndarray]] = {}
    for method in methods:
        cfg = replace(base_config, method=method, seed=train_seed)
        model, _ = train(init, split.train, corpus.d_tilde, c_hat, cfg)
        test_auc, test_pr = _metric_pair(model, split.test)
        val_auc, val_pr = _metric_pair(model, split.validation)
        rows.append(RepeatRow(method.value, repeat, test_auc, test_pr, val_auc, val_pr))
        if collect_curves:
            scores = score_examples(model, split.test)
            labels = [ex.clean_label for ex in split.test]
            fpr, tpr = roc_points(scores, labels)
            rec, prec = pr_points(scores, labels)
            curves[method.value] = {
                "tpr": interp_roc(fpr, tpr, CURVE_GRID),
                "precision": interp_pr(rec, prec, CURVE_GRID),
            }
    return rows, curves


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


def _fingerprint(corpus: Corpus, methods, repeats, fractions, base_config, base_seed: int) -> str:
    payload = repr(
        (
            asdict(corpus.config),
            [m.value for m in methods],
            repeats,
            tuple(fractions),
            asdict(base_config) if not isinstance(base_config, dict) else base_config,
            base_seed,
            _corpus_digest(corpus),
        )
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def repeated_benchmark(
    corpus: Corpus,
    methods: Sequence[TrainMethod] = ALL_METHODS,
    repeats: int = DEFAULT_REPEATS,
    split_fractions: tuple[float, float, float] = DEFAULT_SPLIT,
    base_seed: int = 0,
    train_config: TrainConfig | None = None,
    workers: int = 1,
    collect_curves: bool = False,
) -> BenchmarkReport:
    """Train every method on every repeat's split and aggregate test metrics.

    Worker processes only parallelize over repeats; results are assembled in
    repeat order, so the report is identical for any worker count.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    if not methods:
        raise ValueError("no methods requested")
    base_config = train_config or TrainConfig()
    methods = list(methods)

    run = partial(_run_repeat, corpus, methods, base_seed, split_fractions, base_config, collect_curves)
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
    per_method_curves: dict[str, list[dict[str, np.ndarray]]] = {m.value: [] for m in methods}
    for repeat_rows, repeat_curves in results:
        rows.extend(repeat_rows)
        for name, c in repeat_curves.items():
            per_method_curves[name].append(c)

    rows.sort(key=lambda row: (methods.index(TrainMethod(row.method)), row.repeat))

    curves: dict[str, dict[str, np.ndarray]] = {}
    if collect_curves:
        for name, entries in per_method_curves.items():
            if entries:
                curves[name] = {
                    "grid": CURVE_GRID.copy(),
                    "tpr": np.mean([e["tpr"] for e in entries], axis=0),
                    "precision": np.mean([e["precision"] for e in entries], axis=0),
                }

    return BenchmarkReport(
        methods=[m.value for m in methods],
        repeats=repeats,
        rows=rows,
        summaries=summarize(rows),
        fingerprint=_fingerprint(corpus, methods, repeats, split_fractions, base_config, base_seed),
        curves=curves,
    )


# --- noise calibration -------------------------------------------------------


def label_accuracy_for(config: SynthConfig) -> float:
    """Noisy-label accuracy of the heuristic linkage on one generated cohort."""
    cohort = generate_cohort(config)
    links = match_newborns(cohort.mothers, cohort.newborns, cohort.vocab)
    _, label_acc = link_accuracy(links, cohort.truth, cohort.newborns, cohort.vocab)
    return label_acc


def mean_label_accuracy(config: SynthConfig, n_seeds: int = 5) -> float:
    """Average linkage label accuracy over seeds derived from config.seed.
    Uses the same seed schedule as calibrate_noise, so a calibrated config
    evaluates on exactly the cohorts the calibration saw."""
    total = 0.0
    for i in range(n_seeds):
        total += label_accuracy_for(
            replace(config, seed=derive_seed(config.seed, "calibration", i))
        )
    return total / n_seeds


def calibrate_noise(
    target: float = 0.72,
    config: SynthConfig | None = None,
    tolerance: float = 0.02,
    n_seeds: int = 5,
    max_steps: int = 30,
) -> ClericalNoiseModel:
    """Bisection on the newborn misclassification rate until the mean noisy-
    label accuracy over seeded cohorts lands within tolerance of the target.
    All other noise channels stay at their configured values."""
    base = config or SynthConfig()
    if not 0.5 < target <= 1.0:
        raise ValueError(f"target accuracy must be in (0.5, 1], got {target}")

    def mean_accuracy(rate: float) -> float:
        cfg = replace(
            base, clerical_noise=replace(base.clerical_noise, misclassified_newborn_rate=rate)
        )
        return mean_label_accuracy(cfg, n_seeds)

    lo, hi = 0.0, 1.0
    f_lo = mean_accuracy(lo)
    if abs(f_lo - target) <= tolerance:
        return replace(base.clerical_noise, misclassified_newborn_rate=lo)
    if f_lo < target:
        raise CalibrationError(
            f"target {target} unreachable: accuracy is {f_lo:.4f} even with no misclassification"
        )
    f_hi = mean_accuracy(hi)
    if f_hi > target + tolerance:
        raise CalibrationError(
            f"target {target} below reach: accuracy stays {f_hi:.4f} at full misclassification"
        )
    for _ in range(max_steps):
        mid = 0.5 * (lo + hi)
        f_mid = mean_accuracy(mid)
        if abs(f_mid - target) <= tolerance:
            return replace(base.clerical_noise, misclassified_newborn_rate=mid)
        if f_mid > target:
            lo, f_lo = mid, f_mid
        else:
            hi, f_hi = mid, f_mid
    raise CalibrationError(
        f"no convergence in {max_steps} steps: bracket [{lo:.4f}, {hi:.4f}] "
        f"with accuracies [{f_lo:.4f}, {f_hi:.4f}] around target {target}"
    )


# --- plain SVG output --------------------------------------------------------

_SVG_W, _SVG_H, _SVG_M = 480, 360, 56


def _svg_open(title: str) -> list[str]:
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" height="{_SVG_H}" '
        f'viewBox="0 0 {_SVG_W} {_SVG_H}">',
        f'<rect width="{_SVG_W}" height="{_SVG_H}" fill="white"/>',
        f'<text x="{_SVG_W / 2:.0f}" y="24" text-anchor="middle" font-size="14" '
        f'font-family="sans-serif">{title}</text>',
    ]


def _svg_axes(xlabel: str, ylabel: str) -> list[str]:
    x0, y0, x1, y1 = _SVG_M, _SVG_H - _SVG_M, _SVG_W - 16, 40
    return [
        f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}" stroke="black"/>',
        f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" stroke="black"/>',
        f'<text x="{(x0 + x1) / 2:.0f}" y="{_SVG_H - 16}" text-anchor="middle" '
        f'font-size="12" font-family="sans-serif">{xlabel}</text>',
        f'<text x="16" y="{(y0 + y1) / 2:.0f}" text-anchor="middle" font-size="12" '
        f'font-family="sans-serif" transform="rotate(-90 16 {(y0 + y1) / 2:.0f})">{ylabel}</text>',
    ]


def _to_px(x: float, y: float) -> tuple[float, float]:
    x0, y0, x1, y1 = _SVG_M, _SVG_H - _SVG_M, _SVG_W - 16, 40
    return x0 + x * (x1 - x0), y0 - y * (y0 - y1)


def curve_svg(xs: np.ndarray, ys: np.ndarray, title: str, xlabel: str, ylabel: str) -> str:
    parts = _svg_open(title) + _svg_axes(xlabel, ylabel)
    pts = " ".join(f"{px:.2f},{py:.2f}" for px, py in (_to_px(float(x), float(y)) for x, y in zip(xs, ys)))
    parts.append(f'<polyline points="{pts}" fill="none" stroke="#1f6fb2" stroke-width="1.5"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def summary_svg(names: Sequence[str], means: Sequence[float], stds: Sequence[float], title: str) -> str:
    parts = _svg_open(title) + _svg_axes("method", "score")
    n = len(names)
    for k, (name, mean, std) in enumerate(zip(names, means, stds)):
        x = (k + 0.5) / max(n, 1)
        cx, cy = _to_px(x, float(mean))
        _, y_hi = _to_px(x, min(1.0, float(mean + std)))
        _, y_lo = _to_px(x, max(0.0, float(mean - std)))
        parts.append(f'<line x1="{cx:.2f}" y1="{y_lo:.2f}" x2="{cx:.2f}" y2="{y_hi:.2f}" stroke="#444"/>')
        parts.append(f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="3.5" fill="#1f6fb2"/>')
        parts.append(
            f'<text x="{cx:.2f}" y="{_SVG_H - _SVG_M + 16}" text-anchor="middle" font-size="9" '
            f'font-family="sans-serif">{name}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
