"""The benchmark's workloads: ``prep`` and ``train``.

Each workload has a set-up that builds its inputs from the workload seed, an
operation (the timed call), and a check of that operation's outputs. The
program sees only the generated inputs; every seed it receives is derived
here from the one workload seed.

Modules are fetched with ``importlib.import_module`` and their functions are
looked up at call time (``train_mod.train(...)``), so the tracer's patches
on those modules reach the benchmark's own calls too.
"""

from __future__ import annotations

import hashlib
import importlib
import math
import tempfile
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

import numpy as np

bench = importlib.import_module("pretermalc.bench")
metrics_mod = importlib.import_module("pretermalc.metrics")
net = importlib.import_module("pretermalc.net")
noise_mod = importlib.import_module("pretermalc.noise")
records = importlib.import_module("pretermalc.records")
synth = importlib.import_module("pretermalc.synth")
train_mod = importlib.import_module("pretermalc.train")

TARGET_ACCURACY = 0.72
CALIBRATION_TOLERANCE = 0.02  # calibrate_noise's default, restated for the check
LINK_ACCURACY_BAND = (0.66, 0.78)  # one cohort's label accuracy around the 5-cohort target
TEST_AUC_BAND = (0.65, 1.0)  # 10-epoch ALC model; seeds 0-5 gave 0.76-0.86
SPLIT = (0.7, 0.15, 0.15)


def sub_seed(seed: int, tag: str) -> int:
    """Seed for one input stream, derived from the workload seed here so that
    the program's own seed scheme does not decide the inputs."""
    digest = hashlib.sha256(f"{seed}:{tag}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little") >> 1


def corpus_digest(corpus) -> str:
    """Content digest of a corpus: vocabulary, then every example's id,
    labels and visits (day, admission, discharge, sorted codes)."""
    h = hashlib.sha256()
    h.update("\n".join(corpus.vocab).encode("utf-8"))
    for part in (corpus.d_star, corpus.d_tilde, corpus.d_prime):
        h.update(b"\x00")
        for ex in part:
            rec = ex.record
            visits = tuple((v.day, v.t_adm, v.t_dis, tuple(sorted(v.codes))) for v in rec.visits)
            h.update(repr((rec.patient_id, rec.hospital_id, ex.clean_label, ex.noisy_label, visits)).encode("utf-8"))
    return h.hexdigest()[:16]


def sha16(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()[:16]


@dataclass
class OpResult:
    """What one operation measured and produced. ``check`` runs after the
    timed (and, in a traced run, traced) region; it returns the failed
    checks and may fill in ``note``."""

    wall_s: float
    check: Callable[[], list[str]] = lambda: []
    train_examples: int = 0
    train_s: float = 0.0
    scored: int = 0
    score_s: float = 0.0
    test_auc: float | None = None
    digest: str = ""
    note: str = ""  # printed with the operation's line
    extra: dict = field(default_factory=dict)


# --- shared pieces ---------------------------------------------------------


def corpus_for(seed: int, config=None):
    corpus, _, _ = bench.build_corpus(config or synth.SynthConfig(seed=seed))
    return corpus


@dataclass
class TrainInputs:
    corpus: object
    split: object
    c_hat: object
    init: object
    config: object
    examples: list  # d_star then d_tilde: every corpus example, scored in this order


def train_inputs(corpus, seed: int) -> TrainInputs:
    """The 70 % clean split, Ĉ from its dual-labeled part, initial weights."""
    split = bench.split_examples(corpus.d_star, SPLIT, sub_seed(seed, "split"))
    train_ids = {ex.patient_id for ex in split.train}
    c_hat = noise_mod.estimate_corruption_matrix(
        [ex for ex in corpus.d_prime if ex.patient_id in train_ids]
    )
    init = net.init_params(net.NetDims(vocab_size=len(corpus.vocab)), sub_seed(seed, "init"))
    config = train_mod.TrainConfig(seed=sub_seed(seed, "train"))
    examples = list(corpus.d_star) + list(corpus.d_tilde)
    return TrainInputs(corpus, split, c_hat, init, config, examples)


def examples_consumed(method, n_epochs: int, d_star, d_tilde) -> int:
    """Training examples one ``train`` call reads: epochs times pool size."""
    sizes = {
        train_mod.CLEAN: len(d_star),
        train_mod.NOISY: len(d_tilde),
        train_mod.MIXED: len(train_mod.mixed_examples(d_star, d_tilde)),
    }
    return sum(sizes[spec.dataset] for spec in train_mod.plan_epochs(method, n_epochs))


def train_and_score(inputs: TrainInputs) -> OpResult:
    """One default ALC run, then a forward-only pass over every corpus
    example (the timed part), then, untimed, the test metrics a benchmark
    repeat computes for each model: ROC-AUC, PR-AUC and both curves."""
    t0 = time.perf_counter()
    model, log = train_mod.train(
        inputs.init, inputs.split.train, inputs.corpus.d_tilde, inputs.c_hat, inputs.config
    )
    t1 = time.perf_counter()
    scores = train_mod.score_examples(model, inputs.examples)
    t2 = time.perf_counter()

    position: dict[str, int] = {}
    for i, ex in enumerate(inputs.examples):
        position.setdefault(ex.patient_id, i)
    test_scores = scores[[position[ex.patient_id] for ex in inputs.split.test]]
    labels = [ex.clean_label for ex in inputs.split.test]
    test_auc = metrics_mod.auc(test_scores, labels)
    test_pr_auc = metrics_mod.pr_auc(test_scores, labels)
    curves = (metrics_mod.roc_points(test_scores, labels), metrics_mod.pr_points(test_scores, labels))
    losses = [row.mean_loss for row in log]
    result = OpResult(
        wall_s=t2 - t0,
        train_examples=examples_consumed(
            inputs.config.method, inputs.config.n_epochs, inputs.split.train, inputs.corpus.d_tilde
        ),
        train_s=t1 - t0,
        scored=len(inputs.examples),
        score_s=t2 - t1,
        test_auc=test_auc,
        digest=sha16(scores.tobytes(), repr(losses).encode("utf-8")),
        note=f"test_auc={test_auc:.6f}",
    )

    def check() -> list[str]:
        failures = []
        if not all(math.isfinite(x) for x in losses):
            failures.append(f"non-finite training loss in {losses}")
        probs = net.predict_probs(model, [net.sequence_of(ex) for ex in inputs.split.test])
        if not np.all(np.isfinite(probs)) or not np.allclose(probs.sum(axis=1), 1.0, rtol=0, atol=1e-12):
            failures.append("class probabilities are not finite rows summing to 1")
        # Batches of other lengths round differently, so scores agree to
        # rounding, not bit for bit.
        if not np.allclose(test_scores, probs[:, 0], rtol=0, atol=1e-12):
            failures.append("score_examples disagrees with predict_probs on the test split")
        if not TEST_AUC_BAND[0] <= test_auc <= TEST_AUC_BAND[1]:
            failures.append(f"test AUC {test_auc:.6f} outside {TEST_AUC_BAND}")
        if not 0.0 <= test_pr_auc <= 1.0:
            failures.append(f"test PR-AUC {test_pr_auc} outside [0, 1]")
        if not all(np.all((0.0 <= a) & (a <= 1.0)) for pair in curves for a in pair):
            failures.append("a curve point lies outside [0, 1]")
        return failures

    result.check = check
    return result


# --- prep ------------------------------------------------------------------


def prep_setup(seed: int):
    return synth.SynthConfig(seed=seed)


def save_corpus(corpus, paths: dict) -> None:
    """Write the vocabulary and the d_star/d_tilde files through ``records``."""
    corpus.vocab.save(paths["vocabulary.txt"])
    records.save_examples(corpus.d_star, paths["d_star.jsonl"], corpus.vocab)
    records.save_examples(corpus.d_tilde, paths["d_tilde.jsonl"], corpus.vocab)


def prep_op(config, workdir: Path) -> OpResult:
    """Calibrate the clerical noise, build the corpus with it, then save the
    vocabulary and the d_star/d_tilde files and read them back the way the
    ``benchmark`` subcommand does."""
    t0 = time.perf_counter()
    clerical = bench.calibrate_noise(TARGET_ACCURACY, config)
    calibrated = replace(config, clerical_noise=clerical)
    corpus, cohort, links = bench.build_corpus(calibrated)
    with tempfile.TemporaryDirectory(dir=workdir) as tmp:
        paths = {name: Path(tmp) / name for name in ("vocabulary.txt", "d_star.jsonl", "d_tilde.jsonl")}
        save_corpus(corpus, paths)
        loaded = bench.Corpus.from_files(
            paths["d_star.jsonl"], paths["d_tilde.jsonl"], paths["vocabulary.txt"], calibrated
        )
        t1 = time.perf_counter()
        digest = sha16(*(p.read_bytes() for p in paths.values()))
    result = OpResult(wall_s=t1 - t0, digest=digest, extra={"corpus": loaded})

    def check() -> list[str]:
        failures = []
        accuracy = bench.mean_label_accuracy(calibrated)
        if abs(accuracy - TARGET_ACCURACY) > CALIBRATION_TOLERANCE:
            failures.append(
                f"calibrated rate {clerical.misclassified_newborn_rate} gives accuracy "
                f"{accuracy:.4f}, outside {TARGET_ACCURACY}±{CALIBRATION_TOLERANCE}"
            )
        _, label_acc = bench.link_accuracy(links, cohort.truth, cohort.newborns, cohort.vocab)
        result.note = (
            f"rate={clerical.misclassified_newborn_rate:.6f} mean_accuracy={accuracy:.4f} "
            f"label_accuracy={label_acc:.4f}"
        )
        if not LINK_ACCURACY_BAND[0] <= label_acc <= LINK_ACCURACY_BAND[1]:
            failures.append(f"linked label accuracy {label_acc:.4f} outside {LINK_ACCURACY_BAND}")
        if (
            list(loaded.vocab) != list(corpus.vocab)
            or loaded.d_star != corpus.d_star
            or loaded.d_tilde != corpus.d_tilde
            or loaded.d_prime != corpus.d_prime
        ):
            failures.append("reloaded corpus differs from the built one")
        return failures

    result.check = check
    return result


# --- scoring ---------------------------------------------------------------


def score_pass(corpus, seed: int) -> OpResult:
    """Forward-only pass over every corpus example with the initial weights.
    Weights do not change the cost of a forward pass, so this times the same
    scoring work a trained model needs."""
    init = net.init_params(net.NetDims(vocab_size=len(corpus.vocab)), sub_seed(seed, "init"))
    examples = list(corpus.d_star) + list(corpus.d_tilde)
    t0 = time.perf_counter()
    scores = train_mod.score_examples(init, examples)
    wall = time.perf_counter() - t0
    return OpResult(
        wall_s=wall,
        check=lambda: [] if np.all(np.isfinite(scores)) else ["non-finite scores"],
        scored=len(examples),
        score_s=wall,
    )
