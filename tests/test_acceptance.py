"""End-to-end acceptance suite.

Seven criteria, each printed as a single pass/fail line (run with `pytest
tests/test_acceptance.py -s` to see them live). The heavyweight pieces, noise
calibration and the 20-repeat benchmark on the default-scale corpus, are
cached at module level and shared between criteria.
"""

import functools
import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np

from helpers import apply_class_conditional_noise, max_gradient_rel_error, random_small_setup, reference_matrix
from test_linkage import VOCAB as LINK_VOCAB
from test_linkage import oracle_match, random_instance as random_link_instance
from test_metrics import (
    pair_enumeration_auc,
    random_instance as random_score_instance,
    threshold_enumeration_pr_auc,
)
from test_noise import dual_example

from pretermalc.bench import (
    BenchmarkConfig,
    build_corpus,
    calibrate_noise,
    mean_label_accuracy,
    repeated_benchmark,
    summarize,
)
from pretermalc.cli import main, usable_cpus
from pretermalc.metrics import auc, pr_auc
from pretermalc.net import IDENTITY
from pretermalc.noise import estimate_corruption_matrix
from pretermalc.records import Label
from pretermalc.synth import SynthConfig
from pretermalc.train import TrainMethod

REFERENCE_ENTRIES = np.array([[0.68, 0.32], [0.20, 0.80]])
BENCH_WORKERS = min(4, usable_cpus())


@contextmanager
def verdict(number, label):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\nacceptance {number}/7 ({label}): FAIL [{time.perf_counter() - started:.1f}s]")
        raise
    print(f"\nacceptance {number}/7 ({label}): PASS [{time.perf_counter() - started:.1f}s]")


@functools.lru_cache(maxsize=1)
def calibrated_config() -> SynthConfig:
    return replace(SynthConfig(), clerical_noise=calibrate_noise(0.72))


@functools.lru_cache(maxsize=1)
def default_corpus():
    corpus, _, _ = build_corpus(calibrated_config())
    return corpus


@functools.lru_cache(maxsize=1)
def benchmark_means() -> dict[str, float]:
    methods = [
        TrainMethod.ALC,
        TrainMethod.GLC_NOISY_THEN_CLEAN,
        TrainMethod.GLC_CLEAN_THEN_NOISY,
        TrainMethod.NOLC_CLEAN,
        TrainMethod.NOLC_NOISY,
    ]
    report = repeated_benchmark(default_corpus(), BenchmarkConfig(methods, repeats=20), workers=BENCH_WORKERS)
    return {name: summary.auc_mean for name, summary in summarize(report.rows).items()}


def test_1_gradients_match_finite_differences():
    with verdict(1, "reverse-mode gradients vs central differences"):
        started = time.perf_counter()
        for seed in range(5):
            params, batch, labels = random_small_setup(seed, vocab_size=20, d=8)
            for c in (IDENTITY, reference_matrix()):
                worst = max_gradient_rel_error(params, batch, labels, c, h=1e-5)
                assert worst < 1e-4, (seed, c.entries.tolist(), worst)
        assert time.perf_counter() - started < 60.0


def test_2_corruption_estimate_recovers_known_flip_rates():
    with verdict(2, "corruption matrix estimate on 2,133 flipped labels"):
        rng = np.random.default_rng(2133)
        clean = [Label(int(v)) for v in rng.integers(0, 2, size=2133)]
        noisy = apply_class_conditional_noise(clean, reference_matrix(), seed=1)
        examples = [dual_example(i, y, t) for i, (y, t) in enumerate(zip(clean, noisy))]
        estimated = estimate_corruption_matrix(examples)
        assert np.max(np.abs(estimated.entries - REFERENCE_ENTRIES)) <= 0.04
        assert np.max(np.abs(estimated.entries.sum(axis=1) - 1.0)) <= 1e-12


def test_3_linkage_matches_the_exhaustive_oracle():
    with verdict(3, "heuristic linkage vs all-pairs oracle, 1000 instances"):
        started = time.perf_counter()
        from pretermalc.linkage import match_newborns

        rng = np.random.default_rng(77)
        for _ in range(1000):
            mothers, newborns = random_link_instance(rng)
            got = match_newborns(mothers, newborns, LINK_VOCAB)
            want = oracle_match(mothers, newborns, LINK_VOCAB)
            assert got == want
        assert time.perf_counter() - started < 30.0


def test_4_noise_calibration_hits_the_target_accuracy():
    with verdict(4, "calibrated linkage label accuracy 0.72 +/- 0.02"):
        config = calibrated_config()
        accuracy = mean_label_accuracy(config)
        assert abs(accuracy - 0.72) <= 0.02, accuracy
        estimated = estimate_corruption_matrix(default_corpus().d_prime)
        assert np.all(np.diag(estimated.entries) > 0.5), estimated.entries


def test_default_calibration_lands_on_a_quarter():
    # Rates 0, 0.5 and 0.25 are evaluated; 0.25 is the first within tolerance.
    assert calibrated_config().clerical_noise.misclassified_newborn_rate == 0.25


def test_5_alternating_schedule_ranks_ahead_on_the_default_corpus():
    with verdict(5, "mean-AUC ordering over 20 repeats"):
        started = time.perf_counter()
        means = benchmark_means()
        assert means["ALC"] - means["NoLC_noisy"] >= 0.03, means
        assert means["ALC"] >= means["NoLC_clean"], means
        family = (means["ALC"], means["GLC_noisy_then_clean"], means["GLC_clean_then_noisy"])
        assert means["GLC_clean_then_noisy"] == min(family), means
        assert time.perf_counter() - started < 1800.0


def test_6_pipeline_reports_are_identical_for_any_thread_count(tmp_path):
    with verdict(6, "byte-identical pipeline files across --threads"):
        flags = [
            "pipeline", "--mothers", "300", "--hospitals", "3", "--seed", "9",
            "--no-calibrate", "--repeats", "2", "--epochs", "2",
            "--methods", "ALC,NoLC_noisy",
        ]
        runs = {"t1a": "1", "t1b": "1", "t3": "3"}
        for sub, threads in runs.items():
            code = main([*flags, "--threads", threads, "--out", str(tmp_path / sub)])
            assert code == 0
        written = {
            sub: {p.relative_to(tmp_path / sub).as_posix(): p.read_bytes() for p in (tmp_path / sub).rglob("*")
                  if p.is_file()}
            for sub in runs
        }
        names = set(written["t1a"])
        assert {"report.csv", "report_raw.csv", "c_hat.csv", "curves/roc_ALC.svg", "curves/pr_NoLC_noisy.svg"} <= names
        for sub in runs:
            assert set(written[sub]) == names, sub
        for name in sorted(names):
            assert len({written[sub][name] for sub in runs}) == 1, name


def test_7_ranking_metrics_match_enumeration_oracles():
    with verdict(7, "AUC and PR-AUC vs enumeration oracles, 100 instances"):
        rng = np.random.default_rng(7)
        for i in range(100):
            scores, labels = random_score_instance(rng, n_max=200, tie_heavy=i % 3 == 0)
            assert abs(auc(scores, labels) - pair_enumeration_auc(scores, labels)) <= 1e-12
            assert abs(pr_auc(scores, labels) - threshold_enumeration_pr_auc(scores, labels)) <= 1e-12
