"""Repeated benchmark, seed derivation, splits, noise calibration, and the
SVG report helpers."""

import functools
import os
import subprocess
import sys
import textwrap
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import full_cohort_label_accuracy
import pretermalc

from pretermalc import bench, synth
from pretermalc.bench import (
    CALIBRATION_TOLERANCE,
    CURVE_GRID,
    MAX_CALIBRATION_STEPS,
    BenchmarkConfig,
    BenchmarkError,
    CalibrationError,
    MethodSummary,
    RepeatRow,
    calibrate_noise,
    derive_seed,
    build_corpus,
    mean_label_accuracy,
    repeat_inputs,
    repeated_benchmark,
    split_examples,
    summarize,
)
from pretermalc.cli import benchmark_stage, curve_svg, summary_svg
from pretermalc.metrics import auc, pr_auc
from pretermalc.noise import estimate_corruption_matrix
from pretermalc.records import Label, LabeledExample, PatientRecord, Role, Visit
from pretermalc.synth import ClericalNoiseModel, SynthConfig
from pretermalc.train import TrainConfig, TrainMethod, mixed_examples, score_examples, train

SMALL = SynthConfig(n_mothers=200, n_hospitals=3, seed=11)
# At seed 0 all five dual-labeled mothers are full-term. At seed 1 and base
# seed 0, a split that holds one dual-labeled class in its training part is
# drawn before one that holds both.
TINY = SynthConfig(n_mothers=80, n_hospitals=2)
FAST = 2  # epochs per training run


@functools.cache
def corpus_of(config: SynthConfig):
    built, _, _ = build_corpus(config)
    return built


@pytest.fixture(scope="module")
def corpus():
    return corpus_of(SMALL)


def mk_examples(n):
    out = []
    for i in range(n):
        visit = Visit(day=0, codes=frozenset({i % 7}), t_adm=60, t_dis=120)
        rec = PatientRecord(patient_id=f"p{i:04d}", hospital_id="h00", role=Role.MOTHER, visits=(visit,))
        out.append(LabeledExample(rec, clean_label=Label.PRETERM if i % 3 == 0 else Label.FULL_TERM))
    return out


# --- seed derivation ------------------------------------------------------------


def test_derived_seeds_are_stable_and_distinct():
    assert derive_seed(0, "split", 3) == derive_seed(0, "split", 3)
    assert derive_seed(0, "split", 3) != derive_seed(0, "split", 4)
    assert derive_seed(0, "split", 3) != derive_seed(0, "init", 3)
    assert derive_seed(1, "split", 3) != derive_seed(0, "split", 3)
    assert derive_seed("split", 0) != derive_seed(0, "split")


def test_derived_seeds_fit_in_63_bits():
    for parts in [(0,), (123, "x"), ("deep", "nest", 9, 9, 9)]:
        seed = derive_seed(*parts)
        assert 0 <= seed < 2**63


# --- splits ---------------------------------------------------------------------


def test_split_sizes_floor_toward_the_test_part():
    split = split_examples(mk_examples(101), (0.7, 0.15, 0.15), seed=0)
    assert (len(split.train), len(split.validation), len(split.test)) == (70, 15, 16)


def test_split_is_a_permutation_of_the_input():
    examples = mk_examples(40)
    split = split_examples(examples, (0.7, 0.15, 0.15), seed=3)
    combined = sorted(ex.patient_id for ex in split.train + split.validation + split.test)
    assert combined == sorted(ex.patient_id for ex in examples)


def test_split_depends_only_on_the_seed():
    examples = mk_examples(40)
    a = split_examples(examples, (0.7, 0.15, 0.15), seed=9)
    b = split_examples(examples, (0.7, 0.15, 0.15), seed=9)
    c = split_examples(examples, (0.7, 0.15, 0.15), seed=10)
    assert [ex.patient_id for ex in a.train] == [ex.patient_id for ex in b.train]
    assert [ex.patient_id for ex in a.train] != [ex.patient_id for ex in c.train]


def test_split_rejects_bad_fractions():
    with pytest.raises(ValueError, match="sum to 1"):
        split_examples(mk_examples(10), (0.7, 0.2, 0.2), seed=0)
    with pytest.raises(ValueError, match="positive"):
        split_examples(mk_examples(10), (1.0, 0.0, 0.0), seed=0)


# --- repeated benchmark -----------------------------------------------------------


def test_benchmark_report_is_reproducible(corpus):
    methods = [TrainMethod.ALC, TrainMethod.NOLC_CLEAN]
    a = repeated_benchmark(corpus, BenchmarkConfig(methods, 2, 4, FAST))
    b = repeated_benchmark(corpus, BenchmarkConfig(methods, 2, 4, FAST))
    assert a.raw_csv() == b.raw_csv()
    assert a.report_csv() == b.report_csv()
    assert a.fingerprint == b.fingerprint


def test_fingerprint_covers_base_seed_and_corpus_content(corpus):
    config = BenchmarkConfig([TrainMethod.NOLC_CLEAN], repeats=1, n_epochs=1)
    first = repeated_benchmark(corpus, config).fingerprint
    assert repeated_benchmark(corpus, config).fingerprint == first
    assert repeated_benchmark(corpus, replace(config, base_seed=1)).fingerprint != first
    reordered = replace(corpus, d_star=corpus.d_star[::-1])
    assert repeated_benchmark(reordered, config).fingerprint != first


def test_benchmark_is_independent_of_worker_count(corpus):
    methods = [TrainMethod.ALC, TrainMethod.NOLC_CLEAN]
    serial = repeated_benchmark(corpus, BenchmarkConfig(methods, 2, 4, FAST), workers=1)
    pooled = repeated_benchmark(corpus, BenchmarkConfig(methods, 2, 4, FAST), workers=2)
    assert serial.raw_csv() == pooled.raw_csv()
    assert serial.report_csv() == pooled.report_csv()


def test_pooled_run_from_an_unguarded_script_fails_instead_of_hanging(tmp_path):
    script = tmp_path / "unguarded.py"
    script.write_text(textwrap.dedent("""
        from pretermalc.bench import BenchmarkConfig, build_corpus, repeated_benchmark
        from pretermalc.synth import SynthConfig
        from pretermalc.train import TrainMethod

        corpus, _, _ = build_corpus(SynthConfig(n_mothers=200, n_hospitals=3, seed=11))
        repeated_benchmark(corpus, BenchmarkConfig([TrainMethod.NOLC_CLEAN], repeats=2, n_epochs=1), workers=2)
    """))
    env = {**os.environ, "PYTHONPATH": str(Path(pretermalc.__file__).parents[1])}
    done = subprocess.run([sys.executable, str(script)], capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode != 0
    assert "__main__" in done.stderr


def test_single_repeat_reports_zero_spread(corpus):
    report = repeated_benchmark(corpus, BenchmarkConfig([TrainMethod.NOLC_CLEAN], 1, 4, FAST))
    summary = summarize(report.rows)["NoLC_clean"]
    assert summary.auc_std == 0.0
    assert summary.prauc_std == 0.0
    assert ",0.000000," in report.report_csv().splitlines()[1]


def test_clean_only_training_never_touches_the_noisy_set(corpus):
    without_noisy = replace(corpus, d_tilde=())
    config = BenchmarkConfig([TrainMethod.NOLC_CLEAN], 2, 4, FAST)
    assert repeated_benchmark(corpus, config).raw_csv() == repeated_benchmark(without_noisy, config).raw_csv()


def test_report_layout(corpus):
    methods = [TrainMethod.NOLC_CLEAN, TrainMethod.NOLC_NOISY]
    report = repeated_benchmark(corpus, BenchmarkConfig(methods, 2, 4, FAST))
    raw = report.raw_csv().splitlines()
    assert raw[0] == "method,repeat,auc,pr_auc"
    assert len(raw) == 1 + 2 * 2
    assert [line.split(",")[:2] for line in raw[1:]] == [
        ["NoLC_clean", "0"], ["NoLC_clean", "1"], ["NoLC_noisy", "0"], ["NoLC_noisy", "1"],
    ]
    summary = report.report_csv().splitlines()
    assert summary[0] == "method,auc_mean,auc_std,prauc_mean,prauc_std"
    assert [line.split(",")[0] for line in summary[1:]] == ["NoLC_clean", "NoLC_noisy"]
    for line in raw[1:]:
        for cell in line.split(",")[2:]:
            whole, frac = cell.split(".")
            assert len(frac) == 6
            assert 0.0 <= float(cell) <= 1.0


def test_benchmark_can_collect_mean_curves(corpus):
    report = repeated_benchmark(corpus, BenchmarkConfig([TrainMethod.NOLC_CLEAN], 2, 4, FAST))
    curves = report.curves["NoLC_clean"]
    assert set(curves) == {"roc", "pr"}
    assert curves["roc"].shape == curves["pr"].shape == CURVE_GRID.shape
    assert np.all(np.diff(curves["roc"]) >= -1e-12)
    assert np.all((curves["pr"] >= 0) & (curves["pr"] <= 1))


def test_a_methods_rows_and_curves_do_not_depend_on_the_other_methods(corpus):
    methods = [TrainMethod.ALC, TrainMethod.NOLC_CLEAN]
    # (corpus, base seed, repeats). The second case draws another split for
    # one repeat wherever the split's acceptance depends on the methods run.
    for data, base_seed, repeats in ((corpus, 4, 2), (corpus_of(replace(TINY, seed=1)), 0, 3)):
        both = repeated_benchmark(data, BenchmarkConfig(methods, repeats, base_seed, FAST))
        for method in methods:
            case = (base_seed, repeats, method)
            alone = repeated_benchmark(data, BenchmarkConfig([method], repeats, base_seed, FAST))
            assert [row for row in both.rows if row.method == method.value] == alone.rows, case
            for kind, curve in alone.curves[method.value].items():
                assert np.array_equal(both.curves[method.value][kind], curve), (*case, kind)


def test_a_repeat_without_both_dual_labeled_classes_in_training_fails_for_any_method():
    data = corpus_of(replace(TINY, seed=0))
    assert {ex.clean_label for ex in data.d_prime} == {Label.FULL_TERM}
    with pytest.raises(BenchmarkError, match="^repeat 0: "):
        repeated_benchmark(data, BenchmarkConfig([TrainMethod.NOLC_CLEAN], 1, 0, FAST))


def test_repeat_estimates_c_from_the_dual_labeled_part_of_its_training_split(corpus):
    dual_ids = {ex.patient_id for ex in corpus.d_prime}
    for repeat in range(3):
        inputs = repeat_inputs(corpus, repeat, base_seed=4)
        expected = estimate_corruption_matrix([ex for ex in inputs.split.train if ex.patient_id in dual_ids])
        assert np.array_equal(inputs.c_hat.counts, expected.counts), repeat
        assert np.array_equal(inputs.c_hat.entries, expected.entries), repeat


def test_c_hat_csv_holds_the_matrix_each_repeat_trained_with(corpus):
    report = repeated_benchmark(corpus, BenchmarkConfig([TrainMethod.ALC], 3, 4, 1))
    lines = report.c_hat_csv().splitlines()
    assert lines[0] == "repeat,c_pp,c_pf,c_fp,c_ff,n_pp,n_pf,n_fp,n_ff"
    assert len(lines) == 1 + 3
    for repeat, line in enumerate(lines[1:]):
        c_hat = repeat_inputs(corpus, repeat, base_seed=4).c_hat
        cells = line.split(",")
        assert int(cells[0]) == repeat
        assert [float(x) for x in cells[1:5]] == pytest.approx(c_hat.entries.ravel().tolist(), abs=5e-7)
        assert [int(n) for n in cells[5:]] == c_hat.counts.ravel().tolist()
        assert np.array_equal(report.c_hats[repeat].entries, c_hat.entries), repeat


def test_a_benchmark_stage_computes_each_methods_auc_once_per_repeat(corpus, monkeypatch, tmp_path, capsys):
    calls = []

    def counting_auc(scores, labels):
        calls.append(len(labels))
        return auc(scores, labels)

    monkeypatch.setattr(bench, "auc", counting_auc)
    benchmark_stage(corpus, BenchmarkConfig([TrainMethod.NOLC_CLEAN, TrainMethod.ALC], 2, 4, 1), 1, tmp_path)
    assert len(calls) == 2 * 2


def test_a_result_holds_each_methods_test_scores_and_the_rows_derive_from_them(corpus, monkeypatch):
    returned = []

    def recording_score(model, examples):
        returned.append(score_examples(model, examples))
        return returned[-1]

    monkeypatch.setattr(bench, "score_examples", recording_score)
    methods = [TrainMethod.NOLC_MIXED, TrainMethod.ALC]  # not in TrainMethod order
    report = repeated_benchmark(corpus, BenchmarkConfig(methods, 2, 4, n_epochs=1))
    assert [r.repeat for r in report.results] == [0, 1]
    for r in report.results:
        test_part = repeat_inputs(corpus, r.repeat, base_seed=4).split.test
        assert r.labels == tuple(ex.clean_label for ex in test_part)
        assert list(r.scores) == ["NoLC_mixed", "ALC"]
        for method, scores in r.scores.items():
            expected = returned.pop(0)
            assert scores.dtype == np.float64 and scores.tobytes() == expected.tobytes(), (r.repeat, method)
    assert not returned
    assert report.rows == [
        RepeatRow(m, r.repeat, auc(r.scores[m], r.labels), pr_auc(r.scores[m], r.labels))
        for m in ("NoLC_mixed", "ALC")
        for r in report.results
    ]


def test_no_validation_or_test_mother_reaches_a_training_pool(corpus, monkeypatch):
    pools, tested = [], []

    def recording_train(params, d_star, d_tilde, c, config):
        pools.append((config.method, tuple(d_star), tuple(d_tilde)))
        return train(params, d_star, d_tilde, c, config)

    def recording_score(model, examples):
        tested.append({ex.patient_id for ex in examples})
        return score_examples(model, examples)

    monkeypatch.setattr(bench, "train", recording_train)
    monkeypatch.setattr(bench, "score_examples", recording_score)
    repeats = 2
    repeated_benchmark(corpus, BenchmarkConfig(tuple(TrainMethod), repeats, 4, n_epochs=1))
    assert [method for method, _, _ in pools] == list(TrainMethod) * repeats
    all_ids = {ex.patient_id for ex in corpus.d_star}
    for (method, d_star, d_tilde), test_ids in zip(pools, tested):
        # The clean examples outside the clean pool must be exactly the
        # validation and test parts, which hold every scored mother.
        held_out = all_ids - {ex.patient_id for ex in d_star}
        assert len(d_star) == int(0.7 * len(all_ids)) and test_ids <= held_out, method
        for name, pool in (("d_tilde", d_tilde), ("mixed", mixed_examples(d_star, d_tilde))):
            leaked = held_out & {ex.patient_id for ex in pool}
            assert not leaked, (method, name, sorted(leaked)[:5])
        assert d_tilde == tuple(ex for ex in corpus.d_tilde if ex.patient_id not in held_out), method


def test_fingerprint_ignores_the_cohort_config(corpus):
    config = BenchmarkConfig([TrainMethod.NOLC_CLEAN], repeats=1, n_epochs=1)
    other = replace(corpus, config=replace(SMALL, n_mothers=999, clean_code_rate=0.6, n_hospitals=5))
    assert repeated_benchmark(other, config).fingerprint == repeated_benchmark(corpus, config).fingerprint


def test_a_train_config_in_place_of_the_worker_count_fails_at_the_call(corpus):
    # The epoch count is part of the request; nothing else of a TrainConfig
    # reaches a repeat, which sets each run's method and seed itself.
    with pytest.raises(TypeError):
        repeated_benchmark(corpus, BenchmarkConfig([TrainMethod.NOLC_CLEAN], repeats=1), TrainConfig(n_epochs=1))


def test_fingerprint_of_a_fixed_run_is_pinned(corpus):
    # The fingerprint hashes the methods, repeats, split, the train settings
    # (the epoch count, batch size and step size), base seed and corpus
    # digest, in that order. A change to what it hashes or how must show
    # here, since reports from different versions are compared by it.
    config = BenchmarkConfig([TrainMethod.NOLC_CLEAN, TrainMethod.ALC], repeats=2, base_seed=4, n_epochs=1)
    report = repeated_benchmark(corpus, config)
    assert report.fingerprint == "8aba0098fb7abba4"


def test_benchmark_config_takes_methods_by_name_or_member():
    config = BenchmarkConfig(["ALC", TrainMethod.NOLC_CLEAN])
    assert config.methods == (TrainMethod.ALC, TrainMethod.NOLC_CLEAN)
    assert BenchmarkConfig().methods == tuple(TrainMethod)


def test_benchmark_rejects_bad_requests():
    with pytest.raises(ValueError, match="repeats must be >= 1, got 0"):
        BenchmarkConfig(repeats=0)
    with pytest.raises(ValueError, match="methods: no methods given"):
        BenchmarkConfig(methods=[], repeats=1)


def test_benchmark_rejects_repeated_methods():
    methods = [TrainMethod.NOLC_CLEAN, TrainMethod.ALC, TrainMethod.NOLC_CLEAN]
    with pytest.raises(ValueError, match=r"methods: method\(s\) given more than once: NoLC_clean"):
        BenchmarkConfig(methods=methods, repeats=1)


# --- noise calibration ------------------------------------------------------------


@pytest.fixture
def two_cohorts_per_rate(monkeypatch):
    """Two cohorts per evaluated rate instead of five, for speed."""
    monkeypatch.setattr(bench, "CALIBRATION_SEEDS", 2)


def test_perfect_records_need_no_calibration(two_cohorts_per_rate):
    config = replace(SMALL, clerical_noise=ClericalNoiseModel.none())
    calibrated = calibrate_noise(target=1.0, config=config)
    assert calibrated.misclassified_newborn_rate == 0.0
    assert calibrated.time_jitter_sd == 0.0


def test_calibration_rejects_out_of_range_targets():
    with pytest.raises(ValueError, match="target accuracy"):
        calibrate_noise(target=0.5)
    with pytest.raises(ValueError, match="target accuracy"):
        calibrate_noise(target=1.2)


def test_mean_label_accuracy_is_deterministic(two_cohorts_per_rate):
    config = replace(SMALL, n_mothers=120)
    a = mean_label_accuracy(config)
    assert a == mean_label_accuracy(config)
    assert 0.0 <= a <= 1.0


@pytest.mark.parametrize("noise", [
    ClericalNoiseModel(),
    ClericalNoiseModel(time_jitter_sd=1440.0, missing_newborn_rate=0.4, swap_window_minutes=720,
                       misclassified_newborn_rate=0.3),
])
def test_mean_label_accuracy_equals_the_full_cohort_oracle(two_cohorts_per_rate, noise):
    config = replace(SMALL, n_mothers=600, clerical_noise=noise)
    assert mean_label_accuracy(config) == full_cohort_label_accuracy(config)


def test_a_warm_calibration_equals_the_full_cohort_oracle(two_cohorts_per_rate):
    """The rates of a default calibration, in its order: the 2nd and 3rd
    evaluations build their cohorts from the kept draws of the 1st."""
    info = synth._delivery_draws.cache_info
    for k, rate in enumerate((0.0, 0.5, 0.25)):
        config = replace(SMALL, n_mothers=600, clerical_noise=ClericalNoiseModel(misclassified_newborn_rate=rate))
        hits = info().hits
        assert mean_label_accuracy(config) == full_cohort_label_accuracy(config)
        if k:
            assert info().hits == hits + bench.CALIBRATION_SEEDS


def test_the_draw_cache_holds_an_evaluations_cohorts():
    assert synth._delivery_draws.cache_info().maxsize >= bench.CALIBRATION_SEEDS


def eager_calibration(accuracy, target):
    """The bisection as it ran when rate 1 was evaluated up front, over
    `accuracy(rate)`: the rate it returns, or the CalibrationError text."""
    lo, hi = 0.0, 1.0
    f_lo = accuracy(lo)
    if abs(f_lo - target) <= CALIBRATION_TOLERANCE:
        return lo
    if f_lo < target:
        raise CalibrationError(
            f"target {target} unreachable: accuracy is {f_lo:.4f} even with no misclassification"
        )
    f_hi = accuracy(hi)
    if f_hi > target + CALIBRATION_TOLERANCE:
        raise CalibrationError(
            f"target {target} below reach: accuracy stays {f_hi:.4f} at full misclassification"
        )
    for _ in range(MAX_CALIBRATION_STEPS):
        mid = 0.5 * (lo + hi)
        f_mid = accuracy(mid)
        if abs(f_mid - target) <= CALIBRATION_TOLERANCE:
            return mid
        if f_mid > target:
            lo, f_lo = mid, f_mid
        else:
            hi, f_hi = mid, f_mid
    raise CalibrationError(
        f"no convergence in {MAX_CALIBRATION_STEPS} steps: bracket [{lo:.4f}, {hi:.4f}] "
        f"with accuracies [{f_lo:.4f}, {f_hi:.4f}] around target {target}"
    )


def outcome(run, accuracy, target):
    """(rate or error text, rates evaluated) of `run(stub, target)`, where
    the stub records each rate it is asked for."""
    rates = []

    def stub(rate):
        rates.append(rate)
        return accuracy(rate)

    try:
        return run(stub, target), rates
    except CalibrationError as exc:
        return str(exc), rates


def lazy_calibration(accuracy, target):
    """calibrate_noise's rate with `accuracy(rate)` in place of the cohorts."""
    def stub(cfg):
        return accuracy(cfg.clerical_noise.misclassified_newborn_rate)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bench, "mean_label_accuracy", stub)
        return calibrate_noise(target).misclassified_newborn_rate


def test_default_like_calibration_never_evaluates_rate_1():
    assert outcome(lazy_calibration, lambda rate: 0.95 - 0.92 * rate, 0.72) == (0.25, [0.0, 0.5, 0.25])


def test_a_target_below_reach_is_found_at_the_first_step_that_needs_rate_1():
    assert outcome(lazy_calibration, lambda rate: 0.95 - 0.1 * rate, 0.72) == (
        "target 0.72 below reach: accuracy stays 0.8500 at full misclassification", [0.0, 0.5, 1.0]
    )


@pytest.mark.parametrize("points, rate, rates", [
    ({0.0: 0.95, 0.5: 0.72, 1.0: 0.80}, 0.5, [0.0, 0.5]),
    ({0.0: 0.95, 0.5: 0.60, 0.25: 0.73, 1.0: 0.80}, 0.25, [0.0, 0.5, 0.25]),
])
def test_a_non_monotone_accuracy_is_calibrated_where_rate_1_would_stay_above_the_target(points, rate, rates):
    below_reach = "target 0.72 below reach: accuracy stays 0.8000 at full misclassification"
    assert outcome(eager_calibration, points.get, 0.72)[0] == below_reach
    assert outcome(lazy_calibration, points.get, 0.72) == (rate, rates)


@settings(max_examples=200, deadline=None)
@given(
    values=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=8).map(lambda v: sorted(v, reverse=True)),
    step=st.booleans(),
    target=st.floats(0.5, 1.0, exclude_min=True),
)
def test_lazy_rate_1_matches_the_eager_bisection_on_falling_accuracy(values, step, target):
    knots = np.linspace(0.0, 1.0, len(values))
    if step:  # jumps can leave no rate within tolerance of the target
        def accuracy(rate):
            return values[min(int(rate * len(values)), len(values) - 1)]
    else:
        def accuracy(rate):
            return float(np.interp(rate, knots, values))
    eager, eager_rates = outcome(eager_calibration, accuracy, target)
    lazy, lazy_rates = outcome(lazy_calibration, accuracy, target)
    assert lazy == eager
    if "below reach" in str(lazy):  # found one midpoint later, at rate 0.5
        assert (lazy_rates, eager_rates) == ([0.0, 0.5, 1.0], [0.0, 1.0])
    else:  # the same midpoints, with rate 1 evaluated at most as often
        assert [r for r in lazy_rates if r != 1.0] == [r for r in eager_rates if r != 1.0]
        assert len(lazy_rates) <= len(eager_rates)


# --- SVG helpers -------------------------------------------------------------------


def test_curve_svg_is_a_deterministic_document():
    xs = np.linspace(0, 1, 11)
    ys = xs**2
    doc = curve_svg(xs, ys, "sweep", "x", "y")
    assert doc == curve_svg(xs, ys, "sweep", "x", "y")
    assert doc.startswith("<svg ")
    assert doc.endswith("</svg>\n")
    assert "<polyline" in doc and "sweep" in doc


def test_summary_svg_marks_every_method():
    summaries = {"a": MethodSummary(0.8, 0.02, 0.6, 0.01), "b": MethodSummary(0.7, 0.05, 0.5, 0.03)}
    doc = summary_svg(summaries, "auc", "scores")
    assert doc.count("<circle") == 2
    assert ">a</text>" in doc and ">b</text>" in doc
    assert doc.endswith("</svg>\n")
