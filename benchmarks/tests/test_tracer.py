"""Tests of the benchmark's tracer and entry point.

Run from the repository root:

    python3 -m pytest -q benchmarks/tests
"""

from __future__ import annotations

import importlib
import shutil
import subprocess
import sys
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCH_DIR = HERE.parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import tracer as tracer_mod  # noqa: E402
import workloads as wl  # noqa: E402

bench = importlib.import_module("pretermalc.bench")
synth = importlib.import_module("pretermalc.synth")
train_mod = importlib.import_module("pretermalc.train")

SMALL = synth.SynthConfig(seed=3, n_mothers=500, n_hospitals=2)


def small_corpus():
    return wl.corpus_for(0, SMALL)


def test_package_attribute_train_is_the_function_not_the_module():
    import pretermalc

    assert not isinstance(pretermalc.train, types.ModuleType)
    assert isinstance(importlib.import_module("pretermalc.train"), types.ModuleType)


def test_patches_apply_where_names_are_looked_up():
    at_caller = tracer_mod.Tracer()
    at_caller.patch("pretermalc.bench", "generate_cohort", "cohort")
    at_definition = tracer_mod.Tracer()
    at_definition.patch("pretermalc.synth", "generate_cohort", "cohort")
    for tracer in (at_caller, at_definition):
        with tracer:
            bench.build_corpus(SMALL)
    assert at_caller.calls("cohort") == 1
    assert at_definition.calls("cohort") == 0


def _binding(module, owner, method):
    target = importlib.import_module(module)
    return target.__dict__[owner] if method is None else getattr(target, owner).__dict__[method]


def test_every_patch_is_applied_then_restored():
    tracer = run.make_tracer(tracer_mod)
    keys = [(module, owner, method) for module, owner, method, _, _ in tracer._plan]
    before = {key: _binding(*key) for key in keys}
    with tracer:
        assert all(_binding(*key) is not before[key] for key in keys)
    assert all(_binding(*key) is before[key] for key in keys)


def test_traced_prep_operation_matches_untraced(tmp_path):
    plain = wl.prep_op(SMALL, tmp_path)
    tracer = run.make_tracer(tracer_mod)
    with tracer:
        traced = wl.prep_op(SMALL, tmp_path)
    assert traced.digest == plain.digest
    assert tracer.calls("bench.calibrate_eval") >= 2
    assert tracer.calls("synth.generate_cohort") == 5 * tracer.calls("bench.calibrate_eval") + 1
    assert tracer.calls("records.save") == 1 and tracer.calls("records.load") == 3
    assert not [f for f in plain.check() if "reloaded" in f]


def test_traced_train_operation_matches_untraced():
    inputs = wl.train_inputs(small_corpus(), seed=5)
    plain = wl.train_and_score(inputs)
    tracer = run.make_tracer(tracer_mod)
    with tracer:
        traced = wl.train_and_score(inputs)
    assert traced.digest == plain.digest
    assert traced.train_examples == plain.train_examples > 0
    assert tracer.calls("train.run") == 1 and tracer.calls("net.predict") == 1
    assert tracer.calls("net.forward") == tracer.calls("net.backward") == tracer.calls("train.optimizer_step") > 0
    assert tracer.calls("metrics.auc") == 2 and tracer.calls("metrics.curves") == 2
    assert 0.0 < tracer.counts["visits"] < tracer.counts["slots"]


def test_self_time_subtracts_direct_children():
    ticks = iter([0.0, 1.0, 2.0, 4.0, 5.0, 10.0])
    tracer = tracer_mod.Tracer(clock=lambda: next(ticks))
    with tracer.span("outer"):  # 0 .. 10
        with tracer.span("inner"):  # 1 .. 2
            pass
        with tracer.span("inner"):  # 4 .. 5
            pass
    assert tracer.total("outer") == 10.0
    assert tracer.self_time("outer") == 8.0
    assert tracer.self_time("inner") == 2.0
    assert [s.parent for s in tracer.spans] == [None, 0, 0]


def test_examples_consumed_follows_the_epoch_plan():
    corpus = small_corpus()
    d_star, d_tilde = corpus.d_star[:100], corpus.d_tilde
    alc = wl.examples_consumed(train_mod.TrainMethod.ALC, 4, d_star, d_tilde)
    assert alc == 2 * len(d_tilde) + 2 * len(d_star)
    mixed = wl.examples_consumed(train_mod.TrainMethod.NOLC_MIXED, 1, d_star, d_tilde)
    assert mixed == len(train_mod.mixed_examples(d_star, d_tilde))


def test_corpus_digest_sees_content():
    corpus = small_corpus()
    assert wl.corpus_digest(corpus) == wl.corpus_digest(small_corpus())
    flipped = corpus.d_star[0]
    other = type(flipped)(flipped.record, clean_label=1 - flipped.clean_label, noisy_label=flipped.noisy_label)
    changed = type(corpus)(corpus.vocab, (other,) + corpus.d_star[1:], corpus.d_tilde, corpus.d_prime, corpus.config)
    assert wl.corpus_digest(changed) != wl.corpus_digest(corpus)


def test_run_without_sources_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "train", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 2
    assert done.stdout == ""
