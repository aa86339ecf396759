"""Benchmark entry point for pretermalc.

    python3 benchmarks/run.py --workload {prep,train} --seed N --seconds S --trace {0,1}

Run it from the root of a source checkout; it imports the package from
``src/`` next to this directory and exits with status 2, printing no result,
when that package is missing. The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` a separate run wraps
the package's public functions and reports the per-layer ones. README.md in
this directory defines every workload and metric.

The benchmark sets no environment variable and no thread count: BLAS runs as
it finds the machine.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

WORKLOADS = ("prep", "train")
# Operations per run at REFERENCE_SECONDS; --seconds scales them. The count
# depends on --seconds alone, not on the speed of the code being measured,
# so every run of a workload does the same work. On the reference machine
# (2 cores) one operation takes about 20-25 s (prep) and 7-9 s (train).
OPS = {"prep": 1, "train": 4}
REFERENCE_SECONDS = 30
SCORE_PASSES = 3  # extra forward-only passes after the timed calls
SETUP_REPEATS = 3
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import pretermalc; print(time.perf_counter() - t)"
)
THREAD_VARIABLES = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "GOTO_NUM_THREADS",
    "OMP_PROC_BIND", "OMP_PLACES", "OMP_DYNAMIC",
)


def import_seconds() -> float:
    """Median time to import the package in a fresh interpreter."""
    samples = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
            check=True, capture_output=True, text=True, timeout=120,
        )
        samples.append(float(done.stdout.strip()))
    return statistics.median(samples)


def environment() -> dict:
    """The machine and environment as found; nothing here is changed."""
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "thread_variables": {k: os.environ.get(k) for k in THREAD_VARIABLES},
        "start_method": multiprocessing.get_start_method(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


# --- workload dispatch -----------------------------------------------------


def setup(wl, workload: str, seed: int):
    if workload == "prep":
        return wl.prep_setup(seed)
    return wl.train_inputs(wl.corpus_for(seed), seed)


def operate(wl, workload: str, inputs):
    if workload == "prep":
        return wl.prep_op(inputs, OUT)
    return wl.train_and_score(inputs)


def corpus_of(workload: str, inputs, op):
    return op.extra["corpus"] if workload == "prep" else inputs.corpus


def follow_up(wl, workload: str, inputs, last_op, seed: int) -> list:
    """Passes after the timed calls. On prep, the train operation on the
    reloaded corpus gives the training metrics that calibration does not;
    then, on every workload, SCORE_PASSES forward-only passes over the
    corpus steady the scoring rate."""
    corpus = corpus_of(workload, inputs, last_op)
    trained = [wl.train_and_score(wl.train_inputs(corpus, seed))] if workload == "prep" else []
    return trained + [wl.score_pass(corpus, seed) for _ in range(SCORE_PASSES)]


# --- untraced run: end-to-end metrics --------------------------------------


def end_to_end(wl, workload: str, seed: int, seconds: int, import_s: float):
    build_times = []
    for _ in range(SETUP_REPEATS):
        inputs = None  # release the previous copy before building the next
        t0 = time.perf_counter()
        inputs = setup(wl, workload, seed)
        build_times.append(time.perf_counter() - t0)

    n_ops = max(1, round(OPS[workload] * seconds / REFERENCE_SECONDS))
    ops = [operate(wl, workload, inputs) for _ in range(n_ops)]
    results = ops + follow_up(wl, workload, inputs, ops[-1], seed)
    failures = [r.check() for r in results]

    trains = [r for r in results if r.train_examples]
    scores = [r for r in results if r.scored]  # the first in the process pays BLAS warm-up
    metrics = {
        "setup_s": (import_s + statistics.median(build_times), "s"),
        "wall_s": (statistics.median(op.wall_s for op in ops), "s"),
        "train_examples_per_s": (
            statistics.median(r.train_examples / r.train_s for r in trains), "examples/s"
        ),
        "score_examples_per_s": (
            statistics.median(r.scored / r.score_s for r in scores), "examples/s"
        ),
        "test_auc": (statistics.median(r.test_auc for r in results if r.test_auc is not None), "1"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    for i, r in enumerate(results):
        kind = "op" if i < len(ops) else "follow-up"
        print(f"# {kind} {i}: wall_s={r.wall_s:.4f} digest={r.digest} {r.note}".rstrip())
    print(f"# run-id corpus={wl.corpus_digest(corpus_of(workload, inputs, ops[-1]))} "
          f"output={ops[-1].digest}")
    return results, failures, metrics


# --- traced run: per-layer metrics -----------------------------------------


def make_tracer(tracer_mod):
    tracer = tracer_mod.Tracer()

    def count_fill(batch):
        if tracer.current() == "train.run":
            tracer.counts["visits"] += int(batch.mask.sum())
            tracer.counts["slots"] += batch.mask.size

    patches = [
        ("pretermalc.bench", "generate_cohort", "synth.generate_cohort"),
        ("pretermalc.bench", "build_datasets", "synth.build_datasets"),
        ("pretermalc.bench", "match_newborns", "linkage.match_newborns"),
        ("pretermalc.bench", "link_accuracy", "linkage.link_accuracy"),
        ("workloads", "save_corpus", "records.save"),
        ("pretermalc.bench", "load_examples", "records.load"),
        ("pretermalc.records", "CodeVocabulary.load", "records.load"),
        ("pretermalc.noise", "estimate_corruption_matrix", "noise.estimate"),
        ("pretermalc.train", "forward", "net.forward"),
        ("pretermalc.train", "backward", "net.backward"),
        ("pretermalc.train", "predict_probs", "net.predict"),
        ("pretermalc.train", "train", "train.run"),
        ("pretermalc.train", "optimizer_step", "train.optimizer_step"),
        ("pretermalc.train", "loss_clean", "train.loss"),
        ("pretermalc.train", "loss_corrected", "train.loss"),
        ("pretermalc.metrics", "auc", "metrics.auc"),
        ("pretermalc.metrics", "pr_auc", "metrics.auc"),
        ("pretermalc.metrics", "roc_points", "metrics.curves"),
        ("pretermalc.metrics", "pr_points", "metrics.curves"),
        ("pretermalc.bench", "mean_label_accuracy", "bench.calibrate_eval"),
    ]
    for module, attr, name in patches:
        tracer.patch(module, attr, name)
    tracer.patch("pretermalc.net", "Batch.from_sequences", "net.batch", observe=count_fill)
    return tracer


def per_layer(tracer, overhead_s: float) -> dict:
    runs = max(tracer.calls("train.run"), 1)
    predicts = tracer.named("net.predict")
    slots = tracer.counts["slots"]
    return {
        "synth.generate_cohort_s": (tracer.total("synth.generate_cohort"), "s"),
        "synth.generate_cohort_calls": (tracer.calls("synth.generate_cohort"), "count"),
        "synth.build_datasets_s": (tracer.total("synth.build_datasets"), "s"),
        "linkage.match_newborns_s": (tracer.total("linkage.match_newborns"), "s"),
        "linkage.match_newborns_calls": (tracer.calls("linkage.match_newborns"), "count"),
        "linkage.link_accuracy_s": (tracer.total("linkage.link_accuracy"), "s"),
        "records.save_s": (tracer.total("records.save"), "s"),
        "records.load_s": (tracer.total("records.load"), "s"),
        "noise.estimate_s": (tracer.total("noise.estimate"), "s"),
        "noise.estimate_calls": (tracer.calls("noise.estimate"), "count"),
        "net.batch_s": (tracer.total("net.batch"), "s"),
        "net.forward_s": (tracer.total("net.forward"), "s"),
        "net.forward_calls": (tracer.calls("net.forward"), "count"),
        "net.backward_s": (tracer.total("net.backward"), "s"),
        "net.predict_s": (tracer.total("net.predict"), "s"),
        "net.predict_first_s": (predicts[0].duration if predicts else 0.0, "s"),
        "net.visit_fill": (tracer.counts["visits"] / slots if slots else 0.0, "ratio"),
        "train.run_s": (tracer.total("train.run") / runs, "s"),
        "train.self_s": (tracer.self_time("train.run") / runs, "s"),
        "train.optimizer_step_s": (tracer.total("train.optimizer_step") / runs, "s"),
        "train.loss_s": (tracer.total("train.loss") / runs, "s"),
        "train.steps": (tracer.calls("train.optimizer_step"), "count"),
        "metrics.auc_s": (tracer.total("metrics.auc"), "s"),
        "metrics.curves_s": (tracer.total("metrics.curves"), "s"),
        "bench.calibrate_evals": (tracer.calls("bench.calibrate_eval"), "count"),
        "trace.overhead_s": (overhead_s, "s"),
    }


def traced(wl, tracer_mod, workload: str, seed: int):
    tracer = make_tracer(tracer_mod)
    with tracer:
        with tracer.span("bench.setup"):
            inputs = setup(wl, workload, seed)
        with tracer.span("bench.op"):
            op = operate(wl, workload, inputs)
    failures = [op.check()]
    overhead_s = tracer_mod.wrapper_cost() * len(tracer.spans)

    spans_path = OUT / f"spans-{workload}-seed{seed}.jsonl"
    with open(spans_path, "w", encoding="utf-8") as fh:
        for s in tracer.spans:
            fh.write(json.dumps({"name": s.name, "start": s.start, "end": s.end, "parent": s.parent}) + "\n")
    print(f"# spans={len(tracer.spans)} -> {spans_path.relative_to(HERE.parent)}")
    print(f"# traced op wall_s={op.wall_s:.4f} tracing overhead_s={overhead_s:.6f} "
          f"({overhead_s / op.wall_s:.4%} of the traced call)")
    print(f"# run-id corpus={wl.corpus_digest(corpus_of(workload, inputs, op))} output={op.digest}")
    return [op], failures, per_layer(tracer, overhead_s)


# --- entry point -----------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "pretermalc" / "__init__.py").is_file():
        print(f"error: no pretermalc package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    import_s = 0.0 if args.trace else import_seconds()  # before this process imports it
    sys.path.insert(0, str(SRC))
    import tracer as tracer_mod
    import workloads as wl

    print("# env " + json.dumps(environment(), sort_keys=True))
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    if args.trace:
        results, failures, metrics = traced(wl, tracer_mod, args.workload, args.seed)
    else:
        results, failures, metrics = end_to_end(wl, args.workload, args.seed, args.seconds, import_s)
    for problems in failures:
        for problem in problems:
            print(f"# check failed: {problem}")
    failed = sum(1 for problems in failures if problems)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
