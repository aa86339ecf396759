"""Command-line front end.

One executable, subcommands for each pipeline stage plus an end-to-end
`pipeline` runner. Exit codes: 0 success, 1 runtime failure, 2 usage or
config validation error. All file outputs are bit-reproducible for identical
flags and inputs; `--threads` only caps worker processes.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

from . import __version__
from .bench import (
    BenchmarkReport,
    Corpus,
    build_corpus,
    calibrate_noise,
    curve_svg,
    derive_seed,
    repeated_benchmark,
    summary_svg,
)
from .linkage import link_accuracy, load_links, match_newborns, save_links
from .net import CHECKPOINT_MAGIC, NetDims, init_params, save_checkpoint
from .noise import estimate_corruption_matrix, load_matrix_csv, save_matrix_csv
from .records import CodeVocabulary, load_examples, load_records, save_examples, save_records
from .synth import (
    ClericalNoiseModel,
    ConfigError,
    SynthConfig,
    build_datasets,
    generate_cohort,
    load_truth,
    save_truth,
)
from .train import TrainConfig, TrainMethod, save_loss_log, train

CONFIG_SCHEMA_VERSION = 1


class PipelineStageError(RuntimeError):
    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"pipeline stage '{stage}' failed: {cause}")
        self.stage = stage
        self.cause = cause


# --- config file --------------------------------------------------------------


def _from_mapping(cls, data: dict, where: str):
    names = {f.name for f in dataclasses.fields(cls)}
    unknown = set(data) - names
    if unknown:
        raise ConfigError(f"{where}: unknown key(s) {sorted(unknown)}")
    return data


def load_run_config(path: str | Path) -> dict:
    """JSON config with a checked version tag and strict key validation.
    Returns {'synth': SynthConfig, 'train': dict, 'benchmark': dict}."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc.msg})") from None
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: top level must be an object")
    version = data.pop("version", None)
    if version != CONFIG_SCHEMA_VERSION:
        raise ConfigError(f"{path}: config version must be {CONFIG_SCHEMA_VERSION}, got {version!r}")
    known_sections = {"synth", "train", "benchmark"}
    unknown = set(data) - known_sections
    if unknown:
        raise ConfigError(f"{path}: unknown section(s) {sorted(unknown)}")

    synth_data = dict(data.get("synth", {}))
    noise_data = synth_data.pop("clerical_noise", None)
    _from_mapping(SynthConfig, synth_data, f"{path}: synth")
    if noise_data is not None:
        _from_mapping(ClericalNoiseModel, noise_data, f"{path}: synth.clerical_noise")
        synth_data["clerical_noise"] = ClericalNoiseModel(**noise_data)
    synth = SynthConfig(**synth_data)

    train_data = dict(data.get("train", {}))
    _from_mapping(TrainConfig, train_data, f"{path}: train")
    bench_data = dict(data.get("benchmark", {}))
    for key in bench_data:
        if key not in ("repeats", "split_fractions", "methods", "base_seed"):
            raise ConfigError(f"{path}: benchmark: unknown key {key!r}")
    return {"synth": synth, "train": train_data, "benchmark": bench_data}


_SYNTH_FLAG_FIELDS = {
    "seed": "seed",
    "mothers": "n_mothers",
    "hospitals": "n_hospitals",
    "preterm_prevalence": "preterm_prevalence",
    "vocab_size": "vocab_size",
    "risk_codes": "n_risk_codes",
    "risk_lift": "risk_lift",
    "visits_per_mother": "visits_per_mother",
    "history_span_days": "history_span_days",
    "prediction_period_days": "prediction_period_days",
    "clean_code_rate": "clean_code_rate",
    "newborn_coded_rate": "newborn_coded_rate",
}
_NOISE_FLAG_FIELDS = {
    "time_jitter_sd": "time_jitter_sd",
    "missing_newborn_rate": "missing_newborn_rate",
    "swap_window_minutes": "swap_window_minutes",
    "misclassified_newborn_rate": "misclassified_newborn_rate",
}


def add_synth_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", type=Path, help="JSON run config (flags override it)")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--mothers", type=int)
    parser.add_argument("--hospitals", type=int)
    parser.add_argument("--preterm-prevalence", type=float)
    parser.add_argument("--vocab-size", type=int)
    parser.add_argument("--risk-codes", type=int)
    parser.add_argument("--risk-lift", type=float)
    parser.add_argument("--visits-per-mother", type=float)
    parser.add_argument("--history-span-days", type=int)
    parser.add_argument("--prediction-period-days", type=int)
    parser.add_argument("--clean-code-rate", type=float)
    parser.add_argument("--newborn-coded-rate", type=float)
    parser.add_argument("--time-jitter-sd", type=float)
    parser.add_argument("--missing-newborn-rate", type=float)
    parser.add_argument("--swap-window-minutes", type=int)
    parser.add_argument("--misclassified-newborn-rate", type=float)


def resolve_synth_config(args: argparse.Namespace) -> SynthConfig:
    base = SynthConfig()
    run_cfg = None
    if getattr(args, "config", None):
        run_cfg = load_run_config(args.config)
        base = run_cfg["synth"]
    overrides = {}
    for flag, fieldname in _SYNTH_FLAG_FIELDS.items():
        value = getattr(args, flag, None)
        if value is not None:
            overrides[fieldname] = value
    noise_overrides = {}
    for flag, fieldname in _NOISE_FLAG_FIELDS.items():
        value = getattr(args, flag, None)
        if value is not None:
            noise_overrides[fieldname] = value
    if noise_overrides:
        overrides["clerical_noise"] = replace(base.clerical_noise, **noise_overrides)
    return replace(base, **overrides) if overrides else base


def _parse_methods(spec: str) -> list[TrainMethod]:
    out = []
    valid = {m.value: m for m in TrainMethod}
    for name in spec.split(","):
        name = name.strip()
        if name not in valid:
            raise ConfigError(f"unknown method {name!r}; valid: {', '.join(valid)}")
        out.append(valid[name])
    return out


def _threads(value: int) -> int:
    if value < 1:
        raise ConfigError(f"--threads must be >= 1, got {value}")
    return min(value, os.cpu_count() or 1)


# --- output helpers ------------------------------------------------------------


def format_summary_table(methods, summaries) -> str:
    """Aligned mean +/- std table, scores in percentage points."""
    name_w = max(len("method"), max((len(m) for m in methods), default=0)) + 2
    lines = [f"{'method':<{name_w}}{'auc':<18}{'pr_auc':<18}"]
    for m in methods:
        s = summaries[m]
        auc_cell = f"{100 * s.auc_mean:.2f} +/- {100 * s.auc_std:.2f}"
        pr_cell = f"{100 * s.prauc_mean:.2f} +/- {100 * s.prauc_std:.2f}"
        lines.append(f"{m:<{name_w}}{auc_cell:<18}{pr_cell:<18}")
    return "\n".join(lines)


def _write_report_files(report: BenchmarkReport, out_dir: Path, curves: bool) -> None:
    (out_dir / "report.csv").write_text(report.report_csv(), encoding="utf-8")
    (out_dir / "report_raw.csv").write_text(report.raw_csv(), encoding="utf-8")
    if curves and report.curves:
        curve_dir = out_dir / "curves"
        curve_dir.mkdir(exist_ok=True)
        for method, data in report.curves.items():
            (curve_dir / f"roc_{method}.svg").write_text(
                curve_svg(data["grid"], data["tpr"], f"ROC {method} (mean over repeats)",
                          "false positive rate", "true positive rate"),
                encoding="utf-8",
            )
            (curve_dir / f"pr_{method}.svg").write_text(
                curve_svg(data["grid"], data["precision"], f"PR {method} (mean over repeats)",
                          "recall", "precision"),
                encoding="utf-8",
            )


# --- subcommands ---------------------------------------------------------------


def cmd_synth(args: argparse.Namespace) -> int:
    config = resolve_synth_config(args)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    cohort = generate_cohort(config)
    cohort.vocab.save(out_dir / "vocabulary.txt")
    save_records(cohort.mothers, out_dir / "mothers.jsonl", cohort.vocab)
    save_records(cohort.newborns, out_dir / "newborns.jsonl", cohort.vocab)
    save_truth(cohort.truth, out_dir / "truth.tsv")
    n_preterm = sum(1 for l in cohort.truth.labels.values() if l.name == "PRETERM")
    print(
        f"cohort: {len(cohort.mothers)} mothers ({n_preterm} preterm), "
        f"{len(cohort.newborns)} newborns, {config.n_hospitals} hospitals -> {out_dir}"
    )
    return 0


def cmd_link(args: argparse.Namespace) -> int:
    vocab = CodeVocabulary.load(args.vocab)
    mothers = load_records(args.mothers, vocab)
    newborns = load_records(args.newborns, vocab)
    links = match_newborns(
        mothers, newborns, vocab,
        max_per_mother=args.max_per_mother,
        max_l1_minutes=args.max_l1_hours * 60,
    )
    save_links(links, args.out)
    print(f"linked {len(links)} newborns -> {args.out}")
    if args.truth:
        truth = load_truth(args.truth)
        pair_acc, label_acc = link_accuracy(links, truth, newborns, vocab)
        print(f"pair_accuracy={pair_acc:.4f} label_accuracy={label_acc:.4f}")
    return 0


def cmd_estimate_c(args: argparse.Namespace) -> int:
    vocab = CodeVocabulary.load(args.vocab)
    examples = load_examples(args.examples, vocab)
    dual = [ex for ex in examples if ex.clean_label is not None and ex.noisy_label is not None]
    c = estimate_corruption_matrix(dual)
    save_matrix_csv(c, args.out)
    print(f"estimated corruption matrix from {len(dual)} dual-labeled examples -> {args.out}")
    for i in range(2):
        print(f"  [{c.entries[i, 0]:.6f}, {c.entries[i, 1]:.6f}]  (n={c.counts[i].sum()})")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    vocab = CodeVocabulary.load(args.vocab)
    d_star = load_examples(args.clean, vocab) if args.clean else []
    d_tilde = load_examples(args.noisy, vocab) if args.noisy else []
    c = load_matrix_csv(args.c_matrix) if args.c_matrix else None
    method = TrainMethod(args.method)
    try:
        config = TrainConfig(
            method=method,
            n_epochs=args.epochs,
            batch_size=args.batch_size,
            learning_rate=args.lr,
            optimizer=args.optimizer,
            seed=args.seed,
        )
        dims = NetDims(vocab_size=len(vocab), d_emb=args.d_emb, d_h=args.d_h)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    params = init_params(dims, derive_seed(args.seed, "init"))
    model, log = train(params, d_star, d_tilde, c, config)
    save_checkpoint(model, args.out_checkpoint)
    if args.out_log:
        save_loss_log(log, args.out_log)
    print(f"trained {method.value} for {config.n_epochs} epochs -> {args.out_checkpoint}")
    print(f"final epoch loss: {log[-1].mean_loss:.6f} ({log[-1].dataset}, {log[-1].loss_kind})")
    return 0


def cmd_benchmark(args: argparse.Namespace) -> int:
    synth_config = resolve_synth_config(args)
    corpus = Corpus.from_files(args.clean, args.noisy, args.vocab, synth_config)
    try:
        train_config = TrainConfig(
            n_epochs=args.epochs, batch_size=args.batch_size,
            learning_rate=args.lr, optimizer=args.optimizer,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    report = repeated_benchmark(
        corpus,
        methods=_parse_methods(args.methods),
        repeats=args.repeats,
        base_seed=args.seed if args.seed is not None else 0,
        train_config=train_config,
        workers=_threads(args.threads),
        collect_curves=args.curves,
    )
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_report_files(report, out_dir, args.curves)
    print(format_summary_table(report.methods, report.summaries))
    print(f"report -> {out_dir / 'report.csv'} (fingerprint {report.fingerprint})")
    return 0


def cmd_pipeline(args: argparse.Namespace) -> int:
    def stage(name, fn):
        try:
            return fn()
        except ConfigError:
            raise
        except Exception as exc:
            raise PipelineStageError(name, exc) from exc

    config = stage("config", lambda: resolve_synth_config(args))
    run_cfg = load_run_config(args.config) if args.config else None
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    if not args.no_calibrate:
        noise = stage("calibrate", lambda: calibrate_noise(args.target_accuracy, config))
        config = replace(config, clerical_noise=noise)
        print(f"calibrated misclassified_newborn_rate={noise.misclassified_newborn_rate:.6f}")

    cohort = stage("synth", lambda: generate_cohort(config))
    cohort.vocab.save(out_dir / "vocabulary.txt")
    save_records(cohort.mothers, out_dir / "mothers.jsonl", cohort.vocab)
    save_records(cohort.newborns, out_dir / "newborns.jsonl", cohort.vocab)
    save_truth(cohort.truth, out_dir / "truth.tsv")

    links = stage("link", lambda: match_newborns(cohort.mothers, cohort.newborns, cohort.vocab))
    save_links(links, out_dir / "links.tsv")
    pair_acc, label_acc = link_accuracy(links, cohort.truth, cohort.newborns, cohort.vocab)
    print(f"linked {len(links)} newborns: pair_accuracy={pair_acc:.4f} label_accuracy={label_acc:.4f}")

    d_star, d_tilde, d_prime = stage(
        "datasets",
        lambda: build_datasets(cohort.mothers, cohort.newborns, links, cohort.vocab, config),
    )
    save_examples(d_star, out_dir / "d_star.jsonl", cohort.vocab)
    save_examples(d_tilde, out_dir / "d_tilde.jsonl", cohort.vocab)
    save_examples(d_prime, out_dir / "d_prime.jsonl", cohort.vocab)
    print(f"datasets: clean={len(d_star)} noisy={len(d_tilde)} dual={len(d_prime)}")

    c = stage("estimate-c", lambda: estimate_corruption_matrix(d_prime))
    save_matrix_csv(c, out_dir / "c_matrix.csv")

    corpus = Corpus(cohort.vocab, tuple(d_star), tuple(d_tilde), tuple(d_prime), config)
    train_kwargs = dict(run_cfg["train"]) if run_cfg else {}
    if args.epochs is not None:
        train_kwargs["n_epochs"] = args.epochs
    try:
        train_config = TrainConfig(**train_kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"train config: {exc}") from None
    bench_kwargs = dict(run_cfg["benchmark"]) if run_cfg else {}
    repeats = args.repeats if args.repeats is not None else bench_kwargs.get("repeats", 20)
    methods = _parse_methods(args.methods) if args.methods else [
        TrainMethod(v) for v in bench_kwargs.get("methods", [m.value for m in TrainMethod])
    ]
    base_seed = bench_kwargs.get("base_seed", config.seed)
    report = stage(
        "benchmark",
        lambda: repeated_benchmark(
            corpus,
            methods=methods,
            repeats=repeats,
            base_seed=base_seed,
            train_config=train_config,
            workers=_threads(args.threads),
            collect_curves=args.curves,
        ),
    )
    _write_report_files(report, out_dir, args.curves)
    print(format_summary_table(report.methods, report.summaries))
    print(f"pipeline complete -> {out_dir}")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    rows = []
    with open(args.raw, "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
        if header[:4] != ["method", "repeat", "auc", "pr_auc"]:
            raise ValueError(f"{args.raw}: unexpected header {header!r}")
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            parts = line.rstrip("\n").split(",")
            if len(parts) != len(header):
                raise ValueError(f"{args.raw}: row {lineno}: expected {len(header)} fields")
            try:
                rows.append((parts[0], int(parts[1]), float(parts[2]), float(parts[3])))
            except ValueError:
                raise ValueError(f"{args.raw}: row {lineno}: malformed numeric field") from None
    if not rows:
        raise ValueError(f"{args.raw}: no data rows")

    methods = []
    for method, _, _, _ in rows:
        if method not in methods:
            methods.append(method)
    import numpy as np

    from .bench import MethodSummary

    summaries = {}
    for m in methods:
        aucs = np.array([r[2] for r in rows if r[0] == m])
        prs = np.array([r[3] for r in rows if r[0] == m])
        summaries[m] = MethodSummary(
            float(aucs.mean()), float(aucs.std()), float(prs.mean()), float(prs.std())
        )
    print(format_summary_table(methods, summaries))
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "auc.svg").write_text(
            summary_svg(methods, [summaries[m].auc_mean for m in methods],
                        [summaries[m].auc_std for m in methods], "AUC by method"),
            encoding="utf-8",
        )
        (out_dir / "pr_auc.svg").write_text(
            summary_svg(methods, [summaries[m].prauc_mean for m in methods],
                        [summaries[m].prauc_std for m in methods], "PR-AUC by method"),
            encoding="utf-8",
        )
    return 0


# --- parser --------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pretermalc",
        description="Synthetic preterm-birth cohorts, mother-newborn linkage, and "
        "corruption-aware training benchmarks.",
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"pretermalc {__version__} (config schema {CONFIG_SCHEMA_VERSION}, "
        f"checkpoint format '{CHECKPOINT_MAGIC}')",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic cohort")
    add_synth_flags(p)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("link", help="match newborns to mothers by encounter times")
    p.add_argument("--mothers", required=True)
    p.add_argument("--newborns", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--truth", help="ground-truth TSV for accuracy reporting")
    p.add_argument("--max-per-mother", type=int, default=3)
    p.add_argument("--max-l1-hours", type=int, default=24)
    p.set_defaults(func=cmd_link)

    p = sub.add_parser("estimate-c", help="estimate the label corruption matrix")
    p.add_argument("--examples", required=True, help="dual-labeled examples (JSONL)")
    p.add_argument("--vocab", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_estimate_c)

    p = sub.add_parser("train", help="train one method on prepared datasets")
    p.add_argument("--clean", help="clean-labeled examples (JSONL)")
    p.add_argument("--noisy", help="noisy-labeled examples (JSONL)")
    p.add_argument("--vocab", required=True)
    p.add_argument("--method", default="ALC", choices=[m.value for m in TrainMethod])
    p.add_argument("--epochs", type=int, default=10)
    p.add_argument("--batch-size", type=int, default=64)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--optimizer", default="adam", choices=["adam", "sgd"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--c-matrix", help="corruption matrix CSV (needed for corrected loss)")
    p.add_argument("--d-emb", type=int, default=64)
    p.add_argument("--d-h", type=int, default=64)
    p.add_argument("--out-checkpoint", required=True)
    p.add_argument("--out-log", help="per-epoch loss CSV")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("benchmark", help="repeated-split benchmark over methods")
    add_synth_flags(p)
    p.add_argument("--clean", required=True)
    p.add_argument("--noisy", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--methods", default=",".join(m.value for m in TrainMethod))
    p.add_argument("--repeats", type=int, default=20)
    p.add_argument("--epochs", type=int, default=10)
    p.add_argument("--batch-size", type=int, default=64)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--optimizer", default="adam", choices=["adam", "sgd"])
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--curves", action="store_true", help="write mean ROC/PR SVGs per method")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_benchmark)

    p = sub.add_parser("pipeline", help="synth -> link -> datasets -> estimate-c -> benchmark")
    add_synth_flags(p)
    p.add_argument("--out", required=True)
    p.add_argument("--repeats", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--methods")
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--curves", action="store_true")
    p.add_argument("--no-calibrate", action="store_true", help="skip noise calibration")
    p.add_argument("--target-accuracy", type=float, default=0.72)
    p.set_defaults(func=cmd_pipeline)

    p = sub.add_parser("report", help="summarize a per-repeat raw CSV")
    p.add_argument("--raw", required=True)
    p.add_argument("--out", help="directory for one SVG per metric")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - uniform runtime failure surface
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
