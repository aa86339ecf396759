"""Command-line front end.

One executable, subcommands for each pipeline stage plus an end-to-end
`pipeline` runner. Each stage is one function: it takes the stage's inputs in
memory, writes the stage's files, prints its summary and returns its outputs.
A staged subcommand reads its input files and calls its stage; `pipeline`
calls every stage in order, so both paths write the same bytes. Exit codes:
0 success, 1 runtime failure, 2 usage or config validation error. All file
outputs are bit-reproducible for identical flags and inputs; `--threads` only
caps worker processes.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

from . import __version__
from .bench import (
    BenchmarkReport,
    Corpus,
    calibrate_noise,
    derive_seed,
    load_raw_csv,
    repeated_benchmark,
    summarize,
)
from .linkage import (
    DEFAULT_MAX_L1_MINUTES,
    DEFAULT_MAX_PER_MOTHER,
    LinkageError,
    LinkSet,
    link_accuracy,
    load_links,
    match_newborns,
    save_links,
)
from .net import CHECKPOINT_MAGIC, NetDims, init_params, save_checkpoint
from .noise import CorruptionMatrix, estimate_corruption_matrix, load_matrix_csv, save_matrix_csv
from .records import (
    CodeVocabulary,
    LabeledExample,
    RecordFileError,
    load_examples,
    load_records,
    save_examples,
    save_records,
)
from .synth import (
    ClericalNoiseModel,
    Cohort,
    ConfigError,
    GroundTruth,
    SynthConfig,
    build_datasets,
    generate_cohort,
    load_truth,
    save_truth,
)
from .train import TrainConfig, TrainMethod, save_loss_log, train

CONFIG_SCHEMA_VERSION = 1

# Keys of the config file's train section. Each repeat of a benchmark sets
# the method and the seed of its own training runs.
TRAIN_KEYS = ("n_epochs", "batch_size", "learning_rate", "optimizer")
BENCHMARK_KEYS = ("repeats", "methods", "base_seed")


# --- run settings --------------------------------------------------------------


def _check_keys(data, known, where: str) -> None:
    if not isinstance(data, dict):
        raise ConfigError(f"{where}: expected an object, got {data!r}")
    unknown = sorted(set(data) - set(known))
    if unknown:
        raise ConfigError(f"{where}: unknown key(s) {unknown}")


def _typed(value, expected: type, where: str):
    """`value` if it has type `expected`; an int also stands for a float."""
    if expected is float and type(value) is int:
        return float(value)
    if type(value) is not expected:
        raise ConfigError(f"{where}: expected {expected.__name__}, got {value!r}")
    return value


def _build(cls, data, where: str, keys=None):
    """Dataclass `cls` from its defaults and the config values in `data`,
    restricted to `keys` if given. Each value must have the type of its
    field's default; a field whose default is a dataclass takes an object."""
    fields = {f.name: f for f in dataclasses.fields(cls) if keys is None or f.name in keys}
    _check_keys(data, fields, where)
    values = {}
    for key, value in data.items():
        f = fields[key]
        if f.default is dataclasses.MISSING:
            values[key] = _build(f.default_factory, value, f"{where}.{key}")
        else:
            values[key] = _typed(value, type(f.default), f"{where}.{key}")
    try:
        return cls(**values)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _at_least(value: int, low: int, where: str) -> int:
    if value < low:
        raise ConfigError(f"{where} must be >= {low}, got {value}")
    return value


def _methods(names: list[str], where: str) -> tuple[TrainMethod, ...]:
    valid = {m.value: m for m in TrainMethod}
    for name in names:
        if name not in valid:
            raise ConfigError(f"{where}: unknown method {name!r}; valid: {', '.join(valid)}")
    if not names:
        raise ConfigError(f"{where}: no methods given")
    repeated = sorted({name for name in names if names.count(name) > 1})
    if repeated:
        raise ConfigError(f"{where}: method(s) given more than once: {', '.join(repeated)}")
    return tuple(valid[name] for name in names)


def _benchmark_section(data, where: str) -> dict:
    _check_keys(data, BENCHMARK_KEYS, where)
    out = {key: _typed(data[key], int, f"{where}.{key}") for key in ("repeats", "base_seed") if key in data}
    if "repeats" in out:
        _at_least(out["repeats"], 1, f"{where}.repeats")
    if "methods" in data:
        names = data["methods"]
        if not isinstance(names, list) or not all(isinstance(name, str) for name in names):
            raise ConfigError(f"{where}.methods: expected a list of method names, got {names!r}")
        out["methods"] = _methods(names, f"{where}.methods")
    return out


def load_run_config(path: str | Path) -> dict:
    """JSON config with a checked version tag, keys and value types.
    Returns {'synth': SynthConfig, 'train': TrainConfig, 'benchmark': dict}:
    the two dataclasses hold their defaults overlaid with the file's values,
    the dict holds the benchmark keys the file sets. Any fault raises
    ConfigError naming the file and the section and key."""
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
    return {
        "synth": _build(SynthConfig, data.get("synth", {}), f"{path}: synth"),
        "train": _build(TrainConfig, data.get("train", {}), f"{path}: train", TRAIN_KEYS),
        "benchmark": _benchmark_section(data.get("benchmark", {}), f"{path}: benchmark"),
    }


def _flag_fields(cls) -> dict:
    """Name and default of each field of config dataclass `cls` that has a
    flag: those with a plain default."""
    return {f.name: f.default for f in dataclasses.fields(cls) if f.default is not dataclasses.MISSING}


def _flags(args: argparse.Namespace, names) -> dict:
    """The flags among argparse destinations `names` that were given."""
    return {name: getattr(args, name) for name in names if getattr(args, name, None) is not None}


def add_synth_flags(parser: argparse.ArgumentParser) -> None:
    """--config, then one flag per SynthConfig and ClericalNoiseModel field:
    the field name without a leading 'n_', dashed, typed as its default."""
    parser.add_argument("--config", type=Path, help="JSON run config (flags override it)")
    for cls in (SynthConfig, ClericalNoiseModel):
        for name, default in _flag_fields(cls).items():
            flag = name.removeprefix("n_").replace("_", "-")
            parser.add_argument(f"--{flag}", dest=name, type=type(default))


def _add_train_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--epochs", dest="n_epochs", type=int)
    parser.add_argument("--batch-size", type=int)
    parser.add_argument("--lr", dest="learning_rate", type=float)
    parser.add_argument("--optimizer", choices=["adam", "sgd"])


@dataclass(frozen=True)
class RunSettings:
    synth: SynthConfig
    train: TrainConfig
    benchmark: dict  # repeated_benchmark keywords: base_seed, and repeats and methods where set


def resolve_run_settings(args: argparse.Namespace) -> RunSettings:
    """The settings of a synth, datasets, benchmark or pipeline run. Each value is the
    dataclass (or repeated_benchmark) default, overridden by the --config
    file, overridden by a flag. base_seed defaults to the synth seed."""
    if args.config:
        run_cfg = load_run_config(args.config)
    else:
        run_cfg = {"synth": SynthConfig(), "train": TrainConfig(), "benchmark": {}}
    synth = run_cfg["synth"]
    noise = replace(synth.clerical_noise, **_flags(args, _flag_fields(ClericalNoiseModel)))
    synth = replace(synth, clerical_noise=noise, **_flags(args, _flag_fields(SynthConfig)))
    try:
        train_config = replace(run_cfg["train"], **_flags(args, TRAIN_KEYS))
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    bench = {"base_seed": synth.seed, **run_cfg["benchmark"]}
    if getattr(args, "repeats", None) is not None:
        bench["repeats"] = _at_least(args.repeats, 1, "--repeats")
    if getattr(args, "methods", None) is not None:
        bench["methods"] = _methods([name.strip() for name in args.methods.split(",")], "--methods")
    return RunSettings(synth, train_config, bench)


def _threads(value: int) -> int:
    return min(_at_least(value, 1, "--threads"), os.cpu_count() or 1)


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


# --- plain SVG output ------------------------------------------------------------

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


def curve_svg(xs: Sequence[float], ys: Sequence[float], title: str, xlabel: str, ylabel: str) -> str:
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


# --- stages --------------------------------------------------------------------

LINKS_FILE = "links.tsv"
C_MATRIX_FILE = "c_matrix.csv"


def synth_stage(config: SynthConfig, out_dir: Path) -> Cohort:
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
    return cohort


def link_stage(
    mothers, newborns, vocab: CodeVocabulary, out: Path, truth: GroundTruth | None = None,
    max_per_mother: int = DEFAULT_MAX_PER_MOTHER, max_l1_minutes: int = DEFAULT_MAX_L1_MINUTES,
) -> LinkSet:
    """Link newborns to mothers; with `truth`, also print the link accuracy."""
    links = match_newborns(mothers, newborns, vocab, max_per_mother=max_per_mother, max_l1_minutes=max_l1_minutes)
    save_links(links, out)
    print(f"linked {len(links)} newborns -> {out}")
    if truth is not None:
        pair_acc, label_acc = link_accuracy(links, truth, newborns, vocab)
        print(f"pair_accuracy={pair_acc:.4f} label_accuracy={label_acc:.4f}")
    return links


def datasets_stage(mothers, newborns, links, vocab: CodeVocabulary, config: SynthConfig, out_dir: Path):
    """The clean (d_star), noisy (d_tilde) and dual-labeled (d_prime) sets."""
    d_star, d_tilde, d_prime = build_datasets(mothers, newborns, links, vocab, config)
    out_dir.mkdir(parents=True, exist_ok=True)
    save_examples(d_star, out_dir / "d_star.jsonl", vocab)
    save_examples(d_tilde, out_dir / "d_tilde.jsonl", vocab)
    save_examples(d_prime, out_dir / "d_prime.jsonl", vocab)
    print(f"datasets: clean={len(d_star)} noisy={len(d_tilde)} dual={len(d_prime)} -> {out_dir}")
    return d_star, d_tilde, d_prime


def estimate_c_stage(dual, out: Path) -> CorruptionMatrix:
    c = estimate_corruption_matrix(dual)
    save_matrix_csv(c, out)
    print(f"estimated corruption matrix from {len(dual)} dual-labeled examples -> {out}")
    for i in range(2):
        print(f"  [{c.entries[i, 0]:.6f}, {c.entries[i, 1]:.6f}]  (n={c.counts[i].sum()})")
    return c


def benchmark_stage(
    corpus: Corpus, settings: RunSettings, workers: int, curves: bool, out_dir: Path
) -> BenchmarkReport:
    report = repeated_benchmark(corpus, train_config=settings.train, workers=workers, **settings.benchmark)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "report.csv").write_text(report.report_csv(), encoding="utf-8")
    (out_dir / "report_raw.csv").write_text(report.raw_csv(), encoding="utf-8")
    if curves:
        curve_dir = out_dir / "curves"
        curve_dir.mkdir(exist_ok=True)
        for method, data in report.curves.items():
            for kind, ys, axes in (("roc", data["tpr"], ("false positive rate", "true positive rate")),
                                   ("pr", data["precision"], ("recall", "precision"))):
                svg = curve_svg(data["grid"], ys, f"{kind.upper()} {method} (mean over repeats)", *axes)
                (curve_dir / f"{kind}_{method}.svg").write_text(svg, encoding="utf-8")
    print(format_summary_table(report.methods, report.summaries))
    print(f"report -> {out_dir / 'report.csv'} (fingerprint {report.fingerprint})")
    return report


# --- subcommands ---------------------------------------------------------------


def cmd_synth(args: argparse.Namespace) -> int:
    synth_stage(resolve_run_settings(args).synth, Path(args.out))
    return 0


def cmd_link(args: argparse.Namespace) -> int:
    max_per_mother = _at_least(args.max_per_mother, 1, "--max-per-mother")
    max_l1_minutes = _at_least(args.max_l1_hours, 0, "--max-l1-hours") * 60
    vocab = CodeVocabulary.load(args.vocab)
    mothers = load_records(args.mothers, vocab)
    newborns = load_records(args.newborns, vocab)
    truth = load_truth(args.truth) if args.truth else None
    link_stage(mothers, newborns, vocab, Path(args.out), truth, max_per_mother, max_l1_minutes)
    return 0


def cmd_datasets(args: argparse.Namespace) -> int:
    config = resolve_run_settings(args).synth
    vocab = CodeVocabulary.load(args.vocab)
    mothers = load_records(args.mothers, vocab)
    newborns = load_records(args.newborns, vocab)
    links = load_links(args.links)
    try:
        datasets_stage(mothers, newborns, links, vocab, config, Path(args.out))
    except LinkageError as exc:
        raise LinkageError(f"{args.links}: {exc}") from None
    return 0


def cmd_estimate_c(args: argparse.Namespace) -> int:
    vocab = CodeVocabulary.load(args.vocab)
    examples = load_examples(args.examples, vocab)
    dual = [ex for ex in examples if ex.clean_label is not None and ex.noisy_label is not None]
    estimate_c_stage(dual, Path(args.out))
    return 0


def _examples_with(path: str | None, vocab: CodeVocabulary, kind: str) -> list[LabeledExample]:
    """The examples of the `--clean` or `--noisy` file `path`, each of which
    must carry that `kind` of label; none when the flag is not given."""
    examples = load_examples(path, vocab) if path else []
    for ex in examples:
        if getattr(ex, f"{kind}_label") is None:
            raise RecordFileError(f"{path}: example {ex.patient_id} lacks the {kind} label that --{kind} needs")
    return examples


def cmd_train(args: argparse.Namespace) -> int:
    vocab = CodeVocabulary.load(args.vocab)
    d_star = _examples_with(args.clean, vocab, "clean")
    d_tilde = _examples_with(args.noisy, vocab, "noisy")
    c = load_matrix_csv(args.c_matrix) if args.c_matrix else None
    overrides = _flags(args, (*TRAIN_KEYS, "seed"))
    if args.method is not None:
        overrides["method"] = TrainMethod(args.method)
    try:
        config = TrainConfig(**overrides)
        dims = NetDims(vocab_size=len(vocab), **_flags(args, ("d_emb", "d_h")))
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    params = init_params(dims, derive_seed(config.seed, "init"))
    model, log = train(params, d_star, d_tilde, c, config)
    save_checkpoint(model, args.out_checkpoint)
    if args.out_log:
        save_loss_log(log, args.out_log)
    print(f"trained {config.method.value} for {config.n_epochs} epochs -> {args.out_checkpoint}")
    print(f"final epoch loss: {log[-1].mean_loss:.6f} ({log[-1].dataset}, {log[-1].loss_kind})")
    return 0


def cmd_benchmark(args: argparse.Namespace) -> int:
    settings = resolve_run_settings(args)
    workers = _threads(args.threads)
    corpus = Corpus.from_files(args.clean, args.noisy, args.vocab, settings.synth)
    benchmark_stage(corpus, settings, workers, args.curves, Path(args.out))
    return 0


def cmd_pipeline(args: argparse.Namespace) -> int:
    def stage(name, fn, *inputs, **options):
        try:
            return fn(*inputs, **options)
        except ConfigError:
            raise
        except Exception as exc:
            raise RuntimeError(f"pipeline stage '{name}' failed: {exc}") from exc

    if args.target is not None and not 0.5 < args.target <= 1.0:
        raise ConfigError(f"--target-accuracy must be in (0.5, 1], got {args.target}")
    if args.target is not None and args.no_calibrate:
        raise ConfigError("--target-accuracy has no effect with --no-calibrate")
    settings = stage("config", resolve_run_settings, args)
    workers = _threads(args.threads)
    config = settings.synth
    out_dir = Path(args.out)

    if not args.no_calibrate:
        noise = stage("calibrate", calibrate_noise, config=config, **_flags(args, ["target"]))
        config = replace(config, clerical_noise=noise)
        print(f"calibrated misclassified_newborn_rate={noise.misclassified_newborn_rate:.6f}")

    cohort = stage("synth", synth_stage, config, out_dir)
    mothers, newborns, vocab = cohort.mothers, cohort.newborns, cohort.vocab
    links = stage("link", link_stage, mothers, newborns, vocab, out_dir / LINKS_FILE, cohort.truth)
    d_star, d_tilde, d_prime = stage("datasets", datasets_stage, mothers, newborns, links, vocab, config, out_dir)
    stage("estimate-c", estimate_c_stage, d_prime, out_dir / C_MATRIX_FILE)
    corpus = Corpus(vocab, d_star, d_tilde, d_prime, config)
    stage("benchmark", benchmark_stage, corpus, settings, workers, args.curves, out_dir)
    print(f"pipeline complete -> {out_dir}")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    rows = load_raw_csv(args.raw)
    if not rows:
        raise RecordFileError(f"{args.raw}: no data rows")
    summaries = summarize(rows)
    methods = list(summaries)
    print(format_summary_table(methods, summaries))
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        s = [summaries[m] for m in methods]
        for name, title, means, stds in (
            ("auc", "AUC", [x.auc_mean for x in s], [x.auc_std for x in s]),
            ("pr_auc", "PR-AUC", [x.prauc_mean for x in s], [x.prauc_std for x in s]),
        ):
            svg = summary_svg(methods, means, stds, f"{title} by method")
            (out_dir / f"{name}.svg").write_text(svg, encoding="utf-8")
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
    p.add_argument("--max-per-mother", type=int, default=DEFAULT_MAX_PER_MOTHER)
    p.add_argument("--max-l1-hours", type=int, default=DEFAULT_MAX_L1_MINUTES // 60)
    p.set_defaults(func=cmd_link)

    p = sub.add_parser("datasets", help="build the clean, noisy and dual-labeled example sets")
    p.add_argument("--config", type=Path, help="JSON run config (flags override it)")
    p.add_argument("--prediction-period-days", dest="prediction_period_days", type=int)
    p.add_argument("--mothers", required=True)
    p.add_argument("--newborns", required=True)
    p.add_argument("--links", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_datasets)

    p = sub.add_parser("estimate-c", help="estimate the label corruption matrix")
    p.add_argument("--examples", required=True, help="dual-labeled examples (JSONL)")
    p.add_argument("--vocab", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_estimate_c)

    p = sub.add_parser("train", help="train one method on prepared datasets")
    p.add_argument("--clean", help="clean-labeled examples (JSONL)")
    p.add_argument("--noisy", help="noisy-labeled examples (JSONL)")
    p.add_argument("--vocab", required=True)
    p.add_argument("--method", choices=[m.value for m in TrainMethod])
    _add_train_flags(p)
    p.add_argument("--seed", type=int)
    p.add_argument("--c-matrix", help="corruption matrix CSV (needed for corrected loss)")
    p.add_argument("--d-emb", type=int)
    p.add_argument("--d-h", type=int)
    p.add_argument("--out-checkpoint", required=True)
    p.add_argument("--out-log", help="per-epoch loss CSV")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("benchmark", help="repeated-split benchmark over methods")
    p.add_argument("--config", type=Path, help="JSON run config (flags override it)")
    p.add_argument("--seed", type=int, help="the synth seed, which the base seed defaults to")
    p.add_argument("--clean", required=True)
    p.add_argument("--noisy", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--methods")
    p.add_argument("--repeats", type=int)
    _add_train_flags(p)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--curves", action="store_true", help="write mean ROC/PR SVGs per method")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_benchmark)

    p = sub.add_parser("pipeline", help="synth -> link -> datasets -> estimate-c -> benchmark")
    add_synth_flags(p)
    p.add_argument("--out", required=True)
    p.add_argument("--repeats", type=int)
    p.add_argument("--epochs", dest="n_epochs", type=int)
    p.add_argument("--methods")
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--curves", action="store_true")
    p.add_argument("--no-calibrate", action="store_true", help="skip noise calibration")
    p.add_argument("--target-accuracy", dest="target", type=float)
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
