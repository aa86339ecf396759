"""Command-line front end.

One executable, subcommands for each pipeline stage plus an end-to-end
`pipeline` runner. Each stage is one function: it takes the stage's inputs in
memory, writes the stage's files, prints its summary and returns its outputs.
A staged subcommand reads its input files and calls its stage; `pipeline`
calls every stage in order, so both paths write the same bytes. A subcommand
checks all its outputs before it reads an input file, and `records.write_file`
writes each file whole. Exit codes: 0 success, 1 runtime failure, 2 usage or
config validation error; with `pretermalc --debug` a failure raises with its
traceback instead. All file outputs are bit-reproducible for identical flags
and inputs; `--threads` only caps worker processes.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from dataclasses import replace
from functools import partial, reduce
from pathlib import Path
from typing import Iterable, Mapping, Sequence
from xml.sax.saxutils import escape

from . import __version__
from .bench import (
    BenchmarkConfig,
    BenchmarkReport,
    Corpus,
    calibrate_noise,
    derive_seed,
    load_labeled_examples,
    load_raw_csv,
    repeated_benchmark,
    summarize,
)
from .linkage import (
    LinkageError,
    LinkSet,
    link_accuracy,
    load_links,
    match_newborns,
    save_links,
)
from .net import CHECKPOINT_MAGIC, NetDims, init_params, save_checkpoint
from .noise import CorruptionMatrix, EstimationError, estimate_corruption_matrix, load_matrix_csv, save_matrix_csv
from .records import (
    CodeVocabulary,
    RecordFileError,
    load_examples,
    load_records,
    save_examples,
    save_records,
    write_file,
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
from .train import CLEAN, CORRECTED, MIXED, NOISY, TrainConfig, TrainMethod, plan_epochs, save_loss_log, train

CONFIG_SCHEMA_VERSION = 1

# The config sections that each subcommand's stages read. A section is one
# config dataclass, and its keys are that dataclass's fields; the synth flags
# of a subcommand set the same keys. `benchmark` reads no synth section:
# `--seed` or `benchmark.base_seed` set its base seed. A subcommand not
# listed takes no --config.
CONFIG_SECTIONS = {
    "synth": {"synth": SynthConfig},
    "benchmark": {"benchmark": BenchmarkConfig},
    "pipeline": {"synth": SynthConfig, "benchmark": BenchmarkConfig},
}


# --- run settings --------------------------------------------------------------


def _check_keys(data, known, path, dotted: str, command: str) -> None:
    """Raise ConfigError unless `data`, at key `dotted` of config file
    `path` (the top level when empty), is an object with keys in `known`."""
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: {dotted}: expected an object, got {data!r}")
    unread = sorted(set(data) - set(known))
    if unread:
        names = ", ".join(f"{dotted}.{key}" if dotted else key for key in unread)
        raise ConfigError(f"{path}: {names} not read by the {command} subcommand")


def _typed(value, expected: type, where: str):
    """`value` if it has type `expected`; an int also stands for a float,
    and a list of strings for a tuple."""
    if expected is float and type(value) is int:
        return float(value)
    if expected is tuple and type(value) is list and all(type(item) is str for item in value):
        return tuple(value)
    if type(value) is not expected:
        name = "list of strings" if expected is tuple else expected.__name__
        raise ConfigError(f"{where}: expected {name}, got {value!r}")
    return value


def _values(cls, data, path, dotted: str, command: str) -> dict:
    """The values of config object `data`, at key `dotted` of file `path`,
    for fields of dataclass `cls`. Each value must have the type of its
    field's default; a field whose default is a dataclass takes an object of
    that dataclass's fields."""
    fields = {f.name: f for f in dataclasses.fields(cls)}
    _check_keys(data, fields, path, dotted, command)
    values = {}
    for key, value in data.items():
        f, at = fields[key], f"{dotted}.{key}"
        if f.default is dataclasses.MISSING:
            values[key] = _values(f.default_factory, value, path, at, command)
        else:
            values[key] = _typed(value, type(f.default), f"{path}: {at}")
    return values


def _overlay(obj, values: dict, where: str | None = None):
    """`obj` with the fields in `values` replaced; a dict replaces fields of
    a nested dataclass. An out-of-range value raises ConfigError, prefixed
    with `where` when given."""
    nested = {
        key: _overlay(getattr(obj, key), value, where and f"{where}.{key}")
        for key, value in values.items() if isinstance(value, dict)
    }
    try:
        return replace(obj, **{**values, **nested})
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}" if where else str(exc)) from None


def load_run_config(path: str | Path, command: str) -> dict:
    """JSON config with a checked version tag, keys and value types, as
    {section: {key: value}}. Every section must be one that CONFIG_SECTIONS
    lists for subcommand `command`. Any fault raises ConfigError naming the
    file and the section and key."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc.msg})") from None
    except UnicodeDecodeError:
        raise ConfigError(f"{path}: not UTF-8 text") from None
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: top level must be an object")
    version = data.pop("version", None)
    if version != CONFIG_SCHEMA_VERSION:
        raise ConfigError(f"{path}: config version must be {CONFIG_SCHEMA_VERSION}, got {version!r}")
    sections = CONFIG_SECTIONS[command]
    _check_keys(data, sections, path, "", command)
    return {section: _values(sections[section], value, path, section, command) for section, value in data.items()}


def _flag_settings(args: argparse.Namespace) -> dict:
    """The setting flags given, as {section: {key: value}}. A setting flag's
    destination is the config key it overrides: `section.key`, or
    `synth.clerical_noise.key`."""
    given: dict = {}
    for dest, value in vars(args).items():
        if "." in dest and value is not None:
            *path, key = dest.split(".")
            reduce(lambda node, name: node.setdefault(name, {}), path, given)[key] = value
    return given


def _flags(args: argparse.Namespace, names) -> dict:
    """The flags among argparse destinations `names` that were given."""
    return {name: getattr(args, name) for name in names if getattr(args, name) is not None}


def add_config_flags(parser: argparse.ArgumentParser, command: str) -> None:
    """--config, then one flag per synth key when `command` reads the synth
    section (a ClericalNoiseModel field for `clerical_noise`): the field name
    without a leading 'n_', dashed, typed as its default."""
    parser.add_argument("--config", type=Path, help="JSON run config (flags override it)")
    if "synth" not in CONFIG_SECTIONS[command]:
        return
    for f in dataclasses.fields(SynthConfig):
        nested = f.default is dataclasses.MISSING  # clerical_noise
        for leaf in dataclasses.fields(ClericalNoiseModel) if nested else (f,):
            flag = leaf.name.removeprefix("n_").replace("_", "-")
            dest = f"synth.{f.name}.{leaf.name}" if nested else f"synth.{f.name}"
            parser.add_argument(f"--{flag}", dest=dest, type=type(leaf.default))


def _add_benchmark_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--methods", dest="benchmark.methods",
        type=lambda text: tuple(m.strip() for m in text.split(",")) if text.strip() else (),
    )
    parser.add_argument("--repeats", dest="benchmark.repeats", type=int)
    parser.add_argument("--epochs", dest="benchmark.n_epochs", type=int)
    parser.add_argument("--threads", type=int, default=1)
    parser.add_argument("--curves", action="store_true", help="write mean ROC/PR SVGs per method")
    parser.add_argument("--out", required=True)


def resolve_run_settings(args: argparse.Namespace, command: str) -> tuple[SynthConfig, BenchmarkConfig]:
    """The settings of a run of subcommand `command`. Each value is the
    dataclass default, overridden by the --config file, overridden by a
    flag. base_seed defaults to the synth seed. A calibrating pipeline takes
    no misclassified_newborn_rate from either: calibration sets it."""
    file = load_run_config(args.config, command) if args.config else {}
    flags = _flag_settings(args)
    if command == "pipeline" and not args.no_calibrate:
        key = "misclassified_newborn_rate"
        named = {f"{args.config}: synth.clerical_noise.{key}": file, f"--{key.replace('_', '-')}": flags}
        for where, given in named.items():
            if key in given.get("synth", {}).get("clerical_noise", {}):
                raise ConfigError(f"{where} has no effect without --no-calibrate")

    def resolve(section: str, default):
        from_file = _overlay(default, file.get(section, {}), f"{args.config}: {section}")
        return _overlay(from_file, flags.get(section, {}))

    synth = resolve("synth", SynthConfig())
    return synth, resolve("benchmark", BenchmarkConfig(base_seed=synth.seed))


def check_outputs(files: Mapping[str, str | None] = {}, out_dir: str | None = None, names: Iterable[str] = ()) -> None:
    """Raise ConfigError, naming the flag, unless every output file of a run
    can be written: no two share a path, none is a directory, and every
    ancestor of each is a directory or missing, and not another output. The
    outputs are the file of each flag in `files` that is given and, when
    `out_dir` (flag --out) is given, each of `names` in it. A subcommand
    calls it before it reads any input file."""
    outputs = [(flag, Path(path)) for flag, path in files.items() if path]
    outputs += [("--out", Path(out_dir, name)) for name in names if out_dir]
    claimed: dict[str, str] = {}
    for flag, path in outputs:
        key = os.path.realpath(path)
        if key in claimed:
            raise ConfigError(f"{flag}: {path} is also the output of {claimed[key]}")
        claimed[key] = flag
    for flag, path in outputs:
        in_the_way = (p for p in path.parents if os.path.realpath(p) in claimed or p.exists() and not p.is_dir())
        blocked = next(in_the_way, None)
        if blocked is not None:
            raise ConfigError(f"{flag}: {blocked} is not a directory")
        if path.is_dir():
            raise ConfigError(f"{flag}: {path} is a directory")


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the
    platform has one (a container's CPU set), else the machine's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _threads(value: int) -> int:
    if value < 1:
        raise ConfigError(f"--threads must be >= 1, got {value}")
    return min(value, usable_cpus())


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
        f'font-family="sans-serif">{escape(title)}</text>',
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
            f'font-family="sans-serif">{escape(name)}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# --- stages --------------------------------------------------------------------

# The files that the stages write in their output directory, which
# `check_outputs` checks before any input is read.
COHORT_FILES = ("vocabulary.txt", "mothers.jsonl", "newborns.jsonl", "truth.tsv")
LINKS_FILE = "links.tsv"
DATASET_FILES = ("d_star.jsonl", "d_tilde.jsonl", "d_prime.jsonl")
C_MATRIX_FILE = "c_matrix.csv"
REPORT_FILES = ("report.csv", "report_raw.csv")
CURVE_FILE = "curves/{kind}_{method}.svg"
SUMMARY_FILES = ("auc.svg", "pr_auc.svg")
# Curve kind -> (key of its y values in a report's curves, x label, y label).
CURVES = {"roc": ("tpr", "false positive rate", "true positive rate"), "pr": ("precision", "recall", "precision")}


def benchmark_files(config: BenchmarkConfig, curves: bool) -> tuple[str, ...]:
    """The files that the benchmark stage writes in its output directory."""
    plots = [CURVE_FILE.format(kind=kind, method=m.value) for m in config.methods for kind in CURVES]
    return REPORT_FILES + (tuple(plots) if curves else ())


def synth_stage(config: SynthConfig, out_dir: Path) -> Cohort:
    cohort = generate_cohort(config)
    vocab_file, mothers_file, newborns_file, truth_file = (out_dir / name for name in COHORT_FILES)
    cohort.vocab.save(vocab_file)
    save_records(cohort.mothers, mothers_file, cohort.vocab)
    save_records(cohort.newborns, newborns_file, cohort.vocab)
    save_truth(cohort.truth, truth_file)
    n_preterm = sum(1 for l in cohort.truth.labels.values() if l.name == "PRETERM")
    print(
        f"cohort: {len(cohort.mothers)} mothers ({n_preterm} preterm), "
        f"{len(cohort.newborns)} newborns, {config.n_hospitals} hospitals -> {out_dir}"
    )
    return cohort


def link_stage(mothers, newborns, vocab: CodeVocabulary, out: Path, truth: GroundTruth | None = None) -> LinkSet:
    """Link newborns to mothers; with `truth`, also print the link accuracy."""
    links = match_newborns(mothers, newborns, vocab)
    save_links(links, out)
    print(f"linked {len(links)} newborns -> {out}")
    if truth is not None:
        pair_acc, label_acc = link_accuracy(links, truth, newborns, vocab)
        print(f"pair_accuracy={pair_acc:.4f} label_accuracy={label_acc:.4f}")
    return links


def datasets_stage(mothers, newborns, links, vocab: CodeVocabulary, out_dir: Path):
    """The clean (d_star), noisy (d_tilde) and dual-labeled (d_prime) sets."""
    d_star, d_tilde, d_prime = build_datasets(mothers, newborns, links, vocab)
    for name, examples in zip(DATASET_FILES, (d_star, d_tilde, d_prime)):
        save_examples(examples, out_dir / name, vocab)
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
    corpus: Corpus, config: BenchmarkConfig, workers: int, curves: bool, out_dir: Path
) -> BenchmarkReport:
    report = repeated_benchmark(corpus, config, workers=workers)
    report_file, raw_file = (out_dir / name for name in REPORT_FILES)
    write_file(report_file, [report.report_csv()])
    write_file(raw_file, [report.raw_csv()])
    if curves:
        for method, data in report.curves.items():
            for kind, (ys, *axes) in CURVES.items():
                svg = curve_svg(data["grid"], data[ys], f"{kind.upper()} {method} (mean over repeats)", *axes)
                write_file(out_dir / CURVE_FILE.format(kind=kind, method=method), [svg])
    print(format_summary_table(report.methods, report.summaries))
    print(f"report -> {report_file} (fingerprint {report.fingerprint})")
    return report


# --- subcommands ---------------------------------------------------------------


def cmd_synth(args: argparse.Namespace) -> int:
    config, _ = resolve_run_settings(args, "synth")
    check_outputs(out_dir=args.out, names=COHORT_FILES)
    synth_stage(config, Path(args.out))
    return 0


def cmd_link(args: argparse.Namespace) -> int:
    check_outputs({"--out": args.out})
    vocab = CodeVocabulary.load(args.vocab)
    mothers = load_records(args.mothers, vocab)
    newborns = load_records(args.newborns, vocab)
    truth = load_truth(args.truth) if args.truth else None
    link_stage(mothers, newborns, vocab, Path(args.out), truth)
    return 0


def cmd_datasets(args: argparse.Namespace) -> int:
    check_outputs(out_dir=args.out, names=DATASET_FILES)
    vocab = CodeVocabulary.load(args.vocab)
    mothers = load_records(args.mothers, vocab)
    newborns = load_records(args.newborns, vocab)
    links = load_links(args.links)
    try:
        datasets_stage(mothers, newborns, links, vocab, Path(args.out))
    except LinkageError as exc:
        raise LinkageError(f"{args.links}: {exc}") from None
    return 0


def cmd_estimate_c(args: argparse.Namespace) -> int:
    check_outputs({"--out": args.out})
    vocab = CodeVocabulary.load(args.vocab)
    examples = load_examples(args.examples, vocab)
    dual = [ex for ex in examples if ex.clean_label is not None and ex.noisy_label is not None]
    try:
        estimate_c_stage(dual, Path(args.out))
    except EstimationError as exc:
        raise EstimationError(f"{args.examples}: {exc}") from None
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    check_outputs({"--out-checkpoint": args.out_checkpoint, "--out-log": args.out_log})
    overrides = _flag_settings(args).get("train", {})
    if args.method is not None:
        overrides["method"] = TrainMethod(args.method)
    config = _overlay(TrainConfig(), overrides)
    used = {tag for spec in plan_epochs(config.method, config.n_epochs) for tag in (spec.dataset, spec.loss_kind)}
    # flag -> (path given, plan tags that read it, plan tag that needs it)
    inputs = {"--clean": (args.clean, {CLEAN, MIXED}, CLEAN), "--noisy": (args.noisy, {NOISY, MIXED}, NOISY),
              "--c-matrix": (args.c_matrix, {CORRECTED}, CORRECTED)}
    plan = f"method {config.method.value} in {config.n_epochs} epoch(s)"
    unread = [flag for flag, (path, tags, _) in inputs.items() if path and not tags & used]
    if unread:
        raise ConfigError(f"{', '.join(unread)}: not read by {plan}")
    missing = [flag for flag, (path, _, tag) in inputs.items() if tag in used and not path]
    if MIXED in used and not (args.clean or args.noisy):
        missing.append("--clean or --noisy")
    if missing:
        raise ConfigError(f"{', '.join(missing)}: needed by {plan}")
    vocab = CodeVocabulary.load(args.vocab)
    d_star = load_labeled_examples(args.clean, vocab, "clean") if args.clean else []
    d_tilde = load_labeled_examples(args.noisy, vocab, "noisy") if args.noisy else []
    c = load_matrix_csv(args.c_matrix) if args.c_matrix else None
    params = init_params(NetDims(vocab_size=len(vocab)), derive_seed(config.seed, "init"))
    model, log = train(params, d_star, d_tilde, c, config)
    save_checkpoint(model, args.out_checkpoint)
    if args.out_log:
        save_loss_log(log, args.out_log)
    print(f"trained {config.method.value} for {config.n_epochs} epochs -> {args.out_checkpoint}")
    print(f"final epoch loss: {log[-1].mean_loss:.6f} ({log[-1].dataset}, {log[-1].loss_kind})")
    return 0


def cmd_benchmark(args: argparse.Namespace) -> int:
    _, config = resolve_run_settings(args, "benchmark")
    workers = _threads(args.threads)
    check_outputs(out_dir=args.out, names=benchmark_files(config, args.curves))
    corpus = Corpus.from_files(args.clean, args.noisy, args.vocab)
    benchmark_stage(corpus, config, workers, args.curves, Path(args.out))
    return 0


def cmd_pipeline(args: argparse.Namespace) -> int:
    def stage(name, fn, *inputs, **options):
        try:
            return fn(*inputs, **options)
        except Exception as exc:
            raise RuntimeError(f"pipeline stage '{name}' failed: {exc}") from exc

    if args.target is not None and not 0.5 < args.target <= 1.0:
        raise ConfigError(f"--target-accuracy must be in (0.5, 1], got {args.target}")
    if args.target is not None and args.no_calibrate:
        raise ConfigError("--target-accuracy has no effect with --no-calibrate")
    config, bench_config = resolve_run_settings(args, "pipeline")
    workers = _threads(args.threads)
    stage_files = (*COHORT_FILES, LINKS_FILE, *DATASET_FILES, C_MATRIX_FILE)
    check_outputs(out_dir=args.out, names=stage_files + benchmark_files(bench_config, args.curves))
    out_dir = Path(args.out)

    if not args.no_calibrate:
        noise = stage("calibrate", calibrate_noise, config=config, **_flags(args, ["target"]))
        config = replace(config, clerical_noise=noise)
        print(f"calibrated misclassified_newborn_rate={noise.misclassified_newborn_rate:.6f}")

    cohort = stage("synth", synth_stage, config, out_dir)
    mothers, newborns, vocab = cohort.mothers, cohort.newborns, cohort.vocab
    links = stage("link", link_stage, mothers, newborns, vocab, out_dir / LINKS_FILE, cohort.truth)
    d_star, d_tilde, d_prime = stage("datasets", datasets_stage, mothers, newborns, links, vocab, out_dir)
    stage("estimate-c", estimate_c_stage, d_prime, out_dir / C_MATRIX_FILE)
    corpus = Corpus(vocab, d_star, d_tilde, d_prime, config)
    stage("benchmark", benchmark_stage, corpus, bench_config, workers, args.curves, out_dir)
    print(f"pipeline complete -> {out_dir}")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    check_outputs(out_dir=args.out, names=SUMMARY_FILES)
    rows = load_raw_csv(args.raw)
    if not rows:
        raise RecordFileError(f"{args.raw}: no data rows")
    summaries = summarize(rows)
    methods = list(summaries)
    print(format_summary_table(methods, summaries))
    if args.out:
        s = [summaries[m] for m in methods]
        charts = (
            ("AUC", [x.auc_mean for x in s], [x.auc_std for x in s]),
            ("PR-AUC", [x.prauc_mean for x in s], [x.prauc_std for x in s]),
        )
        for name, (title, means, stds) in zip(SUMMARY_FILES, charts):
            write_file(Path(args.out, name), [summary_svg(methods, means, stds, f"{title} by method")])
    return 0


# --- parser --------------------------------------------------------------------


class _HelpFormatter(argparse.HelpFormatter):
    """Shows the value of a setting flag by its key, without the section."""

    def _get_default_metavar_for_optional(self, action: argparse.Action) -> str:
        return action.dest.rpartition(".")[2].upper()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pretermalc",
        description="Synthetic preterm-birth cohorts, mother-newborn linkage, and "
        "corruption-aware training benchmarks.",
    )
    parser.add_argument("--debug", action="store_true", help="let a failure raise with its traceback")
    parser.add_argument(
        "--version",
        action="version",
        version=f"pretermalc {__version__} (config schema {CONFIG_SCHEMA_VERSION}, "
        f"checkpoint format '{CHECKPOINT_MAGIC}')",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    add_parser = partial(sub.add_parser, formatter_class=_HelpFormatter)

    p = add_parser("synth", help="generate a synthetic cohort")
    add_config_flags(p, "synth")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_synth)

    p = add_parser("link", help="match newborns to mothers by encounter times")
    p.add_argument("--mothers", required=True)
    p.add_argument("--newborns", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--truth", help="ground-truth TSV for accuracy reporting")
    p.set_defaults(func=cmd_link)

    p = add_parser("datasets", help="build the clean, noisy and dual-labeled example sets")
    p.add_argument("--mothers", required=True)
    p.add_argument("--newborns", required=True)
    p.add_argument("--links", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_datasets)

    p = add_parser("estimate-c", help="estimate the label corruption matrix")
    p.add_argument("--examples", required=True, help="dual-labeled examples (JSONL)")
    p.add_argument("--vocab", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_estimate_c)

    p = add_parser("train", help="train one method on prepared datasets")
    p.add_argument("--clean", help="clean-labeled examples (JSONL)")
    p.add_argument("--noisy", help="noisy-labeled examples (JSONL)")
    p.add_argument("--vocab", required=True)
    p.add_argument("--method", choices=[m.value for m in TrainMethod])
    p.add_argument("--epochs", dest="train.n_epochs", type=int)
    p.add_argument("--seed", dest="train.seed", type=int)
    p.add_argument("--c-matrix", help="corruption matrix CSV (needed for corrected loss)")
    p.add_argument("--out-checkpoint", required=True)
    p.add_argument("--out-log", help="per-epoch loss CSV")
    p.set_defaults(func=cmd_train)

    p = add_parser("benchmark", help="repeated-split benchmark over methods")
    add_config_flags(p, "benchmark")
    p.add_argument("--seed", dest="benchmark.base_seed", type=int, help="base seed of splits and training runs")
    p.add_argument("--clean", required=True)
    p.add_argument("--noisy", required=True)
    p.add_argument("--vocab", required=True)
    _add_benchmark_flags(p)
    p.set_defaults(func=cmd_benchmark)

    p = add_parser("pipeline", help="synth -> link -> datasets -> estimate-c -> benchmark")
    add_config_flags(p, "pipeline")
    _add_benchmark_flags(p)
    p.add_argument("--no-calibrate", action="store_true", help="skip noise calibration")
    p.add_argument("--target-accuracy", dest="target", type=float)
    p.set_defaults(func=cmd_pipeline)

    p = add_parser("report", help="summarize a per-repeat raw CSV")
    p.add_argument("--raw", required=True)
    p.add_argument("--out", help="directory for one SVG per metric")
    p.set_defaults(func=cmd_report)

    for p in sub.choices.values():
        p.set_defaults(parser=p)  # so that a flag it does not take is named with it
    return parser


def main(argv: list[str] | None = None) -> int:
    args, unread = build_parser().parse_known_args(argv)
    if unread:
        args.parser.error(f"unrecognized arguments: {' '.join(unread)}")
    try:
        return args.func(args)
    except Exception as exc:  # noqa: BLE001 - uniform runtime failure surface
        if args.debug:
            raise
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ConfigError) else 1


if __name__ == "__main__":
    sys.exit(main())
