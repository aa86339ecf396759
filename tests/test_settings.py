"""No setting is accepted that nothing reads: changing any flag or config key
of `synth`, `datasets` or `benchmark`, one at a time, changes an output byte
or the printed fingerprint. `pipeline` reads the union of its stages' keys."""

import argparse
import dataclasses
import json

import pytest

from pretermalc.cli import CONFIG_SECTIONS, build_parser, main
from pretermalc.synth import ClericalNoiseModel

# A value for each config key other than the one the base runs below use
# (a flag's destination is its config key).
CHANGED = {
    "synth.seed": 4,
    "synth.n_hospitals": 3,
    "synth.n_mothers": 150,
    "synth.clerical_noise.time_jitter_sd": 60.0,
    "synth.clerical_noise.missing_newborn_rate": 0.3,
    "synth.clerical_noise.swap_window_minutes": 60,
    "synth.clerical_noise.misclassified_newborn_rate": 0.3,
    "synth.clean_code_rate": 0.6,
    "synth.newborn_coded_rate": 0.6,
    "benchmark.n_epochs": 2,
    "benchmark.repeats": 2,
    "benchmark.methods": ["NoLC_noisy"],
    "benchmark.base_seed": 4,
}

# Flags that change no output by contract, with the reason.
EXEMPT = {
    "--out": "names the output directory; the runs below compare what they write there",
    "--threads": "caps worker processes; every report is byte-identical for any count",
    "--config": "carries the config keys, each of which is changed on its own below",
}

# The settings of each base run, as its config file would give them; a base
# run gives them as flags.
BASE = {
    "synth": {"synth": {"n_mothers": 120, "n_hospitals": 2, "seed": 3}},
    "datasets": {},
    "benchmark": {"benchmark": {"methods": ["NoLC_clean"], "repeats": 1, "base_seed": 3, "n_epochs": 1}},
}


def flag_of(parser: argparse.ArgumentParser) -> dict:
    """Option string -> action of every flag but --help."""
    return {a.option_strings[0]: a for a in parser._actions if a.option_strings and a.dest != "help"}


def subparsers() -> dict[str, argparse.ArgumentParser]:
    parser = build_parser()
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def leaves(tree: dict, prefix: str = "") -> dict:
    """{dotted key: value} of a nested settings object."""
    out = {}
    for key, value in tree.items():
        out.update(leaves(value, f"{prefix}{key}.") if isinstance(value, dict) else {prefix + key: value})
    return out


def nested(flat: dict) -> dict:
    tree: dict = {}
    for dotted, value in flat.items():
        *path, key = dotted.split(".")
        node = tree
        for name in path:
            node = node.setdefault(name, {})
        node[key] = value
    return tree


def accepted(command: str) -> set[str]:
    """The dotted config keys of the sections that CONFIG_SECTIONS lists for
    `command` (none for a subcommand that reads no config), with
    `synth.clerical_noise` spelled out as its fields."""
    keys = {
        f"{section}.{f.name}" for section, cls in CONFIG_SECTIONS.get(command, {}).items()
        for f in dataclasses.fields(cls)
    }
    if "synth.clerical_noise" in keys:
        keys.remove("synth.clerical_noise")
        keys |= {f"synth.clerical_noise.{f.name}" for f in dataclasses.fields(ClericalNoiseModel)}
    return keys


def as_text(value) -> str:
    return ",".join(value) if isinstance(value, list) else str(value)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory) -> dict:
    """Option string -> input file of a small staged run."""
    d = tmp_path_factory.mktemp("inputs")
    cohort = ["--mothers", str(d / "mothers.jsonl"), "--newborns", str(d / "newborns.jsonl"),
              "--vocab", str(d / "vocabulary.txt")]
    assert main(["synth", "--mothers", "200", "--hospitals", "3", "--seed", "11", "--out", str(d)]) == 0
    assert main(["link", *cohort, "--out", str(d / "links.tsv")]) == 0
    assert main(["datasets", *cohort, "--links", str(d / "links.tsv"), "--out", str(d)]) == 0
    return {
        "--mothers": d / "mothers.jsonl", "--newborns": d / "newborns.jsonl", "--vocab": d / "vocabulary.txt",
        "--links": d / "links.tsv", "--clean": d / "d_star.jsonl", "--noisy": d / "d_tilde.jsonl",
    }


class Runner:
    """Runs one subcommand in a fresh output directory and returns what it
    did: the exit code, the printed fingerprint and every file's bytes."""

    def __init__(self, command, inputs, tmp_path, capsys):
        self.command, self.tmp_path, self.capsys = command, tmp_path, capsys
        self.count = 0
        self.flags = flag_of(subparsers()[command])
        required = [flag for flag, action in self.flags.items() if action.required and flag != "--out"]
        self.input_args = [arg for flag in required for arg in (flag, str(inputs[flag]))]

    def __call__(self, settings: dict, extra=(), input_args=None) -> tuple:
        self.count += 1
        out = self.tmp_path / f"run{self.count}"
        by_key = {action.dest: flag for flag, action in self.flags.items()}
        flags = [arg for key, value in leaves(settings).items() for arg in (by_key[key], as_text(value))]
        code = main([self.command, *(input_args or self.input_args), *flags, *extra, "--out", str(out)])
        printed = self.capsys.readouterr().out
        fingerprint = printed.rsplit("(fingerprint ", 1)[-1] if "(fingerprint " in printed else None
        files = {p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}
        return code, fingerprint, files


@pytest.mark.parametrize("command", ["synth", "datasets", "benchmark"])
def test_every_setting_changes_an_output(inputs, tmp_path, capsys, command):
    run = Runner(command, inputs, tmp_path, capsys)
    base = run(BASE[command])
    assert base[0] == 0
    flags = run.flags

    # Every flag: a setting flag sets the config key it is named for, and
    # takes the changed value; an input file loses its first line; a switch
    # is turned on.
    checked = set()
    for flag, action in flags.items():
        if flag in EXEMPT or flag in run.input_args:
            continue
        if "." in action.dest:
            assert action.dest in accepted(command), flag
            given = {**leaves(BASE[command]), action.dest: CHANGED[action.dest]}
            outcome = run(nested(given))
            assert outcome[0] == 0, flag
        else:
            assert action.nargs == 0, f"{flag} is neither a setting, an input nor a switch"
            outcome = run(BASE[command], [flag])
        assert outcome != base, f"{command} {flag} changes nothing"
        checked.add(flag)
    for flag in run.input_args[::2]:
        trimmed = tmp_path / f"trimmed_{inputs[flag].name}"
        trimmed.write_text("".join(inputs[flag].read_text().splitlines(keepends=True)[1:]))
        edited = [str(trimmed) if arg == str(inputs[flag]) else arg for arg in run.input_args]
        outcome = run(BASE[command], input_args=edited)
        assert outcome != base, f"{command} {flag} changes nothing"
        checked.add(flag)
    assert checked | set(EXEMPT) >= set(flags), sorted(set(flags) - checked - set(EXEMPT))

    # Every config key, set in a file that otherwise gives the base settings.
    for key in sorted(accepted(command)):
        config = tmp_path / f"{key}.json"
        given = {**leaves(BASE[command]), key: CHANGED[key]}
        config.write_text(json.dumps({"version": 1, **nested(given)}), encoding="utf-8")
        outcome = run({}, ["--config", str(config)])
        assert outcome[0] == 0, key
        assert outcome != base, f"{command} --config with {key} changes nothing"


def test_pipeline_reads_what_its_stages_read():
    union = {**CONFIG_SECTIONS["synth"], **CONFIG_SECTIONS["benchmark"]}
    assert CONFIG_SECTIONS["pipeline"] == union
    setting_flags = {a.dest for a in flag_of(subparsers()["pipeline"]).values() if "." in a.dest}
    assert setting_flags <= accepted("pipeline")


def test_pipeline_reads_the_misclassification_rate_only_without_calibrating(tmp_path, capsys):
    flags = ["--mothers", "200", "--hospitals", "3", "--seed", "11", "--repeats", "1", "--epochs", "1",
             "--methods", "NoLC_clean", "--misclassified-newborn-rate", "0.3"]
    assert main(["pipeline", *flags, "--out", str(tmp_path / "calibrated")]) == 2
    assert "has no effect without --no-calibrate" in capsys.readouterr().err
    assert not (tmp_path / "calibrated").exists()
    assert main(["pipeline", *flags, "--no-calibrate", "--out", str(tmp_path / "set")]) == 0
    assert main(["pipeline", *flags[:-2], "--no-calibrate", "--out", str(tmp_path / "default")]) == 0
    set_rate, default = ((tmp_path / sub / "d_tilde.jsonl").read_bytes() for sub in ("set", "default"))
    assert set_rate != default
