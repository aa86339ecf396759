"""Command-line interface: exit codes, config handling, file outputs, and
byte-level reproducibility."""

import argparse
import errno
import hashlib
import json
import os
import shutil
from xml.etree import ElementTree

import numpy as np
import pytest

from pretermalc import cli
from pretermalc.bench import BenchmarkConfig, Corpus, MethodSummary, repeat_inputs
from pretermalc.cli import build_parser, format_summary_table, load_run_config, main, resolve_run_settings
from pretermalc.linkage import LinkageError
from pretermalc.synth import ConfigError

COHORT_FLAGS = ["--mothers", "200", "--hospitals", "3", "--seed", "11"]
BENCHMARK_FLAGS = ["--repeats", "1", "--epochs", "1", "--methods", "NoLC_clean"]
PIPELINE_FLAGS = [*COHORT_FLAGS, "--no-calibrate", *BENCHMARK_FLAGS]
SVG = "{http://www.w3.org/2000/svg}"


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("pipeline")
    assert main(["pipeline", *PIPELINE_FLAGS, "--out", str(out)]) == 0
    return out


# --- global behavior --------------------------------------------------------------


def test_version_names_the_format_versions(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("pretermalc ")
    assert "config schema 1" in out


def test_missing_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_train_is_not_a_subcommand(tmp_path, capsys):
    """Training runs inside `benchmark`, so the staged chain ends at the report."""
    with pytest.raises(SystemExit) as exc:
        main(["train", "--clean", str(tmp_path / "d_star.jsonl"), "--out-checkpoint", str(tmp_path / "model.ckpt")])
    assert exc.value.code == 2
    assert "pretermalc: error: argument command: invalid choice: 'train' (choose from " in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_no_subcommand_estimates_c_from_the_whole_dual_labeled_set(tmp_path, capsys):
    """Each benchmark repeat estimates the Ĉ it trains with, and `benchmark`
    writes it, so no stage estimates one from the whole dual-labeled set."""
    with pytest.raises(SystemExit) as exc:
        main(["estimate-c", "--examples", str(tmp_path / "d_prime.jsonl"), "--out", str(tmp_path / "c_matrix.csv")])
    assert exc.value.code == 2
    assert "pretermalc: error: argument command: invalid choice: 'estimate-c' (choose from " in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_config_errors_exit_2_and_name_the_field(tmp_path, capsys):
    code = main(["synth", "--mothers", "0", "--out", str(tmp_path / "x")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "n_mothers" in err


def datasets_with_an_unknown_mother(tmp_path) -> list[str]:
    """A `datasets` run whose links file names a mother that no record holds."""
    visit = {"day": 400, "codes": ["650"], "t_adm": 400 * 1440, "t_dis": 400 * 1440 + 60}
    texts = {
        "vocab": "650\n",
        "mothers": json.dumps({"patient_id": "m0", "hospital_id": "h00", "role": "mother",
                               "delivery_day": 400, "visits": [visit]}) + "\n",
        "newborns": json.dumps({"patient_id": "n0", "hospital_id": "h00", "role": "newborn",
                                "delivery_day": 400, "visits": [visit]}) + "\n",
        "links": "n0\tm9\t0\n",
    }
    argv = ["datasets", "--out", str(tmp_path / "out")]
    for flag, text in texts.items():
        (tmp_path / flag).write_text(text, encoding="utf-8")
        argv += [f"--{flag}", str(tmp_path / flag)]
    return argv


def test_runtime_errors_exit_1(tmp_path, capsys):
    code = main(datasets_with_an_unknown_mother(tmp_path))
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("argv, error", [
    (lambda tmp_path: ["synth", "--mothers", "0", "--out", str(tmp_path / "x")], ConfigError),
    pytest.param(datasets_with_an_unknown_mother, LinkageError, id="unknown-mother"),
])
def test_debug_re_raises_the_failure_that_would_print_one_line(tmp_path, capsys, argv, error):
    with pytest.raises(error) as raised:
        main(["--debug", *argv(tmp_path)])
    assert capsys.readouterr().err == ""
    assert main(argv(tmp_path)) == (2 if error is ConfigError else 1)
    assert capsys.readouterr().err == f"error: {raised.value}\n"


# --- synth -------------------------------------------------------------------------


def test_synth_output_is_seed_deterministic(tmp_path, capsys):
    flags = ["--mothers", "120", "--hospitals", "2", "--seed", "3"]
    for sub in ("a", "b"):
        assert main(["synth", *flags, "--out", str(tmp_path / sub)]) == 0
    assert "cohort: 120 mothers" in capsys.readouterr().out
    for name in ("vocabulary.txt", "mothers.jsonl", "newborns.jsonl", "truth.tsv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    assert main(["synth", *flags[:-1], "4", "--out", str(tmp_path / "c")]) == 0
    assert (tmp_path / "a" / "mothers.jsonl").read_bytes() != (tmp_path / "c" / "mothers.jsonl").read_bytes()


# --- run config files ----------------------------------------------------------------


def write_config(path, body):
    path.write_text(json.dumps(body), encoding="utf-8")
    return str(path)


def test_config_file_and_flags_agree(tmp_path):
    cfg = write_config(tmp_path / "run.json", {
        "version": 1,
        "synth": {"n_mothers": 120, "n_hospitals": 2, "seed": 3},
    })
    assert main(["synth", "--config", cfg, "--out", str(tmp_path / "from_config")]) == 0
    assert main(["synth", "--mothers", "120", "--hospitals", "2", "--seed", "3",
                 "--out", str(tmp_path / "from_flags")]) == 0
    a = (tmp_path / "from_config" / "mothers.jsonl").read_bytes()
    assert a == (tmp_path / "from_flags" / "mothers.jsonl").read_bytes()


def test_an_int_for_a_float_setting_writes_what_the_float_and_the_flag_write(tmp_path):
    cohort = ["--mothers", "120", "--hospitals", "2", "--seed", "3"]
    ints = {"clean_code_rate": 1, "clerical_noise": {"time_jitter_sd": 180, "missing_newborn_rate": 0}}
    floats = {"clean_code_rate": 1.0, "clerical_noise": {"time_jitter_sd": 180.0, "missing_newborn_rate": 0.0}}
    runs = {
        "ints": ["--config", write_config(tmp_path / "ints.json", {"version": 1, "synth": ints})],
        "floats": ["--config", write_config(tmp_path / "floats.json", {"version": 1, "synth": floats})],
        "flags": ["--clean-code-rate", "1", "--time-jitter-sd", "180", "--missing-newborn-rate", "0"],
    }
    for name, given in runs.items():
        assert main(["synth", *cohort, *given, "--out", str(tmp_path / name)]) == 0
    for name in cli.COHORT_FILES:
        written = {(tmp_path / run / name).read_bytes() for run in runs}
        assert len(written) == 1, name


def test_flags_override_the_config_file(tmp_path):
    cfg = write_config(tmp_path / "run.json", {
        "version": 1,
        "synth": {"n_mothers": 120, "n_hospitals": 2, "seed": 3},
    })
    assert main(["synth", "--config", cfg, "--seed", "4", "--out", str(tmp_path / "overridden")]) == 0
    assert main(["synth", "--mothers", "120", "--hospitals", "2", "--seed", "4",
                 "--out", str(tmp_path / "direct")]) == 0
    a = (tmp_path / "overridden" / "mothers.jsonl").read_bytes()
    assert a == (tmp_path / "direct" / "mothers.jsonl").read_bytes()


@pytest.mark.parametrize("version", [99, True, 1.0, "1"])
def test_config_file_version_is_checked(tmp_path, capsys, version):
    cfg = write_config(tmp_path / "run.json", {"version": version, "synth": {}})
    assert main(["synth", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    assert f"config version must be 1, got {version!r}" in capsys.readouterr().err


def test_config_file_rejects_unknown_keys(tmp_path):
    path = write_config(tmp_path / "a.json", {"version": 1, "synth": {"n_motherz": 5}})
    with pytest.raises(ConfigError, match=r"a\.json: synth\.n_motherz: not a key of a pipeline config"):
        load_run_config(path, "pipeline")
    path = write_config(tmp_path / "b.json", {"version": 1, "synth": {"clerical_noise": {"jitter": 5.0}}})
    with pytest.raises(ConfigError, match=r"synth\.clerical_noise\.jitter: not a key of a pipeline config"):
        load_run_config(path, "pipeline")
    with pytest.raises(ConfigError, match="extras: not a key of a pipeline config"):
        load_run_config(write_config(tmp_path / "c.json", {"version": 1, "extras": {}}), "pipeline")
    broken = tmp_path / "d.json"
    broken.write_text('{"version": 1,', encoding="utf-8")
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_run_config(broken, "pipeline")


@pytest.mark.parametrize("body, key", [
    ('{"version": 1, "synth": {"seed": 1, "seed": 2}}', "seed"),
    ('{"version": 1, "synth": {}, "synth": {"seed": 2}}', "synth"),
])
def test_config_file_refuses_a_key_given_twice(tmp_path, capsys, body, key):
    cfg = tmp_path / "dup.json"
    cfg.write_text(body, encoding="utf-8")
    assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err == f"error: {cfg}: {key}: given twice\n"
    assert not (tmp_path / "x").exists()


def test_config_file_that_is_not_utf8_exits_2_and_is_named(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_bytes(b'{"version": 1, "synth": {"n_mothers": 120}, "note": "caf\xe9"}')
    assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err == f"error: {cfg}: not UTF-8 text\n"
    assert not (tmp_path / "x").exists()


def test_config_file_that_is_not_an_object_exits_2_and_is_named(tmp_path, capsys):
    cfg = write_config(tmp_path / "run.json", [{"version": 1}])
    assert main(["synth", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err == f"error: {cfg}: expected object, got [{{'version': 1}}]\n"


def test_config_file_builds_nested_noise_model(tmp_path):
    cfg = write_config(tmp_path / "run.json", {
        "version": 1,
        "synth": {"n_mothers": 150, "clerical_noise": {"time_jitter_sd": 45.0}},
    })
    loaded = load_run_config(cfg, "synth")
    assert loaded == {"synth": {"n_mothers": 150, "clerical_noise": {"time_jitter_sd": 45.0}}}
    args = build_parser().parse_args(["synth", "--config", cfg, "--out", "x"])
    synth, _ = resolve_run_settings(args, "synth")
    assert synth.n_mothers == 150
    assert synth.clerical_noise.time_jitter_sd == 45.0
    assert synth.clerical_noise.missing_newborn_rate == 0.15


# A key that its section lacks is named with the section; a section that
# no subcommand reads, such as `train`, is named alone.
@pytest.mark.parametrize("section,key,value", [
    ("benchmark", "split_fractions", [0.7, 0.15, 0.15]),
    ("train", "n_epochs", 10),
])
def test_config_file_rejects_removed_keys(tmp_path, capsys, section, key, value):
    cfg = write_config(tmp_path / "run.json", {"version": 1, section: {key: value}})
    assert main(["pipeline", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    named = f"{section}.{key}" if section in cli.CONFIG_SECTIONS["pipeline"] else section
    assert capsys.readouterr().err == f"error: {cfg}: {named}: not a key of a pipeline config\n"
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("body,expected", [
    ({"synth": {"n_mothers": "200"}}, "synth.n_mothers: expected int, got '200'"),
    ({"synth": {"clerical_noise": {"time_jitter_sd": -1.0}}}, "synth.clerical_noise: time_jitter_sd must be >= 0"),
    ({"synth": {"clean_code_rate": True}}, "synth.clean_code_rate: expected float"),
    ({"benchmark": {"n_epochs": 0}}, "benchmark: n_epochs must be >= 1"),
    ({"benchmark": {"n_epochs": 2.5}}, "benchmark.n_epochs: expected int, got 2.5"),
    ({"benchmark": {"repeats": 0}}, "benchmark: repeats must be >= 1, got 0"),
    ({"benchmark": {"methods": ["NoLC_clean", "Magic"]}}, "benchmark: methods: unknown method 'Magic'"),
    ({"benchmark": {"methods": "ALC"}}, "benchmark.methods: expected list, got 'ALC'"),
    ({"benchmark": []}, "benchmark: expected object, got []"),
    ({"synth": {"clerical_noise": {"time_jitter_sd": float("nan")}}},
     "synth.clerical_noise: time_jitter_sd must be >= 0 and finite, got nan"),
    ({"synth": {"seed": -1}}, "synth: seed must be >= 0, got -1"),
    ({"benchmark": {"methods": ["ALC", 3]}}, "benchmark: methods: unknown method 3; valid: "),
    ({"synth": {"clerical_noise": {"time_jitter_sd": 10**400}}},
     "synth.clerical_noise: time_jitter_sd must be at most 777600 (the delivery window in minutes), got 1000"),
    ({"benchmark": {"methods": [["ALC"]]}}, "benchmark: methods: unknown method ['ALC']; valid: "),
])
def test_bad_config_values_exit_2_before_the_pipeline_writes(tmp_path, capsys, body, expected):
    cfg = write_config(tmp_path / "run.json", {"version": 1, **body})
    out = tmp_path / "out"
    assert main(["pipeline", "--config", cfg, "--mothers", "200", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"{cfg}: {expected}" in err, err
    assert not out.exists()


# The input flags of the subcommands whose settings a test rejects: the
# files are absent, so a run that got past its settings would fail naming
# the first of them.
INPUTS = {
    "datasets": ["--mothers", "{0}", "--newborns", "{0}", "--links", "{0}", "--vocab", "{0}"],
    "benchmark": ["--clean", "{0}", "--noisy", "{0}", "--vocab", "{0}"],
}


@pytest.mark.parametrize("command, flags, message", [
    ("synth", ["--seed", "-1"], "seed must be >= 0, got -1"),
    ("synth", ["--time-jitter-sd", "nan"], "time_jitter_sd must be >= 0 and finite, got nan"),
    ("synth", ["--time-jitter-sd", "inf"], "time_jitter_sd must be >= 0 and finite, got inf"),
    ("pipeline", ["--seed", "-1"], "seed must be >= 0, got -1"),
    *((command, ["--mothers", "800000", "--hospitals", "1"], "n_mothers must be at most 777600 per hospital "
       "(one delivery per minute of the delivery window), got 800000 over 1 hospital(s)")
      for command in ("synth", "pipeline")),
    ("synth", ["--time-jitter-sd", "1e308"],
     "time_jitter_sd must be at most 777600 (the delivery window in minutes), got 1e+308"),
    *((command, ["--swap-window-minutes", window], "swap_window_minutes must be in [0, 777600] "
       f"(the delivery window in minutes), got {window}")
      for command in ("synth", "pipeline") for window in ("777601", "100000000000000000000")),
])
def test_out_of_domain_flags_exit_2_before_any_file_is_touched(tmp_path, capsys, command, flags, message):
    inputs = [arg.format(tmp_path / "absent") for arg in INPUTS.get(command, [])]
    assert main([command, *inputs, *flags, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert list(tmp_path.iterdir()) == []


# `unread` is the first key, in file order, that the subcommand does not
# read. An `unread` of None marks a subcommand that reads no key: it takes no
# --config at all, so the parser refuses the flag itself.
@pytest.mark.parametrize("command, body, unread", [
    ("synth", {"train": {"n_epochs": 2}, "benchmark": {"repeats": 2}}, "train"),
    ("datasets", {"synth": {"n_mothers": 999}, "benchmark": {"n_epochs": 2}}, None),
    ("benchmark", {"synth": {"seed": 6}}, "synth"),
    ("benchmark", {"benchmark": {"n_epochs": 2}, "train": {"n_epochs": 2}}, "train"),
])
def test_config_keys_a_subcommand_does_not_read_exit_2_before_any_file_is_read(
    tmp_path, capsys, command, body, unread
):
    cfg = write_config(tmp_path / "run.json", {"version": 1, **body})
    out = tmp_path / "out"
    inputs = [arg.format(tmp_path / "absent") for arg in INPUTS.get(command, [])]
    argv = [command, *inputs, "--config", cfg, "--out", str(out)]
    if unread is None:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(
            f"pretermalc {command}: error: unrecognized arguments: --config {cfg}\n"
        )
    else:
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {cfg}: {unread}: not a key of a {command} config\n"
    assert not out.exists()


@pytest.mark.parametrize("command, flag", [
    ("synth", "--prediction-period-days"), ("benchmark", "--mothers"),
    ("pipeline", "--lr"), ("benchmark", "--batch-size"),
])
def test_a_flag_a_subcommand_does_not_take_is_named_with_it(tmp_path, capsys, command, flag):
    inputs = [arg.format(tmp_path / "absent") for arg in INPUTS.get(command, [])]
    with pytest.raises(SystemExit) as exc:
        main([command, *inputs, flag, "30", "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(f"pretermalc {command}: error: unrecognized arguments: {flag} 30\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("source", ["flag", "config"])
def test_a_calibrating_pipeline_rejects_a_misclassification_rate(tmp_path, capsys, source):
    if source == "flag":
        given, where = ["--misclassified-newborn-rate", "0.9"], "--misclassified-newborn-rate"
    else:
        cfg = write_config(tmp_path / "run.json", {
            "version": 1, "synth": {"clerical_noise": {"misclassified_newborn_rate": 0.9}},
        })
        given, where = ["--config", cfg], f"{cfg}: synth.clerical_noise.misclassified_newborn_rate"
    out = tmp_path / "x"
    assert main(["pipeline", *COHORT_FLAGS, *BENCHMARK_FLAGS, *given, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {where} has no effect without --no-calibrate\n"
    assert not out.exists()


# --- pipeline and downstream commands ---------------------------------------------------


def test_pipeline_writes_every_artifact(pipeline_dir):
    for name in (
        "vocabulary.txt", "mothers.jsonl", "newborns.jsonl", "truth.tsv", "links.tsv",
        "d_star.jsonl", "d_tilde.jsonl", "report.csv", "report_raw.csv", "c_hat.csv",
        "curves/roc_NoLC_clean.svg", "curves/pr_NoLC_clean.svg",
    ):
        assert (pipeline_dir / name).exists(), name


def test_staged_commands_write_the_pipeline_files(tmp_path, capsys):
    piped, staged = tmp_path / "pipeline", tmp_path / "staged"
    d = str(staged)
    assert main(["pipeline", *PIPELINE_FLAGS, "--out", str(piped)]) == 0
    piped_fingerprint = fingerprint_of(capsys)
    cohort = ["--mothers", f"{d}/mothers.jsonl", "--newborns", f"{d}/newborns.jsonl", "--vocab", f"{d}/vocabulary.txt"]
    for argv in (
        ["synth", *COHORT_FLAGS, "--out", d],
        ["link", *cohort, "--truth", f"{d}/truth.tsv", "--out", f"{d}/links.tsv"],
        ["datasets", *cohort, "--links", f"{d}/links.tsv", "--out", d],
        ["benchmark", "--seed", "11", *BENCHMARK_FLAGS, "--clean", f"{d}/d_star.jsonl",
         "--noisy", f"{d}/d_tilde.jsonl", "--vocab", f"{d}/vocabulary.txt", "--out", d],
    ):
        assert main(argv) == 0, argv[0]
    assert fingerprint_of(capsys) == piped_fingerprint
    written = sorted(p.relative_to(piped) for p in piped.rglob("*") if p.is_file())
    assert len(written) == 12
    assert written == sorted(p.relative_to(staged) for p in staged.rglob("*") if p.is_file())
    for name in written:
        assert (staged / name).read_bytes() == (piped / name).read_bytes(), name


def test_benchmark_rejects_cohort_flags(pipeline_dir, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main([
            "benchmark", "--mothers", "10", "--clean", str(pipeline_dir / "d_star.jsonl"),
            "--noisy", str(pipeline_dir / "d_tilde.jsonl"), "--vocab", str(pipeline_dir / "vocabulary.txt"),
            "--out", str(tmp_path / "x"),
        ])
    assert exc.value.code == 2
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("column, unknown", [(0, "n99x99990"), (1, "m99x9999")])
def test_datasets_link_errors_name_the_links_file(pipeline_dir, tmp_path, capsys, column, unknown):
    rows = [line.split("\t") for line in (pipeline_dir / "links.tsv").read_text().splitlines()]
    rows[0][column] = unknown
    links = tmp_path / "edited_links.tsv"
    links.write_text("".join("\t".join(row) + "\n" for row in rows))
    code = main([
        "datasets", "--mothers", str(pipeline_dir / "mothers.jsonl"),
        "--newborns", str(pipeline_dir / "newborns.jsonl"), "--links", str(links),
        "--vocab", str(pipeline_dir / "vocabulary.txt"), "--out", str(tmp_path / "out"),
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert str(links) in err and unknown in err
    assert "not present in records" in err


def test_pipeline_report_is_thread_count_independent(tmp_path):
    flags = [f if f != "1" else f for f in PIPELINE_FLAGS]
    flags[flags.index("--repeats") + 1] = "2"
    for threads, sub in (("1", "t1"), ("2", "t2")):
        assert main(["pipeline", *flags, "--threads", threads, "--out", str(tmp_path / sub)]) == 0
    for name in ("report.csv", "report_raw.csv", "d_star.jsonl", "c_hat.csv"):
        assert (tmp_path / "t1" / name).read_bytes() == (tmp_path / "t2" / name).read_bytes(), name


def test_pipeline_thread_validation(tmp_path, capsys):
    assert main(["pipeline", *PIPELINE_FLAGS, "--threads", "0", "--out", str(tmp_path / "x")]) == 2
    assert "--threads must be >= 1" in capsys.readouterr().err


def test_threads_are_capped_at_the_cpus_this_process_may_use(monkeypatch):
    # A CPU set of two, as a container may give, on a machine of any size.
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 64)
    assert cli._threads(8) == 2
    assert cli._threads(1) == 1
    with pytest.raises(ConfigError, match="--threads must be >= 1, got 0"):
        cli._threads(0)


def test_a_failing_pipeline_stage_is_named(tmp_path, capsys):
    flags = [*PIPELINE_FLAGS, "--missing-newborn-rate", "1", "--out", str(tmp_path / "x")]
    assert main(["pipeline", *flags]) == 1
    assert capsys.readouterr().err == "error: pipeline stage 'link' failed: cannot score an empty link set\n"


def test_a_pipeline_calibrates_the_misclassification_rate_first(tmp_path, capsys):
    noiseless = ["--time-jitter-sd", "0", "--missing-newborn-rate", "0", "--swap-window-minutes", "0"]
    flags = [*COHORT_FLAGS, *noiseless, "--target-accuracy", "1.0", *BENCHMARK_FLAGS, "--out", str(tmp_path / "x")]
    assert main(["pipeline", *flags]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "calibrated misclassified_newborn_rate=0.000000"


def test_pipeline_target_accuracy_is_checked_before_calibration(tmp_path, capsys):
    flags = [*COHORT_FLAGS, *BENCHMARK_FLAGS, "--target-accuracy", "0.3", "--out", str(tmp_path / "x")]
    assert main(["pipeline", *flags]) == 2
    assert "--target-accuracy must be in (0.5, 1], got 0.3" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_pipeline_rejects_a_target_accuracy_it_would_not_use(tmp_path, capsys):
    flags = [*PIPELINE_FLAGS, "--target-accuracy", "0.9", "--out", str(tmp_path / "x")]
    assert main(["pipeline", *flags]) == 2
    assert capsys.readouterr().err == "error: --target-accuracy has no effect with --no-calibrate\n"
    assert not (tmp_path / "x").exists()


def test_link_command_reports_accuracy(pipeline_dir, tmp_path, capsys):
    code = main([
        "link",
        "--mothers", str(pipeline_dir / "mothers.jsonl"),
        "--newborns", str(pipeline_dir / "newborns.jsonl"),
        "--vocab", str(pipeline_dir / "vocabulary.txt"),
        "--truth", str(pipeline_dir / "truth.tsv"),
        "--out", str(tmp_path / "links.tsv"),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "pair_accuracy=" in out and "label_accuracy=" in out
    assert (tmp_path / "links.tsv").read_bytes() == (pipeline_dir / "links.tsv").read_bytes()


def test_link_reads_a_vocabulary_with_a_byte_order_mark_as_the_plain_one(pipeline_dir, tmp_path, capsys):
    vocab = tmp_path / "vocabulary.txt"
    vocab.write_bytes(b"\xef\xbb\xbf" + (pipeline_dir / "vocabulary.txt").read_bytes())
    code = main([
        "link",
        "--mothers", str(pipeline_dir / "mothers.jsonl"),
        "--newborns", str(pipeline_dir / "newborns.jsonl"),
        "--vocab", str(vocab),
        "--out", str(tmp_path / "links.tsv"),
    ])
    assert code == 0, capsys.readouterr().err
    assert (tmp_path / "links.tsv").read_bytes() == (pipeline_dir / "links.tsv").read_bytes()


def test_link_that_cannot_score_its_links_writes_nothing(tmp_path, capsys):
    cohort = tmp_path / "cohort"
    assert main(["synth", "--mothers", "60", "--hospitals", "1", "--missing-newborn-rate", "1.0",
                 "--out", str(cohort)]) == 0
    capsys.readouterr()
    out = tmp_path / "links.tsv"
    code = main([
        "link", "--mothers", str(cohort / "mothers.jsonl"), "--newborns", str(cohort / "newborns.jsonl"),
        "--vocab", str(cohort / "vocabulary.txt"), "--truth", str(cohort / "truth.tsv"), "--out", str(out),
    ])
    assert code == 1
    assert capsys.readouterr() == ("", "error: cannot score an empty link set\n")
    assert not out.exists()


def test_link_names_a_truth_file_that_lacks_a_linked_mother(pipeline_dir, tmp_path, capsys):
    truth = tmp_path / "truth.tsv"
    lines = (pipeline_dir / "truth.tsv").read_text().splitlines(keepends=True)
    truth.write_text("".join(line for line in lines if line.split("\t")[1] != "m00x0000"))
    out = tmp_path / "links.tsv"
    code = main([
        "link", "--mothers", str(pipeline_dir / "mothers.jsonl"), "--newborns", str(pipeline_dir / "newborns.jsonl"),
        "--vocab", str(pipeline_dir / "vocabulary.txt"), "--truth", str(truth), "--out", str(out),
    ])
    assert code == 1
    assert capsys.readouterr().err == f"error: {truth}: mother m00x0000 missing from ground-truth labels\n"
    assert not out.exists()


# Which cohort file each record flag gets: the other role's file on one
# flag, or the two files swapped.
@pytest.mark.parametrize("command", ["link", "datasets"])
@pytest.mark.parametrize("given, wrong, role, expected", [
    ({"mothers": "newborns", "newborns": "newborns"}, "newborns", "newborn", "mother"),
    ({"mothers": "mothers", "newborns": "mothers"}, "mothers", "mother", "newborn"),
    ({"mothers": "newborns", "newborns": "mothers"}, "newborns", "newborn", "mother"),
])
def test_a_record_file_of_the_other_role_exits_1_before_any_stage_runs(
    pipeline_dir, tmp_path, capsys, command, given, wrong, role, expected
):
    out = tmp_path / ("links.tsv" if command == "link" else "out")
    argv = [command, "--vocab", str(pipeline_dir / "vocabulary.txt"), "--out", str(out)]
    argv += [arg for flag, name in given.items() for arg in (f"--{flag}", str(pipeline_dir / f"{name}.jsonl"))]
    if command == "datasets":
        argv += ["--links", str(pipeline_dir / "links.tsv")]
    assert main(argv) == 1
    wrong_file = pipeline_dir / f"{wrong}.jsonl"
    patient = json.loads(wrong_file.read_text(encoding="utf-8").splitlines()[0])["patient_id"]
    assert capsys.readouterr() == (
        "", f"error: {wrong_file}: line 1: patient {patient} is a {role} record, not a {expected} record\n"
    )
    assert not out.exists()


def test_link_and_datasets_read_one_delivery_encounter(tmp_path):
    """A triage visit on the delivery day is part of the delivery encounter
    that `link` matches and `datasets` labels."""
    def visit(codes, t_adm, t_dis):
        return {"day": t_adm // 1440, "codes": codes, "t_adm": t_adm, "t_dis": t_dis}

    t0 = 400 * 1440
    mother = {"patient_id": "m0", "hospital_id": "h00", "role": "mother", "delivery_day": 400, "visits": [
        visit(["V22.0"], 100 * 1440 + 60, 100 * 1440 + 120),
        visit(["V22.0"], 200 * 1440 + 60, 200 * 1440 + 120),
        visit(["V22.0"], t0 + 8 * 60, t0 + 9 * 60),
        visit(["650"], t0 + 10 * 60, t0 + 10 * 60 + 2 * 1440),
    ]}
    newborn = {"patient_id": "n0", "hospital_id": "h00", "role": "newborn", "delivery_day": 400,
               "visits": [visit(["765.29"], t0 + 10 * 60 + 20, t0 + 10 * 60 + 2 * 1440)]}
    (tmp_path / "vocabulary.txt").write_text("650\n765.29\nV22.0\n", encoding="utf-8")
    (tmp_path / "mothers.jsonl").write_text(json.dumps(mother) + "\n", encoding="utf-8")
    (tmp_path / "newborns.jsonl").write_text(json.dumps(newborn) + "\n", encoding="utf-8")
    cohort = [f"--{name}={tmp_path / file}" for name, file in
              (("mothers", "mothers.jsonl"), ("newborns", "newborns.jsonl"), ("vocab", "vocabulary.txt"))]
    links = tmp_path / "links.tsv"
    assert main(["link", *cohort, "--out", str(links)]) == 0
    assert links.read_text(encoding="utf-8") == "n0\tm0\t140\n"
    assert main(["datasets", *cohort, "--links", str(links), "--out", str(tmp_path)]) == 0
    rows = [json.loads(line) for line in (tmp_path / "d_star.jsonl").read_text(encoding="utf-8").splitlines()]
    assert [(row["patient_id"], row["clean_label"], row["noisy_label"]) for row in rows] == [
        ("m0", "fullterm", "fullterm")
    ]


@pytest.mark.parametrize("command, flag", [("link", "--out")])
def test_a_file_output_makes_its_directory(pipeline_dir, tmp_path, command, flag):
    d = pipeline_dir
    inputs = ["--mothers", f"{d}/mothers.jsonl", "--newborns", f"{d}/newborns.jsonl", "--vocab", f"{d}/vocabulary.txt"]
    out = tmp_path / "new" / "dir" / "file"
    assert main([command, *inputs, flag, str(out)]) == 0
    assert out.is_file()


def missing_inputs(command, missing):
    """The input flags of each subcommand, every one naming a missing file."""
    return {
        "synth": COHORT_FLAGS,
        "link": ["--mothers", missing, "--newborns", missing, "--vocab", missing],
        "datasets": ["--mothers", missing, "--newborns", missing, "--links", missing, "--vocab", missing],
        "benchmark": ["--clean", missing, "--noisy", missing, "--vocab", missing, *BENCHMARK_FLAGS],
        "pipeline": [*COHORT_FLAGS, *BENCHMARK_FLAGS],
        "report": ["--raw", missing],
    }[command]


# Every output flag: None for a file, else one file that its stages write in
# the directory.
OUTPUTS = {
    ("synth", "--out"): "truth.tsv",
    ("link", "--out"): None,
    ("datasets", "--out"): "d_tilde.jsonl",
    ("benchmark", "--out"): "report.csv",
    ("pipeline", "--out"): "curves/roc_NoLC_clean.svg",
    ("report", "--out"): "pr_auc.svg",
}
CONFLICTS = [
    (command, flag, conflict)
    for (command, flag), inner in OUTPUTS.items()
    for conflict in ["parent_is_a_file", *(
        ["file_is_a_directory"] if inner is None else ["directory_is_a_file", "inner_file_is_a_directory"]
    )]
]


def make_conflict(conflict, tmp_path, inner):
    """Set up `conflict` in tmp_path: the output path to give, and the
    message that names what is in the way."""
    out, blocker = tmp_path / "out", tmp_path / "blocker"
    if conflict == "parent_is_a_file":
        blocker.write_text("x", encoding="utf-8")
        return blocker / "out", f"{blocker} is not a directory"
    if conflict == "file_is_a_directory":
        out.mkdir()
        return out, f"{out} is a directory"
    if conflict == "directory_is_a_file":
        out.write_text("x", encoding="utf-8")
        return out, f"{out} is not a directory"
    (out / inner).mkdir(parents=True)
    return out, f"{out / inner} is a directory"


def unreachable(*args, **kwargs):
    raise AssertionError("an input was read or a stage ran before the outputs were checked")


@pytest.mark.parametrize("command, flag, conflict", CONFLICTS)
def test_an_output_conflict_fails_first(tmp_path, capsys, monkeypatch, command, flag, conflict):
    # Every input is missing, and synth and pipeline (which calibrates) fail
    # at their first step, so only a check that comes first can exit 2.
    monkeypatch.setattr(cli, "generate_cohort", unreachable)
    monkeypatch.setattr(cli, "calibrate_noise", unreachable)
    out, message = make_conflict(conflict, tmp_path, OUTPUTS[command, flag])
    before = sorted(tmp_path.rglob("*"))
    code = main([command, *missing_inputs(command, str(tmp_path / "missing")), flag, str(out)])
    assert (code, capsys.readouterr().err) == (2, f"error: {flag}: {message}\n")
    assert sorted(tmp_path.rglob("*")) == before


# Two names under one --out that a symbolic link makes one file, or one
# name whose parent a symbolic link makes another output.
@pytest.mark.parametrize("command, link, target, message", [
    ("synth", "mothers.jsonl", "newborns.jsonl", "{out}/newborns.jsonl is the same file as {out}/mothers.jsonl"),
    ("synth", "vocabulary.txt", "sub/../truth.tsv", "{out}/truth.tsv is the same file as {out}/vocabulary.txt"),
    ("pipeline", "curves", "report.csv", "{out}/curves is not a directory"),
], ids=["one-file", "one-file-by-another-name", "one-inside-another"])
def test_two_outputs_that_collide_fail_first(tmp_path, capsys, monkeypatch, command, link, target, message):
    monkeypatch.setattr(cli, "generate_cohort", unreachable)
    monkeypatch.setattr(cli, "calibrate_noise", unreachable)
    out = tmp_path / "out"
    (out / "sub").mkdir(parents=True)
    (out / link).symlink_to(out / target)
    flags = COHORT_FLAGS if command == "synth" else [*COHORT_FLAGS, *BENCHMARK_FLAGS]
    assert main([command, *flags, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: --out: {message.format(out=out)}\n"
    assert sorted(tmp_path.rglob("*")) == sorted([out, out / link, out / "sub"])


# For each subcommand that takes an input flag, a run over a copy s of the
# pipeline's files whose --out names one of its inputs: the arguments, that
# input's flag, its file in s, and the file in s that it holds a copy of
# (None: a config file).
STAGED = ["--mothers", "{s}/mothers.jsonl", "--newborns", "{s}/newborns.jsonl", "--vocab", "{s}/vocabulary.txt"]
ONTO_INPUT = {
    "synth": (["--config", "{s}/truth.tsv", "--out", "{s}"], "--config", "truth.tsv", None),
    "link": ([*STAGED, "--out", "{s}/mothers.jsonl"], "--mothers", "mothers.jsonl", "mothers.jsonl"),
    "datasets": ([*STAGED, "--links", "{s}/d_star.jsonl", "--out", "{s}"], "--links", "d_star.jsonl", "links.tsv"),
    "benchmark": (
        ["--clean", "{s}/report.csv", "--noisy", "{s}/d_tilde.jsonl", "--vocab", "{s}/vocabulary.txt",
         *BENCHMARK_FLAGS, "--out", "{s}"],
        "--clean", "report.csv", "d_star.jsonl",
    ),
    "pipeline": (["--config", "{s}/c_hat.csv", *PIPELINE_FLAGS, "--out", "{s}"], "--config", "c_hat.csv", None),
    "report": (["--raw", "{s}/auc.svg", "--out", "{s}"], "--raw", "auc.svg", "report_raw.csv"),
}


@pytest.mark.parametrize("command", list(ONTO_INPUT))
def test_an_output_that_names_an_input_fails_first(pipeline_dir, tmp_path, capsys, command):
    argv, flag, name, source = ONTO_INPUT[command]
    s = tmp_path / "s"
    shutil.copytree(pipeline_dir, s)
    (s / name).write_bytes((s / source).read_bytes() if source else b'{"version": 1}')
    before = {p: p.read_bytes() for p in s.rglob("*") if p.is_file()}
    assert main([command, *(arg.format(s=s) for arg in argv)]) == 2
    assert capsys.readouterr().err == f"error: --out: {s / name} is the {flag} input\n"
    assert {p: p.read_bytes() for p in s.rglob("*") if p.is_file()} == before


# Each subcommand's arguments and its input flags. The inputs are the files
# of a pipeline run in s, or a config file t/run.json that sets nothing.
INPUT_RUNS = {
    "synth": (["--config", "{t}/run.json", "--out", "{t}/out"], ["--config"]),
    "link": ([*STAGED, "--truth", "{s}/truth.tsv", "--out", "{t}/out/links.tsv"],
             ["--mothers", "--newborns", "--vocab", "--truth"]),
    "datasets": ([*STAGED, "--links", "{s}/links.tsv", "--out", "{t}/out"],
                 ["--mothers", "--newborns", "--links", "--vocab"]),
    "benchmark": (["--config", "{t}/run.json", "--clean", "{s}/d_star.jsonl", "--noisy", "{s}/d_tilde.jsonl",
                   "--vocab", "{s}/vocabulary.txt", *BENCHMARK_FLAGS, "--out", "{t}/out"],
                  ["--config", "--clean", "--noisy", "--vocab"]),
    "pipeline": (["--config", "{t}/run.json", *PIPELINE_FLAGS, "--out", "{t}/out"], ["--config"]),
    "report": (["--raw", "{s}/report_raw.csv"], ["--raw"]),
}


@pytest.mark.parametrize("command, flag, fault", [
    (command, flag, fault)
    for command, (_, flags) in INPUT_RUNS.items() for flag in flags for fault in ("missing", "directory")
])
def test_a_missing_or_directory_input_exits_2_and_names_its_flag(pipeline_dir, tmp_path, capsys, command, flag, fault):
    argv, _ = INPUT_RUNS[command]
    argv = [arg.format(s=pipeline_dir, t=tmp_path) for arg in argv]
    write_config(tmp_path / "run.json", {"version": 1})
    bad = tmp_path / "bad"
    if fault == "directory":
        bad.mkdir()
    argv[argv.index(flag) + 1] = str(bad)
    before = sorted(tmp_path.rglob("*"))
    assert main([command, *argv]) == 2
    reason = os.strerror(errno.ENOENT if fault == "missing" else errno.EISDIR)
    assert capsys.readouterr() == ("", f"error: {flag}: {bad}: {reason}\n")
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("flag, name", [("--clean", "d_tilde.jsonl"), ("--noisy", "d_star.jsonl")])
def test_benchmark_rejects_an_example_without_the_flags_label(pipeline_dir, tmp_path, capsys, flag, name):
    kind = flag[2:]
    path = pipeline_dir / name
    rows = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    first = next(row["patient_id"] for row in rows if row[f"{kind}_label"] is None)
    inputs = {"--clean": pipeline_dir / "d_star.jsonl", "--noisy": pipeline_dir / "d_tilde.jsonl", flag: path}
    out = tmp_path / "out"
    code = main([
        "benchmark", *(str(arg) for pair in inputs.items() for arg in pair),
        "--vocab", str(pipeline_dir / "vocabulary.txt"),
        "--methods", "NoLC_clean,NoLC_noisy", "--repeats", "1", "--epochs", "1", "--out", str(out),
    ])
    assert code == 1
    assert capsys.readouterr().err == f"error: {path}: example {first} lacks the {kind} label that {flag} needs\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["benchmark"])
def test_an_example_without_visits_is_named_with_its_file(pipeline_dir, tmp_path, capsys, command):
    rows = [json.loads(line) for line in (pipeline_dir / "d_star.jsonl").read_text(encoding="utf-8").splitlines()]
    rows[3]["visits"] = []
    clean = tmp_path / "d_star.jsonl"
    clean.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
    argv = [command, "--clean", str(clean), "--noisy", str(pipeline_dir / "d_tilde.jsonl"),
            "--vocab", str(pipeline_dir / "vocabulary.txt"),
            "--methods", "NoLC_clean", "--repeats", "1", "--epochs", "1", "--out", str(tmp_path / "out")]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {clean}: line 4: example {rows[3]['patient_id']} has no visits\n"


def test_benchmark_refuses_a_patient_listed_again_and_names_the_file(pipeline_dir, tmp_path, capsys):
    lines = (pipeline_dir / "d_tilde.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
    noisy = tmp_path / "d_tilde.jsonl"
    noisy.write_text("".join(lines) + lines[0], encoding="utf-8")
    out = tmp_path / "out"
    code = main([
        "benchmark", "--clean", str(pipeline_dir / "d_star.jsonl"), "--noisy", str(noisy),
        "--vocab", str(pipeline_dir / "vocabulary.txt"),
        "--methods", "NoLC_noisy", "--repeats", "1", "--epochs", "1", "--out", str(out),
    ])
    assert code == 1
    patient = json.loads(lines[0])["patient_id"]
    assert capsys.readouterr().err == f"error: {noisy}: line {len(lines) + 1}: patient {patient} listed again\n"
    assert not out.exists()


def test_benchmark_refuses_a_misspelt_label_key_and_names_the_file_and_line(pipeline_dir, tmp_path, capsys):
    lines = (pipeline_dir / "d_star.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
    n = next(i for i, line in enumerate(lines) if json.loads(line)["noisy_label"] is not None)
    lines[n] = lines[n].replace('"noisy_label"', '"noisy_lable"')
    clean = tmp_path / "d_star.jsonl"
    clean.write_text("".join(lines), encoding="utf-8")
    out = tmp_path / "out"
    code = main([
        "benchmark", "--clean", str(clean), "--noisy", str(pipeline_dir / "d_tilde.jsonl"),
        "--vocab", str(pipeline_dir / "vocabulary.txt"),
        "--methods", "NoLC_mixed,ALC", "--repeats", "1", "--epochs", "1", "--out", str(out),
    ])
    assert code == 1
    assert capsys.readouterr().err == f"error: {clean}: line {n + 1}: noisy_lable: not a key of a record line\n"
    assert not out.exists()


def test_benchmark_command_is_deterministic(pipeline_dir, tmp_path, capsys):
    base = [
        "benchmark",
        "--clean", str(pipeline_dir / "d_star.jsonl"),
        "--noisy", str(pipeline_dir / "d_tilde.jsonl"),
        "--vocab", str(pipeline_dir / "vocabulary.txt"),
        "--methods", "NoLC_clean,NoLC_noisy",
        "--repeats", "1", "--epochs", "1", "--seed", "6",
    ]
    for sub in ("a", "b"):
        assert main([*base, "--out", str(tmp_path / sub)]) == 0
    out = capsys.readouterr().out
    assert "method" in out and "+/-" in out
    for name in ("report.csv", "report_raw.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_benchmark_writes_exactly_the_files_it_names(pipeline_dir, tmp_path):
    out = tmp_path / "out"
    assert main([
        "benchmark", "--clean", str(pipeline_dir / "d_star.jsonl"), "--noisy", str(pipeline_dir / "d_tilde.jsonl"),
        "--vocab", str(pipeline_dir / "vocabulary.txt"), "--methods", "NoLC_mixed,ALC", "--repeats", "2",
        "--epochs", "1", "--out", str(out),
    ]) == 0
    named = cli.benchmark_files(BenchmarkConfig(["NoLC_mixed", "ALC"], repeats=2, n_epochs=1))
    assert len(named) == 3 + 2 * 2
    assert sorted(p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file()) == sorted(named)


def test_benchmark_prints_the_range_of_the_c_hat_diagonals(pipeline_dir, tmp_path, capsys):
    clean, noisy, vocab = (pipeline_dir / name for name in ("d_star.jsonl", "d_tilde.jsonl", "vocabulary.txt"))
    out = tmp_path / "out"
    assert main([
        "benchmark", "--clean", str(clean), "--noisy", str(noisy), "--vocab", str(vocab),
        "--methods", "NoLC_clean", "--repeats", "3", "--epochs", "1", "--seed", "6", "--out", str(out),
    ]) == 0
    corpus = Corpus.from_files(clean, noisy, vocab)
    preterm, full_term = zip(*(repeat_inputs(corpus, r, 6).c_hat.entries.diagonal() for r in range(3)))
    c_hat_line, report_line = capsys.readouterr().out.splitlines()[-2:]
    assert c_hat_line == (
        f"c_hat -> {out / 'c_hat.csv'} (diagonal over 3 repeats: preterm {min(preterm):.4f}-{max(preterm):.4f}, "
        f"full-term {min(full_term):.4f}-{max(full_term):.4f})"
    )
    assert report_line.startswith(f"report -> {out / 'report.csv'} (fingerprint ")


def fingerprint_of(capsys) -> str:
    return capsys.readouterr().out.rsplit("(fingerprint ", 1)[1].split(")", 1)[0]


def test_benchmark_takes_settings_from_the_config_file(pipeline_dir, tmp_path, capsys):
    base = [
        "benchmark",
        "--clean", str(pipeline_dir / "d_star.jsonl"),
        "--noisy", str(pipeline_dir / "d_tilde.jsonl"),
        "--vocab", str(pipeline_dir / "vocabulary.txt"),
    ]
    flags = ["--methods", "NoLC_clean", "--repeats", "1", "--epochs", "1", "--seed", "6"]
    assert main([*base, *flags, "--out", str(tmp_path / "flags")]) == 0
    from_flags = fingerprint_of(capsys)

    cfg = write_config(tmp_path / "run.json", {
        "version": 1,
        "benchmark": {"repeats": 1, "methods": ["NoLC_clean"], "base_seed": 6, "n_epochs": 1},
    })
    assert main([*base, "--config", cfg, "--out", str(tmp_path / "config")]) == 0
    assert fingerprint_of(capsys) == from_flags
    raw = (tmp_path / "config" / "report_raw.csv").read_text(encoding="utf-8").splitlines()
    assert len(raw) == 2 and raw[1].startswith("NoLC_clean,0,")

    overridden = write_config(tmp_path / "other.json", {
        "version": 1,
        "benchmark": {"repeats": 4, "methods": ["ALC"], "base_seed": 5, "n_epochs": 3},
    })
    assert main([*base, "--config", overridden, *flags, "--out", str(tmp_path / "overridden")]) == 0
    assert fingerprint_of(capsys) == from_flags
    for name in ("report.csv", "report_raw.csv"):
        blobs = {(tmp_path / sub / name).read_bytes() for sub in ("flags", "config", "overridden")}
        assert len(blobs) == 1, name


def test_benchmark_seed_flag_overrides_the_config_base_seed(pipeline_dir, tmp_path, capsys):
    base = [
        "benchmark", "--clean", str(pipeline_dir / "d_star.jsonl"), "--noisy", str(pipeline_dir / "d_tilde.jsonl"),
        "--vocab", str(pipeline_dir / "vocabulary.txt"), "--methods", "NoLC_clean", "--repeats", "1",
        "--epochs", "1", "--seed", "5",
    ]
    assert main([*base, "--out", str(tmp_path / "flag")]) == 0
    from_flag = fingerprint_of(capsys)
    cfg = write_config(tmp_path / "run.json", {"version": 1, "benchmark": {"base_seed": 3}})
    assert main([*base, "--config", cfg, "--out", str(tmp_path / "both")]) == 0
    assert fingerprint_of(capsys) == from_flag
    for name in ("report.csv", "report_raw.csv"):
        assert (tmp_path / "both" / name).read_bytes() == (tmp_path / "flag" / name).read_bytes(), name


def test_benchmark_rejects_unknown_methods(pipeline_dir, tmp_path, capsys):
    code = main([
        "benchmark",
        "--clean", str(pipeline_dir / "d_star.jsonl"),
        "--noisy", str(pipeline_dir / "d_tilde.jsonl"),
        "--vocab", str(pipeline_dir / "vocabulary.txt"),
        "--methods", "NoLC_clean,Magic",
        "--repeats", "1", "--out", str(tmp_path / "x"),
    ])
    assert code == 2
    assert "unknown method 'Magic'" in capsys.readouterr().err


@pytest.mark.parametrize("source", ["flag", "config"])
def test_benchmark_rejects_repeated_methods(pipeline_dir, tmp_path, capsys, source):
    if source == "flag":
        given, where = ["--methods", "NoLC_clean,ALC,NoLC_clean"], "methods"
    else:
        cfg = write_config(tmp_path / "run.json", {
            "version": 1, "benchmark": {"methods": ["NoLC_clean", "ALC", "NoLC_clean"]},
        })
        given, where = ["--config", cfg], f"{cfg}: benchmark: methods"
    out = tmp_path / "x"
    code = main([
        "benchmark",
        "--clean", str(pipeline_dir / "d_star.jsonl"),
        "--noisy", str(pipeline_dir / "d_tilde.jsonl"),
        "--vocab", str(pipeline_dir / "vocabulary.txt"),
        *given,
        "--repeats", "1", "--out", str(out),
    ])
    assert code == 2
    assert capsys.readouterr().err == f"error: {where}: method(s) given more than once: NoLC_clean\n"
    assert not out.exists()


# A bad benchmark request as the library, the flags and a config file give
# it: (config values, flags, the message tail all three share).
BAD_REQUESTS = {
    "unknown_method": ({"methods": ["NoLC_clean", "Magic"]}, ["--methods", "NoLC_clean,Magic"],
                       "methods: unknown method 'Magic'; valid: ALC, GLC_noisy_then_clean, "
                       "GLC_clean_then_noisy, NoLC_clean, NoLC_noisy, NoLC_mixed"),
    "no_methods": ({"methods": []}, ["--methods", ""], "methods: no methods given"),
    "repeated_method": ({"methods": ["NoLC_clean", "ALC", "NoLC_clean"]}, ["--methods", "NoLC_clean,ALC,NoLC_clean"],
                        "methods: method(s) given more than once: NoLC_clean"),
    "no_repeats": ({"repeats": 0}, ["--repeats", "0"], "repeats must be >= 1, got 0"),
    "no_epochs": ({"n_epochs": 0}, ["--epochs", "0"], "n_epochs must be >= 1, got 0"),
}


@pytest.mark.parametrize("case", sorted(BAD_REQUESTS))
def test_a_bad_benchmark_request_fails_alike_from_the_library_the_flags_and_a_file(tmp_path, capsys, case):
    values, flags, tail = BAD_REQUESTS[case]
    with pytest.raises(ValueError) as exc:
        BenchmarkConfig(**values)
    assert str(exc.value) == tail
    inputs = [arg.format(tmp_path / "absent") for arg in INPUTS["benchmark"]]
    out = tmp_path / "out"
    assert main(["benchmark", *inputs, *flags, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {tail}\n"
    cfg = write_config(tmp_path / "run.json", {"version": 1, "benchmark": values})
    assert main(["benchmark", *inputs, "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {cfg}: benchmark: {tail}\n"
    assert not out.exists()


def test_report_command_summarizes_and_draws(pipeline_dir, tmp_path, capsys):
    code = main(["report", "--raw", str(pipeline_dir / "report_raw.csv"), "--out", str(tmp_path / "svg")])
    assert code == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].startswith("method")
    assert "+/- 0.00" in out  # single repeat: zero spread
    assert (tmp_path / "svg" / "auc.svg").exists()
    assert (tmp_path / "svg" / "pr_auc.svg").exists()


def test_report_svgs_escape_the_text_they_show(tmp_path, capsys):
    raw = tmp_path / "raw.csv"
    raw.write_text("method,repeat,auc,pr_auc\nA<B&C,0,0.8,0.5\n", encoding="utf-8")
    assert main(["report", "--raw", str(raw), "--out", str(tmp_path / "svg")]) == 0
    for name in ("auc.svg", "pr_auc.svg"):
        shown = [node.text for node in ElementTree.parse(tmp_path / "svg" / name).iter(f"{SVG}text")]
        assert "A<B&C" in shown, name
    curve = ElementTree.fromstring(cli.curve_svg([0.0, 1.0], [0.0, 1.0], "ROC A<B&C", "x<y", "p&q"))
    assert [node.text for node in curve.iter(f"{SVG}text")] == ["ROC A<B&C", "x<y", "p&q"]


def test_chart_bytes_are_pinned(tmp_path, capsys):
    """The sha256 of a curve chart and a summary chart drawn from fixed
    inputs, so that a change to the plotting code keeps every byte."""
    xs = np.linspace(0, 1, 11)
    curve = cli.curve_svg(xs, xs**2, "ROC m", "false positive rate", "true positive rate")
    raw = tmp_path / "raw.csv"
    raw.write_text(
        "method,repeat,auc,pr_auc\nALC,0,0.812500,0.640000\nNoLC_noisy,0,0.703125,0.512000\n"
        "NoLC_clean,0,0.875000,0.730000\n",
        encoding="utf-8",
    )
    assert main(["report", "--raw", str(raw), "--out", str(tmp_path / "svg")]) == 0
    docs = (curve.encode("utf-8"), (tmp_path / "svg" / "auc.svg").read_bytes())
    assert [hashlib.sha256(doc).hexdigest() for doc in docs] == [
        "701699bb023d3782a785897d5ffc9c67c172b14d30b2a9a3066a1972788f6d0f",
        "0574e8df0a0fa45b906e83ce0612cb436b803fee0e34e536531360c88fa9a3ad",
    ]


def test_report_command_rejects_malformed_input(tmp_path, capsys):
    bad = tmp_path / "raw.csv"
    bad.write_text("wrong,header\n1,2\n", encoding="utf-8")
    assert main(["report", "--raw", str(bad)]) == 1
    assert "unexpected header" in capsys.readouterr().err


def test_report_command_rejects_a_corrupt_raw_csv(tmp_path, capsys):
    raw = tmp_path / "raw.csv"
    raw.write_text("method,repeat,auc,pr_auc\nALC,0,0.8,0.5\nALC,0,nan,1.7\n", encoding="utf-8")
    assert main(["report", "--raw", str(raw), "--out", str(tmp_path / "svg")]) == 1
    assert capsys.readouterr() == ("", f"error: {raw}: line 3: auc must be in [0, 1], got nan\n")
    assert not (tmp_path / "svg").exists()


@pytest.mark.parametrize("rows, message", [
    ("ALC,0,0.8,0.5\nALC,1,0.6,0.4\nNoLC_clean,5,0.7,0.3\n,0,0.5,0.5\n", "line 5: empty method name"),
    ("ALC,0,0.8,0.5\nALC,1,0.6,0.4\nNoLC_clean,5,0.7,0.3\n", "NoLC_clean covers repeats [5], but ALC covers [0, 1]"),
    ("ALC,0,0.8,0.5\nNoLC_clean,0,0.7,0.3\nNoLC_clean,1,0.7,0.3\nALC,1,0.6,0.4\nGLC_noisy_then_clean,1,0.5,0.5\n",
     "GLC_noisy_then_clean covers repeats [1], but ALC covers [0, 1]"),
], ids=["empty_method", "other_repeats", "a_later_method_differs"])
def test_report_command_rejects_methods_it_cannot_pair_by_repeat(tmp_path, capsys, rows, message):
    raw = tmp_path / "raw.csv"
    raw.write_text("method,repeat,auc,pr_auc\n" + rows, encoding="utf-8")
    assert main(["report", "--raw", str(raw)]) == 1
    assert capsys.readouterr() == ("", f"error: {raw}: {message}\n")


def test_report_command_rejects_a_raw_csv_without_rows(tmp_path, capsys):
    raw = tmp_path / "raw.csv"
    raw.write_text("method,repeat,auc,pr_auc\n", encoding="utf-8")
    assert main(["report", "--raw", str(raw)]) == 1
    assert capsys.readouterr().err == f"error: {raw}: no data rows\n"


# --- parser ----------------------------------------------------------------------------

SYNTH_FLAGS = [
    "--clean-code-rate", "--config", "--hospitals", "--misclassified-newborn-rate", "--missing-newborn-rate",
    "--mothers", "--newborn-coded-rate", "--seed", "--swap-window-minutes", "--time-jitter-sd",
]
OPTION_STRINGS = {
    "synth": ["--out", *SYNTH_FLAGS],
    "link": ["--mothers", "--newborns", "--out", "--truth", "--vocab"],
    "datasets": ["--links", "--mothers", "--newborns", "--out", "--vocab"],
    "benchmark": [
        "--clean", "--config", "--epochs", "--methods", "--noisy",
        "--out", "--repeats", "--seed", "--threads", "--vocab",
    ],
    "pipeline": [
        "--epochs", "--methods", "--no-calibrate", "--out", "--repeats",
        "--target-accuracy", "--threads", *SYNTH_FLAGS,
    ],
    "report": ["--out", "--raw"],
}


def subparsers() -> dict[str, argparse.ArgumentParser]:
    parser = build_parser()
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def test_every_subcommand_keeps_its_flags():
    found = {
        name: sorted(opt for action in p._actions for opt in action.option_strings if opt not in ("-h", "--help"))
        for name, p in subparsers().items()
    }
    assert found == {name: sorted(opts) for name, opts in OPTION_STRINGS.items()}
    assert sum(map(len, found.values())) == 50


def test_synth_flags_take_the_type_of_their_field():
    types = {a.option_strings[0]: a.type for a in subparsers()["pipeline"]._actions if a.option_strings}
    ints = ["--seed", "--mothers", "--hospitals", "--swap-window-minutes"]
    floats = ["--clean-code-rate", "--newborn-coded-rate", "--time-jitter-sd", "--missing-newborn-rate",
              "--misclassified-newborn-rate"]
    assert {flag: types[flag] for flag in ints + floats} == {
        **dict.fromkeys(ints, int), **dict.fromkeys(floats, float)
    }


# --- table formatting -------------------------------------------------------------------


def test_summary_table_is_aligned_percentage_text():
    summaries = {
        "ALC": MethodSummary(0.8123, 0.0211, 0.7001, 0.0),
        "NoLC_clean": MethodSummary(0.795, 0.034, 0.65, 0.012),
    }
    table = format_summary_table(summaries)
    lines = table.splitlines()
    assert lines[0].split() == ["method", "auc", "pr_auc"]
    assert lines[1].split()[0] == "ALC"
    assert "81.23 +/- 2.11" in lines[1]
    assert "70.01 +/- 0.00" in lines[1]
    assert "79.50 +/- 3.40" in lines[2]
    assert len({line.index("+/-") for line in lines[1:]}) == 1
