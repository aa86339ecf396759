"""Command-line interface: exit codes, config handling, file outputs, and
byte-level reproducibility."""

import argparse
import hashlib
import json
from xml.etree import ElementTree

import pytest

from pretermalc import cli
from pretermalc.bench import BenchmarkConfig, MethodSummary
from pretermalc.cli import build_parser, format_summary_table, load_run_config, main, resolve_run_settings
from pretermalc.synth import ConfigError

COHORT_FLAGS = ["--mothers", "200", "--hospitals", "3", "--seed", "11"]
BENCHMARK_FLAGS = ["--repeats", "1", "--epochs", "1", "--methods", "NoLC_clean", "--curves"]
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
    assert "checkpoint format" in out


def test_missing_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_config_errors_exit_2_and_name_the_field(tmp_path, capsys):
    code = main(["synth", "--mothers", "0", "--out", str(tmp_path / "x")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "n_mothers" in err


def link_absent_files(tmp_path) -> list[str]:
    absent = str(tmp_path / "absent")
    return ["link", "--mothers", absent, "--newborns", absent, "--vocab", absent, "--out", str(tmp_path / "links.tsv")]


def test_runtime_errors_exit_1(tmp_path, capsys):
    code = main(link_absent_files(tmp_path))
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("argv, error", [
    (lambda tmp_path: ["synth", "--mothers", "0", "--out", str(tmp_path / "x")], ConfigError),
    (link_absent_files, FileNotFoundError),
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


def test_config_file_version_is_checked(tmp_path, capsys):
    cfg = write_config(tmp_path / "run.json", {"version": 99, "synth": {}})
    assert main(["synth", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    assert "config version must be 1" in capsys.readouterr().err


def test_config_file_rejects_unknown_keys(tmp_path):
    path = write_config(tmp_path / "a.json", {"version": 1, "synth": {"n_motherz": 5}})
    with pytest.raises(ConfigError, match=r"a\.json: synth\.n_motherz not read by the pipeline subcommand"):
        load_run_config(path, "pipeline")
    path = write_config(tmp_path / "b.json", {"version": 1, "synth": {"clerical_noise": {"jitter": 5.0}}})
    with pytest.raises(ConfigError, match=r"synth\.clerical_noise\.jitter not read by the pipeline subcommand"):
        load_run_config(path, "pipeline")
    with pytest.raises(ConfigError, match="extras not read by the pipeline subcommand"):
        load_run_config(write_config(tmp_path / "c.json", {"version": 1, "extras": {}}), "pipeline")
    broken = tmp_path / "d.json"
    broken.write_text('{"version": 1,', encoding="utf-8")
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_run_config(broken, "pipeline")


def test_config_file_that_is_not_utf8_exits_2_and_is_named(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_bytes(b'{"version": 1, "synth": {"n_mothers": 120}, "note": "caf\xe9"}')
    assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err == f"error: {cfg}: not UTF-8 text\n"
    assert not (tmp_path / "x").exists()


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
    assert capsys.readouterr().err == f"error: {cfg}: {named} not read by the pipeline subcommand\n"
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("body,expected", [
    ({"synth": {"n_mothers": "200"}}, "synth.n_mothers: expected int, got '200'"),
    ({"synth": {"clerical_noise": {"time_jitter_sd": -1.0}}}, "synth.clerical_noise: time_jitter_sd must be >= 0"),
    ({"synth": {"clean_code_rate": True}}, "synth.clean_code_rate: expected float"),
    ({"benchmark": {"n_epochs": 0}}, "benchmark: n_epochs must be >= 1"),
    ({"benchmark": {"n_epochs": 2.5}}, "benchmark.n_epochs: expected int, got 2.5"),
    ({"benchmark": {"repeats": 0}}, "benchmark: repeats must be >= 1, got 0"),
    ({"benchmark": {"methods": ["NoLC_clean", "Magic"]}}, "benchmark: methods: unknown method 'Magic'"),
    ({"benchmark": {"methods": "ALC"}}, "benchmark.methods: expected list of strings, got 'ALC'"),
    ({"benchmark": []}, "benchmark: expected an object"),
    ({"synth": {"clerical_noise": {"time_jitter_sd": float("nan")}}},
     "synth.clerical_noise: time_jitter_sd must be >= 0 and finite, got nan"),
    ({"synth": {"seed": -1}}, "synth: seed must be >= 0, got -1"),
])
def test_bad_config_values_exit_2_before_the_pipeline_writes(tmp_path, capsys, body, expected):
    cfg = write_config(tmp_path / "run.json", {"version": 1, **body})
    out = tmp_path / "out"
    assert main(["pipeline", "--config", cfg, "--mothers", "200", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"{cfg}: {expected}" in err, err
    assert not out.exists()


# The input flags of the subcommands whose settings a test rejects: the
# files are absent, so a run that got as far as reading one would exit 1.
INPUTS = {
    "datasets": ["--mothers", "{0}", "--newborns", "{0}", "--links", "{0}", "--vocab", "{0}"],
    "benchmark": ["--clean", "{0}", "--noisy", "{0}", "--vocab", "{0}"],
    "train": ["--clean", "{0}", "--vocab", "{0}", "--method", "NoLC_clean", "--out-checkpoint", "{0}.ckpt"],
}


@pytest.mark.parametrize("command, flags, message", [
    ("synth", ["--seed", "-1"], "seed must be >= 0, got -1"),
    ("synth", ["--time-jitter-sd", "nan"], "time_jitter_sd must be >= 0 and finite, got nan"),
    ("synth", ["--time-jitter-sd", "inf"], "time_jitter_sd must be >= 0 and finite, got inf"),
    ("pipeline", ["--seed", "-1"], "seed must be >= 0, got -1"),
    ("train", ["--seed", "-3"], "seed must be >= 0, got -3"),
])
def test_out_of_domain_flags_exit_2_before_any_file_is_touched(tmp_path, capsys, command, flags, message):
    inputs = [arg.format(tmp_path / "absent") for arg in INPUTS.get(command, [])]
    out = [] if command == "train" else ["--out", str(tmp_path / "out")]
    assert main([command, *inputs, *flags, *out]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert list(tmp_path.iterdir()) == []


# An `unread` of None marks a subcommand that reads no key: it takes no
# --config at all, so the parser refuses the flag itself.
@pytest.mark.parametrize("command, body, unread", [
    ("synth", {"train": {"n_epochs": 2}, "benchmark": {"repeats": 2}}, "benchmark, train"),
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
        assert capsys.readouterr().err == f"error: {cfg}: {unread} not read by the {command} subcommand\n"
    assert not out.exists()


@pytest.mark.parametrize("command, flag", [
    ("synth", "--prediction-period-days"), ("benchmark", "--mothers"),
    ("train", "--lr"), ("benchmark", "--batch-size"),
])
def test_a_flag_a_subcommand_does_not_take_is_named_with_it(tmp_path, capsys, command, flag):
    inputs = [arg.format(tmp_path / "absent") for arg in INPUTS.get(command, [])]
    out = [] if command == "train" else ["--out", str(tmp_path / "out")]
    with pytest.raises(SystemExit) as exc:
        main([command, *inputs, flag, "30", *out])
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
        "d_star.jsonl", "d_tilde.jsonl", "d_prime.jsonl", "c_matrix.csv",
        "report.csv", "report_raw.csv",
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
        ["estimate-c", "--examples", f"{d}/d_prime.jsonl", "--vocab", f"{d}/vocabulary.txt",
         "--out", f"{d}/c_matrix.csv"],
        ["benchmark", "--seed", "11", *BENCHMARK_FLAGS, "--clean", f"{d}/d_star.jsonl",
         "--noisy", f"{d}/d_tilde.jsonl", "--vocab", f"{d}/vocabulary.txt", "--out", d],
    ):
        assert main(argv) == 0, argv[0]
    assert fingerprint_of(capsys) == piped_fingerprint
    written = sorted(p.relative_to(piped) for p in piped.rglob("*") if p.is_file())
    assert len(written) == 13
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


# sha256 of the checkpoint and of the loss log that a 2-epoch `train` writes
# from the pipeline_dir files. Plain epochs train through the corruption
# layer with C = I, which must give every byte that plain cross-entropy
# gives. Floating-point results, so the digests hold for one numpy/BLAS
# build: another BLAS kernel may round differently.
PINNED_TRAIN_RUNS = {
    "ALC": (
        "bb8684bfd3367cfef10fcffe26e0c63d1dcfbfea19616591e21c8f9309e3cb62",
        "a00a6d3734468ba2c23750cb01698267544c4b529e6c874dbcf15bae605050df",
    ),
    "NoLC_clean": (
        "9d1bba78d747f13ad9ec4ce13cc634ae5f1e4500be4537c75e4057020f45afeb",
        "405f71028fb70c5ecf2cd0acfa697c541d55a3bc3a20a83fcc42c1eee65d5e85",
    ),
}


# The input flags that each method reads in a 2-epoch run, and the file of
# the pipeline's that each takes.
TRAIN_READS = {
    "ALC": ("--clean", "--noisy", "--c-matrix"),
    "GLC_noisy_then_clean": ("--clean", "--noisy", "--c-matrix"),
    "GLC_clean_then_noisy": ("--clean", "--noisy", "--c-matrix"),
    "NoLC_clean": ("--clean",),
    "NoLC_noisy": ("--noisy",),
    "NoLC_mixed": ("--clean", "--noisy"),
}
TRAIN_INPUTS = {"--clean": "d_star.jsonl", "--noisy": "d_tilde.jsonl", "--c-matrix": "c_matrix.csv"}


@pytest.mark.parametrize("method", PINNED_TRAIN_RUNS)
def test_train_writes_the_pinned_checkpoint_and_loss_log(pipeline_dir, tmp_path, method):
    paths = [tmp_path / "model.ckpt", tmp_path / "loss.csv"]
    inputs = [arg for flag in TRAIN_READS[method] for arg in (flag, str(pipeline_dir / TRAIN_INPUTS[flag]))]
    assert main([
        "train", *inputs, "--vocab", str(pipeline_dir / "vocabulary.txt"),
        "--method", method, "--epochs", "2", "--out-checkpoint", str(paths[0]), "--out-log", str(paths[1]),
    ]) == 0
    assert tuple(hashlib.sha256(p.read_bytes()).hexdigest() for p in paths) == PINNED_TRAIN_RUNS[method]


@pytest.mark.parametrize("method", TRAIN_READS)
def test_train_rejects_an_input_its_method_does_not_read(tmp_path, capsys, method):
    absent = str(tmp_path / "absent")
    code = main([
        "train", *(arg for flag in TRAIN_INPUTS for arg in (flag, absent)), "--vocab", absent,
        "--method", method, "--epochs", "2", "--out-checkpoint", str(tmp_path / "x.ckpt"),
    ])
    err = capsys.readouterr().err
    unread = [flag for flag in TRAIN_INPUTS if flag not in TRAIN_READS[method]]
    if unread:
        assert code == 2
        assert err == f"error: {', '.join(unread)}: not read by method {method} in 2 epoch(s)\n"
    else:  # every input is read, so the run gets as far as the absent files
        assert code == 1 and absent in err, err
    assert not (tmp_path / "x.ckpt").exists()


@pytest.mark.parametrize("method, missing", [
    *((method, flag) for method, reads in TRAIN_READS.items() if method != "NoLC_mixed" for flag in reads),
    ("NoLC_mixed", "--clean or --noisy"),
])
def test_train_rejects_a_missing_input_before_reading_any_file(tmp_path, capsys, method, missing):
    absent = str(tmp_path / "absent")
    given = [flag for flag in TRAIN_READS[method] if flag not in missing.split(" or ")]
    code = main([
        "train", *(arg for flag in given for arg in (flag, absent)), "--vocab", absent,
        "--method", method, "--epochs", "2", "--out-checkpoint", str(tmp_path / "x.ckpt"),
    ])
    assert code == 2
    assert capsys.readouterr().err == f"error: {missing}: needed by method {method} in 2 epoch(s)\n"
    assert not (tmp_path / "x.ckpt").exists()


def test_pipeline_report_is_thread_count_independent(tmp_path):
    flags = [f if f != "1" else f for f in PIPELINE_FLAGS]
    flags[flags.index("--repeats") + 1] = "2"
    for threads, sub in (("1", "t1"), ("2", "t2")):
        assert main(["pipeline", *flags, "--threads", threads, "--out", str(tmp_path / sub)]) == 0
    for name in ("report.csv", "report_raw.csv", "d_star.jsonl", "c_matrix.csv"):
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
    rows = [json.loads(line) for line in (tmp_path / "d_prime.jsonl").read_text(encoding="utf-8").splitlines()]
    assert [(row["patient_id"], row["clean_label"], row["noisy_label"]) for row in rows] == [
        ("m0", "fullterm", "fullterm")
    ]


def test_estimate_c_matches_the_pipeline_matrix(pipeline_dir, tmp_path, capsys):
    code = main([
        "estimate-c",
        "--examples", str(pipeline_dir / "d_prime.jsonl"),
        "--vocab", str(pipeline_dir / "vocabulary.txt"),
        "--out", str(tmp_path / "c.csv"),
    ])
    assert code == 0
    assert "dual-labeled examples" in capsys.readouterr().out
    assert (tmp_path / "c.csv").read_bytes() == (pipeline_dir / "c_matrix.csv").read_bytes()


def test_estimate_c_names_a_file_without_dual_labeled_examples(pipeline_dir, tmp_path, capsys):
    rows = [json.loads(line) for line in (pipeline_dir / "d_star.jsonl").read_text(encoding="utf-8").splitlines()]
    clean = tmp_path / "clean_only.jsonl"
    clean.write_text("".join(json.dumps({**row, "noisy_label": None}) + "\n" for row in rows), encoding="utf-8")
    out = tmp_path / "c.csv"
    code = main(["estimate-c", "--examples", str(clean), "--vocab", str(pipeline_dir / "vocabulary.txt"),
                 "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: {clean}: no dual-labeled examples with clean label PRETERM; cannot estimate row\n"
    )
    assert not out.exists()


FILE_OUTPUTS = [("link", "--out"), ("estimate-c", "--out"), ("train", "--out-checkpoint"), ("train", "--out-log")]


def file_output_inputs(command, d):
    """The input flags of a subcommand with a file output, read from d."""
    return {
        "link": ["--mothers", f"{d}/mothers.jsonl", "--newborns", f"{d}/newborns.jsonl"],
        "estimate-c": ["--examples", f"{d}/d_prime.jsonl"],
        "train": ["--clean", f"{d}/d_star.jsonl", "--method", "NoLC_clean", "--epochs", "1"],
    }[command]


@pytest.mark.parametrize("command, flag", FILE_OUTPUTS)
def test_a_file_output_makes_its_directory(pipeline_dir, tmp_path, command, flag):
    d = pipeline_dir
    inputs = file_output_inputs(command, d)
    checkpoint = ["--out-checkpoint", str(tmp_path / "x.ckpt")] if flag == "--out-log" else []
    out = tmp_path / "new" / "dir" / "file"
    assert main([command, *inputs, "--vocab", f"{d}/vocabulary.txt", *checkpoint, flag, str(out)]) == 0
    assert out.is_file()


def missing_inputs(command, missing):
    """The input flags of each subcommand, every one naming a missing file."""
    return {
        "synth": COHORT_FLAGS,
        "link": ["--mothers", missing, "--newborns", missing, "--vocab", missing],
        "datasets": ["--mothers", missing, "--newborns", missing, "--links", missing, "--vocab", missing],
        "estimate-c": ["--examples", missing, "--vocab", missing],
        "train": ["--clean", missing, "--vocab", missing, "--method", "NoLC_clean", "--epochs", "1"],
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
    ("estimate-c", "--out"): None,
    ("train", "--out-checkpoint"): None,
    ("train", "--out-log"): None,
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
    checkpoint = ["--out-checkpoint", str(tmp_path / "x.ckpt")] if flag == "--out-log" else []
    before = sorted(tmp_path.rglob("*"))
    code = main([command, *missing_inputs(command, str(tmp_path / "missing")), *checkpoint, flag, str(out)])
    assert (code, capsys.readouterr().err) == (2, f"error: {flag}: {message}\n")
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("log, message", [
    ("run.out", "{log} is also the output of --out-checkpoint"),
    ("sub/../run.out", "{log} is also the output of --out-checkpoint"),
    ("run.out/log.csv", "{checkpoint} is not a directory"),
])
def test_two_outputs_that_collide_fail_first(tmp_path, capsys, log, message):
    checkpoint, log = tmp_path / "run.out", tmp_path / log
    missing = str(tmp_path / "missing")
    code = main(["train", *missing_inputs("train", missing), "--out-checkpoint", str(checkpoint), "--out-log", str(log)])
    expected = message.format(log=log, checkpoint=checkpoint)
    assert (code, capsys.readouterr().err) == (2, f"error: --out-log: {expected}\n")
    assert list(tmp_path.iterdir()) == []


def test_train_command_is_deterministic(pipeline_dir, tmp_path, capsys):
    base = [
        "train",
        "--clean", str(pipeline_dir / "d_star.jsonl"),
        "--vocab", str(pipeline_dir / "vocabulary.txt"),
        "--method", "NoLC_clean", "--epochs", "1",
    ]
    for sub in ("a", "b"):
        code = main([*base, "--out-checkpoint", str(tmp_path / f"{sub}.ckpt"),
                     "--out-log", str(tmp_path / f"{sub}.csv")])
        assert code == 0
    assert "final epoch loss:" in capsys.readouterr().out
    assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()
    log = (tmp_path / "a.csv").read_text(encoding="utf-8").splitlines()
    assert log[0] == "epoch,dataset,loss_kind,mean_loss"
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_train_corrected_loss_needs_a_matrix(pipeline_dir, tmp_path, capsys):
    code = main([
        "train",
        "--clean", str(pipeline_dir / "d_star.jsonl"),
        "--noisy", str(pipeline_dir / "d_tilde.jsonl"),
        "--vocab", str(pipeline_dir / "vocabulary.txt"),
        "--method", "ALC", "--epochs", "2",
        "--out-checkpoint", str(tmp_path / "x.ckpt"),
    ])
    assert code == 2
    assert capsys.readouterr().err == "error: --c-matrix: needed by method ALC in 2 epoch(s)\n"


@pytest.mark.parametrize("flag, name, method", [
    ("--clean", "d_tilde.jsonl", "NoLC_clean"),
    ("--noisy", "d_star.jsonl", "NoLC_noisy"),
])
def test_train_rejects_an_example_without_the_flags_label(pipeline_dir, tmp_path, capsys, flag, name, method):
    kind = flag[2:]
    path = pipeline_dir / name
    rows = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    first = next(row["patient_id"] for row in rows if row[f"{kind}_label"] is None)
    code = main([
        "train", flag, str(path), "--vocab", str(pipeline_dir / "vocabulary.txt"),
        "--method", method, "--epochs", "1", "--out-checkpoint", str(tmp_path / "x.ckpt"),
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: example {first} lacks the {kind} label"), err
    assert flag in err
    assert not (tmp_path / "x.ckpt").exists()


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


@pytest.mark.parametrize("command", ["train", "benchmark"])
def test_an_example_without_visits_is_named_with_its_file(pipeline_dir, tmp_path, capsys, command):
    rows = [json.loads(line) for line in (pipeline_dir / "d_star.jsonl").read_text(encoding="utf-8").splitlines()]
    rows[3]["visits"] = []
    clean = tmp_path / "d_star.jsonl"
    clean.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
    inputs = ["--clean", str(clean), "--vocab", str(pipeline_dir / "vocabulary.txt"), "--epochs", "1"]
    if command == "train":
        argv = ["train", *inputs, "--method", "NoLC_clean", "--out-checkpoint", str(tmp_path / "x.ckpt")]
    else:
        argv = ["benchmark", *inputs, "--noisy", str(pipeline_dir / "d_tilde.jsonl"), "--methods", "NoLC_clean",
                "--repeats", "1", "--out", str(tmp_path / "out")]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {clean}: line 4: example {rows[3]['patient_id']} has no visits\n"


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
    curve = ElementTree.fromstring(cli.curve_svg([0.0, 1.0], [0.0, 1.0], "ROC A<B&C", "x", "y"))
    assert "ROC A<B&C" in [node.text for node in curve.iter(f"{SVG}text")]


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
    "estimate-c": ["--examples", "--out", "--vocab"],
    "train": [
        "--c-matrix", "--clean", "--epochs", "--method",
        "--noisy", "--out-checkpoint", "--out-log", "--seed", "--vocab",
    ],
    "benchmark": [
        "--clean", "--config", "--curves", "--epochs", "--methods", "--noisy",
        "--out", "--repeats", "--seed", "--threads", "--vocab",
    ],
    "pipeline": [
        "--curves", "--epochs", "--methods", "--no-calibrate", "--out", "--repeats",
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
    assert sum(map(len, found.values())) == 64


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
    table = format_summary_table(["ALC", "NoLC_clean"], summaries)
    lines = table.splitlines()
    assert lines[0].split() == ["method", "auc", "pr_auc"]
    assert lines[1].split()[0] == "ALC"
    assert "81.23 +/- 2.11" in lines[1]
    assert "70.01 +/- 0.00" in lines[1]
    assert "79.50 +/- 3.40" in lines[2]
    assert len({line.index("+/-") for line in lines[1:]}) == 1
