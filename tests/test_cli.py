"""Command-line interface: exit codes, config handling, file outputs, and
byte-level reproducibility."""

import argparse
import json

import pytest

from pretermalc.bench import MethodSummary
from pretermalc.cli import build_parser, format_summary_table, load_run_config, main
from pretermalc.synth import ConfigError

PIPELINE_FLAGS = [
    "--mothers", "200", "--hospitals", "3", "--seed", "11",
    "--no-calibrate", "--repeats", "1", "--epochs", "1",
    "--methods", "NoLC_clean", "--curves",
]


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


def test_runtime_errors_exit_1(tmp_path, capsys):
    code = main([
        "link", "--mothers", str(tmp_path / "absent.jsonl"),
        "--newborns", str(tmp_path / "absent.jsonl"),
        "--vocab", str(tmp_path / "absent.txt"),
        "--out", str(tmp_path / "links.tsv"),
    ])
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")


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
    with pytest.raises(ConfigError, match="unknown key"):
        load_run_config(write_config(tmp_path / "a.json", {"version": 1, "synth": {"n_motherz": 5}}))
    with pytest.raises(ConfigError, match="unknown section"):
        load_run_config(write_config(tmp_path / "b.json", {"version": 1, "extras": {}}))
    broken = tmp_path / "c.json"
    broken.write_text('{"version": 1,', encoding="utf-8")
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_run_config(broken)


def test_config_file_builds_nested_noise_model(tmp_path):
    cfg = write_config(tmp_path / "run.json", {
        "version": 1,
        "synth": {"n_mothers": 150, "clerical_noise": {"time_jitter_sd": 45.0}},
    })
    loaded = load_run_config(cfg)
    assert loaded["synth"].n_mothers == 150
    assert loaded["synth"].clerical_noise.time_jitter_sd == 45.0
    assert loaded["synth"].clerical_noise.missing_newborn_rate == 0.15


@pytest.mark.parametrize("section,key,value", [
    ("benchmark", "split_fractions", [0.7, 0.15, 0.15]),
    ("train", "method", "ALC"),
    ("train", "seed", 3),
])
def test_config_file_rejects_removed_keys(tmp_path, capsys, section, key, value):
    cfg = write_config(tmp_path / "run.json", {"version": 1, section: {key: value}})
    assert main(["synth", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    assert f"{section}: unknown key(s) ['{key}']" in capsys.readouterr().err


@pytest.mark.parametrize("body,expected", [
    ({"synth": {"n_mothers": "200"}}, "synth.n_mothers: expected int, got '200'"),
    ({"synth": {"clerical_noise": {"time_jitter_sd": -1.0}}}, "synth.clerical_noise: time_jitter_sd must be >= 0"),
    ({"synth": {"risk_lift": True}}, "synth.risk_lift: expected float"),
    ({"train": {"n_epochs": 0}}, "train: n_epochs must be >= 1"),
    ({"train": {"learning_rate": "fast"}}, "train.learning_rate: expected float"),
    ({"benchmark": {"repeats": 0}}, "benchmark.repeats must be >= 1"),
    ({"benchmark": {"methods": ["NoLC_clean", "Magic"]}}, "benchmark.methods: unknown method 'Magic'"),
    ({"benchmark": {"methods": "ALC"}}, "benchmark.methods: expected a list of method names"),
    ({"benchmark": []}, "benchmark: expected an object"),
])
def test_bad_config_values_exit_2_before_the_pipeline_writes(tmp_path, capsys, body, expected):
    cfg = write_config(tmp_path / "run.json", {"version": 1, **body})
    out = tmp_path / "out"
    assert main(["pipeline", "--config", cfg, "--mothers", "200", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"{cfg}: {expected}" in err, err
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


def test_train_command_is_deterministic(pipeline_dir, tmp_path, capsys):
    base = [
        "train",
        "--clean", str(pipeline_dir / "d_star.jsonl"),
        "--vocab", str(pipeline_dir / "vocabulary.txt"),
        "--method", "NoLC_clean", "--epochs", "1",
        "--d-emb", "16", "--d-h", "16",
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
    assert code == 1
    assert "no corruption matrix" in capsys.readouterr().err


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
    return capsys.readouterr().out.rsplit("(fingerprint ", 1)[1].rstrip(")\n")


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
        "synth": {"seed": 6},
        "train": {"n_epochs": 1},
        "benchmark": {"repeats": 1, "methods": ["NoLC_clean"]},
    })
    assert main([*base, "--config", cfg, "--out", str(tmp_path / "config")]) == 0
    assert fingerprint_of(capsys) == from_flags
    raw = (tmp_path / "config" / "report_raw.csv").read_text(encoding="utf-8").splitlines()
    assert len(raw) == 2 and raw[1].startswith("NoLC_clean,0,")

    overridden = write_config(tmp_path / "other.json", {
        "version": 1,
        "synth": {"seed": 5},
        "train": {"n_epochs": 3},
        "benchmark": {"repeats": 4, "methods": ["ALC"]},
    })
    assert main([*base, "--config", overridden, *flags, "--out", str(tmp_path / "overridden")]) == 0
    assert fingerprint_of(capsys) == from_flags
    for name in ("report.csv", "report_raw.csv"):
        blobs = {(tmp_path / sub / name).read_bytes() for sub in ("flags", "config", "overridden")}
        assert len(blobs) == 1, name


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


def test_report_command_summarizes_and_draws(pipeline_dir, tmp_path, capsys):
    code = main(["report", "--raw", str(pipeline_dir / "report_raw.csv"), "--out", str(tmp_path / "svg")])
    assert code == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].startswith("method")
    assert "+/- 0.00" in out  # single repeat: zero spread
    assert (tmp_path / "svg" / "auc.svg").exists()
    assert (tmp_path / "svg" / "pr_auc.svg").exists()


def test_report_command_rejects_malformed_input(tmp_path, capsys):
    bad = tmp_path / "raw.csv"
    bad.write_text("wrong,header\n1,2\n", encoding="utf-8")
    assert main(["report", "--raw", str(bad)]) == 1
    assert "unexpected header" in capsys.readouterr().err


# --- parser ----------------------------------------------------------------------------

SYNTH_FLAGS = [
    "--clean-code-rate", "--config", "--history-span-days", "--hospitals",
    "--misclassified-newborn-rate", "--missing-newborn-rate", "--mothers", "--newborn-coded-rate",
    "--prediction-period-days", "--preterm-prevalence", "--risk-codes", "--risk-lift", "--seed",
    "--swap-window-minutes", "--time-jitter-sd", "--visits-per-mother", "--vocab-size",
]
OPTION_STRINGS = {
    "synth": ["--out", *SYNTH_FLAGS],
    "link": ["--max-l1-hours", "--max-per-mother", "--mothers", "--newborns", "--out", "--truth", "--vocab"],
    "estimate-c": ["--examples", "--out", "--vocab"],
    "train": [
        "--batch-size", "--c-matrix", "--clean", "--d-emb", "--d-h", "--epochs", "--lr", "--method",
        "--noisy", "--optimizer", "--out-checkpoint", "--out-log", "--seed", "--vocab",
    ],
    "benchmark": [
        "--batch-size", "--clean", "--curves", "--epochs", "--lr", "--methods", "--noisy",
        "--optimizer", "--out", "--repeats", "--threads", "--vocab", *SYNTH_FLAGS,
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


def test_synth_flags_take_the_type_of_their_field():
    types = {a.option_strings[0]: a.type for a in subparsers()["synth"]._actions if a.option_strings}
    ints = ["--seed", "--mothers", "--hospitals", "--vocab-size", "--risk-codes", "--history-span-days",
            "--prediction-period-days", "--swap-window-minutes"]
    floats = ["--preterm-prevalence", "--risk-lift", "--visits-per-mother", "--clean-code-rate",
              "--newborn-coded-rate", "--time-jitter-sd", "--missing-newborn-rate",
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
