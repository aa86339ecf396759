"""Input files: every loader reads through `records.read_lines`, and a
malformed file fails with a RecordFileError that names the file, and the
line when one line is at fault."""

import ast
import json
import math
from pathlib import Path

import numpy as np
import pytest

import pretermalc
from pretermalc.bench import load_raw_csv
from pretermalc.linkage import load_links
from pretermalc.noise import CorruptionMatrix, load_matrix_csv
from pretermalc.records import CodeVocabulary, RecordFileError, load_examples, load_records
from pretermalc.synth import load_truth

VOCAB = CodeVocabulary(["a", "b"])
RECORD = json.dumps({
    "patient_id": "m1", "hospital_id": "h0", "role": "mother", "delivery_day": None,
    "visits": [{"day": 0, "codes": ["a"], "t_adm": 0, "t_dis": 10}],
})
EXAMPLE = RECORD[:-1] + ',"clean_label":"preterm","noisy_label":null}'
EMPTY_EXAMPLE = json.dumps({**json.loads(EXAMPLE), "patient_id": "m2", "visits": []})
MATRIX_COUNTS = "5,1\n2,8\n"

# (loader, file content, the line at fault or None for the whole file)
MALFORMED = {
    "links_distance_not_a_number": (load_links, "n1\tm1\t30\nn2\tm1\tabc\n", 2),
    "links_negative_distance": (load_links, "n1\tm1\t-5\n", 1),
    "links_two_fields": (load_links, "n1\tm1\t30\n\nn2\tm1\n", 3),
    "links_duplicate_newborn": (load_links, "n1\tm1\t3\nn1\tm2\t4\n", None),
    "truth_unknown_label": (load_truth, "n1\tm1\tpreterm\nn2\tm2\tsoon\n", 2),
    "truth_four_newborns": (load_truth, "".join(f"n{i}\tm1\tpreterm\n" for i in range(4)), None),
    "truth_conflicting_labels": (load_truth, "n1\tm1\tpreterm\n-\tm2\tfullterm\n-\tm1\tfullterm\n", 3),
    "truth_newborn_twice": (load_truth, "n1\tm1\tpreterm\n-\tm2\tfullterm\nn1\tm2\tfullterm\n", 3),
    "matrix_entry_not_a_number": (load_matrix_csv, "0.9,0.1\nx,0.8\n" + MATRIX_COUNTS, 2),
    "matrix_entry_out_of_range": (load_matrix_csv, "1.5,-0.5\n0.2,0.8\n" + MATRIX_COUNTS, None),
    "matrix_row_above_one": (load_matrix_csv, "2,0\n0.2,0.8\n" + MATRIX_COUNTS, None),
    "matrix_row_of_three": (load_matrix_csv, "2,1\n0.2,0.8\n" + MATRIX_COUNTS, None),
    "matrix_row_off_by_1e-5": (load_matrix_csv, "0.700010,0.300000\n0.2,0.8\n" + MATRIX_COUNTS, None),
    "matrix_one_column_row": (load_matrix_csv, "0.9,0.1\n0.2,0.8\n5\n2,8\n", 3),
    "matrix_zero_row": (load_matrix_csv, "0,0\n0.2,0.8\n" + MATRIX_COUNTS, None),
    "matrix_nan_row": (load_matrix_csv, "nan,nan\n0.2,0.8\n" + MATRIX_COUNTS, None),
    "matrix_fractional_count": (load_matrix_csv, "0.9,0.1\n0.2,0.8\n5.5,1\n2,8\n", None),
    "matrix_three_rows": (load_matrix_csv, "0.9,0.1\n0.2,0.8\n5,1\n", None),
    "vocabulary_duplicate_code": (CodeVocabulary.load, "a\nb\na\n", None),
    "records_bad_json": (lambda p: load_records(p, VOCAB), RECORD + "\n{\"patient_id\n", 2),
    "records_unknown_code": (lambda p: load_records(p, VOCAB), RECORD.replace('"a"', '"z"') + "\n", 1),
    "records_missing_key": (lambda p: load_records(p, VOCAB), RECORD.replace('"t_dis"', '"t_out"') + "\n", 1),
    "examples_bad_json": (lambda p: load_examples(p, VOCAB), EXAMPLE + "\nnot json\n", 2),
    "examples_no_label": (lambda p: load_examples(p, VOCAB), RECORD + "\n", 1),
    "examples_no_visits": (lambda p: load_examples(p, VOCAB), f"{EXAMPLE}\n{EMPTY_EXAMPLE}\n", 2),
    "raw_csv_bad_header": (load_raw_csv, "wrong,header\n1,2\n", 1),
    "raw_csv_bad_row": (load_raw_csv, "method,repeat,auc,pr_auc\nALC,0,0.8,0.7\nALC,one,0.8,0.7\n", 3),
    "raw_csv_repeated_pair": (load_raw_csv, "method,repeat,auc,pr_auc\nALC,0,0.8,0.5\nNoLC_clean,0,0.7,0.5\n"
                              "ALC,0,0.7,0.4\n", 4),
    "raw_csv_negative_repeat": (load_raw_csv, "method,repeat,auc,pr_auc\nALC,-1,0.8,0.5\n", 2),
    "raw_csv_nan_auc": (load_raw_csv, "method,repeat,auc,pr_auc\nALC,0,0.8,0.5\nALC,1,nan,0.5\n", 3),
    "raw_csv_negative_auc": (load_raw_csv, "method,repeat,auc,pr_auc\nALC,0,-0.1,0.5\n", 2),
    "raw_csv_pr_auc_above_one": (load_raw_csv, "method,repeat,auc,pr_auc\nALC,0,0.8,1.7\n", 2),
    "raw_csv_nan_pr_auc": (load_raw_csv, "method,repeat,auc,pr_auc\nALC,0,0.8,nan\n", 2),
    "raw_csv_empty_method": (load_raw_csv, "method,repeat,auc,pr_auc\nALC,0,0.8,0.5\n,0,0.5,0.5\n", 3),
    "raw_csv_uneven_repeats": (load_raw_csv, "method,repeat,auc,pr_auc\nALC,0,0.8,0.5\nALC,1,0.6,0.4\n"
                               "NoLC_clean,1,0.7,0.3\n", None),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_file_error_names_the_file_and_line(tmp_path, case):
    load, content, line = MALFORMED[case]
    path = tmp_path / "input.txt"
    path.write_text(content, encoding="utf-8")
    with pytest.raises(RecordFileError) as exc:
        load(path)
    message = str(exc.value)
    if line is None:
        assert message.startswith(f"{path}: ") and not message.startswith(f"{path}: line "), message
    else:
        assert message.startswith(f"{path}: line {line}: "), message


def test_reader_skips_blank_lines_and_keeps_the_rest(tmp_path):
    path = tmp_path / "vocabulary.txt"
    path.write_text("a\n\n  \nb c\n", encoding="utf-8")
    assert list(CodeVocabulary.load(path)) == ["a", "b c"]


def test_truth_repeating_a_label_is_not_a_conflict(tmp_path):
    path = tmp_path / "truth.tsv"
    path.write_text("n1\tm1\tpreterm\nn2\tm1\tpreterm\n-\tm2\tfullterm\n", encoding="utf-8")
    truth = load_truth(path)
    assert truth.links == {"n1": "m1", "n2": "m1"}
    assert [(m, label.to_json()) for m, label in truth.labels.items()] == [("m1", "preterm"), ("m2", "fullterm")]


@pytest.mark.parametrize("entries", [
    [[math.nan, math.nan], [0.5, 0.5]],
    [[0.5, 0.5], [math.nan, 1.0]],
    [[math.inf, 0.0], [0.5, 0.5]],
])
def test_corruption_matrix_rejects_non_finite_entries(entries):
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        CorruptionMatrix(np.array(entries))


def test_matrix_with_a_zero_row_fails_at_load(tmp_path):
    path = tmp_path / "c_matrix.csv"
    path.write_text("0.000000,0.000000\n0.200000,0.800000\n0,0\n2,8\n", encoding="utf-8")
    with pytest.raises(RecordFileError, match=r"rows must sum to 1, got \[0\.0, 1\.0\]"):
        load_matrix_csv(path)


# --- one reader ----------------------------------------------------------------------

SOURCE = Path(pretermalc.__file__).parent
# Functions allowed to read a text file themselves: the run config is JSON
# whose faults are ConfigErrors (exit 2), not RecordFileErrors.
OWN_READERS = {("cli.py", "load_run_config")}


def _opens_text_for_reading(call: ast.Call) -> bool:
    func = call.func
    if isinstance(func, ast.Attribute) and func.attr == "read_text":
        return True
    if isinstance(func, ast.Name) and func.id == "open":
        mode_args = call.args[1:2]
    elif isinstance(func, ast.Attribute) and func.attr == "open":  # Path.open
        mode_args = call.args[:1]
    else:
        return False
    mode = next((kw.value for kw in call.keywords if kw.arg == "mode"), mode_args[0] if mode_args else None)
    if mode is None:
        return True
    if not isinstance(mode, ast.Constant):
        return True  # cannot tell: count it
    return "b" not in mode.value and ("r" in mode.value or "+" in mode.value)


def test_only_records_reads_text_files():
    """Every input text file is read by `records.read_lines`. Binary reads,
    such as `net.load_checkpoint`, are not text reads."""
    found = []
    for module in sorted(SOURCE.glob("*.py")):
        if module.name == "records.py":
            continue
        tree = ast.parse(module.read_text(encoding="utf-8"))
        allowed = [
            range(node.lineno, node.end_lineno + 1)
            for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and (module.name, node.name) in OWN_READERS
        ]
        found += [
            f"{module.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and _opens_text_for_reading(node)
            and not any(node.lineno in lines for lines in allowed)
        ]
    assert found == []


def test_the_text_read_check_sees_each_form():
    calls = {
        'open(p, "r")': True, "open(p)": True, 'open(p, mode="r+")': True, "p.read_text()": True,
        "p.open()": True, 'open(p, "rb")': False, 'open(p, "w")': False, 'p.open("w")': False,
        "p.read_bytes()": False,
    }
    for source, expected in calls.items():
        assert _opens_text_for_reading(ast.parse(source).body[0].value) is expected, source
