"""Files in and out: every loader reads through `records.read_lines`, and a
malformed file fails with a RecordFileError that names the file, and the
line when one line is at fault; every output is written whole by
`records.write_file`."""

import ast
import json
import math
import os
import stat
import sys
from pathlib import Path

import numpy as np
import pytest

import pretermalc
from pretermalc.bench import load_raw_csv
from pretermalc.linkage import load_links
from pretermalc.noise import CorruptionMatrix
from pretermalc.records import (
    CodeVocabulary,
    PatientRecord,
    RecordFileError,
    Role,
    Visit,
    load_examples,
    load_records,
    save_records,
)
from pretermalc.synth import load_truth

VOCAB = CodeVocabulary(["a", "b"])
RECORD = json.dumps({
    "patient_id": "m1", "hospital_id": "h0", "role": "mother", "delivery_day": None,
    "visits": [{"day": 0, "codes": ["a"], "t_adm": 0, "t_dis": 10}],
})
EXAMPLE = RECORD[:-1] + ',"clean_label":"preterm","noisy_label":null}'
EMPTY_EXAMPLE = json.dumps({**json.loads(EXAMPLE), "patient_id": "m2", "visits": []})
OTHER_RECORD = RECORD.replace('"m1"', '"m2"')
NEWBORN_RECORD = OTHER_RECORD.replace('"mother"', '"newborn"')


def load_mothers(path):
    return load_records(path, VOCAB, Role.MOTHER)


# (loader, file content as text or bytes, the line at fault or None for the
# whole file)
MALFORMED = {
    "links_distance_not_a_number": (load_links, "n1\tm1\t30\nn2\tm1\tabc\n", 2),
    "links_negative_distance": (load_links, "n1\tm1\t-5\n", 1),
    "links_two_fields": (load_links, "n1\tm1\t30\n\nn2\tm1\n", 3),
    "links_duplicate_newborn": (load_links, "n1\tm1\t3\nn1\tm2\t4\n", None),
    "truth_unknown_label": (load_truth, "n1\tm1\tpreterm\nn2\tm2\tsoon\n", 2),
    "truth_four_newborns": (load_truth, "".join(f"n{i}\tm1\tpreterm\n" for i in range(4)), None),
    "truth_conflicting_labels": (load_truth, "n1\tm1\tpreterm\n-\tm2\tfullterm\n-\tm1\tfullterm\n", 3),
    "truth_newborn_twice": (load_truth, "n1\tm1\tpreterm\n-\tm2\tfullterm\nn1\tm2\tfullterm\n", 3),
    "vocabulary_duplicate_code": (CodeVocabulary.load, "a\nb\na\n", None),
    "records_bad_json": (load_mothers, RECORD + "\n{\"patient_id\n", 2),
    "records_unknown_code": (load_mothers, RECORD.replace('"a"', '"z"') + "\n", 1),
    "records_missing_key": (load_mothers, RECORD.replace('"t_dis"', '"t_out"') + "\n", 1),
    "examples_bad_json": (lambda p: load_examples(p, VOCAB), EXAMPLE + "\nnot json\n", 2),
    "examples_no_label": (lambda p: load_examples(p, VOCAB), RECORD + "\n", 1),
    "examples_no_visits": (lambda p: load_examples(p, VOCAB), f"{EXAMPLE}\n{EMPTY_EXAMPLE}\n", 2),
    "records_repeated_patient": (load_mothers, f"{RECORD}\n{OTHER_RECORD}\n{RECORD}\n", 3),
    "examples_repeated_patient": (lambda p: load_examples(p, VOCAB), f"{EXAMPLE}\n\n{EXAMPLE}\n", 3),
    "records_other_role": (load_mothers, f"{RECORD}\n{NEWBORN_RECORD}\n", 2),
    "examples_newborn_record": (lambda p: load_examples(p, VOCAB),
                                NEWBORN_RECORD[:-1] + ',"clean_label":"preterm"}\n', 1),
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
    "vocabulary_utf16": (CodeVocabulary.load, b"\xff\xfe" + "a\nb\n".encode("utf-16-le"), 1),
    "truth_crlf_latin1_line": (load_truth, b"n1\tm1\tpreterm\r\n\r\nn2\tm\xe9\tpreterm\r\n", 3),
    "links_distance_with_underscore": (load_links, "n1\tm1\t30\nn2\tm1\t1_0\n", 2),
    "raw_csv_repeat_with_sign": (load_raw_csv, "method,repeat,auc,pr_auc\nALC,+0,0.8,0.5\n", 2),
    "records_unknown_key": (load_mothers, f"{OTHER_RECORD}\n{RECORD[:-1]},\"note\":\"x\"}}\n", 2),
    "examples_misspelt_label_key": (lambda p: load_examples(p, VOCAB),
                                    EXAMPLE.replace('"noisy_label"', '"noisy_lable"') + "\n", 1),
    "examples_label_given_twice": (lambda p: load_examples(p, VOCAB), EXAMPLE[:-1] + ',"noisy_label":"fullterm"}\n', 1),
    "records_visit_key_given_twice": (load_mothers,
                                      OTHER_RECORD + "\n" + RECORD.replace('"t_dis": 10', '"t_dis": 10, "t_dis": 10') + "\n", 2),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_file_error_names_the_file_and_line(tmp_path, case):
    load, content, line = MALFORMED[case]
    path = tmp_path / "input.txt"
    path.write_bytes(content if isinstance(content, bytes) else content.encode("utf-8"))
    with pytest.raises(RecordFileError) as exc:
        load(path)
    message = str(exc.value)
    if line is None:
        assert message.startswith(f"{path}: ") and not message.startswith(f"{path}: line "), message
    else:
        assert message.startswith(f"{path}: line {line}: "), message


# (loader, a valid file's text), for each loader
VALID = {
    "links": (load_links, "n1\tm1\t30\nn2\tm1\t45\n"),
    "truth": (load_truth, "n1\tm1\tpreterm\n-\tm2\tfullterm\n"),
    "vocabulary": (lambda p: list(CodeVocabulary.load(p)), "a\nb\n"),
    "records": (load_mothers, f"{RECORD}\n{OTHER_RECORD}\n"),
    "examples": (lambda p: load_examples(p, VOCAB), EXAMPLE + "\n"),
    "raw_csv": (load_raw_csv, "method,repeat,auc,pr_auc\nALC,0,0.8,0.5\n"),
}


@pytest.mark.parametrize("case", sorted(VALID))
def test_a_leading_byte_order_mark_is_not_part_of_line_1(tmp_path, case):
    load, text = VALID[case]
    plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
    plain.write_text(text, encoding="utf-8")
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    assert load(marked) == load(plain)


def test_reader_skips_blank_lines_and_keeps_the_rest(tmp_path):
    path = tmp_path / "vocabulary.txt"
    path.write_text("a\n\n  \nb c\n", encoding="utf-8")
    assert list(CodeVocabulary.load(path)) == ["a", "b c"]


def test_reader_reads_crlf_lines_as_lf_lines(tmp_path):
    path = tmp_path / "truth.tsv"
    path.write_bytes(b"n1\tm1\tpreterm\r\n\r\n-\tm\xc3\xa9\tfullterm\r\n")
    truth = load_truth(path)
    assert truth.links == {"n1": "m1"}
    assert [(m, label.to_json()) for m, label in truth.labels.items()] == [("m1", "preterm"), ("m\xe9", "fullterm")]


def test_reader_names_a_line_that_is_not_utf8(tmp_path):
    path = tmp_path / "records.jsonl"
    records = "".join(RECORD.replace('"m1"', f'"m{i}"') + "\n" for i in range(3))
    path.write_bytes(records.encode() + b'{"patient_id": "m\xe9"}\n')
    with pytest.raises(RecordFileError) as exc:
        load_records(path, VOCAB, Role.MOTHER)
    assert str(exc.value) == f"{path}: line 4: not UTF-8 text"


def test_truth_repeating_a_label_is_not_a_conflict(tmp_path):
    path = tmp_path / "truth.tsv"
    path.write_text("n1\tm1\tpreterm\nn2\tm1\tpreterm\n-\tm2\tfullterm\n", encoding="utf-8")
    truth = load_truth(path)
    assert truth.links == {"n1": "m1", "n2": "m1"}
    assert [(m, label.to_json()) for m, label in truth.labels.items()] == [("m1", "preterm"), ("m2", "fullterm")]


@pytest.mark.parametrize("entries", [
    [[math.nan, math.nan], [5, 5]],
    [[5, 5], [math.nan, 1]],
    [[math.inf, 0], [5, 5]],
])
def test_corruption_matrix_rejects_non_finite_entries(entries):
    with pytest.raises(ValueError, match="must be integers, got dtype float64"):
        CorruptionMatrix(np.array(entries))


# --- one reader and one writer ----------------------------------------------------------

SOURCE = Path(pretermalc.__file__).parent
# Functions allowed to read a file themselves: the reader, and the run
# config, which is JSON whose faults are ConfigErrors (exit 2), not
# RecordFileErrors.
OWN_READERS = {("records.py", "read_lines"), ("cli.py", "load_run_config")}
OWN_WRITERS = {("records.py", "write_file")}


def _open_mode(call: ast.Call) -> str | None:
    """The mode of an `open` or `Path.open` call: "r" when not given, "?"
    when not a constant; None for any other call."""
    func = call.func
    if isinstance(func, ast.Name) and func.id == "open":
        mode_args = call.args[1:2]
    elif isinstance(func, ast.Attribute) and func.attr == "open":  # Path.open
        mode_args = call.args[:1]
    else:
        return None
    mode = next((kw.value for kw in call.keywords if kw.arg == "mode"), mode_args[0] if mode_args else None)
    if mode is None:
        return "r"
    return mode.value if isinstance(mode, ast.Constant) else "?"


def _reads_a_file(call: ast.Call) -> bool:
    if isinstance(call.func, ast.Attribute) and call.func.attr in ("read_text", "read_bytes"):
        return True
    mode = _open_mode(call)
    if mode is None:
        return False
    return mode == "?" or "r" in mode or "+" in mode  # "?": cannot tell, so count it


def _writes_a_file(call: ast.Call) -> bool:
    if isinstance(call.func, ast.Attribute) and call.func.attr in ("write_text", "write_bytes", "mkdir"):
        return True
    mode = _open_mode(call)
    return mode is not None and any(ch in mode for ch in "?wxa+")


def _parsed(directory: Path):
    """The file name and syntax tree of each Python module in `directory`."""
    for module in sorted(directory.glob("*.py")):
        yield module.name, ast.parse(module.read_text(encoding="utf-8"))


def _calls_outside(functions: set, picks) -> list[str]:
    """Where a package module makes a call that `picks` picks out, outside
    the (module, function) pairs in `functions`."""
    found = []
    for name, tree in _parsed(SOURCE):
        allowed = [
            range(node.lineno, node.end_lineno + 1)
            for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and (name, node.name) in functions
        ]
        found += [
            f"{name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and picks(node) and not any(node.lineno in lines for lines in allowed)
        ]
    return found


def test_only_records_reads_text_files():
    """Every input file is a text file read by `records.read_lines`, or the
    run config: no other code opens a file for reading, in text or binary
    mode."""
    assert _calls_outside(OWN_READERS, _reads_a_file) == []


def test_the_text_read_check_sees_each_form():
    """The read check counts binary reads as well as text reads."""
    calls = {
        'open(p, "r")': True, "open(p)": True, 'open(p, mode="r+")': True, "p.read_text()": True,
        "p.open()": True, "open(p, m)": True, 'open(p, "rb")': True, "p.read_bytes()": True,
        'p.open("rb")': True, 'open(p, "w")': False, 'p.open("w")': False, 'open(p, "xb")': False,
    }
    for source, expected in calls.items():
        assert _reads_a_file(ast.parse(source).body[0].value) is expected, source


def test_only_records_writes_files():
    """Every output file is written by `records.write_file`, which also
    makes every output directory."""
    assert _calls_outside(OWN_WRITERS, _writes_a_file) == []


def test_the_write_check_sees_each_form():
    calls = {
        'open(p, "w")': True, 'open(p, "xb")': True, 'open(p, mode="a")': True, 'open(p, "r+")': True,
        "open(p, m)": True, 'p.open("wb")': True, "p.write_text(s)": True, "p.write_bytes(b)": True,
        "p.mkdir()": True, "os.mkdir(p)": True, "open(p)": False, 'open(p, "rb")': False,
        "p.open()": False, "p.read_text()": False, "fh.write(s)": False,
    }
    for source, expected in calls.items():
        assert _writes_a_file(ast.parse(source).body[0].value) is expected, source


def test_every_json_read_passes_the_one_duplicate_key_hook():
    """Every `json.load` or `json.loads` call passes
    `object_pairs_hook=unique_keys`, and the one function of that name is
    `records.unique_keys`, at module level: so the run config and the record
    files refuse a key given twice alike."""
    reads, hooks = {}, []
    for name, tree in _parsed(SOURCE):
        for node in ast.walk(tree):
            func = getattr(node, "func", None)
            if isinstance(func, ast.Attribute) and func.attr in ("load", "loads") and getattr(func.value, "id", None) == "json":
                hook = next((kw.value for kw in node.keywords if kw.arg == "object_pairs_hook"), None)
                reads[f"{name}:{node.lineno}"] = getattr(hook, "id", None)
            if isinstance(node, ast.FunctionDef) and node.name == "unique_keys":
                hooks.append((name, node in tree.body))
    assert reads and set(reads.values()) == {"unique_keys"}, reads
    assert hooks == [("records.py", True)]


# --- imports ---------------------------------------------------------------------------

STANDARD_LIBRARY = set(sys.stdlib_module_names)


def _imported(tree: ast.AST) -> list[tuple[int, str]]:
    """The line and top-level module of each absolute import in `tree`; a
    relative import stays inside its package."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name.partition(".")[0]) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append((node.lineno, node.module.partition(".")[0]))
    return found


def _imports_outside(directory: Path, allowed: set) -> list[str]:
    return [
        f"{name}:{line} {module}"
        for name, tree in _parsed(directory)
        for line, module in _imported(tree)
        if module not in allowed
    ]


def test_imports_are_the_standard_library_numpy_and_the_package():
    """The package needs only numpy; the tests add pytest and hypothesis,
    and import each other, but not another installed package such as
    scipy."""
    package = STANDARD_LIBRARY | {"numpy", "pretermalc"}
    assert _imports_outside(SOURCE, package) == []
    tests = Path(__file__).parent
    beside = {module.stem for module in tests.glob("*.py")}
    assert _imports_outside(tests, package | {"pytest", "hypothesis"} | beside) == []


def test_the_import_check_sees_each_form():
    source = "import os.path, scipy\nfrom scipy.stats import norm\nfrom . import net\nfrom .net import forward\n"
    assert _imported(ast.parse(source)) == [(1, "os"), (1, "scipy"), (2, "scipy")]


def _unread_imports(tree: ast.Module) -> list[tuple[int, str]]:
    """The line and bound name of each top-level import in `tree` whose
    name the module never reads. A name listed in `__all__` counts as read;
    a `from __future__` import binds no name."""
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [(node.lineno, alias.asname or alias.name.partition(".")[0]) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(node.lineno, alias.asname or alias.name) for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read |= {item.value for item in ast.walk(node.value) if isinstance(item, ast.Constant)}
    return [(line, name) for line, name in bound if name not in read]


def test_every_import_is_read():
    """No module of the package or the tests imports a name it never reads."""
    for directory in (SOURCE, Path(__file__).parent):
        unread = [f"{name}:{line} {bound}" for name, tree in _parsed(directory) for line, bound in _unread_imports(tree)]
        assert unread == [], directory


def test_the_import_use_check_sees_each_form():
    source = (
        "from __future__ import annotations\nimport os.path, sys\nimport numpy as np\n"
        "from json import dumps, loads\nfrom .net import forward\n__all__ = ['forward']\nloads(os.sep)\n"
    )
    assert _unread_imports(ast.parse(source)) == [(2, "sys"), (3, "np"), (4, "dumps")]


# --- whole files -----------------------------------------------------------------------


def records_then_failure(n):
    """A record stream that raises after `n` records."""
    for i in range(n):
        yield PatientRecord(f"m{i}", "h0", Role.MOTHER, (Visit(frozenset({0}), 0, 10),))
    raise RuntimeError("stream broke")


@pytest.mark.parametrize("existing", [b"old bytes\n", None])
def test_a_failed_write_leaves_the_old_file_and_no_temporary_file(tmp_path, existing):
    path = tmp_path / "mothers.jsonl"
    if existing is not None:
        path.write_bytes(existing)
    with pytest.raises(RuntimeError, match="stream broke"):
        save_records(records_then_failure(3), path, VOCAB)
    assert [p.name for p in tmp_path.iterdir()] == ([path.name] if existing else [])
    if existing:
        assert path.read_bytes() == existing


def test_a_written_file_has_the_mode_of_a_plain_write(tmp_path):
    old = os.umask(0o027)
    try:
        with open(tmp_path / "plain.txt", "w", encoding="utf-8") as fh:
            fh.write("x\n")
        VOCAB.save(tmp_path / "new" / "vocabulary.txt")
    finally:
        os.umask(old)
    mode = stat.S_IMODE((tmp_path / "plain.txt").stat().st_mode)
    assert stat.S_IMODE((tmp_path / "new" / "vocabulary.txt").stat().st_mode) == mode == 0o640
