"""Domain records: diagnosis vocabulary, visits, patients, labels, and the
cohort rules that turn the codes of a delivery or birth encounter into a
label.

Timestamps are integer minutes since the cohort epoch; a visit's day is
always floor(t_adm / 1440).
"""

from __future__ import annotations

import gc
import json
import os
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum, IntEnum
from pathlib import Path
from typing import Callable, Collection, Iterable, Iterator, Sequence, TypeVar

MINUTES_PER_DAY = 1440

T = TypeVar("T")
R = TypeVar("R")


class Label(IntEnum):
    """Binary delivery outcome. Index order (preterm first) is fixed and shared
    by corruption matrices, network outputs, and metric conventions."""

    PRETERM = 0
    FULL_TERM = 1

    def to_json(self) -> str:
        return "preterm" if self is Label.PRETERM else "fullterm"

    @classmethod
    def from_json(cls, value: str) -> "Label":
        if value == "preterm":
            return cls.PRETERM
        if value == "fullterm":
            return cls.FULL_TERM
        raise ValueError(f"unknown label value {value!r}")


class Role(Enum):
    MOTHER = "mother"
    NEWBORN = "newborn"


class VocabularyError(KeyError):
    pass


class RecordFileError(ValueError):
    pass


class CodeVocabulary:
    """Immutable code-string <-> index mapping. Index i is the code on the
    non-blank line i of the vocabulary file, counting from 0."""

    def __init__(self, codes: Sequence[str]):
        codes = list(codes)
        index = {}
        for i, code in enumerate(codes):
            if not code:
                raise ValueError(f"empty code string at index {i}")
            if code in index:
                raise ValueError(f"duplicate code {code!r} in vocabulary")
            index[code] = i
        self._codes = codes
        self._index = index

    def __len__(self) -> int:
        return len(self._codes)

    def __iter__(self) -> Iterator[str]:
        return iter(self._codes)

    def code(self, index: int) -> str:
        if not 0 <= index < len(self._codes):
            raise VocabularyError(f"vocabulary index {index} out of range")
        return self._codes[index]

    def index_of(self, code: str) -> int:
        try:
            return self._index[code]
        except (KeyError, TypeError):  # TypeError: an unhashable value such as a list, never a code
            raise VocabularyError(f"unknown code {code!r}") from None

    def __contains__(self, code: str) -> bool:
        return code in self._index

    def encode(self, codes: Sequence[str]) -> tuple[int, ...]:
        """The index of each code, in the order given."""
        index = self._index
        try:
            return tuple([index[c] for c in codes])
        except (KeyError, TypeError):  # a fault: name the first code that is not in the vocabulary
            for c in codes:
                self.index_of(c)
            raise

    def save(self, path: str | Path) -> None:
        write_file(path, (c + "\n" for c in self._codes))

    @classmethod
    def load(cls, path: str | Path) -> "CodeVocabulary":
        return read_lines(path, str, cls)


@dataclass(frozen=True, slots=True)
class Visit:
    """One encounter: admission/discharge minutes plus the set of code indices
    recorded during the stay. Given as any iterable, the set is kept as its
    distinct indices in ascending order, so equal sets compare equal; a
    tuple of 3-7 ints is 64-96 bytes, a frozenset of them 216-728."""

    day: int
    codes: tuple[int, ...]
    t_adm: int
    t_dis: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "codes", tuple(sorted(set(self.codes))))
        if not self.codes:
            raise ValueError("visit with empty code set")
        if self.t_dis < self.t_adm:
            raise ValueError(f"visit discharged before admission ({self.t_dis} < {self.t_adm})")
        if self.day != self.t_adm // MINUTES_PER_DAY:
            raise ValueError(f"visit day {self.day} inconsistent with t_adm {self.t_adm}")


@dataclass(frozen=True, slots=True)
class PatientRecord:
    """A patient's visits in time order, one per calendar day: visits given
    on one day are one encounter, merged as ``merge_stays`` merges them. A
    newborn has exactly one visit, its birth encounter."""

    patient_id: str
    hospital_id: str
    role: Role
    visits: tuple[Visit, ...]
    delivery_day: int | None = None

    def __post_init__(self) -> None:
        visits = tuple(self.visits)
        keys = [(v.day, v.t_adm) for v in visits]
        if keys != sorted(keys):
            raise ValueError(f"visits of {self.patient_id} not time-ordered")
        if self.role is Role.NEWBORN and len(visits) != 1:
            raise ValueError(f"newborn {self.patient_id} must have exactly one visit, got {len(visits)}")
        if any(a.day == b.day for a, b in zip(visits, visits[1:])):
            visits = merge_stays((v.day, v.t_adm, v.t_dis, v.codes) for v in visits)
        object.__setattr__(self, "visits", visits)

    @property
    def delivery_visit(self) -> Visit | None:
        for v in self.visits:
            if v.day == self.delivery_day:
                return v
        return None


@dataclass(frozen=True, slots=True)
class LabeledExample:
    """A truncated mother record with its clean and/or noisy outcome label.
    The record holds a visit: the dataset builder keeps only records with
    two or more, and a model cannot score a record with none."""

    record: PatientRecord
    clean_label: Label | None = None
    noisy_label: Label | None = None

    def __post_init__(self) -> None:
        if self.clean_label is None and self.noisy_label is None:
            raise ValueError(f"example {self.record.patient_id} carries no label")
        if not self.record.visits:
            raise ValueError(f"example {self.record.patient_id} has no visits")

    @property
    def patient_id(self) -> str:
        return self.record.patient_id


@dataclass(frozen=True)
class DatasetSplit:
    train: tuple[LabeledExample, ...]
    validation: tuple[LabeledExample, ...]
    test: tuple[LabeledExample, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "train", tuple(self.train))
        object.__setattr__(self, "validation", tuple(self.validation))
        object.__setattr__(self, "test", tuple(self.test))
        ids: set[str] = set()
        for part in (self.train, self.validation, self.test):
            for ex in part:
                if ex.patient_id in ids:
                    raise ValueError(f"patient {ex.patient_id} appears in more than one split part")
                ids.add(ex.patient_id)
        for part_name, part in (("validation", self.validation), ("test", self.test)):
            for ex in part:
                if ex.clean_label is None:
                    raise ValueError(f"{part_name} example {ex.patient_id} lacks a clean label")


# --- cohort code rules ------------------------------------------------------
#
# One table per record role, of (label, prefixes, exact codes) rows, preterm first.

DELIVERY_OUTCOMES = ((Label.PRETERM, ("644.2",), {"640.01"}), (Label.FULL_TERM, ("645",), {"650", "649.8", "652.5"}))
# 765.21 through 765.28; 765.20 (unspecified weeks) stays unknown.
NEWBORN_OUTCOMES = (
    (Label.PRETERM, ("765.0", "765.1"), {f"765.2{d}" for d in range(1, 9)}),
    (Label.FULL_TERM, (), {"765.29"}),
)


def _classify(codes: Iterable[str], table: tuple) -> Label | None:
    """The label of the first row of ``table`` that any code matches, or None."""
    codes = set(codes)
    for label, prefixes, exact in table:
        if any(c in exact or c.startswith(prefixes) for c in codes):
            return label
    return None


def classify_delivery(codes: Iterable[str]) -> Label | None:
    """Clean label of a mother's delivery encounter from its code strings.

    Preterm indicators take precedence over full-term ones; anything matching
    neither list is ambiguous (None).
    """
    return _classify(codes, DELIVERY_OUTCOMES)


def classify_newborn(codes: Iterable[str]) -> Label | None:
    """Label of a newborn's birth encounter from its code strings; None when
    no prematurity code classifies it."""
    return _classify(codes, NEWBORN_OUTCOMES)


def outcome_classifier(
    vocab: CodeVocabulary, classify: Callable[[Iterable[str]], Label | None]
) -> Callable[[Collection[int]], Label | None]:
    """The code rule ``classify`` over code indices of vocab. Each vocabulary
    code is classified once; a visit's label then follows from its index set
    with the precedence both rules share: any preterm code, else any
    full-term code, else None."""
    by_index = [classify((code,)) for code in vocab]
    preterm = frozenset(i for i, label in enumerate(by_index) if label is Label.PRETERM)
    fullterm = frozenset(i for i, label in enumerate(by_index) if label is Label.FULL_TERM)
    size = len(by_index)

    def classify_indices(codes: Collection[int]) -> Label | None:
        bad = [i for i in codes if not 0 <= i < size]
        if bad:
            raise VocabularyError(f"vocabulary index {bad[0]} out of range")
        if not preterm.isdisjoint(codes):
            return Label.PRETERM
        if not fullterm.isdisjoint(codes):
            return Label.FULL_TERM
        return None

    return classify_indices


# --- record transforms ------------------------------------------------------


def merge_stays(stays: Iterable[tuple[int, int, int, Collection[int]]]) -> tuple[Visit, ...]:
    """Visits from (day, t_adm, t_dis, codes) stays, one per calendar day in
    day order: union of codes, earliest admission, latest discharge."""
    by_day: dict[int, list] = {}
    for day, t_adm, t_dis, codes in stays:
        stay = by_day.get(day)
        if stay is None:
            by_day[day] = [t_adm, t_dis, codes]
        else:
            stay[0] = min(stay[0], t_adm)
            stay[1] = max(stay[1], t_dis)
            stay[2] = (*stay[2], *codes)  # Visit keeps each code once; the caller's codes stay as they are
    return tuple(
        Visit(day=day, codes=codes, t_adm=t_adm, t_dis=t_dis)
        for day, (t_adm, t_dis, codes) in sorted(by_day.items())
    )


@contextmanager
def collector_paused() -> Iterator[None]:
    """Run the block with Python's cyclic garbage collector off, then
    restore its previous state. Building records allocates many small
    objects but no reference cycles, so the collector's passes over them
    find nothing to free; used as a decorator on the record builders."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


# --- persistence ------------------------------------------------------------
#
# Record files are line-delimited JSON, one patient per line, with codes stored as strings
# and resolved through the vocabulary on load. The tables hold each key that ``record_to_dict``
# writes for a line and a visit, in the writer's order, with the JSON types it writes (a bool or a
# whole float is no int). Any other key is refused; a label may be absent, as null; the rest are required.

_NULL = type(None)
LINE_KEYS = {"patient_id": (str,), "hospital_id": (str,), "role": (str,), "delivery_day": (int, _NULL),
             "visits": (list,), "clean_label": (str, _NULL), "noisy_label": (str, _NULL)}
VISIT_KEYS = {"day": (int,), "codes": (list,), "t_adm": (int,), "t_dis": (int,)}


def _visit_to_dict(visit: Visit, vocab: CodeVocabulary) -> dict:
    return {
        "day": visit.day,
        "codes": sorted(vocab.code(i) for i in visit.codes),
        "t_adm": visit.t_adm,
        "t_dis": visit.t_dis,
    }


def _label_to_json(label: Label | None) -> str | None:
    return None if label is None else label.to_json()


def record_to_dict(
    record: PatientRecord,
    vocab: CodeVocabulary,
    clean_label: Label | None = None,
    noisy_label: Label | None = None,
) -> dict:
    return {
        "patient_id": record.patient_id,
        "hospital_id": record.hospital_id,
        "role": record.role.value,
        "delivery_day": record.delivery_day,
        "visits": [_visit_to_dict(v, vocab) for v in record.visits],
        "clean_label": _label_to_json(clean_label),
        "noisy_label": _label_to_json(noisy_label),
    }


def _misfit(where: Callable[[], str], key: str, detail: str) -> ValueError:
    path = ".".join(filter(None, (where(), key)))
    return ValueError(f"{path}: {detail}" if path else detail)


def _check(obj, table: dict, name: str, where: Callable[[], str] = str) -> None:
    """Raise a ValueError naming the key at fault under ``where()``, the path of ``obj`` in its
    line, unless ``obj`` is a JSON object of keys in ``table`` with a JSON type listed there."""
    if type(obj) is not dict:
        raise _misfit(where, "", f"expected object, got {obj!r}")
    for key, value in obj.items():
        kinds = table.get(key)
        if kinds is None:
            raise _misfit(where, key, f"not a key of a {name}")
        if type(value) not in kinds:
            names = " or ".join("null" if kind is _NULL else kind.__name__ for kind in kinds)
            raise _misfit(where, key, f"expected {names}, got {value!r}")


def _parse(parse: Callable[[object], T], value: object, key: str, where: Callable[[], str] = str) -> T:
    """``parse(value)``, with a ValueError or VocabularyError from it named by ``key`` under ``where()``."""
    try:
        return parse(value)
    except (ValueError, VocabularyError) as exc:
        raise _misfit(where, key, exc.args[0]) from None


def _label_from_json(value: str | None) -> Label | None:
    return None if value is None else Label.from_json(value)


def record_from_dict(obj, vocab: CodeVocabulary) -> tuple[PatientRecord, Label | None, Label | None]:
    """The record and labels of one line of a record file. The line and each
    visit must fit their key tables, the role and every code must be known, a
    visit must hold a code, and a label must be "preterm", "fullterm" or null;
    a ValueError names the visit and the key that do not."""
    _check(obj, LINE_KEYS, "record line")
    visits: list[Visit] = []
    where = lambda: f"visits[{len(visits)}]"  # the visit being read, named only on a fault
    for v in obj["visits"]:
        _check(v, VISIT_KEYS, "visit", where)
        codes = _parse(vocab.encode, v["codes"], "codes", where)
        if not codes:
            raise _misfit(where, "codes", "empty code set")
        visits.append(Visit(day=v["day"], codes=codes, t_adm=v["t_adm"], t_dis=v["t_dis"]))
    role = _parse(Role, obj["role"], "role")
    record = PatientRecord(obj["patient_id"], obj["hospital_id"], role, tuple(visits), obj["delivery_day"])
    clean = _parse(_label_from_json, obj.get("clean_label"), "clean_label")
    noisy = _parse(_label_from_json, obj.get("noisy_label"), "noisy_label")
    return record, clean, noisy


def _write_lines(path: str | Path, dicts: Iterable[dict]) -> None:
    write_file(path, (json.dumps(obj, separators=(",", ":")) + "\n" for obj in dicts))


def write_file(path: str | Path, chunks: Iterable[str]) -> None:
    """Write the text ``chunks`` to ``path`` as one whole UTF-8 file,
    making its directory: they stream into a temporary file beside it, which
    then replaces it, so a failed or killed write never leaves a torn file
    under the name. The mode is the one ``open(path, "w")`` gives."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.urandom(4).hex()}.tmp")
    try:
        with open(tmp, "x", encoding="utf-8", newline="") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def read_lines(path: str | Path, parse: Callable[[str], T], build: Callable[[list[T]], R] = list) -> R:
    """``build`` of ``parse`` applied to each non-blank line of a UTF-8 text
    file, read one line at a time. A line that is not UTF-8, or a
    ValueError, KeyError or TypeError from either function, becomes a
    RecordFileError naming the file, and the line when the line is at
    fault."""
    items = []
    lineno = 0
    try:
        # A leading byte-order mark is dropped. Each byte that is not UTF-8 reads
        # as a lone surrogate, so its line can be named; lines split as a strict read splits them.
        with open(path, "r", encoding="utf-8-sig", errors="surrogateescape") as fh:
            for lineno, line in enumerate(fh, start=1):
                if not line.isascii() and any("\udc80" <= ch <= "\udcff" for ch in line):
                    raise ValueError("not UTF-8 text")
                if line.strip():
                    items.append(parse(line.rstrip("\n")))
        lineno = 0
        return build(items)
    except (ValueError, KeyError, TypeError) as exc:
        where = f"line {lineno}: " if lineno else ""
        detail = f"missing key {exc}" if type(exc) is KeyError else exc.args[0] if exc.args else exc
        raise RecordFileError(f"{path}: {where}{detail}") from None


def save_records(records: Iterable[PatientRecord], path: str | Path, vocab: CodeVocabulary) -> None:
    _write_lines(path, (record_to_dict(r, vocab) for r in records))


def _record_lines(vocab: CodeVocabulary, role: Role, make: Callable[..., T]) -> Callable[[str], T]:
    """A line parser for ``read_lines`` over a record file of ``role``
    records: ``make`` of each line's record and labels. A record of the
    other role, or a patient listed on an earlier line, fails."""
    seen: set[str] = set()

    def parse(line: str) -> T:
        record, clean, noisy = record_from_dict(json.loads(line), vocab)
        if record.role is not role:
            raise ValueError(f"patient {record.patient_id} is a {record.role.value} record, not a {role.value} record")
        if record.patient_id in seen:
            raise ValueError(f"patient {record.patient_id} listed again")
        seen.add(record.patient_id)
        return make(record, clean, noisy)

    return parse


def load_records(path: str | Path, vocab: CodeVocabulary, role: Role) -> list[PatientRecord]:
    return read_lines(path, _record_lines(vocab, role, lambda record, *_: record))


def save_examples(examples: Iterable[LabeledExample], path: str | Path, vocab: CodeVocabulary) -> None:
    _write_lines(path, (record_to_dict(ex.record, vocab, ex.clean_label, ex.noisy_label) for ex in examples))


@collector_paused()
def load_examples(path: str | Path, vocab: CodeVocabulary) -> list[LabeledExample]:
    """The examples of a file written by ``save_examples``. An example that
    ``LabeledExample`` refuses, such as one without visits, a newborn
    record, or a patient listed again, is named with the file and line."""
    return read_lines(path, _record_lines(vocab, Role.MOTHER, LabeledExample))
