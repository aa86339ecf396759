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
from typing import AbstractSet, Callable, Collection, Iterable, Iterator, Sequence, TypeVar

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
    """Immutable code-string <-> index mapping. Index i is line i of the
    vocabulary file."""

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
        except KeyError:
            raise VocabularyError(f"unknown code {code!r}") from None

    def __contains__(self, code: str) -> bool:
        return code in self._index

    def decode(self, indices: Iterable[int]) -> set[str]:
        return {self.code(i) for i in indices}

    def encode(self, codes: Iterable[str]) -> frozenset[int]:
        return frozenset(self.index_of(c) for c in codes)

    def save(self, path: str | Path) -> None:
        write_file(path, (c + "\n" for c in self._codes))

    @classmethod
    def load(cls, path: str | Path) -> "CodeVocabulary":
        return read_lines(path, str, cls)


@dataclass(frozen=True)
class Visit:
    """One encounter: admission/discharge minutes plus the set of code indices
    recorded during the stay."""

    day: int
    codes: frozenset[int]
    t_adm: int
    t_dis: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "codes", frozenset(self.codes))
        if not self.codes:
            raise ValueError("visit with empty code set")
        if self.t_dis < self.t_adm:
            raise ValueError(f"visit discharged before admission ({self.t_dis} < {self.t_adm})")
        if self.day != self.t_adm // MINUTES_PER_DAY:
            raise ValueError(f"visit day {self.day} inconsistent with t_adm {self.t_adm}")


@dataclass(frozen=True)
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

    def visit_on(self, day: int) -> Visit | None:
        for v in self.visits:
            if v.day == day:
                return v
        return None


@dataclass(frozen=True)
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
# Wildcard patterns ("644.2*") match any code sharing the prefix; exact
# patterns match only themselves.

PRETERM_DELIVERY_PREFIXES = ("644.2",)
PRETERM_DELIVERY_EXACT = frozenset({"640.01"})
FULLTERM_DELIVERY_PREFIXES = ("645",)
FULLTERM_DELIVERY_EXACT = frozenset({"650", "649.8", "652.5"})

NEWBORN_PRETERM_PREFIXES = ("765.0", "765.1")
# 765.21 through 765.28; 765.20 (unspecified weeks) stays unknown.
NEWBORN_PRETERM_EXACT = frozenset(f"765.2{d}" for d in range(1, 9))
NEWBORN_FULLTERM_EXACT = "765.29"


def _matches_any(code: str, prefixes: tuple[str, ...], exact: frozenset[str]) -> bool:
    return code in exact or any(code.startswith(p) for p in prefixes)


def classify_delivery(codes: Iterable[str]) -> Label | None:
    """Clean label of a mother's delivery encounter from its code strings.

    Preterm indicators take precedence over full-term ones; anything matching
    neither list is ambiguous (None).
    """
    codes = set(codes)
    if any(_matches_any(c, PRETERM_DELIVERY_PREFIXES, PRETERM_DELIVERY_EXACT) for c in codes):
        return Label.PRETERM
    if any(_matches_any(c, FULLTERM_DELIVERY_PREFIXES, FULLTERM_DELIVERY_EXACT) for c in codes):
        return Label.FULL_TERM
    return None


def classify_newborn(codes: Iterable[str]) -> Label | None:
    """Label of a newborn's birth encounter from its code strings; None when
    no prematurity code classifies it."""
    codes = set(codes)
    if any(_matches_any(c, NEWBORN_PRETERM_PREFIXES, NEWBORN_PRETERM_EXACT) for c in codes):
        return Label.PRETERM
    if NEWBORN_FULLTERM_EXACT in codes:
        return Label.FULL_TERM
    return None


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


def merge_stays(stays: Iterable[tuple[int, int, int, AbstractSet[int]]]) -> tuple[Visit, ...]:
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
            stay[2] = stay[2] | codes  # a new set; the caller's sets stay as they are
    return tuple(
        Visit(day=day, codes=frozenset(codes), t_adm=t_adm, t_dis=t_dis)
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
# Record files are line-delimited JSON, one patient per line, with codes
# stored as strings and resolved through the vocabulary on load.


def _visit_to_dict(visit: Visit, vocab: CodeVocabulary) -> dict:
    return {
        "day": visit.day,
        "codes": sorted(vocab.code(i) for i in visit.codes),
        "t_adm": visit.t_adm,
        "t_dis": visit.t_dis,
    }


def _label_to_json(label: Label | None) -> str | None:
    return None if label is None else label.to_json()


def _label_from_json(value: str | None) -> Label | None:
    return None if value is None else Label.from_json(value)


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


_INT, _STR, _LIST, _INT_OR_NULL = (int,), (str,), (list,), (int, type(None))


def _json_field(obj: dict, key: str, kinds: tuple[type, ...], visit: int | None = None):
    """``obj[key]``, of a record or of its visit number ``visit``, whose
    JSON type must be one of ``kinds``. A bool is not an int here, and a
    float that holds a whole number is not one either."""
    value = obj[key]
    if type(value) not in kinds:
        names = " or ".join("null" if kind is type(None) else kind.__name__ for kind in kinds)
        where = "" if visit is None else f"visits[{visit}]."
        raise ValueError(f"{where}{key}: expected {names}, got {value!r}")
    return value


def record_from_dict(obj: dict, vocab: CodeVocabulary) -> tuple[PatientRecord, Label | None, Label | None]:
    """The record and labels of one line of a record file. Each field must
    have the JSON type that ``record_to_dict`` writes; a ValueError names
    the field that does not."""
    visits = tuple(
        Visit(
            day=_json_field(v, "day", _INT, i),
            codes=vocab.encode(_json_field(v, "codes", _LIST, i)),
            t_adm=_json_field(v, "t_adm", _INT, i),
            t_dis=_json_field(v, "t_dis", _INT, i),
        )
        for i, v in enumerate(_json_field(obj, "visits", _LIST))
    )
    record = PatientRecord(
        patient_id=_json_field(obj, "patient_id", _STR),
        hospital_id=_json_field(obj, "hospital_id", _STR),
        role=Role(_json_field(obj, "role", _STR)),
        visits=visits,
        delivery_day=_json_field(obj, "delivery_day", _INT_OR_NULL),
    )
    return record, _label_from_json(obj.get("clean_label")), _label_from_json(obj.get("noisy_label"))


def _write_lines(path: str | Path, dicts: Iterable[dict]) -> None:
    write_file(path, (json.dumps(obj, separators=(",", ":")) + "\n" for obj in dicts))


def write_file(path: str | Path, chunks: Iterable[str | bytes]) -> None:
    """Write ``chunks`` (a str as UTF-8) to ``path`` as one whole file,
    making its directory: they stream into a temporary file beside it, which
    then replaces it, so a failed or killed write never leaves a torn file
    under the name. The mode is the one ``open(path, "w")`` gives."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.urandom(4).hex()}.tmp")
    try:
        with open(tmp, "xb") as fh:
            fh.writelines(chunk.encode("utf-8") if isinstance(chunk, str) else chunk for chunk in chunks)
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
        # Each byte that is not UTF-8 reads as a lone surrogate, so the line
        # that holds it can be named; lines split as a strict read splits them.
        with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
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


def load_records(path: str | Path, vocab: CodeVocabulary) -> list[PatientRecord]:
    return read_lines(path, lambda line: record_from_dict(json.loads(line), vocab)[0])


def save_examples(examples: Iterable[LabeledExample], path: str | Path, vocab: CodeVocabulary) -> None:
    _write_lines(path, (record_to_dict(ex.record, vocab, ex.clean_label, ex.noisy_label) for ex in examples))


@collector_paused()
def load_examples(path: str | Path, vocab: CodeVocabulary) -> list[LabeledExample]:
    """The examples of a file written by ``save_examples``. An example that
    ``LabeledExample`` refuses, such as one without visits, is named with
    the file and line."""
    return read_lines(path, lambda line: LabeledExample(*record_from_dict(json.loads(line), vocab)))
