"""Domain records: diagnosis vocabulary, visits, patients, labels, and the
cohort rules that turn the codes of a delivery or birth encounter into a
label.

Timestamps are integer minutes since the cohort epoch; a visit's day is
always floor(t_adm / 1440).
"""

from __future__ import annotations

import json
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
        Path(path).write_text("".join(c + "\n" for c in self._codes), encoding="utf-8")

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
    patient_id: str
    hospital_id: str
    role: Role
    visits: tuple[Visit, ...]
    delivery_day: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "visits", tuple(self.visits))
        keys = [(v.day, v.t_adm) for v in self.visits]
        if keys != sorted(keys):
            raise ValueError(f"visits of {self.patient_id} not time-ordered")
        if self.role is Role.NEWBORN and len(self.visits) != 1:
            raise ValueError(f"newborn {self.patient_id} must have exactly one visit, got {len(self.visits)}")

    def visit_on(self, day: int) -> Visit | None:
        for v in self.visits:
            if v.day == day:
                return v
        return None


@dataclass(frozen=True)
class LabeledExample:
    """A truncated mother record with its clean and/or noisy outcome label."""

    record: PatientRecord
    clean_label: Label | None = None
    noisy_label: Label | None = None

    def __post_init__(self) -> None:
        if self.clean_label is None and self.noisy_label is None:
            raise ValueError(f"example {self.record.patient_id} carries no label")

    @property
    def patient_id(self) -> str:
        return self.record.patient_id


@dataclass(frozen=True)
class DatasetSplit:
    train: tuple[LabeledExample, ...]
    validation: tuple[LabeledExample, ...]
    test: tuple[LabeledExample, ...]
    seed: int

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


def merge_same_day(record: PatientRecord) -> PatientRecord:
    """Collapse visits sharing a calendar day into one encounter: union of
    codes, earliest admission, latest discharge. Idempotent; a record with
    no two visits on one day is returned as it is."""
    visits = record.visits
    if all(a.day != b.day for a, b in zip(visits, visits[1:])):
        return record
    return PatientRecord(
        patient_id=record.patient_id,
        hospital_id=record.hospital_id,
        role=record.role,
        visits=merge_stays((v.day, v.t_adm, v.t_dis, v.codes) for v in visits),
        delivery_day=record.delivery_day,
    )


def truncate_at_prediction_point(record: PatientRecord, period_days: int) -> PatientRecord:
    """Drop every visit later than delivery_day - period_days (boundary day is
    kept). The delivery_day field survives as metadata."""
    if record.delivery_day is None:
        raise ValueError(f"record {record.patient_id} has no delivery_day to truncate against")
    if period_days < 0:
        raise ValueError(f"period_days must be non-negative, got {period_days}")
    cutoff = record.delivery_day - period_days
    kept = tuple(v for v in record.visits if v.day <= cutoff)
    return PatientRecord(
        patient_id=record.patient_id,
        hospital_id=record.hospital_id,
        role=record.role,
        visits=kept,
        delivery_day=record.delivery_day,
    )


def apply_min_visit_filter(
    examples: Sequence[LabeledExample], min_visits: int = 2
) -> list[LabeledExample]:
    """Keep examples whose (already truncated) record has at least min_visits
    visits."""
    if min_visits < 0:
        raise ValueError(f"min_visits must be >= 0, got {min_visits}")
    return [ex for ex in examples if len(ex.record.visits) >= min_visits]


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


def record_from_dict(obj: dict, vocab: CodeVocabulary) -> tuple[PatientRecord, Label | None, Label | None]:
    visits = tuple(
        Visit(day=v["day"], codes=vocab.encode(v["codes"]), t_adm=v["t_adm"], t_dis=v["t_dis"])
        for v in obj["visits"]
    )
    record = PatientRecord(
        patient_id=obj["patient_id"],
        hospital_id=obj["hospital_id"],
        role=Role(obj["role"]),
        visits=visits,
        delivery_day=obj["delivery_day"],
    )
    return record, _label_from_json(obj.get("clean_label")), _label_from_json(obj.get("noisy_label"))


def _write_lines(dicts: Iterable[dict], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for obj in dicts:
            fh.write(json.dumps(obj, separators=(",", ":")) + "\n")


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
    _write_lines((record_to_dict(r, vocab) for r in records), path)


def load_records(path: str | Path, vocab: CodeVocabulary) -> list[PatientRecord]:
    return read_lines(path, lambda line: record_from_dict(json.loads(line), vocab)[0])


def save_examples(examples: Iterable[LabeledExample], path: str | Path, vocab: CodeVocabulary) -> None:
    _write_lines(
        (record_to_dict(ex.record, vocab, ex.clean_label, ex.noisy_label) for ex in examples),
        path,
    )


def load_examples(path: str | Path, vocab: CodeVocabulary) -> list[LabeledExample]:
    """The examples of a file written by ``save_examples``. Each must hold
    a visit: the dataset builder keeps only records with two or more, and a
    model cannot score a record with none."""

    def parse(line: str) -> LabeledExample:
        example = LabeledExample(*record_from_dict(json.loads(line), vocab))
        if not example.record.visits:
            raise ValueError(f"example {example.patient_id} has no visits")
        return example

    return read_lines(path, parse)
