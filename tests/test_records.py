import gc
import json
import pickle
from dataclasses import FrozenInstanceError, replace

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from pretermalc.records import (
    LINE_KEYS,
    VISIT_KEYS,
    CodeVocabulary,
    Label,
    LabeledExample,
    PatientRecord,
    RecordFileError,
    Role,
    Visit,
    VocabularyError,
    classify_delivery,
    classify_newborn,
    load_examples,
    load_records,
    merge_stays,
    outcome_classifier,
    record_from_dict,
    record_to_dict,
    save_examples,
    save_records,
)
from pretermalc import synth
from pretermalc.bench import Corpus, _corpus_digest, build_corpus, mean_label_accuracy
from pretermalc.linkage import LinkSet, MatchCandidate, link_accuracy, match_newborns
from pretermalc.synth import (
    MOTHER_AMBIGUOUS_CODE,
    MOTHER_FULLTERM_CODES,
    MOTHER_PRETERM_CODES,
    ConfigError,
    DatasetError,
    SynthConfig,
    build_datasets,
    build_vocabulary,
    generate_cohort,
)

MIN_DAY = 1440


def mk_visit(day, codes, t_adm=None, t_dis=None):
    t_adm = day * MIN_DAY + 60 if t_adm is None else t_adm
    t_dis = t_adm + 120 if t_dis is None else t_dis
    return Visit(day=day, codes=frozenset(codes), t_adm=t_adm, t_dis=t_dis)


def mk_record(visits, pid="p0", role=Role.MOTHER, delivery_day=None):
    return PatientRecord(
        patient_id=pid, hospital_id="h00", role=role,
        visits=tuple(visits), delivery_day=delivery_day,
    )


# --- labels and vocabulary ----------------------------------------------------


def test_label_order_preterm_first():
    assert Label.PRETERM == 0
    assert Label.FULL_TERM == 1


def test_label_json_round_trip():
    for label in Label:
        assert Label.from_json(label.to_json()) is label
    with pytest.raises(ValueError):
        Label.from_json("unknown")


def test_vocabulary_lookup_and_rejections():
    vocab = CodeVocabulary(["650", "644.21", "V30.00"])
    assert len(vocab) == 3
    assert vocab.index_of("644.21") == 1
    assert vocab.code(2) == "V30.00"
    assert "650" in vocab and "651" not in vocab
    assert vocab.encode(["V30.00", "650"]) == (2, 0)
    with pytest.raises(VocabularyError, match="651"):
        vocab.index_of("651")
    with pytest.raises(VocabularyError):
        vocab.code(3)
    with pytest.raises(ValueError, match="duplicate"):
        CodeVocabulary(["650", "650"])
    with pytest.raises(ValueError, match="empty"):
        CodeVocabulary(["650", ""])


def test_vocabulary_file_round_trip(tmp_path):
    vocab = CodeVocabulary([f"c{i}" for i in range(50)])
    path = tmp_path / "vocab.txt"
    vocab.save(path)
    again = CodeVocabulary.load(path)
    assert list(again) == list(vocab)


# --- structural invariants ----------------------------------------------------


def test_visit_invariants():
    with pytest.raises(ValueError, match="empty"):
        Visit(day=1, codes=frozenset(), t_adm=1500, t_dis=1600)
    with pytest.raises(ValueError, match="discharged before"):
        Visit(day=1, codes=frozenset({0}), t_adm=1600, t_dis=1500)
    with pytest.raises(ValueError, match="inconsistent"):
        Visit(day=2, codes=frozenset({0}), t_adm=1500, t_dis=1600)


def test_newborn_record_requires_single_visit():
    with pytest.raises(ValueError, match="exactly one visit"):
        mk_record([mk_visit(1, {0}), mk_visit(2, {1})], role=Role.NEWBORN)


def test_record_requires_time_order():
    with pytest.raises(ValueError, match="not time-ordered"):
        mk_record([mk_visit(5, {0}), mk_visit(1, {1})])


def test_labeled_example_requires_some_label():
    rec = mk_record([mk_visit(1, {0})])
    with pytest.raises(ValueError, match="no label"):
        LabeledExample(record=rec)
    assert LabeledExample(record=rec, noisy_label=Label.PRETERM).patient_id == "p0"


@given(
    st.lists(st.integers(0, 199), min_size=1, max_size=12),
    st.sampled_from([list, tuple, set, frozenset, iter, reversed]),
)
def test_visit_codes_are_the_sorted_distinct_indices(codes, kind):
    visit = Visit(day=1, codes=kind(codes), t_adm=1500, t_dis=1600)
    assert visit.codes == tuple(sorted(set(codes)))
    assert visit == Visit(day=1, codes=set(codes), t_adm=1500, t_dis=1600)


def test_record_classes_hold_their_fields_in_slots():
    # Without slots each instance carries a __dict__: 1.8 MB more per default cohort, 4.5 MB more of prep's peak RSS.
    visit = mk_visit(1, {0})
    record = mk_record([visit])
    example = LabeledExample(record=record, clean_label=Label.PRETERM)
    for obj in (visit, record, example):
        assert not hasattr(obj, "__dict__"), type(obj).__name__
    with pytest.raises(FrozenInstanceError):
        visit.codes = (1,)


# --- cohort classification rules ----------------------------------------------


def test_classify_delivery_examples():
    assert classify_delivery({"650"}) is Label.FULL_TERM
    assert classify_delivery({"644.21"}) is Label.PRETERM
    assert classify_delivery({"V27.0"}) is None


def test_classify_delivery_rules():
    assert classify_delivery({"640.01"}) is Label.PRETERM
    assert classify_delivery({"645.11"}) is Label.FULL_TERM
    assert classify_delivery({"649.8"}) is Label.FULL_TERM
    assert classify_delivery({"652.5"}) is Label.FULL_TERM
    # preterm indicators win when both classes appear
    assert classify_delivery({"650", "644.20"}) is Label.PRETERM
    assert classify_delivery(set()) is None
    # prefix matching is literal: 640.01 exact only
    assert classify_delivery({"640.02"}) is None


def test_classify_newborn_examples():
    assert classify_newborn({"765.24"}) is Label.PRETERM
    assert classify_newborn({"765.29"}) is Label.FULL_TERM
    assert classify_newborn({"V30.00"}) is None


def test_classify_newborn_rules():
    assert classify_newborn({"765.01"}) is Label.PRETERM
    assert classify_newborn({"765.19"}) is Label.PRETERM
    for d in range(1, 9):
        assert classify_newborn({f"765.2{d}"}) is Label.PRETERM
    # unspecified gestational weeks stays unknown
    assert classify_newborn({"765.20"}) is None
    # preterm code beats the full-term code
    assert classify_newborn({"765.29", "765.11"}) is Label.PRETERM


@given(st.sets(st.sampled_from(
    ["650", "645.11", "644.21", "644.20", "640.01", "649.8", "652.5", "V27.0", "765.24", "30.1"]
)))
def test_classifiers_pure_and_order_insensitive(codes):
    assert classify_delivery(codes) is classify_delivery(sorted(codes))
    assert classify_delivery(codes) is classify_delivery(list(codes)[::-1])
    assert classify_newborn(codes) is classify_newborn(sorted(codes))


_SYNTH_VOCAB = build_vocabulary()

# The two rules as separate scans over seven constants, kept here as the
# oracle of the rule tables.
_PRETERM_DELIVERY_PREFIXES = ("644.2",)
_PRETERM_DELIVERY_EXACT = frozenset({"640.01"})
_FULLTERM_DELIVERY_PREFIXES = ("645",)
_FULLTERM_DELIVERY_EXACT = frozenset({"650", "649.8", "652.5"})
_NEWBORN_PRETERM_PREFIXES = ("765.0", "765.1")
_NEWBORN_PRETERM_EXACT = frozenset(f"765.2{d}" for d in range(1, 9))
_NEWBORN_FULLTERM_EXACT = "765.29"


def _matches_any(code, prefixes, exact):
    return code in exact or any(code.startswith(p) for p in prefixes)


def _oracle_delivery(codes):
    codes = set(codes)
    if any(_matches_any(c, _PRETERM_DELIVERY_PREFIXES, _PRETERM_DELIVERY_EXACT) for c in codes):
        return Label.PRETERM
    if any(_matches_any(c, _FULLTERM_DELIVERY_PREFIXES, _FULLTERM_DELIVERY_EXACT) for c in codes):
        return Label.FULL_TERM
    return None


def _oracle_newborn(codes):
    codes = set(codes)
    if any(_matches_any(c, _NEWBORN_PRETERM_PREFIXES, _NEWBORN_PRETERM_EXACT) for c in codes):
        return Label.PRETERM
    if _NEWBORN_FULLTERM_EXACT in codes:
        return Label.FULL_TERM
    return None


# Codes on either side of each prefix and exact code of the two rules.
_BOUNDARY_CODES = [
    "644.2", "644.20", "6442", "640.0", "640.01", "640.010", "645", "6451", "649.8", "650", "650.0", "652.5",
    "765.0", "765.09", "765.1", "765.2", "765.20", "765.21", "765.28", "765.29", "765.290", "V27.0", "V30.00",
]


@given(st.sets(st.sampled_from(sorted(set(_BOUNDARY_CODES) | set(_SYNTH_VOCAB))), max_size=6))
@example({"765.20"})
@example({"765.29", "765.28"})
@example({"650", "644.20"})
def test_rule_tables_classify_as_the_separate_scans(codes):
    assert classify_delivery(codes) is _oracle_delivery(codes)
    assert classify_newborn(codes) is _oracle_newborn(codes)
    assert classify_delivery(iter(codes)) is _oracle_delivery(codes)
    assert classify_newborn(iter(codes)) is _oracle_newborn(codes)


# Each rule set with the vocabulary codes it is about.
_RULE_CODES = {
    classify_newborn: [i for i, code in enumerate(_SYNTH_VOCAB) if code.startswith(("765", "V30"))],
    classify_delivery: [
        _SYNTH_VOCAB.index_of(code)
        for code in (*MOTHER_FULLTERM_CODES, *MOTHER_PRETERM_CODES, MOTHER_AMBIGUOUS_CODE)
    ],
}


def _code_subsets(rule):
    """(rule, outcome codes, other codes): subsets of the default vocabulary,
    with the rule's own outcome codes drawn more often than chance would,
    so subsets of every class come up."""
    return st.tuples(
        st.just(rule),
        st.sets(st.sampled_from(_RULE_CODES[rule]), max_size=2),
        st.sets(st.integers(0, len(_SYNTH_VOCAB) - 1), max_size=6),
    )


def _indices(*codes):
    return {_SYNTH_VOCAB.index_of(code) for code in codes}


@given(st.sampled_from(list(_RULE_CODES)).flatmap(_code_subsets))
@example((classify_newborn, _indices("765.29", "V30.00"), set()))
@example((classify_newborn, _indices("V30.00"), set()))
@example((classify_newborn, set(), set()))
@example((classify_delivery, _indices("650", "644.21"), set()))
@example((classify_delivery, _indices("V27.0"), set()))
@example((classify_delivery, set(), set()))
def test_newborn_classifier_by_index_matches_code_rules(case):
    rule, outcome_part, other = case
    indices = frozenset(outcome_part | other)
    classify = outcome_classifier(_SYNTH_VOCAB, rule)
    assert classify(indices) is rule({_SYNTH_VOCAB.code(i) for i in indices})


def test_newborn_classifier_rejects_out_of_range_index():
    classify = outcome_classifier(CodeVocabulary(["765.29", "V30.00"]), classify_newborn)
    assert classify(frozenset({0, 1})) is Label.FULL_TERM
    with pytest.raises(VocabularyError, match="index 2 out of range"):
        classify(frozenset({1, 2}))
    with pytest.raises(VocabularyError, match="index -1 out of range"):
        classify(frozenset({-1}))


# --- record transforms ----------------------------------------------------------


def test_merge_same_day_example():
    visits = [
        mk_visit(5, {0}, t_adm=5 * MIN_DAY + 10, t_dis=5 * MIN_DAY + 50),
        mk_visit(5, {1}, t_adm=5 * MIN_DAY + 100, t_dis=5 * MIN_DAY + 200),
        mk_visit(9, {2}),
    ]
    rec = mk_record(visits)
    assert [v.day for v in rec.visits] == [5, 9]
    assert rec.visits[0].codes == (0, 1)
    assert rec.visits[0].t_adm == 5 * MIN_DAY + 10
    assert rec.visits[0].t_dis == 5 * MIN_DAY + 200
    with pytest.raises(ValueError, match="not time-ordered"):
        mk_record([visits[1], visits[0]])
    with pytest.raises(ValueError, match="exactly one visit, got 2"):
        mk_record(visits[:2], role=Role.NEWBORN)


def test_merge_single_visit_identity():
    visit = mk_visit(3, {0})
    assert mk_record([visit]).visits == (visit,)


def test_merge_returns_record_without_same_day_visits_unchanged():
    visits = [mk_visit(3, {0}), mk_visit(4, {1, 2}), mk_visit(9, {2})]
    assert all(kept is given for kept, given in zip(mk_record(visits).visits, visits, strict=True))


def test_merge_duplicate_codes():
    rec = mk_record([
        mk_visit(3, {0}, t_adm=3 * MIN_DAY, t_dis=3 * MIN_DAY + 9),
        mk_visit(3, {0}, t_adm=3 * MIN_DAY + 20, t_dis=3 * MIN_DAY + 30),
    ])
    assert len(rec.visits) == 1
    assert rec.visits[0].codes == (0,)


@given(st.lists(
    st.tuples(st.integers(0, 6), st.sets(st.integers(0, 9), min_size=1, max_size=3)),
    min_size=1, max_size=8,
))
def test_merge_same_day_idempotent(day_codes):
    day_codes.sort(key=lambda dc: dc[0])
    visits = [
        mk_visit(day, codes, t_adm=day * MIN_DAY + 2 * i, t_dis=day * MIN_DAY + 2 * i + 1)
        for i, (day, codes) in enumerate(day_codes)
    ]
    rec = mk_record(visits)
    assert rec.visits == merge_stays((v.day, v.t_adm, v.t_dis, v.codes) for v in visits)
    assert mk_record(rec.visits) == rec


@given(st.lists(
    st.tuples(st.integers(0, 3), st.lists(st.integers(0, 9), min_size=1, max_size=4)),
    min_size=1, max_size=6,
))
def test_merge_stays_keeps_the_sorted_union_of_each_day(stays):
    given_codes = [list(codes) for _, codes in stays]
    merged = merge_stays((day, day * MIN_DAY + i, day * MIN_DAY + i + 1, codes) for i, (day, codes) in enumerate(stays))
    union: dict[int, set[int]] = {}
    for day, codes in stays:
        union.setdefault(day, set()).update(codes)
    assert [(v.day, v.codes) for v in merged] == [(day, tuple(sorted(codes))) for day, codes in sorted(union.items())]
    assert [codes for _, codes in stays] == given_codes  # the caller's codes stay as they are


DATASET_VOCAB = CodeVocabulary(["650", "765.29", "V22.0"])


def dataset_records(*prenatal_days):
    """The records of the clean examples that build_datasets makes of
    hand-built mothers, by patient id. Mother m<i> has a prenatal visit on
    each day of prenatal_days[i] and a full-term delivery on day 400, and is
    linked to a full-term newborn, so each mother it keeps is dual-labeled."""
    mothers, newborns, links = [], [], []
    for i, days in enumerate(prenatal_days):
        visits = [mk_visit(day, {2}) for day in days] + [mk_visit(400, {0})]
        mothers.append(mk_record(visits, pid=f"m{i}", delivery_day=400))
        newborns.append(mk_record([mk_visit(400, {1})], pid=f"n{i}", role=Role.NEWBORN, delivery_day=400))
        links.append(MatchCandidate(f"n{i}", f"m{i}", 0))
    d_star, _, _ = build_datasets(mothers, newborns, LinkSet(links), DATASET_VOCAB)
    return {ex.patient_id: ex.record for ex in d_star}


def test_truncate_example():
    out = dataset_records([100, 250, 350])["m0"]
    assert [v.day for v in out.visits] == [100, 250]
    assert out.delivery_day == 400


def test_truncate_boundary_inclusive():
    out = dataset_records([200, 310, 311])["m0"]
    assert [v.day for v in out.visits] == [200, 310]


def test_min_visit_filter():
    kept = dataset_records([100, 350], [100, 200], [50, 100, 150, 200, 250])
    assert {pid: len(rec.visits) for pid, rec in kept.items()} == {"m1": 2, "m2": 5}


# --- persistence -----------------------------------------------------------------


def build_cohort_records(n=50):
    vocab = CodeVocabulary([f"code{i}" for i in range(20)])
    records = []
    for i in range(n):
        visits = [
            mk_visit(d, {d % 20, (d + i) % 20}, t_adm=d * MIN_DAY + i, t_dis=d * MIN_DAY + i + 30)
            for d in range(1, 2 + i % 4)
        ]
        records.append(mk_record(visits, pid=f"p{i:03d}", delivery_day=10 + i))
    return vocab, records


def test_record_round_trip(tmp_path):
    vocab, records = build_cohort_records()
    path = tmp_path / "records.jsonl"
    save_records(records, path, vocab)
    assert load_records(path, vocab, Role.MOTHER) == records


@given(st.lists(st.sets(st.integers(0, 19), min_size=1, max_size=5), min_size=1, max_size=4))
def test_record_line_round_trip_keeps_codes(visit_codes):
    vocab = CodeVocabulary([f"code{i}" for i in range(20)])
    record = mk_record([mk_visit(day, codes) for day, codes in enumerate(visit_codes, start=1)])
    again, _, _ = record_from_dict(json.loads(json.dumps(record_to_dict(record, vocab))), vocab)
    assert again == record
    assert [v.codes for v in again.visits] == [tuple(sorted(codes)) for codes in visit_codes]


def test_example_round_trip(tmp_path):
    vocab, records = build_cohort_records(9)
    labels = [
        (Label.PRETERM, None),
        (None, Label.FULL_TERM),
        (Label.FULL_TERM, Label.PRETERM),
    ]
    examples = [
        LabeledExample(r, clean_label=labels[i % 3][0], noisy_label=labels[i % 3][1])
        for i, r in enumerate(records)
    ]
    path = tmp_path / "examples.jsonl"
    save_examples(examples, path, vocab)
    assert load_examples(path, vocab) == examples


def test_load_empty_file(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    vocab = CodeVocabulary(["a"])
    assert load_records(path, vocab, Role.MOTHER) == []


def test_load_reports_bad_line_number(tmp_path):
    vocab, records = build_cohort_records(3)
    path = tmp_path / "records.jsonl"
    save_records(records, path, vocab)
    text = path.read_text().splitlines()
    text[1] = text[1][: len(text[1]) // 2]
    path.write_text("\n".join(text) + "\n")
    with pytest.raises(RecordFileError, match="line 2"):
        load_records(path, vocab, Role.MOTHER)


def test_load_reports_unknown_code(tmp_path):
    vocab, records = build_cohort_records(2)
    path = tmp_path / "records.jsonl"
    save_records(records, path, vocab)
    smaller = CodeVocabulary(["code0", "code1"])
    with pytest.raises(RecordFileError, match="code"):
        load_records(path, smaller, Role.MOTHER)


def test_load_reports_missing_key(tmp_path):
    vocab = CodeVocabulary(["a"])
    path = tmp_path / "bad.jsonl"
    obj = {"patient_id": "p", "hospital_id": "h", "role": "mother", "delivery_day": None}
    path.write_text(json.dumps(obj) + "\n")
    with pytest.raises(RecordFileError, match="visits"):
        load_records(path, vocab, Role.MOTHER)


# A field of one record line given another JSON type than the one
# `record_to_dict` writes: (field, value, the types it takes), where the
# field "" is the line itself and `visits[0]` its first visit. Each is named,
# with the file and the line. Unchecked, a float or string delivery day or an
# object for the visits would drop the mother from the datasets unseen. The
# last cases give a key that the writer never writes, or a label value it
# never writes, and their third item is the message; a misspelt label key
# unchecked would read as an absent label.
@pytest.mark.parametrize("field, value, expected", [
    ("delivery_day", 795.5, "int or null"),
    ("delivery_day", "795", "int or null"),
    ("delivery_day", True, "int or null"),
    ("visits", {}, "list"),
    ("patient_id", 5, "str"),
    ("hospital_id", None, "str"),
    ("role", ["mother"], "str"),
    ("visits[0].codes", "code1", "list"),
    ("visits[0].day", 1.0, "int"),
    ("visits[0].t_adm", True, "int"),
    ("visits[0].t_dis", "1530", "int"),
    ("", [1, 2], "object"),
    ("visits[0]", 5, "object"),
    ("noisy_lable", None, "not a key of a record line"),
    ("visits[0].cods", ["code1"], "not a key of a visit"),
    ("clean_label", 5, "str or null"),
    ("noisy_label", "Preterm", "unknown label value 'Preterm'"),
])
def test_load_names_a_field_of_the_wrong_json_type(tmp_path, field, value, expected):
    path, message = _load_with_field(tmp_path, field, value)
    named = f"{field}: " if field else ""
    if expected.startswith(("not a key", "unknown label")):  # a fault of the key or the label value
        assert message == f"{path}: line 2: {named}{expected}"
        return
    assert message == f"{path}: line 2: {named}expected {expected}, got {value!r}"


def _load_with_field(tmp_path, field, value):
    """The path of a three-record file whose second line has ``value`` at
    ``field``, and the message of the RecordFileError that loading it raises."""
    vocab, records = build_cohort_records(3)
    path = tmp_path / "records.jsonl"
    save_records(records, path, vocab)
    lines = path.read_text().splitlines()
    obj = json.loads(lines[1])
    if field == "":
        obj = value
    elif field == "visits[0]":
        obj["visits"][0] = value
    else:
        *visit, key = field.split(".")
        (obj["visits"][0] if visit else obj)[key] = value
    lines[1] = json.dumps(obj)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(RecordFileError) as exc:
        load_records(path, vocab, Role.MOTHER)
    return path, str(exc.value)


# A value of the JSON type the writer gives a field, but one that no record
# holds: an unknown role, an unknown or non-string code, or no code at all.
# The message names the field, as it does for a value of the wrong type.
@pytest.mark.parametrize("field, value, detail", [
    ("role", "mom", "'mom' is not a valid Role"),
    ("visits[0].codes", ["code1", "z"], "unknown code 'z'"),
    ("visits[0].codes", [5], "unknown code 5"),
    ("visits[0].codes", [["code1"]], "unknown code ['code1']"),
    ("visits[0].codes", [], "empty code set"),
])
def test_load_names_the_field_of_a_value_no_record_holds(tmp_path, field, value, detail):
    path, message = _load_with_field(tmp_path, field, value)
    assert message == f"{path}: line 2: {field}: {detail}"


def test_key_tables_are_what_the_writer_writes():
    vocab, records = build_cohort_records(2)
    lines = [
        record_to_dict(records[0], vocab),
        record_to_dict(replace(records[0], delivery_day=None), vocab),
        record_to_dict(records[1], vocab, Label.PRETERM, Label.FULL_TERM),
    ]
    for line in lines:
        assert list(line) == list(LINE_KEYS)
        assert all(type(line[key]) in kinds for key, kinds in LINE_KEYS.items())
        for visit in line["visits"]:
            assert list(visit) == list(VISIT_KEYS)
            assert all(type(visit[key]) in kinds for key, kinds in VISIT_KEYS.items())


# --- the cyclic collector -----------------------------------------------------
#
# Cohort generation, dataset building, example loading and calibration's
# per-cohort loop run with Python's cyclic collector paused, since the
# records they build hold no reference cycles. The caller's collector state
# must come back, also on an error.

SMALL_COHORT = SynthConfig(n_mothers=120, n_hospitals=2, seed=1)


def _draw_failing(call):
    """`call`, run while each hospital's delivery-time draw raises. The
    kept calibration draws are cleared first, so the call draws again."""

    def fail(*args):
        raise ConfigError("no delivery times")

    def run():
        synth._delivery_draws.cache_clear()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(synth, "_draw_unique_ints", fail)
            return call()

    return run


def _builder_calls(tmp_path):
    """(name, call, exception the call raises or None) for each builder."""
    cohort = generate_cohort(SMALL_COHORT)
    links = match_newborns(cohort.mothers, cohort.newborns, cohort.vocab)
    d_star, _, _ = build_datasets(cohort.mothers, cohort.newborns, links, cohort.vocab)
    good, bad = tmp_path / "examples.jsonl", tmp_path / "malformed.jsonl"
    save_examples(d_star, good, cohort.vocab)
    bad.write_text(good.read_text(encoding="utf-8").splitlines()[0] + "\n{not json\n", encoding="utf-8")
    mothers, newborns, vocab = cohort.mothers, cohort.newborns, cohort.vocab
    return [
        ("generate_cohort", lambda: generate_cohort(SMALL_COHORT), None),
        ("generate_cohort", _draw_failing(lambda: generate_cohort(SMALL_COHORT)), ConfigError),
        ("build_datasets", lambda: build_datasets(mothers, newborns, links, vocab), None),
        ("build_datasets", lambda: build_datasets(mothers, newborns, LinkSet(()), vocab), DatasetError),
        ("load_examples", lambda: load_examples(good, vocab), None),
        ("load_examples", lambda: load_examples(bad, vocab), RecordFileError),
        ("mean_label_accuracy", lambda: mean_label_accuracy(SMALL_COHORT), None),
        ("mean_label_accuracy", _draw_failing(lambda: mean_label_accuracy(SMALL_COHORT)), ConfigError),
    ]


@pytest.mark.parametrize("enabled", [True, False])
def test_builders_restore_the_callers_collector_state(tmp_path, enabled):
    calls = _builder_calls(tmp_path)
    was_enabled = gc.isenabled()
    try:
        for name, call, error in calls:
            if enabled:
                gc.enable()
            else:
                gc.disable()
            if error is None:
                call()
            else:
                with pytest.raises(error):
                    call()
            assert gc.isenabled() is enabled, name
    finally:
        if was_enabled:
            gc.enable()


def test_cohort_generation_pauses_the_collector():
    passes = []

    def record(phase, info):
        if phase == "start":
            passes.append(info["generation"])

    gc.collect()
    gc.callbacks.append(record)
    try:
        generate_cohort(SMALL_COHORT)
    finally:
        gc.callbacks.remove(record)
    # Unpaused, building this cohort starts five young-generation passes.
    # Paused, it starts none; what it allocated starts at most one such
    # pass once the collector is back.
    assert passes in ([], [0])


def test_built_and_reloaded_records_hold_no_reference_cycles(tmp_path):
    was_enabled = gc.isenabled()
    gc.disable()  # so that no pass frees a cycle before the count below
    try:
        gc.collect()
        corpus, cohort, links = build_corpus(SMALL_COHORT)
        link_accuracy(links, cohort.truth, cohort.newborns, cohort.vocab)
        corpus.vocab.save(tmp_path / "vocabulary.txt")
        save_examples(corpus.d_star, tmp_path / "d_star.jsonl", corpus.vocab)
        save_examples(corpus.d_tilde, tmp_path / "d_tilde.jsonl", corpus.vocab)
        reloaded = Corpus.from_files(
            tmp_path / "d_star.jsonl", tmp_path / "d_tilde.jsonl", tmp_path / "vocabulary.txt", SMALL_COHORT
        )
        assert reloaded.d_star == corpus.d_star
        del corpus, cohort, links, reloaded
        assert gc.collect() == 0
    finally:
        if was_enabled:
            gc.enable()


# --- the canonical code tuple -------------------------------------------------


def test_generated_and_pickled_records_keep_canonical_codes():
    corpus, cohort, _ = build_corpus(SMALL_COHORT)
    for record in (*cohort.mothers, *cohort.newborns):
        for visit in record.visits:
            assert type(visit.codes) is tuple
            assert all(a < b for a, b in zip(visit.codes, visit.codes[1:])), record.patient_id
    # Pool workers of a repeated benchmark receive the corpus pickled.
    again = pickle.loads(pickle.dumps(corpus))
    assert (again.d_star, again.d_tilde, again.d_prime) == (corpus.d_star, corpus.d_tilde, corpus.d_prime)
    assert _corpus_digest(again) == _corpus_digest(corpus)
