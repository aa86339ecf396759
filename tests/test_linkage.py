import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pretermalc.linkage import (
    MAX_L1_MINUTES,
    MAX_PER_MOTHER,
    LinkSet,
    LinkageError,
    MatchCandidate,
    derive_noisy_labels,
    link_accuracy,
    load_links,
    match_newborns,
    save_links,
)
from pretermalc.records import (
    CodeVocabulary,
    Label,
    PatientRecord,
    Role,
    Visit,
    classify_newborn,
)
from pretermalc.synth import GroundTruth, build_datasets

VOCAB = CodeVocabulary(["650", "644.21", "765.29", "765.21", "V30.00"])
MIN_DAY = 1440


def mother_at(t_adm, t_dis, mother_id, hospital="h00", with_delivery=True):
    day = t_adm // MIN_DAY
    visits = (Visit(day=day, codes=frozenset({VOCAB.index_of("650")}), t_adm=t_adm, t_dis=t_dis),)
    return PatientRecord(
        patient_id=mother_id, hospital_id=hospital, role=Role.MOTHER,
        visits=visits, delivery_day=day if with_delivery else None,
    )


def newborn_at(t_adm, t_dis, newborn_id, hospital="h00", code="765.29"):
    day = t_adm // MIN_DAY
    visits = (Visit(day=day, codes=frozenset({VOCAB.index_of(code)}), t_adm=t_adm, t_dis=t_dis),)
    return PatientRecord(
        patient_id=newborn_id, hospital_id=hospital, role=Role.NEWBORN,
        visits=visits, delivery_day=day,
    )


def oracle_match(mothers, newborns, vocab):
    """All-pairs reference: identical nearest/threshold/cap rules, no index.
    A link spans at most a day; a mother keeps at most three newborns."""
    eligible = [
        m for m in mothers
        if m.role is Role.MOTHER and m.delivery_day is not None
        and m.delivery_visit is not None
    ]
    candidates = []
    for baby in newborns:
        if baby.role is not Role.NEWBORN:
            continue
        if classify_newborn({vocab.code(i) for i in baby.visits[0].codes}) is None:
            continue
        bv = baby.visits[0]
        best = None
        for m in eligible:
            if m.hospital_id != baby.hospital_id:
                continue
            mv = m.delivery_visit
            l1 = abs(mv.t_adm - bv.t_adm) + abs(mv.t_dis - bv.t_dis)
            if best is None or (l1, m.patient_id) < best:
                best = (l1, m.patient_id)
        if best is not None and best[0] <= 1440:
            candidates.append(MatchCandidate(baby.patient_id, best[1], best[0]))
    per_mother = {}
    for c in candidates:
        per_mother.setdefault(c.mother_id, []).append(c)
    kept = []
    for group in per_mother.values():
        group.sort(key=lambda c: (c.l1_minutes, c.newborn_id))
        kept.extend(group[:3])
    kept.sort(key=lambda c: c.newborn_id)
    return LinkSet(links=tuple(kept))


def random_instance(rng):
    """Small multi-hospital instance with deliberate time collisions."""
    mothers, newborns = [], []
    for h in range(int(rng.integers(1, 4))):
        hospital = f"h{h:02d}"
        for i in range(int(rng.integers(0, 9))):
            t_adm = int(rng.integers(2, 40)) * 720
            t_dis = t_adm + int(rng.integers(1, 6)) * 720
            mothers.append(
                mother_at(t_adm, t_dis, f"m{h}x{i}", hospital,
                          with_delivery=rng.random() > 0.1)
            )
        for b in range(int(rng.integers(0, 7))):
            t_adm = int(rng.integers(2, 40)) * 720 + int(rng.integers(0, 3)) * 360
            t_dis = t_adm + int(rng.integers(1, 6)) * 720
            code = ("765.29", "765.21", "V30.00")[int(rng.integers(0, 3))]
            newborns.append(newborn_at(t_adm, t_dis, f"n{h}x{b}", hospital, code))
    return mothers, newborns


# --- worked geometry -----------------------------------------------------------


def test_nearest_mother_wins():
    mothers = [mother_at(10_000, 12_000, "m0"), mother_at(20_000, 22_000, "m1")]
    baby = newborn_at(19_800, 22_100, "n0")
    links = match_newborns(mothers, [baby], VOCAB)
    assert links.as_map() == {"n0": "m1"}
    assert links.links[0].l1_minutes == 300


def test_tie_breaks_to_smaller_mother_id():
    mothers = [mother_at(10_000, 12_000, "m1"), mother_at(10_000, 12_000, "m0")]
    baby = newborn_at(10_100, 12_100, "n0")
    links = match_newborns(mothers, [baby], VOCAB)
    assert links.as_map() == {"n0": "m0"}


def test_symmetric_tie_across_the_baby():
    # equal L1 from both sides: |dt_adm|+|dt_dis| = 400 each way
    mothers = [mother_at(10_000, 12_000, "mA"), mother_at(10_400, 12_400, "mB")]
    baby = newborn_at(10_200, 12_200, "n0")
    links = match_newborns(mothers, [baby], VOCAB)
    assert links.as_map() == {"n0": "mA"}


def test_threshold_unmatches_far_newborn():
    mothers = [mother_at(10_000, 12_000, "m0")]
    near = newborn_at(10_060, 12_060, "n0")
    far = newborn_at(50_000, 52_000, "n1")
    links = match_newborns(mothers, [near, far], VOCAB)
    assert links.as_map() == {"n0": "m0"}


def test_cap_keeps_three_nearest_without_reassignment():
    mothers = [mother_at(10_000, 12_000, "m0"), mother_at(11_500, 13_500, "m1")]
    babies = [
        newborn_at(10_000 + 10 * (k + 1), 12_000 + 10 * (k + 1), f"n{k}")
        for k in range(4)
    ]
    links = match_newborns(mothers, babies, VOCAB)
    # all four prefer m0; the farthest is dropped, not pushed onto m1
    assert links.as_map() == {"n0": "m0", "n1": "m0", "n2": "m0"}


def test_threshold_applies_before_cap():
    # 2 close babies, 2 beyond threshold: the far ones must not consume capacity
    mothers = [mother_at(10_000, 12_000, "m0")]
    babies = [
        newborn_at(10_010, 12_010, "n0"),
        newborn_at(10_020, 12_020, "n1"),
        newborn_at(13_000, 15_000, "n2"),
        newborn_at(13_100, 15_100, "n3"),
    ]
    links = match_newborns(mothers, babies, VOCAB)
    assert links.as_map() == {"n0": "m0", "n1": "m0"}


def test_a_triage_visit_on_the_delivery_day_is_part_of_the_delivery_encounter():
    """The 08:00-09:00 triage visit alone is 3,080 minutes from the newborn
    in L1; the delivery encounter it opens is 140."""
    vocab = CodeVocabulary(["650", "765.29", "V22.0"])
    day = 400
    t0 = day * MIN_DAY
    prenatal = [Visit(d, {2}, d * MIN_DAY + 60, d * MIN_DAY + 120) for d in (100, 200)]
    mother = PatientRecord("m0", "h00", Role.MOTHER, visits=(
        *prenatal,
        Visit(day, {2}, t0 + 8 * 60, t0 + 9 * 60),
        Visit(day, {0}, t0 + 10 * 60, t0 + 10 * 60 + 2 * MIN_DAY),
    ), delivery_day=day)
    newborn = PatientRecord("n0", "h00", Role.NEWBORN, visits=(
        Visit(day, {1}, t0 + 10 * 60 + 20, t0 + 10 * 60 + 2 * MIN_DAY),
    ), delivery_day=day)
    links = match_newborns([mother], [newborn], vocab)
    assert list(links) == [MatchCandidate("n0", "m0", 140)]
    _, _, d_prime = build_datasets([mother], [newborn], links, vocab)
    assert [(ex.patient_id, ex.clean_label, ex.noisy_label) for ex in d_prime] == [
        ("m0", Label.FULL_TERM, Label.FULL_TERM)
    ]


@pytest.mark.parametrize("delivery_day", [None, 450], ids=["no_delivery_day", "no_visit_on_it"])
def test_a_mother_without_a_delivery_visit_is_neither_linked_nor_labeled(delivery_day):
    """Mother m1's coded visit on day 400 sits 20 minutes from newborn n1,
    but it is not on her delivery day, so linkage and the dataset builder
    both pass it over. Mother m0, in another hospital, has her delivery
    visit on day 400 and is linked and labeled."""
    vocab = CodeVocabulary(["650", "765.29", "V22.0"])
    t0 = 400 * MIN_DAY
    visits = (
        *(Visit(d, {2}, d * MIN_DAY + 60, d * MIN_DAY + 120) for d in (100, 200)),
        Visit(400, {0}, t0 + 600, t0 + 600 + 2 * MIN_DAY),
    )
    m0 = PatientRecord("m0", "h00", Role.MOTHER, visits=visits, delivery_day=400)
    m1 = PatientRecord("m1", "h01", Role.MOTHER, visits=visits, delivery_day=delivery_day)
    n0, n1 = (
        PatientRecord(f"n{h}", f"h0{h}", Role.NEWBORN, visits=(Visit(400, {1}, t0 + 620, t0 + 600 + 2 * MIN_DAY),))
        for h in (0, 1)
    )
    assert m0.delivery_visit is visits[-1]
    assert m1.delivery_visit is None
    links = match_newborns([m0, m1], [n0, n1], vocab)
    assert list(links) == [MatchCandidate("n0", "m0", 20)]
    # A link to m1 from elsewhere gives her a noisy label, never a clean one.
    given_links = LinkSet([*links, MatchCandidate("n1", "m1", 20)])
    d_star, d_tilde, _ = build_datasets([m0, m1], [n0, n1], given_links, vocab)
    assert [(ex.patient_id, ex.clean_label) for ex in d_star] == [("m0", Label.FULL_TERM)]
    # Without a delivery day she has no prediction cutoff either, so no example.
    noisy_m1 = [] if delivery_day is None else [("m1", None, Label.FULL_TERM)]
    assert [(ex.patient_id, ex.clean_label, ex.noisy_label) for ex in d_tilde] == [
        ("m0", Label.FULL_TERM, Label.FULL_TERM), *noisy_m1
    ]


def test_unclassifiable_newborns_ignored():
    mothers = [mother_at(10_000, 12_000, "m0")]
    babies = [newborn_at(10_010, 12_010, "n0", code="V30.00")]
    assert len(match_newborns(mothers, babies, VOCAB)) == 0


# --- the one-day window ------------------------------------------------------------


def test_a_link_of_exactly_the_threshold_is_kept():
    mothers = [mother_at(10_000, 12_000, "m0")]
    links = match_newborns(mothers, [newborn_at(10_720, 12_720, "n0")], VOCAB)
    assert list(links) == [MatchCandidate("n0", "m0", MAX_L1_MINUTES)]


def test_a_link_one_minute_over_the_threshold_stays_unmatched():
    mothers = [mother_at(10_000, 12_000, "m0")]
    assert len(match_newborns(mothers, [newborn_at(10_720, 12_721, "n0")], VOCAB)) == 0


@pytest.mark.parametrize("side", [-1, 1])
def test_a_mother_admitted_exactly_a_day_away_with_the_same_discharge_is_kept(side):
    b_adm = 20_000
    mothers = [mother_at(b_adm + side * MAX_L1_MINUTES, 23_000, "m0")]
    links = match_newborns(mothers, [newborn_at(b_adm, 23_000, "n0")], VOCAB)
    assert list(links) == [MatchCandidate("n0", "m0", MAX_L1_MINUTES)]


def test_the_nearest_by_admission_can_lose_on_l1_inside_the_window():
    # mA is 10 minutes away by admission but 600 in L1; mB is 290 in L1
    mothers = [mother_at(10_000, 12_600, "mA"), mother_at(10_300, 12_010, "mB")]
    links = match_newborns(mothers, [newborn_at(10_010, 12_010, "n0")], VOCAB)
    assert list(links) == [MatchCandidate("n0", "mB", 290)]


def test_an_equal_l1_tie_across_the_insertion_point_at_the_window_edges():
    # mB and mA sit on the two edges of the window at L1 = MAX_L1_MINUTES;
    # m0 and m1 sit one minute outside it, and m0 has the smallest id
    b_adm, b_dis = 20_000, 23_000
    mothers = [
        mother_at(b_adm - MAX_L1_MINUTES - 1, b_dis, "m0"),
        mother_at(b_adm - MAX_L1_MINUTES, b_dis, "mB"),
        mother_at(b_adm + MAX_L1_MINUTES, b_dis, "mA"),
        mother_at(b_adm + MAX_L1_MINUTES + 1, b_dis, "m1"),
    ]
    links = match_newborns(mothers, [newborn_at(b_adm, b_dis, "n0")], VOCAB)
    assert list(links) == [MatchCandidate("n0", "mA", MAX_L1_MINUTES)]


def test_a_hospital_without_an_eligible_mother_links_none_of_its_newborns():
    mothers = [
        mother_at(10_000, 12_000, "m0", hospital="h00"),
        mother_at(10_000, 12_000, "m1", hospital="h01", with_delivery=False),
    ]
    babies = [
        newborn_at(10_010, 12_010, "n0", hospital="h00"),
        newborn_at(10_010, 12_010, "n1", hospital="h01"),
        newborn_at(10_010, 12_010, "n2", hospital="h02"),
    ]
    assert match_newborns(mothers, babies, VOCAB).as_map() == {"n0": "m0"}


# --- oracle equivalence and determinism -------------------------------------------


def test_oracle_equivalence_random_instances():
    rng = np.random.default_rng(202)
    for _ in range(250):
        mothers, newborns = random_instance(rng)
        fast = match_newborns(mothers, newborns, VOCAB)
        slow = oracle_match(mothers, newborns, VOCAB)
        assert fast == slow


# Offsets from a newborn-scale centre, in minutes: the edges of the window and
# the minutes either side of them come up often, so do exact ties.
EDGE_OFFSETS = st.one_of(
    st.sampled_from([-MAX_L1_MINUTES - 1, -MAX_L1_MINUTES, -1, 0, 1, MAX_L1_MINUTES, MAX_L1_MINUTES + 1]),
    st.integers(-MAX_L1_MINUTES - 2, MAX_L1_MINUTES + 2),
)
# Discharges centre three days after admissions, so none precedes its admission.
ADM_CENTRE, DIS_CENTRE = 100 * MIN_DAY, 100 * MIN_DAY + 3 * MAX_L1_MINUTES


@st.composite
def dense_instances(draw):
    """Up to three hospitals whose mothers and newborns are all admitted and
    discharged within about a day of two shared centres, at minute
    resolution, so links fall on both sides of MAX_L1_MINUTES."""
    mothers, newborns = [], []
    for h in range(draw(st.integers(1, 3))):
        hospital = f"h{h:02d}"
        for i in range(draw(st.integers(0, 8))):
            t_adm, t_dis = ADM_CENTRE + draw(EDGE_OFFSETS), DIS_CENTRE + draw(EDGE_OFFSETS)
            mothers.append(mother_at(t_adm, t_dis, f"m{h}x{i}", hospital, with_delivery=draw(st.booleans())))
        for b in range(draw(st.integers(0, 8))):
            t_adm, t_dis = ADM_CENTRE + draw(EDGE_OFFSETS), DIS_CENTRE + draw(EDGE_OFFSETS)
            code = draw(st.sampled_from(["765.29", "765.21", "V30.00"]))
            newborns.append(newborn_at(t_adm, t_dis, f"n{h}x{b}", hospital, code))
    return mothers, newborns


@settings(max_examples=300, deadline=None)
@given(dense_instances())
def test_oracle_equivalence_on_dense_minute_resolution_instances(instance):
    mothers, newborns = instance
    assert match_newborns(mothers, newborns, VOCAB) == oracle_match(mothers, newborns, VOCAB)


def test_input_permutation_invariance():
    rng = np.random.default_rng(7)
    mothers, newborns = random_instance(rng)
    base = match_newborns(mothers, newborns, VOCAB)
    for seed in range(5):
        perm = np.random.default_rng(seed)
        m2 = list(mothers)
        n2 = list(newborns)
        perm.shuffle(m2)
        perm.shuffle(n2)
        assert match_newborns(m2, n2, VOCAB) == base


def test_hospital_isolation():
    rng = np.random.default_rng(13)
    mothers, newborns = random_instance(rng)
    links = match_newborns(mothers, newborns, VOCAB)
    h0_links = {l.newborn_id: l for l in links if l.newborn_id.startswith("n0")}
    only_h0_m = [m for m in mothers if m.hospital_id == "h00"]
    only_h0_n = [b for b in newborns if b.hospital_id == "h00"]
    again = match_newborns(only_h0_m, only_h0_n, VOCAB)
    assert {l.newborn_id: l for l in again} == h0_links


def test_capacity_and_feasibility_invariants():
    rng = np.random.default_rng(31)
    for _ in range(50):
        mothers, newborns = random_instance(rng)
        links = match_newborns(mothers, newborns, VOCAB)
        counts = {}
        for l in links:
            counts[l.mother_id] = counts.get(l.mother_id, 0) + 1
            assert l.l1_minutes <= MAX_L1_MINUTES == 24 * 60
        assert all(v <= MAX_PER_MOTHER == 3 for v in counts.values())
        assert links == oracle_match(mothers, newborns, VOCAB)


# --- noisy labels and accuracy ------------------------------------------------------


def link_set(pairs):
    """LinkSet of (newborn id, mother id) pairs, in the order given."""
    return LinkSet([MatchCandidate(newborn_id, mother_id, 0) for newborn_id, mother_id in pairs])


def test_derive_noisy_labels_single_fullterm():
    baby = newborn_at(10_000, 12_000, "n0", code="765.29")
    labels = derive_noisy_labels(link_set([("n0", "m0")]), [baby], VOCAB)
    assert labels == {"m0": Label.FULL_TERM}


def test_derive_noisy_labels_any_preterm_wins():
    babies = [
        newborn_at(10_000, 12_000, "n0", code="765.29"),
        newborn_at(10_100, 12_100, "n1", code="765.21"),
    ]
    labels = derive_noisy_labels(link_set([("n0", "m0"), ("n1", "m0")]), babies, VOCAB)
    assert labels == {"m0": Label.PRETERM}
    # order of links must not matter
    labels2 = derive_noisy_labels(link_set([("n1", "m0"), ("n0", "m0")]), babies, VOCAB)
    assert labels2 == labels


def test_derive_noisy_labels_rejects_unknown_baby():
    baby = newborn_at(10_000, 12_000, "n0", code="V30.00")
    with pytest.raises(LinkageError, match="classifiable"):
        derive_noisy_labels(link_set([("n0", "m0")]), [baby], VOCAB)


def test_derive_noisy_labels_rejects_missing_baby():
    with pytest.raises(LinkageError, match="not present"):
        derive_noisy_labels(link_set([("n0", "m0")]), [], VOCAB)


def test_link_accuracy_perfect():
    mothers = [mother_at(10_000, 12_000, "m0"), mother_at(30_000, 32_000, "m1")]
    babies = [
        newborn_at(10_050, 12_050, "n0", code="765.29"),
        newborn_at(30_050, 32_050, "n1", code="765.21"),
    ]
    links = match_newborns(mothers, babies, VOCAB)
    truth = GroundTruth(
        links={"n0": "m0", "n1": "m1"},
        labels={"m0": Label.FULL_TERM, "m1": Label.PRETERM},
    )
    assert link_accuracy(links, truth, babies, VOCAB) == (1.0, 1.0)


def test_link_accuracy_wrong_pairs_right_labels():
    # both mothers full-term; swapped links keep every label correct
    babies = [
        newborn_at(10_000, 12_000, "n0", code="765.29"),
        newborn_at(10_100, 12_100, "n1", code="765.29"),
    ]
    links = LinkSet(links=(
        MatchCandidate("n0", "m1", 10),
        MatchCandidate("n1", "m0", 10),
    ))
    truth = GroundTruth(
        links={"n0": "m0", "n1": "m1"},
        labels={"m0": Label.FULL_TERM, "m1": Label.FULL_TERM},
    )
    pair_acc, label_acc = link_accuracy(links, truth, babies, VOCAB)
    assert pair_acc == 0.0
    assert label_acc == 1.0


def test_link_accuracy_rejects_empty():
    truth = GroundTruth(links={}, labels={})
    with pytest.raises(LinkageError, match="empty"):
        link_accuracy(LinkSet(links=()), truth, [], VOCAB)


# --- persistence ---------------------------------------------------------------------


def test_links_file_round_trip(tmp_path):
    rng = np.random.default_rng(99)
    mothers, newborns = random_instance(rng)
    links = match_newborns(mothers, newborns, VOCAB)
    path = tmp_path / "links.tsv"
    save_links(links, path)
    assert load_links(path) == links


def test_linkset_rejects_duplicate_newborn():
    with pytest.raises(ValueError, match="linked more than once"):
        LinkSet(links=(
            MatchCandidate("n0", "m0", 5),
            MatchCandidate("n0", "m1", 7),
        ))
