import hashlib
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pretermalc import synth
from pretermalc.linkage import LinkageError, LinkSet, link_accuracy, match_newborns
from pretermalc.noise import estimate_corruption_matrix
from pretermalc.records import (
    Label,
    Role,
    classify_delivery,
    classify_newborn,
    save_records,
)
from pretermalc.synth import (
    PREDICTION_PERIOD_DAYS,
    VOCAB_SIZE,
    ClericalNoiseModel,
    ConfigError,
    DatasetError,
    GroundTruth,
    SynthConfig,
    build_datasets,
    build_vocabulary,
    generate_cohort,
    load_truth,
    save_truth,
)

SMALL = SynthConfig(n_mothers=300, n_hospitals=3, seed=5)


@pytest.fixture(scope="module")
def small_cohort():
    return generate_cohort(SMALL)


# --- config validation ----------------------------------------------------------


def test_config_errors_name_fields():
    with pytest.raises(ConfigError, match="n_mothers"):
        SynthConfig(n_mothers=0)
    with pytest.raises(ConfigError, match="missing_newborn_rate"):
        ClericalNoiseModel(missing_newborn_rate=-0.1)
    with pytest.raises(ConfigError, match="time_jitter_sd"):
        ClericalNoiseModel(time_jitter_sd=-1.0)
    for sd in (float("nan"), float("inf")):
        with pytest.raises(ConfigError, match=f"time_jitter_sd must be >= 0 and finite, got {sd}"):
            ClericalNoiseModel(time_jitter_sd=sd)
    ClericalNoiseModel(time_jitter_sd=777_600)
    for sd in (777_600.5, 1e308):
        message = rf"time_jitter_sd must be at most 777600 \(.*\), got {re.escape(str(sd))}$"
        with pytest.raises(ConfigError, match=message):
            ClericalNoiseModel(time_jitter_sd=sd)
    with pytest.raises(ConfigError, match="seed must be >= 0, got -1"):
        SynthConfig(seed=-1)
    with pytest.raises(ConfigError, match="clean_code_rate"):
        SynthConfig(clean_code_rate=0.2, newborn_coded_rate=0.3)
    # The largest hospital takes ceil(n_mothers / n_hospitals) of the 777,600 delivery minutes.
    SynthConfig(n_mothers=3 * 777_600, n_hospitals=3)
    with pytest.raises(ConfigError, match=r"n_mothers must be at most 777600 per hospital .* got 2332801 over 3"):
        SynthConfig(n_mothers=3 * 777_600 + 1, n_hospitals=3)


def test_vocabulary_contains_rule_codes():
    vocab = build_vocabulary()
    assert len(vocab) == VOCAB_SIZE
    for code in ("650", "644.21", "765.29", "765.21", "V30.00"):
        assert code in vocab


# --- determinism -------------------------------------------------------------------


def test_generation_is_byte_deterministic(tmp_path, small_cohort):
    again = generate_cohort(SMALL)
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    save_records(small_cohort.mothers, a, small_cohort.vocab)
    save_records(again.mothers, b, again.vocab)
    assert a.read_bytes() == b.read_bytes()
    save_records(small_cohort.newborns, a, small_cohort.vocab)
    save_records(again.newborns, b, again.vocab)
    assert a.read_bytes() == b.read_bytes()
    assert small_cohort.truth == again.truth


# sha256 of the mothers file, the newborns file and the truth file written
# for each config. A change to the generator that moves any record, code,
# timestamp or link changes a digest.
PINNED_COHORTS = {
    "default": (
        SynthConfig(),
        (
            "1810a6656fee4a3cf566165d6df037b6cc5fe99f0c61515b2696bae6c4abe629",
            "f7b89daf6b10b8d56922636a5d19c0f426b3a14da06098e337543838ddebe199",
            "b34a96da34f7282a79de68f8d65d75fe5108e4a9e60bd6adcb33de0d03ebcaaf",
        ),
    ),
    "two_hospitals": (
        SynthConfig(seed=3, n_mothers=500, n_hospitals=2),
        (
            "db155440ce375adbf1cb4b5c1bbf4720046008a47631b95d837c69c0a58b1c30",
            "f66309c5b297745e006c92b6bc195cbf6adafd9f6c39816f01768d12cdb54165",
            "182b367f3dd0981182c548947344a484aad45bc746e7f5c687c9fbf50355b1a8",
        ),
    ),
    "no_clerical_noise": (
        SynthConfig(seed=11, clerical_noise=ClericalNoiseModel.none()),
        (
            "8982e05e459b02cdee5b5fccfb5189b8140d35372111cc9bcd7367bccdf441dd",
            "06e4b0583bd6e50c564d854348b9905cb28d48e0cd703c3f8268b70e9adbdd1b",
            "a654caff4b24709624a63a1a998a14c3b111e52d697bfac07af80d6c009d38e3",
        ),
    ),
    # Half the newborn labels flip, a rate noise calibration evaluates.
    "misclassified_half": (
        SynthConfig(seed=5, clerical_noise=ClericalNoiseModel(misclassified_newborn_rate=0.5)),
        (
            "062ad39e0ba372c7592f1b9c7262f3d1c16ad752952c8929c10919b07a9170ab",
            "f55c838b297ca6f6ae6fdf6b694b0fa20d26fb7114a90b9f0f0a853e0533a886",
            "99faf1ab3e8ebaa003e3861118398a765a05f2da45d334475c77a341b2c7f535",
        ),
    ),
}


@pytest.mark.parametrize("name", PINNED_COHORTS)
def test_generated_files_match_pinned_digests(tmp_path, name):
    config, expected = PINNED_COHORTS[name]
    cohort = generate_cohort(config)
    paths = [tmp_path / f for f in ("mothers.jsonl", "newborns.jsonl", "truth.tsv")]
    save_records(cohort.mothers, paths[0], cohort.vocab)
    save_records(cohort.newborns, paths[1], cohort.vocab)
    save_truth(cohort.truth, paths[2])
    assert tuple(hashlib.sha256(p.read_bytes()).hexdigest() for p in paths) == expected


noise_models = st.builds(
    ClericalNoiseModel,
    time_jitter_sd=st.floats(0.0, 2880.0),
    missing_newborn_rate=st.floats(0.0, 1.0),
    swap_window_minutes=st.integers(0, 1440),
    misclassified_newborn_rate=st.floats(0.0, 1.0),
)


def assert_is_the_full_cohort_without_prenatal_visits(calibration, full):
    assert calibration.newborns == full.newborns
    assert calibration.truth == full.truth
    for mother, whole in zip(calibration.mothers, full.mothers, strict=True):
        assert (mother.patient_id, mother.hospital_id, mother.delivery_day) == (
            whole.patient_id, whole.hospital_id, whole.delivery_day
        )
        assert mother.visits == (whole.delivery_visit,)
    assert match_newborns(calibration.mothers, calibration.newborns, calibration.vocab) == match_newborns(
        full.mothers, full.newborns, full.vocab
    )


@settings(max_examples=25, deadline=None)
@given(noise=noise_models, seed=st.integers(0, 2**32 - 1))
def test_a_calibration_cohort_is_the_full_cohort_without_prenatal_visits(noise, seed):
    config = SynthConfig(n_mothers=400, n_hospitals=2, seed=seed, clerical_noise=noise)
    calibration = generate_cohort(config, prenatal_visits=False)
    assert_is_the_full_cohort_without_prenatal_visits(calibration, generate_cohort(config))


@settings(max_examples=25, deadline=None)
@given(noise=noise_models, other=noise_models, seed=st.integers(0, 2**32 - 1))
def test_a_calibration_cohort_from_kept_draws_is_the_cold_one(noise, other, seed):
    config = SynthConfig(n_mothers=400, n_hospitals=2, seed=seed, clerical_noise=other)
    first = replace(noise, swap_window_minutes=other.swap_window_minutes)
    generate_cohort(replace(config, clerical_noise=first), prenatal_visits=False)
    hits = synth._delivery_draws.cache_info().hits
    warm = generate_cohort(config, prenatal_visits=False)
    assert synth._delivery_draws.cache_info().hits == hits + 1
    synth._delivery_draws.cache_clear()
    assert warm == generate_cohort(config, prenatal_visits=False)
    assert_is_the_full_cohort_without_prenatal_visits(warm, generate_cohort(config))


def test_every_setting_that_moves_the_draws_keys_them():
    base = SynthConfig(n_mothers=40, n_hospitals=2, seed=4)
    synth._delivery_draws.cache_clear()
    generate_cohort(base, prenatal_visits=False)
    info = synth._delivery_draws.cache_info
    for changed in (
        replace(base, seed=5),
        replace(base, n_mothers=41),
        replace(base, n_hospitals=3),
        replace(base, clerical_noise=ClericalNoiseModel(swap_window_minutes=0)),
        replace(base, clean_code_rate=0.6),
        replace(base, newborn_coded_rate=0.6),
    ):
        misses = info().misses
        generate_cohort(changed, prenatal_visits=False)
        assert info().misses == misses + 1, changed
    hits = info().hits
    generate_cohort(replace(base, clerical_noise=ClericalNoiseModel(0.0, 0.5, 360, 0.5)), prenatal_visits=False)
    assert info().hits == hits + 1


def test_kept_draws_refuse_a_write():
    for draws in synth._delivery_draws(SynthConfig(n_mothers=40, n_hospitals=2, seed=4)):
        for name, array in draws._asdict().items():
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0
            assert array.size, name


def test_the_draw_cache_keeps_its_bound():
    synth._delivery_draws.cache_clear()
    bound = synth._delivery_draws.cache_info().maxsize
    for seed in range(bound + 2):
        generate_cohort(SynthConfig(n_mothers=10, n_hospitals=1, seed=seed), prenatal_visits=False)
    assert synth._delivery_draws.cache_info().currsize == bound


def test_different_seeds_differ():
    other = generate_cohort(SynthConfig(n_mothers=300, n_hospitals=3, seed=6))
    base = generate_cohort(SMALL)
    assert base.mothers != other.mothers


# --- structural postconditions -------------------------------------------------------


def test_cohort_shapes(small_cohort):
    assert len(small_cohort.mothers) == SMALL.n_mothers
    hospitals = {m.hospital_id for m in small_cohort.mothers}
    assert len(hospitals) == SMALL.n_hospitals
    mother_ids = {m.patient_id for m in small_cohort.mothers}
    newborn_ids = {b.patient_id for b in small_cohort.newborns}
    assert not mother_ids & newborn_ids
    assert all(b.role is Role.NEWBORN and len(b.visits) == 1 for b in small_cohort.newborns)
    assert all(m.role is Role.MOTHER and m.delivery_day is not None for m in small_cohort.mothers)


def test_truth_covers_cohort(small_cohort):
    truth = small_cohort.truth
    mother_ids = {m.patient_id for m in small_cohort.mothers}
    assert set(truth.labels) == mother_ids
    newborn_ids = {b.patient_id for b in small_cohort.newborns}
    assert set(truth.links) == newborn_ids
    assert set(truth.links.values()) <= mother_ids


def test_multiple_gestations_exist_and_capped(small_cohort):
    per_mother = {}
    for mother_id in small_cohort.truth.links.values():
        per_mother[mother_id] = per_mother.get(mother_id, 0) + 1
    assert max(per_mother.values()) <= 3
    # twins occur at the configured rate; 300 mothers make >= 1 overwhelmingly likely
    assert any(v >= 2 for v in per_mother.values())


def test_prevalence_matches_default_rate():
    cohort = generate_cohort(SynthConfig(seed=3))
    frac = sum(
        1 for v in cohort.truth.labels.values() if v is Label.PRETERM
    ) / len(cohort.truth.labels)
    assert abs(frac - 0.3) < 0.02


def test_preterm_mothers_have_preterm_codes_when_coded(small_cohort):
    vocab = small_cohort.vocab
    checked = 0
    for m in small_cohort.mothers:
        visit = m.delivery_visit
        label = classify_delivery({vocab.code(i) for i in visit.codes})
        if label is None:
            continue
        assert label is small_cohort.truth.labels[m.patient_id]
        checked += 1
    assert checked > 0


# --- noiseless end-to-end -------------------------------------------------------------


def test_zero_noise_recovers_all_links_exactly():
    cfg = SynthConfig(n_mothers=300, n_hospitals=3, seed=5,
                      clerical_noise=ClericalNoiseModel.none())
    cohort = generate_cohort(cfg)
    by_id = {m.patient_id: m for m in cohort.mothers}
    for baby in cohort.newborns:
        mother = by_id[cohort.truth.links[baby.patient_id]]
        mv = mother.delivery_visit
        assert baby.visits[0].t_adm == mv.t_adm
        assert baby.visits[0].t_dis == mv.t_dis
    links = match_newborns(cohort.mothers, cohort.newborns, cohort.vocab)
    pair_acc, label_acc = link_accuracy(links, cohort.truth, cohort.newborns, cohort.vocab)
    assert pair_acc == 1.0
    assert label_acc == 1.0


def test_zero_noise_dual_examples_give_identity_matrix():
    cfg = SynthConfig(n_mothers=400, n_hospitals=2, seed=9,
                      clerical_noise=ClericalNoiseModel.none())
    cohort = generate_cohort(cfg)
    links = match_newborns(cohort.mothers, cohort.newborns, cohort.vocab)
    _, _, d_prime = build_datasets(cohort.mothers, cohort.newborns, links, cohort.vocab)
    c = estimate_corruption_matrix(d_prime)
    assert np.array_equal(c.entries, np.eye(2))


def test_misclassification_rate_degrades_label_accuracy():
    accs = []
    for rate in (0.0, 0.35):
        cfg = SynthConfig(
            n_mothers=400, n_hospitals=2, seed=21,
            clerical_noise=ClericalNoiseModel(misclassified_newborn_rate=rate),
        )
        cohort = generate_cohort(cfg)
        links = match_newborns(cohort.mothers, cohort.newborns, cohort.vocab)
        accs.append(link_accuracy(links, cohort.truth, cohort.newborns, cohort.vocab)[1])
    assert accs[1] < accs[0] - 0.15


# --- dataset assembly -------------------------------------------------------------------


def test_build_datasets_membership(small_cohort):
    links = match_newborns(small_cohort.mothers, small_cohort.newborns, small_cohort.vocab)
    d_star, d_tilde, d_prime = build_datasets(
        small_cohort.mothers, small_cohort.newborns, links, small_cohort.vocab
    )
    star_ids = {ex.patient_id for ex in d_star}
    tilde_ids = {ex.patient_id for ex in d_tilde}
    assert {ex.patient_id for ex in d_prime} == star_ids & tilde_ids
    assert all(ex.clean_label is not None for ex in d_star)
    assert all(ex.noisy_label is not None for ex in d_tilde)
    assert all(ex.clean_label is not None and ex.noisy_label is not None for ex in d_prime)
    # overlap members are the same objects on the clean and noisy sides
    star_by_id = {ex.patient_id: ex for ex in d_star}
    tilde_by_id = {ex.patient_id: ex for ex in d_tilde}
    for ex in d_prime:
        assert star_by_id[ex.patient_id] is ex
        assert tilde_by_id[ex.patient_id] is ex


def test_build_datasets_respects_min_visits_and_truncation(small_cohort):
    links = match_newborns(small_cohort.mothers, small_cohort.newborns, small_cohort.vocab)
    d_star, d_tilde, _ = build_datasets(
        small_cohort.mothers, small_cohort.newborns, links, small_cohort.vocab
    )
    for ex in list(d_star) + list(d_tilde):
        assert len(ex.record.visits) >= 2
        cutoff = ex.record.delivery_day - PREDICTION_PERIOD_DAYS
        assert all(v.day <= cutoff for v in ex.record.visits)


def test_build_datasets_noisy_label_matches_linked_baby(small_cohort):
    vocab = small_cohort.vocab
    links = match_newborns(small_cohort.mothers, small_cohort.newborns, vocab)
    _, d_tilde, _ = build_datasets(small_cohort.mothers, small_cohort.newborns, links, vocab)
    babies_by_id = {b.patient_id: b for b in small_cohort.newborns}
    linked_by_mother = {}
    for l in links:
        linked_by_mother.setdefault(l.mother_id, []).append(babies_by_id[l.newborn_id])
    for ex in d_tilde:
        labels = {
            classify_newborn({vocab.code(i) for i in b.visits[0].codes})
            for b in linked_by_mother[ex.patient_id]
        }
        expected = Label.PRETERM if Label.PRETERM in labels else Label.FULL_TERM
        assert ex.noisy_label is expected


def test_build_datasets_rejects_a_link_to_an_unknown_mother(small_cohort):
    first, *rest = match_newborns(small_cohort.mothers, small_cohort.newborns, small_cohort.vocab)
    links = LinkSet([replace(first, mother_id="m99x9999"), *rest])
    with pytest.raises(LinkageError, match="linked mother m99x9999 not present in records"):
        build_datasets(small_cohort.mothers, small_cohort.newborns, links, small_cohort.vocab)


def test_build_datasets_rejects_empty_overlap(small_cohort):
    with pytest.raises(DatasetError, match="dual-labeled"):
        build_datasets(small_cohort.mothers, small_cohort.newborns, LinkSet(()), small_cohort.vocab)


def test_default_scale_corpus_shape():
    cfg = SynthConfig(seed=0)
    cohort = generate_cohort(cfg)
    links = match_newborns(cohort.mothers, cohort.newborns, cohort.vocab)
    d_star, d_tilde, d_prime = build_datasets(cohort.mothers, cohort.newborns, links, cohort.vocab)
    assert 1600 <= len(d_star) <= 2600
    assert 1600 <= len(d_tilde) <= 2600
    assert len(d_prime) >= 150


# --- ground-truth persistence --------------------------------------------------------------


def test_truth_round_trip(tmp_path, small_cohort):
    path = tmp_path / "truth.tsv"
    save_truth(small_cohort.truth, path)
    again = load_truth(path)
    assert again == small_cohort.truth


def test_truth_validates_cap():
    with pytest.raises(ValueError, match="more than 3"):
        GroundTruth(
            links={f"n{i}": "m0" for i in range(4)},
            labels={"m0": Label.PRETERM},
        )
