"""Epoch schedules, optimizers, and the training loop."""

import numpy as np
import pytest

from helpers import reference_matrix
from pretermalc.net import NetDims, init_params, predict_probs, sequence_of
from pretermalc.records import Label, LabeledExample, PatientRecord, Role, Visit
from pretermalc.train import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    CLEAN,
    CORRECTED,
    MIXED,
    NOISY,
    PLAIN,
    EpochSpec,
    OptState,
    TrainConfig,
    TrainMethod,
    mixed_examples,
    optimizer_step,
    plan_epochs,
    save_loss_log,
    score_examples,
    train,
)

TINY = NetDims(vocab_size=20, d_emb=8, d_h=8)
NOISY_CORRECTED = EpochSpec(NOISY, CORRECTED)
CLEAN_PLAIN = EpochSpec(CLEAN, PLAIN)


def mk_example(rng, pid, clean=None, noisy=None, forced_code=None):
    visits = []
    for day in range(int(rng.integers(1, 4))):
        codes = set(rng.choice(20, size=int(rng.integers(1, 4)), replace=False).tolist())
        if forced_code is not None and day == 0:
            codes.add(forced_code)
        t_adm = day * 1440 + 60
        visits.append(Visit(day=day, codes=frozenset(codes), t_adm=t_adm, t_dis=t_adm + 60))
    rec = PatientRecord(patient_id=pid, hospital_id="h00", role=Role.MOTHER, visits=tuple(visits))
    return LabeledExample(rec, clean_label=clean, noisy_label=noisy)


def small_corpora(seed=0, n=24):
    """A clean-labeled set and a noisy-labeled set with learnable labels:
    code 3 marks the positive class."""
    rng = np.random.default_rng(seed)
    d_star, d_tilde = [], []
    for i in range(n):
        positive = i % 2 == 0
        label = Label.PRETERM if positive else Label.FULL_TERM
        code = 3 if positive else None
        d_star.append(mk_example(rng, f"s{i:03d}", clean=label, forced_code=code))
        d_tilde.append(mk_example(rng, f"t{i:03d}", noisy=label, forced_code=code))
    return d_star, d_tilde


# --- schedules ------------------------------------------------------------------


def test_alternating_schedule_starts_noisy_corrected():
    assert plan_epochs(TrainMethod.ALC, 4) == [NOISY_CORRECTED, CLEAN_PLAIN] * 2
    assert plan_epochs(TrainMethod.ALC, 1) == [NOISY_CORRECTED]
    assert plan_epochs(TrainMethod.ALC, 5)[-1] == NOISY_CORRECTED
    assert plan_epochs(TrainMethod.ALC, 6)[-1] == CLEAN_PLAIN


def test_sequential_schedules_split_epochs_in_half():
    assert plan_epochs(TrainMethod.GLC_NOISY_THEN_CLEAN, 10) == [NOISY_CORRECTED] * 5 + [CLEAN_PLAIN] * 5
    assert plan_epochs(TrainMethod.GLC_CLEAN_THEN_NOISY, 10) == [CLEAN_PLAIN] * 5 + [NOISY_CORRECTED] * 5
    assert plan_epochs(TrainMethod.GLC_NOISY_THEN_CLEAN, 5) == [NOISY_CORRECTED] * 3 + [CLEAN_PLAIN] * 2
    assert plan_epochs(TrainMethod.GLC_CLEAN_THEN_NOISY, 5) == [CLEAN_PLAIN] * 3 + [NOISY_CORRECTED] * 2


def test_uncorrected_schedules_use_plain_loss_throughout():
    assert plan_epochs(TrainMethod.NOLC_CLEAN, 3) == [CLEAN_PLAIN] * 3
    assert plan_epochs(TrainMethod.NOLC_NOISY, 3) == [EpochSpec(NOISY, PLAIN)] * 3
    assert plan_epochs(TrainMethod.NOLC_MIXED, 3) == [EpochSpec(MIXED, PLAIN)] * 3


@pytest.mark.parametrize("method", list(TrainMethod))
@pytest.mark.parametrize("n_epochs", [1, 2, 3, 7, 8])
def test_every_schedule_has_one_spec_per_epoch(method, n_epochs):
    plan = plan_epochs(method, n_epochs)
    assert len(plan) == n_epochs
    for spec in plan:
        if spec.loss_kind == CORRECTED:
            assert spec.dataset == NOISY


def test_schedule_rejects_invalid_requests():
    with pytest.raises(ValueError, match="n_epochs must be >= 1"):
        plan_epochs(TrainMethod.ALC, 0)
    with pytest.raises(ValueError, match="only paired with noisy"):
        EpochSpec(CLEAN, CORRECTED)
    with pytest.raises(ValueError, match="unknown dataset tag"):
        EpochSpec("validation", PLAIN)


# --- optimizers -----------------------------------------------------------------


def test_sgd_step_is_plain_scaled_descent():
    params = init_params(TINY, seed=1)
    before = params.copy()
    grads = params.zeros_like_grads()
    config = TrainConfig(optimizer="sgd", learning_rate=0.1)
    optimizer_step(params, grads, OptState.for_params(params), config)
    assert np.array_equal(params.emb, before.emb)
    for g in grads.values():
        g[...] = 1.0
    optimizer_step(params, grads, OptState.for_params(params), config)
    assert np.allclose(params.emb, before.emb - 0.1, rtol=0, atol=0)


def test_adam_matches_reference_formula():
    params = init_params(TINY, seed=2)
    reference = {name: t.copy() for name, t in params.items()}
    m = {name: np.zeros_like(t) for name, t in reference.items()}
    v = {name: np.zeros_like(t) for name, t in reference.items()}
    config = TrainConfig(optimizer="adam", learning_rate=1e-3)
    state = OptState.for_params(params)
    rng = np.random.default_rng(7)
    for step in range(1, 4):
        grads = params.zeros_like_grads()
        for g in grads.values():
            g[...] = rng.normal(size=g.shape)
        optimizer_step(params, grads, state, config)
        for name, g in grads.items():
            m[name] = ADAM_BETA1 * m[name] + (1 - ADAM_BETA1) * g
            v[name] = ADAM_BETA2 * v[name] + (1 - ADAM_BETA2) * g**2
            m_hat = m[name] / (1 - ADAM_BETA1**step)
            v_hat = v[name] / (1 - ADAM_BETA2**step)
            reference[name] = reference[name] - config.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
        for name, tensor in params.items():
            assert np.allclose(tensor, reference[name], rtol=1e-12, atol=0), (name, step)


def test_adam_first_step_size_is_bounded_by_learning_rate():
    params = init_params(TINY, seed=3)
    before = params.copy()
    rng = np.random.default_rng(8)
    grads = params.zeros_like_grads()
    for g in grads.values():
        g[...] = rng.normal(scale=100.0, size=g.shape)
    config = TrainConfig(optimizer="adam", learning_rate=1e-3)
    optimizer_step(params, grads, OptState.for_params(params), config)
    for name, tensor in params.items():
        assert np.max(np.abs(tensor - before[name])) <= config.learning_rate * 1.0001, name


def test_optimizer_rejects_non_finite_gradients():
    params = init_params(TINY, seed=4)
    grads = params.zeros_like_grads()
    grads["out_b"][0] = np.inf
    with pytest.raises(FloatingPointError, match="non-finite update for tensor out_b"):
        optimizer_step(params, grads, OptState.for_params(params), TrainConfig(optimizer="sgd"))


def test_config_validation_names_the_bad_field():
    with pytest.raises(ValueError, match="n_epochs"):
        TrainConfig(n_epochs=0)
    with pytest.raises(ValueError, match="batch_size"):
        TrainConfig(batch_size=0)
    with pytest.raises(ValueError, match="learning_rate"):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ValueError, match="optimizer"):
        TrainConfig(optimizer="lbfgs")


# --- mixed pool -----------------------------------------------------------------


def test_mixed_pool_keeps_dual_labeled_patients_once():
    rng = np.random.default_rng(0)
    shared = mk_example(rng, "both", clean=Label.PRETERM, noisy=Label.FULL_TERM)
    shared_noisy = mk_example(rng, "both", noisy=Label.FULL_TERM)
    only_clean = mk_example(rng, "c0", clean=Label.FULL_TERM)
    only_noisy = mk_example(rng, "n0", noisy=Label.PRETERM)
    mixed = mixed_examples([only_clean, shared], [shared_noisy, only_noisy])
    assert mixed == [only_clean, shared, only_noisy]


# --- training loop ----------------------------------------------------------------


def test_training_is_bit_reproducible():
    d_star, d_tilde = small_corpora()
    config = TrainConfig(method=TrainMethod.ALC, n_epochs=3, batch_size=8, seed=5)
    init = init_params(TINY, seed=10)
    first, log_a = train(init, d_star, d_tilde, reference_matrix(), config)
    second, log_b = train(init, d_star, d_tilde, reference_matrix(), config)
    for name, tensor in first.items():
        assert np.array_equal(tensor, second[name]), name
    assert log_a == log_b


def test_training_does_not_mutate_the_given_parameters():
    d_star, d_tilde = small_corpora()
    init = init_params(TINY, seed=10)
    frozen = init.copy()
    train(init, d_star, d_tilde, None, TrainConfig(method=TrainMethod.NOLC_CLEAN, n_epochs=2))
    for name, tensor in init.items():
        assert np.array_equal(tensor, frozen[name]), name


def test_shuffle_seed_changes_the_outcome():
    d_star, d_tilde = small_corpora()
    init = init_params(TINY, seed=10)
    config_a = TrainConfig(method=TrainMethod.NOLC_CLEAN, n_epochs=2, batch_size=8, seed=1)
    config_b = TrainConfig(method=TrainMethod.NOLC_CLEAN, n_epochs=2, batch_size=8, seed=2)
    a, _ = train(init, d_star, d_tilde, None, config_a)
    b, _ = train(init, d_star, d_tilde, None, config_b)
    assert any(not np.array_equal(t, b[name]) for name, t in a.items())


def test_phase_order_changes_the_outcome():
    d_star, d_tilde = small_corpora()
    init = init_params(TINY, seed=10)
    ntc, _ = train(init, d_star, d_tilde, reference_matrix(),
                   TrainConfig(method=TrainMethod.GLC_NOISY_THEN_CLEAN, n_epochs=4, batch_size=8))
    ctn, _ = train(init, d_star, d_tilde, reference_matrix(),
                   TrainConfig(method=TrainMethod.GLC_CLEAN_THEN_NOISY, n_epochs=4, batch_size=8))
    assert any(not np.array_equal(t, ctn[name]) for name, t in ntc.items())


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_loss_decreases_on_learnable_data(seed):
    d_star, d_tilde = small_corpora(seed=seed, n=32)
    config = TrainConfig(method=TrainMethod.NOLC_CLEAN, n_epochs=6, batch_size=8,
                         learning_rate=1e-2, seed=seed)
    _, log = train(init_params(TINY, seed=seed), d_star, d_tilde, None, config)
    assert log[-1].mean_loss < log[0].mean_loss


def test_epoch_log_tracks_the_schedule():
    d_star, d_tilde = small_corpora()
    config = TrainConfig(method=TrainMethod.ALC, n_epochs=4, batch_size=8)
    _, log = train(init_params(TINY, seed=10), d_star, d_tilde, reference_matrix(), config)
    assert [(row.epoch, row.dataset, row.loss_kind) for row in log] == [
        (0, NOISY, CORRECTED),
        (1, CLEAN, PLAIN),
        (2, NOISY, CORRECTED),
        (3, CLEAN, PLAIN),
    ]
    assert all(np.isfinite(row.mean_loss) for row in log)


def test_train_requires_matrix_when_schedule_corrects():
    d_star, d_tilde = small_corpora()
    with pytest.raises(ValueError, match="no corruption matrix"):
        train(init_params(TINY, seed=10), d_star, d_tilde, None,
              TrainConfig(method=TrainMethod.ALC, n_epochs=2))


def test_train_requires_nonempty_scheduled_datasets():
    d_star, d_tilde = small_corpora()
    with pytest.raises(ValueError, match="needs clean examples"):
        train(init_params(TINY, seed=10), [], d_tilde, None,
              TrainConfig(method=TrainMethod.NOLC_CLEAN, n_epochs=1))
    with pytest.raises(ValueError, match="needs noisy examples"):
        train(init_params(TINY, seed=10), d_star, [], None,
              TrainConfig(method=TrainMethod.NOLC_NOISY, n_epochs=1))


def test_train_requires_the_scheduled_label():
    rng = np.random.default_rng(0)
    missing = [mk_example(rng, "m0", noisy=Label.PRETERM)]
    with pytest.raises(ValueError, match="lacks the clean label"):
        train(init_params(TINY, seed=10), missing, [], None,
              TrainConfig(method=TrainMethod.NOLC_CLEAN, n_epochs=1))


def test_score_examples_returns_positive_class_probability():
    d_star, _ = small_corpora()
    params = init_params(TINY, seed=10)
    scores = score_examples(params, d_star)
    direct = predict_probs(params, [sequence_of(ex) for ex in d_star])
    assert np.array_equal(scores, direct[:, 0])
    assert np.all((scores > 0) & (scores < 1))


def test_loss_log_file_has_fixed_width_rows(tmp_path):
    d_star, d_tilde = small_corpora()
    _, log = train(init_params(TINY, seed=10), d_star, d_tilde, None,
                   TrainConfig(method=TrainMethod.NOLC_CLEAN, n_epochs=2, batch_size=8))
    path = tmp_path / "loss.csv"
    save_loss_log(log, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "epoch,dataset,loss_kind,mean_loss"
    assert len(lines) == 3
    for i, line in enumerate(lines[1:]):
        epoch, dataset, loss_kind, loss = line.split(",")
        assert int(epoch) == i
        assert (dataset, loss_kind) == (CLEAN, PLAIN)
        assert len(loss.split(".")[1]) == 6
