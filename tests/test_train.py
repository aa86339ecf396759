"""Epoch schedules, the optimizer step, and the training loop."""

import hashlib
import importlib
import warnings

import numpy as np
import pytest

from helpers import reference_matrix
from pretermalc.bench import build_corpus, derive_seed
from pretermalc.net import (
    Batch,
    ModelParams,
    NetDims,
    backward,
    forward,
    init_params,
    predict_probs,
    sequence_of,
)
from pretermalc.noise import estimate_corruption_matrix
from pretermalc.records import Label, LabeledExample, PatientRecord, Role, Visit
from pretermalc.synth import SynthConfig
from pretermalc.train import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    CLEAN,
    CORRECTED,
    LEARNING_RATE,
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
    score_examples,
    train,
)

TINY = NetDims(vocab_size=20, d_emb=8, d_h=8)
NOISY_CORRECTED = EpochSpec(NOISY, CORRECTED)
CLEAN_PLAIN = EpochSpec(CLEAN, PLAIN)


@pytest.fixture
def small_steps(monkeypatch):
    """Batches of 8 and a step size of 1e-2 for one test, so that the few
    dozen examples below take several large steps per epoch."""
    module = importlib.import_module("pretermalc.train")  # `pretermalc.train` is also the function
    monkeypatch.setattr(module, "BATCH_SIZE", 8)
    monkeypatch.setattr(module, "LEARNING_RATE", 1e-2)


def mk_example(rng, pid, clean=None, noisy=None, forced_code=None):
    visits = []
    for day in range(int(rng.integers(1, 4))):
        codes = set(rng.choice(20, size=int(rng.integers(1, 4)), replace=False).tolist())
        if forced_code is not None and day == 0:
            codes.add(forced_code)
        t_adm = day * 1440 + 60
        visits.append(Visit(codes=frozenset(codes), t_adm=t_adm, t_dis=t_adm + 60))
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
    with pytest.raises(ValueError, match="unknown method 'ALC'"):
        plan_epochs("ALC", 2)
    with pytest.raises(ValueError, match="only paired with noisy"):
        EpochSpec(CLEAN, CORRECTED)
    with pytest.raises(ValueError, match="unknown dataset tag"):
        EpochSpec("validation", PLAIN)
    with pytest.raises(ValueError, match="unknown loss kind 'bogus'"):
        EpochSpec(NOISY, "bogus")


# --- optimizer ------------------------------------------------------------------


def test_adam_matches_reference_formula():
    params = init_params(TINY, seed=2)
    reference = {name: t.copy() for name, t in params.items()}
    m = {name: np.zeros_like(t) for name, t in reference.items()}
    v = {name: np.zeros_like(t) for name, t in reference.items()}
    state = OptState.for_params(params)
    rng = np.random.default_rng(7)
    for step in range(1, 4):
        grads = params.zeros_like_grads()
        for g in grads.values():
            g[...] = rng.normal(size=g.shape)
        optimizer_step(params, grads, state)
        for name, g in grads.items():
            m[name] = ADAM_BETA1 * m[name] + (1 - ADAM_BETA1) * g
            v[name] = ADAM_BETA2 * v[name] + (1 - ADAM_BETA2) * g**2
            m_hat = m[name] / (1 - ADAM_BETA1**step)
            v_hat = v[name] / (1 - ADAM_BETA2**step)
            reference[name] = reference[name] - LEARNING_RATE * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
        for name, tensor in params.items():
            assert np.allclose(tensor, reference[name], rtol=1e-12, atol=0), (name, step)


def textbook_step(flat, g, m, v, step):
    """The Adam step as plain expressions that allocate their results: the
    reference the in-place form must match bit for bit."""
    m = m * ADAM_BETA1
    m += (1.0 - ADAM_BETA1) * g
    v = v * ADAM_BETA2
    v += (1.0 - ADAM_BETA2) * g * g
    bc1 = 1.0 - ADAM_BETA1**step
    bc2 = 1.0 - ADAM_BETA2**step
    return flat - LEARNING_RATE * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS), m, v


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_in_place_step_is_bit_identical_to_the_textbook_expression(dtype):
    params = init_params(TINY, seed=5).astype(dtype)
    flat, m, v = params.flat.copy(), np.zeros_like(params.flat), np.zeros_like(params.flat)
    state = OptState.for_params(params)
    rng = np.random.default_rng(9)
    for step in range(1, 6):
        grads = params.zeros_like_grads()
        grads.flat[...] = rng.normal(scale=10.0 ** rng.integers(-6, 2), size=grads.flat.size)
        optimizer_step(params, grads, state)
        flat, m, v = textbook_step(flat, grads.flat, m, v, step)
        assert params.flat.dtype == dtype
        assert np.array_equal(params.flat, flat), step
        assert np.array_equal(state.m, m) and np.array_equal(state.v, v), step


def test_adam_first_step_size_is_bounded_by_learning_rate():
    params = init_params(TINY, seed=3)
    before = params.astype(np.float64)
    rng = np.random.default_rng(8)
    grads = params.zeros_like_grads()
    for g in grads.values():
        g[...] = rng.normal(scale=100.0, size=g.shape)
    optimizer_step(params, grads, OptState.for_params(params))
    for name, tensor in params.items():
        assert np.max(np.abs(tensor - before[name])) <= LEARNING_RATE * 1.0001, name


def test_optimizer_rejects_non_finite_gradients():
    for value in (np.inf, -np.inf, np.nan):
        params = init_params(TINY, seed=4)
        grads = params.zeros_like_grads()
        grads["out_b"][0] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the error comes with no numpy warning ahead of it
            with pytest.raises(FloatingPointError, match="non-finite update for tensor out_b"):
                optimizer_step(params, grads, OptState.for_params(params))


def test_config_validation_names_the_bad_field():
    with pytest.raises(ValueError, match="n_epochs"):
        TrainConfig(n_epochs=0)
    with pytest.raises(ValueError, match="seed must be >= 0, got -3"):
        TrainConfig(seed=-3)


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


def test_training_is_bit_reproducible(small_steps):
    d_star, d_tilde = small_corpora()
    config = TrainConfig(method=TrainMethod.ALC, n_epochs=3, seed=5)
    init = init_params(TINY, seed=10)
    first, log_a = train(init, d_star, d_tilde, reference_matrix(), config)
    second, log_b = train(init, d_star, d_tilde, reference_matrix(), config)
    for name, tensor in first.items():
        assert np.array_equal(tensor, second[name]), name
    assert log_a == log_b


# sha256 of the float64 weights, and the exact per-epoch mean losses, of a
# 2-epoch run of each schedule on the cohort that the CLI tests' pipeline
# writes (200 mothers, 3 hospitals, seed 11), from the init that a default
# seed draws. Each schedule with a corrected epoch corrects with the matrix
# estimated from the cohort's dual-labeled set. Plain epochs train through
# the corruption layer with C = I, which must give every bit that plain
# cross-entropy gives. In two epochs GLC noisy-then-clean runs ALC's
# schedule, and GLC clean-then-noisy starts with NoLC_clean's first epoch,
# so those pins agree where their epochs do. Floating-point results, so the
# pins hold for one numpy/BLAS build: another BLAS kernel may round
# differently.
PINNED_RUNS = {
    TrainMethod.NOLC_CLEAN: (
        "b81fa8058da7ea699e7263aeacc1ea252ee74202a22e1995a74dcb4ee63b91c1",
        [0.6942642589785019, 0.690259262075964],
    ),
    TrainMethod.NOLC_NOISY: (
        "e57702c1d38412c26ae7b9129f365bfd529bbca25e88b494df9829a33c675515",
        [0.6936722567052017, 0.6892758519561203],
    ),
    TrainMethod.NOLC_MIXED: (
        "97515bb592833c51242e6f8e4bb9662586122f39e1e77c35e3d11e81a885cc0e",
        [0.6933698584867078, 0.6882119816403056],
    ),
    TrainMethod.ALC: (
        "9156fb2f7d01057d629e22de59c899a38fd98560c3ca0525f795aaf971958b1c",
        [0.7204824031135182, 0.6924346741640343],
    ),
    TrainMethod.GLC_NOISY_THEN_CLEAN: (
        "9156fb2f7d01057d629e22de59c899a38fd98560c3ca0525f795aaf971958b1c",
        [0.7204824031135182, 0.6924346741640343],
    ),
    TrainMethod.GLC_CLEAN_THEN_NOISY: (
        "3dcf4e60f9822941eb656d0de9da0496120812f752f49abe29d9d1524b833b8c",
        [0.6942642589785019, 0.719044468285125],
    ),
}


@pytest.fixture(scope="module")
def pipeline_corpus():
    corpus, _, _ = build_corpus(SynthConfig(n_mothers=200, n_hospitals=3, seed=11))
    return corpus


# The same, at three epochs, for the schedules whose plans part from ALC's
# only then: GLC noisy-then-clean reads [noisy, noisy, clean] where ALC
# reads [noisy, clean, noisy], and GLC clean-then-noisy [clean, clean, noisy].
PINNED_THREE_EPOCH_RUNS = {
    TrainMethod.GLC_NOISY_THEN_CLEAN: (
        "145724362a92931da7af5948e1bb6186ddd0e16a96190768734cddd786aebd7a",
        [0.7204824031135182, 0.7175901171601848, 0.690816711704686],
    ),
    TrainMethod.GLC_CLEAN_THEN_NOISY: (
        "ccca1cb2edd13816cc1fe30e303e7d4307f5a083a0bebd85d417658f3b58330f",
        [0.6942642589785019, 0.690259262075964, 0.7178221676084731],
    ),
}


def pinned_run(corpus, method: TrainMethod, n_epochs: int) -> tuple[str, list[float]]:
    """The sha256 of the weights, and the per-epoch mean losses, of one run."""
    config = TrainConfig(method=method, n_epochs=n_epochs)
    params = init_params(NetDims(vocab_size=len(corpus.vocab)), derive_seed(config.seed, "init"))
    corrects = any(spec.loss_kind == CORRECTED for spec in plan_epochs(method, config.n_epochs))
    c = estimate_corruption_matrix(corpus.d_prime) if corrects else None
    model, log = train(params, corpus.d_star, corpus.d_tilde, c, config)
    return hashlib.sha256(model.flat.astype("<f8").tobytes()).hexdigest(), [entry.mean_loss for entry in log]


@pytest.mark.parametrize("method", PINNED_RUNS, ids=lambda method: method.value)
def test_train_gives_the_pinned_weights_and_losses(pipeline_corpus, method):
    assert pinned_run(pipeline_corpus, method, 2) == PINNED_RUNS[method]


@pytest.mark.parametrize("method", PINNED_THREE_EPOCH_RUNS, ids=lambda method: method.value)
def test_three_epochs_give_the_pinned_weights_and_losses(pipeline_corpus, method):
    assert pinned_run(pipeline_corpus, method, 3) == PINNED_THREE_EPOCH_RUNS[method]


def test_training_does_not_mutate_the_given_parameters():
    d_star, d_tilde = small_corpora()
    init = init_params(TINY, seed=10)
    frozen = init.astype(np.float64)
    train(init, d_star, d_tilde, None, TrainConfig(method=TrainMethod.NOLC_CLEAN, n_epochs=2))
    for name, tensor in init.items():
        assert np.array_equal(tensor, frozen[name]), name


def test_shuffle_seed_changes_the_outcome(small_steps):
    d_star, d_tilde = small_corpora()
    init = init_params(TINY, seed=10)
    config_a = TrainConfig(method=TrainMethod.NOLC_CLEAN, n_epochs=2, seed=1)
    config_b = TrainConfig(method=TrainMethod.NOLC_CLEAN, n_epochs=2, seed=2)
    a, _ = train(init, d_star, d_tilde, None, config_a)
    b, _ = train(init, d_star, d_tilde, None, config_b)
    assert any(not np.array_equal(t, b[name]) for name, t in a.items())


def test_phase_order_changes_the_outcome(small_steps):
    d_star, d_tilde = small_corpora()
    init = init_params(TINY, seed=10)
    ntc, _ = train(init, d_star, d_tilde, reference_matrix(),
                   TrainConfig(method=TrainMethod.GLC_NOISY_THEN_CLEAN, n_epochs=4))
    ctn, _ = train(init, d_star, d_tilde, reference_matrix(),
                   TrainConfig(method=TrainMethod.GLC_CLEAN_THEN_NOISY, n_epochs=4))
    assert any(not np.array_equal(t, ctn[name]) for name, t in ntc.items())


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_loss_decreases_on_learnable_data(small_steps, seed):
    d_star, d_tilde = small_corpora(seed=seed, n=32)
    config = TrainConfig(method=TrainMethod.NOLC_CLEAN, n_epochs=6, seed=seed)
    _, log = train(init_params(TINY, seed=seed), d_star, d_tilde, None, config)
    assert log[-1].mean_loss < log[0].mean_loss


def test_epoch_log_tracks_the_schedule(small_steps):
    d_star, d_tilde = small_corpora()
    config = TrainConfig(method=TrainMethod.ALC, n_epochs=4)
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


@pytest.mark.parametrize(
    "method, first_tag",
    [(TrainMethod.GLC_NOISY_THEN_CLEAN, NOISY), (TrainMethod.GLC_CLEAN_THEN_NOISY, CLEAN)],
)
def test_the_pool_the_plan_reads_first_fails_first(method, first_tag):
    with pytest.raises(ValueError, match=f"needs {first_tag} examples"):
        train(init_params(TINY, seed=10), [], [], reference_matrix(), TrainConfig(method=method, n_epochs=2))


def test_train_requires_the_scheduled_label():
    rng = np.random.default_rng(0)
    missing = [mk_example(rng, "m0", noisy=Label.PRETERM)]
    with pytest.raises(ValueError, match="lacks the clean label"):
        train(init_params(TINY, seed=10), missing, [], None,
              TrainConfig(method=TrainMethod.NOLC_CLEAN, n_epochs=1))


def test_an_example_without_visits_is_named_by_its_id():
    """An example without visits is refused when it is built, by its id, so
    no training or scoring batch can hold one."""
    record = PatientRecord(patient_id="m-empty", hospital_id="h00", role=Role.MOTHER, visits=())
    with pytest.raises(ValueError, match="^example m-empty has no visits$"):
        LabeledExample(record, clean_label=Label.PRETERM)


# --- float32 training, float64 boundary ----------------------------------------


def watch_float64(params):
    """``params`` on a buffer that records each float64 array a numpy ufunc
    reads or returns once the buffer is involved. Views and ufunc results of
    a watched array are watched, so the record covers everything a step
    derives from the parameters: the scans, the head, the gradients and the
    optimizer moments."""
    found = []

    class Watched(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *inputs, out=None, **kwargs):
            arrays = [*inputs, *(out or ())]
            found.extend(
                (ufunc.__name__, a.shape) for a in arrays if isinstance(a, np.ndarray) and a.dtype == np.float64
            )
            plain = [x.view(np.ndarray) if isinstance(x, Watched) else x for x in inputs]
            if out is not None:
                kwargs["out"] = tuple(o.view(np.ndarray) if isinstance(o, Watched) else o for o in out)
            result = getattr(ufunc, method)(*plain, **kwargs)
            if out is not None:
                return out[0] if len(out) == 1 else out
            if isinstance(result, np.ndarray):
                if result.dtype == np.float64:
                    found.append((ufunc.__name__, result.shape))
                return result.view(Watched)
            return result

    return ModelParams(params.dims, params.flat.view(Watched)), found


def test_a_float32_step_creates_no_float64_array():
    d_star, _ = small_corpora()
    batch = Batch.from_sequences([sequence_of(ex) for ex in d_star])
    labels = np.array([int(ex.clean_label) for ex in d_star])
    params, found = watch_float64(init_params(TINY, seed=10).astype(np.float32))
    state = OptState.for_params(params)
    trace = forward(params, batch)
    grads = backward(params, trace, labels, reference_matrix())
    optimizer_step(params, grads, state)
    assert found == []
    arrays = {f"trace.{k}": a for k, a in vars(trace).items() if isinstance(a, np.ndarray)}
    for cache in ("alpha_cache", "beta_cache"):
        arrays.update({f"{cache}.{k}": a for k, a in vars(getattr(trace, cache)).items()})
    arrays.update({"grads": grads.flat, "params": params.flat, "m": state.m, "v": state.v})
    arrays.update({f"scratch{i}": a for i, a in enumerate(state.scratch)})
    assert {name: a.dtype for name, a in arrays.items() if a.dtype != np.float32} == {}
    assert all(a.dtype != np.float64 for a in vars(batch).values())


def test_train_returns_the_float64_upcast_of_float32_weights(small_steps):
    d_star, d_tilde = small_corpora()
    init = init_params(TINY, seed=10)
    model, _ = train(init, d_star, d_tilde, reference_matrix(),
                     TrainConfig(method=TrainMethod.ALC, n_epochs=2))
    assert model.flat.dtype == np.float64
    assert np.array_equal(model.flat, model.flat.astype(np.float32).astype(np.float64))
    assert not np.array_equal(model.flat, init.flat)


@pytest.fixture(scope="module")
def trained_wide_model():
    """A default-width model trained one epoch, and 300 examples to score:
    more than four 64-row scoring batches."""
    d_star, d_tilde = small_corpora(seed=4, n=150)
    model, _ = train(init_params(NetDims(vocab_size=20), seed=6), d_star, d_tilde, None,
                     TrainConfig(method=TrainMethod.NOLC_CLEAN, n_epochs=1))
    return model, d_star + d_tilde


def test_scored_rows_of_a_trained_model_sum_to_one(trained_wide_model):
    model, examples = trained_wide_model
    probs = predict_probs(model, [sequence_of(ex) for ex in examples])
    assert np.all(np.isfinite(probs))
    assert np.max(np.abs(probs.sum(axis=1) - 1.0)) <= 1e-12


def test_scores_agree_across_batch_compositions(trained_wide_model):
    """Scoring runs in float64, so a sequence's score moves only by float64
    rounding when it sits in a batch of another size. (Float32 scoring moves
    it by about 6e-8 here: BLAS rounds a row differently in small batches.)"""
    model, examples = trained_wide_model
    scores = score_examples(model, examples)
    subset = examples[1::3]
    direct = predict_probs(model, [sequence_of(ex) for ex in subset])[:, 0]
    assert np.max(np.abs(scores[1::3] - direct)) <= 1e-12


def test_score_examples_returns_positive_class_probability():
    d_star, _ = small_corpora()
    params = init_params(TINY, seed=10)
    scores = score_examples(params, d_star)
    direct = predict_probs(params, [sequence_of(ex) for ex in d_star])
    assert np.array_equal(scores, direct[:, 0])
    assert np.all((scores > 0) & (scores < 1))
