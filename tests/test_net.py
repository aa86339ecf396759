"""Attention-based visit-sequence classifier: forward pass, losses,
reverse-mode gradients and initialization."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import max_gradient_rel_error, random_small_sequences, random_small_setup, reference_matrix
from pretermalc.net import (
    IDENTITY,
    LOSS_EPS,
    SCORE_BATCH_SIZE,
    Batch,
    NetDims,
    backward,
    forward,
    init_params,
    loss_clean,
    loss_corrected,
    predict_probs,
)
from pretermalc.noise import CorruptionMatrix

TINY = NetDims(vocab_size=20, d_emb=8, d_h=8)


def zeroed_params(dims=TINY):
    params = init_params(dims, seed=0)
    for _, tensor in params.items():
        tensor[...] = 0.0
    return params


def confident_params(dims=TINY):
    """All-zero network that always answers [~1, ~0]."""
    params = zeroed_params(dims)
    params.out_b[...] = (50.0, -50.0)
    return params


# --- visit embedding ----------------------------------------------------------


def test_forward_embeds_empty_visit_as_zero_vector():
    params = init_params(TINY, seed=3)
    trace = forward(params, Batch.from_sequences([[(), (7,)]]))
    assert np.array_equal(trace.v_packed[0], np.zeros(TINY.d_emb))


def test_forward_embeds_single_code_as_its_row():
    params = init_params(TINY, seed=3)
    trace = forward(params, Batch.from_sequences([[(7,)]]))
    assert np.array_equal(trace.v_packed[0], params.emb[7])


def test_forward_embeds_visit_as_sum_of_code_rows():
    params = init_params(TINY, seed=3)
    trace = forward(params, Batch.from_sequences([[(2, 7)]]))
    assert np.array_equal(trace.v_packed[0], params.emb[2] + params.emb[7])


@pytest.mark.parametrize("seed", [41, 42, 43])
def test_code_order_within_a_visit_changes_no_bit(seed):
    params, seqs, labels = random_small_sequences(seed, vocab_size=300)
    forms = [
        seqs,
        [[v[::-1] for v in seq] for seq in seqs],
        [[frozenset(v) for v in seq] for seq in seqs],
    ]
    assert any(list(v) != sorted(v) for seq in forms[2] for v in seq)  # a set that iterates unsorted
    c = reference_matrix()
    results = []
    for form in forms:
        trace = forward(params, Batch.from_sequences(form))
        results.append((trace.probs, backward(params, trace, labels, c).flat))
    for probs, grads in results[1:]:
        assert np.array_equal(probs, results[0][0])
        assert np.array_equal(grads, results[0][1])


# --- batches ------------------------------------------------------------------


def test_batch_rejects_empty_input():
    with pytest.raises(ValueError, match="empty batch"):
        Batch.from_sequences([])
    with pytest.raises(ValueError, match="sequence 0 has no visits"):
        Batch.from_sequences([[], []])


def test_batch_rejects_a_sequence_without_visits():
    with pytest.raises(ValueError, match="sequence 1 has no visits"):
        Batch.from_sequences([[{1}], []])


def test_batch_pads_to_longest_sequence():
    batch = Batch.from_sequences([[(1,), (2,)], [(3,)]])
    assert batch.size == 2
    assert batch.n_steps == 2
    assert np.array_equal(batch.mask, [[1.0, 1.0], [1.0, 0.0]])
    assert np.array_equal(batch.offsets, [0, 2, 3])
    assert np.array_equal(batch.rows, [0, 1, 0])
    assert np.array_equal(batch.times, [0, 0, 1])
    counts = batch.count_matrix(4, np.float64)
    assert np.array_equal(counts[:, 1:], [[1, 0, 0], [0, 0, 1], [0, 1, 0]])


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.lists(st.lists(st.integers(0, 11), max_size=4).map(tuple), min_size=1, max_size=6),
        min_size=1,
        max_size=6,
    )
)
def test_packing_is_exact(seqs):
    batch = Batch.from_sequences(seqs)
    lengths = np.array([len(seq) for seq in seqs])
    assert np.array_equal(batch.mask.sum(axis=1), lengths)
    order = np.argsort(-lengths, kind="stable")
    for t in range(batch.n_steps):
        assert np.array_equal(batch.rows[batch.offsets[t] : batch.offsets[t + 1]], order[: np.sum(lengths > t)])
    counts = batch.count_matrix(12, np.float64)
    for b, seq in enumerate(seqs):
        visits = np.flatnonzero(batch.rows == b)  # packed rows of sequence b, step after step
        assert np.array_equal(batch.times[visits], range(len(seq)))
        for p, visit in zip(visits, seq):
            assert np.array_equal(counts[p], np.bincount(np.array(visit, dtype=int), minlength=12))


# --- forward pass -------------------------------------------------------------


def test_forward_shapes_and_normalization():
    params, batch, _ = random_small_setup(11)
    trace = forward(params, batch)
    B, N = batch.size, int(batch.mask.sum())
    assert trace.v_packed.shape == (N, TINY.d_emb)
    assert trace.alpha_packed.shape == (N,)
    assert trace.probs.shape == (B, 2)
    assert np.all(np.isfinite(trace.probs))
    assert np.all(trace.probs > 0)
    assert np.max(np.abs(trace.probs.sum(axis=1) - 1.0)) < 1e-12
    assert np.max(np.abs(trace.segments @ trace.alpha_packed - 1.0)) < 1e-12


def test_forward_attention_is_zero_on_padding():
    # Padding has no packed row, so it takes no attention weight: a
    # sequence's weights over its own visits sum to one.
    batch = Batch.from_sequences([[(0,), (1,), (2,)], [(3,)]])
    trace = forward(init_params(TINY, seed=5), batch)
    assert trace.alpha_packed.shape == (4,)
    assert np.array_equal(trace.alpha_packed[batch.rows == 1], [1.0])
    assert abs(trace.alpha_packed[batch.rows == 0].sum() - 1.0) < 1e-12


def test_forward_single_visit_gets_full_attention():
    trace = forward(init_params(TINY, seed=5), Batch.from_sequences([[(4, 9)]]))
    assert np.array_equal(trace.alpha_packed, [1.0])


def test_forward_zero_params_answer_half_half():
    trace = forward(zeroed_params(), Batch.from_sequences([[(0,), (1, 2)], [(3,)]]))
    assert np.all(trace.probs == 0.5)


def test_forward_rejects_sequence_without_visits():
    with pytest.raises(ValueError, match="sequence 1 has no visits"):
        predict_probs(init_params(TINY, seed=5), [[(1,)], []])
    # named by its index in the caller's list, not in its scoring batch
    with pytest.raises(ValueError, match=f"^sequence {SCORE_BATCH_SIZE + 6} has no visits$"):
        predict_probs(init_params(TINY, seed=5), [[(1,)]] * (SCORE_BATCH_SIZE + 6) + [[]])


def test_forward_rejects_out_of_range_code():
    batch = Batch.from_sequences([[(TINY.vocab_size,)]])
    with pytest.raises(ValueError, match="code index 20 out of range"):
        forward(init_params(TINY, seed=5), batch)


def test_forward_batched_matches_solo_within_padding_tolerance():
    params, seqs, _ = random_small_sequences(13)
    batched = forward(params, Batch.from_sequences(seqs)).probs
    for b, seq in enumerate(seqs):
        solo = forward(params, Batch.from_sequences([seq])).probs[0]
        assert np.max(np.abs(batched[b] - solo)) < 1e-12


def test_predict_probs_matches_forward_across_chunk_sizes():
    """Lists that fill one scoring batch, end inside a second one and fill
    two score as each sequence does alone."""
    params, _, _ = random_small_sequences(14)
    rng = np.random.default_rng(14)
    seqs = [
        [tuple(rng.choice(20, size=int(rng.integers(1, 5)), replace=False).tolist())
         for _ in range(int(rng.integers(1, 6)))]
        for _ in range(2 * SCORE_BATCH_SIZE)
    ]
    solo = np.stack([forward(params, Batch.from_sequences([s])).probs[0] for s in seqs])
    for n in (1, SCORE_BATCH_SIZE, SCORE_BATCH_SIZE + 5, 2 * SCORE_BATCH_SIZE):
        assert np.max(np.abs(predict_probs(params, seqs[:n]) - solo[:n])) < 1e-12


def traced_peak(fn) -> int:
    """Peak bytes that numpy and Python allocate while ``fn`` runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_predict_probs_working_set_is_a_few_scoring_batches():
    """1,024 sequences of 5 visits × 3 codes at the default width: scoring
    all of them holds no more than a few 64-row batches at once (about two:
    the last batch's trace lives on while the next one runs)."""
    rng = np.random.default_rng(0)
    seqs = [[rng.choice(200, 3, replace=False).tolist() for _ in range(5)] for _ in range(1024)]
    params = init_params(NetDims(vocab_size=200), seed=0)
    one_batch = traced_peak(lambda: forward(params, Batch.from_sequences(seqs[:64])))
    assert traced_peak(lambda: predict_probs(params, seqs)) <= 3 * one_batch


# --- losses -------------------------------------------------------------------


def test_loss_clean_zero_params_is_log_two():
    trace = forward(zeroed_params(), Batch.from_sequences([[(1,)], [(2,), (3,)]]))
    assert abs(loss_clean(trace, np.array([0, 1])) - math.log(2.0)) < 1e-6


def test_loss_clean_confident_correct_is_near_zero():
    trace = forward(confident_params(), Batch.from_sequences([[(1,)]]))
    assert abs(loss_clean(trace, np.array([0]))) < 1e-6


def test_loss_clean_confident_wrong_is_floored_not_infinite():
    trace = forward(confident_params(), Batch.from_sequences([[(1,)]]))
    loss = loss_clean(trace, np.array([1]))
    assert math.isfinite(loss)
    assert abs(loss - (-math.log(LOSS_EPS))) < 1e-3


@pytest.mark.parametrize("seed", [12, 13, 14])
def test_loss_clean_is_plain_cross_entropy_bit_for_bit(seed):
    params, batch, labels = random_small_setup(seed)
    trace = forward(params, batch)
    picked = trace.probs[np.arange(labels.size), labels]
    assert loss_clean(trace, labels) == -float(np.mean(np.log(picked + LOSS_EPS)))


def test_loss_corrected_pushes_probs_through_matrix():
    c = reference_matrix()
    trace = forward(confident_params(), Batch.from_sequences([[(1,)]]))
    assert abs(loss_corrected(trace, np.array([0]), c) - (-math.log(0.68))) < 1e-5
    assert abs(loss_corrected(trace, np.array([1]), c) - (-math.log(0.32))) < 1e-5


def test_loss_corrected_with_identity_matches_clean_exactly():
    params, batch, labels = random_small_setup(15)
    trace = forward(params, batch)
    assert loss_corrected(trace, labels, CorruptionMatrix(np.array([[3, 0], [0, 5]]))) == loss_clean(trace, labels)


def test_batch_loss_is_mean_of_single_losses():
    params, seqs, labels = random_small_sequences(16)
    whole = loss_clean(forward(params, Batch.from_sequences(seqs)), labels)
    singles = []
    for b, seq in enumerate(seqs):
        singles.append(loss_clean(forward(params, Batch.from_sequences([seq])), labels[b : b + 1]))
    assert abs(whole - float(np.mean(singles))) < 1e-12


def test_loss_rejects_bad_labels():
    trace = forward(init_params(TINY, seed=5), Batch.from_sequences([[(1,)]]))
    with pytest.raises(ValueError, match="expected 1 labels"):
        loss_clean(trace, np.array([0, 1]))
    with pytest.raises(ValueError, match="labels must be 0"):
        loss_clean(trace, np.array([2]))


# --- gradients ----------------------------------------------------------------


@pytest.mark.parametrize("seed", [21, 22])
def test_gradients_match_central_differences(seed):
    params, batch, labels = random_small_setup(seed)
    assert max_gradient_rel_error(params, batch, labels, IDENTITY) < 1e-4
    assert max_gradient_rel_error(params, batch, labels, reference_matrix()) < 1e-4


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_permuting_batch_rows_permutes_outputs_and_keeps_gradients(seed):
    params, seqs, labels = random_small_sequences(seed)
    perm = np.random.default_rng(seed).permutation(len(seqs))
    batch, shuffled = Batch.from_sequences(seqs), Batch.from_sequences([seqs[i] for i in perm])
    t_plain, t_shuffled = forward(params, batch), forward(params, shuffled)
    assert np.max(np.abs(t_shuffled.probs - t_plain.probs[perm])) < 1e-12
    for i, b in enumerate(perm):
        weights = t_plain.alpha_packed[batch.rows == b]  # sequence b's, step after step
        assert np.max(np.abs(t_shuffled.alpha_packed[shuffled.rows == i] - weights)) < 1e-12
    c = reference_matrix()
    g_plain = backward(params, t_plain, labels, c)
    g_shuffled = backward(params, t_shuffled, labels[perm], c)
    assert np.max(np.abs(g_plain.flat - g_shuffled.flat)) < 1e-12


def test_unused_embedding_rows_get_zero_gradient():
    params = init_params(TINY, seed=7)
    batch = Batch.from_sequences([[(0,), (1,)], [(1,)]])
    grads = backward(params, forward(params, batch), np.array([0, 1]), IDENTITY)
    assert np.all(grads["emb"][2:] == 0.0)
    assert np.any(grads["emb"][:2] != 0.0)


# --- initialization -----------------------------------------------------------


def test_dims_must_be_positive():
    for name in ("vocab_size", "d_emb", "d_h"):
        with pytest.raises(ValueError, match=f"{name} must be >= 1, got 0"):
            NetDims(**{"vocab_size": 20, name: 0})


def test_init_is_seed_deterministic():
    a = init_params(TINY, seed=42)
    b = init_params(TINY, seed=42)
    other = init_params(TINY, seed=43)
    for name, tensor in a.items():
        assert np.array_equal(tensor, b[name]), name
    assert not np.array_equal(a.emb, other.emb)


def test_init_zero_biases_and_weight_bounds():
    params = init_params(TINY, seed=9)
    for name, tensor in params.items():
        if name.endswith((".b", "att_b", "proj_b", "out_b")):
            assert np.all(tensor == 0.0), name
    bound = math.sqrt(6.0 / (TINY.vocab_size + TINY.d_emb))
    assert np.max(np.abs(params.emb)) <= bound
    assert np.min(params.emb) < 0 < np.max(params.emb)


def test_init_forward_is_finite_across_many_seeds():
    batch = Batch.from_sequences([[(0, 3), (5,)], [(19,)]])
    for seed in range(100):
        probs = forward(init_params(TINY, seed=seed), batch).probs
        assert np.all(np.isfinite(probs))
        assert np.max(np.abs(probs.sum(axis=1) - 1.0)) < 1e-12
