"""Attention-based visit-sequence classifier: forward pass, losses,
reverse-mode gradients, and checkpoint persistence."""

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import max_gradient_rel_error, random_small_sequences, random_small_setup, reference_matrix
from pretermalc.net import (
    CHECKPOINT_MAGIC,
    IDENTITY,
    LOSS_EPS,
    Batch,
    NetDims,
    backward,
    forward,
    init_params,
    load_checkpoint,
    loss_clean,
    loss_corrected,
    predict_probs,
    save_checkpoint,
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
    assert np.array_equal(trace.V[0, 0], np.zeros(TINY.d_emb))


def test_forward_embeds_single_code_as_its_row():
    params = init_params(TINY, seed=3)
    trace = forward(params, Batch.from_sequences([[(7,)]]))
    assert np.array_equal(trace.V[0, 0], params.emb[7])


def test_forward_embeds_visit_as_sum_of_code_rows():
    params = init_params(TINY, seed=3)
    trace = forward(params, Batch.from_sequences([[(2, 7)]]))
    assert np.array_equal(trace.V[0, 0], params.emb[2] + params.emb[7])


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
        batch = Batch.from_sequences(form)
        trace = forward(params, batch)
        results.append((trace.probs, backward(params, batch, trace, labels, c).flat))
    for probs, grads in results[1:]:
        assert np.array_equal(probs, results[0][0])
        assert np.array_equal(grads, results[0][1])


# --- batches ------------------------------------------------------------------


def test_batch_rejects_empty_input():
    with pytest.raises(ValueError, match="empty batch"):
        Batch.from_sequences([])
    with pytest.raises(ValueError, match="only empty sequences"):
        Batch.from_sequences([[], []])


def test_batch_pads_to_longest_sequence():
    batch = Batch.from_sequences([[(1,), (2,)], [(3,)]])
    assert batch.size == 2
    assert batch.n_steps == 2
    assert np.array_equal(batch.mask, [[1.0, 1.0], [1.0, 0.0]])
    grid = batch.unpack(batch.count_matrix(4, np.float64))
    assert np.array_equal(grid[:, :, 1:], [[[1, 0, 0], [0, 1, 0]], [[0, 0, 1], [0, 0, 0]]])


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.lists(st.lists(st.integers(0, 11), max_size=4).map(tuple), max_size=6),
        min_size=1,
        max_size=6,
    ).filter(lambda seqs: any(seqs))
)
def test_packing_is_exact(seqs):
    batch = Batch.from_sequences(seqs)
    lengths = [len(seq) for seq in seqs]
    assert np.array_equal(batch.mask.sum(axis=1), lengths)
    order = np.argsort(-np.array(lengths), kind="stable")
    for t in range(batch.n_steps):
        assert np.array_equal(batch.rows[batch.offsets[t] : batch.offsets[t + 1]], order[: batch.steps[t]])
    counts = batch.count_matrix(12, np.float64)
    ids = batch.unpack(np.arange(1.0, batch.rows.size + 1))  # packed row + 1 per visit, 0 on padding
    for b, seq in enumerate(seqs):
        visits = ids[b, : len(seq)].astype(int) - 1
        assert np.all(visits >= 0) and np.all(ids[b, len(seq) :] == 0)
        assert np.array_equal(batch.rows[visits], [b] * len(seq))
        assert np.array_equal(batch.times[visits], range(len(seq)))
        for p, visit in zip(visits, seq):
            assert np.array_equal(counts[p], np.bincount(np.array(visit, dtype=int), minlength=12))


# --- forward pass -------------------------------------------------------------


def test_forward_shapes_and_normalization():
    params, batch, _ = random_small_setup(11)
    trace = forward(params, batch)
    B, T = batch.mask.shape
    assert trace.V.shape == (B, T, TINY.d_emb)
    assert trace.alpha.shape == (B, T)
    assert trace.probs.shape == (B, 2)
    assert np.all(np.isfinite(trace.probs))
    assert np.all(trace.probs > 0)
    assert np.max(np.abs(trace.probs.sum(axis=1) - 1.0)) < 1e-12
    assert np.max(np.abs(trace.alpha.sum(axis=1) - 1.0)) < 1e-12


def test_forward_attention_is_zero_on_padding():
    batch = Batch.from_sequences([[(0,), (1,), (2,)], [(3,)]])
    trace = forward(init_params(TINY, seed=5), batch)
    assert trace.alpha[1, 1] == 0.0
    assert trace.alpha[1, 2] == 0.0
    assert trace.alpha[1, 0] == 1.0


def test_forward_single_visit_gets_full_attention():
    trace = forward(init_params(TINY, seed=5), Batch.from_sequences([[(4, 9)]]))
    assert np.array_equal(trace.alpha, [[1.0]])


def test_forward_zero_params_answer_half_half():
    trace = forward(zeroed_params(), Batch.from_sequences([[(0,), (1, 2)], [(3,)]]))
    assert np.all(trace.probs == 0.5)


def test_forward_rejects_sequence_without_visits():
    batch = Batch.from_sequences([[(1,)], []])
    with pytest.raises(ValueError, match="sequence 1 has no valid visits"):
        forward(init_params(TINY, seed=5), batch)


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
    params, seqs, _ = random_small_sequences(14)
    solo = np.stack([forward(params, Batch.from_sequences([s])).probs[0] for s in seqs])
    for chunk in (1, 2, 256):
        assert np.max(np.abs(predict_probs(params, seqs, batch_size=chunk) - solo)) < 1e-12


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
    assert loss_corrected(trace, labels, CorruptionMatrix(np.eye(2))) == loss_clean(trace, labels)


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
    assert np.max(np.abs(t_shuffled.alpha - t_plain.alpha[perm])) < 1e-12
    c = reference_matrix()
    g_plain = backward(params, batch, t_plain, labels, c)
    g_shuffled = backward(params, shuffled, t_shuffled, labels[perm], c)
    assert np.max(np.abs(g_plain.flat - g_shuffled.flat)) < 1e-12


def test_unused_embedding_rows_get_zero_gradient():
    params = init_params(TINY, seed=7)
    batch = Batch.from_sequences([[(0,), (1,)], [(1,)]])
    grads = backward(params, batch, forward(params, batch), np.array([0, 1]), IDENTITY)
    assert np.all(grads["emb"][2:] == 0.0)
    assert np.any(grads["emb"][:2] != 0.0)


# --- initialization -----------------------------------------------------------


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


# --- checkpoints --------------------------------------------------------------


def test_checkpoint_round_trip_is_bit_exact(tmp_path):
    params, _, _ = random_small_setup(31)
    path = tmp_path / "model.ckpt"
    save_checkpoint(params, path)
    loaded = load_checkpoint(path)
    assert loaded.dims == params.dims
    for name, tensor in params.items():
        assert np.array_equal(tensor, loaded[name]), name


def test_checkpoint_rejects_wrong_magic(tmp_path):
    path = tmp_path / "model.ckpt"
    path.write_bytes(b"some other format\n")
    with pytest.raises(ValueError, match="not a recognized checkpoint"):
        load_checkpoint(path)


def test_checkpoint_rejects_truncation(tmp_path):
    params = init_params(TINY, seed=1)
    path = tmp_path / "model.ckpt"
    save_checkpoint(params, path)
    path.write_bytes(path.read_bytes()[:-9])
    with pytest.raises(ValueError, match="truncated tensor"):
        load_checkpoint(path)


def test_checkpoint_rejects_trailing_bytes(tmp_path):
    params = init_params(TINY, seed=1)
    path = tmp_path / "model.ckpt"
    save_checkpoint(params, path)
    path.write_bytes(path.read_bytes() + b"x")
    with pytest.raises(ValueError, match="trailing bytes"):
        load_checkpoint(path)


def test_checkpoint_starts_with_named_version_line(tmp_path):
    params = init_params(TINY, seed=1)
    path = tmp_path / "model.ckpt"
    save_checkpoint(params, path)
    assert path.read_bytes().split(b"\n", 1)[0].decode("ascii") == CHECKPOINT_MAGIC


def _rewrite_header(path, edit):
    magic, line, body = path.read_bytes().split(b"\n", 2)
    header = json.loads(line)
    edit(header)
    path.write_bytes(magic + b"\n" + json.dumps(header).encode("ascii") + b"\n" + body)


def test_checkpoint_rejects_format_version_1(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(init_params(TINY, seed=1), path)
    path.write_bytes(path.read_bytes().replace(CHECKPOINT_MAGIC.encode("ascii"), b"pretermalc-checkpoint 1", 1))
    with pytest.raises(ValueError, match=r"model\.ckpt: checkpoint format version '1' is not supported"):
        load_checkpoint(path)


def test_checkpoint_rejects_missing_tensor(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(init_params(TINY, seed=1), path)
    _rewrite_header(path, lambda h: h["tensors"].pop(3))
    with pytest.raises(ValueError, match=r"model\.ckpt: missing tensor alpha\.u_h"):
        load_checkpoint(path)


def test_checkpoint_rejects_extra_tensor(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(init_params(TINY, seed=1), path)
    _rewrite_header(path, lambda h: h["tensors"].append(["alpha.w_z", [8, 8]]))
    with pytest.raises(ValueError, match=r"model\.ckpt: unexpected tensor alpha\.w_z"):
        load_checkpoint(path)


@pytest.mark.parametrize("edit", [
    lambda h: h["tensors"].reverse(),
    lambda h: h["tensors"].insert(2, h["tensors"].pop(3)),
    lambda h: h["tensors"].append(h["tensors"][0]),
], ids=["reversed", "swapped", "repeated"])
def test_checkpoint_rejects_tensors_out_of_layout_order(tmp_path, edit):
    path = tmp_path / "model.ckpt"
    save_checkpoint(init_params(TINY, seed=1), path)
    _rewrite_header(path, edit)
    with pytest.raises(ValueError, match=r"model\.ckpt: tensors listed in order .*; expected emb, alpha\.w, "):
        load_checkpoint(path)


def test_checkpoint_rejects_misshapen_tensor(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(init_params(TINY, seed=1), path)
    _rewrite_header(path, lambda h: h["tensors"][1].__setitem__(1, [8, 8]))
    with pytest.raises(ValueError, match=r"model\.ckpt: tensor alpha\.w has shape \[8, 8\], expected \[8, 24\]"):
        load_checkpoint(path)
