"""Visit-sequence classifier with two reverse-time gated recurrences and
two attention channels: a scalar weight per visit (masked softmax) and a
gate vector per embedding dimension. The context vector is the attention-
weighted sum of visit embeddings, mapped to two-class probabilities.

All forward math and the full reverse-mode gradient are written out by hand
in numpy; correctness is pinned by central finite differences in the test
suite rather than by an autodiff framework. The math is dtype-generic: every
array a pass allocates takes the dtype of the parameter buffer, so float64
parameters (initialisation, scoring, the gradient check) run in float64 and
float32 ones (training) in float32.

The recurrences run on packed rows: a batch is ordered longest first, so at
each step the sequences that still have a visit are a leading slice of the
running state, and padding costs nothing. Each cell keeps its three gates
fused into one input matrix, and every parameter lives in one flat buffer.
"""

from __future__ import annotations

from collections.abc import Collection, Mapping
from dataclasses import dataclass
from itertools import chain
from math import prod
from typing import Iterator, Sequence

import numpy as np

from .noise import CorruptionMatrix, corruption_layer
from .records import LabeledExample

LOSS_EPS = 1e-7  # floor added to the picked probability before log
# Rows per scoring batch. One batch holds a dense visit-by-code count matrix,
# a rows-by-visits segment matrix and both scans' float64 caches, and the
# previous batch's trace lives on while the next one runs. At 256 rows these
# lifted the peak RSS of training then scoring the default corpus from about
# 66 MB to about 100 MB; at 64 rows it stays near 70 MB, and the scoring rate
# is the same within a few percent (2-vCPU Xeon host, numpy 2.4).
SCORE_BATCH_SIZE = 64

# The corruption layer of plain cross-entropy: clean labels are not corrupted.
IDENTITY = CorruptionMatrix(np.eye(2, dtype=np.int64))

VisitCodes = Collection[int]  # one visit's code indices, in any order; a Visit's are an ascending tuple


def _sigmoid_(x: np.ndarray) -> np.ndarray:
    """Logistic sigmoid in place, as 0.5·(1 + tanh(x/2)): one transcendental
    call and no overflow for any sign of x."""
    x *= 0.5
    np.tanh(x, out=x)
    x += 1.0
    x *= 0.5
    return x


@dataclass(frozen=True)
class NetDims:
    vocab_size: int
    d_emb: int = 64
    d_h: int = 64

    def __post_init__(self) -> None:
        for name in ("vocab_size", "d_emb", "d_h"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")


@dataclass(frozen=True)
class GruCellParams:
    """One gated recurrent cell. The update (z), reset (r) and candidate (h)
    gates sit side by side, in that order, along the last axis."""

    w: np.ndarray  # (d_emb, 3·d_h) input weights of z, r, h
    u_zr: np.ndarray  # (d_h, 2·d_h) recurrent weights of z, r
    u_h: np.ndarray  # (d_h, d_h) recurrent weights of the candidate
    b: np.ndarray  # (3·d_h,)

    FIELDS = ("w", "u_zr", "u_h", "b")


def _layout(dims: NetDims) -> list[tuple[str, tuple[int, ...]]]:
    """Name and shape of every tensor, in buffer order."""
    e, h = dims.d_emb, dims.d_h
    cell = {"w": (e, 3 * h), "u_zr": (h, 2 * h), "u_h": (h, h), "b": (3 * h,)}
    return [
        ("emb", (dims.vocab_size, e)),
        *((f"{prefix}.{f}", cell[f]) for prefix in ("alpha", "beta") for f in GruCellParams.FIELDS),
        ("att_w", (h,)),
        ("att_b", (1,)),
        ("proj_w", (e, h)),
        ("proj_b", (e,)),
        ("out_w", (2, e)),
        ("out_b", (2,)),
    ]


class ModelParams(Mapping):
    """Every tensor of the network as a named view into one contiguous
    buffer, ``flat``: float64 unless built on a buffer of another float
    dtype, which is then the dtype every pass over these parameters computes
    in. Gradients use the same class, layout and dtype, so an optimizer step
    is one vectorised update of ``flat``; writing through a view writes the
    buffer."""

    def __init__(self, dims: NetDims, flat: np.ndarray | None = None):
        layout = _layout(dims)
        sizes = [prod(shape) for _, shape in layout]
        self.dims = dims
        self.flat = np.zeros(sum(sizes)) if flat is None else flat
        self._starts = np.cumsum([0] + sizes[:-1])
        self._views = {
            name: self.flat[start : start + size].reshape(shape)
            for (name, shape), start, size in zip(layout, self._starts, sizes)
        }
        v = self._views
        self.emb = v["emb"]  # (vocab, d_emb)
        self.alpha_cell = GruCellParams(*(v[f"alpha.{f}"] for f in GruCellParams.FIELDS))
        self.beta_cell = GruCellParams(*(v[f"beta.{f}"] for f in GruCellParams.FIELDS))
        self.att_w = v["att_w"]  # (d_h,)
        self.att_b = v["att_b"]  # (1,)
        self.proj_w = v["proj_w"]  # (d_emb, d_h)
        self.proj_b = v["proj_b"]  # (d_emb,)
        self.out_w = v["out_w"]  # (2, d_emb)
        self.out_b = v["out_b"]  # (2,)

    def __getitem__(self, name: str) -> np.ndarray:
        return self._views[name]

    def __iter__(self) -> Iterator[str]:
        return iter(self._views)

    def __len__(self) -> int:
        return len(self._views)

    def first_non_finite(self, values: np.ndarray) -> str | None:
        """Name of the first tensor whose slice of the flat ``values`` holds
        a non-finite number, or None when all are finite."""
        finite = np.isfinite(values)
        if finite.all():
            return None
        return list(self._views)[int(np.searchsorted(self._starts, np.argmin(finite), side="right")) - 1]

    def astype(self, dtype: np.dtype | type) -> "ModelParams":
        """The same weights in a new buffer of ``dtype``, rounded to it."""
        return ModelParams(self.dims, self.flat.astype(dtype))

    def zeros_like_grads(self) -> "ModelParams":
        return ModelParams(self.dims, np.zeros_like(self.flat))


def _glorot(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int, fan_out: int) -> np.ndarray:
    s = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-s, s, size=shape)


def init_params(dims: NetDims, seed: int) -> ModelParams:
    """Scaled-uniform weights, zero biases; draw order is fixed so a seed
    pins every tensor bit-for-bit. Each cell draws its gates z, r, h in turn,
    input weights before recurrent ones, into the fused matrices."""
    rng = np.random.default_rng(seed)
    e, h = dims.d_emb, dims.d_h
    params = ModelParams(dims)
    params.emb[...] = _glorot(rng, (dims.vocab_size, e), dims.vocab_size, e)
    for cell in (params.alpha_cell, params.beta_cell):
        for gate in range(3):
            cols = slice(gate * h, (gate + 1) * h)
            cell.w[:, cols] = _glorot(rng, (e, h), e, h)
            recurrent = cell.u_zr[:, cols] if gate < 2 else cell.u_h
            recurrent[...] = _glorot(rng, (h, h), h, h)
    params.att_w[...] = _glorot(rng, (h,), h, 1)
    params.proj_w[...] = _glorot(rng, (e, h), h, e)
    params.out_w[...] = _glorot(rng, (2, e), e, 2)
    return params


@dataclass(frozen=True, eq=False)
class Batch:
    """Visit-code sequences in the packed form the network reads. Rows are
    ordered longest first (stable), so the sequences that have a visit at
    step t are the leading rows of that order. The visits are stacked step
    by step: step t holds packed rows ``offsets[t]:offsets[t + 1]``, and
    packed row p is visit ``times[p]`` of input row ``rows[p]``. Build one
    with ``from_sequences``; every sequence must have a visit."""

    mask: np.ndarray  # (B, T) bool: true on each sequence's visits, false on padding
    offsets: np.ndarray  # (T + 1,) first packed row of each step
    rows: np.ndarray  # (N,) input row of each packed visit
    times: np.ndarray  # (N,) step of each packed visit
    code_index: np.ndarray  # every code of every packed visit, visit after visit
    code_visit: np.ndarray  # packed visit of each entry of code_index

    @classmethod
    def from_sequences(cls, seqs: Sequence[Sequence[VisitCodes]]) -> "Batch":
        if not seqs:
            raise ValueError("empty batch")
        lengths = np.fromiter(map(len, seqs), dtype=np.intp, count=len(seqs))
        if lengths.min() == 0:
            raise ValueError(f"sequence {int(np.argmin(lengths))} has no visits")
        real = np.arange(lengths.max()) < lengths[:, None]
        order = np.argsort(-lengths, kind="stable")
        times, slot = np.nonzero(real[order].T)
        rows = order[slot]
        visits = [seqs[b][t] for b, t in zip(rows.tolist(), times.tolist())]
        sizes = [len(v) for v in visits]
        return cls(
            mask=real,
            offsets=np.concatenate(([0], np.cumsum(real.sum(axis=0)))),
            rows=rows,
            times=times,
            code_index=np.fromiter(chain.from_iterable(visits), dtype=np.intp, count=sum(sizes)),
            code_visit=np.repeat(np.arange(len(visits)), sizes),
        )

    @property
    def size(self) -> int:
        return self.mask.shape[0]

    @property
    def n_steps(self) -> int:
        return self.mask.shape[1]

    def segment_matrix(self, dtype: np.dtype | type) -> np.ndarray:
        """(B, N): 1 where packed row p belongs to input row b, so a product
        with it sums each sequence's packed rows."""
        segments = np.zeros((self.size, self.rows.size), dtype=dtype)
        segments[self.rows, np.arange(self.rows.size)] = 1
        return segments

    def count_matrix(self, vocab_size: int, dtype: np.dtype | type) -> np.ndarray:
        """(N, vocab): how often each code occurs in each packed visit."""
        codes = self.code_index
        if codes.size and (codes.min() < 0 or codes.max() >= vocab_size):
            bad = codes.max() if codes.max() >= vocab_size else codes.min()
            raise ValueError(f"code index {bad} out of range for vocabulary of {vocab_size}")
        n = self.rows.size
        idx = self.code_visit * vocab_size + codes
        return np.bincount(idx, minlength=n * vocab_size).reshape(n, vocab_size).astype(dtype)


def sequence_of(example: LabeledExample) -> list[VisitCodes]:
    """Each visit's code set, in time order. The embedding counts codes, so
    their order within a visit does not matter. ``LabeledExample`` holds a
    visit, so the sequence is never empty."""
    return [v.codes for v in example.record.visits]


@dataclass
class ScanCache:
    """Per packed visit: what the backward pass of one recurrence reads."""

    zr: np.ndarray  # (N, 2·d_h) update and reset gates
    hc: np.ndarray  # (N, d_h) candidate state
    hp: np.ndarray  # (N, d_h) previous state; zero at a sequence's last visit, where the scan starts
    rhp: np.ndarray  # (N, d_h) reset gate times previous state


@dataclass
class ForwardTrace:
    """Everything the backward pass reads. Per-visit arrays are kept
    packed: one row per real visit, in the batch's packed order, so
    ``segments @ alpha_packed`` sums each sequence's attention weights."""

    batch: Batch
    counts: np.ndarray  # (N, vocab) visit-by-code counts
    segments: np.ndarray  # (B, N) the batch's segment matrix
    v_packed: np.ndarray  # (N, d_emb) visit embeddings
    g_packed: np.ndarray  # (N, d_h) states of the scalar-attention recurrence
    h_packed: np.ndarray  # (N, d_h) states of the gate-attention recurrence
    alpha_packed: np.ndarray  # (N,)
    beta_packed: np.ndarray  # (N, d_emb)
    context: np.ndarray  # (B, d_emb)
    probs: np.ndarray  # (B, 2)
    alpha_cache: ScanCache
    beta_cache: ScanCache


def _gru_scan(cell: GruCellParams, V: np.ndarray, batch: Batch) -> tuple[np.ndarray, ScanCache]:
    """Run the cell over steps T-1 .. 0 of the packed visits. Step t updates
    only the leading rows of the running state, those with a visit at t; a
    row whose sequence has no visit after t still holds the zero initial
    state."""
    d_h = cell.u_h.shape[0]
    n_rows = V.shape[0]
    xw = V @ cell.w + cell.b  # (N, 3·d_h): the input part of every gate at once
    state = np.zeros((batch.size, d_h), dtype=V.dtype)
    states = np.empty((n_rows, d_h), dtype=V.dtype)
    cache = ScanCache(*(np.empty((n_rows, k * d_h), dtype=V.dtype) for k in (2, 1, 1, 1)))
    offsets = batch.offsets.tolist()
    for t in range(batch.n_steps - 1, -1, -1):
        lo, hi = offsets[t], offsets[t + 1]
        hp = state[: hi - lo]
        cache.hp[lo:hi] = hp
        zr = cache.zr[lo:hi]
        np.matmul(hp, cell.u_zr, out=zr)
        zr += xw[lo:hi, : 2 * d_h]
        _sigmoid_(zr)
        rhp = np.multiply(zr[:, d_h:], hp, out=cache.rhp[lo:hi])
        hc = cache.hc[lo:hi]
        np.matmul(rhp, cell.u_h, out=hc)
        hc += xw[lo:hi, 2 * d_h :]
        np.tanh(hc, out=hc)
        h = states[lo:hi]  # (1 - z)·hp + z·hc
        np.subtract(hc, hp, out=h)
        h *= zr[:, :d_h]
        h += hp
        state[: hi - lo] = h
    return states, cache


def _gru_backward(
    cell: GruCellParams, grads: GruCellParams, V: np.ndarray, batch: Batch, cache: ScanCache, dstates: np.ndarray
) -> np.ndarray:
    """Backpropagate through the reverse-time scan. The scan consumed steps
    T-1..0, so gradients walk 0..T-1, carrying the gradient of each row's
    previous state. The loop keeps only the two recurrent products; it
    stores every step's gate pre-activation gradients, and the weight, bias
    and input gradients are one product each afterwards. Returns the
    gradient of the cell input."""
    d_h = cell.u_h.shape[0]
    z, r = cache.zr[:, :d_h], cache.zr[:, d_h:]
    # Per-visit factors that do not depend on the carried gradient.
    to_z = (cache.hc - cache.hp) * z * (1.0 - z)
    to_h = z * (1.0 - cache.hc * cache.hc)
    to_r = cache.hp * r * (1.0 - r)
    keep = 1.0 - z
    da = np.empty((cache.hc.shape[0], 3 * d_h), dtype=V.dtype)  # pre-activation gradients of z, r, h
    carry = np.zeros((batch.size, d_h), dtype=V.dtype)
    u_zr_t, u_h_t = cell.u_zr.T, cell.u_h.T
    offsets = batch.offsets.tolist()
    for t in range(batch.n_steps):
        lo, hi = offsets[t], offsets[t + 1]
        dh = dstates[lo:hi] + carry[: hi - lo]
        np.multiply(dh, to_z[lo:hi], out=da[lo:hi, :d_h])
        dah = np.multiply(dh, to_h[lo:hi], out=da[lo:hi, 2 * d_h :])
        d_rhp = dah @ u_h_t
        np.multiply(d_rhp, to_r[lo:hi], out=da[lo:hi, d_h : 2 * d_h])
        dh *= keep[lo:hi]
        d_rhp *= r[lo:hi]
        dh += d_rhp
        dh += da[lo:hi, : 2 * d_h] @ u_zr_t
        carry[: hi - lo] = dh
    grads.w[...] = V.T @ da
    grads.b[...] = da.sum(axis=0)
    grads.u_zr[...] = cache.hp.T @ da[:, : 2 * d_h]
    grads.u_h[...] = cache.rhp.T @ da[:, 2 * d_h :]
    return da @ cell.w.T


def forward(params: ModelParams, batch: Batch) -> ForwardTrace:
    """Full forward pass over a batch, in the dtype of ``params.flat``."""
    dtype = params.flat.dtype
    counts = batch.count_matrix(params.dims.vocab_size, dtype)
    segments = batch.segment_matrix(dtype)
    V = counts @ params.emb

    G, alpha_cache = _gru_scan(params.alpha_cell, V, batch)
    H, beta_cache = _gru_scan(params.beta_cell, V, batch)

    scores = np.full(batch.mask.shape, -np.inf, dtype=dtype)
    scores[batch.rows, batch.times] = G @ params.att_w + params.att_b[0]
    ex = np.exp(scores - scores.max(axis=1, keepdims=True))
    alpha = ex / ex.sum(axis=1, keepdims=True)
    alpha_packed = alpha[batch.rows, batch.times]

    beta = np.tanh(H @ params.proj_w.T + params.proj_b)
    context = segments @ (alpha_packed[:, None] * beta * V)

    logits = context @ params.out_w.T + params.out_b
    shifted = logits - logits.max(axis=1, keepdims=True)
    pe = np.exp(shifted)
    probs = pe / pe.sum(axis=1, keepdims=True)

    return ForwardTrace(
        batch=batch,
        counts=counts,
        segments=segments,
        v_packed=V,
        g_packed=G,
        h_packed=H,
        alpha_packed=alpha_packed,
        beta_packed=beta,
        context=context,
        probs=probs,
        alpha_cache=alpha_cache,
        beta_cache=beta_cache,
    )


def _check_labels(labels: np.ndarray, n: int) -> np.ndarray:
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (n,):
        raise ValueError(f"expected {n} labels, got shape {labels.shape}")
    if np.any((labels < 0) | (labels > 1)):
        raise ValueError("labels must be 0 (preterm) or 1 (full term)")
    return labels


def loss_corrected(trace: ForwardTrace, labels: np.ndarray, c: CorruptionMatrix) -> float:
    """Mean negative log of the picked noisy-class probability after pushing
    the model's clean distribution through the corruption matrix."""
    labels = _check_labels(labels, trace.probs.shape[0])
    q, _ = corruption_layer(trace.probs, c)
    picked = q[np.arange(labels.size), labels]
    return float(np.mean(-np.log(picked + LOSS_EPS)))


def loss_clean(trace: ForwardTrace, labels: np.ndarray) -> float:
    """Plain cross-entropy: the corrected loss with C = I, which leaves the
    clean distribution as it is."""
    return loss_corrected(trace, labels, IDENTITY)


def backward(params: ModelParams, trace: ForwardTrace, labels: np.ndarray, c: CorruptionMatrix) -> ModelParams:
    """Exact gradient of the mean batch loss ``loss_corrected(trace, labels,
    c)``, in the layout of ``params``, over the batch the trace was built
    on. The corruption matrix acts as a fixed dense layer q = p·C on top of
    the softmax; pass ``IDENTITY`` for plain cross-entropy."""
    batch = trace.batch
    B = trace.probs.shape[0]
    labels = _check_labels(labels, B)
    rows = np.arange(B)

    # corruption layer
    q, entries = corruption_layer(trace.probs, c)
    d_q = np.zeros_like(q)
    d_q[rows, labels] = -1.0 / (B * (q[rows, labels] + LOSS_EPS))
    d_p = d_q @ entries.T

    # softmax over logits
    inner = (d_p * trace.probs).sum(axis=1, keepdims=True)
    d_logits = trace.probs * (d_p - inner)

    grads = params.zeros_like_grads()
    grads.out_w[...] = d_logits.T @ trace.context
    grads.out_b[...] = d_logits.sum(axis=0)
    d_context = (d_logits @ params.out_w)[batch.rows]  # (N, d_emb): each visit's sequence

    V, alpha, beta = trace.v_packed, trace.alpha_packed, trace.beta_packed
    d_alpha = (d_context * beta * V).sum(axis=1)
    d_context *= alpha[:, None]
    d_beta = d_context * V
    dV = d_context * beta

    # softmax over each sequence's visit scores
    s = trace.segments @ (d_alpha * alpha)
    d_e = alpha * (d_alpha - s[batch.rows])
    grads.att_w[...] = d_e @ trace.g_packed
    grads.att_b[0] = d_e.sum()

    # per-dimension gates
    d_a = d_beta * (1.0 - beta * beta)
    grads.proj_w[...] = d_a.T @ trace.h_packed
    grads.proj_b[...] = d_a.sum(axis=0)

    dV += _gru_backward(params.alpha_cell, grads.alpha_cell, V, batch, trace.alpha_cache, np.outer(d_e, params.att_w))
    dV += _gru_backward(params.beta_cell, grads.beta_cell, V, batch, trace.beta_cache, d_a @ params.proj_w)
    grads.emb[...] = trace.counts.T @ dV

    bad = grads.first_non_finite(grads.flat)
    if bad is not None:
        raise FloatingPointError(f"non-finite gradient in tensor {bad}")
    return grads


def predict_probs(params: ModelParams, seqs: Sequence[Sequence[VisitCodes]]) -> np.ndarray:
    """Class probabilities for each sequence, in input order, computed
    ``SCORE_BATCH_SIZE`` sequences at a time, which keeps the working set of
    a batch near that of a training step. A score moves only by rounding
    (about 1e-16) with the batch it sits in. A sequence without visits is
    named by its index in ``seqs``."""
    empty = next((i for i, seq in enumerate(seqs) if not len(seq)), None)
    if empty is not None:
        raise ValueError(f"sequence {empty} has no visits")
    out = np.empty((len(seqs), 2))
    for start in range(0, len(seqs), SCORE_BATCH_SIZE):
        chunk = seqs[start : start + SCORE_BATCH_SIZE]
        trace = forward(params, Batch.from_sequences(chunk))
        out[start : start + len(chunk)] = trace.probs
    return out
