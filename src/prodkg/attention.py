"""Single-layer self-attention used as the relation extractor.

One attention block per sequence task: a learned positional matrix, a shared
two-layer point-wise feed-forward transform applied to the query and key
branches, scaled dot-product attention, and masked mean pooling of the
attended rows into one context vector.  The context vector is scored against
an output table with the negative-sampling loss; the backward pass
propagates analytic gradients through the whole chain (scoring, pooling,
attention softmax, feed-forward, positional and entity embeddings).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .embeddings import (
    PAD_ID,
    EmbeddingTable,
    GradStore,
    NumericalError,
    log_sigmoid,
    sigmoid,
)


@dataclass
class AttentionParams:
    """Learned parameters of one attention block (one per sequence task)."""

    positions: np.ndarray  # (max_len, dim)
    theta1: np.ndarray     # (dim, dim)
    b1: np.ndarray         # (dim,)
    theta2: np.ndarray     # (dim, dim)
    b2: np.ndarray         # (dim,)

    @property
    def max_len(self) -> int:
        return self.positions.shape[0]

    @property
    def dim(self) -> int:
        return self.positions.shape[1]

    @classmethod
    def init(cls, max_len: int, dim: int, rng: np.random.Generator) -> "AttentionParams":
        """Glorot-uniform transform matrices, zero biases, small positional values."""
        if max_len <= 0 or dim <= 0:
            raise ValueError("max_len and dim must be positive")
        limit = np.sqrt(6.0 / (2 * dim))
        return cls(
            positions=rng.uniform(-0.5 / dim, 0.5 / dim, size=(max_len, dim)),
            theta1=rng.uniform(-limit, limit, size=(dim, dim)),
            b1=np.zeros(dim),
            theta2=rng.uniform(-limit, limit, size=(dim, dim)),
            b2=np.zeros(dim),
        )

    def copy(self) -> "AttentionParams":
        return AttentionParams(
            self.positions.copy(), self.theta1.copy(), self.b1.copy(),
            self.theta2.copy(), self.b2.copy(),
        )

    def as_dict(self, prefix: str) -> dict[str, np.ndarray]:
        return {
            f"{prefix}.positions": self.positions,
            f"{prefix}.theta1": self.theta1,
            f"{prefix}.b1": self.b1,
            f"{prefix}.theta2": self.theta2,
            f"{prefix}.b2": self.b2,
        }


@dataclass
class SequenceBatch:
    """Padded, masked, position-indexed id sequences with targets.

    ``ids`` is (batch, max_len) with PAD fill on the right; ``mask`` is True
    at real positions.  Real entries always form a prefix, and over-long
    sequences keep their most recent ``max_len`` entries.
    """

    ids: np.ndarray
    mask: np.ndarray
    targets: np.ndarray
    task: str

    def __post_init__(self) -> None:
        if self.ids.shape != self.mask.shape:
            raise ValueError("ids and mask shapes differ")
        lengths = self.mask.sum(axis=1)
        if np.any(lengths < 1):
            raise ValueError("every batch row needs at least one unmasked position")
        if np.any(self.ids[self.mask] == PAD_ID):
            raise ValueError("PAD id at an unmasked position")
        # real entries must be a left-aligned prefix
        first_pad = np.argmin(self.mask, axis=1)
        for row, (length, cut) in enumerate(zip(lengths, first_pad)):
            if length < self.mask.shape[1] and cut != length:
                raise ValueError(f"mask of batch row {row} is not a prefix")

    def row_ids(self, row: int) -> np.ndarray:
        return self.ids[row, self.mask[row]]


def pack_sequences(sequences: list[list[int]], max_len: int, task: str,
                   targets: list[int]) -> SequenceBatch:
    """Build a batch, truncating each sequence to its most recent ``max_len`` items."""
    n = len(sequences)
    ids = np.full((n, max_len), PAD_ID, dtype=np.int64)
    mask = np.zeros((n, max_len), dtype=bool)
    for row, seq in enumerate(sequences):
        kept = list(seq)[-max_len:]
        ids[row, : len(kept)] = kept
        mask[row, : len(kept)] = True
    return SequenceBatch(ids=ids, mask=mask, targets=np.asarray(targets, dtype=np.int64), task=task)


def embed_with_positions(ids: np.ndarray, mask: np.ndarray, table: EmbeddingTable,
                         params: AttentionParams) -> np.ndarray:
    """Entity embeddings plus positional encodings; masked rows are zeroed."""
    ids = np.asarray(ids, dtype=np.int64)
    if ids.shape[0] > params.max_len:
        raise ValueError("sequence longer than the positional matrix")
    if np.any(ids[np.asarray(mask, dtype=bool)] >= table.rows) or np.any(ids < 0):
        raise ValueError("entity id out of range for table")
    out = table.values[ids] + params.positions[: ids.shape[0]]
    out[~np.asarray(mask, dtype=bool)] = 0.0
    return out


def scaled_dot_attention(
    q: np.ndarray, k: np.ndarray, v: np.ndarray, key_mask: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """softmax(q kT / sqrt(d)) v with masked keys forced to exactly zero weight."""
    dim = q.shape[1]
    logits = q @ k.T / np.sqrt(dim)
    if key_mask is not None:
        key_mask = np.asarray(key_mask, dtype=bool)
        if not key_mask.any():
            raise ValueError("all keys masked")
        logits = np.where(key_mask[None, :], logits, -np.inf)
    peak = logits.max(axis=1, keepdims=True)
    weights = np.exp(logits - peak)
    if key_mask is not None:
        weights[:, ~key_mask] = 0.0
    weights /= weights.sum(axis=1, keepdims=True)
    return weights @ v, weights


TASK_WIRING = {
    # task -> (sequence namespace, query/value table, key table, scoring table)
    "complement": ("item", "item_in", "item_out_buy", "item_out_buy"),
    "co_view": ("item", "item_in", "item_out_view", "item_out_view"),
    "search": ("word", "word", "word", "item_in"),
    "describe": ("word", "word", "word", "item_in"),
}


@dataclass
class _AttnCache:
    ids: np.ndarray
    e_in: np.ndarray
    e_out: np.ndarray
    b_in: np.ndarray
    a_in: np.ndarray
    f_in: np.ndarray
    b_out: np.ndarray
    a_out: np.ndarray
    f_out: np.ndarray
    alpha: np.ndarray
    h: np.ndarray


def _ffn_forward(e: np.ndarray, params: AttentionParams):
    pre = e @ params.theta1 + params.b1
    hidden = np.maximum(pre, 0.0)
    out = hidden @ params.theta2 + params.b2
    return out, pre, hidden


def ffn_forward(e: np.ndarray, params: AttentionParams) -> np.ndarray:
    """Row-wise two-layer transform: relu(e theta1 + b1) theta2 + b2."""
    return _ffn_forward(e, params)[0]


def _ffn_backward(d_out, e, pre, hidden, params, grads: GradStore, prefix: str):
    d_hidden = d_out @ params.theta2.T
    grads.add_dense(f"{prefix}.theta2", hidden.T @ d_out)
    grads.add_dense(f"{prefix}.b2", d_out.sum(axis=0))
    d_pre = d_hidden * (pre > 0.0)
    grads.add_dense(f"{prefix}.theta1", e.T @ d_pre)
    grads.add_dense(f"{prefix}.b1", d_pre.sum(axis=0))
    return d_pre @ params.theta1.T


def aggregate_context(
    ids: np.ndarray,
    in_table: EmbeddingTable,
    out_table: EmbeddingTable,
    params: AttentionParams,
) -> tuple[np.ndarray, np.ndarray, _AttnCache]:
    """Collapse one unpadded id sequence into a context vector.

    Queries and keys are the feed-forward transforms of the positionally
    encoded input/output embeddings; values are the raw positionally encoded
    input embeddings.  The attended rows are mean-pooled.  Returns
    ``(context, attention_weights, cache)`` with the cache reused by
    :func:`sequence_loss_grad` for the backward pass.
    """
    ids = np.asarray(ids, dtype=np.int64)
    if ids.ndim != 1 or ids.shape[0] == 0:
        raise ValueError("expected a nonempty 1-d id sequence")
    if np.any(ids == PAD_ID):
        raise ValueError("PAD id inside an unpadded sequence")
    length = ids.shape[0]
    if length > params.max_len:
        raise ValueError("sequence longer than the positional matrix; truncate first")

    pos = params.positions[:length]
    e_in = in_table.values[ids] + pos
    e_out = out_table.values[ids] + pos
    f_in, b_in, a_in = _ffn_forward(e_in, params)
    f_out, b_out, a_out = _ffn_forward(e_out, params)
    h, alpha = scaled_dot_attention(f_in, f_out, e_in)
    context = h.mean(axis=0)
    cache = _AttnCache(ids, e_in, e_out, b_in, a_in, f_in, b_out, a_out, f_out, alpha, h)
    return context, alpha, cache


def aggregate_context_backward(
    d_context: np.ndarray,
    cache: _AttnCache,
    in_table: EmbeddingTable,
    out_table: EmbeddingTable,
    params: AttentionParams,
    grads: GradStore,
    param_prefix: str,
) -> None:
    """Accumulate gradients of ``context`` w.r.t. every touched parameter."""
    length, dim = cache.e_in.shape
    d_h = np.tile(d_context / length, (length, 1))

    # h = alpha @ e_in
    d_alpha = d_h @ cache.e_in.T
    d_e_in = cache.alpha.T @ d_h

    # softmax rows: dS = alpha * (dAlpha - sum_j alpha_j dAlpha_j)
    inner = (cache.alpha * d_alpha).sum(axis=1, keepdims=True)
    d_logits = cache.alpha * (d_alpha - inner)
    scale = 1.0 / np.sqrt(dim)
    d_f_in = d_logits @ cache.f_out * scale
    d_f_out = d_logits.T @ cache.f_in * scale

    d_e_in += _ffn_backward(d_f_in, cache.e_in, cache.b_in, cache.a_in, params, grads, param_prefix)
    d_e_out = _ffn_backward(d_f_out, cache.e_out, cache.b_out, cache.a_out, params, grads, param_prefix)

    pos_grad = np.zeros_like(params.positions)
    pos_grad[:length] = d_e_in + d_e_out
    grads.add_dense(f"{param_prefix}.positions", pos_grad)

    for k, entity in enumerate(cache.ids):
        grads.add_row(in_table.name, int(entity), d_e_in[k])
        grads.add_row(out_table.name, int(entity), d_e_out[k])


def sequence_loss_grad(
    ids: np.ndarray,
    target: int,
    negatives: np.ndarray,
    tables: dict[str, EmbeddingTable],
    params: AttentionParams,
    task: str,
) -> tuple[float, GradStore]:
    """Negative-sampling loss of predicting ``target`` from the id sequence.

    The task tag selects which tables play the query/value, key and scoring
    roles.  Gradients flow end-to-end: scoring rows, attention weights,
    feed-forward transform, positional matrix and the sequence embeddings.
    """
    wiring = TASK_WIRING.get(task)
    if wiring is None:
        raise ValueError(f"unknown sequence task {task!r}")
    _, in_name, out_name, score_name = wiring
    in_table, out_table, score_table = tables[in_name], tables[out_name], tables[score_name]

    if target == PAD_ID or not 0 < target < score_table.rows:
        raise ValueError(f"invalid target id {target}")
    negatives = np.asarray(negatives, dtype=np.int64)
    if np.any(negatives == target):
        raise ValueError("target id present among negatives")

    context, _, cache = aggregate_context(ids, in_table, out_table, params)

    grads = GradStore()
    z_t = score_table.values[target]
    score_t = float(context @ z_t)
    loss = -log_sigmoid(score_t)
    coeff_t = -sigmoid(-score_t)
    d_context = coeff_t * z_t
    grads.add_row(score_table.name, target, coeff_t * context)
    for neg in negatives:
        z_n = score_table.values[neg]
        score_n = float(context @ z_n)
        loss -= log_sigmoid(-score_n)
        coeff_n = sigmoid(score_n)
        d_context = d_context + coeff_n * z_n
        grads.add_row(score_table.name, int(neg), coeff_n * context)

    aggregate_context_backward(d_context, cache, in_table, out_table, params, grads, task)
    if not np.isfinite(loss):
        raise NumericalError(f"non-finite sequence loss for task {task!r}")
    return float(loss), grads


def context_for_ranking(
    ids: np.ndarray,
    tables: dict[str, EmbeddingTable],
    params: AttentionParams,
    task: str,
) -> np.ndarray:
    """Context vector used at prediction time for sequence tasks."""
    _, in_name, out_name, _ = TASK_WIRING[task]
    ids = np.asarray(ids, dtype=np.int64)[-params.max_len:]
    context, _, _ = aggregate_context(ids, tables[in_name], tables[out_name], params)
    return context


def sequence_loss_from_batch(
    batch: SequenceBatch,
    row: int,
    negatives: np.ndarray,
    tables: dict[str, EmbeddingTable],
    params: AttentionParams,
) -> tuple[float, GradStore]:
    """Loss of one batch row; unpads the row and delegates to the sequence loss."""
    return sequence_loss_grad(batch.row_ids(row), int(batch.targets[row]),
                              negatives, tables, params, batch.task)
