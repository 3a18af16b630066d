"""Single-layer self-attention used as the relation extractor.

One attention block per sequence task: a learned positional matrix, a shared
two-layer point-wise feed-forward transform applied to the query and key
branches, scaled dot-product attention, and mean pooling of the attended
rows into one context vector.  The context vector is scored against an
output table with the negative-sampling loss; the backward pass propagates
analytic gradients through the whole chain (scoring, pooling, attention
softmax, feed-forward, positional and entity embeddings).  Gradients come
back as a :class:`prodkg.embeddings.Grads`: row ids plus gradient rows per
table, and dense gradients whose positional entry covers only the first L
rows for a sequence of length L.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .embeddings import (
    PAD_ID,
    EmbeddingTable,
    Grads,
    NumericalError,
    sampled_softmax_loss_grad,
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


def ffn_forward(e: np.ndarray, params: AttentionParams):
    """Row-wise two-layer transform relu(e theta1 + b1) theta2 + b2.

    Returns the output together with the pre-activation and hidden rows the
    backward pass reuses.
    """
    pre = e @ params.theta1 + params.b1
    hidden = np.maximum(pre, 0.0)
    out = hidden @ params.theta2 + params.b2
    return out, pre, hidden


def _ffn_backward(d_out, e, pre, hidden, params):
    """Input gradient and the (theta2, b2, theta1, b1) gradients of one branch."""
    d_hidden = d_out @ params.theta2.T
    d_pre = d_hidden * (pre > 0.0)
    return d_pre @ params.theta1.T, (hidden.T @ d_out, d_out.sum(axis=0),
                                     e.T @ d_pre, d_pre.sum(axis=0))


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
    f_in, b_in, a_in = ffn_forward(e_in, params)
    f_out, b_out, a_out = ffn_forward(e_out, params)
    h, alpha = scaled_dot_attention(f_in, f_out, e_in)
    context = h.mean(axis=0)
    cache = _AttnCache(ids, e_in, e_out, b_in, a_in, f_in, b_out, a_out, f_out, alpha, h)
    return context, alpha, cache


def aggregate_context_backward(
    d_context: np.ndarray,
    cache: _AttnCache,
    params: AttentionParams,
    param_prefix: str,
) -> tuple[np.ndarray, np.ndarray, dict]:
    """Gradients of ``context`` w.r.t. every parameter it touched.

    Returns ``(d_e_in, d_e_out, dense)``: one gradient row per sequence
    position for the input and the output embedding, and the dense
    gradients keyed ``<param_prefix>.<name>``, the positional one covering
    only the sequence's positions.
    """
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

    d_in, in_grads = _ffn_backward(d_f_in, cache.e_in, cache.b_in, cache.a_in, params)
    d_e_in += d_in
    d_e_out, out_grads = _ffn_backward(d_f_out, cache.e_out, cache.b_out, cache.a_out, params)
    dense = {f"{param_prefix}.{name}": g_in + g_out
             for name, g_in, g_out in zip(("theta2", "b2", "theta1", "b1"), in_grads, out_grads)}
    dense[f"{param_prefix}.positions"] = d_e_in + d_e_out
    return d_e_in, d_e_out, dense


def sequence_loss_grad(
    ids: np.ndarray,
    target: int,
    negatives: np.ndarray,
    tables: dict[str, EmbeddingTable],
    params: AttentionParams,
    task: str,
) -> tuple[float, Grads]:
    """Negative-sampling loss of predicting ``target`` from the id sequence.

    The task tag selects which tables play the query/value, key and scoring
    roles.  Gradients flow end-to-end: scoring rows, attention weights,
    feed-forward transform, positional matrix and the sequence embeddings.
    Each table's rows come in the order the backward pass produces them:
    the scored rows, then position by position the query/value row and the
    key row.
    """
    wiring = TASK_WIRING.get(task)
    if wiring is None:
        raise ValueError(f"unknown sequence task {task!r}")
    _, in_name, out_name, score_name = wiring
    in_table, out_table, score_table = tables[in_name], tables[out_name], tables[score_name]

    context, _, cache = aggregate_context(ids, in_table, out_table, params)
    loss, d_context, score_rows, score_grads = sampled_softmax_loss_grad(
        context, score_table, target, negatives)
    if not np.isfinite(loss):
        raise NumericalError(f"non-finite sequence loss for task {task!r}")

    d_e_in, d_e_out, dense = aggregate_context_backward(d_context, cache, params, task)
    ids = cache.ids
    if in_name == out_name:
        # one word table plays both roles: rows in_0, out_0, in_1, out_1, ...
        rows = {score_name: score_rows, in_name: np.repeat(ids, 2)}
        row_grads = {score_name: score_grads,
                     in_name: np.stack((d_e_in, d_e_out), axis=1).reshape(-1, params.dim)}
    else:
        # the key table is the scoring table: its scored rows come first
        rows = {score_name: np.concatenate((score_rows, ids)), in_name: ids}
        row_grads = {score_name: np.concatenate((score_grads, d_e_out)), in_name: d_e_in}
    return loss, Grads(rows, row_grads, dense)


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
