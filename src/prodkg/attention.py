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


def attention_weights(
    q: np.ndarray, k: np.ndarray, key_mask: np.ndarray | None = None
) -> np.ndarray:
    """softmax(q kT / sqrt(d)) with masked keys forced to exactly zero weight."""
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
    return weights


def scaled_dot_attention(
    q: np.ndarray, k: np.ndarray, v: np.ndarray, key_mask: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """softmax(q kT / sqrt(d)) v and the weights, masked keys at exactly zero weight."""
    weights = attention_weights(q, k, key_mask)
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
    """Forward values of one sequence, query rows stacked over key rows."""

    ids: np.ndarray
    e: np.ndarray       # (2L, d) positionally encoded input rows, then output rows
    pre: np.ndarray     # (2L, d) feed-forward pre-activations
    hidden: np.ndarray  # (2L, d) feed-forward hidden rows
    f: np.ndarray       # (2L, d) feed-forward outputs: queries, then keys
    alpha: np.ndarray   # (L, L) attention weights

    @property
    def e_in(self) -> np.ndarray:
        return self.e[:self.ids.size]


def ffn_forward(e: np.ndarray, params: AttentionParams):
    """Row-wise two-layer transform relu(e theta1 + b1) theta2 + b2.

    Returns the output together with the pre-activation and hidden rows the
    backward pass reuses.
    """
    pre = e @ params.theta1 + params.b1
    hidden = np.maximum(pre, 0.0)
    out = hidden @ params.theta2 + params.b2
    return out, pre, hidden


def aggregate_context(
    ids: np.ndarray,
    in_table: EmbeddingTable,
    out_table: EmbeddingTable,
    params: AttentionParams,
) -> tuple[np.ndarray, np.ndarray, _AttnCache]:
    """Collapse one unpadded id sequence into a context vector.

    Queries and keys are the feed-forward transforms of the positionally
    encoded input/output embeddings, computed as one stacked (2L, d) pass;
    values are the raw positionally encoded input embeddings.  The attended
    rows are mean-pooled, which is the column means of the weights times the
    values.  Returns ``(context, attention_weights, cache)`` with the cache
    reused by :func:`aggregate_context_backward`.
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
    e = np.concatenate((in_table.values[ids] + pos, out_table.values[ids] + pos))
    f, pre, hidden = ffn_forward(e, params)
    e_in = e[:length]
    alpha = attention_weights(f[:length], f[length:])
    context = (alpha.sum(axis=0) / length) @ e_in
    return context, alpha, _AttnCache(ids, e, pre, hidden, f, alpha)


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
    only the sequence's positions.  Both feed-forward branches go back
    through one stacked (2L, d) pass.
    """
    alpha, f = cache.alpha, cache.f
    length, dim = alpha.shape[0], f.shape[1]
    d_h = d_context / length            # the gradient of every attended row
    e_in = cache.e_in

    # h = alpha @ e_in: every row of d_alpha is g = e_in @ d_h
    g = e_in @ d_h
    d_e_in = np.outer(alpha.sum(axis=0), d_h)
    # softmax rows: dS = alpha * (dAlpha - sum_j alpha_j dAlpha_j)
    d_logits = alpha * (g - (alpha @ g)[:, None])
    scale = 1.0 / np.sqrt(dim)
    d_f = np.concatenate((d_logits @ f[length:], d_logits.T @ f[:length]))
    d_f *= scale

    d_pre = (d_f @ params.theta2.T) * (cache.pre > 0.0)
    d_e = d_pre @ params.theta1.T
    d_e_in += d_e[:length]
    d_e_out = d_e[length:]
    dense = {f"{param_prefix}.theta2": cache.hidden.T @ d_f,
             f"{param_prefix}.b2": d_f.sum(axis=0),
             f"{param_prefix}.theta1": cache.e.T @ d_pre,
             f"{param_prefix}.b1": d_pre.sum(axis=0),
             f"{param_prefix}.positions": d_e_in + d_e_out}
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
