"""Single-layer self-attention used as the relation extractor.

One attention block per sequence task: a learned positional matrix, a shared
two-layer point-wise feed-forward transform applied to the query and key
branches, scaled dot-product attention, and mean pooling of the attended
rows into one context vector.  Every pass runs over a padded (B, L) block of
id sequences, each row one sequence's ids followed by PAD: padded keys get
exactly zero weight and mean pooling covers only a row's valid query
positions (padding masks as in SASRec, Kang & McAuley, 2018), so a row's
context is its sequence's alone.  Training and ranking share this pass.  The
context vectors are scored against an output table with the
negative-sampling loss; the backward pass propagates analytic gradients
through the whole chain (scoring, pooling, attention softmax, feed-forward,
positional and entity embeddings).  Gradients come back as a
:class:`prodkg.embeddings.Grads`: row ids plus gradient rows per table (no
padded position among them), and dense gradients summed over the block,
whose positional entry covers only the block's first L rows.
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
    """softmax(q kT / sqrt(d)) with masked keys forced to exactly zero weight.

    ``q`` and ``k`` are (L, d) rows or (B, L, d) stacks, ``key_mask`` one
    bool per key row.
    """
    dim = q.shape[-1]
    logits = q @ np.swapaxes(k, -1, -2) / np.sqrt(dim)
    if key_mask is not None:
        key_mask = np.asarray(key_mask, dtype=bool)[..., None, :]
        if not key_mask.any(axis=-1).all():
            raise ValueError("all keys masked")
        logits = np.where(key_mask, logits, -np.inf)   # exp(-inf) is exactly 0
    weights = np.exp(logits - logits.max(axis=-1, keepdims=True))
    weights /= weights.sum(axis=-1, keepdims=True)
    return weights


TASK_WIRING = {
    # task -> (sequence namespace, query/value table, key table, scoring table)
    "complement": ("item", "item_in", "item_out_buy", "item_out_buy"),
    "co_view": ("item", "item_in", "item_out_view", "item_out_view"),
    "search": ("word", "word", "word", "item_in"),
    "describe": ("word", "word", "word", "item_in"),
}


def pad_block(sequences, max_len: int | None = None) -> np.ndarray:
    """(B, L) int64 block of B id sequences, each followed by PAD up to the
    longest; with ``max_len`` each keeps only its last ``max_len`` ids."""
    if max_len is not None:
        sequences = [sequence[-max_len:] for sequence in sequences]
    lengths = np.array([len(sequence) for sequence in sequences], dtype=np.int64)
    if lengths.size == 0 or lengths.min() == 0:
        raise ValueError("expected one or more nonempty id sequences")
    block = np.zeros((lengths.size, int(lengths.max())), dtype=np.int64)
    block[np.arange(block.shape[1]) < lengths[:, None]] = np.concatenate(sequences)
    return block


@dataclass
class _AttnCache:
    """Forward values of one block, each row's query rows stacked over its key rows."""

    ids: np.ndarray      # (B, L) padded id block
    valid: np.ndarray    # (B, L) True at a sequence's positions, False at padding
    lengths: np.ndarray  # (B,) sequence lengths
    e: np.ndarray        # (B, 2L, d) positionally encoded input rows, then output rows
    rows: np.ndarray     # (B, 2L) the rows of e at a sequence's positions
    pre: np.ndarray      # (n, d) feed-forward pre-activations of those n rows
    hidden: np.ndarray   # (n, d) feed-forward hidden rows
    f: np.ndarray        # (B, 2L, d) feed-forward outputs (0 at padding): queries, then keys
    alpha: np.ndarray    # (B, L, L) attention weights
    pooled: np.ndarray   # (B, L) column sums of alpha over the valid query rows

    @property
    def e_in(self) -> np.ndarray:
        return self.e[:, :self.ids.shape[1]]


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
    """Collapse each row of a padded (B, L) id block into a context vector.

    A 1-d sequence is a block of one.  Queries and keys are the feed-forward
    transforms of the positionally encoded input/output embeddings, computed
    as one pass over the block's unpadded rows; values are the raw
    positionally encoded input embeddings.  Padded keys get zero weight, and a row's attended rows at
    its valid positions are mean-pooled, which is the column means of those
    weight rows times the values.  Returns ``(contexts, attention_weights,
    cache)``, (B, d) and (B, L, L), with the cache reused by
    :func:`aggregate_context_backward`.
    """
    ids = np.atleast_2d(np.asarray(ids, dtype=np.int64))
    if ids.ndim != 2 or ids.shape[1] == 0:
        raise ValueError("expected a nonempty (B, L) block of id sequences")
    valid = ids != PAD_ID
    if not valid[:, 0].all() or (valid[:, 1:] > valid[:, :-1]).any():
        raise ValueError("PAD id inside a sequence, or an empty sequence; "
                         "a block row is ids, then PAD")
    length = ids.shape[1]
    if length > params.max_len:
        raise ValueError("sequence longer than the positional matrix; truncate first")

    pos = params.positions[:length]
    e = np.concatenate((in_table.values[ids] + pos, out_table.values[ids] + pos), axis=1)
    rows = np.concatenate((valid, valid), axis=1)
    f = np.zeros_like(e)
    f[rows], pre, hidden = ffn_forward(e[rows], params)
    alpha = attention_weights(f[:, :length], f[:, length:], valid)
    lengths = valid.sum(axis=1)
    # sums over a non-last axis add position by position, so padding (zero
    # weight) leaves every bit of a row's context as its sequence alone gives
    pooled = (alpha * valid[:, :, None]).sum(axis=1)
    contexts = ((pooled / lengths[:, None])[:, :, None] * e[:, :length]).sum(axis=1)
    return contexts, alpha, _AttnCache(ids, valid, lengths, e, rows, pre, hidden, f, alpha,
                                       pooled)


def aggregate_context_backward(
    d_context: np.ndarray,
    cache: _AttnCache,
    params: AttentionParams,
    param_prefix: str,
) -> tuple[np.ndarray, np.ndarray, dict]:
    """Gradients of the block's contexts w.r.t. every parameter they touched.

    ``d_context`` is (B, d), one row per block row.  Returns ``(d_e_in,
    d_e_out, dense)``: (B, L, d) gradient rows of the input and the output
    embedding per position, exactly zero at padded positions, and the dense
    gradients summed over the block, keyed ``<param_prefix>.<name>``, the
    positional one covering the block's L positions.  Both feed-forward
    branches go back as one pass over the block's unpadded rows.
    """
    alpha, f = cache.alpha, cache.f
    length, dim = cache.ids.shape[1], f.shape[2]
    d_h = d_context / cache.lengths[:, None]   # the gradient of every attended row
    e_in = cache.e_in

    # h = alpha @ e_in: every valid row of d_alpha is g = e_in @ d_h
    g = e_in @ d_h[:, :, None]
    d_e_in = cache.pooled[:, :, None] * d_h[:, None, :]
    # softmax rows: dS = alpha * (dAlpha - sum_j alpha_j dAlpha_j).  Padded
    # keys have alpha = 0; a padded query row's f is 0 and its d_f is dropped
    d_logits = alpha * (np.swapaxes(g, 1, 2) - alpha @ g)
    d_f = np.concatenate((d_logits @ f[:, length:], np.swapaxes(d_logits, 1, 2) @ f[:, :length]),
                         axis=1)[cache.rows]
    d_f *= 1.0 / np.sqrt(dim)

    d_pre = (d_f @ params.theta2.T) * (cache.pre > 0.0)
    d_e = np.zeros_like(cache.e)
    d_e[cache.rows] = d_pre @ params.theta1.T
    d_e_in += d_e[:, :length]
    d_e_out = d_e[:, length:]
    dense = {f"{param_prefix}.theta2": cache.hidden.T @ d_f,
             f"{param_prefix}.b2": d_f.sum(axis=0),
             f"{param_prefix}.theta1": cache.e[cache.rows].T @ d_pre,
             f"{param_prefix}.b1": d_pre.sum(axis=0),
             f"{param_prefix}.positions": (d_e_in + d_e_out).sum(axis=0)}
    return d_e_in, d_e_out, dense


def sequence_loss_grad(
    ids: np.ndarray,
    target,
    negatives: np.ndarray,
    tables: dict[str, EmbeddingTable],
    params: AttentionParams,
    task: str,
) -> tuple[float, Grads]:
    """Negative-sampling loss of predicting each block row's target from its sequence.

    ``ids`` is a padded (B, L) block (a 1-d sequence is a block of one),
    ``target`` the B target ids and ``negatives`` the (B, k) negative ids.
    The loss and every gradient are sums over the block's examples.  The task
    tag selects which tables play the query/value, key and scoring roles.
    Gradients flow end-to-end: scoring rows, attention weights, feed-forward
    transform, positional matrix and the sequence embeddings.  Each table's
    rows come example by example, each in the order the backward pass
    produces them: the scored rows, then position by position the
    query/value row and the key row.
    """
    wiring = TASK_WIRING.get(task)
    if wiring is None:
        raise ValueError(f"unknown sequence task {task!r}")
    _, in_name, out_name, score_name = wiring
    in_table, out_table, score_table = tables[in_name], tables[out_name], tables[score_name]

    contexts, _, cache = aggregate_context(ids, in_table, out_table, params)
    loss, d_context, score_rows, score_grads = sampled_softmax_loss_grad(
        contexts, score_table, np.atleast_1d(target), np.atleast_2d(negatives))
    if not np.isfinite(loss):
        raise NumericalError(f"non-finite sequence loss for task {task!r}")

    d_e_in, d_e_out, dense = aggregate_context_backward(d_context, cache, params, task)
    ids, valid, dim = cache.ids, cache.valid, params.dim
    if in_name == out_name:
        # one word table plays both roles: rows in_0, out_0, in_1, out_1, ...
        rows = {score_name: score_rows.ravel(), in_name: np.repeat(ids[valid], 2)}
        row_grads = {score_name: score_grads.reshape(-1, dim),
                     in_name: np.stack((d_e_in, d_e_out), axis=2)[valid].reshape(-1, dim)}
    else:
        # the key table is the scoring table: an example's scored rows come first
        keep = np.concatenate((np.ones(score_rows.shape, dtype=bool), valid), axis=1)
        rows = {score_name: np.concatenate((score_rows, ids), axis=1)[keep], in_name: ids[valid]}
        row_grads = {score_name: np.concatenate((score_grads, d_e_out), axis=1)[keep],
                     in_name: d_e_in[valid]}
    return loss, Grads(rows, row_grads, dense)


def context_for_ranking(
    sequences,
    tables: dict[str, EmbeddingTable],
    params: AttentionParams,
    task: str,
) -> np.ndarray:
    """(Q, d) context vectors of Q id sequences at prediction time, each cut
    to its last ``params.max_len`` ids, from one padded pass."""
    _, in_name, out_name, _ = TASK_WIRING[task]
    contexts, _, _ = aggregate_context(pad_block(sequences, params.max_len),
                                       tables[in_name], tables[out_name], params)
    return contexts
