"""Frozen oracles: the per-example training step and the per-edge category
pre-training as they were before their fast paths.

The live attention step runs a padded block of sequences through one pass,
both feed-forward branches stacked, and scores all sampled rows in one
vectorised pass; the live isa loss scores a batch's (product, label) rows
in one sampled-softmax call; the live task and negative draws search their
cumulative tables in batches; the live ball pre-training steps one
dependency level of edges at a time.  The code below
is the sequential version each replaced, computing as it did (renamed, and
without its input checks) so the tests can hold the live code to it.
"""

from dataclasses import dataclass

import numpy as np

from prodkg import poincare
from prodkg.attention import TASK_WIRING
from prodkg.embeddings import NumericalError, log_sigmoid, sigmoid
from prodkg.poincare import check_forest, poincare_distance_grad, riemannian_update

MAX_RESAMPLE_TRIES = 32


# --- attention: two feed-forward branches, per-row scoring ----------------------

def scaled_dot_attention(q, k, v):
    dim = q.shape[1]
    logits = q @ k.T / np.sqrt(dim)
    peak = logits.max(axis=1, keepdims=True)
    weights = np.exp(logits - peak)
    weights /= weights.sum(axis=1, keepdims=True)
    return weights @ v, weights


@dataclass
class AttnCache:
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


def ffn_forward(e, params):
    pre = e @ params.theta1 + params.b1
    hidden = np.maximum(pre, 0.0)
    out = hidden @ params.theta2 + params.b2
    return out, pre, hidden


def ffn_backward(d_out, e, pre, hidden, params):
    d_hidden = d_out @ params.theta2.T
    d_pre = d_hidden * (pre > 0.0)
    return d_pre @ params.theta1.T, (hidden.T @ d_out, d_out.sum(axis=0),
                                     e.T @ d_pre, d_pre.sum(axis=0))


def aggregate_context(ids, in_table, out_table, params):
    ids = np.asarray(ids, dtype=np.int64)
    length = ids.shape[0]
    pos = params.positions[:length]
    e_in = in_table.values[ids] + pos
    e_out = out_table.values[ids] + pos
    f_in, b_in, a_in = ffn_forward(e_in, params)
    f_out, b_out, a_out = ffn_forward(e_out, params)
    h, alpha = scaled_dot_attention(f_in, f_out, e_in)
    context = h.mean(axis=0)
    cache = AttnCache(ids, e_in, e_out, b_in, a_in, f_in, b_out, a_out, f_out, alpha, h)
    return context, alpha, cache


def aggregate_context_backward(d_context, cache, params, param_prefix):
    length, dim = cache.e_in.shape
    d_h = np.tile(d_context / length, (length, 1))
    d_alpha = d_h @ cache.e_in.T
    d_e_in = cache.alpha.T @ d_h
    inner = (cache.alpha * d_alpha).sum(axis=1, keepdims=True)
    d_logits = cache.alpha * (d_alpha - inner)
    scale = 1.0 / np.sqrt(dim)
    d_f_in = d_logits @ cache.f_out * scale
    d_f_out = d_logits.T @ cache.f_in * scale
    d_in, in_grads = ffn_backward(d_f_in, cache.e_in, cache.b_in, cache.a_in, params)
    d_e_in += d_in
    d_e_out, out_grads = ffn_backward(d_f_out, cache.e_out, cache.b_out, cache.a_out, params)
    dense = {f"{param_prefix}.{name}": g_in + g_out
             for name, g_in, g_out in zip(("theta2", "b2", "theta1", "b1"), in_grads, out_grads)}
    dense[f"{param_prefix}.positions"] = d_e_in + d_e_out
    return d_e_in, d_e_out, dense


def sampled_softmax_loss_grad(query, table, target, negatives):
    query = np.asarray(query, dtype=float)
    if not np.isfinite(query).all():
        raise NumericalError("non-finite query vector")
    negatives = np.asarray(negatives, dtype=np.int64)
    z_target = table.values[target]
    score_t = float(query @ z_target)
    loss = -log_sigmoid(score_t)
    coeffs = np.empty(negatives.size + 1)
    coeffs[0] = -sigmoid(-score_t)
    grad_query = coeffs[0] * z_target
    for slot, neg in enumerate(negatives, 1):
        z_neg = table.values[neg]
        score_n = float(query @ z_neg)
        loss -= log_sigmoid(-score_n)
        coeffs[slot] = sigmoid(score_n)
        grad_query = grad_query + coeffs[slot] * z_neg
    rows = np.concatenate(([target], negatives))
    return float(loss), grad_query, rows, np.outer(coeffs, query)


def sequence_loss_grad(ids, target, negatives, tables, params, task):
    """Loss, per-table (rows, row grads) and dense gradients of one example."""
    _, in_name, out_name, score_name = TASK_WIRING[task]
    in_table, out_table, score_table = tables[in_name], tables[out_name], tables[score_name]
    context, _, cache = aggregate_context(ids, in_table, out_table, params)
    loss, d_context, score_rows, score_grads = sampled_softmax_loss_grad(
        context, score_table, target, negatives)
    d_e_in, d_e_out, dense = aggregate_context_backward(d_context, cache, params, task)
    ids = cache.ids
    if in_name == out_name:
        rows = {score_name: score_rows, in_name: np.repeat(ids, 2)}
        row_grads = {score_name: score_grads,
                     in_name: np.stack((d_e_in, d_e_out), axis=1).reshape(-1, params.dim)}
    else:
        rows = {score_name: np.concatenate((score_rows, ids)), in_name: ids}
        row_grads = {score_name: np.concatenate((score_grads, d_e_out)), in_name: d_e_in}
    return loss, rows, row_grads, dense


def isa_loss(item_vec, labels, category_table, negatives):
    """The product-to-category loss, one label and one negative at a time."""
    item_vec = np.asarray(item_vec, dtype=float)
    loss = 0.0
    grad = np.zeros_like(item_vec)
    for label, negs in zip(labels, negatives):
        c_pos = category_table.values[label]
        score = float(item_vec @ c_pos)
        loss -= log_sigmoid(score)
        grad += -sigmoid(-score) * c_pos
        for neg in np.asarray(negs, dtype=np.int64):
            c_neg = category_table.values[neg]
            s_neg = float(item_vec @ c_neg)
            loss -= log_sigmoid(-s_neg)
            grad += sigmoid(s_neg) * c_neg
    return float(loss), grad


# --- draws: rng.choice per task, one double per negative try ----------------------

def task_probabilities(tasks, schedule="weighted"):
    sizes = np.array([1.0 if schedule == "uniform" else len(examples)
                      for examples in tasks.values()], dtype=float)
    return sizes / sizes.sum()


def sample_task(tasks, rng, schedule="weighted", probs=None):
    if schedule not in ("weighted", "uniform"):  # a task name: that task trains alone
        return schedule
    if probs is None:
        probs = task_probabilities(tasks, schedule)
    return list(tasks)[int(rng.choice(len(tasks), p=probs))]


def sample_negatives(sampler, k, exclude=()):
    """``NegativeSampler.sample`` on ``sampler``'s tables and generator."""
    excluded = set(exclude)
    out = np.empty(k, dtype=np.int64)
    for slot in range(k):
        picked = -1
        for _ in range(MAX_RESAMPLE_TRIES):
            u = sampler.rng.random() * sampler.total
            candidate = int(np.searchsorted(sampler.cumulative, u, side="right"))
            if candidate not in excluded:
                picked = candidate
                break
        if picked < 0:
            allowed = sampler.weights.copy()
            for idx in excluded:
                if 0 <= idx < allowed.shape[0]:
                    allowed[idx] = 0.0
            total = allowed.sum()
            if total <= 0:
                raise ValueError("exclusions cover the entire vocabulary")
            cumulative = np.cumsum(allowed)
            u = sampler.rng.random() * total
            picked = int(np.searchsorted(cumulative, u, side="right"))
        out[slot] = picked
    return out


# --- category pre-training: one edge at a time --------------------------------------

def hierarchy_loss_grad(parent, candidates, true_index, table):
    candidates = np.asarray(candidates, dtype=np.int64)
    dists, grad_cand, grad_par = poincare_distance_grad(
        table.values[candidates], table.values[parent])
    logits = -dists
    peak = logits.max()
    probs = np.exp(logits - peak)
    probs /= probs.sum()
    loss = float(-np.log(probs[true_index]))
    coeffs = -probs
    coeffs[true_index] += 1.0
    rows = np.append(candidates, parent)
    grads = np.vstack((coeffs[:, None] * grad_cand, coeffs @ grad_par))
    return loss, rows, grads


def hierarchy_pretrain(edges, table, epochs=50, negatives=10, seed=0):
    check_forest(edges)
    banned_of = {}
    for child, par in edges:
        banned_of.setdefault(par, [par]).append(child)
    all_ids = np.arange(1, table.rows)
    pool_of = {par: np.setdiff1d(all_ids, banned) for par, banned in banned_of.items()}
    edge_list = [(child, par, pool_of[par]) for child, par in edges]

    rng = np.random.default_rng(seed)
    losses = []
    for epoch in range(epochs):
        lr = poincare.BALL_LR / 10.0 if epoch < poincare.BURN_IN_EPOCHS else poincare.BALL_LR
        order = rng.permutation(len(edge_list))
        total = 0.0
        for idx in order:
            child, par, pool = edge_list[idx]
            if pool.size == 0:
                continue
            negs = rng.choice(pool, size=min(negatives, pool.size), replace=False)
            candidates = np.concatenate(([child], negs))
            loss, rows, grads = hierarchy_loss_grad(par, candidates, 0, table)
            total += loss
            table.values[rows] = riemannian_update(table.values[rows], grads, lr)
        losses.append(total / max(len(edge_list), 1))
    table.validate()
    return losses
