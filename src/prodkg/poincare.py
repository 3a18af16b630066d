"""Unit-ball geometry for the category hierarchy.

Categories are embedded in the open unit ball, trained on child->parent
edges with a sampled softmax over negative candidates ranked by ball
distance.  Updates rescale the Euclidean gradient by the inverse metric
factor ((1-|x|^2)^2 / 4) and project back inside the ball.  After
pre-training the category table is frozen: the isa task of
:mod:`prodkg.trainer` ties products to it with a gradient that flows only
to the product side.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import check_forest
from .embeddings import EmbeddingTable, NumericalError

# Guards the arcosh derivative near coincident points.
_GAMMA_FLOOR = 1e-12


@dataclass
class BallConfig:
    """Knobs for ball-geometry training."""

    eps_ball: float = 1e-5
    burn_in_epochs: int = 10
    lr: float = 0.1

    def __post_init__(self) -> None:
        if not 0.0 < self.eps_ball < 1.0:
            raise ValueError("eps_ball must lie in (0, 1)")


def _sq_norms(x: np.ndarray) -> np.ndarray:
    """Squared norm of each row, kept as a trailing axis of length 1."""
    return (x * x).sum(axis=-1, keepdims=True)


def _check_inside(sq: np.ndarray, label: str) -> None:
    if (sq >= 1.0).any():
        raise ValueError(f"{label} lies on or outside the unit ball (|x|^2 = {np.max(sq):.6f})")


def poincare_distance(x: np.ndarray, y: np.ndarray) -> float:
    """arcosh(1 + 2 |x-y|^2 / ((1-|x|^2)(1-|y|^2))) for points inside the ball."""
    return float(poincare_distance_grad(x, y)[0])


def poincare_distance_grad(x: np.ndarray, y: np.ndarray) -> tuple:
    """Distance plus its Euclidean partial derivatives w.r.t. both points.

    ``x`` and ``y`` are points or stacks of rows that broadcast together: a
    (n, d) stack against one (d,) point gives n distances and two (n, d)
    gradients.  The derivative of arcosh degenerates as the points coincide;
    the 1/sqrt(gamma^2 - 1) factor is floored to keep the step finite there.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    sq_x = _sq_norms(x)
    sq_y = _sq_norms(y)
    _check_inside(sq_x, "x")
    _check_inside(sq_y, "y")
    alpha = 1.0 - sq_x
    beta = 1.0 - sq_y
    gamma = 1.0 + 2.0 * _sq_norms(x - y) / (alpha * beta)

    root = np.sqrt(np.maximum(gamma * gamma - 1.0, _GAMMA_FLOOR))
    dot = (x * y).sum(axis=-1, keepdims=True)
    grad_x = (4.0 / (beta * root)) * (((sq_y - 2.0 * dot + 1.0) / alpha**2) * x - y / alpha)
    grad_y = (4.0 / (alpha * root)) * (((sq_x - 2.0 * dot + 1.0) / beta**2) * y - x / beta)
    return np.arccosh(gamma)[..., 0], grad_x, grad_y


def riemannian_update(row: np.ndarray, euclidean_grad: np.ndarray, lr: float,
                      config: BallConfig) -> np.ndarray:
    """One metric-rescaled gradient step with hard projection into the ball, per row."""
    euclidean_grad = np.asarray(euclidean_grad, dtype=float)
    if not np.isfinite(euclidean_grad).all():
        raise NumericalError("non-finite gradient in ball update")
    sq = _sq_norms(row)
    _check_inside(sq, "row")
    factor = (1.0 - sq) ** 2 / 4.0
    updated = row - lr * factor * euclidean_grad
    limit = 1.0 - config.eps_ball
    # limit / max(norm, limit) is exactly 1.0 for rows already inside the margin
    return updated * (limit / np.maximum(np.sqrt(_sq_norms(updated)), limit))


def hierarchy_loss_grad(
    parent: int | np.ndarray,
    candidates: np.ndarray,
    true_index: int,
    table: EmbeddingTable,
) -> tuple[float | np.ndarray, np.ndarray, np.ndarray]:
    """Sampled-softmax loss of picking the true child among candidates.

    Candidate logits are negative ball distances to the parent; the loss is
    the negative log-probability of ``candidates[true_index]``.  Returns
    ``(loss, rows, grads)``: ``rows`` is the candidates then the parent, and
    ``grads[j]`` the Euclidean gradient for ``rows[j]`` (softmax weights
    chained through the distance derivatives); a repeated row sums its grads.
    A (B,) stack of parents with (B, n) candidates gives B losses, (B, n + 1)
    rows and (B, n + 1, d) grads, each edge's bit for bit as on its own.
    """
    candidates = np.asarray(candidates, dtype=np.int64)
    parent = np.asarray(parent, dtype=np.int64)
    dists, grad_cand, grad_par = poincare_distance_grad(
        table.values[candidates], table.values[parent][..., None, :])
    logits = -dists
    probs = np.exp(logits - logits.max(axis=-1, keepdims=True))
    probs /= probs.sum(axis=-1, keepdims=True)
    loss = -np.log(probs[..., true_index])

    # d loss / d dist_j = 1[j = true] - p_j  (sign flip of the logit derivative)
    coeffs = -probs
    coeffs[..., true_index] += 1.0

    rows = np.concatenate((candidates, parent[..., None]), axis=-1)
    grads = np.concatenate((coeffs[..., None] * grad_cand, coeffs[..., None, :] @ grad_par),
                           axis=-2)
    return (float(loss) if loss.ndim == 0 else loss), rows, grads


def dependency_levels(step_rows: list[np.ndarray], n_rows: int) -> np.ndarray:
    """The level of each step in a sequence of steps that read and write rows.

    A step's level is 1 + the highest level of the last writers of its rows
    (0 for a row nobody wrote), so the steps of one level touch disjoint
    rows, and running the levels in order, each level's steps in any order,
    reads and writes every row exactly as running the steps in sequence.
    """
    last = np.zeros(n_rows, dtype=np.int64)
    levels = np.empty(len(step_rows), dtype=np.int64)
    for step, rows in enumerate(step_rows):
        levels[step] = last[rows] = last[rows].max() + 1
    return levels


def hierarchy_pretrain(
    edges: list[tuple[int, int]],
    table: EmbeddingTable,
    config: BallConfig,
    epochs: int = 50,
    negatives: int = 10,
    seed: int = 0,
) -> list[float]:
    """Train the category table on child->parent edges; returns per-epoch losses.

    Negatives are drawn uniformly over categories that are neither the edge
    endpoints nor siblings (other children of the same parent).  The first
    ``burn_in_epochs`` run at a tenth of the learning rate.  The table is
    updated in place and is meant to be frozen afterwards.

    This is per-edge SGD in a shuffled order: each edge steps its rows
    (distinct candidates, then the parent) once.  An epoch draws its order
    and every edge's negatives first, since no draw reads the table; then
    edges of one :func:`dependency_levels` level, which touch disjoint rows,
    step as one (B, rows, d) batch, bit for bit the per-edge steps in order.
    """
    if table.geometry != "poincare":
        raise ValueError("hierarchy pre-training expects a ball-geometry table")
    check_forest(edges)
    # An edge bans its endpoints and siblings: its parent and the parent's children.
    banned_of: dict[int, list[int]] = {}
    for child, par in edges:
        banned_of.setdefault(par, [par]).append(child)
    all_ids = np.arange(1, table.rows)
    pool_of = {par: np.setdiff1d(all_ids, banned) for par, banned in banned_of.items()}
    edge_list = [(child, par, pool_of[par]) for child, par in edges]

    rng = np.random.default_rng(seed)
    losses: list[float] = []
    for epoch in range(epochs):
        lr = config.lr / 10.0 if epoch < config.burn_in_epochs else config.lr
        steps = []                      # each edge's rows: child, negatives, parent
        for idx in rng.permutation(len(edge_list)):
            child, par, pool = edge_list[idx]
            if pool.size:
                negs = rng.choice(pool, size=min(negatives, pool.size), replace=False)
                steps.append(np.concatenate(([child], negs, [par])))
        batches: dict[tuple, list[int]] = {}
        for step, level in enumerate(dependency_levels(steps, table.rows).tolist()):
            batches.setdefault((level, steps[step].size), []).append(step)
        step_losses = np.empty(len(steps))
        for key in sorted(batches):
            picked = batches[key]
            rows = np.array([steps[step] for step in picked])
            step_losses[picked], _, grads = hierarchy_loss_grad(rows[:, -1], rows[:, :-1], 0, table)
            table.values[rows] = riemannian_update(table.values[rows], grads, lr, config)
        total = 0.0
        for loss in step_losses.tolist():   # summed in the edges' order
            total += loss
        losses.append(total / max(len(edge_list), 1))
    table.validate(config.eps_ball)
    return losses
