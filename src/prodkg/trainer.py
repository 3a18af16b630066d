"""Multi-task training over the six product relations.

One training step samples a task, draws a minibatch from that task's
dataset, and applies the summed gradient of its examples (the sum step
rule: each row steps by the sum of its per-example gradients at the
learning rate, as a batch of one would).  Every task's minibatch is one
loss call on a block: a sequence task's is one padded attention pass.  An
epoch is ceil(total / batch) steps.  Task sampling is proportional to
dataset size by default; the uniform schedule, and a schedule naming one
task, which then trains alone, are the comparison runs.  Every task is
validated by hit@10 after each epoch, into one ``{epoch: {task: hit@10}}``
history; it drives early stopping and feeds the task-correlation
diagnostic.
"""
from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np

from .embeddings import (
    PAD_ID,
    Grads,
    NegativeSampler,
    NumericalError,
    sampled_softmax_loss_grad,
    sgd_update,
)
from .attention import TASK_WIRING, pad_block, sequence_loss_grad
from .evaluation import rank_tail
from .model import PkgParams
from .ranking import rank_candidates

TASK_NAMES = ("substitute", "complement", "co_view", "search", "describe", "isa")
SEQUENCE_TASKS = tuple(sorted(TASK_WIRING))
# a validation metric must rise by more than this to count as an improvement
IMPROVE_EPS = 1e-4


@dataclass
class TrainConfig:
    lr: float = 0.1
    # Examples per step, summed (not averaged): a mean would shrink each
    # row's step by the batch size, since examples rarely share rows.
    batch_size: int = 8
    negatives: int = 3
    patience: int = 5
    max_epochs: int = 10
    seed: int = 7
    schedule: str = "weighted"          # weighted | uniform | a task name, trained alone
    validation_cap: int = 400

    def __post_init__(self):
        if self.patience < 1:
            raise ValueError("patience must be >= 1")
        if self.schedule not in ("weighted", "uniform", *TASK_NAMES):
            raise ValueError(f"unknown schedule {self.schedule!r}; choose weighted, uniform "
                             f"or a task: {' '.join(TASK_NAMES)}")

    @property
    def trained_task(self) -> str | None:
        """The task a single-task schedule trains alone; None for a mixed run."""
        return self.schedule if self.schedule in TASK_NAMES else None


def substitution_loss(
    pairs,
    tables: dict,
    negatives_forward: np.ndarray,
    negatives_backward: np.ndarray,
) -> tuple[float, Grads]:
    """Symmetric pair loss of one (a, b) pair with (k,) negatives per
    direction, or the sum over a (B, 2) block with (B, k) per direction.

    Both directions score the product input table by the plain inner
    product, so swapping a pair with mirrored negatives yields the identical
    value.  A pair emits its forward scored rows, a, backward ones, then b.
    """
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    if (pairs[:, 0] == pairs[:, 1]).any():
        raise ValueError("substitution pair with identical items")
    table = tables["item_in"]
    queries = pairs.ravel()
    negatives = np.stack((negatives_forward, negatives_backward), axis=-2)
    loss, grad_query, rows, grads = sampled_softmax_loss_grad(
        table.values[queries], table, pairs[:, ::-1].ravel(),
        negatives.reshape(queries.size, -1))
    return loss, Grads({table.name: np.concatenate((rows, queries[:, None]), axis=1).ravel()},
                       {table.name: np.concatenate((grads, grad_query[:, None]), axis=1)
                        .reshape(-1, table.dim)}, {})


def isa_example_loss(examples, params: PkgParams,
                     negatives: np.ndarray) -> tuple[float, Grads]:
    """Product-to-category loss of (product, labels) examples: one (product,
    label) row per label, each with its row of ``negatives``, scored by the
    inner product with the frozen category table; only products get grads."""
    if not all(labels for _item, labels in examples):
        raise ValueError("empty label set")
    items = np.array([item for item, labels in examples for _ in labels], dtype=np.int64)
    labels = np.array([label for _item, labels in examples for label in labels], dtype=np.int64)
    table = params.tables["item_in"]
    loss, grad_items, _rows, _grads = sampled_softmax_loss_grad(
        table.values[items], params.tables["category"], labels, negatives)
    return loss, Grads({table.name: items}, {table.name: grad_items}, {})


def task_cdf(tasks: dict, schedule: str = "weighted") -> np.ndarray:
    """Cumulative per-step draw probabilities of the tasks of ``tasks`` (task
    -> examples), in its order (uniform, or else size-proportional),
    normalised as ``rng.choice(p=...)`` normalises them."""
    sizes = np.array([1.0 if schedule == "uniform" else len(examples)
                      for examples in tasks.values()], dtype=float)
    cdf = (sizes / sizes.sum()).cumsum()
    cdf /= cdf[-1]
    return cdf


def sample_task(tasks: dict, rng: np.random.Generator,
                schedule: str = "weighted", cdf: np.ndarray | None = None) -> str:
    """Draw the name of the next task: size-proportional or uniform.

    One ``rng.random()`` searched in ``cdf`` (from :func:`task_cdf`, which
    saves recomputing it on every draw) picks the task ``rng.choice(p=...)``
    would pick from the same double.
    """
    if not tasks:
        raise ValueError("no active tasks")
    if cdf is None:
        cdf = task_cdf(tasks, schedule)
    return list(tasks)[int(cdf.searchsorted(rng.random(), side="right"))]


@dataclass
class TrainResult:
    params: PkgParams
    history: dict                  # validated epoch -> {task: hit@10}, tasks in training order
    best_epoch: int
    epochs_run: int


def selection_metric(metrics: dict) -> float:
    """The mean of the validated tasks' hit@10 values."""
    return float(np.mean(list(metrics.values())))


class _Samplers:
    """Per-namespace negative samplers with deterministic derived seeds."""

    def __init__(self, params: PkgParams, tasks: dict, seed: int):
        item_counts = np.zeros(params.tables["item_in"].rows)
        for task, examples in tasks.items():
            if task == "substitute":
                for a, b in examples:
                    item_counts[a] += 1
                    item_counts[b] += 1
            elif task in SEQUENCE_TASKS:
                for _context, target in examples:
                    item_counts[target] += 1
        if item_counts.sum() == 0:
            item_counts[1:] = 1.0
        self.item = NegativeSampler(item_counts, seed=seed + 11)
        category_counts = np.ones(params.tables["category"].rows)
        category_counts[0] = 0
        # uniform draw over categories
        self.category = NegativeSampler(category_counts, seed=seed + 13)


def _sequence_examples(examples: list) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A sequence task's contexts as one padded block, with their lengths and targets."""
    block = pad_block([context for context, _target in examples])
    targets = np.array([target for _context, target in examples], dtype=np.int64)
    return block, (block != PAD_ID).sum(axis=1), targets


def _batch_loss(task: str, examples, batch_idx: np.ndarray, params: PkgParams,
                samplers: _Samplers, k: int) -> tuple[float, Grads]:
    """Summed loss and gradients of one minibatch of ``task``'s examples
    (a sequence task's from :func:`_sequence_examples`) in one loss call.

    Negatives are drawn in batch order: k per target, per direction of a
    pair (forward first) and per label of a product.
    """
    if task in SEQUENCE_TASKS:
        block, lengths, targets = examples
        targets = targets[batch_idx]
        negatives = np.stack([samplers.item.sample(k, exclude={target})
                              for target in targets.tolist()])
        return sequence_loss_grad(block[batch_idx, :lengths[batch_idx].max()], targets,
                                  negatives, params.tables, params.attn[task], task)
    batch = [examples[idx] for idx in batch_idx.tolist()]
    if task == "substitute":
        negatives = np.stack([samplers.item.sample(k, exclude=set(pair))
                              for pair in batch for _direction in range(2)])
        return substitution_loss(batch, params.tables, negatives[0::2], negatives[1::2])
    negatives = np.stack([samplers.category.sample(k, exclude=set(labels))
                          for _item, labels in batch for _label in labels])
    return isa_example_loss(batch, params, negatives)


def validation_metric(task: str, examples, params: PkgParams, cap: int) -> float | None:
    """HIT@10 of the first ``cap`` validation examples of ``task`` (None
    without any); nothing is sampled, so validating leaves training alone.

    Sequence tasks and substitute rank their gold item by their training
    score through :func:`prodkg.evaluation.rank_tail`; an isa (product,
    label) pair ranks its label among all categories by item_in . category.
    """
    picked = examples[:cap]
    if not picked:
        return None
    heads = [head for head, _gold in picked]
    gold = [gold for _head, gold in picked]
    if task == "isa":
        categories = params.tables["category"].values[1:]
        ranks = rank_candidates(params.tables["item_in"].values[heads] @ categories.T,
                                np.arange(1, len(categories) + 1), gold)
    else:
        ranks = rank_tail(params, task, heads, gold)
    return int(np.count_nonzero(ranks <= 10)) / len(picked)


def train(
    config: TrainConfig,
    tasks: dict,
    params: PkgParams,
    validation: dict | None = None,
) -> TrainResult:
    """Run the sampling-then-training loop until metrics stop improving.

    ``tasks`` and ``validation`` map task names to training and held-out
    example lists; tasks are drawn in the order of ``tasks``.  Each epoch's
    history entry holds the metric of every task with validation examples;
    when none improves by more than ``IMPROVE_EPS`` for ``patience``
    consecutive epochs the loop stops and returns the snapshot of the best
    epoch (highest :func:`selection_metric`).
    The category table never receives gradients here: it is pre-trained
    and frozen before this loop runs.
    """
    active = {task: examples for task, examples in tasks.items() if examples}
    if not active:
        raise ValueError("no active tasks")
    trained_task = config.trained_task
    if trained_task and trained_task not in active:
        raise ValueError(f"task {trained_task!r} has no training examples")
    rng = np.random.default_rng(config.seed)
    samplers = _Samplers(params, active, config.seed)
    dense = params.dense_dict()
    total = sum(len(examples) for examples in active.values())
    steps_per_epoch = max(1, math.ceil(total / config.batch_size))
    blocks = {task: _sequence_examples(examples) if task in SEQUENCE_TASKS else examples
              for task, examples in active.items()}
    cdf = task_cdf(active, config.schedule)

    history: dict[int, dict[str, float]] = {}
    best_params = params
    best_epoch = 0
    best_mean = -np.inf
    previous_best: dict[str, float] = {}   # the stopping rule's per-task bests
    stale = 0

    for epoch in range(1, config.max_epochs + 1):
        for _step in range(steps_per_epoch):
            task = trained_task or sample_task(active, rng, config.schedule, cdf)
            n = len(active[task])
            batch_idx = rng.integers(0, n, size=min(config.batch_size, n))
            loss, grads = _batch_loss(task, blocks[task], batch_idx, params, samplers,
                                      config.negatives)
            if not np.isfinite(loss):
                raise NumericalError(
                    f"training diverged: non-finite loss on task {task!r} at epoch {epoch}")
            sgd_update(params.tables, grads, config.lr, dense)

        if validation is None:
            continue
        metrics = {}
        for task in active:
            value = validation_metric(task, validation.get(task, []), params,
                                      config.validation_cap)
            if value is not None:
                metrics[task] = value
        if not metrics:
            continue
        history[epoch] = metrics
        mean_metric = selection_metric(metrics)
        if mean_metric > best_mean:
            best_mean = mean_metric
            best_params = copy.deepcopy(params)
            best_epoch = epoch
        improved = {task: value for task, value in metrics.items()
                    if value > previous_best.get(task, -np.inf) + IMPROVE_EPS}
        previous_best.update(improved)
        stale = 0 if improved else stale + 1
        if stale >= config.patience:
            return TrainResult(best_params, history, best_epoch, epoch)

    # without a validated epoch the final parameters are the result
    return TrainResult(best_params, history, best_epoch or config.max_epochs, config.max_epochs)


def task_correlation(history: dict, trained_task: str | None) -> dict:
    """Pairwise correlation of per-epoch validation-metric changes.

    ``history`` is :attr:`TrainResult.history`, whose epochs all validate
    the same tasks.  For tasks A != B, cell (A, B) correlates the changes of
    A's metric between consecutive validated epochs with those of B's, when
    the run trained A alone (``trained_task``).  A cell is absent (None)
    with fewer than three changes, zero variance, or in a mixed run
    (``trained_task`` None).
    """
    epochs = sorted(history)
    tasks = sorted(history[epochs[0]]) if epochs else []
    deltas = {task: np.diff([history[epoch][task] for epoch in epochs]) for task in tasks}
    out: dict[tuple, float | None] = {}
    for a in tasks:
        for b in tasks:
            if a == b:
                continue
            xs, ys = deltas[a], deltas[b]
            if a != trained_task or len(xs) < 3 or np.std(xs) == 0 or np.std(ys) == 0:
                out[(a, b)] = None
            else:
                out[(a, b)] = float(np.corrcoef(xs, ys)[0, 1])
    return out
