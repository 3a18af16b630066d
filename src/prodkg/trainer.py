"""Multi-task training over the six product relations.

One training step samples a task, draws a minibatch from that task's
dataset, and applies the mean gradient.  An epoch is ceil(total / batch)
steps.  Task sampling is proportional to dataset size by default; uniform
and single-task schedules exist for comparison runs.  Validation metrics
are logged per epoch, drive early stopping, and feed the task-correlation
diagnostic.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .embeddings import (
    Grads,
    NegativeSampler,
    NumericalError,
    sampled_softmax_loss_grad,
    sgd_update,
)
from .attention import TASK_WIRING, sequence_loss_grad
from .evaluation import pkg_candidate_scores
from .model import PkgParams
from .poincare import isa_loss
from .ranking import rank_candidates

TASK_NAMES = ("substitute", "complement", "co_view", "search", "describe", "isa")
SEQUENCE_TASKS = tuple(sorted(TASK_WIRING))


@dataclass
class TaskSpec:
    """One relation-learning task: dataset handle plus loss wiring."""

    name: str
    examples: list
    max_len: int | None = None

    def __post_init__(self):
        if self.name not in TASK_NAMES:
            raise ValueError(f"unknown task {self.name!r}")

    @property
    def n(self) -> int:
        return len(self.examples)


@dataclass
class TrainConfig:
    lr: float = 0.1
    lr_grid: tuple = (0.001, 0.005, 0.01, 0.1)
    # Per-record updates by default: minibatch means shrink each row's step
    # by the batch size because examples rarely share rows.
    batch_size: int = 1
    negatives: int = 3
    patience: int = 5
    max_epochs: int = 30
    seed: int = 7
    schedule: str = "weighted"          # weighted | uniform | single_task
    single_task: str | None = None
    improve_eps: float = 1e-4
    validation_cap: int = 400
    epoch_task_attribution: bool = False

    def __post_init__(self):
        if self.patience < 1:
            raise ValueError("patience must be >= 1")
        if self.schedule not in ("weighted", "uniform", "single_task"):
            raise ValueError(f"unknown schedule {self.schedule!r}")
        if self.schedule == "single_task" and not self.single_task:
            raise ValueError("single_task schedule needs the task name")


def build_task_specs(dataset_records: dict, seq_lens: dict) -> list[TaskSpec]:
    """Expand raw train records into per-task example lists.

    ``dataset_records`` carries the training-split collections under the
    keys buy_sessions / view_sessions / substitutions / searches / catalog.
    Sessions contribute one (context, target) example per non-initial
    position, with the context truncated to the most recent ``l`` items.
    """
    specs = []
    subs = [(p.accepted_for, p.substitute) for p in dataset_records.get("substitutions", [])]
    if subs:
        specs.append(TaskSpec("substitute", subs))

    def session_examples(sessions, max_len):
        examples = []
        for session in sessions:
            items = session.items
            for position in range(1, len(items)):
                context = items[max(0, position - max_len):position]
                examples.append((tuple(context), items[position]))
        return examples

    buy = session_examples(dataset_records.get("buy_sessions", []), seq_lens["complement"])
    if buy:
        specs.append(TaskSpec("complement", buy, seq_lens["complement"]))
    view = session_examples(dataset_records.get("view_sessions", []), seq_lens["co_view"])
    if view:
        specs.append(TaskSpec("co_view", view, seq_lens["co_view"]))

    searches = [(tuple(r.query_words[-seq_lens["search"]:]), r.clicked_item)
                for r in dataset_records.get("searches", [])]
    if searches:
        specs.append(TaskSpec("search", searches, seq_lens["search"]))

    describes = [(tuple(e.description[-seq_lens["describe"]:]), e.item)
                 for e in dataset_records.get("catalog", []) if e.description]
    if describes:
        specs.append(TaskSpec("describe", describes, seq_lens["describe"]))

    isa = [(e.item, tuple(e.category_path)) for e in dataset_records.get("catalog", [])
           if e.category_path]
    if isa:
        specs.append(TaskSpec("isa", isa))
    return specs


def substitution_loss(
    pair: tuple[int, int],
    tables: dict,
    negatives_forward: np.ndarray,
    negatives_backward: np.ndarray,
) -> tuple[float, Grads]:
    """Symmetric pair loss: each direction scores one item against the other.

    Both directions share the product input table; scoring is the plain
    inner product, so swapping the pair with mirrored negatives yields the
    identical value.  Each direction emits its scored rows, then the query
    item's row.
    """
    a, b = pair
    if a == b:
        raise ValueError("substitution pair with identical items")
    table = tables["item_in"]
    total = 0.0
    rows, grads = [], []
    for query_id, target, negs in ((a, b, negatives_forward), (b, a, negatives_backward)):
        loss, grad_query, side_rows, side_grads = sampled_softmax_loss_grad(
            table.values[query_id], table, target, negs)
        total += loss
        rows += [side_rows, [query_id]]
        grads += [side_grads, grad_query[None, :]]
    return total, Grads({table.name: np.concatenate(rows)},
                        {table.name: np.concatenate(grads)}, {})


def isa_example_loss(example, params: PkgParams,
                     negatives_per_label: list[np.ndarray]) -> tuple[float, Grads]:
    item, labels = example
    table = params.tables["item_in"]
    loss, grad_item = isa_loss(table.values[item], list(labels),
                               params.tables["category"], negatives_per_label)
    return loss, Grads({table.name: np.array([item])}, {table.name: grad_item[None, :]}, {})


def batch_mean(parts: list[Grads]) -> Grads:
    """Mean gradient of a batch's examples.

    Row arrays are concatenated in example order and dense gradients summed
    over the longest prefix any example covers, then everything is scaled
    by 1/len(parts).  A single example's gradients pass through unchanged.
    """
    if len(parts) == 1:
        return parts[0]
    scale = 1.0 / len(parts)
    rows, row_grads, dense = {}, {}, {}
    for part in parts:
        for name in part.rows:
            rows.setdefault(name, []).append(part.rows[name])
            row_grads.setdefault(name, []).append(part.row_grads[name])
        for name, grad in part.dense.items():
            dense.setdefault(name, []).append(grad)
    for name, grads in dense.items():
        total = np.zeros((max(len(g) for g in grads),) + grads[0].shape[1:])
        for grad in grads:
            total[:len(grad)] += grad
        dense[name] = scale * total
    return Grads({name: np.concatenate(ids) for name, ids in rows.items()},
                 {name: scale * np.concatenate(g) for name, g in row_grads.items()}, dense)


def task_probabilities(specs: list[TaskSpec], schedule: str = "weighted") -> np.ndarray:
    """Per-step draw probabilities of the tasks: uniform, or else size-proportional."""
    sizes = np.array([1.0 if schedule == "uniform" else s.n for s in specs], dtype=float)
    return sizes / sizes.sum()


def sample_task(specs: list[TaskSpec], rng: np.random.Generator,
                schedule: str = "weighted", single_task: str | None = None,
                probs: np.ndarray | None = None) -> str:
    """Draw the next task: size-proportional, uniform, or fixed (``probs`` from
    :func:`task_probabilities` saves recomputing them on every draw)."""
    if not specs:
        raise ValueError("no active tasks")
    if schedule == "single_task":
        if single_task not in {s.name for s in specs}:
            raise ValueError(f"task {single_task!r} not among active tasks")
        return single_task
    if probs is None:
        probs = task_probabilities(specs, schedule)
    return specs[int(rng.choice(len(specs), p=probs))].name


@dataclass
class TrainResult:
    params: PkgParams
    log: list                      # (epoch, trained_task, task, metric, value)
    best_epoch: int
    epochs_run: int


PRIMARY_METRIC = {"substitute": "hit@10", "complement": "hit@10", "co_view": "hit@10",
                  "search": "hit@10", "describe": "hit@10", "isa": "neg_loss"}


def selection_metric(metrics: dict) -> float:
    """Mean of the per-task hit@10 values; isa's negative loss, on another
    scale, counts only when isa is the sole task."""
    hits = [value for task, value in metrics.items() if PRIMARY_METRIC[task] == "hit@10"]
    return float(np.mean(hits or list(metrics.values())))


class _Samplers:
    """Per-namespace negative samplers with deterministic derived seeds."""

    def __init__(self, params: PkgParams, specs: list[TaskSpec], seed: int):
        item_counts = np.zeros(params.tables["item_in"].rows)
        for spec in specs:
            if spec.name == "substitute":
                for a, b in spec.examples:
                    item_counts[a] += 1
                    item_counts[b] += 1
            elif spec.name in ("complement", "co_view"):
                for context, target in spec.examples:
                    item_counts[target] += 1
            elif spec.name in ("search", "describe"):
                for _context, target in spec.examples:
                    item_counts[target] += 1
        if item_counts.sum() == 0:
            item_counts[1:] = 1.0
        self.item = NegativeSampler(item_counts, seed=seed + 11)
        category_counts = np.ones(params.tables["category"].rows)
        category_counts[0] = 0
        # uniform draw over categories
        self.category = NegativeSampler(category_counts, exponent=1.0, seed=seed + 13)


def _example_loss(task: str, example, params: PkgParams, samplers: _Samplers,
                  k: int) -> tuple[float, Grads]:
    if task == "substitute":
        a, b = example
        negs_f = samplers.item.sample(k, exclude={a, b})
        negs_b = samplers.item.sample(k, exclude={a, b})
        return substitution_loss(example, params.tables, negs_f, negs_b)
    if task == "isa":
        item, labels = example
        negs = [samplers.category.sample(k, exclude=set(labels)) for _ in labels]
        return isa_example_loss(example, params, negs)
    context, target = example
    negs = samplers.item.sample(k, exclude={target})
    return sequence_loss_grad(np.asarray(context, dtype=np.int64), target, negs,
                              params.tables, params.attn[task], task)


def validation_metric(task: str, examples, params: PkgParams, samplers: _Samplers,
                      k_negatives: int, cap: int, rank_k: int = 10) -> float:
    """Primary validation metric: HIT@10 for ranking tasks, -loss for isa.

    Sequence tasks rank the next entity by their own training objective
    (attention context against the task's scoring table); the substitute
    task ranks one side of the pair against the other.  Both score through
    :func:`prodkg.evaluation.pkg_candidate_scores`.
    """
    picked = examples[:cap]
    if not picked:
        return 0.0
    if task == "isa":
        total = 0.0
        for example in picked:
            item, labels = example
            negs = [samplers.category.sample(k_negatives, exclude=set(labels))
                    for _ in labels]
            loss, _ = isa_example_loss(example, params, negs)
            total += loss
        return -total / len(picked)
    hits = 0
    for head, gold in picked:
        candidates, scores = pkg_candidate_scores(params, task, head)
        result = rank_candidates(candidates, scores, (gold,), keep=rank_k)
        hits += int(result.gold_rank <= rank_k)
    return hits / len(picked)


def train(
    config: TrainConfig,
    specs: list[TaskSpec],
    params: PkgParams,
    validation: dict | None = None,
) -> TrainResult:
    """Run the sampling-then-training loop until metrics stop improving.

    ``validation`` maps task names to held-out example lists.  Every epoch
    logs each task's metric; when no task improves by more than
    ``improve_eps`` for ``patience`` consecutive epochs the loop stops and
    the snapshot of the best epoch (highest :func:`selection_metric`) is
    returned.
    The category table never receives gradients here: it is pre-trained
    and frozen before this loop runs.
    """
    active = [s for s in specs if s.n > 0]
    if not active:
        raise ValueError("no active tasks")
    rng = np.random.default_rng(config.seed)
    samplers = _Samplers(params, active, config.seed)
    dense = params.dense_dict()
    total = sum(s.n for s in active)
    steps_per_epoch = max(1, math.ceil(total / config.batch_size))
    by_name = {s.name: s for s in active}
    probs = task_probabilities(active, config.schedule)

    log: list[tuple] = []
    best_params = params.copy()
    best_epoch = 0
    best_mean = -np.inf
    previous_best: dict[str, float] = {}
    stale = 0

    for epoch in range(1, config.max_epochs + 1):
        epoch_task = None
        if config.schedule == "single_task":
            epoch_task = config.single_task
        elif config.epoch_task_attribution:
            epoch_task = sample_task(active, rng, config.schedule, probs=probs)
        for _step in range(steps_per_epoch):
            task = epoch_task or sample_task(active, rng, config.schedule, config.single_task, probs)
            spec = by_name[task]
            batch_idx = rng.integers(0, spec.n, size=min(config.batch_size, spec.n))
            parts = []
            batch_loss = 0.0
            for idx in batch_idx:
                loss, example_grads = _example_loss(
                    task, spec.examples[int(idx)], params, samplers, config.negatives)
                batch_loss += loss
                parts.append(example_grads)
            if not np.isfinite(batch_loss):
                raise NumericalError(
                    f"training diverged: non-finite loss on task {task!r} at epoch {epoch}")
            sgd_update(params.tables, batch_mean(parts), config.lr, dense)

        if validation is None:
            continue
        trained_tag = epoch_task or ("mixed" if config.schedule != "single_task"
                                     else config.single_task)
        metrics = {}
        improved_any = False
        for spec in active:
            metric_name = PRIMARY_METRIC[spec.name]
            value = validation_metric(spec.name, validation.get(spec.name, []),
                                      params, samplers, config.negatives,
                                      config.validation_cap)
            metrics[spec.name] = value
            log.append((epoch, trained_tag, spec.name, metric_name, value))
            if value > previous_best.get(spec.name, -np.inf) + config.improve_eps:
                previous_best[spec.name] = value
                improved_any = True
        mean_metric = selection_metric(metrics)
        if mean_metric > best_mean:
            best_mean = mean_metric
            best_params = params.copy()
            best_epoch = epoch
        stale = 0 if improved_any else stale + 1
        if stale >= config.patience:
            return TrainResult(best_params, log, best_epoch, epoch)

    if validation is None:
        return TrainResult(params, log, config.max_epochs, config.max_epochs)
    return TrainResult(best_params, log, best_epoch, config.max_epochs)


def task_correlation(log: list) -> dict:
    """Pairwise correlation of per-epoch validation-metric changes.

    For tasks A != B, the statistic correlates the change in A's metric
    with the change in B's metric over epochs attributed to training A.
    Cells with fewer than three attributable epochs or zero variance are
    absent (None).  Rows whose trained-task tag is not a single task
    (e.g. mixed-schedule epochs) are ignored.
    """
    series: dict[str, dict[int, float]] = {}
    trained_at: dict[int, str] = {}
    for epoch, trained_task, task, _metric, value in log:
        series.setdefault(task, {})[epoch] = value
        trained_at[epoch] = trained_task
    tasks = sorted(series)
    epochs = sorted(trained_at)
    deltas: dict[str, dict[int, float]] = {t: {} for t in tasks}
    for task in tasks:
        values = series[task]
        for prev_epoch, epoch in zip(epochs, epochs[1:]):
            if prev_epoch in values and epoch in values:
                deltas[task][epoch] = values[epoch] - values[prev_epoch]

    out: dict[tuple, float | None] = {}
    for a in tasks:
        attributed = [e for e in epochs[1:] if trained_at.get(e) == a]
        for b in tasks:
            if a == b:
                continue
            xs = [deltas[a][e] for e in attributed if e in deltas[a] and e in deltas[b]]
            ys = [deltas[b][e] for e in attributed if e in deltas[a] and e in deltas[b]]
            if len(xs) < 3:
                out[(a, b)] = None
                continue
            xs, ys = np.array(xs), np.array(ys)
            if np.std(xs) == 0 or np.std(ys) == 0:
                out[(a, b)] = None
                continue
            out[(a, b)] = float(np.corrcoef(xs, ys)[0, 1])
    return out


def select_learning_rate(
    base_config: TrainConfig,
    specs: list[TaskSpec],
    params_factory,
    validation: dict,
    epochs: int = 2,
) -> float:
    """Pick one shared rate from the grid by validation metric.

    Each candidate trains a fresh initialisation for a few epochs; the rate
    whose final per-task metrics score highest under
    :func:`selection_metric` wins (ties to the smaller rate for stability).
    """
    best_lr = None
    best_value = -np.inf
    for lr in sorted(base_config.lr_grid):
        config = replace(base_config, lr=lr, max_epochs=epochs, patience=max(epochs, 1))
        result = train(config, specs, params_factory(), validation)
        finals: dict[str, float] = {}
        for _epoch, _trained, task, _metric, value in result.log:
            finals[task] = value
        mean_value = selection_metric(finals) if finals else -np.inf
        if mean_value > best_value:
            best_value = mean_value
            best_lr = lr
    return best_lr


def compare_schedules(
    base_config: TrainConfig,
    specs: list[TaskSpec],
    params_factory,
    validation: dict,
) -> list[tuple]:
    """Train under weighted, uniform and per-task single schedules.

    Each run starts from an identical fresh initialisation produced by
    ``params_factory()``.  Returns rows (schedule, task, metric, value)
    with single-task rows reporting each task's own dedicated run.
    """
    rows = []
    for schedule in ("weighted", "uniform"):
        config = replace(base_config, schedule=schedule, epoch_task_attribution=True)
        result = train(config, specs, params_factory(), validation)
        samplers = _Samplers(result.params, specs, config.seed)
        for spec in specs:
            value = validation_metric(spec.name, validation.get(spec.name, []),
                                      result.params, samplers, config.negatives,
                                      config.validation_cap)
            rows.append((schedule, spec.name, PRIMARY_METRIC[spec.name], value))
    for spec in specs:
        config = replace(base_config, schedule="single_task", single_task=spec.name)
        result = train(config, [spec], params_factory(), {spec.name: validation.get(spec.name, [])})
        samplers = _Samplers(result.params, [spec], config.seed)
        value = validation_metric(spec.name, validation.get(spec.name, []),
                                  result.params, samplers, config.negatives,
                                  config.validation_cap)
        rows.append(("single_task", spec.name, PRIMARY_METRIC[spec.name], value))
    return rows
