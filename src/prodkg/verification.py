"""Finite-difference sweep over every analytic gradient in the package.

Used by the command-line grad-check and the acceptance suite.  Each loss is
checked at several random parameter points; points are drawn at moderate
scale so no logistic term saturates, and translational-baseline points are
resampled away from the |.| and hinge kinks where central differences are
meaningless.
"""
from __future__ import annotations

import zlib
from functools import partial

import numpy as np

from .attention import AttentionParams, pad_block, sequence_loss_grad
from .baselines import (TRANSLATIONAL, VARIANTS, KgConfig, KgModel, entity_rows, kg_score_grad,
                        kg_sides, margin_loss)
from .embeddings import EmbeddingTable, sampled_softmax_loss_grad, softmax_full_loss_grad
from .gradcheck import GradCheckReport, grad_check
from .model import PkgParams
from .poincare import hierarchy_loss_grad
from .trainer import isa_example_loss, substitution_loss


def _dense(shape_source: np.ndarray, rows: np.ndarray, grads: np.ndarray) -> np.ndarray:
    """Gradient rows summed into a zero array shaped like ``shape_source``."""
    dense = np.zeros_like(shape_source)
    np.add.at(dense, rows, grads)
    return dense


def _check_neg_sampling(rng: np.random.Generator, eps: float) -> GradCheckReport:
    d = 5
    table = EmbeddingTable("out", rng.normal(0, 0.5, size=(8, d)), "euclidean")
    query = rng.normal(0, 0.5, size=d)
    negatives = np.array([2, 5, 6])

    def loss_fn(p):
        t = EmbeddingTable("out", p["out"], "euclidean")
        loss, grad_q, rows, grads = sampled_softmax_loss_grad(p["q"], t, 3, negatives)
        return loss, {"q": grad_q, "out": _dense(p["out"], rows, grads)}

    return grad_check(loss_fn, {"q": query, "out": table.values}, eps=eps)


def _check_softmax_full(rng: np.random.Generator, eps: float) -> GradCheckReport:
    d = 5
    table = EmbeddingTable("out", rng.normal(0, 0.5, size=(7, d)), "euclidean")
    query = rng.normal(0, 0.5, size=d)

    def loss_fn(p):
        t = EmbeddingTable("out", p["out"], "euclidean")
        loss, grad_q, rows, grads = softmax_full_loss_grad(p["q"], t, 2)
        return loss, {"q": grad_q, "out": _dense(p["out"], rows, grads)}

    return grad_check(loss_fn, {"q": query, "out": table.values}, eps=eps)


def _check_substitution(rng: np.random.Generator, eps: float) -> GradCheckReport:
    d = 5
    table = EmbeddingTable("item_in", rng.normal(0, 0.5, size=(9, d)), "euclidean")
    # two pairs that share item 4
    pairs = np.array([[1, 4], [4, 2]])
    negs_f = np.array([[3, 6], [5, 7]])
    negs_b = np.array([[5, 7], [3, 8]])

    def loss_fn(p):
        tables = {"item_in": EmbeddingTable("item_in", p["item_in"], "euclidean")}
        loss, grads = substitution_loss(pairs, tables, negs_f, negs_b)
        return loss, {"item_in": _dense(p["item_in"], grads.rows["item_in"],
                                        grads.row_grads["item_in"])}

    return grad_check(loss_fn, {"item_in": table.values}, eps=eps)


def _check_sequence(task: str, rng: np.random.Generator, eps: float) -> GradCheckReport:
    d = 5
    n = 9
    if task in ("complement", "co_view"):
        table_names = ["item_in", "item_out_buy" if task == "complement" else "item_out_view"]
    else:
        table_names = ["word", "item_in"]
    tables = {name: EmbeddingTable(name, rng.normal(0, 0.4, size=(n, d)), "euclidean")
              for name in table_names}
    params = AttentionParams.init(6, d, rng)
    params.b1[:] = rng.normal(0, 0.1, size=d)
    params.b2[:] = rng.normal(0, 0.1, size=d)
    # a padded block of mixed lengths, an id repeated within and across rows
    ids = pad_block([[1, 4, 2, 7], [3], [4, 1, 4]])
    target, negatives = np.array([5, 6, 8]), np.array([[2, 8], [4, 4], [2, 6]])

    param_names = ["positions", "theta1", "b1", "theta2", "b2"]

    def loss_fn(p):
        tb = {name: EmbeddingTable(name, p[name], "euclidean") for name in table_names}
        ap = AttentionParams(*(p[name] for name in param_names))
        loss, grads = sequence_loss_grad(ids, target, negatives, tb, ap, task)
        out = {name: _dense(p[name], grads.rows[name], grads.row_grads[name])
               for name in table_names}
        for name in param_names:
            grad = grads.dense[f"{task}.{name}"]
            out[name] = _dense(p[name], np.arange(len(grad)), grad)
        return loss, out

    point = {name: tables[name].values for name in table_names}
    point.update({name: getattr(params, name) for name in param_names})
    return grad_check(loss_fn, point, eps=eps, max_coords_per_param=40)


def _check_hierarchy(rng: np.random.Generator, eps: float) -> GradCheckReport:
    d = 4
    values = rng.uniform(-0.4, 0.4, size=(8, d))
    values[0] = 0.0
    candidates = np.array([2, 4, 6])

    def loss_fn(p):
        table = EmbeddingTable("category", p["category"], "poincare")
        loss, rows, grads = hierarchy_loss_grad(1, candidates, 0, table)
        return loss, {"category": _dense(p["category"], rows, grads)}

    return grad_check(loss_fn, {"category": values}, eps=eps)


def _check_isa(rng: np.random.Generator, eps: float) -> GradCheckReport:
    d = 5
    categories = EmbeddingTable("category", rng.uniform(-0.4, 0.4, size=(7, d)), "poincare")
    items = rng.normal(0, 0.5, size=(5, d))
    # one product with two labels, one with one
    examples = [(1, (2, 5)), (3, (4,))]
    negatives = np.array([[3, 6], [1, 4], [2, 6]])

    def loss_fn(p):
        params = PkgParams({"item_in": EmbeddingTable("item_in", p["item_in"]),
                            "category": categories}, {}, d)
        loss, grads = isa_example_loss(examples, params, negatives)
        return loss, {"item_in": _dense(p["item_in"], grads.rows["item_in"],
                                        grads.row_grads["item_in"])}

    return grad_check(loss_fn, {"item_in": items}, eps=eps)


def _scaled_model(variant: str, norm: str, seed: int, scale: float = 0.15) -> KgModel:
    """Baseline model with parameters shrunk to a smooth, unsaturated regime."""
    config = KgConfig(variant=variant, dim=4, norm=norm, margin=1.0, seed=seed)
    model = KgModel(config, n_entities=8, n_relations=3)
    rng = np.random.default_rng(seed + 100)
    for name, value in model.params.items():
        model.params[name] = rng.normal(0, scale, size=value.shape)
        if name == "proj":
            model.params[name] += np.eye(value.shape[-1])
    if variant == "transH":
        w = model.params["w"]
        model.params["w"] = w / np.linalg.norm(w, axis=1, keepdims=True)
    return model


def _kink_free(model: KgModel, block: tuple, eps: float) -> bool:
    """True when no |.| coordinate or hinge activation of the block's
    positives and negatives sits within the probe step."""
    if model.variant not in TRANSLATIONAL:
        return True
    heads, relations, tails = block
    relations = np.broadcast_to(relations[:, None], heads.shape)
    guard = 50 * eps
    scores, _ = kg_score_grad(model, heads, relations, tails)
    if np.min(np.abs(model.config.margin - scores[:, :1] + scores[:, 1:])) < guard:
        return False
    if model.config.norm == "l2":
        return True
    left, right, _pull = kg_sides(model, entity_rows(model, heads), relations,
                                  entity_rows(model, tails))
    return bool(np.min(np.abs(left[0] - right[0])) >= guard)


def _check_kg(variant: str, norm: str, rng: np.random.Generator, eps: float) -> GradCheckReport:
    # four positives (column 0; the first repeats) with three negatives each;
    # entities 1, 2 and 4 recur across rows, so their gradient rows are summed
    block = (np.array([[1, 1, 2, 1], [4, 4, 6, 4], [2, 2, 7, 2], [1, 3, 1, 1]]),
             np.array([0, 1, 0, 0]),
             np.array([[4, 5, 4, 2], [2, 1, 2, 7], [1, 4, 1, 6], [4, 4, 6, 1]]))
    seed = int(rng.integers(1 << 30))
    model = _scaled_model(variant, norm, seed)
    for attempt in range(64):
        if _kink_free(model, block, eps):
            break
        model = _scaled_model(variant, norm, seed + attempt + 1)
    names = list(model.params)

    def loss_fn(p):
        for name in names:
            model.params[name][...] = p[name]
        loss, grads = margin_loss(model, *block)
        return loss, {name: _dense(p[name], rows, grads.row_grads[name])
                      for name, rows in grads.rows.items()}

    point = {name: model.params[name].copy() for name in names}
    return grad_check(loss_fn, point, eps=eps, max_coords_per_param=40)


def run_gradient_sweep(eps: float = 1e-4, points: int = 3,
                       seed: int = 7) -> list[tuple[str, GradCheckReport]]:
    """Check every loss at ``points`` random parameter points each."""
    checks = [
        ("neg_sampling", _check_neg_sampling),
        ("softmax_full", _check_softmax_full),
        ("substitution", _check_substitution),
        *((f"sequence:{task}", partial(_check_sequence, task))
          for task in ("complement", "co_view", "search", "describe")),
        ("hierarchy", _check_hierarchy),
        ("isa", _check_isa),
        *((f"kg:{variant}:{norm}", partial(_check_kg, variant, norm)) for variant in VARIANTS
          for norm in (("l2", "l1") if variant in TRANSLATIONAL else ("l2",))),
    ]

    reports = []
    for name, check in checks:
        name_tag = zlib.crc32(name.encode())
        worst: GradCheckReport | None = None
        for point in range(points):
            rng = np.random.default_rng([seed, point, name_tag])
            report = check(rng, eps)
            if worst is None or report.max_rel_error > worst.max_rel_error:
                worst = report
        reports.append((name, worst))
    return reports
