"""Finite-difference sweep over every analytic gradient in the package.

Used by the command-line grad-check and the acceptance suite.  Each loss is
checked at several random parameter points; points are drawn at moderate
scale so no logistic term saturates, and translational-baseline points are
resampled away from the |.| and hinge kinks where central differences are
meaningless.
"""
from __future__ import annotations

import zlib

import numpy as np

from .attention import AttentionParams, sequence_loss_grad
from .baselines import TRANSLATIONAL, VARIANTS, KgConfig, KgModel, Triple, kg_score_grad, margin_loss
from .embeddings import EmbeddingTable, sampled_softmax_loss_grad, softmax_full_loss_grad
from .gradcheck import GradCheckReport, grad_check
from .poincare import hierarchy_loss_grad, isa_loss


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
    from .trainer import substitution_loss

    d = 5
    table = EmbeddingTable("item_in", rng.normal(0, 0.5, size=(9, d)), "euclidean")
    negs_f = np.array([3, 6])
    negs_b = np.array([5, 7])

    def loss_fn(p):
        tables = {"item_in": EmbeddingTable("item_in", p["item_in"], "euclidean")}
        loss, grads = substitution_loss((1, 4), tables, negs_f, negs_b)
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
    ids = np.array([1, 4, 2, 7])
    target, negatives = 5, np.array([2, 8])

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
    item_vec = rng.normal(0, 0.5, size=d)
    labels = [2, 5]
    negatives = [np.array([3, 6]), np.array([1, 4])]

    def loss_fn(p):
        loss, grad = isa_loss(p["item"], labels, categories, negatives)
        return loss, {"item": grad}

    return grad_check(loss_fn, {"item": item_vec}, eps=eps)


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


def _kink_free(model: KgModel, positive: Triple, negatives: list[Triple],
               eps: float) -> bool:
    """True when no |.| coordinate or hinge activation sits within the probe step."""
    if model.variant not in TRANSLATIONAL:
        return True
    margin = model.config.margin
    score_pos, _ = kg_score_grad(model, positive)
    guard = 50 * eps
    for triple in [positive] + negatives:
        p = model.params
        h, r, t = p["ent"][triple.head], p["rel"][triple.relation], p["ent"][triple.tail]
        if model.variant == "transE":
            diff = h + r - t
        elif model.variant == "transH":
            w = p["w"][triple.relation]
            diff = (h - (w @ h) * w) + r - (t - (w @ t) * w)
        elif model.variant == "transR":
            m = p["proj"][triple.relation]
            diff = m @ h + r - m @ t
        else:
            h_p = h + (p["ent_p"][triple.head] @ h) * p["rel_p"][triple.relation]
            t_p = t + (p["ent_p"][triple.tail] @ t) * p["rel_p"][triple.relation]
            diff = h_p + r - t_p
        if model.config.norm == "l1" and np.min(np.abs(diff)) < guard:
            return False
        if triple is not positive:
            score_neg, _ = kg_score_grad(model, triple)
            if abs(margin - score_pos + score_neg) < guard:
                return False
    return True


def _check_kg(variant: str, norm: str, rng: np.random.Generator, eps: float) -> GradCheckReport:
    positive = Triple(1, 0, 4)
    negatives = [Triple(1, 0, 5), Triple(2, 0, 4), Triple(6, 0, 3)]
    seed = int(rng.integers(1 << 30))
    model = _scaled_model(variant, norm, seed)
    for attempt in range(64):
        if _kink_free(model, positive, negatives, eps):
            break
        model = _scaled_model(variant, norm, seed + attempt + 1)
    names = list(model.params)

    def loss_fn(p):
        for name in names:
            model.params[name][...] = p[name]
        loss, grads = margin_loss(model, positive, negatives)
        out = {name: np.zeros_like(model.params[name]) for name in names}
        for (name, idx), grad in grads.items():
            out[name][idx] += grad
        return loss, out

    point = {name: model.params[name].copy() for name in names}
    return grad_check(loss_fn, point, eps=eps, max_coords_per_param=40)


def run_gradient_sweep(eps: float = 1e-4, points: int = 3, seed: int = 7,
                       include_kg: bool = True) -> list[tuple[str, GradCheckReport]]:
    """Check every loss at ``points`` random parameter points each."""
    checks = [
        ("neg_sampling", _check_neg_sampling),
        ("softmax_full", _check_softmax_full),
        ("substitution", _check_substitution),
        ("sequence:complement", lambda r, e: _check_sequence("complement", r, e)),
        ("sequence:co_view", lambda r, e: _check_sequence("co_view", r, e)),
        ("sequence:search", lambda r, e: _check_sequence("search", r, e)),
        ("sequence:describe", lambda r, e: _check_sequence("describe", r, e)),
        ("hierarchy", _check_hierarchy),
        ("isa", _check_isa),
    ]
    if include_kg:
        for variant in VARIANTS:
            norms = ("l2", "l1") if variant in TRANSLATIONAL else ("l2",)
            for norm in norms:
                checks.append((f"kg:{variant}:{norm}",
                               lambda r, e, v=variant, n=norm: _check_kg(v, n, r, e)))

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
