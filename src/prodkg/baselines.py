"""Triple-based knowledge-graph embedding baselines.

Eight scorers over (head, relation, tail) triples: four translational
distance models (plain, hyperplane-projected, subspace-projected, and
dynamic rank-1 projections) and four semantic-matching models (bilinear,
diagonal bilinear, circular correlation, complex-valued bilinear).
Translational variants train with margin ranking against corrupted
triples; semantic-matching variants use the logistic loss.  All gradients
are analytic and covered by finite-difference tests.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .embeddings import NumericalError, log_sigmoid, sigmoid
from .ranking import rank_candidates

TRANSLATIONAL = ("transE", "transH", "transR", "transD")
SEMANTIC = ("rescal", "distmult", "hole", "complex")
VARIANTS = TRANSLATIONAL + SEMANTIC


@dataclass
class KgConfig:
    variant: str = "transE"
    dim: int = 50
    norm: str = "l2"            # l1 | l2, translational variants only
    margin: float = 1.0
    lr: float = 0.01
    negatives: int = 3
    epochs: int = 100
    patience: int = 5
    batch_size: int = 64
    seed: int = 7

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}; choose from {VARIANTS}")
        if self.norm not in ("l1", "l2"):
            raise ValueError("norm must be 'l1' or 'l2'")
        if self.variant in TRANSLATIONAL and self.margin <= 0:
            raise ValueError("margin must be positive for translational variants")


@dataclass
class Triple:
    head: int
    relation: int
    tail: int


class KgModel:
    """Parameter container for one baseline variant."""

    def __init__(self, config: KgConfig, n_entities: int, n_relations: int):
        self.config = config
        self.variant = config.variant
        self.n_entities = n_entities
        self.n_relations = n_relations
        d = config.dim
        rng = np.random.default_rng(config.seed)
        bound = 6.0 / np.sqrt(d)
        self.params: dict[str, np.ndarray] = {
            "ent": rng.uniform(-bound, bound, size=(n_entities, d)),
            "rel": rng.uniform(-bound, bound, size=(n_relations, d)),
        }
        if self.variant == "transH":
            w = rng.uniform(-bound, bound, size=(n_relations, d))
            self.params["w"] = w / np.linalg.norm(w, axis=1, keepdims=True)
        elif self.variant == "transR":
            self.params["proj"] = np.tile(np.eye(d), (n_relations, 1, 1)) \
                + rng.uniform(-0.01, 0.01, size=(n_relations, d, d))
        elif self.variant == "transD":
            self.params["ent_p"] = rng.uniform(-bound, bound, size=(n_entities, d)) / d
            self.params["rel_p"] = rng.uniform(-bound, bound, size=(n_relations, d)) / d
        elif self.variant == "rescal":
            self.params["m"] = rng.uniform(-bound / d, bound / d, size=(n_relations, d, d))
        elif self.variant == "complex":
            self.params["ent_im"] = rng.uniform(-bound, bound, size=(n_entities, d))
            self.params["rel_im"] = rng.uniform(-bound, bound, size=(n_relations, d))
        if self.variant in ("transE", "transH"):
            self._clip_entities(np.arange(n_entities))

    def copy(self) -> "KgModel":
        clone = KgModel.__new__(KgModel)
        clone.config = self.config
        clone.variant = self.variant
        clone.n_entities = self.n_entities
        clone.n_relations = self.n_relations
        clone.params = {k: v.copy() for k, v in self.params.items()}
        return clone

    def _clip_entities(self, ids) -> None:
        ent = self.params["ent"]
        norms = np.linalg.norm(ent[ids], axis=-1)
        over = norms > 1.0
        if np.any(over):
            ids = np.atleast_1d(ids)[over]
            ent[ids] /= np.linalg.norm(ent[ids], axis=-1, keepdims=True)

    def enforce_constraints(self, entity_ids, relation_ids) -> None:
        """Post-step projections: unit-ball entities (and relations) for the
        plain/hyperplane variants, unit hyperplane normals."""
        if self.variant in ("transE", "transH"):
            self._clip_entities(np.unique(np.atleast_1d(entity_ids)))
            rel = self.params["rel"]
            rel_ids = np.unique(np.atleast_1d(relation_ids))
            norms = np.linalg.norm(rel[rel_ids], axis=-1)
            over = norms > 1.0
            if np.any(over):
                picked = rel_ids[over]
                rel[picked] /= np.linalg.norm(rel[picked], axis=-1, keepdims=True)
        if self.variant == "transH":
            w = self.params["w"]
            rel_ids = np.unique(np.atleast_1d(relation_ids))
            w[rel_ids] /= np.linalg.norm(w[rel_ids], axis=-1, keepdims=True)


def _norm_and_grad(diff: np.ndarray, norm: str) -> tuple[float, np.ndarray]:
    """Returns (|diff|, d|diff|/d diff) with a zero gradient at the kink/origin."""
    if norm == "l1":
        return float(np.abs(diff).sum()), np.sign(diff)
    value = float(np.linalg.norm(diff))
    if value == 0.0:
        return 0.0, np.zeros_like(diff)
    return value, diff / value


def _correlation_index(d: int) -> np.ndarray:
    # rows k, columns i: (i + k) mod d
    return (np.arange(d)[None, :] + np.arange(d)[:, None]) % d


def circular_correlation(h: np.ndarray, t: np.ndarray) -> np.ndarray:
    """corr[k] = sum_i h[i] * t[(i + k) mod d], computed by the direct definition."""
    d = h.shape[0]
    return t[_correlation_index(d)] @ h


def kg_score(model: KgModel, triple: Triple) -> float:
    """Plausibility score (higher is better) of one triple under the variant."""
    score, _ = kg_score_grad(model, triple)
    return score


def kg_score_grad(model: KgModel, triple: Triple) -> tuple[float, dict]:
    """Score plus gradients keyed by (param_name, index).

    Matrix-valued parameters (per-relation projection/bilinear matrices)
    carry matrix-shaped gradients under their relation index.
    """
    h_i, r_i, t_i = triple.head, triple.relation, triple.tail
    p = model.params
    h, r, t = p["ent"][h_i], p["rel"][r_i], p["ent"][t_i]
    norm = model.config.norm
    grads: dict[tuple, np.ndarray] = {}

    def add(name, idx, grad):
        key = (name, idx)
        grads[key] = grads.get(key, 0.0) + grad

    variant = model.variant
    if variant == "transE":
        value, g = _norm_and_grad(h + r - t, norm)
        score = -value
        add("ent", h_i, -g)
        add("rel", r_i, -g)
        add("ent", t_i, g)
    elif variant == "transH":
        w = p["w"][r_i]
        h_p = h - (w @ h) * w
        t_p = t - (w @ t) * w
        value, g = _norm_and_grad(h_p + r - t_p, norm)
        score = -value
        g = -g  # gradient of score = -|.|
        add("ent", h_i, g - (w @ g) * w)
        add("ent", t_i, -(g - (w @ g) * w))
        add("rel", r_i, g)
        add("w", r_i, -((g @ w) * h + (w @ h) * g) + ((g @ w) * t + (w @ t) * g))
    elif variant == "transR":
        m = p["proj"][r_i]
        value, g = _norm_and_grad(m @ h + r - m @ t, norm)
        score = -value
        g = -g
        add("ent", h_i, m.T @ g)
        add("ent", t_i, -(m.T @ g))
        add("rel", r_i, g)
        add("proj", r_i, np.outer(g, h - t))
    elif variant == "transD":
        h_v, t_v = p["ent_p"][h_i], p["ent_p"][t_i]
        r_v = p["rel_p"][r_i]
        h_p = h + (h_v @ h) * r_v
        t_p = t + (t_v @ t) * r_v
        value, g = _norm_and_grad(h_p + r - t_p, norm)
        score = -value
        g = -g
        gr = g @ r_v
        add("ent", h_i, g + gr * h_v)
        add("ent_p", h_i, gr * h)
        add("ent", t_i, -(g + gr * t_v))
        add("ent_p", t_i, -gr * t)
        add("rel", r_i, g)
        add("rel_p", r_i, (h_v @ h) * g - (t_v @ t) * g)
    elif variant == "rescal":
        m = p["m"][r_i]
        score = float(h @ m @ t)
        add("ent", h_i, m @ t)
        add("ent", t_i, m.T @ h)
        add("m", r_i, np.outer(h, t))
    elif variant == "distmult":
        score = float(np.sum(h * r * t))
        add("ent", h_i, r * t)
        add("ent", t_i, h * r)
        add("rel", r_i, h * t)
    elif variant == "hole":
        d = h.shape[0]
        idx = _correlation_index(d)
        corr = t[idx] @ h
        score = float(r @ corr)
        add("rel", r_i, corr)
        # d score / d h_i = sum_k r_k t_(i+k)  ;  d score / d t_j = sum_k r_k h_(j-k)
        add("ent", h_i, r @ t[idx])
        add("ent", t_i, h[(np.arange(d)[:, None] - np.arange(d)[None, :]) % d] @ r)
    elif variant == "complex":
        h_im, t_im = p["ent_im"][h_i], p["ent_im"][t_i]
        r_im = p["rel_im"][r_i]
        score = float(np.sum((h * r - h_im * r_im) * t + (h * r_im + h_im * r) * t_im))
        add("ent", h_i, r * t + r_im * t_im)
        add("ent_im", h_i, -r_im * t + r * t_im)
        add("rel", r_i, h * t + h_im * t_im)
        add("rel_im", r_i, -h_im * t + h * t_im)
        add("ent", t_i, h * r - h_im * r_im)
        add("ent_im", t_i, h * r_im + h_im * r)
    else:
        raise ValueError(f"unknown variant {variant!r}")
    return score, grads


def margin_loss(model: KgModel, positive: Triple, negatives: list[Triple],
                gamma: float | None = None) -> tuple[float, dict]:
    """Ranking loss of one positive against its corrupted triples.

    Translational variants use the hinge sum(max(0, gamma - s_pos + s_neg));
    semantic-matching variants use -log s(s_pos) - sum log s(-s_neg).
    Returns (loss, gradient dict keyed like :func:`kg_score_grad`).
    """
    grads: dict[tuple, np.ndarray] = {}

    def accumulate(src: dict, factor: float):
        for key, grad in src.items():
            grads[key] = grads.get(key, 0.0) + factor * grad

    score_pos, grad_pos = kg_score_grad(model, positive)
    if model.variant in TRANSLATIONAL:
        gamma = model.config.margin if gamma is None else gamma
        if gamma <= 0:
            raise ValueError("margin must be positive")
        loss = 0.0
        for neg in negatives:
            score_neg, grad_neg = kg_score_grad(model, neg)
            hinge = gamma - score_pos + score_neg
            if hinge > 0:
                loss += hinge
                accumulate(grad_pos, -1.0)
                accumulate(grad_neg, 1.0)
    else:
        loss = -log_sigmoid(score_pos)
        accumulate(grad_pos, -sigmoid(-score_pos))
        for neg in negatives:
            score_neg, grad_neg = kg_score_grad(model, neg)
            loss -= log_sigmoid(-score_neg)
            accumulate(grad_neg, sigmoid(score_neg))
    if not np.isfinite(loss):
        raise NumericalError(f"non-finite {model.variant} loss")
    return float(loss), grads


def apply_grads(model: KgModel, grads: dict, lr: float) -> tuple[np.ndarray, np.ndarray]:
    """In-place SGD step; returns the touched (entity_ids, relation_ids)."""
    ent_ids, rel_ids = [], []
    for (name, idx), grad in grads.items():
        if not np.all(np.isfinite(grad)):
            raise NumericalError(f"non-finite gradient for {name}[{idx}]")
        model.params[name][idx] -= lr * grad
        if name.startswith("ent"):
            ent_ids.append(idx)
        else:
            rel_ids.append(idx)
    return np.array(ent_ids, dtype=np.int64), np.array(rel_ids, dtype=np.int64)


def head_parts(model: KgModel, entities) -> dict:
    """Head-side rows of one entity, or their means over several (a search
    query's words): 'ent', plus 'ent_p' / 'ent_im' where the variant has them."""
    entities = np.atleast_1d(np.asarray(entities, dtype=np.int64))
    return {name: model.params[name][entities].mean(axis=0)
            for name in ("ent", "ent_p", "ent_im") if name in model.params}


def score_tails(model: KgModel, head: dict, relation: int,
                candidates: np.ndarray | None = None) -> np.ndarray:
    """Vectorised tail scores for one query whose head is given by its
    :func:`head_parts` vectors."""
    p = model.params
    if candidates is None:
        candidates = np.arange(model.n_entities)
    h = head["ent"]
    r = p["rel"][relation]
    tails = p["ent"][candidates]
    norm = model.config.norm
    variant = model.variant

    def neg_norm(diff):
        if norm == "l1":
            return -np.abs(diff).sum(axis=1)
        return -np.linalg.norm(diff, axis=1)

    if variant == "transE":
        return neg_norm((h + r)[None, :] - tails)
    if variant == "transH":
        w = p["w"][relation]
        h_p = h - (w @ h) * w
        t_p = tails - np.outer(tails @ w, w)
        return neg_norm(h_p[None, :] + r[None, :] - t_p)
    if variant == "transR":
        m = p["proj"][relation]
        return neg_norm((m @ h + r)[None, :] - tails @ m.T)
    if variant == "transD":
        r_v = p["rel_p"][relation]
        h_p = h + (head["ent_p"] @ h) * r_v
        dots = np.sum(p["ent_p"][candidates] * tails, axis=1)
        t_p = tails + np.outer(dots, r_v)
        return neg_norm(h_p[None, :] + r[None, :] - t_p)
    if variant == "rescal":
        return tails @ (p["m"][relation].T @ h)
    if variant == "distmult":
        return tails @ (h * r)
    if variant == "hole":
        d = h.shape[0]
        # r.(h*t) = t.u with u_j = sum_k r_k h_(j-k)
        u = h[(np.arange(d)[:, None] - np.arange(d)[None, :]) % d] @ r
        return tails @ u
    if variant == "complex":
        h_im = head["ent_im"]
        r_im = p["rel_im"][relation]
        t_im = p["ent_im"][candidates]
        return tails @ (h * r - h_im * r_im) + t_im @ (h * r_im + h_im * r)
    raise ValueError(f"unknown variant {variant!r}")


def corrupt(triple: Triple, n_entities: int, rng: np.random.Generator,
            entity_pool: np.ndarray | None = None) -> Triple:
    """Replace head or tail (uniform coin) with a random entity."""
    pool_size = n_entities if entity_pool is None else entity_pool.shape[0]

    def draw(avoid):
        for _ in range(16):
            pick = int(rng.integers(pool_size))
            value = pick if entity_pool is None else int(entity_pool[pick])
            if value != avoid:
                return value
        return value

    if rng.random() < 0.5:
        return Triple(draw(triple.head), triple.relation, triple.tail)
    return Triple(triple.head, triple.relation, draw(triple.tail))


def hit_at_k(model: KgModel, triples: list[Triple], k: int = 10,
             candidates: np.ndarray | None = None) -> float:
    """Fraction of triples whose true tail ranks in the top k (ties by id); a
    tail missing from the candidates is a miss."""
    if not triples:
        return 0.0
    hits = 0
    cand = np.arange(model.n_entities) if candidates is None else candidates
    for triple in triples:
        scores = score_tails(model, head_parts(model, triple.head), triple.relation, cand)
        hits += int(triple.tail in rank_candidates(cand, scores, (), keep=k).candidates)
    return hits / len(triples)


def train_kg(
    model: KgModel,
    triples: list[Triple],
    validation: list[Triple] | None = None,
    candidates: np.ndarray | None = None,
    epochs: int | None = None,
    log: list | None = None,
) -> KgModel:
    """Margin/logistic SGD with per-triple corruption and early stopping.

    Shuffles triples each epoch, corrupts ``config.negatives`` entities per
    positive, applies the step and re-runs constraint projections.  With a
    validation set, stops once HIT@10 fails to improve for ``patience``
    epochs and returns the best snapshot; otherwise runs all epochs.
    """
    config = model.config
    epochs = config.epochs if epochs is None else epochs
    rng = np.random.default_rng(config.seed + 1)
    pool = candidates if candidates is not None else None
    best = model.copy()
    best_metric = -np.inf
    stale = 0
    for epoch in range(epochs):
        order = rng.permutation(len(triples))
        for idx in order:
            positive = triples[idx]
            negatives = [corrupt(positive, model.n_entities, rng, pool)
                         for _ in range(config.negatives)]
            loss, grads = margin_loss(model, positive, negatives)
            if grads:
                ent_ids, rel_ids = apply_grads(model, grads, config.lr)
                model.enforce_constraints(ent_ids, rel_ids)
        if validation is not None:
            metric = hit_at_k(model, validation, 10, candidates)
            if log is not None:
                log.append((epoch + 1, "hit@10", metric))
            if metric > best_metric + 1e-9:
                best_metric = metric
                best = model.copy()
                stale = 0
            else:
                stale += 1
                if stale >= config.patience:
                    return best
    return best if validation is not None else model


# --- the shared entity space over the multi-modal dataset ---

KG_RELATIONS = ("complement", "co_view", "substitute", "search", "describe", "isa")


@dataclass
class KgSpace:
    """Global entity index space for triple models over all three namespaces.

    Entity ids are item ids, then words, then categories, each block
    skipping its PAD row.  Relations are indexed by :data:`KG_RELATIONS`.
    """

    n_items: int
    n_words: int
    n_categories: int

    @property
    def n_entities(self) -> int:
        return (self.n_items - 1) + (self.n_words - 1) + (self.n_categories - 1)

    @property
    def n_relations(self) -> int:
        return len(KG_RELATIONS)

    def relation_index(self, name: str) -> int:
        return KG_RELATIONS.index(name)

    def item(self, item_id: int) -> int:
        return item_id - 1

    def word(self, word_id: int) -> int:
        return (self.n_items - 1) + word_id - 1

    def category(self, category_id: int) -> int:
        return (self.n_items - 1) + (self.n_words - 1) + category_id - 1

    def item_entities(self) -> np.ndarray:
        return np.arange(self.n_items - 1)


def graph_triples(edges_by_relation: dict, space: KgSpace) -> list[Triple]:
    """Convert relation-graph item edges to triples in the shared space."""
    out = []
    for relation in sorted(edges_by_relation):
        rel = space.relation_index(relation)
        for head, tail in edges_by_relation[relation]:
            out.append(Triple(space.item(head), rel, space.item(tail)))
    return out
