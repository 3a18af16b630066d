"""Triple-based knowledge-graph embedding baselines.

Eight scorers over (head, relation, tail) triples: four translational
distance models (plain, hyperplane-projected, subspace-projected, and
dynamic rank-1 projections) and four semantic-matching models (bilinear,
diagonal bilinear, circular correlation, complex-valued bilinear).
Translational variants train with margin ranking against corrupted
triples; semantic-matching variants use the logistic loss.  Training is
minibatch SGD: a block of positives and their corruptions is scored in one
pass, each parameter row takes the sum of its per-triple gradients, and the
constraint projections run once per block.  All gradients are analytic and
covered by finite-difference tests.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .embeddings import Grads, NumericalError, log_sigmoid, row_sums, sigmoid
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
    batch_size: int = 32
    seed: int = 7

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}; choose from {VARIANTS}")
        if self.norm not in ("l1", "l2"):
            raise ValueError("norm must be 'l1' or 'l2'")
        if self.variant in TRANSLATIONAL and not self.margin > 0:
            raise ValueError("margin must be positive for translational variants")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")


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


def _norm_and_grad(diff: np.ndarray, norm: str) -> tuple[np.ndarray, np.ndarray]:
    """|diff| over the last axis and its gradient, zero at the kink/origin."""
    if norm == "l1":
        return np.abs(diff).sum(axis=-1), np.sign(diff)
    value = np.linalg.norm(diff, axis=-1)
    return value, diff / np.where(value == 0.0, 1.0, value)[..., None]


def _correlation_index(d: int) -> np.ndarray:
    # rows k, columns i: (i + k) mod d
    return (np.arange(d)[None, :] + np.arange(d)[:, None]) % d


def circular_correlation(h: np.ndarray, t: np.ndarray) -> np.ndarray:
    """corr[k] = sum_i h[i] * t[(i + k) mod d], computed by the direct definition."""
    d = h.shape[0]
    return t[_correlation_index(d)] @ h


def kg_score_grad(model: KgModel, heads: np.ndarray, relations: np.ndarray,
                  tails: np.ndarray) -> tuple[np.ndarray, list]:
    """Plausibility scores (higher is better) of the triples (heads[i],
    relations[i], tails[i]) for index arrays of one shape S, and the
    gradient of each score.

    The gradients are a list of (param_name, row ids, gradient rows): the
    ids have shape S and the gradients shape S plus the parameter's row
    shape (a vector, or a matrix for the per-relation projection and
    bilinear matrices).  A parameter may appear twice (head and tail rows).
    """
    p = model.params
    h, r, t = p["ent"][heads], p["rel"][relations], p["ent"][tails]
    norm = model.config.norm
    variant = model.variant
    if variant == "transE":
        value, g = _norm_and_grad(h + r - t, norm)
        return -value, [("ent", heads, -g), ("rel", relations, -g), ("ent", tails, g)]
    if variant == "transH":
        w = p["w"][relations]
        wh, wt = (w * h).sum(-1, keepdims=True), (w * t).sum(-1, keepdims=True)
        value, g = _norm_and_grad((h - wh * w) + r - (t - wt * w), norm)
        g = -g  # gradient of score = -|.|
        gw = (g * w).sum(-1, keepdims=True)
        return -value, [("ent", heads, g - gw * w), ("ent", tails, -(g - gw * w)),
                        ("rel", relations, g),
                        ("w", relations, -(gw * h + wh * g) + (gw * t + wt * g))]
    if variant == "transR":
        m = p["proj"][relations]
        value, g = _norm_and_grad(np.einsum("...ij,...j->...i", m, h - t) + r, norm)
        g = -g
        mg = np.einsum("...ji,...j->...i", m, g)
        return -value, [("ent", heads, mg), ("ent", tails, -mg), ("rel", relations, g),
                        ("proj", relations, g[..., :, None] * (h - t)[..., None, :])]
    if variant == "transD":
        h_v, t_v = p["ent_p"][heads], p["ent_p"][tails]
        r_v = p["rel_p"][relations]
        hh, tt = (h_v * h).sum(-1, keepdims=True), (t_v * t).sum(-1, keepdims=True)
        value, g = _norm_and_grad((h + hh * r_v) + r - (t + tt * r_v), norm)
        g = -g
        gr = (g * r_v).sum(-1, keepdims=True)
        return -value, [("ent", heads, g + gr * h_v), ("ent_p", heads, gr * h),
                        ("ent", tails, -(g + gr * t_v)), ("ent_p", tails, -gr * t),
                        ("rel", relations, g), ("rel_p", relations, hh * g - tt * g)]
    if variant == "rescal":
        m = p["m"][relations]
        m_t = np.einsum("...ij,...j->...i", m, t)
        return (h * m_t).sum(-1), [("ent", heads, m_t),
                                   ("ent", tails, np.einsum("...ij,...i->...j", m, h)),
                                   ("m", relations, h[..., :, None] * t[..., None, :])]
    if variant == "distmult":
        return (h * r * t).sum(-1), [("ent", heads, r * t), ("ent", tails, h * r),
                                     ("rel", relations, h * t)]
    if variant == "hole":
        d = h.shape[-1]
        t_shift = t[..., _correlation_index(d)]
        corr = np.einsum("...ki,...i->...k", t_shift, h)
        # d score / d h_i = sum_k r_k t_(i+k)  ;  d score / d t_j = sum_k r_k h_(j-k)
        h_shift = h[..., (np.arange(d)[:, None] - np.arange(d)[None, :]) % d]
        return (r * corr).sum(-1), [("rel", relations, corr),
                                    ("ent", heads, np.einsum("...k,...ki->...i", r, t_shift)),
                                    ("ent", tails, np.einsum("...jk,...k->...j", h_shift, r))]
    if variant == "complex":
        h_im, t_im = p["ent_im"][heads], p["ent_im"][tails]
        r_im = p["rel_im"][relations]
        score = ((h * r - h_im * r_im) * t + (h * r_im + h_im * r) * t_im).sum(-1)
        return score, [("ent", heads, r * t + r_im * t_im),
                       ("ent_im", heads, -r_im * t + r * t_im),
                       ("rel", relations, h * t + h_im * t_im),
                       ("rel_im", relations, -h_im * t + h * t_im),
                       ("ent", tails, h * r - h_im * r_im),
                       ("ent_im", tails, h * r_im + h_im * r)]
    raise ValueError(f"unknown variant {variant!r}")


def margin_loss(model: KgModel, heads: np.ndarray, relations: np.ndarray, tails: np.ndarray,
                gamma: float | None = None) -> tuple[float, Grads]:
    """Summed ranking loss of B positives against their corrupted triples,
    scored in one pass over the (B, 1 + N) ``heads`` and ``tails`` blocks that
    :func:`corrupt` returns (column 0 the positives, all on ``relations``).

    Translational variants use the hinge sum(max(0, gamma - s_pos + s_neg));
    semantic-matching variants use -log s(s_pos) - sum log s(-s_neg).  Returns
    the loss and, per parameter, the gradient rows of every triple whose loss
    term has a nonzero gradient.
    """
    scores, parts = kg_score_grad(model, heads, np.broadcast_to(relations[:, None], heads.shape),
                                  tails)
    pos, neg = scores[:, :1], scores[:, 1:]
    if model.variant in TRANSLATIONAL:
        gamma = model.config.margin if gamma is None else gamma
        if gamma <= 0:
            raise ValueError("margin must be positive")
        hinge = gamma - pos + neg
        active = hinge > 0
        loss = hinge[active].sum()
        # d loss / d score: -1 per active hinge for the positive, +1 for the negative
        coeff = np.concatenate((-active.sum(axis=1, keepdims=True), active), axis=1)
    else:
        loss = -log_sigmoid(pos).sum() - log_sigmoid(-neg).sum()
        coeff = np.concatenate((-sigmoid(-pos), sigmoid(neg)), axis=1)
    if not np.isfinite(loss):
        raise NumericalError(f"non-finite {model.variant} loss")
    keep = coeff != 0
    if not keep.any():
        return float(loss), Grads({}, {}, {})
    factor = coeff[keep].astype(float)
    rows: dict[str, list] = {}
    row_grads: dict[str, list] = {}
    for name, ids, grad in parts:
        rows.setdefault(name, []).append(ids[keep])
        row_grads.setdefault(name, []).append((grad[keep].T * factor).T)  # one factor per row
    return float(loss), Grads({name: np.concatenate(ids) for name, ids in rows.items()},
                              {name: np.concatenate(grads) for name, grads in row_grads.items()},
                              {})


def apply_grads(model: KgModel, grads: Grads, lr: float) -> tuple[np.ndarray, np.ndarray]:
    """In-place SGD step: each parameter row takes the sum of its emitted
    gradients at rate ``lr``.  Returns the touched (entity_ids, relation_ids)."""
    ent_ids, rel_ids = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
    for name, ids in grads.rows.items():
        unique, summed = row_sums(ids, grads.row_grads[name])
        finite = np.isfinite(summed).all(axis=tuple(range(1, summed.ndim)))
        if not finite.all():
            raise NumericalError(f"non-finite gradient for {name}[{unique[np.argmin(finite)]}]")
        model.params[name][unique] -= lr * summed
        (ent_ids if name.startswith("ent") else rel_ids).append(unique)
    return np.concatenate(ent_ids), np.concatenate(rel_ids)


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


def corrupt(heads: np.ndarray, tails: np.ndarray, negatives: int,
            rng: np.random.Generator, pool: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(B, 1 + negatives) heads and tails: column 0 the B positives, then
    their corruptions.

    A fair coin per negative picks the side to replace; the replacement is
    uniform over the sorted, distinct ``pool`` with the replaced entity left
    out (draw from one slot fewer and skip that entity's slot), so it never
    comes back while the pool has two members or more.
    """
    if pool.size < 2:
        raise ValueError("corruption needs a pool of at least two entities")
    replace_head = rng.random((heads.shape[0], negatives)) < 0.5
    replaced = np.where(replace_head, heads[:, None], tails[:, None])
    slot = np.searchsorted(pool, replaced)
    in_pool = pool[np.minimum(slot, pool.size - 1)] == replaced
    draw = rng.integers(pool.size - in_pool)
    picked = pool[draw + (in_pool & (draw >= slot))]
    return (np.hstack((heads[:, None], np.where(replace_head, picked, heads[:, None]))),
            np.hstack((tails[:, None], np.where(replace_head, tails[:, None], picked))))


def hit_at_k(model: KgModel, triples: np.ndarray, k: int = 10,
             candidates: np.ndarray | None = None) -> float:
    """Fraction of the (n, 3) (head, relation, tail) rows whose true tail ranks
    in the top k (ties by id); a tail missing from the candidates is a miss."""
    if not len(triples):
        return 0.0
    hits = 0
    cand = np.arange(model.n_entities) if candidates is None else candidates
    for head, relation, tail in triples.tolist():
        scores = score_tails(model, head_parts(model, head), relation, cand)
        hits += int(tail in rank_candidates(cand, scores, (), keep=k).candidates)
    return hits / len(triples)


def train_kg(
    model: KgModel,
    triples: np.ndarray,
    validation: np.ndarray | None = None,
    candidates: np.ndarray | None = None,
) -> KgModel:
    """Minibatch margin/logistic SGD with early stopping.

    ``triples`` and ``validation`` are (n, 3) int64 (head, relation, tail)
    rows.  Each epoch shuffles the triples and walks them in blocks of
    ``config.batch_size``: one :func:`corrupt` call draws ``config.negatives``
    corruptions per positive from ``candidates`` (every entity by default),
    every row takes the sum of its per-triple gradients at ``config.lr``, and
    the constraint projections run once on the touched rows.  With a
    validation set, stops once HIT@10 fails to improve for ``patience``
    epochs and returns the best snapshot; otherwise runs all epochs.
    """
    config = model.config
    rng = np.random.default_rng(config.seed + 1)
    pool = np.arange(model.n_entities) if candidates is None else np.unique(candidates)
    best = model.copy()
    best_metric = -np.inf
    stale = 0
    for _epoch in range(config.epochs):
        order = rng.permutation(len(triples))
        for start in range(0, len(order), config.batch_size):
            heads, relations, tails = triples[order[start:start + config.batch_size]].T
            heads, tails = corrupt(heads, tails, config.negatives, rng, pool)
            _loss, grads = margin_loss(model, heads, relations, tails)
            if grads.rows:
                ent_ids, rel_ids = apply_grads(model, grads, config.lr)
                model.enforce_constraints(ent_ids, rel_ids)
        if validation is not None:
            metric = hit_at_k(model, validation, 10, candidates)
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


def graph_triples(edges_by_relation: dict, space: KgSpace) -> np.ndarray:
    """(n, 3) int64 (head, relation, tail) rows of relation-graph item edges
    in the shared space, relations in name order."""
    rows = [(space.item(head), space.relation_index(relation), space.item(tail))
            for relation in sorted(edges_by_relation)
            for head, tail in edges_by_relation[relation]]
    return np.array(rows, dtype=np.int64).reshape(-1, 3)
