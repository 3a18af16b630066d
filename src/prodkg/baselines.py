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

import copy
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .embeddings import Grads, NumericalError, log_sigmoid, row_sums, sigmoid
from .ranking import RANK_CHUNK, rank_candidates

TRANSLATIONAL = ("transE", "transH", "transR", "transD")
SEMANTIC = ("rescal", "distmult", "hole", "complex")
VARIANTS = TRANSLATIONAL + SEMANTIC
# positives per minibatch; validated epochs without a new best HIT@10 before stopping
BATCH_SIZE = 32
PATIENCE = 5


@dataclass
class KgConfig:
    variant: str = "transE"
    dim: int = 100
    norm: str = "l2"            # l1 | l2, translational variants only
    margin: float = 1.0
    lr: float = 0.01
    negatives: int = 3
    epochs: int = 50
    seed: int = 7

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}; choose from {VARIANTS}")
        if self.norm not in ("l1", "l2"):
            raise ValueError("norm must be 'l1' or 'l2'")
        if self.variant in TRANSLATIONAL and not self.margin > 0:
            raise ValueError("margin must be positive for translational variants")


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


# the entity rows each variant reads
ENTITY_PARAMS = {variant: ("ent",) for variant in VARIANTS} | {
    "transD": ("ent", "ent_p"), "complex": ("ent", "ent_im")}


def _norm(diff: np.ndarray, norm: str) -> np.ndarray:
    """|diff| over the last axis under the l1 or l2 norm."""
    return np.abs(diff).sum(axis=-1) if norm == "l1" else np.linalg.norm(diff, axis=-1)


def _correlation_index(d: int) -> np.ndarray:
    # rows k, columns i: (i + k) mod d
    return (np.arange(d)[None, :] + np.arange(d)[:, None]) % d


def circular_correlation(h: np.ndarray, t: np.ndarray) -> np.ndarray:
    """corr[k] = sum_i h[i] * t[(i + k) mod d], computed by the direct definition."""
    d = h.shape[0]
    return t[_correlation_index(d)] @ h


def _matvecs(m: np.ndarray, *vs: np.ndarray) -> list:
    """m @ v over the last axis of each v: one matrix for every row, or a
    stack of matrices broadcasting against the rows, read once for all v."""
    if m.ndim == 2:
        return [v @ m.T for v in vs]
    return list(np.moveaxis(np.matmul(m, np.stack(vs, axis=-1)), -1, 0))


def entity_rows(model: KgModel, ids) -> tuple:
    """The rows the scorer reads for the entities ``ids``: 'ent', then
    'ent_p' (transD) or 'ent_im' (complex)."""
    return tuple(model.params[name][ids] for name in ENTITY_PARAMS[model.variant])


def kg_sides(model: KgModel, h: tuple, relations, t: tuple) -> tuple[tuple, tuple, Callable]:
    """Each variant's score as two sides and a comparator, and the pull of the
    score's gradient onto the parameter rows.

    ``h`` and ``t`` are head and tail :func:`entity_rows`; ``relations``
    broadcasts against their leading axes.  Translational variants score
    -|left - right| (l1 or l2), left = P_r(h) + r and right = P_r(t) for the
    relation's projection P_r (identity, hyperplane, matrix, dynamic
    rank-1), and ``pull(g)`` takes g = d score / d left (d score / d right
    is -g).  Semantic variants score sum(left * right), left = Q_r(h) and
    right = t ((t, t_im) for complex), and ``pull(g)`` takes g = d score /
    d left = right and covers the head and relation rows.  ``pull`` returns
    (param name, side, gradient rows), side 0, 1, 2 the heads, tails,
    relations.
    """
    p = model.params
    variant = model.variant
    x, y = h[0], t[0]
    r = p["rel"][relations]
    if variant == "transE":
        return (x + r,), (y,), lambda g: [("ent", 0, g), ("rel", 2, g), ("ent", 1, -g)]
    if variant == "transH":
        w = p["w"][relations]
        wx, wy = (w * x).sum(-1, keepdims=True), (w * y).sum(-1, keepdims=True)

        def pull(g):
            gw = (g * w).sum(-1, keepdims=True)
            return [("ent", 0, g - gw * w), ("ent", 1, -(g - gw * w)), ("rel", 2, g),
                    ("w", 2, -(gw * x + wx * g) + (gw * y + wy * g))]
        return ((x - wx * w) + r,), (y - wy * w,), pull
    if variant == "transR":
        m = p["proj"][relations]

        def pull(g):
            mg, = _matvecs(np.swapaxes(m, -1, -2), g)
            # P_r is linear: one g (h - t)^T block per triple covers both sides
            return [("ent", 0, mg), ("ent", 1, -mg), ("rel", 2, g),
                    ("proj", 2, g[..., :, None] * (x - y)[..., None, :])]
        mx, my = _matvecs(m, x, y)
        return (mx + r,), (my,), pull
    if variant == "transD":
        x_p, y_p = h[1], t[1]
        r_p = p["rel_p"][relations]
        xx, yy = (x_p * x).sum(-1, keepdims=True), (y_p * y).sum(-1, keepdims=True)

        def pull(g):
            gr = (g * r_p).sum(-1, keepdims=True)
            return [("ent", 0, g + gr * x_p), ("ent_p", 0, gr * x),
                    ("ent", 1, -(g + gr * y_p)), ("ent_p", 1, -gr * y),
                    ("rel", 2, g), ("rel_p", 2, xx * g - yy * g)]
        return ((x + xx * r_p) + r,), (y + yy * r_p,), pull
    if variant == "rescal":
        m = p["m"][relations]
        return (tuple(_matvecs(np.swapaxes(m, -1, -2), x)), t,
                lambda g: [("ent", 0, _matvecs(m, g[0])[0]),
                           ("m", 2, x[..., :, None] * g[0][..., None, :])])
    if variant == "distmult":
        return (x * r,), t, lambda g: [("ent", 0, g[0] * r), ("rel", 2, g[0] * x)]
    if variant == "hole":
        # left_j = sum_k r_k h_(j-k), so left . t = r . corr(h, t)
        d = x.shape[-1]

        def pull(g):
            g_shift = g[0][..., _correlation_index(d)]
            return [("ent", 0, np.einsum("...k,...ki->...i", r, g_shift)),
                    ("rel", 2, np.einsum("...ki,...i->...k", g_shift, x))]
        x_shift = x[..., (np.arange(d)[:, None] - np.arange(d)[None, :]) % d]
        return (np.einsum("...jk,...k->...j", x_shift, r),), t, pull
    if variant == "complex":
        x_im, r_im = h[1], p["rel_im"][relations]

        def pull(g):
            g_re, g_im = g
            return [("ent", 0, g_re * r + g_im * r_im), ("ent_im", 0, g_re * -r_im + g_im * r),
                    ("rel", 2, g_re * x + g_im * x_im), ("rel_im", 2, g_re * -x_im + g_im * x)]
        return (x * r - x_im * r_im, x * r_im + x_im * r), t, pull
    raise ValueError(f"unknown variant {variant!r}")


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
    left, right, pull = kg_sides(model, entity_rows(model, heads), relations,
                                 entity_rows(model, tails))
    if model.variant in TRANSLATIONAL:
        diff = left[0] - right[0]
        value = _norm(diff, model.config.norm)
        # the gradient of |diff|, zero at the kink/origin
        g = np.sign(diff) if model.config.norm == "l1" else \
            diff / np.where(value == 0.0, 1.0, value)[..., None]
        scores, parts = -value, pull(-g)
    else:
        products = [side * rows for side, rows in zip(left, right)]
        scores = sum(products[1:], products[0]).sum(-1)
        parts = pull(right) + [(name, 1, side) for name, side
                               in zip(ENTITY_PARAMS[model.variant], left)]
    ids = (heads, tails, relations)
    return scores, [(name, ids[side], grad) for name, side, grad in parts]


def margin_loss(model: KgModel, heads: np.ndarray, relations: np.ndarray,
                tails: np.ndarray) -> tuple[float, Grads]:
    """Summed ranking loss of B positives against their corrupted triples,
    scored in one pass over the (B, 1 + N) ``heads`` and ``tails`` blocks that
    :func:`corrupt` returns (column 0 the positives, all on ``relations``).

    Translational variants use the hinge sum(max(0, margin - s_pos + s_neg));
    semantic-matching variants use -log s(s_pos) - sum log s(-s_neg).  Returns
    the loss and, per parameter, the gradient rows of every triple whose loss
    term has a nonzero gradient.
    """
    scores, parts = kg_score_grad(model, heads, np.broadcast_to(relations[:, None], heads.shape),
                                  tails)
    pos, neg = scores[:, :1], scores[:, 1:]
    if model.variant in TRANSLATIONAL:
        hinge = model.config.margin - pos + neg
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


def score_tail_block(model: KgModel, heads, relations, candidates: np.ndarray) -> np.ndarray:
    """(Q, N) tail scores of the candidates for Q queries, each a head entity
    id and its relation (one relation index may serve them all).  The
    candidates' rows are gathered once, and their right side computed once
    per relation."""
    rows = entity_rows(model, candidates)
    head_rows = entity_rows(model, heads)
    relations = np.broadcast_to(relations, len(heads))
    scores = np.empty((len(heads), len(candidates)))
    for relation in np.unique(relations):
        queries = np.flatnonzero(relations == relation)
        left, right, _pull = kg_sides(model, tuple(x[queries] for x in head_rows), relation, rows)
        for q, *query in zip(queries, *left):
            if model.variant in TRANSLATIONAL:
                scores[q] = -_norm(query[0] - right[0], model.config.norm)
            else:
                scores[q] = sum((part @ side for side, part in zip(query[1:], right[1:])),
                                right[0] @ query[0])
    return scores


def tail_ranks(model: KgModel, triples: np.ndarray, candidates: np.ndarray | None = None
               ) -> np.ndarray:
    """(n,) ranks of the true tails of the (n, 3) (head, relation, tail) rows
    among the candidates (every entity by default), ranked in blocks of
    :data:`prodkg.ranking.RANK_CHUNK`; a tail missing from the candidates
    ranks past all of them."""
    cand = np.arange(model.n_entities) if candidates is None else candidates
    ranks = np.empty(len(triples), dtype=np.int64)
    for start in range(0, len(triples), RANK_CHUNK):
        chunk = slice(start, start + RANK_CHUNK)
        heads, relations, tails = triples[chunk].T
        ranks[chunk] = rank_candidates(score_tail_block(model, heads, relations, cand),
                                       cand, tails)
    return ranks


def hit_at_k(model: KgModel, triples: np.ndarray, k: int = 10,
             candidates: np.ndarray | None = None) -> float:
    """Fraction of the (n, 3) (head, relation, tail) rows whose true tail ranks
    in the top k (ties by id); a tail missing from the candidates is a miss."""
    if not len(triples):
        return 0.0
    n = model.n_entities if candidates is None else len(candidates)
    # a missing tail ranks past every candidate, a miss even when k exceeds them
    return float(np.mean(tail_ranks(model, triples, candidates) <= min(k, n)))


def train_kg(
    model: KgModel,
    triples: np.ndarray,
    validation: np.ndarray | None = None,
    candidates: np.ndarray | None = None,
) -> KgModel:
    """Minibatch margin/logistic SGD with early stopping.

    ``triples`` and ``validation`` are (n, 3) int64 (head, relation, tail)
    rows.  Each epoch shuffles the triples and walks them in blocks of
    ``BATCH_SIZE``: one :func:`corrupt` call draws ``config.negatives``
    corruptions per positive from ``candidates`` (every entity by default),
    every row takes the sum of its per-triple gradients at ``config.lr``, and
    the constraint projections run once on the touched rows.  With a
    validation set, stops once HIT@10 fails to improve for ``PATIENCE``
    epochs and returns the best snapshot; otherwise runs all epochs.
    """
    config = model.config
    rng = np.random.default_rng(config.seed + 1)
    pool = np.arange(model.n_entities) if candidates is None else np.unique(candidates)
    best = model
    best_metric = -np.inf
    stale = 0
    for _epoch in range(config.epochs):
        order = rng.permutation(len(triples))
        for start in range(0, len(order), BATCH_SIZE):
            heads, relations, tails = triples[order[start:start + BATCH_SIZE]].T
            heads, tails = corrupt(heads, tails, config.negatives, rng, pool)
            _loss, grads = margin_loss(model, heads, relations, tails)
            if grads.rows:
                ent_ids, rel_ids = apply_grads(model, grads, config.lr)
                model.enforce_constraints(ent_ids, rel_ids)
        if validation is not None:
            metric = hit_at_k(model, validation, 10, candidates)
            stale = 0 if metric > best_metric else stale + 1
            if stale == 0:
                best_metric = metric
                best = copy.deepcopy(model)
            elif stale >= PATIENCE:
                break
    return best


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

    def item_entities(self) -> np.ndarray:
        return np.arange(self.n_items - 1)


def graph_triples(edges_by_relation: dict, space: KgSpace) -> np.ndarray:
    """(n, 3) int64 (head, relation, tail) rows of relation-graph item edges
    in the shared space, relations in name order."""
    rows = [(space.item(head), space.relation_index(relation), space.item(tail))
            for relation in sorted(edges_by_relation)
            for head, tail in edges_by_relation[relation]]
    return np.array(rows, dtype=np.int64).reshape(-1, 3)
