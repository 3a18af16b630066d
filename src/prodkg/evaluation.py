"""Tail scoring and ranking for the proposed model, ranking metrics, the
category classification probe, and the full evaluation protocol.

Ranking contracts: the candidates are the full item vocabulary minus PAD,
scores are whatever monotone quantity the relation defines (inner products;
exponentiating them cannot change any metric), and the queries of a task
are ranked in blocks by :func:`prodkg.ranking.rank_candidates`, which
breaks ties deterministically towards the smaller entity id.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .attention import context_for_ranking
from .data import SPLIT_FRACTIONS
from .model import PkgParams
from .ranking import RANK_CHUNK, rank_candidates

# The classification probe's L2 penalty, learning rate and full-batch steps.
PROBE_L2, PROBE_LR, PROBE_STEPS = 1e-4, 0.5, 300

# relation -> (head table, attention block, scoring tables).  An entity head
# (an item, or a category for isa) is its own row of the head table; a
# sequence head (a session context, a query's words, a recommendation
# prefix) is the attention block's context vector.  Recommendation scores
# against the sum of the two item output tables.
PKG_SCORING = {
    "substitute": ("item_in", None, ("item_in",)),
    "complement": ("item_in", "complement", ("item_out_buy",)),
    "co_view": ("item_in", "co_view", ("item_out_view",)),
    "search": (None, "search", ("item_in",)),
    "describe": (None, "describe", ("item_in",)),
    "isa": ("category", None, ("item_in",)),
    "recommend": (None, "complement", ("item_out_buy", "item_out_view")),
}


def pkg_candidate_scores(params: PkgParams, relation: str, heads) -> np.ndarray:
    """(Q, N) scores of every non-PAD item (ids 1..N, in order) as tail for
    each query, per the trained model.

    A head is an item id (substitute/complement/co_view), a category id
    (isa), or an id sequence (a complement/co_view context, search/describe
    words, a recommend prefix); the sequence heads' contexts come from one
    padded attention pass.  Each query's row is its own ``rows @ query``
    product, so an entity head's scores do not depend on which queries share
    its block (a sequence head's context may, in its last bits).
    """
    if relation not in PKG_SCORING:
        raise ValueError(f"unknown relation {relation!r}")
    head_table, block, score_tables = PKG_SCORING[relation]
    tables = params.tables
    rows = tables[score_tables[0]].values[1:]
    for name in score_tables[1:]:
        rows = rows + tables[name].values[1:]
    queries = np.empty((len(heads), rows.shape[1]))
    sequences = [q for q, head in enumerate(heads) if head_table is None or np.ndim(head) > 0]
    if sequences:
        queries[sequences] = context_for_ranking([heads[q] for q in sequences], tables,
                                                 params.attn[block], block)
    for q, head in enumerate(heads):
        if head_table is not None and np.ndim(head) == 0:
            queries[q] = tables[head_table].values[int(head)]
    scores = np.empty((len(heads), rows.shape[0]))
    for q, query in enumerate(queries):
        scores[q] = rows @ query
    return scores


def rank_tail(params: PkgParams, relation: str, heads, gold) -> np.ndarray:
    """(Q,) ranks of the gold items of Q queries among every non-PAD item,
    scored by :func:`pkg_candidate_scores` and ranked in blocks of
    :data:`prodkg.ranking.RANK_CHUNK`."""
    cand = np.arange(1, params.tables["item_in"].rows, dtype=np.int64)
    gold = np.asarray(gold, dtype=np.int64)
    ranks = np.empty(len(heads), dtype=np.int64)
    for start in range(0, len(heads), RANK_CHUNK):
        chunk = slice(start, start + RANK_CHUNK)
        ranks[chunk] = rank_candidates(pkg_candidate_scores(params, relation, heads[chunk]),
                                       cand, gold[chunk])
    return ranks


def ranking_metrics(ranks: np.ndarray, k: int = 10) -> dict:
    """HIT@K, NDCG@K, R@K and MAP@K averaged over single-gold queries.

    With one gold id at rank r, NDCG is 1/log2(r+1) (ideal DCG 1), recall
    equals the hit, and average precision is 1/r, each 0 when r > K.
    """
    if k <= 0:
        raise ValueError("k must be positive")
    ranks = np.asarray(ranks, dtype=np.int64)
    if ranks.size == 0:
        raise ValueError("no ranks to aggregate")
    within = ranks <= k
    hits = within.astype(float)
    return {
        f"hit@{k}": float(np.mean(hits)),
        f"ndcg@{k}": float(np.mean(np.where(within, 1.0 / np.log2(ranks + 1), 0.0))),
        f"recall@{k}": float(np.mean(hits)),
        f"map@{k}": float(np.mean(np.where(within, 1.0 / ranks, 0.0))),
    }


def classification_probe(
    features: np.ndarray,
    labels: np.ndarray,
    train_idx: np.ndarray,
    test_idx: np.ndarray,
) -> tuple[float, float]:
    """Multinomial logistic regression probe; returns (micro-F1, macro-F1).

    Trained full-batch from zero weights (deterministic), with L2 penalty.
    Classes absent from the training rows are excluded from the macro
    average with a warning.
    """
    features = np.asarray(features, dtype=float)
    labels = np.asarray(labels, dtype=np.int64)
    classes, y = np.unique(labels, return_inverse=True)
    n_classes = classes.size

    x_train = features[train_idx]
    y_train = y[train_idx]
    weights = np.zeros((features.shape[1] + 1, n_classes))
    x1 = np.hstack([x_train, np.ones((x_train.shape[0], 1))])
    onehot = np.zeros((x_train.shape[0], n_classes))
    onehot[np.arange(x_train.shape[0]), y_train] = 1.0
    for _ in range(PROBE_STEPS):
        logits = x1 @ weights
        logits -= logits.max(axis=1, keepdims=True)
        probs = np.exp(logits)
        probs /= probs.sum(axis=1, keepdims=True)
        grad = x1.T @ (probs - onehot) / x1.shape[0] + PROBE_L2 * weights
        weights -= PROBE_LR * grad

    x_test = np.hstack([features[test_idx], np.ones((len(test_idx), 1))])
    predictions = np.argmax(x_test @ weights, axis=1)
    truth = y[test_idx]

    trained_classes = np.unique(y_train)
    missing = set(range(n_classes)) - set(trained_classes.tolist())
    if missing:
        warnings.warn(f"{len(missing)} class(es) absent from probe training; excluded from macro-F1")

    right = predictions == truth
    tp = np.bincount(truth[right], minlength=n_classes).astype(float)
    fp = np.bincount(predictions[~right], minlength=n_classes).astype(float)
    fn = np.bincount(truth[~right], minlength=n_classes).astype(float)
    micro_p = tp.sum() / max(tp.sum() + fp.sum(), 1e-12)
    micro_r = tp.sum() / max(tp.sum() + fn.sum(), 1e-12)
    micro = 0.0 if micro_p + micro_r == 0 else 2 * micro_p * micro_r / (micro_p + micro_r)

    f1s = []
    for cls in trained_classes:
        p = tp[cls] / max(tp[cls] + fp[cls], 1e-12)
        r = tp[cls] / max(tp[cls] + fn[cls], 1e-12)
        f1s.append(0.0 if p + r == 0 else 2 * p * r / (p + r))
    macro = float(np.mean(f1s)) if f1s else 0.0
    return float(micro), macro


# --- relation-graph splitting with the connectivity condition ---

@dataclass
class GraphSplit:
    train: list
    validation: list
    test: list


def split_relation_graph(edges: list, seed: int) -> GraphSplit:
    """Random edge split; eval edges touching train-isolated nodes move back.

    Validation/test get floor(f * n) edges each, f from ``SPLIT_FRACTIONS``.
    Afterwards, while some node appears only in evaluation edges, the
    smallest such offending edge returns to train (deterministic repair order).
    """
    edges = list(edges)
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(edges))
    shuffled = [edges[i] for i in order]
    n = len(edges)
    n_val = int(SPLIT_FRACTIONS[1] * n)
    n_test = int(SPLIT_FRACTIONS[2] * n)
    n_train = n - n_val - n_test
    train = shuffled[:n_train]
    validation = shuffled[n_train:n_train + n_val]
    test = shuffled[n_train + n_val:]

    while True:
        covered = {node for edge in train for node in edge}
        offending = [e for e in validation + test if e[0] not in covered or e[1] not in covered]
        if not offending:
            break
        move = min(offending)
        if move in validation:
            validation.remove(move)
        else:
            test.remove(move)
        train.append(move)
    return GraphSplit(train=train, validation=validation, test=test)


def drop_leaky_examples(examples: list, eval_edges: set) -> list:
    """Remove (context, target) examples that would reveal a held-out edge.

    An example leaks when its target forms a held-out edge (in either
    orientation) with any of its context items: training on it would
    directly optimise the exact score ranked at evaluation time.
    """
    undirected = set(eval_edges) | {(t, h) for h, t in eval_edges}
    return [(context, target) for context, target in examples
            if not any((c, target) in undirected for c in context)]


def remove_leaky_pairs(pairs, eval_edges: set):
    return [pair for pair in pairs
            if (pair.accepted_for, pair.substitute) not in eval_edges
            and (pair.substitute, pair.accepted_for) not in eval_edges]


# --- report assembly ---

ROW_LABELS = {
    ("complement", "hit@10"): "a1",
    ("complement", "ndcg@10"): "a2",
    ("co_view", "hit@10"): "a3",
    ("co_view", "ndcg@10"): "a4",
    ("substitute", "hit@10"): "a5",
    ("substitute", "ndcg@10"): "a6",
    ("isa_category", "micro_f1"): "a7",
    ("isa_category", "macro_f1"): "a8",
    ("isa_department", "micro_f1"): "a9",
    ("isa_department", "macro_f1"): "a10",
    ("recommend", "hit@10"): "a11",
    ("recommend", "ndcg@10"): "a12",
    ("search_encountered", "recall@10"): "a13",
    ("search_encountered", "map@10"): "a14",
    ("search_new", "recall@10"): "a15",
    ("search_new", "map@10"): "a16",
}


@dataclass
class MetricsReport:
    rows: list = field(default_factory=list)   # (model, task, metric, value or None)
    meta: dict = field(default_factory=dict)

    def add(self, model: str, task: str, metric: str, value) -> None:
        if value is not None and not 0.0 <= value <= 1.0 + 1e-9:
            raise ValueError(f"metric {metric} for {task} out of [0, 1]: {value}")
        self.rows.append((model, task, metric, value))

    def to_tsv(self) -> str:
        lines = ["model\ttask\tmetric\tvalue"]
        for model, task, metric, value in self.rows:
            rendered = "absent" if value is None else f"{value:.9g}"
            lines.append(f"{model}\t{task}\t{metric}\t{rendered}")
        return "\n".join(lines) + "\n"

    def summary(self) -> str:
        lines = ["== evaluation summary =="]
        for key, value in sorted(self.meta.items()):
            lines.append(f"   {key}: {value}")
        for model, task, metric, value in self.rows:
            label = ROW_LABELS.get((task, metric), "  -")
            rendered = "absent" if value is None else f"{100 * value:7.2f}%"
            lines.append(f"({label:>3}) {model:<16} {task:<18} {metric:<10} {rendered}")
        return "\n".join(lines) + "\n"


def evaluate_all(
    params: PkgParams,
    graph_splits: dict | None = None,
    search_test: list | None = None,
    train_queries: set | None = None,
    recommend_sessions: list | None = None,
    probe_features: np.ndarray | None = None,
    probe_labels: dict | None = None,
    probe_test_rows: np.ndarray | None = None,
    k: int = 10,
    query_cap: int | None = None,
) -> MetricsReport:
    """Full protocol: knowledge completion, search ranking, recommendation,
    and the category/department classification probe.

    Knowledge completion ranks each held-out relation-graph edge's tail as
    a single-gold query.  Search queries split into encountered (exact word
    multiset seen in training) and new.  Recommendation predicts each next
    impression in the pooled test sessions from its prefix.  Absent inputs
    produce absent report cells rather than errors.
    """
    report = MetricsReport()
    report.meta["k"] = k

    def rank_rows(relation, task, heads, golds, metrics=("hit", "ndcg")):
        ranks = rank_tail(params, relation, heads, golds)
        values = ranking_metrics(ranks, k=k) if len(ranks) else {}
        for metric in metrics:
            report.add("proposed", task, f"{metric}@{k}", values.get(f"{metric}@{k}"))

    # knowledge completion over held-out relation-graph edges
    if graph_splits:
        for relation in sorted(graph_splits):
            split = graph_splits[relation]
            edges = split.test if query_cap is None else split.test[:query_cap]
            rank_rows(relation, relation, [h for h, _t in edges], [t for _h, t in edges])

    # search ranking, split by whether the exact query was seen in training
    if search_test is not None:
        train_queries = train_queries or set()
        groups = {"search_encountered": ([], []), "search_new": ([], [])}
        for record in (search_test if query_cap is None else search_test[:query_cap]):
            key = tuple(sorted(record.query_words))
            heads, golds = groups["search_encountered" if key in train_queries
                                  else "search_new"]
            heads.append(np.asarray(record.query_words))
            golds.append(record.clicked_item)
        for bucket, (heads, golds) in groups.items():
            rank_rows("search", bucket, heads, golds, ("recall", "map"))

    # next-impression recommendation over pooled test sessions
    if recommend_sessions is not None:
        sessions = recommend_sessions if query_cap is None else recommend_sessions[:query_cap]
        prefixes = [np.asarray(s[:end]) for s in sessions for end in range(1, len(s))]
        golds = [s[end] for s in sessions for end in range(1, len(s))]
        rank_rows("recommend", "recommend", prefixes, golds)

    # classification probe on the masked products
    if probe_features is not None and probe_labels and probe_test_rows is not None:
        all_rows = np.arange(probe_features.shape[0])
        train_rows = np.setdiff1d(all_rows, probe_test_rows)
        for level in sorted(probe_labels):
            labels = probe_labels[level]
            if probe_test_rows.size == 0 or train_rows.size == 0:
                report.add("proposed", f"isa_{level}", "micro_f1", None)
                report.add("proposed", f"isa_{level}", "macro_f1", None)
                continue
            micro, macro = classification_probe(probe_features, labels,
                                                train_rows, probe_test_rows)
            report.add("proposed", f"isa_{level}", "micro_f1", micro)
            report.add("proposed", f"isa_{level}", "macro_f1", macro)
    return report
