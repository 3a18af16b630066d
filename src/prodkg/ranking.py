"""The one ranking routine: the rank of each query's gold id among the
candidates ordered by descending score, ties towards the smaller entity id.

It lives apart from :mod:`prodkg.evaluation` so that the triple baselines
rank through it too without importing the proposed model's evaluation.
"""
from __future__ import annotations

import numpy as np

# Queries ranked per (Q, N) score block: 64 queries over 2,000 items is 1 MB.
# A block of 256 raised train-baseline's peak RSS by about 2 MB on a
# 1,000-item catalog, where the stage peaks inside hit_at_k.
RANK_CHUNK = 64


def rank_candidates(scores: np.ndarray, candidates: np.ndarray, gold) -> np.ndarray:
    """(Q,) 1-based ranks of the gold ids in a (Q, N) score block.

    Row ``q`` scores the distinct ``candidates`` for query ``q``.  A gold
    id's rank is 1 + the candidates scoring strictly higher + the candidates
    scoring equal with a smaller id; a gold id missing from the candidates
    ranks N + 1, behind every candidate.
    """
    scores = np.asarray(scores, dtype=float)
    candidates = np.asarray(candidates, dtype=np.int64)
    gold = np.asarray(gold, dtype=np.int64)
    if candidates.ndim != 1 or candidates.size == 0 or gold.ndim != 1 \
            or scores.shape != (gold.size, candidates.size):
        raise ValueError("expected a (Q, N) score block, N nonempty candidate ids "
                         "and Q gold ids")
    order = np.argsort(candidates, kind="stable")
    slot = np.minimum(np.searchsorted(candidates, gold, sorter=order), candidates.size - 1)
    column = order[slot]
    present = candidates[column] == gold
    gold_scores = scores[np.arange(gold.size), column][:, None]
    ahead = (scores > gold_scores) | ((scores == gold_scores)
                                      & (candidates[None, :] < gold[:, None]))
    return np.where(present, 1 + np.count_nonzero(ahead, axis=1), candidates.size + 1)
