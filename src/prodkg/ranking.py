"""The one ranking routine: candidates ordered by descending score, ties
towards the smaller entity id, and the ranks of the gold ids in that order.

It lives apart from :mod:`prodkg.evaluation` so that the triple baselines,
which evaluation scores, can rank through it too.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class RankingResult:
    """Ordered candidates with the gold entity ranks (1-based)."""

    candidates: np.ndarray   # top of the ordering, possibly truncated
    scores: np.ndarray       # non-increasing, aligned with candidates
    gold: tuple
    gold_ranks: tuple        # ranks of every gold id within the full ordering
    n_candidates: int

    @property
    def gold_rank(self) -> int:
        return min(self.gold_ranks)


def rank_candidates(candidates: np.ndarray, scores: np.ndarray, gold,
                    keep: int | None = None) -> RankingResult:
    """Sort distinct candidate ids by descending score, ties to the smaller id.

    A gold id's rank is 1 + the candidates scoring strictly higher + the
    candidates scoring equal with a smaller id.  With ``keep`` only the top
    ``keep`` are ordered: a partition picks every candidate scoring at least
    the ``keep``-th best score, and the ordering cuts those to ``keep``.
    """
    candidates = np.asarray(candidates, dtype=np.int64)
    scores = np.asarray(scores, dtype=float)
    if candidates.shape != scores.shape or candidates.ndim != 1 or candidates.size == 0:
        raise ValueError("candidates and scores must be matching nonempty 1-d arrays")
    gold = tuple(int(g) for g in (gold if hasattr(gold, "__iter__") else (gold,)))
    gold_ranks = []
    for g in gold:
        at = np.flatnonzero(candidates == g)
        if at.size:
            score = scores[at[0]]
            ahead = (scores > score) | ((scores == score) & (candidates < g))
            gold_ranks.append(1 + int(np.count_nonzero(ahead)))
    if gold and not gold_ranks:
        raise ValueError("no gold id present among candidates")
    n = candidates.size
    if keep is None or not 0 < keep < n:
        top = np.arange(n)
    else:
        top = np.flatnonzero(scores >= np.partition(scores, n - keep)[n - keep])
    order = top[np.lexsort((candidates[top], -scores[top]))][:keep]
    return RankingResult(
        candidates=candidates[order],
        scores=scores[order],
        gold=gold,
        gold_ranks=tuple(gold_ranks),
        n_candidates=n,
    )
