"""Ranking, metrics, the classification probe and protocol helpers."""

from dataclasses import dataclass

import numpy as np
import pytest

from prodkg.evaluation import (
    MetricsReport,
    classification_probe,
    drop_leaky_examples,
    evaluate_all,
    pkg_candidate_scores,
    rank_candidates,
    rank_tail,
    ranking_metrics,
    split_relation_graph,
)
from prodkg.model import ModelConfig, init_params
from prodkg.ranking import RANK_CHUNK

# --- frozen lexsort-and-dict reference ------------------------------------------
# The full-sort, one-query ranking routine that the closed-form block rank
# replaced, kept verbatim (with its result record) as the oracle the block
# routine must match.


@dataclass
class RankingResult:
    candidates: np.ndarray
    scores: np.ndarray
    gold: tuple
    gold_ranks: tuple
    n_candidates: int

    @property
    def gold_rank(self) -> int:
        return min(self.gold_ranks)


def _ref_rank_candidates(candidates, scores, gold, keep=None):
    candidates = np.asarray(candidates, dtype=np.int64)
    scores = np.asarray(scores, dtype=float)
    if candidates.shape != scores.shape or candidates.ndim != 1 or candidates.size == 0:
        raise ValueError("candidates and scores must be matching nonempty 1-d arrays")
    order = np.lexsort((candidates, -scores))
    ranked_ids = candidates[order]
    ranked_scores = scores[order]
    gold = tuple(int(g) for g in (gold if hasattr(gold, "__iter__") else (gold,)))
    position = {int(c): i + 1 for i, c in enumerate(ranked_ids)}
    gold_ranks = tuple(position[g] for g in gold if g in position)
    if gold and not gold_ranks:
        raise ValueError("no gold id present among candidates")
    cut = len(ranked_ids) if keep is None else min(keep, len(ranked_ids))
    return RankingResult(
        candidates=ranked_ids[:cut],
        scores=ranked_scores[:cut],
        gold=gold,
        gold_ranks=gold_ranks,
        n_candidates=int(candidates.size),
    )


def _ref_block_ranks(scores, candidates, gold):
    """Per-query reference ranks of a block; a missing gold ranks N + 1."""
    ranks = []
    for row, g in zip(scores, gold):
        try:
            ranks.append(_ref_rank_candidates(candidates, row, (g,)).gold_rank)
        except ValueError:
            ranks.append(len(candidates) + 1)
    return np.array(ranks, dtype=np.int64)


class TestRankingMetrics:
    def test_gold_at_rank_one_is_perfect(self):
        metrics = ranking_metrics(np.array([1]), k=10)
        assert metrics["hit@10"] == 1.0
        assert metrics["ndcg@10"] == 1.0
        assert metrics["map@10"] == 1.0
        assert metrics["recall@10"] == 1.0

    def test_gold_at_rank_three_hand_values(self):
        metrics = ranking_metrics(np.array([3]), k=10)
        assert metrics["ndcg@10"] == pytest.approx(1 / np.log2(4))
        assert metrics["ndcg@10"] == pytest.approx(0.5)
        assert metrics["map@10"] == pytest.approx(1 / 3)

    def test_gold_outside_cutoff_all_zero(self):
        metrics = ranking_metrics(np.array([11]), k=10)
        assert set(metrics.values()) == {0.0}

    def test_map_is_reciprocal_rank_for_single_gold(self):
        for rank in (1, 2, 5, 10):
            metrics = ranking_metrics(np.array([rank]), k=10)
            assert metrics["map@10"] == pytest.approx(1 / rank)

    def test_ndcg_never_exceeds_hit(self):
        rng = np.random.default_rng(0)
        metrics = ranking_metrics(rng.integers(1, 30, size=50), k=10)
        assert metrics["ndcg@10"] <= metrics["hit@10"] <= 1.0

    def test_full_cutoff_always_hits(self):
        metrics = ranking_metrics(np.array([1, 7, 30]), k=30)
        assert metrics["hit@30"] == 1.0

    def test_invalid_k_rejected(self):
        with pytest.raises(ValueError):
            ranking_metrics(np.array([1]), k=0)

    def test_matches_per_query_single_gold_forms(self):
        """The vectorised means equal the per-query forms of the reference
        loop, bit for bit."""
        ranks = np.random.default_rng(12).integers(1, 2000, size=997)
        ranks[::7] = np.arange(1, 11).repeat(15)[:ranks[::7].size]
        hits = [1.0 if r <= 10 else 0.0 for r in ranks.tolist()]
        ndcgs = [1.0 / np.log2(r + 1) / (1.0 / np.log2(2)) if r <= 10 else 0.0
                 for r in ranks.tolist()]
        maps = [1 / r if r <= 10 else 0.0 for r in ranks.tolist()]
        assert ranking_metrics(ranks, 10) == {
            "hit@10": float(np.mean(hits)), "ndcg@10": float(np.mean(ndcgs)),
            "recall@10": float(np.mean(hits)), "map@10": float(np.mean(maps))}


class TestRankCandidates:
    def test_tie_break_by_ascending_id(self):
        ranks = rank_candidates(np.ones((3, 3)), np.array([5, 2, 9]), np.array([9, 2, 5]))
        np.testing.assert_array_equal(ranks, [3, 1, 2])

    def test_scores_non_increasing(self):
        """Ranking every candidate gives a permutation of 1..N along which
        the scores never increase."""
        rng = np.random.default_rng(1)
        ids = rng.permutation(40)[:20] + 1
        row = rng.normal(size=20)
        ranks = rank_candidates(np.tile(row, (20, 1)), ids, ids)
        np.testing.assert_array_equal(np.sort(ranks), np.arange(1, 21))
        assert np.all(np.diff(row[np.argsort(ranks)]) <= 0)

    def test_metric_invariance_under_exp(self):
        """Any strictly increasing transform of scores leaves metrics unchanged."""
        rng = np.random.default_rng(2)
        ids = np.arange(1, 31)
        scores = rng.normal(size=(20, 30))
        gold = rng.integers(1, 31, size=20)
        assert ranking_metrics(rank_candidates(scores, ids, gold), 10) == \
            ranking_metrics(rank_candidates(np.exp(scores), ids, gold), 10)

    def test_single_candidate_rank_one(self):
        ranks = rank_candidates(np.array([[-3.0]]), np.array([4]), np.array([4]))
        np.testing.assert_array_equal(ranks, [1])

    def test_matches_reference_on_heavy_ties(self):
        """Distinct shuffled ids, small-integer scores (many ties), golds
        sometimes absent: the block ranks equal the per-query reference."""
        rng = np.random.default_rng(11)
        for _ in range(400):
            n = int(rng.integers(1, 60))
            q = int(rng.integers(1, 12))
            ids = rng.permutation(200)[:n] + 1
            scores = rng.integers(0, int(rng.integers(1, 5)), size=(q, n)) / 2.0
            gold = rng.choice(ids, size=q)
            gold[rng.random(q) < 0.3] = 1000
            np.testing.assert_array_equal(rank_candidates(scores, ids, gold),
                                          _ref_block_ranks(scores, ids, gold))

    def test_missing_gold_ranks_behind_every_candidate(self):
        ids, scores = np.array([3, 1, 2]), np.array([[0.5, 0.5, 0.1], [0.1, 0.2, 0.3]])
        with pytest.raises(ValueError, match="no gold id"):
            _ref_rank_candidates(ids, scores[0], (7,), keep=2)
        np.testing.assert_array_equal(rank_candidates(scores, ids, np.array([7, 2])), [4, 1])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="score block"):
            rank_candidates(np.zeros((2, 3)), np.arange(3), np.array([1]))


class TestPkgRanking:
    def params(self):
        return init_params(ModelConfig(dim=4, seed=1, seq_lens={
            "complement": 5, "co_view": 5, "search": 5, "describe": 5}), 8, 6, 5)

    def test_substitute_score_symmetry(self):
        params = self.params()
        scores_from_2, scores_from_5 = pkg_candidate_scores(params, "substitute", [2, 5])
        # score(t=5 | h=2) must equal score(t=2 | h=5)
        assert scores_from_2[5 - 1] == pytest.approx(scores_from_5[2 - 1], abs=1e-12)

    def test_hand_set_embeddings_order(self):
        params = self.params()
        table = params.tables["item_in"].values
        table[1] = [1, 0, 0, 0]
        table[2] = [0.9, 0, 0, 0]
        table[3] = [0, 1, 0, 0]
        table[4] = [-1, 0, 0, 0]
        table[5:] = 0.0
        ranks = rank_tail(params, "substitute", [1, 1, 1, 1], [1, 2, 3, 4])
        np.testing.assert_array_equal(ranks, [1, 2, 3, 7])

    def test_relation_wiring_differs(self):
        params = self.params()
        sub = pkg_candidate_scores(params, "substitute", [2])
        com = pkg_candidate_scores(params, "complement", [2])
        assert not np.allclose(sub, com)

    def test_unknown_relation_rejected(self):
        with pytest.raises(ValueError, match="unknown relation"):
            pkg_candidate_scores(self.params(), "friendship", [1])

    def test_scores_match_full_table_products(self):
        """Every relation scores all non-PAD items against its query vector."""
        from prodkg.attention import context_for_ranking

        params = self.params()
        tables = {name: table.values for name, table in params.tables.items()}
        context = np.array([3, 1, 4])
        cases = {
            ("substitute", 2): tables["item_in"] @ tables["item_in"][2],
            ("complement", 2): tables["item_out_buy"] @ tables["item_in"][2],
            ("co_view", 2): tables["item_out_view"] @ tables["item_in"][2],
            ("isa", 3): tables["item_in"] @ tables["category"][3],
        }
        for task, table in (("complement", "item_out_buy"), ("co_view", "item_out_view"),
                            ("search", "item_in"), ("describe", "item_in")):
            vector = context_for_ranking([context], params.tables, params.attn[task], task)[0]
            cases[(task, tuple(context))] = tables[table] @ vector
        vector = context_for_ranking([context], params.tables, params.attn["complement"],
                                     "complement")[0]
        cases[("recommend", tuple(context))] = \
            (tables["item_out_buy"] + tables["item_out_view"]) @ vector
        for (relation, head), full in cases.items():
            scores = pkg_candidate_scores(params, relation, [head])
            assert scores.shape == (1, 7)
            np.testing.assert_allclose(scores[0], full[1:], rtol=1e-12, atol=1e-15)

    def test_block_rows_do_not_depend_on_the_block(self):
        """A query's score row, and so its rank, is the same bits alone or in
        a block of any size, past the chunk size included.  (At this dim; at
        d = 100 the padded attention pass's matrix products may move a
        sequence head's context in its last bits with the block's make-up.)"""
        params = init_params(ModelConfig(dim=6, seed=4, seq_lens={
            "complement": 5, "co_view": 5, "search": 5, "describe": 5}), 40, 12, 5)
        rng = np.random.default_rng(8)
        n = RANK_CHUNK + 37
        cases = {
            "substitute": list(rng.integers(1, 40, size=n)),
            "complement": [rng.integers(1, 40, size=int(rng.integers(1, 8))) for _ in range(n)],
            "search": [rng.integers(1, 12, size=int(rng.integers(1, 4))) for _ in range(n)],
        }
        for relation, heads in cases.items():
            gold = rng.integers(1, 40, size=n)
            block = pkg_candidate_scores(params, relation, heads)
            alone = np.vstack([pkg_candidate_scores(params, relation, [h]) for h in heads])
            assert block.tobytes() == alone.tobytes()
            np.testing.assert_array_equal(
                rank_tail(params, relation, heads, gold),
                _ref_block_ranks(alone, np.arange(1, 40), gold))


class TestClassificationProbe:
    def test_perfectly_separable(self):
        rng = np.random.default_rng(3)
        features = np.vstack([rng.normal(loc=-3, size=(30, 4)),
                              rng.normal(loc=3, size=(30, 4))])
        labels = np.array([0] * 30 + [1] * 30)
        rows = np.arange(60)
        micro, macro = classification_probe(features, labels, rows[::2], rows[1::2])
        assert micro == 1.0
        assert macro == 1.0

    def test_uninformative_features_confusion_values(self):
        """Identical features force one predicted class: micro 1/2, macro 1/3."""
        features = np.zeros((40, 3))
        labels = np.array([0, 1] * 20)
        rows = np.arange(40)
        micro, macro = classification_probe(features, labels, rows[:20], rows[20:])
        assert micro == pytest.approx(0.5)
        assert macro == pytest.approx((2 / 3 + 0.0) / 2)

    def test_sample_order_invariance(self):
        rng = np.random.default_rng(4)
        features = rng.normal(size=(50, 5))
        labels = rng.integers(0, 3, size=50)
        rows = np.arange(50)
        first = classification_probe(features, labels, rows[:35], rows[35:])
        perm = rng.permutation(35)
        second = classification_probe(features, labels, rows[:35][perm], rows[35:])
        assert first == second

    def test_missing_class_warns_and_excludes(self):
        features = np.vstack([np.full((10, 2), -1.0), np.full((10, 2), 1.0),
                              np.full((4, 2), 5.0)])
        labels = np.array([0] * 10 + [1] * 10 + [2] * 4)
        train_rows = np.arange(20)       # class 2 absent from training
        test_rows = np.arange(20, 24)
        with pytest.warns(UserWarning, match="absent"):
            classification_probe(features, labels, train_rows, test_rows)


class TestGraphSplit:
    def test_no_isolated_training_node(self):
        rng = np.random.default_rng(5)
        edges = [(int(a), int(b)) for a, b in rng.integers(0, 40, size=(200, 2)) if a != b]
        split = split_relation_graph(edges, seed=3)
        covered = set()
        for h, t in split.train:
            covered.update((h, t))
        for h, t in split.validation + split.test:
            assert h in covered and t in covered

    def test_split_sizes(self):
        edges = [(i, i + 1) for i in range(100)]
        split = split_relation_graph(edges, seed=0)
        assert len(split.validation) <= 10 and len(split.test) <= 10
        assert len(split.train) + len(split.validation) + len(split.test) == 100

    def test_deterministic(self):
        edges = [(i, (i * 7) % 23) for i in range(60) if i != (i * 7) % 23]
        a = split_relation_graph(edges, seed=9)
        b = split_relation_graph(edges, seed=9)
        assert (a.train, a.validation, a.test) == (b.train, b.validation, b.test)


class TestLeakRemoval:
    def test_example_with_heldout_pair_dropped(self):
        examples = [((1, 2), 3), ((1, 4), 5), ((2,), 1)]
        kept = drop_leaky_examples(examples, {(2, 3)})
        assert ((1, 2), 3) not in kept
        assert ((1, 4), 5) in kept

    def test_reverse_orientation_also_dropped(self):
        kept = drop_leaky_examples([((3,), 2)], {(2, 3)})
        assert kept == []


class TestReport:
    def test_absent_cells_render(self):
        report = MetricsReport()
        report.add("proposed", "complement", "hit@10", None)
        assert "absent" in report.to_tsv()
        assert "absent" in report.summary()

    def test_out_of_range_metric_rejected(self):
        report = MetricsReport()
        with pytest.raises(ValueError):
            report.add("proposed", "complement", "hit@10", 1.5)

    def test_evaluate_all_with_empty_inputs(self):
        params = init_params(ModelConfig(dim=3, seed=0, seq_lens={
            "complement": 4, "co_view": 4, "search": 4, "describe": 4}), 6, 5, 4)
        report = evaluate_all(params)
        assert report.rows == []

    def test_row_labels_cover_headline_cells(self):
        from prodkg.evaluation import ROW_LABELS
        assert ROW_LABELS[("complement", "hit@10")] == "a1"
        assert ROW_LABELS[("search_new", "map@10")] == "a16"


class TestEvaluateAllWithBaseline:
    """The protocol orchestrator's report is a function of its inputs."""

    def test_report_deterministic_across_runs(self):
        from prodkg.evaluation import GraphSplit

        params = init_params(ModelConfig(dim=4, seed=3, seq_lens={
            "complement": 4, "co_view": 4, "search": 4, "describe": 4}), 10, 8, 4)
        splits = {"complement": GraphSplit(train=[(1, 2)], validation=[], test=[(2, 3), (4, 5)])}
        a = evaluate_all(params, graph_splits=splits)
        b = evaluate_all(params, graph_splits=splits)
        assert a.rows == b.rows
