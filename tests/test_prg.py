"""Co-occurrence graphs, normalisation, biased walks and top-K extraction."""

from collections import Counter

import numpy as np
import pytest

from prodkg.prg import (
    RelationGraph,
    WeightedGraph,
    biased_random_walk,
    build_adjacency,
    build_relation_graph,
    export_prg,
    normalize_adjacency,
    topk_neighbors,
)


class TestBuildAdjacency:
    def test_single_session_all_pairs(self):
        g = build_adjacency([(1, 2, 3)], n_nodes=4)
        assert g.weight(1, 2) == 1 and g.weight(1, 3) == 1 and g.weight(2, 3) == 1

    def test_duplicates_in_session_count_once(self):
        g = build_adjacency([(1, 1, 2)], n_nodes=3)
        assert g.weight(1, 2) == 1

    def test_two_sessions_accumulate(self):
        g = build_adjacency([(1, 2), (2, 1, 3)], n_nodes=4)
        assert g.weight(1, 2) == 2

    def test_symmetric_zero_diagonal(self):
        g = build_adjacency([(1, 2, 3), (2, 3)], n_nodes=4)
        for a, b, w in g.edges():
            assert g.weight(b, a) == w
        assert g.weight(2, 2) == 0


class TestNormalize:
    def test_two_node_hand_value(self):
        g = WeightedGraph(n_nodes=2)
        g.add_edge(0, 1, 2.0)
        normalized = normalize_adjacency(g)
        assert normalized.weight(0, 1) == pytest.approx(1.0)

    def test_isolated_node_no_error(self):
        g = build_adjacency([(1, 2)], n_nodes=5)
        normalized = normalize_adjacency(g)
        assert normalized.weight(3, 1) == 0.0

    def test_symmetry_preserved(self):
        rng = np.random.default_rng(0)
        g = WeightedGraph(n_nodes=8)
        for _ in range(12):
            a, b = rng.integers(0, 8, size=2)
            if a != b:
                g.add_edge(int(a), int(b), float(rng.integers(1, 5)))
        normalized = normalize_adjacency(g)
        dense = normalized.to_dense()
        np.testing.assert_allclose(dense, dense.T)

    def test_spectral_radius_at_most_one(self):
        """Power iteration on a random 150-node graph's normalised adjacency."""
        rng = np.random.default_rng(1)
        sessions = [tuple(rng.integers(0, 150, size=rng.integers(2, 6))) for _ in range(300)]
        sessions = [s for s in sessions if len(set(s)) >= 2]
        normalized = normalize_adjacency(build_adjacency(sessions, 150))
        dense = normalized.to_dense()
        vec = np.ones(150) / np.sqrt(150)
        for _ in range(200):
            nxt = dense @ vec
            norm = np.linalg.norm(nxt)
            if norm == 0:
                break
            vec = nxt / norm
        radius = float(vec @ dense @ vec)
        assert radius <= 1.0 + 1e-9


class TestWalks:
    def test_two_node_path_concentrates_on_neighbor(self):
        g = normalize_adjacency(build_adjacency([(0, 1)] * 3, 2))
        visits = biased_random_walk(g, walks_per_node=5, walk_length=6, seed=3)
        assert set(visits[0]) == {1}
        assert visits[0][1] > 0

    def test_uniform_triangle_visit_frequencies(self):
        """p = q = 1 on an equal-weight triangle: both neighbours equally likely."""
        g = normalize_adjacency(build_adjacency([(0, 1, 2)] * 4, 3))
        visits = biased_random_walk(g, walks_per_node=10_000, walk_length=1, seed=5)
        total = sum(visits[0].values())
        for node in (1, 2):
            assert abs(visits[0][node] / total - 0.5) < 0.02

    def test_fixed_seed_identical(self):
        g = normalize_adjacency(build_adjacency([(0, 1, 2), (1, 2, 3), (0, 3)], 4))
        a = biased_random_walk(g, 5, 5, p=0.5, q=2.0, seed=11)
        b = biased_random_walk(g, 5, 5, p=0.5, q=2.0, seed=11)
        assert a == b

    def test_source_excluded_from_counts(self):
        g = normalize_adjacency(build_adjacency([(0, 1), (1, 2), (0, 2)], 3))
        visits = biased_random_walk(g, 20, 8, seed=2)
        for source, counter in visits.items():
            assert source not in counter

    def test_invalid_bias_parameters(self):
        g = normalize_adjacency(build_adjacency([(0, 1)], 2))
        with pytest.raises(ValueError):
            biased_random_walk(g, 1, 1, p=0.0)


class TestTopK:
    def test_default_k_truncation(self):
        visits = {0: Counter({n: 100 - n for n in range(1, 30)})}
        graph = topk_neighbors(visits, k=20)
        assert len(graph.neighbors[0]) == 20

    def test_fewer_neighbors_than_k(self):
        visits = {0: Counter({1: 3, 2: 1, 5: 2})}
        graph = topk_neighbors(visits, k=20)
        assert len(graph.neighbors[0]) == 3

    def test_tie_break_smaller_id_first(self):
        visits = {0: Counter({7: 5, 3: 5, 9: 5})}
        graph = topk_neighbors(visits, k=2)
        assert [n for n, _ in graph.neighbors[0]] == [3, 7]

    def test_scores_non_increasing(self):
        visits = {0: Counter({1: 9, 2: 4, 3: 7})}
        graph = topk_neighbors(visits, k=3)
        scores = [s for _, s in graph.neighbors[0]]
        assert scores == sorted(scores, reverse=True)

    def test_no_self_neighbor(self):
        sessions = [(0, 1, 2), (0, 2, 3), (1, 3)] * 3
        graph = build_relation_graph(sessions, 4, "co_buy", k=3, seed=0)
        for head, neighbors in graph.neighbors.items():
            assert head not in [n for n, _ in neighbors]


class TestExport:
    def test_empty_graph_empty_file(self, tmp_path):
        path = tmp_path / "prg.tsv"
        export_prg([RelationGraph("co_buy", {})], path)
        assert path.read_text() == ""

    def test_two_neighbor_facts(self, tmp_path):
        graph = RelationGraph("co_buy", {1: [(2, 3.0), (3, 1.0)]})
        path = tmp_path / "prg.tsv"
        export_prg([graph], path, key_of=lambda n: f"i{n}")
        assert path.read_text() == "i1\tco_buy\ti2\ni1\tco_buy\ti3\n"

    def test_reexport_byte_identical(self, tmp_path):
        sessions = [(0, 1, 2), (1, 2, 3), (0, 3)] * 2
        graph = build_relation_graph(sessions, 4, "co_buy", k=2, seed=9)
        p1, p2 = tmp_path / "a.tsv", tmp_path / "b.tsv"
        export_prg([graph], p1)
        export_prg([build_relation_graph(sessions, 4, "co_buy", k=2, seed=9)], p2)
        assert p1.read_bytes() == p2.read_bytes()
