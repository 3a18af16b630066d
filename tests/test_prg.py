"""Co-occurrence graphs, normalisation, biased walks and top-K extraction."""

import tempfile
from collections import Counter

import numpy as np
import pytest

from prodkg import prg
from prodkg.data import ITEM, chronological_split, ingest_dataset
from prodkg.prg import (
    RelationGraph,
    Visits,
    WeightedGraph,
    biased_random_walk,
    build_adjacency,
    build_relation_graph,
    export_prg,
    normalize_adjacency,
    topk_neighbors,
)
from prodkg.synth import SynthConfig, generate

# --- frozen per-walker reference ---------------------------------------------
# The walk and top-K cut as they were before the lockstep rewrite: one walker
# at a time, one searchsorted per step, one Counter per source.  They are the
# oracle the lockstep walk must match exactly.


def _ref_walk(graph, walks_per_node=10, walk_length=10, p=1.0, q=1.0, seed=0):
    neighbors = {}
    for node in graph.adj:
        ids = np.array(sorted(graph.adj[node]), dtype=np.int64)
        weights = np.array([graph.adj[node][i] for i in ids])
        neighbors[node] = (ids, weights, np.cumsum(weights))

    def pick(rng, ids, cumulative):
        u = rng.random() * cumulative[-1]
        return int(ids[min(np.searchsorted(cumulative, u, side="right"), ids.size - 1)])

    visits = {}
    for source in sorted(graph.adj):
        rng = np.random.default_rng([seed, source])
        counter = Counter()
        ids, _, cumulative = neighbors[source]
        if ids.size == 0:
            visits[source] = counter
            continue
        for _ in range(walks_per_node):
            prev = source
            cur = pick(rng, ids, cumulative)
            counter[cur] += 1
            for _ in range(walk_length - 1):
                cur_ids, cur_weights, cur_cum = neighbors[cur]
                if cur_ids.size == 0:
                    break
                if p == 1.0 and q == 1.0:
                    nxt = pick(rng, cur_ids, cur_cum)
                else:
                    prev_ids = neighbors[prev][0]
                    shared = np.zeros(cur_ids.shape[0], dtype=bool)
                    if prev_ids.size:
                        pos = np.searchsorted(prev_ids, cur_ids)
                        inside = pos < prev_ids.size
                        shared[inside] = prev_ids[pos[inside]] == cur_ids[inside]
                    bias = np.where(cur_ids == prev, 1.0 / p, np.where(shared, 1.0, 1.0 / q))
                    nxt = pick(rng, cur_ids, np.cumsum(cur_weights * bias))
                prev, cur = cur, nxt
                counter[cur] += 1
        counter.pop(source, None)
        visits[source] = counter
    return visits


def _ref_topk(visits, k=20):
    return {source: [(node, float(count))
                     for node, count in sorted(counter.items(), key=lambda kv: (-kv[1], kv[0]))[:k]]
            for source, counter in visits.items()}


def counts_by_source(visits: Visits) -> dict:
    """source -> {visited node: count}, every walked source included."""
    out = {source: {} for source in visits.sources.tolist()}
    for head, tail, count in zip(visits.heads.tolist(), visits.tails.tolist(),
                                 visits.counts.tolist()):
        out[head][tail] = count
    return out


def visits_of(counts: dict) -> Visits:
    """The visit rows of hand-written source -> {node: count} maps."""
    rows = sorted((s, t, c) for s, nodes in counts.items() for t, c in nodes.items())
    heads, tails, tallies = (np.array([row[i] for row in rows], dtype=np.int64)
                             for i in range(3))
    return Visits(np.array(sorted(counts), dtype=np.int64), heads, tails, tallies)


def random_graph(rng, hub_degree=None) -> WeightedGraph:
    """Isolated nodes, leaves, and hubs of up to 60 neighbours, weighted or normalised."""
    n = int(rng.integers(2, 90)) if hub_degree is None else hub_degree + 1
    graph = WeightedGraph(n_nodes=n)
    for _ in range(int(rng.integers(0, 3 * n))):
        a, b = rng.integers(0, n, size=2)
        graph.add_edge(int(a), int(b), float(rng.uniform(0.05, 3.0)))
    if hub_degree is not None or rng.random() < 0.5:
        hub = int(rng.integers(0, n))
        size = hub_degree or min(n - 1, int(rng.integers(1, 61)))
        for b in rng.choice(np.delete(np.arange(n), hub), size=size, replace=False):
            graph.add_edge(hub, int(b), float(rng.integers(1, 4)))
    for node in rng.choice(n, size=int(rng.integers(0, 3)), replace=False):
        graph.adj.setdefault(int(node), {})
    return normalize_adjacency(graph) if rng.random() < 0.5 else graph


def to_dense(graph):
    dense = np.zeros((graph.n_nodes, graph.n_nodes))
    for a, neighbors in graph.adj.items():
        for b, w in neighbors.items():
            dense[a, b] = w
    return dense


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
        for a, neighbors in g.adj.items():
            for b, w in neighbors.items():
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
        dense = to_dense(normalized)
        np.testing.assert_allclose(dense, dense.T)

    def test_spectral_radius_at_most_one(self):
        """Power iteration on a random 150-node graph's normalised adjacency."""
        rng = np.random.default_rng(1)
        sessions = [tuple(rng.integers(0, 150, size=rng.integers(2, 6))) for _ in range(300)]
        sessions = [s for s in sessions if len(set(s)) >= 2]
        normalized = normalize_adjacency(build_adjacency(sessions, 150))
        dense = to_dense(normalized)
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
        visits = counts_by_source(biased_random_walk(g, walks_per_node=5, walk_length=6, seed=3))
        assert set(visits[0]) == {1}
        assert visits[0][1] > 0

    def test_uniform_triangle_visit_frequencies(self):
        """p = q = 1 on an equal-weight triangle: both neighbours equally likely."""
        g = normalize_adjacency(build_adjacency([(0, 1, 2)] * 4, 3))
        visits = counts_by_source(biased_random_walk(g, walks_per_node=10_000, walk_length=1,
                                                     seed=5))
        total = sum(visits[0].values())
        for node in (1, 2):
            assert abs(visits[0][node] / total - 0.5) < 0.02

    def test_fixed_seed_identical(self):
        g = normalize_adjacency(build_adjacency([(0, 1, 2), (1, 2, 3), (0, 3)], 4))
        a = counts_by_source(biased_random_walk(g, 5, 5, p=0.5, q=2.0, seed=11))
        b = counts_by_source(biased_random_walk(g, 5, 5, p=0.5, q=2.0, seed=11))
        assert a == b

    def test_source_excluded_from_counts(self):
        g = normalize_adjacency(build_adjacency([(0, 1), (1, 2), (0, 2)], 3))
        visits = counts_by_source(biased_random_walk(g, 20, 8, seed=2))
        for source, counter in visits.items():
            assert source not in counter

    def test_invalid_bias_parameters(self):
        g = normalize_adjacency(build_adjacency([(0, 1)], 2))
        with pytest.raises(ValueError):
            biased_random_walk(g, 1, 1, p=0.0)

    def test_asymmetric_adjacency_names_node(self):
        g = WeightedGraph(n_nodes=4, adj={0: {1: 1.0, 2: 1.0}, 1: {0: 1.0}, 2: {3: 1.0},
                                          3: {2: 1.0}})
        with pytest.raises(ValueError, match="node 2 is a neighbour of node 0"):
            biased_random_walk(g, 2, 3, seed=1)

    def test_neighbour_missing_from_adjacency_names_node(self):
        g = WeightedGraph(n_nodes=3, adj={0: {1: 1.0, 2: 1.0}, 1: {0: 1.0}})
        with pytest.raises(ValueError, match="node 2 "):
            biased_random_walk(g, 2, 3, seed=1)

    def test_self_loop_names_node(self):
        g = WeightedGraph(n_nodes=2, adj={0: {0: 1.0, 1: 1.0}, 1: {0: 1.0}})
        with pytest.raises(ValueError, match="node 0 lists itself"):
            biased_random_walk(g, 2, 3, seed=1)


class TestWalkParity:
    """The lockstep walk reproduces the per-walker walk and Counter top-K exactly."""

    BIASES = [(1.0, 1.0), (0.5, 1.0), (2.0, 1.0)] + [
        (p, q) for p in (0.25, 0.5, 2.0, 4.0) for q in (0.25, 0.5, 2.0, 4.0)]

    @staticmethod
    def assert_matches_reference(graph, walks, length, p, q, seed, k):
        visits = biased_random_walk(graph, walks, length, p, q, seed)
        reference = _ref_walk(graph, walks, length, p, q, seed)
        assert counts_by_source(visits) == {s: dict(c) for s, c in reference.items()}
        assert topk_neighbors(visits, k).neighbors == _ref_topk(reference, k)

    def test_random_graphs(self, monkeypatch):
        rng = np.random.default_rng(2024)
        degrees = set()
        for case in range(200):
            graph = random_graph(rng, hub_degree=60 if case % 50 == 0 else None)
            degrees.update(len(nbrs) for nbrs in graph.adj.values())
            p, q = self.BIASES[case % len(self.BIASES)]
            walks = 1 if case % 5 == 0 else int(rng.integers(1, 6))
            length = 1 if case % 7 == 0 else int(rng.integers(1, 9))
            # small blocks on some cases, so sources are walked across block boundaries
            monkeypatch.setattr(prg, "_BLOCK_CELLS", 1 << 18 if case % 2 else 64)
            self.assert_matches_reference(graph, walks, length, p, q, seed=case,
                                          k=int(rng.integers(1, 25)))
        assert 0 in degrees and 1 in degrees and max(degrees) >= 60

    @pytest.mark.parametrize("p,q", [(1.0, 1.0), (0.25, 4.0)])
    def test_synth_catalog(self, p, q):
        config = SynthConfig(n_items=150, n_clusters=15, n_words=80, n_sessions=500,
                             n_searches=20, n_substitutions=120, seed=3)
        with tempfile.TemporaryDirectory() as out:
            paths, _ = generate(config, out)
            dataset = ingest_dataset(paths, item_min=10, word_min=3)
        n = dataset.vocab[ITEM].size
        sources = {
            "complement": [s.items for s in chronological_split(dataset.buy_sessions).train],
            "co_view": [s.items for s in chronological_split(dataset.view_sessions).train],
            "substitute": [(pair.accepted_for, pair.substitute)
                           for pair in chronological_split(dataset.substitutions).train],
        }
        for relation, groups in sources.items():
            graph = build_relation_graph(groups, n, relation, k=10, walks_per_node=4,
                                         walk_length=6, p=p, q=q, seed=3)
            reference = _ref_walk(normalize_adjacency(build_adjacency(groups, n)),
                                  4, 6, p, q, seed=3)
            assert graph.neighbors == _ref_topk(reference, k=10)
            assert sum(len(v) for v in graph.neighbors.values()) > n


class TestTopK:
    def test_default_k_truncation(self):
        visits = visits_of({0: {n: 100 - n for n in range(1, 30)}})
        graph = topk_neighbors(visits, k=20)
        assert len(graph.neighbors[0]) == 20

    def test_fewer_neighbors_than_k(self):
        visits = visits_of({0: {1: 3, 2: 1, 5: 2}})
        graph = topk_neighbors(visits, k=20)
        assert len(graph.neighbors[0]) == 3

    def test_tie_break_smaller_id_first(self):
        visits = visits_of({0: {7: 5, 3: 5, 9: 5}})
        graph = topk_neighbors(visits, k=2)
        assert [n for n, _ in graph.neighbors[0]] == [3, 7]

    def test_scores_non_increasing(self):
        visits = visits_of({0: {1: 9, 2: 4, 3: 7}})
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
