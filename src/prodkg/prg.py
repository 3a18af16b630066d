"""Product relation graphs distilled from session co-occurrence.

Pipeline: per-session pair counting into a symmetric weighted adjacency,
degree-symmetric normalisation, second-order biased random walks over the
normalised weights, and per-node top-K neighbour extraction by visit count.
The resulting neighbour facts feed the triple-based baseline models.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np


@dataclass
class WeightedGraph:
    """Symmetric, zero-diagonal adjacency stored as nested dicts."""

    n_nodes: int
    adj: dict = field(default_factory=dict)  # node -> {neighbor: weight}

    def add_edge(self, a: int, b: int, weight: float = 1.0) -> None:
        if a == b:
            return
        self.adj.setdefault(a, {})[b] = self.adj.get(a, {}).get(b, 0.0) + weight
        self.adj.setdefault(b, {})[a] = self.adj.get(b, {}).get(a, 0.0) + weight

    def weight(self, a: int, b: int) -> float:
        return self.adj.get(a, {}).get(b, 0.0)

    def degree(self, node: int) -> float:
        return sum(self.adj.get(node, {}).values())

    def nodes(self):
        return sorted(self.adj)

    def edges(self):
        for a in sorted(self.adj):
            for b in sorted(self.adj[a]):
                if a < b:
                    yield a, b, self.adj[a][b]

    def to_dense(self) -> np.ndarray:
        dense = np.zeros((self.n_nodes, self.n_nodes))
        for a, nbrs in self.adj.items():
            for b, w in nbrs.items():
                dense[a, b] = w
        return dense


@dataclass
class RelationGraph:
    """Per-node ordered top-K neighbour lists for one relation."""

    relation: str
    neighbors: dict  # node -> list[(neighbor, score)], scores non-increasing

    def facts(self):
        for head in sorted(self.neighbors):
            for tail, score in self.neighbors[head]:
                yield head, tail, score


def build_adjacency(groups, n_nodes: int) -> WeightedGraph:
    """Count unordered co-occurrence once per group (set semantics).

    Each group is one session's item ids (or one substitution pair); a pair
    co-occurring in a group bumps its edge weight by exactly one however
    often the items repeat inside the group.
    """
    graph = WeightedGraph(n_nodes=n_nodes)
    for group in groups:
        distinct = sorted(set(group))
        for i, a in enumerate(distinct):
            for b in distinct[i + 1:]:
                graph.add_edge(a, b, 1.0)
    return graph


def normalize_adjacency(graph: WeightedGraph) -> WeightedGraph:
    """Symmetric normalisation: weight(a,b) / sqrt(degree(a) * degree(b)).

    Isolated nodes keep empty rows; no division by zero occurs because only
    existing edges are visited.
    """
    degrees = {node: graph.degree(node) for node in graph.adj}
    out = WeightedGraph(n_nodes=graph.n_nodes)
    for a, nbrs in graph.adj.items():
        for b, w in nbrs.items():
            if a < b:
                scaled = w / np.sqrt(degrees[a] * degrees[b])
                out.add_edge(a, b, scaled)
    return out


def biased_random_walk(
    graph: WeightedGraph,
    walks_per_node: int = 10,
    walk_length: int = 10,
    p: float = 1.0,
    q: float = 1.0,
    seed: int = 0,
) -> dict:
    """Second-order walks with return parameter p and in-out parameter q.

    Transition weights are proportional to the (normalised) edge weights,
    rescaled by 1/p towards the previous node, 1 towards common neighbours
    of the previous node, and 1/q otherwise.  Every source node gets its
    own RNG stream derived from (seed, node), so results do not depend on
    scheduling.  Returns per-source visit counts excluding the source.
    """
    if p <= 0 or q <= 0:
        raise ValueError("p and q must be positive")
    neighbors = {}
    for node in graph.adj:
        ids = np.array(sorted(graph.adj[node]), dtype=np.int64)
        weights = np.array([graph.adj[node][i] for i in ids])
        neighbors[node] = (ids, weights, np.cumsum(weights))

    def pick(rng, ids, cumulative):
        u = rng.random() * cumulative[-1]
        return int(ids[min(np.searchsorted(cumulative, u, side="right"), ids.size - 1)])

    visits: dict[int, Counter] = {}
    for source in sorted(graph.adj):
        rng = np.random.default_rng([seed, source])
        counter: Counter = Counter()
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
                    # prev's sorted neighbour array enables a vectorised membership test
                    prev_ids = neighbors[prev][0]
                    shared = np.zeros(cur_ids.shape[0], dtype=bool)
                    if prev_ids.size:
                        pos = np.searchsorted(prev_ids, cur_ids)
                        inside = pos < prev_ids.size
                        shared[inside] = prev_ids[pos[inside]] == cur_ids[inside]
                    bias = np.where(cur_ids == prev, 1.0 / p, np.where(shared, 1.0, 1.0 / q))
                    probs = cur_weights * bias
                    nxt = pick(rng, cur_ids, np.cumsum(probs))
                prev, cur = cur, nxt
                counter[cur] += 1
        counter.pop(source, None)
        visits[source] = counter
    return visits


def topk_neighbors(visits: dict, k: int = 20, relation: str = "related") -> RelationGraph:
    """Keep the K most-visited distinct nodes per source; ties to smaller ids."""
    if k < 1:
        raise ValueError("k must be >= 1")
    ranked = {}
    for source, counter in visits.items():
        ordered = sorted(counter.items(), key=lambda kv: (-kv[1], kv[0]))[:k]
        ranked[source] = [(node, float(count)) for node, count in ordered]
    return RelationGraph(relation=relation, neighbors=ranked)


def export_prg(graphs, path, key_of=None) -> None:
    """Write one head<TAB>relation<TAB>tail line per neighbour fact.

    ``key_of`` converts node ids to raw keys; identity when omitted.
    """
    key_of = key_of or (lambda node: str(node))
    with open(path, "w", encoding="utf-8") as handle:
        for graph in graphs:
            for head, tail, _score in graph.facts():
                handle.write(f"{key_of(head)}\t{graph.relation}\t{key_of(tail)}\n")


def build_relation_graph(
    groups,
    n_nodes: int,
    relation: str,
    k: int = 20,
    walks_per_node: int = 10,
    walk_length: int = 10,
    p: float = 1.0,
    q: float = 1.0,
    seed: int = 0,
) -> RelationGraph:
    """Full pipeline: adjacency -> normalisation -> walks -> top-K neighbours."""
    adjacency = build_adjacency(groups, n_nodes)
    normalized = normalize_adjacency(adjacency)
    visits = biased_random_walk(normalized, walks_per_node, walk_length, p, q, seed)
    return topk_neighbors(visits, k=k, relation=relation)
