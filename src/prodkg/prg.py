"""Product relation graphs distilled from session co-occurrence.

Pipeline: per-session pair counting into a symmetric weighted adjacency,
degree-symmetric normalisation, second-order biased random walks over the
normalised weights, and per-node top-K neighbour extraction by visit count.
The resulting neighbour facts feed the triple-based baseline models.
"""
from __future__ import annotations

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


@dataclass
class Visits:
    """Per-source visit counts of a walk, one row per (source, visited node).

    ``sources`` lists every node of the adjacency in ascending order,
    isolated ones included; the rows are sorted by (head, tail) and never
    count a source's visits to itself.
    """

    sources: np.ndarray
    heads: np.ndarray
    tails: np.ndarray
    counts: np.ndarray


# Walker-by-neighbour cells gathered per step: caps the sources walked at once.
_BLOCK_CELLS = 1 << 15


def _csr(graph: WeightedGraph):
    """CSR copy of a checked adjacency: the nodes, row starts by node id, the
    neighbour ids and weights, and the sorted edge keys ``head * n_nodes + tail``.

    Raises ValueError naming the first node that breaks symmetry or lists
    itself, since a walker must always find a neighbour to step to.
    """
    nodes = sorted(graph.adj)
    rows = [sorted(graph.adj[node]) for node in nodes]
    ids = np.fromiter((b for row in rows for b in row), dtype=np.int64)
    weights = np.fromiter((graph.adj[a][b] for a, row in zip(nodes, rows) for b in row),
                          dtype=float, count=ids.size)
    nodes = np.array(nodes, dtype=np.int64)
    n = graph.n_nodes
    degree = np.zeros(n, dtype=np.int64)
    degree[nodes] = [len(row) for row in rows]
    heads = np.repeat(np.arange(n), degree)
    loops = np.flatnonzero(heads == ids)
    if loops.size:
        raise ValueError(f"node {heads[loops[0]]} lists itself as a neighbour")
    keys = heads * n + ids  # ascending: heads ascend, each row's ids ascend
    unmatched = np.flatnonzero(~_member(keys, ids * n + heads))
    if unmatched.size:
        a, b = heads[unmatched[0]], ids[unmatched[0]]
        raise ValueError(f"node {b} is a neighbour of node {a} but does not list it; "
                         "the adjacency must be symmetric")
    indptr = np.concatenate([[0], np.cumsum(degree)])
    return nodes, indptr, ids, weights, keys


def _member(sorted_keys: np.ndarray, queries: np.ndarray) -> np.ndarray:
    pos = np.minimum(np.searchsorted(sorted_keys, queries), sorted_keys.size - 1)
    return sorted_keys[pos] == queries


def biased_random_walk(
    graph: WeightedGraph,
    walks_per_node: int = 10,
    walk_length: int = 10,
    p: float = 1.0,
    q: float = 1.0,
    seed: int = 0,
) -> Visits:
    """Second-order walks with return parameter p and in-out parameter q.

    Transition weights are proportional to the (normalised) edge weights,
    rescaled by 1/p towards the previous node, 1 towards common neighbours
    of the previous node, and 1/q otherwise.  Every source node with
    neighbours draws ``walks_per_node * walk_length`` doubles from its own
    stream ``default_rng([seed, source])``, walk by walk and step by step,
    so results do not depend on how sources are grouped.  Each step takes
    the first neighbour whose running weight sum exceeds draw * row total.

    The adjacency must be symmetric with a zero diagonal, as ``WeightedGraph``
    documents, so a walker always has a neighbour to step to; a node that
    breaks this raises ValueError.  All walkers of a block of sources step
    together over a CSR copy of the graph.
    """
    if p <= 0 or q <= 0:
        raise ValueError("p and q must be positive")
    nodes, indptr, ids, weights, keys = _csr(graph)
    n = graph.n_nodes
    degree = np.diff(indptr)
    biased = not (p == 1.0 and q == 1.0)
    steps = max(walk_length, 1)  # a walk takes at least its first step
    walked = np.flatnonzero(degree)
    widest = max(steps, int(degree.max(initial=0)))  # a walker's visits or candidates
    per_block = max(1, _BLOCK_CELLS // max(1, walks_per_node * widest))
    parts = []
    for begin in range(0, walked.size, per_block):
        sources = walked[begin:begin + per_block]
        draws = np.stack([np.random.default_rng([seed, int(source)]).random(walks_per_node * steps)
                          for source in sources.tolist()])
        draws = draws.reshape(sources.size * walks_per_node, steps)
        cur = np.repeat(sources, walks_per_node)
        prev = cur
        rows = np.arange(cur.size)
        visited = np.empty((cur.size, steps), dtype=np.int64)
        for step in range(steps):
            deg = degree[cur]
            cols = np.arange(deg.max(initial=0))
            padding = cols >= deg[:, None]
            cells = indptr[cur][:, None] + np.minimum(cols, deg[:, None] - 1)
            cand = ids[cells]
            cand_weights = weights[cells]
            if biased and step:
                shared = _member(keys, prev[:, None] * n + cand)
                cand_weights *= np.where(cand == prev[:, None], 1.0 / p,
                                         np.where(shared, 1.0, 1.0 / q))
            cand_weights[padding] = 0.0
            cum = np.cumsum(cand_weights, axis=1)
            target = draws[:, step] * cum[rows, deg - 1]
            cum[padding] = np.inf
            pick = np.minimum((cum <= target[:, None]).sum(axis=1), deg - 1)
            prev, cur = cur, cand[rows, pick]
            visited[:, step] = cur
        head = np.repeat(sources, walks_per_node * steps)
        tail = visited.ravel()
        keep = tail != head
        pair, count = np.unique(head[keep] * n + tail[keep], return_counts=True)
        parts.append((pair // n, pair % n, count))
    heads, tails, counts = (np.concatenate([part[i] for part in parts]) if parts
                            else np.zeros(0, dtype=np.int64) for i in range(3))
    return Visits(sources=nodes, heads=heads, tails=tails, counts=counts)


def topk_neighbors(visits: Visits, k: int = 20, relation: str = "related") -> RelationGraph:
    """Keep the K most-visited distinct nodes per source; ties to smaller ids."""
    if k < 1:
        raise ValueError("k must be >= 1")
    # rows are sorted by (head, tail), so a stable sort by (head, -count) ranks them
    top = int(visits.counts.max(initial=0))
    order = np.argsort(visits.heads * (top + 1) + (top - visits.counts), kind="stable")
    rank = np.arange(order.size) - np.searchsorted(visits.heads, visits.heads)
    kept = order[rank < k]
    heads = visits.heads[kept]
    tails = visits.tails[kept].tolist()
    scores = visits.counts[kept].astype(float).tolist()
    bounds = np.searchsorted(heads, visits.sources, side="right").tolist()
    ranked, begin = {}, 0
    for source, end in zip(visits.sources.tolist(), bounds):
        ranked[source] = list(zip(tails[begin:end], scores[begin:end]))
        begin = end
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
