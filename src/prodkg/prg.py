"""Product relation graphs distilled from session co-occurrence.

Pipeline: per-session pair counting into a symmetric weighted adjacency,
degree-symmetric normalisation, second-order biased random walks over the
normalised weights, and per-node top-K neighbour extraction by visit count.
The resulting neighbour facts feed the triple-based baseline models.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np


@dataclass
class WeightedGraph:
    """Symmetric, zero-diagonal adjacency in CSR form: node ``a``'s neighbours
    are ``ids[indptr[a]:indptr[a + 1]]`` in ascending order, with their
    ``weights`` beside them.  ``build_adjacency`` and ``normalize_adjacency``
    make every graph, so the symmetry and the zero diagonal hold by
    construction.

    ``adj`` lists the nodes that have neighbours, ascending.  They are the
    sources a walk starts from, and perfbench's tracer counts the nodes a
    walk covers as ``len(graph.adj)``.
    """

    n_nodes: int
    indptr: np.ndarray
    ids: np.ndarray
    weights: np.ndarray

    @property
    def adj(self) -> np.ndarray:
        return np.flatnonzero(np.diff(self.indptr))


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
    n = n_nodes
    sizes = [len(group) for group in groups]
    items = np.fromiter(itertools.chain.from_iterable(groups), dtype=np.int64, count=sum(sizes))
    member = np.unique(np.repeat(np.arange(len(sizes)), sizes) * n + items)
    group, item = member // n, member % n  # distinct members, by group then item
    size = np.bincount(group)[group]
    first = np.searchsorted(group, group)  # where each member's group starts
    offset = np.arange(size.sum()) - np.repeat(np.cumsum(size) - size, size)
    a, b = np.repeat(item, size), item[np.repeat(first, size) + offset]
    keys, counts = np.unique((a * n + b)[a != b], return_counts=True)
    indptr = np.searchsorted(keys, np.arange(n + 1) * n)
    return WeightedGraph(n, indptr, keys % n, counts.astype(float))


def normalize_adjacency(graph: WeightedGraph) -> WeightedGraph:
    """Symmetric normalisation: weight(a,b) / sqrt(degree(a) * degree(b)).

    Isolated nodes keep empty rows; no division by zero occurs because only
    existing edges are visited.
    """
    heads = np.repeat(np.arange(graph.n_nodes), np.diff(graph.indptr))
    degree = np.bincount(heads, weights=graph.weights, minlength=graph.n_nodes)
    weights = graph.weights / np.sqrt(degree[heads] * degree[graph.ids])
    return WeightedGraph(graph.n_nodes, graph.indptr, graph.ids, weights)


@dataclass
class Visits:
    """Per-source visit counts of a walk, one row per (source, visited node).

    ``sources`` lists the walked nodes, those with neighbours, in ascending
    order; the rows are sorted by (head, tail) and never count a source's
    visits to itself.
    """

    sources: np.ndarray
    heads: np.ndarray
    tails: np.ndarray
    counts: np.ndarray


# Walker-by-neighbour cells gathered per step: caps the sources walked at once.
_BLOCK_CELLS = 1 << 15


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

    The adjacency is symmetric with a zero diagonal, so a walker always has
    a neighbour to step to.  All walkers of a block of sources step together
    over the graph's CSR arrays.
    """
    if p <= 0 or q <= 0 or walk_length < 1:
        raise ValueError("p and q must be positive and walk_length at least 1")
    n, indptr, ids, weights = graph.n_nodes, graph.indptr, graph.ids, graph.weights
    degree = np.diff(indptr)
    keys = np.repeat(np.arange(n), degree) * n + ids  # ascending: heads ascend, each row's ids ascend
    biased = not (p == 1.0 and q == 1.0)
    walked = graph.adj
    widest = max(walk_length, int(degree.max(initial=0)))  # a walker's visits or candidates
    per_block = max(1, _BLOCK_CELLS // max(1, walks_per_node * widest))
    parts = []
    for begin in range(0, walked.size, per_block):
        sources = walked[begin:begin + per_block]
        draws = np.stack([np.random.default_rng([seed, int(source)])
                          .random(walks_per_node * walk_length) for source in sources.tolist()])
        draws = draws.reshape(sources.size * walks_per_node, walk_length)
        cur = np.repeat(sources, walks_per_node)
        prev = cur
        rows = np.arange(cur.size)
        visited = np.empty((cur.size, walk_length), dtype=np.int64)
        for step in range(walk_length):
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
        head = np.repeat(sources, walks_per_node * walk_length)
        tail = visited.ravel()
        keep = tail != head
        pair, count = np.unique(head[keep] * n + tail[keep], return_counts=True)
        parts.append((pair // n, pair % n, count))
    heads, tails, counts = (np.concatenate([part[i] for part in parts]) if parts
                            else np.zeros(0, dtype=np.int64) for i in range(3))
    return Visits(sources=walked, heads=heads, tails=tails, counts=counts)


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


def export_prg(graphs, path, key_of) -> None:
    """Write one head<TAB>relation<TAB>tail line per neighbour fact, each node
    id converted to its raw key by ``key_of``."""
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
