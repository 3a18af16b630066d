"""Synthetic e-commerce dataset with planted relational structure.

Items are partitioned into substitute clusters; a derangement over clusters
defines complement targets.  Buy sessions follow complement chains, view
sessions stay within a cluster, descriptions and queries draw from
cluster-specific keyword pools, and every cluster owns a leaf of a fixed
four-level category tree.  Each emitted token is replaced by uniform noise
at the configured rate, so every pipeline stage has a controllable,
verifiable ground truth.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .data import modality_paths, write_modality

GROUND_TRUTH_RELATIONS = ("substitute", "complement", "co_view")


@dataclass
class SynthConfig:
    n_items: int = 2000
    n_words: int = 500
    tree_branching: tuple = (8, 4, 3, 2)   # children per level, root level first
    n_clusters: int = 200
    n_substitutions: int = 2000
    n_sessions: int = 20000                # split evenly between buy and view
    n_searches: int = 5000
    session_length: tuple = (3, 6)         # inclusive bounds
    complement_rules: dict | None = None   # cluster -> cluster; derangement when absent
    noise_rate: float = 0.1
    n_stopwords: int = 20
    seed: int = 7

    def __post_init__(self):
        if not 0.0 <= self.noise_rate < 1.0:
            raise ValueError("noise rate must lie in [0, 1)")
        if self.n_clusters > self.n_items // 2:
            raise ValueError("need at least two items per cluster")
        if len(self.tree_branching) != 4:
            raise ValueError("category tree must have four levels")
        if self.n_words <= self.n_stopwords + 10:
            raise ValueError("word budget too small for keyword pools")


@dataclass
class GroundTruth:
    """Planted relation edges, keyed by raw string keys."""

    relations: dict            # relation -> head key -> set of tail keys
    item_keys: list
    cluster_of: dict           # item key -> cluster index
    keyword_pool: dict         # cluster index -> list of word keys
    stats: dict = field(default_factory=dict)   # generation counters

    def oracle_rank(self, relation: str, head: str) -> set:
        """Exact planted tail set for one head; empty when nothing was planted."""
        if relation not in self.relations:
            raise ValueError(f"relation {relation!r} was not planted")
        if head not in self.cluster_of:
            raise ValueError(f"unknown head {head!r}")
        return set(self.relations[relation].get(head, ()))


def _item_key(i: int) -> str:
    return f"i{i:05d}"


def _word_key(w: int) -> str:
    return f"w{w:04d}"


def _derangement(n: int, rng: np.random.Generator) -> np.ndarray:
    perm = rng.permutation(n)
    for idx in range(n):
        if perm[idx] == idx:
            swap = (idx + 1) % n
            perm[idx], perm[swap] = perm[swap], perm[idx]
    return perm


def _category_tree(branching: tuple) -> tuple[list, list]:
    """Returns (labels per level root-first, child->parent label edges)."""
    levels: list[list[str]] = []
    edges: list[tuple[str, str]] = []
    count = 1
    for level, width in enumerate(branching):
        count *= width
        levels.append([f"c{level}_{idx:04d}" for idx in range(count)])
    for level in range(1, len(levels)):
        parent_width = len(levels[level - 1])
        for idx, label in enumerate(levels[level]):
            parent = levels[level - 1][idx * parent_width // len(levels[level])]
            edges.append((label, parent))
    return levels, edges


def generate(config: SynthConfig, out_dir: str) -> tuple[dict, GroundTruth]:
    """Write all modality files plus ground_truth.tsv; returns paths and truth."""
    rng = np.random.default_rng(config.seed)
    os.makedirs(out_dir, exist_ok=True)

    items = [_item_key(i) for i in range(config.n_items)]
    cluster_idx = {key: i % config.n_clusters for i, key in enumerate(items)}
    members: dict[int, list[str]] = {}
    for key, cluster in cluster_idx.items():
        members.setdefault(cluster, []).append(key)

    if config.complement_rules is None:
        rule_perm = _derangement(config.n_clusters, rng)
        rules = {c: int(rule_perm[c]) for c in range(config.n_clusters)}
    else:
        rules = dict(config.complement_rules)

    levels, cat_edges = _category_tree(config.tree_branching)
    leaves = levels[-1]
    leaf_of_cluster = {c: leaves[c % len(leaves)] for c in range(config.n_clusters)}
    path_up: dict[str, str] = dict(cat_edges)

    def full_path(leaf: str) -> list[str]:
        path = [leaf]
        while path[-1] in path_up:
            path.append(path_up[path[-1]])
        return path  # leaf -> root

    words = [_word_key(w) for w in range(config.n_words)]
    stopwords = words[: config.n_stopwords]
    n_shared = max(1, (config.n_words - config.n_stopwords) // 10)
    shared_pool = words[config.n_stopwords: config.n_stopwords + n_shared]
    private = words[config.n_stopwords + n_shared:]
    pools: dict[int, list[str]] = {}
    span = len(private) / config.n_clusters
    for cluster in range(config.n_clusters):
        lo = int(cluster * span)
        hi = max(lo + 1, int((cluster + 1) * span))
        pool = list(private[lo:hi])
        pool.append(shared_pool[int(rng.integers(len(shared_pool)))])
        pools[cluster] = pool

    noise_counts = {"noise_tokens": 0, "total_tokens": 0}

    def noisy_item(key: str) -> str:
        noise_counts["total_tokens"] += 1
        if rng.random() < config.noise_rate:
            noise_counts["noise_tokens"] += 1
            return items[int(rng.integers(config.n_items))]
        return key

    def noisy_word(key: str) -> str:
        noise_counts["total_tokens"] += 1
        if rng.random() < config.noise_rate:
            noise_counts["noise_tokens"] += 1
            return words[int(rng.integers(config.n_words))]
        return key

    lo, hi = config.session_length
    timestamp = 0
    buy_lines, view_lines = [], []
    n_buy = config.n_sessions // 2
    for session in range(config.n_sessions):
        length = int(rng.integers(lo, hi + 1))
        if session < n_buy:
            cluster = int(rng.integers(config.n_clusters))
            chain = []
            current = cluster
            for _ in range(length):
                chain.append(current)
                current = rules[current]
            tokens = [noisy_item(members[c][int(rng.integers(len(members[c])))]) for c in chain]
            buy_lines.append((timestamp, tokens))
        else:
            cluster = int(rng.integers(config.n_clusters))
            pool = members[cluster]
            picks = rng.choice(len(pool), size=min(length, len(pool)), replace=False)
            tokens = [noisy_item(pool[int(p)]) for p in picks]
            if len(tokens) < 2:
                tokens.append(pool[int(rng.integers(len(pool)))])
            view_lines.append((timestamp, tokens))
        timestamp += 1

    sub_lines = []
    for _ in range(config.n_substitutions):
        cluster = int(rng.integers(config.n_clusters))
        pool = members[cluster]
        a, b = rng.choice(len(pool), size=2, replace=False)
        sub_lines.append((timestamp, pool[int(a)], pool[int(b)]))
        timestamp += 1

    search_lines = []
    for _ in range(config.n_searches):
        cluster = int(rng.integers(config.n_clusters))
        pool = pools[cluster]
        n_query = int(rng.integers(2, 5))
        query = [noisy_word(pool[int(rng.integers(len(pool)))]) for _ in range(n_query)]
        clicked = members[cluster][int(rng.integers(len(members[cluster])))]
        search_lines.append((timestamp, query, clicked))
        timestamp += 1

    catalog_lines = []
    for key in items:
        cluster = cluster_idx[key]
        pool = pools[cluster]
        n_desc = int(rng.integers(6, 11))
        description = [noisy_word(pool[int(rng.integers(len(pool)))]) for _ in range(n_desc)]
        description += [stopwords[int(rng.integers(len(stopwords)))] for _ in range(2)]
        order = rng.permutation(len(description))
        description = [description[int(i)] for i in order]
        catalog_lines.append((key, description, full_path(leaf_of_cluster[cluster])))

    paths = modality_paths(out_dir)
    for modality, rows in (("buy_sessions", buy_lines), ("view_sessions", view_lines),
                           ("substitutions", sub_lines), ("search", search_lines),
                           ("catalog", catalog_lines), ("category_edges", cat_edges)):
        write_modality(paths[modality], modality, rows)

    relations: dict[str, dict[str, set]] = {r: {} for r in GROUND_TRUTH_RELATIONS}
    for key in items:
        cluster = cluster_idx[key]
        siblings = {k for k in members[cluster] if k != key}
        relations["substitute"][key] = siblings
        relations["co_view"][key] = set(siblings)
        relations["complement"][key] = set(members[rules[cluster]])
    truth = GroundTruth(relations=relations, item_keys=items,
                        cluster_of=cluster_idx, keyword_pool=pools,
                        stats=dict(noise_counts))
    truth_path = os.path.join(out_dir, "ground_truth.tsv")
    with open(truth_path, "w", encoding="utf-8") as handle:
        for relation in GROUND_TRUTH_RELATIONS:
            for head in items:
                for tail in sorted(relations[relation][head]):
                    handle.write(f"{relation}\t{head}\t{tail}\n")
    paths["ground_truth"] = truth_path
    return paths, truth


def load_ground_truth(path: str) -> GroundTruth:
    """Read ground_truth.tsv back into memory."""
    relations: dict[str, dict[str, set]] = {}
    item_keys: set[str] = set()
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.rstrip("\n")
            if not line:
                continue
            relation, head, tail = line.split("\t")
            relations.setdefault(relation, {}).setdefault(head, set()).add(tail)
            item_keys.add(head)
            item_keys.add(tail)
    ordered = sorted(item_keys)
    return GroundTruth(relations=relations, item_keys=ordered,
                       cluster_of={k: -1 for k in ordered}, keyword_pool={})
