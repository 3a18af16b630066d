"""End-to-end assembly: raw files to trained model to evaluation report.

This is the glue the command-line stages share: chronological splitting
per modality, relation-graph construction from the training split, held-out
graph-edge splits with leakage removal, the masked-product protocol for the
classification probe, task/validation example assembly, and baseline triple
preparation.
"""
from __future__ import annotations

import itertools
import json
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import data as dm
from .baselines import KgConfig, KgModel, KgSpace, graph_triples, train_kg
from .evaluation import drop_leaky_examples, remove_leaky_pairs, split_relation_graph
from .model import PkgParams
from .poincare import BURN_IN_EPOCHS, hierarchy_pretrain
from .prg import build_relation_graph

GRAPH_RELATIONS = ("complement", "co_view", "substitute")
# the share of labelled products masked for the probe, and every how many
# remaining catalog entries one is held out of isa training for validation
MASKED_FRACTION = 0.1
ISA_HOLDOUT_EVERY = 10


@dataclass
class PipelineData:
    """Everything derived from the raw files before any training."""

    dataset: dm.Dataset
    splits: dict                 # modality -> DatasetSplit
    graph_splits: dict = field(default_factory=dict)    # relation -> GraphSplit
    masked_items: np.ndarray = field(default_factory=lambda: np.array([], dtype=np.int64))


def load_and_split(paths: dict) -> PipelineData:
    """Load the records unfiltered and chronologically split every modality.
    Stages load ingest's ``filtered/`` this way: filtering is not idempotent,
    so a second pass at ingest's thresholds could drop more."""
    dataset = dm.ingest_dataset(paths)
    splits = {}
    for modality, records in (
        ("buy_sessions", dataset.buy_sessions),
        ("view_sessions", dataset.view_sessions),
        ("substitutions", dataset.substitutions),
        ("searches", dataset.searches),
    ):
        if records:
            splits[modality] = dm.chronological_split(records)
        else:
            splits[modality] = dm.DatasetSplit(train=(), validation=(), test=())
    return PipelineData(dataset=dataset, splits=splits)


def build_graphs(state: PipelineData, k: int, walks_per_node: int, walk_length: int,
                 p: float, q: float, seed: int) -> dict:
    """Relation -> RelationGraph, from the training split of each activity modality."""
    n_items = state.dataset.vocab[dm.ITEM].size
    return {relation: build_relation_graph(
                groups, n_items, relation, k=k, walks_per_node=walks_per_node,
                walk_length=walk_length, p=p, q=q, seed=seed)
            for relation, groups in _graph_sources(state).items()}


def _graph_sources(state: PipelineData) -> dict:
    """Relation -> training co-occurrence groups, for relations that have any."""
    sources = {
        "complement": [s.items for s in state.splits["buy_sessions"].train],
        "co_view": [s.items for s in state.splits["view_sessions"].train],
        "substitute": [(pair.accepted_for, pair.substitute)
                       for pair in state.splits["substitutions"].train],
    }
    return {relation: groups for relation, groups in sources.items() if groups}


def split_graphs(state: PipelineData, edges: dict, seed: int) -> None:
    """80/10/10 edge splits, with the training-connectivity repair, of ``edges``
    (relation -> (head, tail) list)."""
    for relation, pairs in edges.items():
        state.graph_splits[relation] = split_relation_graph(pairs, seed=seed)


def load_graph_splits(state: PipelineData, prg_dir: str) -> str:
    """Split each relation's facts in build-prg's ``prg_dir`` with the seed in its
    manifest (empty for a relation without facts); returns its config hash."""
    manifest_path = os.path.join(prg_dir, "manifest.json")
    triples_path = os.path.join(prg_dir, "prg_triples.tsv")
    for path in (manifest_path, triples_path):
        if not os.path.isfile(path):
            raise dm.DataError(f"missing {path!r}; run 'prodkg build-prg --out {prg_dir}' first")
    manifest = read_manifest(manifest_path)
    vocab = state.dataset.vocab[dm.ITEM]
    edges = {relation: [] for relation in _graph_sources(state)}
    for number, line in dm._read_lines(triples_path):
        head, relation, tail = dm._fields(triples_path, number, line, 3)
        if relation not in edges:
            raise dm.DataError(f"{triples_path}:{number}: relation {relation!r} "
                               "has no training records in this run")
        try:  # at_line's prefix, without a closure per line
            edges[relation].append((vocab.id(head), vocab.id(tail)))
        except dm.DataError as err:
            raise dm.DataError(f"{triples_path}:{number}: {err}") from None
    split_graphs(state, edges, seed=manifest["seed"])
    return manifest["config_hash"]


def read_manifest(path: str) -> dict:
    """A stage's ``manifest.json``; a missing or malformed file, or one without
    a non-negative integer ``seed`` and a string ``config_hash``, is a
    DataError that names it."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            manifest = json.load(handle)
    except (OSError, ValueError) as err:  # missing or unreadable, bad JSON or UTF-8
        raise dm.DataError(f"{path}: cannot read manifest ({err})") from None
    # type(...) is int: a JSON true is a bool, which isinstance(..., int) accepts
    if not (isinstance(manifest, dict) and {"seed", "config_hash"} <= manifest.keys()
            and type(manifest["seed"]) is int and manifest["seed"] >= 0
            and isinstance(manifest["config_hash"], str)):
        raise dm.DataError(f"{path}: manifest needs a non-negative integer 'seed' "
                           "and a string 'config_hash'")
    return manifest


def mask_products(state: PipelineData, seed: int) -> None:
    """Pick the probe's masked products (their category info is hidden in training)."""
    items_with_labels = sorted({e.item for e in state.dataset.catalog if e.category_path})
    rng = np.random.default_rng(seed)
    n_masked = int(MASKED_FRACTION * len(items_with_labels))
    picked = rng.choice(len(items_with_labels), size=n_masked, replace=False)
    state.masked_items = np.sort(np.array([items_with_labels[i] for i in picked], dtype=np.int64))


def session_examples(sessions, max_len: int) -> list:
    """One (context, target) example per non-initial position of each session,
    the context cut to the most recent ``max_len`` items."""
    return [(s.items[max(0, position - max_len):position], s.items[position])
            for s in sessions for position in range(1, len(s.items))]


def assemble_training_data(state: PipelineData, seq_lens: dict) -> tuple[dict, dict]:
    """Each task's training and validation examples, as two task -> examples
    dicts in ``TASK_NAMES`` order; a task without training examples is left
    out of the first.

    Training examples that contain a held-out graph edge are dropped;
    masked products contribute no category labels.  Every
    ``ISA_HOLDOUT_EVERY``-th remaining catalog entry is held out of isa
    training; each of its labels becomes one (product, label) isa
    validation example.  A sequence validation context is cut to its
    task's length where it is ranked.
    """
    eval_edges = {relation: set() for relation in GRAPH_RELATIONS}
    for relation, split in state.graph_splits.items():
        eval_edges[relation].update(split.validation, split.test)

    masked = set(int(i) for i in state.masked_items)
    catalog_for_isa = [e for e in state.dataset.catalog if e.item not in masked]
    isa_val_entries = catalog_for_isa[ISA_HOLDOUT_EVERY - 1::ISA_HOLDOUT_EVERY]
    isa_val_set = {e.item for e in isa_val_entries}
    catalog_train = [e for e in catalog_for_isa if e.item not in isa_val_set]

    buy, view, subs, searches = (state.splits[modality] for modality in (
        "buy_sessions", "view_sessions", "substitutions", "searches"))
    tasks = {
        "substitute": [(p.accepted_for, p.substitute)
                       for p in remove_leaky_pairs(subs.train, eval_edges["substitute"])],
        "complement": drop_leaky_examples(session_examples(buy.train, seq_lens["complement"]),
                                          eval_edges["complement"]),
        "co_view": drop_leaky_examples(session_examples(view.train, seq_lens["co_view"]),
                                       eval_edges["co_view"]),
        "search": [(tuple(r.query_words[-seq_lens["search"]:]), r.clicked_item)
                   for r in searches.train],
        "describe": [(tuple(e.description[-seq_lens["describe"]:]), e.item)
                     for e in catalog_train if e.description],
        "isa": [(e.item, tuple(e.category_path)) for e in catalog_train if e.category_path],
    }
    validation = {
        "substitute": [(p.accepted_for, p.substitute) for p in subs.validation],
        "complement": [(s.items[:-1], s.items[-1]) for s in buy.validation],
        "co_view": [(s.items[:-1], s.items[-1]) for s in view.validation],
        "search": [(r.query_words, r.clicked_item) for r in searches.validation],
        "isa": [(e.item, label) for e in isa_val_entries for label in e.category_path],
    }
    return {task: examples for task, examples in tasks.items() if examples}, validation


def pretrain_categories(state: PipelineData, params: PkgParams, epochs: int,
                        seed: int) -> list[float]:
    """Ball-geometry pre-training of the category table (frozen afterwards);
    returns the mean loss of each epoch."""
    if epochs <= BURN_IN_EPOCHS:
        print(f"warning: category pre-training runs {epochs} epochs, none past the "
              f"{BURN_IN_EPOCHS}-epoch burn-in at a tenth of the rate", file=sys.stderr)
    return hierarchy_pretrain(state.dataset.category_edges, params.tables["category"],
                              epochs=epochs, negatives=10, seed=seed)


def probe_inputs(state: PipelineData, params: PkgParams):
    """Feature matrix, per-level labels and masked rows for the probe.

    Level names follow the leaf-to-root path order: position 1 is the
    mid-level grouping ('category'), position 2 the coarser 'department'.
    """
    entries = [e for e in state.dataset.catalog if e.category_path]
    if not entries:
        return None, None, None
    entries.sort(key=lambda e: e.item)
    items = np.array([e.item for e in entries], dtype=np.int64)
    features = params.tables["item_in"].values[items]
    labels = {name: np.array([e.category_path[min(level, len(e.category_path) - 1)]
                              for e in entries], dtype=np.int64)
              for level, name in ((1, "category"), (2, "department"))}
    masked = set(int(i) for i in state.masked_items)
    test_rows = np.array([row for row, item in enumerate(items) if int(item) in masked],
                         dtype=np.int64)
    return features, labels, test_rows


def recommend_test_sessions(state: PipelineData) -> list:
    """Pooled buy+view test sessions ordered by timestamp."""
    pooled = list(state.splits["buy_sessions"].test) + list(state.splits["view_sessions"].test)
    pooled.sort(key=lambda s: s.timestamp)
    return [s.items for s in pooled]


def train_prg_baseline(state: PipelineData, config: KgConfig) -> tuple[KgModel, KgSpace]:
    """Train one triple baseline on the relation-graph training edges."""
    vocab = state.dataset.vocab
    space = KgSpace(vocab[dm.ITEM].size, vocab[dm.WORD].size, vocab[dm.CATEGORY].size)
    edges = {relation: split.train for relation, split in state.graph_splits.items()}
    triples = graph_triples(edges, space)
    # Early stopping watches 300 validation edges taken round-robin over the
    # relations, so that every relation reaches best-epoch selection.
    by_relation = [[(space.item(h), space.relation_index(relation), space.item(t))
                    for h, t in state.graph_splits[relation].validation]
                   for relation in GRAPH_RELATIONS if relation in state.graph_splits]
    validation = np.array([triple for turn in itertools.zip_longest(*by_relation)
                           for triple in turn if triple is not None][:300],
                          dtype=np.int64).reshape(-1, 3)
    model = KgModel(config, space.n_entities, space.n_relations)
    model = train_kg(model, triples, validation if len(validation) else None,
                     candidates=space.item_entities())
    return model, space
