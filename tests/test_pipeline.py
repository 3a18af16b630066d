"""End-to-end pipeline assembly on a small synthetic dataset."""

import os
from collections import Counter

import numpy as np
import pytest

from prodkg import pipeline as pl
from prodkg.baselines import KgConfig
from prodkg.cli import main
from prodkg.data import modality_paths
from prodkg.evaluation import GraphSplit
from prodkg.model import ModelConfig, init_params
from prodkg.trainer import TrainConfig, train

SEQ_LENS = {"complement": 6, "co_view": 6, "search": 4, "describe": 8}


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    """A run directory after gen-data, ingest and build-prg (into <run>/prg)."""
    base = tmp_path_factory.mktemp("synth")
    data, run = str(base / "data"), str(base / "run")
    assert main(["gen-data", "--seed", "7", "--out", data, "--items", "120",
                 "--clusters", "20", "--words", "100", "--sessions", "600",
                 "--searches", "200", "--substitutions", "150"]) == 0
    assert main(["ingest", "--data", data, "--out", run]) == 0
    assert main(["build-prg", "--run", run, "--out", os.path.join(run, "prg"),
                 "--walks", "4", "--walk-length", "5", "--seed", "7"]) == 0
    return run


@pytest.fixture(scope="module")
def state(run):
    """The state train builds: filtered/ loaded and split, graph splits from
    build-prg's triples, and the masked products."""
    state = pl.load_and_split(modality_paths(os.path.join(run, "filtered")))
    pl.load_graph_splits(state, os.path.join(run, "prg"))
    pl.mask_products(state, 0.1, seed=7)
    return state


class TestAssembly:
    def test_modalities_split_chronologically(self, state):
        split = state.splits["buy_sessions"]
        assert len(split.train) > len(split.validation) > 0
        assert max(s.timestamp for s in split.train) <= min(s.timestamp for s in split.validation)

    def test_graphs_have_default_k_lists(self, run):
        with open(os.path.join(run, "prg", "prg_triples.tsv"), encoding="utf-8") as handle:
            facts = [line.rstrip("\n").split("\t") for line in handle]
        per_head = Counter((head, relation) for head, relation, _tail in facts)
        assert {relation for _head, relation in per_head} == set(pl.GRAPH_RELATIONS)
        assert max(per_head.values()) <= 20

    def test_masked_items_have_no_isa_examples(self, state):
        specs = pl.assemble_training_data(state, SEQ_LENS)
        masked = set(int(i) for i in state.masked_items)
        isa = [s for s in specs if s.name == "isa"]
        if isa:
            assert all(item not in masked for item, _labels in isa[0].examples)

    def test_leaky_examples_removed(self, state):
        specs = pl.assemble_training_data(state, SEQ_LENS)
        held_out = set()
        for split in (state.graph_splits["complement"].validation,
                      state.graph_splits["complement"].test):
            for h, t in split:
                held_out.add((h, t))
                held_out.add((t, h))
        complement = next(s for s in specs if s.name == "complement")
        for context, target in complement.examples:
            assert not any((c, target) in held_out for c in context)

    def test_validation_examples_present(self, state):
        pl.assemble_training_data(state, SEQ_LENS)
        val = state.validation_examples
        assert val["substitute"] and val["complement"] and val["isa"]

    def test_probe_inputs_aligned(self, state):
        params = init_params(ModelConfig(dim=8, seq_lens=SEQ_LENS, seed=1),
                             state.dataset.vocab["item"].size,
                             state.dataset.vocab["word"].size,
                             state.dataset.vocab["category"].size)
        features, labels, test_rows = pl.probe_inputs(state, params)
        assert features.shape[0] == len(labels["category"]) == len(labels["department"])
        assert test_rows.size > 0
        assert features.shape[1] == 8


class TestBaselineValidation:
    def test_early_stopping_watches_every_relation(self, state, monkeypatch):
        # the first 300 validation edges are all complement ones
        validation = {"complement": [(1 + i % 90, 2 + i % 90) for i in range(400)],
                      "co_view": [(3, 4), (5, 6)], "substitute": [(7, 8), (9, 10), (11, 12)]}
        splits = {relation: GraphSplit(relation, [(1, 2)], edges, [])
                  for relation, edges in validation.items()}
        crafted = pl.PipelineData(dataset=state.dataset, splits=state.splits,
                                  graph_splits=splits)
        seen = {}

        def fake_train_kg(model, triples, validation=None, **_kwargs):
            seen["validation"] = validation
            return model
        monkeypatch.setattr(pl, "train_kg", fake_train_kg)
        _model, space = pl.train_prg_baseline(crafted, KgConfig())

        def triples(relation, edges):
            rel = space.relation_index(relation)
            return [(space.item(h), rel, space.item(t)) for h, t in edges]
        complement = triples("complement", validation["complement"])
        co_view = triples("co_view", validation["co_view"])
        substitute = triples("substitute", validation["substitute"])
        expected = [complement[0], co_view[0], substitute[0],
                    complement[1], co_view[1], substitute[1],
                    complement[2], substitute[2], *complement[3:295]]
        assert seen["validation"].dtype == np.int64
        np.testing.assert_array_equal(seen["validation"], np.array(expected))


@pytest.mark.slow
class TestEndToEnd:
    def test_short_training_improves_substitute_ranking(self, state):
        specs = pl.assemble_training_data(state, SEQ_LENS)
        vocab = state.dataset.vocab
        params = init_params(ModelConfig(dim=12, seq_lens=SEQ_LENS, seed=7),
                             vocab["item"].size, vocab["word"].size,
                             vocab["category"].size)
        pl.pretrain_categories(state, params, epochs=5, seed=7)
        config = TrainConfig(lr=0.1, max_epochs=6, patience=6, seed=7, validation_cap=60)
        result = train(config, specs, params, state.validation_examples)
        final = [v for (_e, _t, task, _m, v) in result.log if task == "substitute"]
        random_level = 10 / (vocab["item"].size - 1)
        assert final[-1] > random_level
