"""Parameter bundle initialisation and checkpoint round trips."""

import numpy as np

from helpers import params_equal
from prodkg.model import ModelConfig, init_params, load_checkpoint, save_checkpoint
from prodkg.data import Vocabulary


def small_model(seed=7):
    config = ModelConfig(dim=6, seed=seed, seq_lens={
        "complement": 4, "co_view": 5, "search": 3, "describe": 6})
    return init_params(config, n_items=9, n_words=7, n_categories=5)


class TestInit:
    def test_deterministic_under_seed(self):
        assert params_equal(small_model(3), small_model(3))

    def test_different_seeds_differ(self):
        assert not params_equal(small_model(1), small_model(2))

    def test_shapes_and_geometry(self):
        params = small_model()
        assert params.tables["item_in"].values.shape == (9, 6)
        assert params.tables["word"].values.shape == (7, 6)
        assert params.tables["category"].geometry == "poincare"
        assert params.attn["co_view"].positions.shape == (5, 6)

    def test_copy_is_deep(self):
        params = small_model()
        clone = params.copy()
        clone.tables["word"].values[1] += 1.0
        assert not params_equal(params, clone)


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        params = small_model()
        vocab = {
            "item": Vocabulary.from_keys("item", [f"i{i}" for i in range(8)]),
            "word": Vocabulary.from_keys("word", [f"w{i}" for i in range(6)]),
            "category": Vocabulary.from_keys("category", [f"c{i}" for i in range(4)]),
        }
        save_checkpoint(str(tmp_path / "ckpt"), params, vocab)
        loaded, keys = load_checkpoint(str(tmp_path / "ckpt"))
        assert loaded.dim == params.dim
        for name, table in params.tables.items():
            np.testing.assert_allclose(loaded.tables[name].values, table.values,
                                       rtol=1e-8, atol=1e-12)
            assert loaded.tables[name].geometry == table.geometry
        for task, block in params.attn.items():
            np.testing.assert_array_equal(loaded.attn[task].positions, block.positions)
            np.testing.assert_array_equal(loaded.attn[task].theta1, block.theta1)
        assert keys["item_in"][1] == "i0"

    def test_checkpoint_files_deterministic(self, tmp_path):
        vocab = {
            "item": Vocabulary.from_keys("item", [f"i{i}" for i in range(8)]),
            "word": Vocabulary.from_keys("word", [f"w{i}" for i in range(6)]),
            "category": Vocabulary.from_keys("category", [f"c{i}" for i in range(4)]),
        }
        save_checkpoint(str(tmp_path / "a"), small_model(), vocab)
        save_checkpoint(str(tmp_path / "b"), small_model(), vocab)
        for name in ("embeddings_item_in.tsv", "attention_params.npz", "checkpoint.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
