"""Parameter bundle for the multi-relation product embedding model.

Holds the five embedding tables (product input, two product output tables
for co-buy/co-view, words, ball-geometry categories) plus one attention
block per sequence task, with deterministic seeded initialisation and
checkpoint save/load.
"""
from __future__ import annotations

import json
import os
import zipfile
from dataclasses import dataclass, field

import numpy as np

from .attention import TASK_WIRING, AttentionParams
from .data import CATEGORY, ITEM, WORD, DataError
from .embeddings import POINCARE, new_table, read_table_tsv, write_table_tsv

# embedding table -> the vocabulary namespace its rows are keyed by
TABLE_NAMESPACES = {"item_in": ITEM, "item_out_buy": ITEM, "item_out_view": ITEM,
                    "word": WORD, "category": CATEGORY}

DEFAULT_SEQ_LENS = {"complement": 20, "co_view": 50, "search": 10, "describe": 200}


@dataclass
class ModelConfig:
    dim: int = 100
    seq_lens: dict = field(default_factory=lambda: dict(DEFAULT_SEQ_LENS))
    seed: int = 7


@dataclass
class PkgParams:
    tables: dict        # name -> EmbeddingTable
    attn: dict          # task -> AttentionParams
    dim: int

    def dense_dict(self) -> dict:
        """Flat name -> array view over all attention parameters (shared memory)."""
        out: dict[str, np.ndarray] = {}
        for task, params in self.attn.items():
            out.update(params.as_dict(task))
        return out


def init_params(config: ModelConfig, n_items: int, n_words: int, n_categories: int) -> PkgParams:
    """Seed-deterministic initialisation of every table and attention block."""
    rng = np.random.default_rng(config.seed)
    d = config.dim
    tables = {
        "item_in": new_table("item_in", n_items, d, rng),
        "item_out_buy": new_table("item_out_buy", n_items, d, rng),
        "item_out_view": new_table("item_out_view", n_items, d, rng),
        "word": new_table("word", n_words, d, rng),
        "category": new_table("category", n_categories, d, rng, geometry=POINCARE),
    }
    attn = {
        task: AttentionParams.init(config.seq_lens[task], d, rng)
        for task in sorted(TASK_WIRING)
    }
    return PkgParams(tables=tables, attn=attn, dim=d)


def save_checkpoint(directory: str, params: PkgParams, vocab: dict) -> None:
    """Write embedding TSVs per table plus the attention parameters and a config echo."""
    os.makedirs(directory, exist_ok=True)
    for name, table in params.tables.items():
        keys = list(vocab[TABLE_NAMESPACES[name]].id_to_key)
        write_table_tsv(os.path.join(directory, f"embeddings_{name}.tsv"), table, keys)
    arrays = {}
    for task, block in params.attn.items():
        for key, value in block.as_dict(task).items():
            arrays[key.replace(".", "__")] = value
    np.savez(os.path.join(directory, "attention_params.npz"), **arrays)
    echo = {
        "dim": params.dim,
        "tables": {name: [table.rows, table.dim, table.geometry]
                   for name, table in params.tables.items()},
        "seq_lens": {task: block.max_len for task, block in params.attn.items()},
    }
    with open(os.path.join(directory, "checkpoint.json"), "w", encoding="utf-8") as handle:
        json.dump(echo, handle, indent=1, sort_keys=True)
        handle.write("\n")


def _read_attention(path: str, dim: int, seq_lens: dict) -> dict:
    """Attention blocks from ``attention_params.npz``: exactly the finite
    float arrays, of the shapes, that checkpoint.json implies."""
    try:
        with np.load(path, allow_pickle=False) as blob:
            arrays = {key: blob[key] for key in blob.files}
    except (OSError, ValueError, TypeError, EOFError, zipfile.BadZipFile) as err:
        raise DataError(f"{path}: cannot read the attention archive "
                        f"({type(err).__name__}: {err})") from None
    attn = {}
    for task, length in seq_lens.items():
        shapes = {"positions": (length, dim), "theta1": (dim, dim), "b1": (dim,),
                  "theta2": (dim, dim), "b2": (dim,)}
        parts = {part: arrays.pop(f"{task}__{part}", None) for part in shapes}
        for part, value in parts.items():
            if value is None or value.shape != shapes[part] or value.dtype.kind != "f" \
                    or not np.isfinite(value).all():
                raise DataError(f"{path}: no finite float array {task}__{part} "
                                f"of shape {shapes[part]}")
        attn[task] = AttentionParams(**parts)
    if arrays:
        raise DataError(f"{path}: arrays {sorted(arrays)} belong to no attention block "
                        f"of checkpoint.json")
    return attn


def load_checkpoint(directory: str) -> tuple[PkgParams, dict]:
    """Inverse of :func:`save_checkpoint`; returns params and per-table key lists.

    Each embedding TSV must hold the rows, dim and geometry that
    checkpoint.json records, and the attention archive the blocks it lists;
    a mismatch or a malformed file is a DataError naming the file.
    """
    echo_path = os.path.join(directory, "checkpoint.json")
    try:
        with open(echo_path, "r", encoding="utf-8") as handle:
            echo = json.load(handle)
        dim, shapes = int(echo["dim"]), dict(echo["tables"])
        seq_lens = {str(task): int(length) for task, length in echo["seq_lens"].items()}
    except (OSError, ValueError, LookupError, TypeError, AttributeError) as err:
        raise DataError(f"{echo_path}: cannot read the checkpoint description "
                        f"({type(err).__name__}: {err})") from None
    tables = {}
    keys_by_table = {}
    for name in TABLE_NAMESPACES:
        path = os.path.join(directory, f"embeddings_{name}.tsv")
        table, keys = read_table_tsv(path, name)
        if [table.rows, table.dim, table.geometry] != shapes.get(name):
            raise DataError(f"{path}: [rows with PAD, dim, geometry] = [{table.rows}, "
                            f"{table.dim}, {table.geometry!r}], but {echo_path} records "
                            f"{shapes.get(name)}")
        tables[name] = table
        keys_by_table[name] = keys
    attn = _read_attention(os.path.join(directory, "attention_params.npz"), dim, seq_lens)
    return PkgParams(tables=tables, attn=attn, dim=dim), keys_by_table
