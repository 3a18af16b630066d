"""Comparisons, views and raw inputs that only the tests need, kept out of the library."""

import os

import numpy as np

from prodkg.data import MODALITY_FILES


def params_equal(a, b) -> bool:
    """Whether two parameter bundles hold bitwise-equal tables and attention blocks."""
    if set(a.tables) != set(b.tables) or set(a.attn) != set(b.attn):
        return False
    if not all(np.array_equal(a.tables[name].values, b.tables[name].values)
               for name in a.tables):
        return False
    mine, theirs = a.dense_dict(), b.dense_dict()
    return all(np.array_equal(mine[key], theirs[key]) for key in mine)


def key_rows(cache):
    """The positionally encoded key-side rows of an attention forward cache,
    (B, L, d) for a (B, L) id block."""
    return cache.e[:, cache.ids.shape[1]:]


def _orphan_case(extra_buys="", searches=None):
    """Catalog a and b, ten buy sessions ``a b``, then the given lines."""
    texts = {
        "catalog": "a\tfruit\tc\nb\tfruit\tc\n",
        "category_edges": "c\troot\n",
        "buy_sessions": "".join(f"{ts}\ta b\n" for ts in range(10)) + extra_buys,
    }
    return texts if searches is None else {**texts, "search": searches}


# Raw modality texts, item_min and word_min at which an item reaches its count
# but no record that survives the filter holds it; ingest keeps a and b only.
ORPHAN_ITEM_CASES = {
    "search-loses-its-only-word": (_orphan_case(
        searches="".join(f"{ts}\td1\ta\n" for ts in range(10)) + "10\trare\tx\n"), 1, 2),
    "sessions-shrink-below-two": (_orphan_case(extra_buys="10\tq y\n11\tr y\n"), 2, 1),
}


def write_raw(directory, texts: dict) -> dict:
    """Write each modality's text to its file under ``directory``; returns the path map."""
    os.makedirs(directory, exist_ok=True)
    paths = {}
    for modality, text in texts.items():
        paths[modality] = os.path.join(directory, MODALITY_FILES[modality])
        with open(paths[modality], "w", encoding="utf-8") as handle:
            handle.write(text)
    return paths
