"""Comparisons and views that only the tests need, kept out of the library."""

import numpy as np


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
