"""Frozen oracle: ingestion as it was before the one-pass loader.

It read every modality file twice (keys first, then records resolved
against vocabularies of all keys), then counted entity appearances over the
resolved records and rebuilt every record against vocabularies of the keys
at or above the thresholds.  The code below is that version, renamed, so the
tests can hold ``prodkg.data.ingest_dataset`` to it.
"""

import os
from dataclasses import replace

from prodkg.data import (
    CATEGORY, ITEM, MODALITY_FILES, WORD, CatalogEntry, DataError, Dataset, SearchRecord,
    SessionSequence, SubstitutionPair, Vocabulary, at_line,
)


def oracle_dataset(paths: dict, item_min: int = 10, word_min: int = 3) -> Dataset:
    """The two-pass read followed by the filtering rebuild."""
    return filter_infrequent(two_pass_ingest(paths), item_min, word_min)


def _read_lines(path):
    with open(path, "r", encoding="utf-8") as handle:
        for number, raw in enumerate(handle, start=1):
            line = raw.rstrip("\n")
            if line:
                yield number, line


def _fields(path, number, line, expected: int):
    parts = line.split("\t")
    if len(parts) != expected:
        raise DataError(f"{path}:{number}: expected {expected} tab-separated fields, got {len(parts)}")
    return parts


def _timestamp(token):
    try:
        return int(token)
    except ValueError:
        raise DataError(f"bad timestamp {token!r}") from None


def two_pass_ingest(paths: dict) -> Dataset:
    """Parse all provided modality files into an id-resolved :class:`Dataset`.

    ``paths`` maps modality names (``catalog``, ``buy_sessions``,
    ``view_sessions``, ``substitutions``, ``search``, ``category_edges``) to
    file paths; absent modalities may be omitted or set to None.  The
    category vocabulary comes from the edge file alone, so a catalog path
    label missing there is an error.
    """
    present = {name: path for name, path in paths.items() if path and name in MODALITY_FILES}
    for name, path in present.items():
        if not os.path.exists(path):
            raise DataError(f"missing input file for {name}: {path}")

    item_keys: set[str] = set()
    word_keys: set[str] = set()
    category_keys: set[str] = set()

    # First pass: collect raw keys.
    if "category_edges" in present:
        for number, line in _read_lines(present["category_edges"]):
            child, parent = _fields(present["category_edges"], number, line, 2)
            category_keys.update((child, parent))
    if "catalog" in present:
        for number, line in _read_lines(present["catalog"]):
            item, words, _path = _fields(present["catalog"], number, line, 3)
            item_keys.add(item)
            word_keys.update(w for w in words.split(" ") if w)
    for kind in ("buy_sessions", "view_sessions"):
        if kind in present:
            for number, line in _read_lines(present[kind]):
                _ts, items = _fields(present[kind], number, line, 2)
                item_keys.update(i for i in items.split(" ") if i)
    if "substitutions" in present:
        for number, line in _read_lines(present["substitutions"]):
            _ts, a, b = _fields(present["substitutions"], number, line, 3)
            item_keys.update((a, b))
    if "search" in present:
        for number, line in _read_lines(present["search"]):
            _ts, words, clicked = _fields(present["search"], number, line, 3)
            word_keys.update(w for w in words.split(" ") if w)
            item_keys.add(clicked)

    vocab = {
        ITEM: Vocabulary.from_keys(ITEM, item_keys),
        WORD: Vocabulary.from_keys(WORD, word_keys),
        CATEGORY: Vocabulary.from_keys(CATEGORY, category_keys),
    }
    dataset = Dataset(vocab=vocab)

    # Second pass: resolve ids and validate record invariants.
    if "category_edges" in present:
        path = present["category_edges"]
        for number, line in _read_lines(path):
            child, parent = _fields(path, number, line, 2)
            dataset.category_edges.append(
                (vocab[CATEGORY].id(child), vocab[CATEGORY].id(parent)))
    if "catalog" in present:
        path = present["catalog"]
        for number, line in _read_lines(path):
            item, words, cat_path = _fields(path, number, line, 3)
            labels = [p for p in cat_path.split("/") if p]
            for label in labels:
                if label not in vocab[CATEGORY].key_to_id:
                    raise DataError(f"{path}:{number}: unknown category label {label!r}")
            dataset.catalog.append(at_line(path, number, lambda: CatalogEntry(
                item=vocab[ITEM].id(item),
                description=tuple(vocab[WORD].id(w) for w in words.split(" ") if w),
                category_path=tuple(vocab[CATEGORY].id(l) for l in labels),
            )))
    for kind, attr in (("buy_sessions", "buy_sessions"), ("view_sessions", "view_sessions")):
        if kind in present:
            path = present[kind]
            session_kind = "buy" if kind == "buy_sessions" else "view"
            for number, line in _read_lines(path):
                ts, items = _fields(path, number, line, 2)
                getattr(dataset, attr).append(at_line(path, number, lambda: SessionSequence(
                    kind=session_kind,
                    items=tuple(vocab[ITEM].id(i) for i in items.split(" ") if i),
                    timestamp=_timestamp(ts),
                )))
    if "substitutions" in present:
        path = present["substitutions"]
        for number, line in _read_lines(path):
            ts, a, b = _fields(path, number, line, 3)
            dataset.substitutions.append(at_line(path, number, lambda: SubstitutionPair(
                accepted_for=vocab[ITEM].id(a),
                substitute=vocab[ITEM].id(b),
                timestamp=_timestamp(ts),
            )))
    if "search" in present:
        path = present["search"]
        for number, line in _read_lines(path):
            ts, words, clicked = _fields(path, number, line, 3)
            dataset.searches.append(at_line(path, number, lambda: SearchRecord(
                query_words=tuple(vocab[WORD].id(w) for w in words.split(" ") if w),
                clicked_item=vocab[ITEM].id(clicked),
                timestamp=_timestamp(ts),
            )))
    return dataset


def entity_counts(dataset: Dataset) -> tuple[dict, dict]:
    """Total appearance counts: items over activity records, words over text.

    Items count every occurrence in buy/view sessions, substitution pairs
    (both sides) and search clicks; words count every occurrence in catalog
    descriptions and search queries.  Keys are entity ids.
    """
    item_counts: dict[int, int] = {}
    word_counts: dict[int, int] = {}

    def bump(counter, key, n=1):
        counter[key] = counter.get(key, 0) + n

    for session in dataset.buy_sessions + dataset.view_sessions:
        for item in session.items:
            bump(item_counts, item)
    for pair in dataset.substitutions:
        bump(item_counts, pair.accepted_for)
        bump(item_counts, pair.substitute)
    for record in dataset.searches:
        bump(item_counts, record.clicked_item)
        for word in record.query_words:
            bump(word_counts, word)
    for entry in dataset.catalog:
        for word in entry.description:
            bump(word_counts, word)
    return item_counts, word_counts


def filter_infrequent(dataset: Dataset, item_min: int = 10, word_min: int = 3) -> Dataset:
    """Drop rare items and words everywhere, then re-index the survivors.

    Sequences are shortened in place; any sequence shrinking below length
    two is discarded, as are substitutions losing either side, searches
    losing their click or whole query, and catalog entries of dropped
    items.  A frequent item or word is kept only where a record that
    survives the filter holds it.  Categories are never filtered.
    """
    item_counts, word_counts = entity_counts(dataset)
    old_items = dataset.vocab[ITEM]
    old_words = dataset.vocab[WORD]
    frequent_items = {i for i in old_items.real_ids() if item_counts.get(i, 0) >= item_min}
    frequent_words = {w for w in old_words.real_ids() if word_counts.get(w, 0) >= word_min}
    held_items, held_words = set(), set()
    for session in dataset.buy_sessions + dataset.view_sessions:
        kept = [i for i in session.items if i in frequent_items]
        if len(kept) >= 2:
            held_items.update(kept)
    for pair in dataset.substitutions:
        if pair.accepted_for in frequent_items and pair.substitute in frequent_items:
            held_items.update((pair.accepted_for, pair.substitute))
    for record in dataset.searches:
        words = [w for w in record.query_words if w in frequent_words]
        if record.clicked_item in frequent_items and words:
            held_items.add(record.clicked_item)
            held_words.update(words)
    for entry in dataset.catalog:
        if entry.item in frequent_items:
            held_items.add(entry.item)
            held_words.update(w for w in entry.description if w in frequent_words)
    kept_item_keys = [old_items.key(i) for i in sorted(held_items)]
    kept_word_keys = [old_words.key(w) for w in sorted(held_words)]

    new_vocab = {
        ITEM: Vocabulary.from_keys(ITEM, kept_item_keys),
        WORD: Vocabulary.from_keys(WORD, kept_word_keys),
        CATEGORY: dataset.vocab[CATEGORY],
    }

    def item_id(old_id):
        key = old_items.key(old_id)
        return new_vocab[ITEM].key_to_id.get(key)

    def word_id(old_id):
        key = old_words.key(old_id)
        return new_vocab[WORD].key_to_id.get(key)

    out = Dataset(vocab=new_vocab, category_edges=list(dataset.category_edges))
    for session in dataset.buy_sessions + dataset.view_sessions:
        kept = tuple(i for i in (item_id(x) for x in session.items) if i is not None)
        if len(kept) >= 2:
            target = out.buy_sessions if session.kind == "buy" else out.view_sessions
            target.append(replace(session, items=kept))
    for pair in dataset.substitutions:
        a, b = item_id(pair.accepted_for), item_id(pair.substitute)
        if a is not None and b is not None:
            out.substitutions.append(replace(pair, accepted_for=a, substitute=b))
    for record in dataset.searches:
        clicked = item_id(record.clicked_item)
        words = tuple(w for w in (word_id(x) for x in record.query_words) if w is not None)
        if clicked is not None and words:
            out.searches.append(replace(record, query_words=words, clicked_item=clicked))
    for entry in dataset.catalog:
        item = item_id(entry.item)
        if item is None:
            continue
        words = tuple(w for w in (word_id(x) for x in entry.description) if w is not None)
        out.catalog.append(replace(entry, item=item, description=words))
    return out
