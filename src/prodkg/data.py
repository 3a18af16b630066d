"""Raw-data ingestion, vocabularies, frequency filtering and chronological splits.

Five line-oriented UTF-8 text modalities are supported:

  catalog.tsv         item_key <TAB> description words <TAB> category path leaf->root (/-separated)
  buy_sessions.tsv    timestamp <TAB> space-separated item keys
  view_sessions.tsv   timestamp <TAB> space-separated item keys
  substitutions.tsv   timestamp <TAB> item_key <TAB> item_key
  search.tsv          timestamp <TAB> space-separated query words <TAB> clicked item_key
  category_edges.tsv  child_label <TAB> parent_label

Ingestion reads each file twice in effect: keys are collected first, then
records are re-resolved against the vocabularies built from those keys.
Entity ids are dense integers per namespace with id 0 reserved for PAD;
real ids follow the lexicographic order of the raw string keys, so
rebuilding a vocabulary from the same keys is reproducible.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, field, replace

ITEM = "item"
WORD = "word"
CATEGORY = "category"
NAMESPACES = (ITEM, WORD, CATEGORY)

PAD_KEY = "<pad>"

# modality -> file name, the same under a raw data directory and a run's filtered/
MODALITY_FILES = {
    "catalog": "catalog.tsv",
    "buy_sessions": "buy_sessions.tsv",
    "view_sessions": "view_sessions.tsv",
    "substitutions": "substitutions.tsv",
    "search": "search.tsv",
    "category_edges": "category_edges.tsv",
}


def modality_paths(directory: str) -> dict:
    """Modality -> path of its file under ``directory``."""
    return {name: os.path.join(directory, file) for name, file in MODALITY_FILES.items()}


class DataError(ValueError):
    """Malformed input data; carries file and line context when available."""


@dataclass(frozen=True)
class Vocabulary:
    namespace: str
    key_to_id: dict
    id_to_key: tuple

    @classmethod
    def from_keys(cls, namespace: str, keys) -> "Vocabulary":
        """Deterministic vocabulary: PAD is 0, real ids follow sorted raw keys."""
        ordered = sorted(set(keys))
        if PAD_KEY in ordered:
            raise DataError(f"reserved key {PAD_KEY!r} present in {namespace} input")
        id_to_key = (PAD_KEY, *ordered)
        key_to_id = {key: idx for idx, key in enumerate(id_to_key)}
        return cls(namespace, key_to_id, id_to_key)

    @property
    def size(self) -> int:
        return len(self.id_to_key)

    def id(self, key: str) -> int:
        try:
            return self.key_to_id[key]
        except KeyError:
            raise DataError(f"unknown {self.namespace} key {key!r}") from None

    def key(self, idx: int) -> str:
        return self.id_to_key[idx]

    def real_ids(self) -> range:
        return range(1, self.size)


@dataclass(frozen=True)
class SessionSequence:
    kind: str  # "buy" | "view"
    items: tuple
    timestamp: int

    def __post_init__(self):
        if len(self.items) < 2:
            raise DataError("session needs at least two items")


@dataclass(frozen=True)
class SubstitutionPair:
    accepted_for: int
    substitute: int
    timestamp: int

    def __post_init__(self):
        if self.accepted_for == self.substitute:
            raise DataError("self-substitution")


@dataclass(frozen=True)
class SearchRecord:
    query_words: tuple
    clicked_item: int
    timestamp: int

    def __post_init__(self):
        if not self.query_words:
            raise DataError("empty search query")


@dataclass(frozen=True)
class CatalogEntry:
    item: int
    description: tuple
    category_path: tuple  # leaf -> root

    def __post_init__(self):
        if not 1 <= len(self.category_path) <= 4:
            raise DataError("category path must have one to four levels")


@dataclass
class Dataset:
    """Id-resolved record collections plus the vocabularies they resolve against."""

    buy_sessions: list = field(default_factory=list)
    view_sessions: list = field(default_factory=list)
    substitutions: list = field(default_factory=list)
    searches: list = field(default_factory=list)
    catalog: list = field(default_factory=list)
    category_edges: list = field(default_factory=list)  # (child_id, parent_id)
    vocab: dict = field(default_factory=dict)


@dataclass(frozen=True)
class DatasetSplit:
    train: tuple
    validation: tuple
    test: tuple


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


def at_line(path, number, builder):
    """``builder()``, with ``path:number`` prefixed to any DataError it raises."""
    try:
        return builder()
    except DataError as err:
        raise DataError(f"{path}:{number}: {err}") from None


def _timestamp(token):
    try:
        return int(token)
    except ValueError:
        raise DataError(f"bad timestamp {token!r}") from None


def ingest_dataset(paths: dict) -> Dataset:
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
    items.  Categories are never filtered.
    """
    item_counts, word_counts = entity_counts(dataset)
    old_items = dataset.vocab[ITEM]
    old_words = dataset.vocab[WORD]
    kept_item_keys = [old_items.key(i) for i in old_items.real_ids()
                      if item_counts.get(i, 0) >= item_min]
    kept_word_keys = [old_words.key(w) for w in old_words.real_ids()
                      if word_counts.get(w, 0) >= word_min]

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


def splittable(n: int, fractions=(0.8, 0.1, 0.1)) -> bool:
    """Whether a chronological split of n records leaves validation and test nonempty."""
    return int(fractions[1] * n) > 0 and int(fractions[2] * n) > 0


def chronological_split(records, fractions=(0.8, 0.1, 0.1)) -> DatasetSplit:
    """Stable timestamp-ordered split; validation/test take floor(f*n) each.

    Ties keep input order.  The remainder goes to train.  A split that would
    leave validation or test empty is an error.
    """
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise DataError("split fractions must sum to 1")
    records = list(records)
    n = len(records)
    if not splittable(n, fractions):
        raise DataError(f"cannot form three nonempty parts from {n} records")
    n_val = int(fractions[1] * n)
    n_test = int(fractions[2] * n)
    ordered = sorted(records, key=lambda r: r.timestamp)
    n_train = n - n_val - n_test
    return DatasetSplit(
        train=tuple(ordered[:n_train]),
        validation=tuple(ordered[n_train:n_train + n_val]),
        test=tuple(ordered[n_train + n_val:]),
    )


# --- Export (inverse of ingestion, same formats) ---

def export_sessions(path, sessions, vocab: Vocabulary) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for s in sessions:
            items = " ".join(vocab.key(i) for i in s.items)
            handle.write(f"{s.timestamp}\t{items}\n")


def export_substitutions(path, pairs, vocab: Vocabulary) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for p in pairs:
            handle.write(f"{p.timestamp}\t{vocab.key(p.accepted_for)}\t{vocab.key(p.substitute)}\n")


def export_searches(path, records, item_vocab: Vocabulary, word_vocab: Vocabulary) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for r in records:
            words = " ".join(word_vocab.key(w) for w in r.query_words)
            handle.write(f"{r.timestamp}\t{words}\t{item_vocab.key(r.clicked_item)}\n")


def export_catalog(path, entries, item_vocab: Vocabulary, word_vocab: Vocabulary,
                   category_vocab: Vocabulary) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for e in entries:
            words = " ".join(word_vocab.key(w) for w in e.description)
            cats = "/".join(category_vocab.key(c) for c in e.category_path)
            handle.write(f"{item_vocab.key(e.item)}\t{words}\t{cats}\n")


def export_category_edges(path, edges, vocab: Vocabulary) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for child, parent in edges:
            handle.write(f"{vocab.key(child)}\t{vocab.key(parent)}\n")


def export_dataset(dataset: Dataset, directory: str) -> dict:
    """Write every modality back to ``directory``; returns the path map."""
    os.makedirs(directory, exist_ok=True)
    paths = modality_paths(directory)
    export_catalog(paths["catalog"], dataset.catalog, dataset.vocab[ITEM],
                   dataset.vocab[WORD], dataset.vocab[CATEGORY])
    export_sessions(paths["buy_sessions"], dataset.buy_sessions, dataset.vocab[ITEM])
    export_sessions(paths["view_sessions"], dataset.view_sessions, dataset.vocab[ITEM])
    export_substitutions(paths["substitutions"], dataset.substitutions, dataset.vocab[ITEM])
    export_searches(paths["search"], dataset.searches, dataset.vocab[ITEM], dataset.vocab[WORD])
    export_category_edges(paths["category_edges"], dataset.category_edges, dataset.vocab[CATEGORY])
    return paths
