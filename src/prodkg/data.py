"""Raw-data ingestion, vocabularies, frequency filtering and chronological splits.

Five line-oriented UTF-8 text modalities are supported:

  catalog.tsv         item_key <TAB> description words <TAB> category path leaf->root (/-separated)
  buy_sessions.tsv    timestamp <TAB> space-separated item keys
  view_sessions.tsv   timestamp <TAB> space-separated item keys
  substitutions.tsv   timestamp <TAB> item_key <TAB> item_key
  search.tsv          timestamp <TAB> space-separated query words <TAB> clicked item_key
  category_edges.tsv  child_label <TAB> parent_label

Ingestion reads each file once: every line becomes a checked record over
raw string keys, keys are counted and filtered by frequency, and the
surviving records are resolved to ids against vocabularies of the kept keys.
Entity ids are dense integers per namespace with id 0 reserved for PAD;
real ids follow the lexicographic order of the raw string keys, so
rebuilding a vocabulary from the same keys is reproducible.
"""
from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain

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
    """(line number, line) of every nonempty line of a UTF-8 text file, whose
    lines end at LF, CRLF or CR (text mode); a non-UTF-8 byte is a DataError."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for number, raw in enumerate(handle, start=1):
                line = raw.rstrip("\n")
                if line:
                    yield number, line
    except UnicodeDecodeError:
        # Text mode decodes in chunks, so the failing read can come lines
        # before the bad byte's line; count the line ends in the raw bytes.
        with open(path, "rb") as handle:
            data = handle.read()
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as err:
            before = data[:err.start]
            number = 1 + before.count(b"\n") + before.count(b"\r") - before.count(b"\r\n")
            raise DataError(f"{path}:{number}: byte 0x{data[err.start]:02x} is not UTF-8 "
                            f"({err.reason})") from None
        raise


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


def check_forest(edges, where=None) -> dict:
    """Validate that child->parent edges form a forest; returns the parent map.

    A self-edge or a second parent is reported at its edge, a cycle at the
    parent edge of a category on it; ``where[i]``, when given, prefixes the
    message for ``edges[i]`` (a ``file:line``).  A repeated edge is fine.
    """
    parent: dict = {}
    first_edge: dict = {}

    def fail(index, message):
        raise DataError(f"{where[index]}: {message}" if where else message)

    for index, (child, par) in enumerate(edges):
        if child == par:
            fail(index, f"self-edge on category {child!r}")
        if parent.setdefault(child, par) != par:
            fail(index, f"category {child!r} has two parents, {parent[child]!r} and {par!r}")
        first_edge.setdefault(child, index)
    for start in parent:
        chain = {start: None}  # insertion-ordered
        node = start
        while node in parent:
            node = parent[node]
            if node in chain:
                loop = [*chain][[*chain].index(node):] + [node]
                fail(first_edge[node],
                     "cycle through categories " + " -> ".join(map(repr, loop)))
            chain[node] = None
    return parent


def _vocabulary(namespace: str, counts: Counter, minimum: int, uncounted=()) -> Vocabulary:
    """The keys counted at least ``minimum`` times; ``uncounted`` keys count 0."""
    keys = set(counts).union(uncounted)
    return Vocabulary.from_keys(namespace, [key for key in keys if counts[key] >= minimum])


def ingest_dataset(paths: dict, item_min: int = 0, word_min: int = 0) -> Dataset:
    """Parse, frequency-filter and id-resolve the modality files into a :class:`Dataset`.

    ``paths`` maps modality names (``catalog``, ``buy_sessions``,
    ``view_sessions``, ``substitutions``, ``search``, ``category_edges``) to
    file paths; absent modalities may be omitted or set to None.  Each file
    is read once, each line checked into a record over raw string keys.

    Items count every occurrence in buy/view sessions, substitution pairs
    (both sides) and search clicks; words every occurrence in catalog
    descriptions and search queries.  Items counted fewer than ``item_min``
    times and words fewer than ``word_min`` are dropped everywhere:
    sequences shrink, and one left shorter than two is discarded, as are
    substitutions losing either side, searches losing their click or whole
    query, and catalog entries of dropped items.  Categories are never
    filtered; their vocabulary comes from the edge file alone, so a catalog
    path label missing there is an error, as are edges that are not a forest.
    """
    present = {name: path for name, path in paths.items() if path and name in MODALITY_FILES}
    for name, path in present.items():
        if not os.path.exists(path):
            raise DataError(f"missing input file for {name}: {path}")

    # One string object per distinct key: the raw records then hold no more
    # objects than id-resolved ones, and every later lookup of a key reuses
    # its cached hash.  The reserved PAD key is an error at its line, even
    # where filtering would drop it.
    keys: dict[str, str] = {}

    def reserved(namespace):
        return DataError(f"reserved key {PAD_KEY!r} present in {namespace} input")

    def key(text, namespace):
        if text == PAD_KEY:
            raise reserved(namespace)
        return keys.setdefault(text, text)

    def split(text, namespace, sep=" "):
        tokens = tuple(filter(None, text.split(sep)))
        if PAD_KEY in text and PAD_KEY in tokens:  # a substring search first: cheaper
            raise reserved(namespace)
        return tuple(map(keys.setdefault, tokens, tokens))

    def records(name, expected, build):
        """``build(line_number, *fields)`` per line of ``name``; errors get file:line."""
        if name not in present:
            return []
        path, out = present[name], []
        for number, line in _read_lines(path):
            fields = _fields(path, number, line, expected)
            try:  # at_line's prefix, without a closure per line
                out.append(build(number, *fields))
            except DataError as err:
                raise DataError(f"{path}:{number}: {err}") from None
        return out

    edges = records("category_edges", 2, lambda number, child, parent: (
        number, key(child, CATEGORY), key(parent, CATEGORY)))
    check_forest([(child, parent) for _, child, parent in edges],
                 [f"{present['category_edges']}:{number}" for number, _, _ in edges])
    categories = {label for _, child, parent in edges for label in (child, parent)}

    catalog_lines: dict[str, int] = {}  # item -> line of its catalog entry

    def catalog_entry(number, item, words, cat_path):
        item = key(item, ITEM)
        if item in catalog_lines:
            raise DataError(f"item {item!r} listed again (first at line {catalog_lines[item]})")
        catalog_lines[item] = number
        labels = split(cat_path, CATEGORY, "/")
        for label in labels:
            if label not in categories:
                raise DataError(f"unknown category label {label!r}")
        return CatalogEntry(item, split(words, WORD), labels)

    def session(kind):
        return lambda _, ts, items: SessionSequence(kind, split(items, ITEM), _timestamp(ts))

    catalog = records("catalog", 3, catalog_entry)
    buys = records("buy_sessions", 2, session("buy"))
    views = records("view_sessions", 2, session("view"))
    pairs = records("substitutions", 3, lambda _, ts, a, b: SubstitutionPair(
        key(a, ITEM), key(b, ITEM), _timestamp(ts)))
    searches = records("search", 3, lambda _, ts, words, clicked: SearchRecord(
        split(words, WORD), key(clicked, ITEM), _timestamp(ts)))

    item_counts = Counter(chain.from_iterable(s.items for s in buys + views))
    item_counts.update(chain.from_iterable((p.accepted_for, p.substitute) for p in pairs))
    item_counts.update(r.clicked_item for r in searches)
    word_counts = Counter(chain.from_iterable(r.query_words for r in searches))
    word_counts.update(chain.from_iterable(e.description for e in catalog))
    vocab = {
        ITEM: _vocabulary(ITEM, item_counts, item_min, catalog_lines),
        WORD: _vocabulary(WORD, word_counts, word_min),
        CATEGORY: Vocabulary.from_keys(CATEGORY, categories),
    }

    item_id = vocab[ITEM].key_to_id.get
    word_id = vocab[WORD].key_to_id.get
    category_id = vocab[CATEGORY].key_to_id

    def kept(keys, id_of):
        # real ids are at least 1, so filter(None, ...) drops just the missing keys
        return tuple(filter(None, map(id_of, keys)))

    dataset = Dataset(vocab=vocab, category_edges=[
        (category_id[child], category_id[parent]) for _, child, parent in edges])
    for raw, target in ((buys, dataset.buy_sessions), (views, dataset.view_sessions)):
        for s in raw:
            items = kept(s.items, item_id)
            if len(items) >= 2:
                target.append(SessionSequence(s.kind, items, s.timestamp))
    for p in pairs:
        a, b = item_id(p.accepted_for), item_id(p.substitute)
        if a is not None and b is not None:
            dataset.substitutions.append(SubstitutionPair(a, b, p.timestamp))
    for r in searches:
        clicked, words = item_id(r.clicked_item), kept(r.query_words, word_id)
        if clicked is not None and words:
            dataset.searches.append(SearchRecord(words, clicked, r.timestamp))
    for e in catalog:
        item = item_id(e.item)
        if item is not None:
            dataset.catalog.append(CatalogEntry(
                item, kept(e.description, word_id),
                tuple(category_id[label] for label in e.category_path)))
    return dataset


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
