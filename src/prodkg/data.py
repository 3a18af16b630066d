"""Raw-data ingestion, vocabularies, frequency filtering and chronological splits.

Six line-oriented UTF-8 text modalities are supported (:data:`FIELDS`):

  catalog.tsv         item_key <TAB> description words <TAB> category path leaf->root (/-separated)
  buy_sessions.tsv    timestamp <TAB> space-separated item keys
  view_sessions.tsv   timestamp <TAB> space-separated item keys
  substitutions.tsv   timestamp <TAB> item_key <TAB> item_key
  search.tsv          timestamp <TAB> space-separated query words <TAB> clicked item_key
  category_edges.tsv  child_label <TAB> parent_label

Ingestion reads each file once: every line becomes a checked record over
raw string keys, keys are counted and filtered by frequency, and the
surviving records are resolved to ids against vocabularies of the keys they hold.
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
# train / validation / test shares of every chronological and graph-edge split
SPLIT_FRACTIONS = (0.8, 0.1, 0.1)

# modality -> joiner of each TAB-separated field of its lines, as ingestion reads
# and write_modality writes them: None for a key or timestamp, " " or "/" for a
# key sequence.  The file is <modality>.tsv, in raw data and in a run's filtered/.
FIELDS = {
    "catalog": (None, " ", "/"),
    "buy_sessions": (None, " "),
    "view_sessions": (None, " "),
    "substitutions": (None, None, None),
    "search": (None, " ", None),
    "category_edges": (None, None),
}
MODALITY_FILES = {name: f"{name}.tsv" for name in FIELDS}


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


def ingest_dataset(paths: dict, item_min: int = 0, word_min: int = 0) -> Dataset:
    """Parse, frequency-filter and id-resolve the modality files into a :class:`Dataset`.

    ``paths`` maps the modalities of :data:`FIELDS` to file paths; absent ones
    may be omitted or set to None.  Each file is read once, each line checked,
    with its field count from :data:`FIELDS`, into a record over raw string keys.

    Items count every occurrence in buy/view sessions, substitution pairs
    (both sides) and search clicks; words every occurrence in catalog
    descriptions and search queries.  Items counted fewer than ``item_min``
    times and words fewer than ``word_min`` are dropped everywhere:
    sequences shrink, and one left shorter than two is discarded, as are
    substitutions losing either side, searches losing their click or whole
    query, and catalog entries of dropped items; each vocabulary is the keys
    the surviving records hold.  Categories are never filtered; their
    vocabulary comes from the edge file alone, so a catalog path label
    missing there is an error, as are edges that are not a forest.
    """
    present = {name: path for name, path in paths.items() if path and name in FIELDS}
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

    def records(name, build):
        """``build(line_number, *fields)`` per line of ``name``; errors get file:line."""
        if name not in present:
            return []
        path, out, expected = present[name], [], len(FIELDS[name])
        for number, line in _read_lines(path):
            fields = _fields(path, number, line, expected)
            try:  # at_line's prefix, without a closure per line
                out.append(build(number, *fields))
            except DataError as err:
                raise DataError(f"{path}:{number}: {err}") from None
        return out

    edges = records("category_edges", lambda number, child, parent: (
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

    catalog = records("catalog", catalog_entry)
    buys = records("buy_sessions", session("buy"))
    views = records("view_sessions", session("view"))
    pairs = records("substitutions", lambda _, ts, a, b: SubstitutionPair(
        key(a, ITEM), key(b, ITEM), _timestamp(ts)))
    searches = records("search", lambda _, ts, words, clicked: SearchRecord(
        split(words, WORD), key(clicked, ITEM), _timestamp(ts)))

    item_counts = Counter(chain.from_iterable(s.items for s in buys + views))
    item_counts.update(chain.from_iterable((p.accepted_for, p.substitute) for p in pairs))
    item_counts.update(r.clicked_item for r in searches)
    word_counts = Counter(chain.from_iterable(r.query_words for r in searches))
    word_counts.update(chain.from_iterable(e.description for e in catalog))
    # an uncounted catalog item counts 0
    item_ok = {item for item in chain(item_counts, catalog_lines) if item_counts[item] >= item_min}
    word_ok = {word for word, count in word_counts.items() if count >= word_min}

    # Filter the raw-key records first, then build each vocabulary from the keys
    # the survivors hold: the vocabulary every stage reloads from filtered/.
    item_in, word_in = item_ok.__contains__, word_ok.__contains__
    buys, views = ([(s.timestamp, items) for s in raw
                    if len(items := tuple(filter(item_in, s.items))) >= 2] for raw in (buys, views))
    pairs = [(p.timestamp, p.accepted_for, p.substitute) for p in pairs
             if p.accepted_for in item_ok and p.substitute in item_ok]
    searches = [(r.timestamp, words, r.clicked_item) for r in searches
                if r.clicked_item in item_ok and (words := tuple(filter(word_in, r.query_words)))]
    catalog = [(e.item, tuple(filter(word_in, e.description)), e.category_path)
               for e in catalog if e.item in item_ok]
    vocab = {
        ITEM: Vocabulary.from_keys(ITEM, chain(
            chain.from_iterable(items for _, items in buys + views),
            chain.from_iterable((a, b) for _, a, b in pairs),
            (item for _, _, item in searches), (item for item, _, _ in catalog))),
        WORD: Vocabulary.from_keys(WORD, chain.from_iterable(chain(
            (words for _, words, _ in searches), (words for _, words, _ in catalog)))),
        CATEGORY: Vocabulary.from_keys(CATEGORY, categories),
    }

    item_id = vocab[ITEM].key_to_id.__getitem__
    word_id = vocab[WORD].key_to_id.__getitem__
    category_id = vocab[CATEGORY].key_to_id.__getitem__
    return Dataset(
        vocab=vocab,
        category_edges=[(category_id(child), category_id(parent)) for _, child, parent in edges],
        buy_sessions=[SessionSequence("buy", tuple(map(item_id, items)), ts) for ts, items in buys],
        view_sessions=[SessionSequence("view", tuple(map(item_id, items)), ts)
                       for ts, items in views],
        substitutions=[SubstitutionPair(item_id(a), item_id(b), ts) for ts, a, b in pairs],
        searches=[SearchRecord(tuple(map(word_id, words)), item_id(item), ts)
                  for ts, words, item in searches],
        catalog=[CatalogEntry(item_id(item), tuple(map(word_id, words)),
                              tuple(map(category_id, labels))) for item, words, labels in catalog],
    )


def splittable(n: int) -> bool:
    """Whether a chronological split of n records leaves validation and test nonempty."""
    return int(SPLIT_FRACTIONS[1] * n) > 0 and int(SPLIT_FRACTIONS[2] * n) > 0


def chronological_split(records) -> DatasetSplit:
    """Stable timestamp-ordered split; validation/test take floor(f*n) each at SPLIT_FRACTIONS.

    Ties keep input order.  The remainder goes to train.  A split that would
    leave validation or test empty is an error.
    """
    records = list(records)
    n = len(records)
    if not splittable(n):
        raise DataError(f"cannot form three nonempty parts from {n} records")
    n_val = int(SPLIT_FRACTIONS[1] * n)
    n_test = int(SPLIT_FRACTIONS[2] * n)
    ordered = sorted(records, key=lambda r: r.timestamp)
    n_train = n - n_val - n_test
    return DatasetSplit(
        train=tuple(ordered[:n_train]),
        validation=tuple(ordered[n_train:n_train + n_val]),
        test=tuple(ordered[n_train + n_val:]),
    )


# --- Export (inverse of ingestion, same formats) ---

def write_modality(path, modality: str, rows) -> None:
    """Write ``rows`` as ``modality``'s lines: per field of :data:`FIELDS`, a
    row holds a key sequence where the field has a joiner, else a key or int."""
    # column by column: one map per field instead of a loop over each row's fields
    columns = [map(str if joiner is None else joiner.join, column)
               for joiner, column in zip(FIELDS[modality], zip(*rows))]
    with open(path, "w", encoding="utf-8") as handle:
        handle.writelines(["\t".join(fields) + "\n" for fields in zip(*columns)])


def export_dataset(dataset: Dataset, directory: str) -> dict:
    """Write every modality back to ``directory``; returns the path map."""
    os.makedirs(directory, exist_ok=True)
    paths = modality_paths(directory)
    item, word, category = (dataset.vocab[name].id_to_key for name in NAMESPACES)
    for modality, rows in (
        ("catalog", ((item[e.item], [word[w] for w in e.description],
                      [category[c] for c in e.category_path]) for e in dataset.catalog)),
        ("buy_sessions", ((s.timestamp, [item[i] for i in s.items])
                          for s in dataset.buy_sessions)),
        ("view_sessions", ((s.timestamp, [item[i] for i in s.items])
                           for s in dataset.view_sessions)),
        ("substitutions", ((p.timestamp, item[p.accepted_for], item[p.substitute])
                           for p in dataset.substitutions)),
        ("search", ((r.timestamp, [word[w] for w in r.query_words], item[r.clicked_item])
                    for r in dataset.searches)),
        ("category_edges", ((category[a], category[b]) for a, b in dataset.category_edges)),
    ):
        write_modality(paths[modality], modality, rows)
    return paths
