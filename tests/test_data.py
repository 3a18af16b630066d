"""Ingestion, vocabularies, frequency filtering and chronological splits."""

import re

import pytest
from helpers import ORPHAN_ITEM_CASES, write_raw
from ingest_oracle import oracle_dataset

from prodkg import data as dm
from prodkg.synth import SynthConfig, generate


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


@pytest.fixture
def tiny_paths(tmp_path):
    return {
        "catalog": write(tmp_path, "catalog.tsv",
                         "apple\tfresh red fruit\tsub1/cat1\n"
                         "banana\tyellow fruit\tsub1/cat1\n"),
        "buy_sessions": write(tmp_path, "buy.tsv", "5\tapple banana\n1\tbanana apple apple\n"),
        "view_sessions": write(tmp_path, "view.tsv", "2\tapple banana\n"),
        "substitutions": write(tmp_path, "subs.tsv", "3\tapple\tbanana\n"),
        "search": write(tmp_path, "search.tsv", "4\tred fruit\tapple\n"),
        "category_edges": write(tmp_path, "edges.tsv", "sub1\tcat1\n"),
    }


class TestIngest:
    def test_basic_parse(self, tiny_paths):
        ds = dm.ingest_dataset(tiny_paths)
        assert len(ds.buy_sessions) == 2
        assert len(ds.buy_sessions[1].items) == 3
        assert len(ds.view_sessions) == 1
        assert len(ds.substitutions) == 1
        assert ds.searches[0].query_words != ()
        assert len(ds.catalog) == 2
        assert ds.category_edges == [(ds.vocab["category"].id("sub1"),
                                      ds.vocab["category"].id("cat1"))]

    def test_empty_sessions_file_is_fine(self, tmp_path):
        paths = {"buy_sessions": write(tmp_path, "buy.tsv", "")}
        ds = dm.ingest_dataset(paths)
        assert ds.buy_sessions == []

    def test_self_substitution_rejected(self, tmp_path):
        paths = {"substitutions": write(tmp_path, "subs.tsv", "1\ti7\ti7\n")}
        with pytest.raises(dm.DataError, match="self-substitution"):
            dm.ingest_dataset(paths)

    def test_malformed_line_names_file_and_line(self, tmp_path):
        paths = {"buy_sessions": write(tmp_path, "buy.tsv", "1\ta b\nnot_a_line_with_tab\n")}
        with pytest.raises(dm.DataError, match=r"buy\.tsv:2"):
            dm.ingest_dataset(paths)

    def test_bad_timestamp_reported(self, tmp_path):
        paths = {"buy_sessions": write(tmp_path, "buy.tsv", "soon\ta b\n")}
        with pytest.raises(dm.DataError, match="timestamp"):
            dm.ingest_dataset(paths)

    def test_unknown_category_label(self, tmp_path):
        paths = {
            "catalog": write(tmp_path, "catalog.tsv", "a\tword\tmystery/cat1\n"),
            "category_edges": write(tmp_path, "edges.tsv", "sub1\tcat1\n"),
        }
        with pytest.raises(dm.DataError, match="mystery"):
            dm.ingest_dataset(paths)

    def test_missing_file_is_data_error(self, tmp_path):
        with pytest.raises(dm.DataError, match="missing input"):
            dm.ingest_dataset({"catalog": str(tmp_path / "nope.tsv")})

    def test_single_item_session_rejected(self, tmp_path):
        paths = {"buy_sessions": write(tmp_path, "buy.tsv", "1\tonly\n")}
        with pytest.raises(dm.DataError, match="two items"):
            dm.ingest_dataset(paths)

    def test_crlf_and_blank_lines(self, tmp_path):
        path = tmp_path / "buy.tsv"
        path.write_bytes(b"1\ta b\r\n\r\n\n2\tb c\r\n3\tc\r\n")
        with pytest.raises(dm.DataError, match=r"buy\.tsv:5: session needs at least two"):
            dm.ingest_dataset({"buy_sessions": str(path)})
        assert list(dm._read_lines(str(path))) == [(1, "1\ta b"), (4, "2\tb c"), (5, "3\tc")]

    def test_non_utf8_byte_past_the_first_chunk_names_its_line(self, tmp_path):
        # 1,000 CRLF lines of 12 bytes: the bad byte lies past text mode's first 8 KB read
        lines = b"".join(b"%04d\ta b c\r\n" % i for i in range(1000))
        path = tmp_path / "buy.tsv"
        path.write_bytes(lines + b"\n5\ta \xff\n6\tb c\n")
        with pytest.raises(dm.DataError, match=r"buy\.tsv:1002: byte 0xff is not UTF-8"):
            dm.ingest_dataset({"buy_sessions": str(path)})

    def test_round_trip(self, tiny_paths, tmp_path):
        ds = dm.ingest_dataset(tiny_paths)
        out = tmp_path / "export"
        exported = dm.export_dataset(ds, str(out))
        again = dm.ingest_dataset(exported)
        assert [s.items for s in again.buy_sessions] == [s.items for s in ds.buy_sessions]
        assert [s.timestamp for s in again.buy_sessions] == [s.timestamp for s in ds.buy_sessions]
        assert again.substitutions == ds.substitutions
        assert again.searches == ds.searches
        assert again.catalog == ds.catalog
        assert again.category_edges == ds.category_edges


class TestVocabulary:
    def test_lexicographic_ids(self):
        vocab = dm.Vocabulary.from_keys("item", {"b", "a"})
        assert vocab.id("a") == 1
        assert vocab.id("b") == 2
        assert vocab.key(0) == dm.PAD_KEY

    def test_empty_namespace_has_only_pad(self):
        vocab = dm.Vocabulary.from_keys("word", [])
        assert vocab.size == 1

    def test_rebuild_is_identical(self):
        first = dm.Vocabulary.from_keys("item", ["x", "m", "a"])
        second = dm.Vocabulary.from_keys("item", ["a", "x", "m"])
        assert first.id_to_key == second.id_to_key

    def test_unknown_key_raises(self):
        vocab = dm.Vocabulary.from_keys("item", ["a"])
        with pytest.raises(dm.DataError, match="unknown item"):
            vocab.id("zzz")


def _counted_paths(tmp_path, times_a: int):
    """Item 'a' appears ``times_a`` times in buys; 'b' and 'c' appear plenty."""
    lines = [f"{i}\ta b c\n" for i in range(times_a)]
    lines += [f"{100 + i}\tb c\n" for i in range(30)]
    return {"buy_sessions": write(tmp_path, "buy.tsv", "".join(lines))}


class TestFiltering:
    def test_item_below_threshold_removed(self, tmp_path):
        filtered = dm.ingest_dataset(_counted_paths(tmp_path, times_a=9), item_min=10, word_min=3)
        assert "a" not in filtered.vocab["item"].key_to_id
        assert "b" in filtered.vocab["item"].key_to_id

    def test_item_at_threshold_kept(self, tmp_path):
        filtered = dm.ingest_dataset(_counted_paths(tmp_path, times_a=10), item_min=10, word_min=3)
        assert "a" in filtered.vocab["item"].key_to_id

    def test_word_at_threshold_kept(self, tmp_path):
        paths = {
            "catalog": write(tmp_path, "catalog.tsv",
                             "a\trare rare rare common common common\tsub1\n"),
            "category_edges": write(tmp_path, "edges.tsv", "sub1\tcat1\n"),
            "buy_sessions": write(tmp_path, "buy.tsv",
                                  "".join(f"{i}\ta a\n" for i in range(10))),
        }
        # sessions of repeated single item count each occurrence
        filtered = dm.ingest_dataset(paths, item_min=10, word_min=3)
        assert "rare" in filtered.vocab["word"].key_to_id
        assert "common" in filtered.vocab["word"].key_to_id

    def test_all_above_threshold_is_noop(self, tmp_path):
        paths = _counted_paths(tmp_path, times_a=30)
        ds = dm.ingest_dataset(paths)
        filtered = dm.ingest_dataset(paths, item_min=10, word_min=3)
        assert filtered.vocab["item"].id_to_key == ds.vocab["item"].id_to_key
        assert [s.items for s in filtered.buy_sessions] == [s.items for s in ds.buy_sessions]

    def test_no_surviving_record_contains_removed_entity(self, tmp_path):
        filtered = dm.ingest_dataset(_counted_paths(tmp_path, times_a=5), item_min=10, word_min=3)
        valid = set(filtered.vocab["item"].real_ids())
        for session in filtered.buy_sessions + filtered.view_sessions:
            assert set(session.items) <= valid
            assert len(session.items) >= 2

    def test_shrunken_sessions_dropped(self, tmp_path):
        # 'a' appears alongside the frequent 'b'; removing 'a' leaves length-1 sessions
        lines = "".join(f"{i}\ta b\n" for i in range(5))
        lines += "".join(f"{10 + i}\tb c\n" for i in range(20))
        filtered = dm.ingest_dataset({"buy_sessions": write(tmp_path, "buy.tsv", lines)},
                                     item_min=10, word_min=3)
        assert all(len(s.items) >= 2 for s in filtered.buy_sessions)
        assert len(filtered.buy_sessions) == 20

    def test_raw_lines_are_checked_before_filtering(self, tmp_path):
        # 'only' would be filtered out, but its one-item session is still an error
        lines = "".join(f"{i}\tb c\n" for i in range(20)) + "99\tonly\n"
        paths = {"buy_sessions": write(tmp_path, "buy.tsv", lines)}
        with pytest.raises(dm.DataError, match=r"buy\.tsv:21: session needs at least two items"):
            dm.ingest_dataset(paths, item_min=10, word_min=3)

    @pytest.mark.parametrize("files, where, namespace", [
        ({"buy_sessions": "".join(f"{i}\tb c\n" for i in range(20)) + "99\t<pad> c\n"},
         "buy_sessions.tsv:21", "item"),
        ({"search": "".join(f"{i}\tred fruit\tb\n" for i in range(20)) + "99\t<pad>\tb\n"},
         "search.tsv:21", "word"),
        # catalog items are never counted, so every one falls below item_min
        ({"catalog": "<pad>\tword\tsub1\n", "category_edges": "sub1\tcat1\n"},
         "catalog.tsv:1", "item"),
    ], ids=["session-item", "query-word", "catalog-item"])
    def test_reserved_key_raises_even_when_filtered_out(self, tmp_path, files, where,
                                                        namespace):
        paths = {name: write(tmp_path, f"{name}.tsv", text) for name, text in files.items()}
        message = rf"{re.escape(where)}: reserved key '<pad>' present in {namespace}"
        with pytest.raises(dm.DataError, match=message):
            dm.ingest_dataset(paths, item_min=10, word_min=3)

    def test_reserved_category_label_raises_at_its_edge(self, tmp_path):
        paths = {"category_edges": write(tmp_path, "edges.tsv", "a\tb\nb\t<pad>\n")}
        with pytest.raises(dm.DataError,
                           match=r"edges\.tsv:2: reserved key '<pad>' present in category"):
            dm.ingest_dataset(paths)


class TestCatalogAndEdgeChecks:
    def test_repeated_catalog_item_names_both_lines(self, tmp_path):
        paths = {
            "catalog": write(tmp_path, "catalog.tsv",
                             "a\tred\tsub1\n\nb\tblue\tsub1\na\tgreen\tsub1\n"),
            "category_edges": write(tmp_path, "edges.tsv", "sub1\tcat1\n"),
        }
        with pytest.raises(dm.DataError,
                           match=r"catalog\.tsv:4: item 'a' listed again \(first at line 1\)"):
            dm.ingest_dataset(paths)

    def test_repeated_edge_is_fine(self, tmp_path):
        paths = {"category_edges": write(tmp_path, "edges.tsv", "a\tb\na\tb\n")}
        assert len(dm.ingest_dataset(paths).category_edges) == 2


@pytest.fixture(scope="module")
def synth_paths(tmp_path_factory):
    config = SynthConfig(n_items=200, n_words=80, n_clusters=20, n_sessions=600,
                         n_searches=200, n_substitutions=150, seed=5)
    paths, _truth = generate(config, str(tmp_path_factory.mktemp("synth")))
    return {name: path for name, path in paths.items() if name in dm.MODALITY_FILES}


class TestOnePassParity:
    """The one-pass loader against the frozen two-pass read and filtering rebuild."""

    @pytest.mark.parametrize("source, item_min, word_min", [
        *(pytest.param("synth", item_min, word_min, id=f"{item_min}-{word_min}")
          for item_min, word_min in ((0, 0), (10, 3), (20, 30))),
        *(pytest.param(name, item_min, word_min, id=name)
          for name, (_texts, item_min, word_min) in ORPHAN_ITEM_CASES.items())])
    def test_equals_two_pass_oracle(self, request, tmp_path, source, item_min, word_min):
        paths = (request.getfixturevalue("synth_paths") if source == "synth"
                 else write_raw(str(tmp_path), ORPHAN_ITEM_CASES[source][0]))
        live = dm.ingest_dataset(paths, item_min=item_min, word_min=word_min)
        frozen = oracle_dataset(paths, item_min=item_min, word_min=word_min)
        assert live.vocab == frozen.vocab
        for name in ("buy_sessions", "view_sessions", "substitutions", "searches", "catalog",
                     "category_edges"):
            assert getattr(live, name) == getattr(frozen, name), name

    def test_high_threshold_reaches_every_drop_and_shrink_rule(self, synth_paths):
        raw = dm.ingest_dataset(synth_paths)
        high = dm.ingest_dataset(synth_paths, item_min=20, word_min=30)
        item_key, word_key = raw.vocab["item"].key, raw.vocab["word"].key
        items, words = high.vocab["item"].key_to_id, high.vocab["word"].key_to_id
        sessions = raw.buy_sessions + raw.view_sessions
        kept = [sum(item_key(i) in items for i in s.items) for s in sessions]
        assert any(2 <= n < len(s.items) for n, s in zip(kept, sessions))      # shrunk
        assert any(n < 2 for n in kept)                                          # dropped
        assert any(item_key(r.clicked_item) in items
                   and 0 < sum(word_key(w) in words for w in r.query_words) < len(r.query_words)
                   for r in raw.searches)                                        # lost words
        assert any(item_key(e.item) not in items for e in raw.catalog)           # dropped


class _Stamp:
    def __init__(self, ts, tag=None):
        self.timestamp = ts
        self.tag = tag

    def __repr__(self):
        return f"Stamp({self.timestamp},{self.tag})"


class TestChronologicalSplit:
    def test_ten_records_split_8_1_1(self):
        records = [_Stamp(t) for t in range(10)]
        split = dm.chronological_split(records)
        assert (len(split.train), len(split.validation), len(split.test)) == (8, 1, 1)

    def test_five_records_error_unless_allowed(self):
        records = [_Stamp(t) for t in range(5)]
        with pytest.raises(dm.DataError, match="nonempty"):
            dm.chronological_split(records)

    def test_tie_break_preserves_input_order(self):
        records = [_Stamp(1, "a"), _Stamp(0, "b"), _Stamp(1, "c"), _Stamp(1, "d"),
                   _Stamp(2, "e"), _Stamp(2, "f"), _Stamp(3, "g"), _Stamp(3, "h"),
                   _Stamp(4, "i"), _Stamp(5, "j")]
        split = dm.chronological_split(records)
        tied = [r.tag for r in split.train if r.timestamp == 1]
        assert tied == ["a", "c", "d"]

    def test_boundaries_monotone(self):
        records = [_Stamp(t) for t in (5, 3, 9, 1, 7, 2, 8, 0, 6, 4)]
        split = dm.chronological_split(records)
        ordered = list(split.train) + list(split.validation) + list(split.test)
        stamps = [r.timestamp for r in ordered]
        assert stamps == sorted(stamps)
        assert max(r.timestamp for r in split.train) <= min(r.timestamp for r in split.validation)
        assert max(r.timestamp for r in split.validation) <= min(r.timestamp for r in split.test)
