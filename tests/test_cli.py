"""Command-line contract: subcommands, config keys, exit codes, manifests."""

import filecmp
import json
import os
import shutil

import numpy as np
import pytest
from helpers import ORPHAN_ITEM_CASES, write_raw
from ingest_oracle import oracle_dataset

from prodkg import cli
from prodkg import pipeline as pl
from prodkg.baselines import VARIANTS, KgConfig, KgModel, KgSpace
from prodkg.cli import COMMON_KEYS, HANDLERS, KEYS, _run_dir_state, main
from prodkg.data import MODALITY_FILES, NAMESPACES, modality_paths
from prodkg.evaluation import PKG_SCORING, ROW_LABELS, pkg_candidate_scores
from prodkg.model import ModelConfig, init_params, load_checkpoint, save_checkpoint
from prodkg.trainer import TrainResult


def run_dir(tmp_path, seed=7):
    """Generate a tiny dataset and ingest it; returns the run directory."""
    data = str(tmp_path / "data")
    run = str(tmp_path / "run")
    assert main(["gen-data", "--seed", str(seed), "--out", data, "--items", "120",
                 "--clusters", "20", "--sessions", "500", "--searches", "150",
                 "--substitutions", "120", "--words", "100"]) == 0
    assert main(["ingest", "--data", data, "--out", run]) == 0
    return data, run


# 11 category epochs: one past the 10-epoch burn-in, so train prints no warning
TINY_TRAIN = ["--dim", "4", "--epochs", "1", "--l-buy", "4", "--l-view", "4",
              "--l-search", "3", "--l-describe", "4", "--cat-epochs", "11",
              "--validation-cap", "10"]


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory):
    """An ingested run with build-prg and a tiny train at seed 7; copy before changing it."""
    _, run = run_dir(tmp_path_factory.mktemp("trained"))
    assert main(["build-prg", "--run", run, "--out", os.path.join(run, "prg"),
                 "--seed", "7"]) == 0
    assert main(["train", "--run", run, "--out", os.path.join(run, "model"),
                 "--seed", "7", *TINY_TRAIN]) == 0
    return run


def copy_run(run, tmp_path):
    copy = str(tmp_path / "run")
    shutil.copytree(run, copy)
    return copy


def evaluate(run, seed=7):
    return main(["evaluate", "--run", run, "--out", os.path.join(run, "eval"),
                 "--query-cap", "20", "--seed", str(seed)])


@pytest.fixture(scope="module")
def raw_data(tmp_path_factory):
    """A tiny gen-data directory at seed 3; copy before changing it."""
    data = str(tmp_path_factory.mktemp("raw") / "data")
    assert main(["gen-data", "--seed", "3", "--out", data, "--items", "120",
                 "--clusters", "20", "--sessions", "500", "--searches", "150",
                 "--substitutions", "120", "--words", "100"]) == 0
    return data


class TestGenData:
    def test_same_seed_identical_directories(self, tmp_path):
        for sub in ("a", "b"):
            assert main(["gen-data", "--seed", "7", "--out", str(tmp_path / sub),
                         "--items", "60", "--clusters", "10", "--sessions", "200",
                         "--searches", "50", "--substitutions", "40"]) == 0
        comparison = filecmp.dircmp(str(tmp_path / "a"), str(tmp_path / "b"))
        assert not comparison.diff_files
        assert not comparison.left_only and not comparison.right_only

    def test_unfiltered_ingest_writes_the_raw_files_back(self, raw_data, tmp_path):
        """gen-data and ingest write each modality through one writer, and
        ingest reads what it writes: without filtering, every file comes back
        byte for byte."""
        run = str(tmp_path / "run")
        assert main(["ingest", "--data", raw_data, "--out", run, "--item-min", "0",
                     "--word-min", "0"]) == 0
        for file in MODALITY_FILES.values():
            assert filecmp.cmp(os.path.join(raw_data, file), os.path.join(run, "filtered", file),
                               shallow=False), file


class TestErrors:
    def test_unknown_subcommand_exit_1(self, capsys):
        assert main(["frobnicate"]) == 1
        # the checkpoint's embeddings_*.tsv files are the export
        assert main(["export", "--run", "run", "--out", "run/export"]) == 1
        assert "unknown subcommand 'export'" in capsys.readouterr().err

    def test_pretrain_categories_is_no_subcommand(self, capsys):
        # train pre-trains the category table itself
        assert main(["pretrain-categories", "--run", "run"]) == 1
        assert "unknown subcommand 'pretrain-categories'" in capsys.readouterr().err

    def test_single_task_without_training_examples_exit_2(self, tmp_path, capsys):
        data, run = str(tmp_path / "data"), str(tmp_path / "run")
        assert main(["gen-data", "--seed", "7", "--out", data, "--items", "120",
                     "--clusters", "20", "--sessions", "500", "--searches", "150",
                     "--substitutions", "0", "--words", "100"]) == 0
        assert main(["ingest", "--data", data, "--out", run]) == 0
        assert main(["build-prg", "--run", run, "--out", os.path.join(run, "prg"),
                     "--seed", "7"]) == 0
        capsys.readouterr()
        out = tmp_path / "model"
        # 3 category epochs would warn, so the check comes before pre-training
        assert main(["train", "--run", run, "--out", str(out), *TINY_TRAIN,
                     "--cat-epochs", "3", "--schedule", "substitute"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: task 'substitute' has no training examples")
        assert "warning" not in err
        assert not out.exists()

    def test_unknown_key_exit_1_lists_valid_keys(self, capsys):
        assert main(["train", "--bogus", "1"]) == 1
        err = capsys.readouterr().err
        assert "valid keys" in err and "lr" in err

    def test_evaluate_without_model_exit_2(self, tmp_path, capsys):
        assert main(["evaluate", "--run", str(tmp_path / "empty")]) == 2
        assert "model" in capsys.readouterr().err

    def test_ingest_rejects_modality_too_small_to_split(self, tmp_path, capsys):
        data, run = str(tmp_path / "data"), str(tmp_path / "run")
        assert main(["gen-data", "--seed", "3", "--out", data, "--items", "60",
                     "--clusters", "10", "--sessions", "200", "--searches", "50",
                     "--substitutions", "8"]) == 0
        capsys.readouterr()
        assert main(["ingest", "--data", data, "--out", run]) == 2
        err = capsys.readouterr().err
        assert "substitutions" in err
        assert os.path.join(run, "filtered", "substitutions.tsv") in err
        assert not os.path.exists(os.path.join(run, "filtered"))

    @pytest.mark.parametrize("file, line, message", [
        ("category_edges.tsv", "c1_0000\tc1_0002",
         "category_edges.tsv:321: category 'c1_0000' has two parents, 'c0_0000' and 'c1_0002'"),
        ("category_edges.tsv", "c1_0000\tc1_0000",
         "category_edges.tsv:321: self-edge on category 'c1_0000'"),
        ("category_edges.tsv", "c0_0000\tc1_0000",
         "category_edges.tsv:1: cycle through categories 'c1_0000' -> 'c0_0000' -> 'c1_0000'"),
        ("catalog.tsv", "i00005\tw0001\tc3_0005/c2_0002/c1_0001/c0_0000",
         "catalog.tsv:121: item 'i00005' listed again (first at line 6)"),
    ], ids=["two-parents", "self-edge", "cycle", "repeated-item"])
    def test_ingest_rejects_malformed_catalog_exit_2(self, raw_data, tmp_path, capsys,
                                                      file, line, message):
        data, run = str(tmp_path / "data"), str(tmp_path / "run")
        shutil.copytree(raw_data, data)
        with open(os.path.join(data, file), "a", encoding="utf-8") as handle:
            handle.write(line + "\n")
        capsys.readouterr()
        assert main(["ingest", "--data", data, "--out", run]) == 2
        assert message in capsys.readouterr().err
        assert not os.path.exists(run)

    def test_ingest_non_utf8_byte_exit_2_at_its_line(self, raw_data, tmp_path, capsys):
        data, run = str(tmp_path / "data"), str(tmp_path / "run")
        shutil.copytree(raw_data, data)
        with open(os.path.join(data, "view_sessions.tsv"), "rb") as handle:
            n_lines = handle.read().count(b"\n")
        with open(os.path.join(data, "view_sessions.tsv"), "ab") as handle:
            handle.write(b"99\ti00001 i\xe900002\n")
        capsys.readouterr()
        assert main(["ingest", "--data", data, "--out", run]) == 2
        assert (f"view_sessions.tsv:{n_lines + 1}: byte 0xe9 is not UTF-8"
                in capsys.readouterr().err)
        assert not os.path.exists(run)

    def test_help_exits_zero_and_lists_defaults(self, capsys):
        assert main(["train", "--help"]) == 0
        out = capsys.readouterr().out
        assert "--lr" in out and "default" in out
        assert main(["--help"]) == 0

    def test_help_prints_each_range(self, capsys):
        assert main(["build-prg", "--help"]) == 0
        lines = {line.split()[0]: line for line in capsys.readouterr().out.splitlines()
                 if line.startswith("  --")}
        assert lines["--k"].endswith("(default: 20, >= 1)")
        assert lines["--walk_length"].endswith("(default: 10, >= 1)")
        assert lines["--p"].endswith("(default: 1.0, > 0)")
        assert lines["--seed"].endswith("(default: 7, >= 0)")
        assert lines["--run"].endswith("(default: )")
        assert main(["gen-data", "--help"]) == 0
        # SynthConfig checks the noise rate
        assert "token noise rate in [0,1) (default: 0.1)\n" in capsys.readouterr().out

    def test_bad_flag_value_exit_1(self):
        assert main(["gen-data", "--items", "many"]) == 1

    @pytest.mark.parametrize("subcommand, flag, value", [
        ("build-prg", "k", "0"), ("build-prg", "p", "0"), ("build-prg", "q", "-1"),
        ("train", "batch", "0"), ("train", "negatives", "0"),
        ("train-baseline", "dim", "0"), ("train-baseline", "lr", "-1"),
        ("train-baseline", "negatives", "0"), ("train-baseline", "epochs", "-1"),
        ("train", "patience", "0"), ("train", "dim", "0"), ("train", "l_buy", "0"),
        ("train", "lr", "-1"), ("train", "epochs", "0"), ("evaluate", "k", "0"),
        ("evaluate", "query_cap", "-1"), ("rank", "k", "-3"), ("rank", "k", "0"),
        ("build-prg", "walks", "0"), ("build-prg", "walk_length", "0"),
        ("grad-check", "eps", "0")])
    def test_out_of_range_value_exit_1_before_loading(self, subcommand, flag, value,
                                                      tmp_path, capsys):
        # the run directory does not exist: a stage that started would exit 2
        out = tmp_path / "out"
        run = ["--run", str(tmp_path / "missing")] if "run" in KEYS[subcommand] else []
        assert main([subcommand, *run, "--out", str(out),
                     f"--{flag.replace('_', '-')}", value]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and f"{flag} must be" in err
        assert not out.exists()

    @pytest.mark.parametrize("subcommand", list(KEYS))
    def test_negative_seed_exit_1_before_loading(self, subcommand, tmp_path, capsys):
        out = tmp_path / "out"
        run = ["--run", str(tmp_path / "missing")] if "run" in KEYS[subcommand] else []
        assert main([subcommand, *run, "--out", str(out), "--seed", "-1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: seed must be >= 0, got -1")
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (["rank", "--relation", "nope", "--head", "i00001"],
         "valid relations: substitute, complement, co_view"),
        (["train", "--schedule", "nope"], "unknown schedule 'nope'"),
        # --schedule names the task a single-task run trains
        (["train", "--single-task", "search"], "unknown key 'single_task'")])
    def test_bad_name_exit_1_before_loading(self, argv, message, tmp_path, capsys):
        out = tmp_path / "out"
        assert main([*argv, "--run", str(tmp_path / "missing"), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and message in err
        assert not out.exists()

    @pytest.mark.parametrize("config", ["missing", "directory", "non-utf8"])
    def test_unreadable_config_file_exit_1_names_it(self, config, tmp_path, capsys):
        path = tmp_path / "evaluate.cfg"
        if config == "directory":
            path.mkdir()
        elif config == "non-utf8":
            path.write_bytes(b"k=10\nquery_cap=\xff\n")
        assert main(["evaluate", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and str(path) in err
        assert "Traceback" not in err
        if config == "non-utf8":
            assert f"{path}:2: byte 0xff is not UTF-8" in err

    def test_bad_gen_data_config_exit_1_before_writing(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["gen-data", "--noise", "1", "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("usage error: noise rate must lie in")
        assert not out.exists()

    @pytest.mark.parametrize("flag, value, message", [
        ("margin", "0", "margin must be positive"), ("norm", "l3", "norm must be"),
        ("variant", "foo", "unknown variant 'foo'")])
    def test_bad_baseline_config_exit_1_before_loading(self, flag, value, message,
                                                       tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["train-baseline", "--run", str(tmp_path / "missing"), "--out", str(out),
                     f"--{flag}", value]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and message in err
        assert not out.exists()


class TestManifest:
    def test_manifest_contents(self, tmp_path):
        out = str(tmp_path / "d")
        assert main(["gen-data", "--seed", "11", "--out", out, "--items", "60",
                     "--clusters", "10", "--sessions", "200", "--searches", "50",
                     "--substitutions", "40"]) == 0
        manifest = json.loads((tmp_path / "d" / "manifest.json").read_text())
        assert manifest["command"] == "gen-data"
        assert manifest["seed"] == 11
        assert manifest["config"]["items"] == 60
        assert len(manifest["config_hash"]) == 64
        assert "numpy" in manifest["versions"]

    def test_config_file_with_flag_override(self, tmp_path):
        config = tmp_path / "gen.cfg"
        config.write_text("items=60\nclusters=10\nsessions=200\n"
                          "searches=50\nsubstitutions=40\n# a comment\nseed=5\n")
        out = str(tmp_path / "out")
        assert main(["gen-data", "--config", str(config), "--seed", "9",
                     "--out", out]) == 0
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["seed"] == 9          # flag wins
        assert manifest["config"]["items"] == 60


class TestStagesReadUpstream:
    def test_stages_without_prg_exit_2(self, trained_run, tmp_path, capsys):
        run = copy_run(trained_run, tmp_path)
        shutil.rmtree(os.path.join(run, "prg"))
        capsys.readouterr()
        for argv in (["train", *TINY_TRAIN], ["train-baseline", "--dim", "4", "--epochs", "1"],
                     ["evaluate", "--query-cap", "20"]):
            assert main([*argv, "--run", run, "--out", str(tmp_path / "out")]) == 2
            assert "run 'prodkg build-prg" in capsys.readouterr().err

    def test_malformed_prg_line_names_file_and_line(self, trained_run, tmp_path, capsys):
        run = copy_run(trained_run, tmp_path)
        triples = os.path.join(run, "prg", "prg_triples.tsv")
        with open(triples, encoding="utf-8") as handle:
            n_lines = sum(1 for _ in handle)
        for bad in ("i00001\tcomplement\n", "i00001\tcomplement\tnot-an-item\n"):
            shutil.copy(os.path.join(trained_run, "prg", "prg_triples.tsv"), triples)
            with open(triples, "a", encoding="utf-8") as handle:
                handle.write(bad)
            capsys.readouterr()
            assert main(["train-baseline", "--run", run, "--out", str(tmp_path / "kg"),
                         "--dim", "4", "--epochs", "1"]) == 2
            err = capsys.readouterr().err
            assert f"prg_triples.tsv:{n_lines + 1}:" in err
        assert f"prg_triples.tsv:{n_lines + 1}: unknown item key 'not-an-item'" in err

    @pytest.mark.parametrize("file, argv", [
        ("prg/prg_triples.tsv", ["train-baseline", "--dim", "4", "--epochs", "1"]),
        ("model/masked_items.tsv", ["evaluate", "--query-cap", "20"]),
        ("filtered/search.tsv", ["build-prg"]),
        ("vocab_word.tsv", ["build-prg"]),
    ], ids=["prg-triples", "masked-items", "filtered", "vocab"])
    def test_non_utf8_byte_exit_2_at_its_line(self, trained_run, tmp_path, capsys, file, argv):
        run = copy_run(trained_run, tmp_path)
        path = os.path.join(run, file)
        with open(path, "rb") as handle:
            lines = handle.read().splitlines(keepends=True)
        lines[-1] = lines[-1][:1] + b"\xfe" + lines[-1][1:]
        with open(path, "wb") as handle:
            handle.write(b"".join(lines))
        capsys.readouterr()
        assert main([*argv, "--run", run, "--out", str(tmp_path / "out")]) == 2
        assert (f"{os.path.basename(file)}:{len(lines)}: byte 0xfe is not UTF-8"
                in capsys.readouterr().err)

    # a hand-edited field: a seed that is no non-negative int (a JSON true is
    # a bool, and null would seed the held-out split from OS entropy), or a
    # config hash that is no string
    BAD_FIELDS = {"seed-string": {"seed": "7"}, "seed-negative": {"seed": -1},
                  "seed-float": {"seed": 1.5}, "seed-null": {"seed": None},
                  "seed-true": {"seed": True}, "hash-number": {"config_hash": 5}}

    @pytest.mark.parametrize("damage", ["truncated", "no-seed", "missing", *BAD_FIELDS])
    @pytest.mark.parametrize("manifest, argv", [
        ("prg", ["train-baseline", "--dim", "4", "--epochs", "1"]),
        ("model", ["evaluate", "--query-cap", "20"]),
    ], ids=["prg", "model"])
    def test_damaged_manifest_exit_2_names_it(self, trained_run, tmp_path, capsys,
                                              manifest, argv, damage):
        run = copy_run(trained_run, tmp_path)
        path = os.path.join(run, manifest, "manifest.json")
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
        os.remove(path)
        fields = json.loads(text)
        if damage == "no-seed":
            del fields["seed"]
        fields.update(self.BAD_FIELDS.get(damage, {}))
        if damage != "missing":
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text[:len(text) // 2] if damage == "truncated" else
                             json.dumps(fields))
        capsys.readouterr()
        assert main([*argv, "--run", run, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert os.path.join(manifest, "manifest.json") in err and "Traceback" not in err
        assert not os.path.exists(tmp_path / "out")

    def test_evaluate_seed_does_not_change_the_report(self, trained_run, tmp_path):
        run = copy_run(trained_run, tmp_path)
        reports = []
        for seed in (7, 8):
            assert evaluate(run, seed) == 0
            with open(os.path.join(run, "eval", "report.tsv"), "rb") as handle:
                reports.append(handle.read())
        assert reports[0] == reports[1]

    def test_loaded_splits_cover_the_biased_graph_facts(self, trained_run, tmp_path):
        run = copy_run(trained_run, tmp_path)
        prg = os.path.join(run, "prg")
        assert main(["build-prg", "--run", run, "--out", prg, "--k", "5",
                     "--p", "0.25", "--q", "4", "--seed", "3"]) == 0
        with open(os.path.join(prg, "prg_triples.tsv"), encoding="utf-8") as handle:
            facts = [tuple(line.rstrip("\n").split("\t")) for line in handle]
        state = pl.load_and_split(modality_paths(os.path.join(run, "filtered")))
        pl.load_graph_splits(state, prg)
        assert list(state.graph_splits) == list(pl.GRAPH_RELATIONS)
        key = state.dataset.vocab["item"].key
        loaded = [(key(h), relation, key(t))
                  for relation, split in state.graph_splits.items()
                  for h, t in split.train + split.validation + split.test]
        assert len(loaded) == len(facts) and set(loaded) == set(facts)

    def test_evaluate_after_build_prg_rerun_exit_2(self, trained_run, tmp_path, capsys):
        run = copy_run(trained_run, tmp_path)
        assert main(["build-prg", "--run", run, "--out", os.path.join(run, "prg"),
                     "--k", "5", "--seed", "7"]) == 0
        capsys.readouterr()
        assert evaluate(run) == 2
        assert "re-run 'prodkg train'" in capsys.readouterr().err

    def test_train_baseline_records_the_build_prg_hash(self, trained_run, tmp_path):
        run = copy_run(trained_run, tmp_path)
        out = tmp_path / "kg"
        assert main(["train-baseline", "--run", run, "--out", str(out), "--dim", "4",
                     "--epochs", "1", "--seed", "7"]) == 0
        with open(os.path.join(run, "prg", "manifest.json"), encoding="utf-8") as handle:
            prg_hash = json.load(handle)["config_hash"]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["prg_config_hash"] == prg_hash

    def test_loaded_state_is_ingest_filtering_the_raw_files(self, tmp_path):
        # stages load filtered/ at 0/0; that is exact only because ingest wrote it filtered
        data, run = run_dir(tmp_path)
        state = _run_dir_state(run)
        frozen = oracle_dataset(modality_paths(data), item_min=10, word_min=3)
        for name in ("buy_sessions", "view_sessions", "substitutions", "searches", "catalog",
                     "category_edges"):
            assert getattr(frozen, name), name
            assert getattr(state.dataset, name) == getattr(frozen, name), name
        assert state.dataset.vocab == frozen.vocab
        for namespace in NAMESPACES:
            with open(os.path.join(run, f"vocab_{namespace}.tsv"), encoding="utf-8") as handle:
                written = [line.rstrip("\n").split("\t") for line in handle]
            vocab = state.dataset.vocab[namespace]
            assert written == [[str(idx), vocab.key(idx)] for idx in vocab.real_ids()]

    def test_repeated_filtered_catalog_item_exit_2(self, trained_run, tmp_path, capsys):
        run = copy_run(trained_run, tmp_path)
        catalog = os.path.join(run, "filtered", "catalog.tsv")
        with open(catalog, encoding="utf-8") as handle:
            lines = handle.readlines()
        with open(catalog, "a", encoding="utf-8") as handle:
            handle.write(lines[0])
        capsys.readouterr()
        assert main(["build-prg", "--run", run, "--out", str(tmp_path / "prg")]) == 2
        item = lines[0].split("\t")[0]
        assert (f"catalog.tsv:{len(lines) + 1}: item {item!r} listed again (first at line 1)"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("damage", ["catalog-cut", "line-changed", "line-added",
                                        "line-dropped", "missing"])
    def test_vocab_that_disagrees_with_filtered_exit_2(self, trained_run, tmp_path, capsys,
                                                       damage):
        run = copy_run(trained_run, tmp_path)
        path = os.path.join(run, "vocab_word.tsv")
        with open(path, encoding="utf-8") as handle:
            lines = handle.readlines()
        where = {"line-changed": "vocab_word.tsv:2: ingest wrote '2\\tchanged'",
                 "line-added": f"vocab_word.tsv:{len(lines) + 1}: ingest wrote '0\\textra'",
                 "line-dropped": f"vocab_word.tsv:{len(lines)}: ingest wrote the end of",
                 "missing": f"missing {path!r}"}
        if damage == "catalog-cut":
            # filtered/ alone would reload a smaller vocabulary and rank with it
            catalog = os.path.join(run, "filtered", "catalog.tsv")
            with open(catalog, encoding="utf-8") as handle:
                kept = handle.readlines()[:3]
            with open(catalog, "w", encoding="utf-8") as handle:
                handle.writelines(kept)
        elif damage == "missing":
            os.remove(path)
        else:
            if damage == "line-changed":
                lines[1] = "2\tchanged\n"
            elif damage == "line-added":
                lines.append("0\textra\n")
            else:
                lines.pop()
            with open(path, "w", encoding="utf-8") as handle:
                handle.writelines(lines)
        capsys.readouterr()
        assert evaluate(run) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "Traceback" not in err
        if damage == "catalog-cut":
            assert "vocab_word.tsv:" in err and "re-run 'prodkg ingest'" in err
        else:
            assert where[damage] in err
        assert not os.path.exists(os.path.join(run, "eval"))

    @pytest.mark.parametrize("item_min", [30, 35])
    def test_ingest_dropping_items_feeds_build_prg(self, tmp_path, item_min):
        """Words held only by the searches and catalog entries of dropped
        items leave the word vocabulary with them, so it is what filtered/
        reloads to."""
        data, run = str(tmp_path / "data"), str(tmp_path / "run")
        assert main(["gen-data", "--seed", "7", "--out", data, "--items", "150",
                     "--clusters", "25", "--words", "120", "--sessions", "800",
                     "--searches", "250", "--substitutions", "200"]) == 0
        assert main(["ingest", "--data", data, "--out", run, "--item-min", str(item_min)]) == 0
        assert main(["build-prg", "--run", run, "--out", os.path.join(run, "prg"),
                     "--walks", "2", "--walk-length", "3"]) == 0

    @pytest.mark.parametrize("case", ORPHAN_ITEM_CASES)
    def test_item_that_loses_every_record_leaves_the_vocabulary(self, tmp_path, case):
        """An item that reaches --item-min but whose every record is dropped
        (a search that loses its only word, sessions that shrink below two
        items) is not listed, so build-prg reads what ingest wrote."""
        texts, item_min, word_min = ORPHAN_ITEM_CASES[case]
        data, run = str(tmp_path / "data"), str(tmp_path / "run")
        write_raw(data, texts)
        assert main(["ingest", "--data", data, "--out", run, "--item-min", str(item_min),
                     "--word-min", str(word_min)]) == 0
        assert main(["build-prg", "--run", run, "--out", os.path.join(run, "prg")]) == 0
        with open(os.path.join(run, "vocab_item.tsv"), encoding="utf-8") as handle:
            assert handle.read() == "1\ta\n2\tb\n"

    def test_ingest_writes_the_vocabularies_filtered_reloads_to(self, tmp_path, capsys):
        """A seeded sweep of tiny raw datasets at random thresholds: ingest
        either exits 2 on a modality too small to split, or writes each
        vocab_*.tsv as every later stage reloads it from filtered/."""
        rng = np.random.default_rng(0)
        items, words = [f"i{n}" for n in range(10)], [f"w{n}" for n in range(20)]

        def picks(pool, low, high):
            # a key's weight falls as 1 / rank^2, so most keys are rare
            weights = 1.0 / np.arange(1, len(pool) + 1) ** 2
            return " ".join(rng.choice(pool, size=rng.integers(low, high + 1), replace=False,
                                       p=weights / weights.sum()))

        def lines(make):
            # no records, or enough that the split can survive some filtering
            n = 0 if rng.random() < 0.6 else int(rng.integers(10, 20))
            return "".join(f"{ts}\t{make()}\n" for ts in range(n))

        outcomes = {"too small": 0, "written": 0}
        for case in range(200):
            texts = {
                "catalog": "".join(f"{item}\t{picks(words, 0, 2)}\tc\n"
                                   for item in picks(items, 0, 4).split()),
                "category_edges": "c\troot\n",
                "buy_sessions": lines(lambda: picks(items, 2, 2)),
                "view_sessions": lines(lambda: picks(items, 2, 2)),
                "substitutions": lines(lambda: picks(items, 2, 2).replace(" ", "\t")),
                "search": lines(lambda: f"{picks(words, 1, 1)}\t{picks(items, 1, 1)}"),
            }
            data, run = str(tmp_path / f"data{case}"), str(tmp_path / f"run{case}")
            write_raw(data, texts)
            code = main(["ingest", "--data", data, "--out", run,
                         "--item-min", str(rng.integers(1, 5)),
                         "--word-min", str(rng.integers(1, 5))])
            err = capsys.readouterr().err
            if code == 2 and "cannot form nonempty train, validation and test parts" in err:
                outcomes["too small"] += 1
                continue
            assert code == 0, (case, err)
            vocab = pl.load_and_split(modality_paths(os.path.join(run, "filtered"))).dataset.vocab
            for namespace in NAMESPACES:
                with open(os.path.join(run, f"vocab_{namespace}.tsv"), encoding="utf-8") as handle:
                    assert handle.read().splitlines() == cli._vocab_lines(vocab[namespace]), \
                        (case, namespace)
            outcomes["written"] += 1
        assert outcomes["too small"] and outcomes["written"], outcomes

    def test_evaluate_checkpoint_of_another_ingest_exit_2(self, trained_run, tmp_path, capsys):
        """A re-ingest that drops items, then build-prg at the same config
        (same hash): the checkpoint's rows are keyed by the old vocabulary."""
        run = copy_run(trained_run, tmp_path)
        data = os.path.join(os.path.dirname(trained_run), "data")
        assert main(["ingest", "--data", data, "--out", run, "--item-min", "20"]) == 0
        assert main(["build-prg", "--run", run, "--out", os.path.join(run, "prg"),
                     "--seed", "7"]) == 0

        def keys(path, skip):
            with open(path, encoding="utf-8") as handle:
                return [line.split("\t")[skip].rstrip("\n") for line in handle]

        kept = keys(os.path.join(run, "vocab_item.tsv"), 1)
        # masked items that survive: without the key check evaluate would report
        masked = os.path.join(run, "model", "masked_items.tsv")
        with open(masked, "w", encoding="utf-8") as handle:
            handle.writelines(f"{key}\n" for key in kept[:3])
        trained = keys(os.path.join(run, "model", "embeddings_item_in.tsv"), 0)[2:]
        first = next(i for i, (a, b) in enumerate(zip(trained, kept)) if a != b)
        capsys.readouterr()
        assert evaluate(run) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert (f"embeddings_item_in.tsv:{first + 3}: train wrote {trained[first]!r}, but "
                f"filtered/ gives {kept[first]!r}; re-run 'prodkg train'") in err
        assert not os.path.exists(os.path.join(run, "eval"))

    def test_schedule_naming_a_task_trains_it_alone(self, trained_run, tmp_path):
        out = str(tmp_path / "model")
        assert main(["train", "--run", trained_run, "--out", out, "--seed", "7", *TINY_TRAIN,
                     "--epochs", "2", "--schedule", "complement"]) == 0
        with open(os.path.join(out, "metrics_log.tsv"), encoding="utf-8") as handle:
            rows = [line.split("\t") for line in handle.read().splitlines()[1:]]
        assert rows and {row[1] for row in rows} == {"complement"}
        assert {int(row[0]) for row in rows} == {1, 2}
        # complement steps item_in, item_out_buy and its own attention block only
        vocab = _run_dir_state(trained_run).dataset.vocab
        initial = init_params(ModelConfig(dim=4, seed=7, seq_lens={
            "complement": 4, "co_view": 4, "search": 3, "describe": 4}),
            *(vocab[namespace].size for namespace in NAMESPACES))
        save_checkpoint(str(tmp_path / "initial"), initial, vocab)
        for name, stepped in (("item_in", True), ("item_out_buy", True),
                              ("item_out_view", False), ("word", False)):
            file = f"embeddings_{name}.tsv"
            same = filecmp.cmp(os.path.join(out, file), str(tmp_path / "initial" / file),
                               shallow=False)
            assert same != stepped, name
        trained, _keys = load_checkpoint(out)
        for task, block in trained.attn.items():
            assert np.array_equal(block.theta1, initial.attn[task].theta1) \
                != (task == "complement"), task

    def test_weighted_run_correlation_table_is_all_absent(self, trained_run):
        # weighted epochs are tagged mixed, so no cell is attributed to one task
        with open(os.path.join(trained_run, "model", "metrics_log.tsv"),
                  encoding="utf-8") as handle:
            tasks = sorted({line.split("\t")[2] for line in list(handle)[1:]})
        with open(os.path.join(trained_run, "model", "task_correlation.tsv"),
                  encoding="utf-8") as handle:
            rows = handle.read().splitlines()
        assert rows == ["trained_task\ttask\tpearson"] + [
            f"{a}\t{b}\tabsent" for a in tasks for b in tasks if a != b]

    def test_rank_unknown_head_exit_2(self, trained_run, capsys):
        assert main(["rank", "--run", trained_run, "--head", "no-such-item"]) == 2
        assert "unknown item key 'no-such-item'" in capsys.readouterr().err


def _listing(scores, item_keys, k=10):
    """rank's output for one head's (N,) scores over items 1..N."""
    items = np.arange(1, scores.size + 1)
    top = np.lexsort((items, -scores))[:k]
    return ["rank\titem\tscore"] + [f"{position}\t{item_keys[int(item)]}\t{score:.9g}"
                                     for position, (item, score)
                                     in enumerate(zip(items[top], scores[top]), 1)]


class TestRankHeads:
    """rank reads a relation's head from PKG_SCORING: one key of an entity
    relation is that entity's row, and several keys, or any keys of a
    relation without an entity head, are the context its attention block
    reads."""

    @staticmethod
    def rank(run, relation, head, capsys):
        capsys.readouterr()
        assert main(["rank", "--run", run, "--relation", relation, "--head", head]) == 0
        return capsys.readouterr().out.splitlines()

    @pytest.mark.parametrize("relation, head", [
        ("substitute", "i00001"), ("complement", "i00001"), ("co_view", "i00002"),
        ("isa", "c2_0003"), ("search", "w0030"), ("describe", "w0031"),
        ("recommend", "i00004")])
    def test_one_key(self, trained_run, capsys, relation, head):
        params, keys = load_checkpoint(os.path.join(trained_run, "model"))
        head_table = PKG_SCORING[relation][0]
        if head_table is None:
            query = [keys["word" if relation in ("search", "describe") else "item_in"]
                     .index(head)]
        else:
            query = keys[head_table].index(head)
        scores = pkg_candidate_scores(params, relation, [query])[0]
        assert self.rank(trained_run, relation, head, capsys) == _listing(scores,
                                                                           keys["item_in"])

    @pytest.mark.parametrize("relation", ["complement", "co_view"])
    def test_several_keys_are_a_session_context(self, trained_run, capsys, relation):
        params, keys = load_checkpoint(os.path.join(trained_run, "model"))
        session = [keys["item_in"].index(key) for key in ("i00001", "i00002")]
        scores = pkg_candidate_scores(params, relation, [session])[0]
        listing = self.rank(trained_run, relation, "i00001 i00002", capsys)
        assert listing == _listing(scores, keys["item_in"])
        assert listing != self.rank(trained_run, relation, "i00001", capsys)

    @pytest.mark.parametrize("relation", ["substitute", "isa"])
    def test_several_keys_of_an_entity_relation_exit_1(self, trained_run, capsys, relation):
        capsys.readouterr()
        assert main(["rank", "--run", trained_run, "--relation", relation,
                     "--head", "i00001 i00002"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"usage error: relation {relation!r} takes one --head "
                                       "key, got 2")
        assert captured.out == ""


def _edit_line(path, number, edit):
    with open(path, encoding="utf-8") as handle:
        lines = handle.read().split("\n")
    lines[number - 1] = edit(lines[number - 1])
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines))


def _truncate_half(path):
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text[:len(text) // 2])


def _drop_last_row(path):
    with open(path, encoding="utf-8") as handle:
        lines = handle.read().splitlines(keepends=True)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("".join(lines[:-1]))


def _reshape_one_array(path):
    import numpy as np
    with np.load(path) as blob:
        arrays = {name: blob[name] for name in blob.files}
    arrays["search__b1"] = arrays["search__b1"][:-1]
    np.savez(path, **arrays)


def _write_text(path):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("not an archive\n")


CHECKPOINT_DAMAGE = {
    "truncated-json": ("checkpoint.json", _truncate_half, "checkpoint.json: cannot read"),
    "short-row": ("embeddings_item_in.tsv",
                  lambda path: _edit_line(path, 5, lambda line: line.rsplit(" ", 1)[0]),
                  "embeddings_item_in.tsv:5: expected 4 values, got 3"),
    "nan-row": ("embeddings_word.tsv",
                lambda path: _edit_line(path, 6, lambda line: line.rsplit(" ", 1)[0] + " nan"),
                "embeddings_word.tsv:6: a value is not a finite number"),
    "missing-row": ("embeddings_item_out_buy.tsv", _drop_last_row,
                    "embeddings_item_out_buy.tsv: "),
    "missing-npz": ("attention_params.npz", os.remove,
                    "attention_params.npz: cannot read the attention archive"),
    "not-npz": ("attention_params.npz", _write_text,
                "attention_params.npz: cannot read the attention archive"),
    "npz-shape": ("attention_params.npz", _reshape_one_array,
                  "attention_params.npz: no finite float array search__b1 of shape (4,)"),
}


class TestCheckedCheckpoint:
    """rank and evaluate read the checkpoint through one checked reader: a
    damaged file is exit 2 with its name (and line), never a traceback or a
    report."""

    @pytest.mark.parametrize("argv", [["rank", "--head", "i00001"],
                                      ["evaluate", "--query-cap", "20"]],
                             ids=["rank", "evaluate"])
    @pytest.mark.parametrize("damage", sorted(CHECKPOINT_DAMAGE))
    def test_damaged_checkpoint_exit_2_names_the_file(self, trained_run, tmp_path, capsys,
                                                      damage, argv):
        run = copy_run(trained_run, tmp_path)
        name, edit, message = CHECKPOINT_DAMAGE[damage]
        edit(os.path.join(run, "model", name))
        capsys.readouterr()
        out = str(tmp_path / "out")
        assert main([argv[0], "--run", run, "--out", out, *argv[1:]]) == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert os.path.join(run, "model", name) in captured.err
        assert captured.out == ""
        assert not os.path.exists(out)


class TestCategoryPretraining:
    def test_loss_log_has_one_row_per_epoch(self, trained_run):
        with open(os.path.join(trained_run, "model", "category_pretrain_loss.tsv"),
                  encoding="utf-8") as handle:
            rows = handle.read().splitlines()
        state = pl.load_and_split(modality_paths(os.path.join(trained_run, "filtered")))
        vocab = state.dataset.vocab
        params = init_params(ModelConfig(dim=4, seed=7), vocab["item"].size,
                             vocab["word"].size, vocab["category"].size)
        losses = pl.pretrain_categories(state, params, epochs=11, seed=7)
        assert len(losses) == 11
        assert rows == ["epoch\tloss"] + [f"{epoch}\t{loss:.9g}"
                                          for epoch, loss in enumerate(losses, 1)]


class TestBurnInWarning:
    def test_pretraining_inside_burn_in_warns_once(self, trained_run, tmp_path, capsys):
        run = copy_run(trained_run, tmp_path)
        capsys.readouterr()
        # the later --cat-epochs flag overrides TINY_TRAIN's 11
        assert main(["train", "--run", run, "--out", str(tmp_path / "short"), "--seed", "7",
                     *TINY_TRAIN, "--cat-epochs", "10"]) == 0
        err = capsys.readouterr().err
        assert err.count("warning:") == 1 and "10-epoch burn-in" in err
        assert main(["train", "--run", run, "--out", str(tmp_path / "long"), "--seed", "7",
                     *TINY_TRAIN]) == 0
        assert "warning" not in capsys.readouterr().err


class TestRunawayWarning:
    @pytest.mark.parametrize("final, warned", [((0.1, 0.19), True), ((0.1, 0.4), False)])
    def test_final_epoch_below_half_the_best_warns(self, trained_run, tmp_path, capsys,
                                                   monkeypatch, final, warned):
        """The history's epoch 1 means 0.5 and is the best; epoch 2 means
        0.145 (below half, a runaway) or 0.25 (half, not one)."""
        real_train = cli.train

        def collapsing(config, tasks, params, validation=None):
            result = real_train(config, tasks, params, validation)
            history = {epoch: dict(zip(("substitute", "complement"), values))
                       for epoch, values in ((1, (0.4, 0.6)), (2, final))}
            return TrainResult(result.params, history, 1, 2)

        monkeypatch.setattr(cli, "train", collapsing)
        run = copy_run(trained_run, tmp_path)
        capsys.readouterr()
        assert main(["train", "--run", run, "--out", str(tmp_path / "model"), "--seed", "7",
                     *TINY_TRAIN]) == 0
        lines = [line for line in capsys.readouterr().err.splitlines() if "fell" in line]
        expected = ["warning: mean validation hit@10 fell from 0.5 at epoch 1 to 0.145 at "
                    "epoch 2; the checkpoint holds epoch 1"]
        assert lines == (expected if warned else [])


@pytest.mark.slow
class TestPipelineCommands:
    def test_full_command_chain(self, tmp_path, capsys):
        data, run = run_dir(tmp_path)
        assert main(["build-prg", "--run", run, "--out", os.path.join(run, "prg"),
                     "--seed", "7"]) == 0
        assert main(["train", "--run", run, "--out", os.path.join(run, "model"),
                     "--dim", "8", "--epochs", "2", "--l-buy", "6", "--l-view", "6",
                     "--l-search", "4", "--l-describe", "8", "--cat-epochs", "3",
                     "--seed", "7", "--validation-cap", "30"]) == 0
        err = capsys.readouterr().err
        assert err.count("warning: category pre-training runs 3 epochs") == 1

        assert main(["rank", "--run", run, "--relation", "substitute",
                     "--head", "i00005", "--k", "10"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out[0] == "rank\titem\tscore"
        assert len(out) == 11

        assert main(["evaluate", "--run", run, "--out", os.path.join(run, "eval"),
                     "--query-cap", "20", "--seed", "7"]) == 0
        capsys.readouterr()
        header, *rows = (tmp_path / "run" / "eval" / "report.tsv").read_text().splitlines()
        assert header == "model\ttask\tmetric\tvalue"
        cells = [tuple(row.split("\t")[:3]) for row in rows]
        # the report is the 16 labelled cells of the proposed model, each once
        assert sorted(cells) == sorted(("proposed", *cell) for cell in ROW_LABELS)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_train_baseline(self, trained_run, tmp_path, variant):
        out = tmp_path / "kg"
        assert main(["train-baseline", "--run", trained_run, "--out", str(out),
                     "--variant", variant, "--dim", "8", "--epochs", "2",
                     "--seed", "7"]) == 0
        vocab = _run_dir_state(trained_run).dataset.vocab
        space = KgSpace(*(vocab[namespace].size for namespace in NAMESPACES))
        expected = KgModel(KgConfig(variant=variant, dim=8), space.n_entities,
                           space.n_relations).params
        with np.load(out / f"kg_{variant}.npz") as saved:
            assert sorted(saved.files) == sorted(expected)
            for name, value in expected.items():
                assert saved[name].shape == value.shape, name
                assert np.isfinite(saved[name]).all(), name


class TestCommandTables:
    """KEYS defines the subcommands, their keys and each key's range."""

    def test_subcommands_keys_and_handlers_agree(self):
        assert set(KEYS) == set(HANDLERS)

    def test_every_numeric_key_has_a_range(self):
        unbounded = {(subcommand, key)
                     for subcommand, spec in [("common", COMMON_KEYS), *KEYS.items()]
                     for key, (_default, parser, _help) in spec.items()
                     if parser in (int, float)}
        # checked by SynthConfig and KgConfig instead
        assert unbounded == {("gen-data", "noise"), ("train-baseline", "margin")}


class TestHelpEverywhere:
    def test_every_subcommand_help_exits_zero(self, capsys):
        for subcommand in KEYS:
            assert main([subcommand, "--help"]) == 0
            out = capsys.readouterr().out
            assert "--seed" in out and "default" in out
