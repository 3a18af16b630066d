"""Command-line contract: subcommands, config keys, exit codes, manifests."""

import filecmp
import json
import os
import shutil

import pytest
from ingest_oracle import oracle_dataset

from prodkg import pipeline as pl
from prodkg.cli import (
    COMMON_KEYS, COMMON_RANGES, HANDLERS, KEYS, RANGES, SUBCOMMANDS, _run_dir_state, main,
)
from prodkg.data import NAMESPACES, modality_paths
from prodkg.model import ModelConfig, init_params


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


class TestErrors:
    def test_unknown_subcommand_exit_1(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_pretrain_categories_is_no_subcommand(self, capsys):
        # train pre-trains the category table itself
        assert main(["pretrain-categories", "--run", "run"]) == 1
        assert "unknown subcommand 'pretrain-categories'" in capsys.readouterr().err

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
        ("build-prg", "walks", "0"), ("grad-check", "eps", "0")])
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

    @pytest.mark.parametrize("subcommand", SUBCOMMANDS)
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
        (["train", "--schedule", "single_task", "--single-task", "nope"],
         "unknown task 'nope'")])
    def test_bad_name_exit_1_before_loading(self, argv, message, tmp_path, capsys):
        out = tmp_path / "out"
        assert main([*argv, "--run", str(tmp_path / "missing"), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and message in err
        assert not out.exists()

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
            assert f"prg_triples.tsv:{n_lines + 1}:" in capsys.readouterr().err

    @pytest.mark.parametrize("file, argv", [
        ("prg/prg_triples.tsv", ["train-baseline", "--dim", "4", "--epochs", "1"]),
        ("model/masked_items.tsv", ["evaluate", "--query-cap", "20"]),
        ("filtered/search.tsv", ["build-prg"]),
    ], ids=["prg-triples", "masked-items", "filtered"])
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

    @pytest.mark.parametrize("damage", ["truncated", "no-seed", "missing"])
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
        if damage != "missing":
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text[:len(text) // 2] if damage == "truncated" else
                             json.dumps({k: v for k, v in json.loads(text).items()
                                         if k != "seed"}))
        capsys.readouterr()
        assert main([*argv, "--run", run, "--out", str(tmp_path / "out")]) == 2
        assert os.path.join(manifest, "manifest.json") in capsys.readouterr().err
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

    def test_rank_unknown_head_exit_2(self, trained_run, capsys):
        assert main(["rank", "--run", trained_run, "--head", "no-such-item"]) == 2
        assert "unknown item key 'no-such-item'" in capsys.readouterr().err


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
        report = (tmp_path / "run" / "eval" / "report.tsv").read_text()
        assert report.startswith("model\ttask\tmetric\tvalue")

        assert main(["export", "--run", run, "--out", os.path.join(run, "export")]) == 0
        assert (tmp_path / "run" / "export" / "embeddings_word.tsv").exists()

    def test_train_baseline(self, tmp_path, capsys):
        _, run = run_dir(tmp_path)
        assert main(["build-prg", "--run", run, "--out", os.path.join(run, "prg"),
                     "--seed", "7"]) == 0
        assert main(["train-baseline", "--run", run, "--out", os.path.join(run, "kg"),
                     "--variant", "distmult", "--dim", "8", "--epochs", "2",
                     "--seed", "7"]) == 0
        assert (tmp_path / "run" / "kg" / "kg_distmult.npz").exists()


class TestCommandTables:
    """The tables that define the subcommands stay in step with each other."""

    def test_subcommands_keys_and_handlers_agree(self):
        assert len(set(SUBCOMMANDS)) == len(SUBCOMMANDS)
        assert set(SUBCOMMANDS) == set(KEYS) == set(HANDLERS)

    def test_every_range_bounds_a_numeric_key(self):
        for subcommand, ranges in RANGES.items():
            for key in ranges:
                assert KEYS[subcommand][key][1] in (int, float), (subcommand, key)
        for key in COMMON_RANGES:
            assert COMMON_KEYS[key][1] in (int, float), key

    def test_every_numeric_key_has_a_range(self):
        unbounded = {(subcommand, key) for subcommand, spec in KEYS.items()
                     for key, (_default, parser, _help) in spec.items()
                     if parser in (int, float) and key not in RANGES.get(subcommand, {})}
        # checked by SynthConfig and KgConfig instead
        assert unbounded == {("gen-data", "noise"), ("train-baseline", "margin")}


class TestHelpEverywhere:
    def test_every_subcommand_help_exits_zero(self, capsys):
        for subcommand in SUBCOMMANDS:
            assert main([subcommand, "--help"]) == 0
            out = capsys.readouterr().out
            assert "--seed" in out and "default" in out
