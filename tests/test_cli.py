"""Command-line contract: subcommands, config keys, exit codes, manifests."""

import filecmp
import json
import os
import shutil

import pytest

from prodkg import pipeline as pl
from prodkg.cli import main
from prodkg.data import modality_paths


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

    def test_help_exits_zero_and_lists_defaults(self, capsys):
        assert main(["train", "--help"]) == 0
        out = capsys.readouterr().out
        assert "--lr" in out and "default" in out
        assert main(["--help"]) == 0

    def test_bad_flag_value_exit_1(self):
        assert main(["gen-data", "--items", "many"]) == 1

    @pytest.mark.parametrize("subcommand, flag, value", [
        ("build-prg", "k", "0"), ("build-prg", "p", "0"), ("build-prg", "q", "-1"),
        ("train", "batch", "0"), ("train", "negatives", "0")])
    def test_out_of_range_value_exit_1_before_loading(self, subcommand, flag, value,
                                                      tmp_path, capsys):
        # the run directory does not exist: a stage that started would exit 2
        out = tmp_path / "out"
        assert main([subcommand, "--run", str(tmp_path / "missing"), "--out", str(out),
                     f"--{flag}", value]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and f"{flag} must be" in err
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
        state = pl.load_and_split(modality_paths(os.path.join(run, "filtered")),
                                  item_min=0, word_min=0)
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

    def test_rank_unknown_head_exit_2(self, trained_run, capsys):
        assert main(["rank", "--run", trained_run, "--head", "no-such-item"]) == 2
        assert "unknown item key 'no-such-item'" in capsys.readouterr().err


class TestBurnInWarning:
    def test_pretraining_inside_burn_in_warns_once(self, tmp_path, capsys):
        _, run = run_dir(tmp_path)
        capsys.readouterr()
        assert main(["pretrain-categories", "--run", run, "--out", str(tmp_path / "short"),
                     "--dim", "4", "--epochs", "2", "--burn-in", "2", "--seed", "7"]) == 0
        err = capsys.readouterr().err
        assert err.count("warning:") == 1 and "2-epoch burn-in" in err
        assert main(["pretrain-categories", "--run", run, "--out", str(tmp_path / "long"),
                     "--dim", "4", "--epochs", "3", "--burn-in", "2", "--seed", "7"]) == 0
        assert "warning" not in capsys.readouterr().err


@pytest.mark.slow
class TestPipelineCommands:
    def test_full_command_chain(self, tmp_path, capsys):
        data, run = run_dir(tmp_path)
        assert main(["build-prg", "--run", run, "--out", os.path.join(run, "prg"),
                     "--seed", "7"]) == 0
        assert main(["pretrain-categories", "--run", run, "--out",
                     os.path.join(run, "cats"), "--dim", "8", "--epochs", "3",
                     "--seed", "7"]) == 0
        assert main(["train", "--run", run, "--out", os.path.join(run, "model"),
                     "--dim", "8", "--epochs", "2", "--l-buy", "6", "--l-view", "6",
                     "--l-search", "4", "--l-describe", "8", "--cat-epochs", "3",
                     "--seed", "7", "--validation-cap", "30"]) == 0
        err = capsys.readouterr().err
        assert err.count("warning: category pre-training runs 3 epochs") == 2

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


class TestHelpEverywhere:
    def test_every_subcommand_help_exits_zero(self, capsys):
        from prodkg.cli import SUBCOMMANDS
        for subcommand in SUBCOMMANDS:
            assert main([subcommand, "--help"]) == 0
            out = capsys.readouterr().out
            assert "--seed" in out and "default" in out
