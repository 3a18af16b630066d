"""Smoke test of the benchmark's own code under perfbench/: the checkers'
self-tests, a tiny train and evaluate traced in-process by its tracer, one
epoch of default training on the benchmark's catalog judged by its
planted-truth check, and a short traced run.py per workload."""

import importlib.util
import json
import math
import os
import subprocess
import sys

import pytest

from prodkg.cli import main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  os.path.join(PERFBENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_checker_self_tests_pass():
    assert load("checks").self_test() == []


def test_traced_train_reports_the_update_layer(tmp_path):
    """Trace a tiny build-prg, train and evaluate: every per-layer metric is a
    number that JSON carries, the walk is timed per node walked, and the
    ranking layers record spans in evaluate."""
    tracing = load("tracer")
    data, run = str(tmp_path / "data"), str(tmp_path / "run")
    assert main(["gen-data", "--seed", "7", "--out", data, "--items", "150",
                 "--clusters", "25", "--sessions", "700", "--searches", "200",
                 "--substitutions", "150", "--words", "120"]) == 0
    assert main(["ingest", "--data", data, "--out", run]) == 0

    tracer = tracing.Tracer()
    codes = []
    tracer.install()
    try:
        tracer.run_stage("build-prg", lambda: codes.append(main(
            ["build-prg", "--run", run, "--out", os.path.join(run, "prg"), "--seed", "7"])))
        tracer.run_stage("train", lambda: codes.append(main(
            ["train", "--run", run, "--out", os.path.join(run, "model"), "--seed", "7",
             "--dim", "8", "--epochs", "1"])))
        tracer.run_stage("evaluate", lambda: codes.append(main(
            ["evaluate", "--run", run, "--out", os.path.join(run, "eval"), "--seed", "7"])))
    finally:
        tracer.uninstall()
    assert codes == [0, 0, 0]
    metrics = tracing.layer_metrics(tracer)
    # the walk's hook reads len(graph.adj) from the graph it is given
    assert metrics["prg.graph_builds"][0] == 3
    assert metrics["prg.walk_us_per_node"][0] > 0
    assert metrics["embeddings.sgd_update_calls"][0] > 0
    assert metrics["embeddings.grad_rows"][0] > 0
    assert tracer.absent == ["trainer.sequence_rank_scores"]
    values = {name: value for name, (value, _unit) in metrics.items()}
    assert all(isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)
               for v in values.values()), values
    json.dumps(values, allow_nan=False)

    table = tracer.table()
    evaluate_stage = tracer.stage_names.index("evaluate")
    in_evaluate = {tracer.names[name] for name, stage in zip(table["name"], table["stage"])
                   if stage == evaluate_stage}
    assert {"evaluation.rank_tail", "evaluation.rank_candidates",
            "evaluation.pkg_candidate_scores", "attention.context_for_ranking"} <= in_evaluate
    # the batched step still calls the traced attention and update layers by name
    train_stage = tracer.stage_names.index("train")
    in_train = {tracer.names[name] for name, stage in zip(table["name"], table["stage"])
                if stage == train_stage}
    assert {"attention.sequence_loss_grad", "attention.aggregate_context",
            "attention.aggregate_context_backward", "embeddings.sgd_update"} <= in_train


# pipeline-default's gen-data catalog (perfbench/run.py CATALOG)
BENCHMARK_CATALOG = ["--items", "1000", "--clusters", "100", "--sessions", "4000",
                     "--searches", "1000", "--substitutions", "1000"]


@pytest.mark.slow
def test_one_default_epoch_beats_the_random_bar(tmp_path):
    """On the benchmark's catalog (seed 1), one epoch of ``train`` at the
    default batch puts substitute, complement and co_view planted-truth
    hit@10 above the random-ranking bar of perfbench's check."""
    checks = load("checks")
    data, run = str(tmp_path / "data"), str(tmp_path / "run")
    assert main(["gen-data", "--seed", "1", "--out", data, *BENCHMARK_CATALOG]) == 0
    assert main(["ingest", "--data", data, "--out", run]) == 0
    assert main(["build-prg", "--run", run, "--out", os.path.join(run, "prg"),
                 "--seed", "1"]) == 0
    model = os.path.join(run, "model")
    assert main(["train", "--run", run, "--out", model, "--seed", "1", "--epochs", "1"]) == 0

    vocab = checks.read_vocab(os.path.join(run, "vocab_item.tsv"))
    truth = checks.read_truth(os.path.join(data, "ground_truth.tsv"))
    hits = checks.truth_hits(checks.checkpoint_scorer(checks.load_checkpoint_tables(model)),
                             truth, vocab, len(vocab) + 1)
    assert checks.check_truth_hits(hits) == [], hits


def reject_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.slow
@pytest.mark.parametrize("workload", ["pipeline-default", "prg-baseline"])
def test_run_py_ends_in_a_correct_json_line(tmp_path, workload):
    """One untraced and one traced round of the workload, as the benchmark is
    run; working files land under ``tmp_path``, which links the source tree."""
    os.symlink(os.path.join(ROOT, "src"), tmp_path / "src")
    done = subprocess.run(
        [sys.executable, os.path.join(PERFBENCH, "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.splitlines()[-1], parse_constant=reject_constant)
    assert result["correct"] is True and result["failed"] == 0, result
