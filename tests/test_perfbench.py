"""Smoke test of the benchmark's own code under perfbench/: the checkers'
self-tests, and one tiny train stage traced in-process by its tracer."""

import importlib.util
import os

from prodkg.cli import main

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  os.path.join(PERFBENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_checker_self_tests_pass():
    assert load("checks").self_test() == []


def test_traced_train_reports_the_update_layer(tmp_path):
    tracing = load("tracer")
    data, run = str(tmp_path / "data"), str(tmp_path / "run")
    assert main(["gen-data", "--seed", "7", "--out", data, "--items", "150",
                 "--clusters", "25", "--sessions", "700", "--searches", "200",
                 "--substitutions", "150", "--words", "120"]) == 0
    assert main(["ingest", "--data", data, "--out", run]) == 0
    assert main(["build-prg", "--run", run, "--out", os.path.join(run, "prg"),
                 "--seed", "7"]) == 0

    tracer = tracing.Tracer()
    codes = []
    tracer.install()
    try:
        tracer.run_stage("train", lambda: codes.append(main(
            ["train", "--run", run, "--out", os.path.join(run, "model"), "--seed", "7",
             "--dim", "8", "--epochs", "1"])))
    finally:
        tracer.uninstall()
    assert codes == [0]
    metrics = tracing.layer_metrics(tracer)
    assert metrics["embeddings.sgd_update_calls"][0] > 0
    assert metrics["embeddings.grad_rows"][0] > 0
    assert tracer.absent == ["trainer.sequence_rank_scores"]
