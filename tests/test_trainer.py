"""Multi-task losses, the task sampler, the training loop and the
task-correlation diagnostic."""

import numpy as np
import pytest

from helpers import params_equal
from prodkg.attention import sequence_loss_grad
from prodkg.embeddings import EmbeddingTable, NumericalError
from prodkg.model import ModelConfig, init_params
from prodkg.trainer import (
    TrainConfig,
    sample_task,
    substitution_loss,
    task_correlation,
    train,
    validation_metric,
)


def tiny_params(dim=4, n_items=12, n_words=8, n_cats=6, seed=3, seq_len=5):
    config = ModelConfig(dim=dim, seed=seed,
                         seq_lens={t: seq_len for t in ("complement", "co_view",
                                                        "search", "describe")})
    return init_params(config, n_items, n_words, n_cats)


def tiny_tasks(rng, n_items=12, n_words=8, n_each=30, seq_len=5):
    def item():
        return int(rng.integers(1, n_items))

    def word():
        return int(rng.integers(1, n_words))

    subs = []
    while len(subs) < n_each:
        a, b = item(), item()
        if a != b:
            subs.append((a, b))
    seqs = lambda tok: [(tuple(tok() for _ in range(int(rng.integers(2, seq_len)))), tok())
                        for _ in range(n_each)]
    return {
        "substitute": subs,
        "complement": seqs(item),
        "co_view": seqs(item),
        "search": [(tuple(word() for _ in range(3)), item()) for _ in range(n_each)],
        "isa": [(item(), (int(rng.integers(1, 6)),)) for _ in range(n_each)],
    }


class TestSubstitutionLoss:
    def test_zero_tables_value(self):
        tables = {"item_in": EmbeddingTable("item_in", np.zeros((6, 3)))}
        loss, _ = substitution_loss((1, 2), tables, np.array([3, 4, 5]), np.array([3, 4, 5]))
        assert loss == pytest.approx(2 * 4 * np.log(2), abs=1e-12)

    def test_identical_items_rejected(self):
        tables = {"item_in": EmbeddingTable("item_in", np.zeros((6, 3)))}
        with pytest.raises(ValueError, match="identical"):
            substitution_loss((2, 2), tables, np.array([3]), np.array([3]))

    def test_swap_with_mirrored_negatives_same_loss(self):
        rng = np.random.default_rng(1)
        tables = {"item_in": EmbeddingTable("item_in", rng.normal(size=(8, 4)))}
        negs_a, negs_b = np.array([3, 5]), np.array([6, 7])
        forward, _ = substitution_loss((1, 2), tables, negs_a, negs_b)
        backward, _ = substitution_loss((2, 1), tables, negs_b, negs_a)
        assert forward == pytest.approx(backward, abs=1e-12)

    def test_block_is_the_sum_of_its_pairs(self):
        """A (B, 2) block's loss is its pairs' sum, and its rows are theirs in
        pair order: forward scored rows, a, backward scored rows, b."""
        rng = np.random.default_rng(2)
        tables = {"item_in": EmbeddingTable("item_in", rng.normal(size=(9, 4)))}
        pairs = [(1, 2), (2, 5), (7, 1)]
        negs_f, negs_b = np.array([[3, 4], [6, 6], [5, 8]]), np.array([[5, 6], [8, 1], [2, 3]])
        loss, grads = substitution_loss(pairs, tables, negs_f, negs_b)
        singles = [substitution_loss(pair, tables, f, b)
                   for pair, f, b in zip(pairs, negs_f, negs_b)]
        assert loss == pytest.approx(sum(single for single, _ in singles), abs=1e-12)
        np.testing.assert_array_equal(
            grads.rows["item_in"],
            [2, 3, 4, 1, 1, 5, 6, 2, 5, 6, 6, 2, 2, 8, 1, 5, 1, 5, 8, 7, 7, 2, 3, 1])
        np.testing.assert_array_equal(
            grads.row_grads["item_in"],
            np.concatenate([single.row_grads["item_in"] for _, single in singles]))
        with pytest.raises(ValueError, match="identical"):
            substitution_loss([(1, 2), (3, 3)], tables, negs_f[:2], negs_b[:2])


def relation_loss(example, task, params, negatives):
    context, target = example
    return sequence_loss_grad(np.array(context), target, negatives,
                              params.tables, params.attn[task], task)


class TestRelationLoss:
    def test_complement_scores_against_buy_output_table(self):
        """Gradients of the complement loss land on the co-buy output table."""
        params = tiny_params()
        loss, grads = relation_loss(((1, 2), 3), "complement", params, np.array([4, 5]))
        assert "item_out_buy" in grads.rows
        assert "item_out_view" not in grads.rows
        assert 3 in grads.rows["item_out_buy"]

    def test_describe_scores_against_item_input_table(self):
        params = tiny_params()
        loss, grads = relation_loss(((1, 2), 3), "describe", params, np.array([4, 5]))
        assert 3 in grads.rows["item_in"]
        assert "word" in grads.rows

    def test_zero_parameters_log2(self):
        params = tiny_params()
        for table in params.tables.values():
            table.values[:] = 0.0
        for block in params.attn.values():
            block.positions[:] = 0.0
            block.theta1[:] = 0.0
            block.theta2[:] = 0.0
        loss, _ = relation_loss(((1, 2), 3), "co_view", params, np.array([4, 5, 6]))
        assert loss == pytest.approx(4 * np.log(2), abs=1e-12)


class TestSampleTask:
    def test_single_task_always_selected(self):
        tasks = {"substitute": [(1, 2)]}
        rng = np.random.default_rng(0)
        assert all(sample_task(tasks, rng) == "substitute" for _ in range(20))

    def test_proportional_frequencies(self):
        tasks = {"substitute": [(1, 2)] * 3, "isa": [(1, (2,))] * 1}
        rng = np.random.default_rng(5)
        draws = [sample_task(tasks, rng) for _ in range(100_000)]
        freq = np.mean([d == "substitute" for d in draws])
        assert abs(freq - 0.75) < 0.01

    def test_uniform_schedule(self):
        tasks = {"substitute": [(1, 2)] * 9, "isa": [(1, (2,))] * 1}
        rng = np.random.default_rng(6)
        draws = [sample_task(tasks, rng, schedule="uniform") for _ in range(50_000)]
        freq = np.mean([d == "substitute" for d in draws])
        assert abs(freq - 0.5) < 0.01

    def test_seeded_reproducibility(self):
        tasks = {"substitute": [(1, 2)] * 2, "isa": [(1, (2,))] * 3}
        a = [sample_task(tasks, np.random.default_rng(9)) for _ in range(1)]
        b = [sample_task(tasks, np.random.default_rng(9)) for _ in range(1)]
        assert a == b

    def test_chi_square_within_bound(self):
        """Empirical counts match n_i / sum(n) proportions at the 0.999 level."""
        sizes = {"substitute": 5, "complement": 3, "search": 2}
        tasks = {name: [(1, 2)] * size for name, size in sizes.items()}
        rng = np.random.default_rng(11)
        n_draws = 100_000
        counts = {name: 0 for name in sizes}
        for _ in range(n_draws):
            counts[sample_task(tasks, rng)] += 1
        total_size = sum(sizes.values())
        chi2 = sum((counts[name] - n_draws * size / total_size) ** 2
                   / (n_draws * size / total_size) for name, size in sizes.items())
        assert chi2 < 13.816  # 0.999 quantile, 2 degrees of freedom


class TestTrainLoop:
    def test_zero_epochs_returns_initial_params(self):
        rng = np.random.default_rng(2)
        params = tiny_params()
        tasks = tiny_tasks(rng)
        config = TrainConfig(max_epochs=0, seed=1)
        result = train(config, tasks, params.copy(), validation={})
        assert result.log == []
        assert params_equal(result.params, params)

    def test_bitwise_determinism(self):
        rng = np.random.default_rng(4)
        tasks = tiny_tasks(rng)
        outputs = []
        for _ in range(2):
            config = TrainConfig(max_epochs=2, seed=13, validation_cap=10)
            result = train(config, tasks, tiny_params(seed=5),
                           validation={"substitute": [(1, 2), (3, 4)]})
            outputs.append(result)
        assert params_equal(outputs[0].params, outputs[1].params)
        assert outputs[0].log == outputs[1].log

    def test_single_task_isolation(self):
        """Training only the substitute task leaves every other table bitwise intact."""
        rng = np.random.default_rng(7)
        tasks = tiny_tasks(rng)
        params = tiny_params(seed=8)
        before = params.copy()
        config = TrainConfig(max_epochs=2, seed=3, schedule="substitute")
        result = train(config, tasks, params, validation=None)
        trained = result.params
        assert not np.array_equal(trained.tables["item_in"].values,
                                  before.tables["item_in"].values)
        for name in ("item_out_buy", "item_out_view", "word", "category"):
            np.testing.assert_array_equal(trained.tables[name].values,
                                          before.tables[name].values)
        for task, block in trained.attn.items():
            np.testing.assert_array_equal(block.positions, before.attn[task].positions)

    def test_single_task_without_examples_rejected(self):
        tasks = tiny_tasks(np.random.default_rng(7))
        del tasks["substitute"]
        config = TrainConfig(max_epochs=1, schedule="substitute")
        with pytest.raises(ValueError, match="'substitute' has no training examples"):
            train(config, tasks, tiny_params())

    def test_schedule_naming_no_task_rejected(self):
        # a single-task run's schedule is its task's name
        for schedule in ("single_task", "nope"):
            with pytest.raises(ValueError, match=f"unknown schedule '{schedule}'"):
                TrainConfig(schedule=schedule)

    def test_validation_leaves_training_alone(self):
        """Validating every epoch draws nothing: a run's logged epoch-2
        metrics are the metrics of a run without validation after 2 epochs,
        and both runs leave the same trained tables (``train`` steps the
        params it is given in place)."""
        rng = np.random.default_rng(4)
        tasks = tiny_tasks(rng)
        validation = {"substitute": [(1, 2), (3, 4), (5, 6)],
                      "complement": [((1, 2), 3), ((4,), 5)],
                      "search": [((1, 2, 3), 4)],
                      "isa": [(1, 2), (1, 4), (7, 3), (9, 5)]}
        config = TrainConfig(max_epochs=2, patience=5, seed=13, validation_cap=10)
        stepped = tiny_params(seed=5)
        validated = train(config, tasks, stepped, validation)
        plain = train(config, tasks, tiny_params(seed=5), validation=None)
        logged = {task: value for epoch, _t, task, _m, value in validated.log if epoch == 2}
        assert logged.keys() == validation.keys()
        assert logged == {task: validation_metric(task, examples, plain.params, 10)
                          for task, examples in validation.items()}
        assert params_equal(stepped, plain.params)

    def test_loss_decreases_on_frozen_example_after_its_update(self):
        """Line-search sanity at lr = 1e-4 on one substitution example."""
        rng = np.random.default_rng(10)
        tables = {"item_in": EmbeddingTable("item_in", rng.normal(size=(8, 4)))}
        negs = np.array([3, 5]), np.array([6, 7])
        from prodkg.embeddings import sgd_update
        before, grads = substitution_loss((1, 2), tables, *negs)
        sgd_update(tables, grads, lr=1e-4)
        after, _ = substitution_loss((1, 2), tables, *negs)
        assert after < before

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_aborts_with_diagnostic(self):
        rng = np.random.default_rng(12)
        tasks = tiny_tasks(rng)
        params = tiny_params(seed=2)
        params.tables["item_in"].values[1:] = 1e200
        config = TrainConfig(max_epochs=1, seed=0)
        with pytest.raises(NumericalError, match="diverged|non-finite"):
            train(config, tasks, params, validation=None)

    def test_pad_row_never_touched(self):
        rng = np.random.default_rng(14)
        tasks = tiny_tasks(rng)
        params = tiny_params(seed=9)
        pads = {name: table.values[0].copy() for name, table in params.tables.items()}
        result = train(TrainConfig(max_epochs=2, seed=4), tasks, params, validation=None)
        for name, row in pads.items():
            np.testing.assert_array_equal(result.params.tables[name].values[0], row)


class TestTaskCorrelation:
    @staticmethod
    def log_from(series, trained):
        """series: task -> list of metric values per epoch; trained: per epoch."""
        log = []
        for epoch, trained_task in enumerate(trained, start=1):
            for task, values in series.items():
                log.append((epoch, trained_task, task, "hit@10", values[epoch - 1]))
        return log

    def test_identical_delta_sequences_give_one(self):
        series = {"a": [0.0, 1.0, 3.0, 6.0, 10.0], "b": [0.0, 1.0, 3.0, 6.0, 10.0]}
        rho = task_correlation(self.log_from(series, ["a"] * 5))
        assert rho[("a", "b")] == pytest.approx(1.0)

    def test_negated_sequence_gives_minus_one(self):
        series = {"a": [0.0, 1.0, 3.0, 6.0, 10.0], "b": [0.0, -1.0, -3.0, -6.0, -10.0]}
        rho = task_correlation(self.log_from(series, ["a"] * 5))
        assert rho[("a", "b")] == pytest.approx(-1.0)

    def test_hand_computed_pearson(self):
        """Deltas (1,2,3) vs (1,2,4) correlate at 9/sqrt(84)."""
        series = {"a": [0.0, 1.0, 3.0, 6.0], "b": [0.0, 1.0, 3.0, 7.0]}
        rho = task_correlation(self.log_from(series, ["a"] * 4))
        assert rho[("a", "b")] == pytest.approx(9 / np.sqrt(84), abs=1e-6)
        assert rho[("a", "b")] == pytest.approx(0.9820, abs=1e-4)

    def test_too_few_samples_absent(self):
        series = {"a": [0.0, 1.0, 2.0], "b": [0.0, 2.0, 1.0]}
        rho = task_correlation(self.log_from(series, ["a", "a", "b"]))
        assert rho[("a", "b")] is None  # only 2 epochs attributed to a
        assert rho[("b", "a")] is None  # only 1 to b

    def test_zero_variance_absent(self):
        series = {"a": [0.0, 1.0, 2.0, 3.0, 4.0], "b": [0.5] * 5}
        rho = task_correlation(self.log_from(series, ["a"] * 5))
        assert rho[("a", "b")] is None

    def test_mixed_epochs_ignored(self):
        series = {"a": [0.0, 1.0, 3.0, 6.0, 10.0], "b": [0.0, 1.0, 3.0, 6.0, 10.0]}
        rho = task_correlation(self.log_from(series, ["mixed"] * 5))
        assert rho[("a", "b")] is None


class TestBestEpochSelection:
    """The best epoch is chosen by the mean hit@10 of the validated tasks,
    isa's included."""

    def test_selection_metric_is_the_plain_mean(self):
        from prodkg.trainer import selection_metric
        assert selection_metric({"substitute": 0.5, "complement": 0.3, "isa": 0.1}) == \
            pytest.approx(0.3, abs=1e-15)
        assert selection_metric({"isa": 0.25}) == 0.25

    @staticmethod
    def scripted(script):
        """validation_metric stand-in returning script[task] one epoch at a time."""
        calls = {}

        def fake(task, examples, params, cap):
            calls[task] = calls.get(task, 0) + 1
            return script[task][calls[task] - 1]
        return fake

    def test_isa_hit_rate_enters_the_selection_mean(self, monkeypatch):
        import prodkg.trainer as trainer_module
        # substitute alone would pick epoch 1; with isa the mean peaks at epoch 2
        monkeypatch.setattr(trainer_module, "validation_metric", self.scripted(
            {"substitute": [0.5, 0.4, 0.2], "isa": [0.1, 0.3, 0.35]}))
        rng = np.random.default_rng(3)
        tasks = {task: examples for task, examples in tiny_tasks(rng).items()
                 if task in ("substitute", "isa")}
        config = TrainConfig(max_epochs=3, patience=1, seed=2)
        result = train(config, tasks, tiny_params(), validation={})
        assert result.best_epoch == 2
        # isa's improvements alone keep the run going to the last epoch
        assert result.epochs_run == 3
        assert [(e, task, metric, value) for e, _t, task, metric, value in result.log
                if task == "isa"] \
            == [(1, "isa", "hit@10", 0.1), (2, "isa", "hit@10", 0.3), (3, "isa", "hit@10", 0.35)]

    def test_isa_ranks_each_label_among_all_categories(self):
        """An isa pair's label ranks among all 14 categories by
        item_in . category, ties towards the smaller id."""
        params = tiny_params(n_cats=15)
        params.tables["category"].values[1:] = 0.0
        params.tables["category"].values[1:, 0] = np.arange(1, 15) / 20   # scores rise with id
        params.tables["category"].values[13, 0] = 14 / 20                 # 13 ties 14, ahead of it
        params.tables["item_in"].values[1] = [1.0, 0.0, 0.0, 0.0]
        # ranks: 13 -> 1, 14 -> 2, 5 -> 10, 4 -> 11
        pairs = [(1, 13), (1, 14), (1, 5), (1, 4)]
        assert validation_metric("isa", pairs, params, 10) == 0.75
        assert validation_metric("isa", pairs[3:] + pairs, params, 2) == 0.5

    def test_task_without_validation_examples_is_not_validated(self):
        """describe has training examples but no validation ones: it gets no
        log row, no place in the selection mean and none in patience."""
        assert validation_metric("describe", [], tiny_params(), 10) is None
        rng = np.random.default_rng(6)
        tasks = {**tiny_tasks(rng), "describe": [
            (tuple(int(w) for w in rng.integers(1, 8, size=3)), int(rng.integers(1, 12)))
            for _ in range(30)]}
        validation = {"substitute": [(1, 2), (3, 4), (5, 6)],
                      "search": [((1, 2, 3), 4), ((5, 6), 7)], "describe": []}
        config = TrainConfig(max_epochs=4, patience=2, seed=2, validation_cap=10)
        result = train(config, tasks, tiny_params(), validation)
        by_epoch = {}
        for epoch, _trained, task, metric, value in result.log:
            assert metric == "hit@10"
            by_epoch.setdefault(epoch, {})[task] = value
        assert all(set(tasks) == {"substitute", "search"} for tasks in by_epoch.values())
        means = {epoch: np.mean(list(tasks.values())) for epoch, tasks in by_epoch.items()}
        assert result.best_epoch == max(means, key=lambda epoch: (means[epoch], -epoch))

    def test_no_validated_task_runs_every_epoch(self):
        rng = np.random.default_rng(7)
        params = tiny_params()
        config = TrainConfig(max_epochs=2, patience=1, seed=2)
        result = train(config, tiny_tasks(rng), params.copy(), validation={"describe": []})
        assert result.log == []
        assert (result.best_epoch, result.epochs_run) == (2, 2)
        assert not params_equal(result.params, params)

    def test_isa_alone_still_selects(self, monkeypatch):
        import prodkg.trainer as trainer_module
        monkeypatch.setattr(trainer_module, "validation_metric",
                            self.scripted({"isa": [0.1, 0.4, 0.2]}))
        rng = np.random.default_rng(3)
        tasks = {"isa": tiny_tasks(rng)["isa"]}
        result = train(TrainConfig(max_epochs=3, seed=2), tasks, tiny_params(),
                       validation={})
        assert result.best_epoch == 2
