"""Multi-task losses, the task sampler, the training loop and the
task-correlation diagnostic."""

import numpy as np
import pytest

from prodkg.attention import sequence_loss_grad
from prodkg.embeddings import EmbeddingTable, NumericalError
from prodkg.model import ModelConfig, init_params
from prodkg.trainer import (
    TaskSpec,
    TrainConfig,
    build_task_specs,
    sample_task,
    substitution_loss,
    task_correlation,
    train,
)


def tiny_params(dim=4, n_items=12, n_words=8, n_cats=6, seed=3, seq_len=5):
    config = ModelConfig(dim=dim, seed=seed,
                         seq_lens={t: seq_len for t in ("complement", "co_view",
                                                        "search", "describe")})
    return init_params(config, n_items, n_words, n_cats)


def tiny_specs(rng, n_items=12, n_words=8, n_each=30, seq_len=5):
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
    return [
        TaskSpec("substitute", subs),
        TaskSpec("complement", seqs(item), seq_len),
        TaskSpec("co_view", seqs(item), seq_len),
        TaskSpec("search", [(tuple(word() for _ in range(3)), item()) for _ in range(n_each)],
                 seq_len),
        TaskSpec("isa", [(item(), (int(rng.integers(1, 6)),)) for _ in range(n_each)]),
    ]


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
        specs = [TaskSpec("substitute", [(1, 2)])]
        rng = np.random.default_rng(0)
        assert all(sample_task(specs, rng) == "substitute" for _ in range(20))

    def test_proportional_frequencies(self):
        specs = [TaskSpec("substitute", [(1, 2)] * 3), TaskSpec("isa", [(1, (2,))] * 1)]
        rng = np.random.default_rng(5)
        draws = [sample_task(specs, rng) for _ in range(100_000)]
        freq = np.mean([d == "substitute" for d in draws])
        assert abs(freq - 0.75) < 0.01

    def test_uniform_schedule(self):
        specs = [TaskSpec("substitute", [(1, 2)] * 9), TaskSpec("isa", [(1, (2,))] * 1)]
        rng = np.random.default_rng(6)
        draws = [sample_task(specs, rng, schedule="uniform") for _ in range(50_000)]
        freq = np.mean([d == "substitute" for d in draws])
        assert abs(freq - 0.5) < 0.01

    def test_seeded_reproducibility(self):
        specs = [TaskSpec("substitute", [(1, 2)] * 2), TaskSpec("isa", [(1, (2,))] * 3)]
        a = [sample_task(specs, np.random.default_rng(9)) for _ in range(1)]
        b = [sample_task(specs, np.random.default_rng(9)) for _ in range(1)]
        assert a == b

    def test_chi_square_within_bound(self):
        """Empirical counts match n_i / sum(n) proportions at the 0.999 level."""
        sizes = {"substitute": 5, "complement": 3, "search": 2}
        specs = [TaskSpec(name, [(1, 2)] * size) for name, size in sizes.items()]
        rng = np.random.default_rng(11)
        n_draws = 100_000
        counts = {name: 0 for name in sizes}
        for _ in range(n_draws):
            counts[sample_task(specs, rng)] += 1
        total_size = sum(sizes.values())
        chi2 = sum((counts[name] - n_draws * size / total_size) ** 2
                   / (n_draws * size / total_size) for name, size in sizes.items())
        assert chi2 < 13.816  # 0.999 quantile, 2 degrees of freedom


class TestTrainLoop:
    def test_zero_epochs_returns_initial_params(self):
        rng = np.random.default_rng(2)
        params = tiny_params()
        specs = tiny_specs(rng)
        config = TrainConfig(max_epochs=0, seed=1)
        result = train(config, specs, params.copy(), validation={})
        assert result.log == []
        assert result.params.equal(params)

    def test_bitwise_determinism(self):
        rng = np.random.default_rng(4)
        specs = tiny_specs(rng)
        outputs = []
        for _ in range(2):
            config = TrainConfig(max_epochs=2, seed=13, validation_cap=10)
            result = train(config, specs, tiny_params(seed=5),
                           validation={"substitute": [(1, 2), (3, 4)]})
            outputs.append(result)
        assert outputs[0].params.equal(outputs[1].params)
        assert outputs[0].log == outputs[1].log

    def test_single_task_isolation(self):
        """Training only the substitute task leaves every other table bitwise intact."""
        rng = np.random.default_rng(7)
        specs = tiny_specs(rng)
        params = tiny_params(seed=8)
        before = params.copy()
        config = TrainConfig(max_epochs=2, seed=3, schedule="single_task",
                             single_task="substitute")
        result = train(config, specs, params, validation=None)
        trained = result.params
        assert not np.array_equal(trained.tables["item_in"].values,
                                  before.tables["item_in"].values)
        for name in ("item_out_buy", "item_out_view", "word", "category"):
            np.testing.assert_array_equal(trained.tables[name].values,
                                          before.tables[name].values)
        for task, block in trained.attn.items():
            np.testing.assert_array_equal(block.positions, before.attn[task].positions)

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
        specs = tiny_specs(rng)
        params = tiny_params(seed=2)
        params.tables["item_in"].values[1:] = 1e200
        config = TrainConfig(max_epochs=1, seed=0)
        with pytest.raises(NumericalError, match="diverged|non-finite"):
            train(config, specs, params, validation=None)

    def test_pad_row_never_touched(self):
        rng = np.random.default_rng(14)
        specs = tiny_specs(rng)
        params = tiny_params(seed=9)
        pads = {name: table.values[0].copy() for name, table in params.tables.items()}
        result = train(TrainConfig(max_epochs=2, seed=4), specs, params, validation=None)
        for name, row in pads.items():
            np.testing.assert_array_equal(result.params.tables[name].values[0], row)


class TestBuildTaskSpecs:
    def test_session_expansion_counts(self):
        from prodkg.data import SessionSequence
        records = {"buy_sessions": [SessionSequence("buy", (1, 2, 3, 4), 0)]}
        specs = build_task_specs(records, {"complement": 2, "co_view": 2,
                                           "search": 2, "describe": 2})
        spec = specs[0]
        assert spec.name == "complement"
        assert spec.examples == [((1,), 2), ((1, 2), 3), ((2, 3), 4)]

    def test_context_truncated_to_max_len(self):
        from prodkg.data import SessionSequence
        records = {"buy_sessions": [SessionSequence("buy", (1, 2, 3, 4, 5), 0)]}
        specs = build_task_specs(records, {"complement": 2, "co_view": 2,
                                           "search": 2, "describe": 2})
        contexts = [c for c, _t in specs[0].examples]
        assert max(len(c) for c in contexts) == 2
        assert specs[0].examples[-1] == ((3, 4), 5)


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


class TestLearningRateSelection:
    def test_grid_search_returns_a_grid_member(self):
        from prodkg.trainer import select_learning_rate
        rng = np.random.default_rng(21)
        specs = tiny_specs(rng, n_each=20)
        validation = {"substitute": [(1, 2), (3, 4), (5, 6)]}
        config = TrainConfig(lr_grid=(0.01, 0.1), seed=5, validation_cap=10)
        picked = select_learning_rate(config, specs, lambda: tiny_params(seed=6),
                                      validation, epochs=1)
        assert picked in (0.01, 0.1)


class TestBestEpochSelection:
    """The best epoch and the learning rate are chosen by the hit@10 tasks;
    isa's negative loss (around -11, on another scale) must not swing them."""

    def test_selection_metric_ignores_isa_beside_hit_tasks(self):
        from prodkg.trainer import selection_metric
        assert selection_metric({"substitute": 0.5, "complement": 0.3, "isa": -11.0}) == 0.4
        assert selection_metric({"isa": -3.0}) == -3.0

    @staticmethod
    def scripted(script):
        """validation_metric stand-in returning script[task] one epoch at a time."""
        calls = {}

        def fake(task, examples, params, samplers, k_negatives, cap, rank_k=10):
            calls[task] = calls.get(task, 0) + 1
            return script[task][calls[task] - 1]
        return fake

    def test_isa_loss_does_not_pick_the_epoch(self, monkeypatch):
        import prodkg.trainer as trainer_module
        # a plain mean over tasks would pick epoch 2: (0.4 - 5) / 2 > (0.5 - 20) / 2
        monkeypatch.setattr(trainer_module, "validation_metric", self.scripted(
            {"substitute": [0.5, 0.4, 0.4], "isa": [-20.0, -5.0, -4.0]}))
        rng = np.random.default_rng(3)
        specs = [s for s in tiny_specs(rng) if s.name in ("substitute", "isa")]
        config = TrainConfig(max_epochs=3, patience=1, seed=2)
        result = train(config, specs, tiny_params(), validation={})
        assert result.best_epoch == 1
        # isa stays in the log and in the patience count: its improvements
        # alone keep the run going to the last epoch
        assert result.epochs_run == 3
        assert [(e, task, value) for e, _t, task, _m, value in result.log if task == "isa"] \
            == [(1, "isa", -20.0), (2, "isa", -5.0), (3, "isa", -4.0)]

    def test_isa_alone_still_selects(self, monkeypatch):
        import prodkg.trainer as trainer_module
        monkeypatch.setattr(trainer_module, "validation_metric",
                            self.scripted({"isa": [-9.0, -4.0, -6.0]}))
        rng = np.random.default_rng(3)
        specs = [s for s in tiny_specs(rng) if s.name == "isa"]
        result = train(TrainConfig(max_epochs=3, seed=2), specs, tiny_params(),
                       validation={})
        assert result.best_epoch == 2

    def test_isa_loss_does_not_pick_the_learning_rate(self, monkeypatch):
        import prodkg.trainer as trainer_module
        from prodkg.trainer import TrainResult, select_learning_rate

        finals = {0.01: (0.5, -20.0), 0.1: (0.4, -5.0)}

        def fake_train(config, specs, params, validation=None):
            hit, isa = finals[config.lr]
            log = [(1, "mixed", "substitute", "hit@10", hit), (1, "mixed", "isa", "neg_loss", isa)]
            return TrainResult(params, log, 1, 1)

        monkeypatch.setattr(trainer_module, "train", fake_train)
        config = TrainConfig(lr_grid=(0.01, 0.1), seed=5)
        assert select_learning_rate(config, [], tiny_params, {}, epochs=1) == 0.01
