"""The fast paths of the training step and of the category pre-training,
held to the sequential code they replaced (``step_oracles``).

- The stacked attention pass and the vectorised scoring sum in another
  order, so they agree with the two-branch, row-by-row step to 1e-12 and
  emit the same row ids in the same order.
- The isa loss, one sampled-softmax call over a batch's (product, label)
  rows, agrees with the per-label loop to 1e-12.
- The batched task and negative draws return the ids of one draw per try
  and leave the generator where it left it.
- Dependency-level pre-training is bit-identical to the per-edge loop.
- The step of ids that do not repeat and the table writer are bit for bit
  the code they replaced.
"""

import tempfile

import numpy as np
import pytest

import step_oracles as oracle
from helpers import key_rows
from prodkg import poincare
from prodkg.attention import TASK_WIRING, aggregate_context, sequence_loss_grad
from prodkg.data import CATEGORY, ingest_dataset
from prodkg.embeddings import (
    EUCLIDEAN,
    EmbeddingTable,
    Grads,
    NegativeSampler,
    new_table,
    row_sums,
    sampled_softmax_loss_grad,
    sgd_update,
    write_table_tsv,
)
from prodkg.model import ModelConfig, init_params
from prodkg.model import PkgParams
from prodkg.poincare import dependency_levels, hierarchy_pretrain
from prodkg.synth import SynthConfig, generate
from prodkg.trainer import isa_example_loss, sample_task, task_cdf

TOL = 1e-12
SEQ_LENS = {"complement": 5, "co_view": 5, "search": 4, "describe": 7}


def random_params(seed, dim=6):
    params = init_params(ModelConfig(dim=dim, seed=seed, seq_lens=SEQ_LENS), 14, 10, 6)
    rng = np.random.default_rng(seed)
    for table in params.tables.values():
        if table.geometry == EUCLIDEAN:
            table.values[1:] = rng.normal(0, 0.4, size=(table.rows - 1, table.dim))
    for block in params.attn.values():
        block.positions[:] = rng.normal(0, 0.3, size=block.positions.shape)
        block.b1[:] = rng.normal(0, 0.1, size=block.b1.shape)
    return params


# --- the fused attention step ------------------------------------------------------

def sequences(task):
    """(ids, negatives): one position, the whole positional matrix, repeated
    ids, and more negatives than the scoring sum unrolls."""
    longest = np.arange(1, SEQ_LENS[task] + 1) % 9 + 1
    return [
        ([7], [2, 8]),
        (list(longest), [3, 9, 4]),
        ([4, 1, 4, 4], [4, 1, 6]),        # negatives hit context ids
        ([2, 2], [6, 6, 3, 4, 8, 9, 1, 7, 3]),
    ]


class TestFusedStep:
    @pytest.mark.parametrize("task", sorted(TASK_WIRING))
    @pytest.mark.parametrize("case", range(4))
    def test_step_matches_the_two_branch_step(self, task, case):
        ids, negatives = (np.array(x) for x in sequences(task)[case])
        params = random_params(seed=case + 10)
        loss, grads = sequence_loss_grad(ids, 5, negatives, params.tables,
                                         params.attn[task], task)
        old_loss, old_rows, old_row_grads, old_dense = oracle.sequence_loss_grad(
            ids, 5, negatives, params.tables, params.attn[task], task)
        assert loss == pytest.approx(old_loss, rel=0, abs=TOL)
        assert list(grads.rows) == list(old_rows)
        for name in old_rows:
            np.testing.assert_array_equal(grads.rows[name], old_rows[name], err_msg=name)
            np.testing.assert_allclose(grads.row_grads[name], old_row_grads[name],
                                       rtol=0, atol=TOL, err_msg=name)
        assert grads.dense.keys() == old_dense.keys()
        for name, grad in old_dense.items():
            np.testing.assert_allclose(grads.dense[name], grad, rtol=0, atol=TOL, err_msg=name)
        assert grads.dense[f"{task}.positions"].shape == (ids.size, params.dim)
        if task in ("search", "describe"):
            # one word table is query and key: its rows run in_0, out_0, in_1, ...
            np.testing.assert_array_equal(grads.rows["word"], np.repeat(ids, 2))

    @pytest.mark.parametrize("task", sorted(TASK_WIRING))
    def test_forward_matches_and_encodes_exactly(self, task):
        _, in_name, out_name, _ = TASK_WIRING[task]
        params = random_params(seed=5)
        for ids, _ in sequences(task):
            ids = np.array(ids)
            args = (ids, params.tables[in_name], params.tables[out_name], params.attn[task])
            context, alpha, cache = aggregate_context(*args)
            old_context, old_alpha, old_cache = oracle.aggregate_context(*args)
            np.testing.assert_allclose(context[0], old_context, rtol=0, atol=TOL)
            np.testing.assert_allclose(alpha[0], old_alpha, rtol=0, atol=TOL)
            np.testing.assert_array_equal(cache.e_in[0], old_cache.e_in)
            np.testing.assert_array_equal(key_rows(cache)[0], old_cache.e_out)

    @pytest.mark.parametrize("negatives", [[2, 5, 6], [5, 5, 2, 5], [7], list(range(4, 14))])
    def test_vectorised_scoring(self, negatives):
        rng = np.random.default_rng(len(negatives))
        table = EmbeddingTable("out", rng.normal(0, 0.5, size=(14, 5)))
        query = rng.normal(0, 0.5, size=5)
        loss, grad_q, rows, grads = sampled_softmax_loss_grad(query, table, 3, negatives)
        old_loss, old_grad_q, old_rows, old_grads = oracle.sampled_softmax_loss_grad(
            query, table, 3, negatives)
        assert loss == pytest.approx(old_loss, rel=0, abs=TOL)
        np.testing.assert_allclose(grad_q, old_grad_q, rtol=0, atol=TOL)
        np.testing.assert_array_equal(rows, old_rows)
        np.testing.assert_allclose(grads, old_grads, rtol=0, atol=TOL)


class TestIsaLoss:
    @staticmethod
    def params_of(categories, item):
        return PkgParams({"item_in": EmbeddingTable("item_in", np.stack((0 * item, item))),
                          "category": categories}, {}, item.size)

    @pytest.mark.parametrize("labels, negatives", [
        ([2], [[3, 4, 5]]),
        ([2, 5], [[1, 4], [3, 3]]),                 # a negative drawn twice
        ([1, 3, 4, 6], [[2, 5, 7], [5, 5, 2], [2, 8, 9], [3, 1, 2]]),
    ])
    def test_matches_the_per_label_loop(self, labels, negatives):
        rng = np.random.default_rng(len(labels))
        table = EmbeddingTable("category", rng.uniform(-0.4, 0.4, size=(10, 6)), "poincare")
        item = rng.normal(0, 0.5, size=6)
        loss, grads = isa_example_loss([(1, tuple(labels))], self.params_of(table, item),
                                       np.array(negatives))
        old_loss, old_grad = oracle.isa_loss(item, labels, table,
                                             [np.array(negs) for negs in negatives])
        assert loss == pytest.approx(old_loss, rel=0, abs=TOL)
        np.testing.assert_array_equal(grads.rows["item_in"], [1] * len(labels))
        np.testing.assert_allclose(grads.row_grads["item_in"].sum(axis=0), old_grad,
                                   rtol=0, atol=TOL)

    @pytest.mark.parametrize("labels, negatives, message", [
        ([0, 2], [[3], [4]], "PAD id among labels"),
        ([2, 5], [[3], [5]], "label present among its negatives"),
        ([2, 5], [[3]], "one negative set per label"),
    ])
    def test_input_errors_kept(self, labels, negatives, message):
        """Each input error is caught by the sampled-softmax check that covers it."""
        raised = {"PAD id among labels": "invalid target id",
                  "label present among its negatives": "target id present among negatives",
                  "one negative set per label": "one row of negatives per query"}[message]
        table = EmbeddingTable("category", np.zeros((8, 3)), "poincare")
        with pytest.raises(ValueError, match=raised):
            isa_example_loss([(1, tuple(labels))], self.params_of(table, np.zeros(3)),
                             np.array(negatives))


# --- draws ---------------------------------------------------------------------------

def tasks_of(sizes):
    names = ("substitute", "complement", "co_view", "search", "describe", "isa")
    return {name: [None] * size for name, size in zip(names, sizes)}


class TestTaskDraws:
    @pytest.mark.parametrize("schedule", ["weighted", "uniform"])
    @pytest.mark.parametrize("sizes", [(3,), (1, 1), (9892, 3, 70, 1, 400, 4001), (5, 17, 2)])
    def test_same_tasks_and_generator_state(self, schedule, sizes):
        tasks = tasks_of(sizes)
        live_rng, old_rng = np.random.default_rng(4), np.random.default_rng(4)
        cdf = task_cdf(tasks, schedule)
        probs = oracle.task_probabilities(tasks, schedule)
        live = [sample_task(tasks, live_rng, schedule, cdf=cdf) for _ in range(3000)]
        old = [oracle.sample_task(tasks, old_rng, schedule, probs=probs) for _ in range(3000)]
        assert live == old
        assert sample_task(tasks, live_rng, schedule) == oracle.sample_task(tasks, old_rng,
                                                                             schedule)
        assert live_rng.random() == old_rng.random()


def twin_samplers(counts, seed=3):
    return (NegativeSampler(np.asarray(counts, dtype=float), seed),
            NegativeSampler(np.asarray(counts, dtype=float), seed))


def assert_same_draws(counts, calls):
    live, old = twin_samplers(counts)
    for k, exclude in calls:
        np.testing.assert_array_equal(live.sample(k, exclude=exclude),
                                      oracle.sample_negatives(old, k, exclude))
    assert live.rng.random() == old.rng.random()


class TestNegativeDraws:
    def test_same_ids_over_many_calls(self):
        rng = np.random.default_rng(8)
        counts = rng.integers(0, 50, size=40).astype(float)
        counts[0] = 0
        calls = [(int(rng.integers(1, 7)), set(rng.integers(0, 40, size=int(rng.integers(0, 5)))))
                 for _ in range(500)]
        assert_same_draws(counts, calls)

    def test_forced_collisions(self):
        # the two heavy ids are excluded: most tries collide
        counts = [0, 1000, 1000, 1, 1, 1]
        assert_same_draws(counts, [(5, {1, 2})] * 40 + [(1, {1, 2, 3})] * 40)

    def test_rejection_fallback(self):
        # 32 tries all but surely draw the excluded heavy id, so every slot
        # falls back to the exact draw, within a batch and across batches
        counts = [0, 1e15, 1, 2, 0]
        live, _ = twin_samplers(counts)
        assert set(live.sample(6, exclude={1}).tolist()) <= {2, 3}
        assert_same_draws(counts, [(6, {1}), (1, {1, 2}), (3, {1}), (2, set())])

    def test_exclusions_covering_the_vocabulary_raise(self):
        live, _ = twin_samplers([0, 1, 1])
        with pytest.raises(ValueError, match="entire vocabulary"):
            live.sample(2, exclude={1, 2})


# --- dependency-level pre-training -------------------------------------------------

def star():
    """Every edge shares the root, so every edge conflicts with every other."""
    return [(child, 1) for child in range(2, 10)], 14


def chain():
    return [(node + 1, node) for node in range(1, 10)], 14


def star_beside_a_pair():
    """The star's pool (4 ids) is smaller than the pair's: a level mixes sizes."""
    return [(child, 1) for child in range(2, 10)] + [(11, 10)], 14


def synth_forest():
    config = SynthConfig(n_items=120, n_clusters=20, n_words=100, n_sessions=60,
                         n_searches=20, n_substitutions=20, tree_branching=(4, 3, 2, 2), seed=5)
    with tempfile.TemporaryDirectory() as out:
        paths, _ = generate(config, out)
        dataset = ingest_dataset({"catalog": paths["catalog"],
                                  "category_edges": paths["category_edges"]})
    return dataset.category_edges, dataset.vocab[CATEGORY].size


class TestLevelSchedule:
    @pytest.mark.parametrize("forest, negatives", [
        (star, 3), (chain, 4), (star_beside_a_pair, 6), (synth_forest, 10)])
    def test_bit_identical_to_the_per_edge_loop(self, forest, negatives, monkeypatch):
        edges, rows = forest()
        monkeypatch.setattr(poincare, "BURN_IN_EPOCHS", 2)
        start = new_table("category", rows, 8, np.random.default_rng(2), geometry="poincare")
        levelled = EmbeddingTable("category", start.values.copy(), "poincare")
        per_edge = EmbeddingTable("category", start.values.copy(), "poincare")
        losses = hierarchy_pretrain(edges, levelled, epochs=6, negatives=negatives, seed=4)
        old_losses = oracle.hierarchy_pretrain(edges, per_edge, epochs=6,
                                               negatives=negatives, seed=4)
        np.testing.assert_array_equal(losses, old_losses)
        np.testing.assert_array_equal(levelled.values, per_edge.values)
        assert not np.array_equal(levelled.values, start.values)

    def test_star_steps_one_edge_per_level(self):
        steps = [np.array([child, 10, 11, 1]) for child in range(2, 10)]
        np.testing.assert_array_equal(dependency_levels(steps, 14), np.arange(1, 9))

    def test_levels_touch_disjoint_rows_and_follow_their_writers(self):
        rng = np.random.default_rng(0)
        steps = [rng.choice(np.arange(1, 30), size=int(rng.integers(1, 6)), replace=False)
                 for _ in range(300)]
        levels = dependency_levels(steps, 30)
        for level in np.unique(levels):
            rows = np.concatenate([steps[i] for i in np.flatnonzero(levels == level)])
            assert np.unique(rows).size == rows.size
        for later, rows in enumerate(steps):
            for earlier in range(later):
                if np.intersect1d(rows, steps[earlier]).size:
                    assert levels[earlier] < levels[later]


# --- bookkeeping ---------------------------------------------------------------------

class TestBookkeeping:
    def test_ids_that_do_not_repeat_step_as_summed(self):
        rng = np.random.default_rng(1)
        values = rng.normal(size=(30, 4))
        rows = rng.permutation(np.arange(1, 30))[:12]
        grads = rng.normal(size=(12, 4))
        live = EmbeddingTable("t", values.copy())
        sgd_update({"t": live}, Grads({"t": rows}, {"t": grads}, {}), lr=0.1)
        expected = values.copy()
        unique, summed = row_sums(rows, grads)
        expected[unique] -= 0.1 * summed
        np.testing.assert_array_equal(live.values, expected)

    def test_table_writer_bytes(self, tmp_path):
        rng = np.random.default_rng(3)
        values = rng.normal(size=(40, 7)) * 10.0 ** rng.integers(-12, 12, size=(40, 7))
        values[0] = 0.0
        values[5, 2] = -0.0
        values[6, :3] = [1.0, 123456789.0, 1e-300]
        keys = ["<pad>"] + [f"i{row:05d}" for row in range(1, 40)]
        write_table_tsv(tmp_path / "t.tsv", EmbeddingTable("t", values), keys)
        expected = "# geometry=euclidean\nentity\t7\n" + "".join(
            f"{keys[row]}\t{' '.join(f'{v:.9g}' for v in values[row])}\n" for row in range(1, 40))
        assert (tmp_path / "t.tsv").read_text(encoding="utf-8") == expected
