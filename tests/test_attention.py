"""Attention relation extractor: embedding layer, FFN, scaled dot-product
attention, context pooling, and the end-to-end sequence loss."""

import numpy as np
import pytest

from helpers import key_rows
from prodkg.attention import (
    AttentionParams,
    TASK_WIRING,
    aggregate_context,
    aggregate_context_backward,
    attention_weights,
    context_for_ranking,
    ffn_forward,
    pad_block,
    sequence_loss_grad,
)
from prodkg.embeddings import PAD_ID, EmbeddingTable, new_table
from prodkg.gradcheck import grad_check


def identity_params(max_len, dim):
    return AttentionParams(
        positions=np.zeros((max_len, dim)),
        theta1=np.eye(dim), b1=np.zeros(dim),
        theta2=np.eye(dim), b2=np.zeros(dim),
    )


class TestFfn:
    def test_identity_on_nonnegative_input(self):
        params = identity_params(2, 3)
        x = np.array([[0.5, 0.0, 2.0]])
        np.testing.assert_array_equal(ffn_forward(x, params)[0], x)

    def test_relu_clips_negative(self):
        params = identity_params(2, 2)
        out, _, _ = ffn_forward(np.array([[-1.0, 2.0]]), params)
        np.testing.assert_array_equal(out, [[0.0, 2.0]])

    def test_zero_second_layer_gives_constant(self):
        params = identity_params(2, 2)
        params.theta2[:] = 0.0
        params.b2[:] = [3.0, -1.0]
        out, _, _ = ffn_forward(np.random.default_rng(0).normal(size=(4, 2)), params)
        np.testing.assert_array_equal(out, np.tile([3.0, -1.0], (4, 1)))

    def test_pointwise_row_permutation(self):
        rng = np.random.default_rng(5)
        params = AttentionParams.init(6, 4, rng)
        x = rng.normal(size=(5, 4))
        perm = rng.permutation(5)
        np.testing.assert_allclose(ffn_forward(x, params)[0][perm],
                                   ffn_forward(x[perm], params)[0])


class TestScaledDotAttention:
    def test_singleton_softmax(self):
        v = np.array([[2.0, -1.0]])
        alpha = attention_weights(np.ones((1, 2)), np.ones((1, 2)))
        np.testing.assert_array_equal(alpha, [[1.0]])
        np.testing.assert_array_equal(alpha @ v, v)

    def test_identical_rows_average_values(self):
        q = np.tile([0.3, 0.7], (2, 1))
        k = np.tile([0.1, -0.2], (2, 1))
        v = np.array([[1.0, 0.0], [3.0, 2.0]])
        alpha = attention_weights(q, k)
        np.testing.assert_allclose(alpha, 0.5)
        np.testing.assert_allclose(alpha @ v, np.tile(v.mean(axis=0), (2, 1)))

    def test_hand_computed_weights_d1(self):
        """d=1 logits (2,0) give weights (e^2/(e^2+1), 1/(e^2+1))."""
        q = np.array([[2.0], [0.0]])
        k = np.array([[1.0], [0.0]])
        v = np.array([[1.0], [3.0]])
        alpha = attention_weights(q, k)
        h = alpha @ v
        w = np.exp(2) / (np.exp(2) + 1)
        np.testing.assert_allclose(alpha[0], [w, 1 - w], atol=1e-10)
        assert alpha[0, 0] == pytest.approx(0.8808, abs=1e-4)
        assert h[0, 0] == pytest.approx(w * 1 + (1 - w) * 3, abs=1e-10)
        assert h[0, 0] == pytest.approx(1.2384, abs=1e-4)

    def test_masked_keys_get_exactly_zero(self):
        rng = np.random.default_rng(2)
        q, k = rng.normal(size=(4, 5)), rng.normal(size=(4, 5))
        mask = np.array([True, False, True, False])
        alpha = attention_weights(q, k, key_mask=mask)
        assert np.all(alpha[:, ~mask] == 0.0)
        np.testing.assert_allclose(alpha.sum(axis=1), 1.0, atol=1e-10)
        assert np.all(alpha >= 0.0)

    def test_all_keys_masked_rejected(self):
        with pytest.raises(ValueError, match="masked"):
            attention_weights(np.ones((2, 2)), np.ones((2, 2)), key_mask=np.zeros(2, bool))


class TestAggregateContext:
    def test_length_one_returns_positional_embedding_exactly(self):
        rng = np.random.default_rng(4)
        table_in = new_table("in", 6, 4, rng)
        table_out = new_table("out", 6, 4, rng)
        params = AttentionParams.init(5, 4, rng)
        context, alpha, _ = aggregate_context(np.array([3]), table_in, table_out, params)
        np.testing.assert_array_equal(alpha, [[[1.0]]])
        np.testing.assert_array_equal(context, [table_in.values[3] + params.positions[0]])

    def test_permutation_invariant_without_positions(self):
        rng = np.random.default_rng(6)
        table_in = new_table("in", 8, 3, rng)
        table_out = new_table("out", 8, 3, rng)
        table_in.values[1:] = rng.normal(size=(7, 3))
        table_out.values[1:] = rng.normal(size=(7, 3))
        params = AttentionParams.init(5, 3, rng)
        params.positions[:] = 0.0
        ids = np.array([1, 4, 6, 2])
        c1, _, _ = aggregate_context(ids, table_in, table_out, params)
        c2, _, _ = aggregate_context(ids[::-1].copy(), table_in, table_out, params)
        np.testing.assert_allclose(c1, c2, atol=1e-12)

    def test_hand_case_identity_ffn(self):
        """l=2, d=1, identity FFN: full pipeline evaluated by hand."""
        table_in = EmbeddingTable("in", np.array([[0.0], [1.0], [2.0]]))
        table_out = EmbeddingTable("out", np.array([[0.0], [0.5], [-0.5]]))
        params = identity_params(2, 1)
        ids = np.array([1, 2])
        context, alpha, _ = aggregate_context(ids, table_in, table_out, params)
        # E_in = [1, 2]; keys pass the ReLU: F_out = relu([0.5, -0.5]) = [0.5, 0]
        logits = np.array([[0.5, 0.0], [1.0, 0.0]])
        expected_alpha = np.exp(logits)
        expected_alpha /= expected_alpha.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(alpha[0], expected_alpha, atol=1e-12)
        h = expected_alpha @ np.array([1.0, 2.0])
        np.testing.assert_allclose(context[0], [h.mean()], atol=1e-12)

    def test_zero_positions_feed_raw_embeddings(self):
        table = new_table("t", 5, 3, np.random.default_rng(0))
        ids = np.array([1, 3, 2])
        _, _, cache = aggregate_context(ids, table, table, identity_params(4, 3))
        np.testing.assert_array_equal(cache.e_in[0], table.values[ids])
        np.testing.assert_array_equal(key_rows(cache)[0], table.values[ids])

    def test_single_item_gets_first_position(self):
        table = new_table("t", 5, 3, np.random.default_rng(0))
        params = identity_params(4, 3)
        params.positions[:] = np.random.default_rng(1).normal(size=(4, 3))
        _, _, cache = aggregate_context(np.array([2]), table, table, params)
        np.testing.assert_allclose(cache.e_in[0, 0], table.values[2] + params.positions[0])

    def test_alpha_rows_sum_to_one(self):
        rng = np.random.default_rng(9)
        table_in = new_table("in", 10, 6, rng)
        table_out = new_table("out", 10, 6, rng)
        params = AttentionParams.init(8, 6, rng)
        _, alpha, _ = aggregate_context(np.array([1, 5, 3, 7, 2]), table_in, table_out, params)
        np.testing.assert_allclose(alpha.sum(axis=2), 1.0, atol=1e-10)
        assert np.all(alpha >= 0)


def _loss_point(task, seed):
    rng = np.random.default_rng(seed)
    d, n = 4, 9
    if task in ("complement", "co_view"):
        names = ["item_in", TASK_WIRING[task][2]]
    else:
        names = ["word", "item_in"]
    tables = {name: EmbeddingTable(name, rng.normal(0, 0.4, size=(n, d)))
              for name in names}
    params = AttentionParams.init(6, d, rng)
    params.b1[:] = rng.normal(0, 0.1, size=d)
    params.b2[:] = rng.normal(0, 0.1, size=d)
    return tables, params, names


class TestSequenceLoss:
    def test_zero_parameters_give_log2_loss(self):
        """All-zero tables and transforms produce (1+k) log 2."""
        d = 3
        tables = {name: EmbeddingTable(name, np.zeros((6, d)))
                  for name in ("item_in", "item_out_buy")}
        params = AttentionParams(np.zeros((4, d)), np.zeros((d, d)), np.zeros(d),
                                 np.zeros((d, d)), np.zeros(d))
        loss, _ = sequence_loss_grad(np.array([1, 2]), 3, np.array([4, 5]),
                                     tables, params, "complement")
        assert loss == pytest.approx(3 * np.log(2), abs=1e-12)

    @pytest.mark.parametrize("task", sorted(TASK_WIRING))
    def test_end_to_end_gradient_every_wiring(self, task):
        tables, params, names = _loss_point(task, seed=21)
        ids = np.array([1, 4, 2, 7])
        target, negatives = 5, np.array([2, 8])
        param_names = ["positions", "theta1", "b1", "theta2", "b2"]

        def loss_fn(p):
            tb = {name: EmbeddingTable(name, p[name]) for name in names}
            ap = AttentionParams(*(p[n] for n in param_names))
            loss, grads = sequence_loss_grad(ids, target, negatives, tb, ap, task)
            out = {}
            for name in names:
                out[name] = np.zeros_like(p[name])
                np.add.at(out[name], grads.rows[name], grads.row_grads[name])
            for name in param_names:
                grad = grads.dense[f"{task}.{name}"]
                out[name] = np.zeros_like(p[name])
                out[name][:len(grad)] = grad
            return loss, out

        point = {name: tables[name].values for name in names}
        point.update({name: getattr(params, name) for name in param_names})
        report = grad_check(loss_fn, point, eps=1e-5, max_coords_per_param=30)
        assert report.max_rel_error < 1e-4, report.summary()

    @pytest.mark.parametrize("task", sorted(TASK_WIRING))
    def test_gradient_rows_and_positional_prefix(self, task):
        tables, params, _ = _loss_point(task, seed=8)
        ids = np.array([3, 1, 3])
        _, grads = sequence_loss_grad(ids, 5, np.array([2, 3, 2]), tables, params, task)
        _, in_name, out_name, score_name = TASK_WIRING[task]
        assert grads.dense[f"{task}.positions"].shape == (3, params.dim)
        if in_name == out_name:
            np.testing.assert_array_equal(grads.rows[score_name], [5, 2, 3, 2])
            np.testing.assert_array_equal(grads.rows[in_name], [3, 3, 1, 1, 3, 3])
        else:
            np.testing.assert_array_equal(grads.rows[score_name], [5, 2, 3, 2, 3, 1, 3])
            np.testing.assert_array_equal(grads.rows[in_name], ids)
        for name, rows in grads.rows.items():
            assert grads.row_grads[name].shape == (rows.size, params.dim)

    def test_unknown_task_rejected(self):
        tables, params, _ = _loss_point("complement", seed=0)
        with pytest.raises(ValueError, match="unknown sequence task"):
            sequence_loss_grad(np.array([1]), 2, np.array([3]), tables, params, "bogus")

    def test_ranking_monotone_under_softmax(self):
        """Ordering by raw score equals ordering by full-softmax probability."""
        tables, params, names = _loss_point("complement", seed=33)
        context = context_for_ranking([np.array([1, 4, 2])], tables, params, "complement")[0]
        score_table = tables[TASK_WIRING["complement"][3]]
        scores = score_table.values[1:] @ context
        probs = np.exp(scores - scores.max())
        probs /= probs.sum()
        np.testing.assert_array_equal(np.argsort(-scores), np.argsort(-probs))

    def test_context_truncates_to_param_length(self):
        tables, params, _ = _loss_point("complement", seed=3)
        long_ids = np.array([1, 2, 3, 4, 5, 6, 7, 8])
        short = context_for_ranking([long_ids], tables, params, "complement")
        explicit = context_for_ranking([long_ids[-params.max_len:]], tables, params, "complement")
        np.testing.assert_array_equal(short, explicit)


# --- the padded (B, L) block -------------------------------------------------------

PARAM_NAMES = ["positions", "theta1", "b1", "theta2", "b2"]
# mixed lengths; an id repeated within a row and across rows
MIXED = [[1, 4, 2, 7], [3], [4, 1, 4], [7, 2]]
TARGETS = np.array([5, 6, 8, 3])
NEGATIVES = np.array([[2, 8], [4, 4], [2, 6], [1, 4]])


def dense_of(grads, task, params):
    """Each dense gradient zero-extended to its parameter's full shape."""
    out = {}
    for name in PARAM_NAMES:
        grad = grads.dense[f"{task}.{name}"]
        out[name] = np.zeros_like(getattr(params, name))
        out[name][:len(grad)] = grad
    return out


class TestPaddedBlock:
    def test_pad_block_layout_and_truncation(self):
        block = pad_block([(3, 1), np.array([5]), [2, 6, 4]])
        np.testing.assert_array_equal(block, [[3, 1, 0], [5, 0, 0], [2, 6, 4]])
        assert block.dtype == np.int64
        np.testing.assert_array_equal(pad_block([[1, 2, 3, 4], [5]], max_len=2),
                                      [[3, 4], [5, 0]])
        with pytest.raises(ValueError, match="nonempty"):
            pad_block([[1], []])

    @pytest.mark.parametrize("task", sorted(TASK_WIRING))
    def test_block_matches_each_sequence_alone(self, task):
        """Loss, row ids, row gradients and dense gradients of a mixed block
        are those of its sequences one by one, summed, rows in example order."""
        tables, params, _ = _loss_point(task, seed=13)
        loss, grads = sequence_loss_grad(pad_block(MIXED), TARGETS, NEGATIVES,
                                         tables, params, task)
        alone = [sequence_loss_grad(np.array(ids), target, negs, tables, params, task)
                 for ids, target, negs in zip(MIXED, TARGETS, NEGATIVES)]
        assert loss == pytest.approx(sum(part for part, _ in alone), rel=0, abs=1e-12)
        assert list(grads.rows) == list(alone[0][1].rows)
        for name in grads.rows:
            np.testing.assert_array_equal(
                grads.rows[name], np.concatenate([g.rows[name] for _, g in alone]))
            np.testing.assert_allclose(
                grads.row_grads[name], np.concatenate([g.row_grads[name] for _, g in alone]),
                rtol=0, atol=1e-12)
        summed = {name: sum(dense_of(g, task, params)[name] for _, g in alone)
                  for name in PARAM_NAMES}
        for name, grad in dense_of(grads, task, params).items():
            np.testing.assert_allclose(grad, summed[name], rtol=0, atol=1e-12, err_msg=name)

    @pytest.mark.parametrize("task", sorted(TASK_WIRING))
    def test_finite_differences_on_a_mixed_block(self, task):
        tables, params, names = _loss_point(task, seed=22)
        block = pad_block(MIXED)

        def loss_fn(p):
            tb = {name: EmbeddingTable(name, p[name]) for name in names}
            ap = AttentionParams(*(p[n] for n in PARAM_NAMES))
            loss, grads = sequence_loss_grad(block, TARGETS, NEGATIVES, tb, ap, task)
            out = dense_of(grads, task, ap)
            for name in names:
                out[name] = np.zeros_like(p[name])
                np.add.at(out[name], grads.rows[name], grads.row_grads[name])
            return loss, out

        point = {name: tables[name].values for name in names}
        point.update({name: getattr(params, name) for name in PARAM_NAMES})
        report = grad_check(loss_fn, point, eps=1e-5, max_coords_per_param=40)
        assert report.max_rel_error < 1e-4, report.summary()

    @pytest.mark.parametrize("task", sorted(TASK_WIRING))
    def test_padding_gets_exactly_zero_gradient(self, task):
        """Padded positions, also past the longest row, get no weight and
        exactly zero gradient, emit no row, and change nothing else."""
        tables, params, _ = _loss_point(task, seed=5)
        _, in_name, out_name, _ = TASK_WIRING[task]
        block = pad_block(MIXED)
        wide = np.hstack((block, np.zeros((len(MIXED), 2), dtype=np.int64)))
        valid = wide != PAD_ID
        contexts, alpha, cache = aggregate_context(wide, tables[in_name], tables[out_name],
                                                   params)
        assert np.all(alpha[~valid[:, None, :].repeat(wide.shape[1], axis=1)] == 0.0)
        d_context = np.random.default_rng(1).normal(size=contexts.shape)
        d_e_in, d_e_out, dense = aggregate_context_backward(d_context, cache, params, task)
        assert np.all(d_e_in[~valid] == 0.0) and np.all(d_e_out[~valid] == 0.0)
        assert np.all(dense[f"{task}.positions"][block.shape[1]:] == 0.0)

        narrow_contexts, _, _ = aggregate_context(block, tables[in_name], tables[out_name],
                                                  params)
        np.testing.assert_array_equal(contexts, narrow_contexts)
        loss, grads = sequence_loss_grad(wide, TARGETS, NEGATIVES, tables, params, task)
        narrow_loss, narrow = sequence_loss_grad(block, TARGETS, NEGATIVES, tables, params,
                                                 task)
        assert loss == pytest.approx(narrow_loss, rel=0, abs=1e-12)
        for name, rows in grads.rows.items():
            assert PAD_ID not in rows
            np.testing.assert_array_equal(rows, narrow.rows[name])
            np.testing.assert_allclose(grads.row_grads[name], narrow.row_grads[name],
                                       rtol=0, atol=1e-12)

    @pytest.mark.parametrize("block", [
        [[3, 0, 2]],          # PAD inside a sequence
        [[0, 3, 2]],          # PAD before the ids
        [[1, 2], [0, 0]],     # an empty row
    ], ids=["inside", "leading", "empty"])
    def test_malformed_blocks_rejected(self, block):
        tables, params, _ = _loss_point("complement", seed=0)
        with pytest.raises(ValueError, match="PAD id inside a sequence"):
            aggregate_context(np.array(block), tables["item_in"], tables["item_out_buy"],
                              params)

    def test_one_target_and_negative_row_per_sequence(self):
        tables, params, _ = _loss_point("complement", seed=0)
        with pytest.raises(ValueError, match="one target"):
            sequence_loss_grad(pad_block(MIXED), TARGETS[:3], NEGATIVES, tables, params,
                               "complement")
        with pytest.raises(ValueError, match="one target"):
            sequence_loss_grad(pad_block(MIXED), TARGETS, NEGATIVES[0], tables, params,
                               "complement")

    def test_ranking_contexts_are_the_block_rows(self):
        tables, params, _ = _loss_point("search", seed=4)
        block = context_for_ranking(MIXED, tables, params, "search")
        for row, ids in zip(block, MIXED):
            np.testing.assert_array_equal(
                row, context_for_ranking([ids], tables, params, "search")[0])
