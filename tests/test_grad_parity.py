"""Parity of the row-array gradient format with the dict-of-rows store it replaced.

The store, the updater and every loss that built one are frozen below as
they were before the row-id arrays replaced them (the attention forward pass
and the task draw they used come from ``step_oracles``).  One update through
the frozen code and one through the live code must leave bit-identical
tables, except where the live step sums in another order: the vectorised
sampled-softmax scoring, the stacked attention pass, the isa loss (one row
per label, summed by the update), and a batch of several examples (one
loss call on the block; both sides step by the sum of the examples'
gradients) agree to 1e-12.
"""

import math

import numpy as np
import pytest

import step_oracles as oracle
from helpers import params_equal
from prodkg.attention import TASK_WIRING, sequence_loss_grad
from prodkg.embeddings import (
    EUCLIDEAN,
    PAD_ID,
    EmbeddingTable,
    Grads,
    NumericalError,
    log_sigmoid,
    sampled_softmax_loss_grad,
    sgd_update,
    sigmoid,
    softmax_full_loss_grad,
    softmax_logprob_full,
)
from prodkg.model import ModelConfig, init_params
from prodkg.trainer import (
    TrainConfig,
    _Samplers,
    isa_example_loss,
    substitution_loss,
    train,
)


# --- frozen: the dict-of-rows store, its updater and the losses that built it ---

class FrozenGradStore:
    def __init__(self):
        self.rows = {}
        self.dense = {}

    def add_row(self, table, row, grad):
        if row == PAD_ID:
            raise ValueError(f"gradient routed to PAD row of table {table!r}")
        per_table = self.rows.setdefault(table, {})
        existing = per_table.get(row)
        if existing is None:
            per_table[row] = np.array(grad, dtype=float, copy=True)
        else:
            existing += grad

    def add_dense(self, name, grad):
        existing = self.dense.get(name)
        if existing is None:
            self.dense[name] = np.array(grad, dtype=float, copy=True)
        else:
            existing += grad

    def scale(self, factor):
        for per_table in self.rows.values():
            for grad in per_table.values():
                grad *= factor
        for grad in self.dense.values():
            grad *= factor

    def merge(self, other):
        for table, per_table in other.rows.items():
            for row, grad in per_table.items():
                self.add_row(table, row, grad)
        for name, grad in other.dense.items():
            self.add_dense(name, grad)


def frozen_sgd_update(tables, grads, lr, dense_params=None):
    if lr <= 0:
        raise ValueError("learning rate must be positive")
    for table_name, per_table in grads.rows.items():
        table = tables[table_name]
        if table.geometry != EUCLIDEAN:
            raise ValueError(f"table {table_name!r} has geometry {table.geometry!r}")
        rows = list(per_table)
        stacked = np.array(list(per_table.values()))
        finite = np.isfinite(stacked).all(axis=1)
        if not finite.all():
            bad = rows[int(np.argmin(finite))]
            raise NumericalError(f"non-finite gradient for table {table_name!r} row {bad}")
        table.values[rows] -= lr * stacked
    if grads.dense:
        for name, grad in grads.dense.items():
            if not np.isfinite(grad).all():
                raise NumericalError(f"non-finite gradient for parameter {name!r}")
            dense_params[name] -= lr * grad


def frozen_softmax_full_loss_grad(query, table, target):
    logp = softmax_logprob_full(query, table, target)
    query = np.asarray(query, dtype=float)
    logits = table.values[1:] @ query
    peak = logits.max()
    probs = np.exp(logits - peak)
    probs /= probs.sum()
    grads = FrozenGradStore()
    grad_query = probs @ table.values[1:] - table.values[target]
    for offset, p in enumerate(probs):
        row = offset + 1
        coeff = p - (1.0 if row == target else 0.0)
        grads.add_row(table.name, row, coeff * query)
    return -logp, grad_query, grads


def frozen_sampled_softmax_loss_grad(query, table, target, negatives):
    query = np.asarray(query, dtype=float)
    negatives = np.asarray(negatives, dtype=np.int64)
    z_target = table.values[target]
    score_t = float(query @ z_target)
    loss = -log_sigmoid(score_t)
    grads = FrozenGradStore()
    coeff_t = -sigmoid(-score_t)
    grad_query = coeff_t * z_target
    grads.add_row(table.name, target, coeff_t * query)
    for neg in negatives:
        z_neg = table.values[neg]
        score_n = float(query @ z_neg)
        loss -= log_sigmoid(-score_n)
        coeff_n = sigmoid(score_n)
        grad_query = grad_query + coeff_n * z_neg
        grads.add_row(table.name, int(neg), coeff_n * query)
    return float(loss), grad_query, grads


def frozen_substitution_loss(pair, tables, negatives_forward, negatives_backward):
    a, b = pair
    table = tables["item_in"]
    grads = FrozenGradStore()
    total = 0.0
    for query_id, target, negs in ((a, b, negatives_forward), (b, a, negatives_backward)):
        loss, grad_query, side = frozen_sampled_softmax_loss_grad(
            table.values[query_id], table, target, negs)
        total += loss
        side.add_row(table.name, query_id, grad_query)
        grads.merge(side)
    return total, grads


def frozen_isa_example_loss(example, params, negatives_per_label):
    item, labels = example
    table = params.tables["item_in"]
    loss, grad_item = oracle.isa_loss(table.values[item], list(labels),
                                      params.tables["category"], negatives_per_label)
    grads = FrozenGradStore()
    grads.add_row(table.name, item, grad_item)
    return loss, grads


def per_pair_substitution_loss(pair, tables, negatives_forward, negatives_backward):
    """The row-array substitution loss before the block step: one live
    sampled-softmax call per direction, rows concatenated pair by pair."""
    a, b = pair
    table = tables["item_in"]
    total, rows, grads = 0.0, [], []
    for query_id, target, negs in ((a, b, negatives_forward), (b, a, negatives_backward)):
        loss, grad_query, side_rows, side_grads = sampled_softmax_loss_grad(
            table.values[query_id], table, target, negs)
        total += loss
        rows += [side_rows, [query_id]]
        grads += [side_grads, grad_query[None, :]]
    return total, np.concatenate(rows), np.concatenate(grads)


def _frozen_ffn_backward(d_out, e, pre, hidden, params, grads, prefix):
    d_hidden = d_out @ params.theta2.T
    grads.add_dense(f"{prefix}.theta2", hidden.T @ d_out)
    grads.add_dense(f"{prefix}.b2", d_out.sum(axis=0))
    d_pre = d_hidden * (pre > 0.0)
    grads.add_dense(f"{prefix}.theta1", e.T @ d_pre)
    grads.add_dense(f"{prefix}.b1", d_pre.sum(axis=0))
    return d_pre @ params.theta1.T


def frozen_aggregate_context_backward(d_context, cache, in_table, out_table, params,
                                      grads, param_prefix):
    length, dim = cache.e_in.shape
    d_h = np.tile(d_context / length, (length, 1))
    d_alpha = d_h @ cache.e_in.T
    d_e_in = cache.alpha.T @ d_h
    inner = (cache.alpha * d_alpha).sum(axis=1, keepdims=True)
    d_logits = cache.alpha * (d_alpha - inner)
    scale = 1.0 / np.sqrt(dim)
    d_f_in = d_logits @ cache.f_out * scale
    d_f_out = d_logits.T @ cache.f_in * scale
    d_e_in += _frozen_ffn_backward(d_f_in, cache.e_in, cache.b_in, cache.a_in, params, grads,
                                   param_prefix)
    d_e_out = _frozen_ffn_backward(d_f_out, cache.e_out, cache.b_out, cache.a_out, params, grads,
                                   param_prefix)
    pos_grad = np.zeros_like(params.positions)
    pos_grad[:length] = d_e_in + d_e_out
    grads.add_dense(f"{param_prefix}.positions", pos_grad)
    for k, entity in enumerate(cache.ids):
        grads.add_row(in_table.name, int(entity), d_e_in[k])
        grads.add_row(out_table.name, int(entity), d_e_out[k])


def frozen_sequence_loss_grad(ids, target, negatives, tables, params, task):
    _, in_name, out_name, score_name = TASK_WIRING[task]
    in_table, out_table, score_table = tables[in_name], tables[out_name], tables[score_name]
    negatives = np.asarray(negatives, dtype=np.int64)
    context, _, cache = oracle.aggregate_context(ids, in_table, out_table, params)
    grads = FrozenGradStore()
    z_t = score_table.values[target]
    score_t = float(context @ z_t)
    loss = -log_sigmoid(score_t)
    coeff_t = -sigmoid(-score_t)
    d_context = coeff_t * z_t
    grads.add_row(score_table.name, target, coeff_t * context)
    for neg in negatives:
        z_n = score_table.values[neg]
        score_n = float(context @ z_n)
        loss -= log_sigmoid(-score_n)
        coeff_n = sigmoid(score_n)
        d_context = d_context + coeff_n * z_n
        grads.add_row(score_table.name, int(neg), coeff_n * context)
    frozen_aggregate_context_backward(d_context, cache, in_table, out_table, params, grads, task)
    return float(loss), grads


def frozen_example_loss(task, example, params, samplers, k):
    if task == "substitute":
        a, b = example
        negs_f = samplers.item.sample(k, exclude={a, b})
        negs_b = samplers.item.sample(k, exclude={a, b})
        return frozen_substitution_loss(example, params.tables, negs_f, negs_b)
    if task == "isa":
        _item, labels = example
        negs = [samplers.category.sample(k, exclude=set(labels)) for _ in labels]
        return frozen_isa_example_loss(example, params, negs)
    context, target = example
    negs = samplers.item.sample(k, exclude={target})
    return frozen_sequence_loss_grad(np.asarray(context, dtype=np.int64), target, negs,
                                     params.tables, params.attn[task], task)


def frozen_train(config, tasks, params):
    """The training loop without validation, stepping through the frozen store."""
    active = {task: examples for task, examples in tasks.items() if examples}
    rng = np.random.default_rng(config.seed)
    samplers = _Samplers(params, active, config.seed)
    dense = params.dense_dict()
    steps_per_epoch = max(1, math.ceil(sum(map(len, active.values())) / config.batch_size))
    probs = oracle.task_probabilities(active, config.schedule)
    for _epoch in range(config.max_epochs):
        for _step in range(steps_per_epoch):
            task = oracle.sample_task(active, rng, config.schedule, probs)
            examples = active[task]
            batch_idx = rng.integers(0, len(examples), size=min(config.batch_size, len(examples)))
            grads = FrozenGradStore()
            for idx in batch_idx:
                _loss, example_grads = frozen_example_loss(
                    task, examples[int(idx)], params, samplers, config.negatives)
                grads.merge(example_grads)
            frozen_sgd_update(params.tables, grads, config.lr, dense)
    return params


# --- helpers -------------------------------------------------------------------

def frozen_store_of(grads):
    """The live format poured into the frozen store: rows added in array order."""
    store = FrozenGradStore()
    for name, rows in grads.rows.items():
        for row, grad in zip(rows, grads.row_grads[name]):
            store.add_row(name, int(row), grad)
    return store


def tables_of(rng, names, rows=9, dim=5):
    return {name: EmbeddingTable(name, rng.normal(0, 0.5, size=(rows, dim))) for name in names}


def copies(tables):
    return {name: table.copy() for name, table in tables.items()}


def assert_tables_equal(left, right):
    assert left.keys() == right.keys()
    for name in left:
        np.testing.assert_array_equal(left[name].values, right[name].values, err_msg=name)


# the bound of a rewritten path against the code it replaced
TOL = 1e-12


def assert_tables_close(left, right):
    assert left.keys() == right.keys()
    for name in left:
        np.testing.assert_allclose(left[name].values, right[name].values, rtol=0, atol=TOL,
                                   err_msg=name)


def assert_params_close(live, frozen):
    assert_tables_close(live.tables, frozen.tables)
    mine, theirs = live.dense_dict(), frozen.dense_dict()
    assert mine.keys() == theirs.keys()
    for name in mine:
        np.testing.assert_allclose(mine[name], theirs[name], rtol=0, atol=TOL, err_msg=name)


def tiny_params(seed, dim=6):
    config = ModelConfig(dim=dim, seed=seed,
                         seq_lens={"complement": 5, "co_view": 5, "search": 4, "describe": 7})
    return init_params(config, 14, 10, 6)


# --- one update per loss ---------------------------------------------------------

class TestOneUpdatePerLoss:
    @pytest.mark.parametrize("negatives", [[2, 5, 6], [5, 5, 2, 5], [7]])
    def test_sampled_softmax(self, negatives):
        rng = np.random.default_rng(len(negatives))
        tables = tables_of(rng, ["out"])
        query = rng.normal(0, 0.5, size=5)
        frozen = copies(tables)
        loss, grad_q, rows, grads = sampled_softmax_loss_grad(query, tables["out"], 3, negatives)
        old_loss, old_grad_q, store = frozen_sampled_softmax_loss_grad(
            query, frozen["out"], 3, negatives)
        assert loss == pytest.approx(old_loss, rel=0, abs=TOL)
        np.testing.assert_allclose(grad_q, old_grad_q, rtol=0, atol=TOL)
        sgd_update(tables, Grads({"out": rows}, {"out": grads}, {}), 0.1)
        frozen_sgd_update(frozen, store, 0.1)
        assert_tables_close(tables, frozen)

    def test_full_softmax(self):
        rng = np.random.default_rng(2)
        tables = tables_of(rng, ["out"])
        query = rng.normal(0, 0.5, size=5)
        frozen = copies(tables)
        loss, grad_q, rows, grads = softmax_full_loss_grad(query, tables["out"], 4)
        old_loss, old_grad_q, store = frozen_softmax_full_loss_grad(query, frozen["out"], 4)
        assert loss == old_loss
        np.testing.assert_array_equal(grad_q, old_grad_q)
        sgd_update(tables, Grads({"out": rows}, {"out": grads}, {}), 0.1)
        frozen_sgd_update(frozen, store, 0.1)
        assert_tables_equal(tables, frozen)

    @pytest.mark.parametrize("negs_f, negs_b", [
        ([3, 6], [5, 7]),              # disjoint
        ([3, 6, 3], [6, 7, 8]),        # a repeat forward, a shared id
        ([4, 4, 4], [4, 8, 6]),        # a forward repeat also drawn backward
        ([5, 7, 8], [6, 6, 3]),        # a backward repeat not drawn forward
    ])
    def test_substitution(self, negs_f, negs_b):
        rng = np.random.default_rng(len(negs_f) * 10 + len(negs_b))
        tables = tables_of(rng, ["item_in"])
        frozen = copies(tables)
        loss, grads = substitution_loss((1, 2), tables, np.array(negs_f), np.array(negs_b))
        old_loss, store = frozen_substitution_loss((1, 2), frozen, np.array(negs_f),
                                                   np.array(negs_b))
        assert loss == pytest.approx(old_loss, rel=0, abs=TOL)
        sgd_update(tables, grads, 0.1)
        frozen_sgd_update(frozen, store, 0.1)
        assert_tables_close(tables, frozen)

    def test_substitution_backward_repeat_of_a_forward_id_within_rounding(self):
        """The frozen store summed each direction before merging them, so an id
        drawn forward and twice backward was f + (b1 + b2); the row arrays sum
        it left to right, (f + b1) + b2, which may differ in the last bit."""
        worst = 0.0
        for seed in range(50):
            rng = np.random.default_rng(seed)
            tables = tables_of(rng, ["item_in"])
            frozen = copies(tables)
            negs_f, negs_b = np.array([3, 6, 8]), np.array([3, 3, 7])
            _, grads = substitution_loss((1, 2), tables, negs_f, negs_b)
            _, store = frozen_substitution_loss((1, 2), frozen, negs_f, negs_b)
            sgd_update(tables, grads, 0.1)
            frozen_sgd_update(frozen, store, 0.1)
            worst = max(worst, float(np.abs(tables["item_in"].values
                                            - frozen["item_in"].values).max()))
        assert worst <= 1e-15

    def test_isa(self):
        params = tiny_params(seed=4)
        frozen = params.copy()
        example = (3, (2, 5))
        negatives = np.array([[1, 4], [3, 3]])
        loss, grads = isa_example_loss([example], params, negatives)
        old_loss, store = frozen_isa_example_loss(example, frozen, list(negatives))
        assert loss == pytest.approx(old_loss, rel=0, abs=TOL)
        sgd_update(params.tables, grads, 0.1)
        frozen_sgd_update(frozen.tables, store, 0.1)
        assert_tables_close(params.tables, frozen.tables)

    @pytest.mark.parametrize("task", sorted(TASK_WIRING))
    @pytest.mark.parametrize("ids, negatives", [
        ([1, 4, 2, 7], [3, 8]),
        ([4, 1, 4, 4], [4, 1, 6]),      # repeated context id; negatives hit context ids
        ([9], [9, 9, 2]),               # one position; a negative drawn twice
    ])
    def test_sequence(self, task, ids, negatives):
        params = tiny_params(seed=sum(ids))
        rng = np.random.default_rng(len(ids))
        for table in params.tables.values():
            if table.geometry == EUCLIDEAN:
                table.values[1:] = rng.normal(0, 0.4, size=(table.rows - 1, table.dim))
        frozen = params.copy()
        ids, negatives = np.array(ids), np.array(negatives)
        loss, grads = sequence_loss_grad(ids, 5, negatives, params.tables,
                                         params.attn[task], task)
        old_loss, store = frozen_sequence_loss_grad(ids, 5, negatives, frozen.tables,
                                                    frozen.attn[task], task)
        assert loss == pytest.approx(old_loss, rel=0, abs=TOL)
        sgd_update(params.tables, grads, 0.1, params.dense_dict())
        frozen_sgd_update(frozen.tables, store, 0.1, frozen.dense_dict())
        assert_params_close(params, frozen)

    def test_live_rows_poured_into_the_frozen_store_give_its_sums(self):
        """The live row layout, carrying the unfused step's values (the fused
        step's values differ from them in the last bits), sums in emission
        order to exactly the frozen store's rows."""
        params = tiny_params(seed=12)
        ids, negatives = np.array([2, 3, 2, 2]), np.array([3, 7, 7])
        args = (ids, 6, negatives, params.tables, params.attn["describe"], "describe")
        _, grads = sequence_loss_grad(*args)
        _, rows, row_grads, dense = oracle.sequence_loss_grad(*args)
        _, store = frozen_sequence_loss_grad(*args)
        assert list(grads.rows) == list(rows)
        for name in rows:
            np.testing.assert_array_equal(grads.rows[name], rows[name], err_msg=name)
        poured = frozen_store_of(Grads(grads.rows, row_grads, dense))
        assert list(poured.rows) == list(store.rows)
        for name, per_table in store.rows.items():
            assert list(poured.rows[name]) == list(per_table)
            for row, grad in per_table.items():
                np.testing.assert_array_equal(poured.rows[name][row], grad)


# --- block steps against the per-example steps they replaced -------------------------

def random_pairs(rng, count, n_items):
    pairs = []
    while len(pairs) < count:
        a, b = (int(x) for x in rng.integers(1, n_items, size=2))
        if a != b:
            pairs.append((a, b))
    return pairs


def drawn_without(rng, excluded, k, n):
    return [int(x) for x in rng.permutation(np.arange(1, n)) if x not in excluded][:k]


class TestBlockSteps:
    def test_substitution_block_is_the_per_pair_path_bit_for_bit(self):
        """200 batches of 8 pairs at d = 100: the same rows, the same gradient
        rows and, after the update sums them, the same tables."""
        for seed in range(200):
            rng = np.random.default_rng(seed)
            tables = {"item_in": EmbeddingTable("item_in", rng.normal(0, 0.1, size=(40, 100)))}
            pairs = random_pairs(rng, 8, 12)     # few items, so pairs share some
            negs_f, negs_b = (np.array([drawn_without(rng, pair, 3, 40) for pair in pairs])
                              for _direction in range(2))
            loss, grads = substitution_loss(pairs, tables, negs_f, negs_b)
            parts = [per_pair_substitution_loss(pair, tables, f, b)
                     for pair, f, b in zip(pairs, negs_f, negs_b)]
            assert loss == pytest.approx(sum(part[0] for part in parts), rel=1e-12)
            rows = np.concatenate([part[1] for part in parts])
            row_grads = np.concatenate([part[2] for part in parts])
            np.testing.assert_array_equal(grads.rows["item_in"], rows)
            np.testing.assert_array_equal(grads.row_grads["item_in"], row_grads)
            frozen = copies(tables)
            sgd_update(tables, grads, 0.1)
            sgd_update(frozen, Grads({"item_in": rows}, {"item_in": row_grads}, {}), 0.1)
            assert_tables_equal(tables, frozen)

    def test_isa_block_agrees_with_the_per_example_loss(self):
        """200 batches of 8 products with one to three labels at d = 100."""
        for seed in range(200):
            rng = np.random.default_rng(seed)
            params = tiny_params(seed, dim=100)
            params.tables["category"].values[1:] = rng.uniform(-0.3, 0.3, size=(5, 100))
            examples = [(int(rng.integers(1, 14)),
                         tuple(int(c) for c in rng.choice(np.arange(1, 6), replace=False,
                                                          size=int(rng.integers(1, 4)))))
                        for _ in range(8)]
            negatives = np.array([[int(c) for c in rng.integers(1, 6, size=40)
                                   if c != label][:3]
                                  for _item, labels in examples for label in labels])
            frozen = params.copy()
            loss, grads = isa_example_loss(examples, params, negatives)
            store, total, start = FrozenGradStore(), 0.0, 0
            for example in examples:
                stop = start + len(example[1])
                example_loss, example_store = frozen_isa_example_loss(
                    example, frozen, list(negatives[start:stop]))
                total += example_loss
                store.merge(example_store)
                start = stop
            assert loss == pytest.approx(total, rel=0, abs=TOL)
            sgd_update(params.tables, grads, 0.1)
            frozen_sgd_update(frozen.tables, store, 0.1)
            assert_tables_close(params.tables, frozen.tables)

    @pytest.mark.parametrize("task", ["substitute", "isa"])
    def test_block_draws_are_the_per_example_draws(self, task, monkeypatch):
        """The block step draws the negative ids of the per-example step, in
        its order, and leaves both samplers where it left them."""
        import prodkg.trainer as trainer_module
        tasks = tiny_tasks(seed=8)
        examples = tasks[task]
        params = tiny_params(seed=3)
        live, frozen = _Samplers(params, tasks, 5), _Samplers(params, tasks, 5)
        seen = []
        loss_fn = "substitution_loss" if task == "substitute" else "isa_example_loss"
        real = getattr(trainer_module, loss_fn)

        def spy(batch, where, *negatives):
            seen.append(negatives)
            return real(batch, where, *negatives)
        monkeypatch.setattr(trainer_module, loss_fn, spy)
        batch_idx = np.array([3, 0, 3, 17, 9, 22, 5, 11])
        trainer_module._batch_loss(task, examples, batch_idx, params, live, 4)
        if task == "substitute":
            expected = [oracle.sample_negatives(frozen.item, 4, exclude=examples[idx])
                        for idx in batch_idx for _direction in range(2)]
            np.testing.assert_array_equal(seen[0][0], expected[0::2])
            np.testing.assert_array_equal(seen[0][1], expected[1::2])
        else:
            expected = [oracle.sample_negatives(frozen.category, 4,
                                                exclude=examples[idx][1])
                        for idx in batch_idx for _label in examples[idx][1]]
            np.testing.assert_array_equal(seen[0][0], expected)
        for name in ("item", "category"):
            assert getattr(live, name).rng.bit_generator.state == \
                getattr(frozen, name).rng.bit_generator.state


# --- whole training runs ------------------------------------------------------------

def tiny_tasks(seed, n_items=14, n_words=10, n_each=24):
    rng = np.random.default_rng(seed)

    def item():
        return int(rng.integers(1, n_items))

    subs = []
    while len(subs) < n_each:
        a, b = item(), item()
        if a != b:
            subs.append((a, b))

    def sequences(token, low, high):
        return [(tuple(token() for _ in range(int(rng.integers(low, high)))), item())
                for _ in range(n_each)]

    word = lambda: int(rng.integers(1, n_words))
    return {
        "substitute": subs,
        "complement": sequences(item, 1, 6),
        "co_view": sequences(item, 1, 6),
        "search": sequences(word, 1, 5),
        "describe": sequences(word, 2, 8),
        "isa": [(item(), (int(rng.integers(1, 6)), int(rng.integers(1, 6))))
                for _ in range(n_each)],
    }


class TestTrainingRuns:
    def test_per_example_run_agrees_to_1e12(self):
        tasks = tiny_tasks(seed=5)
        config = TrainConfig(max_epochs=2, seed=3, lr=0.1, batch_size=1)
        live = train(config, tasks, tiny_params(seed=9), validation=None).params
        frozen = frozen_train(config, tasks, tiny_params(seed=9))
        assert_params_close(live, frozen)
        assert not params_equal(live, tiny_params(seed=9))

    def test_batch_of_four_agrees_to_1e12(self):
        tasks = tiny_tasks(seed=6)
        config = TrainConfig(max_epochs=1, seed=4, lr=0.1, batch_size=4)
        live = train(config, tasks, tiny_params(seed=10), validation=None).params
        frozen = frozen_train(config, tasks, tiny_params(seed=10))
        assert_params_close(live, frozen)
        assert not params_equal(live, tiny_params(seed=10))
