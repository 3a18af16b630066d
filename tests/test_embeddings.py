"""Embedding tables, the negative sampler, losses and the SGD updater."""

import numpy as np
import pytest

from prodkg.embeddings import (
    EUCLIDEAN,
    PAD_ID,
    POINCARE,
    EmbeddingTable,
    Grads,
    NegativeSampler,
    NumericalError,
    new_table,
    read_table_tsv,
    sampled_softmax_loss_grad,
    sgd_update,
    softmax_full_loss_grad,
    softmax_logprob_full,
    write_table_tsv,
)
from prodkg.gradcheck import grad_check


def row_grads(emitted):
    """Grads from (table, row, gradient) triples in emission order."""
    rows, grads = {}, {}
    for name, row, grad in emitted:
        rows.setdefault(name, []).append(row)
        grads.setdefault(name, []).append(np.asarray(grad, dtype=float))
    return Grads({name: np.array(ids, dtype=np.int64) for name, ids in rows.items()},
                 {name: np.vstack(g) for name, g in grads.items()}, {})


def dense_rows(shape_source, rows, grads):
    dense = np.zeros_like(shape_source)
    np.add.at(dense, rows, grads)
    return dense


class TestInit:
    def test_seed_determinism(self):
        a = new_table("t", 11, 7, np.random.default_rng(7))
        b = new_table("t", 11, 7, np.random.default_rng(7))
        np.testing.assert_array_equal(a.values, b.values)

    def test_paper_default_dimension(self):
        table = new_table("t", 5, 100, np.random.default_rng(0))
        assert table.values.shape == (5, 100)

    def test_euclidean_init_range(self):
        d = 20
        table = new_table("t", 500, d, np.random.default_rng(1))
        assert np.all(np.abs(table.values) <= 0.5 / d)

    def test_ball_init_tiny_norms(self):
        table = new_table("t", 200, 50, np.random.default_rng(2), geometry=POINCARE)
        assert np.linalg.norm(table.values, axis=1).max() < 0.01

    def test_pad_row_zero(self):
        table = new_table("t", 4, 3, np.random.default_rng(3))
        np.testing.assert_array_equal(table.values[PAD_ID], 0.0)

    def test_zero_shape_rejected(self):
        with pytest.raises(ValueError):
            new_table("t", 0, 3, np.random.default_rng(0))
        with pytest.raises(ValueError):
            new_table("t", 3, 0, np.random.default_rng(0))


class TestNegativeSampler:
    def test_smoothed_unigram_frequencies(self):
        """counts (3,1) with exponent 0.75 give P(a) = 3^0.75/(3^0.75+1)."""
        counts = np.array([0.0, 3.0, 1.0])
        sampler = NegativeSampler(counts, seed=5)
        expected = 3 ** 0.75 / (3 ** 0.75 + 1)
        assert expected == pytest.approx(0.6951, abs=1e-4)
        draws = sampler.sample(100_000)
        freq_a = np.mean(draws == 1)
        assert abs(freq_a - expected) < 0.01

    def test_never_pad_never_excluded(self):
        counts = np.array([0.0, 5.0, 1.0, 2.0, 8.0])
        sampler = NegativeSampler(counts, seed=9)
        draws = sampler.sample(100_000, exclude={2})
        assert not np.any(draws == PAD_ID)
        assert not np.any(draws == 2)

    def test_forced_choice(self):
        counts = np.array([0.0, 1.0, 1.0])
        sampler = NegativeSampler(counts, seed=0)
        draws = sampler.sample(1000, exclude={1})
        assert np.all(draws == 2)

    def test_exclusions_covering_vocab_error(self):
        sampler = NegativeSampler(np.array([0.0, 1.0, 1.0]), seed=0)
        with pytest.raises(ValueError, match="cover"):
            sampler.sample(1, exclude={1, 2})

    def test_k_must_be_positive(self):
        sampler = NegativeSampler(np.array([0.0, 1.0]), seed=0)
        with pytest.raises(ValueError):
            sampler.sample(0)


class TestFullSoftmax:
    def test_uniform_when_rows_equal(self):
        table = EmbeddingTable("o", np.vstack([np.zeros(3)] + [np.ones(3)] * 6))
        logp = softmax_logprob_full(np.array([0.3, -0.2, 0.5]), table, 4)
        assert logp == pytest.approx(np.log(1.0 / 6), abs=1e-12)

    def test_two_term_hand_value(self):
        """q.z_a = 1, q.z_b = 0 gives log p(a) = 1 - log(e + 1)."""
        table = EmbeddingTable("o", np.array([[0.0], [1.0], [0.0]]))
        logp = softmax_logprob_full(np.array([1.0]), table, 1)
        assert logp == pytest.approx(1 - np.log(np.e + 1), abs=1e-12)
        assert logp == pytest.approx(-0.3133, abs=1e-4)

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(4)
        table = EmbeddingTable("o", rng.normal(size=(1000, 8)))
        query = rng.normal(size=8)
        total = sum(np.exp(softmax_logprob_full(query, table, t))
                    for t in range(1, 1000))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_pad_target_rejected(self):
        table = EmbeddingTable("o", np.ones((3, 2)))
        with pytest.raises(ValueError):
            softmax_logprob_full(np.ones(2), table, PAD_ID)

    def test_non_finite_query_rejected(self):
        table = EmbeddingTable("o", np.ones((3, 2)))
        with pytest.raises(NumericalError):
            softmax_logprob_full(np.array([np.nan, 1.0]), table, 1)


class TestSampledLoss:
    def test_zero_logits_value(self):
        """q = 0 makes every logistic term 1/2: loss = (1+k) log 2."""
        table = EmbeddingTable("o", np.ones((6, 4)))
        loss, grad_q, _, _ = sampled_softmax_loss_grad(np.zeros(4), table, 1,
                                                       np.array([2, 3, 4]))
        assert loss == pytest.approx(4 * np.log(2), abs=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(12)
        values = rng.normal(0, 0.5, size=(7, 5))
        query = rng.normal(0, 0.5, size=5)
        negatives = np.array([2, 4, 4])

        def loss_fn(p):
            table = EmbeddingTable("o", p["out"])
            loss, grad_q, rows, grads = sampled_softmax_loss_grad(p["q"], table, 3, negatives)
            return loss, {"q": grad_q, "out": dense_rows(p["out"], rows, grads)}

        report = grad_check(loss_fn, {"q": query, "out": values}, eps=1e-5)
        assert report.max_rel_error < 1e-4

    def test_full_softmax_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(13)
        values = rng.normal(0, 0.5, size=(6, 4))
        query = rng.normal(0, 0.5, size=4)

        def loss_fn(p):
            table = EmbeddingTable("o", p["out"])
            loss, grad_q, rows, grads = softmax_full_loss_grad(p["q"], table, 2)
            return loss, {"q": grad_q, "out": dense_rows(p["out"], rows, grads)}

        report = grad_check(loss_fn, {"q": query, "out": values}, eps=1e-5)
        assert report.max_rel_error < 1e-4

    def test_target_among_negatives_rejected(self):
        table = EmbeddingTable("o", np.ones((5, 2)))
        with pytest.raises(ValueError, match="among negatives"):
            sampled_softmax_loss_grad(np.ones(2), table, 2, np.array([2, 3]))


class TestSgd:
    def test_zero_gradient_no_change(self):
        table = new_table("t", 4, 3, np.random.default_rng(0))
        before = table.values.copy()
        sgd_update({"t": table}, row_grads([("t", 2, np.zeros(3))]), lr=0.1)
        np.testing.assert_array_equal(table.values, before)

    def test_row_arithmetic(self):
        table = EmbeddingTable("t", np.array([[0.0, 0.0], [1.0, 1.0]]))
        sgd_update({"t": table}, row_grads([("t", 1, [1.0, 0.0])]), lr=0.1)
        np.testing.assert_allclose(table.values[1], [0.9, 1.0])

    def test_paper_grid_rates_accepted(self):
        for lr in (0.001, 0.005, 0.01, 0.1):
            table = EmbeddingTable("t", np.ones((2, 2)))
            sgd_update({"t": table}, row_grads([("t", 1, np.ones(2))]), lr=lr)

    def test_ball_table_rejected(self):
        table = EmbeddingTable("t", np.zeros((3, 2)), geometry=POINCARE)
        with pytest.raises(ValueError, match="Riemannian"):
            sgd_update({"t": table}, row_grads([("t", 1, np.ones(2))]), lr=0.1)

    def test_non_finite_gradient_names_table_and_row(self):
        table = EmbeddingTable("t", np.zeros((3, 2)))
        with pytest.raises(NumericalError, match=r"'t' row 2"):
            sgd_update({"t": table}, row_grads([("t", 2, [np.inf, 0.0])]), lr=0.1)

    def test_several_rows_match_per_row_steps_exactly(self):
        rng = np.random.default_rng(3)
        table = EmbeddingTable("t", rng.normal(size=(7, 4)))
        other = EmbeddingTable("u", rng.normal(size=(5, 4)))
        emitted = [(name, row, rng.normal(size=4))
                   for name, row in (("t", 5), ("u", 2), ("t", 1), ("t", 3), ("u", 4))]
        emitted.append(("t", 5, rng.normal(size=4)))
        summed = {}
        for name, row, grad in emitted:
            key = (name, row)
            summed[key] = summed[key] + grad if key in summed else grad.copy()
        expected = {"t": table.values.copy(), "u": other.values.copy()}
        for (name, row), grad in summed.items():
            expected[name][row] -= 0.05 * grad
        sgd_update({"t": table, "u": other}, row_grads(emitted), lr=0.05)
        np.testing.assert_array_equal(table.values, expected["t"])
        np.testing.assert_array_equal(other.values, expected["u"])

    def test_repeated_id_sums_left_to_right(self):
        rng = np.random.default_rng(5)
        table = EmbeddingTable("t", rng.normal(size=(4, 3)))
        grads = rng.normal(size=(40, 3)) * 10.0 ** rng.integers(-6, 6, size=(40, 1))
        total = grads[0].copy()
        for grad in grads[1:]:
            total = total + grad
        expected = table.values.copy()
        expected[2] -= 0.1 * total
        sgd_update({"t": table}, Grads({"t": np.full(40, 2)}, {"t": grads}, {}), lr=0.1)
        np.testing.assert_array_equal(table.values, expected)

    def test_first_non_finite_row_named_among_several(self):
        table = EmbeddingTable("t", np.zeros((6, 2)))
        grads = row_grads([("t", 1, np.ones(2)), ("t", 4, [0.0, np.nan]),
                           ("t", 2, [np.inf, 0.0])])
        with pytest.raises(NumericalError, match=r"'t' row 4"):
            sgd_update({"t": table}, grads, lr=0.1)

    def test_pad_row_gradient_rejected(self):
        table = EmbeddingTable("t", np.zeros((3, 2)))
        with pytest.raises(ValueError, match="PAD"):
            sgd_update({"t": table}, row_grads([("t", PAD_ID, np.ones(2))]), lr=0.1)

    def test_dense_prefix_gradient_steps_only_its_rows(self):
        positions = np.arange(12, dtype=float).reshape(6, 2)
        bias = np.ones(2)
        dense = {"p.positions": positions, "p.b": bias}
        grads = Grads({}, {}, {"p.positions": np.ones((2, 2)), "p.b": np.full(2, 2.0)})
        sgd_update({}, grads, lr=0.5, dense_params=dense)
        np.testing.assert_array_equal(positions[:2], np.arange(4.0).reshape(2, 2) - 0.5)
        np.testing.assert_array_equal(positions[2:], np.arange(4.0, 12.0).reshape(4, 2))
        np.testing.assert_array_equal(bias, [0.0, 0.0])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_rows_whose_sum_overflows_are_named(self):
        table = EmbeddingTable("t", np.zeros((4, 1)))
        grads = row_grads([("t", 1, [1.0]), ("t", 3, [1e308]), ("t", 3, [1e308])])
        with pytest.raises(NumericalError, match=r"'t' row 3"):
            sgd_update({"t": table}, grads, lr=0.1)
        np.testing.assert_array_equal(table.values, 0.0)

    def test_convex_loss_decreases_monotonically(self):
        """Least squares under fixed lr 0.01 must descend for 100 steps."""
        rng = np.random.default_rng(8)
        design = rng.normal(size=(30, 6))
        target = rng.normal(size=30)
        table = EmbeddingTable("theta", np.vstack([np.zeros(6), rng.normal(size=6)]))
        losses = []
        for _ in range(100):
            residual = design @ table.values[1] - target
            losses.append(0.5 * float(residual @ residual))
            sgd_update({"theta": table}, row_grads([("theta", 1, design.T @ residual)]),
                       lr=0.01)
        assert all(b < a for a, b in zip(losses, losses[1:]))


class TestTableIO:
    def test_round_trip(self, tmp_path):
        table = new_table("word", 6, 5, np.random.default_rng(3))
        keys = ["<pad>", "a", "b", "c", "d", "e"]
        path = tmp_path / "emb.tsv"
        write_table_tsv(path, table, keys)
        loaded, loaded_keys = read_table_tsv(path, "word")
        assert loaded_keys == keys
        assert loaded.geometry == EUCLIDEAN
        np.testing.assert_allclose(loaded.values, table.values, rtol=1e-8)

    def test_geometry_metadata_preserved(self, tmp_path):
        table = new_table("cat", 3, 2, np.random.default_rng(0), geometry=POINCARE)
        path = tmp_path / "cat.tsv"
        write_table_tsv(path, table, ["<pad>", "x", "y"])
        assert path.read_text().startswith("# geometry=poincare\n")
        loaded, _ = read_table_tsv(path, "cat")
        assert loaded.geometry == POINCARE
