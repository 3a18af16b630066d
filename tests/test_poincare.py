"""Ball geometry: distance, Riemannian updates, hierarchy pre-training and
the product-to-category loss."""

import tempfile

import numpy as np
import pytest

from prodkg.data import CATEGORY, ingest_dataset
from prodkg.embeddings import EmbeddingTable, NumericalError, new_table
from prodkg.gradcheck import grad_check
from prodkg.poincare import (
    BallConfig,
    check_forest,
    hierarchy_loss_grad,
    hierarchy_pretrain,
    poincare_distance,
    poincare_distance_grad,
    riemannian_update,
)
from prodkg.model import PkgParams
from prodkg.synth import SynthConfig, generate
from prodkg.trainer import isa_example_loss

# --- frozen per-edge reference ------------------------------------------------
# The per-point distance gradient, the per-point update and the per-edge
# pre-training loop that the row-batched versions replace, kept verbatim as
# the oracle the batched path must match.


def _ref_check_inside(vec, label):
    sq = float(vec @ vec)
    if sq >= 1.0:
        raise ValueError(f"{label} lies on or outside the unit ball (|x|^2 = {sq:.6f})")
    return sq


def _ref_distance_grad(x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    sq_x = _ref_check_inside(x, "x")
    sq_y = _ref_check_inside(y, "y")
    alpha = 1.0 - sq_x
    beta = 1.0 - sq_y
    diff = x - y
    sq_diff = float(diff @ diff)
    gamma = 1.0 + 2.0 * sq_diff / (alpha * beta)
    dist = float(np.arccosh(gamma))

    root = np.sqrt(max(gamma * gamma - 1.0, 1e-12))
    dot = float(x @ y)
    grad_x = (4.0 / (beta * root)) * (((sq_y - 2.0 * dot + 1.0) / alpha**2) * x - y / alpha)
    grad_y = (4.0 / (alpha * root)) * (((sq_x - 2.0 * dot + 1.0) / beta**2) * y - x / beta)
    return dist, grad_x, grad_y


def _ref_update(row, euclidean_grad, lr, config):
    if not np.all(np.isfinite(euclidean_grad)):
        raise NumericalError("non-finite gradient in ball update")
    sq = float(row @ row)
    if sq >= 1.0:
        raise ValueError("row lies on or outside the unit ball")
    factor = (1.0 - sq) ** 2 / 4.0
    updated = row - lr * factor * np.asarray(euclidean_grad, dtype=float)
    norm = float(np.linalg.norm(updated))
    limit = 1.0 - config.eps_ball
    if norm >= limit:
        updated = updated * (limit / norm)
    return updated


def _ref_loss_grad(parent, candidates, true_index, table):
    candidates = np.asarray(candidates, dtype=np.int64)
    parent_vec = table.values[parent]
    dists = np.empty(len(candidates))
    grad_cand = np.empty((len(candidates), table.dim))
    grad_par = np.empty((len(candidates), table.dim))
    for j, cand in enumerate(candidates):
        dists[j], grad_cand[j], grad_par[j] = _ref_distance_grad(table.values[cand], parent_vec)
    logits = -dists
    peak = logits.max()
    probs = np.exp(logits - peak)
    probs /= probs.sum()
    loss = float(-np.log(probs[true_index]))
    coeffs = -probs
    coeffs[true_index] += 1.0
    grads = {}
    for j, cand in enumerate(candidates):
        key = int(cand)
        grads[key] = grads.get(key, 0.0) + coeffs[j] * grad_cand[j]
    grads[parent] = grads.get(parent, 0.0) + coeffs @ grad_par
    return loss, grads


def _ref_pretrain(edges, table, config, epochs=50, negatives=10, seed=0):
    check_forest(edges)
    children_of = {}
    for child, par in edges:
        children_of.setdefault(par, set()).add(child)
    all_ids = np.arange(1, table.rows)
    rng = np.random.default_rng(seed)
    edge_list = list(edges)
    losses = []
    for epoch in range(epochs):
        lr = config.lr / 10.0 if epoch < config.burn_in_epochs else config.lr
        order = rng.permutation(len(edge_list))
        total = 0.0
        for idx in order:
            child, par = edge_list[idx]
            banned = {child, par} | children_of.get(par, set())
            pool = np.array([i for i in all_ids if i not in banned], dtype=np.int64)
            if pool.size == 0:
                continue
            negs = rng.choice(pool, size=min(negatives, pool.size), replace=False)
            candidates = np.concatenate(([child], negs))
            loss, grads = _ref_loss_grad(par, candidates, 0, table)
            total += loss
            for row, grad in grads.items():
                table.values[row] = _ref_update(table.values[row], grad, lr, config)
        losses.append(total / max(len(edge_list), 1))
    table.validate(config.eps_ball)
    return losses


# Batched and per-point arithmetic differ only in summation order: a few ulps
# per operation, compounded over a pre-training run.
PARITY_TOL = 1e-12


class TestDistance:
    def test_zero_at_identical_points(self):
        x = np.array([0.3, -0.2, 0.1])
        assert poincare_distance(x, x) == 0.0

    def test_worked_value_ln3(self):
        dist = poincare_distance(np.array([0.5, 0.0]), np.array([0.0, 0.0]))
        assert dist == pytest.approx(np.log(3.0), abs=1e-9)

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            x = rng.uniform(-0.5, 0.5, size=4)
            y = rng.uniform(-0.5, 0.5, size=4)
            assert poincare_distance(x, y) == pytest.approx(poincare_distance(y, x), abs=1e-12)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            x, y, z = (rng.uniform(-0.55, 0.55, size=3) for _ in range(3))
            assert (poincare_distance(x, z)
                    <= poincare_distance(x, y) + poincare_distance(y, z) + 1e-9)

    def test_point_outside_ball_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            poincare_distance(np.array([1.0, 0.0]), np.zeros(2))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(-0.4, 0.4, size=3)
        y = rng.uniform(-0.4, 0.4, size=3)

        def loss_fn(p):
            dist, gx, gy = poincare_distance_grad(p["x"], p["y"])
            return dist, {"x": gx, "y": gy}

        report = grad_check(loss_fn, {"x": x, "y": y}, eps=1e-6)
        assert report.max_rel_error < 1e-4


class TestRiemannianUpdate:
    def test_metric_factor_at_origin(self):
        """At the origin the inverse-metric factor is exactly 1/4."""
        row = np.zeros(3)
        grad = np.array([1.0, 0.0, 0.0])
        updated = riemannian_update(row, grad, lr=1.0, config=BallConfig())
        np.testing.assert_allclose(updated, [-0.25, 0.0, 0.0], atol=1e-15)

    def test_zero_gradient_no_change(self):
        row = np.array([0.2, -0.1])
        updated = riemannian_update(row, np.zeros(2), lr=0.5, config=BallConfig())
        np.testing.assert_array_equal(updated, row)

    def test_projection_to_boundary_margin(self):
        config = BallConfig(eps_ball=1e-5)
        row = np.array([0.5, 0.0])
        updated = riemannian_update(row, np.array([-1e6, 0.0]), lr=1.0, config=config)
        assert np.linalg.norm(updated) == pytest.approx(1.0 - 1e-5, abs=1e-12)

    def test_direction_matches_euclidean_gradient(self):
        rng = np.random.default_rng(3)
        row = rng.uniform(-0.3, 0.3, size=4)
        grad = rng.normal(size=4)
        updated = riemannian_update(row, grad, lr=0.01, config=BallConfig())
        step = updated - row
        cosine = step @ grad / (np.linalg.norm(step) * np.linalg.norm(grad))
        assert cosine == pytest.approx(-1.0, abs=1e-12)

    def test_containment_under_repeated_updates(self):
        config = BallConfig()
        rng = np.random.default_rng(4)
        row = np.zeros(3)
        for _ in range(500):
            row = riemannian_update(row, rng.normal(scale=5.0, size=3), lr=0.1, config=config)
            assert np.linalg.norm(row) <= 1.0 - config.eps_ball + 1e-12

    def test_non_finite_gradient_rejected(self):
        from prodkg.embeddings import NumericalError
        with pytest.raises(NumericalError):
            riemannian_update(np.zeros(2), np.array([np.nan, 0.0]), 0.1, BallConfig())


class TestForest:
    def test_two_parents_rejected(self):
        with pytest.raises(ValueError, match="two parents"):
            check_forest([(1, 2), (1, 3)])

    def test_cycle_rejected(self):
        with pytest.raises(ValueError, match="cycle"):
            check_forest([(1, 2), (2, 3), (3, 1)])

    def test_valid_forest_parent_map(self):
        parent = check_forest([(1, 3), (2, 3), (3, 4)])
        assert parent == {1: 3, 2: 3, 3: 4}


class TestHierarchyLoss:
    def test_all_at_origin_gives_uniform_softmax(self):
        """Every distance zero: the full-candidate loss is log |C|."""
        n_categories = 9
        values = np.zeros((n_categories + 1, 3))
        table = EmbeddingTable("category", values, "poincare")
        candidates = np.arange(1, n_categories + 1)
        loss, _, _ = hierarchy_loss_grad(2, candidates, 0, table)
        assert loss == pytest.approx(np.log(n_categories), abs=1e-12)

    def test_rows_are_candidates_then_parent_and_match_reference(self):
        rng = np.random.default_rng(11)
        table = EmbeddingTable("category", rng.uniform(-0.4, 0.4, size=(9, 4)), "poincare")
        candidates = np.array([3, 7, 2, 5])
        loss, rows, grads = hierarchy_loss_grad(1, candidates, 0, table)
        ref_loss, ref_grads = _ref_loss_grad(1, candidates, 0, table)
        np.testing.assert_array_equal(rows, [3, 7, 2, 5, 1])
        assert grads.shape == (5, 4)
        assert loss == pytest.approx(ref_loss, abs=PARITY_TOL)
        for row, grad in zip(rows, grads):
            np.testing.assert_allclose(grad, ref_grads[int(row)], rtol=0, atol=PARITY_TOL)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        values = rng.uniform(-0.4, 0.4, size=(8, 4))
        values[0] = 0.0
        candidates = np.array([2, 4, 6])

        def loss_fn(p):
            table = EmbeddingTable("category", p["cat"], "poincare")
            loss, rows, grads = hierarchy_loss_grad(1, candidates, 0, table)
            dense = np.zeros_like(p["cat"])
            np.add.at(dense, rows, grads)
            return loss, {"cat": dense}

        report = grad_check(loss_fn, {"cat": values}, eps=1e-6)
        assert report.max_rel_error < 1e-4


def balanced_tree_edges(branching=(3, 3)):
    """Root id 1; children per level as given. Returns (edges, level map)."""
    edges = []
    level_of = {1: 0}
    next_id = 2
    frontier = [1]
    for depth, width in enumerate(branching, start=1):
        new_frontier = []
        for parent in frontier:
            for _ in range(width):
                edges.append((next_id, parent))
                level_of[next_id] = depth
                new_frontier.append(next_id)
                next_id += 1
        frontier = new_frontier
    return edges, level_of


class TestHierarchyPretrain:
    def test_child_closer_than_unrelated_after_training(self):
        """Two separate parent/child pairs must end up nearer within-pair."""
        table = new_table("category", 6, 5, np.random.default_rng(7), geometry="poincare")
        edges = [(2, 1), (4, 3)]
        hierarchy_pretrain(edges, table, BallConfig(burn_in_epochs=2), epochs=200,
                           negatives=2, seed=7)
        within = poincare_distance(table.values[2], table.values[1])
        across = min(poincare_distance(table.values[2], table.values[3]),
                     poincare_distance(table.values[2], table.values[4]))
        assert within < across

    def test_rows_stay_inside_ball(self):
        table = new_table("category", 14, 4, np.random.default_rng(8), geometry="poincare")
        edges, _ = balanced_tree_edges((3, 3))
        config = BallConfig()
        hierarchy_pretrain(edges, table, config, epochs=30, negatives=4, seed=1)
        norms = np.linalg.norm(table.values[1:], axis=1)
        assert np.all(norms <= 1.0 - config.eps_ball + 1e-12)

    def test_leaves_pushed_outward(self):
        """After pre-training a balanced tree, leaves sit at larger norms than the root."""
        edges, level_of = balanced_tree_edges((3, 3))
        table = new_table("category", len(level_of) + 1, 5,
                          np.random.default_rng(9), geometry="poincare")
        hierarchy_pretrain(edges, table, BallConfig(), epochs=60, negatives=5, seed=3)
        norms = np.linalg.norm(table.values, axis=1)
        leaf_norms = [norms[i] for i, lvl in level_of.items() if lvl == 2]
        root_norms = [norms[i] for i, lvl in level_of.items() if lvl == 0]
        assert np.mean(leaf_norms) > np.mean(root_norms)

    def test_euclidean_table_rejected(self):
        table = new_table("category", 4, 3, np.random.default_rng(0))
        with pytest.raises(ValueError, match="ball-geometry"):
            hierarchy_pretrain([(1, 2)], table, BallConfig())


class TestBatchedGeometry:
    """Row stacks through the one implementation agree with the per-point reference."""

    def test_distance_grad_rows_match_scalar(self):
        rng = np.random.default_rng(12)
        stack = rng.uniform(-0.45, 0.45, size=(7, 5))
        point = rng.uniform(-0.45, 0.45, size=5)
        others = rng.uniform(-0.45, 0.45, size=(7, 5))
        for x, y in ((stack, point), (stack, others)):
            dist, grad_x, grad_y = poincare_distance_grad(x, y)
            assert dist.shape == (7,) and grad_x.shape == grad_y.shape == (7, 5)
            for j in range(7):
                y_j = y if y.ndim == 1 else y[j]
                ref = _ref_distance_grad(x[j], y_j)
                single = poincare_distance_grad(x[j], y_j)
                for got, want in zip((dist[j], grad_x[j], grad_y[j]), ref):
                    np.testing.assert_allclose(got, want, rtol=PARITY_TOL, atol=PARITY_TOL)
                for got, want in zip(single, ref):
                    np.testing.assert_allclose(got, want, rtol=PARITY_TOL, atol=PARITY_TOL)

    def test_update_rows_match_scalar(self):
        """Includes rows pushed past the margin, so projection runs on some rows only."""
        config = BallConfig()
        rng = np.random.default_rng(13)
        rows = rng.uniform(-0.5, 0.5, size=(6, 4))
        grads = rng.normal(size=(6, 4))
        grads[[1, 4]] *= 1e6
        updated = riemannian_update(rows, grads, 0.1, config)
        for j in range(6):
            np.testing.assert_allclose(updated[j], _ref_update(rows[j], grads[j], 0.1, config),
                                       rtol=PARITY_TOL, atol=PARITY_TOL)
            np.testing.assert_allclose(riemannian_update(rows[j], grads[j], 0.1, config),
                                       updated[j], rtol=PARITY_TOL, atol=PARITY_TOL)
        norms = np.linalg.norm(updated, axis=1)
        assert norms[1] == pytest.approx(1.0 - config.eps_ball, abs=1e-12)
        assert np.all(norms <= 1.0 - config.eps_ball + 1e-12)

    def test_outside_ball_row_in_stack_rejected(self):
        stack = np.array([[0.1, 0.2], [0.6, 0.8], [0.0, 0.3]])
        with pytest.raises(ValueError, match="x lies on or outside"):
            poincare_distance_grad(stack, np.zeros(2))
        with pytest.raises(ValueError, match="outside"):
            riemannian_update(stack, np.zeros((3, 2)), 0.1, BallConfig())

    def test_nan_gradient_in_stack_rejected(self):
        grads = np.zeros((3, 2))
        grads[2, 0] = np.nan
        with pytest.raises(NumericalError):
            riemannian_update(np.zeros((3, 2)), grads, 0.1, BallConfig())


def synth_forest():
    """Category edges and table size of a small ``prodkg.synth`` catalog, as ingested."""
    config = SynthConfig(n_items=120, n_clusters=20, n_words=100, n_sessions=60,
                         n_searches=20, n_substitutions=20, tree_branching=(4, 3, 2, 2), seed=5)
    with tempfile.TemporaryDirectory() as out:
        paths, _ = generate(config, out)
        dataset = ingest_dataset({"catalog": paths["catalog"],
                                  "category_edges": paths["category_edges"]})
    return dataset.category_edges, dataset.vocab[CATEGORY].size


class TestPretrainParity:
    """The row-batched pre-training reproduces the per-edge SGD it replaced."""

    @staticmethod
    def assert_matches_reference(edges, rows, dim, epochs, negatives, seed):
        config = BallConfig(burn_in_epochs=epochs // 3)
        start = new_table("category", rows, dim, np.random.default_rng(seed), geometry="poincare")
        batched = EmbeddingTable("category", start.values.copy(), "poincare")
        reference = EmbeddingTable("category", start.values.copy(), "poincare")
        losses = hierarchy_pretrain(edges, batched, config, epochs=epochs,
                                    negatives=negatives, seed=seed)
        ref_losses = _ref_pretrain(edges, reference, config, epochs=epochs,
                                   negatives=negatives, seed=seed)
        assert len(losses) == len(ref_losses) == epochs
        np.testing.assert_allclose(losses, ref_losses, rtol=0, atol=PARITY_TOL)
        np.testing.assert_allclose(batched.values, reference.values, rtol=0, atol=PARITY_TOL)
        assert not np.array_equal(batched.values, start.values)

    def test_balanced_tree(self):
        edges, level_of = balanced_tree_edges((3, 3))
        self.assert_matches_reference(edges, len(level_of) + 1, 5, epochs=30, negatives=4,
                                      seed=3)

    def test_synth_category_forest(self):
        edges, rows = synth_forest()
        assert len(edges) == 4 * 3 + 4 * 3 * 2 + 4 * 3 * 2 * 2
        self.assert_matches_reference(edges, rows, 8, epochs=12, negatives=10, seed=1)

    def test_outside_ball_row_rejected(self):
        edges, level_of = balanced_tree_edges((2,))
        table = new_table("category", len(level_of) + 3, 2, np.random.default_rng(0),
                          geometry="poincare")
        table.values[1] = [0.6, 0.8]
        with pytest.raises(ValueError, match="outside"):
            hierarchy_pretrain(edges, table, BallConfig(), epochs=1, negatives=1)


def isa_params(categories: EmbeddingTable, items: np.ndarray) -> PkgParams:
    """The two tables the isa loss reads: products and frozen categories."""
    return PkgParams({"item_in": EmbeddingTable("item_in", items), "category": categories},
                     {}, categories.dim)


class TestIsaLoss:
    def test_zero_item_vector_value(self):
        """Zero logits: |labels| * (1 + k) * log 2."""
        table = new_table("category", 8, 4, np.random.default_rng(1), geometry="poincare")
        loss, grads = isa_example_loss([(1, (2, 5))], isa_params(table, np.zeros((3, 4))),
                                       np.array([[3, 4, 6], [1, 3, 7]]))
        assert loss == pytest.approx(2 * 4 * np.log(2), abs=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        table = EmbeddingTable("category", rng.uniform(-0.4, 0.4, size=(7, 5)), "poincare")
        items = rng.normal(0, 0.5, size=(3, 5))
        negatives = np.array([[3, 6], [1, 4]])

        def loss_fn(p):
            loss, grads = isa_example_loss([(1, (2, 5))], isa_params(table, p["item_in"]),
                                           negatives)
            dense = np.zeros_like(p["item_in"])
            np.add.at(dense, grads.rows["item_in"], grads.row_grads["item_in"])
            return loss, {"item_in": dense}

        report = grad_check(loss_fn, {"item_in": items}, eps=1e-6)
        assert report.max_rel_error < 1e-4

    def test_no_gradient_flows_to_categories(self):
        """The loss only returns product-side gradient rows; perturbing C
        afterwards cannot retroactively change them (freezing contract at
        the API level)."""
        rng = np.random.default_rng(7)
        table = EmbeddingTable("category", rng.uniform(-0.3, 0.3, size=(6, 3)), "poincare")
        params = isa_params(table, rng.normal(size=(3, 3)))
        loss, grads = isa_example_loss([(2, (1,))], params, np.array([[2, 3]]))
        assert list(grads.rows) == ["item_in"]
        assert grads.row_grads["item_in"].shape == (1, 3)
        frozen = table.values.copy()
        loss2, _ = isa_example_loss([(2, (1,))], params, np.array([[2, 3]]))
        assert loss2 == loss
        np.testing.assert_array_equal(table.values, frozen)

    def test_empty_labels_rejected(self):
        table = new_table("category", 4, 2, np.random.default_rng(0), geometry="poincare")
        with pytest.raises(ValueError, match="empty label"):
            isa_example_loss([(1, ())], isa_params(table, np.zeros((2, 2))),
                             np.empty((0, 1), dtype=np.int64))
