"""Triple-baseline scorers, losses, constraints and training."""

import numpy as np
import pytest

from prodkg.baselines import (
    TRANSLATIONAL,
    VARIANTS,
    KgConfig,
    KgModel,
    KgSpace,
    apply_grads,
    circular_correlation,
    corrupt,
    graph_triples,
    hit_at_k,
    kg_score_grad,
    margin_loss,
    score_tail_block,
    tail_ranks,
    train_kg,
)
from prodkg.embeddings import NumericalError, log_sigmoid, sigmoid
from prodkg.verification import run_gradient_sweep

VARIANT_NORMS = [(v, n) for v in VARIANTS for n in (("l2", "l1") if v in TRANSLATIONAL else ("l2",))]

# --- frozen per-triple training step ------------------------------------------------
# The dict-of-(name, index) gradient path that the minibatch step replaced:
# one triple's score and gradients, one positive's loss against its
# negatives, and the per-key SGD step, verbatim.  The batched step must match
# it to 1e-12.


def _frozen_norm_and_grad(diff, norm):
    if norm == "l1":
        return float(np.abs(diff).sum()), np.sign(diff)
    value = float(np.linalg.norm(diff))
    if value == 0.0:
        return 0.0, np.zeros_like(diff)
    return value, diff / value


def _frozen_kg_score_grad(model, triple):
    h_i, r_i, t_i = triple
    p = model.params
    h, r, t = p["ent"][h_i], p["rel"][r_i], p["ent"][t_i]
    norm = model.config.norm
    grads = {}

    def add(name, idx, grad):
        key = (name, idx)
        grads[key] = grads.get(key, 0.0) + grad

    variant = model.variant
    if variant == "transE":
        value, g = _frozen_norm_and_grad(h + r - t, norm)
        score = -value
        add("ent", h_i, -g)
        add("rel", r_i, -g)
        add("ent", t_i, g)
    elif variant == "transH":
        w = p["w"][r_i]
        h_p = h - (w @ h) * w
        t_p = t - (w @ t) * w
        value, g = _frozen_norm_and_grad(h_p + r - t_p, norm)
        score = -value
        g = -g  # gradient of score = -|.|
        add("ent", h_i, g - (w @ g) * w)
        add("ent", t_i, -(g - (w @ g) * w))
        add("rel", r_i, g)
        add("w", r_i, -((g @ w) * h + (w @ h) * g) + ((g @ w) * t + (w @ t) * g))
    elif variant == "transR":
        m = p["proj"][r_i]
        value, g = _frozen_norm_and_grad(m @ h + r - m @ t, norm)
        score = -value
        g = -g
        add("ent", h_i, m.T @ g)
        add("ent", t_i, -(m.T @ g))
        add("rel", r_i, g)
        add("proj", r_i, np.outer(g, h - t))
    elif variant == "transD":
        h_v, t_v = p["ent_p"][h_i], p["ent_p"][t_i]
        r_v = p["rel_p"][r_i]
        h_p = h + (h_v @ h) * r_v
        t_p = t + (t_v @ t) * r_v
        value, g = _frozen_norm_and_grad(h_p + r - t_p, norm)
        score = -value
        g = -g
        gr = g @ r_v
        add("ent", h_i, g + gr * h_v)
        add("ent_p", h_i, gr * h)
        add("ent", t_i, -(g + gr * t_v))
        add("ent_p", t_i, -gr * t)
        add("rel", r_i, g)
        add("rel_p", r_i, (h_v @ h) * g - (t_v @ t) * g)
    elif variant == "rescal":
        m = p["m"][r_i]
        score = float(h @ m @ t)
        add("ent", h_i, m @ t)
        add("ent", t_i, m.T @ h)
        add("m", r_i, np.outer(h, t))
    elif variant == "distmult":
        score = float(np.sum(h * r * t))
        add("ent", h_i, r * t)
        add("ent", t_i, h * r)
        add("rel", r_i, h * t)
    elif variant == "hole":
        d = h.shape[0]
        idx = (np.arange(d)[None, :] + np.arange(d)[:, None]) % d
        corr = t[idx] @ h
        score = float(r @ corr)
        add("rel", r_i, corr)
        add("ent", h_i, r @ t[idx])
        add("ent", t_i, h[(np.arange(d)[:, None] - np.arange(d)[None, :]) % d] @ r)
    elif variant == "complex":
        h_im, t_im = p["ent_im"][h_i], p["ent_im"][t_i]
        r_im = p["rel_im"][r_i]
        score = float(np.sum((h * r - h_im * r_im) * t + (h * r_im + h_im * r) * t_im))
        add("ent", h_i, r * t + r_im * t_im)
        add("ent_im", h_i, -r_im * t + r * t_im)
        add("rel", r_i, h * t + h_im * t_im)
        add("rel_im", r_i, -h_im * t + h * t_im)
        add("ent", t_i, h * r - h_im * r_im)
        add("ent_im", t_i, h * r_im + h_im * r)
    else:
        raise ValueError(f"unknown variant {variant!r}")
    return score, grads


def _frozen_margin_loss(model, positive, negatives, gamma=None):
    grads = {}

    def accumulate(src, factor):
        for key, grad in src.items():
            grads[key] = grads.get(key, 0.0) + factor * grad

    score_pos, grad_pos = _frozen_kg_score_grad(model, positive)
    if model.variant in TRANSLATIONAL:
        gamma = model.config.margin if gamma is None else gamma
        if gamma <= 0:
            raise ValueError("margin must be positive")
        loss = 0.0
        for neg in negatives:
            score_neg, grad_neg = _frozen_kg_score_grad(model, neg)
            hinge = gamma - score_pos + score_neg
            if hinge > 0:
                loss += hinge
                accumulate(grad_pos, -1.0)
                accumulate(grad_neg, 1.0)
    else:
        loss = -log_sigmoid(score_pos)
        accumulate(grad_pos, -sigmoid(-score_pos))
        for neg in negatives:
            score_neg, grad_neg = _frozen_kg_score_grad(model, neg)
            loss -= log_sigmoid(-score_neg)
            accumulate(grad_neg, sigmoid(score_neg))
    if not np.isfinite(loss):
        raise NumericalError(f"non-finite {model.variant} loss")
    return float(loss), grads


def _frozen_apply_grads(model, grads, lr):
    ent_ids, rel_ids = [], []
    for (name, idx), grad in grads.items():
        if not np.all(np.isfinite(grad)):
            raise NumericalError(f"non-finite gradient for {name}[{idx}]")
        model.params[name][idx] -= lr * grad
        if name.startswith("ent"):
            ent_ids.append(idx)
        else:
            rel_ids.append(idx)
    return np.array(ent_ids, dtype=np.int64), np.array(rel_ids, dtype=np.int64)

# --- frozen per-query reference -------------------------------------------------------
# The entity-head tail scorer that the one head-part scorer replaced, and the
# lexsort hit@k, kept as the oracle the new code must match.  The arithmetic
# is verbatim; the shared norm helper is hoisted out of the scorer.


def _ref_neg_norm(diff, norm):
    if norm == "l1":
        return -np.abs(diff).sum(axis=1)
    return -np.linalg.norm(diff, axis=1)


def _ref_score_tails(model, head, relation, candidates=None):
    p = model.params
    if candidates is None:
        candidates = np.arange(model.n_entities)
    h = p["ent"][head]
    r = p["rel"][relation]
    tails = p["ent"][candidates]
    norm = model.config.norm
    variant = model.variant
    if variant == "transE":
        return _ref_neg_norm((h + r)[None, :] - tails, norm)
    if variant == "transH":
        w = p["w"][relation]
        h_p = h - (w @ h) * w
        t_p = tails - np.outer(tails @ w, w)
        return _ref_neg_norm(h_p[None, :] + r[None, :] - t_p, norm)
    if variant == "transR":
        m = p["proj"][relation]
        return _ref_neg_norm((m @ h + r)[None, :] - tails @ m.T, norm)
    if variant == "transD":
        r_v = p["rel_p"][relation]
        h_p = h + (p["ent_p"][head] @ h) * r_v
        dots = np.sum(p["ent_p"][candidates] * tails, axis=1)
        t_p = tails + np.outer(dots, r_v)
        return _ref_neg_norm(h_p[None, :] + r[None, :] - t_p, norm)
    if variant == "rescal":
        return tails @ (p["m"][relation].T @ h)
    if variant == "distmult":
        return tails @ (h * r)
    if variant == "hole":
        d = h.shape[0]
        u = h[(np.arange(d)[:, None] - np.arange(d)[None, :]) % d] @ r
        return tails @ u
    if variant == "complex":
        h_im = p["ent_im"][head]
        r_im = p["rel_im"][relation]
        t_im = p["ent_im"][candidates]
        return tails @ (h * r - h_im * r_im) + t_im @ (h * r_im + h_im * r)
    raise ValueError(f"unknown variant {variant!r}")


def _ref_hit_at_k(model, triples, k=10, candidates=None):
    if not len(triples):
        return 0.0
    hits = 0
    cand = np.arange(model.n_entities) if candidates is None else candidates
    for head, relation, tail in triples:
        scores = _ref_score_tails(model, head, relation, cand)
        order = np.lexsort((cand, -scores))
        ranked = cand[order][:k]
        hits += int(tail in ranked)
    return hits / len(triples)


def kg_score(model, head, relation, tail):
    """The score of one (head, relation, tail) triple, from the block scorer."""
    scores, _ = kg_score_grad(model, np.array([head]), np.array([relation]), np.array([tail]))
    return float(scores[0])


def model_with(variant, values, dim, n_entities=6, n_relations=2, norm="l2", margin=1.0):
    config = KgConfig(variant=variant, dim=dim, norm=norm, margin=margin, seed=0)
    model = KgModel(config, n_entities, n_relations)
    for name, array in values.items():
        model.params[name][...] = array
    return model


class TestScores:
    def test_transE_perfect_translation(self):
        model = model_with("transE", {}, dim=2)
        model.params["ent"][1] = [1.0, 0.0]
        model.params["ent"][2] = [1.0, 1.0]
        model.params["rel"][0] = [0.0, 1.0]
        assert kg_score(model, 1, 0, 2) == pytest.approx(0.0, abs=1e-12)

    def test_distmult_hand_value(self):
        model = model_with("distmult", {}, dim=2)
        model.params["ent"][1] = [1.0, 1.0]
        model.params["ent"][2] = [1.0, 1.0]
        model.params["rel"][0] = [1.0, 1.0]
        assert kg_score(model, 1, 0, 2) == pytest.approx(2.0)

    def test_complex_real_specialisation(self):
        model = model_with("complex", {}, dim=1)
        model.params["ent"][1] = [1.0]
        model.params["ent"][2] = [1.0]
        model.params["rel"][0] = [1.0]
        model.params["ent_im"][:] = 0.0
        model.params["rel_im"][:] = 0.0
        assert kg_score(model, 1, 0, 2) == pytest.approx(1.0)

    def test_transH_reduces_to_transE_when_normal_orthogonal(self):
        rng = np.random.default_rng(0)
        h, t, r = rng.normal(size=(3, 3))
        h[2] = t[2] = r[2] = 0.0
        for variant in ("transE", "transH"):
            model = model_with(variant, {}, dim=3)
            model.params["ent"][1] = h
            model.params["ent"][2] = t
            model.params["rel"][0] = r
            if variant == "transH":
                model.params["w"][0] = [0.0, 0.0, 1.0]
                score_h = kg_score(model, 1, 0, 2)
            else:
                score_e = kg_score(model, 1, 0, 2)
        assert score_h == pytest.approx(score_e, abs=1e-12)

    def test_distmult_symmetric_in_head_tail(self):
        rng = np.random.default_rng(1)
        model = model_with("distmult", {}, dim=4)
        model.params["ent"][1:] = rng.normal(size=(5, 4))
        model.params["rel"][:] = rng.normal(size=(2, 4))
        assert kg_score(model, 1, 0, 3) == pytest.approx(
            kg_score(model, 3, 0, 1))

    def test_transD_matches_transR_on_constructed_matrix(self):
        """Dynamic rank-1 projections instantiate M = r_p v^T + I when both
        entities share the projection vector v; transR with that M agrees."""
        rng = np.random.default_rng(2)
        d = 3
        h, t, r = rng.normal(size=(3, d))
        v = rng.normal(size=d)
        r_p = rng.normal(size=d)

        transd = model_with("transD", {}, dim=d)
        transd.params["ent"][1] = h
        transd.params["ent"][2] = t
        transd.params["rel"][0] = r
        transd.params["ent_p"][1] = v
        transd.params["ent_p"][2] = v
        transd.params["rel_p"][0] = r_p

        transr = model_with("transR", {}, dim=d)
        transr.params["ent"][1] = h
        transr.params["ent"][2] = t
        transr.params["rel"][0] = r
        transr.params["proj"][0] = np.outer(r_p, v) + np.eye(d)

        assert kg_score(transd, 1, 0, 2) == pytest.approx(
            kg_score(transr, 1, 0, 2), abs=1e-10)

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError, match="unknown variant"):
            KgConfig(variant="bogus")

    def test_nan_margin_and_empty_batch_rejected(self):
        with pytest.raises(ValueError, match="margin"):
            KgConfig(variant="transE", margin=float("nan"))
        with pytest.raises(ValueError, match="batch_size"):
            KgConfig(batch_size=0)


class TestHole:
    def test_matches_double_loop_oracle(self):
        """Vectorised circular correlation vs an independent explicit loop."""
        rng = np.random.default_rng(3)
        for d in (2, 3, 5, 8):
            h, t = rng.normal(size=d), rng.normal(size=d)
            fast = circular_correlation(h, t)
            slow = np.array([sum(h[i] * t[(i + k) % d] for i in range(d))
                             for k in range(d)])
            np.testing.assert_allclose(fast, slow, atol=1e-10)

    def test_score_uses_correlation(self):
        rng = np.random.default_rng(4)
        d = 5
        model = model_with("hole", {}, dim=d)
        model.params["ent"][1] = h = rng.normal(size=d)
        model.params["ent"][2] = t = rng.normal(size=d)
        model.params["rel"][0] = r = rng.normal(size=d)
        assert kg_score(model, 1, 0, 2) == pytest.approx(
            float(r @ circular_correlation(h, t)), abs=1e-10)


def as_block(positives, negatives):
    """margin_loss's (heads, relations, tails) for (head, relation, tail)
    positives and, per positive, its negative triples."""
    block = np.concatenate((np.array(positives, dtype=np.int64)[:, None],
                            np.array(negatives, dtype=np.int64)), axis=1)
    assert np.all(block[..., 1] == block[:, :1, 1])
    return block[..., 0], block[:, 0, 1], block[..., 2]


def dense_grads(model, grads):
    out = {name: np.zeros_like(value) for name, value in model.params.items()}
    for name, rows in grads.rows.items():
        np.add.at(out[name], rows, grads.row_grads[name])
    return out


def frozen_dense_grads(model, grads):
    out = {name: np.zeros_like(value) for name, value in model.params.items()}
    for (name, idx), grad in grads.items():
        out[name][idx] += grad
    return out


class TestMarginLoss:
    def test_hinge_dead_zone(self):
        model = model_with("transE", {}, dim=2)
        model.params["ent"][1] = [0.0, 0.0]
        model.params["ent"][2] = [0.0, 1.0]
        model.params["ent"][3] = [9.0, 9.0]
        model.params["rel"][0] = [0.0, 1.0]  # pos score 0, neg score very negative
        loss, grads = margin_loss(model, *as_block([(1, 0, 2)], [[(1, 0, 3)]]))
        assert loss == 0.0
        assert grads.rows == {}

    def test_equal_scores_cost_margin_each(self):
        model = model_with("transE", {}, dim=2)
        model.params["ent"][1:4] = 0.0
        model.params["rel"][0] = 0.0
        negatives = [(1, 0, 3), (2, 0, 2)]
        loss, _ = margin_loss(model, *as_block([(1, 0, 2)], [negatives]))
        assert loss == pytest.approx(len(negatives) * 1.0)

    def test_nonpositive_margin_rejected(self):
        for variant in TRANSLATIONAL:
            with pytest.raises(ValueError, match="margin"):
                KgConfig(variant=variant, margin=0.0)

    def test_all_variants_pass_gradient_check(self):
        reports = run_gradient_sweep(points=1)
        for name, report in reports:
            if name.startswith("kg:"):
                assert report.max_rel_error < 1e-4, f"{name}: {report.summary()}"

    def test_non_finite_loss_and_gradient_raise(self):
        model = model_with("distmult", {}, dim=2)
        model.params["ent"][1] = [np.inf, 0.0]
        with pytest.raises(NumericalError, match="non-finite distmult loss"):
            margin_loss(model, *as_block([(1, 0, 2)], [[(1, 0, 3)]]))
        model = model_with("transE", {}, dim=2, margin=10.0)
        _loss, grads = margin_loss(model, *as_block([(1, 0, 2)], [[(1, 0, 3)]]))
        grads.row_grads["rel"][0, 0] = np.nan
        with pytest.raises(NumericalError, match=r"rel\[0\]"):
            apply_grads(model, grads, 0.1)


class TestBatchParity:
    """The minibatch step against the frozen per-triple step."""

    @pytest.mark.parametrize("variant, norm", VARIANT_NORMS)
    def test_batch_of_one_matches_per_triple_step(self, variant, norm):
        config = KgConfig(variant=variant, dim=5, norm=norm, lr=0.05, seed=11)
        live = KgModel(config, n_entities=9, n_relations=3)
        frozen = live.copy()
        rng = np.random.default_rng(12)
        steps_taken = 0
        for _step in range(25):
            h, t = rng.integers(9, size=2)
            r = int(rng.integers(3))
            positive = (int(h), r, int(t))
            negatives = [(int(a), r, int(b)) for a, b in rng.integers(9, size=(3, 2))]
            loss_f, grads_f = _frozen_margin_loss(frozen, positive, negatives)
            if grads_f:
                frozen.enforce_constraints(*_frozen_apply_grads(frozen, grads_f, config.lr))
            loss, grads = margin_loss(live, *as_block([positive], [negatives]))
            assert bool(grads.rows) == bool(grads_f)
            if grads.rows:
                live.enforce_constraints(*apply_grads(live, grads, config.lr))
                steps_taken += 1
            assert abs(loss - loss_f) <= 1e-12
            for name in live.params:
                np.testing.assert_allclose(live.params[name], frozen.params[name],
                                           rtol=0, atol=1e-12, err_msg=name)
        assert steps_taken >= 5

    @pytest.mark.parametrize("variant, norm", VARIANT_NORMS)
    def test_block_matches_summed_per_triple_gradients(self, variant, norm):
        """A block whose positives and negatives share entities: every row's
        gradient is the sum of the per-triple gradients at the same parameters."""
        config = KgConfig(variant=variant, dim=5, norm=norm, margin=4.0, seed=13)
        model = KgModel(config, n_entities=8, n_relations=3)
        positives = [(1, 0, 4), (4, 1, 2), (2, 0, 1), (1, 0, 4),
                     (6, 2, 1)]
        negatives = [[(1, p[1], 2), (4, p[1], 4), (7, p[1], 1)]
                     for p in positives]
        loss, grads = margin_loss(model, *as_block(positives, negatives))
        expected_loss = 0.0
        expected = {name: np.zeros_like(value) for name, value in model.params.items()}
        for positive, negs in zip(positives, negatives):
            loss_f, grads_f = _frozen_margin_loss(model, positive, negs)
            expected_loss += loss_f
            for name, grad in frozen_dense_grads(model, grads_f).items():
                expected[name] += grad
        assert abs(loss - expected_loss) <= 1e-12
        got = dense_grads(model, grads)
        for name in model.params:
            np.testing.assert_allclose(got[name], expected[name], rtol=0, atol=1e-12,
                                       err_msg=name)
        assert any(np.abs(g).max() > 0 for g in got.values())


class TestCorruption:
    POOL = np.array([2, 3, 5, 7, 11])

    def test_only_pool_members_and_never_the_replaced_entity(self):
        rng = np.random.default_rng(0)
        heads = rng.choice(self.POOL, size=300)
        tails = rng.choice(self.POOL, size=300)
        block_heads, block_tails = corrupt(heads, tails, 4, rng, self.POOL)
        assert block_heads.shape == block_tails.shape == (300, 5)
        np.testing.assert_array_equal(block_heads[:, 0], heads)
        np.testing.assert_array_equal(block_tails[:, 0], tails)
        neg_heads, neg_tails = block_heads[:, 1:], block_tails[:, 1:]
        assert np.isin(neg_heads, self.POOL).all() and np.isin(neg_tails, self.POOL).all()
        # exactly one side is replaced, and never by the entity it replaces
        assert np.all((neg_heads != heads[:, None]) ^ (neg_tails != tails[:, None]))

    def test_two_member_pool_and_entities_outside_the_pool(self):
        rng = np.random.default_rng(1)
        pool = np.array([4, 9])
        neg_heads, neg_tails = (b[:, 1:] for b in corrupt(np.full(50, 4), np.full(50, 9), 3,
                                                           rng, pool))
        assert np.all((neg_heads == 9) ^ (neg_tails == 4))
        # an entity outside the pool (0, 20) is replaced by any pool member
        neg_heads, neg_tails = (b[:, 1:] for b in corrupt(np.full(400, 0), np.full(400, 20), 1,
                                                           rng, pool))
        picked = np.where(neg_heads == 0, neg_tails, neg_heads)
        assert set(picked.ravel().tolist()) == {4, 9}

    def test_pool_of_one_rejected(self):
        with pytest.raises(ValueError, match="two entities"):
            corrupt(np.array([1]), np.array([1]), 1, np.random.default_rng(0), np.array([1]))

    def test_coin_and_draws_uniform(self):
        """Chi-square statistics on a fixed seed stay below the 0.1% critical
        values (10.83 for 1 degree of freedom, 16.27 for 3)."""
        rng = np.random.default_rng(2)
        heads, tails = np.full(4000, 3), np.full(4000, 7)
        neg_heads, neg_tails = (b[:, 1:] for b in corrupt(heads, tails, 5, rng, self.POOL))
        replaced_head = neg_heads != 3
        n = replaced_head.size
        n_head = int(replaced_head.sum())
        coin = (n_head - n / 2) ** 2 / (n / 2) + (n - n_head - n / 2) ** 2 / (n / 2)
        assert coin < 10.83
        for drawn, left_out in ((neg_heads[replaced_head], 3), (neg_tails[~replaced_head], 7)):
            members = self.POOL[self.POOL != left_out]
            counts = np.array([(drawn == m).sum() for m in members])
            assert counts.sum() == drawn.size
            expect = drawn.size / members.size
            assert ((counts - expect) ** 2 / expect).sum() < 16.27

    def test_same_seed_same_draws(self):
        heads, tails = np.array([2, 3, 11, 5]), np.array([7, 7, 2, 3])
        first = corrupt(heads, tails, 6, np.random.default_rng(9), self.POOL)
        second = corrupt(heads, tails, 6, np.random.default_rng(9), self.POOL)
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a, b)


# the variants whose tail scores the one scorer reproduces bit for bit; the
# others reassociate a projection or a product, within 1e-12
EXACT_TAIL_SCORES = ("transE", "distmult", "complex")


class TestScoreTails:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_vectorised_matches_per_triple(self, variant):
        config = KgConfig(variant=variant, dim=5, seed=3)
        model = KgModel(config, n_entities=9, n_relations=2)
        scores = score_tail_block(model, [2], 1, np.arange(9))[0]
        direct = np.array([kg_score(model, 2, 1, t) for t in range(9)])
        np.testing.assert_allclose(scores, direct, atol=1e-12)

    @pytest.mark.parametrize("norm", ("l1", "l2"))
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_matches_both_reference_scorers(self, variant, norm):
        """One block of every head under every relation, row by row against
        the frozen per-query scorer."""
        config = KgConfig(variant=variant, dim=7, norm=norm, seed=4)
        model = KgModel(config, n_entities=15, n_relations=3)
        tol = {} if variant in EXACT_TAIL_SCORES else {"rtol": 0, "atol": 1e-12}
        check = np.testing.assert_array_equal if not tol else np.testing.assert_allclose
        heads, relations = np.repeat(np.arange(15), 3), np.tile(np.arange(3), 15)
        candidates = np.array([0, 3, 5, 6, 11, 14])
        for cand in (np.arange(15), candidates):
            block = score_tail_block(model, heads, relations, cand)
            for row, head, relation in zip(block, heads, relations):
                check(row, _ref_score_tails(model, head, relation, cand), **tol)

    @pytest.mark.parametrize("variant", ("transE", "distmult", "complex"))
    def test_hit_at_k_matches_reference(self, variant):
        config = KgConfig(variant=variant, dim=4, seed=6)
        model = KgModel(config, n_entities=20, n_relations=4)
        triples = line_kg()
        candidates = np.arange(0, 20, 2)   # odd tails are absent: always a miss
        for cand in (None, candidates):
            for k in (1, 3, 10, 15):   # 15 exceeds the 10 filtered candidates
                assert hit_at_k(model, triples, k, cand) == \
                    _ref_hit_at_k(model, triples, k, cand)
        assert hit_at_k(model, np.array([[0, 0, 1]]), 10, candidates) == 0.0
        assert tail_ranks(model, np.array([[0, 0, 1]]), candidates).tolist() == \
            [len(candidates) + 1]


def line_kg():
    """Hand-built toy graph: 20 entities on a line, 4 translation relations
    (+1, +2, +3, +5); head ranges give exactly 60 triples covering every entity."""
    triples = []
    for rel, (shift, n_heads) in enumerate(((1, 16), (2, 15), (3, 14), (5, 15))):
        for h in range(n_heads):
            triples.append((h, rel, h + shift))
    assert len(triples) == 60
    return np.array(triples, dtype=np.int64)


class TestTraining:
    def test_zero_epochs_leaves_model_unchanged(self):
        config = KgConfig(variant="transE", dim=4, seed=1, epochs=0)
        model = KgModel(config, 20, 4)
        before = {k: v.copy() for k, v in model.params.items()}
        trained = train_kg(model, line_kg())
        for name in before:
            np.testing.assert_array_equal(trained.params[name], before[name])

    def test_same_seed_identical_model(self):
        triples = line_kg()
        models = []
        for _ in range(2):
            config = KgConfig(variant="distmult", dim=6, seed=5, epochs=3)
            models.append(train_kg(KgModel(config, 20, 4), triples))
        for name in models[0].params:
            np.testing.assert_array_equal(models[0].params[name], models[1].params[name])

    def test_toy_graph_memorised_within_500_epochs(self):
        """The 60-triple line graph is exactly memorised: training HIT@3 = 1.

        The margin must stay below the lattice spacing that unit-ball
        clipping allows, else the hinge can never go quiet.
        """
        triples = line_kg()
        config = KgConfig(variant="transE", dim=16, lr=0.02, margin=0.1, seed=7,
                          negatives=3, epochs=50)
        model = KgModel(config, 20, 4)
        hit = 0.0
        for _round in range(10):  # 10 x 50 = up to 500 epochs
            model = train_kg(model, triples)
            hit = hit_at_k(model, triples, k=3)
            if hit == 1.0:
                break
        assert hit == 1.0

    def test_entity_norms_clipped_for_translational(self):
        triples = line_kg()
        for variant in ("transE", "transH"):
            config = KgConfig(variant=variant, dim=5, lr=0.1, seed=2, epochs=5)
            model = train_kg(KgModel(config, 20, 4), triples)
            norms = np.linalg.norm(model.params["ent"], axis=1)
            assert np.all(norms <= 1.0 + 1e-9)


class TestTripleEnumeration:
    def test_space_offsets_disjoint(self):
        """Items take the first entity ids; words and categories, PAD rows
        skipped, fill the rest of the space."""
        space = KgSpace(n_items=5, n_words=4, n_categories=3)
        items = [space.item(i) for i in range(1, 5)]
        np.testing.assert_array_equal(space.item_entities(), items)
        np.testing.assert_array_equal(items, np.arange(4))
        assert space.n_entities == 4 + 3 + 2

    def test_graph_triples_rows_in_relation_name_order(self):
        space = KgSpace(n_items=8, n_words=2, n_categories=2)
        rows = graph_triples({"substitute": [(1, 2)], "complement": [(3, 4), (5, 6)],
                              "co_view": []}, space)
        np.testing.assert_array_equal(rows, [[2, 0, 3], [4, 0, 5], [0, 2, 1]])
        assert rows.dtype == np.int64
