"""Triple-baseline scorers, losses, constraints and training."""

import numpy as np
import pytest

from prodkg.baselines import (
    KgConfig,
    KgModel,
    KgSpace,
    Triple,
    circular_correlation,
    head_parts,
    hit_at_k,
    kg_score,
    margin_loss,
    score_tails,
    train_kg,
)
from prodkg.verification import run_gradient_sweep

# --- frozen two-scorer reference ----------------------------------------------------
# The entity-head and averaged-query tail scorers that the one head-part
# scorer replaced, and the lexsort hit@k, kept as the oracle the new code
# must match.  The arithmetic is verbatim; the shared norm helper is hoisted
# out of the scorers, and the query-parts helper takes entity ids, since the
# word-to-entity mapping now sits with its caller.


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


def _ref_score_tails_vector(model, head_parts, relation, candidates=None):
    p = model.params
    if candidates is None:
        candidates = np.arange(model.n_entities)
    h = head_parts["ent"]
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
        h_p = h + (head_parts["ent_p"] @ h) * r_v
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
        h_im = head_parts["ent_im"]
        r_im = p["rel_im"][relation]
        t_im = p["ent_im"][candidates]
        return tails @ (h * r - h_im * r_im) + t_im @ (h * r_im + h_im * r)
    raise ValueError(f"unknown variant {variant!r}")


def _ref_query_head_parts(model, entities):
    entities = np.asarray(entities, dtype=np.int64)
    parts = {"ent": model.params["ent"][entities].mean(axis=0)}
    if "ent_p" in model.params:
        parts["ent_p"] = model.params["ent_p"][entities].mean(axis=0)
    if "ent_im" in model.params:
        parts["ent_im"] = model.params["ent_im"][entities].mean(axis=0)
    return parts


def _ref_hit_at_k(model, triples, k=10, candidates=None):
    if not triples:
        return 0.0
    hits = 0
    cand = np.arange(model.n_entities) if candidates is None else candidates
    for triple in triples:
        scores = _ref_score_tails(model, triple.head, triple.relation, cand)
        order = np.lexsort((cand, -scores))
        ranked = cand[order][:k]
        hits += int(triple.tail in ranked)
    return hits / len(triples)


def model_with(variant, values, dim, n_entities=6, n_relations=2, norm="l2"):
    config = KgConfig(variant=variant, dim=dim, norm=norm, seed=0)
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
        assert kg_score(model, Triple(1, 0, 2)) == pytest.approx(0.0, abs=1e-12)

    def test_distmult_hand_value(self):
        model = model_with("distmult", {}, dim=2)
        model.params["ent"][1] = [1.0, 1.0]
        model.params["ent"][2] = [1.0, 1.0]
        model.params["rel"][0] = [1.0, 1.0]
        assert kg_score(model, Triple(1, 0, 2)) == pytest.approx(2.0)

    def test_complex_real_specialisation(self):
        model = model_with("complex", {}, dim=1)
        model.params["ent"][1] = [1.0]
        model.params["ent"][2] = [1.0]
        model.params["rel"][0] = [1.0]
        model.params["ent_im"][:] = 0.0
        model.params["rel_im"][:] = 0.0
        assert kg_score(model, Triple(1, 0, 2)) == pytest.approx(1.0)

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
                score_h = kg_score(model, Triple(1, 0, 2))
            else:
                score_e = kg_score(model, Triple(1, 0, 2))
        assert score_h == pytest.approx(score_e, abs=1e-12)

    def test_distmult_symmetric_in_head_tail(self):
        rng = np.random.default_rng(1)
        model = model_with("distmult", {}, dim=4)
        model.params["ent"][1:] = rng.normal(size=(5, 4))
        model.params["rel"][:] = rng.normal(size=(2, 4))
        assert kg_score(model, Triple(1, 0, 3)) == pytest.approx(
            kg_score(model, Triple(3, 0, 1)))

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

        assert kg_score(transd, Triple(1, 0, 2)) == pytest.approx(
            kg_score(transr, Triple(1, 0, 2)), abs=1e-10)

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError, match="unknown variant"):
            KgConfig(variant="bogus")


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
        assert kg_score(model, Triple(1, 0, 2)) == pytest.approx(
            float(r @ circular_correlation(h, t)), abs=1e-10)


class TestMarginLoss:
    def test_hinge_dead_zone(self):
        model = model_with("transE", {}, dim=2)
        model.params["ent"][1] = [0.0, 0.0]
        model.params["ent"][2] = [0.0, 1.0]
        model.params["ent"][3] = [9.0, 9.0]
        model.params["rel"][0] = [0.0, 1.0]  # pos score 0, neg score very negative
        loss, grads = margin_loss(model, Triple(1, 0, 2), [Triple(1, 0, 3)], gamma=1.0)
        assert loss == 0.0
        assert grads == {}

    def test_equal_scores_cost_margin_each(self):
        model = model_with("transE", {}, dim=2)
        model.params["ent"][1:4] = 0.0
        model.params["rel"][0] = 0.0
        negatives = [Triple(1, 0, 3), Triple(2, 0, 2)]
        loss, _ = margin_loss(model, Triple(1, 0, 2), negatives, gamma=1.0)
        assert loss == pytest.approx(len(negatives) * 1.0)

    def test_nonpositive_margin_rejected(self):
        model = model_with("transE", {}, dim=2)
        with pytest.raises(ValueError, match="margin"):
            margin_loss(model, Triple(1, 0, 2), [Triple(1, 0, 3)], gamma=0.0)

    def test_all_variants_pass_gradient_check(self):
        reports = run_gradient_sweep(points=1, include_kg=True)
        for name, report in reports:
            if name.startswith("kg:"):
                assert report.max_rel_error < 1e-4, f"{name}: {report.summary()}"


class TestScoreTails:
    @pytest.mark.parametrize("variant", ("transE", "transH", "transR", "transD",
                                         "rescal", "distmult", "hole", "complex"))
    def test_vectorised_matches_per_triple(self, variant):
        config = KgConfig(variant=variant, dim=5, seed=3)
        model = KgModel(config, n_entities=9, n_relations=2)
        scores = score_tails(model, head_parts(model, 2), 1)
        direct = np.array([kg_score(model, Triple(2, 1, t)) for t in range(9)])
        np.testing.assert_allclose(scores, direct, atol=1e-12)

    @pytest.mark.parametrize("norm", ("l1", "l2"))
    @pytest.mark.parametrize("variant", ("transE", "transH", "transR", "transD",
                                         "rescal", "distmult", "hole", "complex"))
    def test_matches_both_reference_scorers(self, variant, norm):
        config = KgConfig(variant=variant, dim=7, norm=norm, seed=4)
        model = KgModel(config, n_entities=15, n_relations=3)
        candidates = np.array([0, 3, 5, 6, 11, 14])
        for head in range(15):
            for relation in range(3):
                for cand in (None, candidates):
                    np.testing.assert_array_equal(
                        score_tails(model, head_parts(model, head), relation, cand),
                        _ref_score_tails(model, head, relation, cand))
        for words in ([7], [2, 9, 9, 13], [1, 4, 8]):
            for relation in range(3):
                np.testing.assert_array_equal(
                    score_tails(model, head_parts(model, words), relation, candidates),
                    _ref_score_tails_vector(model, _ref_query_head_parts(model, words),
                                            relation, candidates))

    @pytest.mark.parametrize("variant", ("transE", "distmult", "complex"))
    def test_hit_at_k_matches_reference(self, variant):
        config = KgConfig(variant=variant, dim=4, seed=6)
        model = KgModel(config, n_entities=20, n_relations=4)
        triples = line_kg()
        candidates = np.arange(0, 20, 2)   # odd tails are absent: always a miss
        for cand in (None, candidates):
            for k in (1, 3, 10):
                assert hit_at_k(model, triples, k, cand) == \
                    _ref_hit_at_k(model, triples, k, cand)
        assert hit_at_k(model, [Triple(0, 0, 1)], 10, candidates) == 0.0


def line_kg():
    """Hand-built toy graph: 20 entities on a line, 4 translation relations
    (+1, +2, +3, +5); head ranges give exactly 60 triples covering every entity."""
    triples = []
    for rel, (shift, n_heads) in enumerate(((1, 16), (2, 15), (3, 14), (5, 15))):
        for h in range(n_heads):
            triples.append(Triple(h, rel, h + shift))
    assert len(triples) == 60
    return triples


class TestTraining:
    def test_zero_epochs_leaves_model_unchanged(self):
        config = KgConfig(variant="transE", dim=4, seed=1)
        model = KgModel(config, 20, 4)
        before = {k: v.copy() for k, v in model.params.items()}
        trained = train_kg(model, line_kg(), epochs=0)
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
                          negatives=3)
        model = KgModel(config, 20, 4)
        hit = 0.0
        for _round in range(10):  # 10 x 50 = up to 500 epochs
            model = train_kg(model, triples, epochs=50)
            hit = hit_at_k(model, triples, k=3)
            if hit == 1.0:
                break
        assert hit == 1.0

    def test_entity_norms_clipped_for_translational(self):
        triples = line_kg()
        for variant in ("transE", "transH"):
            config = KgConfig(variant=variant, dim=5, lr=0.1, seed=2)
            model = train_kg(KgModel(config, 20, 4), triples, epochs=5)
            norms = np.linalg.norm(model.params["ent"], axis=1)
            assert np.all(norms <= 1.0 + 1e-9)


class TestTripleEnumeration:
    def test_space_offsets_disjoint(self):
        space = KgSpace(n_items=5, n_words=4, n_categories=3)
        items = {space.item(i) for i in range(1, 5)}
        words = {space.word(w) for w in range(1, 4)}
        cats = {space.category(c) for c in range(1, 3)}
        assert not items & words and not words & cats and not items & cats
        assert space.n_entities == len(items) + len(words) + len(cats)
