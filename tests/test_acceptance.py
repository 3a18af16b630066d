"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  The end-to-end criterion runs the CLI stages on the default
synthetic dataset and is the slow part of the suite (a few minutes).
"""

import contextlib
import filecmp
import io
import os
import time

import numpy as np
import pytest

from prodkg.attention import AttentionParams, aggregate_context, attention_weights
from prodkg.baselines import (
    KgConfig,
    KgModel,
    KgSpace,
    circular_correlation,
    kg_score_grad,
    tail_ranks,
)
from prodkg.cli import main
from prodkg.embeddings import (
    Grads,
    new_table,
    sampled_softmax_loss_grad,
    sgd_update,
    softmax_full_loss_grad,
)
from prodkg.evaluation import rank_candidates, rank_tail, ranking_metrics
from prodkg.model import load_checkpoint
from prodkg.poincare import BallConfig, hierarchy_pretrain, poincare_distance, riemannian_update
from prodkg.prg import build_adjacency, build_relation_graph, normalize_adjacency
from prodkg.synth import load_ground_truth
from prodkg.trainer import TASK_NAMES, sample_task, task_correlation
from prodkg.verification import run_gradient_sweep


def report(number, passed, detail):
    line = f"ACCEPTANCE {number:>2} {'PASS' if passed else 'FAIL'} - {detail}"
    print(line)
    assert passed, line


class TestCriterion1Gradients:
    def test_every_loss_passes_finite_differences(self):
        """All losses and all eight baseline scorers, three random points each."""
        start = time.time()
        reports = run_gradient_sweep(eps=1e-4, points=3, seed=7)
        elapsed = time.time() - start
        worst = max(r.max_rel_error for _n, r in reports)
        failing = [name for name, r in reports if not r.passed(1e-4)]
        report(1, not failing and elapsed < 60,
               f"{len(reports)} losses checked, worst rel err {worst:.2e}, "
               f"{elapsed:.1f}s (< 60s)")


class TestCriterion2OracleEquivalence:
    def test_neg_training_matches_full_softmax_ranking(self):
        """Five-entity vocabulary: rankings from the sampled-objective model
        must agree with the full-softmax-trained model for every context."""
        d, n = 4, 6
        freqs = [6, 3, 2, 1]
        pairs = []
        for ctx in range(1, 6):
            others = [t for t in range(1, 6) if t != ctx]
            rotated = others[ctx % 4:] + others[:ctx % 4]
            for tgt, f in zip(rotated, freqs):
                pairs.extend([(ctx, tgt)] * f)
        order = np.random.default_rng(11).permutation(len(pairs))

        def run(estimator):
            rng = np.random.default_rng(3)
            inp, out = new_table("inp", n, d, rng), new_table("out", n, d, rng)
            all_ids = np.arange(1, 6)
            for _epoch in range(400):
                for k in order:
                    ctx, tgt = pairs[k]
                    if estimator == "full":
                        _, gq, rows, gs = softmax_full_loss_grad(inp.values[ctx], out, tgt)
                    else:
                        negatives = all_ids[all_ids != tgt]
                        _, gq, rows, gs = sampled_softmax_loss_grad(
                            inp.values[ctx], out, tgt, negatives)
                    grads = Grads({"out": rows, "inp": np.array([ctx])},
                                  {"out": gs, "inp": gq[None, :]}, {})
                    sgd_update({"inp": inp, "out": out}, grads, 0.05)
            return inp, out

        full_in, full_out = run("full")
        neg_in, neg_out = run("neg")
        agreements = 0
        for ctx in range(1, 6):
            ids = np.arange(1, 6)
            scores_full = full_out.values[1:] @ full_in.values[ctx]
            scores_neg = neg_out.values[1:] @ neg_in.values[ctx]
            agreements += np.array_equal(ids[np.lexsort((ids, -scores_full))],
                                         ids[np.lexsort((ids, -scores_neg))])
        report(2, agreements == 5,
               f"NEG vs full-softmax rankings agree on {agreements}/5 contexts")

    def test_hole_matches_double_loop_oracle(self):
        rng = np.random.default_rng(4)
        worst = 0.0
        for d in range(2, 9):
            h, t = rng.normal(size=d), rng.normal(size=d)
            fast = circular_correlation(h, t)
            slow = np.array([sum(h[i] * t[(i + k) % d] for i in range(d))
                             for k in range(d)])
            worst = max(worst, float(np.abs(fast - slow).max()))
            config = KgConfig(variant="hole", dim=d, seed=d)
            model = KgModel(config, 5, 2)
            scores, _ = kg_score_grad(model, np.array([1]), np.array([0]), np.array([3]))
            score = float(scores[0])
            direct = float(model.params["rel"][0]
                           @ slow_correlation(model.params["ent"][1],
                                              model.params["ent"][3]))
            worst = max(worst, abs(score - direct))
        report(2, worst <= 1e-10,
               f"circular-correlation scorer vs double-loop oracle, max diff {worst:.1e}")


def slow_correlation(h, t):
    d = h.shape[0]
    return np.array([sum(h[i] * t[(i + k) % d] for i in range(d)) for k in range(d)])


class TestCriterion3AttentionInvariants:
    def test_weight_rows_and_masks_and_singletons(self):
        rng = np.random.default_rng(5)
        worst_sum = 0.0
        masked_weight = 0.0
        for _ in range(20):
            m = int(rng.integers(2, 7))
            q, k, _v = (rng.normal(size=(m, 8)) for _ in range(3))
            mask = rng.random(m) < 0.7
            mask[int(rng.integers(m))] = True
            alpha = attention_weights(q, k, key_mask=mask)
            worst_sum = max(worst_sum, float(np.abs(alpha.sum(axis=1) - 1.0).max()))
            if (~mask).any():
                masked_weight = max(masked_weight, float(np.abs(alpha[:, ~mask]).max()))

        table_in = new_table("in", 7, 5, rng)
        table_out = new_table("out", 7, 5, rng)
        params = AttentionParams.init(4, 5, rng)
        context, alpha, _ = aggregate_context(np.array([3]), table_in, table_out, params)
        singleton_exact = (np.array_equal(alpha, [[[1.0]]]) and
                           np.array_equal(context, [table_in.values[3] + params.positions[0]]))
        report(3, worst_sum <= 1e-10 and masked_weight == 0.0 and singleton_exact,
               f"row sums off by {worst_sum:.1e}, masked weight {masked_weight}, "
               f"singleton exact: {singleton_exact}")


class TestCriterion4Poincare:
    def test_geometry_suite(self):
        rng = np.random.default_rng(6)
        config = BallConfig()

        containment_ok = True
        row = np.zeros(4)
        for _ in range(300):
            row = riemannian_update(row, rng.normal(scale=3.0, size=4), 0.05, config)
            containment_ok &= np.linalg.norm(row) <= 1.0 - config.eps_ball + 1e-12

        x = rng.uniform(-0.5, 0.5, size=4)
        y = rng.uniform(-0.5, 0.5, size=4)
        identity_ok = poincare_distance(x, x) == 0.0
        symmetry_ok = abs(poincare_distance(x, y) - poincare_distance(y, x)) < 1e-12
        worked = abs(poincare_distance(np.array([0.5, 0.0]), np.zeros(2)) - np.log(3.0))

        # balanced tree, branching 4-4-4: 85 nodes, 84 child-parent edges
        edges = []
        level_of = {1: 0}
        next_id, frontier = 2, [1]
        for depth in (1, 2, 3):
            new_frontier = []
            for parent in frontier:
                for _ in range(4):
                    edges.append((next_id, parent))
                    level_of[next_id] = depth
                    new_frontier.append(next_id)
                    next_id += 1
            frontier = new_frontier
        n_nodes = len(level_of)
        table = new_table("category", n_nodes + 1, 8, np.random.default_rng(7),
                          geometry="poincare")
        start = time.time()
        hierarchy_pretrain(edges, table, config, epochs=40, negatives=8, seed=7)
        pretrain_time = time.time() - start

        parent_of = dict(edges)
        ancestors = {}
        for node in level_of:
            chain = set()
            cursor = node
            while cursor in parent_of:
                cursor = parent_of[cursor]
                chain.add(cursor)
            ancestors[node] = chain
        check_rng = np.random.default_rng(8)
        closer = 0
        total = 0
        for child, parent in edges:
            d_parent = poincare_distance(table.values[child], table.values[parent])
            for _ in range(3):
                other = int(check_rng.integers(1, n_nodes + 1))
                if other == child or other in ancestors[child]:
                    continue
                total += 1
                d_other = poincare_distance(table.values[child], table.values[other])
                closer += d_parent < d_other
        fraction = closer / total
        report(4, containment_ok and identity_ok and symmetry_ok and worked < 1e-9
               and pretrain_time < 30 and fraction >= 0.9,
               f"containment {containment_ok}, d(x,x)=0 {identity_ok}, symmetric "
               f"{symmetry_ok}, ln3 err {worked:.1e}, tree {n_nodes} nodes in "
               f"{pretrain_time:.1f}s (< 30s), child-parent closer in {fraction:.1%}")


@pytest.fixture(scope="module")
def synthetic_run(tmp_path_factory):
    """The default synthetic dataset through the CLI stages: ingest,
    build-prg, train and a transE train-baseline on one run directory."""
    base = tmp_path_factory.mktemp("synth_default")
    data, run = str(base / "data"), str(base / "run")
    assert main(["gen-data", "--seed", "7", "--out", data]) == 0
    assert main(["ingest", "--data", data, "--out", run]) == 0
    assert main(["build-prg", "--run", run, "--out", os.path.join(run, "prg"),
                 "--seed", "7"]) == 0
    start = time.time()
    assert main(["train", "--run", run, "--out", os.path.join(run, "model"), "--dim", "32",
                 "--cat-epochs", "20", "--validation-cap", "200", "--seed", "7"]) == 0
    train_time = time.time() - start
    assert main(["train-baseline", "--run", run, "--out", os.path.join(run, "kg"),
                 "--dim", "50", "--epochs", "25", "--seed", "7"]) == 0
    return {"data": data, "run": run, "train_time": train_time}


@pytest.mark.slow
class TestCriterion5SyntheticEndToEnd:
    def test_ground_truth_separation_and_baseline_comparison(self, synthetic_run):
        run = synthetic_run["run"]
        truth = load_ground_truth(os.path.join(synthetic_run["data"], "ground_truth.tsv"))
        params, keys = load_checkpoint(os.path.join(run, "model"))
        item_id = {key: idx for idx, key in enumerate(keys["item_in"])}
        n_items = len(item_id) - 1
        random_baseline = 10.0 / n_items

        space = KgSpace(len(keys["item_in"]), len(keys["word"]), len(keys["category"]))
        kg_model = KgModel(KgConfig(variant="transE", dim=50), space.n_entities,
                           space.n_relations)
        with np.load(os.path.join(run, "kg", "kg_transE.npz")) as blob:
            kg_model.params = {name: blob[name] for name in blob.files}

        def truth_hit(scorer, relation, kg=False):
            queries = []
            for head_key in truth.item_keys[:400]:
                head = item_id.get(head_key)
                if head is None:
                    continue
                gold = [item_id[t] for t in truth.oracle_rank(relation, head_key)
                        if t in item_id]
                if not gold:
                    continue
                queries.append((head, gold))
            heads = np.array([head for head, gold in queries for _ in gold])
            golds = np.array([g for _head, gold in queries for g in gold])
            if kg:
                triples = np.stack([space.item(heads),
                                    np.full(len(heads), space.relation_index(relation)),
                                    space.item(golds)], axis=1)
                ranks = tail_ranks(scorer, triples, space.item_entities())
            else:
                ranks = rank_tail(params, relation, heads, golds)
            # a head's multi-gold hit is its best-ranked oracle tail's hit
            starts = np.cumsum([0] + [len(gold) for _head, gold in queries[:-1]])
            return ranking_metrics(np.minimum.reduceat(ranks, starts), 10)["hit@10"]

        summary = []
        wins = 0
        above_bar = 0
        for relation in ("substitute", "complement", "co_view"):
            ours = truth_hit(params, relation)
            baseline = truth_hit(kg_model, relation, kg=True)
            wins += ours > baseline
            above_bar += ours > 10 * random_baseline
            summary.append(f"{relation} {ours:.3f} vs transE {baseline:.3f}")
        train_time = synthetic_run["train_time"]
        report(5, above_bar == 3 and wins >= 2 and train_time < 300,
               f"train {train_time:.0f}s (< 300s); hit@10 [{'; '.join(summary)}]; "
               f"bar {10 * random_baseline:.3f}; wins {wins}/3 (need 2)")


class TestCriterion6TaskSampler:
    def test_empirical_frequencies(self):
        sizes = {"substitute": 5, "complement": 3, "search": 2}
        tasks = {name: [(1, 2)] * size for name, size in sizes.items()}
        rng = np.random.default_rng(7)
        draws = 100_000
        counts = {name: 0 for name in sizes}
        for _ in range(draws):
            counts[sample_task(tasks, rng)] += 1
        total = sum(sizes.values())
        worst = max(abs(counts[name] / draws - size / total)
                    for name, size in sizes.items())
        report(6, worst < 0.01,
               f"{draws} draws, worst frequency deviation {worst:.4f} (< 0.01)")


class TestCriterion7Prg:
    def test_normalisation_determinism_and_default_k(self):
        # the pair co-occurs twice: weight 2, both degrees 2
        normalized = normalize_adjacency(build_adjacency([(0, 1), (0, 1)], 2))
        hand_ok = normalized.ids.tolist() == [1, 0] and normalized.weights.tolist() == [1.0, 1.0]

        sessions = [(0, 1, 2), (1, 2, 3), (2, 3, 4), (0, 4)] * 3
        first = build_relation_graph(sessions, 5, "co_buy", seed=9)
        second = build_relation_graph(sessions, 5, "co_buy", seed=9)
        deterministic = first.neighbors == second.neighbors

        import inspect
        from prodkg.prg import topk_neighbors
        default_k = inspect.signature(topk_neighbors).parameters["k"].default
        report(7, hand_ok and deterministic and default_k == 20,
               f"2-node normalisation exact: {hand_ok}, top-K deterministic: "
               f"{deterministic}, default K = {default_k}")


class TestCriterion8Metrics:
    def test_hand_values_and_monotone_invariance(self):
        ndcg = ranking_metrics(np.array([3]), 10)["ndcg@10"]
        ndcg_ok = ndcg == 0.5
        map_ok = all(ranking_metrics(np.array([r]), 10)["map@10"] == pytest.approx(1 / r)
                     for r in (1, 2, 3, 7, 10))
        rng = np.random.default_rng(9)
        ids = np.arange(1, 41)
        scores, gold = np.empty((30, 40)), np.empty(30, dtype=np.int64)
        for q in range(30):
            scores[q] = rng.normal(size=40)
            gold[q] = rng.integers(1, 41)
        raw = rank_candidates(scores, ids, gold)
        transformed = rank_candidates(np.exp(scores), ids, gold)
        invariant = ranking_metrics(raw, 10) == ranking_metrics(transformed, 10)
        report(8, ndcg_ok and map_ok and invariant,
               f"NDCG@10(rank 3) = {ndcg} (exact 0.5), MAP = 1/rank: {map_ok}, "
               f"exp-invariant: {invariant}")


@pytest.mark.slow
class TestCriterion9Correlation:
    def test_hand_pearson_and_schedule_comparison(self, tmp_path):
        series = {"a": [0.0, 1.0, 3.0, 6.0], "b": [0.0, 1.0, 3.0, 7.0]}
        log = []
        for epoch in range(1, 5):
            for task, values in series.items():
                log.append((epoch, "a", task, "hit@10", values[epoch - 1]))
        rho = task_correlation(log)
        hand_ok = abs(rho[("a", "b")] - 9 / np.sqrt(84)) < 1e-6

        data, run = str(tmp_path / "data"), str(tmp_path / "run")
        assert main(["gen-data", "--seed", "7", "--out", data, "--items", "150",
                     "--clusters", "25", "--words", "120", "--sessions", "800",
                     "--searches", "250", "--substitutions", "200"]) == 0
        assert main(["ingest", "--data", data, "--out", run]) == 0
        assert main(["build-prg", "--run", run, "--out", os.path.join(run, "prg"),
                     "--walks", "4", "--walk-length", "5", "--seed", "7"]) == 0

        def read_tsv(path):
            with open(path, encoding="utf-8") as handle:
                return [line.rstrip("\n").split("\t") for line in handle][1:]

        # one train run per schedule, and one single-task run (--schedule <task>) per task
        runs = [("weighted", None), ("uniform", None)]
        runs += [("single_task", task) for task in TASK_NAMES]
        rows, consistent, cells = [], True, []
        for schedule, task in runs:
            out = os.path.join(run, f"model_{task or schedule}")
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = main(["train", "--run", run, "--out", out, "--dim", "8",
                             "--epochs", "4", "--patience", "4", "--l-buy", "6",
                             "--l-view", "6", "--l-search", "4", "--l-describe", "8",
                             "--cat-epochs", "11", "--seed", "7", "--validation-cap", "40",
                             "--schedule", task or schedule])
            assert code == 0, (schedule, task)
            # the best epoch train reports: "trained for N epochs (best B); ..."
            best = int(stdout.getvalue().split("(best ")[1].split(")")[0])
            log = [(int(epoch), trained, name, metric, float(value))
                   for epoch, trained, name, metric, value
                   in read_tsv(os.path.join(out, "metrics_log.tsv"))]
            at_best = {name: (metric, value) for epoch, _t, name, metric, value in log
                       if epoch == best}
            for name in [task] if task else sorted(at_best):
                metric, value = at_best.get(name, ("hit@10", None))
                rows.append((schedule, name, metric, value))
            # the written diagnostic is task_correlation of the written log
            written = {(a, b): None if value == "absent" else float(value)
                       for a, b, value in read_tsv(os.path.join(out, "task_correlation.tsv"))}
            expected = task_correlation(log)
            consistent &= written.keys() == expected.keys() and all(
                (written[key] is None) == (expected[key] is None) and
                (expected[key] is None or abs(written[key] - expected[key]) <= 1e-6)
                for key in expected)
            if task:
                cells += [value for value in written.values() if value is not None]
        schedules = {row[0] for row in rows}
        tasks_covered = {row[1] for row in rows if row[0] == "single_task"}
        table = "\n".join("  " + "\t".join(str(c) for c in row) for row in rows)
        print(f"schedule comparison table:\n{table}")
        complete = schedules == {"weighted", "uniform", "single_task"} and \
            tasks_covered == set(TASK_NAMES)
        report(9, hand_ok and complete and consistent and bool(cells),
               f"hand Pearson to 1e-6: {hand_ok}; schedules covered: {sorted(schedules)}; "
               f"{len(rows)} comparison rows; task_correlation.tsv matches its "
               f"metrics_log.tsv: {consistent}; {len(cells)} single-task cells present")


@pytest.mark.slow
class TestCriterion10Determinism:
    def test_repeated_pipeline_runs_byte_identical(self, tmp_path):
        def run_once(tag):
            base = tmp_path / tag
            data, run = str(base / "data"), str(base / "run")
            assert main(["gen-data", "--seed", "7", "--out", data, "--items", "150",
                         "--clusters", "25", "--sessions", "700", "--searches", "200",
                         "--substitutions", "150", "--words", "120"]) == 0
            assert main(["ingest", "--data", data, "--out", run]) == 0
            assert main(["build-prg", "--run", run, "--out", os.path.join(run, "prg"),
                         "--seed", "7"]) == 0
            assert main(["train", "--run", run, "--out", os.path.join(run, "model"),
                         "--dim", "8", "--epochs", "2", "--l-buy", "6", "--l-view", "6",
                         "--l-search", "4", "--l-describe", "8", "--cat-epochs", "3",
                         "--seed", "7", "--validation-cap", "30"]) == 0
            assert main(["evaluate", "--run", run, "--out", os.path.join(run, "eval"),
                         "--query-cap", "25", "--seed", "7"]) == 0
            return base

        first = run_once("first")
        second = run_once("second")
        mismatches = []
        for root, _dirs, files in os.walk(first):
            rel = os.path.relpath(root, first)
            for name in files:
                a = os.path.join(root, name)
                b = os.path.join(second, rel, name)
                if not os.path.exists(b) or not filecmp.cmp(a, b, shallow=False):
                    mismatches.append(os.path.join(rel, name))
        report(10, not mismatches,
               f"two identical-seed pipeline runs compared file by file; "
               f"mismatches: {mismatches or 'none'}")
