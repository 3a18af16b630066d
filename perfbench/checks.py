"""Correctness checks the benchmark applies to the artifacts of a run.

Every check reads the files the `prodkg` stages wrote and recomputes what it
needs with numpy alone; nothing here imports `prodkg`, so a fault in the
program cannot hide in its own checker.  Each check returns a list of
failure messages (empty when the check holds).  `python3 checks.py` runs the
self-tests on hand-sized cases whose answers are known.
"""
from __future__ import annotations

import math
import os

import numpy as np

TRUTH_RELATIONS = ("substitute", "complement", "co_view")
# Relation order of the triple baselines' shared space (prodkg.baselines.KG_RELATIONS).
KG_RELATION_ORDER = ("complement", "co_view", "substitute", "search", "describe", "isa")
# Checkpoint table that scores candidate tails for each relation, queried with item_in.
TAIL_TABLE = {"substitute": "item_in", "complement": "item_out_buy", "co_view": "item_out_view"}
REPORT_ROWS = 16
SIGMAS = 3.0          # how far above the random-ranking mean a hit rate must lie
PRG_PRECISION_LIFT = 3.0   # PRG precision must exceed this multiple of the random-pair rate


# --- readers ---------------------------------------------------------------

def read_vocab(path: str) -> dict:
    """`id<TAB>key` lines -> {key: id}."""
    out = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            idx, key = line.rstrip("\n").split("\t")
            out[key] = int(idx)
    return out


def read_table(path: str) -> np.ndarray:
    """Embedding TSV -> matrix whose row i is entity id i (row 0 the zero PAD row)."""
    with open(path, encoding="utf-8") as handle:
        handle.readline()                     # geometry line
        dim = int(handle.readline().split("\t")[1])
        rows = [np.zeros(dim)]
        for line in handle:
            if line.strip():
                rows.append(np.array(line.rstrip("\n").split("\t")[1].split(" "), dtype=float))
    return np.vstack(rows)


def read_truth(path: str) -> dict:
    """ground_truth.tsv -> {relation: {head key: set of tail keys}}."""
    truth: dict = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            relation, head, tail = line.rstrip("\n").split("\t")
            truth.setdefault(relation, {}).setdefault(head, set()).add(tail)
    return truth


# --- ranking ---------------------------------------------------------------

def best_gold_rank(scores: np.ndarray, gold: np.ndarray) -> np.ndarray:
    """1-based rank of the best-placed gold column in each row.

    Columns are ordered by descending score, ties going to the smaller
    column index (the smaller entity id).  `gold` is a boolean mask of the
    same shape with at least one True per row.
    """
    masked = np.where(gold, scores, -np.inf)
    best = masked.max(axis=1, keepdims=True)
    first_best = np.argmax(gold & (scores == best), axis=1)
    columns = np.arange(scores.shape[1])[None, :]
    ahead = (scores > best) | ((scores == best) & (columns < first_best[:, None]))
    return 1 + ahead.sum(axis=1)


def random_hit_rate(n_candidates: int, n_gold: int, k: int = 10) -> float:
    """Chance that a uniformly random ordering puts some gold entry in the top k."""
    if n_gold >= n_candidates - k + 1:
        return 1.0
    return 1.0 - math.comb(n_candidates - n_gold, k) / math.comb(n_candidates, k)


def _truth_queries(truth: dict, relation: str, vocab: dict, n_candidates: int):
    """Head ids and the gold mask over candidate columns (column j is id j + 1)."""
    heads, rows = [], []
    for head_key, tails in sorted(truth.get(relation, {}).items()):
        head = vocab.get(head_key)
        gold = [vocab[t] - 1 for t in tails if t in vocab]
        if head is None or not gold:
            continue
        mask = np.zeros(n_candidates, dtype=bool)
        mask[gold] = True
        heads.append(head)
        rows.append(mask)
    return np.array(heads, dtype=np.int64), np.array(rows).reshape(len(rows), n_candidates)


def truth_hits(score_fn, truth: dict, vocab: dict, n_items: int, k: int = 10) -> dict:
    """Per relation: (hit@k, random-ranking bar) over every head with planted tails.

    `score_fn(relation, heads)` returns a (len(heads), n_items - 1) score
    matrix over candidate ids 1..n_items-1.  The bar is the mean random hit
    rate for each head's gold-set size plus SIGMAS standard errors.
    """
    out = {}
    for relation in TRUTH_RELATIONS:
        heads, gold = _truth_queries(truth, relation, vocab, n_items - 1)
        if heads.size == 0:
            continue
        ranks = best_gold_rank(score_fn(relation, heads), gold)
        rates = np.array([random_hit_rate(n_items - 1, int(g), k) for g in gold.sum(axis=1)])
        bar = rates.mean() + SIGMAS * math.sqrt(float((rates * (1 - rates)).sum())) / heads.size
        out[relation] = (float(np.mean(ranks <= k)), float(bar))
    return out


def checkpoint_scorer(tables: dict):
    """Scores of the trained model: item_in[head] . tail_table[candidate]."""
    def score(relation, heads):
        return tables["item_in"][heads] @ tables[TAIL_TABLE[relation]][1:].T
    return score


def transe_scorer(ent: np.ndarray, rel: np.ndarray, n_items: int):
    """Scores of transE: -||e_head + r - e_tail||^2 over item entities (id - 1)."""
    items = ent[: n_items - 1]
    sq = (items ** 2).sum(axis=1)

    def score(relation, heads):
        query = ent[heads - 1] + rel[KG_RELATION_ORDER.index(relation)]
        dist = (query ** 2).sum(axis=1)[:, None] + sq[None, :] - 2.0 * query @ items.T
        return -np.maximum(dist, 0.0)
    return score


def check_truth_hits(hits: dict) -> list:
    """Every relation measured, and each above its random-ranking bar."""
    problems = []
    if set(hits) != set(TRUTH_RELATIONS):
        problems.append(f"planted truth covers {sorted(hits)}, expected "
                        f"{list(TRUTH_RELATIONS)}")
    for relation in TRUTH_RELATIONS:
        hit, bar = hits.get(relation, (0.0, 0.0))
        if not hit > bar:
            problems.append(f"{relation} truth hit@10 {hit:.4f} not above the "
                            f"random-ranking bar {bar:.4f}")
    return problems


def load_checkpoint_tables(model_dir: str) -> dict:
    return {name: read_table(os.path.join(model_dir, f"embeddings_{name}.tsv"))
            for name in ("item_in", "item_out_buy", "item_out_view")}


# --- `prodkg rank` spot checks -----------------------------------------------

def parse_rank_output(text: str) -> list:
    """`rank<TAB>item<TAB>score` table -> [(item key, score)]."""
    lines = [l for l in text.splitlines() if l.strip()]
    if not lines or lines[0].split("\t") != ["rank", "item", "score"]:
        raise ValueError("rank output has no header line")
    out = []
    for position, line in enumerate(lines[1:], 1):
        rank, key, score = line.split("\t")
        if int(rank) != position:
            raise ValueError(f"rank column reads {rank} at position {position}")
        out.append((key, float(score)))
    return out


def check_rank_listing(listing: list, scores: np.ndarray, key_of: list, k: int) -> list:
    """Compare a printed top-k against scores computed here.

    `scores[j]` is the score of candidate id j + 1 and `key_of[j]` its key.
    The listing must hold k distinct candidates whose printed scores match
    ours, in non-increasing order, and no unlisted candidate may score
    above the lowest listed one (up to the nine printed digits).
    """
    def slack(value):
        return 1e-7 * abs(value) + 1e-15

    problems = []
    if len(listing) != min(k, scores.size):
        return [f"listed {len(listing)} candidates, expected {min(k, scores.size)}"]
    column = {key: j for j, key in enumerate(key_of)}
    listed = []
    for key, printed in listing:
        if key not in column:
            return [f"listed unknown item {key!r}"]
        j = column[key]
        listed.append(j)
        if abs(printed - scores[j]) > slack(scores[j]):
            problems.append(f"{key}: printed score {printed!r}, recomputed {scores[j]!r}")
    if len(set(listed)) != len(listed):
        problems.append("a candidate is listed twice")
    printed_scores = [s for _k, s in listing]
    if any(a < b for a, b in zip(printed_scores, printed_scores[1:])):
        problems.append("printed scores are not non-increasing")
    floor = min(scores[listed])
    unlisted = np.where(np.isin(np.arange(scores.size), listed), -np.inf, scores)
    j = int(np.argmax(unlisted))
    if unlisted[j] > floor + slack(floor):
        problems.append(f"unlisted {key_of[j]} scores {scores[j]!r} above the listed "
                        f"floor {floor!r}")
    return problems


# --- report.tsv --------------------------------------------------------------

SINGLE_GOLD_TASKS = ("complement", "co_view", "substitute", "recommend")
SEARCH_TASKS = ("search_encountered", "search_new")


def check_report(lines: list) -> list:
    """report.tsv lines: 16 rows, values in [0, 1], ndcg@10 <= hit@10 and
    map@10 <= recall@10."""
    if not lines or lines[0] != "model\ttask\tmetric\tvalue":
        return ["report.tsv header is missing"]
    values = {}
    problems = []
    for line in lines[1:]:
        model, task, metric, value = line.split("\t")
        if value == "absent":
            problems.append(f"{task} {metric} is absent")
            continue
        number = float(value)
        if not 0.0 <= number <= 1.0:
            problems.append(f"{task} {metric} = {number} outside [0, 1]")
        values[(model, task, metric)] = number
    if len(lines) - 1 != REPORT_ROWS:
        problems.append(f"report has {len(lines) - 1} rows, expected {REPORT_ROWS}")
    for (model, task, metric), number in values.items():
        if task in SINGLE_GOLD_TASKS and metric == "ndcg@10":
            hit = values.get((model, task, "hit@10"))
            if hit is None or number > hit + 1e-12:
                problems.append(f"{task}: ndcg@10 {number} exceeds hit@10 {hit}")
        if task in SEARCH_TASKS and metric == "map@10":
            recall = values.get((model, task, "recall@10"))
            if recall is None or number > recall + 1e-12:
                problems.append(f"{task}: map@10 {number} exceeds recall@10 {recall}")
    return problems


# --- relation-graph facts ------------------------------------------------------

def check_prg(lines, truth: dict, vocab: dict, k: int) -> tuple[list, dict]:
    """prg_triples.tsv lines: no self loops or repeats, at most k tails per head,
    known relations, and precision against the planted truth at least
    PRG_PRECISION_LIFT times the rate of a random pair.  Returns (problems,
    {relation: (precision, random rate)})."""
    problems = []
    per_head: dict = {}
    seen = set()
    hits: dict = {}
    for number, line in enumerate(lines, 1):
        head, relation, tail = line.rstrip("\n").split("\t")
        if relation not in TRUTH_RELATIONS:
            problems.append(f"line {number}: unknown relation {relation!r}")
            continue
        if head == tail:
            problems.append(f"line {number}: self loop on {head}")
        if (head, relation, tail) in seen:
            problems.append(f"line {number}: repeated fact")
        seen.add((head, relation, tail))
        per_head[(head, relation)] = per_head.get((head, relation), 0) + 1
        good, total = hits.get(relation, (0, 0))
        hits[relation] = (good + (tail in truth[relation].get(head, ())), total + 1)
    crowded = [key for key, count in per_head.items() if count > k]
    if crowded:
        problems.append(f"{len(crowded)} heads have more than {k} tails, e.g. {crowded[0]}")
    n_items = len(vocab)
    precision = {}
    for relation in TRUTH_RELATIONS:
        if relation not in hits:
            problems.append(f"no {relation} facts")
            continue
        good, total = hits[relation]
        gold_sizes = [len([t for t in tails if t in vocab])
                      for head, tails in truth[relation].items() if head in vocab]
        random_rate = float(np.mean(gold_sizes)) / (n_items - 1)
        precision[relation] = (good / total, random_rate)
        if good / total < PRG_PRECISION_LIFT * random_rate:
            problems.append(f"{relation}: precision {good / total:.4f} is below "
                            f"{PRG_PRECISION_LIFT:g} x the random-pair rate {random_rate:.4f}")
    return problems, precision


# --- transE tables ---------------------------------------------------------------

def check_transe(blob, n_entities: int, dim: int) -> tuple[list, tuple]:
    """The arrays of kg_transE.npz: exactly ent and rel, finite, shaped
    (entities, dim) and (relations, dim), every entity inside the unit ball
    (transE projects them there).  Returns (problems, (ent, rel))."""
    if set(blob) != {"ent", "rel"}:
        return [f"transE arrays are {sorted(blob)}, expected ['ent', 'rel']"], (None, None)
    ent, rel = blob["ent"], blob["rel"]
    problems = []
    if ent.shape != (n_entities, dim):
        problems.append(f"ent shape {ent.shape}, expected {(n_entities, dim)}")
    if rel.shape != (len(KG_RELATION_ORDER), dim):
        problems.append(f"rel shape {rel.shape}, expected {(len(KG_RELATION_ORDER), dim)}")
    if not (np.all(np.isfinite(ent)) and np.all(np.isfinite(rel))):
        problems.append("transE tables hold non-finite values")
    elif np.linalg.norm(ent, axis=1).max() > 1.0 + 1e-9:
        problems.append("a transE entity lies outside the unit ball")
    return problems, (ent, rel)


# --- self-tests ----------------------------------------------------------------

def self_test() -> list:
    """Hand-sized cases with known answers; returns failure messages."""
    failures = []

    def expect(label, got, want):
        if got != want:
            failures.append(f"{label}: got {got!r}, want {want!r}")

    # ranks: ties go to the smaller column, the best-placed gold entry counts
    scores = np.array([[0.5, 0.9, 0.9, 0.1],
                       [0.2, 0.2, 0.2, 0.2],
                       [0.3, 0.1, 0.7, 0.7]])
    gold = np.array([[False, False, True, False],
                     [False, False, False, True],
                     [True, False, False, True]])
    expect("best_gold_rank", best_gold_rank(scores, gold).tolist(), [2, 4, 2])
    expect("random_hit_rate k=1", random_hit_rate(4, 1, 1), 0.25)
    expect("random_hit_rate k=2", random_hit_rate(4, 2, 2), 1.0 - 1 / 6)
    expect("random_hit_rate saturated", random_hit_rate(12, 3, 10), 1.0)

    # planted truth over three items: ids 1..3 keyed a, b, c
    vocab = {"a": 1, "b": 2, "c": 3}
    truth = {r: {"a": {"b"}, "b": {"a"}, "c": {"zz"}} for r in TRUTH_RELATIONS}
    eye = np.vstack([np.zeros(2), [1.0, 0.0], [0.9, 0.1], [0.0, 1.0]])
    tables = {"item_in": eye, "item_out_buy": eye, "item_out_view": eye[[0, 3, 2, 1]]}
    hits = truth_hits(checkpoint_scorer(tables), truth, vocab, n_items=4, k=1)
    # substitute: a ranks itself first (1.0 vs 0.9 for b): miss; b: a scores 0.9,
    # b itself 0.82: hit.  co_view's table swaps rows 1 and 3, so c heads both lists.
    expect("truth hit substitute", hits["substitute"][0], 0.5)
    expect("truth hit co_view", hits["co_view"][0], 0.0)
    expect("truth hit heads without gold are skipped", len(_truth_queries(
        truth, "substitute", vocab, 3)[0]), 2)

    ent = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    rel = np.zeros((6, 2))
    rel[KG_RELATION_ORDER.index("complement")] = [1.0, 0.0]
    score = transe_scorer(ent, rel, n_items=4)("complement", np.array([1]))
    expect("transE scores", score.round(12).tolist(), [[-1.0, 0.0, -2.0]])

    # rank listings: exact, swapped and missing-candidate cases
    cand = np.array([0.3, 0.9, 0.5])
    keys = ["x", "y", "z"]
    expect("rank listing ok", check_rank_listing([("y", 0.9), ("z", 0.5)], cand, keys, 2), [])
    expect("rank listing skips a better candidate",
           len(check_rank_listing([("y", 0.9), ("x", 0.3)], cand, keys, 2)), 1)
    expect("rank listing wrong score",
           len(check_rank_listing([("y", 0.8), ("z", 0.5)], cand, keys, 2)), 1)
    expect("rank output parse", parse_rank_output("rank\titem\tscore\n1\ty\t0.9\n"),
           [("y", 0.9)])

    # report: 16 well-formed rows, then one bad value and one broken inequality
    rows = [f"proposed\t{task}\t{metric}\t{value}" for task in SINGLE_GOLD_TASKS
            for metric, value in (("hit@10", 0.5), ("ndcg@10", 0.25))]
    rows += [f"proposed\t{task}\t{metric}\t{value}" for task in SEARCH_TASKS
             for metric, value in (("recall@10", 0.4), ("map@10", 0.2))]
    rows += [f"proposed\tisa_{level}\t{metric}\t0.3" for level in ("category", "department")
             for metric in ("micro_f1", "macro_f1")]
    header = ["model\ttask\tmetric\tvalue"]
    expect("report ok", check_report(header + rows), [])
    expect("report row missing", len(check_report(header + rows[1:])), 2)
    bad = [r.replace("\t0.25", "\t0.75") if "complement\tndcg" in r else r for r in rows]
    expect("report ndcg above hit", len(check_report(header + bad)), 1)
    bad = [r.replace("\t0.3", "\t1.5", 1) if "isa_category\tmicro" in r else r for r in rows]
    expect("report value outside [0, 1]", len(check_report(header + bad)), 1)

    # relation-graph facts over four items paired a-b and c-d
    vocab4 = {"a": 1, "b": 2, "c": 3, "d": 4}
    pairs = {"a": {"b"}, "b": {"a"}, "c": {"d"}, "d": {"c"}}
    truth4 = {r: pairs for r in TRUTH_RELATIONS}
    facts = ["a\tsubstitute\tb", "c\tsubstitute\td", "a\tcomplement\tb", "b\tco_view\ta"]
    problems, precision = check_prg(facts, truth4, vocab4, k=1)
    expect("prg ok", problems, [])
    expect("prg precision and random rate", precision["substitute"], (1.0, 1 / 3))
    # a self loop, and substitute precision 2/3 under 3 x 1/3
    expect("prg self loop", len(check_prg(facts + ["a\tsubstitute\ta"], truth4, vocab4, 2)[0]),
           2)
    expect("prg too many tails", len(check_prg(facts + ["a\tcomplement\tc"], truth4, vocab4,
                                               1)[0]), 2)
    expect("prg unknown relation", len(check_prg(facts + ["a\tisa\tb"], truth4, vocab4, 1)[0]),
           1)

    # transE tables
    ok_ent, ok_rel = np.full((3, 2), 0.5), np.zeros((len(KG_RELATION_ORDER), 2))
    expect("transE ok", check_transe({"ent": ok_ent, "rel": ok_rel}, 3, 2)[0], [])
    expect("transE outside the ball", len(check_transe(
        {"ent": ok_ent * 2, "rel": ok_rel}, 3, 2)[0]), 1)
    expect("transE shape", len(check_transe({"ent": ok_ent, "rel": ok_rel}, 4, 2)[0]), 1)
    expect("transE extra array", len(check_transe(
        {"ent": ok_ent, "rel": ok_rel, "w": ok_rel}, 3, 2)[0]), 1)
    return failures


if __name__ == "__main__":
    import sys

    problems = self_test()
    for problem in problems:
        print(f"FAIL {problem}")
    print("checker self-tests: " + ("ok" if not problems else f"{len(problems)} failed"))
    sys.exit(1 if problems else 0)
