"""In-process traced run: timing wrappers around the public functions of prodkg.

A `Tracer` wraps each traced function once; `install()` puts the wrapper at
every name a caller looks the function up under (the defining module, every
module that imported it by name, and the class for methods) and
`uninstall()` puts the original back.  A call records one span (function, start, end,
parent span, stage, task) in memory; spans are written out only at the end.
A function's self time is its span minus the spans of traced functions it
called, so the self times of one stage sum exactly to the stage's wall time.
A traced function that no longer exists is reported absent, not as an error.
"""
from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict

import numpy as np

# (module, qualified name) of every traced function.  Functions called once
# per table row or per negative (GradStore.add_row, sigmoid, poincare
# distance and update helpers, kg_score_grad, score_tails) are left out: a
# wrapper there would cost more than the call, and their time stays in the
# self time of the traced function that calls them.
TRACED = (
    ("data", "ingest_dataset"),
    ("pipeline", "load_and_split"),
    ("pipeline", "build_graphs"),
    ("pipeline", "split_graphs"),
    ("pipeline", "assemble_training_data"),
    ("pipeline", "probe_inputs"),
    ("pipeline", "train_prg_baseline"),
    ("prg", "build_relation_graph"),
    ("prg", "build_adjacency"),
    ("prg", "normalize_adjacency"),
    ("prg", "biased_random_walk"),
    ("prg", "topk_neighbors"),
    ("prg", "export_prg"),
    ("poincare", "hierarchy_pretrain"),
    ("embeddings", "NegativeSampler.sample"),
    ("embeddings", "sgd_update"),
    ("attention", "aggregate_context"),
    ("attention", "aggregate_context_backward"),
    ("attention", "sequence_loss_grad"),
    ("attention", "context_for_ranking"),
    ("trainer", "train"),
    ("trainer", "sample_task"),
    ("trainer", "substitution_loss"),
    ("trainer", "isa_example_loss"),
    ("trainer", "validation_metric"),
    ("trainer", "sequence_rank_scores"),
    ("evaluation", "evaluate_all"),
    ("evaluation", "rank_tail"),
    ("evaluation", "pkg_candidate_scores"),
    ("evaluation", "rank_candidates"),
    ("evaluation", "classification_probe"),
    ("evaluation", "split_relation_graph"),
    ("baselines", "train_kg"),
    ("baselines", "margin_loss"),
    ("baselines", "corrupt"),
    ("baselines", "apply_grads"),
    ("baselines", "KgModel.enforce_constraints"),
    ("baselines", "hit_at_k"),
    ("model", "init_params"),
    ("model", "save_checkpoint"),
    ("model", "load_checkpoint"),
    ("synth", "generate"),
)

TRAIN_TASKS = ("substitute", "complement", "co_view", "search", "describe", "isa")
SEQUENCE_TASKS = ("complement", "co_view", "search", "describe")
COMPLETION = ("substitute", "complement", "co_view")
STAGES = ("generate", "ingest", "build-prg", "train", "evaluate", "train-baseline")
VALIDATION = "validation"


def _arg(args, kwargs, position, name):
    return kwargs[name] if name in kwargs else args[position]


class Tracer:
    """Collects spans from the wrapped functions of one traced run."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []          # (name id, start, end, parent, stage id, task)
        self.notes: list = []          # per-span facts read from arguments (or None)
        self.stack: list[int] = []
        self.stage_names: list[str] = []
        self.stage = -1
        self.task = None
        self.absent: list[str] = []
        self._patches: list = []       # (owner, attribute, original, wrapper)
        modules = {name: importlib.import_module(f"prodkg.{name}")
                   for name in ("data", "pipeline", "prg", "poincare", "embeddings", "attention",
                                "trainer", "evaluation", "baselines", "model", "synth", "cli")}
        for module_name, qualname in TRACED:
            label = f"{module_name}.{qualname}"
            module = modules[module_name]
            owner, attr = module, qualname
            if "." in qualname:
                class_name, attr = qualname.split(".")
                owner = getattr(module, class_name, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.absent.append(label)
                continue
            wrapper = self._wrap(label, original, HOOKS.get(label))
            if owner is not module:
                self._patches.append((owner, attr, original, wrapper))
                continue
            for other in modules.values():
                for key, value in vars(other).items():
                    if value is original:
                        self._patches.append((other, key, original, wrapper))

    # --- installation ----------------------------------------------------

    def install(self) -> None:
        for owner, attr, _original, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _wrapper in self._patches:
            setattr(owner, attr, original)

    def _wrap(self, label, fn, hook):
        name_id = len(self.names)
        self.names.append(label)
        spans, notes, stack = self.spans, self.notes, self.stack
        clock = time.perf_counter
        tracer = self
        # The training task of a span is the one sample_task last returned;
        # validation work is tagged apart, and a finished train clears it.
        validates = label == "trainer.validation_metric"
        samples = label == "trainer.sample_task"
        trains = label == "trainer.train"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            notes.append(hook(args, kwargs) if hook else None)
            stack.append(index)
            saved_task = tracer.task
            if validates:
                tracer.task = VALIDATION
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name_id, start, end, parent, tracer.stage, saved_task)
                if validates:
                    tracer.task = saved_task
            if samples:
                tracer.task = result
            elif trains:
                tracer.task = None
            return result
        return wrapper

    # --- stages ------------------------------------------------------------

    def run_stage(self, stage: str, fn) -> float:
        """Run one stage as a root span; returns its wall time."""
        if stage not in self.names:
            self.names.append(stage)
        self.stage_names.append(stage)
        self.stage = len(self.stage_names) - 1
        name_id = self.names.index(stage)
        index = len(self.spans)
        self.spans.append(None)
        self.notes.append(None)
        self.stack.append(index)
        start = time.perf_counter()
        try:
            fn()
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self.spans[index] = (name_id, start, end, -1, self.stage, None)
            self.task = None
        return end - start

    # --- analysis ------------------------------------------------------------

    def table(self):
        """Span arrays: name id, duration, self time, parent, stage, task, note."""
        n = len(self.spans)
        name = np.fromiter((s[0] for s in self.spans), dtype=np.int64, count=n)
        start = np.fromiter((s[1] for s in self.spans), dtype=float, count=n)
        end = np.fromiter((s[2] for s in self.spans), dtype=float, count=n)
        parent = np.fromiter((s[3] for s in self.spans), dtype=np.int64, count=n)
        stage = np.fromiter((s[4] for s in self.spans), dtype=np.int64, count=n)
        duration = end - start
        child = np.bincount(parent[parent >= 0], weights=duration[parent >= 0], minlength=n)
        return {"name": name, "duration": duration, "self": duration - child,
                "parent": parent, "stage": stage,
                "task": [s[5] for s in self.spans], "note": self.notes}

    def write(self, path: str) -> None:
        """One JSON line per span, in call order."""
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name_id, start, end, parent, stage, task) in enumerate(self.spans):
                handle.write(json.dumps({
                    "span": index, "name": self.names[name_id], "start": start, "end": end,
                    "parent": parent, "stage": self.stage_names[stage] if stage >= 0 else None,
                    "task": task, "note": self.notes[index]}) + "\n")


# --- argument hooks: facts a metric needs that only the arguments know -------

def _walk(args, kwargs):
    """Nodes walked, and the return and in-out parameters the walk ran with."""
    p = kwargs.get("p", args[3] if len(args) > 3 else 1.0)
    q = kwargs.get("q", args[4] if len(args) > 4 else 1.0)
    return {"nodes": len(_arg(args, kwargs, 0, "graph").adj), "p": p, "q": q}


def _pretrain_edge_epochs(args, kwargs):
    epochs = kwargs.get("epochs", args[3] if len(args) > 3 else 50)
    return len(_arg(args, kwargs, 0, "edges")) * epochs


def _grad_rows(args, kwargs):
    return sum(len(rows) for rows in _arg(args, kwargs, 1, "grads").rows.values())


def _sequence_task(args, kwargs):
    return _arg(args, kwargs, 5, "task")


def _rank_relation(args, kwargs):
    relation = _arg(args, kwargs, 1, "relation")
    return relation if isinstance(relation, str) else None


HOOKS = {
    "prg.biased_random_walk": _walk,
    "poincare.hierarchy_pretrain": _pretrain_edge_epochs,
    "embeddings.sgd_update": _grad_rows,
    "attention.sequence_loss_grad": _sequence_task,
    "evaluation.rank_tail": _rank_relation,
}


# --- per-layer metrics ---------------------------------------------------------

def layer_metrics(tracer: Tracer) -> dict:
    """name -> (value or None when its function is absent, unit).

    Times are self times.  Per-call figures read 0 when the layer made no
    call on the workload.
    """
    t = tracer.table()
    names = tracer.names
    absent = set(tracer.absent)
    ids = {label: i for i, label in enumerate(names)}
    out: dict = {}

    def picked(label):
        return t["name"] == ids[label] if label in ids else np.zeros(t["name"].size, bool)

    def total(label, mask=None):
        sel = picked(label) if mask is None else picked(label) & mask
        return float(t["self"][sel].sum())

    def count(label, mask=None):
        sel = picked(label) if mask is None else picked(label) & mask
        return int(sel.sum())

    def put(name, value, unit, needs):
        out[name] = (None if any(label in absent for label in needs) else value, unit)

    def per(seconds, calls):
        return seconds / calls * 1e6 if calls else 0.0

    task = np.array([x if x is not None else "" for x in t["task"]], dtype=object)
    note = t["note"]
    training = task != VALIDATION
    parent_name = np.where(t["parent"] >= 0, t["name"][np.maximum(t["parent"], 0)], -1)

    label = "data.ingest_dataset"
    put("data.ingest_s", total(label), "s", [label])
    put("data.ingest_calls", count(label), "count", [label])

    label = "pipeline.load_and_split"
    put("pipeline.load_and_split_calls", count(label), "count", [label])
    put("pipeline.load_and_split_s", total(label), "s", [label])
    label = "pipeline.assemble_training_data"
    put("pipeline.assemble_training_data_s", total(label), "s", [label])

    put("prg.graph_builds", count("prg.build_relation_graph"), "count",
        ["prg.build_relation_graph"])
    put("prg.adjacency_s", total("prg.build_adjacency") + total("prg.normalize_adjacency"),
        "s", ["prg.build_adjacency", "prg.normalize_adjacency"])
    put("prg.topk_s", total("prg.topk_neighbors"), "s", ["prg.topk_neighbors"])
    label = "prg.biased_random_walk"
    walk_s = total(label)
    nodes = sum(note[i]["nodes"] for i in np.flatnonzero(picked(label)))
    put("prg.walk_s", walk_s, "s", [label])
    put("prg.walk_us_per_node", per(walk_s, nodes), "us", [label])

    label = "poincare.hierarchy_pretrain"
    pretrain_s = total(label)
    edge_epochs = sum(note[i] for i in np.flatnonzero(picked(label)))
    put("poincare.pretrain_s", pretrain_s, "s", [label])
    put("poincare.pretrain_us_per_edge", per(pretrain_s, edge_epochs), "us", [label])

    label = "embeddings.NegativeSampler.sample"
    put("embeddings.sample_calls", count(label), "count", [label])
    put("embeddings.sample_us_per_call", per(total(label), count(label)), "us", [label])
    label = "embeddings.sgd_update"
    put("embeddings.sgd_update_calls", count(label), "count", [label])
    put("embeddings.sgd_update_us_per_call", per(total(label), count(label)), "us", [label])
    put("embeddings.grad_rows", int(sum(note[i] for i in np.flatnonzero(picked(label)))),
        "count", [label])

    # Attention work of training examples sits under sequence_loss_grad, whose
    # task argument names the example's task.
    loss_label = "attention.sequence_loss_grad"
    loss_task = np.array([note[i] if t["name"][i] == ids.get(loss_label) else ""
                          for i in range(t["name"].size)], dtype=object)
    parent_task = np.where(t["parent"] >= 0, loss_task[np.maximum(t["parent"], 0)], "")
    examples = {}
    for name in SEQUENCE_TASKS:
        mine = loss_task == name
        examples[name] = count(loss_label, mine)
        under = parent_task == name
        for metric, fn_label, mask in (
                ("forward", "attention.aggregate_context", under),
                ("backward", "attention.aggregate_context_backward", under),
                ("loss", loss_label, mine)):
            put(f"attention.{metric}_us_per_example.{name}",
                per(total(fn_label, mask), examples[name]), "us", [fn_label, loss_label])
    label = "attention.context_for_ranking"
    inclusive = float(t["duration"][picked(label)].sum())
    put("attention.context_us_per_query", per(inclusive, count(label)), "us", [label])

    examples["substitute"] = count("trainer.substitution_loss", training)
    examples["isa"] = count("trainer.isa_example_loss", training)
    sampler, update = "embeddings.NegativeSampler.sample", "embeddings.sgd_update"
    for name in TRAIN_TASKS:
        counted_by = ("trainer.substitution_loss" if name == "substitute" else
                      "trainer.isa_example_loss" if name == "isa" else loss_label)
        put(f"trainer.examples.{name}", examples[name], "count", [counted_by])
        # the task sample_task returned for the step
        stepped = task == name
        put(f"trainer.sample_us_per_example.{name}",
            per(total(sampler, stepped), examples[name]), "us", [sampler, counted_by])
        put(f"trainer.update_us_per_example.{name}",
            per(total(update, stepped), examples[name]), "us", [update, counted_by])
    label = "trainer.sample_task"
    put("trainer.sample_task_us_per_step", per(total(label), count(label)), "us", [label])
    label = "trainer.substitution_loss"
    put("trainer.substitution_us_per_example",
        per(total(label, training), examples["substitute"]), "us", [label])
    label = "trainer.isa_example_loss"
    put("trainer.isa_us_per_example", per(total(label, training), examples["isa"]),
        "us", [label])
    train_inclusive = float(t["duration"][picked("trainer.train")].sum())
    validation_under_train = picked("trainer.validation_metric") & (
        parent_name == ids.get("trainer.train", -2))
    validation_s = float(t["duration"][validation_under_train].sum())
    loop_s = train_inclusive - validation_s
    n_examples = sum(examples.values())
    put("trainer.loop_s", loop_s, "s", ["trainer.train", "trainer.validation_metric"])
    put("trainer.us_per_example", per(loop_s, n_examples), "us",
        ["trainer.train", "trainer.validation_metric"])
    put("trainer.validation_s", validation_s, "s", ["trainer.validation_metric"])

    label = "evaluation.rank_tail"
    in_evaluate = np.isin(t["stage"], [i for i, s in enumerate(tracer.stage_names)
                                       if s == "evaluate"])
    relation = np.array([note[i] if t["name"][i] == ids.get(label) else ""
                         for i in range(t["name"].size)], dtype=object)
    groups = {"completion": np.isin(relation, COMPLETION),
              "search": relation == "search", "recommend": relation == "recommend"}
    for group, mask in groups.items():
        put(f"evaluation.queries.{group}", count(label, mask & in_evaluate), "count", [label])
    for metric, fn_label in (("scores", "evaluation.pkg_candidate_scores"),
                             ("rank", "evaluation.rank_candidates"),
                             ("rank_tail", "evaluation.rank_tail")):
        put(f"evaluation.{metric}_us_per_query", per(total(fn_label), count(fn_label)),
            "us", [fn_label])
    put("evaluation.probe_s", total("evaluation.classification_probe"), "s",
        ["evaluation.classification_probe"])

    label = "baselines.margin_loss"
    triples = count(label)
    put("baselines.triples_trained", triples, "count", [label])
    put("baselines.margin_loss_us_per_triple", per(total(label), triples), "us", [label])
    put("baselines.corrupt_us_per_call",
        per(total("baselines.corrupt"), count("baselines.corrupt")), "us", ["baselines.corrupt"])
    put("baselines.apply_grads_us_per_triple",
        per(total("baselines.apply_grads") + total("baselines.KgModel.enforce_constraints"),
            triples), "us", ["baselines.apply_grads", "baselines.KgModel.enforce_constraints"])
    put("baselines.hit_at_k_s", total("baselines.hit_at_k"), "s", ["baselines.hit_at_k"])

    put("model.save_checkpoint_s", total("model.save_checkpoint"), "s", ["model.save_checkpoint"])
    put("model.load_checkpoint_s", total("model.load_checkpoint"), "s", ["model.load_checkpoint"])
    return out


TOP_SELF_TIMES = 8


def stage_breakdown(tracer: Tracer) -> list:
    """Per traced stage: wall time, its largest self times, and the remainder."""
    t = tracer.table()
    rows = []
    for stage_id, stage in enumerate(tracer.stage_names):
        mine = t["stage"] == stage_id
        root = mine & (t["parent"] < 0)
        wall = float(t["duration"][root].sum())
        by_name = defaultdict(float)
        for i in np.flatnonzero(mine & (t["parent"] >= 0)):
            by_name[tracer.names[t["name"][i]]] += t["self"][i]
        ranked = sorted(by_name.items(), key=lambda kv: -kv[1])
        listed = ranked[:TOP_SELF_TIMES]
        rest = sum(v for _k, v in ranked[TOP_SELF_TIMES:])
        rows.append({"stage": stage, "wall_s": wall,
                     "self_s": {k: v for k, v in listed},
                     "other_traced_s": rest,
                     "untraced_s": float(t["self"][root].sum())})
    return rows
