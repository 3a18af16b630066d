"""Command-line pipeline driver.

Every subcommand reads a flat key=value config file (``#`` comments)
overridden by ``--key value`` flags, writes its artifacts plus a manifest
(inputs, config hash, seed, versions) into the output directory, and uses
the exit-code contract: 0 success, 1 usage error, 2 data error,
3 numerical failure.  No environment variables are consulted.
"""
from __future__ import annotations

import hashlib
import json
import os
import sys

import numpy as np

from . import __version__
from . import data as dm
from . import pipeline as pl
from .baselines import VARIANTS, KgConfig
from .data import DataError
from .embeddings import NumericalError, write_table_tsv
from .evaluation import PKG_SCORING, evaluate_all, rank_tail
from .model import ModelConfig, init_params, load_checkpoint, save_checkpoint
from .prg import export_prg
from .synth import SynthConfig, generate
from .trainer import TrainConfig, train


class UsageError(ValueError):
    """Bad invocation: unknown subcommand, key, or malformed flag."""


SUBCOMMANDS = ("gen-data", "ingest", "build-prg", "train", "train-baseline", "evaluate",
               "rank", "export", "grad-check")

# key -> (default, parser, help)
COMMON_KEYS = {
    "seed": (7, int, "master RNG seed recorded in every artifact"),
    "out": ("run", str, "output directory"),
}

KEYS: dict[str, dict] = {
    "gen-data": {
        "items": (2000, int, "number of synthetic products"),
        "words": (500, int, "vocabulary size for description/query words"),
        "clusters": (200, int, "substitute clusters"),
        "sessions": (20000, int, "total sessions (half buy, half view)"),
        "searches": (5000, int, "search-and-click records"),
        "substitutions": (2000, int, "substitution acceptance records"),
        "noise": (0.1, float, "token noise rate in [0,1)"),
    },
    "ingest": {
        "data": ("", str, "directory holding the raw modality files"),
        "item_min": (10, int, "minimum total item appearances"),
        "word_min": (3, int, "minimum total word appearances"),
    },
    "build-prg": {
        "run": ("", str, "run directory produced by ingest"),
        "k": (20, int, "neighbours kept per product"),
        "walks": (10, int, "walks per node"),
        "walk_length": (10, int, "steps per walk"),
        "p": (1.0, float, "walk return parameter"),
        "q": (1.0, float, "walk in-out parameter"),
    },
    "train": {
        "run": ("", str, "run directory produced by ingest"),
        "dim": (100, int, "embedding dimension"),
        "lr": (0.1, float, "learning rate (paper grid: 0.001 0.005 0.01 0.1)"),
        "batch": (1, int, "minibatch size"),
        "negatives": (3, int, "negative samples per positive"),
        "epochs": (10, int, "maximum training epochs"),
        "patience": (5, int, "early-stop patience in epochs"),
        "schedule": ("weighted", str, "weighted | uniform | single_task"),
        "single_task": ("", str, "task for schedule=single_task"),
        "l_buy": (20, int, "max sequence length, purchase task"),
        "l_view": (50, int, "max sequence length, view task"),
        "l_search": (10, int, "max sequence length, search task"),
        "l_describe": (200, int, "max sequence length, describe task"),
        "cat_epochs": (50, int, "category pre-training epochs"),
        "validation_cap": (400, int, "validation queries per task"),
    },
    "train-baseline": {
        "run": ("", str, "run directory produced by ingest"),
        "variant": ("transE", str, "one of " + " ".join(VARIANTS)),
        "dim": (100, int, "embedding dimension"),
        "lr": (0.01, float, "learning rate"),
        "margin": (1.0, float, "margin for translational variants"),
        "norm": ("l2", str, "l1 | l2 for translational variants"),
        "epochs": (50, int, "maximum epochs"),
        "negatives": (3, int, "corrupted triples per positive"),
    },
    "evaluate": {
        "run": ("", str, "run directory with trained artifacts"),
        "k": (10, int, "ranking cutoff"),
        "query_cap": (0, int, "cap evaluation queries per task (0 = all)"),
    },
    "rank": {
        "run": ("", str, "run directory with a trained model"),
        "relation": ("substitute", str, "relation to rank for"),
        "head": ("", str, "head entity key (or space-separated keys)"),
        "k": (10, int, "number of candidates to print"),
    },
    "export": {
        "run": ("", str, "run directory with a trained model"),
    },
    "grad-check": {
        "eps": (1e-4, float, "finite-difference step"),
        "tol": (1e-4, float, "pass threshold on relative error"),
        "points": (3, int, "random parameter points per loss"),
    },
}


# subcommand -> key -> (lower bound, whether the bound itself is allowed);
# resolve_config rejects a value outside its range before the stage starts.
# gen-data's noise and train-baseline's margin have no entry: SynthConfig
# checks noise in [0, 1), and KgConfig checks the margin of the variants
# that use one.  COMMON_RANGES bounds the keys every subcommand has.
_AT_LEAST_1 = (1, True)
_AT_LEAST_0 = (0, True)
_ABOVE_0 = (0, False)
COMMON_RANGES = {"seed": _AT_LEAST_0}
RANGES: dict[str, dict] = {
    "gen-data": {"items": _AT_LEAST_1, "words": _AT_LEAST_1, "clusters": _AT_LEAST_1,
                 "sessions": _AT_LEAST_0, "searches": _AT_LEAST_0,
                 "substitutions": _AT_LEAST_0},
    "ingest": {"item_min": _AT_LEAST_0, "word_min": _AT_LEAST_0},
    "build-prg": {"k": _AT_LEAST_1, "walks": _AT_LEAST_1, "walk_length": _AT_LEAST_0,
                  "p": _ABOVE_0, "q": _ABOVE_0},
    "train": {"dim": _AT_LEAST_1, "lr": _ABOVE_0, "batch": _AT_LEAST_1,
              "negatives": _AT_LEAST_1, "epochs": _AT_LEAST_1, "patience": _AT_LEAST_1,
              "l_buy": _AT_LEAST_1, "l_view": _AT_LEAST_1, "l_search": _AT_LEAST_1,
              "l_describe": _AT_LEAST_1, "cat_epochs": _AT_LEAST_1,
              "validation_cap": _AT_LEAST_1},
    "train-baseline": {"dim": _AT_LEAST_1, "lr": _ABOVE_0, "negatives": _AT_LEAST_1,
                       "epochs": _AT_LEAST_1},
    "evaluate": {"k": _AT_LEAST_1, "query_cap": _AT_LEAST_0},
    "rank": {"k": _AT_LEAST_1},
    "grad-check": {"eps": _ABOVE_0, "tol": _ABOVE_0, "points": _AT_LEAST_1},
}


def parse_config_file(path: str) -> dict:
    values = {}
    with open(path, "r", encoding="utf-8") as handle:
        for number, raw in enumerate(handle, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{number}: expected key=value")
            key, value = line.split("=", 1)
            values[key.strip()] = value.strip()
    return values


def resolve_config(subcommand: str, argv: list[str]) -> dict:
    """Merge defaults <- config file <- flags; reject unknown keys."""
    spec = {**COMMON_KEYS, **KEYS[subcommand]}
    values = {key: default for key, (default, _p, _h) in spec.items()}
    raw: dict[str, str] = {}

    i = 0
    config_path = None
    while i < len(argv):
        token = argv[i]
        if token in ("--config", "-c"):
            if i + 1 >= len(argv):
                raise UsageError("--config needs a path")
            config_path = argv[i + 1]
            i += 2
        elif token.startswith("--"):
            key = token[2:].replace("-", "_")
            if i + 1 >= len(argv):
                raise UsageError(f"flag {token} needs a value")
            raw[key] = argv[i + 1]
            i += 2
        else:
            raise UsageError(f"unexpected argument {token!r}")

    file_values = parse_config_file(config_path) if config_path else {}
    for source in (file_values, raw):
        for key, value in source.items():
            if key not in spec:
                valid = ", ".join(sorted(spec))
                raise UsageError(f"unknown key {key!r}; valid keys: {valid}")
            _default, parser, _help = spec[key]
            try:
                values[key] = parser(value)
            except ValueError:
                raise UsageError(f"bad value for {key!r}: {value!r}") from None
    for key, (bound, inclusive) in {**COMMON_RANGES, **RANGES.get(subcommand, {})}.items():
        value = values[key]
        if not (value >= bound if inclusive else value > bound):
            relation = ">=" if inclusive else ">"
            raise UsageError(f"{key} must be {relation} {bound}, got {value}")
    return values


def help_text(subcommand: str | None = None) -> str:
    if subcommand is None:
        lines = ["usage: prodkg <subcommand> [--config file] [--key value ...]", "",
                 "subcommands:"]
        lines += [f"  {name}" for name in SUBCOMMANDS]
        lines.append("\nrun 'prodkg <subcommand> --help' for the key reference")
        return "\n".join(lines)
    spec = {**COMMON_KEYS, **KEYS[subcommand]}
    lines = [f"usage: prodkg {subcommand} [--config file] [--key value ...]", "", "keys:"]
    for key in sorted(spec):
        default, _parser, help_line = spec[key]
        lines.append(f"  --{key:<16} {help_line} (default: {default})")
    return "\n".join(lines)


def write_manifest(out_dir: str, subcommand: str, config: dict, inputs: list[str],
                   **extra) -> None:
    os.makedirs(out_dir, exist_ok=True)

    # Paths are stored relative to the artifact directory: the manifest stays
    # sufficient to re-run the command, and runs that differ only in where
    # they live still produce byte-identical artifacts.
    def relative(path):
        return os.path.relpath(path, out_dir) if path else path

    echo = {key: (relative(value) if key in ("data", "run") else value)
            for key, value in config.items() if key != "out"}
    blob = json.dumps(echo, sort_keys=True)
    manifest = {
        "command": subcommand,
        "config": echo,
        "config_hash": hashlib.sha256(blob.encode()).hexdigest(),
        "inputs": sorted(relative(path) for path in inputs),
        "seed": config.get("seed"),
        "versions": {"prodkg": __version__, "numpy": np.__version__,
                     "python": ".".join(map(str, sys.version_info[:3]))},
        **extra,
    }
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=1, sort_keys=True)
        handle.write("\n")


def _write_vocab(path: str, vocab) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for idx in vocab.real_ids():
            handle.write(f"{idx}\t{vocab.key(idx)}\n")


def _run_dir_state(run: str) -> pl.PipelineData:
    """Rebuild the split pipeline state (splits have no seed) from an ingest run."""
    if not run or not os.path.isdir(run):
        raise DataError(f"run directory not found: {run!r}; run 'prodkg ingest' first")
    filtered_dir = os.path.join(run, "filtered")
    if not os.path.isdir(filtered_dir):
        raise DataError(f"missing filtered records under {run!r}; run 'prodkg ingest' first")
    return pl.load_and_split(dm.modality_paths(filtered_dir))


def _load_model(run: str) -> tuple[str, object, dict]:
    """Checkpoint directory, parameters and per-table key lists of a trained run."""
    checkpoint = os.path.join(run, "model")
    if not os.path.isdir(checkpoint):
        raise DataError(f"missing trained model at {checkpoint!r}; run 'prodkg train' first")
    return (checkpoint, *load_checkpoint(checkpoint))


def _stage_config(factory, **fields):
    """A stage's config object, built before the stage reads anything; a value
    its checks reject is a usage error."""
    try:
        return factory(**fields)
    except ValueError as err:
        raise UsageError(str(err)) from None


def cmd_gen_data(config: dict) -> int:
    out = config["out"]
    synth = _stage_config(
        SynthConfig, n_items=config["items"], n_words=config["words"],
        n_clusters=config["clusters"], n_sessions=config["sessions"],
        n_searches=config["searches"], n_substitutions=config["substitutions"],
        noise_rate=config["noise"], seed=config["seed"])
    generate(synth, out)
    write_manifest(out, "gen-data", config, [])
    print(f"wrote synthetic dataset to {out}/")
    return 0


def cmd_ingest(config: dict) -> int:
    data_dir = config["data"]
    if not data_dir:
        raise UsageError("ingest needs --data <directory>")
    paths = {name: p for name, p in dm.modality_paths(data_dir).items() if os.path.exists(p)}
    if not paths:
        raise DataError(f"no modality files found under {data_dir!r}")
    dataset = dm.ingest_dataset(paths, config["item_min"], config["word_min"])
    out = config["out"]
    filtered = dm.modality_paths(os.path.join(out, "filtered"))
    for modality, records in (("buy_sessions", dataset.buy_sessions),
                              ("view_sessions", dataset.view_sessions),
                              ("substitutions", dataset.substitutions),
                              ("search", dataset.searches)):
        # every later stage splits these records chronologically
        if records and not dm.splittable(len(records)):
            raise DataError(f"{modality} ({filtered[modality]}): {len(records)} records after "
                            "filtering cannot form nonempty train, validation and test parts")
    dm.export_dataset(dataset, os.path.join(out, "filtered"))
    for namespace in dm.NAMESPACES:
        _write_vocab(os.path.join(out, f"vocab_{namespace}.tsv"), dataset.vocab[namespace])
    write_manifest(out, "ingest", config, sorted(paths.values()))
    print(f"ingested {data_dir} -> {out}/ "
          f"({dataset.vocab[dm.ITEM].size - 1} items, {dataset.vocab[dm.WORD].size - 1} words)")
    return 0


def _seq_lens(config: dict) -> dict:
    return {"complement": config["l_buy"], "co_view": config["l_view"],
            "search": config["l_search"], "describe": config["l_describe"]}


def cmd_build_prg(config: dict) -> int:
    state = _run_dir_state(config["run"])
    graphs = pl.build_graphs(state, k=config["k"], walks_per_node=config["walks"],
                             walk_length=config["walk_length"], p=config["p"], q=config["q"],
                             seed=config["seed"])
    out = config["out"]
    os.makedirs(out, exist_ok=True)
    vocab = state.dataset.vocab[dm.ITEM]
    export_prg([graphs[r] for r in sorted(graphs)],
               os.path.join(out, "prg_triples.tsv"), key_of=vocab.key)
    write_manifest(out, "build-prg", config, [config["run"]])
    n_facts = sum(len(v) for g in graphs.values() for v in g.neighbors.values())
    print(f"wrote {n_facts} relation-graph facts to {out}/prg_triples.tsv")
    return 0


def cmd_train(config: dict) -> int:
    train_config = _stage_config(
        TrainConfig, lr=config["lr"], batch_size=config["batch"],
        negatives=config["negatives"], patience=config["patience"],
        max_epochs=config["epochs"], seed=config["seed"], schedule=config["schedule"],
        single_task=config["single_task"] or None, validation_cap=config["validation_cap"])
    state = _run_dir_state(config["run"])
    vocab = state.dataset.vocab
    seq_lens = _seq_lens(config)
    prg_hash = pl.load_graph_splits(state, os.path.join(config["run"], "prg"))
    pl.mask_products(state, 0.1, seed=config["seed"])
    specs = pl.assemble_training_data(state, seq_lens)
    model_config = ModelConfig(dim=config["dim"], seq_lens=seq_lens, seed=config["seed"])
    params = init_params(model_config, vocab[dm.ITEM].size, vocab[dm.WORD].size,
                         vocab[dm.CATEGORY].size)
    cat_losses = pl.pretrain_categories(state, params, epochs=config["cat_epochs"],
                                        seed=config["seed"])
    result = train(train_config, specs, params, state.validation_examples)
    out = config["out"]
    save_checkpoint(out, result.params, vocab)
    with open(os.path.join(out, "category_pretrain_loss.tsv"), "w", encoding="utf-8") as handle:
        handle.write("epoch\tloss\n")
        for epoch, loss in enumerate(cat_losses, 1):
            handle.write(f"{epoch}\t{loss:.9g}\n")
    with open(os.path.join(out, "metrics_log.tsv"), "w", encoding="utf-8") as handle:
        handle.write("epoch\ttrained_task\ttask\tmetric\tvalue\n")
        for epoch, trained, task, metric, value in result.log:
            handle.write(f"{epoch}\t{trained}\t{task}\t{metric}\t{value:.9g}\n")
    with open(os.path.join(out, "masked_items.tsv"), "w", encoding="utf-8") as handle:
        for item in state.masked_items:
            handle.write(f"{vocab[dm.ITEM].key(int(item))}\n")
    write_manifest(out, "train", config, [config["run"]], prg_config_hash=prg_hash)
    print(f"trained for {result.epochs_run} epochs (best {result.best_epoch}); "
          f"checkpoint in {out}/")
    return 0


def cmd_train_baseline(config: dict) -> int:
    kg_config = _stage_config(KgConfig, variant=config["variant"], dim=config["dim"],
                              lr=config["lr"], margin=config["margin"], norm=config["norm"],
                              epochs=config["epochs"], negatives=config["negatives"],
                              seed=config["seed"])
    state = _run_dir_state(config["run"])
    prg_hash = pl.load_graph_splits(state, os.path.join(config["run"], "prg"))
    model, _space = pl.train_prg_baseline(state, kg_config)
    out = config["out"]
    os.makedirs(out, exist_ok=True)
    np.savez(os.path.join(out, f"kg_{config['variant']}.npz"),
             **{name: value for name, value in model.params.items()})
    write_manifest(out, "train-baseline", config, [config["run"]], prg_config_hash=prg_hash)
    print(f"trained {config['variant']} on PRG triples; model in {out}/")
    return 0


def _read_masked_items(path: str, vocab) -> np.ndarray:
    """Item ids of the probe's masked products, one item key per line."""
    if not os.path.isfile(path):
        raise DataError(f"missing {path!r}; run 'prodkg train' first")
    return np.array([dm.at_line(path, number, lambda: vocab.id(key))
                     for number, key in dm._read_lines(path)], dtype=np.int64)


def cmd_evaluate(config: dict) -> int:
    run = config["run"]
    checkpoint, params, _keys = _load_model(run)
    state = _run_dir_state(run)
    prg_dir = os.path.join(run, "prg")
    prg_hash = pl.load_graph_splits(state, prg_dir)
    model_manifest = pl.read_manifest(os.path.join(checkpoint, "manifest.json"))
    if model_manifest.get("prg_config_hash") != prg_hash:
        raise DataError(f"{prg_dir}/manifest.json is not the build-prg run the model in "
                        f"{checkpoint!r} was trained on; re-run 'prodkg train'")
    state.masked_items = _read_masked_items(os.path.join(checkpoint, "masked_items.tsv"),
                                            state.dataset.vocab[dm.ITEM])
    features, labels, test_rows = pl.probe_inputs(state, params)
    searches = state.splits["searches"]
    cap = config["query_cap"] or None
    report = evaluate_all(
        params,
        graph_splits=state.graph_splits,
        search_test=list(searches.test),
        train_queries={tuple(sorted(r.query_words)) for r in searches.train},
        recommend_sessions=pl.recommend_test_sessions(state),
        probe_features=features, probe_labels=labels, probe_test_rows=test_rows,
        k=config["k"], query_cap=cap)
    out = config["out"]
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "report.tsv"), "w", encoding="utf-8") as handle:
        handle.write(report.to_tsv())
    with open(os.path.join(out, "report_summary.txt"), "w", encoding="utf-8") as handle:
        handle.write(report.summary())
    write_manifest(out, "evaluate", config, [run])
    print(report.summary())
    return 0


def cmd_rank(config: dict) -> int:
    relation = config["relation"]
    if relation not in PKG_SCORING:
        raise UsageError(f"unknown relation {relation!r}; valid relations: "
                         + ", ".join(PKG_SCORING))
    head_keys = config["head"].split()
    if not head_keys:
        raise UsageError("rank needs --head <entity key(s)>")
    _checkpoint, params, keys = _load_model(config["run"])
    namespace, table = {"search": (dm.WORD, "word"), "describe": (dm.WORD, "word"),
                        "isa": (dm.CATEGORY, "category")}.get(relation, (dm.ITEM, "item_in"))
    vocab = dm.Vocabulary(namespace, {key: i for i, key in enumerate(keys[table])},
                          tuple(keys[table]))
    head = [vocab.id(k) for k in head_keys]
    if relation not in ("search", "describe", "recommend"):
        head = head[0]
    result = rank_tail(params, relation, head, keep=config["k"])
    print("rank\titem\tscore")
    for position, (item, score) in enumerate(zip(result.candidates, result.scores), 1):
        print(f"{position}\t{keys['item_in'][int(item)]}\t{score:.9g}")
    return 0


def cmd_export(config: dict) -> int:
    checkpoint, params, keys = _load_model(config["run"])
    out = config["out"]
    os.makedirs(out, exist_ok=True)
    for name, table in params.tables.items():
        write_table_tsv(os.path.join(out, f"embeddings_{name}.tsv"), table, keys[name])
    write_manifest(out, "export", config, [checkpoint])
    print(f"exported {len(params.tables)} tables to {out}/")
    return 0


def cmd_grad_check(config: dict) -> int:
    from .verification import run_gradient_sweep

    reports = run_gradient_sweep(eps=config["eps"], points=config["points"],
                                 seed=config["seed"])
    worst = 0.0
    for name, report in reports:
        status = "ok" if report.passed(config["tol"]) else "FAIL"
        print(f"{name:<28} max rel err {report.max_rel_error:.3e}  [{status}]")
        worst = max(worst, report.max_rel_error)
    if worst >= config["tol"]:
        print(f"gradient check FAILED (worst {worst:.3e} >= tol {config['tol']:g})")
        return 3
    print(f"all gradients verified (worst {worst:.3e} < tol {config['tol']:g})")
    return 0


HANDLERS = {
    "gen-data": cmd_gen_data,
    "ingest": cmd_ingest,
    "build-prg": cmd_build_prg,
    "train": cmd_train,
    "train-baseline": cmd_train_baseline,
    "evaluate": cmd_evaluate,
    "rank": cmd_rank,
    "export": cmd_export,
    "grad-check": cmd_grad_check,
}


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] in ("-h", "--help", "help"):
        print(help_text())
        return 0
    subcommand = argv[0]
    if subcommand not in SUBCOMMANDS:
        print(help_text())
        print(f"\nunknown subcommand {subcommand!r}", file=sys.stderr)
        return 1
    rest = argv[1:]
    if "--help" in rest or "-h" in rest:
        print(help_text(subcommand))
        return 0
    try:
        config = resolve_config(subcommand, rest)
        return HANDLERS[subcommand](config)
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 1
    except DataError as err:
        print(f"data error: {err}", file=sys.stderr)
        return 2
    except NumericalError as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
