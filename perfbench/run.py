#!/usr/bin/env python3
"""End-to-end benchmark of the `prodkg` stages.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The benchmark generates the workload's inputs
from the seed and runs `ingest` on them (the set-up, repeated and timed).
It then runs the workload's stages the way a user does: one `prodkg`
subprocess after another from this one driving process, on the code under
`src/`.  Rounds of stages repeat while another round is expected to end
within `--seconds` (at least one round), and times are medians over the
rounds; the correctness checks then run once on the outputs.  Every stage
invocation and every check is one operation.

`--trace 1` runs one untraced round, then one traced round: the same set-up
and stages run in this process through `prodkg.cli.main`, each stage first
as it is and then with timing wrappers installed (see tracer.py), and the
run reports per-layer metrics instead of end-to-end ones, plus the tracing
overhead: traced minus untraced wall time of the same stages, run back to
back.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  Working files go to
`.perfbench_runs/` and are removed at the end; the result and the spans
stay under `.perfbench_runs/results/`.
"""
from __future__ import annotations

import os

# One BLAS thread for the stages and for this process: the stages are
# single-threaded Python, and a fixed thread count keeps timings comparable.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402

import numpy as np  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import checks  # noqa: E402
import tracer as tracing  # noqa: E402

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_runs")
SETUP_REPEATS = 5
STAGE_TIMEOUT_S = 150
RANK_K = 10
PRG_K = 20            # build-prg's default k, which every workload keeps

# gen-data's catalog for both workloads: the default make-up (clusters of 10
# items, sessions of 3-6) at half the items and a fifth of the activity, so
# that every run fits the benchmark's time budget.
CATALOG = ("--items", "1000", "--clusters", "100", "--sessions", "4000",
           "--searches", "1000", "--substitutions", "1000")
TRAIN = ("--epochs", "1")


@dataclass
class Workload:
    stages: tuple                      # (stage, extra flags)
    checks: tuple


WORKLOADS = {
    # The README's stages on a gen-data catalog, walks on the p = q = 1 path.
    "pipeline-default": Workload(
        stages=(("build-prg", ()), ("train", TRAIN), ("evaluate", ())),
        checks=("prg", "truth", "rank", "report")),
    # Biased walks and the triple baseline; the attention trainer and evaluate
    # do no work here, so a gain in them must leave this workload unchanged.
    "prg-baseline": Workload(
        stages=(("build-prg", ("--p", "0.25", "--q", "4")),
                ("train-baseline", ("--variant", "transE", "--epochs", "1"))),
        checks=("prg", "transe")),
}

END_TO_END_UNITS = {"setup_s": "s", "pipeline_s": "s", "peak_rss_mb": "MB",
                    "truth_hit10": "fraction"}
STAGE_OUT = {"build-prg": "prg", "train": "model", "evaluate": "eval", "train-baseline": "kg"}


class StageFailed(RuntimeError):
    """A stage subprocess exited with an error; its outputs cannot be checked."""


# --- processes -------------------------------------------------------------------

@dataclass
class Outcome:
    label: str
    wall_s: float
    rss_mb: float
    returncode: int
    stdout: str


def run_process(argv: list, log_base: str, label: str) -> Outcome:
    """Run one subprocess to its end; wall time, and peak RSS from wait4."""
    env = dict(os.environ, PYTHONPATH=SRC)
    with open(log_base + ".out", "w", encoding="utf-8") as out, \
            open(log_base + ".err", "w", encoding="utf-8") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        watchdog = threading.Timer(STAGE_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(log_base + ".out", encoding="utf-8") as handle:
        stdout = handle.read()
    return Outcome(label, wall, usage.ru_maxrss / 1024.0, proc.returncode, stdout)


def cli(*args) -> list:
    return [sys.executable, "-m", "prodkg.cli", *args]


@dataclass
class Paths:
    work: str

    @property
    def data(self):
        return os.path.join(self.work, "data")

    @property
    def run(self):
        return os.path.join(self.work, "run")

    @property
    def logs(self):
        return os.path.join(self.work, "logs")

    def out(self, stage):
        return os.path.join(self.run, STAGE_OUT[stage])


def stage_args(stage: str, extra: tuple, paths: Paths, seed: int) -> list:
    return [stage, "--run", paths.run, "--out", paths.out(stage), "--seed", str(seed), *extra]


def generate_args(paths: Paths, seed: int) -> list:
    return ["gen-data", "--seed", str(seed), "--out", paths.data, *CATALOG]


def setup_argvs(paths: Paths, seed: int) -> list:
    return [("generate", cli(*generate_args(paths, seed))),
            ("ingest", cli("ingest", "--data", paths.data, "--out", paths.run))]


# --- one run -----------------------------------------------------------------------

@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    correct: bool = True
    problems: list = field(default_factory=list)

    def record(self, label: str, problems: list, wrong_output: bool) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.correct = self.correct and not wrong_output
            self.problems.extend(f"{label}: {p}" for p in problems)
            for problem in problems:
                print(f"FAIL {label}: {problem}")
        return not problems


def run_steps(steps: list, paths: Paths, tag: str, tally: Tally) -> dict:
    """Run (label, argv) steps in order; outcomes by label."""
    outcomes = {}
    for label, argv in steps:
        outcome = run_process(argv, os.path.join(paths.logs, f"{tag}-{label}"), label)
        outcomes[label] = outcome
        if not tally.record(label, [] if outcome.returncode == 0 else
                            [f"exit {outcome.returncode}"], wrong_output=False):
            raise StageFailed(label)
    return outcomes


def setup(paths: Paths, seed: int, tally: Tally) -> dict:
    """Generate the inputs and ingest them, SETUP_REPEATS times; medians."""
    totals, phases, rss = [], {"generate": [], "ingest": []}, {"generate": 0.0, "ingest": 0.0}
    for repeat in range(SETUP_REPEATS):
        shutil.rmtree(paths.data, ignore_errors=True)
        shutil.rmtree(paths.run, ignore_errors=True)
        outcomes = run_steps(setup_argvs(paths, seed), paths, f"setup{repeat}", tally)
        totals.append(sum(o.wall_s for o in outcomes.values()))
        for label, outcome in outcomes.items():
            phases[label].append(outcome.wall_s)
            rss[label] = max(rss[label], outcome.rss_mb)
    return {"setup_s": statistics.median(totals),
            "wall": {p: statistics.median(v) for p, v in phases.items()}, "rss": rss}


def run_round(workload: Workload, paths: Paths, seed: int, tally: Tally, number: int) -> dict:
    """The workload's stages once; wall time and peak RSS per stage."""
    for stage, _extra in workload.stages:
        shutil.rmtree(paths.out(stage), ignore_errors=True)
    steps = [(stage, cli(*stage_args(stage, extra, paths, seed)))
             for stage, extra in workload.stages]
    outcomes = run_steps(steps, paths, f"round{number}", tally)
    return {stage: {"wall_s": o.wall_s, "rss_mb": o.rss_mb} for stage, o in outcomes.items()}


def run_checks(workload: Workload, paths: Paths, seed: int, tally: Tally) -> dict:
    """The workload's correctness checks; returns the quality figures."""
    vocab = checks.read_vocab(os.path.join(paths.run, "vocab_item.tsv"))
    truth = checks.read_truth(os.path.join(paths.data, "ground_truth.tsv"))
    n_items = len(vocab) + 1
    quality = {}
    for name in workload.checks:
        if name == "prg":
            with open(os.path.join(paths.out("build-prg"), "prg_triples.tsv"),
                      encoding="utf-8") as handle:
                problems, quality["prg_precision"] = checks.check_prg(handle, truth, vocab, PRG_K)
            tally.record("check prg facts", problems, wrong_output=True)
        elif name == "truth":
            tables = checks.load_checkpoint_tables(paths.out("train"))
            hits = checks.truth_hits(checks.checkpoint_scorer(tables), truth, vocab, n_items)
            quality["truth_hits"] = hits
            tally.record("check truth hit@10", checks.check_truth_hits(hits),
                         wrong_output=True)
        elif name == "rank":
            rank_spot_checks(paths, seed, tables, truth, vocab, tally)
        elif name == "report":
            with open(os.path.join(paths.out("evaluate"), "report.tsv"), encoding="utf-8") as handle:
                report = handle.read().splitlines()
            tally.record("check report", checks.check_report(report), wrong_output=True)
        elif name == "transe":
            n_entities = sum(len(checks.read_vocab(os.path.join(paths.run, f"vocab_{ns}.tsv")))
                             for ns in ("item", "word", "category"))
            with np.load(os.path.join(paths.out("train-baseline"), "kg_transE.npz")) as blob:
                problems, (ent, rel) = checks.check_transe(dict(blob), n_entities, 100)
            tally.record("check transE tables", problems, wrong_output=True)
            if not problems:
                quality["truth_hits"] = checks.truth_hits(
                    checks.transe_scorer(ent, rel, n_items), truth, vocab, n_items)
    if "truth_hits" in quality:
        quality["truth_hit10"] = float(np.mean([h for h, _bar in quality["truth_hits"].values()]))
    return quality


def rank_spot_checks(paths, seed, tables, truth, vocab, tally) -> None:
    """`prodkg rank` top-10 for one seed-chosen head per relation, against numpy."""
    rng = np.random.default_rng(seed)
    key_of = [None] * len(vocab)
    for key, idx in vocab.items():
        key_of[idx - 1] = key
    for relation in checks.TRUTH_RELATIONS:
        heads = sorted(h for h in truth[relation] if h in vocab)
        head = heads[int(rng.integers(len(heads)))]
        argv = cli("rank", "--run", paths.run, "--relation", relation, "--head", head,
                   "--k", str(RANK_K))
        outcome = run_process(argv, os.path.join(paths.logs, f"rank-{relation}"), "rank")
        label = f"check rank {relation} {head}"
        if outcome.returncode != 0:
            tally.record(label, [f"exit {outcome.returncode}"], wrong_output=False)
            continue
        scores = tables[checks.TAIL_TABLE[relation]][1:] @ tables["item_in"][vocab[head]]
        try:
            problems = checks.check_rank_listing(checks.parse_rank_output(outcome.stdout),
                                                 scores, key_of, RANK_K)
        except ValueError as err:
            problems = [str(err)]
        tally.record(label, problems, wrong_output=True)


def another_round_fits(elapsed: float, done: int, seconds: float) -> bool:
    """Whether one more round, as long as the mean one so far, ends within `seconds`."""
    return elapsed + elapsed / done <= seconds


# --- traced round ----------------------------------------------------------------------

def traced_round(workload: Workload, seed: int, work: str, tally: Tally):
    """Set-up and stages once more in this process; each stage runs untraced and
    then traced, back to back, so that their difference is the tracing overhead.
    Returns the tracer and the untraced and traced wall time of each stage."""
    sys.path.insert(0, SRC)
    from prodkg import cli as prodkg_cli

    tracer = tracing.Tracer()
    traced = Paths(os.path.join(work, "traced"))
    os.makedirs(traced.logs, exist_ok=True)

    def stage_call(argv):
        def call():
            with open(os.path.join(traced.logs, f"{argv[0]}.out"), "w",
                      encoding="utf-8") as handle, contextlib.redirect_stdout(handle):
                code = prodkg_cli.main(argv)
            if code != 0:
                raise StageFailed(f"traced {argv[0]} exit {code}")
        return call

    calls = [("generate", stage_call(generate_args(traced, seed))),
             ("ingest", stage_call(["ingest", "--data", traced.data, "--out", traced.run]))]
    calls += [(stage, stage_call(stage_args(stage, extra, traced, seed)))
              for stage, extra in workload.stages]
    plain, walls = {}, {}
    for stage, call in calls:
        gc.collect()
        start = time.perf_counter()
        try:
            call()
            plain[stage] = time.perf_counter() - start
            gc.collect()
            tracer.install()
            walls[stage] = tracer.run_stage(stage, call)
        finally:
            tracer.uninstall()
            tally.record(f"in-process {stage}", [] if stage in walls else ["failed"],
                         wrong_output=False)
    return tracer, plain, walls


# --- reporting ---------------------------------------------------------------------------

def machine_facts() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = ""
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), "")
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": BLAS_THREADS}


def stage_medians(rounds: list) -> dict:
    return {stage: statistics.median(r[stage]["wall_s"] for r in rounds) for stage in rounds[0]}


def end_to_end(setup_result, rounds, quality) -> dict:
    values = {"setup_s": setup_result["setup_s"],
              "pipeline_s": statistics.median(sum(s["wall_s"] for s in r.values())
                                              for r in rounds),
              "peak_rss_mb": max([s["rss_mb"] for r in rounds for s in r.values()]
                                 + list(setup_result["rss"].values())),
              "truth_hit10": quality.get("truth_hit10")}
    # a metric that a failed check left unmeasured is left out
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END_UNITS.items() if values[name] is not None}


def per_layer(setup_result, rounds, tracer, plain_walls, traced_walls) -> dict:
    metrics = {name: {"value": value, "unit": unit} if value is not None else
               {"value": None, "unit": unit, "absent": True}
               for name, (value, unit) in tracing.layer_metrics(tracer).items()}
    untraced = {**setup_result["wall"], **stage_medians(rounds)}
    rss = dict(setup_result["rss"])
    rss.update({stage: max(r[stage]["rss_mb"] for r in rounds) for stage in rounds[0]})
    remainder = {row["stage"]: row["untraced_s"] for row in tracing.stage_breakdown(tracer)}
    for stage in tracing.STAGES:
        metrics[f"stage.{stage}.wall_s"] = {"value": untraced.get(stage, 0.0), "unit": "s"}
        metrics[f"stage.{stage}.peak_rss_mb"] = {"value": rss.get(stage, 0.0), "unit": "MB"}
        metrics[f"stage.{stage}.traced_s"] = {"value": traced_walls.get(stage, 0.0), "unit": "s"}
        metrics[f"stage.{stage}.untraced_self_s"] = {"value": remainder.get(stage, 0.0),
                                                     "unit": "s"}
    overhead = sum(traced_walls.values()) - sum(plain_walls.values())
    metrics["trace.spans"] = {"value": len(tracer.spans), "unit": "count"}
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    metrics["trace.overhead_pct"] = {"value": 100.0 * overhead / sum(plain_walls.values()),
                                     "unit": "%"}
    return metrics


def print_summary(setup_result, rounds, quality, tracer) -> None:
    print(f"setup generate {setup_result['wall']['generate']:.3f}s ingest "
          f"{setup_result['wall']['ingest']:.3f}s (medians of {SETUP_REPEATS})")
    for stage, wall in stage_medians(rounds).items():
        rss = max(r[stage]["rss_mb"] for r in rounds)
        print(f"stage {stage} {wall:.3f}s (median of {len(rounds)} round(s)), "
              f"peak RSS {rss:.1f} MB")
    for relation, (hit, bar) in quality.get("truth_hits", {}).items():
        print(f"truth hit@10 {relation} {hit:.4f} (random-ranking bar {bar:.4f})")
    for relation, (precision, rate) in quality.get("prg_precision", {}).items():
        print(f"prg precision {relation} {precision:.4f} (random pair {rate:.4f})")
    if tracer is not None:
        for row in tracing.stage_breakdown(tracer):
            parts = ", ".join(f"{k} {v:.3f}" for k, v in row["self_s"].items())
            print(f"traced {row['stage']} {row['wall_s']:.3f}s: {parts}, other traced "
                  f"{row['other_traced_s']:.3f}, untraced {row['untraced_s']:.3f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="prodkg end-to-end benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    options = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "prodkg", "cli.py")):
        print(f"no prodkg source tree under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    failures = checks.self_test()
    if failures:
        print("checker self-tests failed: " + "; ".join(failures), file=sys.stderr)
        return 2

    workload = WORKLOADS[options.workload]
    tag = f"{options.workload}-seed{options.seed}-trace{options.trace}"
    work = os.path.join(OUT, f"work-{tag}-{os.getpid()}")
    paths = Paths(os.path.join(work, "untraced"))
    os.makedirs(paths.logs, exist_ok=True)
    results_dir = os.path.join(OUT, "results")
    os.makedirs(results_dir, exist_ok=True)
    facts = machine_facts()
    print("machine " + json.dumps(facts, sort_keys=True))

    tally = Tally()
    rounds = []
    tracer = None
    try:
        setup_result = setup(paths, options.seed, tally)
        # a traced run times its stages in the traced round; one untraced
        # round gives the subprocess wall times and peak RSS
        start = time.perf_counter()
        while not rounds or (not options.trace and another_round_fits(
                time.perf_counter() - start, len(rounds), options.seconds)):
            rounds.append(run_round(workload, paths, options.seed, tally, len(rounds)))
        quality = run_checks(workload, paths, options.seed, tally)
        if options.trace:
            tracer, plain_walls, traced_walls = traced_round(workload, options.seed, work, tally)
            metrics = per_layer(setup_result, rounds, tracer, plain_walls, traced_walls)
            tracer.write(os.path.join(results_dir, f"{tag}-spans.jsonl"))
        else:
            metrics = end_to_end(setup_result, rounds, quality)
    except StageFailed as err:
        print(f"stage {err} failed; logs under {work}", file=sys.stderr)
        return 1
    print_summary(setup_result, rounds, quality, tracer)
    result = {"correct": tally.correct, "attempted": tally.attempted, "failed": tally.failed,
              "metrics": metrics}
    with open(os.path.join(results_dir, f"{tag}.json"), "w", encoding="utf-8") as handle:
        json.dump({"workload": options.workload, "seed": options.seed, "machine": facts,
                   "problems": tally.problems, "setup": setup_result, "rounds": rounds,
                   "quality": quality,
                   "breakdown": tracing.stage_breakdown(tracer) if tracer else None,
                   **result}, handle, indent=1)
    shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
