"""Benchmark of abelwords: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload decide|analyze|count|cli --seed N
                             --seconds S --trace 0|1

Run from the root of a checkout. The load is a closed loop: one caller,
one operation at a time. The inputs are made from the seed (workloads.py)
and handed to a worker process (worker.py) that imports abelwords from
./src, builds them with the package's constructors and repeats whole
rounds of the workload's operations for about S seconds. The answers are
then checked against independent references (reference.py).

--trace 0 prints the end-to-end metrics: setup_s, wall_s, op_p50_s and
peak_rss_mib. --trace 1 prints the per-layer metrics of a traced run,
with the tracing overhead. The last line of stdout is always
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}};
details go to perfbench/out/. Exit code 0 means every answer was right.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import reference as ref
from tracer import DECIDERS, SPANNED
from workloads import WORKLOADS, make_plan
from worker import word_digest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_RUNS = 11  # set-ups per run; setup_s is their median


def run_worker(manifest_dir: Path, mode: str, seconds: float, timeout: float) -> dict:
    """Run worker.py in a fresh interpreter and return what it pickled."""
    argv = [sys.executable, str(BENCH / "worker.py"),
            "--inputs", str(manifest_dir), "--mode", mode, "--seconds", str(seconds)]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    finally:
        if proc.poll() is None:  # timed out: stop the worker and its children
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"worker --mode {mode} exited {proc.returncode}:\n{err.decode()}")
    return pickle.loads(out)


# ------------------------------------------------------------------ checks

def _witness(record):
    """A witness record as (r, s, alpha lengths, beta lengths, alphas, betas)."""
    if record == ("value", None):
        return None
    return record[1:]


def _text_witness(payload):
    if payload is None:
        return None
    alphas, betas = payload["alphas"], payload["betas"]
    letters = [ref.from_text("".join(parts)) for parts in (alphas, betas)]
    lengths = [np.array([len(p) for p in parts], np.int64) for parts in (alphas, betas)]
    return (payload["r"], payload["s"], *lengths, *letters)


def _check_cli(checker: ref.Checker, op: dict, code: int, out: str):
    kind, words = op["check"], op["words"]
    if kind in ("cli_check_json", "cli_check_text"):
        if kind == "cli_check_json":
            answer = json.loads(out)
            verdict, witness = answer["verdict"], answer["witness"]
        else:
            line = out.splitlines()[0]
            verdict = line == "A-primitive"
            witness = None if verdict else int(line.rsplit(" ", 1)[1])
        if code != (0 if verdict else 1):
            return f"exit code {code} for verdict {verdict}"
        return checker.verdict(words[0], verdict, witness)
    if kind == "cli_roots_json":
        answer = json.loads(out)
        return checker.profile(words[0], answer["word_length"], answer["a_root_lengths"],
                               answer["a_primitive_root_lengths"])
    if kind == "cli_relate_json":
        answer = json.loads(out)
        if code != (0 if answer["verdict"] else 1):
            return f"exit code {code} for verdict {answer['verdict']}"
        return checker.witness(words[0], words[1], op["n"], _text_witness(answer["witness"]))
    if kind == "cli_construct":
        return None if out == op["expected"] + "\n" else "constructed word differs"
    if kind == "cli_count_json":
        answer = json.loads(out)
        row = (answer["n"], answer["psi"], answer["psi_a"], answer["delta"])
    else:  # cli_count_tsv
        header, line = out.splitlines()
        if header.split("\t") != ["n", "psi", "psi_a", "delta"]:
            return f"TSV header {header!r}"
        row = tuple(int(v) for v in line.split("\t"))
    if row[0] != op["n"]:
        return f"row for n={row[0]}, asked for n={op['n']}"
    return checker.count_row(op["k"], row)


def check_answer(checker: ref.Checker, op: dict, record) -> str | None:
    """None when the recorded answer is right, else what is wrong."""
    kind, args = op["check"], op["args"] if op["call"] != "cli" else ()
    try:
        if record[0] == "exit":
            return _check_cli(checker, op, record[1], record[2])
        if kind == "verdict":
            return checker.verdict(args[0], record[1], record[2])
        if kind == "profile":
            return checker.profile(args[0], *record[1:])
        if kind == "witness":
            return checker.witness(*args, _witness(record))
        if kind == "shared_root":
            root = None if record == ("value", None) else record[1]
            return checker.shared_root(*args, root)
        if kind == "count_table":
            _, k, rows, skipped = record
            return checker.count_table(args[0], args[1], rows, skipped)
        return getattr(checker, kind)(*args, record[1])
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unreadable answer ({type(exc).__name__}: {exc})"


def _failure(op: dict, record) -> str | None:
    if record[0] == "error":
        return record[1]
    if record[0] == "exit" and record[1] not in op["ok_exits"]:
        return f"exit {record[1]}"
    return None


def check_run(plan, records: list, phases: list[dict],
              input_digests: dict) -> tuple[list[str], int, int]:
    """Problems found, operations attempted, operations failed: `records`
    are the first round's answers, `phases` hold every round's digests."""
    stored = ref.load_stored_counts()
    checker = ref.Checker(plan.words, stored)
    problems = []
    for name, digest in input_digests.items():
        if digest != word_digest(*plan.words[name]):
            problems.append(f"input {name}: abelwords built a different word")
    attempted = failed = 0
    for i, op in enumerate(plan.ops):
        record = records[i]
        failure = _failure(op, record)
        if failure is None:
            problem = check_answer(checker, op, record)
        elif failure != op["may_fail"]:
            problem = f"failed: {failure}"
        else:
            problem = None
        if problem:
            problems.append(f"{op['id']}: {problem}")
        reference_digest = phases[0]["digests"][0][i]
        for phase in phases:
            for digests in phase["digests"]:
                attempted += 1
                failed += failure is not None
                if digests[i] != reference_digest:
                    problems.append(f"{op['id']}: answers differ between rounds")
    return problems, attempted, failed


# ----------------------------------------------------------------- metrics

def _round_walls(phase: dict) -> list[float]:
    return [sum(column) for column in zip(*phase["times"])]


def end_to_end(setups: list[float], run: dict) -> dict:
    per_op = [statistics.median(t) for t in run["times"]]
    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(_round_walls(run)), "s"),
        "op_p50_s": (statistics.median(per_op), "s"),
        "peak_rss_mib": (run["peak_rss_kib"] / 1024, "MiB"),
    }


def per_layer(res: dict, is_cli: bool) -> dict:
    """Per-layer values for one set-up plus one round: the set-up's spans
    plus the traced rounds' spans divided by the number of traced rounds."""
    setup, traced = res["setup_trace"], res["round_trace"]
    rounds = len(res["traced"]["digests"])

    def pick(kind, name):
        return setup[kind].get(name, 0) + traced[kind].get(name, 0) / rounds

    def total(name):
        return pick("total_s", name)

    def count(name):
        return pick("counts", name)

    decisions = count("decisions")
    names = set(setup["calls"]) | set(traced["calls"])
    untraced = res["main"] if is_cli else res["untraced"]
    plain = statistics.median(_round_walls(untraced))
    with_spans = statistics.median(_round_walls(res["traced"]))
    return {
        "parikh.from_text_s": (total("parikh.Word.from_text"), "s"),
        "parikh.word_init_s": (total("parikh.Word.__init__"), "s"),
        "parikh.block_test_s": (total("parikh.has_a_root_of_length"), "s"),
        "parikh.block_test_calls": (pick("calls", "parikh.has_a_root_of_length"), "count"),
        "parikh.block_parikhs_s": (total("parikh.block_parikhs"), "s"),
        "parikh.letters_scanned": (count("parikh.letters_scanned"), "count"),
        "numtheory.factorize_s": (total("numtheory.factorize"), "s"),
        "numtheory.divisors_s": (total("numtheory.divisors"), "s"),
        "numtheory.calls": (sum(pick("calls", n) for n in names
                                if n.startswith("numtheory.")), "count"),
        "primitivity.fast_s": (total("primitivity.is_a_primitive"), "s"),
        "primitivity.linear_s": (total("primitivity.is_a_primitive_linear"), "s"),
        "primitivity.self_s": (sum(pick("self_s", n) for n in DECIDERS), "s"),
        "primitivity.block_tests_per_decision": (
            count("block_tests_in_decisions") / decisions if decisions else 0.0, "ratio"),
        "roots.root_profile_s": (total("roots.root_profile"), "s"),
        "roots.self_s": (pick("self_s", "roots.root_profile"), "s"),
        "roots.prefix_decide_s": (count("roots.prefix_decide_s"), "s"),
        "roots.roots_found": (count("roots.roots_found"), "count"),
        "relations.sim_n_s": (total("relations.sim_n"), "s"),
        "relations.commute_check_s": (total("relations.commute_check"), "s"),
        "relations.commute_self_s": (pick("self_s", "relations.commute_check"), "s"),
        "relations.witness_is_valid_s": (total("relations.witness_is_valid"), "s"),
        "relations.shared_root_s": (total("relations.shared_root_check"), "s"),
        "relations.witness_blocks": (count("relations.witness_blocks"), "count"),
        "counting.psi_a_s": (total("counting.psi_a"), "s"),
        "counting.psi_s": (total("counting.psi"), "s"),
        "counting.delta_prime_power_s": (total("counting.delta_prime_power"), "s"),
        "counting.count_table_s": (total("counting.count_table"), "s"),
        "counting.words_enumerated": (count("counting.words_enumerated"), "count"),
        "counting.budget_refusals": (count("counting.budget_refusals"), "count"),
        "constructions.build_s": (sum(total(f"constructions.{f}")
                                      for f in SPANNED["constructions"]), "s"),
        "cli.process_s": (statistics.median(_round_walls(res["untraced"])) if is_cli else 0.0,
                          "s"),
        "cli.interpreter_s": (res.get("interpreter_s", 0.0), "s"),
        "cli.import_s": (res.get("import_s", 0.0), "s"),
        "cli.main_s": (plain if is_cli else 0.0, "s"),
        "trace.round_untraced_s": (plain, "s"),
        "trace.round_traced_s": (with_spans, "s"),
        "trace.overhead_s": (with_spans - plain, "s"),
    }


# -------------------------------------------------------------------- main

def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = time.monotonic()
    if not (ROOT / "src" / "abelwords" / "__init__.py").is_file():
        print(f"error: no abelwords sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    inputs = OUT / f"inputs-{tag}-{os.getpid()}"
    inputs.mkdir()
    try:
        plan = make_plan(args.workload, args.seed, inputs)
        (inputs / "manifest.json").write_text(json.dumps(plan.manifest()))
        deadline = started + 170  # the whole run ends within 180 s
        if args.trace:
            res = run_worker(inputs, "trace", args.seconds, deadline - time.monotonic())
            is_cli = args.workload == "cli"
            phases = [res["untraced"]] + ([res["main"]] if is_cli else []) + [res["traced"]]
            metrics = per_layer(res, is_cli)
        else:
            # half of the set-ups before the measured rounds and half after,
            # so that their median spans the run, not one moment of the host
            def setup() -> float:
                return run_worker(inputs, "setup", 0, deadline - time.monotonic())["setup_s"]

            setups = [setup() for _ in range(SETUP_RUNS // 2)]
            res = run_worker(inputs, "run", args.seconds, deadline - 30 - time.monotonic())
            setups.append(res["setup_s"])
            setups += [setup() for _ in range(SETUP_RUNS - len(setups))]
            phases = [res]
            metrics = end_to_end(setups, res)
        with open(inputs / "records.pickle", "rb") as f:
            records = pickle.load(f)
    finally:
        shutil.rmtree(inputs, ignore_errors=True)

    problems, attempted, failed = check_run(plan, records, phases, res["input_digests"])
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "problems": problems, "result": result,
        "ops": [{"id": op["id"], "median_s": statistics.median(t), "rounds": len(t)}
                for op, t in zip(plan.ops, phases[0]["times"])],
        "spans": {k: res[k] for k in ("setup_trace", "round_trace") if k in res},
    }
    (OUT / f"result-{tag}.json").write_text(json.dumps(detail, indent=1) + "\n")
    for problem in problems:
        print(f"wrong: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
