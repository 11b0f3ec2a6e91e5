"""Shows that every reference check accepts a right answer and rejects a
corrupted one. Needs numpy only, not abelwords:

    python3 perfbench/selftest.py

Exit code 0 when every case behaves, 1 otherwise.
"""

from __future__ import annotations

import json
import sys
from types import SimpleNamespace

import numpy as np

import reference as ref
import run
from worker import record_digest, word_digest


def witness(alphas, betas, s):
    """A witness tuple as the checks receive it, from block texts."""
    parts = [np.concatenate([ref.from_text(p) for p in side]) if "".join(side)
             else np.zeros(0, np.int64) for side in (alphas, betas)]
    lens = [np.array([len(p) for p in side], np.int64) for side in (alphas, betas)]
    return (len(alphas), s, *lens, *parts)


def main() -> int:
    words = {
        "prim": (ref.from_text("aabbab"), 2),
        "power": (ref.from_text("abababab"), 2),
        "roots12": (ref.from_text("aabbabababab"), 2),
        "u": (ref.from_text("cbabc"), 3),
        "x": (ref.from_text("abca"), 3),
        "u2": (ref.from_text("abba"), 2),
        "x2": (ref.from_text("baab"), 2),
        "apart_u": (ref.from_text("aabb"), 2),
        "apart_x": (ref.from_text("abab"), 2),
    }
    stored = ref.load_stored_counts()
    c = ref.Checker(words, stored)
    good_wit = witness(["cb", "bc", "bc"], ["a", "a", "a"], 2)
    table = [(n, ref.psi_ref(3, n), ref.psi_a_ref(3, n, stored), 0) for n in range(1, 7)]
    table = [(n, f, p, f - p) for n, f, p, _ in table]

    accept = {
        "A-primitive verdict": c.verdict("prim", True, None),
        "witness at a maximal divisor": c.verdict("power", False, 4),
        "shortest witness": c.verdict("power", False, 2),
        "root profile": c.profile("roots12", 12, (4, 6), (4, 6)),
        "commutation witness": c.witness("u", "x", 3, good_wit),
        "aligned witness": c.witness("u2", "x2", 2, witness(["", "", "", ""],
                                                             ["ab", "ba", "ba", "ab"], 3)),
        "no witness for words that do not commute": c.witness("apart_u", "apart_x", 2, None),
        "shared root": c.shared_root("u2", "x2", 2, ref.from_text("ba")),
        "psi_a at a prime": c.psi_a(2, 7, 126),
        "psi_a at a prime power": c.psi_a(2, 8, 186),
        "stored psi_a": c.psi_a(2, 12, 2972),
        "psi": c.psi(2, 12, 4020),
        "delta at a prime power": c.delta_prime_power(2, 2, 3, 240 - 186),
        "count table": c.count_table(3, 6, table, ()),
    }
    corrupted_table = list(table)
    corrupted_table[3] = (4, table[3][1], table[3][2] + 1, table[3][3] - 1)
    reject = {
        "A-primitive verdict on an Abelian power": c.verdict("power", True, None),
        "verdict flipped": c.verdict("prim", False, 3),
        "witness that is not a divisor": c.verdict("power", False, 3),
        "witness equal to the length": c.verdict("power", False, 8),
        "witness whose blocks differ": c.verdict("roots12", False, 3),
        "root missing from the profile": c.profile("roots12", 12, (6,), (6,)),
        "extra root in the profile": c.profile("roots12", 12, (3, 4, 6), (3, 4, 6)),
        "wrong A-primitive roots": c.profile("roots12", 12, (4, 6), (4,)),
        "wrong profile length": c.profile("roots12", 11, (4, 6), (4, 6)),
        "no witness for commuting words": c.witness("u", "x", 3, None),
        "witness with a changed letter": c.witness(
            "u", "x", 3, witness(["cb", "bc", "bb"], ["a", "a", "a"], 2)),
        "witness with a wrong s": c.witness("u", "x", 3, good_wit[:1] + (3,) + good_wit[2:]),
        "witness with a misplaced cut": c.witness(
            "u", "x", 3, witness(["c", "b", "b"], ["ba", "cb", "ca"], 2)),
        "witness for words that do not commute": c.witness(
            "apart_u", "apart_x", 2, witness(["", "", "", ""], ["aa", "bb", "ab", "ab"], 3)),
        "shared root taken from u": c.shared_root("u2", "x2", 2, ref.from_text("ab")),
        "no shared root": c.shared_root("u2", "x2", 2, None),
        "psi_a at a prime off by one": c.psi_a(2, 7, 127),
        "psi_a at a prime power off by one": c.psi_a(2, 8, 185),
        "stored psi_a off by one": c.psi_a(2, 12, 2973),
        "psi off by one": c.psi(2, 12, 4021),
        "delta at a prime power off by one": c.delta_prime_power(2, 2, 3, 55),
        "count table with a wrong row": c.count_table(3, 6, corrupted_table, ()),
        "count table with a skipped row": c.count_table(3, 6, table[:-1], (6,)),
    }

    # the run-level checks: construction digests, failures, round agreement
    plan = SimpleNamespace(words={"prim": words["prim"]}, ops=[
        {"id": "decide", "call": "is_a_primitive", "args": ["prim"], "check": "verdict",
         "may_fail": None},
        {"id": "budget", "call": "psi_a", "args": [2, 31], "check": "psi_a",
         "may_fail": "EnumerationBudgetError"},
        {"id": "cli", "call": "cli", "words": ["prim"], "check": "cli_check_json",
         "ok_exits": [0, 1], "may_fail": None},
    ])
    records = [("verdict", True, None), ("error", "EnumerationBudgetError"),
               ("exit", 0, json.dumps({"verdict": True, "witness": None}))]

    def phase(recs):
        digest = [record_digest(r) for r in recs]
        return {"digests": [digest, digest]}

    good_inputs = {"prim": word_digest(*words["prim"])}
    problems, attempted, failed = run.check_run(plan, records, [phase(records)], good_inputs)
    accept["run with one allowed failure"] = "; ".join(problems) or None
    counts_ok = (attempted, failed) == (6, 2)
    bad = dict(good_inputs, prim=word_digest(ref.from_text("aabbba"), 2))
    reject["input built wrong"] = "; ".join(run.check_run(plan, records, [phase(records)], bad)[0])
    drift = phase(records)
    drift["digests"][1] = drift["digests"][1][:1] + ["0" * 64] + drift["digests"][1][2:]
    reject["rounds that disagree"] = "; ".join(run.check_run(plan, records, [drift], good_inputs)[0])
    wrong_exit = records[:2] + [("exit", 1, records[2][2])]
    reject["CLI exit code that contradicts its verdict"] = "; ".join(
        run.check_run(plan, wrong_exit, [phase(wrong_exit)], good_inputs)[0])
    unexpected = [("error", "MemoryError")] + records[1:]
    reject["an operation that should not fail"] = "; ".join(
        run.check_run(plan, unexpected, [phase(unexpected)], good_inputs)[0])

    # the references themselves: the enumerator against the closed forms
    agree = {
        f"enumerator at k={k}, n={n}": ref.enumerate_psi_a(k, n) == ref.psi_a_ref(k, n, stored)
        for k, n in ((2, 7), (3, 5), (2, 8), (3, 4), (2, 9), (2, 12), (3, 6))
    }
    agree["antichain word of 12 has Parikh vector (12, 12)"] = (
        np.bincount(ref.antichain_letters(12)).tolist() == [12, 12])

    bad_cases = []
    for name, problem in accept.items():
        if problem:
            bad_cases.append(f"rejected a right answer: {name}: {problem}")
    for name, problem in reject.items():
        if not problem:
            bad_cases.append(f"accepted a corrupted answer: {name}")
    for name, ok in agree.items():
        if not ok:
            bad_cases.append(f"reference disagrees: {name}")
    if not counts_ok:
        bad_cases.append(f"attempted/failed {attempted}/{failed}, expected 6/2")
    for line in bad_cases:
        print(line)
    total = len(accept) + len(reject) + len(agree) + 1
    print(f"{total - len(bad_cases)}/{total} self-test cases behave")
    return 1 if bad_cases else 0


if __name__ == "__main__":
    sys.exit(main())
