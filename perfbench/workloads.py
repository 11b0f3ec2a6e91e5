"""Seeded inputs and operation lists of the four workloads.

`make_plan(workload, seed, directory)` writes the inputs that the
program's process loads (ASCII text or .npy letter arrays) into
`directory` and returns the plan: a JSON-able manifest for the worker and
the reference letters of every input for the checks. The same seed gives
the same inputs. Words built by the program's own constructors are built
here too, by the reference code, so that the checks never trust them.

numpy only: this module never imports abelwords.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

import reference as ref

WORKLOADS = ("decide", "analyze", "count", "cli")

# the program's CLI, run as a fresh interpreter per operation
CLI = [sys.executable, "-m", "abelwords.cli"]


class Plan:
    """Inputs (how the worker builds each one) and the round's operations."""

    def __init__(self, directory: Path):
        self.directory = directory
        self.inputs: dict[str, dict] = {}
        self.ops: list[dict] = []
        self.words: dict[str, tuple[np.ndarray, int]] = {}

    def word(self, name: str, letters: np.ndarray, k: int, as_text: bool = True) -> str:
        """An input the worker builds with Word.from_text (k <= 26) or Word."""
        if as_text and k <= 26:
            path = self.directory / f"{name}.txt"
            path.write_text(ref.to_text(letters), "ascii")
            self.inputs[name] = {"build": "from_text", "file": path.name, "k": k}
        else:
            path = self.directory / f"{name}.npy"
            np.save(path, letters)
            self.inputs[name] = {"build": "word", "file": path.name, "k": k}
        return self.reference(name, letters, k)

    def constructed(self, name: str, family: str, parameter: int, letters, text=False) -> str:
        """An input the worker builds with a constructor of abelwords."""
        self.inputs[name] = {"build": family, "param": parameter, "text": text}
        return self.reference(name, letters, 2)

    def reference(self, name: str, letters: np.ndarray, k: int) -> str:
        """A word the checks know; the worker builds it only if it is an input."""
        self.words[name] = (letters, k)
        return name

    def op(self, call: str, *args, check: str, may_fail: str | None = None) -> None:
        self.ops.append({
            "id": f"{call}({', '.join(map(str, args))})",
            "call": call,
            "args": list(args),
            "check": check,
            "may_fail": may_fail,
        })

    def cli(self, label: str, argv: list[str], *, check: str, words=(), stdin=None,
            ok_exits=(0,), may_fail: str | None = None, **extra) -> None:
        self.ops.append({
            "id": f"cli {label}",
            "call": "cli",
            "argv": argv,
            "stdin": stdin,
            "words": list(words),
            "ok_exits": list(ok_exits),
            "check": check,
            "may_fail": may_fail,
            **extra,
        })

    def manifest(self) -> dict:
        return {"inputs": self.inputs, "ops": self.ops}


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _random_word(rng, k: int, n: int) -> np.ndarray:
    dtype = np.uint8 if k <= 256 else np.uint16
    return rng.integers(0, k, n, dtype=dtype)


def _a_primitive_word(rng, k: int, n: int) -> np.ndarray:
    """A uniformly random word, redrawn in the rare case it is an Abelian power."""
    while True:
        letters = _random_word(rng, k, n)
        if ref.is_a_primitive_ref(letters):
            return letters


def _shuffled_copies(rng, root: np.ndarray, copies: int) -> np.ndarray:
    return np.concatenate([rng.permutation(root) for _ in range(copies)])


def _last_divisor_power(rng, n: int, p: int) -> np.ndarray:
    """p shuffled copies of one random binary root, with no A-root at any
    maximal divisor of n but n/p, so a decider that goes through the
    maximal divisors in ascending prime order exits at the last one."""
    root = _random_word(rng, 2, n // p)
    others = [(n, d) for d in ref.maximal_divisors(n) if d != n // p]
    while True:
        letters = _shuffled_copies(rng, root, p)
        if all(i is not None for i in ref.block_mismatches(letters, others).values()):
            return letters


def _power_with_roots(rng, block: int, n: int) -> np.ndarray:
    """Shuffled copies of a random A-primitive binary block, redrawn until
    the A-roots are exactly the multiples of the block dividing n, so that
    every seed gives root_profile the same amount of work."""
    divs = ref.divisors(n)[:-1]
    tests = [(n, d) for d in divs]
    while True:
        letters = _shuffled_copies(rng, _a_primitive_word(rng, 2, block), n // block)
        found = ref.block_mismatches(letters, tests)
        if all((found[(n, d)] is None) == (d % block == 0) for d in divs):
            return letters


def _plan_decide(plan: Plan, seed: int) -> None:
    n8 = 9_699_690  # 2*3*5*7*11*13*17*19: eight maximal divisors
    words = [
        plan.word("prim_k2", _a_primitive_word(_rng(seed, 1), 2, n8), 2),
        plan.word("prim_k4", _a_primitive_word(_rng(seed, 2), 4, 7_207_200), 4),
        plan.word("prim_k26", _a_primitive_word(_rng(seed, 3), 26, 1_441_440), 26),
    ]
    rng = _rng(seed, 4)
    half = _random_word(rng, 2, n8 // 2)
    words.append(plan.word("square_k2", np.concatenate([half, rng.permutation(half)]), 2))
    words.append(plan.word("power19_k2", _last_divisor_power(_rng(seed, 5), n8, 19), 2))
    words.append(plan.word("prim_2e23", _a_primitive_word(_rng(seed, 6), 2, 1 << 23), 2))
    words.append(plan.word("prim_k2048", _a_primitive_word(_rng(seed, 7), 2048, 1 << 15), 2048))
    for name in words:
        plan.op("is_a_primitive", name, check="verdict")
        plan.op("is_a_primitive_linear", name, check="verdict")


def _commuting_pair(rng, k: int, n: int, blocks_u: int, blocks_x: int):
    """u and x cut into length-n blocks that are shuffles of one random block."""
    base = _random_word(rng, k, n)
    while n > 1 and not ref.is_a_primitive_ref(base):
        base = _random_word(rng, k, n)
    return _shuffled_copies(rng, base, blocks_u), _shuffled_copies(rng, base, blocks_x)


def _plan_analyze(plan: Plan, seed: int) -> None:
    anti = plan.constructed("antichain", "antichain_word", 720_720,
                            ref.antichain_letters(720_720))
    multi = plan.constructed("multiroot", "multiroot_word", 7, ref.multiroot_letters(7))
    prim = plan.word("prim_k3", _a_primitive_word(_rng(seed, 1), 3, 360_360), 3)
    power = plan.word("power_8", _power_with_roots(_rng(seed, 2), 8, 360_360), 2,
                      as_text=False)
    for name in (anti, multi, prim, power):
        plan.op("root_profile", name, check="profile")

    u2, x2 = _commuting_pair(_rng(seed, 3), 2, 2, 37_500, 37_500)
    u1000, x1000 = _commuting_pair(_rng(seed, 4), 3, 1000, 500, 500)
    rng = _rng(seed, 5)
    un, xn = _random_word(rng, 2, 100_000), _random_word(rng, 2, 100_000)
    pairs = [
        (plan.word("u_n2", u2, 2, as_text=False), plan.word("x_n2", x2, 2, as_text=False), 2),
        (plan.word("u_n1000", u1000, 3), plan.word("x_n1000", x1000, 3), 1000),
    ]
    for u, x, n in pairs:
        plan.op("commute_check", u, x, n, check="witness")
        plan.op("shared_root_check", u, x, n, check="shared_root")
    plan.op("commute_check", plan.word("u_apart", un, 2), plan.word("x_apart", xn, 2), 2,
            check="witness")


def _plan_count(plan: Plan, seed: int) -> None:
    """Fixed (k, n) rows; the seed sets the order of the round's operations."""
    ops = [("psi_a", k, n) for k, n in ((2, 24), (3, 15), (4, 12), (5, 10), (6, 9))]
    ops += [("psi_a", k, n) for k, n in ((2, 16), (5, 9), (7, 8))]
    ops += [("psi", 2, 24), ("psi", 2, 31)]
    ops += [("delta_prime_power", 2, 2, 4), ("delta_prime_power", 5, 3, 2)]
    ops += [("count_table", 3, 14)]
    # psi_a enumerates k^n words even at prime n, so it refuses these rows
    # as over budget although k^p - k answers them at once
    failing = [("psi_a", 2, 31), ("psi_a", 3, 23)]
    every = ops + failing
    for i in _rng(seed, 1).permutation(len(every)):
        call, *args = every[i]
        plan.op(call, *args, check=call,
                may_fail="EnumerationBudgetError" if every[i] in failing else None)


def _small_commuting_pair(rng, n: int, q: int, blocks: int, s: int):
    """u, x with ux ~_n xu and |u| = (s-1)n + q: alphas share one Parikh
    vector, betas another, and u, x are cut out of alpha_1 beta_1 ... ."""
    alpha = _random_word(rng, 3, q)
    beta = _random_word(rng, 3, n - q)
    cut = np.concatenate([np.concatenate([rng.permutation(alpha), rng.permutation(beta)])
                          for _ in range(blocks)])
    size_u = (s - 1) * n + q
    return cut[:size_u], cut[size_u:]


def _plan_cli(plan: Plan, seed: int) -> None:
    rng = _rng(seed, 1)
    anti = plan.constructed("antichain", "antichain_word", 720_720,
                            ref.antichain_letters(720_720), text=True)
    short = plan.reference("short_k2", _random_word(rng, 2, 24), 2)
    half = _random_word(rng, 3, 15)
    square = plan.reference("square_k3", np.concatenate([half, rng.permutation(half)]), 3)
    mixed = plan.reference("short_k4", _random_word(rng, 4, 60), 4)
    base = _random_word(rng, 2, 6)
    power = plan.reference("power_6", _shuffled_copies(rng, base, 120), 2)
    u, x = _small_commuting_pair(rng, 3, 1, 6, 3)
    pair = (plan.reference("u_n3", u, 3), plan.reference("x_n3", x, 3))
    apart = (plan.reference("u_apart", _random_word(rng, 2, 40), 2),
             plan.reference("x_apart", _random_word(rng, 2, 40), 2))
    text = {name: ref.to_text(plan.words[name][0]) for name in plan.words if name != anti}

    plan.cli("check short", CLI + ["check", text[short], "--format", "json"],
             check="cli_check_json", words=[short], ok_exits=(0, 1))
    plan.cli("check square", CLI + ["check", text[square], "--format", "json"],
             check="cli_check_json", words=[square], ok_exits=(0, 1))
    plan.cli("check text", CLI + ["check", text[mixed], "--k", "4"],
             check="cli_check_text", words=[mixed], ok_exits=(0, 1), lines=1)
    plan.cli("check stdin", CLI + ["check", "-", "--format", "json"],
             check="cli_check_json", words=[anti], stdin=anti, ok_exits=(0, 1))
    plan.cli("check stdin fast", CLI + ["check", "-", "--algorithm", "fast", "--format", "json"],
             check="cli_check_json", words=[anti], stdin=anti, ok_exits=(0, 1))
    plan.cli("roots", CLI + ["roots", text[power], "--format", "json"],
             check="cli_roots_json", words=[power])
    plan.cli("relate", CLI + ["relate", text[pair[0]], text[pair[1]], "--n", "3",
                              "--k", "3", "--format", "json"],
             check="cli_relate_json", words=list(pair), n=3, ok_exits=(0, 1))
    plan.cli("relate apart", CLI + ["relate", text[apart[0]], text[apart[1]], "--n", "2",
                                    "--format", "json"],
             check="cli_relate_json", words=list(apart), n=2, ok_exits=(0, 1))
    plan.cli("construct", CLI + ["construct", "multiroot", "3"],
             check="cli_construct", expected=ref.to_text(ref.multiroot_letters(3)))
    for k, n in ((2, 12), (3, 8)):
        plan.cli(f"count {k} {n}", CLI + ["count", "--k", str(k), "--n", str(n),
                                          "--format", "json"],
                 check="cli_count_json", k=k, n=n)
    # exits 3 (over budget) although prime rows have a closed form
    plan.cli("count 2 31", CLI + ["count", "--k", "2", "--n", "31"],
             check="cli_count_tsv", k=2, n=31, may_fail="exit 3")


def make_plan(workload: str, seed: int, directory: Path) -> Plan:
    plan = Plan(directory)
    {"decide": _plan_decide, "analyze": _plan_analyze,
     "count": _plan_count, "cli": _plan_cli}[workload](plan, seed)
    return plan
