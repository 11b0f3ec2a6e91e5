"""Command-line surface over the library.

Exit codes are a stable contract: 0 positive verdict, 1 negative
verdict, 2 usage error, 3 over budget (a count's cost or a constructed
word's length). TSV and JSON renderings are deterministic byte-for-byte;
JSON is emitted with no trailing whitespace (not even a final newline)
so that parsing and re-rendering round-trips exactly.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time

from .constructions import ConstructionBudgetError, ConstructionSpec, FAMILIES
from .counting import CountTable, EnumerationBudgetError, count_table, psi, psi_a
from .parikh import Word
from .primitivity import is_a_primitive, is_a_primitive_linear, is_a_primitive_oracle
from .relations import commute_check
from .roots import root_profile

_ALGORITHMS = {
    "oracle": is_a_primitive_oracle,
    "fast": is_a_primitive,
    "linear": is_a_primitive_linear,
}

_TSV_HEADER = "n\tpsi\tpsi_a\tdelta"


def _read_word_text(arg: str) -> str:
    text = sys.stdin.read().rstrip("\n") if arg == "-" else arg
    if not text:
        raise ValueError("word must be nonempty")
    return text


def _parse_word(arg: str, k: int | None) -> Word:
    w = Word.from_text(_read_word_text(arg))
    if k is not None:
        if not 1 <= k <= 26:
            raise ValueError("--k must be between 1 and 26")
        if k < w.alphabet_size:
            raise ValueError(
                f"--k {k} is smaller than the largest letter present ({w.alphabet_size})"
            )
        w = Word(w.letters, k)
    return w


def _budget_from_env() -> int | None:
    raw = os.environ.get("ABELWORDS_BUDGET")
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"ABELWORDS_BUDGET must be an integer, got {raw!r}")


def _emit_json(obj) -> None:
    sys.stdout.write(json.dumps(obj))


def cmd_check(args) -> int:
    w = _parse_word(args.word, args.k)
    decide = _ALGORITHMS[args.algorithm]
    start = time.perf_counter()
    verdict = decide(w)
    elapsed = time.perf_counter() - start
    if args.format == "json":
        _emit_json(
            {"verdict": verdict.is_a_primitive, "witness": verdict.witness_root_length}
        )
    else:
        if verdict.is_a_primitive:
            print("A-primitive")
        else:
            print(f"not A-primitive: A-root of length {verdict.witness_root_length}")
        print(
            f"length {len(w)}, alphabet {w.alphabet_size}, "
            f"algorithm {args.algorithm}, {elapsed:.6f} s"
        )
    return 0 if verdict.is_a_primitive else 1


def cmd_roots(args) -> int:
    w = _parse_word(args.word, args.k)
    profile = root_profile(w)
    if args.format == "json":
        _emit_json(
            {
                "word_length": profile.word_length,
                "a_root_lengths": list(profile.a_root_lengths),
                "a_primitive_root_lengths": list(profile.a_primitive_root_lengths),
            }
        )
        return 0
    if not profile.a_root_lengths:
        print("word is A-primitive; no proper A-roots")
        return 0
    print(f"word length {profile.word_length}")
    print("A-root lengths: " + " ".join(map(str, profile.a_root_lengths)))
    print(
        "A-primitive root lengths: "
        + (" ".join(map(str, profile.a_primitive_root_lengths)) or "(none)")
    )
    return 0


def cmd_construct(args) -> int:
    spec = ConstructionSpec(args.family, args.parameter)
    print(spec.build(budget=_budget_from_env()).to_text())
    return 0


def cmd_relate(args) -> int:
    u = _parse_word(args.u, args.k)
    x = _parse_word(args.x, args.k)
    wit = commute_check(u, x, args.n)
    if args.format == "json":
        payload = None
        if wit is not None:
            payload = {
                "r": wit.r,
                "s": wit.s,
                "alphas": [a.to_text() for a in wit.alphas],
                "betas": [b.to_text() for b in wit.betas],
            }
        _emit_json({"verdict": wit is not None, "witness": payload})
        return 0 if wit is not None else 1
    if wit is None:
        print(f"do not commute under ~_{args.n}")
        return 1
    print(f"commute under ~_{args.n}")
    for i, (a, b) in enumerate(zip(wit.alphas, wit.betas), start=1):
        print(f'  i={i}  alpha="{a.to_text()}"  beta="{b.to_text()}"')
    print(f"  r={wit.r} s={wit.s}")
    return 0


@contextlib.contextmanager
def _unlimited_int_digits():
    """Lift Python's int -> str digit limit (3.10.7+) while one command runs."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def _table_rows_tsv(table: CountTable) -> str:
    lines = [_TSV_HEADER]
    lines.extend(f"{r.n}\t{r.psi}\t{r.psi_a}\t{r.delta}" for r in table.rows)
    return "".join(line + "\n" for line in lines)


@_unlimited_int_digits()
def cmd_count(args) -> int:
    part = psi_a(args.k, args.n, budget=_budget_from_env())
    full = psi(args.k, args.n)
    if args.format == "json":
        _emit_json({"n": args.n, "psi": full, "psi_a": part, "delta": full - part})
    else:
        sys.stdout.write(_TSV_HEADER + "\n")
        sys.stdout.write(f"{args.n}\t{full}\t{part}\t{full - part}\n")
    return 0


@_unlimited_int_digits()
def cmd_table(args) -> int:
    table = count_table(args.k, args.max_n, budget=_budget_from_env())
    for n in table.skipped:
        print(f"note: skipped n={n}, counting over budget", file=sys.stderr)
    if args.format == "json":
        _emit_json(
            [
                {"n": r.n, "psi": r.psi, "psi_a": r.psi_a, "delta": r.delta}
                for r in table.rows
            ]
        )
    else:
        sys.stdout.write(_table_rows_tsv(table))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="abelwords",
        description="Recognize, analyze, construct, and count Abelian primitive words.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p, kinds=("text", "json")):
        p.add_argument("--format", choices=kinds, default=kinds[0])

    p = sub.add_parser("check", help="decide whether a word is A-primitive")
    p.add_argument("word", help="word over a..z, or - to read stdin")
    p.add_argument("--algorithm", choices=sorted(_ALGORITHMS), default="linear")
    p.add_argument("--k", type=int, default=None, help="alphabet size override")
    add_format(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("roots", help="list A-root and A-primitive-root lengths")
    p.add_argument("word", help="word over a..z, or - to read stdin")
    p.add_argument("--k", type=int, default=None)
    add_format(p)
    p.set_defaults(func=cmd_roots)

    p = sub.add_parser("construct", help="emit a word from a named family")
    p.add_argument("family", choices=FAMILIES)
    p.add_argument("parameter", type=int)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("relate", help="test ux ~_n xu and print the witness")
    p.add_argument("u")
    p.add_argument("x")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=None)
    add_format(p)
    p.set_defaults(func=cmd_relate)

    p = sub.add_parser("count", help="psi, psi_a, delta for one length")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    add_format(p, kinds=("tsv", "json"))
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("table", help="psi/psi_a/delta table for n = 1..max-n")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--max-n", type=int, required=True, dest="max_n")
    add_format(p, kinds=("tsv", "json"))
    p.set_defaults(func=cmd_table)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (EnumerationBudgetError, ConstructionBudgetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
