"""Command-line surface over the library.

Each command returns its exit code, a JSON payload and a function that
renders its text, called only for the text formats (int -> str on a
prime row of 10^6 letters takes seconds). `main` alone writes stdout,
once, after the command has succeeded: a failing command leaves stdout
empty. JSON has no trailing newline, so that it round-trips exactly;
text and TSV end in one. Every rendering is deterministic, with integers
in full. Exit codes: 0 positive verdict, 1 negative verdict, 2 usage
error, 3 over budget (the size of k**n or the cost of a count, or a
constructed word's length). numpy is executed at the first `Word`, so
`count`, `table`, usage errors and refusals start without it.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

from .constructions import ConstructionBudgetError, ConstructionSpec, FAMILIES
from .counting import EnumerationBudgetError, _count_row, count_table
from .parikh import Word
from .primitivity import is_a_primitive, is_a_primitive_linear, is_a_primitive_oracle
from .relations import commute_check
from .roots import root_profile

_ALGORITHMS = {
    "oracle": is_a_primitive_oracle,
    "fast": is_a_primitive,
    "linear": is_a_primitive_linear,
}


def _parse_word(arg: str, k: int | None) -> Word:
    text = sys.stdin.read().rstrip("\n") if arg == "-" else arg
    if not text:
        raise ValueError("word must be nonempty")
    w = Word.from_text(text)
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
    with contextlib.suppress(ValueError):
        if (budget := int(raw)) >= 0:
            return budget
    raise ValueError(f"ABELWORDS_BUDGET must be an integer >= 0, got {raw!r}")


def cmd_check(args):
    w = _parse_word(args.word, args.k)
    verdict = _ALGORITHMS[args.algorithm](w)
    if verdict.is_a_primitive:
        headline = "A-primitive"
    else:
        headline = f"not A-primitive: A-root of length {verdict.witness_root_length}"
    payload = {"verdict": verdict.is_a_primitive, "witness": verdict.witness_root_length}
    return (0 if verdict.is_a_primitive else 1), payload, lambda: (
        f"{headline}\nlength {len(w)}, alphabet {w.alphabet_size}, "
        f"algorithm {args.algorithm}\n"
    )


def cmd_roots(args):
    profile = root_profile(_parse_word(args.word, args.k))

    def text():
        if not profile.a_root_lengths:
            return "word is A-primitive; no proper A-roots\n"
        roots = " ".join(map(str, profile.a_root_lengths))
        primitive = " ".join(map(str, profile.a_primitive_root_lengths)) or "(none)"
        return (
            f"word length {profile.word_length}\n"
            f"A-root lengths: {roots}\n"
            f"A-primitive root lengths: {primitive}\n"
        )

    return 0, profile._asdict(), text


def cmd_construct(args):
    word = ConstructionSpec(args.family, args.parameter).build(budget=_budget_from_env())
    return 0, None, lambda: word.to_text() + "\n"


def cmd_relate(args):
    u = _parse_word(args.u, args.k)
    x = _parse_word(args.x, args.k)
    wit = commute_check(u, x, args.n)
    if wit is None:
        payload = {"verdict": False, "witness": None}
        return 1, payload, lambda: f"do not commute under ~_{args.n}\n"
    # block i of ux is alpha_i beta_i, cut after q letters
    text, n, q = wit.ux.to_text(), args.n, wit.q
    alphas = [text[i:i + q] for i in range(0, len(text), n)]
    betas = [text[i + q:i + n] for i in range(0, len(text), n)]
    witness = {"r": wit.r, "s": wit.s, "alphas": alphas, "betas": betas}
    return 0, {"verdict": True, "witness": witness}, lambda: (
        f"commute under ~_{args.n}\n"
        + "".join(
            f'  i={i}  alpha="{a}"  beta="{b}"\n'
            for i, (a, b) in enumerate(zip(alphas, betas), start=1)
        )
        + f"  r={wit.r} s={wit.s}\n"
    )


def _count_rows(rows):
    """The JSON payload and the TSV text of count rows, for count and table."""
    payload = [r._asdict() for r in rows]
    return payload, lambda: "n\tpsi\tpsi_a\tdelta\n" + "".join(
        f"{r.n}\t{r.psi}\t{r.psi_a}\t{r.delta}\n" for r in rows
    )


def cmd_count(args):
    (payload,), text = _count_rows([_count_row(args.k, args.n, _budget_from_env())])
    return 0, payload, text


def cmd_table(args):
    table = count_table(args.k, args.max_n, budget=_budget_from_env())
    for n in table.skipped:
        print(f"note: skipped n={n}, counting over budget", file=sys.stderr)
    return (0, *_count_rows(table.rows))


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
    p.set_defaults(func=cmd_construct, format="text")

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
        with _unlimited_int_digits():
            code, payload, text = args.func(args)
            out = json.dumps(payload) if args.format == "json" else text()
    except (EnumerationBudgetError, ConstructionBudgetError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ValueError) else 3
    sys.stdout.write(out)
    return code


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
