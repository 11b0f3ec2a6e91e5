import decimal
import io
import json
import pathlib
import random
import re
import shlex
import subprocess
import sys

import pytest

from abelwords import Word, commute_check
from abelwords.cli import main
from conftest import child_env

GOLDEN = pathlib.Path(__file__).parent / "data" / "table_k2_n20.tsv"
README = pathlib.Path(__file__).parents[1] / "README.md"


@pytest.fixture
def cli(capsys, monkeypatch):
    def run(argv, stdin_text=None):
        if stdin_text is not None:
            monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        out, err = capsys.readouterr()
        return code, out, err

    return run


# ------------------------------------------------------------------ check


def test_check_positive(cli):
    code, out, _ = cli(["check", "aabbab"])
    assert code == 0
    assert out.startswith("A-primitive\n")
    assert "algorithm linear" in out


def test_check_negative_reports_witness(cli):
    code, out, _ = cli(["check", "aabbaabb"])
    assert code == 1
    assert "not A-primitive" in out
    assert "length 4" in out


def test_check_json_contract(cli):
    code, out, _ = cli(["check", "aabbab", "--format", "json"])
    assert code == 0
    assert out == '{"verdict": true, "witness": null}'
    code, out, _ = cli(["check", "abab", "--format", "json"])
    assert code == 1
    assert json.loads(out) == {"verdict": False, "witness": 2}
    assert not out.endswith("\n")


def test_check_algorithms_agree(cli):
    for algo in ("oracle", "fast", "linear"):
        code, out, _ = cli(["check", "aabbab", "--algorithm", algo])
        assert code == 0
        assert f"algorithm {algo}" in out


def test_fast_and_linear_report_the_same_witness(cli):
    # both test n/p in ascending p, so the first hit on aaaaaa is 6/2
    for algo in ("fast", "linear"):
        code, out, _ = cli(["check", "aaaaaa", "--algorithm", algo, "--format", "json"])
        assert code == 1
        assert json.loads(out) == {"verdict": False, "witness": 3}


def test_check_reads_stdin(cli):
    code, out, _ = cli(["check", "-"], stdin_text="aabbab\n")
    assert code == 0
    assert out.startswith("A-primitive")


def test_check_k_override(cli):
    code, out, _ = cli(["check", "ab", "--k", "3", "--format", "json"])
    assert code == 0
    code, _, err = cli(["check", "abc", "--k", "2"])
    assert code == 2
    assert "smaller than" in err
    code, _, err = cli(["check", "ab", "--k", "40"])
    assert code == 2


def test_check_rejects_bad_letters(cli):
    code, _, err = cli(["check", "ab9"])
    assert code == 2
    assert err.startswith("error:")
    code, _, err = cli(["check", ""])
    assert code == 2


# ------------------------------------------------------------------ roots


def test_roots_text(cli):
    code, out, _ = cli(["roots", "aabbabababab"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "word length 12"
    assert lines[1] == "A-root lengths: 4 6"
    assert lines[2] == "A-primitive root lengths: 4 6"
    code, out, _ = cli(["roots", "aabbab"])
    assert code == 0
    assert out == "word is A-primitive; no proper A-roots\n"


def test_roots_json(cli):
    code, out, _ = cli(["roots", "aabbabababab", "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["word_length"] == 12
    assert data["a_primitive_root_lengths"] == [4, 6]


# -------------------------------------------------------------- construct


def test_construct_families(cli):
    code, out, _ = cli(["construct", "mword", "5"])
    assert (code, out) == (0, "aabbababab\n")
    code, out, _ = cli(["construct", "antichain", "30"])
    assert code == 0
    assert len(out.strip()) == 60
    code, out, _ = cli(["construct", "multiroot", "2"])
    assert (code, out) == (0, "aabbabababab\n")


def test_construct_over_budget_exit_code(cli, monkeypatch):
    # checked before any allocation: multiroot 12 has 2·(2·3·...·37) letters
    for argv in (["construct", "multiroot", "12"], ["construct", "antichain", "1000000000000"]):
        code, out, err = cli(argv)
        assert (code, out) == (3, ""), argv
        assert "over the budget" in err
    code, out, _ = cli(["construct", "multiroot", "3"])
    assert (code, out) == (0, "aabb" + "ab" * 28 + "\n")
    monkeypatch.setenv("ABELWORDS_BUDGET", "59")
    code, _, err = cli(["construct", "antichain", "30"])
    assert code == 3 and "59 letters" in err


def test_construct_bad_parameter(cli):
    for argv in (["construct", "mword", "6"], ["construct", "multiroot", "-1"]):
        code, out, err = cli(argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error:") and "Traceback" not in err


# ----------------------------------------------------------------- relate


def test_relate_positive(cli):
    code, out, _ = cli(["relate", "cbabc", "abca", "--n", "3"])
    assert code == 0
    assert out.splitlines()[0] == "commute under ~_3"
    assert 'alpha="cb"' in out
    assert "r=3 s=2" in out


def test_relate_negative(cli):
    code, out, _ = cli(["relate", "baa", "a", "--n", "2"])
    assert code == 1
    assert "do not commute under ~_2" in out


def test_relate_json(cli):
    code, out, _ = cli(["relate", "cbabc", "abca", "--n", "3", "--format", "json"])
    assert code == 0
    assert out == (
        '{"verdict": true, "witness": {"r": 3, "s": 2, '
        '"alphas": ["cb", "bc", "bc"], "betas": ["a", "a", "a"]}}'
    )
    # block-aligned: q = 0, so every alpha is the empty word
    code, out, _ = cli(["relate", "ab", "ba", "--n", "2", "--format", "json"])
    assert code == 0
    assert out == (
        '{"verdict": true, "witness": {"r": 2, "s": 2, '
        '"alphas": ["", ""], "betas": ["ab", "ba"]}}'
    )
    code, out, _ = cli(["relate", "baa", "a", "--n", "2", "--format", "json"])
    assert code == 1
    assert json.loads(out) == {"verdict": False, "witness": None}


@pytest.mark.parametrize("cut", [10_003, 10_000])
def test_relate_json_lists_every_witness_part(cli, cut):
    # a commuting pair of 20,000 letters: every length-5 block of ux is a
    # shuffled alpha then a shuffled beta, cut at q = 3 and at q = 0
    rng = random.Random(cut)
    n, q = 5, cut % 5
    ux = "".join(
        "".join(rng.sample("abcab"[:q], q) + rng.sample("abcab"[q:], n - q))
        for _ in range(20_000 // n)
    )
    u, x = ux[:cut], ux[cut:]
    wit = commute_check(Word.from_text(u, 3), Word.from_text(x, 3), n)
    assert wit is not None and wit.q == q
    code, out, _ = cli(["relate", u, x, "--n", str(n), "--format", "json"])
    assert code == 0
    witness = json.loads(out)["witness"]
    assert witness["alphas"] == [a.to_text() for a in wit.alphas]
    assert witness["betas"] == [b.to_text() for b in wit.betas]


def test_relate_bad_n(cli):
    code, _, err = cli(["relate", "ab", "a", "--n", "2"])
    assert code == 2


# ------------------------------------------------------------ count/table


def test_count_tsv(cli):
    code, out, _ = cli(["count", "--k", "2", "--n", "6"])
    assert code == 0
    assert out == "n\tpsi\tpsi_a\tdelta\n6\t54\t36\t18\n"


def test_count_json(cli):
    code, out, _ = cli(["count", "--k", "3", "--n", "9", "--format", "json"])
    assert code == 0
    assert json.loads(out) == {"n": 9, "psi": 19656, "psi_a": 19302, "delta": 354}


def test_count_over_budget_exit_code(cli, monkeypatch):
    monkeypatch.setenv("ABELWORDS_BUDGET", "100")
    code, _, err = cli(["count", "--k", "2", "--n", "12"])
    assert code == 3
    assert "budget" in err


def test_count_prime_row_beyond_enumeration(cli):
    code, out, _ = cli(["count", "--k", "2", "--n", "31"])
    assert code == 0
    assert out == "n\tpsi\tpsi_a\tdelta\n31\t2147483646\t2147483646\t0\n"


def test_count_prints_counts_past_the_int_digit_limit(cli):
    # 2^15013 has 4520 decimal digits, past Python's default int -> str
    # limit; Decimal renders them here without touching that limit
    with decimal.localcontext() as ctx:
        ctx.prec = 5000
        row = str(decimal.Decimal(2) ** 15013 - 2)
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    code, out, _ = cli(["count", "--k", "2", "--n", "15013"])
    assert code == 0
    assert out == f"n\tpsi\tpsi_a\tdelta\n15013\t{row}\t{row}\t0\n"
    code, out, _ = cli(["count", "--k", "2", "--n", "15013", "--format", "json"])
    assert code == 0
    assert out == f'{{"n": 15013, "psi": {row}, "psi_a": {row}, "delta": 0}}'
    # the limit is lifted for the output only
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


def test_count_env_budget_must_be_integer(cli, monkeypatch):
    monkeypatch.setenv("ABELWORDS_BUDGET", "plenty")
    code, _, err = cli(["count", "--k", "2", "--n", "6"])
    assert code == 2
    assert "ABELWORDS_BUDGET" in err


@pytest.mark.parametrize("argv", [["count", "--k", "2", "--n", "6"],
                                  ["table", "--k", "2", "--max-n", "3"],
                                  ["construct", "mword", "5"]])
def test_negative_env_budget_is_a_usage_error(cli, monkeypatch, argv):
    monkeypatch.setenv("ABELWORDS_BUDGET", "-1")
    code, out, err = cli(argv)
    assert (code, out) == (2, "")
    assert "ABELWORDS_BUDGET" in err


def test_table_matches_golden_bytes(cli):
    code, out, _ = cli(["table", "--k", "2", "--max-n", "20"])
    assert code == 0
    assert out == GOLDEN.read_text()


def test_table_skip_notes_go_to_stderr(cli, monkeypatch):
    # costs at k=2: n=4 is 24, n=6 is 102, n=8 is 80
    monkeypatch.setenv("ABELWORDS_BUDGET", "50")
    code, out, err = cli(["table", "--k", "2", "--max-n", "8"])
    assert code == 0
    assert "skipped n=6" in err and "skipped n=8" in err
    rows = out.strip().splitlines()
    assert rows[0] == "n\tpsi\tpsi_a\tdelta"
    assert [r.split("\t")[0] for r in rows[1:]] == ["1", "2", "3", "4", "5", "7"]


def test_table_json(cli):
    code, out, _ = cli(["table", "--k", "2", "--max-n", "4", "--format", "json"])
    assert code == 0
    assert json.loads(out) == [
        {"n": 1, "psi": 2, "psi_a": 2, "delta": 0},
        {"n": 2, "psi": 2, "psi_a": 2, "delta": 0},
        {"n": 3, "psi": 6, "psi_a": 6, "delta": 0},
        {"n": 4, "psi": 12, "psi_a": 10, "delta": 2},
    ]


# ----------------------------------------------------------- golden bytes

_CHECK_TAIL = "algorithm linear\n"
_TABLE_K2_N8_JSON = (
    '[{"n": 1, "psi": 2, "psi_a": 2, "delta": 0}, '
    '{"n": 2, "psi": 2, "psi_a": 2, "delta": 0}, '
    '{"n": 3, "psi": 6, "psi_a": 6, "delta": 0}, '
    '{"n": 4, "psi": 12, "psi_a": 10, "delta": 2}, '
    '{"n": 5, "psi": 30, "psi_a": 30, "delta": 0}, '
    '{"n": 7, "psi": 126, "psi_a": 126, "delta": 0}]'
)

# argv, stdin, ABELWORDS_BUDGET, exit code, whole stdout
GOLDEN_RUNS = [
    (["check", "aabbab"], None, None, 0,
     "A-primitive\nlength 6, alphabet 2, " + _CHECK_TAIL),
    (["check", "aabbaabb"], None, None, 1,
     "not A-primitive: A-root of length 4\nlength 8, alphabet 2, " + _CHECK_TAIL),
    (["check", "aabbab", "--format", "json"], None, None, 0,
     '{"verdict": true, "witness": null}'),
    (["check", "abab", "--format", "json"], None, None, 1,
     '{"verdict": false, "witness": 2}'),
    (["check", "-"], "aabbab\n", None, 0,
     "A-primitive\nlength 6, alphabet 2, " + _CHECK_TAIL),
    (["check", "ab", "--k", "3"], None, None, 0,
     "A-primitive\nlength 2, alphabet 3, " + _CHECK_TAIL),
    (["check", "abc", "--k", "2"], None, None, 2, ""),
    (["check"], None, None, 2, ""),
    (["roots", "aabbabababab"], None, None, 0,
     "word length 12\nA-root lengths: 4 6\nA-primitive root lengths: 4 6\n"),
    (["roots", "ababaabb"], None, None, 0,
     "word length 8\nA-root lengths: 4\nA-primitive root lengths: (none)\n"),
    (["roots", "aabbab"], None, None, 0, "word is A-primitive; no proper A-roots\n"),
    (["roots", "aabbabababab", "--format", "json"], None, None, 0,
     '{"word_length": 12, "a_root_lengths": [4, 6], "a_primitive_root_lengths": [4, 6]}'),
    (["roots", "-", "--k", "3", "--format", "json"], "aabbabababab\n", None, 0,
     '{"word_length": 12, "a_root_lengths": [4, 6], "a_primitive_root_lengths": [4, 6]}'),
    (["construct", "mword", "5"], None, None, 0, "aabbababab\n"),
    (["construct", "multiroot", "12"], None, None, 3, ""),
    (["construct", "mword", "6"], None, None, 2, ""),
    (["relate", "cbabc", "abca", "--n", "3"], None, None, 0,
     'commute under ~_3\n  i=1  alpha="cb"  beta="a"\n  i=2  alpha="bc"  beta="a"\n'
     '  i=3  alpha="bc"  beta="a"\n  r=3 s=2\n'),
    (["relate", "baa", "a", "--n", "2"], None, None, 1, "do not commute under ~_2\n"),
    (["relate", "cbabc", "abca", "--n", "3", "--format", "json"], None, None, 0,
     '{"verdict": true, "witness": {"r": 3, "s": 2, '
     '"alphas": ["cb", "bc", "bc"], "betas": ["a", "a", "a"]}}'),
    (["relate", "baa", "a", "--n", "2", "--format", "json"], None, None, 1,
     '{"verdict": false, "witness": null}'),
    (["relate", "ab", "ba", "--n", "2", "--k", "3", "--format", "json"], None, None, 0,
     '{"verdict": true, "witness": {"r": 2, "s": 2, "alphas": ["", ""], "betas": ["ab", "ba"]}}'),
    (["count", "--k", "2", "--n", "6"], None, None, 0, "n\tpsi\tpsi_a\tdelta\n6\t54\t36\t18\n"),
    (["count", "--k", "3", "--n", "9", "--format", "json"], None, None, 0,
     '{"n": 9, "psi": 19656, "psi_a": 19302, "delta": 354}'),
    (["count", "--k", "2", "--n", "12"], None, "100", 3, ""),
    (["count", "--k", "2", "--n", "6"], None, "plenty", 2, ""),
    (["table", "--k", "2", "--max-n", "8"], None, "50", 0,
     "n\tpsi\tpsi_a\tdelta\n1\t2\t2\t0\n2\t2\t2\t0\n3\t6\t6\t0\n4\t12\t10\t2\n"
     "5\t30\t30\t0\n7\t126\t126\t0\n"),
    (["table", "--k", "2", "--max-n", "8", "--format", "json"], None, "50", 0,
     _TABLE_K2_N8_JSON),
]


@pytest.mark.parametrize(
    "argv, stdin_text, budget, code, out",
    GOLDEN_RUNS,
    ids=[" ".join(run[0]) + (f" budget={run[2]}" if run[2] else "") for run in GOLDEN_RUNS],
)
def test_cli_golden_bytes(cli, monkeypatch, argv, stdin_text, budget, code, out):
    # a failing command leaves stdout empty: output is written only on success
    if budget is None:
        monkeypatch.delenv("ABELWORDS_BUDGET", raising=False)
    else:
        monkeypatch.setenv("ABELWORDS_BUDGET", budget)
    got_code, got_out, _ = cli(argv, stdin_text)
    assert (got_code, got_out) == (code, out)


def _readme_examples():
    """(argv, stdout) for every `$ abelwords ...` line in README.md's
    console blocks: the output shown is the lines after the command, up to
    the next command or the end of the block, less trailing blank lines."""
    examples = []
    text = README.read_text(encoding="utf-8")
    for block in re.findall(r"^```console\n(.*?)^```$", text, re.S | re.M):
        for line in block.splitlines():
            if line.startswith("$ "):
                prog, *argv = shlex.split(line[2:])
                assert prog == "abelwords", line
                examples.append((argv, []))
            else:
                examples[-1][1].append(line)
    return [(argv, "\n".join(shown).rstrip("\n") + "\n") for argv, shown in examples]


README_EXAMPLES = _readme_examples()


def test_readme_examples_are_found():
    assert len(README_EXAMPLES) == 4


@pytest.mark.parametrize("argv, shown", README_EXAMPLES,
                         ids=[" ".join(argv) for argv, _ in README_EXAMPLES])
def test_readme_example_output(cli, monkeypatch, argv, shown):
    monkeypatch.delenv("ABELWORDS_BUDGET", raising=False)
    _, out, _ = cli(argv)
    assert out == shown


# ------------------------------------------------------------- usage/misc


def test_usage_errors(cli):
    code, _, _ = cli([])
    assert code == 2
    code, _, _ = cli(["nonsense"])
    assert code == 2
    code, _, _ = cli(["check"])
    assert code == 2


def _run_entrypoint(*argv, timeout=None):
    return subprocess.run(
        [sys.executable, "-m", "abelwords.cli", *argv],
        capture_output=True,
        text=True,
        env=child_env(),
        timeout=timeout,
    )


def test_installed_entrypoint_runs():
    proc = _run_entrypoint("check", "aabbab")
    assert proc.returncode == 0
    # a fresh process prints the same bytes as the golden run in this one
    assert proc.stdout == "A-primitive\nlength 6, alphabet 2, " + _CHECK_TAIL


def test_count_over_one_letter_does_not_factorize_n():
    # over one letter only n = 1 has a primitive word; trial division of
    # a prime near 10^17 would run for minutes, so a child process with a
    # timeout fails the test instead of hanging it
    proc = _run_entrypoint("count", "--k", "1", "--n", "100000000000000003", timeout=10)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "n\tpsi\tpsi_a\tdelta\n100000000000000003\t0\t0\t0\n"


def test_count_refuses_a_costly_row_before_k_to_the_n():
    # 2**33 passes the size check and fails the cost check; evaluating
    # k**n first would build a number of 2**33 bits, so a child process
    # with a timeout fails the test instead of hanging it
    proc = _run_entrypoint("count", "--k", "2", "--n", "8589934592", timeout=10)
    assert (proc.returncode, proc.stdout) == (3, "")
    assert "budget" in proc.stderr


@pytest.mark.parametrize("argv", [
    ["count", "--k", "0", "--n", "5"],
    ["count", "--k", "2", "--n", "0"],
    ["table", "--k", "0", "--max-n", "5"],
    ["table", "--k", "2", "--max-n", "0"],
])
def test_count_and_table_reject_bad_arguments(cli, argv):
    code, out, err = cli(argv)
    assert (code, out) == (2, "")
    assert "requires k >= 1" in err
