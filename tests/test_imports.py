"""numpy is executed on first use, and the package keeps its import contract.

Each test runs a fresh interpreter, since this process imported numpy
long ago (conftest uses it).
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import abelwords

SRC = str(pathlib.Path(abelwords.__file__).resolve().parents[1])
SUBMODULES = ("parikh", "numtheory", "primitivity", "roots", "relations",
              "counting", "constructions")

# runs one CLI command in-process, then reports on stderr whether numpy ran
_RUN_MAIN = """
import json, sys
from abelwords.cli import main
try:
    code = main({argv!r})
except SystemExit as exc:
    code = exc.code
sys.stderr.write("\\nRESULT " + json.dumps([code, "numpy.linalg" in sys.modules]))
"""


def _python(*args, code: str):
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": SRC + (os.pathsep + path if path else "")}
    env.pop("ABELWORDS_BUDGET", None)
    return subprocess.run([sys.executable, *args, "-c", code], capture_output=True,
                          text=True, env=env, timeout=60)


def _main(argv, *args):
    proc = _python(*args, code=_RUN_MAIN.format(argv=argv))
    code, numpy_ran = json.loads(proc.stderr.rpartition("\nRESULT ")[2])
    return code, numpy_ran, proc


@pytest.mark.parametrize("argv, code", [
    (["count", "--k", "2", "--n", "12"], 0),
    (["count", "--k", "3", "--n", "9", "--format", "json"], 0),
    (["table", "--k", "2", "--max-n", "20"], 0),
    (["count", "--k", "2", "--n", "1000000000039"], 3),
    (["check"], 2),
    (["construct", "multiroot", "12"], 3),
])
def test_counting_usage_errors_and_refusals_never_execute_numpy(argv, code):
    got, numpy_ran, proc = _main(argv, "-X", "importtime")
    assert got == code, proc.stderr
    assert not numpy_ran
    assert " numpy" not in proc.stderr  # no numpy module in the import log


_LOADED = "[m for m in ('dataclasses', 'inspect') if m in sys.modules]"


def test_import_and_count_load_neither_dataclasses_nor_inspect():
    # the result records are named tuples; dataclasses would import inspect
    code = (
        "import sys\n"
        "import abelwords, abelwords.cli\n"
        f"imported = {_LOADED}\n"
        + _RUN_MAIN.format(argv=["count", "--k", "2", "--n", "12"])
        + f"sys.stderr.write('\\nLOADED ' + json.dumps([imported, {_LOADED}]))\n"
    )
    proc = _python(code=code)
    result, _, loaded = proc.stderr.rpartition("\nRESULT ")[2].partition("\nLOADED ")
    assert json.loads(result) == [0, False], proc.stderr  # exit 0, numpy not executed
    assert json.loads(loaded) == [[], []]


def test_check_executes_numpy_once_and_answers():
    code = (
        "import sys, types\n"
        "import abelwords\n"
        "lazy = sys.modules['numpy']\n"
        "assert 'numpy.linalg' not in sys.modules\n"
        "v = abelwords.is_a_primitive(abelwords.Word.from_text('aabbaabb'))\n"
        "import numpy\n"
        "assert numpy is lazy and type(numpy) is types.ModuleType\n"
        "print(v.is_a_primitive, v.witness_root_length)\n"
    )
    proc = _python(code=code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False 4\n"
    got, numpy_ran, _ = _main(["check", "aabbab"])
    assert (got, numpy_ran) == (0, True)


def test_numpy_imported_first_is_used_as_it_is():
    code = (
        "import sys, types, numpy\n"
        "import abelwords.parikh, abelwords.relations, abelwords.constructions\n"
        "assert type(sys.modules['numpy']) is types.ModuleType\n"
        "for name in ('parikh', 'relations', 'constructions'):\n"
        "    assert sys.modules['abelwords.' + name].np is numpy\n"
    )
    proc = _python(code=code)
    assert proc.returncode == 0, proc.stderr


def test_every_submodule_is_imported_eagerly_and_every_name_resolves():
    code = (
        "import json, sys\n"
        "import abelwords, abelwords.cli\n"
        "missing = [m for m in %r if 'abelwords.' + m not in sys.modules]\n"
        "unresolved = [n for n in abelwords.__all__ if not hasattr(abelwords, n)]\n"
        "print(json.dumps([missing, unresolved, abelwords.parikh.__name__,\n"
        "                  callable(abelwords.parikh), 'numpy.linalg' in sys.modules]))\n"
    ) % (SUBMODULES,)
    proc = _python(code=code)
    assert proc.returncode == 0, proc.stderr
    # abelwords.parikh is the function, not the submodule of that name
    assert json.loads(proc.stdout) == [[], [], "parikh", True, False]


_BLOCK_FINDER = (
    "class Block:\n"
    "    def find_spec(self, name, path=None, target=None):\n"
    "        if name.partition('.')[0] == 'numpy':\n"
    "            raise ModuleNotFoundError(f'No module named {name!r}', name=name)\n"
    "sys.meta_path.insert(0, Block())\n"
)


@pytest.mark.parametrize("hide", [_BLOCK_FINDER, "sys.modules['numpy'] = None\n"],
                         ids=["blocking finder", "None in sys.modules"])
def test_missing_numpy_fails_at_import_time(hide):
    code = (
        "import sys\n"
        + hide
        + "try:\n"
        "    import abelwords\n"
        "except ModuleNotFoundError as exc:\n"
        "    print(exc.name)\n"
    )
    proc = _python(code=code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "numpy\n"
