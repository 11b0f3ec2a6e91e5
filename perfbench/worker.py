"""The program's process: builds the inputs with abelwords and times calls.

Run by run.py, never by hand:

    python3 perfbench/worker.py --inputs DIR --mode setup|run|trace [--seconds S]

It imports abelwords from the checkout's src/, builds every input of
DIR/manifest.json through the package's public constructors, and in `run`
and `trace` mode repeats whole rounds of the manifest's operations, one
call at a time. Answers are reduced to plain records outside the timed
calls. The first round's records are written to DIR/records.pickle and
dropped, so that later rounds run without them; a digest of every
round's records goes back to run.py, pickled on stdout. The reference
checks run in run.py's process, so that they cannot set this process's
peak memory.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import pickle
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
INTERPRETER_RUNS = 5  # fresh interpreters per cli.interpreter_s / cli.import_s sample

# abelwords makes no BLAS call, so OpenBLAS's thread pool, started when
# numpy is imported, only adds a start-up cost that swings with how the
# host schedules the second CPU (0.10 s to 0.19 s for the same import).
# This process runs with one BLAS thread; CLI processes get the caller's
# environment unchanged, so the pool's cost still shows there.
CLI_ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
os.environ["OPENBLAS_NUM_THREADS"] = "1"

# numpy is imported inside the functions, after the timed import of
# abelwords, so that set-up time pays for it as a user's program would


def word_digest(letters, k: int) -> str:
    import numpy as np

    wide = np.int64 if k > 256 else np.uint8
    return hashlib.sha256(b"%d:" % k + letters.astype(wide, copy=False).tobytes()).hexdigest()


def record_digest(record) -> str:
    """sha256 of a record, fed item by item: arrays by their buffer, without a copy."""
    import numpy as np

    h = hashlib.sha256()
    for item in record:
        if isinstance(item, np.ndarray):
            h.update(item.dtype.str.encode())
            h.update(np.ascontiguousarray(item))
        else:
            h.update(repr(item).encode())
        h.update(b"\0")
    return h.hexdigest()


def build_inputs(aw, manifest: dict, directory: Path):
    """Words and texts of the manifest, and the seconds spent in abelwords."""
    import numpy as np

    built, digests, spent = {}, {}, 0.0
    for name, spec in manifest["inputs"].items():
        how = spec["build"]
        if how == "from_text":
            raw = (directory / spec["file"]).read_text("ascii")
            start = time.perf_counter()
            value = aw.Word.from_text(raw, spec["k"])
        elif how == "word":
            raw = np.load(directory / spec["file"])
            start = time.perf_counter()
            value = aw.Word(raw, spec["k"])
        else:
            start = time.perf_counter()
            value = getattr(aw, how)(spec["param"])
            if spec["text"]:
                value = value.to_text()
        spent += time.perf_counter() - start
        built[name] = value
        if isinstance(value, str):
            digests[name] = word_digest(np.frombuffer(value.encode(), np.uint8) - 97, 2)
        else:
            digests[name] = word_digest(value.letters, value.alphabet_size)
    return built, digests, spent


def _as_record(aw, result):
    """Plain, comparable form of an answer: tuples of ints and letter arrays."""
    import numpy as np

    if isinstance(result, aw.PrimitivityVerdict):
        return ("verdict", result.is_a_primitive, result.witness_root_length)
    if isinstance(result, aw.RootProfile):
        return ("profile", result.word_length, result.a_root_lengths,
                result.a_primitive_root_lengths)
    if isinstance(result, aw.CommutationWitness):
        return ("witness", result.r, result.s,
                np.array([len(a) for a in result.alphas], np.int64),
                np.array([len(b) for b in result.betas], np.int64),
                _letters(result.alphas), _letters(result.betas))
    if isinstance(result, aw.Word):
        return ("word", _letters([result]))
    if isinstance(result, aw.CountTable):
        rows = tuple((r.n, r.psi, r.psi_a, r.delta) for r in result.rows)
        return ("table", result.alphabet_size, rows, result.skipped)
    if result is None or isinstance(result, int):
        return ("value", result)
    raise TypeError(f"no record form for {type(result).__name__}")


def _letters(words):
    """The words' letters, end to end, in the dtype abelwords stores them in."""
    import numpy as np

    parts = [w.letters for w in words]
    return np.concatenate(parts) if parts else np.zeros(0, np.uint8)


def _cli_record(op, code: int, out: str):
    # "lines" keeps only the leading lines that do not change between runs
    if op.get("lines"):
        out = "".join(out.splitlines(keepends=True)[: op["lines"]])
    return ("exit", code, out)


class Runner:
    """Runs the manifest's operations in whole rounds."""

    def __init__(self, aw, manifest, built):
        self.aw = aw
        self.ops = manifest["ops"]
        self.built = built
        self.env = CLI_ENV
        self.in_process = False  # cli ops: call abelwords.cli.main, not a new process

    def _call(self, op):
        """One timed operation: (seconds, record)."""
        if op["call"] == "cli":
            return self._cli(op)
        fn = getattr(self.aw, op["call"])
        args = [self.built[a] if isinstance(a, str) else a for a in op["args"]]
        start = time.perf_counter()
        try:
            result = fn(*args)
        except Exception as exc:  # a failed operation is counted, not fatal
            spent = time.perf_counter() - start
            return spent, ("error", type(exc).__name__)
        spent = time.perf_counter() - start
        return spent, _as_record(self.aw, result)

    def _cli(self, op):
        stdin = self.built[op["stdin"]] if op["stdin"] else None
        if self.in_process:
            return self._cli_main(op, stdin)
        start = time.perf_counter()
        proc = subprocess.Popen(
            op["argv"], env=self.env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            stdin=subprocess.PIPE if stdin is not None else subprocess.DEVNULL,
        )
        try:
            out, _ = proc.communicate(stdin.encode() if stdin is not None else None,
                                      timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        spent = time.perf_counter() - start
        return spent, _cli_record(op, proc.returncode, out.decode())

    def _cli_main(self, op, stdin):
        from abelwords import cli

        argv = op["argv"][3:]  # drop "python -m abelwords.cli"
        saved = sys.stdin, sys.stdout, sys.stderr
        sys.stdin = io.StringIO(stdin or "")
        sys.stdout, sys.stderr = io.StringIO(), io.StringIO()
        try:
            start = time.perf_counter()
            code = cli.main(argv)
            spent = time.perf_counter() - start
            out = sys.stdout.getvalue()
        finally:
            sys.stdin, sys.stdout, sys.stderr = saved
        return spent, _cli_record(op, code, out)

    def rounds(self, seconds: float, save_records: Path | None = None):
        """Whole rounds until the next one would end past `seconds`; the
        first round's records go to `save_records` when it is given."""
        times = [[] for _ in self.ops]
        digests = []
        began = time.perf_counter()
        while True:
            records = []
            for i, op in enumerate(self.ops):
                spent, record = self._call(op)
                times[i].append(spent)
                records.append(record)
            digests.append([record_digest(r) for r in records])
            if save_records is not None and len(digests) == 1:
                with open(save_records, "wb") as f:
                    pickle.dump(records, f)
            elapsed = time.perf_counter() - began
            done = len(digests)
            if elapsed + elapsed / done > seconds:
                break
        return {"times": times, "digests": digests}


def _fresh_seconds(code: str, env: dict, prints_own_time: bool) -> float:
    """Median over fresh interpreters running `code`: of the seconds the
    snippet prints, or of the whole process's seconds."""
    samples = []
    for _ in range(INTERPRETER_RUNS):
        start = time.perf_counter()
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=60, check=True).stdout
        spent = time.perf_counter() - start
        samples.append(float(out) if prints_own_time else spent)
    return statistics.median(samples)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--inputs", type=Path, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    args = parser.parse_args()
    manifest = json.loads((args.inputs / "manifest.json").read_text())
    is_cli = manifest["ops"][0]["call"] == "cli"

    start = time.perf_counter()
    import abelwords as aw
    import_s = time.perf_counter() - start
    source = Path(aw.__file__).resolve()
    if source.parent.parent != ROOT / "src":
        raise SystemExit(f"abelwords imported from {source}, not from the checkout")

    tracer = None
    if args.mode == "trace":
        import abelwords.cli  # noqa: F401  (its names are traced too)
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    built, input_digests, build_s = build_inputs(aw, manifest, args.inputs)
    out = {"setup_s": import_s + build_s, "input_digests": input_digests}
    if args.mode == "setup":
        pickle.dump(out, sys.stdout.buffer)
        return 0

    runner = Runner(aw, manifest, built)
    records_file = args.inputs / "records.pickle"
    if args.mode == "run":
        out.update(runner.rounds(args.seconds, records_file))
        # in cli the program runs in the children, all reaped by now
        who = resource.RUSAGE_CHILDREN if is_cli else resource.RUSAGE_SELF
        out["peak_rss_kib"] = resource.getrusage(who).ru_maxrss
        pickle.dump(out, sys.stdout.buffer)
        return 0

    # trace: set-up spans, then untraced rounds, then traced rounds
    out["setup_trace"] = tracer.snapshot()
    tracer.uninstall()
    phases = 3 if is_cli else 2
    out["untraced"] = runner.rounds(args.seconds / phases, records_file)
    if is_cli:
        runner.in_process = True
        out["main"] = runner.rounds(args.seconds / phases)
        env = runner.env
        out["interpreter_s"] = _fresh_seconds("pass", env, prints_own_time=False)
        out["import_s"] = _fresh_seconds(
            "import time; t = time.perf_counter(); import abelwords.cli; "
            "print(time.perf_counter() - t)", env, prints_own_time=True)
    tracer = Tracer()
    tracer.install()
    out["traced"] = runner.rounds(args.seconds / phases)
    tracer.uninstall()
    out["round_trace"] = tracer.snapshot()
    pickle.dump(out, sys.stdout.buffer)
    return 0


if __name__ == "__main__":
    sys.exit(main())
