"""Spans around abelwords' public functions, for the per-layer metrics.

`Tracer.install()` replaces each public function by a timing wrapper
wherever the function is looked up: in its own module, in the package
namespace, in every sibling module that imported it by name, and in
module-level dicts such as the CLI's decider table. `Word.__init__` and
`Word.from_text` are wrapped on the class. `uninstall()` puts the
originals back.

Spans are aggregated as they close, per name: calls, inclusive seconds
and self seconds (the span minus the time its child spans cover).
Counters are taken at the same boundaries.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# (module, function) pairs whose calls become spans
SPANNED = {
    "parikh": ("has_a_root_of_length", "block_parikhs"),
    "numtheory": ("factorize", "divisors", "is_prime", "arith", "mobius",
                  "middle_antichain", "multiples_closure", "is_division_free"),
    "primitivity": ("is_a_primitive", "is_a_primitive_linear", "is_a_primitive_oracle"),
    "roots": ("root_profile",),
    "relations": ("sim_n", "commute_check", "witness_is_valid", "shared_root_check"),
    "counting": ("psi", "psi_a", "delta_prime_power", "count_table"),
    "constructions": ("m_word", "multiroot_word", "antichain_word"),
}
PACKAGE = "abelwords"
DECIDERS = frozenset(f"primitivity.{f}" for f in SPANNED["primitivity"])


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []  # open spans: [name, child seconds]
        self._undo: list[tuple] = []

    # -- spans

    def _wrap(self, name, fn, after=None):
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            result = failed = None
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                failed = exc
                raise
            finally:
                spent = clock() - start
                stack.pop()
                self.calls[name] += 1
                self.total[name] += spent
                self.self_time[name] += spent - frame[1]
                if stack:
                    stack[-1][1] += spent
                if after is not None:
                    after(args, result, failed, spent)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- counters

    def _after_block_test(self, args, result, failed, spent):
        self.counts["parikh.letters_scanned"] += len(args[0])
        if any(frame[0] in DECIDERS for frame in self._stack):
            self.counts["block_tests_in_decisions"] += 1

    def _after_decider(self, args, result, failed, spent):
        self.counts["decisions"] += 1
        if self._stack and self._stack[-1][0] == "roots.root_profile":
            self.counts["roots.prefix_decide_s"] += spent

    def _after_root_profile(self, args, result, failed, spent):
        if result is not None:
            self.counts["roots.roots_found"] += len(result.a_root_lengths)

    def _after_commute(self, args, result, failed, spent):
        if result is not None:
            self.counts["relations.witness_blocks"] += result.r

    def _after_psi_a(self, args, result, failed, spent):
        if failed is None:
            k, n = args[:2]
            self.counts["counting.words_enumerated"] += k ** n
        elif type(failed).__name__ == "EnumerationBudgetError":
            self.counts["counting.budget_refusals"] += 1

    # -- patching

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if key == PACKAGE or key.startswith(PACKAGE + ".")]
        hooks = {
            "parikh.has_a_root_of_length": self._after_block_test,
            "roots.root_profile": self._after_root_profile,
            "relations.commute_check": self._after_commute,
            "counting.psi_a": self._after_psi_a,
        }
        hooks.update({name: self._after_decider for name in DECIDERS})
        replace = {}
        for short, names in SPANNED.items():
            home = sys.modules[f"{PACKAGE}.{short}"]
            for fname in names:
                span = f"{short}.{fname}"
                original = getattr(home, fname)
                replace[id(original)] = self._wrap(span, original, hooks.get(span))
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in replace:
                    self._set(module, attr, replace[id(value)])
                elif isinstance(value, dict):
                    for key, entry in list(value.items()):
                        if id(entry) in replace:
                            self._set_item(value, key, replace[id(entry)])
        word = sys.modules[f"{PACKAGE}.parikh"].Word
        self._set(word, "__init__", self._wrap("parikh.Word.__init__", word.__init__))
        from_text = word.__dict__["from_text"].__func__
        self._set(word, "from_text",
                  classmethod(self._wrap("parikh.Word.from_text", from_text)))

    def _set(self, owner, attr, value):
        self._undo.append((setattr, owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _set_item(self, mapping, key, value):
        self._undo.append((dict.__setitem__, mapping, key, mapping[key]))
        mapping[key] = value

    def uninstall(self) -> None:
        while self._undo:
            restore, owner, key, original = self._undo.pop()
            restore(owner, key, original)

    # -- results

    def snapshot(self) -> dict:
        return {
            "calls": dict(self.calls),
            "total_s": dict(self.total),
            "self_s": dict(self.self_time),
            "counts": dict(self.counts),
        }
