"""Span tracing of the program's layers, applied from outside the program.

`Tracer.install` rebinds each traced public function, in every `sublang`
module namespace that holds it, to a wrapper that records a span (id,
name, start, end, parent id, op id) and the counters named in `_targets`.
`Tracer.uninstall` puts the originals back, so untraced operations run the
unmodified program.  Self time of a span is its duration minus the time
covered by its child spans.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

MONOID_CAP_MESSAGE = "transition monoid too large for desk-scale analysis"
# family tag -> decision procedure in sublang.families
FAMILY_PROCEDURES = {
    "FIN": "is_finite",
    "MON": "is_monoidal",
    "NIL": "is_nilpotent",
    "COMB": "is_combinational",
    "DEF": "is_definite",
    "SUF": "is_suffix_closed",
    "ORD": "is_orderable",
    "COMM": "is_commutative",
    "CIRC": "is_circular",
    "NC": "is_noncounting",
    "PS": "is_power_separating",
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, int, int]] = []  # id, name, start, end, parent, op
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.maxima: dict[str, int] = {}
        self.generated: list[tuple[object, str, list[str]]] = []  # grammar, mode, words
        self.op = 0
        self._stack: list[list] = []  # [name, start, child time, span id]
        self._next_id = 0
        self._patched: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def enter(self, name: str) -> None:
        self._next_id += 1
        self._stack.append([name, time.perf_counter(), 0.0, self._next_id])

    def exit(self) -> float:
        end = time.perf_counter()
        name, start, child, span_id = self._stack.pop()
        duration = end - start
        self.self_s[name] += duration - child
        self.calls[name] += 1
        parent = self._stack[-1][3] if self._stack else 0
        if self._stack:
            self._stack[-1][2] += duration
        self.spans.append((span_id, name, start, end, parent, self.op))
        return duration

    def _wrap(self, name: str, fn, on_result=None, on_error=None):
        from sublang.automata import InputError

        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            except InputError as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            finally:
                tracer.exit()
            if on_result is not None:
                on_result(result, args, kwargs)
            return result

        return traced

    # -- counters fed by the wrappers ---------------------------------------

    def _determinized(self, result, args, kwargs) -> None:
        self.counts["automata.determinize_states"] += result.n_states

    def _monoid_built(self, result, args, kwargs) -> None:
        size = len(result)
        self.maxima["families.monoid_size_max"] = max(self.maxima.get("families.monoid_size_max", 0), size)

    def _monoid_failed(self, exc) -> None:
        if str(exc) == MONOID_CAP_MESSAGE:
            self.counts["families.monoid_cap_hits"] += 1

    def _ordered(self, result, args, kwargs) -> None:
        # the cover search stopped at its node budget or its chain-length bound
        if result.value == "unknown":
            self.counts["families.ORD_budget_exhausted"] += 1

    def _generated(self, result, args, kwargs) -> None:
        grammar, mode = args[0], args[1] if len(args) > 1 else kwargs["mode"]
        self.counts["grammars.words_out"] += len(result)
        self.generated.append((grammar, mode, result))

    def _targets(self):
        from sublang import automata, families, formats, grammars, regexes, slt, witnesses

        targets = [
            ("formats.parse", formats, "parse_dfa_file", {}),
            ("formats.parse", formats, "parse_slt_file", {}),
            ("formats.parse", formats, "parse_grammar_file", {}),
            ("regexes.compile", regexes, "compile_regex", {}),
            ("automata.minimize", automata, "minimize", {}),
            ("automata.determinize", automata.Nfa, "determinize", {"on_result": self._determinized}),
            ("automata.equiv", automata, "are_equivalent", {}),
            ("automata.product", automata, "intersect", {}),
            ("automata.product", automata, "union", {}),
            ("automata.product", automata, "difference", {}),
            ("automata.enumerate", automata, "enumerate_upto", {}),
            ("automata.factor_sets", automata, "factor_sets", {}),
            ("families.monoid", families.TransitionMonoid, "from_dfa",
             {"on_result": self._monoid_built, "on_error": self._monoid_failed}),
            ("slt.is_slt_k", slt, "is_slt_k", {}),
            ("slt.slt_to_dfa", slt, "slt_to_dfa", {}),
            ("grammars.generate", grammars, "generate_bounded", {"on_result": self._generated}),
            ("witnesses.verify_lemma", witnesses, "verify_lemma", {}),
        ]
        for tag, attr in FAMILY_PROCEDURES.items():
            hooks = {"on_result": self._ordered} if tag == "ORD" else {}
            targets.append((f"families.{tag}", families, attr, hooks))
        for attr in (
            "oracle_words",
            "dyck_words_upto",
            "hierarchy_oracle",
            "ec35_oracle",
            "ic32_oracle",
            "ic33_oracle",
            "ic34_oracle",
            "ic35_oracle",
            "kk_oracle_upto",
        ):
            targets.append(("witnesses.oracle", witnesses, attr, {}))
        return targets

    # -- installing and removing the wrappers --------------------------------

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in sys.modules.items() if name == "sublang" or name.startswith("sublang.")]
        for name, owner, attr, hooks in self._targets():
            if isinstance(owner, type):
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(name, raw.__func__, **hooks))
                else:
                    wrapped = self._wrap(name, raw, **hooks)
                self._patched.append((owner, attr, raw))
                setattr(owner, attr, wrapped)
                continue
            original = getattr(owner, attr)
            wrapped = self._wrap(name, original, **hooks)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, key, original))
                        setattr(module, key, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()
