"""Spans and counters around pasl's entry points, installed from outside.

Each entry point is wrapped under every name its callers look it up by:
`expand` is reached as pasl.calculus.expand (from check), as
pasl.search.expand and as pasl.cli.expand, so all three are replaced by
one wrapper.  Spans nest on a stack; a span's self time is its duration
minus the durations of the spans it encloses.  Spans are folded into
per-layer totals when they end instead of being kept one by one, since a
pass makes millions of them.  remove() puts every original back.
"""
from __future__ import annotations

import math
import sys
import time
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

# layer name -> (module, owner attribute or None, function name)
LAYERS = (
    ("formula.parse", "pasl.formula", None, "parse"),
    ("sequent.extend", "pasl.sequent", "Sequent", "extend"),
    ("sequent.subst_label", "pasl.sequent", "Sequent", "subst_label"),
    ("sequent.fresh_label", "pasl.sequent", "Sequent", "fresh_label"),
    ("calculus.expand", "pasl.calculus", None, "expand"),
    ("calculus.closures", "pasl.calculus", None, "closures"),
    ("calculus.check", "pasl.calculus", None, "check"),
    ("unify.find_redex", "pasl.unify", None, "find_redex"),
    ("unify.eq_find", "pasl.unify", None, "eq_find"),
    ("heap.find_heap_redex", "pasl.heap", None, "find_heap_redex"),
    ("search.prove", "pasl.search", "Prover", "prove"),
    ("oracle.find_countermodel", "pasl.oracle", None, "find_countermodel"),
    ("oracle.satisfies", "pasl.oracle", None, "satisfies"),
    ("oracle.enumerate_frames", "pasl.oracle", None, "enumerate_frames"),
)

# The rule families of calculus.Rule, by premise count and kind.
RULE_KINDS = {
    "zero": ("id", "botL", "topR", "empR", "neqL", "|->L1", "=R"),
    "unary": ("andL", "orR", "->R", "~L", "~R", "empL", "*L", "-*R",
              "existsL", "existsR"),
    "branching": ("andR", "orL", "->L", "*R", "-*L", "|->L2", "EM"),
    "subst": ("Eq1", "Eq2", "P", "C", "IU", "D", "|->L3", "|->L4", "=L"),
    "structural": ("E", "A", "AC", "U", "S", "CS", "CSC"),
}
_KIND_OF = {r: k for k, rules in RULE_KINDS.items() for r in rules}

# layers whose calls can come back empty: the share that found a closing
# rule, a redex or a countermodel, under this metric name
HIT_LAYERS = {"calculus.closures": "hit_ratio", "unify.find_redex": "hit_ratio",
              "oracle.find_countermodel": "found_ratio"}


class BudgetCut(Exception):
    """A prove call used up the benchmark's expand budget.

    Not a RuleError or ValueError, so no handler inside pasl catches it."""


class Span:
    __slots__ = ("calls", "total", "self_time", "hits")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.hits = 0


class Probes:
    """Spans around the given layers, and the expand budget.

    Expand calls are counted whether or not expand is traced; start_input
    resets the count and sets the budget of the next input."""

    def __init__(self, layers):
        self.layers = frozenset(layers)
        self.spans: Dict[str, Span] = {name: Span() for name in self.layers}
        self.rules: Counter = Counter()
        self.replays = 0
        self.round_cap_max = 0
        self.expands = 0
        self.budget = math.inf
        self._stack: List[list] = []
        self._patched: List[Tuple[object, str, object]] = []

    def start_input(self, budget: Optional[int]) -> None:
        self.expands = 0
        self.budget = math.inf if budget is None else budget

    # -- installing ----------------------------------------------------------

    def install(self) -> None:
        for name, module, owner, attr in LAYERS:
            if name in self.layers:
                wrap = self._traced
            elif name == "calculus.expand":
                wrap = self._counted
            else:
                continue
            mod = sys.modules[module]
            if owner is not None:
                cls = getattr(mod, owner)
                self._patch(cls, attr, wrap(name, cls.__dict__[attr]))
                continue
            orig = getattr(mod, attr)
            wrapper = wrap(name, orig)
            for other in list(sys.modules.values()):
                if (getattr(other, "__name__", "").split(".")[0] == "pasl"
                        and other.__dict__.get(attr) is orig):
                    self._patch(other, attr, wrapper)

    def remove(self) -> None:
        while self._patched:
            target, attr, orig = self._patched.pop()
            setattr(target, attr, orig)

    def _patch(self, target, attr, wrapper) -> None:
        self._patched.append((target, attr, target.__dict__[attr]))
        setattr(target, attr, wrapper)

    # -- wrappers -------------------------------------------------------------

    def _counted(self, name: str, fn: Callable) -> Callable:
        def counted(*args, **kw):
            self.expands += 1
            if self.expands > self.budget:
                raise BudgetCut()
            return fn(*args, **kw)
        return counted

    def _traced(self, name: str, fn: Callable) -> Callable:
        span = self.spans[name]
        stack = self._stack
        clock = time.perf_counter
        hit = name in HIT_LAYERS
        expand = name == "calculus.expand"
        prove = name == "search.prove"
        rules = self.rules

        def traced(*args, **kw):
            if expand:
                rules[args[1].rule.value] += 1
                self.expands += 1
                if self.expands > self.budget:
                    raise BudgetCut()
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kw)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                span.calls += 1
                span.total += dt
                span.self_time += dt - frame[0]
                if prove:
                    prover = args[0]
                    self.replays += prover.replays
                    self.round_cap_max = max(self.round_cap_max,
                                             getattr(prover, "round_cap", 0))
            if hit and out is not None:
                span.hits += 1
            return out
        return traced

    # -- results ---------------------------------------------------------------

    def rule_kinds(self) -> Counter:
        out: Counter = Counter({k: 0 for k in RULE_KINDS})
        for rule, n in self.rules.items():
            out[_KIND_OF.get(rule, "other")] += n
        return out
