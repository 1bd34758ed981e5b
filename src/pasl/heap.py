"""Heap-specific reasoning: points-to cells and expression equalities.

A cell formula e1 |-> e2 describes a one-cell heap.  Two cells with the
same address must be the same world, and two cells at the same world
must agree on address and value; equalities on the left are eliminated
by substitution.  These are the substitutional redexes the search
interleaves with label normalization.
"""
from __future__ import annotations

from typing import Dict, Optional, Tuple

from .calculus import Rule, RuleInstance
from .config import LogicConfig
from .sequent import Label, LabelledFormula, Sequent, occurring_exprs


def find_heap_redex(seq: Sequent, cfg: LogicConfig) -> Optional[RuleInstance]:
    if not cfg.heap_extension:
        return None
    by_addr: Dict[str, LabelledFormula] = {}
    by_label: Dict[Label, LabelledFormula] = {}
    for lf in seq.gamma:
        w, f = lf
        if f.kind == "eq":
            return RuleInstance(Rule.EQ_L, principal_gamma=(lf,))
        if f.kind != "mapsto":
            continue
        prev = by_label.get(w)
        if prev is not None and prev[1] is not f:
            return RuleInstance(Rule.MAPSTO_L4, principal_gamma=(prev, lf))
        by_label[w] = lf
        addr = f.args[0]
        prev = by_addr.get(addr)
        if prev is not None and prev[0] != w:
            return RuleInstance(Rule.MAPSTO_L3, principal_gamma=(prev, lf))
        by_addr[addr] = lf
    return None


def witnesses(seq: Sequent) -> Tuple[str, ...]:
    """Candidate instantiations for an existential on the right: every
    occurring identifier plus one designated fresh name."""
    return tuple(sorted(occurring_exprs(seq))) + (seq.fresh_expr(),)
