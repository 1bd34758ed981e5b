"""Labelled sequents over a ternary relation on worlds.

A label is an int; 0 is the distinguished identity world and positive
ints are label variables.  A sequent carries relational atoms (x,y|>z),
inequalities x != y, and labelled formulae on both sides.  Tuples keep
insertion order (the proof search relies on this for fairness) while the
derived frozensets give fast membership tests.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import FrozenSet, Tuple

from .formula import Formula, free_exprs, show, subst_expr

Label = int
EPS: Label = 0

RelAtom = Tuple[Label, Label, Label]     # (x, y |> z)
Ineq = Tuple[Label, Label]
LabelledFormula = Tuple[Label, Formula]


def _dedup(items):
    seen = set()
    out = []
    for it in items:
        if it not in seen:
            seen.add(it)
            out.append(it)
    return tuple(out)


@dataclass(frozen=True)
class Sequent:
    rel: Tuple[RelAtom, ...] = ()
    ineq: Tuple[Ineq, ...] = ()
    gamma: Tuple[LabelledFormula, ...] = ()
    delta: Tuple[LabelledFormula, ...] = ()

    @cached_property
    def rel_set(self) -> FrozenSet[RelAtom]:
        return frozenset(self.rel)

    @cached_property
    def ineq_set(self) -> FrozenSet[Ineq]:
        return frozenset(self.ineq)

    @cached_property
    def gamma_set(self) -> FrozenSet[LabelledFormula]:
        return frozenset(self.gamma)

    @cached_property
    def delta_set(self) -> FrozenSet[LabelledFormula]:
        return frozenset(self.delta)

    @cached_property
    def labels(self) -> FrozenSet[Label]:
        out = {EPS}
        for (x, y, z) in self.rel:
            out.update((x, y, z))
        for (x, y) in self.ineq:
            out.update((x, y))
        for (w, _) in self.gamma:
            out.add(w)
        for (w, _) in self.delta:
            out.add(w)
        return frozenset(out)

    def fresh_label(self) -> Label:
        return max(self.labels) + 1

    def extend(self, rel=(), ineq=(), gamma=(), delta=(),
               drop_gamma=(), drop_delta=()) -> "Sequent":
        """New formulae go to the front of the queues, new atoms to the back."""
        g = self.gamma
        d = self.delta
        if drop_gamma:
            g = tuple(lf for lf in g if lf not in drop_gamma)
        if drop_delta:
            d = tuple(lf for lf in d if lf not in drop_delta)
        return Sequent(
            rel=_dedup(self.rel + tuple(rel)),
            ineq=_dedup(self.ineq + tuple(ineq)),
            gamma=_dedup(tuple(gamma) + g),
            delta=_dedup(tuple(delta) + d),
        )

    def requeue(self, side: str, lf: LabelledFormula) -> "Sequent":
        """Move a formula to the back of its queue (fairness for retained principals)."""
        if side == "gamma":
            g = tuple(x for x in self.gamma if x != lf) + (lf,)
            return Sequent(self.rel, self.ineq, g, self.delta)
        d = tuple(x for x in self.delta if x != lf) + (lf,)
        return Sequent(self.rel, self.ineq, self.gamma, d)

    def subst_label(self, frm: Label, to: Label) -> "Sequent":
        if frm == to:
            return self
        m = lambda w: to if w == frm else w
        return Sequent(
            rel=_dedup((m(x), m(y), m(z)) for (x, y, z) in self.rel),
            ineq=_dedup((m(x), m(y)) for (x, y) in self.ineq),
            gamma=_dedup((m(w), f) for (w, f) in self.gamma),
            delta=_dedup((m(w), f) for (w, f) in self.delta),
        )

    def subst_expr(self, frm: str, to: str) -> "Sequent":
        if frm == to:
            return self
        return Sequent(
            rel=self.rel,
            ineq=self.ineq,
            gamma=_dedup((w, subst_expr(f, frm, to)) for (w, f) in self.gamma),
            delta=_dedup((w, subst_expr(f, frm, to)) for (w, f) in self.delta),
        )

    def __str__(self) -> str:
        return format_sequent(self)


def label_name(w: Label) -> str:
    return "e" if w == EPS else "a%d" % w


def format_sequent(s: Sequent) -> str:
    parts = []
    parts.extend("(%s,%s |> %s)" % tuple(map(label_name, a)) for a in s.rel)
    parts.extend("%s != %s" % (label_name(x), label_name(y)) for (x, y) in s.ineq)
    left = "; ".join(parts)
    gs = ", ".join("%s: %s" % (label_name(w), show(f)) for (w, f) in s.gamma)
    ds = ", ".join("%s: %s" % (label_name(w), show(f)) for (w, f) in s.delta)
    if left:
        return "%s ; %s |- %s" % (left, gs, ds)
    return "%s |- %s" % (gs, ds)


def occurring_exprs(seq: Sequent) -> frozenset:
    """The expression names free in seq's formulae."""
    out = set()
    for (_, f) in seq.gamma + seq.delta:
        out |= free_exprs(f)
    return frozenset(out)


def initial_sequent(goal: Formula) -> Sequent:
    return Sequent(gamma=(), delta=((1, goal),))
