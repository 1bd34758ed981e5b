"""Labelled sequents over a ternary relation on worlds.

A label is an int; 0 is the distinguished identity world and positive
ints are label variables.  A sequent carries relational atoms (x,y|>z),
inequalities x != y, and labelled formulae on both sides.  Each part is
an insertion-ordered dict with None values that keeps the first
occurrence of each item it is built from: its order is the order the
proof search relies on for fairness, and its keys give fast membership
tests.  A part is never changed once its sequent is built.  Two
sequents are equal when their parts hold the same items, in any order,
as the sets of the calculus do.
"""
from __future__ import annotations

from itertools import chain
from typing import Dict, FrozenSet, Iterable, Tuple

from .formula import Formula, free_exprs, show, subst_expr

Label = int
EPS: Label = 0

RelAtom = Tuple[Label, Label, Label]     # (x, y |> z)
Ineq = Tuple[Label, Label]
LabelledFormula = Tuple[Label, Formula]


class Sequent:
    __slots__ = ("rel", "ineq", "gamma", "delta", "_labels")
    rel: Dict[RelAtom, None]
    ineq: Dict[Ineq, None]
    gamma: Dict[LabelledFormula, None]
    delta: Dict[LabelledFormula, None]

    def __init__(self, rel: Iterable[RelAtom] = (), ineq: Iterable[Ineq] = (),
                 gamma: Iterable[LabelledFormula] = (),
                 delta: Iterable[LabelledFormula] = ()):
        self.rel = dict.fromkeys(rel)
        self.ineq = dict.fromkeys(ineq)
        self.gamma = dict.fromkeys(gamma)
        self.delta = dict.fromkeys(delta)
        self._labels = None         # built on first use

    def __eq__(self, other):
        if not isinstance(other, Sequent):
            return NotImplemented
        return (self.rel == other.rel and self.ineq == other.ineq
                and self.gamma == other.gamma and self.delta == other.delta)

    def __hash__(self):
        return hash((frozenset(self.rel), frozenset(self.ineq),
                     frozenset(self.gamma), frozenset(self.delta)))

    @property
    def labels(self) -> FrozenSet[Label]:
        if self._labels is None:
            out = {EPS}
            for (x, y, z) in self.rel:
                out.update((x, y, z))
            for (x, y) in self.ineq:
                out.update((x, y))
            for (w, _) in self.gamma:
                out.add(w)
            for (w, _) in self.delta:
                out.add(w)
            self._labels = frozenset(out)
        return self._labels

    def fresh_label(self) -> Label:
        return max(self.labels) + 1

    def extend(self, rel=(), ineq=(), gamma=(), delta=(),
               drop_gamma=(), drop_delta=()) -> "Sequent":
        """New formulae go to the front of the queues, new atoms to the back."""
        g = self.gamma
        d = self.delta
        if drop_gamma:
            g = (lf for lf in g if lf not in drop_gamma)
        if drop_delta:
            d = (lf for lf in d if lf not in drop_delta)
        return Sequent(chain(self.rel, rel), chain(self.ineq, ineq),
                       chain(gamma, g), chain(delta, d))

    def requeue(self, side: str, lf: LabelledFormula) -> "Sequent":
        """Move a formula to the back of its queue (fairness for retained principals)."""
        if side == "gamma":
            g = chain((x for x in self.gamma if x != lf), (lf,))
            return Sequent(self.rel, self.ineq, g, self.delta)
        d = chain((x for x in self.delta if x != lf), (lf,))
        return Sequent(self.rel, self.ineq, self.gamma, d)

    def subst_label(self, frm: Label, to: Label) -> "Sequent":
        if frm == to:
            return self
        m = lambda w: to if w == frm else w
        return Sequent(
            rel=((m(x), m(y), m(z)) for (x, y, z) in self.rel),
            ineq=((m(x), m(y)) for (x, y) in self.ineq),
            gamma=((m(w), f) for (w, f) in self.gamma),
            delta=((m(w), f) for (w, f) in self.delta),
        )

    def subst_expr(self, frm: str, to: str) -> "Sequent":
        if frm == to:
            return self
        return Sequent(
            rel=self.rel,
            ineq=self.ineq,
            gamma=((w, subst_expr(f, frm, to)) for (w, f) in self.gamma),
            delta=((w, subst_expr(f, frm, to)) for (w, f) in self.delta),
        )

    def __repr__(self) -> str:
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
    for (_, f) in chain(seq.gamma, seq.delta):
        out |= free_exprs(f)
    return frozenset(out)


def initial_sequent(goal: Formula) -> Sequent:
    return Sequent(delta=((1, goal),))
