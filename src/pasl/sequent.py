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

A sequent also records, in change, how the operation that built it
changed the sequent it was built from, for the search's relevance
tracking.  There an atom stands for itself and a labelled formula is
tagged with its side, as ("gamma", lf) or ("delta", lf).  extend records
the tuple of the items it added, and subst_label and subst_expr a dict
from each item they renamed to that item's preimage.  Nothing is diffed:
each operation records what it does as it builds.  Other constructions
record None.

Every sequent carries labels, the frozenset of e and the labels of its
items, and top, the largest label its branch has ever held.  A sequent
built directly computes both from its items; extend adds the labels of
the items it adds and raises top to the largest, subst_label swaps its
label in labels, and every other operation passes both on.  So a label
substitution that removes the largest label leaves top where it was.
fresh_label returns top + 1: a fresh label never reuses the number of a
label that a substitution removed, so it is also fresh for every sequent
of the branch before that substitution.  The search's relevance tracking
relies on this when it drops a substitution from a proof.  As no part is
ever changed, an operation's result holds each part and label set that
the operation leaves alone as its operand's own object.

Every sequent also carries expr_top, the largest i of an expression name
v<i> that its branch has ever held, free or bound.  A sequent built
directly computes it from its formulae, calculus.expand raises it where
existsL or existsR brings a name in, and every other operation passes it
on, as only those two rules bring names in.  fresh_expr returns
v<expr_top + 1>, which no formula of the branch has held, before or
after an expression substitution removed a name, and which no binder of
the goal can capture.
"""
from __future__ import annotations

from itertools import chain
from typing import Dict, FrozenSet, Iterable, Tuple

from .formula import Formula, expr_names, free_exprs, show, subst_expr

Label = int
EPS: Label = 0

RelAtom = Tuple[Label, Label, Label]     # (x, y |> z)
Ineq = Tuple[Label, Label]
LabelledFormula = Tuple[Label, Formula]


class Sequent:
    __slots__ = ("rel", "ineq", "gamma", "delta", "change", "labels", "top",
                 "expr_top")
    rel: Dict[RelAtom, None]
    ineq: Dict[Ineq, None]
    gamma: Dict[LabelledFormula, None]
    delta: Dict[LabelledFormula, None]
    labels: FrozenSet[Label]

    def __init__(self, rel: Iterable[RelAtom] = (), ineq: Iterable[Ineq] = (),
                 gamma: Iterable[LabelledFormula] = (),
                 delta: Iterable[LabelledFormula] = ()):
        self.rel = dict.fromkeys(rel)
        self.ineq = dict.fromkeys(ineq)
        self.gamma = dict.fromkeys(gamma)
        self.delta = dict.fromkeys(delta)
        self.change = None
        self.labels = frozenset(chain((EPS,), chain.from_iterable(self.rel),
                                      chain.from_iterable(self.ineq),
                                      (w for (w, _) in self.gamma),
                                      (w for (w, _) in self.delta)))
        self.top = max(self.labels)
        self.expr_top = max((expr_index(e) for (_, f) in chain(self.gamma, self.delta)
                             for e in expr_names(f)), default=0)

    def __eq__(self, other):
        if not isinstance(other, Sequent):
            return NotImplemented
        return (self.rel == other.rel and self.ineq == other.ineq
                and self.gamma == other.gamma and self.delta == other.delta)

    def __hash__(self):
        return hash((frozenset(self.rel), frozenset(self.ineq),
                     frozenset(self.gamma), frozenset(self.delta)))

    def fresh_label(self) -> Label:
        return self.top + 1

    def fresh_expr(self) -> str:
        return "v%d" % (self.expr_top + 1)

    def extend(self, rel=(), ineq=(), gamma=(), delta=(),
               drop_gamma=(), drop_delta=()) -> "Sequent":
        """New formulae go to the front of the queues, new atoms to the back.
        The result's change is the tuple of the items that self lacked,
        its labels self's and theirs, and its top the largest label of
        self's top and those items.  It holds each part of self that no
        argument adds to or drops from as it is."""
        g = self.gamma
        d = self.delta
        if drop_gamma:
            g = (lf for lf in g if lf not in drop_gamma)
        if drop_delta:
            d = (lf for lf in d if lf not in drop_delta)
        # loops, not comprehensions: a comprehension is a call of its own,
        # and most of these arguments are empty or hold one item.  top is
        # at least every label of self, so only a new label can raise it
        added = []
        labels = self.labels
        top = self.top
        for a in rel:
            if a not in self.rel:
                added.append(a)
                if not labels.issuperset(a):
                    labels = labels.union(a)
                    top = max(top, *a)
        for q in ineq:
            if q not in self.ineq:
                added.append(q)
                if not labels.issuperset(q):
                    labels = labels.union(q)
                    top = max(top, *q)
        for lf in gamma:
            if lf not in self.gamma:
                added.append(("gamma", lf))
                if lf[0] not in labels:
                    labels = labels.union((lf[0],))
                    top = max(top, lf[0])
        for lf in delta:
            if lf not in self.delta:
                added.append(("delta", lf))
                if lf[0] not in labels:
                    labels = labels.union((lf[0],))
                    top = max(top, lf[0])
        out = _built(dict.fromkeys(chain(self.rel, rel)) if rel else self.rel,
                     dict.fromkeys(chain(self.ineq, ineq)) if ineq else self.ineq,
                     dict.fromkeys(chain(gamma, g)) if gamma or drop_gamma else g,
                     dict.fromkeys(chain(delta, d)) if delta or drop_delta else d,
                     labels, top, self.expr_top)
        out.change = tuple(added)
        return out

    def requeue(self, side: str, lf: LabelledFormula) -> "Sequent":
        """Move a formula to the back of its queue (fairness for retained principals)."""
        if side == "gamma":
            g = dict.fromkeys(chain((x for x in self.gamma if x != lf), (lf,)))
            return _built(self.rel, self.ineq, g, self.delta, self.labels, self.top,
                          self.expr_top)
        d = dict.fromkeys(chain((x for x in self.delta if x != lf), (lf,)))
        return _built(self.rel, self.ineq, self.gamma, d, self.labels, self.top,
                      self.expr_top)

    def subst_label(self, frm: Label, to: Label) -> "Sequent":
        """self with every frm replaced by to.  The result's change maps
        each item that a replacement gives, unless an item of self without
        frm came first with it, to the first item of self it came from.
        Its labels are self's with frm swapped for to, and its top is
        self's, even when frm was the largest label."""
        if frm == to:
            return self
        labels = self.labels
        if frm in labels:
            labels = (labels - {frm}) | {to}
        renamed: Dict[tuple, tuple] = {}
        out = _built(_rename_atoms(self.rel, frm, to, renamed),
                     _rename_atoms(self.ineq, frm, to, renamed),
                     _rename_labelled(self.gamma, "gamma", frm, to, renamed),
                     _rename_labelled(self.delta, "delta", frm, to, renamed),
                     labels, self.top, self.expr_top)
        out.change = renamed
        return out

    def subst_expr(self, frm: str, to: str) -> "Sequent":
        """self with every free frm replaced by to.  The result's change
        maps each formula that a replacement gives to its preimage, as
        subst_label's does."""
        if frm == to:
            return self
        renamed: Dict[tuple, tuple] = {}
        out = _built(self.rel, self.ineq,
                     _rename_exprs(self.gamma, "gamma", frm, to, renamed),
                     _rename_exprs(self.delta, "delta", frm, to, renamed),
                     self.labels, self.top, self.expr_top)
        out.change = renamed
        return out

    def __repr__(self) -> str:
        return format_sequent(self)


def _built(rel, ineq, gamma, delta, labels, top: Label, expr_top: int) -> Sequent:
    """A sequent of these parts, whose labels, top and expr_top are given,
    not computed.  It may share any of them with other sequents."""
    out = Sequent.__new__(Sequent)
    out.rel = rel
    out.ineq = ineq
    out.gamma = gamma
    out.delta = delta
    out.change = None
    out.labels = labels
    out.top = top
    out.expr_top = expr_top
    return out


def _rename_atoms(part, frm, to, renamed):
    """part with frm replaced by to in its atoms, recording preimages in
    renamed as Sequent.subst_label describes."""
    out = {}
    for a in part:
        if frm in a:
            b = tuple(to if x == frm else x for x in a)
            if b not in out:
                renamed[b] = a
            out[b] = None
        else:
            out[a] = None
    return out


def _rename_labelled(part, tag, frm, to, renamed):
    """part, the side tag, with its formulae at frm moved to to; as
    _rename_atoms."""
    out = {}
    for lf in part:
        if lf[0] == frm:
            b = (to, lf[1])
            if b not in out:
                renamed[(tag, b)] = (tag, lf)
            out[b] = None
        else:
            out[lf] = None
    return out


def _rename_exprs(part, tag, frm, to, renamed):
    """part, the side tag, with frm replaced by to in its formulae; as
    _rename_atoms."""
    out = {}
    for lf in part:
        f = subst_expr(lf[1], frm, to)
        if f is not lf[1]:
            b = (lf[0], f)
            if b not in out:
                renamed[(tag, b)] = (tag, lf)
            out[b] = None
        else:
            out[lf] = None
    return out


def expr_index(name: str) -> int:
    """i for an expression name v<i>, else 0: the names fresh_expr makes."""
    return int(name[1:]) if name[:1] == "v" and name[1:].isdecimal() else 0


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
