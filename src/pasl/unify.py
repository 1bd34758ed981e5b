"""Label normalization.

Relational atoms of the form (e,w |> w') assert that w and w' denote the
same world; partial determinism and cancellativity likewise force labels
together.  Normalization eliminates such redexes by substituting one
label for the other until no redex remains.  Substituting the smaller
label keeps the identity label e from ever being eliminated.  A redex is
found as the calculus.RuleInstance that eliminates it, which expand
applies as it applies any other rule.
"""
from __future__ import annotations

from typing import Dict, Optional, Tuple

from . import calculus
from .config import LogicConfig
from .sequent import EPS, Label, RelAtom, Sequent


def _redex(rule: calculus.Rule, atoms: Tuple[RelAtom, ...], a: Label,
           b: Label) -> calculus.RuleInstance:
    """The instance of rule on atoms that replaces the larger of a and b
    by the smaller."""
    return calculus.RuleInstance(rule, principal_rels=atoms,
                                 subst=((max(a, b), min(a, b)),))


def _clash(seq: Sequent, rule: calculus.Rule,
           i: int) -> Optional[calculus.RuleInstance]:
    """rule's instance on the first two atoms of seq that share their first
    label and the one at 3 - i but not the one at i: (x,y |> z) and
    (x,y |> z') for P at i = 2, (x,y |> z) and (x,y' |> z) for C at i = 1."""
    seen = {}
    for atom in seq.rel:
        prev = seen.setdefault((atom[0], atom[3 - i]), atom)
        if prev[i] != atom[i]:
            return _redex(rule, (prev, atom), prev[i], atom[i])
    return None


def find_redex(seq: Sequent, cfg: LogicConfig) -> Optional[calculus.RuleInstance]:
    """The first Eq1, Eq2, P, C, IU or D instance that applies to seq and
    cfg enables, or None."""
    Rule = calculus.Rule
    for atom in seq.rel:
        x, y, z = atom
        if x == EPS and y != z:
            return _redex(Rule.EQ2 if y > z else Rule.EQ1, (atom,), y, z)
    if cfg.partial_determinism and (red := _clash(seq, Rule.P, 2)):
        return red
    if cfg.cancellativity and (red := _clash(seq, Rule.C, 1)):
        return red
    if cfg.indivisible_unit or cfg.disjointness:
        for a in seq.rel:
            if a[2] == EPS and a[0] != EPS:
                return _redex(Rule.IU, (a,), a[0], EPS)
    if cfg.disjointness:
        for a in seq.rel:
            if a[0] == a[1] != EPS:
                return _redex(Rule.D, (a,), a[0], EPS)
    return None


class UnionFind:
    def __init__(self) -> None:
        self.p: Dict[Label, Label] = {}

    def find(self, x: Label) -> Label:
        p = self.p
        if x not in p:
            p[x] = x
            return x
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, a: Label, b: Label) -> None:
        pa, pb = self.find(a), self.find(b)
        if pa != pb:
            # keep the smaller label as representative
            if pa < pb:
                self.p[pb] = pa
            else:
                self.p[pa] = pb


def eq_find(seq: Sequent):
    """Representative function for the equalities asserted by (e,w |> w') atoms."""
    uf = UnionFind()
    for (x, y, z) in seq.rel:
        if x == EPS:
            uf.union(y, z)
    return uf.find


def entails_eq(seq: Sequent, a: Label, b: Label) -> bool:
    """Do the identity atoms of seq force labels a and b to be equal?"""
    find = eq_find(seq)
    return find(a) == find(b)
