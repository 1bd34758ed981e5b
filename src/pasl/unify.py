"""Label normalization.

Relational atoms of the form (e,w |> w') assert that w and w' denote the
same world; partial determinism and cancellativity likewise force labels
together.  Normalization eliminates such redexes by substituting one
label for the other until no redex remains.  Substituting the smaller
label keeps the identity label e from ever being eliminated.
"""
from __future__ import annotations

from typing import Dict, NamedTuple, Optional, Tuple

from .config import LogicConfig
from .sequent import EPS, Label, RelAtom, Sequent


class AppliedRule(NamedTuple):
    rule: str                      # Eq1, Eq2, P, C, IU or D
    atoms: Tuple[RelAtom, ...]     # the atoms that triggered it
    subst: Tuple[Label, Label]     # (replaced, replacement)


def _eq_redex(atom: RelAtom) -> Optional[AppliedRule]:
    x, y, z = atom
    if x != EPS or y == z:
        return None
    # replace the larger label by the smaller one
    frm, to = (y, z) if y > z else (z, y)
    rule = "Eq2" if frm == y else "Eq1"
    return AppliedRule(rule, (atom,), (frm, to))


def find_redex(seq: Sequent, cfg: LogicConfig) -> Optional[AppliedRule]:
    for atom in seq.rel:
        r = _eq_redex(atom)
        if r is not None:
            return r
    if cfg.partial_determinism:
        seen: Dict[Tuple[Label, Label], RelAtom] = {}
        for atom in seq.rel:
            x, y, z = atom
            prev = seen.get((x, y))
            if prev is not None and prev[2] != z:
                frm, to = max(prev[2], z), min(prev[2], z)
                return AppliedRule("P", (prev, atom), (frm, to))
            seen[(x, y)] = atom
    if cfg.cancellativity:
        seen = {}
        for atom in seq.rel:
            x, y, z = atom
            prev = seen.get((x, z))
            if prev is not None and prev[1] != y:
                frm, to = max(prev[1], y), min(prev[1], y)
                return AppliedRule("C", (prev, atom), (frm, to))
            seen[(x, z)] = atom
    if cfg.indivisible_unit or cfg.disjointness:
        for atom in seq.rel:
            x, y, z = atom
            if z == EPS and x != EPS:
                return AppliedRule("IU", (atom,), (x, EPS))
    if cfg.disjointness:
        for atom in seq.rel:
            x, y, z = atom
            if x == y and x != EPS:
                return AppliedRule("D", (atom,), (x, EPS))
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
