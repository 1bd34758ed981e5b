"""The finite model of an open branch: built here, checked by the oracle.

The builder may use the proof rules: it makes the label equalities a
logic forces with the search's own normalizer, unify.find_redex.
Whether its model is a countermodel is for the oracle alone to say.
"""
from __future__ import annotations

from typing import Dict, FrozenSet, Optional, Tuple

from .config import LogicConfig
from .formula import Formula, has_heap
from .oracle import (FrameModel, Triple, _first_zero, _split_worlds, _truth,
                     check_conditions)
from .sequent import EPS, Sequent
from .unify import find_redex


def complete_frame(rel: FrozenSet[Triple], n: int,
                   cfg: LogicConfig) -> FrozenSet[Triple]:
    """rel, a commutative relation on the worlds 0..n-1, with the atoms
    added that a frame of cfg needs and rel lacks; rel itself if it
    lacks none.

    With splittability, each non-empty world that has no non-empty
    split gets (c, c, c).  Then, until every non-empty h1 + (h2 + h3) =
    h4 rebrackets as (h1 + h2) + h3, the witness h6 is the first
    non-empty element of h1 + h2 if there is one, else the first world
    with h4 in h6 + h3, else h4, and (h1, h2, h6) and (h6, h3, h4) are
    added in both orders.  Each atom is looked at once, rel's in sorted
    order and then the added ones in the order they were added, in
    every instance it makes with the atoms present by then; so each
    instance is looked at once both its atoms are present, on a
    composition table updated in place.  An instance that rebrackets
    keeps doing so as the relation grows, and the relation grows only
    inside the n^3 possible atoms, so this ends.  Whether the result is
    a frame is left to check_conditions."""
    comp = [0] * (n * n)
    dec = [[] for _ in range(n)]      # dec[c]: the (a,b) with a + b = c
    todo = sorted(rel)                # every atom, in the order it is looked at
    for (a, b, c) in todo:
        comp[a * n + b] |= 1 << c
        dec[c].append((a, b))

    def add(a, b, c):
        if not comp[a * n + b] >> c & 1:
            comp[a * n + b] |= 1 << c
            dec[c].append((a, b))
            todo.append((a, b, c))

    if cfg.splittability:
        split = _split_worlds(comp, n)
        for c in range(1, n):
            if not split >> c & 1:
                add(c, c, c)

    def rebracket(h1, h2, h3, h4):
        m = comp[h1 * n + h2]
        ends = 0
        rest = m
        while rest:
            low = rest & -rest
            ends |= comp[(low.bit_length() - 1) * n + h3]
            rest ^= low
        if ends >> h4 & 1:
            return
        m &= ~1
        if m:
            h6 = (m & -m).bit_length() - 1
        else:
            h6 = next((w for w in range(n) if comp[w * n + h3] >> h4 & 1), h4)
        add(h1, h2, h6)
        add(h2, h1, h6)
        add(h6, h3, h4)
        add(h3, h6, h4)

    seen = 0
    while seen < len(todo):
        x, y, z = todo[seen]
        seen += 1
        if x == 0:
            continue
        if y != 0:    # as h2 + h3 = h5, under every h1 + h5 = h4
            for h1 in range(1, n):
                rest = comp[h1 * n + z]
                while rest:
                    low = rest & -rest
                    rebracket(h1, x, y, low.bit_length() - 1)
                    rest ^= low
        for (h2, h3) in tuple(dec[y]):    # as h1 + h5 = h4, over every h2 + h3 = h5
            if h2 != 0 and h3 != 0:
                rebracket(x, h2, h3, z)
    return rel.union(todo[len(rel):]) if len(todo) > len(rel) else rel


def branch_countermodel(seq: Sequent, merge: Dict[int, int], goal: Formula,
                        cfg: LogicConfig) -> Optional[Tuple[FrameModel, int]]:
    """The finite model an open branch of goal's search describes, with a
    world where goal fails, if that model is a frame of cfg; None
    otherwise.

    Each label in merge is replaced by the label it maps to, which is
    not in merge.  The image of seq, held in a sequent, is its atoms
    closed under commutativity, a unit atom per label, and the variable
    antecedents of the labels not in merge.  Merging labels makes labels
    that partial determinism, cancellativity, indivisible unit or
    disjointness force to be equal, and an indivisible-unit merge can
    leave an identity atom (e, x |> y) with x != y; so the image is
    normalized as the search normalizes, by find_redex's substitutions
    until none is left.  Each replaces the larger label by the smaller,
    so e stays e.  The i-th remaining label, in order, is world i, with
    the variables it carries.  Then complete_frame adds the atoms a
    frame needs: merging a label into its blocker leaves compositions
    the branch never rebracketed, and a label that never got a non-empty
    split leaves a world without one.  The oracle checks the completed
    model as it would any other: check_conditions, then the goal.  The
    world of label 1, the goal's in an initial sequent, is tried first.
    Heap logics and heap goals get no model: frames here do not model
    the heap."""
    if cfg.heap_extension or has_heap(goal):
        return None
    m = lambda w: merge.get(w, w)
    rel = set()
    for (x, y, z) in seq.rel:
        rel.add((m(x), m(y), m(z)))
        rel.add((m(y), m(x), m(z)))
    for w in seq.labels:
        if w not in merge:
            rel.add((w, EPS, w))
            rel.add((EPS, w, w))
    image = Sequent(rel=sorted(rel),
                    gamma=((w, f) for (w, f) in seq.gamma
                           if f.kind == "var" and w not in merge))
    first = m(1) if 1 in seq.labels else EPS
    red = find_redex(image, cfg)
    while red is not None:
        frm, to = red.subst
        image = image.subst_label(frm, to)
        if first == frm:
            first = to
        red = find_redex(image, cfg)
    world = {w: i for i, w in enumerate(sorted(image.labels))}
    n = len(world)
    val: Dict[str, set] = {}
    for (w, f) in image.gamma:
        val.setdefault(f.args[0], set()).add(world[w])
    rel = complete_frame(
        frozenset((world[x], world[y], world[z]) for (x, y, z) in image.rel), n, cfg)
    if not check_conditions(rel, n, cfg):
        return None
    model = FrameModel(n, rel, {p: frozenset(ws) for p, ws in val.items()})
    holds = _truth(model, goal)
    first = world[first]
    if not holds >> first & 1:
        return model, first
    h = _first_zero(holds, (1 << n) - 1)
    return None if h is None else (model, h)
