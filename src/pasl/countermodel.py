"""The finite model of an open branch: built here, checked by the oracle.

The builder may use the proof rules: it makes the label equalities a
logic forces with the search's own normalizer, unify.find_redex.  It
completes a frame on the oracle's own composition table and
decompositions, but whether its model is a countermodel is for the
oracle alone to say.

Where a search limit stops a branch, limit_countermodel reads two more
models off it, each under a bound on its worlds: an exact merge of the
labels that carry the same formulas, completed as above, and the
branch's core, completed by witness_frame, a bounded backtracking
search for rebracketing witnesses that never breaks partial
determinism, cancellativity, indivisible unit or disjointness (after
the witness choice of MACE-style finite model finders; Claessen and
Sörensson, 2003).
"""
from __future__ import annotations

from typing import Dict, FrozenSet, Optional, Tuple

from .config import LogicConfig
from .formula import Formula, has_heap
from .oracle import (FrameModel, Triple, _decompositions, _first_zero,
                     _split_worlds, _table, _truth, _unbracketed, check_conditions)
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
    inside the n^3 possible atoms, so this ends.  The table and the
    decompositions start as the oracle's _table and _decompositions build
    them.  Whether the result is a frame is left to check_conditions."""
    comp, targets = _table(rel, n)
    dec = _decompositions(targets, n)
    todo = sorted(rel)                # every atom, in the order it is looked at

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
    rel, n, val, first = _image(seq, merge, cfg)
    return _certified(complete_frame(rel, n, cfg), n, val, first, goal, cfg)


def _image(seq: Sequent, merge: Dict[int, int], cfg: LogicConfig):
    """The relation, world count, valuation and world of label 1 of seq's
    image under merge, normalized; see branch_countermodel."""
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
    while (red := find_redex(image, cfg)) is not None:
        ((frm, to),) = red.subst
        image = image.subst_label(frm, to)
        if first == frm:
            first = to
    world = {w: i for i, w in enumerate(sorted(image.labels))}
    val: Dict[str, set] = {}
    for (w, f) in image.gamma:
        val.setdefault(f.args[0], set()).add(world[w])
    return (frozenset((world[x], world[y], world[z]) for (x, y, z) in image.rel),
            len(world), val, world[first])


def _certified(rel: FrozenSet[Triple], n: int, val: Dict[str, set], first: int,
               goal: Formula, cfg: LogicConfig) -> Optional[Tuple[FrameModel, int]]:
    """The model of rel and val with a world where goal fails, first if
    goal fails there, if rel is a frame of cfg; None otherwise."""
    if not check_conditions(rel, n, cfg):
        return None
    model = FrameModel(n, rel, {p: frozenset(ws) for p, ws in val.items()})
    holds = _truth(model, goal)
    if not holds >> first & 1:
        return model, first
    h = _first_zero(holds, (1 << n) - 1)
    return None if h is None else (model, h)


# -- the model of a branch that a search limit stopped -------------------------

# Above this many labels a limit reading is skipped: the oracle's
# composition table has n^2 entries, and the witness search scans it for
# every relation it tries.
_LIMIT_WORLDS = 12
# The relations the witness search may try, and the worlds it may add.
_WITNESS_NODES = 2000
_FRESH_WORLDS = 2


def carried(seq: Sequent) -> Dict[int, Tuple[set, set]]:
    """Each label of seq that carries a formula, with the formulas it
    carries in the antecedent and in the succedent."""
    out: Dict[int, Tuple[set, set]] = {}
    for (w, f) in seq.gamma:
        out.setdefault(w, (set(), set()))[0].add(f)
    for (w, f) in seq.delta:
        out.setdefault(w, (set(), set()))[1].add(f)
    return out


def limit_countermodel(seq: Sequent, goal: Formula,
                       cfg: LogicConfig) -> Optional[Tuple[FrameModel, int]]:
    """A certified model read off seq, the branch of goal's search on
    which a search limit fired; None if neither reading gives one.

    The first reading merges each label other than e into the oldest
    label that carries exactly its antecedent and succedent formulas, and
    completes the image as branch_countermodel does.  The second keeps
    the branch's core: e, label 1 and every label that carries a formula,
    with the atoms among them; witness_frame completes its image.  Each
    is skipped when it has more than _LIMIT_WORLDS labels."""
    if cfg.heap_extension or has_heap(goal):
        return None
    have = carried(seq)
    oldest: Dict[tuple, int] = {}
    merge = {}
    for w in sorted(seq.labels - {EPS}):
        g, d = have.get(w, ((), ()))
        b = oldest.setdefault((frozenset(g), frozenset(d)), w)
        if b != w:
            merge[w] = b
    if len(seq.labels) - len(merge) <= _LIMIT_WORLDS:
        got = branch_countermodel(seq, merge, goal, cfg)
        if got is not None:
            return got
    core = {EPS, 1}.union(have)
    if len(core) > _LIMIT_WORLDS:
        return None
    rel, n, val, first = _image(
        Sequent(rel=(a for a in seq.rel if core.issuperset(a)),
                gamma=seq.gamma, delta=seq.delta), {}, cfg)
    frame = witness_frame(rel, n, cfg)
    return None if frame is None else _certified(*frame, val, first, goal, cfg)


def witness_frame(rel: FrozenSet[Triple], n: int,
                  cfg: LogicConfig) -> Optional[Tuple[FrozenSet[Triple], int]]:
    """A frame of cfg that holds rel, a commutative relation with unit
    atoms on the worlds 0..n-1, on those worlds and at most _FRESH_WORLDS
    more; None if the search below finds none within _WITNESS_NODES
    relations.

    Depth first from rel: at the first h1 + (h2 + h3) = h4 that does not
    rebracket (oracle._unbracketed), the witness h6 of h1 + h2 = h6 and
    h6 + h3 = h4 is each world in turn, then a fresh world, and both
    atoms are added in both orders.  A choice that breaks the unit law,
    or partial determinism, cancellativity, indivisible unit or
    disjointness where cfg has them, is dropped: an atom added never
    goes away, so its relation has no frame of cfg above it.  With
    splittability, a world of a relation where everything rebrackets
    that has no non-empty split gets c + c = c, as in complete_frame.
    A relation where everything rebrackets and every world splits is
    returned if check_conditions accepts it."""
    most = n + _FRESH_WORLDS
    todo = [(rel, n)]
    for _ in range(_WITNESS_NODES):
        if not todo:
            break
        rel, n = todo.pop()
        comp, targets = _table(rel, n)
        found = _unbracketed(comp, targets, n)
        if found is None:
            if cfg.splittability:
                split = _split_worlds(comp, n)
                c = next((c for c in range(1, n) if not split >> c & 1), None)
                if c is not None:
                    if _keeps(comp, n, ((c, c, c),), cfg):
                        todo.append((rel | {(c, c, c)}, n))
                    continue
            if check_conditions(rel, n, cfg):
                return rel, n
            continue
        h1, h2, h3, h4 = found
        choices = []
        for h6 in range(n + (n < most)):
            new = {(h1, h2, h6), (h2, h1, h6), (h6, h3, h4), (h3, h6, h4)}
            if h6 == n:
                new |= {(h6, EPS, h6), (EPS, h6, h6)}
            if _keeps(comp, n, new, cfg):
                choices.append((rel | new, max(n, h6 + 1)))
        todo.extend(reversed(choices))
    return None


def _keeps(comp, n: int, atoms, cfg: LogicConfig) -> bool:
    """Do atoms, added to the composition table comp on n worlds, keep the
    unit law, and partial determinism, cancellativity, indivisible unit
    and disjointness where cfg has them?  An atom may name world n."""
    added: Dict[Tuple[int, int], int] = {}
    for (a, b, c) in atoms:
        if a == EPS and b != c or b == EPS and a != c:
            return False
        if c == EPS and a != EPS and (cfg.indivisible_unit or cfg.disjointness):
            return False
        if a == b != EPS and cfg.disjointness:
            return False
        added[a, b] = added.get((a, b), 0) | 1 << c

    def sums(a, b):
        old = comp[a * n + b] if a < n and b < n else 0
        return old | added.get((a, b), 0)

    for (a, b) in added:
        m = sums(a, b)
        if cfg.partial_determinism and m & (m - 1):
            return False
        if cfg.cancellativity and any(
                sums(a, b2) & m for b2 in range(n + 1) if b2 != b):
            return False
    return True
