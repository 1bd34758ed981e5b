"""Finite-model semantics: evaluation, frame conditions, frame
enumeration, countermodel search.

A frame is a finite set of worlds {0..n-1} with 0 as the empty world and
a ternary composition relation; (a,b,c) in rel means a and b combine to
c.  This module is the checker that soundness rests on.  It is
independent of the proof rules, so the two can be checked against each
other: the model of an open branch is built in pasl.countermodel, which
may use the rules, and is certified here.
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterator, Optional, Tuple

from .config import LogicConfig
from .formula import Formula, prop_names
from .sequent import EPS, Sequent

Triple = Tuple[int, int, int]


@dataclass(slots=True)
class FrameModel:
    size: int
    rel: FrozenSet[Triple]
    valuation: Dict[str, FrozenSet[int]]

    @property
    def eps(self) -> int:
        return 0


def satisfies(model: FrameModel, world: int, f: Formula) -> bool:
    """Does f hold at world, one of the worlds 0..size-1 of model?"""
    if not 0 <= world < model.size:
        raise ValueError("world %d is not in a model of %d worlds" % (world, model.size))
    return _truth(model, f) >> world & 1 == 1


_EVALUATED = {"var", "top", "bot", "emp", "not", "and", "or", "imp", "star", "wand"}


def _truth(model: FrameModel, f: Formula) -> int:
    """The bitmask of the worlds where f holds in model.  Each distinct
    subformula is evaluated once, children before parents, on an
    explicit stack, so nesting depth is bounded by memory, not by
    Python's recursion limit."""
    n = model.size
    full = (1 << n) - 1
    got: Dict[Formula, int] = {}
    stack = [f]
    while stack:
        g = stack[-1]
        if g in got:
            stack.pop()
            continue
        k = g.kind
        if k not in _EVALUATED:
            raise ValueError("cannot evaluate %r in a frame model" % k)
        todo = [a for a in g.args if isinstance(a, Formula) and a not in got]
        if todo:
            stack.extend(todo)
            continue
        stack.pop()
        if k == "var":
            m = 0
            for w in model.valuation.get(g.args[0], ()):
                m |= 1 << w
        elif k == "top":
            m = full
        elif k == "bot":
            m = 0
        elif k == "emp":
            m = 1 << model.eps
        elif k == "not":
            m = full & ~got[g.args[0]]
        else:
            a, b = got[g.args[0]], got[g.args[1]]
            if k == "and":
                m = a & b
            elif k == "or":
                m = a | b
            elif k == "imp":
                m = (full & ~a) | b
            elif k == "star":       # some (x,y |> c) with a at x and b at y
                m = 0
                for (x, y, c) in model.rel:
                    if a >> x & 1 and b >> y & 1:
                        m |= 1 << c
            else:                   # wand: every (w,x |> y) with a at x has b at y
                m = full
                for (w, x, y) in model.rel:
                    if a >> x & 1 and not b >> y & 1:
                        m &= ~(1 << w)
        got[g] = m & full
    return got[f]


def _table(rel, n: int):
    """rel as a composition table: comp[a * n + b] is the bitmask of the c
    with (a,b,c) in rel and targets[a * n + b] lists them.  None if rel
    names a world outside 0..n-1."""
    comp = [0] * (n * n)
    targets = [[] for _ in range(n * n)]
    for (a, b, c) in rel:
        if not (0 <= a < n and 0 <= b < n and 0 <= c < n):
            return None
        comp[a * n + b] |= 1 << c
        targets[a * n + b].append(c)
    return comp, targets


def _is_monoid(comp, targets, n: int) -> bool:
    """0 is a unit (a + 0 is exactly a), + is commutative, and every
    h1 + (h2 + h3) can be rebracketed as (h1 + h2) + h3."""
    for a in range(n):
        if comp[a * n] != 1 << a:
            return False
        for b in range(a + 1, n):
            if comp[a * n + b] != comp[b * n + a]:
                return False
    return _unbracketed(comp, targets, n) is None


def _unbracketed(comp, targets, n: int) -> Optional[Tuple[int, int, int, int]]:
    """The first (h1, h2, h3, h4) with h4 in h1 + (h2 + h3) but not in
    (h1 + h2) + h3, over h2, then h3, then h1 and h4 increasing; None if
    every composition rebrackets.  Given the unit, a triple with an empty
    world always rebrackets, so h1, h2 and h3 are non-empty."""
    for h2 in range(1, n):
        for h3 in range(1, n):
            t23 = targets[h2 * n + h3]
            if not t23:
                continue
            for h1 in range(1, n):
                row = h1 * n
                left = 0
                for h5 in t23:
                    left |= comp[row + h5]
                if left:
                    right = 0
                    for h6 in targets[row + h2]:
                        right |= comp[h6 * n + h3]
                    miss = left & ~right
                    if miss:
                        return h1, h2, h3, (miss & -miss).bit_length() - 1
    return None


def _meets_extras(comp, targets, n: int, cfg: LogicConfig) -> bool:
    """The conditions cfg adds to a commutative monoid frame."""
    if cfg.partial_determinism and any(m & (m - 1) for m in comp):
        return False
    if cfg.cancellativity:
        # a + b and a + b' share no target unless b = b'
        for a in range(n):
            seen = 0
            for m in comp[a * n:a * n + n]:
                if seen & m:
                    return False
                seen |= m
    if cfg.indivisible_unit or cfg.disjointness:
        if any(comp[a * n + b] & 1 for a in range(1, n) for b in range(n)):
            return False
    if cfg.disjointness:
        if any(comp[a * n + a] for a in range(1, n)):
            return False
    if cfg.splittability:
        # every non-empty world is a sum of two non-empty ones
        split = _split_worlds(comp, n)
        if any(not split >> c & 1 for c in range(1, n)):
            return False
    if cfg.cross_split and not _cross_splits(comp, targets, n):
        return False
    return True


def _split_worlds(comp, n: int) -> int:
    """The bitmask of the worlds that are a sum of two non-empty ones."""
    split = 0
    for a in range(1, n):
        for m in comp[a * n + 1:a * n + n]:
            split |= m
    return split


def _decompositions(targets, n: int) -> list:
    """dec[c] lists the (a,b) with a + b = c in the table of targets,
    in increasing order."""
    dec = [[] for _ in range(n)]
    for ab, cs in enumerate(targets):
        for c in cs:
            dec[c].append(divmod(ab, n))
    return dec


def _cross_splits(comp, targets, n: int) -> bool:
    """a + b = z = u + v implies p + q = a, p + s = u, s + t = b and
    q + t = v for some p, q, s, t."""
    dec = _decompositions(targets, n)
    reach = {}    # (a,b) -> per u, the bitmask of the v that (a,b) splits into
    for z in range(n):
        for ab in dec[z]:
            got = reach.get(ab)
            if got is None:
                got = [0] * n
                for (p, q) in dec[ab[0]]:
                    for (s, t) in dec[ab[1]]:
                        v = comp[q * n + t]
                        if v:
                            for u in targets[p * n + s]:
                                got[u] |= v
                reach[ab] = got
            for (u, v) in dec[z]:
                if not got[u] >> v & 1:
                    return False
    return True


def check_conditions(rel: FrozenSet[Triple], n: int, cfg: LogicConfig) -> bool:
    """Is rel a frame of cfg on the worlds 0..n-1: a commutative monoid
    with unit 0 that meets cfg's extra conditions?"""
    # a world without its unit atom: no monoid, known before the n^2 table
    if any((a, 0, a) not in rel for a in range(n)):
        return False
    table = _table(rel, n)
    return (table is not None and _is_monoid(*table, n)
            and _meets_extras(*table, n, cfg))


_monoid_cache: Dict[int, list] = {}
_frames_cache: Dict[Tuple[int, LogicConfig], Tuple[FrozenSet[Triple], ...]] = {}


def _monoid_frames(n: int) -> list:
    """(relation, comp, targets) of every commutative monoid frame on n
    worlds, in enumeration order; built once per n.  A candidate fixes
    the sum of each pair 1 <= a <= b < n: a set of worlds, or at n = 4
    one world or none."""
    got = _monoid_cache.get(n)
    if got is not None:
        return got
    base = set()
    for a in range(n):
        base.add((a, 0, a))
        base.add((0, a, a))
    pairs = [(a, b) for a in range(1, n) for b in range(a, n)]
    if n == 4:
        sums = [() if c == n else (c,) for c in range(n + 1)]
    else:
        sums = [s for r in range(n + 1) for s in itertools.combinations(range(n), r)]
    got = []
    for choice in itertools.product(sums, repeat=len(pairs)):
        # built as a set in this order: find_countermodel's first model,
        # and satisfies' calls, follow its iteration order
        rel = set(base)
        for (a, b), cs in zip(pairs, choice):
            for c in cs:
                rel.add((a, b, c))
                rel.add((b, a, c))
        comp, targets = _table(rel, n)
        if _is_monoid(comp, targets, n):
            got.append((frozenset(rel), comp, targets))
    _monoid_cache[n] = got
    return got


def enumerate_frames(n: int, cfg: LogicConfig) -> Tuple[FrozenSet[Triple], ...]:
    """All composition relations on n worlds meeting cfg's frame conditions."""
    if n < 1:
        raise ValueError("need at least one world")
    if n > 4 or (n == 4 and not cfg.partial_determinism):
        raise ValueError("frame enumeration too large for n=%d" % n)
    got = _frames_cache.get((n, cfg))
    if got is None:
        got = tuple(rel for rel, comp, targets in _monoid_frames(n)
                    if _meets_extras(comp, targets, n, cfg))
        _frames_cache[(n, cfg)] = got
    return got


def _clear_frame_caches() -> None:
    _monoid_cache.clear()
    _frames_cache.clear()


enumerate_frames.cache_clear = _clear_frame_caches


@functools.lru_cache(maxsize=None)
def _world_subsets(n: int) -> Tuple[FrozenSet[int], ...]:
    """Every subset of the worlds 0..n-1, smallest first; shared by all
    the valuations on n worlds.  Unbounded, as n is at most the 4 worlds
    that enumerate_frames builds."""
    return tuple(frozenset(s) for r in range(n + 1)
                 for s in itertools.combinations(range(n), r))


def _valuations(props: Tuple[str, ...], n: int) -> Iterator[Dict[str, FrozenSet[int]]]:
    for choice in itertools.product(_world_subsets(n), repeat=len(props)):
        yield dict(zip(props, choice))


def find_countermodel(f: Formula, cfg: LogicConfig,
                      max_worlds: int = 3) -> Optional[Tuple[FrameModel, int]]:
    """Search small frames for a world falsifying f; None if none found."""
    props = tuple(sorted(prop_names(f)))
    for n in range(1, max_worlds + 1):
        try:
            frames = enumerate_frames(n, cfg)
        except ValueError:
            break
        full = (1 << n) - 1
        for rel in frames:
            for val in _valuations(props, n):
                model = FrameModel(n, rel, val)
                h = _first_zero(_truth(model, f), full)
                if h is not None:
                    return model, h
    return None


def _first_zero(mask: int, full: int) -> Optional[int]:
    """The smallest world of full that mask leaves out, or None."""
    rest = full & ~mask
    return (rest & -rest).bit_length() - 1 if rest else None


def assignments(labels, model: FrameModel) -> Iterator[Dict[int, int]]:
    """All label-to-world maps sending the identity label to the empty world."""
    rest = sorted(w for w in labels if w != EPS)
    for choice in itertools.product(range(model.size), repeat=len(rest)):
        rho = dict(zip(rest, choice))
        rho[EPS] = model.eps
        yield rho


def sequent_falsifiable(seq: Sequent, model: FrameModel,
                        rho: Dict[int, int]) -> bool:
    """Does rho make all of seq's structure and antecedents true and all
    succedents false in model?"""
    for (x, y, z) in seq.rel:
        if (rho[x], rho[y], rho[z]) not in model.rel:
            return False
    for (x, y) in seq.ineq:
        if rho[x] == rho[y]:
            return False
    for (w, f) in seq.gamma:
        if not satisfies(model, rho[w], f):
            return False
    for (w, f) in seq.delta:
        if satisfies(model, rho[w], f):
            return False
    return True


def format_model(model: FrameModel, world: Optional[int] = None) -> str:
    lines = ["worlds %d" % model.size, "eps %d" % model.eps]
    for t in sorted(model.rel):
        lines.append("rel %d %d %d" % t)
    for p in sorted(model.valuation):
        ws = " ".join(str(w) for w in sorted(model.valuation[p]))
        lines.append("val %s %s" % (p, ws))
    if world is not None:
        lines.append("falsified_at %d" % world)
    return "\n".join(lines) + "\n"


def parse_model(text: str) -> Tuple[FrameModel, Optional[int]]:
    """Read format_model's text; ValueError on a malformed line, on a
    missing worlds line or fewer than one world, or on a world outside
    0..worlds-1."""
    size = None
    rel = set()
    val: Dict[str, FrozenSet[int]] = {}
    world = None
    for line in text.splitlines():
        parts = line.split()
        if not parts:
            continue
        try:
            if parts[0] == "worlds":
                size = int(parts[1])
            elif parts[0] == "eps":
                if int(parts[1]) != 0:
                    raise ValueError("empty world must be 0")
            elif parts[0] == "rel" and len(parts) == 4:
                rel.add((int(parts[1]), int(parts[2]), int(parts[3])))
            elif parts[0] == "val":
                val[parts[1]] = frozenset(int(w) for w in parts[2:])
            elif parts[0] == "falsified_at":
                world = int(parts[1])
            else:
                raise ValueError("bad model line %r" % line)
        except IndexError:
            raise ValueError("bad model line %r" % line) from None
    if size is None:
        raise ValueError("model has no worlds line")
    if size < 1:
        raise ValueError("model has %d worlds; it needs at least 1" % size)
    used = [w for t in rel for w in t] + [w for ws in val.values() for w in ws]
    if world is not None:
        used.append(world)
    bad = [w for w in used if not 0 <= w < size]
    if bad:
        raise ValueError("world %d is not in a model of %d worlds" % (bad[0], size))
    return FrameModel(size, frozenset(rel), val), world
