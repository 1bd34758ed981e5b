"""Reference verdicts for generated formulas: is there a countermodel of
at most three worlds?

This asks what `pasl.oracle.find_countermodel(f, cfg, 3)` asks, over the
same frames, but evaluates a formula in every model of a given size at
once: bit m of a mask is the formula's truth at one world in model m,
where m runs over every (frame, valuation) pair.  A formula then costs
a few hundred big-integer operations instead of one evaluation per
model, which keeps the reference cheap enough to check every verdict
of a run.  tests in this directory compare it with find_countermodel.
"""
from __future__ import annotations

import itertools
from typing import Dict, List, Tuple

MAX_WORLDS = 3


class _Models:
    """Every model with n worlds over one frame list and one atom set."""

    def __init__(self, n: int, frames, props: Tuple[str, ...]):
        self.n = n
        subsets = [frozenset(s) for r in range(n + 1)
                   for s in itertools.combinations(range(n), r)]
        valuations = list(itertools.product(subsets, repeat=len(props)))
        nval = len(valuations)
        block = (1 << nval) - 1
        self.all = (1 << (nval * len(frames))) - 1
        # per atom and world: the valuations that make the atom true there
        in_val: Dict[str, List[int]] = {p: [0] * n for p in props}
        for v, choice in enumerate(valuations):
            for p, worlds in zip(props, choice):
                for w in worlds:
                    in_val[p][w] |= 1 << v
        self.atom = {p: [sum(masks[w] << (i * nval) for i in range(len(frames)))
                         for w in range(n)] for p, masks in in_val.items()}
        # per triple: the models whose frame relates it
        self.rel = {}
        for i, fr in enumerate(frames):
            for t in fr:
                self.rel[t] = self.rel.get(t, 0) | (block << (i * nval))
        self.memo: Dict[object, Tuple[int, ...]] = {}

    def eval(self, f) -> Tuple[int, ...]:
        got = self.memo.get(f)
        if got is None:
            got = self.memo[f] = self._eval(f)
        return got

    def _eval(self, f) -> Tuple[int, ...]:
        n, full, k = self.n, self.all, f.kind
        if k == "var":
            return tuple(self.atom[f.args[0]])
        if k == "top":
            return (full,) * n
        if k == "bot":
            return (0,) * n
        if k == "emp":
            return (full,) + (0,) * (n - 1)
        if k == "not":
            return tuple(full ^ m for m in self.eval(f.args[0]))
        a, b = self.eval(f.args[0]), self.eval(f.args[1])
        if k == "and":
            return tuple(x & y for x, y in zip(a, b))
        if k == "or":
            return tuple(x | y for x, y in zip(a, b))
        if k == "imp":
            return tuple((full ^ x) | y for x, y in zip(a, b))
        rel = self.rel
        if k == "star":      # some (x, y |> w) with a at x and b at y
            return tuple(self._any(rel, lambda x, y: (x, y, w), a, b, full)
                         for w in range(n))
        if k == "wand":      # every (w, x |> y) with a at x has b at y
            return tuple(full ^ self._any(rel, lambda x, y: (w, x, y), a,
                                          tuple(full ^ m for m in b), full)
                         for w in range(n))
        raise ValueError("the reference cannot evaluate %r" % k)

    def _any(self, rel, triple, a, b, full) -> int:
        out = 0
        for x in range(self.n):
            for y in range(self.n):
                r = rel.get(triple(x, y))
                if r:
                    out |= r & a[x] & b[y]
        return out


class Reference:
    """Countermodel existence up to MAX_WORLDS worlds, per logic."""

    def __init__(self, enumerate_frames, prop_names):
        self._frames = enumerate_frames
        self._props = prop_names
        self._models: Dict[tuple, _Models] = {}

    def refutable(self, f, cfg) -> bool:
        props = tuple(sorted(self._props(f)))
        for n in range(1, MAX_WORLDS + 1):
            key = (cfg, n, props)
            models = self._models.get(key)
            if models is None:
                models = self._models[key] = _Models(n, self._frames(n, cfg), props)
            if any(m != models.all for m in models.eval(f)):
                return True
        return False
