"""Proof search.

The strategy works in phases on each branch:

1. close the branch with a zero-premise rule if possible;
2. eliminate label and heap-expression redexes (substitutional rules)
   and keep the relation closed under commutativity;
3. apply invertible logical rules, unary ones first;
4. discharge star-right / wand-left obligations against relational
   atoms whose component labels already carry the matching subformulas,
   memoized so each (formula, atom) pair fires at most once;
5. when nothing else applies, run one structural round (associativity
   with a redundancy filter, unit atoms) and go back to 1;
6. once structural rounds stop producing atoms, fall back to the
   remaining splittings with no subformula affinity; a branch with
   nothing left at all is saturated.

A saturated open branch refutes the goal outright: the strategy has no
choicepoints, so no alternative proof attempt exists.  Every premise of
a branching rule is searched on its own.  Short of a wall-clock limit,
the search is deterministic: the same goal, logic and limits always
give the same result.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from .calculus import (Derivation, Rule, RuleInstance, check, closures,
                       expand, from_applied)
from .config import ConfigError, LogicConfig
from .formula import EMP, Formula, has_heap, subformulae, subst_expr
from .heap import find_heap_redex, fresh_expr_name, witnesses
from .sequent import EPS, Sequent, initial_sequent
from .unify import eq_find, find_redex


@dataclass(frozen=True)
class SearchLimits:
    max_structural_rounds: int = 12
    max_rule_apps: int = 200000        # along any single branch
    max_rel_atoms: int = 5000          # per-sequent composition atom budget
    max_live_atoms: int = 10000000     # atoms retained across the branch stack
    wall_clock_ms: Optional[int] = None


@dataclass(frozen=True)
class Valid:
    proof: Derivation


@dataclass(frozen=True)
class NotProved:
    open_branch: Sequent


@dataclass(frozen=True)
class ResourceExhausted:
    limit: str


class _OpenFound(Exception):
    def __init__(self, seq: Sequent):
        self.seq = seq


class _Exhausted(Exception):
    def __init__(self, limit: str):
        self.limit = limit


def _rewrite_memo_label(memo: Set[tuple], frm: int, to: int) -> Set[tuple]:
    def ml(x):
        if isinstance(x, int):
            return to if x == frm else x
        if isinstance(x, tuple):
            return tuple(ml(e) for e in x)
        return x
    return {tuple(ml(e) for e in key) for key in memo}


def _rewrite_memo_expr(memo: Set[tuple], frm: str, to: str) -> Set[tuple]:
    def me(x):
        if isinstance(x, Formula):
            return subst_expr(x, frm, to)
        if isinstance(x, str):
            return to if x == frm else x
        if isinstance(x, tuple):
            return tuple(me(e) for e in x)
        return x
    return {tuple(me(e) for e in key) for key in memo}


class Prover:
    # perfbench/probes.py reads this after each traced prove; the search
    # never replays a subtree, so it stays 0
    replays = 0

    def __init__(self, cfg: LogicConfig, limits: SearchLimits = SearchLimits()):
        self.cfg = cfg
        self.limits = limits
        self.deadline = None
        self.live_atoms = 0

    # -- public entry points --------------------------------------------------

    def prove(self, goal: Formula):
        if has_heap(goal) and not self.cfg.heap_extension:
            raise ConfigError("formula uses heap atoms; pick a heap-enabled logic")
        return self.prove_sequent(initial_sequent(goal))

    def prove_sequent(self, seq: Sequent):
        if self.limits.wall_clock_ms is not None:
            self.deadline = time.monotonic() + self.limits.wall_clock_ms / 1000.0
        # Deepen the structural round budget gradually: saturating the
        # composition relation is explosive, and most proofs close after a
        # couple of rounds.  A branch that saturates without pending work is
        # open regardless of the budget, so this never changes NotProved.
        top = self.limits.max_structural_rounds
        caps = [c for c in (1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64) if c < top]
        caps.append(top)
        for cap in caps:
            self.round_cap = cap
            self.live_atoms = 0
            try:
                deriv = self._branch(seq, set(), 0, 0)
            except _OpenFound as e:
                return NotProved(e.seq)
            except _Exhausted as e:
                if e.limit == "structural rounds" and cap != top:
                    continue
                return ResourceExhausted(e.limit)
            deriv = Derivation(seq, deriv.instance, deriv.premises)
            check(deriv, self.cfg)
            return Valid(deriv)

    # -- main loop ------------------------------------------------------------

    def _tick(self, apps: int, seq: Optional[Sequent] = None) -> int:
        apps += 1
        if apps > self.limits.max_rule_apps:
            raise _Exhausted("rule applications")
        if seq is not None and len(seq.rel) > self.limits.max_rel_atoms:
            raise _Exhausted("relational atoms")
        if self.live_atoms > self.limits.max_live_atoms:
            raise _Exhausted("memory")
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise _Exhausted("wall clock")
        return apps

    def _push(self, trail, seq: Sequent, inst: RuleInstance) -> None:
        trail.append((seq, inst))
        self.live_atoms += len(seq.rel)

    def _branch(self, seq: Sequent, memo: Set[tuple], apps: int,
                rounds: int) -> Derivation:
        trail: List[Tuple[Sequent, RuleInstance]] = []
        try:
            return self._branch_loop(seq, memo, apps, rounds, trail)
        finally:
            self.live_atoms -= sum(len(s.rel) for (s, _) in trail)

    def _branch_loop(self, seq, memo, apps, rounds, trail):
        def apply_unary(inst):
            nonlocal seq, apps
            apps = self._tick(apps, seq)
            self._push(trail, seq, inst)
            (seq,) = expand(seq, inst, self.cfg)

        while True:
            inst = closures(seq, self.cfg)
            if inst is not None:
                return self._fold(trail, Derivation(None, inst, ()))

            got = self._norm_step(seq, memo)
            if got is None:
                inst = self._invertible_unary(seq)
                if inst is not None:
                    got = (inst, memo)
            if got is not None:
                inst, memo = got
                apply_unary(inst)
                continue

            inst = self._invertible_branching(seq)
            if inst is None:
                ob = self._obligation(seq, memo, min_score=1)
                if ob is None:
                    if rounds < self.round_cap:
                        seq2, added, apps = self._structural_round(seq, trail, apps)
                        if added:
                            seq = seq2
                            rounds += 1
                            continue
                        ob = self._obligation(seq, memo, min_score=0)
                        if ob is None:
                            raise _OpenFound(seq)
                    else:
                        ob = self._obligation(seq, memo, min_score=0)
                        if ob is None:
                            raise _Exhausted("structural rounds")
                keys, inst = ob
                memo = memo.union(keys)
                if len(expand(seq, inst, self.cfg)) == 1:
                    apply_unary(inst)
                    continue
            apps = self._tick(apps, seq)
            return self._split(seq, inst, trail, memo, apps, rounds)

    def _fold(self, trail, deriv: Derivation) -> Derivation:
        for _, inst in reversed(trail):
            deriv = Derivation(None, inst, (deriv,))
        return deriv

    def _split(self, seq, inst, trail, memo, apps, rounds):
        # a loop, not a comprehension: a comprehension's frame would make
        # every branching level one frame deeper
        subderivs = []
        for p in expand(seq, inst, self.cfg):
            subderivs.append(self._branch(p, memo, apps, rounds))
        return self._fold(trail, Derivation(None, inst, tuple(subderivs)))

    # -- phase 2: substitutional rules and commutativity ----------------------

    def _norm_step(self, seq: Sequent, memo: Set[tuple]):
        red = find_redex(seq, self.cfg)
        if red is not None:
            frm, to = red.subst
            return from_applied(red), _rewrite_memo_label(memo, frm, to)
        hr = find_heap_redex(seq, self.cfg)
        if hr is not None:
            return hr, self._memo_after_heap(hr, memo)
        for a in seq.rel:
            if (a[1], a[0], a[2]) not in seq.rel_set:
                return RuleInstance(Rule.E, principal_rels=(a,)), memo
        return None

    def _memo_after_heap(self, inst, memo):
        if inst.rule is Rule.MAPSTO_L3:
            h, h2 = inst.principal_gamma[0][0], inst.principal_gamma[1][0]
            return _rewrite_memo_label(memo, max(h, h2), min(h, h2))
        if inst.rule is Rule.MAPSTO_L4:
            (_, f), (_, f2) = inst.principal_gamma
            memo = _rewrite_memo_expr(memo, f2.args[0], f.args[0])
            return _rewrite_memo_expr(memo, f2.args[1], f.args[1])
        # =L
        (_, f) = inst.principal_gamma[0]
        return _rewrite_memo_expr(memo, f.args[0], f.args[1])

    # -- phase 3: invertible logical rules ------------------------------------

    _UNARY_LEFT = {"and": Rule.AND_L, "not": Rule.NOT_L, "emp": Rule.EMP_L,
                   "star": Rule.STAR_L, "exists": Rule.EXISTS_L}
    _UNARY_RIGHT = {"or": Rule.OR_R, "imp": Rule.IMP_R, "not": Rule.NOT_R,
                    "wand": Rule.WAND_R}

    def _invertible_unary(self, seq: Sequent) -> Optional[RuleInstance]:
        for lf in seq.gamma:
            r = self._UNARY_LEFT.get(lf[1].kind)
            if r is None:
                continue
            if r is Rule.EXISTS_L:
                if not self.cfg.heap_extension:
                    continue
                return RuleInstance(r, principal_gamma=(lf,),
                                    exprs=(fresh_expr_name(seq),))
            if r is Rule.STAR_L:
                w = seq.fresh_label()
                return RuleInstance(r, principal_gamma=(lf,), fresh=(w, w + 1))
            return RuleInstance(r, principal_gamma=(lf,))
        for lf in seq.delta:
            r = self._UNARY_RIGHT.get(lf[1].kind)
            if r is None:
                continue
            if r is Rule.WAND_R:
                w = seq.fresh_label()
                return RuleInstance(r, principal_delta=(lf,), fresh=(w, w + 1))
            return RuleInstance(r, principal_delta=(lf,))
        return None

    _BRANCH_LEFT = {"or": Rule.OR_L, "imp": Rule.IMP_L}

    def _invertible_branching(self, seq: Sequent) -> Optional[RuleInstance]:
        for lf in seq.gamma:
            r = self._BRANCH_LEFT.get(lf[1].kind)
            if r is not None:
                return RuleInstance(r, principal_gamma=(lf,))
        for lf in seq.delta:
            if lf[1].kind == "and":
                return RuleInstance(Rule.AND_R, principal_delta=(lf,))
        return None

    # -- phases 4 and 6: memoized obligations ---------------------------------

    def _pick_atom(self, seq, memo, tag, lf, fits, score, min_score):
        """Choose an untried atom for lf with enough subformula affinity."""
        atoms = list(seq.rel)
        atoms.reverse()    # recently created splittings first
        best = None
        best_score = min_score - 1
        for a in atoms:
            if not fits(a) or (tag, lf, a) in memo:
                continue
            s = score(a)
            if s > best_score:
                best, best_score = a, s
                if s >= 2:
                    break    # greedy: a fully matching atom needs no further scan
        return best

    def _obligation(self, seq: Sequent, memo: Set[tuple], min_score: int):
        find = eq_find(seq)
        for lf in seq.delta:
            w, f = lf
            if f.kind == "star":
                a = self._pick_atom(
                    seq, memo, "*R", lf,
                    lambda a: find(a[2]) == find(w),
                    lambda a: ((a[0], f.args[0]) in seq.gamma_set)
                    + ((a[1], f.args[1]) in seq.gamma_set),
                    min_score)
                if a is not None:
                    return (("*R", lf, a),), RuleInstance(Rule.STAR_R,
                                                          principal_delta=(lf,),
                                                          principal_rels=(a,))
            elif f.kind == "exists" and self.cfg.heap_extension and min_score > 0:
                got = self._witness(seq, lf, memo)
                if got is not None:
                    keys, t = got
                    return keys, RuleInstance(Rule.EXISTS_R,
                                              principal_delta=(lf,), exprs=(t,))
        for lf in seq.gamma:
            w, f = lf
            if f.kind == "wand":
                a = self._pick_atom(
                    seq, memo, "-*L", lf,
                    lambda a: find(a[1]) == find(w),
                    lambda a: ((a[0], f.args[0]) in seq.gamma_set)
                    + ((a[2], f.args[1]) in seq.delta_set),
                    min_score)
                if a is not None:
                    return (("-*L", lf, a),), RuleInstance(Rule.WAND_L,
                                                           principal_gamma=(lf,),
                                                           principal_rels=(a,))
            elif (f.kind == "mapsto" and self.cfg.heap_extension
                  and min_score > 0):
                for a in seq.rel:
                    if a[0] == EPS or a[1] == EPS or find(a[2]) != find(w):
                        continue
                    key = ("L2", lf, a)
                    if key not in memo:
                        return (key,), RuleInstance(Rule.MAPSTO_L2,
                                                    principal_gamma=(lf,),
                                                    principal_rels=(a,))
        if min_score == 0:
            if self.cfg.splittability:
                ob = self._split_obligation(seq, memo)
                if ob is not None:
                    return ob
            if self.cfg.cross_split:
                ob = self._cross_split_obligation(seq, memo, find)
                if ob is not None:
                    return ob
        return None

    def _witness(self, seq: Sequent, lf, memo: Set[tuple]):
        """Memo keys and an untried instance for the existential lf: each
        occurring expression once, then one fresh name once."""
        *occurring, fresh = witnesses(seq)
        for t in occurring:
            if ("exR", lf, t) not in memo:
                return (("exR", lf, t),), t
        if ("exR-fresh", lf) not in memo:
            return (("exR", lf, fresh), ("exR-fresh", lf)), fresh
        return None

    def _split_obligation(self, seq, memo):
        for q in seq.ineq:
            if q[1] != EPS or q[0] == EPS:
                continue
            key = ("S", q)
            if key not in memo:
                return (key,), RuleInstance(Rule.S, principal_ineqs=(q,),
                                            fresh=(seq.fresh_label(),
                                                   seq.fresh_label() + 1))
        # excluded middle on emptiness, for labels that emp talks about
        targets = set(w for (w, _) in seq.ineq if w != EPS)
        for (w, f) in seq.gamma + seq.delta:
            if w != EPS and any(g is EMP for g in subformulae(f)):
                targets.add(w)
        for w in sorted(targets):
            key = ("EM", w)
            if key not in memo:
                return (key,), RuleInstance(Rule.EM, labels=(w,))
        return None

    def _cross_split_obligation(self, seq, memo, find):
        rel = list(seq.rel)
        for i, a1 in enumerate(rel):
            if a1[0] == EPS or a1[1] == EPS:
                continue
            key = ("CSC", a1)
            if key not in memo:
                f = seq.fresh_label()
                return (key,), RuleInstance(Rule.CS_C, principal_rels=(a1,),
                                            fresh=(f, f + 1, f + 2, f + 3))
            for a2 in rel[i + 1:]:
                if a2[0] == EPS or a2[1] == EPS:
                    continue
                if find(a1[2]) != find(a2[2]):
                    continue
                key = ("CS", a1, a2)
                if key not in memo:
                    f = seq.fresh_label()
                    return (key,), RuleInstance(Rule.CS, principal_rels=(a1, a2),
                                                fresh=(f, f + 1, f + 2, f + 3))
        return None

    # -- phase 5: structural rounds -------------------------------------------

    def _structural_round(self, seq: Sequent, trail, apps: int):
        added = 0

        def apply(inst):
            nonlocal seq, added, apps
            apps = self._tick(apps, seq)
            self._push(trail, seq, inst)
            (seq,) = expand(seq, inst, self.cfg)
            added += 1

        # associativity, skipping instances whose conclusion already holds
        rel = list(seq.rel)
        by_target: Dict[int, List[tuple]] = {}
        for a in rel:
            by_target.setdefault(a[2], []).append(a)
        for a1 in rel:
            x, y, z = a1
            for a2 in by_target.get(x, ()):
                if a1 == a2 and self.cfg.cancellativity:
                    continue   # the self-pair is admissible with cancellativity
                u, v, _ = a2
                if self._assoc_redundant(seq, u, v, y, z):
                    continue
                apply(RuleInstance(Rule.A, principal_rels=(a1, a2),
                                   fresh=(seq.fresh_label(),)))

        # unit atoms for every known label
        for w in sorted(seq.labels):
            if (w, EPS, w) not in seq.rel_set:
                apply(RuleInstance(Rule.U, labels=(w,)))

        # close the new atoms under commutativity right away
        for a in list(seq.rel):
            if (a[1], a[0], a[2]) not in seq.rel_set:
                apply(RuleInstance(Rule.E, principal_rels=(a,)))

        return seq, added, apps

    def _assoc_redundant(self, seq: Sequent, u, v, y, z) -> bool:
        # does some w already witness (u,w |> z) and (y,v |> w)?
        rs = seq.rel_set
        for (p, w, q) in seq.rel:
            if p == u and q == z:
                if (y, v, w) in rs or (v, y, w) in rs:
                    return True
        return False


def prove(goal: Formula, cfg: LogicConfig, limits: SearchLimits = SearchLimits()):
    """Decide goal under cfg.  Returns Valid, NotProved or ResourceExhausted."""
    return Prover(cfg, limits).prove(goal)
