"""Proof search.

The strategy works in phases on each branch:

1. close the branch with a zero-premise rule if possible;
2. eliminate label and heap-expression redexes (substitutional rules)
   one at a time, then close the relation under commutativity, every
   missing twin at once;
3. apply invertible logical rules, unary ones first;
4. discharge star-right / wand-left obligations against relational
   atoms whose component labels already carry the matching subformulas,
   each (formula, atom) pair at most once on a branch: one memo per
   search records them, and an undo trail restores it for each premise;
5. when nothing else applies, run one structural round (associativity
   with a redundancy filter, unit atoms) and go back to 1;
6. once structural rounds stop producing atoms, fall back to the
   remaining splittings with no subformula affinity; a branch with
   nothing left at all is saturated.

The splittings of step 6 for splittability (S) and cross-split (CS, CSC)
make fresh labels that the same rules split again without end.  They are
blocked on a label that carries no formula an older label lacks (see
_blockers).  A branch ends open, and the goal NotProved, when nothing is
left to apply but blocked instances.  The finite model read off that
branch, each blocked label merged into its blocker, is then built by
countermodel.branch_countermodel and checked by the oracle.  Merging
labels makes labels that partial determinism, cancellativity,
indivisible unit or disjointness force to be one, so the builder first
normalizes the merged branch with the search's own label substitutions
(unify.find_redex).  Merging also leaves compositions that the branch
never rebracketed, and in +s a label never split leaves a world without
a split, so the builder then adds the atoms a frame needs: a split for
each such world and a rebracketing witness for each such composition.
The completed model must be a frame of the logic in which the goal
fails at some world; soundness rests on the oracle's check alone.  A
blocked branch without such a model is not an answer: its labels are
unblocked and the search goes on, so blocking can delay a proof but
never lose one.  A branch that a structural-round cap stopped, in any
logic, gets one such attempt before the next cap re-runs the search
from the root: its model merges each label into the oldest label that
carries all of its formulas, and the goal ends NotProved if the oracle
certifies that model, while without one the cap is exhausted as
before.  When a limit stops the search (the relational atoms, the rule
applications, or the structural rounds at the last cap, but not the
wall clock), the branch it fired on gets one more attempt,
countermodel.limit_countermodel: the goal ends NotProved with its model
if the oracle certifies one, and ResourceExhausted with the limit
otherwise.  A saturated open branch ends NotProved in any case, since the
strategy has no choicepoints and so no other proof attempt; its model
is attached only if the oracle accepts it, and a NotProved without one
is a search that found no proof, not a checked refutation.  Every
premise of a branching rule is searched on its own, depth first on an
explicit stack of pending premises, so branch depth is bounded by
memory and the limits, not by Python's recursion limit.  Short of a
wall-clock limit, the search is deterministic: the same goal, logic and
limits always give the same result.

The proof of a Valid is the subset of the search's steps that its
closing rules need (relevance, a form of the dependency-directed
backjumping of Horrocks and Patel-Schneider, 1999).  Each step on the
current branch keeps a record of what it changed, which Sequent.change
records as the premise is built: the items it added, or, for a
substitution of labels or expressions, the preimage of each item it
renamed.  |->L4 and each premise of |->L2 rename twice, and record the
two renamings composed.  E, A and U, most of the steps of a long branch,
store no change: the search applies them only where what they add is
new, so calculus.structural_atoms gives it from the rule instance.  When
a leaf closes, its needs flow back towards the root: the principal items
of its rule, and the (e, x |> y) atoms when that rule takes labels that
differ as equal.  A step that added something needed is kept, and the
needs lose what it added and gain its principal items (for U and EM,
also an item that holds their label, unless a need already does); a
step that added nothing needed is dropped.  A substitution (Eq1, Eq2, P,
C, IU, D, |->L3, |->L4, =L) that renamed a needed item is kept, and maps
each renamed need to its preimage and adds its principal items; one that
renamed nothing needed is dropped like a step that added nothing needed.
At a branching step, a premise whose needs hold nothing that premise
added or renamed closes the step alone: its subproof also proves the
step's conclusion, so the step and its earlier premises' subproofs are
dropped, and its later premises are never searched.  Otherwise the
premise's needs join the step's.  This is sound because no rule needs an
item to be absent, because a dropped substitution renamed no item that a
later step needs, so each kept step finds its items in the proof's
sequent as the search found them, and because every fresh label and
name is fresh for the proof's sequent too.  That sequent holds only
labels and names that the search's branch has held, perhaps one that a
dropped substitution removed from the search's sequent, and
Sequent.fresh_label and Sequent.fresh_expr, where existsL takes its name
from, return a label above every label, and a name v<i> above every such
name, that the branch has ever held.  calculus.check re-runs every proof
in any case.  The records of a subtree are freed as its needs flow back,
so the search keeps records for the current branch only.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import chain
from operator import is_
from typing import Dict, List, Optional, Set, Tuple

from .calculus import (Derivation, Rule, RuleInstance, check, closures,
                       expand, renamings, structural_atoms)
from .config import ConfigError, LogicConfig
from .formula import EMP, Formula, has_heap, subformulae, subst_expr
from .heap import find_heap_redex, witnesses
from .countermodel import branch_countermodel, carried, limit_countermodel
from .oracle import FrameModel
from .sequent import EPS, Sequent, initial_sequent
from .unify import find_redex


# The structural-round caps, deepened gradually: saturating the composition
# relation is explosive, and most proofs close after a couple of rounds.  A
# branch that saturates without pending work is open whatever the cap, so
# the caps never change a NotProved.
_ROUND_CAPS = (1, 2, 3, 4, 6, 8, 12)


@dataclass(frozen=True, slots=True)
class SearchLimits:
    max_rule_apps: int = 200000        # over the whole search, every round cap
    max_rel_atoms: int = 5000          # per-sequent composition atom budget
    wall_clock_ms: Optional[int] = None


@dataclass(frozen=True, slots=True)
class Valid:
    proof: Derivation


@dataclass(frozen=True, slots=True)
class NotProved:
    open_branch: Sequent
    # a finite model of the logic and a world where it falsifies the goal,
    # read off open_branch and checked by the oracle; None if none passed
    countermodel: Optional[Tuple[FrameModel, int]] = None


@dataclass(frozen=True, slots=True)
class ResourceExhausted:
    # the limit that fired, on a branch whose models the oracle rejected
    # (none is read when the wall clock fires)
    limit: str


class _Exhausted(Exception):
    """A search limit fired on the branch seq; seq is None for the wall
    clock, whose branch no model is read off."""
    def __init__(self, limit: str, seq: Optional[Sequent] = None):
        self.limit = limit
        self.seq = seq


def _renamed(x, frm, to):
    """x with the label or expression frm renamed to to, in tuples and
    formulae too; x itself where that changes nothing."""
    if isinstance(x, tuple):
        out = [_renamed(e, frm, to) for e in x]
        return x if all(map(is_, out, x)) else tuple(out)
    if type(x) is type(frm):
        return to if x == frm else x
    return subst_expr(x, frm, to) if isinstance(x, Formula) and isinstance(frm, str) else x


# A memo key is tagged with the Rule it stands for, or with one of these
# markers: neither a tag nor a marker is a label or an expression name, so
# no renaming touches it.
_FRESH = object()       # existsR has tried a fresh witness for the formula
_UNBLOCK = object()     # the branch has unblocked the label


class _Memo(set):
    """The obligation keys fired on the current branch, and an undo trail:
    a change toggles a set of keys and pushes it; undo(mark) pops to mark."""
    __slots__ = ("trail",)

    def __init__(self):
        super().__init__()
        self.trail: List[Set[tuple]] = []

    def toggle(self, keys: Set[tuple]) -> None:
        if keys:
            self.symmetric_difference_update(keys)
            self.trail.append(keys)

    def rename(self, frm, to) -> None:
        """Rename frm to to in every key; keys that meet become one."""
        moved = {k: n for k in self if (n := _renamed(k, frm, to)) is not k}
        images = set(moved.values())
        self.toggle((images - self).union(k for k in moved if k not in images))

    def blocked(self, blockers: Dict[int, int]) -> Set[int]:
        """The labels of blockers that this branch has not unblocked."""
        return {w for w in blockers if (_UNBLOCK, w) not in self}

    def undo(self, mark: int) -> None:
        while len(self.trail) > mark:
            self.symmetric_difference_update(self.trail.pop())


class Prover:
    # perfbench/probes.py reads this after each traced prove; the search
    # never replays a subtree, so it stays 0
    replays = 0

    def __init__(self, cfg: LogicConfig, limits: SearchLimits = SearchLimits()):
        self.cfg = cfg
        self.limits = limits
        self.deadline = None
        self.apps = 0
        self.goal = None

    # -- public entry points --------------------------------------------------

    def prove(self, goal: Formula):
        if has_heap(goal) and not self.cfg.heap_extension:
            raise ConfigError("formula uses heap atoms; pick a heap-enabled logic")
        if self.limits.wall_clock_ms is not None:
            self.deadline = time.monotonic() + self.limits.wall_clock_ms / 1000.0
        self.apps = 0
        self.goal = goal
        seq = initial_sequent(goal)
        for cap in _ROUND_CAPS:
            self.round_cap = cap
            try:
                verdict = self._search(seq)
            except _Exhausted as e:
                if e.limit == "structural rounds" and cap != _ROUND_CAPS[-1]:
                    continue
                if e.seq is not None:
                    model = limit_countermodel(e.seq, goal, self.cfg)
                    if model is not None:
                        return NotProved(e.seq, model)
                return ResourceExhausted(e.limit)
            if isinstance(verdict, Valid):
                check(verdict.proof, self.cfg)
            return verdict

    # -- main loop ------------------------------------------------------------

    def _tick(self, seq: Sequent) -> None:
        self.apps += 1
        if self.apps > self.limits.max_rule_apps:
            raise _Exhausted("rule applications", seq)
        if len(seq.rel) > self.limits.max_rel_atoms:
            raise _Exhausted("relational atoms", seq)
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise _Exhausted("wall clock")

    def _search(self, root: Sequent):
        """Valid or NotProved for root; raises _Exhausted when a limit fires.

        Each pending premise waits on the stack with its round count and
        memo's trail length, and popping it undoes memo to that length; the
        first premise is popped first, so steps lists the rule instances in
        depth-first order.  branches holds the open branching steps of the
        current branch, innermost last, and seg the records of the
        single-premise steps applied since the innermost one (see _close)."""
        steps: List[RuleInstance] = []
        memo = _Memo()
        stack = [(root, 0, 0)]
        branches: List[_Branch] = []
        seg = _Segment(0)
        while stack:
            seq, mark, rounds = stack.pop()
            memo.undo(mark)
            if branches:
                seg = branches[-1].next_premise(len(steps))
            while True:
                inst = closures(seq, self.cfg)
                if inst is not None:
                    steps.append(inst)
                    self._close(steps, stack, branches, seg,
                                _leaf_needs(seq, inst))
                    break

                insts = self._norm_step(seq)
                if insts is None and (inst := self._invertible_unary(seq)):
                    insts = (inst,)
                if insts is not None:
                    for inst in insts:
                        self._tick(seq)
                        (premise,) = expand(seq, inst, self.cfg)
                        seq = self._linear(seq, inst, premise, steps, seg)
                        for frm, to in renamings(inst):
                            memo.rename(frm, to)
                    continue

                inst = self._invertible_branching(seq)
                if inst is not None:
                    self._tick(seq)
                    premises = expand(seq, inst, self.cfg)
                else:
                    ob = self._obligation(seq, memo, min_score=1)
                    if ob is None:
                        if rounds < self.round_cap:
                            seq, added = self._structural_round(seq, steps, seg)
                            if added:
                                rounds += 1
                                continue
                        ob = self._obligation(seq, memo, min_score=0)
                        if ob is None:
                            verdict = self._open_branch(seq, memo, rounds)
                            if verdict is not None:
                                return verdict
                            continue
                    keys, inst = ob
                    memo.toggle(set(keys) - memo)
                    # its premise count decides whether it extends this
                    # branch or splits it
                    premises = expand(seq, inst, self.cfg)
                    self._tick(seq)
                    if len(premises) == 1:
                        seq = self._linear(seq, inst, premises[0], steps, seg)
                        continue
                steps.append(inst)
                branches.append(_Branch(seg, len(steps) - 1,
                                        [p.change for p in premises],
                                        _label_witness(seq, inst)))
                stack.extend((p, len(memo.trail), rounds) for p in reversed(premises))
                break
        return Valid(Derivation(root, tuple(steps)))

    # -- relevance --------------------------------------------------------------

    def _linear(self, seq, inst, premise, steps, seg) -> Sequent:
        """Record the single-premise step inst from seq to premise: its
        change, or for U, whose change _Segment derives as for E and A,
        its label witness."""
        steps.append(inst)
        if inst.rule not in _DERIVED:
            seg.records.append(premise.change)
        elif inst.rule is Rule.U:
            seg.records.append(_label_witness(seq, inst))
        return premise

    def _close(self, steps, stack, branches, seg, needs: Set[tuple]) -> None:
        """Flow the needs of a leaf that just closed back towards the root.

        seg's steps lose every step that adds nothing needed.  Its needs
        then belong to the premise of the innermost branching step: if
        they hold nothing that premise added, its subproof proves the
        step's conclusion, so the step and its earlier premises' subproofs
        are dropped and its later premises are popped unsearched;
        otherwise they join the step's needs, and when it has no premise
        left the step is kept and the flow goes on through the segment
        before it."""
        end = len(steps) - 1        # the leaf
        while True:
            seg.trim(steps, needs, end)
            if not branches:
                return
            b = branches[-1]
            later = len(b.changes) - b.premise - 1
            if _pull(needs, b.changes[b.premise]):
                b.needs |= needs
                if later:
                    return
                needs = b.needs
                _add_uses(needs, steps[b.at], b.witness)
            else:
                del steps[b.at:b.start]
                del stack[len(stack) - later:]
            branches.pop()
            seg, end = b.seg, b.at

    # -- phase 2: substitutional rules and commutativity ----------------------

    def _norm_step(self, seq: Sequent):
        """The next normalization steps, to be applied in order; None when
        seq is normal.  That is one label or heap redex, or once none is
        left, E on every atom whose twin seq lacks, in relation order.  E
        adds only that twin, which is not in seq, so no step of the batch
        is redundant or makes another's principal atom."""
        red = find_redex(seq, self.cfg) or find_heap_redex(seq, self.cfg)
        if red is not None:
            return (red,)
        rel = seq.rel
        comm = tuple(RuleInstance(Rule.E, principal_rels=(a,))
                     for a in rel if (a[1], a[0], a[2]) not in rel)
        return comm or None

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
                                    exprs=(seq.fresh_expr(),))
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

    def _pick_atom(self, memo, rule, lf, atoms, score, min_score):
        """The untried atom of atoms for lf with the highest subformula
        affinity, at least min_score; the most recent among equals."""
        best = None
        best_score = min_score - 1
        for a in reversed(atoms):    # recently created splittings first
            if (rule, lf, a) in memo:
                continue
            s = score(a)
            if s > best_score:
                best, best_score = a, s
        return best

    def _obligation(self, seq: Sequent, memo: _Memo, min_score: int):
        # Obligations are sought only once _norm_step finds no redex, so every
        # (e,x |> y) atom has x == y: no identity atom equates two distinct
        # labels, and atoms are matched against labels by plain comparison.
        for lf in seq.delta:
            w, f = lf
            if f.kind == "star":
                a = self._pick_atom(
                    memo, Rule.STAR_R, lf, [a for a in seq.rel if a[2] == w],
                    lambda a: ((a[0], f.args[0]) in seq.gamma)
                    + ((a[1], f.args[1]) in seq.gamma),
                    min_score)
                if a is not None:
                    return ((Rule.STAR_R, lf, a),), RuleInstance(
                        Rule.STAR_R, principal_delta=(lf,), principal_rels=(a,))
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
                    memo, Rule.WAND_L, lf, [a for a in seq.rel if a[1] == w],
                    lambda a: ((a[0], f.args[0]) in seq.gamma)
                    + ((a[2], f.args[1]) in seq.delta),
                    min_score)
                if a is not None:
                    return ((Rule.WAND_L, lf, a),), RuleInstance(
                        Rule.WAND_L, principal_gamma=(lf,), principal_rels=(a,))
            elif (f.kind == "mapsto" and self.cfg.heap_extension
                  and min_score > 0):
                for a in seq.rel:
                    if a[0] == EPS or a[1] == EPS or a[2] != w:
                        continue
                    key = (Rule.MAPSTO_L2, lf, a)
                    if key not in memo:
                        return (key,), RuleInstance(Rule.MAPSTO_L2,
                                                    principal_gamma=(lf,),
                                                    principal_rels=(a,))
        if min_score == 0:
            return self._fresh_label_obligation(
                seq, memo, memo.blocked(self._blockers(seq)))
        return None

    def _fresh_label_obligation(self, seq, memo, blocked):
        """An untried EM instance, or S, CS or CSC instance whose principal
        labels are not in blocked."""
        if self.cfg.splittability:
            ob = self._split_obligation(seq, memo, blocked)
            if ob is not None:
                return ob
        if self.cfg.cross_split:
            return self._cross_split_obligation(seq, memo, blocked)
        return None

    def _witness(self, seq: Sequent, lf, memo: Set[tuple]):
        """Memo keys and an untried instance for the existential lf: each
        occurring expression once, then one fresh name once."""
        *occurring, fresh = witnesses(seq)
        for t in occurring:
            if (Rule.EXISTS_R, lf, t) not in memo:
                return ((Rule.EXISTS_R, lf, t),), t
        if (_FRESH, lf) not in memo:
            return ((Rule.EXISTS_R, lf, fresh), (_FRESH, lf)), fresh
        return None

    def _split_obligation(self, seq, memo, blocked):
        for q in seq.ineq:
            if q[1] != EPS or q[0] == EPS or q[0] in blocked:
                continue
            key = (Rule.S, q)
            if key not in memo:
                f = seq.fresh_label()
                return (key,), RuleInstance(Rule.S, principal_ineqs=(q,),
                                            fresh=(f, f + 1))
        # excluded middle on emptiness, for labels that emp talks about and
        # that are not known to be non-empty yet
        targets = set()
        for (w, f) in chain(seq.gamma, seq.delta):
            if (w != EPS and (w, EPS) not in seq.ineq
                    and any(g is EMP for g in subformulae(f))):
                targets.add(w)
        for w in sorted(targets):
            key = (Rule.EM, w)
            if key not in memo:
                return (key,), RuleInstance(Rule.EM, labels=(w,))
        return None

    def _cross_split_obligation(self, seq, memo, blocked):
        rel = [a for a in seq.rel
               if a[0] != EPS and a[1] != EPS and blocked.isdisjoint(a)]
        for i, a1 in enumerate(rel):
            key = (Rule.CS_C, a1)
            if key not in memo:
                f = seq.fresh_label()
                return (key,), RuleInstance(Rule.CS_C, principal_rels=(a1,),
                                            fresh=(f, f + 1, f + 2, f + 3))
            for a2 in rel[i + 1:]:
                if a1[2] != a2[2]:
                    continue
                key = (Rule.CS, a1, a2)
                if key not in memo:
                    f = seq.fresh_label()
                    return (key,), RuleInstance(Rule.CS, principal_rels=(a1, a2),
                                                fresh=(f, f + 1, f + 2, f + 3))
        return None

    # -- blocking and the model of an open branch -----------------------------

    def _blockers(self, seq: Sequent, cap_end: bool = False) -> Dict[int, int]:
        """Each blocked label of seq, mapped to its smallest blocker.

        A label w other than e is blocked by an older label b, b < w and
        b other than e, that carries every antecedent and succedent formula
        w carries; with splittability, b != e must also be on the branch.
        Only S, CS and CSC make labels without end, so other logics block
        nothing.  With cap_end, the merge of a branch that a structural-
        round cap stopped, every logic merges this way and b need not be
        != e on the branch."""
        if not (cap_end or self.cfg.splittability or self.cfg.cross_split):
            return {}
        have = carried(seq)
        if self.cfg.splittability and not cap_end:
            olders = [x for (x, y) in seq.ineq if y == EPS and x != EPS]
        else:
            olders = [w for w in seq.labels if w != EPS]
        # a label that carries nothing is blocked by the oldest candidate,
        # one that carries formulas only by a candidate that carries more
        oldest = min(olders, default=None)
        carrying = sorted(b for b in olders if b in have)
        out = {}
        for w in seq.labels:
            if w == EPS:
                continue
            if w not in have:
                if oldest is not None and oldest < w:
                    out[w] = oldest
                continue
            g, d = have[w]
            for b in carrying:
                if b >= w:
                    break
                if g <= have[b][0] and d <= have[b][1]:
                    out[w] = b
                    break
        return out

    def _open_branch(self, seq: Sequent, memo: _Memo, rounds: int):
        """The NotProved that seq ends with, when nothing is left to apply
        to it but blocked instances; or None, with every blocked label
        unblocked in memo, when blocking stopped it and its model is not
        certified.  When the round cap left seq unsaturated, the NotProved
        of a certified model of the coarser cap-end merge, else raises
        _Exhausted.

        The model merges every blocked label into its blocker, unblocked
        ones too, so it has a world per kind of label, not per label."""
        merge = self._blockers(seq)
        blocked = memo.blocked(merge)
        if (blocked and self._fresh_label_obligation(seq, memo, frozenset())
                is not None):
            model = branch_countermodel(seq, merge, self.goal, self.cfg)
            if model is not None:
                return NotProved(seq, model)
            memo.toggle({(_UNBLOCK, w) for w in blocked})
            return None
        if rounds < self.round_cap:
            model = branch_countermodel(seq, merge, self.goal, self.cfg)
            return NotProved(seq, model)
        model = branch_countermodel(seq, self._blockers(seq, cap_end=True),
                                    self.goal, self.cfg)
        if model is not None:
            return NotProved(seq, model)
        raise _Exhausted("structural rounds", seq)

    # -- phase 5: structural rounds -------------------------------------------

    def _structural_round(self, seq: Sequent, steps: List[RuleInstance],
                          seg: "_Segment"):
        added = 0

        def apply(inst):
            nonlocal seq, added
            self._tick(seq)
            (premise,) = expand(seq, inst, self.cfg)
            seq = self._linear(seq, inst, premise, steps, seg)
            added += 1

        # associativity, skipping instances whose conclusion already holds
        rel = list(seq.rel)
        by_target: Dict[int, List[tuple]] = {}
        for a in rel:
            by_target.setdefault(a[2], []).append(a)
        for a1 in rel:
            x, y, z = a1
            for a2 in by_target.get(x, ()):
                u, v, _ = a2
                if self._assoc_redundant(seq, u, v, y, z):
                    continue
                apply(RuleInstance(Rule.A, principal_rels=(a1, a2),
                                   fresh=(seq.fresh_label(),)))

        # unit atoms for every known label
        for w in sorted(seq.labels):
            if (w, EPS, w) not in seq.rel:
                apply(RuleInstance(Rule.U, labels=(w,)))

        return seq, added

    def _assoc_redundant(self, seq: Sequent, u, v, y, z) -> bool:
        # does some w already witness (u,w |> z) and (y,v |> w)?
        for (p, w, q) in seq.rel:
            if p == u and q == z:
                if (y, v, w) in seq.rel or (v, y, w) in seq.rel:
                    return True
        return False


# -- relevance records ---------------------------------------------------------

# the search applies E, A and U only where what they add is new, so
# structural_atoms gives their change exactly
_DERIVED = frozenset((Rule.E, Rule.A, Rule.U))


def _principal(inst: RuleInstance) -> List[tuple]:
    """inst's principal items, formulae tagged with their sides."""
    return ([("gamma", lf) for lf in inst.principal_gamma]
            + [("delta", lf) for lf in inst.principal_delta]
            + list(inst.principal_rels) + list(inst.principal_ineqs))


def _add_uses(needs: Set[tuple], inst: RuleInstance, witness) -> None:
    """Add what inst uses of its conclusion to needs: its principal items
    and its label witness, unless an item of needs already holds that
    label."""
    needs.update(_principal(inst))
    if witness is not None:
        (w,) = inst.labels
        if not any(x[1][0] == w if isinstance(x[0], str) else w in x
                   for x in needs):
            needs.add(witness)


def _label_witness(seq: Sequent, inst: RuleInstance):
    """U and EM need their label to occur in seq: one item of seq that
    holds it, or None when it is e, which always occurs, and for every
    other rule, which needs only its principal items."""
    if not inst.labels or inst.labels[0] == EPS:
        return None
    (w,) = inst.labels
    for lf in seq.gamma:
        if lf[0] == w:
            return ("gamma", lf)
    for lf in seq.delta:
        if lf[0] == w:
            return ("delta", lf)
    for q in seq.ineq:
        if w in q:
            return q
    for a in reversed(seq.rel):     # labels made by A are at the back
        if w in a:
            return a
    raise ValueError("label %d does not occur" % w)


def _leaf_needs(seq: Sequent, inst: RuleInstance) -> Set[tuple]:
    """What the zero-premise inst uses of seq: its principal items, and,
    when it equates labels that differ, the (e, x |> y) atoms that make
    closures treat them as equal."""
    needs = set(_principal(inst))
    labels = {w for (w, _) in chain(inst.principal_gamma, inst.principal_delta)}
    for q in inst.principal_ineqs:
        labels.update(q)
    if inst.rule in (Rule.EMP_R, Rule.MAPSTO_L1):
        labels.add(EPS)
    if len(labels) > 1:
        needs.update(a for a in seq.rel if a[0] == EPS and a[1] != a[2])
    return needs


def _pull(needs: Set[tuple], change) -> bool:
    """Pull needs back over a step whose premise differs from its
    conclusion by change, in place.  False, with needs untouched, when the
    step added or renamed nothing needed."""
    if isinstance(change, tuple):
        if needs.isdisjoint(change):
            return False
        needs.difference_update(change)
        return True
    small, large = (change, needs) if len(change) < len(needs) else (needs, change)
    moved = [x for x in small if x in large]
    if not moved:
        return False
    needs.difference_update(moved)
    needs.update(change[x] for x in moved)
    return True


class _Segment:
    """The single-premise steps of a branch since its last branching step,
    which start at steps[start], and their records in order: what each
    step changed (Sequent.change), except that E, A and U store no
    change, as calculus.structural_atoms gives it from the instance, and
    U stores its label witness instead.  A long branch
    is mostly such structural steps, so it holds little beyond its rule
    instances."""
    __slots__ = ("start", "records")

    def __init__(self, start: int):
        self.start = start
        self.records: list = []

    def trim(self, steps: List[RuleInstance], needs: Set[tuple], end: int) -> None:
        """Pull needs back over these steps, steps[start:end], dropping
        every step that adds nothing needed."""
        records = self.records
        kept = []
        for i in range(end - 1, self.start - 1, -1):
            inst, witness = steps[i], None
            if inst.rule in _DERIVED:
                change = structural_atoms(inst)
                if inst.rule is Rule.U:
                    witness = records.pop()
            else:
                change = records.pop()
            if _pull(needs, change):
                _add_uses(needs, inst, witness)
                kept.append(inst)
        if len(kept) < end - self.start:
            kept.reverse()
            steps[self.start:end] = kept


class _Branch:
    """A branching step on the current branch: steps[at], the segment that
    leads to it, what it changed in each premise, the label witness it
    needs, the premise being searched, whose subproof starts at
    steps[start], and the needs of its premises closed so far."""
    __slots__ = ("seg", "at", "changes", "witness", "premise", "start", "needs")

    def __init__(self, seg: _Segment, at: int, changes: list, witness):
        self.seg = seg
        self.at = at
        self.changes = changes
        self.witness = witness
        self.premise = -1
        self.start = at + 1
        self.needs: Set[tuple] = set()

    def next_premise(self, start: int) -> _Segment:
        self.premise += 1
        self.start = start
        return _Segment(start)


def prove(goal: Formula, cfg: LogicConfig, limits: SearchLimits = SearchLimits()):
    """Decide goal under cfg.  Returns Valid, NotProved or ResourceExhausted."""
    return Prover(cfg, limits).prove(goal)
