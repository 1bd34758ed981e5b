"""Inference rules and proof checking.

Every rule application is described by a RuleInstance naming the rule,
its principal parts, fresh labels and substitutions.  expand() is the
single implementation of what each rule does: the proof search calls it
to compute premises, and replay() calls it again to walk a finished
derivation, for check() to validate it and for the command line to
print it, so the search and the checker can never disagree.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Optional, Tuple

from . import unify
from .config import LogicConfig
from .formula import BOT, EMP, TOP, Formula, expr_names, subst_expr
from .sequent import (EPS, Ineq, Label, LabelledFormula, RelAtom, Sequent,
                      expr_index, label_name, occurring_exprs)


class Rule(Enum):
    # zero-premise rules
    ID = "id"
    BOT_L = "botL"
    TOP_R = "topR"
    EMP_R = "empR"
    NEQ_L = "neqL"
    MAPSTO_L1 = "|->L1"
    EQ_R = "=R"
    # single-premise logical rules
    AND_L = "andL"
    OR_R = "orR"
    IMP_R = "->R"
    NOT_L = "~L"
    NOT_R = "~R"
    EMP_L = "empL"
    STAR_L = "*L"
    WAND_R = "-*R"
    EXISTS_L = "existsL"
    EXISTS_R = "existsR"
    # branching rules
    AND_R = "andR"
    OR_L = "orL"
    IMP_L = "->L"
    STAR_R = "*R"
    WAND_L = "-*L"
    MAPSTO_L2 = "|->L2"
    EM = "EM"
    # label substitution rules
    EQ1 = "Eq1"
    EQ2 = "Eq2"
    P = "P"
    C = "C"
    IU = "IU"
    D = "D"
    MAPSTO_L3 = "|->L3"
    MAPSTO_L4 = "|->L4"
    EQ_L = "=L"
    # structural rules
    E = "E"
    A = "A"
    U = "U"
    S = "S"
    CS = "CS"
    CS_C = "CSC"


_SUBST_RULES = frozenset((Rule.EQ1, Rule.EQ2, Rule.P, Rule.C, Rule.IU, Rule.D))


def rule_enabled(rule: Rule, cfg: LogicConfig) -> bool:
    if rule is Rule.P:
        return cfg.partial_determinism
    if rule is Rule.C:
        return cfg.cancellativity
    if rule is Rule.IU:
        return cfg.indivisible_unit or cfg.disjointness
    if rule is Rule.D:
        return cfg.disjointness
    if rule in (Rule.S, Rule.NEQ_L, Rule.EM):
        return cfg.splittability
    if rule in (Rule.CS, Rule.CS_C):
        return cfg.cross_split
    if rule in (Rule.MAPSTO_L1, Rule.MAPSTO_L2, Rule.MAPSTO_L3,
                Rule.MAPSTO_L4, Rule.EQ_L, Rule.EQ_R,
                Rule.EXISTS_L, Rule.EXISTS_R):
        return cfg.heap_extension
    return True


@dataclass(frozen=True, slots=True)
class RuleInstance:
    rule: Rule
    principal_gamma: Tuple[LabelledFormula, ...] = ()
    principal_delta: Tuple[LabelledFormula, ...] = ()
    principal_rels: Tuple[RelAtom, ...] = ()
    principal_ineqs: Tuple[Ineq, ...] = ()
    fresh: Tuple[Label, ...] = ()
    subst: Tuple[Tuple[Label, Label], ...] = ()
    labels: Tuple[Label, ...] = ()
    exprs: Tuple[str, ...] = ()


@dataclass(frozen=True, slots=True)
class Derivation:
    """A proof: its conclusion and every rule instance of it in depth-first
    order, first premise first.  An instance fixes its premises, which
    expand recomputes from the sequent it applies to, so no sequent above
    the conclusion is stored: the next step applies to the first premise
    still open, and the proof is closed when every premise is."""
    conclusion: Sequent
    steps: Tuple[RuleInstance, ...]

    def rule_count(self) -> int:
        return len(self.steps)


class RuleError(ValueError):
    pass


def _need(cond: bool, msg: str) -> None:
    if not cond:
        raise RuleError(msg)


def _atomic(f: Formula) -> bool:
    return f.kind in ("var", "mapsto", "eq")


def _merge(seq: Sequent, a: Label, b: Label) -> Sequent:
    """Identify two labels, always keeping the smaller one."""
    return seq.subst_label(max(a, b), min(a, b))


def _naming(premise: Sequent, name: str) -> Sequent:
    """premise, just built by existsL or existsR, with its expr_top raised
    to cover the name that the rule brought in."""
    premise.expr_top = max(premise.expr_top, expr_index(name))
    return premise


def _composed(seq: Sequent, mid: Sequent, out: Sequent) -> Sequent:
    """out, built from mid by a renaming, built in turn from seq by one,
    with its change mapping each item that either renamed to its preimage
    in seq.  A renaming that renames nothing returns its operand, whose
    change is not its own: then the other renaming's change is the whole
    record.  An item of mid that out renamed is not in out, so its entry
    of mid's change matches no need of out's."""
    if mid is not seq and out is not mid:
        first = mid.change
        out.change = {**first, **{x: first.get(p, p) for x, p in out.change.items()}}
    return out


def expand(seq: Sequent, inst: RuleInstance, cfg: LogicConfig) -> Tuple[Sequent, ...]:
    """Premises of applying inst to seq; raises RuleError if not applicable."""
    r = inst.rule
    # the messages are built only on failure: formatting formulas costs
    # more than the membership tests themselves
    if not rule_enabled(r, cfg):
        raise RuleError("rule %s disabled in %s" % (r.value, cfg.name()))
    for lf in inst.principal_gamma:
        if lf not in seq.gamma:
            raise RuleError("missing antecedent %s: %s" % (label_name(lf[0]), lf[1]))
    for lf in inst.principal_delta:
        if lf not in seq.delta:
            raise RuleError("missing succedent %s: %s" % (label_name(lf[0]), lf[1]))
    for a in inst.principal_rels:
        if a not in seq.rel:
            raise RuleError("missing relational atom %r" % (a,))
    for q in inst.principal_ineqs:
        if q not in seq.ineq:
            raise RuleError("missing inequality %r" % (q,))
    for w in inst.fresh:
        if w in seq.labels:
            raise RuleError("label %s not fresh" % label_name(w))

    # zero-premise rules
    if r is Rule.ID:
        ((w, a),) = inst.principal_gamma
        ((w2, a2),) = inst.principal_delta
        _need(a is a2 and _atomic(a), "id needs the same atomic formula")
        _need(unify.entails_eq(seq, w, w2), "id labels not equal")
        return ()
    if r is Rule.BOT_L:
        ((_, f),) = inst.principal_gamma
        _need(f is BOT, "botL needs false on the left")
        return ()
    if r is Rule.TOP_R:
        ((_, f),) = inst.principal_delta
        _need(f is TOP, "topR needs true on the right")
        return ()
    if r is Rule.EMP_R:
        ((w, f),) = inst.principal_delta
        _need(f is EMP and unify.entails_eq(seq, w, EPS),
              "empR needs emp at the identity")
        return ()
    if r is Rule.NEQ_L:
        ((x, y),) = inst.principal_ineqs
        _need(unify.entails_eq(seq, x, y), "neqL labels not equal")
        return ()
    if r is Rule.MAPSTO_L1:
        ((w, f),) = inst.principal_gamma
        _need(f.kind == "mapsto" and unify.entails_eq(seq, w, EPS),
              "|->L1 needs a cell at the identity")
        return ()
    if r is Rule.EQ_R:
        ((_, f),) = inst.principal_delta
        _need(f.kind == "eq" and f.args[0] == f.args[1], "=R needs a trivial equality")
        return ()

    # single-premise logical rules
    if r is Rule.AND_L:
        ((w, f),) = inst.principal_gamma
        _need(f.kind == "and", "andL needs a conjunction")
        a, b = f.args
        return (seq.extend(gamma=[(w, a), (w, b)], drop_gamma=[(w, f)]),)
    if r is Rule.OR_R:
        ((w, f),) = inst.principal_delta
        _need(f.kind == "or", "orR needs a disjunction")
        a, b = f.args
        return (seq.extend(delta=[(w, a), (w, b)], drop_delta=[(w, f)]),)
    if r is Rule.IMP_R:
        ((w, f),) = inst.principal_delta
        _need(f.kind == "imp", "->R needs an implication")
        a, b = f.args
        return (seq.extend(gamma=[(w, a)], delta=[(w, b)], drop_delta=[(w, f)]),)
    if r is Rule.NOT_L:
        ((w, f),) = inst.principal_gamma
        _need(f.kind == "not", "~L needs a negation")
        return (seq.extend(delta=[(w, f.args[0])], drop_gamma=[(w, f)]),)
    if r is Rule.NOT_R:
        ((w, f),) = inst.principal_delta
        _need(f.kind == "not", "~R needs a negation")
        return (seq.extend(gamma=[(w, f.args[0])], drop_delta=[(w, f)]),)
    if r is Rule.EMP_L:
        ((w, f),) = inst.principal_gamma
        _need(f is EMP, "empL needs emp")
        return (seq.extend(rel=[(EPS, w, EPS)], drop_gamma=[(w, f)]),)
    if r is Rule.STAR_L:
        ((z, f),) = inst.principal_gamma
        _need(f.kind == "star", "*L needs a star")
        x, y = inst.fresh
        a, b = f.args
        return (seq.extend(rel=[(x, y, z)], gamma=[(x, a), (y, b)],
                           drop_gamma=[(z, f)]),)
    if r is Rule.WAND_R:
        ((z, f),) = inst.principal_delta
        _need(f.kind == "wand", "-*R needs a wand")
        x, y = inst.fresh
        a, b = f.args
        return (seq.extend(rel=[(x, z, y)], gamma=[(x, a)], delta=[(y, b)],
                           drop_delta=[(z, f)]),)
    if r is Rule.EXISTS_L:
        ((w, f),) = inst.principal_gamma
        _need(f.kind == "exists", "existsL needs a quantifier")
        (v,) = inst.exprs
        # a name bound in f would capture v in the body
        if v in occurring_exprs(seq) or v in expr_names(f):
            raise RuleError("witness %s not fresh" % v)
        body = subst_expr(f.args[1], f.args[0], v)
        return (_naming(seq.extend(gamma=[(w, body)], drop_gamma=[(w, f)]), v),)
    if r is Rule.EXISTS_R:
        ((w, f),) = inst.principal_delta
        _need(f.kind == "exists", "existsR needs a quantifier")
        (t,) = inst.exprs
        body = subst_expr(f.args[1], f.args[0], t)
        return (_naming(seq.requeue("delta", (w, f)).extend(delta=[(w, body)]), t),)

    # branching rules
    if r is Rule.AND_R:
        ((w, f),) = inst.principal_delta
        _need(f.kind == "and", "andR needs a conjunction")
        a, b = f.args
        return (seq.extend(delta=[(w, a)], drop_delta=[(w, f)]),
                seq.extend(delta=[(w, b)], drop_delta=[(w, f)]))
    if r is Rule.OR_L:
        ((w, f),) = inst.principal_gamma
        _need(f.kind == "or", "orL needs a disjunction")
        a, b = f.args
        return (seq.extend(gamma=[(w, a)], drop_gamma=[(w, f)]),
                seq.extend(gamma=[(w, b)], drop_gamma=[(w, f)]))
    if r is Rule.IMP_L:
        ((w, f),) = inst.principal_gamma
        _need(f.kind == "imp", "->L needs an implication")
        a, b = f.args
        return (seq.extend(delta=[(w, a)], drop_gamma=[(w, f)]),
                seq.extend(gamma=[(w, b)], drop_gamma=[(w, f)]))
    if r is Rule.STAR_R:
        ((z2, f),) = inst.principal_delta
        ((x, y, z),) = inst.principal_rels
        _need(f.kind == "star", "*R needs a star")
        _need(unify.entails_eq(seq, z, z2), "*R atom target mismatch")
        a, b = f.args
        base = seq.requeue("delta", (z2, f))
        return (base.extend(delta=[(x, a)]), base.extend(delta=[(y, b)]))
    if r is Rule.WAND_L:
        ((w2, f),) = inst.principal_gamma
        ((x, w, z),) = inst.principal_rels
        _need(f.kind == "wand", "-*L needs a wand")
        _need(unify.entails_eq(seq, w, w2), "-*L atom component mismatch")
        a, b = f.args
        base = seq.requeue("gamma", (w2, f))
        return (base.extend(delta=[(x, a)]), base.extend(gamma=[(z, b)]))
    if r is Rule.MAPSTO_L2:
        ((w, f),) = inst.principal_gamma
        ((h1, h2, h0),) = inst.principal_rels
        _need(f.kind == "mapsto", "|->L2 needs a cell")
        _need(unify.entails_eq(seq, w, h0), "|->L2 atom target mismatch")

        def sub_branch(empty: Label, keep: Label) -> Sequent:
            # the empty component collapses to the identity, the other is h0
            p = _merge(seq, empty, EPS)
            m = lambda l: EPS if l == empty else l
            return _composed(seq, p, _merge(p, m(keep), m(h0)))

        return (sub_branch(h1, h2), sub_branch(h2, h1))
    if r is Rule.EM:
        (w,) = inst.labels
        _need(w in seq.labels, "EM label must occur")
        return (seq.extend(ineq=[(w, EPS)]),
                seq.extend(rel=[(EPS, w, EPS)]))

    # label substitution rules
    if r in _SUBST_RULES:
        ((frm, to),) = renamings(inst)
        _need(frm != EPS, "cannot eliminate the identity label")
        if frm == to:
            raise RuleError("%s renames a label to itself" % r.value)
        if r in (Rule.EQ1, Rule.EQ2):
            ((x, y, z),) = inst.principal_rels
            _need(x == EPS and {frm, to} == {y, z}, "bad equality atom")
        elif r is Rule.P:
            a1, a2 = inst.principal_rels
            _need(a1[:2] == a2[:2] and {frm, to} == {a1[2], a2[2]},
                  "P needs two atoms with equal inputs")
        elif r is Rule.C:
            a1, a2 = inst.principal_rels
            _need((a1[0], a1[2]) == (a2[0], a2[2]) and {frm, to} == {a1[1], a2[1]},
                  "C needs two atoms with equal first input and output")
        elif r is Rule.IU:
            ((x, y, z),) = inst.principal_rels
            _need(z == EPS and frm == x and to == EPS, "IU needs an atom into the identity")
        else:  # D
            ((x, y, z),) = inst.principal_rels
            _need(x == y and frm == x and to == EPS, "D needs a self-combination atom")
        return (seq.subst_label(frm, to),)
    if r is Rule.MAPSTO_L3:
        (h, f), (h2, f2) = inst.principal_gamma
        _need(f.kind == "mapsto" and f2.kind == "mapsto", "|->L3 needs two cells")
        _need(f.args[0] == f2.args[0] and h != h2, "|->L3 needs one address, two labels")
        return (seq.subst_label(*renamings(inst)[0]),)
    if r is Rule.MAPSTO_L4:
        (h, f), (h2, f2) = inst.principal_gamma
        _need(f.kind == "mapsto" and f2.kind == "mapsto", "|->L4 needs two cells")
        _need(h == h2 and f is not f2, "|->L4 needs one label, two distinct cells")
        (e3, e1), (e4, e2) = renamings(inst)
        mid = seq.subst_expr(e3, e1)
        return (_composed(seq, mid, mid.subst_expr(e4, e2)),)
    if r is Rule.EQ_L:
        ((h, f),) = inst.principal_gamma
        _need(f.kind == "eq", "=L needs an equality")
        return (seq.extend(drop_gamma=[(h, f)]).subst_expr(*renamings(inst)[0]),)

    # structural rules
    if r is Rule.E:
        return (seq.extend(rel=structural_atoms(inst)),)
    if r is Rule.A:
        (x, _, _), (_, _, x2) = inst.principal_rels
        _need(x == x2, "A needs chained atoms")
        return (seq.extend(rel=structural_atoms(inst)),)
    if r is Rule.U:
        _need(inst.labels[0] in seq.labels, "U label must occur")
        return (seq.extend(rel=structural_atoms(inst)),)
    if r is Rule.S:
        ((z, z2),) = inst.principal_ineqs
        _need(z2 == EPS, "S needs an inequality with the identity")
        x, y = inst.fresh
        return (seq.extend(rel=[(x, y, z)], ineq=[(x, EPS), (y, EPS)]),)
    if r is Rule.CS:
        (x, y, z), (u, v, z2) = inst.principal_rels
        _need(unify.entails_eq(seq, z, z2), "CS needs two splittings of one world")
        p, q, s, t = inst.fresh
        return (seq.extend(rel=[(p, q, x), (p, s, u), (s, t, y), (q, t, v)]),)
    if r is Rule.CS_C:
        ((x, y, z),) = inst.principal_rels
        p, q, s, t = inst.fresh
        return (seq.extend(rel=[(p, q, x), (p, s, x), (s, t, y), (q, t, y)]),)

    raise RuleError("unhandled rule %s" % r.value)


def renamings(inst: RuleInstance) -> tuple:
    """inst's (frm, to) renamings of labels or expressions, in the order
    expand applies them; () for a rule that renames nothing."""
    r = inst.rule
    if r is Rule.MAPSTO_L3:         # the larger label to the smaller
        (h, _), (h2, _) = inst.principal_gamma
        return ((max(h, h2), min(h, h2)),)
    if r is Rule.MAPSTO_L4:         # the second cell's address, then value
        (_, f), (_, f2) = inst.principal_gamma
        return tuple(zip(f2.args, f.args))
    if r is Rule.EQ_L:
        return (inst.principal_gamma[0][1].args,)
    return inst.subst if r in _SUBST_RULES else ()


def structural_atoms(inst: RuleInstance) -> Tuple[RelAtom, ...]:
    """The atoms that an E, A or U instance adds: E the commuted principal
    atom, A the two atoms through its fresh label, U the unit atom of its
    label.  They depend on the instance alone."""
    if inst.rule is Rule.E:
        ((x, y, z),) = inst.principal_rels
        return ((y, x, z),)
    if inst.rule is Rule.A:
        (_, y, z), (u, v, _) = inst.principal_rels
        (w,) = inst.fresh
        return ((u, w, z), (y, v, w))
    (w,) = inst.labels
    return ((w, EPS, w),)


def replay(deriv: Derivation,
           cfg: LogicConfig) -> Iterator[Tuple[RuleInstance, Sequent, int]]:
    """Each step of a proof with the sequent it applies to and that
    sequent's depth, the conclusion's being 0, in the proof's order.  The
    premises are recomputed top-down by expand; raises RuleError on any
    defect, a step left over or an open leaf included."""
    pending = [(deriv.conclusion, 0)]
    for inst in deriv.steps:
        if not pending:
            raise RuleError("rule %s applied after every branch closed" % inst.rule.value)
        seq, depth = pending.pop()
        yield inst, seq, depth
        pending.extend((p, depth + 1) for p in reversed(expand(seq, inst, cfg)))
    _need(not pending, "open leaf in derivation")


def check(deriv: Derivation, cfg: LogicConfig) -> bool:
    """Re-run a proof's steps from its conclusion.  Raises RuleError on any defect."""
    for _ in replay(deriv, cfg):
        pass
    return True


def closures(seq: Sequent, cfg: LogicConfig) -> Optional[RuleInstance]:
    """Find a zero-premise rule instance closing seq, if any."""
    find = unify.eq_find(seq)
    left = {}
    for lf in seq.gamma:
        w, f = lf
        if f is BOT:
            return RuleInstance(Rule.BOT_L, principal_gamma=(lf,))
        if _atomic(f):
            left.setdefault(f, []).append(lf)
        if cfg.heap_extension and f.kind == "mapsto" and find(w) == find(EPS):
            return RuleInstance(Rule.MAPSTO_L1, principal_gamma=(lf,))
    for lf in seq.delta:
        w, f = lf
        if f is TOP:
            return RuleInstance(Rule.TOP_R, principal_delta=(lf,))
        if f is EMP and find(w) == find(EPS):
            return RuleInstance(Rule.EMP_R, principal_delta=(lf,))
        if cfg.heap_extension and f.kind == "eq" and f.args[0] == f.args[1]:
            return RuleInstance(Rule.EQ_R, principal_delta=(lf,))
        if _atomic(f):
            for lg in left.get(f, ()):
                if find(lg[0]) == find(w):
                    return RuleInstance(Rule.ID, principal_gamma=(lg,),
                                        principal_delta=(lf,))
    if cfg.splittability:
        for q in seq.ineq:
            if find(q[0]) == find(q[1]):
                return RuleInstance(Rule.NEQ_L, principal_ineqs=(q,))
    return None
