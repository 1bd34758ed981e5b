"""Rule engine: expansion, closure finding, derivation checking."""
import os

import pytest

import pasl.formula
from pasl.calculus import (
    Derivation, Rule, RuleError, RuleInstance, check, closures, expand,
    from_applied, renamings, rule_enabled,
)
from pasl.cli import load_corpus
from pasl.config import preset
from pasl.formula import EMP, TOP, parse
from pasl.search import Valid, prove
from pasl.sequent import EPS, Sequent, initial_sequent
from pasl.unify import AppliedRule

BBI = preset("bbi")
PASL = preset("pasl")
PASL_D = preset("pasl+d")
BBI_S = preset("bbi+s")
BBI_CS = preset("bbi+cs")
SEP = preset("separata+")
DATA = os.path.join(os.path.dirname(pasl.formula.__file__), "data")


def close(seq, cfg):
    """Find the zero-premise rule instance closing seq."""
    inst = closures(seq, cfg)
    assert inst is not None, "no closure for %s" % seq
    assert expand(seq, inst, cfg) == ()
    return inst


def step(seq, inst, cfg):
    """Apply a one-premise rule and hand back the premise."""
    (premise,) = expand(seq, inst, cfg)
    return premise


# -- individual rules ---------------------------------------------------------

def test_id_uses_label_equalities():
    a = parse("a")
    s = Sequent(rel=((EPS, 2, 3),), gamma=((2, a),), delta=((3, a),))
    inst = closures(s, BBI)
    assert inst.rule is Rule.ID
    # without the equality atom the labels differ and nothing closes
    assert closures(Sequent(gamma=((2, a),), delta=((3, a),)), BBI) is None


def test_id_requires_atomic():
    f = parse("a /\\ b")
    s = Sequent(gamma=((1, f),), delta=((1, f),))
    assert closures(s, BBI) is None
    bad = RuleInstance(Rule.ID, principal_gamma=((1, f),), principal_delta=((1, f),))
    with pytest.raises(RuleError):
        expand(s, bad, BBI)


def test_emp_right_needs_identity_label():
    s = Sequent(delta=((1, EMP),))
    assert closures(s, BBI) is None
    assert closures(Sequent(delta=((EPS, EMP),)), BBI).rule is Rule.EMP_R


def test_emp_left_adds_identity_atom():
    s = Sequent(gamma=((3, EMP),))
    p = step(s, RuleInstance(Rule.EMP_L, principal_gamma=((3, EMP),)), BBI)
    assert tuple(p.rel) == ((EPS, 3, EPS),)
    assert tuple(p.gamma) == ()


def test_star_left_introduces_fresh_split():
    f = parse("a * b")
    s = Sequent(gamma=((1, f),))
    inst = RuleInstance(Rule.STAR_L, principal_gamma=((1, f),), fresh=(2, 3))
    p = step(s, inst, BBI)
    assert tuple(p.rel) == ((2, 3, 1),)
    assert set(p.gamma) == {(2, parse("a")), (3, parse("b"))}
    # stale labels are rejected
    with pytest.raises(RuleError):
        expand(s, RuleInstance(Rule.STAR_L, principal_gamma=((1, f),), fresh=(1, 2)), BBI)


def test_star_right_keeps_principal_and_requeues():
    f = parse("a * b")
    s = Sequent(rel=((2, 3, 1),), delta=((1, f), (1, parse("c"))))
    inst = RuleInstance(Rule.STAR_R, principal_delta=((1, f),),
                        principal_rels=((2, 3, 1),))
    p1, p2 = expand(s, inst, BBI)
    assert (2, parse("a")) in p1.delta and (1, f) in p1.delta
    assert (3, parse("b")) in p2.delta and (1, f) in p2.delta
    assert tuple(p1.delta)[-1] == (1, f)        # moved to the back of the queue


def test_wand_rules():
    f = parse("a -* b")
    s = Sequent(delta=((1, f),))
    p = step(s, RuleInstance(Rule.WAND_R, principal_delta=((1, f),), fresh=(2, 3)), BBI)
    assert tuple(p.rel) == ((2, 1, 3),)
    assert tuple(p.gamma) == ((2, parse("a")),)
    assert tuple(p.delta) == ((3, parse("b")),)

    s = Sequent(rel=((2, 1, 3),), gamma=((1, f),))
    p1, p2 = expand(s, RuleInstance(Rule.WAND_L, principal_gamma=((1, f),),
                                    principal_rels=((2, 1, 3),)), BBI)
    assert (2, parse("a")) in p1.delta
    assert (3, parse("b")) in p2.gamma
    assert (1, f) in p2.gamma        # retained


def test_substitution_rules_validate_their_atoms():
    s = Sequent(rel=((1, 2, 3), (1, 2, 4)))
    inst = RuleInstance(Rule.P, principal_rels=((1, 2, 3), (1, 2, 4)),
                        subst=((4, 3),))
    with pytest.raises(RuleError):
        expand(s, inst, BBI)             # P disabled in plain bbi
    (p,) = expand(s, inst, PASL)
    assert tuple(p.rel) == ((1, 2, 3),)
    # refuse to eliminate the identity label
    bad = RuleInstance(Rule.IU, principal_rels=((EPS, 1, EPS),), subst=((EPS, EPS),))
    with pytest.raises(RuleError):
        expand(Sequent(rel=((EPS, 1, EPS),)), bad, PASL_D)


def test_substitution_rules_refuse_to_rename_a_label_to_itself():
    # subst_label(x, x) returns its sequent as it is, change and all, so
    # such an instance would carry a record of some other step
    s = Sequent(rel=((1, 2, 3), (EPS, 3, 3)))
    for inst in (RuleInstance(Rule.P, principal_rels=((1, 2, 3), (1, 2, 3)),
                              subst=((3, 3),)),
                 RuleInstance(Rule.C, principal_rels=((1, 2, 3), (1, 2, 3)),
                              subst=((2, 2),)),
                 RuleInstance(Rule.EQ1, principal_rels=((EPS, 3, 3),),
                              subst=((3, 3),))):
        with pytest.raises(RuleError, match="renames a label to itself"):
            expand(s, inst, PASL)


def test_from_applied_round_trip():
    s = Sequent(rel=((1, 2, 3), (1, 2, 4)))
    inst = from_applied(AppliedRule("P", ((1, 2, 3), (1, 2, 4)), (4, 3)))
    (p,) = expand(s, inst, PASL)
    assert tuple(p.rel) == ((1, 2, 3),)


def test_structural_rules():
    s = Sequent(rel=((1, 2, 3),))
    (p,) = expand(s, RuleInstance(Rule.E, principal_rels=((1, 2, 3),)), BBI)
    assert (2, 1, 3) in p.rel

    s = Sequent(rel=((1, 2, 3), (4, 5, 1)))
    (p,) = expand(s, RuleInstance(Rule.A, principal_rels=((1, 2, 3), (4, 5, 1)),
                                  fresh=(6,)), BBI)
    assert (4, 6, 3) in p.rel and (2, 5, 6) in p.rel

    s = Sequent(delta=((1, parse("a")),))
    (p,) = expand(s, RuleInstance(Rule.U, labels=(1,)), BBI)
    assert (1, EPS, 1) in p.rel


def test_splittability_rules():
    s = Sequent(ineq=((1, EPS),))
    with pytest.raises(RuleError):
        expand(s, RuleInstance(Rule.S, principal_ineqs=((1, EPS),), fresh=(2, 3)), BBI)
    (p,) = expand(s, RuleInstance(Rule.S, principal_ineqs=((1, EPS),), fresh=(2, 3)),
                  BBI_S)
    assert (2, 3, 1) in p.rel
    assert {(2, EPS), (3, EPS)} <= p.ineq.keys()
    assert (1, EPS) in p.ineq        # the inequality stays

    s = Sequent(rel=((EPS, 1, EPS),), ineq=((1, EPS),))
    assert closures(s, BBI_S).rule is Rule.NEQ_L

    s = Sequent(gamma=((1, parse("a")),))
    p1, p2 = expand(s, RuleInstance(Rule.EM, labels=(1,)), BBI_S)
    assert (1, EPS) in p1.ineq
    assert (EPS, 1, EPS) in p2.rel


def test_cross_split_rules():
    s = Sequent(rel=((1, 2, 5), (3, 4, 5)))
    (p,) = expand(s, RuleInstance(Rule.CS, principal_rels=((1, 2, 5), (3, 4, 5)),
                                  fresh=(6, 7, 8, 9)), BBI_CS)
    assert {(6, 7, 1), (6, 8, 3), (8, 9, 2), (7, 9, 4)} <= p.rel.keys()

    s = Sequent(rel=((1, 2, 3),))
    (p,) = expand(s, RuleInstance(Rule.CS_C, principal_rels=((1, 2, 3),),
                                  fresh=(4, 5, 6, 7)), preset("bbi+c+cs"))
    assert {(4, 5, 1), (4, 6, 1), (6, 7, 2), (5, 7, 2)} <= p.rel.keys()


def test_rule_enabled_matrix():
    assert rule_enabled(Rule.A, BBI)
    assert not rule_enabled(Rule.P, BBI)
    assert rule_enabled(Rule.P, PASL)
    assert not rule_enabled(Rule.D, PASL)
    assert rule_enabled(Rule.D, PASL_D)
    assert rule_enabled(Rule.IU, PASL_D)       # disjointness forces it
    assert not rule_enabled(Rule.S, PASL_D)
    assert rule_enabled(Rule.MAPSTO_L1, SEP)
    assert not rule_enabled(Rule.MAPSTO_L1, BBI)


# -- full derivations through check() -----------------------------------------

def test_check_accepts_transcribed_derivation():
    # a -> (emp * a), provable in plain bbi via a unit split of the root
    goal = parse("a -> (emp * a)")
    f = parse("emp * a")
    s0 = initial_sequent(goal)
    i1 = RuleInstance(Rule.IMP_R, principal_delta=((1, goal),))
    s1 = step(s0, i1, BBI)
    i2 = RuleInstance(Rule.U, labels=(1,))
    s2 = step(s1, i2, BBI)
    i3 = RuleInstance(Rule.E, principal_rels=((1, EPS, 1),))
    s3 = step(s2, i3, BBI)
    i4 = RuleInstance(Rule.STAR_R, principal_delta=((1, f),),
                      principal_rels=((EPS, 1, 1),))
    p1, p2 = expand(s3, i4, BBI)
    # depth first, first premise first: the split, then p1's and p2's leaves
    deriv = Derivation(s0, (i1, i2, i3, i4, close(p1, BBI), close(p2, BBI)))
    assert deriv.rule_count() == 6
    assert check(deriv, BBI)
    # the same steps with the premises' leaves swapped close neither
    swapped = Derivation(s0, (i1, i2, i3, i4, close(p2, BBI), close(p1, BBI)))
    with pytest.raises(RuleError):
        check(swapped, BBI)


def test_check_accepts_heap_derivation():
    # two copies of one cell cannot coexist when composition is disjoint
    goal = parse("((e1 |-> e2) * (e1 |-> e2)) -> false")
    cell = parse("e1 |-> e2")
    s0 = initial_sequent(goal)
    i1 = RuleInstance(Rule.IMP_R, principal_delta=((1, goal),))
    s1 = step(s0, i1, SEP)
    i2 = RuleInstance(Rule.STAR_L, principal_gamma=((1, parse("(e1 |-> e2) * (e1 |-> e2)")),),
                      fresh=(2, 3))
    s2 = step(s1, i2, SEP)
    i3 = RuleInstance(Rule.MAPSTO_L3, principal_gamma=((2, cell), (3, cell)))
    s3 = step(s2, i3, SEP)
    assert tuple(s3.rel) == ((2, 2, 1),)
    i4 = RuleInstance(Rule.D, principal_rels=((2, 2, 1),), subst=((2, EPS),))
    s4 = step(s3, i4, SEP)
    assert check(Derivation(s0, (i1, i2, i3, i4, close(s4, SEP))), SEP)


def test_check_rejects_step_that_misses_its_premise():
    # each step applies to the premise that check recomputes, not to a
    # sequent the proof states
    goal = parse("a -> a")
    s0 = initial_sequent(goal)
    i1 = RuleInstance(Rule.IMP_R, principal_delta=((1, goal),))
    wrong = Sequent(gamma=((1, parse("b")),), delta=((1, parse("b")),))
    with pytest.raises(RuleError) as e:
        check(Derivation(s0, (i1, close(wrong, BBI))), BBI)
    assert str(e.value) == "missing antecedent a1: b"


def test_check_rejects_open_leaf():
    s0 = initial_sequent(parse("a -> a"))
    with pytest.raises(RuleError):
        check(Derivation(s0, ()), BBI)


def test_rule_error_messages():
    f = parse("a * b")
    cases = [
        (Sequent(rel=((1, 2, 3), (1, 2, 4))),
         RuleInstance(Rule.P, principal_rels=((1, 2, 3), (1, 2, 4)), subst=((4, 3),)),
         "rule P disabled in bbi"),
        (Sequent(), RuleInstance(Rule.STAR_L, principal_gamma=((1, f),), fresh=(2, 3)),
         "missing antecedent a1: a * b"),
        (Sequent(), RuleInstance(Rule.STAR_R, principal_delta=((EPS, f),),
                                 principal_rels=((2, 3, 1),)),
         "missing succedent e: a * b"),
        (Sequent(delta=((1, f),)),
         RuleInstance(Rule.STAR_R, principal_delta=((1, f),),
                      principal_rels=((2, 3, 1),)),
         "missing relational atom (2, 3, 1)"),
        (Sequent(), RuleInstance(Rule.S, principal_ineqs=((1, EPS),), fresh=(2, 3)),
         "missing inequality (1, 0)"),
        (Sequent(gamma=((1, f),)),
         RuleInstance(Rule.STAR_L, principal_gamma=((1, f),), fresh=(1, 2)),
         "label a1 not fresh"),
    ]
    for seq, inst, msg in cases:
        cfg = BBI_S if inst.rule is Rule.S else BBI
        with pytest.raises(RuleError) as e:
            expand(seq, inst, cfg)
        assert str(e.value) == msg

    goal = parse("a -> a")
    s0 = initial_sequent(goal)
    i1 = RuleInstance(Rule.IMP_R, principal_delta=((1, goal),))
    leaf = close(step(s0, i1, BBI), BBI)
    with pytest.raises(RuleError) as e:
        check(Derivation(s0, (i1,)), BBI)          # too few steps
    assert str(e.value) == "open leaf in derivation"
    with pytest.raises(RuleError) as e:
        check(Derivation(s0, (i1, leaf, leaf)), BBI)   # too many
    assert str(e.value) == "rule id applied after every branch closed"


def test_passing_checks_format_nothing(monkeypatch):
    # rule preconditions build their messages only when they fail
    goal = parse("(a * (b * c)) -> ((a * b) * c)")
    calls = []
    show = pasl.formula._show

    def counting(f, ctx):
        calls.append(f)
        return show(f, ctx)

    monkeypatch.setattr(pasl.formula, "_show", counting)
    assert isinstance(prove(goal, PASL), Valid)
    assert calls == []


def _parts(seq):
    return tuple(tuple(p) for p in (seq.rel, seq.ineq, seq.gamma, seq.delta))


def test_rule_applications_never_change_their_conclusion():
    # a sequent's parts are dicts that its premises may share, so guard
    # that expand only reads them: replay a proof of a pasl+d star
    # permutation and every shipped corpus proof as check does, and
    # compare every sequent met against its parts as they were when built,
    # and its carried label set against the one its items give
    goals = [(parse("(a1 * (a2 * (a3 * (a4 * a5)))) -> (a3 * (a5 * (a1 * (a4 * a2))))"),
              PASL_D)]
    for path in ("table1.corpus", "table2.corpus"):
        goals.extend((parse(e.formula), preset(e.cfg))
                     for e in load_corpus(os.path.join(DATA, path)))
    seen = []
    for goal, cfg in goals:
        verdict = prove(goal, cfg)
        assert isinstance(verdict, Valid)
        seen.append((verdict.proof.conclusion, _parts(verdict.proof.conclusion)))
        pending = [verdict.proof.conclusion]
        for inst in verdict.proof.steps:
            seq = pending.pop()
            before = _parts(seq)
            premises = expand(seq, inst, cfg)
            assert _parts(seq) == before, inst.rule
            seen.extend((p, _parts(p)) for p in premises)
            for p in premises:
                assert p.labels == Sequent(p.rel, p.ineq, p.gamma, p.delta).labels
                assert p.top >= max(p.labels), inst.rule
            pending.extend(reversed(premises))
        assert not pending
    assert len(seen) > 100
    assert all(_parts(s) == snapshot for s, snapshot in seen)


def _renamed_by(seq, inst):
    """seq with inst's renamings applied in order, labels by subst_label
    and expressions by subst_expr; =L drops its equality first."""
    if inst.rule is Rule.EQ_L:
        seq = seq.extend(drop_gamma=inst.principal_gamma)
    for frm, to in renamings(inst):
        seq = seq.subst_label(frm, to) if isinstance(frm, int) else seq.subst_expr(frm, to)
    return seq


def test_renamings_give_the_premise_of_every_substitution():
    # the instances built above, one of each heap substitution, and every
    # step of each replayed corpus proof: a substitution's premise is its
    # renamings applied to its conclusion
    cells = parse("(e1 |-> e2) * (e1 |-> e2)")
    built = [
        (Sequent(rel=((1, 2, 3), (1, 2, 4))),
         RuleInstance(Rule.P, principal_rels=((1, 2, 3), (1, 2, 4)), subst=((4, 3),)),
         PASL),
        (Sequent(rel=((1, 2, 3), (1, 2, 4))),
         from_applied(AppliedRule("P", ((1, 2, 3), (1, 2, 4)), (4, 3))), PASL),
        (Sequent(rel=((2, 3, 1),), gamma=((2, parse("e1 |-> e2")), (3, parse("e1 |-> e2")))),
         RuleInstance(Rule.MAPSTO_L3, principal_gamma=((2, parse("e1 |-> e2")),
                                                       (3, parse("e1 |-> e2")))), SEP),
        (Sequent(rel=((2, 2, 1),), delta=((1, cells),)),
         RuleInstance(Rule.D, principal_rels=((2, 2, 1),), subst=((2, EPS),)), SEP),
        (Sequent(gamma=((1, parse("x |-> y")), (1, parse("y |-> x")),
                        (2, parse("exists x. x |-> y")))),
         RuleInstance(Rule.MAPSTO_L4, principal_gamma=((1, parse("x |-> y")),
                                                       (1, parse("y |-> x")))), SEP),
        (Sequent(gamma=((1, parse("x = y")), (2, parse("x |-> z"))),
                 delta=((2, parse("exists y. x |-> y")),)),
         RuleInstance(Rule.EQ_L, principal_gamma=((1, parse("x = y")),)), SEP),
    ]
    for path in ("table1.corpus", "table2.corpus"):
        for e in load_corpus(os.path.join(DATA, path)):
            if e.id == "t1-17":
                continue
            cfg = preset(e.cfg)
            proof = prove(parse(e.formula), cfg).proof
            pending = [proof.conclusion]
            for inst in proof.steps:
                seq = pending.pop()
                built.append((seq, inst, cfg))
                pending.extend(reversed(expand(seq, inst, cfg)))
    met = set()
    for seq, inst, cfg in built:
        if not renamings(inst):
            continue
        met.add(inst.rule)
        (premise,) = expand(seq, inst, cfg)
        assert _parts(_renamed_by(seq, inst)) == _parts(premise), inst
    assert met == {Rule.EQ1, Rule.EQ2, Rule.P, Rule.C, Rule.IU, Rule.D,
                   Rule.MAPSTO_L3, Rule.MAPSTO_L4, Rule.EQ_L}
