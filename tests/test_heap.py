"""Heap redexes and expression bookkeeping."""
from pasl.calculus import Rule, check, expand, from_applied
from pasl.config import preset
from pasl.formula import parse
from pasl.heap import find_heap_redex, occurring_exprs, witnesses
from pasl.search import NotProved, Prover, SearchLimits, Valid, prove
from pasl.sequent import EPS, Sequent
from pasl.unify import find_redex

SEP = preset("separata+")
PASL = preset("pasl")


def test_heap_redexes_need_the_extension():
    s = Sequent(gamma=((1, parse("x = y")),))
    assert find_heap_redex(s, PASL) is None
    assert find_heap_redex(s, SEP).rule is Rule.EQ_L


def test_eq_left_substitutes_everywhere():
    s = Sequent(gamma=((1, parse("x = y")), (2, parse("x |-> z"))),
                delta=((2, parse("a /\\ (y |-> z)")),))
    inst = find_heap_redex(s, SEP)
    (p,) = expand(s, inst, SEP)
    assert tuple(p.gamma) == ((2, parse("y |-> z")),)
    assert tuple(p.delta) == ((2, parse("a /\\ (y |-> z)")),)


def test_same_address_merges_labels():
    s = Sequent(gamma=((2, parse("x |-> y")), (5, parse("x |-> z"))))
    inst = find_heap_redex(s, SEP)
    assert inst.rule is Rule.MAPSTO_L3
    (p,) = expand(s, inst, SEP)
    # the larger label collapses into the smaller, then values must agree
    assert {lf[0] for lf in p.gamma} == {2}
    inst2 = find_heap_redex(p, SEP)
    assert inst2.rule is Rule.MAPSTO_L4
    (p2,) = expand(p, inst2, SEP)
    assert tuple(p2.gamma) == ((2, parse("x |-> y")),)


def test_same_label_unifies_expressions():
    s = Sequent(gamma=((3, parse("x |-> y")), (3, parse("w |-> z"))),
                delta=((1, parse("w = x")),))
    inst = find_heap_redex(s, SEP)
    assert inst.rule is Rule.MAPSTO_L4
    (p,) = expand(s, inst, SEP)
    assert tuple(p.gamma) == ((3, parse("x |-> y")),)
    assert tuple(p.delta) == ((1, parse("x = x")),)


def test_occurring_and_fresh_exprs():
    s = Sequent(gamma=((1, parse("x |-> v1")),),
                delta=((1, parse("exists q. q |-> y")),))
    assert occurring_exprs(s) == {"x", "v1", "y"}
    assert s.fresh_expr() == "v2"
    assert witnesses(s) == ("v1", "x", "y", "v2")


def test_mapsto_split_candidates():
    # the atoms the search splits a cell's world over with |->L2: those
    # whose target is the cell's label and whose two parts are not e.
    # Obligations are sought on normalized sequents, so the identity atoms
    # are eliminated first: 6 becomes 5, then 5 becomes 3
    s = Sequent(rel=((2, 3, 5), (1, 2, 4), (EPS, 6, 5), (4, 1, 6), (EPS, 3, 5),
                     (3, EPS, 5)),
                gamma=((5, parse("x |-> y")),))
    while (r := find_redex(s, SEP)) is not None:
        (s,) = expand(s, from_applied(r), SEP)
    cell = (3, parse("x |-> y"))
    assert tuple(s.gamma) == (cell,)
    prover, memo, picked = Prover(SEP), set(), []
    while True:
        ob = prover._obligation(s, memo, min_score=1)
        if ob is None:
            break
        keys, inst = ob
        assert inst.rule is Rule.MAPSTO_L2 and inst.principal_gamma == (cell,)
        picked.extend(inst.principal_rels)
        memo |= set(keys)
    assert picked == [(2, 3, 3), (4, 1, 3)]


def test_mapsto_l2_collapses_one_side():
    cell = (5, parse("x |-> y"))
    s = Sequent(rel=((2, 3, 5),), gamma=(cell, (2, parse("a"))))
    from pasl.calculus import RuleInstance
    inst = RuleInstance(Rule.MAPSTO_L2, principal_gamma=(cell,),
                        principal_rels=((2, 3, 5),))
    p1, p2 = expand(s, inst, SEP)
    # first premise: the left part is empty, the right part is the cell
    assert (EPS, parse("a")) in p1.gamma
    assert (3, parse("x |-> y")) in p1.gamma
    # second premise: the right part is empty, the left part is the cell
    assert (2, parse("x |-> y")) in p2.gamma
    assert (2, parse("a")) in p2.gamma


def test_substitution_never_captures_a_bound_name():
    # =L must not turn exists y. (x |-> y) into exists y. (y |-> y): the
    # goal is false where s(x) = s(y) = 1 and the heap is {1 |-> 2}
    limits = SearchLimits(max_rule_apps=2000)
    bad = prove(parse("(x = y /\\ exists y. (x |-> y)) -> exists z. (z |-> z)"),
                SEP, limits)
    assert isinstance(bad, NotProved)
    # existsR's witness t stays free under exists t: y := t, then t := u
    good = prove(parse("(t |-> u) -> exists y. exists t. (y |-> t)"), SEP, limits)
    assert isinstance(good, Valid) and check(good.proof, SEP)
