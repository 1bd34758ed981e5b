"""Sequent structure: queues, labels, substitution, formatting."""
from pasl.calculus import Rule, RuleInstance, expand
from pasl.config import preset
from pasl.formula import parse
from pasl.sequent import EPS, Sequent, format_sequent, initial_sequent

SEP = preset("separata+")


def test_initial_sequent():
    goal = parse("(a * b) -> a")
    s = initial_sequent(goal)
    assert tuple(s.gamma) == ()
    assert tuple(s.delta) == ((1, goal),)
    assert s.labels == {EPS, 1}


def test_extend_deduplicates():
    a = parse("a")
    b = parse("b")
    s = Sequent(rel=((1, 2, 3),), gamma=((1, a), (1, b)))
    s2 = s.extend(rel=((1, 2, 3),), gamma=((1, a),))
    assert tuple(s2.rel) == ((1, 2, 3),)
    assert tuple(s2.gamma) == ((1, a), (1, b))


def test_extend_prepends_formulae_appends_atoms():
    a = parse("a")
    b = parse("b")
    s = Sequent(rel=((1, 2, 3),), gamma=((1, a),))
    s2 = s.extend(rel=((4, 5, 6),), gamma=((2, b),))
    assert tuple(s2.rel) == ((1, 2, 3), (4, 5, 6))
    assert tuple(s2.gamma) == ((2, b), (1, a))


def test_extend_drops():
    a = parse("a")
    s = Sequent(rel=((1, 2, 3),), gamma=((1, a),), delta=((2, a),))
    s2 = s.extend(drop_gamma=((1, a),))
    assert tuple(s2.gamma) == ()
    assert tuple(s2.rel) == ((1, 2, 3),)
    assert tuple(s2.delta) == ((2, a),)


def test_requeue_moves_to_back():
    a = parse("a")
    b = parse("b")
    s = Sequent(gamma=((1, a), (2, b)))
    s2 = s.requeue("gamma", (1, a))
    assert tuple(s2.gamma) == ((2, b), (1, a))


def test_labels_and_fresh():
    s = Sequent(rel=((1, 2, 3),), ineq=((4, EPS),), delta=((6, parse("a")),))
    assert s.labels == {0, 1, 2, 3, 4, 6}
    assert s.fresh_label() == 7


def test_top_is_the_largest_label_the_branch_has_held():
    # built directly, a sequent computes its labels and top from its
    # items; extend raises top to what it adds
    s = Sequent(rel=((1, 2, 3),), ineq=((4, EPS),), delta=((6, parse("a")),))
    assert s.top == 6 and s.labels == {0, 1, 2, 3, 4, 6}
    assert Sequent().top == EPS
    assert s.extend(rel=((7, 1, 2),)).top == 7
    assert s.extend(gamma=((8, parse("b")),)).top == 8
    assert s.extend(rel=((1, 2, 3),), ineq=((5, EPS),)).top == 6
    assert s.requeue("delta", (6, parse("a"))).top == 6
    assert s.subst_expr("x", "y").top == 6


def test_fresh_label_never_reuses_a_removed_label():
    # the substitution removes 6, the largest label; a fresh label above
    # the remaining ones would be 6 again, fresh for the premise but not
    # for the conclusion
    s = Sequent(rel=((1, 2, 3),), ineq=((4, EPS),), delta=((6, parse("a")),))
    s2 = s.subst_label(6, 3)
    assert max(s2.labels) == 4
    assert s2.top == 6 and s2.fresh_label() == 7
    assert s2.extend(rel=((2, 1, 3),)).fresh_label() == 7


def test_premise_shares_the_parts_its_operation_leaves_alone():
    a = parse("a")
    s = Sequent(rel=((1, 2, 3),), ineq=((4, EPS),), gamma=((1, a),),
                delta=((6, a),))
    before = (tuple(s.rel), tuple(s.ineq), tuple(s.gamma), tuple(s.delta))
    s2 = s.extend(rel=((7, 1, 2),))
    assert s2.ineq is s.ineq and s2.gamma is s.gamma and s2.delta is s.delta
    assert s2.labels == s.labels | {7} and s2.top == 7
    s3 = s.extend(gamma=((2, parse("b")),))
    assert s3.rel is s.rel and s3.ineq is s.ineq and s3.labels is s.labels
    for s4 in (s.requeue("gamma", (1, a)), s.subst_expr("x", "y")):
        assert s4.rel is s.rel and s4.labels is s.labels
    s5 = s.subst_label(6, 3)
    assert s5.labels == {0, 1, 2, 3, 4} and s5.top == 6
    assert (tuple(s.rel), tuple(s.ineq), tuple(s.gamma), tuple(s.delta)) == before
    assert s.labels == {0, 1, 2, 3, 4, 6}


def test_subst_label_merges_duplicates():
    a = parse("a")
    s = Sequent(rel=((1, 2, 3), (1, 4, 3)), gamma=((2, a), (4, a)))
    s2 = s.subst_label(4, 2)
    assert tuple(s2.rel) == ((1, 2, 3),)
    assert tuple(s2.gamma) == ((2, a),)


def test_extend_records_only_what_it_added():
    # atoms stand for themselves, formulae are tagged with their side
    a = parse("a")
    b = parse("b")
    s = Sequent(rel=((1, 2, 3),), gamma=((1, a),), delta=((1, b),))
    s2 = s.extend(rel=((1, 2, 3), (2, 1, 3)), ineq=((1, EPS),),
                  gamma=((1, a), (1, b)), delta=((1, a),), drop_delta=((1, b),))
    assert s2.change == ((2, 1, 3), (1, EPS), ("gamma", (1, b)), ("delta", (1, a)))
    assert s.extend().change == ()
    assert Sequent(rel=((1, 2, 3),)).change is None


def test_subst_label_records_preimages():
    # each renamed item maps to the item it came from; an image that an
    # unrenamed item already gave is its own preimage
    a = parse("a")
    s = Sequent(rel=((1, 2, 3), (1, 4, 3), (4, 4, 5)), ineq=((4, EPS),),
                gamma=((2, a), (4, a)), delta=((4, a),))
    s2 = s.subst_label(4, 2)
    assert tuple(s2.rel) == ((1, 2, 3), (2, 2, 5))
    assert s2.change == {(2, 2, 5): (4, 4, 5), (2, EPS): (4, EPS),
                         ("delta", (2, a)): ("delta", (4, a))}


def test_subst_expr_rewrites_both_sides():
    s = Sequent(gamma=((1, parse("x |-> y")),), delta=((1, parse("y = z")),))
    s2 = s.subst_expr("y", "w")
    assert tuple(s2.gamma) == ((1, parse("x |-> w")),)
    assert tuple(s2.delta) == ((1, parse("w = z")),)


def test_subst_expr_records_preimages():
    # as subst_label's: an image that an unrenamed item gave first is not
    # recorded, and neither is an item the substitution leaves alone
    s = Sequent(gamma=((1, parse("x |-> z")), (1, parse("x |-> y")),
                       (3, parse("y |-> y"))),
                delta=((2, parse("y = z")), (3, parse("a"))))
    s2 = s.subst_expr("y", "z")
    assert tuple(s2.gamma) == ((1, parse("x |-> z")), (3, parse("z |-> z")))
    assert s2.change == {("gamma", (3, parse("z |-> z"))): ("gamma", (3, parse("y |-> y"))),
                         ("delta", (2, parse("z = z"))): ("delta", (2, parse("y = z")))}
    assert s.subst_expr("q", "x").change == {}


def _items(s):
    return (set(s.rel) | set(s.ineq) | {("gamma", lf) for lf in s.gamma}
            | {("delta", lf) for lf in s.delta})


def _maps_back(conclusion, premise):
    """Every item of premise, mapped by premise's change, or as it is when
    the change does not name it, is an item of conclusion."""
    items = _items(conclusion)
    return all(premise.change.get(x, x) in items for x in _items(premise))


def test_eq_left_records_its_renamings_after_the_drop():
    eq = (1, parse("x = y"))
    s = Sequent(gamma=(eq, (2, parse("x |-> z"))),
                delta=((2, parse("y |-> z")), (3, parse("a"))))
    (p,) = expand(s, RuleInstance(Rule.EQ_L, principal_gamma=(eq,)), SEP)
    assert p.change == {("gamma", (2, parse("y |-> z"))): ("gamma", (2, parse("x |-> z")))}
    assert _maps_back(s, p)


def test_mapsto_l4_composes_its_two_renamings():
    # w becomes x, then z becomes y: the equality on the right is renamed
    # twice and maps back to the conclusion's, not to the middle sequent's
    c1, c2 = (3, parse("x |-> y")), (3, parse("w |-> z"))
    s = Sequent(gamma=(c1, c2), delta=((1, parse("w = z")), (2, parse("z |-> q"))))
    (p,) = expand(s, RuleInstance(Rule.MAPSTO_L4, principal_gamma=(c1, c2)), SEP)
    assert tuple(p.gamma) == (c1,)
    assert tuple(p.delta) == ((1, parse("x = y")), (2, parse("y |-> q")))
    assert p.change[("delta", (1, parse("x = y")))] == ("delta", (1, parse("w = z")))
    assert p.change[("delta", (2, parse("y |-> q")))] == ("delta", (2, parse("z |-> q")))
    assert _maps_back(s, p)
    # when one renaming renames an expression to itself, the other's
    # change is the whole record
    c3 = (3, parse("x |-> q"))
    s = Sequent(gamma=(c1, c3), delta=((2, parse("q = y")),))
    (p,) = expand(s, RuleInstance(Rule.MAPSTO_L4, principal_gamma=(c1, c3)), SEP)
    assert p.change == {("delta", (2, parse("y = y"))): ("delta", (2, parse("q = y")))}


def test_mapsto_l2_composes_its_two_merges_per_premise():
    cell = (5, parse("x |-> y"))
    s = Sequent(rel=((2, 3, 5), (2, 4, 6)), gamma=(cell, (2, parse("a"))),
                delta=((3, parse("b")),))
    inst = RuleInstance(Rule.MAPSTO_L2, principal_gamma=(cell,),
                        principal_rels=((2, 3, 5),))
    p1, p2 = expand(s, inst, SEP)
    # 2 becomes e, then 5 becomes 3
    assert p1.change[(EPS, 3, 3)] == (2, 3, 5)
    assert p1.change[(EPS, 4, 6)] == (2, 4, 6)
    assert p1.change[("gamma", (3, parse("x |-> y")))] == ("gamma", cell)
    assert p1.change[("gamma", (EPS, parse("a")))] == ("gamma", (2, parse("a")))
    # 3 becomes e, then 5 becomes 2
    assert p2.change[(2, EPS, 2)] == (2, 3, 5)
    assert p2.change[("delta", (EPS, parse("b")))] == ("delta", (3, parse("b")))
    assert p2.change[("gamma", (2, parse("x |-> y")))] == ("gamma", cell)
    assert _maps_back(s, p1) and _maps_back(s, p2)


def test_expr_top_is_the_largest_name_the_branch_has_held():
    # built directly, a sequent counts every name v<i> of its formulae,
    # bound ones too; a substitution that removes a name leaves the mark,
    # and existsL and existsR raise it to the name they bring in
    s = Sequent(gamma=((1, parse("v1 = v3")), (1, parse("exists v4. v4 |-> v2"))),
                delta=((1, parse("exists u. u |-> y")),))
    assert s.expr_top == 4 and s.fresh_expr() == "v5"
    assert Sequent(gamma=((1, parse("a /\\ (x |-> vx)")),)).fresh_expr() == "v1"
    assert initial_sequent(parse("a -> b")).expr_top == 0
    eq = (1, parse("v1 = v3"))
    (p,) = expand(s, RuleInstance(Rule.EQ_L, principal_gamma=(eq,)), SEP)
    assert p.expr_top == 4
    ex = (1, parse("exists v4. v4 |-> v2"))
    (p,) = expand(p, RuleInstance(Rule.EXISTS_L, principal_gamma=(ex,),
                                  exprs=(p.fresh_expr(),)), SEP)
    assert (1, parse("v5 |-> v2")) in p.gamma and p.expr_top == 5
    assert p.extend(rel=((1, 2, 3),)).expr_top == 5
    exr = (1, parse("exists u. u |-> y"))
    (p,) = expand(p, RuleInstance(Rule.EXISTS_R, principal_delta=(exr,),
                                  exprs=("v9",)), SEP)
    assert p.expr_top == 9 and p.fresh_expr() == "v10"


def test_format_sequent():
    s = Sequent(rel=((EPS, 1, 2),), ineq=((1, EPS),),
                gamma=((1, parse("a")),), delta=((2, parse("a * b")),))
    text = format_sequent(s)
    assert text == "(e,a1 |> a2); a1 != e ; a1: a |- a2: a * b"


def test_equality_is_of_sets_and_hash_agrees():
    a = parse("a")
    b = parse("b")
    s = Sequent(rel=((1, 2, 3), (2, 1, 3)), ineq=((1, EPS),),
                gamma=((1, a), (2, b)), delta=((3, a),))
    t = Sequent(rel=((2, 1, 3), (1, 2, 3), (2, 1, 3)), ineq=((1, EPS),),
                gamma=((2, b), (1, a)), delta=((3, a), (3, a)))
    assert tuple(s.gamma) != tuple(t.gamma)       # each keeps its own order
    assert s == t and hash(s) == hash(t)
    assert len({s, t}) == 1
    # one item more, or an item on the other side, is another sequent
    assert s != s.extend(delta=((1, b),))
    assert Sequent(gamma=((1, a),)) != Sequent(delta=((1, a),))
    assert Sequent(rel=((1, 2, 3),)) != Sequent(rel=((2, 1, 3),))
    assert s != tuple(s.rel)
