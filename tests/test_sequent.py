"""Sequent structure: queues, labels, substitution, formatting."""
from pasl.formula import parse
from pasl.sequent import EPS, Sequent, format_sequent, initial_sequent


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
