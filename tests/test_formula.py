"""Parser, printer and syntax helpers."""
import os
import random

import pytest

import pasl
from pasl.cli import load_corpus

from pasl.formula import (
    BOT, EMP, TOP, ParseError, conj, disj, exists, expr_eq, expr_names, free_exprs,
    has_heap, imp, neg, parse, points_to, prop, prop_names, septraction,
    show, star, subformulae, subst_expr, wand,
)


def test_hash_consing_gives_identity_equality():
    a = star(prop("a"), prop("b"))
    b = star(prop("a"), prop("b"))
    assert a is b
    assert conj(a, TOP) is conj(b, TOP)
    assert star(prop("b"), prop("a")) is not a


def test_formula_is_immutable():
    f = prop("a")
    with pytest.raises(AttributeError):
        f.kind = "or"


def test_parse_constants_and_props():
    assert parse("true") is TOP
    assert parse("false") is BOT
    assert parse("emp") is EMP
    assert parse("a") is prop("a")
    assert parse("foo_1") is prop("foo_1")


def test_parse_precedence():
    # ~ binds tightest, then *, /\, \/, -*, ->
    assert parse("~a * b") is star(neg(prop("a")), prop("b"))
    assert parse("a * b /\\ c") is conj(star(prop("a"), prop("b")), prop("c"))
    assert parse("a /\\ b \\/ c") is disj(conj(prop("a"), prop("b")), prop("c"))
    assert parse("a \\/ b -* c") is wand(disj(prop("a"), prop("b")), prop("c"))
    assert parse("a -* b -> c") is imp(wand(prop("a"), prop("b")), prop("c"))


def test_parse_associativity():
    # binary lattice connectives associate left, arrows associate right
    assert parse("a * b * c") is star(star(prop("a"), prop("b")), prop("c"))
    assert parse("a -> b -> c") is imp(prop("a"), imp(prop("b"), prop("c")))
    assert parse("a -* b -* c") is wand(prop("a"), wand(prop("b"), prop("c")))


def test_parse_unicode_aliases():
    assert parse("⊤* ∧ ¬⊥") is parse("emp /\\ ~false")
    assert parse("(a ∗ b) → a") is parse("(a * b) -> a")
    assert parse("⊤ −∗ a") is parse("true -* a")


def test_parse_septraction_sugar():
    assert parse("a -o b") is septraction(parse("a"), parse("b"))
    assert parse("a -o b") is neg(wand(prop("a"), neg(prop("b"))))
    # -o binds like -*: below \/, above ->, to the right
    a, b, c = prop("a"), prop("b"), prop("c")
    assert parse("a \\/ b -o c") is septraction(disj(a, b), c)
    assert parse("a -o b -> c") is imp(septraction(a, b), c)
    assert parse("a -* b -o c") is wand(a, septraction(b, c))


def test_parse_heap_atoms():
    assert parse("x |-> y") is points_to("x", "y")
    assert parse("x = y") is expr_eq("x", "y")
    assert parse("exists x. x |-> y") is exists("x", points_to("x", "y"))
    assert parse("exists x y. x = y") is exists("x", exists("y", expr_eq("x", "y")))


def test_parse_errors():
    for bad in ("", "a *", "(a", "a b", "exists . a", "a |-> ", "A"):
        with pytest.raises(ParseError):
            parse(bad)


def test_show_round_trip():
    samples = [
        "a", "true", "false", "emp", "~~a",
        "(a -* b) /\\ (true * (emp /\\ a)) -> b",
        "a * (b * (c * d)) -> d * (c * (b * a))",
        "~(emp /\\ (a /\\ (b * ~(c -* (emp -> a)))))",
        "x |-> y", "x = y", "exists v. (v |-> w) * a",
        "emp -> ~(true -* ~(x |-> y))",
    ]
    for s in samples:
        f = parse(s)
        assert parse(show(f)) is f


def test_show_deep_nesting():
    # printing needs no recursion: nesting far past Python's recursion limit
    chain = parse(" /\\ ".join(["a"] * 1500))
    assert show(chain) == " /\\ ".join(["a"] * 1500)
    assert parse(show(chain)) is chain
    f = EMP
    for _ in range(3000):
        f = neg(f)
    assert show(f) == "~" * 3000 + "emp"
    assert repr(f).startswith("Formula(~~~")


def _size(f):
    """The number of nodes of f's syntax tree, shared ones once per use."""
    return sum(1 for _ in subformulae(f))


def test_parse_deep_nesting():
    # parsing needs no recursion either: runs of ~, parentheses and
    # exists bodies far past Python's recursion limit
    f = parse("~" * 5000 + "a")
    assert _size(f) == 5001 and show(f) == "~" * 5000 + "a"
    assert parse("(" * 3000 + "a * b" + ")" * 3000) is star(prop("a"), prop("b"))
    g = parse("~(" * 2000 + "a -> b" + ")" * 2000 + " /\\ b")
    assert g.kind == "and" and _size(g) == 2000 + 5
    h = parse("exists x. " * 2000 + "(x |-> y)")
    assert _size(h) == 2001 and h.args[0] == "x"
    with pytest.raises(ParseError) as err:
        parse("(" * 3000 + "a" + ")" * 2999)
    assert str(err.value) == "expected ')' (at position 6000)"


def test_size_and_subformulae():
    f = parse("(a * b) -> a")
    assert _size(f) == 5
    assert prop("a") in set(subformulae(f))
    assert parse("a * b") in set(subformulae(f))


def test_prop_names_and_has_heap():
    assert prop_names(parse("(a * b) -> c")) == {"a", "b", "c"}
    assert not has_heap(parse("(a * b) -> c"))
    assert has_heap(parse("x |-> y"))
    assert has_heap(parse("exists x. a"))


def test_free_exprs_respects_binders():
    f = parse("exists x. (x |-> y) * (z = z)")
    assert free_exprs(f) == {"y", "z"}


def test_subst_expr_avoids_capture():
    f = parse("exists x. x |-> y")
    assert subst_expr(f, "y", "w") is parse("exists x. x |-> w")
    # bound occurrences are left alone
    assert subst_expr(f, "x", "w") is f
    # a binder shadows only its own body
    g = parse("(x = y) /\\ exists y. y |-> x")
    assert subst_expr(g, "y", "w") is parse("(x = w) /\\ exists y. y |-> x")
    assert subst_expr(g, "x", "w") is parse("(w = y) /\\ exists y. y |-> w")


def test_subst_expr_renames_a_binder_that_would_capture():
    # =L, |->L4 and existsR may substitute the name an exists binds: the
    # binder takes a ' suffix, as many as make it new to its body and
    # other than frm, which no parsed name holds
    f = parse("exists y. x |-> y")
    assert subst_expr(f, "x", "y") is exists("y'", points_to("y", "y'"))
    g = exists("y", star(points_to("x", "y"), points_to("y'", "z")))
    assert subst_expr(g, "x", "y") is exists(
        "y''", star(points_to("y", "y''"), points_to("y'", "z")))
    h = exists("y", star(points_to("y'", "y"), points_to("x", "z")))
    assert subst_expr(h, "y'", "y") is exists(
        "y''", star(points_to("y", "y''"), points_to("x", "z")))
    # nested binders are renamed each in its own scope
    k = parse("exists y. (x = y) /\\ exists y. (y |-> x)")
    assert subst_expr(k, "x", "y") is exists(
        "y'", conj(expr_eq("y", "y'"), exists("y'", points_to("y'", "y"))))
    # a binder over a body without a free frm is left as it is
    assert subst_expr(parse("exists y. y |-> z"), "x", "y") is parse("exists y. y |-> z")
    assert free_exprs(subst_expr(f, "x", "y")) == {"y"}


def test_heap_walkers_deep_nesting():
    # free expressions, every name, bound ones too, and substitution need
    # no recursion either
    f = parse("exists x. " + "~" * 3000 + "(x |-> y) /\\ " * 1500 + "(y = z)")
    assert free_exprs(f) == {"y", "z"}
    assert expr_names(f) == {"x", "y", "z"}
    assert subst_expr(f, "y", "w") is parse(
        "exists x. " + "~" * 3000 + "(x |-> w) /\\ " * 1500 + "(w = z)")


# input, message, position: each kind of error the parser reports
PARSE_ERRORS = [
    ("a # b", "unexpected character '#' (at position 2)", 2),
    ("A", "unexpected character 'A' (at position 0)", 0),
    ("a /\\ B", "unexpected character 'B' (at position 5)", 5),
    ("a_1 -> _b", "unexpected character '_' (at position 7)", 7),
    ("a -* 2b", "unexpected character '2' (at position 5)", 5),
    ("(a * b", "expected ')' (at position 6)", 6),
    ("exists x a", "expected '.' (at position 10)", 10),
    ("a b", "trailing input (at position 2)", 2),
    ("(a))", "trailing input (at position 3)", 3),
    ("", "expected formula (at position 0)", 0),
    ("a ->", "expected formula (at position 4)", 4),
    ("exists . a", "expected bound variable (at position 7)", 7),
    ("x |-> ", "expected expression identifier (at position 6)", 6),
    ("x = true", "expected expression identifier (at position 4)", 4),
    # positions count characters of the text as typed, Unicode aliases too
    ("a ∗ ⊥ 1", "unexpected character '1' (at position 6)", 6),
    ("⊤* → (a", "expected ')' (at position 7)", 7),
    ("¬ é É", "unexpected character 'É' (at position 4)", 4),
]


@pytest.mark.parametrize("text,message,pos", PARSE_ERRORS)
def test_parse_error_messages(text, message, pos):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert str(err.value) == message
    assert err.value.pos == pos


def _random_formula(rng, depth):
    if depth == 0 or rng.random() < 0.2:
        return rng.choice([prop("a"), prop("b"), prop("c_1"), TOP, BOT, EMP,
                           points_to("x", "y"), expr_eq("x", "z")])
    k = rng.randrange(10)
    if k == 0:
        return neg(_random_formula(rng, depth - 1))
    if k == 1:
        return exists("x", _random_formula(rng, depth - 1))
    build = (conj, disj, imp, star, wand, septraction, conj, disj)[k - 2]
    return build(_random_formula(rng, depth - 1), _random_formula(rng, depth - 1))


def test_parse_inverts_show():
    d = os.path.join(os.path.dirname(pasl.__file__), "data")
    rows = [e.formula for name in ("table1.corpus", "table2.corpus")
            for e in load_corpus(os.path.join(d, name))]
    for text in rows:
        f = parse(text)
        assert parse(show(f)) is f
    rng = random.Random(3)
    for _ in range(2000):
        f = _random_formula(rng, 6)
        assert parse(show(f)) is f
