"""End-to-end proof search."""
import pytest

from pasl.calculus import check
from pasl.config import ConfigError, preset
from pasl.formula import parse
from pasl.oracle import assignments, find_countermodel, sequent_falsifiable
from pasl.search import NotProved, Prover, ResourceExhausted, SearchLimits, Valid, prove

BBI = preset("bbi")
PASL = preset("pasl")
PASL_D = preset("pasl+d")
SEP = preset("separata+")

THEOREMS_BBI = [
    "a -> a",
    "a /\\ b -> b /\\ a",
    "a -> (a \\/ b)",
    "((a -> b) /\\ a) -> b",
    "(a * b) -> (b * a)",
    "(a * (b * c)) -> ((a * b) * c)",
    "a -> (emp * a)",
    "(emp * a) -> a",
    "((a -* b) * a) -> b",
    "a -> (b -* (a * b))",
    "~(a /\\ ~a)",
    "(a * false) -> false",
]

def test_theorems_close_and_check():
    for s in THEOREMS_BBI:
        v = prove(parse(s), BBI)
        assert isinstance(v, Valid), s
        assert check(v.proof, BBI)


def test_non_theorems_stay_open():
    for s in ["a -> (a * a)", "(a * b) -> a", "a -> (emp /\\ a)", "emp -> a"]:
        v = prove(parse(s), BBI)
        assert isinstance(v, NotProved), s


def test_open_branch_is_falsifiable_in_some_small_model():
    goal = parse("(a * b) -> a")
    v = prove(goal, BBI)
    assert isinstance(v, NotProved)
    got = find_countermodel(goal, BBI, 3)
    assert got is not None
    model, _ = got
    assert any(sequent_falsifiable(v.open_branch, model, rho)
               for rho in assignments(v.open_branch.labels, model))


def test_logic_sensitivity_of_weakening_star():
    f = parse("(emp /\\ (a * b)) -> a")
    # without an indivisible unit the formula has a countermodel; the
    # saturation is infinite there, so the search gives up rather than close
    assert not isinstance(prove(f, PASL, SearchLimits(max_rel_atoms=500)), Valid)
    assert isinstance(prove(f, preset("bbi+iu")), Valid)
    assert isinstance(prove(f, preset("bbi+d")), Valid)


def test_splittability_axiom():
    f = parse("~emp -> (~emp * ~emp)")
    assert isinstance(prove(f, BBI), NotProved)
    v = prove(f, preset("bbi+s"))
    assert isinstance(v, Valid)
    assert check(v.proof, preset("bbi+s"))


def test_heap_formulas_require_heap_logic():
    with pytest.raises(ConfigError):
        prove(parse("x |-> y"), PASL)


def test_heap_theorems():
    for s in [
        "(x |-> y) -> ~emp",
        "((x |-> y) * (x |-> z)) -> false",
        "(x |-> y) -> (exists v. x |-> v)",
        "(x = y) -> ((x |-> z) -> (y |-> z))",
    ]:
        v = prove(parse(s), SEP)
        assert isinstance(v, Valid), s
        assert check(v.proof, SEP)


def test_heap_non_theorem():
    v = prove(parse("(x |-> y) -> (y |-> x)"), SEP)
    assert not isinstance(v, Valid)


def test_resource_exhaustion_reports_limit():
    f = parse("~(true -* ~emp) * ~(true -* ~emp) -> ~(true -* ~emp)")
    v = prove(f, preset("bbi+p"), SearchLimits(max_rule_apps=300))
    assert isinstance(v, ResourceExhausted)
    assert v.limit == "rule applications"
    v = prove(f, preset("bbi+p"), SearchLimits(max_rel_atoms=100))
    assert isinstance(v, ResourceExhausted)


def test_prover_accepts_sequents_directly():
    from pasl.sequent import initial_sequent
    p = Prover(BBI)
    v = p.prove_sequent(initial_sequent(parse("a -> a")))
    assert isinstance(v, Valid)


def test_search_is_reproducible():
    f = parse("(a * (b * c)) -> ((a * b) * c)")
    v1 = prove(f, PASL)
    v2 = prove(f, PASL)
    assert isinstance(v1, Valid) and isinstance(v2, Valid)
    assert v1.proof == v2.proof
