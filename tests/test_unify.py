"""Label normalization and the identity-atom congruence."""
import random

from pasl.calculus import expand, from_applied
from pasl.config import preset
from pasl.formula import parse
from pasl.sequent import EPS, Sequent
from pasl.unify import UnionFind, entails_eq, eq_find, find_redex

BBI = preset("bbi")
PASL = preset("pasl")
PASL_D = preset("pasl+d")
BBI_IU = preset("bbi+iu")


def test_eq_redex_replaces_larger_label():
    s = Sequent(rel=((EPS, 5, 2),))
    r = find_redex(s, BBI)
    assert r.rule == "Eq2"
    assert r.subst == (5, 2)
    r = find_redex(Sequent(rel=((EPS, 2, 5),)), BBI)
    assert r.rule == "Eq1"
    assert r.subst == (5, 2)


def test_eps_is_never_eliminated():
    s = Sequent(rel=((EPS, 3, EPS),))
    r = find_redex(s, BBI)
    assert r.subst == (3, EPS)


def test_partial_determinism_redex():
    s = Sequent(rel=((1, 2, 3), (1, 2, 4)))
    assert find_redex(s, BBI) is None
    r = find_redex(s, PASL)
    assert r.rule == "P"
    assert r.subst == (4, 3)


def test_cancellativity_redex():
    s = Sequent(rel=((1, 2, 3), (1, 4, 3)))
    r = find_redex(s, PASL)
    assert r.rule == "C"
    assert r.subst == (4, 2)


def test_indivisible_unit_redex():
    s = Sequent(rel=((1, 2, EPS),))
    assert find_redex(s, BBI) is None
    r = find_redex(s, BBI_IU)
    assert r.rule == "IU"
    assert r.subst == (1, EPS)
    # disjointness subsumes the indivisible unit
    assert find_redex(s, PASL_D).rule == "IU"


def test_disjointness_redex():
    s = Sequent(rel=((2, 2, 3),))
    assert find_redex(s, PASL) is None
    r = find_redex(s, PASL_D)
    assert r.rule == "D"
    assert r.subst == (2, EPS)


def normalize(seq, cfg):
    """Apply redexes as the search does, through the calculus, until none
    is left.  Returns the final sequent and the rules applied."""
    applied = []
    while True:
        r = find_redex(seq, cfg)
        if r is None:
            return seq, applied
        (seq,) = expand(seq, from_applied(r), cfg)
        applied.append(r.rule)


def test_normalize_chains_substitutions():
    # (e,2|>1) merges 2 into 1; then (1,1|>3) is a disjointness redex
    s = Sequent(rel=((EPS, 2, 1), (1, 2, 3)), gamma=((2, parse("a")),))
    seq, applied = normalize(s, PASL_D)
    assert tuple(seq.rel) == ((EPS, EPS, EPS),)
    assert tuple(seq.gamma) == ((EPS, parse("a")),)
    assert applied == ["Eq2", "D", "Eq1"]


def test_normalize_fixpoint_is_redex_free():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(2, 8)
        rel = tuple(tuple(rng.randint(0, 6) for _ in range(3)) for _ in range(n))
        s = Sequent(rel=rel)
        for cfg in (BBI, PASL, PASL_D):
            seq, _ = normalize(s, cfg)
            assert find_redex(seq, cfg) is None
            assert normalize(seq, cfg) == (seq, [])


def test_union_find_smaller_representative():
    uf = UnionFind()
    uf.union(3, 5)
    uf.union(5, 1)
    assert uf.find(3) == uf.find(5) == uf.find(1) == 1
    assert uf.find(7) == 7


def test_eq_find_and_entails_eq():
    s = Sequent(rel=((EPS, 2, 3), (EPS, 3, 4), (1, 2, 5)))
    find = eq_find(s)
    assert find(2) == find(3) == find(4)
    assert entails_eq(s, 2, 4)
    assert not entails_eq(s, 2, 5)
    assert not entails_eq(s, 1, EPS)
