"""Finite-model semantics, used as an independent check on the prover."""
import ast
import itertools
import pathlib
import random

import pytest

from pasl import oracle
from pasl.config import preset
from pasl.countermodel import complete_frame
from pasl.formula import BOT, EMP, TOP, conj, disj, imp, neg, parse, prop, show, star, wand
from pasl.oracle import (
    FrameModel, assignments, check_conditions, enumerate_frames, find_countermodel,
    format_model, parse_model, satisfies, sequent_falsifiable,
)
from pasl.sequent import EPS, Sequent

BBI = preset("bbi")
PASL = preset("pasl")
PASL_D = preset("pasl+d")
BBI_IU = preset("bbi+iu")
BBI_S = preset("bbi+s")

# Z2: {0,1} with 1+1=0, the standard two-element group frame
Z2 = frozenset({(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)})
# the two-element frame where 1 is not composable with itself
HALF = frozenset({(0, 0, 0), (0, 1, 1), (1, 0, 1)})


def test_satisfies_basics():
    m = FrameModel(2, Z2, {"a": frozenset({1})})
    assert satisfies(m, 1, parse("a"))
    assert not satisfies(m, 0, parse("a"))
    assert satisfies(m, 0, parse("emp"))
    assert not satisfies(m, 1, parse("emp"))
    assert satisfies(m, 1, parse("true"))
    assert not satisfies(m, 1, parse("false"))
    assert satisfies(m, 0, parse("~a"))
    assert satisfies(m, 1, parse("a \\/ b"))
    assert satisfies(m, 1, parse("b -> a"))


def test_satisfies_star_and_wand():
    m = FrameModel(2, Z2, {"a": frozenset({1})})
    # 1+1=0, so a*a holds only at the empty world
    assert satisfies(m, 0, parse("a * a"))
    assert not satisfies(m, 1, parse("a * a"))
    # from 1, adding an a-world (only 1) lands at 0
    assert satisfies(m, 1, parse("a -* emp"))
    assert not satisfies(m, 0, parse("a -* emp"))
    # in HALF, 1 composes with nothing but 0, so the wand is vacuous at 1
    m2 = FrameModel(2, HALF, {"a": frozenset({1})})
    assert satisfies(m2, 1, parse("a -* false"))


def test_check_conditions_per_logic():
    assert check_conditions(Z2, 2, BBI)
    assert check_conditions(Z2, 2, PASL)
    assert not check_conditions(Z2, 2, BBI_IU)        # 1+1=0 with 1 != 0
    assert not check_conditions(Z2, 2, PASL_D)
    assert check_conditions(HALF, 2, PASL_D)
    # neither frame splits world 1 into two non-empty parts
    assert not check_conditions(Z2, 2, BBI_S)
    assert not check_conditions(HALF, 2, BBI_S)
    assert check_conditions(Z2 | {(1, 1, 1)}, 2, BBI_S)
    # dropped identity triple
    assert not check_conditions(frozenset({(0, 0, 0)}), 2, BBI)
    # non-commutative relation
    bad = Z2 | {(1, 1, 1)}
    assert check_conditions(bad, 2, BBI)
    assert not check_conditions(bad, 2, PASL)         # 1+1 in {0,1}


def test_enumerate_frames_counts_are_stable():
    assert [len(enumerate_frames(n, BBI)) for n in (1, 2, 3)] == [1, 4, 92]
    assert [len(enumerate_frames(n, PASL)) for n in (1, 2, 3)] == [1, 2, 4]
    assert [len(enumerate_frames(n, PASL_D)) for n in (1, 2, 3)] == [1, 1, 1]
    assert len(enumerate_frames(4, PASL_D)) == 4
    for rel in enumerate_frames(3, PASL_D):
        assert check_conditions(rel, 3, PASL_D)


def test_enumerate_frames_refuses_large_general_frames():
    with pytest.raises(ValueError):
        enumerate_frames(4, BBI)
    with pytest.raises(ValueError):
        enumerate_frames(5, PASL_D)


def test_find_countermodel():
    got = find_countermodel(parse("(emp /\\ (a * b)) -> a"), PASL, 2)
    assert got is not None
    model, world = got
    assert model.size == 2
    assert not satisfies(model, world, parse("(emp /\\ (a * b)) -> a"))
    # the same formula has no countermodel once units are indivisible
    assert find_countermodel(parse("(emp /\\ (a * b)) -> a"), BBI_IU, 3) is None
    assert find_countermodel(parse("a -> a"), BBI, 3) is None
    assert find_countermodel(parse("a -> (a * a)"), BBI, 2) is not None


def test_assignments_fix_the_identity():
    m = FrameModel(2, Z2, {})
    maps = list(assignments({EPS, 3, 7}, m))
    assert len(maps) == 4
    assert all(rho[EPS] == 0 for rho in maps)


def test_sequent_falsifiable():
    m = FrameModel(2, Z2, {"a": frozenset({1})})
    s = Sequent(rel=((1, 1, 2),), gamma=((1, parse("a")),),
                delta=((2, parse("a")),))
    # 1 -> world 1, 2 -> world 0: 1+1=0, a true at 1, a false at 0
    assert sequent_falsifiable(s, m, {EPS: 0, 1: 1, 2: 0})
    # violating the relational atom
    assert not sequent_falsifiable(s, m, {EPS: 0, 1: 1, 2: 1})
    # succedent made true
    s2 = Sequent(gamma=(), delta=((1, parse("a")),))
    assert not sequent_falsifiable(s2, m, {EPS: 0, 1: 1})


def test_model_text_round_trip():
    m = FrameModel(2, Z2, {"a": frozenset({1}), "b": frozenset()})
    text = format_model(m, 1)
    m2, world = parse_model(text)
    assert world == 1
    assert m2.size == m.size and m2.rel == m.rel and m2.valuation == m.valuation
    with pytest.raises(ValueError):
        parse_model("nonsense 1 2\n")


# -- brute-force specification of the frame conditions ---------------------
#
# The direct reading of each condition, as quantifiers over the triples of
# rel; check_conditions and enumerate_frames must agree with it exactly.

def spec_check_conditions(rel, n, cfg):
    for a in range(n):
        if (a, 0, a) not in rel:
            return False
    for (a, b, c) in rel:
        if b == 0 and a != c:
            return False
        if (b, a, c) not in rel:
            return False
    if not spec_rebrackets(rel, n):
        return False
    if cfg.partial_determinism:
        seen = {}
        for (a, b, c) in rel:
            if seen.setdefault((a, b), c) != c:
                return False
    if cfg.cancellativity:
        seen = {}
        for (a, b, c) in rel:
            if seen.setdefault((a, c), b) != b:
                return False
    if cfg.indivisible_unit or cfg.disjointness:
        if any(c == 0 and a != 0 for (a, b, c) in rel):
            return False
    if cfg.disjointness:
        if any(a == b and a != 0 for (a, b, c) in rel):
            return False
    if cfg.splittability:
        for c in range(1, n):
            if not any(t[2] == c and t[0] != 0 and t[1] != 0 for t in rel):
                return False
    if cfg.cross_split:
        for (a, b, z) in rel:
            for (u, v, z2) in rel:
                if z != z2:
                    continue
                if not any((p, q, a) in rel and (p, s, u) in rel
                           and (s, t, b) in rel and (q, t, v) in rel
                           for p in range(n) for q in range(n)
                           for s in range(n) for t in range(n)):
                    return False
    return True


def spec_rebrackets(rel, n, nonempty=False):
    """Does every h1 + (h2 + h3) = h4 of rel rebracket as (h1 + h2) + h3?
    With nonempty, only those with h1, h2 and h3 non-empty."""
    by_out = {}
    for t in rel:
        by_out.setdefault(t[2], []).append(t)
    for (h1, h5, h4) in rel:
        for (h2, h3, _) in by_out.get(h5, ()):
            if nonempty and 0 in (h1, h2, h3):
                continue
            if not any((h1, h2, h6) in rel and (h6, h3, h4) in rel
                       for h6 in range(n)):
                return False
    return True


def spec_enumerate_frames(n, cfg):
    base = set()
    for a in range(n):
        base.add((a, 0, a))
        base.add((0, a, a))
    pairs = [(a, b) for a in range(1, n) for b in range(a, n)]
    if n == 4:
        sums = [() if c == n else (c,) for c in range(n + 1)]
    else:
        sums = [frozenset(s) for r in range(n + 1)
                for s in itertools.combinations(range(n), r)]
    out = []
    for choice in itertools.product(sums, repeat=len(pairs)):
        rel = set(base)
        for (a, b), cs in zip(pairs, choice):
            for c in cs:
                rel.add((a, b, c))
                rel.add((b, a, c))
        fr = frozenset(rel)
        if spec_check_conditions(fr, n, cfg):
            out.append(fr)
    return tuple(out)


# every preset, and each frame condition alone on bbi and on pasl
LOGICS = sorted({"bbi", "pasl", "separata+"}
                | {"%s+%s" % (base, flag) for base in ("bbi", "pasl")
                   for flag in ("p", "c", "iu", "d", "s", "cs")})


@pytest.mark.parametrize("name", LOGICS)
def test_enumerate_frames_matches_the_specification(name):
    cfg = preset(name)
    enumerate_frames.cache_clear()
    sizes = (1, 2, 3, 4) if name in ("pasl", "pasl+d", "bbi+p", "separata+") else (1, 2, 3)
    for n in sizes:
        got, want = enumerate_frames(n, cfg), spec_enumerate_frames(n, cfg)
        # identical frames in the identical order, each iterating in the
        # identical order: find_countermodel returns the first model found
        assert got == want
        assert [list(fr) for fr in got] == [list(fr) for fr in want]


def _random_relation(rng, n):
    rel = set()
    if rng.random() < 0.8:
        rel.update((a, 0, a) for a in range(n))
        rel.update((0, a, a) for a in range(n))
        if rng.random() < 0.3:          # drop an identity atom
            rel.discard(rng.choice(sorted(rel)))
    density = rng.choice((0.05, 0.15, 0.3, 0.6))
    for a in range(1, n):
        for b in range(a, n):
            for c in range(n):
                if rng.random() < density:
                    rel.add((a, b, c))
                    if a != b and rng.random() < 0.9:   # mostly commutative
                        rel.add((b, a, c))
    if rng.random() < 0.05:
        rel.add(rng.choice(((n, 0, n), (0, 1, n + 2), (-1, 1, 1))))
    return frozenset(rel)


def test_check_conditions_matches_the_specification():
    rng = random.Random(11)
    cfgs = [preset(name) for name in LOGICS]
    positive = 0
    for _ in range(3000):
        n = rng.randint(1, 4)
        rel = _random_relation(rng, n)
        in_range = all(0 <= w < n for t in rel for w in t)
        for cfg in rng.sample(cfgs, 3):
            want = in_range and spec_check_conditions(rel, n, cfg)
            assert check_conditions(rel, n, cfg) == want, (sorted(rel), n, cfg.name())
            positive += want
    assert positive > 100     # the sample reaches frames that pass


def test_check_conditions_rejects_worlds_outside_the_frame():
    assert check_conditions(Z2, 2, BBI)
    assert not check_conditions(Z2 | {(2, 0, 2), (0, 2, 2)}, 2, BBI)
    assert not check_conditions(Z2 | {(1, 1, -1)}, 2, BBI)


# -- completing the model of an open branch ----------------------------------
# complete_frame belongs to the model builder, pasl.countermodel; it is
# checked here against the specification of the frame conditions

@pytest.mark.parametrize("name", LOGICS)
def test_complete_frame_leaves_frames_unchanged(name):
    cfg = preset(name)
    for n in (1, 2, 3):
        for rel in enumerate_frames(n, cfg):
            assert complete_frame(rel, n, cfg) is rel


def test_complete_frame_rebrackets_every_triple():
    rng = random.Random(23)
    completed = 0
    for _ in range(400):
        n = rng.randint(1, 6)
        cfg = rng.choice((BBI, BBI_S))
        rel = {(a, 0, a) for a in range(n)} | {(0, a, a) for a in range(n)}
        density = rng.choice((0.05, 0.15, 0.3))
        for a in range(1, n):
            for b in range(a, n):
                for c in range(n):
                    if rng.random() < density:
                        rel.update({(a, b, c), (b, a, c)})
        rel = frozenset(rel)
        got = complete_frame(rel, n, cfg)
        assert rel <= got
        assert all((b, a, c) in got for (a, b, c) in got)
        assert spec_rebrackets(got, n, nonempty=True), (sorted(rel), n)
        if cfg.splittability:
            for c in range(1, n):
                assert any(t[2] == c and t[0] != 0 and t[1] != 0 for t in got)
        completed += got != rel
    assert completed > 100     # the sample reaches relations that need atoms


# -- independence of the checker --------------------------------------------

def test_the_checker_imports_no_proof_rules():
    # soundness rests on the oracle, so it must not share code with what
    # it checks: the calculus, the normalizer, the search, the heap rules
    # or the model builder
    tree = ast.parse(pathlib.Path(oracle.__file__).read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names.add(node.module or "")
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(a.name for a in node.names)
    parts = {part for name in names for part in name.split(".")}
    assert not parts & {"calculus", "unify", "search", "heap", "countermodel"}


# -- recursive specification of satisfies ------------------------------------
#
# The direct recursive reading of the semantics; satisfies, which works on
# an explicit stack, must agree with it exactly.

def spec_satisfies(model, world, f):
    k = f.kind
    if k == "var":
        return world in model.valuation.get(f.args[0], ())
    if k == "top":
        return True
    if k == "bot":
        return False
    if k == "emp":
        return world == model.eps
    if k == "not":
        return not spec_satisfies(model, world, f.args[0])
    if k == "and":
        return (spec_satisfies(model, world, f.args[0])
                and spec_satisfies(model, world, f.args[1]))
    if k == "or":
        return (spec_satisfies(model, world, f.args[0])
                or spec_satisfies(model, world, f.args[1]))
    if k == "imp":
        return (not spec_satisfies(model, world, f.args[0])
                or spec_satisfies(model, world, f.args[1]))
    if k == "star":
        a, b = f.args
        return any(c == world and spec_satisfies(model, x, a)
                   and spec_satisfies(model, y, b) for (x, y, c) in model.rel)
    if k == "wand":
        a, b = f.args
        return all(spec_satisfies(model, y, b) for (w, x, y) in model.rel
                   if w == world and spec_satisfies(model, x, a))
    raise ValueError(k)


def _random_formula(rng, depth):
    if depth == 0 or rng.random() < 0.2:
        return rng.choice([prop("a"), prop("b"), TOP, BOT, EMP])
    if rng.random() < 0.2:
        return neg(_random_formula(rng, depth - 1))
    build = rng.choice([conj, disj, imp, star, wand])
    return build(_random_formula(rng, depth - 1), _random_formula(rng, depth - 1))


def test_satisfies_matches_the_specification():
    rng = random.Random(17)
    for _ in range(1500):
        n = rng.randint(1, 4)
        rel = frozenset(t for t in _random_relation(rng, n)
                        if all(0 <= w < n for w in t))
        val = {p: frozenset(w for w in range(n) if rng.random() < 0.5)
               for p in ("a", "b")}
        model = FrameModel(n, rel, val)
        f = _random_formula(rng, rng.randint(1, 5))
        for w in range(n):
            assert satisfies(model, w, f) == spec_satisfies(model, w, f), (f, sorted(rel))


def test_satisfies_deep_formula():
    # nesting far past Python's recursion limit
    chain = parse(" /\\ ".join(["a"] * 1500))
    m = FrameModel(1, frozenset({(0, 0, 0)}), {"a": frozenset({0})})
    assert satisfies(m, 0, chain)
    assert not satisfies(m, 0, parse("(%s) -> b" % show(chain)))
    with pytest.raises(ValueError):
        satisfies(m, 1, chain)
