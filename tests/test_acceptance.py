"""Acceptance gate.

End-to-end checks: the shipped benchmark corpora, a known unprovable
formula, oracle cross-validation on random formula fleets, per-rule
soundness against enumerated finite frames and normalization
properties.  Each test prints one summary line.
"""
import itertools
import os
import random
import time

import pytest

import pasl
from pasl.calculus import Rule, RuleInstance, check, expand, from_applied
from pasl.cli import load_corpus
from pasl.config import preset
from pasl.formula import BOT, EMP, TOP, conj, disj, imp, neg, parse, prop, star, wand
from pasl.oracle import (FrameModel, assignments, enumerate_frames,
                         find_countermodel, satisfies, sequent_falsifiable)
from pasl.search import NotProved, ResourceExhausted, SearchLimits, Valid, prove
from pasl.sequent import EPS, Sequent
from pasl.unify import find_redex

DATA = os.path.join(os.path.dirname(pasl.__file__), "data")

# generous wall clocks: the hardest corpus row is allowed ten times its
# original 49.584s solve time, every other row must finish within 60s
ROW_BUDGET_S = {"t1-17": 495.84}
DEFAULT_BUDGET_S = 60.0


def report(line):
    print("\n" + line)


def run_corpus():
    out = []
    for path, budget in (("table1.corpus", None), ("table2.corpus", 10.0)):
        for e in load_corpus(os.path.join(DATA, path)):
            per_row = budget or ROW_BUDGET_S.get(e.id, DEFAULT_BUDGET_S)
            limits = SearchLimits(wall_clock_ms=int(per_row * 1000))
            t0 = time.monotonic()
            v = prove(parse(e.formula), preset(e.cfg), limits)
            out.append((e, v, time.monotonic() - t0))
    return out


@pytest.fixture(scope="module")
def corpus_runs():
    return run_corpus()


def test_benchmark_suite_one(corpus_runs):
    rows = [(e, v, dt) for (e, v, dt) in corpus_runs if e.id.startswith("t1-")]
    assert len(rows) == 19
    bad = [(e.id, type(v).__name__) for (e, v, dt) in rows if not isinstance(v, Valid)]
    slow = [(e.id, dt) for (e, v, dt) in rows
            if dt > ROW_BUDGET_S.get(e.id, DEFAULT_BUDGET_S)]
    # the final row must also close with an indivisible unit instead of
    # full disjointness
    v19 = prove(parse(rows[-1][0].formula), preset("pasl+iu"),
                SearchLimits(wall_clock_ms=60000))
    ok = not bad and not slow and isinstance(v19, Valid)
    worst = max(dt for (_, _, dt) in rows)
    report("benchmark suite 1: %s (19 rows, slowest %.1fs)"
           % ("PASS" if ok else "FAIL %r %r" % (bad, slow), worst))
    assert ok


def test_benchmark_suite_two(corpus_runs):
    rows = [(e, v, dt) for (e, v, dt) in corpus_runs if e.id.startswith("t2-")]
    assert len(rows) == 6
    bad = [(e.id, type(v).__name__) for (e, v, dt) in rows if not isinstance(v, Valid)]
    slow = [(e.id, dt) for (e, v, dt) in rows if dt > 10.0]
    ok = not bad and not slow
    report("benchmark suite 2: %s (6 rows, slowest %.3fs)"
           % ("PASS" if ok else "FAIL %r %r" % (bad, slow),
              max(dt for (_, _, dt) in rows)))
    assert ok


def test_known_unprovable_formula():
    # a heap cell cannot be separated out of the empty heap, and the
    # search must not close this even though no countermodel is reported
    f = parse("emp -> ~((e1 |-> e2) -* ~(e1 |-> e2))")
    v = prove(f, preset("separata+"))
    ok = isinstance(v, (NotProved, ResourceExhausted))
    report("unprovable pin: %s (%s)" % ("PASS" if ok else "FAIL", type(v).__name__))
    assert ok


def test_oracle_negative_control():
    f = parse("(emp /\\ (a * b)) -> a")
    got = find_countermodel(f, preset("pasl"), 2)
    v = prove(f, preset("pasl"))
    ok = (got is not None and got[0].size <= 2
          and not satisfies(got[0], got[1], f)
          and not isinstance(v, Valid))
    report("oracle negative control: %s (model size %s, verdict %s)"
           % ("PASS" if ok else "FAIL",
              got[0].size if got else "-", type(v).__name__))
    assert ok


def test_proof_round_trip(corpus_runs):
    checked = failures = 0
    for (e, v, _) in corpus_runs:
        if isinstance(v, Valid):
            checked += 1
            try:
                check(v.proof, preset(e.cfg))
            except Exception:
                failures += 1
    ok = failures == 0 and checked > 0
    report("proof round trip: %s (%d proofs re-checked, %d failures)"
           % ("PASS" if ok else "FAIL", checked, failures))
    assert ok


# -- random formulas ----------------------------------------------------------

_LEAVES = [prop("a"), prop("b"), TOP, BOT, EMP]
_BINOPS = [conj, disj, imp, star, wand]


def random_formula(rng, depth):
    if depth == 0 or rng.random() < 0.25:
        return rng.choice(_LEAVES)
    if rng.random() < 0.2:
        return neg(random_formula(rng, depth - 1))
    op = rng.choice(_BINOPS)
    return op(random_formula(rng, depth - 1), random_formula(rng, depth - 1))


def test_differential_soundness():
    rng = random.Random(20240817)
    cfg = preset("pasl")
    limits = SearchLimits(max_rule_apps=20000, max_rel_atoms=800,
                          wall_clock_ms=800)
    t0 = time.monotonic()
    valid = unsound = 0
    for _ in range(500):
        f = imp(random_formula(rng, 3), random_formula(rng, 3))
        v = prove(f, cfg, limits)
        if isinstance(v, Valid):
            valid += 1
            if find_countermodel(f, cfg, 3) is not None:
                unsound += 1
    dt = time.monotonic() - t0
    ok = unsound == 0 and dt < 600
    report("differential soundness: %s (500 formulas, %d valid, "
           "%d contradicted, %.0fs)" % ("PASS" if ok else "FAIL", valid, unsound, dt))
    assert ok


# -- per-rule soundness against enumerated frames -----------------------------

def falsifiable_ext(seq, model, rho):
    """Can rho be extended over seq's new labels so that seq is falsified?"""
    fixed = {w: rho[w] for w in seq.labels if w in rho}
    free = sorted(w for w in seq.labels if w not in rho)
    for choice in itertools.product(range(model.size), repeat=len(free)):
        r = dict(fixed)
        r.update(zip(free, choice))
        if sequent_falsifiable(seq, model, r):
            return True
    return False


def random_model(rng, cfg, max_worlds=3):
    n = rng.randint(2, max_worlds)
    frames = enumerate_frames(n, cfg)
    rel = frames[rng.randrange(len(frames))]
    val = {p: frozenset(w for w in range(n) if rng.random() < 0.5)
           for p in ("a", "b")}
    return FrameModel(n, rel, val)


def formula_true_at(rng, model, world, kind, tries=40):
    for _ in range(tries):
        f = random_formula(rng, 2)
        if kind is not None:
            g = random_formula(rng, 1)
            f = {"and": conj, "or": disj, "imp": imp, "star": star,
                 "wand": wand}[kind](f, g) if kind != "not" else neg(f)
        if satisfies(model, world, f):
            return f
    return None


def formula_false_at(rng, model, world, kind, tries=40):
    for _ in range(tries):
        f = random_formula(rng, 2)
        if kind is not None:
            g = random_formula(rng, 1)
            f = {"and": conj, "or": disj, "imp": imp, "star": star,
                 "wand": wand}[kind](f, g) if kind != "not" else neg(f)
        if not satisfies(model, world, f):
            return f
    return None


def scaffold(rng, model, labels, fixed=None):
    """Random rho plus relational atoms and side formulas consistent with it."""
    rho = {EPS: 0}
    if fixed:
        rho.update(fixed)
    labels = tuple(labels) + tuple(w for w in (fixed or ()) if w not in labels)
    for w in labels:
        if w not in rho:
            rho[w] = rng.randrange(model.size)
    names = [EPS] + list(labels)
    atoms = []
    for x in names:
        for y in names:
            for z in names:
                if (rho[x], rho[y], rho[z]) in model.rel and rng.random() < 0.15:
                    atoms.append((x, y, z))
    gamma, delta = [], []
    for _ in range(rng.randint(0, 2)):
        w = rng.choice(names)
        f = random_formula(rng, 2)
        if satisfies(model, rho[w], f):
            gamma.append((w, f))
        else:
            delta.append((w, f))
    return rho, atoms, gamma, delta


def _chain_pair(rng, model, rho):
    """Pick model triples matching the associativity chain pattern and name
    them with the scenario labels, extending rho."""
    triples = sorted(model.rel)
    rng.shuffle(triples)
    for (hu, hv, hx) in triples:
        for (hx2, hy, hz) in triples:
            if hx2 != hx:
                continue
            rho.update({1: hx, 2: hy, 3: hz, 4: hu, 5: hv})
            return (1, 2, 3), (4, 5, 1)
    return None


def gen_logical(rule, side, kind):
    def g(rng):
        cfg = preset("bbi")
        model = random_model(rng, cfg)
        rho, atoms, gamma, delta = scaffold(rng, model, (1, 2))
        w = rng.choice((EPS, 1, 2))
        if side == "gamma":
            f = formula_true_at(rng, model, rho[w], kind)
        else:
            f = formula_false_at(rng, model, rho[w], kind)
        if f is None:
            return None
        lf = (w, f)
        (gamma if side == "gamma" else delta).append(lf)
        seq = Sequent(tuple(atoms), (), tuple(gamma), tuple(delta))
        fresh = seq.fresh_label()
        kw = {}
        if rule in (Rule.STAR_L, Rule.WAND_R):
            kw["fresh"] = (fresh, fresh + 1)
        if side == "gamma":
            inst = RuleInstance(rule, principal_gamma=(lf,), **kw)
        else:
            inst = RuleInstance(rule, principal_delta=(lf,), **kw)
        return cfg, seq, inst, model, rho
    return g


def gen_star_r(rng):
    cfg = preset("bbi")
    model = random_model(rng, cfg)
    rho, atoms, gamma, delta = scaffold(rng, model, (1, 2, 3))
    f = formula_false_at(rng, model, rho[3], "star")
    if f is None or (rho[1], rho[2], rho[3]) not in model.rel:
        return None
    lf = (3, f)
    delta.append(lf)
    atoms.append((1, 2, 3))
    seq = Sequent(tuple(atoms), (), tuple(gamma), tuple(delta))
    inst = RuleInstance(Rule.STAR_R, principal_delta=(lf,),
                        principal_rels=((1, 2, 3),))
    return cfg, seq, inst, model, rho


def gen_wand_l(rng):
    cfg = preset("bbi")
    model = random_model(rng, cfg)
    rho, atoms, gamma, delta = scaffold(rng, model, (1, 2, 3))
    f = formula_true_at(rng, model, rho[1], "wand")
    if f is None or (rho[2], rho[1], rho[3]) not in model.rel:
        return None
    lf = (1, f)
    gamma.append(lf)
    atoms.append((2, 1, 3))
    seq = Sequent(tuple(atoms), (), tuple(gamma), tuple(delta))
    inst = RuleInstance(Rule.WAND_L, principal_gamma=(lf,),
                        principal_rels=((2, 1, 3),))
    return cfg, seq, inst, model, rho


def gen_subst(rule, cfg_name):
    def g(rng):
        cfg = preset(cfg_name)
        model = random_model(rng, cfg)
        if rule in (Rule.EQ1, Rule.EQ2):
            h = rng.randrange(model.size)
            fixed = {1: h, 2: h}
            principal = [(EPS, 1, 2)] if rule is Rule.EQ1 else [(EPS, 2, 1)]
            inst = RuleInstance(rule, principal_rels=tuple(principal),
                                subst=((2, 1),))
        elif rule in (Rule.P, Rule.C):
            triples = sorted(model.rel)
            (h1, h2, h3) = triples[rng.randrange(len(triples))]
            if rule is Rule.P:
                fixed = {1: h1, 2: h2, 3: h3, 4: h3}
                principal = [(1, 2, 3), (1, 2, 4)]
                inst = RuleInstance(rule, principal_rels=tuple(principal),
                                    subst=((4, 3),))
            else:
                fixed = {1: h1, 2: h2, 3: h3, 4: h2}
                principal = [(1, 2, 3), (1, 4, 3)]
                inst = RuleInstance(rule, principal_rels=tuple(principal),
                                    subst=((4, 2),))
        elif rule is Rule.IU:
            fixed = {1: 0, 2: 0}
            principal = [(1, 2, EPS)]
            inst = RuleInstance(rule, principal_rels=tuple(principal),
                                subst=((1, EPS),))
        else:  # D
            fixed = {1: 0, 2: 0}
            principal = [(1, 1, 2)]
            inst = RuleInstance(rule, principal_rels=tuple(principal),
                                subst=((1, EPS),))
        rho, atoms, gamma, delta = scaffold(rng, model, (), fixed)
        atoms += principal
        seq = Sequent(tuple(atoms), (), tuple(gamma), tuple(delta))
        return cfg, seq, inst, model, rho
    return g


def gen_e(rng):
    cfg = preset("bbi")
    model = random_model(rng, cfg)
    rho, atoms, gamma, delta = scaffold(rng, model, (1, 2, 3))
    if (rho[1], rho[2], rho[3]) not in model.rel:
        return None
    atoms.append((1, 2, 3))
    seq = Sequent(tuple(atoms), (), tuple(gamma), tuple(delta))
    return cfg, seq, RuleInstance(Rule.E, principal_rels=((1, 2, 3),)), model, rho


def gen_a(rng):
    cfg = preset("bbi")
    model = random_model(rng, cfg)
    rho = {EPS: 0}
    pair = _chain_pair(rng, model, rho)
    if pair is None:
        return None
    _, atoms, gamma, delta = scaffold(rng, model, ())
    atoms += list(pair)
    seq = Sequent(tuple(atoms), (), tuple(gamma), tuple(delta))
    inst = RuleInstance(Rule.A, principal_rels=pair, fresh=(seq.fresh_label(),))
    return cfg, seq, inst, model, rho


def gen_a_c(rng):
    cfg = preset("bbi")
    model = random_model(rng, cfg)
    fixed = [t for t in model.rel if t[0] == t[2]]
    if not fixed:
        return None
    (hx, hy, _) = fixed[rng.randrange(len(fixed))]
    rho = {EPS: 0, 1: hx, 2: hy}
    _, atoms, gamma, delta = scaffold(rng, model, ())
    atoms.append((1, 2, 1))
    seq = Sequent(tuple(atoms), (), tuple(gamma), tuple(delta))
    inst = RuleInstance(Rule.A_C, principal_rels=((1, 2, 1),),
                        fresh=(seq.fresh_label(),))
    return cfg, seq, inst, model, rho


def gen_emp_l(rng):
    cfg = preset("bbi")
    model = random_model(rng, cfg)
    rho, atoms, gamma, delta = scaffold(rng, model, (2,), {1: 0})
    lf = (1, EMP)
    gamma.append(lf)
    seq = Sequent(tuple(atoms), (), tuple(gamma), tuple(delta))
    return cfg, seq, RuleInstance(Rule.EMP_L, principal_gamma=(lf,)), model, rho


def gen_u(rng):
    cfg = preset("bbi")
    model = random_model(rng, cfg)
    rho, atoms, gamma, delta = scaffold(rng, model, (1, 2))
    gamma.append((1, TOP))    # keep the chosen label in the sequent
    seq = Sequent(tuple(atoms), (), tuple(gamma), tuple(delta))
    return cfg, seq, RuleInstance(Rule.U, labels=(1,)), model, rho


def gen_em(rng):
    cfg = preset("bbi+s")
    model = random_model(rng, cfg)
    rho, atoms, gamma, delta = scaffold(rng, model, (1, 2))
    gamma.append((1, TOP))
    seq = Sequent(tuple(atoms), (), tuple(gamma), tuple(delta))
    return cfg, seq, RuleInstance(Rule.EM, labels=(1,)), model, rho


def gen_s(rng):
    cfg = preset("bbi+s")
    model = random_model(rng, cfg)
    rho, atoms, gamma, delta = scaffold(rng, model, (2,),
                                        {1: rng.randrange(1, model.size)})
    seq = Sequent(tuple(atoms), ((1, EPS),), tuple(gamma), tuple(delta))
    inst = RuleInstance(Rule.S, principal_ineqs=((1, EPS),),
                        fresh=(seq.fresh_label(), seq.fresh_label() + 1))
    return cfg, seq, inst, model, rho


def gen_cs(rng):
    cfg = preset("bbi+cs")
    model = random_model(rng, cfg)
    triples = sorted(model.rel)
    t1 = triples[rng.randrange(len(triples))]
    with_same_target = [t for t in triples if t[2] == t1[2]]
    t2 = with_same_target[rng.randrange(len(with_same_target))]
    rho = {EPS: 0, 1: t1[0], 2: t1[1], 3: t2[0], 4: t2[1], 5: t1[2]}
    _, atoms, gamma, delta = scaffold(rng, model, ())
    atoms += [(1, 2, 5), (3, 4, 5)]
    seq = Sequent(tuple(atoms), (), tuple(gamma), tuple(delta))
    f = seq.fresh_label()
    inst = RuleInstance(Rule.CS, principal_rels=((1, 2, 5), (3, 4, 5)),
                        fresh=(f, f + 1, f + 2, f + 3))
    return cfg, seq, inst, model, rho


def gen_cs_c(rng):
    cfg = preset("bbi+cs")
    model = random_model(rng, cfg)
    triples = sorted(model.rel)
    (h1, h2, h3) = triples[rng.randrange(len(triples))]
    rho = {EPS: 0, 1: h1, 2: h2, 3: h3}
    _, atoms, gamma, delta = scaffold(rng, model, ())
    atoms.append((1, 2, 3))
    seq = Sequent(tuple(atoms), (), tuple(gamma), tuple(delta))
    f = seq.fresh_label()
    inst = RuleInstance(Rule.CS_C, principal_rels=((1, 2, 3),),
                        fresh=(f, f + 1, f + 2, f + 3))
    return cfg, seq, inst, model, rho


def gen_id(rng):
    cfg = preset("bbi")
    model = random_model(rng, cfg)
    p = rng.choice((prop("a"), prop("b")))
    seq = Sequent(((EPS, 1, 2),), (), ((1, p),), ((2, p),))
    return cfg, seq, RuleInstance(Rule.ID, principal_gamma=((1, p),),
                                  principal_delta=((2, p),)), model, None


def gen_bot_l(rng):
    cfg = preset("bbi")
    model = random_model(rng, cfg)
    rho, atoms, gamma, delta = scaffold(rng, model, (1,))
    gamma.append((1, BOT))
    seq = Sequent(tuple(atoms), (), tuple(gamma), tuple(delta))
    return cfg, seq, RuleInstance(Rule.BOT_L, principal_gamma=((1, BOT),)), model, None


def gen_top_r(rng):
    cfg = preset("bbi")
    model = random_model(rng, cfg)
    rho, atoms, gamma, delta = scaffold(rng, model, (1,))
    delta.append((1, TOP))
    seq = Sequent(tuple(atoms), (), tuple(gamma), tuple(delta))
    return cfg, seq, RuleInstance(Rule.TOP_R, principal_delta=((1, TOP),)), model, None


def gen_emp_r(rng):
    cfg = preset("bbi")
    model = random_model(rng, cfg)
    seq = Sequent(((EPS, 1, EPS),), (), (), ((1, EMP),))
    return cfg, seq, RuleInstance(Rule.EMP_R, principal_delta=((1, EMP),)), model, None


def gen_neq_l(rng):
    cfg = preset("bbi+s")
    model = random_model(rng, cfg)
    seq = Sequent(((EPS, 1, 2),), ((1, 2),), (), ())
    return cfg, seq, RuleInstance(Rule.NEQ_L, principal_ineqs=((1, 2),)), model, None


RULE_GENERATORS = {
    Rule.ID: gen_id,
    Rule.BOT_L: gen_bot_l,
    Rule.TOP_R: gen_top_r,
    Rule.EMP_R: gen_emp_r,
    Rule.NEQ_L: gen_neq_l,
    Rule.AND_L: gen_logical(Rule.AND_L, "gamma", "and"),
    Rule.OR_R: gen_logical(Rule.OR_R, "delta", "or"),
    Rule.IMP_R: gen_logical(Rule.IMP_R, "delta", "imp"),
    Rule.NOT_L: gen_logical(Rule.NOT_L, "gamma", "not"),
    Rule.NOT_R: gen_logical(Rule.NOT_R, "delta", "not"),
    Rule.EMP_L: gen_emp_l,
    Rule.STAR_L: gen_logical(Rule.STAR_L, "gamma", "star"),
    Rule.WAND_R: gen_logical(Rule.WAND_R, "delta", "wand"),
    Rule.AND_R: gen_logical(Rule.AND_R, "delta", "and"),
    Rule.OR_L: gen_logical(Rule.OR_L, "gamma", "or"),
    Rule.IMP_L: gen_logical(Rule.IMP_L, "gamma", "imp"),
    Rule.STAR_R: gen_star_r,
    Rule.WAND_L: gen_wand_l,
    Rule.EQ1: gen_subst(Rule.EQ1, "bbi"),
    Rule.EQ2: gen_subst(Rule.EQ2, "bbi"),
    Rule.P: gen_subst(Rule.P, "bbi+p"),
    Rule.C: gen_subst(Rule.C, "bbi+c"),
    Rule.IU: gen_subst(Rule.IU, "bbi+iu"),
    Rule.D: gen_subst(Rule.D, "bbi+d"),
    Rule.E: gen_e,
    Rule.A: gen_a,
    Rule.A_C: gen_a_c,
    Rule.U: gen_u,
    Rule.EM: gen_em,
    Rule.S: gen_s,
    Rule.CS: gen_cs,
    Rule.CS_C: gen_cs_c,
}

ZERO_PREMISE = {Rule.ID, Rule.BOT_L, Rule.TOP_R, Rule.EMP_R, Rule.NEQ_L}

CASES_PER_RULE = 1000


def test_rule_soundness():
    rng = random.Random(991)
    violations = []
    for rule, gen in RULE_GENERATORS.items():
        done = attempts = 0
        while done < CASES_PER_RULE:
            attempts += 1
            assert attempts < 40 * CASES_PER_RULE, "generator starved for %s" % rule
            got = gen(rng)
            if got is None:
                continue
            cfg, seq, inst, model, rho = got
            if rule in ZERO_PREMISE:
                # applicability of a closing rule must rule the sequent out
                # in every model assignment
                assert expand(seq, inst, cfg) == ()
                if any(sequent_falsifiable(seq, model, r)
                       for r in assignments(seq.labels, model)):
                    violations.append((rule, seq, model))
                done += 1
                continue
            if not sequent_falsifiable(seq, model, rho):
                continue
            premises = expand(seq, inst, cfg)
            # only labels of the conclusion stay pinned; rule-created labels
            # are existentially quantified
            pinned = {w: v for w, v in rho.items() if w in seq.labels}
            if not any(falsifiable_ext(p, model, pinned) for p in premises):
                violations.append((rule, seq, model, rho))
            done += 1
    ok = not violations
    report("rule soundness: %s (%d rules x %d cases, %d violations)"
           % ("PASS" if ok else "FAIL %r" % violations[:3],
              len(RULE_GENERATORS), CASES_PER_RULE, len(violations)))
    assert ok


def normalize(seq, cfg):
    """Apply label redexes through the calculus, as the search does, until
    none is left.  Returns the final sequent, the number of rules applied
    and the partition of the original labels that the substitutions induce."""
    mapping = {w: w for w in seq.labels}
    steps = 0
    while True:
        r = find_redex(seq, cfg)
        if r is None:
            break
        (seq,) = expand(seq, from_applied(r), cfg)
        frm, to = r.subst
        for k, v in mapping.items():
            if v == frm:
                mapping[k] = to
        steps += 1
    groups = {}
    for k, v in mapping.items():
        groups.setdefault(v, set()).add(k)
    return seq, steps, frozenset(frozenset(g) for g in groups.values())


def test_normalization_properties():
    rng = random.Random(555)
    cfgs = [preset(n) for n in
            ("bbi", "pasl", "pasl+d", "bbi+iu", "bbi+p", "bbi+c")]
    mismatches = 0
    for _ in range(10000):
        nlabels = rng.randint(2, 12)
        natoms = rng.randint(1, 20)
        rel = tuple(tuple(rng.randint(0, nlabels) for _ in range(3))
                    for _ in range(natoms))
        cfg = rng.choice(cfgs)
        seq, _, base = normalize(Sequent(rel=rel), cfg)
        # terminates at a fixpoint
        assert find_redex(seq, cfg) is None
        again, steps, _ = normalize(seq, cfg)
        assert again == seq and steps == 0
        # the induced label partition ignores the order of the atoms
        for seed in (1, 2):
            order = list(rel)
            random.Random(seed).shuffle(order)
            if normalize(Sequent(rel=tuple(order)), cfg)[2] != base:
                mismatches += 1
                break
    ok = mismatches == 0
    report("normalization: %s (10000 sequents, %d partition mismatches)"
           % ("PASS" if ok else "FAIL", mismatches))
    assert ok


def test_axiom_derivability():
    cases = [
        ("(emp /\\ (a * b)) -> a", "bbi+iu"),
        ("(emp /\\ (a * b)) -> a", "bbi+d"),
        ("~emp -> (~emp * ~emp)", "bbi+s"),
    ]
    bad = []
    for s, cfg_name in cases:
        v = prove(parse(s), preset(cfg_name), SearchLimits(wall_clock_ms=60000))
        if not isinstance(v, Valid):
            bad.append((s, cfg_name, type(v).__name__))
    ok = not bad
    report("axiom derivability: %s (%d cases)"
           % ("PASS" if ok else "FAIL %r" % bad, len(cases)))
    assert ok
