"""End-to-end proof search."""
import gc
import os
import random
import tracemalloc

import pytest

import pasl
from pasl import countermodel, search
from pasl.calculus import (Derivation, Rule, RuleError, RuleInstance, check, expand,
                           renamings)
from pasl.cli import load_corpus
from pasl.config import ConfigError, preset
from pasl.formula import parse
from pasl.oracle import (assignments, check_conditions, find_countermodel, satisfies,
                         sequent_falsifiable)
from pasl.search import NotProved, Prover, ResourceExhausted, SearchLimits, Valid, prove
from pasl.sequent import Sequent, initial_sequent
from pasl.unify import eq_find

BBI = preset("bbi")
PASL = preset("pasl")
PASL_D = preset("pasl+d")
SEP = preset("separata+")
DATA = os.path.join(os.path.dirname(pasl.__file__), "data")

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
    # saturation is infinite there, so the search stops at a limit and
    # never closes (test_limit_ends_with_a_certified_model reads its model)
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


def test_search_is_reproducible():
    f = parse("(a * (b * c)) -> ((a * b) * c)")
    v1 = prove(f, PASL)
    v2 = prove(f, PASL)
    assert isinstance(v1, Valid) and isinstance(v2, Valid)
    assert v1.proof == v2.proof


def test_branch_depth_is_not_bounded_by_recursion():
    # 1,499 nested andR splits, each closed by id
    f = parse("a -> " + " /\\ ".join(["a"] * 1500))
    v = prove(f, BBI)
    assert isinstance(v, Valid)
    assert v.proof.rule_count() == 3000


def test_deep_proof_prints_and_hashes():
    # the proof is a flat list of steps, so nothing walks it recursively.
    # It also pins the cap schedule: the goal closes under cap 3, while a
    # schedule that goes from 2 to 4 exhausts the relational atoms
    v = prove(parse("~(true -* ~emp) * ~(true -* ~emp) -> ~(true -* ~emp)"),
              preset("bbi+p"))
    assert isinstance(v, Valid)
    assert repr(v).startswith("Valid(proof=Derivation(")
    assert hash(v.proof) == hash(v.proof)


def test_proof_records_keep_no_attribute_dict():
    # a Valid keeps one RuleInstance per proof step, so its records are
    # slotted: no per-instance __dict__ next to the fields
    v = prove(parse("(a * b) -> (b * a)"), BBI)
    n = prove(parse("a -> (a * a)"), BBI)
    records = [v, v.proof, v.proof.steps[0], n, n.countermodel[0],
               ResourceExhausted("rule applications"), SearchLimits(), BBI]
    for r in records:
        assert not hasattr(r, "__dict__"), type(r).__name__


# a theorem of pasl whose search takes 1,373 rule applications, so a
# smaller rule budget runs out whatever the search does with refutable
# inputs
REVERSED_STAR = ("(a1 * (a2 * (a3 * (a4 * (a5 * a6))))) -> "
                 "(a6 * (a5 * (a4 * (a3 * (a2 * a1)))))")


def test_rule_budget_bounds_what_the_search_retains():
    # the branch trail keeps rule instances, not the sequents they were
    # applied to, so a search stopped by its budget has retained little
    p = Prover(PASL, SearchLimits(max_rule_apps=800))
    goal = parse(REVERSED_STAR)
    tracemalloc.start()
    try:
        v = p.prove(goal)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert v == ResourceExhausted("rule applications")
    assert peak < 2_000_000


@pytest.mark.parametrize("budget", [100, 300, 1000])
def test_rule_budget_covers_the_whole_search(monkeypatch, budget):
    # a branching search that needs more than the budget, 1,658 rule
    # applications in bbi+p: every premise's branch and every
    # structural-round cap draw on one count
    expands = 0
    orig = search.expand

    def counted(*args):
        nonlocal expands
        expands += 1
        return orig(*args)

    monkeypatch.setattr(search, "expand", counted)
    v = prove(parse(REVERSED_STAR), preset("bbi+p"),
              SearchLimits(max_rule_apps=budget))
    assert v == ResourceExhausted("rule applications")
    assert expands <= budget


def _nest_star(xs):
    return xs[0] if len(xs) == 1 else "(%s * %s)" % (xs[0], _nest_star(xs[1:]))


def test_rule_budget_stops_a_search_that_no_branch_limit_stops():
    # andR gives each of sixty star reversals its own branch, and one
    # reversal alone takes 646 rule applications, so every branch stays far
    # under the budget; the whole search needs 23,361
    goals = []
    for i in range(60):
        xs = ["a%d" % (5 * i + j) for j in range(1, 6)]
        goals.append("(%s -> %s)" % (_nest_star(xs), _nest_star(xs[::-1])))
    f = parse(" /\\ ".join(goals))
    limits = SearchLimits(max_rule_apps=20000, max_rel_atoms=800, wall_clock_ms=60000)
    assert prove(f, PASL, limits) == ResourceExhausted("rule applications")


def test_structural_rounds_apply_only_associativity_and_units(monkeypatch):
    # commutativity is normalization's: a round adds A and U atoms, and the
    # next normalization step commutes what survives its label merges
    applied = []
    orig = Prover._structural_round

    def spied(self, seq, steps, seg):
        start = len(steps)
        out = orig(self, seq, steps, seg)
        applied.extend(inst.rule for inst in steps[start:])
        return out

    monkeypatch.setattr(Prover, "_structural_round", spied)
    p = Prover(PASL)
    assert isinstance(p.prove(parse(REVERSED_STAR)), Valid)
    assert applied and set(applied) <= {Rule.A, Rule.U}
    assert p.apps <= 1400


def test_normalization_commutes_every_atom_at_once():
    # with no label redex left, one normalization step returns E on every
    # atom whose twin is missing, in relation order
    rel = [(1, 2, 3), (4, 5, 6), (8, 9, 10), (9, 8, 10), (1, 4, 7)]
    seq = Sequent(rel=rel, gamma=[(3, parse("a"))], delta=[(7, parse("b"))])
    insts = Prover(BBI)._norm_step(seq)
    assert [(i.rule, i.principal_rels) for i in insts] == [
        (Rule.E, ((1, 2, 3),)), (Rule.E, ((4, 5, 6),)), (Rule.E, ((1, 4, 7),))]
    for inst in insts:
        (seq,) = expand(seq, inst, BBI)
    assert Prover(BBI)._norm_step(seq) is None


def test_obligations_see_only_normalized_labels(monkeypatch):
    # _obligation compares labels directly: it must only run once no
    # (e,x |> y) atom with x != y is left, so every label is its own class
    fired = set()
    orig = Prover._obligation

    def checked(self, seq, memo, min_score):
        find = eq_find(seq)
        assert all(find(w) == w for w in seq.labels), seq
        ob = orig(self, seq, memo, min_score)
        if ob is not None:
            fired.add(ob[1].rule.value)
        return ob

    monkeypatch.setattr(Prover, "_obligation", checked)
    limits = SearchLimits(max_rule_apps=5000, max_rel_atoms=400)
    for s, logic in [
        ("((a -* b) * a) -> b", "pasl"),
        ("(emp * a) -> (a * emp)", "pasl"),     # empL adds (e,x |> e)
        ("((a * b) /\\ (c * d)) -> ((a * c) * (b * d))", "bbi+cs"),
        ("~((e1 |-> e2) -* ~(e3 |-> e4)) -> ((e1 = e3) /\\ ((e2 = e4) /\\ emp))",
         "separata+"),
    ]:
        prove(parse(s), preset(logic), limits)
    assert {"*R", "-*L", "|->L2", "CS"} <= fired


# -- relevance ----------------------------------------------------------------

def test_premise_that_ignores_what_it_added_closes_its_rule():
    # the first premise of orL gets a1: a, which its subproof never uses
    # (U, E, *R with empR and topR), so that subproof proves the conclusion
    # of orL itself: no orL remains, and the second premise is never searched
    goal = parse("(a \\/ b) -> (emp * true)")
    p = Prover(BBI)
    v = p.prove(goal)
    assert isinstance(v, Valid)
    assert [s.rule.value for s in v.proof.steps] == ["->R", "U", "E", "*R", "empR", "topR"]
    assert p.apps == 6
    assert check(v.proof, BBI)


def test_step_that_adds_nothing_needed_is_dropped():
    # the search splits c /\\ d before it opens a -> a, but id uses
    # neither c nor d
    v = prove(parse("(c /\\ d) -> (a -> a)"), BBI)
    assert [s.rule.value for s in v.proof.steps] == ["->R", "->R", "id"]
    assert check(v.proof, BBI)


@pytest.mark.parametrize("s,logic,steps", [
    # P merges the two compositions of a label pair, but no later step
    # uses an item that either P renamed: the proof keeps 18 of the
    # search's 30 steps, and neither P
    ("(a * (b * (c * d))) -> (d * (c * (b * a)))", "bbi+p",
     ["->R", "*L", "E", "*L", "E", "*L", "E", "A", "E", "A", "E",
      "*R", "id", "*R", "id", "*R", "id", "id"]),
    # the two Eq2 steps rename what *L and empL added, and the proof
    # needs none of it
    ("(b * emp) -> (emp -> emp)", "pasl+d", ["->R", "->R", "empL", "empR"]),
])
def test_substitution_that_renames_nothing_needed_is_dropped(s, logic, steps):
    cfg = preset(logic)
    v = prove(parse(s), cfg)
    assert isinstance(v, Valid)
    assert [x.rule.value for x in v.proof.steps] == steps
    assert check(v.proof, cfg)


def test_labels_of_a_proof_stay_at_most_its_sequents_top():
    # a proof that drops a substitution may hold a label that the
    # search's sequent lost; top still counts it, so a fresh label is
    # fresh for the proof's sequent too
    rng = random.Random(20261019)
    leaves = ("a", "b", "true", "false", "emp")
    ops = ("/\\", "\\/", "->", "*", "-*")

    def formula(depth):
        if depth == 0 or rng.random() < 0.25:
            return rng.choice(leaves)
        if rng.random() < 0.2:
            return "~%s" % formula(depth - 1)
        return "(%s %s %s)" % (formula(depth - 1), rng.choice(ops), formula(depth - 1))

    met = proofs = 0
    for logic in ("pasl+d", "bbi+c"):
        cfg = preset(logic)
        for _ in range(150):
            v = prove(parse("%s -> %s" % (formula(3), formula(3))), cfg, FLEET_LIMITS)
            if not isinstance(v, Valid):
                continue
            proofs += 1
            pending = [v.proof.conclusion]
            for inst in v.proof.steps:
                seq = pending.pop()
                assert max(seq.labels) <= seq.top, (logic, seq)
                met += 1
                pending.extend(reversed(expand(seq, inst, cfg)))
    assert proofs > 100 and met > 500


def test_renaming_the_memo_shares_the_keys_it_leaves_alone():
    # a label substitution rebuilds only the keys that hold the label
    a = parse("a -* b")
    kept, moved = (Rule.WAND_L, (1, a), (2, 1, 3)), (Rule.WAND_L, (4, a), (2, 4, 5))
    memo = search._Memo()
    memo.toggle({kept, moved})
    memo.rename(4, 1)
    assert memo == {kept, (Rule.WAND_L, (1, a), (2, 1, 5))}
    assert any(k is kept for k in memo)
    # a key that moves onto one the memo holds leaves one key
    memo.rename(5, 3)
    assert memo == {kept}
    memo.undo(1)
    assert memo == {kept, moved}


def test_popped_premise_sees_the_memo_it_was_pushed_with(monkeypatch):
    # the premises of a branching step wait on the stack with the trail's
    # length; whatever the first premise's subtree fires, renames or
    # unblocks, popping the second undoes it
    a, c = parse("a -* b"), parse("exists x. x |-> y")
    memo = search._Memo()
    unblock = search._UNBLOCK
    memo.toggle({(Rule.WAND_L, (1, a), (2, 1, 3)), (Rule.S, (3, 0))})
    pushed, mark = set(memo), len(memo.trail)
    memo.toggle({(Rule.WAND_L, (1, a), (4, 1, 5)), (Rule.EXISTS_R, (5, c), "y")})
    memo.rename(3, 2)
    memo.rename("y", "z")
    inner = len(memo.trail)
    memo.toggle({(unblock, 4), (unblock, 5)})
    memo.undo(inner)
    assert (unblock, 4) not in memo
    assert (Rule.EXISTS_R, (5, parse("exists x. x |-> z")), "z") in memo
    memo.undo(mark)
    assert memo == pushed and len(memo.trail) == mark
    # in a search: andR splits before -*L fires, so each premise fires
    # the same (formula, atom) key, the second after the first closed
    fired = []
    orig = Prover._obligation

    def spied(self, seq, memo, min_score):
        ob = orig(self, seq, memo, min_score)
        if ob is not None:
            fired.extend(ob[0])
        return ob

    monkeypatch.setattr(Prover, "_obligation", spied)
    v = prove(parse("((a -* b) * a) -> (b /\\ (c \\/ b))"), BBI)
    assert isinstance(v, Valid)
    assert len(fired) == 2 and fired[0] == fired[1]


def test_memo_follows_both_renamings_of_mapsto_l4_in_order():
    # two cells at one label: y becomes x, then x becomes y, so every key
    # ends up naming y, as the premise does
    cells = ((1, parse("x |-> y")), (1, parse("y |-> x")))
    goal = (2, parse("exists z. z |-> x"))
    seq = Sequent(gamma=cells, delta=(goal,))
    inst = RuleInstance(Rule.MAPSTO_L4, principal_gamma=cells)
    (premise,) = expand(seq, inst, SEP)
    memo = search._Memo()
    memo.toggle({(Rule.EXISTS_R, goal, "y"), (Rule.EXISTS_R, goal, "x")})
    for frm, to in renamings(inst):
        memo.rename(frm, to)
    (want,) = premise.delta
    assert want == (2, parse("exists z. z |-> y"))
    assert memo == {(Rule.EXISTS_R, want, "y")}
    memo.undo(1)
    assert memo == {(Rule.EXISTS_R, goal, "y"), (Rule.EXISTS_R, goal, "x")}


@pytest.mark.parametrize("template", [
    "((a -* ({0} = v)) * a) -> exists z. ((z |-> z) \\/ (v |-> z))",
    "((({0} |-> v) -* ({0} = v)) * ({0} |-> v)) -> exists z. (z |-> z)",
])
def test_memo_tags_are_not_renamed_with_an_expression_of_their_spelling(template):
    # =L renames the expression exR; a memo key whose tag were the string
    # "exR" would be renamed too, and its obligation fire again
    apps = []
    for name in ("exR", "exr", "unblock"):
        p = Prover(SEP)
        v = p.prove(parse(template.format(name)))
        apps.append((type(v), p.apps))
    assert apps[0] == apps[1] == apps[2]


def test_pick_atom_takes_the_best_untried_atom_most_recent_first():
    # *R on a * b at label 1: an atom (x, y |> 1) scores one for (x, a) in
    # gamma and one for (y, b); the search takes the highest score of at
    # least min_score, the most recently added atom among equals, and
    # each atom once on a branch
    a, b = parse("a"), parse("b")
    rel = [(2, 3, 1), (4, 5, 1), (6, 7, 1), (8, 9, 1), (10, 11, 1)]
    gamma = [(2, a), (3, b), (4, a), (6, a), (7, b), (11, b)]
    seq = Sequent(rel=rel, gamma=gamma, delta=[(1, parse("a * b"))])
    prover, memo = Prover(BBI), search._Memo()
    picked = []
    for min_score in (1, 1, 1, 1, 1, 0, 0):
        ob = prover._obligation(seq, memo, min_score)
        if ob is None:
            picked.append(None)
            continue
        keys, inst = ob
        assert inst.rule is Rule.STAR_R
        memo.toggle(set(keys))
        picked.append(inst.principal_rels[0])
    assert picked == [(6, 7, 1), (2, 3, 1), (10, 11, 1), (4, 5, 1), None,
                      (8, 9, 1), None]


def test_a_proof_leaves_no_reference_cycles():
    # the memo's renaming walk is one module-level function, not a closure
    # made on each renaming, so a search leaves nothing for the cyclic GC
    prove(parse("(emp * a) -> a"), BBI)
    gc.collect()
    gc.disable()
    try:
        assert isinstance(prove(parse("(emp * a) -> a"), BBI), Valid)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_t1_17_closes_within_a_small_rule_budget():
    # before relevance pruning this row took 48,248 rule applications and
    # its proof had 73,220 steps; keeping every substitution, 50
    (row,) = [e for e in load_corpus(os.path.join(DATA, "table1.corpus"))
              if e.id == "t1-17"]
    cfg = preset(row.cfg)
    v = prove(parse(row.formula), cfg, SearchLimits(max_rule_apps=2000))
    assert isinstance(v, Valid)
    assert v.proof.rule_count() <= 40
    assert check(v.proof, cfg)


def test_heap_proofs_are_pruned():
    # the records follow expression renamings, so relevance prunes heap
    # proofs as it does every other logic's: this search closes after
    # more than 1,000 steps, nearly all of them structural
    cells = ["(x%d |-> y%d)" % (i, i) for i in range(1, 7)]
    goal = parse("%s -> %s" % (_nest_star(cells), _nest_star(cells[::-1])))
    v = prove(goal, SEP)
    assert isinstance(v, Valid)
    assert v.proof.rule_count() <= 41
    assert check(v.proof, SEP)


def test_dropped_expression_substitution_leaves_fresh_names_fresh():
    # =L removes v1 from the search's sequent, and the proof drops it as it
    # renamed nothing needed, so the proof's sequent still holds v1: the
    # existsL after it must not take v1, which is no longer occurring
    goal = parse("((v1 = y) /\\ (exists x. x |-> z)) -> (exists w. w |-> z)")
    v = prove(goal, SEP)
    assert isinstance(v, Valid)
    rules = [inst.rule for inst in v.proof.steps]
    assert Rule.EQ_L not in rules
    (ex,) = [inst for inst in v.proof.steps if inst.rule is Rule.EXISTS_L]
    assert ex.exprs == ("v2",)
    assert check(v.proof, SEP)


def test_cell_at_the_identity_keeps_the_atom_that_puts_it_there():
    # |->L1 closes at a label that an (e, a1 |> e) atom equates with e, so
    # the empL step that added the atom stays in the proof
    v = prove(parse("((x |-> y) /\\ emp) -> false"), SEP)
    assert isinstance(v, Valid)
    assert [inst.rule for inst in v.proof.steps][-2:] == [Rule.EMP_L, Rule.MAPSTO_L1]
    assert check(v.proof, SEP)


def test_fresh_names_are_never_bound_in_the_goal():
    # existsL must not take v1 for x: the binder of v1 would capture it,
    # giving exists v1. v1 |-> v1, and the goal would come out Valid
    goal = parse("(exists x. exists v1. x |-> v1) -> exists y. y |-> y")
    assert not isinstance(prove(goal, SEP), Valid)
    # and check rejects that proof
    ex = (1, parse("exists x. exists v1. x |-> v1"))
    steps = (RuleInstance(Rule.IMP_R, principal_delta=((1, goal),)),
             RuleInstance(Rule.EXISTS_L, principal_gamma=(ex,), exprs=("v1",)))
    with pytest.raises(RuleError, match="witness v1 not fresh"):
        check(Derivation(initial_sequent(goal), steps), SEP)


# -- blocking and certified countermodels -------------------------------------

BLOCKED = "b -> ((~a * a) \\/ emp)"     # S unrolls without end in bbi+s
FLEET_LIMITS = SearchLimits(max_rule_apps=20000, max_rel_atoms=800)


def _certified(v, goal, cfg):
    model, world = v.countermodel
    return (check_conditions(model.rel, model.size, cfg)
            and not satisfies(model, world, goal))


@pytest.mark.parametrize("s,logic", [
    ("~emp -> (~emp * ~emp)", "bbi+s"),
    ("~emp -> ((~emp * ~emp) * ~emp)", "bbi+s"),
    ("(a * b) -> (b * a)", "bbi+cs"),
])
def test_blocking_keeps_theorems_valid(s, logic):
    v = prove(parse(s), preset(logic))
    assert isinstance(v, Valid)
    assert check(v.proof, preset(logic))


def test_blocked_branch_ends_with_a_certified_model():
    goal, cfg = parse(BLOCKED), preset("bbi+s")
    v = prove(goal, cfg, FLEET_LIMITS)
    assert isinstance(v, NotProved)
    assert _certified(v, goal, cfg)


def test_blocked_branch_never_ends_without_a_certificate(monkeypatch):
    # with every frame rejected, blocked labels are unblocked and S
    # unrolls as it would without blocking, until the atom budget fires
    monkeypatch.setattr(countermodel, "check_conditions", lambda rel, n, cfg: False)
    v = prove(parse(BLOCKED), preset("bbi+s"), FLEET_LIMITS)
    assert v == ResourceExhausted("relational atoms")


@pytest.mark.parametrize("s,logic", [
    ("~b -> (emp \\/ ((true -* a) /\\ (a /\\ emp)))", "bbi+s"),
    ("true -> (b -> ~(true * a))", "bbi+cs"),
    ("(((emp * a) * a) * a) -> (true -* emp)", "bbi+cs"),
])
def test_blocked_model_is_completed_to_a_frame(s, logic):
    # the model of the blocked branch is a frame only once the compositions
    # that merging left unbracketed are added; without them S or CS unrolls
    # to the atom budget
    goal, cfg = parse(s), preset(logic)
    v = prove(goal, cfg, FLEET_LIMITS)
    assert isinstance(v, NotProved)
    assert _certified(v, goal, cfg)


@pytest.mark.parametrize("s,logic", [
    ("((~false * true) /\\ (emp /\\ a)) -> b", "pasl"),
    ("~((b * b) -* ~a) -> (((a -* a) -* ~emp) /\\ false)", "bbi"),
    ("(((false \\/ b) * (true /\\ b)) /\\ emp) -> (emp -* ~(b -> emp))", "bbi+c"),
    ("(((emp -> b) /\\ (a * b)) \\/ ((a -* false) * true)) -> "
     "(~~emp -> ((true -* emp) -> (false * a)))", "bbi+p"),
    ("(((true -> b) * (a * b)) * (true -* (false -* true))) -> "
     "(((false * true) -> (true * false)) * ((emp -* emp) -> (b -* emp)))", "bbi+iu"),
    ("(((b \\/ b) * (a /\\ true)) * b) -> "
     "((~false * (a /\\ b)) -> ((emp -> false) * (emp /\\ emp)))", "bbi+s"),
])
def test_round_cap_ends_with_a_certified_model(s, logic):
    # structural rounds would grow these branches to the atom budget, cap
    # after cap; the model read off the branch at the end of a cap, with
    # the worlds that the logic forces equal merged, is certified instead
    goal, cfg = parse(s), preset(logic)
    v = prove(goal, cfg, FLEET_LIMITS)
    assert isinstance(v, NotProved)
    assert _certified(v, goal, cfg)


def test_round_cap_without_a_model_still_exhausts(monkeypatch):
    # with every frame rejected, each cap ends as it did without the
    # attempt, and the deeper caps run to the atom budget
    monkeypatch.setattr(countermodel, "check_conditions", lambda rel, n, cfg: False)
    v = prove(parse("((~false * true) /\\ (emp /\\ a)) -> b"), PASL, FLEET_LIMITS)
    assert v == ResourceExhausted("relational atoms")


NEGATIVE_CONTROL = "(emp /\\ (a * b)) -> a"


def test_limit_ends_with_a_certified_model():
    # the control's saturation is infinite in pasl and its search stops at
    # the atom limit; the branch's core, e and the labels of a and b with
    # a + b = e, is completed by the witness search to the cyclic group of
    # order 3, where a * b holds at e and a does not
    goal = parse(NEGATIVE_CONTROL)
    v = prove(goal, PASL)
    assert isinstance(v, NotProved)
    assert _certified(v, goal, PASL)
    model, world = v.countermodel
    assert model.size == 3 and world == 0


def test_limit_ends_with_the_exact_merge():
    # S unrolls on this branch until the atom limit: the blocking merge
    # sends the formula-free S children of label 1 to label 1, where the
    # goal then holds at every world; merging only labels that carry the
    # same formulas keeps them apart
    goal, cfg = parse("(~a -* (~false -> (emp -* a))) -> a"), preset("bbi+s")
    v = prove(goal, cfg, FLEET_LIMITS)
    assert isinstance(v, NotProved)
    assert _certified(v, goal, cfg)


def test_no_model_is_read_when_the_wall_clock_fires(monkeypatch):
    read = []
    monkeypatch.setattr(search, "limit_countermodel", lambda *a: read.append(a))
    v = prove(parse(NEGATIVE_CONTROL), PASL, SearchLimits(wall_clock_ms=1))
    assert v == ResourceExhausted("wall clock")
    assert read == []


def test_saturated_branches_carry_certified_models():
    # in bbi+s, the world of a label that was never split gets a split
    for s, logic in [("a -> a * a", "bbi"), ("(a * b) -> a", "pasl"),
                     ("emp -> a", "bbi+cs"), ("(a -* b) -> b", "pasl+d"),
                     ("true -> b", "bbi+s")]:
        goal, cfg = parse(s), preset(logic)
        v = prove(goal, cfg)
        assert isinstance(v, NotProved), s
        assert _certified(v, goal, cfg), s


def test_deep_refutable_goal_is_certified():
    # the oracle evaluates the goal without recursion
    goal = parse("(" + " /\\ ".join(["a"] * 1500) + ") -> b")
    v = prove(goal, BBI)
    assert isinstance(v, NotProved)
    assert _certified(v, goal, BBI)
    assert v.countermodel[0].size <= 2


def test_deep_goal_verdict_prints():
    v = prove(parse("a -> " + " /\\ ".join(["a"] * 1500)), BBI)
    assert isinstance(v, Valid)
    assert repr(v).startswith("Valid(proof=Derivation(")


def test_heap_goals_get_no_model():
    v = prove(parse("(x |-> y) -> (y |-> x)"), SEP, SearchLimits(max_rule_apps=5000))
    assert not isinstance(v, Valid)
    assert not isinstance(v, NotProved) or v.countermodel is None
