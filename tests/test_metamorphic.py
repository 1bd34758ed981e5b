"""Metamorphic verdict test.

Each input is proved before and after a rewrite that keeps its meaning
(swapping the operands of every *, /\\ and \\/, each atom p as emp * p,
each atom p as ~~p) or renames its atoms (a and b swapped).  No pair may
give Valid against NotProved, and a certified model of one side must
falsify the other side's goal too, except under the renaming.  The
search is blind to atom names, so the renaming must leave the outcome,
the rule applications and the proof size as they were.  A pair where one
side is decided and the other exhausted is reported, not failed: the
limits cut searches of different lengths at different points.
"""
import os
import random
import time

import pytest

import pasl
from pasl.cli import load_corpus
from pasl.config import preset
from pasl.formula import EMP, Formula, has_heap, imp, neg, prop, star
from pasl.oracle import satisfies
from pasl.search import NotProved, Prover, ResourceExhausted, SearchLimits, Valid

from test_acceptance import random_formula, report

DATA = os.path.join(os.path.dirname(pasl.__file__), "data")

# the fleet workload's logics and limits, and the logics its refutable
# inputs come from
LOGICS = ("bbi", "pasl", "pasl+d", "bbi+iu", "bbi+p", "bbi+c", "bbi+s", "bbi+cs")
LIMITS = SearchLimits(max_rule_apps=20000, max_rel_atoms=800)
PER_LOGIC = 50
SEED = 20261021


def rewrite(f, atom=None, swap=False):
    """f with each atom p replaced by atom(p), and with the operands of
    every *, /\\ and \\/ swapped when swap."""
    if f.kind == "var":
        return atom(f) if atom else f
    if f.kind in ("top", "bot", "emp"):
        return f
    assert f.kind in ("not", "and", "or", "imp", "star", "wand"), f.kind
    args = tuple(rewrite(a, atom, swap) for a in f.args)
    return Formula(f.kind, args[::-1] if swap and f.kind in ("star", "and", "or") else args)


MEANING_PRESERVING = {
    "swap operands": lambda f: rewrite(f, swap=True),
    "p as emp * p": lambda f: rewrite(f, lambda p: star(EMP, p)),
    "p as ~~p": lambda f: rewrite(f, lambda p: neg(neg(p))),
}
_NAMES = {"a": "b", "b": "a"}


def swap_names(f):
    return rewrite(f, lambda p: prop(_NAMES.get(p.args[0], p.args[0])))


def corpus_inputs():
    """(id, logic, goal) of each corpus row without heap."""
    out = []
    for name in ("table1.corpus", "table2.corpus"):
        for e in load_corpus(os.path.join(DATA, name)):
            if not (preset(e.cfg).heap_extension or has_heap(e.goal)):
                out.append((e.id, e.cfg, e.goal))
    return out


def generated_inputs():
    """(id, logic, goal) of PER_LOGIC random implications per logic."""
    rng = random.Random(SEED)
    return [("%s-%03d" % (logic, i), logic,
             imp(random_formula(rng, 3), random_formula(rng, 3)))
            for i in range(PER_LOGIC) for logic in LOGICS]


def run(goal, logic):
    p = Prover(preset(logic), LIMITS)
    v = p.prove(goal)
    return v, p.apps, v.proof.rule_count() if isinstance(v, Valid) else None


def falsifies(v, goal):
    """Does the certified model of v, if any, falsify goal?"""
    if not (isinstance(v, NotProved) and v.countermodel):
        return True
    model, world = v.countermodel
    return not satisfies(model, world, goal)


@pytest.mark.parametrize("inputs", [corpus_inputs, generated_inputs])
def test_rewrites_keep_verdicts_and_models(inputs):
    t0 = time.monotonic()
    faults, moved, pairs = [], [], 0
    for ident, logic, goal in inputs():
        before = run(goal, logic)
        v = before[0]
        for name, rw in (*MEANING_PRESERVING.items(), ("swap a and b", swap_names)):
            goal2 = rw(goal)
            after = run(goal2, logic)
            w = after[0]
            pairs += 1
            kinds = {type(v), type(w)}
            if kinds == {Valid, NotProved}:
                faults.append("%s %s: %s against %s"
                              % (ident, name, type(v).__name__, type(w).__name__))
            elif ResourceExhausted in kinds and len(kinds) == 2:
                moved.append("%s %s: %s -> %s"
                             % (ident, name, type(v).__name__, type(w).__name__))
            if name == "swap a and b":
                if (type(v), before[1:]) != (type(w), after[1:]):
                    faults.append("%s %s: %s %s -> %s %s" % (
                        ident, name, type(v).__name__, before[1:],
                        type(w).__name__, after[1:]))
            elif not (falsifies(v, goal2) and falsifies(w, goal)):
                faults.append("%s %s: a certified model holds the other goal"
                              % (ident, name))
    report("metamorphic verdicts, %s: %d pairs, %d contradicted, %d decided on one "
           "side only%s, %.1fs" % (inputs.__name__, pairs, len(faults), len(moved),
                                   "".join("\n  " + m for m in moved),
                                   time.monotonic() - t0))
    assert not faults, faults


def test_rewrites_change_the_formula():
    f = imp(star(prop("a"), prop("b")), prop("c"))
    assert str(MEANING_PRESERVING["swap operands"](f)) != str(f)
    assert MEANING_PRESERVING["p as emp * p"](prop("a")) is star(EMP, prop("a"))
    assert MEANING_PRESERVING["p as ~~p"](prop("a")) is neg(neg(prop("a")))
    assert swap_names(f) is imp(star(prop("b"), prop("a")), prop("c"))
