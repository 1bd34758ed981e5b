"""Seeded inputs of the three workloads.

Every input is formula source text plus its logic, its search limits and
its reference.  The text is parsed during set-up, as `pasl prove` parses
its argument.  The inputs depend only on the workload seed, never on the
program or on the run length.
"""
from __future__ import annotations

import os
import random
from dataclasses import dataclass
from typing import List

# Limits are counts only, so a verdict never depends on machine speed.
DEFAULT = "default"        # pasl's own SearchLimits(), as `pasl prove` runs
FLEET = "fleet"            # max_rule_apps=20000, max_rel_atoms=800

# References: a theorem must not end NotProved, a non-theorem must not
# end Valid, and a formula checked by the oracle must not end Valid when
# a countermodel of at most three worlds exists.
THEOREM = "theorem"
NON_THEOREM = "non-theorem"
ORACLE = "oracle"

FLEET_LOGICS = ("bbi", "pasl", "pasl+d", "bbi+iu", "bbi+p", "bbi+c")
REFUTE_LOGICS = ("bbi+s", "bbi+cs")
NEGATIVE_CONTROL = "(emp /\\ (a * b)) -> a"

# t1-17 alone decides in 45-50 s, longer than one run may take, so it is
# not in the timed set.  The families below extend its shape instead.
SLOW_ROWS = {"t1-17"}

# (family, logic, size): seeded scaling families that close Valid.
# Wand currying of depth 5 in bbi ends ResourceExhausted, so bbi stops at 4.
DEEP_FAMILIES = (
    ("star", "pasl+d", 5), ("star", "pasl+d", 6), ("star", "bbi", 5),
    ("curry", "pasl+d", 4), ("curry", "pasl+d", 5), ("curry", "bbi", 4),
    ("cells", "separata+", 5), ("cells", "separata+", 6),
)
# From these sizes on, the proof size depends on the permutation (297,
# 1,505 or 2,633 nodes for six atoms), and drawing it would swing deep's
# totals by a factor of two from seed to seed.  Those instances use the
# reversal, as t1-10 does; the seed still renames their atoms.
FIXED_SHAPE = {("star", 6), ("curry", 5), ("cells", 6)}

# Generated formulas per logic.  Fixed, so that the input set does not
# depend on --seconds and several passes fit in a run.
FLEET_PER_LOGIC = 200
REFUTE_PER_LOGIC = 30


@dataclass(frozen=True)
class Input:
    ident: str
    logic: str
    text: str
    limits: str                  # DEFAULT or FLEET
    expect: str                  # THEOREM, NON_THEOREM or ORACLE
    countermodel: bool = False   # run the oracle after a verdict other than Valid
    once: bool = False           # decided in the first pass only


# -- generated formulas -------------------------------------------------------

_LEAVES = ("a", "b", "true", "false", "emp")
_BINOPS = ("/\\", "\\/", "->", "*", "-*")


def random_formula(rng: random.Random, depth: int) -> str:
    """The random-formula generator of tests/test_acceptance.py, as text.

    It draws from rng in the same order as the test's generator, so a
    seed gives the same formulas in both."""
    if depth == 0 or rng.random() < 0.25:
        return rng.choice(_LEAVES)
    if rng.random() < 0.2:
        return "~%s" % random_formula(rng, depth - 1)
    op = rng.choice(_BINOPS)
    left = random_formula(rng, depth - 1)
    return "(%s %s %s)" % (left, op, random_formula(rng, depth - 1))


def fleet_formula(rng: random.Random) -> str:
    left = random_formula(rng, 3)
    return "%s -> %s" % (left, random_formula(rng, 3))


def _generated(seed: int, logics, per_logic: int, tag: str,
               accept=None) -> List[Input]:
    """per_logic formulas per logic; with accept, only those it accepts."""
    out = []
    for logic in logics:
        rng = random.Random("%s/%d/%s" % (tag, seed, logic))
        i = 0
        while i < per_logic:
            text = fleet_formula(rng)
            if accept is None or accept(text, logic):
                out.append(Input("%s-%s-%03d" % (tag, logic, i), logic, text,
                                 FLEET, ORACLE, countermodel=(tag == "refute")))
                i += 1
    return out


# -- scaling families ---------------------------------------------------------

def _nest(op: str, xs: List[str]) -> str:
    if len(xs) == 1:
        return xs[0]
    return "(%s %s %s)" % (xs[0], op, _nest(op, xs[1:]))


def family_formula(kind: str, n: int, rng: random.Random) -> str:
    """An instance of a family: atoms get seeded names, and the right-hand
    side takes them in seeded order, or reversed for FIXED_SHAPE sizes."""
    names = rng.sample(range(1, 100), n)
    if kind == "cells":
        xs = ["(x%d |-> y%d)" % (i, i) for i in names]
    else:
        xs = ["a%d" % i for i in names]
    if (kind, n) in FIXED_SHAPE:
        ys = xs[::-1]
    else:
        ys = rng.sample(xs, n)
    if kind == "curry":       # extends t1-04
        curried = "c"
        for x in reversed(xs):
            curried = "(%s -* %s)" % (x, curried)
        return "emp -> (%s -* (%s -* c))" % (curried, _nest("*", ys))
    if kind in ("star", "cells"):   # star extends t1-10..t1-13
        return "%s -> %s" % (_nest("*", xs), _nest("*", ys))
    raise ValueError("unknown family %r" % kind)


# -- workloads ----------------------------------------------------------------

def _corpus_rows(data_dir: str, load_corpus) -> List[Input]:
    out = []
    for name in ("table1.corpus", "table2.corpus"):
        for e in load_corpus(os.path.join(data_dir, name)):
            if e.id in SLOW_ROWS:
                continue
            expect = THEOREM if e.expected == "Valid" else NON_THEOREM
            out.append(Input(e.id, e.cfg, e.formula, DEFAULT, expect))
    return out


def build(workload: str, seed: int, data_dir: str, load_corpus,
          refutable) -> List[Input]:
    """The input set of one pass.  load_corpus is pasl.cli.load_corpus;
    refutable(text, logic) tells whether the reference refutes a formula."""
    if workload == "deep":
        rng = random.Random("deep/%d" % seed)
        rows = _corpus_rows(data_dir, load_corpus)
        for kind, logic, n in DEEP_FAMILIES:
            rows.append(Input("%s-%s-%d" % (kind, logic, n), logic,
                              family_formula(kind, n, rng), DEFAULT, THEOREM))
        return rows
    if workload == "fleet":
        return _generated(seed, FLEET_LOGICS, FLEET_PER_LOGIC, "fleet")
    if workload == "refute":
        # Only formulas with a countermodel: refute measures searches that
        # must end without a proof, and theorems would mix in fleet's
        # short verdicts at a share that swings from seed to seed.
        rows = _generated(seed, REFUTE_LOGICS, REFUTE_PER_LOGIC, "refute",
                          refutable)
        # The control alone takes about 9 s; repeating it in every pass
        # would leave room for one pass of the generated formulas.
        rows.append(Input("negative-control", "pasl", NEGATIVE_CONTROL,
                          DEFAULT, ORACLE, countermodel=True, once=True))
        return rows
    raise ValueError("unknown workload %r" % workload)


WORKLOADS = ("deep", "fleet", "refute")
