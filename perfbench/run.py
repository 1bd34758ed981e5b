#!/usr/bin/env python3
"""Benchmark of the pasl prover.

Run from the repository root:

    python3 perfbench/run.py --workload deep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all        # every workload, one after another

Load is closed-loop: one caller in this process proves one input after
another and waits for each verdict.  Search runs unseeded.  The inputs
are made from the seed first; set-up (import, parsing the inputs and
building what pasl needs to decide them) is then timed in fresh
interpreters that get the input texts.  Passes over the input set run
until the next pass would end after --seconds, and at least MIN_PASSES
run.  Every verdict is checked against a reference outside the timed
region.  With --trace 0 the last line of output holds the
end-to-end metrics of BENCHMARK.json, with --trace 1 its per-layer
metrics; the lines before it are a report for people.  See README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import dataclasses
from dataclasses import dataclass
from typing import List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads as W                      # noqa: E402
from probes import HIT_LAYERS, LAYERS, BudgetCut, Probes  # noqa: E402
from reference import MAX_WORLDS, Reference  # noqa: E402

DEFAULT_SEED = 1
HELD_OUT_SEED = 7919        # keep for re-checking claims; do not tune on it
SETUP_PROBES = 7
MIN_PASSES = 2
# Expand calls (search, replay and check together) allowed per generated
# formula.  Replay attempts count against no SearchLimits budget, and a
# few generated formulas replay for minutes; of 2,400 others sampled, none
# needed more than 2,545 calls.  A cut input is undecided, never a pasl
# verdict.
EXPAND_BUDGET = 10000


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=W.WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


# -- set-up -------------------------------------------------------------------

def import_pasl():
    """Import pasl from this checkout; returns the package."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import pasl.cli        # noqa: F401  imports every other module
    import pasl
    return pasl


@dataclass
class Item:
    spec: W.Input
    goal: object
    cfg: object
    limits: object
    budget: Optional[int]


def make_inputs(pasl, workload: str, seed: int) -> List[W.Input]:
    """The input set: benchmark work, outside the timed set-up."""
    data = os.path.join(os.path.dirname(pasl.__file__), "data")
    ref = Reference(pasl.oracle.enumerate_frames, pasl.formula.prop_names)

    def refutable(text, logic):
        return ref.refutable(pasl.formula.parse(text), pasl.config.preset(logic))

    return W.build(workload, seed, data, pasl.cli.load_corpus, refutable)


def setup(pasl, specs: List[W.Input]) -> List[Item]:
    """What pasl needs to decide the inputs: parsed goals, logics, limits
    and, where a countermodel search follows, the oracle's frame tables."""
    from pasl.search import SearchLimits
    limits = {W.DEFAULT: SearchLimits(),
              W.FLEET: SearchLimits(max_rule_apps=20000, max_rel_atoms=800)}
    items = []
    for s in specs:
        cfg = pasl.config.preset(s.logic)
        items.append(Item(s, pasl.formula.parse(s.text), cfg, limits[s.limits],
                          EXPAND_BUDGET if s.limits == W.FLEET else None))
        if s.countermodel:      # the oracle's frame tables, built lazily otherwise
            for n in range(1, MAX_WORLDS + 1):
                pasl.oracle.enumerate_frames(n, cfg)
    return items


def time_setup(args, specs: List[W.Input]) -> List[float]:
    """Wall time from starting a fresh interpreter to inputs ready.  The
    interpreter reads the input texts from its standard input."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--setup-probe"]
    payload = json.dumps([dataclasses.asdict(s) for s in specs])
    out = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                              text=True) as proc:
            proc.stdin.write(payload)
            proc.stdin.close()
            line = proc.stdout.readline()
            dt = time.perf_counter() - t0
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError("set-up probe failed: %r" % line)
        out.append(dt)
    return out


# -- timed passes ---------------------------------------------------------------

@dataclass
class Row:
    outcome: str            # Valid, NotProved, ResourceExhausted:<limit>, cut, raised:<type>
    total_s: float          # verdict plus the countermodel search, if any
    prove_s: float
    check_s: float
    verdict: object = None  # kept on the first pass only
    model: object = None


def prove_one(pasl, it: Item, probes: Probes, keep: bool) -> Row:
    check_span = probes.spans["calculus.check"]
    clock = time.perf_counter
    probes.start_input(it.budget)
    c0 = check_span.total
    verdict = model = None
    t0 = clock()
    try:
        verdict = pasl.search.prove(it.goal, it.cfg, it.limits)
        outcome = type(verdict).__name__
        if outcome == "ResourceExhausted":
            outcome += ":" + verdict.limit
    except BudgetCut:
        outcome = "cut"
    except Exception as e:      # recorded per input; the pass goes on
        outcome = "raised:" + type(e).__name__
    t1 = clock()
    if (it.spec.countermodel and outcome != "Valid"
            and not outcome.startswith("raised")):
        model = pasl.oracle.find_countermodel(it.goal, it.cfg, MAX_WORLDS)
    t2 = clock()
    return Row(outcome, t2 - t0, t1 - t0, check_span.total - c0,
               verdict if keep else None, model)


def run_pass(pasl, items: List[Item], probes: Probes,
             first: Optional[List[Row]]) -> List[Row]:
    """One pass.  After the first, inputs marked `once` keep its row."""
    return [first[i] if first and it.spec.once
            else prove_one(pasl, it, probes, keep=not first)
            for i, it in enumerate(items)]


def run_passes(pasl, items, probes, seconds: float) -> List[List[Row]]:
    """At least MIN_PASSES passes over items, and more until the next one
    would end after `seconds`."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(pasl, items, probes, passes[0] if passes else None))
        next_s = sum(r.total_s for it, r in zip(items, passes[-1]) if not it.spec.once)
        if (len(passes) >= MIN_PASSES
                and time.perf_counter() - start + next_s > seconds):
            return passes


# -- checking -----------------------------------------------------------------

def verify(pasl, items: List[Item], passes: List[List[Row]]) -> List[str]:
    """Verdicts that contradict the reference, and other wrong outputs."""
    ref = Reference(pasl.oracle.enumerate_frames, pasl.formula.prop_names)
    wrong = []
    for i, (it, row) in enumerate(zip(items, passes[0])):
        s, out = it.spec, row.outcome
        if any(p[i].outcome != out for p in passes[1:]):
            wrong.append("%s: verdict changed between passes" % s.ident)
        if s.expect == W.THEOREM and out != "Valid":
            wrong.append("%s: theorem ended %s" % (s.ident, out))
        if s.expect == W.NON_THEOREM and out == "Valid":
            wrong.append("%s: non-theorem ended Valid" % s.ident)
        if s.expect != W.ORACLE:
            continue
        refutable = ref.refutable(it.goal, it.cfg)
        if out == "Valid" and refutable:
            wrong.append("%s: Valid, but a countermodel exists" % s.ident)
        if not s.countermodel or out == "Valid" or out.startswith("raised"):
            continue
        if (row.model is not None) != refutable:
            wrong.append("%s: oracle search and reference disagree" % s.ident)
        if row.model is not None:
            model, world = row.model
            if (not pasl.oracle.check_conditions(model.rel, model.size, it.cfg)
                    or pasl.oracle.satisfies(model, world, it.goal)):
                wrong.append("%s: countermodel does not refute the formula" % s.ident)
    return wrong


# -- metrics -----------------------------------------------------------------------

def _quantile(xs: List[float], q: int) -> float:
    """The q-th percentile (statistics.quantiles, exclusive method)."""
    if len(xs) < 2:
        return xs[0]
    return statistics.quantiles(xs, n=100)[q - 1]


def _proof_nodes(rows: List[Row]) -> int:
    return sum(r.verdict.proof.rule_count() for r in rows if r.outcome == "Valid")


def end_to_end(items, passes, wrong, setup_times) -> dict:
    first = passes[0]
    n = len(items)
    per_input = [statistics.median(p[i].total_s for p in passes) for i in range(n)]
    outcomes = [r.outcome for r in first]
    return {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(sum(r.total_s for r in p) for p in passes),
        "verdict_ms_p50": 1000 * statistics.median(per_input),
        "verdict_ms_p90": 1000 * _quantile(per_input, 90),
        "verdict_ms_p95": 1000 * _quantile(per_input, 95),
        "search_s": statistics.median(sum(r.prove_s - r.check_s for r in p)
                                      for p in passes),
        "check_s": statistics.median(sum(r.check_s for r in p) for p in passes),
        "decided_ratio": sum(o in ("Valid", "NotProved") for o in outcomes) / n,
        "failed_ratio": sum(o.startswith("raised") for o in outcomes) / n,
        "wrong_verdicts": len(wrong),
        "proof_nodes": _proof_nodes(first),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


UNITS = {"setup_s": "s", "wall_s": "s", "verdict_ms_p50": "ms",
         "verdict_ms_p90": "ms", "verdict_ms_p95": "ms", "search_s": "s",
         "check_s": "s", "decided_ratio": "ratio", "failed_ratio": "ratio",
         "wrong_verdicts": "count", "proof_nodes": "count", "peak_rss_mb": "MB"}


def per_layer(probes: Probes, first: List[Row], import_s: float,
              overhead: float) -> dict:
    out = {}
    for name, _, _, _ in LAYERS:
        span = probes.spans[name]
        out[name + ".calls"] = span.calls
        out[("search" if name == "search.prove" else name) + ".self_s"] = span.self_time
        if name in HIT_LAYERS:
            out[name + "." + HIT_LAYERS[name]] = (span.hits / span.calls
                                                  if span.calls else 0.0)
    for kind, n in probes.rule_kinds().items():
        out["calculus.expand.calls." + kind] = n
    out["search.replays"] = probes.replays
    out["search.round_cap_max"] = probes.round_cap_max
    for limit in ("relational atoms", "rule applications", "memory",
                  "structural rounds", "wall clock"):
        out["search.exhausted." + limit.replace(" ", "_")] = sum(
            r.outcome == "ResourceExhausted:" + limit for r in first)
    out["search.budget_cut"] = sum(r.outcome == "cut" for r in first)
    out["cli.import_s"] = import_s
    out["trace.overhead_ratio"] = overhead
    return out


def counters(probes: Probes, items, first: List[Row]) -> dict:
    """Every count that must repeat exactly from run to run."""
    return {
        "rules": dict(sorted(probes.rules.items())),
        "calls": {name: probes.spans[name].calls for name, _, _, _ in LAYERS},
        "hits": {name: sp.hits for name, sp in probes.spans.items() if sp.hits},
        "replays": probes.replays,
        "round_cap_max": probes.round_cap_max,
        "outcomes": {it.spec.ident: r.outcome for it, r in zip(items, first)},
        "proof_nodes": _proof_nodes(first),
    }


# -- report ---------------------------------------------------------------------

def report_rows(workload, items, passes, wrong) -> None:
    first = passes[0]
    if workload == "deep":
        for i, (it, r) in enumerate(zip(items, first)):
            ms = 1000 * statistics.median(p[i].total_s for p in passes)
            nodes = r.verdict.proof.rule_count() if r.outcome == "Valid" else 0
            print("# row %-22s %-10s %-32s %10.1f ms %7d nodes"
                  % (it.spec.ident, it.spec.logic, r.outcome, ms, nodes))
    tally = {}
    for r in first:
        tally[r.outcome] = tally.get(r.outcome, 0) + 1
    print("# outcomes %s (%d inputs, %d passes)"
          % (json.dumps(tally, sort_keys=True), len(items), len(passes)))
    for it, r in zip(items, first):
        if r.outcome.startswith("raised") or r.outcome == "cut":
            print("# %s %s [%s] %s" % (r.outcome, it.spec.ident, it.spec.logic,
                                       it.spec.text))
    for w in wrong:
        print("# WRONG %s" % w)


def result(metrics: dict, names, units, correct, attempted, failed) -> str:
    missing = [m for m in names if m not in metrics]
    if missing:
        raise KeyError("metrics not computed: %s" % missing)
    return json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {m: {"value": metrics[m], "unit": units[m]} for m in names},
    })


def run_workload(args, bench) -> int:
    t0 = time.perf_counter()
    pasl = import_pasl()
    import_s = time.perf_counter() - t0
    if args.setup_probe:
        setup(pasl, [W.Input(**s) for s in json.load(sys.stdin)])
        print("ready", flush=True)
        return 0

    specs = make_inputs(pasl, args.workload, args.seed)
    base = Probes(["calculus.check"])
    if not args.trace:
        setup_times = time_setup(args, specs)
        items = setup(pasl, specs)
        base.install()
        passes = run_passes(pasl, items, base, args.seconds)
        base.remove()
        wrong = verify(pasl, items, passes)
        metrics = end_to_end(items, passes, wrong, setup_times)
        report_rows(args.workload, items, passes, wrong)
        for name in sorted(UNITS):
            print("# %s %s %.6g %s" % (args.workload, name, metrics[name], UNITS[name]))
        print("# %s verdict_samples %d count" % (args.workload, len(items)))
        names = [m["name"] for m in bench["end_to_end"]]
        units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    else:
        traced = Probes([name for name, _, _, _ in LAYERS])
        # the reference filled the frame cache while choosing the inputs
        getattr(pasl.oracle.enumerate_frames, "cache_clear", lambda: None)()
        traced.install()
        items = setup(pasl, specs)
        traced.remove()
        # each input runs untraced and traced, in alternating order, so
        # that neither side gets the warmer caches
        plain, rows = [], []
        for i, it in enumerate(items):
            for probes in ((base, traced) if i % 2 == 0 else (traced, base)):
                probes.install()
                row = prove_one(pasl, it, probes, keep=True)
                probes.remove()
                (plain if probes is base else rows).append(row)
        plain_s = sum(r.total_s for r in plain)
        traced_s = sum(r.total_s for r in rows)
        passes = [plain, rows]
        wrong = verify(pasl, items, passes)
        metrics = per_layer(traced, rows, import_s, traced_s / plain_s - 1)
        report_rows(args.workload, items, passes, wrong)
        self_total = sum(traced.spans[n].self_time for n, _, _, _ in LAYERS)
        for name, _, _, _ in LAYERS:
            sp = traced.spans[name]
            print("# layer %-26s %9d calls %9.3f s total %9.3f s self %5.1f%%"
                  % (name, sp.calls, sp.total, sp.self_time,
                     100 * sp.self_time / self_total if self_total else 0.0))
        print("# untraced pass %.3f s, traced pass %.3f s, overhead %.1f%%"
              % (plain_s, traced_s, 100 * (traced_s / plain_s - 1)))
        print("# counters %s" % json.dumps(counters(traced, items, rows), sort_keys=True))
        names = [m["name"] for m in bench["per_layer"]]
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    failed = sum(r.outcome.startswith("raised") for r in passes[0])
    print(result(metrics, names, units, not wrong, len(items), failed), flush=True)
    return 0


def run_all(args) -> int:
    status = 0
    for w in W.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", w,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        status = max(status, subprocess.run(cmd).returncode)
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            bench = json.load(fh)
        if not os.path.isdir(os.path.join(ROOT, "src", "pasl")):
            raise FileNotFoundError("no pasl sources under %s"
                                    % os.path.join(ROOT, "src"))
    except (OSError, ValueError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args, bench)


if __name__ == "__main__":
    sys.exit(main())
