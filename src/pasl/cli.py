"""Command line front end: prove formulas, run corpora, check models."""
from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import dataclass
from typing import List

from .calculus import Derivation, replay
from .config import ConfigError, LogicConfig, preset
from .formula import Formula, ParseError, parse, show
from .oracle import check_conditions, format_model, parse_model, satisfies
from .search import NotProved, ResourceExhausted, SearchLimits, Valid, prove
from .sequent import format_sequent

EXIT_VALID = 0
EXIT_NOT_PROVED = 1
EXIT_EXHAUSTED = 2
EXIT_ERROR = 3


@dataclass(slots=True)
class CorpusEntry:
    id: str
    cfg: str
    expected: str      # Valid | NotValid | NotProvedKnown
    formula: str
    goal: Formula      # formula, parsed


def load_corpus(path: str) -> List[CorpusEntry]:
    out = []
    with open(path) as fh:
        for i, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 4:
                raise ValueError("%s:%d: expected 4 tab-separated fields" % (path, i))
            ident, cfg, expected, formula = parts
            if expected not in ("Valid", "NotValid", "NotProvedKnown"):
                raise ValueError("%s:%d: bad expected verdict %r" % (path, i, expected))
            preset(cfg)          # fail early on unknown presets
            out.append(CorpusEntry(ident, cfg, expected, formula, parse(formula)))
    return out


def _limits(args) -> SearchLimits:
    return SearchLimits(
        max_rule_apps=args.max_apps,
        wall_clock_ms=args.timeout_ms,
    )


def _add_search_flags(p: argparse.ArgumentParser) -> None:
    defaults = SearchLimits()
    p.add_argument("--logic", default="bbi", help="logic preset, e.g. bbi, pasl+d, separata+")
    p.add_argument("--max-apps", type=int, default=defaults.max_rule_apps, metavar="N",
                   help="rule applications allowed in the whole search (default %(default)s)")
    p.add_argument("--timeout-ms", type=int, default=None, metavar="N")


def _render(deriv: Derivation, style: str, cfg: LogicConfig) -> List[str]:
    """One line per step, with the sequent calculus.replay applies it to."""
    lines = []
    for inst, seq, depth in replay(deriv, cfg):
        pad = "  " * depth if style == "tree" else ""
        lines.append("%s[%s] %s" % (pad, inst.rule.value, format_sequent(seq)))
    return lines


def _describe(e: Exception) -> str:
    """One line: the exception and the innermost frame that raised it."""
    tb = e.__traceback__
    while tb.tb_next is not None:
        tb = tb.tb_next
    code = tb.tb_frame.f_code
    return "%s: %s [%s:%d in %s]" % (type(e).__name__, e, os.path.basename(code.co_filename),
                                     tb.tb_lineno, code.co_name)


def cmd_prove(args) -> int:
    try:
        cfg = preset(args.logic)
        goal = parse(args.formula)
        verdict = prove(goal, cfg, _limits(args))
    except (ParseError, ConfigError, ValueError) as e:
        print("error: %s" % e, file=sys.stderr)
        return EXIT_ERROR
    if isinstance(verdict, Valid):
        # render before printing: a proof that cannot be printed must not
        # leave a verdict on stdout next to an error exit
        lines = ["Valid"]
        if args.proof:
            lines += _render(verdict.proof, args.proof, cfg)
        print("\n".join(lines))
        return EXIT_VALID
    if isinstance(verdict, NotProved):
        print("NotProved")
        print("open branch: %s" % format_sequent(verdict.open_branch))
        if verdict.countermodel is None:
            print("countermodel: none certified from the open branch")
        else:
            print("countermodel:")
            sys.stdout.write(format_model(*verdict.countermodel))
        return EXIT_NOT_PROVED
    print("ResourceExhausted (%s)" % verdict.limit)
    return EXIT_EXHAUSTED


def cmd_bench(args) -> int:
    try:
        entries = load_corpus(args.corpus)
    except (OSError, ValueError, ParseError, ConfigError) as e:
        print("error: %s" % e, file=sys.stderr)
        return EXIT_ERROR
    failures = errors = 0
    for e in entries:
        t0 = time.monotonic()
        steps = "-"
        try:
            v = prove(e.goal, preset(e.cfg), _limits(args))
            kind = type(v).__name__
            if isinstance(v, Valid):
                steps = str(v.proof.rule_count())
            ok = (kind == "Valid") if e.expected == "Valid" else (kind != "Valid")
        except Exception as exc:    # one failing row must not end the run
            print("error: %s: %s" % (e.id, _describe(exc)), file=sys.stderr)
            kind, ok = "error", False
            errors += 1
        dt = time.monotonic() - t0
        if not ok:
            failures += 1
        print("%-12s %-12s %-18s %8.3fs %6s  %s"
              % (e.id, e.cfg, kind, dt, steps, "ok" if ok else "MISMATCH"))
    print("%d/%d expectations matched" % (len(entries) - failures, len(entries)))
    if errors:
        return EXIT_ERROR
    return EXIT_VALID if failures == 0 else EXIT_NOT_PROVED


def cmd_check_model(args) -> int:
    try:
        cfg = preset(args.logic)
        with open(args.model) as fh:
            model, world = parse_model(fh.read())
        if not check_conditions(model.rel, model.size, cfg):
            print("error: model violates the frame conditions of %s" % args.logic,
                  file=sys.stderr)
            return EXIT_ERROR
        goal = parse(args.formula)
        at = args.world if args.world is not None else (world or 0)
        result = satisfies(model, at, goal)
    except (OSError, ValueError, ConfigError) as e:
        print("error: %s" % e, file=sys.stderr)
        return EXIT_ERROR
    print("%s @ %d: %s" % (show(goal), at, "true" if result else "false"))
    return EXIT_VALID


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="pasl",
        description="Theorem prover for propositional abstract separation logics.")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("prove", help="decide a single formula")
    p.add_argument("formula")
    _add_search_flags(p)
    p.add_argument("--proof", choices=("text", "tree"), default=None)
    p.set_defaults(func=cmd_prove)

    b = sub.add_parser("bench", help="run a corpus of expected verdicts")
    b.add_argument("corpus")
    _add_search_flags(b)
    b.set_defaults(func=cmd_bench)

    c = sub.add_parser("check-model", help="evaluate a formula in a saved model")
    c.add_argument("model")
    c.add_argument("formula")
    c.add_argument("--world", type=int, default=None)
    c.add_argument("--logic", default="bbi")
    c.set_defaults(func=cmd_check_model)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (RecursionError, MemoryError) as e:     # a crash must not exit as a verdict
        print("error: input too deep or too large: %s"
              % _describe(e), file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
