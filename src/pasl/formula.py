"""Formula syntax: constructors, parser, printer.

Formulae are hash-consed: building the same formula twice yields the same
object, so equality and hashing are identity based and cheap.
"""
from __future__ import annotations

import re
from typing import Dict, Iterator, Tuple


class Formula:
    __slots__ = ("kind", "args")

    _table: Dict[tuple, "Formula"] = {}

    def __new__(cls, kind: str, args: tuple) -> "Formula":
        key = (kind, args)
        cached = cls._table.get(key)
        if cached is not None:
            return cached
        self = object.__new__(cls)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "args", args)
        cls._table[key] = self
        return self

    def __setattr__(self, name, value):
        raise AttributeError("Formula is immutable")

    def __repr__(self) -> str:
        return "Formula(%s)" % show(self)

    def __str__(self) -> str:
        return show(self)


# expressions in heap atoms are plain identifiers
Expr = str

TOP = Formula("top", ())
BOT = Formula("bot", ())
EMP = Formula("emp", ())


def prop(name: str) -> Formula:
    return Formula("var", (name,))


def neg(a: Formula) -> Formula:
    return Formula("not", (a,))


def conj(a: Formula, b: Formula) -> Formula:
    return Formula("and", (a, b))


def disj(a: Formula, b: Formula) -> Formula:
    return Formula("or", (a, b))


def imp(a: Formula, b: Formula) -> Formula:
    return Formula("imp", (a, b))


def star(a: Formula, b: Formula) -> Formula:
    return Formula("star", (a, b))


def wand(a: Formula, b: Formula) -> Formula:
    return Formula("wand", (a, b))


def points_to(e1: Expr, e2: Expr) -> Formula:
    return Formula("mapsto", (e1, e2))


def expr_eq(e1: Expr, e2: Expr) -> Formula:
    return Formula("eq", (e1, e2))


def exists(v: str, body: Formula) -> Formula:
    return Formula("exists", (v, body))


def septraction(a: Formula, b: Formula) -> Formula:
    """A -o B, encoded as ~(A -* ~B)."""
    return neg(wand(a, neg(b)))


def subformulae(f: Formula) -> Iterator[Formula]:
    stack = [f]
    while stack:
        g = stack.pop()
        yield g
        if g.kind in ("var", "mapsto", "eq", "top", "bot", "emp"):
            continue
        if g.kind == "exists":
            stack.append(g.args[1])
        else:
            stack.extend(g.args)


def prop_names(f: Formula) -> frozenset:
    return frozenset(g.args[0] for g in subformulae(f) if g.kind == "var")


def free_exprs(f: Formula) -> frozenset:
    """Free expression identifiers of heap atoms, minus bound variables."""
    out = set()
    stack = [(f, frozenset())]
    while stack:
        g, bound = stack.pop()
        if g.kind in ("mapsto", "eq"):
            out.update(e for e in g.args if e not in bound)
        elif g.kind == "exists":
            stack.append((g.args[1], bound | {g.args[0]}))
        elif g.kind not in ("var", "top", "bot", "emp"):
            stack.extend((a, bound) for a in g.args)
    return frozenset(out)


def expr_names(f: Formula) -> set:
    """Expression identifiers of heap atoms and binders, free or bound."""
    out = set()
    stack = [f]
    while stack:
        g = stack.pop()
        if g.kind in ("mapsto", "eq"):
            out.update(g.args)
        elif g.kind == "exists":
            out.add(g.args[0])
            stack.append(g.args[1])
        elif g.kind not in ("var", "top", "bot", "emp"):
            stack.extend(g.args)
    return out


def has_heap(f: Formula) -> bool:
    return bool(expr_names(f))


def subst_expr(f: Formula, frm: Expr, to: Expr) -> Formula:
    """Replace free occurrences of expression frm by to.  An exists that
    binds to over a free frm renames its variable first, adding ' until the
    name is new to its body and not frm: no parsed or fresh name holds '.
    Each distinct subformula is rebuilt once, children before parents, on
    an explicit stack; its image does not depend on where it occurs."""
    if frm == to:
        return f
    done: Dict[Formula, Formula] = {}
    stack = [f]
    while stack:
        g = stack[-1]
        if g in done:
            stack.pop()
            continue
        k = g.kind
        if k in ("mapsto", "eq"):
            e1, e2 = g.args
            done[g] = Formula(k, (to if e1 == frm else e1, to if e2 == frm else e2))
        elif k in ("var", "top", "bot", "emp") or k == "exists" and g.args[0] == frm:
            done[g] = g
        else:
            args = g.args
            if k == "exists" and args[0] == to and frm in free_exprs(args[1]):
                v = to
                while v in (frm, to) or v in expr_names(args[1]):
                    v += "'"
                args = (v, subst_expr(args[1], to, v))
            todo = [a for a in args if isinstance(a, Formula) and a not in done]
            if todo:
                stack.extend(todo)
                continue
            done[g] = Formula(k, tuple(done[a] if isinstance(a, Formula) else a
                                       for a in args))
        stack.pop()
    return done[f]


# --- parsing -----------------------------------------------------------------

class ParseError(ValueError):
    def __init__(self, msg: str, pos: int):
        super().__init__("%s (at position %d)" % (msg, pos))
        self.pos = pos


# each operator symbol and Unicode alias, as the token it stands for
_SYMBOLS = {
    "⊤*": "emp", "⊤": "true", "⊥": "false", "¬": "~", "∧": "/\\", "∨": "\\/",
    "→": "->", "−∗": "-*", "−o": "-o", "∗": "*", "↦": "|->",
    **{op: op for op in ("|->", "-*", "-o", "->", "/\\", "\\/", "~", "*", "(", ")",
                         "=", ".")},
}

# a symbol, longest first, a word, or any other non-blank character; the
# blanks between matches are skipped
_TOKEN = re.compile("|".join(re.escape(t) for t in sorted(_SYMBOLS, key=len, reverse=True))
                    + r"|\w+|\S")


def _tokenize(s: str) -> list:
    """The tokens of s, each symbol as its ASCII form, then None."""
    toks = _TOKEN.findall(s)
    for k, tok in enumerate(toks):
        sym = _SYMBOLS.get(tok)
        if sym is not None:
            toks[k] = sym
        elif not (tok[0].isalpha() and tok[0].islower()):
            # identifiers start with a lowercase letter
            raise ParseError("unexpected character %r" % tok[0], _offset(s, k))
    toks.append(None)
    return toks


def _offset(s: str, k: int) -> int:
    """Where token k of s starts in s; len(s) for the end."""
    for j, m in enumerate(_TOKEN.finditer(s)):
        if j == k:
            return m.start()
    return len(s)


_KEYWORDS = {"true", "false", "emp", "exists"}

# binary connectives: precedence, right associative?, constructor
_BINARY = {
    "->": (1, True, imp), "-*": (2, True, wand), "-o": (2, True, septraction),
    "\\/": (3, False, disj), "/\\": (4, False, conj), "*": (5, False, star),
}


def _is_ident(t) -> bool:
    return t is not None and t not in _KEYWORDS and t[0].isalpha()


def parse(s: str) -> Formula:
    """The formula s denotes; ParseError if it denotes none.

    Operator precedence over an explicit stack of open contexts (the top
    level, each parenthesis and each exists body), so nesting depth is
    bounded by memory, not by Python's recursion limit.  A context holds
    its operands, its pending binary connectives, what closes it, and the
    run of ~ in front of it.  An exists body, like a parenthesis, extends
    as far as the formula goes; a connective pops the pending ones that
    bind at least as tightly, or only tighter if it associates to the
    right."""
    toks = _tokenize(s)
    i = 0
    outer = []           # the enclosing contexts, innermost last
    operands, ops, closer, negs = [], [], None, 0
    while True:
        # an operand: a run of ~, then an atom or a context that opens
        n = 0
        t = toks[i]
        i += 1
        while t == "~":
            n += 1
            t = toks[i]
            i += 1
        if t == "(" or t == "exists":
            if t == "(":
                opened = ")"
            else:
                opened = []      # the bound variables
                while _is_ident(toks[i]):
                    opened.append(toks[i])
                    i += 1
                if not opened:
                    raise ParseError("expected bound variable", _offset(s, i))
                if toks[i] != ".":
                    raise ParseError("expected '.'", _offset(s, i))
                i += 1
            outer.append((operands, ops, closer, negs))
            operands, ops, closer, negs = [], [], opened, n
            continue
        if t == "true":
            f = TOP
        elif t == "false":
            f = BOT
        elif t == "emp":
            f = EMP
        elif _is_ident(t):
            nxt = toks[i]
            if nxt == "|->" or nxt == "=":
                e = toks[i + 1]
                if not _is_ident(e):
                    raise ParseError("expected expression identifier", _offset(s, i + 1))
                i += 2
                f = points_to(t, e) if nxt == "|->" else expr_eq(t, e)
            else:
                f = prop(t)
        else:
            raise ParseError("expected formula", _offset(s, i - 1))
        for _ in range(n):
            f = neg(f)
        # a connective, or the end of the contexts the operand closes
        while True:
            operands.append(f)
            t = toks[i]
            op = _BINARY.get(t)
            if op is not None:
                prec = op[0]
                while ops and (ops[-1][0] > prec
                               or ops[-1][0] == prec and not op[1]):
                    b = operands.pop()
                    operands[-1] = ops.pop()[2](operands[-1], b)
                ops.append(op)
                i += 1
                break
            while ops:
                b = operands.pop()
                operands[-1] = ops.pop()[2](operands[-1], b)
            f = operands[0]
            if closer is None:
                if t is not None:
                    raise ParseError("trailing input", _offset(s, i))
                return f
            if closer == ")":
                if t != ")":
                    raise ParseError("expected ')'", _offset(s, i))
                i += 1
            else:
                for v in reversed(closer):
                    f = exists(v, f)
            for _ in range(negs):
                f = neg(f)
            operands, ops, closer, negs = outer.pop()


# --- printing ----------------------------------------------------------------

_PREC = {"imp": 1, "wand": 2, "or": 3, "and": 4, "star": 5, "not": 6}


def show(f: Formula) -> str:
    return _show(f, 0)


_BINARY_SHOW = {"imp": " -> ", "wand": " -* ", "or": " \\/ ", "and": " /\\ ",
                "star": " * "}


def _show(f: Formula, ctx: int) -> str:
    """f printed inside a context of precedence ctx, parenthesized where
    the context binds tighter.  Iterative: a work stack of formulas still
    to print and text to emit after them, so nesting depth is bounded by
    memory, not by Python's recursion limit."""
    out = []
    stack = [(f, ctx)]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        g, ctx = item
        k = g.kind
        if k == "var":
            out.append(g.args[0])
        elif k in ("top", "bot", "emp"):
            out.append({"top": "true", "bot": "false", "emp": "emp"}[k])
        elif k == "not":
            out.append("~")
            stack.append((g.args[0], _PREC["not"]))
        elif k in _BINARY_SHOW:
            p = _PREC[k]
            a, b = g.args
            # -> and -* associate to the right, the others to the left
            left, right = (p + 1, p) if k in ("imp", "wand") else (p, p + 1)
            paren = p < ctx
            if paren:
                out.append("(")
                stack.append(")")
            stack.extend(((b, right), _BINARY_SHOW[k], (a, left)))
        else:
            # heap atoms and exists always parenthesized in compound contexts
            paren = ctx != 0
            if paren:
                out.append("(")
                stack.append(")")
            if k == "mapsto":
                out.append("%s |-> %s" % g.args)
            elif k == "eq":
                out.append("%s = %s" % g.args)
            else:
                out.append("exists %s. " % g.args[0])
                stack.append((g.args[1], 0))
    return "".join(out)
