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


def size(f: Formula) -> int:
    n = 0
    stack = [f]
    while stack:
        g = stack.pop()
        n += 1
        if g.kind in ("var", "mapsto", "eq", "top", "bot", "emp"):
            continue
        if g.kind == "exists":
            stack.append(g.args[1])
        else:
            stack.extend(g.args)
    return n


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


def has_heap(f: Formula) -> bool:
    return any(g.kind in ("mapsto", "eq", "exists") for g in subformulae(f))


def free_exprs(f: Formula) -> frozenset:
    """Free expression identifiers of heap atoms, minus bound variables."""
    out = set()

    def go(g: Formula, bound: frozenset) -> None:
        if g.kind in ("mapsto", "eq"):
            out.update(e for e in g.args if e not in bound)
        elif g.kind == "exists":
            go(g.args[1], bound | {g.args[0]})
        elif g.kind not in ("var", "top", "bot", "emp"):
            for a in g.args:
                go(a, bound)

    go(f, frozenset())
    return frozenset(out)


def subst_expr(f: Formula, frm: Expr, to: Expr) -> Formula:
    """Replace free occurrences of expression frm by to."""
    if frm == to:
        return f
    if f.kind in ("mapsto", "eq"):
        e1, e2 = f.args
        return Formula(f.kind, (to if e1 == frm else e1, to if e2 == frm else e2))
    if f.kind == "exists":
        v, body = f.args
        if v == frm:
            return f
        return Formula("exists", (v, subst_expr(body, frm, to)))
    if f.kind in ("var", "top", "bot", "emp"):
        return f
    return Formula(f.kind, tuple(subst_expr(a, frm, to) for a in f.args))


# --- parsing -----------------------------------------------------------------

class ParseError(ValueError):
    def __init__(self, msg: str, pos: int):
        super().__init__("%s (at position %d)" % (msg, pos))
        self.pos = pos


_ALIASES = [
    ("⊤*", "emp"), ("⊤", "true"), ("⊥", "false"),
    ("¬", "~"), ("∧", "/\\"), ("∨", "\\/"), ("→", "->"),
    ("−∗", "-*"), ("−o", "-o"), ("∗", "*"), ("↦", "|->"),
]

# an operator symbol, a word, or any other non-blank character; the
# blanks between matches are skipped
_TOKEN = re.compile(r"(\|->|-\*|-o|->|/\\|\\/|[~*()=.])|(\w+)|(\S)")


def _tokenize(s: str) -> list:
    for uni, asc in _ALIASES:
        s = s.replace(uni, asc)
    toks = []
    for m in _TOKEN.finditer(s):
        tok, i = m.group(), m.start()
        if m.lastindex != 1 and not (tok[0].isalpha() and tok[0].islower()):
            # identifiers start with a lowercase letter
            raise ParseError("unexpected character %r" % tok[0], i)
        toks.append((tok, i))
    toks.append((None, len(s)))
    return toks


_KEYWORDS = {"true", "false", "emp", "exists"}

# binary connectives: precedence, right associative?, constructor
_BINARY = {
    "->": (1, True, imp), "-*": (2, True, wand), "-o": (2, True, septraction),
    "\\/": (3, False, disj), "/\\": (4, False, conj), "*": (5, False, star),
}


class _Parser:
    def __init__(self, toks):
        self.toks = toks
        self.i = 0

    def peek(self):
        return self.toks[self.i][0]

    def pos(self):
        return self.toks[self.i][1]

    def next(self):
        tok = self.toks[self.i]
        self.i += 1
        return tok[0]

    def expect(self, tok):
        if self.peek() != tok:
            raise ParseError("expected %r" % tok, self.pos())
        self.next()

    def is_ident(self):
        t = self.peek()
        return t is not None and t not in _KEYWORDS and t[0].isalpha()

    def formula(self, min_prec: int = 1) -> Formula:
        """Precedence climbing: the longest formula whose top-level binary
        connectives all bind at least as tightly as min_prec."""
        left = self.unary()
        while True:
            op = _BINARY.get(self.peek())
            if op is None or op[0] < min_prec:
                return left
            prec, right_assoc, build = op
            self.next()
            left = build(left, self.formula(prec if right_assoc else prec + 1))

    def unary(self) -> Formula:
        if self.peek() == "~":
            self.next()
            return neg(self.unary())
        return self.atom()

    def atom(self) -> Formula:
        t = self.peek()
        if t == "(":
            self.next()
            f = self.formula()
            self.expect(")")
            return f
        if t == "true":
            self.next()
            return TOP
        if t == "false":
            self.next()
            return BOT
        if t == "emp":
            self.next()
            return EMP
        if t == "exists":
            self.next()
            vs = []
            while self.is_ident():
                vs.append(self.next())
            if not vs:
                raise ParseError("expected bound variable", self.pos())
            self.expect(".")
            body = self.formula()
            for v in reversed(vs):
                body = exists(v, body)
            return body
        if self.is_ident():
            name = self.next()
            if self.peek() == "|->":
                self.next()
                return points_to(name, self._expr())
            if self.peek() == "=":
                self.next()
                return expr_eq(name, self._expr())
            return prop(name)
        raise ParseError("expected formula", self.pos())

    def _expr(self) -> Expr:
        if not self.is_ident():
            raise ParseError("expected expression identifier", self.pos())
        return self.next()


def parse(s: str) -> Formula:
    p = _Parser(_tokenize(s))
    f = p.formula()
    if p.peek() is not None:
        raise ParseError("trailing input", p.pos())
    return f


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
