"""Profile-curve expression language.

Closed-form curve components are given as text in one variable ``u`` plus
named constants, e.g. ``"asinh(sqrt((u^2-1)/2))"``.  Parsing produces a small
AST; evaluation propagates second-order jets so every use site gets exact
first and second derivatives.

Grammar (binding tightens downward; ``+ - * /`` associate left, ``^`` right):

    expr    := term (("+" | "-") term)*
    term    := unary (("*" | "/") unary)*
    unary   := "-" unary | power
    power   := atom ("^" unary)?          -- exponent must not contain u
    atom    := NUMBER | "u" | NAME | NAME "(" expr ")" | "(" expr ")"

Functions: sin cos sinh cosh tan atan asinh asin sqrt exp log.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Union

import numpy as np

from .errors import EvalDomainError, ExprSyntaxError, UnknownIdentifierError
from .jets import Jet2

Span = tuple
_NOSPAN = (0, 0)


@dataclass(frozen=True)
class Num:
    value: float
    span: Span = field(default=_NOSPAN, compare=False, repr=False)


@dataclass(frozen=True)
class Var:
    span: Span = field(default=_NOSPAN, compare=False, repr=False)


@dataclass(frozen=True)
class Const:
    name: str
    span: Span = field(default=_NOSPAN, compare=False, repr=False)


@dataclass(frozen=True)
class Neg:
    arg: "Expr"
    span: Span = field(default=_NOSPAN, compare=False, repr=False)


@dataclass(frozen=True)
class Bin:
    op: str
    left: "Expr"
    right: "Expr"
    span: Span = field(default=_NOSPAN, compare=False, repr=False)


@dataclass(frozen=True)
class Call:
    fn: str
    arg: "Expr"
    span: Span = field(default=_NOSPAN, compare=False, repr=False)


Expr = Union[Num, Var, Const, Neg, Bin, Call]

FUNCTIONS = ("sin", "cos", "sinh", "cosh", "tan", "atan",
             "asinh", "asin", "sqrt", "exp", "log")


# ---------------------------------------------------------------------------
# tokenizer

_OPS = "+-*/^()"


def _tokenize(src: str):
    """Yield (kind, text, offset) triples; kinds: num, name, op, end."""
    i, n = 0, len(src)
    while i < n:
        c = src[i]
        if c.isspace():
            i += 1
            continue
        if c.isdigit() or (c == "." and i + 1 < n and src[i + 1].isdigit()):
            j = i
            while j < n and (src[j].isdigit() or src[j] == "."):
                j += 1
            if j < n and src[j] in "eE":
                k = j + 1
                if k < n and src[k] in "+-":
                    k += 1
                if k < n and src[k].isdigit():
                    j = k
                    while j < n and src[j].isdigit():
                        j += 1
            text = src[i:j]
            try:
                float(text)
            except ValueError:
                raise ExprSyntaxError(f"malformed number '{text}'", i) from None
            yield ("num", text, i)
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            yield ("name", src[i:j], i)
            i = j
            continue
        if c in _OPS:
            yield ("op", c, i)
            i += 1
            continue
        raise ExprSyntaxError(f"unexpected character {c!r}", i)
    yield ("end", "", n)


class _Parser:
    def __init__(self, src: str):
        self.src = src
        self.tokens = list(_tokenize(src))
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op):
        kind, text, off = self.peek()
        if kind != "op" or text != op:
            raise ExprSyntaxError(f"expected '{op}'", off)
        return self.advance()

    def parse(self) -> Expr:
        e = self.expr()
        kind, text, off = self.peek()
        if kind != "end":
            raise ExprSyntaxError(f"unexpected '{text}'", off)
        return e

    def expr(self) -> Expr:
        left = self.term()
        while True:
            kind, text, off = self.peek()
            if kind == "op" and text in "+-":
                self.advance()
                right = self.term()
                left = Bin(text, left, right, (left.span[0], right.span[1]))
            else:
                return left

    def term(self) -> Expr:
        left = self.unary()
        while True:
            kind, text, off = self.peek()
            if kind == "op" and text in "*/":
                self.advance()
                right = self.unary()
                left = Bin(text, left, right, (left.span[0], right.span[1]))
            else:
                return left

    def unary(self) -> Expr:
        kind, text, off = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            arg = self.unary()
            return Neg(arg, (off, arg.span[1]))
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        kind, text, off = self.peek()
        if kind == "op" and text == "^":
            self.advance()
            exponent = self.unary()
            if _mentions_var(exponent):
                raise ExprSyntaxError("exponent must be a constant expression",
                                      exponent.span[0])
            return Bin("^", base, exponent, (base.span[0], exponent.span[1]))
        return base

    def atom(self) -> Expr:
        kind, text, off = self.advance()
        if kind == "num":
            return Num(float(text), (off, off + len(text)))
        if kind == "name":
            if text == "u":
                return Var((off, off + len(text)))
            nkind, ntext, _ = self.peek()
            if nkind == "op" and ntext == "(":
                if text not in FUNCTIONS:
                    raise UnknownIdentifierError(text, off)
                self.advance()
                arg = self.expr()
                close = self.expect_op(")")
                return Call(text, arg, (off, close[2] + 1))
            return Const(text, (off, off + len(text)))
        if kind == "op" and text == "(":
            e = self.expr()
            close = self.expect_op(")")
            return _respan(e, (off, close[2] + 1))
        if kind == "end":
            raise ExprSyntaxError("unexpected end of input", off)
        raise ExprSyntaxError(f"unexpected '{text}'", off)


def _respan(e: Expr, span: Span) -> Expr:
    cls = type(e)
    kwargs = {f: getattr(e, f) for f in e.__dataclass_fields__ if f != "span"}
    return cls(span=span, **kwargs)


def _mentions_var(e: Expr) -> bool:
    if isinstance(e, Var):
        return True
    if isinstance(e, Neg):
        return _mentions_var(e.arg)
    if isinstance(e, Bin):
        return _mentions_var(e.left) or _mentions_var(e.right)
    if isinstance(e, Call):
        return _mentions_var(e.arg)
    return False


def parse(src: str) -> Expr:
    """Parse source text into an Expr tree.

    Raises ExprSyntaxError (with byte offset) on malformed input and
    UnknownIdentifierError for a call to an unknown function.
    """
    return _Parser(src).parse()


# ---------------------------------------------------------------------------
# evaluation

def eval_const(e: Expr, consts: Mapping[str, float]) -> float:
    """Evaluate a constant subtree (no u) to a plain float."""
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Const):
        try:
            return float(consts[e.name])
        except KeyError:
            raise UnknownIdentifierError(e.name, e.span[0]) from None
    if isinstance(e, Neg):
        return -eval_const(e.arg, consts)
    if isinstance(e, Bin):
        a = eval_const(e.left, consts)
        if e.op == "^":
            return a ** eval_const(e.right, consts)
        b = eval_const(e.right, consts)
        if e.op == "+":
            return a + b
        if e.op == "-":
            return a - b
        if e.op == "*":
            return a * b
        if b == 0.0:
            raise EvalDomainError("division by zero", to_source(e))
        return a / b
    if isinstance(e, Call):
        try:
            return getattr(math, e.fn)(eval_const(e.arg, consts))
        except ValueError:
            raise EvalDomainError("out-of-domain argument", to_source(e)) from None
    raise UnknownIdentifierError("u", e.span[0])


def eval_jet(e: Expr, u, consts: Mapping[str, float] | None = None) -> Jet2:
    """Evaluate e and its first two u-derivatives at u, a float or an array.

    On a float, domain violations and float overflow raise EvalDomainError
    naming the offending sub-expression.  On an array, every field of the
    result is an array of u's shape, and the elements where the float call
    would raise are not finite (NaN for a domain violation), without a
    warning; a violation in a sub-expression free of u raises on arrays too.
    """
    consts = consts or {}
    if not isinstance(u, np.ndarray):
        return _eval(e, Jet2.var(u), consts)
    with np.errstate(all="ignore"):
        j = _eval(e, Jet2.var(u), consts)
    shape = np.shape(u)
    return Jet2(*(np.broadcast_to(c, shape) for c in (j.v, j.d1, j.d2)))


def _eval(e: Expr, uj: Jet2, consts) -> Jet2:
    if isinstance(e, Num):
        return Jet2.const(e.value)
    if isinstance(e, Var):
        return uj
    if isinstance(e, Const):
        try:
            return Jet2.const(float(consts[e.name]))
        except KeyError:
            raise UnknownIdentifierError(e.name, e.span[0]) from None
    if isinstance(e, Neg):
        return -_eval(e.arg, uj, consts)
    if isinstance(e, Bin):
        left = _eval(e.left, uj, consts)
        try:
            if e.op == "^":
                return left ** eval_const(e.right, consts)
            right = _eval(e.right, uj, consts)
            if e.op == "+":
                return left + right
            if e.op == "-":
                return left - right
            if e.op == "*":
                return left * right
            return left / right
        except EvalDomainError as exc:
            raise _with_context(exc, e) from None
        except OverflowError:
            raise EvalDomainError("value overflows", to_source(e)) from None
    if isinstance(e, Call):
        arg = _eval(e.arg, uj, consts)
        try:
            return getattr(arg, e.fn)()
        except EvalDomainError as exc:
            raise _with_context(exc, e) from None
        except OverflowError:
            raise EvalDomainError("value overflows", to_source(e)) from None
    raise TypeError(f"not an Expr node: {e!r}")


def _with_context(exc: EvalDomainError, node: Expr) -> EvalDomainError:
    if exc.subexpr is None:
        return EvalDomainError(str(exc), to_source(node))
    return exc


# ---------------------------------------------------------------------------
# printing

_PREC = {"+": 10, "-": 10, "*": 20, "/": 20, "neg": 30, "^": 40, "atom": 50}


def to_source(e: Expr) -> str:
    """Render an Expr back to parseable text: parse(to_source(t)) == t."""
    return _print(e, 0)


def _print(e: Expr, parent_prec: int) -> str:
    if isinstance(e, Num):
        text = repr(e.value)
        return text[:-2] if text.endswith(".0") else text
    if isinstance(e, Var):
        return "u"
    if isinstance(e, Const):
        return e.name
    if isinstance(e, Neg):
        inner = _print(e.arg, _PREC["neg"])
        out = f"-{inner}"
        return f"({out})" if parent_prec > _PREC["neg"] else out
    if isinstance(e, Call):
        return f"{e.fn}({_print(e.arg, 0)})"
    prec = _PREC[e.op]
    # left-assoc operators need parens when the right child has equal precedence
    left = _print(e.left, prec if e.op != "^" else prec + 1)
    right = _print(e.right, prec + 1 if e.op != "^" else prec)
    out = f"{left}{e.op}{right}" if e.op == "^" else f"{left} {e.op} {right}"
    return f"({out})" if parent_prec > prec else out


def substitute(e: Expr, replacements: Mapping[str, Expr]) -> Expr:
    """Replace named constants by whole subtrees (used to build derived profiles)."""
    if isinstance(e, Const) and e.name in replacements:
        return replacements[e.name]
    if isinstance(e, Neg):
        return Neg(substitute(e.arg, replacements), e.span)
    if isinstance(e, Bin):
        return Bin(e.op, substitute(e.left, replacements),
                   substitute(e.right, replacements), e.span)
    if isinstance(e, Call):
        return Call(e.fn, substitute(e.arg, replacements), e.span)
    return e
