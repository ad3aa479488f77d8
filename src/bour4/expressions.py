"""Profile-curve expression language.

Closed-form curve components are given as text in one variable ``u`` plus
named constants, e.g. ``"asinh(sqrt((u^2-1)/2))"``.  Parsing produces a small
AST; evaluation propagates second-order jets so every use site gets exact
first and second derivatives.  An exponent is evaluated as a jet like every
other sub-expression, so it obeys the same domain rules.

Grammar (binding tightens downward; ``+ - * /`` associate left, ``^`` right):

    expr    := term (("+" | "-") term)*
    term    := unary (("*" | "/") unary)*
    unary   := "-" unary | power
    power   := atom ("^" unary)?          -- exponent must not contain u
    atom    := NUMBER | "u" | NAME | NAME "(" expr ")" | "(" expr ")"

Functions: sin cos sinh cosh tan atan asinh asin sqrt exp log.
"""

from __future__ import annotations

import operator
from functools import partial
from typing import Mapping

import numpy as np

from .errors import EvalDomainError, ExprSyntaxError, UnknownIdentifierError
from .jets import Jet2

_NOSPAN = (0, 0)


class Expr:
    """An expression-tree node, built from its fields in order and its span, the
    source offsets it was parsed from.  It is immutable, and compares, hashes
    and prints by its type and fields, never by its span."""

    __slots__ = ("span",)

    def __init__(self, *values, span: tuple[int, int] = _NOSPAN):
        for name, value in zip((*self._fields, "span"), (*values, span), strict=True):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __reduce__(self):  # a copy or an unpickled node is built anew, as parse builds it
        return partial(type(self), span=self.span), self._key()[1:]

    def _replace(self, **changes) -> Expr:
        values = map(changes.get, self._fields, self._key()[1:])
        return type(self)(*values, span=changes.get("span", self.span))

    def _key(self) -> tuple:
        return type(self), *(getattr(self, name) for name in self._fields)

    def __eq__(self, other) -> bool:
        return isinstance(other, Expr) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"


class Num(Expr):
    __slots__ = _fields = ("value",)


class Var(Expr):
    __slots__ = _fields = ()


class Const(Expr):
    __slots__ = _fields = ("name",)


class Neg(Expr):
    __slots__ = _fields = ("arg",)


class Bin(Expr):
    __slots__ = _fields = ("op", "left", "right")

    def __init__(self, *values, span: tuple[int, int] = _NOSPAN):
        super().__init__(*values, span=span)
        if self.op == "^" and _mentions_var(self.right):
            raise ExprSyntaxError("exponent must be a constant expression", self.right.span[0])


class Call(Expr):
    __slots__ = _fields = ("fn", "arg")


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


#: The most levels an expression may nest: parentheses, calls, negations and
#: exponents open at once, and the height of its tree (a chain of n operands
#: takes n - 1).  Parsing takes ~6 frames a level and each walk of a tree 1 to
#: 3, so all stay well within Python's default recursion limit of 1000, with
#: room for the 13 levels a shared-Gauss-map template adds.
MAX_DEPTH = 100


class _Parser:
    def __init__(self, src: str):
        self.tokens = list(_tokenize(src))
        self.pos = 0
        self.open = 0  # the parentheses, calls, negations and exponents open
        self.height = 0  # of the tree parsed last

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

    def nested(self, parse, off: int) -> Expr:
        """parse() one level further in, at off."""
        self.open += 1
        if self.open > MAX_DEPTH:
            raise ExprSyntaxError(f"expression nests more than {MAX_DEPTH} levels deep", off)
        e = parse()
        self.open -= 1
        return e

    def node(self, e: Expr, off: int, other: int = 0) -> Expr:
        """e, at off, over the tree parsed last and one of height ``other``."""
        self.height = max(self.height, other) + 1
        if self.height > MAX_DEPTH:
            raise ExprSyntaxError(f"expression nests more than {MAX_DEPTH} levels deep", off)
        return e

    def parse(self) -> Expr:
        e = self.chain()
        kind, text, off = self.peek()
        if kind != "end":
            raise ExprSyntaxError(f"unexpected '{text}'", off)
        return e

    def chain(self, ops: str = "+-") -> Expr:
        """Operands joined by the operators in ops, associating left: an
        expr for "+-", a term for "*/"."""
        operand = partial(self.chain, "*/") if ops == "+-" else self.unary
        left = operand()
        while self.peek()[0] == "op" and self.peek()[1] in ops:
            _, op, off = self.advance()
            height, right = self.height, operand()
            left = self.node(Bin(op, left, right, span=(left.span[0], right.span[1])), off, height)
        return left

    def unary(self) -> Expr:
        kind, text, off = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            arg = self.nested(self.unary, off)
            return self.node(Neg(arg, span=(off, arg.span[1])), off)
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        kind, text, off = self.peek()
        if kind == "op" and text == "^":
            self.advance()
            height, exp = self.height, self.nested(self.unary, off)
            return self.node(Bin("^", base, exp, span=(base.span[0], exp.span[1])), off, height)
        return base

    def atom(self) -> Expr:
        kind, text, off = self.advance()
        self.height = 0
        if kind == "num":
            return Num(float(text), span=(off, off + len(text)))
        if kind == "name":
            if text == "u":
                return Var(span=(off, off + len(text)))
            nkind, ntext, _ = self.peek()
            if nkind == "op" and ntext == "(":
                if text not in FUNCTIONS:
                    raise UnknownIdentifierError(text, off)
                self.advance()
                arg = self.nested(self.chain, off)
                close = self.expect_op(")")
                return self.node(Call(text, arg, span=(off, close[2] + 1)), off)
            return Const(text, span=(off, off + len(text)))
        if kind == "op" and text == "(":
            e = self.nested(self.chain, off)
            close = self.expect_op(")")
            return e._replace(span=(off, close[2] + 1))
        if kind == "end":
            raise ExprSyntaxError("unexpected end of input", off)
        raise ExprSyntaxError(f"unexpected '{text}'", off)


def _children(e: Expr) -> dict:
    """The direct sub-expressions of e, by field name."""
    return {name: x for name in e._fields if isinstance(x := getattr(e, name), Expr)}


def _mentions_var(e: Expr) -> bool:
    return isinstance(e, Var) or any(map(_mentions_var, _children(e).values()))


def parse(src: str) -> Expr:
    """Parse source text into an Expr tree.

    Raises ExprSyntaxError (with byte offset) on malformed input or input
    nested more than MAX_DEPTH levels deep, and UnknownIdentifierError for a
    call to an unknown function.
    """
    return _Parser(src).parse()


# ---------------------------------------------------------------------------
# evaluation

def eval_jet(e: Expr, u, consts: Mapping[str, float] | None = None) -> Jet2:
    """Evaluate e and its first two u-derivatives at u, a float or an array.

    On a float, domain violations, float overflow and divisors that underflow
    to zero raise EvalDomainError naming the offending sub-expression.  On an
    array, every field of the result is an array of u's shape, and the
    elements where the float call would raise are not finite (NaN for a
    domain violation), without a warning; a violation in a sub-expression
    free of u raises on arrays too.
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
        op, args = _BINARY[e.op], (_eval(e.left, uj, consts), _eval(e.right, uj, consts))
    elif isinstance(e, Call):
        op, args = getattr(Jet2, e.fn), (_eval(e.arg, uj, consts),)
    else:
        raise TypeError(f"not an Expr node: {e!r}")
    try:
        return op(*args)
    except EvalDomainError as exc:  # a jet check, which cannot name the node
        raise EvalDomainError(str(exc), to_source(e)) from None
    except (OverflowError, ZeroDivisionError) as exc:
        raise EvalDomainError(_FLOAT_FAILURES[type(exc)], to_source(e)) from None


#: The jet operation of each binary operator; an exponent is free of u, so
#: its value alone is the power.
_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul,
           "/": operator.truediv, "^": lambda base, exponent: base ** exponent.v}


#: Float arithmetic errors: an overflow, and a divisor that underflowed to 0.
_FLOAT_FAILURES = {OverflowError: "value overflows", ZeroDivisionError: "division by zero"}


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
    if isinstance(e, Const):
        return replacements.get(e.name, e)
    return e._replace(**{name: substitute(child, replacements)
                         for name, child in _children(e).items()})
