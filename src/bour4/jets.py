"""Forward-mode derivative propagation for scalar functions of one variable.

Jet2 carries (value, first, second derivative) and is the currency for
profile-curve components: curvature formulas consume exact derivatives, never
finite differences.  Dual carries (value, first derivative) only and is used
where second derivatives of the inputs are not available, e.g. integrands of
quadrature-defined components.  JetBlock holds the same triple for a block
of rows, as arrays.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import EvalDomainError


class Jet2:
    """Truncated Taylor triple (v, d1, d2) with exact product/chain rules."""

    __slots__ = ("v", "d1", "d2")

    def __init__(self, v, d1=0.0, d2=0.0):
        self.v = float(v)
        self.d1 = float(d1)
        self.d2 = float(d2)

    @staticmethod
    def var(u):
        return Jet2(u, 1.0, 0.0)

    @staticmethod
    def const(c):
        return Jet2(c, 0.0, 0.0)

    @staticmethod
    def _coerce(x):
        return x if isinstance(x, Jet2) else Jet2(x)

    def __repr__(self):
        return f"Jet2({self.v!r}, {self.d1!r}, {self.d2!r})"

    def __add__(self, o):
        o = Jet2._coerce(o)
        return Jet2(self.v + o.v, self.d1 + o.d1, self.d2 + o.d2)

    __radd__ = __add__

    def __sub__(self, o):
        o = Jet2._coerce(o)
        return Jet2(self.v - o.v, self.d1 - o.d1, self.d2 - o.d2)

    def __rsub__(self, o):
        return Jet2._coerce(o).__sub__(self)

    def __neg__(self):
        return Jet2(-self.v, -self.d1, -self.d2)

    def __mul__(self, o):
        o = Jet2._coerce(o)
        return Jet2(self.v * o.v,
                    self.d1 * o.v + self.v * o.d1,
                    self.d2 * o.v + 2.0 * self.d1 * o.d1 + self.v * o.d2)

    __rmul__ = __mul__

    def __truediv__(self, o):
        o = Jet2._coerce(o)
        if o.v == 0.0:
            raise EvalDomainError("division by zero")
        q = self.v / o.v
        q1 = (self.d1 - q * o.d1) / o.v
        q2 = (self.d2 - 2.0 * q1 * o.d1 - q * o.d2) / o.v
        return Jet2(q, q1, q2)

    def __rtruediv__(self, o):
        return Jet2._coerce(o).__truediv__(self)

    def _chain(self, f0, f1, f2):
        """Compose with an outer f given f(v), f'(v), f''(v)."""
        return Jet2(f0, f1 * self.d1, f2 * self.d1 * self.d1 + f1 * self.d2)

    def __pow__(self, p):
        p = float(p)
        x = self.v
        if p.is_integer():
            n = int(p)
            if x == 0.0:
                if n < 0:
                    raise EvalDomainError("zero raised to a negative power")
                f0 = 1.0 if n == 0 else 0.0
                f1 = 1.0 if n == 1 else 0.0
                f2 = 2.0 if n == 2 else 0.0
                return self._chain(f0, f1, f2)
            return self._chain(x ** n, n * x ** (n - 1), n * (n - 1) * x ** (n - 2))
        if x < 0.0:
            raise EvalDomainError(f"fractional power of negative value {x!r}")
        if x == 0.0:
            raise EvalDomainError("fractional power of zero has a singular derivative")
        return self._chain(x ** p, p * x ** (p - 1.0), p * (p - 1.0) * x ** (p - 2.0))

    def sqrt(self):
        if self.v < 0.0:
            raise EvalDomainError(f"square root of negative value {self.v!r}")
        if self.v == 0.0:
            raise EvalDomainError("square root of zero has a singular derivative")
        r = math.sqrt(self.v)
        return self._chain(r, 0.5 / r, -0.25 / (r * self.v))

    def exp(self):
        e = math.exp(self.v)
        return self._chain(e, e, e)

    def log(self):
        if self.v <= 0.0:
            raise EvalDomainError(f"log of non-positive value {self.v!r}")
        return self._chain(math.log(self.v), 1.0 / self.v, -1.0 / (self.v * self.v))

    def sin(self):
        s, c = math.sin(self.v), math.cos(self.v)
        return self._chain(s, c, -s)

    def cos(self):
        s, c = math.sin(self.v), math.cos(self.v)
        return self._chain(c, -s, -c)

    def sinh(self):
        s, c = math.sinh(self.v), math.cosh(self.v)
        return self._chain(s, c, s)

    def cosh(self):
        s, c = math.sinh(self.v), math.cosh(self.v)
        return self._chain(c, s, c)

    def tan(self):
        t = math.tan(self.v)
        sec2 = 1.0 + t * t
        return self._chain(t, sec2, 2.0 * t * sec2)

    def atan(self):
        d = 1.0 + self.v * self.v
        return self._chain(math.atan(self.v), 1.0 / d, -2.0 * self.v / (d * d))

    def asin(self):
        if abs(self.v) >= 1.0:
            raise EvalDomainError(f"asin outside (-1, 1): {self.v!r}")
        d = 1.0 - self.v * self.v
        rd = math.sqrt(d)
        return self._chain(math.asin(self.v), 1.0 / rd, self.v / (d * rd))

    def asinh(self):
        d = 1.0 + self.v * self.v
        rd = math.sqrt(d)
        return self._chain(math.asinh(self.v), 1.0 / rd, -self.v / (d * rd))


class JetBlock(NamedTuple):
    """Jet2 components (v, d1, d2) of one profile over a block of rows, as arrays."""

    v: object
    d1: object
    d2: object


class Dual:
    """First-order companion to Jet2: (value, derivative) only."""

    __slots__ = ("v", "d")

    def __init__(self, v, d=0.0):
        self.v = float(v)
        self.d = float(d)

    @staticmethod
    def from_jet(j: Jet2) -> "Dual":
        return Dual(j.v, j.d1)

    @staticmethod
    def shift(j: Jet2) -> "Dual":
        """Dual of the derivative of a Jet2-valued function: (d1, d2)."""
        return Dual(j.d1, j.d2)

    @staticmethod
    def _coerce(x):
        return x if isinstance(x, Dual) else Dual(x)

    def __repr__(self):
        return f"Dual({self.v!r}, {self.d!r})"

    def __add__(self, o):
        o = Dual._coerce(o)
        return Dual(self.v + o.v, self.d + o.d)

    __radd__ = __add__

    def __sub__(self, o):
        o = Dual._coerce(o)
        return Dual(self.v - o.v, self.d - o.d)

    def __rsub__(self, o):
        return Dual._coerce(o).__sub__(self)

    def __neg__(self):
        return Dual(-self.v, -self.d)

    def __mul__(self, o):
        o = Dual._coerce(o)
        return Dual(self.v * o.v, self.d * o.v + self.v * o.d)

    __rmul__ = __mul__

    def __truediv__(self, o):
        o = Dual._coerce(o)
        if o.v == 0.0:
            raise EvalDomainError("division by zero")
        q = self.v / o.v
        return Dual(q, (self.d - q * o.d) / o.v)

    def __rtruediv__(self, o):
        return Dual._coerce(o).__truediv__(self)

    def __pow__(self, p):
        p = float(p)
        x = self.v
        if p.is_integer():
            n = int(p)
            if x == 0.0:
                if n < 0:
                    raise EvalDomainError("zero raised to a negative power")
                return Dual(1.0 if n == 0 else 0.0, self.d if n == 1 else 0.0)
            return Dual(x ** n, n * x ** (n - 1) * self.d)
        if x <= 0.0:
            raise EvalDomainError(f"fractional power of non-positive value {x!r}")
        return Dual(x ** p, p * x ** (p - 1.0) * self.d)

    def sqrt(self):
        if self.v <= 0.0:
            raise EvalDomainError(f"square root of non-positive value {self.v!r}")
        r = math.sqrt(self.v)
        return Dual(r, 0.5 * self.d / r)
