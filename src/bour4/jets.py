"""Forward-mode derivative propagation for scalar functions of one variable.

Jet2 carries (value, first, second derivative) and is the currency for
profile-curve components: curvature formulas consume exact derivatives, never
finite differences.  Dual carries (value, first derivative) only and is used
where second derivatives of the inputs are not available, e.g. integrands of
quadrature-defined components.

Both carry Python floats (one point) or numpy arrays (many points: a block
of sweep rows, a level of quadrature nodes), as the geometry of lorentz.py
does.  A domain check raises EvalDomainError on a float; on an array the
failed elements become NaN (see lorentz.flag), and the caller that batched
the points re-runs the first failed one on floats for its error.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import EvalDomainError
from .lorentz import flag, where, xp


def _poison(bad, *fields):
    """The fields with NaN where the array mask ``bad`` holds."""
    if not bad.any():
        return fields
    return tuple(where(bad, math.nan, x) for x in fields)


class Jet2:
    """Truncated Taylor triple (v, d1, d2) with exact product/chain rules."""

    __slots__ = ("v", "d1", "d2")

    def __init__(self, v, d1=0.0, d2=0.0):
        self.v = v
        self.d1 = d1
        self.d2 = d2

    @staticmethod
    def var(u):
        """The independent variable at u: a float, or a float array of points."""
        return Jet2(np.asarray(u, dtype=float) if isinstance(u, np.ndarray) else float(u),
                    1.0, 0.0)

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
        bad = flag(o.v == 0.0, EvalDomainError, "division by zero")
        q = self.v / o.v
        q1 = (self.d1 - q * o.d1) / o.v
        q2 = (self.d2 - 2.0 * q1 * o.d1 - q * o.d2) / o.v
        return Jet2(q, q1, q2) if bad is False else Jet2(*_poison(bad, q, q1, q2))

    def __rtruediv__(self, o):
        return Jet2._coerce(o).__truediv__(self)

    def _chain(self, f0, f1, f2, bad=False):
        """Compose with an outer f given f(v), f'(v), f''(v); NaN where bad."""
        f1, f2 = f1 * self.d1, f2 * self.d1 * self.d1 + f1 * self.d2
        return Jet2(f0, f1, f2) if bad is False else Jet2(*_poison(bad, f0, f1, f2))

    def __pow__(self, p):
        p = float(p)
        x = self.v
        if p.is_integer():
            n = int(p)
            bad = flag(x == 0.0, EvalDomainError,
                       "zero raised to a negative power") if n < 0 else False
            # a power of x whose factor is 0 is never formed, so x = 0 needs
            # no case of its own
            return self._chain(x ** n, n * x ** (n - 1) if n else 0.0,
                               n * (n - 1) * x ** (n - 2) if n not in (0, 1) else 0.0, bad)
        bad = (flag(x < 0.0, EvalDomainError, "fractional power of negative value {!r}", x)
               | flag(x == 0.0, EvalDomainError,
                      "fractional power of zero has a singular derivative"))
        return self._chain(x ** p, p * x ** (p - 1.0), p * (p - 1.0) * x ** (p - 2.0), bad)

    def sqrt(self):
        x = self.v
        bad = (flag(x < 0.0, EvalDomainError, "square root of negative value {!r}", x)
               | flag(x == 0.0, EvalDomainError, "square root of zero has a singular derivative"))
        r = xp(x).sqrt(x)
        return self._chain(r, 0.5 / r, -0.25 / (r * x), bad)

    def exp(self):
        e = xp(self.v).exp(self.v)
        return self._chain(e, e, e)

    def log(self):
        x = self.v
        bad = flag(x <= 0.0, EvalDomainError, "log of non-positive value {!r}", x)
        return self._chain(xp(x).log(x), 1.0 / x, -1.0 / (x * x), bad)

    def sin(self):
        m = xp(self.v)
        s, c = m.sin(self.v), m.cos(self.v)
        return self._chain(s, c, -s)

    def cos(self):
        m = xp(self.v)
        s, c = m.sin(self.v), m.cos(self.v)
        return self._chain(c, -s, -c)

    def sinh(self):
        m = xp(self.v)
        s, c = m.sinh(self.v), m.cosh(self.v)
        return self._chain(s, c, s)

    def cosh(self):
        m = xp(self.v)
        s, c = m.sinh(self.v), m.cosh(self.v)
        return self._chain(c, s, c)

    def tan(self):
        t = xp(self.v).tan(self.v)
        sec2 = 1.0 + t * t
        return self._chain(t, sec2, 2.0 * t * sec2)

    def atan(self):
        x = self.v
        d = 1.0 + x * x
        return self._chain(xp(x).atan(x), 1.0 / d, -2.0 * x / (d * d))

    def asin(self):
        x = self.v
        bad = flag(abs(x) >= 1.0, EvalDomainError, "asin outside (-1, 1): {!r}", x)
        m = xp(x)
        d = 1.0 - x * x
        rd = m.sqrt(d)
        return self._chain(m.asin(x), 1.0 / rd, x / (d * rd), bad)

    def asinh(self):
        x = self.v
        m = xp(x)
        d = 1.0 + x * x
        rd = m.sqrt(d)
        return self._chain(m.asinh(x), 1.0 / rd, -x / (d * rd))


class Dual:
    """First-order companion to Jet2: (value, derivative) only."""

    __slots__ = ("v", "d")

    def __init__(self, v, d=0.0):
        self.v = v
        self.d = d

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
        bad = flag(o.v == 0.0, EvalDomainError, "division by zero")
        q = self.v / o.v
        d = (self.d - q * o.d) / o.v
        return Dual(q, d) if bad is False else Dual(*_poison(bad, q, d))

    def __rtruediv__(self, o):
        return Dual._coerce(o).__truediv__(self)

    def __pow__(self, p):
        p = float(p)
        x = self.v
        if p.is_integer():
            n = int(p)
            bad = flag(x == 0.0, EvalDomainError,
                       "zero raised to a negative power") if n < 0 else False
            v, d = x ** n, (n * x ** (n - 1) if n else 0.0) * self.d
        else:
            bad = flag(x <= 0.0, EvalDomainError,
                       "fractional power of non-positive value {!r}", x)
            v, d = x ** p, p * x ** (p - 1.0) * self.d
        return Dual(v, d) if bad is False else Dual(*_poison(bad, v, d))

    def sqrt(self):
        x = self.v
        bad = flag(x <= 0.0, EvalDomainError, "square root of non-positive value {!r}", x)
        r = xp(x).sqrt(x)
        d = 0.5 * self.d / r
        return Dual(r, d) if bad is False else Dual(*_poison(bad, r, d))
