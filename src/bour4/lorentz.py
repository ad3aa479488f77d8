"""Linear algebra of Minkowski 4-space and its bivector space.

The ambient space is R^4 with the indefinite inner product

    <x, y> = x1*y1 + x2*y2 + x3*y3 - x4*y4

of signature (+, +, +, -).  Oriented tangent planes of surfaces live in the
space of 2-vectors Lambda^2, spanned by e_i ^ e_j for i < j; the induced
inner product there has signature (+, +, -, +, -, -), so Lambda^2 is a
pseudo-Euclidean 6-space of index 3.

Every function here, and the geometry built on it, takes either Python floats
(one point) or numpy arrays of a common broadcast shape (a block of grid
points) in the fields of a Vec4 or Bivector6.  The helpers below are the only
places where the two cases part: a branch on a Python bool is a plain ``if``,
one on an array is a mask.
"""

from __future__ import annotations

import functools
import math
from enum import Enum
from typing import NamedTuple

import numpy as np


#: Points evaluated together in one array call (a block of sweep rows or a
#: batch of quadrature nodes), so that temporaries stay small at any size.
BLOCK_POINTS = 4096


def xp(x):
    """The namespace of elementary functions for x: numpy for arrays, math otherwise."""
    return np if isinstance(x, np.ndarray) else math


def where(cond, a, b):
    """a where cond holds, b elsewhere; fieldwise through nested tuples, whose
    types b sets (a may be one value for every field)."""
    if cond is True or cond is False or not isinstance(cond, np.ndarray):
        return a if cond else b
    if isinstance(b, tuple):
        parts = [where(cond, x, y)
                 for x, y in zip(a if isinstance(a, tuple) else (a,) * len(b), b)]
        return type(b)(*parts) if hasattr(b, "_fields") else tuple(parts)
    return np.where(cond, a, b)


def any_(cond) -> bool:
    """Whether cond holds anywhere."""
    return bool(cond.any()) if isinstance(cond, np.ndarray) else bool(cond)


def flag(bad, error, message: str, *args):
    """A failed check: raise ``error(message.format(*args))`` when ``bad`` is true.

    An array check raises nothing: the mask of failed points is returned, and
    the caller poisons them with NaN so that a sweep can find and re-run them
    one at a time.  A scalar check that passes returns False.
    """
    if bad is False:
        return False
    if isinstance(bad, np.ndarray):
        return bad
    if bad:
        raise error(message.format(*args))
    return False


def sup(*values):
    """The largest of the values; pointwise when one is an array (the others
    broadcast against it)."""
    if any(isinstance(x, np.ndarray) for x in values):
        return functools.reduce(np.maximum, values)
    return max(values)


class CausalClass(Enum):
    SPACELIKE = "spacelike"
    TIMELIKE = "timelike"
    LIGHTLIKE = "lightlike"


class Vec4(NamedTuple):
    x1: float
    x2: float
    x3: float
    x4: float

    #: numpy defers to the reflected operators, so array * Vec4 is a Vec4
    __array_ufunc__ = None

    def __add__(self, other):
        return Vec4(self.x1 + other.x1, self.x2 + other.x2,
                    self.x3 + other.x3, self.x4 + other.x4)

    def __sub__(self, other):
        return Vec4(self.x1 - other.x1, self.x2 - other.x2,
                    self.x3 - other.x3, self.x4 - other.x4)

    def __neg__(self):
        return Vec4(-self.x1, -self.x2, -self.x3, -self.x4)

    def __mul__(self, c: float):
        return Vec4(self.x1 * c, self.x2 * c, self.x3 * c, self.x4 * c)

    __rmul__ = __mul__

    def euclid_sq(self) -> float:
        return self.x1 * self.x1 + self.x2 * self.x2 + self.x3 * self.x3 + self.x4 * self.x4


ZERO4 = Vec4(0.0, 0.0, 0.0, 0.0)
E1 = Vec4(1.0, 0.0, 0.0, 0.0)
E2 = Vec4(0.0, 1.0, 0.0, 0.0)
E3 = Vec4(0.0, 0.0, 1.0, 0.0)
E4 = Vec4(0.0, 0.0, 0.0, 1.0)

_SQRT2 = math.sqrt(2.0)
#: Null basis pair spanning the e3/e4 plane: xi3 = (e4 - e3)/sqrt2, xi4 = (e3 + e4)/sqrt2,
#: with <xi3,xi3> = <xi4,xi4> = 0 and <xi3,xi4> = -1.
XI3 = Vec4(0.0, 0.0, -1.0 / _SQRT2, 1.0 / _SQRT2)
XI4 = Vec4(0.0, 0.0, 1.0 / _SQRT2, 1.0 / _SQRT2)


def minkowski_dot(x: Vec4, y: Vec4) -> float:
    """Indefinite inner product of signature (+, +, +, -)."""
    return x.x1 * y.x1 + x.x2 * y.x2 + x.x3 * y.x3 - x.x4 * y.x4


def causal_character(v: Vec4) -> CausalClass:
    """Classify v by the sign of <v, v>.

    The zero vector counts as spacelike.  Lightlike means <v,v> = 0 with
    v != 0; in floating point the test is |<v,v>| <= 1e-12 * |v|_euclid^2.
    """
    e = v.euclid_sq()
    if e == 0.0:
        return CausalClass.SPACELIKE
    s = minkowski_dot(v, v)
    if abs(s) <= 1e-12 * e:
        return CausalClass.LIGHTLIKE
    return CausalClass.SPACELIKE if s > 0.0 else CausalClass.TIMELIKE


class Bivector6(NamedTuple):
    """2-vector with components on e_i ^ e_j in the order (12, 13, 14, 23, 24, 34)."""

    b12: float
    b13: float
    b14: float
    b23: float
    b24: float
    b34: float

    __array_ufunc__ = None

    def __add__(self, other):
        return Bivector6(*(a + b for a, b in zip(tuple(self), tuple(other))))

    def __sub__(self, other):
        return Bivector6(*(a - b for a, b in zip(tuple(self), tuple(other))))

    def __neg__(self):
        return Bivector6(*(-a for a in tuple(self)))

    def __mul__(self, c: float):
        return Bivector6(*(a * c for a in tuple(self)))

    __rmul__ = __mul__

    def sup_norm(self) -> float:
        return sup(*map(abs, self))


#: Self-products of the basis 2-vectors (e1^e2, e1^e3, e1^e4, e2^e3, e2^e4, e3^e4):
#: <e_i^e_j, e_i^e_j> = <e_i,e_i><e_j,e_j>, so index 3 (three minus signs).
BIVECTOR_SIGNATURE = (1.0, 1.0, -1.0, 1.0, -1.0, -1.0)


def wedge(x: Vec4, y: Vec4) -> Bivector6:
    """Exterior product; component on e_i ^ e_j is x_i*y_j - x_j*y_i."""
    return Bivector6(
        x.x1 * y.x2 - x.x2 * y.x1,
        x.x1 * y.x3 - x.x3 * y.x1,
        x.x1 * y.x4 - x.x4 * y.x1,
        x.x2 * y.x3 - x.x3 * y.x2,
        x.x2 * y.x4 - x.x4 * y.x2,
        x.x3 * y.x4 - x.x4 * y.x3,
    )


def bivector_dot(a: Bivector6, b: Bivector6) -> float:
    """Induced inner product on 2-vectors.

    On decomposables it equals det [[<x,z>, <x,t>], [<y,z>, <y,t>]] for
    a = x^y, b = z^t, which diagonalizes with BIVECTOR_SIGNATURE on the
    e_i ^ e_j basis.
    """
    return (a.b12 * b.b12 + a.b13 * b.b13 - a.b14 * b.b14
            + a.b23 * b.b23 - a.b24 * b.b24 - a.b34 * b.b34)


def pseudo_to_standard(p1: float, p2: float, p3: float, p4: float) -> Vec4:
    """Coordinates on the null-pair basis {e1, e2, xi3, xi4} -> standard coordinates."""
    return Vec4(p1, p2, (p4 - p3) / _SQRT2, (p3 + p4) / _SQRT2)


def standard_to_pseudo(v: Vec4) -> tuple[float, float, float, float]:
    """Inverse of :func:`pseudo_to_standard`."""
    return (v.x1, v.x2, (v.x4 - v.x3) / _SQRT2, (v.x3 + v.x4) / _SQRT2)


_PSEUDO_BASIS = (E1, E2, XI3, XI4)
_PSEUDO_WEDGES = tuple(
    wedge(_PSEUDO_BASIS[i], _PSEUDO_BASIS[j])
    for i in range(4) for j in range(i + 1, 4)
)


def bivector_from_pseudo(c12, c13, c14, c23, c24, c34) -> Bivector6:
    """Assemble a 2-vector given components on the wedge basis of {e1, e2, xi3, xi4}."""
    coeffs = (c12, c13, c14, c23, c24, c34)
    out = Bivector6(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    for c, w in zip(coeffs, _PSEUDO_WEDGES):
        used = c != 0.0
        if any_(used):
            out = where(used, out + w * c, out)
    return out
