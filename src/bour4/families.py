"""The three spacelike helicoidal families and their rotational counterparts.

A helicoidal surface is the orbit of a profile curve gamma(u) under a
one-parameter group of Lorentz isometries exp(vA) = I + f1(v) A + f2(v) A^2,
plus the translation lam v t along the group's axis t (A t = 0), with pitch
lam >= 0 (lam = 0 gives the plain rotational surface):

    kind I    rotation in e1/e2, t = e4   X = (x cos v, x sin v, z, w + lam v)
    kind II   boost in e3/e4, t = e1      X = (x + lam v, y, w sinh v, w cosh v)
    kind III  null rotation, t = xi3      X = x e1 + sqrt2 v w e2 + (z + v^2 w + lam v) xi3 + w xi4

with (f1, f2) = (sin v, 1 - cos v), (sinh v, cosh v - 1) and (v, v^2/2),
where x, z (or y), w are functions of u.  What a kind is lives in one
record, ``FAMILIES[kind]``: its profile names and default v-domain, its
group, from which ``orbit_jet`` builds the exact parametric jets of every
kind, its closed-form metric, frames, second fundamental forms and Gauss
maps (which the generic engine cross-checks), and the data of its
shared-Gauss-map pairs (minimality ODE, identity).  ``bour`` derives Bour's
construction from the group and the closed-form metric.  Profile jets may
hold floats (one u) or arrays (a block of u rows), and v a float or an
array that broadcasts against them.
"""

from __future__ import annotations

import json
import math
from enum import Enum
from functools import cached_property
from typing import Callable, Mapping, NamedTuple

import numpy as np

from .errors import FrameFailureError, NotSpacelikeError, NumericalError, ValidationError
from .expressions import Expr, eval_jet, parse, to_source
from .grids import Grid, require_finite, rows, scan, spans
from .jets import Jet2
from .lorentz import (E1, E2, E3, E4, XI3, Bivector6, Vec4, bivector_from_pseudo, flag,
                      pseudo_to_standard, wedge, where, xp)
from .quadrature import Antiderivative
from .surfaces import CurvatureReport, FirstForm, Frame, SurfaceJet, finalize_first_form

SQRT2 = math.sqrt(2.0)


class SurfaceKind(str, Enum):
    I = "I"
    II = "II"
    III = "III"


class SecondForm(NamedTuple):
    """Second-form coefficients b_jk = <X_jk, N> on one normal N."""

    b11: float
    b12: float
    b22: float


class Family(NamedTuple):
    """What one kind is.  Each formula takes the pitch lam, then the profile
    jets in ``names`` order, floats or arrays alike.  A formula or datum the
    kind lacks is None."""

    names: tuple[str, str, str]
    v_domain: tuple[float, float]
    group: Callable  # v -> M: M(p, q, r) is exp(vA) of the profile point with components p, q, r
    generator: Callable  # A: Vec4 -> Vec4
    coefficients: Callable  # s -> (f1(s), f2(s)): exp(sA) = I + f1 A + f2 A^2
    kernel: tuple[Vec4, Vec4]  # the kernel of A; its first vector is the axis t
    metric: Callable  # (lam, *jets) -> (g11, g12, g22, W); d(vbar)/du is g12/g22
    frame: Callable  # (lam, *jets, v, u, W, sqrt W) -> (frame failure, b1, b2, N1, N2)
    gauss: Callable  # (lam, *jets, v, 1/sqrt W) -> the unit Gauss 2-vector
    closed_shift: Callable | None = None  # (lam, *jets) -> vbar - v, a Jet2 in u; no table
    identity: Callable | None = None  # (lam, *jets) -> what a shared Gauss map makes 0
    action: Mapping | None = None  # from the generator, by ``_action``

    def profile(self, pj: Mapping[str, Jet2]) -> list[Jet2]:
        """The profile jets of a name -> jet map, in name order."""
        return [pj[name] for name in self.names]

    def orbit(self, x: np.ndarray, sizes: list[int], lams: list[float]) -> tuple:
        """(x, Ax, A^2 x, lam t) of Vec4s (size 4) and Bivector6s (6) of
        pitches ``lams``, stacked fieldwise in x: the screw motion by s moves
        each to x + f1(s) Ax + f2(s) A^2 x + s lam t.  A acts on a Bivector6
        as a derivation, A(a ^ b) = Aa ^ b + a ^ Ab, whose cube is A's
        multiple as on vectors (-A, A or 0), so f1 and f2 hold there too."""
        shape, at = (-1,) + (1,) * (x.ndim - 1), np.cumsum([0, *sizes])
        # each field of Ax adds its two terms, 0-padded, to 0.0 one by one
        i, c = np.array([[(a + j, f) for j, f in t + [(0, 0.0)] * (2 - len(t))]
                         for k, a in zip(sizes, at) for t in self.action[k]]).T
        i, c = i.astype(np.intp), c.reshape(c.shape + shape[1:])
        A = lambda y: sum((y[k] * f for k, f in zip(i, c)), 0.0)  # noqa: E731
        lt = [lam * np.array(self.kernel[0]) if lam else np.zeros(k)
              for k, lam in zip(sizes, lams)]
        ax = A(x)
        return x, ax, A(ax), np.concatenate(lt).reshape(shape)


# ---------------------------------------------------------------------------
# kind I: rotation in the e1/e2 plane, (x cos v, x sin v, z, w + lam v)

def _rotation(v):
    cv, sv = xp(v).cos(v), xp(v).sin(v)
    return lambda x, z, w: Vec4(x * cv, x * sv, z, w)


# squares are products: a float's ** 2 raises OverflowError where x * x is inf
def _metric_I(lam, x, z, w):
    xx, P, ww = x.v * x.v, x.d1 * x.d1 + z.d1 * z.d1, w.d1 * w.d1
    g22 = xx - lam * lam
    return P - ww, -lam * w.d1, g22, g22 * P - xx * ww


def _frame_I(lam, x, z, w, v, u, W, rW):
    sqrt = xp(W).sqrt
    P = x.d1 ** 2 + z.d1 ** 2
    bad = flag(P <= 0.0, FrameFailureError, "x'^2 + z'^2 vanishes at u = {!r}", u)
    rP, rWP = sqrt(P), sqrt(W * P)
    b1 = SecondForm((x.d2 * z.d1 - x.d1 * z.d2) / rP,
                    0.0,
                    -x.v * z.d1 / rP)
    b2 = SecondForm(
        x.v * (w.d1 * (x.d1 * x.d2 + z.d1 * z.d2) - w.d2 * P) / rWP,
        lam * x.d1 * rP / rW,
        -x.v ** 2 * x.d1 * w.d1 / rWP)
    cv, sv = xp(v).cos(v), xp(v).sin(v)
    N1 = Vec4(z.d1 * cv / rP, z.d1 * sv / rP, -x.d1 / rP, 0.0)
    c = 1.0 / (rW * rP)
    N2 = Vec4((x.v * x.d1 * w.d1 * cv - lam * P * sv) * c,
              (x.v * x.d1 * w.d1 * sv + lam * P * cv) * c,
              x.v * z.d1 * w.d1 * c,
              x.v * P * c)
    return bad, b1, b2, N1, N2


def _gauss_I(lam, x, z, w, v, c):
    cv, sv = xp(v).cos(v), xp(v).sin(v)
    return Bivector6(
        x.v * x.d1 * c,
        x.v * z.d1 * sv * c,
        (lam * x.d1 * cv + x.v * w.d1 * sv) * c,
        -x.v * z.d1 * cv * c,
        (lam * x.d1 * sv - x.v * w.d1 * cv) * c,
        lam * z.d1 * c)


def _identity_I(lam, x, z, w):
    return (lam ** 2 * (x.v * x.d1 * w.d2 + w.d1 * (2 * x.d1 ** 2 - x.v * x.d2))
            + x.v ** 2 * (w.d1 * (w.d1 ** 2 - x.d1 ** 2)
                          + x.v * (x.d2 * w.d1 - x.d1 * w.d2)))


# ---------------------------------------------------------------------------
# kind II: boost in the e3/e4 plane, (x + lam v, y, w sinh v, w cosh v)

def _boost(v):
    ch, sh = xp(v).cosh(v), xp(v).sinh(v)
    return lambda x, y, w: Vec4(x, y, w * sh, w * ch)


def _metric_II(lam, x, y, w):
    xx, yy, ww, g22 = x.d1 * x.d1, y.d1 * y.d1, w.d1 * w.d1, w.v * w.v + lam * lam
    return xx + yy - ww, lam * x.d1, g22, g22 * (yy - ww) + xx * (w.v * w.v)


def _frame_II(lam, x, y, w, v, u, W, rW):
    sqrt = xp(W).sqrt
    Q = w.d1 ** 2 - y.d1 ** 2
    bad = flag(Q <= 0.0, FrameFailureError, "w'^2 - y'^2 = {!r} <= 0 at u = {!r}", Q, u)
    rQ, rWQ = sqrt(Q), sqrt(W * Q)
    b1 = SecondForm((y.d2 * w.d1 - y.d1 * w.d2) / rQ,
                    0.0,
                    -w.v * y.d1 / rQ)
    b2 = SecondForm(
        w.v * (x.d1 * (y.d1 * y.d2 - w.d1 * w.d2) + x.d2 * Q) / rWQ,
        -lam * w.d1 * rQ / rW,
        -x.d1 * w.v ** 2 * w.d1 / rWQ)
    ch, sh = xp(v).cosh(v), xp(v).sinh(v)
    N1 = Vec4(0.0, w.d1 / rQ, y.d1 * sh / rQ, y.d1 * ch / rQ)
    c = 1.0 / (rW * rQ)
    N2 = Vec4(w.v * Q * c,
              x.d1 * y.d1 * w.v * c,
              (x.d1 * w.v * w.d1 * sh - lam * Q * ch) * c,
              (x.d1 * w.v * w.d1 * ch - lam * Q * sh) * c)
    return bad, b1, b2, N1, N2


def _gauss_II(lam, x, y, w, v, c):
    ch, sh = xp(v).cosh(v), xp(v).sinh(v)
    return Bivector6(
        -lam * y.d1 * c,
        (x.d1 * w.v * ch - lam * w.d1 * sh) * c,
        (x.d1 * w.v * sh - lam * w.d1 * ch) * c,
        y.d1 * w.v * ch * c,
        y.d1 * w.v * sh * c,
        -w.v * w.d1 * c)


def _identity_II(lam, x, y, w):
    return lam * (x.d1 * w.d1 ** 2 * (2 * lam ** 2 + w.v ** 2)
                  - w.v ** 2 * x.d1 ** 3
                  + w.v * (lam ** 2 + w.v ** 2) * (x.d2 * w.d1 - x.d1 * w.d2))


# ---------------------------------------------------------------------------
# kind III: null rotation, x e1 + sqrt2 v w e2 + (z + v^2 w + lam v) xi3 + w xi4

def _null_rotation(v):
    vv = v * v
    return lambda x, z, w: Vec4(x, SQRT2 * v * w, (w - (z + vv * w)) / SQRT2,
                                (z + vv * w + w) / SQRT2)


def _metric_III(lam, x, z, w):
    g11, g22 = x.d1 * x.d1 - 2.0 * w.d1 * z.d1, 2.0 * w.v * w.v
    return g11, -lam * w.d1, g22, g22 * g11 - lam * lam * (w.d1 * w.d1)


def _frame_III(lam, x, z, w, v, u, W, rW):
    bad = flag(w.d1 == 0.0, FrameFailureError, "w' vanishes at u = {!r}", u)
    b1 = SecondForm((x.d2 * w.d1 - x.d1 * w.d2) / w.d1, 0.0, 0.0)
    b2 = SecondForm(
        SQRT2 * w.v * (x.d1 * x.d2 * w.d1 - x.d1 ** 2 * w.d2
                       + w.d1 * (z.d1 * w.d2 - w.d1 * z.d2)) / (w.d1 * rW),
        SQRT2 * lam * w.d1 ** 2 / rW,
        -2.0 * SQRT2 * w.v ** 2 * w.d1 / rW)
    N1 = pseudo_to_standard(1.0, 0.0, x.d1 / w.d1, 0.0)
    N2 = pseudo_to_standard(
        SQRT2 * x.d1 * w.v / rW,
        w.d1 * (lam + 2.0 * v * w.v) / rW,
        SQRT2 * (x.d1 ** 2 * w.v + v * v * w.v * w.d1 ** 2
                 + lam * v * w.d1 ** 2 - w.v * w.d1 * z.d1) / (w.d1 * rW),
        SQRT2 * w.v * w.d1 / rW)
    return bad, b1, b2, N1, N2


def _gauss_III(lam, x, z, w, v, c):
    return bivector_from_pseudo(
        SQRT2 * x.d1 * w.v * c,
        x.d1 * (lam + 2.0 * v * w.v) * c,
        0.0,
        SQRT2 * (v * v * w.v * w.d1 - w.v * z.d1 + lam * v * w.d1) * c,
        -SQRT2 * w.v * w.d1 * c,
        -w.d1 * (lam + 2.0 * v * w.v) * c)


def _action(A: Callable) -> dict:
    """A on Vec4 (4) and, as a derivation, on Bivector6 (6), from A on the
    basis: per field of Ax, the (field, factor) pairs of its nonzero terms."""
    e = (E1, E2, E3, E4)
    return {len(m): [[(j, c) for j, c in enumerate(r) if c] for r in zip(*m)]
            for m in (list(map(A, e)), [wedge(A(a), b) + wedge(a, A(b))
                                        for i, a in enumerate(e) for b in e[i + 1:]])}


FAMILIES = {kind: fam._replace(action=_action(fam.generator)) for kind, fam in {
    SurfaceKind.I: Family(
        ("x", "z", "w"), (0.0, 2.0 * math.pi), _rotation,
        lambda p: Vec4(-p.x2, p.x1, 0.0, 0.0), lambda s: (xp(s).sin(s), 1.0 - xp(s).cos(s)),
        (E4, E3), _metric_I, _frame_I, _gauss_I, identity=_identity_I),
    SurfaceKind.II: Family(
        ("x", "y", "w"), (-math.pi / 4.0, math.pi / 4.0), _boost,
        lambda p: Vec4(0.0, 0.0, p.x4, p.x3), lambda s: (xp(s).sinh(s), xp(s).cosh(s) - 1.0),
        (E1, E2), _metric_II, _frame_II, _gauss_II, identity=_identity_II),
    SurfaceKind.III: Family(
        ("x", "z", "w"), (-math.pi, math.pi), _null_rotation,
        lambda p: Vec4(0.0, p.x3 + p.x4, -p.x2, p.x2), lambda s: (s, 0.5 * s * s),
        (XI3, E1), _metric_III, _frame_III, _gauss_III,
        closed_shift=lambda lam, x, z, w: lam / (2.0 * w)),
}.items()}


# ---------------------------------------------------------------------------
# helicoid specs

class _HelicoidFields(NamedTuple):
    kind: SurfaceKind
    pitch: float
    profile: tuple[tuple[str, Expr], ...]
    domain: tuple[float, float]
    constants: tuple[tuple[str, float], ...] = ()
    v_domain: tuple[float, float] | None = None


class HelicoidSpec(_HelicoidFields):
    v_offset = 0.0  # helicoid_jet adds it to v, as for a RotationalSpec

    @property
    def exprs(self) -> dict[str, Expr]:
        return dict(self.profile)

    @property
    def consts(self) -> dict[str, float]:
        return dict(self.constants)

    @property
    def v_range(self) -> tuple[float, float]:
        return self.v_domain if self.v_domain is not None else FAMILIES[self.kind].v_domain

    @property
    def rotational(self) -> bool:
        """Zero pitch: the surface is a plain rotational surface."""
        return self.pitch == 0.0

    @cached_property
    def vbar(self) -> VbarMap:
        """The angular map, built on first use and kept in ``__dict__``, which == and hash skip."""
        return VbarMap(self)


def read_json(text: str):
    """json.loads, an integer past Python's digit limit for int() read as a
    power of ten of as many digits: no float holds either, and ``_shown``
    shows both by their digit count."""
    def integer(digits: str) -> int:
        try:
            return int(digits)
        except ValueError:
            return (-1 if digits[0] == "-" else 1) * 10 ** (len(digits.lstrip("-")) - 1)

    return json.loads(text, parse_int=integer)


def _shown(value) -> str:
    """repr of a spec value, an integer of more than 17 digits (also in a
    list) shown by its digit count."""
    if isinstance(value, list):
        return "[" + ", ".join(map(_shown, value)) + "]"
    if isinstance(value, int) and not -10**17 < value < 10**17:
        n = abs(value)
        k = int(math.log10(n)) + 1  # str(n) fails past the digit limit
        return f"an integer of {k + (n >= 10**k) - (n < 10**(k - 1))} digits"
    return repr(value)


def _number(value, what: str) -> float:
    try:
        if isinstance(value, (str, bool)):  # not numbers, whatever float() makes of them
            raise TypeError
        x = float(value)
    except (TypeError, ValueError):
        raise ValidationError(f"{what} must be a number, got {_shown(value)}") from None
    except OverflowError:  # an int too large for a float
        x = math.inf
    if not math.isfinite(x):
        raise ValidationError(f"{what} must be finite, got {_shown(value)}")
    return x


def _interval(value, what: str) -> tuple[float, float]:
    try:
        a, b = value
    except (TypeError, ValueError):
        raise ValidationError(f"{what} must be two numbers, got {_shown(value)}") from None
    a, b = _number(a, what), _number(b, what)
    if not math.isfinite(b - a):
        raise ValidationError(f"{what} {_shown(value)} is too wide: its width overflows")
    return a, b


def make_helicoid(kind, pitch: float, profile: Mapping[str, "str | Expr"],
                  domain, constants: Mapping[str, float] | None = None,
                  v_domain=None) -> HelicoidSpec:
    try:
        kind = SurfaceKind(kind)
    except ValueError:
        raise ValidationError(f"unknown kind {kind!r} (expected I, II or III)") from None
    names = FAMILIES[kind].names
    if not isinstance(profile, Mapping):
        raise ValidationError("'profile' must map component names to expressions")
    if set(profile) != set(names):
        raise ValidationError(
            f"kind {kind.value} profile needs components {names}, got {sorted(profile)}")
    for name, e in profile.items():
        if not isinstance(e, (str, Expr)):
            raise ValidationError(
                f"profile component {name!r} must be an expression string, got {_shown(e)}")
    pitch = _number(pitch, "lambda")
    if pitch < 0.0:
        raise ValidationError(f"pitch must be a finite number >= 0, got {pitch!r}")
    a, b = _interval(domain, "domain")
    if not a < b:
        raise ValidationError(f"bad u-domain {domain!r}")
    exprs = tuple(sorted(
        (name, parse(e) if isinstance(e, str) else e) for name, e in profile.items()))
    if not isinstance(constants or {}, Mapping):
        raise ValidationError(f"constants must map names to numbers, got {constants!r}")
    consts = tuple(sorted((k, _number(v, f"constant {k!r}"))
                          for k, v in (constants or {}).items()))
    vd = None if v_domain is None else _interval(v_domain, "v_domain")
    return HelicoidSpec(kind, pitch, exprs, (a, b), consts, vd)


def profile_jets(surface: "HelicoidSpec | RotationalSpec", u) -> dict[str, Jet2]:
    """The profile jets of either surface at u (a float or an array), under
    the kind's profile names."""
    if isinstance(surface, RotationalSpec):
        return dict(zip(FAMILIES[surface.kind].names,
                        (surface.n(u), surface.s(u), surface.r(u))))
    consts = surface.consts
    return {name: eval_jet(e, u, consts) for name, e in surface.profile}


class _Varies(Exception):
    """A domain sample where a profile component's derivative is not negligible."""


def is_constant_profile(spec: HelicoidSpec, name: str) -> bool:
    """True when the component's derivative is within 1e-12 of 0 at 64 domain
    samples.

    Like a loop over the samples, the scan stops at the first one where the
    derivative does not vanish: a failure beyond it raises nothing.
    """
    expr, consts = spec.exprs[name], spec.consts

    def slope(u):
        d1 = eval_jet(expr, u, consts).d1
        return where(flag(abs(d1) > 1e-12, _Varies, ""), math.nan, d1)

    try:
        scan(spec.domain, 64, slope)
    except _Varies:
        return False
    return True


# ---------------------------------------------------------------------------
# the reparametrized angle

def angular_rate(spec: HelicoidSpec, pj: Mapping[str, Jet2], u):
    """d(vbar)/du = g12/g22 of the kind's closed-form metric, from the
    profile jets pj at u (floats or arrays): Bour's change of angle, the same
    for every kind.  g22 <= 0 fails (``lorentz.flag``): NaN on arrays, a
    NotSpacelikeError naming u on floats."""
    fam = FAMILIES[spec.kind]
    _, g12, g22, _ = fam.metric(spec.pitch, *fam.profile(pj))
    bad = flag(g22 <= 0.0, NotSpacelikeError,
               "g22 = {!r} <= 0 at u = {!r}: the v-curves are not spacelike", g22, u)
    return where(bad, math.nan, g12 / g22)


class VbarMap:
    """The angular correspondence (u, v) -> vbar = v + shift(u) of one helicoid.

    ``du(u)`` is the exact derivative of the shift, ``angular_rate``.  The
    shift is kind III's closed antiderivative, 0 at pitch 0, or else a table
    built with the map by adaptive quadrature of ``du`` (which takes a float
    or an array of u).
    """

    def __init__(self, spec: HelicoidSpec):
        lam, fam = spec.pitch, FAMILIES[spec.kind]
        self.du = lambda u: angular_rate(spec, profile_jets(spec, u), u)
        self._table = None
        if fam.closed_shift is not None:
            self.shift = lambda u: fam.closed_shift(lam, *fam.profile(profile_jets(spec, u))).v
        elif lam == 0.0:
            self.shift = lambda u: 0.0
        else:
            self._table = self.shift = Antiderivative(self.du, *spec.domain)

    def __call__(self, u: float, v: float) -> float:
        return v + self.shift(u)


# ---------------------------------------------------------------------------
# parametric jets

def _along(p: Vec4, c, t: Vec4) -> Vec4:
    """p + c t, added only in the nonzero slots of t, so that the others keep a -0.0."""
    (p1, p2, p3, p4), (t1, t2, t3, t4) = p, t
    return Vec4(p1 + c * t1 if t1 else p1, p2 + c * t2 if t2 else p2,
                p3 + c * t3 if t3 else p3, p4 + c * t4 if t4 else p4)


def orbit_jet(fam: Family, lam: float, pj: Mapping[str, Jet2], v) -> SurfaceJet:
    """The exact jet of X = M gamma + lam v t at angle v, with M = exp(vA)
    and gamma the profile of the jets pj: Xu = M gamma', Xv = A M gamma +
    lam t, Xuu = M gamma'', Xuv = A M gamma', Xvv = A^2 M gamma."""
    M, A, t = fam.group(v), fam.generator, fam.kernel[0]
    p, q, r = fam.profile(pj)
    X, Xu = M(p.v, q.v, r.v), M(p.d1, q.d1, r.d1)
    AX = A(X)
    return SurfaceJet(_along(X, lam * v, t), Xu, _along(AX, lam, t),
                      M(p.d2, q.d2, r.d2), A(Xu), A(AX))


def helicoid_jet(surface: "HelicoidSpec | RotationalSpec", u, v,
                 profile: Mapping[str, Jet2] | None = None) -> SurfaceJet:
    """The exact surface jet of either surface at (u, v), floats or arrays
    that broadcast, from its ``profile_jets`` at u unless ``profile`` gives
    them; a rotational surface is the pitch-0 helicoid at angle v + v_offset."""
    pj = profile_jets(surface, u) if profile is None else profile
    return orbit_jet(FAMILIES[surface.kind], surface.pitch, pj, v + surface.v_offset)


# ---------------------------------------------------------------------------
# the orbit reduction: rows evaluated at v = 0 and spread along v

#: How far a value moved by the group may lie from the direct route's y:
#: sup |x - y| / max(1, sup |y|) over the fields of a Vec4 or Bivector6, per
#: unit of (|g11 g22| + g12^2) / |W| of y's first form, the cancellation in W
#: by which rounding moves y.  A wrong action misses by about ORBIT_CHECK_V.
ORBIT_TOL = 1e-12
#: The angle of every orbit check: far out, wide kind-II windows cost the direct route its digits.
ORBIT_CHECK_V = 0.5


def orbit_sweep(fam: Family, grid: Grid, row: Callable, tolerated: tuple = ()) -> tuple:
    """Evaluate ``row(u, vc)`` on the grid's u column (``grids.rows``) and
    spread what the group moves along v.

    ``row`` returns the outputs that hold along v, the (value, pitch) pairs
    that the group moves (``Family.orbit``), both at v = 0, and (value,
    pitch, direct, first form) checks: the value moved to vc = ORBIT_CHECK_V
    must lie within ORBIT_TOL of the direct route's there, or a
    NumericalError names u.  Returns the block of rows, whose ``tolerated``
    rows failed, the fixed outputs of the others, and, for each block of the
    grid's rows (``grids.spans``), the moved values' fields at each point of
    its other rows (fields, rows, v), finite."""
    vs, form, vc = grid.vs(), [], ORBIT_CHECK_V

    def f(u):  # the fixed outputs, the moved and checked values, the direct values and forms
        out, moved, checked = row(u, vc)
        values = [*moved, *((x, lam) for x, lam, *_ in checked)]
        form[:] = [len(out), len(moved), [len(x) for x, _ in values], [lam for _, lam in values]]
        return (*out, *(c for x, _ in values for c in x),
                *(c for *_, y, _ in checked for c in y), *(c for *_, ff in checked for c in ff))

    block = rows(grid, f, tolerated)
    us = [u for i, u in enumerate(block.axes[0]) if i not in block.tolerated]
    kept = np.delete(block.out, block.tolerated, axis=1) if block.tolerated else block.out
    n, m, sizes, lams = form
    at = np.cumsum([n, *sizes])  # the rows of kept where each value starts
    x, ax, a2x, lt = fam.orbit(kept[n:at[-1]], sizes, lams)
    # the checked values moved to vc by the coefficients spread along v, and
    # their deviation from the direct route's y, the largest of each row's
    p, (f1, f2), checks = at[m] - n, fam.coefficients(vc), at[m:-1] - at[m]
    y, ff = np.split(kept[at[-1]:], [at[-1] - at[m]])
    g11, g12, g22, W = ff.reshape(len(checks), 4, -1).swapaxes(0, 1)
    size = np.maximum(np.maximum.reduceat(np.abs(y), checks), 1.0) * (
        np.abs(g11 * g22) + g12 * g12) / np.abs(W)
    miss = np.abs(x[p:] + f1 * ax[p:] + f2 * a2x[p:] + vc * lt[p:] - y)
    dev = (np.maximum.reduceat(miss, checks) / size).max(axis=0, initial=0.0)
    bad = np.flatnonzero(~(dev <= ORBIT_TOL))
    if bad.size:
        raise NumericalError(f"the group moves a row {dev[bad[0]]:.3g} off the direct route "
                             f"at u = {us[bad[0]]!r}, v = {vc!r}")
    x, ax, a2x, lt = (np.broadcast_to(c, x.shape)[:p, :, None] for c in (x, ax, a2x, lt))
    v = np.array(vs)
    f1, f2 = fam.coefficients(v)
    pitched = np.flatnonzero(lt.any(axis=(1, 2)))
    # only a product of more than 1e300 can overflow: else no block is searched
    safe = (max(np.abs(c).max(initial=0.0) for c in (x, ax, a2x, lt)) * 4.0
            * np.abs([f1, f2, v]).max(initial=1.0) < 1e300)

    # the kept rows of each block of the grid's rows (``grids.spans``), maybe none
    ends = np.searchsorted(np.delete(np.arange(grid.nu), block.tolerated),
                           [s.stop for s in spans(grid.nu, len(vs))])

    def blocks():
        buf = np.empty((len(x), np.diff(ends, prepend=0).max(initial=0), len(vs)))
        for span in map(slice, [0, *ends[:-1]], ends):
            out = buf[:, :span.stop - span.start]
            np.add(np.multiply(ax[:, span], f1, out=out), x[:, span], out=out)
            out += a2x[:, span] * f2
            for i in pitched:
                out[i] += lt[i, span] * v
            if not safe:
                require_finite(us[span], vs, out)
            yield out

    return block, kept[:n], blocks()


# ---------------------------------------------------------------------------
# closed-form metric

def closed_form_metric_from_profile(kind: SurfaceKind, lam: float,
                                    pj: Mapping[str, Jet2]) -> FirstForm:
    fam = FAMILIES[kind]
    return finalize_first_form(*fam.metric(lam, *fam.profile(pj)), require_spacelike=True)


def closed_form_metric(spec: HelicoidSpec, u: float) -> FirstForm:
    return closed_form_metric_from_profile(spec.kind, spec.pitch, profile_jets(spec, u))


# ---------------------------------------------------------------------------
# closed-form frames, second fundamental forms and curvature

def _closed_form_pass(spec: HelicoidSpec, u: float, v: float, profile=None
                      ) -> tuple[FirstForm, Vec4, Vec4, SecondForm, SecondForm]:
    """Metric, explicit normal pair and second forms from the profile jets
    at u (``profile`` when given).

    The kind's frame precondition is checked before g11 > 0, so a profile
    that leaves the family's frame convention is named as such.
    """
    lam, pj = spec.pitch, profile_jets(spec, u) if profile is None else profile
    fam = FAMILIES[spec.kind]
    ff = closed_form_metric_from_profile(spec.kind, lam, pj)
    bad, b1, b2, N1, N2 = fam.frame(lam, *fam.profile(pj), v, u, ff.W, xp(ff.W).sqrt(ff.W))
    bad = bad | flag(ff.g11 <= 0.0, FrameFailureError, "g11 = {!r} <= 0 at u = {!r}",
                     ff.g11, u)
    b1, b2, N1, N2 = where(bad, math.nan, (b1, b2, N1, N2))
    return ff, N1, N2, b1, b2


def closed_form_frame(spec: HelicoidSpec, u: float, v: float) -> Frame:
    """The families' explicit orthonormal frames (N1 spacelike, N2 timelike),
    with the tangent pair from Xu and Xv of ``helicoid_jet``."""
    (ff, N1, N2, _, _), jet = _closed_form_pass(spec, u, v), helicoid_jet(spec, u, v)
    sqrt = xp(ff.W).sqrt
    return Frame(jet.Xu * (1.0 / sqrt(ff.g11)),
                 (jet.Xv * ff.g11 - jet.Xu * ff.g12) * (1.0 / sqrt(ff.W * ff.g11)), N1, N2)


def closed_form_curvatures(spec: HelicoidSpec, u: float, v: float,
                           profile: Mapping[str, Jet2] | None = None) -> CurvatureReport:
    """Mean curvature components, mean curvature vector, and Gauss curvature,
    from the profile jets at u (``profile`` when given).

    Built from the families' explicit frames and second-form coefficients,
    assembled through the standard component formulas; this route never
    touches the generic normal projection.
    """
    ff, N1, N2, b1, b2 = _closed_form_pass(spec, u, v, profile)
    H1 = (b1.b11 * ff.g22 - 2.0 * b1.b12 * ff.g12 + b1.b22 * ff.g11) / (2.0 * ff.W)
    H2 = (b2.b11 * ff.g22 - 2.0 * b2.b12 * ff.g12 + b2.b22 * ff.g11) / (2.0 * ff.W)
    Hvec = N1 * (Frame.eps1 * H1) + N2 * (Frame.eps2 * H2)
    K = (Frame.eps1 * (b1.b11 * b1.b22 - b1.b12 ** 2)
         + Frame.eps2 * (b2.b11 * b2.b22 - b2.b12 ** 2)) / ff.W
    return CurvatureReport(ff, H1, H2, Hvec, K)


def closed_form_gauss(spec: HelicoidSpec, u: float, v: float) -> Bivector6:
    """The families' explicit Gauss-map component patterns (unit 2-vector)."""
    pj = profile_jets(spec, u)
    fam = FAMILIES[spec.kind]
    ff = closed_form_metric_from_profile(spec.kind, spec.pitch, pj)
    c = 1.0 / xp(ff.W).sqrt(ff.W)
    return fam.gauss(spec.pitch, *fam.profile(pj), v, c)


# ---------------------------------------------------------------------------
# rotational surfaces

ProfileFn = Callable[[float], Jet2]


def expr_profile(expr: "Expr | str", consts: Mapping[str, float] | None = None) -> ProfileFn:
    e = parse(expr) if isinstance(expr, str) else expr
    consts = dict(consts or {})

    def fn(u: float) -> Jet2:
        return eval_jet(e, u, consts)

    fn.source = to_source(e)  # type: ignore[attr-defined]
    return fn


def const_profile(value: float) -> ProfileFn:
    def fn(_u: float) -> Jet2:
        return Jet2.const(value)

    fn.source = repr(float(value))  # type: ignore[attr-defined]
    return fn


class RotationalSpec(NamedTuple):
    """Rotational surface of the same three kinds (pitch 0), one profile slot each:

    kind I    R(u,t) = (n cos t, n sin t, s, r)
    kind II   R(u,t) = (n, s, r sinh t, r cosh t)
    kind III  R(u,t) = n e1 + sqrt2 t r e2 + (s + t^2 r) xi3 + r xi4

    v_offset shifts the angular coordinate: partner constructions use it to
    fix the rigid rotation that the isometry correspondence leaves free.
    """

    kind: SurfaceKind
    n: ProfileFn
    s: ProfileFn
    r: ProfileFn
    domain: tuple[float, float]
    v_offset: float = 0.0
    pitch = 0.0  # helicoid_jet reads it as the pitch-0 helicoid

    def component_sources(self) -> dict[str, str]:
        return {name: getattr(getattr(self, name), "source", "<numeric>")
                for name in ("n", "s", "r")}


# ---------------------------------------------------------------------------
# JSON spec format (the on-disk format used by the command line)

def helicoid_to_json(spec: HelicoidSpec) -> dict:
    out = {
        "kind": spec.kind.value,
        "lambda": spec.pitch,
        "profile": {name: to_source(e) for name, e in spec.profile},
        "domain": list(spec.domain),
    }
    if spec.constants:
        out["constants"] = dict(spec.constants)
    if spec.v_domain is not None:
        out["v_domain"] = list(spec.v_domain)
    return out


def helicoid_from_json(data: Mapping) -> HelicoidSpec:
    try:
        kind, pitch, profile, domain = (data[k] for k in ("kind", "lambda", "profile", "domain"))
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"spec object missing field: {exc}") from None
    return make_helicoid(kind, pitch, profile, domain,
                         data.get("constants"), data.get("v_domain"))
