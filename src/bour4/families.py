"""The three spacelike helicoidal families and their rotational counterparts.

A helicoidal surface is the orbit of a planar profile curve under a
one-parameter rotation group composed with a proportional translation
(pitch lam >= 0; lam = 0 gives the plain rotational surface):

    kind I    X(u,v) = (x cos v, x sin v, z, w + lam v)          (rotation fixes the e3/e4 plane)
    kind II   X(u,v) = (x + lam v, y, w sinh v, w cosh v)        (rotation fixes the e1/e2 plane)
    kind III  X(u,v) = x e1 + sqrt2 v w e2
                       + (z + v^2 w + lam v) xi3 + w xi4          (rotation fixes a null plane)

where x, z (or y), w are functions of u.  What a kind is lives in one
record, ``FAMILIES[kind]``: its profile names and default v-domain, its
exact parametric jets, closed-form metric, frames, second fundamental forms
and Gauss maps (which the generic engine cross-checks), and the data of its
Bour construction (gauge constraint, angular shift, radial component,
natural gauge, minimality ODE, shared-Gauss-map identity, parallel curves),
which ``bour`` reads.  Profile jets may hold floats (one u) or arrays (a
block of u rows), and v a float or an array that broadcasts against them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Callable, ClassVar, Mapping

from .errors import FrameFailureError, ValidationError
from .expressions import Expr, eval_jet, parse, to_source
from .grids import scan
from .jets import Jet2
from .lorentz import (Bivector6, Vec4, bivector_from_pseudo, flag,
                      pseudo_to_standard, standard_to_pseudo, where, xp)
from .quadrature import Antiderivative
from .surfaces import (CurvatureReport, FirstForm, Frame, SecondForm, SurfaceJet,
                       assemble_report, finalize_first_form)

SQRT2 = math.sqrt(2.0)


class SurfaceKind(str, Enum):
    I = "I"
    II = "II"
    III = "III"


@dataclass(frozen=True)
class Family:
    """What one kind is.  Each formula takes the pitch lam (lam^2 for
    ``constraint_rhs``), then the profile jets in ``names`` order, floats or
    arrays alike.  A formula or datum the kind lacks is None."""

    names: tuple[str, str, str]
    v_domain: tuple[float, float]
    jet: Callable  # (lam, *jets, v) -> the exact SurfaceJet at angle v
    metric: Callable  # (lam, *jets) -> (g11, g12, g22, W)
    frame: Callable  # (lam, *jets, v, u, W, sqrt W) -> (frame failure, b1, b2, N1, N2)
    gauss: Callable  # (lam, *jets, v, 1/sqrt W) -> the unit Gauss 2-vector
    constraint: tuple[float, bool]  # (s, squared): a^2 + s h(b) = rhs, h(b) = b^2 or b
    constraint_rhs: Callable  # (lam^2, *jets) -> rhs, a Jet2 in u exact to first order
    # (q, s, label): the partner's radial component rho is sqrt(q^2 + s lam^2),
    # or q itself for s None, and label is the source of rho'
    radial: tuple[str, float | None, str]
    radial_slot: int  # the slot of rho in the partner's (n, s, r)
    natural: tuple[tuple[str, str], ...]  # the natural gauge (a, b) as ratios p'/q' (p, q)
    parallel: Callable  # (lam, *jets at u0, partner points on u = u0) -> their defects
    shift_rate: Callable | None = None  # (lam, *jets) -> d(vbar)/du, for quadrature
    closed_shift: Callable | None = None  # (lam, *jets) -> vbar - v, a Jet2 in u
    ode_sign: float | None = None  # the sign of lam^2 in the squared gauge's minimality ODE
    identity: Callable | None = None  # (lam, *jets) -> what a shared Gauss map makes 0

    def profile(self, pj: Mapping[str, Jet2]) -> list[Jet2]:
        """The profile jets of a name -> jet map, in name order."""
        return [pj[name] for name in self.names]


# ---------------------------------------------------------------------------
# kind I: (x cos v, x sin v, z, w + lam v)

def _jet_I(lam, x, z, w, v):
    cv, sv = xp(v).cos(v), xp(v).sin(v)
    return SurfaceJet(
        Vec4(x.v * cv, x.v * sv, z.v, w.v + lam * v),
        Vec4(x.d1 * cv, x.d1 * sv, z.d1, w.d1),
        Vec4(-x.v * sv, x.v * cv, 0.0, lam),
        Vec4(x.d2 * cv, x.d2 * sv, z.d2, w.d2),
        Vec4(-x.d1 * sv, x.d1 * cv, 0.0, 0.0),
        Vec4(-x.v * cv, -x.v * sv, 0.0, 0.0),
    )


def _metric_I(lam, x, z, w):
    return (x.d1 ** 2 + z.d1 ** 2 - w.d1 ** 2, -lam * w.d1, x.v ** 2 - lam ** 2,
            (x.v ** 2 - lam ** 2) * (x.d1 ** 2 + z.d1 ** 2) - x.v ** 2 * w.d1 ** 2)


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


def _rhs_I(lam2, x, z, w):
    dx, dz, dw = x.deriv(), z.deriv(), w.deriv()
    return ((x * x * (dz * dz - dw * dw) - lam2 * (dx * dx + dz * dz))
            / (x * x * dx * dx))


def _identity_I(lam, x, z, w):
    return (lam ** 2 * (x.v * x.d1 * w.d2 + w.d1 * (2 * x.d1 ** 2 - x.v * x.d2))
            + x.v ** 2 * (w.d1 * (w.d1 ** 2 - x.d1 ** 2)
                          + x.v * (x.d2 * w.d1 - x.d1 * w.d2)))


def _parallel_I(lam, x, z, w, pts):
    rad2 = x.v ** 2 - lam ** 2
    p0 = pts[0]
    return [(abs(math.hypot(p.x1, p.x2) - math.sqrt(rad2)),
             abs(p.x3 - p0.x3), abs(p.x4 - p0.x4)) for p in pts]


# ---------------------------------------------------------------------------
# kind II: (x + lam v, y, w sinh v, w cosh v)

def _jet_II(lam, x, y, w, v):
    ch, sh = xp(v).cosh(v), xp(v).sinh(v)
    return SurfaceJet(
        Vec4(x.v + lam * v, y.v, w.v * sh, w.v * ch),
        Vec4(x.d1, y.d1, w.d1 * sh, w.d1 * ch),
        Vec4(lam, 0.0, w.v * ch, w.v * sh),
        Vec4(x.d2, y.d2, w.d2 * sh, w.d2 * ch),
        Vec4(0.0, 0.0, w.d1 * ch, w.d1 * sh),
        Vec4(0.0, 0.0, w.v * sh, w.v * ch),
    )


def _metric_II(lam, x, y, w):
    return (x.d1 ** 2 + y.d1 ** 2 - w.d1 ** 2, lam * x.d1, w.v ** 2 + lam ** 2,
            (w.v ** 2 + lam ** 2) * (y.d1 ** 2 - w.d1 ** 2) + x.d1 ** 2 * w.v ** 2)


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


def _rhs_II(lam2, x, y, w):
    dx, dy, dw = x.deriv(), y.deriv(), w.deriv()
    return ((w * w * (dx * dx + dy * dy) + lam2 * (dy * dy - dw * dw))
            / (w * w * dw * dw))


def _identity_II(lam, x, y, w):
    return lam * (x.d1 * w.d1 ** 2 * (2 * lam ** 2 + w.v ** 2)
                  - w.v ** 2 * x.d1 ** 3
                  + w.v * (lam ** 2 + w.v ** 2) * (x.d2 * w.d1 - x.d1 * w.d2))


def _parallel_II(lam, x, y, w, pts):
    c = lam ** 2 + w.v ** 2
    p0 = pts[0]
    return [(abs((p.x4 ** 2 - p.x3 ** 2) - c),
             abs(p.x1 - p0.x1), abs(p.x2 - p0.x2)) for p in pts]


# ---------------------------------------------------------------------------
# kind III: x e1 + sqrt2 v w e2 + (z + v^2 w + lam v) xi3 + w xi4

def _jet_III(lam, x, z, w, v):
    return SurfaceJet(
        pseudo_to_standard(x.v, SQRT2 * v * w.v, z.v + v * v * w.v + lam * v, w.v),
        pseudo_to_standard(x.d1, SQRT2 * v * w.d1, z.d1 + v * v * w.d1, w.d1),
        pseudo_to_standard(0.0, SQRT2 * w.v, 2.0 * v * w.v + lam, 0.0),
        pseudo_to_standard(x.d2, SQRT2 * v * w.d2, z.d2 + v * v * w.d2, w.d2),
        pseudo_to_standard(0.0, SQRT2 * w.d1, 2.0 * v * w.d1, 0.0),
        pseudo_to_standard(0.0, 0.0, 2.0 * w.v, 0.0),
    )


def _metric_III(lam, x, z, w):
    return (x.d1 ** 2 - 2.0 * w.d1 * z.d1, -lam * w.d1, 2.0 * w.v ** 2,
            2.0 * w.v ** 2 * (x.d1 ** 2 - 2.0 * w.d1 * z.d1) - lam ** 2 * w.d1 ** 2)


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


def _rhs_III(lam2, x, z, w):
    dx, dz, dw = x.deriv(), z.deriv(), w.deriv()
    return (dx * dx - 2.0 * dw * dz) / (dw * dw) - lam2 / (2.0 * w * w)


def _parallel_III(lam, x, z, w, pts):
    qs = [standard_to_pseudo(p) for p in pts]
    q0 = qs[0]
    s0 = q0[2] - q0[1] ** 2 / (2.0 * q0[3])
    return [(abs(q[0] - q0[0]), abs(q[3] - q0[3]),
             abs(q[2] - s0 - q[1] ** 2 / (2.0 * q[3]))) for q in qs]


FAMILIES = {
    SurfaceKind.I: Family(
        ("x", "z", "w"), (0.0, 2.0 * math.pi), _jet_I, _metric_I, _frame_I, _gauss_I,
        constraint=(-1.0, True), constraint_rhs=_rhs_I,
        radial=("x", -1.0, "x x'/sqrt(x^2-lam^2)"), radial_slot=0,
        natural=(("z", "x"), ("w", "x")), parallel=_parallel_I,
        shift_rate=lambda lam, x, z, w: -lam * w.d1 / (x.v ** 2 - lam ** 2),
        ode_sign=-1.0, identity=_identity_I),
    SurfaceKind.II: Family(
        ("x", "y", "w"), (-math.pi / 4.0, math.pi / 4.0), _jet_II, _metric_II, _frame_II,
        _gauss_II, constraint=(1.0, True), constraint_rhs=_rhs_II,
        radial=("w", 1.0, "w w'/sqrt(lam^2+w^2)"), radial_slot=2,
        natural=(("x", "w"), ("y", "w")), parallel=_parallel_II,
        shift_rate=lambda lam, x, y, w: lam * x.d1 / (lam ** 2 + w.v ** 2),
        ode_sign=1.0, identity=_identity_II),
    SurfaceKind.III: Family(
        ("x", "z", "w"), (-math.pi, math.pi), _jet_III, _metric_III, _frame_III, _gauss_III,
        constraint=(-2.0, False), constraint_rhs=_rhs_III,
        radial=("w", None, "w'"), radial_slot=2,
        natural=(("x", "w"), ("z", "w")), parallel=_parallel_III,
        closed_shift=lambda lam, x, z, w: lam / (2.0 * w)),
}


# ---------------------------------------------------------------------------
# helicoid specs

@dataclass(frozen=True)
class HelicoidSpec:
    kind: SurfaceKind
    pitch: float
    profile: tuple[tuple[str, Expr], ...]
    domain: tuple[float, float]
    constants: tuple[tuple[str, float], ...] = ()
    v_domain: tuple[float, float] | None = None
    v_offset: ClassVar[float] = 0.0  # helicoid_jet adds it to v, as for a RotationalSpec

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
        """The helicoid's angular map, built on first use and kept."""
        return VbarMap(self)


def _number(value, what: str) -> float:
    try:
        x = float(value)
    except (TypeError, ValueError):
        raise ValidationError(f"{what} must be a number, got {value!r}") from None
    if not math.isfinite(x):
        raise ValidationError(f"{what} must be finite, got {value!r}")
    return x


def _interval(value, what: str) -> tuple[float, float]:
    try:
        a, b = value
    except (TypeError, ValueError):
        raise ValidationError(f"{what} must be two numbers, got {value!r}") from None
    a, b = _number(a, what), _number(b, what)
    if not math.isfinite(b - a):
        raise ValidationError(f"{what} {value!r} is too wide: its width overflows")
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
                f"profile component {name!r} must be an expression string, got {e!r}")
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

class VbarMap:
    """The angular correspondence (u, v) -> vbar = v + shift(u) of one helicoid.

    The shift is tabulated when the map is built (adaptive quadrature for
    kinds I and II, whose integrand takes a float or an array of u); ``du(u)``
    is its exact derivative, from the integrand.
    """

    def __init__(self, spec: HelicoidSpec):
        lam = spec.pitch
        fam = FAMILIES[spec.kind]
        self._table = None
        if fam.closed_shift is not None:
            def shift_jet(u: float) -> Jet2:
                return fam.closed_shift(lam, *fam.profile(profile_jets(spec, u)))
            self.shift = lambda u: shift_jet(u).v
            self.du = lambda u: shift_jet(u).d1
        elif lam == 0.0:
            self.shift = self.du = lambda u: 0.0
        else:
            def integrand(u: float) -> float:
                return fam.shift_rate(lam, *fam.profile(profile_jets(spec, u)))
            self._table = self.shift = Antiderivative(integrand, *spec.domain)
            self.du = integrand

    def __call__(self, u: float, v: float) -> float:
        return v + self.shift(u)


# ---------------------------------------------------------------------------
# parametric jets

def helicoid_jet(surface: "HelicoidSpec | RotationalSpec", u, v,
                 profile: Mapping[str, Jet2] | None = None) -> SurfaceJet:
    """The exact surface jet of either surface at (u, v), floats or arrays
    that broadcast, from its ``profile_jets`` at u unless ``profile`` gives
    them; a rotational surface is the pitch-0 helicoid at angle v + v_offset."""
    pj, fam = profile_jets(surface, u) if profile is None else profile, FAMILIES[surface.kind]
    return fam.jet(surface.pitch, *fam.profile(pj), v + surface.v_offset)


def helicoid_position(spec: HelicoidSpec) -> Callable[[float, float], Vec4]:
    """Position map only, for feeding the finite-difference oracle."""
    def pos(u, v):
        return helicoid_jet(spec, u, v).X
    return pos


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

def _closed_form_pass(spec: HelicoidSpec, u: float,
                      v: float) -> tuple[FirstForm, Frame, SecondForm, SecondForm]:
    """Metric, explicit frame and second forms from the profile jets at u.

    The kind's frame precondition is checked before g11 > 0, so a profile
    that leaves the family's frame convention is named as such.
    """
    lam, pj = spec.pitch, profile_jets(spec, u)
    fam = FAMILIES[spec.kind]
    ff = closed_form_metric_from_profile(spec.kind, lam, pj)
    sqrt = xp(ff.W).sqrt
    bad, b1, b2, N1, N2 = fam.frame(lam, *fam.profile(pj), v, u, ff.W, sqrt(ff.W))
    bad = bad | flag(ff.g11 <= 0.0, FrameFailureError, "g11 = {!r} <= 0 at u = {!r}",
                     ff.g11, u)
    jet = fam.jet(lam, *fam.profile(pj), v)
    e1 = jet.Xu * (1.0 / sqrt(ff.g11))
    e2 = (jet.Xv * ff.g11 - jet.Xu * ff.g12) * (1.0 / sqrt(ff.W * ff.g11))
    b1, b2, N1, N2 = where(bad, math.nan, (b1, b2, N1, N2))
    return ff, Frame(e1, e2, N1, N2), b1, b2


def closed_form_frame(spec: HelicoidSpec, u: float, v: float) -> Frame:
    """The families' explicit orthonormal frames (N1 spacelike, N2 timelike)."""
    return _closed_form_pass(spec, u, v)[1]


def closed_form_curvatures(spec: HelicoidSpec, u: float, v: float) -> CurvatureReport:
    """Mean curvature components, mean curvature vector, and Gauss curvature.

    Built from the families' explicit frames and second-form coefficients,
    assembled through the standard component formulas; this route never
    touches the generic Gram-Schmidt machinery.
    """
    return assemble_report(*_closed_form_pass(spec, u, v))


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


@dataclass(frozen=True)
class RotationalSpec:
    """Rotational surface of the same three kinds (pitch 0), one profile slot each:

    kind I    R(u,t) = (n cos t, n sin t, s, r)
    kind II   R(u,t) = (n, s, r sinh t, r cosh t)
    kind III  R(u,t) = n e1 + sqrt2 t r e2 + (s + t^2 r) xi3 + r xi4

    v_offset shifts the angular coordinate: partner constructions use it to
    fix the rigid rotation that the isometry correspondence leaves free.
    """

    kind: SurfaceKind
    n: ProfileFn = field(compare=False)
    s: ProfileFn = field(compare=False)
    r: ProfileFn = field(compare=False)
    domain: tuple[float, float]
    v_offset: float = 0.0
    pitch: ClassVar[float] = 0.0  # helicoid_jet reads it as the pitch-0 helicoid

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
