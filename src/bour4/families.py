"""The three spacelike helicoidal families and their rotational counterparts.

A helicoidal surface is the orbit of a planar profile curve under a
one-parameter rotation group composed with a proportional translation
(pitch lam >= 0; lam = 0 gives the plain rotational surface):

    kind I    X(u,v) = (x cos v, x sin v, z, w + lam v)          (rotation fixes the e3/e4 plane)
    kind II   X(u,v) = (x + lam v, y, w sinh v, w cosh v)        (rotation fixes the e1/e2 plane)
    kind III  X(u,v) = x e1 + sqrt2 v w e2
                       + (z + v^2 w + lam v) xi3 + w xi4          (rotation fixes a null plane)

where x, z (or y), w are functions of u.  Alongside the exact parametric
jets this module carries the families' closed-form metric, frames, second
fundamental forms and Gauss maps, which the generic engine cross-checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Mapping

from .errors import FrameFailureError, ValidationError
from .expressions import Expr, eval_jet, parse, to_source
from .jets import Jet2
from .lorentz import Bivector6, Vec4, bivector_from_pseudo, pseudo_to_standard
from .surfaces import (CurvatureReport, FirstForm, Frame, SecondForm, SurfaceJet,
                       assemble_report, finalize_first_form)

SQRT2 = math.sqrt(2.0)


class SurfaceKind(str, Enum):
    I = "I"
    II = "II"
    III = "III"


PROFILE_NAMES = {
    SurfaceKind.I: ("x", "z", "w"),
    SurfaceKind.II: ("x", "y", "w"),
    SurfaceKind.III: ("x", "z", "w"),
}

_DEFAULT_V_DOMAIN = {
    SurfaceKind.I: (0.0, 2.0 * math.pi),
    SurfaceKind.II: (-math.pi / 4.0, math.pi / 4.0),
    SurfaceKind.III: (-math.pi, math.pi),
}


@dataclass(frozen=True)
class HelicoidSpec:
    kind: SurfaceKind
    pitch: float
    profile: tuple[tuple[str, Expr], ...]
    domain: tuple[float, float]
    constants: tuple[tuple[str, float], ...] = ()
    v_domain: tuple[float, float] | None = None

    @property
    def exprs(self) -> dict[str, Expr]:
        return dict(self.profile)

    @property
    def consts(self) -> dict[str, float]:
        return dict(self.constants)

    @property
    def v_range(self) -> tuple[float, float]:
        return self.v_domain if self.v_domain is not None else _DEFAULT_V_DOMAIN[self.kind]

    @property
    def rotational(self) -> bool:
        """Zero pitch: the surface is a plain rotational surface."""
        return self.pitch == 0.0


def make_helicoid(kind, pitch: float, profile: Mapping[str, "str | Expr"],
                  domain, constants: Mapping[str, float] | None = None,
                  v_domain=None) -> HelicoidSpec:
    kind = SurfaceKind(kind)
    names = PROFILE_NAMES[kind]
    if set(profile) != set(names):
        raise ValidationError(
            f"kind {kind.value} profile needs components {names}, got {sorted(profile)}")
    if not (pitch >= 0.0 and math.isfinite(pitch)):
        raise ValidationError(f"pitch must be a finite number >= 0, got {pitch!r}")
    a, b = float(domain[0]), float(domain[1])
    if not (math.isfinite(a) and math.isfinite(b) and a < b):
        raise ValidationError(f"bad u-domain {domain!r}")
    exprs = tuple(sorted(
        (name, parse(e) if isinstance(e, str) else e) for name, e in profile.items()))
    consts = tuple(sorted((k, float(v)) for k, v in (constants or {}).items()))
    vd = None if v_domain is None else (float(v_domain[0]), float(v_domain[1]))
    return HelicoidSpec(kind, float(pitch), exprs, (a, b), consts, vd)


def profile_jets(spec: HelicoidSpec, u: float) -> dict[str, Jet2]:
    consts = spec.consts
    return {name: eval_jet(e, u, consts) for name, e in spec.profile}


def is_constant_profile(spec: HelicoidSpec, name: str, samples: int = 64,
                        tol: float = 1e-12) -> bool:
    """True when the component's derivative vanishes across a domain sample."""
    expr = spec.exprs[name]
    a, b = spec.domain
    consts = spec.consts
    for i in range(samples):
        u = a + (b - a) * (i + 0.5) / samples
        if abs(eval_jet(expr, u, consts).d1) > tol:
            return False
    return True


# ---------------------------------------------------------------------------
# parametric jets

def helicoid_jet_from_profile(kind: SurfaceKind, lam: float,
                              pj: Mapping[str, Jet2], v: float) -> SurfaceJet:
    """Assemble the exact surface jet at (u, v) from profile jets at u."""
    if kind is SurfaceKind.I:
        x, z, w = pj["x"], pj["z"], pj["w"]
        cv, sv = math.cos(v), math.sin(v)
        return SurfaceJet(
            Vec4(x.v * cv, x.v * sv, z.v, w.v + lam * v),
            Vec4(x.d1 * cv, x.d1 * sv, z.d1, w.d1),
            Vec4(-x.v * sv, x.v * cv, 0.0, lam),
            Vec4(x.d2 * cv, x.d2 * sv, z.d2, w.d2),
            Vec4(-x.d1 * sv, x.d1 * cv, 0.0, 0.0),
            Vec4(-x.v * cv, -x.v * sv, 0.0, 0.0),
        )
    if kind is SurfaceKind.II:
        x, y, w = pj["x"], pj["y"], pj["w"]
        ch, sh = math.cosh(v), math.sinh(v)
        return SurfaceJet(
            Vec4(x.v + lam * v, y.v, w.v * sh, w.v * ch),
            Vec4(x.d1, y.d1, w.d1 * sh, w.d1 * ch),
            Vec4(lam, 0.0, w.v * ch, w.v * sh),
            Vec4(x.d2, y.d2, w.d2 * sh, w.d2 * ch),
            Vec4(0.0, 0.0, w.d1 * ch, w.d1 * sh),
            Vec4(0.0, 0.0, w.v * sh, w.v * ch),
        )
    x, z, w = pj["x"], pj["z"], pj["w"]
    return SurfaceJet(
        pseudo_to_standard(x.v, SQRT2 * v * w.v, z.v + v * v * w.v + lam * v, w.v),
        pseudo_to_standard(x.d1, SQRT2 * v * w.d1, z.d1 + v * v * w.d1, w.d1),
        pseudo_to_standard(0.0, SQRT2 * w.v, 2.0 * v * w.v + lam, 0.0),
        pseudo_to_standard(x.d2, SQRT2 * v * w.d2, z.d2 + v * v * w.d2, w.d2),
        pseudo_to_standard(0.0, SQRT2 * w.d1, 2.0 * v * w.d1, 0.0),
        pseudo_to_standard(0.0, 0.0, 2.0 * w.v, 0.0),
    )


def helicoid_jet(spec: HelicoidSpec, u: float, v: float) -> SurfaceJet:
    return helicoid_jet_from_profile(spec.kind, spec.pitch, profile_jets(spec, u), v)


def helicoid_position(spec: HelicoidSpec) -> Callable[[float, float], Vec4]:
    """Position map only, for feeding the finite-difference oracle."""
    def pos(u, v):
        return helicoid_jet(spec, u, v).X
    return pos


# ---------------------------------------------------------------------------
# closed-form metric

def closed_form_metric_from_profile(kind: SurfaceKind, lam: float,
                                    pj: Mapping[str, Jet2],
                                    require_spacelike: bool = True) -> FirstForm:
    if kind is SurfaceKind.I:
        x, z, w = pj["x"], pj["z"], pj["w"]
        g11 = x.d1 ** 2 + z.d1 ** 2 - w.d1 ** 2
        g12 = -lam * w.d1
        g22 = x.v ** 2 - lam ** 2
        W = (x.v ** 2 - lam ** 2) * (x.d1 ** 2 + z.d1 ** 2) - x.v ** 2 * w.d1 ** 2
    elif kind is SurfaceKind.II:
        x, y, w = pj["x"], pj["y"], pj["w"]
        g11 = x.d1 ** 2 + y.d1 ** 2 - w.d1 ** 2
        g12 = lam * x.d1
        g22 = w.v ** 2 + lam ** 2
        W = (w.v ** 2 + lam ** 2) * (y.d1 ** 2 - w.d1 ** 2) + x.d1 ** 2 * w.v ** 2
    else:
        x, z, w = pj["x"], pj["z"], pj["w"]
        g11 = x.d1 ** 2 - 2.0 * w.d1 * z.d1
        g12 = -lam * w.d1
        g22 = 2.0 * w.v ** 2
        W = 2.0 * w.v ** 2 * (x.d1 ** 2 - 2.0 * w.d1 * z.d1) - lam ** 2 * w.d1 ** 2
    return finalize_first_form(g11, g12, g22, W, require_spacelike)


def closed_form_metric(spec: HelicoidSpec, u: float,
                       require_spacelike: bool = True) -> FirstForm:
    return closed_form_metric_from_profile(spec.kind, spec.pitch,
                                           profile_jets(spec, u), require_spacelike)


# ---------------------------------------------------------------------------
# closed-form frames, second fundamental forms and curvature

def _closed_form_pass(spec: HelicoidSpec, u: float,
                      v: float) -> tuple[FirstForm, Frame, SecondForm, SecondForm]:
    """Metric, explicit frame and second forms from one profile evaluation.

    The kind's frame precondition is checked before g11 > 0, so a profile
    that leaves the family's frame convention is named as such.
    """
    pj = profile_jets(spec, u)
    lam = spec.pitch
    ff = closed_form_metric_from_profile(spec.kind, lam, pj)
    rW = math.sqrt(ff.W)
    if spec.kind is SurfaceKind.I:
        x, z, w = pj["x"], pj["z"], pj["w"]
        P = x.d1 ** 2 + z.d1 ** 2
        if P <= 0.0:
            raise FrameFailureError(f"x'^2 + z'^2 vanishes at u = {u!r}")
        rP, rWP = math.sqrt(P), math.sqrt(ff.W * P)
        b1 = SecondForm((x.d2 * z.d1 - x.d1 * z.d2) / rP,
                        0.0,
                        -x.v * z.d1 / rP)
        b2 = SecondForm(
            x.v * (w.d1 * (x.d1 * x.d2 + z.d1 * z.d2) - w.d2 * P) / rWP,
            lam * x.d1 * rP / rW,
            -x.v ** 2 * x.d1 * w.d1 / rWP)
        cv, sv = math.cos(v), math.sin(v)
        N1 = Vec4(z.d1 * cv / rP, z.d1 * sv / rP, -x.d1 / rP, 0.0)
        c = 1.0 / (rW * rP)
        N2 = Vec4((x.v * x.d1 * w.d1 * cv - lam * P * sv) * c,
                  (x.v * x.d1 * w.d1 * sv + lam * P * cv) * c,
                  x.v * z.d1 * w.d1 * c,
                  x.v * P * c)
    elif spec.kind is SurfaceKind.II:
        x, y, w = pj["x"], pj["y"], pj["w"]
        Q = w.d1 ** 2 - y.d1 ** 2
        if Q <= 0.0:
            raise FrameFailureError(f"w'^2 - y'^2 = {Q!r} <= 0 at u = {u!r}")
        rQ, rWQ = math.sqrt(Q), math.sqrt(ff.W * Q)
        b1 = SecondForm((y.d2 * w.d1 - y.d1 * w.d2) / rQ,
                        0.0,
                        -w.v * y.d1 / rQ)
        b2 = SecondForm(
            w.v * (x.d1 * (y.d1 * y.d2 - w.d1 * w.d2) + x.d2 * Q) / rWQ,
            -lam * w.d1 * rQ / rW,
            -x.d1 * w.v ** 2 * w.d1 / rWQ)
        ch, sh = math.cosh(v), math.sinh(v)
        N1 = Vec4(0.0, w.d1 / rQ, y.d1 * sh / rQ, y.d1 * ch / rQ)
        c = 1.0 / (rW * rQ)
        N2 = Vec4(w.v * Q * c,
                  x.d1 * y.d1 * w.v * c,
                  (x.d1 * w.v * w.d1 * sh - lam * Q * ch) * c,
                  (x.d1 * w.v * w.d1 * ch - lam * Q * sh) * c)
    else:
        x, z, w = pj["x"], pj["z"], pj["w"]
        if w.d1 == 0.0:
            raise FrameFailureError(f"w' vanishes at u = {u!r}")
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
    if ff.g11 <= 0.0:
        raise FrameFailureError(f"g11 = {ff.g11!r} <= 0 at u = {u!r}")
    jet = helicoid_jet_from_profile(spec.kind, lam, pj, v)
    e1 = jet.Xu * (1.0 / math.sqrt(ff.g11))
    e2 = (jet.Xv * ff.g11 - jet.Xu * ff.g12) * (1.0 / math.sqrt(ff.W * ff.g11))
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
    ff, frame, b1, b2 = _closed_form_pass(spec, u, v)
    return assemble_report(ff, frame, b1, b2)


def closed_form_gauss(spec: HelicoidSpec, u: float, v: float) -> Bivector6:
    """The families' explicit Gauss-map component patterns (unit 2-vector)."""
    pj = profile_jets(spec, u)
    lam = spec.pitch
    ff = closed_form_metric_from_profile(spec.kind, lam, pj)
    c = 1.0 / math.sqrt(ff.W)
    if spec.kind is SurfaceKind.I:
        x, z, w = pj["x"], pj["z"], pj["w"]
        cv, sv = math.cos(v), math.sin(v)
        return Bivector6(
            x.v * x.d1 * c,
            x.v * z.d1 * sv * c,
            (lam * x.d1 * cv + x.v * w.d1 * sv) * c,
            -x.v * z.d1 * cv * c,
            (lam * x.d1 * sv - x.v * w.d1 * cv) * c,
            lam * z.d1 * c)
    if spec.kind is SurfaceKind.II:
        x, y, w = pj["x"], pj["y"], pj["w"]
        ch, sh = math.cosh(v), math.sinh(v)
        return Bivector6(
            -lam * y.d1 * c,
            (x.d1 * w.v * ch - lam * w.d1 * sh) * c,
            (x.d1 * w.v * sh - lam * w.d1 * ch) * c,
            y.d1 * w.v * ch * c,
            y.d1 * w.v * sh * c,
            -w.v * w.d1 * c)
    x, z, w = pj["x"], pj["z"], pj["w"]
    return bivector_from_pseudo(
        SQRT2 * x.d1 * w.v * c,
        x.d1 * (lam + 2.0 * v * w.v) * c,
        0.0,
        SQRT2 * (v * v * w.v * w.d1 - w.v * z.d1 + lam * v * w.d1) * c,
        -SQRT2 * w.v * w.d1 * c,
        -w.d1 * (lam + 2.0 * v * w.v) * c)


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
    v_domain: tuple[float, float] | None = None

    @property
    def v_range(self) -> tuple[float, float]:
        return self.v_domain if self.v_domain is not None else _DEFAULT_V_DOMAIN[self.kind]

    def component_sources(self) -> dict[str, str]:
        out = {}
        for name in ("n", "s", "r"):
            fn = getattr(self, name)
            out[name] = getattr(fn, "source", "<numeric>")
        return out


def rotational_jet(spec: RotationalSpec, u: float, v: float) -> SurfaceJet:
    """The pitch-0 helicoid jet of the profile (n, s, r) at angle v + v_offset."""
    pj = dict(zip(PROFILE_NAMES[spec.kind], (spec.n(u), spec.s(u), spec.r(u))))
    return helicoid_jet_from_profile(spec.kind, 0.0, pj, v + spec.v_offset)


def rotational_from_profile(spec: HelicoidSpec) -> RotationalSpec:
    """The pitch-0 surface with the same profile curve (n, s, r) <- (x, z|y, w)."""
    exprs, consts = spec.exprs, spec.consts
    n, s, r = (expr_profile(exprs[name], consts) for name in PROFILE_NAMES[spec.kind])
    return RotationalSpec(spec.kind, n, s, r, spec.domain, v_domain=spec.v_domain)


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
        kind = data["kind"]
        pitch = data["lambda"]
        profile = data["profile"]
        domain = data["domain"]
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"spec object missing field: {exc}") from None
    if not isinstance(profile, Mapping):
        raise ValidationError("'profile' must map component names to expressions")
    try:
        kind = SurfaceKind(kind)
    except ValueError:
        raise ValidationError(f"unknown kind {kind!r} (expected I, II or III)") from None
    return make_helicoid(kind, float(pitch), profile, domain,
                         data.get("constants"), data.get("v_domain"))
