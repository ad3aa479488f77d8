"""Constructing and checking isometric helicoidal/rotational partners.

Each spacelike helicoidal surface is isometric to a rotational surface of the
same kind.  With the reparametrized angle

    kind I    vbar = v - int lam w'/(x^2 - lam^2) du
    kind II   vbar = v + int lam x'/(lam^2 + w^2) du
    kind III  vbar = v + lam/(2 w(u)),

the map (u, v) -> (u, vbar) pulls the rotational metric back onto the
helicoidal one whenever the free gauge functions a(u), b(u) satisfy the
kind's compatibility constraint.  On top of the generic construction this
module builds the special pitch/gauge choices for which the two surfaces
also share their Gauss map (then both are hyperplanar and minimal), and it
provides residual checkers for every claim: isometry, Gauss-map equality or
difference, minimality, hyperplanarity, the gauge ODE, and the geometry of
the parameter curves the correspondence produces.
"""

from __future__ import annotations

import copy
import math
from dataclasses import asdict, dataclass
from functools import lru_cache
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from .errors import (InfeasibleGaugeError, NotSpacelikeError, ValidationError)
from .expressions import (Bin, Expr, Neg, Num, eval_jet, parse, substitute,
                          to_source)
from .families import (PROFILE_NAMES, HelicoidSpec, ProfileFn, RotationalSpec,
                       SurfaceKind, const_profile, expr_profile,
                       helicoid_jet_from_profile, is_constant_profile,
                       make_helicoid, profile_jets, rotational_jet,
                       surface_jet, surface_profile)
from .grids import Block, Grid, grid_for, shrunk, sweep
from .jets import Dual, Jet2
from .lorentz import standard_to_pseudo, sup
from .quadrature import Antiderivative, default_tolerance
from .surfaces import FirstForm, curvature_report, first_form, gauss_map

#: A gauge function of u.  Like the integrands built from it, it takes a
#: float or an array of u (a level of quadrature nodes).
GaugeFn = Callable[[float], Dual]


# ---------------------------------------------------------------------------
# gauge functions and their compatibility constraint

#: The gauge constraint per kind as a^2 + s h(b) = rhs: the factor s, and
#: whether h(b) is b^2 (kinds I and II) rather than b (kind III).
_CONSTRAINT_FORM = {SurfaceKind.I: (-1.0, True), SurfaceKind.II: (1.0, True),
                    SurfaceKind.III: (-2.0, False)}


@dataclass(frozen=True)
class BourGauge:
    """The free pair a(u), b(u) of the partner construction.

    Feasible gauges satisfy, on the whole domain,

        kind I    a^2 - b^2 = (x^2 (z'^2 - w'^2) - lam^2 (x'^2 + z'^2)) / (x^2 x'^2)
        kind II   a^2 + b^2 = (w^2 (x'^2 + y'^2) + lam^2 (y'^2 - w'^2)) / (w^2 w'^2)
        kind III  a^2 - 2b  = (x'^2 - 2 w' z') / w'^2 - lam^2 / (2 w^2)

    that is a^2 + s h(b) = rhs, with s = -1, 1, -2 and h(b) = b^2, b^2, b.
    """

    kind: SurfaceKind
    a: GaugeFn
    b: GaugeFn
    given: str = ""

    def residual(self, spec: HelicoidSpec, samples: int = 64) -> float:
        """Max violation of the compatibility constraint over a domain sample."""
        rhs = constraint_rhs(spec)
        s, squared = _CONSTRAINT_FORM[self.kind]
        worst = 0.0
        for u in _samples(spec.domain, samples):
            a, b = self.a(u).v, self.b(u).v
            worst = max(worst, abs(a * a + s * (b * b if squared else b) - rhs(u).v))
        return worst


def _samples(domain: tuple[float, float], n: int) -> list[float]:
    a, b = domain
    return [a + (b - a) * (i + 0.5) / n for i in range(n)]


def gauge_from_expr(expr: "Expr | str", consts: Mapping[str, float] | None = None) -> GaugeFn:
    profile = expr_profile(expr, consts)

    def fn(u: float) -> Dual:
        return Dual.from_jet(profile(u))

    fn.source = profile.source  # type: ignore[attr-defined]
    return fn


def constraint_rhs(spec: HelicoidSpec) -> Callable[[float], Dual]:
    """Right-hand side of the gauge constraint as a function of u (with derivative)."""
    lam2 = spec.pitch ** 2
    kind = spec.kind

    def rhs(u: float) -> Dual:
        pj = profile_jets(spec, u)
        if kind is SurfaceKind.I:
            xv, xp = Dual.from_jet(pj["x"]), Dual.shift(pj["x"])
            zp, wp = Dual.shift(pj["z"]), Dual.shift(pj["w"])
            return ((xv * xv * (zp * zp - wp * wp) - lam2 * (xp * xp + zp * zp))
                    / (xv * xv * xp * xp))
        if kind is SurfaceKind.II:
            wv, wp = Dual.from_jet(pj["w"]), Dual.shift(pj["w"])
            xp, yp = Dual.shift(pj["x"]), Dual.shift(pj["y"])
            return ((wv * wv * (xp * xp + yp * yp) + lam2 * (yp * yp - wp * wp))
                    / (wv * wv * wp * wp))
        wv, wp = Dual.from_jet(pj["w"]), Dual.shift(pj["w"])
        xp, zp = Dual.shift(pj["x"]), Dual.shift(pj["z"])
        return (xp * xp - 2.0 * wp * zp) / (wp * wp) - lam2 / (2.0 * wv * wv)

    return rhs


def gauge_complete(spec: HelicoidSpec, given: str, expr: "Expr | str",
                   samples: int = 96) -> BourGauge:
    """Fill in the missing gauge function from the constraint, nonnegative branch.

    Raises InfeasibleGaugeError (with the offending u-interval) when the
    induced square goes negative somewhere on the domain.
    """
    if given not in ("a", "b"):
        raise ValidationError(f"given must be 'a' or 'b', not {given!r}")
    g = gauge_from_expr(expr, spec.consts)
    rhs = constraint_rhs(spec)
    s, squared = _CONSTRAINT_FORM[spec.kind]

    if given == "a":
        def solved(u: float) -> Dual:  # h(b) = (rhs - a^2) / s
            gv = g(u)
            return (rhs(u) - gv * gv) / s
    else:
        def solved(u: float) -> Dual:  # a^2 = rhs - s h(b)
            gv = g(u)
            return rhs(u) - s * (gv * gv if squared else gv)

    if given == "a" and not squared:
        other = solved  # kind III: h(b) is b itself
    else:
        bad = [u for u in _samples(spec.domain, samples) if solved(u).v < 0.0]
        if bad:
            raise InfeasibleGaugeError(
                "gauge constraint forces a negative square", (min(bad), max(bad)))

        def other(u: float) -> Dual:
            return solved(u).sqrt()

    a, b = (g, other) if given == "a" else (other, g)
    return BourGauge(spec.kind, a, b, given)


def natural_gauge(spec: HelicoidSpec) -> BourGauge:
    """The gauge for which the pitch-0 partner is the original surface itself.

    kind I: (a, b) = (z'/x', w'/x'); kind II: (x'/w', y'/w'); kind III:
    (x'/w', z'/w').  The first quadrature channel always rebuilds the first
    profile component; swapping the channels would break the pitch-0
    reduction, which pins the pairing down.
    """
    names = PROFILE_NAMES[spec.kind]
    first, second, third = names

    def ratio(num_name: str, den_name: str) -> GaugeFn:
        def fn(u: float) -> Dual:
            pj = profile_jets(spec, u)
            return Dual.shift(pj[num_name]) / Dual.shift(pj[den_name])
        return fn

    if spec.kind is SurfaceKind.I:
        return BourGauge(spec.kind, ratio(second, first), ratio(third, first))
    return BourGauge(spec.kind, ratio(first, third), ratio(second, third))


def scale_gauge(gauge: BourGauge, a_factor: float = 1.0, b_factor: float = 1.0) -> BourGauge:
    """Deliberately detuned gauge, for negative controls."""
    return BourGauge(gauge.kind,
                     lambda u: gauge.a(u) * a_factor,
                     lambda u: gauge.b(u) * b_factor,
                     gauge.given)


# ---------------------------------------------------------------------------
# the reparametrized angle

class VbarMap:
    """The angular correspondence (u, v) -> vbar for one helicoidal spec.

    The u-dependent shift is tabulated once (adaptive quadrature for kinds I
    and II, whose integrand takes a float or an array of u); du() returns its
    exact derivative from the integrand.
    ``sign=-1`` flips the shift, which probes the wrong orientation.
    """

    def __init__(self, spec: HelicoidSpec, sign: int = 1, tol: float | None = None):
        self.spec = spec
        self.sign = sign
        lam = spec.pitch
        self._table = None
        if spec.kind is SurfaceKind.III:
            def shift_dual(u: float) -> Dual:
                return lam / (2.0 * Dual.from_jet(profile_jets(spec, u)["w"]))
            self._shift = lambda u: shift_dual(u).v
            self._dshift = lambda u: shift_dual(u).d
        elif lam == 0.0:
            self._shift = lambda u: 0.0
            self._dshift = lambda u: 0.0
        else:
            if spec.kind is SurfaceKind.I:
                def integrand(u: float) -> float:
                    pj = profile_jets(spec, u)
                    return -lam * pj["w"].d1 / (pj["x"].v ** 2 - lam ** 2)
            else:
                def integrand(u: float) -> float:
                    pj = profile_jets(spec, u)
                    return lam * pj["x"].d1 / (lam ** 2 + pj["w"].v ** 2)
            self._table = Antiderivative(integrand, spec.domain[0], spec.domain[1],
                                         tol if tol is not None else default_tolerance())
            self._shift = self._table
            self._dshift = integrand

    def shift(self, u: float) -> float:
        """The oriented angular shift at u: vbar = v + shift(u)."""
        return self.sign * self._shift(u)

    def __call__(self, u: float, v: float) -> float:
        return v + self.shift(u)

    def du(self, u: float) -> float:
        """d(vbar)/du, exact (quadrature never enters)."""
        return self.sign * self._dshift(u)


@lru_cache(maxsize=128)
def _vbar_cached(spec: HelicoidSpec, tol: float) -> VbarMap:
    return VbarMap(spec, 1, tol)


def vbar_map(spec: HelicoidSpec, sign: int = 1, tol: float | None = None) -> VbarMap:
    """The memoised map of the spec; the other orientation is a shallow copy
    that reads the same shift table."""
    vb = _vbar_cached(spec, tol if tol is not None else default_tolerance())
    if sign != vb.sign:
        vb = copy.copy(vb)
        vb.sign = sign
    return vb


def vbar(spec: HelicoidSpec, u: float, v: float, sign: int = 1,
         tol: float | None = None) -> float:
    """The reparametrized angle for one point; see VbarMap."""
    return vbar_map(spec, sign, tol)(u, v)


# ---------------------------------------------------------------------------
# the isometric rotational partner

def _quad_profile(integrand: Callable[[float], Dual], domain, constant: float,
                  tol: float | None, label: str) -> ProfileFn:
    """The profile constant + int integrand du, tabulated once; the integrand
    takes a float or an array of u, the profile a float."""
    table = Antiderivative(lambda u: integrand(u).v, domain[0], domain[1],
                           tol if tol is not None else default_tolerance())

    def fn(u: float) -> Jet2:
        d = integrand(u)
        return Jet2(constant + table(u), d.v, d.d)

    fn.source = label  # type: ignore[attr-defined]
    return fn


#: Per kind: the profile component q the radial component rho is built from,
#: the sign of lam^2 under rho = sqrt(q^2 +- lam^2) (None: rho = q), and the
#: source label of rho'.
_RADIAL = {
    SurfaceKind.I: ("x", -1.0, "x x'/sqrt(x^2-lam^2)"),
    SurfaceKind.II: ("w", 1.0, "w w'/sqrt(lam^2+w^2)"),
    SurfaceKind.III: ("w", None, "w'"),
}


def bour_partner(spec: HelicoidSpec, gauge: BourGauge,
                 constants: tuple[float, float] = (0.0, 0.0),
                 tol: float | None = None) -> RotationalSpec:
    """The rotational surface isometric to the helicoid under (u,v) -> (u, vbar).

    Each kind has a radial component rho: sqrt(x^2 - lam^2) for kind I,
    sqrt(w^2 + lam^2) for kind II and w for kind III.  The other two
    components integrate the gauge times rho': one integrates a rho', the
    next b rho'.  Kind I puts rho in slot n, the integrals in s and r;
    kinds II and III put the integrals in n and s, rho in slot r.  The
    integrals are anchored to 0 at the left end of the domain; ``constants``
    adds the free additive constants.  For kind I, x^2 - lam^2 must stay
    positive.
    """
    if gauge.kind is not spec.kind:
        raise ValidationError("gauge kind does not match the surface kind")
    lam = spec.pitch
    consts = spec.consts
    q_name, pm, drho_label = _RADIAL[spec.kind]
    q_expr = spec.exprs[q_name]

    if spec.kind is SurfaceKind.I:
        for u in _samples(spec.domain, 64):
            if eval_jet(q_expr, u, consts).v ** 2 <= lam ** 2:
                raise NotSpacelikeError(
                    f"x^2 - lambda^2 <= 0 at u = {u:.6g}: no radial component")

    if pm is None:
        def rho(u: float) -> Jet2:
            return eval_jet(q_expr, u, consts)
        rho.source = to_source(q_expr)  # type: ignore[attr-defined]

        def drho(u: float) -> Dual:
            return Dual.shift(eval_jet(q_expr, u, consts))
    else:
        c = pm * lam ** 2

        def rho(u: float) -> Jet2:
            q = eval_jet(q_expr, u, consts)
            return (q * q + c).sqrt()
        op = "-" if pm < 0 else "+"
        rho.source = f"sqrt(({to_source(q_expr)})^2 {op} {lam!r}^2)"  # type: ignore[attr-defined]

        def drho(u: float) -> Dual:
            q = eval_jet(q_expr, u, consts)
            qd = Dual.from_jet(q)
            return qd * Dual.shift(q) / (qd * qd + c).sqrt()

    quad_a = _quad_profile(lambda u: gauge.a(u) * drho(u), spec.domain,
                           constants[0], tol, f"<quadrature a {drho_label}>")
    quad_b = _quad_profile(lambda u: gauge.b(u) * drho(u), spec.domain,
                           constants[1], tol, f"<quadrature b {drho_label}>")
    n, s, r = (rho, quad_a, quad_b) if spec.kind is SurfaceKind.I else (quad_a, quad_b, rho)
    return RotationalSpec(spec.kind, n, s, r, spec.domain, v_domain=spec.v_domain)


# ---------------------------------------------------------------------------
# residual checkers

def _pair_sweep(h: HelicoidSpec, r: RotationalSpec, grid: Grid, sign: int,
                tol: float | None, point: Callable) -> Iterator[Block]:
    """Sweep ``point(k, g, hj, rj)`` over the grid: k = d(vbar)/du, the
    helicoid metric g and both surface jets.

    The helicoid metric does not depend on v; it is taken once per u, at
    v = 0.  The partner jet is read at (u, vbar(u, v)).
    """
    vb = vbar_map(h, sign, tol)

    def f(u, v):
        pj = profile_jets(h, u)
        k = vb.du(u)
        g = first_form(helicoid_jet_from_profile(h.kind, h.pitch, pj, 0.0))
        return point(k, g, helicoid_jet_from_profile(h.kind, h.pitch, pj, v),
                     surface_jet(r, surface_profile(r, u), vb(u, v)))

    return sweep(grid, f)


def _sweep_sup(blocks: Iterator[Block]) -> float:
    """The largest output of a sweep, and at least 0."""
    return max(0.0, *(float(b.out.max()) for b in blocks))


def _isometry_defect(g: FirstForm, G: FirstForm, k: float) -> float:
    """The defect of the partner metric G pulled back by k against g."""
    p11 = G.g11 + 2.0 * G.g12 * k + G.g22 * k * k
    p12 = G.g12 + G.g22 * k
    pW = p11 * G.g22 - p12 * p12
    return sup(abs(p11 - g.g11), abs(p12 - g.g12), abs(G.g22 - g.g22), abs(pW - g.W))


def _gauss_defect(hj, rj) -> float:
    return (gauss_map(hj) - gauss_map(rj)).sup_norm()


def isometry_residual(h: HelicoidSpec, r: RotationalSpec, grid: Grid,
                      sign: int = 1, tol: float | None = None) -> float:
    """Sup difference between the helicoid metric and the pulled-back partner metric.

    The pullback of the partner's first form under (u, v) -> (u, vbar(u, v))
    uses the exact derivative of the shift, so quadrature error never enters;
    the residual is zero exactly when the gauge constraint holds.
    """
    return _sweep_sup(_pair_sweep(
        h, r, grid, sign, tol,
        lambda k, g, hj, rj: (_isometry_defect(g, first_form(rj), k),)))


def gauss_residual(h: HelicoidSpec, r: RotationalSpec, grid: Grid,
                   sign: int = 1, tol: float | None = None) -> float:
    """Sup componentwise difference of the two Gauss maps under the correspondence."""
    return _sweep_sup(_pair_sweep(h, r, grid, sign, tol,
                                  lambda k, g, hj, rj: (_gauss_defect(hj, rj),)))


def choose_vbar_sign(h: HelicoidSpec, r: RotationalSpec,
                     probe: Grid | None = None) -> tuple[int, dict]:
    """Pick the orientation of the angular shift empirically.

    Some sources disagree on the sign of the accumulated shift for kind II;
    both orientations are probed on a coarse grid and the one with the
    smaller Gauss residual wins.  Returns the sign and the probe residuals.
    """
    if probe is None:
        probe = grid_for(h, nu=5, nv=5)
    plus = gauss_residual(h, r, probe, sign=1)
    minus = gauss_residual(h, r, probe, sign=-1)
    sign = 1 if plus <= minus else -1
    return sign, {"plus": plus, "minus": minus}


def bernoulli_residual(sq_gauge: "GaugeFn | Expr | str", profile: "Expr | str",
                       lam: float, domain: tuple[float, float],
                       consts: Mapping[str, float] | None = None,
                       kind: SurfaceKind = SurfaceKind.I,
                       samples: int = 64) -> float:
    """Residual of the minimality ODE for the squared gauge function.

    kind I  (with q = x):  (q^2 - lam^2) b' + q q' b = q q' b^3
    kind II (with q = w):  (q^2 + lam^2) a' + q q' a = q q' a^3

    sq_gauge supplies b^2 (resp. a^2); the positive root is differentiated
    by dual arithmetic.
    """
    if kind not in (SurfaceKind.I, SurfaceKind.II):
        raise ValidationError("the gauge ODE exists for kinds I and II only")
    consts = dict(consts or {})
    sq = sq_gauge if callable(sq_gauge) else gauge_from_expr(sq_gauge, consts)
    p = parse(profile) if isinstance(profile, str) else profile
    sign = -1.0 if kind is SurfaceKind.I else 1.0
    worst = 0.0
    for u in _samples(domain, samples):
        g = sq(u).sqrt()
        q = eval_jet(p, u, consts)
        qq = q.v * q.d1
        lhs = (q.v * q.v + sign * lam * lam) * g.d + qq * g.v
        worst = max(worst, abs(lhs - qq * g.v ** 3))
    return worst


def minimal_pair_identity_residual(spec: HelicoidSpec, samples: int = 64) -> float:
    """Residual of the profile identity that a shared Gauss map forces.

    kind I:  lam^2 (x x' w'' + w'(2 x'^2 - x x'')) + x^2 (w'(w'^2 - x'^2) + x (x'' w' - x' w''))
    kind II: lam (x' w'^2 (2 lam^2 + w^2) - w^2 x'^3 + w (lam^2 + w^2)(x'' w' - x' w''))
    """
    lam = spec.pitch
    worst = 0.0
    for u in _samples(spec.domain, samples):
        pj = profile_jets(spec, u)
        x, w = pj["x"], pj["w"]
        if spec.kind is SurfaceKind.I:
            val = (lam ** 2 * (x.v * x.d1 * w.d2 + w.d1 * (2 * x.d1 ** 2 - x.v * x.d2))
                   + x.v ** 2 * (w.d1 * (w.d1 ** 2 - x.d1 ** 2)
                                 + x.v * (x.d2 * w.d1 - x.d1 * w.d2)))
        elif spec.kind is SurfaceKind.II:
            val = lam * (x.d1 * w.d1 ** 2 * (2 * lam ** 2 + w.v ** 2)
                         - w.v ** 2 * x.d1 ** 3
                         + w.v * (lam ** 2 + w.v ** 2) * (x.d2 * w.d1 - x.d1 * w.d2))
        else:
            raise ValidationError("no shared-Gauss-map identity exists for kind III")
        worst = max(worst, abs(val))
    return worst


def parallel_curve_residual(h: HelicoidSpec, r: RotationalSpec, u0: float,
                            vs: Sequence[float]) -> float:
    """How far the partner's u = u0 curve is from its expected shape.

    kind I: a circle of radius sqrt(x(u0)^2 - lam^2) in the first two
    coordinates with the last two frozen; kind II: a hyperbola branch with
    x4^2 - x3^2 = lam^2 + w(u0)^2 and the first two coordinates frozen;
    kind III: a null-plane parabola (in the null-pair basis, the third
    coordinate is quadratic in the second with frozen first and fourth).
    """
    pj = profile_jets(h, u0)
    pts = [rotational_jet(r, u0, v).X for v in vs]
    worst = 0.0
    if h.kind is SurfaceKind.I:
        rad2 = pj["x"].v ** 2 - h.pitch ** 2
        p0 = pts[0]
        for p in pts:
            worst = max(worst, abs(math.hypot(p.x1, p.x2) - math.sqrt(rad2)),
                        abs(p.x3 - p0.x3), abs(p.x4 - p0.x4))
    elif h.kind is SurfaceKind.II:
        c = h.pitch ** 2 + pj["w"].v ** 2
        p0 = pts[0]
        for p in pts:
            worst = max(worst, abs((p.x4 ** 2 - p.x3 ** 2) - c),
                        abs(p.x1 - p0.x1), abs(p.x2 - p0.x2))
    else:
        qs = [standard_to_pseudo(p) for p in pts]
        q0 = qs[0]
        s0 = q0[2] - q0[1] ** 2 / (2.0 * q0[3])
        for q in qs:
            worst = max(worst, abs(q[0] - q0[0]), abs(q[3] - q0[3]),
                        abs(q[2] - s0 - q[1] ** 2 / (2.0 * q[3])))
    return worst


# ---------------------------------------------------------------------------
# shared-Gauss-map pairs

_W_TEMPLATE_I = ("sqrt((1 - c3*lam^2)/c3) * asinh(sqrt(c3*(X^2 - lam^2)))"
                 " - lam * atan(sqrt((1 - c3*lam^2)*(X^2 - lam^2)"
                 " / (lam^2*(1 + c3*(X^2 - lam^2)))))")
_R4_TEMPLATE_I = "(1/sqrt(c3)) * asinh(sqrt(c3*(X^2 - lam^2)))"
_N_TEMPLATE_I = "sqrt(X^2 - lam^2)"

# antiderivative of sqrt(1+c3*lam^2) * (w'/w) * sqrt((lam^2+w^2)/(1+c3*(lam^2+w^2))):
# an asin part plus -lam * atanh(lam*sqrt(1+c3*S)/(sqrt(1+c3*lam^2)*sqrt(S))),
# written through log since the grammar has no atanh
_X_TEMPLATE_II = ("sqrt(1 + c3*lam^2)/sqrt(-c3) * asin(sqrt(-c3*(lam^2 + X^2)))"
                  " - (lam/2) * log("
                  "(1 + lam*sqrt(1 + c3*(lam^2 + X^2))/(sqrt(1 + c3*lam^2)*sqrt(lam^2 + X^2)))"
                  " / (1 - lam*sqrt(1 + c3*(lam^2 + X^2))/(sqrt(1 + c3*lam^2)*sqrt(lam^2 + X^2))))")
_N_TEMPLATE_II = "(1/sqrt(-c3)) * asin(sqrt(-c3*(lam^2 + X^2)))"
_R_TEMPLATE_II = "sqrt(lam^2 + X^2)"


def _build_from_template(template: str, placeholder_value: Expr,
                         sign: int = 1, plus: float = 0.0) -> Expr:
    """Substitute X, optionally flip the sign branch, then add a free constant."""
    tree = substitute(parse(template), {"X": placeholder_value})
    if sign < 0:
        tree = Neg(tree)
    if plus != 0.0:
        tree = Bin("+", tree, Num(float(plus)))
    return tree


def _merge_constants(user: Mapping[str, float] | None, **fixed: float) -> dict:
    merged = dict(user or {})
    for k, v in fixed.items():
        if k in merged and merged[k] != v:
            raise ValidationError(f"constant name '{k}' is reserved here")
        merged[k] = v
    return merged


def same_gauss_pair_I(x: "Expr | str", lam: float, c3: float,
                      sign_w: int = 1, sign_r: int = 1,
                      c1: float = 0.0, c2: float = 0.0, c4: float = 0.0,
                      domain: tuple[float, float] = (1.5, 3.0),
                      constants: Mapping[str, float] | None = None,
                      v_domain=None) -> tuple[HelicoidSpec, RotationalSpec]:
    """The kind-I helicoid/rotational pair sharing a Gauss map.

    Requires lam > 0 and 0 < c3 <= 1/lam^2; c3 = 1/lam^2 gives the right
    helicoid (the fourth profile component degenerates to zero).  Both
    surfaces are hyperplanar (third coordinate frozen at c1 resp. c2) and
    minimal; the partner's angular offset is chosen so the Gauss maps agree
    pointwise under the vbar correspondence.
    """
    if not lam > 0.0:
        raise ValidationError("shared-Gauss-map pairs need a positive pitch")
    if not 0.0 < c3 <= 1.0 / lam ** 2:
        raise ValidationError(
            f"c3 = {c3!r} outside (0, 1/lambda^2] = (0, {1.0 / lam ** 2!r}]")
    x_expr = parse(x) if isinstance(x, str) else x
    consts = _merge_constants(constants, lam=lam, c3=c3, c4=c4)

    right_helicoid = (c3 == 1.0 / lam ** 2)
    w_expr = Num(0.0) if right_helicoid else _build_from_template(_W_TEMPLATE_I, x_expr, sign_w)
    h = make_helicoid(SurfaceKind.I, lam,
                      {"x": x_expr, "z": Num(float(c1)), "w": w_expr},
                      domain, consts, v_domain)

    n_fn = expr_profile(_build_from_template(_N_TEMPLATE_I, x_expr), consts)
    r_fn = expr_profile(_build_from_template(_R4_TEMPLATE_I, x_expr, sign_r, c4), consts)

    # Rigid rotation aligning the Gauss maps: the matching conditions fix
    # cos/sin of the total angular shift at the anchor point, and the shared
    # minimality identity keeps its derivative equal to the vbar integrand,
    # so only the constant against the tabulated shift has to be set.
    u0 = shrunk(*domain)[0]
    xj = eval_jet(x_expr, u0, consts)
    wj = eval_jet(w_expr, u0, consts)
    b0 = sign_r / math.sqrt(1.0 + c3 * (xj.v ** 2 - lam ** 2))
    j_true = math.atan2(-lam / (b0 * xj.v), wj.d1 / (b0 * xj.d1))
    offset = -j_true - vbar_map(h)(u0, 0.0)
    partner = RotationalSpec(SurfaceKind.I, n_fn, const_profile(c2), r_fn,
                             domain, v_offset=offset, v_domain=v_domain)
    return h, partner


def same_gauss_pair_II(w: "Expr | str", lam: float, c3: float,
                       sign_x: int = 1, sign_n: int | None = None,
                       c1: float = 0.0, c2: float = 0.0, c4: float = 0.0,
                       domain: tuple[float, float] = (0.3, 0.9),
                       constants: Mapping[str, float] | None = None,
                       v_domain=None) -> tuple[HelicoidSpec, RotationalSpec]:
    """The kind-II helicoid/rotational pair sharing a Gauss map.

    Requires lam > 0, -1/lam^2 < c3 < 0, a non-constant w, and
    1 + c3*(lam^2 + w^2) > 0 on the domain.  A constant w would make the
    surface a right helicoid of this kind, whose Gauss map can never agree
    with its rotational partner (the causal character of the corresponding
    plane would have to change), so that request is rejected.
    """
    if not lam > 0.0:
        raise ValidationError("shared-Gauss-map pairs need a positive pitch")
    if not -1.0 / lam ** 2 < c3 < 0.0:
        raise ValidationError(
            f"c3 = {c3!r} outside (-1/lambda^2, 0) = ({-1.0 / lam ** 2!r}, 0)")
    w_expr = parse(w) if isinstance(w, str) else w
    consts = _merge_constants(constants, lam=lam, c3=c3, c4=c4)

    x_expr = _build_from_template(_X_TEMPLATE_II, w_expr, sign_x)
    h = make_helicoid(SurfaceKind.II, lam,
                      {"x": x_expr, "y": Num(float(c1)), "w": w_expr},
                      domain, consts, v_domain)
    if is_constant_profile(h, "w"):
        raise ValidationError(
            "w is constant: a right helicoidal surface of kind II never shares "
            "its Gauss map with a rotational partner")
    for u in _samples(domain, 64):
        wv = eval_jet(w_expr, u, consts).v
        if 1.0 + c3 * (lam ** 2 + wv ** 2) <= 0.0:
            raise ValidationError(
                f"1 + c3*(lambda^2 + w^2) <= 0 at u = {u:.6g}: asin leaves its domain")

    u0 = shrunk(*domain)[0]
    wj = eval_jet(w_expr, u0, consts)
    xj = eval_jet(x_expr, u0, consts)
    a0 = 1.0 / math.sqrt(1.0 + c3 * (lam ** 2 + wj.v ** 2))
    if sign_n is None:
        sign_n = 1 if xj.d1 / (a0 * wj.d1) > 0 else -1
    cosh_i0 = xj.d1 / (sign_n * a0 * wj.d1)
    if cosh_i0 <= 0.0:
        raise ValidationError(
            "no angular alignment exists for this sign of the partner's first component")
    i_true = math.asinh(-lam / (sign_n * a0 * wj.v))
    offset = i_true - (vbar_map(h)(u0, 0.0))

    n_fn = expr_profile(_build_from_template(_N_TEMPLATE_II, w_expr, sign_n, c4), consts)
    r_fn = expr_profile(_build_from_template(_R_TEMPLATE_II, w_expr), consts)
    partner = RotationalSpec(SurfaceKind.II, n_fn, const_profile(c2), r_fn,
                             domain, v_offset=offset, v_domain=v_domain)
    return h, partner


# ---------------------------------------------------------------------------
# aggregate verification

@dataclass(frozen=True)
class PairTolerances:
    isometry: float = 1e-7
    gauss: float = 1e-7
    mean_curvature: float = 1e-7
    hyperplanarity: float = 1e-10

    def to_json(self) -> dict:
        return asdict(self)


@dataclass
class PairReport:
    grid: Grid
    isometry_residual: float
    gauss_residual: float
    max_mean_curvature: tuple[float, float]
    hyperplanarity_defect: tuple[float, float]
    verdicts: dict
    tolerances: PairTolerances
    sign_choices: dict

    def to_json(self) -> dict:
        return {
            "grid": self.grid.describe(),
            "residuals": {
                "isometry": self.isometry_residual,
                "gauss": self.gauss_residual,
                "minimality": list(self.max_mean_curvature),
                "hyperplanarity": list(self.hyperplanarity_defect),
            },
            "verdicts": self.verdicts,
            "tolerances": self.tolerances.to_json(),
            "sign_choices": self.sign_choices,
        }


def pair_report(h: HelicoidSpec, r: RotationalSpec, grid: Grid | None = None,
                tols: PairTolerances = PairTolerances(),
                sign: int = 1, tol: float | None = None,
                sign_choices: Mapping[str, int] | None = None) -> PairReport:
    """Sweep the grid once and aggregate every pairwise claim into verdicts."""
    if grid is None:
        grid = grid_for(h)

    def point(k, g, hj, rj):
        return (_isometry_defect(g, first_form(rj), k), _gauss_defect(hj, rj),
                curvature_report(hj).H_sup, curvature_report(rj).H_sup, *hj.X, *rj.X)

    worst = np.zeros(4)
    positions = []
    for block in _pair_sweep(h, r, grid, sign, tol, point):
        worst = np.maximum(worst, block.out[:, :4].max(axis=0))
        positions.append(block.out[:, 4:])
    iso, gauss, *h_sup = worst.tolist()
    pos = np.concatenate(positions)
    defects = tuple(float(np.min(np.var(np.ascontiguousarray(pos[:, c:c + 4]), axis=0)))
                    for c in (0, 4))
    verdicts = {
        "isometric": iso < tols.isometry,
        "same_gauss": gauss < tols.gauss,
        "minimal": max(h_sup) < tols.mean_curvature,
        "hyperplanar": max(defects) < tols.hyperplanarity,
    }
    return PairReport(grid, iso, gauss, (h_sup[0], h_sup[1]), defects,
                      verdicts, tols, dict(sign_choices or {"vbar": sign}))
