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
from .families import (FAMILIES, HelicoidSpec, ProfileFn, RotationalSpec,
                       SurfaceKind, const_profile, expr_profile,
                       helicoid_jet_from_profile, is_constant_profile,
                       make_helicoid, profile_jets, rotational_jet,
                       surface_jet, surface_profile)
from .grids import Block, Grid, grid_for, scan, shrunk, sweep
from .jets import Dual, Jet2
from .lorentz import flag, sup, where
from .quadrature import Antiderivative, default_tolerance
from .surfaces import FirstForm, curvature_report, first_form, gauss_map

#: A gauge function of u.  Like the integrands built from it, it takes a
#: float or an array of u (a level of quadrature nodes).
GaugeFn = Callable[[float], Dual]


# ---------------------------------------------------------------------------
# gauge functions and their compatibility constraint

@dataclass(frozen=True)
class BourGauge:
    """The free pair a(u), b(u) of the partner construction.

    Feasible gauges satisfy, on the whole domain,

        kind I    a^2 - b^2 = (x^2 (z'^2 - w'^2) - lam^2 (x'^2 + z'^2)) / (x^2 x'^2)
        kind II   a^2 + b^2 = (w^2 (x'^2 + y'^2) + lam^2 (y'^2 - w'^2)) / (w^2 w'^2)
        kind III  a^2 - 2b  = (x'^2 - 2 w' z') / w'^2 - lam^2 / (2 w^2)

    that is a^2 + s h(b) = rhs, with s = -1, 1, -2 and h(b) = b^2, b^2, b
    (``Family.constraint``).
    """

    kind: SurfaceKind
    a: GaugeFn
    b: GaugeFn
    given: str = ""

    def residual(self, spec: HelicoidSpec, samples: int = 64) -> float:
        """Max violation of the compatibility constraint over a domain sample."""
        rhs = constraint_rhs(spec)
        s, squared = FAMILIES[self.kind].constraint

        def violation(u):
            a, b = self.a(u).v, self.b(u).v
            return abs(a * a + s * (b * b if squared else b) - rhs(u).v)
        return _scan_sup(spec.domain, samples, violation)


def _scan_sup(domain: tuple[float, float], n: int, f: Callable) -> float:
    """The largest value of f on a domain scan, and at least 0; like max()
    over the samples, it passes over a NaN that raised no error."""
    return float(np.fmax.reduce(scan(domain, n, f)[1], initial=0.0))


def _require_positive(domain: tuple[float, float], f: Callable, error: type,
                      message: str) -> None:
    """Scan f over 64 domain samples: the first sample u in ascending order
    where f(u) <= 0, or where f raises, raises ``error(message.format(u))``
    or f's own error."""
    def check(u):
        value = f(u)
        return where(flag(value <= 0.0, error, message, u), math.nan, value)
    scan(domain, 64, check)


def gauge_from_expr(expr: "Expr | str", consts: Mapping[str, float] | None = None) -> GaugeFn:
    profile = expr_profile(expr, consts)

    def fn(u: float) -> Dual:
        return Dual.from_jet(profile(u))

    fn.source = profile.source  # type: ignore[attr-defined]
    return fn


def constraint_rhs(spec: HelicoidSpec) -> Callable[[float], Dual]:
    """Right-hand side of the gauge constraint as a function of u (with derivative)."""
    lam2 = spec.pitch ** 2
    fam = FAMILIES[spec.kind]

    def rhs(u: float) -> Dual:
        return fam.constraint_rhs(lam2, *fam.profile(profile_jets(spec, u)))

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
    s, squared = FAMILIES[spec.kind].constraint

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
        us, squares = scan(spec.domain, samples, lambda u: solved(u).v)
        bad = us[squares < 0.0].tolist()
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
    (x'/w', z'/w') (``Family.natural``).  The first quadrature channel
    always rebuilds the first profile component; swapping the channels
    would break the pitch-0 reduction, which pins the pairing down.
    """
    def ratio(num_name: str, den_name: str) -> GaugeFn:
        def fn(u: float) -> Dual:
            pj = profile_jets(spec, u)
            return Dual.shift(pj[num_name]) / Dual.shift(pj[den_name])
        return fn

    return BourGauge(spec.kind, *(ratio(*pair) for pair in FAMILIES[spec.kind].natural))


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

    def __init__(self, spec: HelicoidSpec, sign: int = 1):
        self.spec = spec
        self.sign = sign
        lam = spec.pitch
        fam = FAMILIES[spec.kind]
        self._table = None
        if fam.closed_shift is not None:
            def shift_dual(u: float) -> Dual:
                return fam.closed_shift(lam, *fam.profile(profile_jets(spec, u)))
            self._shift = lambda u: shift_dual(u).v
            self._dshift = lambda u: shift_dual(u).d
        elif lam == 0.0:
            self._shift = lambda u: 0.0
            self._dshift = lambda u: 0.0
        else:
            def integrand(u: float) -> float:
                return fam.shift_rate(lam, *fam.profile(profile_jets(spec, u)))
            self._table = Antiderivative(integrand, spec.domain[0], spec.domain[1])
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
    # tol keys the cache only: the table reads the same default_tolerance()
    return VbarMap(spec)


def vbar_map(spec: HelicoidSpec, sign: int = 1) -> VbarMap:
    """The memoised map of the spec at the current quadrature tolerance; the
    other orientation is a shallow copy that reads the same shift table."""
    vb = _vbar_cached(spec, default_tolerance())
    if sign != vb.sign:
        vb = copy.copy(vb)
        vb.sign = sign
    return vb


def vbar(spec: HelicoidSpec, u: float, v: float, sign: int = 1) -> float:
    """The reparametrized angle for one point; see VbarMap."""
    return vbar_map(spec, sign)(u, v)


# ---------------------------------------------------------------------------
# the isometric rotational partner

def _quad_profile(integrand: Callable[[float], Dual], domain, constant: float,
                  label: str) -> ProfileFn:
    """The profile constant + int integrand du, tabulated once; the integrand
    takes a float or an array of u, the profile a float."""
    table = Antiderivative(lambda u: integrand(u).v, domain[0], domain[1])

    def fn(u: float) -> Jet2:
        d = integrand(u)
        return Jet2(constant + table(u), d.v, d.d)

    fn.source = label  # type: ignore[attr-defined]
    return fn


def bour_partner(spec: HelicoidSpec, gauge: BourGauge,
                 constants: tuple[float, float] = (0.0, 0.0)) -> RotationalSpec:
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
    fam = FAMILIES[spec.kind]
    q_name, pm, drho_label = fam.radial
    q_expr = spec.exprs[q_name]

    if pm == -1.0:  # sqrt(q^2 - lam^2) is real only where q^2 > lam^2
        _require_positive(spec.domain, lambda u: eval_jet(q_expr, u, consts).v ** 2 - lam ** 2,
                          NotSpacelikeError,
                          q_name + "^2 - lambda^2 <= 0 at u = {:.6g}: no radial component")

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
                           constants[0], f"<quadrature a {drho_label}>")
    quad_b = _quad_profile(lambda u: gauge.b(u) * drho(u), spec.domain,
                           constants[1], f"<quadrature b {drho_label}>")
    parts = [quad_a, quad_b]
    parts.insert(fam.radial_slot, rho)
    n, s, r = parts
    return RotationalSpec(spec.kind, n, s, r, spec.domain, v_domain=spec.v_domain)


# ---------------------------------------------------------------------------
# residual checkers

def _pair_sweep(h: HelicoidSpec, r: RotationalSpec, grid: Grid, sign: int,
                point: Callable) -> Iterator[Block]:
    """Sweep ``point(k, g, hj, rj)`` over the grid: k = d(vbar)/du, the
    helicoid metric g and both surface jets.

    The helicoid metric does not depend on v; it is taken once per u, at
    v = 0.  The partner jet is read at (u, vbar(u, v)).
    """
    vb = vbar_map(h, sign)

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
                      sign: int = 1) -> float:
    """Sup difference between the helicoid metric and the pulled-back partner metric.

    The pullback of the partner's first form under (u, v) -> (u, vbar(u, v))
    uses the exact derivative of the shift, so quadrature error never enters;
    the residual is zero exactly when the gauge constraint holds.
    """
    return _sweep_sup(_pair_sweep(
        h, r, grid, sign,
        lambda k, g, hj, rj: (_isometry_defect(g, first_form(rj), k),)))


def gauss_residual(h: HelicoidSpec, r: RotationalSpec, grid: Grid,
                   sign: int = 1) -> float:
    """Sup componentwise difference of the two Gauss maps under the correspondence."""
    return _sweep_sup(_pair_sweep(h, r, grid, sign,
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
    fam = FAMILIES.get(kind)
    if fam is None or fam.ode_sign is None:
        raise ValidationError("the gauge ODE exists for kinds I and II only")
    sign = fam.ode_sign
    consts = dict(consts or {})
    sq = sq_gauge if callable(sq_gauge) else gauge_from_expr(sq_gauge, consts)
    p = parse(profile) if isinstance(profile, str) else profile

    def violation(u):
        g = sq(u).sqrt()
        q = eval_jet(p, u, consts)
        qq = q.v * q.d1
        lhs = (q.v * q.v + sign * lam * lam) * g.d + qq * g.v
        return abs(lhs - qq * g.v ** 3)
    return _scan_sup(domain, samples, violation)


def minimal_pair_identity_residual(spec: HelicoidSpec, samples: int = 64) -> float:
    """Residual of the profile identity that a shared Gauss map forces.

    kind I:  lam^2 (x x' w'' + w'(2 x'^2 - x x'')) + x^2 (w'(w'^2 - x'^2) + x (x'' w' - x' w''))
    kind II: lam (x' w'^2 (2 lam^2 + w^2) - w^2 x'^3 + w (lam^2 + w^2)(x'' w' - x' w''))
    """
    fam = FAMILIES[spec.kind]
    if fam.identity is None:
        raise ValidationError(
            f"no shared-Gauss-map identity exists for kind {spec.kind.value}")
    return _scan_sup(spec.domain, samples, lambda u: abs(
        fam.identity(spec.pitch, *fam.profile(profile_jets(spec, u)))))


def parallel_curve_residual(h: HelicoidSpec, r: RotationalSpec, u0: float,
                            vs: Sequence[float]) -> float:
    """How far the partner's u = u0 curve is from its expected shape.

    kind I: a circle of radius sqrt(x(u0)^2 - lam^2) in the first two
    coordinates with the last two frozen; kind II: a hyperbola branch with
    x4^2 - x3^2 = lam^2 + w(u0)^2 and the first two coordinates frozen;
    kind III: a null-plane parabola (in the null-pair basis, the third
    coordinate is quadratic in the second with frozen first and fourth).
    """
    fam = FAMILIES[h.kind]
    jets = fam.profile(profile_jets(h, u0))
    pts = [rotational_jet(r, u0, v).X for v in vs]
    return max([0.0, *(d for defects in fam.parallel(h.pitch, *jets, pts) for d in defects)])


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


def pitch_bound(lam: float) -> float:
    """1/lam^2, the bound on c3 of a shared-Gauss-map pair with pitch lam;
    the pitch must keep lam^2 and 1/lam^2 normal floats."""
    if not lam > 0.0:
        raise ValidationError("shared-Gauss-map pairs need a positive pitch")
    if not 1e-150 < lam < 1e150:
        raise ValidationError(f"pitch {lam!r} outside (1e-150, 1e150)")
    return 1.0 / lam ** 2


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

    Requires lam > 0, 0 < c3 <= 1/lam^2 and x^2 > lam^2 on the domain;
    c3 = 1/lam^2 gives the right helicoid (the fourth profile component
    degenerates to zero).  Both
    surfaces are hyperplanar (third coordinate frozen at c1 resp. c2) and
    minimal; the partner's angular offset is chosen so the Gauss maps agree
    pointwise under the vbar correspondence.
    """
    bound = pitch_bound(lam)
    if not 0.0 < c3 <= bound:
        raise ValidationError(f"c3 = {c3!r} outside (0, 1/lambda^2] = (0, {bound!r}]")
    x_expr = parse(x) if isinstance(x, str) else x
    consts = _merge_constants(constants, lam=lam, c3=c3, c4=c4)

    right_helicoid = (c3 == bound)
    w_expr = Num(0.0) if right_helicoid else _build_from_template(_W_TEMPLATE_I, x_expr, sign_w)
    h = make_helicoid(SurfaceKind.I, lam,
                      {"x": x_expr, "z": Num(float(c1)), "w": w_expr},
                      domain, consts, v_domain)
    _require_positive(domain, lambda u: eval_jet(x_expr, u, consts).v ** 2 - lam ** 2,
                      ValidationError, "x^2 - lambda^2 <= 0 at u = {:.6g}: sqrt leaves its domain")

    n_fn = expr_profile(_build_from_template(_N_TEMPLATE_I, x_expr), consts)
    r_fn = expr_profile(_build_from_template(_R4_TEMPLATE_I, x_expr, sign_r, c4), consts)

    # Rigid rotation aligning the Gauss maps: the matching conditions fix
    # cos/sin of the total angular shift at the anchor point, and the shared
    # minimality identity keeps its derivative equal to the vbar integrand,
    # so only the constant against the tabulated shift has to be set.
    u0 = shrunk(*domain)[0]
    xj = eval_jet(x_expr, u0, consts)
    wj = eval_jet(w_expr, u0, consts)
    if xj.v == 0.0 or xj.d1 == 0.0:
        raise ValidationError(f"x or x' vanishes at u = {u0:.6g}: no angular alignment exists")
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
    bound = pitch_bound(lam)
    if not -bound < c3 < 0.0:
        raise ValidationError(f"c3 = {c3!r} outside (-1/lambda^2, 0) = ({-bound!r}, 0)")
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
    _require_positive(domain, lambda u: 1.0 + c3 * (lam ** 2 + eval_jet(w_expr, u, consts).v ** 2),
                      ValidationError,
                      "1 + c3*(lambda^2 + w^2) <= 0 at u = {:.6g}: asin leaves its domain")

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
                sign: int = 1,
                sign_choices: Mapping[str, int] | None = None) -> PairReport:
    """Sweep the grid once and aggregate every pairwise claim into verdicts."""
    if grid is None:
        grid = grid_for(h)

    def point(k, g, hj, rj):
        return (_isometry_defect(g, first_form(rj), k), _gauss_defect(hj, rj),
                curvature_report(hj).H_sup, curvature_report(rj).H_sup, *hj.X, *rj.X)

    # the residual maxima fold per block; both surfaces' positions go into
    # one array, whose variances are then taken in place
    n = grid.nu * grid.nv
    worst, positions, start = np.zeros(4), np.empty((2, n, 4)), 0
    for block in _pair_sweep(h, r, grid, sign, point):
        worst = np.maximum(worst, block.out[:, :4].max(axis=0))
        stop = start + len(block.out)
        positions[:, start:stop] = block.out[:, 4:].reshape(-1, 2, 4).transpose(1, 0, 2)
        start = stop
    iso, gauss, *h_sup = worst.tolist()
    # the steps of np.var(axis=1), without its copy of the positions
    positions -= positions.sum(axis=1, keepdims=True) / n
    positions *= positions
    defects = tuple(np.min(positions.sum(axis=1) / n, axis=1).tolist())
    verdicts = {
        "isometric": iso < tols.isometry,
        "same_gauss": gauss < tols.gauss,
        "minimal": max(h_sup) < tols.mean_curvature,
        "hyperplanar": max(defects) < tols.hyperplanarity,
    }
    return PairReport(grid, iso, gauss, (h_sup[0], h_sup[1]), defects,
                      verdicts, tols, dict(sign_choices or {"vbar": sign}))
