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

import math
from dataclasses import asdict, dataclass
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from .errors import (InfeasibleGaugeError, NotSpacelikeError, ValidationError)
from .expressions import (Bin, Expr, Neg, Num, eval_jet, parse, substitute,
                          to_source)
from .families import (FAMILIES, HelicoidSpec, ProfileFn, RotationalSpec,
                       SurfaceKind, _number, const_profile, expr_profile,
                       helicoid_jet, is_constant_profile, make_helicoid,
                       profile_jets)
from .families import VbarMap  # noqa: F401  (re-exported)
from .grids import Block, Grid, grid_for, scan, shrunk, sweep
from .jets import Jet2
from .lorentz import Bivector6, flag, sup, where
from .quadrature import Antiderivative
from .surfaces import FirstForm, curvature_report, first_form, gauss_map, spacelike

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
    (``Family.constraint``).  Each of a and b is a profile function of u,
    and like the integrands built from it takes a float or an array of u (a
    level of quadrature nodes); ``expr_profile`` makes one from an expression.
    """

    kind: SurfaceKind
    a: ProfileFn
    b: ProfileFn

    def residual(self, spec: HelicoidSpec) -> float:
        """Max violation of the compatibility constraint over 64 domain samples."""
        rhs = constraint_rhs(spec)
        s, squared = FAMILIES[self.kind].constraint

        def violation(u):
            a, b = self.a(u).v, self.b(u).v
            return abs(a * a + s * (b * b if squared else b) - rhs(u).v)
        return _scan_sup(spec.domain, 64, violation)


def _scan_sup(domain: tuple[float, float], n: int, f: Callable) -> float:
    """The largest value of f on a domain scan, and at least 0; a sample
    whose value is not finite raises (``grids.scan``)."""
    return float(np.max(scan(domain, n, f)[1], initial=0.0))


def _require_positive(domain: tuple[float, float], f: Callable, error: type,
                      message: str) -> None:
    """Scan f over 64 domain samples: the first sample u in ascending order
    where f(u) <= 0, or where f raises, raises ``error(message.format(u))``
    or f's own error."""
    def check(u):
        value = f(u)
        return where(flag(value <= 0.0, error, message, u), math.nan, value)
    scan(domain, 64, check)


def constraint_rhs(spec: HelicoidSpec) -> ProfileFn:
    """Right-hand side of the gauge constraint as a function of u, exact to
    first order (its second order reads the profile's unknown third)."""
    lam2 = spec.pitch ** 2
    fam = FAMILIES[spec.kind]

    def rhs(u: float) -> Jet2:
        return fam.constraint_rhs(lam2, *fam.profile(profile_jets(spec, u)))

    return rhs


def gauge_complete(spec: HelicoidSpec, given: str, expr: "Expr | str") -> BourGauge:
    """Fill in the missing gauge function from the constraint, nonnegative branch.

    Raises InfeasibleGaugeError (with the offending u-interval) when the
    induced square goes negative at one of 96 domain samples.
    """
    if given not in ("a", "b"):
        raise ValidationError(f"given must be 'a' or 'b', not {given!r}")
    g = expr_profile(expr, spec.consts)
    rhs = constraint_rhs(spec)
    s, squared = FAMILIES[spec.kind].constraint

    if given == "a":
        def solved(u: float) -> Jet2:  # h(b) = (rhs - a^2) / s
            gv = g(u)
            return (rhs(u) - gv * gv) / s
    else:
        def solved(u: float) -> Jet2:  # a^2 = rhs - s h(b)
            gv = g(u)
            return rhs(u) - s * (gv * gv if squared else gv)

    if given == "a" and not squared:
        other = solved  # kind III: h(b) is b itself
    else:
        us, squares = scan(spec.domain, 96, lambda u: solved(u).v)
        bad = us[squares < 0.0].tolist()
        if bad:
            raise InfeasibleGaugeError(
                "gauge constraint forces a negative square", (min(bad), max(bad)))

        def other(u: float) -> Jet2:
            return solved(u).sqrt()

    a, b = (g, other) if given == "a" else (other, g)
    return BourGauge(spec.kind, a, b)


def natural_gauge(spec: HelicoidSpec) -> BourGauge:
    """The gauge for which the pitch-0 partner is the original surface itself.

    kind I: (a, b) = (z'/x', w'/x'); kind II: (x'/w', y'/w'); kind III:
    (x'/w', z'/w') (``Family.natural``).  The first quadrature channel
    always rebuilds the first profile component; swapping the channels
    would break the pitch-0 reduction, which pins the pairing down.
    """
    def ratio(num_name: str, den_name: str) -> ProfileFn:
        def fn(u: float) -> Jet2:
            pj = profile_jets(spec, u)
            return pj[num_name].deriv() / pj[den_name].deriv()
        return fn

    return BourGauge(spec.kind, *(ratio(*pair) for pair in FAMILIES[spec.kind].natural))


def scale_gauge(gauge: BourGauge, a_factor: float = 1.0, b_factor: float = 1.0) -> BourGauge:
    """Deliberately detuned gauge, for negative controls."""
    return BourGauge(gauge.kind,
                     lambda u: gauge.a(u) * a_factor,
                     lambda u: gauge.b(u) * b_factor)


# ---------------------------------------------------------------------------
# the isometric rotational partner

def _quad_profile(g: ProfileFn, rho: ProfileFn, domain, constant: float,
                  label: str) -> ProfileFn:
    """The profile constant + int g rho' du, tabulated once; the table reads
    the integrand's value alone (on a float or an array of u), the profile
    takes a float."""
    table = Antiderivative(lambda u: g(u).v * rho(u).d1, domain[0], domain[1])

    def fn(u: float) -> Jet2:
        d = g(u) * rho(u).deriv()
        return Jet2(constant + table(u), d.v, d.d1)

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
    else:
        c = pm * lam ** 2

        def rho(u: float) -> Jet2:
            q = eval_jet(q_expr, u, consts)
            return (q * q + c).sqrt()
        op = "-" if pm < 0 else "+"
        rho.source = f"sqrt(({to_source(q_expr)})^2 {op} {lam!r}^2)"  # type: ignore[attr-defined]

    quad_a = _quad_profile(gauge.a, rho, spec.domain, constants[0],
                           f"<quadrature a {drho_label}>")
    quad_b = _quad_profile(gauge.b, rho, spec.domain, constants[1],
                           f"<quadrature b {drho_label}>")
    parts = [quad_a, quad_b]
    parts.insert(fam.radial_slot, rho)
    n, s, r = parts
    return RotationalSpec(spec.kind, n, s, r, spec.domain)


# ---------------------------------------------------------------------------
# residual checkers

def _pair_sweep(h: HelicoidSpec, r: RotationalSpec, grid: Grid, sign: int,
                point: Callable) -> Iterator[Block]:
    """Sweep ``point(k, hj, rj)`` over the grid: k = d(vbar)/du and both
    surface jets.

    The partner jet is read at (u, v + sign shift(u)): ``sign = -1`` probes
    the other orientation of the helicoid's one angular map.
    """
    vb = h.vbar

    def once(u):
        return sign * vb.du(u), profile_jets(h, u), sign * vb.shift(u), profile_jets(r, u)

    def f(u, v, pre=None):  # a float re-run passes no pre: a point's own order
        k, hp, shift, rp = pre or (sign * vb.du(u), None, None, None)
        hj = helicoid_jet(h, u, v, hp)
        return point(k, hj, helicoid_jet(r, u, v + (shift if pre else sign * vb.shift(u)), rp))

    return sweep(grid, f, once=once)


def _sweep_sup(blocks: Iterator[Block]) -> float:
    """The largest output of a sweep, and at least 0."""
    return max(0.0, *(float(b.out.max()) for b in blocks))


def _isometry_defect(g: FirstForm, G: FirstForm, k: float) -> float:
    """The defect of the partner metric G pulled back by k against the
    helicoid metric g."""
    p11 = G.g11 + 2.0 * G.g12 * k + G.g22 * k * k
    p12 = G.g12 + G.g22 * k
    pW = p11 * G.g22 - p12 * p12
    return sup(abs(p11 - g.g11), abs(p12 - g.g12), abs(G.g22 - g.g22), abs(pW - g.W))


def _gauss_defect(nu: Bivector6, mu: Bivector6) -> float:
    return (nu - mu).sup_norm()


def isometry_residual(h: HelicoidSpec, r: RotationalSpec, grid: Grid,
                      sign: int = 1) -> float:
    """Sup difference between the helicoid metric and the pulled-back partner metric.

    The pullback of the partner's first form under (u, v) -> (u, vbar(u, v))
    uses the exact derivative of the shift, so quadrature error never enters;
    the residual is zero exactly when the gauge constraint holds.
    """
    return _sweep_sup(_pair_sweep(
        h, r, grid, sign, lambda k, hj, rj: (_isometry_defect(first_form(hj), first_form(rj), k),)))


def gauss_residual(h: HelicoidSpec, r: RotationalSpec, grid: Grid,
                   sign: int = 1) -> float:
    """Sup componentwise difference of the two Gauss maps under the correspondence."""
    return _sweep_sup(_pair_sweep(
        h, r, grid, sign, lambda k, hj, rj: (_gauss_defect(gauss_map(hj), gauss_map(rj)),)))


def choose_vbar_sign(h: HelicoidSpec, r: RotationalSpec) -> tuple[int, dict]:
    """Pick the orientation of the angular shift empirically.

    Some sources disagree on the sign of the accumulated shift for kind II;
    both orientations are probed on a coarse 5x5 grid and the one with the
    smaller Gauss residual wins.  Returns the sign and the probe residuals.
    """
    probe = grid_for(h, nu=5, nv=5)
    plus = gauss_residual(h, r, probe, sign=1)
    minus = gauss_residual(h, r, probe, sign=-1)
    sign = 1 if plus <= minus else -1
    return sign, {"plus": plus, "minus": minus}


def bernoulli_residual(sq_gauge: "ProfileFn | Expr | str", profile: "Expr | str",
                       lam: float, domain: tuple[float, float],
                       consts: Mapping[str, float] | None = None,
                       kind: SurfaceKind = SurfaceKind.I) -> float:
    """Residual of the minimality ODE for the squared gauge function, at 64
    domain samples.

    kind I  (with q = x):  (q^2 - lam^2) b' + q q' b = q q' b^3
    kind II (with q = w):  (q^2 + lam^2) a' + q q' a = q q' a^3

    sq_gauge supplies b^2 (resp. a^2), as a profile function or an
    expression; the positive root is differentiated by jet arithmetic.
    """
    fam = FAMILIES.get(kind)
    if fam is None or fam.ode_sign is None:
        raise ValidationError("the gauge ODE exists for kinds I and II only")
    sign = fam.ode_sign
    consts = dict(consts or {})
    sq = sq_gauge if callable(sq_gauge) else expr_profile(sq_gauge, consts)
    p = parse(profile) if isinstance(profile, str) else profile

    def violation(u):
        g = sq(u).sqrt()
        q = eval_jet(p, u, consts)
        qq = q.v * q.d1
        lhs = (q.v * q.v + sign * lam * lam) * g.d1 + qq * g.v
        return abs(lhs - qq * g.v ** 3)
    return _scan_sup(domain, 64, violation)


def minimal_pair_identity_residual(spec: HelicoidSpec) -> float:
    """Residual of the profile identity that a shared Gauss map forces, at 64
    domain samples.

    kind I:  lam^2 (x x' w'' + w'(2 x'^2 - x x'')) + x^2 (w'(w'^2 - x'^2) + x (x'' w' - x' w''))
    kind II: lam (x' w'^2 (2 lam^2 + w^2) - w^2 x'^3 + w (lam^2 + w^2)(x'' w' - x' w''))
    """
    fam = FAMILIES[spec.kind]
    if fam.identity is None:
        raise ValidationError(
            f"no shared-Gauss-map identity exists for kind {spec.kind.value}")
    return _scan_sup(spec.domain, 64, lambda u: abs(
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
    pts = [helicoid_jet(r, u0, v).X for v in vs]
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
    c1, c2 = _number(c1, "c1"), _number(c2, "c2")
    x_expr = parse(x) if isinstance(x, str) else x
    consts = _merge_constants(constants, lam=lam, c3=c3, c4=c4)

    right_helicoid = (c3 == bound)
    w_expr = Num(0.0) if right_helicoid else _build_from_template(_W_TEMPLATE_I, x_expr, sign_w)
    h = make_helicoid(SurfaceKind.I, lam,
                      {"x": x_expr, "z": Num(c1), "w": w_expr},
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
    offset = -j_true - h.vbar(u0, 0.0)
    partner = RotationalSpec(SurfaceKind.I, n_fn, const_profile(c2), r_fn,
                             domain, v_offset=offset)
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
    c1, c2 = _number(c1, "c1"), _number(c2, "c2")
    w_expr = parse(w) if isinstance(w, str) else w
    consts = _merge_constants(constants, lam=lam, c3=c3, c4=c4)

    x_expr = _build_from_template(_X_TEMPLATE_II, w_expr, sign_x)
    h = make_helicoid(SurfaceKind.II, lam,
                      {"x": x_expr, "y": Num(c1), "w": w_expr},
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
    offset = i_true - h.vbar(u0, 0.0)

    n_fn = expr_profile(_build_from_template(_N_TEMPLATE_II, w_expr, sign_n, c4), consts)
    r_fn = expr_profile(_build_from_template(_R_TEMPLATE_II, w_expr), consts)
    partner = RotationalSpec(SurfaceKind.II, n_fn, const_profile(c2), r_fn,
                             domain, v_offset=offset)
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


def pair_report(h: HelicoidSpec, r: RotationalSpec, grid: Grid, sign: int = 1,
                sign_choices: Mapping[str, int] | None = None) -> PairReport:
    """Sweep the grid once and aggregate every pairwise claim into verdicts."""
    tols = PairTolerances()

    def point(k, hj, rj):  # one first form per surface; both built before either is checked
        g, G = first_form(hj), first_form(rj)
        iso, g, G = _isometry_defect(g, G, k), spacelike(g), spacelike(G)
        return (iso, _gauss_defect(gauss_map(hj, g), gauss_map(rj, G)),
                curvature_report(hj, first=g).H_sup, curvature_report(rj, first=G).H_sup,
                *hj.X, *rj.X)

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
    # the steps of np.var(axis=1), without its copy of the positions, after
    # moving each surface's first point to the origin, so that a constant
    # coordinate has variance exactly 0 however large it is (the copy keeps
    # numpy from buffering the whole overlapping subtraction)
    positions -= positions[:, :1].copy()
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
