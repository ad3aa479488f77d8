"""Constructing and checking isometric helicoidal/rotational partners.

Each spacelike helicoidal surface is isometric to a rotational surface of the
same kind.  With Bour's reparametrized angle vbar = v + int g12/g22 du (for
kind III, v + lam/(2 w(u))), the map (u, v) -> (u, vbar) pulls the
rotational metric back onto the helicoidal one whenever the free gauge
functions a(u), b(u) satisfy the kind's compatibility constraint.  That
orientation is the only one: every checker reads the partner at (u, vbar),
so a construction with the wrong orientation fails its verdicts rather than
being matched by a flipped angle.  On top of the generic construction this
module builds the special pitch/gauge choices for which the two surfaces
also share their Gauss map (then both are hyperplanar and minimal), and it
provides residual checkers for every claim: isometry, Gauss-map equality or
difference, minimality, hyperplanarity, the gauge ODE, and the geometry of
the parameter curves the correspondence produces.
"""

from __future__ import annotations

import math
from typing import Callable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import (EvalDomainError, InfeasibleGaugeError, NonFiniteError, NotSpacelikeError,
                     ValidationError)
from .expressions import (Bin, Expr, Neg, Num, eval_jet, parse, substitute,
                          to_source)
from .families import (FAMILIES, Family, HelicoidSpec, ProfileFn, RotationalSpec,
                       SurfaceKind, _number, angular_rate, const_profile,
                       expr_profile, helicoid_jet, is_constant_profile,
                       make_helicoid, profile_jets)
from .families import VbarMap  # noqa: F401  (re-exported)
from .grids import Block, Grid, scan, shrunk, sweep
from .jets import Jet2
from .lorentz import Bivector6, flag, minkowski_dot, sup, where
from .quadrature import Antiderivative
from .surfaces import FirstForm, first_form, gauss_map, mean_curvature_vector, spacelike

# ---------------------------------------------------------------------------
# Bour's construction, read off each kind's group and first form

class BourData(NamedTuple):
    """Bour's construction of one kind, read off its group.  Profile slot i
    spans e_i, exp(0 A) of the i-th unit point, and A annihilates each e_i
    but the radial one, e_r.  The pitch-0 orbit of rho e_r + p e_a + q e_b
    has g22 = c rho^2 and g11 = rho'^2 Q(p'/rho', q'/rho'), Q the Gram form
    of e_r + a e_a + b e_b.  Bour's change of angle gives the helicoid the
    metric (W/g22) du^2 + g22 dvbar^2, so the partner matches it where
    c rho^2 = g22 and Q(a, b) = W/(g22 rho'^2) = 4 c W/g22'^2."""

    radial: int  # r, the slot of rho in the partner's (n, s, r)
    free: tuple[int, int]  # the slots of a and b, in order
    c: float  # <A e_r, A e_r>
    k: float  # <t, t>/c for the axis t: rho^2 = q^2 + k lam^2, q the radial profile
    rr: float  # <e_r, e_r>: Q(a, b) = rr + a^2 + s h(b)
    constraint: tuple[float, bool]  # (s, squared): h(b) = b^2, or b where e_b is null


def _bour_data(fam: Family) -> BourData:
    M, A, t = fam.group(0.0), fam.generator, fam.kernel[0]
    e = [M(*(float(i == j) for j in range(3))) for i in range(3)]
    r = next(i for i in range(3) if any(A(e[i])))
    a, b = (i for i in range(3) if i != r)
    # a Lorentz basis has integer Gram entries; the floats miss them by an ulp
    c, tt, rr, rb, bb = (float(round(minkowski_dot(p, q))) for p, q in (
        (A(e[r]), A(e[r])), (t, t), (e[r], e[r]), (e[r], e[b]), (e[b], e[b])))
    return BourData(r, (a, b), c, tt / c, rr, (bb, True) if bb else (2.0 * rb, False))


#: Each kind's Bour construction, derived from its ``Family``.
BOUR = {kind: _bour_data(fam) for kind, fam in FAMILIES.items()}


# ---------------------------------------------------------------------------
# gauge functions and their compatibility constraint

class BourGauge(NamedTuple):
    """The free pair a(u), b(u) of the partner construction.

    Feasible gauges satisfy a^2 + s h(b) = ``constraint_rhs`` on the whole
    domain: a^2 - b^2, a^2 + b^2 and a^2 - 2b for kinds I, II and III
    (``BourData.constraint``).  Each of a and b is a profile function of u,
    and like the integrands built from it takes a float or an array of u (a
    level of quadrature nodes); ``expr_profile`` makes one from an expression.
    """

    kind: SurfaceKind
    a: ProfileFn
    b: ProfileFn

    def residual(self, spec: HelicoidSpec) -> float:
        """Max violation of the compatibility constraint over 64 domain samples."""
        rhs = constraint_rhs(spec)
        s, squared = BOUR[self.kind].constraint

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


_SINGULAR = "g22' = {!r} at u = {!r}: the gauge constraint 4cW/g22'^2 is singular"


def _g22_rate(spec: HelicoidSpec) -> Callable:
    """u -> (g22', W) of the helicoid, as jets in u: the closed-form metric
    runs on jets in u, a profile's value as its jet, its d1 as deriv()."""
    fam = FAMILIES[spec.kind]

    def rate(u):
        _, _, g22, W = fam.metric(spec.pitch, *(Jet2(p, p.deriv())
                                               for p in fam.profile(profile_jets(spec, u))))
        return g22.deriv(), W

    return rate


def constraint_rhs(spec: HelicoidSpec) -> ProfileFn:
    """The gauge constraint's right-hand side 4 c W/g22'^2 - <e_r, e_r>
    (``BourData``) as a function of u, exact to first order (``_g22_rate``).
    It is singular where g22' = 0 (``lorentz.flag``): NaN on arrays, an
    EvalDomainError naming u on floats."""
    bd, rate = BOUR[spec.kind], _g22_rate(spec)

    def rhs(u: float) -> Jet2:
        dg22, W = rate(u)
        sq = dg22 * dg22
        # on arrays the division leaves NaN wherever this flag holds
        flag(sq.v == 0.0, EvalDomainError, _SINGULAR, dg22.v, u)
        return 4.0 * bd.c * W / sq - bd.rr

    return rhs


def _require_no_g22_root(spec: HelicoidSpec) -> None:
    """Raise the constraint's singularity where g22' changes sign between
    two of 96 domain samples, at the root bisected on floats."""
    rate = _g22_rate(spec)
    us, d = scan(spec.domain, 96, lambda u: rate(u)[0].v)
    turns = np.flatnonzero(np.sign(d[:-1]) * np.sign(d[1:]) < 0.0)
    if turns.size:
        (lo, hi), negative = us[turns[0]:turns[0] + 2].tolist(), d[turns[0]] < 0.0
        while lo < (mid := 0.5 * (lo + hi)) < hi:
            if (rate(mid)[0].v < 0.0) == negative:
                lo = mid
            else:
                hi = mid
        u = min((lo, hi), key=lambda x: abs(rate(x)[0].v))
        raise EvalDomainError(_SINGULAR.format(rate(u)[0].v, u))


def gauge_complete(spec: HelicoidSpec, given: str, expr: "Expr | str") -> BourGauge:
    """Fill in the missing gauge function from the constraint, nonnegative branch.

    Raises EvalDomainError where g22' vanishes between domain samples, and
    InfeasibleGaugeError (with the offending u-interval) when the induced
    square goes negative at one of 96 domain samples.
    """
    if given not in ("a", "b"):
        raise ValidationError(f"given must be 'a' or 'b', not {given!r}")
    _require_no_g22_root(spec)
    g = expr_profile(expr, spec.consts)
    rhs = constraint_rhs(spec)
    s, squared = BOUR[spec.kind].constraint

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

    Each free component's derivative over the radial one's (``BourData``):
    (z'/x', w'/x'), (x'/w', y'/w') and (x'/w', z'/w') for kinds I, II and
    III.  Swapping a and b would break the pitch-0 reduction.
    """
    def ratio(num_name: str, den_name: str) -> ProfileFn:
        def fn(u: float) -> Jet2:
            pj = profile_jets(spec, u)
            return pj[num_name].deriv() / pj[den_name].deriv()
        return fn

    names, bd = FAMILIES[spec.kind].names, BOUR[spec.kind]
    return BourGauge(spec.kind, *(ratio(names[i], names[bd.radial]) for i in bd.free))


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

    The radial slot (``BourData``) holds rho: sqrt(x^2 - lam^2) for kind I
    (slot n), sqrt(w^2 + lam^2) for kind II and w for kind III (slot r).
    The free slots integrate a rho' and b rho', anchored to 0 at the left
    end of the domain; ``constants`` adds the free additive constants.  For
    kind I, x^2 - lam^2 must stay positive.
    """
    if gauge.kind is not spec.kind:
        raise ValidationError("gauge kind does not match the surface kind")
    lam, consts, bd = spec.pitch, spec.consts, BOUR[spec.kind]
    q_name = FAMILIES[spec.kind].names[bd.radial]
    q_expr = spec.exprs[q_name]
    try:  # rho^2 = q^2 + c; kind III's rho is q itself, whatever the pitch
        c = bd.k * lam ** 2 if bd.k else 0.0
    except OverflowError:
        raise NonFiniteError(f"pitch lambda = {lam!r} overflows lambda^2") from None

    if bd.k < 0.0:  # sqrt(q^2 - lam^2) is real only where q^2 > lam^2
        _require_positive(spec.domain, lambda u: eval_jet(q_expr, u, consts).v ** 2 + c,
                          NotSpacelikeError,
                          q_name + "^2 - lambda^2 <= 0 at u = {:.6g}: no radial component")

    if bd.k == 0.0:
        rho, drho_label = expr_profile(q_expr, consts), q_name + "'"
    else:
        def rho(u: float) -> Jet2:
            q = eval_jet(q_expr, u, consts)
            return (q * q + c).sqrt()
        op = "-" if bd.k < 0 else "+"
        rho.source = f"sqrt(({to_source(q_expr)})^2 {op} {lam!r}^2)"  # type: ignore[attr-defined]
        drho_label = f"{q_name} {q_name}'/sqrt({q_name}^2{op}lam^2)"

    parts = [_quad_profile(g, rho, spec.domain, c0, f"<quadrature {name} {drho_label}>")
             for name, g, c0 in zip("ab", (gauge.a, gauge.b), constants)]
    parts.insert(bd.radial, rho)
    return RotationalSpec(spec.kind, *parts, spec.domain)


# ---------------------------------------------------------------------------
# residual checkers

def _pair_sweep(h: HelicoidSpec, r: RotationalSpec, grid: Grid,
                point: Callable) -> Iterator[Block]:
    """Sweep ``point(k, hj, rj)`` over the grid: k = d(vbar)/du and both
    surface jets, the partner's read at (u, vbar) = (u, v + shift(u))."""
    def once(u):
        hp = profile_jets(h, u)
        return angular_rate(h, hp, u), hp, h.vbar.shift(u), profile_jets(r, u)

    def f(u, v, k, hp, shift, rp):
        return point(k, helicoid_jet(h, u, v, hp), helicoid_jet(r, u, v + shift, rp))

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


def isometry_residual(h: HelicoidSpec, r: RotationalSpec, grid: Grid) -> float:
    """Sup difference between the helicoid metric and the pulled-back partner metric.

    The pullback of the partner's first form under (u, v) -> (u, vbar(u, v))
    uses the exact derivative of the shift, so quadrature error never enters;
    the residual is zero exactly when the gauge constraint holds.
    """
    return _sweep_sup(_pair_sweep(
        h, r, grid, lambda k, hj, rj: (_isometry_defect(first_form(hj), first_form(rj), k),)))


def gauss_residual(h: HelicoidSpec, r: RotationalSpec, grid: Grid) -> float:
    """Sup componentwise difference of the two Gauss maps under the correspondence."""
    return _sweep_sup(_pair_sweep(
        h, r, grid, lambda k, hj, rj: (_gauss_defect(gauss_map(hj), gauss_map(rj)),)))


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
    bd = BOUR.get(kind)
    if bd is None or not bd.k:  # kind III's rho is its profile w alone
        raise ValidationError("the gauge ODE exists for kinds I and II only")
    sign = bd.k  # rho^2 = q^2 + k lam^2
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
    """The largest change of an orbit invariant along the partner's u = u0
    curve, at the angles vs: a pitch-0 orbit of the kind's group keeps <X, X>
    and <X, k> for each k in the kernel of A, and its <AX, AX> is g22, here
    the helicoid's at u0 (from the closed-form metric, not from the partner).
    """
    if len(vs) == 0:
        raise ValidationError("the orbit check needs at least one angle")
    fam = FAMILIES[h.kind]
    A = fam.generator
    g22 = fam.metric(h.pitch, *fam.profile(profile_jets(h, u0)))[2]
    got = [(minkowski_dot(X, X), *(minkowski_dot(X, k) for k in fam.kernel),
            minkowski_dot(A(X), A(X))) for X in (helicoid_jet(r, u0, v).X for v in vs)]
    want = (*got[0][:-1], g22)
    return max(abs(a - b) for point in got for a, b in zip(point, want))


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

class PairTolerances(NamedTuple):
    isometry: float = 1e-7
    gauss: float = 1e-7
    mean_curvature: float = 1e-7
    hyperplanarity: float = 1e-10

    def to_json(self) -> dict:
        return self._asdict()


class PairReport(NamedTuple):
    grid: Grid
    isometry_residual: float
    gauss_residual: float
    max_mean_curvature: tuple[float, float]
    hyperplanarity_defect: tuple[float, float]
    verdicts: dict
    tolerances: PairTolerances

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
        }


def pair_report(h: HelicoidSpec, r: RotationalSpec, grid: Grid) -> PairReport:
    """Sweep the grid once and aggregate every pairwise claim into verdicts."""
    tols = PairTolerances()

    def point(k, hj, rj):  # one first form per surface; both built before either is checked
        g, G = first_form(hj), first_form(rj)
        iso, g, G = _isometry_defect(g, G, k), spacelike(g), spacelike(G)
        return (iso, _gauss_defect(gauss_map(hj, g), gauss_map(rj, G)),
                sup(*map(abs, mean_curvature_vector(hj, g))),
                sup(*map(abs, mean_curvature_vector(rj, G))), *hj.X, *rj.X)

    # per block: the residual maxima, and each surface's count, means and
    # sums of squared deviations per coordinate, merged by the pairwise
    # update of Chan, Golub & LeVeque (Am. Stat. 37(3), 1983); each surface
    # is moved so that its first point is the origin, so that a constant
    # coordinate has variance exactly 0 however large it is
    worst, n, mean, m2, origin = np.zeros(4), 0, np.zeros(8), np.zeros(8), None
    for block in _pair_sweep(h, r, grid, point):
        worst = np.maximum(worst, block.out[:4].max(axis=1))
        x = block.out[4:]
        origin = x[:, :1].copy() if origin is None else origin
        x -= origin
        m, part = x.shape[1], x.mean(axis=1)
        x -= part[:, None]
        delta, n = part - mean, n + m
        mean += delta * (m / n)
        m2 += np.square(x, out=x).sum(axis=1) + delta * delta * ((n - m) * m / n)
    iso, gauss, *h_sup = worst.tolist()
    defects = tuple(np.min(m2.reshape(2, 4) / n, axis=1).tolist())
    verdicts = {
        "isometric": iso < tols.isometry,
        "same_gauss": gauss < tols.gauss,
        "minimal": max(h_sup) < tols.mean_curvature,
        "hyperplanar": max(defects) < tols.hyperplanarity,
    }
    return PairReport(grid, iso, gauss, (h_sup[0], h_sup[1]), defects, verdicts, tols)
