"""Family-agnostic curvature machinery for spacelike surfaces in Minkowski 4-space.

Everything here is derived only from the ambient inner product and the
standard definitions of the fundamental forms, so it serves as the oracle
against which closed-form family formulas are checked:

    g11 = <Xu,Xu>   g12 = <Xu,Xv>   g22 = <Xv,Xv>     W = det g
    Y^perp = Y - a Xu - b Xv,  where g (a, b) = (<Y,Xu>, <Y,Xv>)
    h_jk = X_jk^perp
    H   = L^perp / (2W),  L = g22 Xuu - 2 g12 Xuv + g11 Xvv
    K   = (<h11,h22> - <h12,h12>) / W
    H_i = <H, N_i>,  so H = H1 N1 - H2 N2
    nu  = (Xu ^ Xv) / sqrt(W)

H and K need no normal frame.  H1 and H2 are read in the least-boosted one:
N2 is the unit normal part of e4 (timelike), and N1 the unit normal with no
e4 component.  ``curvature_report`` reads them without building the frame:

    H2 = -H.x4 / sqrt(1 + (g22 a^2 - 2 g12 a b + g11 b^2) / W),  a, b = Xu.x4, Xv.x4
    H1 = (H.x1 c23 - H.x2 c13 + H.x3 c12) / |c|,  c = Xv x Xu (spatial)

The surface is required to be spacelike (W > 0) wherever frames, curvatures,
or the Gauss map are requested.  Jets may carry floats (one point) or arrays
(a block of points); on arrays a failed check raises nothing and leaves NaN
at the failed points instead (see ``lorentz.flag``).
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

from .errors import (DegenerateSurfaceError, FrameFailureError, NonFiniteError,
                     NotSpacelikeError)
from .lorentz import E4, Bivector6, Vec4, flag, minkowski_dot, sup, wedge, where, xp


class SurfaceJet(NamedTuple):
    """Position and derivatives through second order at one parameter point."""

    X: Vec4
    Xu: Vec4
    Xv: Vec4
    Xuu: Vec4
    Xuv: Vec4
    Xvv: Vec4


class FirstForm(NamedTuple):
    g11: float
    g12: float
    g22: float
    W: float


class Frame(NamedTuple):
    """Orthonormal tangent pair e1, e2 and normal pair N1 (spacelike), N2 (timelike)."""

    e1: Vec4
    e2: Vec4
    N1: Vec4
    N2: Vec4
    eps1, eps2 = 1, -1


class CurvatureReport(NamedTuple):
    """Curvature at one point (or a block of points).  H1 and H2 are Hvec's
    components in a normal frame, Hvec = H1 N1 - H2 N2; the minimal flag and
    H_sup = sup |Hvec| are derived on access."""

    first: FirstForm
    H1: float
    H2: float
    Hvec: Vec4
    K: float

    @property
    def minimal(self) -> bool:
        return classify_mean_curvature(self.Hvec)

    @property
    def H_sup(self) -> float:
        return sup(*map(abs, self.Hvec))


# ---------------------------------------------------------------------------
# finite-difference jets (the numeric oracle for closed-form parametrizations)

def numeric_jet(surface: Callable[[float, float], Vec4], u: float, v: float) -> SurfaceJet:
    """Second-order central differences on a 5x5 stencil, Richardson-extrapolated once.

    The step is h = 1e-3 * max(1, |u|, |v|); the result has O(h^4) error on
    smooth surfaces.
    """
    h = 1e-3 * max(1.0, abs(u), abs(v))
    s = 0.5 * h
    # stencil indexed by offsets in units of s = h/2
    pts = {}
    for i in (-2, -1, 0, 1, 2):
        for j in (-2, -1, 0, 1, 2):
            pts[(i, j)] = surface(u + i * s, v + j * s)

    def rich(coarse: Vec4, fine: Vec4) -> Vec4:
        return (fine * 4.0 - coarse) * (1.0 / 3.0)

    def p(k, axis):  # the stencil point k steps of s along the axis
        return pts[(k, 0) if axis == 0 else (0, k)]

    def d1(axis):
        return rich((p(2, axis) - p(-2, axis)) * (1.0 / (2.0 * h)),
                    (p(1, axis) - p(-1, axis)) * (1.0 / h))

    def d2(axis):
        c = pts[(0, 0)] * 2.0
        return rich((p(2, axis) + p(-2, axis) - c) * (1.0 / (h * h)),
                    (p(1, axis) + p(-1, axis) - c) * (4.0 / (h * h)))

    coarse = (pts[(2, 2)] - pts[(2, -2)] - pts[(-2, 2)] + pts[(-2, -2)]) * (1.0 / (4.0 * h * h))
    fine = (pts[(1, 1)] - pts[(1, -1)] - pts[(-1, 1)] + pts[(-1, -1)]) * (1.0 / (h * h))
    return SurfaceJet(pts[(0, 0)], d1(0), d1(1), d2(0), rich(coarse, fine), d2(1))


# ---------------------------------------------------------------------------
# fundamental forms and frames

DEGENERACY_TOL = 1e-12


def first_form(j: SurfaceJet, require_spacelike: bool = False) -> FirstForm:
    g11 = minkowski_dot(j.Xu, j.Xu)
    g12 = minkowski_dot(j.Xu, j.Xv)
    g22 = minkowski_dot(j.Xv, j.Xv)
    return finalize_first_form(g11, g12, g22, None, require_spacelike)


def finalize_first_form(g11, g12, g22, W=None, require_spacelike=False) -> FirstForm:
    """Shared validation: non-finite and degenerate forms are excluded, W < 0
    optionally too."""
    if W is None:
        W = g11 * g22 - g12 * g12
    scale = abs(g11 * g22) + g12 * g12
    # x * 0.0 is 0.0 exactly when x is finite
    nonfinite = (abs(W) + scale) * 0.0 != 0.0
    degenerate = (abs(W) <= DEGENERACY_TOL * scale) | (scale == 0.0)
    ff = FirstForm(g11, g12, g22, W)
    bad = nonfinite | degenerate
    if bad is not False:  # not one point that passed both checks
        flag(nonfinite, NonFiniteError, "first fundamental form is not finite: W = {!r}", W)
        flag(degenerate, DegenerateSurfaceError, "first fundamental form degenerate: W = {!r}", W)
        ff = where(bad, math.nan, ff)
    return spacelike(ff) if require_spacelike else ff


def spacelike(ff: FirstForm) -> FirstForm:
    """ff with its timelike points (W < 0) failed, as ``first_form(j, True)`` checks them."""
    return where(flag(ff.W < 0.0, NotSpacelikeError, "W = {!r} < 0: surface is timelike here",
                      ff.W), math.nan, ff)


def orthonormal_frame(j: SurfaceJet, first: FirstForm | None = None) -> Frame:
    """Tangent frame from the standard formulas plus the least-boosted normal pair.

    e1 = Xu/sqrt(g11), e2 = (g11 Xv - g12 Xu)/sqrt(W g11).  N2 is the unit
    normal part n = e4 - e4^T of e4: of the unit timelike normals it has the
    smallest e4 component, and n is never null, since <n,n> = -1 -
    <e4^T,e4^T> <= -1.  N1 = *(e1 ^ e2 ^ N2) is the unit normal orthogonal
    to N2; N2 differs from e4/|n| by a tangent vector, so N1 is a spatial
    cross product of e1 and e2, with e4 component 0.  ``first``, j's
    checked ``first_form(j, True)``, is built when not given.
    """
    ff = first_form(j, require_spacelike=True) if first is None else first
    bad = flag(ff.g11 <= 0.0, FrameFailureError,
               "g11 = {!r} <= 0 on a spacelike surface", ff.g11)
    sqrt = xp(ff.W).sqrt
    e1 = j.Xu * (1.0 / sqrt(ff.g11))
    e2 = (j.Xv * ff.g11 - j.Xu * ff.g12) * (1.0 / sqrt(ff.W * ff.g11))
    # <e4, e_k> = -e_k.x4, so e4's normal part is e4 + e1 e1.x4 + e2 e2.x4
    N2 = (E4 + e1 * e1.x4 + e2 * e2.x4) * (1.0 / sqrt(1.0 + e1.x4 ** 2 + e2.x4 ** 2))
    # N1 is the spatial e2 x e1 = (c23, -c13, c12): det(e1, e2, N1, N2) < 0,
    # as in the closed-form frames
    c = wedge(e2, e1)
    N1 = Vec4(c.b23, -c.b13, c.b12, 0.0) * (1.0 / sqrt(c.b12 ** 2 + c.b13 ** 2 + c.b23 ** 2))
    N1, N2 = where(bad, math.nan, (N1, N2))
    return Frame(e1, e2, N1, N2)


# ---------------------------------------------------------------------------
# curvature

def classify_mean_curvature(Hvec: Vec4) -> bool:
    """The minimal flag: sup |Hvec| < 1e-8."""
    return sup(*map(abs, Hvec)) < 1e-8


def curvature_report(j: SurfaceJet) -> CurvatureReport:
    """Curvature by the generic route: Hvec is ``mean_curvature_vector``, K
    comes from the Gauss equation on the normal parts h_jk of the second
    derivatives, and H1, H2 are <Hvec, N1>, <Hvec, N2> in the normals of
    ``orthonormal_frame(j)``, read without building them (Hvec is normal):
    H2 = -Hvec.x4 / sqrt(1 + (g22 a^2 - 2 g12 a b + g11 b^2) / W), a = Xu.x4,
    b = Xv.x4, the root the norm of e4's normal part; H1 = (Hvec.x1 c23 -
    Hvec.x2 c13 + Hvec.x3 c12) / |c|, N1 along the spatial c = Xv x Xu."""
    g11, g12, g22, W = ff = first_form(j, require_spacelike=True)
    bad = flag(g11 <= 0.0, FrameFailureError, "g11 = {!r} <= 0 on a spacelike surface", g11)
    h11, h12, h22 = (_normal_part(x, j, ff) for x in (j.Xuu, j.Xuv, j.Xvv))
    K = (minkowski_dot(h11, h22) - minkowski_dot(h12, h12)) / W
    Hvec = mean_curvature_vector(j, ff)
    (x1, x2, x3, a), (y1, y2, y3, b) = j.Xu, j.Xv
    c12, c13, c23 = y1 * x2 - y2 * x1, y1 * x3 - y3 * x1, y2 * x3 - y3 * x2
    sqrt = xp(W).sqrt
    H1 = (Hvec.x1 * c23 - Hvec.x2 * c13 + Hvec.x3 * c12) / sqrt(c12 ** 2 + c13 ** 2 + c23 ** 2)
    H2 = -Hvec.x4 / sqrt(1.0 + (g22 * a * a - 2.0 * g12 * a * b + g11 * b * b) / W)
    return CurvatureReport(ff, *where(bad, math.nan, (H1, H2)), Hvec, K)


def _normal_part(x: Vec4, j: SurfaceJet, ff: FirstForm) -> Vec4:
    """x less its tangential part a Xu + b Xv, which solves the first form
    against <x,Xu> and <x,Xv>."""
    g11, g12, g22, W = ff
    p, q = minkowski_dot(x, j.Xu), minkowski_dot(x, j.Xv)
    a, b = (g22 * p - g12 * q) / W, (g11 * q - g12 * p) / W
    return x - j.Xu * a - j.Xv * b


def mean_curvature_vector(j: SurfaceJet, first: FirstForm | None = None) -> Vec4:
    """H = L^perp / (2W), half the trace of the second fundamental form,
    without a normal frame.  ``first``, j's checked ``first_form(j, True)``,
    is built when not given."""
    ff = first_form(j, require_spacelike=True) if first is None else first
    L = j.Xuu * ff.g22 - j.Xuv * (2.0 * ff.g12) + j.Xvv * ff.g11
    return _normal_part(L, j, ff) * (0.5 / ff.W)


def gauss_map(j: SurfaceJet, first: FirstForm | None = None) -> Bivector6:
    """Unit 2-vector (Xu ^ Xv)/sqrt(W) representing the oriented tangent plane;
    ``first``, j's checked ``first_form(j, True)``, is built when not given."""
    ff = first_form(j, require_spacelike=True) if first is None else first
    return wedge(j.Xu, j.Xv) * (1.0 / xp(ff.W).sqrt(ff.W))
