"""Family-agnostic curvature machinery for spacelike surfaces in Minkowski 4-space.

Everything here is derived only from the ambient inner product and the
standard definitions of the fundamental forms, so it serves as the oracle
against which closed-form family formulas are checked:

    g11 = <Xu,Xu>   g12 = <Xu,Xv>   g22 = <Xv,Xv>     W = det g
    b^i_jk = <X_jk, N_i>
    H_i = (b^i_11 g22 - 2 b^i_12 g12 + b^i_22 g11) / (2W)
    H   = eps1 H1 N1 + eps2 H2 N2 = L^perp / (2W),  L = g22 Xuu - 2 g12 Xuv + g11 Xvv
    K   = (eps1 (b^1_11 b^1_22 - b^1_12^2) + eps2 (b^2_11 b^2_22 - b^2_12^2)) / W
    nu  = (Xu ^ Xv) / sqrt(W)

The surface is required to be spacelike (W > 0) wherever frames, curvatures,
or the Gauss map are requested.  Jets may carry floats (one point) or arrays
(a block of points); on arrays a failed check raises nothing and leaves NaN
at the failed points instead (see ``lorentz.flag``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, ClassVar, NamedTuple, Sequence

from .errors import (DegenerateSurfaceError, FrameFailureError, NonFiniteError,
                     NotSpacelikeError)
from .lorentz import (E1, E2, E3, E4, Bivector6, CausalClass, Vec4, any_, flag,
                      minkowski_dot, sup, wedge, where, xp)


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


@dataclass(frozen=True)
class Frame:
    """Orthonormal tangent pair e1, e2 and normal pair N1 (spacelike), N2 (timelike)."""

    e1: Vec4
    e2: Vec4
    N1: Vec4
    N2: Vec4
    eps1: ClassVar[int] = 1
    eps2: ClassVar[int] = -1


class SecondForm(NamedTuple):
    b11: float
    b12: float
    b22: float


@dataclass(frozen=True)
class CurvatureReport:
    """Curvature at one point (or a block of points); the minimal flag and
    the causal class of Hvec are derived on access."""

    first: FirstForm
    b1: SecondForm
    b2: SecondForm
    H1: float
    H2: float
    Hvec: Vec4
    K: float

    @property
    def minimal(self) -> bool:
        return classify_mean_curvature(self.Hvec, self.H1, self.H2)[0]

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

    def d1(axis):
        if axis == 0:
            coarse = (pts[(2, 0)] - pts[(-2, 0)]) * (1.0 / (2.0 * h))
            fine = (pts[(1, 0)] - pts[(-1, 0)]) * (1.0 / h)
        else:
            coarse = (pts[(0, 2)] - pts[(0, -2)]) * (1.0 / (2.0 * h))
            fine = (pts[(0, 1)] - pts[(0, -1)]) * (1.0 / h)
        return rich(coarse, fine)

    def d2(axis):
        c = pts[(0, 0)] * 2.0
        if axis == 0:
            coarse = (pts[(2, 0)] + pts[(-2, 0)] - c) * (1.0 / (h * h))
            fine = (pts[(1, 0)] + pts[(-1, 0)] - c) * (4.0 / (h * h))
        else:
            coarse = (pts[(0, 2)] + pts[(0, -2)] - c) * (1.0 / (h * h))
            fine = (pts[(0, 1)] + pts[(0, -1)] - c) * (4.0 / (h * h))
        return rich(coarse, fine)

    def dmix():
        coarse = (pts[(2, 2)] - pts[(2, -2)] - pts[(-2, 2)] + pts[(-2, -2)]) * (1.0 / (4.0 * h * h))
        fine = (pts[(1, 1)] - pts[(1, -1)] - pts[(-1, 1)] + pts[(-1, -1)]) * (1.0 / (h * h))
        return rich(coarse, fine)

    return SurfaceJet(pts[(0, 0)], d1(0), d1(1), d2(0), dmix(), d2(1))


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


DEFAULT_SEEDS: tuple[Vec4, ...] = (E3, E4, E1, E2)
_NAN4 = Vec4(math.nan, math.nan, math.nan, math.nan)


def orthonormal_frame(j: SurfaceJet, seeds: Sequence[Vec4] = DEFAULT_SEEDS) -> Frame:
    """Tangent frame from the standard formulas plus a seeded Gram-Schmidt normal pair.

    e1 = Xu/sqrt(g11), e2 = (g11 Xv - g12 Xu)/sqrt(W g11).  Candidate seeds are
    projected onto the normal plane in turn; the first two projections with
    non-negligible causal norm give the normal pair, relabeled so N1 is
    spacelike and N2 timelike.
    """
    return _frame(j, first_form(j, require_spacelike=True), seeds)


def _seed_dot(seed: Vec4, x: Vec4):
    """<seed, x>; for a seed on one axis, its one signed term.  For finite x
    the dropped terms are +-0, which can change only the sign of a zero dot,
    and that changes no component of seed - x <seed, x>."""
    terms = [(k, c if k < 3 else -c) for k, c in enumerate(seed) if c != 0.0]
    return x[terms[0][0]] * terms[0][1] if len(terms) == 1 else minkowski_dot(seed, x)


def _frame(j: SurfaceJet, ff: FirstForm, seeds: Sequence[Vec4]) -> Frame:
    bad = flag(ff.g11 <= 0.0, FrameFailureError,
               "g11 = {!r} <= 0 on a spacelike surface", ff.g11)
    sqrt = xp(ff.W).sqrt
    e1 = j.Xu * (1.0 / sqrt(ff.g11))
    e2 = (j.Xv * ff.g11 - j.Xu * ff.g12) * (1.0 / sqrt(ff.W * ff.g11))

    # the first two usable seeds of each point go to (na, ea), then (nb, eb)
    na = nb = _NAN4
    ea = eb = 0
    found = 0  # seeds taken: by every point, until points differ over a block
    for seed in seeds:
        n = seed - e1 * _seed_dot(seed, e1) - e2 * _seed_dot(seed, e2)
        if na is not _NAN4:  # some point has taken its first seed
            n = where(found == 1, n - na * (ea * minkowski_dot(n, na)), n)
        q = minkowski_dot(n, n)
        usable = (abs(q) > 1e-10 * (1.0 + n.euclid_sq())) & (found < 2)
        if any_(usable):
            if usable is True or usable.all():
                usable = True  # every point takes this seed: merge without masks
            unit = (n * (1.0 / sqrt(abs(q))), (q > 0.0) * 2 - 1)
            na, ea = where(usable & (found == 0), unit, (na, ea))
            nb, eb = where(usable & (found == 1), unit, (nb, eb))
            found = found + usable
            if not any_(found < 2):
                break
    # bad | keeps this a mask on a block whose points all took the same seeds
    bad = bad | flag(bad | (found < 2), FrameFailureError,
                     "no usable normal seeds: normal plane is numerically null")
    bad = bad | flag(ea + eb != 0, FrameFailureError,
                     "normal plane does not have signature (+,-)")
    N1, N2 = where(ea > 0, (na, nb), (nb, na))
    N1, N2 = where(bad, math.nan, (N1, N2))
    return Frame(e1, e2, N1, N2)


# ---------------------------------------------------------------------------
# curvature

def classify_mean_curvature(Hvec: Vec4, H1: float, H2: float) -> tuple[bool, CausalClass]:
    """Minimal / causal classification with explicit tolerance bands."""
    band = 1e-8
    scale = sup(abs(H1), abs(H2), 1.0)
    minimal = sup(*map(abs, Hvec)) < band * scale
    hsq = minkowski_dot(Hvec, Hvec)
    # the zero vector counts as spacelike
    hclass = where(minimal, CausalClass.SPACELIKE,
                   where(abs(hsq) < band * scale * scale, CausalClass.LIGHTLIKE,
                         where(hsq > 0, CausalClass.SPACELIKE, CausalClass.TIMELIKE)))
    return minimal, hclass


def assemble_report(ff: FirstForm, frame: Frame, b1: SecondForm,
                    b2: SecondForm) -> CurvatureReport:
    """Mean/Gauss curvature from fundamental-form data (shared with closed forms)."""
    H1 = (b1.b11 * ff.g22 - 2.0 * b1.b12 * ff.g12 + b1.b22 * ff.g11) / (2.0 * ff.W)
    H2 = (b2.b11 * ff.g22 - 2.0 * b2.b12 * ff.g12 + b2.b22 * ff.g11) / (2.0 * ff.W)
    Hvec = frame.N1 * (frame.eps1 * H1) + frame.N2 * (frame.eps2 * H2)
    K = (frame.eps1 * (b1.b11 * b1.b22 - b1.b12 ** 2)
         + frame.eps2 * (b2.b11 * b2.b22 - b2.b12 ** 2)) / ff.W
    return CurvatureReport(ff, b1, b2, H1, H2, Hvec, K)


def curvature_report(j: SurfaceJet, frame: Frame | None = None) -> CurvatureReport:
    """Curvature by the generic route; ``frame`` is ``orthonormal_frame(j)``
    when not given."""
    ff = first_form(j, require_spacelike=True)
    if frame is None:
        frame = _frame(j, ff, DEFAULT_SEEDS)
    b1 = SecondForm(minkowski_dot(j.Xuu, frame.N1),
                    minkowski_dot(j.Xuv, frame.N1),
                    minkowski_dot(j.Xvv, frame.N1))
    b2 = SecondForm(minkowski_dot(j.Xuu, frame.N2),
                    minkowski_dot(j.Xuv, frame.N2),
                    minkowski_dot(j.Xvv, frame.N2))
    return assemble_report(ff, frame, b1, b2)


def mean_curvature_vector(j: SurfaceJet, first: FirstForm | None = None) -> Vec4:
    """H = L^perp / (2W), half the trace of the second fundamental form,
    without a normal frame: L's tangential part a Xu + b Xv solves the first
    form against <L,Xu> and <L,Xv>.  ``first``, j's checked
    ``first_form(j, True)``, is built when not given."""
    g11, g12, g22, W = first_form(j, require_spacelike=True) if first is None else first
    L = j.Xuu * g22 - j.Xuv * (2.0 * g12) + j.Xvv * g11
    p, q = minkowski_dot(L, j.Xu), minkowski_dot(L, j.Xv)
    a, b = (g22 * p - g12 * q) / W, (g11 * q - g12 * p) / W
    return (L - j.Xu * a - j.Xv * b) * (0.5 / W)


def gauss_map(j: SurfaceJet, first: FirstForm | None = None) -> Bivector6:
    """Unit 2-vector (Xu ^ Xv)/sqrt(W) representing the oriented tangent plane;
    ``first``, j's checked ``first_form(j, True)``, is built when not given."""
    ff = first_form(j, require_spacelike=True) if first is None else first
    return wedge(j.Xu, j.Xv) * (1.0 / xp(ff.W).sqrt(ff.W))
