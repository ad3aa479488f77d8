"""Adaptive Gauss-Kronrod integration and memoized antiderivatives.

``integrate`` is a standard 15-point Kronrod / 7-point Gauss pair with
adaptive bisection.  ``Antiderivative`` builds F(u) = int_{u0}^{u} f once on
a refined panel table and answers queries, at a float or an array of u, from
each panel's degree-14 polynomial through its 15 Kronrod node values,
integrated exactly in the Chebyshev basis (Trefethen, *Approximation Theory
and Approximation Practice*, ch. 19), so grid sweeps do not re-integrate.
Panels are split until both the Kronrod error estimate and the polynomial's
integrals over the panel and its left half, against their Kronrod values,
clear the requested tolerance.

Both refine breadth first: the nodes of every open panel of a refinement
level are evaluated together, in calls of at most BLOCK_POINTS nodes, so an
integrand takes a float or an array of u and returns the same shape.
"""

from __future__ import annotations

import bisect
import math
import os
from itertools import accumulate
from typing import Callable

import numpy as np

from .errors import QuadratureError, ValidationError
from .lorentz import BLOCK_POINTS

DEFAULT_TOL = 1e-11
#: Interpolation-table tolerance; one order looser than the panel integrals.
TABLE_TOL = 1e-10
#: Bisection levels before a panel that still misses its tolerance fails.
MAX_DEPTH = 48
#: Equal panels a table starts from, and the most it may accept.
INITIAL_PANELS = 8
MAX_PANELS = 200000

_ENV_TOL = "LB_QUAD_TOL"


def default_tolerance() -> float:
    """Quadrature tolerance, overridable through LB_QUAD_TOL with a number in (0, 1)."""
    raw = os.environ.get(_ENV_TOL)
    if raw is None:
        return DEFAULT_TOL
    try:
        tol = float(raw)
    except ValueError:
        raise ValidationError(f"bad {_ENV_TOL} value {raw!r}") from None
    if not (0.0 < tol < 1.0):
        raise ValidationError(f"{_ENV_TOL} must be in (0, 1), got {tol}")
    return tol


# 15-point Kronrod nodes on [-1, 1] (symmetric; only the non-negative half is
# stored) with Kronrod weights, and the embedded 7-point Gauss weights:
# QUADPACK's qk15 constants, whose float weights sum to exactly 2.
_XGK = (
    0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
    0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
    0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
    0.207784955007898467600689403773245, 0.0,
)
_WGK = (
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649, 0.209482141084727828012999174891714,
)
_WG = (
    0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
    0.381830050505118944950369775488975, 0.417959183673469387755102040816327,
)
_XGK_OFF = np.array(_XGK[:7])


def _gk15_nodes(lo, hi):
    """The 15 Kronrod nodes of each panel [lo, hi], one row per panel:
    mid - dx_0..6, mid + dx_0..6, mid."""
    half, mid = 0.5 * (hi - lo), 0.5 * (lo + hi)
    dx = half[:, None] * _XGK_OFF
    return np.concatenate([mid[:, None] - dx, mid[:, None] + dx, mid[:, None]], axis=1)


def _gk15_sum(lo, hi, fx):
    """Kronrod-15 estimates of each panel's integral from its node values
    (laid out as in _gk15_nodes), with the error estimates |K15 - G7|."""
    half = 0.5 * (hi - lo)
    kron = _WGK[7] * fx[:, 14]
    gauss = _WG[3] * fx[:, 14]
    for i in range(7):
        pair = fx[:, i] + fx[:, 7 + i]
        kron = kron + _WGK[i] * pair
        if i % 2 == 1:
            gauss = gauss + _WG[i // 2] * pair
    kron = kron * half
    gauss = gauss * half
    return kron, np.abs(kron - gauss)


#: ``_poly_matrices``' result, built on the first table build.
_POLY = None


def _poly_matrices():
    """The 16 x 15 matrix INT and the 2 x 15 matrix W of a panel's
    polynomial: with P the degree-14 polynomial through values f_j at the
    Kronrod nodes t_j of [-1, 1] (in _gk15_nodes' order),
    int_{-1}^{t} P = sum_k (INT f)_k T_k(t) for k = 0..15, and P's integrals
    over [-1, 0] and [-1, 1] are the rows of W f.  Built with elementwise
    numpy only."""
    global _POLY
    if _POLY is None:
        x = np.array(_XGK[:7])
        t = np.concatenate([-x, x, [0.0]])
        n = t.size
        # the Lagrange basis at n Chebyshev points y_m = cos(theta_m) ...
        theta = np.pi * (np.arange(n) + 0.5) / n
        others = ~np.eye(n, dtype=bool)
        num = np.where(others, np.cos(theta)[:, None, None] - t, 1.0).prod(axis=2)
        den = np.where(others, t[:, None] - t, 1.0).prod(axis=1)
        basis = num / den  # [m, j] = l_j(y_m)
        # ... gives each basis polynomial's Chebyshev coefficients exactly,
        # by the discrete orthogonality of T_0..T_{n-1} on those points
        cos = np.cos(np.arange(n)[:, None] * theta)  # [k, m] = T_k(y_m)
        cheb = (cos[:, :, None] * basis).sum(axis=1) * (2.0 / n)
        cheb[0] *= 0.5
        # int T_0 = T_1, int T_1 = T_2 / 4, int T_k = T_{k+1}/(2(k+1)) - T_{k-1}/(2(k-1))
        padded = np.concatenate([cheb, np.zeros((2, n))])
        k = np.arange(1, n + 1)[:, None]
        integral = np.zeros((n + 1, n))
        integral[1:] = (padded[:n] - padded[2:]) / (2.0 * k)
        integral[1] += 0.5 * padded[0]  # int T_0 is all of T_1, not half
        integral[0] = -(integral[1:] * (-1.0) ** k).sum(axis=0)  # 0 at t = -1
        ends = np.array([[(1.0, 0.0, -1.0, 0.0)[i % 4] for i in range(n + 1)],  # T_k(0)
                         [1.0] * (n + 1)])  # T_k(1)
        _POLY = integral, (ends[:, :, None] * integral).sum(axis=1)
    return _POLY


def _evaluate(f, nodes: np.ndarray) -> np.ndarray:
    """f at every node, in calls of at most BLOCK_POINTS nodes."""
    flat = nodes.reshape(-1)
    out = np.empty_like(flat)
    for start in range(0, flat.size, BLOCK_POINTS):
        chunk = flat[start:start + BLOCK_POINTS]
        out[start:start + BLOCK_POINTS] = np.broadcast_to(
            np.asarray(f(chunk), dtype=float), chunk.shape)
    return out.reshape(nodes.shape)


def _not_finite(f, lo, hi, nodes, fx, full):
    """The error for a level whose values are not all finite: the scalar
    integrand's own, raised at the first such node in ascending u, or a
    QuadratureError for that node's panel."""
    rows, cols = np.nonzero(~np.isfinite(fx))
    if rows.size:
        k = int(np.argmin(nodes[rows, cols]))
        f(float(nodes[rows[k], cols[k]]))
        row = rows[k]
    else:  # finite values whose panel sum overflowed
        row = int(np.argmax(~np.isfinite(full)))
    return QuadratureError(f"integrand not finite on [{lo[row]:.6g}, {hi[row]:.6g}]")


def _refine(f, edges: list[float], budget: float, tol: float, table_tol: float | None,
            max_panels: int):
    """Adaptive Gauss-Kronrod panels of [edges[0], edges[-1]], breadth first.

    A panel is split while its Kronrod error exceeds max(budget, tol*|K15|),
    the budget halving with each split.  With a ``table_tol`` it is also
    split while the integral of the polynomial through its node values, over
    the panel or its left half, misses the Kronrod value by more than
    table_tol.  The first level also evaluates the edges; every later panel
    end is a centre node of the level before, so f is finite at each end.
    Returns the accepted panels' (lo, hi, integral, node values) as arrays in
    ascending order.
    """
    lo, hi = np.array(edges[:-1]), np.array(edges[1:])
    budgets = np.full(lo.size, budget)
    done = []
    accepted = 0
    for depth in range(MAX_DEPTH + 1):
        if accepted + lo.size > max_panels:
            raise QuadratureError("antiderivative table exceeded panel budget")
        parts = [_gk15_nodes(lo, hi)]
        mid = 0.5 * (lo + hi)
        if table_tol is not None:
            parts.append(_gk15_nodes(lo, mid))
        if depth == 0:
            parts += [lo[:, None], hi[:, None]]
        nodes = np.concatenate(parts, axis=1)
        fx = _evaluate(f, nodes)
        full, err = _gk15_sum(lo, hi, fx[:, :15])
        if not (np.isfinite(fx).all() and np.isfinite(full).all()):
            raise _not_finite(f, lo, hi, nodes, fx, full)
        split = err > np.maximum(budgets, tol * np.abs(full))
        if table_tol is not None:
            left_half, _ = _gk15_sum(lo, mid, fx[:, 15:30])
            # the polynomial's integrals over the left half and the whole panel
            half = 0.5 * (hi - lo)
            poly = (fx[:, None, :15] * _poly_matrices()[1]).sum(axis=2) * half[:, None]
            split |= np.abs(poly[:, 0] - left_half) > table_tol
            split |= np.abs(poly[:, 1] - full) > table_tol
        keep = ~split
        done.append((lo[keep], hi[keep], full[keep], fx[keep, :15]))
        accepted += int(keep.sum())
        if not split.any():
            break
        if depth == MAX_DEPTH:
            first = int(np.argmax(split))  # a panel this narrow needs every digit
            raise QuadratureError(f"no convergence on [{lo[first].item()!r}, "
                                  f"{hi[first].item()!r}] (error {err[first]:.3g})")
        lo, mid, hi = lo[split], mid[split], hi[split]
        lo, hi = np.stack([lo, mid], axis=1).reshape(-1), np.stack([mid, hi], axis=1).reshape(-1)
        budgets = np.repeat(0.5 * budgets[split], 2)
    panels = [np.concatenate(column) for column in zip(*done)]
    order = np.argsort(panels[0], kind="stable")
    return [column[order] for column in panels]


def integrate(f: Callable, a: float, b: float, tol: float | None = None) -> float:
    """Adaptive integral of f over [a, b] to absolute/relative tolerance tol.

    f takes a float or an array of u and returns the same shape.
    """
    if tol is None:
        tol = default_tolerance()
    if a == b:
        return 0.0
    if a > b:
        return -integrate(f, b, a, tol)
    with np.errstate(all="ignore"):
        _, _, values, _ = _refine(f, [a, b], tol, tol, None, math.inf)
    return sum(values.tolist())


def _clenshaw(t, coefs):
    """sum_k coefs[k] T_k(t), for a float t and float coefficients or for
    arrays, with the same arithmetic."""
    b1 = b2 = 0.0
    t2 = t + t
    for a in coefs[:0:-1]:
        b1, b2 = a + t2 * b1 - b2, b1
    return coefs[0] + t * b1 - b2


class Antiderivative:
    """F(u) = int_{u0}^{u} f du on [u0, u1], tabulated once, then interpolated.

    Each panel holds the antiderivative of the degree-14 polynomial through
    f at its 15 Kronrod nodes, as Chebyshev coefficients scaled to the
    panel; a query adds its Clenshaw sum to F at the panel's left end.  f
    must be smooth on the closed interval and take a float or an array of u;
    so does a query.  Queries outside the build interval fall back to direct
    quadrature.
    """

    def __init__(self, f: Callable, u0: float, u1: float):
        if u1 <= u0:
            raise QuadratureError("antiderivative needs an increasing interval")
        self.f = f
        self.tol = default_tolerance()
        # the half-panel check samples the polynomial's integral error at
        # the panel's midpoint only; the factor 0.5 leaves room for it
        # elsewhere in the panel
        table_tol = 0.5 * max(self.tol * 10.0, TABLE_TOL)
        edges = [u0 + (u1 - u0) * i / INITIAL_PANELS for i in range(INITIAL_PANELS + 1)]
        with np.errstate(all="ignore"):
            lo, hi, increments, fx = _refine(
                f, edges, self.tol / INITIAL_PANELS, self.tol, table_tol, MAX_PANELS)
        self._us = [u0] + hi.tolist()
        self._Fs = [0.0, *accumulate(increments.tolist())]
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        coefs = (fx[:, None, :] * _poly_matrices()[0]).sum(axis=2) * half[:, None]
        self._panels = [mid.tolist(), half.tolist(), coefs.tolist()]  # for float queries
        self._arrays = np.array(self._us), mid, half, np.array(self._Fs), coefs.T.copy()

    def __call__(self, u):
        """F at u, a float or an array of u; NaN at a NaN.  An array is
        answered with the arithmetic of the float queries, so bit for bit as
        they would be; its points outside the table go through the fallback
        one at a time."""
        us = self._us
        if isinstance(u, np.ndarray):
            out = np.empty(u.shape)
            inside = (u > us[0]) & (u < us[-1])
            out[~inside] = [self(x) for x in u[~inside].tolist()]
            x = u[inside]
            knots, mid, half, Fs, coefs = self._arrays
            i = np.searchsorted(knots, x, side="right") - 1
            out[inside] = Fs[i] + _clenshaw((x - mid[i]) / half[i], coefs[:, i])
            return out
        if u <= us[0]:
            return 0.0 if u == us[0] else -integrate(self.f, u, us[0], self.tol)
        if u >= us[-1]:
            return self._Fs[-1] if u == us[-1] else (
                self._Fs[-1] + integrate(self.f, us[-1], u, self.tol))
        if math.isnan(u):  # bisect would put it past the last knot
            return math.nan
        i = bisect.bisect_right(us, u) - 1
        mid, half, coefs = self._panels
        return self._Fs[i] + _clenshaw((u - mid[i]) / half[i], coefs[i])

    @property
    def total(self) -> float:
        return self._Fs[-1]
