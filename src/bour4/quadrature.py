"""Adaptive Gauss-Kronrod integration and memoized antiderivatives.

``integrate`` is a standard 15-point Kronrod / 7-point Gauss pair with
adaptive bisection.  ``Antiderivative`` builds F(u) = int_{u0}^{u} f once on
a refined panel table and answers point queries by cubic Hermite
interpolation (panel endpoint values plus the exact integrand as slope), so
grid sweeps do not re-integrate.  Panels are split until both the Kronrod
error estimate and the interpolation error estimate at the panel midpoint
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

from .errors import QuadratureError
from .lorentz import BLOCK_POINTS

DEFAULT_TOL = 1e-11
#: Interpolation-table tolerance; one order looser than the panel integrals.
TABLE_TOL = 1e-10

_ENV_TOL = "LB_QUAD_TOL"


def default_tolerance() -> float:
    """Quadrature tolerance, overridable through the LB_QUAD_TOL env var."""
    raw = os.environ.get(_ENV_TOL)
    if raw is None:
        return DEFAULT_TOL
    try:
        tol = float(raw)
    except ValueError:
        raise QuadratureError(f"bad {_ENV_TOL} value {raw!r}") from None
    if not (0.0 < tol < 1.0):
        raise QuadratureError(f"{_ENV_TOL} must be in (0, 1), got {tol}")
    return tol


# 15-point Kronrod nodes on [-1, 1] (symmetric; only the non-negative half is
# stored) with Kronrod weights, and the embedded 7-point Gauss weights.
_XGK = (
    0.991455371120813, 0.949107912342759, 0.864864423359769,
    0.741531185599394, 0.586087235467691, 0.405845151377397,
    0.207784955007898, 0.0,
)
_WGK = (
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
)
_WG = (
    0.129484966168870, 0.279705391489277,
    0.381830050505119, 0.417959183673469,
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
            max_depth: int, max_panels: int):
    """Adaptive Gauss-Kronrod panels of [edges[0], edges[-1]], breadth first.

    A panel is split while its Kronrod error exceeds max(budget, tol*|K15|),
    the budget halving with each split.  With a ``table_tol`` it is also
    split while the cubic Hermite prediction of its left half's integral
    misses the Kronrod value by more than table_tol.  Returns the accepted
    panels' (lo, hi, integral, f(lo), f(hi)) as arrays in ascending order.
    """
    lo, hi = np.array(edges[:-1]), np.array(edges[1:])
    budgets = np.full(lo.size, budget)
    done = []
    accepted = 0
    for depth in range(max_depth + 1):
        if accepted + lo.size > max_panels:
            raise QuadratureError("antiderivative table exceeded panel budget")
        parts = [_gk15_nodes(lo, hi), lo[:, None], hi[:, None]]
        mid = 0.5 * (lo + hi)
        if table_tol is not None:
            parts.append(_gk15_nodes(lo, mid))
        nodes = np.concatenate(parts, axis=1)
        fx = _evaluate(f, nodes)
        full, err = _gk15_sum(lo, hi, fx[:, :15])
        if not (np.isfinite(fx).all() and np.isfinite(full).all()):
            raise _not_finite(f, lo, hi, nodes, fx, full)
        f_lo, f_hi = fx[:, 15], fx[:, 16]
        split = err > np.maximum(budgets, tol * np.abs(full))
        if table_tol is not None:
            left_half, _ = _gk15_sum(lo, mid, fx[:, 17:])
            # cubic Hermite prediction of F(mid) - F(lo) from panel data
            hermite_mid = 0.5 * full + 0.125 * (hi - lo) * (f_lo - f_hi)
            split |= np.abs(hermite_mid - left_half) > table_tol
        keep = ~split
        done.append((lo[keep], hi[keep], full[keep], f_lo[keep], f_hi[keep]))
        accepted += int(keep.sum())
        if not split.any():
            break
        if depth == max_depth:
            first = int(np.argmax(split))
            raise QuadratureError(f"no convergence on [{lo[first]:.6g}, {hi[first]:.6g}] "
                                  f"(error {err[first]:.3g})")
        lo, mid, hi = lo[split], mid[split], hi[split]
        lo, hi = np.stack([lo, mid], axis=1).reshape(-1), np.stack([mid, hi], axis=1).reshape(-1)
        budgets = np.repeat(0.5 * budgets[split], 2)
    panels = [np.concatenate(column) for column in zip(*done)]
    order = np.argsort(panels[0], kind="stable")
    return [column[order] for column in panels]


def integrate(f: Callable, a: float, b: float,
              tol: float | None = None, max_depth: int = 48) -> float:
    """Adaptive integral of f over [a, b] to absolute/relative tolerance tol.

    f takes a float or an array of u and returns the same shape.
    """
    if tol is None:
        tol = default_tolerance()
    if a == b:
        return 0.0
    if a > b:
        return -integrate(f, b, a, tol, max_depth)
    with np.errstate(all="ignore"):
        _, _, values, _, _ = _refine(f, [a, b], tol, tol, None, max_depth, math.inf)
    return sum(values.tolist())


class Antiderivative:
    """F(u) = int_{u0}^{u} f du on [u0, u1], tabulated once, then interpolated.

    f must be smooth on the closed interval and take a float or an array of
    u.  Queries slightly outside the build interval (within one panel width)
    fall back to direct quadrature.
    """

    def __init__(self, f: Callable, u0: float, u1: float,
                 tol: float | None = None, initial_panels: int = 8,
                 max_panels: int = 200000):
        if u1 <= u0:
            raise QuadratureError("antiderivative needs an increasing interval")
        self.f = f
        self.u0 = u0
        self.u1 = u1
        self.tol = default_tolerance() if tol is None else tol
        self._max_panels = max_panels
        self._build(initial_panels)

    def _build(self, initial_panels):
        # the midpoint Hermite check is an estimate of the panel's worst
        # interpolation error; the safety factor keeps the true maximum at
        # or below the advertised table tolerance
        table_tol = 0.5 * max(self.tol * 10.0, TABLE_TOL)
        edges = [self.u0 + (self.u1 - self.u0) * i / initial_panels
                 for i in range(initial_panels + 1)]
        with np.errstate(all="ignore"):
            _, hi, increments, f_lo, f_hi = _refine(
                self.f, edges, self.tol / initial_panels, self.tol, table_tol,
                48, self._max_panels)
        self._us = [self.u0] + hi.tolist()
        self._Fs = [0.0, *accumulate(increments.tolist())]
        self._fs = f_lo[:1].tolist() + f_hi.tolist()

    def __call__(self, u: float) -> float:
        us = self._us
        if u <= us[0]:
            return 0.0 if u == us[0] else -integrate(self.f, u, us[0], self.tol)
        if u >= us[-1]:
            return self._Fs[-1] if u == us[-1] else (
                self._Fs[-1] + integrate(self.f, us[-1], u, self.tol))
        i = bisect.bisect_right(us, u) - 1
        a, b = us[i], us[i + 1]
        h = b - a
        t = (u - a) / h
        fa, fb = self._fs[i], self._fs[i + 1]
        dF = self._Fs[i + 1] - self._Fs[i]
        # Hermite cubic in integrated form: exact for f cubic on the panel
        t2 = t * t
        h00 = 2.0 * t2 * t - 3.0 * t2 + 1.0
        h10 = t2 * t - 2.0 * t2 + t
        h01 = 1.0 - h00
        h11 = t2 * t - t2
        return (h00 * 0.0 + h01 * dF + h * (h10 * fa + h11 * fb)) + self._Fs[i]

    @property
    def total(self) -> float:
        return self._Fs[-1]
