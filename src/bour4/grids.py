"""Uniform parameter grids, the row-block sweep that evaluates a surface
over one for residual checks, reports and meshes, and the scan of a
function of u over samples of a domain."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterator

import numpy as np

from .errors import NonFiniteError
from .lorentz import BLOCK_POINTS

if TYPE_CHECKING:
    from .families import HelicoidSpec

#: Fraction of the span trimmed from each end of a declared domain before
#: sweeping, so grids stay clear of endpoint singularities.
EDGE_SHRINK = 0.02


@dataclass(frozen=True)
class Grid:
    u0: float
    u1: float
    v0: float
    v1: float
    nu: int = 33
    nv: int = 33

    def us(self) -> list[float]:
        step = (self.u1 - self.u0) / (self.nu - 1)
        return [self.u0 + step * i for i in range(self.nu)]

    def vs(self) -> list[float]:
        step = (self.v1 - self.v0) / (self.nv - 1)
        return [self.v0 + step * j for j in range(self.nv)]

    def describe(self) -> dict:
        return {"u": [self.u0, self.u1], "v": [self.v0, self.v1],
                "nu": self.nu, "nv": self.nv}


def shrunk(a: float, b: float, fraction: float = EDGE_SHRINK) -> tuple[float, float]:
    pad = (b - a) * fraction
    return a + pad, b - pad


def grid_for(spec: HelicoidSpec, nu: int = 33, nv: int = 33,
             shrink: float = EDGE_SHRINK) -> Grid:
    u0, u1 = shrunk(*spec.domain, shrink)
    v0, v1 = shrunk(*spec.v_range, shrink)
    return Grid(u0, u1, v0, v1, nu, nv)


# ---------------------------------------------------------------------------
# row-block sweeps

@dataclass
class Block:
    """The outputs of one block of grid rows.

    ``out`` has one row per grid point (row-major: u outer, v inner) and one
    column per output of the swept function.  ``tolerated`` lists the
    points, as indices into ``out``, whose scalar re-run raised a tolerated
    error; ``reason`` is the message of the first of them.
    """

    us: list[float]
    vs: list[float]
    out: np.ndarray
    tolerated: list[int]
    reason: str | None

    def uv(self, index: int) -> tuple[float, float]:
        i, j = divmod(index, len(self.vs))
        return self.us[i], self.vs[j]


def sweep(grid: Grid, f: Callable,
          tolerated: tuple[type[Exception], ...] = ()) -> Iterator[Block]:
    """Evaluate ``f(u, v)`` over the grid, one block of rows at a time.

    ``f`` is written once over floats and arrays and returns a tuple of
    outputs.  Each block calls it once, with u as a column of the block's
    rows and v as a row of the grid's columns, so whatever depends on u
    alone (a profile) is evaluated once per u and broadcast against v.
    Points with a non-finite output (a failed check leaves NaN, and so does
    a non-finite profile, jet or metric) are re-run one at a time on floats,
    in row-major order, so that they raise the scalar code's own error: a
    ``tolerated`` one is recorded in the block, any other propagates, and a
    point that raises none, or only an overflow, is a NonFiniteError naming
    it.  When the array call itself raises (a failure free of u and v does
    on arrays too), the block's first point is re-run on floats the same
    way, tolerating nothing.
    """
    us, vs = grid.us(), grid.vs()
    step = max(1, BLOCK_POINTS // len(vs))  # rows per block
    for start in range(0, len(us), step):
        yield _sweep_block(us[start:start + step], vs, f, tolerated)


def _sweep_block(us: list[float], vs: list[float], f: Callable,
                 tolerated: tuple[type[Exception], ...]) -> Block:
    nu, nv = len(us), len(vs)
    try:
        with np.errstate(all="ignore"):
            values = f(np.array(us)[:, None], np.array(vs)[None, :])
    except Exception:
        _rerun(f, us[0], vs[0], ())
        raise
    out = np.empty((nu * nv, len(values)))
    for k, x in enumerate(values):
        out[:, k] = np.broadcast_to(x, (nu, nv)).reshape(-1)
    found, reason = [], None
    for index in np.flatnonzero(~np.isfinite(out).all(axis=1)).tolist():
        i, j = divmod(index, nv)
        exc = _rerun(f, us[i], vs[j], tolerated)
        found.append(index)
        reason = str(exc) if reason is None else reason
    return Block(us, vs, out, found, reason)


def _rerun(f: Callable, u: float, v: float,
           tolerated: tuple[type[Exception], ...]) -> Exception:
    """Run f at one point on floats for its error: return a tolerated one,
    raise any other, and raise a NonFiniteError naming the point when f
    raises nothing or only an overflow."""
    try:
        f(u, v)
    except tolerated as exc:
        return exc
    except (ArithmeticError, ValueError, NonFiniteError):
        pass
    raise NonFiniteError(f"non-finite value at u = {u!r}, v = {v!r}: "
                         "a profile value, surface jet or metric overflows or is undefined")


# ---------------------------------------------------------------------------
# domain scans

def scan(domain: tuple[float, float], n: int, f: Callable) -> tuple[np.ndarray, np.ndarray]:
    """The midpoints u_i = a + (b - a) (i + 0.5) / n of n equal cells of the
    domain, and f at every one of them, from one array call.

    ``f`` is written once over floats and arrays, as for ``sweep``, and a
    check that fails leaves NaN.  Samples whose value is not finite are
    re-run on floats in ascending u, so the first one that raises raises its
    own error, as a loop over the samples would; one that raises only an
    overflow or a math domain error is a NonFiniteError naming the sample.
    When the array call itself raises (a failure free of u), the first
    sample is re-run on floats.
    """
    a, b = domain
    with np.errstate(all="ignore"):
        us = a + (b - a) * (np.arange(n) + 0.5) / n
        try:
            values = np.broadcast_to(np.asarray(f(us), dtype=float), us.shape)
        except Exception:
            _rescan(f, float(us[0]))
            raise
    for u in us[~np.isfinite(values)].tolist():
        _rescan(f, u)
    return us, values


def _rescan(f: Callable, u: float) -> None:
    """Run f at one sample on floats for its error."""
    try:
        f(u)
    except (ArithmeticError, ValueError):
        raise NonFiniteError(
            f"non-finite value at u = {u!r}: a value overflows or is undefined") from None
