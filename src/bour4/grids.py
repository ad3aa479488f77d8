"""Uniform parameter grids and one block evaluator over them.

A function written once over floats and arrays is called once on the open
mesh of a block's coordinate axes: rows of a (u, v) grid for residual
checks, reports and meshes (``sweep``), or the midpoints of a u-domain for
domain checks (``scan``).  Its non-finite points are re-run on floats for
their own errors."""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterator

import numpy as np

from .errors import NonFiniteError
from .jets import Jet2
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
        """The u samples, from u0 to u1; a single sample is u0."""
        step = (self.u1 - self.u0) / max(self.nu - 1, 1)
        return [self.u0 + step * i for i in range(self.nu)]

    def vs(self) -> list[float]:
        """The v samples, from v0 to v1; a single sample is v0."""
        step = (self.v1 - self.v0) / max(self.nv - 1, 1)
        return [self.v0 + step * j for j in range(self.nv)]

    def describe(self) -> dict:
        return {"u": [self.u0, self.u1], "v": [self.v0, self.v1],
                "nu": self.nu, "nv": self.nv}


def shrunk(a: float, b: float) -> tuple[float, float]:
    pad = (b - a) * EDGE_SHRINK
    return a + pad, b - pad


def grid_for(spec: HelicoidSpec, nu: int = 33, nv: int = 33) -> Grid:
    u0, u1 = shrunk(*spec.domain)
    v0, v1 = shrunk(*spec.v_range)
    return Grid(u0, u1, v0, v1, nu, nv)


# ---------------------------------------------------------------------------
# block evaluation: row-block sweeps and domain scans

@dataclass
class Block:
    """The outputs of one block of points.

    ``axes`` are the block's coordinate samples, ``(us,)`` for a scan or
    ``(us, vs)`` for a sweep.  ``out`` has one row per point (row-major:
    u outer, v inner) and one column per output of the evaluated function.
    ``tolerated`` lists the points, as indices into ``out``, whose float
    re-run raised a tolerated error; ``reason`` is the message of the first
    of them.
    """

    axes: tuple[list[float], ...]
    out: np.ndarray
    tolerated: list[int]
    reason: str | None

    def point(self, index: int) -> tuple[float, ...]:
        """The coordinates of the point at ``index`` of ``out``."""
        shape = tuple(map(len, self.axes))
        return tuple(axis[i] for axis, i in zip(self.axes, np.unravel_index(index, shape)))


def sweep(grid: Grid, f: Callable, tolerated: tuple[type[Exception], ...] = (),
          once: Callable | None = None) -> Iterator[Block]:
    """Evaluate ``f(u, v)`` over the grid, one block of rows at a time.

    ``f`` is written once over floats and arrays and returns a tuple of
    outputs.  Each block calls it once, with u as a column of the block's
    rows and v as a row of the grid's columns.  What depends on u alone runs
    once per sweep: ``once(u)``, if given, is called on the grid's whole u
    column, and each block calls ``f(u, v, pre)`` with ``pre`` its rows of
    the result (or ``f(u, v)``, should ``once`` raise).  Points with a
    non-finite output are re-run one at a time on floats, in row-major
    order, as ``f(u, v)``, for their own error: a ``tolerated`` one is
    recorded in the block, and any other propagates.
    """
    us, vs = grid.us(), grid.vs()
    step = max(1, BLOCK_POINTS // len(vs))  # rows per block
    column = None  # when once raises, the blocks raise it as they would without it
    with contextlib.suppress(Exception), np.errstate(all="ignore"):
        column = once and once(np.array(us)[:, None])
    for start in range(0, len(us), step):
        rows = slice(start, start + step)
        pre = () if column is None else (_rows(column, rows),)
        yield _evaluate((us[rows], vs), f, tolerated, pre)


def _rows(x, rows: slice):
    """The rows of a once-per-sweep result: of each array, in jets, tuples and dicts."""
    if isinstance(x, np.ndarray):
        return x[rows] if x.ndim and len(x) > 1 else x
    if isinstance(x, Jet2):
        return Jet2(_rows(x.v, rows), _rows(x.d1, rows), _rows(x.d2, rows))
    if isinstance(x, dict):
        return {key: _rows(y, rows) for key, y in x.items()}
    return tuple(_rows(y, rows) for y in x) if isinstance(x, tuple) else x


def scan(domain: tuple[float, float], n: int, f: Callable) -> tuple[np.ndarray, np.ndarray]:
    """The midpoints u_i = a + (b - a) (i + 0.5) / n of n equal cells of the
    domain, and f at every one of them, from one array call.

    ``f`` is written once over floats and arrays, as for ``sweep``, and a
    check that fails leaves NaN.  Samples whose value is not finite are
    re-run on floats in ascending u, tolerating nothing, so the first one
    raises its own error as a loop over the samples would.
    """
    a, b = domain
    with np.errstate(all="ignore"):
        us = a + (b - a) * (np.arange(n) + 0.5) / n
    return us, _evaluate((us.tolist(),), lambda u: (f(u),), ()).out[:, 0]


def _evaluate(axes: tuple[list[float], ...], f: Callable,
              tolerated: tuple[type[Exception], ...], pre: tuple = ()) -> Block:
    """Call f once on the open mesh of the axes, followed by ``pre``, and
    re-run on floats, without ``pre``, in row-major order, each point with
    a non-finite output (a failed check leaves NaN, and so does a
    non-finite profile, jet or metric), so that it raises the float code's
    own error (``_rerun``).  When the array call itself raises (a failure
    free of u and v does on arrays too), the first point is re-run the
    same way, tolerating nothing."""
    try:
        with np.errstate(all="ignore"):
            values = f(*np.ix_(*axes), *pre)
    except Exception as exc:
        _rerun(f, tuple(axis[0] for axis in axes), (), exc)
    shape = tuple(map(len, axes))
    out = np.empty((*shape, len(values)))
    for k, x in enumerate(values):
        out[..., k] = x
    block = Block(axes, out.reshape(-1, len(values)), [], None)
    for index in np.flatnonzero(~np.isfinite(block.out).all(axis=1)).tolist():
        exc = _rerun(f, block.point(index), tolerated, None)
        block.tolerated.append(index)
        block.reason = str(exc) if block.reason is None else block.reason
    return block


def _rerun(f: Callable, point: tuple[float, ...], tolerated: tuple[type[Exception], ...],
           raised: Exception | None) -> Exception:
    """Run f at one point on floats for its error: return a tolerated one and
    raise any other.  When f raises nothing, re-raise ``raised``, the array
    call's own error, if there is one; when f raises only an overflow or a
    math domain error, or nothing where its arrays were not finite, raise a
    NonFiniteError naming the point."""
    try:
        f(*point)
    except tolerated as exc:
        return exc
    except (ArithmeticError, ValueError, NonFiniteError):
        pass
    else:
        if raised is not None:
            raise raised
    at = ", ".join(f"{name} = {x!r}" for name, x in zip("uv", point))
    raise NonFiniteError(f"non-finite value at {at}: a value overflows or is undefined")
