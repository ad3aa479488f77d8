"""Uniform parameter grids and one block evaluator over them.

A function written once over floats and arrays is called once on the open
mesh of a block's coordinate axes: ``f(u, v)`` on rows of a (u, v) grid for
meshes (``sweep``), ``f(u)`` on a grid's u column for the rows of an orbit
sweep (``rows``), or on the midpoints of a u-domain for domain checks
(``scan``).  Its non-finite points are re-run on floats for their own
errors; on a grid, such an error names the point it was raised at."""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterator, NamedTuple

import numpy as np

from .errors import NonFiniteError, NumericalError
from .lorentz import BLOCK_POINTS

if TYPE_CHECKING:
    from .families import HelicoidSpec

#: Fraction of the span trimmed from each end of a declared domain before
#: sweeping, so grids stay clear of endpoint singularities.
EDGE_SHRINK = 0.02


class Grid(NamedTuple):
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

class Block(NamedTuple):
    """The outputs of one block of points.

    ``axes`` are the block's coordinate samples, ``(us,)`` for a scan or
    ``(us, vs)`` for a sweep.  ``out`` has one contiguous row per output of
    the evaluated function and one column per point (row-major: u outer, v
    inner).  ``tolerated`` lists the points, as column indices of ``out``,
    whose float re-run raised a tolerated error; ``reason`` is the message
    of the first of them.
    """

    axes: tuple[list[float], ...]
    out: np.ndarray
    tolerated: list[int]
    reason: str | None

    def point(self, index: int) -> tuple[float, ...]:
        """The coordinates of the point in column ``index`` of ``out``."""
        shape = tuple(map(len, self.axes))
        return tuple(axis[i] for axis, i in zip(self.axes, np.unravel_index(index, shape)))


def spans(n: int, nv: int) -> Iterator[slice]:
    """The blocks of a sweep of n rows of nv points: BLOCK_POINTS // nv rows, or 1."""
    step = max(1, BLOCK_POINTS // nv)
    return (slice(start, start + step) for start in range(0, n, step))


def _named(f: Callable, tolerated: tuple[type[Exception], ...]) -> Callable:
    """f on floats, its NumericalError, unless tolerated, with " [at u = ..., v = ...]"."""
    def at(u: float, v: float) -> tuple:
        try:
            return f(u, v)
        except tolerated:
            raise
        except NumericalError as exc:
            raise type(exc)(f"{exc} [at u = {u!r}, v = {v!r}]") from None
    return at


def sweep(grid: Grid, f: Callable, tolerated: tuple[type[Exception], ...] = ()) -> Iterator[Block]:
    """Evaluate ``f(u, v)``, written over floats and arrays, over the grid,
    one block of rows at a time: each block calls ``f`` once, on a column of
    its rows' u and the row of v.  A point with a non-finite output is re-run
    on floats, in row-major order, for its own error: a ``tolerated`` one is
    recorded in the block, any other propagates, a NumericalError with
    " [at u = ..., v = ...]" appended.  When a block raises on arrays, its
    first point is re-run so, tolerating nothing."""
    us, vs = grid.us(), grid.vs()
    at = _named(f, tolerated)
    for rows in spans(len(us), len(vs)):
        yield _evaluate((us[rows], vs), f, at, tolerated)


def rows(grid: Grid, f: Callable, tolerated: tuple[type[Exception], ...] = ()) -> Block:
    """Evaluate ``f(u)``, written as for ``sweep``, on the grid's whole u
    column in one array call: the work of a sweep that holds along each row,
    or moves along it by a map its caller applies.  The block is a sweep's
    of the grid's first column: a failing row is named by its first point."""
    point = lambda u, v: f(u)  # noqa: E731
    return _evaluate((grid.us(), grid.vs()[:1]), point, _named(point, tolerated), tolerated)


def require_finite(us: list[float], vs: list[float], x: np.ndarray) -> None:
    """Raise the NonFiniteError of the first point, in row-major order, where
    x (outputs, rows, v) is not finite."""
    bad = np.flatnonzero(~np.isfinite(x).all(axis=0))
    if bad.size:
        raise _non_finite((us[bad[0] // len(vs)], vs[bad[0] % len(vs)]))


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
    point = lambda u: (f(u),)  # noqa: E731
    return us, _evaluate((us.tolist(),), point, point, ()).out[0]


def _evaluate(axes: tuple[list[float], ...], f: Callable, at: Callable,
              tolerated: tuple[type[Exception], ...]) -> Block:
    """Call f once on the open mesh of the axes, and re-run each point with
    a non-finite output (a failed check leaves NaN, and so does a non-finite
    profile, jet or metric) on floats through ``at``, in row-major order,
    for the float code's own error (``_rerun``).  When the array call
    itself raises (a failure free of u and v does on arrays too), the first
    point is re-run the same way, tolerating nothing."""
    try:
        with np.errstate(all="ignore"):
            values = f(*np.ix_(*axes))
    except Exception as exc:
        _rerun(at, tuple(axis[0] for axis in axes), (), exc)
    out = np.empty((len(values), *map(len, axes)))
    for k, x in enumerate(values):
        out[k] = x
    block = Block(axes, out.reshape(len(values), -1), [], None)
    if np.isfinite(block.out).all():
        return block
    for index in np.flatnonzero(~np.isfinite(block.out).all(axis=0)).tolist():
        exc = _rerun(at, block.point(index), tolerated, None)
        block.tolerated.append(index)
        block = block._replace(reason=str(exc)) if block.reason is None else block
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
    raise _non_finite(point)


def _non_finite(point: tuple[float, ...]) -> NonFiniteError:
    at = ", ".join(f"{name} = {x!r}" for name, x in zip("uv", point))
    return NonFiniteError(f"non-finite value at {at}: a value overflows or is undefined")
