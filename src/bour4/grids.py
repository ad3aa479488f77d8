"""Uniform parameter grids, and the row-block sweep that evaluates a surface
over one for residual checks, reports and meshes."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .errors import NonFiniteError
from .families import HelicoidSpec
from .jets import Jet2, JetBlock

#: Fraction of the span trimmed from each end of a declared domain before
#: sweeping, so grids stay clear of endpoint singularities.
EDGE_SHRINK = 0.02

#: Grid points evaluated together: a sweep takes max(1, BLOCK_POINTS // nv)
#: rows at a time, so its temporaries stay small at any grid size.
BLOCK_POINTS = 4096


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
    column per output of the point function.  ``tolerated`` lists the
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


def sweep(grid: Grid, row: Callable, point: Callable,
          tolerated: tuple[type[Exception], ...] = ()) -> Iterator[Block]:
    """Evaluate ``point(u, row(u), v)`` over the grid, one block of rows at a time.

    ``row`` runs once per u on floats and returns Jet2s and floats (or rows
    of nv values), nested in dicts and tuples.  ``point`` is written once
    over floats and arrays and returns a tuple of outputs; each block stacks
    its rows into column arrays and calls it once, with v as a row array.
    Points with a non-finite output (a failed check leaves NaN, and so does
    a non-finite profile, jet or metric) are re-run one at a time on
    floats, in row-major order, so that they raise the scalar code's own
    error: a ``tolerated`` one is recorded in the block, any other
    propagates, and a point that raises none, or only an overflow, is a
    NonFiniteError naming it.  When ``row`` raises, the rows before it are
    still swept first.
    """
    us, vs = grid.us(), grid.vs()
    step = max(1, BLOCK_POINTS // len(vs))
    for start in range(0, len(us), step):
        block_us = us[start:start + step]
        rows = []
        try:
            for u in block_us:
                rows.append(row(u))
        except Exception:
            if rows:
                yield _sweep_block(block_us[:len(rows)], vs, rows, point, tolerated)
            raise
        yield _sweep_block(block_us, vs, rows, point, tolerated)


def _stack(items: list):
    """Arrays of one row per item, in the structure of the items: a float
    becomes a column, an array of nv values a full row."""
    first = items[0]
    if isinstance(first, dict):
        return {k: _stack([it[k] for it in items]) for k in first}
    if isinstance(first, Jet2):
        return JetBlock(*(np.array([getattr(j, c) for j in items])[:, None]
                          for c in ("v", "d1", "d2")))
    if isinstance(first, tuple):
        parts = [_stack([it[k] for it in items]) for k in range(len(first))]
        return type(first)(*parts) if hasattr(first, "_fields") else tuple(parts)
    return np.array(items, dtype=float).reshape(len(items), -1)


def _sweep_block(us: list[float], vs: list[float], rows: list, point: Callable,
                 tolerated: tuple[type[Exception], ...]) -> Block:
    nu, nv = len(us), len(vs)
    stacked = _stack(rows)
    try:
        with np.errstate(all="ignore"):
            values = point(np.array(us)[:, None], stacked, np.array(vs)[None, :])
    except ArithmeticError:
        # a term computed on floats alone overflowed: it does at every point
        raise _non_finite(us[0], vs[0]) from None
    out = np.empty((nu * nv, len(values)))
    for k, x in enumerate(values):
        out[:, k] = np.broadcast_to(x, (nu, nv)).reshape(-1)
    found, reason = [], None
    for index in np.flatnonzero(~np.isfinite(out).all(axis=1)).tolist():
        i, j = divmod(index, nv)
        try:
            point(us[i], rows[i], vs[j])
        except tolerated as exc:
            found.append(index)
            reason = str(exc) if reason is None else reason
            continue
        except (ArithmeticError, ValueError, NonFiniteError):
            pass
        raise _non_finite(us[i], vs[j])
    return Block(us, vs, out, found, reason)


def _non_finite(u: float, v: float) -> NonFiniteError:
    return NonFiniteError(
        f"non-finite value at u = {u!r}, v = {v!r}: "
        "a profile value, surface jet or metric overflows or is undefined")
