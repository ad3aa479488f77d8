"""Sampled surface grids and OBJ/CSV export.

Plots are out of scope; meshes carry the geometry to external viewers.  OBJ
needs a 3D projection of the 4D vertices: either drop one coordinate
explicitly (``drop-k``) or drop the one that is constant across the mesh
(``drop-constant``, available exactly for hyperplanar surfaces).  The
dropped coordinate and the per-vertex scalar channels ride along in comment
lines.  CSV keeps everything: u, v, x1..x4, K, H1, H2, W per row.  Both
writers write one grid row per write, or a group of rows of at most
BLOCK_VALUES values.  Their text is that of one repr per value, made by
integer array operations: Schubfach's shortest digits, laid out by repr's
rules; zeros, subnormals, inf, nan and ties go through repr itself.  Each
distinct float of a write (told apart by its bits: -0.0 is not 0.0) is
formatted once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import TextIO

import numpy as np

from .errors import DegenerateSurfaceError, NotSpacelikeError, ValidationError
from .families import HelicoidSpec, RotationalSpec, helicoid_jet, profile_jets
from .grids import Grid, sweep
from .surfaces import curvature_report

CHANNEL_NAMES = ("K", "H1", "H2", "Hsup", "W")


@dataclass
class MeshGrid:
    """Float64 vertices (nu*nv x 4, row-major) and one float64 array per
    scalar channel; the quad faces follow from the grid."""

    grid: Grid
    vertices: np.ndarray
    channels: dict[str, np.ndarray] = field(default_factory=dict)

    @property
    def nu(self) -> int:
        return self.grid.nu

    @property
    def nv(self) -> int:
        return self.grid.nv

    @property
    def faces(self) -> np.ndarray:
        """Quad faces as vertex-index quadruples, (nu-1)*(nv-1) x 4, row-major."""
        nv = self.nv
        corner = (np.arange(self.nu - 1)[:, None] * nv + np.arange(nv - 1)[None, :]).reshape(-1)
        return np.stack([corner, corner + 1, corner + nv + 1, corner + nv], axis=1)


def sample_mesh(surface: HelicoidSpec | RotationalSpec, grid: Grid) -> MeshGrid:
    """Evaluate a surface over the grid; curvature channels are nan off the
    spacelike locus.

    The surface is read through ``helicoid_jet``, its profile once per
    sweep and the geometry on blocks of rows.  A callable (u, v) ->
    SurfaceJet is accepted in place of a spec and called on each block's u
    column and v row; one that takes floats only raises its own error on
    the arrays.
    """
    def f(u, v, profile=None):
        j = surface(u, v) if callable(surface) else helicoid_jet(surface, u, v, profile)
        rep = curvature_report(j)
        return (*j.X, rep.K, rep.H1, rep.H2, rep.H_sup, rep.first.W)

    once = None if callable(surface) else (lambda u: profile_jets(surface, u))
    # every block is written into the one array the mesh keeps
    data = np.empty((grid.nu * grid.nv, 4 + len(CHANNEL_NAMES)))
    start = 0
    for block in sweep(grid, f, (NotSpacelikeError, DegenerateSurfaceError), once):
        block.out[block.tolerated, 4:] = math.nan
        data[start:start + len(block.out)] = block.out
        start += len(block.out)
    channels = {name: data[:, 4 + k] for k, name in enumerate(CHANNEL_NAMES)}
    return MeshGrid(grid, data[:, :4], channels)


def resolve_projection(mesh: MeshGrid, mode: str) -> int:
    """Index (0..3) of the coordinate to drop for a 3D projection.

    ``drop-k`` for k in 1..4 drops that coordinate; ``drop-constant`` finds
    the coordinate whose range over the mesh vanishes (within 1e-9,
    relative to its size) and fails when no coordinate is constant.
    """
    if mode.startswith("drop-") and mode[5:] in ("1", "2", "3", "4"):
        return int(mode[5:]) - 1
    if mode != "drop-constant":
        raise ValidationError(
            f"unknown projection {mode!r} (use drop-constant or drop-1..drop-4)")
    hi, lo = mesh.vertices.max(axis=0), mesh.vertices.min(axis=0)
    spread, scale = hi - lo, np.maximum(1.0, np.maximum(np.abs(hi), np.abs(lo)))  # max |x|
    flat = np.flatnonzero(spread <= 1e-9 * scale)
    if flat.size == 0:
        raise ValidationError(
            "drop-constant: no coordinate is constant across the mesh "
            f"(smallest spread {spread.min():.3g})")
    return int(flat[np.argmin(spread[flat])])


# ---------------------------------------------------------------------------
# float text: the repr of each value, from integer array operations
#
# The digits are Schubfach's (R. Giulietti, "The Schubfach way to render
# doubles", 2020): the shortest inside a value's rounding interval, nearest to
# it, from 64x128-bit products built of 32-bit limbs.  A byte template per
# digit count and exponent lays them out as repr does.  Zeros, subnormals,
# inf, nan and values halfway between two candidates go through repr itself.
# Constant operands are 0-d arrays, cheaper per numpy call than scalars.

(_M32, _M52, _M63, _B52, _B63, _ONE, _TWO, _THREE, _FOUR, _TEN, _FORTY, _S32, _S52, _S63,
 _E4, _E8, _E16) = (np.array(v, np.uint64) for v in (
    2**32 - 1, 2**52 - 1, 2**63 - 1, 2**52, 2**63, 1, 2, 3, 4, 10, 40, 32, 52, 63,
    10**4, 10**8, 10**16))
# A value's source row: "000" and its 17 digits, its exponent ("+16",
# "-308"), "-" (NUL when positive), ".", "e", NUL.
_ROW, _EXP, _SIGN, _DOT, _E, _NUL = 28, 20, 24, 25, 26, 27
_WIDTH = 24  # the longest repr: -1.2345678901234567e-308
_NE = 22  # exponent classes: -4..15 print positionally, then e+XX, e+XXX
_RAW, _INT = 17 * _NE, 17 * _NE + _WIDTH  # + length - 1: a repr as it is; an integer


def _layout(n: int, e: int) -> list[int]:
    """Source-row bytes of the repr of n digits d.dd..d 10^e (e = 16, 17: e+XX, e+XXX)."""
    d = list(range(3, 20))
    if e < 0:
        return [0, _DOT] + [0] * (-e - 1) + d[:n]
    if e < 16:
        return d[:e + 1] + ([_DOT, 0] if e >= n - 1 else [_DOT] + d[e + 1:n])
    return d[:1] + [_DOT] * (n > 1) + d[1:n] + [_E] + list(range(_EXP + 17 - e, 24))


class _Tables:
    """The formatter's tables, built on first use."""

    @cached_property
    def scale(self) -> list[np.ndarray]:
        """Per biased exponent, plus 2048 for a power of two: Schubfach's
        g = floor(10^-k 2^-r) + 1 in 63-bit halves; for the right, then the
        left bound, the low word and the 2^63 halves of what it adds to the
        value's product; the significand's shift; and k + 356, the row of a
        17-digit value in the exponent tables."""
        edge = np.repeat([0, 1], 2048)
        q = np.tile(np.arange(2048).clip(1, 2046), 2) - 1075
        k = (q * 661_971_961_083 - edge * 274_743_187_321) >> 41
        r = ((-k * 217_706) >> 16) - 125
        ks, first, at = np.unique(k, return_index=True, return_inverse=True)
        g = [1 + ((1 << -rr) // 10**kk if kk > 0 else 10**-kk >> rr if rr >= 0 else 10**-kk << -rr)
             for kk, rr in zip(ks.tolist(), r[first].tolist())]
        g0 = np.array([x & (2**63 - 1) for x in g], np.uint64)[at]
        g1 = np.array([x >> 63 for x in g], np.uint64)[at]
        cols = [g0, g1]
        for t in (q + r + 128, q + r + 128 - edge):  # a bound is the value +- 2^t
            s = (t - 1).astype(np.uint64)
            low = ((g1 << s) & _M63) + (g0 >> (63 - s))
            cols += [g0 << (s + 1), low & _M63, (g1 >> (63 - s)) + (low >> _S63)]
        return cols + [(q + r + 129).astype(np.uint64), k + 356]

    @cached_property
    def digits(self) -> tuple[np.ndarray, ...]:
        """Four-digit ASCII words and their trailing zeros; per exponent its
        word and class; per class its bytes of the source row."""
        i = np.arange(10000, dtype=np.int32)
        ascii = i[:, None] // np.array([1000, 100, 10, 1], np.int32) % 10 + 48
        words = ascii.astype(np.uint8).view(np.uint32)[:, 0]
        zeros = sum(i % 10**k == 0 for k in (1, 2, 3, 4)).astype(np.intp)
        es = range(-340, 309)
        exps = np.frombuffer(b"".join(b"%4s" % (b"%+03d" % e) for e in es), np.uint32)
        eclass = np.array([e + 4 if -4 <= e < 16 else 20 + (abs(e) >= 100) for e in es]) + 16 * _NE
        template = np.full((_INT + 17, _WIDTH), _NUL, dtype=np.int32)
        for n in range(1, 18):
            for c in range(_NE):
                text = [_SIGN] + _layout(n, c - 4)
                template[(n - 1) * _NE + c, :len(text)] = text
            template[_INT + n - 1, :n] = range(20 - n, 20)
        for n in range(1, _WIDTH + 1):
            template[_RAW + n - 1, :n] = range(n)
        return words, zeros, exps, eclass, template


_TABLES = _Tables()


def _mul128(a, b0, b1):
    """High and low words of a (b1 2^32 + b0), for a < 2^63 and b1 < 2^27."""
    a0, a1 = a & _M32, a >> _S32
    low, mid = a0 * b0, a1 * b0 + a0 * b1
    return a1 * b1 + ((mid + (low >> _S32)) >> _S32), low + (mid << _S32)


def _shortest(mag: np.ndarray):
    """Schubfach on the bits of positive normal floats: the shortest digits
    (16 or 17 of them, trailing zeros kept), each value's row in the exponent
    tables, and which values are ties between two candidates."""
    *scale, exponent_row = _TABLES.scale
    c = mag & _M52
    i = (mag >> _S52).view(np.intp)
    i[c == 0] += 2048  # a power of two: its lower neighbour is nearer
    g0, g1, rc, rl, rh, lc, ll, lh, shift = (col.take(i) for col in scale)
    cp = (c | _B52) << shift
    c0, c1 = cp & _M32, cp >> _S32
    x1, lo = _mul128(g0, c0, c1)
    y1, y0 = _mul128(g1, c0, c1)
    z = (y0 >> _ONE) + x1
    ah, al = y1 + (z >> _S63), z & _M63
    # the value and its bounds times 4 10^-k, rounded to odd
    vb = ah | ((al + _M63) >> _S63)
    sl = al + rl + ((lo + rc) < lo)
    vbr = (ah + rh + (sl >> _S63)) | (((sl & _M63) + _M63) >> _S63)
    sl = (al | _B63) - ll - (lo < lc)
    vbl = (ah - lh - _ONE + (sl >> _S63)) | (((sl & _M63) + _M63) >> _S63)
    out = mag & _ONE  # an odd significand leaves the bounds out
    vbl += out
    vbr -= out
    s = vb >> _TWO
    sp10 = (s // _TEN) * _TEN
    s4, sp4 = s << _TWO, sp10 << _TWO
    upin, wpin = vbl <= sp4, sp4 + _FORTY <= vbr  # one digit fewer: sp10 or sp10 + 10
    uin, win = vbl <= s4, s4 + _FOUR <= vbr  # else s or s + 1
    r = vb & _THREE
    p10, one = upin != wpin, uin != win
    step = np.where(p10, wpin.view(np.uint8) * np.uint8(10),
                    ((one & win) | (~one & (r == _THREE))).view(np.uint8))
    return np.where(p10, sp10, s) + step, exponent_row.take(i), ~(p10 | one) & (r == _TWO)


class _Lines:
    """Lines of one ``%s`` format, filled from a table of float64 or integer
    values: each value's repr (an integer's digits) goes, as a NUL-padded
    24-byte field, into every slot of the line buffer that holds it, and
    dropping the NULs leaves the text."""

    def __init__(self, fmt: str, points: int):
        *pieces, end = [np.frombuffer(p, np.uint8) for p in fmt.encode().split(b"%s")]
        self.cols = cols = len(pieces)
        slot = max(map(len, pieces)) + _WIDTH
        self.buf = np.zeros((points, cols * slot + len(end)), dtype=np.uint8)
        self.buf[:, cols * slot:] = end
        slots = self.buf[:, :cols * slot].reshape(points, cols, slot)
        for j, piece in enumerate(pieces):  # NULs pad each piece on its left
            slots[:, j, slot - _WIDTH - len(piece):slot - _WIDTH] = piece
        self.fields = slots[:, :, slot - _WIDTH:]
        n = points * cols
        self.rows = np.zeros((n, _ROW), dtype=np.uint8)
        self.rows[:, _DOT:] = np.frombuffer(b".e\0", np.uint8)
        self.index = np.empty((n, _WIDTH), dtype=np.int32)
        self.base = np.arange(0, n * _ROW, _ROW, dtype=np.int32)[:, None]

    def text(self, values: np.ndarray, pick: np.ndarray, head=()) -> str:
        """The lines of the table ``values[pick]``, after the columns of
        fields formatted beforehand in ``head``."""
        p = len(pick)
        for j, fields in enumerate(head):
            self.fields[:p, j] = fields
        self.fields[:p, len(head):] = self._fields(values).take(pick, axis=0)
        buf = self.buf[:p]
        return buf[buf != 0].tobytes().decode("ascii")

    def _fields(self, values: np.ndarray) -> np.ndarray:
        """The (n, 24) NUL-padded fields of n values."""
        words, zeros, exps, eclass, template = _TABLES.digits
        n, floats = len(values), values.dtype.kind == "f"
        rows = self.rows[:n]
        r32 = rows.view(np.uint32)
        if floats:
            bits = values.view(np.uint64)
            mag = bits & _M63
            special = (mag - _B52) >= np.uint64(0x7FE0000000000000)  # 0, subnormal, inf, nan
            f, k, tie = _shortest(np.where(special, np.uint64(0x3FF0000000000000), mag))
            small = f < _E16
            f = np.where(small, f * _TEN, f)  # 17 digits
            k -= small
            r32[:, _EXP // 4] = exps.take(k)
            rows[:, _SIGN] = (bits >> _S63).astype(np.uint8) * np.uint8(45)  # "-"
        else:
            f = values.astype(np.uint64)
        hi = f // _E8
        lo = f - hi * _E8
        a = hi // _E8
        hi -= a * _E8
        b = hi // _E4
        d = lo // _E4
        chunks = [x.view(np.intp) for x in (a, b, hi - b * _E4, d, lo - d * _E4)]
        for j, x in enumerate(chunks):
            r32[:, j] = words.take(x)
        if floats:
            b, c, d, e = chunks[1:]
            tz = zeros.take(e)
            more = np.flatnonzero(e == 0)  # four trailing zeros or more: rare
            if more.size:
                b, c, d = b[more], c[more], d[more]
                tz[more] += zeros[d] + (d == 0) * (zeros[c] + (c == 0) * zeros[b])
            cls = eclass.take(k) - tz * _NE  # by digits left and exponent
            fallback = np.flatnonzero(special | tie)
            for j, v in zip(fallback.tolist(), values[fallback].tolist()):
                text = repr(v).encode()
                rows[j, :len(text)] = np.frombuffer(text, np.uint8)
                cls[j] = _RAW + len(text) - 1
        else:
            cls = _INT + np.searchsorted(10 ** np.arange(1, 18, dtype=np.uint64), f, side="right")
        index = template.take(cls, axis=0, out=self.index[:n])
        index += self.base[:n]
        return self.rows.reshape(-1).take(index)


#: Values per write: one grid row, or a group of rows.
BLOCK_VALUES = 4096


def _write_rows(out: TextIO, fmt: str, rows: int, points: int, table) -> None:
    """Write the ``fmt`` lines of ``rows`` grid rows of ``points`` lines
    each; ``table(i, j)`` gives rows i..j-1 as ``_Lines.text``'s arguments."""
    if not rows * points:
        return
    group = min(rows, max(1, BLOCK_VALUES // (points * fmt.count("%s"))))
    lines = _Lines(fmt, group * points)
    for i in range(0, rows, group):
        out.write(lines.text(*table(i, min(i + group, rows))))


def _distinct(columns: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """The distinct floats of a table, told apart by their bits (-0.0 is not
    0.0), and the index of each entry's float."""
    table = np.column_stack(columns)
    bits, pick = np.unique(table.view(np.uint64), return_inverse=True)
    return bits.view(np.float64), pick.reshape(table.shape)


def write_obj(mesh: MeshGrid, out: TextIO, projection: str = "drop-constant") -> int:
    """Write a quad OBJ; returns the index of the dropped coordinate.

    Each vertex line is followed by a comment carrying the dropped
    coordinate and the scalar channels."""
    drop = resolve_projection(mesh, projection)
    columns = [k for k in range(4) if k != drop] + [drop]
    out.write(f"# parametric surface mesh, {mesh.nu} x {mesh.nv} samples\n"
              f"# projection: dropped coordinate x{drop + 1}\n"
              f"# per-vertex comments: vd x{drop + 1} " + " ".join(CHANNEL_NAMES) + "\n")
    nu, nv = mesh.nu, mesh.nv

    def vertices(i, j):
        rows = slice(i * nv, j * nv)
        return _distinct([mesh.vertices[rows, columns]]
                         + [mesh.channels[name][rows] for name in CHANNEL_NAMES])

    _write_rows(out, "v %s %s %s\n# vd %s %s %s %s %s %s\n", nu, nv, vertices)
    corners = (np.arange(nv - 1)[:, None] + [0, 1, nv + 1, nv]).reshape(-1)  # faces below row 0

    def faces(i, j):  # the cells below rows i..j-1 pick from the 1-based indices of rows i..j
        return (np.arange(i * nv + 1, (j + 1) * nv + 1),
                (np.arange(j - i)[:, None] * nv + corners).reshape(-1, 4))

    _write_rows(out, "f %s %s %s %s\n", nu - 1, nv - 1, faces)
    return drop


def write_csv(mesh: MeshGrid, out: TextIO) -> int:
    """Write one row per sample: u,v,x1,x2,x3,x4,K,H1,H2,W.  Returns row count."""
    out.write("u,v,x1,x2,x3,x4,K,H1,H2,W\n")
    nv = mesh.nv
    grid = np.array(mesh.grid.us() + mesh.grid.vs())
    u, v = np.split(_Lines("%s", len(grid))._fields(grid), [mesh.nu])  # formatted once

    def table(i, j):
        rows = slice(i * nv, j * nv)
        values, pick = _distinct([mesh.vertices[rows]]
                                 + [mesh.channels[name][rows] for name in ("K", "H1", "H2", "W")])
        return values, pick, (u[i:j].repeat(nv, axis=0), np.tile(v, (j - i, 1)))

    _write_rows(out, "%s," * 9 + "%s\n", mesh.nu, nv, table)
    return len(mesh.vertices)
