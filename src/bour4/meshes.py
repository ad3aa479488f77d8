"""Sampled surface meshes and OBJ/CSV export.

Plots are out of scope; meshes carry the geometry to external viewers.  OBJ
needs a 3D projection of the 4D vertices: either drop one coordinate
explicitly (``drop-k``) or drop the one that is constant across the mesh
(``drop-constant``, available exactly for hyperplanar surfaces).  The
dropped coordinate and the per-vertex scalar channels ride along in comment
lines.  CSV keeps everything: u, v, x1..x4, K, H1, H2, W per row.

A mesh (``sample_mesh``'s ``MeshStream``) is sampled one sweep block of rows
at a time, as the writers read it, and keeps no other block: a write holds
one block and one group of written rows at any grid size.  Each writer
reads the rows once, in ascending order, and writes one grid row, or a
group of rows of at most BLOCK_VALUES (8192) values, per write; a group
takes at most about 180 bytes per value, 1.5 MB in all.  Their text is one
repr per value, from integer array operations: Schubfach's shortest digits,
laid out by repr's rules; zeros, subnormals, inf, nan and ties go through
repr itself.  Each distinct float of a write (told apart by its bits: -0.0
is not 0.0) is formatted once.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Iterator, TextIO

import numpy as np

from .errors import DegenerateSurfaceError, NotSpacelikeError, ValidationError
from .families import HelicoidSpec, RotationalSpec, helicoid_jet, profile_jets
from .grids import Grid, sweep
from .surfaces import curvature_report

CHANNEL_NAMES = ("K", "H1", "H2", "Hsup", "W")
#: Columns of a row of samples: x1..x4, then the channels.
COLUMNS = 4 + len(CHANNEL_NAMES)


def _blocks(surface, grid: Grid, channels: bool = True) -> Iterator[np.ndarray]:
    """The samples of each sweep block of rows, in row order: x1..x4 and,
    with ``channels``, the scalar channels, nan off the spacelike locus."""
    def f(u, v, profile):  # a callable surface reads no profile
        j = surface(u, v) if callable(surface) else helicoid_jet(surface, u, v, profile)
        if not channels:
            return j.X
        rep = curvature_report(j)
        return (*j.X, rep.K, rep.H1, rep.H2, rep.H_sup, rep.first.W)

    for block in sweep(grid, f, (NotSpacelikeError, DegenerateSurfaceError),
                       lambda u: (None if callable(surface) else profile_jets(surface, u),)):
        block.out[block.tolerated, 4:] = math.nan
        yield block.out


class MeshStream:
    """A surface's mesh over a grid, sampled as the writers read it.

    Each pass over the rows, from row 0 in ascending order, sweeps the
    surface afresh and holds only the rows of its last block not yet read.
    """

    def __init__(self, surface: HelicoidSpec | RotationalSpec, grid: Grid):
        self.surface, self.grid = surface, grid
        self._blocks, self._held = iter(()), np.empty((0, COLUMNS))  # rows not yet read
        self._next = None  # the row the pass reads next

    def rows(self, i: int, j: int) -> np.ndarray:
        """The samples of grid rows i..j-1, one row per point: x1..x4, then
        the channels.  i = 0 starts a pass; any other i must be the last
        call's j."""
        if i == 0:
            self._blocks, self._held = _blocks(self.surface, self.grid), np.empty((0, COLUMNS))
        elif i != self._next:
            raise ValueError(f"mesh rows {i}..{j - 1} read out of order: "
                             f"the pass is at row {self._next}")
        self._next = j
        n = (j - i) * self.grid.nv
        while len(self._held) < n:
            rest, self._held = self._held.copy(), None  # the block goes before the next is swept
            block = next(self._blocks)
            self._held = np.concatenate([rest, block]) if len(rest) else block
        out, self._held = self._held[:n], self._held[n:]
        return out

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Each coordinate's least and greatest value, from a sweep of the
        positions alone (the floats of the full sweep's x1..x4)."""
        ends = [(x.min(axis=0), x.max(axis=0))
                for x in _blocks(self.surface, self.grid, channels=False)]
        lo, hi = zip(*ends)
        return np.min(lo, axis=0), np.max(hi, axis=0)


def sample_mesh(surface: HelicoidSpec | RotationalSpec, grid: Grid) -> MeshStream:
    """A surface's mesh over the grid; curvature channels are nan off the
    spacelike locus.

    The surface is read through ``helicoid_jet``, its profile once per
    sweep and the geometry on blocks of rows.  A callable (u, v) ->
    SurfaceJet is accepted in place of a spec and called on each block's u
    column and v row; one that takes floats only raises its own error on
    the arrays, when the rows are read.
    """
    return MeshStream(surface, grid)


def resolve_projection(mesh: MeshStream, mode: str) -> int:
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
    lo, hi = mesh.bounds()
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
        ks = np.arange(k.min(), k.max() + 1)
        rs, at = ((-ks * 217_706) >> 16) - 125, k - ks[0]
        # floor(10^-k 2^-r) is floor(2^b 10^-k) >> (b + r); for k ascending, each
        # floor(2^b 10^-k) is the previous one // 10, exactly
        b = int(-rs.min())
        x, g = 2**b * 10**int(-ks[0]), bytearray()
        for s in (b + rs).tolist():
            g += ((x >> s) + 1).to_bytes(16, "little")
            x //= 10
        lo, hi = np.frombuffer(g, "<u8").reshape(-1, 2).T.take(at, axis=1)
        g0, g1, r = lo & _M63, (hi << _ONE) | (lo >> _S63), rs.take(at)
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
        d = np.indices((10,) * 4, np.uint8).reshape(4, -1).T + np.uint8(48)  # 0000..9999
        words = np.ascontiguousarray(d).view(np.uint32)[:, 0]
        zeros = np.zeros(10000, np.intp)
        for step in (10, 100, 1000, 10000):
            zeros[::step] += 1
        e = np.arange(-340, 309)
        a, sign = abs(e), np.where(e < 0, 45, 43)
        exps = np.stack([np.where(a < 100, 32, sign), np.where(a < 100, sign, 48 + a // 100),
                         48 + a // 10 % 10, 48 + a % 10], axis=1)  # "%4s" % "%+03d" % e
        exps = exps.astype(np.uint8).view(np.uint32)[:, 0]
        eclass = np.where((-4 <= e) & (e < 16), e + 4, 20 + (a >= 100)) + 16 * _NE
        # row (n - 1) _NE + c lays out "-" and n digits d.dd..d 10^e, c = e + 4.
        # Positional, place p after the sign holds "." at dot, else digit i ("0"
        # before the first digit and after a dot with no digit left); scientific,
        # d[.dd..d] then "e" and the exponent's w bytes.
        n, e, p = np.ogrid[1:18, -4:18, -1:_WIDTH - 1]
        dot = np.maximum(e, 0) + 1
        i = p - (p > dot) + np.minimum(e, 0)
        fixed = np.where(p == dot, _DOT, np.where((i < 0) | (p > dot) & (i >= n), 0, 3 + i))
        fixed = np.where(p <= dot + np.maximum(n - 1 - e, 1), fixed, _NUL)
        w, m = e - 13, n + (n > 1)  # m: the length of d[.dd..d]
        sci = np.select([p == 0, p == (n > 1), p < m, p == m, p <= m + w],
                        [3, _DOT, 2 + p, _E, 23 - w - m + p], _NUL)
        template = np.empty((_INT + 17, _WIDTH), dtype=np.int32)
        template[:_RAW] = np.where(e < 16, fixed, sci).reshape(_RAW, _WIDTH)
        template[:_RAW, 0] = _SIGN
        j, n = np.arange(_WIDTH), np.arange(1, 18)[:, None]
        template[_RAW:_INT] = np.where(j <= j[:, None], j, _NUL)  # a repr of j + 1 bytes
        template[_INT:] = np.where(j < n, j + 20 - n, _NUL)  # an integer of n digits
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
        self.base = np.arange(0, n * _ROW, _ROW, dtype=np.int32)[:, None]

    def text(self, values: np.ndarray, pick: np.ndarray, head=()) -> str:
        """The lines of the table ``values[pick]``, after the columns of
        fields formatted beforehand in ``head``."""
        p = len(pick)
        for j, fields in enumerate(head):
            self.fields[:p, j] = fields
        self.fields[:p, len(head):] = self._fields(values).take(pick, axis=0)
        return self.buf[:p].tobytes().translate(None, b"\0").decode("ascii")

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
        flat, fields = self.rows.reshape(-1), np.empty((n, _WIDTH), np.uint8)
        for a in range(0, n, 1024):  # in slices: take copies its index to intp
            index = template.take(cls[a:a + 1024], axis=0)
            index += self.base[a:a + len(index)]
            fields[a:a + 1024] = flat.take(index)
        return fields


#: Values per write: one grid row, or a group of rows.
BLOCK_VALUES = 8192


def _write_rows(out: TextIO, fmt: str, rows: int, points: int, table) -> None:
    """Write the ``fmt`` lines of ``rows`` grid rows of ``points`` lines
    each; ``table(i, j)`` gives rows i..j-1 as ``_Lines.text``'s arguments."""
    if not rows * points:
        return
    group = min(rows, max(1, BLOCK_VALUES // (points * fmt.count("%s"))))
    lines = _Lines(fmt, group * points)
    for i in range(0, rows, group):
        out.write(lines.text(*table(i, min(i + group, rows))))


def _distinct(table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct floats of a table, told apart by their bits (-0.0 is not
    0.0), and the index of each entry's float."""
    bits, pick = np.unique(table.view(np.uint64), return_inverse=True)
    return bits.view(np.float64), pick.reshape(table.shape)


def write_obj(mesh: MeshStream, out: TextIO, projection: str = "drop-constant") -> int:
    """Write a quad OBJ; returns the index of the dropped coordinate.

    Each vertex line is followed by a comment carrying the dropped
    coordinate and the scalar channels."""
    drop = resolve_projection(mesh, projection)
    columns = [k for k in range(4) if k != drop] + [drop, *range(4, COLUMNS)]
    nu, nv = mesh.grid.nu, mesh.grid.nv
    out.write(f"# parametric surface mesh, {nu} x {nv} samples\n"
              f"# projection: dropped coordinate x{drop + 1}\n"
              f"# per-vertex comments: vd x{drop + 1} " + " ".join(CHANNEL_NAMES) + "\n")
    _write_rows(out, "v %s %s %s\n# vd %s %s %s %s %s %s\n", nu, nv,
                lambda i, j: _distinct(mesh.rows(i, j)[:, columns]))
    corners = (np.arange(nv - 1)[:, None] + [0, 1, nv + 1, nv]).reshape(-1)  # faces below row 0

    def faces(i, j):  # the cells below rows i..j-1 pick from the 1-based indices of rows i..j
        return (np.arange(i * nv + 1, (j + 1) * nv + 1),
                (np.arange(j - i)[:, None] * nv + corners).reshape(-1, 4))

    _write_rows(out, "f %s %s %s %s\n", nu - 1, nv - 1, faces)
    return drop


#: The CSV's columns of a row of samples: x1..x4, K, H1, H2, W.
_CSV_COLUMNS = [0, 1, 2, 3, 4, 5, 6, 8]


def write_csv(mesh: MeshStream, out: TextIO) -> int:
    """Write one row per sample: u,v,x1,x2,x3,x4,K,H1,H2,W.  Returns row count."""
    out.write("u,v,x1,x2,x3,x4,K,H1,H2,W\n")
    nu, nv = mesh.grid.nu, mesh.grid.nv
    grid = np.array(mesh.grid.us() + mesh.grid.vs())
    u, v = np.split(_Lines("%s", len(grid))._fields(grid), [nu])  # formatted once

    def table(i, j):
        values, pick = _distinct(mesh.rows(i, j)[:, _CSV_COLUMNS])
        return values, pick, (u[i:j].repeat(nv, axis=0), np.tile(v, (j - i, 1)))

    _write_rows(out, "%s," * 9 + "%s\n", nu, nv, table)
    return nu * nv
