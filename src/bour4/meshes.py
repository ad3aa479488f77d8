"""Sampled surface grids and OBJ/CSV export.

Plots are out of scope; meshes carry the geometry to external viewers.  OBJ
needs a 3D projection of the 4D vertices: either drop one coordinate
explicitly (``drop-k``) or drop the one that is constant across the mesh
(``drop-constant``, available exactly for hyperplanar surfaces).  The
dropped coordinate and the per-vertex scalar channels ride along in comment
lines.  CSV keeps everything: u, v, x1..x4, K, H1, H2, W per row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TextIO

import numpy as np

from .errors import DegenerateSurfaceError, NotSpacelikeError, ValidationError
from .families import HelicoidSpec, RotationalSpec, surface_jet, surface_profile
from .grids import Grid, sweep
from .lorentz import Vec4
from .surfaces import SurfaceJet, curvature_report

CHANNEL_NAMES = ("K", "H1", "H2", "Hsup", "W")


@dataclass
class MeshGrid:
    """Vertices (nu*nv x 4, row-major) and one array per scalar channel;
    the quad faces follow from the grid."""

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

    The profile is evaluated once per u and the geometry on blocks of rows.
    A callable (u, v) -> SurfaceJet is accepted in place of a spec; its jets
    are evaluated one point at a time, and a point where it raises is left
    NaN, so that the sweep re-runs it for its error.
    """
    if isinstance(surface, (HelicoidSpec, RotationalSpec)):
        def jet(u, v):
            return surface_jet(surface, surface_profile(surface, u), v)
    else:
        def jet(u, v):
            if not isinstance(u, np.ndarray):
                return surface(u, v)
            cells = [[_jet_or_nan(surface, a, b) for b in v[0].tolist()]
                     for a in u[:, 0].tolist()]
            return SurfaceJet(*(Vec4(*c) for c in np.array(cells).transpose(2, 3, 0, 1)))

    def f(u, v):
        j = jet(u, v)
        rep = curvature_report(j)
        return (*j.X, rep.K, rep.H1, rep.H2, rep.H_sup, rep.first.W)

    # every block is written into the one array the mesh keeps
    data = np.empty((grid.nu * grid.nv, 4 + len(CHANNEL_NAMES)))
    start = 0
    for block in sweep(grid, f, (NotSpacelikeError, DegenerateSurfaceError)):
        block.out[block.tolerated, 4:] = math.nan
        data[start:start + len(block.out)] = block.out
        start += len(block.out)
    channels = {name: data[:, 4 + k] for k, name in enumerate(CHANNEL_NAMES)}
    return MeshGrid(grid, data[:, :4], channels)


def _jet_or_nan(surface, u: float, v: float) -> SurfaceJet:
    try:
        return surface(u, v)
    except Exception:
        return SurfaceJet(*[Vec4(*[math.nan] * 4)] * 6)


def resolve_projection(mesh: MeshGrid, mode: str, tol: float = 1e-9) -> int:
    """Index (0..3) of the coordinate to drop for a 3D projection.

    ``drop-k`` for k in 1..4 drops that coordinate; ``drop-constant`` finds
    the coordinate whose range over the mesh vanishes (within tol, relative
    to its size) and fails when no coordinate is constant.
    """
    if mode.startswith("drop-") and mode[5:] in ("1", "2", "3", "4"):
        return int(mode[5:]) - 1
    if mode != "drop-constant":
        raise ValidationError(
            f"unknown projection {mode!r} (use drop-constant or drop-1..drop-4)")
    hi, lo = mesh.vertices.max(axis=0), mesh.vertices.min(axis=0)
    spread, scale = hi - lo, np.maximum(1.0, np.maximum(np.abs(hi), np.abs(lo)))  # max |x|
    flat = np.flatnonzero(spread <= tol * scale)
    if flat.size == 0:
        raise ValidationError(
            "drop-constant: no coordinate is constant across the mesh "
            f"(smallest spread {spread.min():.3g})")
    return int(flat[np.argmin(spread[flat])])


def write_obj(mesh: MeshGrid, out: TextIO, projection: str = "drop-constant") -> int:
    """Write a quad OBJ; returns the index of the dropped coordinate.

    Each vertex line is followed by a comment carrying the dropped
    coordinate and the scalar channels.  Like write_csv, it formats one grid
    row of lines per write, so no chunk of text outgrows a sweep block.
    """
    drop = resolve_projection(mesh, projection)
    keep = [k for k in range(4) if k != drop]
    out.write(f"# parametric surface mesh, {mesh.nu} x {mesh.nv} samples\n")
    out.write(f"# projection: dropped coordinate x{drop + 1}\n")
    out.write(f"# per-vertex comments: vd x{drop + 1} " + " ".join(CHANNEL_NAMES) + "\n")
    nv = mesh.nv
    for i in range(mesh.nu):
        rows = slice(i * nv, (i + 1) * nv)
        coords = mesh.vertices[rows][:, keep].tolist()
        extras = np.column_stack([mesh.vertices[rows, drop]]
                                 + [mesh.channels[name][rows] for name in CHANNEL_NAMES])
        out.write("".join(
            "v " + " ".join(map(repr, c)) + "\n# vd " + " ".join(map(repr, e)) + "\n"
            for c, e in zip(coords, extras.tolist())))
    for i in range(mesh.nu - 1):  # the faces of the cells below grid row i, 1-based
        out.write("".join(f"f {a} {a + 1} {a + nv + 1} {a + nv}\n"
                          for a in range(i * nv + 1, (i + 1) * nv)))
    return drop


def write_csv(mesh: MeshGrid, out: TextIO) -> int:
    """Write one row per sample: u,v,x1,x2,x3,x4,K,H1,H2,W.  Returns row count."""
    out.write("u,v,x1,x2,x3,x4,K,H1,H2,W\n")
    # each u and v is formatted once, not once per row
    u_text = [f"{u!r}," for u in mesh.grid.us()]
    v_text = [f"{v!r}," for v in mesh.grid.vs()]
    nv = len(v_text)
    for i, u in enumerate(u_text):
        rows = slice(i * nv, (i + 1) * nv)
        table = np.column_stack([mesh.vertices[rows]]
                                + [mesh.channels[name][rows] for name in ("K", "H1", "H2", "W")])
        out.write("".join(u + v + ",".join(map(repr, r)) + "\n"
                          for v, r in zip(v_text, table.tolist())))
    return len(mesh.vertices)
